"""Gibbs MCMC over the structural model and model-averaged forecasting.

Each sweep: (1) draw a state path with the simulation smoother given the
current parameters (`ffbs_sample`: a noise-only path plus the smoothed mean
from the banded-plus-border precision solve that also gives `kalman_loglik`'s
log-likelihood, which the sweep does not use yet); (2) conjugate inverse-gamma
draws (`VariancePrior.draw`) for the level, slope, and seasonal noise
variances from state-innovation sums of squares; (3) Gaussian draw for the
long-run slope D and truncated-Gaussian draw for the AR coefficient phi
given the slope path; (4) a spike-and-slab
sweep on the observation residual, which draws the observation variance too
(a model without regression runs the zero-column sweep). The chain's state is
one `ParamPoint`; `PosteriorDraws.from_rows` stacks the retained draws.
Forecasts work on all retained draws at once: `posterior_forecast` samples
joint forward paths from each draw's terminal state; `forecast_anchors`
filters every draw through the series and samples y_{t+h} from each draw's
exact Gaussian predictive at every anchor.

Both move every draw at once on the draws-last transition kernel
`kalman._DrawOperators` (states (m, K), covariances (m, m, K) for K draws),
and `forecast_anchors` filters with `kalman._filter_draws`, the one Kalman
filter. Row 1 of every phi = 0 template S is zero and column 1 is e_0, so
the anchored predictive's backward vector is u_h = w_h + g_h e_1 with w_h
shared by every draw, and u'Pu comes from one product of the (H, m) w with
the draws-last P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from ..errors import NumericalError, RangeError, SchemaError
from .components import MAX_HORIZON, StateSpaceModel
from .kalman import ParamPoint, _DrawOperators, _filter_draws, ffbs_sample
from .spike_slab import sample_regression

_FORECAST_SALT = 0x5EED
_PHI_EDGE = 1e-9
_ANCHOR_BLOCK = 64  # anchors whose samples are summarised together
_VARIANCE_RTOL = 1e-9


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained per-draw parameters and terminal states from one chain."""

    sigma_level: np.ndarray  # (K,)
    sigma_slope: np.ndarray
    sigma_obs: np.ndarray
    sigma_seasonal: np.ndarray  # (K, S)
    d: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray  # (K, J) 0/1
    beta: np.ndarray  # (K, J)
    terminal_state: np.ndarray  # (K, m)
    requested: int
    burn: int
    seed: int

    @property
    def n_draws(self) -> int:
        return int(self.sigma_level.size)

    def __post_init__(self) -> None:
        if self.n_draws != self.requested - self.burn:
            raise SchemaError("draw count must equal requested draws minus burn-in")
        # MCMC output is strictly positive with |phi| < 1 by construction;
        # hand-built degenerate draws (zero noise) are allowed for testing
        # deterministic propagation.
        if np.any(self.sigma_level < 0) or np.any(self.sigma_slope < 0) or np.any(self.sigma_obs < 0):
            raise RangeError("noise sds must be >= 0")
        if self.sigma_seasonal.size and np.any(self.sigma_seasonal < 0):
            raise RangeError("seasonal noise sds must be >= 0")
        if np.any(np.abs(self.phi) > 1.0):
            raise RangeError("phi draws must lie in [-1, 1]")
        if self.beta.size and np.any(self.beta[self.gamma == 0] != 0.0):
            raise RangeError("beta must be exactly zero wherever gamma is zero")

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple[ParamPoint, np.ndarray, np.ndarray]], requested: int, burn: int, seed: int
    ) -> "PosteriorDraws":
        """Stack one or more retained draws, each a row (ParamPoint, gamma, terminal state).

        Vector fields stack to (K, S), (K, J) and (K, m), so to (K, 0) when
        the model has no seasonals or no regression columns.
        """
        params, gamma, terminal = zip(*rows)

        def stacked(values, dtype=float) -> np.ndarray:
            return np.stack([np.asarray(value, dtype=dtype) for value in values])

        names = ("sigma_level", "sigma_slope", "sigma_obs", "sigma_seasonal", "d", "phi", "beta")
        return cls(
            **{name: stacked(getattr(p, name) for p in params) for name in names},
            gamma=stacked(gamma, np.int64),
            terminal_state=stacked(terminal),
            requested=requested,
            burn=burn,
            seed=seed,
        )


def _draw_truncated_normal(
    mean: float, sd: float, lo: float, hi: float, rng: np.random.Generator
) -> float:
    a = ndtr((lo - mean) / sd)
    b = ndtr((hi - mean) / sd)
    if b - a < 1e-15:
        # Essentially no mass inside the interval: pin to the nearest edge.
        return lo + _PHI_EDGE if mean < lo else hi - _PHI_EDGE
    u = a + (b - a) * rng.random()
    u = min(max(u, 1e-15), 1.0 - 1e-15)
    value = mean + sd * float(ndtri(u))
    return min(max(value, lo + _PHI_EDGE), hi - _PHI_EDGE)


def mcmc_fit(
    model: StateSpaceModel,
    y: Sequence[float],
    x: Optional[np.ndarray] = None,
    draws: int = 1000,
    burn: int = 200,
    seed: int = 0,
) -> PosteriorDraws:
    """Run one Gibbs chain and retain the post-burn draws."""
    if draws <= burn:
        raise RangeError(f"draws ({draws}) must exceed burn ({burn})")
    if burn < 0:
        raise RangeError("burn must be >= 0")
    y = np.asarray(y, dtype=float)
    n = y.size
    rng = np.random.default_rng(seed)
    tp = model.trend_priors
    design = model.design if x is None else np.asarray(x, dtype=float)
    params = ParamPoint(
        sigma_level=float(np.sqrt(tp.level_var.guess)),
        sigma_slope=float(np.sqrt(tp.slope_var.guess)),
        sigma_obs=float(np.sqrt(model.obs_var_prior.guess)),
        sigma_seasonal=tuple(float(np.sqrt(s.var_prior.guess)) for s in model.seasonals),
        d=tp.d_mean,
        phi=float(np.clip(tp.phi_mean, -1.0 + _PHI_EDGE, 1.0 - _PHI_EDGE)),
        beta=np.zeros(model.n_regressors),
    )
    gamma = np.zeros(model.n_regressors, dtype=np.int64)

    # Per seasonal, the steps t < n-1 whose move to t+1 starts a new season.
    boundary_steps = [np.flatnonzero(flags) for flags in model.boundaries(n).T]

    rows = []
    for it in range(draws):
        try:
            states = ffbs_sample(model, params, y, rng, x=design)
        except NumericalError as exc:
            raise NumericalError(f"MCMC aborted at draw {it}: {exc}") from exc

        d, phi = params.d, params.phi
        level = states[:, 0]
        slope = states[:, 1]
        u = level[1:] - level[:-1] - slope[:-1]
        sigma_level = float(np.sqrt(tp.level_var.draw(float(u @ u), n - 1, rng)))
        v = slope[1:] - (d + phi * (slope[:-1] - d))
        sigma_slope = float(np.sqrt(tp.slope_var.draw(float(v @ v), n - 1, rng)))
        slope_var = sigma_slope**2

        sigma_seasonal = []
        for layout, steps in zip(model.seasonals, boundary_steps):
            i0 = layout.state_start
            w = states[steps + 1, i0] + states[steps][:, i0 : i0 + layout.state_dim].sum(axis=1)
            sigma_seasonal.append(float(np.sqrt(layout.var_prior.draw(float(w @ w), steps.size, rng))))

        # D | slope path, phi: z_t = slope_{t+1} - phi slope_t = D(1-phi) + v_t
        zt = slope[1:] - phi * slope[:-1]
        prec = 1.0 / tp.d_sd**2 + (n - 1) * (1.0 - phi) ** 2 / slope_var
        mean = (tp.d_mean / tp.d_sd**2 + (1.0 - phi) * float(np.sum(zt)) / slope_var) / prec
        d = float(mean + rng.standard_normal() / np.sqrt(prec))

        # phi | slope path, D: (slope_{t+1} - D) = phi (slope_t - D) + v_t
        centered = slope - d
        sxx = float(centered[:-1] @ centered[:-1])
        sxy = float(centered[:-1] @ centered[1:])
        prec = 1.0 / tp.phi_sd**2 + sxx / slope_var
        mean = (tp.phi_mean / tp.phi_sd**2 + sxy / slope_var) / prec
        phi = _draw_truncated_normal(mean, float(1.0 / np.sqrt(prec)), -1.0, 1.0, rng)

        residual = y - states @ model.z
        gamma, beta, sigma_obs = sample_regression(
            residual, design[:n], gamma, model.spike_slab, model.obs_var_prior, rng
        )
        params = ParamPoint(sigma_level, sigma_slope, sigma_obs, tuple(sigma_seasonal), d, phi, beta)
        if it >= burn:
            rows.append((params, gamma, states[-1].copy()))

    return PosteriorDraws.from_rows(rows, requested=draws, burn=burn, seed=seed)


@dataclass(frozen=True)
class ForecastResult:
    mean: np.ndarray  # (h,)
    lower95: np.ndarray
    upper95: np.ndarray
    paths: np.ndarray  # (K, h) per-draw sampled paths


def posterior_forecast(
    draws: PosteriorDraws,
    model: StateSpaceModel,
    horizon: int,
    x_future: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    sample: bool = True,
) -> ForecastResult:
    """Model-averaged forecast from the terminal states of every draw.

    All draws are propagated together from the last training index, so the
    seasonal boundary schedule continues in phase. Each row of `paths` is one
    draw's jointly sampled path; the point forecast is the mean over draws and
    the interval the empirical 2.5%/97.5% band. With sample=False innovations
    and observation noise are suppressed and each path is the deterministic
    propagation of its draw.
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise RangeError(f"horizon must lie in 1..{MAX_HORIZON}, got {horizon}")
    if rng is None:
        rng = np.random.default_rng([draws.seed, _FORECAST_SALT])
    ops = _DrawOperators(model, draws)
    offsets = np.zeros(horizon)
    if model.n_regressors:
        if x_future is None or np.shape(x_future) != (horizon, model.n_regressors):
            raise SchemaError(
                f"x_future of shape ({horizon}, {model.n_regressors}) is required with regressors"
            )
        offsets = np.asarray(x_future, dtype=float) @ draws.beta.T  # (horizon, K)

    alpha = np.asarray(draws.terminal_state, dtype=float).T.copy()  # (m, K)
    paths = np.empty((draws.n_draws, horizon))
    for j in range(horizon):
        step = ops.step(model.n_train - 1 + j)
        alpha = ops.transition(step, alpha)
        alpha += ops.intercept
        if sample:
            alpha += np.sqrt(ops.noise_vars[step]) * rng.standard_normal(alpha.shape[::-1]).T
        paths[:, j] = ops.z.dot(alpha) + offsets[j]
    if sample:
        paths += np.sqrt(ops.obs_var)[:, None] * rng.standard_normal(paths.shape)
    lower, upper = np.percentile(paths, [2.5, 97.5], axis=0)
    return ForecastResult(mean=paths.mean(axis=0), lower95=lower, upper95=upper, paths=paths)


def _predictive_moments(
    terms: tuple[np.ndarray, ...], a: np.ndarray, P: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance (H, K) of y_{t+h} for every horizon and draw.

    a (m, K) and P (m, m, K) are the filtered state moments at t, draws last,
    `terms` is horizon_terms at t and offsets (H, K) holds x_{t+h}' beta.
    u'Pu = w'Pw + g (2 (Pw)_1 + g P_11) with w'P one (H, m) x (m, m K)
    product. Its rounding is bounded by (|w|' sqrt(diag P) + |g| sqrt(P_11))^2,
    as |P_ij| <= sqrt(P_ii P_jj) for a covariance: a variance negative beyond
    that raises NumericalError, one within it becomes zero.
    """
    w, g, b, s = terms
    m, k = a.shape
    wp = w.dot(P.reshape(m, m * k)).reshape(-1, m, k)  # w'P, which is (P w)' for symmetric P
    mean = w.dot(a) + g * a[1] + b + offsets
    var = np.einsum("hm,hmk->hk", w, wp) + g * (2.0 * wp[:, 1] + g * P[1, 1]) + s
    if not var.min() >= 0.0:  # a NaN takes this branch too
        diag_sd = np.sqrt(np.abs(P.reshape(m * m, k)[:: m + 1]))
        scale = (np.abs(w).dot(diag_sd) + np.abs(g) * diag_sd[1]) ** 2 + s
        if not np.all(var >= -_VARIANCE_RTOL * scale):
            raise NumericalError("negative or non-finite predictive variance")
        var = np.maximum(var, 0.0)
    return mean, var


def _sorted_percentiles(ordered: np.ndarray, percents: Sequence[float]) -> np.ndarray:
    """np.percentile's linear rule along the last axis of samples sorted on it: (len(percents), ...).

    Percentile q of K sorted values lies at position q/100 (K-1) and
    interpolates the two order statistics around it, from the nearer one, as
    numpy's lerp does.
    """
    k = ordered.shape[-1]
    bands = []
    for q in percents:
        position = q / 100.0 * (k - 1)
        lo = int(position)
        frac = position - lo
        a, b = ordered[..., lo], ordered[..., min(lo + 1, k - 1)]
        bands.append(b - (b - a) * (1.0 - frac) if frac >= 0.5 else a + (b - a) * frac)
    return np.stack(bands)


def forecast_anchors(
    model: StateSpaceModel,
    draws: PosteriorDraws,
    y: Sequence[float],
    anchors: Sequence[int],
    horizons: Sequence[int],
    x: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    thin: int = 1,
) -> dict[int, dict[str, np.ndarray]]:
    """Forecast y_{t+h} from every anchor t using one filter pass over all draws.

    The filter consumes all observations up to and including each anchor, so a
    forecast at anchor t depends only on y_0..y_t. All draws are filtered
    together with the draw axis last, through the transition kernel of
    `_DrawOperators`: each step's T P T' is built from the boundary mask's
    shared phi = 0 template plus a phi update of row and column 1, in place
    when the step crosses no seasonal boundary. Given a draw and its filtered
    state at t, y_{t+h} is Gaussian in closed form (Durbin & Koopman, ch. 4),
    with moments read from the draws-last a_t and P_t through the shared w_h
    of `horizon_terms`. One value per draw and horizon is sampled from it, and
    the forecast is the mean and empirical 2.5%/97.5% band over draws, in
    blocks of up to 64 anchors whose noise is drawn in one call and whose
    band comes from one sort along the draw axis (`_sorted_percentiles`). Draw
    parameters may be thinned (every `thin`-th draw) to bound the cost of long
    anchor sweeps.
    Returns {h: {"mean", "lower95", "upper95"} arrays over anchors}.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    anchors = np.asarray(sorted(anchors), dtype=np.int64)
    horizons = tuple(sorted(set(int(h) for h in horizons)))
    if not horizons or horizons[0] < 1:
        raise RangeError("horizons must be >= 1")
    if anchors.size == 0:
        raise RangeError("at least one anchor is required")
    if anchors[0] < 0 or anchors[-1] + horizons[-1] > n - 1:
        raise RangeError("anchors plus the longest horizon must stay inside the series")
    if thin < 1:
        raise RangeError("thin must be >= 1")
    if rng is None:
        rng = np.random.default_rng([draws.seed, _FORECAST_SALT, 1])

    keep = slice(None, None, thin)
    ops = _DrawOperators(model, draws, keep)
    if not model.n_regressors:
        x = np.zeros((n, 0))
    elif x is None or np.shape(x)[0] < n or np.shape(x)[1:] != (model.n_regressors,):
        raise SchemaError(f"x with {model.n_regressors} columns covering all {n} steps is required")
    x = np.asarray(x, dtype=float)

    steps_ahead = np.asarray(horizons)
    summary = np.empty((3, anchors.size, steps_ahead.size))  # mean, lower95, upper95
    block = np.empty((2, min(_ANCHOR_BLOCK, anchors.size), steps_ahead.size, ops.obs_var.size))  # mean, sd
    filled = next_anchor = 0

    for t, a, P, *_ in _filter_draws(model, ops, y[: anchors[-1] + 1], x):
        if anchors[next_anchor] != t:
            continue
        mean, var = _predictive_moments(ops.horizon_terms(t, horizons), a, P, x[t + steps_ahead] @ ops.beta)
        while next_anchor < anchors.size and anchors[next_anchor] == t:
            block[:, filled] = mean, np.sqrt(var)
            filled += 1
            next_anchor += 1
            if filled == block.shape[1] or next_anchor == anchors.size:
                # The block's noise in one call, the same stream as one (K, H) call per anchor.
                samples = block[1, :filled]  # the sds become the samples, in place
                samples *= rng.standard_normal((filled, block.shape[3], block.shape[2])).transpose(0, 2, 1)
                samples += block[0, :filled]
                rows = slice(next_anchor - filled, next_anchor)
                summary[0, rows] = samples.mean(axis=2)
                samples.sort(axis=2)
                summary[1:, rows] = _sorted_percentiles(samples, (2.5, 97.5))
                filled = 0

    return {
        h: {"mean": summary[0, :, i], "lower95": summary[1, :, i], "upper95": summary[2, :, i]}
        for i, h in enumerate(horizons)
    }
