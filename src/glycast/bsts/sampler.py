"""Gibbs MCMC over the structural model and model-averaged forecasting.

Each sweep: (1) draw a state path given the current parameters
(`ffbs_sample`: one vector of normals through the factorisation of the
banded-plus-border precision solve that also gives `kalman_loglik`'s
log-likelihood, which the sweep does not use yet); (2) conjugate
inverse-gamma draws (`VariancePrior.draw`) for the level, slope, and
seasonal noise variances, one per prior, from the sums of squares of the
path's `_SequenceLayout.innovations`, the state noise that `kalman_loglik`
scores too; (3) Gaussian draw for the long-run slope D and
truncated-Gaussian draw for the AR coefficient phi given the slope path; (4)
a spike-and-slab sweep on the observation residual, which draws the
observation variance too (a model without regression runs the zero-column
sweep). The chain's state is one `ParamPoint`, and its retained draws
(`PosteriorDraws.from_rows`) are a ParamPoint with a draw axis;
`StateSpaceModel.check_shapes` holds what fits a model for one point and K
draws alike, so a forecast refuses another model's draws.
Forecasts work on all retained draws at once and share one predictive:
`forecast_anchors` filters every draw through the series and samples
y_{t+h} from each draw's exact Gaussian predictive at every anchor;
`posterior_forecast` samples that predictive at the last training index from
each draw's terminal state, each step from its marginal, not joint paths.

Both move every draw at once on the draws-last transition kernel
`kalman._DrawOperators` (states (m, K), covariances (m, m, K) for K draws),
whose every step is the model's one in-place rule `StateSpaceModel.transition`
(T P T' moves only the rows and columns a step changes, and the step's noise
is added slot by slot to P's diagonal), and `forecast_anchors` filters with
`kalman._filter_draws`, the one Kalman filter. The predictive's terms come
from `_DrawOperators.horizon_terms`, one forward pass of the filter's predict
step over the horizon. phi enters a step only through the slope, which moves
into the level alone, so the predictive's loading on the state is
u_h = w_h + g_h e_1 with w_h shared by every draw. `_predictive_moments`
reduces the draws-last (a, P) at an anchor to three products, w a, w P[:, 1]
and w'Pw (one (H, m^2) x (m^2, K) product of the cached w_h (x) w_h with P's
flat form), written straight into the anchor's rows of the block that is
sampled, where g, b, s and x'beta are folded in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from ..casts import checked, integer, integers
from ..errors import NumericalError, RangeError, SchemaError
from .components import MAX_HORIZON, StateSpaceModel
from .kalman import ParamPoint, _DrawOperators, _filter_draws, _sequence_layout, ffbs_sample
from .spike_slab import SweepTerms, sample_regression

_FORECAST_SALT = 0x5EED  # posterior_forecast's noise stream
_ANCHOR_SALT = 0xF0C5  # forecast_anchors' noise stream
_PHI_EDGE = 1e-9
_ANCHOR_BLOCK = 64  # anchors whose samples are summarised together
_VARIANCE_RTOL = 1e-9


@dataclass(frozen=True, kw_only=True, eq=False)
class PosteriorDraws(ParamPoint):
    """The retained draws of one chain: a `ParamPoint` whose fields carry a leading draw axis.

    Each draw adds its indicators gamma (K, J) and terminal state (K, m), the chain its draws, burn-in and seed.
    """

    gamma: np.ndarray  # (K, J) 0/1
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
        super().__post_init__()
        if self.beta.size and np.any(self.beta[self.gamma == 0] != 0.0):
            raise RangeError("beta must be exactly zero wherever gamma is zero")

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple[ParamPoint, np.ndarray, np.ndarray]], requested: int, burn: int, seed: int
    ) -> "PosteriorDraws":
        """Stack one or more retained draws, each a row (ParamPoint, gamma, terminal state).

        Every `ParamPoint` field stacks along a new leading axis, so vector
        fields stack to (K, S), (K, J) and (K, m), and to (K, 0) when the
        model has no seasonals or no regression columns.
        """
        params, gamma, terminal = zip(*rows)
        return cls(
            **{f.name: np.array([getattr(p, f.name) for p in params], dtype=float) for f in fields(ParamPoint)},
            gamma=np.array(gamma, dtype=np.int64),
            terminal_state=np.array(terminal, dtype=float),
            requested=requested,
            burn=burn,
            seed=seed,
        )


def _ndtr(x: float) -> float:
    """The standard normal CDF, through erfc so that the lower tail keeps its digits."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _draw_truncated_normal(
    mean: float, sd: float, lo: float, hi: float, rng: np.random.Generator
) -> float:
    a, b = _ndtr((lo - mean) / sd), _ndtr((hi - mean) / sd)
    if b - a < 1e-15:
        # Essentially no mass inside the interval: pin to the nearest edge.
        return lo + _PHI_EDGE if mean < lo else hi - _PHI_EDGE
    u = a + (b - a) * rng.random()
    u = min(max(u, 1e-15), 1.0 - 1e-15)
    value = mean + sd * NormalDist().inv_cdf(u)
    return min(max(value, lo + _PHI_EDGE), hi - _PHI_EDGE)


def mcmc_fit(
    model: StateSpaceModel,
    y: Sequence[float],
    x: Optional[np.ndarray] = None,
    draws: int = 1000,
    burn: int = 200,
    seed: int = 0,
) -> PosteriorDraws:
    """Run one Gibbs chain and retain the post-burn draws; x (None: the model's design) as `design_rows` reads it.

    draws, burn and seed are ints as `casts.integer` reads one: SchemaError
    naming the argument for 20.0 or True (draws=True would run one draw).
    """
    draws = checked("draws", draws, integer)
    burn = checked("burn", burn, integer)
    seed = checked("seed", seed, integer)
    if draws <= burn:
        raise RangeError(f"draws ({draws}) must exceed burn ({burn})")
    if burn < 0:
        raise RangeError("burn must be >= 0")
    y = np.asarray(y, dtype=float)
    n = y.size
    rng = np.random.default_rng(seed)
    tp = model.trend_priors
    design = model.design_rows(model.design if x is None else x, n)
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

    terms = SweepTerms(design, model.spike_slab, model.obs_var_prior)
    layout = _sequence_layout(model, n)
    priors = (tp.level_var, tp.slope_var, *(s.var_prior for s in model.seasonals))

    rows = []
    for it in range(draws):
        try:
            states = ffbs_sample(model, params, y, rng, x=design)
        except NumericalError as exc:
            raise NumericalError(f"MCMC aborted at draw {it}: {exc}") from exc

        d, phi = params.d, params.phi
        sigma_level, sigma_slope, *sigma_seasonal = (
            float(np.sqrt(prior.draw(float(e @ e), e.size, rng)))
            for prior, e in zip(priors, layout.innovations(states, d, phi))
        )
        slope = states[:, 1]
        slope_var = sigma_slope**2

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
        gamma, beta, sigma_obs = sample_regression(residual, terms, gamma, rng)
        params = ParamPoint(sigma_level, sigma_slope, sigma_obs, tuple(sigma_seasonal), d, phi, beta)
        if it >= burn:
            rows.append((params, gamma, states[-1].copy()))

    return PosteriorDraws.from_rows(rows, requested=draws, burn=burn, seed=seed)


@dataclass(frozen=True)
class ForecastResult:
    mean: np.ndarray  # (h,)
    lower95: np.ndarray
    upper95: np.ndarray
    paths: np.ndarray  # (K, h) per draw: step j sampled from that draw's marginal predictive of y_{n+j}


def posterior_forecast(
    draws: PosteriorDraws,
    model: StateSpaceModel,
    horizon: int,
    x_future: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    sample: bool = True,
) -> ForecastResult:
    """Model-averaged forecast of the `horizon` steps after the training series.

    This is `forecast_anchors`' predictive at the anchor n_train - 1, with
    each draw's terminal state known (P = 0): p(alpha_{n-1} | y, theta) is
    both the smoothing and the filtering distribution at the last step. Row k
    of `paths` holds one value per step from draw k's Gaussian predictive of
    that step, drawn as one (K, h) call; the point forecast is the mean over
    draws and the interval the 2.5%/97.5% band of `_sorted_percentiles`. With
    sample=False each row is its draw's predictive mean and no normals are
    drawn. x_future's first `horizon` rows, as `design_rows` reads them, are
    the design of the steps forecast. Draws that do not fit the model
    (`StateSpaceModel.check_shapes`), or whose terminal states are not
    (K, state_dim), raise SchemaError, and so does a horizon that is not an
    int as `casts.integer` reads one.
    """
    horizon = checked("horizon", horizon, integer)
    if not 1 <= horizon <= MAX_HORIZON:
        raise RangeError(f"horizon must lie in 1..{MAX_HORIZON}, got {horizon}")
    x_future = model.design_rows(x_future, horizon)
    if rng is None:
        rng = np.random.default_rng([draws.seed, _FORECAST_SALT])
    ops = _DrawOperators(model, draws)
    m, k = ops.intercept.shape
    if draws.terminal_state.shape != (k, m):
        raise SchemaError(f"terminal_state must hold one state of {m} slots per draw, got {draws.terminal_state.shape}")
    terms = ops.horizon_terms(model.n_train - 1, range(1, horizon + 1))
    offsets = x_future @ ops.beta  # (horizon, K)
    mean, var = _predictive_moments(terms, draws.terminal_state.T, np.zeros((m, m, k)), offsets)
    paths = mean.T.copy()
    if sample:
        paths += np.sqrt(var).T * rng.standard_normal((k, horizon))
    lower, upper = _sorted_percentiles(np.sort(paths.T, axis=1), (2.5, 97.5))
    return ForecastResult(mean=paths.mean(axis=0), lower95=lower, upper95=upper, paths=paths)


def _predictive_moments(
    terms: tuple[np.ndarray, ...], a: np.ndarray, P: np.ndarray, offsets: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Mean and variance of y_{t+h} for every horizon and draw, written into out (2, H, K) and returned.

    a (m, K) and P (m, m, K) are the filtered state moments at t, draws last,
    `terms` is horizon_terms at t and offsets (H, K) holds x_{t+h}' beta.
    Three products reduce (a, P): w a, w P[:, 1] and w'Pw, the last one
    (H, m^2) x (m^2, K) product of the cached w_h (x) w_h with P's flat form;
    g, b, s and the offsets are folded into their rows in place, with
    u'Pu = w'Pw + g (2 (Pw)_1 + g P_11). Its rounding is bounded by
    (|w|' sqrt(diag P) + |g| sqrt(P_11))^2, as |P_ij| <= sqrt(P_ii P_jj) for a
    covariance: a variance negative beyond that raises NumericalError, one
    within it becomes zero.
    """
    w, g, b, s, outer = terms
    m, k = a.shape
    if out is None:
        out = np.empty((2,) + g.shape)
    mean, var = out[0], out[1]
    np.add(offsets, b, out=mean)  # offsets may be out's own mean row
    mean += g * a[1]
    mean += w.dot(a)
    np.dot(outer, P.reshape(m * m, k), out=var)  # w'Pw
    cross = w.dot(P[:, 1])  # (P w)_1 for symmetric P
    cross *= 2.0
    cross += g * P[1, 1]
    cross *= g
    var += cross
    var += s
    if not var.min() >= 0.0:  # a NaN takes this branch too
        diag_sd = np.sqrt(np.abs(P.reshape(m * m, k)[:: m + 1]))
        scale = (np.abs(w).dot(diag_sd) + np.abs(g) * diag_sd[1]) ** 2 + s
        if not np.all(var >= -_VARIANCE_RTOL * scale):
            raise NumericalError("negative or non-finite predictive variance")
        np.maximum(var, 0.0, out=var)
    return out


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
    `_DrawOperators`: each step's T P T' is the model's transition rule on
    the rows and columns the step changes, in place, and its noise one
    P[i, i] += q_i per noisy slot. Given a draw and its filtered
    state at t, y_{t+h} is Gaussian in closed form (Durbin & Koopman, ch. 4).
    The anchors are taken in one pass, sorted, and summarised in blocks of up
    to 64, one (2, 64, H, K) buffer of means and sds: a block's mean rows
    start as its anchors' offsets x_{t+h}' beta (one product per block), and
    at each anchor `_predictive_moments` adds the three products of the
    filtered a_t and P_t (w a, w P[:, 1] and w'Pw, through the shared w_h of
    `horizon_terms`) and the g, b and s terms into the anchor's own block
    row in place, so no anchor's state is kept; an anchor listed twice fills
    a row each from the same a_t and P_t. One value per draw and horizon is
    sampled from each predictive, and the forecast is the mean and empirical
    2.5%/97.5% band over draws: a block's noise is drawn in one call and its
    band comes from one sort along the draw axis (`_sorted_percentiles`).
    Anchors, horizons and thin are read as `casts.integer` reads an int
    (SchemaError for 10.5 or True), and x as `design_rows` reads n rows of
    it; draws that do not fit the model raise SchemaError
    (`StateSpaceModel.check_shapes`). Draw parameters may be thinned (every
    `thin`-th draw) to bound the cost of long anchor sweeps. Without `rng`
    the noise comes from the generator seeded by [draws.seed, 0xF0C5].
    Returns {h: {"mean", "lower95", "upper95"} arrays over anchors}.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    anchors = np.sort(np.array(checked("anchors", list(anchors), integers), dtype=np.int64))
    horizons = tuple(sorted(set(checked("horizons", list(horizons), integers))))
    thin = checked("thin", thin, integer)
    if not horizons or horizons[0] < 1:
        raise RangeError("horizons must be >= 1")
    if anchors.size == 0:
        raise RangeError("at least one anchor is required")
    if anchors[0] < 0 or anchors[-1] + horizons[-1] > n - 1:
        raise RangeError("anchors plus the longest horizon must stay inside the series")
    if thin < 1:
        raise RangeError("thin must be >= 1")
    if rng is None:
        rng = np.random.default_rng([draws.seed, _ANCHOR_SALT])

    keep = slice(None, None, thin)
    ops = _DrawOperators(model, draws, keep)
    x = model.design_rows(x, n)

    steps_ahead = np.asarray(horizons)
    summary = np.empty((3, anchors.size, steps_ahead.size))  # mean, lower95, upper95
    block = np.empty((2, min(_ANCHOR_BLOCK, anchors.size), steps_ahead.size, ops.obs_var.size))  # mean, sd

    filled = next_anchor = 0
    for t, a, P, *_ in _filter_draws(model, ops, y[: anchors[-1] + 1], x):
        while next_anchor < anchors.size and anchors[next_anchor] == t:
            if filled == 0:  # a new block: its mean rows start as its anchors' offsets x_{t+h}' beta
                starts = anchors[next_anchor : next_anchor + block.shape[1]]
                design = x[(starts[:, None] + steps_ahead).ravel()]
                np.dot(design, ops.beta, out=block[0, : starts.size].reshape(design.shape[0], -1))
            moments = block[:, filled]
            _predictive_moments(ops.horizon_terms(t, horizons), a, P, moments[0], moments)
            np.sqrt(moments[1], out=moments[1])
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
