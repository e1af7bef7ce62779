"""Linear-Gaussian filtering, likelihood, and simulation smoothing.

Conventions: the state at index t carries the components generating y_t;
`transition_matrix(phi, t)` maps the time-t state to the time-(t+1) state.
State paths are drawn with the mean-corrected simulation smoother of Durbin &
Koopman (2002): a noise-only path plus the smoothed mean of the state given y
minus the noise-only observations. The parameters choose, before any
division, how that mean is computed:

- where every noise variance, the observation variance and every p1_diag
  entry has a finite reciprocal, by one sparse precision solve in
  component-sequence coordinates (Chan & Jeliazkov 2009): the trend's band of
  half-width 2, bordered by the seasonals' distinct effects;
- where one of them is zero or subnormal, the precision does not exist, and
  the forward filter `kalman_loglik` plus a backward recursion give the mean.
  The filter skips degenerate updates, so exact zero variances work (the
  smoother collapses to the deterministic path), which the noiseless oracle
  cases rely on.

The two round differently: the precision solve loses accuracy as a noise
variance falls far below the others (about 1e-10 of the path's scale at
n = 40 with sigma_level = 1e-3 sigma_obs, against a 50-digit solve), the
filter as p1_diag grows diffuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import NumericalError, RangeError, SchemaError
from .components import StateSpaceModel


@dataclass(frozen=True)
class ParamPoint:
    """One point in parameter space: noise sds, trend dynamics, coefficients."""

    sigma_level: float
    sigma_slope: float
    sigma_obs: float
    sigma_seasonal: tuple[float, ...] = ()
    d: float = 0.0
    phi: float = 0.0
    beta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        for name in ("sigma_level", "sigma_slope", "sigma_obs"):
            if getattr(self, name) < 0:
                raise RangeError(f"{name} must be >= 0")
        if any(s < 0 for s in self.sigma_seasonal):
            raise RangeError("seasonal sds must be >= 0")
        if abs(self.phi) > 1.0:
            raise RangeError(f"phi must lie in [-1, 1], got {self.phi}")


def _check_params(model: StateSpaceModel, params: ParamPoint) -> None:
    if len(params.sigma_seasonal) != len(model.seasonals):
        raise SchemaError(
            f"params carry {len(params.sigma_seasonal)} seasonal sds for "
            f"{len(model.seasonals)} seasonal components"
        )
    if model.n_regressors and params.beta.shape != (model.n_regressors,):
        raise SchemaError(f"beta must have length {model.n_regressors}")


@dataclass(frozen=True)
class FilterResult:
    loglik: float
    filtered_means: np.ndarray  # (n, m) E[state_t | y_1..t]
    predicted_means: np.ndarray  # (n,) E[y_t | y_1..t-1]
    predicted_variances: np.ndarray  # (n,)
    state_pred_means: np.ndarray  # (n, m) E[state_t | y_1..t-1]
    state_pred_covs: np.ndarray  # (n, m, m)
    innovations: np.ndarray  # (n,) y_t - E[y_t | y_1..t-1]
    gains: np.ndarray  # (n, m) P_t z / F_t; zero where F_t = 0


def _step_operators(
    model: StateSpaceModel, params: ParamPoint
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(T, T', Q) for every step of one period, built once per boundary mask."""
    level_var = params.sigma_level**2
    slope_var = params.sigma_slope**2
    seasonal_vars = [s**2 for s in params.sigma_seasonal]
    ops = []
    for i, template in enumerate(model.templates):
        T = template.copy()
        T[1, 1] = params.phi
        q = model.mask_noise(i, level_var, slope_var, seasonal_vars)
        ops.append((T, T.T.copy(), np.diag(q)))
    return [ops[i] for i in model.step_masks]


def kalman_loglik(
    model: StateSpaceModel,
    params: ParamPoint,
    y: Sequence[float],
    x: Optional[np.ndarray] = None,
) -> FilterResult:
    """Run the forward filter and return the exact Gaussian log-likelihood.

    Degenerate steps (zero predictive variance) contribute nothing to the
    likelihood and leave the state untouched.
    """
    _check_params(model, params)
    y = np.asarray(y, dtype=float)
    n = y.size
    m = model.state_dim
    z = model.z
    offsets = model.observation_offsets(params.beta, x, n)
    obs_var = params.sigma_obs**2
    c = model.state_intercept(params.d, params.phi)
    period = model.period
    schedule = _step_operators(model, params)

    a = model.a1.copy()
    P = np.diag(model.p1_diag).astype(float)
    state_pred_means = np.empty((n, m))
    state_pred_covs = np.empty((n, m, m))
    predicted_variances = np.empty(n)
    innovations = np.empty(n)

    # The loop bodies call ndarray.dot: on operands this small its call
    # overhead is about half that of the @ operator.
    y_obs = y - offsets
    for t in range(n):
        state_pred_means[t] = a
        state_pred_covs[t] = P
        pz = P.dot(z)
        f = z.dot(pz) + obs_var
        v = y_obs[t] - z.dot(a)
        predicted_variances[t] = f
        innovations[t] = v
        if f > 0.0:
            gain = pz / f
            a = a + gain * v
            P = P - gain[:, None] * pz
        T, Tt, Q = schedule[t % period]
        a = T.dot(a) + c
        P = T.dot(P).dot(Tt) + Q

    bad = ~(np.isfinite(predicted_variances) & np.isfinite(innovations))
    if bad.any():
        raise NumericalError(f"non-finite filter quantity at step {int(np.argmax(bad))}")
    informative = predicted_variances > 0.0
    f = np.where(informative, predicted_variances, 1.0)
    gains = (state_pred_covs @ z) * (informative / f)[:, None]
    return FilterResult(
        loglik=-0.5 * float(np.sum((np.log(2.0 * np.pi * f) + innovations**2 / f)[informative])),
        filtered_means=state_pred_means + gains * innovations[:, None],
        predicted_means=y - innovations,
        predicted_variances=predicted_variances,
        state_pred_means=state_pred_means,
        state_pred_covs=state_pred_covs,
        innovations=innovations,
        gains=gains,
    )


_DENSE_BLOCKS = 32  # up to this many blocks, one dense Cholesky costs less than another level of reduction
_TREND_NOT_PD = "the trend's posterior precision is not positive definite"


def _inverse_2x2(blocks: np.ndarray) -> np.ndarray:
    """Inverses of a stack (N, 2, 2) of symmetric blocks; NumericalError unless every block is positive definite."""
    a, b, c = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    det = a * c - b * b
    if not (a.min() > 0.0 and det.min() > 0.0):  # a NaN fails here too
        raise NumericalError(_TREND_NOT_PD)
    inverse = np.empty_like(blocks)
    inverse[:, 0, 0] = c / det
    inverse[:, 1, 1] = a / det
    inverse[:, 0, 1] = inverse[:, 1, 0] = -b / det
    return inverse


def _block_tridiagonal_solve(diag: np.ndarray, lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x of A x = rhs for a symmetric positive definite A with 2x2 blocks on three diagonals.

    diag (N, 2, 2) holds the diagonal blocks, lower (N-1, 2, 2) the blocks
    A[i+1, i] below them, rhs (N, 2, c). Cyclic reduction: the odd-indexed
    blocks are eliminated, their Schur complement is again block tridiagonal
    over the even ones, and so on for log2(N) levels, each a few stacked 2x2
    products, down to a dense Cholesky of at most 32 blocks. This is the block
    Cholesky factorization in odd-even order, so a pivot block that is not
    positive definite raises NumericalError. (LAPACK's banded Cholesky in
    scipy.linalg would serve too, but importing scipy.linalg adds about 6 MB
    of resident memory to a process that does not otherwise load it.)
    """
    n = len(diag)
    if n <= _DENSE_BLOCKS:
        dense = np.zeros((n, 2, n, 2))
        blocks = np.arange(n)
        dense[blocks, :, blocks, :] = diag
        dense[blocks[1:], :, blocks[:-1], :] = lower
        dense[blocks[:-1], :, blocks[1:], :] = lower.transpose(0, 2, 1)
        try:
            factor = np.linalg.cholesky(dense.reshape(2 * n, 2 * n))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(_TREND_NOT_PD) from exc
        x = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs.reshape(2 * n, -1)))
        return x.reshape(rhs.shape)
    odd_inverse = _inverse_2x2(diag[1::2])
    left, right = lower[0::2], lower[1::2]  # A[2j+1, 2j] and A[2j+2, 2j+1]
    inner = len(right)  # the odd blocks with an even block on both sides
    to_left = odd_inverse @ left
    to_right = odd_inverse[:inner] @ right.transpose(0, 2, 1)
    odd_rhs = odd_inverse @ rhs[1::2]
    left_t = left.transpose(0, 2, 1)
    even_diag = diag[0::2].copy()
    even_diag[: len(left)] -= left_t @ to_left
    even_diag[1 : inner + 1] -= right @ to_right
    even_rhs = rhs[0::2].copy()
    even_rhs[: len(left)] -= left_t @ odd_rhs
    even_rhs[1 : inner + 1] -= right @ odd_rhs[:inner]
    even = _block_tridiagonal_solve(even_diag, -(right @ to_left[:inner]), even_rhs)
    x = np.empty_like(rhs)
    x[0::2] = even
    odd = odd_rhs - to_left @ even[: len(left)]
    odd[:inner] -= to_right @ even[1 : inner + 1]
    x[1::2] = odd
    return x


class _SequenceForm:
    """The prior of an n-step state path in component-sequence coordinates.

    A path is the vector v: the trend interleaved (v[2t] = mu_t, v[2t+1] =
    delta_t), then the border, which holds each seasonal's distinct effects in
    order of appearance: its S-1 initial values, oldest first, then one per
    season boundary crossed (`model.boundaries`). A seasonal's block of the
    state at t is its current effect and the S-2 before it, so `index` (n, m)
    gathers the path from v. On the border, `current` (n, K) is the position
    of each seasonal's current effect at t and `runs` gives per seasonal the
    first step and position of every effect that is ever current; an effect's
    steps are contiguous. `L` (B, B) is the border's difference operator: the
    rows of L v are independent Gaussians with `border_mean` and
    `border_var`, an initial value itself or a new effect plus the S-1 before
    it (its seasonal's noise).
    """

    def __init__(self, model: StateSpaceModel, params: ParamPoint, n: int) -> None:
        m = model.state_dim
        sds = (params.sigma_level, params.sigma_slope, params.sigma_obs) + tuple(params.sigma_seasonal)
        variances = np.square(sds)
        self.level_var, self.slope_var, self.obs_var = variances[:3]
        self.phi, self.d = params.phi, params.d
        self.trend_p1, self.trend_a1 = model.p1_diag[:2], model.a1[:2]
        # Decided before any division: every variance must have a finite reciprocal.
        self.has_precision = bool(np.all(np.concatenate((variances, model.p1_diag)) >= np.finfo(float).tiny))

        flags = model.boundaries(n)  # (n-1, K)
        dims = np.array([layout.state_dim for layout in model.seasonals], dtype=np.intp)
        first = np.array([layout.state_start for layout in model.seasonals], dtype=np.intp)
        slot_seasonal = np.repeat(np.arange(dims.size), dims)  # the seasonal of each state slot 2..m-1
        slot_lag = np.arange(m - 2) - np.repeat(first - 2, dims)  # 0 for a seasonal's current effect
        # Each seasonal takes the next S-1 + (boundaries crossed) places of the border.
        counts = dims + flags.sum(axis=0)
        self.current = np.empty((n, dims.size), dtype=np.intp)
        self.current[0] = np.cumsum(counts) - counts + dims - 1
        np.cumsum(flags, axis=0, out=self.current[1:])
        self.current[1:] += self.current[0]
        self.index = np.empty((n, m), dtype=np.intp)
        self.index[:, :2] = np.arange(2 * n).reshape(n, 2)
        self.index[:, 2:] = 2 * n + self.current[:, slot_seasonal] - slot_lag
        self.runs = []
        for k, crossing in enumerate(flags.T):
            starts = np.concatenate(([0], np.flatnonzero(crossing) + 1))
            self.runs.append((starts, self.current[starts, k]))

        steps, seasonal = np.nonzero(flags)  # the effect a boundary starts is current from the next step on
        new = self.current[steps + 1, seasonal]
        initial = self.index[0, 2:] - 2 * n  # the initial effect of every state slot
        size = int(counts.sum())
        self.L = np.eye(size)
        for lag in range(1, int(dims.max(initial=0)) + 1):
            deep = dims[seasonal] >= lag  # a new effect's row also holds the S-1 effects before it
            self.L[new[deep], new[deep] - lag] = 1.0
        self.border_var = np.empty(size)
        self.border_var[initial] = model.p1_diag[2:]
        self.border_var[new] = variances[3:][seasonal]
        self.border_mean = np.zeros(size)
        self.border_mean[initial] = model.a1[2:]
        self.shock = np.empty(size, dtype=np.intp)  # each effect's normal in the flattened (n, m) shocks
        self.shock[initial] = np.arange(2, m)
        self.shock[new] = (steps + 1) * m + first[seasonal]

    def noise(self, shocks: np.ndarray) -> np.ndarray:
        """v of the noise-only path (zero initial mean, no intercept) driven by the (n, m) shocks.

        The shocks meet the same states as in the state recursion: row t + 1
        drives the move from t to t + 1 and row 0 the initial state. The trend
        follows x_{t+1} = M x_t + e_{t+1} with M = [[1, 1], [0, phi]], so
        x_t = sum_s M^(t-s) e_s, summed by a doubling scan; the border is one
        solve with L.
        """
        n = shocks.shape[0]
        trend = shocks[:, :2] * np.sqrt([self.level_var, self.slope_var])
        trend[0] = shocks[0, :2] * np.sqrt(self.trend_p1)
        power, shift = np.array([[1.0, 1.0], [0.0, self.phi]]), 1
        while shift < n:
            trend[shift:] += trend[:-shift] @ power.T
            power, shift = power @ power, 2 * shift
        innovations = np.sqrt(self.border_var) * shocks.ravel()[self.shock]
        return np.concatenate((trend.ravel(), np.linalg.solve(self.L, innovations)))

    def smoothed_mean(self, r: np.ndarray) -> np.ndarray:
        """E[v | r] for r = y - x'beta under the full model; only where `has_precision`.

        The posterior precision is [[A, C], [C', D]]: A (2n, 2n) the trend's,
        a band of half-width 2 (2x2 blocks (mu_t, delta_t) on three block
        diagonals); D (B, B) the border's, dense; C = E / obs_var couples them
        only through the observations, E[2t, current[t, k]] = 1. With
        W = A^{-1} E and u = A^{-1} b_A from one block-tridiagonal solve, the
        border solves the Schur complement D - C'A^{-1}C, whose observation
        part is G'(G - W_mu / obs_var) / obs_var with G the mu rows of E; as
        every effect's steps are contiguous, G'M is a sum of M's rows per
        effect. The trend then is u - W x_B / obs_var.
        """
        n = r.size
        level_prec, slope_prec, obs_prec = 1.0 / self.level_var, 1.0 / self.slope_var, 1.0 / self.obs_var
        phi, intercept = self.phi, (1.0 - self.phi) * self.d

        # A's blocks: each level step t -> t+1 weighs (mu_{t+1} - mu_t - delta_t)^2 by level_prec,
        # each slope step (delta_{t+1} - phi delta_t - intercept)^2 by slope_prec.
        diag = np.zeros((n, 2, 2))
        diag[:, 0, 0] = obs_prec
        diag[:-1] += level_prec
        diag[:-1, 1, 1] += phi * phi * slope_prec
        diag[1:, 0, 0] += level_prec
        diag[1:, 1, 1] += slope_prec
        diag[0] += np.diag(1.0 / self.trend_p1)
        lower = np.broadcast_to([[-level_prec, -level_prec], [0.0, -phi * slope_prec]], (n - 1, 2, 2))

        border = self.L.shape[0]
        rhs = np.zeros((n, 2, border + 1))  # [E | b_A]
        rhs[np.arange(n)[:, None], 0, self.current] = 1.0
        b_trend = rhs[:, :, border]
        b_trend[:, 0] = obs_prec * r
        b_trend[:-1, 1] -= phi * intercept * slope_prec
        b_trend[1:, 1] += intercept * slope_prec
        b_trend[0] += self.trend_a1 / self.trend_p1
        solved = _block_tridiagonal_solve(diag, lower, rhs)  # [W | u], (n, 2, B + 1)
        if not border:
            return solved.reshape(2 * n)

        terms = solved[:, 0] * -obs_prec
        terms[:, :border] += rhs[:, 0, :border]  # G - W_mu / obs_var
        terms[:, border] = r - solved[:, 0, border]
        per_effect = np.zeros((border, border + 1))
        for starts, positions in self.runs:
            per_effect[positions] = np.add.reduceat(terms, starts, axis=0)
        weighted = self.L.T / self.border_var
        schur = weighted @ self.L + obs_prec * per_effect[:, :border]
        b_border = weighted @ self.border_mean + obs_prec * per_effect[:, border]
        try:
            factor = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("the seasonal effects' posterior precision is not positive definite") from exc
        x_border = np.linalg.solve(factor.T, np.linalg.solve(factor, b_border))
        trend = solved[:, :, border] - obs_prec * solved[:, :, :border].dot(x_border)
        return np.concatenate((trend.ravel(), x_border))


def _filtered_mean(model: StateSpaceModel, params: ParamPoint, y: np.ndarray, x: Optional[np.ndarray]) -> np.ndarray:
    """E[alpha | y] (n, m) from `kalman_loglik` and a backward recursion.

    r_{t-1} = z v_t / F_t + (I - g_t z')' T_t' r_t with r_{n-1} = 0 and
    filtered gain g_t = P_t z / F_t; the mean is a_t + P_t r_{t-1}. Steps with
    zero predictive variance carry no information (v/F = 0, g = 0), so a
    noiseless model returns its deterministic path.
    """
    n = y.size
    m = model.state_dim
    z = model.z
    period = model.period
    schedule = _step_operators(model, params)
    filt = kalman_loglik(model, params, y, x)
    f = filt.predicted_variances
    scaled_innovations = np.divide(filt.innovations, f, out=np.zeros(n), where=f > 0.0)

    r = np.zeros(m)
    rs = np.empty((n, m))
    for t in range(n - 1, -1, -1):
        w = schedule[t % period][1].dot(r)
        r = w + z * (scaled_innovations[t] - filt.gains[t].dot(w))
        rs[t] = r
    return filt.state_pred_means + np.einsum("tij,tj->ti", filt.state_pred_covs, rs)


def ffbs_sample(
    model: StateSpaceModel,
    params: ParamPoint,
    y: Sequence[float],
    rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw one state trajectory from the smoothing distribution.

    Mean-corrected simulation smoother (Durbin & Koopman 2002): draw a
    noise-only state path and its observations (zero initial mean, no
    intercept, no regression) from (n, m) state normals and then n
    observation normals, and add to the path the smoothed mean of the state
    given y minus those observations under the full model. Where every
    variance and every p1_diag entry has a finite reciprocal, that mean is one
    precision solve in component-sequence coordinates
    (`_SequenceForm.smoothed_mean`); where one is zero or subnormal, the
    precision does not exist and the mean comes from `kalman_loglik` plus the
    backward recursion (`_filtered_mean`). A non-finite path raises
    NumericalError.
    """
    _check_params(model, params)
    y = np.asarray(y, dtype=float)
    n = y.size
    form = _SequenceForm(model, params, n)
    noise = form.noise(rng.standard_normal((n, model.state_dim)))
    noise_path = noise[form.index]
    y_star = y - (noise_path @ model.z + params.sigma_obs * rng.standard_normal(n))
    if form.has_precision:
        path = (noise + form.smoothed_mean(y_star - model.observation_offsets(params.beta, x, n)))[form.index]
    else:
        path = noise_path + _filtered_mean(model, params, y_star, x)
    if not np.all(np.isfinite(path)):
        raise NumericalError("non-finite smoothed state path")
    return path
