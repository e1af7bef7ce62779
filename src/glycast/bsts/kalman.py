"""Linear-Gaussian filtering, likelihood, and simulation smoothing.

Conventions: the state at index t carries the components generating y_t;
`transition_matrix(phi, t)` maps the time-t state to the time-(t+1) state.

One Kalman filter, `_filter_draws`, filters a batch of K parameter draws at
once on the draws-last transition kernel `_DrawOperators`: states are (m, K)
and covariances (m, m, K). The draws' transitions differ only in T[1, 1] =
phi, so each boundary mask of the model's step schedule gives the phi = 0
template S shared by every draw, and T = S + phi e_1 e_1'. Then T x = S x +
phi x_1 e_1 and T P T' = T (T P)' for symmetric P, each one matrix product
over all draws; where no seasonal boundary falls, S is the identity outside
rows 0 and 1 and the products become in-place row and column updates.
`forecast_anchors` runs it on a fit's retained draws, `kalman_loglik` on one
parameter point (K = 1).

State paths are drawn with the mean-corrected simulation smoother of Durbin &
Koopman (2002): a noise-only path plus the smoothed mean of the state given y
minus the noise-only observations. That mean is one sparse precision solve in
component-sequence coordinates (Chan & Jeliazkov 2009): the trend's band of
half-width 2, bordered by the seasonals' distinct effects. The precision
exists only where every noise variance, the observation variance and every
p1_diag entry has a finite reciprocal; parameters where one is zero,
subnormal or NaN raise RangeError before any normal is drawn. The solve loses
accuracy as a noise variance falls far below the others (about 1e-10 of the
path's scale at n = 40 with sigma_level = 1e-3 sigma_obs, against a 50-digit
solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    filtered_means: np.ndarray  # (n, m) E[state_t | y_0..t]
    filtered_covs: np.ndarray  # (n, m, m) Cov[state_t | y_0..t]
    predicted_means: np.ndarray  # (n,) E[y_t | y_0..t-1]
    predicted_variances: np.ndarray  # (n,) F_t = Var[y_t | y_0..t-1]
    innovations: np.ndarray  # (n,) v_t = y_t - E[y_t | y_0..t-1]
    gains: np.ndarray  # (n, m) g_t = Cov[state_t | y_0..t-1] z / F_t; zero where F_t = 0


class _DrawOperators:
    """The draws-last transition kernel of a batch of K parameter draws (module docstring).

    `points` is one `ParamPoint` (K = 1) or the retained draws of a fit, whose
    seven parameter fields carry a leading draw axis; `keep` selects draws
    along it. The kernel reads the model's step schedule: per boundary mask
    the phi = 0 template S (m, m) shared by every draw, whether the mask is
    plain (no seasonal boundary, so S is the identity outside rows 0 and 1,
    where S[0] = e_0 + e_1 and S[1] = 0) and the noise variances (m, K). A
    state is (m, ..., K) and a covariance (m, m, K).
    """

    def __init__(self, model: StateSpaceModel, points, keep: slice = slice(None)) -> None:
        def param(name: str) -> np.ndarray:
            value = np.asarray(getattr(points, name), dtype=float)
            return (value[None] if isinstance(points, ParamPoint) else value)[keep]

        self.phi = param("phi")  # (K,)
        variances = (param("sigma_level") ** 2, param("sigma_slope") ** 2, (param("sigma_seasonal") ** 2).T)
        self.step_masks = model.step_masks
        self.templates = model.templates  # (m, m) each
        self.plain = [not any(mask) for mask in model.masks]
        self.noise_vars = [model.mask_noise(i, *variances).T.copy() for i in range(len(model.masks))]  # (m, K)
        self.intercept = model.state_intercept(param("d"), self.phi).T.copy()  # (m, K)
        self.obs_var = param("sigma_obs") ** 2  # (K,)
        self.beta = param("beta").T  # (J, K): x_t @ beta is x_t' beta per draw
        self.z = model.z
        self._terms: dict[tuple, tuple[np.ndarray, ...]] = {}

    def step(self, t: int) -> int:
        """Index of the operators that move the state from t to t+1."""
        return self.step_masks[t % len(self.step_masks)]

    def transition(self, step: int, x: np.ndarray) -> np.ndarray:
        """T x for every draw, x of shape (m, ..., K); x may be overwritten."""
        if self.plain[step]:
            x[0] += x[1]
            x[1] *= self.phi
            return x
        out = self.templates[step].dot(x.reshape(len(x), -1)).reshape(x.shape)
        out[1] = self.phi * x[1]
        return out

    def transition_cov(self, step: int, P: np.ndarray) -> np.ndarray:
        """T P T' = T (T P)' for every draw, P (m, m, K) symmetric; P may be overwritten."""
        if self.plain[step]:
            # The row updates of T x, then the same on the columns, in place.
            P[0] += P[1]
            P[1] *= self.phi
            P[:, 0] += P[:, 1]
            P[:, 1] *= self.phi
            return P
        return self.transition(step, self.transition(step, P).transpose(1, 0, 2))

    def horizon_terms(self, t: int, horizons: Sequence[int]) -> tuple[np.ndarray, ...]:
        """(w_h (H, m), g_h (H, K), b_h (H, K), s_h (H, K)) of y_{t+h} given the state at t.

        y_{t+h} = u_h' alpha_t + b_h + x_{t+h}' beta + e_h with Var(e_h) = s_h:
        u_h = (T_{t+h-1} ... T_t)' z = w_h + g_h e_1 is built backwards from z
        (T'(w + g e_1) is S'w with row 1 zeroed plus (w_0 + phi g) e_1, so w_h
        is shared), b_h collects the state intercepts, s_h the state noise and
        observation variance. They depend on t only through the boundary
        masks of steps t..t+h-1, which key the cache.
        """
        horizons = tuple(horizons)
        key = (horizons, tuple(self.step(t + j) for j in range(max(horizons))))
        if key not in self._terms:
            self._terms[key] = self._backward_terms(*key)
        return self._terms[key]

    def _backward_terms(self, horizons: tuple[int, ...], masks: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        k = self.obs_var.size
        w = np.empty((len(horizons), self.z.size))
        g, b, s = np.zeros((3, len(horizons), k))
        for i, h in enumerate(horizons):
            v, gv = self.z.copy(), np.zeros(k)  # z_1 = 0: the slope is not observed
            s[i] = self.obs_var
            for step in reversed(masks[:h]):
                b[i] += v.dot(self.intercept) + gv * self.intercept[1]
                s[i] += (v * v).dot(self.noise_vars[step]) + gv * gv * self.noise_vars[step][1]
                gv = v[0] + self.phi * gv
                v = self.templates[step].T.dot(v)
                v[1] = 0.0
            w[i], g[i] = v, gv
        return w, g, b, s


def _filter_draws(model: StateSpaceModel, ops: _DrawOperators, y: np.ndarray, x: np.ndarray):
    """Kalman filter of every draw at once: yields (t, a_t, P_t, v_t, F_t, g_t) for every t of y.

    a_t (m, K) and P_t (m, m, K) are the filtered state moments given
    y_0..y_t, draws last; v_t and F_t (K,) the innovation and its variance,
    g_t (m, K) the gain; row t of the design x (n, J) gives x_t' beta. Steps
    with zero predictive variance have zero gain and leave the state
    untouched. Later steps may overwrite the yielded arrays.
    """
    m, k = ops.intercept.shape
    z = ops.z
    a = np.repeat(model.a1[:, None], k, axis=1)
    P = np.zeros((m, m, k))
    P.reshape(m * m, k)[:: m + 1] = model.p1_diag[:, None]
    rank_one = np.empty_like(P)
    for t in range(y.size):
        if t:
            step = ops.step(t - 1)
            a = ops.transition(step, a)
            a += ops.intercept
            P = ops.transition_cov(step, P)
            P.reshape(m * m, k)[:: m + 1] += ops.noise_vars[step]
        pz = z.dot(P.reshape(m, m * k)).reshape(m, k)  # z'P, which is (P z)' for symmetric P
        f = z.dot(pz) + ops.obs_var
        v = y[t] - (z.dot(a) + x[t].dot(ops.beta))
        gain = np.divide(pz, f, out=np.zeros_like(pz), where=f > 0.0)
        a += gain * v
        P -= np.multiply(gain[:, None, :], pz[None, :, :], out=rank_one)
        yield t, a, P, v, f, gain


def kalman_loglik(
    model: StateSpaceModel,
    params: ParamPoint,
    y: Sequence[float],
    x: Optional[np.ndarray] = None,
) -> FilterResult:
    """Run the forward filter on one parameter point and return the exact Gaussian log-likelihood.

    The filter is `_filter_draws` at K = 1, run on y minus the regression
    offsets x_t' beta. Degenerate steps (zero predictive variance) contribute
    nothing to the likelihood and leave the state untouched.
    """
    _check_params(model, params)
    y = np.asarray(y, dtype=float)
    n = y.size
    m = model.state_dim
    offsets = model.observation_offsets(params.beta, x, n)
    ops = _DrawOperators(model, replace(params, beta=np.zeros(0)))
    filtered_means = np.empty((n, m))
    filtered_covs = np.empty((n, m, m))
    gains = np.empty((n, m))
    innovations, predicted_variances = np.empty((2, n))
    for t, a, P, v, f, gain in _filter_draws(model, ops, y - offsets, np.zeros((n, 0))):
        filtered_means[t], filtered_covs[t], gains[t] = a[:, 0], P[:, :, 0], gain[:, 0]
        innovations[t], predicted_variances[t] = v[0], f[0]

    bad = ~(np.isfinite(predicted_variances) & np.isfinite(innovations))
    if bad.any():
        raise NumericalError(f"non-finite filter quantity at step {int(np.argmax(bad))}")
    informative = predicted_variances > 0.0
    f = np.where(informative, predicted_variances, 1.0)
    return FilterResult(
        loglik=-0.5 * float(np.sum((np.log(2.0 * np.pi * f) + innovations**2 / f)[informative])),
        filtered_means=filtered_means,
        filtered_covs=filtered_covs,
        predicted_means=y - innovations,
        predicted_variances=predicted_variances,
        innovations=innovations,
        gains=gains,
    )


_DENSE_BLOCKS = 32  # up to this many blocks, one dense Cholesky costs less than another level of reduction
_TREND_NOT_PD = "the trend's posterior precision is not positive definite"


def _inverse_2x2(blocks: np.ndarray) -> np.ndarray:
    """Inverses of a stack (N, 2, 2) of symmetric blocks; NumericalError unless every block is positive definite."""
    a, b, c = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        det = a * c - b * b
    if not (a.min() > 0.0 and 0.0 < det.min() and det.max() < np.inf):  # a NaN fails here too
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
        # Checked before any division: every variance must have a finite reciprocal (NaN fails too).
        if not np.all(np.concatenate((variances, model.p1_diag)) >= np.finfo(float).tiny):
            raise RangeError(
                "every noise variance and p1_diag entry must be a normal positive float: "
                "the state path's posterior precision does not exist"
            )

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
        """E[v | r] for r = y - x'beta under the full model.

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
    given y minus those observations under the full model, one precision
    solve in component-sequence coordinates (`_SequenceForm.smoothed_mean`).
    A variance or p1_diag entry without a finite reciprocal raises RangeError
    before any draw from rng; a non-finite path raises NumericalError.
    """
    _check_params(model, params)
    y = np.asarray(y, dtype=float)
    n = y.size
    form = _SequenceForm(model, params, n)
    noise = form.noise(rng.standard_normal((n, model.state_dim)))
    y_star = y - (noise[form.index] @ model.z + params.sigma_obs * rng.standard_normal(n))
    path = (noise + form.smoothed_mean(y_star - model.observation_offsets(params.beta, x, n)))[form.index]
    if not np.all(np.isfinite(path)):
        raise NumericalError("non-finite smoothed state path")
    return path
