"""Linear-Gaussian filtering, likelihood, and simulation smoothing.

Conventions: the state at index t carries the components generating y_t;
`transition_matrix(phi, t)` maps the time-t state to the time-(t+1) state.

One Kalman filter, `_filter_draws`, filters a fit's K retained draws at once
for `forecast_anchors` on the draws-last transition kernel `_DrawOperators`:
states are (m, K) and covariances (m, m, K). The draws' transitions differ
only in T[1, 1] = phi, so each boundary mask of the model's step schedule
gives the phi = 0 template S shared by every draw, and T = S + phi e_1 e_1'.
Then T x = S x + phi x_1 e_1 and T P T' = T (T P)' for symmetric P, each one
matrix product over all draws; where no seasonal boundary falls, S is the
identity outside rows 0 and 1 and the products become in-place row and
column updates.

One parameter point's state path has one sparse posterior precision in
component-sequence coordinates (Chan & Jeliazkov 2009): the trend's band of
half-width 2, bordered by the seasonals' distinct effects. One factorisation
of it gives both the state draw (`ffbs_sample`) and the exact log-likelihood
(`kalman_loglik`). The precision exists only where every noise variance, the
observation variance and every p1_diag entry has a finite reciprocal;
parameters where one is zero, subnormal or NaN raise RangeError before any
normal is drawn. The solve loses accuracy as a noise variance falls far
below the others (about 1e-10 of the path's scale at n = 40 with
sigma_level = 1e-3 sigma_obs, against a 50-digit solve). Its cost grows as
n x seasonal effects, which grow with the days crossed: with the three
default seasonals it nears the filter's by about 28 days (55.6 against
78.2 ms at n = 2688).
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


class _DrawOperators:
    """The draws-last transition kernel of a batch of K parameter draws (module docstring).

    `draws` are the retained draws of a fit, whose seven parameter fields
    carry a leading draw axis; `keep` selects draws along it. The kernel
    reads the model's step schedule: per boundary mask the phi = 0 template
    S (m, m) shared by every draw, whether the mask is plain (no seasonal
    boundary, so S is the identity outside rows 0 and 1, where S[0] = e_0 +
    e_1 and S[1] = 0) and the noise variances (m, K). A state is (m, ..., K)
    and a covariance (m, m, K).
    """

    def __init__(self, model: StateSpaceModel, draws, keep: slice = slice(None)) -> None:
        def param(name: str) -> np.ndarray:
            return np.asarray(getattr(draws, name), dtype=float)[keep]

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


_DENSE_BLOCKS = 32  # up to this many blocks, one dense Cholesky costs less than another level of reduction
_TREND_NOT_PD = "the trend's posterior precision is not positive definite"


def _inverse_2x2(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses and determinants of a stack (N, 2, 2) of symmetric blocks; NumericalError unless each is PD."""
    a, b, c = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        det = a * c - b * b
    if not (a.min() > 0.0 and 0.0 < det.min() and det.max() < np.inf):  # a NaN fails here too
        raise NumericalError(_TREND_NOT_PD)
    inverse = np.empty_like(blocks)
    inverse[:, 0, 0] = c / det
    inverse[:, 1, 1] = a / det
    inverse[:, 0, 1] = inverse[:, 1, 0] = -b / det
    return inverse, det


def _block_tridiagonal_solve(diag: np.ndarray, lower: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """x of A x = rhs, and log|A|, for a symmetric positive definite A with 2x2 blocks on three diagonals.

    diag (N, 2, 2) holds the diagonal blocks, lower (N-1, 2, 2) the blocks
    A[i+1, i] below them, rhs (N, 2, c). Cyclic reduction: the odd-indexed
    blocks are eliminated, their Schur complement is again block tridiagonal
    over the even ones, and so on for log2(N) levels, each a few stacked 2x2
    products, down to a dense Cholesky of at most 32 blocks. This is the block
    Cholesky factorization in odd-even order, so a pivot block that is not
    positive definite raises NumericalError, and log|A| is the sum of the
    pivot blocks' log-determinants. (LAPACK's banded Cholesky in scipy.linalg
    would serve too, but importing scipy.linalg adds about 6 MB of resident
    memory to a process that does not otherwise load it.)
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
        return x.reshape(rhs.shape), 2.0 * float(np.log(np.diagonal(factor)).sum())
    odd_inverse, odd_det = _inverse_2x2(diag[1::2])
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
    even, logdet = _block_tridiagonal_solve(even_diag, -(right @ to_left[:inner]), even_rhs)
    x = np.empty_like(rhs)
    x[0::2] = even
    odd = odd_rhs - to_left @ even[: len(left)]
    odd[:inner] -= to_right @ even[1 : inner + 1]
    x[1::2] = odd
    return x, logdet + float(np.log(odd_det).sum())


class _SequenceLayout:
    """Where an n-step state path sits in component-sequence coordinates; it depends only on (model, n).

    A path is the vector v: the trend interleaved (v[2t] = mu_t, v[2t+1] =
    delta_t), then the border, which holds each seasonal's distinct effects in
    order of appearance: its S-1 initial values, oldest first, then one per
    season boundary crossed (`model.boundaries`). A seasonal's block of the
    state at t is its current effect and the S-2 before it, so `index` (n, m)
    gathers the path from v. On the border, `current` (n, K) is the position
    of each seasonal's current effect at t and `runs` gives per seasonal the
    first step and position of every effect that is ever current; an effect's
    steps are contiguous. `L` (B, B) is the border's difference operator: the
    rows of L v are independent Gaussians, an initial value itself (mean
    `border_mean`) or a new effect plus the S-1 before it (mean zero). Row i's
    variance is entry `variance[i]` of (p1_diag[2:], the seasonal noise
    variances), and `shock[i]` its normal in the flattened (n, m) shocks.
    """

    def __init__(self, model: StateSpaceModel, n: int) -> None:
        m = model.state_dim
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
        self.variance = np.empty(size, dtype=np.intp)
        self.variance[initial] = np.arange(m - 2)
        self.variance[new] = m - 2 + seasonal
        self.border_mean = np.zeros(size)
        self.border_mean[initial] = model.a1[2:]
        self.shock = np.empty(size, dtype=np.intp)
        self.shock[initial] = np.arange(2, m)
        self.shock[new] = (steps + 1) * m + first[seasonal]


class _SequenceForm:
    """One parameter point's prior of an n-step state path on its `_SequenceLayout`, and the posterior given r."""

    def __init__(self, model: StateSpaceModel, params: ParamPoint, n: int) -> None:
        if len(params.sigma_seasonal) != len(model.seasonals):
            count = len(params.sigma_seasonal)
            raise SchemaError(f"params carry {count} seasonal sds for {len(model.seasonals)} seasonal components")
        if model.n_regressors and params.beta.shape != (model.n_regressors,):
            raise SchemaError(f"beta must have length {model.n_regressors}")
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
        if n not in model.sequence_layouts:  # built once per (model, n)
            model.sequence_layouts[n] = _SequenceLayout(model, n)
        self.layout = model.sequence_layouts[n]
        self.border_var = np.concatenate((model.p1_diag[2:], variances[3:]))[self.layout.variance]

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
        innovations = np.sqrt(self.border_var) * shocks.ravel()[self.layout.shock]
        return np.concatenate((trend.ravel(), np.linalg.solve(self.layout.L, innovations)))

    def posterior(self, r: np.ndarray) -> tuple[np.ndarray, float]:
        """E[v | r] for r = y - x'beta under the full model, and log|Q| of v's posterior precision Q.

        Q is [[A, C], [C', D]]: A (2n, 2n) the trend's, a band of half-width 2
        (2x2 blocks (mu_t, delta_t) on three block diagonals); D (B, B) the
        border's, dense; C = E / obs_var couples them only through the
        observations, E[2t, current[t, k]] = 1. With W = A^{-1} E and
        u = A^{-1} b_A from one block-tridiagonal solve, the border solves the
        Schur complement D - C'A^{-1}C, whose observation part is
        G'(G - W_mu / obs_var) / obs_var with G the mu rows of E; as every
        effect's steps are contiguous, G'M is a sum of M's rows per effect. The
        trend then is u - W x_B / obs_var, and log|Q| is log|A| plus the Schur
        complement's log-determinant.
        """
        n = r.size
        layout = self.layout
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

        border = layout.L.shape[0]
        rhs = np.zeros((n, 2, border + 1))  # [E | b_A]
        rhs[np.arange(n)[:, None], 0, layout.current] = 1.0
        b_trend = rhs[:, :, border]
        b_trend[:, 0] = obs_prec * r
        b_trend[:-1, 1] -= phi * intercept * slope_prec
        b_trend[1:, 1] += intercept * slope_prec
        b_trend[0] += self.trend_a1 / self.trend_p1
        solved, logdet = _block_tridiagonal_solve(diag, lower, rhs)  # [W | u], (n, 2, B + 1)
        if not border:
            return solved.reshape(2 * n), logdet

        terms = solved[:, 0] * -obs_prec
        terms[:, :border] += rhs[:, 0, :border]  # G - W_mu / obs_var
        terms[:, border] = r - solved[:, 0, border]
        per_effect = np.zeros((border, border + 1))
        for starts, positions in layout.runs:
            per_effect[positions] = np.add.reduceat(terms, starts, axis=0)
        weighted = layout.L.T / self.border_var
        schur = weighted @ layout.L + obs_prec * per_effect[:, :border]
        b_border = weighted @ layout.border_mean + obs_prec * per_effect[:, border]
        try:
            factor = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("the seasonal effects' posterior precision is not positive definite") from exc
        x_border = np.linalg.solve(factor.T, np.linalg.solve(factor, b_border))
        trend = solved[:, :, border] - obs_prec * solved[:, :, :border].dot(x_border)
        return np.concatenate((trend.ravel(), x_border)), logdet + 2.0 * float(np.log(np.diagonal(factor)).sum())

    def loglik(self, r: np.ndarray) -> float:
        """log p(r) = log p(r | m) + log p(m) - log p(m | r) at the posterior mean m (Chan & Jeliazkov 2009).

        The maps from a path to its innovations (the trend recursion and L)
        are unit triangular, so the prior's log-determinant is the sum of the
        innovations' log variances, and log p(m | r) is log|Q| / 2 less the
        normalising constant that log p(m) shares.
        """
        n = r.size
        mean, logdet = self.posterior(r)
        trend, border = mean[: 2 * n].reshape(n, 2), mean[2 * n :]
        innovations = np.concatenate((
            r - trend[:, 0] - border[self.layout.current].sum(axis=1),
            trend[1:, 0] - trend[:-1, 0] - trend[:-1, 1],
            trend[1:, 1] - self.phi * trend[:-1, 1] - (1.0 - self.phi) * self.d,
            trend[0] - self.trend_a1,
            self.layout.L @ border - self.layout.border_mean,
        ))
        variances = np.repeat((self.obs_var, self.level_var, self.slope_var), (n, n - 1, n - 1))
        variances = np.concatenate((variances, self.trend_p1, self.border_var))
        quadratic = innovations**2 / variances
        return -0.5 * float(n * np.log(2.0 * np.pi) + np.log(variances).sum() + quadratic.sum() + logdet)


def ffbs_sample(
    model: StateSpaceModel, params: ParamPoint, y: Sequence[float], rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw one state trajectory from the smoothing distribution.

    Mean-corrected simulation smoother (Durbin & Koopman 2002): a noise-only
    state path and its observations (zero initial mean, no intercept, no
    regression), from (n, m) state normals and then n observation normals,
    plus the smoothed mean (`_SequenceForm.posterior`) of the state given y
    minus those observations. A variance or p1_diag entry without a finite
    reciprocal raises RangeError before any draw from rng; a non-finite path
    raises NumericalError.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    form = _SequenceForm(model, params, n)
    index = form.layout.index
    noise = form.noise(rng.standard_normal((n, model.state_dim)))
    y_star = y - (noise[index] @ model.z + params.sigma_obs * rng.standard_normal(n))
    path = (noise + form.posterior(y_star - model.observation_offsets(params.beta, x, n))[0])[index]
    if not np.all(np.isfinite(path)):
        raise NumericalError("non-finite smoothed state path")
    return path


def kalman_loglik(
    model: StateSpaceModel, params: ParamPoint, y: Sequence[float], x: Optional[np.ndarray] = None
) -> float:
    """The exact Gaussian log-likelihood of y at one parameter point: `_SequenceForm.loglik` of y - x'beta.

    Errors as in `ffbs_sample`, and NumericalError for a non-finite value.
    """
    y = np.asarray(y, dtype=float)
    loglik = _SequenceForm(model, params, y.size).loglik(y - model.observation_offsets(params.beta, x, y.size))
    if not np.isfinite(loglik):
        raise NumericalError("non-finite log-likelihood")
    return loglik
