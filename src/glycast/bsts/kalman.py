"""Linear-Gaussian filtering, likelihood, and state-path draws.

Conventions: the state at index t carries the components generating y_t;
`StateSpaceModel.transition` maps the time-t state to the time-(t+1) state
in place, and `transition_matrix(phi, t)` is its dense T.

One Kalman filter, `_filter_draws`, filters a fit's K retained draws, a
`ParamPoint` whose fields carry a leading draw axis, at once for
`forecast_anchors` on the draws-last transition kernel `_DrawOperators`,
which refuses draws that do not fit the model
(`StateSpaceModel.check_shapes`): states are (m, K) and covariances
(m, m, K). Every step moves the state in place by the model's one rule,
`StateSpaceModel.transition`, with the draws' phi: T x updates rows 0 and 1
and shifts each seasonal that turns. T P T' moves only the rows and columns
the step changes (slots 0 and 1 and every slot of each seasonal that turns):
the rule on P's rows, those rows mirrored into the changed columns, then the
rule on the rows of those columns for their square, which is made exactly
symmetric. A step's noise is added as one P[i, i] += q_i per slot its mask
gives noise. The update writes the gain pz / f (zero where f <= 0) and the
rank-one term gain pz' into buffers reused at every step. The filter's one
predict step, `_DrawOperators.predict`, also builds every forecast horizon's
terms in one forward pass (`horizon_terms`), cached by the masks of the
steps they cross and by the anchor's phase in the model's period.

One parameter point's state path has one sparse posterior precision in
component-sequence coordinates (Chan & Jeliazkov 2009): the trend's band of
half-width 2, bordered by the seasonals' distinct effects. One forward sweep
of block cyclic reduction over the band (`_CyclicReduction`) carries the
effects' columns and the trend's right-hand side and sums their Gram; the
border's Schur complement is read off the Gram, and the trend is one column
back-substituted through the sweep's levels. That one factorisation gives
both the state draw (`ffbs_sample`) and the exact log-likelihood
(`kalman_loglik`): the draw adds L'^{-1} e to the mean for the precision's
block Cholesky factor L and standard normal shocks e (Rue 2001), and the
log-likelihood reads the mean, the draw at zero shocks, term by term: its
residual, its initial deviation and its state noise, which
`_SequenceLayout.innovations` gives for `kalman_loglik` and for `mcmc_fit`'s
conjugate variance draws alike. The precision exists only where every noise
variance, the observation variance and every p1_diag entry has a finite
reciprocal; parameters where one is zero, subnormal or NaN raise RangeError
before any normal is drawn. The solve loses accuracy as a noise variance
falls far below the others (about 2e-10 of the path's scale at n = 40 with
sigma_level = 1e-3 sigma_obs, against a 50-digit solve). The Gram costs n x
(seasonal effects)^2, and the effects grow with the days crossed: with the
three default seasonals a state draw takes 1.0-1.2 ms at n = 384, 12-13 ms
at n = 1344 and 47-50 ms at n = 2688 (2-core x86-64, OpenBLAS on one
thread).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import NumericalError, RangeError
from .components import StateSpaceModel


@dataclass(frozen=True, eq=False)
class ParamPoint:
    """One point in parameter space: noise sds, trend dynamics, coefficients; a fit's draws add a leading axis.

    Its fields hold arrays, so `==` is identity and `hash` is the object's, as for any object.
    """

    sigma_level: float
    sigma_slope: float
    sigma_obs: float
    sigma_seasonal: tuple[float, ...] = ()
    d: float = 0.0
    phi: float = 0.0
    beta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        """RangeError unless every noise sd is >= 0 and phi lies in [-1, 1]; each check fails on NaN."""
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        for name in ("sigma_level", "sigma_slope", "sigma_obs", "sigma_seasonal"):
            values = np.asarray(getattr(self, name), dtype=float)
            if not np.all(values >= 0):
                raise RangeError(f"{name} must be >= 0, got {values[~(values >= 0)][0]}")
        phi = np.asarray(self.phi, dtype=float)
        if not np.all(np.abs(phi) <= 1.0):
            raise RangeError(f"phi must lie in [-1, 1], got {phi[~(np.abs(phi) <= 1.0)][0]}")


class _DrawOperators:
    """The draws-last transition kernel of a batch of K parameter draws (module docstring).

    `draws` is a `ParamPoint` with a draw axis, such as a fit's
    `PosteriorDraws`, that fits the model (`StateSpaceModel.check_shapes`,
    else SchemaError); `keep` selects draws along that axis. The kernel reads
    the model's step schedule and, per boundary mask, the noise variances
    (K,) of each state slot it gives noise and the rows T moves (a slice when
    contiguous, else an index array) with the index pairs of their square; T
    is the model's `transition` at the draws' phi. A state is (m, ..., K)
    and a covariance (m, m, K).
    """

    def __init__(self, model: StateSpaceModel, draws: ParamPoint, keep: slice = slice(None)) -> None:
        model.check_shapes(draws.sigma_seasonal, draws.beta)

        def param(name: str) -> np.ndarray:
            return np.asarray(getattr(draws, name), dtype=float)[keep]

        self.phi = param("phi")  # (K,)
        variances = (param("sigma_level") ** 2, param("sigma_slope") ** 2, (param("sigma_seasonal") ** 2).T)
        self.model = model
        self.step_masks = model.step_masks
        self.noise = []  # per mask: (slot, its noise variances (K,)) for every slot the step gives noise
        self.changed = []  # per mask: the rows T moves, and the pairs (r, c), r < c, of their square
        for i, shifts in enumerate(model.shifts):
            noise = model.mask_noise(i, *variances).T  # (m, K)
            self.noise.append(tuple((int(slot), noise[slot].copy()) for slot in np.flatnonzero(noise.any(axis=1))))
            rows = [0, 1, *(slot for block in shifts for slot in range(block.start, block.stop))]
            pairs = tuple((r, c) for n, r in enumerate(rows) for c in rows[n + 1 :])
            self.changed.append((slice(0, len(rows)) if rows[-1] == len(rows) - 1 else np.array(rows), pairs))
        self.intercept = model.state_intercept(param("d"), self.phi).T.copy()  # (m, K)
        self.obs_var = param("sigma_obs") ** 2  # (K,)
        self.beta = param("beta").T  # (J, K): x_t @ beta is x_t' beta per draw
        self.z = model.z
        self._terms: dict[tuple, tuple[np.ndarray, ...]] = {}  # by (horizons, the steps' masks)
        self._phases: dict[tuple, tuple[np.ndarray, ...]] = {}  # by (horizons, t mod the period)

    def step(self, t: int) -> int:
        """Index of the operators that move the state from t to t+1."""
        return self.step_masks[t % len(self.step_masks)]

    def transition(self, step: int, x: np.ndarray) -> np.ndarray:
        """T x for every draw, in place, x of shape (m, ..., K)."""
        return self.model.transition(step, x, self.phi)

    def transition_cov(self, step: int, P: np.ndarray) -> np.ndarray:
        """T P T' for every draw, in place, P (m, m, K) symmetric; exactly symmetric when P is.

        T moves only the step's changed rows R: slots 0 and 1 and every slot
        of each seasonal that turns. T on P's rows gives rows R of T P, which
        outside the square R x R are rows R of T P T' already; mirrored into
        columns R they give P T' there, and T on the rows of those columns
        gives the square, whose upper triangle is then copied from its lower.
        """
        rows, pairs = self.changed[step]
        self.transition(step, P)
        P[:, rows] = P[rows].swapaxes(0, 1)
        columns = P[:, rows]  # a view when R is contiguous (270 of the default 288 steps), else a copy written back
        self.transition(step, columns)
        P[:, rows] = columns
        for i, j in pairs:
            P[i, j] = P[j, i]
        return P

    def predict(self, step: int, a: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(T a + c, T P T' + Q) for every draw, a (m, K) and P (m, m, K) symmetric; both may be overwritten."""
        a = self.transition(step, a)
        a += self.intercept
        P = self.transition_cov(step, P)
        for slot, noise in self.noise[step]:
            P[slot, slot] += noise
        return a, P

    def horizon_terms(self, t: int, horizons: Sequence[int]) -> tuple[np.ndarray, ...]:
        """(w_h (H, m), g_h (H, K), b_h (H, K), s_h (H, K), w_h (x) w_h (H, m^2)) of y_{t+h} given the state at t.

        y_{t+h} = u_h' alpha_t + b_h + x_{t+h}' beta + e_h with Var(e_h) = s_h, all
        horizons from one forward pass over steps t..t+max(h)-1 (Durbin & Koopman
        2012, sec. 4.11). u_h = (T_{t+h-1} ... T_t)' z = w_h + g_h e_1: phi
        enters T x only through x_1, and T e_1 = e_0 + phi e_1, so w_h, shared by
        every draw, is z' times the product of the steps' transitions at phi = 0
        (the rule applied to the identity) with its slope entry zeroed, and
        g_h = 1 + phi g_{h-1}. b_h = z'b and s_h = z'Vz + obs_var, where
        `predict` moves the mean b and covariance V forward from zero; the
        flat outer products w_h (x) w_h give w'Pw as one product with P's flat
        form. The terms depend on t only through the masks of steps
        t..t+h-1, the cache key, and those masks only through t's phase in
        the period, which keys a second cache of the same terms.
        """
        phase = (tuple(horizons), t % len(self.step_masks))
        if phase in self._phases:
            return self._phases[phase]
        key = (phase[0], tuple(self.step(t + j) for j in range(max(horizons))))
        if key not in self._terms:
            m, k = self.intercept.shape
            product, g, b, V = np.eye(m), np.zeros(k), np.zeros((m, k)), np.zeros((m, m, k))
            terms = []
            for step in key[1]:
                self.model.transition(step, product, 0.0)
                g = 1.0 + self.phi * g
                b, V = self.predict(step, b, V)
                zv = self.z.dot(V.reshape(m, m * k)).reshape(m, k)  # z'V, which is (V z)' for symmetric V
                terms.append((self.z.dot(product), g, self.z.dot(b), self.z.dot(zv)))
            w, g, b, s = (np.array(column) for column in zip(*(terms[h - 1] for h in horizons)))
            w[:, 1] = 0.0
            outer = (w[:, :, None] * w[:, None, :]).reshape(len(w), m * m)
            self._terms[key] = w, g, b, s + self.obs_var, outer
        self._phases[phase] = self._terms[key]
        return self._terms[key]


def _filter_draws(model: StateSpaceModel, ops: _DrawOperators, y: np.ndarray, x: np.ndarray):
    """Kalman filter of every draw at once: yields (t, a_t, P_t, v_t, F_t, g_t) for every t of y.

    a_t (m, K) and P_t (m, m, K) are the filtered state moments given
    y_0..y_t, draws last; v_t and F_t (K,) the innovation and its variance,
    g_t (m, K) the gain; row t of the design x (n, J) gives x_t' beta. Steps
    with zero predictive variance have zero gain (pz divided by f, with every
    f <= 0 read as +inf) and leave the state untouched. Later steps
    overwrite the yielded arrays.
    """
    m, k = ops.intercept.shape
    z = ops.z
    a = np.repeat(model.a1[:, None], k, axis=1)
    P = np.zeros((m, m, k))
    P.reshape(m * m, k)[:: m + 1] = model.p1_diag[:, None]
    gain, rank_one = np.empty((m, k)), np.empty_like(P)
    for t in range(y.size):
        if t:
            a, P = ops.predict(ops.step(t - 1), a, P)
        pz = z.dot(P.reshape(m, m * k)).reshape(m, k)  # z'P, which is (P z)' for symmetric P
        f = z.dot(pz) + ops.obs_var
        v = y[t] - (z.dot(a) + x[t].dot(ops.beta))
        np.divide(pz, np.where(f > 0.0, f, np.inf), out=gain)  # zero gain where f <= 0
        a += gain * v
        P -= np.einsum("ik,jk->ijk", gain, pz, out=rank_one)
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


class _CyclicReduction:
    """One forward sweep of block cyclic reduction over a symmetric positive definite, block tridiagonal A.

    A has 2x2 blocks: diag (N, 2, 2) holds the diagonal blocks and
    lower (N-1, 2, 2) the blocks A[i+1, i] below them; rhs (N, 2, c) holds
    the c columns of a matrix R. The odd-indexed blocks are eliminated, their Schur complement is
    again block tridiagonal over the even ones, and so on for log2(N) levels,
    each a few stacked 2x2 products, down to a dense base of at most 32
    blocks. This is the block Cholesky factorisation in odd-even order, so a
    pivot block that is not positive definite, at a level or in the base's
    Cholesky, raises NumericalError, and `logdet` = log|A| is the sum of the
    pivot blocks' log-determinants. R is forward-reduced on the way and its
    Gram `gram` = R'A^{-1}R summed: R_odd' P^{-1} R_odd at each level, for the
    reduced columns R_odd at the odd blocks and their pivots P, and
    R'A_base^{-1}R at the base. Each level keeps P^{-1} R_odd, the products
    that eliminate it and its pivots' top rows and determinants, and the base
    keeps A_base^{-1} R and its Cholesky factor, so `solve` back-substitutes
    any combination R w of the columns, plus a draw from N(0, A^{-1}), without
    a second forward pass. (LAPACK's banded Cholesky in scipy.linalg would
    serve too, but importing scipy.linalg adds about 6 MB of resident memory
    to a process that does not otherwise load it.)
    """

    def __init__(self, diag: np.ndarray, lower: np.ndarray, rhs: np.ndarray) -> None:
        columns = rhs.shape[2]
        self.levels: list[tuple[np.ndarray, ...]] = []  # (P^{-1} R_odd, to_left, to_right, P's top rows, |P|)
        self.gram = np.zeros((columns, columns))
        self.logdet = 0.0
        while len(diag) > _DENSE_BLOCKS:
            odd_inverse, odd_det = _inverse_2x2(diag[1::2])
            left, right = lower[0::2], lower[1::2]  # A[2j+1, 2j] and A[2j+2, 2j+1]
            left_t = left.transpose(0, 2, 1)
            inner = len(right)  # the odd blocks with an even block on both sides
            to_left = odd_inverse @ left
            to_right = odd_inverse[:inner] @ right.transpose(0, 2, 1)
            odd_rhs = odd_inverse @ rhs[1::2]
            self.gram += rhs[1::2].reshape(-1, columns).T @ odd_rhs.reshape(-1, columns)
            self.logdet += float(np.log(odd_det).sum())
            self.levels.append((odd_rhs, to_left, to_right, diag[1::2, 0], odd_det))
            even_diag = diag[0::2].copy()
            even_diag[: len(left)] -= left_t @ to_left
            even_diag[1 : inner + 1] -= right @ to_right
            even_rhs = rhs[0::2].copy()
            even_rhs[: len(left)] -= left_t @ odd_rhs
            even_rhs[1 : inner + 1] -= right @ odd_rhs[:inner]
            diag, lower, rhs = even_diag, -(right @ to_left[:inner]), even_rhs
        n = len(diag)
        dense = np.zeros((n, 2, n, 2))
        blocks = np.arange(n)
        dense[blocks, :, blocks, :] = diag
        dense[blocks[1:], :, blocks[:-1], :] = lower
        dense[blocks[:-1], :, blocks[1:], :] = lower.transpose(0, 2, 1)
        dense, rhs = dense.reshape(2 * n, 2 * n), rhs.reshape(2 * n, columns)
        try:
            self.factor = np.linalg.cholesky(dense)
            self.base = np.linalg.solve(dense, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(_TREND_NOT_PD) from exc
        self.gram += rhs.T @ self.base
        self.logdet += 2.0 * float(np.log(np.diagonal(self.factor)).sum())

    def solve(self, weights: np.ndarray, shocks: np.ndarray) -> np.ndarray:
        """x (N, 2) = A^{-1} R w + L'^{-1} e for the weights w (c,) of the swept columns and the shocks e (N, 2).

        L is the sweep's block Cholesky factor (A = L L'), so standard normal
        shocks draw x from N(A^{-1} R w, A^{-1}). Back-substituted level by
        level; block i's shock enters where block i is eliminated, at a level
        as L_P'^{-1} e for its pivot [[a, b], [b, c]] with det = ac - b^2:
        (e_0 / sqrt(a) - b e_1 / sqrt(a det), sqrt(a / det) e_1).
        """
        stride = 2 ** len(self.levels)  # the base's blocks are every stride-th block of A
        x = (self.base @ weights + np.linalg.solve(self.factor.T, shocks[::stride].ravel())).reshape(-1, 2, 1)
        for odd_rhs, to_left, to_right, top, det in reversed(self.levels):
            stride //= 2
            e = shocks[stride :: 2 * stride]
            root_a, root_det = np.sqrt(top[:, 0]), np.sqrt(det)
            odd = (odd_rhs.reshape(-1, len(weights)) @ weights).reshape(-1, 2, 1)
            odd[:, 0, 0] += e[:, 0] / root_a - top[:, 1] * e[:, 1] / (root_a * root_det)
            odd[:, 1, 0] += root_a * e[:, 1] / root_det
            odd -= to_left @ x[: len(odd)]
            odd[: len(to_right)] -= to_right @ x[1 : len(to_right) + 1]
            full = np.empty((len(x) + len(odd), 2, 1))
            full[0::2], full[1::2] = x, odd
            x = full
        return x[:, :, 0]


class _SequenceLayout:
    """Where an n-step state path sits in component-sequence coordinates; it depends only on (model, n).

    A path is the vector v: the trend interleaved (v[2t] = mu_t, v[2t+1] =
    delta_t), then the border, which holds each seasonal's distinct effects in
    order of appearance: its S-1 initial values, oldest first, then one per
    season boundary crossed (at its `steps`, from `model.boundaries`). A
    seasonal's block of the state at t is its current effect and the S-2
    before it, so `index` (n, m) gathers the path from v. On the border,
    `current` (n, K) is the position of each seasonal's current effect at t,
    and `overlap` (B, B) = G'G counts the steps at which two effects are both
    current (G (n, B) the 0/1 matrix of `current`). `L` (B, B) is the border's
    difference operator: the rows of L v are independent Gaussians, an initial
    value itself (mean `border_mean`) or a new effect plus the S-1 before it
    (mean zero), the noise that `innovations` reads off a path. Row i's
    variance is entry `variance[i]` of (p1_diag[2:], the seasonal noise
    variances). L is unit lower triangular with entries 0 and 1.
    """

    def __init__(self, model: StateSpaceModel, n: int) -> None:
        m = model.state_dim
        flags = model.boundaries(n)  # (n-1, K)
        first = np.array([block.start for block in model.blocks], dtype=np.intp)
        dims = np.array([block.stop for block in model.blocks], dtype=np.intp) - first
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

        self.blocks = model.blocks
        self.steps = [np.flatnonzero(column) for column in flags.T]
        steps, seasonal = np.nonzero(flags)  # the effect a boundary starts is current from the next step on
        new = self.current[steps + 1, seasonal]
        initial = self.index[0, 2:] - 2 * n  # the initial effect of every state slot
        size = int(counts.sum())
        pairs = self.current[:, :, None] * size + self.current[:, None, :]
        self.overlap = np.bincount(pairs.ravel(), minlength=size * size).reshape(size, size).astype(float)
        self.L = np.eye(size)
        for lag in range(1, int(dims.max(initial=0)) + 1):
            deep = dims[seasonal] >= lag  # a new effect's row also holds the S-1 effects before it
            self.L[new[deep], new[deep] - lag] = 1.0
        self.variance = np.empty(size, dtype=np.intp)
        self.variance[initial] = np.arange(m - 2)
        self.variance[new] = m - 2 + seasonal
        self.border_mean = np.zeros(size)
        self.border_mean[initial] = model.a1[2:]

    def innovations(self, path: np.ndarray, d: float, phi: float) -> list[np.ndarray]:
        """The state noise of an (n, m) path at (d, phi): level (n-1,), slope (n-1,), then each seasonal's new effects.

        mu_{t+1} - mu_t - delta_t, delta_{t+1} - (d + phi (delta_t - d)), and at each of a seasonal's
        `steps` t its new effect at t+1 plus the S-1 effects stored at t.
        """
        level, slope = path[:, 0], path[:, 1]
        terms = [level[1:] - level[:-1] - slope[:-1], slope[1:] - (d + phi * (slope[:-1] - d))]
        for block, steps in zip(self.blocks, self.steps):
            terms.append(path[steps + 1, block.start] + path[steps, block].sum(axis=1))
        return terms


def _sequence_layout(model: StateSpaceModel, n: int) -> _SequenceLayout:
    """The `_SequenceLayout` of (model, n), built once and kept on the model."""
    if n not in model.sequence_layouts:
        model.sequence_layouts[n] = _SequenceLayout(model, n)
    return model.sequence_layouts[n]


class _SequenceForm:
    """One parameter point's prior of an n-step state path on its `_SequenceLayout`, and the posterior given r."""

    def __init__(self, model: StateSpaceModel, params: ParamPoint, n: int) -> None:
        model.check_shapes(params.sigma_seasonal)
        sds = (params.sigma_obs, params.sigma_level, params.sigma_slope) + tuple(params.sigma_seasonal)
        self.variances = variances = np.square(sds)  # the observation's, then the noise's as `innovations` lists it
        self.phi, self.d = params.phi, params.d
        self.z, self.a1, self.p1_diag = model.z, model.a1, model.p1_diag
        # Checked before any division: every variance must have a finite reciprocal (NaN fails too).
        if not np.all(np.concatenate((variances, model.p1_diag)) >= np.finfo(float).tiny):
            raise RangeError(
                "every noise variance and p1_diag entry must be a normal positive float: "
                "the state path's posterior precision does not exist"
            )
        self.layout = _sequence_layout(model, n)
        self.border_var = np.concatenate((model.p1_diag[2:], variances[3:]))[self.layout.variance]

    def posterior(self, r: np.ndarray, shocks: np.ndarray) -> tuple[np.ndarray, float]:
        """A draw of v | r for r = y - x'beta under the full model, and log|Q| of v's posterior precision Q.

        The draw is Q^{-1} b + L'^{-1} e for Q's block Cholesky factor L and the
        shocks e (2n + B,) in v's order; zero shocks give the mean Q^{-1} b.

        Q is [[A, C], [C', D]]: A (2n, 2n) the trend's, a band of half-width 2
        (2x2 blocks (mu_t, delta_t) on three block diagonals); D (B, B) the
        border's, L' diag(1 / border_var) L plus G'G / obs_var; C = E / obs_var
        couples them only through the observations, E[2t, current[t, k]] = 1,
        so E's mu rows are G. One forward sweep of cyclic reduction over A
        carries R = [E | b_A] and returns the Gram R'A^{-1}R, which holds
        E'A^{-1}E and E'A^{-1}b_A. The Schur complement S = D - E'A^{-1}E /
        obs_var^2 takes one Cholesky S = F F', which checks that it is positive
        definite, and the border is x_B = S^{-1}(b_B + F e_B) for b_B = L'
        diag(1 / border_var) border_mean + (G'r - E'A^{-1}b_A) / obs_var: its
        mean plus F'^{-1} e_B. The trend is the one column A^{-1}(b_A - E x_B /
        obs_var) plus the sweep's L_A'^{-1} e_A, back-substituted through the
        sweep's levels. log|Q| is log|A| plus log|S|.
        """
        n = r.size
        layout = self.layout
        obs_prec, level_prec, slope_prec = 1.0 / self.variances[:3]
        phi, intercept = self.phi, (1.0 - self.phi) * self.d

        # A's blocks: each level step t -> t+1 weighs (mu_{t+1} - mu_t - delta_t)^2 by level_prec,
        # each slope step (delta_{t+1} - phi delta_t - intercept)^2 by slope_prec.
        diag = np.zeros((n, 2, 2))
        diag[:, 0, 0] = obs_prec
        diag[:-1] += level_prec
        diag[:-1, 1, 1] += phi * phi * slope_prec
        diag[1:, 0, 0] += level_prec
        diag[1:, 1, 1] += slope_prec
        diag[0] += np.diag(1.0 / self.p1_diag[:2])
        lower = np.empty((n - 1, 2, 2))
        lower[:, 0] = -level_prec
        lower[:, 1] = (0.0, -phi * slope_prec)

        border = layout.L.shape[0]
        rhs = np.zeros((n, 2, border + 1))  # [E | b_A]
        rhs[np.arange(n)[:, None], 0, layout.current] = 1.0
        b_trend = rhs[:, :, border]
        b_trend[:, 0] = obs_prec * r
        b_trend[:-1, 1] -= phi * intercept * slope_prec
        b_trend[1:, 1] += intercept * slope_prec
        b_trend[0] += self.a1[:2] / self.p1_diag[:2]
        sweep = _CyclicReduction(diag, lower, rhs)

        weighted = layout.L.T / self.border_var
        schur = weighted @ layout.L + obs_prec * layout.overlap - obs_prec * obs_prec * sweep.gram[:border, :border]
        observed = np.bincount(layout.current.ravel(), weights=np.repeat(r, layout.current.shape[1]), minlength=border)
        b_border = weighted @ layout.border_mean + obs_prec * (observed - sweep.gram[:border, border])
        try:
            factor = np.linalg.cholesky(schur)
            x_border = np.linalg.solve(schur, b_border + factor @ shocks[2 * n :])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("the seasonal effects' posterior precision is not positive definite") from exc
        trend = sweep.solve(np.append(-obs_prec * x_border, 1.0), shocks[: 2 * n].reshape(n, 2))
        logdet = sweep.logdet + 2.0 * float(np.log(np.diagonal(factor)).sum())
        return np.concatenate((trend.ravel(), x_border)), logdet

    def loglik(self, r: np.ndarray) -> float:
        """log p(r) = log p(r | m) + log p(m) - log p(m | r) at the posterior mean m (Chan & Jeliazkov 2009).

        The path's independent Gaussian terms are the residual r - m z, the layout's `innovations` and the
        initial deviation m_0 - a1. The map from a path to them is unit triangular, so the prior's
        log-determinant is the sum of their log variances, and log p(m | r) is log|Q| / 2 less the
        normalising constant that log p(m) shares.
        """
        n = r.size
        mean, logdet = self.posterior(r, np.zeros(2 * n + self.border_var.size))
        path = mean[self.layout.index]
        terms = (r - path @ self.z, *self.layout.innovations(path, self.d, self.phi), path[0] - self.a1)
        variances = np.concatenate([np.full(e.shape, v) for v, e in zip((*self.variances, self.p1_diag), terms)])
        quadratic = np.concatenate(terms) ** 2 / variances
        return -0.5 * float(n * np.log(2.0 * np.pi) + np.log(variances).sum() + quadratic.sum() + logdet)


def ffbs_sample(
    model: StateSpaceModel, params: ParamPoint, y: Sequence[float], rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw one state trajectory (n, m) from the smoothing distribution.

    `_SequenceForm.posterior` of y - x'beta at one `rng.standard_normal(2n + B)`
    call, a normal for each of the path's 2n trend and B seasonal-effect
    coordinates. A variance or p1_diag entry without a finite reciprocal
    raises RangeError, and a design or beta that `observation_offsets`
    refuses SchemaError, before any draw from rng; a non-finite path raises
    NumericalError.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    form = _SequenceForm(model, params, n)
    residual = y - model.observation_offsets(params.beta, x, n)
    path = form.posterior(residual, rng.standard_normal(2 * n + form.border_var.size))[0][form.layout.index]
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
