"""Linear-Gaussian filtering, likelihood, and simulation smoothing.

Conventions: the state at index t carries the components generating y_t;
`transition_matrix(phi, t)` maps the time-t state to the time-(t+1) state.
State paths are drawn with the mean-corrected simulation smoother of Durbin &
Koopman (2002): one forward filter plus a backward pass of matrix-vector
products. Exact zero variances are supported (the filter skips degenerate
updates and the smoother collapses to the deterministic path), which the
noiseless oracle cases rely on.
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
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(T, T', Q, sqrt(diag Q)) for every step of one period, built once per boundary mask."""
    level_var = params.sigma_level**2
    slope_var = params.sigma_slope**2
    seasonal_vars = [s**2 for s in params.sigma_seasonal]
    ops = []
    for i, template in enumerate(model.templates):
        T = template.copy()
        T[1, 1] = params.phi
        q = model.mask_noise(i, level_var, slope_var, seasonal_vars)
        ops.append((T, T.T.copy(), np.diag(q), np.sqrt(q)))
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
        T, Tt, Q, _ = schedule[t % period]
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
    intercept, no regression), filter the difference between y and those
    observations under the full model, and add the smoothed mean of that
    filter run to the noise-only path. The smoothed mean comes from the
    backward recursion r_{t-1} = z v_t / F_t + (I - g_t z')' T_t' r_t with
    r_{n-1} = 0 and filtered gain g_t = P_t z / F_t, as a_t + P_t r_{t-1}.
    Steps with zero predictive variance carry no information (v/F = 0,
    g = 0), so a noiseless model returns its deterministic path.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    m = model.state_dim
    z = model.z
    period = model.period
    schedule = _step_operators(model, params)

    shocks = rng.standard_normal((n, m))
    noise_path = np.empty((n, m))
    alpha = np.sqrt(model.p1_diag) * shocks[0]
    for t in range(n - 1):
        noise_path[t] = alpha
        T, _, _, q_sd = schedule[t % period]
        alpha = T.dot(alpha) + q_sd * shocks[t + 1]
    noise_path[n - 1] = alpha
    noise_obs = noise_path @ z + params.sigma_obs * rng.standard_normal(n)

    filt = kalman_loglik(model, params, y - noise_obs, x)
    f = filt.predicted_variances
    scaled_innovations = np.divide(filt.innovations, f, out=np.zeros(n), where=f > 0.0)

    r = np.zeros(m)
    rs = np.empty((n, m))
    for t in range(n - 1, -1, -1):
        w = schedule[t % period][1].dot(r)
        r = w + z * (scaled_innovations[t] - filt.gains[t].dot(w))
        rs[t] = r
    return noise_path + filt.state_pred_means + np.einsum("tij,tj->ti", filt.state_pred_covs, rs)

