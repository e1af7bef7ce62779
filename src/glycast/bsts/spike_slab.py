"""Stochastic-search variable selection for the static regression component.

Each sweep resamples every inclusion indicator from the ratio of conjugate
Gaussian-inverse-gamma marginal likelihoods, draws the active coefficients
from their conditional Gaussian, zeroes the rest exactly, and draws the
observation variance from its inverse-gamma conditional. The Gibbs fit runs
the sweep for every model, so it is the fit's one observation-variance draw;
with no columns it is that draw alone. Everything that depends only on the
design and the priors (`SweepTerms`) is built once per fit.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

from ..errors import RangeError, SchemaError
from .components import SpikeSlabSettings, VariancePrior

logger = logging.getLogger(__name__)

_RIDGE = 1e-8


def _slab_precision(xtx: np.ndarray, n: int, weight: float) -> np.ndarray:
    """Prior precision of the slab, scaled so cov = sigma^2 * n * V^{-1}.

    V averages the full Gram information with its diagonal; all-zero columns
    get a floored diagonal entry so they carry a proper (and irrelevant) slab.
    """
    diag = np.diag(xtx).copy()
    zero = diag <= 0.0
    if np.any(zero):
        positive = diag[~zero]
        diag[zero] = float(np.mean(positive)) if positive.size else 1.0
    v = weight * xtx / n + (1.0 - weight) * np.diag(diag) / n
    if np.any(zero):
        fix = np.where(zero)[0]
        v[fix, :] = 0.0
        v[:, fix] = 0.0
        v[fix, fix] = diag[fix] / n
    return v / n


def _chol_with_ridge(matrix: np.ndarray, context: str) -> tuple[np.ndarray, np.ndarray]:
    """(matrix factored, its Cholesky factor): `matrix`, or a ridged copy if singular; solves use the former."""
    try:
        return matrix, np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        jitter = _RIDGE * float(np.trace(matrix)) / max(matrix.shape[0], 1)
        logger.warning("singular %s Gram matrix; adding ridge jitter %.3e", context, jitter)
        ridged = matrix + jitter * np.eye(matrix.shape[0])
        return ridged, np.linalg.cholesky(ridged)


class SweepTerms:
    """What every sweep of one fit shares: it depends on the design and priors, never on the residual.

    x'x, the slab precision, the log prior odds of inclusion and the
    inverse-gamma constants are built once; each active set's slab and
    posterior precisions, the posterior precision's Cholesky factor and the
    log-determinant part of its log-marginal are factored on first use and
    kept for the fit.
    """

    def __init__(self, x: np.ndarray, spike_slab: SpikeSlabSettings, obs_var_prior: VariancePrior):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise SchemaError(f"design must be two-dimensional, got shape {x.shape}")
        n, j_total = x.shape
        if n < 1:
            raise RangeError("design has no rows")
        self.x = x
        self.n = n
        self.n_columns = j_total
        self.obs_var_prior = obs_var_prior
        a0, b0 = obs_var_prior.shape, obs_var_prior.scale
        self.b0 = b0
        self.an = a0 + n / 2.0
        self.base = -(n / 2.0) * np.log(2.0 * np.pi) + a0 * np.log(b0) + math.lgamma(self.an) - math.lgamma(a0)
        self._factors: dict[bytes, tuple] = {}
        if j_total:
            self.xtx = x.T @ x
            self.p0 = _slab_precision(self.xtx, n, spike_slab.information_weight)
            pi = float(np.clip(spike_slab.expected_model_size / j_total, 1e-6, 1.0 - 1e-6))
            self.log_pi = np.log(pi)
            self.log_not = np.log1p(-pi)

    def factors(self, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(active columns, P_n, chol(P_n), base + log|P0|/2 - log|P_n|/2) for inclusion vector `gamma`."""
        key = gamma.tobytes()
        cached = self._factors.get(key)
        if cached is None:
            active = np.flatnonzero(gamma)
            idx = np.ix_(active, active)
            p0a = self.p0[idx]
            _, chol_p0 = _chol_with_ridge(p0a, "slab-prior")
            pna, chol_pn = _chol_with_ridge(p0a + self.xtx[idx], "active-column")
            logdet_p0 = 2.0 * float(np.sum(np.log(np.diag(chol_p0))))
            logdet_pn = 2.0 * float(np.sum(np.log(np.diag(chol_pn))))
            cached = self._factors[key] = (active, pna, chol_pn, self.base + 0.5 * logdet_p0 - 0.5 * logdet_pn)
        return cached


def _log_marginal(terms: SweepTerms, gamma: np.ndarray, xtr: np.ndarray, rtr: float) -> tuple[float, np.ndarray]:
    """log p(r | gamma) with the active columns' posterior mean; r enters through x'r and r'r."""
    if not gamma.any():
        return float(terms.base - terms.an * np.log(terms.b0 + 0.5 * rtr)), np.zeros(0)
    active, pna, _, const = terms.factors(gamma)
    beta_hat = np.linalg.solve(pna, xtr[active])
    bn = terms.b0 + 0.5 * (rtr - float(xtr[active] @ beta_hat))
    bn = max(bn, 1e-300)
    return float(const - terms.an * np.log(bn)), beta_hat


def sample_regression(
    y_minus_state: Sequence[float],
    terms: SweepTerms,
    gamma: Sequence[int],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One spike-and-slab sweep over the design of `terms`; returns (gamma, beta, sigma_obs).

    beta_j is exactly zero wherever gamma_j is zero; sigma_obs is the
    observation noise sd drawn from its inverse-gamma conditional
    (`obs_var_prior.draw`) given the final inclusion set. With no columns
    (J = 0) the sweep is that draw alone, on the residual's sum of squares.
    Log-marginals are memoised by active set, so J columns cost J + 1 of them.
    """
    r = np.asarray(y_minus_state, dtype=float)
    if r.shape != (terms.n,):
        raise SchemaError(f"design shape {terms.x.shape} does not match residual length {r.size}")
    gamma = np.asarray(gamma, dtype=np.int64).copy()
    n, j_total = terms.n, terms.n_columns
    if gamma.shape != (j_total,):
        raise SchemaError(f"gamma must have length {j_total}")
    rtr = float(r @ r)
    if j_total == 0:
        return gamma, np.zeros(0), float(np.sqrt(terms.obs_var_prior.draw(rtr, n, rng)))

    xtr = terms.x.T @ r
    memo: dict[bytes, tuple[float, np.ndarray]] = {}

    def log_marginal() -> tuple[float, np.ndarray]:
        key = gamma.tobytes()
        if key not in memo:
            memo[key] = _log_marginal(terms, gamma, xtr, rtr)
        return memo[key]

    for j in range(j_total):
        gamma[j] = 1
        lm1, _ = log_marginal()
        gamma[j] = 0
        lm0, _ = log_marginal()
        logit = (lm1 + terms.log_pi) - (lm0 + terms.log_not)
        p_on = 1.0 / (1.0 + np.exp(-min(max(logit, -700.0), 700.0)))  # np.clip's value, without its call
        gamma[j] = 1 if rng.random() < p_on else 0

    beta = np.zeros(j_total)
    active, _, chol, _ = terms.factors(gamma)
    _, beta_hat = log_marginal()
    sigma2 = terms.obs_var_prior.draw(rtr - float(xtr[active] @ beta_hat), n, rng)
    beta[active] = beta_hat + np.sqrt(sigma2) * np.linalg.solve(chol.T, rng.standard_normal(active.size))
    return gamma, beta, float(np.sqrt(sigma2))


def exact_inclusion_posterior(
    y_minus_state: Sequence[float],
    x: np.ndarray,
    spike_slab: SpikeSlabSettings,
    obs_var_prior: VariancePrior,
) -> np.ndarray:
    """Per-column inclusion probabilities by enumerating all 2^J models.

    Exponential in J; intended as the small-J oracle for the Gibbs sweep, and
    built on the same `SweepTerms`. A design with no columns has no inclusion
    probabilities: the result is empty.
    """
    r = np.asarray(y_minus_state, dtype=float)
    terms = SweepTerms(x, spike_slab, obs_var_prior)
    j_total = terms.n_columns
    if j_total > 12:
        raise RangeError(f"enumeration oracle limited to 12 columns, got {j_total}")
    if j_total == 0:
        return np.zeros(0)
    xtr, rtr = terms.x.T @ r, float(r @ r)

    members = (np.arange(2**j_total)[:, None] >> np.arange(j_total) & 1).astype(np.int64)
    log_weights = np.empty(2**j_total)
    for code, gamma in enumerate(members):
        lm, _ = _log_marginal(terms, gamma, xtr, rtr)
        size = int(gamma.sum())
        log_weights[code] = lm + (size * terms.log_pi + (j_total - size) * terms.log_not)
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    weights /= weights.sum()
    return members.T @ weights
