"""Synthetic data generators and independent desk-scale oracles.

The generators produce clinical records with a declared ground-truth
dependency graph and CGM-like series with known trend/seasonal/meal/latent
structure, written in the exact dataset CSV formats. The oracles re-derive
core quantities by brute force (DAG enumeration, naive family counting, joint
configuration enumeration, dense Gaussian conditioning, a Tabu search that
rescores every candidate move) so the fast implementations can be checked
against slow, obviously-correct computations.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Mapping, Optional, Sequence

import numpy as np

from .bayesnet import _SCORE_EPS, Dag, TabuParams, _FamilyScores, _has_path
from .bsts.components import StateSpaceModel
from .bsts.kalman import ParamPoint
from .dataset import (
    GENDER_LEVELS,
    IMPUTABLE_FEATURES,
    STEP,
    STEP_MINUTES,
    STEPS_PER_DAY,
    ClinicalRecord,
    GlucoseSeries,
    GlycemicTable,
    MealEvent,
)
from .errors import CapacityError, RangeError
from .preprocess import ENCODED_FEATURES, DiscreteDataset

UMOL_PER_MGDL_CR = 88.4
CGM_CLIP = (39.6, 468.0)

MEAL_GRID_MINUTES = (7 * 60, 12 * 60, 18 * 60)  # 07:00, 12:00, 18:00


def mdrd_egfr(cr_mgdl: float, age: float, gender: str, ethnicity: str = "other") -> float:
    """Estimated glomerular filtration rate from serum creatinine.

    186 * cr^-1.154 * age^-0.203, times 0.742 for females and 1.212 for Black
    ethnicity.
    """
    if cr_mgdl <= 0:
        raise RangeError(f"cr must be > 0 mg/dL, got {cr_mgdl}")
    if age <= 0:
        raise RangeError(f"age must be > 0, got {age}")
    if gender not in GENDER_LEVELS:
        raise RangeError(f"gender must be {'/'.join(GENDER_LEVELS)}, got {gender!r}")
    rho = 0.742 if gender == "female" else 1.0
    sigma = 1.212 if ethnicity == "black" else 1.0
    return 186.0 * cr_mgdl**-1.154 * age**-0.203 * rho * sigma


@dataclass(frozen=True)
class SynthConfig:
    """Settings of the synthetic generators; every float is finite and every spread (an sd) is >= 0."""

    n_subjects: int = 10
    n_days: int = 5
    seed: int = 0
    day_amplitude: float = 15.0
    meal_amplitude: float = 8.0
    circadian_amplitude: float = 6.0
    noise_sd: float = 5.0
    baseline: float = 150.0
    baseline_spread: float = 15.0
    meal_gl_mean: float = 15.0
    meal_gl_sd: float = 4.0
    meal_bump_scale: float = 1.0
    latent_share: float = 0.0
    latent_sd: float = 12.0
    latent_ar: float = 0.3
    egfr_noise_sd: float = 5.0
    # With the gender correction in play the generated eGFR genuinely depends
    # on gender beyond CR; turn it off to make the kidney-cluster ground truth
    # exactly the four-arc shape used by structure-recovery checks.
    egfr_gender_factor: bool = True
    missing_rate: float = 0.0

    def __post_init__(self) -> None:
        # Checked first, so that the range checks below see numbers: a NaN or infinite setting wrote all-NaN series.
        for setting in fields(self):
            if setting.type == "float" and not math.isfinite(getattr(self, setting.name)):
                raise RangeError(f"{setting.name} must be finite, got {getattr(self, setting.name)}")
        if self.n_days < 1:
            raise RangeError("n_days must be >= 1")
        if self.n_subjects < 0:
            raise RangeError("n_subjects must be >= 0")
        if min(self.day_amplitude, self.meal_amplitude, self.circadian_amplitude) < 0:
            raise RangeError("seasonal amplitudes must be >= 0")
        # Zero noise is allowed so the degenerate constant-series case exists. A negative spread would fail
        # mid-draw in numpy's `normal`, or flip the sign of the noise where a generator forms sd * z itself.
        for name in ("noise_sd", "baseline_spread", "meal_gl_sd", "latent_sd", "egfr_noise_sd"):
            if getattr(self, name) < 0:
                raise RangeError(f"{name} must be >= 0")
        if not 0.0 <= self.latent_share <= 1.0:
            raise RangeError("latent_share must lie in [0, 1]")
        if not 0.0 <= self.missing_rate < 1.0:
            raise RangeError("missing_rate must lie in [0, 1)")


CLINICAL_TRUTH_ARCS = {
    "kidney": (
        ("gender", "height_m"),
        ("gender", "cr"),
        ("cr", "egfr"),
        ("age", "egfr"),
    ),
    "body": (
        ("height_m", "weight_kg"),
        ("bmi", "weight_kg"),
    ),
    "lipids": (
        ("ldl", "tc"),
        ("tc", "tg"),
        ("ldl", "tg"),
        ("hdl", "tg"),
    ),
    "glucose": (
        ("hba1c", "ga"),
        ("hba1c", "fpg"),
        ("fpg", "hpp2"),
    ),
}


def clinical_truth_dag(egfr_gender_factor: bool = True) -> Dag:
    """The dependency structure gen_clinical actually samples from."""
    arcs = [arc for group in CLINICAL_TRUTH_ARCS.values() for arc in group]
    if egfr_gender_factor:
        arcs.append(("gender", "egfr"))
    return Dag(ENCODED_FEATURES, frozenset(arcs))


def _clamp(value: float, lo: float, hi: float) -> float:
    """`value` clipped to [lo, hi], the scalar np.clip computes, without numpy's per-call dispatch."""
    return min(max(value, lo), hi)


def gen_clinical(cfg: SynthConfig) -> tuple[list[ClinicalRecord], Dag]:
    """Sample clinical records whose dependency graph is known by construction.

    Each record takes its numbers from the generator in this order:
      1. `rng.random()` for gender;
      2. `rng.standard_normal(3)` for height, BMI and the weight noise;
      3. `rng.uniform(20.0, 90.0)` for age;
      4. `rng.standard_normal(12)` for creatinine, the eGFR noise, LDL, HDL,
         the TC and TG noise, HbA1c, the GA, FPG and 2HPP noise, UA and BUN;
      5. only when missing_rate > 0, `rng.random(12)` for the missing mask.
    A normal value is loc + scale * z (noise terms leave out their zero loc),
    the formula numpy's `normal` applies to the same standard normal z. A
    seed's records keep their bytes only while this order and these
    formulas stay as they are (tests/test_synth.py pins them by digest).
    """
    rng = np.random.default_rng([cfg.seed, 1])
    records: list[ClinicalRecord] = []
    for i in range(cfg.n_subjects):
        is_female = rng.random() < 0.5
        gender = "female" if is_female else "male"
        z_height, z_bmi, z_weight = rng.standard_normal(3).tolist()
        height = _clamp((1.60 if is_female else 1.73) + 0.06 * z_height, 1.35, 2.05)
        bmi = _clamp(24.0 + 3.0 * z_bmi, 15.0, 40.0)
        weight = _clamp(bmi * height**2 + z_weight, 30.0, 160.0)
        age = float(rng.uniform(20.0, 90.0))
        (z_cr, z_egfr, z_ldl, z_hdl, z_tc, z_tg, z_hba1c, z_ga, z_fpg, z_hpp2, z_ua, z_bun) = (
            rng.standard_normal(12).tolist()
        )
        cr_mgdl = _clamp((0.72 + 0.12 * z_cr) if is_female else (1.05 + 0.18 * z_cr), 0.35, 2.5)
        egfr_gender = gender if cfg.egfr_gender_factor else "male"
        egfr = _clamp(mdrd_egfr(cr_mgdl, age, egfr_gender) + cfg.egfr_noise_sd * z_egfr, 5.0, 250.0)
        ldl = _clamp(3.1 + 1.0 * z_ldl, 0.5, 7.0)
        hdl = _clamp(1.15 + 0.30 * z_hdl, 0.4, 3.0)
        tc = _clamp(ldl + (1.75 + 0.40 * z_tc), 1.0, 12.0)
        tg = 1.8 + 0.45 * (tc - 4.9) + 0.25 * (ldl - 3.1) - 0.9 * (hdl - 1.15)
        tg = _clamp(tg + 0.35 * z_tg, 0.2, 8.0)
        hba1c = _clamp(76.0 + 25.0 * z_hba1c, 30.0, 180.0)
        ga = _clamp(0.32 * hba1c + 2.0 * z_ga, 8.0, 65.0)
        fpg = _clamp(55.0 + 1.4 * hba1c + 15.0 * z_fpg, 40.0, 620.0)
        hpp2 = _clamp(1.35 * fpg + 20.0 * z_hpp2, 50.0, 680.0)
        ua = _clamp(320.0 + 90.0 * z_ua, 100.0, 700.0)
        bun = _clamp(6.0 + 1.8 * z_bun, 1.5, 20.0)

        cr = cr_mgdl * UMOL_PER_MGDL_CR
        values: dict[str, Optional[float]] = dict(
            zip(IMPUTABLE_FEATURES, (age, height, weight, bmi, hba1c, ga, tc, tg, hdl, ldl, cr, egfr))
        )
        if cfg.missing_rate > 0.0:
            for key, u in zip(IMPUTABLE_FEATURES, rng.random(len(values)).tolist()):
                if u < cfg.missing_rate:
                    values[key] = None
        records.append(ClinicalRecord(f"S{i:03d}", gender, **values, ua=ua, bun=bun, fpg=fpg, hpp2=hpp2))
    return records, clinical_truth_dag(cfg.egfr_gender_factor)


def _seasonal_pattern(
    rng: np.random.Generator, n_seasons: int, durations: Sequence[int], amplitude: float, n: int
) -> np.ndarray:
    if amplitude == 0.0:
        return np.zeros(n)
    values = rng.normal(0.0, 1.0, n_seasons)
    values -= values.mean()
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    per_interval = np.concatenate([np.full(d, v) for v, d in zip(values, durations)])
    reps = int(np.ceil(n / per_interval.size))
    return np.tile(per_interval, reps)[:n]


_BUMP_KERNEL = np.array([0.2, 0.6, 1.0, 0.8, 0.5, 0.3, 0.15, 0.05])


@dataclass(frozen=True)
class CgmGroundTruth:
    """What the generator injected that the series alone do not show, for generator checks."""

    shared_latent: np.ndarray  # (n,) the latent path every subject shares
    meal_gls: tuple[tuple[float, ...], ...]  # per subject, the glycemic load of each meal


def gen_cgm_series(cfg: SynthConfig) -> tuple[list[GlucoseSeries], CgmGroundTruth]:
    """Generate one CGM series per subject on a shared midnight-anchored grid.

    Each series is baseline + day/meal/circadian patterns + post-meal bumps
    proportional to the meal's glycemic load + a shared latent signal scaled
    by latent_share + Gaussian noise, clipped to the recorded CGM range.

    The latent is one path at the same instants for every subject. With
    latent_share > 0 a donor's row t+h therefore carries the tester's own
    latent value at t+h, which real donors recorded on other dates do not:
    a forecast that reads donors' future rows sees part of the tester's
    future. On 3 subjects over 5 days at latent_share 0.7 (seeds 1-5, two
    donors, draws 250), the 15-minute MAE was 7.52 mg/dL with same-instant
    donors, 9.15 with donors rotated by one day and 9.16 without donors.
    """
    rng = np.random.default_rng([cfg.seed, 2])
    n = STEPS_PER_DAY * cfg.n_days
    start = datetime(2024, 1, 1, tzinfo=timezone.utc)

    innovations = rng.normal(0.0, cfg.latent_sd, n)
    shared = np.empty(n)
    acc = 0.0
    for t in range(n):
        acc = cfg.latent_ar * acc + innovations[t]
        shared[t] = acc

    meal_indices = [m // STEP_MINUTES + STEPS_PER_DAY * day for day in range(cfg.n_days) for m in MEAL_GRID_MINUTES]

    series_list: list[GlucoseSeries] = []
    meal_gls: list[tuple[float, ...]] = []

    for i in range(cfg.n_subjects):
        baseline = float(cfg.baseline + rng.normal(0.0, cfg.baseline_spread))
        day = _seasonal_pattern(rng, 4, (24, 24, 24, 24), cfg.day_amplitude, n)
        meal = _seasonal_pattern(rng, 3, (32, 32, 32), cfg.meal_amplitude, n)
        circ = _seasonal_pattern(rng, 2, (48, 24), cfg.circadian_amplitude, n)

        bumps = np.zeros(n)
        gls = []
        meals = []
        for idx in meal_indices:
            gl = max(float(rng.normal(cfg.meal_gl_mean, cfg.meal_gl_sd)), 0.0)
            gls.append(gl)
            meals.append(MealEvent(timestamp=start + idx * STEP, grid_index=idx, gl=gl))
            lo = idx + 1
            hi = min(lo + _BUMP_KERNEL.size, n)
            if lo < n:
                bumps[lo:hi] += cfg.meal_bump_scale * gl * _BUMP_KERNEL[: hi - lo]

        noise = rng.normal(0.0, cfg.noise_sd, n)
        y = baseline + day + meal + circ + bumps + cfg.latent_share * shared + noise
        y = np.clip(y, CGM_CLIP[0] + 1e-6, CGM_CLIP[1] - 1e-6)

        series_list.append(
            GlucoseSeries(subject_id=f"S{i:03d}", start=start, cgm=y, meals=tuple(meals))
        )
        meal_gls.append(tuple(gls))

    return series_list, CgmGroundTruth(shared_latent=shared, meal_gls=tuple(meal_gls))


def default_gl_table() -> GlycemicTable:
    """A small glycemic reference table for synthetic pipelines and demos."""
    return GlycemicTable(
        entries=(
            ("rice", 73.0, 28.0),
            ("pork and rice dish", 60.0, 23.0),
            ("noodles", 55.0, 25.0),
            ("steamed bun", 80.0, 45.0),
            ("congee", 78.0, 12.0),
            ("dumplings", 42.0, 22.0),
            ("tofu", 15.0, 2.0),
            ("apple", 36.0, 12.0),
            ("milk", 31.0, 5.0),
            ("egg", 0.0, 1.0),
        )
    )


def enumerate_dags(nodes: Sequence[str]):
    """Yield every DAG over the given nodes (brute force over orientations)."""
    nodes = tuple(nodes)
    pairs = list(itertools.combinations(range(len(nodes)), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (i, j), state in zip(pairs, states):
            if state == 1:
                arcs.append((nodes[i], nodes[j]))
            elif state == 2:
                arcs.append((nodes[j], nodes[i]))
        try:
            yield Dag(nodes, frozenset(arcs))
        except Exception:
            continue  # cyclic orientation


def dag_enumeration_oracle(data: DiscreteDataset, max_nodes: int = 5) -> Dag:
    """Exhaustively score every DAG with BIC and return the best.

    Ties break toward the lexicographically smallest arc set.
    """
    p = len(data.variables)
    if max_nodes > 5:
        raise CapacityError("enumeration oracle is limited to 5 nodes")
    if p > max_nodes:
        raise CapacityError(f"{p} variables exceed the {max_nodes}-node enumeration guard")
    scorer = _FamilyScores(data)
    best: Optional[Dag] = None
    best_key: Optional[tuple] = None
    for dag in enumerate_dags(data.variables):
        score = sum(scorer.family(node, dag.parents_of(node)) for node in dag.nodes)
        key = (-score, tuple(sorted(dag.arcs)))
        if best_key is None or key < best_key:
            best_key = key
            best = dag
    assert best is not None
    return best


def tabu_search_reference(data: DiscreteDataset, params: TabuParams = TabuParams()) -> Dag:
    """`bayesnet.tabu_search` rescoring every candidate move on every iteration.

    Each iteration lists every legal add, delete and reverse move with its
    score, checking cycles by depth-first search and tabu membership by arc
    frozensets, then applies the tie rule `tabu_search` documents: the
    smallest (kind, arc) among the candidates within _SCORE_EPS of the best.
    Family scores and move deltas use the same float operations as the
    incremental search, so the two must return the same arcs.
    """
    nodes = tuple(data.variables)
    scorer = _FamilyScores(data)

    parents: dict[str, tuple[str, ...]] = {n: () for n in nodes}
    children: dict[str, set[str]] = {n: set() for n in nodes}
    arcs: set[tuple[str, str]] = set()
    current_score = sum(scorer.family(n, ()) for n in sorted(nodes))  # in name order, as `tabu_search` sums
    best_arcs = frozenset(arcs)
    best_score = current_score

    tabu: deque = deque(maxlen=params.tabu_len)
    tabu_set: set = set()

    def remember(structure: frozenset) -> None:
        if structure in tabu_set:
            return
        if len(tabu) == tabu.maxlen:
            tabu_set.discard(tabu[0])
        tabu.append(structure)
        tabu_set.add(structure)

    remember(frozenset(arcs))

    def add_parent(node: str, parent: str) -> tuple[str, ...]:
        return tuple(sorted(parents[node] + (parent,)))

    def drop_parent(node: str, parent: str) -> tuple[str, ...]:
        return tuple(p for p in parents[node] if p != parent)

    stall = 0
    for _ in range(params.max_iter):
        # (score, kind, arc, structure); kind 0 = add, 1 = delete, 2 = reverse.
        candidates = []
        for u in nodes:
            for v in nodes:
                if u == v or (u, v) in arcs or (v, u) in arcs or _has_path(children, v, u):
                    continue
                structure = frozenset(arcs | {(u, v)})
                if structure not in tabu_set:
                    delta = scorer.family(v, add_parent(v, u)) - scorer.family(v, parents[v])
                    candidates.append((current_score + delta, 0, (u, v), structure))
        for u, v in arcs:
            structure = frozenset(arcs - {(u, v)})
            if structure not in tabu_set:
                delta = scorer.family(v, drop_parent(v, u)) - scorer.family(v, parents[v])
                candidates.append((current_score + delta, 1, (u, v), structure))
            children[u].discard(v)
            reversible = not _has_path(children, u, v)
            children[u].add(v)
            structure = frozenset((arcs - {(u, v)}) | {(v, u)})
            if reversible and structure not in tabu_set:
                delta = (
                    scorer.family(v, drop_parent(v, u))
                    - scorer.family(v, parents[v])
                    + scorer.family(u, add_parent(u, v))
                    - scorer.family(u, parents[u])
                )
                candidates.append((current_score + delta, 2, (u, v), structure))
        if not candidates:
            break
        top = max(move[0] for move in candidates)
        new_score, kind, (u, v), structure = min(
            (move for move in candidates if move[0] >= top - _SCORE_EPS), key=lambda move: move[1:3]
        )

        if kind in (1, 2):
            arcs.discard((u, v))
            children[u].discard(v)
            parents[v] = drop_parent(v, u)
        if kind == 0:
            arcs.add((u, v))
            children[u].add(v)
            parents[v] = add_parent(v, u)
        elif kind == 2:
            arcs.add((v, u))
            children[v].add(u)
            parents[u] = add_parent(u, v)
        current_score = new_score
        remember(structure)

        if current_score > best_score + _SCORE_EPS:
            best_score = current_score
            best_arcs = frozenset(arcs)
            stall = 0
        else:
            stall += 1
            if stall >= params.stall_limit:
                break
    return Dag(nodes, best_arcs)


def bic_brute_force(dag: Dag, data: DiscreteDataset) -> float:
    """Naive BIC by explicit dictionary counting; independent of bic_score."""
    n = data.n_rows
    total = 0.0
    for node in dag.nodes:
        parents = dag.parents_of(node)
        node_idx = data.index_of(node)
        parent_idx = [data.index_of(p) for p in parents]
        joint_counts: dict[tuple, int] = {}
        config_counts: dict[tuple, int] = {}
        for row in data.matrix:
            config = tuple(int(row[i]) for i in parent_idx)
            cell = config + (int(row[node_idx]),)
            joint_counts[cell] = joint_counts.get(cell, 0) + 1
            config_counts[config] = config_counts.get(config, 0) + 1
        loglik = 0.0
        for cell, count in joint_counts.items():
            loglik += count * math.log(count / config_counts[cell[:-1]])
        n_cfg = 1
        for p in parents:
            n_cfg *= data.card_of(p)
        k = (data.card_of(node) - 1) * n_cfg
        total += loglik - 0.5 * k * math.log(n)
    return total


def joint_enumeration_posterior(model, target: str, evidence: Mapping[str, int]) -> np.ndarray:
    """Exact posterior by summing the joint over every configuration.

    Exponential in the node count; the independent oracle for variable
    elimination on small models.
    """
    nodes = model.dag.nodes
    if len(nodes) > 8:
        raise CapacityError("joint enumeration limited to 8 nodes")
    cards = [model.cards[v] for v in nodes]
    node_pos = {v: i for i, v in enumerate(nodes)}
    target_pos = node_pos[target]
    posterior = np.zeros(model.cards[target])
    for assignment in itertools.product(*(range(c) for c in cards)):
        skip = False
        for var, value in evidence.items():
            if assignment[node_pos[var]] != value:
                skip = True
                break
        if skip:
            continue
        prob = 1.0
        for node in nodes:
            parents = model.parent_order[node]
            cfg = 0
            for parent in parents:
                cfg = cfg * model.cards[parent] + assignment[node_pos[parent]]
            prob *= model.cpts[node][cfg, assignment[node_pos[node]]]
        posterior[assignment[target_pos]] += prob
    total = posterior.sum()
    if total <= 0:
        raise RangeError("evidence has zero probability under the joint")
    return posterior / total


@dataclass(frozen=True)
class GaussianOracleResult:
    loglik: float
    onestep_means: np.ndarray  # (T,) E[y_t | y_1..t-1]
    onestep_variances: np.ndarray
    smoothed_state_means: np.ndarray  # (T, m) E[state_t | y_1..T]
    smoothed_state_covs: np.ndarray  # (T, m, m) Cov[state_t | y_1..T]
    forecast_means: np.ndarray  # (h,) E[y_{T+j} | y_1..T]
    forecast_variances: np.ndarray


def gaussian_predictive_oracle(
    model: StateSpaceModel,
    params: ParamPoint,
    y: Sequence[float],
    horizon: int = 0,
    x: Optional[np.ndarray] = None,
    x_future: Optional[np.ndarray] = None,
) -> GaussianOracleResult:
    """Dense joint-Gaussian evaluation of the state space.

    Builds the full covariance over all states and observations by explicit
    recursion and conditions exactly; O((T m)^3), guarded to T <= 20 and
    m <= 8.
    """
    y = np.asarray(y, dtype=float)
    T = y.size
    m = model.state_dim
    if T > 20:
        raise CapacityError(f"dense oracle limited to 20 observations, got {T}")
    if m > 8:
        raise CapacityError(f"dense oracle limited to state dim 8, got {m}")
    if horizon < 0:
        raise RangeError("horizon must be >= 0")

    total = T + horizon
    z = model.z
    c = model.state_intercept(params.d, params.phi)
    level_var = params.sigma_level**2
    slope_var = params.sigma_slope**2
    seasonal_vars = [s**2 for s in params.sigma_seasonal]
    obs_var = params.sigma_obs**2

    # Joint over stacked states (alpha_0 .. alpha_{total-1}).
    mean = np.zeros(total * m)
    cov = np.zeros((total * m, total * m))
    mean[:m] = model.a1
    cov[:m, :m] = np.diag(model.p1_diag)
    for t in range(total - 1):
        Tt = model.transition_matrix(params.phi, t)
        q = model.mask_noise(model.step_masks[t % model.period], level_var, slope_var, seasonal_vars)
        i0 = t * m
        i1 = (t + 1) * m
        mean[i1 : i1 + m] = Tt @ mean[i0 : i0 + m] + c
        for s in range(t + 1):
            j0 = s * m
            block = Tt @ cov[i0 : i0 + m, j0 : j0 + m]
            cov[i1 : i1 + m, j0 : j0 + m] = block
            cov[j0 : j0 + m, i1 : i1 + m] = block.T
        cov[i1 : i1 + m, i1 : i1 + m] = Tt @ cov[i0 : i0 + m, i0 : i0 + m] @ Tt.T + np.diag(q)

    offsets = model.observation_offsets(params.beta, x, T)
    if horizon > 0 and model.n_regressors:
        if x_future is None:
            raise RangeError("x_future required with regressors and horizon > 0")
        future_offsets = np.asarray(x_future, dtype=float) @ params.beta
    else:
        future_offsets = np.zeros(horizon)

    # Observation joint: y_t = z' alpha_t + offset_t + eps_t.
    H = np.zeros((total, total * m))
    for t in range(total):
        H[t, t * m : (t + 1) * m] = z
    obs_mean = H @ mean + np.concatenate([offsets, future_offsets])
    obs_cov = H @ cov @ H.T + obs_var * np.eye(total)

    omega_oo = obs_cov[:T, :T]
    try:
        chol = np.linalg.cholesky(omega_oo)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * max(float(np.trace(omega_oo)) / T, 1.0)
        chol = np.linalg.cholesky(omega_oo + jitter * np.eye(T))
    resid = y - obs_mean[:T]
    w = np.linalg.solve(chol, resid)

    onestep_vars = np.diag(chol) ** 2
    onestep_means = np.empty(T)
    for t in range(T):
        onestep_means[t] = obs_mean[t] + chol[t, :t] @ w[:t]

    loglik = float(-0.5 * (T * np.log(2.0 * np.pi) + np.sum(np.log(onestep_vars)) + w @ w))

    # Smoothed states: E[stacked alpha | y] over the first T blocks.
    cross = cov[: T * m, :] @ H[:T].T  # (T m, T)
    smoothed = mean[: T * m] + cross @ np.linalg.solve(chol.T, w)
    smoothed_state_means = smoothed.reshape(T, m)
    tmp = np.linalg.solve(chol, cross.T)  # (T, T m)
    joint = (cov[: T * m, : T * m] - tmp.T @ tmp).reshape(T, m, T, m)
    smoothed_state_covs = joint[np.arange(T), :, np.arange(T), :]

    if horizon > 0:
        omega_fo = obs_cov[T:, :T]
        fmean = obs_mean[T:] + omega_fo @ np.linalg.solve(chol.T, w)
        tmp = np.linalg.solve(chol, omega_fo.T)
        fcov = obs_cov[T:, T:] - tmp.T @ tmp
        forecast_means = fmean
        forecast_variances = np.diag(fcov).copy()
    else:
        forecast_means = np.zeros(0)
        forecast_variances = np.zeros(0)

    return GaussianOracleResult(
        loglik=loglik,
        onestep_means=onestep_means,
        onestep_variances=onestep_vars,
        smoothed_state_means=smoothed_state_means,
        smoothed_state_covs=smoothed_state_covs,
        forecast_means=forecast_means,
        forecast_variances=forecast_variances,
    )


def simulate_from_model(
    model: StateSpaceModel,
    params: ParamPoint,
    n: int,
    rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
    sample_initial_state: bool = True,
) -> np.ndarray:
    """Simulate a series of length n from the assembled state space."""
    level_var = params.sigma_level**2
    slope_var = params.sigma_slope**2
    seasonal_vars = [s**2 for s in params.sigma_seasonal]
    c = model.state_intercept(params.d, params.phi)
    offsets = model.observation_offsets(params.beta, x, n)
    alpha = model.a1.copy()
    if sample_initial_state:
        alpha = alpha + np.sqrt(model.p1_diag) * rng.standard_normal(alpha.size)
    out = np.empty(n)
    for t in range(n):
        out[t] = model.z @ alpha + offsets[t] + params.sigma_obs * rng.standard_normal()
        T = model.transition_matrix(params.phi, t)
        q = model.mask_noise(model.step_masks[t % model.period], level_var, slope_var, seasonal_vars)
        alpha = T @ alpha + c + np.sqrt(q) * rng.standard_normal(alpha.size)
    return out
