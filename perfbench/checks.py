"""Correctness checks on glycast's outputs, computed independently with numpy.

Every check returns a list of error strings; an empty list means the output
passed. The thresholds are properties the method must have on the benchmark's
synthetic inputs, set with margin from the spread over seeds 1-10 (see
README.md).
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

# stage1-cohort: arcs found in at least the consensus threshold of the
# bootstrap networks, in either orientation, against synth.clinical_truth_dag
# (14 arcs).
MIN_TRUE_ARCS = 10
MAX_FALSE_ARCS = 2
MIN_FPG_SPEARMAN = 0.70
# Inferred marker values against exact enumeration of the fitted network.
MARKER_RTOL = 1e-9
# anchored-forecast-14d: empirical coverage of the 1-step 95% band.
COVERAGE_BAND = (0.88, 0.99)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n, ties sharing the mean of the ranks they span."""
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    ranks = np.empty(x.size)
    start = 0
    while start < x.size:
        stop = start + 1
        while stop < x.size and sorted_x[stop] == sorted_x[start]:
            stop += 1
        ranks[order[start:stop]] = 0.5 * (start + stop - 1) + 1.0
        start = stop
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    ra, rb = average_ranks(a), average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float(ra @ ra) * float(rb @ rb))
    return float(ra @ rb) / denom if denom > 0 else 0.0


def anchor_count(n: int, split_ratio: float, max_h: int) -> int:
    """Anchors of the 80:20 protocol: the last train index up to n - 1 - max_h."""
    n_train = int(math.floor(n * split_ratio))
    return n - max_h - (n_train - 1)


def persistence_errors(y: np.ndarray, anchors: np.ndarray, h: int) -> np.ndarray:
    """Errors of the forecast y_{t+h} = y_t over the given anchors."""
    return y[anchors + h] - y[anchors]


def check_evaluate_report(
    metrics: list, tester_ids: Sequence[str], series: Mapping[str, np.ndarray],
    horizons: Sequence[int], split_ratio: float,
) -> list[str]:
    """metrics.json: one report per tester, anchor counts, MAE below persistence."""
    errors = []
    ids = [r.get("subject_id") for r in metrics]
    if sorted(ids) != sorted(tester_ids):
        return [f"metrics.json reports {ids}, expected one per tester {list(tester_ids)}"]
    max_h = max(horizons)
    for report in metrics:
        y = series[report["subject_id"]]
        n_train = int(math.floor(y.size * split_ratio))
        anchors = np.arange(n_train - 1, y.size - max_h)
        expected_n = anchor_count(y.size, split_ratio, max_h)
        for h in horizons:
            cell = report["horizons"].get(str(h))
            if cell is None:
                errors.append(f"{report['subject_id']}: no report for horizon {h}")
                continue
            if cell["n"] != expected_n:
                errors.append(f"{report['subject_id']} h={h}: n={cell['n']}, expected {expected_n}")
            naive = float(np.mean(np.abs(persistence_errors(y, anchors, h))))
            if not cell["mae"] < naive:
                errors.append(
                    f"{report['subject_id']} h={h}: MAE {cell['mae']:.3f} not below persistence {naive:.3f}"
                )
    return errors


def check_selection_log(selections: Mapping[str, dict]) -> list[str]:
    """selections.json: donors listed in ascending distance."""
    errors = []
    for tester, log in selections.items():
        distances = [d["distance"] for d in log["selected"]]
        if distances != sorted(distances):
            errors.append(f"{tester}: donors not in ascending distance {distances}")
    return errors


def bootstrap_skeleton(strengths: Mapping[tuple[str, str], float], threshold: float) -> set[frozenset]:
    """Arcs present in at least `threshold` of the bootstrap networks.

    A bootstrap network is a DAG and holds at most one orientation of an arc,
    so an arc's frequency is the sum of its two directed strengths.
    """
    frequency: dict[frozenset, float] = {}
    for (u, v), s in strengths.items():
        key = frozenset((u, v))
        frequency[key] = frequency.get(key, 0.0) + s
    return {arc for arc, f in frequency.items() if f >= threshold - 1e-9}


def check_skeleton(
    strengths: Mapping[tuple[str, str], float], truth_arcs: Sequence[tuple[str, str]], threshold: float,
) -> list[str]:
    """Recall of the generating DAG's arcs among the arcs of at least
    `threshold` of the bootstrap networks, and the false arcs among them."""
    found = bootstrap_skeleton(strengths, threshold)
    truth = {frozenset(a) for a in truth_arcs}
    hits = len(found & truth)
    false = len(found - truth)
    errors = []
    if hits < MIN_TRUE_ARCS:
        errors.append(f"bootstrap networks recall {hits} of {len(truth)} true arcs, floor {MIN_TRUE_ARCS}")
    if false > MAX_FALSE_ARCS:
        errors.append(f"bootstrap networks hold {false} false arcs, ceiling {MAX_FALSE_ARCS}")
    return errors


def _reaches(arcs: set[tuple[str, str]], src: str, dst: str) -> bool:
    children: dict[str, set[str]] = {}
    for u, v in arcs:
        children.setdefault(u, set()).add(v)
    stack, seen = [src], {src}
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for child in children.get(node, set()) - seen:
            seen.add(child)
            stack.append(child)
    return False


def check_consensus(
    consensus_arcs: Sequence[tuple[str, str]], strengths: Mapping[tuple[str, str], float], threshold: float,
) -> list[str]:
    """The consensus DAG against the rule bootstrap_consensus documents.

    Every consensus arc is a direction of at least `threshold` strength and
    the stronger of its two; the consensus is acyclic; and every such
    direction left out would close a cycle of consensus arcs.
    """
    arcs = {tuple(a) for a in consensus_arcs}
    errors = []
    for u, v in sorted(arcs):
        s = strengths.get((u, v), 0.0)
        if s < threshold or s < strengths.get((v, u), 0.0):
            errors.append(f"consensus arc {u}->{v} has strength {s:.2f}, threshold {threshold}")
        if _reaches(arcs - {(u, v)}, v, u):
            errors.append(f"consensus arc {u}->{v} closes a cycle")
    for (u, v), s in sorted(strengths.items()):
        if s >= threshold and s > strengths.get((v, u), 0.0) and (u, v) not in arcs and not _reaches(arcs, v, u):
            errors.append(f"{u}->{v} has strength {s:.2f} and closes no cycle, but is not in the consensus")
    return errors


def check_marker_inference(inferred_fpg: Sequence[float], measured_fpg: Sequence[float]) -> list[str]:
    rho = spearman(inferred_fpg, measured_fpg)
    if not rho > MIN_FPG_SPEARMAN:
        return [f"Spearman(inferred, measured FPG) = {rho:.3f}, floor {MIN_FPG_SPEARMAN}"]
    return []


def enumerate_markers(
    cpts: Mapping[str, np.ndarray], parent_order: Mapping[str, Sequence[str]], cards: Mapping[str, int],
    evidence: Sequence[Mapping[str, int]], fpg_values: Sequence[float], hpp2_values: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Expected FPG and 2HPP of each evidence row, by enumerating the joint.

    Every node but the two markers is observed, so the posterior over the
    markers' classes is the product of all CPT entries at each of their
    card(fpg) x card(hpp2) joint classes, normalised. CPT rows are indexed by
    the mixed-radix code of the node's parents, first parent most significant.
    """
    n = len(evidence)
    observed = {name: np.array([row[name] for row in evidence], dtype=np.int64) for name in evidence[0]}
    joint = np.empty((n, cards["fpg"], cards["hpp2"]))
    for a in range(cards["fpg"]):
        for b in range(cards["hpp2"]):
            values = dict(observed, fpg=np.full(n, a), hpp2=np.full(n, b))
            p = np.ones(n)
            for node, table in cpts.items():
                code = np.zeros(n, dtype=np.int64)
                for parent in parent_order[node]:
                    code = code * cards[parent] + values[parent]
                p *= table[code, values[node]]
            joint[:, a, b] = p
    joint /= joint.sum(axis=(1, 2), keepdims=True)
    return joint.sum(axis=2) @ np.asarray(fpg_values, dtype=float), joint.sum(axis=1) @ np.asarray(
        hpp2_values, dtype=float
    )


def check_exact_markers(
    inferred: tuple[Sequence[float], Sequence[float]], enumerated: tuple[np.ndarray, np.ndarray],
) -> list[str]:
    """Inferred FPG and 2HPP equal the enumerated expectations."""
    errors = []
    for name, got, want in zip(("fpg", "hpp2"), inferred, enumerated):
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            errors.append(f"inferred {name} has shape {got.shape}, expected {want.shape}")
            continue
        bad = int(np.sum(~np.isclose(got, want, rtol=MARKER_RTOL, atol=0.0)))
        if bad:
            errors.append(f"inferred {name} differs from exact enumeration at {bad} subjects")
    return errors


def check_nearest_donors(
    ids: Sequence[str], fpg: Sequence[float], hpp2: Sequence[float],
    testers: Mapping[str, tuple[float, float]], selections: Mapping[str, Sequence[str]], m: int,
) -> list[str]:
    """Each tester's donors are the m nearest pool points, by (distance, id).

    The pool is every other subject at its inferred markers; the tester sits
    at its measured markers. numpy screens the pool; the order is then
    checked exactly with math.hypot, since inferred markers tie or nearly tie
    and a near tie is decided by the last bits of the distance.
    """
    ids = list(ids)
    f = np.asarray(fpg, dtype=float)
    g = np.asarray(hpp2, dtype=float)
    position = {sid: i for i, sid in enumerate(ids)}
    errors = []
    for tester, (tf, tg) in testers.items():
        chosen = list(selections.get(tester, ()))
        if len(chosen) != m or len(set(chosen)) != m or tester in chosen:
            errors.append(f"{tester}: selected {chosen}, expected {m} distinct donors")
            continue
        if any(sid not in position for sid in chosen):
            errors.append(f"{tester}: selected unknown subjects {chosen}")
            continue

        def key(i: int) -> tuple[float, str]:
            return math.hypot(f[i] - tf, g[i] - tg), ids[i]

        keyed = [key(position[sid]) for sid in chosen]
        if keyed != sorted(keyed):
            errors.append(f"{tester}: donors {chosen} not in (distance, id) order")
            continue
        last = keyed[-1]
        screen = np.hypot(f - tf, g - tg) <= last[0] * (1.0 + 1e-9) + 1e-9
        for i in np.flatnonzero(screen):
            if ids[i] not in chosen and ids[i] != tester and key(i) < last:
                errors.append(f"{tester}: {ids[i]} is nearer than selected donor {last[1]}")
                break
    return errors


def check_anchored_forecast(
    forecasts: Mapping[int, Mapping[str, np.ndarray]], y: np.ndarray, anchors: np.ndarray,
) -> list[str]:
    """Band order at every anchor, 1-step coverage, RMSE below persistence."""
    errors = []
    for h, cell in sorted(forecasts.items()):
        mean, lo, hi = (np.asarray(cell[k]) for k in ("mean", "lower95", "upper95"))
        if mean.shape != anchors.shape:
            errors.append(f"h={h}: {mean.shape} forecasts for {anchors.size} anchors")
            continue
        if not (np.all(np.isfinite(mean)) and np.all(lo <= mean) and np.all(mean <= hi)):
            errors.append(f"h={h}: lower95 <= mean <= upper95 fails at {int(np.sum(~((lo <= mean) & (mean <= hi))))} anchors")
        actual = y[anchors + h]
        if h == 1:
            coverage = float(np.mean((actual >= lo) & (actual <= hi)))
            if not COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]:
                errors.append(f"1-step 95% band covers {coverage:.3f}, outside {COVERAGE_BAND}")
        rmse = float(np.sqrt(np.mean((actual - mean) ** 2)))
        naive = float(np.sqrt(np.mean(persistence_errors(y, anchors, h) ** 2)))
        if not rmse < naive:
            errors.append(f"h={h}: RMSE {rmse:.3f} not below persistence {naive:.3f}")
    return errors


def check_band(mean: np.ndarray, lower: np.ndarray, upper: np.ndarray, horizon: int) -> list[str]:
    mean, lower, upper = (np.asarray(a, dtype=float) for a in (mean, lower, upper))
    if mean.shape != (horizon,) or not np.all(np.isfinite(mean)):
        return [f"posterior forecast has shape {mean.shape}, expected ({horizon},) finite"]
    if not (np.all(lower <= mean) and np.all(mean <= upper)):
        return ["posterior forecast: lower95 <= mean <= upper95 fails"]
    return []


def _rank_normalise(chains: np.ndarray) -> np.ndarray:
    ranks = average_ranks(chains.ravel()).reshape(chains.shape)
    inv = NormalDist().inv_cdf
    size = chains.size
    return np.vectorize(inv)((ranks - 0.375) / (size + 0.25))


def _ess(chains: np.ndarray) -> float:
    """ESS of (M, N) chains, Geyer's initial monotone sequence."""
    m, n = chains.shape
    centered = chains - chains.mean(axis=1, keepdims=True)
    spectrum = np.fft.rfft(centered, n=2 * n, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), axis=1)[:, :n] / n
    within = float(np.mean(acov[:, 0] * n / (n - 1)))
    between = float(np.var(chains.mean(axis=1), ddof=1)) if m > 1 else 0.0
    var_plus = within * (n - 1) / n + between
    if var_plus <= 0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    total = 0.0
    previous = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        pair = min(pair, previous)
        total += pair
        previous = pair
    tau = max(-1.0 + 2.0 * total, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(draws: np.ndarray) -> float:
    """Rank-normalised split bulk ESS of one chain (Vehtari et al. 2021)."""
    x = np.asarray(draws, dtype=float)
    half = x.size // 2
    split = np.stack([x[:half], x[x.size - half:]])
    return _ess(_rank_normalise(split))


def min_ess_per_draw(columns: Sequence[np.ndarray]) -> float:
    """Minimum bulk ESS over non-constant scalar chains, divided by the draws."""
    values = [bulk_ess(c) / len(c) for c in columns if np.ptp(c) > 0]
    values = [v for v in values if math.isfinite(v)]
    return min(values) if values else 0.0
