"""The benchmark's own tests: its checks reject wrong outputs, the span
arithmetic holds on hand-built trees, and the speed gauge leaves out its own
probe time.

    python3 -m pytest perfbench
"""

import math
import sys
import time
import types

import numpy as np
import pytest

import checks
from run import SpeedGauge
from tracing import Span, Tracer, WrapPoint, covered, layer_self_times, self_times

HORIZONS = (1, 2, 3, 4)


def _span(span_id, parent, start, end, layer="x", op="op-0"):
    return Span(span_id, f"{layer}.f{span_id}", layer, op, parent, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0, "cli"),
        _span(1, 0, 1.0, 4.0, "evaluate"),
        _span(2, 0, 5.0, 9.0, "evaluate"),
        _span(3, 2, 6.0, 7.0, "bsts.kalman"),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert layer_self_times(spans) == {"cli": 3.0, "evaluate": 6.0, "bsts.kalman": 1.0}
    assert sum(own.values()) == spans[0].duration


def test_covered_counts_overlap_once_and_clips_to_parent():
    assert covered(0.0, 10.0, [(2.0, 5.0), (4.0, 6.0)]) == 4.0
    assert covered(0.0, 10.0, [(-1.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, []) == 0.0


def test_tracer_wraps_at_lookup_name_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(y):
        return len(y)

    def outer(y):
        return module.leaf(y) + 1

    leaf.__module__ = outer.__module__ = "glycast.fake"
    module = types.ModuleType("fake_layer")
    module.leaf, module.outer = leaf, outer
    sys.modules["fake_layer"] = module
    try:
        points = [WrapPoint("fake_layer", "outer"), WrapPoint("fake_layer", "leaf", lambda b, r: {"n": r})]
        with tracer.patched(points):
            tracer.op = "op-0"
            assert module.outer([1, 2, 3]) == 4
        assert module.leaf is leaf and module.outer is outer
    finally:
        del sys.modules["fake_layer"]
    root, child = tracer.spans
    assert (root.name, root.parent, root.layer) == ("fake.outer", None, "fake")
    assert (child.name, child.parent, child.counts) == ("fake.leaf", root.span_id, {"n": 3})
    assert root.start < child.start < child.end < root.end
    assert self_times(tracer.spans)[root.span_id] == root.duration - child.duration


def _series(seed=0, n=1344):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    signal = 150.0 + 25.0 * np.sin(2 * np.pi * t / 96.0)
    return signal, signal + rng.normal(0.0, 5.0, n)


def _model_like_forecasts(signal, anchors, sd=5.0):
    return {
        h: {
            "mean": signal[anchors + h],
            "lower95": signal[anchors + h] - 1.96 * sd,
            "upper95": signal[anchors + h] + 1.96 * sd,
        }
        for h in HORIZONS
    }


def test_forecast_check_accepts_model_like_forecast():
    signal, y = _series()
    anchors = np.arange(383, y.size - 4)
    assert checks.check_anchored_forecast(_model_like_forecasts(signal, anchors), y, anchors) == []


def test_forecast_check_rejects_persistence_forecast():
    _, y = _series()
    anchors = np.arange(383, y.size - 4)
    persistence = {
        h: {"mean": y[anchors], "lower95": y[anchors] - 15.0, "upper95": y[anchors] + 15.0}
        for h in HORIZONS
    }
    errors = checks.check_anchored_forecast(persistence, y, anchors)
    assert any("not below persistence" in e for e in errors)


def test_forecast_check_rejects_swapped_band_edges():
    signal, y = _series()
    anchors = np.arange(383, y.size - 4)
    forecasts = _model_like_forecasts(signal, anchors)
    for cell in forecasts.values():
        cell["lower95"], cell["upper95"] = cell["upper95"], cell["lower95"]
    errors = checks.check_anchored_forecast(forecasts, y, anchors)
    assert any("lower95 <= mean <= upper95" in e for e in errors)
    mean = np.array([150.0, 151.0])
    assert checks.check_band(mean, mean + 5.0, mean - 5.0, 2)
    assert checks.check_band(mean, mean - 5.0, mean + 5.0, 2) == []


def _evaluate_report(y, mae_of_h):
    n = y.size
    return [{
        "subject_id": "S000",
        "horizons": {str(h): {"n": checks.anchor_count(n, 0.8, 4), "mae": mae_of_h(h)} for h in HORIZONS},
    }]


def test_evaluate_check_rejects_persistence_mae_and_wrong_counts():
    _, y = _series(n=480)
    anchors = np.arange(383, 476)
    assert checks.anchor_count(480, 0.8, 4) == anchors.size == 93
    naive = {h: float(np.mean(np.abs(checks.persistence_errors(y, anchors, h)))) for h in HORIZONS}
    good = _evaluate_report(y, lambda h: 0.5 * naive[h])
    assert checks.check_evaluate_report(good, ["S000"], {"S000": y}, HORIZONS, 0.8) == []
    persistence = _evaluate_report(y, lambda h: naive[h])
    assert len(checks.check_evaluate_report(persistence, ["S000"], {"S000": y}, HORIZONS, 0.8)) == 4
    good[0]["horizons"]["2"]["n"] = 92
    assert checks.check_evaluate_report(good, ["S000"], {"S000": y}, HORIZONS, 0.8)
    assert checks.check_evaluate_report([], ["S000"], {"S000": y}, HORIZONS, 0.8)


def _donor_case():
    ids = ["A", "B", "C", "D", "T"]
    fpg = [100.0, 110.0, 130.0, 110.0, 999.0]
    hpp2 = [200.0, 200.0, 200.0, 200.0, 999.0]
    testers = {"T": (101.0, 200.0)}
    return ids, fpg, hpp2, testers


def test_donor_check_accepts_nearest_and_rejects_reversed_order():
    ids, fpg, hpp2, testers = _donor_case()
    assert checks.check_nearest_donors(ids, fpg, hpp2, testers, {"T": ["A", "B"]}, 2) == []
    assert checks.check_nearest_donors(ids, fpg, hpp2, testers, {"T": ["B", "A"]}, 2)
    assert checks.check_nearest_donors(ids, fpg, hpp2, testers, {"T": ["A", "C"]}, 2)


def test_donor_check_rejects_reversed_order_among_ties():
    ids, fpg, hpp2, testers = _donor_case()
    testers = {"T": (110.0, 200.0)}  # B and D tie at distance 0
    assert checks.check_nearest_donors(ids, fpg, hpp2, testers, {"T": ["B", "D"]}, 2) == []
    assert checks.check_nearest_donors(ids, fpg, hpp2, testers, {"T": ["D", "B"]}, 2)
    assert checks.check_nearest_donors(ids, fpg, hpp2, testers, {"T": ["B", "A"]}, 2)


def test_skeleton_check_counts_arcs_in_either_orientation():
    truth = [(f"n{i}", f"n{i + 1}") for i in range(10)]
    split = {**{arc: 0.6 for arc in truth}, **{(v, u): 0.4 for u, v in truth}}
    assert checks.check_skeleton(split, truth, 0.85) == []
    assert checks.check_skeleton({}, truth, 0.85)
    assert checks.check_skeleton({arc: 0.84 for arc in truth}, truth, 0.85)
    false = {(f"n{i}", "x"): 1.0 for i in range(3)}
    assert checks.check_skeleton({**split, **false}, truth, 0.85)


def test_consensus_check_rejects_empty_consensus():
    strengths = {("a", "b"): 0.95, ("b", "c"): 0.9, ("c", "a"): 0.88, ("c", "d"): 0.6, ("d", "c"): 0.4}
    consensus = [("a", "b"), ("b", "c")]  # c->a would close a cycle; c-d is split
    assert checks.check_consensus(consensus, strengths, 0.85) == []
    assert checks.check_consensus([], strengths, 0.85)
    assert checks.check_consensus([("a", "b")], strengths, 0.85)
    assert checks.check_consensus(consensus + [("c", "a")], strengths, 0.85)
    assert checks.check_consensus(consensus + [("c", "d")], strengths, 0.85)


def _marker_network():
    """hba1c -> fpg -> hpp2, plus age unrelated; cards 2, 3, 2, 2."""
    cards = {"hba1c": 2, "fpg": 3, "hpp2": 2, "age": 2}
    parents = {"hba1c": (), "fpg": ("hba1c",), "hpp2": ("fpg",), "age": ()}
    cpts = {
        "hba1c": np.array([[0.3, 0.7]]),
        "fpg": np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]),
        "hpp2": np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]),
        "age": np.array([[0.5, 0.5]]),
    }
    return cpts, parents, cards


def test_enumerated_markers_match_hand_computation_and_reject_prior():
    cpts, parents, cards = _marker_network()
    evidence = [{"hba1c": 0, "age": 1}, {"hba1c": 1, "age": 0}]
    fpg_values, hpp2_values = (100.0, 150.0, 250.0), (120.0, 300.0)
    fpg_hat, hpp2_hat = checks.enumerate_markers(cpts, parents, cards, evidence, fpg_values, hpp2_values)
    want_fpg = cpts["fpg"] @ np.array(fpg_values)
    want_hpp2 = cpts["fpg"] @ cpts["hpp2"] @ np.array(hpp2_values)
    np.testing.assert_allclose(fpg_hat, want_fpg, rtol=1e-12)
    np.testing.assert_allclose(hpp2_hat, want_hpp2, rtol=1e-12)
    assert checks.check_exact_markers((want_fpg, want_hpp2), (fpg_hat, hpp2_hat)) == []
    prior_fpg = np.full(2, (cpts["hba1c"] @ cpts["fpg"] @ np.array(fpg_values)).item())
    assert checks.check_exact_markers((prior_fpg, want_hpp2), (fpg_hat, hpp2_hat))
    assert checks.check_exact_markers((want_fpg[:1], want_hpp2), (fpg_hat, hpp2_hat))


def test_marker_check_rejects_unrelated_inference():
    rng = np.random.default_rng(1)
    measured = rng.normal(160.0, 30.0, 500)
    assert checks.check_marker_inference(np.round(measured / 20.0), measured) == []
    assert checks.check_marker_inference(rng.permutation(measured), measured)


def test_spearman_with_ties():
    assert checks.average_ranks([3.0, 1.0, 3.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]
    assert checks.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert checks.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_bulk_ess_of_iid_and_autocorrelated_chains():
    rng = np.random.default_rng(3)
    iid = rng.normal(size=2000)
    assert 0.85 < checks.bulk_ess(iid) / iid.size < 1.15
    phi = 0.9
    ar = np.empty(4000)
    ar[0] = 0.0
    for t in range(1, ar.size):
        ar[t] = phi * ar[t - 1] + rng.normal()
    expected = (1 - phi) / (1 + phi)
    assert 0.6 * expected < checks.bulk_ess(ar) / ar.size < 1.5 * expected
    assert checks.min_ess_per_draw([iid[:800], ar[:800], np.zeros(800)]) == pytest.approx(
        checks.bulk_ess(ar[:800]) / 800
    )
    assert math.isfinite(checks.min_ess_per_draw([np.zeros(10)]))


def test_speed_gauge_excludes_probe_time_and_scales():
    gauge = SpeedGauge()
    t0 = time.perf_counter()
    with gauge.timing("op-0"):
        while time.perf_counter() - t0 < 0.2:
            pass
    elapsed = time.perf_counter() - t0
    assert gauge.probes["op-0"] >= 5
    assert 0.0 < gauge.walls["op-0"] < elapsed
    assert gauge.scaled["op-0"] > 0.0
    unsampled = SpeedGauge(sample=False)
    with unsampled.timing("op-0"):
        pass
    assert "op-0" in unsampled.walls and not unsampled.scaled
