"""Where the traced run wraps glycast, and the per-layer metrics it derives.

Layers are glycast's modules. A span is named `<layer>.<function>`, where the
layer is the module that defines the function, whatever name it is looked up
by. Everything runs in one thread, so a layer only works or calls a child:
the metrics are work done (counts) and busy time, never wait time.

Times are averaged over every traced call, set-up included, so the set-up fit
of anchored-forecast-14d gives the Kalman and Gibbs figures there. Counts are
per timed operation. A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import checks
from tracing import Span, WrapPoint, layer_self_times, self_times


def _steps(bound, result) -> dict:
    return {"state_steps": len(bound.arguments["y"])}


def _draws(bound, result) -> dict:
    return {"draws": int(bound.arguments["draws"])}


def _anchor_work(bound, result) -> dict:
    anchors = bound.arguments["anchors"]
    kept = math.ceil(bound.arguments["draws"].n_draws / bound.arguments["thin"])
    return {"anchors": len(anchors), "draw_steps": kept * (int(max(anchors)) + 1)}


WRAP_POINTS = (
    WrapPoint("glycast.cli", "main"),
    WrapPoint("glycast.cli", "load_timeseries"),
    WrapPoint("glycast.cli", "load_clinical"),
    WrapPoint("glycast.cli", "load_gl_table"),
    WrapPoint("glycast.cli", "sliding_window_eval"),
    WrapPoint("glycast.cli", "build_similarity_design"),
    WrapPoint("glycast.cli", "write_metrics_json"),
    WrapPoint("glycast.cli", "write_confusion_csv"),
    WrapPoint("glycast.preprocess", "exclude_incomplete"),
    WrapPoint("glycast.preprocess", "impute_means"),
    WrapPoint("glycast.preprocess", "standardize_encode"),
    WrapPoint("glycast.preprocess", "build_meal_regressor"),
    WrapPoint("glycast.bayesnet", "bootstrap_consensus"),
    WrapPoint("glycast.bayesnet", "tabu_search"),
    WrapPoint("glycast.bayesnet", "fit_parameters"),
    WrapPoint("glycast.bayesnet", "infer_markers"),
    WrapPoint("glycast.similarity", "select_similar"),
    WrapPoint("glycast.evaluate", "build_similarity_design"),
    WrapPoint("glycast.evaluate", "assemble_model"),
    WrapPoint("glycast.evaluate", "mcmc_fit", _draws, keep=True),
    WrapPoint("glycast.evaluate", "forecast_anchors", _anchor_work),
    WrapPoint("glycast.bsts.components", "assemble_model"),
    WrapPoint("glycast.bsts.sampler", "mcmc_fit", _draws, keep=True),
    WrapPoint("glycast.bsts.sampler", "forecast_anchors", _anchor_work),
    WrapPoint("glycast.bsts.sampler", "posterior_forecast"),
    WrapPoint("glycast.bsts.sampler", "ffbs_sample", _steps),
    WrapPoint("glycast.bsts.sampler", "sample_regression"),
    WrapPoint("glycast.bsts.kalman", "kalman_loglik"),
)

PREPROCESS_CLINICAL = ("preprocess.exclude_incomplete", "preprocess.impute_means", "preprocess.standardize_encode")

# name -> (unit, better); the order BENCHMARK.json lists them in.
PER_LAYER = {
    "bsts.kalman.ffbs_ms": ("ms", "lower"),
    "bsts.kalman.filter_ms": ("ms", "lower"),
    "bsts.kalman.backward_ms": ("ms", "lower"),
    "bsts.kalman.us_per_state_step": ("us", "lower"),
    "bsts.kalman.state_steps": ("count", "lower"),
    "bsts.spike_slab.sweep_ms": ("ms", "lower"),
    "bsts.spike_slab.sweeps": ("count", "lower"),
    "bsts.sampler.gibbs_draw_ms": ("ms", "lower"),
    "bsts.sampler.self_ms_per_draw": ("ms", "lower"),
    "bsts.sampler.min_ess_per_draw": ("ratio", "higher"),
    "bsts.sampler.forecast_anchors_s": ("s", "lower"),
    "bsts.sampler.us_per_draw_step": ("us", "lower"),
    "bsts.sampler.anchors": ("count", "higher"),
    "bsts.sampler.posterior_forecast_ms": ("ms", "lower"),
    "bsts.components.assemble_ms": ("ms", "lower"),
    "evaluate.sliding_window_eval_s": ("s", "lower"),
    "evaluate.self_ms": ("ms", "lower"),
    "bayesnet.bootstrap_s": ("s", "lower"),
    "bayesnet.tabu_search_ms": ("ms", "lower"),
    "bayesnet.tabu_searches": ("count", "lower"),
    "bayesnet.fit_parameters_ms": ("ms", "lower"),
    "bayesnet.infer_markers_ms": ("ms", "lower"),
    "bayesnet.marker_inferences": ("count", "lower"),
    "similarity.select_ms": ("ms", "lower"),
    "dataset.load_s": ("s", "lower"),
    "dataset.files_loaded": ("count", "lower"),
    "preprocess.encode_s": ("s", "lower"),
    "preprocess.meal_regressor_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
}


class _Spans:
    """Span totals by name, over all spans and per timed operation."""

    def __init__(self, spans: Sequence[Span], ops: Sequence[str]):
        self.spans = spans
        self.ops = list(ops)
        self.own = self_times(spans)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def mean_s(self, name: str) -> float:
        found = self.named(name)
        return sum(s.duration for s in found) / len(found) if found else 0.0

    def mean_self_s(self, name: str) -> float:
        found = self.named(name)
        return sum(self.own[s.span_id] for s in found) / len(found) if found else 0.0

    def ratio(self, name: str, counter: str, use_self: bool = False) -> float:
        """Time of the named spans per unit of one of their counters."""
        found = self.named(name)
        units = sum(s.counts.get(counter, 0) for s in found)
        time = sum(self.own[s.span_id] if use_self else s.duration for s in found)
        return time / units if units else 0.0

    def per_op(self, value) -> float:
        """Median over timed operations of value(spans of that operation)."""
        if not self.ops:
            return 0.0
        return statistics.median(value([s for s in self.spans if s.op == op]) for op in self.ops)

    def op_count(self, name: str, counter: str | None = None) -> float:
        return self.per_op(lambda spans: sum(
            (s.counts.get(counter, 0) if counter else 1) for s in spans if s.name == name
        ))

    def op_self(self, layer: str) -> float:
        return self.per_op(lambda spans: sum(self.own[s.span_id] for s in spans if s.layer == layer))

    def op_duration(self, names: Sequence[str], layer: str | None = None) -> float:
        return self.per_op(lambda spans: sum(
            s.duration for s in spans if s.name in names or s.layer == layer
        ))


def _min_ess(fits: list) -> float:
    values = []
    for d in fits:
        columns = [d.sigma_level, d.sigma_slope, d.sigma_obs, d.d, d.phi]
        columns += list(d.sigma_seasonal.T) + list(d.beta.T)
        values.append(checks.min_ess_per_draw(columns))
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: Sequence[Span], ops: Sequence[str], kept: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run, in its unit."""
    t = _Spans(spans, ops)
    fits = kept.get("bsts.sampler.mcmc_fit", [])
    values = {
        "bsts.kalman.ffbs_ms": 1e3 * t.mean_s("bsts.kalman.ffbs_sample"),
        "bsts.kalman.filter_ms": 1e3 * t.mean_s("bsts.kalman.kalman_loglik"),
        "bsts.kalman.backward_ms": 1e3 * t.mean_self_s("bsts.kalman.ffbs_sample"),
        "bsts.kalman.us_per_state_step": 1e6 * t.ratio("bsts.kalman.ffbs_sample", "state_steps"),
        "bsts.kalman.state_steps": t.op_count("bsts.kalman.ffbs_sample", "state_steps"),
        "bsts.spike_slab.sweep_ms": 1e3 * t.mean_s("bsts.spike_slab.sample_regression"),
        "bsts.spike_slab.sweeps": t.op_count("bsts.spike_slab.sample_regression"),
        "bsts.sampler.gibbs_draw_ms": 1e3 * t.ratio("bsts.sampler.mcmc_fit", "draws"),
        "bsts.sampler.self_ms_per_draw": 1e3 * t.ratio("bsts.sampler.mcmc_fit", "draws", use_self=True),
        "bsts.sampler.min_ess_per_draw": _min_ess(fits),
        "bsts.sampler.forecast_anchors_s": t.mean_s("bsts.sampler.forecast_anchors"),
        "bsts.sampler.us_per_draw_step": 1e6 * t.ratio("bsts.sampler.forecast_anchors", "draw_steps"),
        "bsts.sampler.anchors": t.op_count("bsts.sampler.forecast_anchors", "anchors"),
        "bsts.sampler.posterior_forecast_ms": 1e3 * t.mean_s("bsts.sampler.posterior_forecast"),
        "bsts.components.assemble_ms": 1e3 * t.mean_s("bsts.components.assemble_model"),
        "evaluate.sliding_window_eval_s": t.mean_s("evaluate.sliding_window_eval"),
        "evaluate.self_ms": 1e3 * t.op_self("evaluate"),
        "bayesnet.bootstrap_s": t.mean_s("bayesnet.bootstrap_consensus"),
        "bayesnet.tabu_search_ms": 1e3 * t.mean_s("bayesnet.tabu_search"),
        "bayesnet.tabu_searches": t.op_count("bayesnet.tabu_search"),
        "bayesnet.fit_parameters_ms": 1e3 * t.mean_s("bayesnet.fit_parameters"),
        "bayesnet.infer_markers_ms": 1e3 * t.mean_s("bayesnet.infer_markers"),
        "bayesnet.marker_inferences": t.op_count("bayesnet.infer_markers"),
        "similarity.select_ms": 1e3 * t.mean_s("similarity.select_similar"),
        "dataset.load_s": t.op_duration((), layer="dataset"),
        "dataset.files_loaded": t.per_op(lambda spans: sum(1 for s in spans if s.layer == "dataset")),
        "preprocess.encode_s": t.op_duration(PREPROCESS_CLINICAL),
        "preprocess.meal_regressor_ms": 1e3 * t.mean_s("preprocess.build_meal_regressor"),
        "cli.self_s": t.op_self("cli"),
    }
    return {name: values[name] for name in PER_LAYER}


def trace_coverage(spans: Sequence[Span], walls: dict[str, float]) -> dict[str, float]:
    """Per operation, the share of its wall time that glycast layers' self times cover."""
    coverage = {}
    for op, wall in walls.items():
        own = layer_self_times([s for s in spans if s.op == op])
        coverage[op] = sum(t for layer, t in own.items() if layer != "bench") / wall
    return coverage
