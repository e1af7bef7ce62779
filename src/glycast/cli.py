"""Command-line pipeline orchestrator.

One JSON config per command with a shared {seed, out_dir} preamble; a few
flags override config keys. Every run appends one manifest line to
<out_dir>/manifests.jsonl. Exit status is 0 only when all declared outputs
were written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, bayesnet, preprocess, similarity, synth
from .bsts import assemble_model, mcmc_fit, posterior_forecast, specs_from_json
from .dataset import (
    GlucoseSeries,
    load_clinical,
    load_gl_table,
    load_timeseries,
    write_clinical,
    write_gl_table,
    write_timeseries,
)
from .errors import ConfigError, GlycastError
from .evaluate import (
    ABLATION_NAMES,
    EvalConfig,
    EvalSubject,
    ForecastPipeline,
    build_similarity_design,
    run_ablation,
    render_metrics_text,
    sliding_window_eval,
    write_confusion_csv,
    write_metrics_json,
)

COMMANDS = ("preprocess", "learn", "forecast", "evaluate", "ablate", "synth")
HORIZON_MINUTES = {15: 1, 30: 2, 45: 3, 60: 4}

# Config keys that map one-to-one onto a settings dataclass, with their types;
# the dataclass holds each default.
SYNTH_KEYS = {
    "n_subjects": int, "n_days": int, "day_amplitude": float, "meal_amplitude": float,
    "circadian_amplitude": float, "noise_sd": float, "latent_share": float, "latent_sd": float,
    "latent_ar": float, "missing_rate": float, "egfr_gender_factor": bool,
}
TABU_KEYS = {"tabu_len": int, "max_iter": int, "stall_limit": int}
EVAL_KEYS = {
    "split_ratio": float, "horizons": tuple, "hypo_max": float, "hyper_min": float,
    "draws": int, "burn": int, "m_similar": int, "forecast_thin": int,
}


def _settings(cfg: dict, keys: dict) -> dict:
    """The `keys` that `cfg` sets, each converted to its type."""
    return {key: cast(cfg[key]) for key, cast in keys.items() if key in cfg}


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config {p} must be a JSON object")
    return payload


class _Inputs:
    """The input files a command reads: each checked to exist and kept for the manifest."""

    def __init__(self, command: str):
        self.command = command
        self.paths: list[Path] = []

    def path(self, raw, record: bool = True) -> Path:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"{self.command}: input file not found: {path}")
        if record:
            self.paths.append(path)
        return path

    def required(self, cfg: dict, key: str) -> Path:
        if key not in cfg:
            raise ConfigError(f"{self.command} config requires key {key!r}")
        return self.path(cfg[key])

    def gl_table(self, cfg: dict):
        return load_gl_table(self.path(cfg["gl_table"])) if "gl_table" in cfg else None

    def series_map(self, cfg: dict) -> dict[str, GlucoseSeries]:
        series: dict[str, GlucoseSeries] = {}
        paths = []
        if "series_dir" in cfg:
            paths.extend(sorted(self.path(cfg["series_dir"], record=False).glob("*.csv")))
        paths.extend(cfg.get("series", []))
        for raw in paths:
            s = load_timeseries(self.path(raw))
            series[s.subject_id] = s
        if not series:
            raise ConfigError(f"{self.command}: no time series supplied (series_dir or series)")
        return series


def _write_manifest(
    out_dir: Path, command: str, config_path: Optional[str], seed: int,
    inputs: Sequence[Path], outputs: Sequence[Path], started: float
) -> None:
    manifest = {
        "command": command,
        "config": config_path,
        "inputs": sorted({str(p) for p in inputs}),
        "outputs": sorted(str(p) for p in outputs),
        "seed": seed,
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
    }
    path = out_dir / "manifests.jsonl"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, sort_keys=True) + "\n")


def _cmd_synth(cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float) -> int:
    synth_cfg = synth.SynthConfig(seed=seed, **_settings(cfg, SYNTH_KEYS))
    records, truth = synth.gen_clinical(synth_cfg)
    series, _ = synth.gen_cgm_series(synth_cfg)

    outputs = []
    clinical_path = out_dir / "clinical.csv"
    write_clinical(clinical_path, records)
    outputs.append(clinical_path)

    table = synth.default_gl_table()
    gl_path = out_dir / "gl_table.csv"
    write_gl_table(gl_path, table)
    outputs.append(gl_path)

    series_dir = out_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    for s in series:
        path = series_dir / f"{s.subject_id}.csv"
        write_timeseries(path, s)
        outputs.append(path)

    truth_path = out_dir / "truth.json"
    truth_path.write_text(
        json.dumps(bayesnet.network_to_json(truth), indent=2, sort_keys=True), encoding="utf-8"
    )
    outputs.append(truth_path)

    _write_manifest(out_dir, "synth", config_path, seed, [], outputs, started)
    print(f"synth: wrote {len(series)} series and {len(records)} clinical rows to {out_dir}")
    return 0


# Stage 1: clinical records -> exclude -> impute -> encode -> consensus DAG -> CPTs.
# `preprocess` and `learn` run its steps one command each; `evaluate` and
# `ablate` run them all through `_stage1`.


def _encode(cfg: dict, records):
    """Exclude, impute and encode clinical records: (exclusion report, imputed, encoded)."""
    kept, report = preprocess.exclude_incomplete(records, **_settings(cfg, {"max_missing": int}))
    imputed = preprocess.impute_means(kept)
    return report, imputed, preprocess.standardize_encode(imputed, **_settings(cfg, {"n_bins": int}))


def _learn_network(cfg: dict, encoded, seed: int, dag=None):
    """Bootstrap consensus (unless a DAG is given) and its CPTs: (strengths, dag, network)."""
    strengths = None
    if dag is None:
        consensus = _settings(cfg, {"bootstrap": int, "threshold": float})
        if "bootstrap" in consensus:
            consensus["b"] = consensus.pop("bootstrap")
        params = bayesnet.TabuParams(**_settings(cfg, TABU_KEYS))
        strengths, dag = bayesnet.bootstrap_consensus(encoded, seed=seed, params=params, **consensus)
    return strengths, dag, bayesnet.fit_parameters(dag, encoded, **_settings(cfg, {"alpha": float}))


class _Stage1:
    """Fitted network, evidence codecs, imputed records, exclusions, and the markers inferred so far."""

    def __init__(self, network, codecs, records_by_id, excluded: dict[str, str]):
        self.network = network
        self.codecs = codecs
        self.records_by_id = records_by_id
        self.excluded = excluded
        self._markers: dict[str, tuple[float, float]] = {}

    def inferred_markers(self, record) -> tuple[float, float]:
        """(FPG, 2HPP) inferred from a record's non-marker features, once per subject."""
        if record.subject_id not in self._markers:
            _, _, fpg_hat, hpp2_hat = bayesnet.infer_markers(self.network, self.evidence_for(record))
            self._markers[record.subject_id] = (fpg_hat, hpp2_hat)
        return self._markers[record.subject_id]

    def evidence_for(self, record) -> dict[str, int]:
        """Encode a complete record's features (markers excluded) as classes."""
        evidence: dict[str, int] = {}
        for name in preprocess.ENCODED_FEATURES:
            if name in ("fpg", "hpp2"):
                continue
            value = getattr(record, name)
            if name == "gender":
                evidence[name] = preprocess.GENDER_LEVELS.index(value)
            else:
                evidence[name] = self.codecs[name].encode_value(value)
        return evidence

    def select_donors(self, tester_id: str, candidates, m: int) -> tuple[list[str], Optional[dict]]:
        """The m candidates whose inferred markers sit nearest the tester's measured ones.

        A tester that Stage 1 excluded (for example, no measured FPG), that
        has no clinical record, or whose pool holds fewer than m candidates
        with records gets no donors and the log entry
        {"selected": [], "excluded": reason}.
        """
        tester = self.records_by_id.get(tester_id)
        if tester is None:
            return [], {"selected": [], "excluded": self.excluded.get(tester_id, "no clinical record")}
        points = [
            similarity.MarkerPoint(sid, *self.inferred_markers(record), "inferred")
            for sid, record in sorted(self.records_by_id.items())
            if sid != tester_id and sid in candidates
        ]
        if len(points) < m:
            return [], {"selected": [], "excluded": f"{len(points)} candidates, fewer than m_similar={m}"}
        tester_point = similarity.MarkerPoint(tester_id, tester.fpg, tester.hpp2, "measured")
        selected = similarity.select_similar(points, tester_point, m)
        return selected, similarity.selection_log(points, tester_point, selected)


def _stage1(cfg: dict, seed: int, inputs: _Inputs) -> _Stage1:
    """Run Stage 1 on `clinical_csv`; `network_json`, when given, replaces the bootstrap."""
    records = load_clinical(inputs.required(cfg, "clinical_csv"))
    report, imputed, encoded = _encode(cfg, records)
    dag = None
    if "network_json" in cfg:
        dag, _ = bayesnet.load_network_json(inputs.path(cfg["network_json"]))
    _, _, network = _learn_network(cfg, encoded, seed, dag)
    codecs = {codec.name: codec for codec in encoded.codecs}
    excluded = {entry["subject_id"]: entry["reason"] for entry in report}
    return _Stage1(network, codecs, {r.subject_id: r for r in imputed}, excluded)


def _design(tester: GlucoseSeries, donors: Sequence[GlucoseSeries], gl_table, n_rows: Optional[int] = None):
    """Donors' CGM and glycemic-load columns on the tester's grid; raw meal items need `gl_table`."""
    gl_columns = {d.subject_id: preprocess.build_meal_regressor(d, gl_table).values for d in donors if d.meals}
    return build_similarity_design(tester, donors, gl_columns or None, n_rows)


def _tester_designs(cfg: dict, seed: int, inputs: _Inputs, subjects_flag, m: int):
    """Each tester with its Stage-1 donors' design: yields (EvalSubject, selection log).

    Without `clinical_csv` no donors are selected and testers carry no design.
    """
    series_map = inputs.series_map(cfg)
    gl_table = inputs.gl_table(cfg)
    stage1 = _stage1(cfg, seed, inputs) if "clinical_csv" in cfg else None
    for tester_id in subjects_flag or cfg.get("subjects") or sorted(series_map):
        if tester_id not in series_map:
            raise ConfigError(f"{inputs.command}: no series for subject {tester_id}")
        tester = series_map[tester_id]
        donors, selection = stage1.select_donors(tester_id, series_map, m) if stage1 else ([], None)
        regressors, names = (None, ())
        if donors:
            regressors, names = _design(tester, [series_map[sid] for sid in donors], gl_table)
        yield EvalSubject(series=tester, regressors=regressors, regressor_names=names), selection


def _cmd_preprocess(cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float) -> int:
    inputs = _Inputs("preprocess")
    records = load_clinical(inputs.required(cfg, "clinical_csv"))
    report, imputed, encoded = _encode(cfg, records)

    outputs = []
    cleaned_path = out_dir / "clinical_clean.csv"
    write_clinical(cleaned_path, imputed)
    outputs.append(cleaned_path)
    exclusions_path = out_dir / "exclusions.jsonl"
    preprocess.write_exclusion_report(exclusions_path, report)
    outputs.append(exclusions_path)
    encoded_csv = out_dir / "encoded.csv"
    encoded_meta = out_dir / "encoded_meta.json"
    encoded.to_files(encoded_csv, encoded_meta)
    outputs.extend([encoded_csv, encoded_meta])

    if "series_dir" in cfg or cfg.get("series"):
        table = inputs.gl_table(cfg)
        regressor_dir = out_dir / "regressors"
        regressor_dir.mkdir(parents=True, exist_ok=True)
        for sid, series in inputs.series_map(cfg).items():
            regressor = preprocess.build_meal_regressor(series, table)
            path = regressor_dir / f"{sid}.csv"
            with path.open("w", encoding="utf-8") as handle:
                handle.write("timestamp,gl\n")
                for i, value in enumerate(regressor.values):
                    handle.write(f"{series.timestamp_at(i).isoformat()},{float(value)!r}\n")
            outputs.append(path)

    _write_manifest(out_dir, "preprocess", config_path, seed, inputs.paths, outputs, started)
    print(
        f"preprocess: kept {len(imputed)} of {len(records)} records "
        f"({len(report)} excluded); encoded {len(encoded.variables)} variables"
    )
    return 0


def _cmd_learn(cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float) -> int:
    inputs = _Inputs("learn")
    data = preprocess.DiscreteDataset.from_files(
        inputs.required(cfg, "encoded_csv"), inputs.required(cfg, "encoded_meta")
    )
    strengths, consensus, model = _learn_network(cfg, data, seed)

    types = None
    if "annotations_csv" in cfg:
        annotations = bayesnet.load_arc_annotations(inputs.path(cfg["annotations_csv"]))
        model = replace(model, annotations={a: c for a, c in annotations.items() if a in consensus.arcs})
        types = model.annotations

    outputs = []
    network_path = out_dir / "network.json"
    bayesnet.save_network_json(network_path, consensus, strengths, types)
    outputs.append(network_path)
    cpts_path = out_dir / "cpts.json"
    cpts_path.write_text(json.dumps(bayesnet.cpts_to_json(model), indent=2, sort_keys=True), encoding="utf-8")
    outputs.append(cpts_path)

    _write_manifest(out_dir, "learn", config_path, seed, inputs.paths, outputs, started)
    print(f"learn: consensus network with {len(consensus.arcs)} arcs -> {network_path}")
    return 0


def _eval_config(cfg: dict, seed: int, horizons: Optional[Sequence[int]]) -> EvalConfig:
    settings = _settings(cfg, EVAL_KEYS)
    if horizons:
        settings["horizons"] = tuple(horizons)
    return EvalConfig(seed=seed, **settings)


def _cmd_forecast(
    cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float,
    horizon_minutes: Optional[int],
) -> int:
    inputs = _Inputs("forecast")
    series = load_timeseries(inputs.required(cfg, "series_csv"))
    horizon = HORIZON_MINUTES[horizon_minutes] if horizon_minutes else int(cfg.get("horizon_steps", 4))

    regressors = None
    names: tuple[str, ...] = ()
    if cfg.get("similar_series"):
        donors = [load_timeseries(inputs.path(raw)) for raw in cfg["similar_series"]]
        # Rows n..n+h-1 are the future rows, read from the donors at the forecast times of day.
        regressors, names = _design(series, donors, inputs.gl_table(cfg), len(series) + horizon)

    custom = tuple(specs_from_json(cfg)) if "components" in cfg else None
    pipeline = ForecastPipeline(regressors=regressors, regressor_names=names, custom_specs=custom)
    specs = pipeline.component_specs(series, len(series))
    x_train = regressors[: len(series)] if regressors is not None else None
    model = assemble_model(specs, series.cgm, x_train)
    draws = mcmc_fit(
        model, series.cgm, x=x_train,
        draws=int(cfg.get("draws", EvalConfig.draws)), burn=int(cfg.get("burn", EvalConfig.burn)), seed=seed,
    )
    x_future = regressors[len(series) : len(series) + horizon] if regressors is not None else None
    result = posterior_forecast(
        draws, model, horizon, x_future, sample=not cfg.get("deterministic", False)
    )

    forecast_path = out_dir / f"forecast_{series.subject_id}.csv"
    with forecast_path.open("w", encoding="utf-8") as handle:
        handle.write("timestamp,point,lower95,upper95\n")
        for j in range(horizon):
            ts = series.timestamp_at(len(series) + j)
            handle.write(
                f"{ts.isoformat()},{float(result.mean[j])!r},"
                f"{float(result.lower95[j])!r},{float(result.upper95[j])!r}\n"
            )
    _write_manifest(out_dir, "forecast", config_path, seed, inputs.paths, [forecast_path], started)
    print(f"forecast: {horizon} step(s) for {series.subject_id} -> {forecast_path}")
    return 0


def _cmd_evaluate(
    cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float,
    horizon_minutes: Optional[int], subjects_flag: Optional[list[str]],
) -> int:
    horizons = [HORIZON_MINUTES[horizon_minutes]] if horizon_minutes else None
    eval_cfg = _eval_config(cfg, seed, horizons)
    custom = tuple(specs_from_json(cfg)) if "components" in cfg else None
    inputs = _Inputs("evaluate")
    reports = []
    selections = {}
    for subject, selection in _tester_designs(cfg, seed, inputs, subjects_flag, eval_cfg.m_similar):
        pipeline = ForecastPipeline(
            regressors=subject.regressors, regressor_names=subject.regressor_names, custom_specs=custom
        )
        report = sliding_window_eval(pipeline, subject.series, eval_cfg)
        reports.append(report)
        if selection is not None:
            selections[report.subject_id] = selection
        print(render_metrics_text(report))
        print()

    outputs = []
    metrics_path = out_dir / "metrics.json"
    write_metrics_json(metrics_path, reports)
    outputs.append(metrics_path)
    for report in reports:
        path = out_dir / f"confusion_{report.subject_id}.csv"
        write_confusion_csv(path, report)
        outputs.append(path)
    if selections:
        sel_path = out_dir / "selections.json"
        sel_path.write_text(json.dumps(selections, indent=2, sort_keys=True), encoding="utf-8")
        outputs.append(sel_path)

    _write_manifest(out_dir, "evaluate", config_path, seed, inputs.paths, outputs, started)
    print(f"evaluate: {len(reports)} subject report(s) -> {metrics_path}")
    return 0


def _cmd_ablate(
    cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float,
    subjects_flag: Optional[list[str]],
) -> int:
    eval_cfg = _eval_config(cfg, seed, None)
    removals = cfg.get("removals", list(ABLATION_NAMES))
    if "similar_subjects" in removals and "clinical_csv" not in cfg:
        raise ConfigError(
            "ablate: removal 'similar_subjects' needs clinical_csv to select donors; "
            "without them the row equals the baseline"
        )
    inputs = _Inputs("ablate")
    subjects = []
    for subject, selection in _tester_designs(cfg, seed, inputs, subjects_flag, eval_cfg.m_similar):
        if selection is not None and "excluded" in selection and "similar_subjects" in removals:
            raise ConfigError(
                f"ablate: Stage 1 excluded tester {subject.series.subject_id} ({selection['excluded']}), "
                "so it has no donors and its 'similar_subjects' row would equal the baseline"
            )
        subjects.append(subject)
    table = run_ablation(eval_cfg, removals, subjects, seed=seed)
    outputs = []
    json_path = out_dir / "ablation.json"
    json_path.write_text(json.dumps(table.to_json(), indent=2, sort_keys=True), encoding="utf-8")
    outputs.append(json_path)
    text_path = out_dir / "ablation.txt"
    text_path.write_text(table.render_text() + "\n", encoding="utf-8")
    outputs.append(text_path)

    print(table.render_text())
    _write_manifest(out_dir, "ablate", config_path, seed, inputs.paths, outputs, started)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="glycast", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", type=str, default=None, help="override output directory")
    parser.add_argument(
        "--horizon", type=int, choices=sorted(HORIZON_MINUTES), default=None,
        help="prediction horizon in minutes (forecast/evaluate)",
    )
    parser.add_argument("--subjects", type=str, default=None, help="comma-separated subject ids")
    args = parser.parse_args(argv)

    started = time.time()
    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out_dir = Path(args.out or cfg.get("out_dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        subjects_flag = args.subjects.split(",") if args.subjects else None

        if args.command == "synth":
            return _cmd_synth(cfg, out_dir, seed, args.config, started)
        if args.command == "preprocess":
            return _cmd_preprocess(cfg, out_dir, seed, args.config, started)
        if args.command == "learn":
            return _cmd_learn(cfg, out_dir, seed, args.config, started)
        if args.command == "forecast":
            return _cmd_forecast(cfg, out_dir, seed, args.config, started, args.horizon)
        if args.command == "evaluate":
            return _cmd_evaluate(cfg, out_dir, seed, args.config, started, args.horizon, subjects_flag)
        if args.command == "ablate":
            return _cmd_ablate(cfg, out_dir, seed, args.config, started, subjects_flag)
        raise ConfigError(f"unknown command {args.command}")
    except GlycastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
