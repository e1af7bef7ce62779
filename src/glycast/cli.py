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
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

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


def _require(cfg: dict, key: str, command: str):
    if key not in cfg:
        raise ConfigError(f"{command} config requires key {key!r}")
    return cfg[key]


def _input_path(raw: str, command: str) -> Path:
    path = Path(raw)
    if not path.exists():
        raise ConfigError(f"{command}: input file not found: {path}")
    return path


def _write_manifest(
    out_dir: Path, command: str, config_path: Optional[str], seed: int,
    inputs: Sequence[str], outputs: Sequence[str], started: float
) -> None:
    manifest = {
        "command": command,
        "config": config_path,
        "inputs": sorted(str(p) for p in inputs),
        "outputs": sorted(str(p) for p in outputs),
        "seed": seed,
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
    }
    path = out_dir / "manifests.jsonl"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, sort_keys=True) + "\n")


def _load_series_map(cfg: dict, command: str) -> dict[str, GlucoseSeries]:
    series: dict[str, GlucoseSeries] = {}
    if "series_dir" in cfg:
        directory = _input_path(cfg["series_dir"], command)
        for path in sorted(directory.glob("*.csv")):
            s = load_timeseries(path)
            series[s.subject_id] = s
    for raw in cfg.get("series", []):
        s = load_timeseries(_input_path(raw, command))
        series[s.subject_id] = s
    if not series:
        raise ConfigError(f"{command}: no time series supplied (series_dir or series)")
    return series


def _cmd_synth(cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float) -> int:
    synth_cfg = synth.SynthConfig(
        n_subjects=int(cfg.get("n_subjects", 10)),
        n_days=int(cfg.get("n_days", 5)),
        seed=seed,
        day_amplitude=float(cfg.get("day_amplitude", 15.0)),
        meal_amplitude=float(cfg.get("meal_amplitude", 8.0)),
        circadian_amplitude=float(cfg.get("circadian_amplitude", 6.0)),
        noise_sd=float(cfg.get("noise_sd", 5.0)),
        latent_share=float(cfg.get("latent_share", 0.0)),
        latent_sd=float(cfg.get("latent_sd", 12.0)),
        latent_ar=float(cfg.get("latent_ar", 0.3)),
        missing_rate=float(cfg.get("missing_rate", 0.0)),
        egfr_gender_factor=bool(cfg.get("egfr_gender_factor", True)),
    )
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


def _cmd_preprocess(cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float) -> int:
    clinical_path = _input_path(_require(cfg, "clinical_csv", "preprocess"), "preprocess")
    records = load_clinical(clinical_path)
    kept, report = preprocess.exclude_incomplete(records, int(cfg.get("max_missing", 3)))
    imputed = preprocess.impute_means(kept)
    encoded = preprocess.standardize_encode(imputed, int(cfg.get("n_bins", 4)))

    inputs = [clinical_path]
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
        table = None
        if "gl_table" in cfg:
            table_path = _input_path(cfg["gl_table"], "preprocess")
            table = load_gl_table(table_path)
            inputs.append(table_path)
        regressor_dir = out_dir / "regressors"
        regressor_dir.mkdir(parents=True, exist_ok=True)
        for sid, series in _load_series_map(cfg, "preprocess").items():
            regressor = preprocess.build_meal_regressor(series, table)
            path = regressor_dir / f"{sid}.csv"
            with path.open("w", encoding="utf-8") as handle:
                handle.write("timestamp,gl\n")
                for i, value in enumerate(regressor.values):
                    handle.write(f"{series.timestamp_at(i).isoformat()},{float(value)!r}\n")
            outputs.append(path)

    _write_manifest(out_dir, "preprocess", config_path, seed, inputs, outputs, started)
    print(
        f"preprocess: kept {len(kept)} of {len(records)} records "
        f"({len(report)} excluded); encoded {len(encoded.variables)} variables"
    )
    return 0


def _tabu_params(cfg: dict) -> bayesnet.TabuParams:
    return bayesnet.TabuParams(
        tabu_len=int(cfg.get("tabu_len", 100)),
        max_iter=int(cfg.get("max_iter", 500)),
        stall_limit=int(cfg.get("stall_limit", 30)),
    )


def _cmd_learn(cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float) -> int:
    encoded_csv = _input_path(_require(cfg, "encoded_csv", "learn"), "learn")
    encoded_meta = _input_path(_require(cfg, "encoded_meta", "learn"), "learn")
    data = preprocess.DiscreteDataset.from_files(encoded_csv, encoded_meta)
    strengths, consensus = bayesnet.bootstrap_consensus(
        data,
        b=int(cfg.get("bootstrap", 100)),
        threshold=float(cfg.get("threshold", 0.85)),
        seed=seed,
        params=_tabu_params(cfg),
    )
    model = bayesnet.fit_parameters(consensus, data, alpha=float(cfg.get("alpha", 1.0)))

    types = None
    if "annotations_csv" in cfg:
        annotations = bayesnet.load_arc_annotations(_input_path(cfg["annotations_csv"], "learn"))
        model = bayesnet.annotate_model(model, {a: c for a, c in annotations.items() if a in consensus.arcs})
        types = model.annotations

    outputs = []
    network_path = out_dir / "network.json"
    bayesnet.save_network_json(network_path, consensus, strengths, types)
    outputs.append(network_path)
    cpts_path = out_dir / "cpts.json"
    cpts_path.write_text(json.dumps(bayesnet.cpts_to_json(model), indent=2, sort_keys=True), encoding="utf-8")
    outputs.append(cpts_path)

    _write_manifest(out_dir, "learn", config_path, seed, [encoded_csv, encoded_meta], outputs, started)
    print(f"learn: consensus network with {len(consensus.arcs)} arcs -> {network_path}")
    return 0


class _TwoStageModel:
    """Fitted network, evidence codecs, and the markers inferred so far (once per subject)."""

    def __init__(self, network, data_codecs):
        self.network = network
        self.data_codecs = data_codecs
        self._markers: dict[str, tuple[float, float]] = {}

    def inferred_markers(self, record) -> tuple[float, float]:
        """(FPG, 2HPP) inferred from a record's non-marker features."""
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
                evidence[name] = self.data_codecs[name].encode_value(value)
        return evidence


def _similar_design_for(
    tester_id: str,
    series_map: dict[str, GlucoseSeries],
    records_by_id: dict,
    model: _TwoStageModel,
    m: int,
    gl_table,
) -> tuple[Optional[np.ndarray], tuple[str, ...], Optional[dict]]:
    """Infer pool markers, select the m nearest, and build their design."""
    tester_record = records_by_id.get(tester_id)
    if tester_record is None or tester_record.fpg is None or tester_record.hpp2 is None:
        return None, (), None
    points = []
    for sid, record in sorted(records_by_id.items()):
        if sid == tester_id or sid not in series_map:
            continue
        points.append(similarity.MarkerPoint(sid, *model.inferred_markers(record), "inferred"))
    if len(points) < m:
        return None, (), None
    tester_point = similarity.MarkerPoint(tester_id, tester_record.fpg, tester_record.hpp2, "measured")
    selected = similarity.select_similar(points, tester_point, m)
    log = similarity.selection_log(points, tester_point, selected)
    donors = [series_map[sid] for sid in selected]
    gl_columns = {}
    for donor in donors:
        if donor.meals:
            gl_columns[donor.subject_id] = preprocess.build_meal_regressor(donor, gl_table).values
    design, names = build_similarity_design(series_map[tester_id], donors, gl_columns or None)
    return design, names, log


def _build_two_stage(cfg: dict, seed: int, command: str):
    clinical_path = _input_path(_require(cfg, "clinical_csv", command), command)
    records = load_clinical(clinical_path)
    kept, _ = preprocess.exclude_incomplete(records, int(cfg.get("max_missing", 3)))
    imputed = preprocess.impute_means(kept)
    encoded = preprocess.standardize_encode(imputed, int(cfg.get("n_bins", 4)))
    if "network_json" in cfg:
        dag, _ = bayesnet.load_network_json(_input_path(cfg["network_json"], command))
    else:
        _, dag = bayesnet.bootstrap_consensus(
            encoded,
            b=int(cfg.get("bootstrap", 100)),
            threshold=float(cfg.get("threshold", 0.85)),
            seed=seed,
            params=_tabu_params(cfg),
        )
    network = bayesnet.fit_parameters(dag, encoded, alpha=float(cfg.get("alpha", 1.0)))
    codecs = {codec.name: codec for codec in encoded.codecs}
    records_by_id = {r.subject_id: r for r in imputed}
    return _TwoStageModel(network, codecs), records_by_id, clinical_path


def _eval_config(cfg: dict, seed: int, horizons: Optional[Sequence[int]]) -> EvalConfig:
    return EvalConfig(
        split_ratio=float(cfg.get("split_ratio", 0.8)),
        window=int(cfg.get("window", 8)),
        horizons=tuple(horizons or cfg.get("horizons", [1, 2, 3, 4])),
        hypo_max=float(cfg.get("hypo_max", 70.0)),
        hyper_min=float(cfg.get("hyper_min", 180.0)),
        draws=int(cfg.get("draws", 1000)),
        burn=int(cfg.get("burn", 200)),
        seed=seed,
        m_similar=int(cfg.get("m_similar", 2)),
        forecast_thin=int(cfg.get("forecast_thin", 1)),
    )


def _cmd_forecast(
    cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float,
    horizon_minutes: Optional[int],
) -> int:
    series_path = _input_path(_require(cfg, "series_csv", "forecast"), "forecast")
    series = load_timeseries(series_path)
    horizon = HORIZON_MINUTES[horizon_minutes] if horizon_minutes else int(cfg.get("horizon_steps", 4))

    inputs = [series_path]
    regressors = None
    names: tuple[str, ...] = ()
    if cfg.get("similar_series"):
        donors = []
        for raw in cfg["similar_series"]:
            path = _input_path(raw, "forecast")
            donors.append(load_timeseries(path))
            inputs.append(path)
        gl_columns = {
            d.subject_id: preprocess.build_meal_regressor(d, None).values
            for d in donors
            if d.meals and all(m.gl is not None for m in d.meals)
        }
        regressors, names = build_similarity_design(series, donors, gl_columns or None)
        # Future regressor rows: donors are historical, so cycle them forward.
        extra_idx = (np.arange(len(series), len(series) + horizon)) % len(series)
        regressors = np.vstack([regressors, regressors[extra_idx]])

    custom = tuple(specs_from_json(cfg)) if "components" in cfg else None
    pipeline = ForecastPipeline(regressors=regressors, regressor_names=names, custom_specs=custom)
    specs = pipeline.component_specs(series, len(series))
    x_train = regressors[: len(series)] if regressors is not None else None
    model = assemble_model(specs, series.cgm, x_train)
    draws = mcmc_fit(
        model, series.cgm, x=x_train,
        draws=int(cfg.get("draws", 1000)), burn=int(cfg.get("burn", 200)), seed=seed,
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
    _write_manifest(out_dir, "forecast", config_path, seed, inputs, [forecast_path], started)
    print(f"forecast: {horizon} step(s) for {series.subject_id} -> {forecast_path}")
    return 0


def _cmd_evaluate(
    cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float,
    horizon_minutes: Optional[int], subjects_flag: Optional[list[str]],
) -> int:
    series_map = _load_series_map(cfg, "evaluate")
    horizons = [HORIZON_MINUTES[horizon_minutes]] if horizon_minutes else None
    eval_cfg = _eval_config(cfg, seed, horizons)

    gl_table = None
    if "gl_table" in cfg:
        gl_table = load_gl_table(_input_path(cfg["gl_table"], "evaluate"))

    two_stage = None
    records_by_id: dict = {}
    inputs: list[Path] = []
    if "clinical_csv" in cfg:
        two_stage, records_by_id, clinical_path = _build_two_stage(cfg, seed, "evaluate")
        inputs.append(clinical_path)

    custom = tuple(specs_from_json(cfg)) if "components" in cfg else None
    testers = subjects_flag or cfg.get("subjects") or sorted(series_map)
    reports = []
    selections = {}
    for tester_id in testers:
        if tester_id not in series_map:
            raise ConfigError(f"evaluate: no series for subject {tester_id}")
        regressors, names, selection = (None, (), None)
        if two_stage is not None:
            regressors, names, selection = _similar_design_for(
                tester_id, series_map, records_by_id, two_stage, eval_cfg.m_similar, gl_table
            )
        pipeline = ForecastPipeline(regressors=regressors, regressor_names=names, custom_specs=custom)
        report = sliding_window_eval(pipeline, series_map[tester_id], eval_cfg)
        reports.append(report)
        if selection is not None:
            selections[tester_id] = selection
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

    _write_manifest(out_dir, "evaluate", config_path, seed, inputs, outputs, started)
    print(f"evaluate: {len(reports)} subject report(s) -> {metrics_path}")
    return 0


def _cmd_ablate(
    cfg: dict, out_dir: Path, seed: int, config_path: Optional[str], started: float,
    subjects_flag: Optional[list[str]],
) -> int:
    series_map = _load_series_map(cfg, "ablate")
    eval_cfg = _eval_config(cfg, seed, None)
    removals = cfg.get("removals", list(ABLATION_NAMES))
    testers = subjects_flag or cfg.get("subjects") or sorted(series_map)

    subjects = []
    for tester_id in testers:
        if tester_id not in series_map:
            raise ConfigError(f"ablate: no series for subject {tester_id}")
        tester = series_map[tester_id]
        donors = [s for sid, s in sorted(series_map.items()) if sid != tester_id]
        donors = donors[: eval_cfg.m_similar]
        regressors, names = (None, ())
        if donors:
            regressors, names = build_similarity_design(tester, donors)
        subjects.append(EvalSubject(series=tester, regressors=regressors, regressor_names=names))

    table = run_ablation(eval_cfg, removals, subjects, seed=seed)
    outputs = []
    json_path = out_dir / "ablation.json"
    json_path.write_text(json.dumps(table.to_json(), indent=2, sort_keys=True), encoding="utf-8")
    outputs.append(json_path)
    text_path = out_dir / "ablation.txt"
    text_path.write_text(table.render_text() + "\n", encoding="utf-8")
    outputs.append(text_path)

    print(table.render_text())
    _write_manifest(out_dir, "ablate", config_path, seed, [], outputs, started)
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
