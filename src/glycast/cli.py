"""Command-line pipeline orchestrator.

One JSON config per command with a shared {seed, out_dir} preamble. The flags
fold into config keys before the command runs: `--horizon` (minutes) into
`horizon_steps` and `horizons`, `--subjects` into `subjects`. Each command is
a function `(cfg, seed, run)`; `run` checks and records every file it reads
and places and records every file it writes. After a command succeeds, one
manifest line listing those files is appended to <out_dir>/manifests.jsonl.
Exit status is 0 only when all declared outputs were written.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__, bayesnet, preprocess, similarity, synth
from .bsts import posterior_forecast, specs_from_json
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

HORIZON_MINUTES = {15: 1, 30: 2, 45: 3, 60: 4}


_integer = operator.index  # an integer as it is: `int(20.7)` would truncate


def _steps(value) -> tuple:
    """A JSON list of integer steps."""
    if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise TypeError
    return tuple(value)


def _strings(value) -> list:
    """A JSON list of strings: a lone string would be read character by character."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError
    return value


_EXPECTED = {_integer: "an integer", float: "a number", bool: "true or false",
             _steps: "a list of integer steps", _strings: "a list of strings"}

# Config keys that map one-to-one onto a settings dataclass, with their types;
# the dataclass holds each default.
SYNTH_KEYS = {
    "n_subjects": _integer, "n_days": _integer, "day_amplitude": float, "meal_amplitude": float,
    "circadian_amplitude": float, "noise_sd": float, "latent_share": float, "latent_sd": float,
    "latent_ar": float, "missing_rate": float, "egfr_gender_factor": bool,
}
TABU_KEYS = {"tabu_len": _integer, "max_iter": _integer, "stall_limit": _integer}
EVAL_KEYS = {
    "split_ratio": float, "horizons": _steps, "hypo_max": float, "hyper_min": float,
    "draws": _integer, "burn": _integer, "m_similar": _integer, "forecast_thin": _integer,
}


def _settings(cfg: dict, keys: dict) -> dict:
    """The `keys` that `cfg` sets, each converted to its type; ConfigError naming a key whose value is not one."""
    settings = {}
    for key, cast in keys.items():
        if key in cfg:
            try:
                # true and false only for a boolean key: True is an int to Python, and bool("false") True.
                if isinstance(cfg[key], bool) != (cast is bool):
                    raise TypeError
                settings[key] = cast(cfg[key])
            except (TypeError, ValueError, OverflowError):  # float() of a huge JSON integer overflows
                raise ConfigError(f"config key {key!r} must be {_EXPECTED[cast]}, got {cfg[key]!r}") from None
    return settings


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


class _Run:
    """One command's run: the files it reads, each checked to exist, and the files it writes."""

    def __init__(self, command: str, out_dir: Path):
        self.command = command
        self.out_dir = out_dir
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def path(self, raw, record: bool = True) -> Path:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"{self.command}: input file not found: {path}")
        if record:
            self.inputs.append(path)
        return path

    def output(self, name: str) -> Path:
        """`out_dir / name`, with its directory made, recorded as an output."""
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(path)
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


def _write_manifest(run: _Run, config_path: Optional[str], seed: int, started: float) -> None:
    manifest = {
        "command": run.command,
        "config": config_path,
        "inputs": sorted({str(p) for p in run.inputs}),
        "outputs": sorted(str(p) for p in run.outputs),
        "seed": seed,
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
    }
    with (run.out_dir / "manifests.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, sort_keys=True) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _cmd_synth(cfg: dict, seed: int, run: _Run) -> None:
    synth_cfg = synth.SynthConfig(seed=seed, **_settings(cfg, SYNTH_KEYS))
    records, truth = synth.gen_clinical(synth_cfg)
    series, _ = synth.gen_cgm_series(synth_cfg)
    write_clinical(run.output("clinical.csv"), records)
    write_gl_table(run.output("gl_table.csv"), synth.default_gl_table())
    for s in series:
        write_timeseries(run.output(f"series/{s.subject_id}.csv"), s)
    _write_json(run.output("truth.json"), bayesnet.network_to_json(truth))
    print(f"synth: wrote {len(series)} series and {len(records)} clinical rows to {run.out_dir}")


# Stage 1: clinical records -> exclude -> impute -> encode -> consensus DAG -> CPTs.
# `preprocess` and `learn` run its steps one command each; `evaluate` and
# `ablate` run them all through `_stage1`.


def _encode(cfg: dict, records):
    """Exclude, impute and encode clinical records: (exclusion report, imputed, encoded)."""
    kept, report = preprocess.exclude_incomplete(records, **_settings(cfg, {"max_missing": _integer}))
    imputed = preprocess.impute_means(kept)
    return report, imputed, preprocess.standardize_encode(imputed, **_settings(cfg, {"n_bins": _integer}))


def _learn_network(cfg: dict, encoded, seed: int, dag=None):
    """Bootstrap consensus (unless a DAG is given) and its CPTs: (strengths, dag, network)."""
    strengths = None
    if dag is None:
        consensus = _settings(cfg, {"bootstrap": _integer, "threshold": float})
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
        return {
            name: self.codecs[name].encode_value(getattr(record, name))
            for name in preprocess.ENCODED_FEATURES
            if name not in ("fpg", "hpp2")
        }

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


def _stage1(cfg: dict, seed: int, run: _Run) -> _Stage1:
    """Run Stage 1 on `clinical_csv`; `network_json`, when given, replaces the bootstrap."""
    records = load_clinical(run.required(cfg, "clinical_csv"))
    report, imputed, encoded = _encode(cfg, records)
    dag = None
    if "network_json" in cfg:
        dag, _ = bayesnet.load_network_json(run.path(cfg["network_json"]))
    _, _, network = _learn_network(cfg, encoded, seed, dag)
    codecs = {codec.name: codec for codec in encoded.codecs}
    excluded = {entry["subject_id"]: entry["reason"] for entry in report}
    return _Stage1(network, codecs, {r.subject_id: r for r in imputed}, excluded)


def _design(tester: GlucoseSeries, donors: Sequence[GlucoseSeries], gl_table, n_rows: Optional[int] = None):
    """Donors' CGM and glycemic-load columns on the tester's grid; raw meal items need `gl_table`."""
    gl_columns = {d.subject_id: preprocess.build_meal_regressor(d, gl_table).values for d in donors if d.meals}
    return build_similarity_design(tester, donors, gl_columns or None, n_rows)


def _tester_designs(cfg: dict, seed: int, run: _Run, m: int):
    """Each tester with its Stage-1 donors' design: yields (EvalSubject, selection log).

    Without `clinical_csv` no donors are selected and testers carry no design.
    A subject listed twice is refused before anything is loaded.
    """
    repeated = sorted({sid for sid in cfg.get("subjects") or () if cfg["subjects"].count(sid) > 1})
    if repeated:
        raise ConfigError(f"{run.command}: subjects listed more than once: {', '.join(repeated)}")
    series_map = run.series_map(cfg)
    gl_table = run.gl_table(cfg)
    stage1 = _stage1(cfg, seed, run) if "clinical_csv" in cfg else None
    for tester_id in cfg.get("subjects") or sorted(series_map):
        if tester_id not in series_map:
            raise ConfigError(f"{run.command}: no series for subject {tester_id}")
        tester = series_map[tester_id]
        donors, selection = stage1.select_donors(tester_id, series_map, m) if stage1 else ([], None)
        regressors, names = (None, ())
        if donors:
            regressors, names = _design(tester, [series_map[sid] for sid in donors], gl_table)
        yield EvalSubject(series=tester, regressors=regressors, regressor_names=names), selection


def _cmd_preprocess(cfg: dict, seed: int, run: _Run) -> None:
    records = load_clinical(run.required(cfg, "clinical_csv"))
    report, imputed, encoded = _encode(cfg, records)
    write_clinical(run.output("clinical_clean.csv"), imputed)
    preprocess.write_exclusion_report(run.output("exclusions.jsonl"), report)
    encoded.to_files(run.output("encoded.csv"), run.output("encoded_meta.json"))

    if "series_dir" in cfg or cfg.get("series"):
        table = run.gl_table(cfg)
        for sid, series in run.series_map(cfg).items():
            regressor = preprocess.build_meal_regressor(series, table)
            with run.output(f"regressors/{sid}.csv").open("w", encoding="utf-8") as handle:
                handle.write("timestamp,gl\n")
                for i, value in enumerate(regressor.values):
                    handle.write(f"{series.timestamp_at(i).isoformat()},{float(value)!r}\n")

    print(
        f"preprocess: kept {len(imputed)} of {len(records)} records "
        f"({len(report)} excluded); encoded {len(encoded.variables)} variables"
    )


def _cmd_learn(cfg: dict, seed: int, run: _Run) -> None:
    data = preprocess.DiscreteDataset.from_files(
        run.required(cfg, "encoded_csv"), run.required(cfg, "encoded_meta")
    )
    strengths, consensus, model = _learn_network(cfg, data, seed)

    types = None
    if "annotations_csv" in cfg:
        annotations = bayesnet.load_arc_annotations(run.path(cfg["annotations_csv"]))
        model = replace(model, annotations={a: c for a, c in annotations.items() if a in consensus.arcs})
        types = model.annotations

    network_path = run.output("network.json")
    bayesnet.save_network_json(network_path, consensus, strengths, types)
    _write_json(run.output("cpts.json"), bayesnet.cpts_to_json(model))
    print(f"learn: consensus network with {len(consensus.arcs)} arcs -> {network_path}")


def _eval_config(cfg: dict, seed: int) -> EvalConfig:
    return EvalConfig(seed=seed, **_settings(cfg, EVAL_KEYS))


def _cmd_forecast(cfg: dict, seed: int, run: _Run) -> None:
    series = load_timeseries(run.required(cfg, "series_csv"))
    options = _settings(cfg, {"horizon_steps": _integer, "deterministic": bool})
    horizon = options.get("horizon_steps", 4)

    regressors = None
    names: tuple[str, ...] = ()
    if cfg.get("similar_series"):
        donors = [load_timeseries(run.path(raw)) for raw in cfg["similar_series"]]
        # Rows n..n+h-1 are the future rows, read from the donors at the forecast times of day.
        regressors, names = _design(series, donors, run.gl_table(cfg), len(series) + horizon)

    custom = tuple(specs_from_json(cfg)) if "components" in cfg else None
    pipeline = ForecastPipeline(regressors=regressors, regressor_names=names, custom_specs=custom)
    model, draws = pipeline.fit(series, len(series), _eval_config(cfg, seed))
    x_future = regressors[len(series) : len(series) + horizon] if regressors is not None else None
    result = posterior_forecast(
        draws, model, horizon, x_future, sample=not options.get("deterministic", False)
    )

    forecast_path = run.output(f"forecast_{series.subject_id}.csv")
    with forecast_path.open("w", encoding="utf-8") as handle:
        handle.write("timestamp,point,lower95,upper95\n")
        for j in range(horizon):
            ts = series.timestamp_at(len(series) + j)
            handle.write(
                f"{ts.isoformat()},{float(result.mean[j])!r},"
                f"{float(result.lower95[j])!r},{float(result.upper95[j])!r}\n"
            )
    print(f"forecast: {horizon} step(s) for {series.subject_id} -> {forecast_path}")


def _cmd_evaluate(cfg: dict, seed: int, run: _Run) -> None:
    eval_cfg = _eval_config(cfg, seed)
    custom = tuple(specs_from_json(cfg)) if "components" in cfg else None
    reports = []
    selections = {}
    for subject, selection in _tester_designs(cfg, seed, run, eval_cfg.m_similar):
        pipeline = ForecastPipeline(
            regressors=subject.regressors, regressor_names=subject.regressor_names, custom_specs=custom
        )
        report = sliding_window_eval(pipeline, subject.series, eval_cfg)
        reports.append(report)
        if selection is not None:
            selections[report.subject_id] = selection
        print(render_metrics_text(report))
        print()

    metrics_path = run.output("metrics.json")
    write_metrics_json(metrics_path, reports)
    for report in reports:
        write_confusion_csv(run.output(f"confusion_{report.subject_id}.csv"), report)
    if selections:
        _write_json(run.output("selections.json"), selections)
    print(f"evaluate: {len(reports)} subject report(s) -> {metrics_path}")


def _cmd_ablate(cfg: dict, seed: int, run: _Run) -> None:
    eval_cfg = _eval_config(cfg, seed)
    removals = cfg.get("removals", list(ABLATION_NAMES))
    if "similar_subjects" in removals and "clinical_csv" not in cfg:
        raise ConfigError(
            "ablate: removal 'similar_subjects' needs clinical_csv to select donors; "
            "without them the row equals the baseline"
        )
    subjects = []
    for subject, selection in _tester_designs(cfg, seed, run, eval_cfg.m_similar):
        if selection is not None and "excluded" in selection and "similar_subjects" in removals:
            raise ConfigError(
                f"ablate: Stage 1 excluded tester {subject.series.subject_id} ({selection['excluded']}), "
                "so it has no donors and its 'similar_subjects' row would equal the baseline"
            )
        subjects.append(subject)
    table = run_ablation(eval_cfg, removals, subjects, seed=seed)
    _write_json(run.output("ablation.json"), table.to_json())
    run.output("ablation.txt").write_text(table.render_text() + "\n", encoding="utf-8")
    print(table.render_text())


COMMANDS: dict[str, Callable[[dict, int, _Run], None]] = {
    "preprocess": _cmd_preprocess,
    "learn": _cmd_learn,
    "forecast": _cmd_forecast,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
    "synth": _cmd_synth,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="glycast", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", type=str, default=None, help="override output directory")
    parser.add_argument(
        "--horizon", type=int, choices=sorted(HORIZON_MINUTES), default=None,
        help="prediction horizon in minutes (forecast/evaluate/ablate)",
    )
    parser.add_argument("--subjects", type=str, default=None, help="comma-separated subject ids")
    args = parser.parse_args(argv)

    started = time.time()
    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else _settings(cfg, {"seed": _integer}).get("seed", 0)
        if args.horizon:
            cfg["horizon_steps"] = HORIZON_MINUTES[args.horizon]
            cfg["horizons"] = [cfg["horizon_steps"]]
        if args.subjects:
            cfg["subjects"] = args.subjects.split(",")
        _settings(cfg, dict.fromkeys(("series", "similar_series", "subjects", "removals"), _strings))
        run = _Run(args.command, Path(args.out or cfg.get("out_dir", "out")))
        COMMANDS[args.command](cfg, seed, run)
        _write_manifest(run, args.config, seed, started)
        return 0
    except GlycastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
