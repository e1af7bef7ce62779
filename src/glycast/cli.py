"""Command-line pipeline orchestrator.

One JSON config per command with a shared {seed, out_dir} preamble. The flags
fold into config keys before the command runs: `--seed` into `seed` (a
non-negative integer), `--horizon` (minutes) into `horizon_steps` and
`horizons`, `--subjects` into `subjects`. Each command is a function
`(cfg, seed, run)`; `run` checks and records every file it reads and places
and records every file it writes. After a command succeeds, one manifest line
listing those files is appended to <out_dir>/manifests.jsonl. Exit status is
0 only when all declared outputs were written; a GlycastError or an OSError
on a file exits 2 with one `error:` line.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__, bayesnet, preprocess, similarity, synth
from .bsts import ComponentSpec, posterior_forecast, specs_from_json
from .bsts.components import MAX_HORIZON, STANDARD_STACK
from .casts import (
    boolean, integer, integers, load_json, number, optional_number, read, strings, timestamp, write_json, write_json_lines,
)
from .dataset import (
    MARKERS,
    GlucoseSeries,
    _write_rows,
    load_clinical,
    load_gl_table,
    load_timeseries,
    write_clinical,
    write_gl_table,
    write_timeseries,
)
from .errors import ConfigError, GlycastError, SchemaError
from .evaluate import (
    ABLATION_NAMES,
    EvalConfig,
    ForecastPipeline,
    build_similarity_design,
    run_ablation,
    render_metrics_text,
    sliding_window_eval,
    write_confusion_csv,
    write_metrics_json,
)

HORIZON_MINUTES = {15: 1, 30: 2, 45: 3, 60: 4}


# Config keys that map one-to-one onto a settings dataclass, with their types;
# the dataclass holds each default.
SYNTH_KEYS = {
    "n_subjects": integer, "n_days": integer, "day_amplitude": number, "meal_amplitude": number,
    "circadian_amplitude": number, "noise_sd": number, "latent_share": number, "latent_sd": number,
    "latent_ar": number, "missing_rate": number, "egfr_gender_factor": boolean,
}
TABU_KEYS = {"tabu_len": integer, "max_iter": integer, "stall_limit": integer}
EVAL_KEYS = {
    "split_ratio": number, "horizons": integers, "hypo_max": number, "hyper_min": number,
    "draws": integer, "burn": integer, "m_similar": integer, "forecast_thin": integer,
}


def _settings(cfg: dict, keys: dict) -> dict:
    """The `keys` that `cfg` sets, each read by its cast; ConfigError naming a key whose value is not one."""
    try:
        return {key: read(cfg, key, cast) for key, cast in keys.items() if key in cfg}
    except SchemaError as exc:
        raise ConfigError(f"config key {exc}") from None


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    return load_json(path)


class _Run:
    """One command's run: the files it reads, each checked to exist, and the files it writes."""

    def __init__(self, command: str, out_dir: Path):
        self.command = command
        self.out_dir = out_dir
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self._series: dict[Path, GlucoseSeries] = {}

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

    def series_map(self, cfg: dict) -> dict[str, Path]:
        """subject_id (the file stem) -> path of every series supplied, each checked to exist, none read.

        A `series` entry replaces a `series_dir` file with the same stem; two
        `series` entries with the same stem are refused (ConfigError).
        """
        series = {}
        if "series_dir" in cfg:
            series = {path.stem: path for path in sorted(self.path(cfg["series_dir"], record=False).glob("*.csv"))}
        listed: dict[str, Path] = {}
        for path in (self.path(raw, record=False) for raw in cfg.get("series", [])):
            first = listed.setdefault(path.stem, path)
            if first is not path:
                raise ConfigError(f"{self.command}: series {first} and {path} are both subject {path.stem}")
        series.update(listed)
        if not series:
            raise ConfigError(f"{self.command}: no time series supplied (series_dir or series)")
        return series

    def series(self, path: Path) -> GlucoseSeries:
        """The series at `path`, read on first use and recorded as an input; later calls reuse it."""
        if path not in self._series:
            self._series[path] = load_timeseries(path)
            self.inputs.append(path)
        return self._series[path]


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
    write_json_lines(run.out_dir / "manifests.jsonl", [manifest], append=True)


def _cmd_synth(cfg: dict, seed: int, run: _Run) -> None:
    synth_cfg = synth.SynthConfig(seed=seed, **_settings(cfg, SYNTH_KEYS))
    records, truth = synth.gen_clinical(synth_cfg)
    series, _ = synth.gen_cgm_series(synth_cfg)
    write_clinical(run.output("clinical.csv"), records)
    write_gl_table(run.output("gl_table.csv"), synth.default_gl_table())
    for s in series:
        write_timeseries(run.output(f"series/{s.subject_id}.csv"), s)
    write_json(run.output("truth.json"), bayesnet.network_to_json(truth))
    print(f"synth: wrote {len(series)} series and {len(records)} clinical rows to {run.out_dir}")


# Stage 1: clinical records -> exclude -> impute -> encode -> consensus DAG -> CPTs
# -> the candidates' inferred markers.
# `learn` runs it up to the CPTs and writes what it learned; `evaluate` and
# `ablate` run it all through `_stage1`.


def _encode(cfg: dict, records):
    """Exclude, impute and encode clinical records: (exclusion report, imputed, encoded)."""
    kept, report = preprocess.exclude_incomplete(records, **_settings(cfg, {"max_missing": integer}))
    imputed = preprocess.impute_means(kept)
    return report, imputed, preprocess.standardize_encode(imputed, **_settings(cfg, {"n_bins": integer}))


def _learn_network(cfg: dict, encoded, seed: int, dag=None):
    """Bootstrap consensus (unless a DAG is given) and its CPTs: (strengths, dag, network)."""
    smoothing = _settings(cfg, {"alpha": number})  # refused before the bootstrap runs
    strengths = None
    if dag is None:
        consensus = _settings(cfg, {"bootstrap": integer, "threshold": number})
        if "bootstrap" in consensus:
            consensus["b"] = consensus.pop("bootstrap")
        params = bayesnet.TabuParams(**_settings(cfg, TABU_KEYS))
        strengths, dag = bayesnet.bootstrap_consensus(encoded, seed=seed, params=params, **consensus)
    return strengths, dag, bayesnet.fit_parameters(dag, encoded, **smoothing)


@dataclass(frozen=True)
class _Stage1:
    """Stage 1's output: imputed records by subject_id, exclusions, and the candidates' inferred points."""

    records_by_id: dict
    excluded: dict[str, str]
    points: list[similarity.MarkerPoint]  # subject_id order

    def select_donors(self, tester_id: str, m: int) -> tuple[list[str], Optional[dict]]:
        """The m candidates whose inferred markers sit nearest the tester's measured ones.

        A tester that Stage 1 excluded (for example, no measured FPG), that
        has no clinical record, or whose pool holds fewer than m candidates
        with records gets no donors and the log entry
        {"selected": [], "excluded": reason}.
        """
        tester = self.records_by_id.get(tester_id)
        if tester is None:
            return [], {"selected": [], "excluded": self.excluded.get(tester_id, "no clinical record")}
        points = [point for point in self.points if point.subject_id != tester_id]
        if len(points) < m:
            return [], {"selected": [], "excluded": f"{len(points)} candidates, fewer than m_similar={m}"}
        tester_point = similarity.MarkerPoint(tester_id, tester.fpg, tester.hpp2, "measured")
        selected = similarity.select_similar(points, tester_point, m)
        return selected, similarity.selection_log(points, tester_point, selected)


def _stage1(cfg: dict, seed: int, run: _Run, candidates) -> _Stage1:
    """Run Stage 1 on `clinical_csv` and infer the markers of every candidate it kept.

    `network_json`, when given, replaces the bootstrap. `candidates` holds
    the subject_ids with a series. Each one Stage 1 kept is inferred once, in
    subject_id order, from its encoded row without the fpg and hpp2 columns.
    """
    records = load_clinical(run.required(cfg, "clinical_csv"))
    report, imputed, encoded = _encode(cfg, records)
    dag = None
    if "network_json" in cfg:
        dag, _ = bayesnet.load_network_json(run.path(cfg["network_json"]))
    _, _, network = _learn_network(cfg, encoded, seed, dag)
    features = [j for j, name in enumerate(encoded.variables) if name not in MARKERS]
    names = [encoded.variables[j] for j in features]
    points = []
    for sid, row in sorted(zip(encoded.subject_ids, encoded.matrix[:, features].tolist())):
        if sid in candidates:
            _, _, fpg_hat, hpp2_hat = bayesnet.infer_markers(network, dict(zip(names, row)))
            points.append(similarity.MarkerPoint(sid, fpg_hat, hpp2_hat))
    excluded = {entry["subject_id"]: entry["reason"] for entry in report}
    return _Stage1({r.subject_id: r for r in imputed}, excluded, points)


def _design(tester: GlucoseSeries, donors: Sequence[GlucoseSeries], gl_table, n_rows: Optional[int] = None):
    """Donors' CGM and glycemic-load columns on the tester's grid; raw meal items need `gl_table`."""
    gl_columns = {d.subject_id: preprocess.build_meal_regressor(d, gl_table).values for d in donors if d.meals}
    return build_similarity_design(tester, donors, gl_columns or None, n_rows)


def _stack(cfg: dict) -> tuple[ComponentSpec, ...]:
    """The run's component stack: the `components` document's specs, or STANDARD_STACK."""
    return tuple(specs_from_json(cfg)) if "components" in cfg else STANDARD_STACK


def _tester_designs(cfg: dict, seed: int, run: _Run, m: int):
    """Each tester's run: yields (series, ForecastPipeline, selection log).

    The pipeline carries the run's stack (`_stack`) and the Stage-1
    donors' design; without `clinical_csv` no donors are selected and it
    carries no design. A subject listed twice, or with no series, and a
    malformed `components` document are refused before anything is loaded.
    Only the testers' and their donors' series are read.
    """
    repeated = sorted({sid for sid in cfg.get("subjects") or () if cfg["subjects"].count(sid) > 1})
    if repeated:
        raise ConfigError(f"{run.command}: subjects listed more than once: {', '.join(repeated)}")
    series_map = run.series_map(cfg)
    testers = cfg.get("subjects") or sorted(series_map)
    for tester_id in testers:
        if tester_id not in series_map:
            raise ConfigError(f"{run.command}: no series for subject {tester_id}")
    specs = _stack(cfg)
    gl_table = run.gl_table(cfg)
    stage1 = _stage1(cfg, seed, run, series_map) if "clinical_csv" in cfg else None
    for tester_id in testers:
        tester = run.series(series_map[tester_id])
        donors, selection = stage1.select_donors(tester_id, m) if stage1 else ([], None)
        regressors, names = (None, ())
        if donors:
            regressors, names = _design(tester, [run.series(series_map[sid]) for sid in donors], gl_table)
        yield tester, ForecastPipeline(regressors=regressors, regressor_names=names, specs=specs), selection


def _cmd_learn(cfg: dict, seed: int, run: _Run) -> None:
    records = load_clinical(run.required(cfg, "clinical_csv"))
    annotations = bayesnet.load_arc_annotations(run.path(cfg["annotations_csv"])) if "annotations_csv" in cfg else {}
    report, imputed, encoded = _encode(cfg, records)
    strengths, consensus, model = _learn_network(cfg, encoded, seed)
    model = replace(model, annotations={a: c for a, c in annotations.items() if a in consensus.arcs})

    # Every input is read before the first output is written.
    write_json_lines(run.output("exclusions.jsonl"), report)
    write_clinical(run.output("clinical_clean.csv"), imputed)
    network_path = run.output("network.json")
    write_json(network_path, bayesnet.network_to_json(consensus, strengths, model.annotations))
    write_json(run.output("cpts.json"), bayesnet.cpts_to_json(model))
    print(
        f"learn: kept {len(imputed)} of {len(records)} records ({len(report)} excluded); "
        f"consensus network with {len(consensus.arcs)} arcs -> {network_path}"
    )


def _eval_config(cfg: dict, seed: int) -> EvalConfig:
    return EvalConfig(seed=seed, **_settings(cfg, EVAL_KEYS))


def _cmd_forecast(cfg: dict, seed: int, run: _Run) -> None:
    options = _settings(cfg, {"horizon_steps": integer, "deterministic": boolean})
    horizon = options.get("horizon_steps", 4)
    if not 1 <= horizon <= MAX_HORIZON:
        raise ConfigError(f"config key 'horizon_steps' must lie in 1..{MAX_HORIZON}, got {horizon}")
    eval_cfg = _eval_config(cfg, seed)
    series = load_timeseries(run.required(cfg, "series_csv"))

    regressors = None
    names: tuple[str, ...] = ()
    if cfg.get("similar_series"):
        donors = [load_timeseries(run.path(raw)) for raw in cfg["similar_series"]]
        # Rows n..n+h-1 are the future rows, read from the donors at the forecast times of day.
        regressors, names = _design(series, donors, run.gl_table(cfg), len(series) + horizon)

    pipeline = ForecastPipeline(regressors=regressors, regressor_names=names, specs=_stack(cfg))
    model, draws = pipeline.fit(series, len(series), eval_cfg)
    x_future = regressors[len(series) : len(series) + horizon] if regressors is not None else None
    result = posterior_forecast(
        draws, model, horizon, x_future, sample=not options.get("deterministic", False)
    )

    forecast_path = run.output(f"forecast_{series.subject_id}.csv")
    casts = {"timestamp": timestamp, **dict.fromkeys(("point", "lower95", "upper95"), optional_number)}
    times = [series.timestamp_at(len(series) + j) for j in range(horizon)]
    _write_rows(forecast_path, casts, zip(times, result.mean, result.lower95, result.upper95))
    print(f"forecast: {horizon} step(s) for {series.subject_id} -> {forecast_path}")


def _cmd_evaluate(cfg: dict, seed: int, run: _Run) -> None:
    eval_cfg = _eval_config(cfg, seed)
    reports = []
    selections = {}
    for series, pipeline, selection in _tester_designs(cfg, seed, run, eval_cfg.m_similar):
        report = sliding_window_eval(pipeline, series, eval_cfg)
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
        write_json(run.output("selections.json"), selections)
    print(f"evaluate: {len(reports)} subject report(s) -> {metrics_path}")


def _cmd_ablate(cfg: dict, seed: int, run: _Run) -> None:
    eval_cfg = _eval_config(cfg, seed)
    removals = cfg.get("removals", list(ABLATION_NAMES))
    if "components" in cfg:
        raise ConfigError("ablate: its rows remove seasonals of the standard stack, which 'components' replaces")
    if "similar_subjects" in removals and "clinical_csv" not in cfg:
        raise ConfigError(
            "ablate: removal 'similar_subjects' needs clinical_csv to select donors; "
            "without them the row equals the baseline"
        )
    subjects = []
    for series, pipeline, selection in _tester_designs(cfg, seed, run, eval_cfg.m_similar):
        if selection is not None and "excluded" in selection and "similar_subjects" in removals:
            raise ConfigError(
                f"ablate: Stage 1 excluded tester {series.subject_id} ({selection['excluded']}), "
                "so it has no donors and its 'similar_subjects' row would equal the baseline"
            )
        subjects.append((series, pipeline))
    table = run_ablation(eval_cfg, removals, subjects)
    write_json(run.output("ablation.json"), table.to_json())
    run.output("ablation.txt").write_text(table.render_text() + "\n", encoding="utf-8")
    print(table.render_text())


COMMANDS: dict[str, Callable[[dict, int, _Run], None]] = {
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
        if args.seed is not None:
            cfg["seed"] = args.seed
        seed = _settings(cfg, {"seed": integer}).get("seed", 0)
        if seed < 0:
            raise ConfigError(f"config key 'seed' must be a non-negative integer, got {seed}")
        if args.horizon:
            cfg["horizon_steps"] = HORIZON_MINUTES[args.horizon]
            cfg["horizons"] = [cfg["horizon_steps"]]
        if args.subjects:
            cfg["subjects"] = args.subjects.split(",")
        _settings(cfg, dict.fromkeys(("series", "similar_series", "subjects", "removals"), strings))
        run = _Run(args.command, Path(args.out or cfg.get("out_dir", "out")))
        COMMANDS[args.command](cfg, seed, run)
        _write_manifest(run, args.config, seed, started)
        return 0
    except GlycastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be opened or read, such as a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
