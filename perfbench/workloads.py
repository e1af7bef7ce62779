"""The benchmark's three workloads: inputs, one operation, and its checks.

Every call into glycast goes through a module attribute looked up at call
time (`glycast.cli.main`, `bayesnet.bootstrap_consensus`, ...) so that the
traced run's wrappers see it. Inputs are generated from the workload seed by
`glycast.synth`; the program receives only those inputs.

Draw and bootstrap counts are a quarter of the paper's (draws=1000, burn=200,
bootstrap=100 become 250, 50 and 25), so that a run with its repeated set-up
fits the benchmark's time budget while each layer keeps its share of the work.
Stage 1 on the 1500-record cohort keeps the paper's b=100.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np

import glycast.cli
from glycast import bayesnet, evaluate, preprocess, similarity, synth
from glycast.bsts import components, sampler

import checks

HORIZONS = (1, 2, 3, 4)
SPLIT_RATIO = 0.8
M_SIMILAR = 2


def _quiet_cli(argv: list[str]) -> None:
    """Run one glycast command in-process, keeping its report off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = glycast.cli.main(argv)
    if status != 0:
        raise RuntimeError(f"glycast {argv[0]} exited with status {status}")


def _read_cgm(path: Path) -> np.ndarray:
    """CGM column of a series CSV, read with the csv module alone."""
    with path.open(newline="", encoding="utf-8") as handle:
        return np.array([float(row["cgm_mgdl"]) for row in csv.DictReader(handle) if row["cgm_mgdl"]])


class EvaluateWorkload:
    """`glycast evaluate` for a fixed tester on a synthetic 100-subject cohort."""

    name = "evaluate-5d"
    n_subjects = 100
    n_days = 5
    latent_share = 0.7
    testers = ("S000",)
    settings = {"draws": 250, "burn": 50, "bootstrap": 25, "forecast_thin": 2, "m_similar": M_SIMILAR}
    # Layer self times must cover this share of the traced operation's wall time.
    min_trace_coverage = 0.97

    def setup(self, seed: int, workdir: Path) -> dict:
        data = workdir / "data"
        shutil.rmtree(data, ignore_errors=True)
        synth_cfg = workdir / "synth.json"
        synth_cfg.write_text(json.dumps({
            "seed": seed, "out_dir": str(data), "n_subjects": self.n_subjects,
            "n_days": self.n_days, "latent_share": self.latent_share,
        }), encoding="utf-8")
        _quiet_cli(["synth", "--config", str(synth_cfg)])
        eval_cfg = workdir / "evaluate.json"
        eval_cfg.write_text(json.dumps({
            "seed": seed, "series_dir": str(data / "series"),
            "clinical_csv": str(data / "clinical.csv"), "gl_table": str(data / "gl_table.csv"),
            "subjects": list(self.testers), "horizons": list(HORIZONS), "split_ratio": SPLIT_RATIO,
            **self.settings,
        }), encoding="utf-8")
        series = {sid: _read_cgm(data / "series" / f"{sid}.csv") for sid in self.testers}
        return {"config": eval_cfg, "workdir": workdir, "series": series}

    def run(self, state: dict, k: int) -> dict:
        out = state["workdir"] / f"out-{k}"
        _quiet_cli(["evaluate", "--config", str(state["config"]), "--out", str(out)])
        return {
            "metrics": (out / "metrics.json").read_bytes(),
            "selections": (out / "selections.json").read_bytes(),
        }

    def check(self, state: dict, output: dict, first: dict | None) -> list[str]:
        errors = checks.check_evaluate_report(
            json.loads(output["metrics"]), self.testers, state["series"], HORIZONS, SPLIT_RATIO
        )
        selections = json.loads(output["selections"])
        if sorted(selections) != sorted(self.testers):
            errors.append(f"selections.json covers {sorted(selections)}, expected {list(self.testers)}")
        errors += checks.check_selection_log(selections)
        if first is not None:
            for key in ("metrics", "selections"):
                if output[key] != first[key]:
                    errors.append(f"{key}.json differs from the run's first operation")
        return errors


class Stage1Workload:
    """Stage 1 alone on a 1500-record clinical cohort with 5% missing values."""

    name = "stage1-cohort"
    n_records = 1500
    missing_rate = 0.05
    bootstrap = 100
    threshold = 0.85
    min_trace_coverage = None
    # Outputs that repeated operations of a run must reproduce exactly.
    compared = ("strengths", "arcs", "ids", "fpg", "hpp2", "measured", "selections")

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = synth.SynthConfig(n_subjects=self.n_records, seed=seed, missing_rate=self.missing_rate)
        records, truth = synth.gen_clinical(cfg)
        return {"seed": seed, "records": records, "truth_arcs": sorted(truth.arcs)}

    def run(self, state: dict, k: int) -> dict:
        kept, _ = preprocess.exclude_incomplete(state["records"], 3)
        imputed = preprocess.impute_means(kept)
        encoded = preprocess.standardize_encode(imputed, 4)
        table, dag = bayesnet.bootstrap_consensus(
            encoded, b=self.bootstrap, threshold=self.threshold, seed=state["seed"]
        )
        network = bayesnet.fit_parameters(dag, encoded, alpha=1.0)
        codecs = {codec.name: codec for codec in encoded.codecs}
        points, evidence_rows = [], []
        for record in imputed:
            evidence = {}
            for name in preprocess.ENCODED_FEATURES:
                if name in ("fpg", "hpp2"):
                    continue
                value = getattr(record, name)
                evidence[name] = (
                    preprocess.GENDER_LEVELS.index(value) if name == "gender"
                    else codecs[name].encode_value(value)
                )
            _, _, fpg_hat, hpp2_hat = bayesnet.infer_markers(network, evidence)
            points.append(similarity.MarkerPoint(record.subject_id, fpg_hat, hpp2_hat, "inferred"))
            evidence_rows.append(evidence)
        selections = {}
        for i, record in enumerate(imputed):
            tester = similarity.MarkerPoint(record.subject_id, record.fpg, record.hpp2, "measured")
            selections[record.subject_id] = similarity.select_similar(
                points[:i] + points[i + 1:], tester, M_SIMILAR
            )
        return {
            "strengths": dict(table.strengths),
            "arcs": sorted(dag.arcs),
            "ids": [p.subject_id for p in points],
            "fpg": [p.fpg for p in points],
            "hpp2": [p.hpp2 for p in points],
            "measured": {r.subject_id: (r.fpg, r.hpp2) for r in imputed},
            "selections": selections,
            "network": network,
            "evidence": evidence_rows,
        }

    def check(self, state: dict, output: dict, first: dict | None) -> list[str]:
        errors = checks.check_skeleton(output["strengths"], state["truth_arcs"], self.threshold)
        errors += checks.check_consensus(output["arcs"], output["strengths"], self.threshold)
        network = output["network"]
        errors += checks.check_exact_markers(
            (output["fpg"], output["hpp2"]),
            checks.enumerate_markers(
                network.cpts, network.parent_order, network.cards, output["evidence"],
                network.representative_values("fpg"), network.representative_values("hpp2"),
            ),
        )
        # The inferred FPG can follow the measured one only if the consensus
        # links fpg to an observed variable; bootstrap_consensus can drop
        # hba1c-fpg when its orientation is split across the bootstrap
        # networks (see README.md).
        observed = set(output["evidence"][0])
        if any("fpg" in arc and set(arc) - {"fpg"} <= observed for arc in output["arcs"]):
            errors += checks.check_marker_inference(
                output["fpg"], [output["measured"][sid][0] for sid in output["ids"]]
            )
        errors += checks.check_nearest_donors(
            output["ids"], output["fpg"], output["hpp2"], output["measured"],
            output["selections"], M_SIMILAR,
        )
        if first is not None and any(output[key] != first[key] for key in self.compared):
            errors.append("Stage-1 output differs from the run's first operation")
        return errors


class ForecastWorkload:
    """Anchored forecasting over 10 days from one posterior fitted in set-up."""

    name = "anchored-forecast-14d"
    n_days = 14
    fit_days = 4
    latent_share = 0.7
    draws = 250
    burn = 50
    min_trace_coverage = None

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = synth.SynthConfig(n_subjects=3, n_days=self.n_days, seed=seed, latent_share=self.latent_share)
        series, _ = synth.gen_cgm_series(cfg)
        tester, donors = series[0], series[1:]
        gl = {d.subject_id: preprocess.build_meal_regressor(d).values for d in donors}
        x, names = evaluate.build_similarity_design(tester, donors, gl)
        n_fit = 96 * self.fit_days
        y = tester.cgm
        pipeline = evaluate.ForecastPipeline(regressors=x, regressor_names=names)
        model = components.assemble_model(pipeline.component_specs(tester, n_fit), y[:n_fit], x[:n_fit])
        draws = sampler.mcmc_fit(model, y[:n_fit], x=x[:n_fit], draws=self.draws, burn=self.burn, seed=seed)
        anchors = np.arange(n_fit - 1, y.size - max(HORIZONS))
        return {"seed": seed, "model": model, "draws": draws, "y": y, "x": x, "n_fit": n_fit, "anchors": anchors}

    def run(self, state: dict, k: int) -> dict:
        h = max(HORIZONS)
        forecasts = sampler.forecast_anchors(
            state["model"], state["draws"], state["y"], anchors=state["anchors"], horizons=HORIZONS,
            x=state["x"], rng=np.random.default_rng([state["seed"], 0xF0C5]), thin=1,
        )
        n_fit = state["n_fit"]
        result = sampler.posterior_forecast(state["draws"], state["model"], h, state["x"][n_fit : n_fit + h])
        return {"forecasts": forecasts, "posterior": result}

    def check(self, state: dict, output: dict, first: dict | None) -> list[str]:
        errors = checks.check_anchored_forecast(output["forecasts"], state["y"], state["anchors"])
        p = output["posterior"]
        errors += checks.check_band(p.mean, p.lower95, p.upper95, max(HORIZONS))
        if first is not None:
            same = all(
                np.array_equal(output["forecasts"][h][key], first["forecasts"][h][key])
                for h in HORIZONS for key in ("mean", "lower95", "upper95")
            ) and np.array_equal(p.paths, first["posterior"].paths)
            if not same:
                errors.append("forecasts differ from the run's first operation")
        return errors


WORKLOADS = {w.name: w for w in (EvaluateWorkload(), Stage1Workload(), ForecastWorkload())}
