import json
import math
from dataclasses import replace

import numpy as np
import pytest

from glycast import bayesnet, cli, preprocess, similarity, synth
from glycast.cli import main
from glycast.dataset import MealEvent, load_gl_table, load_timeseries, write_timeseries
from glycast.preprocess import DiscreteDataset, build_meal_regressor
from glycast.synth import dag_enumeration_oracle


def write_config(path, **payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def synth_dir(tmp_path):
    cfg = write_config(
        tmp_path / "synth.json",
        seed=3,
        out_dir=str(tmp_path / "data"),
        n_subjects=4,
        n_days=3,
        latent_share=0.8,
        latent_sd=8.0,
    )
    assert main(["synth", "--config", cfg]) == 0
    return tmp_path / "data"


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "clinical.csv").exists()
        assert (synth_dir / "gl_table.csv").exists()
        assert len(list((synth_dir / "series").glob("*.csv"))) == 4
        manifests = (synth_dir / "manifests.jsonl").read_text().strip().splitlines()
        assert len(manifests) == 1
        entry = json.loads(manifests[0])
        assert entry["command"] == "synth" and entry["seed"] == 3


class TestPipelineComposition:
    def test_synth_then_evaluate(self, tmp_path, synth_dir):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "eval.json",
            seed=3,
            out_dir=str(out),
            series_dir=str(synth_dir / "series"),
            draws=100,
            burn=30,
            forecast_thin=2,
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload[0]["horizons"]) == {"1", "2", "3", "4"}
        for report in payload[0]["horizons"].values():
            assert report["n"] > 0 and np.isfinite(report["rmse"])

    def test_two_stage_evaluate_writes_selection_log(self, tmp_path, synth_dir):
        out = tmp_path / "out2"
        cfg = write_config(
            tmp_path / "eval2.json",
            seed=3,
            out_dir=str(out),
            series_dir=str(synth_dir / "series"),
            clinical_csv=str(synth_dir / "clinical.csv"),
            gl_table=str(synth_dir / "gl_table.csv"),
            bootstrap=6,
            draws=60,
            burn=20,
            forecast_thin=2,
            horizons=[1],
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 0
        selections = json.loads((out / "selections.json").read_text())
        entry = selections["S000"]
        assert entry["tester"]["subject_id"] == "S000"
        assert len(entry["selected"]) == 2
        assert all("distance" in s and "subject_id" in s for s in entry["selected"])

    def test_learn_recovers_oracle_skeleton(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 1500
        a = rng.integers(0, 3, n)
        b = (a + (rng.random(n) < 0.12).astype(np.int64)) % 3
        c = (b + (rng.random(n) < 0.12).astype(np.int64)) % 3
        data = DiscreteDataset(
            variables=("a", "b", "c"), cards=(3, 3, 3), matrix=np.column_stack([a, b, c])
        )
        data.to_files(tmp_path / "enc.csv", tmp_path / "meta.json")
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "learn.json",
            seed=1,
            out_dir=str(out),
            encoded_csv=str(tmp_path / "enc.csv"),
            encoded_meta=str(tmp_path / "meta.json"),
            bootstrap=15,
        )
        assert main(["learn", "--config", cfg]) == 0
        network = json.loads((out / "network.json").read_text())
        learned = {frozenset((arc["from"], arc["to"])) for arc in network["arcs"]}
        oracle = {frozenset(arc) for arc in dag_enumeration_oracle(data).arcs}
        assert learned == oracle
        assert (out / "cpts.json").exists()


class _Stop(Exception):
    pass


class TestTabuConfig:
    @pytest.mark.parametrize("command", ["evaluate", "learn", "ablate"])
    def test_tabu_keys_reach_bootstrap(self, tmp_path, synth_dir, monkeypatch, command):
        seen = {}

        def spy(data, **kwargs):
            seen.update(kwargs)
            raise _Stop  # the search itself is not under test

        monkeypatch.setattr(bayesnet, "bootstrap_consensus", spy)
        inputs = {"series_dir": str(synth_dir / "series"), "clinical_csv": str(synth_dir / "clinical.csv")}
        extra = ["--subjects", "S000"]
        if command == "learn":
            prep = write_config(
                tmp_path / "prep.json", seed=3, out_dir=str(tmp_path / "prep"),
                clinical_csv=str(synth_dir / "clinical.csv"),
            )
            assert main(["preprocess", "--config", prep]) == 0
            inputs = {
                "encoded_csv": str(tmp_path / "prep" / "encoded.csv"),
                "encoded_meta": str(tmp_path / "prep" / "encoded_meta.json"),
            }
            extra = []
        cfg = write_config(
            tmp_path / "cfg.json", seed=3, out_dir=str(tmp_path / "out"),
            bootstrap=2, tabu_len=7, max_iter=11, stall_limit=3, **inputs,
        )
        with pytest.raises(_Stop):
            main([command, "--config", cfg, *extra])
        assert seen["b"] == 2
        assert seen["params"] == bayesnet.TabuParams(tabu_len=7, max_iter=11, stall_limit=3)


class TestStage1Config:
    KEYS = {"max_missing": 2, "n_bins": 3, "bootstrap": 7, "threshold": 0.6, "alpha": 0.5}

    def stage1_kwargs(self, tmp_path, synth_dir, monkeypatch, settings):
        """The keyword arguments `evaluate` passes each Stage-1 function under a config."""
        seen = {}
        exclude, encode = preprocess.exclude_incomplete, preprocess.standardize_encode

        def spy_exclude(records, **kwargs):
            seen["exclude_incomplete"] = kwargs
            return exclude(records, **kwargs)

        def spy_encode(records, **kwargs):
            seen["standardize_encode"] = kwargs
            return encode(records, **kwargs)

        def spy_bootstrap(data, **kwargs):
            seen["bootstrap_consensus"] = {k: v for k, v in kwargs.items() if k not in ("seed", "params")}
            return None, bayesnet.Dag(data.variables)  # the search itself is not under test

        def spy_fit(dag, data, **kwargs):
            seen["fit_parameters"] = kwargs
            raise _Stop

        monkeypatch.setattr(preprocess, "exclude_incomplete", spy_exclude)
        monkeypatch.setattr(preprocess, "standardize_encode", spy_encode)
        monkeypatch.setattr(bayesnet, "bootstrap_consensus", spy_bootstrap)
        monkeypatch.setattr(bayesnet, "fit_parameters", spy_fit)
        cfg = write_config(
            tmp_path / "cfg.json", seed=3, out_dir=str(tmp_path / "out"),
            series_dir=str(synth_dir / "series"), clinical_csv=str(synth_dir / "clinical.csv"), **settings,
        )
        with pytest.raises(_Stop):
            main(["evaluate", "--config", cfg, "--subjects", "S000"])
        return seen

    def test_absent_keys_pass_nothing(self, tmp_path, synth_dir, monkeypatch):
        seen = self.stage1_kwargs(tmp_path, synth_dir, monkeypatch, {})
        assert seen == {
            "exclude_incomplete": {}, "standardize_encode": {}, "bootstrap_consensus": {}, "fit_parameters": {},
        }

    def test_set_keys_arrive_under_parameter_names(self, tmp_path, synth_dir, monkeypatch):
        seen = self.stage1_kwargs(tmp_path, synth_dir, monkeypatch, self.KEYS)
        assert seen == {
            "exclude_incomplete": {"max_missing": 2},
            "standardize_encode": {"n_bins": 3},
            "bootstrap_consensus": {"b": 7, "threshold": 0.6},
            "fit_parameters": {"alpha": 0.5},
        }


def read_manifests(out):
    return [json.loads(line) for line in (out / "manifests.jsonl").read_text().splitlines()]


def two_stage_inputs(data):
    """Every input key evaluate and ablate read; the synth truth stands in for a learned network."""
    return {
        "series_dir": str(data / "series"),
        "clinical_csv": str(data / "clinical.csv"),
        "gl_table": str(data / "gl_table.csv"),
        "network_json": str(data / "truth.json"),
    }


@pytest.fixture
def cohort_dir(tmp_path):
    cfg = write_config(
        tmp_path / "synth12.json", seed=5, out_dir=str(tmp_path / "cohort"),
        n_subjects=12, n_days=3, latent_share=0.8, latent_sd=8.0,
    )
    assert main(["synth", "--config", cfg]) == 0
    return tmp_path / "cohort"


class TestAblateCommand:
    def test_donors_match_evaluate_selections(self, tmp_path, cohort_dir, monkeypatch):
        testers = "S000,S003,S007"
        cfg = write_config(
            tmp_path / "ev.json", seed=3, out_dir=str(tmp_path / "ev"),
            draws=12, burn=2, horizons=[1], **two_stage_inputs(cohort_dir),
        )
        assert main(["evaluate", "--config", cfg, "--subjects", testers]) == 0
        selections = json.loads((tmp_path / "ev" / "selections.json").read_text())

        seen = []

        def spy(base_cfg, removals, subjects, seed=0):
            seen.extend(subjects)
            raise _Stop  # the ablation fits are not under test

        monkeypatch.setattr(cli, "run_ablation", spy)
        with pytest.raises(_Stop):
            main(["ablate", "--config", cfg, "--subjects", testers])
        assert [s.series.subject_id for s in seen] == testers.split(",")
        for subject in seen:
            donors = [n[len("sim_"): -len("_cgm")] for n in subject.regressor_names if n.endswith("_cgm")]
            expected = [d["subject_id"] for d in selections[subject.series.subject_id]["selected"]]
            assert donors == expected

    def test_stage1_excluded_tester(self, tmp_path, capsys):
        # S000 has no measured FPG, so Stage 1 excludes it: evaluate records why,
        # and ablate refuses, as its similar_subjects row would equal the baseline.
        data = tmp_path / "data"
        synth_cfg = write_config(
            tmp_path / "synth8.json", seed=3, out_dir=str(data), n_subjects=8, n_days=3,
            latent_share=0.8, latent_sd=8.0,
        )
        assert main(["synth", "--config", synth_cfg]) == 0
        lines = (data / "clinical.csv").read_text().splitlines()
        column = lines[0].split(",").index("fpg_mgdl")
        cells = lines[1].split(",")
        assert cells[0] == "S000"
        cells[column] = ""
        lines[1] = ",".join(cells)
        (data / "clinical.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        common = dict(
            seed=3, series_dir=str(data / "series"), clinical_csv=str(data / "clinical.csv"),
            bootstrap=2, draws=12, burn=2, horizons=[1],
        )
        both = write_config(tmp_path / "both.json", out_dir=str(tmp_path / "both"), **common)
        alone = write_config(tmp_path / "alone.json", out_dir=str(tmp_path / "alone"), **common)
        assert main(["evaluate", "--config", both, "--subjects", "S000,S001"]) == 0
        assert main(["evaluate", "--config", alone, "--subjects", "S001"]) == 0
        selections = json.loads((tmp_path / "both" / "selections.json").read_text())
        assert selections["S000"] == {"selected": [], "excluded": "missing FPG or 2HPP"}
        alone_selections = json.loads((tmp_path / "alone" / "selections.json").read_text())
        assert json.dumps(selections["S001"]) == json.dumps(alone_selections["S001"])
        assert len(selections["S001"]["selected"]) == 2

        capsys.readouterr()
        assert main(["ablate", "--config", both, "--subjects", "S000"]) == 2
        assert "excluded tester S000" in capsys.readouterr().err

    def test_pool_smaller_than_m_similar(self, tmp_path, synth_dir, capsys):
        # Four subjects leave three candidates for S000: evaluate records why
        # it has no donors, and ablate refuses its similar_subjects row.
        cfg = write_config(
            tmp_path / "ev.json", seed=3, out_dir=str(tmp_path / "ev"),
            series_dir=str(synth_dir / "series"), clinical_csv=str(synth_dir / "clinical.csv"),
            bootstrap=2, draws=12, burn=2, horizons=[1], m_similar=5,
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 0
        selections = json.loads((tmp_path / "ev" / "selections.json").read_text())
        assert selections == {"S000": {"selected": [], "excluded": "3 candidates, fewer than m_similar=5"}}
        capsys.readouterr()
        assert main(["ablate", "--config", cfg, "--subjects", "S000"]) == 2
        assert "excluded tester S000" in capsys.readouterr().err

    def test_horizon_flag_sets_horizons(self, tmp_path, synth_dir):
        out = tmp_path / "ab"
        cfg = write_config(
            tmp_path / "ab.json", seed=3, out_dir=str(out), series_dir=str(synth_dir / "series"),
            removals=["day_seasonal"], draws=12, burn=2,
        )
        assert main(["ablate", "--config", cfg, "--subjects", "S000", "--horizon", "15"]) == 0
        table = json.loads((out / "ablation.json").read_text())
        assert set(table) == {"baseline", "day_seasonal"}
        assert all(set(per_h) == {"1"} for per_h in table.values())

    def test_similar_subjects_requires_clinical(self, tmp_path, synth_dir, capsys):
        cfg = write_config(
            tmp_path / "ab.json", seed=3, out_dir=str(tmp_path / "ab"),
            series_dir=str(synth_dir / "series"), removals=["similar_subjects"],
        )
        assert main(["ablate", "--config", cfg, "--subjects", "S000"]) == 2
        assert "clinical_csv" in capsys.readouterr().err


class TestManifestInputs:
    @pytest.mark.parametrize("command", ["evaluate", "ablate", "forecast"])
    def test_every_config_input_is_recorded(self, tmp_path, synth_dir, command):
        series = synth_dir / "series"
        if command == "forecast":
            inputs = {
                "series_csv": str(series / "S000.csv"),
                "similar_series": [str(series / "S001.csv"), str(series / "S002.csv")],
                "gl_table": str(synth_dir / "gl_table.csv"),
            }
            expected = {inputs["series_csv"], *inputs["similar_series"], inputs["gl_table"]}
        else:
            inputs = two_stage_inputs(synth_dir)
            expected = {str(p) for p in series.glob("*.csv")}
            expected |= {inputs[k] for k in ("clinical_csv", "gl_table", "network_json")}
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json", seed=3, out_dir=str(out), draws=12, burn=2, horizons=[1],
            subjects=["S000"], removals=["similar_subjects"], **inputs,
        )
        assert main([command, "--config", cfg]) == 0
        (manifest,) = read_manifests(out)
        assert manifest["command"] == command
        assert set(manifest["inputs"]) == expected


class TestManifestOutputs:
    def test_outputs_are_the_files_each_command_wrote(self, tmp_path):
        """Each command, run into an out dir of its own, lists exactly the files it left there."""

        def run(command, name, **settings):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", seed=3, **settings)
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            (manifest,) = read_manifests(out)
            written = {str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifests.jsonl"}
            assert manifest["outputs"] == sorted(written)
            return out

        data = run("synth", "data", n_subjects=4, n_days=3, latent_share=0.8, latent_sd=8.0)
        series, gl_table = data / "series", str(data / "gl_table.csv")
        prep = run(
            "preprocess", "prep", clinical_csv=str(data / "clinical.csv"), series_dir=str(series), gl_table=gl_table,
        )
        learned = run(
            "learn", "learned", bootstrap=2,
            encoded_csv=str(prep / "encoded.csv"), encoded_meta=str(prep / "encoded_meta.json"),
        )
        run(
            "forecast", "fc", series_csv=str(series / "S000.csv"), similar_series=[str(series / "S001.csv")],
            gl_table=gl_table, draws=4, burn=1,
        )
        two_stage = dict(
            series_dir=str(series), clinical_csv=str(data / "clinical.csv"), gl_table=gl_table,
            network_json=str(learned / "network.json"), draws=12, burn=2, horizons=[1], subjects=["S000"],
        )
        run("evaluate", "ev", **two_stage)
        run("ablate", "ab", removals=["similar_subjects"], **two_stage)


class TestLearnEvaluateChain:
    def test_network_json_skips_bootstrap_and_matches_inline(self, tmp_path, monkeypatch):
        data, work = tmp_path / "data", tmp_path / "work"
        synth_cfg = write_config(
            tmp_path / "synth.json", seed=3, out_dir=str(data), n_subjects=60, n_days=3,
            latent_share=0.8, latent_sd=8.0,
        )
        assert main(["synth", "--config", synth_cfg]) == 0
        prep = write_config(
            tmp_path / "prep.json", seed=3, out_dir=str(work), clinical_csv=str(data / "clinical.csv"),
        )
        assert main(["preprocess", "--config", prep]) == 0
        learn = write_config(
            tmp_path / "learn.json", seed=3, out_dir=str(work), bootstrap=6,
            encoded_csv=str(work / "encoded.csv"), encoded_meta=str(work / "encoded_meta.json"),
        )
        assert main(["learn", "--config", learn]) == 0
        assert json.loads((work / "network.json").read_text())["arcs"]

        common = dict(
            seed=3, series_dir=str(data / "series"), clinical_csv=str(data / "clinical.csv"),
            gl_table=str(data / "gl_table.csv"), bootstrap=6, draws=12, burn=2, horizons=[1],
            subjects=["S000", "S001"],
        )
        inline = write_config(tmp_path / "inline.json", out_dir=str(tmp_path / "inline"), **common)
        assert main(["evaluate", "--config", inline]) == 0

        def no_bootstrap(*args, **kwargs):
            raise AssertionError("network_json must replace the bootstrap")

        monkeypatch.setattr(bayesnet, "bootstrap_consensus", no_bootstrap)
        learned = write_config(
            tmp_path / "learned.json", out_dir=str(tmp_path / "learned"),
            network_json=str(work / "network.json"), **common,
        )
        assert main(["evaluate", "--config", learned]) == 0
        for name in ("selections.json", "metrics.json"):
            assert (tmp_path / "learned" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()


class TestForecastCommand:
    @pytest.fixture
    def raw_meal_donor(self, tmp_path, synth_dir):
        """S001 with one raw (description, grams) item beside its pre-quantified meals."""
        donor = load_timeseries(synth_dir / "series" / "S001.csv")
        raw = MealEvent(timestamp=donor.timestamp_at(40), grid_index=40, description="steamed bun", grams=90.0)
        (tmp_path / "raw").mkdir()
        path = tmp_path / "raw" / "S001.csv"
        write_timeseries(path, replace(donor, meals=donor.meals + (raw,)))
        return path

    def test_raw_meal_donor_gl_from_table(self, tmp_path, synth_dir, raw_meal_donor, monkeypatch):
        seen = {}
        design = cli.build_similarity_design

        def spy(tester, donors, gl_columns=None, n_rows=None):
            seen.update(gl_columns)
            return design(tester, donors, gl_columns, n_rows)

        monkeypatch.setattr(cli, "build_similarity_design", spy)
        cfg = write_config(
            tmp_path / "fc.json", seed=5, out_dir=str(tmp_path / "fc"),
            series_csv=str(synth_dir / "series" / "S000.csv"), similar_series=[str(raw_meal_donor)],
            gl_table=str(synth_dir / "gl_table.csv"), draws=4, burn=1,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 0
        donor = load_timeseries(raw_meal_donor)
        expected = build_meal_regressor(donor, load_gl_table(synth_dir / "gl_table.csv")).values
        np.testing.assert_array_equal(seen["S001"], expected)
        assert expected[40] == pytest.approx(80.0 * 45.0 * 0.9 / 100.0)

    def test_raw_meal_donor_without_table_exits_2(self, tmp_path, synth_dir, raw_meal_donor, capsys):
        cfg = write_config(
            tmp_path / "fc.json", seed=5, out_dir=str(tmp_path / "fc"),
            series_csv=str(synth_dir / "series" / "S000.csv"), similar_series=[str(raw_meal_donor)],
            draws=4, burn=1,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        assert "raw item requires a glycemic table" in capsys.readouterr().err

    def test_future_rows_read_donors_at_forecast_time_of_day(self, tmp_path, monkeypatch):
        # A 100-step tester from 00:00 is not a whole number of days: its four
        # future rows are 01:00-01:45 of the second day, not 00:00-00:45.
        series, _ = synth.gen_cgm_series(synth.SynthConfig(n_subjects=8, n_days=3, seed=1))
        tester, donor = series[0], series[1]
        meals = tuple(meal for meal in tester.meals if meal.grid_index < 100)
        tester = replace(tester, cgm=tester.cgm[:100], meals=meals)
        write_timeseries(tmp_path / "tester.csv", tester)
        write_timeseries(tmp_path / "donor.csv", donor)
        seen = {}
        forecast = cli.posterior_forecast

        def spy(draws, model, horizon, x_future=None, **kwargs):
            seen["x_future"] = x_future
            return forecast(draws, model, horizon, x_future, **kwargs)

        monkeypatch.setattr(cli, "posterior_forecast", spy)
        cfg = write_config(
            tmp_path / "fc.json", seed=5, out_dir=str(tmp_path / "fc"),
            series_csv=str(tmp_path / "tester.csv"), similar_series=[str(tmp_path / "donor.csv")],
            draws=4, burn=1,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "60"]) == 0
        np.testing.assert_allclose(seen["x_future"][:, 0], [145.6, 146.8, 146.9, 148.2], atol=0.05)

    def test_degenerate_deterministic_forecast(self, tmp_path, synth_dir):
        out = tmp_path / "fc"
        cfg = write_config(
            tmp_path / "fc.json",
            seed=5,
            out_dir=str(out),
            series_csv=str(synth_dir / "series" / "S000.csv"),
            draws=1,
            burn=0,
            deterministic=True,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 0
        lines = (out / "forecast_S000.csv").read_text().strip().splitlines()
        assert lines[0] == "timestamp,point,lower95,upper95"
        assert len(lines) == 2
        _, point, lower, upper = lines[1].split(",")
        assert point == lower == upper  # single deterministic path

    def test_horizon_minutes_mapping(self, tmp_path, synth_dir):
        out = tmp_path / "fc60"
        cfg = write_config(
            tmp_path / "fc.json",
            seed=5,
            out_dir=str(out),
            series_csv=str(synth_dir / "series" / "S001.csv"),
            draws=40,
            burn=10,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "60"]) == 0
        lines = (out / "forecast_S001.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # four 15-minute steps

    def test_custom_component_document(self, tmp_path, synth_dir):
        out = tmp_path / "fc_custom"
        cfg = write_config(
            tmp_path / "fc.json",
            seed=5,
            out_dir=str(out),
            series_csv=str(synth_dir / "series" / "S002.csv"),
            draws=30,
            burn=10,
            components=[
                {"kind": "semi_local_trend"},
                {"kind": "seasonal", "name": "day", "n_seasons": 4, "durations": [24, 24, 24, 24]},
            ],
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 0
        assert (out / "forecast_S002.csv").exists()


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["synth", "--config", str(bad)]) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "learn.json", seed=0, out_dir=str(tmp_path / "o"))
        assert main(["learn", "--config", cfg]) == 2
        assert "requires key" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "pre.json",
            seed=0,
            out_dir=str(tmp_path / "o"),
            clinical_csv=str(tmp_path / "absent.csv"),
        )
        assert main(["preprocess", "--config", cfg]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, message",
        [('{"nodes": ["a"]}', "lacks key 'arcs'"), ("{not json", "not valid JSON")],
        ids=["no-arcs", "not-json"],
    )
    def test_malformed_network_json(self, tmp_path, synth_dir, capsys, document, message):
        network = tmp_path / "network.json"
        network.write_text(document, encoding="utf-8")
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(tmp_path / "o"), series_dir=str(synth_dir / "series"),
            clinical_csv=str(synth_dir / "clinical.csv"), network_json=str(network), draws=20, burn=5,
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(network) in err and message in err

    def test_malformed_component_document(self, tmp_path, synth_dir, capsys):
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(tmp_path / "o"),
            series_csv=str(synth_dir / "series" / "S000.csv"), draws=20, burn=5,
            components=[{"kind": "semi_local_trend"}, {"kind": "seasonal"}],
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        assert "error: component 1: missing key 'n_seasons'" in capsys.readouterr().err

    def test_non_finite_prior_in_component_document(self, tmp_path, synth_dir, capsys):
        # json.dumps writes NaN, and Python's json reads it back: the document, not the fit, must refuse it.
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(tmp_path / "o"),
            series_csv=str(synth_dir / "series" / "S000.csv"), draws=20, burn=5,
            components=[
                {"kind": "semi_local_trend"},
                {"kind": "seasonal", "n_seasons": 2, "durations": [48, 48], "var_prior": {"df": 1, "guess": math.nan}},
            ],
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: component 1: malformed entry") and "finite positive df and guess" in err

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("draws", "abc", "an integer"),
            ("split_ratio", "x", "a number"),
            ("horizons", "1", "a list of integer steps"),
            ("horizons", [1.5], "a list of integer steps"),
            ("m_similar", None, "an integer"),
            ("seed", "abc", "an integer"),
            ("draws", 20.7, "an integer"),
            ("burn", True, "an integer"),
            ("split_ratio", True, "a number"),
            ("horizons", [True], "a list of integer steps"),
        ],
        ids=[
            "draws", "split_ratio", "horizons-string", "horizons-float", "m_similar-null", "seed",
            "draws-float", "burn-boolean", "split_ratio-boolean", "horizons-boolean",
        ],
    )
    def test_malformed_config_value(self, tmp_path, capsys, key, value, expected):
        cfg = write_config(tmp_path / "ev.json", out_dir=str(tmp_path / "o"), **{key: value})
        assert main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key {key!r} must be {expected}, got {value!r}\n"

    def test_integer_keys_take_only_integers(self):
        # int() would truncate 20.7 and read true as 1.
        with pytest.raises(cli.ConfigError, match="config key 'draws' must be an integer, got 20.7"):
            cli._settings({"draws": 20.7, "burn": True}, cli.EVAL_KEYS)
        with pytest.raises(cli.ConfigError, match="config key 'burn' must be an integer, got True"):
            cli._settings({"draws": 20, "burn": True}, cli.EVAL_KEYS)
        assert cli._settings({"draws": 20, "burn": 5, "split_ratio": 1}, cli.EVAL_KEYS) == {
            "draws": 20, "burn": 5, "split_ratio": 1.0,
        }

    @pytest.mark.parametrize(
        "command, key",
        [("evaluate", "series"), ("forecast", "similar_series"), ("evaluate", "subjects"), ("ablate", "removals")],
    )
    def test_list_key_refuses_a_lone_string(self, tmp_path, synth_dir, capsys, command, key):
        # Iterated as given, a string would be read character by character.
        value = {"removals": "day", "subjects": "S000"}.get(key, str(synth_dir / "series" / "S001.csv"))
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "cfg.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"),
            series_csv=str(synth_dir / "series" / "S000.csv"), draws=20, burn=5, **{key: value},
        )
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key {key!r} must be a list of strings, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("synth", "egfr_gender_factor"), ("forecast", "deterministic")])
    def test_boolean_key_refuses_string(self, tmp_path, synth_dir, capsys, command, key):
        # bool("false") is True: a string must not pass for a boolean.
        series = str(synth_dir / "series" / "S000.csv")
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "o"), series_csv=series, **{key: "false"})
        assert main([command, "--config", cfg]) == 2
        assert f"error: config key {key!r} must be true or false" in capsys.readouterr().err
        assert cli._settings({key: False}, {key: bool}) == {key: False}

    def test_unknown_subject(self, tmp_path, synth_dir, capsys):
        cfg = write_config(
            tmp_path / "ev.json",
            seed=0,
            out_dir=str(tmp_path / "o"),
            series_dir=str(synth_dir / "series"),
            draws=20,
            burn=5,
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "NOPE"]) == 2

    def test_repeated_subject(self, tmp_path, synth_dir, capsys):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"), draws=20, burn=5
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000,S000"]) == 2
        assert "listed more than once: S000" in capsys.readouterr().err
        assert not (out / "metrics.json").exists() and not (out / "manifests.jsonl").exists()


class TestPreprocessCommand:
    def test_outputs(self, tmp_path, synth_dir):
        out = tmp_path / "pre"
        cfg = write_config(
            tmp_path / "pre.json",
            seed=0,
            out_dir=str(out),
            clinical_csv=str(synth_dir / "clinical.csv"),
            series_dir=str(synth_dir / "series"),
            gl_table=str(synth_dir / "gl_table.csv"),
        )
        assert main(["preprocess", "--config", cfg]) == 0
        for name in ("clinical_clean.csv", "exclusions.jsonl", "encoded.csv", "encoded_meta.json"):
            assert (out / name).exists()
        assert len(list((out / "regressors").glob("*.csv"))) == 4


class TestMarkerInference:
    def test_each_pool_subject_inferred_once_per_run(self, tmp_path, synth_dir, monkeypatch):
        inferred = []
        pools = []
        infer, select = bayesnet.infer_markers, similarity.select_similar

        def infer_spy(network, evidence):
            inferred.append(evidence)
            return infer(network, evidence)

        def select_spy(points, tester, m):
            pools.append({p.subject_id for p in points})
            return select(points, tester, m)

        monkeypatch.setattr(bayesnet, "infer_markers", infer_spy)
        monkeypatch.setattr(similarity, "select_similar", select_spy)
        cfg = write_config(
            tmp_path / "eval.json", seed=3, out_dir=str(tmp_path / "out"),
            series_dir=str(synth_dir / "series"), clinical_csv=str(synth_dir / "clinical.csv"),
            bootstrap=2, draws=12, burn=2, horizons=[1],
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000,S001,S002"]) == 0
        assert len(pools) == 3
        assert sum(len(pool) for pool in pools) > len(set().union(*pools))
        assert len(inferred) == len(set().union(*pools))
