import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import glycast
from glycast import bayesnet, cli, preprocess, similarity, synth
from glycast.bsts.components import SpikeSlabSettings, TrendPriors, VariancePrior
from glycast.casts import FIELD_CASTS, checked, number
from glycast.cli import main
from glycast.dataset import STEP_MINUTES, MealEvent, load_clinical, load_gl_table, load_timeseries, write_timeseries
from glycast.preprocess import DiscreteDataset, build_meal_regressor
from glycast.errors import RangeError, SchemaError
from glycast.evaluate import EvalConfig
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


class TestRuntimeImports:
    def test_no_scipy_module_is_loaded(self, tmp_path):
        """numpy is the one runtime dependency: a fresh interpreter imports glycast and runs a command without scipy."""
        src = str(Path(glycast.__file__).resolve().parents[1])
        cfg = write_config(tmp_path / "synth.json", seed=7, n_subjects=3, n_days=1)
        script = (
            "import json, sys\n"
            "import glycast, glycast.cli\n"
            f"assert glycast.cli.main(['synth', '--config', {cfg!r}, '--out', {str(tmp_path / 'data')!r}]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300, check=False
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == []
        assert (tmp_path / "data" / "manifests.jsonl").exists()


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
        assert 1 <= entry["tie_group"] <= 3  # the second donor among at most the three other subjects

    def test_learn_recovers_oracle_skeleton(self):
        # Three variables, few enough for the DAG enumeration oracle; `learn` runs `_learn_network` on its encoding.
        rng = np.random.default_rng(0)
        n = 1500
        a = rng.integers(0, 3, n)
        b = (a + (rng.random(n) < 0.12).astype(np.int64)) % 3
        c = (b + (rng.random(n) < 0.12).astype(np.int64)) % 3
        data = DiscreteDataset(
            variables=("a", "b", "c"), cards=(3, 3, 3), matrix=np.column_stack([a, b, c])
        )
        strengths, consensus, model = cli._learn_network({"bootstrap": 15}, data, seed=1)
        network = bayesnet.network_to_json(consensus, strengths)
        learned = {frozenset((arc["from"], arc["to"])) for arc in network["arcs"]}
        oracle = {frozenset(arc) for arc in dag_enumeration_oracle(data).arcs}
        assert learned == oracle
        assert set(bayesnet.cpts_to_json(model)) == {"a", "b", "c"}


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
        inputs = {"clinical_csv": str(synth_dir / "clinical.csv")}
        extra = []
        if command != "learn":
            inputs["series_dir"] = str(synth_dir / "series")
            extra = ["--subjects", "S000"]
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


class TestSettingsCasts:
    """Each setting's type is its dataclass annotation, read through FIELD_CASTS."""

    UNIT = VariancePrior(1, 1)
    SETTINGS = {  # each settings dataclass, with the arguments it requires
        bayesnet.TabuParams: {},
        synth.SynthConfig: {},
        EvalConfig: {},
        VariancePrior: {"df": 1.0, "guess": 1.0},
        TrendPriors: {"level_var": UNIT, "slope_var": UNIT, "d_mean": 0.0, "d_sd": 1.0},
        SpikeSlabSettings: {},
    }
    NESTED_PRIORS = {(TrendPriors, "level_var"), (TrendPriors, "slope_var")}  # checked by their own class

    def test_every_field_has_a_cast_or_is_a_nested_prior(self):
        # An annotation outside FIELD_CASTS, say Optional[int], would skip the cast without a word.
        for settings in self.SETTINGS:
            for setting in fields(settings):
                assert setting.type in FIELD_CASTS or (settings, setting.name) in self.NESTED_PRIORS, setting

    def test_every_cast_field_refuses_a_string_by_name(self):
        for settings, required in self.SETTINGS.items():
            for setting in fields(settings):
                if setting.type in FIELD_CASTS:
                    with pytest.raises(SchemaError, match=f"^{setting.name} must be "):
                        settings(**{**required, setting.name: "1"})

    def test_wrong_type_is_a_schema_error_and_outside_the_domain_a_range_error(self):
        with pytest.raises(SchemaError, match="^x must be a number, got '1'$"):
            checked("x", "1", number)
        for value in (math.nan, -math.inf, 10**400):
            with pytest.raises(RangeError, match="^x must be a number, got "):
                checked("x", value, number)
        assert checked("x", np.float32(0.5), number) == 0.5 and checked("x", np.int64(3), number) == 3.0

    def test_key_tables_are_the_dataclass_fields(self):
        assert cli.TABU_KEYS == {f.name: FIELD_CASTS[f.type] for f in fields(bayesnet.TabuParams)}
        assert cli.EVAL_KEYS == {f.name: FIELD_CASTS[f.type] for f in fields(EvalConfig)}
        assert set(cli.SYNTH_KEYS) == {
            "n_subjects", "n_days", "seed", "day_amplitude", "meal_amplitude", "circadian_amplitude", "noise_sd",
            "latent_share", "latent_sd", "latent_ar", "missing_rate", "egfr_gender_factor",
        }

    def test_horizon_choices_are_steps_of_the_grid(self):
        assert cli.HORIZON_MINUTES == {15: 1, 30: 2, 45: 3, 60: 4}
        assert all(minutes == steps * STEP_MINUTES for minutes, steps in cli.HORIZON_MINUTES.items())

    @pytest.mark.parametrize("value", [10**400, -10**400])
    def test_config_number_beyond_the_float_range_names_the_key(self, tmp_path, capsys, value):
        out = tmp_path / "data"
        cfg = write_config(tmp_path / "synth.json", out_dir=str(out), n_subjects=2, n_days=1, noise_sd=value)
        assert main(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key 'noise_sd' must be a number, got {value!r}\n"
        assert not out.exists()

    def test_synth_refuses_a_fractional_day_count(self, tmp_path, capsys):
        out = tmp_path / "data"
        cfg = write_config(tmp_path / "synth.json", seed=1, out_dir=str(out), n_subjects=2, n_days=2.5)
        assert main(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: config key 'n_days' must be an integer, got 2.5\n"
        assert not out.exists()

    def test_evaluate_refuses_a_boolean_donor_count_before_stage1(self, tmp_path, synth_dir, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_stage1", lambda *args: pytest.fail("Stage 1 ran"))
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json", seed=3, out_dir=str(out), series_dir=str(synth_dir / "series"),
            clinical_csv=str(synth_dir / "clinical.csv"), m_similar=True,
        )
        assert main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: config key 'm_similar' must be an integer, got True\n"
        assert not out.exists()


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

        def spy(base_cfg, removals, subjects):
            seen.extend(subjects)
            raise _Stop  # the ablation fits are not under test

        monkeypatch.setattr(cli, "run_ablation", spy)
        with pytest.raises(_Stop):
            main(["ablate", "--config", cfg, "--subjects", testers])
        assert [series.subject_id for series, _ in seen] == testers.split(",")
        for series, pipeline in seen:
            donors = [n[len("sim_"): -len("_cgm")] for n in pipeline.regressor_names if n.endswith("_cgm")]
            expected = [d["subject_id"] for d in selections[series.subject_id]["selected"]]
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

    def test_components_refused_before_stage1(self, tmp_path, synth_dir, capsys, monkeypatch):
        # Its rows switch off seasonals of the standard stack, which a components document replaces.
        def stage1(*args):
            raise AssertionError("Stage 1 ran")

        monkeypatch.setattr(cli, "_stage1", stage1)
        out = tmp_path / "ab"
        cfg = write_config(
            tmp_path / "ab.json", seed=3, out_dir=str(out), series_dir=str(synth_dir / "series"),
            clinical_csv=str(synth_dir / "clinical.csv"), removals=["day_seasonal"], draws=12, burn=2,
            components=[{"kind": "semi_local_trend"}],
        )
        assert main(["ablate", "--config", cfg, "--subjects", "S000"]) == 2
        assert "'components' replaces" in capsys.readouterr().err
        assert not out.exists()


class TestManifestInputs:
    @pytest.mark.parametrize("command", ["evaluate", "ablate", "forecast"])
    def test_every_config_input_is_recorded(self, tmp_path, synth_dir, command):
        """Every file a command read, and only those: of `series_dir`, the tester's and its donors' series."""
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
            expected = {inputs[k] for k in ("clinical_csv", "gl_table", "network_json")}
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json", seed=3, out_dir=str(out), draws=12, burn=2, horizons=[1],
            subjects=["S000"], removals=["similar_subjects"], **inputs,
        )
        assert main([command, "--config", cfg]) == 0
        if command != "forecast":
            logged = out
            if command == "ablate":  # ablate selects the donors evaluate logs
                logged = tmp_path / "evaluated"
                assert main(["evaluate", "--config", cfg, "--out", str(logged)]) == 0
            selections = json.loads((logged / "selections.json").read_text(encoding="utf-8"))
            donors = [entry["subject_id"] for entry in selections["S000"]["selected"]]
            assert len(donors) == 2
            expected |= {str(series / f"{sid}.csv") for sid in ["S000", *donors]}
        (manifest,) = read_manifests(out)
        assert manifest["command"] == command
        assert set(manifest["inputs"]) == expected


class TestSeriesPool:
    """`series_dir` is listed by file name; a series is read when a tester or donor needs it, once."""

    @pytest.fixture
    def pool_cfg(self, tmp_path, synth_dir):
        (synth_dir / "series" / "ZZZ.csv").write_text("timestamp,cgm_mgdl\nnot a time,abc\n", encoding="utf-8")
        return write_config(
            tmp_path / "pool.json", seed=3, out_dir=str(tmp_path / "out"), draws=12, burn=2, horizons=[1],
            **two_stage_inputs(synth_dir),
        )

    def test_unused_malformed_file_is_never_read(self, tmp_path, synth_dir, pool_cfg):
        assert main(["evaluate", "--config", pool_cfg, "--subjects", "S000"]) == 0
        (manifest,) = read_manifests(tmp_path / "out")
        assert str(synth_dir / "series" / "ZZZ.csv") not in manifest["inputs"]

    def test_malformed_tester_file_exits_2(self, tmp_path, pool_cfg, capsys):
        assert main(["evaluate", "--config", pool_cfg, "--subjects", "ZZZ"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "manifests.jsonl").exists()

    def test_each_file_read_once(self, tmp_path, synth_dir, monkeypatch):
        read = []
        load = cli.load_timeseries

        def spy(path, *args, **kwargs):
            read.append(str(path))
            return load(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_timeseries", spy)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "ev.json", seed=3, out_dir=str(out), draws=12, burn=2, horizons=[1],
            **two_stage_inputs(synth_dir),
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000,S001"]) == 0
        selections = json.loads((out / "selections.json").read_text(encoding="utf-8"))
        needs = {tester: {tester} | {d["subject_id"] for d in log["selected"]} for tester, log in selections.items()}
        assert needs["S000"] & needs["S001"]  # the two testers' series and donors overlap
        used = needs["S000"] | needs["S001"]
        assert sorted(read) == sorted(str(synth_dir / "series" / f"{sid}.csv") for sid in used)
        (manifest,) = read_manifests(out)
        assert {p for p in manifest["inputs"] if p.endswith(".csv") and "/series/" in p} == set(read)


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
        learned = run("learn", "learned", bootstrap=2, clinical_csv=str(data / "clinical.csv"))
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
        learn = write_config(
            tmp_path / "learn.json", seed=3, out_dir=str(work), bootstrap=6, clinical_csv=str(data / "clinical.csv"),
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

    def test_regression_entry_without_donors_is_left_out(self, tmp_path, synth_dir):
        # Without clinical_csv no tester has donors: the regression entry ended the run with exit 2.
        day = {"kind": "seasonal", "name": "day", "n_seasons": 4, "durations": [24] * 4}
        stack = [{"kind": "semi_local_trend"}, day]
        regression = {"kind": "regression", "spike_slab": {"expected_model_size": 1.0, "information_weight": 0.25}}
        written = []
        for name, components in (("plain", stack), ("regression", stack + [regression])):
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.json", seed=5, out_dir=str(out), series_dir=str(synth_dir / "series"),
                subjects=["S000"], draws=20, burn=5, components=components,
            )
            assert main(["evaluate", "--config", cfg]) == 0
            written.append((out / "metrics.json").read_bytes())
        assert written[0] == written[1]


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

    def test_series_entries_with_one_file_name_refused(self, tmp_path, synth_dir, capsys):
        # The second S000.csv replaced the first in the subject map: evaluate reported one S000 from one of them.
        other = tmp_path / "b" / "S000.csv"
        other.parent.mkdir()
        shutil.copy(synth_dir / "series" / "S001.csv", other)
        first = synth_dir / "series" / "S000.csv"
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series=[str(first), str(other)], draws=20, burn=5,
        )
        assert main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: evaluate: series {first} and {other} are both subject S000\n"
        assert not out.exists()
        # A `series` entry still replaces the `series_dir` file with its file name.
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"),
            series=[str(other)], subjects=["S000"], draws=20, burn=5,
        )
        assert main(["evaluate", "--config", cfg]) == 0
        (manifest,) = read_manifests(out)
        assert str(other) in manifest["inputs"] and str(first) not in manifest["inputs"]

    def test_missing_input_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "pre.json",
            seed=0,
            out_dir=str(tmp_path / "o"),
            clinical_csv=str(tmp_path / "absent.csv"),
        )
        assert main(["learn", "--config", cfg]) == 2
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

    def test_mixed_time_zones_exit_2(self, tmp_path, synth_dir, capsys):
        # A meal row without a UTC offset under the synthetic series' offset-aware grid.
        lines = (synth_dir / "series" / "S000.csv").read_text(encoding="utf-8").splitlines()
        stamp = lines[5].split(",")[0]
        assert lines[0] == "timestamp,cgm_mgdl,meal_desc,meal_grams,meal_gl" and stamp.endswith("+00:00")
        lines.insert(6, stamp[: -len("+00:00")] + ",,,,30")
        series = tmp_path / "mixed.csv"
        series.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(tmp_path / "o"), series_csv=str(series), draws=20, burn=5,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 5" in err and "offset-aware and naive" in err

    def test_naive_donor_of_offset_aware_tester_exits_2(self, tmp_path, synth_dir, capsys):
        # The donor's timestamps lose their UTC offset; the tester's keep theirs.
        text = (synth_dir / "series" / "S001.csv").read_text(encoding="utf-8")
        assert "+00:00" in text
        donor = tmp_path / "S001_naive.csv"
        donor.write_text(text.replace("+00:00", ""), encoding="utf-8")
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(tmp_path / "o"),
            series_csv=str(synth_dir / "series" / "S000.csv"), similar_series=[str(donor)], draws=20, burn=5,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tester S000 and donor S001" in err
        assert not (tmp_path / "o" / "forecast_S000.csv").exists()

    @pytest.mark.parametrize(
        "donors, message",
        [
            (["S000", "S001"], "similar_series {S000} is the tester, subject S000"),
            (["S001", "S002", "S001"], "similar_series {S001} and {S001} are both subject S001"),
        ],
        ids=["tester", "repeated"],
    )
    def test_bad_donor_list_refused(self, tmp_path, synth_dir, capsys, monkeypatch, donors, message):
        # The tester's own readings, or a second copy of a donor, became columns of the regression's design.
        def unfitted(*args, **kwargs):
            raise AssertionError("fitted a refused donor list")

        monkeypatch.setattr(cli.ForecastPipeline, "fit", unfitted)
        paths = {sid: str(synth_dir / "series" / f"{sid}.csv") for sid in ("S000", "S001", "S002")}
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(out), series_csv=paths["S000"],
            similar_series=[paths[sid] for sid in donors], draws=20, burn=5,
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        assert capsys.readouterr().err == f"error: forecast: {message.format(**paths)}\n"
        assert not out.exists()

    def test_malformed_component_document(self, tmp_path, synth_dir, capsys):
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(tmp_path / "o"),
            series_csv=str(synth_dir / "series" / "S000.csv"), draws=20, burn=5,
            components=[{"kind": "semi_local_trend"}, {"kind": "seasonal"}],
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        assert "error: component 1: missing key 'n_seasons'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"durations": [24.5, 24, 24, 23.5]}, "'durations' must be a list of integers, got [24.5, 24, 24, 23.5]"),
            ({"n_seasons": 4.9}, "'n_seasons' must be an integer, got 4.9"),
            ({"phase": "3"}, "'phase' must be an integer, got '3'"),
            ({"durations": [24, 24, True, 24]}, "'durations' must be a list of integers, got [24, 24, True, 24]"),
        ],
        ids=["fractional-durations", "fractional-n_seasons", "string-phase", "boolean-duration"],
    )
    def test_component_document_takes_integers_as_they_are(self, tmp_path, synth_dir, capsys, entry, message):
        # int() made 24.5 + 24 + 24 + 23.5 a 95-step cycle, 4.9 seasons 4 and "3" a phase.
        day = {"kind": "seasonal", "name": "day", "n_seasons": 4, "durations": [24, 24, 24, 24], **entry}
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(out), series_csv=str(synth_dir / "series" / "S000.csv"),
            draws=20, burn=5, components=[{"kind": "semi_local_trend"}, day],
        )
        assert main(["forecast", "--config", cfg, "--horizon", "15"]) == 2
        assert capsys.readouterr().err == f"error: component 1: malformed entry: {message}\n"
        assert not (out / "forecast_S000.csv").exists()

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
        assert err.startswith("error: component 1: malformed entry") and "'guess' must be a number, got nan" in err

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("draws", "abc", "an integer"),
            ("split_ratio", "x", "a number"),
            ("horizons", "1", "a list of integers"),
            ("horizons", [1.5], "a list of integers"),
            ("m_similar", None, "an integer"),
            ("seed", "abc", "an integer"),
            ("draws", 20.7, "an integer"),
            ("burn", True, "an integer"),
            ("split_ratio", True, "a number"),
            ("horizons", [True], "a list of integers"),
            ("split_ratio", "0.8", "a number"),
            ("split_ratio", math.nan, "a number"),
            ("hypo_max", -math.inf, "a number"),
        ],
        ids=[
            "draws", "split_ratio", "horizons-string", "horizons-float", "m_similar-null", "seed",
            "draws-float", "burn-boolean", "split_ratio-boolean", "horizons-boolean",
            "split_ratio-numeric-string", "split_ratio-nan", "hypo_max-infinity",
        ],
    )
    def test_malformed_config_value(self, tmp_path, capsys, key, value, expected):
        cfg = write_config(tmp_path / "ev.json", out_dir=str(tmp_path / "o"), **{key: value})
        assert main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key {key!r} must be {expected}, got {value!r}\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, "nan"], ids=["nan", "infinity", "string"])
    def test_learn_refuses_a_non_finite_alpha(self, tmp_path, synth_dir, capsys, value):
        # Python's json reads NaN: a NaN alpha made every CPT row uniform, and learn exited 0.
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "learn.json", seed=1, out_dir=str(out), clinical_csv=str(synth_dir / "clinical.csv"),
            bootstrap=2, alpha=value,
        )
        assert main(["learn", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key 'alpha' must be a number, got {value!r}\n"
        assert not out.exists()  # nor exclusions.jsonl and clinical_clean.csv, which need no alpha

    @pytest.mark.parametrize("key", ["day_amplitude", "noise_sd", "latent_sd"])
    def test_synth_refuses_a_non_finite_number(self, tmp_path, capsys, key):
        # A NaN amplitude wrote all-NaN series that load_timeseries then refused; synth exited 0.
        out = tmp_path / "data"
        cfg = write_config(tmp_path / "synth.json", seed=1, out_dir=str(out), n_subjects=2, n_days=1, **{key: math.nan})
        assert main(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key {key!r} must be a number, got nan\n"
        assert not out.exists()

    def test_synth_refuses_a_negative_spread(self, tmp_path, capsys):
        # numpy's normal raised a bare "ValueError: scale < 0" mid-draw, and synth exited 1 with a traceback.
        out = tmp_path / "data"
        cfg = write_config(tmp_path / "synth.json", seed=1, out_dir=str(out), n_subjects=2, n_days=1, latent_sd=-1.0)
        assert main(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: latent_sd must be >= 0\n"
        assert not (out / "clinical.csv").exists()

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
        assert cli._settings({key: False}, {key: cli.boolean}) == {key: False}

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

    def test_repeated_clinical_subject_exits_2(self, tmp_path, synth_dir, capsys):
        clinical = synth_dir / "clinical.csv"
        lines = clinical.read_text().splitlines()
        clinical.write_text("\n".join(lines + [lines[2]]) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"),
            clinical_csv=str(clinical), bootstrap=2, draws=12, burn=2, horizons=[1],
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 2
        assert "rows 1 and 4: subject_id S001 repeated" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("steps", [0, -1, 97])
    def test_forecast_horizon_refused_before_fit(self, tmp_path, synth_dir, capsys, monkeypatch, steps):
        def no_fit(*args, **kwargs):
            raise AssertionError("mcmc_fit ran")

        monkeypatch.setattr(glycast.evaluate, "mcmc_fit", no_fit)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "fc.json", seed=0, out_dir=str(out), series_csv=str(synth_dir / "series" / "S000.csv"),
            similar_series=[str(synth_dir / "series" / "S001.csv")], horizon_steps=steps, draws=20, burn=5,
        )
        assert main(["forecast", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key 'horizon_steps' must lie in 1..96, got {steps}\n"
        assert not out.exists()

    def test_m_similar_refused_before_stage1(self, tmp_path, synth_dir, capsys, monkeypatch):
        def no_bootstrap(*args, **kwargs):
            raise AssertionError("bootstrap ran")

        monkeypatch.setattr(bayesnet, "bootstrap_consensus", no_bootstrap)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"),
            clinical_csv=str(synth_dir / "clinical.csv"), m_similar=0, draws=20, burn=5,
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 2
        assert "m_similar" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, output", [
        ("evaluate", "metrics.json"), ("ablate", "ablation.json"), ("forecast", "forecast_S000.csv"),
    ])
    def test_negative_burn_refused_before_stage1(self, tmp_path, synth_dir, capsys, monkeypatch, command, output):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return bootstrap(*args, **kwargs)

        bootstrap = bayesnet.bootstrap_consensus
        monkeypatch.setattr(bayesnet, "bootstrap_consensus", spy)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"),
            series_csv=str(synth_dir / "series" / "S000.csv"), clinical_csv=str(synth_dir / "clinical.csv"),
            bootstrap=2, draws=20, burn=-1, removals=["day_seasonal"],
        )
        assert main([command, "--config", cfg, "--subjects", "S000"]) == 2
        assert capsys.readouterr().err == "error: burn must be >= 0, got -1\n"
        assert calls == []
        assert not (out / output).exists()

    @pytest.mark.parametrize("components, message", [
        ([{"kind": "semi_local_trend"}, {"kind": "seasonal", "name": "x", "n_seasons": 1, "durations": [24]}],
         "component 1: malformed entry: seasonal 'x': n_seasons must be >= 2"),
        ([{"kind": "semi_local_trend"}, {"kind": "seasonal", "name": "x", "n_seasons": 4, "durations": [32] * 3}],
         "component 1: malformed entry: seasonal 'x': 3 durations do not tile 4 seasons"),
        ([{"kind": "semi_local_trend"},
          {"kind": "seasonal", "name": "x", "n_seasons": 4, "durations": [24] * 4, "phase": 96}],
         "component 1: malformed entry: seasonal 'x': phase must lie in 0..95"),
        ([{"kind": "seasonal", "name": "day", "n_seasons": 4, "durations": [24] * 4}],
         "exactly one semi_local_trend component is required"),
        ([{"kind": "semi_local_trend"}] * 2, "exactly one semi_local_trend component is required"),
        ([{"kind": "semi_local_trend"}] + [{"kind": "regression"}] * 2,
         "at most one regression component is allowed"),
        ([{"kind": "semi_local_trend"}, {"kind": "regression", "columns": ["foo"]}],
         "component 1: malformed entry: a regression takes no 'columns': its columns are the donors' design"),
        ([{"kind": "semi_local_trend"}, {"kind": "wavelet"}], "component 1: unknown kind 'wavelet'"),
        ([{"kind": "semi_local_trend"}, "x"], "component 1: an entry must be a JSON object, got 'x'"),
    ], ids=[
        "one-season", "short-durations", "phase-past-cycle", "no-trend", "two-trends", "two-regressions",
        "regression-columns", "unknown-kind", "not-an-object",
    ])
    def test_malformed_seasonal_refused_before_stage1(
        self, tmp_path, synth_dir, capsys, monkeypatch, components, message
    ):
        # The document itself is refused: a seasonal that cannot tile its cycle, a stack without exactly one
        # trend or with two regressions, or a regression naming columns the donors' design sets, never waits for
        # the bootstrap.
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return bootstrap(*args, **kwargs)

        bootstrap = bayesnet.bootstrap_consensus
        monkeypatch.setattr(bayesnet, "bootstrap_consensus", spy)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"),
            clinical_csv=str(synth_dir / "clinical.csv"), bootstrap=2, draws=20, burn=5, components=components,
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not (out / "metrics.json").exists()

    def test_repeated_horizons(self, tmp_path, synth_dir, capsys):
        # Each column and confusion row would be written twice.
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "ev.json", seed=0, out_dir=str(out), series_dir=str(synth_dir / "series"),
            horizons=[1, 1], draws=20, burn=5,
        )
        assert main(["evaluate", "--config", cfg, "--subjects", "S000"]) == 2
        assert "horizons must not repeat" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """A synthetic cohort (data/), shared by the malformed-input cases."""
    base = tmp_path_factory.mktemp("prepared")
    synth_cfg = write_config(base / "synth.json", seed=3, n_subjects=4, n_days=2)
    assert main(["synth", "--config", synth_cfg, "--out", str(base / "data")]) == 0
    return base


def _cell(row, column, value):
    """A CSV edit: the cell of data row `row` (from 0) under `column` replaced by `value`."""
    def edit(text):
        header, *rows = text.splitlines()
        cells = rows[row].split(",")
        cells[header.split(",").index(column)] = value
        rows[row] = ",".join(cells)
        return "\n".join([header, *rows]) + "\n"
    return edit


def _edited(tmp, sources):
    """Each (key, source, edit) as key -> path: the source, or its text edited into the case's directory."""
    paths = {}
    for key, source, edit in sources:
        paths[key] = source if edit is None else tmp / source.name
        if edit is not None:
            paths[key].write_text(edit(source.read_text(encoding="utf-8")), encoding="utf-8")
    return paths


def _learn(clinical=None, annotations=None):
    """A learn run on the prepared cohort's clinical CSV, edited by `clinical`, with `annotations` as annotations_csv."""
    def build(base, tmp):
        paths = _edited(tmp, [("clinical_csv", base / "data" / "clinical.csv", clinical)])
        cfg = {"clinical_csv": str(paths["clinical_csv"]), "bootstrap": 2}
        if annotations is not None:
            (tmp / "annotations.csv").write_text(annotations, encoding="utf-8")
            cfg["annotations_csv"] = str(tmp / "annotations.csv")
        return ["learn", "--config", write_config(tmp / "learn.json", **cfg)]
    return build


def _evaluate(series=None, gl_table=None):
    """An evaluate run of S000's series with the prepared glycemic table, each edited as given, without Stage 1."""
    def build(base, tmp):
        paths = _edited(tmp, [
            ("series", base / "data" / "series" / "S000.csv", series),
            ("gl_table", base / "data" / "gl_table.csv", gl_table),
        ])
        cfg = write_config(tmp / "ev.json", series=[str(paths["series"])], gl_table=str(paths["gl_table"]))
        return ["evaluate", "--config", cfg]
    return build


def _repeat_column(index):
    """A CSV edit: every line gains a copy of its cell at `index`, so the header names that column twice."""
    return lambda text: "".join(f"{line},{line.split(',')[index]}\n" for line in text.splitlines())


def _extra_cell(text):
    header, first, *rest = text.splitlines()
    return "\n".join([header, first + ",1", *rest]) + "\n"


def _latin1_clinical(base, tmp):
    text = (base / "data" / "clinical.csv").read_text(encoding="utf-8")
    (tmp / "clinical.csv").write_bytes(text.replace("S000", "S\xe9000").encode("latin-1"))
    return ["learn", "--config", write_config(tmp / "learn.json", clinical_csv=str(tmp / "clinical.csv"))]


def _directory_clinical(base, tmp):
    (tmp / "clinical.csv").mkdir()
    return ["learn", "--config", write_config(tmp / "learn.json", clinical_csv=str(tmp / "clinical.csv"))]


def _encoded_keys(base, tmp):
    """A learn config that names only `encoded_csv` and `encoded_meta`, keys learn does not read."""
    cfg = write_config(tmp / "learn.json", encoded_csv=str(tmp / "encoded.csv"), encoded_meta=str(tmp / "meta.json"))
    return ["learn", "--config", cfg]


def _latin1_config(base, tmp):
    (tmp / "synth.json").write_bytes('{"n_subjects": 2, "n_days": 1, "note": "\xe9"}'.encode("latin-1"))
    return ["synth", "--config", str(tmp / "synth.json")]


def _network_nodes(base, tmp):
    (tmp / "network.json").write_text(json.dumps({"nodes": "fpg", "arcs": []}), encoding="utf-8")
    cfg = write_config(
        tmp / "ev.json", series_dir=str(base / "data" / "series"), clinical_csv=str(base / "data" / "clinical.csv"),
        network_json=str(tmp / "network.json"), draws=12, burn=2,
    )
    return ["evaluate", "--config", cfg, "--subjects", "S000"]


def _component(entry):
    def build(base, tmp):
        cfg = write_config(
            tmp / "fc.json", series_csv=str(base / "data" / "series" / "S000.csv"), draws=12, burn=2,
            components=[{"kind": "semi_local_trend"}, entry],
        )
        return ["forecast", "--config", cfg, "--horizon", "15"]
    return build


def _synth_seed(seed, flag):
    def build(base, tmp):
        cfg = {"n_subjects": 2, "n_days": 1} if flag else {"n_subjects": 2, "n_days": 1, "seed": seed}
        argv = ["synth", "--config", write_config(tmp / "synth.json", **cfg)]
        return argv + ["--seed", str(seed)] if flag else argv
    return build


# (id, argv builder, what the one error line must hold: {tmp} is the case's directory)
MALFORMED_INPUTS = [
    ("clinical-non-numeric", _learn(clinical=_cell(0, "age", "abc")),
     "{tmp}/clinical.csv: row 0: column age holds 'abc', not a number"),
    ("clinical-gender", _learn(clinical=_cell(2, "gender", "other")),
     "{tmp}/clinical.csv: row 2: subject S002: gender must be male/female, got 'other'"),
    ("clinical-extra-cell", _learn(clinical=_extra_cell),
     "{tmp}/clinical.csv: row 0 holds 19 cells under 18 columns"),
    ("series-timestamp", _evaluate(series=_cell(3, "timestamp", "yesterday")),
     "{tmp}/S000.csv: row 3: column timestamp holds 'yesterday', not an RFC 3339 timestamp"),
    ("series-cgm-range", _evaluate(series=_cell(3, "cgm_mgdl", "900")),
     "{tmp}/S000.csv: subject S000: cgm value 900.0 at index 3 outside (20.0, 700.0) mg/dL"),
    ("series-grams-without-description", _evaluate(series=_cell(0, "meal_grams", "150")),
     "{tmp}/S000.csv: row 0: meal_grams without meal_desc"),
    ("gl-table-non-numeric", _evaluate(gl_table=_cell(1, "gi", "high")),
     "{tmp}/gl_table.csv: row 1: column gi holds 'high', not a number"),
    ("gl-table-repeated-column", _evaluate(gl_table=_repeat_column(1)),
     "{tmp}/gl_table.csv: column gi appears twice"),
    ("annotations-empty", _learn(annotations=""), "{tmp}/annotations.csv: empty file"),
    ("clinical-not-utf8", _latin1_clinical, "{tmp}/clinical.csv: not UTF-8 text"),
    ("clinical-directory", _directory_clinical, "{tmp}/clinical.csv"),
    ("learn-encoded-keys", _encoded_keys, "learn config requires key 'clinical_csv'"),
    ("config-not-utf8", _latin1_config, "{tmp}/synth.json: not UTF-8 text"),
    ("network-nodes-string", _network_nodes,
     "{tmp}/network.json: malformed network document: 'nodes' must be a list of strings, got 'fpg'"),
    ("seasonal-name", _component({"kind": "seasonal", "name": ["x"], "n_seasons": 2, "durations": [48, 48]}),
     "component 1: malformed entry: 'name' must be a string, got ['x']"),
    ("regression-columns", _component({"kind": "regression", "columns": [1, None]}),
     "component 1: malformed entry: a regression takes no 'columns': its columns are the donors' design"),
    ("seed-config", _synth_seed(-3, flag=False), "config key 'seed' must be a non-negative integer, got -3"),
    ("seed-flag", _synth_seed(-1, flag=True), "config key 'seed' must be a non-negative integer, got -1"),
]


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "build, expected", [case[1:] for case in MALFORMED_INPUTS], ids=[case[0] for case in MALFORMED_INPUTS]
    )
    def test_exits_2_with_one_error_line(self, prepared, tmp_path, capsys, build, expected):
        # Each of these ended in a traceback (exit 1), passed with a value truncated, dropped or read character by
        # character, or failed with an error that named neither the file nor the key.
        out = tmp_path / "out"
        argv = build(prepared, tmp_path) + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert expected.format(tmp=tmp_path) in err
        assert not out.exists()


class TestLearnCommand:
    def test_outputs(self, tmp_path, synth_dir):
        out = tmp_path / "learned"
        cfg = write_config(
            tmp_path / "learn.json", seed=0, out_dir=str(out), clinical_csv=str(synth_dir / "clinical.csv"), bootstrap=2,
        )
        assert main(["learn", "--config", cfg]) == 0
        written = {p.name for p in out.iterdir()}
        assert written == {"exclusions.jsonl", "clinical_clean.csv", "network.json", "cpts.json", "manifests.jsonl"}
        assert load_clinical(out / "clinical_clean.csv") == cli._encode({}, load_clinical(synth_dir / "clinical.csv"))[1]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("hba1c,fpgg,causal", "row 1: 'fpgg' is not a variable of the network"),
            ("bmi2,fpg,causal", "row 1: 'bmi2' is not a variable of the network"),
            ("fpg,fpg,causal", "row 1: self-arc on 'fpg'"),
        ],
        ids=["unknown-to", "unknown-from", "self-arc"],
    )
    def test_annotation_on_unknown_variable_refused(self, tmp_path, synth_dir, capsys, monkeypatch, row, message):
        # A row naming no variable of the network was dropped without a word.
        def unsearched(*args, **kwargs):
            raise AssertionError("ran the bootstrap on a refused annotation")

        monkeypatch.setattr(bayesnet, "bootstrap_consensus", unsearched)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(f"from,to,category\nhba1c,fpg,causal\n{row}\n", encoding="utf-8")
        out = tmp_path / "learned"
        cfg = write_config(
            tmp_path / "learn.json", seed=0, out_dir=str(out), clinical_csv=str(synth_dir / "clinical.csv"),
            annotations_csv=str(annotations), bootstrap=2,
        )
        assert main(["learn", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {annotations}: {message}\n"
        assert not out.exists()

    def test_json_lines_files_hold_one_sorted_object_per_line(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "learned"
        synth_cfg = write_config(
            tmp_path / "synth.json", seed=7, out_dir=str(data), n_subjects=30, n_days=1, missing_rate=0.3
        )
        assert main(["synth", "--config", synth_cfg]) == 0
        cfg = write_config(
            tmp_path / "learn.json", seed=0, out_dir=str(out), clinical_csv=str(data / "clinical.csv"), bootstrap=2
        )
        # Two runs into one out dir: the exclusion report is written anew and the manifest gains a line.
        for _ in range(2):
            assert main(["learn", "--config", cfg]) == 0
        lines = {
            name: (out / name).read_text(encoding="utf-8").splitlines() for name in ("exclusions.jsonl", "manifests.jsonl")
        }
        report = preprocess.exclude_incomplete(load_clinical(data / "clinical.csv"))[1]
        assert report and len(lines["exclusions.jsonl"]) == len(report) and len(lines["manifests.jsonl"]) == 2
        for line in lines["exclusions.jsonl"] + lines["manifests.jsonl"]:
            entry = json.loads(line)
            assert isinstance(entry, dict) and line == json.dumps(entry, sort_keys=True)
        assert [json.loads(line) for line in lines["exclusions.jsonl"]] == report


# Stage 1's byte record: `glycast synth` on 60 subjects with missing values, then `glycast learn` at bootstrap 20.
# Each resample draws rows more than once, the exclusions and imputation take part, and the consensus keeps arcs.
STAGE1_SYNTH_CONFIG = {"seed": 7, "n_subjects": 60, "n_days": 1, "missing_rate": 0.15}
STAGE1_LEARN_CONFIG = {"seed": 7, "bootstrap": 20}
STAGE1_FILE_DIGESTS = {
    "exclusions.jsonl": "9cf24809bd9f3458aa351a428534140b63578df47766852c3090dd4af1eed47c",
    "clinical_clean.csv": "f12496cc1094d51b3580d4dca63f2d9d9ddec8e49677627932a823b8eb378bbc",
    "network.json": "1a80f8ab6693643535409b0020d76da4e76e3d56baa3a89deb2dc254c90d7cae",
    "cpts.json": "7c1ede3c3ed106e0e12104d9ccb76098c8da6b38a2eb686ead88c780a4630845",
}


class TestStage1Bytes:
    def test_learn_files_keep_their_bytes(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "learned"
        synth_cfg = write_config(tmp_path / "synth.json", **STAGE1_SYNTH_CONFIG)
        assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == 0
        learn = write_config(tmp_path / "learn.json", clinical_csv=str(data / "clinical.csv"), **STAGE1_LEARN_CONFIG)
        assert main(["learn", "--config", learn, "--out", str(out)]) == 0
        names = ("exclusions.jsonl", "clinical_clean.csv", "network.json", "cpts.json")
        written = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
        assert written == STAGE1_FILE_DIGESTS


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

    def test_one_tester_reads_the_pool_a_cohort_run_reads(self, tmp_path, synth_dir, monkeypatch):
        common = dict(
            seed=3, series_dir=str(synth_dir / "series"), clinical_csv=str(synth_dir / "clinical.csv"),
            bootstrap=2, draws=12, burn=2, horizons=[1],
        )
        three = write_config(tmp_path / "three.json", out_dir=str(tmp_path / "three"), **common)
        one = write_config(tmp_path / "one.json", out_dir=str(tmp_path / "one"), **common)
        assert main(["evaluate", "--config", three, "--subjects", "S000,S001,S002"]) == 0

        inferred = []
        infer = bayesnet.infer_markers

        def infer_spy(network, evidence):
            inferred.append(evidence)
            return infer(network, evidence)

        monkeypatch.setattr(bayesnet, "infer_markers", infer_spy)
        assert main(["evaluate", "--config", one, "--subjects", "S001"]) == 0
        kept, _ = preprocess.exclude_incomplete(load_clinical(synth_dir / "clinical.csv"))
        assert len(inferred) == len(kept) == 4  # the tester too: every candidate once, whoever is tested
        selections = [json.loads((tmp_path / out / "selections.json").read_text()) for out in ("three", "one")]
        assert json.dumps(selections[1]["S001"]) == json.dumps(selections[0]["S001"])
