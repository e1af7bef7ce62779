import json

import numpy as np
import pytest

from glycast import bayesnet, similarity
from glycast.cli import main
from glycast.preprocess import DiscreteDataset
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
    @pytest.mark.parametrize("command", ["evaluate", "learn"])
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


class TestForecastCommand:
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
