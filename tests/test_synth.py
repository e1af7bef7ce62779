import hashlib
import json
import math

import numpy as np
import pytest

from glycast.bayesnet import bic_score
from glycast.bsts import ParamPoint, assemble_model, semi_local_trend
from glycast.cli import main
from glycast.errors import CapacityError, RangeError
from glycast.preprocess import DiscreteDataset, build_meal_regressor
from glycast.synth import (
    CGM_CLIP,
    SynthConfig,
    clinical_truth_dag,
    dag_enumeration_oracle,
    default_gl_table,
    enumerate_dags,
    gaussian_predictive_oracle,
    gen_cgm_series,
    gen_clinical,
    mdrd_egfr,
    simulate_from_model,
)

UMOL = 88.4


class TestMdrd:
    def test_male_reference_value(self):
        # Direct evaluation: 186 * 1.0^-1.154 * 40^-0.203.
        expected = 186.0 * math.pow(1.0, -1.154) * math.pow(40.0, -0.203)
        assert mdrd_egfr(1.0, 40, "male") == pytest.approx(expected, rel=1e-12)
        assert mdrd_egfr(1.0, 40, "male") == pytest.approx(87.96, abs=0.01)

    def test_female_reference_value(self):
        assert mdrd_egfr(1.0, 40, "female") == pytest.approx(87.9575 * 0.742, abs=0.05)
        assert mdrd_egfr(1.0, 40, "female") == pytest.approx(65.27, abs=0.01)

    def test_gender_ratio_exact(self):
        ratio = mdrd_egfr(1.3, 61, "female") / mdrd_egfr(1.3, 61, "male")
        assert ratio == 0.742

    def test_ethnicity_factor(self):
        ratio = mdrd_egfr(0.9, 50, "male", "black") / mdrd_egfr(0.9, 50, "male", "other")
        assert ratio == pytest.approx(1.212)

    def test_monotonic_decreasing(self):
        crs = np.linspace(0.4, 3.0, 40)
        values = [mdrd_egfr(c, 50, "male") for c in crs]
        assert all(a > b for a, b in zip(values, values[1:]))
        ages = np.linspace(20, 90, 40)
        values = [mdrd_egfr(1.0, a, "female") for a in ages]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(RangeError):
            mdrd_egfr(0.0, 40, "male")
        with pytest.raises(RangeError):
            mdrd_egfr(1.0, -1, "male")


class TestSynthConfig:
    @pytest.mark.parametrize(
        "setting",
        [
            dict(noise_sd=math.nan), dict(noise_sd=math.inf), dict(noise_sd=-1.0),
            dict(day_amplitude=math.nan), dict(meal_amplitude=math.inf), dict(circadian_amplitude=-1.0),
            dict(latent_share=math.nan), dict(missing_rate=math.nan), dict(latent_sd=math.nan),
            dict(latent_ar=-math.inf), dict(baseline=math.nan), dict(meal_gl_sd=math.inf),
            dict(latent_sd=-1.0), dict(egfr_noise_sd=-1.0), dict(baseline_spread=-1.0), dict(meal_gl_sd=-1.0),
        ],
    )
    def test_non_finite_and_negative_settings_refused(self, setting):
        # A NaN amplitude, noise sd, latent sd or baseline wrote all-NaN series. A negative spread failed
        # mid-draw with numpy's bare "ValueError: scale < 0", or would flip gen_clinical's eGFR noise silently.
        with pytest.raises(RangeError):
            SynthConfig(**setting)


class TestGenClinical:
    def test_deterministic(self):
        cfg = SynthConfig(n_subjects=30, seed=5)
        a, dag_a = gen_clinical(cfg)
        b, dag_b = gen_clinical(cfg)
        assert a == b and dag_a.arcs == dag_b.arcs

    def test_empty(self):
        records, dag = gen_clinical(SynthConfig(n_subjects=0, seed=0))
        assert records == []
        assert len(dag.nodes) == 15

    def test_egfr_tracks_mdrd(self):
        records, _ = gen_clinical(SynthConfig(n_subjects=400, seed=1, egfr_noise_sd=5.0))
        generated = np.array([r.egfr for r in records])
        formula = np.array([mdrd_egfr(r.cr / UMOL, r.age, r.gender) for r in records])
        assert np.corrcoef(generated, formula)[0, 1] > 0.95

    def test_truth_dag_flag(self):
        with_factor = clinical_truth_dag(True)
        without = clinical_truth_dag(False)
        assert ("gender", "egfr") in with_factor.arcs
        assert ("gender", "egfr") not in without.arcs

    def test_missing_rate(self):
        records, _ = gen_clinical(SynthConfig(n_subjects=200, seed=2, missing_rate=0.1))
        n_missing = sum(len(r.missing_features()) for r in records)
        assert n_missing > 0
        assert all(r.fpg is not None and r.hpp2 is not None for r in records)


# SHA-256 of repr(records) for 40 records of each config, and of each file `glycast synth` writes for the
# cohort below: the generators' bytes, which every Stage-1 test and cohort of a seed depends on.
CLINICAL_DIGESTS = {
    (0, "missing_rate", 0.0): "c8206ec4ee7ec9a9dcfa4a04878a7c7e8cfe2474e43cab96e34840c3e34b3dca",
    (0, "missing_rate", 0.05): "2f3e65d22db5cf1f458026e86c0b137a8764b2466c84ac5128264b33f18a3596",
    (0, "missing_rate", 0.3): "f3e1a3c68e09adf77ab0a0e4156ba3ceed130de400f2db074f71c8f14f9ea84e",
    (0, "egfr_gender_factor", False): "9f12e5dc17ae6847ec08a92fb5ad0bf8a7c77db5c4e3d08c9520ba29885012a6",
    (0, "egfr_noise_sd", 0.0): "02d3a6d243b267fcc6c51485bf63c4e37947f81ffd34cd07ac3248c416a01755",
    (11, "missing_rate", 0.0): "96add5f85e356b6d65d210a495faa16989419024ece2dee78bacb36ce3102706",
    (11, "missing_rate", 0.05): "25a42537dac604e8abf170536da1c2dc3124a5cb0330e80796480c8379dcf404",
    (11, "missing_rate", 0.3): "1c12bdf8e16e39f8b145f6bb62fddf16099a3a4740063e7da83904b7f382c121",
    (11, "egfr_gender_factor", False): "8f4ad2b1034634eb7583aabee4cfc094132746cf642160c273a274e168421659",
    (11, "egfr_noise_sd", 0.0): "0ae71648e9dcfbeb232a5b6788db61f3f760a15eb3695fae49114290f995f622",
}
SYNTH_COMMAND_CONFIG = {"seed": 7, "n_subjects": 5, "n_days": 2, "missing_rate": 0.1}
SYNTH_FILE_DIGESTS = {
    "clinical.csv": "4d440665b517dcd1d801b01c5a0c29564a74f9ba88f7a2c446151ec93ebd37e1",
    "gl_table.csv": "d0584191b5ae03132db42928d29b7ed18e76f2e5e142a0f8b0ec473db4d0888b",
    "series/S000.csv": "93fa20dff05bd84a1e11db3f50b82dc91c2c55541c89ef28ecf731e6892b1a66",
    "series/S001.csv": "7acddb31107804f0b357f449c2833f4251d8a5728482332085fe6bc2d12cd2a4",
    "series/S002.csv": "d00918cbeac777b2829ec30d9bf0f831d9517531c2bac3babba3695b3c8b02dd",
    "series/S003.csv": "18cd3da2e8c7a0be85caea547a00cf4788257e56504fe837308ae3c053216eec",
    "series/S004.csv": "5cb1c5a7b8953e803cf4cf487e08ce78a332456996caeef7ce169682179347de",
    "truth.json": "a8662bb686b9258c7cbcbe672bacf2dd37ace435940d95fcf404ff956aa57b46",
}


class TestGeneratorBytes:
    @pytest.mark.parametrize("seed, name, value", sorted(CLINICAL_DIGESTS, key=repr))
    def test_clinical_records_keep_their_bytes(self, seed, name, value):
        records, _ = gen_clinical(SynthConfig(n_subjects=40, seed=seed, **{name: value}))
        assert hashlib.sha256(repr(records).encode()).hexdigest() == CLINICAL_DIGESTS[seed, name, value]

    def test_synth_command_files_keep_their_bytes(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(SYNTH_COMMAND_CONFIG), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        written = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*")
            if path.is_file() and path.name != "manifests.jsonl"
        }
        assert written == SYNTH_FILE_DIGESTS

    @pytest.mark.parametrize("missing_rate", [0.0, 0.3])
    def test_records_are_a_prefix_of_a_larger_cohort(self, missing_rate):
        # Each record draws a fixed count of numbers, so n subjects are the first n of n + 7.
        n = 13
        small, _ = gen_clinical(SynthConfig(n_subjects=n, seed=4, missing_rate=missing_rate))
        large, _ = gen_clinical(SynthConfig(n_subjects=n + 7, seed=4, missing_rate=missing_rate))
        assert large[:n] == small and repr(large[:n]) == repr(small)


class TestGenCgm:
    def test_degenerate_constant_series(self):
        cfg = SynthConfig(
            n_subjects=2, n_days=2, seed=3, day_amplitude=0, meal_amplitude=0,
            circadian_amplitude=0, noise_sd=0.0, baseline=140.0, baseline_spread=0.0,
            meal_bump_scale=0.0, latent_share=0.0,
        )
        series, truth = gen_cgm_series(cfg)
        for s in series:
            np.testing.assert_allclose(s.cgm, 140.0)

    def test_day_amplitude_autocorrelation_peak(self):
        cfg = SynthConfig(
            n_subjects=1, n_days=6, seed=4, day_amplitude=20.0, meal_amplitude=0.0,
            circadian_amplitude=0.0, noise_sd=2.0, meal_bump_scale=0.0, latent_share=0.0,
        )
        (series,), _ = gen_cgm_series(cfg)
        y = series.cgm - series.cgm.mean()
        acf = np.correlate(y, y, mode="full")[y.size :][: 2 * 96]  # lags 1..192
        peak_lag = int(np.argmax(acf[48:])) + 48 + 1
        assert peak_lag == 96

    def test_values_within_recorded_range(self):
        cfg = SynthConfig(n_subjects=4, n_days=4, seed=6, noise_sd=25.0, day_amplitude=40.0)
        series, _ = gen_cgm_series(cfg)
        for s in series:
            assert np.all(s.cgm > CGM_CLIP[0]) and np.all(s.cgm < CGM_CLIP[1])

    def test_meals_quantified_on_grid(self):
        cfg = SynthConfig(n_subjects=1, n_days=2, seed=7)
        (series,), truth = gen_cgm_series(cfg)
        assert len(series.meals) == 6  # three per day
        indices = sorted(m.grid_index for m in series.meals)
        assert indices == [28, 48, 72, 124, 144, 168]
        regressor = build_meal_regressor(series)
        assert regressor.values.sum() == pytest.approx(sum(truth.meal_gls[0]))

    def test_latent_shared_across_subjects(self):
        cfg = SynthConfig(n_subjects=3, n_days=3, seed=8, latent_share=1.0,
                          latent_sd=15.0, noise_sd=2.0, day_amplitude=0.0,
                          meal_amplitude=0.0, circadian_amplitude=0.0, meal_bump_scale=0.0)
        series, truth = gen_cgm_series(cfg)
        for s in series:
            centered = s.cgm - np.mean(s.cgm)
            latent = truth.shared_latent - truth.shared_latent.mean()
            assert np.corrcoef(centered, latent)[0, 1] > 0.9

    def test_determinism(self):
        cfg = SynthConfig(n_subjects=2, n_days=2, seed=12)
        a, _ = gen_cgm_series(cfg)
        b, _ = gen_cgm_series(cfg)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.cgm, s2.cgm)


class TestDagEnumeration:
    def test_known_dag_counts(self):
        assert sum(1 for _ in enumerate_dags(("a", "b", "c"))) == 25
        assert sum(1 for _ in enumerate_dags(("a", "b", "c", "d"))) == 543

    def test_independent_data_prefers_empty(self):
        rng = np.random.default_rng(1)
        data = DiscreteDataset(
            variables=("x", "y", "z"),
            cards=(4, 4, 4),
            matrix=np.column_stack([rng.integers(0, 4, 1500) for _ in range(3)]),
        )
        assert dag_enumeration_oracle(data).arcs == frozenset()

    def test_oracle_is_true_maximum(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, 400)
        b = (a + (rng.random(400) < 0.1).astype(np.int64)) % 2
        data = DiscreteDataset(variables=("a", "b"), cards=(2, 2), matrix=np.column_stack([a, b]))
        best = dag_enumeration_oracle(data)
        best_score = bic_score(best, data)
        for dag in enumerate_dags(("a", "b")):
            assert bic_score(dag, data) <= best_score + 1e-12

    def test_capacity_guard(self):
        data = DiscreteDataset(
            variables=tuple("abcdef"), cards=(2,) * 6, matrix=np.zeros((4, 6), dtype=np.int64)
        )
        with pytest.raises(CapacityError):
            dag_enumeration_oracle(data)


class TestGaussianOracle:
    def test_noiseless_trend_predictive(self):
        y = np.array([100.0, 102.0, 103.0, 103.5])
        model = assemble_model([semi_local_trend()], y).with_initial_state([100.0, 2.0], [0.0, 0.0])
        params = ParamPoint(0.0, 0.0, 0.0, d=0.0, phi=0.5)
        oracle = gaussian_predictive_oracle(model, params, y)
        np.testing.assert_allclose(oracle.onestep_means, y, atol=1e-6)

    def test_horizon_zero_empty_forecast(self):
        y = np.arange(8.0)
        model = assemble_model([semi_local_trend()], y)
        oracle = gaussian_predictive_oracle(model, ParamPoint(0.1, 0.1, 0.5), y, horizon=0)
        assert oracle.forecast_means.size == 0

    def test_size_guards(self):
        y = np.arange(25.0)
        model = assemble_model([semi_local_trend()], y)
        with pytest.raises(CapacityError):
            gaussian_predictive_oracle(model, ParamPoint(0.1, 0.1, 0.5), y)

    def test_forecast_moments_match_filter_propagation(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 12)
        model = assemble_model([semi_local_trend()], y)
        params = ParamPoint(0.3, 0.1, 0.8, d=0.05, phi=0.4)
        oracle = gaussian_predictive_oracle(model, params, y, horizon=3)
        from conftest import filter_point
        from glycast.bsts import PosteriorDraws, posterior_forecast

        filtered_means = filter_point(model, params, y)[0]
        draws = PosteriorDraws(
            sigma_level=np.array([params.sigma_level]),
            sigma_slope=np.array([params.sigma_slope]),
            sigma_obs=np.array([params.sigma_obs]),
            sigma_seasonal=np.zeros((1, 0)),
            d=np.array([params.d]),
            phi=np.array([params.phi]),
            gamma=np.zeros((1, 0), dtype=np.int64),
            beta=np.zeros((1, 0)),
            terminal_state=filtered_means[-1:],
            requested=1,
            burn=0,
            seed=0,
        )
        deterministic = posterior_forecast(draws, model, horizon=3, sample=False).paths[0]
        np.testing.assert_allclose(oracle.forecast_means, deterministic, atol=1e-8)


class TestSimulateFromModel:
    def test_deterministic(self):
        y0 = np.arange(10.0)
        model = assemble_model([semi_local_trend()], y0)
        params = ParamPoint(0.2, 0.1, 0.5, d=0.1, phi=0.3)
        a = simulate_from_model(model, params, 50, np.random.default_rng(1))
        b = simulate_from_model(model, params, 50, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)


class TestDefaultGlTable:
    def test_contains_reference_dish(self):
        table = default_gl_table()
        assert table.lookup("pork and rice dish") == (60.0, 23.0)
