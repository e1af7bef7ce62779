import json
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glycast.bsts import assemble_model, seasonal, semi_local_trend, specs_from_json
from glycast.bsts.components import STANDARD_STACK
from glycast.dataset import GlucoseSeries
from glycast.errors import CapacityError, ConfigError, RangeError, SchemaError
from glycast.evaluate import (
    AblationTable,
    EvalConfig,
    ForecastPipeline,
    HorizonReport,
    MetricsReport,
    build_similarity_design,
    compute_metrics,
    glycemic_confusion,
    render_metrics_text,
    run_ablation,
    sliding_window_eval,
    train_test_split_sizes,
    write_confusion_csv,
    write_metrics_json,
)
from glycast.synth import SynthConfig, gen_cgm_series


class TestComputeMetrics:
    def test_identity(self):
        assert compute_metrics([100.0, 150.0], [100.0, 150.0]) == (0.0, 0.0, 0.0)

    def test_single_point(self):
        mae, rmse, mape = compute_metrics([110.0], [100.0])
        assert (mae, rmse) == (10.0, 10.0)
        assert mape == pytest.approx(10.0)

    def test_forecast_denominator_convention(self):
        mae, rmse, mape = compute_metrics([100.0, 100.0], [90.0, 110.0])
        assert (mae, rmse) == (10.0, 10.0)
        assert mape == pytest.approx((10 / 90 + 10 / 110) / 2 * 100)  # 10.1010...%
        assert mape == pytest.approx(10.101010101010102, abs=1e-9)

    def test_zero_denominator(self):
        with pytest.raises(RangeError):
            compute_metrics([10.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            compute_metrics([1.0, 2.0], [1.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=40, max_value=400), min_size=1, max_size=30),
        st.lists(st.floats(min_value=40, max_value=400), min_size=30, max_size=30),
    )
    def test_mae_le_rmse(self, actual, predicted):
        predicted = predicted[: len(actual)]
        mae, rmse, _ = compute_metrics(actual, predicted)
        assert mae <= rmse + 1e-12


class TestGlycemicConfusion:
    def test_all_normal(self):
        matrix, accuracy = glycemic_confusion([100.0] * 5, [120.0] * 5)
        assert matrix[1, 1] == 5 and matrix.sum() == 5
        assert accuracy == 1.0

    def test_hypo_misclassified_as_normal(self):
        matrix, accuracy = glycemic_confusion([65.0], [75.0])
        assert matrix[0, 1] == 1
        assert accuracy == 0.0

    def test_perfect_mixed_bands(self):
        actual = [60.0, 120.0, 200.0]
        matrix, accuracy = glycemic_confusion(actual, actual)
        assert np.trace(matrix) == 3 and accuracy == 1.0
        assert matrix[0, 0] == matrix[1, 1] == matrix[2, 2] == 1

    def test_cells_sum_to_n(self):
        rng = np.random.default_rng(0)
        actual = rng.uniform(40, 400, 50)
        predicted = rng.uniform(40, 400, 50)
        matrix, _ = glycemic_confusion(actual, predicted)
        assert matrix.sum() == 50

    @pytest.mark.parametrize("hypo_max, hyper_min", [(70.0, 180.0), (54.0, 250.0)])
    def test_band_edges(self, hypo_max, hyper_min):
        def band(v):  # the documented rule, one value at a time
            return 0 if v < hypo_max else 2 if v > hyper_min else 1

        values = [hypo_max, hyper_min, np.nextafter(hypo_max, 0), np.nextafter(hyper_min, np.inf), np.nan]
        assert [band(v) for v in values] == [1, 1, 0, 2, 1]
        pairs = [(a, p) for a in values for p in values]
        for a, p in pairs:
            matrix, accuracy = glycemic_confusion([a], [p], hypo_max, hyper_min)
            expected = np.zeros((3, 3), dtype=np.int64)
            expected[band(a), band(p)] = 1
            np.testing.assert_array_equal(matrix, expected)
            assert accuracy == float(band(a) == band(p))
        matrix, _ = glycemic_confusion(*zip(*pairs), hypo_max=hypo_max, hyper_min=hyper_min)
        expected = np.zeros((3, 3), dtype=np.int64)
        for a, p in pairs:
            expected[band(a), band(p)] += 1
        np.testing.assert_array_equal(matrix, expected)
        if (hypo_max, hyper_min) == (70.0, 180.0):
            np.testing.assert_array_equal(glycemic_confusion(*zip(*pairs))[0], expected)


def eval_series(n_days=4, seed=0, **kwargs):
    defaults = dict(
        n_subjects=1, n_days=n_days, seed=seed, day_amplitude=10.0, meal_amplitude=4.0,
        circadian_amplitude=3.0, noise_sd=4.0, latent_share=1.0, latent_sd=5.0, latent_ar=0.9,
    )
    defaults.update(kwargs)
    (series,), truth = gen_cgm_series(SynthConfig(**defaults))
    return series, truth


FAST = dict(draws=120, burn=40, forecast_thin=2)


class TestSlidingWindowEval:
    def test_anchor_count_contract(self):
        series, _ = eval_series()
        cfg = EvalConfig(seed=1, **FAST)
        report = sliding_window_eval(ForecastPipeline(specs=STANDARD_STACK[:2]), series, cfg)
        n = len(series)
        n_train, n_test = train_test_split_sizes(n, cfg)
        expected = n_test - max(cfg.horizons) + 1
        for h in cfg.horizons:
            assert report.reports[h].n == expected

    def test_constant_series_near_zero_error(self):
        from glycast.dataset import GlucoseSeries
        from conftest import START

        series = GlucoseSeries(subject_id="C", start=START, cgm=np.full(200, 120.0))
        cfg = EvalConfig(horizons=(1,), seed=3, draws=150, burn=50)
        pipeline = ForecastPipeline(specs=STANDARD_STACK[:1])
        report = sliding_window_eval(pipeline, series, cfg)
        assert report.reports[1].mae < 2.0

    def test_too_short_series_capacity_error(self):
        from glycast.dataset import GlucoseSeries
        from conftest import START

        series = GlucoseSeries(subject_id="S", start=START, cgm=np.full(20, 120.0))
        with pytest.raises(CapacityError, match="at least"):
            sliding_window_eval(ForecastPipeline(), series, EvalConfig(**FAST))

    @pytest.mark.parametrize("split_ratio, shortest", [(0.8, 21), (0.3, 34)])
    def test_capacity_error_names_shortest_length(self, split_ratio, shortest):
        from glycast.dataset import GlucoseSeries
        from conftest import START

        cfg = EvalConfig(split_ratio=split_ratio, draws=20, burn=5)
        pipeline = ForecastPipeline(specs=STANDARD_STACK[:1])
        short = GlucoseSeries(subject_id="S", start=START, cgm=np.full(shortest - 1, 120.0))
        with pytest.raises(CapacityError, match=f"need at least {shortest} points"):
            sliding_window_eval(pipeline, short, cfg)
        series = GlucoseSeries(subject_id="S", start=START, cgm=120.0 + np.arange(shortest) % 5)
        report = sliding_window_eval(pipeline, series, cfg)
        assert report.n_train + report.n_test == shortest

    def test_no_leakage_from_test_segment(self):
        series, _ = eval_series(seed=5)
        cfg = EvalConfig(horizons=(1, 2), seed=7, **FAST)
        pipeline = ForecastPipeline(specs=STANDARD_STACK[:2])
        n_train, _ = train_test_split_sizes(len(series), cfg)

        perturbed = np.array(series.cgm)
        perturbed[n_train + 5] = 400.0
        from glycast.dataset import GlucoseSeries

        other = GlucoseSeries(subject_id=series.subject_id, start=series.start, cgm=perturbed)

        from glycast.bsts import assemble_model, mcmc_fit

        specs = pipeline.component_specs(series, n_train)
        a = mcmc_fit(assemble_model(specs, series.cgm[:n_train]), series.cgm[:n_train],
                     draws=60, burn=20, seed=cfg.seed)
        b = mcmc_fit(assemble_model(specs, other.cgm[:n_train]), other.cgm[:n_train],
                     draws=60, burn=20, seed=cfg.seed)
        np.testing.assert_array_equal(a.sigma_obs, b.sigma_obs)
        np.testing.assert_array_equal(a.terminal_state, b.terminal_state)

        # Forecasts at the first anchor (all-train information) also agree.
        ra = sliding_window_eval(pipeline, series, cfg)
        rb = sliding_window_eval(pipeline, other, cfg)
        assert ra.n_train == rb.n_train == n_train

    def test_report_determinism(self):
        series, _ = eval_series(seed=9)
        cfg = EvalConfig(horizons=(1,), seed=11, **FAST)
        pipeline = ForecastPipeline().without("meal_seasonal")
        a = sliding_window_eval(pipeline, series, cfg)
        b = sliding_window_eval(pipeline, series, cfg)
        assert a.reports[1].mae == b.reports[1].mae
        assert a.reports[1].forecast_min == b.reports[1].forecast_min

    def test_horizon_error_growth_and_range_nesting(self):
        # Qualitative reproduction at a fixed seed: persistent latent plus
        # sharp post-meal rises make long-horizon point forecasts overshoot,
        # so the 4-step forecast range contains the 1-step range.
        series, _ = eval_series(n_days=4, seed=29, latent_ar=0.99, latent_sd=6.0,
                                day_amplitude=8.0, noise_sd=3.0,
                                meal_bump_scale=1.6, meal_gl_mean=22.0)
        cfg = EvalConfig(horizons=(1, 4), seed=2, draws=200, burn=60, forecast_thin=2)
        pipeline = ForecastPipeline(specs=STANDARD_STACK[:2])
        report = sliding_window_eval(pipeline, series, cfg)
        assert report.reports[4].rmse >= report.reports[1].rmse
        assert report.reports[4].forecast_min <= report.reports[1].forecast_min
        assert report.reports[4].forecast_max >= report.reports[1].forecast_max


class TestRegressorEval:
    def test_similarity_design_alignment(self):
        cfg = SynthConfig(n_subjects=3, n_days=3, seed=2, latent_share=1.0)
        series, _ = gen_cgm_series(cfg)
        design, names = build_similarity_design(series[0], [series[1], series[2]])
        assert design.shape == (len(series[0]), 2)
        assert names == ("sim_S001_cgm", "sim_S002_cgm")
        np.testing.assert_array_equal(design[:, 0], series[1].cgm)

    @pytest.mark.parametrize("hours, shift", [(0, 0), (6, 72), (-6, 24), (30, 72)])
    def test_donor_aligned_by_time_of_day(self, hours, shift):
        cfg = SynthConfig(n_subjects=2, n_days=3, seed=4)
        tester, donor = gen_cgm_series(cfg)[0]
        gl = {donor.subject_id: np.arange(len(donor), dtype=float)}
        unshifted, _ = build_similarity_design(tester, [donor], gl)
        shift_by = timedelta(hours=hours)  # the meals move with the grid, keeping their grid points
        meals = tuple(replace(m, timestamp=m.timestamp + shift_by) for m in donor.meals)
        moved = replace(donor, start=donor.start + shift_by, meals=meals)
        design, _ = build_similarity_design(tester, [moved], gl)
        # Tester row i reads the donor's reading at the same time of day.
        np.testing.assert_array_equal(design, np.roll(unshifted, -shift, axis=0))
        assert moved.timestamp_at(shift).time() == tester.start.time()

    def test_short_donor_cycled_by_whole_days(self):
        # A 100-step donor wraps after its one whole day, so tester rows
        # 100-103 (01:00-01:45) read its 01:00-01:45 values, not 00:00-00:45.
        tester, donor = gen_cgm_series(SynthConfig(n_subjects=8, n_days=3, seed=1))[0][:2]
        short = replace(donor, cgm=donor.cgm[:100], meals=())
        design, _ = build_similarity_design(tester, [short])
        np.testing.assert_allclose(design[100:104, 0], [138.2, 138.1, 148.6, 150.8], atol=0.05)
        np.testing.assert_array_equal(design[:, 0], donor.cgm[np.arange(len(tester)) % 96])
        two_days = replace(donor, cgm=donor.cgm[:192], meals=())
        design, _ = build_similarity_design(tester, [two_days])
        np.testing.assert_array_equal(design[:, 0], donor.cgm[np.arange(len(tester)) % 192])

    def test_donor_shorter_than_a_day(self):
        tester, donor = gen_cgm_series(SynthConfig(n_subjects=2, n_days=2, seed=1))[0]
        short = replace(donor, cgm=donor.cgm[:95], meals=())
        with pytest.raises(CapacityError, match="less than one day"):
            build_similarity_design(tester, [short])

    @pytest.mark.parametrize("naive", ["tester", "donor"])
    def test_mixed_time_zones_refused(self, naive):
        # Synthetic series start at 00:00 UTC; one side, its meals included, loses its offset.
        series = dict(zip(("tester", "donor"), gen_cgm_series(SynthConfig(n_subjects=2, n_days=2, seed=1))[0]))
        meals = tuple(replace(m, timestamp=m.timestamp.replace(tzinfo=None)) for m in series[naive].meals)
        series[naive] = replace(series[naive], start=series[naive].start.replace(tzinfo=None), meals=meals)
        with pytest.raises(SchemaError, match="tester S000 and donor S001: one series has offset-aware"):
            build_similarity_design(series["tester"], [series["donor"]])

    def test_gl_columns_included(self):
        cfg = SynthConfig(n_subjects=2, n_days=3, seed=3)
        series, _ = gen_cgm_series(cfg)
        gl = {series[1].subject_id: np.arange(len(series[1]), dtype=float)}
        design, names = build_similarity_design(series[0], [series[1]], gl)
        assert names == ("sim_S001_cgm", "sim_S001_gl")
        assert design.shape[1] == 2


class TestForecastPipelineWithout:
    def test_each_removal_drops_one_component(self):
        series, _ = eval_series(seed=24, n_days=2)
        design = np.ones((len(series), 2))
        base = ForecastPipeline(regressors=design, regressor_names=("a", "b"))
        names = [spec.name for spec in base.component_specs(series, 10)]
        assert base.without(None) is base
        for removal, dropped in (
            ("similar_subjects", "regression"), ("day_seasonal", "day"),
            ("meal_seasonal", "meal"), ("circadian_seasonal", "circadian"),
        ):
            remaining = [spec.name for spec in base.without(removal).component_specs(series, 10)]
            assert remaining == [name for name in names if name != dropped]

    def test_regression_entry_supplies_the_prior_of_the_design(self):
        # The design's columns are the regression's: the entry carries its spike_slab prior and nothing else.
        series, _ = eval_series(seed=24, n_days=2)
        document = {"components": SPELLED_OUT["components"] + [
            {"kind": "regression", "spike_slab": {"expected_model_size": 1.0, "information_weight": 0.25}},
        ]}
        design = np.random.default_rng(2).normal(0, 1, (len(series), 3))
        pipeline = ForecastPipeline(regressors=design, regressor_names=("a", "b", "c"), specs=specs_from_json(document))
        model, draws = pipeline.fit(series, 100, EvalConfig(draws=12, burn=2))
        assert (model.spike_slab.expected_model_size, model.spike_slab.information_weight) == (1.0, 0.25)
        np.testing.assert_array_equal(model.design, design[:100])
        assert draws.beta.shape == (10, 3)
        # Without a design the entry is left out.
        assert [s.kind for s in replace(pipeline, regressors=None, regressor_names=()).component_specs(series, 100)] \
            == ["semi_local_trend", "seasonal", "seasonal", "seasonal"]

    def test_custom_specs_refuse_a_seasonal_removal(self):
        custom = ForecastPipeline(specs=(semi_local_trend(),))
        assert custom.without("similar_subjects").specs == custom.specs
        with pytest.raises(ConfigError, match="the component stack has no seasonal named 'day'"):
            custom.without("day_seasonal")


# The standard stack spelled out as a `components` document.
SPELLED_OUT = {"components": [
    {"kind": "semi_local_trend"},
    {"kind": "seasonal", "name": "day", "n_seasons": 4, "durations": [24, 24, 24, 24]},
    {"kind": "seasonal", "name": "meal", "n_seasons": 3, "durations": [32, 32, 32]},
    {"kind": "seasonal", "name": "circadian", "n_seasons": 2, "durations": [48, 24]},
]}


class TestSeasonalClock:
    """A seasonal's phase counts from midnight of the series' first day, whichever stack it comes from."""

    def test_seasons_follow_the_clock_from_every_start_slot(self):
        from conftest import START

        spelled = ForecastPipeline(specs=tuple(specs_from_json(SPELLED_OUT)))
        # A 37-step cycle at phase 5: whole days do not tile it, so its season at midnight changes from day to day.
        odd = ForecastPipeline(specs=(semi_local_trend(), seasonal("odd", 3, (10, 20, 7), phase=5)))
        n = 200
        for slot in range(96):
            start = START + slot * timedelta(minutes=15)
            series = GlucoseSeries(subject_id="C", start=start, cgm=120.0 + np.arange(n) % 7)
            midnight = start.replace(hour=0, minute=0)
            clock = [(series.timestamp_at(t) - midnight) // timedelta(minutes=15) for t in range(n)]
            specs = ForecastPipeline().component_specs(series, n)
            assert spelled.component_specs(series, n) == specs
            for pipeline, stack in ((ForecastPipeline(), specs), (odd, odd.component_specs(series, n))):
                seasonals = [s for s in pipeline.specs if s.kind == "seasonal"]
                fitted = [s for s in stack if s.kind == "seasonal"]
                seasons = []
                for base, spec in zip(seasonals, fitted):
                    cycle = [k for k, d in enumerate(base.durations) for _ in range(d)]
                    expected = [cycle[(c + base.phase) % len(cycle)] for c in clock]
                    assert [cycle[(spec.phase + t) % len(cycle)] for t in range(n)] == expected, (slot, spec.name)
                    seasons.append(expected)
                turns = np.array([[a[t + 1] != a[t] for a in seasons] for t in range(n - 1)])
                np.testing.assert_array_equal(assemble_model(stack, series.cgm).boundaries(n), turns)

    def test_spelled_out_stack_evaluates_as_the_default_off_midnight(self):
        series, _ = eval_series(seed=3, n_days=3)
        six = replace(series, start=series.start + timedelta(hours=6), meals=())
        cfg = EvalConfig(horizons=(1, 2), seed=4, **FAST)
        default = sliding_window_eval(ForecastPipeline(), six, cfg)
        spelled = sliding_window_eval(ForecastPipeline(specs=tuple(specs_from_json(SPELLED_OUT))), six, cfg)
        assert spelled.to_json() == default.to_json()


class TestRunAblation:
    def test_empty_removals_baseline_only(self):
        series, _ = eval_series(seed=21, n_days=3)
        subject = (series, ForecastPipeline())
        cfg = EvalConfig(horizons=(1,), seed=5, draws=100, burn=30, forecast_thin=2)
        table = run_ablation(cfg, [], [subject])
        assert list(table.rows) == ["baseline"]

    def test_unknown_removal_rejected(self):
        series, _ = eval_series(seed=22, n_days=3)
        cfg = EvalConfig(horizons=(1,), seed=5, **FAST)
        with pytest.raises(ConfigError, match="unknown ablation"):
            run_ablation(cfg, ["bogus"], [(series, ForecastPipeline())])

    def test_rows_and_rendering(self):
        series, _ = eval_series(seed=23, n_days=3)
        subject = (series, ForecastPipeline())
        cfg = EvalConfig(horizons=(1,), seed=6, draws=100, burn=30, forecast_thin=2)
        table = run_ablation(cfg, ["day_seasonal"], [subject])
        assert list(table.rows) == ["baseline", "day_seasonal"]
        text = table.render_text()
        assert "baseline" in text and "day_seasonal" in text and "MAPE" in text
        payload = table.to_json()
        assert set(payload) == {"baseline", "day_seasonal"}


class TestReportIO:
    def test_json_and_csv_outputs(self, tmp_path):
        series, _ = eval_series(seed=31, n_days=3)
        cfg = EvalConfig(horizons=(1, 2), seed=7, **FAST)
        report = sliding_window_eval(
            ForecastPipeline(specs=STANDARD_STACK[:1]), series, cfg
        )
        write_metrics_json(tmp_path / "m.json", [report])
        write_confusion_csv(tmp_path / "c.csv", report)
        text = render_metrics_text(report)
        assert "MAE" in text and "RMSE" in text
        import json

        payload = json.loads((tmp_path / "m.json").read_text())
        assert set(payload[0]["horizons"]) == {"1", "2"}
        lines = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3


def hand_built_report():
    """A two-horizon MetricsReport whose scores are exact binary fractions, built without a fit."""
    one = HorizonReport(
        horizon=1, mae=5.125, rmse=7.5, mape=4.0625, n=3, forecast_min=95.25, forecast_max=182.0,
        confusion=np.eye(3, dtype=np.int64), accuracy=1.0,
    )
    four = HorizonReport(
        horizon=4, mae=12.5, rmse=15.75, mape=10.25, n=3, forecast_min=68.5, forecast_max=150.0,
        confusion=np.array([[0, 1, 0]] * 3, dtype=np.int64), accuracy=1 / 3,
    )
    return MetricsReport(
        subject_id="S007", horizons=(1, 4), reports={4: four, 1: one}, n_train=12, n_test=7
    )


class TestReportPins:
    """The exact text and bytes of each report written from hand-built records."""

    def test_metrics_text(self):
        assert render_metrics_text(hand_built_report()) == (
            "subject S007  (train 12, test 7)\n"
            "metric                1-step        4-step\n"
            "------------------------------------------\n"
            "MAE                     5.12         12.50\n"
            "RMSE                    7.50         15.75\n"
            "MAPE                    4.06         10.25\n"
            "ACCURACY              100.00         33.33\n"
            "range          (95.2, 182.0) (68.5, 150.0)"
        )

    def test_metrics_json_bytes(self, tmp_path):
        write_metrics_json(tmp_path / "m.json", [hand_built_report()])
        document = [{
            "subject_id": "S007", "n_train": 12, "n_test": 7,
            "horizons": {
                "1": {
                    "mae": 5.125, "rmse": 7.5, "mape": 4.0625, "n": 3, "forecast_min": 95.25, "forecast_max": 182.0,
                    "accuracy": 1.0, "confusion": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                },
                "4": {
                    "mae": 12.5, "rmse": 15.75, "mape": 10.25, "n": 3, "forecast_min": 68.5, "forecast_max": 150.0,
                    "accuracy": 0.3333333333333333, "confusion": [[0, 1, 0], [0, 1, 0], [0, 1, 0]],
                },
            },
        }]
        assert (tmp_path / "m.json").read_bytes() == json.dumps(document, indent=2, sort_keys=True).encode()

    def test_ablation_text(self):
        cells = {
            "baseline": {1: (5.125, 0.5, 7.5, 0.25, 4.0625, 0.0), 4: (12.5, 1.0, 15.75, 2.5, 10.25, 0.125)},
            "day_seasonal": {1: (6.0, 0.75, 8.25, 0.5, 4.5, 0.25), 4: (14.0, 1.5, 18.5, 3.0, 11.75, 0.5)},
        }
        rows = {
            row: {h: {"mae": c[0:2], "rmse": c[2:4], "mape": c[4:6]} for h, c in per_h.items()}
            for row, per_h in cells.items()
        }
        assert AblationTable(rows=rows, horizons=(1, 4)).render_text() == (
            "experiment                  metric                  1-step            4-step\n"
            "----------------------------------------------------------------------------\n"
            "baseline                    MAE               5.12 ±  0.50     12.50 ±  1.00\n"
            "                            RMSE              7.50 ±  0.25     15.75 ±  2.50\n"
            "                            MAPE              4.06 ±  0.00     10.25 ±  0.12\n"
            "day_seasonal                MAE               6.00 ±  0.75     14.00 ±  1.50\n"
            "                            RMSE              8.25 ±  0.50     18.50 ±  3.00\n"
            "                            MAPE              4.50 ±  0.25     11.75 ±  0.50"
        )


class TestEvalConfig:
    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            EvalConfig(split_ratio=1.0)
        with pytest.raises(ConfigError):
            EvalConfig(horizons=())
        with pytest.raises(ConfigError, match="must not repeat"):
            EvalConfig(horizons=(1, 1))
        with pytest.raises(ConfigError):
            EvalConfig(hypo_max=200.0, hyper_min=180.0)
        with pytest.raises(ConfigError):
            EvalConfig(draws=100, burn=100)
        with pytest.raises(ConfigError, match="burn must be >= 0, got -1"):
            EvalConfig(draws=100, burn=-1)
        with pytest.raises(ConfigError, match="m_similar"):
            EvalConfig(m_similar=0)
