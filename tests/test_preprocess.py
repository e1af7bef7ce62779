from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glycast.dataset import IMPUTABLE_FEATURES
from glycast.errors import EncodingError, ImputationError, FoodLookupError, RangeError, SchemaError
from glycast.preprocess import (
    build_meal_regressor,
    exclude_incomplete,
    glycemic_load,
    impute_means,
    standardize_encode,
)
from glycast.dataset import GlycemicTable
from glycast.synth import SynthConfig, gen_clinical


class TestExclusion:
    def test_missing_fpg_excluded(self, complete_record):
        kept, report = exclude_incomplete([complete_record(fpg=None)])
        assert kept == []
        assert report == [{"subject_id": "P1", "reason": "missing FPG or 2HPP"}]

    def test_complete_record_kept(self, complete_record):
        record = complete_record()
        kept, report = exclude_incomplete([record])
        assert report == []
        assert len(kept) == 1
        # UA and BUN are dropped as variables for every kept record.
        assert kept[0].ua is None and kept[0].bun is None
        assert kept[0].hba1c == record.hba1c

    def test_too_many_missing(self, complete_record):
        record = complete_record(tc=None, tg=None, hdl=None, ldl=None)
        kept, report = exclude_incomplete([record], max_missing=3)
        assert kept == []
        assert "too many missing" in report[0]["reason"]

    def test_exactly_max_missing_kept(self, complete_record):
        record = complete_record(tc=None, tg=None, hdl=None)
        kept, report = exclude_incomplete([record], max_missing=3)
        assert len(kept) == 1 and report == []

    def test_empty_input(self):
        assert exclude_incomplete([]) == ([], [])

    @pytest.mark.parametrize("bad", [True, 2.5, "3"])
    def test_max_missing_takes_an_integer(self, complete_record, bad):
        # max_missing=True ran as 1, and 2.5 was taken as a bound without complaint.
        with pytest.raises(SchemaError, match="^max_missing must be an integer"):
            exclude_incomplete([complete_record()], max_missing=bad)


class TestImputation:
    def test_mean_fill(self, complete_record):
        records = [
            complete_record("A", hba1c=2.0),
            complete_record("B", hba1c=4.0),
            complete_record("C", hba1c=None),
        ]
        imputed = impute_means(records)
        assert imputed[2].hba1c == 3.0

    def test_identity_when_complete(self, complete_record):
        records = [complete_record("A"), complete_record("B", age=60.0)]
        assert impute_means(records) == records

    def test_no_donor_values(self, complete_record):
        records = [complete_record("A", ga=None), complete_record("B", ga=None)]
        with pytest.raises(ImputationError, match="ga"):
            impute_means(records)

    def test_mean_preservation(self, complete_record):
        rng = np.random.default_rng(0)
        records = []
        for i in range(40):
            overrides = {f: float(rng.uniform(1, 30)) for f in IMPUTABLE_FEATURES}
            overrides["height_m"] = float(rng.uniform(1.4, 2.0))
            if rng.random() < 0.3:
                overrides[IMPUTABLE_FEATURES[int(rng.integers(len(IMPUTABLE_FEATURES)))]] = None
            records.append(complete_record(f"S{i}", **overrides))
        donors = {
            f: np.mean([getattr(r, f) for r in records if getattr(r, f) is not None])
            for f in IMPUTABLE_FEATURES
        }
        imputed = impute_means(records)
        for f in IMPUTABLE_FEATURES:
            column = [getattr(r, f) for r in imputed]
            assert abs(np.mean(column) - donors[f]) < 1e-12


def records_with_column(values, complete_record):
    """Records where every numeric feature carries the same ordering as `values`."""
    records = []
    for i, v in enumerate(values):
        overrides = {f: float(v + 10 * (j + 1)) for j, f in enumerate(IMPUTABLE_FEATURES)}
        overrides["height_m"] = 1.4 + 0.05 * (v % 10)
        records.append(
            complete_record(
                f"S{i}",
                gender="male" if i % 2 == 0 else "female",
                fpg=100.0 + v,
                hpp2=200.0 + v,
                **overrides,
            )
        )
    return records


class TestStandardizeEncode:
    @pytest.mark.parametrize("bad", [2.0, True, "4"])
    def test_n_bins_takes_an_integer(self, complete_record, bad):
        # n_bins=2.0 raised a bare TypeError from the quantile edges.
        records = [complete_record(f"P{i}", hba1c=5.0 + i) for i in range(8)]
        with pytest.raises(SchemaError, match="^n_bins must be an integer"):
            standardize_encode(records, n_bins=bad)

    def test_quartile_classes(self, complete_record):
        records = records_with_column(range(1, 9), complete_record)
        data = standardize_encode(records, n_bins=4)
        np.testing.assert_array_equal(data.column("hba1c"), [0, 0, 1, 1, 2, 2, 3, 3])
        np.testing.assert_array_equal(data.column("fpg"), [0, 0, 1, 1, 2, 2, 3, 3])

    def test_gender_binary(self, complete_record):
        records = records_with_column([3.0, 7.0, 11.0], complete_record)
        records = [r.with_values(gender=g) for r, g in zip(records, ["male", "female", "male"])]
        data = standardize_encode(records)
        np.testing.assert_array_equal(data.column("gender"), [0, 1, 0])
        assert data.card_of("gender") == 2

    def test_gender_codec_round_trip(self, complete_record):
        records = records_with_column([3.0, 7.0, 11.0, 5.0], complete_record)
        data = standardize_encode(records)
        codec = next(c for c in data.codecs if c.name == "gender")
        for record, k in zip(records, data.column("gender")):
            assert codec.encode_value(record.gender) == k
            assert codec.levels[k] == record.gender
        with pytest.raises(EncodingError, match="gender: unknown level 'other'"):
            codec.encode_value("other")

    def test_constant_column_rejected(self, complete_record):
        records = records_with_column(np.arange(1.0, 7.0), complete_record)
        records = [r.with_values(bmi=25.0) for r in records]
        with pytest.raises(EncodingError, match="bmi.*zero variance"):
            standardize_encode(records)

    def test_zscore_stats(self, complete_record):
        records = records_with_column(np.arange(1, 13) * 1.7, complete_record)
        data = standardize_encode(records)
        codec = next(c for c in data.codecs if c.name == "tc")
        raw = np.array([getattr(r, "tc") for r in records])
        z = (raw - codec.mean) / codec.sd
        assert abs(z.mean()) < 1e-10
        assert abs(z.std() - 1.0) < 1e-10

    def test_representatives_land_in_own_bin(self, complete_record):
        rng = np.random.default_rng(3)
        records = records_with_column(rng.uniform(0, 50, 24), complete_record)
        data = standardize_encode(records)
        for codec in data.codecs:
            if codec.kind != "numeric":
                continue
            for k in range(codec.card):
                assert codec.encode_value(codec.representatives[k]) == k

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_equal_frequency_binning(self, multiplier, rnd):
        n_bins = 4
        n = n_bins * multiplier * 2
        values = rnd.sample(range(10_000), n)
        column = np.asarray(values, dtype=float)
        mean, sd = column.mean(), column.std()
        z = (column - mean) / sd
        edges = np.quantile(z, [0.25, 0.5, 0.75])
        classes = np.searchsorted(edges, z, side="right")
        counts = np.bincount(classes, minlength=n_bins)
        assert set(counts) == {n // n_bins}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_subjects, missing_rate", [(40, 0.0), (40, 0.2), (100, 0.05), (100, 0.3)])
    def test_rows_are_each_records_encoded_values(self, seed, n_subjects, missing_rate):
        # Stage 1 reads a subject's evidence from its row: the row must be its values encoded one by one.
        records, _ = gen_clinical(SynthConfig(n_subjects=n_subjects, seed=seed, missing_rate=missing_rate))
        imputed = impute_means(exclude_incomplete(records)[0])
        data = standardize_encode(imputed)
        assert [codec.name for codec in data.codecs] == list(data.variables)
        assert data.subject_ids == tuple(record.subject_id for record in imputed)
        for record, row in zip(imputed, data.matrix.tolist()):
            assert row == [codec.encode_value(getattr(record, codec.name)) for codec in data.codecs]

    def test_encode_value_is_searchsorted_right(self):
        # encode_value bisects the edges; the class must be np.searchsorted's for every float.
        records, _ = gen_clinical(SynthConfig(n_subjects=200, seed=11, missing_rate=0.0))
        data = standardize_encode(records)
        rng = np.random.default_rng(11)
        for codec in data.codecs:
            if codec.kind != "numeric":
                continue
            edges = np.array(codec.edges)
            unit = replace(codec, mean=0.0, sd=1.0)  # z is the value itself
            zs = np.concatenate([
                edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                [-np.inf, np.inf, np.nan, 0.0, -0.0], rng.normal(0.0, 2.0, 10_000),
            ])
            assert [unit.encode_value(z) for z in zs.tolist()] == np.searchsorted(edges, zs, side="right").tolist()
            values = codec.mean + codec.sd * zs
            want = np.searchsorted(edges, (values - codec.mean) / codec.sd, side="right")
            assert [codec.encode_value(v) for v in values.tolist()] == want.tolist()
        assert data.matrix.tolist() == [[c.encode_value(getattr(r, c.name)) for c in data.codecs] for r in records]


class TestGlycemicLoad:
    def test_paper_value(self):
        assert glycemic_load(60, 23) == 13.8

    def test_zero_cho(self):
        assert glycemic_load(95, 0) == 0.0

    def test_gi_100_identity(self):
        assert glycemic_load(100, 50) == 50.0

    def test_negative_rejected(self):
        with pytest.raises(RangeError):
            glycemic_load(-1, 10)
        with pytest.raises(RangeError):
            glycemic_load(10, -1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0, max_value=150, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=8, allow_nan=False),
    )
    def test_bilinearity(self, gi, cho, a):
        assert glycemic_load(a * gi, cho) == pytest.approx(a * glycemic_load(gi, cho), rel=1e-12, abs=1e-12)
        assert glycemic_load(gi, a * cho) == pytest.approx(a * glycemic_load(gi, cho), rel=1e-12, abs=1e-12)


TABLE = GlycemicTable(entries=(("rice", 60.0, 23.0), ("tofu", 15.0, 2.0)))


class TestMealRegressor:
    def test_single_item_meal(self, simple_series, meal_at):
        series = simple_series(n=96, meals=(meal_at(28, description="rice", grams=100.0),))
        regressor = build_meal_regressor(series, TABLE)
        assert regressor.values[28] == pytest.approx(13.8)
        assert np.count_nonzero(regressor.values) == 1

    def test_no_meals(self, simple_series):
        regressor = build_meal_regressor(simple_series(n=48), TABLE)
        assert not np.any(regressor.values)

    def test_multi_item_meal_sums(self, simple_series, meal_at):
        series = simple_series(n=48, meals=(meal_at(10, gl=10.0), meal_at(10, gl=5.0)))
        regressor = build_meal_regressor(series)
        assert regressor.values[10] == 15.0

    def test_portion_scaling(self, simple_series, meal_at):
        series = simple_series(n=48, meals=(meal_at(5, description="rice", grams=50.0),))
        regressor = build_meal_regressor(series, TABLE)
        assert regressor.values[5] == pytest.approx(13.8 / 2)

    def test_unmatched_description(self, simple_series, meal_at):
        series = simple_series(n=48, meals=(meal_at(5, description="mystery stew", grams=100.0),))
        with pytest.raises(FoodLookupError, match="mystery stew"):
            build_meal_regressor(series, TABLE)

    def test_total_gl_preserved(self, simple_series, meal_at):
        rng = np.random.default_rng(5)
        gls = rng.uniform(0, 30, 7)
        meals = tuple(meal_at(int(rng.integers(0, 48)), gl=float(g)) for g in gls)
        series = simple_series(n=48, meals=meals)
        regressor = build_meal_regressor(series)
        assert regressor.values.sum() == pytest.approx(gls.sum(), rel=1e-12)
