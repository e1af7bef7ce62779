from datetime import timedelta

import numpy as np
import pytest

from glycast.casts import class_index, text
from glycast.dataset import (
    CLINICAL_COLUMNS,
    CLINICAL_SCHEMA,
    MARKERS,
    NUMERIC_FIELDS,
    TIMESERIES_SCHEMA,
    ClinicalRecord,
    GlycemicTable,
    _read_rows,
    _write_rows,
    load_clinical,
    load_gl_table,
    load_timeseries,
    write_clinical,
    write_gl_table,
    write_timeseries,
)
from glycast.errors import GridError, FoodLookupError, ParseError, RangeError, SchemaError

from conftest import EDGE_FLOATS, EDGE_TEXT, EDGE_TIMES, START, grid_timestamps, write_csv


def clinical_row(subject_id="P1", **overrides):
    row = {
        "subject_id": subject_id,
        "gender": "male",
        "age": 55,
        "height_m": 1.7,
        "weight_kg": 70,
        "bmi": 24.2,
        "hba1c": 75,
        "ga": 24,
        "tc": 4.9,
        "tg": 1.8,
        "hdl": 1.1,
        "ldl": 3.1,
        "cr": 65,
        "egfr": 110,
        "ua": 330,
        "bun": 6,
        "fpg_mgdl": 160,
        "hpp2_mgdl": 260,
    }
    row.update(overrides)
    return [row[c] for c in CLINICAL_COLUMNS]


class TestLoadClinical:
    def test_two_complete_rows(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row("A"), clinical_row("B")]
        )
        records = load_clinical(path)
        assert [r.subject_id for r in records] == ["A", "B"]
        assert all(not r.missing_features() for r in records)

    def test_blank_cell_becomes_missing(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row(hba1c="")])
        (record,) = load_clinical(path)
        assert record.hba1c is None
        assert record.missing_features() == ("hba1c",)

    def test_unknown_column_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS + ("XYZ",), [clinical_row() + [1]])
        with pytest.raises(SchemaError, match="unknown column XYZ"):
            load_clinical(path)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row("A"), clinical_row("B", age="old")]
        )
        with pytest.raises(ParseError) as caught:
            load_clinical(path)
        assert str(caught.value) == f"{path}: row 1: column age holds 'old', not a number"

    def test_record_range_error_names_file_and_row(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row("A"), clinical_row("B", gender="x")])
        with pytest.raises(RangeError) as caught:
            load_clinical(path)
        assert str(caught.value) == f"{path}: row 1: subject B: gender must be male/female, got 'x'"

    def test_repeated_column_is_schema_error(self, tmp_path):
        # The second age column's cells were read and the first's dropped.
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS + ("AGE",), [clinical_row() + [99]])
        with pytest.raises(SchemaError) as caught:
            load_clinical(path)
        assert str(caught.value) == f"{path}: column age appears twice"

    def test_extra_cell_is_parse_error_and_a_missing_cell_reads_blank(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row("A"), clinical_row("B") + [1]])
        with pytest.raises(ParseError) as caught:
            load_clinical(path)
        assert str(caught.value) == f"{path}: row 1 holds 19 cells under 18 columns"
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row("A")[:-2]])
        (record,) = load_clinical(path)
        assert (record.fpg, record.hpp2) == (None, None)

    def test_repeated_subject_id_names_both_rows(self, tmp_path):
        # Stage 1 would learn from both rows but keep one record per subject_id.
        rows = [clinical_row("A"), clinical_row("B"), clinical_row("A", age=60)]
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS, rows)
        with pytest.raises(ParseError, match="rows 0 and 2: subject_id A repeated"):
            load_clinical(path)

    def test_loading_is_pure(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row("A")])
        assert load_clinical(path) == load_clinical(path)

    def test_round_trip(self, tmp_path, complete_record):
        path = tmp_path / "c.csv"
        rows = [(EDGE_TEXT, "female", *EDGE_FLOATS * 4), ("P2", "", *(None,) * 16)]
        _write_rows(path, CLINICAL_SCHEMA, rows)
        assert repr(_read_rows(path, CLINICAL_SCHEMA)) == repr(rows)
        records = [complete_record(EDGE_TEXT, gender=None, tc=5e-324, egfr=1.7e308, tg=0.1 + 0.2, hdl=None)]
        write_clinical(path, records)
        assert load_clinical(path) == records

    def test_marker_range_enforced(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", CLINICAL_COLUMNS, [clinical_row(fpg_mgdl=900)])
        with pytest.raises(RangeError):
            load_clinical(path)


@pytest.mark.parametrize("name", [f for f in NUMERIC_FIELDS if f != "height_m" and f not in MARKERS])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_value_refused(name, value):
    # Every numeric field but height and the markers, which have ranges of their own, must be > 0.
    with pytest.raises(RangeError, match=f"P1: {name} must be > 0, got {value}"):
        ClinicalRecord("P1", **{name: value})


def timeseries_rows(n, start=START, cgm=120.0):
    return [[ts.isoformat(), cgm, "", "", ""] for ts in grid_timestamps(n, start)]


HEADER = ("timestamp", "cgm_mgdl", "meal_desc", "meal_grams", "meal_gl")


class TestLoadTimeseries:
    def test_one_day_has_96_points(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", HEADER, timeseries_rows(96))
        series = load_timeseries(path)
        assert len(series) == 96
        assert series.start == START

    def test_duplicate_timestamp_is_grid_error(self, tmp_path):
        rows = timeseries_rows(5)
        rows.insert(3, rows[2])
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        with pytest.raises(GridError, match="duplicate"):
            load_timeseries(path)

    def test_gap_is_grid_error(self, tmp_path):
        rows = timeseries_rows(6)
        del rows[3]
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        with pytest.raises(GridError, match="gap|misaligned"):
            load_timeseries(path)

    def test_naive_meal_under_aware_grid_is_parse_error(self, tmp_path):
        rows = timeseries_rows(8)
        rows.append([(START + timedelta(minutes=20)).replace(tzinfo=None).isoformat(), "", "rice", 50, ""])
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        with pytest.raises(ParseError, match="row 8: .*offset-aware and naive"):
            load_timeseries(path)

    def test_naive_grid_row_after_aware_rows_is_parse_error(self, tmp_path):
        rows = timeseries_rows(6)
        rows[4][0] = (START + timedelta(minutes=60)).replace(tzinfo=None).isoformat()
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        with pytest.raises(ParseError, match="row 4: .*offset-aware and naive"):
            load_timeseries(path)

    def test_meal_attaches_to_nearest_grid_point(self, tmp_path):
        rows = timeseries_rows(96)
        meal_ts = START + timedelta(hours=7, minutes=3)
        rows.append([meal_ts.isoformat(), "", "rice", 100, ""])
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        series = load_timeseries(path)
        (meal,) = series.meals
        assert meal.grid_index == 28  # 07:00
        assert series.timestamp_at(meal.grid_index) == START + timedelta(hours=7)

    def test_meal_outside_the_grid_names_the_file(self, tmp_path):
        rows = timeseries_rows(8)
        early = START - timedelta(minutes=20)
        rows.append([early.isoformat(), "", "", "", 5.0])
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        with pytest.raises(GridError) as caught:
            load_timeseries(path)
        assert str(caught.value) == f"{path}: subject s: meal at {early} attached outside the grid"

    def test_meal_tie_goes_to_earlier_point(self, tmp_path):
        rows = timeseries_rows(8)
        rows.append([(START + timedelta(minutes=22, seconds=30)).isoformat(), "", "rice", 50, ""])
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        (meal,) = load_timeseries(path).meals
        assert meal.grid_index == 1

    def test_cgm_out_of_range(self, tmp_path):
        rows = timeseries_rows(4)
        rows[2][1] = 720.0
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        with pytest.raises(RangeError) as caught:
            load_timeseries(path)
        assert str(caught.value) == f"{path}: subject s: cgm value 720.0 at index 2 outside (20.0, 700.0) mg/dL"

    def test_bad_timestamp_names_file_row_and_column(self, tmp_path):
        rows = timeseries_rows(4)
        rows[1][0] = "2024-13-01T00:15:00Z"
        path = write_csv(tmp_path / "s.csv", HEADER, rows)
        with pytest.raises(ParseError) as caught:
            load_timeseries(path)
        assert str(caught.value) == (
            f"{path}: row 1: column timestamp holds '2024-13-01T00:15:00Z', not an RFC 3339 timestamp"
        )

    def test_grams_without_description_is_parse_error(self, tmp_path):
        # On a cgm row the grams were dropped; on a cgm-less row they raised "neither cgm_mgdl nor meal columns".
        on_grid = timeseries_rows(8)
        on_grid[2][3] = 150
        off_grid = timeseries_rows(8) + [[(START + timedelta(minutes=20)).isoformat(), "", "", 150, ""]]
        for rows, i in ((on_grid, 2), (off_grid, 8)):
            path = write_csv(tmp_path / "s.csv", HEADER, rows)
            with pytest.raises(ParseError) as caught:
                load_timeseries(path)
            assert str(caught.value) == f"{path}: row {i}: meal_grams without meal_desc"

    def test_trailing_z_reads_as_utc(self, tmp_path):
        rows = timeseries_rows(4)
        for k, row in enumerate(rows):
            row[0] = (START + k * timedelta(minutes=15)).strftime("%Y-%m-%dT%H:%M:%S") + "Zz"[k % 2]
        assert load_timeseries(write_csv(tmp_path / "s.csv", HEADER, rows)).start == START

    def test_round_trip(self, tmp_path, simple_series, meal_at):
        rng = np.random.default_rng(1)
        series = simple_series(
            n=48,
            values=rng.uniform(80, 240, 48),
            meals=(meal_at(10, gl=13.8), meal_at(20, description=EDGE_TEXT, grams=0.1 + 0.2, gl=-0.0)),
        )
        path = tmp_path / "rt.csv"
        write_timeseries(path, series)
        back = load_timeseries(path, subject_id=series.subject_id)
        assert back.start == series.start
        np.testing.assert_array_equal(back.cgm, series.cgm)
        assert repr([(m.grid_index, m.gl, m.description, m.grams) for m in back.meals]) == repr([
            (10, 13.8, None, None),
            (20, -0.0, EDGE_TEXT, 0.1 + 0.2),
        ])
        rows = [(ts, value, EDGE_TEXT, value, value) for ts, value in zip(EDGE_TIMES, EDGE_FLOATS)]
        rows.append((START, None, "", None, None))
        _write_rows(path, TIMESERIES_SCHEMA, rows)
        assert repr(_read_rows(path, TIMESERIES_SCHEMA)) == repr(rows)

    def test_a_meal_the_reader_refuses_is_refused(self, tmp_path, simple_series, meal_at):
        # Each was accepted, written by write_timeseries, and then refused by load_timeseries.
        with pytest.raises(ParseError, match="^neither meal_desc nor meal_gl present$"):
            meal_at(3)
        with pytest.raises(ParseError, match="^meal_grams without meal_desc$"):
            meal_at(3, grams=50.0, gl=4.0)
        naive = meal_at(3, gl=4.0, timestamp=(START + timedelta(minutes=45)).replace(tzinfo=None))
        with pytest.raises(ParseError) as caught:
            simple_series(n=8, meals=(naive,))
        assert str(caught.value) == (
            "subject P1: meal at 2024-01-01T00:45:00 mixes offset-aware and naive timestamps"
            " with 2024-01-01T00:00:00+00:00"
        )

    def test_off_grid_meal_round_trip(self, tmp_path, simple_series, meal_at):
        off = START + timedelta(minutes=33)
        series = simple_series(n=12, meals=(meal_at(2, gl=5.0, timestamp=off),))
        path = tmp_path / "rt.csv"
        write_timeseries(path, series)
        back = load_timeseries(path)
        np.testing.assert_array_equal(back.cgm, series.cgm)
        (meal,) = back.meals
        assert (meal.grid_index, meal.timestamp) == (2, off)

    @pytest.mark.parametrize(
        "minutes, index, nearest",
        [(40, 1, 3), (7.5, 1, 0), (-20, 0, -1)],  # 7.5 ties between points 0 and 1: the earlier wins
    )
    def test_a_meal_must_sit_at_its_nearest_grid_point(self, tmp_path, simple_series, meal_at, minutes, index, nearest):
        # Each series was accepted before, and load_timeseries moved its meal or refused the file.
        ts = START + timedelta(minutes=minutes)
        with pytest.raises(GridError) as caught:
            simple_series(n=8, meals=(meal_at(index, gl=4.0, timestamp=ts),))
        assert str(caught.value) == (
            f"subject P1: meal at {ts} has grid_index {index}, but its nearest grid point is {nearest}"
        )
        if nearest >= 0:
            path = tmp_path / "rt.csv"
            write_timeseries(path, simple_series(n=8, meals=(meal_at(nearest, gl=4.0, timestamp=ts),)))
            (meal,) = load_timeseries(path).meals
            assert (meal.grid_index, meal.timestamp) == (nearest, ts)


class TestGlycemicTable:
    def test_longest_match(self):
        table = GlycemicTable(entries=(("rice", 73, 28), ("fried rice", 65, 30)))
        assert table.lookup("special fried rice") == (65, 30)
        assert table.lookup("plain rice bowl") == (73, 28)

    def test_substring_match(self):
        table = GlycemicTable(entries=(("rice", 73, 28),))
        assert table.lookup("fried rice") == (73, 28)

    def test_paper_pork_and_rice_entry(self, tmp_path):
        path = write_csv(
            tmp_path / "gl.csv",
            ("pattern", "gi", "cho_per_100g"),
            [["pork and rice dish", 60, 23], ["rice", 73, 28]],
        )
        table = load_gl_table(path)
        assert table.lookup("a pork and rice dish with mushrooms") == (60, 23)

    def test_duplicate_pattern(self):
        with pytest.raises(SchemaError, match="duplicate"):
            GlycemicTable(entries=(("rice", 73, 28), ("Rice", 70, 25)))

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            GlycemicTable(entries=(("rice", 73, 128),))
        with pytest.raises(RangeError):
            GlycemicTable(entries=(("rice", -1, 28),))

    def test_no_match_raises(self):
        table = GlycemicTable(entries=(("rice", 73, 28),))
        with pytest.raises(FoodLookupError, match="tofu"):
            table.lookup("tofu soup")

    def test_gl_table_errors_name_the_file(self, tmp_path):
        path = write_csv(tmp_path / "gl.csv", ("pattern", "gi", "cho_per_100g"), [["rice", "nan", 28]])
        with pytest.raises(ParseError) as caught:
            load_gl_table(path)
        assert str(caught.value) == f"{path}: row 0: column gi holds 'nan', not a number"
        path = write_csv(tmp_path / "gl.csv", ("pattern", "gi", "cho_per_100g"), [["rice", 73, 28], ["Rice", 70, 25]])
        with pytest.raises(SchemaError) as caught:
            load_gl_table(path)
        assert str(caught.value) == f"{path}: duplicate food pattern 'Rice'"

    def test_table_round_trip(self, tmp_path):
        table = GlycemicTable(entries=(("rice", 73.0, 28.0), (EDGE_TEXT, 5e-324, 0.1 + 0.2), ("milk", 1.7e308, -0.0)))
        path = tmp_path / "gl.csv"
        write_gl_table(path, table)
        back = load_gl_table(path)
        assert back == table
        assert repr(back.entries) == repr(table.entries)


def test_text_and_class_index_cells_round_trip(tmp_path):
    # The confusion CSV's cells: text with a comma and quotes, and class indices up to the largest int64.
    schema = {"name": text, "count": class_index}
    rows = [(EDGE_TEXT, 0), ("", 2**63 - 1)]
    _write_rows(tmp_path / "c.csv", schema, rows)
    assert _read_rows(tmp_path / "c.csv", schema) == rows
