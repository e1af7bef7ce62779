"""Clinical records, CGM time series, and the glycemic-index table, and glycast's one CSV reader and writer.

This module declares the data model once: the clinical variables and their
order, the glucose markers, the gender levels and the 15-minute grid of 96
steps a day. The encoder, the generators and the CLI read them from here.
All loaders are pure functions of the file bytes: they either return a fully
validated value or raise; no partially valid object ever escapes. Every CSV
glycast reads goes through `_read_rows` and every CSV it writes through
`_write_rows`, its inverse; the clinical, series and glycemic-table formats
each have one column schema that their loader and writer share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .casts import DESCRIPTIONS, FORMATS, optional_number, text, timestamp
from .errors import GridError, FoodLookupError, ParseError, RangeError, SchemaError

STEP_MINUTES = 15
STEP = timedelta(minutes=STEP_MINUTES)
STEPS_PER_DAY = timedelta(days=1) // STEP

CGM_RANGE = (20.0, 700.0)
MARKER_RANGE = (20.0, 700.0)

GENDER_LEVELS = ("male", "female")  # female encodes as class 1
MARKERS = ("fpg", "hpp2")  # the glucose markers donors are matched on, in mg/dL

# Features eligible for mean imputation and network encoding. UA/BUN are
# excluded (dropped wholesale during preprocessing) as are the markers
# themselves.
IMPUTABLE_FEATURES = ("age", "height_m", "weight_kg", "bmi", "hba1c", "ga", "tc", "tg", "hdl", "ldl", "cr", "egfr")

# Numeric record attributes in column order; the markers carry the _mgdl
# suffix only in the file header.
NUMERIC_FIELDS = IMPUTABLE_FEATURES + ("ua", "bun") + MARKERS

# The numeric fields that must be > 0: height and the markers have ranges of their own.
_POSITIVE_FIELDS = tuple(name for name in NUMERIC_FIELDS if name != "height_m" and name not in MARKERS)

# Each file format's column schema: its columns in order, each with the cell
# cast that reads it and whose `FORMATS` entry writes it.
CLINICAL_SCHEMA = {
    "subject_id": text,
    "gender": text,
    **dict.fromkeys(NUMERIC_FIELDS[: -len(MARKERS)] + tuple(f"{m}_mgdl" for m in MARKERS), optional_number),
}
CLINICAL_COLUMNS = tuple(CLINICAL_SCHEMA)
TIMESERIES_SCHEMA = {
    "timestamp": timestamp, "cgm_mgdl": optional_number,
    "meal_desc": text, "meal_grams": optional_number, "meal_gl": optional_number,
}
GL_TABLE_SCHEMA = {"pattern": text, "gi": optional_number, "cho_per_100g": optional_number}


@dataclass(frozen=True)
class ClinicalRecord:
    """One subject's anthropometric and biochemical profile.

    Units are fixed: height m, weight kg, bmi kg/m2, hba1c mmol/mol, ga %,
    lipids mmol/L, cr umol/L, egfr mL/min/1.73m2, fpg/hpp2 mg/dL. Any numeric
    field may be missing (None).
    """

    subject_id: str
    gender: Optional[str] = None  # one of GENDER_LEVELS
    age: Optional[float] = None
    height_m: Optional[float] = None
    weight_kg: Optional[float] = None
    bmi: Optional[float] = None
    hba1c: Optional[float] = None
    ga: Optional[float] = None
    tc: Optional[float] = None
    tg: Optional[float] = None
    hdl: Optional[float] = None
    ldl: Optional[float] = None
    cr: Optional[float] = None
    egfr: Optional[float] = None
    ua: Optional[float] = None
    bun: Optional[float] = None
    fpg: Optional[float] = None
    hpp2: Optional[float] = None

    def __post_init__(self) -> None:
        if self.gender is not None and self.gender not in GENDER_LEVELS:
            levels = "/".join(GENDER_LEVELS)
            raise RangeError(f"subject {self.subject_id}: gender must be {levels}, got {self.gender!r}")
        if self.height_m is not None and not (0.5 < self.height_m < 2.5):
            raise RangeError(f"subject {self.subject_id}: height {self.height_m} m outside (0.5, 2.5)")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise RangeError(f"subject {self.subject_id}: {name} must be > 0, got {value}")
        for name in MARKERS:
            value = getattr(self, name)
            if value is not None and not (MARKER_RANGE[0] < value < MARKER_RANGE[1]):
                raise RangeError(
                    f"subject {self.subject_id}: {name} {value} mg/dL outside {MARKER_RANGE}"
                )

    def missing_features(self) -> tuple[str, ...]:
        """Names of imputable features absent from this record."""
        return tuple(f for f in IMPUTABLE_FEATURES if getattr(self, f) is None)

    def with_values(self, **kwargs: Optional[float]) -> "ClinicalRecord":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class MealEvent:
    """A dietary entry attached to a grid point of its owning series.

    Either (description, grams) for raw records or a pre-quantified gl. The
    rules of the series CSV's meal columns hold: a description or a gl, and
    grams only with a description; ParseError otherwise.
    """

    timestamp: datetime
    grid_index: int
    description: Optional[str] = None
    grams: Optional[float] = None
    gl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.grams is not None and not self.description:
            raise ParseError("meal_grams without meal_desc")
        if not self.description and self.gl is None:
            raise ParseError("neither meal_desc nor meal_gl present")


def _nearest_index(ts: datetime, start: datetime) -> int:
    """The grid point nearest `ts` on the grid from `start`; a tie goes to the earlier point."""
    return math.ceil((ts - start).total_seconds() / STEP.total_seconds() - 0.5)


def _check_clock(ts: datetime, reference: datetime) -> None:
    """ParseError unless both timestamps carry a UTC offset or neither does: only then do they subtract."""
    if (ts.utcoffset() is None) != (reference.utcoffset() is None):
        raise ParseError(f"{ts.isoformat()} mixes offset-aware and naive timestamps with {reference.isoformat()}")


@dataclass(frozen=True)
class GlucoseSeries:
    """CGM values on a strict 15-minute grid with attached meal events.

    Each meal's timestamp carries a UTC offset exactly when `start` does, and
    its grid_index is the grid point nearest its timestamp (a tie goes to the
    earlier point), the point `load_timeseries` attaches it to.
    """

    subject_id: str
    start: datetime
    cgm: np.ndarray
    meals: tuple[MealEvent, ...] = ()

    def __post_init__(self) -> None:
        cgm = np.asarray(self.cgm, dtype=float)
        object.__setattr__(self, "cgm", cgm)
        if cgm.ndim != 1 or cgm.size == 0:
            raise GridError(f"subject {self.subject_id}: cgm must be a nonempty 1-d sequence")
        lo, hi = CGM_RANGE
        bad = np.where((cgm <= lo) | (cgm >= hi))[0]
        if bad.size:
            raise RangeError(
                f"subject {self.subject_id}: cgm value {cgm[bad[0]]} at index {bad[0]} "
                f"outside ({lo}, {hi}) mg/dL"
            )
        for meal in self.meals:
            try:
                _check_clock(meal.timestamp, self.start)
            except ParseError as exc:
                raise ParseError(f"subject {self.subject_id}: meal at {exc}") from None
            nearest = _nearest_index(meal.timestamp, self.start)
            if meal.grid_index != nearest:
                raise GridError(
                    f"subject {self.subject_id}: meal at {meal.timestamp} has grid_index {meal.grid_index},"
                    f" but its nearest grid point is {nearest}"
                )
            if not 0 <= meal.grid_index < cgm.size:
                raise GridError(
                    f"subject {self.subject_id}: meal at {meal.timestamp} attached outside the grid"
                )

    def __len__(self) -> int:
        return int(self.cgm.size)

    def timestamp_at(self, index: int) -> datetime:
        return self.start + index * STEP


@dataclass(frozen=True)
class GlycemicTable:
    """Food-pattern table of (glycemic index, available carbohydrate per 100 g)."""

    entries: tuple[tuple[str, float, float], ...]
    _by_pattern: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: dict[str, tuple[float, float]] = {}
        for pattern, gi, cho in self.entries:
            key = pattern.strip().lower()
            if not key:
                raise SchemaError("empty food pattern")
            if key in seen:
                raise SchemaError(f"duplicate food pattern {pattern!r}")
            if gi < 0:
                raise RangeError(f"pattern {pattern!r}: gi must be >= 0, got {gi}")
            if not 0 <= cho <= 100:
                raise RangeError(f"pattern {pattern!r}: cho_per_100g {cho} outside [0, 100]")
            seen[key] = (gi, cho)
        object.__setattr__(self, "_by_pattern", seen)

    def lookup(self, description: str) -> tuple[float, float]:
        """Longest-pattern substring match; returns (gi, cho_per_100g)."""
        text = description.strip().lower()
        best: Optional[str] = None
        for pattern in self._by_pattern:
            if pattern in text:
                if best is None or len(pattern) > len(best) or (len(pattern) == len(best) and pattern < best):
                    best = pattern
        if best is None:
            raise FoodLookupError(f"no glycemic-table pattern matches {description!r}")
        return self._by_pattern[best]


def _read_rows(path: Path | str, casts: Mapping[str, Callable], optional: Sequence[str] = ()) -> list[tuple]:
    """The CSV's non-blank rows, each the tuple of its cells cast by `casts`, in the order of `casts`.

    The header, matched without case, must name every column of `casts` that
    `optional` lacks, none twice and no other; a row must hold no more cells
    than the header, and a cell it lacks, or a column the header lacks, reads
    blank. SchemaError or ParseError naming the file; for a cell its cast
    refuses, "<file>: row <i>: column <c> holds '<cell>', not <description>",
    with rows counted from 0 over the non-blank rows.
    """
    path = Path(path)
    names = {c.lower(): c for c in casts}
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = [names.get(h.strip().lower(), h.strip()) for h in next(reader)]
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            for k, column in enumerate(header):
                if column not in casts:
                    raise SchemaError(f"{path}: unknown column {column}")
                if column in header[:k]:
                    raise SchemaError(f"{path}: column {column} appears twice")
            missing = [c for c in casts if c not in header and c not in optional]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {', '.join(missing)}")
            width = len(header)
            # A column the header lacks reads the blank cell padded after a row's last one.
            plan = [(c, cast, header.index(c) if c in header else width) for c, cast in casts.items()]
            rows: list[tuple] = []
            for cells in reader:
                if not any(cell.strip() for cell in cells):
                    continue
                if len(cells) > width:
                    raise ParseError(f"{path}: row {len(rows)} holds {len(cells)} cells under {width} columns")
                cells.extend([""] * (width + 1 - len(cells)))
                row = []
                try:
                    for column, cast, k in plan:
                        row.append(cast(cells[k]))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {len(rows)}: column {column} holds {cells[k]!r}, not {DESCRIPTIONS[cast]}"
                    ) from None
                rows.append(tuple(row))
            return rows
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_clinical(path: Path | str) -> list[ClinicalRecord]:
    """Load one clinical CSV (one row per subject admission) into records.

    Blank cells become missing markers; row order is preserved. A
    subject_id listed on two rows is a ParseError naming both.
    """
    records: list[ClinicalRecord] = []
    row_of: dict[str, int] = {}
    for i, (subject_id, gender, *values) in enumerate(_read_rows(path, CLINICAL_SCHEMA)):
        if not subject_id:
            raise ParseError(f"{path}: row {i}: empty subject_id")
        if subject_id in row_of:
            raise ParseError(f"{path}: rows {row_of[subject_id]} and {i}: subject_id {subject_id} repeated")
        row_of[subject_id] = i
        try:
            records.append(ClinicalRecord(subject_id, gender.lower() or None, **dict(zip(NUMERIC_FIELDS, values))))
        except RangeError as exc:
            raise RangeError(f"{path}: row {i}: {exc}") from None
    return records


def load_timeseries(path: Path | str, subject_id: Optional[str] = None) -> GlucoseSeries:
    """Load one subject's CGM series from CSV.

    Rows carrying a cgm value must form the strict 15-minute grid. Rows with a
    blank cgm cell are meal-only entries and may sit off-grid; each meal is
    attached to the nearest grid point, ties toward the earlier point, and
    follows `MealEvent`'s rules. Every timestamp must carry a UTC offset if the
    first cgm row's does, and none if not.
    """
    path = Path(path)
    rows = _read_rows(path, TIMESERIES_SCHEMA, tuple(TIMESERIES_SCHEMA)[2:])
    start = next((ts for ts, cgm, *_ in rows if cgm is not None), None)
    if start is None:
        raise GridError(f"{path}: no cgm rows")
    cgm_values: list[float] = []
    meals: list[MealEvent] = []
    try:
        for i, (ts, cgm, desc, grams, gl) in enumerate(rows):
            _check_clock(ts, start)
            if cgm is not None:
                expected = start + len(cgm_values) * STEP
                if ts != expected:
                    problem = "duplicate timestamp" if ts == expected - STEP else "grid gap or misaligned timestamp"
                    raise GridError(f"{problem} {ts.isoformat()} (expected {expected.isoformat()})")
                cgm_values.append(cgm)
            if desc or grams is not None or gl is not None:
                meals.append(MealEvent(ts, _nearest_index(ts, start), desc or None, grams, gl))
            elif cgm is None:
                raise ParseError("neither cgm_mgdl nor meal columns present")
    except (GridError, ParseError) as exc:
        raise type(exc)(f"{path}: row {i}: {exc}") from None
    subject_id = path.stem if subject_id is None else subject_id
    try:
        return GlucoseSeries(subject_id=subject_id, start=start, cgm=np.array(cgm_values), meals=tuple(meals))
    except (GridError, RangeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_gl_table(path: Path | str) -> GlycemicTable:
    """Load the (pattern, gi, cho_per_100g) reference table."""
    entries = tuple(_read_rows(path, GL_TABLE_SCHEMA))
    for i, (pattern, gi, cho) in enumerate(entries):
        if not pattern or gi is None or cho is None:
            raise ParseError(f"{path}: row {i}: pattern, gi, and cho_per_100g are all required")
    try:
        return GlycemicTable(entries=entries)
    except (RangeError, SchemaError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write_rows(path: Path | str, casts: Mapping[str, Callable], rows: Iterable[Sequence]) -> None:
    """Write the CSV from which `_read_rows(path, casts)` reads `rows` back.

    The header names the columns of `casts`, and each row holds one value per
    column, in that order. Each cell is its value formatted by the `FORMATS`
    entry of its column's cast, one column at a time.
    """
    columns = [map(FORMATS[cast], values) for cast, values in zip(casts.values(), zip(*rows))]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(casts)
        writer.writerows(zip(*columns))


def write_clinical(path: Path | str, records: Iterable[ClinicalRecord]) -> None:
    rows = [(r.subject_id, r.gender, *(getattr(r, name) for name in NUMERIC_FIELDS)) for r in records]
    _write_rows(path, CLINICAL_SCHEMA, rows)


def write_timeseries(path: Path | str, series: GlucoseSeries) -> None:
    """Write `series` as the CSV that `load_timeseries` reads back.

    A meal shares its grid point's row when it sits exactly on that point;
    any other meal keeps its own timestamp on a cgm-less row after it.
    """
    attached: dict[int, list[MealEvent]] = {}
    for meal in series.meals:
        attached.setdefault(meal.grid_index, []).append(meal)
    rows: list[tuple] = []
    for i, value in enumerate(series.cgm.tolist()):
        ts = series.start + i * STEP
        meals = attached.get(i)
        if meals is None:
            rows.append((ts, value, None, None, None))
            continue
        merged = next((m for m in meals if m.timestamp == ts), None)
        rows.append((ts, value, merged.description, merged.grams, merged.gl) if merged else (ts, value, None, None, None))
        rows.extend((m.timestamp, None, m.description, m.grams, m.gl) for m in meals if m is not merged)
    _write_rows(path, TIMESERIES_SCHEMA, rows)


def write_gl_table(path: Path | str, table: GlycemicTable) -> None:
    _write_rows(path, GL_TABLE_SCHEMA, table.entries)
