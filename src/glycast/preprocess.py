"""Clinical-data cleaning and encoding, plus glycemic-load quantification.

The clinical branch: exclude records with missing glucose markers or too many
gaps, mean-impute the rest, z-score every numeric feature, and discretize into
equal-frequency classes (binary one-hot for gender). The time-series branch:
turn dietary entries into a per-grid-point glycemic-load regressor.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dataset import GENDER_LEVELS, IMPUTABLE_FEATURES, MARKERS, ClinicalRecord, GlucoseSeries, GlycemicTable
from .errors import EncodingError, ImputationError, RangeError, SchemaError

ENCODED_FEATURES = ("gender",) + IMPUTABLE_FEATURES + MARKERS


@dataclass(frozen=True)
class VariableCodec:
    """Per-variable discretization metadata kept for decoding.

    Numeric variables carry z-score stats and z-space bin edges; binary
    variables (gender) carry the level labels. `representatives` maps each
    class index back to an original-scale value: interior bins use the
    inverse-z-scored bin midpoint, edge bins the median of their members.
    """

    name: str
    card: int
    kind: str  # "numeric" | "binary"
    mean: float = 0.0
    sd: float = 1.0
    edges: tuple[float, ...] = ()
    representatives: tuple[float, ...] = ()
    levels: tuple[str, ...] = ()

    def encode_value(self, value: float | str) -> int:
        """The class of one original-scale value: a binary variable's level index, a numeric value's bin."""
        if self.kind == "binary":
            if value not in self.levels:
                raise EncodingError(f"{self.name}: unknown level {value!r}; expected one of {self.levels}")
            return self.levels.index(value)
        # The class np.searchsorted(edges, z, side="right") gives, NaN past the last edge.
        return bisect.bisect_right(self.edges, float((value - self.mean) / self.sd))


@dataclass(frozen=True)
class DiscreteDataset:
    """Rows of class indices over named variables, with decoding metadata."""

    variables: tuple[str, ...]
    cards: tuple[int, ...]
    matrix: np.ndarray
    codecs: tuple[VariableCodec, ...] = ()
    subject_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.int64)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.variables):
            raise SchemaError("matrix shape does not match variable count")
        if len(self.cards) != len(self.variables):
            raise SchemaError("cards length does not match variable count")
        for j, card in enumerate(self.cards):
            column = matrix[:, j]
            if column.size and (column.min() < 0 or column.max() >= card):
                raise RangeError(f"variable {self.variables[j]}: class index outside 0..{card - 1}")

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    def index_of(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise SchemaError(f"unknown variable {name}") from None

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.index_of(name)]

    def card_of(self, name: str) -> int:
        return self.cards[self.index_of(name)]


@dataclass(frozen=True)
class MealRegressor:
    """Glycemic load per grid point; zero where no meal is attached."""

    subject_id: str
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if np.any(values < 0):
            raise RangeError("meal regressor values must be >= 0")


def exclude_incomplete(
    records: Sequence[ClinicalRecord], max_missing: int = 3
) -> tuple[list[ClinicalRecord], list[dict[str, str]]]:
    """Drop records unusable for network construction.

    A record is excluded when FPG or 2HPP is missing, when gender is missing
    (it cannot be mean-imputed), or when more than `max_missing` of the
    imputable features are absent. UA and BUN are cleared on every kept record;
    they are not carried as network variables.
    """
    if max_missing < 0:
        raise RangeError(f"max_missing must be >= 0, got {max_missing}")
    kept: list[ClinicalRecord] = []
    report: list[dict[str, str]] = []
    for record in records:
        if record.fpg is None or record.hpp2 is None:
            report.append({"subject_id": record.subject_id, "reason": "missing FPG or 2HPP"})
            continue
        if record.gender is None:
            report.append({"subject_id": record.subject_id, "reason": "missing gender"})
            continue
        n_missing = len(record.missing_features())
        if n_missing > max_missing:
            report.append(
                {
                    "subject_id": record.subject_id,
                    "reason": f"too many missing features ({n_missing} > {max_missing})",
                }
            )
            continue
        kept.append(record.with_values(ua=None, bun=None))
    return kept, report


def impute_means(records: Sequence[ClinicalRecord]) -> list[ClinicalRecord]:
    """Replace each missing imputable feature with its donor arithmetic mean."""
    if not records:
        return []
    means: dict[str, float] = {}
    for feature in IMPUTABLE_FEATURES:
        donors = [getattr(r, feature) for r in records if getattr(r, feature) is not None]
        if any(getattr(r, feature) is None for r in records):
            if not donors:
                raise ImputationError(f"feature {feature}: no donor values to impute from")
        if donors:
            means[feature] = float(np.mean(donors))
    imputed: list[ClinicalRecord] = []
    for record in records:
        fills = {f: means[f] for f in record.missing_features() if f in means}
        imputed.append(record.with_values(**fills) if fills else record)
    return imputed


def _equal_frequency_codec(name: str, values: np.ndarray, n_bins: int) -> tuple[VariableCodec, np.ndarray]:
    mean = float(np.mean(values))
    sd = float(np.std(values))
    if sd == 0.0:
        raise EncodingError(f"feature {name}: zero variance")
    z = (values - mean) / sd
    quantiles = [k / n_bins for k in range(1, n_bins)]
    edges = np.quantile(z, quantiles)
    classes = np.searchsorted(edges, z, side="right").astype(np.int64)

    representatives = []
    for k in range(n_bins):
        members = values[classes == k]
        if k == 0 or k == n_bins - 1:
            if members.size:
                rep = float(np.median(members))
            else:
                # Empty edge bin: fall back to the nearest finite boundary.
                rep = mean + sd * float(edges[0] if k == 0 else edges[-1])
        else:
            rep = mean + sd * float((edges[k - 1] + edges[k]) / 2.0)
        representatives.append(rep)

    codec = VariableCodec(
        name=name,
        card=n_bins,
        kind="numeric",
        mean=mean,
        sd=sd,
        edges=tuple(float(e) for e in edges),
        representatives=tuple(representatives),
    )
    return codec, classes


def standardize_encode(records: Sequence[ClinicalRecord], n_bins: int = 4) -> DiscreteDataset:
    """Z-score then discretize complete records into a DiscreteDataset.

    Numeric features are standardized to zero mean / unit sd and cut at
    equal-frequency quantile edges into `n_bins` classes; gender becomes a
    binary variable (female = 1). Codec metadata is retained so a class can be
    decoded back to a representative original-scale value.
    """
    if n_bins < 2:
        raise RangeError(f"n_bins must be >= 2, got {n_bins}")
    if not records:
        raise EncodingError("cannot encode an empty record list")
    numeric_features = IMPUTABLE_FEATURES + MARKERS
    for record in records:
        if record.gender is None:
            raise EncodingError(f"subject {record.subject_id}: missing gender")
        for feature in numeric_features:
            if getattr(record, feature) is None:
                raise EncodingError(f"subject {record.subject_id}: missing {feature} (impute first)")

    columns: list[np.ndarray] = []
    codecs: list[VariableCodec] = []
    cards: list[int] = []

    gender = VariableCodec(
        name="gender", card=2, kind="binary", representatives=(0.0, 1.0), levels=GENDER_LEVELS
    )
    codecs.append(gender)
    columns.append(np.array([gender.encode_value(r.gender) for r in records], dtype=np.int64))
    cards.append(2)

    for feature in numeric_features:
        values = np.array([getattr(r, feature) for r in records], dtype=float)
        codec, classes = _equal_frequency_codec(feature, values, n_bins)
        codecs.append(codec)
        columns.append(classes)
        cards.append(n_bins)

    return DiscreteDataset(
        variables=ENCODED_FEATURES,
        cards=tuple(cards),
        matrix=np.column_stack(columns),
        codecs=tuple(codecs),
        subject_ids=tuple(r.subject_id for r in records),
    )


def glycemic_load(gi: float, cho_available: float) -> float:
    """Glycemic load of a food item: gi * available carbohydrate / 100."""
    if gi < 0 or cho_available < 0:
        raise RangeError(f"glycemic_load requires nonnegative inputs, got gi={gi}, cho={cho_available}")
    return gi * cho_available / 100.0


def build_meal_regressor(series: GlucoseSeries, table: Optional[GlycemicTable] = None) -> MealRegressor:
    """Aggregate per-meal glycemic loads onto the series grid.

    Pre-quantified meals contribute their gl directly; raw (description,
    grams) items are looked up in the table and scaled to the actual portion.
    Multiple items at one grid point sum.
    """
    values = np.zeros(len(series), dtype=float)
    for meal in series.meals:
        if meal.gl is not None:
            if meal.gl < 0:
                raise RangeError(f"meal at {meal.timestamp}: negative gl {meal.gl}")
            values[meal.grid_index] += meal.gl
            continue
        if meal.description is None:
            raise RangeError(f"meal at {meal.timestamp}: neither gl nor description present")
        if table is None:
            raise RangeError(f"meal at {meal.timestamp}: raw item requires a glycemic table")
        if meal.grams is None:
            raise RangeError(f"meal at {meal.timestamp}: raw item {meal.description!r} has no weight")
        gi, cho_per_100g = table.lookup(meal.description)
        portion_cho = cho_per_100g * meal.grams / 100.0
        values[meal.grid_index] += glycemic_load(gi, portion_cho)
    return MealRegressor(subject_id=series.subject_id, values=values)
