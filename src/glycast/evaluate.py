"""Experimental protocol: chronological split, anchored multi-horizon
forecasting, error metrics, glycemic confusion matrices, and ablations.

The split is chronological (first 80% train, last 20% test). The posterior
is fitted once on the train segment; each test anchor then lets the filter
consume the full history up to the anchor before forecasting 1..H steps
ahead, so no forecast ever sees its own target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from datetime import timedelta
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .bsts.components import STANDARD_STACK, ComponentSpec, assemble_model, regression
from .bsts.sampler import forecast_anchors, mcmc_fit
from .casts import cast_fields, class_index, text, write_json
from .dataset import STEP, STEPS_PER_DAY, GlucoseSeries, _write_rows
from .errors import CapacityError, ConfigError, RangeError, SchemaError

ABLATION_NAMES = ("similar_subjects", "day_seasonal", "meal_seasonal", "circadian_seasonal")
GLYCEMIC_BANDS = ("hypo", "normal", "hyper")
SCORES = ("mae", "rmse", "mape")  # compute_metrics' order: the point-forecast scores a table reports
MIN_TRAIN = 10  # training points a fit needs


@dataclass(frozen=True)
class EvalConfig:
    split_ratio: float = 0.8
    horizons: tuple[int, ...] = (1, 2, 3, 4)
    hypo_max: float = 70.0
    hyper_min: float = 180.0
    draws: int = 1000
    burn: int = 200
    seed: int = 0
    m_similar: int = 2
    forecast_thin: int = 1

    def __post_init__(self) -> None:
        cast_fields(self)
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must lie in (0, 1)")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ConfigError("horizons must be a nonempty list of steps >= 1")
        if len(set(self.horizons)) != len(self.horizons):
            raise ConfigError(f"horizons must not repeat, got {list(self.horizons)}")
        if not self.hypo_max < self.hyper_min:
            raise ConfigError("hypo_max must be below hyper_min")
        if self.burn < 0:
            raise ConfigError(f"burn must be >= 0, got {self.burn}")
        if self.draws <= self.burn:
            raise ConfigError("draws must exceed burn")
        if self.m_similar < 1:
            raise ConfigError(f"m_similar must be >= 1, got {self.m_similar}")
        if self.forecast_thin < 1:
            raise ConfigError("forecast_thin must be >= 1")


def compute_metrics(actual: Sequence[float], predicted: Sequence[float]) -> tuple[float, float, float]:
    """(MAE, RMSE, MAPE%) with the MAPE denominator on the forecast values."""
    x = np.asarray(actual, dtype=float)
    y = np.asarray(predicted, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise SchemaError(f"series shapes differ or are empty: {x.shape} vs {y.shape}")
    if not np.all(np.isfinite(y)):
        raise RangeError("predicted values must be finite")
    err = x - y
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err**2)))
    if np.any(y == 0.0):
        raise RangeError("MAPE denominator contains zero")
    mape = float(np.mean(np.abs(err) / np.abs(y)) * 100.0)
    return mae, rmse, mape


def glycemic_confusion(
    actual: Sequence[float],
    predicted: Sequence[float],
    hypo_max: float = EvalConfig.hypo_max,
    hyper_min: float = EvalConfig.hyper_min,
) -> tuple[np.ndarray, float]:
    """3x3 counts (rows actual, columns predicted; hypo/normal/hyper order) and the diagonal's share.

    A value below `hypo_max` is hypo, one above `hyper_min` hyper, any other
    (the edges themselves and NaN included) normal.
    """
    x = np.asarray(actual, dtype=float)
    y = np.asarray(predicted, dtype=float)
    if x.shape != y.shape:
        raise SchemaError(f"series shapes differ: {x.shape} vs {y.shape}")
    bands = [1 - (v < hypo_max) + (v > hyper_min) for v in (x, y)]
    matrix = np.bincount(3 * bands[0] + bands[1], minlength=9).reshape(3, 3)
    accuracy = float(np.trace(matrix) / matrix.sum()) if matrix.sum() else 0.0
    return matrix, accuracy


@dataclass(frozen=True)
class HorizonReport:
    """One horizon's scores over the test anchors: the one record every report reads.

    `metrics.json` holds each field but `horizon` (`to_json`), the
    `confusion_<subject_id>.csv` rows its `confusion`, `render_metrics_text`
    (evaluate's stdout) its SCORES, accuracy and range, and `run_ablation`
    (`ablation.json`, `ablation.txt`) its SCORES.
    """

    horizon: int
    mae: float
    rmse: float
    mape: float
    n: int
    forecast_min: float
    forecast_max: float
    confusion: np.ndarray
    accuracy: float

    @classmethod
    def score(cls, horizon: int, actual: np.ndarray, predicted: np.ndarray, cfg: EvalConfig) -> "HorizonReport":
        """Score the mean forecasts `predicted` of the targets `actual` at `horizon`."""
        scores = compute_metrics(actual, predicted)
        confusion, accuracy = glycemic_confusion(actual, predicted, cfg.hypo_max, cfg.hyper_min)
        return cls(
            horizon, *scores, n=int(actual.size), forecast_min=float(np.min(predicted)),
            forecast_max=float(np.max(predicted)), confusion=confusion, accuracy=accuracy,
        )

    def to_json(self) -> dict:
        cell = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "horizon"}
        return {**cell, "confusion": self.confusion.tolist()}


@dataclass(frozen=True)
class MetricsReport:
    subject_id: str
    horizons: tuple[int, ...]
    reports: Mapping[int, HorizonReport]
    n_train: int
    n_test: int

    def to_json(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "horizons": {str(h): r.to_json() for h, r in sorted(self.reports.items())},
        }


@dataclass(frozen=True)
class ForecastPipeline:
    """One tester's run: its component stack and regression design.

    `regressors`, when present, must cover the tester's full series (train and
    test rows) so that anchored forecasts can read future regressor values.
    Donor rows past the anchor are known because donors recorded on other
    dates are historical data. That does not hold on `synth.gen_cgm_series`
    with `latent_share > 0`: every subject carries the same latent at the
    same instant, so a donor's row t+h carries the tester's own latent value
    at t+h (its docstring measures how far that lowers the forecast error).

    `specs` is the stack (default STANDARD_STACK). The regression's columns
    are the design's, `regressor_names` naming them: the model has a
    regression exactly when the design has columns, the stack's own
    regression entry, which supplies only its spike_slab prior, or else
    `regression()`. Without donors the stack's regression entry is left out.
    Every seasonal keeps the clock: its phase counts from midnight of the
    series' first day, so a series starting at 15-minute slot s of its day
    fits phase (phase + s) % cycle.
    """

    regressors: Optional[np.ndarray] = None
    regressor_names: tuple[str, ...] = ()
    specs: tuple[ComponentSpec, ...] = STANDARD_STACK

    def __post_init__(self) -> None:
        if self.regressors is not None:
            x = np.asarray(self.regressors, dtype=float)
            object.__setattr__(self, "regressors", x)
            if x.ndim != 2 or x.shape[1] != len(self.regressor_names):
                raise SchemaError("regressors must be (n, J) matching regressor_names")

    def component_specs(self, series: GlucoseSeries, n_train: int) -> list[ComponentSpec]:
        start = timedelta(hours=series.start.hour, minutes=series.start.minute) // STEP  # the start's slot of its day
        regressed = self.regressors is not None and self.regressors.shape[1] > 0
        specs = [
            replace(s, phase=(s.phase + start) % s.cycle) if s.kind == "seasonal" else s
            for s in self.specs
            if regressed or s.kind != "regression"
        ]
        if regressed and all(s.kind != "regression" for s in specs):
            specs.append(regression())
        return specs

    def without(self, removal: Optional[str]) -> "ForecastPipeline":
        """This pipeline less one of ABLATION_NAMES (None: unchanged).

        `similar_subjects` drops the design and `<name>_seasonal` the stack's
        seasonal called `<name>`; ConfigError if the stack holds none.
        """
        if removal is None:
            return self
        if removal == "similar_subjects":
            return replace(self, regressors=None, regressor_names=())
        name = removal.removesuffix("_seasonal")
        specs = tuple(s for s in self.specs if (s.kind, s.name) != ("seasonal", name))
        if len(specs) == len(self.specs):
            raise ConfigError(f"cannot ablate {removal!r}: the component stack has no seasonal named {name!r}")
        return replace(self, specs=specs)

    def fit(self, series: GlucoseSeries, n_train: int, cfg: EvalConfig):
        """Assemble the model on the first `n_train` points and run the Gibbs sampler: (model, draws)."""
        y = series.cgm[:n_train]
        x = self.regressors[:n_train] if self.regressors is not None else None
        model = assemble_model(self.component_specs(series, n_train), y, x)
        return model, mcmc_fit(model, y, draws=cfg.draws, burn=cfg.burn, seed=cfg.seed)


def train_test_split_sizes(n: int, cfg: EvalConfig) -> tuple[int, int]:
    n_train = int(math.floor(n * cfg.split_ratio))
    return n_train, n - n_train


def _fits(n: int, cfg: EvalConfig) -> bool:
    """Whether n points leave MIN_TRAIN training points and a test point past the longest horizon."""
    n_train, n_test = train_test_split_sizes(n, cfg)
    return n_train >= MIN_TRAIN and n_test >= max(cfg.horizons) + 1


def _min_length(cfg: EvalConfig) -> int:
    """The shortest series `_fits`; both of its counts grow with n."""
    # Below either bound a count necessarily falls short, so the scan starts there.
    n = max(1, int(max(MIN_TRAIN / cfg.split_ratio, max(cfg.horizons) / (1.0 - cfg.split_ratio))) - 1)
    while not _fits(n, cfg):
        n += 1
    return n


def sliding_window_eval(
    pipeline: ForecastPipeline, series: GlucoseSeries, cfg: EvalConfig
) -> MetricsReport:
    """Fit on the train segment, forecast every test anchor, aggregate metrics.

    Anchors step one interval at a time; anchor t forecasts y_{t+h} for each
    configured horizon using data up to and including t only.
    """
    y = series.cgm
    n = y.size
    max_h = max(cfg.horizons)
    n_train, n_test = train_test_split_sizes(n, cfg)
    if not _fits(n, cfg):
        raise CapacityError(
            f"series of length {n} is too short for split {cfg.split_ratio} and horizon {max_h}; "
            f"need at least {_min_length(cfg)} points"
        )

    x_full = pipeline.regressors
    if x_full is not None and x_full.shape[0] < n:
        raise SchemaError(f"regressors cover {x_full.shape[0]} rows but the series has {n}")

    model, draws = pipeline.fit(series, n_train, cfg)

    anchors = np.arange(n_train - 1, n - max_h)
    # The noise stream is forecast_anchors' default, seeded by the fit's seed, cfg.seed.
    forecasts = forecast_anchors(
        model, draws, y, anchors=anchors, horizons=cfg.horizons, x=x_full, thin=cfg.forecast_thin
    )

    return MetricsReport(
        subject_id=series.subject_id,
        horizons=tuple(cfg.horizons),
        reports={h: HorizonReport.score(h, y[anchors + h], forecasts[h]["mean"], cfg) for h in cfg.horizons},
        n_train=n_train,
        n_test=n_test,
    )


def build_similarity_design(
    tester: GlucoseSeries,
    similar: Sequence[GlucoseSeries],
    gl_columns: Optional[Mapping[str, np.ndarray]] = None,
    n_rows: Optional[int] = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Design matrix of similar subjects' CGM (and optional GL) trajectories.

    Columns are aligned by time of day: tester row i reads the donor at index
    i + round((tester.start - donor.start) / 15 min) mod 96, and each donor is
    cycled over its whole days so every tester row has a value at its time of
    day. A donor shorter than one day raises CapacityError, and one whose
    timestamps carry a UTC offset where the tester's do not, or the other way
    round, SchemaError. The design has `n_rows` rows (default: the tester's
    length); rows past the tester's end are the future rows a forecast reads.
    """
    n = len(tester) if n_rows is None else n_rows
    columns = []
    names = []
    for donor in similar:
        if (donor.start.utcoffset() is None) != (tester.start.utcoffset() is None):
            raise SchemaError(
                f"tester {tester.subject_id} and donor {donor.subject_id}: one series has offset-aware "
                "timestamps and the other naive ones, so their times of day cannot be aligned"
            )
        whole_days = STEPS_PER_DAY * (len(donor) // STEPS_PER_DAY)
        if not whole_days:
            raise CapacityError(
                f"donor {donor.subject_id} has {len(donor)} points, less than one day ({STEPS_PER_DAY})"
            )
        rows = (np.arange(n) + round((tester.start - donor.start) / STEP) % STEPS_PER_DAY) % whole_days
        columns.append(donor.cgm[rows])
        names.append(f"sim_{donor.subject_id}_cgm")
        if gl_columns is not None and donor.subject_id in gl_columns:
            gl = np.asarray(gl_columns[donor.subject_id], dtype=float)
            if gl.shape != donor.cgm.shape:
                raise SchemaError(f"glycemic-load column of {donor.subject_id} does not match its series")
            columns.append(gl[rows])
            names.append(f"sim_{donor.subject_id}_gl")
    if not columns:
        raise SchemaError("no similar-subject columns to build")
    return np.column_stack(columns), tuple(names)


@dataclass(frozen=True)
class AblationTable:
    rows: Mapping[str, Mapping[int, dict]]  # row -> horizon -> {metric: (mean, sd)}
    horizons: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            row: {
                str(h): {metric: [stats[0], stats[1]] for metric, stats in cells.items()}
                for h, cells in per_h.items()
            }
            for row, per_h in self.rows.items()
        }

    def render_text(self) -> str:
        lines = []
        header = f"{'experiment':<28}{'metric':<12}" + "".join(
            f"{f'{h}-step':>18}" for h in self.horizons
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row_name, per_h in self.rows.items():
            for i, metric in enumerate(SCORES):
                cells = ["{:10.2f} ± {:5.2f}".format(*per_h[h][metric]) for h in self.horizons]
                label = "" if i else row_name
                lines.append(f"{label:<28}{metric.upper():<12}" + "".join(f"{c:>18}" for c in cells))
        return "\n".join(lines)


def run_ablation(
    base_cfg: EvalConfig,
    removals: Sequence[str],
    subjects: Sequence[tuple[GlucoseSeries, ForecastPipeline]],
) -> AblationTable:
    """Evaluate the baseline plus each single-component removal.

    `subjects` pairs each tester's series with its baseline pipeline; each
    removal drops exactly one component from it (`ForecastPipeline.without`),
    and rows report per-horizon mean ± sd over subjects. Subject i is
    evaluated with seed base_cfg.seed + 1000 i under every condition.
    """
    for removal in removals:
        if removal not in ABLATION_NAMES:
            raise ConfigError(f"unknown ablation {removal!r}; expected one of {ABLATION_NAMES}")
    if not subjects:
        raise ConfigError("at least one subject is required")

    rows: dict[str, dict[int, dict]] = {}
    conditions: list[tuple[str, Optional[str]]] = [("baseline", None)]
    conditions += [(name, name) for name in sorted(set(removals))]
    for row_name, removal in conditions:
        reports = [
            sliding_window_eval(pipeline.without(removal), series, replace(base_cfg, seed=base_cfg.seed + 1000 * i))
            for i, (series, pipeline) in enumerate(subjects)
        ]
        rows[row_name] = {}
        for h in base_cfg.horizons:
            scores = {metric: [getattr(r.reports[h], metric) for r in reports] for metric in SCORES}
            rows[row_name][h] = {metric: (float(np.mean(v)), float(np.std(v))) for metric, v in scores.items()}
    return AblationTable(rows=rows, horizons=tuple(base_cfg.horizons))


def render_metrics_text(report: MetricsReport) -> str:
    lines = [f"subject {report.subject_id}  (train {report.n_train}, test {report.n_test})"]
    header = f"{'metric':<14}" + "".join(f"{f'{h}-step':>14}" for h in report.horizons)
    lines.append(header)
    lines.append("-" * len(header))
    for metric in (*SCORES, "accuracy"):
        scale = 100.0 if metric == "accuracy" else 1.0  # accuracy in percent
        cells = [f"{getattr(report.reports[h], metric) * scale:14.2f}" for h in report.horizons]
        lines.append(f"{metric.upper():<14}" + "".join(cells))
    cells = [
        f"({report.reports[h].forecast_min:.1f}, {report.reports[h].forecast_max:.1f})"
        for h in report.horizons
    ]
    lines.append(f"{'range':<14}" + "".join(f"{c:>14}" for c in cells))
    return "\n".join(lines)


def write_metrics_json(path: Path | str, reports: Sequence[MetricsReport]) -> None:
    write_json(path, [r.to_json() for r in reports])


def write_confusion_csv(path: Path | str, report: MetricsReport) -> None:
    """One row per horizon and actual band: the counts of each predicted band."""
    casts = {"horizon": class_index, "actual_band": text, **{f"pred_{b}": class_index for b in GLYCEMIC_BANDS}}
    _write_rows(path, casts, [
        (h, band, *report.reports[h].confusion[i]) for h in report.horizons for i, band in enumerate(GLYCEMIC_BANDS)
    ])
