from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from glycast.bsts import PosteriorDraws
from glycast.bsts.kalman import _DrawOperators, _filter_draws
from glycast.dataset import ClinicalRecord, GlucoseSeries, MealEvent

START = datetime(2024, 1, 1, tzinfo=timezone.utc)

# Values a writer must write so that its reader reads them back exactly: the smallest subnormal, a float near the
# largest, a sum with no short decimal and a negative zero; microseconds, a +05:30 offset and naive times; text
# holding a comma and quotes.
EDGE_FLOATS = (5e-324, 1.7e308, 0.1 + 0.2, -0.0)
EDGE_TIMES = (
    datetime(2024, 3, 1, 8, 5, 7, 123456, tzinfo=timezone(timedelta(hours=5, minutes=30))),
    datetime(2024, 3, 1, 8, 5, 7, 999999),
    datetime(2024, 3, 1, 8, 5),
    START,
)
EDGE_TEXT = 'rice, "fried" with egg'


def grid_timestamps(n, start=START):
    return [start + timedelta(minutes=15 * i) for i in range(n)]


def make_draws(model, entries, requested=None, burn=0, seed=0):
    """Hand-build PosteriorDraws from a list of (params, terminal_state), every column included."""
    rows = [(p, np.ones(model.n_regressors, dtype=np.int64), s) for p, s in entries]
    requested = len(rows) if requested is None else requested
    return PosteriorDraws.from_rows(rows, requested=requested, burn=burn, seed=seed)


def filter_point(model, params, y, x=None):
    """`_filter_draws` on the one-row PosteriorDraws of `params`, stacked over the steps of y.

    Returns a_t|t (n, m), P_t|t (n, m, m), v_t (n,), F_t (n,) and the gains (n, m);
    x defaults to the model's design.
    """
    ops = _DrawOperators(model, make_draws(model, [(params, np.zeros(model.state_dim))]))
    steps = _filter_draws(model, ops, np.asarray(y, dtype=float), model.design if x is None else x)
    rows = [[value[..., 0].copy() for value in step[1:]] for step in steps]  # later steps overwrite a and P
    return tuple(np.array(column) for column in zip(*rows))


def filter_loglik(v, f):
    """The filter's log-likelihood: the sum of its innovation terms."""
    return -0.5 * float(np.sum(np.log(2.0 * np.pi * f) + v * v / f))


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def complete_record():
    def make(subject_id="P1", **overrides):
        base = dict(
            subject_id=subject_id,
            gender="male",
            age=55.0,
            height_m=1.70,
            weight_kg=70.0,
            bmi=24.2,
            hba1c=75.0,
            ga=24.0,
            tc=4.9,
            tg=1.8,
            hdl=1.1,
            ldl=3.1,
            cr=65.0,
            egfr=110.0,
            ua=330.0,
            bun=6.0,
            fpg=160.0,
            hpp2=260.0,
        )
        base.update(overrides)
        return ClinicalRecord(**base)

    return make


@pytest.fixture
def simple_series():
    def make(n=96, subject_id="P1", meals=(), values=None):
        cgm = np.full(n, 120.0) if values is None else np.asarray(values, dtype=float)
        return GlucoseSeries(subject_id=subject_id, start=START, cgm=cgm, meals=tuple(meals))

    return make


@pytest.fixture
def meal_at():
    def make(index, gl=None, description=None, grams=None, timestamp=None):
        return MealEvent(
            timestamp=timestamp or (START + timedelta(minutes=15 * index)),
            grid_index=index,
            description=description,
            grams=grams,
            gl=gl,
        )

    return make
