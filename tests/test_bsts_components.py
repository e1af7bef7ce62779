import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_draws
from glycast.bsts import (
    ComponentSpec,
    ParamPoint,
    SpikeSlabSettings,
    TrendPriors,
    VariancePrior,
    assemble_model,
    circadian_seasonal,
    day_seasonal,
    meal_seasonal,
    regression,
    seasonal,
    semi_local_trend,
)
from glycast.bsts.sampler import forecast_anchors, posterior_forecast
from glycast.errors import RangeError, SchemaError


def series(n=300, seed=0):
    rng = np.random.default_rng(seed)
    return 140 + np.cumsum(rng.normal(0, 1.5, n))


def assert_blocks(model, widths):
    """The seasonals' blocks tile slots 2..m-1 in stack order at the given widths, z observes slot 0 and each
    block's first slot, and neither changes when the initial state or n_train is replaced."""
    starts = [2 + sum(widths[:k]) for k in range(len(widths))]
    assert [(block.start, block.stop) for block in model.blocks] == [(a, a + w) for a, w in zip(starts, widths)]
    assert model.state_dim == 2 + sum(widths)
    z = np.zeros(model.state_dim)
    z[[0, *starts]] = 1.0
    np.testing.assert_array_equal(model.z, z)
    for other in (model.with_initial_state(model.a1 + 1.0, 2.0 * model.p1_diag), replace(model, n_train=5)):
        assert other.blocks == model.blocks
        np.testing.assert_array_equal(other.z, model.z)


class TestAssembly:
    def test_day_component_dimensions(self):
        model = assemble_model([semi_local_trend(), day_seasonal()], series())
        assert model.state_dim == 2 + 3
        assert model.seasonals[0].cycle == 96

    def test_meal_component_cycle(self):
        model = assemble_model([semi_local_trend(), meal_seasonal()], series())
        assert model.seasonals[0].cycle == 96
        assert model.seasonals[0].n_seasons - 1 == 2

    def test_circadian_component_asymmetric(self):
        model = assemble_model([semi_local_trend(), circadian_seasonal()], series())
        layout = model.seasonals[0]
        assert layout.durations == (48, 24)
        assert layout.cycle == 72
        assert layout.n_seasons - 1 == 1
        alt = assemble_model([semi_local_trend(), seasonal("circadian", 2, (64, 32))], series())
        assert alt.seasonals[0].cycle == 96

    def test_full_stack_state_dim(self):
        model = assemble_model(
            [semi_local_trend(), day_seasonal(), meal_seasonal(), circadian_seasonal()], series()
        )
        assert model.state_dim == 2 + 3 + 2 + 1
        assert model.period == np.lcm(96, 72)
        assert_blocks(model, [3, 2, 1])
        # A custom stack: seasonals of 5, 2 and 3 seasons with phases, and a regression, in the stack's order.
        y = series(100)
        specs = [
            seasonal("a", 5, (1, 2, 3, 4, 5), phase=7), semi_local_trend(), seasonal("b", 2, (3, 1)),
            regression(), seasonal("c", 3, (2, 2, 2), phase=5),
        ]
        custom = assemble_model(specs, y, np.ones((100, 1)))
        assert [s.name for s in custom.seasonals] == ["a", "b", "c"]
        assert_blocks(custom, [4, 1, 2])

    def test_duration_schedule_validation(self):
        with pytest.raises(SchemaError, match="durations"):
            assemble_model([semi_local_trend(), seasonal("s", 3, (24, 24))], series())
        with pytest.raises(SchemaError, match=">= 1"):
            assemble_model([semi_local_trend(), seasonal("s", 2, (24, 0))], series())
        with pytest.raises(SchemaError, match="n_seasons"):
            assemble_model([semi_local_trend(), seasonal("s", 1, (24,))], series())

    def test_design_shape_validation(self):
        y = series(100)
        x = np.ones((100, 2))
        model = assemble_model(
            [semi_local_trend(), regression()], y, x
        )
        assert model.n_regressors == 2
        with pytest.raises(SchemaError):
            assemble_model([semi_local_trend(), regression()], y, np.ones((50, 1)))
        with pytest.raises(SchemaError):
            assemble_model([semi_local_trend(), regression()], y)
        with pytest.raises(SchemaError):
            assemble_model([semi_local_trend()], y, x)
        # Every reader of a design reads it through `design_rows`: J columns and at least the rows it needs.
        draws = make_draws(model, [(ParamPoint(0.1, 0.1, 0.1, d=0.0, phi=0.5, beta=[1.0, -2.0]), model.a1)])
        anchored = lambda x: forecast_anchors(model, draws, y, [90], [1, 4], x=x)  # noqa: E731
        ahead = lambda x: posterior_forecast(draws, model, 4, x)  # noqa: E731
        for read in (anchored, ahead, lambda x: model.observation_offsets(np.ones(2), x, 100)):
            for bad, message in (
                (np.ones((100, 3)), "design must have 2 columns, got shape (100, 3)"),
                (np.ones(100), "design must have 2 columns, got shape (100,)"),
                (np.ones((3, 2)), "design has 3 rows but"),
            ):
                with pytest.raises(SchemaError, match=re.escape(message)):
                    read(bad)
        for read in (anchored, ahead):
            with pytest.raises(SchemaError, match="a design with 2 columns is required"):
                read(None)
        # observation_offsets reads None as the training design, whose 100 rows are all it has.
        np.testing.assert_array_equal(model.observation_offsets(np.ones(2), None, 100), x @ np.ones(2))
        with pytest.raises(SchemaError, match="design has 100 rows but 101 are required"):
            model.observation_offsets(np.ones(2), None, 101)
        with pytest.raises(SchemaError, match="beta must have length 2"):
            model.observation_offsets(np.ones(3), x, 100)
        future = np.arange(20.0).reshape(10, 2)  # rows past the horizon are not read
        longer = posterior_forecast(draws, model, 4, future, sample=False)
        np.testing.assert_array_equal(longer.paths, posterior_forecast(draws, model, 4, future[:4], sample=False).paths)
        np.testing.assert_array_equal(model.design_rows(future, 4), future[:4])
        trendless = assemble_model([semi_local_trend()], y)
        assert trendless.design_rows(None, 7).shape == (7, 0)
        assert trendless.design_rows(np.ones((2, 5)), 7).shape == (7, 0)

    def test_trend_required_and_unique(self):
        with pytest.raises(SchemaError):
            assemble_model([day_seasonal()], series())
        with pytest.raises(SchemaError):
            assemble_model([semi_local_trend(), semi_local_trend()], series())

    def test_phase_shifts_boundaries(self):
        y = series(200)
        base = assemble_model([semi_local_trend(), seasonal("s", 4, (24,) * 4)], y)
        shifted = assemble_model([semi_local_trend(), seasonal("s", 4, (24,) * 4, phase=23)], y)
        assert tuple(base.boundaries(25)[23]) == (True,)
        assert tuple(shifted.boundaries(25)[0]) == (True,)
        assert tuple(shifted.boundaries(25)[1]) == (False,)

    def test_prior_validation(self):
        with pytest.raises(RangeError):
            VariancePrior(df=0.0, guess=1.0)
        with pytest.raises(RangeError):
            TrendPriors(
                level_var=VariancePrior(1, 1), slope_var=VariancePrior(1, 1), d_mean=0, d_sd=0
            )
        with pytest.raises(RangeError):
            SpikeSlabSettings(expected_model_size=0)
        unit = VariancePrior(1, 1)
        for value in (math.nan, math.inf, -math.inf):
            for build in (
                lambda v: VariancePrior(df=v, guess=1.0),
                lambda v: VariancePrior(df=1.0, guess=v),
                lambda v: TrendPriors(unit, unit, d_mean=v, d_sd=1),
                lambda v: TrendPriors(unit, unit, d_mean=0, d_sd=v),
                lambda v: TrendPriors(unit, unit, 0, 1, phi_mean=v),
                lambda v: TrendPriors(unit, unit, 0, 1, phi_sd=v),
                lambda v: SpikeSlabSettings(expected_model_size=v),
                lambda v: SpikeSlabSettings(information_weight=v),
            ):
                with pytest.raises(RangeError):
                    build(value)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TrendPriors(level_var=None, slope_var=VariancePrior(1, 1), d_mean=0, d_sd=1),
             "level_var must be a VariancePrior, got None"),
            (lambda: TrendPriors(level_var=VariancePrior(1, 1), slope_var="x", d_mean=0, d_sd=1),
             "slope_var must be a VariancePrior, got 'x'"),
            (lambda: ComponentSpec(kind="seasonal", name="d", n_seasons=2, durations=(48, 48), var_prior="x"),
             "var_prior must be a VariancePrior or None, got 'x'"),
            (lambda: ComponentSpec(kind="semi_local_trend", trend_priors=VariancePrior(1, 1)),
             "trend_priors must be a TrendPriors or None, got VariancePrior(df=1.0, guess=1.0)"),
        ],
        ids=["level-none", "slope-string", "var_prior-string", "trend_priors-variance"],
    )
    def test_nested_prior_must_be_its_settings_class(self, build, message):
        # Both first cases were accepted and failed late in mcmc_fit: a nested prior is its settings class, and
        # None only where the field is Optional.
        with pytest.raises(SchemaError) as caught:
            build()
        assert str(caught.value) == message


class TestSeasonalRecursion:
    def test_dummy_seasonal_sign_convention(self):
        # S=4, duration 1: next effect is minus the sum of the stored three.
        y = series(50)
        model = assemble_model([semi_local_trend(), seasonal("s", 4, (1, 1, 1, 1))], y)
        T = model.transition_matrix(0.0, t=0)
        state = np.array([0.0, 0.0, 1.0, -1.0, 2.0])
        nxt = T @ state
        assert nxt[2] == pytest.approx(-(1.0 - 1.0 + 2.0))
        assert nxt[3] == pytest.approx(1.0)  # previous effect shifts down
        assert nxt[4] == pytest.approx(-1.0)

    def test_within_season_state_frozen(self):
        y = series(50)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (4, 4, 4))], y)
        T = model.transition_matrix(0.5, t=0)  # t=0 -> t=1 stays inside season 0
        state = np.array([0.0, 0.0, 3.0, -1.5])
        nxt = T @ state
        np.testing.assert_allclose(nxt[2:], state[2:])

    def test_noise_only_at_boundaries(self):
        y = series(50)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (4, 4, 4))], y)
        q_inside = model.mask_noise(model.step_masks[0], 0.1, 0.2, [0.5])
        q_boundary = model.mask_noise(model.step_masks[3], 0.1, 0.2, [0.5])
        assert q_inside[2] == 0.0
        assert q_boundary[2] == 0.5
        np.testing.assert_allclose(q_inside[:2], [0.1, 0.2])


@st.composite
def seasonal_stacks(draw):
    """(durations, phase) of one or two seasonals with 2-5 seasons of 1-4 steps each."""
    stack = []
    for _ in range(draw(st.integers(1, 2))):
        n_seasons = draw(st.integers(2, 5))
        durations = tuple(draw(st.lists(st.integers(1, 4), min_size=n_seasons, max_size=n_seasons)))
        stack.append((durations, draw(st.integers(0, sum(durations) - 1))))
    return stack


def season_index(durations, phase, t):
    """The season in force at t, read off the cycle written out step by step."""
    cycle = [s for s, d in enumerate(durations) for _ in range(d)]
    return cycle[(phase + t) % len(cycle)]


def dense_transition(stack, phi, boundary):
    """T from the module docstring's equations, one state row at a time."""
    m = 2 + sum(len(durations) - 1 for durations, _ in stack)
    T = np.zeros((m, m))
    T[0, 0] = T[0, 1] = 1.0  # mu' = mu + delta
    T[1, 1] = phi  # delta' - D = phi (delta - D); D sits in the intercept
    start = 2
    for (durations, _), crossing in zip(stack, boundary):
        d = len(durations) - 1  # tau_cur, tau_prev_1, ..., tau_prev_{S-2}
        for r in range(d):
            if not crossing:
                T[start + r, start + r] = 1.0  # the effect holds within a season
            elif r == 0:
                T[start, start : start + d] = -1.0  # tau_new = -(tau_cur + ... + tau_prev_{S-2})
            else:
                T[start + r, start + r - 1] = 1.0  # each stored effect moves down one place
        start += d
    return T


class TestStepSchedule:
    @settings(max_examples=60, deadline=None)
    @given(stack=seasonal_stacks(), phi=st.floats(-1.0, 1.0))
    def test_schedule_matches_brute_force(self, stack, phi):
        specs = [semi_local_trend()]
        specs += [seasonal(f"s{i}", len(d), d, phase) for i, (d, phase) in enumerate(stack)]
        model = assemble_model(specs, series(20))
        assert_blocks(model, [len(d) - 1 for d, _ in stack])
        assert model.period == math.lcm(*(sum(d) for d, _ in stack))
        table = model.boundaries(2 * model.period + 1)
        assert table.shape == (2 * model.period, len(stack))
        for t in range(2 * model.period):
            boundary = tuple(season_index(d, p, t + 1) != season_index(d, p, t) for d, p in stack)
            assert tuple(table[t]) == boundary
            np.testing.assert_array_equal(model.transition_matrix(phi, t), dense_transition(stack, phi, boundary))
            q = model.mask_noise(model.step_masks[t % model.period], 0.1, 0.2, [0.3] * len(stack))
            starts = [block.start for block in model.blocks]
            np.testing.assert_array_equal(q[starts], [0.3 if b else 0.0 for b in boundary])


class TestParamPoint:
    def test_validation(self):
        with pytest.raises(RangeError):
            ParamPoint(-0.1, 0.1, 0.1)
        with pytest.raises(RangeError):
            ParamPoint(0.1, 0.1, 0.1, phi=1.5)
        point = ParamPoint(0.1, 0.1, 0.1, phi=1.0)  # boundary allowed
        assert point.phi == 1.0

    def test_shape_rules_read_the_last_axis(self):
        # One sd per seasonal and one coefficient per design column, for one point and for K draws alike.
        y = series(40)
        x = np.ones((40, 2))
        model = assemble_model([semi_local_trend(), day_seasonal(), meal_seasonal(), regression()], y, x)
        model.check_shapes((0.1, 0.2), np.zeros(2))
        model.check_shapes(np.zeros((5, 2)), np.zeros((5, 2)))
        for sds, count in (((0.1,), 1), (np.zeros((5, 3)), 3), (0.1, "a scalar of")):
            with pytest.raises(SchemaError, match=f"params carry {count} seasonal sds for 2 seasonal components"):
                model.check_shapes(sds)
        for beta in (np.zeros(3), np.zeros((5, 1)), 1.0):
            with pytest.raises(SchemaError, match="beta must have length 2"):
                model.check_shapes(beta=beta)
        betas = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 0.0]])
        offsets = model.observation_offsets(betas, None, 40)
        assert offsets.shape == (40, 3)
        for k, beta in enumerate(betas):
            np.testing.assert_array_equal(offsets[:, k], model.observation_offsets(beta, None, 40))


class TestVarianceConditional:
    DRAWS = 20_000

    @pytest.mark.parametrize("ss, count", [(0.0, 0), (3.0, 4), (48.0, 20)])
    def test_mean_matches_inverse_gamma(self, ss, count):
        prior = VariancePrior(df=10.0, guess=2.0)  # shape 5, scale 10
        rng = np.random.default_rng(17)
        values = np.array([prior.draw(ss, count, rng) for _ in range(self.DRAWS)])
        shape, scale = 5.0 + count / 2.0, 10.0 + ss / 2.0
        mean = scale / (shape - 1.0)
        if count == 0 and ss == 0.0:
            # No data: the prior's own mean df * guess / (df - 2).
            assert mean == pytest.approx(10.0 * 2.0 / 8.0)
        # The inverse-gamma sd is mean / sqrt(shape - 2).
        assert abs(values.mean() - mean) <= 5.0 * mean / math.sqrt((shape - 2.0) * self.DRAWS)


@pytest.mark.parametrize(
    "n_seasons, durations, phase, message",
    [
        (2, (1.5, 1), 0, "durations must be a list of integers, got (1.5, 1)"),
        (2.0, (1, 1), 0, "n_seasons must be an integer, got 2.0"),
        (2, (1, 1), 0.5, "phase must be an integer, got 0.5"),
        (2, (1, True), 0, "durations must be a list of integers, got (1, True)"),
        (2, "11", 0, "durations must be a list of integers, got '11'"),
    ],
    ids=["fractional-duration", "float-count", "fractional-phase", "boolean-duration", "string-durations"],
)
def test_seasonal_takes_integers_as_they_are(n_seasons, durations, phase, message):
    # int() made durations (1.5, 1) the 2-step cycle (1, 1).
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        seasonal("d", n_seasons, durations, phase)
    assert seasonal("d", np.int64(2), [np.int64(3), 1], 1).durations == (3, 1)

class TestSpecsFromJson:
    def test_standard_stack_document(self):
        from glycast.bsts import specs_from_json

        payload = {
            "components": [
                {"kind": "semi_local_trend"},
                {"kind": "seasonal", "name": "day", "n_seasons": 4, "durations": [24, 24, 24, 24]},
                {"kind": "seasonal", "name": "circadian", "n_seasons": 2, "durations": [48, 24],
                 "phase": 12, "var_prior": {"df": 2.0, "guess": 0.5}},
                {"kind": "regression", "spike_slab": {"expected_model_size": 1.5}},
            ]
        }
        specs = specs_from_json(payload)
        assert [s.kind for s in specs] == ["semi_local_trend", "seasonal", "seasonal", "regression"]
        assert specs[1].durations == (24, 24, 24, 24)
        assert specs[2].phase == 12
        assert specs[2].var_prior.guess == 0.5
        assert specs[3].spike_slab.expected_model_size == 1.5
        model = assemble_model(
            specs, series(300), np.zeros((300, 2))
        )
        assert model.state_dim == 2 + 3 + 1

    def test_trend_priors_document(self):
        from glycast.bsts import specs_from_json

        payload = {
            "components": [
                {
                    "kind": "semi_local_trend",
                    "priors": {
                        "level": {"df": 1.0, "guess": 0.01},
                        "slope": {"df": 1.0, "guess": 0.001},
                        "d_mean": 0.2,
                        "d_sd": 0.5,
                        "phi_sd": 0.3,
                    },
                }
            ]
        }
        (spec,) = specs_from_json(payload)
        assert spec.trend_priors.d_mean == 0.2
        assert spec.trend_priors.phi_sd == 0.3
        model = assemble_model([spec], series(50))
        assert model.trend_priors.d_mean == 0.2

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"kind": "seasonal", "n_seasons": 2, "durations": [1, 1], "var_prior": {"df": "1", "guess": 1}}',
             "'df' must be a number, got '1'"),
            ('{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": 1}, '
             '"slope": {"df": 1, "guess": 1}, "d_mean": "0", "d_sd": 1}}', "'d_mean' must be a number, got '0'"),
            ('{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": 1}, '
             '"slope": {"df": 1, "guess": 1}, "d_mean": 0, "d_sd": true}}', "'d_sd' must be a number, got True"),
            ('{"kind": "regression", "spike_slab": {"information_weight": "0.5"}}',
             "'information_weight' must be a number, got '0.5'"),
            ('{"kind": "seasonal", "n_seasons": 2, "durations": 2}', "'durations' must be a list of integers, got 2"),
        ],
        ids=["df-string", "d_mean-string", "d_sd-boolean", "weight-string", "durations-number"],
    )
    def test_priors_take_numbers_as_they_are(self, entry, message):
        # float() read strings and booleans: the priors take the finite JSON numbers the config keys take.
        from glycast.bsts import specs_from_json

        payload = json.loads(f'{{"components": [{{"kind": "semi_local_trend"}}, {entry}]}}')
        with pytest.raises(SchemaError, match=re.escape(f"component 1: malformed entry: {message}")):
            specs_from_json(payload)

    TREND_PRIORS = {"level": {"df": 1, "guess": 1}, "slope": {"df": 1, "guess": 1}, "d_mean": 0, "d_sd": 1}

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"kind": "seasonal", "n_seasons": 2, "durations": [1, 1], "phse": 1}, "phse"),
            ({"kind": "semi_local_trend", "prior": {}}, "prior"),
            ({"kind": "regression", "spike_slabs": {}}, "spike_slabs"),
            ({"kind": "semi_local_trend", "priors": {**TREND_PRIORS, "phi_sdd": 0.1}}, "phi_sdd"),
            ({"kind": "semi_local_trend", "priors": {**TREND_PRIORS, "level": {"df": 1, "guess": 1, "mean": 0}}}, "mean"),
            ({"kind": "semi_local_trend", "priors": {**TREND_PRIORS, "slope": {"df": 1, "guess": 1, "sd": 1}}}, "sd"),
            ({"kind": "seasonal", "n_seasons": 2, "durations": [1, 1], "var_prior": {"df": 1, "gues": 1}}, "gues"),
            ({"kind": "regression", "spike_slab": {"expected_size": 1.0}}, "expected_size"),
        ],
        ids=["seasonal", "trend", "regression", "priors", "level", "slope", "var_prior", "spike_slab"],
    )
    def test_unknown_key_is_refused(self, entry, key):
        # A misspelled key was ignored, and its field kept the default without a word.
        from glycast.bsts import specs_from_json

        with pytest.raises(SchemaError) as caught:
            specs_from_json({"components": [{"kind": "semi_local_trend"}, entry]})
        assert str(caught.value) == f"component 1: malformed entry: unknown key {key!r}"

    @pytest.mark.parametrize(
        "entry, value",
        [
            ({"kind": "seasonal", "n_seasons": 2, "durations": [1, 1], "var_prior": "x"}, "'x'"),
            ({"kind": "semi_local_trend", "priors": {**TREND_PRIORS, "level": None}}, "None"),
            ({"kind": "semi_local_trend", "priors": 5}, "5"),
            ({"kind": "semi_local_trend", "priors": [1]}, "[1]"),
        ],
        ids=["var_prior-string", "level-null", "priors-number", "priors-list"],
    )
    def test_prior_must_be_an_object(self, entry, value):
        # A null level prior built TrendPriors(level_var=None), and the fit failed on it with an AttributeError; a
        # trend's priors of 5 or [1] read "'int' object is not subscriptable" or "list indices must be integers".
        from glycast.bsts import specs_from_json

        with pytest.raises(SchemaError) as caught:
            specs_from_json({"components": [entry]})
        assert str(caught.value) == f"component 0: malformed entry: expected a JSON object, got {value}"

    def test_invalid_documents(self):
        from glycast.bsts import specs_from_json

        with pytest.raises(SchemaError):
            specs_from_json({})
        with pytest.raises(SchemaError, match="unknown kind"):
            specs_from_json({"components": [{"kind": "wavelet"}]})

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"kind": "wavelet"}', "component 1: unknown kind 'wavelet'"),
            ("{}", "component 1: unknown kind None"),
            ('"x"', "component 1: an entry must be a JSON object, got 'x'"),
            ('[{"kind": "seasonal"}]', "component 1: an entry must be a JSON object, got [{'kind': 'seasonal'}]"),
        ],
        ids=["unknown-kind", "no-kind", "string", "list"],
    )
    def test_entry_rules_name_the_entry_once(self, entry, message):
        # The document's own rule, stated once: not wrapped as a malformed entry, and no Python type error.
        from glycast.bsts import specs_from_json

        payload = json.loads(f'{{"components": [{{"kind": "semi_local_trend"}}, {entry}]}}')
        with pytest.raises(SchemaError) as caught:
            specs_from_json(payload)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "entry",
        [
            '{"kind": "seasonal", "n_seasons": 2, "durations": [1, 1], "var_prior": {"df": NaN, "guess": 1}}',
            '{"kind": "seasonal", "n_seasons": 2, "durations": [1, 1], "var_prior": {"df": 1, "guess": NaN}}',
            '{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": Infinity}, '
            '"slope": {"df": 1, "guess": 1}, "d_mean": 0, "d_sd": 1}}',
            '{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": 1}, '
            '"slope": {"df": Infinity, "guess": 1}, "d_mean": 0, "d_sd": 1}}',
            '{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": 1}, '
            '"slope": {"df": 1, "guess": 1}, "d_mean": NaN, "d_sd": 1}}',
            '{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": 1}, '
            '"slope": {"df": 1, "guess": 1}, "d_mean": 0, "d_sd": Infinity}}',
            '{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": 1}, '
            '"slope": {"df": 1, "guess": 1}, "d_mean": 0, "d_sd": 1, "phi_mean": -Infinity}}',
            '{"kind": "semi_local_trend", "priors": {"level": {"df": 1, "guess": 1}, '
            '"slope": {"df": 1, "guess": 1}, "d_mean": 0, "d_sd": 1, "phi_sd": NaN}}',
            '{"kind": "regression", "spike_slab": {"expected_model_size": Infinity}}',
            '{"kind": "regression", "spike_slab": {"information_weight": NaN}}',
        ],
        ids=["df", "guess", "level", "slope", "d_mean", "d_sd", "phi_mean", "phi_sd", "model_size", "weight"],
    )
    def test_non_finite_prior_names_the_entry(self, entry):
        # Python's json reads NaN and Infinity; the entry at index 1 must be refused before any fit.
        from glycast.bsts import specs_from_json

        payload = json.loads(f'{{"components": [{{"kind": "semi_local_trend"}}, {entry}]}}')
        with pytest.raises(SchemaError, match="component 1: malformed entry"):
            specs_from_json(payload)
