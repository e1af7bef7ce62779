from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import filter_loglik, filter_point, make_draws
from glycast.bsts import (
    ParamPoint,
    assemble_model,
    forecast_anchors,
    kalman_loglik,
    mcmc_fit,
    posterior_forecast,
    regression,
    seasonal,
    semi_local_trend,
)
from glycast.bsts.components import MAX_HORIZON
from glycast.bsts.kalman import _DrawOperators, _filter_draws
from glycast.bsts.sampler import _predictive_moments, _sorted_percentiles
from glycast.errors import NumericalError, RangeError
from glycast.synth import gaussian_predictive_oracle, simulate_from_model


def trend_series(n=120, seed=0):
    rng = np.random.default_rng(seed)
    return 100 + np.cumsum(rng.normal(0.0, 1.0, n))


class TestMcmcFit:
    def test_draw_count_contract(self):
        y = trend_series(60)
        model = assemble_model([semi_local_trend()], y)
        draws = mcmc_fit(model, y, draws=1, burn=0, seed=0)
        assert draws.n_draws == 1
        draws = mcmc_fit(model, y, draws=12, burn=5, seed=0)
        assert draws.n_draws == 7

    def test_invalid_draws(self):
        y = trend_series(40)
        model = assemble_model([semi_local_trend()], y)
        with pytest.raises(RangeError):
            mcmc_fit(model, y, draws=10, burn=10)

    def test_determinism(self):
        y = trend_series(80, seed=3)
        model = assemble_model([semi_local_trend(), seasonal("s", 4, (6, 6, 6, 6))], y)
        a = mcmc_fit(model, y, draws=40, burn=10, seed=7)
        b = mcmc_fit(model, y, draws=40, burn=10, seed=7)
        for field in ("sigma_level", "sigma_slope", "sigma_obs", "sigma_seasonal", "d", "phi", "terminal_state"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_draw_invariants(self):
        rng = np.random.default_rng(5)
        y = trend_series(100, seed=5)
        x = rng.normal(0, 1, (100, 2))
        model = assemble_model(
            [semi_local_trend(), seasonal("s", 3, (8, 8, 8)), regression(("a", "b"))], y, x
        )
        draws = mcmc_fit(model, y, x=x, draws=60, burn=20, seed=1)
        assert np.all(draws.sigma_level > 0)
        assert np.all(draws.sigma_slope > 0)
        assert np.all(draws.sigma_obs > 0)
        assert np.all(draws.sigma_seasonal > 0)
        assert np.all(np.abs(draws.phi) < 1.0)
        assert np.all(draws.beta[draws.gamma == 0] == 0.0)

    def test_trend_only_fit_has_zero_width_fields(self):
        y = trend_series(60, seed=2)
        model = assemble_model([semi_local_trend()], y)
        draws = mcmc_fit(model, y, draws=12, burn=4, seed=3)
        for field, dtype in (("sigma_seasonal", np.float64), ("beta", np.float64), ("gamma", np.int64)):
            value = getattr(draws, field)
            assert value.shape == (8, 0) and value.dtype == dtype
        assert draws.terminal_state.shape == (8, 2)
        forecast = posterior_forecast(draws, model, horizon=4)
        assert forecast.paths.shape == (8, 4) and np.isfinite(forecast.paths).all()
        anchored = forecast_anchors(model, draws, y, anchors=[10, 30, 50], horizons=[1, 4])
        for band in anchored.values():
            assert all(values.shape == (3,) and np.isfinite(values).all() for values in band.values())

    def test_self_consistency_on_simulated_data(self):
        true = ParamPoint(sigma_level=0.3, sigma_slope=0.05, sigma_obs=1.5, d=0.02, phi=0.4)
        scaffold = assemble_model([semi_local_trend()], np.arange(10.0))
        rng = np.random.default_rng(42)
        y = 100 + simulate_from_model(
            scaffold.with_initial_state([0.0, 0.0], [1.0, 0.01]), true, 600, rng
        )
        model = assemble_model([semi_local_trend()], y)
        draws = mcmc_fit(model, y, draws=300, burn=100, seed=9)
        sigma_obs_med = float(np.median(draws.sigma_obs))
        assert 0.5 * true.sigma_obs <= sigma_obs_med <= 1.5 * true.sigma_obs


class TestPosteriorForecast:
    def test_deterministic_linear_extrapolation(self):
        y = np.array([94.0, 96.0, 98.0, 100.0])
        model = assemble_model([semi_local_trend()], y)
        params = ParamPoint(0.0, 0.0, 0.0, d=0.0, phi=1.0)
        draws = make_draws(model, [(params, np.array([100.0, 2.0]))])
        result = posterior_forecast(draws, model, horizon=3)
        np.testing.assert_allclose(result.mean, [102.0, 104.0, 106.0])
        np.testing.assert_allclose(result.lower95, result.mean)
        np.testing.assert_allclose(result.upper95, result.mean)

    def test_interval_width_non_decreasing(self):
        y = trend_series(60, seed=2)
        model = assemble_model([semi_local_trend()], y)
        params = ParamPoint(0.8, 0.1, 1.0, d=0.0, phi=0.5)
        entries = [(params, np.array([y[-1], 0.0]))] * 4000
        draws = make_draws(model, entries)
        result = posterior_forecast(draws, model, horizon=8, rng=np.random.default_rng(1))
        widths = result.upper95 - result.lower95
        assert np.all(np.diff(widths) > -1e-9)

    def test_noiseless_seasonal_cycle_reproduced(self):
        # S=4 seasons of duration 1; effects cycle c0..c3 with zero sum.
        cycle = np.array([3.0, -1.0, 2.0, -4.0])
        y = np.tile(cycle, 4)
        model = assemble_model(
            [semi_local_trend(), seasonal("s", 4, (1, 1, 1, 1))], y
        )
        params = ParamPoint(0.0, 0.0, 0.0, (0.0,), d=0.0, phi=0.0)
        # Terminal at t=15 (effect c3); stored: (tau_t, tau_{t-1}, tau_{t-2}).
        terminal = np.array([0.0, 0.0, cycle[3], cycle[2], cycle[1]])
        draws = make_draws(model, [(params, terminal)])
        result = posterior_forecast(draws, model, horizon=4)
        np.testing.assert_allclose(result.mean, cycle, atol=1e-9)

    def test_forecast_averaging_linearity(self):
        rng = np.random.default_rng(8)
        y = trend_series(50, seed=8)
        x = rng.normal(0, 1, (50, 2))
        model = assemble_model([semi_local_trend(), regression(("a", "b"))], y, x)
        terminal = np.array([y[-1], 1.0])
        betas = [np.array([2.0, 0.0]), np.array([0.0, 4.0]), np.array([1.0, 1.0])]
        entries = [
            (ParamPoint(0.0, 0.0, 0.0, d=0.0, phi=1.0, beta=b), terminal) for b in betas
        ]
        draws = make_draws(model, entries)
        x_future = rng.normal(0, 1, (3, 2))
        result = posterior_forecast(draws, model, horizon=3, x_future=x_future)
        shared_state = np.array([y[-1] + (j + 1) * 1.0 for j in range(3)])
        expected = shared_state + x_future @ np.mean(betas, axis=0)
        np.testing.assert_allclose(result.mean, expected, atol=1e-9)

    def test_horizon_range_error(self):
        y = trend_series(30)
        model = assemble_model([semi_local_trend()], y)
        draws = make_draws(model, [(ParamPoint(0.0, 0.0, 0.0), np.zeros(2))])
        with pytest.raises(RangeError):
            posterior_forecast(draws, model, horizon=0)
        with pytest.raises(RangeError):
            posterior_forecast(draws, model, horizon=MAX_HORIZON + 1)


class TestForecastAnchors:
    def test_degenerate_agrees_with_posterior_forecast(self):
        y = np.array([94.0, 96.0, 98.0, 100.0, 102.0, 104.0, 106.0, 108.0])
        model = assemble_model([semi_local_trend()], y[:4])
        model = model.with_initial_state([94.0, 2.0], [0.0, 0.0])
        params = ParamPoint(0.0, 0.0, 0.0, d=0.0, phi=1.0)
        draws = make_draws(model, [(params, np.array([100.0, 2.0]))])
        anchored = forecast_anchors(
            model, draws, y, anchors=[3], horizons=[1, 2], rng=np.random.default_rng(0)
        )
        reference = posterior_forecast(draws, model, horizon=2)
        assert anchored[1]["mean"][0] == pytest.approx(reference.mean[0])
        assert anchored[2]["mean"][0] == pytest.approx(reference.mean[1])

    def test_statistical_agreement_with_posterior_forecast(self):
        # Anchor at the fit's terminal index: the anchored filtered state and
        # the FFBS terminal state share the same distribution there.
        y_full = trend_series(91, seed=4)
        y_fit = y_full[:90]
        model = assemble_model([semi_local_trend()], y_fit)
        draws = mcmc_fit(model, y_fit, draws=600, burn=100, seed=2)
        anchored = forecast_anchors(
            model, draws, y_full, anchors=[89], horizons=[1], rng=np.random.default_rng(3)
        )
        reference = posterior_forecast(draws, model, horizon=1, rng=np.random.default_rng(4))
        spread = np.std(reference.paths[:, 0]) / np.sqrt(draws.n_draws)
        assert anchored[1]["mean"][0] == pytest.approx(reference.mean[0], abs=8 * spread)

    def test_anchor_validation(self):
        y = trend_series(40)
        model = assemble_model([semi_local_trend()], y)
        draws = make_draws(model, [(ParamPoint(0.1, 0.1, 0.1), np.zeros(2))])
        with pytest.raises(RangeError):
            forecast_anchors(model, draws, y, anchors=[38], horizons=[4])
        with pytest.raises(RangeError):
            forecast_anchors(model, draws, y, anchors=[], horizons=[1])

    def test_repeated_anchor_fills_every_row(self):
        y = trend_series(50, seed=6)
        model = assemble_model([semi_local_trend()], y)
        draws = mcmc_fit(model, y, draws=120, burn=20, seed=5)
        out = forecast_anchors(model, draws, y, anchors=[45, 45], horizons=[1], rng=np.random.default_rng(0))
        mean, lower, upper = (out[1][key] for key in ("mean", "lower95", "upper95"))
        assert np.all((lower <= mean) & (mean <= upper))
        assert abs(mean[0] - mean[1]) < 0.5 * (upper[1] - lower[1])

    def test_thinning(self):
        y = trend_series(50, seed=6)
        model = assemble_model([semi_local_trend()], y)
        draws = mcmc_fit(model, y, draws=40, burn=20, seed=5)
        out = forecast_anchors(
            model, draws, y, anchors=[45, 46], horizons=[1, 3], thin=4,
            rng=np.random.default_rng(0),
        )
        assert out[1]["mean"].shape == (2,)
        assert out[3]["upper95"].shape == (2,)

    @pytest.mark.parametrize("k", [1, 2, 200])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_sorted_band_matches_numpy_percentile(self, k, tied):
        # A block's band: (anchors, horizons, K) samples sorted along the draws.
        samples = np.random.default_rng(k).normal(0.0, 3.0, (5, 3, k))
        if tied:
            samples = np.round(samples)  # whole numbers: most order statistics repeat
        band = _sorted_percentiles(np.sort(samples, axis=2), (2.5, 97.5))
        np.testing.assert_allclose(band, np.percentile(samples, [2.5, 97.5], axis=2), rtol=1e-12, atol=0.0)


def two_seasonal_model(y, x=None):
    """Trend, two short seasonals (cycles 4 and 6, period 12) and, with x, a regression."""
    specs = [semi_local_trend(), seasonal("a", 3, (1, 2, 1)), seasonal("b", 3, (2, 1, 3))]
    if x is not None:
        specs.append(regression(("u", "v")))
    return assemble_model(specs, y, x)


def propagate(model, params, state, steps):
    """Noiseless propagation of one state from index 0 through `steps` transitions."""
    c = model.state_intercept(params.d, params.phi)
    for t in range(steps):
        state = model.transition_matrix(params.phi, t) @ state + c
    return state


class TestAnchoredPredictive:
    HORIZONS = (1, 2, 3, 4)
    PARAMS = (
        ParamPoint(0.3, 0.1, 0.5, (0.4, 0.2), d=0.05, phi=0.6, beta=np.array([0.7, -1.2])),
        ParamPoint(0.1, 0.4, 0.2, (0.05, 0.6), d=-0.3, phi=-0.8, beta=np.array([0.0, 2.0])),
        ParamPoint(0.5, 0.0, 1.0, (0.0, 0.3), d=0.0, phi=0.99, beta=np.array([-0.4, 0.1])),
    )

    def setup_case(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 1.0, (20, 2))
        scaffold = two_seasonal_model(np.arange(20.0), x)
        y = 100.0 + simulate_from_model(scaffold, self.PARAMS[0], 20, rng, x=x)
        model = two_seasonal_model(y, x)
        draws = make_draws(model, [(p, np.zeros(model.state_dim)) for p in self.PARAMS])
        return model, draws, y, x

    def test_moments_match_dense_oracle_at_every_phase(self):
        model, draws, y, x = self.setup_case()
        assert model.period == 12
        ops = _DrawOperators(model, draws, slice(None))
        filtered = [filter_point(model, params, y, x)[:2] for params in self.PARAMS]
        crossings = 0
        flags = model.boundaries(19)
        for t in range(3, 15):
            terms = ops.horizon_terms(t, self.HORIZONS)
            crossings += bool(flags[t : t + 4].any())
            a, P, offsets = [], [], []
            oracles = []
            for params, (means, covs) in zip(self.PARAMS, filtered):
                a.append(means[t])
                P.append(covs[t])
                offsets.append(x[t + 1 : t + 5] @ params.beta)
                oracles.append(
                    gaussian_predictive_oracle(
                        model, params, y[: t + 1], horizon=4, x=x[: t + 1], x_future=x[t + 1 : t + 5]
                    )
                )
            mean, var = _predictive_moments(terms, np.array(a).T, np.stack(P, axis=2), np.array(offsets).T)
            for k, oracle in enumerate(oracles):
                np.testing.assert_allclose(mean[:, k], oracle.forecast_means, rtol=1e-8, atol=1e-8)
                np.testing.assert_allclose(var[:, k], oracle.forecast_variances, rtol=1e-8, atol=1e-8)
        assert crossings == 12

    def test_anchored_samples_match_dense_oracle(self):
        # The batched filter inside forecast_anchors feeds the same predictive:
        # 4000 copies of one draw give its mean and 95% band within Monte Carlo error.
        model, _, y, x = self.setup_case()
        params = self.PARAMS[0]
        draws = make_draws(model, [(params, np.zeros(model.state_dim))] * 4000)
        anchors = list(range(3, 15))
        out = forecast_anchors(
            model, draws, y, anchors, self.HORIZONS, x=x, rng=np.random.default_rng(5)
        )
        for i, t in enumerate(anchors):
            oracle = gaussian_predictive_oracle(
                model, params, y[: t + 1], horizon=4, x=x[: t + 1], x_future=x[t + 1 : t + 5]
            )
            sd = np.sqrt(oracle.forecast_variances)
            for h in self.HORIZONS:
                assert abs(out[h]["mean"][i] - oracle.forecast_means[h - 1]) < 5 * sd[h - 1] / np.sqrt(4000)
                half_width = (out[h]["upper95"][i] - out[h]["lower95"][i]) / (2 * 1.959964)
                assert half_width == pytest.approx(sd[h - 1], rel=0.1)

    @pytest.mark.parametrize(
        "durations",
        # Short seasons cross a boundary within most horizons; long ones give
        # phases whose first three steps agree and whose fourth does not.
        [((1, 2, 1), (2, 1, 3)), ((6, 2), (3, 3, 3, 3))],
        ids=["short", "long"],
    )
    def test_zero_noise_matches_deterministic_posterior_forecast(self, durations):
        y = 100.0 + np.arange(50.0)
        specs = [semi_local_trend()] + [
            seasonal(name, len(d), d) for name, d in zip(("a", "b"), durations)
        ]
        model = assemble_model(specs, y)
        a1 = np.concatenate([[100.0, 1.0], np.linspace(3.0, -2.0, model.state_dim - 2)])
        model = model.with_initial_state(a1, np.zeros(model.state_dim))
        params = [
            ParamPoint(0.0, 0.0, 0.0, (0.0, 0.0), d=0.2, phi=0.5),
            ParamPoint(0.0, 0.0, 0.0, (0.0, 0.0), d=-1.0, phi=-0.9),
            ParamPoint(0.0, 0.0, 0.0, (0.0, 0.0), d=0.0, phi=1.0),
        ]
        anchors = list(range(5, 5 + model.period))
        out = forecast_anchors(
            model, make_draws(model, [(p, a1) for p in params]), y, anchors, self.HORIZONS,
            rng=np.random.default_rng(0),
        )
        for i, t in enumerate(anchors):
            terminal = [(p, propagate(model, p, a1, t)) for p in params]
            reference = posterior_forecast(
                make_draws(model, terminal), replace(model, n_train=t + 1), horizon=4, sample=False
            )
            for h in self.HORIZONS:
                column = reference.paths[:, h - 1]
                np.testing.assert_allclose(out[h]["mean"][i], column.mean(), rtol=1e-12)
                np.testing.assert_allclose(
                    [out[h]["lower95"][i], out[h]["upper95"][i]],
                    np.percentile(column, [2.5, 97.5]),
                    rtol=1e-12,
                )

    def test_block_noise_matches_per_anchor_reference(self):
        # 73 anchors (one block of 64 and a partial one, 40 twice): each draw's
        # moments by dense propagation of its one-draw filtered state, then
        # one (K, H) normal draw per anchor, as the samples were once drawn.
        horizons = (1, 2, 4)
        rng = np.random.default_rng(12)
        x = rng.normal(0.0, 1.0, (90, 2))
        y = 100.0 + simulate_from_model(two_seasonal_model(np.arange(90.0), x), self.PARAMS[0], 90, rng, x=x)
        model = two_seasonal_model(y, x)
        draws = make_draws(model, [(p, np.zeros(model.state_dim)) for p in self.PARAMS])
        anchors = list(range(3, 75)) + [40]
        out = forecast_anchors(model, draws, y, anchors, horizons, x=x, rng=np.random.default_rng(8))

        filters = [filter_point(model, p, y, x)[:2] for p in self.PARAMS]
        rng = np.random.default_rng(8)
        for i, t in enumerate(sorted(anchors)):
            mean, var = np.empty((2, len(self.PARAMS), len(horizons)))
            for k, (params, (means, covs)) in enumerate(zip(self.PARAMS, filters)):
                a, P = means[t], covs[t]
                noise_vars = (params.sigma_level**2, params.sigma_slope**2, np.square(params.sigma_seasonal))
                for step in range(t, t + max(horizons)):
                    T = model.transition_matrix(params.phi, step)
                    a = T @ a + model.state_intercept(params.d, params.phi)
                    P = T @ P @ T.T + np.diag(model.noise_diag(*noise_vars, step))
                    if step + 1 - t in horizons:
                        j = horizons.index(step + 1 - t)
                        mean[k, j] = model.z @ a + x[step + 1] @ params.beta
                        var[k, j] = model.z @ P @ model.z + params.sigma_obs**2
            samples = mean + np.sqrt(var) * rng.standard_normal(mean.shape)
            lower, upper = np.percentile(samples, [2.5, 97.5], axis=0)
            for j, h in enumerate(horizons):
                np.testing.assert_allclose(out[h]["mean"][i], samples[:, j].mean(), rtol=1e-10)
                np.testing.assert_allclose(out[h]["lower95"][i], lower[j], rtol=1e-10)
                np.testing.assert_allclose(out[h]["upper95"][i], upper[j], rtol=1e-10)

    def test_negative_variance_raises_beyond_rounding(self):
        # P = I - (1 + delta) 11'/m is a covariance pushed below zero along 1:
        # u = w = 1 gives u'Pu = -delta m.
        m, k = 6, 2
        terms = (np.ones((1, m)), np.zeros((1, k)), np.zeros((1, k)), np.zeros((1, k)))
        a = np.zeros((m, k))
        offsets = np.zeros((1, k))

        def cov(delta):
            return np.repeat((np.eye(m) - (1.0 + delta) * np.ones((m, m)) / m)[:, :, None], k, axis=2)

        _, var = _predictive_moments(terms, a, cov(1e-12), offsets)
        np.testing.assert_array_equal(var, 0.0)
        with pytest.raises(NumericalError):
            _predictive_moments(terms, a, cov(1e-6), offsets)
        with pytest.raises(NumericalError):
            _predictive_moments(terms, a, np.full((m, m, k), np.nan), offsets)

        # u = e_0 + g e_1 with g = +-3 and P_00 = 1, P_11 = 1/9, P_01 = -+(1 + delta)/3:
        # u'Pu = -2 delta. The bound (|w|' sqrt(diag P) + |g| sqrt(P_11))^2 is 4, and
        # 1 without the |g| term, so at delta = 1e-9 only the |g| term lets the
        # variance clamp to zero instead of raising.
        g = np.array([3.0, -3.0])
        terms = (np.eye(m)[:1], g[None, :], np.zeros((1, k)), np.zeros((1, k)))

        def phi_cov(delta):
            P = np.repeat(np.eye(m)[:, :, None], k, axis=2)
            P[1, 1] = 1.0 / 9.0
            P[0, 1] = P[1, 0] = -np.sign(g) * (1.0 + delta) / 3.0
            return P

        _, var = _predictive_moments(terms, a, phi_cov(1e-9), offsets)
        np.testing.assert_array_equal(var, 0.0)
        with pytest.raises(NumericalError):
            _predictive_moments(terms, a, phi_cov(1e-8), offsets)


def assert_close_relative(actual, expected, scale, rtol=1e-10):
    """Largest deviation within rtol of the largest entry of `scale` (exact when that is zero)."""
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(scale))


class TestBatchedFilter:
    PHIS = (-0.9, 0.6, 0.99, 1.0)

    @pytest.mark.parametrize("initial", ["prior", "known"])
    def test_matches_kalman_loglik_at_every_step(self, initial):
        # Every mask kind of two_seasonal_model, and thin=2: odd-indexed draws
        # are decoys that must not be filtered. Each draw's filter matches the
        # same draw filtered alone, and its v_t and F_t sum to kalman_loglik,
        # which reads the state draw's precision solve, not a filter. From a
        # known initial state a zero-noise draw joins, whose predictive
        # variance is exactly zero at every step (from the prior it would be
        # rounding noise) and which has no precision, so no kalman_loglik.
        rng = np.random.default_rng(21)
        x = rng.normal(0.0, 1.0, (30, 2))
        params = [
            ParamPoint(
                0.2 + 0.1 * i, 0.3, 0.5, (0.4, 0.2), d=0.1 * i - 0.2, phi=phi, beta=rng.normal(0.0, 1.0, 2)
            )
            for i, phi in enumerate(self.PHIS)
        ]
        y = 100.0 + simulate_from_model(two_seasonal_model(np.arange(30.0), x), params[1], 30, rng, x=x)
        model = two_seasonal_model(y, x)
        if initial == "known":
            model = model.with_initial_state(model.a1, np.zeros(model.state_dim))
            params.append(ParamPoint(0.0, 0.0, 0.0, (0.0, 0.0), d=0.3, phi=0.5, beta=np.array([0.2, -0.1])))
        decoy = ParamPoint(2.0, 2.0, 2.0, (2.0, 2.0), d=5.0, phi=0.0, beta=np.array([9.0, 9.0]))
        entries = [(p, np.zeros(model.state_dim)) for pair in zip(params, [decoy] * len(params)) for p in pair]
        draws = make_draws(model, entries)
        ops = _DrawOperators(model, draws, slice(None, None, 2))
        alone = [filter_point(model, p, y, x) for p in params]
        if initial == "known":
            assert np.all(alone[-1][3] == 0.0)
        else:
            for p, (_, _, v, f, _) in zip(params, alone):
                assert kalman_loglik(model, p, y, x) == pytest.approx(filter_loglik(v, f), rel=1e-10)

        steps = 0
        for t, a, P, v, f, gain in _filter_draws(model, ops, y, x):
            for k, (means, covs, innovations, variances, gains) in enumerate(alone):
                assert_close_relative(a[:, k], means[t], means[t])
                # The update subtracts from the predicted covariance, so rounding scales with it.
                pred = covs[t] + variances[t] * np.outer(gains[t], gains[t])
                assert_close_relative(P[:, :, k], covs[t], pred)
                assert_close_relative(v[k], innovations[t], y[t])
                assert_close_relative(f[k], variances[t], variances[t])
                assert_close_relative(gain[:, k], gains[t], gains[t])
            steps += 1
        assert steps == y.size


@st.composite
def seasonal_specs(draw):
    """Trend plus one or two seasonals of 2-5 seasons with random durations and phases."""
    specs = [semi_local_trend()]
    for i in range(draw(st.integers(1, 2))):
        n_seasons = draw(st.integers(2, 5))
        durations = draw(st.lists(st.integers(1, 3), min_size=n_seasons, max_size=n_seasons))
        specs.append(seasonal(f"s{i}", n_seasons, durations, draw(st.integers(0, sum(durations) - 1))))
    return specs


class TestTransitionKernel:
    @settings(max_examples=30, deadline=None)
    @given(specs=seasonal_specs(), seed=st.integers(0, 2**32 - 1))
    def test_structured_products_match_dense(self, specs, seed):
        rng = np.random.default_rng(seed)
        model = assemble_model(specs, np.arange(10.0))
        m, k = model.state_dim, 3
        phis = rng.uniform(-1.0, 1.0, k)
        sds = (0.1,) * len(model.seasonals)
        draws = make_draws(model, [(ParamPoint(0.1, 0.1, 0.1, sds, phi=phi), np.zeros(m)) for phi in phis])
        ops = _DrawOperators(model, draws, slice(None))
        for t in range(model.period):
            dense = [model.transition_matrix(phi, t) for phi in phis]
            step = ops.step(t)
            a = rng.normal(size=(m, k))
            root = rng.normal(size=(m, m, k))
            P = np.einsum("ijk,ljk->ilk", root, root)
            np.testing.assert_allclose(
                ops.transition(step, a.copy()),
                np.stack([T @ a[:, j] for j, T in enumerate(dense)], axis=1),
                rtol=1e-12, atol=1e-12,
            )
            np.testing.assert_allclose(
                ops.transition_cov(step, P.copy()),
                np.stack([T @ P[:, :, j] @ T.T for j, T in enumerate(dense)], axis=2),
                rtol=1e-12, atol=1e-11,
            )

    @settings(max_examples=30, deadline=None)
    @given(specs=seasonal_specs(), seed=st.integers(0, 2**32 - 1))
    def test_backward_vector_splits_into_shared_and_phi_parts(self, specs, seed):
        # Row 1 of every phi = 0 template is zero and column 1 is e_0, so
        # (T_{t+h-1} ... T_t)' z = w_h + g_h e_1 with w_h shared by every draw.
        rng = np.random.default_rng(seed)
        model = assemble_model(specs, np.arange(10.0))
        m = model.state_dim
        for template in model.templates:
            np.testing.assert_array_equal(template[1], 0.0)
            np.testing.assert_array_equal(template[:, 1], np.eye(m)[0])
        phis = rng.uniform(-1.0, 1.0, 3)
        sds = (0.1,) * len(model.seasonals)
        draws = make_draws(model, [(ParamPoint(0.1, 0.1, 0.1, sds, phi=phi), np.zeros(m)) for phi in phis])
        ops = _DrawOperators(model, draws, slice(None))
        horizons = tuple(range(1, 7))
        for t in range(model.period):
            w, g, _, _ = ops.horizon_terms(t, horizons)
            np.testing.assert_array_equal(w[:, 1], 0.0)
            for j, phi in enumerate(phis):
                for i, h in enumerate(horizons):
                    dense = np.eye(m)
                    for step in range(t, t + h):
                        dense = model.transition_matrix(phi, step) @ dense
                    np.testing.assert_allclose(
                        w[i] + g[i, j] * np.eye(m)[1], dense.T @ model.z, rtol=1e-12, atol=1e-12
                    )
