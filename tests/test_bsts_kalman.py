import numpy as np
import pytest
from scipy.stats import norm

from glycast.bsts import (
    ParamPoint,
    assemble_model,
    ffbs_sample,
    kalman_loglik,
    regression,
    seasonal,
    semi_local_trend,
)
from glycast.bsts import kalman
from glycast.errors import NumericalError, SchemaError
from glycast.synth import gaussian_predictive_oracle


def trend_model(y):
    return assemble_model([semi_local_trend()], y)


class TestFilter:
    def test_noiseless_semi_local_recursion(self):
        # mu0=100, delta0=2, D=0, phi=0.5: slope halves toward D each step.
        y = np.array([100.0, 102.0, 103.0, 103.5])
        model = trend_model(y).with_initial_state([100.0, 2.0], [0.0, 0.0])
        params = ParamPoint(0.0, 0.0, 0.0, d=0.0, phi=0.5)
        filt = kalman_loglik(model, params, y)
        np.testing.assert_allclose(filt.predicted_means, [100.0, 102.0, 103.0, 103.5])

    def test_white_noise_loglik(self):
        # Fixed level, no state evolution: independent Gaussians around mu.
        rng = np.random.default_rng(1)
        y = rng.normal(5.0, 2.0, 40)
        model = trend_model(y).with_initial_state([5.0, 0.0], [0.0, 0.0])
        params = ParamPoint(0.0, 0.0, 2.0, d=0.0, phi=0.0)
        filt = kalman_loglik(model, params, y)
        expected = norm.logpdf(y, 5.0, 2.0).sum()
        assert filt.loglik == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n_seas = int(rng.integers(0, 3))
            specs = [semi_local_trend()]
            for k in range(n_seas):
                n_seasons = int(rng.integers(2, 5))
                durations = tuple(int(rng.integers(1, 4)) for _ in range(n_seasons))
                specs.append(seasonal(f"s{k}", n_seasons, durations))
            y = rng.normal(0, 1.0, int(rng.integers(6, 21)))
            model = assemble_model(specs, y)
            if model.state_dim > 8:
                continue
            params = ParamPoint(
                sigma_level=float(rng.uniform(0.05, 1.0)),
                sigma_slope=float(rng.uniform(0.05, 0.5)),
                sigma_obs=float(rng.uniform(0.1, 1.5)),
                sigma_seasonal=tuple(float(rng.uniform(0.05, 1.0)) for _ in range(n_seas)),
                d=float(rng.normal(0, 0.3)),
                phi=float(rng.uniform(-0.9, 0.9)),
            )
            filt = kalman_loglik(model, params, y)
            oracle = gaussian_predictive_oracle(model, params, y)
            assert filt.loglik == pytest.approx(oracle.loglik, rel=1e-8)
            np.testing.assert_allclose(filt.predicted_means, oracle.onestep_means, atol=1e-8)
            np.testing.assert_allclose(
                filt.predicted_variances, oracle.onestep_variances, atol=1e-8
            )

    def test_regression_offset(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 18)
        x = rng.normal(0, 1, (18, 2))
        model = assemble_model([semi_local_trend(), regression(("a", "b"))], y, x)
        beta = np.array([1.5, -0.5])
        params = ParamPoint(0.2, 0.1, 0.7, d=0.0, phi=0.3, beta=beta)
        filt = kalman_loglik(model, params, y)
        oracle = gaussian_predictive_oracle(model, params, y, x=x)
        assert filt.loglik == pytest.approx(oracle.loglik, rel=1e-8)

    def test_params_shape_validation(self):
        y = np.zeros(10) + np.arange(10)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 2, 2))], y)
        with pytest.raises(SchemaError, match="seasonal"):
            kalman_loglik(model, ParamPoint(0.1, 0.1, 0.1), y)


class TestFFBS:
    def test_zero_noise_reproduces_deterministic_path(self):
        y = np.array([100.0, 102.0, 103.0, 103.5])
        model = trend_model(y).with_initial_state([100.0, 2.0], [0.0, 0.0])
        params = ParamPoint(0.0, 0.0, 0.0, d=0.0, phi=0.5)
        states = ffbs_sample(model, params, y, np.random.default_rng(0))
        np.testing.assert_allclose(states[:, 0], [100.0, 102.0, 103.0, 103.5])
        np.testing.assert_allclose(states[:, 1], [2.0, 1.0, 0.5, 0.25])

    def test_sample_means_match_dense_smoother(self):
        rng = np.random.default_rng(11)
        y = np.array([1.0, 1.8, 2.1, 1.5, 2.6])
        model = trend_model(y)
        params = ParamPoint(0.5, 0.3, 0.8, d=0.1, phi=0.4)
        oracle = gaussian_predictive_oracle(model, params, y)
        n_draws = 10000
        draws = np.empty((n_draws, 5, 2))
        for k in range(n_draws):
            draws[k] = ffbs_sample(model, params, y, rng)
        se = draws.std(axis=0) / np.sqrt(n_draws)
        diff = np.abs(draws.mean(axis=0) - oracle.smoothed_state_means)
        assert np.all(diff <= 3.0 * np.maximum(se, 1e-12))

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(4)
        y = rng.normal(10, 2, 25)
        model = trend_model(y)
        params = ParamPoint(0.3, 0.1, 0.5, d=0.0, phi=0.2)
        a = ffbs_sample(model, params, y, np.random.default_rng(99))
        b = ffbs_sample(model, params, y, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "sigma_a, phases",
        [
            pytest.param(0.5, (0, 0), id="0.5"),
            pytest.param(0.0, (0, 0), id="0.0"),
            pytest.param(0.5, (9, 4), id="phased"),
        ],
    )
    def test_sample_moments_match_dense_smoother(self, sigma_a, phases):
        # Trend, two seasonals whose boundaries fall on 4 of 13 transitions
        # (5 when phased: each series starts inside a season), and a 2-column
        # regression; sigma_a = 0 freezes the first seasonal.
        rng = np.random.default_rng(5)
        n = 14
        y = rng.normal(0, 1, n).cumsum()
        x = rng.normal(0, 1, (n, 2))
        specs = [
            semi_local_trend(),
            seasonal("a", 3, (4, 4, 5), phase=phases[0]),
            seasonal("b", 2, (6, 7), phase=phases[1]),
            regression(("u", "v")),
        ]
        model = assemble_model(specs, y, x)
        params = ParamPoint(0.4, 0.2, 0.6, (sigma_a, 0.3), d=0.05, phi=0.5, beta=np.array([0.7, -0.4]))
        oracle = gaussian_predictive_oracle(model, params, y, x=x)
        n_draws = 6000
        draws = np.array([ffbs_sample(model, params, y, rng, x=x) for _ in range(n_draws)])

        cov = oracle.smoothed_state_covs
        var = np.einsum("tii->ti", cov)
        mean_se = np.sqrt(var / n_draws)
        diff = np.abs(draws.mean(axis=0) - oracle.smoothed_state_means)
        assert np.all(diff <= 5.0 * np.maximum(mean_se, 1e-12))

        centered = draws - draws.mean(axis=0)
        sample_cov = np.einsum("kti,ktj->tij", centered, centered) / (n_draws - 1)
        # Gaussian sampling variance of a covariance estimate.
        cov_se = np.sqrt((var[:, :, None] * var[:, None, :] + cov**2) / n_draws)
        assert np.all(np.abs(sample_cov - cov) <= 5.0 * np.maximum(cov_se, 1e-12))


def random_model(rng, n):
    """Trend, 0-3 seasonals with random durations and phases, 0-4 regressors on a unit-scale series."""
    specs = [semi_local_trend()]
    for k in range(int(rng.integers(0, 4))):
        durations = tuple(int(d) for d in rng.integers(1, 30, int(rng.integers(2, 5))))
        specs.append(seasonal(f"s{k}", len(durations), durations, phase=int(rng.integers(0, sum(durations)))))
    j = int(rng.integers(0, 5))
    x = rng.normal(0, 1, (n, j)) if j else None
    if j:
        specs.append(regression(tuple(f"c{i}" for i in range(j))))
    y = rng.normal(0, 1, n)
    model = assemble_model(specs, y, x)
    params = ParamPoint(
        *rng.uniform(0.05, 1.5, 3),
        sigma_seasonal=tuple(rng.uniform(0.05, 1.5, len(model.seasonals))),
        d=float(rng.normal(0, 0.3)),
        phi=float(rng.uniform(-0.95, 0.95)),
        beta=rng.normal(0, 1, j),
    )
    return model, params, y, x


def banded_mean(model, params, y, x):
    """The precision branch's smoothed mean of the state, gathered to (n, m)."""
    form = kalman._SequenceForm(model, params, y.size)
    assert form.has_precision
    return form.smoothed_mean(y - model.observation_offsets(params.beta, x, y.size))[form.index]


class TestSmoothedMean:
    def test_banded_matches_filter_branch(self):
        rng = np.random.default_rng(31)
        for n in np.unique(np.geomspace(3, 400, 30).astype(int)):
            model, params, y, x = random_model(rng, n)
            reference = kalman._filtered_mean(model, params, y, x)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(banded_mean(model, params, y, x) - reference)) <= 1e-9 * scale

    def test_banded_matches_dense_oracle(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 25:
            model, params, y, x = random_model(rng, int(rng.integers(3, 21)))
            if model.state_dim > 8:
                continue
            oracle = gaussian_predictive_oracle(model, params, y, x=x).smoothed_state_means
            assert np.max(np.abs(banded_mean(model, params, y, x) - oracle)) <= 1e-8 * np.max(np.abs(oracle))
            checked += 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trend_block_raises_numerical_error(self):
        # sigma_level = 1e-150 keeps every reciprocal finite (1e300), so the precision branch runs, but the
        # trend blocks' 2x2 determinants overflow: a typed error, not a RuntimeWarning.
        rng = np.random.default_rng(34)
        y = rng.normal(0, 1, 100)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 3, 2))], y)
        params = ParamPoint(1e-150, 0.2, 0.5, (0.3,), d=0.0, phi=0.4)
        assert kalman._SequenceForm(model, params, y.size).has_precision
        with pytest.raises(NumericalError):
            ffbs_sample(model, params, y, rng)

    def test_subnormal_variance_takes_filter_branch(self, monkeypatch):
        # sigma_level^2 = 1e-320 is subnormal: its reciprocal overflows, so the precision does not exist.
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return kalman_loglik(*args, **kwargs)

        monkeypatch.setattr(kalman, "kalman_loglik", spy)
        rng = np.random.default_rng(33)
        y = rng.normal(0, 1, 40)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 3, 2))], y)
        params = ParamPoint(1e-160, 0.2, 0.5, (0.3,), d=0.0, phi=0.4)
        assert not kalman._SequenceForm(model, params, y.size).has_precision
        states = ffbs_sample(model, params, y, rng)
        assert len(calls) == 1
        assert states.shape == (40, model.state_dim) and np.all(np.isfinite(states))
