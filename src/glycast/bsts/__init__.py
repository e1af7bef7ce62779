"""Bayesian structural time-series engine: components, filtering, MCMC."""

from .components import (
    ComponentSpec,
    SeasonalLayout,
    SpikeSlabSettings,
    StateSpaceModel,
    TrendPriors,
    VariancePrior,
    assemble_model,
    circadian_seasonal,
    day_seasonal,
    meal_seasonal,
    regression,
    seasonal,
    semi_local_trend,
    specs_from_json,
)
from .kalman import ParamPoint, ffbs_sample, kalman_loglik
from .spike_slab import exact_inclusion_posterior, sample_regression
from .sampler import ForecastResult, PosteriorDraws, forecast_anchors, mcmc_fit, posterior_forecast

__all__ = [
    "ComponentSpec",
    "ForecastResult",
    "ParamPoint",
    "PosteriorDraws",
    "SeasonalLayout",
    "SpikeSlabSettings",
    "StateSpaceModel",
    "TrendPriors",
    "VariancePrior",
    "assemble_model",
    "circadian_seasonal",
    "day_seasonal",
    "exact_inclusion_posterior",
    "ffbs_sample",
    "forecast_anchors",
    "kalman_loglik",
    "mcmc_fit",
    "meal_seasonal",
    "posterior_forecast",
    "regression",
    "sample_regression",
    "seasonal",
    "semi_local_trend",
    "specs_from_json",
]
