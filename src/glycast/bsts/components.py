"""Structural time-series components and state-space assembly.

The observation at time t decomposes into a semi-local linear trend, any
number of duration-scheduled dummy seasonal components, and a static
regression effect:

    y_t = mu_t + sum_k tau_t^(k) + beta' x_t + eps_t

Trend (2 states):

    mu_{t+1}    = mu_t + delta_t + u_t
    delta_{t+1} = D + phi * (delta_t - D) + v_t

Each seasonal holds its current effect plus the previous S-2 effects
(S-1 states). The effect is constant within a season's duration; at a season
boundary the new effect is minus the sum of the stored ones plus noise:

    tau_new = -(tau_cur + tau_prev_1 + ... + tau_prev_{S-2}) + w_t
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..errors import RangeError, SchemaError

MAX_HORIZON = 96  # longest forecast posterior_forecast accepts, in steps


@dataclass(frozen=True)
class VariancePrior:
    """Inverse-gamma prior on a variance, as (prior sample size, prior guess).

    shape = df / 2, scale = df * guess / 2, so the prior concentrates around
    `guess` with weight equivalent to `df` observations.
    """

    df: float
    guess: float

    def __post_init__(self) -> None:
        if not (0 < self.df < math.inf and 0 < self.guess < math.inf):  # NaN fails too
            raise RangeError(f"variance prior requires finite positive df and guess, got {self}")

    @property
    def shape(self) -> float:
        return self.df / 2.0

    @property
    def scale(self) -> float:
        return self.df * self.guess / 2.0

    def draw(self, ss: float, count: int, rng: np.random.Generator) -> float:
        """A variance from the conditional given `count` residuals of sum of squares `ss`.

        Inverse-gamma with shape + count/2 and scale + ss/2; the scale is
        floored at 1e-300, and so is the gamma draw it is divided by.
        """
        return max(self.scale + ss / 2.0, 1e-300) / max(rng.gamma(self.shape + count / 2.0), 1e-300)


@dataclass(frozen=True)
class TrendPriors:
    level_var: VariancePrior
    slope_var: VariancePrior
    d_mean: float
    d_sd: float
    phi_mean: float = 0.0
    phi_sd: float = 0.5

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.d_mean, self.d_sd, self.phi_mean, self.phi_sd))):
            raise RangeError(f"trend prior hyperparameters must be finite, got {self}")
        if self.d_sd <= 0 or self.phi_sd <= 0:
            raise RangeError("prior standard deviations must be positive")


@dataclass(frozen=True)
class SpikeSlabSettings:
    """Bernoulli inclusion prior plus an averaged-information Gaussian slab."""

    expected_model_size: float = 2.0
    information_weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.expected_model_size < math.inf:  # NaN fails too
            raise RangeError(f"expected_model_size must be finite and positive, got {self.expected_model_size}")
        if not 0.0 <= self.information_weight <= 1.0:
            raise RangeError("information_weight must lie in [0, 1]")


@dataclass(frozen=True)
class ComponentSpec:
    kind: str  # "semi_local_trend" | "seasonal" | "regression"
    name: str = ""
    n_seasons: int = 0
    durations: tuple[int, ...] = ()
    phase: int = 0
    columns: tuple[str, ...] = ()
    var_prior: Optional[VariancePrior] = None
    trend_priors: Optional[TrendPriors] = None
    spike_slab: Optional[SpikeSlabSettings] = None


def semi_local_trend(priors: Optional[TrendPriors] = None) -> ComponentSpec:
    return ComponentSpec(kind="semi_local_trend", name="trend", trend_priors=priors)


def seasonal(
    name: str,
    n_seasons: int,
    durations: Sequence[int],
    phase: int = 0,
    var_prior: Optional[VariancePrior] = None,
) -> ComponentSpec:
    return ComponentSpec(
        kind="seasonal",
        name=name,
        n_seasons=n_seasons,
        durations=tuple(int(d) for d in durations),
        phase=phase,
        var_prior=var_prior,
    )


def regression(columns: Sequence[str], settings: Optional[SpikeSlabSettings] = None) -> ComponentSpec:
    return ComponentSpec(kind="regression", name="regression", columns=tuple(columns), spike_slab=settings)


def specs_from_json(payload: dict) -> list[ComponentSpec]:
    """Parse a {components: [...], priors by component} document into specs.

    Seasonal entries carry name/n_seasons/durations/phase and an optional
    var_prior {df, guess}; the trend entry may carry level/slope variance
    priors plus d/phi hyperparameters; a regression entry carries columns and
    optional spike_slab settings. An entry that lacks a key or holds a value
    of the wrong type raises SchemaError naming the entry.
    """
    if "components" not in payload or not isinstance(payload["components"], list):
        raise SchemaError("component document requires a 'components' list")

    def var_prior(entry: Optional[dict]) -> Optional[VariancePrior]:
        if entry is None:
            return None
        return VariancePrior(df=float(entry["df"]), guess=float(entry["guess"]))

    specs: list[ComponentSpec] = []
    try:
        for i, entry in enumerate(payload["components"]):
            kind = entry.get("kind")
            if kind == "semi_local_trend":
                priors = None
                raw = entry.get("priors")
                if raw is not None:
                    priors = TrendPriors(
                        level_var=var_prior(raw["level"]),
                        slope_var=var_prior(raw["slope"]),
                        d_mean=float(raw["d_mean"]),
                        d_sd=float(raw["d_sd"]),
                        phi_mean=float(raw.get("phi_mean", 0.0)),
                        phi_sd=float(raw.get("phi_sd", 0.5)),
                    )
                specs.append(semi_local_trend(priors))
            elif kind == "seasonal":
                specs.append(
                    seasonal(
                        name=str(entry.get("name", f"seasonal_{i}")),
                        n_seasons=int(entry["n_seasons"]),
                        durations=[int(d) for d in entry["durations"]],
                        phase=int(entry.get("phase", 0)),
                        var_prior=var_prior(entry.get("var_prior")),
                    )
                )
            elif kind == "regression":
                raw = entry.get("spike_slab")
                settings = None
                if raw is not None:
                    settings = SpikeSlabSettings(
                        expected_model_size=float(raw.get("expected_model_size", 2.0)),
                        information_weight=float(raw.get("information_weight", 0.5)),
                    )
                specs.append(regression([str(c) for c in entry["columns"]], settings))
            else:
                raise SchemaError(f"component {i}: unknown kind {kind!r}")
    except KeyError as exc:
        raise SchemaError(f"component {i}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"component {i}: malformed entry: {exc}") from None
    return specs


def day_seasonal() -> ComponentSpec:
    """Four six-hour seasons tiling the 96-interval day."""
    return seasonal("day", 4, (24, 24, 24, 24))


def meal_seasonal() -> ComponentSpec:
    """Three eight-hour seasons matching the three daily dietary events."""
    return seasonal("meal", 3, (32, 32, 32))


def circadian_seasonal(durations: tuple[int, int] = (48, 24)) -> ComponentSpec:
    """Asymmetric active/sleep split; (64, 32) is the 16h/8h alternative."""
    return seasonal("circadian", 2, durations)


@dataclass(frozen=True)
class SeasonalLayout:
    name: str
    n_seasons: int
    durations: tuple[int, ...]
    phase: int
    state_start: int  # first state index of this block
    var_prior: VariancePrior

    @property
    def cycle(self) -> int:
        return sum(self.durations)

    @property
    def state_dim(self) -> int:
        return self.n_seasons - 1


@dataclass(frozen=True)
class StateSpaceModel:
    """Assembled trend + seasonal + regression state space with priors.

    The transition changes only where a season ends, so the step schedule of
    one period (the lcm of the seasonal cycles) is derived from `seasonals`
    at construction: `masks` holds the distinct boundary masks in order of
    first appearance (flag k: the step from t to t+1 starts a new season of
    seasonal k), `templates` each mask's transition matrix at phi = 0 (read
    only), and `step_masks` the index into `masks` of every step of the
    period.
    """

    z: np.ndarray  # observation vector (m,)
    seasonals: tuple[SeasonalLayout, ...]
    trend_priors: TrendPriors
    obs_var_prior: VariancePrior
    spike_slab: SpikeSlabSettings
    design: np.ndarray  # training design (n, J); J may be 0
    design_names: tuple[str, ...]
    a1: np.ndarray  # initial state mean (m,)
    p1_diag: np.ndarray  # initial state variance diagonal (m,)
    n_train: int
    masks: tuple[tuple[bool, ...], ...] = field(init=False, repr=False, compare=False)
    templates: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    step_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    sequence_layouts: dict = field(init=False, repr=False, compare=False)  # n -> kalman._SequenceLayout

    def __post_init__(self) -> None:
        period = math.lcm(1, *(s.cycle for s in self.seasonals))
        t = np.arange(period + 1)
        seasons = [
            np.searchsorted(np.cumsum(s.durations), (s.phase + t) % s.cycle, side="right").tolist()
            for s in self.seasonals
        ]
        by_step = [tuple(season[u + 1] != season[u] for season in seasons) for u in range(period)]
        masks = tuple(dict.fromkeys(by_step))
        templates = []
        for mask in masks:
            T = np.zeros((self.state_dim, self.state_dim))
            T[0, :2] = 1.0
            for layout, boundary in zip(self.seasonals, mask):
                i, j = layout.state_start, layout.state_start + layout.state_dim
                # At a boundary the block shifts the stored effects down and puts the new one on top.
                T[i:j, i:j] = np.eye(j - i, k=-1 if boundary else 0)
                if boundary:
                    T[i, i:j] = -1.0
            T.flags.writeable = False
            templates.append(T)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "templates", tuple(templates))
        object.__setattr__(self, "step_masks", tuple(map(masks.index, by_step)))
        object.__setattr__(self, "sequence_layouts", {})

    @property
    def state_dim(self) -> int:
        return int(self.z.size)

    @property
    def n_regressors(self) -> int:
        return len(self.design_names)

    @property
    def period(self) -> int:
        return len(self.step_masks)

    def with_initial_state(self, a1: Sequence[float], p1_diag: Sequence[float]) -> "StateSpaceModel":
        a1 = np.asarray(a1, dtype=float)
        p1 = np.asarray(p1_diag, dtype=float)
        if a1.shape != (self.state_dim,) or p1.shape != (self.state_dim,):
            raise SchemaError("initial state dimensions do not match the model")
        return replace(self, a1=a1, p1_diag=p1)

    def boundaries(self, n: int) -> np.ndarray:
        """Boundary flags (n-1, number of seasonals) of an n-step series: row t is the mask of the step t to t+1."""
        table = np.array(self.masks, dtype=bool).reshape(len(self.masks), len(self.seasonals))
        return table[np.asarray(self.step_masks)[np.arange(max(n - 1, 0)) % self.period]]

    def transition_matrix(self, phi: float, t: int) -> np.ndarray:
        T = self.templates[self.step_masks[t % self.period]].copy()
        T[1, 1] = phi
        return T

    # These three also take arrays of K draws' parameters and then return a leading (K,) axis.

    def state_intercept(self, d: float | np.ndarray, phi: float | np.ndarray) -> np.ndarray:
        c = np.zeros(np.shape(d) + (self.state_dim,))
        c[..., 1] = (1.0 - phi) * d
        return c

    def noise_diag(
        self, level_var: float | np.ndarray, slope_var: float | np.ndarray, seasonal_vars: Sequence, t: int
    ) -> np.ndarray:
        return self.mask_noise(self.step_masks[t % self.period], level_var, slope_var, seasonal_vars)

    def mask_noise(
        self, i: int, level_var: float | np.ndarray, slope_var: float | np.ndarray, seasonal_vars: Sequence
    ) -> np.ndarray:
        """Noise variances of a step with mask i: level, slope, and each seasonal that starts a new season."""
        q = np.zeros(np.shape(level_var) + (self.state_dim,))
        q[..., 0] = level_var
        q[..., 1] = slope_var
        for layout, var, boundary in zip(self.seasonals, seasonal_vars, self.masks[i]):
            if boundary:
                q[..., layout.state_start] = var
        return q

    def observation_offsets(self, beta: np.ndarray, x: Optional[np.ndarray], n: int) -> np.ndarray:
        """beta' x_t for t = 0..n-1; zeros when the model has no regression."""
        if self.n_regressors == 0:
            return np.zeros(n)
        if x is None:
            x = self.design
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_regressors:
            raise SchemaError(f"design must have {self.n_regressors} columns, got shape {x.shape}")
        if x.shape[0] < n:
            raise SchemaError(f"design has {x.shape[0]} rows but {n} are required")
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.n_regressors,):
            raise SchemaError(f"beta must have length {self.n_regressors}")
        return x[:n] @ beta


def assemble_model(
    specs: Sequence[ComponentSpec],
    y: Sequence[float],
    x: Optional[np.ndarray] = None,
) -> StateSpaceModel:
    """Build the block state space for the given components over series y.

    Prior hyperparameters left unset in the specs are filled with weak
    data-driven defaults derived from y.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise SchemaError("y must be a 1-d series of at least 3 points")
    if not np.all(np.isfinite(y)):
        raise SchemaError("y contains non-finite values")
    n = int(y.size)

    trend_specs = [s for s in specs if s.kind == "semi_local_trend"]
    seasonal_specs = [s for s in specs if s.kind == "seasonal"]
    regression_specs = [s for s in specs if s.kind == "regression"]
    unknown = [s.kind for s in specs if s.kind not in ("semi_local_trend", "seasonal", "regression")]
    if unknown:
        raise SchemaError(f"unknown component kind(s): {unknown}")
    if len(trend_specs) != 1:
        raise SchemaError("exactly one semi_local_trend component is required")
    if len(regression_specs) > 1:
        raise SchemaError("at most one regression component is allowed")

    sd_y = max(float(np.std(y)), 1e-4)
    dy = np.diff(y)
    sd_dy = max(float(np.std(dy)), 1e-4)
    mean_dy = float(np.mean(dy))
    prior_df = max(0.01 * n, 0.01)

    trend_priors = trend_specs[0].trend_priors or TrendPriors(
        level_var=VariancePrior(df=prior_df, guess=(0.01 * sd_y) ** 2),
        slope_var=VariancePrior(df=prior_df, guess=(0.01 * sd_y) ** 2),
        d_mean=mean_dy,
        d_sd=sd_dy,
        phi_mean=0.0,
        phi_sd=0.5,
    )
    obs_var_prior = VariancePrior(df=prior_df, guess=(0.1 * sd_y) ** 2)

    layouts: list[SeasonalLayout] = []
    offset = 2
    for spec in seasonal_specs:
        if spec.n_seasons < 2:
            raise SchemaError(f"seasonal {spec.name!r}: n_seasons must be >= 2")
        if len(spec.durations) != spec.n_seasons:
            raise SchemaError(
                f"seasonal {spec.name!r}: {len(spec.durations)} durations do not tile "
                f"{spec.n_seasons} seasons"
            )
        if any(d < 1 for d in spec.durations):
            raise SchemaError(f"seasonal {spec.name!r}: durations must all be >= 1")
        cycle = sum(spec.durations)
        if not 0 <= spec.phase < cycle:
            raise SchemaError(f"seasonal {spec.name!r}: phase must lie in 0..{cycle - 1}")
        var_prior = spec.var_prior or VariancePrior(df=prior_df, guess=(0.01 * sd_y) ** 2)
        layouts.append(
            SeasonalLayout(
                name=spec.name,
                n_seasons=spec.n_seasons,
                durations=spec.durations,
                phase=spec.phase,
                state_start=offset,
                var_prior=var_prior,
            )
        )
        offset += spec.n_seasons - 1

    m = offset
    z = np.zeros(m)
    z[0] = 1.0
    for layout in layouts:
        z[layout.state_start] = 1.0

    if regression_specs:
        design_names = regression_specs[0].columns
        spike_slab = regression_specs[0].spike_slab or SpikeSlabSettings()
        if x is None:
            raise SchemaError("regression component requires a design matrix")
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape != (n, len(design_names)):
            raise SchemaError(
                f"design shape {getattr(x, 'shape', None)} does not match "
                f"({n}, {len(design_names)})"
            )
        if not np.all(np.isfinite(x)):
            raise SchemaError("design contains non-finite values")
        design = x
    else:
        if x is not None and np.asarray(x).size:
            raise SchemaError("a design matrix was supplied without a regression component")
        design_names = ()
        design = np.zeros((n, 0))
        spike_slab = SpikeSlabSettings()

    a1 = np.zeros(m)
    a1[0] = float(y[0])
    p1 = np.full(m, sd_y**2)
    p1[1] = sd_dy**2

    return StateSpaceModel(
        z=z,
        seasonals=tuple(layouts),
        trend_priors=trend_priors,
        obs_var_prior=obs_var_prior,
        spike_slab=spike_slab,
        design=design,
        design_names=design_names,
        a1=a1,
        p1_diag=p1,
        n_train=n,
    )
