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

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..casts import integer, integers, number, read, string
from ..errors import RangeError, SchemaError

MAX_HORIZON = 96  # longest posterior_forecast, in steps: one day, an input limit
_KINDS = ("semi_local_trend", "seasonal", "regression")  # the component kinds a stack may hold


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
    var_prior: Optional[VariancePrior] = None
    trend_priors: Optional[TrendPriors] = None
    spike_slab: Optional[SpikeSlabSettings] = None

    def __post_init__(self) -> None:
        """SchemaError unless a seasonal holds integers (as they are) that tile its cycle from a phase inside it."""
        if self.kind != "seasonal":
            return
        name = self.name
        try:
            n_seasons, phase = integer(self.n_seasons), integer(self.phase)
            durations = tuple(map(integer, self.durations))
        except (TypeError, ValueError):
            raise SchemaError(
                f"seasonal {name!r}: n_seasons, durations and phase must be integers, "
                f"got {self.n_seasons!r}, {self.durations!r}, {self.phase!r}"
            ) from None
        if n_seasons < 2:
            raise SchemaError(f"seasonal {name!r}: n_seasons must be >= 2")
        if len(durations) != n_seasons:
            raise SchemaError(f"seasonal {name!r}: {len(durations)} durations do not tile {n_seasons} seasons")
        if any(d < 1 for d in durations):
            raise SchemaError(f"seasonal {name!r}: durations must all be >= 1")
        object.__setattr__(self, "n_seasons", n_seasons)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "phase", phase)
        if not 0 <= phase < self.cycle:
            raise SchemaError(f"seasonal {name!r}: phase must lie in 0..{self.cycle - 1}")

    @property
    def cycle(self) -> int:
        """A seasonal's steps from one start of its first season to the next."""
        return sum(self.durations)


def semi_local_trend(priors: Optional[TrendPriors] = None) -> ComponentSpec:
    return ComponentSpec(kind="semi_local_trend", name="trend", trend_priors=priors)


def seasonal(
    name: str,
    n_seasons: int,
    durations: Sequence[int],
    phase: int = 0,
    var_prior: Optional[VariancePrior] = None,
) -> ComponentSpec:
    """A seasonal spec, checked by ComponentSpec."""
    return ComponentSpec(
        kind="seasonal", name=name, n_seasons=n_seasons, durations=durations, phase=phase, var_prior=var_prior
    )


def regression(settings: Optional[SpikeSlabSettings] = None) -> ComponentSpec:
    """The spike-and-slab regression: its prior alone, as the design it is assembled with is its columns.

    In a run that design is the donors' (CGM and, where meals exist,
    glycemic load, per donor), and a tester without donors has no regression.
    """
    return ComponentSpec(kind="regression", name="regression", spike_slab=settings)


def check_stack(specs: Sequence[ComponentSpec]) -> None:
    """SchemaError unless every spec is of a known kind, exactly one a semi_local_trend and at most one a regression."""
    kinds = [s.kind for s in specs]
    unknown = [kind for kind in kinds if kind not in _KINDS]
    if unknown:
        raise SchemaError(f"unknown component kind(s): {unknown}")
    if kinds.count("semi_local_trend") != 1:
        raise SchemaError("exactly one semi_local_trend component is required")
    if kinds.count("regression") > 1:
        raise SchemaError("at most one regression component is allowed")


def specs_from_json(payload: dict) -> list[ComponentSpec]:
    """Parse a {components: [...], priors by component} document into specs.

    Seasonal entries carry name/n_seasons/durations/phase and an optional
    var_prior {df, guess}; the trend entry may carry level/slope variance
    priors plus d/phi hyperparameters; a regression entry carries only
    optional spike_slab settings, since its columns are the donors' design
    (see `regression`), and one that lists `columns` is refused. An entry
    that is not a JSON object or names an unknown kind raises SchemaError
    naming the entry and that rule; one that lacks a key, holds a value of
    the wrong type or is a seasonal that cannot tile its cycle raises
    SchemaError naming the entry as malformed, and a stack that
    `check_stack` refuses raises its SchemaError. Counts, durations and
    phases take JSON integers, the priors finite JSON numbers and a name a
    string, each read by `glycast.casts.read` as the config keys are.
    """
    if "components" not in payload or not isinstance(payload["components"], list):
        raise SchemaError("component document requires a 'components' list")

    def var_prior(entry: Optional[dict]) -> Optional[VariancePrior]:
        if entry is None:
            return None
        try:
            df, guess = number(entry["df"]), number(entry["guess"])
        except (TypeError, ValueError, OverflowError):  # the prior's own rule, as VariancePrior states it
            raise ValueError(f"variance prior requires finite positive df and guess, got {entry!r}") from None
        return VariancePrior(df=df, guess=guess)

    specs: list[ComponentSpec] = []
    for i, entry in enumerate(payload["components"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"component {i}: an entry must be a JSON object, got {entry!r}")
        kind = entry.get("kind")
        if kind not in _KINDS:
            raise SchemaError(f"component {i}: unknown kind {kind!r}")
        try:
            if kind == "semi_local_trend":
                priors = None
                raw = entry.get("priors")
                if raw is not None:
                    priors = TrendPriors(
                        level_var=var_prior(raw["level"]),
                        slope_var=var_prior(raw["slope"]),
                        d_mean=read(raw, "d_mean", number),
                        d_sd=read(raw, "d_sd", number),
                        phi_mean=read(raw, "phi_mean", number, 0.0),
                        phi_sd=read(raw, "phi_sd", number, 0.5),
                    )
                specs.append(semi_local_trend(priors))
            elif kind == "seasonal":
                specs.append(
                    seasonal(
                        name=read(entry, "name", string, f"seasonal_{i}"),
                        n_seasons=read(entry, "n_seasons", integer),
                        durations=read(entry, "durations", integers),
                        phase=read(entry, "phase", integer, 0),
                        var_prior=var_prior(entry.get("var_prior")),
                    )
                )
            else:  # a regression
                if "columns" in entry:
                    raise ValueError("a regression takes no 'columns': its columns are the donors' design")
                raw = entry.get("spike_slab")
                settings = None
                if raw is not None:
                    settings = SpikeSlabSettings(
                        expected_model_size=read(raw, "expected_model_size", number, 2.0),
                        information_weight=read(raw, "information_weight", number, 0.5),
                    )
                specs.append(regression(settings))
        except KeyError as exc:
            raise SchemaError(f"component {i}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"component {i}: malformed entry: {exc}") from None
    check_stack(specs)
    return specs


def day_seasonal() -> ComponentSpec:
    """Four six-hour seasons tiling the 96-interval day."""
    return seasonal("day", 4, (24, 24, 24, 24))


def meal_seasonal() -> ComponentSpec:
    """Three eight-hour seasons matching the three daily dietary events."""
    return seasonal("meal", 3, (32, 32, 32))


def circadian_seasonal() -> ComponentSpec:
    """Asymmetric active/sleep split: 12 then 6 hours, an 18-hour cycle."""
    return seasonal("circadian", 2, (48, 24))


# The paper's Stage-2 stack before the regression on similar subjects.
STANDARD_STACK = (semi_local_trend(), day_seasonal(), meal_seasonal(), circadian_seasonal())


@dataclass(frozen=True)
class StateSpaceModel:
    """Assembled trend + seasonal + regression state space with priors.

    `seasonals` are the stack's seasonal specs, each with its var_prior, and
    everything else about them is derived from them at construction. The
    state is the trend's level and slope, then each seasonal's block in stack
    order: `blocks` holds the slices, consecutive from slot 2, each
    n_seasons - 1 wide, and `z` observes slot 0 and each block's first slot,
    the seasonal's current effect. a1 and p1_diag must have the state's
    length (SchemaError). The transition changes only where a season ends,
    so the step schedule of one period (the lcm of the seasonal cycles) is
    derived too: `masks` holds the distinct boundary masks in order of first
    appearance (flag k: the step from t to t+1 starts a new season of
    seasonal k), `shifts` each mask's blocks of the seasonals that turn, and
    `step_masks` the index into `masks` of every step of the period.
    `transition` is the one rule that moves a state by a step of a mask.
    """

    seasonals: tuple[ComponentSpec, ...]
    trend_priors: TrendPriors
    obs_var_prior: VariancePrior
    spike_slab: SpikeSlabSettings
    design: np.ndarray  # training design (n, J), the regression's columns; J is 0 without regression
    a1: np.ndarray  # initial state mean (m,)
    p1_diag: np.ndarray  # initial state variance diagonal (m,)
    n_train: int
    blocks: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    z: np.ndarray = field(init=False, repr=False, compare=False)  # observation vector (m,)
    masks: tuple[tuple[bool, ...], ...] = field(init=False, repr=False, compare=False)
    shifts: tuple[tuple[slice, ...], ...] = field(init=False, repr=False, compare=False)
    step_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    sequence_layouts: dict = field(init=False, repr=False, compare=False)  # n -> kalman._SequenceLayout

    def __post_init__(self) -> None:
        edges = list(itertools.accumulate((s.n_seasons - 1 for s in self.seasonals), initial=2))
        blocks = tuple(map(slice, edges[:-1], edges[1:]))
        z = np.zeros(edges[-1])
        z[[0, *edges[:-1]]] = 1.0
        if np.shape(self.a1) != z.shape or np.shape(self.p1_diag) != z.shape:
            raise SchemaError("initial state dimensions do not match the model")
        period = math.lcm(1, *(s.cycle for s in self.seasonals))
        t = np.arange(period + 1)
        seasons = [
            np.searchsorted(np.cumsum(s.durations), (s.phase + t) % s.cycle, side="right").tolist()
            for s in self.seasonals
        ]
        by_step = [tuple(season[u + 1] != season[u] for season in seasons) for u in range(period)]
        masks = tuple(dict.fromkeys(by_step))
        shifts = tuple(tuple(block for block, turns in zip(blocks, mask) if turns) for mask in masks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "step_masks", tuple(map(masks.index, by_step)))
        object.__setattr__(self, "sequence_layouts", {})

    @property
    def state_dim(self) -> int:
        return int(self.z.size)

    @property
    def n_regressors(self) -> int:
        return int(self.design.shape[1])

    @property
    def period(self) -> int:
        return len(self.step_masks)

    def with_initial_state(self, a1: Sequence[float], p1_diag: Sequence[float]) -> "StateSpaceModel":
        return replace(self, a1=np.asarray(a1, dtype=float), p1_diag=np.asarray(p1_diag, dtype=float))

    def boundaries(self, n: int) -> np.ndarray:
        """Boundary flags (n-1, number of seasonals) of an n-step series: row t is the mask of the step t to t+1."""
        table = np.array(self.masks, dtype=bool).reshape(len(self.masks), len(self.seasonals))
        return table[np.asarray(self.step_masks)[np.arange(max(n - 1, 0)) % self.period]]

    def transition(self, mask: int, x: np.ndarray, phi: float | np.ndarray) -> np.ndarray:
        """T x in place along axis 0 for a step with mask index `mask`; phi broadcasts against x[1]. Returns x.

        mu' = mu + delta and delta' = phi delta (the intercept c holds the rest);
        each seasonal that turns puts minus the sum of its stored effects on
        top and shifts them down one place, and every other seasonal holds.
        """
        x[0] += x[1]
        x[1] *= phi
        for block in self.shifts[mask]:
            top = x[block].sum(axis=0)
            x[block.start + 1 : block.stop] = x[block.start : block.stop - 1]
            np.negative(top, out=x[block.start])
        return x

    def transition_matrix(self, phi: float, t: int) -> np.ndarray:
        """The dense T of the step from t to t+1: `transition` applied to the identity."""
        return self.transition(self.step_masks[t % self.period], np.eye(self.state_dim), phi)

    # These two also take arrays of K draws' parameters and then return a leading (K,) axis.

    def state_intercept(self, d: float | np.ndarray, phi: float | np.ndarray) -> np.ndarray:
        c = np.zeros(np.shape(d) + (self.state_dim,))
        c[..., 1] = (1.0 - phi) * d
        return c

    def mask_noise(
        self, i: int, level_var: float | np.ndarray, slope_var: float | np.ndarray, seasonal_vars: Sequence
    ) -> np.ndarray:
        """Noise variances of a step with mask i: level, slope, and each seasonal that starts a new season."""
        q = np.zeros(np.shape(level_var) + (self.state_dim,))
        q[..., 0] = level_var
        q[..., 1] = slope_var
        for block, var, boundary in zip(self.blocks, seasonal_vars, self.masks[i]):
            if boundary:
                q[..., block.start] = var
        return q

    def design_rows(self, x: Optional[np.ndarray], n: int) -> np.ndarray:
        """The first n rows of design x as floats (n, J); (n, 0) for a model without regression, whatever x is.

        SchemaError unless x has the model's J columns and at least n rows.
        """
        if not self.n_regressors:
            return np.zeros((n, 0))
        if x is None:
            raise SchemaError(f"a design with {self.n_regressors} columns is required")
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_regressors:
            raise SchemaError(f"design must have {self.n_regressors} columns, got shape {x.shape}")
        if x.shape[0] < n:
            raise SchemaError(f"design has {x.shape[0]} rows but {n} are required")
        return x[:n]

    def check_shapes(self, sigma_seasonal: Optional[Sequence] = None, beta: Optional[np.ndarray] = None) -> None:
        """SchemaError unless parameters fit the model: one sd per seasonal and one coefficient per design column.

        Read on the last axis, so one point's (S,) and (J,) and K draws' (K, S) and (K, J) alike; None is not checked.
        """
        shape = np.shape(sigma_seasonal)
        if sigma_seasonal is not None and shape[-1:] != (len(self.seasonals),):
            count = shape[-1] if shape else "a scalar of"
            raise SchemaError(f"params carry {count} seasonal sds for {len(self.seasonals)} seasonal components")
        if beta is not None and np.shape(beta)[-1:] != (self.n_regressors,):
            raise SchemaError(f"beta must have length {self.n_regressors}")

    def observation_offsets(self, beta: np.ndarray, x: Optional[np.ndarray], n: int) -> np.ndarray:
        """beta' x_t for t = 0..n-1 on `design_rows` of x (None: the training design); zeros without regression.

        One point's beta (J,) gives (n,), K draws' (K, J) give (n, K); SchemaError unless `check_shapes` takes beta.
        """
        self.check_shapes(beta=beta)
        return self.design_rows(self.design if x is None else x, n) @ np.asarray(beta, dtype=float).T


def assemble_model(
    specs: Sequence[ComponentSpec],
    y: Sequence[float],
    x: Optional[np.ndarray] = None,
) -> StateSpaceModel:
    """Build the block state space for the given components over series y.

    Prior hyperparameters left unset in the specs are filled with weak
    data-driven defaults derived from y. A regression spec takes x, finite
    with y's n rows, as its design: x's columns are the regression's. Without
    one, x must be None or hold no cells.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise SchemaError("y must be a 1-d series of at least 3 points")
    if not np.all(np.isfinite(y)):
        raise SchemaError("y contains non-finite values")
    n = int(y.size)

    check_stack(specs)
    (trend,) = (s for s in specs if s.kind == "semi_local_trend")
    regression_specs = [s for s in specs if s.kind == "regression"]

    sd_y = max(float(np.std(y)), 1e-4)
    dy = np.diff(y)
    sd_dy = max(float(np.std(dy)), 1e-4)
    prior_df = max(0.01 * n, 0.01)
    weak = VariancePrior(df=prior_df, guess=(0.01 * sd_y) ** 2)  # each state noise's default prior

    trend_priors = trend.trend_priors or TrendPriors(
        level_var=weak, slope_var=weak, d_mean=float(np.mean(dy)), d_sd=sd_dy, phi_mean=0.0, phi_sd=0.5
    )
    obs_var_prior = VariancePrior(df=prior_df, guess=(0.1 * sd_y) ** 2)
    seasonals = tuple(replace(s, var_prior=s.var_prior or weak) for s in specs if s.kind == "seasonal")

    if regression_specs:
        spike_slab = regression_specs[0].spike_slab or SpikeSlabSettings()
        if x is None:
            raise SchemaError("regression component requires a design matrix")
        design = np.asarray(x, dtype=float)
        if design.ndim != 2 or design.shape[0] != n:
            raise SchemaError(f"design shape {design.shape} does not have the series' {n} rows")
        if not np.all(np.isfinite(design)):
            raise SchemaError("design contains non-finite values")
    else:
        if x is not None and np.asarray(x).size:
            raise SchemaError("a design matrix was supplied without a regression component")
        design = np.zeros((n, 0))
        spike_slab = SpikeSlabSettings()

    m = 2 + sum(s.n_seasons - 1 for s in seasonals)
    a1 = np.zeros(m)
    a1[0] = float(y[0])
    p1 = np.full(m, sd_y**2)
    p1[1] = sd_dy**2

    return StateSpaceModel(
        seasonals=seasonals,
        trend_priors=trend_priors,
        obs_var_prior=obs_var_prior,
        spike_slab=spike_slab,
        design=design,
        a1=a1,
        p1_diag=p1,
        n_train=n,
    )
