"""Discrete Bayesian network learning and inference over encoded clinical data.

Structure search is score-based hill climbing with a tabu memory of visited
structures, scored by BIC. The search is incremental: BIC decomposes over
families, so each node keeps the scores of its own family and of every family
one parent away (its neighbourhood), and a move rescores only the nodes whose
parents it changed. A neighbourhood is scored in two steps: a plan that does
not depend on the data (the families' code weights and segment starts), built
once per bootstrap for each (node, parent set) the searches visit, then one
count over a resample. A resample is a row multiplicity: the count reads each
row drawn at least once, once, weighted by how often it was drawn, so it
gives the same integer cell counts, and the same scores to the bit, as a
count over the copied rows. Codes come from one float32 product, exact
because a plan refuses a batch of 2**24 cells or more. A search keeps every
neighbourhood it scored, so returning to a parent set costs no count, and it
keeps the number of directed paths between every two nodes, so an add that
would close a cycle is never a candidate. Ties within _SCORE_EPS go to the
smallest (move kind, arc), whatever the order candidates come in. Robustness
comes from bootstrap resampling: the fraction of resampled networks
containing a directed arc is that arc's strength, and the consensus network
keeps arcs at or above a strength threshold. Parameters are multinomial MLE
with optional Laplace smoothing. Inference is exact variable elimination by
one routine: `infer_markers` takes the FPG and 2HPP posteriors as the
marginals of their joint, and `infer_posterior` asks it for one target. A
posterior depends only on the evidence in CPTs that also hold an unobserved
variable, so the model caches each elimination by those values: subjects
whose evidence differs only in fully observed families share one
elimination, and read the same posterior to the bit; `infer_markers` keeps
its marginals and expectations with the cached joint.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .casts import checked, integer, load_json, number, objects, read, string, strings, text
from .dataset import _read_rows
from .errors import CapacityError, GlycastError, InferenceError, RangeError, SchemaError
from .preprocess import DiscreteDataset

Arc = tuple[str, str]

ANNOTATION_CATEGORIES = ("causal", "correlated", "independent")


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named nodes."""

    nodes: tuple[str, ...]
    arcs: frozenset[Arc] = frozenset()

    def __post_init__(self) -> None:
        children: dict[str, set[str]] = {n: set() for n in self.nodes}
        if len(children) != len(self.nodes):
            raise SchemaError("duplicate node names")
        for u, v in self.arcs:
            if u == v:
                raise SchemaError(f"self-arc {u}->{v}")
            if u not in children or v not in children:
                raise SchemaError(f"arc {u}->{v} references unknown node")
            children[u].add(v)
        if any(_has_path(children, v, u) for u, v in self.arcs):
            raise SchemaError("arc set contains a cycle")

    def parents_of(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(u for u, v in self.arcs if v == node))

    def skeleton(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(arc) for arc in self.arcs)


def _has_path(children: Mapping[str, set[str]], src: str, dst: str) -> bool:
    """Whether a directed path leads from src to dst: depth-first over child sets keyed by name."""
    stack = [src]
    seen = {src}
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for child in children[node]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


# Codes are float32 products; every integer below 2**24 is a float32, and so is
# every partial sum of a code's nonnegative integer terms.
_MAX_CELLS = 2**24


@dataclass(frozen=True)
class _FamilyPlan:
    """The data-free layout of a batch of one node's families.

    Family j's configuration code is weights[j] @ columns, over a dataset's
    class columns and a row of ones: node + card*(p1 + card1*(p2 + ...)),
    shifted past the cells of the families before it. Its cells start at
    cell_starts[j], its parent configurations at config_starts[j], and half_k
    holds k/2, half its free parameters. The weights are float32 and the
    batch holds fewer than _MAX_CELLS cells, so every code is exact. The
    layout depends on the cards only, so one plan scores every dataset over
    them; its arrays are read-only.
    """

    card: int
    n_cells: int
    weights: np.ndarray
    cell_starts: np.ndarray
    config_starts: np.ndarray
    half_k: np.ndarray


def _family_plan(cards: np.ndarray, node: int, parent_sets: Sequence[tuple[int, ...]]) -> _FamilyPlan:
    """The plan of column `node` under each parent set (column indices), in order.

    The order within a parent set fixes the configuration code layout;
    callers keep parents sorted by name. Raises CapacityError when the batch
    holds _MAX_CELLS cells or more, past which float32 codes are not exact.
    """
    card = int(cards[node])
    # Parent k of a set has stride card * (product of the cards before it),
    # read from a row-wise cumulative product over the sets padded with ones.
    n_sets = len(parent_sets)
    sizes = np.fromiter(map(len, parent_sets), np.intp, n_sets)
    parents = np.fromiter(itertools.chain.from_iterable(parent_sets), np.intp, sizes.sum())
    rows = np.repeat(np.arange(n_sets), sizes)
    slots = np.arange(len(parents)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    padded = np.ones((n_sets, sizes.max(initial=0) + 1), np.int64)
    padded[rows, slots + 1] = cards[parents]
    strides = card * np.cumprod(padded, axis=1)
    n_cfgs = strides[:, -1] // card
    offsets = np.concatenate(([0], np.cumsum(strides[:, -1])))
    if offsets[-1] >= _MAX_CELLS:
        raise CapacityError(f"a batch of {offsets[-1]} family cells reaches the float32 code bound {_MAX_CELLS}")
    weights = np.zeros((n_sets, len(cards) + 1), np.float32)
    weights[:, node] = 1.0
    weights[:, -1] = offsets[:-1]
    weights[rows, parents] = strides[rows, slots]
    plan = _FamilyPlan(
        card=card,
        n_cells=int(offsets[-1]),
        weights=weights,
        cell_starts=offsets[:-1],
        config_starts=offsets[:-1] // card,
        half_k=0.5 * ((card - 1) * n_cfgs),
    )
    for array in (weights, plan.cell_starts, plan.config_starts, plan.half_k):
        array.setflags(write=False)
    return plan


class _FamilyScores:
    """Caching BIC family scorer over one DiscreteDataset, its rows weighted.

    Row i counts `multiplicity[i]` times (once each when None): a bootstrap
    resample is the multiplicity of each row it drew. Only the rows with a
    nonzero multiplicity are kept, and the BIC n is the total multiplicity.
    `codes` gives the offset configuration codes of a plan's families, and
    `counted` scores them from a single np.bincount over those codes,
    weighted by the rows' multiplicities, which gives the integer cell
    counts of the copied rows exactly. `families` scores one node under
    several parent sets through the plan of that batch, and `family` is the
    one-set, by-name form. Either way a family's score is computed with the
    same operations: c*ln(c) of every cell and of every row total, read from
    a table over 0..n, and summed per family by one np.add.reduceat over the
    cells and one over the rows of the whole batch. reduceat sums each
    family's segment on its own, so a score does not depend on the batch it
    came from.
    """

    def __init__(self, data: DiscreteDataset, multiplicity: Optional[np.ndarray] = None):
        multiplicity = np.ones(data.n_rows, np.int64) if multiplicity is None else np.asarray(multiplicity)
        if multiplicity.shape != (data.n_rows,):
            raise SchemaError("one multiplicity per row expected")
        n = int(multiplicity.sum())
        if n == 0:
            raise SchemaError("cannot score an empty dataset")
        self.data = data
        self.log_n = math.log(n)
        counts = np.arange(n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._xlogx = counts * np.log(counts)
        self._xlogx[0] = 0.0
        drawn = np.flatnonzero(multiplicity)
        # Class columns of the drawn rows as float32 rows plus a row of ones:
        # the codes of many families come from one matrix product.
        self._columns = np.ones((len(data.cards) + 1, len(drawn)), np.float32)
        self._columns[:-1] = data.matrix[drawn].T
        self._row_weights = multiplicity[drawn].astype(np.float64)
        self._cards = np.asarray(data.cards, np.int64)
        self._cache: dict[tuple[int, tuple[int, ...]], float] = {}

    def family(self, node: str, parents: tuple[str, ...]) -> float:
        index = self.data.index_of
        return self.families(index(node), [tuple(index(p) for p in parents)])[0]

    def families(self, node: int, parent_sets: Sequence[tuple[int, ...]]) -> list[float]:
        """Scores of column `node` under each parent set (column indices), cached per set."""
        cache = self._cache
        missing = [ps for ps in parent_sets if (node, ps) not in cache]
        if missing:
            scores = self.counted(_family_plan(self._cards, node, missing)).tolist()
            cache.update(((node, ps), score) for ps, score in zip(missing, scores))
        return [cache[(node, ps)] for ps in parent_sets]

    def codes(self, plan: _FamilyPlan) -> np.ndarray:
        """Each family's (rows) configuration code of each drawn row (columns).

        The codes are below _MAX_CELLS, so int32 holds them, and float32
        converts to int32 faster than to int64.
        """
        return (plan.weights @ self._columns).astype(np.int32)

    def counted(self, plan: _FamilyPlan) -> np.ndarray:
        """The BIC score of each of the plan's families on this dataset."""
        codes = self.codes(plan)
        if len(self._row_weights) < codes.size:  # one copy of the row weights per family
            self._row_weights = np.tile(self._row_weights[: codes.shape[1]], len(codes))
        # Sums of integer float64 weights below 2**53: exact integer counts.
        counts = np.bincount(codes.ravel(), self._row_weights[: codes.size], plan.n_cells).astype(np.intp)
        by_config = counts.reshape(-1, plan.card)
        row_totals = sum(by_config[:, i] for i in range(plan.card))  # faster than .sum(axis=1)
        xlogx = self._xlogx
        loglik = np.add.reduceat(xlogx[counts], plan.cell_starts)
        loglik -= np.add.reduceat(xlogx[row_totals], plan.config_starts)
        return loglik - plan.half_k * self.log_n


class _PlanTable:
    """Neighbourhood plans by (node, own parent set), over name-ordered cards.

    Node v's neighbourhood under parents `own` is the batch of families
    [own] + [own+u for each non-parent u] + [own-u for each parent u], sets
    sorted, u ascending. A plan does not depend on the data, so the searches
    of one bootstrap share one table.
    """

    def __init__(self, cards: tuple[int, ...]):
        self.cards = tuple(cards)
        self._cards = np.asarray(self.cards, np.int64)
        self._plans: dict[tuple[int, tuple[int, ...]], tuple[_FamilyPlan, list[int]]] = {}

    def neighbourhood(self, node: int, own: tuple[int, ...]) -> tuple[_FamilyPlan, list[int]]:
        """The plan of node's neighbourhood and its non-parents u, ascending."""
        found = self._plans.get((node, own))
        if found is None:
            others = [u for u in range(len(self.cards)) if u != node and u not in own]
            sets = [own]
            sets += [tuple(sorted(own + (u,))) for u in others]
            sets += [tuple(p for p in own if p != u) for u in own]
            found = self._plans[(node, own)] = (_family_plan(self._cards, node, sets), others)
        return found


def bic_score(dag: Dag, data: DiscreteDataset) -> float:
    """Decomposable BIC: multinomial MLE log-likelihood minus (k/2)ln(n)."""
    for node in dag.nodes:
        data.index_of(node)  # raises SchemaError for unknown nodes
    scorer = _FamilyScores(data)
    return sum(scorer.family(node, dag.parents_of(node)) for node in dag.nodes)


@dataclass(frozen=True)
class TabuParams:
    tabu_len: int = 100
    max_iter: int = 500
    # Give up after this many consecutive iterations without improving the
    # best score; the structure space at <=16 nodes plateaus long before
    # max_iter.
    stall_limit: int = 30

    def __post_init__(self) -> None:
        for setting in fields(self):  # 2.5 or True is refused, not run as a list length or 1
            checked(setting.name, getattr(self, setting.name), integer)
        if self.tabu_len < 1:
            raise RangeError("tabu_len must be >= 1")
        if self.max_iter < 0:
            raise RangeError("max_iter must be >= 0")
        if self.stall_limit < 1:
            raise RangeError("stall_limit must be >= 1")


# Scores within this absolute margin of the best are treated as tied and broken
# by a deterministic (move kind, arc) order. Score-equivalent orientations of
# the same skeleton differ only by float rounding, and letting that rounding
# pick the direction would scatter bootstrap strength across the two
# orientations.
_SCORE_EPS = 1e-6

# Move kinds, in tie-break order.
_ADD, _DELETE, _REVERSE = 0, 1, 2


def _in_name_order(data: DiscreteDataset) -> DiscreteDataset:
    """`data` with its columns in name order: `data` itself when they already are, else one copy."""
    order = sorted(range(len(data.variables)), key=data.variables.__getitem__)
    if order == list(range(len(order))):
        return data
    names = tuple(data.variables[c] for c in order)
    return DiscreteDataset(names, tuple(data.cards[c] for c in order), data.matrix[:, order])


def tabu_search(
    data: DiscreteDataset,
    params: TabuParams = TabuParams(),
    *,
    _plans: Optional[_PlanTable] = None,
    _multiplicity: Optional[np.ndarray] = None,
) -> Dag:
    """Hill-climb over add/delete/reverse arc moves with a visited-set tabu.

    Every iteration applies the best legal move whose result is not among the
    last `tabu_len` visited structures, improving or not. The search stops
    after `max_iter` iterations, after `stall_limit` iterations in a row that
    do not raise the best score by more than _SCORE_EPS, or when no move is
    left, and returns the best-scoring DAG seen.

    Tie rule: let M be the highest candidate score. Among the candidates
    scoring at least M - _SCORE_EPS, the smallest (kind, source, target)
    wins, with add < delete < reverse and nodes compared by name. The choice
    depends on the candidate set only, not on the order candidates are
    generated in.

    Scoring is incremental. BIC decomposes over families, so a move changes
    the family terms of only the node (add, delete) or two nodes (reverse)
    whose parents it changes. Each node v keeps f(v, pa(v)), f(v, pa(v)+u)
    for every non-parent u, and f(v, pa(v)-u) - f(v, pa(v)) for every parent
    u. After a move only the changed nodes are rescored: a node's
    neighbourhood plan comes from `_plans` (a `_PlanTable` that
    `bootstrap_consensus` shares between its searches; a fresh one when
    None), and one count on this data scores all of its families. The data
    are the rows of `data`, row i taken `_multiplicity[i]` times (once each
    when None): `bootstrap_consensus` passes each resample's row counts
    rather than a copy of its rows, with the same result. Those terms are
    kept per (v, pa(v)) for the rest of the search, so a parent set the walk
    returns to costs three copies. Every candidate's score is then one array
    expression with the same float operations as scoring the move alone,
    e.g. reversing u->v scores (drop + f(u, pa(u)+v)) - f(u, pa(u)).

    Nodes are indexed in name order (the columns are copied into that order
    unless they already are in it, as `bootstrap_consensus` hands them over),
    so a candidate's flat index kind*n*n + u*n + v is its tie key, and the
    empty DAG's score sums f(v, ()) in that order. The search keeps an (n, n)
    matrix of path counts, paths[a, b] the number of directed paths from a to
    b. The paths through an arc u->v are those into u times those out of v, so
    an add or a delete moves the matrix by one outer product, and a reversal
    by two. An add u->v with a path from v to u would close a cycle and scores
    -inf outright, and reversing u->v closes one iff u has a path to v other
    than the arc itself. The walk takes the argmax, sets it to -inf while it
    is an illegal reversal or tabu, and takes the argmax again; the first
    legal, non-tabu index scoring within _SCORE_EPS of the score it stops at
    is the move. Visited structures are arc bitmasks.
    """
    nodes = tuple(data.variables)
    n = len(nodes)
    if n == 0:
        return Dag(nodes)  # no candidate to take the argmax of
    data = _in_name_order(data)
    names, cards = data.variables, data.cards
    plans = _PlanTable(cards) if _plans is None else _plans
    if plans.cards != cards:
        raise SchemaError("plan table built for other cards")
    scorer = _FamilyScores(data, _multiplicity)

    parents: list[tuple[int, ...]] = [()] * n
    base = np.empty(n)
    added = np.full((n, n), -np.inf)  # [u, v]: f(v, pa(v)+u)
    dropped = np.full((n, n), -np.inf)  # [u, v]: f(v, pa(v)-u) - f(v, pa(v))
    # (v, pa(v)) -> (f(v, pa(v)), column v of added, column v of dropped)
    terms: dict[tuple[int, tuple[int, ...]], tuple[float, np.ndarray, np.ndarray]] = {}

    def rescore(v: int) -> None:
        own = parents[v]
        kept = terms.get((v, own))
        if kept is None:
            plan, others = plans.neighbourhood(v, own)
            scores = scorer.counted(plan)
            add = np.full(n, -np.inf)
            add[others] = scores[1 : 1 + len(others)]
            drop = np.full(n, -np.inf)
            drop[list(own)] = scores[1 + len(others) :] - scores[0]
            kept = terms[(v, own)] = (scores[0], add, drop)
        base[v], added[:, v], dropped[:, v] = kept

    for v in range(n):
        rescore(v)
    current_score = sum(base.tolist())  # f(v, ()) summed in name order, whatever the columns' order
    mask = 0  # bit u*n + v set iff the arc u->v is present
    best_mask = mask
    best_score = current_score

    tabu: deque[int] = deque(maxlen=params.tabu_len)
    tabu_set: set[int] = set()

    def remember(structure: int) -> None:
        if structure in tabu_set:
            return
        if len(tabu) == tabu.maxlen:
            tabu_set.discard(tabu[0])
        tabu.append(structure)
        tabu_set.add(structure)

    remember(mask)

    # [a, b]: the number of directed paths from a to b, at most 2**(n-2), so
    # int64 holds it up to 64 nodes and Python integers past that.
    paths = np.zeros((n, n), np.int64 if n <= 64 else object)

    def through(u: int, v: int) -> np.ndarray:
        """The paths that run through an arc u->v: those into u times those out of v, empty ones included."""
        into = paths[:, u].copy()
        into[u] = 1
        out = paths[v].copy()
        out[v] = 1
        return into[:, None] * out

    n2 = n * n

    def successor(index: int) -> Optional[int]:
        """The arc bitmask candidate `index` leads to; None if it closes a cycle or is tabu.

        Adds that close a cycle are not candidates: they score -inf.
        """
        kind, arc = divmod(index, n2)
        u, v = divmod(arc, n)
        if kind == _ADD:
            structure = mask | 1 << arc
        elif kind == _DELETE:
            structure = mask ^ 1 << arc
        else:
            if paths[u, v] > 1:
                return None  # another path from u to v would close a cycle with v->u
            structure = mask ^ 1 << arc ^ 1 << (v * n + u)
        return None if structure in tabu_set else structure

    stall = 0
    for _ in range(params.max_iter):
        # Flat index kind*n2 + u*n + v, the tie key. An add u->v closes a
        # cycle iff a path leads from v to u.
        scores = np.concatenate(
            (
                np.where(paths.T != 0, -np.inf, current_score + (added - base)).ravel(),
                (current_score + dropped).ravel(),
                (current_score + ((dropped + added.T) - base[:, None])).ravel(),
            )
        )
        top = int(scores.argmax())
        while scores[top] > -np.inf and successor(top) is None:
            scores[top] = -np.inf
            top = int(scores.argmax())
        if scores[top] == -np.inf:
            break
        # The window holds top itself, so the walk always stops.
        for chosen in np.flatnonzero(scores >= scores[top] - _SCORE_EPS).tolist():
            structure = successor(chosen)
            if structure is not None:
                break

        kind, arc = divmod(chosen, n2)
        u, v = divmod(arc, n)
        if kind == _ADD:
            parents[v] = tuple(sorted(parents[v] + (u,)))
            paths += through(u, v)
        else:
            parents[v] = tuple(p for p in parents[v] if p != u)
            paths -= through(u, v)
            if kind == _REVERSE:
                parents[u] = tuple(sorted(parents[u] + (v,)))
                paths += through(v, u)
                rescore(u)
        rescore(v)
        mask = structure
        current_score = float(scores[chosen])
        remember(mask)

        if current_score > best_score + _SCORE_EPS:
            best_score = current_score
            best_mask = mask
            stall = 0
        else:
            stall += 1
            if stall >= params.stall_limit:
                break

    arcs = frozenset(
        (names[arc // n], names[arc % n]) for arc in range(n2) if best_mask >> arc & 1
    )
    return Dag(nodes, arcs)


@dataclass(frozen=True)
class ArcStrengthTable:
    """Directed-arc bootstrap frequencies; absent arcs have strength 0."""

    strengths: Mapping[Arc, float]

    def __post_init__(self) -> None:
        for arc, value in self.strengths.items():
            if not 0.0 <= value <= 1.0:
                raise RangeError(f"strength of {arc} outside [0, 1]: {value}")

    def strength(self, u: str, v: str) -> float:
        return float(self.strengths.get((u, v), 0.0))


def bootstrap_consensus(
    data: DiscreteDataset,
    b: int = 100,
    threshold: float = 0.85,
    seed: int = 0,
    params: TabuParams = TabuParams(),
) -> tuple[ArcStrengthTable, Dag]:
    """Learn b networks on row resamples and keep arcs meeting the threshold.

    When both directions of an arc pass, the stronger one is kept (ties toward
    the lexicographically smaller source); retained arcs are admitted in
    decreasing strength order, skipping any that would close a cycle. b and
    seed are ints as `casts.integer` reads one (SchemaError otherwise).
    """
    b = checked("b", b, integer)
    seed = checked("seed", seed, integer)
    if b < 1:
        raise RangeError("b must be >= 1")
    if not 0.0 < threshold <= 1.0:
        raise RangeError("threshold must lie in (0, 1]")
    n = data.n_rows
    # Searches index nodes in name order: the columns are put in that order
    # once, and the b searches share their neighbourhood plans, which depend
    # on the cards alone.
    ordered = _in_name_order(data)
    plans = _PlanTable(ordered.cards)

    def one_replicate(rep: int) -> frozenset[Arc]:
        rng = np.random.default_rng([seed, rep])
        rows = rng.integers(0, n, size=n)
        # The resample as how often each row was drawn, not a copy of its rows.
        return tabu_search(ordered, params, _plans=plans, _multiplicity=np.bincount(rows, minlength=n)).arcs

    replicate_arcs = [one_replicate(rep) for rep in range(b)]

    counts: dict[Arc, int] = {}
    for arcs in replicate_arcs:
        for arc in arcs:
            counts[arc] = counts.get(arc, 0) + 1
    strengths = {arc: count / b for arc, count in counts.items()}
    table = ArcStrengthTable(strengths=strengths)

    retained: dict[Arc, float] = {}
    for (u, v), s in strengths.items():
        if s < threshold:
            continue
        rev = strengths.get((v, u), 0.0)
        if rev >= threshold:
            if rev > s or (rev == s and (v, u) < (u, v)):
                continue  # the other direction wins
        retained[(u, v)] = s

    admitted: set[Arc] = set()
    children: dict[str, set[str]] = {node: set() for node in data.variables}
    for (u, v), s in sorted(retained.items(), key=lambda item: (-item[1], item[0])):
        if _has_path(children, v, u):
            continue
        admitted.add((u, v))
        children[u].add(v)
    return table, Dag(tuple(data.variables), frozenset(admitted))


@dataclass(frozen=True)
class BayesianNetworkModel:
    """Consensus DAG with fitted CPTs and optional expert arc annotations.

    CPT rows are indexed by the mixed-radix code of the node's sorted parent
    classes (first parent most significant); every row sums to 1. The model
    keeps read-only copies of the CPTs, so `eliminations`, the cache of
    `_eliminate` (set of evidence variables -> `_EliminationPlan`), never
    goes stale; `dataclasses.replace` starts an empty one.
    """

    dag: Dag
    cards: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]
    parent_order: Mapping[str, tuple[str, ...]]
    representatives: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    annotations: Mapping[Arc, str] = field(default_factory=dict)
    eliminations: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cpts = {node: np.array(cpt) for node, cpt in self.cpts.items()}
        for cpt in cpts.values():
            cpt.flags.writeable = False
        object.__setattr__(self, "cpts", cpts)
        object.__setattr__(self, "eliminations", {})
        for node in self.dag.nodes:
            cpt = self.cpts[node]
            card = self.cards[node]
            n_cfg = 1
            for parent in self.parent_order[node]:
                n_cfg *= self.cards[parent]
            if cpt.shape != (n_cfg, card):
                raise SchemaError(f"CPT of {node} has shape {cpt.shape}, expected {(n_cfg, card)}")
            if not np.allclose(cpt.sum(axis=1), 1.0, atol=1e-9):
                raise SchemaError(f"CPT rows of {node} do not sum to 1")
        for arc, category in self.annotations.items():
            if arc not in self.dag.arcs:
                raise SchemaError(f"annotation references absent arc {arc[0]}->{arc[1]}")
            if category not in ANNOTATION_CATEGORIES:
                raise SchemaError(f"unknown annotation category {category!r} for {arc}")

    def representative_values(self, node: str) -> tuple[float, ...]:
        reps = self.representatives.get(node)
        if reps is None:
            return tuple(float(k) for k in range(self.cards[node]))
        return reps


def fit_parameters(dag: Dag, data: DiscreteDataset, alpha: float = 1.0) -> BayesianNetworkModel:
    """Estimate CPTs by (smoothed) maximum likelihood.

    entry = (count + alpha) / (row_total + alpha * card); alpha=0 is pure MLE
    and leaves unseen parent configurations as uniform rows.
    """
    if not 0 <= alpha < math.inf:  # NaN fails too
        raise RangeError(f"alpha must be finite and >= 0, got {alpha}")
    cards = {name: data.card_of(name) for name in dag.nodes}
    cpts: dict[str, np.ndarray] = {}
    parent_order: dict[str, tuple[str, ...]] = {}
    for node in dag.nodes:
        parents = dag.parents_of(node)
        parent_order[node] = parents
        card = cards[node]
        n_cfg = 1
        for parent in parents:
            n_cfg *= cards[parent]
        code = np.zeros(data.n_rows, dtype=np.int64)
        for parent in parents:  # first parent most significant
            code = code * cards[parent] + data.column(parent)
        code = code * card + data.column(node)
        counts = np.bincount(code, minlength=n_cfg * card).reshape(n_cfg, card).astype(float)
        counts += alpha
        row_totals = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            cpt = counts / row_totals
        cpt[np.isnan(cpt).any(axis=1)] = 1.0 / card  # unseen config, alpha = 0
        cpts[node] = cpt

    representatives: dict[str, tuple[float, ...]] = {}
    for codec in data.codecs:
        if codec.name in cards:
            representatives[codec.name] = codec.representatives

    return BayesianNetworkModel(
        dag=dag,
        cards=cards,
        cpts=cpts,
        parent_order=parent_order,
        representatives=representatives,
    )


@dataclass(frozen=True)
class _EliminationPlan:
    """What an elimination needs of one set of evidence variables.

    `observed` holds each fully observed family (its CPT entries as a flat
    list, and its variables), `free` the other nodes in model order.
    `shared` names the evidence variables in a `free` family: only their
    values reach the posterior, so `results` keys each normalised posterior
    on (targets, those values).
    """

    observed: tuple[tuple[list[float], tuple[str, ...]], ...]
    free: tuple[str, ...]
    shared: tuple[str, ...]
    results: dict = field(default_factory=dict)  # (targets, shared values) -> _Posterior


@dataclass
class _Posterior:
    """One cached elimination: the normalised joint over its targets, and `infer_markers`' reading of it once made."""

    joint: np.ndarray
    markers: Optional[tuple[np.ndarray, np.ndarray, float, float]] = None


def _elimination_plan(model: BayesianNetworkModel, evidence: Mapping[str, int]) -> _EliminationPlan:
    observed, free, shared = [], [], set()
    for node in model.dag.nodes:
        names = model.parent_order[node] + (node,)
        if all(v in evidence for v in names):
            observed.append((model.cpts[node].ravel().tolist(), names))
        else:
            free.append(node)
            shared.update(v for v in names if v in evidence)
    return _EliminationPlan(tuple(observed), tuple(free), tuple(sorted(shared)))


def _eliminate(
    model: BayesianNetworkModel, targets: tuple[str, ...], evidence: Mapping[str, int]
) -> _Posterior:
    """Posterior joint over `targets` (axes in that order) by variable elimination, as the cache holds it.

    Each CPT is reduced by the evidence with one index. The fully observed
    CPTs reduce to scalars, which fold into one float: it takes part in the
    zero-mass test, but not in the normalised result, so evidence that
    reaches the targets only through such factors leaves the posterior the
    same to the bit (subjects with the same Markov-blanket evidence tie
    exactly). The other variables are then summed
    out one at a time, each with one np.einsum over the factors that hold it,
    in min-weight order: the variable whose product factor is smallest first,
    ties broken by name. A final np.einsum multiplies what is left into the
    table over the targets.

    The posterior is therefore a function of the targets and the values of
    the evidence in the other CPTs (`_EliminationPlan.shared`), and the
    model's `eliminations` cache returns the record computed for them, which
    callers copy from and never change. Every call validates the evidence and
    multiplies the scalars, so a call that hits the cache raises what a fresh
    elimination would.
    """
    for var, value in evidence.items():
        if var not in model.cards:
            raise SchemaError(f"evidence variable {var} is not in the model")
        if not 0 <= value < model.cards[var]:
            raise RangeError(f"evidence {var}={value} outside 0..{model.cards[var] - 1}")
    for target in targets:
        if target not in model.cards:
            raise SchemaError(f"unknown target variable {target}")
        if target in evidence:
            raise SchemaError(f"target {target} cannot also be evidence")

    plan = model.eliminations.get(frozenset(evidence))
    if plan is None:
        plan = model.eliminations[frozenset(evidence)] = _elimination_plan(model, evidence)
    scale = 1.0
    for entries, names in plan.observed:
        code = 0
        for v in names:  # the CPT's row code, then its column
            code = code * model.cards[v] + evidence[v]
        scale *= entries[code]
    key = (targets, tuple(evidence[v] for v in plan.shared))
    posterior = plan.results.get(key)
    if posterior is not None:
        if not scale > 0.0:
            raise InferenceError("contradictory evidence: posterior mass is zero")
        return posterior

    nodes = model.dag.nodes
    label = {node: i for i, node in enumerate(nodes)}
    factors: list[tuple[np.ndarray, list[int]]] = []
    for node in plan.free:
        names = model.parent_order[node] + (node,)
        table = model.cpts[node].reshape([model.cards[v] for v in names])
        table = table[tuple(evidence.get(v, slice(None)) for v in names)]
        factors.append((table, [label[v] for v in names if v not in evidence]))

    def weight(var: int) -> tuple[int, str]:
        size = 1
        for v in {v for _, held in factors if var in held for v in held}:
            size *= model.cards[nodes[v]]
        return size, nodes[var]

    to_eliminate = [label[v] for v in nodes if v not in evidence and v not in targets]
    while to_eliminate:
        var = min(to_eliminate, key=weight)
        to_eliminate.remove(var)
        involved = [f for f in factors if var in f[1]]
        factors = [f for f in factors if var not in f[1]]
        kept = sorted({v for _, held in involved for v in held} - {var})
        factors.append((np.einsum(*itertools.chain.from_iterable(involved), kept), kept))

    joint = np.einsum(*itertools.chain.from_iterable(factors), [label[t] for t in targets])
    total = float(joint.sum())
    if not (scale > 0.0 and total > 0.0):
        raise InferenceError("contradictory evidence: posterior mass is zero")
    posterior = plan.results[key] = _Posterior(joint / total)
    return posterior


def infer_posterior(
    model: BayesianNetworkModel, target: str, evidence: Mapping[str, int]
) -> np.ndarray:
    """Exact posterior over `target` classes given `evidence`: `_eliminate` with one target.

    Raises SchemaError or RangeError on invalid evidence and InferenceError
    when the evidence has probability zero anywhere in the network.
    """
    return _eliminate(model, (target,), evidence).joint.copy()


def infer_markers(
    model: BayesianNetworkModel, evidence: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Posteriors and expected mg/dL values for the FPG and 2HPP markers.

    One elimination gives the markers' posterior joint (`_eliminate` with
    targets fpg, hpp2); the two posteriors are its row and column sums. The
    posteriors and expectations are kept with the cached joint, so a cache
    hit returns copies of them. `_eliminate` raises SchemaError when the
    model has no fpg or hpp2 node or the evidence names one.
    """
    posterior = _eliminate(model, ("fpg", "hpp2"), evidence)
    if posterior.markers is None:
        fpg_posterior = posterior.joint.sum(axis=1)
        hpp2_posterior = posterior.joint.sum(axis=0)
        fpg_hat = float(np.dot(fpg_posterior, model.representative_values("fpg")))
        hpp2_hat = float(np.dot(hpp2_posterior, model.representative_values("hpp2")))
        posterior.markers = fpg_posterior, hpp2_posterior, fpg_hat, hpp2_hat
    fpg_posterior, hpp2_posterior, fpg_hat, hpp2_hat = posterior.markers
    return fpg_posterior.copy(), hpp2_posterior.copy(), fpg_hat, hpp2_hat


def network_to_json(
    dag: Dag,
    strengths: Optional[ArcStrengthTable] = None,
    types: Optional[Mapping[Arc, str]] = None,
) -> dict:
    arcs = []
    for u, v in sorted(dag.arcs):
        entry = {"from": u, "to": v}
        if strengths is not None:
            entry["strength"] = strengths.strength(u, v)
        if types is not None and (u, v) in types:
            entry["type"] = types[(u, v)]
        arcs.append(entry)
    return {"nodes": list(dag.nodes), "arcs": arcs}


def cpts_to_json(model: BayesianNetworkModel) -> dict:
    return {
        node: {
            "parents": list(model.parent_order[node]),
            "card": int(model.cards[node]),
            "table": [[float(p) for p in row] for row in model.cpts[node]],
        }
        for node in model.dag.nodes
    }


def load_arc_annotations(path: Path | str) -> dict[Arc, str]:
    """Read a from,to,category CSV of expert arc annotations."""
    annotations: dict[Arc, str] = {}
    for i, (u, v, category) in enumerate(_read_rows(path, dict.fromkeys(("from", "to", "category"), text))):
        if not (u and v and category):
            raise SchemaError(f"{path}: row {i} is incomplete")
        if category not in ANNOTATION_CATEGORIES:
            raise SchemaError(f"{path}: row {i}: unknown category {category!r}")
        if (u, v) in annotations:
            raise SchemaError(f"{path}: duplicate annotation for {u}->{v}")
        annotations[(u, v)] = category
    return annotations


def load_network_json(path: Path | str) -> tuple[Dag, ArcStrengthTable]:
    """Read a `network_to_json` document; SchemaError naming the file if it is not one."""
    payload = load_json(path)
    try:
        nodes = read(payload, "nodes", strings)
        strengths = {
            (read(a, "from", string), read(a, "to", string)): read(a, "strength", number, 1.0)
            for a in read(payload, "arcs", objects)
        }
        return Dag(nodes, frozenset(strengths)), ArcStrengthTable(strengths=strengths)
    except KeyError as exc:
        raise SchemaError(f"{path}: network document lacks key {exc}") from None
    except GlycastError as exc:
        raise SchemaError(f"{path}: malformed network document: {exc}") from None
