"""Discrete Bayesian network learning and inference over encoded clinical data.

Structure search is score-based hill climbing with a tabu memory of visited
structures, scored by BIC. The search is incremental: BIC decomposes over
families, so each node caches the scores of its own family and of every family
one parent away, and a move rescores only the nodes whose parents it changed.
Ties within _SCORE_EPS go to the smallest (move kind, arc), whatever the order
candidates come in. Robustness comes from bootstrap resampling: the
fraction of resampled networks containing a directed arc is that arc's
strength, and the consensus network keeps arcs at or above a strength
threshold. Parameters are multinomial MLE with optional Laplace smoothing.
Inference is exact variable elimination by one routine: `infer_markers` takes
the FPG and 2HPP posteriors as the marginals of their joint, and
`infer_posterior` asks it for one target.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InferenceError, RangeError, SchemaError
from .preprocess import DiscreteDataset

Arc = tuple[str, str]

ANNOTATION_CATEGORIES = ("causal", "correlated", "independent")


def _toposort(nodes: Sequence[str], arcs: Iterable[Arc]) -> list[str]:
    children: dict[str, set[str]] = {n: set() for n in nodes}
    indegree: dict[str, int] = {n: 0 for n in nodes}
    for u, v in arcs:
        if v not in children[u]:
            children[u].add(v)
            indegree[v] += 1
    ready = deque(sorted(n for n in nodes if indegree[n] == 0))
    order: list[str] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for child in sorted(children[node]):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if len(order) != len(nodes):
        raise SchemaError("arc set contains a cycle")
    return order


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named nodes."""

    nodes: tuple[str, ...]
    arcs: frozenset[Arc] = frozenset()

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise SchemaError("duplicate node names")
        for u, v in self.arcs:
            if u == v:
                raise SchemaError(f"self-arc {u}->{v}")
            if u not in node_set or v not in node_set:
                raise SchemaError(f"arc {u}->{v} references unknown node")
        _toposort(self.nodes, self.arcs)  # raises on cycles

    def parents_of(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(u for u, v in self.arcs if v == node))

    def skeleton(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(arc) for arc in self.arcs)


def _has_path(children: Mapping[str, set[str]], src: str, dst: str) -> bool:
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


class _FamilyScores:
    """Caching BIC family scorer over one DiscreteDataset.

    `families` scores one node under several parent sets from a single
    np.bincount over offset configuration codes; `family` is the one-set,
    by-name form. Either way a family's score is computed with the same
    operations: c*ln(c) of every cell and of every row total, read from a
    table over 0..n_rows, and summed per family by one np.add.reduceat over
    the cells and one over the rows of the whole batch. reduceat sums each
    family's segment on its own, so a score does not depend on the batch it
    came from.
    """

    def __init__(self, data: DiscreteDataset):
        if data.n_rows == 0:
            raise SchemaError("cannot score an empty dataset")
        self.data = data
        self.log_n = math.log(data.n_rows)
        counts = np.arange(data.n_rows + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._xlogx = counts * np.log(counts)
        self._xlogx[0] = 0.0
        # Class columns as float64 rows plus a row of ones: the codes of many
        # families come from one matrix product, which is exact because every
        # code is an integer below the number of cells counted, far below 2**53.
        self._columns = np.vstack((data.matrix.T, np.ones(data.n_rows)))
        self._cards = np.asarray(data.cards, np.int64)
        self._cache: dict[tuple[int, tuple[int, ...]], float] = {}

    def family(self, node: str, parents: tuple[str, ...]) -> float:
        index = self.data.index_of
        return self.families(index(node), [tuple(index(p) for p in parents)])[0]

    def families(self, node: int, parent_sets: Sequence[tuple[int, ...]]) -> list[float]:
        """Scores of column `node` under each parent set (column indices).

        The order within a parent set fixes the configuration code layout;
        callers keep parents sorted by name.
        """
        cache = self._cache
        missing = [ps for ps in parent_sets if (node, ps) not in cache]
        if missing:
            for ps, score in zip(missing, self._score(node, missing)):
                cache[(node, ps)] = score
        return [cache[(node, ps)] for ps in parent_sets]

    def _score(self, node: int, parent_sets: list[tuple[int, ...]]) -> list[float]:
        cards = self._cards
        card = int(cards[node])
        # Family j's code is node + card*(p1 + card1*(p2 + ...)), shifted past
        # the cells of the families before it: weights[j] @ columns. Parent k
        # of a set has stride card * (product of the cards before it), read
        # from a row-wise cumulative product over the sets padded with ones.
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
        weights = np.zeros((n_sets, len(self._columns)))
        weights[:, node] = 1.0
        weights[:, -1] = offsets[:-1]
        weights[rows, parents] = strides[rows, slots]
        codes = (weights @ self._columns).astype(np.int64)
        counts = np.bincount(codes.ravel(), minlength=offsets[-1])
        by_config = counts.reshape(-1, card)
        row_totals = sum(by_config[:, i] for i in range(card))  # faster than .sum(axis=1)
        xlogx = self._xlogx
        loglik = np.add.reduceat(xlogx[counts], offsets[:-1])
        loglik -= np.add.reduceat(xlogx[row_totals], offsets[:-1] // card)
        k_params = (card - 1) * n_cfgs
        return (loglik - 0.5 * k_params * self.log_n).tolist()


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


def _descendants(children: Sequence[set[int]]) -> list[int]:
    """Bitset of each node's descendants in a DAG given by child index sets."""
    reach = [-1] * len(children)
    for node in range(len(children)):
        if reach[node] < 0:
            _reach_from(node, children, reach)
    return reach


def _reach_from(node: int, children: Sequence[set[int]], reach: list[int]) -> int:
    bits = 0
    for child in children[node]:
        below = reach[child]
        if below < 0:
            below = _reach_from(child, children, reach)
        bits |= (1 << child) | below
    reach[node] = bits
    return bits


def tabu_search(data: DiscreteDataset, params: TabuParams = TabuParams()) -> Dag:
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
    u. After a move only the changed nodes are rescored, all of one node's
    families from one bincount. Every candidate's score is then one array
    expression with the same float operations as scoring the move alone, e.g.
    reversing u->v scores (drop + f(u, pa(u)+v)) - f(u, pa(u)). Reachability
    is kept as descendant bitsets: adding u->v is legal iff v does not reach
    u, and reversing u->v iff no other child of u reaches v. Visited
    structures are arc bitmasks.
    """
    nodes = tuple(data.variables)
    n = len(nodes)
    scorer = _FamilyScores(data)
    # Nodes are column indices; the tie rule and parent sets (sorted as in
    # bic_score) follow name order.
    rank = [0] * n
    for position, node in enumerate(sorted(range(n), key=nodes.__getitem__)):
        rank[node] = position
    by_name = rank.__getitem__

    parents: list[tuple[int, ...]] = [()] * n
    children: list[set[int]] = [set() for _ in range(n)]
    reach = [0] * n
    base = np.empty(n)
    added = np.full((n, n), -np.inf)  # [u, v]: f(v, pa(v)+u)
    dropped = np.full((n, n), -np.inf)  # [u, v]: f(v, pa(v)-u) - f(v, pa(v))

    def rescore(v: int) -> None:
        own = parents[v]
        others = [u for u in range(n) if u != v and u not in own]
        sets = [own]
        sets += [tuple(sorted(own + (u,), key=by_name)) for u in others]
        sets += [tuple(p for p in own if p != u) for u in own]
        scores = np.array(scorer.families(v, sets))
        base[v] = scores[0]
        added[:, v] = -np.inf
        added[others, v] = scores[1 : 1 + len(others)]
        dropped[:, v] = -np.inf
        dropped[list(own), v] = scores[1 + len(others) :] - scores[0]

    for v in range(n):
        rescore(v)
    # Every empty-parent family was just scored in its node's batch; a score
    # does not depend on its batch, so these are cache hits.
    current_score = sum(scorer.family(node, ()) for node in nodes)
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

    n2 = n * n
    stall = 0
    for _ in range(params.max_iter):
        # Flat index kind*n2 + u*n + v.
        scores = np.concatenate(
            (
                (current_score + (added - base)).ravel(),
                (current_score + dropped).ravel(),
                (current_score + ((dropped + added.T) - base[:, None])).ravel(),
            )
        )
        # Walk the candidates best first: the first legal, non-tabu one sets
        # the tie window, and the walk stops below it.
        chosen = -1
        floor = -np.inf
        for index in np.argsort(-scores).tolist():
            score = scores[index]
            if score == -np.inf or score < floor:
                break
            kind, arc = divmod(index, n2)
            u, v = divmod(arc, n)
            if kind == _ADD:
                if reach[v] >> u & 1:
                    continue  # would close a cycle
                structure = mask | 1 << arc
            elif kind == _DELETE:
                structure = mask ^ 1 << arc
            else:
                if any(reach[c] >> v & 1 for c in children[u] if c != v):
                    continue  # the reversed arc would close a cycle
                structure = mask ^ 1 << arc ^ 1 << (v * n + u)
            if structure in tabu_set:
                continue
            key = kind * n2 + rank[u] * n + rank[v]
            if chosen < 0:
                floor = score - _SCORE_EPS
            if chosen < 0 or key < chosen_key:
                chosen, chosen_key, chosen_structure = index, key, structure
        if chosen < 0:
            break

        kind, arc = divmod(chosen, n2)
        u, v = divmod(arc, n)
        if kind == _ADD:
            parents[v] = tuple(sorted(parents[v] + (u,), key=by_name))
            children[u].add(v)
        else:
            parents[v] = tuple(p for p in parents[v] if p != u)
            children[u].discard(v)
            if kind == _REVERSE:
                parents[u] = tuple(sorted(parents[u] + (v,), key=by_name))
                children[v].add(u)
                rescore(u)
        rescore(v)
        reach = _descendants(children)
        mask = chosen_structure
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
        (nodes[arc // n], nodes[arc % n]) for arc in range(n2) if best_mask >> arc & 1
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
    decreasing strength order, skipping any that would close a cycle.
    """
    if b < 1:
        raise RangeError("b must be >= 1")
    if not 0.0 < threshold <= 1.0:
        raise RangeError("threshold must lie in (0, 1]")
    n = data.n_rows

    def one_replicate(rep: int) -> frozenset[Arc]:
        rng = np.random.default_rng([seed, rep])
        rows = rng.integers(0, n, size=n)
        resample = DiscreteDataset(
            variables=data.variables,
            cards=data.cards,
            matrix=data.matrix[rows],
            codecs=data.codecs,
        )
        return tabu_search(resample, params).arcs

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
    classes (first parent most significant); every row sums to 1.
    """

    dag: Dag
    cards: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]
    parent_order: Mapping[str, tuple[str, ...]]
    representatives: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    annotations: Mapping[Arc, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
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
    if alpha < 0:
        raise RangeError("alpha must be >= 0")
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


def _eliminate(
    model: BayesianNetworkModel, targets: tuple[str, ...], evidence: Mapping[str, int]
) -> np.ndarray:
    """Posterior joint over `targets` (axes in that order) by variable elimination.

    Each CPT is reduced by the evidence with one index. The factors that the
    evidence reduces to scalars fold into one float: it takes part in the
    zero-mass test, but not in the normalised result, so evidence that
    reaches the targets only through such factors leaves the posterior the
    same to the bit (subjects with the same Markov-blanket evidence tie
    exactly). The other variables are then summed
    out one at a time, each with one np.einsum over the factors that hold it,
    in min-weight order: the variable whose product factor is smallest first,
    ties broken by name. A final np.einsum multiplies what is left into the
    table over the targets.
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

    nodes = model.dag.nodes
    label = {node: i for i, node in enumerate(nodes)}
    scale = 1.0
    factors: list[tuple[np.ndarray, list[int]]] = []
    for node in nodes:
        names = model.parent_order[node] + (node,)
        table = model.cpts[node].reshape([model.cards[v] for v in names])
        table = table[tuple(evidence.get(v, slice(None)) for v in names)]
        free = [label[v] for v in names if v not in evidence]
        if free:
            factors.append((table, free))
        else:
            scale *= float(table)

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
    return joint / total


def infer_posterior(
    model: BayesianNetworkModel, target: str, evidence: Mapping[str, int]
) -> np.ndarray:
    """Exact posterior over `target` classes given `evidence`: `_eliminate` with one target.

    Raises SchemaError or RangeError on invalid evidence and InferenceError
    when the evidence has probability zero anywhere in the network.
    """
    return _eliminate(model, (target,), evidence)


def infer_markers(
    model: BayesianNetworkModel, evidence: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Posteriors and expected mg/dL values for the FPG and 2HPP markers.

    One elimination gives the markers' posterior joint (`_eliminate` with
    targets fpg, hpp2); the two posteriors are its row and column sums.
    """
    for marker in ("fpg", "hpp2"):
        if marker not in model.cards:
            raise SchemaError(f"model has no {marker} node")
        if marker in evidence:
            raise SchemaError(f"evidence must not include {marker}")
    joint = _eliminate(model, ("fpg", "hpp2"), evidence)
    fpg_posterior = joint.sum(axis=1)
    hpp2_posterior = joint.sum(axis=0)
    fpg_hat = float(np.dot(fpg_posterior, model.representative_values("fpg")))
    hpp2_hat = float(np.dot(hpp2_posterior, model.representative_values("hpp2")))
    return fpg_posterior, hpp2_posterior, fpg_hat, hpp2_hat


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
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [h.strip().lower() for h in next(reader)]
        if header != ["from", "to", "category"]:
            raise SchemaError(f"{path}: expected header from,to,category")
        for i, cells in enumerate(reader):
            if len(cells) < 3:
                raise SchemaError(f"{path}: row {i} is incomplete")
            u, v, category = (c.strip() for c in cells[:3])
            if category not in ANNOTATION_CATEGORIES:
                raise SchemaError(f"{path}: row {i}: unknown category {category!r}")
            if (u, v) in annotations:
                raise SchemaError(f"{path}: duplicate annotation for {u}->{v}")
            annotations[(u, v)] = category
    return annotations


def save_network_json(
    path: Path | str,
    dag: Dag,
    strengths: Optional[ArcStrengthTable] = None,
    types: Optional[Mapping[Arc, str]] = None,
) -> None:
    payload = network_to_json(dag, strengths, types)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def load_network_json(path: Path | str) -> tuple[Dag, ArcStrengthTable]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    nodes = tuple(payload["nodes"])
    arcs = frozenset((a["from"], a["to"]) for a in payload["arcs"])
    strengths = {
        (a["from"], a["to"]): float(a.get("strength", 1.0)) for a in payload["arcs"]
    }
    return Dag(nodes, arcs), ArcStrengthTable(strengths=strengths)
