"""Selection of the subjects whose inferred glucose markers sit closest to a
tester's measured values."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, RangeError, SchemaError


@dataclass(frozen=True, slots=True)
class MarkerPoint:
    """A subject's (FPG, 2HPP) point in mg/dL, inferred or measured."""

    subject_id: str
    fpg: float
    hpp2: float
    source: str = "inferred"  # "inferred" | "measured"

    def __post_init__(self) -> None:
        if self.source not in ("inferred", "measured"):
            raise RangeError(f"source must be inferred/measured, got {self.source!r}")
        for name, value in (("fpg", self.fpg), ("hpp2", self.hpp2)):
            if not (math.isfinite(value) and value > 0):
                raise RangeError(f"subject {self.subject_id}: {name} must be finite and > 0, got {value}")


def marker_distance(a: MarkerPoint, b: MarkerPoint) -> float:
    return math.hypot(a.fpg - b.fpg, a.hpp2 - b.hpp2)


def _near(pool: Sequence[MarkerPoint], tester: MarkerPoint, m: int) -> tuple[list[int], list[float]]:
    """Indices and exact distances of the pool points that may lie within the m-th nearest distance.

    numpy and math.hypot may differ in the last bit: screen the numpy
    distances with a margin, so the survivors hold every point whose exact
    `marker_distance` is at most the m-th. A float64 subtraction is the
    Python float one, so the survivors' math.hypot of the same differences is
    `marker_distance(point, tester)` to the bit.
    """
    n = len(pool)
    # List comprehensions read the attributes faster than generators or attrgetter.
    dx = np.fromiter([p.fpg for p in pool], float, n) - tester.fpg
    dy = np.fromiter([p.hpp2 for p in pool], float, n) - tester.hpp2
    dist = np.hypot(dx, dy)
    kth = dist[np.argpartition(dist, m - 1)[m - 1]]
    kept = np.flatnonzero(dist <= kth * (1.0 + 1e-9) + 1e-9)
    return kept.tolist(), list(map(math.hypot, dx[kept].tolist(), dy[kept].tolist()))


def select_similar(pool: Sequence[MarkerPoint], tester: MarkerPoint, m: int) -> list[str]:
    """The m pool subject_ids nearest the tester, ascending by distance.

    Distances are raw-mg/dL Euclidean; ties break by subject_id.
    """
    ids = [point.subject_id for point in pool]
    if tester.subject_id in ids:
        raise SchemaError(f"tester {tester.subject_id} must not appear in the pool")
    if not 1 <= m <= len(pool):
        raise CapacityError(f"m must lie in 1..{len(pool)}, got {m}")
    # Order the screened points exactly as a full sort would.
    kept, distances = _near(pool, tester, m)
    ranked = heapq.nsmallest(m, zip(distances, map(ids.__getitem__, kept)))
    return [subject_id for _, subject_id in ranked]


def selection_log(pool: Sequence[MarkerPoint], tester: MarkerPoint, selected: Sequence[str]) -> dict:
    """The tester, each donor with its distance, and `tie_group`.

    `selected` is `select_similar`'s answer. `tie_group` counts the pool
    subjects at exactly the last donor's distance, the donor among them: any
    of them could have taken its place, and subject_id chose.
    """
    kept, screened = _near(pool, tester, len(selected))
    distance_of = {pool[i].subject_id: d for i, d in zip(kept, screened)}
    distances = [distance_of[sid] for sid in selected]
    return {
        "tester": {"subject_id": tester.subject_id, "fpg": tester.fpg, "hpp2": tester.hpp2},
        "selected": [{"subject_id": sid, "distance": d} for sid, d in zip(selected, distances)],
        "tie_group": screened.count(distances[-1]),
    }
