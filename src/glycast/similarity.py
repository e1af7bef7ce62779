"""Selection of the subjects whose inferred glucose markers sit closest to a
tester's measured values."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, RangeError, SchemaError


@dataclass(frozen=True)
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


def _near(pool: Sequence[MarkerPoint], tester: MarkerPoint, m: int):
    """The pool points that may lie within the m-th nearest distance of the tester.

    numpy and math.hypot may differ in the last bit: screen the numpy
    distances with a margin, so the survivors hold every point whose exact
    `marker_distance` is at most the m-th.
    """
    fpg = np.fromiter((p.fpg for p in pool), float, len(pool))
    hpp2 = np.fromiter((p.hpp2 for p in pool), float, len(pool))
    dist = np.hypot(fpg - tester.fpg, hpp2 - tester.hpp2)
    kth = dist[np.argpartition(dist, m - 1)[m - 1]]
    return (pool[i] for i in np.flatnonzero(dist <= kth * (1.0 + 1e-9) + 1e-9).tolist())


def select_similar(pool: Sequence[MarkerPoint], tester: MarkerPoint, m: int) -> list[str]:
    """The m pool subject_ids nearest the tester, ascending by distance.

    Distances are raw-mg/dL Euclidean; ties break by subject_id.
    """
    if any(point.subject_id == tester.subject_id for point in pool):
        raise SchemaError(f"tester {tester.subject_id} must not appear in the pool")
    if not 1 <= m <= len(pool):
        raise CapacityError(f"m must lie in 1..{len(pool)}, got {m}")
    # Order the screened points exactly as a full sort would.
    ranked = heapq.nsmallest(m, ((marker_distance(p, tester), p.subject_id) for p in _near(pool, tester, m)))
    return [subject_id for _, subject_id in ranked]


def selection_log(pool: Sequence[MarkerPoint], tester: MarkerPoint, selected: Sequence[str]) -> dict:
    """The tester, each donor with its distance, and `tie_group`.

    `selected` is `select_similar`'s answer. `tie_group` counts the pool
    subjects at exactly the last donor's distance, the donor among them: any
    of them could have taken its place, and subject_id chose.
    """
    by_id = {point.subject_id: point for point in pool}
    distances = [marker_distance(by_id[sid], tester) for sid in selected]
    return {
        "tester": {"subject_id": tester.subject_id, "fpg": tester.fpg, "hpp2": tester.hpp2},
        "selected": [{"subject_id": sid, "distance": d} for sid, d in zip(selected, distances)],
        "tie_group": sum(marker_distance(p, tester) == distances[-1] for p in _near(pool, tester, len(selected))),
    }
