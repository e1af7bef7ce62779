"""Selection of the subjects whose inferred glucose markers sit closest to a
tester's measured values.

A call reads the pool's points in one pass and screens them with numpy. The
few that may rank are then walked by *distinct* point: inferred markers are
posterior means over a handful of classes, so hundreds of subjects share each
point, and each distinct point needs only one exact distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .casts import checked, integer
from .errors import CapacityError, RangeError, SchemaError


@dataclass(frozen=True, slots=True)
class MarkerPoint:
    """A subject's (FPG, 2HPP) point in mg/dL, inferred or measured.

    `point` is the same point as the complex FPG + 2HPP·i, derived once so
    that a ranking reads the pool's coordinates in one pass. It takes no
    part in `==`, `hash` or `repr`.
    """

    subject_id: str
    fpg: float
    hpp2: float
    source: str = "inferred"  # "inferred" | "measured"
    point: complex = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.source not in ("inferred", "measured"):
            raise RangeError(f"source must be inferred/measured, got {self.source!r}")
        for name, value in (("fpg", self.fpg), ("hpp2", self.hpp2)):
            if not (math.isfinite(value) and value > 0):
                raise RangeError(f"subject {self.subject_id}: {name} must be finite and > 0, got {value}")
        object.__setattr__(self, "point", complex(self.fpg, self.hpp2))


def marker_distance(a: MarkerPoint, b: MarkerPoint) -> float:
    return math.hypot(a.fpg - b.fpg, a.hpp2 - b.hpp2)


def _ranking(pool: Sequence[MarkerPoint], tester: MarkerPoint, m) -> tuple[list[str], list[float], int]:
    """The m nearest subject_ids, the distance of each, and the size of the last one's distance group.

    One pass reads the pool's points, and numpy screens their distances with
    a margin: numpy and math.hypot may differ in the last bit, so the
    survivors hold every point whose exact `marker_distance` is at most the
    m-th. The survivors are grouped by distinct point, and each distinct
    point gets one math.hypot of its real and imaginary differences. A
    float64 subtraction is the Python float one, so that is
    `marker_distance` to the bit. The walk then takes the distances in
    ascending order, and at each one the smallest subject_ids among the
    points at it, until it holds m.
    """
    m = checked("m", m, integer)
    coords = [p.point for p in pool if p.subject_id != tester.subject_id]
    if len(coords) < len(pool):
        raise SchemaError(f"tester {tester.subject_id} must not appear in the pool")
    if not 1 <= m <= len(pool):
        raise CapacityError(f"m must lie in 1..{len(pool)}, got {m}")
    z = np.fromiter(coords, complex, len(coords))
    dist = np.abs(z - tester.point)
    kth = np.partition(dist, m - 1)[m - 1]
    kept = np.flatnonzero(dist <= kth * (1.0 + 1e-9) + 1e-9)
    # Survivors grouped by point: a complex sort is by real part, then imaginary.
    kept = kept[np.argsort(z[kept], kind="stable")]
    near = z[kept]
    ids = [pool[i].subject_id for i in kept.tolist()]
    starts = np.flatnonzero(np.concatenate(([True], near[1:] != near[:-1]))).tolist()
    members: dict[float, list[str]] = {}  # subject_ids by exact distance
    for point, start, end in zip(near[starts].tolist(), starts, starts[1:] + [len(ids)]):
        offset = point - tester.point
        members.setdefault(math.hypot(offset.real, offset.imag), []).extend(ids[start:end])
    donors: list[str] = []
    distances: list[float] = []
    for distance in sorted(members):
        group = members[distance]
        taken = sorted(group)[: m - len(donors)]
        donors += taken
        distances += [distance] * len(taken)
        if len(donors) == m:
            break
    return donors, distances, len(group)


def select_similar(pool: Sequence[MarkerPoint], tester: MarkerPoint, m: int) -> list[str]:
    """The m pool subject_ids nearest the tester, ascending by distance.

    Distances are raw-mg/dL Euclidean; ties break by subject_id. `m` is an
    int as `casts.integer` reads one (SchemaError otherwise) and lies in
    1..len(pool) (CapacityError otherwise).
    """
    return _ranking(pool, tester, m)[0]


def selection_log(pool: Sequence[MarkerPoint], tester: MarkerPoint, selected: Sequence[str]) -> dict:
    """The tester, each donor with its distance, and `tie_group`.

    `selected` must be `select_similar`'s answer for this pool and tester;
    any other list raises SchemaError. The distances and `tie_group` come
    from the same walk. `tie_group` counts the pool subjects at exactly the
    last donor's distance, the donor among them: any of them could have
    taken its place, and subject_id chose.
    """
    if not 1 <= len(selected) <= len(pool):
        raise SchemaError(
            f"tester {tester.subject_id}: {len(selected)} donors selected from a pool of {len(pool)}"
        )
    donors, distances, tie_group = _ranking(pool, tester, len(selected))
    for rank, (subject_id, donor) in enumerate(zip(selected, donors), 1):
        if subject_id != donor:
            raise SchemaError(
                f"tester {tester.subject_id}: subject {subject_id} is not donor {rank}, "
                f"select_similar chose {donor}"
            )
    return {
        "tester": {"subject_id": tester.subject_id, "fpg": tester.fpg, "hpp2": tester.hpp2},
        "selected": [{"subject_id": sid, "distance": d} for sid, d in zip(selected, distances)],
        "tie_group": tie_group,
    }
