import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glycast.errors import CapacityError, RangeError, SchemaError
from glycast.similarity import MarkerPoint, marker_distance, select_similar, selection_log


def point(sid, fpg, hpp2, source="inferred"):
    return MarkerPoint(subject_id=sid, fpg=fpg, hpp2=hpp2, source=source)


POOL = [point("A", 100, 150), point("B", 120, 200), point("C", 300, 400)]
TESTER = point("T", 110, 160, source="measured")


class TestSelectSimilar:
    def test_spec_example(self):
        assert select_similar(POOL, TESTER, 2) == ["A", "B"]
        assert marker_distance(POOL[0], TESTER) == pytest.approx(math.sqrt(200))  # 14.142...
        assert marker_distance(POOL[1], TESTER) == pytest.approx(math.sqrt(1700))  # 41.231...

    def test_zero_distance_first(self):
        pool = POOL + [point("Z", 110, 160)]
        assert select_similar(pool, TESTER, 1) == ["Z"]

    def test_m_equals_pool(self):
        assert select_similar(POOL, TESTER, 3) == ["A", "B", "C"]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            select_similar(POOL, TESTER, 4)
        with pytest.raises(CapacityError):
            select_similar(POOL, TESTER, 0)

    def test_tester_in_pool_rejected(self):
        with pytest.raises(SchemaError):
            select_similar(POOL + [point("T", 99, 99)], TESTER, 1)

    def test_tie_broken_by_subject_id(self):
        pool = [point("B", 100, 150), point("A", 100, 150)]
        assert select_similar(pool, TESTER, 2) == ["A", "B"]

    def test_invalid_marker(self):
        with pytest.raises(RangeError):
            point("X", -5, 100)
        with pytest.raises(RangeError):
            point("X", float("nan"), 100)

    def test_selection_log_shape(self):
        log = selection_log(POOL, TESTER, select_similar(POOL, TESTER, 2))
        assert log["tester"]["subject_id"] == "T"
        assert [e["subject_id"] for e in log["selected"]] == ["A", "B"]
        assert log["selected"][0]["distance"] == pytest.approx(math.sqrt(200))


# Integer-valued coordinates keep distances and translations exact in floats,
# so order comparisons cannot flip on rounding noise.
coords = st.integers(min_value=30, max_value=600).map(float)


@st.composite
def pools(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    return [point(f"S{i}", draw(coords), draw(coords)) for i in range(n)]


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(pools(), coords, coords, st.integers(min_value=-20, max_value=20).map(float))
    def test_translation_invariance(self, pool, fx, fy, shift):
        tester = point("T", fx, fy, source="measured")
        m = len(pool)
        base = select_similar(pool, tester, m)
        moved_pool = [point(p.subject_id, p.fpg + shift, p.hpp2 + shift) for p in pool]
        moved_tester = point("T", fx + shift, fy + shift, source="measured")
        assert select_similar(moved_pool, moved_tester, m) == base

    @settings(max_examples=40, deadline=None)
    @given(pools(), coords, coords)
    def test_prefix_monotonicity_and_ordering(self, pool, fx, fy):
        tester = point("T", fx, fy, source="measured")
        previous = []
        for m in range(1, len(pool) + 1):
            selected = select_similar(pool, tester, m)
            assert len(selected) == m
            assert selected[: len(previous)] == previous
            previous = selected
        by_id = {p.subject_id: p for p in pool}
        distances = [marker_distance(by_id[s], tester) for s in previous]
        assert distances == sorted(distances)


def nudge(value: float, ulps: int) -> float:
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, step)
    return value


# Offsets on the 3-4-5 and 5-12-13 triangles give exact distance ties; the
# ulp nudges give near-ties decided in the last bits of the distance.
tie_offsets = st.sampled_from([(3, 4), (4, 3), (-3, 4), (5, 0), (0, -5), (5, 12), (-12, 5), (13, 0)])


@st.composite
def tied_pools(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    ids = draw(st.permutations([f"S{i:02d}" for i in range(n)]))
    pool = []
    for sid in ids:
        dx, dy = draw(tie_offsets)
        pool.append(
            point(
                sid,
                nudge(200.0 + dx, draw(st.integers(-2, 2))),
                nudge(150.0 + dy, draw(st.integers(-2, 2))),
            )
        )
    return pool


class TestPartialSelection:
    def sorted_reference(self, pool, tester, m):
        ranked = sorted(pool, key=lambda p: (marker_distance(p, tester), p.subject_id))
        return [p.subject_id for p in ranked[:m]]

    def test_exact_and_one_ulp_ties(self):
        tester = point("T", 200.0, 150.0, source="measured")
        pool = [
            point("E", 203.0, 154.0),
            point("D", 204.0, 153.0),
            point("C", 197.0, 146.0),
            point("B", 203.0, math.nextafter(154.0, math.inf)),
            point("A", math.nextafter(204.0, 0.0), 153.0),
            point("F", 205.0, 150.0),
        ]
        for m in range(1, len(pool) + 1):
            assert select_similar(pool, tester, m) == self.sorted_reference(pool, tester, m)

    @settings(max_examples=200, deadline=None)
    @given(tied_pools(), st.integers(-1, 1), st.integers(-1, 1), st.data())
    def test_matches_full_sort(self, pool, ux, uy, data):
        tester = point("T", nudge(200.0, ux), nudge(150.0, uy), source="measured")
        m = data.draw(st.integers(min_value=1, max_value=len(pool)))
        assert select_similar(pool, tester, m) == self.sorted_reference(pool, tester, m)


class TestTieGroup:
    def test_spec_example(self):
        pool = [point("A", 113, 164), point("B", 114, 163), point("C", 107, 156), point("D", 100, 150)]
        log = selection_log(pool, TESTER, select_similar(pool, TESTER, 2))
        assert [e["subject_id"] for e in log["selected"]] == ["A", "B"]
        assert log["tie_group"] == 3  # A, B and C all sit at distance 5

    def test_no_tie(self):
        assert selection_log(POOL, TESTER, select_similar(POOL, TESTER, 2))["tie_group"] == 1

    @settings(max_examples=200, deadline=None)
    @given(tied_pools(), st.integers(-1, 1), st.integers(-1, 1), st.data())
    def test_matches_brute_force_count(self, pool, ux, uy, data):
        tester = point("T", nudge(200.0, ux), nudge(150.0, uy), source="measured")
        m = data.draw(st.integers(min_value=1, max_value=len(pool)))
        selected = select_similar(pool, tester, m)
        last = marker_distance(next(p for p in pool if p.subject_id == selected[-1]), tester)
        expected = sum(1 for p in pool if marker_distance(p, tester) == last)
        assert selection_log(pool, tester, selected)["tie_group"] == expected


class TestLargeTieGroups:
    """Leave-one-out over a pool with few distinct points, as inferred markers are.

    Inferred markers are posterior means over a handful of classes, so a
    cohort's points take few distinct values and hundreds of subjects tie at
    the nearest distance.
    """

    @staticmethod
    def cohort():
        corners = [(120.0, 180.0), (123.0, 184.0), (95.0, 140.0), (150.0, 230.0)]
        points = []
        for i in range(301):
            fpg, hpp2 = corners[i % 4]
            if i % 7 == 0:
                fpg = nudge(fpg, 1 if i % 2 else -1)
            points.append(point(f"S{(i * 37) % 301:03d}", fpg, hpp2))
        return points

    def test_leave_one_out_matches_full_sort_and_brute_force_ties(self):
        points = self.cohort()
        reference = TestPartialSelection().sorted_reference
        largest = 0
        for k, held_out in enumerate(points):
            pool = points[:k] + points[k + 1:]
            tester = point(held_out.subject_id, held_out.fpg, held_out.hpp2, source="measured")
            for m in (1, 2, 150) if k % 50 == 0 else (2,):
                selected = select_similar(pool, tester, m)
                assert selected == reference(pool, tester, m)
                last = marker_distance(next(p for p in pool if p.subject_id == selected[-1]), tester)
                expected = sum(marker_distance(p, tester) == last for p in pool)
                assert selection_log(pool, tester, selected)["tie_group"] == expected
                largest = max(largest, expected)
        assert largest > 50  # the nearest distance is tied across a large group

    def test_tester_in_pool_refused_at_either_end(self):
        points = self.cohort()
        tester = point(points[0].subject_id, 100.0, 150.0, source="measured")
        with pytest.raises(SchemaError):
            select_similar(points, tester, 2)
        with pytest.raises(SchemaError):
            select_similar(points[1:] + points[:1], tester, 2)
