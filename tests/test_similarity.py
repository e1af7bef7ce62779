import math
import pickle
from dataclasses import replace

import numpy as np
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

    @pytest.mark.parametrize("m", [True, 2.0, "2", None])
    def test_m_not_an_int_refused(self, m):
        # True would count as 1, and 2.0 would reach numpy's partition.
        with pytest.raises(SchemaError, match="m must be an integer"):
            select_similar(POOL, TESTER, m)

    def test_numpy_int_m_accepted(self):
        assert select_similar(POOL, TESTER, np.int64(2)) == ["A", "B"]

    def test_selection_log_shape(self):
        log = selection_log(POOL, TESTER, select_similar(POOL, TESTER, 2))
        assert log["tester"]["subject_id"] == "T"
        assert [e["subject_id"] for e in log["selected"]] == ["A", "B"]
        assert log["selected"][0]["distance"] == pytest.approx(math.sqrt(200))


class TestDerivedPoint:
    def test_left_out_of_eq_hash_and_repr(self):
        a = point("A", 100.0, 150.0)
        b = point("A", 100.0, 150.0)
        object.__setattr__(b, "point", complex(1.0, 1.0))
        assert a.point == complex(100.0, 150.0)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "MarkerPoint(subject_id='A', fpg=100.0, hpp2=150.0, source='inferred')"

    def test_survives_replace_and_pickle(self):
        a = point("A", 100.0, 150.0)
        moved = replace(a, hpp2=151.5)
        assert moved.point == complex(100.0, 151.5)
        copy = pickle.loads(pickle.dumps(moved))
        assert copy == moved and copy.point == complex(100.0, 151.5)

    def test_not_an_init_argument(self):
        with pytest.raises(TypeError):
            MarkerPoint("A", 100.0, 150.0, "inferred", complex(1.0, 1.0))
        with pytest.raises(ValueError):
            replace(point("A", 100.0, 150.0), point=complex(1.0, 1.0))


class TestSelectionLogRefusals:
    """selection_log logs select_similar's answer for that pool and tester, nothing else."""

    def test_member_beyond_the_mth_distance(self):
        with pytest.raises(SchemaError, match="subject C"):
            selection_log(POOL, TESTER, ["C"])

    def test_answer_out_of_order(self):
        with pytest.raises(SchemaError, match="subject B"):
            selection_log(POOL, TESTER, ["B", "A"])

    def test_id_not_in_pool(self):
        with pytest.raises(SchemaError, match="subject X"):
            selection_log(POOL, TESTER, ["A", "X"])

    def test_empty_and_oversized(self):
        with pytest.raises(SchemaError, match="tester T"):
            selection_log(POOL, TESTER, [])
        with pytest.raises(SchemaError, match="tester T"):
            selection_log(POOL, TESTER, ["A", "B", "C", "D"])

    def test_tie_broken_the_other_way(self):
        pool = [point("A", 113, 164), point("B", 114, 163), point("C", 107, 156)]
        with pytest.raises(SchemaError, match="subject C"):
            selection_log(pool, TESTER, ["C"])


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


class TestTwoPointsAtOneDistance:
    """Two distinct points at one exact distance, each shared by a large group.

    The offsets (3, 4) and (4, 3) from the tester give one exact distance, 5,
    so the walk must merge both points' members in subject_id order. Members
    nudged by one ulp sit at distances just off 5 and must rank apart.
    """

    @staticmethod
    def pool():
        points = []
        for i in range(240):
            dx, dy = (3.0, 4.0) if i % 2 else (4.0, 3.0)
            fpg, hpp2 = 200.0 + dx, 150.0 + dy
            if i % 11 == 0:
                fpg = nudge(fpg, 1 if i % 4 else -1)
            points.append(point(f"S{(i * 97) % 240:03d}", fpg, hpp2))
        for i in range(20):
            points.append(point(f"F{i:02d}", 212.0, 159.0))  # distance 15
        return points

    def test_matches_full_sort_and_brute_force_ties(self):
        pool = self.pool()
        tester = point("T", 200.0, 150.0, source="measured")
        at_five = [p for p in pool if marker_distance(p, tester) == 5.0]
        assert len({p.point for p in at_five}) == 2
        assert min(sum(p.point == z for p in at_five) for z in {p.point for p in at_five}) >= 100
        reference = TestPartialSelection().sorted_reference
        below_five = sum(marker_distance(p, tester) < 5.0 for p in pool)
        assert below_five > 0
        for m in range(1, below_five + len(at_five) + 3):
            selected = select_similar(pool, tester, m)
            assert selected == reference(pool, tester, m)
            last = marker_distance(next(p for p in pool if p.subject_id == selected[-1]), tester)
            log = selection_log(pool, tester, selected)
            assert log["tie_group"] == sum(marker_distance(p, tester) == last for p in pool)
            assert [e["distance"] for e in log["selected"]] == [
                marker_distance(next(p for p in pool if p.subject_id == sid), tester) for sid in selected
            ]
