import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _support import (
    nearest_segment_oracle,
    packed_index,
    polyline_set,
    sat_margin_oracle,
    scene0,
)
from vecplan.errors import GeometryError
from vecplan.geometry import (
    BoxFrame,
    Checked,
    Point2,
    PolylineSet,
    angular_difference,
    box_frame,
    checked,
    closest_point_on_segment,
    closest_polyline,
    closest_polyline_within,
    oriented_rect_margin,
    oriented_rect_overlap,
    point_polyline_distance,
    pose_track,
    rect_corners,
    swept_box_frame,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def P(x, y):
    return Point2(float(x), float(y))


def _set(*pls) -> PolylineSet:
    """The one-scene PolylineSet of polylines given as point lists."""
    return polyline_set(pls)


def _rows(xy) -> PolylineSet:
    """The one-scene PolylineSet of every row of an (M, P, 2) array."""
    xy = np.asarray(xy, dtype=np.float64)
    return PolylineSet.of_scenes(xy[None], np.ones((1,) + xy.shape[:1], dtype=bool))


class TestPoint2:
    def test_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            Point2(float("nan"), 0.0)
        with pytest.raises(GeometryError):
            Point2(0.0, float("inf"))

    def test_unpacks(self):
        x, y = P(1, 2)
        assert (x, y) == (1.0, 2.0)
        assert (P(1, 2).x, P(1, 2).y) == (1.0, 2.0)
        # a plain 2-vector to every kernel
        assert np.asarray(P(1, 2)).tolist() == [1.0, 2.0]


class TestPolyline:
    """A polyline is a row of points of a PolylineSet, checked when the set
    is made."""

    def test_needs_two_points(self):
        with pytest.raises(GeometryError):
            _rows([[P(0, 0)]])

    def test_two_point_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            _rows([[P(1, 1), P(1, 1)]])

    def test_longer_polyline_may_repeat_points(self):
        pls = _rows([[P(0, 0), P(0, 0), P(1, 0)]])
        assert (len(pls), pls.live.tolist()) == (1, [[[False, True]]])

    def test_xy_matches_points(self):
        pls = _rows([[P(0, 1), (2, 3)]])
        assert pls.start.dtype == np.float64
        assert pls.start.tolist() == [[[[0, 1]]]]
        assert pls.end.tolist() == [[[[2, 3]]]]

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],  # bad shape
            [0.0, 1.0],
            [[[0.0, 1.0]], [[2.0, 3.0]]],
            [],
            [[0.0, 1.0]],  # fewer than 2 points
            [[2.0, -1.0], [2.0, -1.0]],  # degenerate two-point line
            [[0.0, math.nan], [1.0, 1.0]],  # non-finite point
            [[0.0, 0.0], [1.0, 1.0], [math.inf, 1.0]],
            [[0.0, 0.0], [-math.inf, 1.0]],
        ],
    )
    def test_malformed_points_rejected(self, points):
        with pytest.raises(GeometryError):
            PolylineSet.of_scenes([[points]], [[True]])

    def test_xy_is_a_read_only_copy(self):
        points = np.array([[[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]]])
        pls = PolylineSet.of_scenes(points, [[True]])
        with pytest.raises(ValueError):
            pls.start[0, 0, 0, 0] = 9.0
        points[0, 0, 0, 0] = 9.0
        assert not np.shares_memory(pls.start, points)
        assert pls.start.tolist() == [[[[0.0, 1.0], [2.0, 3.0]]]]


def _feet(p, *points):
    """Foot points on, and distances to, every segment of the polyline
    through `points`, from one query point p: a one-row query to
    `closest_point_on_segment`."""
    q = np.array([p], dtype=np.float64)
    foot = closest_point_on_segment(q, _set(points))[0, 0]
    return foot, np.hypot(q[0, 0] - foot[:, 0], q[0, 1] - foot[:, 1])


class TestPointSegmentDistance:
    def test_perpendicular_foot_inside_segment(self):
        assert _feet(P(0, 1), P(-1, 0), P(1, 0))[1] == pytest.approx([1.0])

    def test_nearest_endpoint(self):
        assert _feet(P(3, 0), P(-1, 0), P(1, 0))[1] == pytest.approx([2.0])

    def test_degenerate_segment_falls_back_to_point_distance(self):
        # segment 0 of the polyline is the degenerate [(0, 0), (0, 0)]: its
        # foot is its one point, at the hand-evaluated distance sqrt(8)
        foot, d = _feet(P(2, 2), P(0, 0), P(0, 0), P(1, 0))
        assert foot[0].tolist() == [0.0, 0.0]
        assert d[0] == pytest.approx(2.8284271247461903, abs=1e-12)

    @given(finite, finite, finite, finite, finite, finite)
    def test_symmetric_in_endpoints(self, px, py, ax, ay, bx, by):
        assume((ax, ay) != (bx, by))
        # segments [a, b] and [b, a] of one polyline
        _, d = _feet(P(px, py), P(ax, ay), P(bx, by), P(ax, ay))
        assert d[0] == pytest.approx(d[1], abs=1e-9)

    @given(finite, finite, finite, finite, finite, finite)
    def test_never_exceeds_endpoint_distance(self, px, py, ax, ay, bx, by):
        assume((ax, ay) != (bx, by))
        _, d = _feet(P(px, py), P(ax, ay), P(bx, by), P(ax, ay))
        assert (d <= math.hypot(px - ax, py - ay) + 1e-9).all()
        assert (d <= math.hypot(px - bx, py - by) + 1e-9).all()

    def test_closest_point_on_segment_interior(self):
        foot, _ = _feet(P(0.25, 5.0), P(-1, 0), P(1, 0))
        assert foot[0].tolist() == pytest.approx([0.25, 0.0])


class TestPointPolylineDistance:
    def test_single_segment(self):
        d, i, foot = point_polyline_distance([P(0, 0)], _set([P(1, -1), P(1, 1)]))
        assert d.tolist() == [[1.0]]
        assert i.tolist() == [[0]]
        assert foot.tolist() == [[[1.0, 0.0]]]

    def test_two_segment_hand_check(self):
        # segment 0 at distance 3, segment 1 at distance 1
        d, i, _ = point_polyline_distance([P(0, 3)], _set([P(-1, 0), P(0, 0), P(0, 2)]))
        assert d.tolist() == [[1.0]]
        assert i.tolist() == [[1]]

    def test_point_on_shared_vertex_ties_to_first_incident_segment(self):
        d, i, _ = point_polyline_distance([P(0, 0)], _set([P(-1, 0), P(0, 0), P(0, 2)]))
        assert d.tolist() == [[0.0]]
        assert i.tolist() == [[0]]

    def test_degenerate_segments_skipped(self):
        d, i, _ = point_polyline_distance([P(5, 7)], _set([P(5, 5), P(5, 5), P(5, 6)]))
        assert d.tolist() == [[1.0]]
        assert i.tolist() == [[1]]

    def test_all_degenerate_is_an_error(self):
        with pytest.raises(GeometryError):
            point_polyline_distance([P(0, 0)], _set([P(5, 5), P(5, 5), P(5, 5)]))
        with pytest.raises(GeometryError):
            point_polyline_distance([P(0, 0)], _set())


class TestAngularDifference:
    def test_identical_direction(self):
        assert angular_difference([P(0, 1)], [P(0, 1)]).tolist() == [0.0]

    def test_orthogonal(self):
        assert angular_difference([P(0, 1)], [P(1, 0)]) == pytest.approx([math.pi / 2])

    def test_opposite(self):
        assert angular_difference([P(0, 1)], [P(0, -1)]) == pytest.approx([math.pi])

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            angular_difference([P(0, 0)], [P(1, 0)])

    @given(finite, finite, finite, finite)
    def test_symmetric(self, ax, ay, bx, by):
        if math.hypot(ax, ay) < 1e-6 or math.hypot(bx, by) < 1e-6:
            return
        assert angular_difference([P(ax, ay)], [P(bx, by)]) == pytest.approx(
            angular_difference([P(bx, by)], [P(ax, ay)]), abs=1e-12
        )

    @given(finite, finite, finite, finite, st.floats(min_value=0.01, max_value=50.0))
    def test_invariant_to_positive_scaling(self, ax, ay, bx, by, s):
        if math.hypot(ax, ay) < 1e-3 or math.hypot(bx, by) < 1e-3:
            return
        # acos amplifies dot-product rounding near 0 and pi, hence 1e-6
        base = angular_difference([P(ax, ay)], [P(bx, by)])
        assert angular_difference([P(ax * s, ay * s)], [P(bx, by)]) == pytest.approx(
            base, abs=1e-6
        )
        assert angular_difference([P(ax, ay)], [P(bx * s, by * s)]) == pytest.approx(
            base, abs=1e-6
        )

    def test_zero_iff_parallel_same_sign(self):
        got = angular_difference([P(2, 3), P(2, 3)], [P(4, 6), P(-2, -3)])
        assert got == pytest.approx([0.0, math.pi], abs=1e-9)


class TestClosestPolylineWithin:
    def test_single_divider_in_range(self):
        hit = closest_polyline_within([P(0, 0)], _set([P(1, -5), P(1, 5)]), 2.0)
        assert (hit.poly.tolist(), hit.dist.tolist(), hit.index.tolist()) == ([[0]], [[1.0]], [[0]])

    def test_outside_range_returns_none(self):
        pls = _set([P(3, -5), P(3, 5)])
        # beyond the range a query gets no polyline, but its distance, segment
        # and foot still describe the nearest segment
        hit = closest_polyline_within([P(0, 0)], pls, 2.0)
        assert (hit.poly.tolist(), hit.dist.tolist(), hit.found.tolist()) == (
            [[-1]], [[3.0]], [[False]])
        assert (hit.index.tolist(), hit.foot.tolist()) == ([[0]], [[[3.0, 0.0]]])
        assert closest_polyline_within([P(0, 0)], _set(), 2.0) is None
        # without a range the same polyline is the nearest; none of none is
        hit = closest_polyline([P(0, 0)], pls)
        assert (hit.poly.tolist(), hit.dist.tolist(), hit.index.tolist()) == ([[0]], [[3.0]], [[0]])
        assert closest_polyline([P(0, 0)], _set()) is None

    def test_picks_nearest_of_two(self):
        pls = _set([P(1, -5), P(1, 5)], [P(-0.5, -5), P(-0.5, 5)])
        hit = closest_polyline_within([P(0, 0)], pls, 2.0)
        assert hit.poly.tolist() == [[1]]
        assert hit.dist.tolist() == [[0.5]]

    def test_tie_breaks_to_lowest_index(self):
        pls = [[P(1, -5), P(1, 5)], [P(-1, -5), P(-1, 5)]]
        assert closest_polyline_within([P(0, 0)], _set(*pls), 2.0).poly.tolist() == [[0]]
        assert closest_polyline([P(0, 0)], _set(*pls)).poly.tolist() == [[0]]
        # a farther polyline before the tied pair does not shift the winner
        assert closest_polyline([P(0, 0)], _set([P(3, -5), P(3, 5)], *pls)).poly.tolist() == [[1]]

    def test_nonpositive_range_rejected(self):
        with pytest.raises(GeometryError):
            closest_polyline_within([P(0, 0)], _set([P(0, 0), P(1, 0)]), 0.0)

    @pytest.mark.parametrize("within", [float("nan"), float("inf"), -1.0])
    def test_non_finite_range_rejected(self, within):
        with pytest.raises(GeometryError, match="positive and finite"):
            closest_polyline_within([P(0, 0)], _set([P(0, 0), P(1, 0)]), within)

    def test_matches_brute_force_on_random_scenes(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n_pl = int(rng.integers(1, 11))
            pls = []
            for _ in range(n_pl):
                n_pts = int(rng.integers(2, 21))
                pts = rng.uniform(-20, 20, size=(n_pts, 2))
                if n_pts == 2 and np.allclose(pts[0], pts[1]):
                    pts[1] += 1.0
                pls.append(pts)
            p = rng.uniform(-25, 25, size=2)
            rng_range = float(rng.uniform(0.5, 30.0))

            # exhaustive oracle over every segment of every polyline
            best, best_d, best_seg, _ = nearest_segment_oracle(p, pls)
            nearest = scene0(closest_polyline(p[None], polyline_set(pls)))
            assert (nearest.poly[0], nearest.index[0]) == (best, packed_index(pls, best, best_seg))
            assert nearest.dist[0] == pytest.approx(best_d, abs=1e-12)

            got = scene0(closest_polyline_within(p[None], polyline_set(pls), rng_range))
            assert got.index[0] == packed_index(pls, best, best_seg)
            if best_d > rng_range:
                assert (got.poly[0], got.found[0]) == (-1, False)
            else:
                assert got.poly[0] == best
                assert got.dist[0] == pytest.approx(best_d, abs=1e-12)


def _random_polylines(rng, n_pl):
    """Random polylines, some with repeated points (degenerate segments)."""
    pls = []
    for _ in range(n_pl):
        pts = rng.uniform(-20, 20, size=(int(rng.integers(2, 12)), 2))
        if len(pts) > 2 and rng.random() < 0.5:
            k = int(rng.integers(0, len(pts)))
            pts = np.insert(pts, k, pts[k], axis=0)
        pls.append(pts)
    return pls


class TestPolylineSet:
    def test_empty_set_finds_nothing(self):
        empty = _set()
        assert len(empty) == 0 and not empty
        for queries in (np.array([[0.0, 0.0], [1.0, 2.0]]), [P(0, 0)], np.empty((0, 2))):
            assert closest_polyline(queries, empty) is None
            assert closest_polyline_within(queries, empty, 2.0) is None
            with pytest.raises(GeometryError):
                point_polyline_distance(queries, empty)

    def test_search_matches_the_list_it_packs(self):
        rng = np.random.default_rng(3)
        pls = [rng.uniform(-10, 10, size=(int(n), 2)) for n in (2, 5, 9)]
        packed = polyline_set(pls)
        assert len(packed) == 3
        queries = rng.uniform(-12, 12, size=(16, 2))
        # the packed search is the search of each polyline alone, the first
        # of the nearest ones winning
        alone = [point_polyline_distance(queries, _set(pl)) for pl in pls]
        dist = np.array([d[0] for d, _, _ in alone])
        poly = np.argmin(dist, axis=0)
        rows = np.arange(len(queries))
        hit = scene0(closest_polyline(queries, packed))
        assert hit.poly.tolist() == poly.tolist()
        assert hit.dist.tolist() == dist[poly, rows].tolist()
        # each polyline's segments are 8 to the set, the longest one's count
        assert hit.index.tolist() == [8 * k + alone[k][1][0, j] for j, k in enumerate(poly)]
        assert hit.foot.tolist() == [alone[k][2][0, j].tolist() for j, k in enumerate(poly)]
        within = scene0(closest_polyline_within(queries, packed, 3.0))
        assert within.poly.tolist() == np.where(hit.dist <= 3.0, hit.poly, -1).tolist()
        # each polyline's row: its own segments, then the degenerate ones
        # that pad it to the longest
        rows = closest_point_on_segment(queries, packed).reshape(len(queries), 3, 8, 2)
        for k, pl in enumerate(pls):
            own = closest_point_on_segment(queries, _set(pl))[0]
            assert np.array_equal(rows[:, k, :len(pl) - 1], own)
            assert (rows[:, k, len(pl) - 1:] == pl[-1]).all()
        assert np.array_equal(packed.poly, np.repeat(np.arange(3), 8))

    def test_arrays_are_read_only(self):
        packed = _set([P(0, 0), P(1, 0), P(1, 1)])
        for name in ("start", "end", "step", "step_sq", "live", "poly"):
            with pytest.raises(ValueError):
                getattr(packed, name)[...] = 0

    def test_polyline_without_live_segment_rejected(self):
        with pytest.raises(GeometryError, match="non-degenerate"):
            _set([P(0, 0), P(1, 0)], [P(1, 1), P(1, 1), P(1, 1)])

    def test_rows_are_the_set_of_their_polylines(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(-10, 10, size=(3, 5, 2))
        rows[1, 2] = rows[1, 1]  # a degenerate segment inside a row
        packed = _rows(rows)
        # each row's segments in order, row after row
        start, end = rows[:, :-1].reshape(-1, 2), rows[:, 1:].reshape(-1, 2)
        step = end - start
        seg_sq = step[:, 0] * step[:, 0] + step[:, 1] * step[:, 1]
        want = {
            "start": start, "end": end, "step": step, "sx": start[:, 0], "sy": start[:, 1],
            "dx": step[:, 0], "dy": step[:, 1], "step_sq": np.where(seg_sq == 0.0, 1.0, seg_sq),
            "live": (start != end).any(axis=1), "poly": np.repeat(np.arange(3), 4),
        }
        for name, value in want.items():
            got = getattr(packed, name)
            assert got.tobytes() == np.ascontiguousarray(value, dtype=got.dtype).tobytes(), name
        assert packed.live.reshape(-1).tolist().count(False) == 1
        assert (len(packed), packed.all_live) == (3, False)
        assert packed.step_sq.shape == packed.live.shape == (1, 1, 12)
        assert len(_rows(np.zeros((0, 0, 2)))) == 0

    @pytest.mark.parametrize(
        "rows, match",
        [
            (np.array([[[0, 0], [np.nan, 1], [0, 2]]]), "non-finite"),
            (np.array([[[0.0, 0.0], [0.0, 1.0]], [[2.0, 2.0], [2.0, 2.0]]]), "non-degenerate"),
            (np.zeros((2, 1, 2)), "at least 2 points"),
            (np.zeros((4, 2)), "shape"),
            (np.zeros((2, 3, 3)), "shape"),
        ],
    )
    def test_bad_rows_rejected(self, rows, match):
        # the chain trusts a set's arrays, so a row is checked where it enters
        with pytest.raises(GeometryError, match=match):
            _rows(rows)


def _scene_rows(rng, scenes: int, rows: int, points: int):
    """(B, M, P, 2) random polylines, a random number of them real in each
    scene, and the (B, M) mask of those; padding rows are all zeros."""
    xy = rng.integers(-4, 5, size=(scenes, rows, points, 2)).astype(np.float64)
    xy[:, :, 1] += 0.5  # every row has a live first segment
    real = np.arange(rows) < rng.integers(0, rows + 1, size=(scenes, 1))
    xy[~real] = 0.0
    return xy, real


class TestPolylineSetOfScenes:
    """A set with a scene axis searches each scene's rows as a set of its own."""

    def test_each_scene_searches_its_own_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            scenes, rows, points = (int(n) for n in rng.integers(1, 5, size=3) + (0, 0, 1))
            xy, real = _scene_rows(rng, scenes, rows, points)
            queries = rng.integers(-5, 6, size=(scenes, int(rng.integers(0, 7)), 2)) * 1.0
            packed = PolylineSet.of_scenes(xy, real)
            assert len(packed) == int(real.sum())
            if not packed:
                assert closest_polyline(queries, packed) is None
                continue
            feet = closest_point_on_segment(queries, packed)
            hit = closest_polyline(queries, packed)
            assert hit.dist.shape == hit.poly.shape == queries.shape[:2]
            for b in range(scenes):
                if not real[b].any():
                    # padding only: never a hit, however near
                    assert np.isinf(hit.dist[b]).all()
                    continue
                alone = _rows(xy[b][real[b]])
                one = scene0(closest_polyline(queries[b], alone))
                # the scene's own segments come first in its row of the set
                own = closest_point_on_segment(queries[b], alone)[0]
                assert feet[b, :, :own.shape[1]].tobytes() == own.tobytes()
                for name in ("dist", "foot", "start", "end"):
                    assert getattr(hit, name)[b].tobytes() == getattr(one, name).tobytes(), name
                assert (hit.poly[b] - b * rows).tolist() == one.poly.tolist()
                assert (hit.index[b] - b * rows * (points - 1)).tolist() == one.index.tolist()

    def test_one_query_array_searches_every_scene(self):
        # a (K, 2) array is the same query in every scene: each field equals
        # that of the (B, K, 2) array that repeats it
        rng = np.random.default_rng(9)
        for _ in range(40):
            scenes, rows, points = (int(n) for n in rng.integers(1, 5, size=3) + (0, 0, 1))
            xy, real = _scene_rows(rng, scenes, rows, points)
            packed = PolylineSet.of_scenes(xy, real)
            queries = rng.uniform(-5, 5, size=(int(rng.integers(0, 7)), 2))
            each = np.broadcast_to(queries, (scenes,) + queries.shape)
            assert closest_point_on_segment(queries, packed).tobytes() == \
                closest_point_on_segment(each, packed).tobytes()
            if not packed:
                assert closest_polyline_within(queries, packed, 1.0) is None
                continue
            one = closest_polyline_within(queries, packed, 1.0)
            want = closest_polyline_within(each, packed, 1.0)
            for name in ("index", "dist", "foot", "found", "poly", "start", "end"):
                got = getattr(one, name)
                assert got.shape == getattr(want, name).shape, name
                assert got.tobytes() == getattr(want, name).tobytes(), name
            for got, want in zip(point_polyline_distance(queries, packed),
                                 point_polyline_distance(each, packed)):
                assert got.tobytes() == want.tobytes()

    def test_padding_never_wins_a_tie(self):
        # scene 0's only polyline and its padding row pass through the query
        xy = np.zeros((2, 2, 2, 2))
        xy[0, 0] = [[0.0, -1.0], [0.0, 1.0]]
        xy[1, 0] = [[5.0, -1.0], [5.0, 1.0]]
        real = np.array([[True, False], [True, False]])
        hit = closest_polyline(np.zeros((2, 1, 2)), PolylineSet.of_scenes(xy, real))
        assert hit.dist.tolist() == [[0.0], [5.0]]
        assert hit.poly.tolist() == [[0], [2]] and hit.index.tolist() == [[0], [2]]

    def test_bad_scene_rows_rejected(self):
        xy, real = np.zeros((1, 2, 3, 2)), np.array([[True, False]])
        xy[0, 0, 1] = 1.0
        assert len(PolylineSet.of_scenes(xy, real)) == 1
        live_padding = xy.copy()
        live_padding[0, 1, 1] = 1.0
        with pytest.raises(GeometryError, match="padding"):
            PolylineSet.of_scenes(live_padding, real)
        with pytest.raises(GeometryError, match="non-degenerate"):
            PolylineSet.of_scenes(xy, np.array([[True, True]]))
        with pytest.raises(GeometryError, match="shape"):
            PolylineSet.of_scenes(xy, np.array([True, False]))
        with pytest.raises(GeometryError, match="non-finite"):
            PolylineSet.of_scenes(np.full((1, 1, 2, 2), np.inf), np.array([[True]]))
        # a query array per scene, or one (K, 2) array for every scene
        for bad in (np.zeros(2), np.zeros((1, 1, 1, 2)), np.zeros((1, 3))):
            with pytest.raises(GeometryError, match="shape"):
                closest_polyline(bad, PolylineSet.of_scenes(xy, real))

    @pytest.mark.parametrize("scenes", [1, 3])
    @pytest.mark.parametrize("call", [
        lambda q, pls: closest_point_on_segment(q, pls),
        lambda q, pls: point_polyline_distance(q, pls),
        lambda q, pls: closest_polyline(q, pls),
        lambda q, pls: closest_polyline_within(q, pls, 2.0),
    ])
    def test_query_of_another_scene_count_rejected(self, scenes, call):
        # a (B', K, 2) query must have one row per scene of the set: a
        # GeometryError where it enters, not numpy's IndexError or ValueError
        xy = np.zeros((scenes, 1, 2, 2))
        xy[:, 0, 1] = 1.0
        packed = PolylineSet.of_scenes(xy, np.ones((scenes, 1), dtype=bool))
        with pytest.raises(GeometryError, match=f"queries of 2 scenes for a set of {scenes}"):
            call(np.zeros((2, 1, 2)), packed)
        assert call(np.zeros((scenes, 1, 2)), packed) is not None


class TestArrayChain:
    """The batched nearest-polyline chain against a brute-force scalar loop."""

    def check_against_oracle(self, queries, pls, within=None):
        if within is None:
            hit = scene0(closest_polyline(queries, polyline_set(pls)))
        else:
            hit = scene0(closest_polyline_within(queries, polyline_set(pls), within))
        assert hit.poly.shape == hit.dist.shape == hit.index.shape == (len(queries),)
        assert hit.foot.shape == hit.start.shape == hit.end.shape == (len(queries), 2)
        for k, q in enumerate(queries):
            poly, d, seg, foot = nearest_segment_oracle(q, pls)
            assert hit.dist[k] == pytest.approx(d, rel=1e-12, abs=1e-12)
            assert hit.index[k] == packed_index(pls, poly, seg)
            if within is not None and d > within:
                assert (hit.poly[k], hit.found[k]) == (-1, False)
                continue
            assert hit.poly[k] == poly
            assert tuple(hit.foot[k]) == foot
            xy = pls[poly]
            np.testing.assert_array_equal(hit.start[k], xy[seg])
            np.testing.assert_array_equal(hit.end[k], xy[seg + 1])

    def test_matches_oracle_on_random_polylines(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            pls = _random_polylines(rng, int(rng.integers(1, 6)))
            queries = rng.uniform(-25, 25, size=(int(rng.integers(0, 9)), 2))
            self.check_against_oracle(queries, pls)
            self.check_against_oracle(queries, pls, within=float(rng.uniform(0.5, 15.0)))
            for pl in pls:
                dist, seg, foot = (a[0] for a in point_polyline_distance(queries, _set(pl)))
                for j, q in enumerate(queries):
                    _, d, s, f = nearest_segment_oracle(q, [pl])
                    assert (seg[j], tuple(foot[j])) == (s, f)
                    assert dist[j] == pytest.approx(d, rel=1e-12, abs=1e-12)

    def test_query_on_shared_vertex_ties_to_first_segment(self):
        pls = [np.array([P(-1, 0), P(0, 0), P(0, 2)])]
        queries = np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        hit = closest_polyline(queries, polyline_set(pls))
        assert hit.dist.tolist() == [[0.0, 0.0, 0.0]]
        assert hit.index.tolist() == [[0, 0, 1]]
        self.check_against_oracle(queries, pls)

    def test_exact_tie_between_polylines_goes_to_lowest(self):
        pls = [
            np.array([P(3, -5), P(3, 5)]),
            np.array([P(1, -5), P(1, 5)]),
            np.array([P(-1, -5), P(-1, 5)]),
        ]
        queries = np.array([[0.0, 0.0], [0.0, 4.0], [2.0, 1.0]])
        hit = closest_polyline(queries, polyline_set(pls))
        assert hit.poly.tolist() == [[1, 1, 0]]
        assert hit.dist.tolist() == [[1.0, 1.0, 1.0]]
        self.check_against_oracle(queries, pls)

    def test_degenerate_segments_are_skipped(self):
        pls = [np.array([P(5, 5), P(5, 5), P(5, 6), P(5, 6), P(6, 6)])]
        queries = np.array([[5.0, 4.0], [5.0, 7.0], [7.0, 6.0]])
        hit = closest_polyline(queries, polyline_set(pls))
        assert hit.index.tolist() == [[1, 1, 3]]
        self.check_against_oracle(queries, pls)
        with pytest.raises(GeometryError):
            polyline_set(pls + [np.array([P(0, 0), P(0, 0), P(0, 0)])])

    def test_zero_and_one_queries(self):
        pls = _set([P(1, -5), P(1, 5)], [P(-0.5, -5), P(-0.5, 5)])
        empty = closest_polyline(np.empty((0, 2)), pls)
        fields = ("poly", "dist", "index", "foot", "start", "end")
        shapes = [getattr(empty, f).shape for f in fields]
        assert shapes == [(1, 0), (1, 0), (1, 0), (1, 0, 2), (1, 0, 2), (1, 0, 2)]
        assert closest_polyline_within(np.empty((0, 2)), pls, 1.0).poly.shape == (1, 0)
        one = closest_polyline(np.array([[0.0, 0.0]]), pls)
        assert (one.poly.tolist(), one.dist.tolist(), one.index.tolist()) == ([[1]], [[0.5]], [[1]])
        assert closest_polyline(np.empty((0, 2)), _set()) is None
        # a lone 2-vector is not a (K, 2) array of queries
        for lone in (P(0, 0), (0.0, 0.0), np.zeros(2)):
            with pytest.raises(GeometryError, match="shape"):
                closest_polyline(lone, pls)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_raises(self, bad):
        pls = _set([P(1, -5), P(1, 5)])
        queries = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(GeometryError):
            closest_point_on_segment(queries, pls)
        with pytest.raises(GeometryError):
            point_polyline_distance(queries, pls)
        with pytest.raises(GeometryError):
            closest_polyline(queries, pls)
        with pytest.raises(GeometryError):
            closest_polyline_within(queries, pls, 2.0)
        with pytest.raises(GeometryError):
            angular_difference(queries, np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 0.0], [math.nan, 1.0]]),
        np.array([[math.inf, 0.0]]),
        np.zeros((2, 3)),
        np.zeros(2),
        np.zeros((1, 1, 2, 2)),
    ])
    @pytest.mark.parametrize("call", [
        lambda q, pls: closest_point_on_segment(q, pls),
        lambda q, pls: point_polyline_distance(q, pls),
        lambda q, pls: closest_polyline(q, pls),
        lambda q, pls: closest_polyline_within(q, pls, 2.0),
        lambda q, pls: angular_difference(q, np.ones((len(q), 2))),
        lambda q, pls: angular_difference(np.ones((len(q), 2)), q),
    ])
    def test_caller_input_is_still_checked(self, call, bad):
        # the chain hands its own checked queries down as Checked; a caller's
        # bare array is checked at every public entry
        with pytest.raises(GeometryError):
            call(bad, _set([P(1, -5), P(1, 5)]))

    def test_checked_arrays_pass_as_they_are(self):
        xy = np.ones((3, 2))
        assert checked(Checked(xy)) is xy
        assert checked(xy) is xy
        tracks = np.zeros((2, 3, 2))
        assert checked(tracks, ndim=3) is tracks
        with pytest.raises(GeometryError, match="shape"):
            checked(tracks)
        with pytest.raises(GeometryError, match="non-finite track"):
            checked(np.full((1, 3, 2), math.nan), "track point", ndim=3)

    def test_angular_difference_rows_match_single_vectors(self):
        rng = np.random.default_rng(5)
        v1, v2 = rng.uniform(-3, 3, size=(2, 20, 2))
        got = angular_difference(v1, v2)
        assert got.shape == (20,)
        assert got.tolist() == [angular_difference([a], [b])[0] for a, b in zip(v1, v2)]
        with pytest.raises(GeometryError):
            angular_difference(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))
        with pytest.raises(GeometryError, match="shape"):
            angular_difference(v1[0], v2[0])


def _margin(c1, h1, d1, c2, h2, d2):
    """`oriented_rect_margin` of the frames of two (center, heading, dims) triples."""
    return oriented_rect_margin(box_frame(c1, h1, d1), box_frame(c2, h2, d2))


def _overlap(c1, h1, d1, c2, h2, d2) -> bool:
    """`oriented_rect_overlap` of the frames of two (center, heading, dims) triples."""
    return oriented_rect_overlap(box_frame(c1, h1, d1), box_frame(c2, h2, d2))


def _point_in_rect(points: np.ndarray, center: Point2, heading: float, dims) -> np.ndarray:
    """Membership test used only by the Monte-Carlo oracle."""
    u = np.array([math.cos(heading), math.sin(heading)])
    n = np.array([-math.sin(heading), math.cos(heading)])
    rel = points - np.array([center.x, center.y])
    return (np.abs(rel @ u) <= dims[0] / 2 + 1e-12) & (np.abs(rel @ n) <= dims[1] / 2 + 1e-12)


class TestOrientedRectOverlap:
    def test_identical_rectangles(self):
        assert _overlap(P(0, 0), 0.3, (2, 1), P(0, 0), 0.3, (2, 1))

    def test_far_apart(self):
        assert not _overlap(P(0, 0), 0.0, (2, 1), P(10, 0), 0.0, (2, 1))

    def test_half_lengths_sum_exceeds_center_gap(self):
        # 2x1 rects, heading 0 puts the length axis on x: half-lengths sum to
        # 2.0 > 1.5, all other axes overlap too
        assert _overlap(P(0, 0), 0.0, (2, 1), P(1.5, 0), 0.0, (2, 1))

    def test_touching_edges_count_as_overlap(self):
        assert _overlap(P(0, 0), 0.0, (2, 1), P(2.0, 0), 0.0, (2, 1))

    def test_rejects_non_positive_dims(self):
        with pytest.raises(GeometryError):
            _overlap(P(0, 0), 0.0, (0, 1), P(1, 0), 0.0, (2, 1))

    def test_overlap_sweeps_box_arrays(self):
        far = (10.0, 0.0)
        near = (1.5, 0.0)
        none = np.empty((0, 2))
        assert not _overlap(P(0, 0), 0.0, (2, 1), none, [], none)
        assert not _overlap(P(0, 0), 0.0, (2, 1), [far], [0.0], [(2, 1)])
        assert _overlap(P(0, 0), 0.0, (2, 1), [far, near], [0.0, 0.0], (2, 1))
        # an invalid box anywhere raises, before or after a hit
        for boxes in ([far, near, near], [far, near, far], [near, far, far]):
            for bad in range(3):
                dims = np.full((3, 2), 1.0)
                dims[bad, 0] = 0.0
                with pytest.raises(GeometryError):
                    _overlap(P(0, 0), 0.0, (2, 1), boxes, [0.0] * 3, dims)

    def test_rect_corners_axis_aligned(self):
        corners = rect_corners(P(1, 2), math.pi / 2, (4.0, 2.0))
        # heading +y: length along y, width along x
        got = sorted(map(tuple, corners.tolist()))
        expected = [(0.0, 0.0), (0.0, 4.0), (2.0, 0.0), (2.0, 4.0)]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_agrees_with_monte_carlo_oracle(self):
        rng = np.random.default_rng(11)
        n_samples = 10_000
        checked = 0
        for _ in range(200):
            c1 = P(*rng.uniform(-3, 3, size=2))
            c2 = P(*rng.uniform(-3, 3, size=2))
            h1, h2 = rng.uniform(0, 2 * math.pi, size=2)
            d1 = tuple(rng.uniform(0.5, 4.0, size=2))
            d2 = tuple(rng.uniform(0.5, 4.0, size=2))

            got = _overlap(c1, h1, d1, c2, h2, d2)

            # sample uniformly inside rect 1, test membership in rect 2
            local = rng.uniform(-0.5, 0.5, size=(n_samples, 2)) * np.array(d1)
            u = np.array([math.cos(h1), math.sin(h1)])
            n = np.array([-math.sin(h1), math.cos(h1)])
            world = np.array([c1.x, c1.y]) + local[:, :1] * u + local[:, 1:] * n
            mc_hit = bool(_point_in_rect(world, c2, h2, d2).any())

            if mc_hit:
                # a common point was exhibited, so the rects truly intersect
                assert got, "SAT missed an intersection the sampler found"
            elif got:
                # SAT says overlap but sampling missed it: only acceptable
                # within one sample-resolution margin of tangency
                margin = _margin(c1, h1, d1, c2, h2, d2)
                resolution = 2.0 * math.sqrt(d1[0] * d1[1] / n_samples)
                assert margin <= resolution, (
                    f"sampler missed a non-tangent overlap (margin {margin:.4f})"
                )
            checked += 1
        assert checked == 200


def _random_boxes(rng, shape):
    """Centers, headings and dims of random boxes, with some axis-aligned and
    some shared headings so that exact zeros reach the projections."""
    centers = rng.uniform(-4.0, 4.0, size=shape + (2,))
    headings = rng.uniform(-7.0, 7.0, size=shape)
    special = rng.uniform(size=shape) < 0.3
    headings[special] = rng.choice(
        [0.0, math.pi / 2, math.pi, -math.pi / 2, 0.3], size=special.sum()
    )
    dims = rng.uniform(0.2, 5.0, size=shape + (2,))
    return centers, headings, dims


def _broadcast_source(idx, shape):
    """The index into an array of `shape` that broadcasting reads at `idx`."""
    tail = idx[len(idx) - len(shape):]
    return tuple(0 if n == 1 else k for k, n in zip(tail, shape))


class TestSeparatingAxisKernel:
    """`oriented_rect_margin` against the scalar per-pair formula, bit for bit."""

    def test_bit_equal_to_scalar_oracle_on_random_pairs(self):
        rng = np.random.default_rng(5)
        c1, h1, d1 = _random_boxes(rng, (3000,))
        c2, h2, d2 = _random_boxes(rng, (3000,))
        h2[:500] = h1[:500]  # parallel boxes
        got = _margin(c1, h1, d1, c2, h2, d2)
        assert got.shape == (3000,)
        want = [sat_margin_oracle(c1[i], h1[i], d1[i], c2[i], h2[i], d2[i]) for i in range(3000)]
        assert got.tolist() == want
        # exactly symmetric in the two rectangles
        assert _margin(c2, h2, d2, c1, h1, d1).tolist() == want

    @pytest.mark.parametrize(
        "shape1, shape2",
        [((7,), (5, 7)), ((4, 1), (1, 6)), ((), (9,)), ((3, 1, 2), (5, 1)), ((6,), (6,))],
    )
    def test_broadcast_shapes_match_pairwise_oracle(self, shape1, shape2):
        rng = np.random.default_rng(len(shape1) * 10 + len(shape2))
        c1, h1, d1 = _random_boxes(rng, shape1)
        c2, h2, d2 = _random_boxes(rng, shape2)
        got = _margin(c1, h1, d1, c2, h2, d2)
        shape = np.broadcast_shapes(shape1, shape2)
        assert np.shape(got) == shape
        for idx in np.ndindex(shape):
            i1, i2 = _broadcast_source(idx, shape1), _broadcast_source(idx, shape2)
            want = sat_margin_oracle(c1[i1], h1[i1], d1[i1], c2[i2], h2[i2], d2[i2])
            assert np.asarray(got)[idx] == want
        assert _overlap(c1, h1, d1, c2, h2, d2) == bool((np.asarray(got) >= 0).any())

    def test_dims_broadcast_per_row(self):
        rng = np.random.default_rng(2)
        c1, h1, _ = _random_boxes(rng, (7,))
        c2, h2, d2 = _random_boxes(rng, (4, 7))
        rows = d2[:, :1, :]
        got = _margin(c1, h1, (4.5, 1.9), c2, h2, rows)
        want = _margin(
            c1, h1, np.broadcast_to([4.5, 1.9], (7, 2)), c2, h2, np.broadcast_to(rows, (4, 7, 2))
        )
        assert got.tolist() == want.tolist()

    def test_scalar_inputs_give_a_float(self):
        got = _margin(P(0.5, -1), 0.4, (3.0, 1.5), (2.0, 0.5), 1.1, [2.0, 1.0])
        assert isinstance(got, float)
        assert got == sat_margin_oracle((0.5, -1.0), 0.4, (3.0, 1.5), (2.0, 0.5), 1.1, (2.0, 1.0))
        assert type(_overlap(P(0, 0), 0.0, (2, 1), P(0, 0), 0.0, (2, 1))) is bool

    def test_zero_pairs(self):
        boxes = (np.zeros((3, 2)), np.zeros(3), (2, 1))
        none = (np.zeros((0, 3, 2)), np.zeros((0, 3)), np.ones((0, 1, 2)))
        assert _margin(*boxes, *none).shape == (0, 3)
        assert _overlap(*boxes, *none) is False

    def test_touching_and_identical_boxes(self):
        # edges touching exactly: margin 0, which counts as overlap
        assert _margin(P(0, 0), 0.0, (2, 1), P(2, 0), 0.0, (2, 1)) == 0.0
        assert _margin(P(0, 0), 0.0, (2, 1), P(0, 1), 0.0, (2, 1)) == 0.0
        assert _overlap(P(0, 0), 0.0, (2, 1), [(2.0, 0.0), (0.0, 1.0)], 0.0, (2, 1))
        # identical boxes reach across their narrower extent
        for heading in (0.0, 0.7, math.pi / 2):
            got = _margin(P(1, 2), heading, (4, 1), P(1, 2), heading, (4, 1))
            assert got == sat_margin_oracle((1, 2), heading, (4, 1), (1, 2), heading, (4, 1))
            assert got == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "which, value",
        [
            ("dims", (0.0, 1.0)),
            ("dims", (2.0, -1.0)),
            ("dims", (math.inf, 1.0)),
            ("dims", (2.0, math.nan)),
            ("center", (math.nan, 0.0)),
            ("center", (0.0, math.inf)),
            ("heading", math.inf),
            ("heading", math.nan),
        ],
    )
    def test_invalid_box_anywhere_raises(self, which, value):
        centers, headings, dims = np.zeros((4, 2)), np.zeros(4), np.ones((4, 2))
        target = {"center": centers, "heading": headings, "dims": dims}[which]
        target[2] = value
        with pytest.raises(GeometryError):
            _margin(P(0, 0), 0.0, (2, 1), centers, headings, dims)
        with pytest.raises(GeometryError):
            _overlap(centers, headings, dims, P(50, 50), 0.0, (2, 1))

    def test_rejects_bad_shapes(self):
        with pytest.raises(GeometryError):
            _margin(np.zeros((3, 3)), np.zeros(3), (2, 1), P(0, 0), 0.0, (2, 1))
        with pytest.raises(GeometryError):
            _margin(P(0, 0), 0.0, (2, 1, 1), P(0, 0), 0.0, (2, 1))


def _sat_says(c1, h1, d1, c2, h2, d2) -> bool:
    """The separating-axis test's own answer, with no circle bound."""
    return bool((np.asarray(_margin(c1, h1, d1, c2, h2, d2)) >= 0.0).any())


def _touching_pairs(rng, n, bound, offset=0.0):
    """Pairs of boxes whose centers lie the sum of their inscribed
    (`bound="inner"`) or circumscribed (`"outer"`) radii apart, then 1 to 4
    ulp nearer or further.

    Headings are random, axis-aligned or shared; one pair in four is thin
    (1:100).  Most pairs are placed where that distance also makes the boxes
    touch (along the shared width axis for inscribed radii, along the
    diagonal of similar boxes for circumscribed ones), so the separating-axis
    margin is 0 up to rounding; the rest lie in a random direction.  Centers
    are shifted by up to `offset` meters.
    """
    pairs = []
    for k in range(n):
        length = rng.uniform(0.5, 6.0)
        width = length / 100.0 if k % 4 == 0 else rng.uniform(0.2, 1.0) * length
        d1 = np.array([length, width])
        scale = rng.uniform(0.3, 3.0)
        # similar boxes for circumscribed radii; for inscribed ones, boxes
        # whose narrower side is the width
        d2 = d1 * scale if bound == "outer" else width * scale * np.array([rng.uniform(1.0, 8.0), 1.0])
        h1 = [rng.uniform(-7.0, 7.0), 0.0, math.pi / 2, math.pi, -math.pi / 2][k % 5]
        h2 = h1 + (math.pi if k % 3 == 0 else 0.0)
        half1, half2 = 0.5 * d1, 0.5 * d2
        if bound == "inner":
            dist = min(half1) + min(half2)
            direction = h1 + math.pi / 2
        else:
            dist = math.hypot(*half1) + math.hypot(*half2)
            direction = h1 + math.atan2(half1[1], half1[0])
        if k % 7 == 6:
            direction, h2 = rng.uniform(-math.pi, math.pi), rng.uniform(-7.0, 7.0)
        c1 = rng.uniform(-offset, offset, size=2) + rng.uniform(-5.0, 5.0, size=2)
        for ulps in range(-4, 5):
            gap = dist
            for _ in range(abs(ulps)):
                gap = np.nextafter(gap, math.copysign(math.inf, ulps))
            c2 = c1 + gap * np.array([math.cos(direction), math.sin(direction)])
            pairs.append((c1, h1, d1, c2, h2, d2))
    return pairs


class TestCircleBoundPrefilter:
    """`oriented_rect_overlap` decides a call by circle bounds where it can;
    every answer must equal the separating-axis test's."""

    def test_random_families_match_the_separating_axis_test(self):
        rng = np.random.default_rng(31)
        c1, h1, d1 = _random_boxes(rng, (3000,))
        c2, h2, d2 = _random_boxes(rng, (3000,))
        h2[:500] = h1[:500]  # parallel boxes
        got = [_overlap(c1[i], h1[i], d1[i], c2[i], h2[i], d2[i]) for i in range(3000)]
        assert got == (_margin(c1, h1, d1, c2, h2, d2) >= 0.0).tolist()
        # both bounds decide some of these pairs
        f1, f2 = box_frame(c1, h1, d1), box_frame(c2, h2, d2)
        gap = np.hypot(f2.x - f1.x, f2.y - f1.y)
        assert (gap < f1.inner + f2.inner).sum() > 100
        assert (gap > f1.outer + f2.outer).sum() > 100
        # broadcast sets, one call each
        for shape1, shape2 in [((7,), (5, 7)), ((4, 1), (1, 6)), ((), (9,)), ((3, 1, 2), (5, 1))]:
            for _ in range(20):
                boxes = (*_random_boxes(rng, shape1), *_random_boxes(rng, shape2))
                assert _overlap(*boxes) == _sat_says(*boxes)

    @pytest.mark.parametrize("bound", ["inner", "outer"])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_touching_radius_sums_match_the_separating_axis_test(self, bound, offset):
        rng = np.random.default_rng(40 + len(bound) + int(offset) % 97)
        for pair in _touching_pairs(rng, 300, bound, offset):
            assert _overlap(*pair) == _sat_says(*pair), pair

    def test_thin_axis_aligned_and_parallel_boxes(self):
        rng = np.random.default_rng(33)
        for _ in range(400):
            length = rng.uniform(1.0, 50.0)
            d1, d2 = (length, length / 100.0), (rng.uniform(0.01, 50.0), rng.uniform(0.01, 0.5))
            h1 = float(rng.choice([0.0, math.pi / 2, math.pi, 1.1]))
            h2 = h1 + float(rng.choice([0.0, math.pi, math.pi / 2]))
            c1 = rng.uniform(-1e6, 1e6, size=2)
            c2 = c1 + rng.uniform(-1.2, 1.2, size=2) * (length / 2.0 + 1.0)
            assert _overlap(c1, h1, d1, c2, h2, d2) == _sat_says(c1, h1, d1, c2, h2, d2)

    def test_ready_made_frames_give_the_raw_triples_margins(self):
        rng = np.random.default_rng(34)
        c1, h1, d1 = _random_boxes(rng, (7,))
        c2, h2, d2 = _random_boxes(rng, (5, 7))
        # frames of the second set kept row by row in a buffer, as the
        # generator keeps them, and read back through a view of its rows
        rows = BoxFrame.empty((8, 7))
        for i in range(5):
            rows.put(i, box_frame(c2[i], h2[i], d2[i]))
        for f1 in (box_frame(c1, h1, d1), box_frame(c1, h1, (4.5, 1.9))):
            d = d1 if f1.half.ndim == 2 else (4.5, 1.9)
            want = _margin(c1, h1, d, c2, h2, d2)
            assert oriented_rect_margin(f1, rows.head(5)).tolist() == want.tolist()
            assert oriented_rect_margin(rows.head(5), f1).tolist() == want.tolist()
            assert oriented_rect_overlap(f1, rows.head(5)) == bool((want >= 0.0).any())
        # two frames, never one or six raw box arguments
        with pytest.raises(TypeError):
            oriented_rect_overlap(box_frame(c1, h1, d1))
        with pytest.raises(TypeError):
            oriented_rect_margin(c1, h1, d1, c2, h2, d2)

    def test_swept_frame_is_the_frame_of_the_pose_track(self):
        rng = np.random.default_rng(35)
        for trial in range(50):
            track = rng.uniform(-30.0, 30.0, size=(int(rng.integers(0, 8)), 2))
            start = tuple(rng.uniform(-30.0, 30.0, size=2).tolist())
            if trial % 3 == 0 and len(track):
                track[0] = start  # a zero first step keeps the start heading
            heading, dims = float(rng.uniform(-4.0, 4.0)), tuple(rng.uniform(0.5, 5.0, size=2))
            swept = swept_box_frame(track, P(*start), heading, dims)
            poses = pose_track(np.concatenate(([start], track)), start, heading)
            plain = box_frame(poses.xy, poses.heading, dims)
            assert all(np.array_equal(a, b) for a, b in zip(swept, plain))

    @pytest.mark.parametrize(
        "track, start, heading, dims",
        [
            ([[1.0, math.nan]], (0.0, 0.0), 0.0, (2.0, 1.0)),
            ([[1.0, 0.0, 0.0]], (0.0, 0.0), 0.0, (2.0, 1.0)),
            ([[1.0, 0.0]], (math.inf, 0.0), 0.0, (2.0, 1.0)),
            ([[1.0, 0.0]], (0.0, 0.0, 0.0), 0.0, (2.0, 1.0)),
            ([[1.0, 0.0]], (0.0, 0.0), math.nan, (2.0, 1.0)),
            ([[1.0, 0.0]], (0.0, 0.0), 0.0, (0.0, 1.0)),
            ([[1.0, 0.0]], (0.0, 0.0), 0.0, (2.0, math.inf)),
            ([[1.0, 0.0]], (0.0, 0.0), 0.0, (2.0, 1.0, 1.0)),
        ],
    )
    def test_swept_frame_rejects_bad_input(self, track, start, heading, dims):
        with pytest.raises(GeometryError):
            swept_box_frame(track, start, heading, dims)


def _scalar_headings(track, start, heading):
    """Reference pose-track headings: one `math.atan2` per non-zero step."""
    out, (last_x, last_y) = [], start
    for x, y in track:
        if x != last_x or y != last_y:
            heading = math.atan2(y - last_y, x - last_x)
        out.append(heading)
        last_x, last_y = x, y
    return out


def _scalar_corners(center, heading, dims):
    """Reference rectangle corners, written out per corner and coordinate."""
    ux, uy = math.cos(heading), math.sin(heading)
    nx, ny = uy, -ux
    hl, hw = 0.5 * dims[0], 0.5 * dims[1]
    cx, cy = center
    return [
        [cx + hl * ux - hw * nx, cy + hl * uy - hw * ny],
        [cx + hl * ux + hw * nx, cy + hl * uy + hw * ny],
        [cx - hl * ux + hw * nx, cy - hl * uy + hw * ny],
        [cx - hl * ux - hw * nx, cy - hl * uy - hw * ny],
    ]


class TestPoseTrack:
    def test_headings_bit_equal_to_scalar_atan2_loop(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            t = int(rng.integers(1, 12))
            start = tuple(rng.uniform(-30, 30, size=2).tolist())
            track = rng.uniform(-30, 30, size=(t, 2))
            # repeat points to make zero-length steps; every third trial the
            # first step has zero length, so the start heading carries over
            stay = rng.uniform(size=t) < 0.4
            for k in range(1, t):
                if stay[k]:
                    track[k] = track[k - 1]
            if trial % 3 == 0:
                track[0] = start
            heading = float(rng.uniform(-math.pi, math.pi))
            poses = pose_track(track, start, heading)
            assert poses.xy.tolist() == track.tolist()
            assert poses.heading.tolist() == _scalar_headings(track.tolist(), start, heading)
            assert pose_track(track, P(*start), heading).heading.tolist() == (
                poses.heading.tolist()
            )

    def test_all_zero_steps_keep_the_start_heading(self):
        poses = pose_track(np.full((4, 2), 2.0), (2.0, 2.0), 0.7)
        assert poses.heading.tolist() == [0.7] * 4
        assert pose_track(np.empty((0, 2)), (0.0, 0.0), 0.7).heading.shape == (0,)

    def test_non_finite_track_raises(self):
        with pytest.raises(GeometryError):
            pose_track(np.array([[0.0, math.nan]]), (0.0, 0.0), 0.0)
        with pytest.raises(GeometryError):
            pose_track(np.array([[[0.0, math.inf]]]), (0.0, 0.0), 0.0)
        with pytest.raises(GeometryError, match="axes"):
            pose_track(np.zeros(2), (0.0, 0.0), 0.0)

    @given(
        lead=st.lists(st.integers(0, 3), max_size=2),
        ticks=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_many_tracks_bit_equal_to_one_track_at_a_time(self, lead, ticks, seed):
        # small integer grids make zero-length steps, repeated points and
        # steps back to the start common
        rng = np.random.default_rng(seed)
        lead = tuple(lead)
        track = rng.integers(-2, 3, size=lead + (ticks, 2)).astype(np.float64) * 0.5
        start = rng.integers(-2, 3, size=lead + (2,)).astype(np.float64) * 0.5
        heading = rng.uniform(-math.pi, math.pi, size=lead)
        poses = pose_track(track, start, heading)
        assert poses.xy.shape == track.shape and poses.heading.shape == lead + (ticks,)
        for i in np.ndindex(*lead):
            want = _scalar_headings(track[i].tolist(), tuple(start[i]), float(heading[i]))
            assert poses.heading[i].tolist() == want
            # the same bits as the call for that one track
            assert pose_track(track[i], start[i], heading[i]).heading.tobytes() == (
                poses.heading[i].tobytes()
            )

    def test_start_and_heading_broadcast_over_the_tracks(self):
        track = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
        poses = pose_track(track, (0.0, 0.0), 0.5)
        assert poses.heading.tolist() == [[0.5, math.pi / 2], [0.0, 0.0]]


class TestRectCornersBroadcast:
    def test_bit_equal_to_scalar_formula(self):
        rng = np.random.default_rng(22)
        xy = rng.uniform(-50, 50, size=(7, 5, 2))
        heading = rng.uniform(-2 * math.pi, 2 * math.pi, size=(7, 5))
        dims = rng.uniform(0.5, 6.0, size=(7, 5, 2))
        got = rect_corners(xy, heading, dims)
        assert got.shape == (7, 5, 4, 2)
        for i in range(7):
            for j in range(5):
                want = _scalar_corners(xy[i, j].tolist(), float(heading[i, j]), dims[i, j])
                assert got[i, j].tolist() == want
        # shared dims broadcast over every box, and one box gives (4, 2)
        shared = rect_corners(xy[0], heading[0], (4.0, 1.85))
        assert shared.tolist() == [
            _scalar_corners(c.tolist(), float(h), (4.0, 1.85)) for c, h in zip(xy[0], heading[0])
        ]
        one = rect_corners(P(*xy[0, 0]), float(heading[0, 0]), (4.0, 1.85))
        assert one.tolist() == shared[0].tolist()

    @pytest.mark.parametrize(
        "center, heading, dims",
        [
            ([[0.0, 0.0]], [0.0], [[0.0, 1.0]]),
            ([[0.0, 0.0]], [math.inf], (2.0, 1.0)),
            ([[math.nan, 0.0]], [0.0], (2.0, 1.0)),
            ([[0.0, 0.0, 0.0]], [0.0], (2.0, 1.0)),
        ],
    )
    def test_invalid_boxes_raise(self, center, heading, dims):
        with pytest.raises(GeometryError):
            rect_corners(center, heading, dims)
