import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import nearest_segment_oracle, sat_margin_oracle
from vecplan.errors import GeometryError
from vecplan.geometry import (
    Point2,
    Polyline,
    angular_difference,
    closest_point_on_segment,
    closest_polyline,
    closest_polyline_within,
    oriented_rect_margin,
    oriented_rect_overlap,
    point_polyline_distance,
    point_segment_distance,
    rect_corners,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def P(x, y):
    return Point2(float(x), float(y))


class TestPoint2:
    def test_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            Point2(float("nan"), 0.0)
        with pytest.raises(GeometryError):
            Point2(0.0, float("inf"))

    def test_unpacks(self):
        x, y = P(1, 2)
        assert (x, y) == (1.0, 2.0)


class TestPolyline:
    def test_needs_two_points(self):
        with pytest.raises(GeometryError):
            Polyline([P(0, 0)])

    def test_two_point_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Polyline([P(1, 1), P(1, 1)])

    def test_longer_polyline_may_repeat_points(self):
        pl = Polyline([P(0, 0), P(0, 0), P(1, 0)])
        assert pl.segment_count == 2

    def test_xy_matches_points(self):
        pl = Polyline([P(0, 1), P(2, 3)])
        np.testing.assert_array_equal(pl.xy(), [[0, 1], [2, 3]])


class TestPointSegmentDistance:
    def test_perpendicular_foot_inside_segment(self):
        assert point_segment_distance(P(0, 1), P(-1, 0), P(1, 0)) == pytest.approx(1.0)

    def test_nearest_endpoint(self):
        assert point_segment_distance(P(3, 0), P(-1, 0), P(1, 0)) == pytest.approx(2.0)

    def test_degenerate_segment_falls_back_to_point_distance(self):
        # hand evaluation of sqrt(8)
        d = point_segment_distance(P(2, 2), P(0, 0), P(0, 0))
        assert d == pytest.approx(2.8284271247461903, abs=1e-12)

    @given(finite, finite, finite, finite, finite, finite)
    def test_symmetric_in_endpoints(self, px, py, ax, ay, bx, by):
        p, a, b = P(px, py), P(ax, ay), P(bx, by)
        assert point_segment_distance(p, a, b) == pytest.approx(
            point_segment_distance(p, b, a), abs=1e-9
        )

    @given(finite, finite, finite, finite, finite, finite)
    def test_never_exceeds_endpoint_distance(self, px, py, ax, ay, bx, by):
        p, a, b = P(px, py), P(ax, ay), P(bx, by)
        d = point_segment_distance(p, a, b)
        assert d <= math.hypot(px - ax, py - ay) + 1e-9
        assert d <= math.hypot(px - bx, py - by) + 1e-9

    def test_closest_point_on_segment_interior(self):
        c = closest_point_on_segment(P(0.25, 5.0), P(-1, 0), P(1, 0))
        assert (c.x, c.y) == pytest.approx((0.25, 0.0))


class TestPointPolylineDistance:
    def test_single_segment(self):
        d, i = point_polyline_distance(P(0, 0), Polyline([P(1, -1), P(1, 1)]))
        assert d == pytest.approx(1.0)
        assert i == 0

    def test_two_segment_hand_check(self):
        # segment 0 at distance 3, segment 1 at distance 1
        d, i = point_polyline_distance(P(0, 3), Polyline([P(-1, 0), P(0, 0), P(0, 2)]))
        assert d == pytest.approx(1.0)
        assert i == 1

    def test_point_on_shared_vertex_ties_to_first_incident_segment(self):
        pl = Polyline([P(-1, 0), P(0, 0), P(0, 2)])
        d, i = point_polyline_distance(P(0, 0), pl)
        assert d == 0.0
        assert i == 0

    def test_degenerate_segments_skipped(self):
        pl = Polyline([P(5, 5), P(5, 5), P(5, 6)])
        d, i = point_polyline_distance(P(5, 7), pl)
        assert d == pytest.approx(1.0)
        assert i == 1

    def test_all_degenerate_is_an_error(self):
        pl = Polyline([P(5, 5), P(5, 5), P(5, 5)])
        with pytest.raises(GeometryError):
            point_polyline_distance(P(0, 0), pl)


class TestAngularDifference:
    def test_identical_direction(self):
        assert angular_difference(P(0, 1), P(0, 1)) == 0.0

    def test_orthogonal(self):
        assert angular_difference(P(0, 1), P(1, 0)) == pytest.approx(math.pi / 2)

    def test_opposite(self):
        assert angular_difference(P(0, 1), P(0, -1)) == pytest.approx(math.pi)

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            angular_difference(P(0, 0), P(1, 0))

    @given(finite, finite, finite, finite)
    def test_symmetric(self, ax, ay, bx, by):
        if math.hypot(ax, ay) < 1e-6 or math.hypot(bx, by) < 1e-6:
            return
        assert angular_difference(P(ax, ay), P(bx, by)) == pytest.approx(
            angular_difference(P(bx, by), P(ax, ay)), abs=1e-12
        )

    @given(finite, finite, finite, finite, st.floats(min_value=0.01, max_value=50.0))
    def test_invariant_to_positive_scaling(self, ax, ay, bx, by, s):
        if math.hypot(ax, ay) < 1e-3 or math.hypot(bx, by) < 1e-3:
            return
        # acos amplifies dot-product rounding near 0 and pi, hence 1e-6
        base = angular_difference(P(ax, ay), P(bx, by))
        assert angular_difference(P(ax * s, ay * s), P(bx, by)) == pytest.approx(base, abs=1e-6)
        assert angular_difference(P(ax, ay), P(bx * s, by * s)) == pytest.approx(base, abs=1e-6)

    def test_zero_iff_parallel_same_sign(self):
        assert angular_difference(P(2, 3), P(4, 6)) == pytest.approx(0.0, abs=1e-9)
        assert angular_difference(P(2, 3), P(-2, -3)) == pytest.approx(math.pi, abs=1e-9)


class TestClosestPolylineWithin:
    def test_single_divider_in_range(self):
        pls = [Polyline([P(1, -5), P(1, 5)])]
        assert closest_polyline_within(P(0, 0), pls, 2.0) == (0, pytest.approx(1.0), 0)

    def test_outside_range_returns_none(self):
        pls = [Polyline([P(3, -5), P(3, 5)])]
        assert closest_polyline_within(P(0, 0), pls, 2.0) is None
        assert closest_polyline_within(P(0, 0), [], 2.0) is None
        # without a range the same polyline is the nearest; none of none is
        assert closest_polyline(P(0, 0), pls) == (0, pytest.approx(3.0), 0)
        assert closest_polyline(P(0, 0), []) is None

    def test_picks_nearest_of_two(self):
        pls = [Polyline([P(1, -5), P(1, 5)]), Polyline([P(-0.5, -5), P(-0.5, 5)])]
        idx, d, _seg = closest_polyline_within(P(0, 0), pls, 2.0)
        assert idx == 1
        assert d == pytest.approx(0.5)

    def test_tie_breaks_to_lowest_index(self):
        pls = [Polyline([P(1, -5), P(1, 5)]), Polyline([P(-1, -5), P(-1, 5)])]
        idx, d, _seg = closest_polyline_within(P(0, 0), pls, 2.0)
        assert idx == 0
        assert closest_polyline(P(0, 0), pls)[0] == 0
        # a farther polyline before the tied pair does not shift the winner
        pls = [Polyline([P(3, -5), P(3, 5)])] + pls
        assert closest_polyline(P(0, 0), pls)[0] == 1

    def test_nonpositive_range_rejected(self):
        with pytest.raises(GeometryError):
            closest_polyline_within(P(0, 0), [Polyline([P(0, 0), P(1, 0)])], 0.0)

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
                pls.append(Polyline([P(*q) for q in pts]))
            p = P(*rng.uniform(-25, 25, size=2))
            rng_range = float(rng.uniform(0.5, 30.0))

            # exhaustive oracle over every segment of every polyline
            best = None
            for i, pl in enumerate(pls):
                for s in range(pl.segment_count):
                    a, b = pl.points[s], pl.points[s + 1]
                    if a == b:
                        continue
                    d = point_segment_distance(p, a, b)
                    if best is None or d < best[1]:
                        best = (i, d)
            nearest = closest_polyline(p, pls)
            assert nearest[0] == best[0]
            assert nearest[1] == pytest.approx(best[1], abs=1e-12)
            expected = best if best[1] <= rng_range else None

            got = closest_polyline_within(p, pls, rng_range)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == expected[0]
                assert got[1] == pytest.approx(expected[1], abs=1e-12)


def _random_polylines(rng, n_pl):
    """Random polylines, some with repeated points (degenerate segments)."""
    pls = []
    for _ in range(n_pl):
        pts = rng.uniform(-20, 20, size=(int(rng.integers(2, 12)), 2))
        if len(pts) > 2 and rng.random() < 0.5:
            k = int(rng.integers(0, len(pts)))
            pts = np.insert(pts, k, pts[k], axis=0)
        pls.append(Polyline(pts))
    return pls


class TestArrayChain:
    """The batched nearest-polyline chain against a brute-force scalar loop."""

    def check_against_oracle(self, queries, pls, within=None):
        if within is None:
            hit = closest_polyline(queries, pls)
        else:
            hit = closest_polyline_within(queries, pls, within)
        assert hit.poly.shape == hit.dist.shape == hit.seg.shape == (len(queries),)
        assert hit.foot.shape == hit.start.shape == hit.end.shape == (len(queries), 2)
        for k, q in enumerate(queries):
            poly, d, seg, foot = nearest_segment_oracle(q, pls)
            assert hit.dist[k] == pytest.approx(d, rel=1e-12, abs=1e-12)
            if within is not None and d > within:
                assert (hit.poly[k], hit.seg[k]) == (-1, -1)
                continue
            assert (hit.poly[k], hit.seg[k]) == (poly, seg)
            assert tuple(hit.foot[k]) == foot
            xy = pls[poly].xy()
            np.testing.assert_array_equal(hit.start[k], xy[seg])
            np.testing.assert_array_equal(hit.end[k], xy[seg + 1])
            # the single-point form is row k of the array form
            single = closest_polyline(P(*q), pls)
            assert single == (int(hit.poly[k]), float(hit.dist[k]), int(hit.seg[k]))

    def test_matches_oracle_on_random_polylines(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            pls = _random_polylines(rng, int(rng.integers(1, 6)))
            queries = rng.uniform(-25, 25, size=(int(rng.integers(0, 9)), 2))
            self.check_against_oracle(queries, pls)
            self.check_against_oracle(queries, pls, within=float(rng.uniform(0.5, 15.0)))
            for pl in pls:
                dist, seg, foot = point_polyline_distance(queries, pl)
                for j, q in enumerate(queries):
                    _, d, s, f = nearest_segment_oracle(q, [pl])
                    assert (seg[j], tuple(foot[j])) == (s, f)
                    assert dist[j] == pytest.approx(d, rel=1e-12, abs=1e-12)

    def test_query_on_shared_vertex_ties_to_first_segment(self):
        pls = [Polyline([P(-1, 0), P(0, 0), P(0, 2)])]
        queries = np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        hit = closest_polyline(queries, pls)
        np.testing.assert_array_equal(hit.dist, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(hit.seg, [0, 0, 1])
        self.check_against_oracle(queries, pls)

    def test_exact_tie_between_polylines_goes_to_lowest(self):
        pls = [
            Polyline([P(3, -5), P(3, 5)]),
            Polyline([P(1, -5), P(1, 5)]),
            Polyline([P(-1, -5), P(-1, 5)]),
        ]
        queries = np.array([[0.0, 0.0], [0.0, 4.0], [2.0, 1.0]])
        hit = closest_polyline(queries, pls)
        np.testing.assert_array_equal(hit.poly, [1, 1, 0])
        np.testing.assert_array_equal(hit.dist, [1.0, 1.0, 1.0])
        self.check_against_oracle(queries, pls)

    def test_degenerate_segments_are_skipped(self):
        pls = [Polyline([P(5, 5), P(5, 5), P(5, 6), P(5, 6), P(6, 6)])]
        queries = np.array([[5.0, 4.0], [5.0, 7.0], [7.0, 6.0]])
        hit = closest_polyline(queries, pls)
        np.testing.assert_array_equal(hit.seg, [1, 1, 3])
        self.check_against_oracle(queries, pls)
        with pytest.raises(GeometryError):
            closest_polyline(queries, pls + [Polyline([P(0, 0), P(0, 0), P(0, 0)])])

    def test_zero_and_one_queries(self):
        pls = [Polyline([P(1, -5), P(1, 5)]), Polyline([P(-0.5, -5), P(-0.5, 5)])]
        empty = closest_polyline(np.empty((0, 2)), pls)
        assert [a.shape for a in empty] == [(0,), (0,), (0,), (0, 2), (0, 2), (0, 2)]
        assert closest_polyline_within(np.empty((0, 2)), pls, 1.0).poly.shape == (0,)
        one = closest_polyline(np.array([[0.0, 0.0]]), pls)
        assert (one.poly.tolist(), one.dist.tolist(), one.seg.tolist()) == ([1], [0.5], [0])
        assert closest_polyline(P(0, 0), pls) == one.first()
        assert closest_polyline(np.empty((0, 2)), []) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_raises(self, bad):
        pls = [Polyline([P(1, -5), P(1, 5)])]
        queries = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(GeometryError):
            closest_point_on_segment(queries, pls[0].xy()[:-1], pls[0].xy()[1:])
        with pytest.raises(GeometryError):
            point_polyline_distance(queries, pls[0])
        with pytest.raises(GeometryError):
            closest_polyline(queries, pls)
        with pytest.raises(GeometryError):
            closest_polyline_within(queries, pls, 2.0)
        with pytest.raises(GeometryError):
            angular_difference(queries, np.ones((2, 2)))

    def test_angular_difference_rows_match_single_vectors(self):
        rng = np.random.default_rng(5)
        v1, v2 = rng.uniform(-3, 3, size=(2, 20, 2))
        got = angular_difference(v1, v2)
        assert got.shape == (20,)
        assert got.tolist() == [angular_difference(tuple(a), tuple(b)) for a, b in zip(v1, v2)]
        with pytest.raises(GeometryError):
            angular_difference(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))


def _point_in_rect(points: np.ndarray, center: Point2, heading: float, dims) -> np.ndarray:
    """Membership test used only by the Monte-Carlo oracle."""
    u = np.array([math.cos(heading), math.sin(heading)])
    n = np.array([-math.sin(heading), math.cos(heading)])
    rel = points - np.array([center.x, center.y])
    return (np.abs(rel @ u) <= dims[0] / 2 + 1e-12) & (np.abs(rel @ n) <= dims[1] / 2 + 1e-12)


class TestOrientedRectOverlap:
    def test_identical_rectangles(self):
        assert oriented_rect_overlap(P(0, 0), 0.3, (2, 1), P(0, 0), 0.3, (2, 1))

    def test_far_apart(self):
        assert not oriented_rect_overlap(P(0, 0), 0.0, (2, 1), P(10, 0), 0.0, (2, 1))

    def test_half_lengths_sum_exceeds_center_gap(self):
        # 2x1 rects, heading 0 puts the length axis on x: half-lengths sum to
        # 2.0 > 1.5, all other axes overlap too
        assert oriented_rect_overlap(P(0, 0), 0.0, (2, 1), P(1.5, 0), 0.0, (2, 1))

    def test_touching_edges_count_as_overlap(self):
        assert oriented_rect_overlap(P(0, 0), 0.0, (2, 1), P(2.0, 0), 0.0, (2, 1))

    def test_rejects_non_positive_dims(self):
        with pytest.raises(GeometryError):
            oriented_rect_overlap(P(0, 0), 0.0, (0, 1), P(1, 0), 0.0, (2, 1))

    def test_overlap_sweeps_box_arrays(self):
        far = (10.0, 0.0)
        near = (1.5, 0.0)
        none = np.empty((0, 2))
        assert not oriented_rect_overlap(P(0, 0), 0.0, (2, 1), none, [], none)
        assert not oriented_rect_overlap(P(0, 0), 0.0, (2, 1), [far], [0.0], [(2, 1)])
        assert oriented_rect_overlap(P(0, 0), 0.0, (2, 1), [far, near], [0.0, 0.0], (2, 1))
        # an invalid box anywhere raises, before or after a hit
        for boxes in ([far, near, near], [far, near, far], [near, far, far]):
            for bad in range(3):
                dims = np.full((3, 2), 1.0)
                dims[bad, 0] = 0.0
                with pytest.raises(GeometryError):
                    oriented_rect_overlap(P(0, 0), 0.0, (2, 1), boxes, [0.0] * 3, dims)

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

            got = oriented_rect_overlap(c1, h1, d1, c2, h2, d2)

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
                margin = oriented_rect_margin(c1, h1, d1, c2, h2, d2)
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
        got = oriented_rect_margin(c1, h1, d1, c2, h2, d2)
        assert got.shape == (3000,)
        want = [sat_margin_oracle(c1[i], h1[i], d1[i], c2[i], h2[i], d2[i]) for i in range(3000)]
        assert got.tolist() == want
        # exactly symmetric in the two rectangles
        assert oriented_rect_margin(c2, h2, d2, c1, h1, d1).tolist() == want

    @pytest.mark.parametrize(
        "shape1, shape2",
        [((7,), (5, 7)), ((4, 1), (1, 6)), ((), (9,)), ((3, 1, 2), (5, 1)), ((6,), (6,))],
    )
    def test_broadcast_shapes_match_pairwise_oracle(self, shape1, shape2):
        rng = np.random.default_rng(len(shape1) * 10 + len(shape2))
        c1, h1, d1 = _random_boxes(rng, shape1)
        c2, h2, d2 = _random_boxes(rng, shape2)
        got = oriented_rect_margin(c1, h1, d1, c2, h2, d2)
        shape = np.broadcast_shapes(shape1, shape2)
        assert np.shape(got) == shape
        for idx in np.ndindex(shape):
            i1, i2 = _broadcast_source(idx, shape1), _broadcast_source(idx, shape2)
            want = sat_margin_oracle(c1[i1], h1[i1], d1[i1], c2[i2], h2[i2], d2[i2])
            assert np.asarray(got)[idx] == want
        assert oriented_rect_overlap(c1, h1, d1, c2, h2, d2) == bool((np.asarray(got) >= 0).any())

    def test_dims_broadcast_per_row(self):
        rng = np.random.default_rng(2)
        c1, h1, _ = _random_boxes(rng, (7,))
        c2, h2, d2 = _random_boxes(rng, (4, 7))
        rows = d2[:, :1, :]
        got = oriented_rect_margin(c1, h1, (4.5, 1.9), c2, h2, rows)
        want = oriented_rect_margin(
            c1, h1, np.broadcast_to([4.5, 1.9], (7, 2)), c2, h2, np.broadcast_to(rows, (4, 7, 2))
        )
        assert got.tolist() == want.tolist()

    def test_scalar_inputs_give_a_float(self):
        got = oriented_rect_margin(P(0.5, -1), 0.4, (3.0, 1.5), (2.0, 0.5), 1.1, [2.0, 1.0])
        assert isinstance(got, float)
        assert got == sat_margin_oracle((0.5, -1.0), 0.4, (3.0, 1.5), (2.0, 0.5), 1.1, (2.0, 1.0))
        assert type(oriented_rect_overlap(P(0, 0), 0.0, (2, 1), P(0, 0), 0.0, (2, 1))) is bool

    def test_zero_pairs(self):
        boxes = (np.zeros((3, 2)), np.zeros(3), (2, 1))
        none = (np.zeros((0, 3, 2)), np.zeros((0, 3)), np.ones((0, 1, 2)))
        assert oriented_rect_margin(*boxes, *none).shape == (0, 3)
        assert oriented_rect_overlap(*boxes, *none) is False

    def test_touching_and_identical_boxes(self):
        # edges touching exactly: margin 0, which counts as overlap
        assert oriented_rect_margin(P(0, 0), 0.0, (2, 1), P(2, 0), 0.0, (2, 1)) == 0.0
        assert oriented_rect_margin(P(0, 0), 0.0, (2, 1), P(0, 1), 0.0, (2, 1)) == 0.0
        assert oriented_rect_overlap(P(0, 0), 0.0, (2, 1), [(2.0, 0.0), (0.0, 1.0)], 0.0, (2, 1))
        # identical boxes reach across their narrower extent
        for heading in (0.0, 0.7, math.pi / 2):
            got = oriented_rect_margin(P(1, 2), heading, (4, 1), P(1, 2), heading, (4, 1))
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
            oriented_rect_margin(P(0, 0), 0.0, (2, 1), centers, headings, dims)
        with pytest.raises(GeometryError):
            oriented_rect_overlap(centers, headings, dims, P(50, 50), 0.0, (2, 1))

    def test_rejects_bad_shapes(self):
        with pytest.raises(GeometryError):
            oriented_rect_margin(np.zeros((3, 3)), np.zeros(3), (2, 1), P(0, 0), 0.0, (2, 1))
        with pytest.raises(GeometryError):
            oriented_rect_margin(P(0, 0), 0.0, (2, 1, 1), P(0, 0), 0.0, (2, 1))
