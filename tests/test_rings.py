import re
import tracemalloc
from itertools import count, islice, product
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ring_validity_errors, walk_outcomes
from gridtrace import (
    AffineTransform,
    BitRaster,
    Delineation,
    Polygon,
    PolygonSet,
    RingSet,
    RingTraversalError,
    TopologyError,
    assemble_polygons,
    bernoulli,
    detect,
    form_rings,
    signed_area,
)
from gridtrace.rings import _SCALAR_BELOW, _rank, _segments
from gridtrace.verify import assemble_polygons_bruteforce


def rings_of(rows, **kwargs):
    return form_rings(detect(BitRaster.from_strings(rows)), **kwargs)


class TestFormRings:
    def test_single_pixel(self):
        grid, world = rings_of(["1"])
        assert len(grid) == 1
        assert grid[0].tolist() == [[0, 0], [0, 1], [1, 1], [1, 0], [0, 0]]
        assert world[0].tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]

    def test_empty(self):
        grid, world = form_rings(detect(BitRaster(4, 4)))
        assert len(grid) == 0 and len(world) == 0

    def test_diagonal_pixels_two_rings_sharing_corner(self):
        grid, _ = rings_of(["10", "01"])
        assert len(grid) == 2
        assert grid[0].tolist() == [[0, 0], [0, 1], [1, 1], [1, 0], [0, 0]]
        assert grid[1].tolist() == [[1, 1], [1, 2], [2, 2], [2, 1], [1, 1]]
        assert all([1, 1] in ring.tolist() for ring in grid)

    def test_ring_with_two_entry_corners_emitted_once(self):
        # L-shape: the outer ring carries both a top-left and an inner corner.
        d = detect(BitRaster.from_strings(["11", "10"]))
        assert len(d.corners) == 2
        grid, _ = form_rings(d)
        assert len(grid) == 1
        assert len(grid[0]) == 7

    def test_emission_order_is_scan_order(self):
        grid, _ = rings_of(["100", "000", "001"])
        assert grid[0][0].tolist() == [0, 0]
        assert grid[1][0].tolist() == [2, 2]

    def test_world_equals_transform_applied_pointwise(self):
        tr = AffineTransform(a=0.25, b=0.0, c=-30.0, d=0.0, e=-0.25, f=60.0)
        grid, world = form_rings(detect(bernoulli(12, 9, 0.4, 3)), tr)
        for ring, wring in zip(grid, world):
            expected = [tr.apply(x, y) for x, y in ring.tolist()]
            assert wring.tolist() == [list(p) for p in expected]

    @pytest.mark.parametrize(
        "t",
        [
            AffineTransform(0.25, 0.0, -30.0, 0.0, -0.25, 60.0),
            AffineTransform(0.3, -0.2, 5.5, 0.1, 0.7, -3.0),
            AffineTransform(1e308, 0.0, 0.0, 0.0, -1e308, 0.0),
            AffineTransform(-1.0, -0.0, -0.0, 0.0, -1.0, 0.0),
            AffineTransform(-0.0, 1.0, 0.0, -1.0, -0.0, -0.0),
        ],
        ids=["north-up", "rotated", "overflowing", "negative-scale", "signed-zeros"],
    )
    def test_world_has_the_bits_of_transform_apply(self, t):
        # tolist() would let -0.0 pass for 0.0 and is blind to NaN payloads.
        grid, world = form_rings(detect(bernoulli(12, 9, 0.4, 3)), t)
        with np.errstate(over="ignore", invalid="ignore"):
            lon, lat = t.apply(grid.coords[:, 0], grid.coords[:, 1])
        assert world.coords.tobytes() == np.stack([lon, lat], axis=1).tobytes()

    def test_traversal_covers_every_vertex_once(self):
        for seed in range(4):
            d = detect(bernoulli(24, 24, 0.5, seed))
            grid, _ = form_rings(d)
            assert sum(len(r) - 1 for r in grid) == d.vertex_count

    def test_walk_that_never_closes_aborts(self):
        with pytest.raises(RingTraversalError):
            Delineation(xs=[0, 1, 2], ys=[0, 0, 0], next_ids=[1, 2, 1], corners=[0])

    def test_unreachable_vertices_abort(self):
        bad = Delineation(
            xs=[0, 1, 5, 5], ys=[0, 0, 0, 1], next_ids=[1, 0, 3, 2], corners=[0]
        )
        message = r"^2 vertices unreachable from any entry corner; the lowest is vertex 2 at \(5, 0\)$"
        with pytest.raises(RingTraversalError, match=message):
            form_rings(bad)

    def test_pipeline_rings_have_no_straight_runs(self):
        for seed in range(3):
            r = bernoulli(15, 15, 0.5, seed)
            grid, _ = form_rings(detect(r))
            assert ring_validity_errors(grid, r.marked_count()) == []
        straight = [[(0, 0), (0, 1), (0, 2), (1, 2), (1, 0), (0, 0)]]
        assert ring_validity_errors(straight, 2) == ["ring 0 has a straight run at (0,1)"]

    def test_negative_link_aborts(self):
        with pytest.raises(RingTraversalError):
            Delineation(xs=[0, 1], ys=[0, 0], next_ids=[1, -1], corners=[0])

    @pytest.mark.parametrize(
        "xs,next_ids,corners,message",
        [
            ([0, 1], [1, 5], [0], "^vertex 1 is unlinked: its successor 5 is not in 0..1$"),
            ([0, 1], [1, 5], [3], "^vertex 1 is unlinked: its successor 5 is not in 0..1$"),
            ([0, 1], [1, 0], [0, 2], "^entry corner 2 is not a vertex in 0..1$"),
            ([0, 1], [1, 2, 0], [0], "^arena has 2 xs, 2 ys and 3 next_ids$"),
            ([0, 1], [1, 10**30], [0], "^arena field next_ids holds object values, not integers$"),
            ([0, 1], [1, 0.5], [0], "^arena field next_ids holds float64 values, not integers$"),
            ([0, 1], [1, 0], [[0]], r"^arena field corners has shape \(1, 1\), not 1-D$"),
            ([0, 1], [1, 0], np.int64(0), r"^arena field corners has shape \(\), not 1-D$"),
            ([[0, 1]], [1, 0], [0], r"^arena field xs has shape \(1, 2\), not 1-D$"),
            ([0, 1], [[]], [0], r"^arena field next_ids has shape \(1, 0\), not 1-D$"),
        ],
        ids=[
            "link", "link-and-corner", "corner", "lengths", "beyond-int64", "float",
            "nested-corners", "scalar-corners", "two-dimensional-xs", "empty-nested-links",
        ],
    )
    def test_out_of_range_index_aborts(self, xs, next_ids, corners, message):
        with pytest.raises(RingTraversalError, match=message):
            Delineation(xs=xs, ys=[0, 0], next_ids=next_ids, corners=corners)

    @pytest.mark.parametrize(
        "next_ids,corners,message",
        [
            ([2**64 - 1], [0], "^vertex 0 is unlinked: its successor 18446744073709551615 "),
            ([0], [2**64 - 1], "^entry corner 18446744073709551615 is not a vertex in 0..0$"),
        ],
        ids=["link", "corner"],
    )
    def test_unsigned_values_are_named_as_given(self, next_ids, corners, message):
        with pytest.raises(RingTraversalError, match=message):
            Delineation([0], [0], np.array(next_ids, np.uint64), np.array(corners, np.uint64))

    def test_arena_is_checked_once(self, monkeypatch):
        calls = []
        check = Delineation.__post_init__

        def counted(self):
            calls.append(1)
            check(self)

        monkeypatch.setattr(Delineation, "__post_init__", counted)
        form_rings(detect(bernoulli(16, 16, 0.5, 2)))
        assert len(calls) == 1

    def test_other_arenas_are_checked_before_the_walk(self):
        # Links that are no permutation would never bring the walk back.
        loose = SimpleNamespace(xs=[0, 1, 2], ys=[0, 0, 0], next_ids=[1, 2, 1], corners=[0])
        with pytest.raises(RingTraversalError, match="^vertex 1 is linked more than once"):
            form_rings(loose)
        loose.next_ids = [1, 2, 0]
        grid, _ = form_rings(loose)
        assert grid.coords.tolist() == [[0, 0], [1, 0], [2, 0], [0, 0]]

    def test_arrays_and_lists_give_the_same_rings(self):
        # The empty arena's lists are Delineation([], [], [], []).
        for raster in (bernoulli(9, 7, 0.5, 11), BitRaster(0, 0)):
            d = detect(raster)
            as_lists = Delineation(*(a.tolist() for a in (d.xs, d.ys, d.next_ids, d.corners)))
            for got, want in zip(form_rings(as_lists), form_rings(d)):
                assert [r.tolist() for r in got] == [r.tolist() for r in want]
                assert got.offsets.tolist() == want.offsets.tolist()
                assert got.coords.dtype == want.coords.dtype


def spiral(size):
    """A 1-pixel-wide square spiral, its turns one blank pixel apart."""
    bits = np.zeros((size, size), dtype=bool)
    x = y = 0
    dx, dy = 1, 0
    bits[0, 0] = True
    turned = False
    while True:
        ahead, beyond = (x + dx, y + dy), (x + 2 * dx, y + 2 * dy)
        free = all(0 <= v < size for v in ahead) and not bits[ahead[::-1]]
        if free and not (all(0 <= v < size for v in beyond) and bits[beyond[::-1]]):
            (x, y), turned = ahead, False
            bits[y, x] = True
        elif turned:
            return BitRaster(size, size, bits)
        else:
            dx, dy, turned = -dy, dx, True


def staircase(size):
    y, x = np.mgrid[:size, :size]
    return BitRaster(size, size, x <= y)


def comb(size):
    bits = np.zeros((size, size), dtype=bool)
    bits[0] = bits[:, ::2] = True
    return BitRaster(size, size, bits)


@pytest.mark.parametrize(
    "raster",
    [spiral(120), staircase(600), comb(600), bernoulli(300, 300, 0.95, 5)],
    ids=["spiral", "staircase", "comb", "bernoulli-0.95"],
)
def test_long_rings_match_the_per_vertex_walk(raster):
    # One ring of 1202 vertices behind a single entry corner (staircase),
    # hundreds of teeth on one ring (comb), and long rings among many.
    fast, oracle = walk_outcomes(detect(raster))
    assert fast == oracle


def zigzag_ring(minima: int) -> Delineation:
    """One ring of entry corners and plain vertices. Along the ring the
    corners read i and then a run of 1 to 3 corners numbered above every
    such i, for each i below `minima`, so the corners' own permutation has
    exactly `minima` local minima. Corner j is followed by j % 7 plain
    vertices, so its segment weighs 1 to 7."""
    runs = [i % 3 + 1 for i in range(minima)]
    high = count(minima)
    corners = [c for i, run in enumerate(runs) for c in [i, *islice(high, run)]]
    plain = count(len(corners))
    order = [v for j, c in enumerate(corners) for v in [c, *islice(plain, j % 7)]]
    nxt = np.empty(len(order), np.int64)
    nxt[order] = np.roll(order, -1)
    n = len(order)
    return Delineation(np.arange(n), n - np.arange(n), nxt, np.arange(len(corners)))


@pytest.mark.parametrize("walkers", [_SCALAR_BELOW - 1, _SCALAR_BELOW, _SCALAR_BELOW + 1])
def test_walker_count_at_the_scalar_hand_off_matches_the_per_vertex_walk(walkers):
    # Ranking the corners starts `walkers` weighted walkers, one per local
    # minimum: at and above the threshold numpy steps them until some
    # arrive, and the rest go on one element at a time; below it, all do.
    fast, oracle = walk_outcomes(zigzag_ring(walkers))
    assert fast == oracle


def walk_inputs():
    """(succ, heads, weight) cases for `_segments`: random permutations cut
    at random heads, weighted and not, and the zigzag rings around the
    scalar hand-off, whose corners `_rank` ranks with that many walkers."""
    rng = np.random.default_rng(21)
    cases = {}
    for n in (1, 9, 300, 5000):
        heads = rng.choice(n, size=max(1, n // 4), replace=False)
        cases[f"permutation-{n}"] = rng.permutation(n), heads, None
        cases[f"weighted-{n}"] = rng.permutation(n), heads, rng.integers(1, 8, n)
    for walkers in (_SCALAR_BELOW - 1, _SCALAR_BELOW, _SCALAR_BELOW + 1):
        d = zigzag_ring(walkers)
        cases[f"zigzag-{walkers}"] = d.next_ids, d.corners, None
    return cases


WALK_INPUTS = walk_inputs()


@pytest.mark.parametrize("case", list(WALK_INPUTS))
def test_walk_reads_int32_int64_and_mixed_indices_alike(case):
    # form_rings stores the walk in int64 only past 2**31 places, which no
    # test reaches, so both stores are run here on every mix of input types.
    succ, heads, weight = WALK_INPUTS[case]
    outcomes = set()
    for store, (s, h, w) in product((np.int32, np.int64), product((np.int32, np.int64), repeat=3)):
        segments = _segments(
            succ.astype(s), heads.astype(h), None if weight is None else weight.astype(w), store
        )
        next_head, total = segments[:2]
        ranks = _rank(next_head.astype(s), total.astype(w), store)
        dtypes = [a.dtype for a in (*segments, *ranks)]
        assert dtypes == [store, np.intp, store, store, store, np.intp, np.intp]
        outcomes.add(tuple(tuple(a.tolist()) for a in (*segments, *ranks)))
    assert len(outcomes) == 1
    next_head, total, element, segment, dist, leader, offset = outcomes.pop()
    assert (next_head, total, dict(zip(element, zip(segment, dist)))) == segments_one_at_a_time(
        succ.tolist(), heads.tolist(), None if weight is None else weight.tolist()
    )
    assert (leader, offset) == ranks_one_at_a_time(next_head, total)


def segments_one_at_a_time(succ, heads, weight):
    """`_segments`' next_head and total, and each element's (segment,
    dist), from walking one segment at a time."""
    head_id = {h: k for k, h in enumerate(heads)}
    next_head, total, place = [], [], {}
    for k, v in enumerate(heads):
        passed = 0
        while not (passed and v in head_id):
            place[v] = (k, passed)
            passed += 1 if weight is None else weight[v]
            v = succ[v]
        next_head.append(head_id[v])
        total.append(passed)
    return tuple(next_head), tuple(total), place


def ranks_one_at_a_time(succ, weight):
    """`_rank`'s leader and offset, from walking each cycle from its least
    element."""
    leader, offset = [None] * len(succ), [0] * len(succ)
    for least in range(len(succ)):
        v, passed = least, 0
        while leader[v] is None:
            leader[v], offset[v] = least, passed
            passed += weight[v]
            v = succ[v]
    return tuple(leader), tuple(offset)


class TestRingSet:
    def test_reads_like_a_list_of_rings(self):
        grid, world = rings_of(["10", "01"])
        second = [[1, 1], [1, 2], [2, 2], [2, 1], [1, 1]]
        assert len(grid) == len(world) == 2
        assert [r.tolist() for r in grid] == [grid[0].tolist(), second]
        assert grid[-1].tolist() == second and grid[-2].tolist() == grid[0].tolist()
        for k in (2, -3):
            with pytest.raises(IndexError):
                grid[k]
        assert np.array_equal(np.concatenate(grid), grid.coords)
        assert np.array_equal(np.concatenate(world), grid.coords)
        assert grid.offsets.tolist() == [0, 5, 10] and world.offsets is grid.offsets
        assert (grid.coords.dtype, world.coords.dtype) == (np.int64, np.float64)

    def test_of_packs_lists_and_passes_ring_sets_through(self):
        square = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
        rings = RingSet.of([square, [], np.array(square) + 2], np.int64)
        assert rings.offsets.tolist() == [0, 5, 5, 10]
        assert [r.tolist() for r in rings] == [
            [list(p) for p in square], [], [[x + 2, y + 2] for x, y in square]
        ]
        assert RingSet.of(rings, np.int64) is rings
        empty = RingSet.of([], float)
        assert len(empty) == 0 and empty.coords.shape == (0, 2)

    @pytest.mark.parametrize(
        "ring,shape",
        [
            ([(0, 0, 0), (0, 2, 0), (2, 2, 0), (2, 0, 0)], "(4, 3)"),
            (np.zeros((5, 3)), "(5, 3)"),
            ([0, 0, 0, 1, 1, 1, 1, 0, 0, 0], "(10,)"),
            ([[(0, 0), (0, 1)]], "(1, 2, 2)"),
            (7, "()"),
        ],
        ids=["triples", "array-of-triples", "flat", "nested", "scalar"],
    )
    def test_of_refuses_rings_that_are_not_k_by_2(self, ring, shape):
        square = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
        message = f"^ring 1 has shape {re.escape(shape)}, not \\(k, 2\\)$"
        with pytest.raises(ValueError, match=message):
            RingSet.of([square, ring], np.int64)
        with pytest.raises(ValueError, match=message.replace("ring 1", "ring 0")):
            assemble_polygons([ring])

    def test_coordinates_and_rings_are_read_only(self):
        grid, world = rings_of(["1"])
        for rings in (grid, world, RingSet.of([[(0, 0), (0, 0)]], float)):
            for arr in (rings.coords, rings.offsets, rings[0], next(iter(rings))):
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                rings[0][0, 0] = 7

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float16, bool, np.uint8])
    def test_accepts_narrow_int_float_and_bool_buffers(self, dtype):
        rings = RingSet(np.zeros((4, 2), dtype), np.array([0, 2, 2, 4]))
        assert len(rings) == 3 and rings.coords.dtype == dtype

    def test_coordinates_not_n_by_2(self):
        with pytest.raises(ValueError, match=r"^ring coordinates have shape \(5, 3\), not \(N, 2\)$"):
            RingSet(np.zeros((5, 3)), np.array([0, 5]))

    def test_one_dimensional_coordinates(self):
        with pytest.raises(ValueError, match=r"^ring coordinates have shape \(10,\), not \(N, 2\)$"):
            RingSet(np.zeros(10), np.array([0, 5]))

    @pytest.mark.parametrize("dtype", [np.longdouble, np.complex128, object, "U3"])
    def test_coordinates_not_ints_or_floats_of_at_most_8_bytes(self, dtype):
        if np.dtype(dtype) == np.float64:
            pytest.skip("long double is plain double on this platform")
        with pytest.raises(ValueError, match="not ints or floats of at most 8 bytes$"):
            RingSet(np.zeros((5, 2), dtype), np.array([0, 5]))

    @pytest.mark.parametrize("offsets", [np.array([0.0, 5.0]), np.array([[0, 5]])])
    def test_offsets_not_one_dimensional_integers(self, offsets):
        with pytest.raises(ValueError, match="^ring offsets are .*, not 1-D integers$"):
            RingSet(np.zeros((5, 2)), offsets)

    @pytest.mark.parametrize(
        "offsets,shown",
        [([1, 5], "run from 1 to 5"), ([0, 4], "run from 0 to 4"), ([], "are empty")],
    )
    def test_offsets_not_from_0_to_n(self, offsets, shown):
        with pytest.raises(ValueError, match=f"^ring offsets {shown}, not from 0 to 5$"):
            RingSet(np.zeros((5, 2)), np.array(offsets, np.int64))

    def test_offsets_decreasing(self):
        with pytest.raises(ValueError, match="^ring 1 ends at offset 2, before its start 4$"):
            RingSet(np.zeros((5, 2)), np.array([0, 4, 2, 5]))


class TestPolygonSet:
    def test_reads_like_a_list_of_polygons(self):
        polygons = PolygonSet(np.array([3, 0, 1, 2]), np.array([0, 3, 4]))
        assert len(polygons) == 2
        assert polygons[0] == Polygon(3, [0, 1]) and polygons[-1] == Polygon(2, [])
        assert list(polygons) == [Polygon(3, [0, 1]), Polygon(2, [])]
        assert [type(k) for p in polygons for k in [p.outer, *p.holes]] == [int] * 4
        for k in (2, -3):
            with pytest.raises(IndexError):
                polygons[k]
        assert not polygons.rings.flags.writeable and not polygons.offsets.flags.writeable

    def test_of_round_trips_hand_built_polygons(self):
        hand_built = [Polygon(2, [0, 0]), Polygon(1), Polygon(5, [3])]
        packed = PolygonSet.of(hand_built)
        assert packed.rings.tolist() == [2, 0, 0, 1, 5, 3]
        assert packed.offsets.tolist() == [0, 3, 4, 6]
        assert (packed.rings.dtype, packed.offsets.dtype) == (np.int64, np.int64)
        assert list(packed) == hand_built
        assert PolygonSet.of(packed) is packed
        assert len(PolygonSet.of([])) == 0

    @pytest.mark.parametrize("rings", [np.array([0.0, 1.0]), np.array([[0, 1]]), np.array(["0", "1"])])
    def test_ring_indices_not_one_dimensional_integers(self, rings):
        with pytest.raises(ValueError, match="^polygon rings are .*, not 1-D integers$"):
            PolygonSet(rings, np.array([0, 2]))

    @pytest.mark.parametrize(
        "offsets,problem",
        [
            (np.array([1, 3]), "polygon offsets run from 1 to 3, not from 0 to 3"),
            (np.array([0, 2]), "polygon offsets run from 0 to 2, not from 0 to 3"),
            (np.array([], np.int64), "polygon offsets are empty, not from 0 to 3"),
            (np.array([0, 2, 1, 3]), "polygon 1 ends at offset 1, before its start 2"),
            (np.array([0.0, 3.0]), "polygon offsets are float64 of shape (2,), not 1-D integers"),
        ],
    )
    def test_offsets_not_rising_from_0_to_the_ring_count(self, offsets, problem):
        with pytest.raises(ValueError) as err:
            PolygonSet(np.array([0, 1, 2]), offsets)
        assert str(err.value) == problem

    @pytest.mark.parametrize("outer,dtype", [(1.5, "float64"), (10**30, "object")])
    def test_of_refuses_indices_that_are_not_integers(self, outer, dtype):
        # Not cast: int64 would read 1.5 as ring 1.
        with pytest.raises(ValueError, match=f"^polygon rings are {dtype} of shape"):
            PolygonSet.of([Polygon(0), Polygon(outer)])

    def test_polygon_with_no_rings(self):
        with pytest.raises(ValueError, match="^polygon 1 has no rings, so no outer ring$"):
            PolygonSet(np.array([0, 1, 2]), np.array([0, 2, 2, 3]))


class TestSignedArea:
    def test_single_pixel_ring(self):
        grid, _ = rings_of(["1"])
        assert signed_area(grid[0]) == -1

    def test_degenerate_two_point_ring(self):
        assert signed_area([(3, 4), (3, 4)]) == 0

    def test_full_block_ring(self):
        assert signed_area([(0, 0), (0, 2), (2, 2), (2, 0), (0, 0)]) == -4

    def test_hole_ring_is_positive(self):
        grid, _ = rings_of(["111", "101", "111"])
        assert sorted(signed_area(r) for r in grid) == [-9, 1]

    def test_exact_far_from_the_origin(self):
        x = 2**40
        square = [(x, x), (x, x + 1), (x + 1, x + 1), (x + 1, x), (x, x)]
        assert signed_area(square) == -1
        assert signed_area(np.array(square, np.uint64) + np.uint64(2**63)) == -1

    def test_extent_of_2_to_the_62_is_refused(self):
        side = 2**40
        square = [(0, 0), (0, side), (side, side), (side, 0), (0, 0)]
        with pytest.raises(ValueError, match=f"^grid rings span {side} x {side} corners;"):
            signed_area(square)

    @pytest.mark.parametrize("seed", range(6))
    def test_area_sum_equals_marked_count(self, seed):
        p = [0.1, 0.3, 0.5, 0.7, 0.9, 0.5][seed]
        r = bernoulli(20, 17, p, seed)
        grid, _ = form_rings(detect(r))
        assert sum(signed_area(x) for x in grid) == -r.marked_count()


class TestAssemblePolygons:
    def test_ring_of_pixels_with_hole(self):
        grid, _ = rings_of(["111", "101", "111"])
        polys = assemble_polygons(grid)
        assert list(polys) == [Polygon(outer=0, holes=[1])]
        assert signed_area(grid[0]) == -9
        assert signed_area(grid[1]) == 1

    def test_disjoint_blobs_have_no_holes(self):
        grid, _ = rings_of(["10", "01"])
        assert list(assemble_polygons(grid)) == [Polygon(0, []), Polygon(1, [])]

    def test_single_pixel(self):
        grid, _ = rings_of(["1"])
        assert list(assemble_polygons(grid)) == [Polygon(0, [])]

    def test_island_inside_lake(self):
        rows = [
            "11111",
            "10001",
            "10101",
            "10001",
            "11111",
        ]
        grid, _ = rings_of(rows)
        polys = assemble_polygons(grid)
        by_outer = {signed_area(grid[p.outer]): p for p in polys}
        border = by_outer[-25.0]
        island = by_outer[-1.0]
        assert [signed_area(grid[h]) for h in border.holes] == [9]
        assert island.holes == []

    def test_hole_attaches_to_smallest_containing_exterior(self):
        big = [(0, 0), (0, 10), (10, 10), (10, 0), (0, 0)]
        small = [(2, 2), (2, 8), (8, 8), (8, 2), (2, 2)]
        hole = [(4, 4), (6, 4), (6, 6), (4, 6), (4, 4)]
        polys = assemble_polygons([big, small, hole])
        assert list(polys) == [Polygon(0, []), Polygon(1, [2])]

    def test_orphan_hole_is_a_topology_error(self):
        hole = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        with pytest.raises(TopologyError) as err:
            assemble_polygons([hole])
        assert err.value.ring_index == 0

    @pytest.mark.parametrize("assemble", [assemble_polygons, assemble_polygons_bruteforce])
    @pytest.mark.parametrize("pack", [list, lambda rings: RingSet.of(rings, np.int64)])
    def test_orphan_hole_message_names_its_first_corner(self, assemble, pack):
        hole = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
        with pytest.raises(TopologyError) as err:
            assemble(pack([hole]))
        assert str(err.value) == "hole ring 0 at (1, 1) is inside no exterior ring"

    def test_zero_area_ring_is_a_topology_error(self):
        flat = [(0, 0), (0, 1), (0, 0)]
        with pytest.raises(TopologyError):
            assemble_polygons([flat])

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int16])
    def test_narrow_and_unsigned_coordinates_read_as_int64(self, dtype):
        # Coordinate differences must not wrap in the ring's own dtype.
        small, _ = rings_of(["111", "101", "111"])
        bits = np.ones((400, 400), bool)
        bits[200, 100:300] = False
        large, _ = form_rings(detect(BitRaster(400, 400, bits)))
        for grid in (small, large) if np.iinfo(dtype).max >= 400 else (small,):
            narrow = RingSet(grid.coords.astype(dtype), grid.offsets)
            assert list(assemble_polygons(narrow)) == list(assemble_polygons(grid)) == [Polygon(0, [1])]

    @pytest.mark.parametrize("x0", [2**54, 2**62], ids=["2**54", "2**62"])
    def test_unit_square_far_from_the_origin(self, x0):
        square = RingSet.of([[(x0, 0), (x0, 1), (x0 + 1, 1), (x0 + 1, 0), (x0, 0)]], np.int64)
        assert list(assemble_polygons(square)) == [Polygon(0, [])]

    @pytest.mark.parametrize(
        "shift",
        [(2**62, 0), (0, 2**62), (2**62, 2**62), (2**53, 2**53), (2**60, 2**60)],
        ids=["x", "y", "xy", "2**53", "2**60"],
    )
    def test_traced_mask_shifted_far_from_the_origin(self, shift):
        # Three nested frames: two exteriors with a hole each, and an island.
        grid, _ = rings_of(
            [
                "111111111111",
                "100000000001",
                "101111111101",
                "101000000101",
                "101011110101",
                "101011110101",
                "101000000101",
                "101111111101",
                "100000000001",
                "111111111111",
            ]
        )
        shifted = RingSet(grid.coords.astype(np.int64) + shift, grid.offsets)
        expected = [Polygon(0, [1]), Polygon(2, [3]), Polygon(4, [])]
        assert list(assemble_polygons(shifted)) == list(assemble_polygons(grid)) == expected
        assert assemble_polygons_bruteforce(shifted) == expected

    @pytest.mark.parametrize(
        "width,height",
        [(2**61, 4), (3 * 2**60, 2), (2**31, 2**31)],
        ids=["2**61-by-4", "3*2**60-by-2", "2**31-by-2**31"],
    )
    def test_extent_of_2_to_the_62_is_refused(self, width, height):
        # Drawn (0,0)->(0,h)->(w,h)->(w,0): an exterior of area -w*h, which
        # the oracle assembles in Python ints and the int64 paths refuse.
        wide = [(0, 0), (0, height), (width, height), (width, 0), (0, 0)]
        message = f"^grid rings span {width} x {height} corners;"
        with pytest.raises(ValueError, match=message):
            assemble_polygons(RingSet.of([wide], np.int64))
        with pytest.raises(ValueError, match=message):
            signed_area(wide)
        assert assemble_polygons_bruteforce([wide]) == [Polygon(0, [])]

    def test_extent_just_below_2_to_the_62_is_exact(self):
        # A 2**59 x 7 exterior with a one-pixel hole in its far corner,
        # moved to -2**62: the cross products of the corners themselves
        # overflow int64.
        w, h = 2**59, 7
        frame = [(0, 0), (0, h), (w, h), (w, 0), (0, 0)]
        hole = [(w - 2, h - 2), (w - 1, h - 2), (w - 1, h - 1), (w - 2, h - 1), (w - 2, h - 2)]
        packed = RingSet.of([frame, hole], np.int64)
        rings = RingSet(packed.coords - 2**62, packed.offsets)
        assert [signed_area(r) for r in rings] == [-w * h, 1]
        expected = [Polygon(0, [1])]
        assert list(assemble_polygons(rings)) == assemble_polygons_bruteforce(rings) == expected

    def test_float_coordinates_are_refused(self):
        grid, _ = rings_of(["111", "101", "111"])
        with pytest.raises(ValueError, match="^grid rings hold float64 coordinates, not integers$"):
            assemble_polygons(RingSet(grid.coords.astype(float), grid.offsets))

    def test_tall_sparse_rings_assemble_in_little_memory(self):
        # Cut at every row, the exterior alone would make 2**32 unit edges;
        # its ten points have four distinct rows.
        rings = RingSet.of([TALL_EXTERIOR, HOLE_1_AT_5_7], np.int64)
        tracemalloc.start()
        try:
            polygons = assemble_polygons(rings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(polygons) == [Polygon(0, [1])]
        assert peak < 2**20

    def test_comb_of_tall_rectangles_assembles_in_little_memory(self):
        # Cut at every row, the 1000 rectangles would make 10**7 unit edges
        # from 5000 points; their ends lie on two rows.
        rings = RingSet.of(comb(1000, 4999), np.int64)
        tracemalloc.start()
        try:
            polygons = assemble_polygons(rings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(polygons) == [Polygon(k, []) for k in range(1000)]
        assert peak < 2**20


def assembly_outcome(assemble, grid_rings):
    """The polygons, or the error's class, failing ring index and text."""
    try:
        return list(assemble(grid_rings))
    except ValueError as err:
        return (type(err).__name__, getattr(err, "ring_index", None), str(err))


SQUARE_10 = [(0, 0), (0, 10), (10, 10), (10, 0), (0, 0)]
SQUARE_6_AT_2 = [(2, 2), (2, 8), (8, 8), (8, 2), (2, 2)]
HOLE_2_AT_4 = [(4, 4), (6, 4), (6, 6), (4, 6), (4, 4)]
HOLE_1_AT_0 = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
HOLE_1_AT_2 = [(2, 0), (3, 0), (3, 1), (2, 1), (2, 0)]
PIXEL_AT_0 = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
FLAT = [(0, 0), (0, 1), (0, 0)]
# An exterior whose right side steps at y = 5, and a hole whose first
# edge is vertical and 2 long, so the midpoint of that edge is at y = 5.
STEPPED_12 = [(0, 0), (0, 10), (10, 10), (10, 5), (12, 5), (12, 0), (0, 0)]
HOLE_2_AT_4_FROM_THE_RIGHT = [(6, 4), (6, 6), (4, 6), (4, 4), (6, 4)]
# Steps that are neither horizontal nor vertical, in a ring of its own and
# in a hole of a square.
DIAGONAL = [(0, 0), (2, 0), (1, 1), (0, 0)]
SQUARE_4 = [(0, 0), (0, 4), (4, 4), (4, 0), (0, 0)]
DIAGONAL_HOLE = [(1, 1), (3, 1), (2, 2), (1, 1)]
# A 2**31 x (2**31 - 1) exterior and a one-pixel hole: rows far outnumber
# points, so assembly ranks the rows.
TALL_EXTERIOR = [(0, 0), (0, 2**31 - 1), (2**31, 2**31 - 1), (2**31, 0), (0, 0)]
HOLE_1_AT_5_7 = [(5, 7), (6, 7), (6, 8), (5, 8), (5, 7)]
# Two unit squares 2**40 rows apart: four unit edges from ten points, so
# assembly cuts them without ranking the rows.
FAR_APART = [PIXEL_AT_0, [(x, y + 2**40) for x, y in PIXEL_AT_0]]


def comb(teeth: int, height: int) -> list[list[tuple[int, int]]]:
    """`teeth` exteriors of 1 x `height`, one column apart: cut at every
    row, they make 2 * teeth * height unit edges from 5 * teeth points."""
    return [
        [(2 * i, 0), (2 * i, height), (2 * i + 1, height), (2 * i + 1, 0), (2 * i, 0)]
        for i in range(teeth)
    ]


class TestAssembleMatchesBruteforce:
    """The scanline assembler against the containment-search oracle."""

    def test_every_mask_up_to_4x4(self, sweep_up_to_4x4):
        assert sweep_up_to_4x4.failures["assembly"] == []

    def test_random_masks_up_to_64x64(self):
        rng = np.random.Generator(np.random.PCG64(20261018))
        mismatches = []
        for i in range(320):
            p = 0.1 + 0.8 * (i % 17) / 16
            w, h = (64, 64) if i < 17 else (int(v) for v in rng.integers(1, 65, 2))
            grid, _ = form_rings(detect(bernoulli(w, h, p, 2_000_000 + i)))
            if list(assemble_polygons(grid)) != assemble_polygons_bruteforce(grid):
                mismatches.append((w, h, p, i))
        assert mismatches == []

    def test_ring_starts_order_and_position_do_not_matter(self):
        # Traced rings, each re-started at a random vertex and closed again,
        # in random order and shifted by +-2**40 on each axis.
        rng = np.random.Generator(np.random.PCG64(20261020))
        mismatches = []
        for i in range(200):
            w, h = (int(v) for v in rng.integers(1, 33, 2))
            grid, _ = form_rings(detect(bernoulli(w, h, rng.uniform(0.1, 0.9), 3_000_000 + i)))
            shift = rng.choice([-(2**40), 2**40], 2)
            rings = []
            for k in rng.permutation(len(grid)):
                ring = np.roll(grid[k][:-1], -rng.integers(len(grid[k]) - 1), axis=0)
                rings.append(np.vstack([ring, ring[:1]]) + shift)
            fast = assembly_outcome(assemble_polygons, rings)
            if fast != assembly_outcome(assemble_polygons_bruteforce, rings):
                mismatches.append((w, h, i))
        assert mismatches == []

    @pytest.mark.parametrize(
        "rings",
        [
            pytest.param([SQUARE_10, SQUARE_6_AT_2, HOLE_2_AT_4], id="nested-exteriors"),
            pytest.param([HOLE_2_AT_4, SQUARE_6_AT_2, SQUARE_10], id="nested-reversed"),
            pytest.param([HOLE_1_AT_0], id="orphan"),
            pytest.param([PIXEL_AT_0, HOLE_1_AT_2], id="orphan-right-of-exterior"),
            pytest.param([HOLE_1_AT_2, HOLE_1_AT_0], id="two-orphans"),
            pytest.param([PIXEL_AT_0, FLAT, FLAT], id="zero-area"),
            pytest.param([FLAT, HOLE_1_AT_0], id="zero-area-before-orphan"),
            pytest.param([], id="empty"),
            pytest.param(
                [STEPPED_12, HOLE_2_AT_4_FROM_THE_RIGHT], id="hole-level-with-exterior-corner"
            ),
            pytest.param([DIAGONAL], id="diagonal-step"),
            pytest.param([SQUARE_4, DIAGONAL_HOLE], id="diagonal-step-in-a-hole"),
            pytest.param([TALL_EXTERIOR, HOLE_1_AT_5_7], id="tall-sparse"),
            pytest.param(
                [[(x, 1000 * y) for x, y in r] for r in (SQUARE_10, SQUARE_6_AT_2, HOLE_2_AT_4)],
                id="nested-with-rows-stretched",
            ),
            pytest.param(comb(1000, 4999), id="comb"),
            pytest.param(FAR_APART, id="short-rings-far-apart"),
        ],
    )
    def test_hand_built_rings(self, rings):
        assert assembly_outcome(assemble_polygons, rings) == assembly_outcome(
            assemble_polygons_bruteforce, rings
        )

    @pytest.mark.parametrize(
        "rows",
        [
            ["11111", "10001", "10101", "10001", "11111"],
            ["1111111", "1000001", "1011101", "1010101", "1011101", "1000001", "1111111"],
            ["111111", "100101", "111111"],
            ["1111", "1001", "1011", "1111"],
        ],
        ids=["island-in-lake", "lake-island-lake", "two-lakes", "lake-touching-corner"],
    )
    def test_traced_nesting(self, rows):
        grid, _ = rings_of(rows)
        assert list(assemble_polygons(grid)) == assemble_polygons_bruteforce(grid)


@pytest.mark.parametrize("seed,p", [(0, 0.5), (1, 0.2), (2, 0.8), (3, 0.5)])
def test_ring_validity_on_random_rasters(seed, p):
    r = bernoulli(32, 32, p, seed)
    grid, _ = form_rings(detect(r))
    assert ring_validity_errors(grid, r.marked_count()) == []
