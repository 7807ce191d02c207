from collections import Counter

import numpy as np
import pytest

from conftest import raster_from_int, traced_vertices, vertices_one_at_a_time
import gridtrace.trace as trace
from gridtrace import BitRaster, TraceError, bernoulli, detect, window_types
from gridtrace.verify import classify_window

# Window codes producing one vertex; the diagonal codes 6 and 9 produce two.
SINGLE_VERTEX_CODES = {1, 2, 4, 7, 8, 11, 13, 14}


class TestClassifyWindow:
    def test_all_sixteen_codes(self):
        # Window at corner (1, 1) of a 2x2 raster sees exactly the four pixels.
        for code in range(16):
            r = raster_from_int(2, 2, code)
            assert classify_window(r, 1, 1) == code

    def test_empty_window_is_zero(self):
        assert classify_window(BitRaster(3, 3), 1, 1) == 0

    def test_bottom_right_pixel_gives_eight(self):
        assert classify_window(BitRaster.from_strings(["1"]), 0, 0) == 8

    def test_single_pixel_window_corners(self):
        r = BitRaster.from_strings(["1"])
        assert classify_window(r, 1, 1) == 1
        assert classify_window(r, 0, 1) == 2
        assert classify_window(r, 1, 0) == 4

    def test_window_types_matches_pointwise_classification(self):
        r = bernoulli(7, 5, 0.5, 31)
        grid = window_types(r)
        assert grid.shape == (6, 8)
        for y in range(6):
            for x in range(8):
                assert grid[y, x] == classify_window(r, x, y)


class TestDetect:
    # A 10**15 x 0 raster has a corner grid of petabytes, which detect must
    # not build.
    @pytest.mark.parametrize("w,h", [(0, 0), (3, 3), (4, 0), (0, 4), (1, 1), (10**15, 0)])
    def test_empty_raster(self, w, h):
        d = detect(BitRaster(w, h))
        assert d.vertex_count == 0
        assert len(d.corners) == 0

    def test_single_pixel(self):
        d = detect(BitRaster.from_strings(["1"]))
        assert d.vertex_count == 4
        assert list(zip(d.xs, d.ys)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert d.corners.tolist() == [0]
        # ring order from the entry corner: down, right, up, back
        chain = [0]
        for _ in range(3):
            chain.append(d.next_ids[chain[-1]])
        assert [(d.xs[i], d.ys[i]) for i in chain] == [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert d.next_ids[chain[-1]] == 0

    def test_single_pixel_dump(self):
        d = detect(BitRaster.from_strings(["1"]))
        assert d.dump() == "0 0 0 2 1\n1 1 0 0 0\n2 0 1 3 0\n3 1 1 1 0"

    @pytest.mark.parametrize(
        "rows,expected",
        [
            pytest.param(
                ["10", "01"],
                "0 0 0 2 1\n1 1 0 0 0\n2 0 1 3 0\n3 1 1 1 0\n"
                "4 1 1 6 1\n5 2 1 4 0\n6 1 2 7 0\n7 2 2 5 0",
                id="code-9",
            ),
            pytest.param(
                ["01", "10"],
                "0 1 0 3 1\n1 2 0 0 0\n2 0 1 6 1\n3 1 1 5 0\n"
                "4 1 1 2 0\n5 2 1 1 0\n6 0 2 7 0\n7 1 2 4 0",
                id="code-6",
            ),
            pytest.param(
                ["111", "101", "111"],
                "0 0 0 6 1\n1 3 0 0 0\n2 1 1 3 1\n3 2 1 5 0\n"
                "4 1 2 2 0\n5 2 2 4 0\n6 0 3 7 0\n7 3 3 1 0",
                id="code-7-hole",
            ),
            pytest.param(
                ["0110", "1001", "0110"],
                "0 1 0 3 1\n1 3 0 0 0\n2 0 1 8 1\n3 1 1 5 0\n"
                "4 1 1 2 0\n5 3 1 1 0\n6 3 1 11 1\n7 4 1 6 0\n"
                "8 0 2 9 0\n9 1 2 4 0\n10 1 2 14 1\n11 3 2 13 0\n"
                "12 3 2 10 0\n13 4 2 7 0\n14 1 3 15 0\n15 3 3 12 0",
                id="diagonal-ring",
            ),
        ],
    )
    def test_golden_dump(self, rows, expected):
        assert detect(BitRaster.from_strings(rows)).dump() == expected

    def test_diagonal_pixels_coinciding_vertices(self):
        d = detect(BitRaster.from_strings(["10", "01"]))
        assert d.vertex_count == 8
        assert len(d.corners) == 2
        positions = Counter(zip(d.xs, d.ys))
        assert positions[(1, 1)] == 2

    def test_full_block_has_four_vertices(self):
        d = detect(BitRaster.from_strings(["11", "11"]))
        assert d.vertex_count == 4
        assert sorted(zip(d.xs, d.ys)) == [(0, 0), (0, 2), (2, 0), (2, 2)]
        assert len(d.corners) == 1

    @pytest.mark.parametrize("w,h", [(1, 1), (3, 2), (5, 5), (1, 7)])
    def test_all_marked_raster_gives_four_vertices(self, w, h):
        r = BitRaster(w, h, [[True] * w] * h)
        d = detect(r)
        assert d.vertex_count == 4
        assert sorted(zip(d.xs, d.ys)) == [(0, 0), (0, h), (w, 0), (w, h)]

    def test_vertex_positions_match_window_codes_exhaustively(self):
        # Every mask up to 4x4, against windows classified one at a time.
        for w in range(1, 5):
            for h in range(1, 5):
                for mask in range(1 << (w * h)):
                    r = raster_from_int(w, h, mask)
                    assert traced_vertices(r) == vertices_one_at_a_time(r), (w, h, mask)

    # Widths that end a packed row at, just before and just after a byte
    # boundary, so vertices depend on bits carried across bytes.
    @pytest.mark.parametrize("width", [*range(1, 18), 63, 64, 65])
    def test_vertex_positions_across_byte_boundaries(self, width):
        for height in (1, 2, 3):
            for p in (0, 0.02, 0.5, 0.98, 1):
                for seed in range(4):
                    r = bernoulli(width, height, p, seed)
                    assert traced_vertices(r) == vertices_one_at_a_time(r), (height, p, seed)

    def test_entry_corners_in_scan_order(self):
        d = detect(BitRaster.from_strings(["100", "000", "001"]))
        assert [(d.xs[i], d.ys[i]) for i in d.corners] == [(0, 0), (2, 2)]

    def test_links_are_circular_on_random_rasters(self):
        for seed in range(5):
            d = detect(bernoulli(20, 20, 0.5, seed))
            n = d.vertex_count
            assert sorted(d.next_ids) == list(range(n))
            assert all(0 <= i < n for i in d.corners)


class TestWiringChecks:
    """Code grids no raster can produce must raise, not return bad links.

    The wiring step takes each grid's vertices in scan order, with their
    codes, as `detect` hands them over from its vertex finder. No grid here
    has a diagonal corner, so no vertex is a second copy.
    """

    @pytest.mark.parametrize(
        "codes,message",
        [
            pytest.param([[8, 0], [0, 0]], "cannot pair off", id="odd-count"),
            pytest.param([[8, 1], [0, 0]], "rows and columns", id="column-mismatch"),
            pytest.param([[8, 0], [1, 0]], "rows and columns", id="row-mismatch"),
            pytest.param([[8, 4], [2, 2]], "unlinked", id="unlinked"),
        ],
    )
    def test_inconsistent_codes_raise(self, codes, message):
        grid = np.array(codes, dtype=np.uint8)
        ys, xs = np.nonzero(np.isin(grid, list(SINGLE_VERTEX_CODES)))
        second = np.zeros(len(xs), dtype=bool)
        with pytest.raises(TraceError, match=message):
            trace._wire(xs, ys, grid[ys, xs], second, grid.shape[1] - 1)
