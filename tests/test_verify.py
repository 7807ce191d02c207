from itertools import product

import numpy as np
import pytest

from conftest import TEXT_ORACLES, parse_outcome
from gridtrace import (
    BitRaster,
    bernoulli,
    boundary_edges,
    detect,
    form_rings,
    parse_mask,
    rasterize_even_odd,
)
from gridtrace.verify import pixel_at, unit_edges


class TestBoundaryEdges:
    def test_single_pixel_has_four_sides(self):
        assert boundary_edges(BitRaster.from_strings(["1"])) == {
            ((0, 0), (1, 0)),
            ((0, 1), (1, 1)),
            ((0, 0), (0, 1)),
            ((1, 0), (1, 1)),
        }

    def test_adjacent_pixels_share_no_edge(self):
        edges = boundary_edges(BitRaster.from_strings(["11"]))
        assert len(edges) == 6
        assert ((1, 0), (1, 1)) not in edges

    def test_empty_raster(self):
        assert boundary_edges(BitRaster(3, 2)) == set()

    def test_interior_pixel_contributes_nothing(self):
        edges = boundary_edges(BitRaster.from_strings(["111", "111", "111"]))
        assert len(edges) == 12  # only the outer border


class TestUnitEdges:
    def test_splits_long_segments(self):
        ring = [(0, 0), (0, 2), (2, 2), (2, 0), (0, 0)]
        edges = unit_edges([ring])
        assert len(edges) == 8
        assert len(set(edges)) == 8
        assert ((0, 0), (0, 1)) in edges
        assert ((1, 2), (2, 2)) in edges

    def test_duplicates_are_kept(self):
        ring = [(0, 0), (0, 1), (0, 0)]
        assert len(unit_edges([ring])) == 2


class TestRasterizeEvenOdd:
    def test_single_pixel_ring(self):
        ring = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
        assert rasterize_even_odd([ring], 1, 1) == BitRaster.from_strings(["1"])

    def test_empty_ring_list(self):
        assert rasterize_even_odd([], 3, 2) == BitRaster(3, 2)

    def test_zero_size(self):
        assert rasterize_even_odd([], 0, 0) == BitRaster(0, 0)

    def test_hole_mask_round_trip(self):
        r = BitRaster.from_strings(["111", "101", "111"])
        grid, _ = form_rings(detect(r))
        assert rasterize_even_odd(grid, 3, 3) == r

    def test_out_of_grid_column_rejected(self):
        ring = [(5, 0), (5, 1), (6, 1), (6, 0), (5, 0)]
        with pytest.raises(ValueError):
            rasterize_even_odd([ring], 3, 3)

    def test_matches_naive_ray_casting(self):
        # Independent check of the oracle itself: count crossings pixel by pixel.
        for seed in range(20):
            r = bernoulli(7, 6, 0.5, seed)
            grid, _ = form_rings(detect(r))
            filled = rasterize_even_odd(grid, 7, 6)
            segments = []
            for ring in grid:
                pts = np.asarray(ring).tolist()
                segments.extend(
                    (x0, y0, y1)
                    for (x0, y0), (x1, y1) in zip(pts, pts[1:])
                    if x0 == x1
                )
            for y in range(6):
                for x in range(7):
                    crossings = sum(
                        1
                        for (cx, y0, y1) in segments
                        if cx > x + 0.5 and min(y0, y1) < y + 0.5 < max(y0, y1)
                    )
                    assert (crossings % 2 == 1) == pixel_at(filled, x, y), (seed, x, y)


# Every payload of up to 4 bytes over {0, 1, space, LF, CR, x}.
SHORT_PAYLOADS = [
    b"".join(p) for k in range(5) for p in product([b"0", b"1", b" ", b"\n", b"\r", b"x"], repeat=k)
]


class TestTextParserOracles:
    """The numpy parsers against their per-byte oracles: the same
    bits, or the same exception class and message."""

    @pytest.mark.parametrize(
        "header",
        [b""] + [b"P1\n%d %d\n" % (w, h) for w in range(3) for h in range(3)],
    )
    def test_every_short_payload(self, header):
        format = "pbm-ascii" if header else "ascii-grid"
        for payload in SHORT_PAYLOADS:
            data = header + payload
            assert parse_outcome(parse_mask, data, format) == parse_outcome(
                TEXT_ORACLES[format], data
            )

    @pytest.mark.parametrize("format", list(TEXT_ORACLES))
    def test_every_single_byte(self, format):
        header = b"P1\n1 1\n" if format == "pbm-ascii" else b""
        for byte in range(256):
            data = header + bytes([byte])
            assert parse_outcome(parse_mask, data, format) == parse_outcome(
                TEXT_ORACLES[format], data
            ), byte
