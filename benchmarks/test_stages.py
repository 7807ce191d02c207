"""Stage microbenchmarks: each pipeline stage timed on its own with
pytest-benchmark, on fixed masks. Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

This directory is outside the test suite's `testpaths`, so a plain `pytest`
run does not collect it.

The masks are Bernoulli(0.5) noise at 128^2, 250^2, 500^2 and 1000^2,
near the p where each stage costs most, and a 1500^2 mask of few large
blocky regions, like a classifier's output, whose vertex count is small
against its pixel count. A 3 x 100 000 mask marked all but one pixel is
one exterior and one hole, ten ring points over 100 000 rows: cut at
every row they would make 200 000 unit edges, so assembly ranks its rows
among the distinct ones first. Assembly is also timed on a hand-built
comb of 1000 hole-free 1 x 4999 rectangles, 5000 points that would cut
into 10 million unit edges, which it ranks the same way. From
250^2 to 1000^2 each stage shows its growth against the 16x in pixels,
the pair of sizes whose ratio of whole-trace times the acceptance suite
bounds. A 4^2 noise mask times what each stage
costs per call, whatever the size of its input. `parse_mask` is timed on the mask's P1,
ASCII-grid and P4 bytes. The arena check, `Delineation` built from
the fields of the mask's `detect` arena, is timed as its own stage;
`detect` includes it once, and `form_rings` not at all. Each stage's input
is built once per mask, outside the timed calls; rings go through a
north-up world transform, as they do from the command line with a world
file.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from gridtrace import (  # noqa: E402
    AffineTransform,
    BitRaster,
    Delineation,
    RingSet,
    assemble_polygons,
    bernoulli,
    detect,
    form_rings,
    parse_mask,
    write_geojson,
    write_mask,
    write_wkt,
)

NORTH_UP = AffineTransform(0.001, 0.0, 10.0, 0.0, -0.001, 50.0)


def blocks(size: int, cell: int, seed: int) -> BitRaster:
    """Square cells of `cell` pixels on a side, each marked with p=0.5."""
    coarse = np.random.default_rng(seed).random((size // cell, size // cell)) < 0.5
    return BitRaster(size, size, np.kron(coarse, np.ones((cell, cell), dtype=bool)))


def tall(height: int) -> BitRaster:
    """Three pixels wide, marked all but pixel (1, height // 2)."""
    bits = np.ones((height, 3), dtype=bool)
    bits[height // 2, 1] = False
    return BitRaster(3, height, bits)


MASKS = {
    "noise-4": lambda: bernoulli(4, 4, 0.5, 1),
    "noise-128": lambda: bernoulli(128, 128, 0.5, 1),
    "noise-250": lambda: bernoulli(250, 250, 0.5, 1),
    "noise-500": lambda: bernoulli(500, 500, 0.5, 1),
    "noise-1000": lambda: bernoulli(1000, 1000, 0.5, 1),
    "blocks-1500": lambda: blocks(1500, 30, 1),
    "tall-3": lambda: tall(100_000),
}


@pytest.fixture(scope="module", params=list(MASKS))
def stages(request):
    """Each stage's input for one mask: the raster, its vertex arena, its
    grid and world rings, and its polygons."""
    raster = MASKS[request.param]()
    delineation = detect(raster)
    grid, world = form_rings(delineation, NORTH_UP)
    return raster, delineation, grid, world, assemble_polygons(grid)


@pytest.mark.parametrize("format", ["pbm-ascii", "ascii-grid", "pbm-binary"])
def test_parse_mask(benchmark, stages, format):
    benchmark(parse_mask, write_mask(stages[0], format), format)


def test_detect(benchmark, stages):
    benchmark(detect, stages[0])


def test_delineation(benchmark, stages):
    d = stages[1]
    benchmark(Delineation, d.xs, d.ys, d.next_ids, d.corners)


def test_form_rings(benchmark, stages):
    benchmark(form_rings, stages[1], NORTH_UP)


def test_assemble_polygons(benchmark, stages):
    benchmark(assemble_polygons, stages[2])


@pytest.fixture(scope="module")
def comb():
    rect = [(0, 0), (0, 4999), (1, 4999), (1, 0), (0, 0)]
    return RingSet.of([[(x + 2 * i, y) for x, y in rect] for i in range(1000)], np.int64)


def test_assemble_comb(benchmark, comb):
    benchmark(assemble_polygons, comb)


def test_write_geojson(benchmark, stages):
    benchmark(write_geojson, stages[3], stages[4])


def test_write_geojson_rings(benchmark, stages):
    benchmark(write_geojson, stages[3])


def test_write_wkt(benchmark, stages):
    benchmark(write_wkt, stages[3], stages[4])
