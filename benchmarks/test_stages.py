"""Stage microbenchmarks: each pipeline stage timed on its own with
pytest-benchmark, on fixed masks. Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

This directory is outside the test suite's `testpaths`, so a plain `pytest`
run does not collect it.

The masks are Bernoulli(0.5) noise at 128^2, 500^2 and 1000^2, near the
p where each stage costs most, and a 1500^2 mask of few large blocky
regions, like a classifier's output, whose vertex count is small against
its pixel count. Each stage's input is built once per mask, outside
the timed calls; rings go through a north-up world transform, as they do
from the command line with a world file.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from gridtrace import (  # noqa: E402
    AffineTransform,
    BitRaster,
    assemble_polygons,
    bernoulli,
    detect,
    form_rings,
    write_geojson,
    write_wkt,
)

NORTH_UP = AffineTransform(0.001, 0.0, 10.0, 0.0, -0.001, 50.0)


def blocks(size: int, cell: int, seed: int) -> BitRaster:
    """Square cells of `cell` pixels on a side, each marked with p=0.5."""
    coarse = np.random.default_rng(seed).random((size // cell, size // cell)) < 0.5
    return BitRaster(size, size, np.kron(coarse, np.ones((cell, cell), dtype=bool)))


MASKS = {
    "noise-128": lambda: bernoulli(128, 128, 0.5, 1),
    "noise-500": lambda: bernoulli(500, 500, 0.5, 1),
    "noise-1000": lambda: bernoulli(1000, 1000, 0.5, 1),
    "blocks-1500": lambda: blocks(1500, 30, 1),
}


@pytest.fixture(scope="module", params=list(MASKS))
def stages(request):
    """Each stage's input for one mask: the raster, its vertex arena, its
    grid and world rings, and its polygons."""
    raster = MASKS[request.param]()
    delineation = detect(raster)
    grid, world = form_rings(delineation, NORTH_UP)
    return raster, delineation, grid, world, assemble_polygons(grid)


def test_detect(benchmark, stages):
    benchmark(detect, stages[0])


def test_form_rings(benchmark, stages):
    benchmark(form_rings, stages[1], NORTH_UP)


def test_assemble_polygons(benchmark, stages):
    benchmark(assemble_polygons, stages[2])


def test_write_geojson(benchmark, stages):
    benchmark(write_geojson, stages[3], stages[4])


def test_write_wkt(benchmark, stages):
    benchmark(write_wkt, stages[3], stages[4])
