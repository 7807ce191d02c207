"""Shared helpers and fixtures for the test suite."""

import gc
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gridtrace import (
    BitRaster,
    MaskError,
    RingTraversalError,
    assemble_polygons,
    boundary_edges,
    detect,
    form_rings,
    rasterize_even_odd,
)
from gridtrace.verify import (
    assemble_polygons_bruteforce,
    classify_window,
    parse_ascii_grid_bruteforce,
    parse_pbm_ascii_bruteforce,
    unit_edges,
    walk_rings_bruteforce,
)

# The per-byte oracle of each text mask format.
TEXT_ORACLES = {
    "pbm-ascii": parse_pbm_ascii_bruteforce,
    "ascii-grid": parse_ascii_grid_bruteforce,
}


def parse_outcome(parse, *args):
    """The raster a parser returns, or the class and message of its MaskError."""
    try:
        return parse(*args)
    except MaskError as e:
        return type(e), str(e)


def walk_outcomes(delineation):
    """The grid rings of form_rings and of the per-vertex walk oracle, each
    as (coordinates, offsets) lists or the RingTraversalError message."""
    try:
        grid, _ = form_rings(delineation)
        fast = grid.coords.tolist(), grid.offsets.tolist()
    except RingTraversalError as e:
        fast = str(e)
    try:
        order, bounds = walk_rings_bruteforce(delineation)
        closed = np.insert(order, bounds[1:], order[bounds[:-1]])
        xs, ys = delineation.xs[closed], delineation.ys[closed]
        oracle = np.stack([xs, ys], axis=1).tolist(), (bounds + np.arange(len(bounds))).tolist()
    except RingTraversalError as e:
        oracle = str(e)
    return fast, oracle


def raster_from_int(width: int, height: int, mask: int) -> BitRaster:
    """Raster whose row-major bits are the binary digits of `mask`."""
    bits = ((mask >> np.arange(width * height)) & 1).astype(bool).reshape(height, width)
    return BitRaster(width, height, bits)


def traced_vertices(d) -> tuple[list, list]:
    """(x, y) of every vertex in a `detect` arena, and of every entry corner."""
    xs, ys = d.xs.tolist(), d.ys.tolist()
    return list(zip(xs, ys)), [(xs[i], ys[i]) for i in d.corners.tolist()]


def vertices_one_at_a_time(raster: BitRaster) -> tuple[list, list]:
    """(x, y) of every vertex in scan order, and of every ring entry corner,
    with each window classified on its own: one vertex per single code, two
    at a diagonal (6 or 9), and an entry at codes 7, 8 and 9."""
    positions, entries = [], []
    for y in range(raster.height + 1):
        for x in range(raster.width + 1):
            code = classify_window(raster, x, y)
            if code in (6, 9):
                positions += [(x, y)] * 2
            elif code not in (0, 3, 5, 10, 12, 15):
                positions.append((x, y))
            if code in (7, 8, 9):
                entries.append((x, y))
    return positions, entries


def ring_validity_errors(grid_rings, marked_count: int) -> list[str]:
    """Check the ring validity contract; empty list means all good.

    Every ring must be closed and walk in axis-aligned steps that turn at
    every point: horizontal and vertical steps alternate, also across the
    wrap from the last step to the first, so no ring has a straight run.
    No unit edge may appear twice across the whole ring set, and the signed
    areas must sum to exactly minus the marked pixel count.
    """
    errors = []
    twice_area = 0
    for k, ring in enumerate(grid_rings):
        pts = np.asarray(ring).tolist()
        twice_area += sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
        if len(pts) < 2 or pts[0] != pts[-1]:
            errors.append(f"ring {k} not closed")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if (x0 == x1) == (y0 == y1):
                errors.append(f"ring {k} has non-orthogonal step ({x0},{y0})->({x1},{y1})")
                break
        horizontal = [y0 == y1 for (_, y0), (_, y1) in zip(pts, pts[1:])]
        for i, (a, b) in enumerate(zip(horizontal, horizontal[1:] + horizontal[:1])):
            if a == b:
                x, y = pts[i + 1]
                errors.append(f"ring {k} has a straight run at ({x},{y})")
                break
    edges = unit_edges(grid_rings)
    if len(edges) != len(set(edges)):
        errors.append("a unit edge appears more than once")
    if twice_area != -2 * marked_count:
        errors.append(f"area sum {twice_area / 2} != -{marked_count}")
    return errors


def even_odd_problems(raster: BitRaster, d, grid) -> list[str]:
    """The rings must fill back to the mask by the even-odd rule."""
    if rasterize_even_odd(grid, raster.width, raster.height) != raster:
        return ["even-odd refill differs from the mask"]
    return []


def edge_problems(raster: BitRaster, d, grid) -> list[str]:
    """The rings' unit edges must be the mask's boundary edges, each once."""
    edges = unit_edges(grid)
    if len(edges) != len(set(edges)) or set(edges) != boundary_edges(raster):
        return ["unit edges differ from the boundary edges"]
    return []


def validity_problems(raster: BitRaster, d, grid) -> list[str]:
    """The rings must meet the validity contract of `ring_validity_errors`."""
    return ring_validity_errors(grid, raster.marked_count())


def assembly_problems(raster: BitRaster, d, grid) -> list[str]:
    """`assemble_polygons` must match its containment-search oracle."""
    if list(assemble_polygons(grid)) != assemble_polygons_bruteforce(grid):
        return ["assemble_polygons differs from the oracle"]
    return []


def vertex_problems(raster: BitRaster, d, grid) -> list[str]:
    """`detect` must find the vertices of windows classified one at a time."""
    if traced_vertices(d) != vertices_one_at_a_time(raster):
        return ["vertices differ from windows classified one at a time"]
    return []


# Checks of one traced mask, by name: each takes the raster, its `detect`
# arena and its grid rings, and returns what it finds wrong. The first
# three are the acceptance suite's exactness criteria.
ACCEPTANCE_CHECKS = {
    "even_odd": even_odd_problems,
    "edges": edge_problems,
    "validity": validity_problems,
}
MASK_CHECKS = {**ACCEPTANCE_CHECKS, "assembly": assembly_problems, "vertices": vertex_problems}


@dataclass
class Sweep:
    """What the exhaustive sweep found: one failure list per check in
    MASK_CHECKS, and the seconds spent in each part of the work."""

    count: int
    failures: dict[str, list[str]]
    seconds: dict[str, float]


@pytest.fixture(scope="session")
def sweep_up_to_4x4() -> Sweep:
    """Every mask of 1x1 up to 4x4 (74 954 of them), traced once, through
    every check in MASK_CHECKS.

    The parts timed are building the raster, `detect`, `form_rings` and
    each check. A check that raises is a failure of that check alone. Only
    failures are kept, not the traced masks.
    """
    failures = {name: [] for name in MASK_CHECKS}
    seconds = dict.fromkeys(["raster", "detect", "form_rings", *MASK_CHECKS], 0.0)

    def timed(part, run, *args):
        start = time.perf_counter()
        try:
            return run(*args)
        finally:
            seconds[part] += time.perf_counter() - start

    count = 0
    for w in range(1, 5):
        for h in range(1, 5):
            for mask in range(1 << (w * h)):
                raster = timed("raster", raster_from_int, w, h, mask)
                d = timed("detect", detect, raster)
                grid, _ = timed("form_rings", form_rings, d)
                for name, check in MASK_CHECKS.items():
                    try:
                        problems = timed(name, check, raster, d, grid)
                    except Exception as e:
                        problems = [f"{type(e).__name__}: {e}"]
                    failures[name] += [f"{w}x{h} mask {mask}: {p}" for p in problems]
                count += 1
    return Sweep(count, failures, seconds)


def seconds_per_call(run, *args, repeat: int, gc_off: bool = False) -> list[float]:
    """The perf_counter seconds of each of `repeat` calls of run(*args).

    With gc_off, the cyclic collector is off during each call, so a
    collection that earlier allocations set off cannot land in one. Each
    result is freed after its call is timed.
    """
    seconds = []
    for _ in range(repeat):
        if gc_off:
            gc.disable()
        try:
            start = time.perf_counter()
            result = run(*args)
            seconds.append(time.perf_counter() - start)
        finally:
            if gc_off:
                gc.enable()
        del result
    return seconds
