"""Shared helpers for the test suite."""

import numpy as np

from gridtrace import BitRaster, MaskError, RingTraversalError, detect, form_rings, signed_area
from gridtrace.verify import (
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
        order, bounds = walk_rings_bruteforce(delineation.next_ids, delineation.corners)
        closed = np.insert(order, bounds[1:], order[bounds[:-1]])
        xs, ys = np.asarray(delineation.xs)[closed], np.asarray(delineation.ys)[closed]
        oracle = np.stack([xs, ys], axis=1).tolist(), (bounds + np.arange(len(bounds))).tolist()
    except RingTraversalError as e:
        oracle = str(e)
    return fast, oracle


def raster_from_int(width: int, height: int, mask: int) -> BitRaster:
    """Raster whose row-major bits are the binary digits of `mask`."""
    bits = ((mask >> np.arange(width * height)) & 1).astype(bool).reshape(height, width)
    return BitRaster(width, height, bits)


def traced_vertices(raster: BitRaster) -> tuple[list, list]:
    """(x, y) of every vertex in `detect`'s arena, and of every entry corner."""
    d = detect(raster)
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
    for k, ring in enumerate(grid_rings):
        pts = np.asarray(ring).tolist()
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
    total = sum(signed_area(r) for r in grid_rings)
    if total != -marked_count:
        errors.append(f"area sum {total} != -{marked_count}")
    return errors
