"""Brute-force oracles for certifying the fast paths: traced rings against
the source mask, and the text mask parsers against per-byte readers.

These deliberately share no logic with the fast paths in `raster`, `trace`
and `rings`: pixels and window codes are read one at a time, boundary edges
are enumerated straight off the pixel grid, rasterization casts rays
against ring segments, the ring walk steps one vertex at a time, hole
assembly ray-casts every hole against every exterior, and PBM headers and
the P1 and ASCII-grid payloads are read one byte at a time (only the
parsing of a header's dimension tokens is shared). All are meant for tests
and verification runs, not for speed.
"""

from __future__ import annotations

import array

import numpy as np

from .raster import (
    BitRaster,
    MaskDimensionError,
    MaskError,
    MaskHeaderError,
    MaskTruncatedError,
    _clip,
    _parse_pbm_dim,
)
from .rings import Polygon, RingTraversalError, TopologyError

__all__ = [
    "assemble_polygons_bruteforce",
    "boundary_edges",
    "classify_window",
    "parse_ascii_grid_bruteforce",
    "parse_pbm_ascii_bruteforce",
    "pbm_header_bruteforce",
    "pixel_at",
    "rasterize_even_odd",
    "unit_edges",
    "walk_rings_bruteforce",
]

# An undirected unit segment on the corner grid, endpoints in lexicographic order.
Edge = tuple[tuple[int, int], tuple[int, int]]


def pixel_at(raster: BitRaster, x: int, y: int) -> bool:
    """Return the pixel state; coordinates outside the grid are unmarked."""
    if 0 <= x < raster.width and 0 <= y < raster.height:
        return bool(raster._bits[y, x])
    return False


def classify_window(raster: BitRaster, x: int, y: int) -> int:
    """Classify the 2x2 window centered on corner (x, y) into its 4-bit code.

    Reference for `trace.window_types`, one pixel read at a time.
    """
    return (
        (1 if pixel_at(raster, x - 1, y - 1) else 0)
        + (2 if pixel_at(raster, x, y - 1) else 0)
        + (4 if pixel_at(raster, x - 1, y) else 0)
        + (8 if pixel_at(raster, x, y) else 0)
    )


def boundary_edges(raster: BitRaster) -> set[Edge]:
    """Every pixel side separating a marked pixel from an unmarked one.

    Out-of-bounds neighbors count as unmarked, so raster borders of marked
    pixels are included.
    """
    grid = raster._bits.tolist()
    w, h = raster.width, raster.height
    edges: set[Edge] = set()
    for y in range(h):
        row = grid[y]
        for x in range(w):
            if not row[x]:
                continue
            if y == 0 or not grid[y - 1][x]:
                edges.add(((x, y), (x + 1, y)))
            if y == h - 1 or not grid[y + 1][x]:
                edges.add(((x, y + 1), (x + 1, y + 1)))
            if x == 0 or not row[x - 1]:
                edges.add(((x, y), (x, y + 1)))
            if x == w - 1 or not row[x + 1]:
                edges.add(((x + 1, y), (x + 1, y + 1)))
    return edges


def unit_edges(grid_rings) -> list[Edge]:
    """Decompose rings into undirected unit segments, with multiplicity."""
    edges: list[Edge] = []
    for ring in grid_rings:
        pts = np.asarray(ring).tolist()
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 == x1:
                lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
                edges.extend(((x0, y), (x0, y + 1)) for y in range(lo, hi))
            else:
                lo, hi = (x0, x1) if x0 < x1 else (x1, x0)
                edges.extend(((x, y0), (x + 1, y0)) for x in range(lo, hi))
    return edges


def rasterize_even_odd(grid_rings, width: int, height: int) -> BitRaster:
    """Fill rings back into a raster with the even-odd rule.

    Pixel (x, y) is marked iff a +x ray from its center (x+0.5, y+0.5)
    crosses ring segments an odd number of times. Centers sit at
    half-integer ordinates and segments on integer lines, so no crossing is
    ever ambiguous.
    """
    if width == 0 or height == 0:
        return BitRaster(width, height)
    # crossings[y, c]: segments at corner column c spanning pixel row y; the
    # ray from pixel (x, y) crosses those with c >= x + 1.
    crossings = np.zeros((height, width + 1), dtype=np.int64)
    for ring in grid_rings:
        pts = np.asarray(ring).tolist()
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 == x1:
                if not 0 <= x0 <= width:
                    raise ValueError(f"ring segment column {x0} outside corner grid")
                lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
                crossings[max(lo, 0) : min(hi, height), x0] += 1
    right_counts = crossings[:, ::-1].cumsum(axis=1)[:, ::-1]
    bits = (right_counts[:, 1:] % 2).astype(bool)
    return BitRaster(width, height, bits)


def walk_rings_bruteforce(delineation) -> tuple[np.ndarray, np.ndarray]:
    """Reference for the ring walk of `rings.form_rings`, one vertex at a
    time: the int64 walk order and ring bounds, ring k being
    order[bounds[k]:bounds[k + 1]].

    Each entry corner not yet visited, in list order, starts a ring that
    follows next_ids back to it. The arena must be a `Delineation`, whose
    next_ids are a permutation of the vertices and whose corners are
    vertices. Raises RingTraversalError, with form_rings' message, if no
    entry corner reaches some vertex.
    """
    # A memoryview and an int64 array.array hold no int object per vertex.
    nxt = memoryview(np.ascontiguousarray(delineation.next_ids, dtype=np.int64))
    n = len(nxt)
    visited = bytearray(n)
    order = array.array("q")
    bounds = array.array("q", [0])
    append = order.append
    for corner in delineation.corners.tolist():
        if visited[corner]:
            continue
        i = corner
        while True:
            append(i)
            visited[i] = 1
            i = nxt[i]
            if i == corner:
                break
        bounds.append(len(order))
    if len(order) != n:
        v = visited.index(0)
        x, y = int(delineation.xs[v]), int(delineation.ys[v])
        raise RingTraversalError(
            f"{n - len(order)} vertices unreachable from any entry corner;"
            f" the lowest is vertex {v} at ({x}, {y})"
        )
    return np.frombuffer(order, dtype=np.int64), np.frombuffer(bounds, dtype=np.int64)


def assemble_polygons_bruteforce(grid_rings) -> list[Polygon]:
    """Reference for `rings.assemble_polygons`, by containment search.

    Negative-area rings are exteriors; each positive-area ring attaches as
    a hole of the smallest exterior that strictly contains it. Containment
    is tested at a point a quarter pixel inside the hole off the midpoint
    of its first unit step, which keeps the test point inside one pixel
    and clear of every boundary. All arithmetic is on Python ints, with
    corners scaled by 4 so that the test point is a lattice point, so
    rings assemble exactly at any magnitude. O(holes x exteriors). Raises
    like the fast path: ValueError for the lowest-index ring with a step
    that is neither horizontal nor vertical, naming that step's corners;
    then TopologyError for the lowest-index zero-area ring, then for the
    lowest-index hole no exterior contains.
    """
    rings = [np.asarray(r).tolist() for r in grid_rings]
    for k, ring in enumerate(rings):
        for a, b in zip(ring, ring[1:]):
            if a[0] != b[0] and a[1] != b[1]:
                raise ValueError(f"ring {k} steps diagonally from {tuple(a)} to {tuple(b)}")
    areas = [_shoelace(r) for r in rings]
    outer_ids = []
    hole_ids = []
    for i, a in enumerate(areas):
        if a < 0:
            outer_ids.append(i)
        elif a > 0:
            hole_ids.append(i)
        else:
            raise TopologyError(f"ring {i} has zero area", ring_index=i)

    bboxes = {}
    for o in outer_ids:
        xs, ys = zip(*rings[o])
        bboxes[o] = 4 * min(xs), 4 * min(ys), 4 * max(xs), 4 * max(ys)
    holes_of: dict[int, list[int]] = {o: [] for o in outer_ids}
    for hid in hole_ids:
        px, py = _hole_interior_point(rings[hid])
        best = -1
        for o in outer_ids:
            x0, y0, x1, y1 = bboxes[o]
            if not (x0 < px < x1 and y0 < py < y1):
                continue
            if _point_in_ring(px, py, rings[o]) and (best < 0 or areas[o] > areas[best]):
                best = o
        if best < 0:
            start = tuple(rings[hid][0])
            raise TopologyError(
                f"hole ring {hid} at {start} is inside no exterior ring", ring_index=hid
            )
        holes_of[best].append(hid)
    return [Polygon(o, holes_of[o]) for o in outer_ids]


def _shoelace(ring: list) -> int:
    # Twice the signed area.
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ring, ring[1:]))


def _hole_interior_point(ring: list) -> tuple[int, int]:
    # Four times the point a quarter pixel along the inward normal off the
    # midpoint of the first unit step. For a positive-area ring (y-down)
    # the interior lies to the right of travel.
    (x0, y0), (x1, y1) = ring[0], ring[1]
    dx, dy = (x1 > x0) - (x1 < x0), (y1 > y0) - (y1 < y0)
    return 4 * x0 + 2 * dx - dy, 4 * y0 + 2 * dy + dx


def _point_in_ring(px: int, py: int, ring: list) -> bool:
    # Even-odd ray cast along +x, on corners scaled by 4. Unless the hole's
    # first step has zero length, py is off every scaled grid line, so the
    # ray grazes no vertex.
    crossings = 0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        if x0 == x1 and 4 * x0 > px and 4 * min(y0, y1) < py < 4 * max(y0, y1):
            crossings += 1
    return crossings % 2 == 1


def pbm_header_bruteforce(data: bytes, magic: bytes) -> tuple[int, int, int]:
    """Reference for PBM header reading, one byte at a time: the width,
    height and payload offset, or the same exception class and message.

    Fields are separated by whitespace as bytes.isspace defines it, and a
    '#' comment runs to the next LF or CR. The payload starts one byte past
    the last field's terminating whitespace byte.
    """
    tokens: list[bytes] = []
    i = 0
    n = len(data)
    while len(tokens) < 3:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (10, 13):
                i += 1
            continue
        if i >= n:
            raise MaskHeaderError(f"header ended after {len(tokens)} of 3 fields")
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i] != ord("#"):
            i += 1
        tokens.append(data[start:i])
    if i < n and data[i : i + 1].isspace():
        i += 1
    if tokens[0] != magic:
        raise MaskHeaderError(f"expected {magic.decode()} magic, got {_clip(tokens[0])!r}")
    w, h = map(_parse_pbm_dim, tokens[1:3])
    return w, h, i


def parse_pbm_ascii_bruteforce(data: bytes) -> BitRaster:
    """Reference for P1 parsing, one header and payload byte at a time: the
    same bits, or the same exception class and message."""
    w, h, offset = pbm_header_bruteforce(data, b"P1")
    need = w * h
    if len(data) - offset < need:
        raise MaskTruncatedError(
            f"payload has {len(data) - offset} bytes, too few for {w}x{h} pixels"
        )
    values = np.empty(need, dtype=bool)
    got = 0
    for i in range(offset, len(data)):
        ch = data[i]
        if ch in (48, 49):  # '0' / '1'
            if got == need:
                raise MaskDimensionError(
                    f"more than {need} pixels for {w}x{h}:"
                    f" digit {need + 1} at byte {i} of the P1 file"
                )
            values[got] = ch == 49
            got += 1
        elif data[i : i + 1].isspace():
            continue
        else:
            raise MaskError(f"unexpected byte {data[i:i+1]!r} at byte {i} of the P1 file")
    if got < need:
        raise MaskTruncatedError(f"payload has {got} pixels, expected {need}")
    return BitRaster(w, h, values.reshape(h, w))


def parse_ascii_grid_bruteforce(data: bytes) -> BitRaster:
    """Reference for ASCII-grid parsing, one line and character at a time."""
    text = data.decode("latin-1")
    lines = [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return BitRaster(0, 0)
    w = len(lines[0])
    for i, line in enumerate(lines):
        if len(line) != w:
            raise MaskDimensionError(f"row {i} has {len(line)} columns, expected {w}")
        bad = set(line) - {"0", "1"}
        if bad:
            raise MaskError(f"invalid characters {sorted(bad)} in row {i}")
    bits = np.array([[ch == "1" for ch in line] for line in lines], dtype=bool)
    return BitRaster(w, len(lines), bits.reshape(len(lines), w))
