"""Detection of orthogonal boundary vertices on a binary raster.

A 2x2 pixel window sits on every corner position (x, y) with
0 <= x <= width and 0 <= y <= height; scan order is rows top to bottom,
left to right within a row. Each window is classified by a 4-bit code built
from its four pixels (out-of-bounds pixels read as unmarked):

    bit 1: pixel (x-1, y-1)    bit 2: pixel (x,   y-1)
    bit 4: pixel (x-1, y  )    bit 8: pixel (x,   y  )

A boundary vertex sits at the window center wherever a horizontal boundary
edge meets a vertical one. Codes 0, 3, 5, 10, 12 and 15 are flat or empty
and produce nothing; codes 6 and 9 are diagonal touches and produce two
coinciding vertices so touching regions stay separate, non-overlapping
rings; every other code produces one vertex.

Vertices are wired into circular linked lists by two pairings. Along each
corner row the vertices pair off left to right into horizontal edges, and
down each corner column they pair off top to bottom into vertical edges.
Which way an edge runs depends only on which side of it is marked: bit 8 of
a horizontal edge's left end, bit 2 of a vertical edge's lower end. Of the
two copies at a code-6 corner, the second closes the edge from the left, so
the row pairing takes the copies in swapped order. Top-left corner vertices
(codes 7, 8 and the second copy of 9) are recorded as ring entry points;
code 7 is kept because interior holes begin there.

Vertices live in a flat arena in scan order; links are arena indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import BitRaster

__all__ = ["Delineation", "TraceError", "classify_window", "detect", "window_types"]

# Window codes that yield a vertex; 6 and 9 yield two coinciding vertices.
_ACTIONABLE = np.zeros(16, dtype=bool)
_ACTIONABLE[[1, 2, 4, 6, 7, 8, 9, 11, 13, 14]] = True


class TraceError(RuntimeError):
    """Internal wiring inconsistency; raised instead of emitting bad geometry."""


@dataclass
class Delineation:
    """Vertex arena plus ring entry points produced by `detect`.

    xs/ys give each vertex's corner coordinates, next_ids the successor in
    its circular list, corners the arena indices of ring entry points in
    scan order.
    """

    xs: list[int]
    ys: list[int]
    next_ids: list[int]
    corners: list[int]

    @property
    def vertex_count(self) -> int:
        return len(self.xs)

    def dump(self) -> str:
        """One line per vertex: 'index x y next is_entry', for golden tests."""
        entry = set(self.corners)
        return "\n".join(
            f"{i} {self.xs[i]} {self.ys[i]} {self.next_ids[i]} {1 if i in entry else 0}"
            for i in range(len(self.xs))
        )


def classify_window(raster: BitRaster, x: int, y: int) -> int:
    """Classify the 2x2 window centered on corner (x, y) into its 4-bit code."""
    return (
        (1 if raster.get(x - 1, y - 1) else 0)
        + (2 if raster.get(x, y - 1) else 0)
        + (4 if raster.get(x - 1, y) else 0)
        + (8 if raster.get(x, y) else 0)
    )

def window_types(raster: BitRaster) -> np.ndarray:
    """Window codes for the whole (height+1) x (width+1) corner grid at once."""
    h, w = raster.height, raster.width
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1 : h + 1, 1 : w + 1] = raster._bits
    return (
        padded[: h + 1, : w + 1]
        + (padded[: h + 1, 1:] << 1)
        + (padded[1:, : w + 1] << 2)
        + (padded[1:, 1:] << 3)
    )


def detect(raster: BitRaster) -> Delineation:
    """Find all boundary vertices and wire them into circular linked lists.

    Vertices that do not pair off along rows and columns, or links that
    leave a vertex without a successor or with two predecessors, raise
    TraceError rather than returning partial geometry.
    """
    codes = window_types(raster).ravel()
    hits = np.flatnonzero(_ACTIONABLE[codes])
    diagonal = (codes[hits] == 6) | (codes[hits] == 9)
    at = np.repeat(hits, 1 + diagonal)
    code = codes[at]
    del codes, hits, diagonal
    second = np.zeros(len(at), dtype=bool)
    second[1:] = at[1:] == at[:-1]
    ys, xs = np.divmod(at, raster.width + 1)
    del at
    n = len(code)
    if n % 2:
        raise TraceError(f"{n} boundary vertices cannot pair off into edges")

    # Row pairs (a left of b) and column pairs (a above b); at a code-6
    # corner the second copy closes the edge coming from the left.
    rows = np.arange(n)
    six = np.flatnonzero(second & (code == 6))
    rows[six - 1], rows[six] = six, six - 1
    # Stable sorts of 8- and 16-bit keys are radix sorts.
    cols = np.argsort(xs.astype(np.min_scalar_type(raster.width)), kind="stable")
    ha, hb, va, vb = rows[0::2], rows[1::2], cols[0::2], cols[1::2]
    if (ys[ha] != ys[hb]).any() or (xs[va] != xs[vb]).any():
        raise TraceError("boundary vertices do not pair off along rows and columns")
    # A horizontal edge runs leftward when the pixels below it are marked
    # (bit 8 of its left end); a vertical edge runs downward when the pixels
    # right of it are marked (bit 2 of its lower end).
    nxt = np.full(n, -1, dtype=np.intp)
    for a, b, forward in ((ha, hb, (code[ha] & 8) == 0), (va, vb, (code[vb] & 2) != 0)):
        nxt[np.where(forward, a, b)] = np.where(forward, b, a)
    corners = np.flatnonzero((code == 7) | (code == 8) | (second & (code == 9)))
    del code, second, rows, six, cols, ha, hb, va, vb
    if n:
        if nxt.min() < 0:
            raise TraceError("wiring left a vertex unlinked")
        if np.bincount(nxt, minlength=n).max() > 1:
            raise TraceError("vertex linked more than once; lists are not disjoint cycles")
    # One shared int object per coordinate value; ints above 256 are not
    # cached, and allocating one per vertex costs time and memory.
    values = np.arange(max(raster.width, raster.height) + 1).astype(object)
    return Delineation(values[xs].tolist(), values[ys].tolist(), nxt.tolist(), corners.tolist())
