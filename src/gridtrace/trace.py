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

`window_types` builds the whole code grid and is the reference; `detect`
does not build it. A window holds a vertex exactly when its top or bottom
pixel row changes, and so does its left or right pixel column. `detect`
runs that test on pixel rows packed eight to a byte, then reads the four
pixels of each window only at the corners it found.

Vertices are wired into circular linked lists by two pairings. Along each
corner row the vertices pair off left to right into horizontal edges, and
down each corner column they pair off top to bottom into vertical edges.
Which way an edge runs depends only on which side of it is marked: bit 8 of
a horizontal edge's left end, bit 2 of a vertical edge's lower end. Of the
two copies at a code-6 corner, the second closes the edge from the left, so
the row pairing takes the copies in swapped order. Every pair lies on one
line exactly when each corner row and each corner column holds an even
number of vertices, so two counts check both pairings. Top-left corner
vertices (codes 7, 8 and the second copy of 9) are recorded as ring entry
points; code 7 is kept because interior holes begin there.

Vertices live in a flat arena of numpy int arrays in scan order; links
are arena indices, checked once, when the `Delineation` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import BitRaster

__all__ = ["Delineation", "RingTraversalError", "TraceError", "detect", "window_types"]


class TraceError(RuntimeError):
    """Internal wiring inconsistency; raised instead of emitting bad geometry."""


class RingTraversalError(TraceError):
    """Vertex lists are not clean circular lists covering every vertex."""


@dataclass(frozen=True)
class Delineation:
    """Vertex arena plus ring entry points, as `detect` builds them: four
    read-only 1-D int arrays. xs/ys give each vertex's corner, next_ids its
    successor in its circular list, corners the entry points in scan order.

    Built from any int sequences, it raises RingTraversalError naming the
    first bad field, vertex or corner unless every field is 1-D and integer
    (an empty one is read as int64), the fields agree in length, next_ids
    is a permutation of the vertices and every corner is one of them."""

    xs: np.ndarray
    ys: np.ndarray
    next_ids: np.ndarray
    corners: np.ndarray

    def __post_init__(self):
        for name in ("xs", "ys", "next_ids", "corners"):
            a = np.asarray(getattr(self, name))
            a = a if a.size else a.astype(np.int64)
            if a.ndim != 1:
                raise RingTraversalError(f"arena field {name} has shape {a.shape}, not 1-D")
            if a.dtype.kind not in "iu":
                raise RingTraversalError(f"arena field {name} holds {a.dtype} values, not integers")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        xs, ys, nxt, corners = self.xs, self.ys, self.next_ids, self.corners
        n = len(nxt)
        if not len(xs) == len(ys) == n:
            raise RingTraversalError(f"arena has {len(xs)} xs, {len(ys)} ys and {n} next_ids")
        # Every cycle of a permutation closes, so a walk needs no step limit.
        # The range check goes first: the bincount is as long as the largest link.
        bad = np.flatnonzero((nxt < 0) | (nxt >= n))
        if len(bad):
            raise RingTraversalError(
                f"vertex {bad[0]} is unlinked: its successor {nxt[bad[0]]} is not in 0..{n - 1}"
            )
        twice = np.flatnonzero(np.bincount(nxt, minlength=n) > 1)
        if len(twice):
            raise RingTraversalError(
                f"vertex {twice[0]} is linked more than once; lists are not disjoint cycles"
            )
        bad = corners[(corners < 0) | (corners >= n)]
        if len(bad):
            raise RingTraversalError(f"entry corner {bad[0]} is not a vertex in 0..{n - 1}")

    @property
    def vertex_count(self) -> int:
        return len(self.xs)

    def dump(self) -> str:
        """One line per vertex: 'index x y next is_entry', for golden tests."""
        xs, ys, nxt = (a.tolist() for a in (self.xs, self.ys, self.next_ids))
        entry = set(self.corners.tolist())
        return "\n".join(
            f"{i} {xs[i]} {ys[i]} {nxt[i]} {1 if i in entry else 0}" for i in range(len(xs))
        )


def window_types(raster: BitRaster) -> np.ndarray:
    """Window codes for the whole (height+1) x (width+1) corner grid at once.

    The reference for the codes `detect` reads; `detect` does not call it.
    """
    h, w = raster.height, raster.width
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1 : h + 1, 1 : w + 1] = raster._bits
    return (
        padded[: h + 1, : w + 1]
        + (padded[: h + 1, 1:] << 1)
        + (padded[1:, : w + 1] << 2)
        + (padded[1:, 1:] << 3)
    )


def _vertices(raster: BitRaster) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The vertex arena in scan order: each vertex's x, y and window code,
    and whether it is the second copy at a diagonal corner.

    Corners are found by their index into the zero-padded (h+2) x (w+2)
    pixel grid, where each indexes its window's top-left pixel. Working
    memory is the padded grid and its unpacked vertex bits, one byte per
    pixel each, plus O(1) per vertex.
    """
    h, w = raster.height, raster.width
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1 : h + 1, 1 : w + 1] = raster._bits
    packed = np.packbits(padded, axis=1)
    # The rows moved one pixel left: each byte takes the top bit of the next.
    left = packed << 1
    left[:, :-1] |= packed[:, 1:] >> 7
    # Bit x of a row of `across` is set where pixels x and x+1 differ, and
    # of `down` where pixel x differs from the one below it; moving rows
    # left commutes with the xor.
    across = packed ^ left
    down = packed[:-1] ^ packed[1:]
    vertex = (across[:-1] | across[1:]) & (down | left[:-1] ^ left[1:])
    # A bool view keeps flatnonzero on its fast path.
    hits = np.flatnonzero(np.unpackbits(vertex, axis=1, count=w + 2).view(bool))
    flat = padded.ravel().view(np.uint8)
    code = flat[hits] | flat[1:][hits] << 1 | flat[w + 2 :][hits] << 2 | flat[w + 3 :][hits] << 3
    # One repeat copies each diagonal corner and its code together: the
    # code rides in the low four bits.
    copies = 1 + ((code == 6) | (code == 9)).view(np.uint8)
    at = hits << 4
    at |= code
    del padded, flat, hits, code
    at = np.repeat(at, copies)
    second = np.zeros(len(at), dtype=bool)
    second[1:] = at[1:] == at[:-1]
    ys, xs = np.divmod(at >> 4, w + 2)
    return xs, ys, (at & 15).astype(np.uint8), second


def detect(raster: BitRaster) -> Delineation:
    """Find all boundary vertices and wire them into circular linked lists.

    Vertices that do not pair off along rows and columns, or links that
    `Delineation` refuses, raise TraceError rather than returning partial
    geometry.
    """
    if raster.width == 0 or raster.height == 0:
        # No pixels, no vertices; the padded grid may still be huge.
        return Delineation(*(np.zeros(0, dtype=np.intp) for _ in range(4)))
    return _wire(*_vertices(raster))


def _wire(xs: np.ndarray, ys: np.ndarray, code: np.ndarray, second: np.ndarray) -> Delineation:
    """Wire a vertex arena into circular linked lists.

    The arena gives each vertex's corner, its window code, which must be
    one that yields a vertex, and whether it is the second copy at a
    diagonal corner, all in scan order. Unless every corner row and column
    holds an even number of vertices, TraceError names the first odd
    corner row or column, rows first, and the first vertex on it.
    """
    # The code-6 swap below exchanges two copies at one corner, so the
    # rows' pairs lie on the same lines with or without it.
    per_col = np.bincount(xs)
    for along, counts, line in ((ys, np.bincount(ys), "row"), (xs, per_col, "column")):
        odd = np.flatnonzero(counts % 2)
        if len(odd):
            k = odd[0]
            i = np.argmax(along == k)
            raise TraceError(
                f"boundary vertices do not pair off into edges: corner {line} {k} holds"
                f" {counts[k]} of them, the first being vertex {i} at ({xs[i]}, {ys[i]})"
            )

    # Row pairs (a left of b) and column pairs (a above b); at a code-6
    # corner the second copy closes the edge coming from the left.
    n = len(code)
    rows = np.arange(n)
    six = np.flatnonzero(second & (code == 6))
    rows[six - 1], rows[six] = six, six - 1
    # Stable sorts of 8- and 16-bit keys are radix sorts.
    cols = np.argsort(xs.astype(np.min_scalar_type(len(per_col) - 1)), kind="stable")
    ha, hb, va, vb = rows[0::2], rows[1::2], cols[0::2], cols[1::2]
    # A horizontal edge runs leftward when the pixels below it are marked
    # (bit 8 of its left end); a vertical edge runs downward when the pixels
    # right of it are marked (bit 2 of its lower end).
    nxt = np.full(n, -1, dtype=np.intp)
    for a, b, forward in ((ha, hb, (code[ha] & 8) == 0), (va, vb, (code[vb] & 2) != 0)):
        nxt[np.where(forward, a, b)] = np.where(forward, b, a)
    corners = np.flatnonzero((code == 7) | (code == 8) | (second & (code == 9)))
    del code, second, rows, six, cols, ha, hb, va, vb
    return Delineation(xs, ys, nxt, corners)
