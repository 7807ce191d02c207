"""Ring formation: walk circular vertex lists into closed coordinate rings.

Each unvisited entry corner starts a walk that follows next links back to
the start, emitting the ring in grid coordinates and, through the
grid-to-world transform, in (longitude, latitude). Rings that contain
several entry corners are emitted once.

A ring set is a `RingSet` in GeoArrow's ragged layout: one (N, 2) buffer of
int64 grid corners or float world positions, cut into closed rings by an
offsets array. Hand-built rings as lists of coordinate pairs are accepted
everywhere rings are consumed.

Orientation falls out of the wiring: with y growing downward, outer rings
have negative shoelace area and hole rings positive. A north-up transform
(negative e) flips that to the conventional counterclockwise outer /
clockwise hole winding in world coordinates.

Polygon assembly gives every hole its parent border in one scan, after
Suzuki & Abe (CVGIP 30(1), 1985): the unit edge just left of a hole's
top-left edge belongs to the exterior that owns it or to another of that
exterior's holes. Sorting the vertical unit edges once makes this
O(P log P) in the vertical perimeter P.
"""

from __future__ import annotations

import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .trace import Delineation, link_problem
from .transform import IDENTITY, AffineTransform

__all__ = [
    "Polygon",
    "RingSet",
    "RingTraversalError",
    "TopologyError",
    "assemble_polygons",
    "form_rings",
    "signed_area",
]


class RingTraversalError(RuntimeError):
    """Vertex lists are not clean circular lists covering every vertex."""


class TopologyError(ValueError):
    """Ring set cannot be assembled into polygons (e.g. orphan hole)."""

    def __init__(self, message: str, ring_index: int | None = None):
        super().__init__(message)
        self.ring_index = ring_index


class RingSet(Sequence):
    """Closed rings in one read-only (N, 2) buffer of int64 grid corners or
    float64 world positions: ring k is the view coords[offsets[k]:offsets[k+1]].

    A hand-built buffer may hold any bools, ints or floats of at most 8
    bytes. Raises ValueError naming the problem for any other buffer, or
    for offsets that are not 1-D integers rising from 0 to N."""

    def __init__(self, coords: np.ndarray, offsets: np.ndarray):
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"ring coordinates have shape {coords.shape}, not (N, 2)")
        if coords.dtype.kind not in "biuf" or coords.dtype.itemsize > 8:
            raise ValueError(
                f"ring coordinates hold {coords.dtype} values,"
                " not ints or floats of at most 8 bytes"
            )
        if offsets.ndim != 1 or offsets.dtype.kind not in "iu":
            raise ValueError(
                f"ring offsets are {offsets.dtype} of shape {offsets.shape}, not 1-D integers"
            )
        if not len(offsets) or offsets[0] != 0 or offsets[-1] != len(coords):
            span = f"run from {offsets[0]} to {offsets[-1]}" if len(offsets) else "are empty"
            raise ValueError(f"ring offsets {span}, not from 0 to {len(coords)}")
        shrinking = np.flatnonzero(offsets[1:] < offsets[:-1])
        if shrinking.size:
            k = shrinking[0]
            raise ValueError(
                f"ring {k} ends at offset {offsets[k + 1]}, before its start {offsets[k]}"
            )
        coords.setflags(write=False)
        offsets.setflags(write=False)
        self.coords, self.offsets = coords, offsets

    @classmethod
    def of(cls, rings, dtype) -> RingSet:
        """Pack hand-built rings with `dtype` coordinates; a RingSet passes through."""
        if isinstance(rings, RingSet):
            return rings
        arrays = [np.asarray(r, dtype=dtype).reshape(-1, 2) for r in rings]
        offsets = np.cumsum([0] + [len(a) for a in arrays], dtype=np.int64)
        return cls(np.concatenate([np.empty((0, 2), dtype), *arrays]), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> np.ndarray:
        k = range(len(self))[k]  # negative indexes count from the end, as in a list
        return self.coords[self.offsets[k] : self.offsets[k + 1]]

    def __iter__(self):
        # One tolist() instead of two numpy scalar lookups per ring.
        for start, end in pairwise(self.offsets.tolist()):
            yield self.coords[start:end]


@dataclass
class Polygon:
    """One outer ring with its holes, both as indices into the ring set."""

    outer: int
    holes: list[int] = field(default_factory=list)


def form_rings(
    delineation: Delineation,
    transform: AffineTransform = IDENTITY,
) -> tuple[RingSet, RingSet]:
    """Convert circular vertex lists into closed rings: int64 grid corners
    and float64 world positions, two RingSets sharing one offsets array.

    Rings come out in entry-corner (scan) order, each closed by repeating
    its first coordinate, vertex for vertex. Every step turns: traced rings
    have no straight runs. World positions that overflow come out as
    non-finite floats, without a warning; the writers refuse them.

    Raises RingTraversalError if an arena field is not integer, the fields
    differ in length, next_ids is not a permutation of the vertices, an
    entry corner is not a vertex, or no entry corner reaches some vertex.
    """
    fields = {f: np.asarray(getattr(delineation, f)) for f in ("xs", "ys", "next_ids", "corners")}
    for name, a in fields.items():
        if a.size and a.dtype.kind not in "iu":
            raise RingTraversalError(f"arena field {name} holds {a.dtype} values, not integers")
    xs, ys, nxt, corners = (a.astype(np.int64, copy=False) for a in fields.values())
    n = len(nxt)
    problem = link_problem(nxt, corners)
    if not len(xs) == len(ys) == n:
        problem = f"arena has {len(xs)} xs, {len(ys)} ys and {n} next_ids"
    if problem:
        raise RingTraversalError(problem)
    # A memoryview and an int64 array.array hold no int object per vertex;
    # scattered int objects slow a list walk once they leave the cache.
    nxt = memoryview(nxt)
    visited = bytearray(n)
    order = array.array("q")
    bounds = array.array("q", [0])
    append = order.append
    for corner in corners.tolist():
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
        raise RingTraversalError(f"{n - len(order)} vertices unreachable from any entry corner")

    # Materialize all rings in bulk: gather walk-ordered coordinates and
    # insert each ring's closing point. Per-vertex or per-ring Python work
    # here would dominate the pipeline on large rasters.
    walk = np.frombuffer(order, dtype=np.int64)
    bounds = np.frombuffer(bounds, dtype=np.int64)
    closed = np.insert(walk, bounds[1:], walk[bounds[:-1]])
    grid_coords = np.stack([xs[closed], ys[closed]], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        world_coords = np.stack(transform.apply(*grid_coords.T), axis=1)
    # Ring k's closing point shifts every later ring by k.
    offsets = bounds + np.arange(len(bounds))
    return RingSet(grid_coords, offsets), RingSet(world_coords, offsets)


def signed_area(ring) -> float:
    """Shoelace signed area of a closed ring (y-down grid axes).

    Negative for outer rings, positive for holes; exact on integer grid
    coordinates.
    """
    r = np.asarray(ring)
    if len(r) < 2:
        return 0.0
    x, y = r[:, 0], r[:, 1]
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    return float(cross.sum()) / 2


def assemble_polygons(grid_rings) -> list[Polygon]:
    """Group rings into polygons: negative-area rings are exteriors,
    positive-area rings attach as holes of the exterior of the region that
    surrounds them.

    One scanline pass finds every hole's owner. The rings' vertical
    segments are cut into unit edges keyed by (row, column), and the keys
    are sorted once. A hole's smallest key is its top row's leftmost edge;
    the nearest unit edge strictly to its left in that row bounds the
    marked run around the hole, so it must run downward (y increasing),
    and its ring owns the hole. An owner that is itself a hole hands the
    hole on to its own owner; each hand-off moves to a strictly smaller
    key, so pointer jumping reaches an exterior. Cost: O(P log P) in the
    vertical perimeter P, with arrays of size O(P).

    Exteriors come out in ring order, each with its holes in ascending ring
    order. Raises TopologyError for zero-area rings (the lowest index is
    reported) and for holes that no exterior surrounds.
    """
    rings = RingSet.of(grid_rings, np.int64)
    n = len(rings)
    point_ring = np.repeat(np.arange(n), np.diff(rings.offsets))
    x, y = rings.coords[:, 0], rings.coords[:, 1]

    # Steps between consecutive points, minus those that join one ring's
    # last point to the next ring's first.
    step_ring = point_ring[:-1]
    inside = step_ring == point_ring[1:]
    cross = np.where(inside, x[:-1] * y[1:] - x[1:] * y[:-1], 0)
    twice_area = np.bincount(step_ring, weights=cross, minlength=n)
    flat = np.flatnonzero(twice_area == 0)
    if len(flat):
        i = int(flat[0])
        raise TopologyError(f"ring {i} has zero area", ring_index=i)

    # Vertical segments cut into unit edges, each keyed by (row, column).
    seg = np.flatnonzero(inside & (x[:-1] == x[1:]) & (y[:-1] != y[1:]))
    y0, y1 = y[seg], y[seg + 1]
    span = np.abs(y1 - y0)
    first = np.cumsum(span) - span
    edge_seg = np.repeat(np.arange(len(seg)), span)
    rows = np.minimum(y0, y1)[edge_seg] + (np.arange(len(edge_seg)) - first[edge_seg])
    cols = x[seg][edge_seg]
    col0 = cols.min(initial=0)
    width = cols.max(initial=0) - col0 + 1
    keys = rows * width + (cols - col0)
    order = np.argsort(keys)
    keys = keys[order]
    edge_ring = step_ring[seg][edge_seg][order]
    downward = (y1 > y0)[edge_seg][order]

    holes = np.flatnonzero(twice_area > 0)
    top_left = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(top_left, edge_ring, keys)
    top_left = top_left[holes]
    left = np.searchsorted(keys, top_left) - 1
    prev = np.maximum(left, 0)
    found = (left >= 0) & (keys[prev] // width == top_left // width) & downward[prev]
    # Index n stands for "no owner" and owns itself, like every exterior.
    owner = np.arange(n + 1)
    owner[holes] = np.where(found, edge_ring[prev], n)
    while True:
        jumped = owner[owner]
        if np.array_equal(jumped, owner):
            break
        owner = jumped

    orphans = holes[owner[holes] == n]
    if len(orphans):
        hid = int(orphans[0])
        start = tuple(rings[hid][0])
        raise TopologyError(
            f"hole ring {hid} at {start} is inside no exterior ring", ring_index=hid
        )
    by_owner = holes[np.argsort(owner[holes], kind="stable")].tolist()
    counts = np.bincount(owner[holes], minlength=n)
    ends = np.cumsum(counts)
    starts, ends = (ends - counts).tolist(), ends.tolist()
    return [
        Polygon(o, by_owner[starts[o] : ends[o]])
        for o in np.flatnonzero(twice_area < 0).tolist()
    ]
