"""Ring formation: walk circular vertex lists into closed coordinate rings.

Every ring starts at its first-listed entry corner and follows next links
back to it; it is emitted in grid coordinates and, through the
grid-to-world transform, in (longitude, latitude). Rings that contain
several entry corners are emitted once.

The walk runs in numpy passes by list contraction over a ruling set
(Cole & Vishkin, 1986). All entry corners step along the links at once,
each stopping at the next corner, which cuts the rings into short
segments. The corners then form a permutation a fraction of the size;
its local minima by corner index step along it the same way, and so on
until every ring is down to one corner. Each segment is finally copied to
where its corner lands. Total work is O(vertices). Once fewer than 1024
walkers or corners are left, they step on one vertex at a time
in Python, so a long ring with few corners costs no numpy call per vertex.

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
    # Narrow indices halve the bytes every gather and scatter of the walk moves.
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    if len(corners) and not (corners[1:] > corners[:-1]).all():
        _, first = np.unique(corners, return_index=True)
        corners = corners[np.sort(first)]
    walk, bounds = _walk(nxt.astype(index), corners.astype(index))
    if len(walk) != n:
        raise RingTraversalError(f"{n - len(walk)} vertices unreachable from any entry corner")

    # Materialize all rings in bulk: gather walk-ordered coordinates and
    # insert each ring's closing point. Per-vertex or per-ring Python work
    # here would dominate the pipeline on large rasters.
    closed = np.insert(walk, bounds[1:], walk[bounds[:-1]])
    del walk
    grid = np.empty((len(closed), 2), np.int64)
    grid[:, 0] = xs[closed]
    grid[:, 1] = ys[closed]
    del closed
    world = _world(grid, transform)
    # Ring k's closing point shifts every later ring by k.
    offsets = bounds.astype(np.int64) + np.arange(len(bounds))
    return RingSet(grid, offsets), RingSet(world, offsets)


def _world(grid: np.ndarray, t: AffineTransform) -> np.ndarray:
    """`t.apply` on every grid corner, in one (N, 2) buffer: the same
    operations in the same order, so the same bits."""
    world = np.empty(grid.shape)
    x, y = grid[:, 0], grid[:, 1]
    term = np.empty(len(grid))
    with np.errstate(over="ignore", invalid="ignore"):
        for out, (p, q, r) in zip(world.T, ((t.a, t.b, t.c), (t.d, t.e, t.f))):
            np.multiply(p, x, out=out)
            np.multiply(q, y, out=term)
            out += term
            out += r
    return world


# Below this many walkers, or heads to order, the rest is stepped one
# vertex at a time in Python. A numpy pass per step would cost more below
# a few hundred, and numpy keeps freed arrays of under 1 KiB in a cache of
# its own, so passes over fewer than 1024 elements also leave memory held.
_SCALAR_BELOW = 1024


def _walk(nxt: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk the cycles of the permutation `nxt` that hold one of the
    distinct `heads`: ring k is order[bounds[k]:bounds[k + 1]], it starts at
    the first-listed head on its cycle, and rings come in the order of those
    heads. Cycles without a head are left out of `order`.

    List contraction over a ruling set: every head walks at once to the
    next head, which cuts the cycles into segments; the heads then form a
    smaller permutation, ordered the same way by `_cycles`; and each
    segment is copied to where its head lands. Total work is O(n).
    """
    n, m = len(nxt), len(heads)
    index = nxt.dtype
    if m < _SCALAR_BELOW:
        return _scalar_walk(nxt, heads)
    head_id = np.full(n, -1, index)
    head_id[heads] = np.arange(m, dtype=index)
    succ = np.empty(m, index)  # the head each segment runs into
    length = np.empty(m, index)
    # Segment walk. Step s records where each walker still going is, so
    # the record of walker w at step s is vertex s of segment w.
    vertex = np.empty(n - m, index)
    walker_of = np.empty(n - m, index)
    ends = [0]  # step s's records are ends[s - 1]:ends[s]
    cur, walker = heads, np.arange(m, dtype=index)
    while len(cur) >= _SCALAR_BELOW:
        cur = nxt[cur]
        hid = head_id[cur]
        done = hid >= 0
        # Index arrays, not boolean masks: numpy picks with a random mask
        # several times slower.
        at = np.flatnonzero(done)
        succ[walker[at]] = hid[at]
        length[walker[at]] = len(ends)
        at = np.flatnonzero(~done)
        cur, walker = cur[at], walker[at]
        del hid, done, at
        vertex[ends[-1] : ends[-1] + len(cur)] = cur
        walker_of[ends[-1] : ends[-1] + len(cur)] = walker
        ends.append(ends[-1] + len(cur))
    # Scalar tail: the last walkers step on one vertex at a time, so a long
    # segment costs no numpy call per vertex.
    tail = array.array(index.char)
    tail_lengths = []
    step, links, heads_at = len(ends) - 1, memoryview(nxt), memoryview(head_id)
    for w, v in zip(walker.tolist(), cur.tolist()):
        begin = len(tail)
        v = links[v]
        while heads_at[v] < 0:
            tail.append(v)
            v = links[v]
        tail_lengths.append(len(tail) - begin)
        succ[w] = heads_at[v]
        length[w] = step + 1 + len(tail) - begin
    del head_id, heads_at, links

    head_order, head_bounds = _cycles(succ)

    # Expand: segment w starts where the segments before it in head order end.
    seg = length[head_order]
    seg_end = np.cumsum(seg, dtype=index)
    start = np.empty(m, index)
    start[head_order] = seg_end - seg
    order = np.empty(seg_end[-1], index)
    order[start] = heads
    pos = start[walker_of[: ends[-1]]]
    for s in range(1, len(ends)):
        pos[ends[s - 1] : ends[s]] += s
    order[pos] = vertex[: ends[-1]]
    del pos, vertex, walker_of
    if tail_lengths:
        tail_lengths = np.array(tail_lengths, index)
        first = np.cumsum(tail_lengths) - tail_lengths
        shift = np.repeat(start[walker] + step + 1 - first, tail_lengths)
        order[shift + np.arange(len(tail), dtype=index)] = np.frombuffer(tail, index)
    bounds = np.zeros(len(head_bounds), index)
    bounds[1:] = seg_end[head_bounds[1:] - 1]
    return order, bounds


def _scalar_walk(nxt: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_walk` one vertex at a time, for few heads."""
    links = memoryview(nxt)
    visited = bytearray(len(nxt))
    order = array.array(nxt.dtype.char)
    bounds = array.array(nxt.dtype.char, [0])
    for head in heads.tolist():
        v = head
        while not visited[v]:
            visited[v] = 1
            order.append(v)
            v = links[v]
        if len(order) > bounds[-1]:
            bounds.append(len(order))
    return np.frombuffer(order, nxt.dtype), np.frombuffer(bounds, nxt.dtype)


def _cycles(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every cycle of the permutation `succ` as (order, bounds), each cycle
    from its least id and the cycles in the order of those ids.

    One-element cycles are set aside; on the rest, the local minima of id
    (`i <= succ[i]` and `i <= pred[i]`) hold each cycle's least id and at
    most half of its ids, so `_walk` over them contracts by at least half.
    """
    m = len(succ)
    index = succ.dtype
    ids = np.arange(m, dtype=index)
    fixed = succ == ids
    loops, moving = np.flatnonzero(fixed).astype(index), np.flatnonzero(~fixed).astype(index)
    del fixed
    if not len(moving):
        return ids, np.arange(m + 1, dtype=index)
    rank = np.empty(m, index)
    rank[moving] = ids[: len(moving)]
    sub = rank[succ[moving]]
    pred = np.empty_like(sub)
    at = ids[: len(sub)]
    pred[sub] = at
    minima = np.flatnonzero((at <= sub) & (at <= pred)).astype(index)
    del rank, pred
    sub_order, sub_bounds = _walk(sub, minima)
    # Merge the one-element cycles back in by least id.
    sub_order = moving[sub_order]
    starts = sub_order[sub_bounds[:-1]]
    before = np.searchsorted(loops, starts).astype(index)  # loops ahead of each long cycle
    after = np.searchsorted(starts, loops).astype(index)  # long cycles ahead of each loop
    order = np.empty(m, index)
    order[np.repeat(before, np.diff(sub_bounds)) + ids[: len(sub_order)]] = sub_order
    loop_at = sub_bounds[after] + ids[: len(loops)]
    order[loop_at] = loops
    bounds = np.empty(len(loops) + len(starts) + 1, index)
    bounds[ids[: len(starts)] + before] = sub_bounds[:-1] + before
    bounds[ids[: len(loops)] + after] = loop_at
    bounds[-1] = m
    return order, bounds


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
