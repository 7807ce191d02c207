"""Ring formation: walk circular vertex lists into closed coordinate rings.

Every ring starts at its first-listed entry corner and follows next links
back to it; it is emitted in grid coordinates and in (longitude,
latitude), which `AffineTransform.apply` gives for all grid corners in one
call. Rings that contain several entry corners are emitted once.

The walk labels every vertex with its place instead of building the order
step by step, by list contraction over a ruling set (Cole & Vishkin, 1986).
All entry corners step along the links at once, each stopping at the next
corner, which cuts the rings into short segments and gives every vertex
its segment and its distance along it. The corners then form a permutation
a fraction of the size, weighted by segment lengths; its local minima by
corner index step along it the same way, and so on, until every corner
knows its ring's leader (the first-listed corner on it) and its offset
from there. One bincount over leaders sizes the rings and one scatter
puts every vertex in place. Total work is O(vertices). Walkers, once fewer
than 1024 are left, and permutations with fewer than 1024 elements to
label go one element at a time in Python, so a long ring with few corners
costs no numpy call per vertex.

A ring set is a `RingSet` in GeoArrow's ragged layout: one (N, 2) buffer of
int64 grid corners or float world positions, cut into closed rings by an
offsets array. Hand-built rings as lists of coordinate pairs are accepted
everywhere rings are consumed. The world set that `form_rings` returns also
keeps, privately, the grid corners and the transform it came from, so that
the writers can read a north-up set's tokens off the grid axes without
sorting its positions; any other ring set, a copy of that one's buffers
included, has no such record.

Orientation falls out of the wiring: with y growing downward, outer rings
have negative shoelace area and hole rings positive. A north-up transform
(negative e) flips that to the conventional counterclockwise outer /
clockwise hole winding in world coordinates.

Polygon assembly gives every hole its parent border in one scan, after
Suzuki & Abe (CVGIP 30(1), 1985): the unit edge just left of a hole's
top-left edge belongs to the exterior that owns it or to another of that
exterior's holes. Sorting the vertical unit edges once makes this
O(P log P) in the vertical perimeter P. The polygons come out as a
`PolygonSet` in GeoArrow's polygon layout: one array of ring indices, each
polygon's outer ring first and its holes after it, cut into polygons by an
offsets array. One `np.lexsort` of the rings by owning exterior puts them
in that order, with no object per polygon. A hand-built list of `Polygon`s
is accepted wherever polygons are consumed.
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
    "PolygonSet",
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

    # The grid corners and the transform that `form_rings` made the world
    # positions from, or None for any other ring set.
    _source: tuple[np.ndarray, AffineTransform] | None = None

    def __init__(self, coords: np.ndarray, offsets: np.ndarray):
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"ring coordinates have shape {coords.shape}, not (N, 2)")
        if coords.dtype.kind not in "biuf" or coords.dtype.itemsize > 8:
            raise ValueError(
                f"ring coordinates hold {coords.dtype} values,"
                " not ints or floats of at most 8 bytes"
            )
        _check_offsets(offsets, len(coords), "ring")
        coords.setflags(write=False)
        offsets.setflags(write=False)
        self.coords, self.offsets = coords, offsets

    @classmethod
    def of(cls, rings, dtype) -> RingSet:
        """Pack hand-built rings with `dtype` coordinates; a RingSet passes
        through. Raises ValueError naming the first ring that is not (k, 2);
        an empty ring, [], packs as (0, 2)."""
        if isinstance(rings, RingSet):
            return rings
        arrays = [np.asarray(r, dtype=dtype) for r in rings]
        for k, a in enumerate(arrays):
            if a.shape == (0,):
                arrays[k] = a.reshape(0, 2)
            elif a.ndim != 2 or a.shape[1] != 2:
                raise ValueError(f"ring {k} has shape {a.shape}, not (k, 2)")
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


def _check_offsets(offsets: np.ndarray, size: int, item: str) -> None:
    """Raise ValueError naming the problem unless `offsets` are 1-D
    integers rising from 0 to `size`; `item` names what they cut out."""
    if offsets.ndim != 1 or offsets.dtype.kind not in "iu":
        raise ValueError(
            f"{item} offsets are {offsets.dtype} of shape {offsets.shape}, not 1-D integers"
        )
    if not len(offsets) or offsets[0] != 0 or offsets[-1] != size:
        span = f"run from {offsets[0]} to {offsets[-1]}" if len(offsets) else "are empty"
        raise ValueError(f"{item} offsets {span}, not from 0 to {size}")
    shrinking = np.flatnonzero(offsets[1:] < offsets[:-1])
    if shrinking.size:
        k = shrinking[0]
        raise ValueError(
            f"{item} {k} ends at offset {offsets[k + 1]}, before its start {offsets[k]}"
        )


@dataclass
class Polygon:
    """One outer ring with its holes, both as indices into the ring set."""

    outer: int
    holes: list[int] = field(default_factory=list)


class PolygonSet(Sequence):
    """Polygons in GeoArrow's polygon layout, as indices into a ring set:
    polygon k is rings[offsets[k]:offsets[k+1]], outer ring first.
    Indexing and iteration build Polygon(outer, holes) items from the
    arrays on access; changing an item leaves the set as it was.

    Raises ValueError naming the problem for ring indices that are not 1-D
    integers, for offsets that do not rise from 0 to len(rings), and for a
    polygon with no rings."""

    def __init__(self, rings: np.ndarray, offsets: np.ndarray):
        if rings.ndim != 1 or rings.dtype.kind not in "iu":
            raise ValueError(
                f"polygon rings are {rings.dtype} of shape {rings.shape}, not 1-D integers"
            )
        _check_offsets(offsets, len(rings), "polygon")
        empty = np.flatnonzero(offsets[1:] == offsets[:-1])
        if empty.size:
            raise ValueError(f"polygon {empty[0]} has no rings, so no outer ring")
        rings.setflags(write=False)
        offsets.setflags(write=False)
        self.rings, self.offsets = rings, offsets

    @classmethod
    def of(cls, polygons) -> PolygonSet:
        """Pack hand-built Polygons; a PolygonSet passes through. Indices are
        read in the dtype numpy gives them, so that a float or an int beyond
        uint64 is refused, not cast."""
        if isinstance(polygons, PolygonSet):
            return polygons
        members = [[p.outer, *p.holes] for p in polygons]
        offsets = np.cumsum([0] + [len(m) for m in members], dtype=np.int64)
        rings = [k for m in members for k in m]
        return cls(np.array(rings) if rings else np.empty(0, np.int64), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> Polygon:
        k = range(len(self))[k]  # negative indexes count from the end, as in a list
        outer, *holes = self.rings[self.offsets[k] : self.offsets[k + 1]].tolist()
        return Polygon(outer, holes)

    def __iter__(self):
        rings = self.rings.tolist()
        for start, end in pairwise(self.offsets.tolist()):
            yield Polygon(rings[start], rings[start + 1 : end])


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

    Raises RingTraversalError if an arena field is not 1-D or, unless
    empty, not integer, the fields differ in length, next_ids is not a
    permutation of the vertices, an entry corner is not a vertex, or no
    entry corner reaches some vertex. Empty fields are read as int64.
    """
    fields = {f: np.asarray(getattr(delineation, f)) for f in ("xs", "ys", "next_ids", "corners")}
    for name, a in fields.items():
        if a.ndim != 1:
            raise RingTraversalError(f"arena field {name} has shape {a.shape}, not 1-D")
        if not a.size:
            fields[name] = a.astype(np.int64)
        elif a.dtype.kind not in "iu":
            raise RingTraversalError(f"arena field {name} holds {a.dtype} values, not integers")
    xs, ys, nxt, corners = fields.values()
    n, m = len(nxt), len(corners)
    problem = link_problem(nxt, corners)
    if not len(xs) == len(ys) == n:
        problem = f"arena has {len(xs)} xs, {len(ys)} ys and {n} next_ids"
    if problem:
        raise RingTraversalError(problem)
    # Narrow indices halve the bytes every gather and scatter of the walk
    # moves. Places in the closed buffer run to n plus the ring count.
    index = np.int32 if n + m <= np.iinfo(np.int32).max else np.int64
    if m and not (corners[1:] > corners[:-1]).all():
        _, first = np.unique(corners, return_index=True)
        corners = corners[np.sort(first)]
    heads = corners.astype(index)
    next_head, size, vertex, segment, place = _segments(nxt.astype(index), heads)
    if len(vertex) != n:
        raise RingTraversalError(f"{n - len(vertex)} vertices unreachable from any entry corner")
    leader, offset = _rank(next_head, size)
    # Ring k runs from its leader, the first-listed corner on it and the only
    # one at offset 0, round to a repeat of it; every corner's segment
    # starts at its offset from there.
    leaders = np.flatnonzero(offset == 0)
    offsets = np.zeros(len(leaders) + 1, np.int64)
    np.add.accumulate(np.bincount(leader, size)[leaders].astype(np.int64) + 1, out=offsets[1:])
    start = np.empty(len(heads), index)
    start[leaders] = offsets[:-1]
    place += (start[leader] + offset)[segment]
    del next_head, size, leader, offset, start, segment
    closed = np.empty(offsets[-1], index)
    closed[place] = vertex
    closed[offsets[1:] - 1] = heads[leaders]
    del place, vertex
    grid = np.empty((len(closed), 2), np.int64)
    grid[:, 0] = xs[closed]
    grid[:, 1] = ys[closed]
    del closed
    world = RingSet(np.column_stack(transform.apply(grid[:, 0], grid[:, 1])), offsets)
    world._source = (grid, transform)
    return RingSet(grid, offsets), world


# Below this many walkers, or moving elements to rank, the rest is stepped
# one element at a time in Python. A numpy pass per step would cost more
# below a few hundred, and numpy keeps freed arrays of under 1 KiB in a
# cache of its own, so passes over fewer than 1024 elements also leave
# memory held.
_SCALAR_BELOW = 1024


def _segments(
    succ: np.ndarray, heads: np.ndarray, weight: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Cut the cycles of the permutation `succ` at the distinct `heads` into
    segments, each running from a head to just before the next head.

    Returns (next_head, total, element, segment, dist). Segment k, from
    heads[k], runs into heads[next_head[k]] and weighs total[k]. Every
    element a head reaches, the heads first, is element[i], at the weighted
    distance dist[i] from the head of segment segment[i]. Element v weighs
    weight[v], or 1 without `weight`. Cycles without a head are left out.
    """
    n, m = len(succ), len(heads)
    index = succ.dtype
    ids = np.arange(m, dtype=index)
    head_id = np.full(n, -1, index)
    head_id[heads] = ids
    next_head, total = np.empty(m, index), np.empty(m, index)
    element, segment, dist = np.empty(n, index), np.empty(n, index), np.empty(n, index)
    element[:m], segment[:m], dist[:m] = heads, ids, 0
    # All walkers step at once; `walked` is the weight each has passed.
    cur, walker, end = heads, ids, m
    walked = np.ones(m, index) if weight is None else weight[heads]
    while len(cur) >= _SCALAR_BELOW:
        cur = succ[cur]
        hid = head_id[cur]
        # Index arrays, not boolean masks: numpy picks with a random mask
        # several times slower.
        at = np.flatnonzero(hid >= 0)
        next_head[walker[at]] = hid[at]
        total[walker[at]] = walked[at]
        at = np.flatnonzero(hid < 0)
        cur, walker, walked = cur[at], walker[at], walked[at]
        del hid, at
        run = slice(end, end + len(cur))
        element[run], segment[run], dist[run] = cur, walker, walked
        end = run.stop
        walked += 1 if weight is None else weight[cur]
    # Scalar tail: the last walkers step one element at a time and keep
    # only the elements, so a long segment costs no numpy call per element.
    # Walker w's run is tail[bounds[w]:bounds[w + 1]].
    tail, bounds, ends = array.array(index.char), [0], []
    links, heads_at = memoryview(succ), memoryview(head_id)
    for v in cur.tolist():
        v = links[v]
        while heads_at[v] < 0:
            tail.append(v)
            v = links[v]
        bounds.append(len(tail))
        ends.append(heads_at[v])
    del head_id, heads_at, links
    tail, bounds = np.frombuffer(tail, index), np.array(bounds, index)
    passed = np.arange(len(tail) + 1, dtype=index)  # weight passed along the tail
    if weight is not None:
        np.add.accumulate(weight[tail], out=passed[1:])
    walked -= passed[bounds[:-1]]
    next_head[walker] = ends
    total[walker] = walked + passed[bounds[1:]]
    lengths = bounds[1:] - bounds[:-1]
    run = slice(end, end + len(tail))
    element[run], segment[run] = tail, walker.repeat(lengths)
    dist[run] = walked.repeat(lengths) + passed[:-1]
    return next_head, total, element[: run.stop], segment[: run.stop], dist[: run.stop]


def _rank(succ: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label every element of the permutation `succ` with its cycle's least
    element, its leader, and its offset: the weight from the leader up to
    it, where element v weighs weight[v].

    Fixed points lead themselves. The local minima (`v < succ[v]` and
    `v < pred[v]`) hold every other cycle's least element and at most half
    of its elements; `_segments` cuts the cycles at them, and the minima,
    weighted by their segments, are ranked the same way.
    """
    m = len(succ)
    index = succ.dtype
    ids = np.arange(m, dtype=index)
    leader, offset = ids.copy(), np.zeros(m, index)
    moving = np.flatnonzero(succ != ids)
    if len(moving) < _SCALAR_BELOW:
        # In rising order, each cycle is first met at its least element.
        links, weights, leads, offsets = map(memoryview, (succ, weight, leader, offset))
        for first in moving.tolist():
            if leads[first] != first:
                continue
            v, walked = links[first], weights[first]
            while v != first:
                leads[v], offsets[v] = first, walked
                walked += weights[v]
                v = links[v]
        return leader, offset
    pred = np.empty_like(succ)
    pred[succ] = ids
    minima = np.flatnonzero((ids < succ) & (ids < pred)).astype(index)
    del pred, moving
    next_min, total, element, segment, dist = _segments(succ, minima, weight)
    lead, off = _rank(next_min, total)
    leader[element] = minima[lead][segment]
    offset[element] = off[segment] + dist
    return leader, offset


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


def assemble_polygons(grid_rings) -> PolygonSet:
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

    Returns a PolygonSet: exteriors in ring order, each followed by its
    holes in ascending ring order. Raises TopologyError for zero-area
    rings (the lowest index is reported) and for holes that no exterior
    surrounds, and ValueError for float coordinates. Bool and integer
    coordinates are read as int64. Areas are summed exactly in int64, on
    corners moved by the set's minimum, so a set far from the origin
    assembles as it would near it.
    """
    rings = RingSet.of(grid_rings, np.int64)
    if rings.coords.dtype.kind == "f":
        raise ValueError(f"grid rings hold {rings.coords.dtype} coordinates, not integers")
    coords = rings.coords.astype(np.int64, copy=False)
    n = len(rings)
    point_ring = np.repeat(np.arange(n), np.diff(rings.offsets))
    # Shifted to start at 0: areas, keys and directions do not change, and
    # corners far from the origin keep their products in range.
    x, y = (c - c.min(initial=np.iinfo(np.int64).max) for c in coords.T)

    # Each ring's cross products are summed exactly in int64: running[k]
    # sums the steps before point k, and a ring's own steps run from its
    # first point to its last.
    running = np.zeros(len(coords) + 1, np.int64)
    np.cumsum(x[:-1] * y[1:] - x[1:] * y[:-1], out=running[1:-1])
    first = rings.offsets[:-1]
    twice_area = running[np.maximum(rings.offsets[1:] - 1, first)] - running[first]
    flat = np.flatnonzero(twice_area == 0)
    if len(flat):
        i = int(flat[0])
        raise TopologyError(f"ring {i} has zero area", ring_index=i)

    # Steps between consecutive points, minus those that join one ring's
    # last point to the next ring's first.
    step_ring = point_ring[:-1]
    inside = step_ring == point_ring[1:]

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
        start = tuple(coords[rings.offsets[hid]].tolist())
        raise TopologyError(
            f"hole ring {hid} at {start} is inside no exterior ring", ring_index=hid
        )
    # Every exterior owns itself. Sorted by owner, exterior first, and then
    # stably by ring index, polygon k is exterior k and then its holes.
    members = np.lexsort((twice_area > 0, owner[:n]))
    offsets = np.append(np.flatnonzero(twice_area[members] < 0), n)
    return PolygonSet(members, offsets)
