"""Serialize traced rings to GeoJSON, WKT, and benchmark tables to CSV.

Both writers build the whole text with one join over one array of pieces,
laid out ring by ring in polygon order: the ring's head, an x token and a
y token per position, and the ring's tail. Each column's token values are
formatted once, and numpy indexing picks every position's tokens; a ring's
first position takes its x token from a table without the leading ", ".
World rings from `form_rings` through a north-up transform take their
token values from the grid axes, `AffineTransform.apply` on every integer
between a grid column's min and max, with no sort; other ring sets take
them from each column's distinct values, found by `np.unique`. The heads
and tails of polygons and of the whole collection are written into the
head and tail slots of their first and last rings, which the polygon
offsets give. GeoJSON has the same bytes as json.dumps gives.

Ring winding is passed through untouched: with a north-up transform the
traced orientation already gives counterclockwise exteriors and clockwise
holes, so nothing is re-wound here.
"""

from __future__ import annotations

import json

import numpy as np

from .rings import Polygon, PolygonSet, RingSet

__all__ = ["write_geojson", "write_timing_csv", "write_wkt"]


def write_geojson(
    world_rings,
    polygons: PolygonSet | list[Polygon] | None = None,
    crs: str | None = None,
    *,
    mode: str | None = None,
) -> str:
    """Serialize rings as a GeoJSON FeatureCollection.

    Given the `polygons` grouping, emits one Polygon feature per exterior,
    outer ring first and holes after it; without it, one LineString
    feature per ring. Positions are [longitude, latitude]. `crs` attaches a
    named CRS as a foreign member; coordinates are WGS84 lon/lat by
    convention otherwise. Non-finite positions raise ValueError naming the
    ring, since JSON has no NaN or Infinity.

    `mode` is the older spelling of the same choice, still passed by the
    benchmark's self-tests: "rings" ignores `polygons`, "polygons" needs it.
    """
    if mode not in (None, "polygons", "rings"):
        raise ValueError(f"unknown GeoJSON mode {mode!r}")
    if mode == "polygons" and polygons is None:
        raise ValueError("mode='polygons' requires the polygon grouping")
    crs_member = "" if crs is None else ', "crs": ' + json.dumps(crs, allow_nan=False)
    collection = ('{"type": "FeatureCollection", "features": [', "]" + crs_member + "}")
    if polygons is None or mode == "rings":
        polygons, kind, ring = None, "LineString", ("", "")
    else:
        polygons, kind, ring = PolygonSet.of(polygons), "Polygon", ("[", "]")
    feature = (
        '{"type": "Feature", "geometry": {"type": "%s", "coordinates": [' % kind,
        ']}, "properties": {}}',
    )
    return _text(world_rings, polygons, _json_numbers, "[%s, %s]", collection, feature, ring)


def write_wkt(world_rings, polygons: PolygonSet | list[Polygon]) -> str:
    """Serialize polygons as WKT: POLYGON for one, MULTIPOLYGON otherwise.
    Open rings and non-finite positions raise ValueError naming the ring."""
    polygons = PolygonSet.of(polygons)
    collection = {0: ("MULTIPOLYGON EMPTY", ""), 1: ("POLYGON ", "")}.get(
        len(polygons), ("MULTIPOLYGON (", ")")
    )
    return _text(world_rings, polygons, _wkt_numbers, "%s %s", collection, ("(", ")"), ("(", ")"))


def _text(world_rings, polygons, numbers, position, collection, polygon, ring) -> str:
    """The collection's head, its polygons and its tail, with ", " between
    neighbours. Each polygon is its rings between the `polygon` (head,
    tail), each ring its positions between the `ring` ones, and each
    position fills the `position` template. `polygons` None makes each
    ring, in order, a polygon of its own. `numbers` turns a column's token
    values, which `_columns` gives, into their tokens.

    Raises ValueError naming the lowest ring that is not closed (NaN ends
    count as equal, and -0.0 as 0.0), then the lowest ring with a
    non-finite position (JSON and WKT have no NaN or Infinity), then the
    first polygon, ring by ring, that refers to an index that is not a
    ring's."""
    rings = RingSet.of(world_rings, float)
    coords, offsets, n = rings.coords, rings.offsets, len(rings)
    starts, ends = offsets[:-1], offsets[1:]
    closed = ends - starts >= 2
    full = np.flatnonzero(closed)
    # Row takes and a test per column: fancy rows and `.all(axis=1)` cost more.
    a, b = (np.take(coords, i, axis=0).T for i in (starts[full], ends[full] - 1))
    # Two NaN ends are equal here, so that such a ring is named as non-finite.
    same = (a == b) | (a != a) & (b != b)
    closed[full] = same[0] & same[1]
    if not closed.all():
        raise ValueError(f"ring {np.argmin(closed)} is not closed (first position must equal last)")
    # Token codes run below 3N + 6, since no column has more than N token
    # values, so they are int32 where that fits. Index operands are intp:
    # numpy gathers and scatters by other integer types about half as fast.
    store = np.int32 if 3 * len(coords) + 6 < 2**31 else np.int64
    values, codes = zip(*_columns(rings, store))
    if not all(np.isfinite(v).all() for v in values):
        finite = np.isfinite(coords).all(axis=1)  # only the whole buffer names the ring
        k = np.searchsorted(offsets, np.argmin(finite), side="right") - 1
        raise ValueError(f"ring {k} has a non-finite position")
    if polygons is None:
        polygons = PolygonSet(np.arange(n), np.arange(n + 1))
    members, groups = polygons.rings, polygons.offsets
    bad = np.flatnonzero((members < 0) | (members >= n))
    if bad.size:
        k = np.searchsorted(groups, bad[0], side="right") - 1
        raise ValueError(f"polygon {k} refers to ring {members[bad[0]]}, but there are {n} rings")
    if not len(polygons):
        return "".join(collection)

    # The token table: a ring's first x, every other x, every y; then the
    # heads of a ring, of a polygon's first ring and of the collection's
    # first ring, and the tails of a ring, of a polygon's last ring and of
    # the collection's last ring.
    before, mid, after = position.split("%s")
    xs, ys = (numbers(v.tolist()) for v in values)
    table = np.array(
        [before + t + mid for t in xs]
        + [", " + before + t + mid for t in xs]
        + [t + after for t in ys]
        + [", " + ring[0], ", " + polygon[0] + ring[0], collection[0] + polygon[0] + ring[0]]
        + [ring[1], ring[1] + polygon[1], ring[1] + polygon[1] + collection[1]],
        dtype=object,
    )
    head_code = 2 * len(xs) + len(ys)

    # Ring j of the output, ring members[j] of the input, fills the pieces
    # from head_at[j] to tail_at[j]; its positions are first[j] onwards.
    lengths = np.diff(offsets)[members]
    tail_at = np.cumsum(2 * lengths + 2) - 1
    head_at = tail_at - 2 * lengths - 1
    first = np.cumsum(lengths) - lengths
    pieces = np.empty(tail_at[-1] + 1, store)
    pieces[head_at] = head_code
    pieces[head_at[groups[1:-1]]] += 1
    pieces[0] += 2
    pieces[tail_at] = head_code + 3
    pieces[tail_at[groups[1:] - 1]] += 1
    pieces[-1] += 1
    # The index in the coordinates of every position, ring by ring.
    src = np.repeat((offsets[members] - first).astype(np.intp, copy=False), lengths)
    src += np.arange(len(src))
    # Each code column is dropped once gathered, so that src, the widest
    # array here, is held beside one of them.
    x_of, y_of = codes
    del codes
    x = x_of[src]
    del x_of
    y = y_of[src]
    del y_of, src
    x += len(xs)
    x[first] -= len(xs)
    y += 2 * len(xs)
    xy = np.empty((len(x), 2), store)
    xy[:, 0], xy[:, 1] = x, y
    del x, y
    at = np.ones(len(pieces), bool)
    at[head_at] = at[tail_at] = False
    pieces[at] = xy.ravel()
    del xy, at
    # Each rebinding drops the array before it, so the join holds only the
    # list and the text.
    pieces = table[pieces]
    pieces = pieces.tolist()
    return "".join(pieces)


def _columns(rings: RingSet, store) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each coordinate column's token values and every position's code
    into them, as `store` integers.

    World rings that `form_rings` made through a north-up transform (b and
    d zero, of either sign) from grid corners >= 0 read their values off
    the grid axes: lon depends on grid x alone and lat on y alone, so a
    column's values are the transform of every integer from its grid min
    to its max, and a code is the grid value minus the min.
    `AffineTransform.apply` on (x, 0) and (0, y) gives the bits that
    `form_rings` gets from it on every corner: the same expressions in the
    same order, and b*y and d*x are one signed zero for all x, y >= 0.
    Both ends of an axis are used positions, and the values between them
    lie between theirs, so an axis holds a non-finite value only where a
    position does. Every other ring set, and an axis longer than its
    column, takes the column's distinct values, told apart by their bits
    in its own dtype so that -0.0 keeps its sign."""
    source = rings._source
    if source is not None and source[1].b == 0 and source[1].d == 0 and len(source[0]):
        grid, t = source
        axes = [(col.min(), col.max()) for col in grid.T]
        if all(0 <= lo and hi - lo < len(grid) for lo, hi in axes):
            (x0, x1), (y0, y1) = axes
            tables = t.apply(np.arange(x0, x1 + 1), 0)[0], t.apply(0, np.arange(y0, y1 + 1))[1]
            return [
                (v, np.subtract(col, lo, out=np.empty(len(col), store), casting="unsafe"))
                for v, col, (lo, _) in zip(tables, grid.T, axes)
            ]
    return [_distinct(col, store) for col in rings.coords.T]


def _distinct(col: np.ndarray, store) -> tuple[np.ndarray, np.ndarray]:
    keys, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
    return keys.view(col.dtype), inverse.astype(store)


def _json_numbers(values: list) -> list[str]:
    """The tokens json.dumps writes for the values, from one call."""
    return json.dumps(values)[1:-1].split(", ")


def _wkt_numbers(values: list) -> list[str]:
    return [str(int(v)) if float(v).is_integer() else repr(v) for v in values]


def write_timing_csv(records) -> str:
    """Render benchmark records as CSV, one row per (size, p) configuration."""
    lines = ["size,p,trials,mean_seconds,stddev_seconds"]
    lines.extend(
        f"{r.size},{r.p},{r.trials},{r.mean_seconds},{r.stddev_seconds}" for r in records
    )
    return "\n".join(lines) + "\n"
