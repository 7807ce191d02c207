"""Serialize traced rings to GeoJSON, WKT, and benchmark tables to CSV.

Each distinct coordinate value is formatted once, and numpy indexing picks
its token for every position; GeoJSON has the same bytes as json.dumps gives.

Ring winding is passed through untouched: with a north-up transform the
traced orientation already gives counterclockwise exteriors and clockwise
holes, so nothing is re-wound here.
"""

from __future__ import annotations

import json
from itertools import pairwise

import numpy as np

from .rings import Polygon, RingSet

__all__ = ["write_geojson", "write_timing_csv", "write_wkt"]


def _checked(world_rings) -> RingSet:
    """The rings as a float RingSet. Raises ValueError naming the lowest ring
    that is not closed, then the lowest ring with a non-finite position:
    JSON and WKT have no NaN or Infinity."""
    rings = RingSet.of(world_rings, float)
    coords, starts, ends = rings.coords, rings.offsets[:-1], rings.offsets[1:]
    closed = ends - starts >= 2
    full = np.flatnonzero(closed)
    closed[full] = (coords[starts[full]] == coords[ends[full] - 1]).all(axis=1)
    if not closed.all():
        raise ValueError(f"ring {np.argmin(closed)} is not closed (first position must equal last)")
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        ring = np.searchsorted(rings.offsets, np.argmin(finite), side="right") - 1
        raise ValueError(f"ring {ring} has a non-finite position")
    return rings


def write_geojson(
    world_rings,
    polygons: list[Polygon] | None = None,
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
    rings = _checked(world_rings)
    if polygons is None or mode == "rings":
        features = _ring_texts(rings, _json_numbers, "[%s, %s]", _FEATURE % "LineString")
    else:
        texts = _ring_texts(rings, _json_numbers, "[%s, %s]", "[%s]")
        features = _polygon_texts(texts, polygons, _FEATURE % "Polygon")
        del texts  # the features hold a copy
    crs_member = "" if crs is None else ', "crs": ' + json.dumps(crs, allow_nan=False)
    return '{"type": "FeatureCollection", "features": [' + ", ".join(features) + "]" + crs_member + "}"


_FEATURE = '{"type": "Feature", "geometry": {"type": "%s", "coordinates": [%%s]}, "properties": {}}'


def write_wkt(world_rings, polygons: list[Polygon]) -> str:
    """Serialize polygons as WKT: POLYGON for one, MULTIPOLYGON otherwise.
    Open rings and non-finite positions raise ValueError naming the ring."""
    texts = _ring_texts(_checked(world_rings), _wkt_numbers, "%s %s", "(%s)")
    bodies = _polygon_texts(texts, polygons, "(%s)")
    del texts  # the bodies hold a copy
    if not bodies:
        return "MULTIPOLYGON EMPTY"
    if len(bodies) == 1:
        return f"POLYGON {bodies[0]}"
    return "MULTIPOLYGON (" + ", ".join(bodies) + ")"


def _ring_texts(rings: RingSet, numbers, position: str, ring: str) -> list[str]:
    """Each ring's text in the `ring` template, of positions in the `position`
    template. `numbers` turns a column's distinct values, told apart by their
    bits in its own dtype so that -0.0 keeps its sign, into their tokens."""
    head, mid, tail = position.split("%s")
    pieces = np.empty(2 * len(rings.coords), dtype=object)
    affixes = [(", " + head, mid), ("", tail)]  # each ring's text drops its first ", "
    for i, (col, (before, after)) in enumerate(zip(rings.coords.T, affixes, strict=True)):
        keys, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        tokens = [before + t + after for t in numbers(keys.view(col.dtype).tolist())]
        pieces[i::2] = np.array(tokens, dtype=object)[inverse]
    pieces = pieces.tolist()
    return [ring % "".join(pieces[2 * s : 2 * e])[2:] for s, e in pairwise(rings.offsets.tolist())]


def _polygon_texts(texts: list[str], polygons: list[Polygon], template: str) -> list[str]:
    return [template % ", ".join([texts[p.outer], *[texts[h] for h in p.holes]]) for p in polygons]


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
