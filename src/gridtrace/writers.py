"""Serialize traced rings to GeoJSON, WKT, and benchmark tables to CSV.

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
    # One tolist() for all rings; JSON needs every position as a list anyway.
    positions = rings.coords.tolist()
    lists = [positions[s:e] for s, e in pairwise(rings.offsets.tolist())]
    if polygons is None or mode == "rings":
        features = [_feature("LineString", ring) for ring in lists]
    else:
        features = [
            _feature("Polygon", [lists[poly.outer]] + [lists[h] for h in poly.holes])
            for poly in polygons
        ]
    collection: dict = {"type": "FeatureCollection", "features": features}
    if crs is not None:
        collection["crs"] = crs
    return json.dumps(collection, allow_nan=False)


def _feature(geom_type: str, coordinates) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": geom_type, "coordinates": coordinates},
        "properties": {},
    }


def write_wkt(world_rings, polygons: list[Polygon]) -> str:
    """Serialize polygons as WKT: POLYGON for one, MULTIPOLYGON otherwise.
    Open rings and non-finite positions raise ValueError naming the ring."""
    rings = _checked(world_rings)
    # One ring's lists at a time: all at once take several times the text's memory.
    bodies = [
        "(" + ", ".join(_wkt_ring(rings[idx].tolist()) for idx in [poly.outer, *poly.holes]) + ")"
        for poly in polygons
    ]
    if not bodies:
        return "MULTIPOLYGON EMPTY"
    if len(bodies) == 1:
        return f"POLYGON {bodies[0]}"
    return "MULTIPOLYGON (" + ", ".join(bodies) + ")"


def _wkt_ring(positions: list[list[float]]) -> str:
    return "(" + ", ".join(f"{_num(lon)} {_num(lat)}" for lon, lat in positions) + ")"


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def write_timing_csv(records) -> str:
    """Render benchmark records as CSV, one row per (size, p) configuration."""
    lines = ["size,p,trials,mean_seconds,stddev_seconds"]
    lines.extend(
        f"{r.size},{r.p},{r.trials},{r.mean_seconds},{r.stddev_seconds}" for r in records
    )
    return "\n".join(lines) + "\n"
