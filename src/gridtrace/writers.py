"""Serialize traced rings to GeoJSON, WKT, and benchmark tables to CSV.

Ring winding is passed through untouched: with a north-up transform the
traced orientation already gives counterclockwise exteriors and clockwise
holes, so nothing is re-wound here.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .rings import Polygon, WorldRing

__all__ = ["write_geojson", "write_timing_csv", "write_wkt"]


def _check_closed(rings: Iterable[WorldRing]) -> None:
    for i, ring in enumerate(rings):
        if len(ring) < 2 or list(ring[0]) != list(ring[-1]):
            raise ValueError(f"ring {i} is not closed (first position must equal last)")


def write_geojson(
    world_rings: list[WorldRing],
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
    convention otherwise. Non-finite positions raise ValueError, since JSON
    has no NaN or Infinity.

    `mode` is the older spelling of the same choice, still passed by the
    benchmark's self-tests: "rings" ignores `polygons`, "polygons" needs it.
    """
    if mode not in (None, "polygons", "rings"):
        raise ValueError(f"unknown GeoJSON mode {mode!r}")
    if mode == "polygons" and polygons is None:
        raise ValueError("mode='polygons' requires the polygon grouping")
    _check_closed(world_rings)
    if polygons is None or mode == "rings":
        features = [_feature("LineString", _positions(ring)) for ring in world_rings]
    else:
        features = [
            _feature(
                "Polygon",
                [_positions(world_rings[poly.outer])]
                + [_positions(world_rings[h]) for h in poly.holes],
            )
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


def _positions(ring: WorldRing) -> list[list[float]]:
    return np.asarray(ring, dtype=float).tolist()


def write_wkt(world_rings: list[WorldRing], polygons: list[Polygon]) -> str:
    """Serialize polygons as WKT: POLYGON for one, MULTIPOLYGON otherwise.

    Non-finite positions raise ValueError naming the ring, since WKT has no
    NaN or Infinity.
    """
    _check_closed(world_rings)
    bodies = [
        "("
        + ", ".join(
            _wkt_ring(world_rings, idx) for idx in [poly.outer] + list(poly.holes)
        )
        + ")"
        for poly in polygons
    ]
    if not bodies:
        return "MULTIPOLYGON EMPTY"
    if len(bodies) == 1:
        return f"POLYGON {bodies[0]}"
    return "MULTIPOLYGON (" + ", ".join(bodies) + ")"


def _wkt_ring(world_rings: list[WorldRing], idx: int) -> str:
    ring = np.asarray(world_rings[idx], dtype=float)
    if not np.isfinite(ring).all():
        raise ValueError(f"ring {idx} has a non-finite position")
    pts = ring.tolist()
    return "(" + ", ".join(f"{_num(lon)} {_num(lat)}" for lon, lat in pts) + ")"


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def write_timing_csv(records) -> str:
    """Render benchmark records as CSV, one row per (size, p) configuration."""
    lines = ["size,p,trials,mean_seconds,stddev_seconds"]
    lines.extend(
        f"{r.size},{r.p},{r.trials},{r.mean_seconds},{r.stddev_seconds}" for r in records
    )
    return "\n".join(lines) + "\n"
