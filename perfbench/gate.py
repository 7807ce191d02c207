"""Correctness gate: certify one op's output against its input mask.

Uses only the brute-force oracle `gridtrace.verify.rasterize_even_odd`, the
public `BitRaster` and the benchmark's own parsing: GeoJSON is read back with
`json.loads`, WKT with the small parser below, and world coordinates are
inverted to grid corners with the world file's own terms, which is exact
because they are binary fractions. Every check returns a list of error
strings; an empty list means the output is exact.
"""

from __future__ import annotations

import json
import re

import numpy as np

from gridtrace.raster import BitRaster
from gridtrace.verify import rasterize_even_odd

import inputs

def check_cli_output(text: str, fmt: str, mask: np.ndarray) -> list[str]:
    """Check `delineate` output in format fmt ("geojson", "rings-geojson", "wkt")."""
    try:
        if fmt == "wkt":
            polygons = parse_wkt(text)
        else:
            polygons = parse_geojson(text, "LineString" if fmt == "rings-geojson" else "Polygon")
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        return [f"unparseable {fmt} output: {exc}"]
    try:
        grid = [[world_to_grid(ring) for ring in poly] for poly in polygons]
    except ValueError as exc:
        return [str(exc)]
    if fmt == "rings-geojson":
        return check_rings([ring for poly in grid for ring in poly], mask)
    return check_polygons(grid, mask)


def check_library_output(result, mask: np.ndarray) -> list[str]:
    """Check a `(grid_rings, world_rings)` pair returned by `form_rings`."""
    grid_rings, world_rings = result
    grid = [np.asarray(r) for r in grid_rings]
    errors = check_rings(grid, mask)
    if [len(r) for r in world_rings] != [len(r) for r in grid]:
        return errors + ["world rings do not pair up with grid rings"]
    if grid:
        try:
            back = world_to_grid(np.concatenate(world_rings))
        except ValueError as exc:
            return errors + [str(exc)]
        if not np.array_equal(back, np.concatenate(grid)):
            errors.append("world rings do not map to the grid rings")
    return errors


def check_rings(rings: list[np.ndarray], mask: np.ndarray) -> list[str]:
    """Every ring is a valid closed orthogonal ring on the corner grid and
    the even-odd fill of all rings reproduces the mask."""
    h, w = mask.shape
    errors = ring_shape_errors(rings, w, h)
    if errors:
        return errors
    if rasterize_even_odd(rings, w, h) != BitRaster(w, h, mask):
        errors.append("even-odd fill of the rings differs from the input mask")
    return errors


def check_polygons(polygons: list[list[np.ndarray]], mask: np.ndarray) -> list[str]:
    """Polygon output: the ring checks, one polygon per exterior ring, and
    every hole inside its own exterior.

    A hole sits inside its own exterior when it lies in the exterior's
    bounding box and the polygons' fills partition the mask: the global
    fill (already equal to the mask) is the xor of the polygon fills, so
    their sizes add up to the mask's only if no two fills overlap, and a
    hole filed under the wrong polygon always makes two of them overlap.
    """
    rings = [ring for poly in polygons for ring in poly]
    errors = check_rings(rings, mask)
    if errors:
        return errors
    exteriors = sum(1 for r in rings if area2(r) < 0)
    if exteriors != len(polygons):
        errors.append(f"{len(polygons)} polygons for {exteriors} negative-area rings")
    covered = 0
    for p, (outer, *holes) in enumerate(polygons):
        if area2(outer) >= 0 or any(area2(hole) <= 0 for hole in holes):
            return errors + [f"polygon {p}: exterior or hole has the wrong orientation"]
        lo, hi = outer.min(axis=0), outer.max(axis=0)
        for k, hole in enumerate(holes):
            if (hole.min(axis=0) < lo).any() or (hole.max(axis=0) > hi).any():
                return errors + [f"polygon {p}: hole {k} is not inside its exterior"]
        shifted = [r - lo for r in (outer, *holes)]
        covered += rasterize_even_odd(shifted, int(hi[0] - lo[0]), int(hi[1] - lo[1])).marked_count()
    if covered != int(mask.sum()):
        errors.append(
            f"polygon fills cover {covered} pixels, the mask {int(mask.sum())}: "
            "a hole is not inside its own exterior"
        )
    return errors


def ring_shape_errors(rings: list[np.ndarray], w: int, h: int) -> list[str]:
    errors = []
    if not rings:
        return errors
    lengths = np.array([len(r) for r in rings])
    if lengths.min() < 5:
        return [f"ring {int(np.argmin(lengths))} has fewer than 4 vertices"]
    coords = np.concatenate(rings)
    if coords.ndim != 2 or coords.shape[1] != 2:
        return ["rings are not lists of coordinate pairs"]
    if coords.min() < 0 or (coords[:, 0] > w).any() or (coords[:, 1] > h).any():
        errors.append("a ring leaves the corner grid")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    open_ = (coords[starts] != coords[ends - 1]).any(axis=1)
    if open_.any():
        errors.append(f"ring {int(np.argmax(open_))} is not closed")
    step = np.diff(coords, axis=0)
    inner = np.ones(len(step), dtype=bool)
    inner[ends[:-1] - 1] = False  # steps that cross from one ring to the next
    bad = inner & ((step[:, 0] == 0) == (step[:, 1] == 0))
    if bad.any():
        errors.append(f"non-orthogonal or zero step at coordinate {int(np.argmax(bad))}")
    return errors


def area2(ring: np.ndarray) -> int:
    """Twice the shoelace area on y-down grid axes: negative for exteriors."""
    x, y = ring[:, 0], ring[:, 1]
    return int((x[:-1] * y[1:] - x[1:] * y[:-1]).sum())


def world_to_grid(ring) -> np.ndarray:
    """Invert world positions to integer grid corners, exactly or not at all."""
    pts = np.asarray(ring, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("ring is not a list of [lon, lat] positions")
    grid = np.stack([(pts[:, 0] - inputs.LON0) / inputs.A, (pts[:, 1] - inputs.LAT0) / inputs.E], axis=1)
    if not np.isfinite(grid).all() or (grid != np.round(grid)).any():
        raise ValueError(f"world position does not invert to a grid corner near {pts[0].tolist()}")
    return grid.astype(np.int64)


def parse_geojson(text: str, geom_type: str) -> list[list]:
    """Features of a FeatureCollection as lists of rings (one ring per LineString)."""
    doc = json.loads(text)
    if doc.get("type") != "FeatureCollection":
        raise ValueError("not a FeatureCollection")
    out = []
    for feature in doc["features"]:
        geometry = feature["geometry"]
        if geometry["type"] != geom_type:
            raise ValueError(f"expected {geom_type}, got {geometry['type']}")
        coords = geometry["coordinates"]
        out.append([coords] if geom_type == "LineString" else coords)
    return out


_WKT_TOKEN = re.compile(r"\s*(\(|\)|,|[^(),]+)")


def parse_wkt(text: str) -> list[list[list[tuple[float, float]]]]:
    """POLYGON / MULTIPOLYGON text as a list of polygons, each a list of rings."""
    text = text.strip()
    if text == "MULTIPOLYGON EMPTY":
        return []
    for tag, depth in (("MULTIPOLYGON", 3), ("POLYGON", 2)):
        if text.startswith(tag + " "):
            tree = _nested(text[len(tag) + 1 :])
            return tree if depth == 3 else [tree]
    raise ValueError(f"unknown WKT geometry {text[:20]!r}")


def _nested(body: str):
    """Parse '((x y, x y), (x y))'-style nesting into lists of (x, y) tuples."""
    stack: list[list] = [[]]
    pos = 0
    for m in _WKT_TOKEN.finditer(body):
        if m.start() != pos:
            raise ValueError(f"unexpected text at offset {pos}")
        pos = m.end()
        tok = m.group(1)
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        elif tok != ",":
            x, y = tok.split()
            stack[-1].append((float(x), float(y)))
    if pos != len(body.rstrip()) or len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("malformed WKT nesting")
    return stack[0][0]
