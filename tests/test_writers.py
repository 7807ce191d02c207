import json
import re

import numpy as np
import pytest

from gridtrace import (
    AffineTransform,
    BitRaster,
    Polygon,
    RingSet,
    TimingRecord,
    assemble_polygons,
    bernoulli,
    detect,
    form_rings,
    write_geojson,
    write_timing_csv,
    write_wkt,
)


def pipeline(rows, transform=None):
    d = detect(BitRaster.from_strings(rows))
    if transform is None:
        return form_rings(d)
    return form_rings(d, transform)


class TestGeojson:
    def test_single_pixel_rings_mode(self):
        _, world = pipeline(["1"])
        doc = json.loads(write_geojson(world))
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 1
        geom = doc["features"][0]["geometry"]
        assert geom["type"] == "LineString"
        assert geom["coordinates"] == [
            [0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0],
        ]

    def test_empty_collection_exact_text(self):
        assert (
            write_geojson([], polygons=[])
            == '{"type": "FeatureCollection", "features": []}'
        )

    def test_polygon_with_hole(self):
        grid, world = pipeline(["111", "101", "111"])
        doc = json.loads(write_geojson(world, assemble_polygons(grid)))
        assert len(doc["features"]) == 1
        rings = doc["features"][0]["geometry"]["coordinates"]
        assert len(rings) == 2
        assert rings[0] == [[0.0, 0.0], [0.0, 3.0], [3.0, 3.0], [3.0, 0.0], [0.0, 0.0]]
        assert rings[1] == [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0], [1.0, 1.0]]

    def test_every_ring_closes(self):
        r = bernoulli(16, 16, 0.5, 4)
        grid, world = form_rings(detect(r))
        doc = json.loads(write_geojson(world, assemble_polygons(grid)))
        for feature in doc["features"]:
            for ring in feature["geometry"]["coordinates"]:
                assert ring[0] == ring[-1]

    def test_open_ring_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            write_geojson([[(0.0, 0.0), (0.0, 1.0)]])

    def test_non_finite_positions_rejected(self):
        ring = [(0.0, 0.0), (float("inf"), 1.0), (0.0, 1.0), (0.0, 0.0)]
        with pytest.raises(ValueError, match="^ring 0 has a non-finite position$"):
            write_geojson([ring])

    def test_rings_without_grouping_polygons_with_it(self):
        grid, world = pipeline(["111", "101", "111"])
        polygons = assemble_polygons(grid)
        rings = json.loads(write_geojson(world))["features"]
        assert [f["geometry"]["type"] for f in rings] == ["LineString", "LineString"]
        assert write_geojson(world, polygons, mode="rings") == write_geojson(world)
        assert write_geojson(world, polygons, mode="polygons") == write_geojson(world, polygons)

    def test_polygons_mode_needs_grouping(self):
        with pytest.raises(ValueError):
            write_geojson([], mode="polygons")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            write_geojson([], polygons=[], mode="blobs")

    def test_crs_foreign_member(self):
        doc = json.loads(write_geojson([], polygons=[], crs="EPSG:32633"))
        assert doc["crs"] == "EPSG:32633"

    def test_properties_present(self):
        _, world = pipeline(["1"])
        doc = json.loads(write_geojson(world))
        assert doc["features"][0]["properties"] == {}


class TestWkt:
    def test_single_pixel_golden(self):
        grid, world = pipeline(["1"])
        assert (
            write_wkt(world, assemble_polygons(grid))
            == "POLYGON ((0 0, 0 1, 1 1, 1 0, 0 0))"
        )

    def test_two_disjoint_shells(self):
        grid, world = pipeline(["10", "01"])
        assert write_wkt(world, assemble_polygons(grid)) == (
            "MULTIPOLYGON (((0 0, 0 1, 1 1, 1 0, 0 0)), "
            "((1 1, 1 2, 2 2, 2 1, 1 1)))"
        )

    def test_empty(self):
        assert write_wkt([], []) == "MULTIPOLYGON EMPTY"

    def test_polygon_with_hole(self):
        grid, world = pipeline(["111", "101", "111"])
        assert write_wkt(world, assemble_polygons(grid)) == (
            "POLYGON ((0 0, 0 3, 3 3, 3 0, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))"
        )

    def test_non_integer_coordinates(self):
        tr = AffineTransform(0.5, 0.0, 0.0, 0.0, 0.5, 0.0)
        grid, world = pipeline(["1"], tr)
        assert (
            write_wkt(world, assemble_polygons(grid))
            == "POLYGON ((0 0, 0 0.5, 0.5 0.5, 0.5 0, 0 0))"
        )

    def test_open_ring_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            write_wkt([[(0.0, 0.0), (1.0, 0.0)]], [Polygon(0, [])])

    def test_non_finite_positions_rejected_naming_the_ring(self):
        outer = [(0.0, 0.0), (0.0, 3.0), (3.0, 3.0), (3.0, 0.0), (0.0, 0.0)]
        hole = [(1.0, 1.0), (float("nan"), 1.0), (2.0, 2.0), (1.0, 2.0), (1.0, 1.0)]
        with pytest.raises(ValueError, match="^ring 1 has a non-finite position$"):
            write_wkt([outer, hole], [Polygon(0, [1])])

    def test_overflowing_transform_rejected(self):
        tr = AffineTransform(1e308, 0.0, 0.0, 0.0, -1e308, 0.0)
        grid, world = pipeline(["11"], tr)
        with pytest.raises(ValueError, match="^ring 0 has a non-finite position$"):
            write_wkt(world, assemble_polygons(grid))

    def test_round_trip_recovers_world_coordinates(self):
        grid, world = pipeline(["110", "010", "011"])
        text = write_wkt(world, assemble_polygons(grid))
        parsed = [
            [tuple(float(n) for n in pt.split()) for pt in ring.split(", ")]
            for ring in re.findall(r"\(([^()]+)\)", text)
        ]
        emitted = sorted(tuple(map(tuple, r.tolist())) for r in world)
        assert sorted(tuple(r) for r in parsed) == emitted


class TestTimingCsv:
    def test_header_only(self):
        assert write_timing_csv([]) == "size,p,trials,mean_seconds,stddev_seconds\n"

    def test_single_record(self):
        text = write_timing_csv([TimingRecord(1000, 0.5, 100, 0.25, 0.01)])
        assert text.splitlines() == [
            "size,p,trials,mean_seconds,stddev_seconds",
            "1000,0.5,100,0.25,0.01",
        ]

    def test_full_grid_line_count(self):
        records = [
            TimingRecord(size, i / 10, 3, 0.1, 0.0)
            for size in (250, 500, 1000)
            for i in range(11)
        ]
        assert len(write_timing_csv(records).splitlines()) == 34


@pytest.mark.parametrize("seed", range(6))
def test_ring_set_and_list_of_arrays_give_the_same_output(seed):
    tr = AffineTransform(0.25, 0.0, -30.0, 0.0, -0.25, 60.0)
    grid, world = form_rings(detect(bernoulli(24, 20, 0.1 + 0.15 * seed, 500 + seed)), tr)
    grid_list, world_list = ([np.array(r) for r in rings] for rings in (grid, world))
    polygons = assemble_polygons(grid)
    assert assemble_polygons(grid_list) == polygons
    assert write_geojson(world_list, polygons) == write_geojson(world, polygons)
    assert write_geojson(world_list) == write_geojson(world)
    assert write_wkt(world_list, polygons) == write_wkt(world, polygons)


# Byte-identity references: the FeatureCollection as json.dumps writes it,
# and WKT formatted position by position.
NORTH_UP = AffineTransform(0.00025, 0.0, 12.5, 0.0, -0.00025, 48.1)
ROTATED = AffineTransform(0.3, 0.1, -5.0, 0.07, -0.25, 3.0)


def reference_geojson(rings, polygons=None, crs=None):
    lists = [ring.tolist() for ring in RingSet.of(rings, float)]
    if polygons is None:
        geometries = [("LineString", ring) for ring in lists]
    else:
        geometries = [("Polygon", [lists[p.outer], *[lists[h] for h in p.holes]]) for p in polygons]
    features = [
        {"type": "Feature", "geometry": {"type": kind, "coordinates": coords}, "properties": {}}
        for kind, coords in geometries
    ]
    collection = {"type": "FeatureCollection", "features": features}
    if crs is not None:
        collection["crs"] = crs
    return json.dumps(collection, allow_nan=False)


def reference_wkt(rings, polygons):
    def num(v):
        return str(int(v)) if float(v).is_integer() else repr(v)

    lists = [ring.tolist() for ring in RingSet.of(rings, float)]
    texts = ["(" + ", ".join(f"{num(x)} {num(y)}" for x, y in ring) + ")" for ring in lists]
    bodies = ["(" + ", ".join(texts[i] for i in [p.outer, *p.holes]) + ")" for p in polygons]
    if not bodies:
        return "MULTIPOLYGON EMPTY"
    if len(bodies) == 1:
        return f"POLYGON {bodies[0]}"
    return "MULTIPOLYGON (" + ", ".join(bodies) + ")"


def assert_byte_identical(rings, polygons, crs=None):
    for text, expected in [
        (write_geojson(rings, polygons, crs), reference_geojson(rings, polygons, crs)),
        (write_geojson(rings, crs=crs), reference_geojson(rings, crs=crs)),
    ]:
        assert text == expected
        json.loads(text)
    assert write_wkt(rings, polygons) == reference_wkt(rings, polygons)


class TestByteIdentity:
    @pytest.mark.parametrize("transform", [NORTH_UP, ROTATED], ids=["north-up", "rotated"])
    @pytest.mark.parametrize("seed,p", [(1, 0.3), (2, 0.5), (3, 0.7), (4, 0.05)])
    def test_random_masks(self, transform, seed, p):
        grid, world = form_rings(detect(bernoulli(40, 30, p, 900 + seed)), transform)
        assert_byte_identical(world, assemble_polygons(grid))

    @pytest.mark.parametrize("crs", ["EPSG:32633", "caf\u00e9 \"quoted\"\n"])
    def test_crs(self, crs):
        grid, world = form_rings(detect(bernoulli(12, 12, 0.5, 7)), NORTH_UP)
        assert_byte_identical(world, assemble_polygons(grid), crs)
        assert write_geojson([], crs=crs) == reference_geojson([], crs=crs)

    def test_negative_zero_and_large_values(self):
        outer = [(0.0, -0.0), (-0.0, 1e20), (1.5, 1e20), (1.5, 0.0), (0.0, -0.0)]
        hole = [(-0.0, 0.0), (1e-300, 2.0), (3.0, 0.1), (-0.0, 0.0)]
        polygons = [Polygon(0, [1]), Polygon(1)]
        assert_byte_identical([outer, hole], polygons)
        assert "[0.0, -0.0], [-0.0, 1e+20]" in write_geojson([outer, hole])
        assert "(0 0, 0 100000000000000000000, 1.5 100000000000000000000" in write_wkt(
            [outer, hole], polygons
        )

    def test_int64_grid_ring_set(self):
        grid, _ = form_rings(detect(bernoulli(16, 16, 0.5, 11)))
        assert grid.coords.dtype == np.int64
        assert_byte_identical(grid, assemble_polygons(grid))
        assert write_geojson(grid).startswith(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", '
            '"geometry": {"type": "LineString", "coordinates": [[0, '
        )

    def test_float32_ring_set(self):
        grid, world = form_rings(detect(bernoulli(16, 16, 0.5, 12)), ROTATED)
        narrow = RingSet(world.coords.astype(np.float32), world.offsets)
        assert_byte_identical(narrow, assemble_polygons(grid))
        assert "0.10000000149011612" in write_geojson(RingSet.of([[(0.1, 0.0)] * 2], np.float32))

    def test_empty_collection(self):
        assert_byte_identical([], [])
        assert_byte_identical(RingSet.of([], float), [])
