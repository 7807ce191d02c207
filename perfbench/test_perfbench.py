"""Self-tests of the benchmark: a tiny smoke run of every workload, and
mutations the correctness gate must flag.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import hostspeed
import inputs
import run
from gridtrace import BitRaster, Polygon, assemble_polygons, detect, form_rings, parse_world_file
from gridtrace.writers import write_geojson, write_wkt

ROOT = Path(__file__).resolve().parent.parent
TINY = {"noise-polygons": 40, "noise-rings": 48, "noise-library": 48, "blobs-wkt": 120}

# Frame with a lake, an island in the lake with its own lake, a small
# island in that, and a separate square with a one-pixel hole.
NESTED = [
    "###########..###",
    "#.........#..#.#",
    "#.#######.#..###",
    "#.#.....#.#.....",
    "#.#.##..#.#.....",
    "#.#.....#.#.....",
    "#.#######.#.....",
    "#.........#.....",
    "###########.....",
]


def bench(tmp_root, *args):
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "9", "--seconds", "0.3",
                 "--trace", trace, "--size", str(TINY[workload]))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    gated = run.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit} for name, unit in gated.items()
    }
    lines = proc.stdout.splitlines()
    printed = run.LAYER_UNITS if trace == "1" else run.REPORTED_UNITS
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    if trace == "0":
        assert any(line.split() == ["error_rate", "0", "fraction"] for line in lines)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in inputs.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "--workload", "noise-rings", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_reference_helper_answers_and_stops():
    with hostspeed.Reference() as reference:
        assert reference.time() > 0
        proc = reference.proc
    assert proc.poll() is not None


# -- the gate ----------------------------------------------------------------


def nested_mask():
    return np.array([[c == "#" for c in row] for row in NESTED])


def traced(mask):
    h, w = mask.shape
    transform = parse_world_file(inputs.WORLD_TEXT)
    grid, world = form_rings(detect(BitRaster(w, h, mask)), transform)
    return grid, world, assemble_polygons(grid)


def shift_one_coordinate(world):
    world = [np.array(r) for r in world]
    world[0][1, 0] += inputs.A  # one grid unit to the right
    return world


def by_size(polygons, grid):
    """Polygon indices, largest exterior first: frame, island, square, small."""
    return sorted(range(len(polygons)), key=lambda i: gate.area2(np.asarray(grid[polygons[i].outer])))


def move_hole(polygons, source, target):
    hole = polygons[source].holes[0]
    return [
        Polygon(p.outer, [h for h in p.holes if h != hole] + ([hole] if i == target else []))
        for i, p in enumerate(polygons)
    ]


@pytest.mark.parametrize("fmt", ["geojson", "wkt"])
def test_gate_passes_exact_polygons(fmt):
    mask = nested_mask()
    grid, world, polygons = traced(mask)
    assert len(polygons) == 4 and sum(len(p.holes) for p in polygons) == 3
    text = write_wkt(world, polygons) if fmt == "wkt" else write_geojson(world, polygons)
    assert gate.check_cli_output(text, fmt, mask) == []


@pytest.mark.parametrize("fmt", ["geojson", "wkt", "rings-geojson"])
def test_gate_flags_a_corrupted_coordinate(fmt):
    mask = nested_mask()
    grid, world, polygons = traced(mask)
    bad = shift_one_coordinate(world)
    if fmt == "wkt":
        text = write_wkt(bad, polygons)
    else:
        text = write_geojson(bad, polygons, mode="rings" if fmt == "rings-geojson" else "polygons")
    assert gate.check_cli_output(text, fmt, mask)


@pytest.mark.parametrize("fmt", ["geojson", "wkt"])
@pytest.mark.parametrize("nested", [True, False])
def test_gate_flags_a_hole_in_the_wrong_polygon(fmt, nested):
    mask = nested_mask()
    grid, world, polygons = traced(mask)
    frame, island, square, _ = by_size(polygons, grid)
    # nested: the island's lake goes to the frame, whose exterior also holds it
    moved = move_hole(polygons, island, frame) if nested else move_hole(polygons, square, island)
    text = write_wkt(world, moved) if fmt == "wkt" else write_geojson(world, moved)
    errors = gate.check_cli_output(text, fmt, mask)
    assert errors and "even-odd" not in errors[0]  # the fill of all rings is unchanged


def test_gate_checks_library_output():
    mask = nested_mask()
    grid, world, _ = traced(mask)
    assert gate.check_library_output((grid, world), mask) == []
    assert gate.check_library_output((grid, shift_one_coordinate(world)), mask)
    bad_grid = [np.array(r) for r in grid]
    bad_grid[0][1, 1] += 1
    assert gate.check_library_output((bad_grid, world), mask)


def test_inputs_are_reproducible():
    for workload in inputs.WORKLOADS.values():
        a = inputs.make_mask(workload, 5, 0, 96)
        assert np.array_equal(a, inputs.make_mask(workload, 5, 0, 96))
        assert not np.array_equal(a, inputs.make_mask(workload, 6, 0, 96))
