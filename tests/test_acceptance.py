"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them on success).

The exactness criteria are zero-tolerance oracle equivalences; the
performance criteria are ratio- and shape-based only, since absolute
timings depend on the host.
"""

import gc
import time
from statistics import fmean

import numpy as np
import pytest

from conftest import raster_from_int, ring_validity_errors
from gridtrace import (
    BitRaster,
    assemble_polygons,
    bernoulli,
    boundary_edges,
    detect,
    form_rings,
    parse_mask,
    rasterize_even_odd,
    run_experiment,
    signed_area,
    write_mask,
)
from gridtrace.verify import unit_edges

BENCH_SIZES = [250, 500, 1000]
BENCH_SEED = 20260808


def report(name: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def oracle_failures(raster: BitRaster) -> dict[str, list[str]]:
    """Run one raster through the pipeline and both oracles plus validity."""
    failures = {"even_odd": [], "edges": [], "validity": []}
    grid, _ = form_rings(detect(raster))
    if rasterize_even_odd(grid, raster.width, raster.height) != raster:
        failures["even_odd"].append(f"{raster!r}")
    edges = unit_edges(grid)
    if len(edges) != len(set(edges)) or set(edges) != boundary_edges(raster):
        failures["edges"].append(f"{raster!r}")
    failures["validity"].extend(ring_validity_errors(grid, raster.marked_count()))
    return failures


def merge(into: dict, new: dict):
    for key, values in new.items():
        into[key].extend(values)


@pytest.fixture(scope="module")
def exhaustive_sweep():
    failures = {"even_odd": [], "edges": [], "validity": []}
    count = 0
    start = time.perf_counter()
    for w in range(1, 5):
        for h in range(1, 5):
            for mask in range(2 ** (w * h)):
                merge(failures, oracle_failures(raster_from_int(w, h, mask)))
                count += 1
    return failures, count, time.perf_counter() - start


@pytest.fixture(scope="module")
def randomized_sweep():
    failures = {"even_odd": [], "edges": [], "validity": []}
    p_values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    rng = np.random.Generator(np.random.PCG64(424242))
    start = time.perf_counter()
    for i in range(1000):
        p = p_values[i % len(p_values)]
        if i < len(p_values):
            w = h = 64  # pin the maximum size for every p at least once
        else:
            w = int(rng.integers(1, 65))
            h = int(rng.integers(1, 65))
        merge(failures, oracle_failures(bernoulli(w, h, p, 1_000_000 + i)))
    return failures, 1000, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk_benchmark():
    start = time.perf_counter()
    records = run_experiment(BENCH_SIZES, p_steps=11, trials=10, seed=BENCH_SEED)
    return records, time.perf_counter() - start


def test_exhaustive_exactness(exhaustive_sweep):
    failures, count, elapsed = exhaustive_sweep
    ok = not failures["even_odd"] and not failures["edges"] and elapsed < 60
    report(
        "exhaustive exactness 1x1..4x4",
        ok,
        f"{count} masks, even-odd+boundary oracles, {elapsed:.1f}s",
    )


def test_randomized_exactness(randomized_sweep):
    failures, count, elapsed = randomized_sweep
    ok = not failures["even_odd"] and not failures["edges"] and elapsed < 60
    report(
        "randomized exactness up to 64x64",
        ok,
        f"{count} seeded rasters, p in 0.1..0.9, {elapsed:.1f}s",
    )


def test_ring_validity_invariants(exhaustive_sweep, randomized_sweep):
    problems = exhaustive_sweep[0]["validity"] + randomized_sweep[0]["validity"]
    report(
        "ring validity (closed, orthogonal, turning, edge-distinct, exact area sum)",
        not problems,
        f"first: {problems[0]}" if problems else "all rings valid",
    )


def test_hand_traced_goldens():
    single, _ = form_rings(detect(BitRaster.from_strings(["1"])))
    ok = len(single) == 1 and single[0].tolist() == [
        [0, 0], [0, 1], [1, 1], [1, 0], [0, 0],
    ]

    diag, _ = form_rings(detect(BitRaster.from_strings(["10", "01"])))
    ok = ok and len(diag) == 2
    ok = ok and all([1, 1] in r.tolist() for r in diag)

    holed, _ = form_rings(detect(BitRaster.from_strings(["111", "101", "111"])))
    areas = sorted(signed_area(r) for r in holed)
    # net polygon area -8 split as a -9 exterior and a +1 hole
    ok = ok and areas == [-9, 1] and sum(areas) == -8

    block = detect(BitRaster.from_strings(["11", "11"]))
    ok = ok and block.vertex_count == 4

    report("hand-traced goldens", ok)


def test_peak_scaling_ratio(desk_benchmark):
    records, _ = desk_benchmark
    means = {(r.size, r.p): r.mean_seconds for r in records}
    ratio = means[(1000, 0.5)] / means[(250, 0.5)]
    report(
        "peak (p=0.5) scaling 250^2 -> 1000^2 within [8, 24]",
        8 <= ratio <= 24,
        f"ratio {ratio:.1f} (ideal 16)",
    )


def test_bell_shape_at_500(desk_benchmark):
    records, elapsed = desk_benchmark
    series = {r.p: r.mean_seconds for r in records if r.size == 500}
    peak_p = max(series, key=series.get)
    peak = series[peak_p]
    ok = (
        0.3 <= peak_p <= 0.7
        and series[0.0] < 0.5 * peak
        and series[1.0] < 0.5 * peak
        and elapsed < 300
    )
    report(
        "bell shape at 500^2 over the 11-point p grid",
        ok,
        f"peak at p={peak_p}, endpoints {series[0.0] / peak:.1%}/"
        f"{series[1.0] / peak:.1%} of peak, bench took {elapsed:.0f}s",
    )


def test_ring_formation_is_output_sensitive():
    dense = detect(bernoulli(1000, 1000, 0.5, 77))
    sparse = detect(bernoulli(1000, 1000, 0.02, 77))

    def ring_time(delineation):
        times = []
        for _ in range(3):
            gc.disable()
            try:
                t0 = time.perf_counter()
                out = form_rings(delineation)
                times.append(time.perf_counter() - t0)
            finally:
                gc.enable()
            del out
        return fmean(times)

    ring_time(dense)  # warm-up
    t_dense = ring_time(dense)
    t_sparse = ring_time(sparse)
    report(
        "ring formation output-sensitive at 1000^2 (p=0.5 slower than p=0.02)",
        t_dense > t_sparse,
        f"{t_dense * 1000:.0f}ms vs {t_sparse * 1000:.0f}ms "
        f"({dense.vertex_count} vs {sparse.vertex_count} vertices)",
    )


def test_detect_is_output_sensitive():
    # Same pixel count: one 600x400 block has 4 vertices, noise about 750 k.
    block = np.zeros((1000, 1000), dtype=bool)
    block[300:700, 200:800] = True
    sparse = BitRaster(1000, 1000, block)
    dense = bernoulli(1000, 1000, 0.5, 4243)

    def best_detect_time(raster):
        times = []
        for _ in range(5):
            gc.disable()
            try:
                t0 = time.perf_counter()
                detect(raster)
                times.append(time.perf_counter() - t0)
            finally:
                gc.enable()
        return min(times)

    t_sparse = best_detect_time(sparse)
    t_dense = best_detect_time(dense)
    report(
        "detect output-sensitive at 1000^2 (one block at most 1/25 of p=0.5)",
        t_sparse <= t_dense / 25,
        f"{t_sparse * 1000:.2f}ms vs {t_dense * 1000:.1f}ms, ratio {t_sparse / t_dense:.3f}",
    )


def test_assembly_scales_near_linearly():
    def best_assembly_time(size):
        grid, _ = form_rings(detect(bernoulli(size, size, 0.5, 4242)))
        times = []
        for _ in range(5):
            # Assembly allocates a few dozen arrays and no object per
            # polygon, but a collection that earlier allocations set off
            # could still land in one run and time the collector.
            gc.disable()
            try:
                t0 = time.perf_counter()
                assemble_polygons(grid)
                times.append(time.perf_counter() - t0)
            finally:
                gc.enable()
        return min(times)

    t_small = best_assembly_time(500)
    t_large = best_assembly_time(1000)
    ratio = t_large / t_small
    # 4x the pixels: ~4x for the scanline, 16x for a pairwise containment search.
    report(
        "polygon assembly scaling 500^2 -> 1000^2 at p=0.5 at most 8x",
        ratio <= 8,
        f"ratio {ratio:.1f}, {t_small * 1000:.0f}ms -> {t_large * 1000:.0f}ms",
    )


def test_text_parsers_are_no_slower_than_detect():
    raster = bernoulli(1000, 1000, 0.5, 4243)

    def best_time(run, arg):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            run(arg)
            times.append(time.perf_counter() - t0)
        return min(times)

    # Both timed in one process, so the host's load slows both alike: a
    # per-byte loop in Python takes several times as long as detect, a
    # whole-buffer parse a tenth of it or less.
    t_detect = best_time(detect, raster)
    t_parse = {
        format: best_time(lambda data: parse_mask(data, format), write_mask(raster, format))
        for format in ("pbm-ascii", "ascii-grid")
    }
    report(
        "P1 and ASCII-grid parsing at 1000^2 p=0.5 no slower than detect",
        max(t_parse.values()) <= t_detect,
        ", ".join(f"{k} {t * 1000:.1f}ms" for k, t in t_parse.items())
        + f", detect {t_detect * 1000:.1f}ms",
    )
