"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them on success).

The exactness criteria are zero-tolerance oracle equivalences; the
performance criteria are ratio- and shape-based only, since absolute
timings depend on the host.
"""

import time
from statistics import fmean, median

import numpy as np
import pytest

from conftest import ACCEPTANCE_CHECKS, seconds_per_call
from gridtrace import (
    BitRaster,
    assemble_polygons,
    bernoulli,
    check_shape,
    detect,
    form_rings,
    parse_mask,
    run_experiment,
    signed_area,
    trial_seed,
    write_mask,
)

BENCH_SEED = 20260808


def report(name: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def oracle_failures(raster: BitRaster) -> dict[str, list[str]]:
    """Run one raster through the pipeline and the acceptance checks."""
    d = detect(raster)
    grid, _ = form_rings(d)
    return {
        name: [f"{raster!r}: {p}" for p in check(raster, d, grid)]
        for name, check in ACCEPTANCE_CHECKS.items()
    }


def merge(into: dict, new: dict):
    for key, values in new.items():
        into[key].extend(values)


@pytest.fixture(scope="module")
def randomized_sweep():
    failures = {name: [] for name in ACCEPTANCE_CHECKS}
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
    records = run_experiment([500], p_steps=11, trials=10, seed=BENCH_SEED)
    return records, time.perf_counter() - start


def test_exhaustive_exactness(sweep_up_to_4x4):
    failures, seconds = sweep_up_to_4x4.failures, sweep_up_to_4x4.seconds
    # Building each raster, tracing it and its acceptance checks.
    elapsed = sum(seconds[part] for part in ["raster", "detect", "form_rings", *ACCEPTANCE_CHECKS])
    ok = not failures["even_odd"] and not failures["edges"] and elapsed < 60
    report(
        "exhaustive exactness 1x1..4x4",
        ok,
        f"{sweep_up_to_4x4.count} masks, even-odd+boundary oracles, {elapsed:.1f}s",
    )


def test_randomized_exactness(randomized_sweep):
    failures, count, elapsed = randomized_sweep
    ok = not failures["even_odd"] and not failures["edges"] and elapsed < 60
    report(
        "randomized exactness up to 64x64",
        ok,
        f"{count} seeded rasters, p in 0.1..0.9, {elapsed:.1f}s",
    )


def test_ring_validity_invariants(sweep_up_to_4x4, randomized_sweep):
    problems = sweep_up_to_4x4.failures["validity"] + randomized_sweep[0]["validity"]
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


def test_peak_scaling_ratio():
    # The desk benchmark's ten p=0.5 rasters of each size (p index 5 of
    # 11). The sizes take turns over ten rounds and the band is on the
    # median of the rounds' ratios, so a stretch of host load that slows a
    # few calls of one size does not set the result.
    rasters = {
        size: [bernoulli(size, size, 0.5, trial_seed(BENCH_SEED, size, 5, t)) for t in range(10)]
        for size in (250, 1000)
    }

    def trace(raster):
        return form_rings(detect(raster))

    for same_size in rasters.values():
        trace(same_size[0])  # warm-up
    times = {size: [] for size in rasters}
    for t in range(10):
        for size, same_size in rasters.items():
            times[size] += seconds_per_call(trace, same_size[t], repeat=1, gc_off=True)
    ratio = median(large / small for small, large in zip(times[250], times[1000]))
    report(
        "peak (p=0.5) scaling 250^2 -> 1000^2 within [8, 24]",
        8 <= ratio <= 24,
        f"median ratio {ratio:.1f} over 10 rounds, ideal 16, {median(times[250]) * 1000:.1f}ms"
        f" -> {median(times[1000]) * 1000:.0f}ms",
    )


def test_bell_shape_at_500(desk_benchmark):
    records, elapsed = desk_benchmark
    shape = check_shape([r for r in records if r.size == 500])
    peak_p, peak = shape.peaks[500]
    series = {r.p: r.mean_seconds for r in records if r.size == 500}
    report(
        "bell shape at 500^2 over the 11-point p grid",
        shape.ok and elapsed < 300,
        f"peak at p={peak_p}, endpoints {series[0.0] / peak:.1%}/"
        f"{series[1.0] / peak:.1%} of peak, bench took {elapsed:.0f}s",
    )


def test_ring_formation_is_output_sensitive():
    dense = detect(bernoulli(1000, 1000, 0.5, 77))
    sparse = detect(bernoulli(1000, 1000, 0.02, 77))

    def ring_time(delineation):
        return fmean(seconds_per_call(form_rings, delineation, repeat=3, gc_off=True))

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

    t_sparse = min(seconds_per_call(detect, sparse, repeat=5, gc_off=True))
    t_dense = min(seconds_per_call(detect, dense, repeat=5, gc_off=True))
    report(
        "detect output-sensitive at 1000^2 (one block at most 1/25 of p=0.5)",
        t_sparse <= t_dense / 25,
        f"{t_sparse * 1000:.2f}ms vs {t_dense * 1000:.1f}ms, ratio {t_sparse / t_dense:.3f}",
    )


def test_assembly_scales_near_linearly():
    grids = {size: form_rings(detect(bernoulli(size, size, 0.5, 4242)))[0] for size in (500, 1000)}
    # The sizes take turns over five rounds and the bound is on the median
    # of the rounds' ratios, so a stretch of host load that speeds or
    # slows a few calls of one size does not set the result. Assembly
    # allocates a few dozen arrays and no object per polygon, but a
    # collection that earlier allocations set off could still land in a
    # call and time the collector.
    times = {size: [] for size in grids}
    for _ in range(5):
        for size, grid in grids.items():
            times[size] += seconds_per_call(assemble_polygons, grid, repeat=1, gc_off=True)
    ratio = median(large / small for small, large in zip(times[500], times[1000]))
    # 4x the pixels: ~4x for the scanline, 16x for a pairwise containment search.
    report(
        "polygon assembly scaling 500^2 -> 1000^2 at p=0.5 at most 8x",
        ratio <= 8,
        f"median ratio {ratio:.1f} over 5 rounds, {median(times[500]) * 1000:.0f}ms"
        f" -> {median(times[1000]) * 1000:.0f}ms",
    )


def test_text_parsers_are_no_slower_than_detect():
    raster = bernoulli(1000, 1000, 0.5, 4243)

    def best_time(run, arg):
        return min(seconds_per_call(run, arg, repeat=3))

    # Both timed in one process, so the host's load slows both alike: a
    # per-byte loop in Python takes several times as long as detect, a
    # parse in numpy array passes a tenth of it or less.
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
