from statistics import fmean

import pytest

from conftest import seconds_per_call
from gridtrace import (
    TimingRecord,
    bernoulli,
    check_shape,
    detect,
    form_rings,
    run_experiment,
    trial_seed,
)

# Published single-machine reference series for a full 11-point p grid at
# three square sizes; the canonical positive control for check_shape.
REFERENCE_SERIES = {
    1000: [
        0.02878431259, 0.06868757629, 0.09807033292, 0.11665457096, 0.13197045797,
        0.14024285372, 0.13762702562, 0.11457885199, 0.09881783929, 0.06892798912,
        0.0340783864,
    ],
    2000: [
        0.1110443584, 0.33664813860, 0.42414985847, 0.43838255098, 0.52050183325,
        0.61106124131, 0.52138455318, 0.43726582994, 0.37311080973, 0.28927221917,
        0.13095006614,
    ],
    4000: [
        0.43910372924, 1.09140266043, 1.67236047665, 1.87044505430, 1.91042593634,
        2.11456818526, 2.27661113623, 1.99260901652, 1.83249983928, 1.12086707817,
        0.51700238905,
    ],
}


def records_from_series(series: dict[int, list[float]]) -> list[TimingRecord]:
    return [
        TimingRecord(size, i / (len(means) - 1), 100, mean, 0.0)
        for size, means in series.items()
        for i, mean in enumerate(means)
    ]


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(7, 250, 3, 9) == trial_seed(7, 250, 3, 9)

    def test_distinct_across_axes(self):
        seeds = {
            trial_seed(s, size, p, t)
            for s in (0, 1)
            for size in (8, 16)
            for p in (0, 1)
            for t in (0, 1)
        }
        assert len(seeds) == 16

    def test_non_negative(self):
        assert trial_seed(0, 1, 0, 0) >= 0


class TestRunExperiment:
    def test_smallest_run(self):
        records = run_experiment([8], p_steps=2, trials=1, seed=3)
        assert [(r.size, r.p) for r in records] == [(8, 0.0), (8, 1.0)]
        assert all(r.trials == 1 for r in records)
        assert all(r.stddev_seconds == 0.0 for r in records)
        assert all(r.mean_seconds > 0 for r in records)

    def test_p_grid_is_even(self):
        records = run_experiment([4], p_steps=11, trials=1, seed=0)
        assert [r.p for r in records] == [i / 10 for i in range(11)]

    def test_records_ordered_size_major(self):
        records = run_experiment([4, 8], p_steps=2, trials=1, seed=0)
        assert [(r.size, r.p) for r in records] == [
            (4, 0.0), (4, 1.0), (8, 0.0), (8, 1.0),
        ]

    def test_workload_is_reproducible(self):
        # Same seed, same derived rasters for every (size, p, trial) cell.
        a = bernoulli(8, 8, 0.5, trial_seed(42, 8, 1, 0))
        b = bernoulli(8, 8, 0.5, trial_seed(42, 8, 1, 0))
        assert a == b

    def test_stddev_populated_for_multiple_trials(self):
        records = run_experiment([8], p_steps=2, trials=3, seed=0)
        assert all(r.stddev_seconds >= 0.0 for r in records)

    def test_progress_callback(self):
        seen = []
        run_experiment([4], p_steps=2, trials=1, seed=0, progress=seen.append)
        assert [(r.size, r.p) for r in seen] == [(4, 0.0), (4, 1.0)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sizes": [0]},
            {"sizes": [8], "trials": 0},
            {"sizes": [8], "p_steps": 1},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        kwargs.setdefault("trials", 1)
        kwargs.setdefault("p_steps", 2)
        with pytest.raises(ValueError):
            run_experiment(kwargs.pop("sizes"), **kwargs)


def test_midrange_p_is_slowest_at_1000():
    # Directional: the full pipeline at p=0.5 outruns both tails at 1000^2.
    def pipeline(raster):
        return form_rings(detect(raster))

    def mean_time(p):
        return fmean(
            seconds_per_call(pipeline, bernoulli(1000, 1000, p, trial), repeat=1, gc_off=True)[0]
            for trial in range(2)
        )

    mean_time(0.5)  # warm-up
    mid, low, high = mean_time(0.5), mean_time(0.1), mean_time(0.9)
    assert mid > low
    assert mid > high


class TestCheckShape:
    def test_reference_series_passes(self):
        report = check_shape(records_from_series(REFERENCE_SERIES))
        assert report.ok
        assert report.violations == []
        assert report.peaks[1000] == (0.5, 0.14024285372)
        assert report.peaks[2000][0] == 0.5
        assert report.peaks[4000][0] == 0.6

    def test_flat_series_fails(self):
        flat = {100: [1.0] * 11}
        report = check_shape(records_from_series(flat))
        assert not report.ok
        assert any("not below half the peak" in v for v in report.violations)

    def test_monotonic_series_fails_peak_location(self):
        rising = {100: [0.1 * i for i in range(11)]}
        report = check_shape(records_from_series(rising))
        assert not report.ok
        assert any("outside [0.3, 0.7]" in v for v in report.violations)

    def test_fat_endpoints_fail(self):
        series = {100: [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.0, 0.9, 0.8, 0.7, 0.6]}
        report = check_shape(records_from_series(series))
        assert not report.ok

    def test_peak_scaling_violation(self):
        bell = [0.0, 0.2, 0.5, 0.8, 1.0, 0.8, 0.5, 0.2, 0.0]
        series = {
            100: [v for v in bell],
            200: [1.5 * v for v in bell],  # pixel ratio 4, peak ratio 1.5
        }
        report = check_shape(records_from_series(series))
        assert not report.ok
        assert any("pixel ratio" in v for v in report.violations)

    def test_scaling_within_band_passes(self):
        bell = [0.01, 0.2, 0.5, 0.8, 1.0, 0.8, 0.5, 0.2, 0.01]
        series = {
            100: [v for v in bell],
            200: [3.5 * v for v in bell],  # within 50% of the 4x pixel ratio
        }
        assert check_shape(records_from_series(series)).ok

    def test_too_few_p_values(self):
        with pytest.raises(ValueError):
            check_shape([TimingRecord(100, p, 1, 0.1, 0.0) for p in (0.0, 0.5, 1.0)])

    def test_no_records(self):
        with pytest.raises(ValueError):
            check_shape([])

    def test_zero_peak_reported(self):
        series = {100: [0.0] * 11, 200: [0.0] * 11}
        report = check_shape(records_from_series(series))
        assert not report.ok
        assert any("not positive" in v for v in report.violations)
