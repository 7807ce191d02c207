"""Benchmark of the gridtrace delineation pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports gridtrace from its
`src` directory. One closed-loop client in one thread: an op starts only
after the previous one has finished. Masks, files and an untimed warm-up op
come first; then ops run until --seconds of wall time have passed. Set-up
is repeated a few times inside that window, outside the timed ops, for its
median. A fixed reference workload runs after every op, untimed, in a
helper process on the same CPU, and gives the host's speed over the run;
the gated times are scaled by it (see hostspeed). Every op's output is
certified by the correctness gate after the timed loop.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1. A fuller record, with the host, the
per-op samples and (traced) every span, goes to .perfbench/results/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy asks for transparent huge pages for arrays of 4 MiB and more. Whether
# it gets them depends on how fragmented the host's memory is at that moment,
# and each one counts 2 MiB towards RSS however little of it is touched: peak
# RSS of unchanged code then moves by up to 10 % from run to run. Without
# them RSS counts the pages the program touches. Read when numpy is imported.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 424242
SETUP_REPEATS = 5  # set-up (inputs plus warm-up op) runs this often; setup_s is the median
SETUP_REFERENCES = 3  # host-speed references timed before and again after each set-up
MIN_OPS = 3

# Every end-to-end metric, in print order; the gated ones go on the final
# JSON line. Other tenants' load on this host slows all code by up to 2.5x
# in stretches of seconds to minutes, so wall times of unchanged code spread
# by 20-30 % from one 25-second run to the next. The gated times are
# therefore scaled by the host's speed factor over the run (see hostspeed):
# setup_s and mpix_per_ref_s are in seconds of a host at nominal speed.
# The wall-clock figures (setup_wall_s, delineate_s, mpix_per_s) are printed
# and recorded beside them but not gated. error_rate is 0 by design and is
# carried by the result's failed / attempted.
REPORTED_UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "delineate_s": "s",
    "mpix_per_s": "Mpx/s",
    "mpix_per_ref_s": "Mpx/s",
    "host_speed": "x",
    "peak_rss_mib": "MiB",
    "error_rate": "fraction",
}
END_TO_END_UNITS = {k: REPORTED_UNITS[k] for k in ("setup_s", "mpix_per_ref_s", "peak_rss_mib")}
LAYER_UNITS = {
    "raster.parse_s": "s",
    "raster.bytes_in": "B",
    "trace.detect_s": "s",
    "trace.window_types_s": "s",
    "trace.vertices": "count",
    "trace.entry_corners": "count",
    "trace.vertices_per_mpix": "count/Mpx",
    "trace.peak_rss_mib": "MiB",
    "rings.form_rings_s": "s",
    "rings.rings": "count",
    "rings.longest_ring": "count",
    "rings.peak_rss_mib": "MiB",
    "rings.assemble_s": "s",
    "rings.exteriors": "count",
    "rings.holes": "count",
    "rings.hole_exterior_pairs": "count",
    "writers.write_s": "s",
    "writers.bytes_out": "B",
    "writers.peak_rss_mib": "MiB",
    "cli.io_s": "s",
    "cli.glue_s": "s",
    "bench.trace_overhead_s": "s",
}
# Span names whose self times make up each timed layer metric. The op's
# root span's self time is the glue: the op minus every layer span.
LAYER_SPANS = {
    "raster.parse_s": ("raster.sniff_mask_format", "raster.parse_mask"),
    "trace.detect_s": ("trace.detect",),
    "rings.form_rings_s": ("rings.form_rings",),
    "rings.assemble_s": ("rings.assemble_polygons",),
    "writers.write_s": ("writers.write_geojson", "writers.write_wkt"),
    "cli.io_s": ("cli.io",),
    "cli.glue_s": ("bench.op",),
}
LAYER_COUNTS = (
    "raster.bytes_in", "trace.vertices", "trace.entry_corners", "rings.rings",
    "rings.longest_ring", "rings.exteriors", "rings.holes", "writers.bytes_out",
)


def load_program():
    """Import gridtrace from the checkout's own src directory, or exit."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridtrace.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gridtrace from {src}: {exc}")
    import gridtrace

    if src.resolve() not in Path(gridtrace.__file__).resolve().parents:
        sys.exit(f"perfbench: gridtrace was imported from {gridtrace.__file__}, not {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="wall time of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="override the workload's mask side (smoke tests)")
    return parser.parse_args(argv)


class Run:
    """One workload in one process: set-up, warm-up, timed loop, gate."""

    def __init__(self, workload, seed, size, traced, workdir, reference):
        import gridtrace.cli
        import gridtrace.raster
        import gridtrace.rings
        import gridtrace.trace
        import gridtrace.transform

        self.gt = gridtrace
        self.workload = workload
        self.seed = seed
        self.size = size
        self.traced = traced
        self.workdir = workdir
        self.reference = reference  # a running hostspeed.Reference
        self.tracer = tracing.Tracer()
        self.warmups = []  # one record per set-up repeat
        self.ops = []  # one record per timed op
        self.exemplars = {}  # (mask, digest) -> stored output for the gate
        self.masks = []

    def prepare(self):
        """Generate masks and files; the library op also builds its rasters."""
        self.masks = self.rasters = None
        gc.collect()
        t0 = time.perf_counter()
        self.masks = inputs.write_inputs(self.workload, self.seed, self.size, self.workdir)
        if self.workload.mask_format is None:
            self.rasters = [self.gt.raster.BitRaster(self.size, self.size, m) for m in self.masks]
            self.transform = self.gt.transform.parse_world_file(inputs.WORLD_TEXT)
        return time.perf_counter() - t0

    def op(self, mask):
        """One delineation; returns its output for the digest and the gate."""
        if self.workload.mask_format is None:
            raster = self.rasters[mask]
            if self.traced:
                self.tracer.raster = raster
            return self.gt.rings.form_rings(self.gt.trace.detect(raster), self.transform)
        out = self.workdir / "out"
        rc = self.gt.cli.main(
            [
                "delineate",
                "--input", str(self.workdir / f"mask{mask}.pbm"),
                "--world", str(self.workdir / "mask.wld"),
                "--output", str(out),
                *self.workload.cli_args,
            ]
        )
        if rc != 0:
            raise RuntimeError(f"gridtrace exited with code {rc}")
        return out

    def run_op(self, index, mask, traced):
        """Time one op and, right after it, the host-speed reference; then
        (untimed) digest the op's output and keep one exemplar of each
        distinct output for the gate."""
        record = {"index": index, "mask": mask, "traced": traced, "error": None, "key": None}
        gc.collect()
        t0 = time.perf_counter()
        try:
            with tracing.instrument(self.tracer) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = self.tracer.run_op(index, lambda: self.op(mask)) if traced else self.op(mask)
                record["seconds"] = time.perf_counter() - t0
        except Exception:  # an op that raises is a failed op; keep running
            record["seconds"] = time.perf_counter() - t0
            record["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            result = None
        record["reference_s"] = self.reference.time()
        if result is not None:
            record["key"] = self.keep(mask, result)
        return record

    def keep(self, mask, result):
        digest = hashlib.sha256()
        if self.workload.mask_format is None:
            grid, world = result
            flat = {
                "lengths": np.array([len(r) for r in grid], dtype=np.int64),
                "grid": np.concatenate(grid) if grid else np.zeros((0, 2), np.int64),
                "world": np.concatenate(world) if world else np.zeros((0, 2)),
            }
            for arr in flat.values():
                digest.update(np.ascontiguousarray(arr).tobytes())
        else:
            with open(result, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    digest.update(chunk)
        key = (mask, digest.hexdigest())
        if key not in self.exemplars:
            path = self.workdir / f"exemplar{len(self.exemplars)}"
            if self.workload.mask_format is None:
                np.savez(path, **flat)
                path = path.with_suffix(".npz")
            else:
                os.replace(result, path)
            self.exemplars[key] = path
        return key

    def certify(self):
        """Run the gate once per distinct output. The gate is a pure function
        of an output and its mask, so every op with that output shares the
        verdict."""
        import gate

        verdicts = {}
        for (mask, digest), path in self.exemplars.items():
            bits = self.masks[mask]
            if self.workload.mask_format is None:
                data = np.load(path)
                bounds = np.cumsum(data["lengths"])[:-1]
                rings = (np.split(data["grid"], bounds), np.split(data["world"], bounds))
                errors = gate.check_library_output(rings, bits)
            else:
                errors = gate.check_cli_output(path.read_text(), self.workload.cli_args[1], bits)
            verdicts[(mask, digest)] = errors
        for record in self.warmups + self.ops:
            errors = verdicts.get(record["key"])
            if errors:
                record["error"] = "; ".join(errors[:3])

    def setup(self):
        """Inputs plus one untimed warm-up op: one set-up time sample, with
        the host's speed from the references timed just before and after it.
        Only the first warm-up is traced; it gives each layer's first
        peak-RSS high-water mark."""
        before = [self.reference.time() for _ in range(SETUP_REFERENCES)]
        prep_s = self.prepare()
        self.warmups.append(self.run_op(0, 0, self.traced and not self.warmups))
        after = [self.reference.time() for _ in range(SETUP_REFERENCES - 1)]
        after.append(self.warmups[-1]["reference_s"])
        return prep_s + self.warmups[-1]["seconds"], hostspeed.speed(before + after)

    def execute(self, seconds, import_s):
        # Set-up runs once before the loop and again at even intervals inside
        # it, outside the timed ops, so its median is not at the mercy of a
        # single stretch of host load.
        setups = [self.setup()]
        start = time.perf_counter()
        index = pair = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (len(self.ops) >= MIN_OPS or elapsed >= 4 * seconds + 60):
                break
            if elapsed >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(self.setup())
            mask = pair % len(self.masks)
            # A traced run pairs an untraced and a traced op on one mask, in
            # alternating order.
            modes = (pair % 2 == 1, pair % 2 == 0) if self.traced else (False,)
            for traced in modes:
                index += 1
                self.ops.append(self.run_op(index, mask, traced))
            pair += 1
        # Imports ran before the first set-up, so the first set-up's speed
        # scales them.
        info = {
            "import_s": import_s,
            "setups": [{"wall_s": wall, "host_speed": speed} for wall, speed in setups],
            "setup_wall_s": import_s + statistics.median(wall for wall, _ in setups),
            "setup_s": import_s * setups[0][1] + statistics.median(wall * speed for wall, speed in setups),
        }
        info["peak_rss_mib"] = tracing.peak_rss_mib()

        if self.traced and self.tracer.raster is not None:
            t0 = time.perf_counter()
            self.gt.trace.window_types(self.tracer.raster)
            info["window_types_s"] = time.perf_counter() - t0
            self.tracer.raster = None
        self.certify()
        return info


def end_to_end(run, info):
    ops = run.ops
    seconds = [r["seconds"] for r in ops]
    # The host's speed over the timed loop; scaling a wall time by it gives
    # seconds of a host at nominal speed.
    references = [r["reference_s"] for r in ops]
    speed = hostspeed.speed(references)
    mpix = run.size * run.size * len(ops) / 1e6
    return {
        "setup_s": info["setup_s"],
        "setup_wall_s": info["setup_wall_s"],
        "delineate_s": statistics.median(seconds),
        "mpix_per_s": mpix / sum(seconds),
        "mpix_per_ref_s": mpix / (sum(seconds) * speed),
        "host_speed": speed,
        "peak_rss_mib": info["peak_rss_mib"],
        "error_rate": sum(1 for r in ops if r["error"]) / len(ops),
    }, {"samples": len(seconds), "references": len(references)}


def per_layer(run, info):
    tracer = run.tracer
    traced = [r for r in run.ops if r["traced"]]
    untraced = [r for r in run.ops if not r["traced"]]
    selfs = [tracer.self_times(r["index"]) for r in traced]
    counts = [tracer.counts[r["index"]] for r in traced]
    first = tracer.counts.get(0, {})  # the first warm-up op: the first high-water marks

    metrics = {
        name: statistics.median(sum(s.get(n, 0.0) for n in spans) for s in selfs)
        for name, spans in LAYER_SPANS.items()
    }
    for key in LAYER_COUNTS:
        metrics[key] = statistics.median(c.get(key, 0) for c in counts)
    metrics["trace.window_types_s"] = info.get("window_types_s", 0.0)
    metrics["trace.vertices_per_mpix"] = metrics["trace.vertices"] / (run.size * run.size / 1e6)
    # Computed, not counted: the loop bound of the containment-search assembler.
    metrics["rings.hole_exterior_pairs"] = metrics["rings.holes"] * metrics["rings.exteriors"]
    metrics["trace.peak_rss_mib"] = first.get("trace.detect.peak_rss_mib", 0.0)
    metrics["rings.peak_rss_mib"] = first.get("rings.form_rings.peak_rss_mib", 0.0)
    metrics["writers.peak_rss_mib"] = max(
        first.get("writers.write_geojson.peak_rss_mib", 0.0),
        first.get("writers.write_wkt.peak_rss_mib", 0.0),
    )
    traced_s = statistics.median(r["seconds"] for r in traced)
    metrics["bench.trace_overhead_s"] = traced_s - statistics.median(r["seconds"] for r in untraced)
    extra = {
        "samples": len(traced),
        "traced_delineate_s": traced_s,
        "layer_share_of_op": {name: metrics[name] / traced_s for name in LAYER_SPANS},
        "self_times": {r["index"]: s for r, s in zip(traced, selfs)},
        "counts": tracer.counts,
        "spans": tracer.dump(),
    }
    return {name: metrics[name] for name in LAYER_UNITS}, extra


def host_record(seed, affinity):
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(affinity),
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    load_program()
    args = parse_args(argv)
    import_s = time.perf_counter() - T_START
    # One CPU for this process and the host-speed helper it starts: the
    # reference then measures the CPU the ops ran on, and no op migrates.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    workload = inputs.WORKLOADS[args.workload]
    size = args.size or workload.size
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        with hostspeed.Reference() as reference:
            run = Run(workload, args.seed, size, bool(args.trace), workdir, reference)
            info = run.execute(args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = run.ops
    failed = sum(1 for r in timed if r["error"])
    correct = failed == 0 and not any(r["error"] for r in run.warmups)
    if args.trace:
        metrics, extra = per_layer(run, info)
        units = LAYER_UNITS
    else:
        metrics, extra = end_to_end(run, info)
        units = REPORTED_UNITS

    record = {
        "workload": workload.name,
        "size": size,
        "masks": workload.masks,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(args.seed, affinity),
        "correct": correct,
        "attempted": len(timed),
        "failed": failed,
        "metrics": metrics,
        "setup": info,
        "warmups": run.warmups,
        "ops": run.ops,
        **extra,
    }
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, default=str))

    print(f"workload {workload.name}  seed {args.seed}  size {size}  masks {workload.masks}  trace {args.trace}")
    for key, value in metrics.items():
        print(f"  {key:26s} {value:14.6g} {units[key]}")
    print(f"  medians are over {extra['samples']} ops on {workload.masks} mask(s)")
    for r in run.warmups + timed:
        if r["error"]:
            print(f"  op {r['index']} failed: {r['error']}")
    print(f"  record: {results / name}")
    gated = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
