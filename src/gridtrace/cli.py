"""Command-line front end: generate masks, delineate them, run benchmarks.

Payload output goes to stdout (or --output); diagnostics go to stderr.
Exit codes: 0 success, 1 unreadable or malformed input (or output that
cannot be written, such as non-finite positions), 2 topology errors (and
argparse usage errors), 3 internal errors: vertex wiring or a ring walk
that came out inconsistent.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from .bench import check_shape, run_experiment
from .raster import bernoulli, parse_mask, sniff_mask_format, write_mask
from .rings import TopologyError, assemble_polygons, form_rings
from .trace import TraceError, detect
from .transform import IDENTITY, WorldFileError, parse_world_file
from .writers import write_geojson, write_timing_csv, write_wkt

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _min_two(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="gridtrace",
        description="Trace binary raster masks into exact orthogonal geospatial polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_del = sub.add_parser("delineate", help="trace a mask file into vector output")
    p_del.add_argument("--input", required=True, help="mask file (PBM P1/P4 or ASCII grid)")
    p_del.add_argument("--world", help="six-line world file with the grid-to-world transform")
    p_del.add_argument(
        "--format",
        choices=["geojson", "wkt", "rings-geojson"],
        default="geojson",
        help="output format (default geojson)",
    )
    p_del.add_argument("--crs", help="attach a named CRS to GeoJSON output")
    p_del.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_del.set_defaults(func=cmd_delineate)

    p_gen = sub.add_parser("gen", help="generate a random Bernoulli mask as PBM")
    p_gen.add_argument("--width", type=_positive_int, required=True)
    p_gen.add_argument("--height", type=_positive_int, required=True)
    p_gen.add_argument("--p", type=_probability, required=True, help="mark probability in [0, 1]")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time the pipeline over a (size, p) grid")
    p_bench.add_argument(
        "--sizes", type=_positive_int, nargs="+", default=[250, 500, 1000],
        help="square raster sizes (default: 250 500 1000)",
    )
    p_bench.add_argument("--p-steps", type=_min_two, default=11)
    p_bench.add_argument("--trials", type=_positive_int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    p_bench.add_argument(
        "--check-shape", action="store_true",
        help="verify the bell shape and linear peak scaling; nonzero exit on violation",
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TopologyError as exc:
        print(f"gridtrace: topology error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"gridtrace: error: {exc}", file=sys.stderr)
        return 1
    except TraceError as exc:
        print(f"gridtrace: internal error: {exc}", file=sys.stderr)
        return 3


# Text is written in slices of this many characters. Written whole, a text
# is first encoded into one bytes copy as large as itself. Writing a 500^2
# p=0.5 mask's rings as GeoJSON over and over in one process, that took
# 1 183 fresh page faults (4.6 MiB) in the first call and 312 in each later
# one (ru_minflt around this call); in slices it took none, since each
# slice's copy is freed before the next is made and its pages are reused.
_SLICE = 1 << 20


def _emit(data: str | bytes, output: str) -> None:
    """Write a payload to stdout ('-') or a file; text gets a final newline."""
    text = isinstance(data, str)
    end = "\n" if text and not data.endswith("\n") else data[:0]
    if output == "-":
        _write(sys.stdout if text else sys.stdout.buffer, data, end)
        return
    # Overwrite in place, then cut off the tail of an older, longer file: on
    # ext4, a file truncated to zero starts writeback when it is closed, which
    # took 60-75 ms per 600 kB on a 2-vCPU KVM guest, as uneven as the disk.
    with open(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "w" if text else "wb") as fh:
        _write(fh, data, end)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _write(stream, data: str | bytes, end: str | bytes) -> None:
    """Write `data`, text in slices of `_SLICE` characters, and then `end`."""
    if isinstance(data, str):
        for start in range(0, len(data), _SLICE):
            stream.write(data[start : start + _SLICE])
    else:
        stream.write(data)
    stream.write(end)


def cmd_delineate(args) -> int:
    data = Path(args.input).read_bytes()
    raster = parse_mask(data, sniff_mask_format(data))
    transform = _read_world_file(args.world) if args.world else IDENTITY
    grid_rings, world_rings = form_rings(detect(raster), transform)
    if args.format == "rings-geojson":
        out = write_geojson(world_rings, crs=args.crs)
    elif args.format == "wkt":
        out = write_wkt(world_rings, assemble_polygons(grid_rings))
    else:
        out = write_geojson(world_rings, assemble_polygons(grid_rings), crs=args.crs)
    _emit(out, args.output)
    return 0


def _read_world_file(path: str):
    """Parse the world file at `path`; raises WorldFileError naming the file
    and the byte offset if it is not UTF-8 text."""
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise WorldFileError(
            f"world file {path!r} is not UTF-8 text:"
            f" byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    return parse_world_file(text)


def cmd_gen(args) -> int:
    raster = bernoulli(args.width, args.height, args.p, args.seed)
    _emit(write_mask(raster, "pbm-binary"), args.output)
    return 0


def cmd_bench(args) -> int:
    if args.check_shape and args.p_steps < 5:
        raise ValueError(f"--check-shape needs --p-steps >= 5, got {args.p_steps}")

    def report(record):
        print(
            f"size {record.size} p {record.p:.2f}: "
            f"mean {record.mean_seconds:.4f}s over {record.trials} trials",
            file=sys.stderr,
        )

    records = run_experiment(
        args.sizes, p_steps=args.p_steps, trials=args.trials, seed=args.seed,
        progress=report,
    )
    _emit(write_timing_csv(records), args.output)
    if args.check_shape:
        shape = check_shape(records)
        for violation in shape.violations:
            print(f"gridtrace: shape violation: {violation}", file=sys.stderr)
        if not shape.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
