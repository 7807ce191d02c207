"""Property tests of the mask boundary and of exactness, over generated masks.

Examples are derandomized, so every run checks the same inputs, and sizes
stay small so the module takes a few seconds.
"""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from conftest import (  # noqa: E402
    TEXT_ORACLES,
    parse_outcome,
    traced_vertices,
    vertices_one_at_a_time,
    walk_outcomes,
)
from gridtrace import (  # noqa: E402
    IDENTITY,
    AffineTransform,
    BitRaster,
    Delineation,
    MaskError,
    Polygon,
    PolygonSet,
    RingSet,
    RingTraversalError,
    TraceError,
    assemble_polygons,
    bernoulli,
    detect,
    form_rings,
    parse_mask,
    rasterize_even_odd,
    sniff_mask_format,
    write_geojson,
    write_mask,
    write_wkt,
)
from gridtrace import trace  # noqa: E402
from gridtrace.cli import main  # noqa: E402
from gridtrace.raster import _pbm_header  # noqa: E402
from gridtrace.verify import pbm_header_bruteforce  # noqa: E402
from test_rings import HOLE_1_AT_5_7, TALL_EXTERIOR, comb  # noqa: E402
from test_writers import NORTH_UP, ROTATED, reference_geojson, reference_wkt  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def rasters(draw, min_side=0, max_side=12):
    width = draw(st.integers(min_side, max_side))
    height = draw(st.integers(min_side, max_side))
    return BitRaster(width, height, draw(arrays(bool, (height, width))))


# Bytes that reach every parser: arbitrary data, and PBM headers with
# numbers from negative to far beyond any array dimension before arbitrary
# payloads.
_numbers = st.one_of(st.sampled_from([0, 1, 7, 10**23]), st.integers(-3, 10**25))
_pbm = st.builds(
    lambda magic, w, h, sep, payload: b"%s%s%d%s%d%s%s" % (magic, sep, w, sep, h, sep, payload),
    st.sampled_from([b"P1", b"P4"]),
    _numbers,
    _numbers,
    st.sampled_from([b" ", b"\n", b"\r\n", b"\t#c\n"]),
    st.one_of(st.just(b""), st.binary(max_size=24)),
)
MASK_BYTES = st.one_of(st.binary(max_size=48), _pbm)

# PBM headers of P1, P4 or other magics, with fields that may be garbage or
# missing, between gaps of whitespace and comments ended by LF, CR or the
# end of the data, before a short payload.
_gap = st.lists(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"\r\n", b"#", b"# c\n", b"#x\r"]),
    max_size=4,
).map(b"".join)
_field = st.one_of(
    st.sampled_from([b"P1", b"P4", b"P2", b"0", b"3", b"007", b"12", b"x", b"9" * 30]),
    st.binary(max_size=4),
)
PBM_HEADERS = st.builds(
    lambda parts, tail: b"".join(parts) + tail,
    st.lists(st.tuples(_gap, _field).map(b"".join), max_size=4),
    st.one_of(_gap, st.binary(max_size=8)),
)


@st.composite
def near_valid_text_masks(draw):
    """P1 or ASCII-grid bytes that are valid or one slip away: digits with
    whitespace between them, LF or CRLF line ends, a ragged row, a P1 width
    off by one, trailing line ends, or one stray byte."""
    w, h = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    widths = [w] * h
    if h and draw(st.booleans()):
        widths[draw(st.integers(0, h - 1))] += draw(st.sampled_from([-1, 1]))
    gap = draw(st.sampled_from([b"", b"", b" ", b"\t", b"\v", b"\f", b"\r", b" \r"]))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    digits = st.sampled_from([b"0", b"1"])
    text = b"".join(
        gap.join(draw(st.lists(digits, min_size=max(n, 0), max_size=max(n, 0)))) + end
        for n in widths
    )
    text += draw(st.sampled_from([b"", b"", b"\n", b"\r\n", b" "]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.binary(min_size=1, max_size=1)) + text[at:]
    if draw(st.booleans()):
        return text
    return b"P1\n%d %d\n" % (max(w + draw(st.sampled_from([0, 0, -1, 1])), 0), h) + text


NEAR_VALID = near_valid_text_masks()


@PROPERTY
@given(raster=rasters(), format=st.sampled_from(["pbm-ascii", "pbm-binary"]))
def test_pbm_round_trip_any_shape(raster, format):
    assert parse_mask(write_mask(raster, format), format) == raster


@pytest.mark.parametrize("format", ["pbm-ascii", "pbm-binary"])
@pytest.mark.parametrize("width,height", [(0, 0), (0, 5), (5, 0), (1, 7), (7, 1)])
def test_pbm_round_trip_degenerate_shapes(format, width, height):
    # Pinned so these shapes are checked whatever the generator draws.
    raster = BitRaster(width, height, np.ones((height, width), dtype=bool))
    assert parse_mask(write_mask(raster, format), format) == raster


@PROPERTY
@given(raster=rasters(min_side=1))
def test_ascii_grid_round_trip(raster):
    # A bare grid has no header, so it cannot carry an empty dimension.
    assert parse_mask(write_mask(raster, "ascii-grid"), "ascii-grid") == raster


@PROPERTY
@given(data=MASK_BYTES)
def test_arbitrary_bytes_raise_only_mask_errors(data):
    try:
        parse_mask(data, sniff_mask_format(data))
    except MaskError:
        pass


@PROPERTY
@given(data=st.one_of(MASK_BYTES, NEAR_VALID, PBM_HEADERS))
def test_text_parsers_match_their_per_byte_oracles(data):
    # The same bits, or the same exception class and message.
    for format, oracle in TEXT_ORACLES.items():
        assert parse_outcome(parse_mask, data, format) == parse_outcome(oracle, data)
    for magic in (b"P1", b"P4"):
        assert parse_outcome(_pbm_header, data, magic) == parse_outcome(
            pbm_header_bruteforce, data, magic
        )


@st.composite
def walk_arenas(draw):
    """Random permutations of up to 30 000 vertices cut into cycles of a
    drawn mean length, with entry corners on a drawn share of the vertices
    plus one per cycle, listed sorted or shuffled, with repeats, and with
    or without one cycle left bare. The ids along a cycle are shuffled, or
    they ascend as they mostly do in traced masks, which leaves one local
    minimum per cycle among sorted corners."""
    ascending = draw(st.booleans())
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    n = draw(st.one_of(st.integers(0, 3000), st.integers(3000, 30_000)))
    ids = np.arange(n) if ascending else rng.permutation(n)
    cut = np.flatnonzero(rng.random(n) < 1 / draw(st.sampled_from([1, 2, 4, 40, 1000])))
    cycles = np.split(ids, np.union1d(cut, [0])[1:]) if n else []
    nxt = np.empty(n, np.int64)
    for cycle in cycles:
        nxt[cycle] = np.roll(cycle, -1)
    share = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    corners = [ids[rng.random(n) < share]] + [c[rng.integers(len(c)) :][:1] for c in cycles]
    if cycles and draw(st.booleans()):
        bare = cycles[rng.integers(len(cycles))]
        corners = [c[~np.isin(c, bare)] for c in corners]
    corners = np.concatenate([np.zeros(0, np.int64), *corners])
    corners = np.unique(corners) if draw(st.booleans()) else rng.permutation(corners)
    repeats = rng.choice(corners, draw(st.integers(0, 5))) if len(corners) else corners
    corners = np.insert(corners, rng.integers(0, len(corners) + 1, len(repeats)), repeats)
    return Delineation(np.arange(n), n - np.arange(n), nxt, corners)


@PROPERTY
@given(arena=walk_arenas())
def test_ring_walk_matches_the_per_vertex_oracle(arena):
    # The same rings in the same order, or the same unreachable-vertex message.
    fast, oracle = walk_outcomes(arena)
    assert fast == oracle


# Rows up to 70 pixels wide end in every position within a byte, and may
# span several bytes, so vertices depend on bits carried across bytes.
@PROPERTY
@given(
    raster=st.builds(
        lambda bits: BitRaster(bits.shape[1], bits.shape[0], bits),
        st.tuples(st.integers(1, 4), st.integers(1, 70)).flatmap(lambda shape: arrays(bool, shape)),
    )
)
def test_detect_finds_the_vertices_of_windows_classified_one_at_a_time(raster):
    assert traced_vertices(detect(raster)) == vertices_one_at_a_time(raster)


# The wiring sorts by x on keys as wide as the column counts say; the 301
# corner columns of the example need 16 bits.
@PROPERTY
@given(raster=rasters(max_side=9))
@example(raster=bernoulli(300, 40, 0.5, 18))
def test_traced_rings_fill_back_to_the_mask(raster):
    grid, _ = form_rings(detect(raster))
    assert rasterize_even_odd(grid, raster.width, raster.height) == raster


VERTEX_CODES = (1, 2, 4, 6, 7, 8, 9, 11, 13, 14)


@st.composite
def code_arenas(draw):
    """The vertex arena of a grid of up to 8x8 corners, each empty or of a
    vertex code, ordered as `detect` hands it to the wiring: scan order,
    with two copies at codes 6 and 9, the second flagged."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    grid = draw(arrays(np.uint8, shape, elements=st.sampled_from((0, *VERTEX_CODES))))
    ys, xs = np.nonzero(grid)
    copies = np.isin(grid[ys, xs], (6, 9)) + 1
    xs, ys, code = (np.repeat(a, copies) for a in (xs, ys, grid[ys, xs]))
    second = np.zeros(len(code), dtype=bool)
    second[1:] = (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])
    return xs, ys, code, second


def pair_off_one_at_a_time(xs, ys, code, second):
    """The message the wiring must raise for an arena, or None when every
    row pair (scan order, the copies at a code-6 corner swapped) and every
    column pair (stable order by x) lies on one line."""
    xs, ys = xs.tolist(), ys.tolist()
    rows = list(range(len(xs)))
    for i in rows[1:]:
        if second[i] and code[i] == 6:
            rows[i - 1], rows[i] = rows[i], rows[i - 1]
    cols = sorted(rows, key=lambda i: xs[i])
    if all(
        k + 1 < len(order) and along[order[k]] == along[order[k + 1]]
        for order, along in ((rows, ys), (cols, xs))
        for k in range(0, len(order), 2)
    ):
        return None
    for line, along in (("row", ys), ("column", xs)):
        odd = [k for k in sorted(set(along)) if along.count(k) % 2]
        if odd:
            i = along.index(odd[0])
            return (
                f"boundary vertices do not pair off into edges: corner {line} {odd[0]}"
                f" holds {along.count(odd[0])} of them, the first being vertex {i}"
                f" at ({xs[i]}, {ys[i]})"
            )
    raise AssertionError("pairs straddle two lines, yet every row and column is even")


@PROPERTY
@given(arena=code_arenas())
def test_wiring_refuses_exactly_the_arenas_whose_pairs_straddle_two_lines(arena):
    message = None
    try:
        trace._wire(*arena)
    except RingTraversalError:
        # Pairs that stay on their lines but link no permutation: the
        # arena check's refusal, not the pairing's.
        pass
    except TraceError as e:
        message = str(e)
    assert message == pair_off_one_at_a_time(*arena)


# World files: arbitrary bytes, or six numbers that may be non-finite, huge
# enough to overflow the transform, or make it degenerate.
_terms = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308, 5e-324, math.inf, math.nan]),
    st.floats(),
)
WORLD_BYTES = st.one_of(
    st.binary(max_size=40),
    st.lists(_terms, min_size=6, max_size=6).map(lambda v: "\n".join(map(repr, v)).encode()),
)


def _refuse(constant):
    raise AssertionError(f"{constant} in JSON output")


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error")
@given(
    mask=st.one_of(
        MASK_BYTES,
        NEAR_VALID,
        st.builds(
            write_mask,
            rasters(max_side=6),
            st.sampled_from(["pbm-ascii", "pbm-binary", "ascii-grid"]),
        ),
    ),
    world=st.none() | WORLD_BYTES,
    format=st.sampled_from(["geojson", "wkt", "rings-geojson"]),
    crs=st.none() | st.text(max_size=6),
)
def test_delineate_exits_zero_or_one_with_one_line_of_error(tmp_path, mask, world, format, crs):
    # New files for every example: truncating a file and rewriting it can wait for writeback.
    here = Path(tempfile.mkdtemp(dir=tmp_path))
    (here / "mask").write_bytes(mask)
    out = here / "out"
    argv = ["delineate", "--input", str(here / "mask"), "--format", format, "--output", str(out)]
    if world is not None:
        (here / "world").write_bytes(world)
        argv += ["--world", str(here / "world")]
    if crs is not None:
        argv.append(f"--crs={crs}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    if code == 0:
        assert err == ""
        text = out.read_text()
        if format == "wkt":
            assert text.startswith(("POLYGON (", "MULTIPOLYGON "))
        else:
            json.loads(text, parse_constant=_refuse)  # JSON has no NaN or Infinity
    else:
        assert code == 1
        assert err.startswith("gridtrace: error: ") and err.endswith("\n")
        assert err.count("\n") == 1 and "Traceback" not in err


@st.composite
def groupings(draw):
    """World rings of a small traced mask, and polygons that index them in
    any order: holes listed before their outer ring, repeated rings, no
    holes, no polygons."""
    transform = draw(st.sampled_from([IDENTITY, NORTH_UP, ROTATED]))
    _, world = form_rings(detect(bernoulli(9, 7, 0.5, draw(st.integers(0, 3)))), transform)
    members = st.lists(st.integers(0, len(world) - 1), min_size=1, max_size=4)
    return world, [Polygon(m[0], m[1:]) for m in draw(st.lists(members, max_size=6))]


@PROPERTY
@given(case=groupings())
def test_writers_read_hand_built_groupings_and_polygon_sets_alike(case):
    world, polygons = case
    packed = PolygonSet.of(polygons)
    assert list(packed) == polygons
    for grouping in (polygons, packed):
        assert write_geojson(world, grouping) == reference_geojson(world, polygons)
        assert write_wkt(world, grouping) == reference_wkt(world, polygons)


# Scales from subnormal to near overflow, whole numbers among them, and
# translations that swamp the scaled corners or leave signed zeros alone.
_magnitudes = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e300, 1e308]),
    st.floats(1e-9, 1e9),
    st.integers(1, 1000).map(float),
)
_scales = st.builds(lambda m, flip: -m if flip else m, _magnitudes, st.booleans())
_shifts = st.one_of(st.sampled_from([0.0, -0.0, 1e20, -1e308]), st.floats(-1e6, 1e6))
_zeros = st.sampled_from([0.0, -0.0])
NORTH_UP_TRANSFORMS = st.builds(AffineTransform, _scales, _zeros, _shifts, _zeros, _scales, _shifts)


def _text_outcome(write, *args):
    try:
        return write(*args)
    except ValueError as e:
        return str(e)


@PROPERTY
@given(raster=rasters(), transform=NORTH_UP_TRANSFORMS)
def test_writers_read_the_grid_axes_as_they_read_distinct_values(raster, transform):
    # A copy of the world buffer has no grid behind it, so the writers sort
    # its distinct values: the oracle for the tokens read off the grid axes.
    grid, world = form_rings(detect(raster), transform)
    copy = RingSet(world.coords, world.offsets)
    polygons = assemble_polygons(grid)
    for write, *args in [(write_geojson,), (write_geojson, polygons), (write_wkt, polygons)]:
        assert _text_outcome(write, world, *args) == _text_outcome(write, copy, *args)



# Hand-built library inputs far from the origin: each axis holds up to four
# values within 2**e of each other, e up to 62, at up to 2**62 from 0.
@st.composite
def _axis(draw):
    e = draw(st.integers(0, 62))
    origin = draw(st.integers(-(2**62), 2**62 - 2**e))
    return [origin + d for d in draw(st.lists(st.integers(0, 2**e), min_size=1, max_size=4))]


@st.composite
def far_inputs(draw):
    """Corners on two drawn axes, as: an arena's four fields, with links
    that form any permutation, one of them perhaps far out of range, and
    entry corners that may run one past the vertices; a set of closed
    orthogonal rings, each on m x and m y values of the axes, stepping
    across and down in turn; and a grouping of polygons whose ring indices
    may run one past the rings."""
    xs, ys = draw(_axis()), draw(_axis())
    n = draw(st.integers(0, 12))
    corner = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    points = draw(st.lists(corner, min_size=n, max_size=n))
    nxt = draw(st.permutations(range(n)))
    if n and draw(st.booleans()):
        nxt[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, n, 2**62]))
    entries = draw(st.lists(st.integers(0, n), max_size=n))
    fields = ([x for x, _ in points], [y for _, y in points], nxt, entries)
    arena = tuple(np.array(f, np.int64) for f in fields)
    rings = []
    for _ in range(draw(st.integers(0, 5))):
        m = draw(st.integers(1, 4))
        cx = draw(st.lists(st.sampled_from(xs), min_size=m, max_size=m))
        cy = draw(st.lists(st.sampled_from(ys), min_size=m, max_size=m))
        ring = [p for i in range(m) for p in ((cx[i], cy[i]), (cx[(i + 1) % m], cy[i]))]
        rings.append(ring + ring[:1])
    members = st.lists(st.integers(0, len(rings)), min_size=1, max_size=3)
    polygons = [Polygon(m[0], m[1:]) for m in draw(st.lists(members, max_size=4))]
    return arena, RingSet.of(rings, np.int64), PolygonSet.of(polygons)


def _traced(call, *args):
    """call(*args), or None where it refuses its input with a documented
    error, and the tracemalloc peak of the call in bytes either way."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    except (ValueError, RingTraversalError):
        return None, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Five points each: an assembler that cuts every row asks for 32 GiB.
TALL = RingSet.of([TALL_EXTERIOR, HOLE_1_AT_5_7], np.int64)
# 1500 points on fewer rows than points, which cut at every row into
# 899 400 unit edges.
COMB = RingSet.of(comb(300, 1499), np.int64)


@PROPERTY
@given(case=far_inputs())
@example(case=((np.zeros(0, np.int64),) * 4, TALL, PolygonSet.of([Polygon(0, [1])])))
@example(case=((np.zeros(0, np.int64),) * 4, COMB, PolygonSet.of(map(Polygon, range(300)))))
def test_library_calls_allocate_in_proportion_to_their_input(case):
    # Each call returns, or refuses its input with a documented error,
    # inside a traced peak of 64 bytes per byte of the arrays it is given,
    # plus 256 KiB for the interpreter's own objects.
    arena, rings, polygons = case

    def bounded(call, args, arrays):
        result, peak = _traced(call, *args)
        assert peak <= 64 * sum(a.nbytes for a in arrays) + 2**18, call.__name__
        return result

    bounded(assemble_polygons, [rings], [rings.coords, rings.offsets])
    ring_sets = [rings]
    delineation = bounded(Delineation, arena, arena)
    if delineation is not None:
        traced = bounded(form_rings, [delineation], arena)
        if traced is not None:
            ring_sets.append(traced[1])
    for ring_set in ring_sets:
        arrays = [ring_set.coords, ring_set.offsets, polygons.rings, polygons.offsets]
        for write in (write_geojson, write_wkt):
            bounded(write, [ring_set, polygons], arrays)
