"""Property tests of the mask boundary and of exactness, over generated masks.

Examples are derandomized, so every run checks the same inputs, and sizes
stay small so the module takes a few seconds.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
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
from gridtrace.cli import main  # noqa: E402
from gridtrace.raster import _pbm_header  # noqa: E402
from gridtrace.verify import pbm_header_bruteforce  # noqa: E402
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
    assert traced_vertices(raster) == vertices_one_at_a_time(raster)


@PROPERTY
@given(raster=rasters(max_side=9))
def test_traced_rings_fill_back_to_the_mask(raster):
    grid, _ = form_rings(detect(raster))
    assert rasterize_even_odd(grid, raster.width, raster.height) == raster


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
