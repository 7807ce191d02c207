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

from gridtrace import (  # noqa: E402
    BitRaster,
    MaskError,
    detect,
    form_rings,
    parse_mask,
    rasterize_even_odd,
    sniff_mask_format,
    write_mask,
)
from gridtrace.cli import main  # noqa: E402
from gridtrace.raster import MASK_FORMATS  # noqa: E402

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
        MASK_BYTES, st.builds(write_mask, rasters(max_side=6), st.sampled_from(MASK_FORMATS))
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
