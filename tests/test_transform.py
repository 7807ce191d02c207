import warnings

import numpy as np
import pytest

from gridtrace import (
    IDENTITY,
    AffineTransform,
    BitRaster,
    DegenerateTransformError,
    WorldFileError,
    detect,
    form_rings,
    parse_world_file,
)


def test_identity_maps_points_to_themselves():
    assert IDENTITY.apply(0, 0) == (0.0, 0.0)
    assert IDENTITY.apply(3, 4) == (3.0, 4.0)
    assert IDENTITY.apply(-2, 7) == (-2.0, 7.0)


def test_apply_general():
    tr = AffineTransform(a=2, b=0, c=1, d=0, e=-2, f=5)
    assert tr.apply(2, 3) == (5.0, -1.0)
    assert tr.apply(0, 0) == (1.0, 5.0)


def test_fields_are_read_as_floats():
    tr = AffineTransform(a=2, b=0, c=1, d=0, e=-2, f=5)
    assert all(type(getattr(tr, name)) is float for name in "abcdef")
    assert tr == AffineTransform(2.0, 0.0, 1.0, 0.0, -2.0, 5.0)
    grid, world = form_rings(detect(BitRaster.from_strings(["1"])), tr)
    assert world.coords.dtype == np.float64
    assert world[0].tolist() == [[1.0, 5.0], [1.0, 3.0], [3.0, 3.0], [3.0, 5.0], [1.0, 5.0]]


def test_overflow_gives_non_finite_positions_with_no_warning():
    tr = AffineTransform(1e308, 0.0, 0.0, 0.0, -1e308, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lon, lat = tr.apply(np.array([0, 2]), np.array([0, 2]))
        assert tr.apply(np.int64(2), np.int64(2)) == (np.inf, -np.inf)
    assert lon.tolist() == [0.0, np.inf] and lat.tolist() == [0.0, -np.inf]


def test_determinant_and_degeneracy():
    assert IDENTITY.determinant == 1.0
    assert not IDENTITY.is_degenerate
    flat = AffineTransform(1, 2, 0, 2, 4, 0)
    assert flat.determinant == 0.0
    assert flat.is_degenerate


def test_parse_world_file_identity_like():
    tr = parse_world_file("1\n0\n0\n-1\n0.5\n-0.5")
    assert (tr.a, tr.b, tr.c) == (1.0, 0.0, 0.0)
    assert (tr.d, tr.e, tr.f) == (0.0, -1.0, 0.0)


def test_parse_world_file_corner_adjustment():
    tr = parse_world_file("2\n0\n0\n-2\n101\n49")
    assert (tr.a, tr.e) == (2.0, -2.0)
    assert (tr.c, tr.f) == (100.0, 50.0)


def test_parse_world_file_with_rotation_terms():
    # Line order is A, D, B, E, C, F; shift is half of a+b and d+e.
    tr = parse_world_file("1\n0.5\n0.25\n-1\n10\n20")
    assert (tr.a, tr.b, tr.d, tr.e) == (1.0, 0.25, 0.5, -1.0)
    assert tr.c == 10 - 0.5 * 1.25
    assert tr.f == 20 - 0.5 * (-0.5)


def test_parse_world_file_tolerates_trailing_newline():
    tr = parse_world_file("1\n0\n0\n-1\n0.5\n-0.5\n")
    assert tr.e == -1.0


@pytest.mark.parametrize("text", ["1\n0\n0\n-1\n0.5", "1\n0\n0\n-1\n0.5\n-0.5\n3"])
def test_parse_world_file_wrong_line_count(text):
    with pytest.raises(WorldFileError):
        parse_world_file(text)


def test_parse_world_file_non_numeric():
    with pytest.raises(WorldFileError, match="line 3 is not numeric: 'x'"):
        parse_world_file("1\n0\nx\n-1\n0.5\n-0.5")


def test_parse_world_file_degenerate():
    with pytest.raises(DegenerateTransformError):
        parse_world_file("0\n0\n0\n0\n1\n1")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_parse_world_file_non_finite(value):
    with pytest.raises(WorldFileError, match=f"line 5 is not a finite number: '{value}'"):
        parse_world_file(f"1\n0\n0\n-1\n{value}\n-0.5")


def test_parse_world_file_non_finite_names_the_file_line():
    # Blank lines are skipped but still counted.
    with pytest.raises(WorldFileError, match="line 3 "):
        parse_world_file("1\n\nNaN\n0\n-1\n0.5\n-0.5")
