import numpy as np
import pytest

from gridtrace import (
    BitRaster,
    MaskDimensionError,
    MaskError,
    MaskHeaderError,
    MaskTruncatedError,
    bernoulli,
    parse_mask,
    sniff_mask_format,
    write_mask,
)
from gridtrace.verify import pixel_at


class TestBitRaster:
    def test_get_stored_bit(self):
        r = BitRaster.from_strings(["1"])
        assert pixel_at(r, 0, 0) is True

    @pytest.mark.parametrize("x,y", [(-1, -1), (1, 0), (0, 1), (-1, 0), (0, -1), (5, 5)])
    def test_get_out_of_bounds_is_unmarked(self, x, y):
        r = BitRaster.from_strings(["1"])
        assert pixel_at(r, x, y) is False

    def test_from_strings(self):
        r = BitRaster.from_strings(["10", "01"])
        assert [pixel_at(r, x, y) for y in (0, 1) for x in (0, 1)] == [
            True, False, False, True,
        ]
        assert r.marked_count() == 2

    def test_from_strings_ragged(self):
        with pytest.raises(ValueError):
            BitRaster.from_strings(["10", "0"])

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            BitRaster(-1, 2)

    @pytest.mark.parametrize(
        "width,height,name",
        [(10**23, 0, "width"), (0, 10**23, "height"), (0, -1, "height"), (2**63, 2**63, "width")],
    )
    def test_dimension_beyond_any_array_names_it(self, width, height, name):
        value = width if name == "width" else height
        with pytest.raises(ValueError, match=f"^raster {name} {value} is not from 0 to {np.iinfo(np.intp).max}$"):
            BitRaster(width, height)

    def test_bits_shape_must_match(self):
        with pytest.raises(ValueError):
            BitRaster(2, 2, np.zeros((2, 3), dtype=bool))

    def test_zero_size_is_valid(self):
        assert BitRaster(0, 0).marked_count() == 0
        assert pixel_at(BitRaster(5, 0), 2, 0) is False

    def test_equality(self):
        a = BitRaster.from_strings(["10"])
        b = BitRaster.from_strings(["10"])
        c = BitRaster.from_strings(["01"])
        assert a == b
        assert a != c
        assert a != BitRaster(2, 2)
        # Empty rasters differ by their dimensions alone.
        assert BitRaster(3, 0) != BitRaster(0, 3) and BitRaster(0, 2) == BitRaster(0, 2)


class TestBernoulli:
    def test_p_zero_all_unmarked(self):
        assert bernoulli(10, 10, 0.0, 1).marked_count() == 0

    def test_p_one_all_marked(self):
        assert bernoulli(10, 10, 1.0, 1).marked_count() == 100

    def test_reproducible(self):
        assert bernoulli(40, 30, 0.37, 123) == bernoulli(40, 30, 0.37, 123)

    def test_seed_changes_raster(self):
        assert bernoulli(40, 30, 0.5, 1) != bernoulli(40, 30, 0.5, 2)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError):
            bernoulli(4, 4, p, 0)

    def test_marked_count_concentrates(self):
        # Binomial(1e6, 0.5): mean 500000, sigma 500; 4 sigma is a safe bound.
        count = bernoulli(1000, 1000, 0.5, 20260808).marked_count()
        assert abs(count - 500_000) < 2_000


class TestPbmAscii:
    def test_basic(self):
        r = parse_mask(b"P1\n2 1\n1 0", "pbm-ascii")
        assert (r.width, r.height) == (2, 1)
        assert pixel_at(r, 0, 0) is True
        assert pixel_at(r, 1, 0) is False

    def test_empty_raster(self):
        r = parse_mask(b"P1\n0 0\n", "pbm-ascii")
        assert (r.width, r.height) == (0, 0)

    def test_packed_digits_and_comments(self):
        r = parse_mask(b"P1 # tiny\n# mask\n2 2\n1001", "pbm-ascii")
        assert r == BitRaster.from_strings(["10", "01"])

    def test_truncated_payload(self):
        with pytest.raises(MaskTruncatedError):
            parse_mask(b"P1\n2 2\n101", "pbm-ascii")

    def test_excess_payload(self):
        with pytest.raises(MaskDimensionError):
            parse_mask(b"P1\n2 2\n10011", "pbm-ascii")

    def test_bad_magic(self):
        with pytest.raises(MaskHeaderError):
            parse_mask(b"P2\n1 1\n0", "pbm-ascii")

    def test_non_numeric_dimensions(self):
        with pytest.raises(MaskHeaderError):
            parse_mask(b"P1\nab cd\n0", "pbm-ascii")

    def test_missing_header_fields(self):
        with pytest.raises(MaskHeaderError):
            parse_mask(b"P1\n2", "pbm-ascii")

    def test_junk_in_payload(self):
        with pytest.raises(MaskError):
            parse_mask(b"P1\n2 1\n1 x", "pbm-ascii")

    def test_header_larger_than_payload_is_rejected_before_allocating(self):
        # 10**10 pixels declared in a 20-byte file: one byte per pixel is
        # the least the payload can take, so this fails on length alone.
        data = b"P1\n100000 100000\n10\n"
        assert len(data) == 20
        with pytest.raises(MaskTruncatedError, match="too few for 100000x100000"):
            parse_mask(data, "pbm-ascii")


class TestPbmBinary:
    @pytest.mark.parametrize(
        "data,shown",
        [
            pytest.param(b"P4\n%d 0\n" % 10**23, str(10**23), id="P4\n%d 0\n"),
            pytest.param(b"P4\n0 %d\n" % 10**23, str(10**23), id="P4\n0 %d\n"),
            pytest.param(b"P1\n%d 0\n" % 10**23, str(10**23), id="P1\n%d 0\n"),
            # More digits than int() parses; the message echoes only 20.
            pytest.param(
                b"P1\n" + b"9" * 5000 + b" 0\n", "9" * 20 + r"\.\.\.", id="P1-5000-digits"
            ),
        ],
    )
    def test_dimension_beyond_any_array_is_a_header_error(self, data, shown):
        with pytest.raises(
            MaskHeaderError, match=f"^dimension {shown} exceeds the largest array dimension$"
        ) as err:
            parse_mask(data, sniff_mask_format(data))
        assert len(str(err.value)) <= 80

    def test_basic_padded_rows(self):
        # 9 wide: two bytes per row, second byte uses only its top bit
        data = b"P4\n9 2\n" + bytes([0b10101010, 0b10000000, 0x00, 0b10000000])
        r = parse_mask(data, "pbm-binary")
        assert r.width == 9 and r.height == 2
        assert [pixel_at(r, x, 0) for x in range(9)] == [
            True, False, True, False, True, False, True, False, True,
        ]
        assert [pixel_at(r, x, 1) for x in range(9)] == [False] * 8 + [True]

    def test_truncated(self):
        with pytest.raises(MaskTruncatedError):
            parse_mask(b"P4\n9 2\n" + bytes(3), "pbm-binary")

    def test_trailing_junk(self):
        with pytest.raises(MaskDimensionError):
            parse_mask(b"P4\n9 2\n" + bytes(5), "pbm-binary")

    def test_bad_magic(self):
        with pytest.raises(MaskHeaderError):
            parse_mask(b"P1\n1 1\n1", "pbm-binary")


class TestAsciiGrid:
    def test_basic(self):
        r = parse_mask(b"10\n01\n", "ascii-grid")
        assert r == BitRaster.from_strings(["10", "01"])

    def test_empty(self):
        r = parse_mask(b"", "ascii-grid")
        assert (r.width, r.height) == (0, 0)

    def test_ragged_rows(self):
        with pytest.raises(MaskDimensionError):
            parse_mask(b"10\n0\n", "ascii-grid")

    def test_invalid_character(self):
        with pytest.raises(MaskError):
            parse_mask(b"10\n0x\n", "ascii-grid")

    def test_crlf_line_ends_parse_like_lf(self):
        raster = bernoulli(7, 5, 0.5, 3)
        lf = write_mask(raster, "ascii-grid")
        crlf = lf.replace(b"\n", b"\r\n")
        assert parse_mask(crlf, "ascii-grid") == parse_mask(lf, "ascii-grid") == raster

    def test_only_one_carriage_return_is_stripped(self):
        with pytest.raises(MaskError, match="invalid characters"):
            parse_mask(b"10\r\r\n01\r\n", "ascii-grid")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_mask(b"", "png")
    with pytest.raises(ValueError):
        write_mask(BitRaster(1, 1), "png")


@pytest.mark.parametrize("format", ["pbm-ascii", "pbm-binary", "ascii-grid"])
@pytest.mark.parametrize(
    "raster",
    [
        BitRaster(0, 0),
        BitRaster(1, 1),
        BitRaster.from_strings(["1"]),
        BitRaster.from_strings(["10", "01"]),
        bernoulli(9, 2, 0.5, 7),
        bernoulli(17, 13, 0.3, 99),
        bernoulli(64, 64, 0.5, 5),
    ],
)
def test_write_parse_round_trip(format, raster):
    assert parse_mask(write_mask(raster, format), format) == raster


def test_sniff_mask_format():
    assert sniff_mask_format(b"P1\n1 1\n1") == "pbm-ascii"
    assert sniff_mask_format(b"P4\n1 1\n\x80") == "pbm-binary"
    assert sniff_mask_format(b"10\n01\n") == "ascii-grid"
