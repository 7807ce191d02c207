"""Binary raster masks: storage, seeded random generation, and mask file I/O.

A mask is a width x height grid of marked/unmarked pixels with the origin at
the top-left corner; x grows rightward and y grows downward. Reads outside
the grid always come back unmarked, so downstream window scans need no
sentinel rows.

Supported file formats: PBM P1 (plain text), PBM P4 (packed binary, rows
padded to byte boundaries), and a bare ASCII grid of '0'/'1' rows. The text
payloads are read whole: numpy maps every byte through a byte-class table
and counts, checks and picks the digits in array passes, so no Python code
runs per byte. A PBM header is read one field at a time by a regular
expression. `verify` keeps per-byte readers of PBM headers and of both
text formats as oracles for them.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "BitRaster",
    "MaskError",
    "MaskHeaderError",
    "MaskDimensionError",
    "MaskTruncatedError",
    "bernoulli",
    "parse_mask",
    "sniff_mask_format",
    "write_mask",
]

_MAX_DIMENSION = np.iinfo(np.intp).max

# The class of every byte in a text payload: whitespace as bytes.isspace
# defines it (space, \t, \n, \v, \f, \r), the digits 0 and 1, or any other
# byte. Whitespace is 0 and the digits 1, so a run of classes with no other
# byte in it reads as the digit mask through a bool view.
_SPACE, _DIGIT, _OTHER = 0, 1, 2
_BYTE_CLASS = np.full(256, _OTHER, np.uint8)
_BYTE_CLASS[list(b" \t\n\v\f\r")] = _SPACE
_BYTE_CLASS[list(b"01")] = _DIGIT

# One PBM header field with the whitespace and comments before it. Every
# repeat of the gap starts at a '#' and the field may be empty, so a match
# never backtracks; an empty field means the data ended.
_PBM_FIELD = re.compile(rb"[ \t\n\v\f\r]*(?:#[^\n\r]*[ \t\n\v\f\r]*)*([^ \t\n\v\f\r#]*)")


class MaskError(ValueError):
    """Base error for unreadable or inconsistent mask files."""


class MaskHeaderError(MaskError):
    """Missing or malformed header (bad magic, non-numeric dimensions)."""


class MaskDimensionError(MaskError):
    """Payload disagrees with the declared or implied dimensions."""


class MaskTruncatedError(MaskError):
    """Payload ends before width*height pixels were read."""


class BitRaster:
    """A width x height binary pixel mask, immutable after construction.

    Pixels are stored row-major as booleans (True = marked).
    """

    __slots__ = ("width", "height", "_bits")

    def __init__(self, width: int, height: int, bits=None):
        for name, d in (("width", width), ("height", height)):
            if not 0 <= d <= _MAX_DIMENSION:
                raise ValueError(f"raster {name} {d} is not from 0 to {_MAX_DIMENSION}")
        self.width = int(width)
        self.height = int(height)
        if bits is None:
            self._bits = np.zeros((self.height, self.width), dtype=bool)
        else:
            arr = np.array(bits, dtype=bool)  # own copy; instances are immutable
            if arr.shape != (self.height, self.width):
                raise ValueError(
                    f"bits shape {arr.shape} does not match {height} rows x {width} cols"
                )
            self._bits = arr
        self._bits.setflags(write=False)

    @classmethod
    def _adopt(cls, bits: np.ndarray) -> "BitRaster":
        """A raster that takes `bits`, a fresh (height, width) bool array
        that nothing else holds, without the copy the constructor makes."""
        raster = cls.__new__(cls)
        raster.height, raster.width = bits.shape
        bits.setflags(write=False)
        raster._bits = bits
        return raster

    @classmethod
    def from_strings(cls, rows: list[str]) -> "BitRaster":
        """Build a raster from strings, one per row; '1' or '#' mark a pixel."""
        height = len(rows)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("rows must all have the same length")
        bits = np.array(
            [[ch in "1#" for ch in row] for row in rows], dtype=bool
        ).reshape(height, width)
        return cls(width, height, bits)

    def marked_count(self) -> int:
        return int(self._bits.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitRaster):
            return NotImplemented
        # The bits' shape is (height, width), so equal bits mean equal dimensions.
        return bool(np.array_equal(self._bits, other._bits))

    def __hash__(self):
        return hash((self.width, self.height, self._bits.tobytes()))

    def __repr__(self):
        return f"BitRaster({self.width}x{self.height}, {self.marked_count()} marked)"


def bernoulli(width: int, height: int, p: float, seed: int) -> BitRaster:
    """Generate a raster whose pixels are independently marked with probability p.

    Deterministic: the same (width, height, p, seed) always yields the same
    raster. Draws come from numpy's PCG64 generator seeded with `seed`.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.random((height, width)) < p
    return BitRaster(width, height, bits)


def sniff_mask_format(data: bytes) -> str:
    """Guess the mask format from its leading bytes."""
    if data.startswith(b"P1"):
        return "pbm-ascii"
    if data.startswith(b"P4"):
        return "pbm-binary"
    return "ascii-grid"


def parse_mask(data: bytes, format: str) -> BitRaster:
    """Parse mask bytes in the given format ('pbm-ascii', 'pbm-binary', 'ascii-grid').

    PBM value 1 means marked. Raises MaskHeaderError, MaskDimensionError, or
    MaskTruncatedError depending on what is wrong with the input.
    """
    if format == "pbm-ascii":
        return _parse_pbm_ascii(data)
    if format == "pbm-binary":
        return _parse_pbm_binary(data)
    if format == "ascii-grid":
        return _parse_ascii_grid(data)
    raise ValueError(f"unknown mask format {format!r}")


def write_mask(raster: BitRaster, format: str = "pbm-binary") -> bytes:
    """Serialize a raster; inverse of parse_mask for every supported format."""
    w, h = raster.width, raster.height
    if format == "pbm-binary":
        packed = np.packbits(raster._bits, axis=1) if w else np.zeros((h, 0), np.uint8)
        return f"P4\n{w} {h}\n".encode() + packed.tobytes()
    if format not in ("pbm-ascii", "ascii-grid"):
        raise ValueError(f"unknown mask format {format!r}")
    text = np.full((h, w + 1), ord("\n"), np.uint8)
    text[:, :w] = raster._bits
    text[:, :w] += ord("0")
    return (f"P1\n{w} {h}\n".encode() if format == "pbm-ascii" else b"") + text.tobytes()


def _clip(token: bytes) -> bytes:
    """A header token cut short enough to echo in an error message."""
    return token if len(token) <= 24 else token[:20] + b"..."


def _parse_pbm_dim(token: bytes) -> int:
    shown = _clip(token).decode("latin-1")
    if not token.isdigit():
        raise MaskHeaderError(f"dimension {shown!r} is not a non-negative decimal integer")
    # int() refuses more than 4300 digits, leading zeros included, and 20
    # significant digits already exceed any array dimension.
    d = int(token.lstrip(b"0")[:20] or b"0")
    if d > _MAX_DIMENSION:
        raise MaskHeaderError(f"dimension {shown} exceeds the largest array dimension")
    return d


def _pbm_header(data: bytes, magic: bytes) -> tuple[int, int, int]:
    """The width, height and payload offset of a PBM file with this magic.

    Header fields are separated by whitespace as bytes.isspace defines it,
    and a '#' comment runs to the next LF or CR. The payload starts one
    byte past the whitespace byte that ends the last field.
    """
    tokens = []
    offset = 0
    while len(tokens) < 3:
        field = _PBM_FIELD.match(data, offset)
        if not field[1]:
            raise MaskHeaderError(f"header ended after {len(tokens)} of 3 fields")
        tokens.append(field[1])
        offset = field.end()
    if data[offset : offset + 1].isspace():
        offset += 1
    if tokens[0] != magic:
        raise MaskHeaderError(f"expected {magic.decode()} magic, got {_clip(tokens[0])!r}")
    w, h = map(_parse_pbm_dim, tokens[1:3])
    return w, h, offset


def _parse_pbm_ascii(data: bytes) -> BitRaster:
    w, h, offset = _pbm_header(data, b"P1")
    need = w * h
    # Every pixel takes at least one byte, so a header that promises more
    # pixels than there are payload bytes is rejected before allocating.
    if len(data) - offset < need:
        raise MaskTruncatedError(
            f"payload has {len(data) - offset} bytes, too few for {w}x{h} pixels"
        )
    payload = np.frombuffer(data, np.uint8, offset=offset)
    classes = _BYTE_CLASS[payload]
    # The first problem in byte order wins: an other byte, or the digit
    # after the last pixel, whichever comes first.
    first = int(classes.argmax()) if classes.size else 0
    stop = first if classes.size and classes[first] == _OTHER else classes.size
    digits = classes[:stop].view(bool)
    got = np.count_nonzero(digits)
    if got > need:
        at = offset + int(np.flatnonzero(digits)[need])
        raise MaskDimensionError(
            f"more than {need} pixels for {w}x{h}: digit {need + 1} at byte {at} of the P1 file"
        )
    if stop < classes.size:
        at = offset + stop
        raise MaskError(f"unexpected byte {data[at : at + 1]!r} at byte {at} of the P1 file")
    if got < need:
        raise MaskTruncatedError(f"payload has {got} pixels, expected {need}")
    values = payload[digits]
    del classes, digits
    values &= 1  # '0' and '1' differ in the low bit alone
    return BitRaster._adopt(values.view(bool).reshape(h, w))


def _parse_pbm_binary(data: bytes) -> BitRaster:
    w, h, offset = _pbm_header(data, b"P4")
    row_bytes = (w + 7) // 8
    need = row_bytes * h
    payload = data[offset:]
    if len(payload) < need:
        raise MaskTruncatedError(f"payload has {len(payload)} bytes, expected {need}")
    if len(payload) > need:
        raise MaskDimensionError(f"{len(payload) - need} trailing bytes after {w}x{h} payload")
    if need == 0:
        return BitRaster(w, h)
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(h, row_bytes)
    return BitRaster._adopt(np.unpackbits(rows, axis=1)[:, :w].astype(bool))


def _parse_ascii_grid(data: bytes) -> BitRaster:
    buf = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, buf.size)
    # One carriage return per line is part of its line end.
    filled = np.flatnonzero(ends > starts)
    crs = filled[buf[ends[filled] - 1] == ord("\r")]
    ends[crs] -= 1
    filled = np.flatnonzero(ends > starts)
    if not filled.size:
        return BitRaster(0, 0)
    h = int(filled[-1]) + 1  # trailing empty lines are no rows
    starts, widths = starts[:h], (ends - starts)[:h]
    w = int(widths[0])
    digits = _BYTE_CLASS[buf] == _DIGIT
    bad = ~digits
    bad[newlines] = False
    bad[ends[crs]] = False
    first = int(bad.argmax())
    # The first bad row wins; within a row the width comes first.
    wide = np.flatnonzero(widths != w)
    row = int(wide[0]) if wide.size else h
    if bad[first]:
        row = min(row, int(np.searchsorted(starts, first, side="right")) - 1)
    if row < h:
        if widths[row] != w:
            raise MaskDimensionError(f"row {row} has {widths[row]} columns, expected {w}")
        line = data[starts[row] : starts[row] + widths[row]].decode("latin-1")
        raise MaskError(f"invalid characters {sorted(set(line) - {'0', '1'})} in row {row}")
    del bad
    # Every byte outside the rows is a line end, so the digits are the pixels.
    values = buf[digits]
    del digits
    values &= 1
    return BitRaster._adopt(values.view(bool).reshape(h, w))
