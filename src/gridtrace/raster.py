"""Binary raster masks: storage, seeded random generation, and mask file I/O.

A mask is a width x height grid of marked/unmarked pixels with the origin at
the top-left corner; x grows rightward and y grows downward. Reads outside
the grid always come back unmarked, so downstream window scans need no
sentinel rows.

Supported file formats: PBM P1 (plain text), PBM P4 (packed binary, rows
padded to byte boundaries), and a bare ASCII grid of '0'/'1' rows.
"""

from __future__ import annotations

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

MASK_FORMATS = ("pbm-ascii", "pbm-binary", "ascii-grid")
_MAX_DIMENSION = np.iinfo(np.intp).max


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
        if width < 0 or height < 0:
            raise ValueError(f"raster dimensions must be non-negative, got {width}x{height}")
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
    rows = b"".join(
        "".join("1" if v else "0" for v in row).encode() + b"\n"
        for row in raster._bits.tolist()
    )
    return (f"P1\n{w} {h}\n".encode() if format == "pbm-ascii" else b"") + rows


def _tokenize_pbm_header(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated tokens, skipping '#' comments.

    Returns the tokens and the offset one byte past the final token's
    terminating whitespace character (where P4 payload begins).
    """
    tokens: list[bytes] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (10, 13):
                i += 1
            continue
        if i >= n:
            raise MaskHeaderError(f"header ended after {len(tokens)} of {count} fields")
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i] != ord("#"):
            i += 1
        tokens.append(data[start:i])
    if i < n and data[i : i + 1].isspace():
        i += 1
    return tokens, i


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


def _parse_pbm_ascii(data: bytes) -> BitRaster:
    tokens, offset = _tokenize_pbm_header(data, 3)
    if tokens[0] != b"P1":
        raise MaskHeaderError(f"expected P1 magic, got {_clip(tokens[0])!r}")
    w, h = map(_parse_pbm_dim, tokens[1:3])
    need = w * h
    # Every pixel takes at least one byte, so a header that promises more
    # pixels than there are payload bytes is rejected before allocating.
    if len(data) - offset < need:
        raise MaskTruncatedError(
            f"payload has {len(data) - offset} bytes, too few for {w}x{h} pixels"
        )
    values = np.empty(need, dtype=bool)
    got = 0
    for i in range(offset, len(data)):
        ch = data[i]
        if ch in (48, 49):  # '0' / '1'
            if got == need:
                raise MaskDimensionError(f"more than {need} pixels for {w}x{h}")
            values[got] = ch == 49
            got += 1
        elif data[i : i + 1].isspace():
            continue
        else:
            raise MaskError(f"unexpected byte {data[i:i+1]!r} in P1 payload")
    if got < need:
        raise MaskTruncatedError(f"payload has {got} pixels, expected {need}")
    return BitRaster(w, h, values.reshape(h, w))


def _parse_pbm_binary(data: bytes) -> BitRaster:
    tokens, offset = _tokenize_pbm_header(data, 3)
    if tokens[0] != b"P4":
        raise MaskHeaderError(f"expected P4 magic, got {_clip(tokens[0])!r}")
    w, h = map(_parse_pbm_dim, tokens[1:3])
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
    bits = np.unpackbits(rows, axis=1)[:, :w].astype(bool)
    return BitRaster(w, h, bits)


def _parse_ascii_grid(data: bytes) -> BitRaster:
    text = data.decode("latin-1")
    lines = [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return BitRaster(0, 0)
    w = len(lines[0])
    for i, line in enumerate(lines):
        if len(line) != w:
            raise MaskDimensionError(f"row {i} has {len(line)} columns, expected {w}")
        bad = set(line) - {"0", "1"}
        if bad:
            raise MaskError(f"invalid characters {sorted(bad)} in row {i}")
    bits = np.array([[ch == "1" for ch in line] for line in lines], dtype=bool)
    return BitRaster(w, len(lines), bits.reshape(len(lines), w))
