"""Grid-to-world affine transforms and ESRI-style world file parsing.

The transform maps integer grid-corner coordinates (x, y) to world
(longitude, latitude):

    lon = a*x + b*y + c
    lat = d*x + e*y + f

World files reference the CENTER of the top-left pixel; the parser shifts
the translation by half a pixel so (c, f) refer to that pixel's top-left
CORNER, which is what boundary tracing emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "AffineTransform",
    "DegenerateTransformError",
    "IDENTITY",
    "WorldFileError",
    "parse_world_file",
]


class WorldFileError(ValueError):
    """World file does not have six finite numeric lines."""


class DegenerateTransformError(ValueError):
    """Transform collapses the plane (zero determinant)."""


@dataclass(frozen=True)
class AffineTransform:
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        # Plain floats, so that every map gives float64 positions.
        for name in "abcdef":
            object.__setattr__(self, name, float(getattr(self, name)))

    def apply(self, x: float, y: float) -> tuple[float, float]:
        """Map grid-corner coordinates, scalars or arrays, to (longitude, latitude).

        Positions that overflow come out as non-finite floats, with no warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.a * x + self.b * y + self.c, self.d * x + self.e * y + self.f)

    @property
    def determinant(self) -> float:
        return self.a * self.e - self.b * self.d

    @property
    def is_degenerate(self) -> bool:
        """Whether a*e - b*d is zero, decided exactly on finite terms: in
        floats it can overflow to NaN or underflow to zero."""
        terms = (self.a, self.e, self.b, self.d)
        if not all(map(math.isfinite, terms)):
            return self.determinant == 0.0
        a, e, b, d = map(Fraction, terms)
        return a * e == b * d


IDENTITY = AffineTransform(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def parse_world_file(text: str) -> AffineTransform:
    """Parse a six-line world file (A, D, B, E, C, F order).

    A/B/D/E are the linear terms; C/F locate the center of pixel (0, 0), so
    the returned translation is c = C - (A+B)/2, f = F - (D+E)/2.

    Raises WorldFileError for a wrong line count or a non-numeric or
    non-finite line, and DegenerateTransformError when the linear part has
    zero determinant.
    """
    lines = [
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if len(lines) != 6:
        raise WorldFileError(f"expected 6 lines, got {len(lines)}")
    values = []
    for number, line in lines:
        try:
            value = float(line)
        except ValueError:
            raise WorldFileError(f"line {number} is not numeric: {line!r}") from None
        if not math.isfinite(value):
            raise WorldFileError(f"line {number} is not a finite number: {line!r}")
        values.append(value)
    a_, d_, b_, e_, c_, f_ = values
    tr = AffineTransform(
        a=a_,
        b=b_,
        c=c_ - 0.5 * (a_ + b_),
        d=d_,
        e=e_,
        f=f_ - 0.5 * (d_ + e_),
    )
    if tr.is_degenerate:
        raise DegenerateTransformError(f"degenerate transform (a*e - b*d = 0): {tr}")
    return tr
