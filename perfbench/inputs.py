"""Workload definitions and the benchmark's own input generators.

Masks are generated and serialized here with numpy alone, so the program
under test only ever sees mask bytes and a world file. The same seed always
gives the same masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# World file terms in ESRI order (A, D, B, E, C, F). Every term is a power
# of two or a short binary fraction, so world coordinates invert to integer
# grid corners exactly: x = (lon - LON0) / A, y = (lat - LAT0) / E, where
# (LON0, LAT0) is the top-left corner of pixel (0, 0).
A, D, B, E, C, F = 0.25, 0.0, 0.0, -0.25, 10.125, 50.125
LON0 = C - 0.5 * (A + B)
LAT0 = F - 0.5 * (D + E)
WORLD_TEXT = "".join(f"{v!r}\n" for v in (A, D, B, E, C, F))

BLOB_BLOCK = 40


@dataclass(frozen=True)
class Workload:
    """One named workload.

    kind: "noise" (Bernoulli p=0.5) or "blobs" (blurred, thresholded
    coarse noise). mask_format: "P4" or "P1" for a CLI op, None for the
    in-memory library op. masks: how many distinct masks one run cycles
    through; several small masks average out the mask-to-mask spread of a
    workload whose cost depends strongly on the mask's topology.
    """

    name: str
    kind: str
    size: int
    masks: int
    mask_format: str | None
    cli_args: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noise-polygons", "noise", 128, 64, "P4", ("--format", "geojson"),
            "Default CLI path at peak-entropy p=0.5 through the world transform; "
            "the quadratic hole assembly is nearly the whole op.",
        ),
        Workload(
            "noise-rings", "noise", 500, 1, "P4", ("--format", "rings-geojson"),
            "Many vertices and no assembly; GeoJSON serialization dominates the op "
            "and sets the memory peak.",
        ),
        Workload(
            "noise-library", "noise", 1000, 1, None, (),
            "form_rings(detect(raster)) in memory, the path the paper measures: "
            "scan wiring and ring walk are the whole op.",
        ),
        Workload(
            "blobs-wkt", "blobs", 1500, 1, "P1", ("--format", "wkt"),
            "Classifier-like mask with few large regions and lakes stored as plain "
            "PBM: high pixel count, low vertex count, the text parser dominates.",
        ),
    )
}


def mask_seed(seed: int, workload: str, index: int) -> np.random.SeedSequence:
    key = list(workload.encode())
    return np.random.SeedSequence([seed, index, *key])


def make_mask(workload: Workload, seed: int, index: int, size: int) -> np.ndarray:
    """The index-th (size x size) boolean mask of this workload for this seed."""
    rng = np.random.Generator(np.random.PCG64(mask_seed(seed, workload.name, index)))
    if workload.kind == "noise":
        return rng.random((size, size)) < 0.5
    return blobs(rng, size)


def blobs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Bernoulli(0.5) grid of (n/40+2)^2 cells, upsampled by 40, box-blurred
    with a 40x40 window and marked where the blurred value is at least one
    half (so diagonally touching cells join into one region).

    The upsampled grid is block-constant, so the 40-wide box sum at fine
    offset t covers coarse cells t//40 and t//40+1 with weights 40 - t%40 and
    t%40. The blur is therefore W @ G @ W.T with a two-band weight matrix W,
    computed in row chunks to keep the generator's memory small.
    """
    cells = n // BLOB_BLOCK + 2
    coarse = (rng.random((cells, cells)) < 0.5).astype(np.float64)
    t = np.arange(n)
    k, frac = t // BLOB_BLOCK, t % BLOB_BLOCK
    weights = np.zeros((n, cells))
    weights[t, k] = BLOB_BLOCK - frac
    weights[t, k + 1] = frac
    half = coarse @ weights.T  # (cells, n): box sums along x
    out = np.empty((n, n), dtype=bool)
    threshold = 0.5 * BLOB_BLOCK * BLOB_BLOCK
    for start in range(0, n, 256):
        out[start : start + 256] = weights[start : start + 256] @ half >= threshold
    return out


def encode_mask(bits: np.ndarray, mask_format: str) -> bytes:
    """Serialize a boolean mask as PBM P4 (packed) or P1 (plain text)."""
    h, w = bits.shape
    if mask_format == "P4":
        return f"P4\n{w} {h}\n".encode() + np.packbits(bits, axis=1).tobytes()
    text = np.full((h, w + 1), ord("\n"), dtype=np.uint8)
    text[:, :w] = np.where(bits, ord("1"), ord("0"))
    return f"P1\n{w} {h}\n".encode() + text.tobytes()


def write_inputs(workload: Workload, seed: int, size: int, workdir: Path) -> list[np.ndarray]:
    """Generate every mask of a run and, for CLI workloads, write the mask
    files and the world file into workdir. Returns the masks."""
    masks = [make_mask(workload, seed, i, size) for i in range(workload.masks)]
    if workload.mask_format is not None:
        for i, bits in enumerate(masks):
            (workdir / f"mask{i}.pbm").write_bytes(encode_mask(bits, workload.mask_format))
        (workdir / "mask.wld").write_text(WORLD_TEXT)
    return masks
