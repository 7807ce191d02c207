"""gridtrace: exact orthogonal-polygon delineation of binary raster masks.

Traces every marked pixel's boundary in one scan, joins the boundary into
closed non-self-intersecting rings, georeferences them through a
grid-to-world affine transform, and serializes to GeoJSON or WKT. Includes
brute-force verification oracles and a scaling benchmark harness.
"""

from .bench import ShapeReport, TimingRecord, check_shape, run_experiment, trial_seed
from .raster import (
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
from .rings import (
    Polygon,
    PolygonSet,
    RingSet,
    RingTraversalError,
    TopologyError,
    assemble_polygons,
    form_rings,
    signed_area,
)
from .trace import Delineation, TraceError, detect, window_types
from .transform import (
    IDENTITY,
    AffineTransform,
    DegenerateTransformError,
    WorldFileError,
    parse_world_file,
)
from .verify import (
    assemble_polygons_bruteforce,
    boundary_edges,
    rasterize_even_odd,
    unit_edges,
)
from .writers import write_geojson, write_timing_csv, write_wkt

__version__ = "0.1.0"

__all__ = [
    "AffineTransform",
    "BitRaster",
    "Delineation",
    "DegenerateTransformError",
    "IDENTITY",
    "MaskDimensionError",
    "MaskError",
    "MaskHeaderError",
    "MaskTruncatedError",
    "Polygon",
    "PolygonSet",
    "RingSet",
    "RingTraversalError",
    "ShapeReport",
    "TimingRecord",
    "TopologyError",
    "TraceError",
    "WorldFileError",
    "assemble_polygons",
    "assemble_polygons_bruteforce",
    "bernoulli",
    "boundary_edges",
    "check_shape",
    "detect",
    "form_rings",
    "parse_mask",
    "parse_world_file",
    "rasterize_even_odd",
    "run_experiment",
    "signed_area",
    "sniff_mask_format",
    "trial_seed",
    "unit_edges",
    "window_types",
    "write_geojson",
    "write_mask",
    "write_timing_csv",
    "write_wkt",
]
