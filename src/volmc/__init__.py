"""Motorcycle complexes for hexahedral meshes and seamless volume
parametrizations: construction, reduction, sanitization, quantization, and
conforming hex mesh extraction."""

from .cellcomplex import (
    MotorcycleComplex,
    base_complex,
    check_grid_blocks,
    extract_complex,
    is_cuboid,
    motorcycle_complex,
    reduce_complex,
    removable_walls,
    split_tori,
)
from .errors import (
    IntegrityError,
    MeshError,
    NotSeamlessError,
    ParseError,
    VolmcError,
)
from .firehex import trace_hex, trace_hex_base, trace_hex_sparse
from .fireparam import trace_param, trace_param_base
from .hexmesh import HexMesh
from .meshio import (
    export_walls,
    read_hex_mesh,
    read_mesh,
    read_param,
    write_hex_mesh,
    write_param,
)
from .quantize import (
    build_ip,
    extract_hexmesh,
    reparametrize_block,
    solve_quantization,
)
from .sanitize import sanitize, verify_seamless
from .tetparam import ParamTetMesh, hex_to_param

__version__ = "0.1.0"

__all__ = [
    "HexMesh",
    "IntegrityError",
    "MeshError",
    "MotorcycleComplex",
    "NotSeamlessError",
    "ParamTetMesh",
    "ParseError",
    "VolmcError",
    "base_complex",
    "build_ip",
    "check_grid_blocks",
    "export_walls",
    "extract_complex",
    "extract_hexmesh",
    "hex_to_param",
    "is_cuboid",
    "motorcycle_complex",
    "read_hex_mesh",
    "read_mesh",
    "read_param",
    "reduce_complex",
    "removable_walls",
    "reparametrize_block",
    "sanitize",
    "solve_quantization",
    "split_tori",
    "trace_hex",
    "trace_hex_base",
    "trace_hex_sparse",
    "trace_param",
    "trace_param_base",
    "verify_seamless",
    "write_hex_mesh",
    "write_param",
]
