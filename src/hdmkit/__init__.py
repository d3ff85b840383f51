"""Higher-dimensional Hadamard matrices: constructions, verification, symmetry."""

from .constructions import almost_cube, dim_lift, paley2, paley3, yang_product
from .gf import Field
from .ncube import (
    SignCube,
    VerifyReport,
    is_hadamard,
    is_hadamard_naive,
    is_proper,
    layer,
    parse,
    read,
    serialize,
    write,
)
from .projline import INF, Moebius, PPoint, pg_index, pg_points, psl_generators
from .symmetry import (
    check_cyclic,
    check_layer_witness,
    check_moebius_invariance,
    check_permutation_invariance,
    check_psl_invariance,
    layer_equiv_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "SignCube",
    "VerifyReport",
    "INF",
    "Moebius",
    "PPoint",
    "almost_cube",
    "check_cyclic",
    "check_layer_witness",
    "check_moebius_invariance",
    "check_permutation_invariance",
    "check_psl_invariance",
    "dim_lift",
    "is_hadamard",
    "is_hadamard_naive",
    "is_proper",
    "layer",
    "layer_equiv_witness",
    "paley2",
    "paley3",
    "parse",
    "pg_index",
    "pg_points",
    "psl_generators",
    "read",
    "serialize",
    "write",
    "yang_product",
]
