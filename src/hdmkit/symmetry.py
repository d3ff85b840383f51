"""Invariance checks for 3-cubes indexed by the projective line.

A determinant-1 Moebius map permutes the q+1 points; applying it to every
coordinate of a cube indexed in pg_points order is a simultaneous index
relabelling, and the checks here decide whether the cube is fixed by it.
Generator invariance extends to the whole generated group, so the full
group check only runs the three generators, and the cyclic check only
one coordinate shift (the other is its square).  Every check is one
relabel-and-compare, ncube._relabels_to; a cube's own relabellings go
through ncube._fixes, which decides each once per cube, for these checks
and the verifiers alike, so the verifiers' rotation test answers
check_cyclic and a repeated check compares nothing.  _check_shape raises
DimensionMismatch unless n = 3 and, given a field, OrderMismatch unless
v = q + 1.
"""

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfinityNotAllowed,
    NotAPermutation,
    OrderMismatch,
)
from .gf import Field
from .ncube import SignCube, _fixes, _index, _relabels_to, _rotation_fixes
from .projline import Moebius, PPoint, psl_generators


def _check_shape(H: SignCube, F: Field | None = None) -> None:
    """Require a 3-cube, and with a field F, one of order q + 1."""
    if H.n != 3:
        raise DimensionMismatch(f"need n = 3, got n={H.n}")
    if F is not None and H.v != F.q + 1:
        raise OrderMismatch(f"cube order {H.v} != q+1 = {F.q + 1}")


def check_cyclic(H: SignCube) -> bool:
    """Does H(x, y, z) = H(y, z, x) = H(z, x, y) hold everywhere?

    Invariance under one shift implies it under the shift's square, which
    is the other shift, so one comparison decides both equalities.
    """
    _check_shape(H)
    return _rotation_fixes(H)


def check_permutation_invariance(H: SignCube, perm) -> bool:
    """Is H fixed by relabelling every coordinate with the same point
    permutation (perm[i] = image of point index i)?  Raises OrderMismatch
    unless len(perm) == v, and NotAPermutation unless perm is a
    permutation of range(v), each entry an integer by operator.index and
    not a bool, as ncube._index takes indices."""
    perm = list(perm)
    if len(perm) != H.v:
        raise OrderMismatch(f"permutation length {len(perm)} != order {H.v}")
    try:
        perm = [_index(i, H.v, "permutation entry") for i in perm]
    except IndexOutOfRange as exc:
        raise NotAPermutation(str(exc)) from None
    if set(perm) != set(range(H.v)):
        raise NotAPermutation(f"perm is not a permutation of range({H.v})")
    return _fixes(H, perm)


def check_moebius_invariance(H: SignCube, F: Field, m: Moebius) -> bool:
    """Does H(m(x), m(y), m(z)) = H(x, y, z) hold for all triples?"""
    _check_shape(H, F)
    return check_permutation_invariance(H, m.perm())


def check_psl_invariance(H: SignCube, F: Field) -> bool:
    """Invariance under every generator, hence under the generated group."""
    return all(check_moebius_invariance(H, F, g) for g in psl_generators(F))


def layer_equiv_witness(F: Field, c: PPoint) -> Moebius:
    """The map x -> -1/(x - c), which sends the finite point c to infinity.

    Relabelling both free coordinates of the z = c layer of an invariant
    cube by this map yields the z = infinity layer, so every fixed-value
    layer is a row/column permutation of that one.  c must be an element
    of F: infinity raises InfinityNotAllowed, any other point that is not
    an index in 0..q-1 as F._index reads it (never a bool, a str or a
    list) IndexOutOfRange, from F.neg.
    """
    if c.is_infinity:
        raise InfinityNotAllowed("c must be finite; the identity already works")
    return Moebius(F, 0, F.neg(1), 1, F.neg(c.e))


def check_layer_witness(F: Field, H: SignCube, c: PPoint) -> bool:
    """Verify layer_c(x, y) = layer_inf(f(x), f(y)) for the witness f.
    The layer is found at 1 + c.e with c.e read by F._index, a Python int,
    so a numpy integer such as np.uint8(255) does not wrap."""
    _check_shape(H, F)
    perm = layer_equiv_witness(F, c).perm()
    return _relabels_to(H.array[:, :, 0], H.array[:, :, 1 + F._index(c.e)], perm)
