"""Invariance checks for 3-cubes indexed by the projective line.

A determinant-1 Moebius map permutes the q+1 points; applying it to every
coordinate of a cube indexed in pg_points order is a simultaneous index
relabelling, and the checks here decide whether the cube is fixed by it.
Invariance under generators extends to the generated group, so the
cyclic check compares one coordinate shift (the other is its square),
and the PSL check B's generators and the inversion.  Every compare is one
relabel-and-compare, made through the module attribute
ncube._relabels_to.  The cyclic and PSL verdicts are kept on the cube by
name (ncube._decide), as the verifiers keep theirs, so the verifiers'
rotation test answers check_cyclic, their B verdict is half of the PSL
check, and a repeated cyclic or PSL check compares nothing.  A
permutation a caller gives is compared on every call, and nothing is
kept.  _check_shape raises DimensionMismatch unless n = 3 and, given a
field, OrderMismatch unless v = q + 1.
"""

from . import ncube
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfinityNotAllowed,
    NotAPermutation,
    OrderMismatch,
)
from .gf import Field
from .ncube import SignCube, _index
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
    return ncube._rotation_fixes(H)


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
    return ncube._relabels_to(H.array, H.array, perm)


def check_moebius_invariance(H: SignCube, F: Field, m: Moebius) -> bool:
    """Does H(m(x), m(y), m(z)) = H(x, y, z) hold for all triples?"""
    _check_shape(H, F)
    return check_permutation_invariance(H, m.perm())


def check_psl_invariance(H: SignCube, F: Field) -> bool:
    """Is H fixed by PSL(2, q), the group of psl_generators(F)?

    That holds exactly when B, the maps x -> a*x + b with a a non-zero
    square (ncube._affine_fixes), and the inversion iota: x -> -1/x fix H,
    since <B, iota> is PSL(2, q).  B contains PSL's translation x -> x + 1
    and scaling sigma: x -> g²x, and they generate it: sigma^m conjugates
    x -> x + 1 to x -> x + g^(2m), a translation by any non-zero square,
    and every element of GF(q) is a sum of squares.  B is the stabilizer
    of infinity in PSL's 2-transitive, hence primitive, action on
    PG(1, q), so B is maximal in PSL; iota moves infinity to 0, so it is
    not in B, and <B, iota> is all of PSL, which the three generators
    generate.  B's verdict is shared with the verifiers.

    The inversion is compared only if B fixes H, and then on indices
    [0, 2 + nu) of axis 0 alone, nu the least non-square's index
    (ncube._point_maps).  B holds the torus T = <sigma>, and iota
    normalizes T: iota(sigma(iota(x))) = x / g² = sigma^-1(x).  So H
    relabelled by iota is fixed by T as H is, and two T-fixed cubes that
    agree on the triples whose first coordinate is in a set meeting every
    T-orbit of points are equal.  The T-orbits are {infinity}, {0}, the
    squares and the non-squares, and indices 0, 1, 2 (the element 1) and
    1 + nu of the prefix meet them.
    """
    _check_shape(H, F)
    return ncube._decide(H, "psl", lambda: ncube._affine_fixes(H) and ncube._relabels_to(
        H.array, H.array, psl_generators(F)[1].perm(), rows=2 + ncube._point_maps(H.v).nu))


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
    return ncube._relabels_to(H.array[:, :, 0], H.array[:, :, 1 + F._index(c.e)], perm)
