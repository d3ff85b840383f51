"""Quadratic-character matrix constructions over the projective line.

Rows/columns/axes are indexed by the q+1 projective points in pg_points
order (infinity first, then field elements), so cube index 0 is the point
at infinity and index 1+a is the field element a.

The Paley cubes are read off one int8 matrix on PG(1, q), D[a, b] =
chi(a - b) (_diff_chi), whose finite core is copied from a read-only window
view of a small table of characters (Field._chi_form): over a prime field
one Toeplitz window, over GF(p**k) one per base-p digit.  Since chi is
multiplicative, the 3-cube is D[x, y] * D[y, z] * D[z, x], two in-place
int8 products of broadcast views of D, and the 2-D matrix is its
z = infinity layer.  almost_cube copies the window view of chi(x_1 + ... +
x_d) the same way, and dim_lift a window view of its input.

A construction hands its cube over with no claim about its symmetry.  The
verifiers test for themselves the relabellings they use to skip work, the
digit translations x -> x + p**j and the scaling x -> g^2 x
(ncube._affine_fixes), which fix the Paley cubes over every GF(p**k) and
the products of their paley2.
"""

import itertools
import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, DimensionTooSmall, NotHadamardInput, TooLarge
from .gf import Field
from .ncube import MAX_AXES, SignCube, is_hadamard

# Largest cube that any construction builds: 2**30 entries, 1 GiB as int8.  A
# paley3 build, hdm construct and hdm verify each hold the cube plus about
# ncube._BUDGET (1 MiB) of temporaries: the Paley cubes are filled in place,
# write and read stream the file in blocks of rows, and the symmetry checks
# walk the cube in slabs.  almost_cube and dim_lift copy window views into a
# new cube, so they too stay near one byte per entry.  Larger requests raise
# TooLarge before allocating, as do more than ncube.MAX_AXES axes.
MAX_ENTRIES = 1 << 30


def _check_size(n: int, v: int) -> None:
    if n > MAX_AXES or v**n > MAX_ENTRIES:
        raise TooLarge(f"a cube of order {v} and dimension {n} exceeds "
                       f"{MAX_ENTRIES} entries or {MAX_AXES} axes")


def _integer(x):
    """x as an int by operator.index, as ncube._index takes indices, or
    None if it is a bool or not an integer."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


def _dim(dim) -> int:
    """dim as an int >= 2 (_integer), else DimensionTooSmall before any
    size is computed."""
    d = _integer(dim)
    if d is None:
        raise DimensionTooSmall(f"dim {dim!r} is not an integer")
    if d < 2:
        raise DimensionTooSmall("need dim >= 2")
    return d


def _chi_core(out: np.ndarray, F: Field, signs, at_zero: int) -> None:
    """Copy F._chi_form(signs, at_zero) into out's finite core, out[1:, ...,
    1:], split into base-p digit axes; copy=False makes numpy refuse the
    split, not silently copy and drop the writes, should it not be a view."""
    core = out[(slice(1, None),) * len(signs)]
    core.reshape((F.p,) * (F.k * len(signs)), copy=False)[...] = F._chi_form(signs, at_zero)


def _diff_chi(F: Field) -> np.ndarray:
    """D[a, b] = chi(a - b) on PG(1, q), int8 of shape (q+1, q+1), with
    chi(inf - b) = 1, chi(a - inf) = chi(-1), and chi(-1) on the whole
    diagonal.  These make D[a, b] * D[b, a] = chi(-1) for every a != b, so
    D[x, y] * D[y, z] * D[z, x] is +1 when exactly two of x, y, z are equal."""
    chi_minus1 = F.chi(F.neg(1))
    D = np.empty((F.q + 1, F.q + 1), dtype=np.int8)
    _chi_core(D, F, (1, -1), chi_minus1)  # a - a = 0 on the finite diagonal
    D[0] = 1
    D[:, 0] = chi_minus1
    return D


def paley2(F: Field) -> SignCube:
    """2-D quadratic-residue matrix of order q+1: -1 at (inf, inf), +1 on
    the rest of the diagonal and the infinity row/column, chi(y - x)
    elsewhere.  Hadamard for q = 3 (mod 4).

    This is paley3's z = infinity layer, D[x, y] * D[y, inf] * D[inf, x]:
    D with its finite rows times chi(-1), and -1 at (inf, inf)."""
    v = F.q + 1
    _check_size(2, v)
    h = _diff_chi(F)
    h[1:] *= h[0, 0]  # the diagonal holds chi(-1)
    h[0, 0] = -1
    return SignCube._adopt(2, v, h)


def paley3(F: Field) -> SignCube:
    """3-D quadratic-residue cube of order q+1: chi((x-y)(y-z)(z-x)) on
    PG(1, q), built as D[x, y] * D[y, z] * D[z, x] with D = _diff_chi(F).

    Entries: -1 when all three coordinates coincide; +1 when exactly two
    coincide; chi of the opposite difference when one coordinate is
    infinity (chi(z-y), chi(x-z), chi(y-x) for x, y, z = infinity
    respectively); chi((x-y)(y-z)(z-x)) for distinct finite coordinates.
    The product gives all of these but the triple diagonal, where it is
    chi(-1)**3.
    """
    v = F.q + 1
    _check_size(3, v)
    D = _diff_chi(F)
    H = np.empty((v, v, v), dtype=np.int8)
    np.multiply(D[:, :, None], D[None], out=H)
    # D.T as a view would be read by column in the innermost loop
    H *= np.ascontiguousarray(D.T)[:, None, :]
    i = np.arange(v)
    H[i, i, i] = -1
    return SignCube._adopt(3, v, H)


def yang_product(h: SignCube, dim: int) -> SignCube:
    """Entrywise product of a 2-D Hadamard matrix over all coordinate
    pairs; yields a proper dim-dimensional Hadamard matrix.

    The last two axes are read as one of v*v entries, so that every pass
    multiplies runs of v*v contiguous entries, not of v.  The pairs
    (j, dim-2) and (j, dim-1) take one pass together, by the table
    T[x, (y, z)] = h(x, y) * h(x, z) of v**3 entries (at dim 3 the cube
    itself, built in place); the pair (dim-2, dim-1) is h read flat, and
    each pair of the other axes is h broadcast over those runs."""
    if h.n != 2:
        raise DimensionMismatch(f"input must be 2-dimensional, got n={h.n}")
    dim = _dim(dim)
    _check_size(dim, h.v)
    if not is_hadamard(h).passed:
        raise NotHadamardInput("product construction needs a Hadamard input")
    v, a = h.v, h.array
    out = np.empty((v,) * (dim - 2) + (v * v,), dtype=np.int8)

    def along(*axes, last=1):  # a factor's shape over out's axes
        return [v if i in axes else 1 for i in range(dim - 2)] + [last]
    if dim == 2:
        out[...] = a.reshape(-1)
    else:
        t = out.reshape(v, -1, v, v)[:, 0] if dim == 3 else np.empty((v, v, v), np.int8)
        np.multiply(a[:, :, None], a[:, None, :], out=t)
        t = t.reshape(v, v * v)
        if dim > 3:
            out.reshape(v, -1, v * v)[...] = t[:, None]
        for j in range(1, dim - 2):
            out *= t.reshape(along(j, last=v * v))
        out *= a.reshape(-1)
        for j, k in itertools.combinations(range(dim - 2), 2):
            out *= a.reshape(along(j, k))
    return SignCube._adopt(dim, v, out)


def dim_lift(h: SignCube) -> SignCube:
    """Lift an n-dimensional Hadamard matrix to n+1 dimensions by reading
    the last coordinate as a sum of two, modulo v.  Does not preserve
    propriety."""
    _check_size(h.n + 1, h.v)
    if not is_hadamard(h).passed:
        raise NotHadamardInput("dimension lift needs a Hadamard input")
    v, a = h.v, h.array
    # out[..., y, z] = a[..., y + z] once the last axis runs on past v - 1
    # into a's first v - 1 entries again; the copy is C-contiguous
    wrapped = np.concatenate((a, a[..., :v - 1]), axis=-1)
    return SignCube._adopt(h.n + 1, v, sliding_window_view(wrapped, v, axis=-1).copy())


def almost_cube(F: Field, dim: int, chi0: int = -1) -> SignCube:
    """Coordinate-sum character cube: +1 whenever a coordinate is infinity,
    otherwise chi(x_1 + ... + x_dim) with chi(0) := chi0.

    Not a higher-dimensional Hadamard matrix for dim >= 3; kept as the
    negative control for the verifier.

    Layer structure for dim == 3 (index 0 is infinity):
      * a 2-D layer fixed at infinity is all-ones;
      * in a layer fixed at a finite value, the infinity row is orthogonal
        to every finite row exactly when chi0 == -1 (the inner product is
        1 + chi0), and two finite rows b != c have inner product
        chi0 * chi(delta) * (1 + chi(-1)), where delta = c - b;
      * so with the default chi0 == -1 the finite-fixed layers are
        Hadamard if and only if q = 3 (mod 4); for q = 1 (mod 4),
        chi(-1) = +1 and no chi0 makes them Hadamard.
    """
    dim = _dim(dim)
    sign = _integer(chi0)  # as dim is read: 1.0 and True are refused
    if sign not in (-1, 1):
        raise ValueError("chi0 must be +1 or -1")
    v = F.q + 1
    _check_size(dim, v)
    H = np.ones((v,) * dim, dtype=np.int8)
    _chi_core(H, F, (1,) * dim, sign)
    return SignCube._adopt(dim, v, H)
