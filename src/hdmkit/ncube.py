"""n-dimensional sign matrices, the orthogonality verifier, and the HDM format.

A SignCube stores an order-v, n-dimensional array over {-1, +1} flat in
C order: entry (i_1, ..., i_n) sits at offset sum(i_j * v**(n-j)), i.e. the
last index varies fastest.  All indices are 0-based.

The verifier checks that any two parallel (n-1)-dimensional layers that
differ in one fixed coordinate have inner product 0.  All such inner
products are entries of Gram matrices X @ Xᵀ of ±1 matrices, which one
kernel forms with float BLAS products (exact; see _gram_dtype) and scans
for the first nonzero entry above the diagonal.  Both checks view the
cube as a stack of such matrices, one per axis for is_hadamard and the
2-D layers of each axis pair for is_proper, and one producer (_scan)
feeds the kernel: it takes the stack in chunks that double in size, the
first of one matrix or of about _BUDGET // 256 entries of small ones, and
the columns in blocks, through one float buffer of at most _BUDGET bytes;
a rule that skips work hands it fewer rows or matrices, gathered in index
order.  The one matrix whose rows are contiguous fibres, is_hadamard's
last axis, is cast as blocks of its transpose's rows instead.  That
buffer, the slabs of _relabels_to and the row blocks of write and read
are views of one scratch buffer per thread (_scratch), at most _BUDGET
bytes, which is kept between calls, so a check does not fault in fresh
pages for its temporaries each time.  Beside the scratch a check holds
the Gram matrices, v*v floats each.  A plain summation implementation is
kept alongside as an independent cross-check.

A cube fixed by the rotation of its coordinates, H(x_1, ..., x_n) =
H(x_2, ..., x_n, x_1), as the Paley 3-cube and the product of a symmetric
matrix are, is checked once per rotation orbit.  The rotation maps the
layers of axis j onto those of axis j - 1, so every axis has one Gram
matrix, and the 2-D layers of an axis pair (j1, j2) onto those of
(j1 - 1, j2 - 1), transposed when the pair wraps past axis 0; a transposed
Hadamard matrix is Hadamard.  Each orbit of pairs holds one of (0, d),
d = 1, ..., n // 2, which are the first n // 2 pairs in scan order.  So
once axis 0, or those pairs, pass, one relabel-and-compare (_relabels_to,
which also serves the symmetry module) decides whether the rest may be
skipped; a cube that fails earlier never pays for it, and a report never
depends on it.

When p = v - 1 is an odd prime, and only then, the verifiers also ask
whether H is fixed by the affine group B = <s, sigma> of the maps
x -> a*x + b on the projective line over GF(p) (infinity first), a a
non-zero square: s is x -> x + 1 and sigma is x -> g²x, g the least
primitive root mod p (_scaling, _affine_fixes).  B is PSL(2, p)'s
stabilizer of infinity, and s and sigma have the bytes of PSL's
translation and scaling, so the PSL check reads both verdicts from the
memo.  A relabelling pi that fixes H on every coordinate at once maps the
layers of axis j at a and b onto those at pi(a) and pi(b), with the same
inner product, and the 2-D layer at fixed values c onto the one at
pi(c), its rows and columns relabelled alike.  So the full scan's first
violation is the lex-least of its orbit, and a scan kept to the
lex-least elements of B's orbits, in index order, reports it.  For
is_hadamard those are Gram entries among the layers {0, 1, 2}, and
1 + nu when p = 1 (mod 4), nu the least non-square (_heads); for
is_proper, the layers whose fixed coordinates are in canonical form
(_representatives): 6 of the 576 layers of a pair at order 24 in 4
dimensions.  For n = 3 those are z = inf and z = 0, whose stabilizers in
B are B and the torus T = <sigma>; T fixes inf and 0 and keeps the
squares and the non-squares apart, so every T-orbit of row pairs has its
lex-least member in Gram rows [0, 2 + nu), and only those are formed.

s is compared whole, and sigma once s has passed, on indices [0, 2) of
axis 0 alone: sigma normalizes A = <s>, sigma(x + 1) = sigma(x) + g², so
H relabelled by sigma is fixed by A as H is, and two A-fixed cubes that
agree on the n-tuples whose first coordinate is below 2, which meet
every orbit of A, are equal.  B is compared only after a scan that any
report would need anyway: is_hadamard first scans the head layers of
axis 0, and a hit at (0, 1) or (0, 2) is the full scan's first violation
whatever the group; is_proper first scans the layers of a pair whose
first fixed coordinate is below 2, a prefix that meets every orbit of A.
A cube that B does not fix, and every cube of another order, is scanned
whole, is_hadamard after one probe of Gram rows [0, 2) of axis 0, where
every one-entry flip of a Hadamard cube shows.  No report depends on B.

Once B fixes H, two more relabellings are compared on indices [0, 2) of
one axis alone, by the same argument, as each normalizes B: a permutation
of the coordinates, such as the rotation, commutes with B, which
relabels every coordinate alike (_fixes); and the mirror
rho: H(x_1, ..., x_n) = H(-x_n, ..., -x_1) (_mirror_fixes), which fixes
the prime Paley cubes and the products of their paley2, takes
x -> a*x + b to x -> a*x - b.  rho maps the layers of axis j onto those
of axis n - 1 - j, and the 2-D layers of a pair (j1, j2) onto those of
(n - 1 - j2, n - 1 - j1), relabelled and transposed, which is earlier in
scan order when j1 + j2 > n - 1.  So rho is compared at the first such
axis or pair, once every earlier one has passed, and if it fixes H the
rest are skipped.  Without B the rotation is compared whole, and rho not
at all.  Every compare's verdict is memoized on the cube, whose entries
never change, so each relabelling is decided once per cube, for the
verifiers and the symmetry module alike.

File format "HDM v1" (ASCII, LF line endings):
  line 1:   "HDM <n> <v>"  with ASCII decimal integers and single spaces;
  then exactly v**(n-1) lines of exactly v characters from {+, -}, the
  rows being the flat data in storage order; '+' is +1 and '-' is -1;
  no trailing whitespace, and the file ends with a final LF.
write and read stream it to and from a binary file one block of rows (at
most _BUDGET bytes, in the scratch) at a time, so a process holds the cube
and one block; the header line is read in bounded pieces too.
read is the one decoder: parse is read over an in-memory stream of a str
or of ASCII bytes, and serialize is write's output as str.  A file that
read cannot accept is read again in blocks and lines, after the cube is
dropped, for the ParseError of its first fault; parse's docstring lists
the order in which faults are reported.
"""

import functools
import io
import itertools
import math
import operator
import re
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmall,
    EmptyFix,
    FullFix,
    IndexOutOfRange,
    ParseError,
    ShapeMismatch,
    TooLarge,
)
from .gf import _factor

# Most axes a cube may have: numpy 1.x's limit on array dimensions.  Only
# order 1 comes near it: at order 2, 33 axes already make 2**33 entries.
MAX_AXES = 32


def _check_entries(n: int, v: int, data: np.ndarray) -> None:
    """Raise unless data can be the entries of an order-v, n-dimensional
    cube: n >= 1 and v >= 1, n <= MAX_AXES (TooLarge), v**n entries
    (ShapeMismatch), and integer entries that are all +1 or -1.  The
    entries are checked as given, before any int8 cast, so no value can
    wrap or truncate onto ±1.  C-contiguous int8 data, which every
    construction and read hands over, is read once, in slabs of _BUDGET
    bytes (at least 4 KiB) through the thread's _scratch: x is ±1 exactly when
    (x + 1) & ~2 is 0 as uint8, since x + 1 is then 0 or 2 mod 256.  Any
    other data is checked by reductions (min, max, count_nonzero).
    Neither way allocates anything the size of the cube."""
    if n < 1 or v < 1:
        raise ValueError(f"need n >= 1 and v >= 1, got n={n} v={v}")
    if n > MAX_AXES:
        raise TooLarge(f"dimension n={n} exceeds {MAX_AXES} axes")
    if data.size != v**n:
        raise ShapeMismatch(f"expected {v**n} entries, got {data.size}")
    if data.dtype == np.int8 and data.flags.c_contiguous:
        u, step = data.reshape(-1).view(np.uint8), max(_BUDGET, 4096)
        for start in range(0, u.size, step):
            slab = _scratch(min(step, u.size - start), np.uint8)
            np.add(u[start:start + len(slab)], 1, out=slab)
            if np.bitwise_and(slab, 0xFD, out=slab).max():  # max: faster than any
                raise ValueError("entries must be +1 or -1")
    elif not np.issubdtype(data.dtype, np.integer) or data.min() < -1 \
            or data.max() > 1 or np.count_nonzero(data) != data.size:
        raise ValueError("entries must be +1 or -1")


def _index(i, bound: int, what: str) -> int:
    """i as an index in [0, bound), else IndexOutOfRange: an integer by
    operator.index, and never a bool, which Python would read as 0 or 1
    and numpy as a mask; gf.Field._index takes element indices alike."""
    try:
        k = operator.index(i)
    except TypeError:
        k = None
    if k is None or isinstance(i, bool) or not 0 <= k < bound:
        raise IndexOutOfRange(f"{what} {i!r} is not an integer in [0, {bound})")
    return k


class SignCube:
    """Immutable n-dimensional order-v array with entries in {-1, +1}."""

    # _fixed memoizes _fixes verdicts
    __slots__ = ("n", "v", "data", "_fixed")

    def __init__(self, n: int, v: int, entries):
        entries = np.asarray(entries)
        _check_entries(n, v, entries)
        # one int8 C-order copy that only the cube holds: never the caller's
        # buffer, and no copy in the input's (possibly wider) dtype
        self._init(n, v, entries.astype(np.int8, order="C"))

    @classmethod
    def _adopt(cls, n: int, v: int, data: np.ndarray) -> "SignCube":
        """Wrap a freshly built C-order int8 array without copying it, after
        the same checks as the constructor; the caller hands it over and
        must not write to it afterwards, which the memo of _fixes relies on.
        The cube is verified as any other: whatever symmetry its builder
        knows it has, the verifiers test for themselves."""
        _check_entries(n, v, data)
        cube = cls.__new__(cls)
        cube._init(n, v, data)
        return cube

    def _init(self, n: int, v: int, data: np.ndarray) -> None:
        data = data.ravel()
        data.flags.writeable = False
        self.n = n
        self.v = v
        self.data = data
        self._fixed = {}

    def __repr__(self):
        return f"SignCube(n={self.n}, v={self.v})"

    def __eq__(self, other):
        if not isinstance(other, SignCube):
            return NotImplemented
        return self.n == other.n and self.v == other.v and bool(
            np.array_equal(self.data, other.data)
        )

    __hash__ = None

    @property
    def array(self) -> np.ndarray:
        """Read-only view shaped (v,) * n."""
        return self.data.reshape((self.v,) * self.n)

    def get(self, idx) -> int:
        """Entry at an n-tuple of 0-based indices."""
        idx = tuple(idx)
        if len(idx) != self.n:
            raise IndexOutOfRange(f"expected {self.n} indices, got {len(idx)}")
        return int(self.array[tuple(_index(i, self.v, "index") for i in idx)])


@dataclass
class VerifyReport:
    """Outcome of an orthogonality check.

    On failure, axis is the coordinate position whose two fixed values
    pair = (a, b) produced a nonzero inner product (the deviation); the
    first violation in lexicographic (axis, a, b) order wins.  All fields
    are 0-based.  checked_pairs is the failing pair's 1-based position in
    the check's scan order, or the total number of pairs on a pass; it is
    not a count of the work done.
    """

    passed: bool
    axis: int | None = None
    pair: tuple[int, int] | None = None
    deviation: int | None = None
    checked_pairs: int = 0


def layer(H: SignCube, fixed: dict) -> SignCube:
    """Restrict H by fixing coordinate positions to values; the remaining
    coordinates keep their relative order."""
    if not fixed:
        raise EmptyFix("at least one coordinate must be fixed")
    if len(fixed) >= H.n:
        raise FullFix("at least one coordinate must remain free")
    fixed = {_index(pos, H.n, "coordinate position"): _index(val, H.v, "fixed value")
             for pos, val in fixed.items()}
    slicer = tuple(fixed.get(ax, slice(None)) for ax in range(H.n))
    return SignCube(H.n - len(fixed), H.v, H.array[slicer])


# -- verifier ------------------------------------------------------------------

# Cap on the bytes of temporaries one step works on: the float buffer of the
# verifiers' producer _scan (a column block of one matrix or a row block of
# its transpose, or a chunk of whole 2-D layers beside their transposes), a
# block of rows in write and read, a piece of a header line or of a file
# searched for its first fault, and a slab of the cube in _relabels_to with
# its relabelled copy or mask.  The float buffer, the row blocks and the
# slabs are views of one scratch buffer per thread (_scratch), kept between
# calls, so they cost a thread at most this much in all; the verifiers also
# hold their Gram matrices, v*v floats each.
_BUDGET = 1 << 20

_held = threading.local()  # .buf: this thread's scratch, if it has made one


def _scratch(count: int, dtype) -> np.ndarray:
    """count items of dtype, uninitialised: the front of this thread's
    scratch buffer if they fit in _BUDGET bytes, else a fresh array.

    The buffer is grown to the largest request of at most _BUDGET bytes and
    kept, so a call reuses pages the last one faulted in; a larger request
    (one column or row longer than _BUDGET) is not kept.  A caller must be
    done with one request's view before it, or any function it calls,
    makes the next: every request starts at the buffer's front.
    """
    nbytes = count * np.dtype(dtype).itemsize
    if nbytes > _BUDGET:
        return np.empty(count, dtype)
    buf = getattr(_held, "buf", None)
    if buf is None or len(buf) < nbytes:
        buf = _held.buf = None  # the old buffer is freed before the new one is made
        buf = _held.buf = np.empty(nbytes, np.uint8)
    return buf[:nbytes].view(dtype)


def _gram_dtype(m: int) -> type:
    """Float type for Gram products of ±1 lines of length m.

    Every partial sum of such a product is an integer of magnitude at most
    m, and float32 (float64) represents every integer up to 2**24 (2**53)
    exactly, so the products are exact.  Lines longer than 2**53 cannot be
    held in memory.
    """
    return np.float32 if m <= 1 << 24 else np.float64


def _first_violation(blocks):
    """First nonzero entry above the diagonal of a stack of Gram matrices.

    blocks yields pairs (X, Xt): X is a float column block of the first r
    rows of a stack of ±1 matrices, its leading axes indexing the stack and
    its last two (r, c); Xt holds the same block of all v rows with its last
    two axes swapped, (c, v), in any layout.  The r x v Gram rows are the
    sum of X @ Xt over the blocks.  Entries are scanned by flat stack index,
    then row a, then column b > a.  Returns (index, a, b, value) with value
    an int, or None if every entry above the diagonal is 0.

    A Gram matrix is symmetric, so once its diagonal is zeroed its first
    nonzero entry in row-major order lies above the diagonal: an entry
    (a, b) with b < a < r would follow its mirror (b, a), which is among
    the first r rows too.  No mask is needed.
    """
    gram = None
    for x, xt in blocks:  # summed in place: a 2-D cube's Gram matrix is 4x its size
        gram = x @ xt if gram is None else np.add(gram, x @ xt, out=gram)
    r, v = gram.shape[-2:]
    gram.reshape(-1, r * v)[:, ::v + 1] = 0
    i = int((gram != 0).argmax())
    k, ab = divmod(i, r * v)
    return (k, *divmod(ab, v), int(gram.flat[i])) if gram.flat[i] else None


def _pair_index(v: int, a: int, b: int) -> int:
    """0-based position of (a, b), a < b, among the pairs of range(v) in
    lexicographic order."""
    return a * (v - 1) - a * (a - 1) // 2 + b - a - 1


def _scan(mats: np.ndarray, rows: int | None = None, pick=None, at=None):
    """_first_violation over a stack of ±1 matrices, in budgeted blocks.

    mats is a view of the cube shaped stack + (v, P, Q): matrix k, a flat
    C-order index into the stack, has v rows, row a being mats[k][a] read
    in C order.  Three arguments shrink the work, each to a sub-scan kept
    in the full scan's order:

      rows = r: only the first r rows of each Gram matrix are formed and
        scanned, a prefix of each matrix's scan: is_hadamard's probe
        [0, 2), and [0, 2 + nu) in is_proper's 3-D layers z = inf and
        z = 0, where B and its torus <sigma> put the lex-least pair of
        every orbit of row pairs; every column is still cast, as the
        rows' inner products with all v rows need them;
      pick, a sequence of (start, stop) spans of rows in index order: only
        those rows are cast, a gathered sub-stack whose Gram matrix alone
        is formed, each span one slice copy; its entries are those of the
        full Gram matrix at the picked rows, in the same order.  Of the k
        picked rows' Gram matrix only rows [0, k - 1) are formed (unless
        rows is given), which hold every entry above its diagonal, so that
        numpy hands the product to BLAS gemm: it sends X @ Xᵀ, both operands
        one buffer, to syrk, which for a few long rows is far slower (with
        numpy 2.4.6 and OpenBLAS on a 2-CPU x86_64, float32, 3 x 20736:
        129 us by syrk against 8.1 us by gemm; 4 x 16900: 49 against
        8.7 us).  A whole matrix keeps syrk, which is faster there
        (126 x 15876: 3.7 ms against 5.4 ms for rows [0, 125) by gemm);
      at, a sequence of (start, stop) spans of flat stack indices in index
        order: only those matrices are scanned, gathered chunk by chunk.

    The stack is taken in chunks that double in size, so an early violation
    costs at most about twice the work up to it.  The first chunk holds
    one matrix, or as many as make _BUDGET // 256 entries (4096 at the
    default budget) if the matrices are smaller: a stack of tiny layers
    then goes in one or two chunks rather than in one call per matrix.
    One float buffer of at most _BUDGET bytes (one column, if that is
    larger), the thread's _scratch, is reused for every block and kept
    between calls: a chunk of one matrix is cast a column block at a time
    and its Gram matrix summed as y @ yᵀ; a larger chunk holds whole
    matrices X beside a contiguous copy of Xᵀ, measured faster for stacks
    of small layers than X @ Xᵀ as a view or X and Xᵀ in one interleaved
    buffer.  A single matrix whose rows run along the cube's contiguous
    fibres (is_hadamard's last axis) is read the other way: as B = Mᵀ,
    C-contiguous, cast a block y of B's rows at a time and summed as
    yᵀ @ y, which costs about two thirds of casting a stride-v column
    block.  Returns (index, a, b, value) as _first_violation does, with
    index into the whole stack and a, b row indices of the matrix, or None.
    """
    *stack, v, p_total, q_total = mats.shape
    cols = p_total * q_total
    kept = np.concatenate([np.arange(lo, hi) for lo, hi in pick or ((0, v),)])
    k = len(kept)  # rows cast per matrix
    # a pick's Gram rows [0, k - 1) hold every entry above its diagonal, and
    # X[:k - 1] @ Xᵀ goes to BLAS gemm, where X @ Xᵀ on one buffer goes to syrk
    r = (k - 1 if pick else k) if rows is None else rows
    total = math.prod(stack)
    if at is not None:  # scan position i is flat index i + shift[its span]
        spans = np.array(at, dtype=np.intp).reshape(-1, 2)
        ends = np.cumsum(spans[:, 1] - spans[:, 0])
        total, shift = int(ends[-1]), spans[:, 1] - ends
    dtype = _gram_dtype(cols)
    # the one float buffer: _BUDGET bytes, or one column if that is more
    buf = _scratch(min(max(k, _BUDGET // dtype().itemsize), 2 * total * k * cols), dtype)
    cap = max(1, len(buf) // (2 * k * cols))  # matrices per chunk, beside Xᵀ
    p_step, q_step = max(1, len(buf) // (k * q_total)), min(q_total, len(buf) // k)
    start, size = 0, max(1, -(-(_BUDGET // 256) // (k * cols)))
    while start < total:
        stop = min(total, start + size, start + cap)
        flat = np.arange(start, stop)
        if at is not None:
            flat += shift[np.searchsorted(ends, flat, side="right")]
        if stop - start == 1:  # a view, no gather, and 2-D products
            m = mats[np.unravel_index(flat[0], stack)]
            if m.strides[0] == m.itemsize:  # rows along the cube's contiguous fibres
                b = m.reshape(v, cols).T  # C-contiguous: its rows are the columns of m
                step = len(buf) // k
                blocks = (_cast(buf, b[s:s + step], pick, axis=1) for s in range(0, cols, step))
                hit = _first_violation((y.T[:r], y) for y in blocks)
            else:
                blocks = (_cast(buf, m[:, p:p + p_step, q:q + q_step], pick).reshape(k, -1)
                          for p in range(0, p_total, p_step)
                          for q in range(0, q_total, q_step))
                hit = _first_violation((y[:r], y.T) for y in blocks)
        else:
            x = mats[np.unravel_index(flat, stack)]
            x = _cast(buf, x.reshape(-1, v, cols), pick, axis=1)
            hit = _first_violation([(x[:, :r], _cast(buf[x.size:], x.swapaxes(1, 2)))])
        if hit is not None:
            i, a, b, value = hit
            return int(flat[i]), int(kept[a]), int(kept[b]), value
        start, size = stop, size * 2


def _cast(buf: np.ndarray, src: np.ndarray, spans=None, axis: int = 0) -> np.ndarray:
    """src copied into the front of the float buffer buf, shaped as src;
    with spans, a sequence of (start, stop) in index order, only the
    indices of the given axis inside them, each span one slice copy."""
    if spans is None:  # one copy, as the spans' loop measured a few % slower
        out = buf[:src.size].reshape(src.shape)
        out[...] = src
        return out
    shape = list(src.shape)
    shape[axis] = sum(hi - lo for lo, hi in spans)
    out = buf[:math.prod(shape)].reshape(shape)
    to, src, i = out.swapaxes(0, axis), src.swapaxes(0, axis), 0
    for lo, hi in spans:
        to[i:i + hi - lo] = src[lo:hi]
        i += hi - lo
    return out


def _relabels_to(src: np.ndarray, dst: np.ndarray, perm=None, axes=None,
                 rows: int | None = None) -> bool:
    """Does dst equal src with its axes reordered by transpose(axes), then
    every index i on every axis replaced by perm[i]?  With rows = r, only
    indices [0, min(r, len)) of axis 0 are compared.  src holds 1-byte
    entries, as a cube does.  perm must be a permutation of range(len(src)),
    which every caller checks or builds: the gathers clip an index out of
    range instead of raising.

    Walks dst's axis 0 in slabs that double in size and stops at the first
    slab that differs, so a difference near the start costs a small slab.
    The first slab holds one index, or as many as make _BUDGET // 256
    entries if an index holds fewer, as _scan's first chunk does.
    A slab holds at most half of _BUDGET bytes (at least one index of axis
    0), and the thread's _scratch holds two slabs: the axis of src that
    dst's axis 0 reads is relabelled by a gather from src into one half,
    each other leading axis by a gather, which moves whole rows, into the
    other half, and the last axis by _relabel_last; the comparison's mask
    is then written over the half the slab is not in.

    Given both perm and axes, src is relabelled as it lies, a slab of its
    axis axes[0] at a time, and compared with dst's slab transposed back
    by the inverse axes: a relabelling of the points on every axis commutes
    with any reordering of the axes.  A gather from src.transpose(axes)
    would first copy that whole view into C order.
    """
    lead, back = 0, None  # the axis of src that dst's axis 0 reads; dst's axes in src's order
    if axes is not None and perm is not None:
        lead, back = axes[0], np.argsort(axes)
    elif axes is not None:
        src = src.transpose(axes)
    if (src if back is None else src.transpose(axes)).shape != dst.shape:
        return False
    index = None if perm is None else np.asarray(perm)
    if index is not None:
        # where the maximal runs of consecutive images, perm[i + 1] == perm[i] + 1, start
        starts = np.r_[0, np.flatnonzero(np.diff(index) != 1) + 1]
    cap, row = max(1, _BUDGET // (2 * dst[:1].size * src.itemsize)), dst[:1].size
    start, end = 0, len(dst) if rows is None else min(rows, len(dst))
    size = max(1, -(-(_BUDGET // 256) // max(row, 1)))
    while start < end:
        stop = min(end, start + size, start + cap)
        shape, count = list(src.shape), (stop - start) * row
        shape[lead] = stop - start
        buf = _scratch(2 * count, src.dtype)
        # each relabelling writes the slab into the spare half b of the
        # scratch, which the old slab then becomes; mode="clip" writes
        # straight into out, where the default mode would buffer it
        b = buf[count:].reshape(shape)
        if index is None:
            slab = src[start:stop]
        else:
            slab = src.take(index[start:stop], axis=lead, out=buf[:count].reshape(shape),
                            mode="clip")
            # one gather per axis: measured 2-3x faster than one fancy-index gather
            for axis in range(src.ndim - 1):
                if axis != lead:
                    slab, b = slab.take(index, axis=axis, out=b, mode="clip"), slab
            if lead != src.ndim - 1:  # else the last axis is relabelled already
                slab, b = _relabel_last(slab, index, starts, b), slab
        part = dst[start:stop] if back is None else dst[start:stop].transpose(back)
        if np.not_equal(slab, part, out=b.view(bool)).any():
            return False
        # no view of this slab's scratch may outlive it: a larger next
        # request frees the old buffer before it makes the new one
        del buf, slab, b
        start, size = stop, size * 2
    return True


def _relabel_last(slab: np.ndarray, index: np.ndarray, starts: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """slab with index i of its last axis replaced by index[i], written to
    out, of slab's shape and dtype and not overlapping it; starts is where
    index's maximal runs of consecutive images start.

    take gathers the last axis one entry at a time, at about 25x the cost
    of a copy; a run is one slice copy, which costs about 2 us per run and
    slab on top of the bytes it moves.  So runs are used when the slab
    holds at least 2048 entries per run and the runs average at least 8
    indices.  Measured on 3-D int8 cubes (2-CPU x86_64, numpy 2.4), whole
    compares: x -> x + 1 (3 runs) took 0.55-0.59 ms by runs against
    1.27-1.39 ms by take at v = 108, and 5.8-7.1 against 17.7-18.3 ms at
    v = 252; 32 runs at v = 252 came out even (20.8 against 21.1 ms);
    PSL(2, q)'s inversion and scaling, about v runs each, took 54 against
    20 ms by runs at v = 252, and 2.3-2.8 against 0.6-1.1 ms at v = 82.
    Per slab, at v = 32, 4 indices (4096 entries, 3 runs) took 7.6 us by
    runs against 5.5 us by take, and 32 indices 18 against 41 us.
    """
    if 8 * len(starts) > len(index) or slab.size < 2048 * len(starts):
        return slab.take(index, axis=-1, out=out, mode="clip")
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(index)]):
        out[..., lo:hi] = slab[..., index[lo]:index[lo] + hi - lo]
    return out


def _fixes(H: SignCube, perm=None, axes=None, rows: int | None = None) -> bool:
    """_relabels_to(H.array, H.array, perm, axes), decided once per cube:
    a SignCube's entries never change, so the verdict is kept in H._fixed,
    a bool under the axes and the perm's bytes.

    A pure coordinate permutation (perm None) is compared on indices
    [0, 2) of axis 0 only if B fixes H (_affine_fixes, asked first).  B
    relabels every coordinate alike, so it commutes with the transpose:
    H.transpose(axes) is fixed by B, as H is.  Two B-fixed cubes are equal
    if they agree on a set of n-tuples that meets every orbit of B, and
    the tuples whose first coordinate is below 2 do: a translation takes
    any tuple's first coordinate to infinity or 0.  A caller that has
    shown as much for its perm passes rows = 2 itself (_affine_fixes for
    the scaling, _mirror_fixes for the mirror).  In every other case the
    whole cube is compared.
    """
    key = _memo_key(perm, axes)
    if key not in H._fixed:
        if perm is None and axes is not None and _affine_fixes(H):
            rows = 2
        H._fixed[key] = _relabels_to(H.array, H.array, perm, axes, rows=rows)
    return H._fixed[key]


def _memo_key(perm=None, axes=None) -> tuple:
    """The key of H._fixed under which _fixes keeps a verdict."""
    return axes, None if perm is None else np.asarray(perm, dtype=np.intp).tobytes()


def _rotation_fixes(H: SignCube) -> bool:
    """Is H(x_1, ..., x_n) = H(x_2, ..., x_n, x_1) everywhere?"""
    return _fixes(H, axes=(*range(1, H.n), 0))


@functools.lru_cache(maxsize=64)
def _scaling(v: int) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(s, sigma, nu) when p = v - 1 is an odd prime, else None.

    s and sigma are x -> x + 1 and x -> g²x on PG(1, p) as point indices,
    infinity first and element a at 1 + a, read-only, for g the least
    primitive root mod p: s = [0, 2, 3, ..., v-1, 1], and sigma has the
    bytes of psl_generators(Field(p))[2].perm(), since Field(p)'s first
    primitive element in enumeration order is that g.  nu is the least
    non-square mod p, by Euler's criterion.
    """
    p = v - 1
    if p < 3 or _factor(p) != {p: 1}:
        return None
    g = _primitive_root(p)
    nu = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    s, sigma = np.r_[0, 2:v, 1], np.r_[0, 1 + g * g % p * np.arange(p) % p]
    s.flags.writeable = sigma.flags.writeable = False
    return s, sigma, nu


@functools.lru_cache(maxsize=64)
def _negation(v: int) -> np.ndarray:
    """x -> -x on PG(1, v - 1) as point indices, infinity first and element
    a at 1 + a, read-only: [0, 1, v - 1, v - 2, ..., 2]."""
    neg = np.r_[0, 1, v - 1:1:-1]
    neg.flags.writeable = False
    return neg


def _mirror_fixes(H: SignCube) -> bool:
    """Is H(x_1, ..., x_n) = H(-x_n, ..., -x_1) everywhere?  Asked only
    once H._fixed holds that B fixes H; False otherwise, with no compare.

    The mirror rho is x -> -x on every coordinate (_negation) with the
    coordinates reversed.  It normalizes B: -(ax + b) = a(-x) - b, and the
    reversal commutes with B, which relabels every coordinate alike.  So
    H relabelled by rho is fixed by B as H is, and rho is compared on
    indices [0, 2) of one axis alone, as the coordinate permutations are
    (_fixes); the verdict is kept in H._fixed.
    """
    return _affine_fixes(H, assume=False) and _fixes(
        H, _negation(H.v), axes=tuple(range(H.n - 1, -1, -1)), rows=2)


def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p: the least g whose
    power (p - 1) / f is not 1 for any prime f dividing p - 1."""
    orders = [(p - 1) // f for f in _factor(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, e, p) != 1 for e in orders))


def _affine_fixes(H: SignCube, assume: bool | None = None) -> bool:
    """Is H fixed by B = <s, sigma>, the affine maps x -> a*x + b with a a
    non-zero square (_scaling)?  False with no compare unless p = v - 1 is
    an odd prime.

    s is compared whole.  sigma is compared only once s has passed, and
    then on indices [0, 2) of axis 0 alone: sigma normalizes A = <s>,
    since sigma(x + 1) = sigma(x) + g², so H relabelled by sigma is fixed
    by A as H is, and two A-fixed cubes that agree on the n-tuples whose
    first coordinate is below 2, which meet every orbit of A, are equal.
    Both verdicts are kept in H._fixed by _fixes.  A verdict not kept yet
    is compared if assume is None, and taken to be assume otherwise, with
    no compare: assume=True asks whether B may still be shown to fix H,
    assume=False whether it is shown already.
    """
    gens = _scaling(H.v)
    if gens is None:
        return False
    for perm, rows in ((gens[0], None), (gens[1], 2)):
        verdict = H._fixed.get(_memo_key(perm), assume)
        if not (_fixes(H, perm, rows=rows) if verdict is None else verdict):
            return False
    return True


def _heads(v: int) -> tuple:
    """Spans of the layers {0, 1, 2}, and 1 + nu when p = v - 1 = 1
    (mod 4), for p an odd prime: the rows of the Gram entries that head
    B's orbits of pairs of points.  B fixes infinity and is transitive on
    GF(p), so (0, 1) heads the pairs {infinity, x}; it maps {x, y} to
    {0, y - x} and scales by squares, so the finite pairs fall by whether
    y - x is a square: one orbit, headed by (1, 2), when -1 is a
    non-square (p = 3 mod 4), else two, headed by (1, 2) and (1, 1 + nu)."""
    nu = _scaling(v)[2]
    return ((0, 3),) if v % 4 == 0 else ((0, 3), (1 + nu, 2 + nu))


@functools.lru_cache(maxsize=64)
def _representatives(v: int, m: int) -> tuple:
    """(start, stop) spans, in index order, of the flat indices of the
    m-tuples of points in canonical form under B, for p = v - 1 an odd
    prime: every coordinate before the first finite one is infinity, the
    first finite one is 0, the first later one that is neither infinity
    nor 0 is 1 or nu (_scaling), and the coordinates after it are free.

    B fixes infinity; a unique translation takes the first finite
    coordinate to 0, and then a unique square scaling takes the next
    non-zero one to 1 if it is a square and to nu if not.  So each orbit
    of B holds exactly one canonical tuple, and it is the orbit's
    lex-least: no tuple of the orbit has an index below 1 (the element 0)
    at the first finite place, nor below 2 or 1 + nu at the next non-zero
    one.  The spans come from slicing whole blocks of free trailing
    coordinates, with no table of all v**m tuples.
    """
    nu = _scaling(v)[2]

    def walk(base: int, i: int, finite: bool):
        if i == m:
            yield base, base + 1
            return
        yield from walk(base * v, i + 1, finite)  # infinity
        yield from walk(base * v + 1, i + 1, True)  # the element 0
        if finite:  # 1 or nu, and every tuple of the later coordinates
            size = v ** (m - 1 - i)
            for c in (2, 1 + nu):
                yield (base * v + c) * size, (base * v + c + 1) * size

    return tuple(walk(0, 0, False))


def is_hadamard(H: SignCube) -> VerifyReport:
    """Are all parallel (n-1)-dimensional layers mutually orthogonal?

    The a == b inner product equals v**(n-1) identically for ±1 entries
    and is not checked.  A 2-D cube is checked on axis 0 only: a square ±1
    matrix H with H @ Hᵀ = vI has Hᵀ @ H = vI, so axis 1 cannot fail once
    axis 0 passes.  Nor can any other axis once axis 0 passes if H is fixed
    by the rotation of its coordinates, which maps the layers of each axis
    onto those of the axis before it; that is tested only then.

    A relabelling g of the points that fixes H gives Gram[g(a), g(b)] =
    Gram[a, b] on every axis, so a violation's whole orbit under a group
    fixing H violates alike, and the full scan's first violation is the
    lex-least pair of its orbit.  When p = v - 1 is an odd prime and no
    kept verdict rules B out (_affine_fixes), axis 0 is scanned first on
    the gathered sub-stack of the layers that hold every B-orbit's head
    pair (_heads: {0, 1, 2}, and 1 + nu when p = 1 mod 4), before any
    compare: a violation at (0, 1) or (0, 2) is the full scan's first
    whatever the group, and is reported at once.  Otherwise B is compared,
    and if it fixes H that sub-stack decides each axis: its first
    violation, the head of its orbit, is the full scan's.  Its Gram rows
    [0, k - 1) of k picked layers are formed, by gemm (_scan).

    The mirror rho: H(x_1, ..., x_n) = H(-x_n, ..., -x_1) maps the layers
    of axis j at a and b onto those of axis n - 1 - j at -a and -b.  So
    once axes 0 to (n - 1) // 2 have passed, every later axis mirrors one
    of them, and rho is compared then (_mirror_fixes), only once B is
    shown to fix H.  If it fixes H the scan stops.

    Any other cube has every axis scanned whole, after one probe: Gram
    rows [0, 2) of axis 0 (v > 2).  They come first in scan order and cost
    2/v of the axis's product, and a violation that involves layer 0 or 1,
    as every one made by flipping one entry of a Hadamard cube does, shows
    there, while a miss costs one more cast of the axis.
    """
    if H.n < 2:
        raise DimensionTooSmall("need n >= 2")
    n, v = H.n, H.v
    heads = _heads(v) if _affine_fixes(H, assume=True) else None
    for axis in range(n):
        # a stack of one matrix, whose row a is the layer with coordinate
        # axis = a: [0, a] of this view, read in C order
        mats = H.data.reshape(1, v**axis, v, -1).transpose(0, 2, 1, 3)
        if heads:
            hit = _scan(mats, pick=heads)
            if not (hit and hit[1] == 0 and hit[2] <= 2) and not _affine_fixes(H):
                heads = None  # B does not fix H: scanned whole, as below
        if not heads:
            hit = _scan(mats, rows=2) if axis == 0 and v > 2 else None  # the probe
            if hit is None:
                hit = _scan(mats)
        if hit is not None:
            _, a, b, dev = hit
            return VerifyReport(False, axis=axis, pair=(a, b), deviation=dev,
                                checked_pairs=axis * v * (v - 1) // 2
                                + _pair_index(v, a, b) + 1)
        if axis == 0 and (n == 2 or _rotation_fixes(H)):
            break
        if axis == (n - 1) // 2 and _mirror_fixes(H):
            break  # every later axis mirrors one that has passed
    return VerifyReport(passed=True, checked_pairs=n * v * (v - 1) // 2)


def is_hadamard_naive(H: SignCube) -> VerifyReport:
    """Same contract as is_hadamard, by direct summation; kept as an
    independent oracle for the Gram kernel."""
    if H.n < 2:
        raise DimensionTooSmall("need n >= 2")
    n, v = H.n, H.v
    data = H.data.tolist()
    strides = [v ** (n - 1 - j) for j in range(n)]
    checked = 0
    for axis in range(n):
        s = strides[axis]
        rest_strides = strides[:axis] + strides[axis + 1:]
        rest = [
            sum(i * st for i, st in zip(combo, rest_strides))
            for combo in itertools.product(range(v), repeat=n - 1)
        ]
        for a in range(v):
            base_a = a * s
            for b in range(a + 1, v):
                base_b = b * s
                checked += 1
                total = sum(data[base_a + o] * data[base_b + o] for o in rest)
                if total:
                    return VerifyReport(False, axis=axis, pair=(a, b),
                                        deviation=total, checked_pairs=checked)
    return VerifyReport(passed=True, checked_pairs=checked)


def is_proper(H: SignCube) -> VerifyReport:
    """Is every 2-dimensional layer a Hadamard matrix?

    Layers are scanned by free-axis pair (j1 < j2), then by the fixed
    values of the remaining coordinates, then rows before columns within
    the layer.  On failure, axis names the free coordinate whose two
    values pair = (a, b) index the non-orthogonal lines.  For n = 2 this
    coincides with is_hadamard.

    Only rows are computed: a square ±1 matrix M with orthogonal rows has
    M @ Mᵀ = vI, hence Mᵀ @ M = vI, so a layer's columns never hold the
    first violation and the row Gram matrices decide the whole scan.

    If H (n >= 3) is fixed by the rotation of its coordinates, the layers
    of a pair (j1, j2) are those of (j1 - 1, j2 - 1), transposed when the
    pair wraps past axis 0, so the pairs (0, d), d <= n // 2, which come
    first, meet every rotation orbit and decide the rest.  The rotation is
    tested only once they have passed.

    A relabelling g that fixes H maps the layer at fixed values c onto the
    one at g(c), with its rows and columns relabelled alike, so one is
    Hadamard exactly when the other is, and the full scan's first failing
    layer is the lex-least of its orbit under a group fixing H.  When
    p = v - 1 is an odd prime and no kept verdict rules B out
    (_affine_fixes), a cube (n >= 3) is scanned first on the layers of
    each pair whose first fixed coordinate is below 2, a prefix of the
    pair's scan that meets every orbit of the translations alone.  Once
    that prefix passes, B is compared: if it fixes H the rest of the pair
    is skipped, and if not, this pair and every later one are scanned
    whole, so a report never depends on B.  Once B is shown to fix H (by
    is_hadamard, say), each pair is scanned only on the layers whose fixed
    coordinates are in canonical form (_representatives), the lex-least
    element of each B-orbit, gathered in index order: every failing
    orbit's first layer is among them, so the first violation and every
    report field are the full scan's.  For n = 3 they are the two-layer
    prefix itself, and of those two layers, z = inf and z = 0, only Gram
    rows [0, 2 + nu) are formed: the layer z = 0 is fixed by the torus
    T = <sigma>, whose orbits are {inf}, {0}, the squares and the
    non-squares, so the lex-least row pair of each T-orbit starts at row
    0, 1, 2 (the element 1) or 1 + nu, and z = inf is fixed by all of B.
    Any other cube, and one that H._fixed already holds B does not fix
    (kept by is_hadamard, say), is scanned on every pair whole from the
    start, with no compare.

    The mirror rho: H(x_1, ..., x_n) = H(-x_n, ..., -x_1) maps the 2-D
    layers of a pair (j1, j2) onto those of (n - 1 - j2, n - 1 - j1), with
    rows and columns relabelled by x -> -x and swapped; a transposed
    Hadamard matrix is Hadamard.  When j1 + j2 > n - 1 that image comes
    first in scan order, so at the first such pair, every earlier pair
    having passed, rho is compared (_mirror_fixes, once B is shown), and
    if it fixes H every such pair is skipped: for n <= 5 they are the last
    pairs of the scan.
    """
    if H.n < 2:
        raise DimensionTooSmall("need n >= 2")
    n, v = H.n, H.v
    layers, per_layer = v ** (n - 2), v * (v - 1)
    # layers whose first fixed coordinate is below r first; None: the whole
    # pair, as for a 2-D cube, whose one layer fixes no coordinate, or once
    # B cannot fix H, which is read with no compare
    r = 2 if n > 2 and _affine_fixes(H, assume=True) else None
    reps = None  # spans of the canonical layers, once B is shown to fix H
    for i, (j1, j2) in enumerate(itertools.combinations(range(n), 2)):
        if j1 + j2 > n - 1 and _mirror_fixes(H):
            continue  # the mirror of the pair (n - 1 - j2, n - 1 - j1), passed
        # lay[c] is the layer with rows along j1 and columns along j2 at the
        # other coordinates c, in scan order
        others = [j for j in range(n) if j not in (j1, j2)]
        lay = H.array.transpose(*others, j1, j2)[..., None, :]
        if r and reps is None and _affine_fixes(H, assume=False):
            reps = _representatives(v, n - 2)
        # n = 3: the layers z = inf and z = 0, on Gram rows [0, 2 + nu)
        rows = 2 + _scaling(v)[2] if reps and n == 3 else None
        hit = _scan(lay[:r], rows=rows, at=reps)
        if hit is None and r and reps is None and not _affine_fixes(H):
            r, hit = None, _scan(lay)
        if hit is not None:
            k, a, b, dev = hit
            return VerifyReport(False, axis=j1, pair=(a, b), deviation=dev,
                                checked_pairs=(i * layers + k) * per_layer
                                + _pair_index(v, a, b) + 1)
        if i == n // 2 - 1 and n >= 3 and _rotation_fixes(H):
            break
    return VerifyReport(passed=True, checked_pairs=math.comb(n, 2) * layers * per_layer)


# -- HDM v1 text format ----------------------------------------------------------

def _block_rows(v: int) -> int:
    """Rows of v characters and an LF per I/O block: as many as fit in
    _BUDGET bytes, and at least one."""
    return max(1, _BUDGET // (v + 1))


def write(H: SignCube, out) -> None:
    """Write H in HDM v1 to the binary stream out.

    The rows are converted one block at a time into one reused uint8
    buffer of at most _BUDGET bytes (one row if a row is longer), the
    thread's _scratch, whose last column is set to LF on every call, so
    writing holds nothing the size of the cube.
    """
    rows, v = H.v ** (H.n - 1), H.v
    grid = H.data.view(np.uint8).reshape(rows, v)
    block_rows = min(rows, _block_rows(v))
    buf = _scratch(block_rows * (v + 1), np.uint8).reshape(block_rows, v + 1)
    buf[:, v] = ord("\n")
    out.write(f"HDM {H.n} {H.v}\n".encode("ascii"))
    for start in range(0, rows, len(buf)):
        block = buf[:min(len(buf), rows - start)]
        # read's map inverted: 44 - 1 = '+', and 44 - 255 = '-' mod 256
        np.subtract(np.uint8(44), grid[start:start + len(block)], out=block[:, :v])
        out.write(block)


def serialize(H: SignCube) -> str:
    """H as HDM v1 text: write's output, decoded once."""
    out = io.BytesIO()
    write(H, out)
    return out.getvalue().decode("ascii")


def read(f) -> SignCube:
    """Read an HDM v1 file from the seekable binary stream f.

    The header line is read and checked, and the stream's size against
    it, before the cube is allocated; the rows are then read one block of
    at most _BUDGET bytes at a time into the thread's _scratch and converted
    into the cube, so a valid file costs the cube and one block.  Any
    other file raises the ParseError of its first fault, in the order
    listed under parse, which _first_fault finds after the cube is
    dropped, reading blocks of at most _BUDGET bytes and then one row at a
    time: a malformed file costs no more than a valid one.
    """
    size = f.seek(0, io.SEEK_END)
    try:
        n, v, start = _read_header(f)
        if n <= MAX_AXES and size == start + v ** (n - 1) * (v + 1):
            return _read_rows(f, n, v)
    except ValueError:  # a ParseError, or a bad body: reported in fault order
        pass
    raise _first_fault(f, size)


def _read_header(f) -> tuple[int, int, int]:
    """n, v and the length of the header line at the start of f, which is
    left just past that line, else the ParseError of faults 4 to 6 in
    parse's list.

    The line is read in pieces of bounded size.  No valid header is longer
    than "HDM", two numbers of int()'s digit limit, two spaces and the LF,
    so only that much of the line is kept; the rest of a longer line is
    read one piece of at most _BUDGET bytes at a time, only to check the
    header's grammar: a line that has it holds a number too long (5), any
    other is fault 4.  With int()'s limit switched off the line is read
    whole.
    """
    f.seek(0)
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    line = piece = f.readline(2 * digits + 6 if digits else -1)
    # the grammar is checked on a sketch of the line, each run of digits cut
    # to one 0; a sketch longer than "HDM 0 0\n" never shrinks back to it
    sketch = re.sub(rb"[0-9]+", b"0", line)
    while piece and not piece.endswith(b"\n") and len(sketch) <= 8:
        piece = f.readline(_BUDGET)
        sketch = re.sub(rb"[0-9]+", b"0", sketch + piece)
    if sketch.rstrip(b"\n") != b"HDM 0 0":
        raise ParseError("header must be 'HDM <n> <v>'", line=1)
    try:  # a line cut off at the bound holds a number beyond the limit
        n, v = map(int, line.split()[1:])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError("header number too long", line=1) from None
    if n < 1 or v < 1:
        raise ParseError(f"invalid dimensions n={n} v={v}", line=1)
    return n, v, len(line)


def _read_rows(f, n: int, v: int) -> SignCube:
    """The cube whose v**(n-1) rows follow in f, which stands just past the
    header line; ValueError if a block is short, a row does not end in LF,
    or an entry is not '+' or '-'."""
    rows = v ** (n - 1)
    cube = np.empty((rows, v), dtype=np.uint8)
    block_rows = min(rows, _block_rows(v))
    buf = _scratch(block_rows * (v + 1), np.uint8).reshape(block_rows, v + 1)
    for start in range(0, rows, len(buf)):
        block = buf[:min(len(buf), rows - start)]
        if f.readinto(block) != block.nbytes or not (block[:, v] == ord("\n")).all():
            raise ValueError("short block or misplaced LF")
        # 44 - '+' = 1 and 44 - '-' = -1 (255 as uint8); every other ASCII
        # byte lands outside {1, -1}, which SignCube's ±1 check refuses
        np.subtract(np.uint8(44), block[:, :v], out=cube[start:start + len(block)])
    return SignCube._adopt(n, v, cube.view(np.int8))


def _first_fault(f, size: int) -> ParseError:
    """The first fault, in the order listed under parse, of the file f of
    size bytes that read could not accept.  One pass over blocks of
    _BUDGET bytes finds faults 1 to 3, the header line gives 4 to 8, and
    the data lines are then read one at a time for 9: a line longer than
    v is counted in pieces of _BUDGET bytes, never held whole."""
    f.seek(0)
    lfs, last = 0, -1  # LFs before the block, and the offset of the last one
    for pos in range(0, size, _BUDGET):
        block = f.read(_BUDGET)
        if not block.isascii():
            bad = int(np.argmax(np.frombuffer(block, dtype=np.uint8) >= 0x80))
            lf = block.rfind(b"\n", 0, bad)
            return ParseError(f"non-ASCII byte 0x{block[bad]:02x}",
                              line=lfs + block.count(b"\n", 0, bad) + 1,
                              column=bad - lf if lf >= 0 else pos + bad - last)
        lf = block.rfind(b"\n")
        lfs, last = lfs + block.count(b"\n"), pos + lf if lf >= 0 else last
    if not size:
        return ParseError("empty input", line=1)
    if last != size - 1:
        return ParseError("missing final newline", line=lfs + 1)
    try:
        n, v, _ = _read_header(f)
    except ParseError as exc:
        return exc
    found = lfs - 1
    # v**(n-1) > found if v > found or 2**(n-1) > found; deciding that first
    # keeps a hostile header from costing a power with millions of digits
    short = n > 1 and v > 1 and (v > found or n - 1 >= found.bit_length())
    rows = 0 if short else v ** (n - 1)
    if short or rows > found:
        return ParseError(f"expected {_power_text(v, n - 1)} data lines, "
                          f"found {found}", line=found + 2)
    if rows < found:
        return ParseError("trailing content after data lines", line=rows + 2)
    if n > MAX_AXES:
        return ParseError(f"dimension n={n} exceeds {MAX_AXES} axes", line=1)
    for i in range(2, rows + 2):
        line = f.readline(min(v, size) + 1)  # no line is longer than the file
        length = len(line) - 1
        while line and not line.endswith(b"\n"):  # longer than v
            line = f.readline(_BUDGET)
            length += len(line)
        if length != v:
            return ParseError(f"expected {v} characters, found {length}", line=i)
        rest = line.lstrip(b"+-")
        if rest != b"\n":
            return ParseError(f"illegal character {chr(rest[0])!r}", line=i,
                              column=v + 2 - len(rest))


def parse(text: str | bytes) -> SignCube:
    """Read an HDM v1 file, given as str or as ASCII bytes: read over an
    in-memory stream.

    Malformed input raises ParseError with the 1-based line, and the
    column where there is one.  Of several faults, the first of these is
    reported:

      1. a non-ASCII byte (bytes input; the first such byte);
      2. a missing final LF;
      3. empty input;
      4. a header other than "HDM <n> <v>" with ASCII decimal numbers;
      5. a header number longer than int() converts;
      6. n < 1 or v < 1;
      7. fewer or more than v**(n-1) data lines;
      8. n > MAX_AXES (in practice only at order 1);
      9. the first data line that is not v characters long or holds a
         character other than '+' and '-'; on it the length comes first.

    A str is read by characters: a non-ASCII character in it is a bad
    header or an illegal character at its character column.
    """
    # a str becomes one byte per character, so byte offsets are character
    # offsets; a non-ASCII character becomes '?', which no check accepts
    data = text.encode("ascii", "replace") if isinstance(text, str) else text
    try:
        return read(io.BytesIO(data))
    except ParseError as exc:
        # the bytes of a str are ASCII: only an illegal character has a column
        if data is text or exc.column is None:
            raise
        # every data line before the bad one is v + 1 long, as the first is
        start = text.index("\n") + 1
        at = start + (exc.line - 2) * (text.index("\n", start) + 1 - start) + exc.column - 1
        raise ParseError(f"illegal character {text[at]!r}", exc.line, exc.column) from None


def _power_text(v: int, e: int) -> str:
    """v**e in decimal, or as "v**e" when the decimal has more digits than
    str() converts (sys.get_int_max_str_digits(), 4300 by default); the
    power is computed only when it has about that many digits or fewer."""
    if e * math.log10(v) <= 4301:
        try:
            return str(v**e)
        except ValueError:
            pass
    return f"{v}**{e}"
