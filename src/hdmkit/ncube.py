"""n-dimensional sign matrices, the orthogonality verifier, and the HDM format.

A SignCube stores an order-v, n-dimensional array over {-1, +1} flat in
C order: entry (i_1, ..., i_n) sits at offset sum(i_j * v**(n-j)), i.e. the
last index varies fastest.  All indices are 0-based.

The verifier checks that any two parallel (n-1)-dimensional layers that
differ in one fixed coordinate have inner product 0.  Its fast path packs
each layer into a Python integer, one bit per entry (+1 -> 0, -1 -> 1);
the inner product of two layers of size m is then m - 2*popcount(xor),
which makes verifying an order-v 3-cube O(v^4) bit operations.  A plain
summation implementation is kept alongside as an independent cross-check.

File format "HDM v1" (ASCII, LF line endings):
  line 1:   "HDM <n> <v>"  with ASCII decimal integers and single spaces;
  then exactly v**(n-1) lines of exactly v characters from {+, -}, the
  rows being the flat data in storage order; '+' is +1 and '-' is -1;
  no trailing whitespace, and the file ends with a final LF.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmall,
    EmptyFix,
    FullFix,
    IndexOutOfRange,
    ParseError,
    ShapeMismatch,
)


class SignCube:
    """Immutable n-dimensional order-v array with entries in {-1, +1}."""

    __slots__ = ("n", "v", "data")

    def __init__(self, n: int, v: int, entries):
        self._init(n, v, entries, copy=True)

    @classmethod
    def _adopt(cls, n: int, v: int, data: np.ndarray) -> "SignCube":
        """Wrap a freshly built int8 array without copying it; the caller
        hands it over and must not write to it afterwards."""
        cube = cls.__new__(cls)
        cube._init(n, v, data, copy=False)
        return cube

    def _init(self, n: int, v: int, entries, copy: bool) -> None:
        if n < 1 or v < 1:
            raise ValueError(f"need n >= 1 and v >= 1, got n={n} v={v}")
        data = np.asarray(entries, dtype=np.int8).ravel()
        if data.size != v**n:
            raise ShapeMismatch(f"expected {v**n} entries, got {data.size}")
        # reductions only, so validation allocates nothing the size of the cube
        if data.size and (data.min() < -1 or data.max() > 1
                          or np.count_nonzero(data) != data.size):
            raise ValueError("entries must be +1 or -1")
        if copy:
            data = data.copy()
        data.flags.writeable = False
        self.n = n
        self.v = v
        self.data = data

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
        off = 0
        for i in idx:
            if not 0 <= i < self.v:
                raise IndexOutOfRange(f"index {i} outside [0, {self.v})")
            off = off * self.v + i
        return int(self.data[off])


@dataclass
class VerifyReport:
    """Outcome of an orthogonality check.

    On failure, axis is the coordinate position whose two fixed values
    pair = (a, b) produced a nonzero inner product (the deviation); the
    first violation in lexicographic (axis, a, b) order wins.  All fields
    are 0-based.  checked_pairs counts evaluated pairs, including the
    failing one.
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
    for pos, val in fixed.items():
        if not 0 <= pos < H.n:
            raise IndexOutOfRange(f"coordinate position {pos} outside [0, {H.n})")
        if not 0 <= val < H.v:
            raise IndexOutOfRange(f"fixed value {val} outside [0, {H.v})")
    slicer = tuple(fixed.get(ax, slice(None)) for ax in range(H.n))
    return SignCube(H.n - len(fixed), H.v, H.array[slicer].ravel())


# -- verifier ------------------------------------------------------------------

def _pack_rows(mat: np.ndarray) -> list[int]:
    """One integer per row of a ±1 matrix, one bit per entry (-1 -> 1).

    Rows are padded to a byte boundary with 0 bits; the padding is equal
    on both operands of any xor, so it never contributes to a popcount.
    """
    packed = np.packbits(mat == -1, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def _scan_packed(arr: np.ndarray, checked_start: int = 0):
    """First violation over all (axis, a, b) in lexicographic order, or None.

    Only a < b is scanned: the layer inner product is symmetric in (a, b),
    so the lexicographically first violating ordered pair always has a < b.
    """
    n, v = arr.ndim, arr.shape[0]
    checked = checked_start
    for axis in range(n):
        flat = np.moveaxis(arr, axis, 0).reshape(v, -1)
        m = flat.shape[1]
        rows = _pack_rows(flat)
        for a in range(v):
            ra = rows[a]
            for b in range(a + 1, v):
                checked += 1
                dev = m - 2 * (ra ^ rows[b]).bit_count()
                if dev:
                    return (axis, a, b, dev, checked)
    return (None, None, None, None, checked)


def is_hadamard(H: SignCube) -> VerifyReport:
    """Are all parallel (n-1)-dimensional layers mutually orthogonal?

    The a == b inner product equals v**(n-1) identically for ±1 entries
    and is not checked.
    """
    if H.n < 2:
        raise DimensionTooSmall("need n >= 2")
    axis, a, b, dev, checked = _scan_packed(H.array)
    if axis is None:
        return VerifyReport(passed=True, checked_pairs=checked)
    return VerifyReport(False, axis=axis, pair=(a, b), deviation=dev,
                        checked_pairs=checked)


def is_hadamard_naive(H: SignCube) -> VerifyReport:
    """Same contract as is_hadamard, by direct summation; kept as an
    independent oracle for the bit-packed path."""
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
    """
    if H.n < 2:
        raise DimensionTooSmall("need n >= 2")
    n, v = H.n, H.v
    arr = H.array
    checked = 0
    for j1, j2 in itertools.combinations(range(n), 2):
        others = [ax for ax in range(n) if ax not in (j1, j2)]
        for vals in itertools.product(range(v), repeat=len(others)):
            slicer = [slice(None)] * n
            for ax, val in zip(others, vals):
                slicer[ax] = val
            mat = arr[tuple(slicer)]
            axis, a, b, dev, checked = _scan_packed(mat, checked)
            if axis is not None:
                return VerifyReport(False, axis=(j1 if axis == 0 else j2),
                                    pair=(a, b), deviation=dev,
                                    checked_pairs=checked)
    return VerifyReport(passed=True, checked_pairs=checked)


# -- HDM v1 text format ----------------------------------------------------------

def serialize(H: SignCube) -> str:
    rows = H.v ** (H.n - 1)
    chars = np.where(H.data == 1, ord("+"), ord("-")).astype(np.uint8)
    body = np.empty((rows, H.v + 1), dtype=np.uint8)
    body[:, :-1] = chars.reshape(rows, H.v)
    body[:, -1] = ord("\n")
    return f"HDM {H.n} {H.v}\n" + body.tobytes().decode("ascii")


def parse(text: str) -> SignCube:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ParseError("missing final newline", line=len(lines))
    lines.pop()
    if not lines:
        raise ParseError("empty input", line=1)
    fields = lines[0].split(" ")
    if len(fields) != 3 or fields[0] != "HDM" \
            or not all(f.isascii() and f.isdigit() for f in fields[1:]):
        raise ParseError("header must be 'HDM <n> <v>'", line=1)
    n, v = int(fields[1]), int(fields[2])
    if n < 1 or v < 1:
        raise ParseError(f"invalid dimensions n={n} v={v}", line=1)
    rows = v ** (n - 1)
    if len(lines) - 1 < rows:
        raise ParseError(f"expected {rows} data lines, found {len(lines) - 1}",
                         line=len(lines) + 1)
    if len(lines) - 1 > rows:
        raise ParseError("trailing content after data lines", line=rows + 2)
    for i, row in enumerate(lines[1:], start=2):
        if len(row) != v:
            raise ParseError(f"expected {v} characters, found {len(row)}", line=i)
        for col, ch in enumerate(row, start=1):
            if ch not in "+-":
                raise ParseError(f"illegal character {ch!r}", line=i, column=col)
    raw = np.frombuffer("".join(lines[1:]).encode("ascii"), dtype=np.uint8)
    return SignCube(n, v, np.where(raw == ord("+"), 1, -1))
