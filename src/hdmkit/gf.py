"""Exact arithmetic in GF(q) for odd prime powers q, with the quadratic character.

Elements are encoded as integers 0..q-1: the element with coefficient vector
(a_0, ..., a_{k-1}) over F_p (constant term first) has index sum(a_j * p**j).
Index 0 is the zero element and index 1 is the multiplicative identity, so the
encoding doubles as the canonical enumeration used for file formats and for
indexing the projective line.

Everything a Field derives from q alone (the canonical irreducible, the
weights p**j, the primitive element, the exp/log tables and the chi table)
is built once per order and process by _field_tables, a bounded LRU cache,
and shared, immutable, by every Field of that order; the instances
themselves stay distinct.  Field is the one place that does digit
arithmetic on element indices: sums go digit by digit (Field._plus),
products through exp/log (Field._times), for one index or for arrays of
them.
"""

import functools
import operator
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CharacterOfZero,
    DivisionByZero,
    IndexOutOfRange,
    NotOddPrimePower,
    TooLarge,
)

# Largest order Field accepts.  It bounds the exp and log tables, arrays of
# q ints, and keeps paley2 of every admitted order, (q + 1)**2 <= 2**28
# entries, within constructions.MAX_ENTRIES.  Checked before q is factored,
# so a huge q costs no trial division either.
MAX_ORDER = 16383


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} for an integer n >= 1, by trial division."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1  # what is left has no divisor up to its square root
    return factors


def _integer(x) -> int | None:
    """x as a Python int by operator.index, numpy integers included, so
    that powers of it stay exact; None if x is not an integer, or is a
    bool, which Python would read as 0 or 1 and numpy as a mask.  Every
    integer argument of the package is read by this rule, and each caller
    raises its own error for None."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k and p prime, by trial division.

    Raises NotOddPrimePower when q is not an odd prime power >= 3.
    """
    n = _integer(q)
    factors = _factor(n) if n is not None and n >= 3 and n % 2 else {}
    if len(factors) != 1:
        raise NotOddPrimePower(f"q={q} is not an odd prime power")
    [(p, k)] = factors.items()
    return p, k


# -- polynomial helpers over F_p (coefficient lists, constant term first) ----

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return [c % p for c in a[:dm]]


def canonical_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p in index order.

    Polynomials are ranked by the integer sum(coeffs[j] * p**j) of their lower
    coefficients; irreducibility is decided by trial division against every
    monic polynomial of degree 1..k//2 (none for k = 1, so x itself wins).
    """
    divisors = [[code // p**j % p for j in range(d)] + [1]
                for d in range(1, k // 2 + 1) for code in range(p**d)]
    for code in range(p**k):
        cand = [code // p**j % p for j in range(k)] + [1]
        if all(any(_poly_rem(cand, div, p)) for div in divisors):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class _Tables(NamedTuple):
    """What a Field of order q = p**k derives from p and k alone, each fact
    held once and immutable: tuples for the polynomial and the weights,
    read-only int arrays indexed by element for the rest."""

    irr: tuple[int, ...]
    weights: tuple[int, ...]  # p**j for j < k
    prim: int  # the first primitive element
    exp: np.ndarray  # exp[i] = prim**i, i < q - 1
    log: np.ndarray  # log[exp[i]] = i; log[0] = 0, unused
    chi: np.ndarray  # chi by element index, int8, 0 at zero


def _poly_mulmod(a, b, irr, p) -> list[int]:
    """Coefficient vector of a * b reduced modulo irr, without tables."""
    prod = _poly_mul(a, b, p)
    return _poly_rem(prod, irr, p) if len(irr) > 2 else prod


def _read_only(values, dtype=None) -> np.ndarray:
    out = np.array(values, dtype)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def _field_tables(p: int, k: int) -> _Tables:
    """The tables of GF(p**k), built on the first Field of that order and
    then shared.  At most 32 orders are kept, least recently used first
    out.  The largest admitted order, q = 16381, takes 279 072 bytes
    (tracemalloc): its exp and log tables, int64, and its int8 chi table.
    So the cache never holds more than about 9 MB.

    The primitive element: multiplication by a fixed g is F_p-linear, so
    one (q x k)(k x k) product mod p gives g * a for every element a at
    once: digits holds the coefficient vectors of 0..q-1 as rows, for the
    build alone, and row j of the k x k factor those of g * p**j, g times
    the basis monomial x**j.  Each candidate g in enumeration order has
    its powers walked through its table back to 1, and the first walk of
    q - 1 steps is the primitive element's exp table.  A power of a walked
    candidate has an order dividing that candidate's, too small, so it is
    not walked.
    """
    q = p**k
    irr = canonical_irreducible(p, k)
    weights = tuple(p**j for j in range(k))
    digits = np.arange(q)[:, None] // np.array(weights) % p
    walked = set()
    for g in range(1, q):
        if g in walked:
            continue
        basis = np.array([_poly_mulmod(digits[g].tolist(), digits[w].tolist(), irr, p)
                          for w in weights])
        times_g = (digits @ basis % p @ np.array(weights)).tolist()
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = times_g[x]
        if len(exp) == q - 1:
            break
        walked.update(exp)
    log = np.zeros(q, np.int64)
    log[exp] = np.arange(q - 1)
    chi = np.r_[0, np.where(log[1:] & 1, -1, 1)]
    return _Tables(irr, weights, g, _read_only(exp, np.int64), _read_only(log),
                   _read_only(chi, np.int8))


class Field:
    """GF(p^k) for an odd prime power q = p^k, elements encoded as 0..q-1.

    Construction checks and factors q, then takes the order's tables from
    _field_tables: the canonical irreducible polynomial, the first
    primitive element g in enumeration order, and the discrete exp/log
    tables of size q that serve multiplication, inverses and the
    quadratic character.  Every Field of an order shares those tables,
    which refuse writes, but each is its own object: Moebius maps over two
    instances of one order do not compose.
    """

    def __init__(self, q: int):
        order = _integer(q)
        if order is not None and order > MAX_ORDER:
            raise TooLarge(f"q={order} exceeds the field order cap {MAX_ORDER}")
        self.p, self.k = factor_prime_power(q)
        self.q = order
        self._tables = t = _field_tables(self.p, self.k)
        self.irr, self._weights, self._exp, self._log = t.irr, t.weights, t.exp, t.log

    def __repr__(self):
        return f"GF({self.q})"

    @property
    def elems(self) -> range:
        """Canonical enumeration; elems[0] is zero, elems[1] is one."""
        return range(self.q)

    def _index(self, a) -> int:
        """a as an element index: an integer in 0..q-1 (_integer), else
        IndexOutOfRange.  The scalar operations call it on their arguments,
        so a negative index cannot wrap around the tables, and True cannot
        stand for the element 1."""
        i = _integer(a)
        if i is None:
            raise IndexOutOfRange(f"element {a!r} is not an integer")
        if not 0 <= i < self.q:
            raise IndexOutOfRange(f"element {i} outside [0, {self.q})")
        return i

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of element a, constant term first."""
        a = self._index(a)
        return tuple(a // w % self.p for w in self._weights)

    def element(self, coeffs) -> int:
        """Index of the element with the given coefficient vector, each
        coefficient an integer in [0, p) by _integer, never a bool."""
        coeffs = [_integer(c) for c in coeffs]
        if len(coeffs) != self.k or any(c is None or not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"need {self.k} coefficients in [0, {self.p})")
        return sum(c * w for c, w in zip(coeffs, self._weights))

    # -- additive structure (coefficientwise mod p) ---------------------------

    def _plus(self, y, b, sign: int = 1):
        """y + sign * b, sign +-1, digit by digit mod p, as the index
        encoding adds: for indices y and b that are ints, or int arrays of
        indices, elementwise.  The one place digits are added; no index is
        checked."""
        return sum((y // w + sign * (b // w)) % self.p * w for w in self._weights)

    def add(self, a: int, b: int) -> int:
        return self._plus(self._index(a), self._index(b))

    def sub(self, a: int, b: int) -> int:
        return self._plus(self._index(a), self._index(b), -1)

    def neg(self, a: int) -> int:
        return self._plus(0, self._index(a), -1)

    # -- multiplicative structure ---------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product reduced modulo irr, without tables: the
        tests' oracle."""
        rem = _poly_mulmod(self.coeffs(a), self.coeffs(b), self.irr, self.p)
        return sum(c * w for c, w in zip(rem, self._weights))

    def _times(self, c: int, y: np.ndarray) -> np.ndarray:
        """c * y for an index c and an int array y of indices, elementwise,
        through the exp/log tables; no index is checked."""
        if c == 0:
            return np.zeros_like(y)
        return np.where(y == 0, 0, self._exp[(self._log[c] + self._log[y]) % (self.q - 1)])

    def mul(self, a: int, b: int) -> int:
        a, b = self._index(a), self._index(b)
        if a == 0 or b == 0:
            return 0
        return self._exp.item((self._log[a] + self._log[b]) % (self.q - 1))

    def inv(self, a: int) -> int:
        a = self._index(a)
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp.item(-self._log[a] % (self.q - 1))

    def primitive_element(self) -> int:
        """First element in enumeration order with multiplicative order q-1."""
        return self._tables.prim

    def chi(self, a: int) -> int:
        """Quadratic character: +1 on non-zero squares, -1 on non-squares.

        The primitive element g is a non-square, so chi(g**k) = (-1)**k.
        """
        a = self._index(a)
        if a == 0:
            raise CharacterOfZero("chi is undefined at zero")
        return -1 if self._log[a] & 1 else 1

    # -- vectorized tables for cube construction ------------------------------

    @cached_property
    def chi_table(self) -> np.ndarray:
        """chi by element index, read-only and shared by every Field of the
        order.  Entry 0 is a 0 sentinel, since chi(0) is undefined:
        _chi_form reads a copy with the value its caller gives at zero
        there."""
        return self._tables.chi

    def _chi_form(self, signs, at_zero: int) -> np.ndarray:
        """chi(s_1 x_1 + ... + s_d x_d) for signs (s_1, ..., s_d), each +-1,
        with at_zero where the form is 0, as a read-only int8 view of shape
        (p,) * (d k): axis i k + t is base-p digit k - 1 - t of x_(i+1), the
        axes a (q,) * d array is split into by a C-order reshape.

        A coordinate of sign -1 is read reversed, each of its digits x as
        p - 1 - x.  Digit j of the form is then (u - m (p - 1)) mod p, where
        u is the sum of the d digits j so read and m the number of minus
        signs.  The table holds chi at every k-tuple of such sums u in
        0..d (p - 1), (d (p - 1) + 1)**k entries and never more than q**d.
        It is gathered from chi_table one digit axis at a time, a fresh
        C-contiguous array, and read with its strides repeated once per
        coordinate, so the view's entry at the digits of (x_1, ..., x_d) is
        the table's at their digit-wise sums: over a prime field, one
        Hankel window over d (p - 1) + 1 values.  An ndarray on the table
        costs less than sliding_window_view, which builds the same view
        through as_strided's __array_interface__ round trip, about 10 us a
        call, and with numpy 2.4 holds on to memory as the calls add up.
        """
        p, d = self.p, len(signs)
        low = -signs.count(-1) * (p - 1)
        digit = np.arange(low, low + d * (p - 1) + 1) % p
        table = self.chi_table.copy()
        table[0] = at_zero
        table = table.reshape((p,) * self.k)  # axis t holds digit k - 1 - t
        for t in range(self.k):
            table = table.take(digit, axis=t)
        view = np.ndarray((p,) * (self.k * d), np.int8, table, strides=table.strides * d)
        view.flags.writeable = False
        back = slice(None, None, -1)
        return view[tuple(back if s < 0 else slice(None)
                          for s in signs for _ in range(self.k))]
