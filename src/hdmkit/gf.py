"""Exact arithmetic in GF(q) for odd prime powers q, with the quadratic character.

Elements are encoded as integers 0..q-1: the element with coefficient vector
(a_0, ..., a_{k-1}) over F_p (constant term first) has index sum(a_j * p**j).
Index 0 is the zero element and index 1 is the multiplicative identity, so the
encoding doubles as the canonical enumeration used for file formats and for
indexing the projective line.
"""

import operator
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CharacterOfZero,
    DivisionByZero,
    IndexOutOfRange,
    NotOddPrimePower,
    TooLarge,
)

# Largest order Field accepts.  It bounds the exp and log tables, Python lists
# of q ints, and keeps paley2 of every admitted order, (q + 1)**2 <= 2**28
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


def _integer(q) -> int:
    """q as a Python int, numpy integers included, so that powers of it stay
    exact; NotOddPrimePower if q is not integral (operator.index)."""
    try:
        return operator.index(q)
    except TypeError:
        raise NotOddPrimePower(f"q={q} is not an odd prime power") from None


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k and p prime, by trial division.

    Raises NotOddPrimePower when q is not an odd prime power >= 3.
    """
    q = _integer(q)
    factors = _factor(q) if q >= 3 and q % 2 else {}
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


class Field:
    """GF(p^k) for an odd prime power q = p^k, elements encoded as 0..q-1.

    Construction factors q, picks the canonical irreducible polynomial, and
    finds the first primitive element g in enumeration order, walking each
    candidate's powers through a table of multiplication by it that one
    integer matrix product builds; multiplication, inverses and the quadratic
    character are then served from discrete exp/log tables of size q.
    """

    def __init__(self, q: int):
        q = _integer(q)
        if q > MAX_ORDER:
            raise TooLarge(f"q={q} exceeds the field order cap {MAX_ORDER}")
        self.p, self.k = factor_prime_power(q)
        self.q = q
        self.irr = canonical_irreducible(self.p, self.k)
        self._weights = [self.p**j for j in range(self.k)]
        digits = np.arange(q)[:, None] // np.array(self._weights) % self.p
        self._digits = list(map(tuple, digits.tolist()))
        self._build_exp_log(digits)

    def __repr__(self):
        return f"GF({self.q})"

    @property
    def elems(self) -> range:
        """Canonical enumeration; elems[0] is zero, elems[1] is one."""
        return range(self.q)

    def _index(self, a) -> int:
        """a as an element index: an integer (operator.index) in 0..q-1, but
        never a bool, else IndexOutOfRange.  The scalar operations call it
        on their arguments, so a negative index cannot wrap around the
        tables, and True cannot stand for the element 1."""
        try:
            i = operator.index(a)
        except TypeError:
            i = None
        if i is None or isinstance(a, bool):
            raise IndexOutOfRange(f"element {a!r} is not an integer")
        if not 0 <= i < self.q:
            raise IndexOutOfRange(f"element {i} outside [0, {self.q})")
        return i

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of element a, constant term first."""
        return self._digits[self._index(a)]

    def element(self, coeffs) -> int:
        """Index of the element with the given coefficient vector."""
        coeffs = list(coeffs)
        if len(coeffs) != self.k or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"need {self.k} coefficients in [0, {self.p})")
        return sum(c * w for c, w in zip(coeffs, self._weights))

    # -- additive structure (coefficientwise mod p) ---------------------------

    def add(self, a: int, b: int) -> int:
        da, db = self.coeffs(a), self.coeffs(b)
        return sum((x + y) % self.p * w for x, y, w in zip(da, db, self._weights))

    def sub(self, a: int, b: int) -> int:
        da, db = self.coeffs(a), self.coeffs(b)
        return sum((x - y) % self.p * w for x, y, w in zip(da, db, self._weights))

    def neg(self, a: int) -> int:
        return sum(-x % self.p * w for x, w in zip(self.coeffs(a), self._weights))

    # -- multiplicative structure ---------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product reduced modulo irr, without tables: the
        bootstrap's k products per candidate, and the tests' oracle."""
        prod = _poly_mul(self._digits[a], self._digits[b], self.p)
        rem = _poly_rem(prod, self.irr, self.p) if self.k > 1 else prod
        return sum(c * w for c, w in zip(rem, self._weights))

    def _build_exp_log(self, digits: np.ndarray):
        """Find the primitive element and fill the exp/log tables from it.

        Multiplication by a fixed g is F_p-linear, so one (q x k)(k x k)
        product mod p gives g * a for every element a at once: digits holds
        the coefficient vectors of 0..q-1 as rows, and row j of the k x k
        factor those of g * p**j, g times the basis monomial x**j.  Each
        candidate g in enumeration order has its powers walked through its
        table back to 1, and the first walk of q - 1 steps is the primitive
        element's exp table.  A power of a walked candidate has an order
        dividing that candidate's, too small, so it is not walked.
        """
        q, p = self.q, self.p
        weights = np.array(self._weights)
        walked = set()
        for g in range(1, q):
            if g in walked:
                continue
            basis = np.array([self._digits[self._mul_raw(g, w)] for w in self._weights])
            times_g = (digits @ basis % p @ weights).tolist()
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = times_g[x]
            if len(exp) == q - 1:
                break
            walked.update(exp)
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        self._prim = g
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        a, b = self._index(a), self._index(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        a = self._index(a)
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[-self._log[a] % (self.q - 1)]

    def primitive_element(self) -> int:
        """First element in enumeration order with multiplicative order q-1."""
        return self._prim

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
        """chi by element index.  Entry 0 is a 0 sentinel, since chi(0) is
        undefined: _chi_form reads a copy with the value its caller gives
        at zero there."""
        t = np.zeros(self.q, dtype=np.int8)
        t[1:] = np.where(np.array(self._log[1:]) & 1, -1, 1)
        t.flags.writeable = False
        return t

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
        It is gathered from chi_table one digit axis at a time, and windowed
        once per digit of each coordinate after the first: over a prime
        field, one Hankel window over d (p - 1) + 1 values.
        """
        p, d = self.p, len(signs)
        low = -signs.count(-1) * (p - 1)
        digit = np.arange(low, low + d * (p - 1) + 1) % p
        table = self.chi_table.copy()
        table[0] = at_zero
        table = table.reshape((p,) * self.k)  # axis t holds digit k - 1 - t
        for t in range(self.k):
            table = table.take(digit, axis=t)
        view = sliding_window_view(table, (p,) * (self.k * (d - 1)),
                                   axis=tuple(range(self.k)) * (d - 1))
        back = slice(None, None, -1)
        return view[tuple(back if s < 0 else slice(None)
                          for s in signs for _ in range(self.k))]
