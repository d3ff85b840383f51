"""The projective line over GF(q) and its determinant-1 Moebius transformations.

Points are the q field elements plus one point at infinity.  The canonical
point order puts infinity first, then the field elements in enumeration
order, so point index 0 is infinity and index 1+a is the element a.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDeterminant
from .gf import Field


@dataclass(frozen=True)
class PPoint:
    """A point of the projective line: a field element index, or None for infinity."""

    e: int | None = None

    @property
    def is_infinity(self) -> bool:
        return self.e is None

    def __repr__(self):
        return "PPoint(inf)" if self.e is None else f"PPoint({self.e})"


INF = PPoint(None)


def pg_points(F: Field) -> list[PPoint]:
    """All q+1 points: infinity first, then field elements in canonical order."""
    return [INF] + [PPoint(a) for a in F.elems]


def pg_index(pt: PPoint) -> int:
    """Position of pt in pg_points: 0 for infinity, 1 + element index otherwise."""
    return 0 if pt.e is None else 1 + pt.e


class Moebius:
    """x -> (a*x + b) / (c*x + d) over a fixed field, with a*d - b*c = 1.

    Coefficients are element indices in 0..q-1; construction raises
    IndexOutOfRange for any other index, then rejects any determinant
    other than 1; there is no normalization.  Two instances represent the
    same group element iff they act identically on the projective line
    (sign-flipped coefficients give the same action), so comparisons go
    through perm()/same_action() rather than coefficient equality.
    """

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: Field, a: int, b: int, c: int, d: int):
        a, b, c, d = (field._index(x) for x in (a, b, c, d))
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det != 1:
            raise BadDeterminant(f"ad - bc = {det}, need 1")
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    def __repr__(self):
        return f"Moebius({self.a}, {self.b}, {self.c}, {self.d}; {self.field!r})"

    def apply(self, x: PPoint) -> PPoint:
        """Evaluate at x; a zero denominator maps to infinity, and infinity
        maps to a/c (or stays at infinity when c = 0)."""
        F = self.field
        if x.is_infinity:
            if self.c == 0:
                return INF
            return PPoint(F.mul(self.a, F.inv(self.c)))
        e = F._index(x.e)
        den = F.add(F.mul(self.c, e), self.d)
        if den == 0:
            return INF
        num = F.add(F.mul(self.a, e), self.b)
        return PPoint(F.mul(num, F.inv(den)))

    def compose(self, other: "Moebius") -> "Moebius":
        """The transformation x -> self(other(x)); coefficient-matrix product."""
        if other.field is not self.field:
            raise ValueError("operands live over different fields")
        F = self.field
        a = F.add(F.mul(self.a, other.a), F.mul(self.b, other.c))
        b = F.add(F.mul(self.a, other.b), F.mul(self.b, other.d))
        c = F.add(F.mul(self.c, other.a), F.mul(self.d, other.c))
        d = F.add(F.mul(self.c, other.b), F.mul(self.d, other.d))
        return Moebius(F, a, b, c, d)

    def inverse(self) -> "Moebius":
        F = self.field
        return Moebius(F, self.d, F.neg(self.b), F.neg(self.c), self.a)

    def perm(self) -> tuple[int, ...]:
        """Action on point indices: perm[i] = index of the image of point i.

        The images are those apply gives, computed for every finite point at
        once: products and quotients from the field's exp/log tables, sums
        digit by digit in base p, as the index encoding adds."""
        F = self.field
        exp, log, x = np.array(F._exp), np.array(F._log), np.arange(F.q)

        def times(c: int, y: np.ndarray) -> np.ndarray:  # c * y, elementwise
            return np.where(y == 0, 0, exp[(log[c] + log[y]) % (F.q - 1)]) if c else 0 * y

        def plus(y: np.ndarray, b: int) -> np.ndarray:  # y + b, elementwise
            return sum((y // w + b // w) % F.p * w for w in F._weights)

        num, den = plus(times(self.a, x), self.b), plus(times(self.c, x), self.d)
        # num and den are never both 0, as ad - bc = 1; den = 0 maps to infinity
        ratio = np.where(num == 0, 0, exp[(log[num] - log[den]) % (F.q - 1)])
        at_inf = pg_index(self.apply(INF))
        return (at_inf, *np.where(den == 0, 0, 1 + ratio).tolist())

    def same_action(self, other: "Moebius") -> bool:
        return self.perm() == other.perm()


def identity(F: Field) -> Moebius:
    return Moebius(F, 1, 0, 0, 1)


def moebius_is_bijection(F: Field, m: Moebius) -> bool:
    """Exhaustively check that m permutes the q+1 points."""
    return sorted(m.perm()) == list(range(F.q + 1))


def psl_generators(F: Field) -> list[Moebius]:
    """Generators of the determinant-1 Moebius group: the unit translation
    x -> x+1, the inversion x -> -1/x, and the square scaling x -> g^2 x
    for g the first primitive element."""
    g = F.primitive_element()
    return [
        Moebius(F, 1, 1, 0, 1),
        Moebius(F, 0, F.neg(1), 1, 0),
        Moebius(F, g, 0, 0, F.inv(g)),
    ]
