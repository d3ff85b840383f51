import itertools

import numpy as np
import pytest

from hdmkit import gf
from hdmkit.errors import (
    CharacterOfZero,
    DivisionByZero,
    IndexOutOfRange,
    NotOddPrimePower,
    TooLarge,
)
from hdmkit.gf import Field, canonical_irreducible, factor_prime_power

# Odd prime powers up to 101; the supported desk-scale orders.
SUPPORTED_Q = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101,
]


def squares(F):
    return {F.mul(x, x) for x in range(1, F.q)}


# -- construction -------------------------------------------------------------

def test_field_new_prime():
    F = Field(7)
    assert (F.p, F.k, F.q) == (7, 1, 7)
    assert F.irr == (0, 1)
    assert list(F.elems) == list(range(7))
    # numpy integers become Python ints, so powers of q stay exact
    for q, pk in ((np.int64(7), (7, 1)), (np.int32(9), (3, 2))):
        F = Field(q)
        assert (F.p, F.k, F.q) == (*pk, q) and type(F.q) is int


def test_field_new_prime_power():
    F = Field(9)
    assert (F.p, F.k) == (3, 2)
    # oracle: scan monic quadratics over F_3 in index order for one with no root
    expected = None
    for code in range(9):
        c0, c1 = code % 3, code // 3
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 0, 1)  # t^2 + 1
    assert F.irr == expected


@pytest.mark.parametrize("q", [21, 1, 2, 4, 15, 22, 100, 0, -7, 45, 75, 441, 16383])
def test_field_new_rejects_non_prime_powers(q):
    with pytest.raises(NotOddPrimePower):
        Field(q)


@pytest.mark.parametrize("q", [7.0, "7", np.float64(7)])
def test_field_new_rejects_non_integral_orders(q):
    with pytest.raises(NotOddPrimePower):
        Field(q)


def test_field_order_cap(monkeypatch):
    """The cap admits exactly MAX_ORDER and is checked before q is factored."""
    monkeypatch.setattr(gf, "MAX_ORDER", 7)
    assert Field(7).q == 7
    for q in (9, 21):
        with pytest.raises(TooLarge):
            Field(q)


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(101) == (101, 1)
    assert factor_prime_power(6561) == (3, 8)
    assert factor_prime_power(16129) == (127, 2)
    assert factor_prime_power(16381) == (16381, 1)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 4), (5, 2), (7, 2)])
def test_canonical_irreducible_has_no_small_factors(p, k):
    irr = canonical_irreducible(p, k)
    assert len(irr) == k + 1 and irr[-1] == 1
    if k > 1:
        # no roots in F_p
        for x in range(p):
            assert sum(c * x**j for j, c in enumerate(irr)) % p != 0


# -- arithmetic ---------------------------------------------------------------

def test_add_sub_neg_examples():
    F7 = Field(7)
    assert F7.add(3, 5) == 1
    assert F7.neg(0) == 0
    assert F7.sub(2, 5) == 4
    F9 = Field(9)
    t = F9.element((0, 1))
    two_t_one = F9.element((1, 2))
    assert F9.add(t, two_t_one) == F9.element((1, 0)) == 1


def test_mul_inv_examples():
    F7 = Field(7)
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    with pytest.raises(DivisionByZero):
        F7.inv(0)
    F9 = Field(9)
    t = F9.element((0, 1))
    assert F9.mul(t, t) == 2  # t^2 = -1 = 2 mod (t^2 + 1)


@pytest.mark.parametrize("op,args", [
    ("add", (1, 9)), ("add", (-1, 1)), ("sub", (9, 0)), ("sub", (0, -9)),
    ("neg", (-1,)), ("neg", (10,)), ("mul", (2, -1)), ("mul", (9, 2)),
    ("mul", (0, -1)), ("inv", (-1,)), ("inv", (9,)), ("chi", (-3,)),
    ("chi", (9,)), ("coeffs", (-1,)), ("coeffs", (9,)), ("add", (1.0, 1)),
    ("mul", ("2", 1)),
])
def test_scalar_ops_refuse_indices_outside_the_field(op, args):
    """A negative index used to wrap around the tables (mul(2, -1) read
    element 8 and returned 4, chi(-3) returned 1), and q ended in a bare
    IndexError; both, and a non-integer, are IndexOutOfRange, even where
    the other argument is 0."""
    with pytest.raises(IndexOutOfRange):
        getattr(Field(9), op)(*args)


@pytest.mark.parametrize("op,args", [
    ("mul", (True, 3)), ("add", (1, False)), ("sub", (True, True)), ("neg", (True,)),
    ("inv", (True,)), ("chi", (True,)), ("coeffs", (False,)), ("mul", (np.True_, 3)),
])
def test_scalar_ops_refuse_bools(op, args):
    """True is an int to operator.index, and mul(True, 3) used to return 3;
    a bool is refused as ncube refuses it for a cube index."""
    with pytest.raises(IndexOutOfRange):
        getattr(Field(7), op)(*args)


def test_scalar_ops_take_numpy_integers():
    F = Field(9)
    assert F.mul(np.int64(2), np.int16(8)) == F.mul(2, 8)
    assert F.chi(np.uint8(3)) == F.chi(3)


def test_coeffs_roundtrip():
    F = Field(27)
    for a in F.elems:
        assert F.element(F.coeffs(a)) == a


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_field_axioms_exhaustive(q):
    F = Field(q)
    for a in F.elems:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        for b in F.elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(a, b) == F.add(a, F.neg(b))
            for c in F.elems:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [q for q in SUPPORTED_Q if q <= 49])
def test_inverses(q):
    F = Field(q)
    for a in range(1, q):
        assert F.mul(F.inv(a), a) == 1


# -- quadratic character ------------------------------------------------------

def pow_raw(F, a, e):
    """a**e by square-and-multiply over the table-free polynomial product."""
    result = 1
    while e:
        if e & 1:
            result = F._mul_raw(result, a)
        a = F._mul_raw(a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27, 49, 81, 125, 243])
def test_chi_and_inv_match_table_free_arithmetic(q):
    """chi by Euler's criterion and a * a^-1 = 1, both without exp/log."""
    F = Field(q)
    minus_one = F.neg(1)
    for a in range(1, q):
        euler = pow_raw(F, a, (q - 1) // 2)
        assert euler in (1, minus_one)
        expected = 1 if euler == 1 else -1
        assert F.chi(a) == expected
        assert F.chi_table[a] == expected
        assert F._mul_raw(a, F.inv(a)) == 1

def test_chi_examples():
    F = Field(7)
    assert F.chi(1) == 1
    assert squares(F) == {1, 2, 4}
    assert F.chi(3) == -1
    with pytest.raises(CharacterOfZero):
        F.chi(0)


@pytest.mark.parametrize("q", [q for q in SUPPORTED_Q if q <= 49])
def test_chi_matches_square_enumeration(q):
    F = Field(q)
    sq = squares(F)
    for a in range(1, q):
        assert F.chi(a) == (1 if a in sq else -1)


@pytest.mark.parametrize("q", [q for q in SUPPORTED_Q if q <= 49])
def test_chi_multiplicative(q):
    F = Field(q)
    for a in range(1, q):
        for b in range(1, q):
            assert F.chi(F.mul(a, b)) == F.chi(a) * F.chi(b)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_chi_balanced(q):
    F = Field(q)
    assert sum(F.chi(a) for a in range(1, q)) == 0


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_chi_of_minus_one(q):
    F = Field(q)
    assert F.chi(F.neg(1)) == (1 if q % 4 == 1 else -1)


def test_chi_table_agrees():
    F = Field(27)
    t = F.chi_table
    assert t[0] == 0
    for a in range(1, 27):
        assert t[a] == F.chi(a)


# -- primitive element --------------------------------------------------------

def order_of(F, a):
    x, n = a, 1
    while x != 1:
        x = F.mul(x, a)
        n += 1
    return n


def test_primitive_element_examples():
    assert Field(7).primitive_element() == 3
    assert Field(3).primitive_element() == 2


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 2187, 6561])
def test_primitive_element_is_first_of_full_order(q):
    F = Field(q)
    expected = next(a for a in range(1, q) if order_of(F, a) == q - 1)
    assert F.primitive_element() == expected


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 81, 121, 125, 243, 6561, 15625, 16381])
def test_exp_log_tables_match_table_free_arithmetic(q):
    """The exp table walks the primitive element g's powers, as the
    polynomial product reduced modulo the field's irreducible computes
    them; log inverts it; and g is the first element of order q - 1, by
    powers to (q - 1) / r for each prime r | q - 1, also table-free."""
    F = Field(q)
    g, exp, log = F.primitive_element(), F._exp, F._log
    assert len(exp) == q - 1 and exp[0] == 1
    for i, x in enumerate(exp):
        assert F._mul_raw(x, g) == exp[(i + 1) % (q - 1)]
    assert sorted(exp) == list(range(1, q))
    assert all(log[x] == i for i, x in enumerate(exp))

    def full_order(a):
        return all(pow_raw(F, a, (q - 1) // r) != 1 for r in gf._factor(q - 1))

    assert full_order(g)
    assert not any(full_order(a) for a in range(1, g))


def test_primitive_search_walks_only_the_primitive_element(monkeypatch):
    """Building GF(3^8), whose primitive element is 38, costs k = 8
    products for each candidate it walks, for its table of multiplication
    (56 products: candidates that are powers of walked ones are skipped);
    the exp table is the primitive element's walk.  Walking each
    candidate's powers by polynomial products took 40 813 products, and
    the exp table alone q - 2."""
    calls = 0
    mul_raw = Field._mul_raw

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul_raw(self, a, b)

    monkeypatch.setattr(Field, "_mul_raw", counted)
    F = Field(6561)
    assert F.primitive_element() == 38
    assert calls <= 2 * F.q


# -- vectorized tables --------------------------------------------------------

@pytest.mark.parametrize("q", [7, 9, 25, 27])
def test_chi_form_matches_scalar_ops(q):
    """_chi_form against Field.add, Field.sub and Field.chi, for both values
    at zero: a read-only int8 view whose base-p digit axes, merged in C
    order, index the coordinates."""
    F = Field(q)
    for signs in ((1, -1), (1, 1), (1, 1, 1), (1, -1, -1)):
        want = {}
        for xs in itertools.product(F.elems, repeat=len(signs)):
            form = xs[0]
            for s, x in zip(signs[1:], xs[1:]):
                form = F.add(form, x) if s > 0 else F.sub(form, x)
            want[xs] = form
        for at_zero in (-1, 1):
            view = F._chi_form(signs, at_zero)
            assert view.dtype == np.int8 and not view.flags.writeable
            assert view.shape == (F.p,) * (F.k * len(signs))
            got = view.reshape((q,) * len(signs))
            for xs, form in want.items():
                assert got[xs] == (F.chi(form) if form else at_zero), (signs, at_zero, xs)
