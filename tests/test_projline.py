import hashlib
from collections import deque

import numpy as np
import pytest

from hdmkit.errors import BadDeterminant, IndexOutOfRange
from hdmkit.gf import Field, _factor
from hdmkit.projline import (
    INF,
    Moebius,
    PPoint,
    identity,
    moebius_is_bijection,
    pg_index,
    pg_points,
    psl_generators,
)


def sl2_quadruples(F):
    """All (a, b, c, d) with ad - bc = 1, enumerated directly."""
    q = F.q
    out = []
    for a in range(1, q):
        ia = F.inv(a)
        for b in range(q):
            for c in range(q):
                out.append((a, b, c, F.mul(ia, F.add(1, F.mul(b, c)))))
    for b in range(1, q):  # a = 0 forces bc = -1
        c = F.neg(F.inv(b))
        for d in range(q):
            out.append((0, b, c, d))
    return out


def compose_perms(outer, inner):
    return tuple(outer[i] for i in inner)


def closure(F, with_inverses=False):
    """BFS over the group generated by psl_generators; returns {perm: depth}."""
    gens = psl_generators(F)
    if with_inverses:
        gens = gens + [g.inverse() for g in gens]
    gperms = [g.perm() for g in gens]
    start = identity(F).perm()
    seen = {start: 0}
    frontier = deque([start])
    while frontier:
        p = frontier.popleft()
        for gp in gperms:
            nxt = compose_perms(gp, p)
            if nxt not in seen:
                seen[nxt] = seen[p] + 1
                frontier.append(nxt)
    return seen


# -- points -------------------------------------------------------------------

def test_pg_points_small():
    F = Field(3)
    pts = pg_points(F)
    assert pts == [INF, PPoint(0), PPoint(1), PPoint(2)]
    assert pts[0].is_infinity
    assert pts[1].e == 0


def test_pg_points_length():
    pts = pg_points(Field(9))
    assert len(pts) == 10
    assert pts[0] is INF
    assert [pg_index(pt) for pt in pts] == list(range(10))


@pytest.mark.parametrize("e", [-1, -10, True, False, 1.5, 2.0, "3"])
def test_pg_index_refuses_malformed_points(e):
    """An element index is read by gf._integer: PPoint(-1) used to give 0,
    infinity's index, PPoint(True) 2 and PPoint(1.5) 2.5."""
    with pytest.raises(IndexOutOfRange):
        pg_index(PPoint(e))


def test_pg_index_takes_numpy_integers_as_ints():
    """PPoint(np.uint8(255)) used to wrap to 0, infinity's index: 1 + e
    was taken in e's dtype."""
    assert pg_index(PPoint(np.int64(4))) == 5 and type(pg_index(PPoint(np.uint8(255)))) is int
    assert pg_index(PPoint(np.uint8(255))) == 256


# -- construction and evaluation ----------------------------------------------

def test_moebius_new_accepts_det_one():
    F = Field(7)
    Moebius(F, 1, 1, 0, 1)
    Moebius(F, 0, F.neg(1), 1, 0)


def test_moebius_new_rejects_other_determinants():
    F = Field(7)
    g = F.primitive_element()
    assert F.chi(g) == -1
    with pytest.raises(BadDeterminant):
        Moebius(F, g, 0, 0, 1)


def test_moebius_new_rejects_indices_outside_the_field():
    """Indices are checked before the determinant: -1 would read element
    q - 1 from the tables, and q would end in a bare IndexError."""
    F = Field(9)
    for coeffs in ((1, -1, 0, 1), (1, 9, 0, 1), (0, 8, 1, 9)):
        with pytest.raises(IndexOutOfRange):
            Moebius(F, *coeffs)
    shift = Moebius(F, 1, F.neg(1), 0, 1)  # x -> x - 1, given by its index
    assert shift.perm()[pg_index(PPoint(1))] == pg_index(PPoint(0))


def test_moebius_new_takes_coefficients_through_the_field_gate():
    """Moebius(F, True, 0, 0, True) used to build the identity, and a str
    coefficient ended in a bare TypeError; numpy integers are taken and
    stored as ints."""
    F = Field(7)
    for coeffs in ((True, 0, 0, True), (1, False, 0, 1), ("1", 0, 0, 1), (1.0, 0, 0, 1)):
        with pytest.raises(IndexOutOfRange):
            Moebius(F, *coeffs)
    m = Moebius(F, np.int64(1), np.uint8(1), 0, 1)
    assert (m.a, m.b) == (1, 1) and type(m.a) is int
    assert m.same_action(Moebius(F, 1, 1, 0, 1))


@pytest.mark.parametrize("e", [-1, -9, 9, 20])
def test_apply_refuses_points_outside_the_field(e):
    """PPoint(-1) used to wrap to element 8 (apply returned PPoint(6)), and
    PPoint(20) ended in a bare IndexError."""
    with pytest.raises(IndexOutOfRange):
        Moebius(Field(9), 1, 1, 0, 1).apply(PPoint(e))


def test_apply_translation():
    F = Field(7)
    t = Moebius(F, 1, 1, 0, 1)
    assert t.apply(PPoint(6)) == PPoint(0)
    assert t.apply(INF) == INF


def test_apply_inversion():
    F = Field(7)
    s = Moebius(F, 0, F.neg(1), 1, 0)
    assert s.apply(PPoint(0)) == INF
    assert s.apply(INF) == PPoint(0)
    assert s.apply(PPoint(2)) == PPoint(3)  # -inv(2) = -4 = 3


def test_compose_translations():
    F = Field(7)
    t = Moebius(F, 1, 1, 0, 1)
    assert t.compose(t).same_action(Moebius(F, 1, 2, 0, 1))
    assert t.compose(identity(F)).same_action(t)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_compose_matches_pointwise_application(q):
    F = Field(q)
    t, s, d = psl_generators(F)
    for m1 in (t, s, d, s.compose(t)):
        for m2 in (t, s, d, t.compose(d)):
            comp = m1.compose(m2)
            for pt in pg_points(F):
                assert comp.apply(pt) == m1.apply(m2.apply(pt))


def test_every_det_one_map_is_a_bijection():
    F = Field(7)
    quads = sl2_quadruples(F)
    assert len(quads) == 7 * (49 - 1)  # |SL(2,7)| = 336
    for a, b, c, d in quads:
        assert moebius_is_bijection(F, Moebius(F, a, b, c, d))


ODD_PRIME_POWERS_LE_243 = [q for q in range(3, 244, 2) if len(_factor(q)) == 1]


def test_perm_bytes_match_the_pointwise_images():
    """Moebius.perm, computed from the exp/log tables and digit sums, is
    the tuple of Python ints that apply gives point by point, for every
    odd prime power q <= 243: on the PSL generators, maps with c = 0 and
    c != 0, a = 0 or d = 0, and seeded random determinant-1 maps."""
    rng = np.random.default_rng(243)
    assert ODD_PRIME_POWERS_LE_243[:8] == [3, 5, 7, 9, 11, 13, 17, 19]
    assert {9, 25, 27, 49, 81, 121, 125, 169, 243} <= set(ODD_PRIME_POWERS_LE_243)
    for q in ODD_PRIME_POWERS_LE_243:
        F = Field(q)
        maps = [*psl_generators(F), Moebius(F, 0, F.neg(1), 1, F.neg(q - 1)),
                Moebius(F, 1, q - 1, 0, 1), identity(F)]
        for _ in range(4):
            a, b, c = (int(x) for x in rng.integers(q, size=3))
            if a:
                maps.append(Moebius(F, a, b, c, F.mul(F.inv(a), F.add(1, F.mul(b, c)))))
        for m in maps:
            want = tuple(pg_index(m.apply(pt)) for pt in pg_points(F))
            got = m.perm()
            assert got == want and all(type(i) is int for i in got), (q, m)


# SHA-256 prefixes of the perms of psl_generators(F) and of their inverses,
# (t, t^-1, s, s^-1, d, d^-1) as int64 bytes, from the implementation that
# converted the field's exp/log lists to arrays on every call.
PSL_PERM_DIGESTS = {
    3: "1caf913fa88c178ab2fa9631", 7: "70c7caec80bae9dde2a968dd",
    9: "8c1949321c9c476c6ac7a9da", 25: "596e447773a37afde70a6d3d",
    27: "b64de2e2410c90326a5a1708", 49: "c013966f2d73ded6f4849b43",
    81: "9efd262f439b22bc924a7a95", 125: "0e99429aa4bac74b2d4b6de7",
    127: "f23da6c2d3a67eefd5e1641f", 243: "2b379192ff2e95c6c2d02b2a",
}


@pytest.mark.parametrize("q", sorted(PSL_PERM_DIGESTS))
def test_psl_generator_perms_are_pinned(q):
    """perm reads the read-only exp/log arrays of the field's order and
    gives the same bytes, and Python ints, as before."""
    F = Field(q)
    h = hashlib.sha256()
    for m in psl_generators(F):
        for x in (m, m.inverse()):
            perm = x.perm()
            assert all(type(i) is int for i in perm)
            h.update(np.array(perm, np.int64).tobytes())
    assert h.hexdigest()[:24] == PSL_PERM_DIGESTS[q]


def test_compose_refuses_a_second_field_of_the_same_order():
    """Two Field(7) share their tables but are distinct fields."""
    t = Moebius(Field(7), 1, 1, 0, 1)
    with pytest.raises(ValueError, match="different fields"):
        t.compose(Moebius(Field(7), 1, 1, 0, 1))


def test_inverse_undoes():
    F = Field(9)
    for m in psl_generators(F):
        assert m.compose(m.inverse()).same_action(identity(F))


# -- generators ----------------------------------------------------------------

def test_generators_gf3():
    F = Field(3)
    t, s, d = psl_generators(F)
    assert (t.a, t.b, t.c, t.d) == (1, 1, 0, 1)
    assert d.same_action(identity(F))  # g = 2, g^2 = 1 in F_3


def test_generators_gf7_scaling():
    F = Field(7)
    d = psl_generators(F)[2]
    assert (d.a, d.b, d.c, d.d) == (3, 0, 0, 5)
    assert d.apply(PPoint(1)) == PPoint(2)  # x -> g^2 x = 2x


# -- lemma-level identities -----------------------------------------------------

@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_difference_identity(q):
    # f(x) - f(y) = (x - y) / ((cx+d)(cy+d)) whenever both denominators are nonzero
    F = Field(q)
    for a, b, c, d in sl2_quadruples(F):
        m = Moebius(F, a, b, c, d)
        dens = [F.add(F.mul(c, x), d) for x in range(q)]
        imgs = [m.apply(PPoint(x)).e for x in range(q)]
        for x in range(q):
            if dens[x] == 0:
                continue
            for y in range(q):
                if dens[y] == 0:
                    continue
                lhs = F.sub(imgs[x], imgs[y])
                rhs = F.mul(F.sub(x, y), F.inv(F.mul(dens[x], dens[y])))
                assert lhs == rhs


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_group_closure_size(q):
    assert len(closure(Field(q))) == q * (q * q - 1) // 2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_two_transitivity_within_word_bound(q):
    # every ordered point pair is the image of (0, inf) under a word of
    # length <= 20 in the generators and their inverses
    F = Field(q)
    seen = closure(F, with_inverses=True)
    src = (pg_index(PPoint(0)), pg_index(INF))
    best: dict[tuple[int, int], int] = {}
    for perm, depth in seen.items():
        pair = (perm[src[0]], perm[src[1]])
        best[pair] = min(best.get(pair, 99), depth)
    n_pts = q + 1
    wanted = {(x, y) for x in range(n_pts) for y in range(n_pts) if x != y}
    assert set(best) == wanted
    assert max(best.values()) <= 20
