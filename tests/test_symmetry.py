import random
import tracemalloc

import numpy as np
import pytest

from hdmkit import ncube
from hdmkit.constructions import almost_cube, paley2, paley3, yang_product
from hdmkit.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfinityNotAllowed,
    NotAPermutation,
    OrderMismatch,
)
from hdmkit.gf import Field
from hdmkit.ncube import SignCube, is_hadamard, is_proper, layer
from hdmkit.projline import INF, Moebius, PPoint, identity, psl_generators
from hdmkit.symmetry import (
    _relabels_to,
    check_cyclic,
    check_layer_witness,
    check_moebius_invariance,
    check_permutation_invariance,
    check_psl_invariance,
    layer_equiv_witness,
)

H2 = SignCube(2, 2, [1, 1, 1, -1])

# ncube._BUDGET values at which the slab walk of _relabels_to is checked:
# one index of axis 0 per slab, a few, and the default (one slab here)
BUDGETS = (1, 256, 1 << 20)


def under_budgets(check, *args):
    """check(*args) at each budget in BUDGETS; the verdicts must agree.
    The cubes' memoized verdicts are dropped before each call, so that
    every budget walks the cube."""
    verdicts = set()
    with pytest.MonkeyPatch.context() as mp:
        for budget in BUDGETS:
            mp.setattr(ncube, "_BUDGET", budget)
            for a in args:
                if isinstance(a, SignCube):
                    a._fixed.clear()
            verdicts.add(check(*args))
    assert len(verdicts) == 1, verdicts
    return verdicts.pop()


def scaling_perm(F, g):
    """Point permutation of x -> g*x, bypassing the determinant gate."""
    return [0] + [1 + F.mul(g, e) for e in F.elems]


# -- cyclic shifts ---------------------------------------------------------------

ODD_PRIME_POWERS_LE_101 = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101,
]


def test_paley3_cyclic_for_every_supported_order():
    for q in ODD_PRIME_POWERS_LE_101:
        assert check_cyclic(paley3(Field(q))), f"q={q}"


def test_cyclic_counterexample():
    entries = [1] * 8
    entries[1] = -1  # single -1 at (0, 0, 1)
    assert not check_cyclic(SignCube(3, 2, entries))


def test_cyclic_needs_3d():
    with pytest.raises(DimensionMismatch):
        check_cyclic(H2)


def cyclic_by_both_shifts(arr):
    """check_cyclic's former two-comparison form, kept as its oracle."""
    return bool(np.array_equal(arr, arr.transpose(1, 2, 0))
                and np.array_equal(arr, arr.transpose(2, 0, 1)))


def test_cyclic_matches_both_shifts():
    """check_cyclic compares one shift only; against both comparisons on
    cyclic cubes, their one-flip variants and random cubes."""
    rng = np.random.default_rng(11)
    verdicts = set()
    for v in (1, 2, 3, 5, 8):
        for _ in range(10):
            a = rng.choice([-1, 1], size=(v, v, v))
            cyclic = a * a.transpose(1, 2, 0) * a.transpose(2, 0, 1)
            flipped = cyclic.copy()
            flipped[tuple(rng.integers(v, size=3))] *= -1
            for arr in (cyclic, flipped, rng.choice([-1, 1], size=(v, v, v))):
                expected = cyclic_by_both_shifts(arr)
                assert under_budgets(check_cyclic, SignCube(3, v, arr)) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_yang_cyclic_for_symmetric_input():
    syl4 = SignCube(2, 4, np.kron(H2.array, H2.array))
    assert check_cyclic(yang_product(H2, 3))
    assert check_cyclic(yang_product(syl4, 3))
    # a non-symmetric Hadamard input need not give a cyclic cube; the
    # observed outcome for the order-8 quadratic-residue matrix is False
    assert not check_cyclic(yang_product(paley2(Field(7)), 3))


# -- Moebius invariance -------------------------------------------------------------

def test_identity_is_invariance():
    F = Field(7)
    assert check_moebius_invariance(paley3(F), F, identity(F))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_generators_fix_paley3(q):
    F = Field(q)
    cube = paley3(F)
    for g in psl_generators(F):
        assert check_moebius_invariance(cube, F, g)


def test_nonsquare_scaling_breaks_invariance():
    # x -> g*x with g a non-square maps chi(z-y) to chi(g)*chi(z-y)
    F = Field(7)
    g = F.primitive_element()
    assert F.chi(g) == -1
    assert not check_permutation_invariance(paley3(F), scaling_perm(F, g))


def test_square_scaling_keeps_invariance():
    F = Field(7)
    g2 = F.mul(F.primitive_element(), F.primitive_element())
    assert check_permutation_invariance(paley3(F), scaling_perm(F, g2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_invariance_matches_fancy_indexing(n):
    """check_permutation_invariance against the direct relabelling
    arr[np.ix_(perm, ..., perm)], on cubes that are invariant (constant
    on the cycles of perm), nearly invariant (one entry flipped) and random."""
    rng = np.random.default_rng(n)
    verdicts = set()
    for v in (1, 2, 3, 5, 8):
        for _ in range(10):
            perm = rng.permutation(v)
            cycle = np.arange(v)  # cycle[i]: smallest point on i's cycle
            for _ in range(v):
                cycle = np.minimum(cycle, cycle[perm])
            invariant = rng.choice([-1, 1], size=(v,) * n)[np.ix_(*[cycle] * n)]
            flipped = invariant.copy()
            flipped[tuple(rng.integers(v, size=n))] *= -1
            for arr in (invariant, flipped, rng.choice([-1, 1], size=(v,) * n)):
                H = SignCube(n, v, arr)
                expected = bool(np.array_equal(arr[np.ix_(*[perm] * n)], arr))
                assert under_budgets(check_permutation_invariance, H, perm) == expected
                assert check_permutation_invariance(H, perm.tolist()) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_psl_invariance_of_paley3(q):
    F = Field(q)
    assert check_psl_invariance(paley3(F), F)


def test_psl_invariance_fails_for_almost_cube():
    F = Field(5)
    assert not check_psl_invariance(almost_cube(F, 3), F)


def test_constant_cube_is_invariant():
    F = Field(5)
    ones = SignCube(3, 6, [1] * 216)
    assert check_psl_invariance(ones, F)


def test_order_mismatch_rejected():
    F7 = Field(7)
    with pytest.raises(OrderMismatch):
        check_moebius_invariance(paley3(Field(5)), F7, identity(F7))
    with pytest.raises(DimensionMismatch):
        check_moebius_invariance(H2, Field(3), identity(Field(3)))


@pytest.mark.parametrize("q", [7, 9])
def test_random_generator_words_fix_paley3(q):
    F = Field(q)
    cube = paley3(F)
    gens = psl_generators(F)
    rng = random.Random(97)
    for _ in range(50):
        word = identity(F)
        for _ in range(rng.randint(1, 8)):
            word = word.compose(rng.choice(gens))
        assert check_moebius_invariance(cube, F, word)


# -- layer equivalence witness ---------------------------------------------------------

def test_witness_sends_c_to_infinity():
    F = Field(7)
    m = layer_equiv_witness(F, PPoint(0))
    assert (m.a, m.b, m.c, m.d) == (0, F.neg(1), 1, 0)
    assert m.apply(PPoint(0)) == INF
    for c in F.elems:
        w = layer_equiv_witness(F, PPoint(c))
        assert w.apply(PPoint(c)) == INF  # determinant 1 checked on construction


def test_witness_rejects_infinity():
    with pytest.raises(InfinityNotAllowed):
        layer_equiv_witness(Field(7), INF)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_witness_contract_exhaustive(q):
    F = Field(q)
    cube = paley3(F)
    for c in F.elems:
        assert check_layer_witness(F, cube, PPoint(c))


def layer_witness_by_copies(F, H, c):
    """check_layer_witness's former form, on layer() copies, kept as its oracle."""
    perm = layer_equiv_witness(F, c).perm()
    fixed_c = layer(H, {2: 1 + c.e}).array
    fixed_inf = layer(H, {2: 0}).array
    return bool(np.array_equal(fixed_inf[np.ix_(perm, perm)], fixed_c))


def few_run_perms(v: int) -> list:
    """Permutations of range(v) with few runs of consecutive images, which
    _relabels_to copies run by run once a slab is large enough: x -> x + 1
    on PG(1, v - 1) (3 runs), rotations of range(v), the identity, and a
    swap of two blocks."""
    swap = np.arange(v)
    k = v // 4
    swap[1:1 + k], swap[v - k:] = swap[v - k:].copy(), swap[1:1 + k].copy()
    return [np.r_[0, 2:v, 1][:v], np.roll(np.arange(v), 1), np.roll(np.arange(v), v // 3),
            np.arange(v), swap]


def transposed_view(x: np.ndarray, axes) -> np.ndarray:
    """A view equal to x that reads a C-order copy through transpose(axes),
    as a coordinate permutation's dst is read; x itself if axes is None."""
    if axes is None:
        return x
    return np.ascontiguousarray(x.transpose(np.argsort(axes))).transpose(axes)


@pytest.mark.parametrize("budget", BUDGETS)
def test_relabels_to_finds_a_difference_in_the_first_or_last_slab(budget, monkeypatch):
    """_relabels_to against the whole-cube relabelling
    arr[np.ix_(perm, ..., perm)], as it lies or as a transposed view
    (transposed_view), with one entry of it flipped in the first or the
    last index of axis 0, or on either side of the edges of the growing
    slabs 1, 2, 4, ..., which start at 0, 1, 3 and 7.  The perms are none,
    a random one and few_run_perms, for n = 1 to 5 (n = 1, whose one axis
    is relabelled by the slab's gather alone, and the shapes whose larger
    slabs take the run-by-run copy).  With rows = r only indices [0, r)
    of axis 0 are compared: a flip below r is found, one at r or above is
    not."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = np.random.default_rng(budget)
    shapes = [(n, v) for n in (1, 2, 3) for v in (1, 2, 5, 8, 13, 40)]
    shapes += [(2, 200), (4, 5), (4, 16), (5, 4), (5, 8)]
    for n, v in shapes:
        arr = rng.choice(np.array([-1, 1], dtype=np.int8), size=(v,) * n)
        perm, axes = rng.permutation(v), tuple(rng.permutation(n))
        cases = [(None, axes)] + [(p, a) for p in (perm, *few_run_perms(v)) for a in (axes, None)]
        for p, a in cases:
            whole = arr if p is None else arr[np.ix_(*[p] * n)]
            assert _relabels_to(arr, transposed_view(whole, a), p)
            for first in {i for i in (0, 1, 2, 3, 6, 7) if i < v} | {v - 1}:
                bad = whole.copy()
                bad[(first, *rng.integers(v, size=n - 1))] *= -1
                assert not _relabels_to(arr, transposed_view(bad, a), p)
                for rows in {1, (v + 1) // 2, v}:
                    assert _relabels_to(arr, transposed_view(bad, a), p, rows=rows) == (first >= rows)
        assert not _relabels_to(arr, arr[:-1], perm)


def test_relabels_to_rejects_from_a_small_first_slab():
    """The slab walk grows from one index of axis 0, so a cube that differs
    from its rotation early, as the product of the skew paley2(GF(23)) in
    four dimensions does, is rejected holding about one 24**3 slice of its
    24**4 entries, not a slab of half the budget (the whole cube here)."""
    cube = yang_product(paley2(Field(23)), 4)
    tracemalloc.start()
    try:
        assert not _relabels_to(cube.array, cube.array.transpose(1, 2, 3, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layer = cube.data.nbytes // cube.v
    assert ncube._BUDGET // (2 * layer) >= cube.v  # half the budget holds the cube
    assert peak <= 3 * layer


def test_symmetry_checks_peak_memory():
    """check_cyclic and check_psl_invariance hold the cube and one budget:
    they walk the cube in slabs instead of making cube-sized relabelled
    copies (the PSL check used to peak at 2.0x the cube at q = 251)."""
    F = Field(251)
    cube = paley3(F)
    tracemalloc.start()
    try:
        assert check_cyclic(cube) and check_psl_invariance(cube, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cube.data.nbytes + peak <= 1.1 * cube.data.nbytes + ncube._BUDGET


def compare_calls(monkeypatch) -> list:
    """Appends one entry per _relabels_to call made through ncube."""
    calls, relabels = [], ncube._relabels_to
    monkeypatch.setattr(ncube, "_relabels_to", lambda *a, **kw: calls.append(1) or relabels(*a, **kw))
    return calls


def test_psl_and_cyclic_verdicts_are_decided_once_per_cube(monkeypatch):
    """A cube's relabelling verdicts are memoized on it: the PSL check
    twice makes its three compares once, and the rotation compare behind
    check_cyclic and the verifiers is made once.  Bad permutations are
    still refused on every call."""
    F = Field(13)
    cube = SignCube(3, 14, paley3(F).array)  # no candidates, an empty memo
    calls = compare_calls(monkeypatch)
    assert check_psl_invariance(cube, F) and check_psl_invariance(cube, F)
    assert len(calls) == 3
    assert check_cyclic(cube) and is_hadamard(cube).passed and check_cyclic(cube)
    assert len(calls) == 4
    for _ in range(2):
        with pytest.raises(OrderMismatch):
            check_psl_invariance(cube, Field(11))
        with pytest.raises(OrderMismatch):
            check_permutation_invariance(cube, range(13))
        with pytest.raises(NotAPermutation):
            check_permutation_invariance(cube, [0] * 14)
    assert len(calls) == 4
    # a failing verdict is kept as well
    almost = almost_cube(F, 3)
    assert not check_psl_invariance(almost, F) and not check_psl_invariance(almost, F)
    assert len(calls) == 5


def test_psl_after_the_verifiers_compares_only_the_inversion(monkeypatch):
    """The verifiers compare the digit translations and the scaling
    x -> g^2 x on paley3, the last translation and the scaling having the
    bytes of PSL's translation and scaling, so check_psl_invariance then
    makes one compare, the inversion's, over a prime field and over GF(9),
    GF(27) and GF(49) alike."""
    for q, compares in ((7, 1), (13, 1), (19, 1), (9, 1), (27, 1), (49, 1)):
        F = Field(q)
        cube = paley3(F)
        assert is_hadamard(cube).passed
        calls = compare_calls(monkeypatch)
        assert check_psl_invariance(cube, F)
        assert len(calls) == compares, q
        monkeypatch.undo()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_layer_witness_matches_layer_copies(q):
    """On paley3 and on paley3 with one entry of the c-layer flipped."""
    F = Field(q)
    cube = paley3(F)
    rng = np.random.default_rng(q)
    verdicts = set()
    for c in F.elems:
        flipped = cube.array.copy()
        flipped[(*rng.integers(cube.v, size=2), 1 + c)] *= -1
        for H in (cube, SignCube(3, cube.v, flipped)):
            expected = layer_witness_by_copies(F, H, PPoint(c))
            assert under_budgets(check_layer_witness, F, H, PPoint(c)) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_layer_witness_rejects_wrong_order_or_dimension():
    F = Field(7)
    for H, error in ((paley3(Field(5)), OrderMismatch),
                     (paley3(Field(11)), OrderMismatch),
                     (yang_product(paley2(F), 4), DimensionMismatch),
                     (paley2(F), DimensionMismatch)):
        for c in (PPoint(0), PPoint(6)):
            with pytest.raises(error):
                check_layer_witness(F, H, c)


def test_symmetry_checks_reject_bad_permutations_and_points(monkeypatch):
    """Bad permutations are refused before any compare: _relabels_to would
    clip an out-of-range index, not raise."""
    F = Field(7)
    ones = SignCube(3, 8, [1] * 512)
    calls = compare_calls(monkeypatch)
    for perm in ([9] * 8, [0] * 8):  # out of range; in range but not a permutation
        with pytest.raises(NotAPermutation):
            check_permutation_invariance(ones, perm)
    assert calls == []
    with pytest.raises(OrderMismatch):
        check_permutation_invariance(ones, range(7))
    # a float used to end in numpy's IndexError, and True to stand for 1
    for bad in (1.0, True, np.True_, "1", None):
        with pytest.raises(NotAPermutation):
            check_permutation_invariance(ones, [bad, 0, *range(2, 8)])
    assert check_permutation_invariance(ones, [np.int64(1), np.uint8(0), *range(2, 8)])
    cube = paley3(F)
    for c in (PPoint(20), PPoint(7), PPoint(-1)):
        with pytest.raises(IndexOutOfRange):
            layer_equiv_witness(F, c)
        with pytest.raises(IndexOutOfRange):
            check_layer_witness(F, cube, c)


def test_relabelling_callers_build_permutations():
    """_relabels_to clips an index out of range instead of raising, so it
    must be handed a permutation of range(v).  check_permutation_invariance
    checks the perms it is given
    (test_symmetry_checks_reject_bad_permutations_and_points); the perms
    that the other callers build, the PSL generators and the layer
    witnesses, and the verifiers' digit translations, scaling x -> g^2 x
    and negation x -> -x, are permutations."""
    for q in (3, 7, 9, 11):
        F = Field(q)
        perms = [*(g.perm() for g in psl_generators(F)),
                 *(layer_equiv_witness(F, PPoint(c)).perm() for c in F.elems)]
        perms += [tau for tau, _ in ncube._translations(q + 1)]
        perms += [ncube._scaling(q + 1)[0], ncube._negation(q + 1)]
        for perm in perms:
            assert sorted(np.asarray(perm).tolist()) == list(range(q + 1))


@pytest.mark.parametrize("q", [3, 7])
def test_fixed_coordinate_layers_all_hadamard_when_proper(q):
    # cross-check the witness story against the propriety verdict
    F = Field(q)
    cube = paley3(F)
    assert is_proper(cube).passed
    for axis in range(3):
        for val in range(cube.v):
            assert is_hadamard(layer(cube, {axis: val})).passed
