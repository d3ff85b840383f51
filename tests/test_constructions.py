import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hdmkit import constructions
from hdmkit.constructions import almost_cube, dim_lift, paley2, paley3, yang_product
from hdmkit.errors import DimensionMismatch, DimensionTooSmall, NotHadamardInput, TooLarge
from hdmkit.gf import Field
from hdmkit.ncube import SignCube, is_hadamard, is_proper, layer, serialize

INF = None  # oracle-side marker for the point at infinity
PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"


def pg(pt):
    return 0 if pt is INF else 1 + pt


def oracle_paley2(F):
    """Scalar evaluation of the 2-D definition, case by case."""
    def h(x, y):
        if x is INF and y is INF:
            return -1
        if x == y or x is INF or y is INF:
            return 1
        return F.chi(F.sub(y, x))
    pts = [INF] + list(F.elems)
    return {(x, y): h(x, y) for x in pts for y in pts}


def oracle_paley3(F):
    """Scalar evaluation of the 3-D definition, case by case."""
    def H(x, y, z):
        if x == y == z:
            return -1
        if x == y or y == z or x == z:
            return 1
        if x is INF:
            return F.chi(F.sub(z, y))
        if y is INF:
            return F.chi(F.sub(x, z))
        if z is INF:
            return F.chi(F.sub(y, x))
        return F.chi(F.mul(F.mul(F.sub(x, y), F.sub(y, z)), F.sub(z, x)))
    pts = [INF] + list(F.elems)
    return {(x, y, z): H(x, y, z) for x in pts for y in pts for z in pts}


def oracle_almost(F, chi0=-1):
    def H(x, y, z):
        if x is INF or y is INF or z is INF:
            return 1
        s = F.add(F.add(x, y), z)
        return chi0 if s == 0 else F.chi(s)
    pts = [INF] + list(F.elems)
    return {(x, y, z): H(x, y, z) for x in pts for y in pts for z in pts}


def two_dim_layers(H):
    for axis in range(H.n):
        for val in range(H.v):
            yield layer(H, {axis: val})


# -- paley2 ---------------------------------------------------------------------

def test_paley2_small_example():
    rows = paley2(Field(3)).array.tolist()
    assert rows == [
        [-1, 1, 1, 1],
        [1, 1, 1, -1],
        [1, -1, 1, 1],
        [1, 1, -1, 1],
    ]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 27])
def test_paley2_matches_scalar_oracle(q):
    F = Field(q)
    cube = paley2(F)
    oracle = oracle_paley2(F)
    for (x, y), val in oracle.items():
        assert cube.get((pg(x), pg(y))) == val


def test_paley2_hadamard_iff_q_3_mod_4():
    assert is_hadamard(paley2(Field(7))).passed
    assert is_hadamard(paley2(Field(11))).passed
    assert not is_hadamard(paley2(Field(5))).passed
    assert not is_hadamard(paley2(Field(9))).passed


# -- paley3 ---------------------------------------------------------------------

def test_paley3_coincidence_entries():
    for q in (3, 7):
        cube = paley3(Field(q))
        assert cube.get((0, 0, 0)) == -1          # all three at infinity
        assert cube.get((1, 1, 0)) == 1           # x = y = 0, z = infinity
        assert cube.get((2, 2, 2)) == -1
        assert cube.get((0, 2, 0)) == 1


def test_paley3_character_entries():
    assert paley3(Field(3)).get((0, 1, 2)) == 1   # chi(1 - 0) = +1
    # chi((0-1)(1-2)(2-0)) = chi(2) = +1 since squares mod 7 are {1, 2, 4}
    assert paley3(Field(7)).get((1, 2, 3)) == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 27])
def test_paley3_matches_scalar_oracle(q):
    F = Field(q)
    cube = paley3(F)
    oracle = oracle_paley3(F)
    for (x, y, z), val in oracle.items():
        assert cube.get((pg(x), pg(y), pg(z))) == val


ODD_PRIME_POWERS_LE_101 = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101,
]


def test_paley3_is_hadamard_for_every_supported_order():
    for q in ODD_PRIME_POWERS_LE_101:
        rep = is_hadamard(paley3(Field(q)))
        assert rep.passed, f"q={q}: {rep}"


def test_paley3_serialization_matches_pinned_digests():
    pinned = json.loads(PINS.read_text())["hdm"]
    assert pinned
    for q, digest in pinned.items():
        text = serialize(paley3(Field(int(q))))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, f"q={q}"


def pinned_raw_cube(key: str) -> SignCube:
    """The cube of a bench/pins.json "raw" key, kind:q or kind:q:dim, built
    through the library alone."""
    kind, q, *dim = key.split(":")
    F = Field(int(q))
    if kind == "almost":
        return almost_cube(F, int(dim[0]))
    if kind == "paley3":
        return paley3(F)
    if kind == "product":
        return yang_product(paley2(F), int(dim[0]))
    return dim_lift({"lift2": paley2, "lift3": paley3}[kind](F))


def test_raw_cubes_match_pinned_digests():
    """Every cube the benchmark builds has its entries, as int8 in C order,
    pinned: almost_cube, both lifts, paley3 and the products."""
    pinned = json.loads(PINS.read_text())["raw"]
    assert {key.split(":")[0] for key in pinned} == {
        "almost", "lift2", "lift3", "paley3", "product"}
    for key, digest in pinned.items():
        data = np.ascontiguousarray(pinned_raw_cube(key).array, dtype=np.int8)
        assert hashlib.sha256(data.tobytes()).hexdigest() == digest, key


def test_paley3_peak_memory_is_within_two_cubes():
    F = Field(127)
    paley3(F)  # warm the field's cached tables
    tracemalloc.start()
    try:
        cube = paley3(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cube.data.nbytes


def traced_peak_ratio(build):
    """tracemalloc peak of build() over the nbytes of the cube it returns."""
    tracemalloc.start()
    try:
        cube = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / cube.data.nbytes


def test_paley2_peak_memory_does_not_grow_with_k():
    F = Field(3**6)
    paley2(F)  # warm the field's cached table and the entry check's scratch
    assert traced_peak_ratio(lambda: paley2(F)) <= 1.5


@pytest.mark.parametrize("q, dim", [(79, 3), (23, 4), (27, 3), (25, 4)])
def test_almost_cube_peak_memory(q, dim):
    F = Field(q)
    almost_cube(F, dim)  # warm the field's cached table and the entry check's scratch
    assert traced_peak_ratio(lambda: almost_cube(F, dim)) <= 1.5


def test_yang_product_peak_memory():
    h = paley2(Field(23))
    assert traced_peak_ratio(lambda: yang_product(h, 5)) <= 1.5


def test_dim_lift_peak_memory():
    h = paley3(Field(47))
    assert traced_peak_ratio(lambda: dim_lift(h)) <= 1.5


@pytest.mark.parametrize("q", [3, 7, 11])
def test_paley3_proper_when_q_is_3_mod_4(q):
    F = Field(q)
    cube = paley3(F)
    assert is_proper(cube).passed
    assert layer(cube, {2: 0}) == paley2(F)  # fixing z = infinity


@pytest.mark.parametrize("q", [5, 9, 13])
def test_paley3_not_proper_when_q_is_1_mod_4(q):
    # order q+1 = 2 (mod 4): no 2-D Hadamard matrix of that order exists
    F = Field(q)
    cube = paley3(F)
    assert not is_proper(cube).passed
    assert layer(cube, {2: 0}) == paley2(F)  # fixing z = infinity


# -- product construction ---------------------------------------------------------

H2 = SignCube(2, 2, [1, 1, 1, -1])


def test_yang_dim2_is_identity():
    h = paley2(Field(7))
    assert yang_product(h, 2) == h


def test_yang_order2_entry():
    cube = yang_product(H2, 3)
    assert cube.get((1, 1, 1)) == -1  # (-1)^3


def test_yang_entries_match_pairwise_products():
    h = paley2(Field(3))
    cube = yang_product(h, 3)
    for idx in np.ndindex(4, 4, 4):
        expected = 1
        for j in range(3):
            for k in range(j + 1, 3):
                expected *= h.get((idx[j], idx[k]))
        assert cube.get(idx) == expected


@pytest.mark.parametrize("q", [3, 7])
def test_yang_output_is_proper(q):
    assert is_proper(yang_product(paley2(Field(q)), 3)).passed


def test_yang_rejects_bad_input():
    with pytest.raises(NotHadamardInput):
        yang_product(SignCube(2, 4, [1] * 16), 3)
    with pytest.raises(DimensionMismatch):
        yang_product(yang_product(H2, 3), 3)
    with pytest.raises(DimensionTooSmall):
        yang_product(H2, 1)
    with pytest.raises(DimensionTooSmall):
        almost_cube(Field(3), 1)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: almost_cube(Field(3), 2.5), id="almost-float"),
    pytest.param(lambda: almost_cube(Field(3), True), id="almost-bool"),
    pytest.param(lambda: almost_cube(Field(3), None), id="almost-none"),
    pytest.param(lambda: yang_product(H2, 3.0), id="product-float"),
    pytest.param(lambda: yang_product(H2, "3"), id="product-str"),
    pytest.param(lambda: yang_product(H2, np.True_), id="product-numpy-bool"),
])
def test_constructions_refuse_a_dim_that_is_not_an_integer(build):
    """dim is read by operator.index, never from a bool, and refused with
    a typed error before any size is computed: a float used to end in a
    TypeError from the size guard, and a str in one from the comparison."""
    with pytest.raises(DimensionTooSmall, match="is not an integer"):
        build()


def test_constructions_take_numpy_integer_dims_and_refuse_a_bool_chi0():
    F = Field(3)
    assert yang_product(H2, np.int64(3)) == yang_product(H2, 3)
    assert almost_cube(F, np.int8(3), chi0=np.int8(1)) == almost_cube(F, 3, chi0=1)
    # True used to be taken as +1, and 1.0 and np.float64(-1) as signs
    for chi0 in (True, False, np.True_, 0, 2, 1.0, -1.0, np.float64(1), "1", None):
        with pytest.raises(ValueError, match="chi0 must be"):
            almost_cube(F, 3, chi0=chi0)


def test_size_guard_refuses_before_allocating():
    # 2**60 and 2**70 entries; 4**40 for almost_cube at q = 3
    for build in (lambda: yang_product(H2, 60), lambda: yang_product(H2, 70),
                  lambda: almost_cube(Field(3), 40)):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                build()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
    one = SignCube(2, 1, [1])  # order 1 stays under the entry cap at any dimension
    with pytest.raises(TooLarge):
        yang_product(one, 33)
    assert yang_product(one, 32).n == 32


def test_size_guard_boundary(monkeypatch):
    """The cap admits exactly MAX_ENTRIES entries."""
    h = paley2(Field(7))  # v = 8
    monkeypatch.setattr(constructions, "MAX_ENTRIES", 8**3)
    assert yang_product(h, 3).n == 3
    assert dim_lift(h).n == 3
    assert almost_cube(Field(7), 3).n == 3
    assert paley3(Field(7)).n == 3
    monkeypatch.setattr(constructions, "MAX_ENTRIES", 8**3 - 1)
    for build in (lambda: yang_product(h, 3), lambda: dim_lift(h),
                  lambda: almost_cube(Field(7), 3), lambda: paley3(Field(7))):
        with pytest.raises(TooLarge):
            build()
    monkeypatch.setattr(constructions, "MAX_ENTRIES", 8**2)
    assert paley2(Field(7)).n == 2
    monkeypatch.setattr(constructions, "MAX_ENTRIES", 8**2 - 1)

    def no_form(self, signs, at_zero):
        raise AssertionError("character view built before the size check")

    monkeypatch.setattr(Field, "_chi_form", no_form)
    for build in (paley2, paley3):
        with pytest.raises(TooLarge):
            build(Field(7))
    with pytest.raises(TooLarge):
        almost_cube(Field(7), 2)


# -- dimension lift ----------------------------------------------------------------

def test_lift_small_hadamard():
    lifted = dim_lift(H2)
    assert lifted.n == 3 and lifted.v == 2
    assert is_hadamard(lifted).passed
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert lifted.get((i, j, k)) == H2.get((i, (j + k) % 2))


def test_lift_of_paley3():
    lifted = dim_lift(paley3(Field(5)))
    assert lifted.n == 4 and lifted.v == 6
    assert is_hadamard(lifted).passed


def test_lift_does_not_preserve_propriety():
    lifted = dim_lift(yang_product(paley2(Field(3)), 3))
    assert is_hadamard(lifted).passed
    # propriety is not implied; the observed outcome for this input is a failure
    assert not is_proper(lifted).passed


SYLVESTER4 = SignCube(2, 4, [1, 1, 1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, -1, -1, 1])


@pytest.mark.parametrize("build", [
    pytest.param(lambda: paley2(Field(27)), id="paley2-27"),
    pytest.param(lambda: paley3(Field(9)), id="paley3-9"),
    pytest.param(lambda: SYLVESTER4, id="sylvester4-2d"),
    pytest.param(lambda: yang_product(SYLVESTER4, 3), id="sylvester4-3d"),
])
def test_lift_reads_the_last_coordinate_as_a_sum_mod_v(build):
    h = build()
    v = h.v
    y, z = np.arange(v)[:, None], np.arange(v)
    lifted = dim_lift(h)
    assert lifted.n == h.n + 1 and lifted.v == v
    assert np.array_equal(lifted.array, h.array[..., (y + z) % v])


def test_lift_rejects_non_hadamard():
    with pytest.raises(NotHadamardInput):
        dim_lift(SignCube(2, 4, [1] * 16))


# -- coordinate-sum cube (negative control) ------------------------------------------

def oracle_almost_array(F, dim, chi0):
    """almost_cube's definition as an array, from tables of the scalar
    Field.add and Field.chi: +1 on the infinity slabs, and the character of
    the coordinate sum, or chi0 where it is 0, in the finite core."""
    add = np.array([[F.add(a, b) for b in F.elems] for a in F.elems])
    chi = np.array([chi0] + [F.chi(a) for a in range(1, F.q)])
    total = np.zeros((), dtype=int)
    for _ in range(dim):
        total = add[total[..., None], np.arange(F.q)]
    want = np.ones((F.q + 1,) * dim, dtype=np.int8)
    want[(slice(1, None),) * dim] = chi[total]
    return want


def test_almost_cube_matches_scalar_oracle():
    F = Field(5)
    cube = almost_cube(F, 3)
    for (x, y, z), val in oracle_almost(F).items():
        assert cube.get((pg(x), pg(y), pg(z))) == val
    for q in (5, 9, 25, 27):
        F = Field(q)
        for dim in (2, 3, 4):
            for chi0 in (-1, 1):
                want = oracle_almost_array(F, dim, chi0)
                assert np.array_equal(almost_cube(F, dim, chi0=chi0).array, want), (q, dim, chi0)


def test_almost_cube_2d_is_hadamard_for_q3():
    assert is_hadamard(almost_cube(Field(3), 2)).passed


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_almost_cube_3d_fails(q):
    rep = is_hadamard(almost_cube(Field(q), 3))
    assert not rep.passed
    assert rep.axis == 0 and rep.pair == (0, 1)
    assert rep.deviation == q + 1


def test_almost_cube_chi0_flips_zero_sum_cells():
    F = Field(5)
    minus, plus = almost_cube(F, 2, chi0=-1), almost_cube(F, 2, chi0=1)
    for x in F.elems:
        for y in F.elems:
            expected = 2 if F.add(x, y) == 0 else 0
            assert plus.get((pg(x), pg(y))) - minus.get((pg(x), pg(y))) == expected


def layer_dichotomy_violations(H):
    """2-D layers that are neither Hadamard nor all-ones."""
    bad = []
    for axis in range(H.n):
        for val in range(H.v):
            sl = layer(H, {axis: val})
            if not (np.all(sl.data == 1) or is_hadamard(sl).passed):
                bad.append((axis, val))
    return bad


@pytest.mark.parametrize("q", [3, 7])
def test_almost_cube_layer_dichotomy_q_3_mod_4(q):
    assert layer_dichotomy_violations(almost_cube(Field(q), 3)) == []


@pytest.mark.parametrize("q", [5, 9])
def test_almost_cube_layer_dichotomy_breaks_q_1_mod_4(q):
    # chi(-1) = +1 makes the finite-fixed layers non-orthogonal, so the
    # Hadamard-or-all-ones dichotomy only holds for q = 3 (mod 4): every
    # finite-fixed layer violates it, and no infinity-fixed layer does
    bad = layer_dichotomy_violations(almost_cube(Field(q), 3))
    assert set(bad) == {(axis, val) for axis in range(3) for val in range(1, q + 1)}
