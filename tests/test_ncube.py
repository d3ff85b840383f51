import collections
import concurrent.futures
import hashlib
import io
import itertools
import json
import math
import functools
import os
import random
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hdmkit import ncube
from hdmkit.constructions import almost_cube, dim_lift, paley2, paley3, yang_product
from hdmkit.errors import (
    DimensionTooSmall,
    EmptyFix,
    FullFix,
    IndexOutOfRange,
    ParseError,
    ShapeMismatch,
    TooLarge,
)
from hdmkit.gf import Field
from hdmkit.ncube import (
    SignCube,
    VerifyReport,
    is_hadamard,
    is_hadamard_naive,
    is_proper,
    layer,
    parse,
    read,
    serialize,
    write,
)
from hdmkit.projline import psl_generators
from hdmkit.symmetry import check_cyclic, check_permutation_invariance, check_psl_invariance

PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"
# ncube._BUDGET values for the multi-block paths: one row, column or layer
# per block, a few, and the default
BUDGETS = (1, 256, 1 << 20)

H2 = SignCube(2, 2, [1, 1, 1, -1])
SYL4 = SignCube(2, 4, np.kron(H2.array, H2.array))
SYL16 = SignCube(2, 16, np.kron(SYL4.array, SYL4.array))


def product_cube(h: SignCube, dim: int) -> SignCube:
    """In-test oracle: entrywise product of h over all coordinate pairs."""
    v = h.v
    out = np.ones((v,) * dim, dtype=np.int8)
    for idx in np.ndindex(*out.shape):
        val = 1
        for j in range(dim):
            for k in range(j + 1, dim):
                val *= h.get((idx[j], idx[k]))
        out[idx] = val
    return SignCube(dim, v, out)


def random_cube(rng: random.Random, n: int, v: int) -> SignCube:
    return SignCube(n, v, [rng.choice((1, -1)) for _ in range(v**n)])


# -- container ------------------------------------------------------------------

def test_cube_new_and_get():
    c = SignCube(2, 2, [1, 1, 1, -1])
    assert c.get((1, 1)) == -1
    assert c.get((0, 1)) == 1
    assert c.get((np.int64(1), np.int32(1))) == -1


def test_get_out_of_range():
    c = SignCube(2, 2, [1, 1, 1, -1])
    with pytest.raises(IndexOutOfRange):
        c.get((0, 2))
    with pytest.raises(IndexOutOfRange):
        c.get((0, -1))
    with pytest.raises(IndexOutOfRange):
        c.get((0,))


def test_get_refuses_a_bare_integer():
    """get takes a sequence of n indices: a bare integer, which used to end
    in a bare TypeError, is IndexOutOfRange, as is a 1-D cube's."""
    for c in (SignCube(2, 2, [1, 1, 1, -1]), SignCube(1, 3, [1, -1, 1])):
        for idx in (5, 1, np.int64(1)):
            with pytest.raises(IndexOutOfRange, match="expected a sequence of"):
                c.get(idx)
    assert SignCube(1, 3, [1, -1, 1]).get([1]) == -1


C3 = SignCube(3, 3, [1] * 27)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: C3.get((0.5, 0, 0)), id="get-float"),
    pytest.param(lambda: C3.get((True, 0, 0)), id="get-bool"),
    pytest.param(lambda: layer(C3, {0.5: 1}), id="layer-float-position"),
    pytest.param(lambda: layer(C3, {0: 1.5}), id="layer-float-value"),
])
def test_non_integer_indices_are_out_of_range(call):
    """get and layer check each index through one gate, as Field does:
    operator.index, then the range, else IndexOutOfRange; a bool is not
    read as 0 or 1."""
    with pytest.raises(IndexOutOfRange, match="is not an integer in"):
        call()


def test_cube_new_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        SignCube(3, 2, [1] * 7)


@pytest.mark.parametrize("entries", [
    pytest.param([1, 1, 0, -1], id="zero"),
    pytest.param([1, 1, 1, -1.5], id="float-below"),
    pytest.param([1, 1, 1, 1.5], id="float-above"),
    pytest.param(np.array([1, 1, 1, 255]), id="int64-255"),
    pytest.param(np.array([1, -1, 1, 257]), id="int64-257"),
    pytest.param(np.array([1, 1, 1, 255], dtype=np.uint8), id="uint8-255"),
    pytest.param(np.array([1., -1., 1., -1.9]), id="float-array"),
    pytest.param(np.array([1., 1., 1., -1.]), id="float-exact"),
    pytest.param(np.ones(4, bool), id="bool"),
    pytest.param(["1", "1", "1", "-1"], id="strings"),
])
def test_cube_new_rejects_bad_entries(entries):
    """Entries are checked as given, before the int8 cast, so no value
    wraps or truncates onto ±1; only integer arrays are accepted."""
    with pytest.raises(ValueError):
        SignCube(2, 2, entries)


@pytest.mark.parametrize("n,v,entries,error", [
    # 4**32 wrapped to 0 in int64, so no entries passed as a whole cube
    pytest.param(np.int64(32), np.int64(4), np.zeros(0, np.int8),
                 "expected 18446744073709551616 entries, got 0", id="int64-power"),
    pytest.param(3.0, 2, np.ones(8, np.int8), "need integers", id="float-n"),
    pytest.param(True, 2, np.ones(2, np.int8), "need integers", id="bool-n"),
])
def test_cube_new_reads_n_and_v_as_python_ints(n, v, entries, error):
    """n and v are read as Python ints by the package's integer rule
    before v**n is computed; anything else is refused with ValueError,
    as bad entries are.  The int64 cube used to be accepted, and its
    is_hadamard raised ZeroDivisionError; 3.0 and True failed later, with
    TypeError or DimensionTooSmall."""
    with pytest.raises(ValueError, match=error):
        SignCube(n, v, entries)
    c = SignCube(np.int64(2), np.uint8(2), [1, 1, 1, -1])
    assert (type(c.n), type(c.v)) == (int, int) and c == H2


@pytest.mark.parametrize("budget", BUDGETS)
def test_entry_check_refuses_every_int8_but_plus_and_minus_one(budget, monkeypatch):
    """An int8 cube is checked in one slab walk, (x + 1) & ~2 == 0 as
    uint8: each of the 256 values is placed first and last in a cube of
    65**2 entries, past the first 4 KiB slab, and only +1 and -1 pass,
    through the constructor and through _adopt alike."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    for x in range(-128, 128):
        for at in (0, 65**2 - 1):
            arr = np.ones(65**2, dtype=np.int8)
            arr[at] = x
            for make in (SignCube, SignCube._adopt):
                if x in (1, -1):
                    assert make(2, 65, arr.copy()).get(divmod(at, 65)) == x
                else:
                    with pytest.raises(ValueError, match="entries must be"):
                        make(2, 65, arr.copy())


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint16, np.uint8])
def test_entry_check_is_exact_for_wider_dtypes(dtype):
    """Values that wrap onto +1 or -1 as int8 (127 * 127, 255, 257, -255,
    -257) or onto 0 (256) are refused as given, before any cast."""
    info = np.iinfo(dtype)
    for x in (127, -127, 255, 256, 257, -255, -257, 129, 0):
        if not info.min <= x <= info.max:
            continue
        with pytest.raises(ValueError, match="entries must be"):
            SignCube(2, 2, np.array([1, 1, 1, x], dtype=dtype))
    ok = np.array([1, 1, 1, 1], dtype=dtype)
    assert SignCube(2, 2, ok) == SignCube(2, 2, [1] * 4)


def test_cube_new_accepts_integer_lists_arrays_and_views():
    ref = SignCube(2, 2, [1, -1, 1, 1])
    m = np.array([[1, 1], [-1, 1]])
    for entries in ([[1, -1], [1, 1]], np.array([1, -1, 1, 1], dtype=np.int8),
                    np.array([1, -1, 1, 1], dtype=np.int32), m.T,
                    np.array([1, 9, -1, 9, 1, 9, 1, 9])[::2]):
        c = SignCube(2, 2, entries)
        assert c == ref and c.data.dtype == np.int8
    assert SignCube(2, 2, np.broadcast_to(np.array([1, -1]), (2, 2))) == \
        SignCube(2, 2, [1, -1, 1, -1])


def test_cube_axis_cap():
    with pytest.raises(TooLarge):
        SignCube(ncube.MAX_AXES + 1, 1, [1])
    c = SignCube(ncube.MAX_AXES, 1, [1])
    assert parse(serialize(c)) == c


def test_constructor_copies_once_and_adopt_does_not_copy():
    """An integer array is checked as given and copied once, as int8: an
    int64 input used to be copied in its own dtype first (9.0x the cube)."""
    cube = paley3(Field(127))
    for dtype in (np.int8, np.int16, np.int64):
        arr = cube.array.astype(dtype)
        assert traced_peak(SignCube, 3, 128, arr) <= 1.5 * cube.data.nbytes, dtype
        assert not np.shares_memory(SignCube(3, 128, arr).data, arr)
        assert SignCube(3, 128, arr) == cube
    arr = cube.array.copy()
    assert np.shares_memory(SignCube._adopt(3, 128, arr).data, arr)


def test_data_is_immutable():
    """The record of relabelling verdicts (ncube._decide) holds only while
    the entries cannot change: no cube, built or adopted, takes a write."""
    for c in (SignCube(2, 2, [1, 1, 1, -1]), paley3(Field(7))):
        with pytest.raises(ValueError):
            c.data[0] = -1
        with pytest.raises(ValueError):
            c.array[(0,) * c.n] = -1


def test_constructor_starts_without_candidates_or_verdicts():
    """SignCube(...) copies its input and starts with an empty record,
    whatever cube its entries come from: no verdict carries over from a
    cube that was verified, and no cube brings relabellings of its own."""
    src = paley3(Field(7))
    assert is_hadamard(src).passed and src._fixed
    for entries in (src.array, src.data, src.array.astype(np.int64)):
        c = SignCube(3, 8, entries)
        assert not np.shares_memory(c.data, entries)
        assert c == src and c._fixed == {}


def test_the_affine_group_fixes_paley_cubes_and_their_products_only(tmp_path):
    """_affine_fixes, B = <the digit translations, x -> g^2 x>, accepts
    the Paley cubes over a prime field and over GF(9), GF(25) and GF(27),
    and their products, however they reach a verifier: built, written and
    read back, parsed, sliced by layer at z = infinity, or copied by
    SignCube(...).  It rejects lifts, almost cubes and the products of a
    Sylvester matrix, and, without a compare, the product of the
    Sylvester matrix of order 16 and every cube of order 1 or 2, whose
    order minus one is not an odd prime power."""
    h, cube = paley2(Field(7)), paley3(Field(7))
    with open(tmp_path / "c.hdm", "wb") as f:
        write(cube, f)
    with open(tmp_path / "c.hdm", "rb") as f:
        from_file = read(f)
    accepted = [h, cube, paley3(Field(13)), yang_product(h, 4),
                yang_product(paley2(Field(11)), 3), from_file, parse(serialize(cube)),
                layer(cube, {2: 0}), SignCube(3, 8, cube.array), paley3(Field(9)),
                paley2(Field(27)), paley3(Field(27)), paley3(Field(25)),
                yang_product(paley2(Field(27)), 3)]
    rejected = [dim_lift(h), dim_lift(cube), dim_lift(paley3(Field(9))),
                almost_cube(Field(7), 3), almost_cube(Field(25), 3), yang_product(SYL4, 3)]
    assert all(ncube._affine_fixes(c) for c in accepted)
    assert not any(ncube._affine_fixes(c) for c in rejected)
    small = [H2, product_cube(H2, 3), SignCube(2, 1, [1]), SignCube(3, 1, [-1]),
             SYL16, yang_product(SYL16, 3)]
    assert not any(ncube._affine_fixes(c) or c._fixed for c in small)


def test_memo_holds_small_boolean_verdicts():
    """A cube's record holds a bool under each of the four names it has
    decided, and nothing else: paley3(GF(13)) after the verifiers and the
    symmetry checks holds B, the rotation and PSL (no check reaches the
    mirror), the product of paley2(GF(11)) in 5 dimensions B, the mirror
    and the rotation, and a user permutation adds nothing."""
    F = Field(13)
    cube = paley3(F)
    assert is_hadamard(cube).passed and not is_proper(cube).passed
    assert check_psl_invariance(cube, F) and check_cyclic(cube)
    assert check_permutation_invariance(cube, psl_generators(F)[0].perm())
    assert cube._fixed == {"B": True, "rotation": True, "psl": True}
    product = yang_product(paley2(Field(11)), 5)
    assert is_hadamard(product).passed and is_proper(product).passed
    assert product._fixed == {"B": True, "mirror": True, "rotation": False}
    for verdict in (*cube._fixed.values(), *product._fixed.values()):
        assert type(verdict) is bool


def test_flat_order_last_index_fastest():
    c = SignCube(3, 2, [1, -1, 1, 1, 1, 1, 1, 1])
    assert c.get((0, 0, 1)) == -1  # offset 1


# -- layer ------------------------------------------------------------------------

def test_layer_fixes_one_coordinate():
    c = product_cube(H2, 3)
    sl = layer(c, {2: 1})
    assert sl.n == 2 and sl.v == 2
    assert layer(c, {np.int64(2): np.int32(1)}) == sl
    for i in range(2):
        for j in range(2):
            assert sl.get((i, j)) == c.get((i, j, 1))


def test_layer_composition():
    c = product_cube(SYL4, 3)
    assert layer(layer(c, {2: 3}), {1: 2}) == layer(c, {1: 2, 2: 3})


def test_layer_rejections():
    c = product_cube(H2, 3)
    with pytest.raises(EmptyFix):
        layer(c, {})
    with pytest.raises(FullFix):
        layer(c, {0: 0, 1: 0, 2: 0})
    with pytest.raises(IndexOutOfRange):
        layer(c, {3: 0})
    with pytest.raises(IndexOutOfRange):
        layer(c, {0: 5})


# -- verifier -----------------------------------------------------------------------

def test_all_ones_cube_fails_with_full_deviation():
    c = SignCube(3, 2, [1] * 8)
    rep = is_hadamard(c)
    assert not rep.passed
    assert rep.axis == 0 and rep.pair == (0, 1)
    assert rep.deviation == 4  # v**(n-1)
    assert rep.checked_pairs == 1


def test_small_hadamard_passes():
    assert is_hadamard(H2).passed
    assert is_hadamard(SYL4).passed
    assert is_hadamard(product_cube(SYL4, 3)).passed


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        is_hadamard(SignCube(1, 4, [1, 1, -1, -1]))
    with pytest.raises(DimensionTooSmall):
        is_proper(SignCube(1, 4, [1, 1, -1, -1]))
    with pytest.raises(DimensionTooSmall):
        is_hadamard_naive(SignCube(1, 4, [1, 1, -1, -1]))


def test_diagonal_inner_product_is_full():
    # the skipped a == b case: every summand is +1
    for cube in (H2, SYL4, product_cube(H2, 3)):
        m = cube.v ** (cube.n - 1)
        flat = cube.array.reshape(cube.v, -1)
        for a in range(cube.v):
            row = flat[a].tolist()
            assert sum(x * x for x in row) == m == len(row)


def test_is_proper_equals_is_hadamard_for_2d():
    rng = random.Random(7)
    cubes = [H2, SYL4] + [random_cube(rng, 2, v) for v in (2, 4, 6) for _ in range(5)]
    for c in cubes:
        assert is_proper(c) == is_hadamard(c)


def test_proper_product_cube():
    rep = is_proper(product_cube(SYL4, 3))
    assert rep.passed


def test_classical_two_dim_check_agrees():
    # oracle: all row pairs and all column pairs orthogonal
    def classical(c):
        mat = c.array
        v = c.v
        for a in range(v):
            for b in range(a + 1, v):
                if int(mat[a] @ mat[b]) != 0 or int(mat[:, a] @ mat[:, b]) != 0:
                    return False
        return True

    rng = random.Random(11)
    cubes = [H2, SYL4, SignCube(2, 4, [1] * 16)]
    cubes += [random_cube(rng, 2, v) for v in (2, 4, 8) for _ in range(10)]
    for c in cubes:
        assert is_hadamard(c).passed == classical(c)


def test_relabelling_preserves_verdict():
    rng = random.Random(3)
    cubes = [product_cube(SYL4, 3), SignCube(3, 2, [1] * 8),
             random_cube(rng, 3, 4)]
    for c in cubes:
        verdict = is_hadamard(c).passed
        arr = c.array
        for axis in range(c.n):
            perm = list(range(c.v))
            rng.shuffle(perm)
            relabelled = SignCube(c.n, c.v, np.take(arr, perm, axis=axis))
            assert is_hadamard(relabelled).passed == verdict


def test_naive_and_packed_reports_identical():
    rng = random.Random(20240)
    cubes = [H2, SYL4, product_cube(H2, 3), product_cube(SYL4, 3),
             SignCube(3, 2, [1] * 8)]
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        v = rng.choice((2, 4, 6, 8))
        cubes.append(random_cube(rng, n, v))
    for c in cubes:
        assert is_hadamard(c) == is_hadamard_naive(c)


def proper_oracle(c: SignCube) -> VerifyReport:
    """is_proper's contract layer by layer: is_hadamard_naive on every 2-D
    layer in scan order, which checks rows and then columns."""
    checked, per_layer = 0, c.v * (c.v - 1)
    for j1, j2 in itertools.combinations(range(c.n), 2):
        others = [ax for ax in range(c.n) if ax not in (j1, j2)]
        for vals in itertools.product(range(c.v), repeat=len(others)):
            rep = is_hadamard_naive(layer(c, dict(zip(others, vals))) if others else c)
            if not rep.passed:
                return VerifyReport(False, axis=(j1, j2)[rep.axis], pair=rep.pair,
                                    deviation=rep.deviation,
                                    checked_pairs=checked + rep.checked_pairs)
            checked += per_layer
    return VerifyReport(passed=True, checked_pairs=checked)


# is_proper takes 2-D layers in chunks of 1, 2, 4, 8, ... starting at
# layers 0, 1, 3, 7, 15: flips go on both sides of each boundary.
CHUNK_EDGES = (0, 1, 2, 3, 6, 7, 14, 15)


def flip_in_layer(c: SignCube, index: int, rng: random.Random) -> SignCube:
    """c with one seeded entry negated in the index-th 2-D layer of the
    first free-axis pair (0, 1)."""
    d = c.data.copy()
    d[(rng.randrange(c.v) * c.v + rng.randrange(c.v)) * c.v ** (c.n - 2) + index] *= -1
    return SignCube(c.n, c.v, d)


@pytest.mark.parametrize("budget", [None, 3000], ids=["budget-default", "budget-3000"])
def test_verifiers_match_oracles_on_adversarial_cubes(budget, monkeypatch):
    """One flipped entry of a valid cube makes is_hadamard fail at axis 0,
    and is_proper in the row pass of the pair-(0, 1) layer holding it,
    whatever the seed; that layer sits at each chunk edge here.  Later axis
    pairs and axes are reached by Hadamard cubes whose earlier layers pass.
    No cube fails first in a column pass: a square ±1 matrix with orthogonal
    rows also has orthogonal columns.  The small budget makes is_proper
    take at most a few layers per chunk and is_hadamard many column blocks.
    """
    if budget is not None:
        monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = random.Random(20261018)
    valid = [paley3(Field(q)) for q in (7, 11, 19)]
    valid += [yang_product(paley2(Field(7)), 4), yang_product(paley2(Field(3)), 5)]
    for c in valid:
        layers = c.v ** (c.n - 2)
        for index in sorted({i for i in CHUNK_EDGES if i < layers} | {layers - 1}):
            bad = flip_in_layer(c, index, rng)
            rep = is_proper(bad)
            assert rep == proper_oracle(bad)
            assert rep.axis == 0 and (rep.checked_pairs - 1) // (c.v * (c.v - 1)) == index
            assert type(rep.deviation) is int
            rep = is_hadamard(bad)
            assert rep == is_hadamard_naive(bad)
            assert rep.axis == 0 and type(rep.deviation) is int
    h = paley2(Field(7)).array
    later = [dim_lift(paley2(Field(7))), dim_lift(paley3(Field(7))),
             SignCube(3, 8, np.broadcast_to(h[:, None, :], (8, 8, 8)))]
    proper_reps = [is_proper(c) for c in later]
    assert proper_reps == [proper_oracle(c) for c in later]
    assert [r.axis for r in proper_reps] == [1, 2, 0]
    hadamard_reps = [is_hadamard(c) for c in later]
    assert hadamard_reps == [is_hadamard_naive(c) for c in later]
    assert [r.axis for r in hadamard_reps] == [None, None, 1]


@pytest.mark.parametrize("budget", BUDGETS)
def test_verifiers_match_oracles_at_shrunken_budgets(budget, monkeypatch):
    """is_hadamard and is_proper against is_hadamard_naive and the
    layerwise oracle, with the column blocks and layer chunks cut down to
    one column or layer at budget 1: paley3 for q <= 23 (proper only for
    q = 3 mod 4) with and without one flipped entry, products and random
    cubes."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = random.Random(budget)
    cubes = []
    for q in (3, 5, 7, 9, 11, 13, 19, 23):
        c = paley3(Field(q))
        cubes += [c, flip_in_layer(c, rng.randrange(c.v), rng)]
    cubes += [yang_product(paley2(Field(3)), 4), yang_product(SYL4, 3),
              dim_lift(paley2(Field(7)))]
    cubes += [random_cube(rng, n, v) for n, v in ((2, 6), (3, 4), (4, 3))]
    for c in cubes:
        assert is_hadamard(c) == is_hadamard_naive(c)
        assert is_proper(c) == proper_oracle(c)


def column_signs(t: np.ndarray) -> SignCube:
    """The 3-cube S[i, j] * t[j, k] over SYL4 = S: axes 0 and 1 pass
    (S's rows and columns are orthogonal), and layers k = a, b of axis 2
    have inner product 4 * (t's columns a and b)."""
    return SignCube(3, 4, SYL4.array[:, :, None] * t[None, :, :])


@pytest.mark.parametrize("budget", BUDGETS)
def test_first_violation_on_the_last_axis(budget, monkeypatch):
    """Cubes that pass every axis but the last, whose Gram matrix is read
    from blocks of the cube's contiguous rows: one row per block at budget
    1, several at 256, all at the default."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    g = np.array([1, -1, 1, 1], dtype=np.int8)
    t = SYL4.array.copy()
    t[:, 3] = -t[:, 2]  # columns 2 and 3 opposite, every other pair orthogonal
    cases = [
        (SignCube(3, 4, SYL4.array[:, :, None] * g), 2, (0, 1), -16, 13),
        (SignCube(4, 4, yang_product(SYL4, 3).array[..., None] * g), 3, (0, 1), -64, 19),
        (column_signs(t), 2, (2, 3), -16, 18),
    ]
    for c, axis, pair, dev, checked in cases:
        rep = is_hadamard(c)
        assert rep == is_hadamard_naive(c)
        assert rep == VerifyReport(False, axis=axis, pair=pair, deviation=dev,
                                   checked_pairs=checked)
        assert type(rep.deviation) is int
    assert is_hadamard(column_signs(SYL4.array)) == VerifyReport(True, checked_pairs=18)


def test_two_dimensional_cube_is_checked_on_its_rows_only(monkeypatch):
    """is_hadamard scans one Gram matrix for a 2-D cube: its columns are
    orthogonal once its rows are.  The report counts both axes' pairs.
    paley2(GF(7)) is fixed by B, so that matrix is the head layers 0-2
    of axis 0."""
    calls = []
    scan = ncube._scan
    monkeypatch.setattr(ncube, "_scan",
                        lambda mats, **kw: calls.append(mats.shape) or scan(mats, **kw))
    assert is_hadamard(paley2(Field(7))) == VerifyReport(True, checked_pairs=2 * 8 * 7 // 2)
    assert calls == [(1, 3, 1, 8)]  # axis 0 only
    del calls[:]
    assert is_hadamard(SYL16) == VerifyReport(True, checked_pairs=2 * 16 * 15 // 2)
    assert calls == [(1, 16, 1, 16)] * 2  # the probe, then axis 0 whole


def ring_product(h: SignCube, n: int) -> SignCube:
    """H(x) = prod_j h[x_j, x_(j+1 mod n)], fixed by the rotation of its
    coordinates when h is symmetric.  For n = 3 every pair of axes is
    adjacent in the ring, so it is yang_product(h, 3); for n >= 4 over
    SYL4 it is Hadamard but not proper, failing first in pair (0, 2)."""
    out = np.ones((h.v,) * n, dtype=np.int8)
    for j in range(n):
        k = (j + 1) % n
        shape = [1] * n
        shape[j] = shape[k] = h.v
        out = out * (h.array if j < k else h.array.T).reshape(shape)
    return SignCube(n, h.v, out)


def rotation_invariant_cube(rng: np.random.Generator, n: int, v: int) -> SignCube:
    """A random cube fixed by the rotation of its coordinates: each entry is
    a seeded sign read at the first flat index of its rotation orbit."""
    idx = np.indices((v,) * n).reshape(n, -1)
    weights = v ** np.arange(n - 1, -1, -1)
    first = np.min([weights @ np.roll(idx, k, axis=0) for k in range(n)], axis=0)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=v**n)
    return SignCube(n, v, signs[first])


@pytest.mark.parametrize("budget", BUDGETS)
def test_verifiers_match_oracles_on_rotation_invariant_cubes(budget, monkeypatch):
    """Cubes fixed by the rotation of their coordinates, which the verifiers
    check on axis 0 and on the pairs (0, d), d <= n // 2, alone once those
    pass: ring and pairwise products of the symmetric SYL4, paley3 for
    q = 1 (mod 4), which is Hadamard but not proper, and random invariant
    cubes, some of which pass."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    cubes = [ring_product(SYL4, n) for n in range(3, 7)]
    cubes += [yang_product(SYL4, 4), yang_product(SYL4, 5)]
    cubes += [paley3(Field(q)) for q in (5, 9, 13)]
    rng = np.random.default_rng(20261019)
    cubes += [rotation_invariant_cube(rng, int(rng.choice([3, 4])), int(rng.choice([2, 3, 4])))
              for _ in range(200)]
    passed = set()
    for c in cubes:
        assert ncube._rotation_fixes(c)
        hadamard, proper = is_hadamard(c), is_proper(c)
        assert hadamard == is_hadamard_naive(c)
        assert proper == proper_oracle(c)
        passed.add((hadamard.passed, proper.passed))
    assert passed == {(True, True), (True, False), (False, False)}
    assert is_proper(ring_product(SYL4, 4)) == VerifyReport(False, 0, (0, 1), 4, 193)


def scan_counts(monkeypatch, check, cube) -> tuple[int, int]:
    """(_scan calls, rotation tests) made by check(cube)."""
    scans, rotations = [], []
    scan, fixes = ncube._scan, ncube._rotation_fixes
    monkeypatch.setattr(ncube, "_scan", lambda mats, **kw: scans.append(1) or scan(mats, **kw))
    monkeypatch.setattr(ncube, "_rotation_fixes",
                        lambda H: rotations.append(1) or fixes(H))
    check(cube)
    monkeypatch.undo()
    return len(scans), len(rotations)


def test_rotation_invariant_cubes_are_scanned_once_per_orbit(monkeypatch):
    """A cube fixed by the rotation is scanned on one axis and on the pairs
    (0, 1) ... (0, n // 2); any other cube on every axis and pair.  The
    rotation is tested once, and only after those first families pass:
    a cube that fails earlier does no more than the scan up to it.  At a
    prime order v - 1, is_hadamard scans the head layers of axis 0 first;
    a cube that the shift does not fix then scans the two-row prefix of
    axis 0 and that axis whole: two scans more than the families on the
    Sylvester product (v = 4) and the lift, and one more on the flip,
    whose violation lies outside the head layers and inside the prefix.
    Once is_hadamard has kept that verdict, is_proper scans its pairs
    whole with no prefix (the Sylvester product, the flip and the lift).
    The other cubes are fixed by B, whose head layers and canonical layers
    stand for the whole axis or pair, or fail at (0, 1) of the head layers
    or in the first layer.  The skew product is also fixed by the mirror
    x -> -x with the coordinates reversed, so it is scanned on axes 0 and 1
    and on the 4 pairs (j1, j2) with j1 + j2 <= 3."""
    F = Field(7)
    skew = yang_product(paley2(F), 4)  # paley2(GF(7)) is not symmetric
    assert not ncube._rotation_fixes(skew)
    flipped = flip_in_layer(paley3(F), 3, random.Random(7))
    cases = [
        (paley3(F), (1, 1), (1, 1)),
        (yang_product(SYL4, 4), (3, 1), (2, 1)),
        (skew, (2, 1), (4, 1)),
        (flipped, (2, 0), (1, 0)),
        (almost_cube(F, 4), (1, 0), (1, 0)),
        (dim_lift(paley3(F)), (6, 1), (6, 1)),
    ]
    for cube, hadamard, proper in cases:
        assert scan_counts(monkeypatch, is_hadamard, cube) == hadamard
        assert scan_counts(monkeypatch, is_proper, cube) == proper


# -- the shift x -> x + 1 ------------------------------------------------------------

PRIMES_LE_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def shift(v: int) -> tuple:
    """x -> x + 1 on PG(1, v - 1), infinity first: the relabelling that the
    verifiers test on every cube of order v > 2."""
    return (0, *range(2, v), 1)


def cube_of(key: tuple) -> SignCube:
    kind, q, *dim = key
    if kind == "lift":
        return dim_lift(paley3(Field(q)))
    return paley3(Field(q)) if kind == "paley3" else yang_product(paley2(Field(q)), *dim)


@functools.cache
def oracle_reports(key: tuple) -> tuple:
    """(is_hadamard_naive, proper_oracle) of cube_of(key), computed once
    for all budgets."""
    c = cube_of(key)
    return is_hadamard_naive(c), proper_oracle(c)


def view_axes(src: np.ndarray, dst: np.ndarray):
    """The axes of src that dst, a view of src's shape, reads in order,
    from their strides; None when dst lies as src does.  A coordinate
    permutation is compared against src.transpose(axes)."""
    axes = tuple(src.strides.index(s) for s in dst.strides)
    return None if axes == tuple(range(src.ndim)) else axes


def relabel_calls(monkeypatch, keywords=None) -> list:
    """Appends the (axes, perm) of every _relabels_to call from now on, the
    axes read off dst's strides (view_axes), and the call's keyword
    arguments to the list keywords, if given."""
    calls, relabels = [], ncube._relabels_to

    def counted(src, dst, perm=None, **kw):
        calls.append((view_axes(src, dst), None if perm is None else tuple(int(i) for i in perm)))
        if keywords is not None:
            keywords.append(kw)
        return relabels(src, dst, perm, **kw)
    monkeypatch.setattr(ncube, "_relabels_to", counted)
    return calls


def scan_calls(monkeypatch) -> list:
    """Appends the (stack shape, rows) of every _scan call from now on; a
    scan of the head layers [0, t) of an axis has t rows in its shape."""
    scans, scan = [], ncube._scan
    monkeypatch.setattr(ncube, "_scan", lambda mats, **kw:
                        scans.append((mats.shape, kw.get("rows"))) or scan(mats, **kw))
    return scans


def adopt(arr: np.ndarray) -> SignCube:
    return SignCube._adopt(arr.ndim, len(arr), np.ascontiguousarray(arr, dtype=np.int8))


def invariant_under(arr: np.ndarray, perm) -> np.ndarray:
    """arr made fixed by perm on every coordinate, perm an involution: each
    entry pair {x, perm(x)} takes the entry at x."""
    moved = arr[np.ix_(*[np.asarray(perm)] * arr.ndim)]
    out = arr.copy()
    idx = np.indices(arr.shape).reshape(arr.ndim, -1)
    later = np.ravel_multi_index(np.asarray(perm)[idx], arr.shape) < np.arange(arr.size)
    out.flat[later] = moved.flat[later]
    return out


@pytest.mark.parametrize("budget", BUDGETS)
def test_prime_paley_cubes_and_products_match_the_oracles(budget, monkeypatch):
    """Cubes that the shift fixes are scanned on two rows or layers and
    one compare, with the full scan's reports: paley3 for every prime
    q <= 31, of both residues mod 4, and products of paley2."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    keys = [("paley3", q) for q in PRIMES_LE_31]
    keys += [("product", q, d) for q in (3, 7, 11) for d in (3, 4)]
    for key in keys:
        c = cube_of(key)
        assert (is_hadamard(c), is_proper(c)) == oracle_reports(key), key
        assert ncube._affine_fixes(c)


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_candidate_that_does_not_fix_the_cube_is_dropped(budget, monkeypatch):
    """paley3(GF(11)) with one entry flipped at x = 5, in the layer z = 7
    of pair (0, 1): axis 0's head layers 0-2 pass, the shift is found not
    to fix the cube, and axis 0 fails in its two-row prefix.  On a fresh
    copy, pair (0, 1)'s prefix, the layers z = 0 and 1, passes, the shift
    is found not to fix the cube, and the whole pair is scanned for the
    full scan's report; the first cube reads its kept verdict and scans
    the pair whole with no compare."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    arr = paley3(Field(11)).array.copy()
    arr[5, 3, 7] *= -1
    bad, fresh = adopt(arr), adopt(arr)
    calls = relabel_calls(monkeypatch)
    rep = is_hadamard(bad)
    assert calls == [(None, shift(12))]
    assert rep == is_hadamard_naive(bad) and rep.pair == (0, 5)
    del calls[:]
    rep = is_proper(fresh)
    assert calls == [(None, shift(12))]
    assert rep == proper_oracle(bad) and (rep.checked_pairs - 1) // (12 * 11) == 7
    assert is_proper(bad) == rep and len(calls) == 1
    assert not ncube._affine_fixes(bad)


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_failing_cube_that_the_candidate_fixes_fails_in_the_prefix(budget, monkeypatch):
    """paley3 negated on orbits of triples under the shift is fixed by the
    shift but is not Hadamard; its first violation lies in the prefix, as
    the witness argument says, and the reports are the oracles'.  The
    orbits of (0, 1, 3) and (0, 1, 2) over GF(7) leave the inner products
    with the layer x = inf unchanged, so that cube fails first in row 1,
    the least point of the finite orbit."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    cases = [(7, [(3, 4, 6)]), (11, [(2, 5, 9)]), (11, [(0, 4, 7)]), (7, [(1, 2, 4), (1, 2, 3)])]
    for q, triples in cases:
        arr, v, t = paley3(Field(q)).array.copy(), q + 1, np.asarray(shift(q + 1))
        for x in map(np.asarray, triples):
            for _ in range(q):
                arr[tuple(x)] *= -1
                x = t[x]
        c = adopt(arr)
        assert ncube._relabels_to(c.array, c.array, shift(v))
        rep = is_hadamard(c)
        assert not rep.passed and rep == is_hadamard_naive(c) and rep.pair[0] < 2
        rep = is_proper(c)
        assert not rep.passed and rep == proper_oracle(c)
        assert (rep.checked_pairs - 1) % (v**2 * (v - 1)) // (v * (v - 1)) < 2  # layer
    assert is_hadamard(c) == VerifyReport(False, 0, (1, 2), 4, 8)


@pytest.mark.parametrize("budget", BUDGETS)
def test_verifiers_match_oracles_on_cubes_with_other_point_symmetries(budget, monkeypatch):
    """Cubes fixed by relabellings of their points other than the shift,
    whose orbits have least points beyond 1: x -> 2x on PG(1, 7) and
    x -> 4x on PG(1, 13), squares that fix paley3 with the orbits {inf},
    {0}, the squares and the non-squares; and a transposition of two
    points, fixing the product of a relabelled Sylvester matrix, that
    product with entry pairs flipped everywhere, and random cubes."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    cubes = []
    for q, g in ((7, 2), (13, 4)):
        F = Field(q)
        scale = (0, *(1 + F.mul(g, e) for e in F.elems))
        cubes.append((paley3(F), scale))
    swap = (0, 1, 3, 2)  # the transposition of points 2 and 3
    syl = SYL4.array[np.ix_((0, 3, 1, 2), (0, 3, 1, 2))]  # fixed by swap
    base = yang_product(SignCube(2, 4, syl), 3).array
    cubes.append((adopt(base), swap))
    for pos in itertools.product(range(4), repeat=3):
        arr = base.copy()
        arr[pos] *= -1
        cubes.append((adopt(invariant_under(arr, swap)), swap))
    rng = np.random.default_rng(20261020)
    for n, v in ((3, 4), (3, 5), (4, 4)):
        perm = (*range(v - 2), v - 1, v - 2)
        for _ in range(20):
            arr = rng.choice(np.array([-1, 1], dtype=np.int8), size=(v,) * n)
            cubes.append((adopt(invariant_under(arr, perm)), perm))
    passed = set()
    for c, perm in cubes:
        assert ncube._relabels_to(c.array, c.array, perm)
        hadamard, proper = is_hadamard(c), is_proper(c)
        assert hadamard == is_hadamard_naive(c)
        assert proper == proper_oracle(c)
        passed.add((hadamard.passed, proper.passed))
    assert passed == {(True, True), (True, False), (False, False)}


def test_prime_paley3_is_certified_by_a_prefix_and_two_compares(monkeypatch):
    """paley3(GF(107)) through is_hadamard and is_proper: the Gram matrix
    of the head layers 0-2 of axis 0 (107 = 3 mod 4) and the 2 layers
    z = inf, 0 of pair (0, 1) on Gram rows [0, 2 + nu) = [0, 4), then one
    whole shift compare, and the scaling and the rotation each compared on
    indices 0 and 1 of axis 0, each made once."""
    cube, v = paley3(Field(107)), 108
    scans = scan_calls(monkeypatch)
    keywords = []
    calls = relabel_calls(monkeypatch, keywords)
    assert is_hadamard(cube) == VerifyReport(True, checked_pairs=3 * v * (v - 1) // 2)
    assert scans == [((1, 3, 1, v * v), 2)]
    assert is_proper(cube) == VerifyReport(True, checked_pairs=3 * v**2 * (v - 1))
    assert scans[1:] == [((2, v, 1, v), 4)]
    sigma = tuple(psl_generators(Field(107))[2].perm())
    assert calls == [(None, shift(v)), (None, sigma), ((1, 2, 0), None)]
    # the scaling and the rotation are compared on the layers x = inf, 0
    assert [kw.get("rows") for kw in keywords] == [None, 2, 2]


def test_a_cube_the_shift_does_not_fix_pays_one_prefix_and_one_compare(monkeypatch):
    """The product of the Sylvester matrix of order 16 in 3 dimensions and
    the lift of paley3(GF(7)) pass the two-row probe of axis 0 and are
    scanned whole from there: axis 0 again, then every later axis with no
    rows.  The lift, of prime order v - 1, first scans the head layers 0-2
    of axis 0 and fails the one shift compare; at order 16, whose v - 1 is
    not a prime power, no point relabelling is compared.  is_proper reads
    the kept verdict, or the order, before any scan and scans every pair
    whole from the start, with no prefix.  The rotation is compared
    whole."""
    v = 16
    cube = yang_product(SYL16, 3)
    scans = scan_calls(monkeypatch)
    keywords = []
    calls = relabel_calls(monkeypatch, keywords)
    assert is_hadamard(cube).passed and is_proper(cube).passed
    assert scans == [((1, v, 1, v * v), 2), ((1, v, 1, v * v), None),
                     ((v, v, 1, v), None)]
    assert calls == [((1, 2, 0), None)]
    assert [kw.get("rows") for kw in keywords] == [None]
    monkeypatch.undo()

    v, lifted = 8, dim_lift(paley3(Field(7)))
    scans = scan_calls(monkeypatch)
    keywords = []
    calls = relabel_calls(monkeypatch, keywords)
    assert is_hadamard(lifted) == is_hadamard_naive(lifted)
    axes = [(1, v, 1, v**3)] + [(1, v, v**j, v ** (3 - j)) for j in range(1, 4)]
    # v - 1 = 7 is prime: the head layers 0-2 of axis 0 come first
    assert scans == [((1, 3, 1, v**3), 2), (axes[0], 2)] + [(a, None) for a in axes]
    assert calls == [(None, shift(v)), ((1, 2, 3, 0), None)]
    del scans[:]
    assert is_proper(lifted) == proper_oracle(lifted)
    assert scans == [((v, v, v, 1, v), None)] * 6
    assert [kw.get("rows") for kw in keywords] == [None, None]
    assert len(calls) == 2


def test_a_kept_shift_verdict_is_read_before_any_prefix(monkeypatch):
    """paley3(GF(27)) with one entry flipped in the layer z = 9 of pair
    (0, 1), whose B verdict check_psl_invariance kept, False from its
    first compare, x -> x + 9: is_proper reads that B does not fix it and
    scans every pair whole from the start, with no prefix and no compare,
    and is_hadamard keeps its two-row probe, which alone finds the
    violation.  A fresh copy, with no verdict kept, is first scanned on
    pair (0, 1)'s two-layer prefix, then compared with x -> x + 9, which
    does not fix it, and only then scanned whole."""
    v = 28
    flipped = flip_in_layer(paley3(Field(27)), 9, random.Random(27))
    fresh = SignCube(3, v, flipped.data)
    calls = relabel_calls(monkeypatch)
    assert not check_psl_invariance(flipped, Field(27))
    assert calls == [(None, tuple(ncube._point_maps(v).chain[0][0].tolist()))]
    assert flipped._fixed == {"B": False, "psl": False}
    monkeypatch.undo()
    scans = scan_calls(monkeypatch)
    calls = relabel_calls(monkeypatch)
    assert is_proper(flipped) == proper_oracle(flipped)
    assert scans == [((v, v, 1, v), None)] and calls == []
    del scans[:]
    assert is_hadamard(flipped) == is_hadamard_naive(flipped)
    assert scans == [((1, v, 1, v * v), 2)] and calls == []
    del scans[:]
    assert is_proper(fresh) == proper_oracle(flipped)
    assert scans == [((2, v, 1, v), None), ((v, v, 1, v), None)]
    assert calls == [(None, tuple(ncube._point_maps(v).chain[0][0].tolist()))]


def test_a_cube_that_fails_in_the_prefix_makes_no_compare(monkeypatch):
    """paley3(GF(13)) is not proper: its layer z = inf fails, inside the
    prefix, so is_proper makes no compare; nor do the verifiers on an
    almost cube, which fails at (0, 1) of axis 0, nor is_hadamard on a
    cube with one entry flipped at x in {0, 1, 2}, whose violation (0, 1)
    or (0, x) lies in the head layers 0-2 of axis 0.  A flip at a larger x
    fails at (0, x), outside the head layers but in the two-row prefix: it
    now pays one shift compare, which fails, before that prefix."""
    calls = relabel_calls(monkeypatch)
    cube = paley3(Field(13))
    assert is_proper(cube) == VerifyReport(False, 0, (1, 2), 2, 14)
    assert calls == []
    assert is_hadamard(cube).passed and len(calls) == 3  # shift, scaling, rotation
    del calls[:]
    almost = almost_cube(Field(7), 4)
    assert not is_hadamard(almost).passed and not is_proper(almost).passed
    assert calls == []
    for q in (7, 11, 19):
        for x in (0, 1, 2, 5):
            arr = paley3(Field(q)).array.copy()
            arr[x, 3, 4] *= -1
            flipped = adopt(arr)
            rep = is_hadamard(flipped)
            assert rep == is_hadamard_naive(flipped) and rep.pair == (0, max(x, 1))
            assert calls == ([(None, shift(q + 1))] if x > 2 else [])
            del calls[:]


def test_cubes_of_order_one_and_two_have_no_prefix(monkeypatch):
    """At v <= 2 the verifiers scan every axis and pair whole, with no
    rows, and make no shift compare: the shift would be the identity, or
    at v = 1 not a permutation.  Only the rotation may be compared."""
    rng = random.Random(12)
    cubes = [H2, product_cube(H2, 3), SignCube(3, 2, [1] * 8), SignCube(2, 1, [1]),
             SignCube(3, 1, [-1])] + [random_cube(rng, n, 2) for n in (2, 3, 4) for _ in range(4)]
    scans = scan_calls(monkeypatch)
    calls = relabel_calls(monkeypatch)
    for c in cubes:
        assert is_hadamard(c) == is_hadamard_naive(c)
        assert is_proper(c) == proper_oracle(c)
    assert {rows for _, rows in scans} == {None}
    assert calls and all(perm is None for _, perm in calls)


def test_check_cyclic_on_a_fresh_prime_paley3_compares_a_prefix(monkeypatch):
    """check_cyclic on a fresh paley3(GF(19)) compares the shift, then the
    scaling and the rotated cube on indices 0 and 1 of axis 0; the
    verifiers then find every verdict kept and compare nothing."""
    cube, v = paley3(Field(19)), 20
    keywords = []
    calls = relabel_calls(monkeypatch, keywords)
    assert check_cyclic(cube)
    sigma = tuple(psl_generators(Field(19))[2].perm())
    assert calls == [(None, shift(v)), (None, sigma), ((1, 2, 0), None)]
    assert [kw.get("rows") for kw in keywords] == [None, 2, 2]
    assert is_hadamard(cube).passed and len(calls) == 3


def shift_fixed_cube(rng: np.random.Generator, n: int, q: int, rotate: bool) -> SignCube:
    """A random cube on PG(1, q), q prime, fixed by the shift x -> x + 1,
    and by the rotation of its coordinates if rotate: each entry is a
    seeded sign read at the least flat index of its orbit under those
    maps."""
    v, t = q + 1, np.asarray(shift(q + 1))
    idx = np.indices((v,) * n).reshape(n, -1)
    weights = v ** np.arange(n - 1, -1, -1)
    images = []
    for _ in range(q):
        images += [weights @ np.roll(idx, k, axis=0) for k in range(n if rotate else 1)]
        idx = t[idx]
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=v**n)
    return adopt(signs[np.min(images, axis=0)].reshape((v,) * n))


def prefix_verdicts(c: SignCube) -> set:
    """For every coordinate permutation sigma, its compare on indices
    [0, 2) of axis 0 if B fixes c, else whole, as _rotation_fixes
    compares the rotation, against the whole-cube compare; the rotation
    itself through _rotation_fixes.  The set of verdicts."""
    verdicts, rotation = set(), (*range(1, c.n), 0)
    for sigma in itertools.permutations(range(c.n)):
        whole = ncube._relabels_to(c.array, c.array.transpose(sigma))
        rows = 2 if ncube._affine_fixes(c) else None
        verdict = ncube._rotation_fixes(c) if sigma == rotation else \
            ncube._relabels_to(c.array, c.array.transpose(sigma), rows=rows)
        assert verdict == whole, (c, sigma)
        verdicts.add(whole)
    return verdicts


def test_prefix_rotation_verdicts_match_the_whole_compare(monkeypatch):
    """Cubes that B = <x -> x + 1, x -> g^2 x> fixes are compared with a
    coordinate permutation of themselves on the first 2 indices of axis 0
    (rows=2), and cubes that the shift alone fixes whole; the verdict is
    the whole compare's for every permutation: prime paley3, products of
    prime paley2, random shift-fixed cubes with and without the rotation
    symmetry (B-fixed at q = 3, where the scaling is the identity), and
    paley3 negated on one orbit of a triple under the shift or under B."""
    keywords = []
    calls = relabel_calls(monkeypatch, keywords)
    cubes = [paley3(Field(q)) for q in PRIMES_LE_31]
    cubes += [yang_product(paley2(Field(q)), d) for q in (3, 7, 11) for d in (3, 4, 5)]
    rng = np.random.default_rng(20261021)
    cubes += [shift_fixed_cube(rng, n, q, rotate)
              for n, q in ((2, 3), (2, 7), (3, 3), (3, 5), (4, 3)) for rotate in (False, True)
              for _ in range(8)]
    # paley3 negated on the shift orbit, or the B-orbit, of a triple of
    # field elements: it differs from its rotations only where no
    # coordinate is infinity, so a prefix of the index inf alone would miss it
    for q, x in ((7, (1, 2, 4)), (11, (1, 4, 9)), (11, (1, 1, 3))):
        orbits = affine_orbits(3, q)
        cubes.append(negated_on(paley3(Field(q)), orbits,
                                int(orbits[np.ravel_multi_index(x, (q + 1,) * 3)])))
        arr, t, x = paley3(Field(q)).array.copy(), np.asarray(shift(q + 1)), np.asarray(x)
        for _ in range(q):
            arr[tuple(x)] *= -1
            x = t[x]
        cubes.append(adopt(arr))
    verdicts = set()
    for c in cubes:
        assert ncube._relabels_to(c.array, c.array, shift(c.v))
        verdicts |= prefix_verdicts(c)
    assert verdicts == {True, False}
    affine = [c for c in cubes if ncube._affine_fixes(c)]
    assert 0 < len(affine) < len(cubes)
    # every compare of a coordinate permutation of a B-fixed cube, the
    # rotation's by _rotation_fixes, was on a prefix, and every other whole;
    # yang_product's is_hadamard adds its input's scaling compares
    assert sum(kw.get("rows") == 2 and perm is None for kw, (_, perm)
               in zip(keywords, calls)) == sum(math.factorial(c.n) for c in affine)


def test_prefix_rotation_needs_fixing_candidates_with_short_orbit_heads(monkeypatch):
    """The rotation is compared on a prefix only if the shift fixes the
    cube and v > 2.  A shift that does not fix its cube leaves the rotation
    to the whole compare, and at v = 2, whose shift is the identity, the
    shift is not compared at all."""
    arr = paley3(Field(11)).array.copy()
    arr[5, 3, 7] *= -1
    rng = np.random.default_rng(20261022)
    unfixed = rng.choice(np.array([-1, 1], dtype=np.int8), size=(8,) * 3)
    cases = [(adopt(arr), [(None, shift(12)), ((1, 2, 0), None)]),
             (adopt(unfixed), [(None, shift(8)), ((1, 2, 0), None)]),
             (SignCube(3, 2, [1, 1, 1, 1, 1, 1, -1, -1]), [((1, 2, 0), None)])]
    for c, expected in cases:
        keywords = []
        calls = relabel_calls(monkeypatch, keywords)
        verdict = ncube._rotation_fixes(c)
        assert calls == expected and all(kw.get("rows") is None for kw in keywords)
        monkeypatch.undo()
        assert verdict == ncube._relabels_to(c.array, c.array.transpose(1, 2, 0))
        assert prefix_verdicts(c) == {True, False}


# -- the affine group B = <x -> x + 1, x -> g^2 x> -------------------------------------

ODD_PRIMES_LE_251 = [p for p in range(3, 252, 2) if all(p % d for d in range(3, p, 2))]
ODD_PRIME_POWERS_LE_251 = sorted(p**k for p in ODD_PRIMES_LE_251 for k in range(1, 6) if p**k <= 251)


def test_translations_scaling_and_negation_match_the_field(monkeypatch):
    """For every odd prime power q = p**k <= 251 the verifiers' digit
    translations are x -> x + p**j, most significant first, the first
    compared whole and tau_j on the indices [0, 1 + p**(j + 1)); the last,
    x -> x + 1, is psl_generators' translation, the scaling x -> g^2 x its
    scaling, nu is the least non-square and the
    negation is x -> -x, all by Field's arithmetic.  Any other order, and
    one whose v - 1 exceeds gf.MAX_ORDER, has no point maps, and builds no
    Field to find that out."""
    for q in ODD_PRIME_POWERS_LE_251:
        F, maps = Field(q), ncube._point_maps(q + 1)
        chain = maps.chain
        assert [rows for _, rows in chain] == [None, *(1 + F.p**j for j in range(F.k - 1, 0, -1))]
        for (tau, _), j in zip(chain, range(F.k - 1, -1, -1)):
            assert tau.tolist() == [0, *(1 + F.add(a, F.p**j) for a in F.elems)], (q, j)
        translation, _, scaling = (list(g.perm()) for g in psl_generators(F))
        assert chain[-1][0].tolist() == translation
        assert maps.sigma.tolist() == scaling
        assert maps.nu == min(a for a in range(1, q) if F.chi(a) == -1)
        assert maps.neg.tolist() == [0, *(1 + F.neg(a) for a in F.elems)]
        perms = [tau for tau, _ in chain] + [maps.sigma, maps.neg]
        assert not any(perm.flags.writeable for perm in perms)
    monkeypatch.setattr(ncube, "Field", None)  # calling it would raise TypeError
    for v in (1, 2, 3, 5, 16, 22, 34, 16384, 16412):
        assert ncube._point_maps.__wrapped__(v) is None, v
        assert ncube._point_maps(v) is None, v
        assert not ncube._affine_fixes(SignCube(1, v, np.ones(v, np.int8)))


# sha256 prefixes of each order's point maps, taken from the separate
# translation, scaling and negation helpers that the one record replaced
POINT_MAP_DIGESTS = {
    3: "5444b849616a6a46", 5: "1bc9c3f5dc370f3c", 7: "ac88639dea628258",
    9: "41941097d98e0e2b", 11: "420d5af7aa120e74", 13: "8155243d5d168afc",
    17: "125ed33e44befe03", 19: "14b00591b123ce73", 23: "4dd19804bb6aca01",
    25: "25220de613132166", 27: "534e42cc96b431aa", 29: "80d7ca184e0808a2",
    31: "914e3eeaaf0c2367", 37: "debd0b3834268df5", 41: "85d4ed05bc65ec1d",
    43: "fc2882131d29e90d", 47: "81fda0a09151438f", 49: "d07f0fe7346c3f64",
    53: "a2b382191ada50d0", 59: "ded9e351bcd878dd", 61: "d3e9aad0ee5d52ac",
    67: "436029136be3aac6", 71: "459ab3e9d0c9bfa1", 73: "74eb73793986e92c",
    79: "9070813501023eac", 81: "200df07b44e983c9", 83: "f25a8a33028b871a",
    89: "cbf32e0dc9484673", 97: "d64ddc4e5ffae705", 101: "7de485fb99e31d1f",
    103: "504251d7119ddac4", 107: "b22472bc5e763875", 109: "07d33f7e72cdb68e",
    113: "801121f1b20fdf04", 121: "e94e37e26763de68", 125: "055441efd89948dd",
    127: "757a1ce1ca54f1f5", 131: "ce4e16c88fd08f37", 137: "6ae1678fa9ab52f6",
    139: "5ba2c60eb31e8c4f", 149: "3b6a5b053bb3738d", 151: "55d4c2516b4d0146",
    157: "caf9a65d03525e44", 163: "ee77cd724a9363bd", 167: "196ee803fa93f518",
    169: "e94b6425b5767c87", 173: "692b7fb5b271cb68", 179: "c303fe4acdda1fbe",
    181: "bb31dc25ce14ad4d", 191: "a43dc60ee7ff5583", 193: "ab12d83beebcc431",
    197: "a07303f759611a24", 199: "f5dbeb85bfb95a23", 211: "fe7c67b3170a2f88",
    223: "bc36500b2d1d9b23", 227: "03dc21c95eea6a84", 229: "7fe18911ad11f8fc",
    233: "52380e1956e613a7", 239: "53f555ed349fcd48", 241: "cad4c6df8622704f",
    243: "f2b9eb3f84501e47", 251: "517a3d618c46654c", 343: "2e02e53470fb9fee",
    729: "18a41214e451922e", 2187: "c7170555242a739e", 6561: "72bb9246189953c9",
    15625: "75e03e59e20dea32", 16381: "cc3df904e9ecab9e",
}


def test_point_maps_keep_their_bytes():
    """The digit translations with their rows, sigma, nu and x -> -x of
    every odd prime power q <= 251 and of six larger ones up to 16381,
    hashed in compare order: the same bytes as before the maps were read
    off Field's sums and products."""
    assert list(POINT_MAP_DIGESTS) == ODD_PRIME_POWERS_LE_251 + [343, 729, 2187, 6561, 15625, 16381]
    for q, want in POINT_MAP_DIGESTS.items():
        maps = ncube._point_maps(q + 1)
        h = hashlib.sha256()
        for tau, rows in maps.chain:
            h.update(np.asarray(tau, np.int64).tobytes())
            h.update(repr(rows).encode())
        h.update(np.asarray(maps.sigma, np.int64).tobytes())
        h.update(repr(maps.nu).encode())
        h.update(np.asarray(maps.neg, np.int64).tobytes())
        assert h.hexdigest()[:16] == want, q


@functools.cache
def affine_orbits(n: int, p: int, scales: tuple | None = None) -> np.ndarray:
    """The least flat index of each n-tuple's orbit on PG(1, p)**n under
    the maps x -> a*x + b, a in scales (default: the non-zero squares),
    infinity fixed: a brute-force orbit id per tuple, computed once."""
    v = p + 1
    scales = sorted({a * a % p for a in range(1, p)}) if scales is None else scales
    idx = np.indices((v,) * n).reshape(n, -1)
    weights = v ** np.arange(n - 1, -1, -1)
    least = np.full(v**n, v**n)
    for a in scales:
        for b in range(p):
            image = np.r_[0, 1 + (a * np.arange(p) + b) % p]
            least = np.minimum(least, weights @ image[idx])
    least.flags.writeable = False
    return least


def affine_cube(rng: np.random.Generator, n: int, p: int, scales=None) -> SignCube:
    """A random cube on PG(1, p) constant on the orbits of affine_orbits."""
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(p + 1) ** n)
    return adopt(signs[affine_orbits(n, p, scales)].reshape((p + 1,) * n))


def negated_on(c: SignCube, orbits: np.ndarray, *ids: int) -> SignCube:
    """c with the entries of the orbits ids (of affine_orbits) negated."""
    arr = c.data.copy()
    arr[np.isin(orbits, ids)] *= -1
    return adopt(arr.reshape((c.v,) * c.n))


@pytest.mark.parametrize("budget", BUDGETS)
def test_verifiers_match_oracles_on_cubes_fixed_by_the_affine_group(budget, monkeypatch):
    """Random cubes constant on the orbits of B (x -> a*x + b, a a square)
    are fixed by the shift and the scaling, which _affine_fixes finds from
    a whole shift compare and a two-index scaling compare; the verifiers
    scan them on the head layers and the canonical layers only, with the
    full scan's reports.  The same cubes with one orbit negated are fixed
    by B too.  Cubes constant on the orbits of the translations alone are
    fixed by the shift, and the two-index scaling compare gives the whole
    compare's verdict on them.  n runs to 5 for p <= 7, and to 4 beyond,
    where a 5-D cube at budget 1 would take seconds."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = np.random.default_rng(20261101 + budget)
    shapes = [(n, p) for n in (2, 3, 4, 5) for p in (3, 5, 7, 11, 13) if n < 5 or p < 11]
    reports = set()
    for n, p in shapes:
        v, orbits = p + 1, affine_orbits(n, p)
        sigma = ncube._point_maps(v).sigma
        for _ in range(3):
            c = affine_cube(rng, n, p)
            for cube in (c, negated_on(c, orbits, int(rng.choice(orbits)))):
                assert ncube._relabels_to(cube.array, cube.array, sigma)
                assert ncube._affine_fixes(cube)
                hadamard, proper = is_hadamard(cube), is_proper(cube)
                assert hadamard == is_hadamard_naive(cube), (n, p)
                assert proper == proper_oracle(cube), (n, p)
                reports.add((hadamard.pair, proper.pair))
        translated = affine_cube(rng, n, p, scales=(1,))
        whole = ncube._relabels_to(translated.array, translated.array, sigma)
        assert ncube._affine_fixes(translated) == whole
        assert is_hadamard(translated) == is_hadamard_naive(translated)
    assert len(reports) > 5  # the first violations are spread over many pairs


@pytest.mark.parametrize("budget", BUDGETS)
def test_cubes_of_other_orders_get_no_point_relabelling_compare(budget, monkeypatch):
    """Cubes whose order minus one is not an odd prime power: the products
    of the Sylvester matrix of order 16 in 3 and 4 dimensions, its lift,
    and random cubes of order 22.  B is not asked there, so every compare
    the verifiers make is a coordinate permutation (perm None), and their
    reports are the oracles'.  Each Hadamard cube has its rotation
    compared; the random ones fail their first scan and compare nothing."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = random.Random(22)
    cubes = [yang_product(SYL16, 3), yang_product(SYL16, 4), dim_lift(SYL16),
             random_cube(rng, 3, 22), random_cube(rng, 2, 22)]
    calls = relabel_calls(monkeypatch)
    for c in cubes:
        del calls[:]
        hadamard = is_hadamard(c)
        assert hadamard == is_hadamard_naive(c), c
        assert is_proper(c) == proper_oracle(c), c
        assert all(perm is None for _, perm in calls), c
        assert bool(calls) == hadamard.passed, c


@pytest.mark.parametrize("budget", BUDGETS)
def test_cubes_only_the_shift_fixes_pay_the_probe_and_whole_scans(budget, monkeypatch):
    """Random cubes constant on the orbits of the translations alone
    (affine_cube with scales=(1,)), paley3 negated on one or two such
    orbits of triples, and paley3 (q = 3 mod 4) times a random sign
    beta(y - z), 1 where y or z is infinity, whose axis 0 and pairs (0, 1)
    and (0, 2) pass: the shift fixes them and the scaling does not, so B
    does not.  Fresh, is_hadamard scans the head layers of axis 0,
    compares B, and then scans the two-row probe of axis 0 and every axis
    whole; is_proper scans the two-layer prefix of pair (0, 1), compares
    B, and then scans every pair whole.  Once the verdict is kept,
    is_proper scans every pair whole from the start.  The reports are the
    oracles'."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = np.random.default_rng(20261301 + budget)
    cubes = [affine_cube(rng, n, p, scales=(1,))
             for n, p in ((2, 5), (3, 5), (3, 7), (4, 5)) for _ in range(3)]
    # a random cube may be fixed by the scaling x -> -x too, most likely in 2-D
    cubes = [c for c in cubes if not ncube._relabels_to(c.array, c.array, ncube._point_maps(c.v).sigma)]
    assert len(cubes) >= 8
    for q, triples in ((7, [(1, 2, 4)]), (11, [(2, 5, 9)]), (7, [(1, 2, 4), (1, 2, 3)])):
        orbits = affine_orbits(3, q, (1,))
        cubes.append(negated_on(paley3(Field(q)), orbits, *(
            int(orbits[np.ravel_multi_index(x, (q + 1,) * 3)]) for x in triples)))
    for q in (7, 11, 19):
        d = np.subtract.outer(np.arange(q), np.arange(q)) % q
        signs = np.ones((q + 1, q + 1), dtype=np.int8)
        signs[1:, 1:] = rng.choice(np.array([-1, 1], dtype=np.int8), size=q)[d]
        cubes.append(adopt(paley3(Field(q)).array * signs))
    scans = scan_calls(monkeypatch)
    probed = prefixed = 0
    for c in cubes:
        v, axis0 = c.v, (1, c.v, 1, c.v ** (c.n - 1))
        assert ncube._relabels_to(c.array, c.array, shift(v))
        assert not ncube._relabels_to(c.array, c.array, ncube._point_maps(v).sigma)
        fresh = adopt(c.array)
        del scans[:]
        assert is_hadamard(c) == is_hadamard_naive(c)
        assert scans[0] == ((1, ncube._heads(v), *axis0[2:]), 2)
        if len(scans) > 1:  # past a hit in Gram row 0: B was compared
            probed += 1
            assert scans[1] == (axis0, 2)  # the probe, then axis 0 whole if it passes
            assert scans[2:3] in ([], [(axis0, None)])
            assert all(rows is None for _, rows in scans[2:])
        assert not ncube._affine_fixes(c)
        del scans[:]
        assert is_proper(c) == proper_oracle(c)
        assert all(shape[0] == v and rows is None for shape, rows in scans)
        del scans[:]
        assert is_proper(fresh) == proper_oracle(fresh)
        if c.n > 2 and len(scans) > 1:  # the prefix passed: B was compared
            prefixed += 1
            assert scans[0][0][0] == 2
            assert all(shape[0] == v and rows is None for shape, rows in scans[1:])
    assert probed and prefixed


@pytest.mark.parametrize("budget", BUDGETS)
def test_hadamard_cubes_negated_on_one_affine_orbit_fail_with_the_full_report(budget, monkeypatch):
    """paley3 over GF(7), GF(11) and GF(13) and the product of paley2(GF(7))
    in 4 dimensions, each negated on one B-orbit of n-tuples: B still
    fixes them, their first violation often lies past the head layers'
    first pairs or in a canonical layer past the first, and the reports
    are the full scan's.  Negated on two orbits, paley3 over GF(7) and
    GF(13) fail is_hadamard first at a head pair past (0, 2): (1, 2), or
    (1, 1 + nu) = (1, 3) over GF(13), on axis 0, 1 or 2, with no
    report from the head layers before B is shown to fix them."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    for q, ids, axis, pair in ((7, (66, 103), 0, (1, 2)), (7, (68, 99), 1, (1, 2)),
                               (7, (80, 98), 2, (1, 2)), (11, (179, 181), 1, (1, 2)),
                               (13, (232, 235), 0, (1, 3)), (13, (225, 251), 1, (1, 3))):
        base = paley3(Field(q))
        c = negated_on(base, affine_orbits(3, q), *ids)
        rep = is_hadamard(c)
        assert rep == is_hadamard_naive(c) and (rep.axis, rep.pair) == (axis, pair)
        assert ncube._affine_fixes(c) and is_proper(c) == proper_oracle(c)
    rng = np.random.default_rng(20261102)
    deep = 0
    for base, p in ((paley3(Field(7)), 7), (paley3(Field(11)), 11), (paley3(Field(13)), 13),
                    (yang_product(paley2(Field(7)), 4), 7)):
        orbits = affine_orbits(base.n, p)
        for orbit in rng.choice(np.unique(orbits), size=6, replace=False):
            c = negated_on(base, orbits, int(orbit))
            assert ncube._affine_fixes(c)
            hadamard, proper = is_hadamard(c), is_proper(c)
            assert hadamard == is_hadamard_naive(c)
            assert proper == proper_oracle(c)
            layers = base.v ** (base.n - 2) * base.v * (base.v - 1)
            deep += not proper.passed and (proper.checked_pairs - 1) % layers >= base.v**2
    assert deep  # some cube first fails in a layer past the first


def affine_heads(v: int, m: int) -> set:
    """The least flat index of each orbit of m-tuples under B: the digit
    translations and the scaling (orbit_ids)."""
    sigma = tuple(ncube._point_maps(v).sigma.tolist())
    return set(orbit_ids(m, v, (*translations(v), sigma)).tolist())


def test_canonical_layers_are_the_least_of_each_orbit():
    """_representatives spans the flat indices of the canonical m-tuples,
    in index order: exactly the least element of each orbit of B, as
    orbit_ids over the digit translations and the scaling finds them,
    over prime fields and over GF(9), GF(25) and GF(27)."""
    for p, ms in ((3, (1, 2, 3, 4)), (5, (1, 2, 3, 4)), (7, (1, 2, 3)), (11, (1, 2, 3)),
                  (13, (1, 2, 3)), (9, (1, 2, 3)), (25, (1, 2)), (27, (1, 2))):
        for m in ms:
            spans = ncube._representatives(p + 1, m)
            flat = [i for lo, hi in spans for i in range(lo, hi)]
            assert flat == sorted(set(flat)), (p, m)
            assert set(flat) == affine_heads(p + 1, m), (p, m)
    assert len([1 for lo, hi in ncube._representatives(24, 2) for _ in range(lo, hi)]) == 6
    assert sum(hi - lo for lo, hi in ncube._representatives(12, 3)) == 38


def scan_work(monkeypatch) -> list:
    """Appends, per _scan call from now on, (rows cast per matrix,
    matrices scanned): the rows of the stack's matrices, t for the head
    layers [0, t) of an axis, and the matrices of the at spans or the
    whole stack."""
    work, scan = [], ncube._scan

    def counted(mats, rows=None, at=None):
        *stack, v, _, _ = mats.shape
        work.append((v, math.prod(stack) if at is None else sum(hi - lo for lo, hi in at)))
        return scan(mats, rows=rows, at=at)
    monkeypatch.setattr(ncube, "_scan", counted)
    return work


def test_affine_cubes_are_certified_by_head_and_canonical_layers(monkeypatch):
    """A cube that B fixes is scanned on 3 head layers per axis (4 when
    p = 1 mod 4) and, for n >= 4, on its canonical layers per pair: 6 of
    576 for the product of paley2(GF(23)) in 4 dimensions, 38 of 1728 for
    that of paley2(GF(11)) in 5.  Both products are fixed by the mirror
    x -> -x with the coordinates reversed, so only the axes up to
    (dim - 1) // 2 (2 of 4, 3 of 5) and the pairs (j1, j2) with
    j1 + j2 <= dim - 1 (4 of 6, 6 of 10) are scanned.  The
    compares are the shift (whole), then the scaling, the rotation and the
    mirror, each on indices 0 and 1 of one axis, each once."""
    keywords = []
    for h, dim, heads, reps, axes, pairs in ((paley2(Field(23)), 4, 3, 6, 2, 4),
                                             (paley2(Field(11)), 5, 3, 38, 3, 6)):
        cube, v = yang_product(h, dim), h.v
        work = scan_work(monkeypatch)
        calls = relabel_calls(monkeypatch, keywords)
        assert is_hadamard(cube) == VerifyReport(True, checked_pairs=dim * v * (v - 1) // 2)
        assert work == [(heads, 1)] * axes
        del work[:]
        assert is_proper(cube).passed
        assert work == [(v, reps)] * pairs
        sigma = tuple(ncube._point_maps(v).sigma.tolist())
        negation = (0, 1, *range(v - 1, 1, -1))
        assert calls == [(None, shift(v)), (None, sigma), ((*range(1, dim), 0), None),
                         (tuple(range(dim - 1, -1, -1)), negation)]
        assert [kw.get("rows") for kw in keywords] == [None, 2, 2, 2]
        del keywords[:]
        monkeypatch.undo()
    # p = 13 = 1 mod 4: the head layers are [0, 2 + nu) = [0, 4)
    cube = paley3(Field(13))
    work = scan_work(monkeypatch)
    assert is_hadamard(cube).passed and work == [(4, 1)]
    monkeypatch.undo()
    cube = paley3(Field(17))  # nu = 3: layers [0, 5), on Gram rows [0, 2)
    scans = scan_calls(monkeypatch)
    assert is_hadamard(cube).passed and scans == [((1, 5, 1, 18 * 18), 2)]


def test_a_fresh_cube_scans_the_prefix_before_the_group_is_known(monkeypatch):
    """is_proper on a fresh product of paley2(GF(7)) in 4 dimensions scans
    pair (0, 1)'s two-layer prefix first, then compares the shift and the
    scaling, and scans every later pair on its canonical layers alone, up to
    (1, 2); the rotation is compared after (0, 2), and the mirror before
    (1, 3), which with (2, 3) it skips."""
    cube, v = yang_product(paley2(Field(7)), 4), 8
    work = scan_work(monkeypatch)
    calls = relabel_calls(monkeypatch)
    assert is_proper(cube) == proper_oracle(cube)
    reps = sum(hi - lo for lo, hi in ncube._representatives(v, 2))
    assert work == [(v, 2 * v)] + [(v, reps)] * 3
    assert [perm is not None for _, perm in calls] == [True, True, False, True]


# -- the mirror x -> -x with the coordinates reversed, and the 3-D row prefix -----------

@functools.cache
def mirror_orbits(n: int, p: int) -> np.ndarray:
    """The least flat index of each n-tuple's orbit on PG(1, p)**n under B
    and the mirror x -> -x with the coordinates reversed.  The mirror
    normalizes B, so the orbit of t is B's orbit of t joined with B's orbit
    of t's mirror image: the lesser of their affine_orbits ids."""
    v, least = p + 1, affine_orbits(n, p)
    idx = np.indices((v,) * n).reshape(n, -1)
    weights = v ** np.arange(n - 1, -1, -1)
    mirrored = weights @ np.r_[0, 1, v - 1:1:-1][idx[::-1]]
    out = np.minimum(least, least[mirrored])
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("budget", BUDGETS)
def test_verifiers_match_oracles_on_cubes_fixed_by_the_mirror(budget, monkeypatch):
    """Random cubes constant on the orbits of <s, sigma, mirror>, those
    cubes and products of paley2, whole and negated on one such orbit, and
    random cubes constant on B's orbits alone, for n = 3 to 5 and p in
    {3, 7, 11} (n = 5 only for p <= 7, as the oracles are pure Python):
    once B is shown, the mirror compared on indices [0, 2) gives the whole
    compare's verdict, and the verifiers, which then skip the mirrored
    axes and pairs, give the oracles' reports."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = np.random.default_rng(20261201 + budget)
    verdicts, reports = set(), set()
    for n, p in [(n, p) for n in (3, 4, 5) for p in (3, 7, 11) if n < 5 or p < 11]:
        v, orbits = p + 1, mirror_orbits(n, p)
        cubes = []
        for _ in range(2):
            signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=v**n)
            c = adopt(signs[orbits].reshape((v,) * n))
            cubes += [c, negated_on(c, orbits, int(rng.choice(orbits)))]
        product = yang_product(paley2(Field(p)), n)
        cubes += [product] + [negated_on(product, orbits, int(o))
                              for o in rng.choice(np.unique(orbits), size=2, replace=False)]
        cubes.append(affine_cube(rng, n, p))
        for c in cubes:
            whole = ncube._relabels_to(c.array, c.array.T, ncube._point_maps(v).neg)
            assert ncube._affine_fixes(c) and ncube._mirror_fixes(c) == whole, (n, p)
            hadamard, proper = is_hadamard(c), is_proper(c)
            assert hadamard == is_hadamard_naive(c), (n, p)
            assert proper == proper_oracle(c), (n, p)
            verdicts.add(whole)
            reports.add((hadamard.passed, proper.passed))
    assert verdicts == {True, False}
    assert {(True, True), (False, False)} <= reports


def test_a_cube_the_mirror_does_not_fix_is_scanned_on_every_axis_and_pair(monkeypatch):
    """The product of paley2(GF(7)) in 4 dimensions with its factor on the
    pair (0, 1) transposed is Hadamard and proper, since any Hadamard
    matrix will do on each pair, and fixed by B, as paley2 is; but the
    mirror takes that factor to the pair (2, 3), so it does not fix the
    cube.  is_hadamard scans the head layers of all 4 axes and is_proper
    the canonical layers of all 6 pairs; the mirror is compared once, on
    indices [0, 2), after axis 1 has passed."""
    h = paley2(Field(7)).array
    cube, v = adopt(yang_product(paley2(Field(7)), 4).array * (h * h.T)[:, :, None, None]), 8
    keywords = []
    work = scan_work(monkeypatch)
    calls = relabel_calls(monkeypatch, keywords)
    assert is_hadamard(cube) == VerifyReport(True, checked_pairs=4 * v * (v - 1) // 2)
    assert work == [(3, 1)] * 4
    del work[:]
    rep = is_proper(cube)
    assert rep.passed and rep == proper_oracle(cube)
    reps = sum(hi - lo for lo, hi in ncube._representatives(v, 2))
    assert work == [(v, reps)] * 6
    assert calls[3:] == [((3, 2, 1, 0), tuple(ncube._point_maps(v).neg.tolist()))]
    assert len(calls) == 4 and keywords[3] == {"rows": 2}
    assert not ncube._relabels_to(cube.array, cube.array.T, ncube._point_maps(v).neg)


def test_every_torus_orbit_of_row_pairs_has_its_least_member_below_row_2_plus_nu():
    """The scalings x -> a*x, a a non-zero square, fix infinity and 0 and
    keep the squares and the non-squares apart; so the lex-least pair of
    each orbit of row pairs starts at row 0, 1, 2 (the element 1) or
    1 + nu (the least non-square), and rows [0, 2 + nu) hold every orbit's
    first pair.  1 + nu is reached once there are two non-squares.  Over
    prime fields and over GF(9), GF(25), GF(27) and GF(49), by Field's
    products."""
    for p in ODD_PRIMES_LE_251[:12] + [9, 25, 27, 49]:
        F, v, nu = Field(p), p + 1, ncube._point_maps(p + 1).nu
        squares = sorted({F.mul(a, a) for a in range(1, p)})
        heads = set()
        for a, b in itertools.combinations(range(v), 2):
            scaled = ([i if i < 2 else 1 + F.mul(s, i - 1) for i in (a, b)] for s in squares)
            heads.add(min(tuple(sorted(pair)) for pair in scaled))
        assert max(a for a, _ in heads) == (1 + nu if p > 3 else 2), p


@pytest.mark.parametrize("budget", BUDGETS)
def test_affine_3_cubes_failing_in_layer_0_past_row_1_give_the_full_report(budget, monkeypatch):
    """paley3 over GF(7) and GF(11) negated on two B-orbits: B fixes them,
    the layer z = inf of pair (0, 1) passes, and the layer z = 0 first fails
    at a row pair (a, b) with a >= 2.  Once B is shown, is_proper scans
    only Gram rows [0, 2 + nu) of those two layers, and reports the full
    scan's first violation."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    scans = scan_calls(monkeypatch)
    for q, ids, pair in ((7, (87, 103), (2, 4)), (11, (177, 183), (2, 7)),
                         (11, (171, 187), (2, 3))):
        c, v = negated_on(paley3(Field(q)), affine_orbits(3, q), *ids), q + 1
        assert ncube._affine_fixes(c)
        del scans[:]
        rep = is_proper(c)
        assert scans == [((2, v, 1, v), 2 + ncube._point_maps(v).nu)]
        assert rep == proper_oracle(c) and rep.pair == pair
        assert (rep.checked_pairs - 1) // (v * (v - 1)) == 1  # the layer z = 0
        assert is_hadamard(c) == is_hadamard_naive(c)


# -- prime-power orders: the digit translations x -> x + p**j ------------------------------

@functools.cache
def orbit_ids(n: int, v: int, perms: tuple) -> np.ndarray:
    """The least flat index of each n-tuple's orbit on range(v)**n under
    the group that perms generate, each relabelling every coordinate
    alike: labels pulled from the generators' images and jumped to their
    own labels until nothing changes, computed once."""
    idx = np.indices((v,) * n).reshape(n, -1)
    weights = v ** np.arange(n - 1, -1, -1)
    images = [weights @ np.asarray(perm)[idx] for perm in perms]
    ids = np.arange(v**n)
    while True:
        new = ids
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, ids):
            ids.flags.writeable = False
            return ids
        ids = new


def translations(v: int) -> tuple:
    """The digit translations of PG(1, v - 1) as tuples, in compare order."""
    return tuple(tuple(tau.tolist()) for tau, _ in ncube._point_maps(v).chain)


@pytest.mark.parametrize("budget", BUDGETS)
def test_prefix_translation_verdicts_match_the_whole_compare(budget, monkeypatch):
    """Over GF(9), GF(25) and GF(27), n in {2, 3}: random cubes constant on
    the orbits of <tau_{j+1}, ..., tau_{k-1}>, the translations compared
    before tau_j, and such cubes that tau_j fixes too, whole or negated on
    one orbit of the smaller group.  tau_j compared on its prefix
    [0, 1 + p**(j + 1)) of axis 0 gives the whole compare's verdict; so
    does the scaling on [0, 2) on cubes constant on the orbits of all the
    translations; and _affine_fixes on a fresh copy is every generator's
    whole verdict."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = np.random.default_rng(20261401 + budget)
    signs = np.array([-1, 1], dtype=np.int8)
    verdicts = []
    for n, q in ((2, 9), (3, 9), (2, 25), (3, 25), (2, 27), (3, 27)):
        v, chain = q + 1, ncube._point_maps(q + 1).chain
        taus = translations(v)
        steps = [(perm, rows, taus[:i]) for i, (perm, rows) in enumerate(chain)]
        steps.append((ncube._point_maps(v).sigma, 2, taus))
        for perm, rows, before in steps:
            for fixed in (False, True):
                group = before + (tuple(perm.tolist()),) * fixed
                ids, base = orbit_ids(n, v, group), orbit_ids(n, v, before)
                for _ in range(2):
                    c = adopt(rng.choice(signs, size=v**n)[ids].reshape((v,) * n))
                    for cube in (c, negated_on(c, base, int(rng.choice(base)))):
                        whole = ncube._relabels_to(cube.array, cube.array, perm)
                        assert ncube._relabels_to(cube.array, cube.array, perm,
                                                  rows=rows) == whole, (n, q, rows)
                        verdicts.append(whole)
                        expected = all(ncube._relabels_to(cube.array, cube.array, g)
                                       for g in (*taus, ncube._point_maps(v).sigma))
                        assert ncube._affine_fixes(adopt(cube.array)) == expected
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("budget", BUDGETS)
def test_prime_power_paley_cubes_and_negated_orbits_match_the_oracles(budget, monkeypatch):
    """paley3 over GF(9), GF(25), GF(27) and GF(49), which B fixes, and
    paley3 over GF(9), GF(25) and GF(27) negated on one orbit of the
    translations A, which B does not fix, or on one B-orbit, which it does:
    the reports are the oracles'.  So are those of the products of
    paley2(GF(27)) in 3 and 4 dimensions, which B fixes, and of the lift of
    paley3(GF(9)), which it does not."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    keys = [("paley3", q) for q in (9, 25, 27, 49)]
    keys += [("product", 27, 3), ("product", 27, 4), ("lift", 9)]
    for key in keys:
        c = cube_of(key)
        assert (is_hadamard(c), is_proper(c)) == oracle_reports(key), key
        assert ncube._affine_fixes(c) == (key[0] != "lift"), key
    rng = np.random.default_rng(20261402 + budget)
    failed = set()
    for q in (9, 25, 27):
        v, taus = q + 1, translations(q + 1)
        sigma = tuple(ncube._point_maps(v).sigma.tolist())
        for group, fixed in ((taus, False), (taus + (sigma,), True)):
            orbits = orbit_ids(3, v, group)
            for orbit in rng.choice(np.unique(orbits), size=3, replace=False):
                c = negated_on(paley3(Field(q)), orbits, int(orbit))
                hadamard, proper = is_hadamard(c), is_proper(c)
                assert hadamard == is_hadamard_naive(c), (q, orbit)
                assert proper == proper_oracle(c), (q, orbit)
                assert ncube._affine_fixes(c) == fixed
                failed.add(hadamard.passed)
    assert failed == {False}  # a negated orbit is never orthogonal to the rest


def test_the_mirror_of_a_prime_power_product_negates_digit_by_digit(monkeypatch):
    """yang_product(paley2(GF(27)), 4) is fixed by B and by the mirror rho,
    x -> -x with the coordinates reversed, whose negation over GF(27) is
    digit by digit (_point_maps): the verifiers compare the translations
    x -> x + 9 (whole), x + 3 and x + 1 (on [0, 10) and [0, 4)), the
    scaling, the rotation, which does not fix the cube, and rho, each on
    [0, 2) but the first, then scan axes 0-1 and pairs (0, 1), (0, 2),
    (0, 3) and (1, 2) alone, with the oracles' reports.  The prime-field
    negation [0, 1, v - 1, ..., 2] does not fix the cube and is never
    compared."""
    key, v = ("product", 27, 4), 28
    cube, expected = cube_of(key), oracle_reports(key)  # building paley2 verifies it
    keywords = []
    calls = relabel_calls(monkeypatch, keywords)
    work = scan_work(monkeypatch)
    assert (is_hadamard(cube), is_proper(cube)) == expected
    reps = sum(hi - lo for lo, hi in ncube._representatives(v, 2))
    assert work == [(3, 1)] * 2 + [(v, reps)] * 4
    rho = tuple(ncube._point_maps(v).neg.tolist())
    sigma = tuple(ncube._point_maps(v).sigma.tolist())
    assert calls == [(None, tau) for tau in translations(v)] + [
        (None, sigma), ((1, 2, 3, 0), None), ((3, 2, 1, 0), rho)]
    assert [kw.get("rows") for kw in keywords] == [None, 10, 4, 2, 2, 2]
    prime_negation = (0, 1, *range(v - 1, 1, -1))
    assert rho != prime_negation
    assert ncube._relabels_to(cube.array, cube.array.T, rho)
    assert not ncube._relabels_to(cube.array, cube.array.T, prime_negation)


def test_a_rows_prefix_of_head_layers_forms_two_gram_rows(monkeypatch):
    """The head layers [0, t) of an axis, passed to _scan as the view
    mats[:, :t] with rows=2, give _first_violation Gram rows [0, 2) of a
    t x t Gram matrix, as operands of different shapes (numpy's gemm, not
    syrk); a whole scan still gets all v rows and a rows prefix its r.  A
    violation between rows 1 and 2 of the prefix is found, on a
    column-block matrix and on the last axis's row blocks."""
    shapes, first = [], ncube._first_violation

    def spied(blocks):
        blocks = list(blocks)
        shapes.append({(x.shape[-2], xt.shape[-1]) for x, xt in blocks})
        return first(blocks)
    monkeypatch.setattr(ncube, "_first_violation", spied)
    c = paley3(Field(17))  # nu = 3: head layers [0, 5)
    axis0 = c.data.reshape(1, 1, 18, -1).transpose(0, 2, 1, 3)
    last = c.data.reshape(1, 18 * 18, 18, 1).transpose(0, 2, 1, 3)
    assert ncube._heads(18) == 5
    assert ncube._scan(axis0[:, :5], rows=2) is None
    assert ncube._scan(last[:, :5], rows=2) is None
    assert ncube._scan(axis0) is None and ncube._scan(axis0, rows=2) is None
    assert shapes == [{(2, 5)}, {(2, 5)}, {(18, 18)}, {(2, 18)}]
    bad = SYL4.array.copy()
    bad[2] = bad[1]  # rows 1 and 2 alike: the one entry above the diagonal that is not 0
    by_columns = np.ascontiguousarray(bad).reshape(1, 4, 1, 4)
    by_rows = np.ascontiguousarray(bad.T).reshape(1, 4, 4, 1).transpose(0, 2, 1, 3)
    for mats in (by_columns, by_rows):
        assert ncube._scan(mats[:, :3], rows=2) == (0, 1, 2, 4)
    assert shapes[4:] == [{(2, 3)}] * 2


def test_the_first_chunk_holds_at_least_budget_over_256_entries(monkeypatch):
    """_scan's first chunk holds one matrix of 4096 entries or more, and
    otherwise as many as make 4096 entries, at the default budget; the
    chunks then double.  At budget 4096 it holds one matrix of 64."""
    sizes, first = [], ncube._first_violation

    def counted(blocks):
        blocks = list(blocks)
        sizes.append(len(blocks[0][0]) if blocks[0][0].ndim == 3 else 1)
        return first(blocks)
    monkeypatch.setattr(ncube, "_first_violation", counted)
    syl8 = np.kron(SYL4.array, H2.array)
    cases = [(syl8, 64, [64]), (paley2(Field(11)).array, 144, [29, 58, 57]),
             (np.kron(syl8, syl8), 64, [1, 2, 4, 8, 16, 32, 1])]
    for h, layers, expected in cases:
        del sizes[:]  # a stack of copies of one Hadamard matrix passes
        assert ncube._scan(np.broadcast_to(h, (layers, *h.shape))[..., None, :]) is None
        assert sizes == expected, len(h)
    monkeypatch.setattr(ncube, "_BUDGET", 4096)
    del sizes[:]
    assert ncube._scan(np.broadcast_to(syl8, (8, 8, 8))[..., None, :]) is None
    assert sizes == [1, 2, 4, 1]


@pytest.mark.parametrize("budget", BUDGETS)
def test_slabs_are_the_spans_of_the_loops_they_replace(budget, monkeypatch):
    """_slabs(total, item, cap) yields the chunk spans of _scan's former
    loop and the slab spans of _relabels_to's, written out here as they
    were, for several totals, item sizes and caps."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)

    def scan_chunks(total, item, cap):  # item = v * cols entries per matrix
        spans, start, size = [], 0, max(1, -(-(budget // 256) // item))
        while start < total:
            stop = min(total, start + size, start + cap)
            spans.append((start, stop))
            start, size = stop, size * 2
        return spans

    def relabel_slabs(end, row, cap):  # row = entries per index of axis 0
        spans, start = [], 0
        size = max(1, -(-(budget // 256) // max(row, 1)))
        while start < end:
            stop = min(end, start + size, start + cap)
            spans.append((start, stop))
            start, size = stop, size * 2
        return spans
    for total, item, cap in itertools.product((0, 1, 2, 5, 17, 100, 1000), (1, 3, 16, 100, 4096, 5000),
                                              (1, 2, 7, 64, 10**6)):
        spans = list(ncube._slabs(total, item, cap))
        assert spans == scan_chunks(total, item, cap) == relabel_slabs(total, item, cap)
        starts, stops = [a for a, _ in spans], [b for _, b in spans]  # they tile range(total)
        assert starts == [0, *stops][:len(spans)] and stops[-1:] == [total][:len(spans)]


def test_gram_dtype_is_exact_up_to_its_bound():
    # float32 holds every integer up to 2**24 and not 2**24 + 1
    assert ncube._gram_dtype(2**24) is np.float32
    assert ncube._gram_dtype(2**24 + 1) is np.float64
    assert int(np.float32(2**24)) == 2**24
    assert int(np.float32(2**24 + 1)) != 2**24 + 1
    assert int(np.float64(2**53 - 1)) == 2**53 - 1


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check,q,factor", [
    (is_hadamard, 251, 1.5),
    (is_proper, 127, 2),
])
def test_verifier_peak_memory(check, q, factor):
    cube = paley3(Field(q))  # the field's tables are warm before tracing
    assert traced_peak(check, cube) <= factor * cube.data.nbytes


@pytest.mark.parametrize("check", [is_hadamard, is_proper])
def test_verifier_peak_memory_from_the_gram_matrix(check):
    """Beside the cube, a verifier holds the Gram matrix, at most one more
    v x v product in flight and about one _BUDGET of other temporaries.
    For a 2-D cube of order 2040 one float32 Gram matrix is 16 MiB, 4x the
    cube, so this bound comes from v, not from the cube's size."""
    cube = paley2(Field(2039))
    v = cube.v
    gram = v * v * np.dtype(ncube._gram_dtype(v)).itemsize
    assert traced_peak(check, cube) <= 2 * gram + 2 * ncube._BUDGET


def test_serialize_and_parse_peak_memory():
    cube = paley3(Field(251))
    text = serialize(cube)
    assert traced_peak(serialize, cube) <= 5 * cube.data.nbytes
    assert traced_peak(parse, text) <= 5 * cube.data.nbytes


def test_block_write_and_read_peak_memory(tmp_path):
    """write and read hold the cube and one budget: the text is never
    whole in memory on either side."""
    cube = paley3(Field(251))
    bound = 1.1 * cube.data.nbytes + ncube._BUDGET
    path = tmp_path / "p251.hdm"
    with open(path, "wb") as f:
        assert cube.data.nbytes + traced_peak(write, cube, f) <= bound
    with open(path, "rb") as f:
        assert traced_peak(read, f) <= bound


# each fault: the corrupted q = 251 file (v = 252) and the report it must give
def bad_last_row_byte(raw: bytes) -> tuple[bytes, str]:
    return raw[:-2] + b"?\n", f"line {raw.count(10)}, column 252: illegal character '?'"


def non_ascii_in_a_middle_row(raw: bytes) -> tuple[bytes, str]:
    mid = len(raw) // 2
    where = f"line {raw.count(10, 0, mid) + 1}, column {mid - raw.rfind(10, 0, mid)}"
    return raw[:mid] + b"\xe9" + raw[mid + 1:], f"{where}: non-ASCII byte 0xe9"


def short_middle_row(raw: bytes) -> tuple[bytes, str]:
    end = raw.index(10, len(raw) // 2)
    return (raw[:end - 1] + raw[end:],
            f"line {raw.count(10, 0, end) + 1}: expected 252 characters, found 251")


@pytest.mark.parametrize("fault", [bad_last_row_byte, non_ascii_in_a_middle_row,
                                   short_middle_row])
def test_read_peak_memory_on_malformed_files(tmp_path, fault):
    """A malformed file costs read no more than a valid one (the bound of
    test_block_write_and_read_peak_memory): the cube is dropped before the
    first fault is searched for, in blocks and single rows."""
    cube = paley3(Field(251))
    raw, report = fault(serialize(cube).encode("ascii"))
    path = tmp_path / "bad.hdm"
    path.write_bytes(raw)
    with open(path, "rb") as f:
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                read(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.1 * cube.data.nbytes + ncube._BUDGET
    assert str(exc.value) == report


@pytest.mark.parametrize("raw,report", [
    (b"+" * (8 << 20) + b"\n", "line 1: header must be 'HDM <n> <v>'"),
    (b"HDM 2 " + b"9" * (8 << 20) + b"\n", "line 1: header number too long"),
], ids=["plus-line", "nines-header"])
def test_read_peak_memory_on_long_header_lines(tmp_path, raw, report):
    """An 8 MiB first line costs read no more than a malformed file (the
    bound of test_read_peak_memory_on_malformed_files): it is read in
    bounded pieces on both paths, never whole."""
    path = tmp_path / "long.hdm"
    path.write_bytes(raw)
    with open(path, "rb") as f:
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                read(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.1 * len(raw) + ncube._BUDGET
    assert str(exc.value) == report


@pytest.mark.parametrize("as_bytes,factor", [(True, 2.5), (False, 3.5)])
def test_parse_peak_memory(as_bytes, factor):
    cube = paley3(Field(251))
    text = serialize(cube)
    source = text.encode("ascii") if as_bytes else text
    assert traced_peak(parse, source) <= factor * cube.data.nbytes


# -- a float64 Gram oracle at prime-power orders ---------------------------------

def gram_oracle(H: SignCube) -> VerifyReport:
    """is_hadamard's report from one float64 product per axis, sharing no
    code with _scan, _relabels_to or the group helpers: the layers of the
    axis as the rows of M, Gram = M @ Mᵀ, exact while v**(n-1) < 2**53,
    and its first nonzero entry above the diagonal in (axis, a, b) order."""
    v = H.v
    pairs = v * (v - 1) // 2
    for axis in range(H.n):
        m = np.moveaxis(H.array, axis, 0).reshape(v, -1).astype(np.float64)
        gram = m @ m.T
        hits = np.argwhere(np.triu(gram, 1) != 0)  # row-major: a, then b
        if len(hits):
            a, b = (int(i) for i in hits[0])
            before = a * (2 * v - a - 1) // 2 + b - a - 1  # pairs (a', b') < (a, b)
            return VerifyReport(False, axis=axis, pair=(a, b), deviation=int(gram[a, b]),
                                checked_pairs=axis * pairs + before + 1)
    return VerifyReport(passed=True, checked_pairs=H.n * pairs)


def test_gram_oracle_matches_the_naive_oracle_on_random_cubes():
    """gram_oracle gives is_hadamard_naive's report, every field, on random
    cubes with v <= 12 and n <= 4: Hadamard cubes (products of Hadamard
    matrices and Paley cubes) with random layers negated and each axis
    relabelled by a random permutation, which keeps every layer pair
    orthogonal; each with one entry flipped; and random sign cubes."""
    rng = np.random.default_rng(20261020)
    bases = [yang_product(m, n) for m in (H2, SYL4, paley2(Field(3)), paley2(Field(7)),
                                          paley2(Field(11))) for n in (2, 3, 4) if m.v**n <= 12**4]
    bases += [paley3(Field(q)) for q in (3, 5, 7, 9, 11)]
    reports = set()
    for base in bases:
        n, v = base.n, base.v
        a = base.array.copy()
        for axis in range(n):
            a = np.take(a, rng.permutation(v), axis=axis)
            signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=v)
            a = a * signs.reshape((v,) + (1,) * (n - 1 - axis))
        flipped = a.copy()
        flipped[tuple(rng.integers(v, size=n))] *= -1
        noise = rng.choice(np.array([-1, 1], dtype=np.int8), size=(v,) * n)
        for entries in (a, flipped, noise):
            c = SignCube(n, v, entries)
            report = gram_oracle(c)
            assert report == is_hadamard_naive(c), (n, v)
            reports.add(report.passed)
    assert reports == {True, False}


def flips_at_and_off_the_heads(H: SignCube, seed: int) -> list:
    """H and two copies with one entry flipped: one at axis-0 index 1, 2 or
    1 + nu, the heads of B's orbits of pairs of points (nu the least
    non-square's index, a head when q = 1 mod 4), and one at an axis-0
    index past them; nu from Field.chi, not from ncube."""
    rng = np.random.default_rng(seed)
    F = Field(H.v - 1)
    nu = next(a for a in F.elems if a and F.chi(a) == -1)
    heads = [1, 2] + [1 + nu] * (F.q % 4 == 1)
    rest = [i for i in range(3, H.v) if i != 1 + nu]
    cubes = [H]
    for first in (int(rng.choice(heads)), int(rng.choice(rest))):
        a = H.array.copy()
        a[(first, *rng.integers(H.v, size=H.n - 1))] *= -1
        cubes.append(SignCube(H.n, H.v, a))
    return cubes


@functools.cache
def prime_power_oracle_cubes() -> tuple:
    """(key, cube, gram_oracle report) for paley3 over GF(81), GF(121) and
    GF(125) and the 4-D product of paley2(GF(27)), each whole and with a
    flip at and off the head layers (flips_at_and_off_the_heads)."""
    bases = [(f"paley3:{q}", paley3(Field(q))) for q in (81, 121, 125)]
    bases.append(("product:27:4", yang_product(paley2(Field(27)), 4)))
    return tuple((key, c, gram_oracle(c)) for i, (key, base) in enumerate(bases)
                 for c in flips_at_and_off_the_heads(base, 20261020 + i))


@pytest.mark.parametrize("budget", BUDGETS)
def test_prime_power_flips_beyond_the_pure_python_oracles(budget, monkeypatch):
    """is_hadamard's full report is gram_oracle's on cubes of orders the
    pure-Python oracles cannot reach in a test's time, where B and the
    mirror prune the scan: paley3 over GF(81), GF(121) and GF(125) and the
    4-D product of paley2(GF(27)), whole and with one entry flipped at a
    head layer and off them, each verified on a fresh copy."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    reports = set()
    for key, c, expected in prime_power_oracle_cubes():
        report = is_hadamard(SignCube(c.n, c.v, c.array))  # an empty record
        assert report == expected, key
        reports.add((report.passed, report.axis))
    assert {(True, None), (False, 0)} <= reports


# -- B-orbit sign patterns: cubes B fixes and the rotation and mirror need not -----

@functools.cache
def pair_orbits(q: int) -> np.ndarray:
    """B's orbit of each ordered pair of points of PG(1, q), infinity
    first, numbered 0-5: (inf, inf), (inf, a), (a, inf), (a, a), and (a, b)
    with b - a a non-zero square, or a non-square; from Field.sub and
    Field.chi, not from ncube."""
    F = Field(q)
    out = np.empty((q + 1, q + 1), dtype=np.intp)
    out[0, 0], out[0, 1:], out[1:, 0] = 0, 1, 2
    for a in F.elems:
        for b in F.elems:
            out[1 + a, 1 + b] = 3 if a == b else 4 if F.chi(F.sub(b, a)) == 1 else 5
    out.flags.writeable = False
    return out


@functools.cache
def pattern_base(key: tuple) -> SignCube:
    return cube_of(key)


def orbit_pattern_cube(key: tuple, i: int, j: int, bits: int) -> SignCube:
    """cube_of(key) times f(x_i, x_j), f the ±1 function constant on B's
    orbits of ordered pairs of points (pair_orbits) whose sign on orbit k
    is bit k of bits.  B fixes it, as it fixes the base."""
    base = pattern_base(key)
    shape = [1] * base.n
    shape[i] = shape[j] = base.v
    f = np.where(bits >> pair_orbits(base.v - 1) & 1, -1, 1).astype(np.int8)
    return adopt(base.array * f.reshape(shape))


def proper_gram_oracle(H: SignCube) -> VerifyReport:
    """is_proper's report from float64 products, sharing no code with
    _scan, _relabels_to or the group helpers: for each axis pair
    (j1, j2) in order, one batched M @ Mᵀ and one Mᵀ @ M over the pair's
    2-D layers M in scan order, exact while v < 2**53, and the first
    nonzero entry above a diagonal by layer, then rows before columns,
    then (a, b), as proper_oracle reads them."""
    v, n = H.v, H.n
    layers, half = v ** (n - 2), v * (v - 1) // 2
    upper = np.triu(np.ones((v, v), dtype=bool), 1)
    for i, (j1, j2) in enumerate(itertools.combinations(range(n), 2)):
        others = [j for j in range(n) if j not in (j1, j2)]
        m = H.array.transpose(*others, j1, j2).reshape(layers, v, v).astype(np.float64)
        grams = m @ m.transpose(0, 2, 1), m.transpose(0, 2, 1) @ m  # rows, then columns
        bad = [((g != 0) & upper).reshape(layers, -1).any(axis=1) for g in grams]
        if (bad[0] | bad[1]).any():
            k = int(np.argmax(bad[0] | bad[1]))
            side = 0 if bad[0][k] else 1
            gram = grams[side][k]
            a, b = (int(x) for x in np.argwhere((gram != 0) & upper)[0])
            before = a * (2 * v - a - 1) // 2 + b - a - 1  # pairs (a', b') < (a, b)
            return VerifyReport(False, axis=(j1, j2)[side], pair=(a, b),
                                deviation=int(gram[a, b]),
                                checked_pairs=((i * layers + k) * 2 + side) * half + before + 1)
    return VerifyReport(passed=True, checked_pairs=math.comb(n, 2) * layers * 2 * half)


@functools.cache
def orbit_pattern_oracles(key: tuple, i: int, j: int, bits: int) -> tuple:
    """(is_hadamard, is_proper) reports of orbit_pattern_cube from the
    oracles, computed once for all budgets: is_hadamard_naive and
    proper_oracle up to order 14, where gram_oracle and
    proper_gram_oracle must agree with them, and those two beyond."""
    c = orbit_pattern_cube(key, i, j, bits)
    grams = gram_oracle(c), proper_gram_oracle(c)
    if c.v > 14:
        return grams
    assert grams == (is_hadamard_naive(c), proper_oracle(c)), (key, i, j, bits)
    return grams


# (base, stride at the default budget, stride below it): on its k-th
# coordinate pair a base takes the functions numbered k mod stride up to
# 63, so stride 3 takes each function once, and a stride below the default
# budget, a multiple of the default one, takes a subset of its functions;
# the strides keep the pure-Python oracles of the 4-D product and the
# small-budget scans of the larger cubes to a few seconds
ORBIT_PATTERN_BASES = {
    "pure-python": ((("paley3", 11), 1, 1), (("paley3", 13), 1, 1),
                    (("product", 11, 4), 6, 6)),
    "gram": ((("paley3", 49), 1, 4), (("paley3", 81), 3, 6),
             (("paley3", 121), 8, 16), (("paley3", 125), 8, 16)),
}


@pytest.mark.parametrize("oracles", ORBIT_PATTERN_BASES)
@pytest.mark.parametrize("budget", BUDGETS)
def test_orbit_sign_patterns_give_the_oracles_reports(budget, oracles, monkeypatch):
    """Cubes that B fixes but the rotation and the mirror need not: a base
    times a B-orbit sign pattern f(x_i, x_j) on (i, j) = (0, 1), (1, 2) and
    (0, n - 1) (orbit_pattern_cube).  Both verifiers' full reports, on a
    fresh cube and again with its verdicts kept, are the oracles' (orbit_pattern_oracles):
    the pure-Python ones over paley3(GF(11)), paley3(GF(13)) and the 4-D
    product of paley2(GF(11)), the float64 ones over paley3 at q in
    {49, 81, 121, 125}, where nu >= p widens the head prefix at 49, 81 and
    121.  Many first fail on axis 1, past the head prefix of axis 0 and
    B's compare: is_hadamard on 32 of paley3(GF(13))'s 192 patterns, and
    is_proper on 48 of paley3(GF(11))'s."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    later = collections.Counter()
    for key, default_stride, stride in ORBIT_PATTERN_BASES[oracles]:
        stride = default_stride if budget == BUDGETS[-1] else stride
        n = pattern_base(key).n
        for k, (i, j) in enumerate(((0, 1), (1, 2), (0, n - 1))):
            for bits in range(k % stride, 64, stride):
                c = orbit_pattern_cube(key, i, j, bits)
                reports = is_hadamard(c), is_proper(c)
                assert reports == orbit_pattern_oracles(key, i, j, bits), (key, i, j, bits)
                assert (is_hadamard(c), is_proper(c)) == reports, (key, i, j, bits)
                assert ncube._affine_fixes(c), (key, i, j, bits)
                later.update((key, name) for name, rep in zip(("hadamard", "proper"), reports)
                             if rep.axis == 1)
    if oracles == "pure-python":
        assert later[("paley3", 13), "hadamard"] == 32 and later[("paley3", 11), "proper"] == 48
    assert all(later[key, "hadamard"] + later[key, "proper"]
               for key, _, _ in ORBIT_PATTERN_BASES[oracles])


def psl_oracle(c: SignCube, F: Field) -> bool:
    """Is c fixed by each of the three psl_generators(F), each relabelling
    made by one whole np.ix_ gather?  Shares no code with _relabels_to,
    B's point maps or the record of verdicts."""
    arr = c.array
    return all(np.array_equal(arr[np.ix_(*[np.asarray(g.perm())] * 3)], arr)
               for g in psl_generators(F))


@functools.cache
def psl_cases() -> tuple:
    """(q, kind, entries, psl_oracle's verdict): paley3 at q in {3, 5, 7,
    9, 11, 13, 25, 27, 49}, one seeded one-entry flip of it, the same flip
    with its image under the inversion iota: x -> -1/x, which iota fixes
    and B does not (unless iota fixes the entry, and the flip is undone),
    and almost_cube(F, 3); and the B-orbit sign patterns of
    orbit_pattern_cube on paley3 at q = 11, 13 and 49, which B fixes, so
    the inversion alone decides."""
    rng = np.random.default_rng(20261022)
    cases = []
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 49):
        F = Field(q)
        at = tuple(rng.integers(q + 1, size=3))
        flipped = paley3(F).array.copy()
        flipped[at] *= -1
        paired = flipped.copy()
        paired[tuple(np.asarray(psl_generators(F)[1].perm())[list(at)])] *= -1
        cases += [(q, "paley3", paley3(F).array), (q, "flip", flipped),
                  (q, "iota-pair", paired), (q, "almost", almost_cube(F, 3).array)]
    cases += [(q, "pattern", orbit_pattern_cube(("paley3", q), i, j, bits).array)
              for q in (11, 13, 49) for i, j in ((0, 1), (1, 2), (0, 2)) for bits in range(64)]
    return tuple((q, kind, arr, psl_oracle(adopt(arr), Field(q))) for q, kind, arr in cases)


@pytest.mark.parametrize("budget", BUDGETS)
def test_psl_verdict_is_the_three_generators_verdict(budget, monkeypatch):
    """check_psl_invariance decides B and then the inversion alone; its
    verdict is psl_oracle's, the three generators compared whole, on every
    cube of psl_cases: through SignCube(...) with an empty record, and
    on a second copy after is_proper and check_cyclic, whose kept B
    verdict it reads.  B fixes every orbit pattern, and some are fixed by
    PSL and some not; some cubes that the inversion fixes are not."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    verdicts = collections.Counter()
    for q, kind, arr, expected in psl_cases():
        F, fresh, warm = Field(q), SignCube(3, q + 1, arr), SignCube(3, q + 1, arr)
        is_proper(warm), check_cyclic(warm)
        assert check_psl_invariance(fresh, F) == check_psl_invariance(warm, F) == expected, q
        assert kind != "pattern" or ncube._affine_fixes(fresh)
        verdicts[kind, expected] += 1
    assert verdicts["paley3", True] == 9 and verdicts["flip", False] == verdicts["almost", False] == 9
    assert verdicts["pattern", True] and verdicts["pattern", False] and verdicts["iota-pair", False]


@functools.cache
def psl_cases_at_121() -> tuple:
    """(entries, psl_oracle's verdict) of a few B-orbit sign patterns of
    paley3(GF(121)) (orbit_pattern_cube), on each coordinate pair: the
    diagonal orbits negated and the off-diagonal ones, which PSL fixes,
    and single orbits, which it does not."""
    F = Field(121)
    cases = []
    for (i, j), bits in (((0, 1), 0b001001), ((1, 2), 0b110110), ((0, 2), 0b010000),
                         ((0, 1), 0b100000), ((1, 2), 0b000010), ((0, 2), 0b001000)):
        c = orbit_pattern_cube(("paley3", 121), i, j, bits)
        cases.append((c.array, psl_oracle(c, F)))
    return tuple(cases)


@pytest.mark.parametrize("budget", BUDGETS)
def test_psl_verdict_on_the_widest_torus_prefix(budget, monkeypatch):
    """At q = 121, nu = 12, so once B is shown check_psl_invariance
    compares the inversion on indices [0, 14) of axis 0 alone, the widest
    prefix of the orders psl_cases builds.  Its verdict is psl_oracle's
    on B-orbit sign patterns that PSL fixes and that it does not, on a
    cube with an empty record and on one whose B verdict is kept, where
    the inversion is the one compare."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    F = Field(121)
    inversion = psl_generators(F)[1].perm()
    assert ncube._point_maps(122).nu == 12
    verdicts, relabels = set(), ncube._relabels_to
    for arr, expected in psl_cases_at_121():
        fresh, warm = SignCube(3, 122, arr), SignCube(3, 122, arr)
        assert check_psl_invariance(fresh, F) == expected
        assert ncube._affine_fixes(warm) and warm._fixed == {"B": True}
        keywords = []
        calls = relabel_calls(monkeypatch, keywords)
        assert check_psl_invariance(warm, F) == expected
        assert calls == [(None, inversion)] and keywords == [{"rows": 14}]
        monkeypatch.setattr(ncube, "_relabels_to", relabels)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_a_hit_in_gram_row_0_of_the_head_prefix_is_reported_with_no_compare(monkeypatch):
    """A fresh paley3(GF(49)) with one entry flipped at axis-0 index x, for
    each x in [3, 11) but 1 + nu = 10, fails first at (0, x) of axis 0:
    the flip changes the inner products of layer x alone.  (0, x) lies in
    Gram row 0 of the head prefix [0, 2 + nu) = [0, 11), so it is the full
    scan's first violation whatever the group, and is reported before any
    relabelling is compared; a shortcut kept to (0, 1) and (0, 2) would
    first compare B, and find that it does not fix the flipped cube."""
    base = paley3(Field(49))
    assert ncube._heads(50) == 11
    calls = relabel_calls(monkeypatch)
    for x in (3, 4, 5, 6, 7, 8, 9):
        a = base.array.copy()
        a[x, 7, 23] *= -1
        c = SignCube(3, 50, a)
        report = is_hadamard(c)
        assert (report.axis, report.pair) == (0, (0, x))
        assert report == gram_oracle(c)
        assert calls == []


# -- the per-thread scratch ------------------------------------------------------

def in_a_new_thread(fn):
    """fn() run in a thread of its own, which starts with no scratch; its
    result, or its exception raised here."""
    out = {}

    def body():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised in the calling thread
            out["error"] = exc
    t = threading.Thread(target=body)
    t.start()
    t.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_scratch_keeps_requests_up_to_the_budget_only(monkeypatch):
    """A thread's scratch takes all _BUDGET bytes on its first request,
    however small, and never grows: every request of at most _BUDGET
    bytes is a view of its front, and a larger one gets a fresh array,
    which is not kept.  Only a changed _BUDGET makes it again."""
    monkeypatch.setattr(ncube, "_BUDGET", 4096)

    def requests():
        first = ncube._scratch(100, np.uint8)
        held = ncube._held.buf
        assert held.nbytes == 4096 and first.base is held
        full = ncube._scratch(1024, np.float32)  # 4096 bytes: the whole budget
        assert full.dtype == np.float32 and full.shape == (1024,)
        again = ncube._scratch(10, np.float64)
        assert {x.ctypes.data for x in (first, full, again)} == {held.ctypes.data}
        big = ncube._scratch(1025, np.float32)
        assert big.shape == (1025,) and not np.shares_memory(big, held)
        assert ncube._held.buf is held and ncube._scratch(4096, np.uint8).base is held
        monkeypatch.setattr(ncube, "_BUDGET", 8192)
        assert ncube._scratch(1, np.uint8).base is ncube._held.buf is not held
        assert ncube._held.buf.nbytes == 8192
    in_a_new_thread(requests)
    assert in_a_new_thread(lambda: getattr(ncube._held, "buf", None)) is None


def test_a_fresh_threads_read_holds_the_cube_and_one_budget(tmp_path):
    """read of paley3(GF(127)) (2 MiB cube) in a thread with no scratch
    yet: its row blocks and the ±1 check of the cube it adopts are views
    of one scratch of _BUDGET bytes, so tracemalloc's peak is the cube,
    _BUDGET and a few kB.  A scratch grown to each larger request peaked
    at the cube and two budgets: the check's slab came while read still
    held its row blocks."""
    cube = paley3(Field(127))
    path = tmp_path / "p127.hdm"
    with open(path, "wb") as f:
        write(cube, f)
    with open(path, "rb") as f:
        peak = in_a_new_thread(lambda: traced_peak(read, f))
        f.seek(0)
        assert read(f) == cube
    assert peak <= cube.data.nbytes + ncube._BUDGET + (16 << 10)


def test_a_fresh_threads_first_whole_compare_peaks_within_the_budget():
    """The first whole compare in a thread with no scratch yet, of the
    rotation, the shift or the mirror of paley3(GF(127)) (2 MiB cube),
    grows the scratch slab by slab: each slab's views are released, and
    the old buffer freed, before the next, larger slab is made, so
    tracemalloc's peak stays within _BUDGET and a few kB (numpy's ufunc
    buffers).  Holding the previous slab's views peaked at about
    1.5 x _BUDGET."""
    cube = paley3(Field(127))
    a, v = cube.array, cube.v
    assert a.nbytes >= 2 * ncube._BUDGET
    for dst, perm in ((a.transpose(1, 2, 0), None), (a, shift(v)), (a.T, ncube._point_maps(v).neg)):
        peak = in_a_new_thread(lambda: traced_peak(ncube._relabels_to, a, dst, perm))
        assert peak <= ncube._BUDGET + (16 << 10), (view_axes(a, dst), peak)


def test_a_warm_scratch_keeps_a_second_check_under_the_budget():
    """After one warm call, is_hadamard on a copy of paley3(GF(59)), which
    scans its prefix and makes its shift and rotation compares again,
    allocates a small fraction of _BUDGET: its float buffer and its slabs
    are views of the thread's scratch.  With buffers made on every call it
    peaked at about 1.05 MB."""
    cube = paley3(Field(59))
    assert is_hadamard(cube).passed
    copy = SignCube(3, 60, cube.array)
    assert traced_peak(is_hadamard, copy) < ncube._BUDGET / 16
    assert copy._fixed == cube._fixed


@pytest.mark.parametrize("budget", BUDGETS)
def test_threads_verifying_at_once_give_the_serial_reports(budget, monkeypatch):
    """Two threads (at most one per CPU) verify paley3 over GF(47), GF(59)
    and GF(71), each whole and with one entry flipped, at the same time and
    in opposite orders, each on cubes of its own, so each makes every scan
    and compare through its own scratch; their reports and _relabels_to
    verdicts are those of the same calls made serially."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    arrays = []
    for q in (47, 59, 71):
        arr = paley3(Field(q)).array
        flipped = arr.copy()
        flipped[5, 3, 7] *= -1
        arrays += [arr, flipped]

    def results(order):
        out = {}
        for i in order:
            c = SignCube(3, arrays[i].shape[0], arrays[i])  # an empty record
            out[i] = (is_hadamard(c), is_proper(c),
                      ncube._relabels_to(c.array, c.array, shift(c.v)),
                      ncube._relabels_to(c.array, c.array.transpose(1, 2, 0)))
        return out
    forward = list(range(len(arrays)))
    serial = results(forward)
    assert {v[2] for v in serial.values()} == {True, False}
    workers = min(2, os.cpu_count() or 1)
    start = threading.Barrier(workers)

    def at_once(order):
        start.wait()
        return results(order)
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        runs = [pool.submit(at_once, order) for order in (forward, forward[::-1])[:workers]]
        assert [run.result() for run in runs] == [serial] * workers


def as_view(x: np.ndarray, axes) -> np.ndarray:
    """A view equal to x that reads a C-order copy through transpose(axes),
    as _rotation_fixes hands _relabels_to the view of a coordinate
    permutation; x itself when axes is None."""
    if axes is None:
        return x
    return np.ascontiguousarray(x.transpose(np.argsort(axes))).transpose(axes)


@pytest.mark.parametrize("budget", BUDGETS)
def test_relabels_to_with_rows_past_the_end_compares_every_index(budget, monkeypatch):
    """rows beyond the length of axis 0 compares every index, as rows=None
    does: a difference in the last index is found, with and without a
    perm, and against a C-order dst and a transposed view."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = np.random.default_rng(20261019)
    for n, v in ((1, 6), (2, 7), (3, 6), (4, 5)):
        arr = rng.choice(np.array([-1, 1], dtype=np.int8), size=(v,) * n)
        axes = (*range(1, n), 0)
        for perm, a in ((None, axes), (shift(v), None), (shift(v), axes)):
            whole = arr if perm is None else arr[np.ix_(*[perm] * n)]
            bad = whole.copy()
            bad[(v - 1,) * n] *= -1
            for rows in (v, v + 1, 10 * v):
                assert ncube._relabels_to(arr, as_view(whole, a), perm, rows=rows)
                assert not ncube._relabels_to(arr, as_view(bad, a), perm, rows=rows)


@pytest.mark.parametrize("budget", BUDGETS)
def test_relabels_to_with_perm_and_axes_gives_the_transposed_gather_verdicts(budget, monkeypatch):
    """Given a perm and a dst read through transpose(axes), _relabels_to
    compares src relabelled with dst as dst lies: the transposed view
    gives the verdicts of its C-order copy, and both are those of a
    fancy-index relabelling compared on indices [0, rows) of axis 0, for
    random cubes, perms and axes.  dst is the exact relabelling, that with
    one entry flipped, another random cube, and src itself read through
    the transpose, as _rotation_fixes compares a coordinate permutation."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = np.random.default_rng(20261202)
    verdicts = set()
    for n, v in ((1, 7), (2, 6), (3, 5), (3, 8), (4, 4), (5, 3)):
        for _ in range(4):
            arr = rng.choice(np.array([-1, 1], dtype=np.int8), size=(v,) * n)
            perm, axes = rng.permutation(v), tuple(rng.permutation(n).tolist())
            exact = arr[np.ix_(*[perm] * n)]
            flipped = exact.copy()
            flipped[tuple(rng.integers(v, size=n))] *= -1
            other = rng.choice(np.array([-1, 1], dtype=np.int8), size=(v,) * n)
            views = [as_view(x, axes) for x in (exact, flipped, other)] + [arr.transpose(axes)]
            for view in views:
                copied = np.ascontiguousarray(view)
                for rows in (None, 1, 2, v):
                    verdict = ncube._relabels_to(arr, view, perm, rows=rows)
                    assert verdict == ncube._relabels_to(arr, copied, perm, rows=rows)
                    assert verdict == np.array_equal(exact[:rows], copied[:rows])
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def test_relabels_to_with_perm_and_axes_holds_no_copy_of_the_cube():
    """The mirror of paley3(GF(127)) (2 MiB cube): the perm x -> -x against
    the view with the axes reversed, cube.array.T, on indices [0, 2) and
    whole, in a thread whose scratch is taken.  The slabs are views of
    the scratch and dst is read as a view, so tracemalloc's peak stays a
    small fraction of _BUDGET.  A gather from the transposed cube copied
    it whole first (2.1 MB with rows=2)."""
    cube = paley3(Field(127))
    neg, mirror = ncube._point_maps(cube.v).neg, cube.array.T
    assert cube.data.nbytes >= 2 * ncube._BUDGET

    def peaks():
        ncube._scratch(1, np.uint8)  # takes the thread's scratch
        return (traced_peak(ncube._relabels_to, cube.array, mirror, neg, 2),
                traced_peak(ncube._relabels_to, cube.array, mirror, neg))
    restricted, whole = in_a_new_thread(peaks)
    assert restricted < ncube._BUDGET / 16
    assert whole < ncube._BUDGET / 16
    assert ncube._relabels_to(cube.array, mirror, neg, rows=2)
    assert ncube._relabels_to(cube.array, mirror, neg)


def test_verify_report_shape():
    rep = is_hadamard(SYL4)
    assert rep == VerifyReport(passed=True, checked_pairs=2 * 6)
    assert rep.axis is None and rep.pair is None and rep.deviation is None


# -- serialization -----------------------------------------------------------------

def test_serialize_example():
    assert serialize(H2) == "HDM 2 2\n++\n+-\n"


def test_parse_example():
    assert parse("HDM 2 2\n++\n+-\n") == H2


def test_parse_illegal_character():
    with pytest.raises(ParseError) as exc:
        parse("HDM 2 2\n++\n+?\n")
    assert exc.value.line == 3
    assert exc.value.column == 2


def test_parse_ascii_bytes():
    assert parse(b"HDM 2 2\n++\n+-\n") == H2
    with pytest.raises(ParseError) as exc:
        parse(b"HDM 2 2\n++\n+?\n")
    assert (exc.value.line, exc.value.column) == (3, 2)


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("HDM 2 2\n++\n+-", 3),          # missing final newline
    ("HDM 2\n", 1),                  # short header
    ("HDM  2 2\n++\n+-\n", 1),       # double space
    ("HDM 2 2 \n++\n+-\n", 1),       # trailing space in header
    ("HDM x 2\n++\n+-\n", 1),        # non-decimal
    ("HDM \u00b2 2\n++\n+-\n", 1),   # superscript two: isdigit, not int
    ("HDM 2 \u0662\n++\n+-\n", 1),   # Arabic-Indic two: a decimal, not ASCII
    ("HDM 2 2\n++\n", 3),            # missing data line
    ("HDM 2 2\n++\n+-\n--\n", 4),    # trailing data line
    ("HDM 2 2\n++\n+-+\n", 3),       # wrong row length
    ("HDM 0 2\n", 1),                # bad dimension
    ("HDM 33 1\n+\n", 1),            # more axes than MAX_AXES
    pytest.param("HDM 1000000 3\n", 2, id="rows-too-long-to-print"),
    pytest.param("HDM 2 " + "9" * 5000 + "\n", 1, id="v-too-long-for-int"),
    pytest.param("HDM 1 " + "9" * 30 + "\n+\n", 2, id="row-longer-than-the-file"),
    pytest.param("HDM 1 " + "9" * 4300 + "\n++\n", 2, id="row-longer-than-any-size"),
])
def test_parse_rejects_malformed(text, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line


def test_parse_accepts_order_1_up_to_the_axis_cap():
    assert parse("HDM 32 1\n+\n").n == ncube.MAX_AXES == 32


def test_parse_hostile_header_is_quick():
    start = time.perf_counter()
    with pytest.raises(ParseError, match=r"line 2: expected 3\*\*9999999 data lines"):
        parse("HDM 10000000 3\n")
    assert time.perf_counter() - start < 0.5


def reference_text(c: SignCube) -> bytes:
    """The HDM v1 text built row by row, as an oracle for write."""
    rows = c.data.reshape(-1, c.v).tolist()
    body = "".join("".join("+" if x == 1 else "-" for x in row) + "\n" for row in rows)
    return f"HDM {c.n} {c.v}\n{body}".encode("ascii")


@pytest.mark.parametrize("budget", BUDGETS)
def test_write_read_round_trip_at_shrunken_budgets(budget, monkeypatch, tmp_path):
    """write then read, one row per block at budget 1 and a partial last
    block where the rows do not divide evenly: against the row-by-row
    text, serialize, parse and the stored digests."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = random.Random(budget)
    cubes = [H2, SignCube(1, 3, [1, 1, -1]), SignCube(2, 1, [1]), paley3(Field(49))]
    cubes += [random_cube(rng, n, v) for n, v in ((4, 5), (3, 7), (2, 40))]
    path = tmp_path / "c.hdm"
    for c in cubes:
        with open(path, "wb") as f:
            write(c, f)
        raw = path.read_bytes()
        assert raw == reference_text(c) == serialize(c).encode("ascii")
        with open(path, "rb") as f:
            assert read(f) == parse(raw) == c
    pinned = json.loads(PINS.read_text())["hdm"]
    for q in ("49", "53"):
        out = io.BytesIO()
        write(paley3(Field(int(q))), out)
        assert hashlib.sha256(out.getvalue()).hexdigest() == pinned[q], f"q={q}"


def test_round_trip_various():
    rng = random.Random(5)
    cubes = [H2, SYL4, product_cube(SYL4, 3), SignCube(1, 3, [1, 1, -1])]
    cubes += [random_cube(rng, n, v) for n in (2, 3) for v in (3, 5)]
    for c in cubes:
        text = serialize(c)
        assert parse(text) == c
        assert serialize(parse(text)) == text
