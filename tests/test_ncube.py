import random

import numpy as np
import pytest

from hdmkit.errors import (
    DimensionTooSmall,
    EmptyFix,
    FullFix,
    IndexOutOfRange,
    ParseError,
    ShapeMismatch,
)
from hdmkit.ncube import (
    SignCube,
    VerifyReport,
    is_hadamard,
    is_hadamard_naive,
    is_proper,
    layer,
    parse,
    serialize,
)

H2 = SignCube(2, 2, [1, 1, 1, -1])
SYL4 = SignCube(2, 4, np.kron(H2.array, H2.array))


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


def test_get_out_of_range():
    c = SignCube(2, 2, [1, 1, 1, -1])
    with pytest.raises(IndexOutOfRange):
        c.get((0, 2))
    with pytest.raises(IndexOutOfRange):
        c.get((0,))


def test_cube_new_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        SignCube(3, 2, [1] * 7)


def test_cube_new_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignCube(2, 2, [1, 1, 0, -1])


def test_data_is_immutable():
    c = SignCube(2, 2, [1, 1, 1, -1])
    with pytest.raises(ValueError):
        c.data[0] = -1


def test_flat_order_last_index_fastest():
    c = SignCube(3, 2, [1, -1, 1, 1, 1, 1, 1, 1])
    assert c.get((0, 0, 1)) == -1  # offset 1


# -- layer ------------------------------------------------------------------------

def test_layer_fixes_one_coordinate():
    c = product_cube(H2, 3)
    sl = layer(c, {2: 1})
    assert sl.n == 2 and sl.v == 2
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
])
def test_parse_rejects_malformed(text, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line


def test_round_trip_various():
    rng = random.Random(5)
    cubes = [H2, SYL4, product_cube(SYL4, 3), SignCube(1, 3, [1, 1, -1])]
    cubes += [random_cube(rng, n, v) for n in (2, 3) for v in (3, 5)]
    for c in cubes:
        text = serialize(c)
        assert parse(text) == c
        assert serialize(parse(text)) == text
