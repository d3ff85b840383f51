"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

All assertions are exact integer equalities (tolerance zero).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import random
import time
from functools import lru_cache

import numpy as np
import pytest

from hdmkit import ncube
from hdmkit.cli import main as cli_main
from hdmkit.constructions import almost_cube, dim_lift, paley2, paley3, yang_product
from hdmkit.errors import ParseError
from hdmkit.gf import Field
from hdmkit.ncube import (
    is_hadamard,
    is_hadamard_naive,
    is_proper,
    layer,
    parse,
    serialize,
)
from hdmkit.projline import INF, PPoint, identity, pg_index, psl_generators
from hdmkit.symmetry import check_cyclic, check_permutation_invariance, check_psl_invariance

# every order exercised by criterion 1, including the newly covered
# v = q+1 in {10, 14, 26, 30, 38, 42}
Q_ALL = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 49, 81, 101]
Q_3MOD4 = [3, 7, 11, 19, 23, 31, 43, 47]
Q_1MOD4 = [5, 9, 13, 17, 25, 29, 37, 41, 49]


@lru_cache(maxsize=None)
def field(q):
    return Field(q)


@lru_cache(maxsize=None)
def p3(q):
    return paley3(field(q))


@lru_cache(maxsize=None)
def p2(q):
    return paley2(field(q))


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_criterion_1_existence_for_all_supported_orders():
    start = time.perf_counter()
    failures = [q for q in Q_ALL if not is_hadamard(p3(q)).passed]
    elapsed = time.perf_counter() - start
    ok = report(1, "3-D construction verifies for all q", not failures,
                f"{len(Q_ALL)} orders in {elapsed:.2f}s")
    assert ok, f"not Hadamard for q in {failures}"


def test_criterion_2_propriety_split_by_q_mod_4():
    bad_proper = [q for q in Q_3MOD4 if not is_proper(p3(q)).passed]
    bad_layer = [q for q in Q_3MOD4 if layer(p3(q), {2: 0}) != p2(q)]
    bad_improper = [q for q in Q_1MOD4 if is_proper(p3(q)).passed]
    # for q = 1 (mod 4) the z = infinity layer, scanned first, has order
    # q + 1 = 2 (mod 4), so it cannot be Hadamard: is_proper's report is
    # that layer's report, an O(v^3) oracle for cubes of any size
    bad_witness = [q for q in Q_1MOD4
                   if is_proper(p3(q)) != is_hadamard_naive(layer(p3(q), {2: 0}))]
    ok = report(2, "propriety iff q = 3 (mod 4)",
                not (bad_proper or bad_layer or bad_improper or bad_witness))
    assert ok, (bad_proper, bad_layer, bad_improper, bad_witness)


def test_criterion_3_proof_partial_sums():
    bad = {}
    for q in [3, 5, 7, 9, 11, 13]:
        prod = p3(q).array[:, :, 1].astype(int) * p3(q).array[:, :, 0].astype(int)
        v = q + 1
        units = range(2, v)  # indices of the nonzero field elements
        s1 = sum(int(prod[i, i]) for i in range(v))
        s2 = int(prod[1, 0]) + int(prod[0, 1])
        s3 = sum(int(prod[i, 0] + prod[i, 1] + prod[0, i] + prod[1, i]) for i in units)
        s4 = sum(int(prod[i, j]) for i in units for j in units if i != j)
        expected = (q - 3, 2, 0, 1 - q)
        if (s1, s2, s3, s4) != expected or s1 + s2 + s3 + s4 != 0:
            bad[q] = (s1, s2, s3, s4)
    ok = report(3, "layer-pair sum splits as (q-3) + 2 + 0 + (1-q)", not bad)
    assert ok, bad


def test_criterion_4_invariance_lemmas():
    bad_cyc = [q for q in Q_ALL if not check_cyclic(p3(q))]
    bad_psl = [q for q in Q_ALL if not check_psl_invariance(p3(q), field(q))]
    F = field(7)
    g = F.primitive_element()
    nonsquare_scaling = [0] + [1 + F.mul(g, e) for e in F.elems]
    counterexample_fails = not check_permutation_invariance(p3(7), nonsquare_scaling)
    ok = report(4, "cyclic + PSL invariance; non-square scaling breaks",
                not bad_cyc and not bad_psl and counterexample_fails)
    assert ok, (bad_cyc, bad_psl, counterexample_fails)


def test_criterion_5_product_and_lift():
    bad = []
    for q in (3, 7, 11):
        cube = yang_product(p2(q), 3)
        if not is_proper(cube).passed:
            bad.append(("product", q))
        if not is_hadamard(dim_lift(cube)).passed:
            bad.append(("lift-of-product", q))
    lifted = dim_lift(p3(5))
    if not (lifted.n == 4 and lifted.v == 6 and is_hadamard(lifted).passed):
        bad.append(("lift-of-3cube", 5))
    ok = report(5, "pairwise product is proper; lift stays Hadamard", not bad)
    assert ok, bad


def test_criterion_6_negative_control():
    # The coordinate-sum cube is rejected at the first pair of x-layers:
    # x = infinity is all-ones, and x = 0 sums to (2q + 1) + q * chi0 = q + 1.
    # Its 2-D layers split by q mod 4: in a layer fixed at a finite value the
    # infinity row is orthogonal to every finite row (1 + chi0 = 0), and two
    # finite rows b != c have inner product chi0 * chi(c - b) * (1 + chi(-1)),
    # which is 0 for q = 3 (mod 4) and -2 * chi(c - b) for q = 1 (mod 4); the
    # first such pair is rows (1, 2), the field elements 0 and 1.
    faults = {}
    for q in (3, 5, 7, 9):
        F = field(q)
        cube = almost_cube(F, 3)
        finite_failure = (False, 0, (1, 2), -2 * F.chi(F.sub(1, 0)))
        bad = []
        whole = is_hadamard(cube)
        if (whole.passed, whole.axis, whole.pair, whole.deviation) != (False, 0, (0, 1), q + 1):
            bad.append(("cube", whole))
        for axis in range(3):
            if not np.all(layer(cube, {axis: 0}).data == 1):
                bad.append(("infinity layer not all-ones", axis))
            for val in range(1, cube.v):
                got = is_hadamard(layer(cube, {axis: val}))
                if q % 4 == 3:
                    ok_layer = got.passed
                else:
                    ok_layer = (got.passed, got.axis, got.pair, got.deviation) == finite_failure
                if not ok_layer:
                    bad.append(("finite layer", axis, val, got))
        if bad:
            faults[q] = bad
    ok = report(6, "coordinate-sum cube fails; its 2-D layers split by q mod 4",
                not faults, f"faults for q={sorted(faults)}" if faults else "")
    assert ok, faults


@pytest.mark.parametrize("budget", [1, 256, 1 << 20])
def test_criterion_7_verifier_oracle_equivalence(budget, monkeypatch):
    """At each budget of test_ncube.BUDGETS: one column per block at 1."""
    monkeypatch.setattr(ncube, "_BUDGET", budget)
    rng = random.Random(20240601)
    mismatches = 0
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        v = rng.choice((2, 4, 6, 8))
        from hdmkit.ncube import SignCube
        cube = SignCube(n, v, [rng.choice((1, -1)) for _ in range(v**n)])
        if is_hadamard(cube) != is_hadamard_naive(cube):
            mismatches += 1
    ok = report(7, "Gram verifier matches naive summation", mismatches == 0,
                f"200 random cubes, budget {budget}")
    assert ok, f"{mismatches} mismatching reports"


def test_criterion_8_order_22_not_covered(tmp_path, capsys):
    code = cli_main(["construct", "--kind", "paley3", "--v", "22",
                     "--out", str(tmp_path / "m.hdm")])
    err = capsys.readouterr().err
    ok = report(8, "order 22 is refused with a diagnostic",
                code == 2 and "order not covered: q=21 is not an odd prime power" in err)
    assert ok, (code, err)


def test_criterion_9_group_guard():
    bad_size = []
    for q in (3, 5, 7, 9):
        F = field(q)
        gens = [g.perm() for g in psl_generators(F)]
        seen = {identity(F).perm()}
        frontier = list(seen)
        while frontier:
            nxt = []
            for perm in frontier:
                for gp in gens:
                    image = tuple(gp[i] for i in perm)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        if len(seen) != q * (q * q - 1) // 2:
            bad_size.append((q, len(seen)))

    bad_pairs = []
    for q in (3, 5, 7, 9, 11, 13):
        F = field(q)
        gens = psl_generators(F)
        gperms = [g.perm() for g in gens] + [g.inverse().perm() for g in gens]
        src = (pg_index(PPoint(0)), pg_index(INF))
        start = identity(F).perm()
        depth = {start: 0}
        frontier = [start]
        reached = {(start[src[0]], start[src[1]]): 0}
        while frontier:
            nxt = []
            for perm in frontier:
                for gp in gperms:
                    image = tuple(gp[i] for i in perm)
                    if image not in depth:
                        depth[image] = depth[perm] + 1
                        pair = (image[src[0]], image[src[1]])
                        reached.setdefault(pair, depth[image])
                        nxt.append(image)
            frontier = nxt
        wanted = {(x, y) for x in range(q + 1) for y in range(q + 1) if x != y}
        if set(reached) != wanted or max(reached.values()) > 20:
            bad_pairs.append(q)

    ok = report(9, "group size q(q^2-1)/2 and 2-transitivity within 20 steps",
                not bad_size and not bad_pairs)
    assert ok, (bad_size, bad_pairs)


def test_criterion_10_round_trip_and_parse_errors():
    cubes = [p3(q) for q in Q_ALL]
    cubes += [p2(q) for q in Q_3MOD4 + Q_1MOD4]
    for q in (3, 7, 11):
        cubes.append(yang_product(p2(q), 3))
        cubes.append(dim_lift(yang_product(p2(q), 3)))
    cubes.append(dim_lift(p3(5)))
    cubes += [almost_cube(field(q), 3) for q in (3, 5, 7, 9)]
    bad_round_trip = 0
    for cube in cubes:
        text = serialize(cube)
        if parse(text) != cube or serialize(parse(text)) != text:
            bad_round_trip += 1

    malformed = ["HDM 2 2\n++\n+?\n", "HDM 2 2\n++\n", "", "HDM 2 2\n++\n+-",
                 "HDM a 2\n++\n+-\n"]
    missing_line_no = 0
    for text in malformed:
        try:
            parse(text)
            missing_line_no += 1
        except ParseError as exc:
            if not isinstance(exc.line, int):
                missing_line_no += 1

    ok = report(10, "byte-identical round trips; parse errors carry line numbers",
                bad_round_trip == 0 and missing_line_no == 0,
                f"{len(cubes)} matrices")
    assert ok, (bad_round_trip, missing_line_no)
