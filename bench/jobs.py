"""The benchmark's calls into hdmkit: library jobs, hdm subprocess jobs and
the in-process replay of an hdm job's stages.

Every call into a public hdmkit function sits in a span named after its
module, so a Tracer sees the split and the NullTracer costs one call per
span.  Counts attached to spans are computed here from reports and sizes;
nothing inside hdmkit is instrumented.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from hdmkit import (
    Field,
    SignCube,
    almost_cube,
    check_cyclic,
    check_psl_invariance,
    dim_lift,
    is_hadamard,
    is_hadamard_naive,
    is_proper,
    layer,
    paley2,
    paley3,
    parse,
    psl_generators,
    serialize,
    yang_product,
)

import plan

CHILD_TIMEOUT_S = 120

# Spans of a replay that probe work check_psl_invariance already does, and
# so stay out of the replayed stage sum.
PROBES = ("projline.psl_generators", "projline.perm")

_FIELD_CONSTRUCTIONS = {
    "paley2": paley2,
    "paley3": paley3,
    "almost_cube": lambda F: almost_cube(F, 3),
}


def discover_tables() -> dict[str, tuple[str, ...]]:
    """The cached Field tables each field construction reads.

    Found by building on a fresh small field and listing the public array
    attributes that appeared, so the replay follows the constructions as
    they are, not as they were when the benchmark was written.
    """
    found = {}
    for name, construct in _FIELD_CONSTRUCTIONS.items():
        F = Field(7)
        before = set(vars(F))
        construct(F)
        found[name] = tuple(sorted(
            a for a in set(vars(F)) - before
            if not a.startswith("_") and isinstance(vars(F)[a], np.ndarray)))
    return found


def report_list(rep) -> list:
    return plan.report(rep.passed,
                       None if rep.axis is None else int(rep.axis),
                       None if rep.pair is None else [int(x) for x in rep.pair],
                       None if rep.deviation is None else int(rep.deviation),
                       int(rep.checked_pairs))


def entry_digest(cube) -> str:
    """SHA-256 of the entries as int8 in C order."""
    return hashlib.sha256(np.ascontiguousarray(cube.array, dtype=np.int8).tobytes()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- library jobs ----------------------------------------------------------------

def new_field(tr, q: int):
    with tr.span("gf.Field", calls=1):
        return Field(q)


def read_tables(tr, F, names):
    for name in names:
        with tr.span("gf.tables") as s:
            table = getattr(F, name)
        s.add(bytes=int(table.nbytes))


def build(spec: dict, tr, tables: dict):
    """Construct the cube of a library job (not a flip, which is prebuilt)."""
    kind = spec["kind"]
    F = new_field(tr, spec["q"])
    if kind == "almost":
        read_tables(tr, F, tables["almost_cube"])
        with tr.span("constructions.almost_cube"):
            return almost_cube(F, spec["dim"])
    if kind in ("paley3", "lift3"):
        read_tables(tr, F, tables["paley3"])
        with tr.span("constructions.paley3"):
            cube = paley3(F)
    else:
        read_tables(tr, F, tables["paley2"])
        with tr.span("constructions.paley2"):
            cube = paley2(F)
    if kind == "product":
        with tr.span("constructions.yang_product"):
            cube = yang_product(cube, spec["dim"])
    elif kind in ("lift2", "lift3"):
        with tr.span("constructions.dim_lift"):
            cube = dim_lift(cube)
    return cube


def verify(cube, tr, proper: bool = True) -> dict:
    n, v = cube.n, cube.v
    with tr.span("ncube.is_hadamard") as s:
        rep = is_hadamard(cube)
    s.add(pairs=rep.checked_pairs, entry_ops=rep.checked_pairs * v ** (n - 1))
    out = {"is_hadamard": report_list(rep)}
    if proper:
        with tr.span("ncube.is_proper") as s:
            rep = is_proper(cube)
        s.add(pairs=rep.checked_pairs, entry_ops=rep.checked_pairs * v,
              layers=-(-rep.checked_pairs // (v * (v - 1))))
        out["is_proper"] = report_list(rep)
    return out


def library_job(spec: dict, cube, tr, tables: dict, proper: bool = True):
    """Build (unless cube is given) and verify; returns (cube, outcome)."""
    if cube is None:
        cube = build(spec, tr, tables)
    return cube, verify(cube, tr, proper)


def flip(base, pos: list[int]):
    """(copy of base with entry pos negated, base[pos] * base[flip_partner(pos)])."""
    pos, partner = tuple(pos), tuple(plan.flip_partner(pos))
    data = base.array.copy()
    data[pos] = -data[pos]
    return SignCube(base.n, base.v, data), int(base.array[pos]) * int(base.array[partner])


def is_proper_naive(H) -> list:
    """is_proper's contract by summation over 2-D layers in its scan order,
    as a report list; an oracle for pinned and closed-form reports."""
    n, v = H.n, H.v
    checked = 0
    for j1, j2 in itertools.combinations(range(n), 2):
        others = [ax for ax in range(n) if ax not in (j1, j2)]
        for vals in itertools.product(range(v), repeat=len(others)):
            rep = is_hadamard_naive(layer(H, dict(zip(others, vals))) if others else H)
            checked += rep.checked_pairs
            if not rep.passed:
                return plan.report(False, j1 if rep.axis == 0 else j2, rep.pair,
                                   rep.deviation, checked)
    return plan.report(True, checked_pairs=checked)


# -- hdm subprocess jobs ----------------------------------------------------------

def hdm(args: list[str], env: dict) -> tuple[int, str, int]:
    """Run `python -m hdmkit ARGS`; (exit code, stdout+stderr, max RSS in KiB)."""
    p = subprocess.Popen([sys.executable, "-m", "hdmkit", *args], env=env,
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
    finally:
        timer.cancel()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


def startup_s(env: dict, reps: int) -> float:
    """Median wall time of a minimal hdm process (`--help`)."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        hdm(["--help"], env)
        times.append(perf_counter() - t0)
    return sorted(times)[reps // 2]


def cli_job(spec: dict, tr, path: Path, env: dict) -> tuple[dict, int]:
    """hdm construct, then hdm verify, as a user runs them; (outcome, max child RSS KiB)."""
    q = str(spec["q"])
    with tr.span("cli.construct"):
        c_code, c_out, c_rss = hdm(["construct", "--kind", "paley3", "--q", q,
                                    "--out", str(path)], env)
    with tr.span("cli.verify"):
        v_code, v_out, v_rss = hdm(["verify", str(path), "--cyclic", "--psl", "--q", q], env)
    return {"construct": [c_code, c_out], "verify": [v_code, v_out]}, max(c_rss, v_rss)


def cli_replay(spec: dict, tr, tables: dict, path: Path) -> dict:
    """The stages of one cli job, in process, in the order the CLI runs them."""
    q = spec["q"]
    with tr.span("cli.replay"):
        F = new_field(tr, q)
        read_tables(tr, F, tables["paley3"])
        with tr.span("constructions.paley3"):
            cube = paley3(F)
        with tr.span("ncube.serialize") as s:
            text = serialize(cube)
        s.add(bytes=len(text))
        with tr.span("cli.io"):
            path.write_bytes(text.encode("ascii"))
        del cube, text
        with tr.span("cli.io"):
            text = path.read_bytes().decode("utf-8")
        with tr.span("ncube.parse") as s:
            cube = parse(text)
        s.add(bytes=len(text))
        del text
        out = verify(cube, tr, proper=False)
        with tr.span("symmetry.check_cyclic"):
            out["cyclic"] = check_cyclic(cube)
        F = new_field(tr, q)
        with tr.span("symmetry.check_psl_invariance"):
            out["psl"] = check_psl_invariance(cube, F)
        with tr.span("projline.psl_generators"):
            gens = psl_generators(F)
        for g in gens:
            with tr.span("projline.perm", calls=1):
                g.perm()
    return out
