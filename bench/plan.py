"""Seeded job plans and expectations for the hdmkit benchmark.

Nothing here imports hdmkit.  Every expectation a job is checked against
comes from theory (verdicts and pair counts), from digests and reports
pinned in pins.json, or from the closed-form first violation of a valid
cube with one flipped entry.

A workload's plan is a composition (the list of jobs, drawn once from the
seed) and an endless sequence of seeded shuffles of it (the decks).  Every
deck holds the same jobs, so runs that complete a different number of decks
still measure the same mix of sizes.
"""

import json
import math
import random
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

WORKLOADS = ("cli-roundtrip", "proper-sweep", "reject-screen")

# job_s_tail's percentile: per workload, the highest of p75/p90/p95/p99
# that leaves at least ten jobs beyond it in a --seconds 40 run on the
# reference machine.  It is fixed, not chosen per run, because the number
# of decks a run completes moves with the host's speed, and a tail read at
# a different percentile would not compare.  Runs report how many jobs lie
# beyond it.
TAIL_PERCENTILE = {"cli-roundtrip": 75, "proper-sweep": 90, "reject-screen": 95}

# cli-roundtrip: (q, copies per deck).  The orders are fixed and the seed
# draws only the order: job cost rises with q, and a percentile of orders
# drawn per seed moves with the draw, not with the code.  Each percentile
# falls inside a block of copies of one job, so it reads that job's median
# time: q = 81 holds the median (ranks 14-24 of 40, above q <= 73, whose
# times lie close to it because two process starts dominate) and q = 121
# the p75 (ranks 25-34).  169 and 243 (k > 1) and 251, the peak-memory
# case, are among the six above.  One deck, with the speed probes, takes
# about 33 s on the reference machine, so a --seconds 40 run measures one.
CLI_DECK = (
    (49, 3), (53, 2), (59, 2), (61, 2), (67, 2), (71, 1), (73, 1),
    (81, 11),
    (121, 10),
    (131, 1), (137, 1), (139, 1), (169, 1), (243, 1), (251, 1),
)

# proper-sweep: every job in every deck; only the order is drawn.  The
# job costs double from one to the next around the middle, so paley3 at
# q = 59 runs five times (ranks 13-17 of 30): the median then falls in the
# middle of the copies of one job, and a drift in machine speed moves it
# in proportion.  For the same reason q = 107 runs three times and holds
# the p90 (ranks 26-28); with one copy the p90 fell between q = 103 and
# q = 107, 10 % apart.
PROPER_PALEY3 = (19, 23, 27, 31, 43, 47) + (59,) * 5 + (67, 71, 79, 83, 103) + (107,) * 3 + (127,)
PROPER_PRODUCTS = ((7, 3), (7, 4), (7, 5), (11, 3), (11, 4), (11, 5),
                   (19, 3), (19, 4), (23, 3), (23, 4))

# reject-screen: fixed cubes whose costs spread from 0.2 ms to 0.5 s; the
# seed draws the flipped entries and the order.
REJECT_ALMOST = ((23, 3), (47, 3), (79, 3), (11, 4), (23, 4))
REJECT_PALEY3_1MOD4 = (13, 49, 89, 125)
REJECT_LIFT2 = (11, 43, 79)     # dim_lift(paley2), q = 3 (mod 4)
REJECT_LIFT3 = (9, 23)          # dim_lift(paley3): fails early for q = 1, late for q = 3 (mod 4)
# Where the first failing 2-D layer sits, as a share of the layers of the
# first axis pair, which is_proper scans first.  Narrow, so that a flip's
# cost barely depends on the seed.
FLIP_BANDS = {"early": (0.0, 0.02), "mid": (0.49, 0.51), "late": (0.98, 1.0)}
# Flip bases are proper (q = 3 mod 4), which flip_reports relies on.  The
# midway flip of the q = 47 cube is the median job, so it runs five times
# (at five drawn entries) for the median to fall inside its copies.
REJECT_FLIPS = (
    ({"kind": "paley3", "q": 47}, ("early",) + ("mid",) * 5 + ("late",)),
    ({"kind": "paley3", "q": 71}, ("early", "mid", "late")),
    ({"kind": "paley3", "q": 127}, ("early", "mid", "late")),
    ({"kind": "product", "q": 23, "dim": 4}, ("early", "mid", "late")),
    ({"kind": "product", "q": 11, "dim": 5}, ("early", "mid", "late")),
)

HDM_VERIFY_OUTPUT = "hadamard: PASS\ncyclic: PASS\npsl: PASS\n"


def _is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def odd_prime_powers(lo: int, hi: int) -> list[int]:
    return [q for q in range(max(lo, 3), hi + 1) if q % 2 and _is_prime_power(q)]


# Metric names and units; BENCHMARK.json lists the same.
END_TO_END = {"job_s_p50": "s", "job_s_tail": "s", "entries_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}

TIMED_LAYERS = (
    "ncube.is_proper", "ncube.is_hadamard", "ncube.serialize", "ncube.parse",
    "constructions.paley2", "constructions.paley3", "constructions.yang_product",
    "constructions.dim_lift", "constructions.almost_cube", "gf.Field", "gf.tables",
    "projline.psl_generators", "projline.perm", "symmetry.check_cyclic",
    "symmetry.check_psl_invariance",
)
COUNTS = (
    ("ncube.is_proper", "pairs", "count"), ("ncube.is_proper", "layers", "count"),
    ("ncube.is_proper", "entry_ops", "count"), ("ncube.is_hadamard", "pairs", "count"),
    ("ncube.is_hadamard", "entry_ops", "count"), ("ncube.serialize", "bytes", "B"),
    ("ncube.parse", "bytes", "B"), ("gf.Field", "calls", "count"),
    ("gf.tables", "bytes", "B"), ("projline.perm", "calls", "count"),
)
PEAKS = ("ncube.is_proper", "ncube.is_hadamard", "ncube.serialize", "ncube.parse",
         "constructions.paley3", "constructions.yang_product")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in TIMED_LAYERS}
    units.update({f"{name}.{count}": unit for name, count, unit in COUNTS})
    units.update({f"{name}.peak_mb": "MB" for name in PEAKS})
    units.update({"cli.startup_s": "s", "cli.io.s": "s", "cli.overhead_s": "s",
                  "trace.overhead_ratio": "ratio", "trace.job_s": "s"})
    return units


# -- specs ---------------------------------------------------------------------

def key(spec: dict) -> str:
    """Pin key of the cube a job builds (the base cube for a flip)."""
    if spec["kind"] == "flip":
        return key(spec["base"])
    if spec["kind"] == "cli":
        return f"paley3:{spec['q']}"
    if "dim" in spec:
        return f"{spec['kind']}:{spec['q']}:{spec['dim']}"
    return f"{spec['kind']}:{spec['q']}"


def shape(spec: dict) -> tuple[int, int]:
    """(n, v) of the cube a job verifies."""
    kind = spec["kind"]
    if kind == "flip":
        return shape(spec["base"])
    v = spec["q"] + 1
    n = {"paley3": 3, "cli": 3, "lift2": 3, "lift3": 4}.get(kind)
    return (spec["dim"] if n is None else n), v


def entries(spec: dict) -> int:
    n, v = shape(spec)
    return v**n


def label(spec: dict) -> str:
    if spec["kind"] == "flip":
        return f"flip[{key(spec)},{spec['band']},{spec['pos']}]"
    return f"{spec['kind']}:{key(spec).split(':', 1)[1]}"


def flip_spec(rng: random.Random, base: dict, band: str) -> dict:
    """A flip of one entry of base whose first violation lies in band."""
    lo, hi = FLIP_BANDS[band]
    n, v = shape(base)
    layers = v ** (n - 2)
    first = int(lo * layers)
    layer = rng.randrange(first, max(first + 1, int(hi * layers)))
    rest = []
    for _ in range(n - 2):
        layer, digit = divmod(layer, v)
        rest.insert(0, digit)
    pos = [rng.randrange(v), rng.randrange(v)] + rest
    return {"kind": "flip", "base": base, "band": band, "pos": pos}


def composition(workload: str, seed: int) -> list[dict]:
    """The jobs of every deck, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-roundtrip":
        comp = [{"kind": "cli", "q": q} for q, count in CLI_DECK for _ in range(count)]
        rng.shuffle(comp)
        return comp
    if workload == "proper-sweep":
        return ([{"kind": "paley3", "q": q} for q in PROPER_PALEY3]
                + [{"kind": "product", "q": q, "dim": d} for q, d in PROPER_PRODUCTS])
    if workload != "reject-screen":
        raise ValueError(f"unknown workload {workload!r}")
    return reject_cubes() + [flip_spec(rng, base, band)
                             for base, bands in REJECT_FLIPS for band in bands]


def reject_cubes() -> list[dict]:
    """The reject-screen jobs that construct their cube."""
    return ([{"kind": "almost", "q": q, "dim": d} for q, d in REJECT_ALMOST]
            + [{"kind": "paley3", "q": q} for q in REJECT_PALEY3_1MOD4]
            + [{"kind": "lift2", "q": q} for q in REJECT_LIFT2]
            + [{"kind": "lift3", "q": q} for q in REJECT_LIFT3])


def deck_orders(workload: str, seed: int, size: int):
    """Endless seeded shuffles of range(size), one per deck."""
    rng = random.Random(f"{workload}/{seed}/order")
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order


def pinned_specs() -> list[dict]:
    """Every cube any seed can ask for, for pin.py and the tests."""
    specs = [{"kind": "cli", "q": q} for q in odd_prime_powers(49, 251)]
    return (specs + composition("proper-sweep", 0) + reject_cubes()
            + [base for base, _ in REJECT_FLIPS])


# -- expectations ----------------------------------------------------------------

def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def report(passed, axis=None, pair=None, deviation=None, checked_pairs=0) -> list:
    """A VerifyReport as the JSON list the worker sends."""
    return [bool(passed), axis, list(pair) if pair is not None else None,
            deviation, checked_pairs]


def full_hadamard_pairs(n: int, v: int) -> int:
    return n * math.comb(v, 2)


def full_proper_pairs(n: int, v: int) -> int:
    """Two line directions per 2-D layer, C(n, 2) * v**(n-2) layers."""
    return math.comb(n, 2) * v ** (n - 2) * 2 * math.comb(v, 2)


def flip_partner(pos: list[int]) -> list[int]:
    """The entry whose product with the flipped one gives the deviation."""
    return [0 if pos[0] else 1] + list(pos[1:])


def flip_reports(n: int, v: int, pos: list[int], sign: int) -> tuple[list, list]:
    """First violations of a Hadamard and proper cube after negating entry pos.

    sign is H[pos] * H[flip_partner(pos)] in the unflipped cube.  Every layer
    pair not through pos[0] stays orthogonal, so the first violating pair of
    axis 0 is (0, pos[0]), or (0, 1) when pos[0] = 0, with deviation
    -2 * sign.  is_proper meets it in the row scan of the first 2-D layer
    of the free-axis pair (0, 1) that holds pos, after every earlier layer
    has passed with v(v-1) pairs.
    """
    p0 = pos[0]
    pair = (0, p0) if p0 else (0, 1)
    within = p0 if p0 else 1
    layer = 0
    for digit in pos[2:]:
        layer = layer * v + digit
    dev = -2 * sign
    return (report(False, 0, pair, dev, within),
            report(False, 0, pair, dev, layer * v * (v - 1) + within))


# (is_hadamard, is_proper) verdicts known from theory; None where only the
# pinned report decides.  paley3 is Hadamard for every q and proper iff
# q = 3 (mod 4); products are proper; the dimension lift keeps Hadamard;
# almost_cube is not Hadamard, hence not proper.
def theory(spec: dict) -> tuple[bool | None, bool | None]:
    kind = spec["kind"]
    if kind == "paley3":
        return True, spec["q"] % 4 == 3
    if kind == "product":
        return True, True
    if kind in ("lift2", "lift3"):
        return True, None
    if kind == "almost":
        return False, False
    if kind == "flip":
        return False, False
    raise ValueError(kind)


def expected(spec: dict, pins: dict, flip_sign: int | None = None) -> dict:
    """What a job must produce.

    cli jobs: exit codes and output of both subprocesses and the digest of
    the written file.  Library jobs: the digest of the built cube's entries
    (none for a flip, whose cube is prebuilt) and both reports.  A key
    missing from pins, or a flip whose base cube failed its digest, gives an
    expectation no outcome can meet.
    """
    k = key(spec)
    n, v = shape(spec)
    if spec["kind"] == "cli":
        return {"digest": pins["hdm"].get(str(spec["q"])),
                "construct": [0, f"paley3 n=3 v={v}\n"],
                "verify": [0, HDM_VERIFY_OUTPUT]}
    if spec["kind"] == "flip":
        if flip_sign is None:
            return {"is_hadamard": None, "is_proper": None}
        rh, rp = flip_reports(n, v, spec["pos"], flip_sign)
        return {"is_hadamard": rh, "is_proper": rp}
    pinned = pins["reports"].get(k, {})
    hadamard, proper = theory(spec)
    rh = (report(True, checked_pairs=full_hadamard_pairs(n, v)) if hadamard
          else pinned.get("is_hadamard"))
    rp = (report(True, checked_pairs=full_proper_pairs(n, v)) if proper
          else pinned.get("is_proper"))
    return {"digest": pins["raw"].get(k), "is_hadamard": rh, "is_proper": rp}


def check(spec: dict, outcome: dict, exp: dict) -> list[str]:
    """Mismatches between a job's outcome and its expectation."""
    bad = []
    for field, want in exp.items():
        got = outcome.get(field)
        if want is None:
            bad.append(f"{field}: no expectation")
        elif got != want:
            bad.append(f"{field}: got {got!r}, want {want!r}")
    if spec["kind"] != "cli":
        for field, verdict in zip(("is_hadamard", "is_proper"), theory(spec)):
            got = outcome.get(field)
            if verdict is not None and (got is None or got[0] != verdict):
                bad.append(f"{field}: verdict contradicts theory ({got!r})")
    return bad


# -- statistics --------------------------------------------------------------------

def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n values."""
    return max(1, math.ceil(round(p * n / 100, 6)))


def jobs_beyond(p: float, n: int) -> int:
    """How many of n jobs lie beyond the nearest-rank percentile p."""
    return n - _rank(p, n)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[_rank(p, len(sorted_values)) - 1]
