"""Tests of the benchmark's own logic: plans, expectations, tracing, and
that a wrong output or a corrupted pin counts as a failed job."""

import copy
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from hdmkit import is_hadamard, is_hadamard_naive, is_proper  # noqa: E402

import jobs  # noqa: E402
import plan  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

TABLES = jobs.discover_tables()


def outcome(spec):
    cube, out = jobs.library_job(spec, None, tracing.NULL, TABLES)
    out["digest"] = jobs.entry_digest(cube)
    return out


def test_plans_repeat_for_a_seed_and_vary_across_seeds():
    for w in plan.WORKLOADS:
        assert plan.composition(w, 3) == plan.composition(w, 3)
        a, b = plan.deck_orders(w, 3, 12), plan.deck_orders(w, 3, 12)
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
    assert plan.composition("reject-screen", 3) != plan.composition("reject-screen", 4)
    assert plan.composition("cli-roundtrip", 3) != plan.composition("cli-roundtrip", 4)


def test_cli_percentiles_fall_inside_the_copies_of_one_order():
    qs = sorted(spec["q"] for spec in plan.composition("cli-roundtrip", 0))
    for seed in (1, 2):
        assert sorted(spec["q"] for spec in plan.composition("cli-roundtrip", seed)) == qs
    # Job cost rises with q, so ranks by q are ranks by time.
    for p, q in ((50, 81), (plan.TAIL_PERCENTILE["cli-roundtrip"], 121)):
        r = plan._rank(p, len(qs)) - 1
        assert qs[r - 3:r + 4] == [q] * 7, p


def test_every_cube_a_seed_can_draw_has_an_expectation():
    pins = plan.load_pins()
    for w in plan.WORKLOADS:
        for seed in range(25):
            for spec in plan.composition(w, seed):
                exp = plan.expected(spec, pins, flip_sign=1)
                assert None not in exp.values(), (w, seed, spec)


def test_a_corrupted_pinned_digest_is_a_failure():
    spec = {"kind": "paley3", "q": 19}
    pins = plan.load_pins()
    out = outcome(spec)
    assert plan.check(spec, out, plan.expected(spec, pins)) == []
    bad = copy.deepcopy(pins)
    bad["raw"]["paley3:19"] = "0" * 64
    assert plan.check(spec, out, plan.expected(spec, bad))
    del bad["raw"]["paley3:19"]
    assert plan.check(spec, out, plan.expected(spec, bad))


def test_a_corrupted_pinned_report_is_a_failure():
    spec = plan.reject_cubes()[0]
    pins = plan.load_pins()
    out = outcome(spec)
    assert plan.check(spec, out, plan.expected(spec, pins)) == []
    bad = copy.deepcopy(pins)
    bad["reports"][plan.key(spec)]["is_hadamard"][4] += 1   # checked_pairs
    assert plan.check(spec, out, plan.expected(spec, bad))
    bad["reports"][plan.key(spec)] = {}
    assert plan.check(spec, out, plan.expected(spec, bad))


def test_a_verdict_against_theory_is_a_failure_even_if_pinned():
    spec = plan.reject_cubes()[0]
    out = outcome(spec)
    passing = plan.report(True, checked_pairs=out["is_hadamard"][4])
    exp = dict(plan.expected(spec, plan.load_pins()), is_hadamard=passing)
    out["is_hadamard"] = passing
    assert plan.check(spec, out, exp) == ["is_hadamard: verdict contradicts theory "
                                          f"({passing!r})"]


def test_wrong_cli_output_is_a_failure():
    spec = {"kind": "cli", "q": 49}
    exp = plan.expected(spec, plan.load_pins())
    good = {"digest": exp["digest"], "construct": [0, "paley3 n=3 v=50\n"],
            "verify": [0, plan.HDM_VERIFY_OUTPUT]}
    assert plan.check(spec, good, exp) == []
    assert plan.check(spec, dict(good, verify=[1, "hadamard: FAIL\n"]), exp)
    assert plan.check(spec, dict(good, digest="0" * 64), exp)


def test_worker_counts_jobs_against_corrupted_pins(tmp_path, monkeypatch):
    pins = plan.load_pins()
    comp = plan.composition("reject-screen", 0)
    almost = next(s for s in comp if s["kind"] == "almost")
    flip_base = plan.key(next(s for s in comp if s["kind"] == "flip"))
    pins["reports"][plan.key(almost)]["is_proper"][3] += 2          # deviation
    pins["raw"][flip_base] = "f" * 64
    corrupted = tmp_path / "pins.json"
    corrupted.write_text(json.dumps(pins))
    monkeypatch.setattr(plan, "PINS_PATH", corrupted)
    w = worker.Workload("reject-screen", 0, tmp_path)
    res = worker.timed_pass(w, seconds=0)
    flips_on_base = sum(s["kind"] == "flip" and plan.key(s) == flip_base for s in comp)
    assert res["decks"] == 1 and res["attempted"] == len(comp)
    assert len(res["failures"]) == 1 + flips_on_base


@pytest.mark.parametrize("base", [{"kind": "paley3", "q": 11},
                                  {"kind": "product", "q": 7, "dim": 4}])
def test_flip_reports_agree_with_both_verifiers_and_the_oracles(base):
    cube = jobs.build(base, tracing.NULL, TABLES)
    n, v = cube.n, cube.v
    rng = random.Random(7)
    specs = [plan.flip_spec(rng, base, band) for band in list(plan.FLIP_BANDS) * 2]
    specs.append(dict(specs[0], pos=[0] + specs[0]["pos"][1:]))
    for spec in specs:
        flipped, sign = jobs.flip(cube, spec["pos"])
        rh, rp = plan.flip_reports(n, v, spec["pos"], sign)
        assert rh == jobs.report_list(is_hadamard(flipped))
        assert rh == jobs.report_list(is_hadamard_naive(flipped))
        assert rp == jobs.report_list(is_proper(flipped))
        assert rp == jobs.is_proper_naive(flipped)


def test_self_time_subtracts_direct_children():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            with tr.span("leaf"):
                time.sleep(0.002)
        with tr.span("sibling"):
            pass
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    dur = [s.end - s.start for s in tr.spans]
    selfs = tr.self_times()
    assert selfs[0] == pytest.approx(dur[0] - dur[1] - dur[3])
    assert selfs[1] == pytest.approx(dur[1] - dur[2])
    assert selfs[2] == dur[2] and selfs[3] == dur[3]


def test_tail_percentile_leaves_ten_jobs_beyond_in_a_typical_run():
    values = list(range(1, 41))
    assert plan.nearest_rank(values, 75) == 30
    assert plan.jobs_beyond(75, 40) == sum(x > 30 for x in values) == 10
    assert plan.jobs_beyond(90, 100) == 10 and plan.jobs_beyond(90, 99) == 9
    # cli-roundtrip runs one deck, proper-sweep four or more, reject-screen
    # about twenty in --seconds 40 on the reference machine.
    for w, decks in (("cli-roundtrip", 1), ("proper-sweep", 4), ("reject-screen", 10)):
        n = decks * len(plan.composition(w, 0))
        assert plan.jobs_beyond(plan.TAIL_PERCENTILE[w], n) >= 10, w


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == plan.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == plan.per_layer_units()


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "proper-sweep",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
