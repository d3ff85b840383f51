"""Benchmark worker: sets up one workload, runs its timed or traced pass and
prints one JSON result on stdout.

run.py starts it as a fresh process, so for the library workloads the
worker's own max RSS is the workload's peak:

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR
"""

import ctypes
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hdmkit  # noqa: E402
import jobs  # noqa: E402
import plan  # noqa: E402
import tracing  # noqa: E402

try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None

# This host's speed drifts by up to 2x over tens of seconds, with no steal
# time and CPU time equal to wall time, so end-to-end times are reported at
# a reference speed: a wall time is scaled by the probe's reference time
# over the mean of the probes run just before and just after that job.
# Library jobs, Python loops over small numpy calls, follow a probe of the
# same: a pure-Python loop, then small numpy reductions (each part alone
# under- or over-corrected one library workload).  hdm jobs, mostly two
# interpreter starts that import numpy, slow down in phases of a few
# seconds that the in-process probe does not see, so they follow a process
# that imports numpy.  No probe calls hdmkit code, so a change to hdmkit moves
# scaled times as it moves wall time.  Unscaled values are recorded next
# to them.
PROBE_REF_S = 2.5e-3
START_PROBE_REF_S = 0.15

SETUP_REPS = 3
STARTUP_REPS = 5
# No job starts after this many seconds, whatever --seconds says, so a
# run ends well inside its 180 s limit.
HARD_LIMIT_S = 120
# The tracemalloc pass skips is_proper on cubes whose full scan exceeds
# this many pairs: tracing every small object the pair loop allocates
# makes it about 15x slower.
MEMORY_PROPER_MAX_PAIRS = 400_000


class Workload:
    """One setup: the plan, its expectations, prebuilt inputs, and warm-up."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.cli = name == "cli-roundtrip"
        self.workdir = workdir
        self.env = dict(os.environ)
        pins = plan.load_pins()
        self.comp = plan.composition(name, seed)
        self.orders = plan.deck_orders(name, seed, len(self.comp))
        self.tables = jobs.discover_tables()
        self.inputs = {}
        bases = {}
        signs = {}
        for i, spec in enumerate(self.comp):
            if spec["kind"] != "flip":
                continue
            k = plan.key(spec)
            if k not in bases:
                base = jobs.build(spec["base"], tracing.NULL, self.tables)
                bases[k] = base if jobs.entry_digest(base) == pins["raw"].get(k) else None
            base = bases[k]
            if base is None:
                continue  # a base that fails its digest leaves the job unmeetable
            self.inputs[i], signs[i] = jobs.flip(base, spec["pos"])
        del bases
        self.expected = [plan.expected(s, pins, signs.get(i)) for i, s in enumerate(self.comp)]
        # Warm-up: the smallest job of each kind and dimension, so every code
        # path has run once before timing starts.
        smallest = {}
        for i, spec in enumerate(self.comp):
            group = (spec["kind"], spec.get("base", {}).get("kind"), plan.shape(spec)[0])
            best = smallest.get(group)
            if best is None or plan.entries(spec) < plan.entries(self.comp[best]):
                smallest[group] = i
        for i in smallest.values():
            self.run(i, tracing.NULL)

    def path(self, i: int) -> Path:
        return self.workdir / f"job{i}.hdm"

    def run(self, i: int, tr) -> tuple[float | None, list[str], int]:
        """Run job i; (seconds, or None if it raised; mismatches; max child
        RSS KiB).  Only the calls into hdmkit or hdm are timed."""
        spec = self.comp[i]
        rss = 0
        try:
            if self.cli:
                t0 = perf_counter()
                outcome, rss = jobs.cli_job(spec, tr, self.path(i), self.env)
                elapsed = perf_counter() - t0
                outcome["digest"] = jobs.file_digest(self.path(i))
                self.path(i).unlink()
            else:
                t0 = perf_counter()
                cube, outcome = jobs.library_job(spec, self.inputs.get(i), tr, self.tables)
                elapsed = perf_counter() - t0
                if spec["kind"] != "flip":
                    outcome["digest"] = jobs.entry_digest(cube)
        except Exception:  # a job that raises is a failed job; the run goes on
            return None, [traceback.format_exc(limit=3)], rss
        finally:
            trim_heap()
        return elapsed, plan.check(spec, outcome, self.expected[i]), rss

    def replay(self, i: int, tr) -> list[str]:
        """In-process replay of cli job i under tr; mismatches."""
        spec = self.comp[i]
        n, v = plan.shape(spec)
        exp = {"is_hadamard": plan.report(True, checked_pairs=plan.full_hadamard_pairs(n, v)),
               "cyclic": True, "psl": True, "digest": self.expected[i]["digest"]}
        try:
            out = jobs.cli_replay(spec, tr, self.tables, self.path(i))
            out["digest"] = jobs.file_digest(self.path(i))
            self.path(i).unlink()
        except Exception:
            return [traceback.format_exc(limit=3)]
        return [f"replay {k}: got {out.get(k)!r}, want {w!r}" for k, w in exp.items()
                if out.get(k) != w]


_PROBE_A = np.arange(64, dtype=np.int64)
_PROBE_B = _PROBE_A[::-1].copy()


def probe() -> float:
    """Seconds for a fixed pure-Python loop and 300 small numpy reductions:
    the machine's current speed at what a library job does."""
    t0 = perf_counter()
    x = 0
    for i in range(10_000):
        x ^= (i * 2654435761) & 0xFFFFFFFF
    for _ in range(300):
        x ^= int((_PROBE_A * _PROBE_B).sum())
    return perf_counter() - t0


def start_probe() -> float:
    """Seconds for a process that imports numpy and exits: the machine's
    current speed at what an hdm job mostly does."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    return perf_counter() - t0


def speed_probe(workload: str) -> tuple:
    """(probe, its reference seconds) for the workload's jobs."""
    if workload == "cli-roundtrip":
        return start_probe, START_PROBE_REF_S
    return probe, PROBE_REF_S


def trim_heap():
    """Return freed heap pages to the system between jobs (glibc), so that a
    job's peak RSS does not depend on which jobs ran before it."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def run_decks(w: Workload, seconds: float, body) -> tuple[int, float]:
    """Run whole decks through body(i, k), k counting jobs from 0; start
    another deck only while it is expected to end within seconds.  Past
    HARD_LIMIT_S no job starts, even within a deck."""
    start = perf_counter()
    last = 0.0
    decks = k = 0
    for order in w.orders:
        if decks and perf_counter() - start + last > seconds:
            break
        t0 = perf_counter()
        for i in order:
            if perf_counter() - start > HARD_LIMIT_S:
                return decks, perf_counter() - start
            body(i, k)
            k += 1
        last = perf_counter() - t0
        decks += 1
    return decks, perf_counter() - start


def timed_pass(w: Workload, seconds: float) -> dict:
    raw, index, after, failures, entries, rss, attempted = [], [], [], [], 0, 0, 0
    probe_fn, ref_s = speed_probe(w.name)
    probes = [probe_fn()]

    def body(i, k):
        nonlocal entries, rss, attempted
        elapsed, bad, child_rss = w.run(i, tracing.NULL)
        probes.append(probe_fn())
        attempted += 1
        if elapsed is not None:
            raw.append(elapsed)
            index.append(i)
            after.append(len(probes) - 1)
        rss = max(rss, child_rss)
        if bad:
            failures.append(f"{plan.label(w.comp[i])}: {bad}")
        else:
            entries += plan.entries(w.comp[i])

    decks, wall = run_decks(w, seconds, body)
    work_s = wall - sum(probes[1:])
    times = [t * 2 * ref_s / (probes[a - 1] + probes[a]) for t, a in zip(raw, after)]
    # The jobs' mean speed, weighted by their time.
    speed = sum(times) / sum(raw)
    ptail = plan.TAIL_PERCENTILE[w.name]
    metrics = {
        "job_s_p50": statistics.median(times),
        "job_s_tail": plan.nearest_rank(sorted(times), ptail),
        "entries_per_s": entries / (work_s * speed),
    }
    unscaled = {
        "job_s_p50": statistics.median(raw),
        "job_s_tail": plan.nearest_rank(sorted(raw), ptail),
        "entries_per_s": entries / work_s,
    }
    return {"metrics": metrics, "unscaled": unscaled, "attempted": attempted,
            "failures": failures, "child_maxrss_kb": rss, "decks": decks, "wall_s": wall,
            "speed": speed, "tail_percentile": ptail,
            "tail_beyond": plan.jobs_beyond(ptail, len(raw)), "job_s": raw,
            "job_s_scaled": times, "job_index": index, "probes": probes,
            "probe_after": after}


def traced_pass(w: Workload, seconds: float, outdir: Path, stem: str) -> dict:
    """Each job untraced and traced, in alternating order, then a
    tracemalloc pass whose timings are discarded."""
    tr = tracing.Tracer()
    untraced, traced, failures = [], [], []
    attempted = 0
    first_deck = len(w.comp)

    def body(i, k):
        nonlocal attempted
        tr.job = k
        for traced_now in ((False, True) if k % 2 else (True, False)):
            if traced_now:
                with tr.span("job", index=i):
                    elapsed, bad, _ = w.run(i, tr)
            else:
                elapsed, bad, _ = w.run(i, tracing.NULL)
            attempted += 1
            if elapsed is not None:
                (traced if traced_now else untraced).append(elapsed)
            if bad:
                failures.append(f"{plan.label(w.comp[i])}: {bad}")
        if w.cli:
            bad = w.replay(i, tr)
            attempted += 1
            if bad:
                failures.append(f"{plan.label(w.comp[i])}: {bad}")

    decks, wall = run_decks(w, seconds, body)
    jobs_traced = len(traced)
    selfs = tr.self_times()
    layer_s, counts = {}, {}
    for s, self_s in zip(tr.spans, selfs):
        layer_s[s.name] = layer_s.get(s.name, 0.0) + self_s
        if s.job < first_deck:
            for c, value in s.counts.items():
                counts[(s.name, c)] = counts.get((s.name, c), 0) + value

    metrics = {f"{name}.s": layer_s.get(name, 0.0) / jobs_traced for name in plan.TIMED_LAYERS}
    metrics.update({f"{name}.{c}": counts.get((name, c), 0) for name, c, _ in plan.COUNTS})
    metrics["cli.io.s"] = layer_s.get("cli.io", 0.0) / jobs_traced
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    metrics["trace.job_s"] = sum(traced) / jobs_traced
    startup = jobs.startup_s(w.env, STARTUP_REPS)
    metrics["cli.startup_s"] = startup
    if w.cli:
        stages = sum(self_s for s, self_s in zip(tr.spans, selfs)
                     if s.parent is not None and tr.spans[s.parent].name == "cli.replay"
                     and s.name not in jobs.PROBES)
        metrics["cli.overhead_s"] = metrics["trace.job_s"] - 2 * startup - stages / jobs_traced
    else:
        metrics["cli.overhead_s"] = 0.0
    metrics.update(memory_pass(w))

    (outdir / f"{stem}-spans.json").write_text(json.dumps(
        {"workload": w.name, "spans": tr.dump(),
         "columns": ["name", "start", "end", "parent", "job", "counts"]}))
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "child_maxrss_kb": 0, "decks": decks, "wall_s": wall,
            "jobs_traced": jobs_traced}


def memory_pass(w: Workload) -> dict:
    """tracemalloc peak of each leaf call over the first deck's jobs; for
    cli-roundtrip, the replay of its largest cube."""
    mt = tracing.Tracer(memory=True)
    tracemalloc.start()
    try:
        if w.cli:
            i = max(range(len(w.comp)), key=lambda j: w.comp[j]["q"])
            w.replay(i, mt)
        else:
            for i, spec in enumerate(w.comp):
                if spec["kind"] == "flip" and i not in w.inputs:
                    continue
                n, v = plan.shape(spec)
                proper = plan.full_proper_pairs(n, v) <= MEMORY_PROPER_MAX_PAIRS
                jobs.library_job(spec, w.inputs.get(i), mt, w.tables, proper)
    finally:
        tracemalloc.stop()
    peaks = {}
    for s in mt.spans:
        if "peak_bytes" in s.counts:
            peaks[s.name] = max(peaks.get(s.name, 0), s.counts["peak_bytes"])
    return {f"{name}.peak_mb": peaks.get(name, 0) / 2**20 for name in plan.PEAKS}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, outdir = argv
    seed, seconds, trace, outdir = int(seed), float(seconds), int(trace), Path(outdir)
    src = (ROOT / "src").resolve()
    if not Path(hdmkit.__file__).resolve().is_relative_to(src):
        print(f"hdmkit imported from {hdmkit.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_scaled = [], []
        probe_fn, ref_s = speed_probe(workload)
        before = probe_fn()
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            w = Workload(workload, seed, workdir)
            setup_times.append(perf_counter() - t0)
            after = probe_fn()
            setup_scaled.append(setup_times[-1] * 2 * ref_s / (before + after))
            before = after
        stem = f"{workload}-seed{seed}"
        result = (traced_pass(w, seconds, outdir, stem) if trace
                  else timed_pass(w, seconds))
    finally:
        for leftover in workdir.glob("*"):
            leftover.unlink()
        workdir.rmdir()
    result["setup_s"] = setup_scaled
    result["setup_s_unscaled"] = setup_times
    result["composition"] = [plan.label(s) for s in w.comp]
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
