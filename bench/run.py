"""hdmkit benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload {cli-roundtrip,proper-sweep,reject-screen}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The
last line of stdout is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  Lines before it give the machine and
run facts and each metric by name and unit.  A record of the run (and with
--trace 1 its spans) is written under bench/out/.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def capped_env(nproc: int) -> tuple[dict, int]:
    """Environment for the worker and hdm: src on the path, every BLAS or
    OpenMP thread count at most nproc; returns it and the cap in force."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cap = nproc
    for var in THREAD_VARS:
        try:
            cap = min(cap, max(1, int(env.get(var, nproc))))
        except ValueError:
            pass
    for var in THREAD_VARS:
        env[var] = str(cap)
    return env, cap


def run_worker(args, env) -> tuple[int, bytes, int]:
    """(exit code, stdout, max RSS KiB) of a fresh worker process."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(OUT)]
    p = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE)
    timer = threading.Timer(WORKER_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
    finally:
        timer.cancel()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, usage.ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hdmkit" / "__init__.py").is_file():
        print(f"no hdmkit package under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env, cap = capped_env(nproc)
    OUT.mkdir(exist_ok=True)
    code, out, worker_rss = run_worker(args, env)
    if code != 0:
        print(f"benchmark worker exited with code {code}", file=sys.stderr)
        return 1
    res = json.loads(out)

    metrics = res["metrics"]
    if args.trace:
        units = plan.per_layer_units()
    else:
        units = plan.END_TO_END
        child_rss = res["child_maxrss_kb"] if args.workload == "cli-roundtrip" else worker_rss
        metrics["peak_rss_mb"] = child_rss / 1024
        metrics["setup_s"] = statistics.median(res["setup_s"])
        res["unscaled"]["setup_s"] = statistics.median(res["setup_s_unscaled"])
    failed = len(res["failures"])
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": res["numpy"],
        "blas_threads_cap": cap, "decks": res["decks"], "jobs": res["attempted"],
        "measured_s": res["wall_s"], "setup_reps": len(res["setup_s"]),
    }
    if not args.trace:
        facts["tail_percentile"] = res["tail_percentile"]
        facts["tail_beyond"] = res["tail_beyond"]
        facts["speed_vs_reference"] = res["speed"]

    print(f"# hdmkit benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()
                          if k not in ("workload", "seed", "trace")))
    for name, unit in units.items():
        note = ""
        if name == "job_s_p50":
            note = f"  (median of N={len(res['job_s'])})"
        elif name == "job_s_tail":
            note = (f"  (p{res['tail_percentile']:g}, N={len(res['job_s'])}, "
                    f"{res['tail_beyond']} beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(res['setup_s'])} setups)"
        if name in res.get("unscaled", {}):
            note += f"  [unscaled wall: {res['unscaled'][name]:.6g}]"
        print(f"{name:40s} {metrics[name]:.6g} {unit}{note}")
    print(f"{'fail_ratio':40s} {failed / res['attempted']:.6g}  ({failed}/{res['attempted']})")
    for line in res["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"facts": facts, "metrics": {k: [metrics[k], u] for k, u in units.items()},
              "failed": failed, "failures": res["failures"],
              "unscaled": res.get("unscaled"), "setup_s": res["setup_s"],
              "setup_s_unscaled": res["setup_s_unscaled"], "composition": res["composition"],
              "job_s": res.get("job_s"), "job_s_scaled": res.get("job_s_scaled"),
              "job_index": res.get("job_index"), "probes": res.get("probes"),
              "probe_after": res.get("probe_after")}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(f"# record: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
