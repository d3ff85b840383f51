"""Regenerate pins.json: the digests and first-violation reports that the
benchmark checks its jobs against.

    PYTHONPATH=src python3 bench/pin.py

Run it only on a commit whose outputs are known good; the pinned values
are what later commits must reproduce.  Every pinned report is checked
against its theory verdict, and, where the cube has at most NAIVE_MAX
entries, against the summation oracles (is_hadamard_naive and a layerwise
propriety oracle built on it).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hashlib  # noqa: E402
import json  # noqa: E402

from hdmkit import is_hadamard_naive, serialize  # noqa: E402

import jobs  # noqa: E402
import plan  # noqa: E402
import tracing  # noqa: E402

NAIVE_MAX = 40_000


def main() -> int:
    tables = jobs.discover_tables()
    pins = {"hdm": {}, "raw": {}, "reports": {}}
    for spec in plan.pinned_specs():
        k = plan.key(spec)
        if spec["kind"] == "cli":
            cube = jobs.build({"kind": "paley3", "q": spec["q"]}, tracing.NULL, tables)
            pins["hdm"][str(spec["q"])] = hashlib.sha256(
                serialize(cube).encode("ascii")).hexdigest()
            continue
        if k in pins["raw"]:
            continue
        cube, out = jobs.library_job(spec, None, tracing.NULL, tables)
        pins["raw"][k] = jobs.entry_digest(cube)
        hadamard, proper = plan.theory(spec)
        for field, verdict in (("is_hadamard", hadamard), ("is_proper", proper)):
            if verdict is not None and out[field][0] != verdict:
                raise SystemExit(f"{k} {field}: {out[field]} contradicts theory")
        if cube.v**cube.n <= NAIVE_MAX:
            naive = {"is_hadamard": jobs.report_list(is_hadamard_naive(cube)),
                     "is_proper": jobs.is_proper_naive(cube)}
            if naive != out:
                raise SystemExit(f"{k}: {out} disagrees with the oracle {naive}")
        failing = {f: r for f, r in out.items() if not r[0]}
        if failing:
            pins["reports"][k] = failing
        print(k, failing or "passes", flush=True)
    plan.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
