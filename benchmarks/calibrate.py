"""Rebuild benchmarks/reference.json for one workload.

    python3 benchmarks/calibrate.py --workload corpus_verify

Runs every unit of the workload once, untraced and in its reference
presentation, and records each unit's output digest (what every later run
is checked against) and, for a stratified workload, the units in order of
measured time (the strata whose middle cases run).  Refuses to record when a
unit fails its check.  Run it on the commit whose outputs are the
reference, on an idle machine.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS))
    args = p.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    units = w.units(None)
    workloads.fill_caches(units)
    seconds, digests = {}, {}
    for u in units:
        t0 = time.perf_counter()
        out = u.run()
        seconds[u.key] = time.perf_counter() - t0
        if out.error is not None:
            print(f"unit {u.key} failed: {out.error}", file=sys.stderr)
            return 1
        digests[u.key] = out.digest
        print(f"{u.key} {seconds[u.key]:.3f}s {out.tets} tets", flush=True)
    reference = json.loads(workloads.REFERENCE.read_text()) \
        if workloads.REFERENCE.exists() else {}
    entry = {"digests": digests}
    if w.strata:
        entry["order"] = sorted(range(len(units)),
                                key=lambda i: seconds[units[i].key])
    reference[args.workload] = entry
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
