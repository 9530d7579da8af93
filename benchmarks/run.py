"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload corpus_verify --seed 1 \
        --seconds 60 --trace 0

Run from the root of a source checkout; reebforge is imported from its
src/ directory.  A run makes passes over the seed's units for --seconds
seconds.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Details (per-unit
records, environment, spans) go to benchmarks/results/.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# set-up samples in fresh interpreters, half before and half after the
# measured passes so that they span the run; plus this process's own
CHILD_SETUPS = 8
THREAD_ENV = "REEBFORGE_THREADS"
# a traced run alternates untraced and traced passes, at least this many
# of each, so that the work counts of two traced passes can be compared
TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="corpus_verify, junction_star or tall_verify")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit "
                        "(how the set-up samples are taken)")
    return p.parse_args(argv)


def environment() -> dict:
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def setup(workload: str, seed: int):
    """Import reebforge, generate the seed's inputs and fill the canonical
    caches; returns the seconds taken and what the run needs."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import reebforge
    if not Path(reebforge.__file__).resolve().is_relative_to(src):
        raise ImportError(f"reebforge imported from {reebforge.__file__}, "
                          f"not from {src}")
    import workloads
    w = workloads.WORKLOADS[workload]
    reference = workloads.load_reference()[workload]
    units, violators = workloads.select(w, seed, reference)
    workloads.fill_caches(units)
    return time.perf_counter() - t0, units, violators, reference["digests"]


def setup_in_child(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


class Runner:
    """Runs passes over the seed's units and checks every result."""

    def __init__(self, units, violators, digests):
        self.units = units
        self.violators = violators
        self.digests = digests          # recorded output digest per unit
        self.seen: dict[str, str] = {}  # first digest of each unit this run

    def run_pass(self, tracer=None) -> list[dict]:
        import workloads
        records = []
        for g in self.violators:
            error = workloads.rejection_error(g)
            records.append({"kind": "reject", "ok": error is None,
                            "error": error})
        for u in self.units:
            if tracer is not None:
                tracer.unit = u.key
            out, error = None, None
            t0 = time.perf_counter()
            try:
                out = u.run()
            except Exception:
                error = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            if out is not None:
                error = out.error
                first = self.seen.setdefault(u.key, out.digest)
                if error is None and out.digest != self.digests[u.key]:
                    error = "digest differs from the recorded one"
                if error is None and out.digest != first:
                    error = "digest differs from an earlier repeat"
            records.append({"kind": "unit", "unit": u.key,
                            "seconds": seconds,
                            "tets": out.tets if out else 0,
                            "digest": out.digest if out else None,
                            "ok": error is None, "error": error})
        return records

    def run_until(self, deadline) -> list[list[dict]]:
        """Whole passes, so that every unit weighs the same: the first
        always, and then each next one while a pass as long as the last
        ends by the deadline (a perf_counter reading)."""
        passes, pass_s = [], 0.0
        while not passes or time.perf_counter() + pass_s <= deadline:
            t0 = time.perf_counter()
            passes.append(self.run_pass())
            pass_s = time.perf_counter() - t0
        return passes


def unit_seconds(records: list[dict]) -> float:
    return sum(r["seconds"] for r in records if r["kind"] == "unit")


def end_to_end(passes, setup_samples) -> tuple[dict, list[str]]:
    """Throughput, median and tail are taken over every unit execution of
    the run.  On a shared 2-core machine the run's speed moved by up to 2x
    for 20-40 s at a time; the fastest execution of each unit depended on
    whether a run caught a brief quiet spell, and spread twice as much
    between runs as these whole-run figures."""
    executions = [r for p in passes for r in p if r["kind"] == "unit"]
    times = sorted(r["seconds"] for r in executions)
    records = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in records)
    n = len(times)
    if n > 10:   # the highest percentile with ten samples beyond it
        tail_s, pct = times[n - 11], 100 * (n - 10) // n
    else:
        tail_s, pct = times[-1], 100
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "tets_per_s": (sum(r["tets"] for r in executions) / sum(times),
                       "tets/s"),
        "unit_p50_s": (statistics.median(times), "s"),
        "unit_tail_s": (tail_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (1 - failed / len(records), "ratio"),
    }
    notes = [f"setup_s: median of {len(setup_samples)} set-ups",
             f"unit_p50_s, unit_tail_s (p{pct}), tets_per_s: over {n} unit "
             f"executions in {len(passes)} passes",
             f"fail_ratio: {failed / len(records):.4f} "
             f"({failed} of {len(records)} units failed; "
             f"{sum(r['kind'] == 'reject' for r in records)} units were "
             "parity rejections)"]
    return metrics, notes


def per_layer(runner, deadline):
    """Traced passes over the units, each after an untraced pass;
    alternating lets both kinds see the same machine.  Pairs of passes go
    on while the next pair, as long as the last one, ends by the deadline;
    there are at least TRACED_PASSES pairs."""
    import spans
    untraced, traced, layer, counts, all_spans = [], [], [], [], []
    pair_s = 0.0
    while len(traced) < TRACED_PASSES or \
            time.perf_counter() + pair_s <= deadline:
        t0 = time.perf_counter()
        untraced.append(runner.run_pass())
        tracer = spans.Tracer()
        tracer.install()
        try:
            records = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        pair_s = time.perf_counter() - t0
        layer.append(spans.layer_metrics(tracer.spans,
                                         unit_seconds(records)))
        counts.append(spans.work_counts(tracer.spans))
        for r in records:
            if r["kind"] == "unit" and r["ok"] and \
                    counts[-1].get(r["unit"]) != counts[0].get(r["unit"]):
                r["ok"] = False
                r["error"] = "work counts differ from the first traced pass"
        traced.append(records)
        all_spans.append(tracer.spans)
    metrics = {}
    for name, (value, unit) in layer[0].items():
        if unit != "count":
            value = statistics.fmean(m[name][0] for m in layer)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        min(map(unit_seconds, traced)) - min(map(unit_seconds, untraced)),
        "s")
    notes = [f"{len(traced)} traced passes alternating with "
             f"{len(untraced)} untraced ones; times are means over the "
             "traced passes, counts are per pass and repeat exactly; the "
             "overhead compares the fastest pass of each kind"]
    return untraced + traced, metrics, notes, all_spans


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop(THREAD_ENV, None)
    env_start = environment()
    try:
        setup_s, units, violators, digests = setup(args.workload, args.seed)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_s)
        return 0
    runner = Runner(units, violators, digests)
    setup_samples, spans_out = [setup_s], []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        passes, metrics, notes, spans_out = per_layer(runner, deadline)
    else:
        t0 = time.perf_counter()
        setup_samples += [setup_in_child(args)
                          for _ in range(CHILD_SETUPS // 2)]
        # leave as much time for the second half of the set-ups
        passes = runner.run_until(deadline - (time.perf_counter() - t0))
        setup_samples += [setup_in_child(args)
                          for _ in range(CHILD_SETUPS - CHILD_SETUPS // 2)]
        metrics, notes = end_to_end(passes, setup_samples)
    records = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in records)
    env_end = environment()
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    RESULTS.mkdir(exist_ok=True)
    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": {"start": env_start, "end": env_end},
        "setup_samples_s": setup_samples, "notes": notes,
        "metrics": reported,
        "passes": passes,
        "spans_per_traced_pass": [
            [dict(zip(("name", "start", "end", "parent", "unit", "counts"),
                      s)) for s in pass_spans] for pass_spans in spans_out],
    }))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(units)} units; python "
          f"{env_start['python']}, {env_start['cpus']} cpus, loadavg "
          f"{env_start['loadavg'][0]:.2f} -> {env_end['loadavg'][0]:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    for r in records:
        if not r["ok"]:
            print(f"  FAILED {r.get('unit', 'rejection')}: {r['error']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
