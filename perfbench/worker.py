"""One benchmark worker: a fresh process that sets up one workload and measures it.

Started by ``run.py``, one at a time, with ``src`` on ``PYTHONPATH``.  Modes:

- ``probe``: set up, then exit; only the set-up time is wanted.
- ``measure``: repeat the workload until ``--seconds`` would be exceeded
  (at least once), tracing off.
- ``trace``: one untraced repetition, then traced repetitions (at least
  two, so their call counts can be compared) while time allows.

Set-up time runs from ``--spawn-ns`` (CLOCK_MONOTONIC, taken by the parent
just before it started this process) to the first call into the workload.
In ``measure`` and ``trace`` modes every run's outputs are checked
against the committed digests in ``golden.json``.  The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import time
from dataclasses import asdict
from pathlib import Path

import numpy
import timefuse
import tracer as tracing
import workloads

MIN_TRACED_REPS = 2
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * resource.getpagesize()


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    rss_after_import = rss_bytes()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
        out = {
            "setup_s": setup_s,
            "rss_after_import_bytes": rss_after_import,
            "timefuse_file": timefuse.__file__,
            "numpy": numpy.__version__,
        }
        if args.mode != "probe":
            golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[args.workload]
            out.update(measure(workload, args, golden))
        out["peak_rss_bytes"] = peak_rss_bytes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(workload, args, golden) -> dict:
    start = time.perf_counter()
    reps, failed = [], 0

    def one_rep():
        nonlocal failed
        t0 = time.perf_counter()
        rep = workload.rep()
        failed += workloads.golden_failures(rep.checks, golden)
        reps.append(asdict(rep))
        return time.perf_counter() - t0

    def time_left(durations, minimum):
        elapsed = time.perf_counter() - start
        return len(durations) < minimum or elapsed + statistics.median(durations) <= args.seconds

    out: dict = {"max_epochs": workload.max_epochs}
    if args.mode == "measure":
        durations = []
        while time_left(durations, 1):
            durations.append(one_rep())
    else:
        one_rep()
        out["peak_rss_untraced_bytes"] = peak_rss_bytes()
        tracer = tracing.Tracer()
        traced = []
        durations = []
        with tracer:
            while time_left(durations, MIN_TRACED_REPS):
                tracer.reset(rep=len(traced) + 1)
                durations.append(one_rep())
                traced.append(
                    {
                        "calls": tracer.counts(),
                        "self_s": {t: ns / 1e9 for t, ns in tracer.self_ns.items()},
                        "spans": tracer.spans,
                    }
                )
        out["absent"] = tracer.absent
        out["traced"] = traced
    out["reps"] = reps
    out["failed"] = failed
    out["attempted"] = sum(len(r["checks"]) for r in reps)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
