"""timefuse benchmark: times one workload from outside the package and checks its outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload preset_sweep --seed 0 --seconds 30 --trace 0

Workloads, metrics and units are listed in ``BENCHMARK.json``.  With
``--trace 0`` the run starts ``N_PROBES`` workers that only set up (for
``setup_s``) and one worker that repeats the workload for ``--seconds``;
it reports the end-to-end metrics as medians over set-ups and
repetitions.  With ``--trace 1`` one worker runs the workload once
untraced and then at least twice under the outside-in tracer
(``tracer.py``), and the run reports the per-layer metrics.  Workers run
one at a time, each in a fresh process.

Every simulated run's CSV and summary are compared with the committed
digests in ``golden.json`` and checked for invariants
(``workloads.py``); a run that raises or fails a check counts as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; everything else measured,
including spans and provenance, goes to
``.perfbench_out/results/<workload>-seed<seed>-trace<t>.json``.

Exit status is 0 when a result was printed, 1 when a worker failed or
timed out, and 2 when the checkout holds no ``src/timefuse`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up-only workers per ``--trace 0`` run; with the measuring worker's
#: own set-up they give five set-up times, whose median is ``setup_s``.
N_PROBES = 4
#: Every worker must have ended this long after the run started.
DEADLINE_S = 170.0
#: ``run_tail_s`` is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

#: Which end-to-end metrics each layer should move, and on which workloads.
#: A later change names its layer here to state its prediction; on the
#: workloads not listed the prediction is no change.
PREDICTIONS = {
    "clocksim": {
        "moves": ["cells_per_s", "wall_s"],
        "workloads": ["day_run", "preset_sweep"],
        "note": "dominant on day_run",
    },
    "evidence": {
        "moves": ["wall_s", "cells_per_s", "run_p50_s", "run_tail_s"],
        "workloads": ["wide_paths", "preset_sweep"],
        "note": "about 80% of wide_paths; about 0 on day_run",
    },
    "fusion": {
        "moves": ["wall_s", "cells_per_s", "run_p50_s", "run_tail_s"],
        "workloads": ["wide_paths", "preset_sweep"],
        "note": "about 0 on day_run",
    },
    "baselines": {"moves": ["cells_per_s"], "workloads": ["day_run", "preset_sweep"]},
    "metrics": {
        "moves": ["wall_s"],
        "workloads": ["day_run"],
        "note": "TDEV on 21,600 points",
    },
    "harness": {
        "moves": ["emit_s", "report_s", "peak_rss_mb", "cells_per_s"],
        "workloads": ["day_run"],
        "note": "per-epoch ledger, CSV write and parse",
    },
    "cli": {"moves": ["wall_s"], "workloads": ["day_run"]},
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").split()[:3]
    except OSError:
        return None


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "timefuse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one thread per worker, and the same string hashing in every worker
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONHASHSEED"] = "0"
    workdir = OUT_DIR / "tmp" / f"{args.workload}-{mode}-{os.getpid()}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--workdir", str(workdir)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["timefuse_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported timefuse from {result['timefuse_file']}, not {SRC}")
    return result


def tail_percentile(samples) -> tuple | None:
    """``(percentile, value)``: the highest whole percentile with ``TAIL_BEYOND`` samples above it.

    Uses the nearest-rank definition; ``None`` with too few samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    p = 100 * (n - TAIL_BEYOND) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def spread(samples) -> float | None:
    """Quartile distance over median of ``samples``; ``None`` below two samples."""
    if len(samples) < 2:
        return None
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else None


def end_to_end(args, deadline: float, results: dict) -> tuple:
    """``(metrics, measuring worker's result)`` of a ``--trace 0`` run.

    Each metric is the median of its samples: set-up times of the workers
    for ``setup_s``, the measuring worker's repetitions for the others.
    The samples and their spread go to the results file, so a comparison
    can tell a metric this run did not resolve from one that did not move.
    """
    setups = [spawn("probe", args, deadline)["setup_s"] for _ in range(N_PROBES)]
    m = spawn("measure", args, deadline)
    setups.append(m["setup_s"])
    reps = m["reps"]
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in reps],
        "cells_per_s": [r["cells"] / r["run_s"] if r["run_s"] else 0.0 for r in reps],
        "emit_s": [r["emit_s"] for r in reps],
        "report_s": [r["report_s"] for r in reps],
        "peak_rss_mb": [m["peak_rss_bytes"] / 1e6],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    results["within_run_spread"] = {name: spread(values) for name, values in samples.items()}

    # reported but not gated: fail_share is 0 when all is well, and the
    # per-run latencies exist only where a repetition has over TAIL_BEYOND runs
    extra = {"fail_share": (m["failed"] / m["attempted"], "ratio")}
    tails = [tail_percentile(r["run_latencies"]) for r in reps]
    if all(tails):
        p50 = statistics.median(statistics.median(r["run_latencies"]) for r in reps)
        extra["run_p50_s"] = (p50, "s")
        extra[f"run_tail_s (p{tails[0][0]} of {len(reps[0]['run_latencies'])} runs)"] = (
            statistics.median(v for _, v in tails), "s")
    results.update(samples=samples, extra_metrics=extra)
    return metrics, m


def per_layer(args, deadline: float, results: dict, defects: list) -> tuple:
    """``(metrics, tracing worker's result)`` of a ``--trace 1`` run."""
    t = spawn("trace", args, deadline)
    untraced, traced_reps = t["reps"][0], t["reps"][1:]
    traced = t["traced"]
    calls = traced[0]["calls"]
    for k, tr in enumerate(traced[1:], start=2):
        diff = sorted(n for n in calls if tr["calls"].get(n) != calls[n])
        if diff:
            defects.append(f"call counts differ between traced reps 1 and {k}: {diff}")

    metrics: dict = {}
    for target in tracer.TARGETS:
        present = target not in t["absent"]
        metrics[f"{target}.calls"] = calls[target] if present else None
        metrics[f"{target}.self_s"] = (
            statistics.median(tr["self_s"][target] for tr in traced) if present else None
        )
    bpa = metrics["evidence.bpa_from_residual.calls"]
    if bpa is None or metrics["fusion.classify_paths.calls"] is None:
        metrics["evidence.distinct_mass_share"] = None
    else:
        metrics["evidence.distinct_mass_share"] = calls["evidence.channels_needed"] / bpa if bpa else 0.0
    metrics["harness.csv_bytes"] = calls["harness.csv_bytes"]
    metrics["harness.bytes_per_epoch"] = (
        t["peak_rss_untraced_bytes"] - t["rss_after_import_bytes"]
    ) / t["max_epochs"]
    traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    metrics["trace.unattributed_s"] = statistics.median(
        r["wall_s"] - sum(tr["self_s"].values()) for r, tr in zip(traced_reps, traced)
    )
    results.update(traced=traced, absent=t["absent"])
    return metrics, t


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (SRC / "timefuse" / "__init__.py").is_file():
        print(f"perfbench: no timefuse package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results: dict = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "loadavg_start": read_loadavg(),
        "predictions": PREDICTIONS,
    }
    defects: list = []
    try:
        if args.trace:
            metrics, worker = per_layer(args, deadline, results, defects)
            declared = spec["per_layer"]
        else:
            metrics, worker = end_to_end(args, deadline, results)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = [
        f"{c['key']}: {problem}"
        for r in worker["reps"]
        for c in r["checks"]
        for problem in c["problems"]
    ]
    spreads = results.get("within_run_spread", {})
    results.update(
        numpy=worker["numpy"],
        rss_after_import_bytes=worker["rss_after_import_bytes"],
        reps=worker["reps"],
        loadavg_end=read_loadavg(),
        elapsed_s=time.monotonic() - started,
        metrics=metrics,
        attempted=worker["attempted"],
        failed=worker["failed"],
        failures=failures,
        bench_defects=defects,
    )
    out_path = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {results['provenance']['nproc']}  loadavg {' '.join(results['loadavg_start'] or [])}")
    for m in declared:
        value = metrics[m["name"]]
        shown = "absent" if value is None else f"{value:.6g}"
        line = f"  {m['name']:<40} {shown:>14} {m['unit']:<6}"
        if spreads.get(m["name"]) is not None:
            line += f"  spread {spreads[m['name']]:.3f} of {len(results['samples'][m['name']])}"
        print(line)
    for name, (value, unit) in results.get("extra_metrics", {}).items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for line in defects:
        print(f"  BENCH DEFECT {line}")
    print(f"  results in {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": worker["failed"] == 0 and not defects,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
