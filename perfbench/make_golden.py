"""Regenerate ``golden.json``: sha256 digests of every file each run writes.

Covers every workload at full size for each of the ``N_VARIANTS``
simulation seeds a bench seed can map to.  Run it from the root of a
checkout whose outputs are known to be right, and commit the result::

    PYTHONPATH=src python3 perfbench/make_golden.py

It takes a few minutes; every run must also pass its invariants.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORKDIR = BENCH_DIR.parent / ".perfbench_out" / "tmp" / "golden"


def main() -> int:
    golden: dict = {}
    for name, cls in workloads.WORKLOADS.items():
        digests = golden[name] = {}
        for bench_seed in range(workloads.N_VARIANTS):
            WORKDIR.mkdir(parents=True, exist_ok=True)
            try:
                workload = cls(bench_seed, WORKDIR)
                workload.setup()
                rep = workload.rep()
            finally:
                shutil.rmtree(WORKDIR, ignore_errors=True)
            for check in rep.checks:
                if check.problems:
                    print(f"{check.key}: {check.problems}", file=sys.stderr)
                    return 1
                digests[check.key] = check.digests
            print(f"{name} seed {bench_seed}: {len(rep.checks)} runs", file=sys.stderr)
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
