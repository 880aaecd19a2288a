"""A full-day run and its report stay within a fixed memory budget.

The budget is measured in a fresh interpreter, so nothing the test
session has imported or allocated counts: ``timefuse run`` and then
``timefuse report`` on fig5d under DS2 for 86,400 one-second epochs, and
the peak resident memory compared with the resident memory after
``import timefuse`` and one ``RngStreams`` (which imports
``numpy.random``, as every run does).  The peak is the ``VmHWM`` of the
interpreter's own address space: Linux carries a forked child's
``ru_maxrss`` over from the parent's pages across ``exec``, so that
figure would count the test session too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import timefuse

#: Peak memory above import that a day's run plus its report may take.
LIMIT_MB = 50.0

DAY_RUN = """
import contextlib, io, json, sys
from dataclasses import replace
from pathlib import Path

import timefuse
import timefuse.cli

timefuse.RngStreams(1, 2)


def status_bytes(key):
    with open("/proc/self/status", encoding="ascii") as f:
        line = next(line for line in f if line.startswith(key + ":"))
    return int(line.split()[1]) * 1024  # the kernel writes kB


base = status_bytes("VmRSS")
out = Path(sys.argv[1])
scenario = replace(timefuse.preset("fig5d", method="DS2"), n_epochs=86_400)
(out / "day.json").write_text(timefuse.scenario_to_json(scenario), encoding="utf-8")
csv = out / "run" / "fig5d_DS2_seed1.csv"
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        timefuse.cli.main(["run", str(out / "day.json"), "--out", str(out / "run")]),
        timefuse.cli.main(["report", str(csv), "--out", str(out / "report")]),
    ]
peak = status_bytes("VmHWM")
print(json.dumps({"codes": codes, "rows": csv.read_text().count("\\n"), "above": peak - base}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_a_day_run_and_its_report_stay_within_the_memory_budget(tmp_path):
    src = str(Path(timefuse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", DAY_RUN, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0]
    assert result["rows"] == 7 + 86_400  # the preamble, the header and one row per epoch
    assert result["above"] / 2**20 < LIMIT_MB
