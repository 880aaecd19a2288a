"""The benchmark's workloads: their inputs, one timed repetition each, and its checks.

Every workload builds its scenarios from a simulation seed in ``setup``
and runs them in ``rep``, which returns the host times of its phases and
one :class:`RunCheck` per simulated run.  Times cover only calls into
timefuse; the checks (digests, invariants) run between them, untimed.

The bench seed maps onto ``N_VARIANTS`` simulation seeds, so every input
a run can get has committed golden digests (``golden.json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import timefuse
import timefuse.cli
from timefuse.clocksim import PeriodicAttackRule

N_VARIANTS = 10

#: CSV cells round to 0.001 ps, so TDEV read back from a CSV may differ
#: from the in-memory curve by a fraction of that; 0.01 ps is 20 rounding
#: steps and far below any real TDEV (tens of ps).
TDEV_TOLERANCE_S = 1e-14


#: Digest labels of the files ``timefuse.emit`` writes, in its default
#: format order, and the suffixes it gives them after the run's stem.
ARTIFACTS = ("csv", "summary", "tdev")
ARTIFACT_SUFFIXES = (".csv", "_summary.txt", "_tdev.csv")


def sim_seed(bench_seed: int) -> int:
    """Simulation seed for a bench seed; seed 1 is the library's default."""
    return 1 + bench_seed % N_VARIANTS


def run_key(scenario) -> str:
    """Identifier of one simulated run, the stem ``emit`` gives its files."""
    return f"{scenario.name}_{scenario.method}_seed{scenario.seed}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunCheck:
    """Output digests and problems of one simulated run.

    ``digests`` maps each artifact the run wrote (``csv``, ``summary``,
    ``tdev``, and on ``day_run`` also the ``report_*`` files) to its sha256.
    """

    key: str
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Rep:
    """Host times of one repetition of a workload, in seconds."""

    wall_s: float = 0.0
    run_s: float = 0.0
    emit_s: float = 0.0
    report_s: float = 0.0
    cells: int = 0
    run_latencies: list = field(default_factory=list)
    checks: list = field(default_factory=list)


def stats_problems(result_stats, parsed_stats) -> list:
    """Differences between a run's counts/TDEV and those recomputed from its CSV."""
    counts, path_counts, curve = result_stats
    p_counts, p_path_counts, p_curve = parsed_stats
    problems = []
    if counts != p_counts:
        problems.append(f"parsed counts {p_counts} != run counts {counts}")
    if tuple(path_counts) != tuple(p_path_counts):
        problems.append("parsed per-path counts differ from the run's")
    if (curve is None) != (p_curve is None):
        problems.append("TDEV present in only one of run and parsed CSV")
    elif curve is not None:
        if curve.taus != p_curve.taus:
            problems.append("parsed TDEV ladder differs from the run's")
        elif any(
            not math.isclose(a, b, rel_tol=0.0, abs_tol=TDEV_TOLERANCE_S)
            for a, b in zip(curve.deviations, p_curve.deviations)
        ):
            problems.append("parsed TDEV differs from the run's beyond CSV rounding")
    return problems


def golden_failures(checks, golden) -> int:
    """Mark runs whose digests differ from ``golden``; return how many runs failed.

    ``golden`` maps run keys to the expected ``RunCheck.digests``; ``None``
    skips the digest comparison (the in-process tests at tiny sizes).
    """
    failed = 0
    for c in checks:
        if golden is not None and not c.problems:
            expected = golden.get(c.key)
            if expected is None:
                c.problems.append("no golden digest for this run")
            else:
                c.problems += [
                    f"{label} digest differs from golden"
                    for label in sorted(set(expected) | set(c.digests))
                    if expected.get(label) != c.digests.get(label)
                ]
        failed += bool(c.problems)
    return failed


class _ApiWorkload:
    """Runs scenarios through the library API: run, emit artifacts, read the CSV back."""

    name = ""

    def __init__(self, seed: int, workdir: Path, epochs: int | None = None):
        self.seed = sim_seed(seed)
        self.workdir = Path(workdir)
        self.epochs = epochs
        self.scenarios: list = []

    def scenario_list(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        scenarios = self.scenario_list()
        if self.epochs is not None:
            scenarios = [replace(s, n_epochs=self.epochs) for s in scenarios]
        self.scenarios = scenarios

    @property
    def max_epochs(self) -> int:
        return max(s.n_epochs for s in self.scenarios)

    def invariants(self, scenario, result) -> list:
        return []

    def rep(self) -> Rep:
        rep = Rep()
        for scenario in self.scenarios:
            check = RunCheck(run_key(scenario))
            rep.checks.append(check)
            t0 = perf_counter()
            try:
                result = timefuse.run_scenario(scenario)
                t1 = perf_counter()
                paths = timefuse.emit(result, self.workdir)
                t2 = perf_counter()
                parsed = timefuse.parsed_stats(timefuse.parse_run_csv(paths[0]))
                t3 = perf_counter()
            except Exception as exc:  # a failed run is counted, not fatal
                rep.wall_s += perf_counter() - t0
                check.problems.append(f"raised {exc!r}")
                continue
            rep.wall_s += t3 - t0
            rep.run_s += t1 - t0
            rep.emit_s += t2 - t1
            rep.report_s += t3 - t2
            rep.cells += scenario.n_epochs * scenario.n_paths
            rep.run_latencies.append(t1 - t0)

            check.digests = {
                label: sha256_file(path) for label, path in zip(ARTIFACTS, paths)
            }
            check.problems += stats_problems(
                (result.counts, result.path_counts, result.tdev), parsed
            )
            check.problems += self.invariants(scenario, result)
            for p in paths:
                p.unlink()
        return rep


class PresetSweep(_ApiWorkload):
    """The paper's evaluation: every preset under every method at one seed."""

    name = "preset_sweep"

    def scenario_list(self) -> list:
        return [
            timefuse.preset(name, method=method, seed=self.seed)
            for name in timefuse.PRESET_NAMES
            for method in timefuse.METHODS
        ]


#: Path count of ``wide_paths``; residuals and evidence grow as its square.
WIDE_N = 20


class WidePaths(_ApiWorkload):
    """DS2 and DS0 on 20 paths under a staggered attack (path i hit every 50 s at 2i s)."""

    name = "wide_paths"

    def scenario_list(self) -> list:
        attacks = tuple(
            PeriodicAttackRule(paths=(i,), period_s=50.0, phase_s=2.0 * i, magnitude_s=10e-9)
            for i in range(WIDE_N)
        )
        return [
            timefuse.Scenario(
                name=f"wide{WIDE_N}",
                n_paths=WIDE_N,
                n_epochs=1000,
                method=method,
                seed=self.seed,
                attack_rules=attacks,
            )
            for method in ("DS2", "DS0")
        ]

    def invariants(self, scenario, result) -> list:
        c = result.counts
        if scenario.method == "DS2" and (c.precision != 1.0 or c.recall != 1.0):
            return [f"DS2 precision {c.precision} / recall {c.recall}, expected 1.0 / 1.0"]
        return []


#: Epochs of ``day_run``: six hours of 1 s epochs.  A full day (86,400)
#: fits only 3-4 repetitions in a run, and on a shared 2-core host its
#: times then spread by 0.2-0.37 (quartile distance over median) between
#: runs, more than the 0.25 bound of the time metrics; six hours keeps the memory
#: growth with run length in view and spreads by about 0.12-0.19.
DAY_RUN_EPOCHS = 21_600


class DayRun(_ApiWorkload):
    """fig5d for six hours of 1 s epochs under FTA, through the command line in-process."""

    name = "day_run"

    def scenario_list(self) -> list:
        scenario = timefuse.preset("fig5d", method="FTA", seed=self.seed)
        return [replace(scenario, n_epochs=DAY_RUN_EPOCHS)]

    def setup(self) -> None:
        super().setup()
        (scenario,) = self.scenarios
        self.scenario_path = self.workdir / "day.json"
        self.scenario_path.write_text(timefuse.scenario_to_json(scenario), encoding="utf-8")
        if timefuse.scenario_from_json(self.scenario_path.read_text(encoding="utf-8")) != scenario:
            raise RuntimeError("day_run scenario does not survive its JSON round trip")

    def rep(self) -> Rep:
        cli = timefuse.cli
        (scenario,) = self.scenarios
        key = run_key(scenario)
        run_dir = self.workdir / "run"
        report_dir = self.workdir / "report"
        csv_path = run_dir / f"{key}.csv"
        rep = Rep()
        check = RunCheck(key)
        rep.checks.append(check)
        seen: dict = {}

        # Time and capture three calls cli makes, keeping only the statistics
        # of the run so its per-epoch ledger is freed as the CLI frees it.
        keeps = {
            "run_scenario": lambda r: (r.counts, r.path_counts, r.tdev),
            "emit": lambda paths: None,
            "parsed_stats": lambda stats: stats,
        }
        saved = {name: getattr(cli, name) for name in keeps}

        def timed(name, inner, keep):
            def call(*args, **kwargs):
                t0 = perf_counter()
                out = inner(*args, **kwargs)
                seen[name] = (perf_counter() - t0, keep(out))
                return out

            return call

        for name, keep in keeps.items():
            setattr(cli, name, timed(name, saved[name], keep))
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc_run = cli.main(["run", str(self.scenario_path), "--out", str(run_dir)])
                t1 = perf_counter()
                rc_report = cli.main(["report", str(csv_path), "--out", str(report_dir)])
            t2 = perf_counter()
        except Exception as exc:  # a failed run is counted, not fatal
            rep.wall_s = perf_counter() - t0
            check.problems.append(f"raised {exc!r}")
            return rep
        finally:
            for name, inner in saved.items():
                setattr(cli, name, inner)

        rep.wall_s = t2 - t0
        rep.report_s = t2 - t1
        if rc_run != 0 or rc_report != 0 or set(seen) != set(keeps):
            check.problems.append(
                f"cli exit codes run={rc_run} report={rc_report}, timed calls {sorted(seen)}"
            )
            return rep
        rep.run_s = seen["run_scenario"][0]
        rep.emit_s = seen["emit"][0]
        rep.cells = scenario.n_epochs * scenario.n_paths
        rep.run_latencies.append(rep.run_s)

        check.digests = {
            label: sha256_file(run_dir / f"{key}{suffix}")
            for label, suffix in zip(ARTIFACTS, ARTIFACT_SUFFIXES)
        }
        check.digests.update(
            (f"report_{label}", sha256_file(report_dir / f"{key}{suffix}"))
            for label, suffix in zip(ARTIFACTS[1:], ARTIFACT_SUFFIXES[1:])
        )
        check.problems += stats_problems(seen["run_scenario"][1], seen["parsed_stats"][1])
        for d in (run_dir, report_dir):
            for p in d.iterdir():
                p.unlink()
        return rep


WORKLOADS = {w.name: w for w in (PresetSweep, WidePaths, DayRun)}
