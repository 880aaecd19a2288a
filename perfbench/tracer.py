"""Outside-in tracer: wraps public timefuse functions without editing the package.

Each target ``"<layer>.<name>"`` names an attribute of ``timefuse.<layer>``.
Installing the tracer replaces that object in every loaded ``timefuse.*``
module whose attribute is bound to the same object, because ``harness``,
``fusion`` and ``cli`` import names directly and patching only the
defining module would miss their calls.  A class target (``RngStreams``)
has its ``__init__`` wrapped instead, so ``isinstance`` keeps working.

Per call the wrapper adds to two in-memory accumulators: a call count and
a self time, which is the call's duration minus the durations of wrapped
calls made inside it.  Full spans (name, start, end, parent span, rep id)
are kept only for the coarse targets, whose calls are few.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

#: Functions traced per layer; a layer is a module of the ``timefuse`` package.
LAYERS = {
    "clocksim": ("step_clock", "observe_path", "build_schedule", "RngStreams"),
    "evidence": ("bpa_from_residual", "combine_all", "combine", "calibrate"),
    "fusion": (
        "classify_paths",
        "residuals_for_path",
        "estimate_frequency",
        "compute_update",
        "build_calibration_set",
    ),
    "baselines": ("fta_update", "single_update"),
    "metrics": ("tdev_curve", "tdev", "precision_recall", "per_path_counts"),
    "harness": (
        "run_scenario",
        "run_csv_text",
        "parse_run_csv",
        "parsed_stats",
        "summarize_run",
        "summarize_parsed",
        "emit",
    ),
    "cli": ("main",),
}

TARGETS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

#: Targets called a few times per run; only these record full spans.
COARSE = frozenset(
    {
        "harness.run_scenario",
        "harness.run_csv_text",
        "harness.parse_run_csv",
        "harness.parsed_stats",
        "harness.summarize_run",
        "harness.summarize_parsed",
        "harness.emit",
        "metrics.tdev_curve",
        "cli.main",
    }
)


class Tracer:
    """Call counts, self times and coarse spans for a set of targets.

    ``install`` patches, ``uninstall`` restores.  Targets that no longer
    exist are listed in ``absent`` and left out, so the bench still runs
    against a rewritten engine.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.absent: list = []
        self._patches: list = []
        self._notes = {
            "fusion.classify_paths": self._count_channels,
            "harness.run_csv_text": self._count_csv_bytes,
        }
        self.reset(rep=0)

    def reset(self, rep: int) -> None:
        """Zero every accumulator and tag later spans with ``rep``."""
        self.rep = rep
        self.calls = dict.fromkeys(self.targets, 0)
        self.self_ns = dict.fromkeys(self.targets, 0)
        self.spans: list = []
        # channels needed by classify_paths (self + unordered pairs), and CSV bytes produced
        self.channels_needed = 0
        self.csv_bytes = 0
        self._child_ns: list = []
        self._open_spans: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "timefuse" or name.startswith("timefuse."))
        ]
        for target in self.targets:
            layer, _, attr = target.partition(".")
            try:
                module = importlib.import_module(f"timefuse.{layer}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.absent.append(target)
                    continue
                original.__init__ = self._wrap(target, init)
                self._patches.append((original, "__init__", init))
                continue
            wrapper = self._wrap(target, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._patches.append((m, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, target: str, fn):
        coarse = target in COARSE
        note = self._notes.get(target)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._child_ns
            span = None
            if coarse:
                span = len(tracer.spans)
                parent = tracer._open_spans[-1] if tracer._open_spans else None
                tracer.spans.append(None)
                tracer._open_spans.append(span)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                elapsed = t1 - t0
                child = stack.pop()
                tracer.calls[target] += 1
                tracer.self_ns[target] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if coarse:
                    tracer._open_spans.pop()
                    tracer.spans[span] = (target, t0, t1, parent, tracer.rep)
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _count_channels(self, args, result) -> None:
        n = len(args[0])  # classify_paths(offsets, ...): n self + n(n-1)/2 pair channels
        self.channels_needed += n + n * (n - 1) // 2

    def _count_csv_bytes(self, args, result) -> None:
        self.csv_bytes += len(result.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced reps."""
        out = {t: self.calls[t] for t in self.targets if t not in self.absent}
        out["harness.csv_bytes"] = self.csv_bytes
        out["evidence.channels_needed"] = self.channels_needed
        return out

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9
