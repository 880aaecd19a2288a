"""Attack-tolerant fusion of multi-path time-transfer measurements.

The package simulates a steered clock observed over several independent
synchronization paths, any of which may be biased by a delay attack.
Per-path evidence (self-consistency and cross-path residuals) is fused
with a two-hypothesis evidence rule to flag malicious paths before the
surviving reports steer the clock; fault-tolerant averaging and a
single-path residual detector are included as baselines, and scoring
covers detection precision/recall plus the time deviation of the steered
clock.
"""

from .baselines import SingleDetectorState, fta_update, make_single_state, single_update
from .clocksim import (
    ClockState,
    EventSchedule,
    NoiseConfig,
    PathObservation,
    PeriodicAttackRule,
    PeriodicJumpRule,
    RngStreams,
    build_schedule,
    observe_path,
    step_clock,
)
from .evidence import (
    Calibration,
    MassPair,
    TotalConflictError,
    VACUOUS,
    VARIANTS,
    bpa_from_residual,
    calibrate,
    combine,
    combine_all,
    min_detectable_attack,
    threshold_for_false_alarm,
)
from .fusion import (
    CalibrationSet,
    EpochRecord,
    FrequencyEstimate,
    Verdict,
    build_calibration_set,
    classify_paths,
    compute_update,
    estimate_frequency,
    residual_sigmas,
    residuals_for_path,
)
from .harness import (
    METHODS,
    PRESET_NAMES,
    RunResult,
    Scenario,
    ScenarioError,
    emit,
    format_sweep_table,
    parse_run_csv,
    parsed_stats,
    plotdata_text,
    preset,
    run_csv_text,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_json,
    summarize_parsed,
    summarize_run,
    sweep,
    write_run_csv,
)
from .metrics import DetectionCounts, TdevCurve, per_path_counts, precision_recall, tdev, tdev_curve

__version__ = "0.1.0"

__all__ = [
    "Calibration",
    "CalibrationSet",
    "ClockState",
    "DetectionCounts",
    "EpochRecord",
    "EventSchedule",
    "FrequencyEstimate",
    "MassPair",
    "METHODS",
    "NoiseConfig",
    "PathObservation",
    "PeriodicAttackRule",
    "PeriodicJumpRule",
    "PRESET_NAMES",
    "RngStreams",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SingleDetectorState",
    "TdevCurve",
    "TotalConflictError",
    "VACUOUS",
    "VARIANTS",
    "Verdict",
    "bpa_from_residual",
    "build_calibration_set",
    "build_schedule",
    "calibrate",
    "classify_paths",
    "combine",
    "combine_all",
    "compute_update",
    "emit",
    "estimate_frequency",
    "format_sweep_table",
    "fta_update",
    "make_single_state",
    "min_detectable_attack",
    "observe_path",
    "parse_run_csv",
    "parsed_stats",
    "per_path_counts",
    "plotdata_text",
    "precision_recall",
    "preset",
    "residual_sigmas",
    "residuals_for_path",
    "run_csv_text",
    "run_scenario",
    "scenario_from_dict",
    "scenario_from_json",
    "scenario_to_json",
    "single_update",
    "step_clock",
    "summarize_parsed",
    "summarize_run",
    "sweep",
    "tdev",
    "tdev_curve",
    "threshold_for_false_alarm",
    "write_run_csv",
]
