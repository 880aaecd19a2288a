"""The array CSV codec against row-by-row reference implementations.

``reference_parse`` below is a row-by-row reader: ``csv.reader`` over
the open file, one ``float()`` per cell and a dict lookup per flag, the
run held as tuples of Python floats.  ``parse_run_csv`` reads the data
rows with ``np.loadtxt``, one block of rows per call; on every file the
two must agree bit for bit, and so must the statistics recomputed from
them.

``reference_csv_text`` is a writer that sends every row of the ledger
through one ``%`` template.  ``run_csv_text`` formats the rows with a
numpy kernel that rounds each ``%.3f`` cell exactly (half-even on the
binary value, as ``%`` does) in 64-bit integers and writes the digits
into fixed-width byte slots; a block with a cell the kernel declines
(non-finite, 2**53 thousandths or more, or a ``%d`` cell that is not a
non-negative integer) goes whole through the same ``%`` template.  The
two writers must agree byte for byte, and the kernel must format any
double exactly as ``%`` does or decline it: ties, near-ties, signed
zeros, subnormals and the values around the 2**53 limit included.
"""

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_engine import scenarios
from timefuse import (
    METHODS,
    PRESET_NAMES,
    DetectionCounts,
    PeriodicAttackRule,
    PeriodicJumpRule,
    Scenario,
    preset,
    run_scenario,
    scenario_to_json,
)
from timefuse._csvrows import largest_formattable
from timefuse.cli import main as cli_main
from timefuse.harness import (
    _BLOCK_EPOCHS,
    _CSV_PREAMBLE,
    _PS,
    _blocks,
    _csv_layout,
    _csv_rows,
    _row_kernel,
    parse_run_csv,
    parsed_stats,
    run_csv_text,
    summarize_parsed,
    write_run_csv,
)
from timefuse.metrics import per_path_counts, tdev_curve

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

#: CSV cells round to 0.001 ps, so TDEV read back from a CSV may differ
#: from the in-memory curve by a fraction of that; 0.01 ps is 20 rounding
#: steps and far below any real TDEV (tens of ps).
TDEV_TOLERANCE_S = 1e-14


def _csv_header(n: int) -> list:
    """Column names of the run CSV for ``n`` paths."""
    return _csv_layout(n)[0]


def reference_parse(path) -> dict:
    """The run CSV at ``path`` read row by row into tuples of Python values."""
    path = Path(path)

    def fail(msg: str):
        raise ValueError(f"{path}: {msg}")

    with path.open(encoding="utf-8", newline="") as f:
        meta: dict = {}
        line = f.readline()
        while line.startswith("#"):
            key, sep, value = line.lstrip("# ").partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            line = f.readline()
        for key in _CSV_PREAMBLE:
            if key not in meta:
                fail(f"missing '# {key}=...' in the preamble")
        n = int(meta["n_paths"])
        rows = csv.reader(itertools.chain((line,) if line else (), f))
        expected = _csv_header(n)
        if next(rows, None) != expected:
            fail("unexpected header row")
        flag_values = {"0": False, "1": True}
        epochs, true_offsets, measured, flags, corrections, attacks = [], [], [], [], [], []
        for k, row in enumerate(rows):
            if len(row) != len(expected):
                fail(f"row {k} has {len(row)} cells, expected {len(expected)}")
            try:
                epochs.append(int(row[0]))
                true_offsets.append(float(row[1]) / _PS)
                measured.append(tuple([float(c) / _PS for c in row[2 : 2 + n]]))
                flags.append(tuple([flag_values[c] for c in row[2 + n : 2 + 2 * n]]))
                corrections.append(float(row[2 + 2 * n]) / _PS)
                attacks.append(tuple([float(c) / _PS for c in row[3 + 2 * n :]]))
            except KeyError:
                fail(f"row {k} has a flag cell that is not 0/1")
            except ValueError as exc:
                fail(f"row {k}: {exc}")
    return dict(
        name=meta["name"],
        method=meta["method"],
        seed=int(meta["seed"]),
        tau=float(meta["tau_s"]),
        window=int(meta["window_epochs"]),
        n_paths=n,
        epochs=tuple(epochs),
        true_offsets=tuple(true_offsets),
        measured=tuple(measured),
        flags=tuple(flags),
        corrections=tuple(corrections),
        attacks=tuple(attacks),
    )


def reference_stats(ref: dict) -> tuple:
    """``(counts, path_counts, tdev_curve)`` of a reference parse, from its tuples."""
    warm = min(ref["window"], len(ref["epochs"]))
    sync_errors = tuple(t + u for t, u in zip(ref["true_offsets"], ref["corrections"]))
    path_counts = per_path_counts(ref["flags"], ref["attacks"], warm)
    post = sync_errors[warm:]
    curve = tdev_curve(post, ref["tau"]) if len(post) >= 4 else None
    return sum(path_counts, DetectionCounts(0, 0, 0, 0)), path_counts, curve


def reference_csv_text(scenario, records) -> str:
    """The run CSV of ``records`` with every row through one ``%`` template."""
    n = scenario.n_paths
    preamble = (
        scenario.name, scenario.method, scenario.seed, repr(scenario.tau), scenario.window, n
    )
    out = [f"# {key}={value}\n" for key, value in zip(_CSV_PREAMBLE, preamble)]
    out.append(",".join(_csv_header(n)) + "\n")
    row = ",".join(["%d", "%.3f"] + ["%.3f"] * n + ["%d"] * n + ["%.3f"] * (1 + n)) + "\n"
    for r in records:
        cells = (
            [r.epoch, r.true_offset * _PS]
            + [o.measured_offset * _PS for o in r.observations]
            + [v.flagged for v in r.verdicts]
            + [r.correction * _PS]
            + [o.attack_truth * _PS for o in r.observations]
        )
        out.append(row % tuple(cells))
    return "".join(out)


def same_bits(a, b) -> bool:
    """Equal as IEEE doubles, so 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_parsers_agree(path):
    parsed = parse_run_csv(path)
    ref = reference_parse(path)
    for key in ("name", "method", "seed", "tau", "window", "n_paths"):
        assert getattr(parsed, key) == ref[key], key
    assert parsed.epochs.dtype == np.int64
    assert np.array_equal(parsed.epochs, ref["epochs"])
    n = parsed.n_paths
    for key in ("true_offsets", "corrections"):
        assert same_bits(getattr(parsed, key), ref[key]), key
    for key in ("measured", "attacks"):
        assert same_bits(getattr(parsed, key), np.reshape(ref[key], (-1, n))), key
    assert parsed.flags.dtype == bool
    for key in ("epochs", "true_offsets", "measured", "flags", "corrections", "attacks"):
        assert not getattr(parsed, key).flags.writeable, key
    assert parsed.flags.tolist() == [list(row) for row in ref["flags"]]
    counts, path_counts, curve = parsed_stats(parsed)
    assert (counts, path_counts, curve) == reference_stats(ref)
    return parsed


@functools.cache
def preset_run(name, method):
    """The run of preset ``name`` under ``method`` at seed 1, shared by the tests below."""
    return run_scenario(preset(name, method=method, seed=1))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_parser_matches_the_row_parser_on_presets(name, method, tmp_path):
    result = preset_run(name, method)
    parsed = assert_parsers_agree(write_run_csv(result, tmp_path / "run.csv"))
    assert len(parsed.epochs) == result.scenario.n_epochs


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_parsed_run_is_the_simulated_run_and_writes_its_file_back(name, method, tmp_path):
    result = preset_run(name, method)
    path = write_run_csv(result, tmp_path / "run.csv")
    parsed = parse_run_csv(path)
    assert write_run_csv(parsed, tmp_path / "again.csv").read_bytes() == path.read_bytes()
    for key in ("epochs", "flags", "attacks"):
        assert np.array_equal(getattr(parsed, key), getattr(result, key)), key
    assert parsed.epochs.dtype == result.epochs.dtype == np.int64
    assert parsed.counts == result.counts
    assert parsed.path_counts == result.path_counts
    assert parsed.scenario is None and parsed.log_odds is None and parsed.drift_taus is None
    assert (result.drift_taus is None) == (result.log_odds is None)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def written_run(scenario, csv_dir):
    """``(result, csv_path)`` of ``scenario``."""
    result = run_scenario(scenario)
    return result, write_run_csv(result, csv_dir / "run.csv")


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_parser_matches_the_row_parser_on_random_runs(csv_dir, scenario):
    _, path = written_run(scenario, csv_dir)
    assert_parsers_agree(path)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_csv_round_trip_keeps_flags_counts_and_tdev(csv_dir, scenario):
    result, path = written_run(scenario, csv_dir)
    parsed = parse_run_csv(path)
    assert np.array_equal(parsed.flags, result.flags)
    assert np.array_equal(parsed.attacks, result.attacks)
    counts, path_counts, curve = parsed_stats(parsed)
    assert counts == result.counts
    assert path_counts == result.path_counts
    if result.tdev is None:
        assert curve is None
    else:
        assert curve.taus == result.tdev.taus
        for a, b in zip(curve.deviations, result.tdev.deviations):
            assert abs(a - b) <= TDEV_TOLERANCE_S


@pytest.fixture(scope="module")
def edge_run():
    """``(scenario, result)`` of a short 3-path DS2 run with attacks on path 2."""
    scenario = Scenario(
        name="edge",
        n_paths=3,
        n_epochs=40,
        method="DS2",
        seed=2,
        attack_rules=(PeriodicAttackRule((1,), 10.0, 5.0, 1e-8),),
    )
    return scenario, run_scenario(scenario)


@pytest.fixture(scope="module")
def good_lines(edge_run):
    """Lines of the edge run's CSV, whose flag cells hold both 0 and 1."""
    scenario, result = edge_run
    lines = run_csv_text(scenario, result.records).splitlines()
    assert {line.split(",")[FLAG_2] for line in lines[FIRST_ROW:]} == {"0", "1"}
    return lines


#: Index of the first data line: six preamble lines and the header come first.
FIRST_ROW = 7
#: Cell index of path 2's flag in a 3-path row.
FLAG_2 = 6


def set_cell(lines, row, cell, value):
    cells = lines[FIRST_ROW + row].split(",")
    cells[cell] = value
    lines[FIRST_ROW + row] = ",".join(cells)


def drop_last_cell(lines, rows):
    for row in rows:
        lines[FIRST_ROW + row] = lines[FIRST_ROW + row].rpartition(",")[0]


MALFORMED = {
    "every row short": lambda lines: drop_last_cell(lines, range(len(lines) - FIRST_ROW)),
    "one row short": lambda lines: drop_last_cell(lines, [5]),
    "non-numeric cell": lambda lines: set_cell(lines, 3, 2, "abc"),
    "non-integer epoch": lambda lines: set_cell(lines, 2, 0, "2.5"),
    "flag cell 2": lambda lines: set_cell(lines, 1, FLAG_2, "2"),
}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_rows_are_rejected_naming_the_file(case, good_lines, tmp_path, capsys):
    lines = list(good_lines)
    MALFORMED[case](lines)
    path = write_lines(tmp_path / "bad.csv", lines)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reference_parse(path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        parse_run_csv(path)
    assert cli_main(["report", str(path)]) == 2
    assert "invalid data" in capsys.readouterr().err


def test_a_flag_written_as_one_point_zero_is_accepted(good_lines, tmp_path):
    lines = list(good_lines)
    row = next(k for k, line in enumerate(lines[FIRST_ROW:]) if line.split(",")[FLAG_2] == "1")
    set_cell(lines, row, FLAG_2, "1.0")
    path = write_lines(tmp_path / "relaxed.csv", lines)
    with pytest.raises(ValueError, match="flag"):
        reference_parse(path)
    parsed = parse_run_csv(path)
    original = parse_run_csv(write_lines(tmp_path / "good.csv", good_lines))
    assert parsed.flags[row, 1]
    assert np.array_equal(parsed.flags, original.flags)


def test_header_only_csv_parses_to_an_empty_run(good_lines, tmp_path, capsys):
    path = write_lines(tmp_path / "empty.csv", good_lines[:FIRST_ROW])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = parse_run_csv(path)
        stats = parsed_stats(parsed)
        summary = summarize_parsed(parsed)
    assert parsed.epochs.shape == (0,)
    assert parsed.flags.shape == parsed.measured.shape == (0, 3)
    assert parsed.warmup == 0
    counts, path_counts, curve = stats
    assert (counts, path_counts, curve) == (DetectionCounts(0, 0, 0, 0), (), None)
    assert stats == reference_stats(reference_parse(path))
    assert "(run too short)" in summary and "rms=" not in summary
    assert cli_main(["report", str(path)]) == 0
    assert capsys.readouterr().out == summary


@pytest.mark.parametrize("n_paths", ["0", "-1"])
def test_a_preamble_without_paths_is_rejected(n_paths, good_lines, tmp_path):
    lines = [
        f"# n_paths={n_paths}" if line.startswith("# n_paths=") else line for line in good_lines
    ]
    with pytest.raises(ValueError, match="n_paths: need at least 2"):
        parse_run_csv(write_lines(tmp_path / "bad.csv", lines))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["true_theta_ps", "theta_m_2_ps"])
def test_non_finite_cells_are_rejected_naming_the_file_and_row(
    column, value, good_lines, tmp_path, capsys
):
    lines = list(good_lines)
    set_cell(lines, 35, _csv_header(3).index(column), value)
    path = write_lines(tmp_path / "non_finite.csv", lines)
    message = f"{path}: row 35 has a non-finite {column} cell"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_run_csv(path)
    assert cli_main(["report", str(path)]) == 2
    assert "invalid data" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_block_lines():
    """Lines of a 3-path CSV whose rows fill one block of rows and part of the next."""
    scenario = Scenario(name="two", n_paths=3, n_epochs=_BLOCK_EPOCHS + 50, method="FTA", seed=3)
    return run_csv_text(scenario, run_scenario(scenario).records).splitlines()


#: A data row of the second block, counted from the first data row of the file.
SECOND_BLOCK_ROW = _BLOCK_EPOCHS + 20

SECOND_BLOCK_FAULTS = {
    "non-numeric cell": (
        2,
        "abc",
        f"could not convert string 'abc' to float64 at row {SECOND_BLOCK_ROW}",
    ),
    "non-finite cell": (2, "inf", f"row {SECOND_BLOCK_ROW} has a non-finite theta_m_1_ps cell"),
    "non-integer epoch": (0, "2.5", f"row {SECOND_BLOCK_ROW} has an epoch that is not an integer"),
    "flag cell 2": (FLAG_2, "2", f"row {SECOND_BLOCK_ROW} has a flag cell that is not 0/1"),
}


@pytest.mark.parametrize("case", sorted(SECOND_BLOCK_FAULTS))
def test_a_fault_in_the_second_block_names_its_row_in_the_file(case, two_block_lines, tmp_path):
    cell, value, message = SECOND_BLOCK_FAULTS[case]
    lines = list(two_block_lines)
    set_cell(lines, SECOND_BLOCK_ROW, cell, value)
    path = write_lines(tmp_path / "bad.csv", lines)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        parse_run_csv(path)


def test_empty_lines_across_a_block_edge_are_skipped(two_block_lines, tmp_path):
    clean = parse_run_csv(write_lines(tmp_path / "clean.csv", two_block_lines))
    lines = list(two_block_lines)
    edge = FIRST_ROW + _BLOCK_EPOCHS  # the line of the second block's first row
    # empty lines before the first block's last row, on the edge and after it
    lines[edge - 1 : edge + 1] = ["", "", lines[edge - 1], "", "", lines[edge], ""]
    gappy = parse_run_csv(write_lines(tmp_path / "gappy.csv", lines))
    assert len(gappy.epochs) == _BLOCK_EPOCHS + 50
    for key in ("epochs", "true_offsets", "measured", "flags", "corrections", "attacks"):
        assert np.array_equal(getattr(gappy, key), getattr(clean, key)), key


def assert_writers_agree(scenario, records):
    text = run_csv_text(scenario, records)
    assert text == reference_csv_text(scenario, records)
    return text


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_writer_matches_the_one_template_writer_on_random_runs(scenario):
    assert_writers_agree(scenario, run_scenario(scenario).records)


def quiet_share(result) -> float:
    """Share of a run's rows with no flag and no attack."""
    return float(np.mean(~(result.flags.any(axis=1) | (result.attacks != 0.0).any(axis=1))))


@pytest.mark.parametrize("magnitude", [1e-16, -1e-16])
def test_attacks_that_print_as_zero_keep_their_sign(magnitude):
    # no scenario attacks below the CSV's resolution, so the run is given such cells
    scenario = Scenario(name="tiny", n_paths=3, n_epochs=60, method="FTA")
    result = run_scenario(scenario)
    attacks = result.attacks.copy()
    attacks[5::10, 1] = magnitude
    text = assert_writers_agree(scenario, replace(result, attacks=attacks).records)
    attack_2 = [line.split(",")[-2] for line in text.splitlines()[FIRST_ROW:]]
    assert set(attack_2) <= {"0.000", "-0.000"}
    assert attack_2.count("-0.000") == (6 if magnitude < 0 else 0)


def test_negative_zero_attack_cells_are_written_with_their_sign(edge_run):
    scenario, result = edge_run
    attacks = result.attacks.copy()
    attacks[[3, 17]] = -0.0
    text = assert_writers_agree(scenario, replace(result, attacks=attacks).records)
    assert text.count(",-0.000") == 2 * scenario.n_paths


def test_flags_without_attacks_are_written():
    # Single flags path 1 when the clock jumps; no path is attacked
    scenario = Scenario(
        name="jumps",
        n_paths=3,
        n_epochs=120,
        method="Single",
        seed=4,
        jump_rules=(PeriodicJumpRule(40.0, 40.0, 5e-9),),
    )
    result = run_scenario(scenario)
    assert result.flags.any() and not result.attacks.any()
    assert_writers_agree(scenario, result.records)


def test_an_all_quiet_run_is_written():
    scenario = Scenario(name="clean", n_paths=4, n_epochs=200, method="FTA", seed=5)
    result = run_scenario(scenario)
    assert quiet_share(result) == 1.0
    assert_writers_agree(scenario, result.records)


def test_a_run_with_no_quiet_rows_is_written():
    scenario = Scenario(
        name="loud",
        n_paths=3,
        n_epochs=200,
        method="DS2",
        seed=6,
        attack_rules=(PeriodicAttackRule((2,), 1.0, 0.0, 1e-8),),
    )
    result = run_scenario(scenario)
    assert quiet_share(result) == 0.0
    assert_writers_agree(scenario, result.records)


def test_a_run_across_row_blocks_is_written():
    scenario = replace(preset("fig3", method="DS2", seed=3), n_epochs=8200)
    assert scenario.n_epochs > 2 * _BLOCK_EPOCHS
    result = run_scenario(scenario)
    assert 0.0 < quiet_share(result) < 1.0
    assert_writers_agree(scenario, result.records)


def test_header_only_text_matches(edge_run, good_lines, tmp_path):
    scenario, _ = edge_run
    empty = parse_run_csv(write_lines(tmp_path / "empty.csv", good_lines[:FIRST_ROW]))
    assert assert_writers_agree(scenario, empty.records).count("\n") == FIRST_ROW


# ---------------------------------------------------------------------------
# the row kernel, cell by cell

#: Paths of the rows the kernel tests format: cells 0, 4 and 5 are ``%d``.
KERNEL_PATHS = 2
INT_CELLS = frozenset({0, 4, 5})
KERNEL_ROW = ",".join(["%d", "%.3f"] + ["%.3f"] * 2 + ["%d"] * 2 + ["%.3f"] * 3) + "\n"
#: The largest double whose K = round(|v| * 1000) is below 2**53; the samples straddle it.
TOP = largest_formattable()


def declined(v: float, integer: bool) -> bool:
    """Whether the kernel must decline a chunk holding ``v`` in a ``%d`` or ``%.3f`` cell."""
    if not math.isfinite(v) or round(Fraction(abs(v)) * 1000) >= 2**53:
        return True
    return integer and (v != int(v) or math.copysign(1.0, v) < 0.0)


def assert_kernel_agrees(table):
    """The kernel formats the rows of ``table`` as the ``%`` template does, or declines them."""
    v = np.array(table, dtype=float).reshape(-1, 3 + 3 * KERNEL_PATHS)
    got = _row_kernel(KERNEL_PATHS).format(v)
    if any(declined(x, j in INT_CELLS) for row in v.tolist() for j, x in enumerate(row)):
        assert got is None
    else:
        assert got == "".join(KERNEL_ROW % tuple(row) for row in v.tolist()).encode("ascii")


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0005, -0.0005, 0.0625, 0.1875,
    TOP, -TOP, math.nextafter(TOP, 0.0), math.nextafter(TOP, math.inf),
    -math.nextafter(TOP, math.inf), 2.0**53, 1e300, math.inf, -math.inf, math.nan,
]
cell_values = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-(2**20), 2**20).map(lambda k: k / 16),  # exact binary ties at k odd
    st.integers(-(2**20), 2**20).map(lambda k: k / 2000),  # decimal near-ties
    st.integers(-(2**20), 2**20).map(lambda k: math.nextafter(k / 2000, math.inf)),
    st.floats(min_value=TOP / 2, max_value=2 * TOP),  # on either side of K = 2**53
    st.integers(0, 10**13).map(float),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(cell_values, min_size=9, max_size=45).map(lambda c: c[: len(c) // 9 * 9]))
def test_the_kernel_formats_any_double_as_percent_does_or_declines(cells):
    assert_kernel_agrees(cells)
    for lo in range(0, len(cells), 9):  # each row on its own: a declined row hides no other
        assert_kernel_agrees(cells[lo : lo + 9])


def test_the_kernel_rounds_ties_and_near_ties_as_percent_does():
    values = [k / 16 for k in range(-4096, 4096)]
    values += [x for k in range(-4000, 4000) for x in (k / 2000, math.nextafter(k / 2000, 0.0))]
    values += [5e-324, -5e-324, -0.0, TOP, -TOP, math.nextafter(TOP, 0.0), 123456.0005]
    values += [float(10**e) * s for e in range(13) for s in (1, -1)]
    values += [math.nextafter(10.0**e, 0.0) for e in range(13)]
    values += [0.0] * (-len(values) % 6)
    rows = np.reshape(values, (-1, 6))
    ints = np.arange(3 * len(rows)).reshape(-1, 3) % 2  # epoch-like counts and 0/1 flags
    table = np.column_stack([ints[:, 0] * 10**6 + 999_999, rows[:, :3], ints[:, 1:], rows[:, 3:]])
    step = _row_kernel(KERNEL_PATHS).chunk_rows
    for lo in range(0, len(table), step):
        assert_kernel_agrees(table[lo : lo + step])
    assert _row_kernel(KERNEL_PATHS).format(table[:step]) is not None


@pytest.mark.parametrize("cell", [0, 1, 4, 8])
@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, math.nextafter(TOP, math.inf), -1.0, 0.5, -0.0]
)
def test_the_kernel_declines_what_it_cannot_format(cell, value):
    row = [7.0, 1.5, -2.25, 3.0, 1.0, 0.0, 4.0, 5.0, 6.0]
    row[cell] = value
    expect_none = declined(value, cell in INT_CELLS)
    assert (_row_kernel(KERNEL_PATHS).format(np.array([row])) is None) == expect_none
    assert_kernel_agrees(row)


def test_a_block_the_kernel_declines_is_written_through_the_row_template():
    # a 100 s attack is 1e14 ps: K = 1e17 >= 2**53, so its block takes the fallback
    scenario = Scenario(
        name="huge",
        n_paths=3,
        n_epochs=2 * _BLOCK_EPOCHS + 10,
        method="FTA",
        attack_rules=(PeriodicAttackRule((1,), 1e6, _BLOCK_EPOCHS + 100.0, 100.0),),
    )
    result = run_scenario(scenario)
    attacked = np.flatnonzero(result.attacks[:, 1])
    assert attacked.tolist() == [_BLOCK_EPOCHS + 100]
    text = assert_writers_agree(scenario, result.records)
    assert text.splitlines()[FIRST_ROW + attacked[0]].split(",")[-2] == "100000000000000.000"
    kernel = _row_kernel(scenario.n_paths)
    layout = _csv_layout(scenario.n_paths)
    for lo, hi in _blocks(scenario.n_epochs):
        pieces = _csv_rows(kernel, layout, result, lo, hi)
        assert len(pieces) == (1 if lo <= attacked[0] < hi else -(-(hi - lo) // kernel.chunk_rows))


def test_the_six_hour_day_run_artifacts_match_the_committed_digests(tmp_path):
    # perfbench's day_run at seed 1 through the command line: the only golden
    # run with 22 blocks of rows and five-digit epochs
    scenario = replace(preset("fig5d", method="FTA", seed=1), n_epochs=21_600)
    day = tmp_path / "day.json"
    day.write_text(scenario_to_json(scenario), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["run", str(day), "--out", str(tmp_path / "run")]) == 0
        csv_path = tmp_path / "run" / "fig5d_FTA_seed1.csv"
        assert cli_main(["report", str(csv_path), "--out", str(tmp_path / "report")]) == 0
    files = {
        "csv": tmp_path / "run" / "fig5d_FTA_seed1.csv",
        "summary": tmp_path / "run" / "fig5d_FTA_seed1_summary.txt",
        "tdev": tmp_path / "run" / "fig5d_FTA_seed1_tdev.csv",
        "report_summary": tmp_path / "report" / "fig5d_FTA_seed1_summary.txt",
        "report_tdev": tmp_path / "report" / "fig5d_FTA_seed1_tdev.csv",
    }
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["day_run"]["fig5d_FTA_seed1"]
    assert {key: hashlib.sha256(p.read_bytes()).hexdigest() for key, p in files.items()} == golden
