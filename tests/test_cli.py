"""End-to-end tests for the command-line interface."""

import json

import pytest

from timefuse import cli, harness
from timefuse.harness import parse_run_csv, run_scenario, scenario_from_dict, summarize_run


def run_cli(argv, capsys):
    """Invoke the CLI in-process and collect (exit code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert "usage" in err

    def test_missing_argument_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(["calibrate"], capsys)
        assert code == 1

    def test_unknown_preset_is_a_scenario_error(self, capsys):
        code, _, err = run_cli(["preset", "fig9"], capsys)
        assert code == 2
        assert "invalid scenario" in err

    def test_missing_file_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(["run", str(tmp_path / "nope.json")], capsys)
        assert code == 3
        assert "i/o error" in err

    def test_invalid_scenario_json_is_a_scenario_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "n_paths": 1, "n_epochs": 10}))
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == 2
        assert "invalid scenario" in err

    @pytest.mark.parametrize(
        "rules",
        [
            {"jumps": [{"period_s": 30.0, "phase_s": float("inf"), "magnitude_s": 1e-9}]},
            {"jumps": [{"period_s": float("nan"), "phase_s": 0.0, "magnitude_s": 1e-9}]},
            {
                "attacks": [
                    {
                        "paths": [0],
                        "period_s": 10.0,
                        "phase_s": 0.0,
                        "magnitude_s": 1e-8,
                        "duration_epochs": 3,
                    },
                    {"paths": [0, 1], "period_s": 10.0, "phase_s": 2.0, "magnitude_s": 1e-8},
                ]
            },
        ],
    )
    def test_bad_event_rules_are_a_scenario_error(self, rules, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "n_paths": 3, "n_epochs": 60, **rules}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["run", str(path), "--out", str(out_dir)], capsys)
        assert code == 2
        assert "invalid scenario: event rules: " in err
        assert out == ""
        assert not out_dir.exists()

    def test_detector_noise_without_sigma_is_a_scenario_error(self, capsys, tmp_path):
        path = tmp_path / "quiet.json"
        noise = {"sigma_link_s": [0.0, 0.0, 1e-11], "sigma_meas_s": 0.0}
        path.write_text(json.dumps({"name": "x", "n_paths": 3, "n_epochs": 60, "noise": noise}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["run", str(path), "--out", str(out_dir)], capsys)
        assert code == 2
        assert "invalid scenario: noise: " in err and "sigma" in err
        assert out == ""
        assert not out_dir.exists()

    def test_nonpositive_seed_count_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(["sweep", "--preset", "fig3", "--seeds", "0"], capsys)
        assert code == 1


class TestPresetAndRun:
    def test_preset_prints_loadable_json(self, capsys):
        code, out, _ = run_cli(["preset", "exp3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "exp3"
        assert data["n_paths"] == 3

    def test_preset_accepts_overrides(self, capsys):
        code, out, _ = run_cli(["preset", "fig3", "--method", "fta", "--seed", "9"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "FTA"
        assert data["seed"] == 9

    def test_preset_to_run_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(["preset", "exp3"], capsys)
        assert code == 0
        scn = tmp_path / "exp3.json"
        scn.write_text(out)

        # shrink the run so the test stays fast
        data = json.loads(out)
        data["n_epochs"] = 200
        scn.write_text(json.dumps(data))

        code, out, _ = run_cli(
            ["run", str(scn), "--out", str(tmp_path), "--seed", "5"], capsys
        )
        assert code == 0
        assert "run exp3" in out
        assert "wrote" in out
        csv_path = tmp_path / "exp3_DS2_seed5.csv"
        assert csv_path.exists()
        assert (tmp_path / "exp3_DS2_seed5_summary.txt").exists()
        assert (tmp_path / "exp3_DS2_seed5_tdev.csv").exists()
        assert parse_run_csv(csv_path).seed == 5

    def test_run_format_selection(self, capsys, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps({"name": "s", "n_paths": 3, "n_epochs": 60}))
        code, _, _ = run_cli(
            ["run", str(scn), "--out", str(tmp_path), "--format", "csv"], capsys
        )
        assert code == 0
        assert (tmp_path / "s_DS2_seed1.csv").exists()
        assert not (tmp_path / "s_DS2_seed1_summary.txt").exists()

    def test_method_override(self, capsys, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps({"name": "s", "n_paths": 3, "n_epochs": 60}))
        code, _, _ = run_cli(
            ["run", str(scn), "--out", str(tmp_path), "--method", "FTA"], capsys
        )
        assert code == 0
        assert (tmp_path / "s_FTA_seed1.csv").exists()

    @pytest.mark.parametrize(
        "formats", [["csv", "summary", "plotdata"], ["plotdata", "summary"], ["csv"]]
    )
    def test_run_formats_the_summary_once(self, formats, capsys, tmp_path, monkeypatch):
        data = {"name": "s", "n_paths": 3, "n_epochs": 80}
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps(data))
        summary = summarize_run(run_scenario(scenario_from_dict(data)))
        calls = []
        summarize = harness.summarize_run

        def counted(result):
            calls.append(result.scenario.name)
            return summarize(result)

        monkeypatch.setattr(harness, "summarize_run", counted)
        monkeypatch.setattr(cli, "summarize_run", counted)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["run", str(scn), "--out", str(out_dir), "--format", *formats], capsys
        )
        assert code == 0
        assert calls == ["s"]
        suffixes = {"csv": ".csv", "summary": "_summary.txt", "plotdata": "_tdev.csv"}
        written = [out_dir / f"s_DS2_seed1{suffixes[f]}" for f in formats]
        assert out == summary + "".join(f"wrote {path}\n" for path in written)
        if "summary" in formats:
            assert (out_dir / "s_DS2_seed1_summary.txt").read_bytes() == summary.encode()

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps({"name": "s", "n_paths": 3, "n_epochs": 80, "seed": 4}))
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run_cli(
                ["run", str(scn), "--out", str(out_dir), "--format", "csv"], capsys
            )
            assert code == 0
        assert (a / "s_DS2_seed4.csv").read_bytes() == (b / "s_DS2_seed4.csv").read_bytes()


class TestCalibrate:
    def test_prints_the_design_points(self, capsys):
        code, out, _ = run_cli(
            ["calibrate", "--sigma", "38.08", "--pf", "1e-3", "--pm", "1e-3"], capsys
        )
        assert code == 0
        assert "threshold T      = 117.676 ps" in out
        assert "min detectable L = 235.352 ps" in out
        assert "midpoint B       = 117.676 ps" in out
        assert "steepness A" in out

    @pytest.mark.parametrize("option, rate", [("--pf", "0.7"), ("--pf", "1e-300"), ("--pm", "1e-300")])
    def test_rejects_bad_rate(self, option, rate, capsys):
        code, _, err = run_cli(["calibrate", "--sigma", "38.08", option, rate], capsys)
        assert code == 1
        assert "must lie in" in err


class TestReport:
    def test_report_reprints_summary(self, capsys, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps({"name": "s", "n_paths": 3, "n_epochs": 80}))
        run_cli(["run", str(scn), "--out", str(tmp_path), "--format", "csv"], capsys)
        code, out, _ = run_cli(["report", str(tmp_path / "s_DS2_seed1.csv")], capsys)
        assert code == 0
        assert "run s" in out
        assert "precision" in out

    def test_report_can_write_artifacts(self, capsys, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps({"name": "s", "n_paths": 3, "n_epochs": 80}))
        run_cli(["run", str(scn), "--out", str(tmp_path), "--format", "csv"], capsys)
        out_dir = tmp_path / "reports"
        code, out, _ = run_cli(
            ["report", str(tmp_path / "s_DS2_seed1.csv"), "--out", str(out_dir)], capsys
        )
        assert code == 0
        assert (out_dir / "s_DS2_seed1_summary.txt").exists()
        assert (out_dir / "s_DS2_seed1_tdev.csv").exists()

    def test_report_computes_statistics_once_per_csv(self, capsys, tmp_path, monkeypatch):
        for name in ("s", "t"):
            scn = tmp_path / f"{name}.json"
            scn.write_text(json.dumps({"name": name, "n_paths": 3, "n_epochs": 80}))
            run_cli(["run", str(scn), "--out", str(tmp_path), "--format", "csv"], capsys)
        computed = []
        stats_of = cli.parsed_stats
        monkeypatch.setattr(cli, "parsed_stats", lambda p: computed.append(p.name) or stats_of(p))
        monkeypatch.setattr(harness, "parsed_stats", None)  # summaries must reuse cli's result
        out_dir = tmp_path / "reports"
        csvs = [str(tmp_path / f"{name}_DS2_seed1.csv") for name in ("s", "t")]
        code, out, _ = run_cli(["report", *csvs, "--out", str(out_dir)], capsys)
        assert code == 0
        assert computed == ["s", "t"]
        summary = (out_dir / "t_DS2_seed1_summary.txt").read_text()
        assert summary in out

    def test_report_rejects_mangled_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,run\n")
        code, _, err = run_cli(["report", str(bad)], capsys)
        assert code == 2
        assert "bad.csv" in err

    @pytest.mark.parametrize(
        "line",
        [
            "# window_epochs=0",
            "# window_epochs=1",
            "# window_epochs=-5",
            "# tau_s=nan",
            "# tau_s=0",
            "# tau_s=-1",
            "# tau_s=inf",
            "# tau_s=1e-300",
            "# tau_s=1e300",
            "# seed=-1",
        ],
    )
    def test_report_rejects_a_preamble_value_no_scenario_allows(self, line, capsys, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps({"name": "s", "n_paths": 3, "n_epochs": 80}))
        run_cli(["run", str(scn), "--out", str(tmp_path), "--format", "csv"], capsys)
        key = line.partition("=")[0]
        rows = (tmp_path / "s_DS2_seed1.csv").read_text().splitlines(keepends=True)
        assert sum(row.startswith(key + "=") for row in rows) == 1
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line + "\n" if row.startswith(key + "=") else row for row in rows))
        code, out, err = run_cli(["report", str(bad)], capsys)
        assert code == 2
        assert "bad.csv" in err and key[2:] in err
        assert out == ""


    @pytest.mark.parametrize(
        "line, message",
        [
            ("# name=../escaped", "name: must be"),
            ("# method=bogus", "method: unknown 'bogus'"),
            ("# n_paths=1", "n_paths: need at least 2"),
            ("# n_paths=2", "n_paths: FTA needs at least 3 paths"),
        ],
    )
    def test_report_rejects_a_run_no_scenario_could_make(self, line, message, capsys, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text(json.dumps({"name": "s", "method": "FTA", "n_paths": 3, "n_epochs": 40}))
        run_cli(["run", str(scn), "--out", str(tmp_path), "--format", "csv"], capsys)
        key = line.partition("=")[0]
        rows = (tmp_path / "s_FTA_seed1.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line + "\n" if row.startswith(key + "=") else row for row in rows))
        before = sorted(tmp_path.rglob("*"))
        out_dir = tmp_path / "out" / "inner"
        code, out, err = run_cli(["report", str(bad), "--out", str(out_dir)], capsys)
        assert code == 2
        assert f"{bad}: {message}" in err
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before


class TestSweep:
    def test_small_sweep_prints_a_table(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--preset", "fig3", "--seeds", "1", "--methods", "DS2"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert any("fig3" in line and "DS2" in line for line in lines)
        assert "tdev" in out

    def test_unknown_preset_rejected(self, capsys):
        code, _, err = run_cli(["sweep", "--preset", "fig9", "--seeds", "1"], capsys)
        assert code == 2
        assert "fig9" in err
