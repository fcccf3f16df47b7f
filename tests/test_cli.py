from __future__ import annotations

import hashlib
import json
import platform

import numpy as np
import pytest

from dynloc import oracles
from dynloc.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, console_main, main
from dynloc.experiments import read_provenance, read_summary

SPEC_TEXT = """
[sweep]
speed_classes = 4:5
pause_times = 0
repetitions = 3
duration = 30
seed_base = 55

[sfr]
period = 2

[dvm]
t_max = 6
"""


def _lines(capsys) -> list[str]:
    return capsys.readouterr().out.rstrip("\n").split("\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_prints_provenance_and_summary_row(capsys):
    assert main(["simulate", "--protocol", "sfr", "--seed", "7"]) == EXIT_OK
    out = _lines(capsys)
    assert out[0] == "# dynloc simulate v1"
    assert out[1].startswith("# config ")
    config = json.loads(out[1][len("# config "):])
    assert config["protocol"] == "sfr" and config["seed"] == 7
    assert len(config["trace_sha"]) == 64
    assert out[2] == "localization_count,mean_error,max_error,accuracy,correction_count"
    row = out[3].split(",")
    assert int(row[0]) == 451  # 900 s at a 2 s period, plus the forced t=0 fix
    assert 0.0 <= float(row[3]) <= 1.0


def test_simulate_is_deterministic_per_seed(capsys):
    args = ["simulate", "--protocol", "madrd", "--duration", "60", "--seed", "3"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first
    main(["simulate", "--protocol", "madrd", "--duration", "60", "--seed", "4"])
    assert capsys.readouterr().out != first


def test_simulate_writes_summary_and_events_files(tmp_path, capsys):
    out = tmp_path / "row.csv"
    events = tmp_path / "events.csv"
    code = main([
        "simulate", "--protocol", "dvm", "--duration", "30",
        "--out", str(out), "--events-out", str(events),
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("# dynloc simulate v1\n")
    lines = events.read_text().rstrip("\n").split("\n")
    assert lines[0] == "# dynloc events v1"
    assert lines[2] == "t,true_x,true_y,reported_x,reported_y,error,localized,period,confidence"
    assert len(lines) == 3 + 301  # 30 s on a 0.1 s grid, inclusive


def test_simulate_accepts_trace_file(tmp_path, capsys):
    trace_file = tmp_path / "node.txt"
    trace_file.write_text("0 10 10 20 50 10\n")
    code = main([
        "simulate", "--protocol", "sfr", "--trace-file", str(trace_file),
        "--duration", "20", "--noise", "0",
    ])
    assert code == EXIT_OK
    config = json.loads(_lines(capsys)[1][len("# config "):])
    assert config["mobility"] == f"file:{trace_file}"


def test_simulate_rejects_invalid_parameter(capsys):
    assert main(["simulate", "--protocol", "sfr", "--period", "0"]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--pause-times", "0,nan", "--repetitions", "1"], "pause_times"),
        (["sweep", "--duration", "inf", "--repetitions", "1"], "duration"),
        (["simulate", "--protocol", "sfr", "--pause", "nan"], "pause_time"),
        (["simulate", "--protocol", "madrd", "--period-growth", "inf"], "period_growth"),
        (["simulate", "--protocol", "sfr", "--speed", "a:b"], "field 'speed'"),
        (["export-trace", "--speed", "x:1"], "field 'speed'"),
    ],
)
def test_non_finite_input_is_rejected_naming_the_field(tmp_path, capsys, argv, field):
    out_dir = tmp_path / "out"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out_dir)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err and field in err
    assert not out_dir.exists()


# Byte digests of the simulate and export-trace outputs, pinned for these library
# versions only (see test_acceptance.GOLDEN_VERSIONS).  Each case runs in its
# own directory with relative paths, so no temporary path reaches a header.
CLI_GOLDEN_VERSIONS = ("3.11.7", "2.4.6")
CLI_GOLDEN_CASES = {
    "simulate_rwp_backtracking": (
        ["simulate", "--protocol", "dvm", "--mobility", "rwp", "--speed", "2:3", "--pause", "10",
         "--duration", "60", "--seed", "7", "--backtracking", "--events-out", "events.csv"],
        {
            "stdout": "99445830723890c26ee0a9430769d0c967de59b62d29c511f159445d55a0a394",
            "events.csv": "3752ac342979eb907f5225645ecdf5de64d8c4d023926d689197e3e376c1297f",
        },
    ),
    "simulate_gauss_markov_madrd": (
        ["simulate", "--protocol", "madrd", "--mobility", "gauss_markov", "--gm-memory", "0.6",
         "--duration", "60", "--seed", "3", "--events-out", "events.csv"],
        {
            "stdout": "f7c99d053779fc416f3ed1dc5bdd7a65f3a89fa70961aaccad23a25e3877d791",
            "events.csv": "61645dc433624217c80833889262d867a9c1d950984a4631e50d6308b510393d",
        },
    ),
    "simulate_trace_file": (
        ["simulate", "--protocol", "sfr", "--trace-file", "node.txt", "--duration", "20"],
        {"stdout": "d6e4cc69e6a5ed55bf2d8f746761967e37281ccb4c0b12791f4cb97564cc3a27"},
    ),
    "export_rwp": (
        ["export-trace", "--mobility", "rwp", "--speed", "1:2", "--pause", "5",
         "--duration", "60", "--seed", "5"],
        {"stdout": "a784586f7f0cd1a01f14f4576814b50bc7074761690a5211e9b8c74658de8976"},
    ),
    "export_gauss_markov": (
        ["export-trace", "--mobility", "gauss_markov", "--gm-speed-sigma", "0.3",
         "--duration", "60", "--seed", "5"],
        {"stdout": "fae28d91ef5db9dfca98dc80cfa51efaba8120b631d441cd1e62b033cc3bd377"},
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_GOLDEN_CASES))
def test_cli_outputs_match_golden_digests(case, tmp_path, monkeypatch, capsys):
    versions = (platform.python_version(), np.__version__)
    if versions != CLI_GOLDEN_VERSIONS:
        pytest.skip(f"digests are pinned for Python/numpy {CLI_GOLDEN_VERSIONS}, running {versions}")
    argv, expected = CLI_GOLDEN_CASES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "node.txt").write_text("0 10 10 20 50 10\n")
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out.encode()
    for name, digest in expected.items():
        data = stdout if name == "stdout" else (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"{case} {name}"


def test_simulate_rejects_missing_trace_file(capsys):
    code = main(["simulate", "--protocol", "sfr", "--trace-file", "/does/not/exist"])
    assert code == EXIT_VALIDATION
    assert "trace-file" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["simulate", "--protocol", "sfr", "--warp", "9"]) == EXIT_USAGE
    assert main(["simulate"]) == EXIT_USAGE  # --protocol is required
    assert main([]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err


def test_console_main_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_from_spec_file_writes_csvs(tmp_path, capsys):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT)
    out_dir = tmp_path / "results"
    code = main(["sweep", "--spec", str(spec_file), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"wrote 6 runs to {out_dir}\n"
    runs = (out_dir / "runs.csv").read_text().rstrip("\n").split("\n")
    assert runs[0] == "# dynloc runs v1"
    assert len(runs) == 3 + 6  # two headers + column row, then one row per run
    config, rows = read_summary(out_dir / "summary.csv")
    assert config["repetitions"] == 3
    assert {r["protocol"] for r in rows} == {"sfr", "dvm"}


def test_sweep_flag_overrides_spec_file(tmp_path):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT)
    out_dir = tmp_path / "results"
    main([
        "sweep", "--spec", str(spec_file), "--out", str(out_dir),
        "--repetitions", "1", "--protocols", "sfr", "--seed-base", "99",
    ])
    config = read_provenance(out_dir / "runs.csv")
    assert config["repetitions"] == 1
    assert config["seed_base"] == 99
    assert [p["label"] for p in config["protocols"]] == ["sfr"]


def test_sweep_rejects_unknown_protocol_label(tmp_path, capsys):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT)
    code = main([
        "sweep", "--spec", str(spec_file), "--out", str(tmp_path / "x"),
        "--protocols", "gps",
    ])
    assert code == EXIT_VALIDATION
    assert "gps" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["../evil", "a,b"])
def test_sweep_rejects_unsafe_protocol_label_before_any_run(tmp_path, capsys, label):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT + f"\n[{label}]\nkind = sfr\n")
    out_dir = tmp_path / "out"
    code = main(["sweep", "--spec", str(spec_file), "--out", str(out_dir), "--events"])
    assert code == EXIT_VALIDATION
    assert repr(label) in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--seed-base", "-5", "--repetitions", "1"], "field 'seed_base'"),
        (["simulate", "--protocol", "sfr", "--seed", "-1"], "field 'seed'"),
        (["export-trace", "--seed", "-3"], "field 'seed'"),
    ],
)
def test_negative_seed_is_rejected_before_any_output(tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_sweep_events_flag_writes_event_logs(tmp_path):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT)
    out_dir = tmp_path / "results"
    main([
        "sweep", "--spec", str(spec_file), "--out", str(out_dir),
        "--repetitions", "1", "--events",
    ])
    assert (out_dir / "events_s4-5_p0_sfr_r0.csv").exists()
    assert (out_dir / "events_s4-5_p0_dvm_r0.csv").exists()


def test_sweep_stock_bundle_with_trimming(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code = main([
        "sweep", "--out", str(out_dir), "--repetitions", "1",
        "--duration", "30", "--pause-times", "0", "--protocols", "sfr,madrd",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"wrote 6 runs to {out_dir}\n"  # 3 classes * 2 protocols
    config = read_provenance(out_dir / "runs.csv")
    assert config["pause_times"] == [0.0]
    assert config["mobility"] == "rwp"


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_turn_table_matches_library(capsys):
    assert main(["oracle", "--turn", "--theta", "90", "--x", "3", "--nmax", "10", "--steps", "11"]) == EXIT_OK
    out = _lines(capsys)
    assert out[2] == "past_turn,sfr_error,madrd_error"
    rows = [line.split(",") for line in out[3:]]
    assert len(rows) == 11
    scenario = oracles.TurnScenario(
        straight_before_turn=3.0, turn_angle=1.5707963267948966, speed=1.0, period=13.0
    )
    last = rows[-1]
    assert float(last[0]) == 10.0
    assert float(last[1]) == pytest.approx(oracles.sfr_turn_error(scenario, 10.0))
    assert float(last[2]) == pytest.approx(oracles.madrd_turn_error(1.5707963267948966, 10.0))
    # Dead-reckoned error grows with distance past the turn; the held fix's
    # error starts at the straight-leg length.
    madrd_col = [float(r[2]) for r in rows]
    assert madrd_col == sorted(madrd_col)
    assert float(rows[0][1]) == pytest.approx(3.0)


def test_oracle_pause_table_shapes(capsys):
    assert main(["oracle", "--pause", "--d", "5", "--v", "1", "--steps", "11", "--horizon", "10"]) == EXIT_OK
    out = _lines(capsys)
    assert out[2] == "t,sfr_error,madrd_error"
    rows = [[float(v) for v in line.split(",")] for line in out[3:]]
    assert rows[0] == [0.0, 0.0, 0.0]
    # The held fix's error saturates at the stop distance; the dead-reckoned
    # one keeps growing after the stop at 5 s.
    assert rows[-1][1] == pytest.approx(5.0)
    assert rows[-1][2] == pytest.approx(5.0)  # (10 - 5) s * 1 m/s
    assert max(r[1] for r in rows) <= 5.0 + 1e-12


def test_oracle_requires_a_mode(capsys):
    assert main(["oracle", "--theta", "90"]) == EXIT_USAGE


def test_oracle_rejects_bad_table_shape(capsys):
    assert main(["oracle", "--turn", "--steps", "1"]) == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# trace import/export
# ---------------------------------------------------------------------------


def test_export_then_import_is_identity(tmp_path, capsys):
    exported = tmp_path / "trace.txt"
    main(["export-trace", "--duration", "60", "--seed", "5", "--out", str(exported)])
    reimported = tmp_path / "back.txt"
    code = main(["import-trace", "--in", str(exported), "--out", str(reimported)])
    assert code == EXIT_OK
    assert reimported.read_bytes() == exported.read_bytes()
    assert "imported 1 node(s), 601 samples" in capsys.readouterr().err


def test_import_trace_selects_single_node(tmp_path, capsys):
    src = tmp_path / "two.txt"
    src.write_text("0 0 0 10 10 0\n0 5 5 10 5 15\n")
    main(["import-trace", "--in", str(src), "--dt", "1", "--node", "1"])
    captured = capsys.readouterr()
    assert "imported 1 node(s), 11 samples" in captured.err
    assert captured.out.count("\n") == 1


def test_import_trace_reports_bad_line(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("0 0 0 10 10 0\n0 0\n")
    assert main(["import-trace", "--in", str(src)]) == EXIT_VALIDATION
    assert "line 2" in capsys.readouterr().err


def test_import_trace_rejects_out_of_area(tmp_path, capsys):
    src = tmp_path / "far.txt"
    src.write_text("0 0 0 10 900 0\n")
    assert main(["import-trace", "--in", str(src), "--area", "300x300"]) == EXIT_VALIDATION
    assert "area" in capsys.readouterr().err
