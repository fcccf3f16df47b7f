from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import platform
import re
import socket
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynloc import cli, experiments, mobility, oracles
from dynloc.cli import EXIT_INTERRUPTED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, console_main, main
from dynloc.experiments import SUMMARY_COLUMNS, read_provenance
from dynloc.protocols import PROTOCOLS, ProtocolKind, sfr_step

from scenario_tools import read_table, time_limit

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


def test_simulate_header_records_the_gauss_markov_parameters(capsys):
    configs = []
    for memory in ("0.75", "0.5"):
        args = ["simulate", "--protocol", "madrd", "--mobility", "gauss_markov", "--duration", "60",
                "--seed", "3", "--gm-memory", memory, "--gm-speed-sigma", "0.3", "--gm-direction-sigma", "0.2"]
        assert main(args) == EXIT_OK
        config = json.loads(_lines(capsys)[1][len("# config "):])
        del config["trace_sha"]
        configs.append(config)
    assert configs[0] != configs[1]
    assert [c["gm_memory"] for c in configs] == [0.75, 0.5]
    assert {(c["gm_speed_sigma"], c["gm_direction_sigma"]) for c in configs} == {(0.3, 0.2)}

    # A random-waypoint trace ignores them, even out of range, and its header leaves them out.
    gm_flags = ["--gm-memory", "2", "--gm-speed-sigma", "-1", "--gm-direction-sigma", "nan"]
    assert main(["simulate", "--protocol", "madrd", "--duration", "60", *gm_flags]) == EXIT_OK
    config = json.loads(_lines(capsys)[1][len("# config "):])
    assert not any(key.startswith("gm_") for key in config)


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
    assert config["node"] == 0


def test_simulate_trace_file_header_records_the_node(tmp_path, capsys):
    trace_file = tmp_path / "two.txt"
    trace_file.write_text("0 0 0 10 10 0\n0 5 5 10 5 15\n")
    configs = []
    for node in ("0", "1"):
        argv = ["simulate", "--protocol", "sfr", "--trace-file", str(trace_file), "--duration", "10"]
        assert main([*argv, "--node", node]) == EXIT_OK
        configs.append(json.loads(_lines(capsys)[1][len("# config "):]))
    assert configs[0].keys() == configs[1].keys()
    differ = sorted(k for k in configs[0] if configs[0][k] != configs[1][k])
    assert differ == ["node", "trace_sha"]
    assert (configs[0]["node"], configs[1]["node"]) == (0, 1)


@pytest.mark.parametrize("node", ["2", "-1"])
@pytest.mark.parametrize("command", [["simulate", "--protocol", "sfr", "--trace-file"], ["import-trace", "--in"]])
def test_a_node_the_trace_file_lacks_is_rejected(tmp_path, capsys, command, node):
    trace_file = tmp_path / "two.txt"
    trace_file.write_text("0 0 0 10 10 0\n0 5 5 10 5 15\n")
    assert main([*command, str(trace_file), "--node", node]) == EXIT_VALIDATION
    assert "field 'node'" in capsys.readouterr().err


def test_simulate_and_import_trace_defaults_are_the_stock_sweep_values(capsys):
    stock = {f.name: f.default for f in dataclasses.fields(experiments.SweepSpec)}
    assert main(["simulate", "--protocol", "sfr"]) == EXIT_OK
    config = json.loads(_lines(capsys)[1][len("# config "):])
    assert config["mobility"] == stock["mobility"]
    assert config["area"] == [stock["area_w"], stock["area_h"]]
    assert config["noise"] == stock["noise_max"]
    assert config["dist_tolerance"] == stock["dist_tolerance"]
    assert config["duration"] == stock["duration"]
    assert config["dt"] == stock["dt"]
    args = cli._build_parser().parse_args(["import-trace", "--in", "node.txt"])
    assert args.dt == stock["dt"]
    assert experiments.parse_area(args.area) == (stock["area_w"], stock["area_h"])


@pytest.mark.parametrize(
    "argv, times",
    [
        # 900 s is 0.9 of one 1000 s step: the grid ends at t = 1000 s.
        (["--dt", "1000"], [0.0, 1000.0]),
        (["--duration", "0.05", "--dt", "0.1"], [0.0, 0.1]),
    ],
    ids=["dt_past_duration", "duration_half_a_step"],
)
def test_simulate_rounds_the_duration_up_to_whole_steps(tmp_path, capsys, argv, times):
    events = tmp_path / "events.csv"
    assert main(["simulate", "--protocol", "sfr", *argv, "--events-out", str(events)]) == EXIT_OK
    rows = events.read_text().rstrip("\n").split("\n")[3:]
    assert [float(row.split(",")[0]) for row in rows] == times


@dataclasses.dataclass(frozen=True)
class _LaggedConfig:
    period: float = 2.0
    lag: float = 0.5


@pytest.mark.parametrize("flags, lag", [([], 0.5), (["--lag", "2"], 2.0)])
def test_a_new_protocol_row_gets_its_flags(monkeypatch, capsys, flags, lag):
    # A fourth table row with a field no other config has: its flag comes from the row alone.
    monkeypatch.setitem(PROTOCOLS, "lagged", ProtocolKind(_LaggedConfig, sfr_step, predicts=False, fixed_rate=False))
    assert main(["simulate", "--protocol", "lagged", "--duration", "10", *flags]) == EXIT_OK
    config = json.loads(_lines(capsys)[1][len("# config "):])
    assert config["protocol_params"] == {"period": 2.0, "lag": lag}


def test_protocol_flags_left_out_keep_each_config_default():
    parse = cli._build_parser().parse_args
    for kind, entry in PROTOCOLS.items():
        assert cli._protocol_config(parse(["simulate", "--protocol", kind])) == entry.config()
    args = parse(["simulate", "--protocol", "dvm", "--t-max", "9"])
    assert cli._protocol_config(args) == PROTOCOLS["dvm"].config(t_max=9.0)


def test_simulate_rejects_invalid_parameter(capsys):
    assert main(["simulate", "--protocol", "sfr", "--period", "0"]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


_FILE_RUN = ["--protocol", "sfr", "--trace-file", "absent.txt"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--protocol", "sfr", "--t-max", "3"], "field 't_max' (--t-max): not a parameter of the sfr protocol\n"),
        (["--protocol", "sfr", "--t-max", "3", "--divergence-threshold", "9"],
         "fields 't_max'/'divergence_threshold' (--t-max/--divergence-threshold): not a parameter of the sfr protocol"),
        (["--protocol", "dvm", "--period-growth", "3"], "field 'period_growth' (--period-growth): not a parameter"),
        (["--protocol", "sfr", "--node", "5"], "field 'node': selects a line of --trace-file, which is not given"),
        (["--protocol", "sfr", "--node", "0"], "field 'node': selects a line of --trace-file, which is not given"),
        # A file run reads no generator flag.  The file does not exist, so a refusal after reading it
        # would name trace-file instead.
        ([*_FILE_RUN, "--mobility", "rwp"], "field 'mobility': not read with --trace-file"),
        ([*_FILE_RUN, "--speed", "9:10"], "field 'speed_class' (--speed): not read with --trace-file"),
        ([*_FILE_RUN, "--pause", "30"], "field 'pause_time' (--pause): not read with --trace-file"),
        ([*_FILE_RUN, "--gm-memory", "2"], "field 'gm_memory' (--gm-memory): not read with --trace-file"),
        ([*_FILE_RUN, "--gm-speed-sigma", "0.5"], "field 'gm_speed_sigma' (--gm-speed-sigma): not read"),
        ([*_FILE_RUN, "--gm-direction-sigma", "0.4"], "field 'gm_direction_sigma' (--gm-direction-sigma): not read"),
        ([*_FILE_RUN, "--gm-memory", "0.6", "--pause", "0", "--mobility", "gauss_markov"],
         "fields 'mobility'/'pause_time'/'gm_memory' (--pause/--gm-memory): not read with --trace-file, which "
         "replaces the generated trace\n"),
    ],
    ids=["t_max", "two_flags", "period_growth", "node", "node_0", "file_mobility", "file_speed", "file_pause",
         "file_gm_memory", "file_gm_speed_sigma", "file_gm_direction_sigma", "file_three"],
)
def test_simulate_refuses_a_flag_it_would_not_read(capsys, argv, named):
    assert main(["simulate", "--duration", "5", *argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"validation error: {named}")


def test_a_trace_file_run_is_bounded_and_described_by_its_file_alone(tmp_path, capsys):
    # No generator spec is built, so no leg bound of random waypoint refuses a 1 um area; about 0.01 s.
    trace_file = tmp_path / "still.txt"
    trace_file.write_text("0 0 0\n")
    argv = ["simulate", "--protocol", "sfr", "--trace-file", str(trace_file), "--area", "1e-6x1e-6", "--duration", "900"]
    assert main(argv) == EXIT_OK
    config = json.loads(_lines(capsys)[1][len("# config "):])
    assert not {"speed_class", "pause_time", "trace_seed", *mobility.GAUSS_MARKOV_FIELDS} & config.keys()
    assert (config["mobility"], config["area"], config["duration"]) == (f"file:{trace_file}", [1e-6, 1e-6], 900.0)


def test_a_trace_file_run_reads_duration_dt_area_and_seed(tmp_path, capsys):
    trace_file = tmp_path / "node.txt"
    trace_file.write_text("0 10 10 20 50 10\n")
    argv = ["simulate", "--protocol", "sfr", "--trace-file", str(trace_file)]
    assert main([*argv, "--duration", "20", "--dt", "0.5", "--area", "60x60", "--seed", "3"]) == EXIT_OK
    config = json.loads(_lines(capsys)[1][len("# config "):])
    assert (config["duration"], config["dt"], config["area"], config["seed"]) == (20.0, 0.5, [60.0, 60.0], 3)


@pytest.mark.parametrize("backtracking", [[], ["--backtracking"]], ids=["plain", "backtracking"])
@pytest.mark.parametrize("protocol", ["sfr", "dvm", "madrd"])
def test_fixes_that_overflow_name_noise_max(tmp_path, capsys, protocol, backtracking):
    # tier-1 turns a RuntimeWarning into an error, so this also shows that none is raised.
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--protocol", protocol, *backtracking, "--area", "1.7e308x1.7e308", "--noise", "1.7e308",
            "--duration", "20", "--seed", "0", "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: field 'noise_max' (--noise): 1.7e+308 makes ")
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_field_error_from_a_pool_worker_reaches_the_cli_whole(tmp_path, capsys, workers):
    spec_file = tmp_path / "spec.ini"
    spec_file.write_text("[sweep]\nspeed_classes = 4:5, 8:10\nrepetitions = 2\nduration = 10\n\n[sfr]\nperiod = 1e-300\n")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out_dir), "--workers", workers]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: field 'sfr.period': the next fix must come after the fix at t=0.1, ")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--pause-times", "0,nan", "--repetitions", "1"], "pause_times"),
        (["sweep", "--duration", "inf", "--repetitions", "1"], "duration"),
        (["simulate", "--protocol", "sfr", "--pause", "nan"], "pause_time"),
        (["simulate", "--protocol", "madrd", "--period-growth", "inf"], "period_growth"),
        (["simulate", "--protocol", "sfr", "--speed", "a:b"], "field 'speed'"),
        (["export-trace", "--speed", "x:1"], "field 'speed'"),
        (["simulate", "--protocol", "sfr", "--mobility", "gauss_markov", "--gm-memory", "2"], "field 'gm_memory'"),
        (["export-trace", "--mobility", "gauss_markov", "--gm-direction-sigma", "nan"], "field 'gm_direction_sigma'"),
        (["simulate", "--protocol", "sfr", "--dt", "0"], "field 'dt'"),
        (["simulate", "--protocol", "sfr", "--pause", "-1"], "field 'pause_time'"),
        (["simulate", "--protocol", "sfr", "--duration", "10", "--noise", "-1"], "field 'noise_max'"),
        (["simulate", "--protocol", "sfr", "--duration", "10", "--noise", "nan"], "field 'noise_max'"),
        (["simulate", "--protocol", "sfr", "--duration", "10", "--tolerance", "-1"], "field 'dist_tolerance'"),
        (["simulate", "--protocol", "sfr", "--duration", "10", "--tolerance", "inf"], "field 'dist_tolerance'"),
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


@pytest.mark.parametrize("protocol", ["sfr", "madrd"])
def test_simulate_whose_errors_overflow_exits_2_without_output(tmp_path, capsys, protocol):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--protocol", protocol, "--duration", "10", "--noise", "1e308", "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err and "field 'noise_max'" in err
    assert not out.exists()


def test_sweep_whose_errors_overflow_exits_2_without_output(tmp_path, capsys):
    spec_file = tmp_path / "spec.ini"
    spec_file.write_text(SPEC_TEXT.replace("duration = 30", "duration = 10\nnoise = 1e308"))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out_dir)]) == EXIT_VALIDATION
    assert "field 'noise':" in capsys.readouterr().err  # the spec file's key, raised while a cell runs
    assert not out_dir.exists()


# Byte digests of the simulate, oracle and trace outputs, pinned for these library
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
            "stdout": "bb3bdf916569e8b90bb96afb8c1b664778c87f0bc04cf1bacaadd1cf0aab2f47",
            "events.csv": "eb006d2a0c6bfd50b82110fe0234c1f93c8e33420e0eb5ef1c2e0adbf45bc5e3",
        },
    ),
    "simulate_sfr_events": (
        ["simulate", "--protocol", "sfr", "--period", "1.5", "--speed", "1:2", "--pause", "5",
         "--duration", "40", "--seed", "6", "--events-out", "events.csv"],
        {
            "stdout": "f536e87daff05c6238b5fa281073d6a50021a4313df3f120ce7a78925ff57d16",
            "events.csv": "28c55e12a747532a3a35f7ec968356dc7e402abc6843aed60217d89c637081dc",
        },
    ),
    # A fix at every one of the 201 steps: the `localized` column has no run of 0s.
    "simulate_dvm_every_step_a_fix": (
        ["simulate", "--protocol", "dvm", "--target-error", "0.01", "--t-min", "0.1",
         "--duration", "20", "--seed", "4", "--events-out", "events.csv"],
        {
            "stdout": "186289e57720dd1a20980d59aa17b681184012de9ac3b5467b724455973a9afa",
            "events.csv": "8101c7b694e7bd50976ab0c63b8ac65cf565baaeada727d22849799a5ff9174b",
        },
    ),
    # A file run's header holds no generator key (speed_class, pause_time, trace_seed).
    "simulate_trace_file": (
        ["simulate", "--protocol", "sfr", "--trace-file", "node.txt", "--duration", "20"],
        {"stdout": "7a1792b074f07e75a72f4a3e3dad92d5a88806b8592d185ef13998bb954b0358"},
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
    "simulate_out_file": (
        ["simulate", "--protocol", "madrd", "--duration", "60", "--seed", "11", "--out", "row.csv"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "row.csv": "8897760a8b92905527f0c8080c3915564ac6a05ec1d55514caa9877699b365e5",
        },
    ),
    "oracle_turn": (
        ["oracle", "--turn", "--theta", "75", "--x", "3", "--nmax", "10", "--steps", "11"],
        {"stdout": "055a707228495aa57e4fa45c71e7a2b766d951e63e954548a11bfde4709c2bba"},
    ),
    "oracle_pause": (
        ["oracle", "--pause", "--d", "5", "--v", "2", "--horizon", "8", "--steps", "9"],
        {"stdout": "30a633e5478d66b02f3a923bfad052cd5b5cc44b7cab6db15716f5176ec82932"},
    ),
    "import_trace": (
        ["import-trace", "--in", "node.txt", "--dt", "0.5", "--duration", "20"],
        {"stdout": "493bb394a08623ca2337fdb59df49e91a01f029dbce16b1c190a823f62596d8a"},
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


def test_an_abbreviated_flag_is_an_unknown_flag(capsys):
    # An abbreviation would dodge the field-to-flag map: "--dur -1e-3" read as --duration
    # stays two tokens, and argparse asks for --duration's value.
    parser = cli._build_parser()
    assert not parser.allow_abbrev and not any(sub.allow_abbrev for sub in parser.commands.values())
    assert main(["simulate", "--protocol", "sfr", "--dur", "-1e-3"]) == EXIT_USAGE
    assert "unrecognized arguments: --dur" in capsys.readouterr().err
    assert main(["simulate", "--protocol", "sfr", "--duration", "-1e-3"]) == EXIT_VALIDATION
    assert "field 'duration'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, kind", [
    ("--duration", "1_0", "number"), ("--duration", "١٠", "number"), ("--duration", "１０", "number"),
    ("--seed", "1_0", "integer"), ("--seed", "1.5", "integer"),
])
def test_a_numeric_flag_the_number_reader_refuses_is_a_usage_error(tmp_path, capsys, flag, value, kind):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--protocol", "sfr", flag, value, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: argument {flag}: invalid {kind} value: {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec_line, flags, message", [
    ("duration = 1_0", [], "spec file '{spec}': field 'duration': not a number: '1_0'"),
    ("repetitions = 1_0", [], "spec file '{spec}': field 'repetitions': not an integer: '1_0'"),
    ("area = ١٠x300", [], "spec file '{spec}': field 'area': not a number in '١٠x300'"),
    ("", ["--pause-times", "1_0"], "field 'pause_times' (--pause-times): not a number: '1_0'"),
])
def test_a_spec_number_the_number_reader_refuses_exits_2_naming_its_key(tmp_path, capsys, spec_line, flags, message):
    spec = tmp_path / "spec.ini"
    spec.write_text(f"[sweep]\nspeed_classes = 4:5\n{spec_line}\n[sfr]\nperiod = 2\n")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), *flags, "--out", str(out_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {message.format(spec=spec)}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["export-trace", "--mobility", "teleport", "--out", "out.txt"], "mobility"),
        (["simulate", "--mobility", "teleport", "--protocol", "sfr", "--out", "out.csv"], "mobility"),
        (["simulate", "--protocol", "nope", "--out", "out.csv", "--events-out", "events.csv"], "protocol"),
        (["sweep", "--bundle", "nope", "--out", "out"], "bundle"),
    ],
    ids=["export_mobility", "simulate_mobility", "protocol", "bundle"],
)
def test_a_value_outside_a_flags_set_exits_2_naming_its_field(tmp_path, monkeypatch, capsys, argv, field):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_VALIDATION
    assert f"validation error: field '{field}': must be " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    rows = read_table(out_dir / "summary.csv")
    assert list(rows[0]) == list(SUMMARY_COLUMNS)
    assert read_provenance(out_dir / "summary.csv")["repetitions"] == 3
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
        (["simulate", "--protocol", "sfr", "--trace-file", "absent.txt", "--seed", "-1"], "field 'seed'"),
        (["export-trace", "--seed", "-3"], "field 'seed'"),
        (["sweep", "--workers", "-3", "--repetitions", "1"], "field 'workers'"),
        (["sweep", "--workers", "0", "--repetitions", "1"], "field 'workers'"),
    ],
)
def test_negative_seed_is_rejected_before_any_output(tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["simulate", "--protocol", "sfr", "--events-out", "missing/e.csv"], "field 'events-out'"),
        (["simulate", "--protocol", "sfr", "--out", "missing/x"], "field 'out'"),
        (["simulate", "--protocol", "sfr", "--out", "."], "field 'out'"),
        (["sweep", "--repetitions", "1", "--out", "taken"], "field 'out'"),
        (["sweep", "--repetitions", "1", "--out", "taken/sub"], "field 'out'"),
        (["export-trace", "--out", "missing/t.txt"], "field 'out'"),
    ],
)
def test_unwritable_output_path_is_rejected_before_any_run(tmp_path, monkeypatch, capsys, argv, field):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(experiments, "run_sweep", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("a file\n")
    assert main(argv) == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize(
    "name, flags",
    [("runs.csv", []), ("summary.csv", []), ("events_s8-10_p0_madrd_r0.csv", ["--events"])],
    ids=["runs", "summary", "last-events-log"],
)
def test_sweep_output_that_is_a_directory_is_rejected_before_any_run(tmp_path, monkeypatch, capsys, name, flags):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the output paths were checked")

    monkeypatch.setattr(experiments, "run_sweep", no_run)
    (tmp_path / name).mkdir()
    argv = ["sweep", "--out", str(tmp_path), "--repetitions", "1", "--duration", "20", "--pause-times", "0", *flags]
    assert main(argv) == EXIT_VALIDATION
    assert f"field 'out': {str(tmp_path / name)!r} is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _main_in_child(argv: list[str], seconds: float = 10.0) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, from a forked child process that is killed after
    ``seconds``: a write that blocks (opening a FIFO, say) fails the test instead of hanging it."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def child() -> None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        send.send((code, err.getvalue()))

    process = context.Process(target=child)
    process.start()
    try:
        if not receive.poll(seconds):
            pytest.fail(f"{argv} still running after {seconds} s")
        return receive.recv()
    finally:
        process.kill()
        process.join()


_TINY_SWEEP = ["sweep", "--out", "{folder}", "--repetitions", "1", "--duration", "20", "--pause-times", "0"]
_SIMULATE = ["simulate", "--protocol", "sfr", "--duration", "10"]

# Files a command writes: the command ({path} is the file, {folder} the folder it is in) and its name.
_OUTPUT_FILES = {
    "sweep-runs": (_TINY_SWEEP, "runs.csv"),
    "sweep-summary": (_TINY_SWEEP, "summary.csv"),
    "sweep-events": ([*_TINY_SWEEP, "--events"], "events_s8-10_p0_madrd_r0.csv"),
    "simulate-out": ([*_SIMULATE, "--out", "{path}"], "row.csv"),
    "simulate-events-out": ([*_SIMULATE, "--events-out", "{path}"], "events.csv"),
    "oracle-out": (["oracle", "--turn", "--steps", "5", "--out", "{path}"], "table.csv"),
    "import-trace-out": (["import-trace", "--in", "{waypoints}", "--out", "{path}"], "trace.txt"),
    "export-trace-out": (["export-trace", "--duration", "10", "--out", "{path}"], "trace.txt"),
}


def _plant(kind: str, path: Path, target: Path) -> None:
    """Put a ``kind`` of entry that is not a regular file at ``path``; a symlink points at ``target``."""
    if kind == "directory":
        path.mkdir()
    elif kind == "symlink":
        path.symlink_to(target)
    elif kind == "fifo":
        os.mkfifo(path)
    elif kind == "socket":
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(str(path))  # the socket file stays after the socket closes
    else:
        try:
            os.mknod(path, stat.S_IFCHR | 0o600, os.makedev(1, 3))  # the null device's numbers
        except PermissionError:
            pytest.skip("making a device node needs privileges this process lacks")


@pytest.mark.parametrize("planted", ["directory", "symlink", "fifo"])
@pytest.mark.parametrize("command", list(_OUTPUT_FILES))
def test_an_entry_at_the_old_temp_name_is_left_as_it_is(tmp_path, command, planted):
    # A file's temp name is fresh, so nothing at <path>.tmp is refused, replaced or written through; a
    # sweep's files are written through its stage, every other file beside itself.  About 0.01 s each.
    argv, name = _OUTPUT_FILES[command]
    folder, target, waypoints = tmp_path / "out", tmp_path / "target.csv", tmp_path / "waypoints.txt"
    folder.mkdir()
    target.write_bytes(b"keep\n")
    waypoints.write_text("0 0 0 10 10 0\n")
    old_temp = folder / (name + ".tmp")
    _plant(planted, old_temp, target)

    values = {"folder": folder, "path": folder / name, "waypoints": waypoints}
    code, err = _main_in_child([arg.format(**values) for arg in argv])
    assert code == EXIT_OK, err
    written = {name, "runs.csv", "summary.csv"} if command.startswith("sweep") else {name}
    others = {p.name for p in folder.iterdir() if p.name in (name, old_temp.name) or not p.name.startswith("events_")}
    assert others == {*written, old_temp.name}  # besides the sweep's other events files
    assert (folder / name).read_text().startswith("0.0 " if command.endswith("trace-out") else "# dynloc ")
    assert old_temp.is_dir() == (planted == "directory") and old_temp.is_fifo() == (planted == "fifo")
    assert not old_temp.is_symlink() or os.readlink(old_temp) == str(target)
    assert target.read_bytes() == b"keep\n"


@pytest.mark.parametrize("planted", ["symlink", "fifo", "socket", "device"])
@pytest.mark.parametrize("command", ["sweep-runs", "sweep-summary", "sweep-events"])
def test_a_sweep_replaces_a_link_or_node_at_its_output_name(tmp_path, monkeypatch, command, planted):
    # A sweep's files reach --out by a rename from its stage, which replaces the link or node at the
    # name rather than writing through it: no row leaves --out, and no write blocks on a FIFO.
    monkeypatch.chdir(tmp_path)  # relative paths, short enough for a socket's address
    argv, name = _OUTPUT_FILES[command]
    folder, target = Path("out"), tmp_path / "outside.csv"
    folder.mkdir()
    target.write_bytes(b"keep\n")
    _plant(planted, folder / name, target)

    code, err = _main_in_child([arg.format(folder=folder) for arg in argv])
    assert code == EXIT_OK, err
    assert (folder / name).is_file() and not (folder / name).is_symlink()
    assert (folder / name).read_text().startswith("# dynloc ")
    assert [p.name for p in folder.iterdir() if p.name.startswith(".")] == []
    assert target.read_bytes() == b"keep\n"


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports dynloc from this checkout."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "madrd", "--duration", "30", "--events-out", "/dev/stdout"],
        ["export-trace", "--duration", "2000"],
        ["oracle", "--turn", "--steps", "5000"],  # many writes to stdout itself
    ],
    ids=["simulate-events-out", "export-trace", "oracle"],
)
def test_a_reader_that_closes_stdout_early_ends_the_command_with_0(argv):
    command = [sys.executable, "-m", "dynloc.cli", *argv]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as child:
        try:
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        finally:
            child.kill()
    assert (code, err.decode()) == (EXIT_OK, "")


def test_events_out_dev_stdout_keeps_the_summary_row_in_a_redirected_file(tmp_path):
    argv = [sys.executable, "-m", "dynloc.cli", "simulate", "--protocol", "madrd", "--duration", "1",
            "--events-out", "/dev/stdout"]
    piped = subprocess.run(argv, capture_output=True, env=_child_env(), timeout=60)
    assert piped.returncode == 0 and piped.stderr == b""
    with open(tmp_path / "f.txt", "wb") as out:
        done = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, env=_child_env(), timeout=60)
    assert done.returncode == 0 and done.stderr == b""
    # The simulate table (4 lines), then the event log (3 header lines, 11 rows).
    assert piped.stdout.count(b"\n") == 18 and piped.stdout.startswith(b"# dynloc simulate v1\n")
    assert (tmp_path / "f.txt").read_bytes() == piped.stdout


def test_events_out_at_the_file_stdout_is_redirected_to_keeps_the_summary_row(tmp_path):
    argv = [sys.executable, "-m", "dynloc.cli", "simulate", "--protocol", "madrd", "--duration", "1", "--events-out"]
    piped = subprocess.run([*argv, "/dev/stdout"], capture_output=True, env=_child_env(), timeout=60)
    target = tmp_path / "f.txt"
    with open(target, "wb") as out:
        done = subprocess.run([*argv, str(target)], stdout=out, stderr=subprocess.PIPE, env=_child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert piped.stdout.count(b"\n") == 18 and target.read_bytes() == piped.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]


@pytest.mark.parametrize("events_out", ["same.csv", "./same.csv", "{tmp}/same.csv"])
def test_out_and_events_out_at_one_file_exit_2_naming_both(tmp_path, monkeypatch, capsys, events_out):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--protocol", "sfr", "--duration", "5", "--out", "same.csv"]
    assert main([*argv, "--events-out", events_out.format(tmp=tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: fields 'out'/'events-out': 'same.csv' and ")
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_replaces_the_file_stdout_is_redirected_to(tmp_path):
    out_dir = tmp_path / "D"
    out_dir.mkdir()
    argv = [sys.executable, "-m", "dynloc.cli", *_TINY_SWEEP]
    argv[argv.index("{folder}")] = str(out_dir)
    with open(out_dir / "runs.csv", "wb") as out:
        done = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, env=_child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert sorted(p.name for p in out_dir.iterdir()) == ["runs.csv", "summary.csv"]
    assert (out_dir / "runs.csv").read_text().startswith("# dynloc runs v1\n")


def test_serial_commands_never_load_the_process_pool(tmp_path):
    script = f"""
import sys
from dynloc.cli import main
for argv in (
    {[arg.format(folder="sweep") for arg in _TINY_SWEEP]!r},
    {[*_SIMULATE, "--out", "row.csv"]!r},
    ["oracle", "--turn", "--steps", "5", "--out", "table.csv"],
    ["export-trace", "--duration", "10", "--out", "trace.txt"],
    ["import-trace", "--in", "trace.txt", "--out", "again.txt"],
):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith(("concurrent.futures.process", "multiprocessing"))))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class _FailingFile:
    """A file that takes the first body write and then fails, as a full disk would.

    A table's header is its first ``write`` and its body comes in later ones;
    waypoint text has no header and comes through ``writelines``.
    """

    def __init__(self, fh) -> None:
        self._fh = fh
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, text: str) -> int:
        self._writes += 1
        written = self._fh.write(text)
        if self._writes > 1:
            raise OSError("no space left on device")
        return written

    def writelines(self, lines) -> None:
        self._fh.write(next(iter(lines)))
        raise OSError("no space left on device")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "sfr", "--duration", "10"],
        ["oracle", "--turn", "--steps", "5"],
        ["export-trace", "--duration", "10"],
    ],
    ids=["simulate", "oracle", "export-trace"],
)
def test_failed_out_write_keeps_the_old_file(tmp_path, monkeypatch, capsys, argv):
    out = tmp_path / "out.txt"
    out.write_bytes(b"old bytes\n")
    monkeypatch.setattr(experiments, "open", lambda *a, **kw: _FailingFile(open(*a, **kw)), raising=False)
    assert main([*argv, "--out", str(out)]) == EXIT_RUNTIME
    assert "no space left" in capsys.readouterr().err
    assert out.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


@pytest.mark.parametrize(
    "spec_edit, flags, field",
    [
        (("pause_times = 0", "pause_times = 0, 0"), [], "field 'pause_times'"),
        (("", ""), ["--pause-times", "0,0"], "field 'pause_times'"),
        (("", ""), ["--pause-times", "1.0000001,1.0000002"], "field 'pause_times'"),
        (("speed_classes = 4:5", "speed_classes = 4:5, 4:5"), [], "field 'speed_classes'"),
        # Each cell's trace spec is checked with the sweep spec, before --out is made, serial or pooled.
        *(
            (("seed_base = 55", f"seed_base = 55\nmobility = gauss_markov\n{key} = {value}"),
             ["--workers", workers], f"field '{key}'")
            for key, value in (("gm_memory", "2"), ("gm_speed_sigma", "-1"))
            for workers in ("1", "2")
        ),
    ],
    ids=[
        "spec_pauses", "flag_pauses", "flag_pauses_equal_as_g", "spec_classes",
        "gm_memory_serial", "gm_memory_pooled", "gm_speed_sigma_serial", "gm_speed_sigma_pooled",
    ],
)
def test_sweep_rejects_cells_that_would_merge_before_any_run(tmp_path, capsys, spec_edit, flags, field):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT.replace(*spec_edit))
    out_dir = tmp_path / "out"
    code = main(["sweep", "--spec", str(spec_file), "--out", str(out_dir), "--events", *flags])
    assert code == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "spec_edit, field",
    [
        (("seed_base = 55", "seed_base = 55\nmobility = rwp%"), "field 'mobility'"),
        (("period = 2", "period = 2%(x)s"), "field 'sfr.period'"),
        (("[dvm]", "[dvm]\nkind = zzz"), "field 'dvm.kind'"),
        (("[sfr]", "[Sfr]"), "field 'Sfr.kind'"),
        (("t_max = 6", "t_max = true"), "field 'dvm.t_max'"),
        # The check simulate makes of --protocol sfr --t-max 3, named as the file names the key.
        (("period = 2", "period = 2\nt_max = 3"), "field 'sfr.t_max': not a parameter of the sfr protocol\n"),
        (("t_max = 6", "t_max = 6\nperiod = 2"), "field 'dvm.period': not a parameter of the dvm protocol\n"),
        # configparser would copy a [DEFAULT] key into [sweep] and every protocol section.
        (("[sweep]", "[DEFAULT]\nt_max = 6\n\n[sweep]"), "section 'DEFAULT'"),
        (("[sweep]", "[DEFAULT]\nkind = dvm\n\n[sweep]"), "section 'DEFAULT'"),
    ],
    ids=["percent", "percent_reference", "unknown_kind", "section_case", "param_type", "unread_param", "unread_param_dvm",
         "default_t_max", "default_kind"],
)
def test_sweep_rejects_malformed_spec_file_naming_the_field(tmp_path, capsys, spec_edit, field):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT.replace(*spec_edit))
    out_dir = tmp_path / "out"
    code = main(["sweep", "--spec", str(spec_file), "--out", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not (out_dir / "runs.csv").exists() and not (out_dir / "summary.csv").exists()


def test_sweep_refuses_a_leg_bound_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    # Every cell's trace spec is built with the sweep spec, so the 0.5:1 cells before the bad class never run.
    runs = []
    monkeypatch.setattr(experiments, "run", lambda *args, _run=experiments.run: runs.append(args) or _run(*args))
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text("[sweep]\nspeed_classes = 0.5:1, 1:1e12\npause_times = 0\nrepetitions = 3\nduration = 900\n\n"
                         "[sfr]\nperiod = 2\n")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"validation error: spec file {str(spec_file)!r}: fields 'speed_classes'/'area': 3e+12 legs of the 300.0x300.0 m "
        "area's longer side at 1000000000000.0 m/s cover 900.0 s, over 2000000\n"
    )
    assert not out_dir.exists() and runs == []


@pytest.mark.parametrize("bundle", ["rwp", "gauss_markov"])
def test_sweep_refuses_a_bundle_given_with_a_spec_file(tmp_path, capsys, bundle):
    spec_file = tmp_path / "sweep.ini"
    spec_file.write_text(SPEC_TEXT)
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec_file), "--bundle", bundle, "--out", str(out_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: field 'bundle': not read with --spec, whose file is the sweep\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "value, reason",
    [("0,x", "not a number: 'x'"), (",", "empty list")],
    ids=["non_number", "empty"],
)
def test_sweep_pause_times_flag_names_its_field_then_its_flag(tmp_path, capsys, value, reason):
    out_dir = tmp_path / "out"
    assert main(["sweep", "--out", str(out_dir), "--pause-times", value]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: field 'pause_times' (--pause-times): {reason}")
    assert not out_dir.exists()


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
    last = rows[-1]
    assert float(last[0]) == 10.0
    assert float(last[1]) == pytest.approx(oracles.sfr_turn_error(3.0, 1.5707963267948966, 10.0))
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


@pytest.mark.parametrize("mode", ["--turn", "--pause"])
def test_oracle_refuses_a_table_longer_than_the_grid_cap_before_building_it(tmp_path, capsys, mode):
    out = tmp_path / "table.csv"
    with time_limit(5.0):
        code = main(["oracle", mode, "--steps", str(mobility.MAX_GRID_STEPS + 1), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: field 'steps': need 2 <= steps <= 2000000, got 2000001\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        # The turn table does not read the speed, but its header records it, so it is checked.
        (["--turn", "--v", "0"], "field 'v'"),
        (["--pause", "--v", "-1"], "field 'v'"),
        (["--pause", "--horizon", "inf"], "field 'horizon'"),
        # A tiny speed puts the stop, and the default horizon 2 * d / v, at infinity.
        (["--pause", "--v", "1e-320"], "field 'horizon'"),
        # The formulas' own checks would name straight_before_turn, travel_before_stop and turn_angle.
        (["--turn", "--x", "-1"], "field 'x'"),
        (["--pause", "--d", "-1"], "field 'd'"),
        (["--turn", "--theta", "inf"], "field 'theta'"),
        # (x - n) ** 2 would raise OverflowError; 2 * n * sin(a / 2) would be inf.
        (["--turn", "--x", "1e200", "--nmax", "10"], "fields 'x'/'nmax'"),
        (["--turn", "--x", "3", "--nmax", "1e200"], "fields 'x'/'nmax'"),
        (["--turn", "--nmax", "1.7e308"], "fields 'x'/'nmax'"),
        (["--turn", "--nmax", "inf"], "field 'nmax'"),
        (["--turn", "--nmax", "nan"], "field 'nmax'"),
        (["--turn", "--nmax", "0"], "field 'nmax'"),
        # v * t overflows, so the hold error's travel would be inf.
        (["--pause", "--d", "5", "--v", "1e308", "--horizon", "1e308"], "fields 'v'/'horizon'"),
    ],
    ids=[
        "turn_v_zero", "pause_v_negative", "pause_horizon_inf", "pause_v_tiny",
        "turn_x_negative", "pause_d_negative", "turn_theta_inf",
        "turn_x_huge", "turn_nmax_huge", "turn_nmax_near_max", "turn_nmax_inf", "turn_nmax_nan", "turn_nmax_zero",
        "pause_travel_huge",
    ],
)
def test_oracle_rejects_speed_and_horizon_naming_the_flag(tmp_path, capsys, argv, field):
    out = tmp_path / "table.csv"
    assert main(["oracle", *argv, "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and "validation error" in captured.err and field in captured.err
    assert not out.exists()


def test_oracle_turn_table_does_not_depend_on_v(capsys):
    turn = ["oracle", "--turn", "--theta", "75", "--steps", "5"]
    assert main([*turn, "--v", "1"]) == EXIT_OK
    reference = _lines(capsys)
    # The speed is checked and recorded, and a tiny one is still a speed.
    assert main([*turn, "--v", "1e-320"]) == EXIT_OK
    tiny = _lines(capsys)
    assert json.loads(tiny[1][len("# config "):])["v"] == 1e-320
    assert tiny[2:] == reference[2:]


# Flag values for the oracle surface: ordinary, huge, tiny, zero, negative and non-finite.
_ORACLE_VALUES = st.sampled_from([
    3.0, 75.0, 1e200, 1e308, 1.7976931348623157e308, 1e-320, 5e-324, 0.0, -0.0, -1.0, -1e308,
    math.inf, -math.inf, math.nan,
]) | st.floats()
_ORACLE_FLAGS = ("x", "d", "v", "theta", "nmax", "horizon", "steps")


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["--turn", "--pause"]),
    values=st.dictionaries(st.sampled_from(_ORACLE_FLAGS[:-1]), _ORACLE_VALUES),
    steps=st.none() | st.sampled_from([-1, 0, 1, 2, 3, 11]),
)
def test_oracle_input_surface_exits_0_with_finite_cells_or_2_naming_a_flag(mode, values, steps):
    # In process, 200 examples take about 1 s.
    argv = [token for name, value in values.items() for token in (f"--{name}", repr(value))]
    if steps is not None:
        argv += ["--steps", str(steps)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        out = Path(folder) / "table.csv"
        with contextlib.redirect_stderr(err):
            code = main(["oracle", mode, *argv, "--out", str(out)])
        if code == EXIT_OK:
            rows = read_table(out)
            assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row.values())
        else:
            assert code == EXIT_VALIDATION, err.getvalue()
            named = re.match(r"validation error: fields? ('\w+'(?:/'\w+')*):", err.getvalue())
            assert named and set(re.findall(r"\w+", named[1])) <= set(_ORACLE_FLAGS), err.getvalue()
            assert not out.exists()


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


def test_import_trace_reports_the_sample_counts_of_nodes_of_other_lengths(tmp_path, capsys):
    src = tmp_path / "two.txt"
    src.write_text("0 1 1 10 2 2\n0 5 5 20 6 6\n")
    assert main(["import-trace", "--in", str(src), "--dt", "1"]) == EXIT_OK
    assert capsys.readouterr().err == "imported 2 node(s), 11-21 samples at dt=1\n"
    assert main(["import-trace", "--in", str(src), "--dt", "1", "--duration", "30"]) == EXIT_OK
    assert capsys.readouterr().err == "imported 2 node(s), 31 samples each at dt=1\n"


@pytest.mark.parametrize("text", ["", "\n  \n# a comment only\n"], ids=["empty", "comment_only"])
def test_a_waypoint_file_with_no_waypoint_line_is_named_by_its_flag(tmp_path, capsys, text):
    source = tmp_path / "none.txt"
    source.write_text(text)
    for argv, field in (
        (["import-trace", "--in", str(source)], "in"),
        (["simulate", "--protocol", "sfr", "--trace-file", str(source)], "trace-file"),
    ):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: field '{field}': no waypoint line, only blank and '#' lines\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["none.txt"]


def test_import_trace_reports_bad_line(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("0 0 0 10 10 0\n0 0\n")
    assert main(["import-trace", "--in", str(src)]) == EXIT_VALIDATION
    assert "line 2" in capsys.readouterr().err


# Waypoint text for the import-trace surface: numbers and tokens oracles.number reads (nan, inf, 1e309)
# or refuses (x, 1_0), times that may fall, repeat or be negative,
# points that may leave a 50 x 40 m area, wrong field counts, and blank and comment lines.
_WAYPOINT_TOKENS = st.sampled_from(["x", "nan", "inf", "-inf", "1e309", "1_0", "-1", "1e300", "60", "45"])
_WAYPOINT_NUMBERS = st.integers(0, 50).map(str) | st.floats(-1.0, 60.0).map(repr)
_WAYPOINT_TRACKS = st.lists(
    st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0)), min_size=1, max_size=5,
    unique_by=lambda triple: triple[0],
).map(lambda triples: " ".join(f"{t!r} {x!r} {y!r}" for t, x, y in sorted(triples)))
_WAYPOINT_LINES = st.one_of(
    st.sampled_from(["", "  ", "# a comment", "#0 0 0"]),
    _WAYPOINT_TRACKS,
    _WAYPOINT_TRACKS,
    st.lists(_WAYPOINT_NUMBERS | _WAYPOINT_TOKENS, min_size=1, max_size=8).map(" ".join),
)


@settings(max_examples=120, deadline=None)
@example(lines=["0 1_0 5 2 2_0 5"], dt="1", area="50x40", duration=None, node=None)
@given(
    lines=st.lists(_WAYPOINT_LINES, max_size=4),
    dt=st.sampled_from(["1", "0.5", "0.25", "1", "0.5", "0", "nan"]),
    area=st.sampled_from(["50x40", "50x40", "50x40", "0x40"]),
    duration=st.sampled_from([None, None, "40", "0", "1e9"]),
    node=st.sampled_from([None, None, None, "0", "1", "-1"]),
)
def test_import_trace_surface_round_trips_or_exits_2_naming_a_line_or_a_field(lines, dt, area, duration, node):
    # In process, 120 examples take about 1 s.
    text = "\n".join(lines) + "\n"
    flags = ["--dt", dt, "--area", area]
    flags += [] if duration is None else ["--duration", duration]
    flags += [] if node is None else ["--node", node]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        source, out, again = (Path(folder) / name for name in ("f.txt", "g.txt", "h.txt"))
        source.write_text(text)
        with contextlib.redirect_stderr(err), time_limit(5.0):
            code = main(["import-trace", "--in", str(source), *flags, "--out", str(out)])
            if code == EXIT_OK:
                assert main(["import-trace", "--in", str(out), "--dt", dt, "--area", area, "--out", str(again)]) == EXIT_OK
        if code == EXIT_OK:
            assert again.read_bytes() == out.read_bytes()
            return
        assert code == EXIT_VALIDATION, err.getvalue()
        assert not out.exists()
    message = err.getvalue()
    area_w, area_h = experiments.parse_area(area)
    read = functools.partial(mobility.import_traces, dt=float(dt), area_w=area_w, area_h=area_h,
                             duration=None if duration is None else float(duration))
    waypoint_lines = [n for n, line in enumerate(lines, 1) if line.strip() and not line.lstrip().startswith("#")]
    bad_line = re.match(r"validation error: line (\d+): ", message)
    named = re.match(r"validation error: fields? ('\w+'(?:/'\w+')*)", message)
    if not waypoint_lines and message.startswith("validation error: field 'in': "):
        assert message == "validation error: field 'in': no waypoint line, only blank and '#' lines\n"
    elif bad_line:
        # The first bad line: each waypoint line before it imports on its own.
        assert int(bad_line[1]) in waypoint_lines
        for n in waypoint_lines[: waypoint_lines.index(int(bad_line[1]))]:
            read(lines[n - 1])
    else:
        assert named and set(re.findall(r"\w+", named[1])) <= {"dt", "area_w", "area_h", "duration", "node"}, message
    # The library's refusal of the same input crosses a process boundary whole.
    try:
        traces = read(text)
    except ValueError as exc:
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), str(back)) == (type(exc), str(exc))
    else:
        assert node is not None and not 0 <= int(node) < len(traces)


# Tokens for the number grammar, none with inner whitespace or a comma: ASCII decimals with signs,
# exponents and whitespace around them, the special values, digit groups, the digits of any script
# (ASCII among them), non-ASCII whitespace around a number, and ASCII garbage.
_PAD = st.sampled_from(["", " ", "  ", "\t"])
_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.integers(0, 999).map(str)
_DECIMALS = st.tuples(  # sign, integer digits, point, fraction digits, exponent
    _SIGN, _DIGITS | st.just(""), st.sampled_from(["", "."]), _DIGITS, st.sampled_from(["", "e", "E-", "e+"]), _DIGITS,
).map(lambda p: "".join(p[:4]) + (p[4] + p[5] if p[4] else ""))
_NUMBER_TOKENS = st.one_of(
    st.tuples(_PAD, _DECIMALS | st.floats().map(repr) | st.integers().map(str), _PAD).map("".join),
    st.sampled_from(["inf", "-inf", "+INF", "nan", "-nan", "NaN", "infinity", "-Infinity", "1e309"]),
    st.tuples(_SIGN, st.lists(_DIGITS, min_size=2, max_size=3).map("_".join), st.sampled_from(["", ".5", "e1_0"]))
    .map("".join),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3),
    st.sampled_from(["\u00a010", "10\u2003", "1\u0660", "1.5e\u0661"]),
    st.text(st.characters(codec="ascii", exclude_characters=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f,"), min_size=1, max_size=4),
)
_DURATION_PARSER = cli._build_parser()


@settings(max_examples=100, deadline=None)
@example(token="1_0")
@example(token="١٠")
@example(token="１０")
@example(token=" -1.5e3\t")
@example(token="nan")
@example(token="\u00a010")
@given(token=_NUMBER_TOKENS)
def test_every_surface_reads_a_number_token_alike_or_refuses_it_as_malformed(token):
    # In process, 100 examples take about 0.3 s.  Each surface's reader, before any value rule but
    # its own: a numeric flag (parse only), a spec list and a spec scalar (gm_memory, whose one rule
    # in a random-waypoint spec is finite), and the middle field of a waypoint line.  The grammar is
    # what float() reads, but for a digit-group "_" or a non-ASCII character, whitespace around aside.
    core = token.strip()
    try:
        value = float(core) if "_" not in core and core.isascii() else None
    except ValueError:
        value = None
    exact = None if value is None else repr(value)
    by_value = exact if value is None or math.isfinite(value) else "non-finite"

    try:
        flag = repr(_DURATION_PARSER.parse_args(["simulate", "--protocol", "sfr", f"--duration={token}"]).duration)
    except cli._UsageError as exc:
        assert str(exc) == f"argument --duration: invalid number value: {token!r}"
        flag = None
    try:
        [listed] = map(repr, experiments.parse_number_list(token, "pause_times"))
    except oracles.FieldError as exc:
        assert (exc.fields, exc.reason) == (("pause_times",), f"not a number: {core!r}")
        listed = None
    try:
        spec = experiments.parse_spec_file(f"[sweep]\nspeed_classes = 4:5\ngm_memory = {token}\n[sfr]\nperiod = 2\n")
        scalar = repr(spec.gm_memory)
    except oracles.FieldError as exc:
        assert exc.fields == ("gm_memory",)
        scalar = "non-finite" if exc.reason.startswith("must be finite") else None
        assert scalar or exc.reason == f"not a number: {core!r}", exc.reason
    try:
        waypoint = repr(mobility._parse_waypoint_line(f"0 {token} 5")[0, 1].item())
    except ValueError as exc:
        waypoint = {"waypoint fields must be finite": "non-finite", "non-numeric field near '0'": None}[str(exc)]
    assert (flag, listed, scalar, waypoint) == (exact, exact, by_value, by_value)


# A spec file for the sweep surface is drawn valid, boundaries included (a top speed of 1e12 m/s, a
# 1e-300 m area), and then given at most two faults: a garbage [sweep] value or protocol parameter,
# an unknown key, another kind's parameter, a per-class list of the wrong length, a bad kind or
# label, no protocol, no speed classes, or a [DEFAULT] section.  The sweeps are small, at most 2
# classes x 2 pauses x 2 repetitions x 3 protocols of at most 41 steps, and the drawn pauses (0, 2
# or 30 s) keep every random-waypoint trace the leg bound lets through to at most 10 legs.  Some
# are refused only while a cell runs: a Gauss-Markov step that no reflection brings back into the
# area (a top speed of 1e12 m/s, a 1e-300 m side), or a period of 1e-300 s that t + period rounds off.
_SPEC_SPEEDS = ["0.5:1", "4:5", "8:10", "1:1e12", "1e12:1e12"]
_SPEC_VALID = {
    "pause_times": ["0", "2", "30", "2, 30"], "repetitions": ["1", "2"], "duration": ["5", "20"], "dt": ["0.5", "1"],
    "area": ["300x300", "1e-300x1e-300", "1e-300x300"], "noise": ["0", "0.5"], "dist_tolerance": ["5"],
    "seed_base": ["0", "7"], "mobility": ["rwp", "gauss_markov"], "gm_memory": ["0.75"], "backtracking": ["yes", "no"],
}
_SPEC_GARBAGE = {
    "speed_classes": ["5:4", "0:1", "x:1", "4", "4:5, 4:5"], "pause_times": ["-1", "x", "nan", "0, 0"],
    "repetitions": ["0", "1.5"], "duration": ["0", "1e12", "inf"], "dt": ["0", "1e-300"], "area": ["0x5", "300"],
    "noise": ["-1", "nan", "50%"], "dist_tolerance": ["inf"], "seed_base": ["-1", "1e3"],
    "mobility": ["teleport"], "gm_memory": ["2", "nan"], "gm_speed_sigma": ["-1"], "backtracking": ["maybe"],
    "bogus": ["1"],
}
_SPEC_PARAMS = {
    "sfr": {"period": ["2", "0.5", "1e-300"]},
    "dvm": {"target_error": ["5"], "t_min": ["0.5"], "t_max": ["6", "10"]},
    "madrd": {"divergence_threshold": ["5"], "t_min": ["0.5"], "t_max": ["6"], "period_growth": ["2"],
              "period_shrink": ["0.5"]},
}
_SPEC_PARAM_GARBAGE = ["0", "-1", "x", "nan", "2%", "0.5, 0.5, 0.5"]
_SPEC_FAULTS = ["value", "param", "unread", "kind", "label", "no_protocol", "no_speed_classes", "default"]


@st.composite
def _spec_files(draw) -> str:
    classes = draw(st.lists(st.sampled_from(_SPEC_SPEEDS), min_size=1, max_size=2, unique=True))
    # The size keys are always written: the defaults are the stock sweep's 10 repetitions of 9,001 steps.
    drawn = {key: st.sampled_from(values) for key, values in _SPEC_VALID.items()}
    size = {key: drawn.pop(key) for key in ("repetitions", "duration", "dt")}
    sweep = {"speed_classes": ", ".join(classes), **draw(st.fixed_dictionaries(size, optional=drawn))}
    sections = {}
    for kind in draw(st.lists(st.sampled_from(sorted(_SPEC_PARAMS)), min_size=1, max_size=3, unique=True)):
        # A value, or a per-class list of it.
        values = {name: st.sampled_from(v).map(lambda x: [x, ", ".join([x] * len(classes))]).flatmap(st.sampled_from)
                  for name, v in _SPEC_PARAMS[kind].items()}
        sections[kind] = draw(st.fixed_dictionaries({}, optional=values))
    lines = []
    for fault in draw(st.lists(st.sampled_from(_SPEC_FAULTS), max_size=2)):
        label = draw(st.sampled_from(sorted(sections))) if sections else None
        if fault == "value":
            key = draw(st.sampled_from(sorted(_SPEC_GARBAGE)))
            sweep[key] = draw(st.sampled_from(_SPEC_GARBAGE[key]))
        elif fault in ("param", "unread") and label:
            name = draw(st.sampled_from([name for params in _SPEC_PARAMS.values() for name in params]))
            sections[label][name] = draw(st.sampled_from(_SPEC_PARAM_GARBAGE)) if fault == "param" else "6"
        elif fault == "kind" and label:
            sections[label]["kind"] = draw(st.sampled_from(["teleport", *_SPEC_PARAMS]))
        elif fault == "label" and label:
            sections["x,y"] = {"kind": label, **sections.pop(label)}
        elif fault == "no_protocol":
            sections.clear()
        elif fault == "no_speed_classes":
            sweep.pop("speed_classes", None)
        elif fault == "default":
            lines = ["[DEFAULT]", "t_max = 6"]
    for section, body in {"sweep": sweep, **sections}.items():
        lines += [f"[{section}]", *(f"{key} = {value}" for key, value in body.items())]
    return "\n".join(lines) + "\n"


def _spec_keys(text: str) -> set[str]:
    """The names a refusal of spec file ``text`` may give: its keys, and the keys a section could have, as
    ``<label>.<key>`` in a protocol section (``t_min``/``t_max`` are refused as a pair)."""
    keys, section = {"sweep", "protocols", "speed_classes", *_SPEC_GARBAGE}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
            keys.update(f"{section}.{key}" for params in [{"kind": None}, *_SPEC_PARAMS.values()] for key in params)
        elif section != "sweep":
            keys.add(f"{section}.{line.split(' = ')[0]}")
    return keys


@settings(max_examples=80, deadline=None)
@example(text="[sweep]\nspeed_classes = 0.5:1, 1:1e12\npause_times = 0\nrepetitions = 3\nduration = 900\n\n"
              "[sfr]\nperiod = 2\n")
@example(text="[sweep]\nspeed_classes = 4:5, 1e12:1e12\nmobility = gauss_markov\nrepetitions = 1\nduration = 5\n"
              "dt = 0.5\n[sfr]\nperiod = 2\n")
@example(text="[sweep]\nspeed_classes = 4:5\nrepetitions = 1\nduration = 5\ndt = 0.5\n[sfr]\nperiod = 1e-300\n")
@given(text=_spec_files())
def test_sweep_spec_surface_runs_with_finite_metrics_or_exits_2_naming_a_key_before_out_is_made(text):
    # In process, 80 examples take about 1 s.  A refusal raised while a cell runs leaves no --out either.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        spec_file, out_dir = Path(folder) / "spec.ini", Path(folder) / "D"
        spec_file.write_text(text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), time_limit(5.0):
            code = main(["sweep", "--spec", str(spec_file), "--out", str(out_dir)])
        if code == EXIT_OK:
            rows = read_table(out_dir / "runs.csv")
            assert rows and all(math.isfinite(float(row[name])) for row in rows
                                for name in ("localization_count", "mean_error", "max_error", "accuracy"))
            return
        assert code == EXIT_VALIDATION, err.getvalue()
        assert not out_dir.exists(), err.getvalue()
        message = err.getvalue()
    assert message.startswith("validation error: "), message
    # A refusal of the file names the file; one raised while a cell runs names the file's keys alone.
    refusal = message.removeprefix("validation error: ").removeprefix(f"spec file {str(spec_file)!r}: ")
    named = re.match(r"fields? ('[^']+'(?:/'[^']+')*): ", refusal)
    if not refusal.startswith("section 'DEFAULT': "):
        assert named and set(re.findall(r"'([^']+)'", named[1])) <= _spec_keys(text), message


def test_import_trace_rejects_out_of_area(tmp_path, capsys):
    src = tmp_path / "far.txt"
    src.write_text("0 0 0 10 900 0\n")
    assert main(["import-trace", "--in", str(src), "--area", "300x300"]) == EXIT_VALIDATION
    assert "area" in capsys.readouterr().err


@pytest.mark.parametrize("area", ["nanx300", "infx300", "300xnan", "0x300", "300x-1"])
@pytest.mark.parametrize("command", ["import-trace", "simulate"])
def test_trace_file_area_must_be_finite_and_positive(tmp_path, capsys, command, area):
    src = tmp_path / "node.txt"
    src.write_text("0 0 0 10 5 5\n")
    if command == "import-trace":
        argv = ["import-trace", "--in", str(src)]
    else:
        argv = ["simulate", "--protocol", "sfr", "--trace-file", str(src), "--duration", "10"]
    assert main([*argv, f"--area={area}"]) == EXIT_VALIDATION
    assert "fields 'area_w'/'area_h' (--area)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["import-trace", "--in", "node.txt", "--area", "-1x300"], "fields 'area_w'/'area_h' (--area)"),
        (["export-trace", "--speed", "-1:2"], "field 'speed_class' (--speed)"),
        (["export-trace", "--mobility", "gauss_markov", "--speed", "-1:2"], "field 'speed_class' (--speed)"),
        (["simulate", "--protocol", "sfr", "--speed", "-1:2"], "field 'speed_class' (--speed)"),
        (["sweep", "--repetitions", "1", "--pause-times", "-1,0"], "field 'pause_times' (--pause-times)"),
    ],
    ids=["import_area", "export_speed", "export_gm_speed", "simulate_speed", "sweep_pauses"],
)
def test_value_starting_with_a_dash_reaches_its_field_check(tmp_path, monkeypatch, capsys, argv, field):
    # argparse alone would take "-1x300" for an option and exit 1 with "expected one argument".
    monkeypatch.chdir(tmp_path)
    (tmp_path / "node.txt").write_text("0 0 0 10 5 5\n")
    assert main([*argv, "--out", "out.txt"]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["node.txt"]


# ---------------------------------------------------------------------------
# The dash-value surface: every float- or text-valued flag
# ---------------------------------------------------------------------------

# A command line that runs, per command, and its output flag.  Each case below adds one
# flag to it; the last value of a flag given twice wins.
_RUNS = {
    "simulate": ["simulate", "--protocol", "sfr", "--duration", "10", "--out", "out.csv"],
    "export-trace": ["export-trace", "--duration", "10", "--out", "out.txt"],
    "sweep": ["sweep", "--repetitions", "1", "--duration", "10", "--out", "out"],
    "oracle": ["oracle", "--out", "out.csv"],
    "import-trace": ["import-trace", "--in", "node.txt", "--out", "out.txt"],
}
_NUMBERS = ("-1e308", "-1e-3", "-inf")
_GM = (["--mobility", "gauss_markov"], _NUMBERS)
# Per command, each flag with what else it needs to be read (a protocol or mobility that
# reads it, or the oracle mode) and its bad values: every one of _NUMBERS for a number,
# one for a text.  --theta is an angle, which may be negative, so only -inf is bad.
_DASH_FLAGS = {
    "simulate": {
        **{flag: (["--protocol", kind], _NUMBERS) for kind, entry in PROTOCOLS.items()
           for flag in ("--" + f.name.replace("_", "-") for f in dataclasses.fields(entry.config))},
        **dict.fromkeys(("--gm-memory", "--gm-speed-sigma", "--gm-direction-sigma"), _GM),
        **dict.fromkeys(("--duration", "--dt", "--pause", "--noise", "--tolerance"), ([], _NUMBERS)),
        "--speed": ([], ["-1:2"]), "--area": ([], ["-1x300"]), "--trace-file": ([], ["-1x300"]),
        "--mobility": ([], ["-1"]), "--protocol": ([], ["-1"]),
    },
    "export-trace": {
        **dict.fromkeys(("--gm-memory", "--gm-speed-sigma", "--gm-direction-sigma"), _GM),
        **dict.fromkeys(("--duration", "--dt", "--pause"), ([], _NUMBERS)),
        "--speed": ([], ["-1:2"]), "--area": ([], ["-1x300"]), "--mobility": ([], ["-1"]),
    },
    "sweep": {
        "--duration": ([], _NUMBERS), "--pause-times": ([], ["-1,0"]), "--protocols": ([], ["-1"]),
        "--spec": ([], ["-1x300"]), "--bundle": ([], ["-1"]),
    },
    "oracle": {
        **dict.fromkeys(("--x", "--nmax", "--v"), (["--turn"], _NUMBERS)),
        **dict.fromkeys(("--d", "--horizon"), (["--pause"], _NUMBERS)),
        "--theta": (["--turn"], ["-inf"]),
    },
    "import-trace": {
        "--dt": ([], _NUMBERS), "--duration": ([], _NUMBERS), "--area": ([], ["-1x300"]), "--in": ([], ["-1x300"]),
    },
}
_DASH_CASES = [
    (command, flag, extra, value)
    for command, flags in _DASH_FLAGS.items()
    for flag, (extra, values) in flags.items()
    for value in values
]


def test_the_dash_value_cases_cover_every_float_and_text_flag():
    # Output paths are left out: a file name may begin with "-".  Integer flags are not float
    # or text; argparse refuses "-1e308" for them as a usage error.
    parser = cli._build_parser()
    for command, cases in _DASH_FLAGS.items():
        actions = parser.commands[command]._actions
        flags = {a.option_strings[0] for a in actions if a.option_strings and a.nargs != 0 and a.choices is None
                 and a.type in (oracles.number, str, None)} - {"--out", "--events-out"}
        assert set(cases) == flags, command


@pytest.mark.parametrize("command, flag, extra, value", _DASH_CASES, ids=[" ".join(c[1::2]) + f" {c[0]}" for c in _DASH_CASES])
def test_a_dash_value_exits_2_naming_its_flag_without_output(tmp_path, monkeypatch, command, flag, extra, value):
    # The value is a token of its own; argparse alone would take it for an option and exit 1.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "node.txt").write_text("0 0 0 10 5 5\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*_RUNS[command], *extra, flag, value])
    assert code == EXIT_VALIDATION, err.getvalue()
    name = flag[2:]
    assert f"'{name}'" in err.getvalue() or f"{flag})" in err.getvalue() or f"{flag}/" in err.getvalue(), err.getvalue()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["node.txt"]


# ---------------------------------------------------------------------------
# Inputs that would run without end or past memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--protocol", "sfr", "--period", "1e-300"], "field 'period': the next fix must come after"),
        (["--protocol", "dvm", "--t-min", "1e-300", "--t-max", "1e-300"], "field 't_min' (--t-min): the next fix"),
        (["--protocol", "madrd", "--t-min", "1e-300", "--t-max", "1e-300"], "field 't_min' (--t-min): the next fix"),
        (["--protocol", "sfr", "--speed", "1e12:1e12"], "fields 'speed_class'/'area_w'/'area_h' (--speed/--area)"),
        (["--protocol", "sfr", "--area", "1e-300x1e-300"], "fields 'speed_class'/'area_w'/'area_h' (--speed/--area)"),
        # The longer side over the top speed is 0.0 here, so there is no leg count to divide out.
        (["--protocol", "sfr", "--speed", "1e308:1e308", "--area", "1e-300x1e-300"],
         "fields 'speed_class'/'area_w'/'area_h' (--speed/--area): inf legs"),
        (["--protocol", "sfr", "--mobility", "gauss_markov", "--area", "1e-300x1e-300"],
         "fields 'speed_class'/'gm_speed_sigma'/'area_w'/'area_h' (--speed/--gm-speed-sigma/--area)"),
        (["--protocol", "sfr", "--mobility", "gauss_markov", "--speed", "1e12:1e12"],
         "fields 'speed_class'/'gm_speed_sigma'/'area_w'/'area_h' (--speed/--gm-speed-sigma/--area)"),
        (["--protocol", "sfr", "--duration", "1e7"], "fields 'duration'/'dt': 10000000.0 s at dt=0.1 is 1e+08 grid steps"),
        (["--protocol", "sfr", "--dt", "1e-300"], "fields 'duration'/'dt'"),
    ],
    ids=["sfr_period", "dvm_t_min", "madrd_t_min", "rwp_speed", "rwp_area", "rwp_zero_leg_time", "gm_area", "gm_speed",
         "duration", "dt"],
)
def test_simulate_bounds_its_work_and_names_the_flag(tmp_path, capsys, argv, named):
    out = tmp_path / "row.csv"
    events = tmp_path / "events.csv"
    with time_limit(5.0):
        code = main(["simulate", *argv, "--out", str(out), "--events-out", str(events)])
    assert code == EXIT_VALIDATION
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_tiny_t_min_that_the_period_never_reaches_still_runs(capsys):
    assert main(["simulate", "--protocol", "dvm", "--t-min", "1e-300", "--duration", "5"]) == EXIT_OK


@pytest.mark.parametrize(
    "section, named",
    [("[sfr]\nperiod = 1e-300", "field 'sfr.period'"), ("[dvm]\nt_min = 1e-300\nt_max = 1e-300", "field 'dvm.t_min'")],
    ids=["sfr", "dvm"],
)
def test_sweep_names_the_protocol_field_that_floors_the_period(tmp_path, capsys, section, named):
    spec_file = tmp_path / "spec.ini"
    spec_file.write_text(f"[sweep]\nspeed_classes = 4:5\nrepetitions = 1\nduration = 10\n\n{section}\n")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out_dir)]) == EXIT_VALIDATION
    assert named in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_refusal_raised_while_a_cell_runs_names_the_spec_files_keys(tmp_path, capsys, workers):
    # A Gauss-Markov step no reflection brings back into the area is refused only while its cell runs,
    # in a pool worker with --workers 2 (two cells), and names speed_classes and area as the file does.
    spec_file = tmp_path / "spec.ini"
    spec_file.write_text("[sweep]\nspeed_classes = 1e12:1e12\nmobility = gauss_markov\nrepetitions = 2\n"
                         "duration = 10\n[sfr]\nperiod = 2\n")
    out_dir = tmp_path / "new" / "out"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out_dir), "--workers", workers]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: fields 'speed_classes'/'gm_speed_sigma'/'area': a 99999999999.96"), err
    assert list(tmp_path.iterdir()) == [spec_file]  # both folders the sweep made are gone with its stage


def _folder_bytes(folder: Path) -> dict[str, bytes]:
    """Each entry of ``folder`` by name, with its bytes: a folder left in it, such as a stage, fails the read."""
    return {p.name: p.read_bytes() for p in folder.iterdir()}


_GM_SPEC = "[sweep]\nspeed_classes = {}\nmobility = gauss_markov\nrepetitions = 1\nduration = 10\n{}[sfr]\nperiod = 2\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sweep_refused_in_a_later_cell_leaves_the_earlier_sweeps_files_as_they_were(tmp_path, capsys, workers):
    # The 4:5 cell writes events_s4-5_p0_sfr_r0.csv with another trace seed before the 1e12:1e12 cell is refused.
    # The two sweeps take about 0.02 s with --workers 1 and 0.03 s with --workers 2.
    first, second, out_dir = tmp_path / "first.ini", tmp_path / "second.ini", tmp_path / "D"
    first.write_text(_GM_SPEC.format("4:5", ""))
    second.write_text(_GM_SPEC.format("4:5, 1e12:1e12", "seed_base = 7\n"))
    assert main(["sweep", "--spec", str(first), "--out", str(out_dir), "--events"]) == EXIT_OK
    before = _folder_bytes(out_dir)
    assert sorted(before) == ["events_s4-5_p0_sfr_r0.csv", "runs.csv", "summary.csv"]
    argv = ["sweep", "--spec", str(second), "--out", str(out_dir), "--events", "--workers", workers]
    assert main(argv) == EXIT_VALIDATION
    assert "fields 'speed_classes'/'gm_speed_sigma'/'area': " in capsys.readouterr().err
    assert _folder_bytes(out_dir) == before


@pytest.mark.parametrize(
    "raised, code, err",
    [(RuntimeError, EXIT_RUNTIME, "runtime error: RuntimeError: injected\n"), (KeyboardInterrupt, EXIT_INTERRUPTED, "interrupted\n")],
    ids=["crash", "interrupt"],
)
def test_an_exception_in_a_cell_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, raised, code, err):
    # The second cell raises after the first has written its event logs into the stage; about 0.01 s.
    out_dir = tmp_path / "D"
    out_dir.mkdir()
    (out_dir / "runs.csv").write_text("kept\n")
    run_cell = experiments._run_cell

    def second_cell_raises(spec, class_index, pause_index, rep, *args):
        if rep == 1:
            raise raised("injected")
        return run_cell(spec, class_index, pause_index, rep, *args)

    monkeypatch.setattr(experiments, "_run_cell", second_cell_raises)
    argv = [arg.format(folder=out_dir) for arg in [*_TINY_SWEEP, "--repetitions", "2", "--events"]]
    assert main(argv) == code
    assert capsys.readouterr().err == err
    assert _folder_bytes(out_dir) == {"runs.csv": b"kept\n"}


def test_a_sweep_publishes_what_its_stage_holds(tmp_path, monkeypatch):
    # A sweep stub that writes no event log, as the benchmark's set-up probe installs, still exits 0: the
    # two tables are all the stage holds, so they are all a sweep publishes; about 0.01 s.
    monkeypatch.setattr(experiments, "run_sweep", lambda *args, **kwargs: [])
    out_dir = tmp_path / "D"
    assert main([arg.format(folder=out_dir) for arg in [*_TINY_SWEEP, "--events"]]) == EXIT_OK
    assert sorted(os.listdir(out_dir)) == ["runs.csv", "summary.csv"]


def test_a_sweep_replaces_a_link_to_a_directory_at_its_output_name(tmp_path):
    # The rename from the stage replaces the link, so only a real directory is refused; about 0.01 s.
    out_dir, elsewhere = tmp_path / "D", tmp_path / "elsewhere"
    out_dir.mkdir()
    elsewhere.mkdir()
    (elsewhere / "kept.txt").write_text("keep\n")
    (out_dir / "runs.csv").symlink_to("../elsewhere")
    assert main([arg.format(folder=out_dir) for arg in _TINY_SWEEP]) == EXIT_OK
    assert not (out_dir / "runs.csv").is_symlink()
    assert (out_dir / "runs.csv").read_text().startswith("# dynloc runs v1\n")
    assert sorted(os.listdir(out_dir)) == ["runs.csv", "summary.csv"]
    assert _folder_bytes(elsewhere) == {"kept.txt": b"keep\n"}


def test_a_directory_made_at_an_output_name_while_the_cells_run_is_refused_before_any_rename(
    tmp_path, monkeypatch, capsys
):
    # The stage's names are checked again right before they are renamed into --out; about 0.01 s.
    out_dir = tmp_path / "D"
    out_dir.mkdir()
    (out_dir / "runs.csv").write_text("old runs\n")
    run_sweep = experiments.run_sweep

    def plants_a_directory(*args, **kwargs):
        (out_dir / "summary.csv").mkdir()
        return run_sweep(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_sweep", plants_a_directory)
    assert main([arg.format(folder=out_dir) for arg in _TINY_SWEEP]) == EXIT_VALIDATION
    assert f"field 'out': {str(out_dir / 'summary.csv')!r} is a directory" in capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == ["runs.csv", "summary.csv"]
    assert (out_dir / "runs.csv").read_text() == "old runs\n" and os.listdir(out_dir / "summary.csv") == []


def test_a_waypoint_trace_past_the_grid_cap_is_refused_naming_the_flags(tmp_path, capsys):
    src = tmp_path / "far.txt"
    src.write_text("0 0 0 1e7 10 10\n")
    out = tmp_path / "out.txt"
    for argv in (["import-trace", "--in", str(src)], ["import-trace", "--in", str(src), "--duration", "1e7"]):
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert "fields 'duration'/'dt'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.txt"]



# ---------------------------------------------------------------------------
# Refusals no other test reaches, pinned word for word
# ---------------------------------------------------------------------------


def _trace(xs, ys):
    return lambda tmp: mobility.MobilityTrace(0, np.array(xs, dtype=float), np.array(ys, dtype=float), 0.1, 300.0, 300.0)


def _spec_dict(edit):
    def call(tmp):
        d = experiments.spec_to_dict(experiments.default_bundle())
        edit(d)
        return experiments.spec_from_dict(d)
    return call


# (a call of the tmp folder, or a command line; the message, "{tmp}" for that folder; the fields a
# FieldError names, or None for a refusal that points into its input instead)
_REFUSALS = {
    "trace-empty": (_trace([], []), "trace needs at least one sample", None),
    "trace-unequal": (_trace([1.0, 2.0], [1.0]), "xs, ys must have identical length", None),
    "trace-nan": (_trace([1.0, math.nan], [1.0, 1.0]), "trace samples must be finite", None),
    "waypoint-nan": (("import-trace", "--in", "{tmp}/nan.txt"), "line 1: waypoint fields must be finite", None),
    "waypoint-early": (("import-trace", "--in", "{tmp}/early.txt"), "line 1: waypoint times must be >= 0", None),
    "no-waypoints": (lambda tmp: mobility.trace_from_waypoints([], 0.1, 300.0, 300.0), "need at least one waypoint", None),
    "no-pause-times": (_spec_dict(lambda d: d.update(pause_times=[])), "field 'pause_times': need at least one value",
                       ("pause_times",)),
    "missing-key": (_spec_dict(lambda d: d.pop("duration")), "field 'duration': missing from provenance config",
                    ("duration",)),
    "no-header": (lambda tmp: read_provenance(tmp / "bare.csv"), "no provenance header found in {tmp}/bare.csv", None),
    "pause-times-empty": (lambda tmp: cli._cmd_sweep(cli._build_parser().parse_args(
                              ["sweep", "--out", str(tmp / "out"), "--pause-times", ","])),
                          "field 'pause_times': empty list", ("pause_times",)),
    "speed-one-number": (("simulate", "--protocol", "sfr", "--speed", "4"),
                         "field 'speed': expected two numbers joined by ':', got '4'", ("speed",)),
    "area-one-number": (("simulate", "--protocol", "sfr", "--area", "300"),
                        "field 'area': expected two numbers joined by 'x', got '300'", ("area",)),
}


@pytest.mark.parametrize("case, message, fields", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_a_refusal_no_other_test_reaches_keeps_its_message(tmp_path, capsys, case, message, fields):
    # A command line exits 2 printing the message its command raises; a call raises it.
    inputs = {"nan.txt": "0 1 1 1 nan 1\n", "early.txt": "-1 1 1 2 2 2\n", "bare.csv": "t\n0.0\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    message = message.format(tmp=tmp_path)
    call = functools.partial(case, tmp_path) if callable(case) else None
    if call is None:
        argv = [arg.format(tmp=tmp_path) for arg in case]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        args = cli._build_parser().parse_args(argv)
        call = functools.partial(cli._COMMANDS[args.command], args)
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
    assert getattr(refused.value, "fields", None) == fields
    assert isinstance(refused.value, oracles.FieldError) == (fields is not None)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)
