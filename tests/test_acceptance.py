"""End-to-end acceptance suite: eleven numbered checks, one test each.

Run ``pytest tests/test_acceptance.py -v`` for a verdict line per check;
add ``-rA`` to see the measured values each check prints.

The three sweep fixtures are module-scoped because checks 5-8 and 11 read
different slices of the same experiment grids.
"""

from __future__ import annotations

import hashlib
import math
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynloc.engine import RunConfig, run
from dynloc.mobility import generate_random_waypoint
from dynloc.oracles import madrd_pause_error, madrd_turn_error, sfr_pause_error, sfr_turn_error
from dynloc.protocols import (
    FIX_COLUMNS,
    Confidence,
    DvmConfig,
    MadrdConfig,
    SfrConfig,
    dvm_step,
    madrd_step,
)
from dynloc.experiments import (
    ProtocolSpec,
    SweepSpec,
    default_bundle,
    default_gauss_markov_bundle,
    event_columns,
    read_provenance,
    run_sweep,
    spec_from_dict,
    summarize,
    write_runs_csv,
    write_summary_csv,
)
from scenario_tools import (
    brute_turn_hold_error,
    brute_turn_predict_error,
    make_pause_trace,
    make_turn_trace,
    read_table,
    trace_spec,
)

SPEED_CLASSES = ("0.5:1", "4:5", "8:10")
CLASS_MID_SPEEDS = (0.75, 4.5, 9.0)


@pytest.fixture(scope="module")
def bundle_outcome():
    spec = default_bundle()
    records = run_sweep(spec)
    return spec, records, summarize(spec, records)


@pytest.fixture(scope="module")
def threshold_outcome():
    spec = SweepSpec(
        speed_classes=((4.0, 5.0),),
        pause_times=(0.0,),
        protocols=tuple(
            ProtocolSpec(f"madrd_t{int(t)}", "madrd", {"t_max": float(t), "t_min": 0.5})
            for t in (2, 4, 6, 8, 10)
        ),
        repetitions=10,
        seed_base=3000,
    )
    rows = summarize(spec, run_sweep(spec))
    return spec, rows


@pytest.fixture(scope="module")
def gauss_markov_outcome():
    spec = default_gauss_markov_bundle()
    records = run_sweep(spec)
    return spec, records, summarize(spec, records)


def _cell(rows, speed_class, pause, protocol):
    return next(
        r for r in rows
        if r.speed_class == speed_class and r.pause_time == pause and r.protocol == protocol
    )


def test_01_turn_formulas_match_brute_force_geometry():
    rng = np.random.default_rng(12345)
    started = time.perf_counter()
    worst_hold = worst_predict = 0.0
    for _ in range(1000):
        theta = float(rng.uniform(1e-3, math.pi - 1e-3))
        x = float(rng.uniform(0.0, 10.0))
        n = float(rng.uniform(0.0, 20.0))
        hold = sfr_turn_error(x, theta, n)
        hold_ref = brute_turn_hold_error(x, theta, n)
        predict = madrd_turn_error(theta, n)
        predict_ref = brute_turn_predict_error(theta, n)
        assert math.isclose(hold, hold_ref, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(predict, predict_ref, rel_tol=1e-9, abs_tol=1e-12)
        scale_h = max(abs(hold_ref), 1e-12)
        scale_p = max(abs(predict_ref), 1e-12)
        worst_hold = max(worst_hold, abs(hold - hold_ref) / scale_h)
        worst_predict = max(worst_predict, abs(predict - predict_ref) / scale_p)
    elapsed = time.perf_counter() - started
    print(
        f"1000 triples: worst rel err hold={worst_hold:.2e} predict={worst_predict:.2e}, "
        f"{elapsed * 1000:.0f} ms"
    )
    assert elapsed < 1.0


def test_02_simulated_turns_match_formulas_and_crossover():
    speed, period, straight = 5.0, 4.0, 5.0
    tolerance = speed * 0.1  # one grid step of travel
    worst = 0.0
    gentle_gap = sharp_gap = None
    for theta_deg in (45.0, 90.0, 135.0, 180.0):
        theta = math.radians(theta_deg)
        trace, turn_time = make_turn_trace(speed, theta, period, straight)
        hold_run = run(RunConfig(
            trace=trace, protocol_config=SfrConfig(period=period),
            noise_max=0.0,
        ))
        predict_run = run(RunConfig(
            trace=trace, protocol_config=MadrdConfig(t_min=period, t_max=period),
            noise_max=0.0,
        ))
        # (t, hold error, prediction error) at each post-turn step between fixes.
        hold_events = event_columns(hold_run)
        rows = zip(trace.times.tolist(), hold_run.error.tolist(), predict_run.error.tolist())
        post_turn = [row for row, fix in zip(rows, hold_events["localized"].tolist()) if row[0] >= turn_time - 1e-9 and not fix]
        assert len(post_turn) >= 25
        for t, hold_error, predict_error in post_turn:
            n = max(0.0, speed * (t - turn_time))
            worst = max(
                worst,
                abs(hold_error - sfr_turn_error(straight, theta, n)),
                abs(predict_error - madrd_turn_error(theta, n)),
            )
            assert hold_error == pytest.approx(sfr_turn_error(straight, theta, n), abs=tolerance)
            assert predict_error == pytest.approx(madrd_turn_error(theta, n), abs=tolerance)
        if theta_deg == 45.0:
            moved = [(h, p) for t, h, p in post_turn if speed * (t - turn_time) > 0.01]
            assert all(p < h for h, p in moved)
            gentle_gap = moved[-1][0] - moved[-1][1]
        if theta_deg == 135.0:
            _, h, p = post_turn[-1]
            assert h < p
            sharp_gap = p - h
    print(
        f"sim-vs-formula worst gap {worst:.2e} m (tolerance {tolerance} m); "
        f"45-deg prediction wins by {gentle_gap:.1f} m, 135-deg hold wins by {sharp_gap:.1f} m"
    )


def test_03_simulated_pause_matches_hold_and_prediction_shapes():
    speed, period, travel = 2.5, 4.0, 5.0
    tolerance = speed * 0.1
    trace, stop_time = make_pause_trace(speed, period, travel)
    window_start = 2 * period
    hold_run = run(RunConfig(
        trace=trace, protocol_config=SfrConfig(period=period),
        noise_max=0.0,
    ))
    predict_run = run(RunConfig(
        trace=trace, protocol_config=MadrdConfig(t_min=period, t_max=period),
        noise_max=0.0,
    ))
    worst = 0.0
    columns = (trace.times, event_columns(hold_run)["localized"], hold_run.error, predict_run.error)
    for t, localized, hold_error, predict_error in zip(*(c.tolist() for c in columns)):
        if localized or t < window_start + 1e-9:
            continue
        expected_hold = sfr_pause_error(travel, speed * (t - window_start))
        worst = max(worst, abs(hold_error - expected_hold))
        assert hold_error == pytest.approx(expected_hold, abs=tolerance)
        expected_predict = (
            madrd_pause_error(speed, t - stop_time) if t >= stop_time - 1e-9 else 0.0
        )
        worst = max(worst, abs(predict_error - expected_predict))
        assert predict_error == pytest.approx(expected_predict, abs=tolerance)
    print(f"pause shapes: worst gap {worst:.2e} m (tolerance {tolerance} m)")


def test_04_single_run_error_ramps_and_fix_noise_bound():
    trace_seed, noise_seed = (
        int(s) for s in np.random.SeedSequence([0]).generate_state(2, np.uint64)
    )
    trace = generate_random_waypoint(
        trace_spec(speed_class=(4.0, 5.0)), np.random.default_rng(trace_seed)
    )
    started = time.perf_counter()
    result = run(RunConfig(
        trace=trace, protocol_config=SfrConfig(period=2.0),
        noise_max=0.5, seed=noise_seed,
    ))
    elapsed = time.perf_counter() - started
    fix_errors = result.error[result.fixes.step].tolist()
    peak = result.metrics.max_error
    print(
        f"900 s run: peak ramp {peak:.2f} m (need 7-11), worst fix error "
        f"{max(fix_errors):.3f} m (need <= 0.5), {elapsed * 1000:.0f} ms"
    )
    assert 7.0 <= peak <= 11.0
    assert max(fix_errors) <= 0.5 + 1e-12
    assert result.metrics.localization_count == 451
    assert elapsed < 1.0


def test_05_localization_cost_ordering_across_speed_and_pause(bundle_outcome):
    spec, _, rows = bundle_outcome
    lines = []
    for protocol in ("dvm", "madrd"):
        for pause in spec.pause_times:
            assert _cell(rows, "0.5:1", pause, protocol).ratio_to_sfr < 1.0
        assert _cell(rows, "8:10", 0.0, protocol).ratio_to_sfr > 1.0
        for speed_class in SPEED_CLASSES:
            seq = [_cell(rows, speed_class, p, protocol) for p in spec.pause_times]
            for earlier, later in zip(seq, seq[1:]):
                band = max(earlier.ratio_std, later.ratio_std)
                assert later.ratio_to_sfr <= earlier.ratio_to_sfr + band + 1e-12
            lines.append(
                f"{protocol} {speed_class}: "
                + " ".join(f"{c.ratio_to_sfr:.3f}" for c in seq)
            )
    slow = {p: _cell(rows, "0.5:1", 0.0, p).ratio_to_sfr for p in ("dvm", "madrd")}
    fast = {p: _cell(rows, "8:10", 0.0, p).ratio_to_sfr for p in ("dvm", "madrd")}
    print(
        f"slow-class ratios {slow['dvm']:.3f}/{slow['madrd']:.3f} < 1; "
        f"fast-class pause-0 ratios {fast['dvm']:.3f}/{fast['madrd']:.3f} > 1; "
        "pause trend per class: " + "; ".join(lines)
    )


def test_06_error_growth_and_accuracy_ordering(bundle_outcome):
    _, _, rows = bundle_outcome
    slopes = {}
    for protocol in ("sfr", "dvm", "madrd"):
        errors = [_cell(rows, sc, 0.0, protocol).mean_error for sc in SPEED_CLASSES]
        slopes[protocol] = float(np.polyfit(CLASS_MID_SPEEDS, errors, 1)[0])
        if protocol == "sfr":
            assert errors[0] < errors[1] < errors[2]
    assert slopes["sfr"] > 0
    assert slopes["dvm"] < slopes["sfr"]
    assert slopes["madrd"] < slopes["sfr"]
    accuracy = {p: _cell(rows, "4:5", 0.0, p).accuracy for p in ("sfr", "dvm", "madrd")}
    assert accuracy["dvm"] >= accuracy["sfr"]
    assert accuracy["madrd"] >= accuracy["sfr"]
    print(
        "error-vs-speed slopes "
        + " ".join(f"{p}={s:.3f}" for p, s in slopes.items())
        + "; accuracy at 4:5 "
        + " ".join(f"{p}={a:.3f}" for p, a in accuracy.items())
    )


def test_07_upper_threshold_tradeoff(threshold_outcome):
    spec, rows = threshold_outcome
    ordered = [next(r for r in rows if r.protocol == p.label) for p in spec.protocols]
    assert [r.upper_threshold for r in ordered] == [2.0, 4.0, 6.0, 8.0, 10.0]
    for earlier, later in zip(ordered, ordered[1:]):
        count_band = max(earlier.localizations_std, later.localizations_std)
        assert later.mean_localizations <= earlier.mean_localizations + count_band + 1e-12
        error_band = max(earlier.error_std, later.error_std)
        assert later.mean_error >= earlier.mean_error - error_band - 1e-12
    print(
        "t_max sweep: counts "
        + " ".join(f"{r.mean_localizations:.0f}" for r in ordered)
        + "; errors "
        + " ".join(f"{r.mean_error:.2f}" for r in ordered)
    )


def test_08_gauss_markov_robustness(gauss_markov_outcome):
    _, _, rows = gauss_markov_outcome
    speed_class, pause = rows[0].speed_class, rows[0].pause_time
    baseline = _cell(rows, speed_class, pause, "sfr").mean_error
    ratios = {
        p: _cell(rows, speed_class, pause, p).mean_error / baseline for p in ("dvm", "madrd")
    }
    print(
        f"jittery-motion error vs baseline: dvm {ratios['dvm']:.3f}x, "
        f"madrd {ratios['madrd']:.3f}x (need <= 1.25x)"
    )
    assert ratios["dvm"] <= 1.25
    assert ratios["madrd"] <= 1.25


def test_09_bitwise_reproducibility_and_pairing(tmp_path):
    spec = SweepSpec(
        speed_classes=((4.0, 5.0),),
        pause_times=(0.0, 30.0),
        protocols=(
            ProtocolSpec("sfr", "sfr", {"period": 2.0}),
            ProtocolSpec("madrd", "madrd", {"t_max": 6.0}),
        ),
        repetitions=2,
        duration=120.0,
        seed_base=4242,
    )
    outputs = []
    for attempt in ("first", "second"):
        records = run_sweep(spec)
        runs_path = tmp_path / f"{attempt}_runs.csv"
        summary_path = tmp_path / f"{attempt}_summary.csv"
        write_runs_csv(runs_path, spec, records)
        write_summary_csv(summary_path, spec, summarize(spec, records))
        outputs.append((records, runs_path.read_bytes(), summary_path.read_bytes()))
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]

    records = outputs[0][0]
    shared: dict[tuple, set[str]] = {}
    for r in records:
        shared.setdefault((r.speed_class, r.pause_time, r.rep), set()).add(r.trace_sha)
    assert all(len(hashes) == 1 for hashes in shared.values())

    recovered = spec_from_dict(read_provenance(tmp_path / "first_runs.csv"))
    regen_path = tmp_path / "regen_runs.csv"
    write_runs_csv(regen_path, recovered, run_sweep(recovered))
    assert regen_path.read_bytes() == outputs[0][1]
    print(
        f"two sweeps byte-identical ({len(outputs[0][1])} bytes); "
        f"{len(shared)} cells share one trace hash each; provenance regenerates exactly"
    )


def test_10_protocol_invariants():
    rng = np.random.default_rng(777)

    # Random-walk fuzz of both adaptive schedulers: the period must stay inside
    # its limits and the confidence chain must move at most one state per fix.
    for _ in range(40):
        t_min = float(rng.uniform(0.2, 2.0))
        t_max = t_min + float(rng.uniform(0.0, 8.0))
        madrd_cfg = MadrdConfig(
            divergence_threshold=float(rng.uniform(1.0, 8.0)),
            t_min=t_min, t_max=t_max,
            period_growth=float(rng.uniform(1.1, 3.0)),
            period_shrink=float(rng.uniform(0.2, 0.9)),
        )
        dvm_cfg = DvmConfig(target_error=float(rng.uniform(1.0, 8.0)), t_min=t_min, t_max=t_max)
        period, level = FIX_COLUMNS.index("period"), FIX_COLUMNS.index("confidence")
        madrd_row = madrd_step(0.0, 0.0, 0.0, None, madrd_cfg)
        dvm_row = dvm_step(0.0, 0.0, 0.0, None, dvm_cfg)
        t = 0.0
        for _ in range(60):
            t += float(rng.uniform(0.1, 5.0))
            x, y = float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50))
            previous = madrd_row[level]
            madrd_row = madrd_step(t, x, y, madrd_row, madrd_cfg)
            dvm_row = dvm_step(t, x, y, dvm_row, dvm_cfg)
            assert t_min <= madrd_row[period] <= t_max
            assert t_min <= dvm_row[period] <= t_max
            assert abs(madrd_row[level] - previous) <= 1
            assert Confidence(madrd_row[level]) in Confidence

    # Reported-trajectory shapes on random traces: held reports are constant
    # between fixes, dead-reckoned reports move at a constant velocity.
    for seed in (1, 2, 3):
        trace = generate_random_waypoint(
            trace_spec(duration=60.0), np.random.default_rng(seed)
        )
        for pcfg in (SfrConfig(2.0), DvmConfig(t_max=6.0)):
            result = run(RunConfig(trace=trace, protocol_config=pcfg, seed=seed))
            held = np.flatnonzero(event_columns(result)["localized"][1:] == 0) + 1
            assert np.array_equal(result.reported_x[held], result.reported_x[held - 1])
            assert np.array_equal(result.reported_y[held], result.reported_y[held - 1])
        result = run(RunConfig(
            trace=trace, protocol_config=MadrdConfig(t_max=6.0), seed=seed,
        ))
        # Steps c whose step b before it is also between fixes: b - a and c - b are one velocity.
        localized = event_columns(result)["localized"]
        c = np.flatnonzero((localized[2:] == 0) & (localized[1:-1] == 0)) + 2
        for rep in (result.reported_x, result.reported_y):
            assert (rep[c] - rep[c - 1]).tolist() == pytest.approx((rep[c - 1] - rep[c - 2]).tolist(), abs=1e-9)

    # Retrospective correction on randomized single-turn maneuvers never
    # worsens the pooled error of the held-report baseline.
    improvements = []
    for _ in range(10):
        theta = float(rng.uniform(0.15 * math.pi, 0.95 * math.pi))
        speed = float(rng.uniform(1.0, 8.0))
        period = float(rng.uniform(1.0, 4.0))
        straight = float(rng.uniform(0.2, 0.8 * speed * period))
        trace, _ = make_turn_trace(speed, theta, period, straight)
        base = RunConfig(
            trace=trace, protocol_config=SfrConfig(period=period),
            noise_max=0.0,
        )
        plain = run(base)
        corrected = run(replace(base, backtracking_enabled=True))
        assert corrected.metrics.mean_error <= plain.metrics.mean_error + 1e-9
        improvements.append(plain.metrics.mean_error - corrected.metrics.mean_error)
    print(
        "invariants: 40 fuzzed scheduler walks, 3 trajectory-shape traces, "
        f"10 turn corrections (mean improvement {np.mean(improvements):.2f} m)"
    )


# Stock-bundle output digests, pinned for these library versions only: float
# formatting and numpy's random streams may differ elsewhere.  Changing a digest
# is a deliberate act and goes into CHANGES.md with its reason.
GOLDEN_VERSIONS = ("3.11.7", "2.4.6")
GOLDEN_DIGESTS = {
    "rwp": {
        "runs.csv": "25d9172ca8f502ee16dc8a039c5472eab9a51026c27756aaad23bb69bf97fbb4",
        "summary.csv": "59f491c5a09653e8ddee70ca0c537fd179bd1a6db67f483f5b63094dab1082ee",
    },
    "gauss_markov": {
        "runs.csv": "35f09728fb883b66ed9ba310419cb5136609f101425e8544350421b73e2d8eca",
        "summary.csv": "0a2691b6418f09097f9de3216c56bb47380b4e8d75210fa029fdb76b9fe60f91",
    },
}


# The stock rwp summary.csv, checked in with the golden bytes, and the relative tolerance each of its
# numbers is held to on every Python and numpy.  A mean or standard deviation summed in another order
# moves in its last few bits; one fix more or fewer in one repetition moves a cell's mean by over 1e-5.
# Only Python 3.11.7 / numpy 2.4.6 has run this check; the tolerance is unverified on other versions.
STOCK_SUMMARY = Path(__file__).with_name("stock_summary.csv")
STOCK_RTOL = 1e-9
# Each standard deviation column and the mean it spreads around.  The deviation of equal values is 0
# in exact arithmetic but reads as the rounding noise of their mean (8:10, pause 120, madrd: ten ratios
# of 602/451 give ratio_std 2.3e-16), which another numpy's reduction may round to 0.0 or to another
# e-16 value, so a deviation may also differ by 1e-12 times its mean, at least 1e-12.
STOCK_STD_OF = {
    "localizations_std": "mean_localizations", "ratio_std": "ratio_to_sfr", "error_std": "mean_error",
    "accuracy_std": "accuracy",
}


def test_11_stock_outputs_match_golden_digests(bundle_outcome, gauss_markov_outcome, tmp_path):
    # First on any version: the stock summary's numbers, cell by cell, within STOCK_RTOL (a deviation's floor aside).
    assert hashlib.sha256(STOCK_SUMMARY.read_bytes()).hexdigest() == GOLDEN_DIGESTS["rwp"]["summary.csv"]
    spec, _, rows = bundle_outcome
    write_summary_csv(tmp_path / "rwp_summary.csv", spec, rows)
    got, stock = read_table(tmp_path / "rwp_summary.csv"), read_table(STOCK_SUMMARY)
    assert read_provenance(tmp_path / "rwp_summary.csv") == read_provenance(STOCK_SUMMARY)
    assert len(got) == len(stock) == 45 and all(g.keys() == w.keys() for g, w in zip(got, stock))
    for g, w in zip(got, stock):
        for column, cell in w.items():
            if column in ("speed_class", "protocol") or cell == "":
                assert g[column] == cell, (w, column)
            else:
                floor = 1e-12 * max(1.0, abs(float(w[STOCK_STD_OF[column]]))) if column in STOCK_STD_OF else 0.0
                assert math.isclose(float(g[column]), float(cell), rel_tol=STOCK_RTOL, abs_tol=floor), (w, column)

    versions = (platform.python_version(), np.__version__)
    if versions != GOLDEN_VERSIONS:
        pytest.skip(
            f"digests are pinned for Python {GOLDEN_VERSIONS[0]} / numpy {GOLDEN_VERSIONS[1]}, "
            f"running Python {versions[0]} / numpy {versions[1]}"
        )
    for bundle, (spec, records, rows) in (
        ("rwp", bundle_outcome), ("gauss_markov", gauss_markov_outcome)
    ):
        write_runs_csv(tmp_path / f"{bundle}_runs.csv", spec, records)
        write_summary_csv(tmp_path / f"{bundle}_summary.csv", spec, rows)
        for name, expected in GOLDEN_DIGESTS[bundle].items():
            digest = hashlib.sha256((tmp_path / f"{bundle}_{name}").read_bytes()).hexdigest()
            assert digest == expected, f"{bundle} {name}: sha256 {digest}"
    print(f"stock rwp summary.csv within rtol {STOCK_RTOL:g}; both bundles' runs.csv/summary.csv match the golden digests")
