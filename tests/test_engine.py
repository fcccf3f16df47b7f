from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dynloc import engine
from dynloc.engine import _NOISE_CHUNK, RunConfig, Workspace, run
from dynloc.experiments import event_columns
from dynloc.geometry import hypot_exact, localize
from dynloc.mobility import (
    MobilityTrace,
    generate_gauss_markov,
    generate_random_waypoint,
    trace_from_waypoints,
)
from dynloc.protocols import PROTOCOLS, DvmConfig, MadrdConfig, SfrConfig

from scenario_tools import reference_run, trace_spec


def _trace(seed: int = 1, duration: float = 900.0):
    return generate_random_waypoint(trace_spec(duration=duration), np.random.default_rng(seed))


def _line_trace(speed: float = 3.0, duration: float = 60.0, dt: float = 0.1):
    return trace_from_waypoints(
        [(0.0, 10.0, 10.0), (duration, 10.0 + speed * duration, 10.0)], dt, 1000.0, 1000.0
    )


def test_sfr_count_over_standard_run():
    trace = _trace(seed=5)
    result = run(RunConfig(trace=trace, protocol_config=SfrConfig(period=2.0)))
    # 900 s at one fix per 2 s, plus the forced fix at t=0.
    assert result.metrics.localization_count == 451


def test_first_fix_is_forced_at_time_zero():
    trace = _trace(seed=6, duration=30.0)
    for pcfg in (SfrConfig(period=2.0), DvmConfig(), MadrdConfig()):
        result = run(RunConfig(trace=trace, protocol_config=pcfg))
        assert result.fixes.t[0] == 0.0
        assert result.fixes.step[0] == 0


def test_event_log_has_one_row_per_grid_step():
    trace = _trace(seed=7, duration=30.0)
    cfg = RunConfig(trace=trace, protocol_config=SfrConfig(period=2.0))
    result = run(cfg)
    assert result.config is cfg
    columns = event_columns(result)
    for col in columns.values():
        assert len(col) == len(trace)
    assert columns["t"].tolist() == trace.times.tolist()


def test_error_at_fix_instants_is_bounded_by_noise():
    trace = _trace(seed=8, duration=120.0)
    result = run(
        RunConfig(
            trace=trace, protocol_config=SfrConfig(period=2.0),
            noise_max=0.5, seed=3,
        )
    )
    fix_errors = result.error[result.fixes.step]
    assert fix_errors.max() <= 0.5 + 1e-12


def test_zero_noise_fix_rows_have_zero_error():
    trace = _line_trace()
    result = run(
        RunConfig(
            trace=trace, protocol_config=SfrConfig(period=2.0),
            noise_max=0.0,
        )
    )
    for error in result.error[result.fixes.step].tolist():
        assert error == pytest.approx(0.0, abs=1e-12)


def test_held_report_is_piecewise_constant():
    trace = _line_trace()
    result = run(
        RunConfig(trace=trace, protocol_config=SfrConfig(period=2.0))
    )
    held = np.flatnonzero(event_columns(result)["localized"][1:] == 0) + 1
    assert np.array_equal(result.reported_x[held], result.reported_x[held - 1])
    assert np.array_equal(result.reported_y[held], result.reported_y[held - 1])


def test_dead_reckoned_report_moves_linearly_between_fixes():
    trace = _line_trace(speed=3.0)
    result = run(
        RunConfig(
            trace=trace, protocol_config=MadrdConfig(t_min=0.5, t_max=4.0),
            noise_max=0.0,
        )
    )
    # After the second fix a velocity estimate exists; from then on the
    # reported x advances by exactly speed*dt inside every interval.
    second_fix_idx = result.fixes.step[1]
    moving = np.flatnonzero(event_columns(result)["localized"][second_fix_idx + 1:] == 0) + second_fix_idx + 1
    steps = result.reported_x[moving] - result.reported_x[moving - 1]
    assert steps.tolist() == pytest.approx([0.3] * moving.size, abs=1e-9)
    # And with perfect measurements on a straight track, the report is exact.
    assert result.error[second_fix_idx:].max() == pytest.approx(0.0, abs=1e-9)


def test_scheduler_requests_snap_to_next_grid_step():
    trace = _line_trace(duration=3.0)
    result = run(
        RunConfig(trace=trace, protocol_config=SfrConfig(period=0.25))
    )
    fix_times = trace.times[result.fixes.step].tolist()
    # Requests at 0.25, 0.55, 0.85, ... land on the next 0.1 grid step.
    assert fix_times[:5] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.2])


def test_grid_aligned_period_fires_every_period_exactly():
    trace = _line_trace(duration=10.0)
    result = run(
        RunConfig(trace=trace, protocol_config=SfrConfig(period=2.0))
    )
    fix_times = trace.times[result.fixes.step].tolist()
    assert fix_times == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])


def test_run_is_deterministic_given_seed():
    trace = _trace(seed=9, duration=120.0)
    cfg = RunConfig(trace=trace, protocol_config=MadrdConfig(), seed=17)
    a = run(cfg)
    b = run(cfg)
    assert _event_columns(a) == _event_columns(b)
    assert a.metrics == b.metrics
    c = run(
        RunConfig(trace=trace, protocol_config=MadrdConfig(), seed=18)
    )
    assert _event_columns(a) != _event_columns(c)


def test_confidence_column_empty_unless_dead_reckoning():
    trace = _trace(seed=10, duration=20.0)
    sfr = run(RunConfig(trace=trace, protocol_config=SfrConfig()))
    madrd = run(RunConfig(trace=trace, protocol_config=MadrdConfig()))
    assert set(event_columns(sfr)["confidence"].tolist()) == {""}
    assert set(event_columns(madrd)["confidence"].tolist()) <= {"LC", "S1", "S2", "HC"}


def test_accuracy_counts_rows_within_tolerance():
    trace = _line_trace(speed=3.0, duration=20.0)
    result = run(
        RunConfig(
            trace=trace, protocol_config=SfrConfig(period=2.0),
            noise_max=0.0, dist_tolerance=3.0,
        )
    )
    errors = result.error.tolist()
    manual = np.mean([e <= 3.0 for e in errors])
    assert result.metrics.accuracy == pytest.approx(float(manual))
    assert result.metrics.mean_error == pytest.approx(float(np.mean(errors)))
    assert result.metrics.max_error == pytest.approx(max(errors))


def test_run_config_takes_its_protocol_from_the_config_class():
    trace = _line_trace(duration=5.0)
    for kind, entry in PROTOCOLS.items():
        assert RunConfig(trace=trace, protocol_config=entry.config()).protocol == kind


@dataclasses.dataclass(frozen=True)
class _PeriodOnly:
    period: float = 2.0


def test_run_config_rejects_an_unknown_protocol_config():
    # No config class of PROTOCOLS: nothing, a protocol name, a lookalike of SfrConfig.
    for config in (None, "sfr", _PeriodOnly()):
        with pytest.raises(ValueError, match="field 'protocol_config'"):
            RunConfig(trace=_line_trace(duration=5.0), protocol_config=config)


@pytest.mark.parametrize("name", ["noise_max", "dist_tolerance"])
@pytest.mark.parametrize("value", [-0.5, -math.inf, math.inf, math.nan])
def test_run_config_rejects_a_bad_noise_bound_or_tolerance(name, value):
    with pytest.raises(ValueError, match=f"field '{name}'"):
        RunConfig(trace=_line_trace(duration=5.0), protocol_config=SfrConfig(), **{name: value})


@pytest.mark.parametrize(
    ("trace", "period", "noise", "match"),
    [
        # t + period rounds back to t once t's ulp outgrows the period.
        (MobilityTrace(0, np.zeros(11), np.zeros(11), 100.0, 10.0, 10.0),
         1e-14, 0.0, "next fix"),
        # A fix displaced past the largest double.
        (MobilityTrace(0, np.array([1.7e308]), np.array([1.7e308]), 1.0, 1.7e308, 1.7e308),
         2.0, 1e308, "finite"),
    ],
    ids=["fix-not-later", "non-finite-fix"],
)
def test_run_rejects_a_fix_the_scheduler_cannot_take(trace, period, noise, match):
    cfg = RunConfig(trace=trace, protocol_config=SfrConfig(period=period), noise_max=noise)
    with pytest.raises(ValueError, match=match):
        run(cfg)


@pytest.mark.parametrize(
    "config, field",
    [(SfrConfig(period=1e-14), "period"), (DvmConfig(t_min=1e-14, t_max=1e-14), "t_min"),
     (MadrdConfig(t_min=1e-14, t_max=1e-14), "t_min")],
    ids=["sfr", "dvm", "madrd"],
)
def test_a_fix_that_cannot_come_later_names_the_field_that_floors_the_period(config, field):
    # t + period rounds back to t at t=200 s; DVM's and MADRD's period is at least t_min.
    trace = MobilityTrace(0, np.zeros(11), np.zeros(11), 100.0, 10.0, 10.0)
    with pytest.raises(ValueError, match=f"^field '{field}': the next fix must come after the fix at t=200.0"):
        run(RunConfig(trace=trace, protocol_config=config, noise_max=0.0))


# ---------------------------------------------------------------------------
# Backtracking
# ---------------------------------------------------------------------------


def test_backtracking_rewrites_interior_rows_onto_fix_chord():
    trace = _line_trace(speed=3.0, duration=10.0)
    base = RunConfig(
        trace=trace, protocol_config=SfrConfig(period=2.0),
        noise_max=0.0,
    )
    plain = run(base)
    from dataclasses import replace

    corrected = run(replace(base, backtracking_enabled=True))
    # On a noise-free straight line the reinterpolated track is exact, so
    # every non-fix row inside a closed interval drops to zero error.
    events = event_columns(corrected)
    closed_rows = corrected.error[(events["localized"] == 0) & (events["t"] < corrected.fixes.t[-1])]
    assert closed_rows.size and closed_rows.max() == pytest.approx(0.0, abs=1e-9)
    assert corrected.metrics.mean_error < plain.metrics.mean_error
    # At 3 m/s the held report drifts well past the 0-noise bound, so every
    # rewritten row counts as a correction.
    assert corrected.metrics.correction_count == len(closed_rows)


def test_backtracking_off_leaves_events_untouched():
    trace = _trace(seed=11, duration=60.0)
    cfg = RunConfig(trace=trace, protocol_config=SfrConfig(period=2.0), seed=4)
    assert run(cfg).metrics.correction_count == 0


def test_backtracking_never_increases_pooled_error_on_smooth_track():
    spec = trace_spec(mobility="gauss_markov", duration=120.0, gm_memory=0.9)
    trace = generate_gauss_markov(spec, np.random.default_rng(12))
    from dataclasses import replace

    base = RunConfig(
        trace=trace, protocol_config=SfrConfig(period=2.0), seed=5
    )
    plain = run(base)
    corrected = run(replace(base, backtracking_enabled=True))
    assert corrected.metrics.mean_error <= plain.metrics.mean_error


def test_backtracking_counts_a_move_one_ulp_past_the_noise_bound():
    # The second fix's true position was found by an offline search that nudged
    # it by ulps until the one interior step moves by math.hypot = bound + 1 ulp,
    # while np.hypot rounds the same move to the bound itself.
    x2, y2 = float.fromhex("0x1.4f5fb5560be5bp+3"), float.fromhex("0x1.64f8caa72b688p+3")
    trace = MobilityTrace(0, np.array([10.0, 10.0, x2]), np.array([10.0, 10.0, y2]), 1.0, 100.0, 100.0)
    cfg = RunConfig(trace=trace, protocol_config=SfrConfig(period=2.0), noise_max=0.5,
                    seed=0, backtracking_enabled=True)
    # The move of step 1 from the held first fix onto the chord midpoint, by the engine's operations.
    (d0x, d2x), (d0y, d2y) = localize(cfg.noise_max, np.random.default_rng(cfg.seed), 2)
    f0x, f0y = 10.0 + d0x, 10.0 + d0y
    dx = ((x2 + d2x) - f0x) * 0.5 + f0x - f0x
    dy = ((y2 + d2y) - f0y) * 0.5 + f0y - f0y
    assert math.hypot(dx, dy) > cfg.noise_max >= np.hypot(dx, dy)  # the case tells the two apart

    result = run(cfg)
    assert result.fixes.step.tolist() == [0, 2]
    assert (result.reported_x[1] - f0x, result.reported_y[1] - f0y) == (dx, dy)
    assert result.metrics.correction_count == 1


@pytest.mark.parametrize("backtracking", [False, True], ids=["plain", "backtracking"])
@pytest.mark.parametrize("noise", [0.0, 0.5])
@pytest.mark.parametrize("pcfg", [SfrConfig(period=2.0), DvmConfig(), MadrdConfig()], ids=["sfr", "dvm", "madrd"])
def test_errors_equal_hypot_exact_on_every_step_of_a_paused_trace(pcfg, noise, backtracking):
    # A report held while the node pauses repeats one offset; the run measures each run of
    # equal offsets once, and every step must still read hypot_exact of its own offset.
    spec = trace_spec(duration=300.0, pause_time=40.0, speed_class=(1.0, 20.0))
    trace = generate_random_waypoint(spec, np.random.default_rng(31))
    result = run(RunConfig(trace=trace, protocol_config=pcfg, noise_max=noise, seed=9,
                           backtracking_enabled=backtracking))
    dx, dy = result.reported_x - trace.xs, result.reported_y - trace.ys
    assert result.error.view(np.int64).tolist() == hypot_exact(dx, dy).view(np.int64).tolist()
    if not (isinstance(pcfg, MadrdConfig) or backtracking):  # held reports: enough repeats to compress
        assert np.count_nonzero((dx[1:] == dx[:-1]) & (dy[1:] == dy[:-1])) > trace.times.size // 4


@pytest.mark.parametrize("backtracking", [False, True], ids=["plain", "backtracking"])
@pytest.mark.parametrize("pcfg", [SfrConfig(period=2.0), DvmConfig(), MadrdConfig()], ids=["sfr", "dvm", "madrd"])
def test_run_whose_errors_overflow_raises_naming_noise_max(pcfg, backtracking):
    # Fixes 1e308 off stay finite, but their errors sum past a float (MADRD's velocities overflow too).
    cfg = RunConfig(trace=_trace(seed=2, duration=10.0), protocol_config=pcfg, noise_max=1e308,
                    backtracking_enabled=backtracking)
    with pytest.raises(ValueError, match="field 'noise_max'.*non-finite"):
        run(cfg)
    assert math.isfinite(run(dataclasses.replace(cfg, noise_max=1e150)).metrics.mean_error)


@pytest.mark.parametrize("backtracking", [False, True], ids=["plain", "backtracking"])
@pytest.mark.parametrize("noise", [0.0, 0.5])
@pytest.mark.parametrize(
    "pcfg",
    [
        SfrConfig(period=1e-12),
        DvmConfig(target_error=0.5, t_min=0.1, t_max=0.4),
        MadrdConfig(divergence_threshold=0.5, t_min=0.1, t_max=0.4),
    ],
    ids=["sfr", "dvm", "madrd"],
)
def test_run_matches_reference_across_noise_chunk_refills(pcfg, noise, backtracking):
    trace = generate_random_waypoint(
        trace_spec(area_w=200.0, area_h=200.0, speed_class=(4.0, 8.0), duration=300.0, dt=0.1),
        np.random.default_rng(17),
    )
    cfg = RunConfig(
        trace=trace, protocol_config=pcfg, noise_max=noise,
        seed=23, backtracking_enabled=backtracking,
    )
    result = run(cfg)
    events, ref_fixes, metrics = reference_run(cfg)
    f = result.fixes
    # Enough fixes that the engine refills its noise several times.
    assert metrics.localization_count > 2 * _NOISE_CHUNK
    assert [list(map(repr, col)) for col in _event_columns(result)] == [list(map(repr, col)) for col in zip(*events)]
    assert list(zip(f.t.tolist(), f.x.tolist(), f.y.tolist())) == ref_fixes
    assert result.metrics == metrics


def _event_columns(result) -> list[list]:
    """The event columns of a run as lists, in :data:`~dynloc.experiments.EVENT_COLUMNS` order."""
    return [col.tolist() for col in event_columns(result).values()]


def _bits(result) -> list[list]:
    """Every fix and per-step column of a run, floats as int64 bit patterns, and its metrics."""
    columns = [*result.fixes, result.reported_x, result.reported_y, result.error]
    bits = [c.view(np.int64).tolist() if c.dtype.kind == "f" else c.tolist() for c in columns]
    return bits + [repr(result.metrics)]


def _signed_zero_trace(duration: float = 30.0) -> MobilityTrace:
    # A node parked at (-0.0, -0.0): a fix there keeps the sign of zero its noise draws.
    n = round(duration / 0.1) + 1
    return MobilityTrace(0, np.full(n, -0.0), np.full(n, -0.0), 0.1, 10.0, 10.0)


def test_runs_on_a_shared_workspace_equal_fresh_runs():
    short, long_ = _trace(seed=31, duration=120.0), _trace(seed=32, duration=300.0)
    parked = _signed_zero_trace()
    sfr, dvm = SfrConfig(period=0.2), DvmConfig(target_error=2.0, t_min=0.5, t_max=4.0)
    madrd = MadrdConfig(divergence_threshold=2.0, t_min=0.5, t_max=4.0)
    configs = [
        # Three protocols on one trace and seed; the last one takes more fixes than the
        # noise drawn so far, so it reads the shared stream and then extends it.
        RunConfig(trace=short, protocol_config=dvm, seed=5),
        RunConfig(trace=short, protocol_config=madrd, seed=5, backtracking_enabled=True),
        RunConfig(trace=short, protocol_config=sfr, seed=5),
        # A longer trace (the scratch block grows), then the shorter one again, on one seed.
        RunConfig(trace=long_, protocol_config=sfr, seed=5, backtracking_enabled=True),
        RunConfig(trace=short, protocol_config=madrd, seed=5),
        # A new seed, then back to the first one.
        RunConfig(trace=short, protocol_config=dvm, seed=6),
        RunConfig(trace=short, protocol_config=dvm, seed=5),
        # Noise bounds 0.0 and -0.0 compare equal, but their displacements differ in the sign of zero.
        RunConfig(trace=parked, protocol_config=sfr, noise_max=0.0, seed=7),
        RunConfig(trace=parked, protocol_config=sfr, noise_max=-0.0, seed=7),
    ]
    workspace = Workspace()
    shared, snapshots = [], []
    for cfg in configs:
        result = run(cfg, workspace)
        shared.append(result)
        snapshots.append(_bits(result))
        assert snapshots[-1] == _bits(run(cfg))
    counts = [r.metrics.localization_count for r in shared]
    assert max(counts[:2]) < _NOISE_CHUNK < 2 * _NOISE_CHUNK < counts[2]
    assert snapshots[5] != snapshots[6]
    assert snapshots[7] != snapshots[8]  # the signed-zero trace tells the two bounds apart
    # Later runs on the workspace leave every earlier result as it was.
    assert [_bits(r) for r in shared] == snapshots


def test_workspace_schedule_is_keyed_by_the_grid_value():
    first, second = _trace(seed=31, duration=120.0), _trace(seed=33, duration=120.0)
    assert first.times is not second.times
    # The same length at another dt, and a prefix of the first grid.
    coarse = dataclasses.replace(first, dt=0.2)
    prefix = _trace(seed=34, duration=60.0)
    madrd = MadrdConfig(divergence_threshold=2.0, t_min=0.5, t_max=4.0)
    workspace = Workspace()
    schedules = []
    for trace in (first, second, coarse, prefix, first):
        cfg = RunConfig(trace=trace, protocol_config=madrd, seed=5)
        assert _bits(run(cfg, workspace)) == _bits(run(cfg))
        schedules.append(workspace.grid(len(trace), trace.dt)[0])
    assert schedules[1] is schedules[0]  # traces on one grid share one schedule
    assert all(schedules[i] is not schedules[i - 1] for i in (2, 3, 4))
    assert schedules[4] == schedules[0]
    assert len(schedules[2]) == len(schedules[0]) and schedules[2] != schedules[0]
    assert schedules[3] == schedules[0][: len(schedules[3])]
    assert workspace.grid.cache_info().misses == 4  # built once per change of grid


def test_run_calls_the_names_a_tracer_wraps(monkeypatch):
    # A tracer rebinds these names on dynloc.engine and totals their calls on the run in progress,
    # so the engine must call them, and nothing may call them outside a run.
    names = ("localize", "madrd_predict", "backtrack_correct")
    calls = dict.fromkeys(names, 0)
    in_run = False

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            assert in_run, f"{name} called outside run"
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def traced_run(cfg):
        nonlocal in_run
        in_run = True
        try:
            return run(cfg)
        finally:
            in_run = False

    madrd = RunConfig(trace=_trace(seed=21, duration=400.0), protocol_config=MadrdConfig(t_min=0.5, t_max=1.0), seed=3, backtracking_enabled=True)
    sfr = RunConfig(trace=madrd.trace, protocol_config=SfrConfig(period=2.0), seed=3)
    plain = [_bits(run(cfg)) for cfg in (madrd, sfr)]
    for name in names:
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))

    result = traced_run(madrd)
    # One noise refill per _NOISE_CHUNK fixes, one prediction pass per MADRD run, one correction pass per run.
    assert result.metrics.localization_count > _NOISE_CHUNK
    refills = -(-result.metrics.localization_count // _NOISE_CHUNK)
    assert calls == {"localize": refills, "madrd_predict": 1, "backtrack_correct": 1}
    assert _bits(result) == plain[0]
    # Without prediction or backtracking only the noise is drawn.
    assert _bits(traced_run(sfr)) == plain[1]
    assert calls == {"localize": refills + 1, "madrd_predict": 1, "backtrack_correct": 1}


# ---------------------------------------------------------------------------
# Fixed-rate runs
# ---------------------------------------------------------------------------


def test_fixed_rate_runs_step_once_and_build_each_schedule_once(monkeypatch):
    # The first SFR run on a grid and period walks, one step per fix; a later one steps once
    # and reads the walked run's fix steps from the workspace.
    sfr = PROTOCOLS["sfr"]
    steps_taken = []

    def counted_step(*args):
        steps_taken.append(args[0])
        return sfr.step(*args)

    monkeypatch.setitem(PROTOCOLS, "sfr", sfr._replace(step=counted_step))
    # Two traces on one grid, in separate arrays, and a third on a shorter grid.
    a1, a2, b = _trace(seed=41, duration=120.0), _trace(seed=42, duration=120.0), _trace(seed=43, duration=60.0)
    fast, slow = SfrConfig(period=0.7), SfrConfig(period=2.0)
    dvm, madrd = DvmConfig(target_error=2.0, t_min=0.5, t_max=4.0), MadrdConfig(t_min=0.5, t_max=4.0)
    configs = []
    for first, second in ((a1, a2), (b, b)):
        configs += [
            RunConfig(trace=first, protocol_config=fast, seed=5),
            RunConfig(trace=first, protocol_config=dvm, seed=5),
            RunConfig(trace=second, protocol_config=slow, seed=6, backtracking_enabled=True),
            RunConfig(trace=second, protocol_config=madrd, seed=6),
            RunConfig(trace=first, protocol_config=slow, seed=5),
            RunConfig(trace=second, protocol_config=fast, seed=7, noise_max=0.0),
        ]
    workspace = Workspace()
    shared, walks = [], []
    for cfg in configs:
        before = len(steps_taken)
        result = run(cfg, workspace)
        shared.append(_bits(result))
        taken = len(steps_taken) - before
        if cfg.protocol != "sfr":
            assert taken == 0
        elif taken > 1:
            assert taken == result.metrics.localization_count
            walks.append((cfg.trace.times.size, cfg.protocol_config.period))
        else:
            assert taken == 1
    assert walks == [(1201, 0.7), (1201, 2.0), (601, 0.7), (601, 2.0)]
    assert shared == [_bits(run(cfg)) for cfg in configs]


def test_fixed_rate_schedule_that_raises_is_not_kept(monkeypatch):
    sfr = PROTOCOLS["sfr"]
    steps_taken = []
    monkeypatch.setitem(PROTOCOLS, "sfr", sfr._replace(step=lambda *args: steps_taken.append(args[0]) or sfr.step(*args)))
    trace = MobilityTrace(0, np.zeros(11), np.zeros(11), 100.0, 10.0, 10.0)
    cfg = RunConfig(trace=trace, protocol_config=SfrConfig(period=1e-14))
    workspace = Workspace()
    for _ in range(2):
        with pytest.raises(ValueError, match="at t=200.0"):
            run(cfg, workspace)
    # Each run walks up to the fix that raises: the first one kept nothing.
    assert steps_taken == [0.0, 100.0, 200.0] * 2
    assert workspace.grid(len(trace), trace.dt)[1] == {}
