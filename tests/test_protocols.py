from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynloc.engine import Fixes, backtrack_correct
from dynloc.protocols import (
    FIX_COLUMNS,
    PROTOCOLS,
    Confidence,
    DvmConfig,
    MadrdConfig,
    SfrConfig,
    dvm_step,
    madrd_predict,
    madrd_step,
    sfr_step,
)

from scenario_tools import REFERENCE_SCHEDULERS, RefFix, RefState, ref_backtrack_correct

Row = namedtuple("Row", FIX_COLUMNS)


def _row(step, t: float, x: float, y: float, carry, cfg) -> Row:
    """The row ``step`` returns for the fix at ``(x, y)`` at time ``t``, with named fields."""
    return Row._make(step(t, x, y, carry, cfg))


def _carry(t: float, x: float, period: float, velocity: tuple[float, float], confidence: Confidence) -> Row:
    """A mid-run row to step from: the last fix at ``(x, 0)`` and what the scheduler made of it."""
    return Row(t, x, 0.0, period, *velocity, confidence.value, math.nan)


# ---------------------------------------------------------------------------
# Fixed-rate scheduling
# ---------------------------------------------------------------------------


def test_sfr_next_fix_is_one_period_after_current():
    cfg = SfrConfig(period=2.0)
    row = _row(sfr_step, 0.6, 1.0, 0.0, None, cfg)
    assert row.t + row.period == pytest.approx(2.6)
    row = _row(sfr_step, 2.6, 3.0, 0.0, row, cfg)
    assert row.t + row.period == pytest.approx(4.6)
    assert row.period == 2.0


def test_sfr_reports_held_fix():
    cfg = SfrConfig(period=2.0)
    assert not PROTOCOLS["sfr"].predicts
    row = _row(sfr_step, 0.0, 1.0, 2.0, None, cfg)
    assert (row.x, row.y) == (1.0, 2.0)
    row = _row(sfr_step, 2.0, 4.0, 6.0, row, cfg)
    assert (row.x, row.y) == (4.0, 6.0)


def test_sfr_config_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        SfrConfig(period=0.0)


# ---------------------------------------------------------------------------
# Speed-scaled scheduling
# ---------------------------------------------------------------------------


def test_dvm_starts_at_t_min():
    row = _row(dvm_step, 0.0, 0.0, 0.0, None, DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0))
    assert row.period == 0.5


def test_dvm_period_is_target_over_speed():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    row = _row(dvm_step, 0.0, 0.0, 0.0, None, cfg)
    # 2 m in 1 s -> 2 m/s -> 6/2 = 3 s until the next fix.
    row = _row(dvm_step, 1.0, 2.0, 0.0, row, cfg)
    assert row.period == pytest.approx(3.0)
    assert row.t + row.period == pytest.approx(4.0)
    assert (row.vx, row.vy) == pytest.approx((2.0, 0.0))


def test_dvm_stationary_reading_uses_t_max():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    row = _row(dvm_step, 0.0, 7.0, 7.0, None, cfg)
    row = _row(dvm_step, 1.0, 7.0, 7.0, row, cfg)
    assert row.period == 20.0


def test_dvm_fast_reading_clamps_to_t_min():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    row = _row(dvm_step, 0.0, 0.0, 0.0, None, cfg)
    row = _row(dvm_step, 1.0, 100.0, 0.0, row, cfg)
    assert row.period == 0.5


def test_dvm_slow_reading_clamps_to_t_max():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    row = _row(dvm_step, 0.0, 0.0, 0.0, None, cfg)
    row = _row(dvm_step, 100.0, 1.0, 0.0, row, cfg)
    assert row.period == 20.0


def test_dvm_zero_elapsed_between_fixes_raises():
    cfg = DvmConfig()
    row = _row(dvm_step, 1.0, 0.0, 0.0, None, cfg)
    with pytest.raises(ValueError):
        dvm_step(1.0, 5.0, 0.0, row, cfg)


def test_dvm_config_rejects_inverted_limits():
    with pytest.raises(ValueError):
        DvmConfig(t_min=5.0, t_max=1.0)


# ---------------------------------------------------------------------------
# Dead-reckoning scheduling
# ---------------------------------------------------------------------------


def _madrd_cfg(**kw) -> MadrdConfig:
    base = dict(divergence_threshold=5.0, t_min=0.5, t_max=20.0,
                period_growth=2.0, period_shrink=0.5)
    base.update(kw)
    return MadrdConfig(**base)


def test_madrd_prediction_extrapolates_velocity():
    cfg = _madrd_cfg()
    row = _row(madrd_step, 0.0, 0.0, 0.0, None, cfg)
    row = _row(madrd_step, 1.0, 5.0, 0.0, row, cfg)
    assert (row.vx, row.vy) == pytest.approx((5.0, 0.0))
    # One second later the dead-reckoned point is 5 m further along x.
    predicted = madrd_predict(row.x, row.y, row.vx, row.vy, 2.0 - row.t)
    assert predicted == pytest.approx((10.0, 0.0))


@pytest.mark.parametrize("state", list(Confidence))
def test_confidence_steps_are_the_clamped_neighbours(state):
    # A fix on the predicted track steps one state up, an 8 m miss one state down.
    cfg = _madrd_cfg()
    carry = _carry(0.0, 0.0, period=1.0, velocity=(1.0, 0.0), confidence=state)
    assert _row(madrd_step, 1.0, 1.0, 0.0, carry, cfg).confidence == min(state.value + 1, Confidence.HC.value)
    assert _row(madrd_step, 1.0, 1.0, 8.0, carry, cfg).confidence == max(state.value - 1, Confidence.LC.value)


def test_madrd_good_fix_chain_reaches_hc_then_grows():
    cfg = _madrd_cfg()
    row = _row(madrd_step, 0.0, 0.0, 0.0, None, cfg)
    # Fixes along a perfect constant-velocity track: every prediction is exact.
    row = _row(madrd_step, 0.5, 0.5, 0.0, row, cfg)   # S1 -> S2
    assert row.confidence == Confidence.S2.value
    assert row.period == 0.5  # held while in the middle of the chain
    row = _row(madrd_step, 1.0, 1.0, 0.0, row, cfg)   # S2 -> HC
    assert row.confidence == Confidence.HC.value
    assert row.period == pytest.approx(1.0)  # doubled on entering HC
    row = _row(madrd_step, 2.0, 2.0, 0.0, row, cfg)   # HC stays, doubles
    assert row.period == pytest.approx(2.0)


def test_madrd_bad_fix_steps_down_one_state_and_holds_period():
    cfg = _madrd_cfg()
    row = _carry(10.0, 10.0, period=4.0, velocity=(1.0, 0.0), confidence=Confidence.HC)
    # Prediction says x=14 but the node actually turned: 8 m off.
    row = _row(madrd_step, 14.0, 14.0, 8.0, row, cfg)
    assert row.confidence == Confidence.S2.value  # one step, never HC -> LC
    assert row.period == 4.0                      # held in S2


def test_madrd_three_bad_fixes_walk_hc_to_lc_then_shrink():
    cfg = _madrd_cfg()
    row = _carry(0.0, 0.0, period=4.0, velocity=(0.0, 0.0), confidence=Confidence.HC)
    jumps = iter([(4.0, 0.0, 10.0), (8.0, 20.0, 10.0), (12.0, 20.0, 30.0), (16.0, 40.0, 30.0)])
    row = _row(madrd_step, *next(jumps), row, cfg)
    assert (row.confidence, row.period) == (Confidence.S2.value, 4.0)
    row = _row(madrd_step, *next(jumps), row, cfg)
    assert (row.confidence, row.period) == (Confidence.S1.value, 4.0)
    row = _row(madrd_step, *next(jumps), row, cfg)
    assert row.confidence == Confidence.LC.value
    assert row.period == pytest.approx(2.0)  # halved on entering LC
    row = _row(madrd_step, *next(jumps), row, cfg)
    assert row.confidence == Confidence.LC.value  # saturates at the bottom
    assert row.period == pytest.approx(1.0)


def test_madrd_period_clamps_at_both_limits():
    cfg = _madrd_cfg(t_min=1.0, t_max=4.0)
    hi = _carry(0.0, 0.0, period=3.0, velocity=(1.0, 0.0), confidence=Confidence.HC)
    hi = _row(madrd_step, 3.0, 3.0, 0.0, hi, cfg)  # good fix, would double to 6
    assert hi.period == 4.0
    lo = _carry(0.0, 0.0, period=1.5, velocity=(0.0, 0.0), confidence=Confidence.S1)
    lo = _row(madrd_step, 1.5, 30.0, 0.0, lo, cfg)  # 30 m miss, S1 -> LC, halve
    assert lo.confidence == Confidence.LC.value
    assert lo.period == 1.0


def test_madrd_confidence_never_skips_a_state():
    cfg = _madrd_cfg()
    rng = np.random.default_rng(99)
    row = _row(madrd_step, 0.0, 0.0, 0.0, None, cfg)
    t = 0.0
    for _ in range(300):
        before = row.confidence
        t += float(rng.uniform(0.5, 3.0))
        # Random walk: some fixes land near the prediction, some far away.
        px, py = madrd_predict(row.x, row.y, row.vx, row.vy, t - row.t)
        offset = float(rng.uniform(0.0, 12.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        row = _row(madrd_step, t, px + offset * math.cos(angle), py + offset * math.sin(angle), row, cfg)
        assert abs(row.confidence - before) <= 1
        assert cfg.t_min <= row.period <= cfg.t_max


def test_madrd_noise_free_straight_run_relaxes_to_t_max():
    cfg = _madrd_cfg(t_max=8.0)
    row = _row(madrd_step, 0.0, 0.0, 0.0, None, cfg)
    worst = 0.0
    for fix in range(20):
        t = row.t + row.period
        true_x = 2.0 * t  # constant 2 m/s along x
        if fix > 0:  # a velocity exists from the second fix on
            worst = max(worst, abs(madrd_predict(row.x, row.y, row.vx, row.vy, t - row.t)[0] - true_x))
        row = _row(madrd_step, t, true_x, 0.0, row, cfg)
    assert row.period == 8.0
    assert row.confidence == Confidence.HC.value
    assert worst < 1e-9  # dead reckoning is exact once a velocity exists


def test_madrd_config_rejects_bad_growth_and_shrink():
    with pytest.raises(ValueError):
        _madrd_cfg(period_growth=0.9)
    with pytest.raises(ValueError):
        _madrd_cfg(period_shrink=0.0)
    with pytest.raises(ValueError):
        _madrd_cfg(period_shrink=1.5)


# ---------------------------------------------------------------------------
# Per-fix steps against the reference state machines
# ---------------------------------------------------------------------------

@st.composite
def scheduler_configs(draw):
    kind = draw(st.sampled_from(sorted(PROTOCOLS)))
    if kind == "sfr":
        return kind, SfrConfig(period=draw(st.floats(1e-3, 50.0)))
    t_min = draw(st.floats(0.01, 5.0))
    t_max = t_min + draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 50.0))]))
    if kind == "dvm":
        return kind, DvmConfig(target_error=draw(st.floats(0.01, 20.0)), t_min=t_min, t_max=t_max)
    return kind, MadrdConfig(
        divergence_threshold=draw(st.floats(0.01, 20.0)), t_min=t_min, t_max=t_max,
        period_growth=draw(st.floats(1.0, 3.0)), period_shrink=draw(st.floats(0.05, 1.0)),
    )


@st.composite
def fix_sequences(draw):
    """Strictly increasing fix times and finite positions: held, on a straight line, or anywhere."""
    t = draw(st.floats(0.0, 1e4))
    x, y = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    fixes = [(t, x, y)]
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.floats(1e-3, 60.0))
        move = draw(st.sampled_from(["hold", "line", "anywhere"]))
        if move == "line":
            x, y = 2.0 * t, -0.5 * t
        elif move == "anywhere":
            x, y = draw(st.floats(-1e150, 1e150)), draw(st.floats(-1e150, 1e150))
        fixes.append((t, x, y))
    return fixes


@st.composite
def carried_states(draw):
    """A mid-run state to start from: any period, velocity and confidence."""
    return (
        draw(st.floats(1e-3, 50.0)),
        draw(st.floats(-100.0, 100.0)),
        draw(st.floats(-100.0, 100.0)),
        draw(st.sampled_from(list(Confidence))),
    )


@settings(max_examples=300, deadline=None)
@given(protocol=scheduler_configs(), fixes=fix_sequences(), start=st.none() | carried_states())
def test_step_matches_reference_state_machine(protocol, fixes, start):
    kind, cfg = protocol
    step = PROTOCOLS[kind].step
    ref_init, ref_on_localize = REFERENCE_SCHEDULERS[kind]
    row = ref = None
    if start is not None:
        (t, x, y), fixes = fixes[0], fixes[1:]
        period, vx, vy, confidence = start
        row = (t, x, y, period, vx, vy, confidence.value, math.nan)
        ref = RefState(RefFix(t, x, y), (vx, vy), t + period, period, confidence)
    for t, x, y in fixes:
        previous = row
        row = step(t, x, y, row, cfg)
        fix = RefFix(t, x, y)
        ref = ref_init(fix, cfg) if ref is None else ref_on_localize(ref, fix, cfg)

        got = dict(zip(FIX_COLUMNS, row))
        assert (got["t"], got["x"], got["y"]) == (t, x, y)
        expected = [ref.current_period, ref.next_localization_time, *ref.velocity_estimate, ref.prediction_error]
        assert [v.hex() for v in (got["period"], t + got["period"], got["vx"], got["vy"], got["prediction_error"])] == [
            v.hex() for v in expected
        ]
        assert got["confidence"] == ref.confidence.value

        # Invariants: the next fix comes later, the period keeps its limits, confidence moves one state at most.
        assert t + got["period"] > t
        if kind == "sfr":
            assert got["period"] == cfg.period
        else:
            assert cfg.t_min <= got["period"] <= cfg.t_max
        if previous is not None:
            assert abs(got["confidence"] - previous[FIX_COLUMNS.index("confidence")]) <= 1


@pytest.mark.parametrize("kind", ["dvm", "madrd"])
def test_velocity_steps_reject_fixes_out_of_time_order(kind):
    cfg = PROTOCOLS[kind].config()
    step = PROTOCOLS[kind].step
    row = step(5.0, 0.0, 0.0, None, cfg)
    with pytest.raises(ValueError, match="separated in time"):
        step(5.0, 1.0, 0.0, row, cfg)


# ---------------------------------------------------------------------------
# Retrospective correction
# ---------------------------------------------------------------------------


def _engine_backtrack(prev_fix, last_fix, series, noise_max):
    """:func:`dynloc.engine.backtrack_correct` between two fixes, in the reference's terms.

    The grid is the first fix's time, the reported points' times and the last
    fix's time; returns the corrected ``(t, x, y)`` points and the count.
    """
    times, xs, ys = (np.array(c, dtype=float) for c in zip(prev_fix, *series, last_fix))
    last = times.size - 1
    fixes = Fixes(np.array([0, last]), times[[0, last]], xs[[0, last]], ys[[0, last]], *np.zeros((5, 2)))
    moved = backtrack_correct(times, fixes, xs, ys, noise_max)
    assert (xs[0], ys[0], xs[-1], ys[-1]) == (prev_fix[1], prev_fix[2], last_fix[1], last_fix[2])
    return list(zip(times[1:-1].tolist(), xs[1:-1].tolist(), ys[1:-1].tolist())), moved


# The engine's array pass and the per-point reference the engine is checked against.
_BACKTRACKS = (_engine_backtrack, ref_backtrack_correct)


def test_backtrack_midpoint_lands_on_fix_chord():
    prev = RefFix(0.0, 0.0, 0.0)
    last = RefFix(2.0, 10.0, 0.0)
    for correct in _BACKTRACKS:
        corrected, moved = correct(prev, last, [(1.0, 5.0, 5.0)], 0.5)
        assert corrected == [(1.0, 5.0, 0.0)]
        assert moved == 1


def test_backtrack_counts_only_large_moves():
    prev = RefFix(0.0, 0.0, 0.0)
    last = RefFix(2.0, 10.0, 0.0)
    series = [(0.5, 2.5, 0.3), (1.0, 5.0, 5.0), (1.5, 7.5, 0.0)]
    for correct in _BACKTRACKS:
        corrected, moved = correct(prev, last, series, 0.5)
        assert moved == 1
        assert [(x, y) for _, x, y in corrected] == [(2.5, 0.0), (5.0, 0.0), (7.5, 0.0)]


def test_backtrack_never_worsens_error_on_straight_true_track():
    # True motion: straight line x = 3 t.  Held reports freeze the previous
    # fix, so reinterpolating between the surrounding fixes can only help.
    prev = RefFix(0.0, 0.0, 0.0)
    last = RefFix(4.0, 12.0, 0.0)
    held = [(t, 0.0, 0.0) for t in (1.0, 2.0, 3.0)]
    for correct in _BACKTRACKS:
        corrected, _ = correct(prev, last, held, 0.0)
        for (t, bx, by), (_, ax, ay) in zip(held, corrected):
            true_x, true_y = 3.0 * t, 0.0
            err_before = math.hypot(bx - true_x, by - true_y)
            err_after = math.hypot(ax - true_x, ay - true_y)
            assert err_after <= err_before + 1e-12


# The engine corrects only the steps between its own fixes; the reference,
# which takes any points, rejects the ones it cannot correct.


def test_backtrack_rejects_points_outside_interval():
    prev = RefFix(0.0, 0.0, 0.0)
    last = RefFix(2.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        ref_backtrack_correct(prev, last, [(2.0, 0.0, 0.0)], 0.5)
    with pytest.raises(ValueError):
        ref_backtrack_correct(prev, last, [(-0.1, 0.0, 0.0)], 0.5)


def test_backtrack_rejects_unordered_fixes():
    with pytest.raises(ValueError):
        ref_backtrack_correct(RefFix(2.0, 0.0, 0.0), RefFix(2.0, 1.0, 0.0), [], 0.5)
