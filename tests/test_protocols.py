from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynloc.geometry import LocalizationSample, Position
from dynloc.protocols import (
    FIX_COLUMNS,
    PROTOCOLS,
    Confidence,
    DvmConfig,
    MadrdConfig,
    SchedulerState,
    SfrConfig,
    backtrack_correct,
    dvm_init,
    dvm_on_localize,
    madrd_init,
    madrd_on_localize,
    madrd_predict,
    sfr_init,
    sfr_on_localize,
)

from scenario_tools import REFERENCE_SCHEDULERS, RefState


def _sample(t: float, x: float, y: float = 0.0) -> LocalizationSample:
    return LocalizationSample(t=t, measured=Position(x, y))


# ---------------------------------------------------------------------------
# Fixed-rate scheduling
# ---------------------------------------------------------------------------


def test_sfr_next_fix_is_one_period_after_current():
    cfg = SfrConfig(period=2.0)
    state = sfr_init(_sample(0.6, 1.0), cfg)
    assert state.next_localization_time == pytest.approx(2.6)
    state = sfr_on_localize(state, _sample(2.6, 3.0), cfg)
    assert state.next_localization_time == pytest.approx(4.6)
    assert state.current_period == 2.0


def test_sfr_reports_held_fix():
    cfg = SfrConfig(period=2.0)
    state = sfr_init(_sample(0.0, 1.0, 2.0), cfg)
    assert state.last_sample.measured == Position(1.0, 2.0)
    state = sfr_on_localize(state, _sample(2.0, 4.0, 6.0), cfg)
    assert state.last_sample.measured == Position(4.0, 6.0)


def test_sfr_config_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        SfrConfig(period=0.0)


# ---------------------------------------------------------------------------
# Speed-scaled scheduling
# ---------------------------------------------------------------------------


def test_dvm_starts_at_t_min():
    state = dvm_init(_sample(0.0, 0.0), DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0))
    assert state.current_period == 0.5


def test_dvm_period_is_target_over_speed():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    state = dvm_init(_sample(0.0, 0.0), cfg)
    # 2 m in 1 s -> 2 m/s -> 6/2 = 3 s until the next fix.
    state = dvm_on_localize(state, _sample(1.0, 2.0), cfg)
    assert state.current_period == pytest.approx(3.0)
    assert state.next_localization_time == pytest.approx(4.0)
    assert state.velocity_estimate == pytest.approx((2.0, 0.0))


def test_dvm_stationary_reading_uses_t_max():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    state = dvm_init(_sample(0.0, 7.0, 7.0), cfg)
    state = dvm_on_localize(state, _sample(1.0, 7.0, 7.0), cfg)
    assert state.current_period == 20.0


def test_dvm_fast_reading_clamps_to_t_min():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    state = dvm_init(_sample(0.0, 0.0), cfg)
    state = dvm_on_localize(state, _sample(1.0, 100.0), cfg)
    assert state.current_period == 0.5


def test_dvm_slow_reading_clamps_to_t_max():
    cfg = DvmConfig(target_error=6.0, t_min=0.5, t_max=20.0)
    state = dvm_init(_sample(0.0, 0.0), cfg)
    state = dvm_on_localize(state, _sample(100.0, 1.0), cfg)
    assert state.current_period == 20.0


def test_dvm_zero_elapsed_between_fixes_raises():
    cfg = DvmConfig()
    state = dvm_init(_sample(1.0, 0.0), cfg)
    with pytest.raises(ValueError):
        dvm_on_localize(state, _sample(1.0, 5.0), cfg)


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
    state = madrd_init(_sample(0.0, 0.0), cfg)
    state = madrd_on_localize(state, _sample(1.0, 5.0), cfg)
    assert state.velocity_estimate == pytest.approx((5.0, 0.0))
    # One second later the dead-reckoned point is 5 m further along x.
    predicted = madrd_predict(state, 2.0)
    assert (predicted.x, predicted.y) == pytest.approx((10.0, 0.0))


@pytest.mark.parametrize("state", list(Confidence))
def test_confidence_steps_are_the_clamped_neighbours(state):
    assert state.toward_hc() is Confidence(min(state.value + 1, Confidence.HC.value))
    assert state.toward_lc() is Confidence(max(state.value - 1, Confidence.LC.value))


def test_madrd_good_fix_chain_reaches_hc_then_grows():
    cfg = _madrd_cfg()
    state = madrd_init(_sample(0.0, 0.0), cfg)
    # Fixes along a perfect constant-velocity track: every prediction is exact.
    state = madrd_on_localize(state, _sample(0.5, 0.5), cfg)   # S1 -> S2
    assert state.confidence is Confidence.S2
    assert state.current_period == 0.5  # held while in the middle of the chain
    state = madrd_on_localize(state, _sample(1.0, 1.0), cfg)   # S2 -> HC
    assert state.confidence is Confidence.HC
    assert state.current_period == pytest.approx(1.0)  # doubled on entering HC
    state = madrd_on_localize(state, _sample(2.0, 2.0), cfg)   # HC stays, doubles
    assert state.current_period == pytest.approx(2.0)


def test_madrd_bad_fix_steps_down_one_state_and_holds_period():
    cfg = _madrd_cfg()
    state = SchedulerState(
        last_sample=_sample(10.0, 10.0),
        velocity_estimate=(1.0, 0.0),
        next_localization_time=14.0,
        current_period=4.0,
        confidence=Confidence.HC,
    )
    # Prediction says x=14 but the node actually turned: 8 m off.
    state = madrd_on_localize(state, _sample(14.0, 14.0, 8.0), cfg)
    assert state.confidence is Confidence.S2   # one step, never HC -> LC
    assert state.current_period == 4.0         # held in S2


def test_madrd_three_bad_fixes_walk_hc_to_lc_then_shrink():
    cfg = _madrd_cfg()
    state = SchedulerState(
        last_sample=_sample(0.0, 0.0),
        velocity_estimate=(0.0, 0.0),
        next_localization_time=4.0,
        current_period=4.0,
        confidence=Confidence.HC,
    )
    jumps = iter([(4.0, 0.0, 10.0), (8.0, 20.0, 10.0), (12.0, 20.0, 30.0), (16.0, 40.0, 30.0)])
    state = madrd_on_localize(state, _sample(*next(jumps)), cfg)
    assert (state.confidence, state.current_period) == (Confidence.S2, 4.0)
    state = madrd_on_localize(state, _sample(*next(jumps)), cfg)
    assert (state.confidence, state.current_period) == (Confidence.S1, 4.0)
    state = madrd_on_localize(state, _sample(*next(jumps)), cfg)
    assert state.confidence is Confidence.LC
    assert state.current_period == pytest.approx(2.0)  # halved on entering LC
    state = madrd_on_localize(state, _sample(*next(jumps)), cfg)
    assert state.confidence is Confidence.LC           # saturates at the bottom
    assert state.current_period == pytest.approx(1.0)


def test_madrd_period_clamps_at_both_limits():
    cfg = _madrd_cfg(t_min=1.0, t_max=4.0)
    hi = SchedulerState(
        last_sample=_sample(0.0, 0.0), velocity_estimate=(1.0, 0.0),
        next_localization_time=3.0, current_period=3.0, confidence=Confidence.HC,
    )
    hi = madrd_on_localize(hi, _sample(3.0, 3.0), cfg)  # good fix, would double to 6
    assert hi.current_period == 4.0
    lo = SchedulerState(
        last_sample=_sample(0.0, 0.0), velocity_estimate=(0.0, 0.0),
        next_localization_time=1.5, current_period=1.5, confidence=Confidence.S1,
    )
    lo = madrd_on_localize(lo, _sample(1.5, 30.0), cfg)  # 30 m miss, S1 -> LC, halve
    assert lo.confidence is Confidence.LC
    assert lo.current_period == 1.0


def test_madrd_confidence_never_skips_a_state():
    cfg = _madrd_cfg()
    rng = np.random.default_rng(99)
    state = madrd_init(_sample(0.0, 0.0), cfg)
    t = 0.0
    for _ in range(300):
        before = state.confidence.value
        t += float(rng.uniform(0.5, 3.0))
        # Random walk: some fixes land near the prediction, some far away.
        pred = madrd_predict(state, t)
        offset = float(rng.uniform(0.0, 12.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        fix = Position(pred.x + offset * math.cos(angle), pred.y + offset * math.sin(angle))
        state = madrd_on_localize(state, LocalizationSample(t=t, measured=fix), cfg)
        assert abs(state.confidence.value - before) <= 1
        assert cfg.t_min <= state.current_period <= cfg.t_max


def test_madrd_noise_free_straight_run_relaxes_to_t_max():
    cfg = _madrd_cfg(t_max=8.0)
    state = madrd_init(_sample(0.0, 0.0), cfg)
    t = 0.0
    worst = 0.0
    for fix in range(20):
        t = state.next_localization_time
        true = Position(2.0 * t, 0.0)  # constant 2 m/s along x
        if fix > 0:  # a velocity exists from the second fix on
            worst = max(worst, abs(madrd_predict(state, t).x - true.x))
        state = madrd_on_localize(state, LocalizationSample(t=t, measured=true), cfg)
    assert state.current_period == 8.0
    assert state.confidence is Confidence.HC
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

_WRAPPERS = {
    "sfr": (sfr_init, sfr_on_localize),
    "dvm": (dvm_init, dvm_on_localize),
    "madrd": (madrd_init, madrd_on_localize),
}


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
    init, on_localize = _WRAPPERS[kind]
    row = ref = state = None
    if start is not None:
        (t, x, y), fixes = fixes[0], fixes[1:]
        period, vx, vy, confidence = start
        row = (t, x, y, period, vx, vy, confidence.value, math.nan)
        ref = RefState(_sample(t, x, y), (vx, vy), t + period, period, confidence)
        state = SchedulerState(_sample(t, x, y), (vx, vy), t + period, period, confidence)
    for t, x, y in fixes:
        previous = row
        row = step(t, x, y, row, cfg)
        sample = _sample(t, x, y)
        ref = ref_init(sample, cfg) if ref is None else ref_on_localize(ref, sample, cfg)
        state = init(sample, cfg) if state is None else on_localize(state, sample, cfg)

        got = dict(zip(FIX_COLUMNS, row))
        assert (got["t"], got["x"], got["y"]) == (t, x, y)
        expected = [ref.current_period, ref.next_localization_time, *ref.velocity_estimate, ref.prediction_error]
        assert [v.hex() for v in (got["period"], t + got["period"], got["vx"], got["vy"], got["prediction_error"])] == [
            v.hex() for v in expected
        ]
        assert got["confidence"] == ref.confidence.value
        # The object wrappers report the same decision.
        assert (state.current_period, state.next_localization_time, state.velocity_estimate, state.confidence) == (
            ref.current_period, ref.next_localization_time, ref.velocity_estimate, ref.confidence
        )

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
# Scheduler-state container
# ---------------------------------------------------------------------------


def test_state_rejects_next_fix_not_after_last():
    with pytest.raises(ValueError):
        SchedulerState(
            last_sample=_sample(2.0, 0.0), velocity_estimate=(0.0, 0.0),
            next_localization_time=2.0, current_period=1.0,
        )


# ---------------------------------------------------------------------------
# Retrospective correction
# ---------------------------------------------------------------------------


def test_backtrack_midpoint_lands_on_fix_chord():
    prev = _sample(0.0, 0.0, 0.0)
    last = _sample(2.0, 10.0, 0.0)
    corrected, moved = backtrack_correct(prev, last, [(1.0, Position(5.0, 5.0))], 0.5)
    assert corrected == [(1.0, Position(5.0, 0.0))]
    assert moved == 1


def test_backtrack_counts_only_large_moves():
    prev = _sample(0.0, 0.0, 0.0)
    last = _sample(2.0, 10.0, 0.0)
    series = [(0.5, Position(2.5, 0.3)), (1.0, Position(5.0, 5.0)), (1.5, Position(7.5, 0.0))]
    corrected, moved = backtrack_correct(prev, last, series, 0.5)
    assert moved == 1
    assert [p for _, p in corrected] == [Position(2.5, 0.0), Position(5.0, 0.0), Position(7.5, 0.0)]


def test_backtrack_never_worsens_error_on_straight_true_track():
    # True motion: straight line x = 3 t.  Held reports freeze the previous
    # fix, so reinterpolating between the surrounding fixes can only help.
    prev = _sample(0.0, 0.0, 0.0)
    last = _sample(4.0, 12.0, 0.0)
    held = [(t, Position(0.0, 0.0)) for t in (1.0, 2.0, 3.0)]
    corrected, _ = backtrack_correct(prev, last, held, 0.0)
    for (t, before), (_, after) in zip(held, corrected):
        true = Position(3.0 * t, 0.0)
        err_before = math.hypot(before.x - true.x, before.y - true.y)
        err_after = math.hypot(after.x - true.x, after.y - true.y)
        assert err_after <= err_before + 1e-12


def test_backtrack_rejects_points_outside_interval():
    prev = _sample(0.0, 0.0, 0.0)
    last = _sample(2.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        backtrack_correct(prev, last, [(2.0, Position(0.0, 0.0))], 0.5)
    with pytest.raises(ValueError):
        backtrack_correct(prev, last, [(-0.1, Position(0.0, 0.0))], 0.5)


def test_backtrack_rejects_unordered_fixes():
    with pytest.raises(ValueError):
        backtrack_correct(_sample(2.0, 0.0), _sample(2.0, 1.0), [], 0.5)
