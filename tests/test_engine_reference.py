"""Property tests: the fix-driven engine against the per-step reference engine.

Short random traces, all three protocols, backtracking on and off, random
grid steps, period limits, noise and seeds.  Every column must match the
reference bit for bit, and the scheduler invariants must hold on every run.
SFR's fixed-rate array path, which reads the fix steps a walked run left in
the workspace, must also match the same run through the per-fix loop, and
reject what the loop rejects with the same message.  The array
backtracking pass must match the per-interval reference on held and
dead-reckoned reports, signed zeros included.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynloc.engine import _SCHED_EPS, Fixes, RunConfig, Workspace, backtrack_correct, run
from dynloc.experiments import event_columns
from dynloc.mobility import MobilityTrace, generate_gauss_markov, generate_random_waypoint
from dynloc.protocols import FIX_COLUMNS, PROTOCOLS, Confidence, DvmConfig, MadrdConfig, SfrConfig, madrd_predict

from scenario_tools import RefFix, ref_backtrack_correct, reference_run, trace_spec

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def traces(draw):
    duration = draw(st.floats(min_value=0.5, max_value=40.0))
    dt = draw(st.sampled_from([0.05, 0.1, 0.25, 0.3, 1.0]))
    rng = np.random.default_rng(draw(_SEEDS))
    if draw(st.booleans()):
        v_min = draw(st.floats(min_value=0.1, max_value=10.0))
        spec = trace_spec(
            area_w=100.0, area_h=100.0, speed_class=(v_min, v_min * draw(st.floats(1.0, 2.0))),
            pause_time=draw(st.sampled_from([0.0, 0.7, 5.0])), duration=duration, dt=dt,
        )
        return generate_random_waypoint(spec, rng)
    mean_speed = draw(st.floats(1e-3, 10.0))
    spec = trace_spec(
        mobility="gauss_markov", area_w=50.0, area_h=50.0, speed_class=(mean_speed, mean_speed),
        gm_memory=draw(st.floats(0.0, 1.0)), duration=duration, dt=dt,
    )
    return generate_gauss_markov(spec, rng)


@st.composite
def protocols(draw):
    kind = draw(st.sampled_from(["sfr", "dvm", "madrd"]))
    if kind == "sfr":
        # Includes periods shorter than any grid step: at most one fix per step.
        period = draw(st.one_of(st.floats(0.01, 8.0), st.sampled_from([1e-12, 0.1, 0.2, 2.0])))
        return kind, SfrConfig(period=period)
    t_min = draw(st.floats(0.01, 3.0))
    t_max = t_min + draw(st.floats(0.0, 6.0))
    if kind == "dvm":
        return kind, DvmConfig(target_error=draw(st.floats(0.1, 10.0)), t_min=t_min, t_max=t_max)
    return kind, MadrdConfig(
        divergence_threshold=draw(st.floats(0.1, 10.0)),
        t_min=t_min,
        t_max=t_max,
        period_growth=draw(st.floats(1.0, 3.0)),
        period_shrink=draw(st.floats(0.1, 1.0)),
    )


def _bits(rows):
    return [tuple(map(repr, row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(
    trace=traces(),
    protocol=protocols(),
    noise=st.sampled_from([0.0, 0.5, 3.0]),
    tolerance=st.sampled_from([0.0, 1.0, 5.0]),
    seed=_SEEDS,
    backtracking=st.booleans(),
)
def test_fix_driven_run_matches_per_step_reference(trace, protocol, noise, tolerance, seed, backtracking):
    kind, pcfg = protocol
    cfg = RunConfig(
        trace=trace, protocol_config=pcfg, noise_max=noise,
        dist_tolerance=tolerance, seed=seed, backtracking_enabled=backtracking,
    )
    result = run(cfg)
    events, ref_fixes, metrics = reference_run(cfg)
    f = result.fixes
    e = event_columns(result)

    assert _bits(zip(*(col.tolist() for col in e.values()))) == _bits(events)
    assert list(zip(f.t.tolist(), f.x.tolist(), f.y.tolist())) == ref_fixes
    assert result.metrics == metrics
    assert result.config is cfg
    for col in e.values():
        assert len(col) == len(trace)

    # Fix times are strictly increasing grid times, the first one at t=0.
    fix_times = f.t.tolist()
    assert fix_times[0] == 0.0
    assert all(a < b for a, b in zip(fix_times, fix_times[1:]))
    assert fix_times == e["t"][e["localized"] == 1].tolist()

    # The period stays inside the protocol's limits.
    if kind == "sfr":
        assert set(e["period"].tolist()) == {pcfg.period}
    else:
        assert pcfg.t_min <= e["period"].min() and e["period"].max() <= pcfg.t_max

    # MADRD's confidence moves at most one state per fix; the others carry none.
    if kind == "madrd":
        at_fixes = [Confidence[c].value for c in e["confidence"][e["localized"] == 1]]
        assert all(abs(a - b) <= 1 for a, b in zip(at_fixes, at_fixes[1:]))
    else:
        assert set(e["confidence"].tolist()) == {""}
    if not backtracking:
        assert result.metrics.correction_count == 0

    # The per-fix columns agree with the event columns.
    assert f._fields[1:] == FIX_COLUMNS
    assert f.step.tolist() == np.flatnonzero(e["localized"]).tolist()
    assert f.period.tolist() == e["period"][f.step].tolist()
    if kind == "madrd":
        levels = f.confidence.tolist()
        assert [Confidence(c).name for c in levels] == e["confidence"][f.step].tolist()
        assert np.isnan(f.prediction_error[0]) and not np.isnan(f.prediction_error[1:]).any()
        # Confidence steps down exactly where the prediction missed by more than the threshold.
        missed = (f.prediction_error[1:] > pcfg.divergence_threshold).tolist()
        assert levels[1:] == [max(a - 1, 0) if miss else min(a + 1, 3) for a, miss in zip(levels, missed)]
    else:
        assert np.isnan(f.prediction_error).all()


# ---------------------------------------------------------------------------
# Fixed-rate schedules: array path against the per-fix loop
# ---------------------------------------------------------------------------


@st.composite
def fixed_rate_cases(draw):
    """A random-waypoint trace on a random grid, and an SFR period relative to its step and length."""
    dt = draw(st.floats(min_value=0.01, max_value=3.0))
    duration = draw(st.floats(min_value=0.05, max_value=60.0))
    spec = trace_spec(area_w=100.0, area_h=100.0, speed_class=(1.0, 8.0), duration=duration, dt=dt)
    trace = generate_random_waypoint(spec, np.random.default_rng(draw(_SEEDS)))
    period = draw(
        st.one_of(
            st.floats(1e-3, 0.999).map(lambda f: f * dt),  # below one grid step
            st.floats(1.0, 30.0).map(lambda f: f * dt),  # mostly not a multiple of the step
            st.integers(1, 20).map(lambda k: k * dt),  # a multiple, up to rounding
            st.integers(1, 20).map(lambda k: k * dt + _SCHED_EPS),  # t=0 asks for step k's due time exactly
            st.floats(1.01, 3.0).map(lambda f: f * trace.times[-1].item()),  # longer than the trace
            st.integers(1, 30),  # an int, which the period column still holds as a float
            st.just(1e-12),
        )
    )
    return trace, period


def _columns(result):
    return [*result.fixes, result.reported_x, result.reported_y, result.error]


def _without_fixed_rate(mp):
    """Send SFR runs through the per-fix loop, as a protocol whose fix times depend on its fixes."""
    mp.setitem(PROTOCOLS, "sfr", PROTOCOLS["sfr"]._replace(fixed_rate=False))


@settings(max_examples=150, deadline=None)
@given(case=fixed_rate_cases(), noise=st.sampled_from([0.0, 0.5, 3.0]), seed=_SEEDS, backtracking=st.booleans())
def test_fixed_rate_run_matches_the_per_fix_loop(case, noise, seed, backtracking):
    trace, period = case
    cfg = RunConfig(
        trace=trace, protocol_config=SfrConfig(period=period), noise_max=noise,
        seed=seed, backtracking_enabled=backtracking,
    )
    # A walk on the same grid and period, on another noise stream, leaves its fix steps in the
    # workspace; the run under test reads them in array form.
    workspace = Workspace()
    run(dataclasses.replace(cfg, seed=seed ^ 1, noise_max=0.5), workspace)
    assert len(workspace.grid(len(trace), trace.dt)[1]) == 1
    fixed = run(cfg, workspace)
    with pytest.MonkeyPatch.context() as mp:
        _without_fixed_rate(mp)
        stepped = run(cfg)
    assert fixed.metrics == stepped.metrics
    for a, b in zip(_columns(fixed), _columns(stepped), strict=True):
        assert a.dtype == b.dtype and not a.flags.writeable
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        if a.dtype.kind == "f":
            assert np.array_equal(a.view(np.int64), b.view(np.int64))  # signed zeros and NaN bits too


@pytest.mark.parametrize(
    ("trace", "period", "noise", "match"),
    [
        # t + period rounds back to t once half of t's ulp outgrows the period: at t=200, not t=100.
        (MobilityTrace(0, np.zeros(11), np.zeros(11), 100.0, 10.0, 10.0),
         1e-14, 0.0, "next fix must come after the fix at t=200.0, got 200.0"),
        # A fix displaced past the largest double.
        (MobilityTrace(0, np.array([1.7e308]), np.array([1.7e308]), 1.0, 1.7e308, 1.7e308),
         2.0, 1e308, "finite"),
    ],
    ids=["fix-not-later", "non-finite-fix"],
)
def test_fixed_rate_run_rejects_what_the_per_fix_loop_rejects(trace, period, noise, match):
    cfg = RunConfig(trace=trace, protocol_config=SfrConfig(period=period), noise_max=noise)
    # Twice as fixed-rate on one workspace: the second run reads the steps of the first, if it kept any.
    workspace = Workspace()
    messages = []
    for fixed_rate in (True, True, False):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape as an error
            if not fixed_rate:
                _without_fixed_rate(mp)
            with pytest.raises(ValueError, match=match) as caught:
                run(cfg, workspace)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1


# ---------------------------------------------------------------------------
# Backtracking: one array pass against the per-interval reference
# ---------------------------------------------------------------------------

# Fix coordinates and velocities with signed zeros: MADRD's report at a fix is fix + v * 0.0,
# which differs from a -0.0 fix in its sign.
_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-100.0, 100.0))


@settings(max_examples=80, deadline=None)
@given(
    gaps=st.lists(st.integers(1, 6), min_size=0, max_size=8),
    tail=st.integers(0, 4),
    dt=st.sampled_from([0.1, 0.25, 1.0]),
    coords=st.lists(st.tuples(_COORDS, _COORDS, _COORDS, _COORDS), min_size=9, max_size=9),
    predicts=st.booleans(),
    noise_max=st.sampled_from([0.0, 2.0**-460, 0.05, 0.5, 3.0]),
)
def test_backtrack_correct_matches_the_reference(gaps, tail, dt, coords, predicts, noise_max):
    steps = np.cumsum([0, *gaps])
    n = steps[-1] + 1 + tail
    times = np.arange(n) * dt
    m = steps.size
    fx, fy, vx, vy = (np.array(c[:m]) for c in zip(*coords))
    nan = np.full(m, math.nan)
    fixes = Fixes(steps, times[steps], fx, fy, nan, vx, vy, np.zeros(m, dtype=np.int8), nan)
    seg = np.diff(steps, append=n)
    if predicts:
        elapsed = times - np.repeat(times[steps], seg)
        rep_x, rep_y = madrd_predict(np.repeat(fx, seg), np.repeat(fy, seg), np.repeat(vx, seg), np.repeat(vy, seg), elapsed)
    else:
        rep_x, rep_y = np.repeat(fx, seg), np.repeat(fy, seg)
    want_x, want_y = rep_x.tolist(), rep_y.tolist()
    want_count = 0
    for k in range(m - 1):
        inner = range(steps[k] + 1, steps[k + 1])
        series = [(times[i].item(), want_x[i], want_y[i]) for i in inner]
        a = RefFix(times[steps[k]].item(), fx[k].item(), fy[k].item())
        b = RefFix(times[steps[k + 1]].item(), fx[k + 1].item(), fy[k + 1].item())
        corrected, moved = ref_backtrack_correct(a, b, series, noise_max)
        want_count += moved
        for i, (_, x, y) in zip(inner, corrected):
            want_x[i], want_y[i] = x, y

    count = backtrack_correct(times, fixes, rep_x, rep_y, noise_max)
    assert count == want_count
    assert rep_x.view(np.int64).tolist() == np.array(want_x).view(np.int64).tolist()
    assert rep_y.view(np.int64).tolist() == np.array(want_y).view(np.int64).tolist()
