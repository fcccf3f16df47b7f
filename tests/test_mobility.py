from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynloc import mobility
from dynloc.mobility import (
    MAX_GRID_STEPS,
    MOBILITY_MODELS,
    MobilityTrace,
    TraceSpec,
    export_trace,
    generate_gauss_markov,
    generate_random_waypoint,
    import_trace,
    import_traces,
    trace_from_waypoints,
)

from scenario_tools import time_limit, trace_spec


def _rwp(seed: int, **given) -> MobilityTrace:
    return generate_random_waypoint(trace_spec(**given), np.random.default_rng(seed))


def _gm(seed: int, **given) -> MobilityTrace:
    return generate_gauss_markov(trace_spec(mobility="gauss_markov", **given), np.random.default_rng(seed))


def _step_speeds(trace: MobilityTrace) -> np.ndarray:
    return np.hypot(np.diff(trace.xs), np.diff(trace.ys)) / trace.dt


# ---------------------------------------------------------------------------
# Random waypoint
# ---------------------------------------------------------------------------


def test_rwp_sample_count_and_grid():
    trace = _rwp(1, duration=900.0, dt=0.1)
    assert len(trace) == 9001
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(900.0)


def test_rwp_stays_in_bounds_and_under_speed_cap():
    trace = _rwp(2, speed_class=(4.0, 5.0), pause_time=0.0)
    assert trace.xs.min() >= 0.0 and trace.xs.max() <= 300.0
    assert trace.ys.min() >= 0.0 and trace.ys.max() <= 300.0
    speeds = _step_speeds(trace)
    assert speeds.max() <= 5.0 + 1e-9
    # Only steps crossing a waypoint dip below the per-leg floor.
    assert np.count_nonzero(speeds >= 4.0 - 1e-9) >= 0.99 * speeds.size


def test_rwp_constant_speed_when_limits_coincide():
    trace = _rwp(3, speed_class=(5.0, 5.0), pause_time=0.0, duration=120.0)
    speeds = _step_speeds(trace)
    exact = np.isclose(speeds, 5.0, rtol=0, atol=1e-9)
    # Between waypoints every displacement is exactly speed*dt.
    assert np.count_nonzero(exact) >= 0.98 * speeds.size
    assert speeds.max() <= 5.0 + 1e-9


def test_rwp_pause_whole_run_freezes_after_first_leg():
    trace = _rwp(4, pause_time=900.0, duration=900.0)
    final = (trace.xs[-1], trace.ys[-1])
    arrived = np.flatnonzero(np.isclose(trace.xs, final[0]) & np.isclose(trace.ys, final[1]))
    first = arrived[0]
    assert first < len(trace) - 1
    assert np.all(trace.xs[first:] == trace.xs[first])
    assert np.all(trace.ys[first:] == trace.ys[first])


def test_rwp_pause_holds_position_constant():
    trace = _rwp(5, pause_time=30.0, duration=300.0)
    speeds = _step_speeds(trace)
    # A 30 s pause at dt=0.1 shows up as runs of ~300 zero-speed steps.
    assert np.count_nonzero(speeds < 1e-12) >= 250


def test_rwp_deterministic_per_seed():
    a = _rwp(42)
    b = _rwp(42)
    c = _rwp(43)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.xs, c.xs)


# Each stock class's trace count and the relative tolerance of its time-averaged moving speed: the
# largest deviation seen with as many traces at 19 other seed bases (1000, 2000, ..., 19000), rounded
# up: 4.64%, 0.56% and 0.13%.  Only 8:10's tolerance tells the law from the class's midpoint (a + b) / 2,
# 0.41% above it; 0.5:1's legs are long, so a 900 s trace holds few of them, and its midpoint lies 4.0%
# above the law, inside its 5%.
_RWP_SPEED_TOLERANCES = {(0.5, 1.0): (40, 0.05), (4.0, 5.0): (40, 0.007), (8.0, 10.0): (160, 0.002)}


@pytest.mark.parametrize("speed_class, traces, rel", [(c, *t) for c, t in _RWP_SPEED_TOLERANCES.items()],
                         ids=["0.5:1", "4:5", "8:10"])
def test_rwp_time_averaged_speed_is_the_logarithmic_mean_of_its_class(speed_class, traces, rel):
    # A leg's speed is drawn uniformly from [a, b], but a leg at speed v lasts in proportion to 1/v,
    # so the time-averaged speed is (b - a) / ln(b / a) (Yoon, Liu and Noble, "Random Waypoint
    # Considered Harmful", INFOCOM 2003): 0.721, 4.481 and 8.963 m/s.  Stock-length traces at pause
    # 0, seeds 0 up; a step whose speed differs from the step before (a waypoint falls inside it, or
    # just before) is left out, as it cuts a corner.  The three classes take about 0.15 s.
    a, b = speed_class
    leg_speeds = [_step_speeds(_rwp(seed, speed_class=speed_class, pause_time=0.0)) for seed in range(traces)]
    speed = np.mean([s[1:][np.isclose(s[1:], s[:-1], rtol=1e-9, atol=0)].mean() for s in leg_speeds])
    assert speed == pytest.approx((b - a) / math.log(b / a), rel=rel)


# ---------------------------------------------------------------------------
# Gauss-Markov
# ---------------------------------------------------------------------------


def test_gauss_markov_full_memory_is_straight_line():
    trace = _gm(
        11, area_w=10_000.0, area_h=10_000.0, speed_class=(4.0, 5.0),
        gm_memory=1.0, gm_speed_sigma=0.0, gm_direction_sigma=0.0, duration=20.0, dt=0.1,
    )
    dx = np.diff(trace.xs)
    dy = np.diff(trace.ys)
    assert np.allclose(dx, dx[0], atol=1e-9)
    assert np.allclose(dy, dy[0], atol=1e-9)
    assert math.hypot(dx[0], dy[0]) == pytest.approx(0.45)


def test_gauss_markov_zero_memory_draws_independently():
    trace = _gm(
        12, area_w=100_000.0, area_h=100_000.0, speed_class=(4.0, 5.0),
        gm_memory=0.0, gm_speed_sigma=0.5, gm_direction_sigma=0.3, duration=1000.0, dt=0.1,
    )
    speeds = _step_speeds(trace)
    lag1 = np.corrcoef(speeds[:-1], speeds[1:])[0, 1]
    assert abs(lag1) < 0.05
    assert speeds.mean() == pytest.approx(4.5, rel=0.05)


def test_gauss_markov_long_run_mean_speed():
    trace = _gm(13, duration=10_000.0, dt=0.1)  # 1e5 steps, defaults otherwise
    speeds = _step_speeds(trace)
    assert speeds.mean() == pytest.approx(4.5, rel=0.10)  # the midpoint of the 4-5 m/s class


def test_gauss_markov_respects_bounds():
    trace = _gm(14, duration=600.0)
    assert trace.xs.min() >= 0.0 and trace.xs.max() <= 300.0
    assert trace.ys.min() >= 0.0 and trace.ys.max() <= 300.0


def test_gauss_markov_deterministic_per_seed():
    a = _gm(21, duration=60.0)
    b = _gm(21, duration=60.0)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def _scalar_draw_gauss_markov(spec: TraceSpec, rng: np.random.Generator, n: int):
    """``n`` samples of the Gauss-Markov recurrence drawing one normal at a time."""
    x, y = rng.uniform(0.0, spec.area_w), rng.uniform(0.0, spec.area_h)
    xs, ys = [x], [y]
    mean_speed = (spec.speed_class[0] + spec.speed_class[1]) / 2.0
    speed = mean_speed
    heading = mean_heading = rng.uniform(0.0, 2.0 * math.pi)
    m = spec.gm_memory
    drift = math.sqrt(max(0.0, 1.0 - m * m))
    for _ in range(1, n):
        speed = m * speed + (1.0 - m) * mean_speed + drift * spec.gm_speed_sigma * rng.standard_normal()
        heading = m * heading + (1.0 - m) * mean_heading + drift * spec.gm_direction_sigma * rng.standard_normal()
        speed = max(0.0, speed)
        x += speed * spec.dt * math.cos(heading)
        y += speed * spec.dt * math.sin(heading)
        while not (0.0 <= x <= spec.area_w and 0.0 <= y <= spec.area_h):
            if x < 0.0 or x > spec.area_w:
                x = -x if x < 0.0 else 2.0 * spec.area_w - x
                heading = math.pi - heading
                mean_heading = math.pi - mean_heading
            if y < 0.0 or y > spec.area_h:
                y = -y if y < 0.0 else 2.0 * spec.area_h - y
                heading = -heading
                mean_heading = -mean_heading
        xs.append(x)
        ys.append(y)
    return xs, ys


def _assert_same_bits(trace: MobilityTrace, xs: list[float], ys: list[float]) -> None:
    # int64 views, so a -0.0 against 0.0 (or any other one-bit difference) fails.
    assert np.array_equal(trace.xs.view(np.int64), np.array(xs).view(np.int64))
    assert np.array_equal(trace.ys.view(np.int64), np.array(ys).view(np.int64))


@pytest.mark.parametrize(
    "given",
    [
        {"duration": 60.0},
        {"duration": 30.0, "gm_memory": 0.0},
        {"area_w": 20.0, "area_h": 20.0, "speed_class": (30.0, 30.0), "gm_speed_sigma": 5.0,
         "gm_direction_sigma": 2.0, "duration": 20.0, "dt": 0.3},
        # Floor-heavy: the speed floor fires on about half the steps.
        {"speed_class": (0.01, 0.01), "gm_speed_sigma": 3.0, "duration": 30.0},
        # Full memory: every kick is a signed zero, so the speed never moves off the midpoint.
        {"gm_memory": 1.0, "duration": 30.0},
    ],
    ids=[f"cfg{i}" for i in range(5)],
)
def test_gauss_markov_batched_draws_match_scalar_stream(given):
    spec = trace_spec(mobility="gauss_markov", **given)
    for seed in range(5):
        trace = generate_gauss_markov(spec, np.random.default_rng(seed))
        xs, ys = _scalar_draw_gauss_markov(spec, np.random.default_rng(seed), len(trace))
        _assert_same_bits(trace, xs, ys)


@settings(max_examples=150, deadline=None)
@given(
    memory=st.floats(0.0, 1.0),
    # Near-zero classes keep the speed floor busy.
    speed_class=st.lists(st.floats(1e-9, 5.0), min_size=2, max_size=2).map(sorted).map(tuple),
    speed_sigma=st.floats(0.0, 3.0),
    direction_sigma=st.floats(0.0, 3.0),
    area_w=st.floats(1.0, 5.0),
    area_h=st.floats(1.0, 5.0),
    duration=st.floats(0.1, 30.0),
    dt=st.sampled_from([0.1, 0.25, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gauss_markov_matches_the_scalar_spec_bit_for_bit(
    memory, speed_class, speed_sigma, direction_sigma, area_w, area_h, duration, dt, seed
):
    spec = trace_spec(
        mobility="gauss_markov", area_w=area_w, area_h=area_h, speed_class=speed_class, gm_memory=memory,
        gm_speed_sigma=speed_sigma, gm_direction_sigma=direction_sigma, duration=duration, dt=dt,
    )
    trace = generate_gauss_markov(spec, np.random.default_rng(seed))
    xs, ys = _scalar_draw_gauss_markov(spec, np.random.default_rng(seed), len(trace))
    _assert_same_bits(trace, xs, ys)


class _ScriptedRng:
    """Replays fixed uniform and normal draws, batched or one at a time."""

    def __init__(self, uniforms: list[float], normals: list[float]) -> None:
        self._uniforms = iter(uniforms)
        self._normals = list(normals)

    def uniform(self, lo: float, hi: float) -> float:
        return next(self._uniforms)

    def standard_normal(self, size=None):
        if size is None:
            return self._normals.pop(0)
        count = int(np.prod(size))
        drawn, self._normals = self._normals[:count], self._normals[count:]
        return np.array(drawn).reshape(size)


def test_gauss_markov_floors_a_nan_speed_to_zero_like_max():
    # max(0.0, nan) is 0.0, so a NaN speed kick stops the node for one step
    # and the walk goes on.  A floor that kept NaN would move the node to a
    # NaN position, which no wall test rejects, so the reflection loop would
    # never end: hence the time limit.  Normals come in (speed, heading) pairs.
    spec = trace_spec(mobility="gauss_markov", area_w=50.0, area_h=50.0, gm_memory=0.5, duration=0.4, dt=0.1)
    normals = [0.3, 0.1, math.nan, -0.2, -0.0, 0.4, 1.0, 0.0]
    uniforms = [20.0, 30.0, 1.0]
    with time_limit(5.0):
        trace = generate_gauss_markov(spec, _ScriptedRng(uniforms, normals))
    xs, ys = _scalar_draw_gauss_markov(spec, _ScriptedRng(uniforms, normals), len(trace))
    _assert_same_bits(trace, xs, ys)
    assert (trace.xs[2], trace.ys[2]) == (trace.xs[1], trace.ys[1])
    assert trace.xs[3] != trace.xs[2]


@pytest.mark.parametrize("field", ["pause_time", "duration", "dt", "area_w"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_mobility_configs_reject_non_finite_fields(field, value):
    for mobility in MOBILITY_MODELS:
        with pytest.raises(ValueError, match=f"fields? '{field}'"):
            trace_spec(mobility=mobility, **{field: value})


@pytest.mark.parametrize(
    "given, field",
    [
        ({"mobility": "teleport"}, "mobility"),
        ({"speed_class": (5.0, 4.0)}, "speed_class"),
        ({"speed_class": (0.0, 4.0)}, "speed_class"),
        ({"speed_class": (4.0, math.inf)}, "speed_class"),
        ({"pause_time": -1.0}, "pause_time"),
        ({"duration": 0.0}, "duration"),
        ({"dt": -0.1}, "dt"),
        ({"area_h": 0.0}, "area_w'/'area_h"),
        ({"seed": -1}, "seed"),
    ],
)
def test_trace_spec_rejects_a_bad_field_naming_it(given, field):
    with pytest.raises(ValueError, match=f"fields? '{field}'"):
        trace_spec(**given)


@pytest.mark.parametrize(
    "field, value",
    [("gm_memory", 2.0), ("gm_memory", -0.1), ("gm_memory", math.nan), ("gm_speed_sigma", -1.0),
     ("gm_speed_sigma", math.inf), ("gm_direction_sigma", math.nan)],
)
def test_trace_spec_checks_the_gauss_markov_fields_of_a_gauss_markov_trace_only(field, value):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        trace_spec(mobility="gauss_markov", **{field: value})
    # A random-waypoint trace does not read them.
    spec = trace_spec(mobility="rwp", duration=10.0, **{field: value})
    stock = generate_random_waypoint(trace_spec(duration=10.0), np.random.default_rng(5))
    assert generate_random_waypoint(spec, np.random.default_rng(5)).content_hash() == stock.content_hash()


def test_a_trace_spans_fewer_than_max_grid_steps():
    # The stock trace has 9,001 samples; the cap is checked before any sample is made.
    assert MAX_GRID_STEPS >= 100 * 9_001
    trace_spec(duration=(MAX_GRID_STEPS - 2) * 0.1)
    for given in ({"duration": (MAX_GRID_STEPS + 1) * 0.1}, {"dt": 900.0 / (MAX_GRID_STEPS + 1)}, {"dt": 1e-300}):
        with pytest.raises(ValueError, match="fields 'duration'/'dt': .* grid steps, over"):
            trace_spec(**given)
    with pytest.raises(ValueError, match="fields 'duration'/'dt'"):
        trace_from_waypoints([(0.0, 0.0, 0.0), (MAX_GRID_STEPS * 0.1, 1.0, 1.0)], 0.1, 10.0, 10.0)
    with pytest.raises(ValueError, match="field 'duration'"):
        trace_from_waypoints([(0.0, 0.0, 0.0)], 0.1, 10.0, 10.0, duration=-1.0)


@pytest.mark.parametrize(
    "given",
    [{"speed_class": (1e12, 1e12)}, {"area_w": 1e-300, "area_h": 1e-300}, {"area_w": 1e-3, "area_h": 1e-3},
     {"speed_class": (1e308, 1e308), "area_w": 1e-300, "area_h": 1e-300}],
    ids=["fast", "tiny_area", "many_legs", "zero_leg_time"],
)
def test_random_waypoint_refuses_more_legs_than_a_trace_may_have_samples(given):
    # The spec refuses them when it is built, before a generator sees it; Gauss-Markov draws no legs.
    with time_limit(5.0), pytest.raises(ValueError, match="fields 'speed_class'/'area_w'/'area_h': .* legs"):
        trace_spec(**given)
    assert trace_spec(mobility="gauss_markov", **given).mobility == "gauss_markov"
    # A pause long enough covers the duration in few legs, however tiny the area.
    if "speed_class" not in given:
        assert len(_rwp(1, **given, pause_time=30.0, duration=100.0)) == 1001


@pytest.mark.parametrize(
    "given",
    [{"speed_class": (1e12, 1e12)}, {"gm_speed_sigma": 1e12}, {"area_w": 1e-300, "area_h": 1e-300}, {"area_w": 1e-300}],
    ids=["fast", "wild_speed", "tiny_area", "tiny_width"],
)
def test_gauss_markov_bounds_the_reflections_of_one_step(given):
    fields = "fields 'speed_class'/'gm_speed_sigma'/'area_w'/'area_h': .* after 64 passes"
    with time_limit(5.0), pytest.raises(ValueError, match=fields):
        _gm(1, **given)


# ---------------------------------------------------------------------------
# Trace container
# ---------------------------------------------------------------------------


def test_trace_derives_read_only_times_from_its_sample_count_and_dt():
    trace = MobilityTrace(0, np.zeros(4), np.zeros(4), 0.1, 300, 300)
    assert trace.times.view(np.int64).tolist() == (np.arange(4.0) * 0.1).view(np.int64).tolist()
    assert not trace.times.flags.writeable
    with pytest.raises(TypeError):
        MobilityTrace(0, np.zeros(4), np.zeros(4), 0.1, 300, 300, times=np.arange(4.0))


def test_trace_rejects_out_of_bounds():
    with pytest.raises(ValueError, match="bounds"):
        MobilityTrace(0, np.array([0.0, 301.0]), np.zeros(2), 0.1, 300, 300)


@pytest.mark.parametrize(
    "xs, ys",
    [([0.0, -1e-6], [0.0, 0.0]), ([300.0, 300.000001], [0.0, 0.0]), ([0.0, 0.0], [-1e-6, 0.0]),
     ([0.0, 0.0], [5.0, 200.000001])],
    ids=["left", "right", "bottom", "top"],
)
def test_trace_rejects_a_sample_past_any_edge(xs, ys):
    with pytest.raises(ValueError, match="bounds"):
        MobilityTrace(0, np.array(xs), np.array(ys), 0.1, 300, 200)
    # Inside the edge's 1e-9 tolerance the same sample is accepted.
    inside = [min(max(v, 0.0), 300.0) for v in xs], [min(max(v, 0.0), 200.0) for v in ys]
    MobilityTrace(0, np.array(inside[0]), np.array(inside[1]), 0.1, 300, 200)


@pytest.mark.parametrize("area_w, area_h", [(math.nan, 300.0), (300.0, math.nan), (0.0, 300.0), (300.0, -1.0)])
def test_trace_rejects_an_area_that_is_not_positive(area_w, area_h):
    with pytest.raises(ValueError, match="fields 'area_w'/'area_h': must be finite and > 0"):
        MobilityTrace(0, np.zeros(2), np.zeros(2), 0.1, area_w, area_h)


def test_content_hash_tracks_content():
    a = trace_from_waypoints([(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)], 1.0, 300, 300)
    b = trace_from_waypoints([(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)], 1.0, 300, 300)
    c = trace_from_waypoints([(0.0, 0.0, 0.0), (10.0, 10.0, 5.0)], 1.0, 300, 300)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


# ---------------------------------------------------------------------------
# Waypoint text format
# ---------------------------------------------------------------------------


def test_import_simple_leg():
    trace = import_trace("0 0 0 10 10 0\n", 1.0, 300, 300)
    assert len(trace) == 11
    assert np.allclose(trace.xs, np.arange(11.0))
    assert np.allclose(trace.ys, 0.0)


def test_import_holds_before_first_and_after_duration():
    trace = import_trace("2 5 5 4 9 5\n", 1.0, 300, 300, duration=6.0)
    assert trace.xs[0] == pytest.approx(5.0)  # held before the first waypoint
    assert trace.xs[-1] == pytest.approx(9.0)  # held after the last one
    assert len(trace) == 7


def test_import_multiple_nodes():
    text = "0 0 0 10 10 0\n0 5 5 10 5 15\n"
    traces = import_traces(text, 1.0, 300, 300)
    assert [t.node_id for t in traces] == [0, 1]
    assert traces[1].ys[-1] == pytest.approx(15.0)
    assert import_trace(text, 1.0, 300, 300, node_id=1).ys[-1] == pytest.approx(15.0)


def test_import_node_out_of_range():
    with pytest.raises(ValueError, match="node_id"):
        import_trace("0 0 0 10 10 0\n", 1.0, 300, 300, node_id=3)


def test_import_reports_line_number_for_bad_field_count():
    with pytest.raises(ValueError, match="line 2"):
        import_traces("0 0 0 10 10 0\n0 0\n", 1.0, 300, 300)


def test_import_reports_line_number_for_non_numeric():
    with pytest.raises(ValueError, match="line 1"):
        import_traces("0 zero 0\n", 1.0, 300, 300)


def test_import_rejects_non_monotonic_times():
    with pytest.raises(ValueError, match="increasing"):
        import_traces("0 0 0 5 5 0 3 9 0\n", 1.0, 300, 300)


def test_import_rejects_out_of_area_waypoints():
    with pytest.raises(ValueError, match="area"):
        import_traces("0 0 0 10 500 0\n", 1.0, 300, 300)


@pytest.mark.parametrize("dt", [-1.0, 0.0, math.inf, math.nan])
@pytest.mark.parametrize("text", ["0 0 0 10 5 5\n", "0 zero 0\n"])
def test_import_checks_dt_before_any_line(text, dt):
    # A bad dt is the flag's fault, not a waypoint line's: the message names dt and no line.
    with pytest.raises(ValueError, match=r"^field 'dt': must be finite and > 0") as exc:
        import_traces(text, dt, 300, 300)
    assert "line" not in str(exc.value)


def test_import_rejects_empty_source():
    with pytest.raises(ValueError, match="no waypoint"):
        import_traces("\n# comment only\n", 1.0, 300, 300)


# Each refusal of a waypoint line, word for word.  On a line with two problems the first bad
# triple decides, and within one triple a non-numeric field outranks a non-finite one.
_LINE_REFUSALS = {
    "field-count": ("0 0 0 10 10 0\n0 0\n", "line 2: expected 't x y' triples, got 2 fields"),
    "non-numeric": ("0 zero 0\n", "line 1: non-numeric field near '0'"),
    "non-finite": ("0 1 1 1 1e309 1\n", "line 1: waypoint fields must be finite"),
    "non-finite-then-non-numeric": ("0 inf 0 5 x 5\n", "line 1: waypoint fields must be finite"),
    "non-numeric-then-non-finite": ("0 1 x 5 inf 5\n", "line 1: non-numeric field near '0'"),
    "both-in-one-triple": ("0 0 0 5 inf x\n", "line 1: non-numeric field near '5'"),
    # A field is read by oracles.number, which refuses a digit-group "_" and non-ASCII digits that float() reads.
    "digit-group": ("0 1_0 5 2 2_0 5\n", "line 1: non-numeric field near '0'"),
    "non-ascii-digits": ("0 \u0661\u0660 5 2 20 5\n", "line 1: non-numeric field near '0'"),
    "non-finite-then-digit-group": ("0 inf 0 5 1_0 5\n", "line 1: waypoint fields must be finite"),
    "decreasing": ("# c\n\n0 0 0 5 5 0 3 9 0\n", "line 3: waypoint times must be strictly increasing"),
    "negative-time": ("-1 1 1 2 2 2\n", "line 1: waypoint times must be >= 0"),
    "outside-area": ("0 0 0 10 500 0\n", "line 1: waypoints must lie within the 300.0x300.0 area"),
}


@pytest.mark.parametrize("text, message", list(_LINE_REFUSALS.values()), ids=list(_LINE_REFUSALS))
def test_a_refused_line_is_named_once_and_survives_pickle(text, message):
    with pytest.raises(ValueError) as refused:
        import_traces(text, 1.0, 300.0, 300.0)
    assert (type(refused.value), str(refused.value)) == (ValueError, message)
    back = pickle.loads(pickle.dumps(refused.value))
    assert (type(back), str(back)) == (ValueError, message)


def test_a_waypoint_line_reads_into_one_k_by_3_array():
    waypoints = mobility._parse_waypoint_line("0 1 2  3 4 5\t6 7 8")
    assert waypoints.shape == (3, 3) and waypoints.dtype == float
    assert waypoints.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]
    from_array = trace_from_waypoints(waypoints, 0.5, 300.0, 300.0)
    from_list = trace_from_waypoints(waypoints.tolist(), 0.5, 300.0, 300.0)
    assert from_array.content_hash() == from_list.content_hash()


@pytest.mark.parametrize("waypoints", [[(0.0, 1.0)], [(0.0, 1.0, 2.0, 3.0)], [0.0, 1.0, 2.0], np.zeros((2, 3, 1))])
def test_trace_from_waypoints_refuses_anything_but_k_triples(waypoints):
    with pytest.raises(ValueError, match=r"^waypoints must be \(t, x, y\) triples, got an array of shape \("):
        trace_from_waypoints(waypoints, 1.0, 300.0, 300.0)


def test_export_import_round_trip_bit_exact():
    trace = _rwp(31, duration=60.0)
    text = "".join(export_trace(trace))
    back = import_trace(text, trace.dt, trace.area_w, trace.area_h)
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.xs, trace.xs)
    assert np.array_equal(back.ys, trace.ys)


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 0), (3, 7)])
def test_export_blocks_join_to_one_line_of_every_sample(blocks, extra):
    samples = blocks * mobility._EXPORT_TRIPLES + extra
    full = _rwp(8, duration=200.0)
    trace = MobilityTrace(0, full.xs[:samples], full.ys[:samples], full.dt, full.area_w, full.area_h)
    pieces = list(export_trace(trace))
    assert len(pieces) == -(-samples // mobility._EXPORT_TRIPLES)
    triples = (f"{t!r} {x!r} {y!r}" for t, x, y in zip(trace.times.tolist(), trace.xs.tolist(), trace.ys.tolist()))
    assert "".join(pieces) == " ".join(triples) + "\n"
