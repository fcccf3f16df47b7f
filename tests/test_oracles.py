from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from dynloc.engine import RunConfig
from dynloc.geometry import threshold_accuracy
from dynloc.mobility import MobilityTrace, TraceSpec
from dynloc.oracles import FieldError, madrd_pause_error, madrd_turn_error, sfr_pause_error, sfr_turn_error
from dynloc.protocols import SfrConfig
from scenario_tools import brute_turn_hold_error, brute_turn_predict_error


def test_sfr_turn_right_angle_is_hypotenuse():
    assert sfr_turn_error(3.0, math.pi / 2, 4.0) == pytest.approx(5.0)


def test_sfr_turn_reversal_returns_to_fix():
    assert sfr_turn_error(5.0, math.pi, 5.0) == pytest.approx(0.0, abs=1e-12)
    assert sfr_turn_error(5.0, math.pi, 2.0) == pytest.approx(3.0)


def test_sfr_turn_reversal_past_the_fix():
    # The node doubles back beyond the fix point: error is |x - n|, and the
    # formula must stay exact on the far side of the zero crossing.
    assert sfr_turn_error(5.0, math.pi, 7.5) == pytest.approx(2.5, rel=1e-12)
    assert sfr_turn_error(5.0, math.pi, 20.0) == pytest.approx(15.0, rel=1e-12)
    near_reversal = math.pi - 1e-12
    assert sfr_turn_error(5.0, near_reversal, 7.5) == pytest.approx(2.5, rel=1e-9)


def test_sfr_turn_at_turn_point():
    assert sfr_turn_error(7.5, 1.0, 0.0) == pytest.approx(7.5)


def test_sfr_turn_no_deviation_keeps_growing():
    assert sfr_turn_error(3.0, 0.0, 4.0) == pytest.approx(7.0)


def test_sfr_turn_decreasing_in_angle_up_to_right_angle():
    errors = [sfr_turn_error(4.0, a, 6.0) for a in np.linspace(0.05, math.pi / 2, 40)]
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))


def test_sfr_turn_nonlinear_in_distance_at_obtuse_angle():
    angle = 3 * math.pi / 4
    assert sfr_turn_error(4.0, angle, 8.0) != pytest.approx(2 * sfr_turn_error(4.0, angle, 4.0), rel=1e-3)


def test_madrd_turn_chord_values():
    assert madrd_turn_error(math.pi / 3, 10.0) == pytest.approx(10.0)
    assert madrd_turn_error(math.pi, 7.0) == pytest.approx(14.0)
    assert madrd_turn_error(0.7, 0.0) == 0.0


def test_madrd_turn_linear_in_distance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        angle = rng.uniform(0, 2 * math.pi)
        n = rng.uniform(0, 30)
        k = rng.uniform(0, 4)
        assert madrd_turn_error(angle, k * n) == pytest.approx(k * madrd_turn_error(angle, n), abs=1e-9)


def test_turn_formulas_match_coordinate_construction():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        x = rng.uniform(0.0, 50.0)
        angle = rng.uniform(0.0, 2 * math.pi)
        n = rng.uniform(0.0, 50.0)
        expected_hold = brute_turn_hold_error(x, angle, n)
        expected_predict = brute_turn_predict_error(angle, n)
        got_hold = sfr_turn_error(x, angle, n)
        got_predict = madrd_turn_error(angle, n)
        assert got_hold == pytest.approx(expected_hold, rel=1e-12, abs=1e-12)
        assert got_predict == pytest.approx(expected_predict, rel=1e-12, abs=1e-12)


def test_pause_errors():
    assert sfr_pause_error(5.0, 3.0) == pytest.approx(3.0)
    assert sfr_pause_error(5.0, 12.0) == pytest.approx(5.0)  # saturates at the stop
    assert madrd_pause_error(2.0, 0.0) == 0.0
    assert madrd_pause_error(2.0, 4.0) == pytest.approx(8.0)  # keeps extrapolating


def test_crossover_prefers_prediction_for_gentle_turns():
    for angle in (math.pi / 4, 0.0):
        assert madrd_turn_error(angle, 5.0) <= sfr_turn_error(3.0, angle, 5.0)


def test_crossover_prefers_hold_for_sharp_turns():
    angle = 2 * math.pi / 3
    assert madrd_turn_error(angle, 10.0) > sfr_turn_error(1.0, angle, 10.0)


def test_turn_scenario_validation():
    # Each function checks what it reads: the straight run before a turn is >= 0, and the
    # pause speed, the only speed a formula reads, is > 0.
    with pytest.raises(ValueError, match="straight_before_turn"):
        sfr_turn_error(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="speed"):
        madrd_pause_error(0.0, 1.0)


def test_error_functions_reject_negative_inputs():
    with pytest.raises(ValueError):
        sfr_turn_error(1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        madrd_turn_error(1.0, -1.0)
    with pytest.raises(ValueError):
        sfr_pause_error(1.0, -1.0)
    with pytest.raises(ValueError):
        madrd_pause_error(1.0, -1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda bad: sfr_turn_error(bad, 1.0, 1.0), "straight_before_turn"),
        (lambda bad: sfr_turn_error(1.0, 1.0, bad), "past_turn"),
        (lambda bad: madrd_turn_error(1.0, bad), "past_turn"),
        (lambda bad: sfr_pause_error(bad, 1.0), "travel_before_stop"),
        (lambda bad: sfr_pause_error(1.0, bad), "travel"),
        (lambda bad: madrd_pause_error(bad, 1.0), "speed"),
        (lambda bad: madrd_pause_error(1.0, bad), "since_pause"),
    ],
    ids=["sfr_turn_x", "sfr_turn_past", "madrd_turn_past", "sfr_pause_stop", "sfr_pause_travel",
         "madrd_pause_speed", "madrd_pause_since"],
)
@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_error_functions_name_each_bad_argument(call, name, bad):
    with pytest.raises(ValueError, match=f"^field '{name}': must"):
        call(bad)


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_turn_functions_reject_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="turn_angle"):
        sfr_turn_error(1.0, angle, 1.0)
    with pytest.raises(ValueError, match="turn_angle"):
        madrd_turn_error(angle, 1.0)



@pytest.mark.parametrize(
    "given, fields, text",
    [
        ("a", ("a",), "field 'a': bad"),
        (("a", "b"), ("a", "b"), "fields 'a'/'b': bad"),
        (("a", "b", "a"), ("a", "b"), "fields 'a'/'b': bad"),
    ],
)
def test_a_field_error_reads_as_its_fields_and_reason_and_pickles_whole(given, fields, text):
    # Pickled as a process pool's worker sends it back.
    exc = pickle.loads(pickle.dumps(FieldError(given, "bad")))
    assert type(exc) is FieldError and isinstance(exc, ValueError)
    assert (exc.fields, exc.reason, str(exc)) == (fields, "bad", text)


_TRACE = MobilityTrace(0, np.zeros(1), np.zeros(1), 0.1, 1.0, 1.0)
_GM = TraceSpec("gauss_markov", (1.0, 2.0), 0.0, 10.0, 0.1, 300.0, 300.0, 0.5, 0.5, 0.5, 0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda bad: RunConfig(_TRACE, SfrConfig(), noise_max=bad), "noise_max"),
        (lambda bad: RunConfig(_TRACE, SfrConfig(), dist_tolerance=bad), "dist_tolerance"),
        (lambda bad: dataclasses.replace(_GM, pause_time=bad), "pause_time"),
        (lambda bad: dataclasses.replace(_GM, gm_speed_sigma=bad), "gm_speed_sigma"),
        (lambda bad: dataclasses.replace(_GM, gm_direction_sigma=bad), "gm_direction_sigma"),
        (lambda bad: threshold_accuracy([1.0], bad), "tolerance"),
        (lambda bad: sfr_turn_error(bad, 1.0, 1.0), "straight_before_turn"),
    ],
)
@pytest.mark.parametrize("bad", [-1.0, -math.inf, math.inf, math.nan])
def test_every_finite_and_nonnegative_field_is_refused_in_one_wording(call, name, bad):
    with pytest.raises(FieldError) as refused:
        call(bad)
    assert (refused.value.fields, refused.value.reason) == ((name,), f"must be finite and >= 0, got {bad}")
