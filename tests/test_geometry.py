from __future__ import annotations

import math

import numpy as np
import pytest

from dynloc.engine import _NOISE_CHUNK
from dynloc.geometry import (
    LocalizationSample,
    NoiseModel,
    Position,
    distance,
    draw_fix_noise,
    draw_fix_offsets,
    localize,
    threshold_accuracy,
)


def test_distance_cases():
    assert distance(Position(0, 0), Position(3, 4)) == pytest.approx(5.0)
    assert distance(Position(3, 4), Position(0, 0)) == pytest.approx(5.0)
    assert distance(Position(1.5, -2.0), Position(1.5, -2.0)) == 0.0


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position(0.0, float("inf"))


def test_sample_rejects_negative_time():
    with pytest.raises(ValueError):
        LocalizationSample(-0.1, Position(0, 0))


def test_noise_model_rejects_negative_magnitude():
    with pytest.raises(ValueError):
        NoiseModel(-0.5)


def test_localize_zero_noise_is_exact():
    rng = np.random.default_rng(42)
    true_pos = Position(12.25, -3.5)
    sample = localize(true_pos, NoiseModel(0.0), rng, t=1.5)
    assert sample.measured == true_pos
    assert sample.t == 1.5


def test_localize_never_exceeds_max_magnitude():
    rng = np.random.default_rng(7)
    noise = NoiseModel(0.5)
    true_pos = Position(100.0, 100.0)
    for _ in range(100_000):
        sample = localize(true_pos, noise, rng)
        assert distance(sample.measured, true_pos) <= noise.max_magnitude


def test_localize_mean_displacement_matches_uniform_magnitude():
    # The magnitude is uniform on [0, max), so the mean displacement is max/2.
    # One array call draws the stream that localize reads one fix at a time
    # (see test_batched_fix_noise_replays_the_scalar_draws).
    draws = draw_fix_noise(NoiseModel(0.5), np.random.default_rng(123), 1_000_000)
    assert draws[:, 0].mean() == pytest.approx(0.25, abs=0.01)


def test_localize_is_seed_deterministic():
    noise = NoiseModel(0.5)
    true_pos = Position(5.0, 5.0)
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    first = [localize(true_pos, noise, rng_a).measured for _ in range(50)]
    second = [localize(true_pos, noise, rng_b).measured for _ in range(50)]
    assert first == second


@pytest.mark.parametrize("max_magnitude", [0.0, 0.5, 3.0])
def test_batched_fix_noise_replays_the_scalar_draws(max_magnitude):
    # The reference stream: two scalar draws per fix, magnitude first, then angle.
    count = 2 * _NOISE_CHUNK + 5
    scalar = np.random.default_rng(31)
    expected = [[scalar.uniform(0.0, max_magnitude), scalar.uniform(0.0, 2.0 * math.pi)] for _ in range(count)]
    noise = NoiseModel(max_magnitude)

    def hexed(rows):
        return [[v.hex() for v in row] for row in rows]

    assert hexed(draw_fix_noise(noise, np.random.default_rng(31), count).tolist()) == hexed(expected)
    rng = np.random.default_rng(31)
    split = draw_fix_noise(noise, rng, _NOISE_CHUNK).tolist() + draw_fix_noise(noise, rng, count - _NOISE_CHUNK).tolist()
    assert hexed(split) == hexed(expected)

    # draw_fix_offsets turns the same rows into displacements with math.cos/math.sin.
    offsets = [(m * math.cos(a), m * math.sin(a)) for m, a in expected]
    assert hexed(draw_fix_offsets(noise, np.random.default_rng(31), count)) == hexed(offsets)

    # localize takes one row per call from the same stream.
    rng = np.random.default_rng(31)
    fixes = [localize(Position(7.0, -2.5), noise, rng).measured for _ in range(count)]
    assert fixes == [Position(7.0 + m * math.cos(a), -2.5 + m * math.sin(a)) for m, a in expected]


def test_distance_triangle_inequality():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        pts = [Position(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(3)]
        a, b, c = pts
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


def test_threshold_accuracy_half_within():
    assert threshold_accuracy([1.0, 2.0, 10.0, 20.0], 5.0) == pytest.approx(0.5)


def test_threshold_accuracy_boundary_counts_as_accurate():
    assert threshold_accuracy([5.0, 5.0, 6.0], 5.0) == pytest.approx(2 / 3)


def test_threshold_accuracy_rejects_empty():
    with pytest.raises(ValueError):
        threshold_accuracy([], 5.0)


def test_threshold_accuracy_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        threshold_accuracy([1.0], -1.0)
