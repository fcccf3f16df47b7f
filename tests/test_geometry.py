from __future__ import annotations

import math

import numpy as np
import pytest

from dynloc.engine import _NOISE_CHUNK
from dynloc.geometry import hypot_exact, localize, threshold_accuracy

from scenario_tools import ref_fix_offset


def test_distance_cases():
    # hypot_exact gives the distance of each pair: symmetric, and zero from a point to itself.
    a = np.array([[0.0, 0.0], [3.0, 4.0], [1.5, -2.0]])
    b = np.array([[3.0, 4.0], [0.0, 0.0], [1.5, -2.0]])
    d = hypot_exact(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    assert d.tolist() == pytest.approx([5.0, 5.0, 0.0])
    assert d[2] == 0.0


def test_localize_zero_noise_is_exact():
    rng = np.random.default_rng(42)
    [dx], [dy] = localize(0.0, rng, 1)
    assert (12.25 + dx, -3.5 + dy) == (12.25, -3.5)


def test_localize_never_exceeds_max_magnitude():
    fix_x, fix_y = 100.0 + np.array(localize(0.5, np.random.default_rng(7), 100_000))
    assert (hypot_exact(fix_x - 100.0, fix_y - 100.0) <= 0.5).all()


def test_localize_mean_displacement_matches_uniform_magnitude():
    # The magnitude is uniform on [0, max), so the mean displacement is max/2.
    # One call draws all the fixes (see test_batched_fix_noise_replays_the_scalar_draws).
    dx, dy = localize(0.5, np.random.default_rng(123), 1_000_000)
    assert hypot_exact(np.array(dx), np.array(dy)).mean() == pytest.approx(0.25, abs=0.01)


def test_localize_is_seed_deterministic():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    first = [localize(0.5, rng_a, 1) for _ in range(50)]
    second = [localize(0.5, rng_b, 1) for _ in range(50)]
    assert first == second


@pytest.mark.parametrize("noise_max", [0.0, 0.5, 3.0])
def test_batched_fix_noise_replays_the_scalar_draws(noise_max):
    # The reference stream: two scalar draws per fix, magnitude first, then angle.
    count = 2 * _NOISE_CHUNK + 5
    scalar = np.random.default_rng(31)
    expected = [[scalar.uniform(0.0, noise_max), scalar.uniform(0.0, 2.0 * math.pi)] for _ in range(count)]

    def hexed(rows):
        return [[v.hex() for v in row] for row in rows]

    # localize turns those draws into displacements with math.cos/math.sin, in one call or split.
    offsets = [(m * math.cos(a), m * math.sin(a)) for m, a in expected]
    assert hexed(zip(*localize(noise_max, np.random.default_rng(31), count))) == hexed(offsets)
    rng = np.random.default_rng(31)
    split = [*zip(*localize(noise_max, rng, _NOISE_CHUNK)), *zip(*localize(noise_max, rng, count - _NOISE_CHUNK))]
    assert hexed(split) == hexed(offsets)

    # One fix per call reads the same stream, and so does the reference engine's scalar draw.
    rng = np.random.default_rng(31)
    assert hexed(next(zip(*localize(noise_max, rng, 1))) for _ in range(count)) == hexed(offsets)
    rng = np.random.default_rng(31)
    assert hexed(ref_fix_offset(noise_max, rng) for _ in range(count)) == hexed(offsets)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(2024)
    a, b, c = rng.uniform(-50, 50, (3, 2, 500))
    ab, bc, ac = (hypot_exact(*(p - q)) for p, q in ((a, b), (b, c), (a, c)))
    assert (ac <= ab + bc + 1e-12).all()


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
