"""The array kernel ``hypot_exact`` against ``math.hypot``, one element at a time, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynloc.geometry import SCRATCH_ROWS, hypot_exact

_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
# Every lane the kernel hands to math.hypot, plus the edges of the lanes it computes.
_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, _TINY / 3, _TINY, -_TINY, 2.0 * _TINY, _HUGE, -_HUGE, _HUGE / 2,
    1.0, -1.0, 0.5, math.inf, -math.inf, math.nan,
]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGES))


def mapped_hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The reference: one :func:`math.hypot` call per element."""
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)


def _assert_bitwise_equal(dx: np.ndarray, dy: np.ndarray) -> None:
    got = hypot_exact(dx, dy)
    assert got.shape == dx.shape
    assert got.view(np.int64).tolist() == mapped_hypot(dx, dy).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_FLOATS, _FLOATS), max_size=40))
def test_kernel_equals_math_hypot_in_arrays(pairs):
    dx = np.array([p[0] for p in pairs], dtype=float)
    dy = np.array([p[1] for p in pairs], dtype=float)
    _assert_bitwise_equal(dx, dy)


@settings(max_examples=300, deadline=None)
@given(x=_FLOATS, y=_FLOATS)
def test_kernel_equals_math_hypot_alone(x, y):
    _assert_bitwise_equal(np.array([x]), np.array([y]))


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=True),
    ulps=st.integers(min_value=-4, max_value=4),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_kernel_equals_math_hypot_on_near_equal_pairs(x, ulps, sign):
    y = x
    for _ in range(abs(ulps)):
        y = math.nextafter(y, math.copysign(math.inf, ulps))
    _assert_bitwise_equal(np.array([x, y, x]), np.array([y, x, sign * y]))


def test_fallback_lanes_mixed_with_computed_lanes():
    rng = np.random.default_rng(5)
    dx = rng.normal(0.0, 3.0, 64)
    dy = rng.normal(0.0, 3.0, 64)
    edges = [(0.0, 0.0), (-0.0, 0.0), (5e-324, -5e-324), (_TINY / 2, 3e-310), (math.inf, math.nan),
           (math.nan, 1.0), (-math.inf, 2.0), (_HUGE, _HUGE), (1e-320, 1.0)]
    for i, (x, y) in zip(range(3, 64, 7), edges):
        dx[i], dy[i] = x, y
    _assert_bitwise_equal(dx, dy)
    assert hypot_exact(np.array([math.nan]), np.array([math.inf]))[0] == math.inf
    assert math.isnan(hypot_exact(np.array([math.nan]), np.array([1.0]))[0])


def test_kernel_on_stock_sized_error_columns():
    # A 900 s run at dt = 0.1 measures 9,001 steps; errors span noise-sized to area-sized.
    rng = np.random.default_rng(11)
    dx = rng.normal(0.0, 1.0, 9001) * 10.0 ** rng.uniform(-3, 2.5, 9001)
    dy = rng.normal(0.0, 1.0, 9001) * 10.0 ** rng.uniform(-3, 2.5, 9001)
    _assert_bitwise_equal(dx, dy)


def test_kernel_on_empty_columns():
    assert hypot_exact(np.empty(0), np.empty(0)).shape == (0,)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.lists(st.lists(st.tuples(_FLOATS, _FLOATS), max_size=40), min_size=1, max_size=6),
    spare=st.integers(min_value=0, max_value=5),
    garbage=_FLOATS,
)
def test_kernel_with_a_reused_scratch_block_equals_a_fresh_call(columns, spare, garbage):
    # One oversized block, garbage-filled, then left holding each call's intermediates
    # for the next call, over columns that grow and shrink.
    scratch = np.full((SCRATCH_ROWS, max(map(len, columns)) + spare), garbage)
    for pairs in columns:
        dx = np.array([p[0] for p in pairs], dtype=float)
        dy = np.array([p[1] for p in pairs], dtype=float)
        got = hypot_exact(dx, dy, scratch)
        assert not np.shares_memory(got, scratch)
        assert got.view(np.int64).tolist() == hypot_exact(dx, dy).view(np.int64).tolist()


@pytest.mark.parametrize(
    "scratch",
    [np.empty((SCRATCH_ROWS, 2)), np.empty((SCRATCH_ROWS - 1, 3)), np.empty(SCRATCH_ROWS * 3),
     np.empty((SCRATCH_ROWS, 3), dtype=np.float32)],
    ids=["narrow", "short", "flat", "float32"],
)
def test_kernel_rejects_a_scratch_block_that_does_not_fit(scratch):
    with pytest.raises(ValueError, match="scratch"):
        hypot_exact(np.ones(3), np.ones(3), scratch)
