"""The array kernel ``hypot_exact`` against ``math.hypot``, one element at a time, bit for bit.

Also the two kernels that call it only where its value is read: ``hypot_runs``
(once per run of equal lanes) and ``count_beyond`` (only lanes near a bound).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynloc.geometry import SCRATCH_ROWS, count_beyond, hypot_exact, hypot_runs

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


# ---------------------------------------------------------------------------
# Lanes that decide a value: hypot_runs and count_beyond
# ---------------------------------------------------------------------------

@st.composite
def _runs_of_lanes(draw):
    """Columns made of runs of one (dx, dy); a zero in a run takes either sign lane by lane."""
    runs = draw(st.lists(st.tuples(_FLOATS, _FLOATS, st.integers(1, 8)), max_size=12))
    signs = draw(st.integers(0, 2**192 - 1))  # two bits per lane: flip the sign of a zero dx, dy
    dx, dy = [], []
    for x, y, length in runs:
        for _ in range(length):
            dx.append(-x if signs & 1 and x == 0.0 else x)
            dy.append(-y if signs & 2 and y == 0.0 else y)
            signs >>= 2
    return np.array(dx, dtype=float), np.array(dy, dtype=float)


@settings(max_examples=100, deadline=None)
@given(columns=_runs_of_lanes())
def test_run_compressed_hypot_equals_hypot_exact(columns):
    # Mostly repeated lanes, so both the compressed path and the direct one (few repeats) are taken.
    dx, dy = columns
    got = hypot_runs(dx, dy, np.empty((SCRATCH_ROWS, dx.size)))
    assert got.view(np.int64).tolist() == mapped_hypot(dx, dy).view(np.int64).tolist()


# 0, 2**-460, 1e300 and limits below about 2**-511 (where the squares near the limit are
# subnormal) put limit**2 outside [2**-900, inf), so every lane goes through hypot_exact.
_LIMITS = st.one_of(
    st.sampled_from([0.0, 2.0**-460, 0.5, 1e300]), st.floats(2.0**-449, 1e150), st.floats(2.0**-545, 2.0**-515)
)
# Lanes on, or a few ulps off, the circle of radius limit, and exact boundary hits.
_ON_CIRCLE = st.tuples(st.floats(0.0, 2.0 * math.pi), st.integers(-3, 3))
_BOUNDARY = [(0.3, 0.4), (-0.4, 0.3), (0.0, -0.0), (-0.0, 0.0), (5e-324, -5e-324), (_TINY / 3, 0.0),
             (1e200, 1.0), (1e200, 1e200), (math.inf, 0.5), (math.inf, math.nan), (math.nan, 0.0)]


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=120, deadline=None)
@given(limit=_LIMITS, pairs=st.lists(st.tuples(_FLOATS, _FLOATS), max_size=20),
       on_circle=st.lists(_ON_CIRCLE, max_size=20))
def test_count_beyond_equals_the_hypot_exact_count(limit, pairs, on_circle):
    lanes = [*pairs, *_BOUNDARY, (0.6 * limit, 0.8 * limit), (limit, 0.0), (-0.0, -limit)]
    lanes += [(_nudged(limit * math.cos(a), ulps), limit * math.sin(a)) for a, ulps in on_circle]
    dx = np.array([p[0] for p in lanes], dtype=float)
    dy = np.array([p[1] for p in lanes], dtype=float)
    want = int(np.count_nonzero(mapped_hypot(dx, dy) > limit))
    assert want == int(np.count_nonzero(hypot_exact(dx, dy) > limit))
    assert count_beyond(dx, dy, limit) == want
    assert count_beyond(dx, dy, limit, np.full((SCRATCH_ROWS, dx.size + 1), math.nan)) == want


@pytest.mark.parametrize("limit", [1.2345e-160, 2.0**-449, 0.05, 0.5, 3.0, 1e150, 2.0**511])
def test_count_beyond_on_many_lanes_near_the_limit(limit):
    # 4,000 lanes within a few ulps of the circle of radius limit, where a plain squared test errs;
    # 1.2345e-160 squares into the subnormals, where the test must not be trusted at all.
    rng = np.random.default_rng(17)
    angle = rng.uniform(0.0, 2.0 * math.pi, 4000)
    dx, dy = limit * np.cos(angle), limit * np.sin(angle)
    for _ in range(3):
        nudge = rng.integers(-1, 2, dx.size)
        dx = np.where(nudge == 0, dx, np.nextafter(dx, np.copysign(math.inf, nudge)))
    want = int(np.count_nonzero(mapped_hypot(dx, dy) > limit))
    assert 0 < want < dx.size
    assert count_beyond(dx, dy, limit) == want


@pytest.mark.parametrize(("x", "y", "limit"), [(0.3, 0.4, 0.5), (0.03, 0.04, 0.05), (0.6, 0.8, 1.0)])
def test_count_beyond_on_an_exact_boundary_hit(x, y, limit):
    # math.hypot lands on the limit itself, whether or not the rounded squares agree
    # (0.03**2 + 0.04**2 rounds below 0.05**2): the lane is not beyond.  The first
    # larger x that math.hypot puts past the limit is.
    assert math.hypot(x, y) == limit
    wider = math.nextafter(x, 1.0)
    while math.hypot(wider, y) <= limit:
        wider = math.nextafter(wider, 1.0)
    assert count_beyond(np.array([x, -x, wider]), np.array([y, -y, y]), limit) == 1
