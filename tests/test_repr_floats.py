"""The event-log float kernel ``floattext.repr_bytes`` against ``repr``, one value at a time, byte for byte."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynloc import floattext
from dynloc.floattext import repr_bytes

_TINY = float(np.finfo(float).tiny)
# Every kind of lane the kernel hands to repr, and the edges of the range it computes.
_EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, _TINY, 1e-310,
    1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0), 1e308, -1.5,
]


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    text = repr_bytes(values)
    assert text.dtype == np.dtype("S24")
    assert text.tolist() == [repr(v).encode() for v in values.tolist()]


def _ulps(values: np.ndarray, steps: int) -> np.ndarray:
    """``values`` and the ``steps`` doubles on each side of each."""
    bits = values.view(np.int64)[:, None] + np.arange(-steps, steps + 1)
    return bits.reshape(-1).view(np.float64)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGES)), max_size=40))
def test_kernel_equals_repr_on_any_floats(values):
    _assert_repr(values)


def test_kernel_equals_repr_on_random_bit_patterns():
    # Uniform in the bits from below 1e-5 to above 1e17, so in and around the computed range.
    rng = np.random.default_rng(15)
    lo, hi = np.array([1e-5, 1e17]).view(np.int64)
    bits = rng.integers(lo, hi, 200_000, dtype=np.int64)
    values = bits.view(np.float64) * rng.choice([-1.0, 1.0], bits.size)
    for block in np.array_split(values, 100):
        _assert_repr(block)


def test_kernel_equals_repr_at_powers_of_two_and_ten():
    # Below a power of two the gap between doubles halves; near a power of ten the digits
    # carry into a new leading digit, and log10 may round across it.
    _assert_repr(_ulps(np.ldexp(1.0, np.arange(-15, 56)), 3))
    _assert_repr(_ulps(np.array([float(f"1e{k}") for k in range(-5, 18)]), 3))
    _assert_repr(_ulps(np.array([float(f"{m}e{k}") for m in (2, 5, 9.5, 9.99) for k in range(-5, 17)]), 2))


def test_kernel_equals_repr_on_short_decimals():
    k = np.arange(1, 1001, dtype=np.float64)
    _assert_repr(np.arange(9001) * 0.1)  # a 900 s time grid at dt = 0.1
    for d in range(0, 18):
        _assert_repr(k / 10.0**d)
        _assert_repr(-(k + 0.5) / 10.0**d)


def test_kernel_equals_repr_on_integers():
    rng = np.random.default_rng(16)
    ints = rng.integers(1, 2**53, 20_000, dtype=np.int64)
    ints[:4] = [2**53, 2**53 - 1, 10**15, 10**16 - 1]
    _assert_repr(ints.astype(np.float64))
    _assert_repr(-np.arange(1.0, 20_001.0))


def test_kernel_on_empty_and_single_values():
    assert repr_bytes(np.array([])).tolist() == []
    for value in _EDGES:
        _assert_repr([value])


def test_lanes_with_a_candidate_on_the_rounding_edge_go_to_repr():
    # From 2**53 up doubles are 2 apart: 10 * (2**53 + 2) lies 10 below a multiple of 10,
    # and 10 is exactly its scaled half gap, so that candidate sits on the interval's edge.
    values = np.array([2.0**53 + 2, 9999999999999998.0])
    assert floattext._shortest_digits(values)[3].all()
    _assert_repr(values)


def test_kernel_is_repr_itself_without_short_float_repr(monkeypatch):
    # Python builds without the short repr print floats otherwise: then repr does every lane.
    def array_path(values):
        raise AssertionError("the array path ran")

    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    monkeypatch.setattr(floattext, "_shortest_digits", array_path)
    _assert_repr([0.1, 1.5, -2.0, math.nan])


@pytest.mark.parametrize("size", [1, floattext.BLOCK - 1, floattext.BLOCK, floattext.BLOCK + 1, 9001])
def test_column_text_formats_distinct_values_in_blocks(size):
    values = np.random.default_rng(size).uniform(-300.0, 300.0, size)
    text, bounds = floattext.column_cells(values)
    assert bounds.tolist() == list(range(size + 1))
    assert text.tolist() == [repr(v).encode() for v in values.tolist()]


def test_kernel_loads_only_when_an_event_log_is_written():
    # Without bytecode caching every import compiles its module, so a sweep without event logs skips it.
    code = "import sys, dynloc.cli; print('dynloc.floattext' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
