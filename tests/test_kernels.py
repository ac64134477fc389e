"""gcd_lanes against math.gcd and np.gcd, and the samplers that call it."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_lab.kernels import FLOAT_GCD_MAX, gcd_lanes
from coprime_lab.montecarlo import RngStream, estimate_coprime_pair, estimate_pairwise_triple


def checked(a, b):
    """gcd_lanes(a, b) with every float error and RuntimeWarning raised,
    compared lane by lane with np.gcd and math.gcd."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = gcd_lanes(a, b)
    expect = np.gcd(a, b)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)
    assert got.tolist() == [math.gcd(x, y) for x, y in zip(a.tolist(), b.tolist())]
    return got


def sequence(step, top):
    """Terms x_0 = 0, x_1 = 1, x_(k+1) = step x_k + x_(k-1) up to top."""
    out = [0, 1]
    while step * out[-1] + out[-2] <= top:
        out.append(step * out[-1] + out[-2])
    return out


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_edge_lanes(dtype):
    top = np.iinfo(dtype).max
    values = [0, 1, 2, 3, 2**23 - 1, 2**23, 2**23 + 1, 2**31 - 1]
    values += [2**31, 2**31 + 1, 2**52 - 1, 2**52] if top > 2**31 else []
    pairs = [(x, y) for x in values for y in values]
    a, b = (np.array(v, dtype=dtype) for v in zip(*pairs))
    got = checked(a, b)
    assert got[0] == 0  # gcd(0, 0)


def test_every_pair_below_300():
    a, b = (v.ravel() for v in np.meshgrid(np.arange(300), np.arange(300)))
    checked(a.astype(np.int32), b.astype(np.int32))


@pytest.mark.parametrize("top", [2**23, FLOAT_GCD_MAX])  # the float32 and float64 lanes
@pytest.mark.parametrize("step", [1, 2])
def test_consecutive_fibonacci_and_pell_pairs(step, top):
    # Fibonacci pairs take the most steps of plain Euclid and Pell pairs
    # (quotients 2, 2, ...) the most of nearest-remainder Euclid
    seq = sequence(step, top)
    a = np.array(seq[1:], dtype=np.int64)
    b = np.array(seq[:-1], dtype=np.int64)
    assert checked(a, b).tolist() == [1] * len(a)
    checked(b, a)
    checked(3 * a[a <= top // 3], 3 * b[a <= top // 3])


@pytest.mark.parametrize("top", [10**6, 2**23, 2**24, 10**9, 2**31 - 1, 2**52, 2**53])
def test_random_lanes(top):
    stream = RngStream(top)
    a, b = (stream.uniform_below(top, 20_000) + 1 for _ in range(2))
    assert a.dtype == (np.int32 if top < 2**31 else np.int64)
    checked(a, b)
    # shared factors and equal lanes
    checked(a // 6 * 6, b // 10 * 10)
    checked(a, a)


def test_lanes_past_2_pow_52_take_np_gcd(monkeypatch):
    stream = RngStream(3)
    a, b = (stream.uniform_below(2**62, 5000) for _ in range(2))
    a[0] = FLOAT_GCD_MAX + 1
    checked(a, b)
    checked(a * 0 + FLOAT_GCD_MAX + 1, b)

    calls = []
    monkeypatch.setattr(np, "gcd", lambda x, y: calls.append(len(x)))
    gcd_lanes(b % FLOAT_GCD_MAX, b % (FLOAT_GCD_MAX + 1))  # every lane <= 2^52
    assert calls == []
    gcd_lanes(a, b)
    assert len(calls) == 1


def test_empty_lanes():
    assert checked(np.zeros(0, np.int32), np.zeros(0, np.int32)).size == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, FLOAT_GCD_MAX), st.integers(0, FLOAT_GCD_MAX)), min_size=1))
def test_property_matches_math_gcd(pairs):
    a, b = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    checked(a, b)


@pytest.mark.parametrize("range_max", [10**9, 2**62])
def test_pair_and_triple3_successes_do_not_depend_on_threads(range_max):
    trials = 2 * 2**16 + 123
    pair = {t: estimate_coprime_pair(range_max, trials, seed=8, threads=t).successes for t in (1, 2)}
    triple = {t: estimate_pairwise_triple(range_max, trials, seed=9, threads=t).successes for t in (1, 2)}
    assert pair[1] == pair[2] and triple[1] == triple[2]


@pytest.mark.parametrize("threads", [1, 2])
def test_benchmark_triple3_successes_are_pinned(threads):
    # the pair pin is tested through the CLI in test_cli.py
    assert estimate_pairwise_triple(10**6, 2_000_000, seed=1001, threads=threads).successes == 574241
