"""The exact square root with remainder that unpair splits codes by: it
agrees with isqrt on both sides of its floor, and the pair read off its
remainder is the pair the isqrt formula gives."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import machine
from boundlab.machine import _sqrtrem, alias_certificate, unpair
from boundlab.realizability import FiniteSupportFn

from oracles import cantor_pair, unpair_reference

SETTINGS = settings(max_examples=120, deadline=None, database=None, derandomize=True)
FLOOR = machine._SQRT_FLOOR_BITS


def sqrtrem_reference(n):
    s = isqrt(n)
    return s, n - s * s


def around_squares(x):
    """x itself and the numbers where a root changes or nearly does."""
    return [x, x * x, x * x + 1, x * x - 1, (x + 1) ** 2 - 1]


roots = st.builds(
    lambda bits, rng: rng.getrandbits(bits) | 1 << bits - 1,
    st.one_of(
        st.integers(1, 64),
        st.integers(FLOOR // 2 - 8, FLOOR // 2 + 8),  # squares just below, at and above the floor
        st.integers(FLOOR // 2, 45_000),  # squares of up to 90 kbit
    ),
    st.randoms(use_true_random=False),
)


@SETTINGS
@given(roots)
def test_sqrtrem_is_isqrt_with_its_remainder(x):
    for n in around_squares(x):
        assert _sqrtrem(n) == sqrtrem_reference(n)


@pytest.mark.parametrize("bits", [FLOOR - 1, FLOOR, FLOOR + 1, FLOOR + 2, FLOOR + 3, 2 * FLOOR, 4 * FLOOR + 1])
def test_sqrtrem_at_the_floor(bits):
    for n in (1 << bits - 1, (1 << bits) - 1, (1 << bits - 1) + 1):
        assert _sqrtrem(n) == sqrtrem_reference(n)
    x = isqrt(1 << bits - 1)
    for n in around_squares(x) + around_squares(x + 1):
        assert _sqrtrem(n) == sqrtrem_reference(n)


def test_sqrtrem_of_small_numbers():
    for n in range(5000):
        assert _sqrtrem(n) == sqrtrem_reference(n)


@SETTINGS
@given(roots)
def test_unpair_is_the_isqrt_unpairing(x):
    assert unpair(x) == unpair_reference(x)
    # (x, 0) and (0, x) are T(x) and T(x + 1) - 1, the ends of a diagonal
    for a, b in ((x, 0), (0, x), (x, x)):
        assert unpair(cantor_pair(a, b)) == unpair_reference(cantor_pair(a, b)) == (a, b)


def test_unpair_of_small_codes():
    for c in range(5000):
        assert unpair(c) == unpair_reference(c)


def test_the_alias_payload_of_ext_probe():
    cert = alias_certificate(FiniteSupportFn((0,) * 6 + (1,)).program())
    payload = cert.derivation // 12
    assert payload.bit_length() > 170_000
    n = 8 * payload + 1
    assert _sqrtrem(n) == sqrtrem_reference(n)
    left, right = unpair(payload)
    assert (left, right) == unpair_reference(payload)
    assert cantor_pair(left, right) == payload
    for half in (left, right):
        assert unpair(half) == unpair_reference(half)
