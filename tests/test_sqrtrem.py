"""The exact square root with remainder that unpair splits codes by: it
agrees with isqrt on both sides of its floor, and the pair read off its
remainder is the pair the isqrt formula gives.  Its recursive division
agrees with divmod on every input it may be given, corrections included."""

import random
import signal
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import machine
from boundlab.machine import _div2n1n, _div3n2n, _sqrtrem, alias_certificate, unpair
from boundlab.realizability import FiniteSupportFn

from oracles import cantor_pair, unpair_reference

SETTINGS = settings(max_examples=120, deadline=None, database=None, derandomize=True)
FLOOR = machine._SQRT_FLOOR_BITS


class _PastDeadline(BaseException):
    """Not an Exception, so hypothesis does not catch it and shrink by
    running the hanging example again: the test fails at once."""


@pytest.fixture(autouse=True)
def deadline():
    """A division that loops, say through a wrong quotient estimate, fails
    its test after a minute instead of hanging the suite."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def stop(signum, frame):
        raise _PastDeadline("the test ran past its 60 s deadline")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


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


# --- the recursive division under _sqrtrem ---------------------------------

def divisor(bits, rng):
    return rng.getrandbits(bits) | 1 << bits - 1


def dividends(b, n, rng):
    """Dividends a < 2**n * b: random ones, the largest, small ones, and
    ones whose top half-digit equals b's, where the quotient digit is full."""
    top = b << n
    return [
        rng.randrange(top),
        rng.randrange(top),
        top - 1,
        top - 1 - rng.getrandbits(n // 2),
        rng.getrandbits(n),
        b * rng.getrandbits(n),
        0,
    ]


division_sizes = st.one_of(
    st.integers(FLOOR - 8, FLOOR + 8),  # just below, at and above the leaf
    st.integers(2 * FLOOR - 4, 2 * FLOOR + 4),  # one level of recursion, odd and even
    st.integers(FLOOR, 40_000),
)


@SETTINGS
@given(division_sizes, st.randoms(use_true_random=False))
def test_division_is_divmod(n, rng):
    b = divisor(n, rng)
    for a in dividends(b, n, rng):
        assert _div2n1n(a, b, n) == divmod(a, b)


@pytest.mark.parametrize("n", [100_001, 400_000])
def test_division_of_big_numbers(n):
    rng = random.Random(n)
    b = divisor(n, rng)
    for a in dividends(b, n, rng)[1:4]:
        assert _div2n1n(a, b, n) == divmod(a, b)


def three_by_two(h, rng, full_digit):
    """An input of _div3n2n whose first quotient estimate overshoots: b1 as
    small and b2 as large as h-bit digits go, so the correction must run."""
    b1, b2 = 1 << h - 1, (1 << h) - 1 - rng.getrandbits(8)
    b = b1 << h | b2
    if full_digit:
        a12 = b1 << h | rng.getrandbits(h - 2)  # its top digit is b1's
    else:
        a12 = (b1 - 1 - rng.getrandbits(8)) << h | rng.getrandbits(h)
    return a12, rng.getrandbits(h), b, b1, b2


@pytest.mark.parametrize("h", [FLOOR // 2, FLOOR + 1, 2 * FLOOR + 3, 20_000])
@pytest.mark.parametrize("full_digit", [True, False])
def test_three_by_two_corrects_its_estimate(h, full_digit):
    rng = random.Random(h)
    a12, a3, b, b1, b2 = three_by_two(h, rng, full_digit)
    assert (a12 >> h == b1) == full_digit
    estimate = (1 << h) - 1 if full_digit else a12 // b1
    q, r = _div3n2n(a12, a3, b, b1, b2, h)
    assert (q, r) == divmod(a12 << h | a3, b)
    assert q < estimate  # the correction ran


def test_a_small_top_digit_is_not_stepped_down_to():
    """When a12's top digit is far below b1, the estimate comes from the
    recursive division; a full digit there would leave about 2**h steps
    for the correction loop, and the test would run into its deadline."""
    rng = random.Random(4)
    h = FLOOR + 1
    a12, a3, b, b1, b2 = three_by_two(h, rng, False)
    a12 >>= h // 2  # a top digit of about h/2 bits
    assert _div3n2n(a12, a3, b, b1, b2, h) == divmod(a12 << h | a3, b)


def sqrtrem_division(n):
    """The division _sqrtrem makes at the top of n: (a, d, bits of d)."""
    k = n.bit_length() >> 2
    s1, r1 = sqrtrem_reference(n >> 2 * k)
    d = s1 << 1
    return r1 << k | (n >> k) & ((1 << k) - 1), d, d.bit_length()


@SETTINGS
@given(roots)
def test_sqrtrem_divides_within_the_precondition(x):
    for n in around_squares(x):
        if n.bit_length() >= FLOOR:
            a, d, m = sqrtrem_division(n)
            assert a < d << m
            assert _div2n1n(a, d, m) == divmod(a, d)


def test_the_top_division_of_ext_probe():
    cert = alias_certificate(FiniteSupportFn((0,) * 6 + (1,)).program())
    a, d, m = sqrtrem_division(8 * (cert.derivation // 12) + 1)
    assert m > 40_000 and a < d << m
    assert _div2n1n(a, d, m) == divmod(a, d)
