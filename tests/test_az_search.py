"""The top-down support search against the bottom-up one it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab.errors import BudgetExhausted
from boundlab.machine import ARG, LOOPER, SUCC, const, encode, node
from boundlab.realizability import enumerate_Az

from oracles import enumerate_Az_bottom_up

BUDGET = 20_000
DIVERGES = node("apply", const(encode(LOOPER)), const(encode(LOOPER)))


def probe(i):
    """Reads the argument's value at position i."""
    return node("apply", ARG, const(i))


# one leaf in eight diverges
leaves = st.sampled_from([*map(probe, range(5)), const(0), const(1), DIVERGES])
functionals = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids, kids).map(lambda t: node("if0", *t)),
        kids.map(lambda k: node("apply", const(encode(SUCC)), k)),
        kids.map(lambda k: node("pred", k)),
    ),
    max_leaves=6,
)


def outcome(search, z, support_bound, value_bound):
    try:
        return search(z, support_bound, value_bound, BUDGET)
    except BudgetExhausted as e:
        return str(e)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(functionals, st.integers(0, 3), st.integers(2, 3))
def test_top_down_agrees_with_bottom_up(z, support_bound, value_bound):
    want = outcome(enumerate_Az_bottom_up, z, support_bound, value_bound)
    got = outcome(enumerate_Az, z, support_bound, value_bound)
    if isinstance(want, set):
        assert got == want
        assert want == set(range(max(want) + 1))
    elif isinstance(got, str):
        assert got == want  # same refusal, same message


def test_a_divergence_below_the_answer_no_longer_refuses():
    # Arguments nonzero at 0 send the functional into a loop; the others
    # are read at 1.  Bottom-up meets the loop at m = 0 first.
    z = node("if0", probe(0), probe(1), DIVERGES)
    with pytest.raises(BudgetExhausted):
        enumerate_Az_bottom_up(z, 2, 2, BUDGET)
    assert enumerate_Az(z, 2, 2, BUDGET) == {0, 1}


def test_the_zero_argument_is_always_probed():
    for support_bound in (0, 1, 3):
        with pytest.raises(BudgetExhausted):
            enumerate_Az(DIVERGES, support_bound, 2, BUDGET)
    assert enumerate_Az(DIVERGES, -1, 2, BUDGET) == enumerate_Az_bottom_up(DIVERGES, -1, 2, BUDGET) == {0}
