"""The evaluator against its reference: same values, same charged steps,
and the same runs stopped by the nesting cap, for programs that apply,
recurse and search."""

from itertools import cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import machine
from boundlab.machine import ARG, LOOPER, NestingCapped, const, encode, eval_outcome, eval_profile, eval_steps, node

from oracles import encode_reference, eval_reference

leaves = st.one_of(st.just(ARG), st.integers(0, 300).map(const))

programs = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(node, st.sampled_from(["succ", "pred", "fst", "snd"]), kids),
        st.builds(node, st.sampled_from(["pair", "comp", "primrec", "bmin", "apply"]), kids, kids),
        st.builds(node, st.just("if0"), kids, kids, kids),
    ),
    max_leaves=12,
)

# Small inputs, and the code of LOOPER, whose self-application nests until the cap.
inputs = st.one_of(st.integers(0, 12), st.just(encode(LOOPER)))


def outcome(run, e, z, budget):
    try:
        return run(e, z, budget)
    except NestingCapped:
        return "capped"


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(programs, inputs, st.integers(1, 10**4))
def test_eval_outcome_matches_the_reference(e, z, budget):
    assert outcome(eval_outcome, e, z, budget) == outcome(eval_reference, e, z, budget)


def test_self_application_reaches_the_cap_like_the_reference():
    w = encode(LOOPER)
    for budget in (10, 100, 1000, 10**4, 10**5):
        assert outcome(eval_outcome, LOOPER, w, budget) == outcome(eval_reference, LOOPER, w, budget)
    assert outcome(eval_outcome, LOOPER, w, 10**5) == "capped"


def succ_chain(k):
    e = ARG
    for _ in range(k):
        e = node("succ", e)
    return e


def test_the_cap_boundary():
    # 383 successors over the argument nest 384 nodes, the most the cap allows.
    assert eval_outcome(succ_chain(383), 0, 10**5) == eval_reference(succ_chain(383), 0, 10**5)
    assert eval_outcome(succ_chain(383), 0, 10**5)[0] == 383
    assert outcome(eval_outcome, succ_chain(384), 0, 10**5) == "capped"
    assert outcome(eval_reference, succ_chain(384), 0, 10**5) == "capped"
    assert eval_profile(succ_chain(384), 0, 10**5) is None


def test_fuel_runs_out_before_the_cap_is_reached():
    # The constant's charge empties the budget before the deep side is entered.
    deep = node("pair", const(2**5000), succ_chain(400))
    assert eval_outcome(deep, 0, 100) is None
    assert eval_reference(deep, 0, 100) is None
    assert outcome(eval_outcome, deep, 0, 10**5) == "capped"


def chain(ops, leaf):
    """The unary chain of ops, innermost first, over leaf, and its code,
    computed link by link: no recursion, and nothing recorded."""
    code = encode_reference(leaf)
    for op in ops:
        leaf = node(op, leaf)
        code = code * 12 + machine.TAG[op]
    return leaf, code


def capped_charge(e, z, budget):
    """eval_outcome's result, or the charge at which it reaches the cap."""
    try:
        return eval_outcome(e, z, budget)
    except NestingCapped as capped:
        return "capped", capped.charge


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.integers(0, 60),
    st.sampled_from([-1, 0, 1, 40]),
    st.lists(st.sampled_from(["succ", "pred", "fst", "snd"]), min_size=1, max_size=6),
    st.one_of(st.just(ARG), st.integers(0, 2**70).map(const), st.just(node("pair", ARG, const(3)))),
    st.integers(0, 9),
    st.sampled_from([300, 3000, 10**5]),
)
def test_an_applied_chain_near_the_cap_runs_like_the_reference(outer, past, ops, leaf, z, budget):
    """apply under `outer` succ nodes runs its body from nesting level
    outer + 2, so a chain of 382 - outer unary nodes over the leaf is the
    deepest the cap lets it run; `past` lengthens or shortens that chain.
    The bounded decode gives the reference's outcome, and a capped run the
    charge it reaches the cap at with the whole body decoded."""
    _, code = chain(islice(cycle(ops), 382 - outer + past), leaf)
    e = node("apply", const(code), ARG)
    for _ in range(outer):
        e = node("succ", e)
    got = capped_charge(e, z, budget)
    capped = got is not None and got[0] == "capped"
    assert ("capped" if capped else got) == outcome(eval_reference, e, z, budget)
    whole = machine.decode
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine, "decode", lambda w, levels=None: whole(w))
        assert capped_charge(e, z, budget) == got


def test_eval_steps_decodes_to_the_cap():
    """eval_steps runs its root at level 1, so it decodes 383 levels below
    it: 383 successors over a constant run, and a longer chain reaches the
    cap at the charge it reaches it at when decoded whole.  The codes are
    computed link by link, so the decode table does not hold them."""
    assert eval_steps(chain(["succ"] * 383, const(7))[1], 5, 10**5) == 390
    for k in (384, 600):
        w = chain(["succ"] * k, ARG)[1]
        assert eval_steps(w, 5, 10**5) is None
        bounded = machine.decode(w, machine._MAX_DEPTH - 1)
        assert capped_charge(bounded, 5, 10**5) == capped_charge(machine.decode(w), 5, 10**5)


def test_a_level_bound_leaves_deeper_nodes_as_the_argument():
    deep = node("pair", succ_chain(10), node("pred", const(7)))
    w = encode(deep)
    assert machine.decode(w, 0) == node("pair", ARG, ARG)
    assert machine.decode(w, 1) == node("pair", node("succ", ARG), node("pred", ARG))
    assert machine.decode(w, 3) == node("pair", succ_chain(3), node("pred", const(7)))
    for levels in (10, 11, 400, None):
        assert machine.decode(w, levels) == deep
    # 30 links over a constant take 114 bits: under 4 a level, but the
    # constant still lies 30 levels down
    e, w = chain(["succ"] * 30, const(7))
    assert w.bit_length() == 114
    assert machine.decode(w, 29) == chain(["succ"] * 30, ARG)[0]
    assert machine.decode(w, 30) == e
