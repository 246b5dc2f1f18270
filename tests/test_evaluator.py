"""The evaluator against its reference: same values, same charged steps,
and the same runs stopped by the nesting cap, for programs that apply,
recurse and search."""

from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab.machine import ARG, LOOPER, NestingCapped, const, encode, eval_outcome, eval_profile, node

from oracles import eval_reference

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
