"""Fusion engine: bounding terms, stage chains, witness extraction."""

import random

import pytest

from boundlab.errors import BadCandidate, OracleNotTotal, PointNotInOpen
from boundlab.fusion import (
    bound_range_term,
    bound_range_term_at,
    dc_chain,
    extract_witness,
    extract_witness_at,
    fuse_pseudobound,
)
from boundlab.seq_opens import Point, count_nodes, make_open, member, restrict_by_seq, split, subset
from boundlab.terms import DecisionTerm, GuardedTerm, TermSequence, constant_term, decide_guarded, range_term_from

from oracles import lowered_windows, nodes_brute, random_open, random_range_term


def _identity1(o):
    return range_term_from(1, nodes_brute(o, 1), lambda node: 0)


def _check_bound_post(p, q, t, I):
    assert subset(q, p)
    assert q.stem == p.stem
    assert q.g(q.stem) >= I
    for node in nodes_brute(q, t.modulus):
        assert t.value_at(node) <= I


def test_bound_identity_example():
    p = make_open(0, [], 2, 1)
    t = _identity1(p)
    q = bound_range_term(p, t, 1)
    assert q.g(0) == 1
    nodes = nodes_brute(q, 1)
    assert nodes == [(0,), (1,)]
    _check_bound_post(p, q, t, 1)


def test_bound_constant_zero_keeps_postconditions():
    p = make_open(1, [1], 3, 1)
    q = bound_range_term(p, constant_term(0), 2)
    _check_bound_post(p, q, constant_term(0), 2)


def test_bound_rejects_candidate_below_prefix():
    p = make_open(1, [2], 3, 1)
    with pytest.raises(BadCandidate):
        bound_range_term(p, constant_term(0), 1)
    with pytest.raises(BadCandidate):
        bound_range_term(p, constant_term(0), p.g(p.stem) + 1)


def test_bound_at_stem_matches_plain_bound():
    rng = random.Random(301)
    for _ in range(40):
        p = random_open(rng, max_value=4)
        t = random_range_term(rng, p, rng.randrange(1, 3))
        lo = p.max_prefix()
        hi = p.g(p.stem)
        if lo > hi:
            continue
        I = rng.randrange(lo, hi + 1)
        assert bound_range_term_at(p, t, I, p.stem) == bound_range_term(p, t, I)


def test_bound_at_depth_one_example():
    p = make_open(0, [], 1, 1)
    t = range_term_from(2, nodes_brute(p, 2), lambda node: 1)  # value = node[1]
    q = bound_range_term_at(p, t, 1, 1)
    assert q.g(0) == p.g(0)
    assert q.g(1) >= 1
    for node in nodes_brute(q, 2):
        assert node[1] <= 1


def test_bound_at_preserves_low_schedule_exactly():
    rng = random.Random(302)
    for _ in range(60):
        p = random_open(rng, max_value=4)
        M = p.stem + rng.randrange(0, 3)
        lo = max((p.g(n) for n in range(M)), default=0)
        hi = p.g(M)
        if lo > hi:
            continue
        I = rng.randrange(lo, hi + 1)
        t = random_range_term(rng, p, rng.randrange(1, 3))
        q = bound_range_term_at(p, t, I, M)
        for n in range(M):
            assert q.g(n) == p.g(n)
        assert q.g(M) >= I
        for node in nodes_brute(q, t.modulus):
            assert t.value_at(node) <= I


def test_bound_matches_brute_window_search_on_small_instances():
    # exhaustive cross-check: the output window appears in the independently
    # enumerated set of valid schedule lowerings
    rng = random.Random(303)
    checked = 0
    while checked < 40:
        p = random_open(rng, max_stem=1, max_value=3, extra=1)
        modulus = rng.randrange(1, 3)
        t = random_range_term(rng, p, modulus)
        lo = p.max_prefix()
        hi = p.g(p.stem)
        if lo > hi:
            continue
        I = rng.randrange(lo, hi + 1)
        q = bound_range_term(p, t, I)
        valid = lowered_windows(p, t, I, p.stem)
        width = len(next(iter(valid)))
        window = tuple(q.g(n) for n in range(width))
        assert window in valid
        checked += 1


def test_fuse_identity_chain_example():
    p = make_open(0, [], 1, 1)
    f = Point((), 0)
    a = TermSequence(lambda n: _identity1(p))
    N, chain = fuse_pseudobound(p, a, f, 3)
    assert N == 0
    assert len(chain) == 4
    for j, q in enumerate(chain):
        assert member(f, q)
        assert subset(q, chain[j - 1] if j else p)
        for n in range(N, N + j + 1):
            for node in nodes_brute(q, 1):
                assert a(n).value_at(node) <= n


def test_fuse_constant_terms():
    p = make_open(0, [], 3, 1)
    f = Point((2,), 0)
    a = TermSequence(lambda n: constant_term(min(n, 2)))
    N, chain = fuse_pseudobound(p, a, f, 2)
    assert N == 2
    for j, q in enumerate(chain):
        assert member(f, q)
        for n in range(N, N + j + 1):
            for node in nodes_brute(q, 0):
                assert a(n).value_at(node) <= n


def test_fuse_start_is_sup_of_point_range():
    p = make_open(0, [], 6, 1)
    f = Point((), 5)
    N, _chain = fuse_pseudobound(p, TermSequence(lambda n: constant_term(0)), f, 1)
    assert N == 5


def test_fuse_rejects_outside_point():
    p = make_open(0, [], 2, 1)
    with pytest.raises(PointNotInOpen):
        fuse_pseudobound(p, TermSequence(lambda n: constant_term(0)), Point((), 9), 1)


def test_fuse_stage_monotonicity_random():
    rng = random.Random(304)
    for _ in range(40):
        p = random_open(rng, max_value=4)
        f = Point(p.prefix(), p.g(p.stem))
        c = rng.randrange(0, 3)
        a = TermSequence(lambda n, c=c: constant_term(min(c, n)))
        stages = rng.randrange(1, 4)
        N, chain = fuse_pseudobound(p, a, f, stages)
        assert N == f.sup_range()
        prev = p
        for q in chain:
            assert subset(q, prev)
            assert member(f, q)
            prev = q


def test_extract_witness_split_oracle_example():
    p = make_open(0, [], 2, 1)
    oracle = {(i,): (i, constant_term(i)) for i in range(3)}
    q, sigma = extract_witness(p, oracle, 1)
    assert subset(q, p)
    assert q.stem == p.stem
    assert q.g(0) >= 1
    for i in range(q.g(0) + 1):
        assert decide_guarded(split(q, i), sigma) == i


def test_extract_witness_constant_oracle():
    p = make_open(0, [], 2, 1)
    oracle = {(i,): (7, constant_term(7)) for i in range(3)}
    q, sigma = extract_witness(p, oracle, 0)
    assert decide_guarded(q, sigma) == 7
    for i in range(q.g(0) + 1):
        assert decide_guarded(split(q, i), sigma) == 7


def test_extract_witness_partial_oracle_fails():
    p = make_open(0, [], 2, 1)
    oracle = {(0,): (0, constant_term(0)), (1,): (1, constant_term(1))}
    with pytest.raises(OracleNotTotal):
        extract_witness(p, oracle, 1)


def test_extract_witness_at_depth_cover():
    p = make_open(0, [], 1, 1)
    oracle = {
        node: (sum(node), constant_term(sum(node))) for node in nodes_brute(p, 2)
    }
    q, sigma = extract_witness_at(p, oracle, 1, 1)
    from boundlab.seq_opens import restrict_by_seq

    for node in nodes_brute(q, 2):
        assert decide_guarded(restrict_by_seq(q, node), sigma) == sum(node)
    with pytest.raises(OracleNotTotal):
        extract_witness_at(p, {(0,): (0, constant_term(0)), (1,): (1, constant_term(1))}, 1, 2)


def test_extract_witness_rejects_an_oracle_shallower_than_the_stem():
    p = make_open(2, [1, 0], 3, 1)
    oracle = {(i,): (i, constant_term(i)) for i in range(2)}
    with pytest.raises(OracleNotTotal):
        extract_witness(p, oracle, 1)


def test_extract_witness_at_is_extract_witness_over_the_cut_cover():
    """One amalgamation over the oracle's cover gives the parts that
    amalgamating each depth-M piece on its own gives, in the same order."""
    rng = random.Random(611)
    checked = 0
    while checked < 40:
        p = random_open(rng, max_stem=2, max_value=3, extra=1, max_slope=1)
        M = p.stem + rng.randrange(0, 3)
        depth = M + rng.randrange(0, 2)
        if count_nodes(p, depth) > 40:
            continue
        oracle = {}
        for nd in nodes_brute(p, depth):
            value = rng.randrange(4)
            oracle[nd] = (value, constant_term(value))
        I = p.g(M)
        q, sigma = extract_witness_at(p, oracle, I, M)
        assert q == p
        parts = []
        for cut in nodes_brute(p, M):
            piece = restrict_by_seq(p, cut)
            sub = {nd: oracle[nd] for nd in nodes_brute(piece, depth)}
            parts.extend(extract_witness(piece, sub, I)[1].parts)
        assert sigma.parts == tuple(parts)
        for nd in nodes_brute(p, depth):
            assert decide_guarded(restrict_by_seq(p, nd), sigma) == oracle[nd][0]
        checked += 1


def test_dc_chain_successor_example():
    p = make_open(0, [], 4, 1)

    def successor(w, cur):
        prev = w if isinstance(w, int) else 0
        return constant_term(prev + 1), 0

    chain, witnesses = dc_chain(p, successor, 2, 3)
    assert witnesses == [2, 3, 4, 5]
    assert len(chain) == 4
    for later, earlier in zip(chain[1:], chain):
        assert subset(later, earlier)


def test_dc_chain_zero_steps():
    p = make_open(0, [], 4, 1)
    chain, witnesses = dc_chain(p, lambda w, cur: (constant_term(0), 0), 7, 0)
    assert witnesses == [7]
    assert len(chain) == 1
    assert subset(chain[0], p)


def test_dc_chain_echo_oracle():
    p = make_open(0, [], 4, 1)

    def echo(w, cur):
        prev = w if isinstance(w, int) else 0
        return constant_term(prev), 0

    chain, witnesses = dc_chain(p, echo, 3, 3)
    assert witnesses == [3, 3, 3, 3]


def test_dc_chain_keeps_the_open_and_refuses_an_undecided_step():
    """Every chain entry is the input open; a step term undecided on one
    piece of the cover is refused by node and stage."""
    p = make_open(0, [], 2, 1)
    # Stage 2 covers p at depth 2; the modulus-3 term reads the third entry
    # below the node (1, 0) only, so that piece alone leaves it undecided.
    split_term = DecisionTerm(3, {nd: nd[2] if nd[:2] == (1, 0) else 5 for nd in nodes_brute(p, 3)})
    first_entry = DecisionTerm(3, {nd: nd[0] for nd in nodes_brute(p, 3)})

    chain, witnesses = dc_chain(p, lambda w, cur: (first_entry, 2), 0, 2)
    assert chain == [p, p, p]
    assert witnesses[0] == 0 and all(isinstance(w, GuardedTerm) for w in witnesses[1:])

    def step(w, cur):
        return (constant_term(1), 0) if w == 0 else (split_term, 2)

    with pytest.raises(OracleNotTotal, match=r"undecided on node \(1, 0\) at stage 2$"):
        dc_chain(p, step, 0, 2)
