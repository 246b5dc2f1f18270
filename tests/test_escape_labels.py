"""Escape schedules under fully labelled oracles.

A sparse oracle (unlisted labels count as star) and the same oracle with a
label for every node of the ambient open must drive the staged
construction to the same result, frontier and frames, and must refuse the
same inputs.
"""

import random

import pytest

from boundlab.antispecker import StarOracle, escape_trace
from boundlab.errors import OracleNotTotal, ScheduleUnsound

from oracles import nodes_brute, random_open


def _total(q, sparse):
    """The sparse oracle's decisions with every node of q labelled."""
    labels = {
        (n, node): sparse.is_star(n, node)
        for n, depth in sparse.levels.items()
        for node in nodes_brute(q, depth)
    }
    return StarOracle(sparse.levels, labels, default_star=False)


def _outcome(q, oracle, I, horizon):
    try:
        return escape_trace(q, oracle, I, horizon)
    except ScheduleUnsound as e:
        return ("unsound", str(e))


def _random_case(rng):
    q = random_open(rng, max_stem=2, max_value=2, extra=1)
    horizon = rng.randrange(1, 5)
    levels = {n: q.stem + rng.randrange(0, 3) for n in range(horizon + 1)}
    labels = {}
    for n, depth in levels.items():
        for _ in range(rng.randrange(0, 3)):
            node = tuple(
                q.g(i) if i < q.stem else rng.randrange(0, q.g(i) + 2)
                for i in range(depth)
            )
            labels[(n, node)] = False
    I = max(q.max_prefix(), q.g(q.stem)) + rng.randrange(0, 2)
    return q, StarOracle(levels, labels, default_star=True), I, horizon


def test_total_labels_match_sparse_oracle():
    rng = random.Random(771)
    kinds = set()
    for _ in range(120):
        q, sparse, I, horizon = _random_case(rng)
        total = _total(q, sparse)
        first = _outcome(q, sparse, I, horizon)
        assert _outcome(q, total, I, horizon) == first
        kinds.add(isinstance(first, tuple))
    # the seed exercises both sound and unsound constructions
    assert kinds == {True, False}


def test_total_labels_missing_one_is_not_total():
    rng = random.Random(772)
    for _ in range(40):
        q, sparse, I, horizon = _random_case(rng)
        total = _total(q, sparse)
        # the first node stage 0 asks about: index 0's all-low node
        first = q.prefix() + (0,) * (sparse.levels[0] - q.stem)
        labels = dict(total.labels)
        del labels[(0, first)]
        holed = StarOracle(total.levels, labels, default_star=False)
        with pytest.raises(OracleNotTotal):
            escape_trace(q, holed, I, horizon)
