"""The staged escape construction against its two-path reference.

`tests/oracles.escape_trace_reference` keeps the stage loop as it once
stood. On random opens and oracles (sparse and fully labelled, with
missing labels, levels below the stem, unsound and refused candidates)
both must give the same result, M and frames, or the same error with the
same text, and must ask the oracle the same questions in the same order.
"""

import random
from collections import Counter

from boundlab.antispecker import StarOracle, escape_trace

from oracles import escape_trace_reference, nodes_brute, random_open


class _Logged:
    """An oracle that records every question asked of it, in order."""

    def __init__(self, oracle):
        self.oracle, self.default_star, self.log = oracle, oracle.default_star, []

    def level_of(self, n):
        self.log.append(("level_of", n))
        return self.oracle.level_of(n)

    def is_star(self, n, node):
        self.log.append(("is_star", n, node))
        return self.oracle.is_star(n, node)

    def nonstar_listed(self, n):
        self.log.append(("nonstar_listed", n))
        return self.oracle.nonstar_listed(n)


def _outcome(build, q, oracle, I, horizon):
    logged = _Logged(oracle)
    try:
        got = build(q, logged, I, horizon)
    except Exception as e:  # every error kind is part of the contract
        return type(e).__name__, str(e), logged.log
    return "ok", (got["result"], got["M"], got["frames"]), logged.log


def _random_case(rng):
    q = random_open(rng, max_stem=2, max_value=2, extra=1)
    horizon = rng.randrange(0, 5)
    # Now and then an index has no deciding depth, or one below the stem.
    levels = {n: q.stem + rng.randrange(-1 if rng.random() < 0.04 else 0, 4) for n in range(horizon + 1)}
    if rng.random() < 0.05:
        del levels[rng.randrange(horizon + 1)]
    I = max(0, q.max_prefix() + rng.choice([-1, 0, 0, 0, 1, 2]))
    if rng.random() < 0.5:
        labels = {}
        for n, depth in levels.items():
            for _ in range(rng.choice([0, 0, 1, 2])):
                # Entries up to I but for one spike, whose height picks the
                # stage that sees the node; a spike in the stem or above q
                # leaves q.
                node = [q.g(i) if i < q.stem else min(q.g(i), rng.randrange(I + 1)) for i in range(depth)]
                if depth > 0:
                    node[rng.randrange(depth)] = I + 1 + rng.randrange(4)
                labels[(n, tuple(node))] = False
        return q, StarOracle(levels, labels, default_star=True), I, horizon
    # Every node of q labelled, mostly star, with a few labels left out.
    nonstar = rng.random() / 4
    hole = rng.choice([0.0, 0.0, 0.02, 0.2])
    labels = {
        (n, node): rng.random() >= nonstar
        for n, depth in levels.items()
        for node in nodes_brute(q, max(depth, 0))
        if rng.random() >= hole
    }
    return q, StarOracle(levels, labels, default_star=False), I, horizon


def test_escape_trace_matches_the_two_path_reference():
    rng = random.Random(1807)
    kinds = Counter()
    for _ in range(3000):
        q, oracle, I, horizon = _random_case(rng)
        got = _outcome(escape_trace, q, oracle, I, horizon)
        assert got == _outcome(escape_trace_reference, q, oracle, I, horizon), (q, oracle.levels, I, horizon)
        kinds[got[0]] += 1
        # A stage after the first that writes: the cut for M is not its frontier.
        if got[0] == "ok" and any(frame["wrote"] for frame in got[1][2][1:]):
            kinds["later stage writes"] += 1
    assert set(kinds) == {"ok", "ScheduleUnsound", "OracleNotTotal", "BadCandidate", "ValueError", "later stage writes"}, kinds
    assert min(kinds.values()) >= 10, kinds
