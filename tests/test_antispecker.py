"""Bounded trees, star oracles, and the escape-schedule construction."""

import random

import pytest

from boundlab.antispecker import (
    BoundedTree,
    StarOracle,
    all_star_oracle,
    build_escape_schedule,
    enumerate_level,
    escape_trace,
    level_count,
    nonstar_nodes,
)
from boundlab.errors import BadCandidate, OracleNotTotal, ScheduleUnsound
from boundlab.seq_opens import Point, make_open, member, subset

from oracles import nodes_brute, random_open


def test_enumerate_level_examples():
    tree = BoundedTree(make_open(0, [], 1, 1), 2)
    assert enumerate_level(tree, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    pinned = BoundedTree(make_open(2, [1, 0], 2, 1), 3)
    assert enumerate_level(pinned, 2) == [(1, 0)]

    ones = BoundedTree(make_open(0, [], 1, 1), 1)
    assert enumerate_level(ones, 3) == [(0, 0, 0)]


def test_enumerate_level_counts_match_product_formula():
    rng = random.Random(501)
    for _ in range(80):
        q = random_open(rng, max_value=3)
        J = rng.randrange(1, 5)
        tree = BoundedTree(q, J)
        depth = q.stem + rng.randrange(0, 3)
        nodes = enumerate_level(tree, depth)
        assert len(nodes) == level_count(tree, depth)
        if all(q.g(i) < J for i in range(q.stem)):
            expected = 1
            for i in range(q.stem, depth):
                expected *= min(J, q.g(i) + 1)
            assert len(nodes) == expected
        else:
            assert nodes == []
        full = {node for node in nodes_brute(q, depth) if all(v < J for v in node)}
        assert set(nodes) == full


def test_enumerate_level_rejects_depth_above_stem():
    tree = BoundedTree(make_open(2, [1, 0], 2, 1), 3)
    with pytest.raises(ValueError):
        enumerate_level(tree, 1)
    with pytest.raises(ValueError):
        BoundedTree(make_open(0, [], 1, 1), 0)


def test_nonstar_nodes_examples():
    q = make_open(0, [], 1, 1)
    tree = BoundedTree(q, 2)
    stars = all_star_oracle({0: 2})
    assert nonstar_nodes(tree, stars, 0) == []

    one_bad = StarOracle({0: 2}, {(0, (0, 0)): False}, default_star=True)
    assert nonstar_nodes(tree, one_bad, 0) == [(0, 0)]

    outside = StarOracle({0: 1}, {(0, (5,)): False}, default_star=True)
    assert nonstar_nodes(tree, outside, 0) == []


def test_nonstar_nodes_rejects_depth_above_stem_for_every_oracle():
    q = make_open(2, [1, 0], 2, 1)
    tree = BoundedTree(q, 3)
    sparse = StarOracle({0: 1}, {(0, (1,)): False}, default_star=True)
    full = StarOracle({0: 1}, {(0, (v,)): v != 1 for v in range(3)})
    for oracle in (sparse, all_star_oracle({0: 1}), full):
        with pytest.raises(ValueError, match="depth must reach the ambient stem"):
            nonstar_nodes(tree, oracle, 0)
    assert level_count(tree, 1) == 1  # unchanged: the pinned stem node


def test_nonstar_nodes_requires_total_labels():
    q = make_open(0, [], 1, 1)
    tree = BoundedTree(q, 2)
    partial = StarOracle({0: 1}, {(0, (0,)): True})
    with pytest.raises(OracleNotTotal):
        nonstar_nodes(tree, partial, 0)
    with pytest.raises(OracleNotTotal):
        nonstar_nodes(tree, all_star_oracle({}), 0)


def test_escape_all_star_returns_ambient():
    q = make_open(1, [2], 4, 1)
    r, M = build_escape_schedule(q, all_star_oracle({n: 1 + n for n in range(6)}), 2, 5)
    assert r == q
    assert M == 0


def test_escape_single_low_level_nonstar_example():
    q = make_open(0, [], 2, 1)
    oracle = StarOracle(
        {n: n + 1 for n in range(7)}, {(0, (0,)): False}, default_star=True
    )
    r, M = build_escape_schedule(q, oracle, 1, 6)
    assert M == 0
    assert r == make_open(0, [1, 1], 4, 1)
    assert subset(r, q)
    for m in range(1, 7):
        for node in nodes_brute(r, m + 1):
            assert oracle.is_star(m, node)


def test_escape_everywhere_nonstar_is_unsound():
    q = make_open(0, [], 2, 1)
    levels = {n: n + 1 for n in range(5)}
    labels = {(n, (0,) * (n + 1)): False for n in range(5)}
    oracle = StarOracle(levels, labels, default_star=True)
    with pytest.raises(ScheduleUnsound):
        build_escape_schedule(q, oracle, 1, 4)


def test_escape_candidate_below_prefix_rejected():
    q = make_open(1, [2], 4, 1)
    with pytest.raises(BadCandidate):
        build_escape_schedule(q, all_star_oracle({n: 1 for n in range(3)}), 1, 2)


def test_escape_level_below_stem_rejected():
    q = make_open(1, [1], 3, 1)
    with pytest.raises(ValueError):
        build_escape_schedule(q, all_star_oracle({n: 0 for n in range(3)}), 1, 2)


def test_escape_golden_with_pinned_stem():
    q = make_open(1, [2], 3, 1)  # schedule normalizes to g(n) = 2 + n
    oracle = StarOracle(
        {n: 1 + (n % 2) for n in range(6)}, {(0, (2,)): False}, default_star=True
    )
    r, M = build_escape_schedule(q, oracle, 2, 5)
    assert r == make_open(1, [2, 2], 4, 1)
    assert M == 4
    trace = escape_trace(q, oracle, 2, 5)
    assert trace["result"] == r
    assert trace["M"] == M
    assert trace["frames"][0] == {
        "stage": 0,
        "cap": 3,
        "nonstar_max": 1,
        "wrote": [1, 1],
        "values": [2],
    }
    assert trace["frames"][-1]["nonstar_max"] is None


def test_escape_is_deterministic():
    q = make_open(0, [], 3, 1)
    oracle = StarOracle(
        {n: n + 1 for n in range(5)},
        {(0, (1,)): False, (1, (0, 0)): False},
        default_star=True,
    )
    first = escape_trace(q, oracle, 1, 4)
    second = escape_trace(q, oracle, 1, 4)
    assert first == second


def test_escape_random_sound_oracles():
    rng = random.Random(502)
    done = 0
    while done < 50:
        q = random_open(rng, max_stem=2, max_value=3, extra=1)
        horizon = rng.randrange(2, 6)
        levels = {n: q.stem + rng.randrange(0, 3) + (0 if n else 0) for n in range(horizon + 1)}
        low = {n for n, d in levels.items() if d <= q.stem}
        labels = {}
        for n in range(horizon + 1):
            if levels[n] <= q.stem + 1 and rng.random() < 0.4:
                depth = levels[n]
                node = tuple(
                    q.g(i) if i < q.stem else rng.randrange(0, q.g(i) + 1)
                    for i in range(depth)
                )
                if levels[n] > q.stem or n in low:
                    labels[(n, node)] = False
        # only keep low-level non-star marks so the construction can close
        labels = {
            (n, node): s for (n, node), s in labels.items() if levels[n] <= q.stem + 1
        }
        oracle = StarOracle(levels, labels, default_star=True)
        I = max(q.max_prefix(), q.g(q.stem))
        try:
            r, M = build_escape_schedule(q, oracle, I, horizon)
        except ScheduleUnsound:
            continue
        assert subset(r, q)
        assert r.stem == q.stem
        f = Point(q.prefix(), min(I, q.g(q.stem)))
        assert member(f, r)
        for m in range(M + 1, horizon + 1):
            for node in nodes_brute(r, levels[m]):
                assert oracle.is_star(m, node)
        done += 1


def test_nonstar_listed_is_the_sorted_scan_of_each_index():
    rng = random.Random(503)
    for _ in range(60):
        labels = {
            (rng.randrange(4), tuple(rng.randrange(3) for _ in range(rng.randrange(0, 4)))): rng.random() < 0.3
            for _ in range(rng.randrange(0, 30))
        }
        oracle = StarOracle({n: 2 for n in range(4)}, labels, default_star=rng.random() < 0.5)
        for n in range(-1, 5):
            want = sorted(node for (m, node), s in labels.items() if m == n and not s)
            assert list(oracle.nonstar_listed(n)) == want


class _CountedLabels(dict):
    """A label table that counts the labels its scans visit."""

    visits = 0

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item

    def __iter__(self):
        for key in super().__iter__():
            self.visits += 1
            yield key


def test_sparse_escape_scans_the_labels_at_most_once():
    """25 indices at depths n + 1 over the stem-0, base-2 open, 201 listed
    non-star labels each: the escape asks nonstar_listed 674 times, which
    once meant a scan of all 5,025 labels per call."""
    q = make_open(0, [], 2, 1)
    labels = {(n, (3 + k,) + (0,) * n): False for n in range(25) for k in range(201)}
    oracle = StarOracle({n: n + 1 for n in range(25)}, labels, default_star=True)
    counted = _CountedLabels(oracle.labels)
    object.__setattr__(oracle, "labels", counted)
    asked = []
    listed = oracle.nonstar_listed
    object.__setattr__(oracle, "nonstar_listed", lambda n: asked.append(n) or listed(n))
    trace = escape_trace(q, oracle, 1, 24)
    assert len(labels) == 5025 and len(asked) == 674
    assert counted.visits <= len(labels)
    assert trace["M"] == 0 and len(trace["frames"]) == 26
