"""The shared node core of seq_opens: one enumerator, one compatibility
test, one counter and one schedule rewrite, checked against brute force."""

import random
from itertools import product

from boundlab.seq_opens import compatible, compatible_nodes, count_nodes, schedule_of

from oracles import nodes_brute, random_open


def test_compatible_nodes_is_brute_enumeration_under_a_cap():
    rng = random.Random(811)
    for _ in range(150):
        o = random_open(rng, max_value=4)
        depth = rng.randrange(0, o.stem + 4)
        cap = rng.choice([None, rng.randrange(0, 6)])
        brute = [n for n in nodes_brute(o, depth) if cap is None or all(v <= cap for v in n)]
        assert list(compatible_nodes(o, depth, cap)) == brute
        assert count_nodes(o, depth, cap) == len(brute)


def test_compatible_holds_exactly_for_listed_nodes():
    rng = random.Random(812)
    for _ in range(150):
        o = random_open(rng, max_value=3)
        cap = rng.choice([None, rng.randrange(0, 5)])
        # short nodes, nodes at the stem, and nodes reaching past the
        # explicit schedule; entries run one past the schedule value
        depth = rng.randrange(0, max(o.stem, len(o.schedule.explicit)) + 3)
        listed = set(compatible_nodes(o, depth, cap))
        for node in product(*(range(o.g(i) + 2) for i in range(depth))):
            assert compatible(o, node, cap) == (node in listed), (o, node, cap)


def test_overwrite_values_past_the_explicit_part():
    rng = random.Random(813)
    for _ in range(200):
        explicit = sorted(rng.randrange(0, 6) for _ in range(rng.randrange(0, 4)))
        g = schedule_of(explicit, rng.randrange(6, 9), rng.randrange(1, 3))
        start = rng.randrange(0, 7)
        entries = [rng.randrange(0, 9) for _ in range(rng.randrange(0, 4))]
        h = g.overwrite(start, entries)
        assert h.tail_slope == g.tail_slope
        for n in range(start + len(entries) + len(explicit) + 6):
            want = entries[n - start] if start <= n < start + len(entries) else g.value(n)
            assert h.value(n) == want, (g, start, entries, n)
