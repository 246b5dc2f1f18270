"""Counterexample labs built on the indexed machine.

The first lab studies the function v whose value at n is the largest k < n
such that every certified-total program below k, on every input below k,
converges within n steps with output below n.  Its range is unbounded (wait
long enough and every finite batch of certified runs finishes) yet any
certified enumeration of members grows slower than the index — the
pair-dominates-components trick makes that an arithmetic fact checked here
run by run.

The second lab probes functionals through finite-support arguments: which
support prefixes a functional can distinguish from the zero function, and
how long a sequence of arguments takes to stabilize under it.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import BadCertificate, BudgetExhausted, NoStabilization, TheoremViolated
from .machine import (
    ARG,
    E0,
    Expr,
    NestingCapped,
    TotalityCertificate,
    _CodeTable,
    alias_certificate,
    apply_free,
    check_proof,
    const,
    decode,
    encode,
    eval_outcome,
    eval_profile,
    node,
    unpair,
)


@dataclass(frozen=True)
class VTrace:
    n: int
    qualifying_ks: tuple[int, ...]
    value: int


_NO_CAP = 1 << 63  # a budget no run reaches: about 290 years at 10**9 steps/s


class ConvergenceCache:
    """Memoized machine runs: the exact (steps, output) of each converged
    run, the largest budget each other run failed within (infinite past the
    nesting cap), and the charge at which a run reaches that cap, so every
    answer is the one a fresh run would give."""

    def __init__(self):
        self._exact: dict[tuple[int, int], tuple[int, int]] = {}
        self._failed: dict[tuple[int, int], float] = {}
        self._nests_past: dict[tuple[int, int], int] = {}

    def run(self, w: int, z: int, budget: int) -> tuple[int, int] | None:
        key = (w, z)
        if key in self._exact:
            steps, out = self._exact[key]
            return (steps, out) if steps < budget else None
        if budget <= self._failed.get(key, 0):
            return None
        try:
            res = eval_outcome(decode(w), z, budget)
        except NestingCapped as capped:
            self._failed[key] = math.inf
            self._nests_past[key] = capped.charge
            return None
        if res is None:
            self._failed[key] = budget
            return None
        out, steps = res
        self._exact[key] = (steps, out)
        return steps, out

    def run_to_convergence(self, w: int, z: int, cap: int | None = None) -> tuple[int, int]:
        """(steps, output) of a run that takes fewer than cap steps, by one
        run at the cap; without a cap, one at a budget no run reaches."""
        budget = _NO_CAP if cap is None else cap
        res = self.run(w, z, budget)
        if res is not None:
            return res
        if budget > self._nests_past.get((w, z), math.inf):
            raise BudgetExhausted(f"program {w} on {z} needs more nesting than the machine allows")
        raise BudgetExhausted(f"program {w} on {z} did not converge within the {budget}-step cap")


_RUNS = ConvergenceCache()


@functools.lru_cache(maxsize=None)
def certified_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """All (certificate, program) pairs below k accepted by the checker."""
    out = []
    for j in range(k):
        p = decode(j)
        if apply_free(p):
            w = encode(p)
            if w < k:
                out.append((j, w))
    return tuple(out)


# _QUALIFY_AT[k] is the least budget n at which every certified run below k
# lands within n steps with output below n; it is non-decreasing in k, which
# is also why the qualifying ks of v form an initial segment.
_QUALIFY_AT: list[int] = [0]


def _worst(k: int, cap: int | None) -> int:
    """1 + the largest step count or output of the certified runs below k."""
    worst = -1
    for _, w in certified_pairs(k):
        for z in range(k):
            worst = max(worst, *_RUNS.run_to_convergence(w, z, cap))
    return worst + 1


def _qualify_threshold(k: int, budget_cap: int | None = None) -> int:
    """_QUALIFY_AT[k], extended as needed.  Under a cap it walks the ks in
    the order a cold table does, skipping those whose threshold is within
    the cap (all their runs fit), so whatever is cached it refuses on the
    same first run that takes budget_cap steps or more."""
    start = len(_QUALIFY_AT) if budget_cap is None else bisect_right(_QUALIFY_AT, budget_cap)
    for kk in range(start, k + 1):
        worst = _worst(kk, budget_cap)
        if kk == len(_QUALIFY_AT):
            _QUALIFY_AT.append(worst)
    return _QUALIFY_AT[k]


def v(n: int, budget_cap: int | None = None) -> VTrace:
    """Largest k < n whose certified runs all land strictly within n.
    BudgetExhausted if a run it waits for takes budget_cap steps or more."""
    if n < 0:
        raise ValueError("v is defined on naturals")
    k = 0
    while k + 1 < n and _qualify_threshold(k + 1, budget_cap) <= n:
        k += 1
    qualifying = tuple(range(k + 1)) if n >= 1 else ()
    return VTrace(n, qualifying, k)


def unbounded_witness(k: int, budget_cap: int | None = None) -> int:
    """An n with v(n).value >= k: wait out every certified run below k.
    BudgetExhausted if one takes budget_cap steps or more."""
    if k < 0:
        raise ValueError("the witness is defined for naturals k")
    return max(k + 1, _qualify_threshold(k, budget_cap))


def pseudobound_scenario(
    x: Expr, N: int, window: int, budget_cap: int | None = None
) -> list[tuple[int, int]]:
    """Run a certified enumeration of v-values past its certificate.

    Requires N to certify x from strictly above x's index; then each entry
    f(n) = v(first component of x(n)) for N < n <= N+window must come out
    at most n, and a violation raises rather than returns.
    """
    w = encode(x)
    if not (check_proof(N, w) and N > w):
        raise BadCertificate(f"{N} does not certify program {w} from strictly above")
    table: list[tuple[int, int]] = []
    for n in range(N + 1, N + window + 1):
        _, out = _RUNS.run_to_convergence(w, n, cap=budget_cap)
        fn = v(unpair(out)[0], budget_cap).value
        if fn > n:
            raise TheoremViolated(f"certified enumeration reached {fn} at index {n}")
        table.append((n, fn))
    return table


def random_scenario(rng: random.Random) -> tuple[Expr, TotalityCertificate]:
    """A certified enumeration program and a strictly-above certificate.

    The first pair component stays within one of the input so the witnessed
    v-argument is never inflated; recursion operators are left out because
    the scenario feeds the program inputs far above its own index.
    """
    first = rng.choice(
        [
            ARG,
            node("pred", ARG),
            node("succ", ARG),
            node("fst", ARG),
            node("if0", ARG, const(rng.randrange(4)), ARG),
        ]
    )
    second = rng.choice(
        [
            const(rng.randrange(4)),
            ARG,
            node("succ", const(rng.randrange(4))),
            node("pair", const(rng.randrange(3)), const(rng.randrange(3))),
            node("snd", ARG),
        ]
    )
    x = node("pair", first, second)
    cert = alias_certificate(x)
    assert cert is not None
    return x, cert


@dataclass(frozen=True)
class FiniteSupportFn:
    """A function on naturals that is 0 beyond an explicit value list."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(self.values)
        for x in vals:
            if not isinstance(x, int) or x < 0:
                raise ValueError("finite-support values are naturals")
        while vals and vals[-1] == 0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)

    def value(self, i: int) -> int:
        return self.values[i] if i < len(self.values) else 0

    def program(self) -> Expr:
        """Nested zero-test lookup program computing this function (the
        one index() kept, if it kept one)."""
        built = _PROGRAMS.entries.get(self.values)
        if built is not None:
            return built
        body: Expr = const(0)
        probe: Expr = ARG
        chain: list[tuple[Expr, int]] = []
        for i, val in enumerate(self.values):
            chain.append((probe, val))
            probe = node("pred", probe)
        for test, val in reversed(chain):
            body = node("if0", test, const(val), body)
        return body

    def index(self) -> int:
        prog = self.program()
        code = encode(prog)
        _PROGRAMS.add(self.values, prog)
        return code


# Lookup programs by their values, kept when encode has stored their codes
# on them, so that every later index() of the same function is O(1).
_PROGRAMS = _CodeTable()

ZERO_FN = FiniteSupportFn(())


def apply_functional(z: Expr, g: Expr | FiniteSupportFn, budget: int) -> int:
    """Run the functional z on the index of g."""
    idx = g.index() if isinstance(g, FiniteSupportFn) else encode(g)
    res = eval_profile(z, idx, budget)
    if res is None:
        raise BudgetExhausted(f"functional probe did not converge within {budget} steps")
    return res[0]


def support_candidates(
    m: int, support_bound: int, value_bound: int
) -> Iterator[FiniteSupportFn]:
    """Finite-support functions vanishing below m, in dovetail order:
    support end position ascending, then values lexicographically."""
    for last in range(m, support_bound + 1):
        for combo in product(range(value_bound), repeat=last - m + 1):
            if combo[-1] == 0:
                continue
            yield FiniteSupportFn((0,) * m + combo)


def least_distinguishing_fn(
    z: Expr, m: int, support_bound: int, value_bound: int, budget: int
) -> FiniteSupportFn | None:
    baseline = apply_functional(z, ZERO_FN, budget)
    for g in support_candidates(m, support_bound, value_bound):
        if apply_functional(z, g, budget) != baseline:
            return g
    return None


def enumerate_Az(
    z: Expr, support_bound: int, value_bound: int, budget: int
) -> set[int]:
    """Prefix lengths at which the functional can still see past the zeros.

    Always contains 0; contains m when some finite-support argument that
    vanishes below m gets a different answer than the zero function.  Exact
    whenever the functional only probes within the searched window.

    An argument that vanishes below m also vanishes below every smaller m,
    so the answer is {0..m*} for the largest such m*.  The search runs m
    from support_bound down and stops at the first hit; at each m it
    probes only the arguments nonzero at m, because the others were probed
    one level up.  Every probe it makes, the bottom-up search over all m
    makes too, so it raises BudgetExhausted only where that search would:
    when the zero argument, or a probe made before the hit, does not
    converge within the budget.
    """
    if support_bound < 0:
        return {0}
    baseline = apply_functional(z, ZERO_FN, budget)
    for m in range(support_bound, 0, -1):
        for g in support_candidates(m, support_bound, value_bound):
            if g.value(m) and apply_functional(z, g, budget) != baseline:
                return set(range(m + 1))
    return {0}


def make_F_beta(beta: Expr, m: int) -> Expr:
    """The functional answering 0 on arguments vanishing at m+1 and feeding
    the (shifted) probed value through beta otherwise."""
    probe = node("apply", ARG, const(m + 1))
    return node(
        "if0",
        probe,
        const(0),
        node("apply", const(encode(beta)), node("pred", probe)),
    )


def seq_continuity_bound(
    z: Expr, g_seq: Sequence[Expr], g: Expr, budget: int
) -> int:
    """Least index past which z answers the listed arguments like g.

    Finite-evidence version: the supplied list is all we look at, and a
    mismatch at the very end means no stabilization was exhibited.
    """
    target = apply_functional(z, g, budget)
    outs = [apply_functional(z, gi, budget) for gi in g_seq]
    if outs and outs[-1] != target:
        raise NoStabilization("the last listed argument still disagrees")
    bound = 0
    for i, o in enumerate(outs):
        if o != target:
            bound = i + 1
    return bound
