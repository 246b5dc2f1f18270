"""Independent reference implementations and samplers shared by the suites.

Everything here is deliberately naive: membership by pointwise scanning,
node enumeration by cartesian products, v by the literal triple search,
periodic-set membership by bit simulation.  The library is never trusted
to check itself; these are the other side of every equivalence test.
"""

from __future__ import annotations

import random
from itertools import product
from math import isqrt

from boundlab.machine import (
    ARG,
    ARITY,
    OPS,
    Expr,
    NestingCapped,
    OutOfFuel,
    apply_free,
    const,
    decode,
    encode,
    eval_outcome,
    eval_profile,
    pair,
    unpair,
)
from boundlab import machine, realizability
from boundlab.realizability import least_distinguishing_fn
from boundlab.seq_opens import BasicOpen, Open, Point, is_empty, make_open
from boundlab.set_opens import PeriodicSet, SetOpen
from boundlab.terms import RangeTerm


# --- sequence-space points and opens --------------------------------------

def member_brute(f: Point, o: Open) -> bool:
    """Pointwise membership scan; sound because both sides stabilize."""
    if is_empty(o):
        return False
    H = max(len(f.prefix), o.stem)
    for n in range(H):
        if n < o.stem:
            if f.value(n) != o.g(n):
                return False
        elif f.value(n) > o.g(n):
            return False
    # beyond H the point is constant and the schedule is non-decreasing
    return f.tail_value <= o.g(H)


def nodes_brute(o: BasicOpen, depth: int) -> list[tuple[int, ...]]:
    """All length-`depth` sequences compatible with o, smallest first."""
    ranges = []
    for i in range(depth):
        if i < o.stem:
            ranges.append([o.g(i)])
        else:
            ranges.append(list(range(o.g(i) + 1)))
    return [tuple(t) for t in product(*ranges)]


def sample_point_in(rng: random.Random, o: BasicOpen) -> Point:
    L = o.stem + rng.randrange(0, 4)
    prefix = [o.g(i) for i in range(o.stem)]
    prefix += [rng.randrange(0, o.g(i) + 1) for i in range(o.stem, L)]
    return Point(tuple(prefix), rng.randrange(0, o.g(L) + 1))


def sample_point_near(rng: random.Random, o: BasicOpen) -> Point:
    """A point related to o but possibly outside it."""
    f = sample_point_in(rng, o)
    if rng.random() < 0.5:
        prefix = list(f.prefix) or [0]
        slot = rng.randrange(len(prefix))
        prefix[slot] += rng.choice([-1, 1, 2])
        if prefix[slot] < 0:
            prefix[slot] = 0
        return Point(tuple(prefix), f.tail_value)
    return Point(f.prefix, f.tail_value + rng.randrange(0, 4))


def random_open(
    rng: random.Random,
    max_stem: int = 3,
    max_value: int = 6,
    extra: int = 2,
    max_slope: int = 2,
) -> BasicOpen:
    stem = rng.randrange(0, max_stem + 1)
    prefix = [rng.randrange(0, max_value + 1) for _ in range(stem)]
    cur = max(prefix, default=0) + rng.randrange(0, 2)
    tail_part = []
    for _ in range(rng.randrange(0, extra + 1)):
        tail_part.append(cur)
        cur += rng.randrange(0, 3)
    slope = rng.randrange(1, max_slope + 1)
    base = cur + rng.randrange(0, 2)
    return make_open(stem, prefix + tail_part, base, slope)


def random_range_term(rng: random.Random, o: BasicOpen, modulus: int) -> RangeTerm:
    table = {}
    for node in nodes_brute(o, modulus):
        w = rng.randrange(modulus)
        table[node] = (node[w], w)
    return RangeTerm(modulus, table)


# --- brute search over lowered schedules ----------------------------------

def lowered_windows(o: BasicOpen, t: RangeTerm, I: int, M: int) -> list[tuple[int, ...]]:
    """Every schedule window that solves the bounding problem at (t, I, M).

    A window is g restricted to [0, upto) with upto = max(modulus, M+1);
    it must copy o's schedule below M, stay under it everywhere, be
    monotone from the stem, reach at least I at M, and admit no
    full-depth node with table value above I.
    """
    upto = max(t.modulus, M + 1)
    ranges = []
    for i in range(upto):
        if i < M:
            ranges.append([o.g(i)])
        else:
            lo = I if i == M else 0
            ranges.append(list(range(lo, o.g(i) + 1)))
    out = []
    for cand in product(*ranges):
        if not all(cand[i] <= cand[i + 1] for i in range(o.stem, upto - 1)):
            continue
        if 0 < o.stem < upto and cand[o.stem] < max(cand[:o.stem]):
            continue
        node_ranges = [
            [cand[i]] if i < o.stem else list(range(cand[i] + 1))
            for i in range(t.modulus)
        ]
        if all(t.value_at(nd) <= I for nd in (tuple(x) for x in product(*node_ranges))):
            out.append(cand)
    return out


# --- the machine's evaluator, one frame for the depth and one per node ----

_MAX_DEPTH = 384


class _Fuel:
    __slots__ = ("remaining", "depth")

    def __init__(self, budget: int):
        self.remaining = budget
        self.depth = 0

    def charge(self, result: int) -> int:
        self.remaining -= max(1, result.bit_length())
        if self.remaining <= 0:
            raise OutOfFuel
        return result

    def charge_pair(self, a: int, b: int) -> int:
        # A pair has about 2*max(bits) bits; refuse to materialize giants the
        # budget could never pay for.  Triggers only where the exact charge
        # would exhaust the budget anyway, so observable results are unchanged.
        hi = max(a.bit_length(), b.bit_length())
        if hi > 64 and 2 * hi - 2 >= self.remaining:
            raise OutOfFuel
        return self.charge(pair(a, b))


def _eval(e: Expr, z: int, fuel: _Fuel) -> int:
    fuel.depth += 1
    if fuel.depth > _MAX_DEPTH:
        raise NestingCapped
    try:
        return _eval_node(e, z, fuel)
    finally:
        fuel.depth -= 1


def _eval_node(e: Expr, z: int, fuel: _Fuel) -> int:
    op = e.op
    if op == "arg":
        return fuel.charge(z)
    if op == "const":
        return fuel.charge(e.value)
    if op == "succ":
        return fuel.charge(_eval(e.args[0], z, fuel) + 1)
    if op == "pred":
        return fuel.charge(max(_eval(e.args[0], z, fuel) - 1, 0))
    if op == "pair":
        a = _eval(e.args[0], z, fuel)
        b = _eval(e.args[1], z, fuel)
        return fuel.charge_pair(a, b)
    if op == "fst":
        return fuel.charge(unpair(_eval(e.args[0], z, fuel))[0])
    if op == "snd":
        return fuel.charge(unpair(_eval(e.args[0], z, fuel))[1])
    if op == "comp":
        inner = _eval(e.args[1], z, fuel)
        return fuel.charge(_eval(e.args[0], inner, fuel))
    if op == "if0":
        cond = _eval(e.args[0], z, fuel)
        branch = e.args[1] if cond == 0 else e.args[2]
        return fuel.charge(_eval(branch, z, fuel))
    if op == "primrec":
        acc = _eval(e.args[0], 0, fuel)
        for k in range(z):
            acc = _eval(e.args[1], fuel.charge_pair(k, acc), fuel)
        return fuel.charge(acc)
    if op == "bmin":
        bound = _eval(e.args[1], z, fuel)
        result = bound + 1
        for k in range(bound + 1):
            if _eval(e.args[0], fuel.charge_pair(k, z), fuel) == 0:
                result = k
                break
        return fuel.charge(result)
    # apply: evaluate both sides, pay to decode the index, run the body
    w = _eval(e.args[0], z, fuel)
    x = _eval(e.args[1], z, fuel)
    fuel.charge(w)
    return fuel.charge(_eval(decode(w), x, fuel))


def eval_reference(e: Expr, z: int, budget: int) -> tuple[int, int] | None:
    """eval_outcome with the nesting depth kept on the fuel and restored
    by a try/finally around every node."""
    if budget <= 0:
        return None
    fuel = _Fuel(budget)
    try:
        value = _eval(e, z, fuel)
    except OutOfFuel:
        return None
    return value, budget - fuel.remaining


# --- the certified-convergence function, literally ------------------------

def brute_v(n: int) -> int:
    """Top-down search for the answer; no monotonicity assumptions."""
    for k in range(n - 1, 0, -1):
        ok = True
        for j in range(k):
            p = decode(j)
            if not apply_free(p):
                continue
            w = encode(p)
            if w >= k:
                continue
            for z in range(k):
                res = eval_profile(decode(w), z, n)
                if res is None or res[0] >= n or res[1] >= n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return k
    return 0


def _threshold_reference(k: int, cap: int | None) -> int | None:
    """1 + the largest step count or output of the certified runs below k,
    each made afresh by eval_outcome at the cap (without one, at 2**63
    steps); None when one takes cap steps or more or passes the nesting cap."""
    worst = -1
    for j in range(k):
        p = decode(j)
        if not apply_free(p) or encode(p) >= k:
            continue
        for z in range(k):
            try:
                res = eval_outcome(p, z, 1 << 63 if cap is None else cap)
            except NestingCapped:
                return None
            if res is None:
                return None
            worst = max(worst, *res)
    return worst + 1


def witness_reference(k: int, cap: int | None = None) -> int | None:
    """unbounded_witness(k, cap), or None where it must refuse."""
    threshold = _threshold_reference(k, cap)
    return None if threshold is None else max(k + 1, threshold)


def v_reference(n: int, cap: int | None = None) -> int | None:
    """v(n, cap).value, or None where it must refuse: when a certified run
    below the largest k it looks at (one past the answer, and below n)
    takes cap steps or more."""
    k = 0
    while k + 1 < n and _threshold_reference(k + 1, None) <= n:
        k += 1
    looked_at = min(k + 1, n - 1)
    if looked_at > 0 and _threshold_reference(looked_at, cap) is None:
        return None
    return k


def cold_fp_lab() -> None:
    """Empty the fp lab's caches and the tables of known codes, as a fresh
    process has them."""
    realizability._RUNS = realizability.ConvergenceCache()
    realizability._QUALIFY_AT[:] = [0]
    realizability.certified_pairs.cache_clear()
    realizability._PROGRAMS = machine._CodeTable()
    machine._CODES = machine._CodeTable()


# --- the numbering and the support search, without shortcuts -------------

def unpair_reference(c: int) -> tuple[int, int]:
    """Cantor unpairing by one isqrt and one squaring, as `unpair` does it."""
    s = (isqrt(8 * c + 1) - 1) // 2
    b = c - (s * s + s >> 1)
    return s - b, b


def decode_reference(code: int) -> Expr:
    """The numbering read by plain recursion, with no table of known codes."""
    payload, tag = divmod(code, 12)
    op = OPS[tag]
    if op == "arg":
        return ARG
    if op == "const":
        return const(payload)
    if ARITY[op] == 1:
        return Expr(op, (decode_reference(payload),))
    if op == "if0":
        c, rest = unpair_reference(payload)
        a, b = unpair_reference(rest)
        return Expr(op, (decode_reference(c), decode_reference(a), decode_reference(b)))
    left, right = unpair_reference(payload)
    return Expr(op, (decode_reference(left), decode_reference(right)))


def cantor_pair(a: int, b: int) -> int:
    """The textbook Cantor pairing."""
    return (a + b) * (a + b + 1) // 2 + b


def encode_reference(e: Expr, alias: list[bool] | None = None) -> int:
    """The numbering by plain recursion and the textbook pairing, with no
    table and no stored codes.  With alias=[False], the first argument node
    in preorder is coded 12 instead of 0 and alias[0] turns True."""
    if e.op == "arg":
        if alias is not None and not alias[0]:
            alias[0] = True
            return 12
        return 0
    if e.op == "const":
        return e.value * 12 + 1
    kids = [encode_reference(a, alias) for a in e.args]
    if len(kids) == 1:
        payload = kids[0]
    elif len(kids) == 2:
        payload = cantor_pair(*kids)
    else:
        payload = cantor_pair(kids[0], cantor_pair(kids[1], kids[2]))
    return payload * 12 + OPS.index(e.op)


def alias_reference(e: Expr) -> int | None:
    """alias_certificate's derivation code, or None when e has no argument node."""
    found = [False]
    code = encode_reference(e, found)
    return code if found[0] else None


def enumerate_Az_bottom_up(z: Expr, support_bound: int, value_bound: int, budget: int) -> set[int]:
    """Every m from 0 up, each searched on its own from the first candidate."""
    out = {0}
    for m in range(support_bound + 1):
        if least_distinguishing_fn(z, m, support_bound, value_bound, budget) is not None:
            out.add(m)
    return out


# --- eventually periodic sets ---------------------------------------------

def pset_bit_brute(X: PeriodicSet, n: int) -> int:
    if n < len(X.prefix):
        return X.prefix[n]
    return X.period[(n - len(X.prefix)) % len(X.period)]


def random_pset(rng: random.Random, unbounded: bool = False) -> PeriodicSet:
    prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
    d = rng.randrange(1, 5)
    period = tuple(rng.randrange(2) for _ in range(d))
    if unbounded and 1 not in period:
        pos = rng.randrange(d)
        period = period[:pos] + (1,) + period[pos + 1:]
    return PeriodicSet(prefix, period)


def random_setopen(rng: random.Random, nonempty: bool = True) -> SetOpen:
    N = random_pset(rng)
    if nonempty:
        while N.is_cofinite():
            N = random_pset(rng)
    P = frozenset(rng.randrange(10) for _ in range(rng.randrange(0, 4)))
    return SetOpen(P, N)
