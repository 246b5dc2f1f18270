"""A small indexed computation model with step-counted evaluation.

Programs are first-order expressions over naturals: the argument, constants,
successor/predecessor, a monotone pairing with projections, composition,
branching on zero, primitive recursion, bounded minimization, and a general
application escape hatch (the only source of partiality).  Every natural
decodes to a program and every program has a canonical index; the numbering
is surjective but not injective, which is what makes non-canonical
certificate codes possible.

Cost model (normative): evaluating a node charges max(1, bit_length(result))
once its result is known, children first.  The internal pairs built by
primitive recursion and bounded minimization are charged like pair nodes,
and application additionally charges max(1, bit_length(w)) to decode the
applied index w.  A run "converges within budget b" when the total charge
is strictly below b.  Evaluation nesting is capped at 384 levels; a run
that needs more is reported as non-convergent at every budget (the cap is
part of the machine, so results stay a pure function of (w, z, budget)).
"""

from __future__ import annotations

from collections import OrderedDict
from math import isqrt

from ._record import record


def pair(a: int, b: int) -> int:
    """Cantor pairing; monotone in both arguments, pair(a,b) >= a, b."""
    s = a + b
    return (s * s + s >> 1) + b  # s * s takes CPython's faster squaring


def _shift(a: int, b: int, da: int, db: int) -> int:
    """pair(a + da, b + db) - pair(a, b), by Cantor pairing's finite
    difference: with s = a + b and d = da + db it is d(2s + d + 1)/2 + db,
    and the product is even.  A short d so costs one short product, not a
    squaring.  A long d needs no fallback: the one product still costs less
    than pairing both codes afresh, which squares twice."""
    d = da + db
    if not d:  # the same diagonal
        return db
    return (d * (2 * (a + b) + d + 1) >> 1) + db


# Below this many bits _sqrtrem is isqrt and one squaring, and _div2n1n is
# divmod; above it, the recursions beat isqrt's and divmod's schoolbook
# division, whose cost in CPython 3.11 grows quadratically with the size.
_SQRT_FLOOR_BITS = 4096


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for a b of exactly n bits and a < 2**n * b, by
    Burnikel and Ziegler's recursive division (MPI-I-98-1-022): two
    divisions of 3 half-size digits by 2, each of which divides 2 digits
    by 1 one level down."""
    if n <= _SQRT_FLOOR_BITS:
        return divmod(a, b)
    pad = n & 1  # halves must be whole: scale an odd n up by one bit
    if pad:
        a <<= 1
        b <<= 1
        n += 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 << h | a3, b) for b = b1 << h | b2 with b1 of exactly h
    bits and a12 < b: the quotient of the top digits by b1, corrected by at
    most two steps down."""
    if a12 >> h == b1:  # the estimate would be 2**h or more: take the largest digit
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s*s) with s = isqrt(n), by Zimmermann's Karatsuba square root
    (INRIA RR-3805): the root of the top half, then one division of half the
    size.  The top half keeps at least 2k bits, so its root is at least
    2**(k-1) and one correction suffices; since the remainder r1 is at most
    2*s1, the dividend is below 2**m times the m-bit divisor 2*s1, as
    _div2n1n needs."""
    bits = n.bit_length()
    if bits < _SQRT_FLOOR_BITS:
        s = isqrt(n)
        return s, n - s * s
    k = bits >> 2
    mask = (1 << k) - 1
    s1, r1 = _sqrtrem(n >> 2 * k)
    d = s1 << 1
    q, u = _div2n1n(r1 << k | (n >> k) & mask, d, d.bit_length())
    s = (s1 << k) + q
    r = (u << k | n & mask) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    return s, r


def unpair(c: int) -> tuple[int, int]:
    """Cantor unpairing, read off the remainder of one exact square root:
    8c + 1 - t*t is 8b when t = 2s + 1, and 8b - 2t + 1 when t = 2s + 2,
    so no second squaring is needed."""
    t, r = _sqrtrem(8 * c + 1)
    s = (t - 1) >> 1
    b = r >> 3 if t & 1 else (r + 2 * t - 1) >> 3
    return s - b, b


def _split(dP: int, a: int, b: int) -> tuple[int, int]:
    """unpair(pair(a, b) + dP) less (a, b): how a pair's children move when
    its code moves by dP, the inverse of _shift.  Let s = a + b and
    T(x) = x(x + 1)/2, so that pair(a, b) = T(s) + b, and let r = dP + b,
    the moved code's offset from T(s).  unpair finds the s + d with
    T(s + d) - T(s) <= r < T(s + d + 1) - T(s), and
    T(s + d) - T(s) = d(s + 1) + d(d - 1)/2 with d(d - 1) >= 0, so
    r // (s + 1) never falls short of d: stepping down from it to the
    first d whose offset is at most r is exact whatever a and b are.  Only
    numbers of the size of dP, d and s are formed, never the code itself.
    A d with more than half the bits of s is unpaired afresh, the code
    computed only then; within that, at most two steps are taken."""
    if not dP:  # the pair itself: its children do not move
        return 0, 0
    s = a + b
    s1, r, n = s + 1, dP + b, s.bit_length()
    # d has at least r's bits less s + 1's: a far code pays no division
    if 2 * (r.bit_length() - s1.bit_length()) <= n:
        d, rest = divmod(r, s1)
        if 2 * d.bit_length() <= n:
            b2 = rest - (d * d - d >> 1)  # r - (T(s + d) - T(s)): b's value on diagonal s + d
            while b2 < 0:
                d -= 1
                b2 += s1 + d
            db = b2 - b
            return d - db, db
    a2, b2 = unpair(pair(a, b) + dP)
    return a2 - a, b2 - b


OPS = (
    "arg", "const", "succ", "pred", "pair", "fst", "snd",
    "comp", "if0", "primrec", "bmin", "apply",
)
TAG = {op: i for i, op in enumerate(OPS)}
ARITY = {
    "arg": 0, "const": 0, "succ": 1, "pred": 1, "pair": 2, "fst": 1,
    "snd": 1, "comp": 2, "if0": 3, "primrec": 2, "bmin": 2, "apply": 2,
}


@record
class Expr:
    op: str
    args: tuple[Expr, ...] = ()
    value: int = 0
    # The node's code, stored by encode when it records the node, and for an
    # if0 the inner pair of its then and else codes, stored with it.  Not
    # fields, so ==, hash and repr do not see them.
    _code = None
    _inner = None

    def __post_init__(self):
        if self.op not in ARITY:
            raise ValueError(f"unknown operation {self.op!r}")
        if len(self.args) != ARITY[self.op]:
            raise ValueError(f"{self.op} takes {ARITY[self.op]} arguments")


ARG = Expr("arg")


def const(n: int) -> Expr:
    if n < 0:
        raise ValueError("constants are naturals")
    return Expr("const", (), n)


def node(op: str, *args: Expr) -> Expr:
    return Expr(op, tuple(args))


E0 = const(0)
SUCC = node("succ", ARG)
LOOPER = node("apply", ARG, ARG)


# Codes of at least _TABLE_MIN_BITS bits that encode has produced, with their
# programs, so that decode can skip unpairing them; each code is also stored
# on its node, so that encode can skip walking below it.  Only programs that
# decode would rebuild field for field go in, so a hit returns an equal
# program; charges depend on bit lengths alone and do not move.  A code is
# kept under a short fingerprint of it (_key), and a hit counts only when
# the node's stored code is the code looked up (_lookup).
_TABLE_MIN_BITS = 1024
_TABLE_MAX_BITS = 1 << 23
_TABLE_MIN_CODE = 1 << (_TABLE_MIN_BITS - 1)  # least code of that many bits
_KEY_BITS = 48
_KEY_MASK = (1 << _KEY_BITS) - 1


class _CodeTable:
    """Nodes that carry their codes, under any keys, oldest first.  Their
    own codes hold at most _TABLE_MAX_BITS bits in all; the oldest entries
    make room for new ones.  The bound counts each entry's own _code only,
    not the codes and inner pairs stored on the nodes below it: a lookup
    program kept by FiniteSupportFn.index() holds about twice its root
    code's bits on its nodes."""

    __slots__ = ("entries", "bits")

    def __init__(self):
        self.entries: OrderedDict[object, Expr] = OrderedDict()
        self.bits = 0

    def add(self, key: object, e: Expr) -> None:
        """Keep e under key, if e carries a code and key holds no node with
        that code.  A node with another code under key makes way for e."""
        code = e._code
        if code is None:
            return
        old = self.entries.get(key)
        if old is not None:
            if old._code == code:
                return
            del self.entries[key]
            self.bits -= old._code.bit_length()
        bits = code.bit_length()
        while self.bits + bits > _TABLE_MAX_BITS:
            self.bits -= self.entries.popitem(last=False)[1]._code.bit_length()
        self.entries[key] = e
        self.bits += bits


def _key(c: int) -> int:
    """c's key in _CODES, for c of at least _KEY_BITS bits: its length, its
    top _KEY_BITS bits and its low ones.  hash(c) reads every digit of c;
    this reads a few.  The low bits alone would not do: each unary node
    multiplies its child's code by 12, so above 24 of them the low 48 bits
    no longer depend on the code below, while the top bits still do."""
    n = c.bit_length()
    return (n << _KEY_BITS | c >> n - _KEY_BITS) << _KEY_BITS | c & _KEY_MASK


def _lookup(c: int) -> Expr | None:
    """The node _CODES holds for c.  Distinct codes may share a key, so a
    hit counts only when the node's own code is c; a miss is unpaired."""
    n = _CODES.entries.get(_key(c))
    return n if n is not None and n._code == c else None


_CODES = _CodeTable()


def _decodes_to_itself(e: Expr) -> bool:
    """Are e's own fields the ones decode gives the node with its code?"""
    if type(e) is not Expr or type(e.args) is not tuple:
        return False
    if e.op == "const":
        return type(e.value) is int and e.value >= 0
    return e.value == 0


def encode(e: Expr) -> int:
    """Canonical index: payload * 12 + tag, payloads paired left to right.

    Iterative, so a program's depth is limited by memory, not by the host
    stack.  Codes big enough for decode's table are recorded there and
    stored on their nodes, an if0's with its inner pair; a later encode
    takes a stored code instead of walking below it.
    """
    order = []  # every walked node before its children, last child first
    todo = [e]
    while todo:
        n = todo.pop()
        order.append(n)
        if n.args and n._code is None:
            todo.extend(n.args)
    # canonical codes the table may take, with an if0's inner pair if made here
    big: list[tuple[Expr, int, int | None]] = []
    codes: list[int] = []  # finished subtrees, leftmost child deepest
    for n in reversed(order):
        k = len(n.args)
        if not k:
            codes.append(n.value * 12 + 1 if n.op == "const" else 0)
            continue
        code, inner = n._code, None
        if code is None:  # the payload pairs the child codes left to right
            payload = codes.pop()
            if k == 3:
                payload = inner = pair(codes.pop(), payload)
            if k > 1:
                payload = pair(codes.pop(), payload)
            code = payload * 12 + TAG[n.op]
        if code >= _TABLE_MIN_CODE:
            big.append((n, code, inner))
        codes.append(code)
    # Stored only now, so that a node met twice is walked alike both times.
    if big and all(map(_decodes_to_itself, order)):
        for n, code, inner in big:
            if code.bit_length() <= _TABLE_MAX_BITS:
                _set_field(n, "_code", code)
                if inner is not None:
                    _set_field(n, "_inner", inner)
                _CODES.add(_key(code), n)
    return codes[0]


_new_object = object.__new__
_set_field = object.__setattr__


def _built(op: str, args: tuple[Expr, ...], value: int = 0) -> Expr:
    """An Expr for fields decode has made valid.  It skips the checks of
    __post_init__, which cost as much as the rest of the construction."""
    e = _new_object(Expr)
    _set_field(e, "op", op)
    _set_field(e, "args", args)
    _set_field(e, "value", value)
    return e


def decode(code: int, levels: int | None = None) -> Expr:
    """Total inverse-ish of encode: every natural is some program.

    Iterative like encode; codes encode has recorded are looked up instead
    of unpaired.  With levels, nodes more than that many levels below the
    root are left as ARG and not unpaired: a run of the result from nesting
    level _MAX_DEPTH - levels hits the cap on entering them, before it
    reads them.
    """
    if code < 0:
        raise ValueError("indices are naturals")
    if levels is not None and 2 * code.bit_length() > 7 * levels:
        return _decode_cut(code, levels)
    order: list[Expr | str] = []  # finished leaves, or the op of an inner node
    todo = [code]
    while todo:
        c = todo.pop()
        if c >= _TABLE_MIN_CODE:
            hit = _lookup(c)
            if hit is not None:
                order.append(hit)
                continue
        payload, tag = divmod(c, 12)
        if tag == 0:
            order.append(ARG)
        elif tag == 1:
            order.append(_built("const", (), payload))
        else:
            op = OPS[tag]
            order.append(op)
            if ARITY[op] == 1:
                todo.append(payload)
            elif op == "if0":
                cond, rest = unpair(payload)
                todo.append(cond)
                todo.extend(unpair(rest))
            else:
                todo.extend(unpair(payload))
    return _assemble(order)


def _decode_cut(code: int, levels: int) -> Expr:
    """decode(code, levels) for a code that may reach past the cut.  Each
    level multiplies a code by 12 or more, so a code of at most 3.5k bits,
    below 12**k, has no node more than k levels below it: such a subtree is
    decoded whole, and only the nodes above them are unpaired here, one at
    a time."""
    order: list[Expr | str] = []
    todo = [(code, levels)]  # codes still to decode, each with the levels left below it
    while todo:
        c, left = todo.pop()
        if 2 * c.bit_length() <= 7 * left:
            order.append(decode(c))
            continue
        if left < 0:
            order.append(ARG)
            continue
        hit = _lookup(c) if c >= _TABLE_MIN_CODE else None
        if hit is not None:
            order.append(hit)
            continue
        payload, tag = divmod(c, 12)
        if tag < 2:
            order.append(_built("const", (), payload) if tag else ARG)
            continue
        op = OPS[tag]
        order.append(op)
        if ARITY[op] == 1:
            kids = (payload,)
        elif op == "if0":
            cond, rest = unpair(payload)
            kids = (cond, *unpair(rest))
        else:
            kids = unpair(payload)
        todo.extend((k, left - 1) for k in kids)
    return _assemble(order)


def _assemble(order: list[Expr | str]) -> Expr:
    """The program whose nodes order lists root first, each inner node by
    its op, with its children's subtrees after it, leftmost first."""
    built: list[Expr] = []  # finished subtrees, leftmost child deepest
    for item in reversed(order):
        if type(item) is str:
            k = ARITY[item]
            args = tuple(built[-k:])
            del built[-k:]
            item = _built(item, args)
        built.append(item)
    return built[0]


def format_program(e: Expr) -> str:
    out = []
    todo: list[Expr | str] = [e]  # nodes still to print, and closing text
    while todo:
        n = todo.pop()
        if type(n) is str:
            out.append(n)
        elif n.op == "arg":
            out.append("arg")
        elif n.op == "const":
            out.append(f"(const {n.value})")
        else:
            out.append("(" + n.op)
            todo.append(")")
            for a in reversed(n.args):
                todo.append(a)
                todo.append(" ")
    return "".join(out)


def parse_program(text: str) -> Expr:
    """Read program text; iterative, so nesting depth is limited by memory."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    end = len(tokens)
    pos = 0
    open_ops: list[tuple[str, list[Expr]]] = []  # operations still missing arguments
    while True:
        if pos >= end:
            raise ValueError("unexpected end of program text")
        tok = tokens[pos]
        pos += 1
        if tok == "arg":
            e = ARG
        elif tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        else:
            if pos >= end:
                raise ValueError("unexpected end of program text")
            op = tokens[pos]
            pos += 1
            if op != "const":
                if op not in ARITY or ARITY[op] == 0:
                    raise ValueError(f"unknown operation {op!r}")
                open_ops.append((op, []))
                continue
            if pos >= end or not tokens[pos].isdigit():
                raise ValueError("const needs a numeral")
            e = const(int(tokens[pos]))
            pos += 1
            if pos >= end or tokens[pos] != ")":
                raise ValueError("missing closing parenthesis")
            pos += 1
        # e is complete: hand it up, closing every operation it completes
        while open_ops:
            op, args = open_ops[-1]
            args.append(e)
            if len(args) < ARITY[op]:
                break
            open_ops.pop()
            e = Expr(op, tuple(args))
            if pos >= end or tokens[pos] != ")":
                raise ValueError("missing closing parenthesis")
            pos += 1
        else:
            if pos != end:
                raise ValueError("trailing tokens after program")
            return e


class OutOfFuel(Exception):
    """Internal: the step budget ran out mid-evaluation."""


class NestingCapped(Exception):
    """The run needs more nesting than the cap allows.  It then fails at
    every budget: a larger one replays the run up to the same point, and a
    smaller one runs out there or before.  eval_outcome sets its charge to
    the steps charged up to that point, which every budget above it pays."""


_MAX_DEPTH = 384


class _Fuel:
    __slots__ = ("remaining",)

    def __init__(self, budget: int):
        self.remaining = budget

    def charge(self, result: int) -> int:
        self.remaining -= result.bit_length() or 1
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


def _eval(e: Expr, z: int, fuel: _Fuel, depth: int) -> int:
    """e's value on z, where depth is e's nesting level: 1 for the run's
    root, one more than the level of the node whose run holds e's."""
    if depth > _MAX_DEPTH:
        raise NestingCapped
    op = e.op
    if op == "arg":
        return fuel.charge(z)
    if op == "const":
        return fuel.charge(e.value)
    args = e.args
    depth += 1  # the depth of e's children
    if op == "succ":
        return fuel.charge(_eval(args[0], z, fuel, depth) + 1)
    if op == "pred":
        return fuel.charge(max(_eval(args[0], z, fuel, depth) - 1, 0))
    if op == "pair":
        a = _eval(args[0], z, fuel, depth)
        b = _eval(args[1], z, fuel, depth)
        return fuel.charge_pair(a, b)
    if op == "fst":
        return fuel.charge(unpair(_eval(args[0], z, fuel, depth))[0])
    if op == "snd":
        return fuel.charge(unpair(_eval(args[0], z, fuel, depth))[1])
    if op == "comp":
        inner = _eval(args[1], z, fuel, depth)
        return fuel.charge(_eval(args[0], inner, fuel, depth))
    if op == "if0":
        cond = _eval(args[0], z, fuel, depth)
        return fuel.charge(_eval(args[1] if cond == 0 else args[2], z, fuel, depth))
    if op == "primrec":
        acc = _eval(args[0], 0, fuel, depth)
        for k in range(z):
            acc = _eval(args[1], fuel.charge_pair(k, acc), fuel, depth)
        return fuel.charge(acc)
    if op == "bmin":
        bound = _eval(args[1], z, fuel, depth)
        result = bound + 1
        for k in range(bound + 1):
            if _eval(args[0], fuel.charge_pair(k, z), fuel, depth) == 0:
                result = k
                break
        return fuel.charge(result)
    # apply: evaluate both sides, pay to decode the index, run the body
    # (decoded only as deep as the cap lets it run)
    w = _eval(args[0], z, fuel, depth)
    x = _eval(args[1], z, fuel, depth)
    fuel.charge(w)
    return fuel.charge(_eval(decode(w, _MAX_DEPTH - depth), x, fuel, depth))


def eval_outcome(e: Expr, z: int, budget: int) -> tuple[int, int] | None:
    """eval_profile, except that a run past the nesting cap raises
    NestingCapped instead of returning None."""
    if budget <= 0:
        return None
    fuel = _Fuel(budget)
    try:
        value = _eval(e, z, fuel, 1)
    except OutOfFuel:
        return None
    except NestingCapped as capped:
        capped.charge = budget - fuel.remaining
        raise
    return value, budget - fuel.remaining


def eval_profile(e: Expr, z: int, budget: int) -> tuple[int, int] | None:
    """Run the expression on z: (value, steps) if it converges strictly
    within the budget, else None."""
    try:
        return eval_outcome(e, z, budget)
    except NestingCapped:
        return None


def eval_steps(w: int, z: int, budget: int) -> int | None:
    """The machine proper: run the program with index w on input z."""
    out = eval_profile(decode(w, _MAX_DEPTH - 1), z, budget)
    return None if out is None else out[0]


def apply_free(e: Expr) -> bool:
    todo = [e]
    while todo:
        n = todo.pop()
        if n.op == "apply":
            return False
        todo.extend(n.args)
    return True


def check_proof(j: int, w: int) -> bool:
    """Does j certify that program w is total?

    A certificate is a (possibly non-canonical) index of an application-free
    build of the program; it is valid for w exactly when that build's
    canonical index is w.  Application-free programs always terminate, so
    accepted certificates only ever certify genuinely total programs.

    This is encode(decode(j)) == w, checked in one top-down walk over w's
    code at each place and j's difference from it; no program is built,
    and no code of j is divided or split whole.  A difference of 0 at a
    code the table holds is that recorded program, which must be
    application-free.  Elsewhere the tags agree exactly when the
    difference is a multiple of 12 and must not be apply; an argument's
    payload must be 0 in w, since the numbering fails to be injective only
    there, and a constant's the same in both.  w's payload is split by
    unpair, or read off its recorded program's stored codes when the table
    holds it; the payload's difference is split by _split around w's
    split, which gives the children's differences.  The walk stops at the
    first disagreement, so it visits no more nodes than w's program has.
    The table is read, never written.
    """
    if j < 0 or w < 0:
        return False
    todo = [(w, j - w)]  # w's codes still to check, each with j's difference from it
    while todo:
        cw, dc = todo.pop()
        n = _lookup(cw) if cw >= _TABLE_MIN_CODE else None
        if n is not None and not dc:
            if not apply_free(n):
                return False
            continue
        dp, moved = divmod(dc, 12)
        if moved:  # the tags differ
            return False
        if n is None:
            pw, tag = divmod(cw, 12)
        else:
            tag = TAG[n.op]
        op = OPS[tag]
        if op == "apply":
            return False
        if tag < 2:  # every argument payload means ARG, so w's must be 0
            if (dp if tag else cw) != 0:
                return False
            continue
        k = ARITY[op]
        if n is None:
            kids = unpair(pw) if k > 1 else (pw,)
            if k == 3:
                inner = kids[1]
                kids = (kids[0], *unpair(inner))
        else:  # under a stored code every big node stores its own, so encode records nothing
            kids = [encode(h) if h._code is None else h._code for h in n.args]
            if k == 3:
                inner = n._inner
                if inner is None:
                    inner = pair(kids[1], kids[2])
        if k == 1:
            todo.append((kids[0], dp))
        elif k == 2:
            todo.extend(zip(kids, _split(dp, *kids)))
        else:
            dcond, dinner = _split(dp, kids[0], inner)
            todo.extend(zip(kids, (dcond, *_split(dinner, kids[1], kids[2]))))
    return True


@record
class TotalityCertificate:
    """A checkable totality claim: derivation code and the certified index."""

    derivation: int
    index: int

    def valid(self) -> bool:
        return check_proof(self.derivation, self.index)


def certificate_for(e: Expr) -> TotalityCertificate:
    if not apply_free(e):
        raise ValueError("only application-free programs are certifiable")
    code = encode(e)
    return TotalityCertificate(code, code)


def alias_certificate(e: Expr) -> TotalityCertificate | None:
    """A strictly larger, non-canonical certificate for the same program.

    Re-encodes the build with the first argument node (in preorder) carried
    by payload 1 instead of 0; monotonicity of the pairing pushes every
    enclosing code up, so the alias always exceeds the canonical index.
    Only the codes on the path down to that node move, and only their moves
    are computed, bottom up: each node's payload moves by its child's move
    (_shift), and an if0's inner pair, read off the node when it stores
    one, else paired once, moves likewise.  The alias is the canonical
    index plus the root's move.  A path node's canonical code is its stored
    one, or paired from its children, and its other children keep their
    canonical codes from encode, stored ones included; nothing on the path
    is stored or recorded.  None if the program has no argument node (or is
    not certifiable).
    """
    if not apply_free(e):
        return None
    index = encode(e)
    # a node, and its chain of links (parent, position under it, parent's chain)
    todo: list[tuple[Expr, tuple | None]] = [(e, None)]
    while todo:
        n, up = todo.pop()
        if n.op == "arg":
            old, move = 0, 12  # the path node's canonical code, and the alias's move from it
            while up is not None:
                parent, i, up = up
                kids = [old if j == i else encode(a) for j, a in enumerate(parent.args)]
                moves = [0] * len(kids)
                moves[i] = move
                if len(kids) == 3:  # an if0's inner pair moves like a child
                    inner = parent._inner
                    if inner is None:
                        inner = pair(kids[1], kids[2])
                    moves = [moves[0], _shift(*kids[1:], *moves[1:])]
                    kids = [kids[0], inner]
                move = 12 * (move if len(kids) == 1 else _shift(*kids, *moves))
                if up is not None:
                    old = parent._code
                    if old is None:
                        old = (kids[0] if len(kids) == 1 else pair(*kids)) * 12 + TAG[parent.op]
            return TotalityCertificate(index + move, index)
        todo.extend((n.args[i], (n, i, up)) for i in reversed(range(len(n.args))))
    return None
