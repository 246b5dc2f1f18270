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
from dataclasses import dataclass
from math import isqrt


def pair(a: int, b: int) -> int:
    """Cantor pairing; monotone in both arguments, pair(a,b) >= a, b."""
    s = a + b
    return (s * s + s >> 1) + b  # s * s takes CPython's faster squaring


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


OPS = (
    "arg", "const", "succ", "pred", "pair", "fst", "snd",
    "comp", "if0", "primrec", "bmin", "apply",
)
TAG = {op: i for i, op in enumerate(OPS)}
ARITY = {
    "arg": 0, "const": 0, "succ": 1, "pred": 1, "pair": 2, "fst": 1,
    "snd": 1, "comp": 2, "if0": 3, "primrec": 2, "bmin": 2, "apply": 2,
}


@dataclass(frozen=True)
class Expr:
    op: str
    args: tuple[Expr, ...] = ()
    value: int = 0
    # The node's code, stored by encode when it records the node.  Not a
    # field, so ==, hash and repr do not see it.
    _code = None

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
# program; charges depend on bit lengths alone and do not move.
_TABLE_MIN_BITS = 1024
_TABLE_MAX_BITS = 1 << 23
_TABLE_MIN_CODE = 1 << (_TABLE_MIN_BITS - 1)  # least code of that many bits


class _CodeTable:
    """Nodes that carry their codes, under any keys, oldest first.  Their
    codes hold at most _TABLE_MAX_BITS bits in all; the oldest entries make
    room for new ones."""

    __slots__ = ("entries", "bits")

    def __init__(self):
        self.entries: OrderedDict[object, Expr] = OrderedDict()
        self.bits = 0

    def add(self, key: object, e: Expr) -> None:
        """Keep e under key, if e carries a code and key is new."""
        code = e._code
        if code is None or key in self.entries:
            return
        bits = code.bit_length()
        while self.bits + bits > _TABLE_MAX_BITS:
            self.bits -= self.entries.popitem(last=False)[1]._code.bit_length()
        self.entries[key] = e
        self.bits += bits


_CODES = _CodeTable()


def _decodes_to_itself(e: Expr) -> bool:
    """Are e's own fields the ones decode gives the node with its code?"""
    if type(e) is not Expr or type(e.args) is not tuple:
        return False
    if e.op == "const":
        return type(e.value) is int and e.value >= 0
    return e.value == 0


def _payload(codes: list[int]) -> int:
    """The payload that carries a node's child codes, left to right."""
    if len(codes) == 1:
        return codes[0]
    if len(codes) == 2:
        return pair(codes[0], codes[1])
    return pair(codes[0], pair(codes[1], codes[2]))


def encode(e: Expr) -> int:
    """Canonical index: payload * 12 + tag, payloads paired left to right.

    Iterative, so a program's depth is limited by memory, not by the host
    stack.  Codes big enough for decode's table are recorded there and
    stored on their nodes; a later encode takes a stored code instead of
    walking below it.
    """
    order = []  # every walked node before its children, last child first
    todo = [e]
    while todo:
        n = todo.pop()
        order.append(n)
        if n.args and n._code is None:
            todo.extend(n.args)
    big: list[tuple[Expr, int]] = []  # canonical codes the table may take
    codes: list[int] = []  # finished subtrees, leftmost child deepest
    for n in reversed(order):
        k = len(n.args)
        if not k:
            codes.append(n.value * 12 + 1 if n.op == "const" else 0)
            continue
        code = n._code
        if code is None:
            code = _payload(codes[-k:]) * 12 + TAG[n.op]
            del codes[-k:]
        if code >= _TABLE_MIN_CODE:
            big.append((n, code))
        codes.append(code)
    # Stored only now, so that a node met twice is walked alike both times.
    if big and all(map(_decodes_to_itself, order)):
        for n, code in big:
            if code.bit_length() <= _TABLE_MAX_BITS:
                _set_field(n, "_code", code)
                _CODES.add(code, n)
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


def decode(code: int) -> Expr:
    """Total inverse-ish of encode: every natural is some program.

    Iterative like encode; codes encode has recorded are looked up instead
    of unpaired.
    """
    if code < 0:
        raise ValueError("indices are naturals")
    table = _CODES.entries
    order: list[Expr | str] = []  # finished leaves, or the op of an inner node
    todo = [code]
    while todo:
        c = todo.pop()
        if c >= _TABLE_MIN_CODE:
            hit = table.get(c)
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
    w = _eval(args[0], z, fuel, depth)
    x = _eval(args[1], z, fuel, depth)
    fuel.charge(w)
    return fuel.charge(_eval(decode(w), x, fuel, depth))


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
    out = eval_profile(decode(w), z, budget)
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
    """
    if j < 0 or w < 0:
        return False
    p = decode(j)
    return apply_free(p) and encode(p) == w


@dataclass(frozen=True)
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
    Only the nodes on the path down to that node are paired anew, bottom
    up; their other children keep their canonical codes from encode,
    stored ones included, and the codes on the path are never stored or
    recorded.  None if the program has no argument node (or is not
    certifiable).
    """
    if not apply_free(e):
        return None
    index = encode(e)
    # a node, and its chain of links (parent, position under it, parent's chain)
    todo: list[tuple[Expr, tuple | None]] = [(e, None)]
    while todo:
        n, up = todo.pop()
        if n.op == "arg":
            code = 12
            while up is not None:
                parent, i, up = up
                kids = [code if j == i else encode(a) for j, a in enumerate(parent.args)]
                code = _payload(kids) * 12 + TAG[parent.op]
            return TotalityCertificate(code, index)
        todo.extend((n.args[i], (n, i, up)) for i in reversed(range(len(n.args))))
    return None
