"""Re-pairing and unpairing by difference.

`_repair` moves a Cantor code by its finite difference instead of pairing
again; `alias_certificate` builds its codes with it.  `_unpair_near` splits
a code by stepping from a known pair instead of taking a square root;
`check_proof` splits each of the certificate's codes with it around the
claim's code at the same place, whose split it reads off the claim's
recorded program when the table holds it.  Each is held against the plain
computation it replaces: `_repair` against `pair`, `_unpair_near` against
`unpair`, `check_proof` against decoding and re-encoding by the
references, `alias_certificate` against `alias_reference`, on codes on
both sides of the decode table's floor and with the table cold and warm.
"""

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import machine, realizability
from boundlab.machine import (
    ARG,
    Expr,
    TotalityCertificate,
    _repair,
    _unpair_near,
    alias_certificate,
    apply_free,
    check_proof,
    const,
    decode,
    encode,
    node,
)
from boundlab.realizability import FiniteSupportFn

from oracles import alias_reference, cantor_pair, decode_reference, encode_reference, unpair_reference

SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@pytest.fixture(autouse=True)
def fresh_table(monkeypatch):
    """Each test starts from an empty table and leaves the shared one alone."""
    table = machine._CodeTable()
    monkeypatch.setattr(machine, "_CODES", table)
    return table


def snapshot(table):
    return [(code, id(e)) for code, e in table.entries.items()], table.bits


def lookup(values):
    return FiniteSupportFn(tuple(values)).program()


# --- _repair against pair --------------------------------------------------

naturals = st.one_of(st.integers(0, 2**70), st.integers(0, 2**3000))
shifts = st.one_of(st.integers(-40, 40), st.integers(-(2**64), 2**64), st.integers(-(2**2000), 2**2000))


@SETTINGS
@given(naturals, naturals, shifts, shifts)
def test_repair_is_the_pairing_of_the_new_children(a, b, da, db):
    a2, b2 = max(a + da, 0), max(b + db, 0)
    assert _repair(cantor_pair(a, b), a, b, a2, b2) == cantor_pair(a2, b2)


def test_repair_pairs_afresh_only_past_half_the_bits(monkeypatch):
    paired = []
    monkeypatch.setattr(machine, "pair", lambda a, b: paired.append((a, b)) or cantor_pair(a, b))
    a, b = 2**4000 + 7, 3**1000
    p = cantor_pair(a, b)
    assert (a + b).bit_length() == 4001
    assert _repair(p, a, b, a, b) is p  # unchanged
    assert _repair(p, a, b, a - 12, b) == cantor_pair(a - 12, b)  # the sum falls
    assert _repair(p, a, b, a + 12, b - 12) == cantor_pair(a + 12, b - 12)  # the sum stays
    assert _repair(p, a, b, a, b + 2**1999) == cantor_pair(a, b + 2**1999)  # 2,000 bits: half
    assert not paired
    assert _repair(p, a, b, a - 2**2000, b) == cantor_pair(a - 2**2000, b)  # 2,001 bits
    assert _repair(p, a, b, 0, 0) == 0
    assert paired == [(a - 2**2000, b), (0, 0)]
    assert _repair(0, 0, 0, 0, 5) == cantor_pair(0, 5)  # s = 0 has no bits to spare
    assert _repair(cantor_pair(9, 0), 9, 0, 0, 9) == cantor_pair(0, 9)  # only b moves


# --- _unpair_near against unpair -------------------------------------------

@SETTINGS
@given(st.integers(4, 8000), st.data())
def test_unpair_near_is_unpair(bits, data):
    """A hint whose sum has 4 to 8,000 bits, and a code moved from it by
    up to twice that many bits, up or down."""
    s = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    b = data.draw(st.integers(0, s))
    p = cantor_pair(s - b, b)
    reach = data.draw(st.integers(0, 2 * bits + 2))
    P = max(p + data.draw(st.integers(-(2**reach), 2**reach)), 0)
    assert _unpair_near(P, p, s - b, b) == unpair_reference(P)


def test_unpair_near_steps_only_within_half_the_bits(monkeypatch):
    fresh = []
    monkeypatch.setattr(machine, "unpair", lambda c: fresh.append(c) or unpair_reference(c))
    a, b = 2**4000 + 7, 3**1000
    p = cantor_pair(a, b)
    assert (a + b).bit_length() == 4001
    near = [
        p,  # d = 0
        p + 5,  # d = 0, another b on the same diagonal
        cantor_pair(a + 12, b - 12),  # the sum stays
        cantor_pair(a - 12, b),  # negative d
        cantor_pair(a - 1, b) - 1,  # the last code two diagonals down
        cantor_pair(a + 1, b + 1) - 1,  # the last code of the next diagonal
        cantor_pair(a + b + 1, 0),  # the first code of the next diagonal
        cantor_pair(a + b - 7, 0),
        cantor_pair(a + 2**1999, b),  # 2,000 bits: half
        cantor_pair(a - 2**1999, b + 5),
    ]
    for P in near:
        assert _unpair_near(P, p, a, b) == unpair_reference(P)
    assert not fresh
    far = [cantor_pair(a + 2**2000, b), cantor_pair(a - 2**2000, b), 0]  # 2,001 bits
    for P in far:
        assert _unpair_near(P, p, a, b) == unpair_reference(P)
    assert fresh == far
    # s <= 1 has no bits to spare: only codes on the hint's own diagonal step
    for a, b in ((0, 0), (1, 0), (0, 1)):
        fresh.clear()
        for P in range(12):
            assert _unpair_near(P, cantor_pair(a, b), a, b) == unpair_reference(P)
        assert len(fresh) == 12 - (a + b + 1)


@SETTINGS
@given(naturals, naturals)
def test_unpair_near_of_the_hint_is_its_children(a, b):
    p = cantor_pair(a, b)
    got = _unpair_near(p, p, a, b)
    assert got == (a, b) and got[0] is a and got[1] is b
    assert _unpair_near(p + 1 - 1, p, a, b) == (a, b)  # an equal code, not the hint's own object


# --- check_proof against decode-and-encode ---------------------------------

leaves = st.one_of(st.just(ARG), st.integers(0, 2**64).map(const))
programs = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["succ", "pred", "fst", "snd"]), kids).map(lambda t: node(*t)),
        st.tuples(st.sampled_from(["pair", "comp", "primrec", "bmin", "apply"]), kids, kids).map(
            lambda t: node(*t)
        ),
        st.tuples(kids, kids, kids).map(lambda t: node("if0", *t)),
    ),
    max_leaves=16,
)


def succ_chain(e, depth):
    for _ in range(depth):
        e = node("succ", e)
    return e


# Lookup programs of 3 to 7 values take 0.3 to 172 kbit, and successor
# chains lift a code by about 3.6 bits a link, so codes fall on both sides
# of the 1,024-bit floor; the lookups put argument nodes at depths 1 to 7.
sized_programs = st.one_of(
    programs,
    st.builds(succ_chain, programs, st.integers(200, 400)),
    st.lists(st.integers(0, 3), min_size=3, max_size=7).map(lookup),
    st.tuples(programs, st.lists(st.integers(0, 3), min_size=3, max_size=6).map(lookup)).map(
        lambda t: node("pair", *t)
    ),
)
arg_payloads = st.lists(st.one_of(st.just(0), st.integers(1, 3), st.integers(0, 2**80)), max_size=8)


def proof_reference(j, w):
    """check_proof as it reads: decode j, then re-encode it."""
    if j < 0 or w < 0:
        return False
    p = decode_reference(j)
    return apply_free(p) and encode_reference(p) == w


@SETTINGS
@given(sized_programs, arg_payloads, arg_payloads, st.integers(0, 4), st.integers(-24, 24), st.booleans())
def test_check_proof_is_decode_then_encode(e, payloads, payloads_w, claim, shift, warm):
    """j codes e with the argument nodes carried by the drawn payloads; w is
    e's canonical code, shifted, unrelated to it, or e coded with other
    argument payloads, which is canonical only when they are all 0."""
    if warm:
        encode(e)
    table = machine._CODES
    before = snapshot(table)
    j = encode_reference(e, list(payloads))
    canonical = encode_reference(e)
    w = [canonical, canonical + shift, shift, canonical + 12 * shift, encode_reference(e, list(payloads_w))][claim]
    assert check_proof(j, w) == proof_reference(j, w)
    assert check_proof(j, canonical) == apply_free(e)
    assert snapshot(table) == before


def test_check_proof_reads_non_canonical_arguments_at_every_depth(fresh_table):
    """In the 7-value lookup every argument node sits at its own depth,
    1 to 7, under codes of 2 to 172 kbit."""
    e = lookup((0,) * 6 + (1,))
    w = encode_reference(e)
    for warm in (False, True):
        if warm:
            assert encode(e) == w
        before = snapshot(fresh_table)
        for at in range(7):
            for payload in (1, 2**90):
                j = encode_reference(e, [0] * at + [payload])
                assert j > w >= machine._TABLE_MIN_CODE
                assert check_proof(j, w)
                assert not check_proof(j, w + 12) and not check_proof(j, w - 1)
                assert not check_proof(j, j)
        assert snapshot(fresh_table) == before


def test_check_proof_stops_at_its_claim():
    """A 358-kbit chain of 100,000 succ nodes against the claim (succ arg):
    the walk stops at the second node, where the claim has an argument."""
    j = 2 * (12**100000 - 1) // 11

    def expired(signum, frame):
        raise TimeoutError("check_proof walked past its claim")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(1)
    try:
        assert not check_proof(j, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# --- check_proof with its claim's recorded program -------------------------

def moved_code(e, at, move, tag=None):
    """encode_reference(e), with the payload q of e's node number `at` in
    preorder replaced by move(q) and its tag by `tag`, if given; the nodes
    above it are paired afresh."""
    todo = [at]

    def walk(n):
        here = todo[0] == 0
        todo[0] -= 1
        kids = [walk(a) for a in n.args]
        if len(kids) == 3:
            kids = [kids[0], cantor_pair(kids[1], kids[2])]
        if not kids:
            code = encode_reference(n)
        else:
            code = (kids[0] if len(kids) == 1 else cantor_pair(*kids)) * 12 + machine.TAG[n.op]
        if here:
            code = move(code // 12) * 12 + (code % 12 if tag is None else tag)
        return code

    return walk(e)


def preorder(e):
    todo, out = [e], []
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(reversed(n.args))
    return out


def hint_spy(monkeypatch):
    """Every split check_proof makes near the claim, each held against unpair."""
    splits = []
    real, plain = machine._unpair_near, machine.unpair

    def checked(P, p, a, b):
        assert p == cantor_pair(a, b)
        got = real(P, p, a, b)
        assert got == plain(P)
        splits.append(P)
        return got

    monkeypatch.setattr(machine, "_unpair_near", checked)
    return splits


def unpair_spy(monkeypatch):
    """Every code the machine unpairs by a square root."""
    roots = []
    monkeypatch.setattr(machine, "unpair", lambda c: roots.append(c) or unpair_reference(c))
    return roots


def split_payloads(e):
    """The payloads a split can meet among the codes encode records for e:
    those of its big nodes with two or three children, and each big if0's
    inner pair."""
    out = set()
    for n in preorder(e):
        code = encode_reference(n)
        if len(n.args) > 1 and code >= machine._TABLE_MIN_CODE:
            p = code // 12
            out.add(p)
            if len(n.args) == 3:
                out.add(unpair_reference(p)[1])
    return out


def table_state(table, e, state):
    """Leave e's code out of the table, in it, or evicted with its subtrees kept."""
    w = encode_reference(e)
    if state != "cold":
        assert encode(e) == w
    if state == "evicted":
        table.bits -= w.bit_length()
        del table.entries[machine._key(w)]
    return w


# Payload moves: near, up and down, and far, up to about twice the code and
# down to nothing; a far move of a node moves its parent's sum by more than
# half its bits when the node holds most of that sum.
moves = [
    lambda q: q + 1,
    lambda q: max(q - 1, 0),
    lambda q: q + 40,
    lambda q: max(q - 2**64, 0),
    lambda q: 2 * q + 2 ** (q.bit_length() // 2 + 8),
    lambda q: 0,
]

big_wrappers = [
    lambda b: node("succ", b),
    lambda b: node("pair", node("succ", b), ARG),
    lambda b: node("if0", ARG, const(2), node("pair", const(7), b)),
]


def test_check_proof_splits_moved_codes_at_every_depth(monkeypatch):
    """One node's code at a time moved up or down, near or far, in a 7-kbit
    lookup under succ, pair and if0; its tag kept or changed.  Each state
    splits near the claim; only when the claim's program is recorded does
    no payload of it take a square root."""
    splits = hint_spy(monkeypatch)
    roots = unpair_spy(monkeypatch)
    for wrap in big_wrappers:
        e = wrap(lookup((0,) * 4 + (1,)))
        w = encode_reference(e)
        payloads = split_payloads(e)
        cases = []
        for at, n in enumerate(preorder(e)):
            for move in moves:
                cases.append((moved_code(e, at, move), n.op == "arg" and move(0) > 0))
            cases.append((moved_code(e, at, lambda q: q, (machine.TAG[n.op] + 1) % 11), False))
        expected = [proof_reference(j, w) for j, _ in cases]
        assert all(got for (_, accepted), got in zip(cases, expected) if accepted)
        for state in ("cold", "warm", "evicted"):
            table = machine._CodeTable()
            monkeypatch.setattr(machine, "_CODES", table)
            assert table_state(table, e, state) == w
            before = snapshot(table)
            splits.clear()
            roots.clear()
            assert [check_proof(j, w) for j, _ in cases] == expected
            assert snapshot(table) == before
            assert splits
            assert bool(payloads.intersection(roots)) == (state != "warm")


@SETTINGS
@given(
    st.lists(st.integers(0, 3), min_size=3, max_size=5),
    st.integers(1, 3),
    st.sampled_from(range(len(big_wrappers))),
    st.integers(0, 10**6),
    st.integers(0, 3),
    st.one_of(st.integers(-40, 40), st.integers(-(2**80), 2**80)),
    st.one_of(st.none(), st.integers(0, 11)),
    st.sampled_from(["cold", "warm", "evicted"]),
)
def test_check_proof_with_a_hint_is_decode_then_encode(values, last, wrap, at, scale, shift, tag, state):
    """One node's payload q becomes scale * q + shift, kept natural, and its
    tag may change; the claim's program is recorded, evicted or absent."""
    e = big_wrappers[wrap](lookup(values + [last]))
    table = machine._CODES
    w = table_state(table, e, state)
    before = snapshot(table)
    j = moved_code(e, at % len(preorder(e)), lambda q: max(scale * q + shift, 0), tag)
    assert check_proof(j, w) == proof_reference(j, w)
    assert snapshot(table) == before


EXT_PROBE = (0,) * 6 + (1,)  # the lookup whose alias ext_probe checks in every row


def ext_probe_certificate(monkeypatch):
    """ext_probe's certificate, as a row makes it: index(), then the alias
    of the program index() kept; and that program."""
    monkeypatch.setattr(realizability, "_PROGRAMS", machine._CodeTable())
    g = FiniteSupportFn(EXT_PROBE)
    g.index()
    e = g.program()
    return alias_certificate(e), e


def pair_spy(monkeypatch):
    """The wider operand's bits of every pair the machine makes."""
    widths = []
    real = machine.pair
    monkeypatch.setattr(machine, "pair", lambda a, b: widths.append(max(a, b).bit_length()) or real(a, b))
    return widths


def test_check_proof_takes_the_hint_for_the_ext_probe_alias(fresh_table, monkeypatch):
    """The 172-kbit alias is split from its program's stored codes, with no
    square root of its own; it and its check square nothing big, since the
    root if0's 86-kbit inner pair is read off its node."""
    widths = pair_spy(monkeypatch)
    cert, e = ext_probe_certificate(monkeypatch)
    assert cert == TotalityCertificate(alias_reference(e), encode_reference(e))
    before = snapshot(fresh_table)
    splits = hint_spy(monkeypatch)
    roots = unpair_spy(monkeypatch)
    widths.clear()
    cert = alias_certificate(e)
    assert check_proof(cert.derivation, cert.index)
    assert splits and not roots
    assert snapshot(fresh_table) == before
    assert all(bits <= machine._TABLE_MIN_BITS for bits in widths)


def strip_inner_pairs(e):
    """Empty every node's inner-pair slot, leaving its stored code."""
    emptied = 0
    for n in preorder(e):
        if "_inner" in vars(n):
            object.__delattr__(n, "_inner")
            emptied += 1
    return emptied


def test_ext_probe_alias_is_the_same_from_any_cache_state(fresh_table, monkeypatch):
    """A fresh build of the program, which stores no codes until the alias
    encodes it; the stored program with the table emptied, so check_proof
    unpairs the claim afresh; and the fresh build with its inner pairs
    emptied but its codes kept, so both pair them afresh: each gives the
    stored path's certificate and verdicts."""
    cert, stored = ext_probe_certificate(monkeypatch)

    def verdicts(cert):
        j, w = cert.derivation, cert.index
        return [check_proof(j, w), check_proof(j, w + 12), check_proof(j + 12, w), check_proof(w, w)]

    expected = verdicts(cert)
    assert expected == [True, False, False, True]
    roots = unpair_spy(monkeypatch)
    j, w = cert.derivation, cert.index
    assert [check_proof(j, w), check_proof(j + 12, w), check_proof(w, w)] == [True, False, True]
    assert not split_payloads(stored).intersection(roots)  # w is recorded

    monkeypatch.setattr(realizability, "_PROGRAMS", machine._CodeTable())
    fresh = FiniteSupportFn(EXT_PROBE).program()
    assert fresh == stored and fresh is not stored
    assert not any("_code" in vars(n) or "_inner" in vars(n) for n in preorder(fresh))
    assert alias_certificate(fresh) == cert
    assert verdicts(cert) == expected

    assert "_inner" in vars(stored)
    assert alias_certificate(stored) == cert
    machine._CODES.entries.clear()
    machine._CODES.bits = 0
    splits = hint_spy(monkeypatch)
    roots.clear()
    assert verdicts(cert) == expected
    assert splits and split_payloads(stored).intersection(roots)

    assert strip_inner_pairs(fresh) > 0
    widths = pair_spy(monkeypatch)
    assert alias_certificate(fresh) == cert
    assert verdicts(cert) == expected
    assert splits and max(widths) > machine._TABLE_MIN_BITS  # the emptied slots were paired afresh


def test_check_proof_rejects_applications_inside_table_hits(fresh_table):
    body = node("pair", lookup((0, 0, 0, 0, 1)), node("apply", ARG, ARG))
    assert machine._key(encode(body)) in fresh_table.entries
    outer = node("succ", body)
    for j in (encode(outer), encode_reference(outer, [3])):
        assert not check_proof(j, encode(outer))


# --- codes whose keys collide ----------------------------------------------

def test_a_code_under_another_codes_key_is_unpaired(fresh_table):
    """c ^ 2**100 has c's length and c's top and low bits, so it has c's
    key: the table answers it with c's node, which the lookup turns down."""
    e = lookup((0, 0, 0, 0, 1))
    c = encode(e)
    c2 = c ^ (1 << 100)
    assert machine._key(c2) == machine._key(c) and fresh_table.entries[machine._key(c)] is e
    assert machine._lookup(c) is e and machine._lookup(c2) is None
    assert decode(c2) == decode_reference(c2) and decode(c) is e
    for j, w in ((c2, c), (c, c2), (c2, c2), (c2, encode_reference(decode_reference(c2)))):
        assert check_proof(j, w) == proof_reference(j, w)


def test_a_claim_whose_nodes_share_their_keys_with_other_nodes(fresh_table):
    """Every big node of one lookup entered by hand under the key of the
    code at the same place in another: the walks of both programs miss
    the table and split every code themselves."""
    other, e = lookup((0, 0, 0, 0, 0, 1)), lookup((0, 0, 0, 0, 0, 2))
    encode(other)
    pairs = [(n, encode_reference(m)) for n, m in zip(preorder(other), preorder(e)) if "_code" in vars(n)]
    assert len(pairs) == 3
    for n, code in pairs:
        fresh_table.entries[machine._key(code)] = n
    w = encode_reference(e)
    assert machine._lookup(w) is None and fresh_table.entries[machine._key(w)] is other
    assert decode(w) == e
    j = alias_reference(e)
    assert check_proof(w, w) and check_proof(j, w)
    assert not check_proof(j, w + 12) and not check_proof(encode(other), w)


# --- alias_certificate against alias_reference -----------------------------

wrappers = [
    lambda b: b,
    lambda b: node("pair", const(5), b),
    lambda b: node("pair", b, ARG),
    lambda b: node("succ", node("comp", b, node("pred", ARG))),
    lambda b: node("if0", const(0), b, ARG),
    lambda b: node("if0", const(1), const(2), b),
    # a stray value keeps encode from storing any code, so no payload is read off
    lambda b: node("pair", node("pair", const(3), b), Expr("pred", (ARG,), 5)),
]


@SETTINGS
@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=6),
    st.integers(1, 3),
    st.sampled_from(range(len(wrappers))),
    st.booleans(),
)
def test_alias_certificate_matches_the_reference_on_lookup_programs(values, last, wrap, warm):
    """Lookups of 3 to 7 values: codes of 0.3 to 172 kbit."""
    body = lookup(values + [last])  # a nonzero last value keeps every argument node
    e = wrappers[wrap](body)
    if warm:
        encode(body)
    cert = alias_certificate(e)
    assert cert == TotalityCertificate(alias_reference(e), encode_reference(e))
    assert cert.derivation > cert.index
    assert check_proof(cert.derivation, cert.index)
