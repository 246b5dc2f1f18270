"""decode's table of codes encode has produced: it answers exactly what
unpairing would, stays within its size cap, and leaves charges alone."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import machine
from boundlab.machine import (
    ARG,
    Expr,
    alias_certificate,
    check_proof,
    const,
    decode,
    encode,
    eval_profile,
    node,
)
from boundlab.realizability import FiniteSupportFn

from oracles import cantor_pair, decode_reference, encode_reference, unpair_reference

SETTINGS = settings(max_examples=120, deadline=None, database=None, derandomize=True)


@pytest.fixture(autouse=True)
def fresh_table(monkeypatch):
    """Each test starts from an empty table and leaves the shared one alone."""
    table = machine._CodeTable()
    monkeypatch.setattr(machine, "_CODES", table)
    return table


def fields(e):
    """Every node's own fields in preorder, types included; iterative, so
    programs deeper than the host stack compare too."""
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        out.append((type(n), n.op, type(n.value), n.value, type(n.args), len(n.args)))
        todo.extend(n.args)
    return out


def check_table(table):
    assert table.bits <= machine._TABLE_MAX_BITS
    assert table.bits == sum(c.bit_length() for c in table.entries)
    assert all(c.bit_length() >= machine._TABLE_MIN_BITS for c in table.entries)


def succ_chain(e, depth):
    for _ in range(depth):
        e = node("succ", e)
    return e


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
    max_leaves=24,
)
# Successor chains lift a code by about 3.6 bits a link and lookup
# programs of 3 to 6 values take 0.3 to 36 kbit, so the examples fall on
# both sides of the 1,024-bit floor.
sized_programs = st.one_of(
    programs,
    st.builds(succ_chain, programs, st.integers(200, 400)),
    st.lists(st.integers(0, 3), min_size=3, max_size=6).map(lambda vs: FiniteSupportFn(vs).program()),
)


@SETTINGS
@given(sized_programs)
def test_decode_of_encode_matches_the_table_free_decode(e):
    table = machine._CODES
    code = encode(e)
    check_table(table)
    assert fields(decode(code)) == fields(decode_reference(code)) == fields(e)
    if code.bit_length() >= machine._TABLE_MIN_BITS and e.args:
        assert decode(code) is table.entries[code]


def test_examples_reach_both_sides_of_the_floor():
    small = encode(succ_chain(ARG, 10))
    big = encode(succ_chain(ARG, 300))
    assert small.bit_length() < machine._TABLE_MIN_BITS <= big.bit_length()


def test_evicted_codes_still_decode(fresh_table):
    programs = [node("pair", const(2**200_000 + i), ARG) for i in range(60)]
    codes = [encode(p) for p in programs]
    check_table(fresh_table)
    assert codes[0] not in fresh_table.entries  # 60 codes of ~400 kbit exceed the cap
    assert codes[-1] in fresh_table.entries
    for p, c in zip(programs, codes):
        assert fields(decode(c)) == fields(p)
    assert decode(codes[-1]) is programs[-1]


def test_oversized_code_is_not_recorded(fresh_table):
    huge = node("succ", const(2**machine._TABLE_MAX_BITS))
    code = encode(huge)
    assert code.bit_length() > machine._TABLE_MAX_BITS
    assert fresh_table.entries == {} and fresh_table.bits == 0
    assert fields(decode(code)) == fields(huge)


def test_stray_value_does_not_leak(fresh_table):
    body = FiniteSupportFn((0, 0, 0, 0, 0, 1)).program()
    assert encode(body).bit_length() >= machine._TABLE_MIN_BITS
    for stray in (
        Expr("succ", (body,), 7),
        node("pair", Expr("pred", (ARG,), 5), body),
        node("if0", Expr("arg", (), 3), body, ARG),
    ):
        fresh_table.entries.clear()
        fresh_table.bits = 0
        code = encode(stray)
        assert not fresh_table.entries
        assert fields(decode(code)) == fields(decode_reference(code))
        assert all(n[3] == 0 for n in fields(decode(code)) if n[1] != "const")
    # once the clean program is encoded on its own, its code is recorded
    assert decode(encode(body)) is body


def test_non_canonical_code_decodes_honestly():
    program = FiniteSupportFn((0, 0, 0, 0, 0, 0, 1)).program()
    cert = alias_certificate(program)
    assert cert.derivation > cert.index
    assert cert.index.bit_length() >= machine._TABLE_MIN_BITS
    assert fields(decode(cert.derivation)) == fields(decode_reference(cert.derivation))
    assert fields(decode(cert.derivation)) == fields(program)
    assert check_proof(cert.derivation, cert.index)
    assert not check_proof(cert.derivation, cert.index + 12)


def test_charges_do_not_depend_on_the_table(fresh_table):
    g = FiniteSupportFn((0, 0, 0, 0, 1, 2))
    probe = node("apply", ARG, const(5))
    idx = g.index()
    assert idx in fresh_table.entries
    hit = eval_profile(probe, idx, 10**8)
    fresh_table.entries.clear()
    fresh_table.bits = 0
    assert eval_profile(probe, idx, 10**8) == hit == (2, hit[1])


def test_deep_programs_round_trip_without_the_host_stack():
    deep = succ_chain(ARG, 3000)
    code = encode(deep)
    assert fields(decode(code)) == fields(deep)
    machine._CODES.entries.clear()
    machine._CODES.bits = 0
    assert fields(decode(code)) == fields(deep)
    assert machine.apply_free(deep)


def test_non_canonical_big_codes_are_split_honestly(fresh_table, monkeypatch):
    """Codes of at least _TABLE_MIN_CODE that miss the table are split by
    unpair, an if0 payload twice; nothing non-canonical is ever recorded,
    and check_proof leaves the table exactly as it found it, cold or warm."""
    body = FiniteSupportFn((0, 0, 0, 0, 0, 0, 1)).program()
    other = FiniteSupportFn((0, 0, 0, 0, 0, 2)).program()
    split = []
    unpair = machine.unpair

    def counted(c):
        split.append(c)
        return unpair(c)

    monkeypatch.setattr(machine, "unpair", counted)
    for program in (body, node("if0", ARG, body, other)):
        cert = alias_certificate(program)
        assert cert.derivation >= machine._TABLE_MIN_CODE
        fresh_table.entries.clear()
        fresh_table.bits = 0
        split.clear()
        assert fields(decode(cert.derivation)) == fields(decode_reference(cert.derivation))
        payload = cert.derivation // 12
        assert split[0] == payload
        if program.op == "if0":
            assert split[1] == unpair_reference(payload)[1]
        fresh_table.entries.clear()
        fresh_table.bits = 0
        assert check_proof(cert.derivation, cert.index)
        assert not fresh_table.entries and fresh_table.bits == 0
        encode(program)
        before = [(code, id(e)) for code, e in fresh_table.entries.items()], fresh_table.bits
        assert before[0] and cert.derivation not in fresh_table.entries
        assert check_proof(cert.derivation, cert.index)
        assert ([(code, id(e)) for code, e in fresh_table.entries.items()], fresh_table.bits) == before
        for code, e in fresh_table.entries.items():
            assert e._code == code == encode_reference(e)


# --- an if0's inner pair, stored beside its code ---------------------------

class Subclassed(Expr):
    pass


def nodes(e):
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(n.args)
    return out


def slots(e):
    """What each node of e stores, by identity: its code and inner pair."""
    return {id(n): (vars(n).get("_code"), vars(n).get("_inner")) for n in nodes(e)}


# if0 nodes whose then and else branches reach past the floor, beside the
# lookups' nested if0s.
if0_programs = st.one_of(
    sized_programs,
    st.tuples(programs, sized_programs, sized_programs).map(lambda t: node("if0", *t)),
)
# One node decode would not rebuild, above the whole program.
spoilers = [
    lambda e: Expr("pair", [e, ARG]),  # list args
    lambda e: Subclassed("succ", (e,)),
    lambda e: node("if0", Expr("arg", (), 3), e, ARG),  # a stray value
]


@SETTINGS
@given(if0_programs, st.sampled_from([None, *range(len(spoilers))]))
def test_inner_pairs_are_stored_with_their_if0_codes(e, spoil):
    """Every node with an inner pair is an if0 that stores its code, and the
    pair is that of its then and else codes; every if0 that stores its code
    stores its inner pair too.  Encoding a program decode would not rebuild
    stores neither slot anywhere in it."""
    if spoil is not None:
        e = spoilers[spoil](e)
    before = slots(e)
    assert encode(e) == encode_reference(e)
    if spoil is not None:
        assert slots(e) == before
    for n in nodes(e):
        if "_inner" in vars(n):
            assert n.op == "if0" and "_code" in vars(n)
            assert n._inner == cantor_pair(encode_reference(n.args[1]), encode_reference(n.args[2]))
        elif n.op == "if0":
            assert "_code" not in vars(n)
        if spoil is None:
            big = n.args and machine._TABLE_MIN_BITS <= encode_reference(n).bit_length()
            assert ("_code" in vars(n)) == bool(big)
