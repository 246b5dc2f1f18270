"""Codes computed once: encode takes the codes stored on recorded nodes,
index() keeps its lookup programs, and the alias rides on encode's walk.
Every code is checked against the recursive, table-free numbering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import machine, realizability
from boundlab.machine import (
    ARG,
    Expr,
    TotalityCertificate,
    alias_certificate,
    apply_free,
    check_proof,
    const,
    encode,
    format_program,
    node,
    pair,
    parse_program,
    unpair,
)
from boundlab.realizability import FiniteSupportFn

from oracles import alias_reference, cantor_pair, encode_reference
from test_decode_table import fields, sized_programs

SETTINGS = settings(max_examples=80, deadline=None, database=None, derandomize=True)


@pytest.fixture(autouse=True)
def fresh_tables(monkeypatch):
    """Each test starts from empty tables and leaves the shared ones alone."""
    monkeypatch.setattr(machine, "_CODES", machine._CodeTable())
    monkeypatch.setattr(realizability, "_PROGRAMS", machine._CodeTable())


def nodes(e):
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(n.args)
    return out


def check_stored_codes(e):
    """Every code stored in e is its node's canonical code."""
    coded = {id(n): n for n in nodes(e) if "_code" in vars(n)}
    for n in coded.values():
        assert n._code == encode_reference(n)


def unary_chain(depth):
    e = ARG
    for i in range(depth):
        e = node(("succ", "pred", "fst", "snd")[i % 4], e)
    return e


@SETTINGS
@given(sized_programs, sized_programs, st.booleans())
def test_encode_matches_the_reference_over_coded_subtrees(a, b, swap_tables):
    code_a = encode(a)
    assert code_a == encode_reference(a)
    if swap_tables:
        machine._CODES = machine._CodeTable()
    # a now carries its stored codes, once and twice over, beside a fresh b
    for whole in (node("pair", a, b), node("if0", b, a, node("succ", a)), node("comp", a, a)):
        assert encode(whole) == encode_reference(whole)
    check_stored_codes(a)
    if a.args and machine._TABLE_MIN_BITS <= code_a.bit_length():
        assert "_code" in vars(a)
        recorded = machine._CODES.entries[code_a]
        assert recorded is a if swap_tables else fields(recorded) == fields(a)


naturals = st.one_of(
    st.just(0),
    st.integers(0, 2**64),
    st.builds(lambda bits, rng: rng.getrandbits(bits), st.integers(1, 60_000), st.randoms(use_true_random=False)),
)


@SETTINGS
@given(naturals, naturals)
def test_pair_is_the_textbook_pairing(a, b):
    c = pair(a, b)
    assert c == cantor_pair(a, b)
    assert unpair(c) == (a, b)


@SETTINGS
@given(st.lists(st.integers(0, 3), max_size=7))
def test_index_memo_hit_and_miss_agree(values):
    g = FiniteSupportFn(tuple(values))
    first = g.index()
    second = g.index()
    memo = realizability._PROGRAMS
    if first.bit_length() >= machine._TABLE_MIN_BITS:
        assert memo.entries[g.values] is g.program()
    else:
        assert g.values not in memo.entries
    realizability._PROGRAMS = machine._CodeTable()
    machine._CODES = machine._CodeTable()
    third = g.index()  # built and encoded afresh
    assert first == second == third == encode_reference(g.program())


def test_index_memo_stays_within_its_cap():
    fns = [FiniteSupportFn((2**300_000 + i,)) for i in range(12)]
    codes = [g.index() for g in fns]
    memo = realizability._PROGRAMS
    assert sum(c.bit_length() for c in codes) > machine._TABLE_MAX_BITS
    assert memo.bits <= machine._TABLE_MAX_BITS
    assert memo.bits == sum(p._code.bit_length() for p in memo.entries.values())
    assert fns[0].values not in memo.entries and fns[-1].values in memo.entries
    assert [g.index() for g in fns] == codes == [encode_reference(g.program()) for g in fns]


def test_hand_built_nodes_never_carry_codes():
    body = FiniteSupportFn((0, 0, 0, 0, 0, 1)).program()
    code = encode(body)
    assert code.bit_length() >= machine._TABLE_MIN_BITS and "_code" in vars(body)

    listed = Expr("pair", [body, ARG])
    stray = Expr("succ", (body,), 7)
    first = encode(listed)
    assert first == encode_reference(listed)
    assert encode(stray) == encode_reference(stray)
    assert "_code" not in vars(listed) and "_code" not in vars(stray)
    listed.args[1] = const(5)
    second = encode(listed)
    assert second != first and second == encode_reference(listed)
    listed.args[0] = ARG
    assert encode(listed) == encode_reference(listed) == pair(0, 61) * 12 + 4
    assert "_code" not in vars(listed)

    # nothing below a stray node is stored, however big
    fresh = FiniteSupportFn((0, 0, 0, 0, 0, 2)).program()
    before = list(machine._CODES.entries)
    encode(Expr("succ", (fresh,), 7))
    assert not any("_code" in vars(n) for n in nodes(fresh))
    assert list(machine._CODES.entries) == before


def test_big_constant_leaves_are_never_stored():
    leaf = const(2**1999 + 5)
    whole = node("pair", node("succ", leaf), ARG)
    for _ in range(2):
        assert encode(whole) == encode_reference(whole)
        assert encode(leaf) == encode_reference(leaf)
        assert alias_certificate(whole) == TotalityCertificate(alias_reference(whole), encode_reference(whole))
    assert "_code" not in vars(leaf)
    assert all(n is not leaf for n in machine._CODES.entries.values())
    assert encode_reference(leaf) not in machine._CODES.entries
    assert whole.args[0]._code == encode_reference(whole.args[0])


@SETTINGS
@given(sized_programs, st.booleans())
def test_alias_matches_the_reference_and_is_never_stored(e, coded_first):
    if coded_first:
        encode(e)
    cert = alias_certificate(e)
    expect = alias_reference(e) if apply_free(e) else None
    if expect is None:
        assert cert is None
        return
    assert cert == TotalityCertificate(expect, encode_reference(e))
    assert cert.derivation not in machine._CODES.entries
    check_stored_codes(e)
    assert check_proof(cert.derivation, cert.index)
    assert alias_certificate(e) == cert


def test_alias_of_a_shared_subtree():
    inner = node("succ", FiniteSupportFn((0, 0, 0, 0, 0, 1)).program())
    whole = node("pair", inner, inner)  # the first argument node is in the left copy only
    for _ in range(2):
        cert = alias_certificate(whole)
        assert cert == TotalityCertificate(alias_reference(whole), encode_reference(whole))
        check_stored_codes(whole)
    assert inner._code == encode_reference(inner)


def test_alias_of_a_deep_program_without_the_host_stack():
    deep = unary_chain(3000)
    cert = alias_certificate(deep)
    expect = 12
    for i in range(3000):
        expect = expect * 12 + machine.TAG[("succ", "pred", "fst", "snd")[i % 4]]
    assert cert == TotalityCertificate(expect, encode(deep))
    assert cert.derivation > cert.index
    assert check_proof(cert.derivation, cert.index)


def test_deep_program_text_round_trips():
    deep = unary_chain(3000)
    text = format_program(deep)
    assert text.startswith("(snd (fst (pred (succ (snd") and text.endswith(" arg" + ")" * 3000)
    assert fields(parse_program(text)) == fields(deep)
    pairs = node("pair", deep, node("if0", const(3), deep, ARG))
    assert fields(parse_program(format_program(pairs))) == fields(pairs)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of program text"),
        ("(succ)", "unexpected token ')'"),
        ("()", "unknown operation ')'"),
        ("(arg)", "unknown operation 'arg'"),
        ("(const)", "const needs a numeral"),
        ("(const 3 4)", "missing closing parenthesis"),
        ("(pair arg)", "unexpected token ')'"),
        ("(pair arg arg arg)", "missing closing parenthesis"),
        ("((succ arg))", "unknown operation '('"),
        ("(succ arg))", "trailing tokens after program"),
        ("(succ (pred (const 1) arg))", "missing closing parenthesis"),
        pytest.param("(succ " * 2000 + "arg" + ")" * 1999, "missing closing parenthesis", id="deep"),
    ],
)
def test_program_text_errors_are_named(text, message):
    with pytest.raises(ValueError) as info:
        parse_program(text)
    assert str(info.value) == message
