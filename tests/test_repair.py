"""Re-pairing by difference.

`_repair` moves a Cantor code by its finite difference instead of pairing
again; `check_proof` and `alias_certificate` build their codes with it.
Each is held against the plain computation it replaces: `_repair` against
`pair`, `check_proof` against decoding and re-encoding by the references,
`alias_certificate` against `alias_reference`, on codes on both sides of
the decode table's floor and with the table cold and warm.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import machine
from boundlab.machine import (
    ARG,
    Expr,
    TotalityCertificate,
    _repair,
    alias_certificate,
    apply_free,
    check_proof,
    const,
    encode,
    node,
)
from boundlab.realizability import FiniteSupportFn

from oracles import alias_reference, cantor_pair, decode_reference, encode_reference

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
@given(sized_programs, arg_payloads, st.integers(0, 3), st.integers(-24, 24), st.booleans())
def test_check_proof_is_decode_then_encode(e, payloads, claim, shift, warm):
    """j codes e with the argument nodes carried by the drawn payloads; w is
    e's canonical code, shifted, or unrelated to it."""
    if warm:
        encode(e)
    table = machine._CODES
    before = snapshot(table)
    j = encode_reference(e, list(payloads))
    canonical = encode_reference(e)
    w = [canonical, canonical + shift, shift, canonical + 12 * shift][claim]
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


def test_check_proof_rejects_applications_inside_table_hits(fresh_table):
    body = node("pair", lookup((0, 0, 0, 0, 1)), node("apply", ARG, ARG))
    assert encode(body) in fresh_table.entries
    outer = node("succ", body)
    for j in (encode(outer), encode_reference(outer, [3])):
        assert not check_proof(j, encode(outer))


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
