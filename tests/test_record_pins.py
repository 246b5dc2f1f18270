"""Frozen value records: equality, hashing, repr, construction and
immutability of every record class, as `@dataclass(frozen=True)` gave them.

Each case builds a record positionally and again by keyword, and a third
that differs in one field; the repr strings are the ones dataclasses wrote.
"""

import pickle

import pytest

from boundlab.antispecker import BoundedTree, StarOracle
from boundlab.machine import Expr, TotalityCertificate
from boundlab.realizability import FiniteSupportFn, VTrace
from boundlab.seq_opens import EMPTY, BasicOpen, BoundSchedule, EmptyOpen, Point
from boundlab.set_opens import PeriodicSet, SetOpen
from boundlab.terms import DecisionTerm, GuardedPart, GuardedTerm, RangeTerm, TermSequence

G = BoundSchedule((2,), 4, 1)
OPEN = BasicOpen(1, G)
OPEN_REPR = "BasicOpen(stem=1, schedule=BoundSchedule(explicit=(2,), tail_base=4, tail_slope=1))"
ARG = Expr("arg")
CONST = DecisionTerm(0, {(): 3})

# class -> (positional, keyword, differing, repr of the first two, a field)
CASES = {
    BoundSchedule: (
        lambda: BoundSchedule((1, 2), 3, 1),
        lambda: BoundSchedule(tail_slope=1, tail_base=3, explicit=[1, 2]),
        lambda: BoundSchedule((1, 2), 3, 2),
        "BoundSchedule(explicit=(1, 2), tail_base=3, tail_slope=1)",
        "tail_base",
    ),
    BasicOpen: (
        lambda: BasicOpen(1, G),
        lambda: BasicOpen(schedule=BoundSchedule([2], 4, 1), stem=1),
        lambda: BasicOpen(0, G),
        OPEN_REPR,
        "stem",
    ),
    EmptyOpen: (EmptyOpen, EmptyOpen, lambda: OPEN, "EmptyOpen()", None),
    Point: (
        lambda: Point((1, 2), 0),
        lambda: Point(tail_value=0, prefix=[1, 2]),
        lambda: Point((1, 2), 1),
        "Point(prefix=(1, 2), tail_value=0)",
        "prefix",
    ),
    DecisionTerm: (
        lambda: DecisionTerm(0, {(): 3}),
        lambda: DecisionTerm(table={(): 3}, modulus=0),
        lambda: DecisionTerm(0, {(): 4}),
        "DecisionTerm(modulus=0, table={(): 3})",
        "table",
    ),
    RangeTerm: (
        lambda: RangeTerm(1, {(0,): (0, 0)}),
        lambda: RangeTerm(table={(0,): (0, 0)}, modulus=1),
        lambda: RangeTerm(1, {(1,): (1, 0)}),
        "RangeTerm(modulus=1, table={(0,): (0, 0)})",
        "modulus",
    ),
    GuardedPart: (
        lambda: GuardedPart(OPEN, CONST),
        lambda: GuardedPart(body=DecisionTerm(0, {(): 3}), guard=BasicOpen(1, G)),
        lambda: GuardedPart(OPEN, DecisionTerm(0, {(): 4})),
        f"GuardedPart(guard={OPEN_REPR}, body=DecisionTerm(modulus=0, table={{(): 3}}))",
        "guard",
    ),
    GuardedTerm: (
        lambda: GuardedTerm((), 0),
        lambda: GuardedTerm(parts=()),
        lambda: GuardedTerm((), 1),
        "GuardedTerm(parts=(), default=0)",
        "default",
    ),
    TermSequence: (
        lambda: TermSequence(abs),
        lambda: TermSequence(generator=abs),
        None,
        "TermSequence(generator=<built-in function abs>)",
        "generator",
    ),
    PeriodicSet: (
        lambda: PeriodicSet((1, 0, 1, 0), (1, 0, 1, 0)),
        lambda: PeriodicSet(period=[1, 0], prefix=[]),
        lambda: PeriodicSet((), (0, 1)),
        "PeriodicSet(prefix=(), period=(1, 0))",
        "period",
    ),
    SetOpen: (
        lambda: SetOpen([3, 1], PeriodicSet((1, 1), (0, 1))),
        lambda: SetOpen(N=PeriodicSet((), (0, 1)), P=frozenset({1, 3})),
        lambda: SetOpen([3], PeriodicSet((), (0, 1))),
        "SetOpen(P=frozenset({1, 3}), N=PeriodicSet(prefix=(), period=(0, 1)))",
        "P",
    ),
    StarOracle: (
        lambda: StarOracle({0: 1}, {(0, (1,)): 1}),
        lambda: StarOracle(labels={(0, range(1, 2)): True}, levels={0: 1}, default_star=False),
        None,
        "StarOracle(levels={0: 1}, labels={(0, (1,)): True}, default_star=False)",
        "levels",
    ),
    BoundedTree: (
        lambda: BoundedTree(OPEN, 2),
        lambda: BoundedTree(bound=2, ambient=BasicOpen(1, G)),
        lambda: BoundedTree(OPEN, 3),
        f"BoundedTree(ambient={OPEN_REPR}, bound=2)",
        "bound",
    ),
    Expr: (
        lambda: Expr("succ", (ARG,), 0),
        lambda: Expr(op="succ", args=(Expr(op="arg"),)),
        lambda: Expr("const", (), 1),
        "Expr(op='succ', args=(Expr(op='arg', args=(), value=0),), value=0)",
        "op",
    ),
    TotalityCertificate: (
        lambda: TotalityCertificate(3, 4),
        lambda: TotalityCertificate(index=4, derivation=3),
        lambda: TotalityCertificate(4, 4),
        "TotalityCertificate(derivation=3, index=4)",
        "index",
    ),
    VTrace: (
        lambda: VTrace(2, (1,), 3),
        lambda: VTrace(value=3, qualifying_ks=(1,), n=2),
        lambda: VTrace(2, (), 3),
        "VTrace(n=2, qualifying_ks=(1,), value=3)",
        "value",
    ),
    FiniteSupportFn: (
        lambda: FiniteSupportFn([1, 0, 0]),
        lambda: FiniteSupportFn(values=(1,)),
        lambda: FiniteSupportFn((1, 1)),
        "FiniteSupportFn(values=(1,))",
        "values",
    ),
}
# Records that hold a dict field are unhashable, as dataclasses made them.
UNHASHABLE = {DecisionTerm, RangeTerm, GuardedPart}


def test_every_record_class_has_a_case():
    assert len(CASES) == 17


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr(cls):
    make, by_keyword, differing, text, _ = CASES[cls]
    a, b = make(), by_keyword()
    assert type(a) is cls and type(b) is cls
    assert repr(a) == repr(b) == text
    if cls is StarOracle:
        # eq=False: equal contents, distinct values, identity hash
        assert a != b and a == a
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    if differing:
        assert a != differing() and not a == differing()
    assert a != (a,) and (a == object()) is False
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", [c for c in CASES if CASES[c][4]], ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    a = CASES[cls][0]()
    name = CASES[cls][4]
    before = getattr(a, name)
    with pytest.raises(AttributeError) as e:
        setattr(a, name, before)
    assert str(e.value) == f"cannot assign to field {name!r}"
    assert type(e.value).__name__ == "FrozenInstanceError"
    with pytest.raises(AttributeError) as e:
        delattr(a, name)
    assert str(e.value) == f"cannot delete field {name!r}"
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1
    assert getattr(a, name) is before


def test_the_empty_open_is_one_value():
    assert EMPTY == EmptyOpen() and hash(EMPTY) == hash(EmptyOpen())
    assert EMPTY != OPEN
    with pytest.raises(AttributeError, match="cannot assign to field 'stem'"):
        EMPTY.stem = 0


def test_defaults():
    assert Expr("arg").args == () and Expr("arg").value == 0
    assert GuardedTerm(()).default == 0
    assert StarOracle({}, {}).default_star is False
    assert Expr("arg") == Expr("arg", (), 0)


def test_post_init_normalises_and_validates():
    g = BoundSchedule([1, 2], 3, 1)
    assert type(g.explicit) is tuple
    with pytest.raises(ValueError, match="tail_slope must be >= 1"):
        BoundSchedule((), 1, 0)
    # the stem's schedule is normalised: trailing entries on the tail are absorbed
    assert BasicOpen(1, BoundSchedule((2, 3, 4), 5, 1)).schedule == BoundSchedule((), 2, 1)
    with pytest.raises(ValueError, match="non-decreasing"):
        BasicOpen(1, BoundSchedule((2, 5, 1), 9, 1))
    assert Point([4], 0).prefix == (4,)
    with pytest.raises(ValueError, match="tail_value must be a natural"):
        Point((), -1)
    with pytest.raises(ValueError, match="witness 1 out of range"):
        RangeTerm(1, {(0,): (0, 1)})
    with pytest.raises(ValueError, match="modulus must be at least 1"):
        RangeTerm(0, {})
    assert PeriodicSet((0, 1, 1), (1, 1)) == PeriodicSet((0,), (1,))
    # only the cycle of the negative part counts, aligned to absolute positions
    s = SetOpen([2, 2], PeriodicSet((0, 0, 0), (0, 1)))
    assert s.P == frozenset({2}) and s.N == PeriodicSet((), (1, 0))
    labels = {(0, range(1, 2)): 1}
    o = StarOracle({0: 1}, labels)
    assert o.labels == {(0, (1,)): True} and o.labels is not labels
    with pytest.raises(ValueError, match="bound must be a positive integer"):
        BoundedTree(OPEN, 0)
    with pytest.raises(ValueError, match="unknown operation 'nope'"):
        Expr("nope")
    with pytest.raises(ValueError, match="succ takes 1 arguments"):
        Expr("succ")
    assert FiniteSupportFn((0, 2, 0, 0)).values == (0, 2)
    with pytest.raises(ValueError, match="finite-support values are naturals"):
        FiniteSupportFn((-1,))


def test_term_sequences_compare_without_their_generator():
    a, b = TermSequence(abs), TermSequence(lambda n: CONST)
    assert a == b and hash(a) == hash(b) == hash(())
    assert a(-2) == 2 and b(0) is CONST


def test_constructors_take_no_extra_arguments():
    with pytest.raises(TypeError):
        Point((), 0, 1)
    with pytest.raises(TypeError):
        Point(prefix=())
    with pytest.raises(TypeError):
        VTrace(1, (), 2, nope=3)
