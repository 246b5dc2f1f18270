"""Opens of the space of unbounded sets of naturals.

A basic open is a pair of positive information (a finite set that members
must include) and negative information (a set that members may meet only
finitely).  Negative parts and points are kept eventually periodic, which
makes finiteness, cofiniteness and finite-intersection questions decidable.
Negative parts only matter up to finite difference, so opens normalize them
to a prefix-free representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable

from .errors import EmptyOpenError, InconsistentTermFamily, NotAPoint, NotASubopen
from .seq_opens import _nat


def _bit(x: int, what: str) -> int:
    if _nat(x, what) > 1:
        raise ValueError(f"{what} must be 0 or 1, got {x!r}")
    return x


@dataclass(frozen=True)
class PeriodicSet:
    """Eventually periodic subset of the naturals: prefix bits, then a cycle.

    Instances normalize to a canonical form (primitive period block, prefix
    absorbed into the cycle wherever it already agrees), so equality of
    values is equality of the sets they denote.
    """

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        prefix = [_bit(b, "prefix bit") for b in self.prefix]
        period = [_bit(b, "period bit") for b in self.period]
        if not period:
            raise ValueError("period must be nonempty")
        for d in range(1, len(period) + 1):
            if len(period) % d == 0 and period == period[:d] * (len(period) // d):
                period = period[:d]
                break
        while prefix and prefix[-1] == period[-1]:
            prefix.pop()
            period = period[-1:] + period[:-1]
        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "period", tuple(period))

    def bit(self, n: int) -> int:
        _nat(n, "index")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def __contains__(self, n: int) -> bool:
        return self.bit(n) == 1

    def is_finite(self) -> bool:
        return not any(self.period)

    def is_cofinite(self) -> bool:
        return all(self.period)

    def is_unbounded(self) -> bool:
        return any(self.period)

    def complement(self) -> PeriodicSet:
        return PeriodicSet(
            tuple(1 - b for b in self.prefix), tuple(1 - b for b in self.period)
        )

    def members_below(self, upto: int) -> list[int]:
        return [n for n in range(upto) if self.bit(n) == 1]


def combine(a: PeriodicSet, b: PeriodicSet, op: Callable[[int, int], int]) -> PeriodicSet:
    """Pointwise combination; exact over the common prefix and lcm period."""
    cut = max(len(a.prefix), len(b.prefix))
    span = lcm(len(a.period), len(b.period))
    prefix = tuple(op(a.bit(n), b.bit(n)) for n in range(cut))
    period = tuple(op(a.bit(cut + j), b.bit(cut + j)) for j in range(span))
    return PeriodicSet(prefix, period)


def union_sets(a: PeriodicSet, b: PeriodicSet) -> PeriodicSet:
    return combine(a, b, lambda x, y: x | y)


def intersect_sets(a: PeriodicSet, b: PeriodicSet) -> PeriodicSet:
    return combine(a, b, lambda x, y: x & y)


def intersection_finite(a: PeriodicSet, b: PeriodicSet) -> bool:
    return intersect_sets(a, b).is_finite()


def empty_set() -> PeriodicSet:
    return PeriodicSet((), (0,))


def full_set() -> PeriodicSet:
    return PeriodicSet((), (1,))


def finite_set(members: Iterable[int]) -> PeriodicSet:
    ms = sorted({_nat(m, "member") for m in members})
    if not ms:
        return empty_set()
    bits = [0] * (ms[-1] + 1)
    for m in ms:
        bits[m] = 1
    return PeriodicSet(tuple(bits), (0,))


@dataclass(frozen=True)
class SetOpen:
    """Basic open: members include every positive entry and meet the
    negative part only finitely.  Emptiness is computed, never stored."""

    P: frozenset[int]
    N: PeriodicSet

    def __post_init__(self):
        object.__setattr__(self, "P", frozenset(_nat(n, "positive entry") for n in self.P))
        # The negative part matters only mod finite sets: drop the prefix and
        # keep the cycle aligned to absolute positions.
        m, block = len(self.N.prefix), self.N.period
        d = len(block)
        object.__setattr__(
            self, "N", PeriodicSet((), tuple(block[(j - m) % d] for j in range(d)))
        )

    def is_empty(self) -> bool:
        return self.N.is_cofinite()


def set_open(P: Iterable[int], N: PeriodicSet) -> SetOpen:
    return SetOpen(frozenset(P), N)


def member_set(X: PeriodicSet, O: SetOpen) -> bool:
    """Does X belong to O: positives all present, negatives met finitely."""
    if not X.is_unbounded():
        raise NotAPoint("points of the space are unbounded sets")
    if O.is_empty():
        return False
    if any(n not in X for n in O.P):
        return False
    return intersection_finite(O.N, X)


def intersect_set(O: SetOpen, U: SetOpen) -> SetOpen:
    """Componentwise union of information; intersection of the opens."""
    return SetOpen(O.P | U.P, union_sets(O.N, U.N))


def canonical_set_point(O: SetOpen) -> PeriodicSet:
    """The complement of the negative part, with the positives adjoined."""
    if O.is_empty():
        raise EmptyOpenError("the empty open has no points")
    return union_sets(finite_set(O.P), O.N.complement())


def forces_in_generic(O: SetOpen, n: int) -> bool:
    """n is forced into the generic exactly when it is positive information."""
    if O.is_empty():
        raise EmptyOpenError("the empty open forces everything; no generic content")
    return _nat(n, "index") in O.P


def unbounded_step(X: PeriodicSet, n: int) -> SetOpen:
    """The least element of X above n, packaged as the open pinning it."""
    if not X.is_unbounded():
        raise NotAPoint("points of the space are unbounded sets")
    j = _nat(n, "threshold") + 1
    while X.bit(j) == 0:
        j += 1
    return SetOpen(frozenset({j}), empty_set())


def subset_open(V: SetOpen, O: SetOpen) -> bool:
    """V ⊆ O, decided through the information pairs (V must be nonempty)."""
    if V.is_empty():
        raise NotASubopen("the empty open carries no canonical point to compare")
    if O.is_empty():
        return False
    if not O.P <= V.P:
        return False
    return intersection_finite(O.N, V.N.complement())


def compatible_extension_check(
    O: SetOpen, Pext: Iterable[int], V: SetOpen
) -> tuple[bool, PeriodicSet]:
    """Finite positive extensions stay compatible with every subopen.

    Returns the explicit common point of the extended open and V together
    with the result of checking it really lies in both; a False here means
    a broken invariant, not a legitimate outcome.
    """
    pext = frozenset(_nat(n, "extension entry") for n in Pext)
    if not O.P <= pext:
        raise ValueError("positive extension must contain the positive part")
    if not subset_open(V, O):
        raise NotASubopen("V does not sit below O")
    extended = SetOpen(pext, O.N)
    witness = union_sets(finite_set(pext | V.P), V.N.complement())
    ok = member_set(witness, extended) and member_set(witness, V)
    return ok, witness


def sequential_bound(
    O: SetOpen, decided: Iterable[tuple[Iterable[int], int]]
) -> int:
    """Bound a family of generic-valued entries decided near the canonical point.

    Each entry is (neighborhood positives, decided value); every value must be
    positive information of O and every neighborhood must be visible from the
    canonical point, with the compatibility fact re-checked per entry.
    """
    if O.is_empty():
        raise EmptyOpenError("cannot bound a family below the empty open")
    X = canonical_set_point(O)
    for raw_pu, value in decided:
        pu = frozenset(_nat(n, "neighborhood entry") for n in raw_pu)
        if any(n not in X for n in pu):
            raise InconsistentTermFamily(
                f"neighborhood {sorted(pu)} does not contain the canonical point"
            )
        if _nat(value, "decided value") not in O.P:
            raise InconsistentTermFamily(
                f"decided value {value} is not forced into the generic"
            )
        V = intersect_set(SetOpen(pu, O.N), O)
        ok, _ = compatible_extension_check(O, O.P | pu, V)
        if not ok:
            raise InconsistentTermFamily("compatibility witness failed to land in both opens")
    return max(O.P, default=0)
