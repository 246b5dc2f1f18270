"""Basic opens of the space of eventually constant finite-range sequences.

A basic open is a pair (stem, g) of a cut position and a bound schedule g:
members agree with g exactly below the stem and are bounded by g from the
stem on.  Schedules are kept in finite form as an explicit list followed by
an affine tail with slope >= 1, so pointwise minima, membership tests and
subset tests all stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import EmptyOpenError, IncompatibleSeq, SplitOutOfRange


def is_nat(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _nat(x: int, what: str) -> int:
    if not is_nat(x):
        raise ValueError(f"{what} must be a natural number, got {x!r}")
    return x


@dataclass(frozen=True)
class BoundSchedule:
    """Total map n -> value: explicit entries, then base + slope*(n - len)."""

    explicit: tuple[int, ...]
    tail_base: int
    tail_slope: int

    def __post_init__(self):
        object.__setattr__(self, "explicit", tuple(self.explicit))
        for v in self.explicit:
            _nat(v, "schedule entry")
        _nat(self.tail_base, "tail_base")
        if _nat(self.tail_slope, "tail_slope") < 1:
            raise ValueError("tail_slope must be >= 1")

    def value(self, n: int) -> int:
        m = len(self.explicit)
        if n < m:
            return self.explicit[n]
        return self.tail_base + self.tail_slope * (n - m)

    def normalized(self) -> BoundSchedule:
        # Absorb trailing explicit entries that already sit on the affine tail.
        explicit = list(self.explicit)
        base = self.tail_base
        while explicit and base >= self.tail_slope and explicit[-1] == base - self.tail_slope:
            base -= self.tail_slope
            explicit.pop()
        return BoundSchedule(tuple(explicit), base, self.tail_slope)

    def values(self, upto: int) -> list[int]:
        return [self.value(n) for n in range(upto)]

    def overwrite(self, start: int, entries: Sequence[int]) -> BoundSchedule:
        """The same schedule with entries written from position start on."""
        end = start + len(entries)
        upto = max(end, len(self.explicit))
        explicit = self.values(upto)
        explicit[start:end] = entries
        return BoundSchedule(tuple(explicit), self.value(upto), self.tail_slope)


def schedule_of(explicit: Iterable[int], base: int, slope: int = 1) -> BoundSchedule:
    return BoundSchedule(tuple(explicit), base, slope)


def min_schedule(a: BoundSchedule, b: BoundSchedule) -> BoundSchedule:
    """Pointwise minimum; closed in explicit+affine form since slopes are >= 1."""
    start = max(len(a.explicit), len(b.explicit))
    n = start
    # Walk until one affine tail dominates for good.
    if a.tail_slope == b.tail_slope:
        winner = a if a.value(start) <= b.value(start) else b
        cut = start
    else:
        lo, hi = (a, b) if a.tail_slope < b.tail_slope else (b, a)
        while lo.value(n) > hi.value(n):
            n += 1
        winner, cut = lo, n
    explicit = [min(a.value(i), b.value(i)) for i in range(cut)]
    m = len(winner.explicit)
    base = winner.tail_base + winner.tail_slope * (cut - m)
    return BoundSchedule(tuple(explicit), base, winner.tail_slope).normalized()


@dataclass(frozen=True)
class BasicOpen:
    """Nonempty basic open: prefix pinned below stem, schedule-bounded beyond."""

    stem: int
    schedule: BoundSchedule

    def __post_init__(self):
        _nat(self.stem, "stem")
        object.__setattr__(self, "schedule", self.schedule.normalized())
        g = self.schedule
        horizon = max(self.stem + 1, len(g.explicit) + 1)
        prev = g.value(self.stem)
        for n in range(self.stem + 1, horizon + 1):
            cur = g.value(n)
            if cur < prev:
                raise ValueError("schedule must be non-decreasing from the stem on")
            prev = cur
        if any(g.value(i) > g.value(self.stem) for i in range(self.stem)):
            raise ValueError("schedule at the stem must dominate the pinned prefix")

    def g(self, n: int) -> int:
        return self.schedule.value(n)

    def prefix(self) -> tuple[int, ...]:
        return tuple(self.schedule.value(i) for i in range(self.stem))

    def max_prefix(self) -> int:
        return max([self.schedule.value(i) for i in range(self.stem)], default=0)


@dataclass(frozen=True)
class EmptyOpen:
    """The empty open; an explicit value, never an error by itself."""


EMPTY = EmptyOpen()

Open = BasicOpen | EmptyOpen


def is_empty(o: Open) -> bool:
    return isinstance(o, EmptyOpen)


def _require_nonempty(o: Open) -> BasicOpen:
    if isinstance(o, EmptyOpen):
        raise EmptyOpenError("operation requires a nonempty open")
    return o


def make_open(stem: int, explicit: Iterable[int], base: int, slope: int = 1) -> BasicOpen:
    return BasicOpen(stem, BoundSchedule(tuple(explicit), base, slope))


@dataclass(frozen=True)
class Point:
    """Eventually constant sequence: explicit prefix, then a constant tail."""

    prefix: tuple[int, ...]
    tail_value: int

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        for v in self.prefix:
            _nat(v, "point entry")
        _nat(self.tail_value, "tail_value")

    def value(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail_value

    def sup_range(self) -> int:
        return max([self.tail_value, *self.prefix])


def eval_schedule(g: BoundSchedule, n: int) -> int:
    return g.value(_nat(n, "index"))


def member(f: Point, o: Open) -> bool:
    """Membership: exact below the stem, bounded by the schedule beyond."""
    if is_empty(o):
        return False
    p = o
    for n in range(p.stem):
        if f.value(n) != p.g(n):
            return False
    # Beyond the stem the schedule is non-decreasing and unbounded, so once it
    # clears the tail value past the explicit data the check is settled.
    horizon = max(len(f.prefix), len(p.schedule.explicit), p.stem)
    n = p.stem
    while n <= horizon or p.g(n) < f.tail_value:
        if f.value(n) > p.g(n):
            return False
        n += 1
    return True


def canonical_point(o: Open) -> Point:
    p = _require_nonempty(o)
    return Point(p.prefix(), 0)


def intersect(a: Open, b: Open) -> Open:
    """Set intersection of two basic opens, again basic open (or empty)."""
    if is_empty(a) or is_empty(b):
        return EMPTY
    p, q = (a, b) if a.stem >= b.stem else (b, a)
    for n in range(q.stem):
        if p.g(n) != q.g(n):
            return EMPTY
    for n in range(q.stem, p.stem):
        if p.g(n) > q.g(n):
            return EMPTY
    return BasicOpen(p.stem, min_schedule(p.schedule, q.schedule))


def _tail_le(a: BasicOpen, b: BasicOpen, start: int) -> bool:
    """Does g_a(n) <= g_b(n) hold for every n >= start?"""
    ga, gb = a.schedule, b.schedule
    settle = max(start, len(ga.explicit), len(gb.explicit))
    for n in range(start, settle + 1):
        if ga.value(n) > gb.value(n):
            return False
    if ga.tail_slope > gb.tail_slope:
        return False
    return True


def subset(a: Open, b: Open) -> bool:
    if is_empty(a):
        return True
    if is_empty(b):
        return False
    p, q = a, b
    lo = min(p.stem, q.stem)
    for n in range(lo):
        if p.g(n) != q.g(n):
            return False
    if p.stem >= q.stem:
        if any(p.g(n) > q.g(n) for n in range(q.stem, p.stem)):
            return False
        return _tail_le(p, q, p.stem)
    # p leaves room below q's stem; only an all-zero band keeps the inclusion.
    if any(p.g(n) != 0 or q.g(n) != 0 for n in range(p.stem, q.stem)):
        return False
    return _tail_le(p, q, q.stem)


def split(r: Open, i: int) -> BasicOpen:
    """Refine r by pinning the stem position to i; the r_i of the split cover."""
    p = _require_nonempty(r)
    _nat(i, "split value")
    if i > p.g(p.stem):
        raise SplitOutOfRange(f"split value {i} exceeds schedule value {p.g(p.stem)} at the stem")
    return BasicOpen(p.stem + 1, p.schedule.overwrite(p.stem, [i]))


def restrict_by_seq(p: Open, sigma: Sequence[int]) -> BasicOpen:
    """Pin a whole compatible initial segment; stem advances to len(sigma)."""
    base_open = _require_nonempty(p)
    entries = [_nat(v, "sequence entry") for v in sigma]
    if len(entries) < base_open.stem:
        raise IncompatibleSeq("sequence shorter than the stem")
    for n, v in enumerate(entries):
        if n < base_open.stem:
            if v != base_open.g(n):
                raise IncompatibleSeq(f"entry {v} at {n} differs from pinned value {base_open.g(n)}")
        elif v > base_open.g(n):
            raise IncompatibleSeq(f"entry {v} at {n} exceeds schedule value {base_open.g(n)}")
    return BasicOpen(len(entries), base_open.schedule.overwrite(0, entries))


def forces_G_value(p: Open, n: int) -> int | None:
    """The forced value of the generic at n, if n is below the stem."""
    o = _require_nonempty(p)
    if n < o.stem:
        return o.g(n)
    return None


def force_value_into_range(p: Open, B: int) -> BasicOpen:
    """Shrink p so some pinned position carries the value B."""
    o = _require_nonempty(p)
    _nat(B, "target value")
    for n in range(o.stem):
        if o.g(n) == B:
            return o
    n = o.stem
    while o.g(n) < B:
        n += 1
    sigma = o.schedule.values(n) + [B]
    return restrict_by_seq(o, sigma)


def _entries(p: BasicOpen, i: int, cap: int | None) -> range:
    """Values a compatible node holds at position i: the pinned value below
    the stem, otherwise anything up to the schedule; never above cap."""
    hi = p.g(i) if cap is None else min(p.g(i), cap)
    return range(p.g(i) if i < p.stem else 0, hi + 1)


def compatible(p: BasicOpen, node: Sequence[int], cap: int | None = None) -> bool:
    """Is node one of compatible_nodes(p, len(node), cap)?"""
    return all(v in _entries(p, i, cap) for i, v in enumerate(node))


def compatible_nodes(p: BasicOpen, depth: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All length-`depth` sequences a member of p can start with (lex order),
    restricted to entries <= cap when a cap is given."""
    def rec(i: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == depth:
            yield tuple(acc)
            return
        for v in _entries(p, i, cap):
            acc.append(v)
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(0, [])


def count_nodes(p: BasicOpen, depth: int, cap: int | None = None) -> int:
    """The number of nodes compatible_nodes(p, depth, cap) yields."""
    return prod(len(_entries(p, i, cap)) for i in range(depth))
