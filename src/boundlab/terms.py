"""Decision-tree terms decided by a finite prefix of the generic sequence.

A term of modulus k reads the first k values and answers from a finite
table.  Range-witnessed terms additionally name a position m < k whose
entry equals the answer, so any open pinning the node forces the answer to
be a value of the generic.  Guarded terms glue per-open terms together with
a default outside every guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from .errors import AmbiguousAmalgamation, EmptyOpenError, TermNotTotal
from .seq_opens import (
    BasicOpen,
    Open,
    compatible_nodes,
    intersect,
    is_empty,
    restrict_by_seq,
    subset,
)

Node = tuple[int, ...]


@dataclass(frozen=True)
class DecisionTerm:
    """Plain finite decision table: length-`modulus` node -> value."""

    modulus: int
    table: Mapping[Node, int]

    def has_node(self, node: Node) -> bool:
        return node in self.table

    def value_at(self, node: Node) -> int:
        return self.table[node]


def constant_term(value: int) -> DecisionTerm:
    # Modulus 0 has the single empty node, so the term is decided everywhere.
    return DecisionTerm(0, {(): value})


@dataclass(frozen=True)
class RangeTerm:
    """Decision table with a per-node witness position certifying the value.

    table maps each node to (value, witness) with witness < modulus and
    node[witness] == value.
    """

    modulus: int
    table: Mapping[Node, tuple[int, int]]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be at least 1")
        for node, (value, witness) in self.table.items():
            if len(node) != self.modulus:
                raise ValueError(f"node {node} has wrong length for modulus {self.modulus}")
            if not 0 <= witness < self.modulus:
                raise ValueError(f"witness {witness} out of range for node {node}")
            if node[witness] != value:
                raise ValueError(f"node {node} does not carry value {value} at witness {witness}")

    def has_node(self, node: Node) -> bool:
        return node in self.table

    def value_at(self, node: Node) -> int:
        return self.table[node][0]

    def witness_at(self, node: Node) -> int:
        return self.table[node][1]


Term = DecisionTerm | RangeTerm


def range_term_from(modulus: int, nodes: Sequence[Node], witness_of: Callable[[Node], int]) -> RangeTerm:
    """Build a range term by picking a witness position for every node."""
    table: dict[Node, tuple[int, int]] = {}
    for node in nodes:
        m = witness_of(node)
        table[node] = (node[m], m)
    return RangeTerm(modulus, table)


def identity_term(p: BasicOpen) -> RangeTerm:
    """Modulus-1 term answering the first value of the generic, total on p."""
    return range_term_from(1, list(compatible_nodes(p, 1)), lambda node: 0)


def term_values(p: BasicOpen, t: Term) -> Iterator[int]:
    """t's value on each node of compatible_nodes(p, t.modulus), in order."""
    for node in compatible_nodes(p, t.modulus):
        if not t.has_node(node):
            raise TermNotTotal(f"table is missing the compatible node {node}")
        yield t.value_at(node)


def decide_term(p: Open, t: Term) -> int | None:
    """Decided value of t under p, or None when compatible nodes disagree."""
    if is_empty(p):
        raise EmptyOpenError("cannot decide a term under the empty open")
    values = set(term_values(p, t))
    return values.pop() if len(values) == 1 else None


@dataclass(frozen=True)
class GuardedPart:
    guard: BasicOpen
    body: Term


@dataclass(frozen=True)
class GuardedTerm:
    """Per-guard decision terms with a default value outside every guard."""

    parts: tuple[GuardedPart, ...]
    default: int = 0


def restrict_term(t: Term, r: Open) -> GuardedTerm:
    guard = r
    if is_empty(guard):
        raise EmptyOpenError("cannot restrict a term to the empty open")
    return GuardedTerm((GuardedPart(guard, t),), 0)


def decide_guarded(p: Open, gt: GuardedTerm) -> int | None:
    """Decide a guarded term under p: wait until every depth piece of p has
    settled inside a single guard or outside all of them."""
    if is_empty(p):
        raise EmptyOpenError("cannot decide a term under the empty open")
    depth = max([p.stem] + [part.guard.stem for part in gt.parts])
    values: set[int] = set()
    for node in compatible_nodes(p, depth):
        piece = restrict_by_seq(p, node)
        value: int | None = None
        inside = False
        for part in gt.parts:
            if subset(piece, part.guard):
                inside = True
                value = decide_term(piece, part.body)
                break
            if not is_empty(intersect(piece, part.guard)):
                return None
        if not inside:
            value = gt.default
        if value is None:
            return None
        values.add(value)
        if len(values) > 1:
            return None
    return values.pop()


def amalgamate(parts: Sequence[tuple[BasicOpen, Term]]) -> GuardedTerm:
    """Glue per-open decided terms; overlaps must not decide conflicting values."""
    built: list[GuardedPart] = []
    for guard, body in parts:
        if decide_term(guard, body) is None:
            raise ValueError("amalgamation part is not decided under its own guard")
        built.append(GuardedPart(guard, body))
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            overlap = intersect(built[i].guard, built[j].guard)
            if is_empty(overlap):
                continue
            vi = decide_term(overlap, built[i].body)
            vj = decide_term(overlap, built[j].body)
            if vi is not None and vj is not None and vi != vj:
                raise AmbiguousAmalgamation(
                    f"parts {i} and {j} decide {vi} != {vj} on their overlap"
                )
    return GuardedTerm(tuple(built), 0)


@dataclass(frozen=True)
class TermSequence:
    """Countable family n -> term, given by a generator function."""

    generator: Callable[[int], Term] = field(compare=False)

    def __call__(self, n: int) -> Term:
        return self.generator(n)


def is_pseudobounded_violation(seq: Sequence[int]) -> int | None:
    """Least N with seq[n] <= n for all n >= N inside the list; None if the
    final entry still violates the bound."""
    last_bad = -1
    for n, value in enumerate(seq):
        if value > n:
            last_bad = n
    if last_bad == len(seq) - 1 and last_bad >= 0:
        return None
    return last_bad + 1
