"""Shrinking engines: bound a range-witnessed term below a candidate value,
do it while preserving a prefix of the schedule, and iterate the bound along
a stage chain so a whole term sequence ends up dominated by the index.

The core move: if every compatible full-depth node already answers <= I the
open is good as is; otherwise split the stem position into values <= I,
recurse, and merge the branches by pointwise minimum with the stem value
set to I.  Termination comes from the finite modulus: once the stem passes
the modulus there is a single node left, and its answer is one of the
pinned prefix entries, hence <= I for any candidate open.  Outputs are the
pointwise largest schedules the recursion allows, so results are stable for
golden tests.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Mapping

from .errors import BadCandidate, EmptyOpenError, OracleNotTotal, PointNotInOpen, TermNotTotal
from .seq_opens import (
    BasicOpen,
    Open,
    Point,
    compatible_nodes,
    is_empty,
    member,
    min_schedule,
    restrict_by_seq,
    split,
)
from .terms import (
    GuardedPart,
    GuardedTerm,
    Node,
    Term,
    TermSequence,
    amalgamate,
    decide_term,
    term_values,
)


def _good_extension(p: BasicOpen, t: Term, I: int) -> BasicOpen:
    if all(value <= I for value in term_values(p, t)):
        return p
    if p.stem >= t.modulus:
        # A single fully pinned node remains; for range-witnessed terms its
        # value is a prefix entry <= I, so reaching here means t was not.
        raise BadCandidate("term value on a pinned node exceeds the candidate; not range-witnessed")
    branches = [_good_extension(split(p, i), t, I) for i in range(I + 1)]
    merged = reduce(min_schedule, (b.schedule for b in branches))
    return BasicOpen(p.stem, merged.overwrite(p.stem, [I]))


def bound_range_term(p: Open, t: Term, I: int) -> BasicOpen:
    """Shrink p (same stem) so every compatible node answers <= I, with the
    schedule still >= I at the stem."""
    if is_empty(p):
        raise EmptyOpenError("cannot bound a term under the empty open")
    return bound_range_term_at(p, t, I, p.stem)


def bound_range_term_at(p: Open, t: Term, I: int, M: int) -> BasicOpen:
    """Depth-M variant: keep the schedule exactly below M, push the bound at
    M.  Each depth-M node's piece is bounded on its own and the results
    merged by pointwise minimum; at M = the stem the one piece is p."""
    if is_empty(p):
        raise EmptyOpenError("cannot bound a term under the empty open")
    if M < p.stem:
        raise BadCandidate(f"cut position {M} lies below the stem {p.stem}")
    below = max([p.g(n) for n in range(M)], default=0)
    if I < below:
        raise BadCandidate(f"candidate {I} is below the schedule maximum {below} before position {M}")
    if I > p.g(M):
        raise BadCandidate(f"candidate {I} exceeds the schedule value {p.g(M)} at position {M}")
    shrunk = [_good_extension(restrict_by_seq(p, sigma), t, I) for sigma in compatible_nodes(p, M)]
    merged = reduce(min_schedule, (q.schedule for q in shrunk))
    return BasicOpen(p.stem, merged.overwrite(0, p.schedule.values(M)))


def fuse_pseudobound(p: Open, a: TermSequence, f: Point, stages: int) -> tuple[int, list[BasicOpen]]:
    """Build the chain q_N >= q_{N+1} >= ... forcing a(n) <= n from N = sup rng(f) on.

    Returns (N, chain) with chain[j] forcing a(n) <= n for N <= n <= N+j and
    f a member of every chain element.
    """
    if is_empty(p):
        raise EmptyOpenError("cannot fuse below the empty open")
    if not member(f, p):
        raise PointNotInOpen("the distinguished point must lie in the open")
    N = f.sup_range()
    chain: list[BasicOpen] = []
    cur = p
    for j in range(stages + 1):
        I = N + j
        M = cur.stem
        while cur.g(M) < I + (1 if j == 0 else 0):
            M += 1
        # Stage 0 cuts at the first position whose schedule value exceeds N;
        # later stages cut where the previous schedule first reaches N+j.
        cur = bound_range_term_at(cur, a(I), I, M)
        chain.append(cur)
    return N, chain


OracleEntry = tuple[int, Term]
NodeOracle = Mapping[Node, OracleEntry]


def _oracle_depth(oracle: NodeOracle) -> int:
    depths = {len(node) for node in oracle}
    if len(depths) != 1:
        raise OracleNotTotal("oracle nodes must share a single depth")
    return depths.pop()


def extract_witness(p: Open, oracle: NodeOracle, I: int) -> tuple[BasicOpen, GuardedTerm]:
    """Amalgamate the oracle's per-node witness terms over the depth cover of p.

    The open itself needs no shrinking: the oracle is already total on the
    cover, so the pointwise largest refinement is p unchanged.
    """
    if is_empty(p):
        raise EmptyOpenError("cannot extract a witness below the empty open")
    return extract_witness_at(p, oracle, I, p.stem)


def extract_witness_at(p: Open, oracle: NodeOracle, I: int, M: int) -> tuple[BasicOpen, GuardedTerm]:
    """extract_witness with the candidate checked at position M >= the stem:
    one amalgamation over the oracle's depth cover, which refines the
    depth-M cover of p."""
    if is_empty(p):
        raise EmptyOpenError("cannot extract a witness below the empty open")
    if M < p.stem:
        raise BadCandidate(f"cut position {M} lies below the stem {p.stem}")
    if I > p.g(M):
        raise BadCandidate(f"candidate {I} exceeds the schedule value at position {M}")
    depth = _oracle_depth(oracle)
    if depth < M:
        raise OracleNotTotal(f"oracle depth {depth} is shallower than the cut position {M}")
    parts: list[tuple[BasicOpen, Term]] = []
    for node in compatible_nodes(p, depth):
        if node not in oracle:
            raise OracleNotTotal(f"oracle is missing the compatible node {node}")
        parts.append((restrict_by_seq(p, node), oracle[node][1]))
    return p, amalgamate(parts)


StepOracle = Callable[[int | GuardedTerm, BasicOpen], tuple[Term, int]]


def dc_chain(p: Open, step_oracle: StepOracle, a0: int, steps: int) -> tuple[list[BasicOpen], list[int | GuardedTerm]]:
    """Iterate witness extraction: each stage first decides the step term on
    p, and a decided value is the witness, since every piece of p decides
    it too.  Otherwise it decides the term once per node of p's depth
    cover, at least as deep as the first position where g reaches
    I + stage.  Those pieces pin distinct prefixes, so they are disjoint:
    the witness is their common value, else their guarded term.  Total step
    terms need no shrinking, so every chain entry is p itself."""
    if is_empty(p):
        raise EmptyOpenError("cannot build a chain below the empty open")
    I = p.g(p.stem)
    M = p.stem  # the cut only moves out as the stages climb
    witnesses: list[int | GuardedTerm] = [a0]
    for stage in range(1, steps + 1):
        term, depth = step_oracle(witnesses[-1], p)
        while p.g(M) < I + stage:
            M += 1
        try:
            decided = decide_term(p, term)
        except TermNotTotal:
            decided = None  # the cover walk names the node the table misses
        if decided is not None:
            witnesses.append(decided)
            continue
        parts: list[GuardedPart] = []
        values: set[int | None] = set()
        for node in compatible_nodes(p, max(depth, M)):
            piece = restrict_by_seq(p, node)
            values.add(decide_term(piece, term))
            if None in values:
                raise OracleNotTotal(f"step term undecided on node {node} at stage {stage}")
            parts.append(GuardedPart(piece, term))
        witnesses.append(values.pop() if len(values) == 1 else GuardedTerm(tuple(parts), 0))
    return [p] * (steps + 1), witnesses
