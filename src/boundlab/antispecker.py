"""Escape-schedule construction over bounded trees of compatible sequences.

The ambient data is a basic open together with an oracle that, for each
index n, decides at some tree depth whether the n-th term has escaped to
the extra point (star) or not.  Bounded subtrees see only finitely many
non-star nodes; the staged construction exploits that to shrink the open
into one whose members make the term sequence eventually star, up to a
finite frontier M, verified level by level on the requested window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import BadCandidate, OracleNotTotal, ScheduleUnsound
from .seq_opens import BasicOpen, compatible, compatible_nodes, count_nodes

Node = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class StarOracle:
    """Per-index decision data: deciding depth and star/non-star labels.

    With ``default_star`` set, unlisted labels count as star, which keeps
    generated oracles sparse; otherwise a missing label is a totality hole.
    """

    levels: Mapping[int, int]
    labels: Mapping[tuple[int, Node], bool]
    default_star: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels", dict(self.levels))
        object.__setattr__(
            self, "labels", {(n, tuple(node)): bool(s) for (n, node), s in self.labels.items()}
        )

    def level_of(self, n: int) -> int:
        if n not in self.levels:
            raise OracleNotTotal(f"no deciding depth for index {n}")
        return self.levels[n]

    def is_star(self, n: int, node: Node) -> bool:
        key = (n, tuple(node))
        if key in self.labels:
            return self.labels[key]
        if self.default_star:
            return True
        raise OracleNotTotal(f"no label for index {n} at node {tuple(node)}")

    def nonstar_listed(self, n: int) -> list[Node]:
        return sorted(node for (m, node), s in self.labels.items() if m == n and not s)


def all_star_oracle(levels: Mapping[int, int]) -> StarOracle:
    return StarOracle(dict(levels), {}, default_star=True)


@dataclass(frozen=True)
class BoundedTree:
    """The subtree of the ambient open's tree with all entries below the bound."""

    ambient: BasicOpen
    bound: int

    def __post_init__(self):
        if not isinstance(self.bound, int) or self.bound < 1:
            raise ValueError(f"bound must be a positive integer, got {self.bound!r}")


def _level(q: BasicOpen, depth: int, cap: int | None) -> Iterator[Node]:
    if depth < q.stem:
        raise ValueError("depth must reach the ambient stem")
    return compatible_nodes(q, depth, cap)


def enumerate_level(tree: BoundedTree, depth: int) -> list[Node]:
    """All nodes of the bounded tree at the given depth, lexicographically."""
    return list(_level(tree.ambient, depth, tree.bound - 1))


def level_count(tree: BoundedTree, depth: int) -> int:
    # The tree has no level shallower than the stem; such depths count its
    # single pinned stem node.
    return count_nodes(tree.ambient, max(depth, tree.ambient.stem), tree.bound - 1)


def _nonstar(oracle: StarOracle, n: int, depth: int, walk: BasicOpen, cap: int | None) -> Iterator[Node]:
    """Candidate depth-`depth` nodes labeled non-star for index n: the listed
    ones, or, under total labels, `walk`'s nodes asked about in order."""
    if depth < walk.stem:
        raise ValueError("depth must reach the ambient stem")
    if oracle.default_star:
        return (node for node in oracle.nonstar_listed(n) if len(node) == depth)
    return (node for node in _level(walk, depth, cap) if not oracle.is_star(n, node))


def nonstar_nodes(tree: BoundedTree, oracle: StarOracle, n: int) -> list[Node]:
    """The finitely many depth-i_n nodes of the tree labeled non-star."""
    q, cap = tree.ambient, tree.bound - 1
    return [node for node in _nonstar(oracle, n, oracle.level_of(n), q, cap) if compatible(q, node, cap)]


def _build(q: BasicOpen, oracle: StarOracle, I: int, horizon: int):
    if I < q.max_prefix():
        raise BadCandidate(f"target value {I} is below the pinned prefix maximum {q.max_prefix()}")
    levels = {n: oracle.level_of(n) for n in range(horizon + 1)}
    for n, depth in levels.items():
        if depth < q.stem:
            raise ValueError(f"deciding depth {depth} for index {n} is below the stem")
    top = max(levels.values())
    vis_cap = max((q.g(k) for k in range(q.stem, top + 1)), default=0)

    # r is q with every segment written so far; past the frontier it is q.
    r = q
    frontier = q.stem - 1
    j_first: int | None = None
    frames: list[dict] = []
    stage = 0
    while True:
        cap = I + stage + 1
        # Non-star nodes inside the stage subtree past the frontier, asked
        # about along q's capped nodes.
        lengths = [
            depth
            for n, depth in levels.items()
            if depth > frontier
            and any(compatible(r, node, cap) for node in _nonstar(oracle, n, depth, q, cap))
        ]
        if not lengths:
            frames.append({"stage": stage, "cap": cap, "nonstar_max": None, "wrote": None, "values": []})
            if stage == 0 and j_first is None:
                j_first = q.stem - 1
            if cap >= vis_cap:
                break
            stage += 1
            continue
        j_new = max(lengths)
        if j_new >= top:
            raise ScheduleUnsound(
                f"non-star nodes reach the top visible level {top}; escape not certifiable"
            )
        written = [min(q.g(k), I + stage) for k in range(frontier + 1, j_new + 1)]
        r = BasicOpen(q.stem, r.schedule.overwrite(frontier + 1, written))
        wrote = [frontier + 1, j_new]
        frames.append({"stage": stage, "cap": cap, "nonstar_max": j_new, "wrote": wrote, "values": written})
        if j_first is None:
            j_first = j_new
        frontier = j_new
        stage += 1

    cut = j_first if j_first is not None else q.stem - 1
    M = max([n for n, depth in levels.items() if depth <= cut], default=0)

    for m in range(M + 1, horizon + 1):
        if any(compatible(r, node) for node in _nonstar(oracle, m, levels[m], r, None)):
            raise ScheduleUnsound(
                f"index {m} past the frontier M={M} still has a compatible non-star node"
            )
    return r, M, frames


def build_escape_schedule(
    q: BasicOpen, oracle: StarOracle, I: int, horizon: int
) -> tuple[BasicOpen, int]:
    """Shrink q so that, past a finite frontier M, every decided index is star.

    Stage e admits entries up to I+e+1 past the current frontier, writes the
    value I+e across the segment reaching the deepest non-star node found,
    and advances; the loop closes once the full visible tree is clean past
    the frontier.  The result keeps q's stem and is verified level by level
    up to the horizon.
    """
    r, M, _ = _build(q, oracle, I, horizon)
    return r, M


def escape_trace(q: BasicOpen, oracle: StarOracle, I: int, horizon: int) -> dict:
    """The staged construction with its full frame-by-frame trace."""
    r, M, frames = _build(q, oracle, I, horizon)
    return {"result": r, "M": M, "frames": frames}
