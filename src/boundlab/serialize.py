"""JSON codecs for the workbench's value types.

Every ``*_to_json`` emits plain dicts/lists/ints/strings ready for
``json.dumps``; the matching ``*_from_json`` validates shape and types,
raising :class:`FormatError` on malformed payloads (the CLI turns those
into its dedicated exit code).  Semantic validation stays with the
constructors: a well-formed payload describing, say, a non-monotone
schedule fails in the domain layer, not here.

Each codec imports the layer whose type it reads or writes when it runs,
so a command that only prints JSON loads no layer through this module.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .errors import is_nat

if TYPE_CHECKING:
    from .antispecker import StarOracle
    from .seq_opens import Open, Point
    from .set_opens import PeriodicSet, SetOpen
    from .terms import RangeTerm


class FormatError(ValueError):
    """A JSON payload does not have the documented shape."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise FormatError(what)


def _nat_field(d: dict, key: str) -> int:
    _expect(key in d, f"missing field {key!r}")
    x = d[key]
    _expect(is_nat(x), f"field {key!r} must be a natural")
    return x


def _nat_list(xs: Any, what: str) -> list[int]:
    _expect(isinstance(xs, list), f"{what} must be a list")
    for x in xs:
        _expect(is_nat(x), f"{what} entries must be naturals")
    return list(xs)


def _dict(d: Any, what: str) -> dict:
    _expect(isinstance(d, dict), f"{what} must be an object")
    return d


# --- basic opens and points ----------------------------------------------

def open_to_json(o: Open) -> dict:
    from .seq_opens import BasicOpen

    if not isinstance(o, BasicOpen):
        return {"empty": True}
    return {
        "stem": o.stem,
        "explicit": list(o.schedule.explicit),
        "base": o.schedule.tail_base,
        "slope": o.schedule.tail_slope,
    }


def open_from_json(d: Any) -> Open:
    from .seq_opens import EMPTY, make_open

    d = _dict(d, "open")
    empty = d.get("empty", False)
    _expect(isinstance(empty, bool), "field 'empty' must be a boolean")
    if empty:
        return EMPTY
    stem = _nat_field(d, "stem")
    explicit = _nat_list(d.get("explicit", []), "explicit")
    base = _nat_field(d, "base")
    slope = d.get("slope", 1)
    _expect(is_nat(slope) and slope >= 1, "field 'slope' must be a positive integer")
    return make_open(stem, explicit, base, slope)


def point_to_json(f: Point) -> dict:
    return {"prefix": list(f.prefix), "tail_value": f.tail_value}


def point_from_json(d: Any) -> Point:
    from .seq_opens import Point

    d = _dict(d, "point")
    return Point(tuple(_nat_list(d.get("prefix", []), "prefix")), _nat_field(d, "tail_value"))


# --- eventually periodic sets and set-space opens ------------------------

def _bits_to_str(bits: tuple[int, ...]) -> str:
    return "".join(str(b) for b in bits)


def _str_to_bits(s: Any, what: str) -> tuple[int, ...]:
    _expect(isinstance(s, str) and all(c in "01" for c in s), f"{what} must be a 0/1 string")
    return tuple(int(c) for c in s)


def pset_to_json(X: PeriodicSet) -> dict:
    return {"prefix_bits": _bits_to_str(X.prefix), "period_bits": _bits_to_str(X.period)}


def pset_from_json(d: Any) -> PeriodicSet:
    from .set_opens import PeriodicSet

    d = _dict(d, "periodic set")
    prefix = _str_to_bits(d.get("prefix_bits", ""), "prefix_bits")
    _expect("period_bits" in d, "missing field 'period_bits'")
    period = _str_to_bits(d["period_bits"], "period_bits")
    _expect(len(period) >= 1, "period_bits must be nonempty")
    return PeriodicSet(prefix, period)


def setopen_to_json(O: SetOpen) -> dict:
    return {"P": sorted(O.P), "N": pset_to_json(O.N)}


def setopen_from_json(d: Any) -> SetOpen:
    from .set_opens import set_open

    d = _dict(d, "set open")
    P = _nat_list(d.get("P", []), "P")
    _expect("N" in d, "missing field 'N'")
    return set_open(P, pset_from_json(d["N"]))


# --- range terms and star oracles ----------------------------------------

def range_term_to_json(t: RangeTerm) -> dict:
    rows = [
        {"node": list(node), "value": value, "witness": witness}
        for node, (value, witness) in sorted(t.table.items())
    ]
    return {"modulus": t.modulus, "table": rows}


def range_term_from_json(d: Any) -> RangeTerm:
    from .terms import RangeTerm

    d = _dict(d, "range term")
    modulus = _nat_field(d, "modulus")
    rows = d.get("table")
    _expect(isinstance(rows, list), "field 'table' must be a list")
    table: dict[tuple[int, ...], tuple[int, int]] = {}
    for row in rows:
        row = _dict(row, "table row")
        node = tuple(_nat_list(row.get("node"), "node"))
        table[node] = (_nat_field(row, "value"), _nat_field(row, "witness"))
    return RangeTerm(modulus, table)


def oracle_to_json(o: StarOracle) -> dict:
    return {
        "levels": [[n, o.levels[n]] for n in sorted(o.levels)],
        "labels": [
            {"n": n, "node": list(node), "star": o.labels[(n, node)]}
            for n, node in sorted(o.labels)
        ],
        "default_star": o.default_star,
    }


def oracle_from_json(d: Any) -> StarOracle:
    from .antispecker import StarOracle

    d = _dict(d, "star oracle")
    raw_levels = d.get("levels")
    _expect(isinstance(raw_levels, list), "field 'levels' must be a list of pairs")
    levels: dict[int, int] = {}
    for entry in raw_levels:
        _expect(isinstance(entry, list) and len(entry) == 2, "levels entries must be [n, level]")
        pair = _nat_list(entry, "levels entry")
        levels[pair[0]] = pair[1]
    raw_labels = d.get("labels", [])
    _expect(isinstance(raw_labels, list), "field 'labels' must be a list")
    labels: dict[tuple[int, tuple[int, ...]], bool] = {}
    for row in raw_labels:
        row = _dict(row, "labels row")
        n = _nat_field(row, "n")
        node = tuple(_nat_list(row.get("node"), "node"))
        star = row.get("star")
        _expect(isinstance(star, bool), "field 'star' must be a boolean")
        labels[(n, node)] = star
    default_star = d.get("default_star", False)
    _expect(isinstance(default_star, bool), "field 'default_star' must be a boolean")
    return StarOracle(levels, labels, default_star)


# --- output helpers -------------------------------------------------------

def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, stable separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))
