"""Command-line surface for the workbench.

All results are printed as canonical JSON (sorted keys) on stdout.  Exit
codes: 0 on success, 2 on domain errors (with a ``{code, message}``
object), 64 on usage errors such as unknown subcommands, 65 on unreadable
or malformed input files.  Naturals print in full: the interpreter's limit
on integer string conversion is lifted while ``main`` runs.

Each handler imports the layers it runs, so a process loads only what its
command needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .errors import DomainError, EmptyOpenError
from .serialize import (
    FormatError,
    _expect,
    _nat_list,
    dumps,
    open_from_json,
    open_to_json,
    point_from_json,
    pset_from_json,
    setopen_from_json,
    setopen_to_json,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Group(_Parser):
    """A group's parser, which adds its commands (its _COMMANDS entry) only
    when it parses, so a process builds the named group's commands alone."""

    def __init__(self, *args, commands, **kwargs):
        super().__init__(*args, **kwargs)
        self._commands = commands

    def parse_known_args(self, args=None, namespace=None):
        commands, self._commands = self._commands, None
        if isinstance(commands, tuple):
            _add_command(self, *commands)
        elif commands:
            cmds = self.add_subparsers(dest="cmd", metavar="CMD", parser_class=_Parser)
            for name, (handler, arguments) in commands.items():
                _add_command(cmds.add_parser(name), handler, arguments)
        return super().parse_known_args(args, namespace)


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FormatError(f"{path} nests deeper than the JSON reader allows") from None


def _load_dict(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path} must contain a JSON object")
    return data


def _load_program(arg: str):
    from .machine import parse_program

    text = arg
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    try:
        return parse_program(text)
    except ValueError as e:
        raise FormatError(f"bad program text: {e}") from e


# --- handlers -------------------------------------------------------------

def _seq_intersect(args) -> Any:
    from .seq_opens import intersect

    a = open_from_json(_load_json(args.a))
    b = open_from_json(_load_json(args.b))
    return open_to_json(intersect(a, b))


def _seq_split(args) -> Any:
    from .seq_opens import is_empty, split

    r = open_from_json(_load_json(args.open))
    if is_empty(r):
        raise EmptyOpenError("cannot split the empty open")
    if args.at is not None:
        return open_to_json(split(r, args.at))
    return {"pieces": [open_to_json(split(r, i)) for i in range(r.g(r.stem) + 1)]}


def _seq_member(args) -> Any:
    from .seq_opens import member

    o = open_from_json(_load_json(args.open))
    f = point_from_json(_load_json(args.point))
    return {"member": member(f, o)}


def _seq_force_range(args) -> Any:
    from .seq_opens import force_value_into_range

    p = open_from_json(_load_json(args.open))
    return open_to_json(force_value_into_range(p, args.value))


def _cert(operation: str, inputs_of) -> Any:
    """The handler that builds operation's certificate on inputs_of(args)."""
    def handler(args) -> Any:
        from ._certs import build

        return build(operation, inputs_of(args))

    return handler


def _fuse_bound(args) -> dict:
    inputs = {"p": _load_json(args.p), "term": _load_json(args.term), "level": args.level}
    if args.at is not None:
        inputs["at"] = args.at
    return inputs


def _fuse_dc(args) -> dict:
    return {"p": _load_json(args.p), "start": args.start, "steps": args.steps, "oracle": args.oracle}


def _set_intersect(args) -> Any:
    from .set_opens import intersect_set

    a = setopen_from_json(_load_json(args.a))
    b = setopen_from_json(_load_json(args.b))
    return setopen_to_json(intersect_set(a, b))


def _set_member(args) -> Any:
    from .set_opens import member_set

    X = pset_from_json(_load_json(args.point))
    O = setopen_from_json(_load_json(args.open))
    return {"member": member_set(X, O)}


def _set_seqbound(args) -> Any:
    from .set_opens import sequential_bound

    job = _load_dict(args.job)
    _expect("open" in job, "job is missing field 'open'")
    O = setopen_from_json(job["open"])
    rows = job.get("decided", [])
    _expect(isinstance(rows, list), "field 'decided' must be a list")
    decided = []
    for row in rows:
        ok = isinstance(row, dict) and "neighborhood" in row and "value" in row
        _expect(ok, "decided rows need 'neighborhood' and 'value'")
        decided.append((_nat_list(row["neighborhood"], "neighborhood"), row["value"]))
    return {"bound": sequential_bound(O, decided)}


def _as_schedule(args) -> dict:
    q, oracle = _load_json(args.q), _load_json(args.oracle)
    return {"q": q, "oracle": oracle, "level": args.level, "horizon": args.horizon}


def _fp_v(args) -> Any:
    from .realizability import v

    return [
        {"n": t.n, "qualifying_ks": list(t.qualifying_ks), "value": t.value}
        for t in (v(n, args.budget) for n in range(args.max_n + 1))
    ]


def _fp_witness(args) -> Any:
    from .realizability import unbounded_witness

    return {"k": args.k, "witness": unbounded_witness(args.k, args.budget)}


def _fp_scenario(args) -> dict:
    inputs = {"seed": args.seed, "count": args.count, "window": args.window}
    if args.budget is not None:
        inputs["budget"] = args.budget
    return inputs


def _ext_az(args) -> Any:
    from .machine import format_program
    from .realizability import enumerate_Az

    z = _load_program(args.program)
    budget = args.budget if args.budget is not None else 1_000_000
    A = enumerate_Az(z, args.support_bound, args.value_bound, budget)
    return {"program": format_program(z), "Az": sorted(A)}


def _ext_fbeta(args) -> Any:
    from .machine import encode, format_program
    from .realizability import enumerate_Az, make_F_beta

    beta = _load_program(args.beta)
    F = make_F_beta(beta, args.m)
    support = args.support_bound if args.support_bound is not None else args.m + 2
    budget = args.budget if args.budget is not None else 1_000_000
    A = enumerate_Az(F, support, args.value_bound, budget)
    return {
        "beta": format_program(beta),
        "m": args.m,
        "program": format_program(F),
        "index": encode(F),
        "Az": sorted(A),
    }


def _verify(args) -> Any:
    from ._certs import verify

    cert = _load_json(args.certificate)
    verify(cert)
    op = cert.get("operation") if isinstance(cert, dict) else None
    return {"ok": True, "operation": op}


# --- parser ---------------------------------------------------------------

_REQUIRED = object()

# group -> (help, {command -> (handler, arguments)}), or (help, (handler,
# arguments)) for a group that is itself a command.  An argument is a
# positional name or a (flag, type, default) triple; _REQUIRED marks a
# mandatory flag.
_COMMANDS: dict[str, tuple[str, Any]] = {
    "seq": ("basic opens of the sequence space", {
        "intersect": (_seq_intersect, ["a", "b"]),
        "split": (_seq_split, ["open", ("--at", int, None)]),
        "member": (_seq_member, ["open", "point"]),
        "force-range": (_seq_force_range, ["open", ("--value", int, _REQUIRED)]),
    }),
    "fuse": ("good-extension and fusion constructions", {
        "bound": (_cert("fuse.bound", _fuse_bound), ["p", "term", ("--level", int, _REQUIRED), ("--at", int, None)]),
        "pseudo": (_cert("fuse.pseudo", lambda args: _load_dict(args.job)), ["job"]),
        "dc": (_cert("fuse.dc", _fuse_dc), [
            "p", ("--start", int, _REQUIRED), ("--steps", int, _REQUIRED), ("--oracle", str, "successor"),
        ]),
    }),
    "set": ("opens over eventually periodic sets", {
        "intersect": (_set_intersect, ["a", "b"]),
        "member": (_set_member, ["point", "open"]),
        "seqbound": (_set_seqbound, ["job"]),
    }),
    "as": ("escape schedules for starred sequences", {
        "schedule": (_cert("as.schedule", _as_schedule), [
            "q", "oracle", ("--level", int, _REQUIRED), ("--horizon", int, _REQUIRED),
        ]),
    }),
    "fp": ("certified-convergence counterexample lab", {
        "v": (_fp_v, [("--max-n", int, _REQUIRED)]),
        "witness": (_fp_witness, [("--k", int, _REQUIRED)]),
        "scenario": (_cert("fp.scenario", _fp_scenario), [("--count", int, 5), ("--window", int, 20)]),
    }),
    "ext": ("functional-probing counterexample lab", {
        "az": (_ext_az, ["program", ("--support-bound", int, _REQUIRED), ("--value-bound", int, 4)]),
        "fbeta": (_ext_fbeta, [
            "beta", ("--m", int, _REQUIRED), ("--support-bound", int, None), ("--value-bound", int, 4),
        ]),
    }),
    "verify": ("replay an emitted certificate", (_verify, ["certificate"])),
}


def _add_command(parser: _Parser, handler, arguments) -> None:
    for arg in arguments:
        if isinstance(arg, str):
            parser.add_argument(arg)
        else:
            flag, kind, default = arg
            required = default is _REQUIRED
            parser.add_argument(flag, type=kind, default=None if required else default, required=required)
    parser.set_defaults(handler=handler)


def _build_parser() -> _Parser:
    parser = _Parser(prog="boundlab", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized demos")
    parser.add_argument("--budget", type=int, default=None, help="machine step cap")
    sub = parser.add_subparsers(dest="group", metavar="GROUP", parser_class=_Group)
    for group, (help_text, commands) in _COMMANDS.items():
        sub.add_parser(group, help=help_text, commands=commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # 3.10 before 3.10.7: no limit
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if not hasattr(args, "handler"):
            raise UsageError("missing subcommand")
        if args.budget is not None and args.budget < 1:
            raise UsageError(f"argument --budget: must be at least 1, got {args.budget}")
    except UsageError as e:
        print(dumps({"code": "Usage", "message": str(e)}), file=sys.stderr)
        return 64
    try:
        text = dumps(args.handler(args))
    except DomainError as e:
        print(dumps(e.to_json()))
        return 2
    except (FormatError, json.JSONDecodeError, OSError) as e:
        print(dumps({"code": "MalformedInput", "message": str(e)}))
        return 65
    except ValueError as e:
        print(dumps({"code": "BadInput", "message": str(e)}))
        return 2
    print(text)
    return 0
