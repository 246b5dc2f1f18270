"""Replayable certificates for the long-running constructions.

A certificate records an operation name, its full serialized inputs, the
derivation trace, and the outputs.  Because every certified operation is
deterministic given its inputs (randomized ones record their seed), the
verifier replays the construction from the recorded inputs and demands a
bit-exact match; before replaying it also re-checks the cheap per-row
facts in the trace, so a tampered artifact fails even when the mismatch
sits inside the trace rather than the outputs.

Each operation imports its own layers when it runs, so building or
replaying a certificate loads no other: ``fp.scenario`` loads the machine
and no open layer, ``fuse.*`` no escape schedules, ``as.schedule`` no terms
or fusion.  The CLI imports this module; the public path,
``boundlab.certificates``, re-exports it.
"""

from __future__ import annotations

from typing import Any, Callable

from .errors import BadCertificate, DomainError, EmptyOpenError, is_nat
from .serialize import (
    FormatError,
    _expect,
    _nat_field,
    open_from_json,
    open_to_json,
    oracle_from_json,
    point_from_json,
    range_term_from_json,
)

CERT_FORMAT = "boundlab-cert/1"


def _make(operation: str, inputs: dict, trace: dict, outputs: dict) -> dict:
    return {
        "format": CERT_FORMAT,
        "operation": operation,
        "inputs": inputs,
        "trace": trace,
        "outputs": outputs,
    }


# --- builders -------------------------------------------------------------

def _build_fuse_bound(inputs: dict) -> dict:
    from .fusion import bound_range_term, bound_range_term_at
    from .seq_opens import compatible_nodes

    p = open_from_json(inputs.get("p"))
    t = range_term_from_json(inputs.get("term"))
    level = _nat_field(inputs, "level")
    at = inputs.get("at")
    if at is None:
        q = bound_range_term(p, t, level)
    else:
        _expect(isinstance(at, int) and at >= 0, "field 'at' must be a natural")
        q = bound_range_term_at(p, t, level, at)
    decisions = [
        {"node": list(node), "value": t.value_at(node), "witness": t.witness_at(node)}
        for node in compatible_nodes(q, t.modulus)
    ]
    trace = {"decisions": decisions}
    outputs = {"result": open_to_json(q)}
    return _make("fuse.bound", inputs, trace, outputs)


def _build_fuse_pseudo(inputs: dict) -> dict:
    from .fusion import fuse_pseudobound
    from .terms import TermSequence

    p = open_from_json(inputs.get("p"))
    f = point_from_json(inputs.get("point"))
    stages = _nat_field(inputs, "stages")
    raw_terms = inputs.get("terms")
    _expect(isinstance(raw_terms, list), "field 'terms' must be a list")
    terms = [range_term_from_json(x) for x in raw_terms]
    _expect(len(terms) >= stages + 1, "need one term per stage")
    N0 = f.sup_range()
    a = TermSequence(lambda n: terms[n - N0])
    N, chain = fuse_pseudobound(p, a, f, stages)
    trace = {"chain": [open_to_json(q) for q in chain]}
    outputs = {"N": N, "result": open_to_json(chain[-1])}
    return _make("fuse.pseudo", inputs, trace, outputs)


def _build_fuse_dc(inputs: dict) -> dict:
    from .fusion import dc_chain
    from .terms import constant_term

    p = open_from_json(inputs.get("p"))
    start = _nat_field(inputs, "start")
    steps = _nat_field(inputs, "steps")
    oracle = inputs.get("oracle", "successor")
    _expect(oracle == "successor", f"unknown step oracle {oracle!r}")

    def step(w, cur):
        prev = w if isinstance(w, int) else 0
        return constant_term(prev + 1), 0

    chain, witnesses = dc_chain(p, step, start, steps)
    flat = [w for w in witnesses if isinstance(w, int)]
    _expect(len(flat) == len(witnesses), "step oracle produced an undecided witness")
    trace = {"chain": [open_to_json(q) for q in chain]}
    outputs = {"witnesses": flat, "result": open_to_json(chain[-1])}
    return _make("fuse.dc", inputs, trace, outputs)


def _build_as_schedule(inputs: dict) -> dict:
    from .antispecker import escape_trace
    from .seq_opens import BasicOpen

    q = open_from_json(inputs.get("q"))
    if not isinstance(q, BasicOpen):
        raise EmptyOpenError("cannot build an escape schedule below the empty open")
    oracle = oracle_from_json(inputs.get("oracle"))
    level = _nat_field(inputs, "level")
    horizon = _nat_field(inputs, "horizon")
    tr = escape_trace(q, oracle, level, horizon)
    trace = {"frames": tr["frames"]}
    outputs = {"result": open_to_json(tr["result"]), "M": tr["M"]}
    return _make("as.schedule", inputs, trace, outputs)


def _build_fp_scenario(inputs: dict) -> dict:
    import random

    from .machine import format_program
    from .realizability import pseudobound_scenario, random_scenario

    seed = inputs.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), "field 'seed' must be an integer")
    count = _nat_field(inputs, "count")
    window = _nat_field(inputs, "window")
    budget = inputs.get("budget")
    if budget is not None:
        _expect(is_nat(budget) and budget >= 1, "field 'budget' must be positive")
    rng = random.Random(seed)
    scenarios = []
    tables = []
    for _ in range(count):
        x, cert = random_scenario(rng)
        table = pseudobound_scenario(x, cert.derivation, window, budget_cap=budget)
        scenarios.append(
            {
                "program": format_program(x),
                "index": cert.index,
                "certificate": cert.derivation,
            }
        )
        tables.append([[n, fn] for n, fn in table])
    trace = {"scenarios": scenarios}
    outputs = {"tables": tables}
    return _make("fp.scenario", inputs, trace, outputs)


_BUILDERS: dict[str, Callable[[dict], dict]] = {
    "fuse.bound": _build_fuse_bound,
    "fuse.pseudo": _build_fuse_pseudo,
    "fuse.dc": _build_fuse_dc,
    "as.schedule": _build_as_schedule,
    "fp.scenario": _build_fp_scenario,
}


def build(operation: str, inputs: dict) -> dict:
    """Run a certified operation and wrap it with its replayable trace."""
    if operation not in _BUILDERS:
        raise FormatError(f"unknown certified operation {operation!r}")
    return _BUILDERS[operation](inputs)


# --- verification ---------------------------------------------------------

def _check_rows(cert: dict) -> None:
    """Cheap per-row facts that must hold before any replay."""
    op = cert["operation"]
    trace = cert["trace"]
    if op == "fuse.bound":
        level = cert["inputs"].get("level")
        for row in trace.get("decisions", []):
            node, value, witness = row["node"], row["value"], row["witness"]
            if not 0 <= witness < len(node) or node[witness] != value:
                raise BadCertificate(f"decision at {node} breaks its witness equation")
            if isinstance(level, int) and value > level:
                raise BadCertificate(f"decision at {node} exceeds the recorded level")
    elif op in ("fuse.pseudo", "fuse.dc"):
        if not trace.get("chain"):
            raise BadCertificate("empty derivation chain")
    elif op == "fp.scenario":
        from .machine import check_proof, encode, parse_program

        for row in trace.get("scenarios", []):
            _expect(isinstance(row["program"], str), "recorded program must be program text")
            x = parse_program(row["program"])
            if encode(x) != row["index"]:
                raise BadCertificate("recorded program does not match its index")
            j = row["certificate"]
            if not (check_proof(j, row["index"]) and j > row["index"]):
                raise BadCertificate("recorded totality certificate does not check")


def verify(cert: Any) -> dict:
    """Replay a certificate; returns its outputs or raises BadCertificate."""
    if not isinstance(cert, dict):
        raise BadCertificate("certificate must be a JSON object")
    if cert.get("format") != CERT_FORMAT:
        raise BadCertificate(f"unsupported certificate format {cert.get('format')!r}")
    for key in ("operation", "inputs", "trace", "outputs"):
        if key not in cert:
            raise BadCertificate(f"certificate is missing {key!r}")
    if not (isinstance(cert["inputs"], dict) and isinstance(cert["trace"], dict)):
        raise BadCertificate("inputs and trace must be objects")
    op = cert["operation"]
    if not isinstance(op, str) or op not in _BUILDERS:
        raise BadCertificate(f"unknown certified operation {op!r}")
    try:
        _check_rows(cert)
        rebuilt = build(op, cert["inputs"])
    except BadCertificate:
        raise
    except (DomainError, FormatError, ValueError, KeyError, TypeError) as e:
        raise BadCertificate(f"replay failed: {e}") from e
    if rebuilt != cert:
        raise BadCertificate("replay did not reproduce the recorded artifact")
    return cert["outputs"]
