"""JSON encodings round-trip; certificates replay bit-exactly or fail loudly."""

import copy
import json
import random

import pytest

from boundlab.antispecker import StarOracle
from boundlab.certificates import CERT_FORMAT, build, verify
from boundlab.errors import BadCertificate
from boundlab.seq_opens import EMPTY, Point, make_open
from boundlab.serialize import (
    FormatError,
    dumps,
    open_from_json,
    open_to_json,
    oracle_from_json,
    oracle_to_json,
    point_from_json,
    point_to_json,
    pset_from_json,
    pset_to_json,
    range_term_from_json,
    range_term_to_json,
    setopen_from_json,
    setopen_to_json,
)
from boundlab.set_opens import PeriodicSet, SetOpen

from oracles import nodes_brute, random_open, random_pset, random_range_term, random_setopen


def _identity1_json(o):
    from boundlab.terms import range_term_from

    return range_term_to_json(range_term_from(1, nodes_brute(o, 1), lambda node: 0))


def test_open_round_trip():
    rng = random.Random(801)
    assert open_to_json(EMPTY) == {"empty": True}
    assert open_from_json({"empty": True}) is EMPTY
    for _ in range(80):
        o = random_open(rng)
        assert open_from_json(json.loads(dumps(open_to_json(o)))) == o


def test_point_and_pset_round_trips():
    rng = random.Random(802)
    for _ in range(80):
        f = Point(tuple(rng.randrange(4) for _ in range(rng.randrange(3))), rng.randrange(4))
        assert point_from_json(point_to_json(f)) == f
        X = random_pset(rng)
        assert pset_from_json(pset_to_json(X)) == X
        O = random_setopen(rng, nonempty=False)
        assert setopen_from_json(setopen_to_json(O)) == O


def test_pset_bit_strings():
    assert pset_to_json(PeriodicSet((1, 0), (0, 0, 1))) == {
        "prefix_bits": "10",
        "period_bits": "001",
    }
    assert pset_from_json({"period_bits": "01"}) == PeriodicSet((), (0, 1))


def test_range_term_and_oracle_round_trips():
    rng = random.Random(803)
    for _ in range(60):
        o = random_open(rng, max_value=4)
        t = random_range_term(rng, o, rng.randrange(1, 3))
        assert range_term_from_json(range_term_to_json(t)) == t
    oracle = StarOracle({0: 1, 1: 2}, {(0, (0,)): False, (1, (0, 1)): True}, True)
    back = oracle_from_json(oracle_to_json(oracle))
    assert back.levels == oracle.levels
    assert back.labels == oracle.labels
    assert back.default_star == oracle.default_star


@pytest.mark.parametrize(
    "loader,payload",
    [
        (open_from_json, None),
        (open_from_json, {"stem": -1, "base": 2}),
        (open_from_json, {"stem": 0, "base": 2, "slope": 0}),
        (open_from_json, {"base": 2}),
        (point_from_json, {"prefix": [1]}),
        (pset_from_json, {"prefix_bits": "01"}),
        (pset_from_json, {"period_bits": "0x1"}),
        (pset_from_json, {"period_bits": ""}),
        (setopen_from_json, {"P": [1]}),
        (range_term_from_json, {"modulus": 1}),
        (range_term_from_json, {"modulus": 1, "table": [{"node": [0]}]}),
        (oracle_from_json, {"levels": [[0]]}),
        (oracle_from_json, {"levels": [], "default_star": "yes"}),
        (open_from_json, {"stem": 0, "base": 2, "slope": True}),
    ],
)
def test_malformed_payloads_raise_format_errors(loader, payload):
    with pytest.raises(FormatError):
        loader(payload)


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [1, 2]})
    assert text == '{"a": [1,2],"b": 1}'
    assert dumps(json.loads(text)) == text


def _bound_cert():
    p = make_open(0, [], 2, 1)
    return build(
        "fuse.bound",
        {"p": open_to_json(p), "term": _identity1_json(p), "level": 1},
    )


def test_bound_certificate_builds_and_verifies():
    cert = _bound_cert()
    assert cert["format"] == CERT_FORMAT
    assert cert["outputs"]["result"] == open_to_json(make_open(0, [1], 3, 1))
    assert verify(cert) == cert["outputs"]


def test_pseudo_certificate():
    p = make_open(0, [], 1, 1)
    tj = _identity1_json(p)
    cert = build(
        "fuse.pseudo",
        {
            "p": open_to_json(p),
            "point": point_to_json(Point((), 0)),
            "stages": 2,
            "terms": [tj, tj, tj],
        },
    )
    assert cert["outputs"]["N"] == 0
    assert len(cert["trace"]["chain"]) == 3
    assert verify(cert) == cert["outputs"]


def test_dc_certificate():
    cert = build(
        "fuse.dc",
        {"p": open_to_json(make_open(0, [], 4, 1)), "start": 2, "steps": 3},
    )
    assert cert["outputs"]["witnesses"] == [2, 3, 4, 5]
    assert verify(cert) == cert["outputs"]


def test_schedule_certificate():
    oracle = StarOracle({n: n + 1 for n in range(7)}, {(0, (0,)): False}, True)
    cert = build(
        "as.schedule",
        {
            "q": open_to_json(make_open(0, [], 2, 1)),
            "oracle": oracle_to_json(oracle),
            "level": 1,
            "horizon": 6,
        },
    )
    assert cert["outputs"] == {"result": open_to_json(make_open(0, [1, 1], 4, 1)), "M": 0}
    assert verify(cert) == cert["outputs"]


def test_scenario_certificate_and_seed_sensitivity():
    cert = build("fp.scenario", {"seed": 3, "count": 2, "window": 5})
    assert len(cert["trace"]["scenarios"]) == 2
    assert verify(cert) == cert["outputs"]
    again = build("fp.scenario", {"seed": 3, "count": 2, "window": 5})
    assert dumps(again) == dumps(cert)
    other = build("fp.scenario", {"seed": 4, "count": 2, "window": 5})
    assert dumps(other) != dumps(cert)


def test_verify_rejects_wrappers_and_unknown_ops():
    with pytest.raises(BadCertificate):
        verify([])
    with pytest.raises(BadCertificate):
        verify({"format": "other/1"})
    cert = _bound_cert()
    for key in ("operation", "inputs", "trace", "outputs"):
        broken = {k: v for k, v in cert.items() if k != key}
        with pytest.raises(BadCertificate):
            verify(broken)
    renamed = dict(cert, operation="fuse.unknown")
    with pytest.raises(BadCertificate):
        verify(renamed)


def test_verify_detects_tampered_outputs():
    cert = _bound_cert()
    tampered = copy.deepcopy(cert)
    tampered["outputs"]["result"]["base"] += 1
    with pytest.raises(BadCertificate):
        verify(tampered)


def test_verify_detects_tampered_trace_rows():
    cert = _bound_cert()
    tampered = copy.deepcopy(cert)
    tampered["trace"]["decisions"][0]["value"] += 5
    with pytest.raises(BadCertificate):
        verify(tampered)

    scen = build("fp.scenario", {"seed": 1, "count": 1, "window": 3})
    forged = copy.deepcopy(scen)
    forged["trace"]["scenarios"][0]["certificate"] += 1
    with pytest.raises(BadCertificate):
        verify(forged)


def test_build_rejects_unknown_operation():
    with pytest.raises(FormatError):
        build("no.such.op", {})


def test_scenario_budget_and_seed_are_not_booleans():
    for field in ("budget", "seed"):
        with pytest.raises(FormatError, match=field):
            build("fp.scenario", {"seed": 1, "count": 1, "window": 3, field: True})
    cert = build("fp.scenario", {"seed": 1, "count": 1, "window": 3})
    flagged = copy.deepcopy(cert)
    flagged["inputs"]["seed"] = True  # equal to 1, but not a seed
    with pytest.raises(BadCertificate):
        verify(flagged)


def test_verify_rejects_wrappers_with_ill_typed_parts():
    cert = build("fp.scenario", {"seed": 1, "count": 1, "window": 3})
    for key, value in (("operation", []), ("inputs", None), ("inputs", [1]), ("trace", 5)):
        with pytest.raises(BadCertificate):
            verify(dict(cert, **{key: value}))


def test_verify_compares_canonical_text_not_python_equality():
    cert = _bound_cert()
    for path, value in ((("outputs", "result", "base"), 3.0), (("trace", "decisions", 1, "value"), True)):
        tampered = copy.deepcopy(cert)
        parent = tampered
        for key in path[:-1]:
            parent = parent[key]
        assert parent[path[-1]] == value
        parent[path[-1]] = value
        with pytest.raises(BadCertificate, match="did not reproduce"):
            verify(tampered)


def test_verify_rejects_a_certificate_that_is_not_json():
    cert = _bound_cert()
    for extra in ({1, 2}, object()):
        with pytest.raises(BadCertificate):
            verify(dict(cert, outputs=dict(cert["outputs"], extra=extra)))


def test_a_boolean_split_depth_is_malformed():
    p = make_open(0, [], 2, 1)
    inputs = {"p": open_to_json(p), "term": _identity1_json(p), "level": 1}
    for at in (True, False):
        with pytest.raises(FormatError, match="'at' must be a natural"):
            build("fuse.bound", dict(inputs, at=at))


def _small_inputs(operation):
    """Inputs of a quick certificate for each operation."""
    p, p1 = make_open(0, [], 2, 1), make_open(0, [], 1, 1)
    oracle = StarOracle({n: n + 1 for n in range(7)}, {(0, (0,)): False}, True)
    return {
        "fuse.bound": {"p": open_to_json(p), "term": _identity1_json(p), "level": 1},
        "fuse.pseudo": {
            "p": open_to_json(p1),
            "point": point_to_json(Point((), 0)),
            "stages": 2,
            "terms": [_identity1_json(p1)] * 3,
        },
        "fuse.dc": {"p": open_to_json(p), "start": 2, "steps": 3, "oracle": "successor"},
        "as.schedule": {"q": open_to_json(p), "oracle": oracle_to_json(oracle), "level": 1, "horizon": 6},
        "fp.scenario": {"seed": 1, "count": 1, "window": 3},
    }[operation]


@pytest.mark.parametrize(
    "operation, field",
    [("fuse.bound", "note"), ("fuse.pseudo", "note"), ("fuse.dc", "note"), ("as.schedule", "horizon2"), ("fp.scenario", "note")],
)
def test_an_input_field_the_operation_never_reads_is_rejected(operation, field):
    inputs = _small_inputs(operation)
    cert = build(operation, inputs)
    assert verify(cert) == cert["outputs"]
    extra = dict(inputs, **{field: "x"})
    with pytest.raises(FormatError, match=f"unknown input field '{field}'"):
        build(operation, extra)
    with pytest.raises(BadCertificate, match=f"unknown input field '{field}'"):
        verify(dict(cert, inputs=extra))


def _set(path, value):
    """A mutation that sets the certificate's entry at path to value."""
    def mutate(cert):
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "operation, mutate, message",
    [
        ("fuse.bound", _set(("trace", "decisions", 0, "value"), 5), "decision at [0] breaks its witness equation"),
        (
            "fuse.bound",
            _set(("trace", "decisions", 1), {"node": [5], "value": 5, "witness": 0}),
            "decision at [5] exceeds the recorded level",
        ),
        ("fuse.pseudo", _set(("trace", "chain"), []), "empty derivation chain"),
        ("fuse.dc", _set(("trace", "chain"), []), "empty derivation chain"),
        (
            "fp.scenario",
            _set(("trace", "scenarios", 0, "program"), 5),
            "replay failed: recorded program must be program text",
        ),
        ("fp.scenario", _set(("trace", "scenarios", 0, "index"), 1), "recorded program does not match its index"),
        (
            "fp.scenario",
            _set(("trace", "scenarios", 0, "certificate"), 2),
            "recorded totality certificate does not check",
        ),
    ],
)
def test_each_row_check_names_the_row_fact_that_failed(operation, mutate, message):
    cert = build(operation, _small_inputs(operation))
    mutate(cert)
    with pytest.raises(BadCertificate) as caught:
        verify(cert)
    assert str(caught.value) == message
