"""The package's public surface, and the layers each CLI command loads.

`import boundlab` resolves its public names on first use, the CLI imports a
layer only in the handlers that run it, and each certificate operation (in
`boundlab._certs`, which the CLI imports) only the layers it runs; these
tests pin both the names and which `boundlab.*` modules a fresh process
loads per command.  No command loads `dataclasses` or the `inspect` module
it imports."""

import json
import subprocess
import sys

import pytest

import boundlab

# The public names of boundlab, as its eager re-exports defined them.
PUBLIC = {
    "errors": [
        "AmbiguousAmalgamation", "BadCandidate", "BadCertificate", "BudgetExhausted", "DomainError",
        "EmptyOpenError", "IncompatibleSeq", "InconsistentTermFamily", "NoStabilization", "NotAPoint",
        "NotASubopen", "OracleNotTotal", "PointNotInOpen", "ScheduleUnsound", "SplitOutOfRange",
        "TermNotTotal", "TheoremViolated",
    ],
    "seq_opens": [
        "BasicOpen", "BoundSchedule", "EMPTY", "Point", "canonical_point", "compatible_nodes",
        "force_value_into_range", "forces_G_value", "intersect", "is_empty", "make_open", "member",
        "restrict_by_seq", "schedule_of", "split", "subset",
    ],
    "terms": [
        "DecisionTerm", "GuardedTerm", "RangeTerm", "TermSequence", "amalgamate", "constant_term",
        "decide_guarded", "decide_term", "identity_term", "is_pseudobounded_violation",
        "range_term_from", "restrict_term",
    ],
    "fusion": [
        "bound_range_term", "bound_range_term_at", "dc_chain", "extract_witness", "extract_witness_at",
        "fuse_pseudobound",
    ],
    "set_opens": [
        "PeriodicSet", "SetOpen", "canonical_set_point", "compatible_extension_check", "finite_set",
        "forces_in_generic", "intersect_set", "member_set", "sequential_bound", "set_open",
        "subset_open", "unbounded_step",
    ],
    "antispecker": [
        "BoundedTree", "StarOracle", "all_star_oracle", "build_escape_schedule", "enumerate_level",
        "escape_trace", "nonstar_nodes",
    ],
    "machine": [
        "Expr", "TotalityCertificate", "alias_certificate", "apply_free", "certificate_for",
        "check_proof", "decode", "encode", "eval_profile", "eval_steps", "format_program",
        "parse_program",
    ],
    "realizability": [
        "FiniteSupportFn", "VTrace", "enumerate_Az", "make_F_beta", "pseudobound_scenario",
        "seq_continuity_bound", "unbounded_witness", "v",
    ],
    "certificates": ["build", "verify"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_the_public_names_are_frozen():
    assert len(NAMES) == 92
    assert sorted(boundlab.__all__) == NAMES
    assert boundlab.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    home = __import__(f"boundlab.{module}", fromlist=["_"])
    for name in PUBLIC[module]:
        assert getattr(boundlab, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from boundlab import *", scope)
    assert set(NAMES) <= set(scope)
    assert all(scope[name] is getattr(boundlab, name) for name in NAMES)


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(boundlab))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        boundlab.no_such_name
    assert not hasattr(boundlab, "no_such_name")


# --- modules loaded per command --------------------------------------------

# Runs the CLI like `python -m boundlab`, then reports on stderr which
# boundlab layers the process loaded, and which of dataclasses and inspect
# it imported (an interpreter whose start-up loads them is not counted).
PROBE = """
import json, sys
at_start = set(sys.modules)
from boundlab.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps(sorted(
    m[len("boundlab."):] if m.startswith("boundlab.") else m
    for m in set(sys.modules) - at_start if m.startswith("boundlab.") or m in ("dataclasses", "inspect")
)))
raise SystemExit(code)
"""


def loaded(*argv, cwd=None):
    res = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=120, cwd=cwd
    )
    assert res.returncode == 0, res.stdout + res.stderr
    modules = set(json.loads(res.stderr))
    assert not modules & {"dataclasses", "inspect"}, argv
    return modules, res.stdout


OPEN = {"stem": 1, "explicit": [2], "base": 3, "slope": 1}


@pytest.mark.parametrize("argv", [
    ["fp", "v", "--max-n", "3"],
    ["ext", "az", "(apply arg (const 1))", "--support-bound", "2"],
])
def test_machine_commands_load_no_open_layer(argv):
    modules, _ = loaded(*argv)
    assert {"machine", "realizability"} <= modules
    assert not modules & {"seq_opens", "terms", "fusion", "antispecker", "set_opens", "certificates", "_certs"}


def test_seq_commands_load_no_machine(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(OPEN))
    modules, _ = loaded("seq", "intersect", str(a), str(a))
    assert "seq_opens" in modules
    assert not modules & {"machine", "realizability"}


def test_fusion_certificates_build_and_replay_without_the_machine(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(OPEN))
    modules, cert = loaded("fuse", "dc", str(a), "--start", "1", "--steps", "2")
    assert {"fusion", "_certs"} <= modules
    assert not modules & {"machine", "realizability", "set_opens"}

    path = tmp_path / "cert.json"
    path.write_text(cert)
    modules, out = loaded("verify", str(path))
    assert json.loads(out) == {"ok": True, "operation": "fuse.dc"}
    assert not modules & {"machine", "realizability", "set_opens"}


CERTIFICATES_PROBE = """
import json, sys
at_start = set(sys.modules)
import boundlab.certificates
print(json.dumps(sorted(set(sys.modules) - at_start)))
"""


def test_the_public_certificates_module_loads_the_open_layers():
    # perfbench's tracer wraps their functions after importing it and looks
    # them up in sys.modules
    res = subprocess.run(
        [sys.executable, "-c", CERTIFICATES_PROBE], capture_output=True, text=True, timeout=120
    )
    modules = set(json.loads(res.stdout))
    assert {f"boundlab.{m}" for m in ("seq_opens", "terms", "fusion", "antispecker")} <= modules
    assert not modules & {"boundlab.machine", "dataclasses", "inspect"}


# The command corpus of tests/test_corpus.py, each with the layers it must
# not load; a command that prints a certificate is followed by `verify` of
# it, which must not load them either.
CORPUS_FILES = {
    "p.json": {"stem": 0, "explicit": [], "base": 2, "slope": 1},
    "t.json": {"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(3)]},
    "job.json": {
        "p": {"stem": 0, "explicit": [], "base": 1, "slope": 1},
        "point": {"prefix": [], "tail_value": 0},
        "stages": 2,
        "terms": [{"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(2)]}] * 3,
    },
    "oracle.json": {
        "levels": [[n, n + 1] for n in range(7)],
        "labels": [{"n": 0, "node": [0], "star": False}],
        "default_star": True,
    },
    "seqjob.json": {
        "open": {"P": [2, 9], "N": {"prefix_bits": "", "period_bits": "10"}},
        "decided": [{"neighborhood": [9], "value": 9}, {"neighborhood": [2], "value": 2}],
    },
}
OPEN_LAYERS = {"seq_opens", "terms", "fusion", "antispecker", "set_opens"}
MACHINE = {"machine", "realizability"}
CORPUS = {
    "fp_v": (["fp", "v", "--max-n", "25"], OPEN_LAYERS | {"certificates", "_certs"}),
    "fp_witness": (["fp", "witness", "--k", "6"], OPEN_LAYERS | {"certificates", "_certs"}),
    "fp_scenario": (["--seed", "7", "fp", "scenario", "--count", "3", "--window", "6"], OPEN_LAYERS),
    "seq_intersect": (["seq", "intersect", "p.json", "p.json"], MACHINE | OPEN_LAYERS - {"seq_opens"}),
    "set_seqbound": (["set", "seqbound", "seqjob.json"], MACHINE | {"terms", "fusion", "antispecker"}),
    "fuse_bound": (["fuse", "bound", "p.json", "t.json", "--level", "1"], MACHINE | {"antispecker", "set_opens"}),
    "fuse_pseudo": (["fuse", "pseudo", "job.json"], MACHINE | {"antispecker", "set_opens"}),
    "fuse_dc": (["fuse", "dc", "p.json", "--start", "2", "--steps", "3"], MACHINE | {"antispecker", "set_opens"}),
    "as_schedule": (
        ["as", "schedule", "p.json", "oracle.json", "--level", "1", "--horizon", "6"],
        MACHINE | {"terms", "fusion", "set_opens"},
    ),
    "ext_az": (["ext", "az", "(apply arg (const 1))", "--support-bound", "4"], OPEN_LAYERS | {"certificates", "_certs"}),
    "ext_fbeta": (["ext", "fbeta", "(succ arg)", "--m", "2", "--value-bound", "2"], OPEN_LAYERS | {"certificates", "_certs"}),
}


@pytest.mark.parametrize("name", CORPUS)
def test_each_corpus_command_and_its_verify_load_only_their_layers(name, tmp_path):
    for file, payload in CORPUS_FILES.items():
        (tmp_path / file).write_text(json.dumps(payload))
    argv, unused = CORPUS[name]
    modules, out = loaded(*argv, cwd=tmp_path)
    assert not modules & unused, sorted(modules & unused)
    if not out.startswith('{"format": "boundlab-cert/1"'):
        return
    (tmp_path / "cert.json").write_text(out)
    modules, out = loaded("verify", "cert.json", cwd=tmp_path)
    assert json.loads(out)["ok"] is True
    assert "_certs" in modules
    assert not modules & unused, sorted(modules & unused)
