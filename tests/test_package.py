"""The package's public surface, and the layers each CLI command loads.

`import boundlab` resolves its public names on first use, and the CLI
imports a layer only in the handlers that run it; these tests pin both the
names and which `boundlab.*` modules a fresh process loads per command."""

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
# boundlab layers the process loaded.
PROBE = """
import json, sys
from boundlab.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps(sorted(m[len("boundlab."):] for m in sys.modules if m.startswith("boundlab."))))
raise SystemExit(code)
"""


def loaded(*argv):
    res = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stdout + res.stderr
    return set(json.loads(res.stderr)), res.stdout


OPEN = {"stem": 1, "explicit": [2], "base": 3, "slope": 1}


@pytest.mark.parametrize("argv", [
    ["fp", "v", "--max-n", "3"],
    ["ext", "az", "(apply arg (const 1))", "--support-bound", "2"],
])
def test_machine_commands_load_no_open_layer(argv):
    modules, _ = loaded(*argv)
    assert {"machine", "realizability"} <= modules
    assert not modules & {"seq_opens", "terms", "fusion", "antispecker", "set_opens", "certificates"}


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
    assert {"fusion", "certificates"} <= modules
    assert not modules & {"machine", "realizability", "set_opens"}

    path = tmp_path / "cert.json"
    path.write_text(cert)
    modules, out = loaded("verify", str(path))
    assert json.loads(out) == {"ok": True, "operation": "fuse.dc"}
    assert not modules & {"machine", "realizability", "set_opens"}
