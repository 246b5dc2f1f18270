"""End-to-end CLI runs: exit codes, JSON output, determinism."""

import json
import subprocess
import sys

import pytest

from boundlab import cli
from boundlab.realizability import unbounded_witness, v
from boundlab.seq_opens import intersect, make_open
from boundlab.serialize import dumps, open_to_json


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "boundlab", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


OPEN_A = {"stem": 1, "explicit": [2], "base": 3, "slope": 1}
OPEN_B = {"stem": 2, "explicit": [2, 1], "base": 4, "slope": 2}


def test_seq_intersect_echoes_identical_opens(tmp_path):
    a = write(tmp_path, "a.json", OPEN_A)
    res = run_cli("seq", "intersect", a, a)
    assert res.returncode == 0
    assert json.loads(res.stdout) == open_to_json(
        intersect(make_open(1, [2], 3, 1), make_open(1, [2], 3, 1))
    )


def test_seq_intersect_empty_result(tmp_path):
    a = write(tmp_path, "a.json", {"stem": 1, "explicit": [0], "base": 2, "slope": 1})
    b = write(tmp_path, "b.json", {"stem": 1, "explicit": [1], "base": 2, "slope": 1})
    res = run_cli("seq", "intersect", a, b)
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"empty": True}


def test_seq_split_modes(tmp_path):
    a = write(tmp_path, "a.json", {"stem": 0, "explicit": [], "base": 2, "slope": 1})
    res = run_cli("seq", "split", a, "--at", "1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["stem"] == 1
    res = run_cli("seq", "split", a)
    assert res.returncode == 0
    assert len(json.loads(res.stdout)["pieces"]) == 3
    res = run_cli("seq", "split", a, "--at", "9")
    assert res.returncode == 2
    assert json.loads(res.stdout)["code"] == "SplitOutOfRange"
    e = write(tmp_path, "e.json", {"empty": True})
    res = run_cli("seq", "split", e)
    assert res.returncode == 2
    assert json.loads(res.stdout)["code"] == "EmptyOpen"


def test_seq_member_and_force_range(tmp_path):
    a = write(tmp_path, "a.json", OPEN_A)
    inside = write(tmp_path, "f.json", {"prefix": [2], "tail_value": 3})
    outside = write(tmp_path, "g.json", {"prefix": [9], "tail_value": 0})
    assert json.loads(run_cli("seq", "member", a, inside).stdout) == {"member": True}
    assert json.loads(run_cli("seq", "member", a, outside).stdout) == {"member": False}
    res = run_cli("seq", "force-range", a, "--value", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout) == open_to_json(make_open(1, [2], 3, 1))


def test_fuse_bound_certificate_and_verify(tmp_path):
    p = write(tmp_path, "p.json", {"stem": 0, "explicit": [], "base": 2, "slope": 1})
    term = write(
        tmp_path,
        "t.json",
        {
            "modulus": 1,
            "table": [
                {"node": [i], "value": i, "witness": 0} for i in range(3)
            ],
        },
    )
    res = run_cli("fuse", "bound", p, term, "--level", "1")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["outputs"]["result"] == {
        "stem": 0,
        "explicit": [1],
        "base": 3,
        "slope": 1,
    }
    cert_path = write(tmp_path, "cert.json", cert)
    check = run_cli("verify", cert_path)
    assert check.returncode == 0
    assert json.loads(check.stdout) == {"ok": True, "operation": "fuse.bound"}

    cert["outputs"]["result"]["explicit"] = [2]
    bad_path = write(tmp_path, "bad.json", cert)
    check = run_cli("verify", bad_path)
    assert check.returncode == 2
    assert json.loads(check.stdout)["code"] == "BadCertificate"


def test_fuse_bound_rejects_low_candidate(tmp_path):
    b = write(tmp_path, "b.json", {"stem": 1, "explicit": [1], "base": 3, "slope": 1})
    term = write(
        tmp_path,
        "t.json",
        {
            "modulus": 1,
            "table": [{"node": [i], "value": i, "witness": 0} for i in range(4)],
        },
    )
    res = run_cli("fuse", "bound", b, term, "--level", "0")
    assert res.returncode == 2
    assert json.loads(res.stdout)["code"] == "BadCandidate"


def test_fuse_pseudo_and_dc(tmp_path):
    term = {
        "modulus": 1,
        "table": [{"node": [i], "value": i, "witness": 0} for i in range(2)],
    }
    job = write(
        tmp_path,
        "job.json",
        {
            "p": {"stem": 0, "explicit": [], "base": 1, "slope": 1},
            "point": {"prefix": [], "tail_value": 0},
            "stages": 2,
            "terms": [term, term, term],
        },
    )
    res = run_cli("fuse", "pseudo", job)
    assert res.returncode == 0
    assert json.loads(res.stdout)["outputs"]["N"] == 0

    p = write(tmp_path, "p.json", {"stem": 0, "explicit": [], "base": 4, "slope": 1})
    res = run_cli("fuse", "dc", p, "--start", "2", "--steps", "3")
    assert res.returncode == 0
    assert json.loads(res.stdout)["outputs"]["witnesses"] == [2, 3, 4, 5]


def test_set_commands(tmp_path):
    evens = {"prefix_bits": "", "period_bits": "10"}
    a = write(tmp_path, "a.json", {"P": [1, 3], "N": evens})
    b = write(tmp_path, "b.json", {"P": [3, 5], "N": {"prefix_bits": "", "period_bits": "100"}})
    res = run_cli("set", "intersect", a, b)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["P"] == [1, 3, 5]

    odds = write(tmp_path, "odds.json", {"prefix_bits": "", "period_bits": "01"})
    assert json.loads(run_cli("set", "member", odds, a).stdout) == {"member": True}

    job = write(
        tmp_path,
        "job.json",
        {
            "open": {"P": [2, 9], "N": evens},
            "decided": [
                {"neighborhood": [9], "value": 9},
                {"neighborhood": [2], "value": 2},
            ],
        },
    )
    res = run_cli("set", "seqbound", job)
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"bound": 9}

    bad = write(
        tmp_path,
        "bad.json",
        {"open": {"P": [2, 9], "N": evens}, "decided": [{"neighborhood": [9], "value": 5}]},
    )
    res = run_cli("set", "seqbound", bad)
    assert res.returncode == 2
    assert json.loads(res.stdout)["code"] == "InconsistentTermFamily"


def test_as_schedule(tmp_path):
    q = write(tmp_path, "q.json", {"stem": 0, "explicit": [], "base": 2, "slope": 1})
    oracle = write(
        tmp_path,
        "oracle.json",
        {
            "levels": [[n, n + 1] for n in range(7)],
            "labels": [{"n": 0, "node": [0], "star": False}],
            "default_star": True,
        },
    )
    res = run_cli("as", "schedule", q, oracle, "--level", "1", "--horizon", "6")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["outputs"] == {
        "result": {"stem": 0, "explicit": [1, 1], "base": 4, "slope": 1},
        "M": 0,
    }
    cert_path = write(tmp_path, "cert.json", cert)
    assert run_cli("verify", cert_path).returncode == 0


def test_fp_commands_match_library():
    res = run_cli("fp", "v", "--max-n", "10")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert len(rows) == 11
    for row in rows:
        tr = v(row["n"])
        assert row == {
            "n": tr.n,
            "qualifying_ks": list(tr.qualifying_ks),
            "value": tr.value,
        }

    res = run_cli("fp", "witness", "--k", "5")
    assert json.loads(res.stdout) == {"k": 5, "witness": unbounded_witness(5)}


def test_fp_scenario_seeded_determinism():
    first = run_cli("--seed", "3", "fp", "scenario", "--count", "2", "--window", "5")
    second = run_cli("--seed", "3", "fp", "scenario", "--count", "2", "--window", "5")
    other = run_cli("--seed", "4", "fp", "scenario", "--count", "2", "--window", "5")
    assert first.returncode == second.returncode == other.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout != other.stdout


def test_ext_commands(tmp_path):
    res = run_cli("ext", "az", "(apply arg (const 1))", "--support-bound", "4")
    assert res.returncode == 0
    assert json.loads(res.stdout)["Az"] == [0, 1]

    prog = write(tmp_path, "z.txt", "(apply arg (const 0))")
    res = run_cli("ext", "az", prog, "--support-bound", "3")
    assert json.loads(res.stdout)["Az"] == [0]

    res = run_cli("ext", "fbeta", "(succ arg)", "--m", "2", "--value-bound", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["Az"] == [0, 1, 2, 3]


def test_ext_az_on_a_deep_program_exits_2():
    # C is the index of 3,000 nested successors, deeper than the host stack.
    C = 0
    for _ in range(3000):
        C = C * 12 + 2
    res = run_cli("ext", "az", f"(apply (const {C}) arg)", "--support-bound", "2")
    assert res.returncode == 2, res.stderr
    assert res.stdout.count("\n") == 1
    assert json.loads(res.stdout)["code"] == "BudgetExhausted"


def test_ext_az_on_deep_program_text_keeps_the_exit_contract(tmp_path):
    # 2,000 nested successors: deeper than the host stack when read recursively.
    prog = write(tmp_path, "deep.txt", "(succ " * 2000 + "arg" + ")" * 2000)
    res = run_cli("ext", "az", prog, "--support-bound", "1")
    assert res.returncode in (0, 2), res.stderr
    assert res.stdout.count("\n") == 1
    assert isinstance(json.loads(res.stdout), dict)


def test_usage_errors_exit_64():
    for argv in ([], ["frobnicate"], ["seq"], ["seq", "nonsense"], ["fp", "v"]):
        res = run_cli(*argv)
        assert res.returncode == 64, argv
        assert res.stdout == ""
        assert json.loads(res.stderr)["code"] == "Usage"


def test_malformed_inputs_exit_65(tmp_path):
    garbled = write(tmp_path, "x.json", "{not json")
    res = run_cli("seq", "split", garbled)
    assert res.returncode == 65
    assert json.loads(res.stdout)["code"] == "MalformedInput"

    res = run_cli("seq", "split", str(tmp_path / "missing.json"))
    assert res.returncode == 65

    res = run_cli("ext", "az", "(succ", "--support-bound", "2")
    assert res.returncode == 65


def test_fp_v_reruns_are_byte_identical():
    first = run_cli("fp", "v", "--max-n", "30")
    second = run_cli("fp", "v", "--max-n", "30")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_unprintable_result_keeps_the_exit_contract(capsys):
    """unbounded_witness(20) has 166 kbit, more digits than the interpreter
    converts to text by default; the CLI prints it and exits 0, and an
    in-process caller keeps its own limit."""
    res = run_cli("fp", "witness", "--k", "20")
    assert res.returncode == 0, res.stdout + res.stderr
    expected = unbounded_witness(20)
    assert expected.bit_length() > 160_000
    assert res.stdout.count("\n") == 1

    if not hasattr(sys, "set_int_max_str_digits"):
        assert json.loads(res.stdout) == {"k": 20, "witness": expected}
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert cli.main(["fp", "witness", "--k", "20"]) == 0
        assert sys.get_int_max_str_digits() == 5000
        assert cli.main(["fp", "witness", "--k", "x"]) == 64
        assert sys.get_int_max_str_digits() == 5000
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        assert json.loads(out) == json.loads(res.stdout) == {"k": 20, "witness": expected}
    finally:
        sys.set_int_max_str_digits(before)


def test_huge_naturals_round_trip_through_verify(tmp_path):
    """A seed of 5,000 digits is read from the command line, recorded in
    the certificate in full, and read back by verify."""
    seed = "9" * 5000
    res = run_cli("--seed", seed, "fp", "scenario", "--count", "1", "--window", "3")
    assert res.returncode == 0, res.stdout + res.stderr
    assert f'"seed": {seed}' in res.stdout
    cert = tmp_path / "cert.json"
    cert.write_text(res.stdout)
    res = run_cli("verify", str(cert))
    assert res.returncode == 0, res.stdout + res.stderr
    assert json.loads(res.stdout) == {"ok": True, "operation": "fp.scenario"}


def test_fp_commands_honour_the_global_budget():
    res = run_cli("--budget", "1000", "fp", "witness", "--k", "20")
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stdout.count("\n") == 1
    assert json.loads(res.stdout)["code"] == "BudgetExhausted"

    res = run_cli("--budget", "100", "fp", "v", "--max-n", "200")
    assert res.returncode == 2, res.stdout + res.stderr
    assert json.loads(res.stdout)["code"] == "BudgetExhausted"

    # a budget the runs fit in changes nothing
    res = run_cli("--budget", "10000", "fp", "witness", "--k", "5")
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"k": 5, "witness": unbounded_witness(5)}


def test_fp_witness_rejects_a_negative_k():
    res = run_cli("fp", "witness", "--k", "-1")
    assert res.returncode == 2, res.stdout + res.stderr
    assert json.loads(res.stdout)["code"] == "BadInput"


def test_verify_rejects_a_scenario_row_without_program_text(tmp_path):
    cert = json.loads(run_cli("fp", "scenario", "--count", "1", "--window", "3").stdout)
    cert["trace"]["scenarios"][0]["program"] = 5
    res = run_cli("verify", write(tmp_path, "cert.json", cert))
    assert res.returncode == 2, res.stdout + res.stderr
    assert json.loads(res.stdout)["code"] == "BadCertificate"


def test_seqbound_with_a_non_list_neighborhood_exits_65(tmp_path):
    evens = {"prefix_bits": "", "period_bits": "10"}
    job = {"open": {"P": [2], "N": evens}, "decided": [{"neighborhood": 9, "value": 2}]}
    res = run_cli("set", "seqbound", write(tmp_path, "job.json", job))
    assert res.returncode == 65, res.stdout + res.stderr
    assert json.loads(res.stdout)["code"] == "MalformedInput"


BUDGET_COMMANDS = {
    "fp_v": ["fp", "v", "--max-n", "3"],
    "fp_witness": ["fp", "witness", "--k", "3"],
    "fp_scenario": ["fp", "scenario", "--count", "1", "--window", "3"],
    "ext_az": ["ext", "az", "(succ arg)", "--support-bound", "2"],
    "ext_fbeta": ["ext", "fbeta", "(succ arg)", "--m", "1"],
}


@pytest.mark.parametrize("name", BUDGET_COMMANDS)
def test_a_global_budget_below_one_is_one_usage_error(name):
    for budget in ("0", "-3"):
        res = run_cli("--budget", budget, *BUDGET_COMMANDS[name])
        assert (res.returncode, res.stdout) == (64, ""), res.stdout + res.stderr
        assert json.loads(res.stderr) == {
            "code": "Usage",
            "message": f"argument --budget: must be at least 1, got {budget}",
        }
