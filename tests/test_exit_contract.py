"""The CLI's exit contract under generated input.

Every run exits 0, 2, 64 or 65 and prints exactly one JSON document on one
line (on stderr for a usage error, on stdout otherwise), and a capped fp
command prints the same bytes in a cold lab as after other calls.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import cli
from boundlab.certificates import build
from boundlab.realizability import unbounded_witness, v

from oracles import cold_fp_lab

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 64, 65), (argv, code)
    text = err.getvalue() if code == 64 else out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
    doc = json.loads(text)
    if code:
        assert isinstance(doc, dict) and isinstance(doc.get("code"), str), (argv, text)
    return code, out.getvalue()


def run_on_file(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return run([*argv, path])


# --- capped fp commands --------------------------------------------------

fp_commands = st.one_of(
    st.builds(lambda n: ["fp", "v", "--max-n", str(n)], st.integers(-2, 160)),
    st.builds(lambda k: ["fp", "witness", "--k", str(k)], st.integers(-2, 24)),
    st.builds(
        lambda seed, count, window: [
            "--seed", str(seed), "fp", "scenario", "--count", str(count), "--window", str(window),
        ],
        st.integers(-5, 50),
        st.integers(0, 2),
        st.integers(0, 5),
    ),
)
budgets = st.integers(0, 5000)


@SETTINGS
@given(budgets, fp_commands, budgets, st.integers(0, 16), st.integers(0, 200))
def test_capped_fp_commands_keep_the_contract_and_ignore_history(
    budget, command, other_budget, warm_k, warm_n
):
    argv = ["--budget", str(budget), *command]
    try:
        cold_fp_lab()
        first = run(argv)
        run(["--budget", str(other_budget), *command])
        unbounded_witness(warm_k)
        v(warm_n)
        assert run(argv) == first
    finally:
        cold_fp_lab()


# --- mutated input files ------------------------------------------------

FIELDS = [
    "open", "decided", "P", "N", "prefix_bits", "period_bits", "neighborhood", "value",
    "format", "operation", "inputs", "trace", "outputs", "seed", "count", "window", "budget",
    "scenarios", "program", "index", "certificate", "tables",
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([0.5, -1.0, 2.0])
    | st.sampled_from(["", "01", "10", "x", "(succ arg)", "(pair arg (const 0))"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(FIELDS), kids, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def mutate(doc, data):
    """Up to three edits of doc: replace or delete a node, or set a field."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        action = data.draw(st.sampled_from(["replace", "delete", "set field"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "set field" and isinstance(target, dict):
            target[data.draw(st.sampled_from(FIELDS))] = data.draw(json_values)
        else:
            parent[path[-1]] = data.draw(json_values)
    return doc


EVENS = {"prefix_bits": "", "period_bits": "10"}
SEQBOUND_JOB = {
    "open": {"P": [2, 9], "N": EVENS},
    "decided": [{"neighborhood": [9], "value": 9}, {"neighborhood": [2], "value": 2}],
}


# A job has few fields, and most edits break it before its rows are read.
@settings(SETTINGS, max_examples=300)
@given(st.data())
def test_mutated_seqbound_jobs_keep_the_contract(data):
    run_on_file(["set", "seqbound"], mutate(SEQBOUND_JOB, data))


SCENARIO_CERT = build("fp.scenario", {"seed": 1, "count": 1, "window": 3})


@SETTINGS
@given(st.data())
def test_mutated_scenario_certificates_keep_the_contract(data):
    run_on_file(["verify"], mutate(SCENARIO_CERT, data))
