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


def run_on_file(argv, *docs):
    """Run argv with one input file per doc appended, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"input{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return run([*argv, *paths])


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


def mutate(doc, data, values=json_values, fields=FIELDS):
    """Up to three edits of doc: replace or delete a node, or set a field."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        action = data.draw(st.sampled_from(["replace", "delete", "set field"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "set field" and isinstance(target, dict):
            target[data.draw(st.sampled_from(fields))] = data.draw(values)
        else:
            parent[path[-1]] = data.draw(values)
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


# --- mutated fusion and escape inputs ------------------------------------

# These constructions grow fast in their sizes (a dc stage amalgamates every
# node of a cover pairwise), so the seeds are small and the edits write only
# integers in [-3, 2]: stems, schedule entries, slopes, moduli, levels,
# horizons and dc steps are at most 2 where an edit sets them and at most 4
# in the seeds, so no run reaches depth 6 or 400 cover nodes (the worst, a
# dc open edited to explicit [2, 2, 2], covers 324 nodes at depth 5).
SMALL_FIELDS = [
    "stem", "explicit", "base", "slope", "empty", "prefix", "tail_value", "modulus", "table",
    "node", "value", "witness", "levels", "labels", "n", "star", "default_star", "p", "term",
    "level", "at", "point", "stages", "terms", "start", "steps", "oracle", "q", "horizon",
    "format", "operation", "inputs", "trace", "outputs", "decisions", "chain", "frames",
]

small_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 2)
    | st.sampled_from([0.5, 2.0, "", "x", "successor", "fuse.dc"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(SMALL_FIELDS), kids, max_size=3),
    max_leaves=6,
)

OPEN = {"stem": 0, "explicit": [], "base": 2, "slope": 1}
OPEN_AT = {"stem": 1, "explicit": [1], "base": 2, "slope": 1}
TERM = {"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(3)]}
TERM_AT = {
    "modulus": 2,
    "table": [{"node": [1, b], "value": (1, b)[b % 2], "witness": b % 2} for b in range(4)],
}
PSEUDO_JOB = {
    "p": {"stem": 0, "explicit": [], "base": 1, "slope": 1},
    "point": {"prefix": [], "tail_value": 0},
    "stages": 2,
    "terms": [{"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(2)]}] * 3,
}
ESCAPE_ORACLE = {
    "levels": [[n, n + 1] for n in range(4)],
    "labels": [{"n": 0, "node": [0], "star": False}],
    "default_star": True,
}

# (argv without the input files, the input files in order)
FUSION_JOBS = [
    (["fuse", "bound", "--level", "1"], [OPEN, TERM]),
    (["fuse", "bound", "--level", "2", "--at", "1"], [OPEN_AT, TERM_AT]),
    (["fuse", "pseudo"], [PSEUDO_JOB]),
    (["fuse", "dc", "--start", "1", "--steps", "2"], [OPEN]),
    (["as", "schedule", "--level", "1", "--horizon", "3"], [OPEN, ESCAPE_ORACLE]),
]


def test_the_fusion_seeds_succeed():
    for argv, docs in FUSION_JOBS:
        assert run_on_file(argv, *docs)[0] == 0, argv


FUSION_CERTS = [
    build("fuse.bound", {"p": OPEN, "term": TERM, "level": 1}),
    build("fuse.bound", {"p": OPEN_AT, "term": TERM_AT, "level": 2, "at": 1}),
    build("fuse.pseudo", PSEUDO_JOB),
    build("fuse.dc", {"p": OPEN, "start": 1, "steps": 2, "oracle": "successor"}),
    build("as.schedule", {"q": OPEN, "oracle": ESCAPE_ORACLE, "level": 1, "horizon": 3}),
]


@settings(SETTINGS, max_examples=150)
@given(st.data())
def test_mutated_fusion_inputs_keep_the_contract(data):
    argv, docs = data.draw(st.sampled_from(FUSION_JOBS))
    which = data.draw(st.integers(0, len(docs) - 1))
    docs = [mutate(doc, data, small_values, SMALL_FIELDS) if i == which else doc for i, doc in enumerate(docs)]
    run_on_file(argv, *docs)


@settings(SETTINGS, max_examples=150)
@given(st.data())
def test_mutated_fusion_certificates_keep_the_contract(data):
    cert = data.draw(st.sampled_from(FUSION_CERTS))
    run_on_file(["verify"], mutate(cert, data, small_values, SMALL_FIELDS))


def test_a_star_oracle_whose_labels_are_not_a_list_is_malformed_input():
    oracle = dict(ESCAPE_ORACLE, labels=5)
    code, out = run_on_file(["as", "schedule", "--level", "1", "--horizon", "3"], OPEN, oracle)
    assert code == 65 and "labels" in out


def test_a_decision_with_a_negative_witness_fails_its_witness_equation():
    cert = copy.deepcopy(FUSION_CERTS[0])
    cert["trace"]["decisions"][0]["witness"] = -3
    code, out = run_on_file(["verify"], cert)
    assert code == 2 and "witness equation" in out


def test_an_input_nested_past_the_json_readers_depth_is_malformed_input():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "deep.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "]" * 100_000)
        code, out = run(["verify", path])
    assert code == 65 and "nests deeper" in out
