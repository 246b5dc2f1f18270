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
import signal
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundlab import cli
from boundlab.certificates import build
from boundlab.realizability import unbounded_witness, v
from boundlab.serialize import dumps

from oracles import cold_fp_lab

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Every generated call finishes within this many seconds of wall clock.
CALL_SECONDS = 10


def run(argv):
    def expire(signum, frame):
        # pytest.fail is no Exception, so the CLI's error handling cannot catch it
        pytest.fail(f"{argv} ran past {CALL_SECONDS} s", pytrace=False)

    out, err = io.StringIO(), io.StringIO()
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
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


def verify_on_file(cert):
    """Run `verify` on cert; a certificate it accepts must have the canonical
    text of its own rebuild, whatever the equality of its values says."""
    if run_on_file(["verify"], cert)[0] == 0:
        cert = json.loads(json.dumps(cert))  # as the CLI reads it
        assert dumps(build(cert["operation"], cert["inputs"])) == dumps(cert), cert


SCENARIO_CERT = build("fp.scenario", {"seed": 1, "count": 1, "window": 3})


@SETTINGS
@given(st.data())
def test_mutated_scenario_certificates_keep_the_contract(data):
    verify_on_file(mutate(SCENARIO_CERT, data))


# --- mutated fusion and escape inputs ------------------------------------

# These constructions grow fast in their sizes (a dc stage decides the step
# term on each node of its cover, which grows by a factor g(n) + 1 for each
# free position n, and a bound recurses through every split), so the seeds
# are small and the edits write only integers in [-3, 2]: stems, schedule
# entries, slopes, moduli, levels, horizons and dc steps are at most 2 where
# an edit sets them and at most 4 in the seeds, so no run reaches depth 6 or
# 400 cover nodes (the worst, a dc open edited to explicit [2, 2, 2], covers
# 324 nodes at depth 5).
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
    verify_on_file(mutate(cert, data, small_values, SMALL_FIELDS))


# --- mutated seq and set inputs -----------------------------------------

# The same small edits as above, on the open, point, periodic-set and
# set-open files of the seq and set commands; the seeds keep every entry,
# stem, slope and split index at most 2, so splits and intersections stay
# a few pieces wide.
SET_FIELDS = SMALL_FIELDS + ["P", "N", "prefix_bits", "period_bits"]
POINT = {"prefix": [1, 1], "tail_value": 2}
PSET = {"prefix_bits": "01", "period_bits": "01"}
SET_A = {"P": [1], "N": EVENS}
SET_B = {"P": [2], "N": {"prefix_bits": "1", "period_bits": "0"}}

SEQ_SET_JOBS = [
    (["seq", "intersect"], [OPEN, OPEN_AT]),
    (["seq", "split"], [OPEN_AT]),
    (["seq", "split", "--at", "1"], [OPEN_AT]),
    (["seq", "member"], [OPEN_AT, POINT]),
    (["seq", "force-range", "--value", "2"], [OPEN]),
    (["set", "intersect"], [SET_A, SET_B]),
    (["set", "member"], [PSET, SET_A]),
]


def test_the_seq_and_set_seeds_succeed():
    for argv, docs in SEQ_SET_JOBS:
        assert run_on_file(argv, *docs)[0] == 0, argv


@settings(SETTINGS, max_examples=150)
@given(st.data())
def test_mutated_seq_and_set_inputs_keep_the_contract(data):
    argv, docs = data.draw(st.sampled_from(SEQ_SET_JOBS))
    which = data.draw(st.integers(0, len(docs) - 1))
    docs = [mutate(doc, data, small_values, SET_FIELDS) if i == which else doc for i, doc in enumerate(docs)]
    run_on_file(argv, *docs)


# --- pinned holes ---------------------------------------------------------

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


def test_a_boolean_slope_is_malformed_input():
    code, out = run_on_file(["seq", "intersect"], OPEN, dict(OPEN, slope=True))
    assert code == 65 and "slope" in out


@pytest.mark.parametrize("at", [True, False])
def test_a_boolean_split_depth_in_a_certificate_is_rejected(at):
    cert = copy.deepcopy(FUSION_CERTS[1])
    cert["inputs"]["at"] = at
    code, out = run_on_file(["verify"], cert)
    assert code == 2 and "'at' must be a natural" in out


@pytest.mark.parametrize(
    "path, value",
    [
        (("outputs", "result", "base"), 3.0),
        (("trace", "decisions", 1, "value"), True),
        (("trace", "decisions", 0, "value"), False),
    ],
)
def test_a_certificate_equal_only_as_python_values_is_rejected(path, value):
    cert = copy.deepcopy(FUSION_CERTS[0])
    parent = cert
    for key in path[:-1]:
        parent = parent[key]
    assert parent[path[-1]] == value  # the edit changes the text, not the value
    parent[path[-1]] = value
    code, out = run_on_file(["verify"], cert)
    assert code == 2 and "did not reproduce" in out
