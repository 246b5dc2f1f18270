"""Frozen CLI corpus: every command's stdout and exit code, byte for byte.

The hashes were taken from the code before the open, fusion and escape
layers were folded onto one node enumerator, so any refactor of those
layers must leave every output here unchanged.  Input files are fixed
JSON; certificates embed their inputs, never file paths.
"""

import hashlib
import json
import subprocess
import sys
from itertools import product

OPEN_P = {"stem": 0, "explicit": [], "base": 2, "slope": 1}
OPEN_Q = {"stem": 0, "explicit": [], "base": 2, "slope": 1}
OPEN_SPLIT = {"stem": 1, "explicit": [2], "base": 3, "slope": 1}
TERM_T = {"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(3)]}
# Modulus-2 term over OPEN_P's depth-2 nodes; the witness alternates so
# fuse bound --at has to split where the second entry answers.
TERM_AT = {
    "modulus": 2,
    "table": [
        {"node": [a, b], "value": (a, b)[(a + b) % 2], "witness": (a + b) % 2}
        for a in range(3)
        for b in range(4)
    ],
}
PSEUDO_JOB = {
    "p": {"stem": 0, "explicit": [], "base": 1, "slope": 1},
    "point": {"prefix": [], "tail_value": 0},
    "stages": 2,
    "terms": [{"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(2)]}] * 3,
}
ORACLE = {
    "levels": [[n, n + 1] for n in range(7)],
    "labels": [{"n": 0, "node": [0], "star": False}],
    "default_star": True,
}
# Every index is non-star on its all-zero node, so no frontier closes.
ORACLE_UNSOUND = {
    "levels": [[n, n + 1] for n in range(5)],
    "labels": [{"n": n, "node": [0] * (n + 1), "star": False} for n in range(5)],
    "default_star": True,
}
# ORACLE's decisions with every label of OPEN_Q's nodes listed (g(i) = 2 + i).
ORACLE_TOTAL = {
    "levels": [[n, n + 1] for n in range(4)],
    "labels": [
        {"n": n, "node": list(node), "star": (n, node) != (0, (0,))}
        for n in range(4)
        for node in product(*(range(3 + i) for i in range(n + 1)))
    ],
    "default_star": False,
}
SEQ_JOB = {
    "open": {"P": [2, 9], "N": {"prefix_bits": "", "period_bits": "10"}},
    "decided": [{"neighborhood": [9], "value": 9}, {"neighborhood": [2], "value": 2}],
}
FILES = {
    "p.json": OPEN_P,
    "q.json": OPEN_Q,
    "split.json": OPEN_SPLIT,
    "t.json": TERM_T,
    "t_at.json": TERM_AT,
    "job.json": PSEUDO_JOB,
    "oracle.json": ORACLE,
    "unsound.json": ORACLE_UNSOUND,
    "total.json": ORACLE_TOTAL,
    "seqjob.json": SEQ_JOB,
}

# name -> argv; "@f" stands for the input file f, "^name" for the stdout of
# an earlier command saved as a certificate file.
COMMANDS = [
    ("fp_v", ["fp", "v", "--max-n", "25"]),
    ("fp_witness", ["fp", "witness", "--k", "6"]),
    ("fp_scenario", ["--seed", "7", "fp", "scenario", "--count", "3", "--window", "6"]),
    ("seq_intersect", ["seq", "intersect", "@p.json", "@q.json"]),
    ("set_seqbound", ["set", "seqbound", "@seqjob.json"]),
    ("fuse_bound", ["fuse", "bound", "@p.json", "@t.json", "--level", "1"]),
    ("fuse_pseudo", ["fuse", "pseudo", "@job.json"]),
    ("fuse_dc", ["fuse", "dc", "@p.json", "--start", "2", "--steps", "3"]),
    ("as_schedule", ["as", "schedule", "@q.json", "@oracle.json", "--level", "1", "--horizon", "6"]),
    ("ext_az", ["ext", "az", "(apply arg (const 1))", "--support-bound", "4"]),
    ("ext_fbeta", ["ext", "fbeta", "(succ arg)", "--m", "2", "--value-bound", "2"]),
    ("verify_fp_scenario", ["verify", "^fp_scenario"]),
    ("verify_fuse_bound", ["verify", "^fuse_bound"]),
    ("verify_fuse_pseudo", ["verify", "^fuse_pseudo"]),
    ("verify_fuse_dc", ["verify", "^fuse_dc"]),
    ("verify_as_schedule", ["verify", "^as_schedule"]),
    ("seq_split", ["seq", "split", "@split.json"]),
    ("fuse_bound_at", ["fuse", "bound", "@p.json", "@t_at.json", "--level", "2", "--at", "1"]),
    ("as_schedule_unsound", ["as", "schedule", "@q.json", "@unsound.json", "--level", "1", "--horizon", "4"]),
    ("as_schedule_total", ["as", "schedule", "@q.json", "@total.json", "--level", "1", "--horizon", "3"]),
    ("verify_as_schedule_total", ["verify", "^as_schedule_total"]),
]

# name -> (exit code, sha256 of stdout)
EXPECTED = {
    "fp_v": (0, "23e55453d34eae82ca9f856d1e51cc39bdda387136a69c39f18e40c2a68a6407"),
    "fp_witness": (0, "21a291c7c4bb5aad5b73aafdfe17e8f5bf9b3b388db7df2b536871c4651fe0ca"),
    "fp_scenario": (0, "aac3478f4835d463f6dff6c6c8a04b838952f112b9966e7856a329e0643065e8"),
    "seq_intersect": (0, "8ba1ce2fa75f25e3ef7525cedbc1059a5cc021c94a68b183cba3b71d3f01cd1e"),
    "set_seqbound": (0, "4ea95faf4f9121f7d018545c009e0c37b50eeabb5aee1c98b8ebc5b00c2b2fd9"),
    "fuse_bound": (0, "418ded8eb2bfab549a133b42cbe7a4251fc4ad895782af4dc8236b3435af4aa5"),
    "fuse_pseudo": (0, "1b98b592fb1d2c21efa8a040488622b6e4cc3688a35d3944b55e9a3688998589"),
    "fuse_dc": (0, "f18041e0390a6c7ee62a9861c942e415c44c8faf12e230922c4abe62bccac206"),
    "as_schedule": (0, "5e63a32f624986c69abc944e99a9c701ead64377a38abcd9a27ef1d47510c797"),
    "ext_az": (0, "f15ec26a432d13f80dcb981a4c6a8c1c3a1a51ac27005bf0ac4af601f0e22675"),
    "ext_fbeta": (0, "6ebda648640a213aed7413c4755db1c3436b5edabd591b80b2518578f7ddc710"),
    "verify_fp_scenario": (0, "2f98aebeacf205d20436e6ff630b53f6e9a7121c97b51581db3e970d496c9fe0"),
    "verify_fuse_bound": (0, "dd50b1cbf680b4938464473f37bffa6526c74a3cb25a72509cccd6116e151340"),
    "verify_fuse_pseudo": (0, "e772a7fa984a182154348975466018ecdea54f685bc16cb1f3311401a5a7e38a"),
    "verify_fuse_dc": (0, "68f840e7b0750300bed3cb66da956f941472b164001a6a1d2bd90b7d241c8478"),
    "verify_as_schedule": (0, "d53a2d616b166ff00c632723bc4b634acbb65972ededc3dba4d054d1a32520f8"),
    "seq_split": (0, "bb8e7b64905a3629fec8a3195ab8e16ab5367f21f52680f1e7f85f0f6b6e0ebb"),
    "fuse_bound_at": (0, "967256a43266e670ac1e22b2a7811eeb90601975c11e42fc885810dd31c91510"),
    "as_schedule_unsound": (2, "76619c07e3f76d766df2d423613cb56d77bd9d5934703e79afff56ef7c05b7a9"),
    "as_schedule_total": (0, "33627b4a52ef97f6a7f9ab74a6a010eb039ffc6bfbcbcbcd7be9ea9c00a1ac8c"),
    "verify_as_schedule_total": (0, "d53a2d616b166ff00c632723bc4b634acbb65972ededc3dba4d054d1a32520f8"),
}


def _run(argv):
    return subprocess.run(
        [sys.executable, "-m", "boundlab", *argv],
        capture_output=True,
        timeout=120,
    )


def test_frozen_cli_corpus(tmp_path):
    for name, payload in FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    seen = {}
    for name, argv in COMMANDS:
        resolved = []
        for arg in argv:
            if arg.startswith("@"):
                arg = str(tmp_path / arg[1:])
            elif arg.startswith("^"):
                cert = tmp_path / f"{arg[1:]}.cert.json"
                cert.write_bytes(seen[arg[1:]])
                arg = str(cert)
            resolved.append(arg)
        res = _run(resolved)
        seen[name] = res.stdout
        got = (res.returncode, hashlib.sha256(res.stdout).hexdigest())
        assert got == EXPECTED[name], (name, res.stdout[:300], res.stderr[-300:])
