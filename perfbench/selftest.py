"""Self-test of the benchmark itself; run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload it checks that
  - two runs with the default seed give identical digests and counts
    (times are not compared);
  - a run with another seed gets other inputs and passes every check;
and that a full run.py run records the host beside its numbers.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Enough ops for every op kind of each workload, few enough to stay quick.
OPS = {"ext_probe": 2, "fp_lab": 10, "constructions": 50, "cli_corpus": 16}
COUNTS = ("attempted", "failed", "refused", "inputs_digest", "digests", "ops", "verdicts")


def worker(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", "replay", "--ops", str(OPS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {what}")

    for workload in OPS:
        first, second = worker(workload, 0), worker(workload, 0)
        same = all(first[k] == second[k] for k in COUNTS)
        report(same and first["failed"] == 0, f"{workload}: seed 0 reruns agree and match the golden digests")
        other = worker(workload, 1)
        report(other["inputs_digest"] != first["inputs_digest"], f"{workload}: seed 1 changes the inputs")
        report(other["failed"] == 0, f"{workload}: seed 1 passes every structural check {other['errors']}")

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli_corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    report(set(detail["host"]) == {"python", "nproc", "platform"}, "run.py records python, nproc and platform")
    report(result["correct"] and proc.returncode == 0, "run.py cli_corpus run is correct")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
