"""boundlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/.  Every run is a closed loop with one client, in one fresh worker
interpreter (see worker.py).  With --trace 0 the last stdout line carries
the end-to-end metrics of BENCHMARK.json; with --trace 1 a traced worker
gives the per-layer metrics, and an untraced replay of the same rounds
prices the tracing.  The line before it holds the details: op counts, the
tail percentile, refusals, errors and the host.  Workloads, metrics and
predictions are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
WORKLOADS = ("ext_probe", "fp_lab", "constructions", "cli_corpus")


class BenchError(Exception):
    pass


def spawn_worker(args, mode: str, deadline: float, ops: int = 0) -> str:
    """Run one worker to completion and return its stdout."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds), "--ops", str(ops),
    ]
    # A session of its own, so a timeout also stops the worker's CLI children.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker ran past the run limit") from e
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{stderr}")
    return stdout


def run_worker(args, mode: str, deadline: float, ops: int = 0) -> dict:
    return json.loads(spawn_worker(args, mode, deadline, ops).strip().splitlines()[-1])


def setup_seconds(args, deadline: float) -> tuple[float, list[float]]:
    """Interpreter start + import boundlab + input generation, median of probes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        spawn_worker(args, "setup", deadline)
        times.append(perf_counter() - t0)
    return statistics.median(times), times


def end_to_end(res: dict, setup_s: float) -> dict:
    return {
        "wall_s": res["fixed_wall_s"],
        "ops_per_s": res["ops"] / res["elapsed_s"],
        "op_p50_ms": res["op_p50_s"] * 1e3,
        "op_tail_ms": res["op_tail_s"] * 1e3,
        "verify_p50_ms": res["verify_p50_s"] * 1e3,
        "peak_rss_mib": res["peak_rss_mib"],
        "setup_s": setup_s,
    }


def per_layer(trace: dict, extra: dict, overhead_ratio: float) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    edges = {(e["parent"], e["child"]): e for e in trace["edges"]}

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return counters.get(name + ".calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in (
        "machine.decode", "machine.unpair", "machine.encode", "machine.pair",
        "machine.eval_profile", "realizability.apply_functional",
        "realizability.ConvergenceCache.run", "seq_opens.compatible_nodes",
        "certificates.build",
    ):
        m[name + ".calls"] = calls(name)
    for name in (
        "machine.decode", "machine.unpair", "machine.encode", "machine.pair",
        "realizability.FiniteSupportFn.index", "machine.eval_profile", "machine.eval_steps",
        "realizability.enumerate_Az", "realizability.certified_pairs", "realizability.v",
        "realizability.unbounded_witness", "realizability.pseudobound_scenario",
        "seq_opens.compatible_nodes", "seq_opens.split", "seq_opens.restrict_by_seq",
        "seq_opens.min_schedule", "seq_opens.intersect", "seq_opens.member",
        "terms.decide_term", "terms.amalgamate", "terms.decide_guarded",
        "fusion.bound_range_term", "fusion.bound_range_term_at", "fusion.fuse_pseudobound",
        "fusion.dc_chain", "fusion.extract_witness_at", "antispecker.escape_trace",
        "set_opens.intersect_set", "set_opens.compatible_extension_check",
        "set_opens.sequential_bound", "set_opens.unbounded_step",
        "serialize.dumps", "serialize.from_json", "certificates.build",
        "certificates.verify", "cli.main",
    ):
        m[name + ".self_s"] = self_s(name)
    decode_bits = counters.get("machine.decode.in_bits", 0)
    m["machine.decode.in_mbit"] = decode_bits / 1e6
    m["machine.decode.bits_per_call"] = ratio(decode_bits, calls("machine.decode"))
    m["machine.decode.outer_bits_per_call"] = ratio(
        counters.get("machine.decode.outer_in_bits", 0), counters.get("machine.decode.outer_calls", 0)
    )
    m["machine.encode.out_mbit"] = counters.get("machine.encode.out_bits", 0) / 1e6
    steps = counters.get("machine.eval_profile.steps", 0)
    m["machine.eval_profile.steps"] = steps
    m["machine.eval_profile.steps_per_s"] = ratio(steps, total_s("machine.eval_profile"))
    m["machine.eval_profile.converged_ratio"] = ratio(
        counters.get("machine.eval_profile.converged", 0), calls("machine.eval_profile")
    )
    evals = edges.get(("realizability.ConvergenceCache.run", "machine.eval_profile"), {}).get("spans", 0)
    m["realizability.ConvergenceCache.run.eval_ratio"] = ratio(evals, calls("realizability.ConvergenceCache.run"))
    m["realizability.enumerate_Az.refused"] = counters.get("realizability.enumerate_Az.refused.BudgetExhausted", 0)
    m["seq_opens.compatible_nodes.nodes"] = counters.get("seq_opens.compatible_nodes.nodes", 0)
    m["antispecker.stages"] = counters.get("antispecker.stages", 0)
    m["antispecker.refused"] = counters.get("antispecker.escape_trace.refused.ScheduleUnsound", 0)
    m["serialize.dumps.bytes"] = counters.get("serialize.dumps.bytes", 0)
    replay_build = edges.get(("certificates.verify", "certificates.build"), {}).get("total_s", 0.0)
    m["certificates.verify_over_build"] = ratio(
        total_s("certificates.verify"), total_s("certificates.build") - replay_build
    )
    m["cli.import_s"] = extra.get("import_s", 0.0)
    m["cli.process_s"] = extra.get("process_s", 0.0)
    for step in (1, 2, 3):
        m[f"dc_ladder.step{step}.nodes"] = extra.get("ladder_nodes", {}).get(str(step), 0)
        m[f"dc_ladder.step{step}.job_s"] = extra.get("ladder_job_s", {}).get(str(step), 0.0)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def host() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "boundlab", "__init__.py")):
        print(f"run.py: no boundlab sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    try:
        if args.trace:
            res = run_worker(args, "trace", deadline)
            replay = run_worker(args, "replay", deadline, ops=res["timed_attempted"])
            values = per_layer(res["trace"], res["trace_extra"], res["elapsed_s"] / replay["elapsed_s"])
            wanted = spec["per_layer"]
            attempted = res["attempted"] + replay["attempted"]
            failed = res["failed"] + replay["failed"]
            errors = res["errors"] + replay["errors"]
            setup_runs = None
        else:
            setup_s, setup_runs = setup_seconds(args, deadline)
            res = run_worker(args, "measure", deadline)
            values = end_to_end(res, setup_s)
            wanted = spec["end_to_end"]
            attempted, failed, errors = res["attempted"], res["failed"], res["errors"]
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    # Layers that only the workloads left out of BENCHMARK.json use, such as
    # the fuse.dc ladder, are reported here for runs made by hand.
    unlisted = {k: v for k, v in values.items() if k not in metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host(),
        "rounds": res["rounds"],
        "ops": res["ops"],
        "tail_percentile": res["tail_percentile"],
        "verdicts": res["verdicts"],
        "fail_ratio": failed / attempted,
        "refused": res["refused"],
        "inputs_digest": res["inputs_digest"],
        "setup_runs_s": setup_runs,
        "errors": errors,
        "unlisted_metrics": unlisted,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "out", name), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
