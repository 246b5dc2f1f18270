"""One run of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --mode MODE [--seconds S] [--ops N]

Modes:
  setup    import boundlab and generate the inputs, then exit silently
           (prices set-up)
  measure  untraced, the first WALL_ROUNDS rounds, then ops until --seconds
           have passed
  trace    the same with every public layer function wrapped in spans
  replay   untraced, exactly the first --ops ops, to price the tracing
  golden   run every input round of the default seed and store its digests

Run it through run.py, which owns set-up timing and the result lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
IMPORT_PROBES = 5
TAIL_MIN_OPS = 50


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it.

    Below TAIL_MIN_OPS samples that percentile would sit near the median
    (or under it, below 21), so the tail is the slowest sample instead.
    ext_probe makes about 20 ops a run; cli_corpus makes over 100.
    """
    s = sorted(values)
    n = len(s)
    if n < TAIL_MIN_OPS:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def load_golden(workload: str) -> dict:
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def write_golden(workload: str, digests: dict) -> None:
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = dict(sorted(digests.items()))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def import_seconds(env: dict) -> float:
    """Median time of `import boundlab.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import boundlab.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace", "replay", "golden"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=0)
    args = ap.parse_args()

    t0 = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads  # noqa: E402  (imports boundlab from the checkout's src)

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as scratch:
        wl = workloads.make(args.workload, args.seed, ROOT, scratch)
        setup_s = perf_counter() - t0
        if args.mode == "setup":
            return 0
        out = run(args, workloads, wl, setup_s)
    print(json.dumps(out))
    return 0


def run(args, workloads, wl, setup_s: float) -> dict:
    inputs_digest = workloads.digest(repr(wl.inputs))

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.workload == "cli_corpus":
        # Spans need the library in this process, so the traced run (and the
        # replay that prices it) drive cli.main in-process.
        wl.in_process = args.mode in ("trace", "replay", "golden")

    golden = None
    if args.mode != "golden" and args.seed == workloads.DEFAULT_SEED:
        golden = load_golden(args.workload)

    start = perf_counter()
    if args.mode == "golden":
        # Every input round once; cli_corpus has a single corpus.
        rec = workloads.Recorder(None)
        last_round = 1 if args.workload == "cli_corpus" else workloads.PERIOD
    elif args.mode == "replay":
        rec = workloads.Recorder(golden, op_limit=args.ops)
    else:
        rec = workloads.Recorder(golden)
    # A measured run always completes its first WALL_ROUNDS rounds; their
    # time is wall_s, so a slower library shows in it however long --seconds
    # is.  A traced run always completes round 0, so every op kind and a
    # verdict are seen.
    fixed_rounds = wl.WALL_ROUNDS if args.mode == "measure" else 1
    fixed_wall = None
    r = 0
    while not rec.done() and (args.mode != "golden" or r < last_round):
        wl.run_round(r, rec, tracer)
        r += 1
        if r == fixed_rounds:
            fixed_wall = perf_counter() - start
        if args.mode in ("measure", "trace") and r >= fixed_rounds:
            rec.deadline = start + args.seconds
    elapsed = perf_counter() - start
    peak = rss_mib(resource.RUSAGE_CHILDREN if args.workload == "cli_corpus" and not wl.in_process else resource.RUSAGE_SELF)
    rec.finish()

    if args.mode == "golden":
        if rec.failed:
            raise SystemExit("\n".join(rec.errors))
        write_golden(args.workload, rec.digests)

    tail_s, tail_pct = tail(rec.latencies)
    out = {
        "rounds": r,
        "elapsed_s": elapsed,
        "fixed_rounds": fixed_rounds,
        "fixed_wall_s": fixed_wall,
        "setup_s": setup_s,
        "inputs_digest": inputs_digest,
        "attempted": rec.attempted,
        "timed_attempted": rec.attempted,
        "failed": rec.failed,
        "refused": rec.refused,
        "errors": rec.errors,
        "ops": len(rec.latencies),
        "op_p50_s": statistics.median(rec.latencies),
        "op_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "verdicts": len(rec.verdicts),
        "verify_p50_s": statistics.median(rec.verdicts) if rec.verdicts else None,
        "peak_rss_mib": peak,
        "digests": rec.digests,
    }
    if tracer is not None:
        extra = {}
        if args.workload == "constructions":
            extra["ladder_nodes"] = wl.ladder_nodes
            extra["ladder_job_s"] = wl.ladder_job_s
        if args.workload == "cli_corpus":
            extra["import_s"] = import_seconds(wl.env)
            wl.in_process = False
            probe = workloads.Recorder(golden)
            wl.run_round(0, probe)
            extra["process_s"] = statistics.median(probe.latencies)
            out["attempted"] += probe.attempted
            out["failed"] += probe.failed
            out["errors"] += probe.errors
        out["trace"] = tracer.snapshot()
        out["trace_extra"] = extra
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(out["trace"], fh, indent=1)
    return out


if __name__ == "__main__":
    sys.exit(main())
