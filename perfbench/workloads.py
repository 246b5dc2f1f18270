"""Seeded inputs, timed operations and output checks for the four workloads.

A workload turns its seed into PERIOD rounds of inputs; round r of a run uses
round r % PERIOD, so inputs never run out however fast the library gets.  A
measured run always completes its first WALL_ROUNDS rounds, a fixed amount of
work whose time is wall_s; it then goes on until --seconds have passed.  An
op is one timed unit of library work.  Its result is turned into canonical
text outside the timed region; the text is hashed for the golden check and
inspected by structural checks that hold for every seed.  The library sees
only the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from time import perf_counter

from boundlab import certificates, cli, machine, realizability, serialize, set_opens
from boundlab.errors import BudgetExhausted, ScheduleUnsound
from boundlab.machine import ARG, const, node

DEFAULT_SEED = 0
PERIOD = 16

# The lru_cache itself, bound before a tracer wraps the module attribute.
_CERTIFIED_PAIRS = realizability.certified_pairs


def cold_fp_lab() -> None:
    """Empty realizability's module-level state, as a fresh process has it."""
    realizability._RUNS = realizability.ConvergenceCache()
    realizability._QUALIFY_AT[:] = [0]
    _CERTIFIED_PAIRS.cache_clear()


class CheckFailed(Exception):
    """An op's output broke a structural check."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Recorder:
    """Outcome accounting for one run: latencies, verdicts, refusals, digests.

    A refusal the op was built to provoke is a success with its own count;
    any other exception, a failed check or a golden mismatch is a failed op.
    """

    def __init__(self, golden: dict | None, deadline: float | None = None, op_limit: int | None = None):
        self.golden = golden
        self.deadline = deadline
        self.op_limit = op_limit
        self.latencies: list[float] = []
        self.verdicts: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.refused: dict[str, int] = {}
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.deferred: dict[str, object] = {}  # check name -> check, each run once

    def done(self) -> bool:
        """Past the run's deadline or op limit: later ops are not attempted."""
        if self.op_limit is not None and self.attempted >= self.op_limit:
            return True
        return self.deadline is not None and perf_counter() >= self.deadline

    def verdict(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.verdicts.append(perf_counter() - t0)
        return out

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{key}: {why}")

    def op(self, key: str, call, check, refusal: type | None = None) -> None:
        """Time call(); check(result) gives the canonical text or raises."""
        if self.done():
            return
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call()
        except Exception as e:  # boundary: every outcome is accounted for
            self.latencies.append(perf_counter() - t0)
            if refusal is not None and isinstance(e, refusal):
                self._record(key, self.refuse(e))
            else:
                self.fail(key, f"{type(e).__name__}: {e}")
            return
        self.latencies.append(perf_counter() - t0)
        if refusal is not None:
            self.fail(key, f"expected {refusal.__name__}, got a result")
            return
        try:
            text = check(out)
        except Exception as e:  # malformed output breaks a check in any way
            self.fail(key, f"check: {type(e).__name__}: {e}")
            return
        self._record(key, text)

    def refuse(self, e: Exception) -> str:
        """Count a correct refusal; returns its canonical text."""
        name = type(e).__name__
        self.refused[name] = self.refused.get(name, 0) + 1
        return f"refused {name}"

    def _record(self, key: str, text: str) -> None:
        d = digest(text)
        self.digests[key] = d
        if self.golden is not None and self.golden.get(key) != d:
            self.fail(key, "digest differs from golden" if key in self.golden else "no golden digest")

    def finish(self) -> None:
        """Run the checks too costly for the timed section."""
        for key, fn in self.deferred.items():
            try:
                fn()
            except Exception as e:  # a check that cannot finish fails its op
                self.fail(key, f"check: {type(e).__name__}: {e}")


def _cert_job(rec: Recorder, operation: str, inputs: dict):
    """build -> dumps -> json.loads -> verify, the way a certificate travels."""

    def call():
        cert = certificates.build(operation, inputs)
        text = serialize.dumps(cert)
        outputs = rec.verdict(certificates.verify, json.loads(text))
        return text, cert, outputs

    return call


def _cert_check(out) -> str:
    text, cert, outputs = out
    require(outputs == cert["outputs"], "verify returned other outputs")
    return text


# --- ext_probe -----------------------------------------------------------

def _nonzero_at_0(rng: random.Random, depth: int) -> machine.Expr:
    """An application-free program whose value at 0 is nonzero by construction."""
    if depth == 0:
        return const(rng.randrange(1, 4))
    kind = rng.randrange(4)
    if kind == 0:
        return node("succ", _any_program(rng, depth - 1))
    if kind == 1:
        return node("pair", _nonzero_at_0(rng, depth - 1), _any_program(rng, depth - 1))
    if kind == 2:
        return node("pair", _any_program(rng, depth - 1), _nonzero_at_0(rng, depth - 1))
    return node("if0", ARG, _nonzero_at_0(rng, depth - 1), _any_program(rng, depth - 1))


def _any_program(rng: random.Random, depth: int) -> machine.Expr:
    if depth == 0:
        return ARG if rng.randrange(2) else const(rng.randrange(4))
    op = rng.choice(["arg", "const", "succ", "pred", "fst", "snd", "pair"])
    if op == "arg":
        return ARG
    if op == "const":
        return const(rng.randrange(4))
    if op == "pair":
        return node("pair", _any_program(rng, depth - 1), _any_program(rng, depth - 1))
    return node(op, _any_program(rng, depth - 1))


class ExtProbe:
    """Support enumeration of probe functionals F_beta, one beta's row per op.

    A row is a starved cell (its budget cannot pay for the zero argument, so
    it must raise BudgetExhausted), then the cells m = 0..5, each searching
    supports up to m+2 with values below 2, then the verdict.  Cell cost
    grows about tenfold per m, so the m = 5 cell dominates and decodes big
    indices.  A row, not a cell, is the op: cells m <= 2 take about 1 ms,
    and a median over them moved by a third between seeds on a noisy host.
    """

    M_MAX = 5
    BUDGET = 10**8
    WALL_ROUNDS = PERIOD  # every beta once: about 15 s
    STARVED_BUDGET = 16

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.betas = [_nonzero_at_0(rng, rng.randrange(0, 3)) for _ in range(PERIOD)]
        self.inputs = [machine.format_program(b) for b in self.betas]

    def run_round(self, r: int, rec: Recorder, tracer=None) -> None:
        rec.op(f"r{r % PERIOD}", self._row(rec, self.betas[r % PERIOD]), self._check)

    def _row(self, rec: Recorder, beta):
        def call():
            try:
                realizability.enumerate_Az(realizability.make_F_beta(beta, 1), 3, 2, self.STARVED_BUDGET)
                starved = None
            except BudgetExhausted as e:
                starved = rec.refuse(e)
            azs = [
                realizability.enumerate_Az(realizability.make_F_beta(beta, m), m + 2, 2, self.BUDGET)
                for m in range(self.M_MAX + 1)
            ]
            # The top cell's distinguishing argument vanishes below M_MAX+1;
            # the verdict is the machine's check of its totality certificate.
            g = realizability.FiniteSupportFn((0,) * (self.M_MAX + 1) + (1,))
            cert = machine.alias_certificate(g.program())
            verdict = rec.verdict(machine.check_proof, cert.derivation, cert.index)
            return starved, azs, verdict

        return call

    @staticmethod
    def _check(out) -> str:
        starved, azs, verdict = out
        require(starved is not None, "the starved cell did not raise BudgetExhausted")
        for m, az in enumerate(azs):
            require(az == set(range(m + 2)), f"Az = {sorted(az)} at m={m}, want 0..{m + 1}")
        require(verdict is True, "totality certificate rejected")
        return canon([starved, [sorted(az) for az in azs]])


# --- fp_lab --------------------------------------------------------------

class FpLab:
    """The fp lab: machine-run sweeps, v windows, witnesses and scenarios.

    Module-level caches in realizability warm up during a run, which is why
    every run starts in a fresh interpreter.  BENCHMARK.json leaves this
    workload out: its timings spread past the bounds (see NOTES.md).
    """

    WALL_ROUNDS = PERIOD  # about 9 s
    BLOCKS = 4
    BLOCK_CODES = 1024
    INPUTS = 8
    BUDGET = 256
    CODE_LIMIT = 1 << 20
    V_WINDOW = 8
    WINDOW = 16

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(PERIOD):
            self.rounds.append(
                {
                    "blocks": [
                        [rng.randrange(self.CODE_LIMIT) for _ in range(self.BLOCK_CODES)]
                        for _ in range(self.BLOCKS)
                    ],
                    "v_from": rng.randrange(40, 400),
                    "k": rng.randrange(10, 23),
                    "scenario_seed": rng.randrange(1 << 30),
                }
            )
        self.inputs = self.rounds
        self.v_seen: dict[int, int] = {}

    def run_round(self, r: int, rec: Recorder, tracer=None) -> None:
        spec = self.rounds[r % PERIOD]
        key = f"r{r % PERIOD}"
        if r == 0:
            rec.deferred["v across windows"] = self.check_run
        for b, codes in enumerate(spec["blocks"]):
            rec.op(f"{key}.sweep{b}", self._sweep(codes), self._check_sweep)
        n0 = spec["v_from"]
        rec.op(
            f"{key}.v",
            lambda: [realizability.v(n) for n in range(n0, n0 + self.V_WINDOW)],
            self._check_v,
        )
        k = spec["k"]
        rec.op(f"{key}.witness", lambda: realizability.unbounded_witness(k), self._check_witness(rec, k))
        inputs = {"seed": spec["scenario_seed"], "count": 1, "window": self.WINDOW}
        rec.op(f"{key}.scenario", _cert_job(rec, "fp.scenario", inputs), self._check_scenario)

    def _sweep(self, codes):
        def call():
            return [
                machine.eval_steps(w, z, self.BUDGET) for w in codes for z in range(self.INPUTS)
            ]

        return call

    @staticmethod
    def _check_sweep(out) -> str:
        require(all(x is None or x >= 0 for x in out), "negative machine output")
        return ",".join("-" if x is None else str(x) for x in out)

    def _check_v(self, traces) -> str:
        prev = -1
        for t in traces:
            require(t.value < t.n, f"v({t.n}) = {t.value} is not below {t.n}")
            require(t.value >= prev, f"v decreases at {t.n}")
            require(t.qualifying_ks == tuple(range(t.value + 1)), f"qualifying ks of v({t.n})")
            prev = t.value
            self.v_seen[t.n] = t.value
        return canon([[t.n, t.value] for t in traces])

    @staticmethod
    def _check_witness(rec: Recorder, k: int):
        def check(n_k: int) -> str:
            require(n_k > k, f"witness for k={k} is not above k")
            # v(n_k) computes the next threshold as well, so run it untimed.
            rec.deferred[f"witness k={k}"] = lambda: require(realizability.v(n_k).value >= k, f"v(n_k) < {k}")
            body = n_k.to_bytes((n_k.bit_length() + 7) // 8, "big")
            return f"{k} {n_k.bit_length()} {hashlib.sha256(body).hexdigest()}"

        return check

    @staticmethod
    def _check_scenario(out) -> str:
        text = _cert_check(out)
        for table in out[2]["tables"]:
            require(all(fn <= n for n, fn in table), "scenario row with f(n) > n")
        return text

    def check_run(self) -> None:
        """v is non-decreasing across every window the run evaluated."""
        values = [self.v_seen[n] for n in sorted(self.v_seen)]
        require(all(a <= b for a, b in zip(values, values[1:])), "v decreases across windows")


# --- constructions -------------------------------------------------------

def _g(p: dict, n: int) -> int:
    ex = p["explicit"]
    return ex[n] if n < len(ex) else p["base"] + p["slope"] * (n - len(ex))


def _nodes(p: dict, depth: int) -> list[tuple[int, ...]]:
    ranges = [[_g(p, i)] if i < p["stem"] else range(_g(p, i) + 1) for i in range(depth)]
    return list(product(*ranges))


def _width(p: dict, depth: int) -> int:
    w = 1
    for i in range(p["stem"], depth):
        w *= _g(p, i) + 1
    return w


def _rand_open(rng: random.Random, max_stem: int, max_value: int, extra: int) -> dict:
    stem = rng.randrange(max_stem + 1)
    prefix = [rng.randrange(max_value + 1) for _ in range(stem)]
    cur = max(prefix, default=0) + rng.randrange(2)
    tail = []
    for _ in range(rng.randrange(extra + 1)):
        tail.append(cur)
        cur += rng.randrange(3)
    return {"stem": stem, "explicit": prefix + tail, "base": cur + rng.randrange(2), "slope": rng.randrange(1, 3)}


def _rand_term(rng: random.Random, p: dict, modulus: int) -> dict:
    rows = []
    for nd in _nodes(p, modulus):
        w = rng.randrange(modulus)
        rows.append({"node": list(nd), "value": nd[w], "witness": w})
    return {"modulus": modulus, "table": rows}


def _max_prefix(p: dict, upto: int) -> int:
    return max([_g(p, n) for n in range(upto)], default=0)


# Job sizes are drawn inside a band of an enumeration-size estimate.  The
# upper ends keep every job (at most about 10 ms on a 2-core VM) below the
# ladder's step-2 job (about 15 ms), which sets this workload's tail; a job
# above it would repeat every 16 rounds and become the tail of its seed.
BANDS = {"bound": (50, 500), "bound_at": (50, 800), "pseudo": (40, 200), "dc": (24, 120)}


def _in_band(kind: str, size: int) -> bool:
    lo, hi = BANDS[kind]
    return lo <= size <= hi


def _bound_job(rng: random.Random, positioned: bool) -> dict:
    kind = "bound_at" if positioned else "bound"
    while True:
        p = _rand_open(rng, 3, 5, 2)
        modulus = rng.randrange(1, 5)
        # Below the cut each piece branches level+1 ways per position up to
        # the modulus and checks every node at the modulus depth.
        cut = p["stem"] + (rng.randrange(1, 3) if positioned else 0)
        lo, hi = _max_prefix(p, cut), _g(p, cut)
        if lo > hi:
            continue
        level = rng.randint(lo, hi)
        if not _in_band(kind, _width(p, max(modulus, cut)) * (level + 1) ** max(0, modulus - cut)):
            continue
        job = {"p": p, "term": _rand_term(rng, p, modulus), "level": level}
        if positioned:
            job["at"] = cut
        return job


def _pseudo_job(rng: random.Random) -> dict:
    while True:
        p = _rand_open(rng, 2, 3, 1)
        stem = p["stem"]
        point = {"prefix": [_g(p, i) for i in range(stem)], "tail_value": rng.randrange(min(2, _g(p, stem)) + 1)}
        N = max(point["prefix"] + [point["tail_value"]])
        stages = rng.randrange(0, 4)
        M = stem
        while _g(p, M) < N + stages + (1 if stages == 0 else 0):
            M += 1
        modulus = rng.randrange(1, 3)
        if not _in_band("pseudo", _width(p, max(M, modulus)) * (stages + 1)):
            continue
        terms = [_rand_term(rng, p, modulus) for _ in range(stages + 1)]
        return {"p": p, "point": point, "stages": stages, "terms": terms}


def _dc_job(rng: random.Random) -> dict:
    while True:
        p = _rand_open(rng, 2, 2, 1)
        steps = rng.randrange(1, 3)
        M = p["stem"]
        while _g(p, M) < _g(p, p["stem"]) + steps:
            M += 1
        if not _in_band("dc", _width(p, M + 1) * steps):
            continue
        return {"p": p, "start": rng.randrange(4), "steps": steps, "oracle": "successor"}


def _schedule_job(rng: random.Random, unsound: bool) -> dict:
    q = _rand_open(rng, 2, 3, 1)
    stem = q["stem"]
    horizon = rng.randrange(2, 13)
    levels = {n: stem + rng.randrange(0, 6) for n in range(horizon + 1)}
    labels = []
    for n in range(horizon + 1):
        if unsound:
            nd = [_g(q, i) if i < stem else 0 for i in range(levels[n])]
        elif rng.random() < 0.5:
            nd = [_g(q, i) if i < stem else rng.randrange(_g(q, i) + 1) for i in range(levels[n])]
        else:
            continue
        labels.append({"n": n, "node": nd, "star": False})
    oracle = {"levels": [[n, levels[n]] for n in sorted(levels)], "labels": labels, "default_star": True}
    level = max(_max_prefix(q, stem), _g(q, stem))
    return {"q": q, "oracle": oracle, "level": level, "horizon": horizon}


def _rand_pset(rng: random.Random, unbounded: bool = False) -> dict:
    prefix = [rng.randrange(2) for _ in range(rng.randrange(0, 4))]
    d = rng.randrange(1, 5)
    period = [rng.randrange(2) for _ in range(d)]
    if unbounded and 1 not in period:
        period[rng.randrange(d)] = 1
    return {"prefix_bits": "".join(map(str, prefix)), "period_bits": "".join(map(str, period))}


def _rand_setopen(rng: random.Random) -> dict:
    while True:
        N = _rand_pset(rng)
        if "0" in N["period_bits"]:  # not cofinite, so the open is nonempty
            break
    return {"P": sorted({rng.randrange(10) for _ in range(rng.randrange(1, 4))}), "N": N}


def _set_job(rng: random.Random) -> dict:
    O = _rand_setopen(rng)
    while True:
        U = _rand_setopen(rng)
        period = [a == "1" or b == "1" for a, b in _aligned(O["N"], U["N"])]
        if not all(period):
            break
    ext = sorted(set(O["P"]) | {rng.randrange(30) for _ in range(rng.randrange(0, 4))})
    # Neighbourhoods from the canonical point P + complement(N), N read
    # periodically from position 0 as the set-open normal form does.
    n_prefix, n_period = O["N"]["prefix_bits"], O["N"]["period_bits"]
    d = len(n_period)
    X = [n for n in range(12) if n in O["P"] or n_period[(n - len(n_prefix)) % d] == "0"]
    decided = []
    for _ in range(rng.randrange(0, 4)):
        value = rng.choice(O["P"])
        decided.append({"neighborhood": sorted({value} | set(X[:3])), "value": value})
    return {"O": O, "U": U, "ext": ext, "decided": decided, "point": _rand_pset(rng, unbounded=True)}


def _aligned(a: dict, b: dict):
    """Period bits of two negative parts over one common cycle."""
    pa, pb = a["period_bits"], b["period_bits"]
    la, lb = len(a["prefix_bits"]), len(b["prefix_bits"])
    span = len(pa) * len(pb)
    return [(pa[(j - la) % len(pa)], pb[(j - lb) % len(pb)]) for j in range(span)]


class Constructions:
    """Certificate jobs over the open/term/fusion/escape layers, plus set jobs.

    Rounds also climb the fuse.dc ladder on one wide open, the construction
    whose node enumeration grows fastest with its step count: step 1 each
    round, step 2 every eighth round, step 3 in round 0 only.  Step 4
    (about 25 s) does not fit in a run.  BENCHMARK.json leaves this workload
    out: its timings spread past the bounds (see NOTES.md).
    """

    # Few sub-millisecond kinds (schedule, unsound, set), so the median op
    # falls inside the fusion jobs rather than on the boundary between them.
    MIX = (
        ("bound", 4), ("bound_at", 2), ("pseudo", 3), ("dc", 2),
        ("schedule", 2), ("unsound", 1), ("set", 2),
    )
    WALL_ROUNDS = 16 * PERIOD  # about 9 s
    LADDER_OPEN = {"stem": 2, "explicit": [3, 2], "base": 5, "slope": 1}
    LADDER_START = 3
    RUNG2_EVERY = 8
    OPERATION = {"bound": "fuse.bound", "bound_at": "fuse.bound", "pseudo": "fuse.pseudo", "dc": "fuse.dc"}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        make = {
            "bound": lambda: _bound_job(rng, False),
            "bound_at": lambda: _bound_job(rng, True),
            "pseudo": lambda: _pseudo_job(rng),
            "dc": lambda: _dc_job(rng),
            "schedule": lambda: _schedule_job(rng, False),
            "unsound": lambda: _schedule_job(rng, True),
            "set": lambda: _set_job(rng),
        }
        self.rounds = [
            [(kind, make[kind]()) for kind, count in self.MIX for _ in range(count)]
            for _ in range(PERIOD)
        ]
        self.inputs = self.rounds
        self.ladder_nodes: dict[int, int] = {}
        self.ladder_job_s: dict[int, float] = {}

    def run_round(self, r: int, rec: Recorder, tracer=None) -> None:
        key = f"r{r % PERIOD}"
        for i, (kind, job) in enumerate(self.rounds[r % PERIOD]):
            k = f"{key}.{i}.{kind}"
            if kind == "set":
                rec.op(k, self._set_call(job), self._check_set(job))
            elif kind == "unsound":
                rec.op(k, lambda job=job: certificates.build("as.schedule", job), None, refusal=ScheduleUnsound)
            elif kind == "schedule":
                rec.op(k, self._schedule_call(rec, job), self._check_schedule)
            else:
                rec.op(k, _cert_job(rec, self.OPERATION[kind], job), _cert_check)
        # Rung 2 is the workload's largest regular op and the same job each
        # time, so it gives the tail a steady class.  It runs every eighth
        # round, which keeps its count near 100 per 20 s: the tail then sits
        # inside its distribution, not at the extreme where host hiccups
        # decide it.  Rung 3 costs about 35 times rung 2 and runs once.
        self._ladder_step(rec, tracer, 1)
        if r % self.RUNG2_EVERY == 0:
            self._ladder_step(rec, tracer, 2)
        if r == 0:
            self._ladder_step(rec, tracer, 3)

    def _ladder_step(self, rec: Recorder, tracer, steps: int) -> None:
        job = {"p": self.LADDER_OPEN, "start": self.LADDER_START, "steps": steps, "oracle": "successor"}
        # A job builds once and replays once, so its node count is twice a build's.
        before = tracer.counter("seq_opens.compatible_nodes.nodes") if tracer else 0
        t0 = perf_counter()
        rec.op(f"ladder.{steps}", _cert_job(rec, "fuse.dc", job), _cert_check)
        if steps not in self.ladder_job_s:
            self.ladder_job_s[steps] = perf_counter() - t0
            self.ladder_nodes[steps] = tracer.counter("seq_opens.compatible_nodes.nodes") - before if tracer else 0

    @staticmethod
    def _schedule_call(rec: Recorder, job: dict):
        """A random oracle may be unsound; refusing it is a correct outcome."""

        def call():
            try:
                return _cert_job(rec, "as.schedule", job)()
            except ScheduleUnsound as e:
                return rec.refuse(e)

        return call

    @staticmethod
    def _check_schedule(out) -> str:
        return out if isinstance(out, str) else _cert_check(out)

    @staticmethod
    def _set_call(job: dict):
        def call():
            O = serialize.setopen_from_json(job["O"])
            U = serialize.setopen_from_json(job["U"])
            V = set_opens.intersect_set(O, U)
            ok, witness = set_opens.compatible_extension_check(O, job["ext"], V)
            decided = [(row["neighborhood"], row["value"]) for row in job["decided"]]
            bound = set_opens.sequential_bound(O, decided)
            X = serialize.pset_from_json(job["point"])
            steps = [min(set_opens.unbounded_step(X, n).P) for n in range(21)]
            return V, ok, witness, bound, steps

        return call

    @staticmethod
    def _check_set(job: dict):
        def check(out) -> str:
            V, ok, witness, bound, steps = out
            require(ok, "extension witness left one of the opens")
            require(bound == max(job["O"]["P"]), "sequential bound is not max P")
            require(all(j > n for n, j in enumerate(steps)), "unbounded step did not move up")
            return canon([serialize.setopen_to_json(V), serialize.pset_to_json(witness), bound, steps])

        return check


# --- cli_corpus ----------------------------------------------------------

class CliCorpus:
    """The criterion-9 command corpus plus verify of each certificate it prints.

    Each op is one `python -m boundlab` child; for the default seed the
    corpus is exactly the acceptance criterion's.  Other seeds vary the
    numeric arguments within the same cost range.
    """

    def __init__(self, seed: int, root: str, workdir: str):
        rng = random.Random(seed)
        default = seed == DEFAULT_SEED

        def pick(dflt: int, lo: int, hi: int) -> int:
            return dflt if default else rng.randint(lo, hi)

        self.root = root
        self.workdir = workdir
        base = pick(2, 2, 3)
        stages = pick(2, 1, 3)
        term = {"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(2)]}
        files = {
            "p.json": {"stem": 0, "explicit": [], "base": base, "slope": 1},
            "t.json": {"modulus": 1, "table": [{"node": [i], "value": i, "witness": 0} for i in range(base + 1)]},
            "job.json": {
                "p": {"stem": 0, "explicit": [], "base": 1, "slope": 1},
                "point": {"prefix": [], "tail_value": 0},
                "stages": stages,
                "terms": [term] * (stages + 1),
            },
            "q.json": {"stem": 0, "explicit": [], "base": 2, "slope": 1},
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
        for name, payload in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload))
        named = [
            ["fp", "v", "--max-n", str(pick(25, 20, 30))],
            ["fp", "witness", "--k", str(pick(6, 4, 8))],
            ["--seed", str(pick(7, 0, 999)), "fp", "scenario", "--count", "3", "--window", "6"],
            ["seq", "intersect", "p.json", "q.json"],
            ["set", "seqbound", "seqjob.json"],
            ["fuse", "bound", "p.json", "t.json", "--level", str(pick(1, 0, base))],
            ["fuse", "pseudo", "job.json"],
            ["fuse", "dc", "p.json", "--start", str(pick(2, 0, 4)), "--steps", str(pick(3, 2, 3))],
            ["as", "schedule", "q.json", "oracle.json", "--level", "1", "--horizon", str(pick(6, 4, 6))],
            ["ext", "az", "(apply arg (const 1))", "--support-bound", str(pick(4, 3, 4))],
            ["ext", "fbeta", "(succ arg)", "--m", str(pick(2, 1, 2)), "--value-bound", "2"],
        ]
        self.commands = [[os.path.join(workdir, a) if a in files else a for a in argv] for argv in named]
        self.inputs = (files, named)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.in_process = False

    CERTIFICATES = 5
    WALL_ROUNDS = 6  # about 14 s of children

    def run_round(self, r: int, rec: Recorder, tracer=None) -> None:
        certs: list[str] = []
        for i, argv in enumerate(self.commands):
            rec.op(f"cmd{i}", lambda argv=argv: self._invoke(argv), self._check_command(certs))
        if len(certs) != self.CERTIFICATES and not rec.done():
            rec.attempted += 1
            rec.fail("corpus", f"{len(certs)} certificates printed, want {self.CERTIFICATES}")
        for i, text in enumerate(certs):
            path = os.path.join(self.workdir, f"cert{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            rec.op(f"verify{i}", self._verify_call(rec, path), self._check_verify)

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            # Each command is a fresh process in real use, so its fp caches
            # start empty; keep them from warming across in-process calls.
            cold_fp_lab()
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "boundlab", *argv],
            capture_output=True, text=True, cwd=self.root, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout

    def _verify_call(self, rec: Recorder, path: str):
        return lambda: rec.verdict(self._invoke, ["verify", path])

    @staticmethod
    def _check_command(certs: list):
        def check(out) -> str:
            code, stdout = out
            require(code == 0, f"exit code {code}")
            require(stdout.count("\n") == 1, "stdout is not one line")
            payload = json.loads(stdout)
            if isinstance(payload, dict) and payload.get("format") == certificates.CERT_FORMAT:
                certs.append(stdout)
            return stdout

        return check

    @staticmethod
    def _check_verify(out) -> str:
        code, stdout = out
        require(code == 0, f"verify exit code {code}")
        require(json.loads(stdout).get("ok") is True, "certificate rejected")
        return stdout


def make(name: str, seed: int, root: str, scratch: str):
    """Generate a workload's inputs; scratch is a directory the run may write."""
    if name == "ext_probe":
        return ExtProbe(seed)
    if name == "fp_lab":
        return FpLab(seed)
    if name == "constructions":
        return Constructions(seed)
    if name == "cli_corpus":
        return CliCorpus(seed, root, scratch)
    raise ValueError(f"unknown workload {name!r}")
