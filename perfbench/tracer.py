"""Spans and counters around boundlab's public functions, from outside.

Each target is wrapped by rebinding its module attribute and every
`from .x import name` binding of it in the other boundlab modules, so
internal calls such as `_eval_node -> decode` are traced too.  A span is
(name, start, end, parent); its self time is its duration minus the time its
child spans cover.  Finished spans are folded into per-name and per-edge
totals as they close: the sweeps make millions of spans, and keeping each
one would cost more memory than the workload itself.  Only the stack of
open spans is kept.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

from boundlab.errors import BudgetExhausted, ScheduleUnsound

_ROOT = "run"


class Tracer:
    def __init__(self):
        self.stack: list[list] = [[_ROOT, 0.0]]  # [name, child time]
        self.spans: dict[str, list] = {}  # name -> [spans, total s, self s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [spans, total s]
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def _close(self, frame: list, duration: float) -> None:
        self.stack.pop()
        name = frame[0]
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        parent = self.stack[-1]
        parent[1] += duration
        edge = self.edges.get((parent[0], name))
        if edge is None:
            edge = self.edges[(parent[0], name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration

    def wrap(self, name: str, fn, on_result=None, refusals=()):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(name + ".calls")
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except refusals as e:
                self._close(frame, perf_counter() - start)
                self.count(f"{name}.refused.{type(e).__name__}")
                raise
            except BaseException:
                self._close(frame, perf_counter() - start)
                raise
            self._close(frame, perf_counter() - start)
            if on_result is not None:
                on_result(self, args, out)
            return out

        return traced

    def wrap_generator(self, name: str, fn, item_counter: str):
        """One span per item produced, so the consumer's time stays its own."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(name + ".calls")
            gen = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(frame, perf_counter() - start)
                    return
                except BaseException:
                    self._close(frame, perf_counter() - start)
                    raise
                self._close(frame, perf_counter() - start)
                self.count(item_counter)
                yield item

        return traced

    def snapshot(self) -> dict:
        return {
            "spans": {k: {"spans": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(self.spans.items())},
            "edges": [
                {"parent": p, "child": c, "spans": v[0], "total_s": v[1]}
                for (p, c), v in sorted(self.edges.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def _bits(tracer, name, value):
    tracer.count(name, value.bit_length())


def _on_decode(tracer, args, out):
    _bits(tracer, "machine.decode.in_bits", args[0])
    if tracer.stack[-1][0] != "machine.decode":
        # An index handed in from outside decode, not one of its own sub-codes.
        tracer.count("machine.decode.outer_calls")
        _bits(tracer, "machine.decode.outer_in_bits", args[0])


def _on_encode(tracer, args, out):
    _bits(tracer, "machine.encode.out_bits", out)


def _on_eval_profile(tracer, args, out):
    if out is not None:
        tracer.count("machine.eval_profile.converged")
        tracer.count("machine.eval_profile.steps", out[1])


def _on_dumps(tracer, args, out):
    tracer.count("serialize.dumps.bytes", len(out.encode()))


def _on_escape_trace(tracer, args, out):
    tracer.count("antispecker.stages", len(out["frames"]))


# (module, attribute path, span name, result hook, refusals counted at the boundary)
TARGETS = [
    ("machine", "decode", "machine.decode", _on_decode, ()),
    ("machine", "unpair", "machine.unpair", None, ()),
    ("machine", "encode", "machine.encode", _on_encode, ()),
    ("machine", "pair", "machine.pair", None, ()),
    ("machine", "eval_profile", "machine.eval_profile", _on_eval_profile, ()),
    ("machine", "eval_steps", "machine.eval_steps", None, ()),
    ("realizability", "FiniteSupportFn.index", "realizability.FiniteSupportFn.index", None, ()),
    ("realizability", "enumerate_Az", "realizability.enumerate_Az", None, (BudgetExhausted,)),
    ("realizability", "apply_functional", "realizability.apply_functional", None, ()),
    ("realizability", "ConvergenceCache.run", "realizability.ConvergenceCache.run", None, ()),
    ("realizability", "certified_pairs", "realizability.certified_pairs", None, ()),
    ("realizability", "v", "realizability.v", None, ()),
    ("realizability", "unbounded_witness", "realizability.unbounded_witness", None, ()),
    ("realizability", "pseudobound_scenario", "realizability.pseudobound_scenario", None, ()),
    ("seq_opens", "split", "seq_opens.split", None, ()),
    ("seq_opens", "restrict_by_seq", "seq_opens.restrict_by_seq", None, ()),
    ("seq_opens", "min_schedule", "seq_opens.min_schedule", None, ()),
    ("seq_opens", "intersect", "seq_opens.intersect", None, ()),
    ("seq_opens", "member", "seq_opens.member", None, ()),
    ("terms", "decide_term", "terms.decide_term", None, ()),
    ("terms", "amalgamate", "terms.amalgamate", None, ()),
    ("terms", "decide_guarded", "terms.decide_guarded", None, ()),
    ("fusion", "bound_range_term", "fusion.bound_range_term", None, ()),
    ("fusion", "bound_range_term_at", "fusion.bound_range_term_at", None, ()),
    ("fusion", "fuse_pseudobound", "fusion.fuse_pseudobound", None, ()),
    ("fusion", "dc_chain", "fusion.dc_chain", None, ()),
    ("fusion", "extract_witness_at", "fusion.extract_witness_at", None, ()),
    ("antispecker", "escape_trace", "antispecker.escape_trace", _on_escape_trace, (ScheduleUnsound,)),
    ("set_opens", "intersect_set", "set_opens.intersect_set", None, ()),
    ("set_opens", "compatible_extension_check", "set_opens.compatible_extension_check", None, ()),
    ("set_opens", "sequential_bound", "set_opens.sequential_bound", None, ()),
    ("set_opens", "unbounded_step", "set_opens.unbounded_step", None, ()),
    ("serialize", "dumps", "serialize.dumps", _on_dumps, ()),
    ("certificates", "build", "certificates.build", None, ()),
    ("certificates", "verify", "certificates.verify", None, ()),
    ("cli", "main", "cli.main", None, ()),
]


def _rebind(orig, wrapped) -> None:
    """Point every boundlab module-level name bound to orig at wrapped."""
    for modname, mod in list(sys.modules.items()):
        if modname != "boundlab" and not modname.startswith("boundlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every target; call once, after importing boundlab."""
    import boundlab.cli  # noqa: F401  (loads every module the targets live in)

    for modname, path, name, hook, refusals in TARGETS:
        mod = sys.modules["boundlab." + modname]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, hook, refusals)
        setattr(owner, attr, wrapped)
        if owner is mod:
            _rebind(orig, wrapped)

    seq_opens = sys.modules["boundlab.seq_opens"]
    orig = seq_opens.compatible_nodes
    _rebind(orig, tracer.wrap_generator("seq_opens.compatible_nodes", orig, "seq_opens.compatible_nodes.nodes"))

    # The *_from_json readers share one span name: together they are the
    # serialize layer's decoding cost.
    serialize = sys.modules["boundlab.serialize"]
    for attr, orig in list(vars(serialize).items()):
        if attr.endswith("_from_json") and inspect.isfunction(orig):
            _rebind(orig, tracer.wrap("serialize.from_json", orig))
