"""The two labs: the step-threshold function v and functional probing."""

import random
import signal

import pytest

from boundlab.errors import (
    BadCertificate,
    BudgetExhausted,
    NoStabilization,
)
from boundlab.machine import (
    ARG,
    E0,
    SUCC,
    NestingCapped,
    TotalityCertificate,
    alias_certificate,
    const,
    decode,
    encode,
    eval_outcome,
    eval_profile,
    node,
)
from boundlab.realizability import (
    ZERO_FN,
    ConvergenceCache,
    FiniteSupportFn,
    VTrace,
    apply_functional,
    enumerate_Az,
    least_distinguishing_fn,
    make_F_beta,
    pseudobound_scenario,
    random_scenario,
    seq_continuity_bound,
    unbounded_witness,
    v,
)

from oracles import brute_v, cold_fp_lab, v_reference, witness_reference

BIG = 10**6


def test_v_small_traces():
    assert v(0) == VTrace(0, (), 0)
    assert v(1) == VTrace(1, (0,), 0)
    assert v(2) == VTrace(2, (0, 1), 1)
    assert v(3).value == 2
    with pytest.raises(ValueError):
        v(-1)


def test_v_golden_values():
    # frozen after first computation; the brute oracle below agrees
    assert v(50).value == 5
    assert v(200).value == 9
    assert v(144).value == 8
    assert v(145).value == 9


def test_v_agrees_with_brute_oracle_on_boundaries():
    for n in list(range(15)) + [41, 42, 60, 61, 85, 86, 113, 144, 145, 146]:
        assert v(n).value == brute_v(n), n


def test_v_trace_invariants():
    for n in range(0, 120, 7):
        tr = v(n)
        assert tr.value == max(tr.qualifying_ks, default=0)
        assert tr.qualifying_ks == tuple(range(len(tr.qualifying_ks)))
        if n >= 1:
            assert tr.value < n


def test_v_monotone():
    last = 0
    for n in range(201):
        cur = v(n).value
        assert cur >= last
        last = cur


def test_witness_examples():
    assert unbounded_witness(0) == 1
    assert unbounded_witness(1) == 2
    for k in range(13):
        n_k = unbounded_witness(k)
        assert n_k > k
        assert v(n_k).value >= k
    assert unbounded_witness(15).bit_length() == 5201


def test_pseudobound_constant_pair_program():
    x = node("pair", node("fst", node("pair", E0, ARG)), E0)
    cert = alias_certificate(x)
    assert cert is not None and cert.valid()
    table = pseudobound_scenario(x, cert.derivation, 6)
    assert [fn for _, fn in table] == [0] * 6
    assert [n for n, _ in table] == list(
        range(cert.derivation + 1, cert.derivation + 7)
    )


def test_pseudobound_identity_first_component():
    x = node("pair", ARG, E0)
    assert encode(x) == 28
    cert = alias_certificate(x)
    assert cert == TotalityCertificate(1108, 28)
    table = pseudobound_scenario(x, 1108, 5)
    for n, fn in table:
        assert fn == v(n).value == 9
        assert fn <= n


def test_pseudobound_rejects_bad_certificates():
    x = node("pair", ARG, E0)
    with pytest.raises(BadCertificate):
        pseudobound_scenario(x, 1107, 3)  # certifies some other program
    with pytest.raises(BadCertificate):
        pseudobound_scenario(x, 28, 3)  # valid but not strictly above


def test_pseudobound_budget_cap():
    x = node("pair", ARG, node("primrec", ARG, ARG))
    cert = alias_certificate(x)
    with pytest.raises(BudgetExhausted):
        pseudobound_scenario(x, cert.derivation, 1, budget_cap=10**5)


def test_random_scenarios_never_violate_the_bound():
    rng = random.Random(701)
    for _ in range(25):
        x, cert = random_scenario(rng)
        assert cert.valid() and cert.derivation > cert.index
        table = pseudobound_scenario(x, cert.derivation, 40)
        assert len(table) == 40
        for n, fn in table:
            assert fn <= n


def test_finite_support_fn_semantics():
    assert FiniteSupportFn((1, 0, 2, 0, 0)) == FiniteSupportFn((1, 0, 2))
    g = FiniteSupportFn((3, 0, 1))
    assert [g.value(i) for i in range(5)] == [3, 0, 1, 0, 0]
    assert ZERO_FN.program() == E0
    assert ZERO_FN.index() == 1
    with pytest.raises(ValueError):
        FiniteSupportFn((-1,))
    rng = random.Random(702)
    for _ in range(40):
        vals = tuple(rng.randrange(0, 4) for _ in range(rng.randrange(0, 5)))
        fn = FiniteSupportFn(vals)
        prog = fn.program()
        for i in range(len(fn.values) + 3):
            assert eval_profile(prog, i, BIG)[0] == fn.value(i)


def test_az_of_constant_functional():
    assert enumerate_Az(E0, 4, 3, BIG) == {0}


def test_az_of_single_probe_functionals():
    looks_at_0 = node("apply", ARG, const(0))
    looks_at_1 = node("apply", ARG, const(1))
    assert enumerate_Az(looks_at_0, 4, 3, BIG) == {0}
    assert enumerate_Az(looks_at_1, 4, 3, BIG) == {0, 1}


def test_az_of_threshold_functionals():
    for m in range(4):
        F = make_F_beta(SUCC, m)
        assert enumerate_Az(F, m + 3, 2, BIG) == set(range(m + 2))


def test_az_budget_exhaustion():
    diverging = node("apply", const(11), const(11))
    with pytest.raises(BudgetExhausted):
        enumerate_Az(diverging, 2, 2, 10**4)


def test_least_distinguishing_fn_dovetail_order():
    looks_at_1 = node("apply", ARG, const(1))
    g = least_distinguishing_fn(looks_at_1, 0, 4, 3, BIG)
    assert g == FiniteSupportFn((0, 1))
    assert least_distinguishing_fn(looks_at_1, 2, 4, 3, BIG) is None


def test_make_F_beta_examples():
    m = 2
    zero_beta = make_F_beta(E0, m)
    for vals in ((), (0, 0, 1), (1, 2, 3, 3)):
        assert apply_functional(zero_beta, FiniteSupportFn(vals), BIG) == 0

    F = make_F_beta(SUCC, m)
    probe3 = FiniteSupportFn((0,) * (m + 1) + (3,))
    assert apply_functional(F, probe3, BIG) == 3
    vanishing = FiniteSupportFn((5, 5, 5))  # value 0 at position m+1
    assert apply_functional(F, vanishing, BIG) == 0


def test_seq_continuity_bound_constant():
    z = const(5)
    gs = [FiniteSupportFn((0,) * n + (1,)).program() for n in range(4)]
    assert seq_continuity_bound(z, gs, ZERO_FN.program(), BIG) == 0


def test_seq_continuity_bound_threshold_family():
    for m in (0, 1, 2):
        z = make_F_beta(SUCC, m)
        gs = [FiniteSupportFn((0,) * n + (1,)).program() for n in range(m + 5)]
        assert seq_continuity_bound(z, gs, ZERO_FN.program(), BIG) == m + 2


def test_seq_continuity_bound_no_stabilization():
    m = 1
    z = make_F_beta(SUCC, m)
    gs = [FiniteSupportFn((0,) * n + (1,)).program() for n in range(m + 2)]
    with pytest.raises(NoStabilization):
        seq_continuity_bound(z, gs, ZERO_FN.program(), BIG)


def test_nesting_cap_ends_run_to_convergence_at_once():
    chain = ARG
    for _ in range(400):
        chain = node("succ", chain)
    w = encode(chain)
    assert eval_profile(chain, 0, 10**9) is None

    def expire(signum, frame):
        raise TimeoutError("run_to_convergence kept raising the budget")

    cache = ConvergenceCache()
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(BudgetExhausted, match="nesting"):
            cache.run_to_convergence(w, 0)
        with pytest.raises(BudgetExhausted, match="nesting"):
            cache.run_to_convergence(w, 0, cap=10**6)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert cache.run(w, 0, 10**12) is None
    assert cache.run_to_convergence(encode(SUCC), 4) == (6, 5)


def test_a_capped_run_is_one_run_at_the_cap():
    # (primrec arg arg) on 8 converges in 424 steps: within a 1000-step cap,
    # not within a 424-step one.
    assert ConvergenceCache().run_to_convergence(9, 8, cap=1000) == (424, 5695183504492614029263270)
    with pytest.raises(BudgetExhausted, match="424-step cap"):
        ConvergenceCache().run_to_convergence(9, 8, cap=424)
    cache = ConvergenceCache()
    assert cache.run_to_convergence(9, 8) == (424, 5695183504492614029263270)
    with pytest.raises(BudgetExhausted):
        cache.run_to_convergence(9, 8, cap=424)


def _refusal(cache, w, cap):
    with pytest.raises(BudgetExhausted) as refused:
        cache.run_to_convergence(w, 8, cap)
    return str(refused.value)


def test_a_nesting_refusal_reads_as_a_fresh_run_whatever_the_cache_saw():
    # The first component, (primrec arg arg) on 8, charges 424 steps; the
    # second nests 400 deep, so only budgets above 424 reach the nesting cap.
    deep = ARG
    for _ in range(400):
        deep = node("succ", deep)
    w = encode(node("pair", node("primrec", ARG, ARG), deep))
    with pytest.raises(NestingCapped) as capped:
        eval_outcome(decode(w), 8, 10**6)
    assert capped.value.charge == 424
    caps = [100, 424, 425, 10**6, None]
    fresh = [_refusal(ConvergenceCache(), w, cap) for cap in caps]
    assert fresh[:2] == [f"program {w} on 8 did not converge within the {cap}-step cap" for cap in caps[:2]]
    assert fresh[2:] == [f"program {w} on 8 needs more nesting than the machine allows"] * 3
    for first in caps:
        warm = ConvergenceCache()
        _refusal(warm, w, first)
        assert [_refusal(warm, w, cap) for cap in caps] == fresh, first
        assert [_refusal(warm, w, cap) for cap in reversed(caps)] == fresh[::-1], first


def _value_of_v(n, cap):
    return v(n, cap).value


def _outcome(call, arg, cap):
    try:
        return call(arg, cap)
    except BudgetExhausted as e:
        return ("BudgetExhausted", str(e))


def test_capped_fp_results_depend_only_on_their_arguments():
    """Each call gives in a warm lab, after other capped and uncapped calls,
    what it gives in a cold one, and refuses exactly where a fresh
    eval_outcome of some certified run it waits for takes cap steps or more."""
    rng = random.Random(909)
    calls = []
    for _ in range(120):
        cap = None if rng.random() < 0.2 else rng.randint(1, 3000)
        if rng.random() < 0.5:
            calls.append((unbounded_witness, rng.randint(0, 15), cap))
        else:
            calls.append((_value_of_v, rng.randint(0, 150), cap))
    reference = {unbounded_witness: witness_reference, _value_of_v: v_reference}
    try:
        cold = []
        for call in calls:
            cold_fp_lab()
            cold.append(_outcome(*call))
        for step in (1, -1):
            cold_fp_lab()
            warm = [_outcome(*call) for call in calls[::step]]
            assert warm[::step] == cold
    finally:
        cold_fp_lab()
    for (call, arg, cap), got in zip(calls, cold):
        want = reference[call](arg, cap)
        if want is None:
            assert got[0] == "BudgetExhausted", (call.__name__, arg, cap)
        else:
            assert got == want, (call.__name__, arg, cap)


def test_witness_rejects_a_negative_k():
    with pytest.raises(ValueError):
        unbounded_witness(-1)
    v(200)
    for cap in (None, 10):
        with pytest.raises(ValueError):
            unbounded_witness(-1, cap)


def test_pseudobound_scenario_caps_the_runs_inside_v():
    # pair(arg, 0) itself runs in a few steps, but v of its outputs waits
    # for certified runs of up to 833 steps.
    with pytest.raises(BudgetExhausted):
        pseudobound_scenario(node("pair", ARG, E0), 1108, 5, budget_cap=40)
    assert pseudobound_scenario(node("pair", ARG, E0), 1108, 5, budget_cap=834) == [
        (n, 9) for n in range(1109, 1114)
    ]
