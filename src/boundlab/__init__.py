"""boundlab: a symbolic workbench for boundedness counterexamples.

Basic opens over bounded sequence spaces, good-extension fusion, opens
over eventually periodic sets, staged escape schedules, and two
counterexample labs over a small indexed machine — all with replayable
JSON certificates and a command-line surface.

The public names below are resolved on first use (PEP 562), so
``import boundlab`` loads no layer until one of its names is asked for.
"""

from importlib import import_module as _import_module

# defining module -> the public names it exports through the package
_EXPORTS = {
    "errors": """
        AmbiguousAmalgamation BadCandidate BadCertificate
        BudgetExhausted DomainError EmptyOpenError IncompatibleSeq
        InconsistentTermFamily NoStabilization NotAPoint NotASubopen
        OracleNotTotal PointNotInOpen ScheduleUnsound SplitOutOfRange
        TermNotTotal TheoremViolated
    """,
    "seq_opens": """
        EMPTY BasicOpen BoundSchedule Point canonical_point
        compatible_nodes force_value_into_range forces_G_value intersect
        is_empty make_open member restrict_by_seq schedule_of split
        subset
    """,
    "terms": """
        DecisionTerm GuardedTerm RangeTerm TermSequence amalgamate
        constant_term decide_guarded decide_term identity_term
        is_pseudobounded_violation range_term_from restrict_term
    """,
    "fusion": """
        bound_range_term bound_range_term_at dc_chain extract_witness
        extract_witness_at fuse_pseudobound
    """,
    "set_opens": """
        PeriodicSet SetOpen canonical_set_point
        compatible_extension_check finite_set forces_in_generic
        intersect_set member_set sequential_bound set_open subset_open
        unbounded_step
    """,
    "antispecker": """
        BoundedTree StarOracle all_star_oracle build_escape_schedule
        enumerate_level escape_trace nonstar_nodes
    """,
    "machine": """
        Expr TotalityCertificate alias_certificate apply_free
        certificate_for check_proof decode encode eval_profile
        eval_steps format_program parse_program
    """,
    "realizability": """
        FiniteSupportFn VTrace enumerate_Az make_F_beta
        pseudobound_scenario seq_continuity_bound unbounded_witness v
    """,
    "certificates": "build verify",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
