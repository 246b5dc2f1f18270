"""Domain errors shared across the workbench, and the test for naturals.

Every error carries a stable ``code`` string; the CLI maps any DomainError
to exit status 2 with a ``{"code", "message"}`` JSON body.
"""

from __future__ import annotations


def is_nat(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class DomainError(Exception):
    code = "DomainError"

    def to_json(self) -> dict:
        return {"code": self.code, "message": str(self)}


class EmptyOpenError(DomainError):
    code = "EmptyOpen"


class SplitOutOfRange(DomainError):
    code = "SplitOutOfRange"


class IncompatibleSeq(DomainError):
    code = "IncompatibleSeq"


class TermNotTotal(DomainError):
    code = "TermNotTotal"


class AmbiguousAmalgamation(DomainError):
    code = "AmbiguousAmalgamation"


class BadCandidate(DomainError):
    code = "BadCandidate"


class PointNotInOpen(DomainError):
    code = "PointNotInOpen"


class OracleNotTotal(DomainError):
    code = "OracleNotTotal"


class NotAPoint(DomainError):
    code = "NotAPoint"


class NotASubopen(DomainError):
    code = "NotASubopen"


class InconsistentTermFamily(DomainError):
    code = "InconsistentTermFamily"


class ScheduleUnsound(DomainError):
    code = "ScheduleUnsound"


class BudgetExhausted(DomainError):
    code = "BudgetExhausted"


class BadCertificate(DomainError):
    code = "BadCertificate"


class TheoremViolated(DomainError):
    code = "TheoremViolated"


class NoStabilization(DomainError):
    code = "NoStabilization"
