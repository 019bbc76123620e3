"""Shared exception types.

Every failure mode that crosses a module boundary gets a named class here so
the CLI can map it to a stable exit code: cli._EXIT_CODES holds the one
table of error classes, exit codes and message labels.
"""


class PsQuintetError(Exception):
    """Base class for all package errors."""


class SchemaError(PsQuintetError):
    """Config document is malformed. Carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class AdmissibilityError(PsQuintetError):
    """Parameters outside the admissible range for the requested k."""


class DegenerateRatio(PsQuintetError):
    """lambda1/lambda2 has no usable convergent above the requested floor."""


class BudgetExceeded(PsQuintetError):
    """The run's time budget (budgets.time_s) ran out."""


class CapacityExceeded(PsQuintetError):
    """A size limit would be passed: the search's memory budget
    (budgets.memory_mb), its ceiling of 10^7 candidate quintuples, the
    sieve's span, or brute_oracle's tuple cap."""


class EmptyWindow(PsQuintetError):
    """A prime window needed by the search contains no primes."""


class SpecMismatch(PsQuintetError):
    """A table was built with different parameters than the sum asks for."""


class IoError(PsQuintetError):
    """Filesystem failure while emitting outputs."""
