"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: bad input data (2), violated
operation preconditions (3), solver breakdowns (4). Verification *failures*
are ordinary return values, not exceptions.
"""


class InfosaleError(Exception):
    """Base class for all package-specific errors."""


class InputError(InfosaleError):
    """Malformed or inconsistent input data (files, JSON payloads, labels)."""


class ProtocolInvalidError(InputError):
    """A protocol tree that violates a structural rule (e.g. the seller's
    cumulative payout exceeding their budget on a reachable path)."""


class PreconditionError(InfosaleError):
    """An operation was called outside its stated domain (e.g. a solver that
    requires signal/type independence run on a correlated instance)."""


class SolverFailure(InfosaleError):
    """The LP backend returned an unusable status or a solution that fails
    the independent feasibility re-check. `status` says which: "infeasible",
    "unbounded", "recheck" (the re-check failed) or "error"."""

    def __init__(self, *args, status: str = "error"):
        super().__init__(*args)
        self.status = status
