"""Exception types shared across the package."""


class CappedProjError(Exception):
    """Base class for all library errors."""


class InvalidInputError(CappedProjError, ValueError):
    """Input vector or parameter is malformed (non-finite entries, bad cap, ...)."""


class InfeasibleError(CappedProjError, ValueError):
    """The requested sum target makes the feasible set empty."""


class InconsistentCandidateError(CappedProjError, ValueError):
    """A candidate solution does not match its claimed zero/interior/one split."""


class CapacityError(CappedProjError, ValueError):
    """Problem size exceeds what the brute-force oracle can enumerate."""
