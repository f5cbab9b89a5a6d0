"""Exception types shared across the package."""


class PcikitError(Exception):
    """Base class for all errors raised by pcikit."""


class GroupSpecError(PcikitError, ValueError):
    """Malformed or invalid group description."""


class SpecMismatchError(PcikitError, ValueError):
    """Operands belong to different groups or cyclotomic moduli."""


class InvariantError(PcikitError, ValueError):
    """An input violates a documented precondition or structural invariant."""


class InconsistencyError(PcikitError, RuntimeError):
    """An internal cross-check failed; the computed data contradicts itself."""


class VerificationError(PcikitError, RuntimeError):
    """A formula disagreed with the exhaustive count that certifies it."""


class CapExceededError(PcikitError, ValueError):
    """The requested group is larger than the configured order cap."""
