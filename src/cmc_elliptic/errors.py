"""Exception hierarchy shared by all modules.

Every library-raised error derives from :class:`CmcError` so callers (and the
CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class CmcError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CmcError):
    """Invalid command / flag combination at the CLI level."""


class DomainError(CmcError):
    """Argument outside the mathematical domain of the operation."""


class EmptyDomainError(DomainError):
    """The requested configuration has an empty parameter domain."""


class AccuracyError(CmcError):
    """A numeric routine could not reach the requested accuracy."""


class RangeError(CmcError):
    """Input magnitude exceeds the representable floating-point range."""


class UnsupportedCaseError(CmcError):
    """The operation is only defined for specific parameter values."""


class PoleError(CmcError):
    """Evaluation requested at (or across) a pole."""


class NearPoleError(PoleError):
    """Evaluation too close to a pole for a reliable value."""


class BranchError(CmcError):
    """Input lies off the supported real branch."""


class SingularError(CmcError):
    """Singular configuration: the required elliptic data degenerates."""
