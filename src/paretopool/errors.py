"""Exception types shared across the package.

Every exception raised on purpose derives from ParetopoolError so callers
can catch library failures without swallowing genuine bugs.
"""

from __future__ import annotations


class ParetopoolError(Exception):
    """Base class for all deliberate failures raised by this package."""


class DomainError(ParetopoolError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(ParetopoolError, ArithmeticError):
    """A derivative-based quantity is undefined at the requested point."""


class UnsupportedOperationError(ParetopoolError):
    """The operation is not defined for this input (for example a
    derivative index of a tabulated distortion)."""


class ProfileMismatchError(ParetopoolError, ValueError):
    """A loss profile does not match the state count of its space."""


class InvalidWeightsError(ParetopoolError, ValueError):
    """Welfare weights are not a rule name or one valid proportion per agent."""


class ResourceLimitError(ParetopoolError, RuntimeError):
    """An enumeration would exceed its configured size cap."""


class SolverError(ParetopoolError, RuntimeError):
    """The underlying LP solver failed to return an optimal solution."""


class FormatError(ParetopoolError, ValueError):
    """Input data does not follow the documented CSV grammar."""


class ConfigError(ParetopoolError, ValueError):
    """A run configuration file is malformed or inconsistent."""


class ParetopoolWarning(UserWarning):
    """Base class for the warnings this package issues."""


class NoCessionWarning(ParetopoolWarning):
    """Emitted when a centralized contract cedes nothing to the insurer."""
