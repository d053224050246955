"""Exception types shared across the toolkit.

Each carries the process exit code the CLI returns for it, as exit_code:
configuration problems exit with 2, solver failures (divergence, blow-up,
no convergence) with 3 and resolution problems (aliasing, truncation,
under-resolved data) with 4.
"""

import math
import numbers

import numpy as np


class ShearVortexError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ConfigError(ShearVortexError):
    """Invalid run configuration. Carries line/column when parsed from text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class GridError(ShearVortexError):
    """Invalid grid specification or mismatched grids."""


class UnsupportedOrderError(ShearVortexError):
    """Requested derivative or weight order outside the supported range."""


class DomainError(ShearVortexError):
    """Argument outside the mathematical domain of an operation."""


def check_positive(value, what):
    """Raise DomainError unless value is a finite real number > 0; NaN,
    integers too large for a float (read by check_real) and non-numbers
    such as the string "1" or the complex 1j fail."""
    if not 0.0 < check_real(value, what) < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value!r}")


def check_real(value, what):
    """value as a float if it is a real number; raise DomainError for
    non-numbers such as the string "1" or the complex 1j. An integer too
    large for a float becomes an infinity, which range checks reject."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_time(value, what):
    """value as a float if it is a finite real number >= 0; raise
    DomainError for negative times, NaN, infinities and non-numbers."""
    t = check_real(value, what)
    if not 0.0 <= t < math.inf:
        raise DomainError(f"{what} must be finite and nonnegative, got {value!r}")
    return t


def check_reals(value, what):
    """value, a real number or an array of them, as a float64 array, with
    no copy or scan of one already; raise DomainError for strings, bytes,
    complex numbers and objects, which a float conversion would parse or
    drop the imaginary part of. A scalar is read as check_real reads it."""
    a = np.asarray(check_real(value, what) if isinstance(value, numbers.Real)
                   else value)
    if a.dtype.kind not in "biuf":
        raise DomainError(f"{what} must be real, got {value!r}")
    return a.astype(np.float64, copy=False)


def check_times(value, what):
    """value, a real number or an array of them, read by check_reals, if
    every entry is finite and >= 0; raise DomainError for negative, NaN
    and infinite entries too."""
    a = check_reals(value, what)
    if not np.all((0.0 <= a) & (a < np.inf)):
        raise DomainError(f"{what} must be finite and nonnegative, got {value!r}")
    return a


def check_order(value, what):
    """value as an int if it is an integral number (2 and 2.0 alike); raise
    DomainError for fractions, NaN, infinities and non-numbers such as the
    string "2". The range of orders an operation supports is checked by
    the operation."""
    try:
        v = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        v = math.nan
    if not v.is_integer():
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(v)


class AliasingError(ShearVortexError):
    """Significant spectral content moved across the resolvable band."""

    exit_code = 4

    def __init__(self, message, mode=None):
        self.mode = mode  # offending (xi, eta) pair, if identified
        super().__init__(message)


class TruncationError(ShearVortexError):
    """Field not localized inside its box; carries the measured tail."""

    exit_code = 4

    def __init__(self, message, tail=None):
        self.tail = tail
        super().__init__(message)


class ResolutionError(ShearVortexError):
    """Requested feature cannot be represented on the given grid."""

    exit_code = 4


class FitError(ShearVortexError):
    """Exponent fit rejected (too few samples in the window)."""


class SolverError(ShearVortexError):
    """Base class for iteration/integration failures."""

    exit_code = 3


class DivergenceError(SolverError):
    """Fixed-point iteration diverging. Carries the measured ratios."""

    def __init__(self, message, ratios=None):
        self.ratios = ratios
        super().__init__(message)


class NoConvergenceError(SolverError):
    """Iteration exhausted its budget without meeting the tolerance."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class BlowUpError(SolverError):
    """Time integration detected unbounded growth; keeps the last good state."""

    def __init__(self, message, last_state=None):
        self.last_state = last_state
        super().__init__(message)


class SnapshotError(ShearVortexError):
    """Snapshot file unreadable, truncated or inconsistent."""


class ChecksumError(SnapshotError):
    """Snapshot payload does not match the recorded checksum."""
