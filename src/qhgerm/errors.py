"""Exception types shared across the package.

Division by zero in the exact field raises the stdlib ZeroDivisionError;
everything else gets a dedicated class here so callers (and the CLI exit-code
mapping) can tell input problems, scope problems, and internal bugs apart.
"""

from __future__ import annotations


class QhgermError(Exception):
    """Base class for all package-specific errors."""


class ZeroPolynomialError(QhgermError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class ParseError(QhgermError):
    """Polynomial text could not be parsed. Carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyInputError(ParseError):
    """Input was empty or whitespace only."""

    def __init__(self):
        super().__init__("empty input", 0)


class NegativeExponentError(ParseError):
    """A '-' appeared where an unsigned exponent was required."""

    def __init__(self, position: int):
        super().__init__("negative exponents are not allowed", position)


class NotQuasihomogeneousError(QhgermError):
    """No admissible weight pair fits the support of the polynomial."""


class WeightMismatchError(QhgermError):
    """Support points disagree with the asserted weights."""


class InternalInconsistencyError(QhgermError):
    """A self-check of the decision procedure failed.

    Raised when the canonical factorization does not re-expand to the input
    or its ladder bookkeeping breaks, when two germs with equal invariants
    have ladders of different degree, when the witness exponents disagree
    with nu, no root branch solves the witness scalar system or no branch of
    a radical lies near its numeric value, and when a cross-ratio of
    distinct points degenerates.
    """


class FormulaMismatchError(QhgermError):
    """The closed-form order at the origin disagreed with the brute-force value."""


class BranchOutOfRangeError(QhgermError):
    """A requested root branch index is outside [0, index)."""


class NotEquivalentVerdictError(QhgermError):
    """Witness construction was asked for a verdict that is not Equivalent."""


class NonConvergenceError(QhgermError):
    """Root iteration failed to reach its backward-error target."""


class AmbiguousClusteringError(QhgermError):
    """Root spacing sits in the unsafe band around the clustering tolerance."""


class DegenerateConfigurationError(QhgermError):
    """A four-line configuration or its moduli invariant is degenerate.

    Raised for a whitney_configuration parameter t in {0, 1} (two lines
    coincide), a cross-ratio of a tuple with repeated points, and
    j_from_cross_ratio of 0 or 1.
    """
