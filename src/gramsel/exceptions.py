"""Exception hierarchy.

Two families, mirrored by the CLI exit codes: input/usage problems are
``ValueError`` subclasses (exit code 2), numerical failures are
``RuntimeError`` subclasses (exit code 3).  Everything derives from
:class:`GramselError` so callers can catch library errors in one clause.
"""


class GramselError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GramselError, ValueError):
    """Operand shapes are inconsistent (non-square, mismatched sizes, ...)."""


class DomainError(GramselError, ValueError):
    """A value is outside its admissible domain (negative horizon, bad k, ...)."""


class NonFiniteError(GramselError, ValueError):
    """An input contains NaN or infinite entries."""


class ProblemFormatError(GramselError, ValueError):
    """A problem file could not be parsed or is missing required fields."""


class TopologyError(GramselError, ValueError):
    """A grid description is structurally invalid (disconnected, self-loop, ...)."""


class EnumerationCapError(GramselError, ValueError):
    """Exhaustive search refused because the subset count exceeds the cap."""


class NumericalError(GramselError, RuntimeError):
    """A numerical routine failed (non-convergence, overflow, ...)."""


class StabilityError(NumericalError):
    """The dynamics matrix is not Hurwitz where stability is required."""


class UnreachableStateError(NumericalError):
    """The requested target state lies outside the range of the Gramian."""


class DegenerateGramianWarning(UserWarning):
    """A singular but consistent system was solved via the pseudo-inverse."""
