"""Exception types shared across the package."""


class HdmError(Exception):
    """Base class for all errors raised by this package."""


# -- finite fields -----------------------------------------------------------

class NotOddPrimePower(HdmError):
    """The requested field order is not an odd prime power >= 3."""


class DivisionByZero(HdmError, ZeroDivisionError):
    """Multiplicative inverse of the zero element."""


class CharacterOfZero(HdmError):
    """The quadratic character is undefined at zero."""


# -- projective line ---------------------------------------------------------

class BadDeterminant(HdmError):
    """Moebius coefficients with determinant != 1 (no silent normalization)."""


# -- sign cubes --------------------------------------------------------------

class ShapeMismatch(HdmError, ValueError):
    """Entry data does not match the declared cube shape."""


class IndexOutOfRange(HdmError, IndexError):
    """A coordinate position or index value is outside its valid range."""


class EmptyFix(HdmError):
    """layer() called with no fixed coordinates."""


class FullFix(HdmError):
    """layer() called with every coordinate fixed."""


class DimensionTooSmall(HdmError):
    """The operation needs a higher-dimensional cube."""


class ParseError(HdmError, ValueError):
    """Malformed HDM text; carries the 1-based line (and column if known)."""

    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


# -- constructions -----------------------------------------------------------

class NotHadamardInput(HdmError):
    """A construction hypothesis requires a Hadamard input matrix."""


class TooLarge(HdmError):
    """The request exceeds a size cap (constructions.MAX_ENTRIES, ncube.MAX_AXES
    or gf.MAX_ORDER)."""


# -- symmetry checks ---------------------------------------------------------

class DimensionMismatch(HdmError):
    """The check is only defined for cubes of a specific dimension."""


class OrderMismatch(HdmError):
    """Cube order and field order disagree (expects v = q + 1)."""


class NotAPermutation(HdmError, ValueError):
    """A point relabelling is not a permutation of the cube's indices."""


class InfinityNotAllowed(HdmError):
    """The operation needs a finite projective point."""
