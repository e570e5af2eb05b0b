"""Exception types shared by the engine.

Math-domain failures (``MATH_ERRORS``) map to exit code 1 in the CLI.
Expression-level failures (parsing, arity, operand types) derive from
ExprError, carry a source span, and map to exit code 2.
"""


class EngineError(Exception):
    """A mathematically invalid operation on exact values."""


class NonUnitConstantTerm(EngineError):
    """Constant term must be a nonzero (or unit) field element."""


class CompositionNeedsZeroConstant(EngineError):
    """Inner series of a composition must vanish at 0."""


class NotReversible(EngineError):
    """Series has no compositional inverse (needs f(0)=0, f'(0) != 0)."""


class PipelinePrecondition(EngineError):
    """Pipeline input must expand to a sequence beginning 1, 0."""


class InsufficientDepth(EngineError):
    """Continued fraction does not provide enough levels for the precision."""


class DegenerateCfrac(EngineError):
    """A partial numerator vanished while later coefficients disagree."""


class PatternMismatch(EngineError):
    """Continued-fraction coefficients do not follow the required pattern."""


class NonPolynomialRow(EngineError):
    """Triangle entry is not polynomial in the parameter (or degree too big)."""


class SingularDiagonal(EngineError):
    """Triangle inverse needs all diagonal entries nonzero."""


class NotTridiagonal(EngineError):
    """Matrix is not tridiagonal with unit superdiagonal."""


class PrecisionExhausted(EngineError):
    """Moment functional applied beyond the known moments."""


class UnknownOracle(EngineError):
    """No closed-form oracle registered under that name."""


class IndexRange(EngineError):
    """Oracle index out of range."""


class EvaluationPole(EngineError):
    """Substituting a numeric value for r hit a vanishing denominator."""


class InexactDivision(EngineError):
    """An exact polynomial division left a nonzero remainder."""


# EngineError, and what exact arithmetic and the value constructors raise on
# invalid data (a zero divisor, a matrix that is not square, a Riordan pair
# expanded too short).
MATH_ERRORS = (EngineError, ValueError, ZeroDivisionError)


class ExprError(Exception):
    """An error in an expression, carrying the offending source span."""

    def __init__(self, message: str, start: int = -1, end: int | None = None):
        super().__init__(message)
        self.start = start
        self.end = start if end is None else end

    def __str__(self) -> str:
        base = super().__str__()
        if self.start >= 0:
            return f"{base} (at offset {self.start})"
        return base


class ParseError(ExprError):
    """Tokenizer/parser failure at one offset (``end`` equals ``start``)."""


class ArityError(ExprError):
    """Builtin called with the wrong number of arguments."""


class TypeErrorValue(ExprError):
    """Builtin called with an operand of the wrong kind."""
