"""Exception hierarchy with CLI exit codes.

Exit code contract: 0 success, 2 parse error, 3 unsupported input class,
4 solvability violation, 5 degree cap / infeasible system, 6 internal
invariant failure.
"""


class HarmcalcError(Exception):
    exit_code = 6


class UnsupportedInputError(HarmcalcError):
    """Input is outside the expression class an operation accepts."""

    exit_code = 3


class MultiTermSqrt(UnsupportedInputError):
    pass


class OddPiExponent(UnsupportedInputError):
    pass


class NegativeRadicand(UnsupportedInputError):
    pass


class NonRationalSqrt(UnsupportedInputError):
    pass


class MultiTermDivision(UnsupportedInputError):
    pass


class NonRationalValue(UnsupportedInputError):
    pass


class UnsupportedBase(UnsupportedInputError):
    pass


class NegativeBaseValue(UnsupportedInputError):
    pass


class ZeroBaseValue(UnsupportedInputError):
    pass


class DimensionMismatch(UnsupportedInputError):
    pass


class NonPolynomialInput(UnsupportedInputError):
    pass


class NotHarmonic(UnsupportedInputError):
    pass


class ZeroGradientField(UnsupportedInputError):
    pass


class UnsupportedRadialClass(UnsupportedInputError):
    pass


class DivergentRadialIntegral(UnsupportedInputError):
    pass


class EmptyInterior(UnsupportedInputError):
    pass


class NonPositiveAxis(UnsupportedInputError):
    pass


class UnsupportedDimension(UnsupportedInputError):
    pass


class UnsupportedScalarNorm(UnsupportedInputError):
    pass


class CenterSingularity(UnsupportedInputError):
    pass


class UnknownVariable(UnsupportedInputError):
    pass


class SolvabilityViolation(HarmcalcError):
    """A boundary problem's compatibility integral is nonzero."""

    exit_code = 4


class InfeasibleSystem(HarmcalcError):
    """No solution found within the degree schedule."""

    exit_code = 5


class ParseError(HarmcalcError):
    """Malformed expression or command line; the location is optional."""

    exit_code = 2

    def __init__(self, message, line=None, column=None, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = tuple(expected)

    def __str__(self):
        text = super().__str__()
        if self.line is not None:
            text += " at line %d, column %d" % (self.line, self.column)
        if self.expected:
            text += " (expected %s)" % ", ".join(self.expected)
        return text
