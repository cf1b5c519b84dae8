"""Exception hierarchy.

``InputError`` subclasses signal bad user input (CLI exit code 2),
``NumericalBreakdown`` subclasses signal that an internal cross-check of two
independent computations failed (CLI exit code 3).  Everything derives from
``VnspecError``.
"""


class VnspecError(Exception):
    pass


class InputError(VnspecError):
    """Invalid input data (bad generator, bad description file, ...)."""


class NumericalBreakdown(VnspecError):
    """Two independent routes to the same quantity disagreed."""


# --- input-side errors -------------------------------------------------------

class NonSquareGenerator(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class SubsystemInvalid(InputError):
    pass


class TraceNotFaithful(InputError):
    pass


class NotMeanZero(InputError):
    pass


class NotInAlgebra(InputError):
    pass


class NotAutomorphism(InputError):
    pass


class SpecInvalid(InputError):
    pass


class WeightsNotPreserved(InputError):
    pass


class ConstraintViolated(InputError):
    pass


class NotUnitary(InputError):
    pass


class PartitionInvalid(InputError):
    pass


class ParseError(InputError):
    pass


class ValidationError(InputError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# --- numerical cross-check failures ------------------------------------------

class CommutantMismatch(NumericalBreakdown):
    pass


class ExtensionInconsistent(NumericalBreakdown):
    pass


class StateNotPositive(NumericalBreakdown):
    pass


class IsometryViolation(NumericalBreakdown):
    pass


class VerdictMismatch(NumericalBreakdown):
    pass
