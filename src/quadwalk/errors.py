"""Exception hierarchy.

Input/validation problems map to CLI exit code 3, numeric failures
(a requested tolerance that could not be met) to exit code 4.
"""


class QuadwalkError(Exception):
    """Base class for all library errors."""


class InputError(QuadwalkError):
    """Invalid input or violated precondition."""


class EmptyStepSetError(InputError):
    pass


class NegativeWeightError(InputError):
    pass


class ZeroTotalWeightError(InputError):
    pass


class DegenerateSupportError(InputError):
    """The step support lies on one line: its increments span rank < 2."""


class InfeasibleDriftError(InputError):
    """Requested drift lies on or outside the convex hull of the support."""


class NonzeroDriftError(InputError):
    """An operation requiring a driftless vertical component got drift != 0."""


class BarrierError(InputError):
    """Truncation barrier too small for the step set."""


class ConventionError(QuadwalkError):
    """Zero or both boundary conventions passed the harmonicity test."""


class UnsupportedLatticeError(InputError):
    """Vertical step law has sublattice structure the ladder solver rejects."""


class NumericError(QuadwalkError):
    """A numeric tolerance could not be met.

    ``partial`` carries whatever result was achieved, ``residual`` the
    achieved error, so callers can still emit the partial answer.
    """

    def __init__(self, message, residual=None, partial=None):
        super().__init__(message)
        self.residual = residual
        self.partial = partial
