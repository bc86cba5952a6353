"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all surftrace errors."""


class OutOfDomainError(GeometryError):
    """Parameter point lies outside the chart's rectangular domain."""


class SingularJetError(GeometryError):
    """The chart is not regular at the requested point (X_t x X_z ~ 0)."""


class DegenerateParameterError(GeometryError):
    """A surface-family parameter is outside its admissible range."""


class NonUnitSpeedError(GeometryError):
    """Curve samples are not arc-length parametrized."""


class TooFewSamplesError(GeometryError):
    """A statistic needs more samples than were provided."""


class UmbilicEncounteredError(GeometryError):
    """An isogonal trace was started at (or ran into) an umbilic point."""


class InvalidRequestError(GeometryError, ValueError):
    """A request, curve samples, an input file (config, trace CSV) or an
    OBJ grid is malformed or out of range; also a ValueError."""


class ThetaOutOfRangeError(GeometryError):
    """Pseudo-geodesic angle must satisfy |theta| < pi/2."""


class BoundaryExitError(GeometryError):
    """A trace left the chart domain before reaching the requested parameter."""


class SolverFailureError(GeometryError):
    """A trace's solver ran out of step size or of its evaluation budget."""


class PreimageMismatchError(GeometryError):
    """Chart preimages of a shared curve do not reproduce its points."""


class TangencyError(GeometryError):
    """Two surfaces are tangent along the curve; the frame angle is undefined."""


class UnknownFixtureError(GeometryError):
    """Requested intersection fixture name is not in the catalogue."""


class UnknownScenarioError(GeometryError):
    """Requested verification scenario id is not in the catalogue."""
