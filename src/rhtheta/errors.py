"""Exception hierarchy shared by all rhtheta modules."""


class RHThetaError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RHThetaError):
    """Malformed input file or command line configuration."""


# covering ------------------------------------------------------------------

class NotQuasiPermutation(RHThetaError):
    """A matrix does not have exactly one nonzero entry per row and column."""


# hyperelliptic -------------------------------------------------------------

class DegenerateCurve(RHThetaError):
    """Two branch points coincide within the geometric tolerance."""


class CrossingCuts(RHThetaError):
    """The selected cut pairing produces intersecting branch cuts."""


class QuadratureFailure(RHThetaError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class RoutingFailure(RHThetaError):
    """No obstacle-avoiding polyline could be constructed."""


class StepTooLarge(RHThetaError):
    """A finite-difference step would degenerate or reorder the curve."""


# theta ---------------------------------------------------------------------

class NotRiemannMatrix(RHThetaError):
    """The matrix is not symmetric with positive definite imaginary part."""


class TruncationOverflow(RHThetaError):
    """The certified lattice radius exceeds the hard cap."""


class NoOddNonsingularChar(RHThetaError):
    """No odd half-integer characteristic passed the nonsingularity test."""


# kernels / solver ----------------------------------------------------------

class RelationViolated(RHThetaError):
    """A theta relation the kernel construction relies on does not hold."""


class CharOnThetaDivisor(RHThetaError):
    """The characteristic places the solution on the divisor where it fails."""


class CoincidentPoints(RHThetaError):
    """Two surface points coincide where a kernel has a pole."""


class LoopConstructionFailed(RHThetaError):
    """Monodromy loops could not be laid out with the required clearance."""


class LatticeExtractionFailed(RHThetaError):
    """A continued Abel value does not sit on the period lattice."""


class SingularPoint(RHThetaError):
    """Evaluation requested at a singular point of the solution."""


class InconsistentLayout(RHThetaError):
    """Intersection data does not reproduce the continued monodromies."""
