"""Exception hierarchy shared by all modules."""


class PjacError(Exception):
    """Base class for all library errors."""


# -- geometry ---------------------------------------------------------------

class PointOnCurve(PjacError):
    """Winding number requested at a point lying on the curve."""


# -- radial data ------------------------------------------------------------

class OrientationMismatch(PjacError):
    """The cumulative mass of the datum has the wrong sign for this degree."""


class NonPositiveLambda(PjacError):
    """The Zhukovsky function needs a positive argument."""


class PreconditionViolated(PjacError):
    """Arguments do not satisfy a documented precondition."""


# -- energy / quadrature ----------------------------------------------------

class EvaluationFailure(PjacError):
    """A map returned a non-finite value at a quadrature node."""


class BreakRadius(PjacError):
    """Circle energy requested on a circle where derivatives may jump."""


class JacobianMismatch(PjacError):
    """Competitor map does not solve the prescribed-Jacobian equation."""


# -- isoperimetry -----------------------------------------------------------

class ExcessiveMasking(PjacError):
    """Too many grid points sit on the curve for reliable degree moments."""


# -- constructions ----------------------------------------------------------

class OriginEvaluation(PjacError):
    """The ball-to-square map has no preferred branch at the origin."""


class OutsideWedge(PjacError):
    """Wedge map evaluated outside its quarter-annulus domain."""


class IncompatibleTrace(PjacError):
    """The competitor's ring does not vanish on an axis it is reflected across."""


class GluingMismatch(PjacError):
    """Branches of a piecewise map disagree on an interface."""


# -- moser ------------------------------------------------------------------

class NonZeroMean(PjacError):
    """Divergence data must integrate to zero over the domain."""


class DegenerateDomain(PjacError):
    """Domain is unsuitable for the divergence solver."""


class FlowEscapedDomain(PjacError):
    """A flow trajectory left the domain by more than the tolerance."""


class NonPositiveDensity(PjacError):
    """Target densities for the flow must be strictly positive."""


class CorrectorDiverged(PjacError):
    """The constant-Jacobian iteration stopped making progress."""


class ConstraintInfeasible(PjacError):
    """A constructed datum violates one of its defining constraints."""
