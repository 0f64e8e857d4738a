"""pjac: construct, verify and compare planar maps with prescribed Jacobian."""

from .errors import PjacError
from .geometry import (
    cofactor,
    det2,
    frobenius,
    winding_number,
)
from .maps import PlanarMap, continuity_report, fd_jacobian, rotate_map
from .radial import (
    ConditionReport,
    GeneralisedStretching,
    RadialDatum,
    RadialProfile,
    condition_report,
    energy_split,
    power_law_datum,
    profile_from_datum,
    sobolev_energy_1d,
    split_bound_check,
    truncated_derivative_energy,
    truncated_gaussian_datum,
    uniform_datum,
    zhukovsky,
)
from .regions import Region, annulus, disc, l1_annulus, l1_ball
from .energy import (
    EnergyReport,
    QuadratureGrid,
    build_grid,
    circle_energy,
    jacobian_residual,
    lipschitz_estimate,
    region_energy,
    zhukovsky_comparison,
)
from .isoperimetry import (
    ImageCurve,
    curve_length,
    degree_moments,
    image_curve,
    isoperimetric_check,
    winding_field,
)
from .constructions import (
    assemble_counterexample,
    ball_to_square,
    boundary_identity_residual,
    layered_datum,
    layered_profile,
    nonuniqueness_datum,
    nonuniqueness_inner_profile,
    shear_map,
    wedge_map,
)
from .moser import (
    MoserCorrector,
    VectorField,
    constant_jacobian_corrector,
    moser_flow,
    unit_square_domain,
    wedge_domain,
)

__version__ = "0.1.0"
