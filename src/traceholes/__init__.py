"""Best Sobolev trace constants with boundary holes.

Compute the optimal constant of the trace embedding for fields forced to
vanish on a boundary hole, search for optimal holes of prescribed
measure, differentiate the constant under tangential motion of the hole,
and verify the one-dimensional and thin-domain limit laws.
"""

from .geometry import (
    BoundaryHole, Disk, Interval, Mesh, MeshResolutionError, Rectangle,
    TangentialField, ThinRectangle, generate_mesh, hole_from_facets,
    make_hole_from_arc, plateau_speed, tangential_field,
)
from .fem import (
    NotAdmissibleError, ProblemConfig, boundary_norm_q, energy,
    quotient_gradient, rayleigh_quotient,
)
from .trace_solver import (
    TraceResult, el_residual, positivity_check, solve_trace_constant,
)
from .shape_derivative import (
    ShapeDerivativeResult, evaluate_shape_derivative, fd_check,
    transport_hole,
)
from .hole_optimizer import (
    OptimizationRun, optimize_hole_alternating, optimize_hole_shape_gradient,
    zero_set_measure,
)
from .one_dim import (
    OneDimProblem, closed_form_for_hole_fraction, closed_form_limit_constant,
    optimize_limit_hole, solve_limit_problem,
)
from .thin_domain import MuSweep, run_mu_sweep

__version__ = "0.1.0"
