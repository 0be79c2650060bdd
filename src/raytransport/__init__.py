"""Forward modeling for tensor tomography in refracting, absorbing media.

The package traces geodesics of the conformal metric generated by a
refractive index, evaluates attenuated ray transforms of symmetric tensor
fields (static and time-dependent), solves the viscosity-regularized
transport equation on a polar phase-space grid, and verifies the discrete
machinery against characteristic and quadrature oracles.
"""

from .errors import (
    AssemblyError,
    ConfigError,
    DomainError,
    NonConvergenceError,
    NumericalError,
    TraceLimitError,
)
from .geodesic import (
    GeodesicPath,
    IntegratorConfig,
    PhaseSpacePoint,
    angle_phase_point,
    trace,
    unit_phase_point,
)
from .phasegrid import (
    GLANCING,
    INFLOW,
    OUTFLOW,
    BoundaryMask,
    GridFunction,
    PhaseGrid,
    advection_coefficients,
    build_grid,
    classify_boundary,
)
from .refractive import (
    CoercivityReport,
    RefractiveModel,
    affine_model,
    coercivity_margin,
    constant_model,
    paper4_model,
    parse_model,
    radial_poly_model,
)
from .solve import (
    CoercivityEstimate,
    LinearSystem,
    MMatrixCertificate,
    SolveReport,
    assemble,
    discrete_coercivity,
    m_matrix_certificate,
    solve_dynamic,
    solve_static,
    symmetric_part,
)
from .tensorfield import (
    SymmetricTensorField,
    constant_scalar_field,
    constant_vector_field,
    moment,
    paper4_field,
    parse_field,
    with_switch_on,
)
from .transport import (
    Attenuation,
    constant_attenuation,
    dynamic_boundary_table,
    interior_solution,
    interior_solution_grid,
    parse_attenuation,
)
from .verify import (
    ErrorNorms,
    FiberFunction,
    IdentityCheck,
    SweepResult,
    check_fiber_identity,
    epsilon_sweep,
    relative_error,
    standard_fiber_functions,
)

__version__ = "0.1.0"
