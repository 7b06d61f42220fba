"""Conservative adaptive-mesh-refinement finite elements on quadtree meshes.

The package provides balanced linear quadtree meshes with continuous-
Galerkin node numbering, intergrid transfer operators (including a
field-conserving coarsening path built from local quadrature-point
restriction plus a global mass solve), and drivers for the diffusion and
Cahn-Hilliard verification studies.
"""
from .errors import MeshStateError, NewtonError, SolverError
from .quadrature import (
    LagrangeBasis1D,
    QuadratureRule1D,
    element_nodal_basis,
    gauss_legendre,
    quad_point_basis,
)
from .restriction import apply_restriction, restriction_matrix
from .mesh import (
    MAX_LEVEL,
    AdaptPlan,
    CoarsenRecord,
    Flag,
    MeshTopology,
    RefineRecord,
    Stage,
    build_uniform,
    enumerate_nodes,
    execute_coarsen,
    execute_refine,
)
from .fem import (
    GaussField,
    NodalField,
    SparseSystem,
    assemble_mass,
    assemble_stiffness,
    eval_at_gauss,
    eval_grad_at_gauss,
    integrate_gauss,
    interpolate_nodal,
    project_l2,
    solve_spd,
)
from .transfer import (
    TransferMode,
    restrict_gauss_field,
    transfer_coarsen_conservative,
    transfer_coarsen_injection,
    transfer_refine,
)
from .models import (
    CahnHilliardProblem,
    Diagnostics,
    DiffusionProblem,
    FloryHugginsFreeEnergy,
    PolynomialFreeEnergy,
    ch_step,
    chemical_potential_init,
    diffusion_step,
    energy,
    make_free_energy,
    mms_exact,
    random_mixture_ic,
)
from .adapt import (
    CycleStats,
    InterfaceCriterion,
    MmsCriterion,
    adapt_cycle,
    element_gradient_norms,
    mark_interface,
    mark_mms,
)
from .config import ExperimentConfig, parse_config, serialize_config
from .runs import (
    convergence_slope,
    emit_outputs,
    run_demo1d,
    run_mms,
    run_spinodal,
)

__version__ = "0.1.0"
