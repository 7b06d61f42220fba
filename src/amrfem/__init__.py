"""Conservative adaptive-mesh-refinement finite elements on quadtree meshes.

The package provides balanced linear quadtree meshes with continuous-
Galerkin node numbering, intergrid transfer operators (including a
field-conserving coarsening path built from local quadrature-point
restriction plus a global mass solve), and drivers for the diffusion and
Cahn-Hilliard verification studies.

The names below, and the submodules themselves, are resolved on first
access (PEP 562), so importing one module loads only what that module needs.
"""
import importlib

_EXPORTS = {
    "errors": "MeshStateError NewtonError SolverError",
    "quadrature": "LagrangeBasis1D QuadratureRule1D element_nodal_basis gauss_legendre "
    "quad_point_basis",
    "restriction": "apply_restriction injection_matrix restriction_matrix",
    "mesh": "MAX_LEVEL CoarsenRecord MeshTopology RefineRecord build_uniform enumerate_nodes "
    "execute_coarsen execute_refine",
    "fem": "GaussField LeafField NodalField SparseSystem assemble_mass assemble_stiffness "
    "eval_at_gauss grad_sq_at_gauss integrate_gauss interpolate_nodal project_l2 solve_spd",
    "transfer": "TransferMode refine_leaf_field restrict_gauss_field transfer_coarsen_conservative "
    "transfer_coarsen_injection",
    "models": "CahnHilliardProblem Diagnostics DiffusionProblem FloryHugginsFreeEnergy "
    "PolynomialFreeEnergy ch_step chemical_potential_init diffusion_step energy make_free_energy "
    "mms_exact random_mixture_ic",
    "adapt": "CycleStats InterfaceCriterion MmsCriterion adapt_cycle element_gradient_norms "
    "mark_interface mark_mms",
    "config": "ExperimentConfig parse_config serialize_config",
    "runs": "emit_outputs run_demo1d run_mms run_spinodal",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached: a name rebound in its module (a wrapper, a test double)
    # shows through the package too.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
