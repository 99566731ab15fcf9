"""gldd: two-mesh solver for layered diffusion with coefficient jumps.

A coarse simplicial mesh covers the whole box while a fine strip mesh
resolves a thin low-conductivity layer under the top surface; the two
are coupled through a flux-jump term and a penalty on the shared trace,
and solved by an alternating sweep whose convergence rate tracks the
coefficient contrast.
"""

__version__ = "0.1.0"

from .coupling import (CoupledOperators, ProblemData, build_coupled_operators,
                       default_alpha, interface_trace_gap)
from .dd_solver import (DDConfig, DDReport, neumann_partial_sum,
                        run_coupled_direct, run_fitted_reference,
                        run_two_level_dd, setup_case)
from .errors import GlddError
from .experiments import (ExperimentConfig, SweepRecord, emit_reports,
                          relaxation_study, sweep_kappa, sweep_mesh_ratio)
from .fem import (DofMap, assemble_load, assemble_stiffness, build_dofmap,
                  l2_error, laser_flux)
from .linalg import (SolverConfig, SpectralFit, fit_rho_law,
                     power_iteration_rho)
from .mesh import (FacetTag, GeometryConfig, StructuredMesh, build_fitted_mesh,
                   build_global_mesh, build_local_mesh)
from .nonlinear import (MaterialCurve, NonlinearConfig, picard_monolithic,
                        picard_two_level, sweep_kappa_plus_B)

__all__ = [
    "__version__",
    "GlddError",
    "FacetTag", "GeometryConfig", "StructuredMesh",
    "build_global_mesh", "build_local_mesh", "build_fitted_mesh",
    "DofMap", "build_dofmap", "assemble_stiffness", "assemble_load",
    "laser_flux", "l2_error",
    "SolverConfig", "SpectralFit", "power_iteration_rho", "fit_rho_law",
    "ProblemData", "CoupledOperators", "build_coupled_operators",
    "default_alpha", "interface_trace_gap",
    "DDConfig", "DDReport", "setup_case", "run_two_level_dd",
    "run_coupled_direct", "neumann_partial_sum", "run_fitted_reference",
    "ExperimentConfig", "SweepRecord", "sweep_kappa", "sweep_mesh_ratio",
    "relaxation_study", "emit_reports",
    "MaterialCurve", "NonlinearConfig", "picard_two_level",
    "picard_monolithic", "sweep_kappa_plus_B",
]
