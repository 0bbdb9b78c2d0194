"""Stabilized primal-dual finite elements for the elliptic Cauchy problem."""

from .analysis import (ErrorReport, ReportData, convergence_rate, error_report,
                       eta, h1_semi_error, l2_error, l2_norm_field, report_data,
                       stab_seminorm_u, stab_seminorm_z)
from .assembly import (BlockSystem, assemble_blocks, assemble_data_term,
                       assemble_dual_stab, assemble_load, assemble_primal_stab,
                       assemble_stiffness)
from .experiments import (Level, RunConfig, run_convergence, run_single,
                          run_sweep, solve_level)
from .mesh import (BoundaryPart, Mesh, build_structured, from_triangles,
                   mesh_size, tag_boundary, unit_square_mesh)
from .problem import CauchyProblem, quartic_example
from .solver import (DiscreteSolution, SaddleSystem, SingularSystemError,
                     build_system, discrete_consistency_probe, solve)
from .spaces import (FeSpace, QuadratureRule, build_space, nodal_interpolant,
                     segment_rule, shape_eval, triangle_rule)

__version__ = "0.1.0"
