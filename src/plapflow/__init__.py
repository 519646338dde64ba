"""FEM solver and diagnostics for nonlinear parabolic flows with (p, delta)-structure."""

from .orlicz import (ADDITIVE_SHIFT, QUADRATIC_NORM, NFunctionPD, certify_lemmas,
                     op_A, op_S_eps)
from .lower_order import IMPLICIT, SEMI_IMPLICIT, LowerOrderCoeff, admissibility
from .mesh import (FemFunction, TriMesh, interpolate_nodal, prolong, refine_red,
                   unit_square_mesh)
from .schemes import (SchemeConfig, SolverError, Trajectory, implicit_step,
                      interpolant_eval, run_evolution, semi_implicit_step)
from .diagnostics import StudyConfig, check_energy_ledgers, discrepancy_total, run_study

__version__ = "0.1.0"
