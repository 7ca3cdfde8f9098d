"""tflkit: transverse feedback linearization for multi-input control-affine
systems.

Given a plant, a target manifold N with a base point x0 on it, and a
feedback rendering N invariant, the package decides local transverse
feedback linearizability through dual Pfaffian-system conditions and, when
they hold, constructs a certified transverse output, the transverse
controllability indices, the nested zero-dynamics manifolds, and the
normal-form coordinate/feedback transformation.
"""

from .expr import Expr, Point, VariableSpace, Zeroness, parse_expr
from .forms import (KForm, coordinate_form, d_of_function,
                    exterior_derivative, wedge)
from .pfaffian import (Flag, Membership, PfaffianIdeal, augment_with_dt,
                       derived_flag, derived_system, differential_closure,
                       ideal_membership)
from .lift import ControlSystem, LiftedSystem, ann_tangent_L, lift_system
from .conditions import (ConditionReport, IndexProfile, evaluate_conditions,
                         sample_on_N)
from .integrate import (SmoothMapAdapted, adapt_subordinate, adapt_to_L,
                        frobenius_integrate)
from .algorithm import (NoRelativeDegree, NormalFormData, RelativeDegree,
                        TFLReport, TransverseOutput, ZeroDynFlag,
                        dual_rd_check, normal_form, run_tfl,
                        vector_relative_degree, zero_dynamics_manifold)
from .problem import (ProblemFile, cmd_check, cmd_solve, load_problem,
                      loads_problem)
from . import errors

__version__ = "0.1.0"
