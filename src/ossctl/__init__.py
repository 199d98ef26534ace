"""Optimal steady-state control toolkit: drive an LTI plant's input/output
to the optimizer of a convex steady-state program via feedback, certify the
loop, and fall back to dynamic-stabilizer synthesis when needed."""

from ._linalg import hinf_norm, numerical_rank
from .controller import AlgebraicLoopError, DynamicStabilizer, stabilizer_dynamics
from .errors import OssctlError
from .kkt import KktError, KktGeometry, build_kkt_geometry, kkt_residual
from .lmi import (
    LmiCertificate,
    LmiError,
    build_multiplier,
    gain_grid_search,
    verify_stability,
)
from .objective import (
    ObjectiveError,
    SteadyStateObjective,
    check_gradient_fd,
    cosh_example_objective,
    quadratic_objective,
)
from .oracle import (
    OptimizerResult,
    OracleError,
    solve_quadratic_closed_form,
    solve_steady_state,
)
from .plant import (
    LtiPlant,
    PlantError,
    check_detectable,
    check_full_row_rank_AB,
    check_stabilizable,
)
from .scenario import Scenario, ScenarioError, load_scenario, scenario_from_dict
from .sdp import FeasibilityResult, solve_feasibility
from .sim import (
    DisturbanceSchedule,
    DivergenceError,
    SimulationError,
    Trace,
    convergence_metrics,
    simulate,
)
from .synthesis import (
    SynthesisError,
    SynthesisResult,
    closed_loop,
    synthesize_stabilizer,
)

__version__ = "0.1.0"
