"""RICE climate-economy model as a 12-player dynamic game.

Deterministic 5-year-step dynamics over a shared carbon cycle and
temperature response, exact adjoint gradients for box-constrained welfare
maximization, and the cooperative and non-cooperative solution concepts
built on top of them: social-welfare optimum, developed/developing Pareto
frontier, receding-horizon control, recursive best response with an
epsilon-Nash certificate, and receding-horizon feedback play.
"""

__version__ = "0.1.0"

from .calibration import (
    build_default_scenario,
    calibrate_damage,
    generate_exogenous,
    load_scenario,
    negishi_weights,
    save_scenario,
    validate_scenario,
)
from .cooperative import mpc_rice, pareto_frontier, solve_pareto_point, solve_swm
from .model import (
    ControlProfile,
    ExogenousPaths,
    GeoParams,
    ModelBreakdownError,
    ModelDomainError,
    RegionParams,
    RiceGameError,
    RiceState,
    Scenario,
    Trajectory,
    regional_welfare,
    simulate,
    social_cost_of_co2,
    step,
    weighted_welfare,
)
from .noncooperative import best_response, rba_dg, rhfa_dg, verify_epsilon_ne
from .solver import (
    SolveOptions,
    SolveReport,
    gradient_adjoint,
    maximize,
)

__all__ = [
    "__version__",
    "ControlProfile",
    "ExogenousPaths",
    "GeoParams",
    "ModelBreakdownError",
    "ModelDomainError",
    "RegionParams",
    "RiceGameError",
    "RiceState",
    "Scenario",
    "Trajectory",
    "regional_welfare",
    "simulate",
    "social_cost_of_co2",
    "step",
    "weighted_welfare",
    "build_default_scenario",
    "calibrate_damage",
    "generate_exogenous",
    "load_scenario",
    "negishi_weights",
    "save_scenario",
    "validate_scenario",
    "mpc_rice",
    "pareto_frontier",
    "solve_pareto_point",
    "solve_swm",
    "best_response",
    "rba_dg",
    "rhfa_dg",
    "verify_epsilon_ne",
    "SolveOptions",
    "SolveReport",
    "gradient_adjoint",
    "maximize",
]
