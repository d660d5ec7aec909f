"""Laguerre spectral homotopy solver for infinite-horizon nonlinear optimal control."""

from .laguerre_basis import (
    BasisConfig,
    BasisConstructionError,
    BasisRule,
    build_rule,
    interpolate,
    quadrature_unweighted,
)
from .ocp_model import (
    BUILTIN_PROBLEMS,
    BUILTIN_REPORT_TIMES,
    OCProblem,
    SolutionBundle,
    SubsystemSpec,
    builtin_problem_31,
    builtin_problem_32,
    derive_tpbvp,
    evaluate_cost,
    hamiltonian,
    load_problem,
    optimal_control,
    parse_problem,
    solve_ocp,
)
from .oracle_bvp import MeshTrajectory, TruncationConfig, compare, solve_truncated
from .sham_engine import (
    DecayAtInfinity,
    DivergenceError,
    HomotopySeries,
    InitialValue,
    MonomialTerm,
    SolverConfig,
    SystemSpec,
    Termination,
    assemble_operator,
    cauchy_order_term,
    deformation_step,
    initial_guess,
    run_sham,
)

__all__ = [name for name in dir() if not name.startswith("_")]
