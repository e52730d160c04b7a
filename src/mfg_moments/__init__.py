"""Moment dynamics, characteristic functions and densities for
linear-quadratic mean field games driven by jump-diffusions, with a Monte
Carlo oracle and cost-parameter recovery."""

__version__ = "0.1.0"

from .charfun import CharFunEvaluator, DensityGrid, gaussian_density
from .errors import (
    ConvergenceError,
    FormulaValidationError,
    GridResolutionError,
    NumericsError,
    ScenarioError,
    SingularityError,
)
from .hjb import (
    ConditionReport,
    HjbSolution,
    check_conditions,
    closed_form_A_const,
    eval_control_phi,
    hjb_from_csv,
    hjb_to_csv,
    solve_backward,
)
from .mc import (
    CompareReport,
    SimConfig,
    SimResult,
    compare_report,
    empirical_charfun,
    sim_from_csv,
    sim_to_csv,
    simulate_paths,
)
from .model import (
    Coefficient,
    CostCoefficients,
    InitialLaw,
    JumpDistribution,
    ScenarioSpec,
    TerminalCost,
    jump_charfn,
    jump_moments,
    jump_sample,
    parse_scenario,
    sample_jumps,
    scenario_from_dict,
    scenario_to_json,
    serialize_scenario,
    validate_scenario,
)
from .moments import (
    ClosedFormMoments,
    MeanFieldSolution,
    MomentPath,
    closed_form_moments_const,
    moments_from_csv,
    moments_to_csv,
    propagate_moments,
    residual_check,
    solve_meanfield_fixedpoint,
    solve_scenario,
    solve_scenario_backward,
)
from .recover import (
    FitDiagnostics,
    ObservedSeries,
    RecoveredParams,
    classify_branch,
    evaluate_fit,
    fit_parameters,
    params_from_dict,
    series_from_csv,
    series_to_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
