"""Moment dynamics, characteristic functions and densities for
linear-quadratic mean field games driven by jump-diffusions, with a Monte
Carlo oracle and cost-parameter recovery.

Every public name is imported from its submodule on first use (PEP 562),
so a command that needs only the scenario model loads neither the
characteristic functions, Monte Carlo nor recovery."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "charfun": ("CharFunEvaluator", "DensityGrid", "gaussian_density"),
    "errors": ("ConvergenceError", "FormulaValidationError", "GridResolutionError",
               "NumericsError", "ScenarioError", "SingularityError"),
    "hjb": ("ConditionReport", "HjbSolution", "check_conditions", "closed_form_A_const",
            "eval_control_phi", "hjb_from_csv", "hjb_to_csv", "solve_backward"),
    "mc": ("CompareReport", "SimConfig", "SimResult", "compare_report", "empirical_charfun",
           "sim_from_csv", "sim_to_csv", "simulate_paths"),
    "model": ("Coefficient", "CostCoefficients", "InitialLaw", "JumpDistribution", "ScenarioSpec",
              "TerminalCost", "jump_charfn", "jump_moments", "jump_sample", "parse_scenario",
              "sample_jumps", "scenario_from_dict", "scenario_to_json", "serialize_scenario",
              "validate_scenario"),
    "moments": ("ClosedFormMoments", "MeanFieldSolution", "MomentPath", "closed_form_moments_const",
                "moments_from_csv", "moments_to_csv", "propagate_moments", "residual_check",
                "solve_meanfield_fixedpoint", "solve_scenario", "solve_scenario_backward"),
    "recover": ("FitDiagnostics", "ObservedSeries", "RecoveredParams", "classify_branch",
                "evaluate_fit", "fit_parameters", "series_from_csv", "series_to_csv"),
}
_SUBMODULES = ("charfun", "errors", "hermite", "hjb", "mc", "model", "moments", "ode", "recover",
               "table")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_ORIGIN])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
