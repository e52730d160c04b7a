import json
import os
import subprocess
import sys
from pathlib import Path

import mfg_moments

from conftest import make_doc

SRC = str(Path(mfg_moments.__file__).resolve().parent.parent)

# Runs in a fresh interpreter: the test process itself has scipy loaded.
PROBE = """
import sys

import numpy as np

import mfg_moments, mfg_moments.cli
from mfg_moments import *  # every submodule

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
t = np.linspace(0.0, 2.0, 12)
series = mfg_moments.ObservedSeries(t=t, E=np.cos(t), V=1.0 + 0.1 * t)
mfg_moments.classify_branch(series)
assert not scipy_modules(), ("classify_branch", scipy_modules())
for branch in mfg_moments.recover.BRANCHES:
    mfg_moments.fit_parameters(series, branch=branch)
    assert not scipy_modules(), (branch, scipy_modules())
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_recovery_loads_no_scipy():
    proc = _run(PROBE)
    assert proc.returncode == 0, proc.stderr


# The public names before they became lazy attributes (PEP 562).
PUBLIC_NAMES = {
    "CharFunEvaluator", "ClosedFormMoments", "Coefficient", "CompareReport", "ConditionReport",
    "ConvergenceError", "CostCoefficients", "DensityGrid", "FitDiagnostics",
    "FormulaValidationError", "GridResolutionError", "HjbSolution", "InitialLaw",
    "JumpDistribution", "MeanFieldSolution", "MomentPath", "NumericsError", "ObservedSeries",
    "RecoveredParams", "ScenarioError", "ScenarioSpec", "SimConfig", "SimResult",
    "SingularityError", "TerminalCost", "charfun", "check_conditions", "classify_branch",
    "closed_form_A_const", "closed_form_moments_const", "compare_report", "empirical_charfun",
    "errors", "eval_control_phi", "evaluate_fit", "fit_parameters", "gaussian_density", "hermite",
    "hjb", "hjb_from_csv", "hjb_to_csv", "jump_charfn", "jump_moments", "jump_sample", "mc",
    "model", "moments", "moments_from_csv", "moments_to_csv", "ode", "parse_scenario",
    "propagate_moments", "recover", "residual_check", "sample_jumps", "scenario_from_dict",
    "scenario_to_json", "serialize_scenario", "series_from_csv", "series_to_csv", "sim_from_csv",
    "sim_to_csv", "simulate_paths", "solve_backward", "solve_meanfield_fixedpoint",
    "solve_scenario", "solve_scenario_backward", "table", "validate_scenario",
}

VALIDATE_PROBE = """
import sys

from mfg_moments.cli import main

assert main(["validate", "--scenario", sys.argv[1]]) == 0
print(",".join(sorted(m for m in sys.modules if m.startswith("mfg_moments"))))
"""


def test_validate_loads_neither_charfun_nor_mc_nor_recover(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_doc(a=0.2, delta=0.5)))
    proc = _run(VALIDATE_PROBE, str(scenario))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split()[-1].split(","))
    assert "mfg_moments.model" in loaded
    assert not loaded & {"mfg_moments.charfun", "mfg_moments.mc", "mfg_moments.recover"}, loaded


def test_public_names_are_unchanged_and_resolve():
    assert set(mfg_moments.__all__) == PUBLIC_NAMES
    proc = _run("import mfg_moments\nfrom mfg_moments import *\n"
                "assert all(hasattr(mfg_moments, n) for n in mfg_moments.__all__)")
    assert proc.returncode == 0, proc.stderr
