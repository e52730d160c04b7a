import os
import subprocess
import sys
from pathlib import Path

import mfg_moments

SRC = str(Path(mfg_moments.__file__).resolve().parent.parent)

# Runs in a fresh interpreter: the test process itself has scipy loaded.
PROBE = """
import sys

import numpy as np

import mfg_moments, mfg_moments.cli

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


def test_recovery_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
