"""Piecewise cubic Hermite interpolation from grid values and their derivatives.

Every quantity the package interpolates is the output of an ODE solve
that also knows its derivative at the grid nodes, so the cubic on each
interval is fixed by the values and slopes at its two ends.  There is no
global system to solve, as a spline has, and the slopes carry the
solver's accuracy rather than a finite difference's.  The package's
grids are uniform, so the interval of a point is found by arithmetic
rather than by a search.
"""

from __future__ import annotations

import numpy as np

from .errors import ScenarioError

# Absolute tolerance in t of ``Hermite.root``, the one focal times were located to
# with scipy's bracketing root finder.
ROOT_XTOL = 2e-12


def uniform_step(t: np.ndarray, what: str) -> float:
    """The step of the grid t; ``ScenarioError`` naming ``what`` unless t increases uniformly."""
    h = (t[-1] - t[0]) / (len(t) - 1)
    # Every step within 1e-9 h of h; a NaN step makes the largest deviation NaN, which fails.
    if not (0.0 < h < np.inf and np.max(np.abs(np.diff(t) - h)) <= 1e-9 * h):
        raise ScenarioError(f"{what} must be increasing and uniformly spaced")
    return float(h)


class Hermite:
    """C^1 piecewise cubic through (t_k, y_k) with slopes dy_k on a uniform grid.

    ``y`` and ``dy`` hold the grid along axis 0 and may have any trailing
    shape.  Evaluation at x of shape s returns shape s + trailing; a
    scalar x with 1-D ``y`` returns a NumPy scalar.  Points outside
    [t_0, t_N] extend the end cubics.
    """

    def __init__(self, t, y, dy):
        t = np.asarray(t, float)
        y = np.asarray(y, float)
        dy = np.asarray(dy, float)
        h = uniform_step(t, "interpolation grid")
        self.t0, self.h, self._last = float(t[0]), h, len(t) - 2
        m0, m1 = h * dy[:-1], h * dy[1:]
        jump = y[1:] - y[:-1]
        # Coefficients in the local coordinate s = (x - t_k)/h, for Horner's rule.
        self._coef = np.stack([y[:-1], m0, 3.0 * jump - 2.0 * m0 - m1, m0 + m1 - 2.0 * jump])
        self._end = y[1:]

    def __call__(self, x):
        pos = (np.asarray(x, float) - self.t0) / self.h
        k = np.minimum(np.maximum(pos, 0.0), self._last).astype(np.intp)
        s = pos - k
        s = s.reshape(np.shape(s) + (1,) * (self._coef.ndim - 2))
        c = np.take(self._coef, k, axis=1)
        return c[0] + s * (c[1] + s * (c[2] + s * c[3]))

    def root(self, k: int) -> float:
        """Zero of the cubic on [t_k, t_{k+1}], for 1-D ``y`` with y_k y_{k+1} < 0.

        Newton steps from the secant point, safeguarded by the sign-change
        bracket: a step that leaves the bracket bisects instead.  Stops
        when a step or the bracket is below ``ROOT_XTOL`` in t.
        """
        c0, c1, c2, c3 = (float(c) for c in self._coef[:, k])
        tol = ROOT_XTOL / self.h
        lo, hi = 0.0, 1.0
        s = c0 / (c0 - float(self._end[k]))
        for _ in range(200):
            f = c0 + s * (c1 + s * (c2 + s * c3))
            if f == 0.0:
                break
            if (f < 0.0) == (c0 < 0.0):
                lo = s
            else:
                hi = s
            df = c1 + s * (2.0 * c2 + 3.0 * s * c3)
            step = f / df if df != 0.0 else np.inf
            new = s - step
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
            done = abs(new - s) <= tol or hi - lo <= tol
            s = new
            if done:
                break
        return float(self.t0 + (k + s) * self.h)
