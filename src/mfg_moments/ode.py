"""The package's one integrator, for the linear equation ``y'' + 2 a(t) y = f(t)``.

The linearizer u, the variance partner psi, the expectation E and the
recovery sensitivities all solve it.  Classical RK4 on z = (y, y') is
linear in z and f, so each step is an affine map ``z_{k+1} = P_k z_k + q_k``;
``rk4_linear`` builds all the maps at once in NumPy and applies them column
by column in plain floats.  ``cumsimpson`` integrates quantities whose
derivative is already known along a solution, such as v and C.
"""

from __future__ import annotations

import numpy as np


def _rk4_step(a0, a1, a2, f0, f1, f2, y, p, h):
    """One classical RK4 step of ``(y, p)' = (p, -2 a y + f)``, elementwise."""
    k1y, k1p = p, f0 - 2.0 * a0 * y
    k2y, k2p = p + 0.5 * h * k1p, f1 - 2.0 * a1 * (y + 0.5 * h * k1y)
    k3y, k3p = p + 0.5 * h * k2p, f1 - 2.0 * a1 * (y + 0.5 * h * k2y)
    k4y, k4p = p + h * k3p, f2 - 2.0 * a2 * (y + h * k3y)
    return (y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


def rk4_linear(a_half, f_half, y0, yp0, h):
    """Classical RK4 for ``y'' + 2 a(t) y = f(t)`` on a uniform node grid.

    ``a_half`` holds a on the 2N+1 half grid (index 2k is node k) and
    ``f_half`` the forcings there, shape (2N+1, width), one column per
    solution.  ``y0`` and ``yp0`` are the width initial values and slopes.
    Returns ``(y, y')``, each (N+1, width), with row 0 the initial data.
    To march backward, pass the half-grid arrays reversed and a negative h.
    """
    a0, a1, a2 = a_half[0:-1:2], a_half[1::2], a_half[2::2]
    # Columns of P_k: the step applied to (1, 0) and to (0, 1) without forcing.
    P = [c.tolist() for c in (*_rk4_step(a0, a1, a2, 0.0, 0.0, 0.0, 1.0, 0.0, h),
                              *_rk4_step(a0, a1, a2, 0.0, 0.0, 0.0, 0.0, 1.0, h))]
    qy, qp = _rk4_step(a0[:, None], a1[:, None], a2[:, None],
                       f_half[0:-1:2], f_half[1::2], f_half[2::2], 0.0, 0.0, h)
    y = np.empty((len(a0) + 1, f_half.shape[1]))
    yp = np.empty_like(y)
    for j in range(y.shape[1]):
        cy, cp = float(y0[j]), float(yp0[j])
        ys, ps = [cy], [cp]
        for m00, m10, m01, m11, gy, gp in zip(*P, qy[:, j].tolist(), qp[:, j].tolist()):
            cy, cp = m00 * cy + m01 * cp + gy, m10 * cy + m11 * cp + gp
            ys.append(cy)
            ps.append(cp)
        y[:, j] = ys
        yp[:, j] = ps
    return y, yp


def cumsimpson(g_half, h):
    """Cumulative composite Simpson integral along axis 0 of a uniform grid.

    ``g_half`` holds the integrand on the 2N+1 half grid, as in
    ``rk4_linear``; row k of the result is the integral from node 0 to
    node k.  A negative h integrates arrays given in reverse order.
    """
    out = np.zeros((len(g_half) // 2 + 1,) + g_half.shape[1:])
    out[1:] = np.cumsum(h / 6.0 * (g_half[0:-1:2] + 4.0 * g_half[1::2] + g_half[2::2]), axis=0)
    return out
