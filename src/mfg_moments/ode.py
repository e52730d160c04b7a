"""The package's one integrator, for the linear equation ``y'' + 2 a(t) y = f(t)``.

The linearizer u, the variance partner psi, the expectation E and the
recovery sensitivities all solve it.  Classical RK4 on z = (y, y') is
linear in z and f, so each step is an affine map ``z_{k+1} = P_k z_k + q_k``
whose coefficients have a closed form in a and f at the step's three
half-grid points (``_step_maps``).  ``rk4_linear`` applies the maps as a
blocked scan: a batched product over blocks of ``_BLOCK`` steps gives
every block's transfer matrix and offset, the same scan over those block
maps gives the block-start states, and one product assembles the rest.
States are always carried forward by the maps themselves, never by
variation of constants, which cancels catastrophically where a(t) < 0
makes the solutions grow and decay.  ``cumsimpson`` integrates quantities
whose derivative is already known along a solution, such as v and C.
"""

from __future__ import annotations

import numpy as np

# Steps per block of the scan (``_scan``).
_BLOCK = 32


def _step_maps(a_half, f_half, h):
    """The RK4 step maps: P (K, 2, 2) and q (K, 2, width).

    Classical RK4 for ``(y, p)' = (p, -2 a y + f)`` expanded in closed
    form, with a0, a1, a2 (and f0, f1, f2) the values at the step's start,
    midpoint and end.
    """
    a0, a1, a2 = a_half[0:-1:2], a_half[1::2], a_half[2::2]
    hh = h * h
    P = np.empty((len(a1), 2, 2))
    P[:, 0, 0] = 1.0 - hh / 3.0 * (a0 + 2.0 * a1) + hh * hh / 6.0 * a0 * a1
    P[:, 0, 1] = h - h * hh / 3.0 * a1
    P[:, 1, 0] = h * hh / 3.0 * a1 * (a0 + a2) - h / 3.0 * (a0 + 4.0 * a1 + a2)
    P[:, 1, 1] = 1.0 - hh / 3.0 * (2.0 * a1 + a2) + hh * hh / 6.0 * a1 * a2
    # The forcing with columns leading, so that each operation runs along the steps.
    f = np.ascontiguousarray(f_half.T)
    f0, f1, f2 = f[:, 0:-1:2], f[:, 1::2], f[:, 2::2]
    q = np.empty((2,) + f0.shape)
    np.multiply(hh / 6.0 * (1.0 - 0.5 * hh * a1), f0, out=q[0])
    q[0] += hh / 3.0 * f1
    np.multiply(h / 6.0 * (1.0 - hh * a1), f0, out=q[1])
    q[1] += h / 6.0 * (4.0 - hh * a2) * f1
    q[1] += h / 6.0 * f2
    return P, q.transpose(2, 0, 1)


def _apply_in_turn(P, q, z0):
    """The states of ``z_{k+1} = P_k z_k + q_k`` one map at a time, in plain floats."""
    K, width = q.shape[0], q.shape[2]
    m00, m01, m10, m11 = (P[:, i, j].tolist() for i in (0, 1) for j in (0, 1))
    z = np.empty((2, K + 1, width))
    for j in range(width):
        cy, cp = float(z0[0, j]), float(z0[1, j])
        ys, ps = [cy], [cp]
        for p00, p01, p10, p11, gy, gp in zip(m00, m01, m10, m11, q[:, 0, j].tolist(),
                                              q[:, 1, j].tolist()):
            cy, cp = p00 * cy + p01 * cp + gy, p10 * cy + p11 * cp + gp
            ys.append(cy)
            ps.append(cp)
        z[0, :, j] = ys
        z[1, :, j] = ps
    return z


def _scan(P, q, z0):
    """The states of ``z_{k+1} = P_k z_k + q_k`` from z0 (2, width): (2, K+1, width).

    K is padded with identity maps to M blocks of ``_BLOCK``.  Each block's
    state S, (2, 2 + width), carries the block's transfer matrix in two
    homogeneous columns (from the identity) and its offset in the forced
    ones (from zero); it advances one in-block position at a time, for all
    blocks at once.  The M block maps then form a scan of their own for the
    block-start states, and each state is ``S[..., :2] @ start + S[..., 2:]``.
    Up to ``2 * _BLOCK`` maps are applied in turn instead.
    """
    K, width = q.shape[0], q.shape[2]
    if K <= 2 * _BLOCK:
        return _apply_in_turn(P, q, z0)
    M = -(-K // _BLOCK)
    pad = M * _BLOCK - K
    if pad:
        P = np.concatenate([P, np.broadcast_to(np.eye(2), (pad, 2, 2))])
        q = np.concatenate([q, np.zeros((pad, 2, width))])
    # Axis 0 is the position in the block, so that each step below is one batched product.
    S = np.zeros((_BLOCK + 1, M, 2, 2 + width))
    S[0, :, :, :2] = np.eye(2)
    S[1:, :, :, 2:] = q.reshape(M, _BLOCK, 2, width).transpose(1, 0, 2, 3)
    P = P.reshape(M, _BLOCK, 2, 2).transpose(1, 0, 2, 3)
    for i in range(_BLOCK):
        S[i + 1] += P[i] @ S[i]
    starts = _scan(S[-1, :, :, :2], S[-1, :, :, 2:], z0)
    z = np.empty((2, M * _BLOCK + 1, width))
    body = z[:, :-1].reshape(2, M, _BLOCK, width)
    np.matmul(S[:-1, :, :, :2].transpose(2, 1, 0, 3), starts[:, :-1].transpose(1, 0, 2), out=body)
    body += S[:-1, :, :, 2:].transpose(2, 1, 0, 3)
    z[:, -1] = starts[:, -1]
    return z[:, :K + 1]


def rk4_linear(a_half, f_half, y0, yp0, h):
    """Classical RK4 for ``y'' + 2 a(t) y = f(t)`` on a uniform node grid.

    ``a_half`` holds a on the 2N+1 half grid (index 2k is node k) and
    ``f_half`` the forcings there, shape (2N+1, width), one column per
    solution.  ``y0`` and ``yp0`` are the width initial values and slopes.
    Returns ``(y, y')``, each (N+1, width) and C-contiguous, with row 0 the
    initial data.  To march backward, pass the half-grid arrays reversed
    and a negative h.  The N step maps are applied as a blocked scan
    (``_scan``), which agrees with applying them one at a time to rounding.
    """
    P, q = _step_maps(a_half, f_half, h)
    z = _scan(P, q, np.array([y0, yp0], float))
    return z[0], z[1]


def cumsimpson(g_half, h):
    """Cumulative composite Simpson integral along axis 0 of a uniform grid.

    ``g_half`` holds the integrand on the 2N+1 half grid, as in
    ``rk4_linear``; row k of the result is the integral from node 0 to
    node k.  A negative h integrates arrays given in reverse order.
    """
    out = np.zeros((len(g_half) // 2 + 1,) + g_half.shape[1:])
    out[1:] = np.cumsum(h / 6.0 * (g_half[0:-1:2] + 4.0 * g_half[1::2] + g_half[2::2]), axis=0)
    return out
