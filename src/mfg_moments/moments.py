"""Forward moment dynamics of the controlled jump-diffusion.

With drift 2 A(t) x + B(t), diffusion level delta and compound-Poisson
jumps of rate lambda, the expectation solves the regular second-order
problem ``E'' + 2 a(t) E = -b(t)`` with ``E(0) = x0`` and
``E'(0) = 2 A(0) x0 + B(0) + lambda M1``, and the per-coordinate variance
``V' = 4 A V + K`` with the production rate ``K = delta^2 + lambda M2 / n``;
a(t) and b(t) are the ones the backward solution was solved with, and
lambda M1 and lambda M2 are the spec's ``lam_M1`` and ``lam_M2``.

Only the fundamental solution, a Dirac mass at 0, is propagated
(``fundamental_path``): its E columns and the linearizer's partner
``psi'' + 2 a psi = 0``, ``psi(0) = 0``, ``psi'(0) = 1/u(0)``, in one
``ode.rk4_linear`` call, with the signed variance pair ``K u psi``.  By the
method of characteristics, ``m_hat(t, w) = G_hat(t, w) m0_hat(w r)`` with
the flow factor ``r = u(t)/u(0)``, so any initial law's moments are the
exact image ``E = r x0 + E_fund``, ``V = r^2 v0 + V_fund`` (``law_image``;
literal mode sets r = 1).  ``propagate_moments`` maps, then folds V by abs
(past a focal time the pair can be negative) and checks the residuals.
``solve_scenario`` picks the mean-field fixed point or a single solve;
``solve_scenario_backward`` is the same choice for a caller that needs no moment path.
The fixed point solves the linearizer u once on its coarse grid; each
iteration advances only v(0), which fixes E'(0), and the fundamental E columns.

Off-grid values come from cubic Hermite interpolants (``hermite``) built
from the derivatives the propagation already has: E from E', E' from
``E'' = -2 a E - b``, and V from the map's derivative ``V' = 2 r r' v0 + K (u' psi + u psi')``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, FormulaValidationError, ScenarioError
from .hermite import Hermite, uniform_step
from .hjb import HjbSolution, _linearize, nonzero_u0, solve_backward
from .model import InitialLaw, ScenarioSpec, eval_scalar_grid, eval_vector_grid
from .ode import require_finite, rk4_linear
from .table import read_table, write_table

# A closed form whose moment-equation residual exceeds this (relative) is rejected.
_CLOSED_FORM_TOL = 1e-8
# The mean-field fixed point stops when its expectation increment drops below this.
_MEANFIELD_TOL = 1e-8


@dataclass
class MomentPath:
    """Time-gridded expectation and per-coordinate variance with diagnostics.

    ``E_prime`` and ``V_prime`` are the node slopes of the Hermite
    interpolants behind ``E_at`` and ``V_at``; ``E_second`` is the slope
    of E', which the mean-field fixed point interpolates.  ``fundamental``
    is the path an initial law's path is the image of (for a law at the
    origin, it shares the arrays that need no fold).  A fundamental path
    keeps V as the signed pair, negative past a focal time, and has no
    residuals (NaN) and no fundamental.
    """

    t: np.ndarray
    E: np.ndarray         # (N+1, n)
    E_prime: np.ndarray   # (N+1, n)
    E_second: np.ndarray  # (N+1, n)
    V: np.ndarray         # (N+1,)
    V_prime: np.ndarray   # (N+1,)
    K: float
    residual_E: float = math.nan
    residual_V: float | None = None
    residual_V_note: str = ""
    focal: bool = False
    literal: bool = False
    fundamental: MomentPath | None = None

    @property
    def n(self) -> int:
        return self.E.shape[1]

    @cached_property
    def _E_interp(self) -> Hermite:
        return Hermite(self.t, self.E, self.E_prime)

    @cached_property
    def _V_interp(self) -> Hermite:
        return Hermite(self.t, self.V, self.V_prime)

    def E_at(self, t):
        return self._E_interp(t)

    def V_at(self, t):
        return self._V_interp(t)


def variance_rate(spec: ScenarioSpec) -> float:
    """Per-coordinate variance production rate delta^2 + lambda E|Z|^2 / n."""
    return spec.delta**2 + spec.lam_M2 / spec.n


def fundamental_path(sol: HjbSolution, spec: ScenarioSpec) -> MomentPath:
    """The fundamental solution's moments, with the a(t) and b(t) ``sol`` holds: one ``rk4_linear``.

    The E columns (forcing -b, from ``E(0) = 0``, ``E'(0) = B(0) + lambda M1``)
    and psi (unforced) in one call; V is the signed pair, unchecked.
    """
    t = sol.t
    N = len(t) - 1
    n = spec.n
    u0 = nonzero_u0(sol.u)
    K = variance_rate(spec)

    th = np.linspace(0.0, spec.T, 2 * N + 1)
    a_grid = eval_scalar_grid(sol.a_fn, th, "a")
    b_grid = eval_vector_grid(sol.b_fn, th, n, "b")
    forcing = np.hstack([-b_grid, np.zeros((2 * N + 1, 1))])
    slope0 = (*(sol.v[0] / u0 + spec.lam_M1), 1.0 / u0)
    y, yp = rk4_linear(a_grid, forcing, np.zeros(n + 1), slope0, t[1] - t[0])
    require_finite("fundamental path", t, E=y[:, :n], E_prime=yp[:, :n], psi=y[:, n],
                   psi_prime=yp[:, n])
    E, psi = y[:, :n], y[:, n]
    return MomentPath(t=t, E=E, E_prime=yp[:, :n], E_second=-2.0 * a_grid[::2, None] * E - b_grid[::2],
                      V=K * sol.u * psi, V_prime=K * (sol.udot * psi + sol.u * yp[:, n]), K=K)


def law_image(law: InitialLaw, r, E_fund, V_fund):
    """``(E, V) = (r x0 + E_fund, r^2 v0 + V_fund)``: an initial law's moments at flow factor r.

    ``r = u(t)/u(0)`` (1 in literal mode) at one time or on a grid, with the
    fundamental E of shape ``r.shape + (n,)``.  V_fund is the signed pair:
    fold only after this map.  A law at the origin is the fundamental
    solution's own, and its image the fundamental moments themselves.
    """
    return _mean_image(r, law.x0, E_fund), np.square(r) * law.v0 + V_fund if law.v0 else V_fund


def _mean_image(r, x0, E_fund):
    """``r x0 + E_fund``, ``law_image``'s E; with r' and E_fund' (or r'' and E_fund'') its derivatives."""
    x0 = np.asarray(x0, float)
    return np.multiply.outer(r, x0) + E_fund if x0.any() else E_fund


def _flow_factors(lin, literal: bool = False):
    """``(r, r', r'')``, ``r = u/u(0)``, at a solution's or linearizer's nodes; (1, 0, 0) in literal mode."""
    if literal:
        return 1.0, 0.0, 0.0
    u0 = nonzero_u0(lin.u)
    return lin.u / u0, lin.udot / u0, lin.uddot / u0


def propagate_moments(sol: HjbSolution, spec: ScenarioSpec, literal_init: bool = False) -> MomentPath:
    """E(t) and V(t) of the scenario's initial law: ``fundamental_path``'s image, V folded and checked.

    ``literal_init`` switches to the diagnostic mode in which the initial
    expectation and variance are added without the flow factor (r = 1:
    E = x0 + E_fund, V = v0 + V_fund); it exists only for comparison
    experiments and is known to disagree with simulation whenever A != 0
    and the initial state is nonzero.
    """
    f = fundamental_path(sol, spec)
    law = spec.initial
    r, rp, rpp = _flow_factors(sol, literal_init)
    E, V_pair = law_image(law, r, f.E, f.V)
    Ep, Epp = _mean_image(rp, law.x0, f.E_prime), _mean_image(rpp, law.x0, f.E_second)
    Vp_pair = 2.0 * law.v0 * r * rp + f.V_prime if law.v0 else f.V_prime
    V, Vp = V_pair, Vp_pair
    if np.signbit(V_pair).any():  # fold by abs; a pair without a sign bit is kept as it is
        V, Vp = np.abs(V_pair), np.where(V_pair < 0.0, -Vp_pair, Vp_pair)
    path = MomentPath(
        t=sol.t, E=E, E_prime=Ep, E_second=Epp, V=V, V_prime=Vp, K=f.K, literal=literal_init, fundamental=f,
        focal=bool(np.min(V_pair) < -1e-9 * max(1.0, float(np.max(V)))),
    )
    rep = residual_check(path, sol)
    path.residual_E = rep.rE
    path.residual_V = rep.rV
    path.residual_V_note = rep.note
    return path


@dataclass(frozen=True)
class ResidualReport:
    rE: float
    rV: float | None
    note: str


# The stencil nodes are at most T/STENCIL_PANELS apart, whatever the grid.  Closer
# nodes pass on more rounding (divided by 12 H^2), wider ones more truncation
# error (H^4); at 512 neither passed 1.5e-7 on the test and benchmark scenarios
# for grids from N = 1024 to 65536.
STENCIL_PANELS = 512


def _stencils(t: np.ndarray, y: np.ndarray):
    """5-point central y' and y'' on the coarsest node stride at most T/STENCIL_PANELS.

    Five points, because a 3-point truncation error would mask the
    equations on rapidly growing solutions.  Returns the node indices at
    which the derivatives hold, y' and y'' there.
    """
    s = max(1, (len(t) - 1) // STENCIL_PANELS)
    ys = y[::s]
    H = s * (t[1] - t[0])
    d1 = (-ys[4:] + 8.0 * ys[3:-1] - 8.0 * ys[1:-3] + ys[:-4]) / (12.0 * H)
    d2 = (-ys[4:] + 16.0 * ys[3:-1] - 30.0 * ys[2:-2] + 16.0 * ys[1:-3] - ys[:-4]) / (12.0 * H**2)
    return s * np.arange(2, len(ys) - 2), d1, d2


def residual_check(path: MomentPath, sol: HjbSolution) -> ResidualReport:
    """Max-norm residuals of the second-order moment equations, by ``_stencils``.

    rE checks E'' + 2 a E + b and rV checks V'' + 4 a V - ((V')^2 - K^2)/(2V),
    with the a and b that ``sol`` was solved with.
    The variance residual is skipped when V comes within 1e-6 of zero on
    the stencil nodes, since the equation divides by 2V.
    """
    t, E, V = path.t, path.E, path.V
    n = E.shape[1]

    idx, _, Epp = _stencils(t, E)
    a_s = eval_scalar_grid(sol.a_fn, t[idx], "a")
    b_s = eval_vector_grid(sol.b_fn, t[idx], n, "b")
    rE = float(np.max(np.abs(Epp + 2.0 * a_s[:, None] * E[idx] + b_s)))

    if float(np.min(V[idx])) < 1e-6:
        return ResidualReport(rE=rE, rV=None, note="skipped (V near zero)")
    _, Vp, Vpp = _stencils(t, V)
    rV = float(np.max(np.abs(Vpp + 4.0 * a_s * V[idx] - (Vp**2 - path.K**2) / (2.0 * V[idx]))))
    return ResidualReport(rE=rE, rV=rV, note="")


# ---------------------------------------------------------------------------
# constant-coefficient closed forms


@dataclass(frozen=True)
class ClosedFormMoments:
    """Explicit moment trajectories for constant a, b and production rate K.

    Branch ``oscillatory`` (a > 0):
        E = C1_E sin(nu t) + C2_E cos(nu t) - b/(2a),          nu = sqrt(2a)
        V = v_const + C1_V sin(2 nu t) + C2_V cos(2 nu t)
    Branch ``exponential`` (a < 0):
        E = C1_E sinh(mu t) + C2_E cosh(mu t) - b/(2a),        mu = sqrt(-2a)
        V = C1_V + v_const exp(2 mu t) + C2_V exp(-2 mu t)
    Branch ``polynomial`` (a = 0):
        E = C2_E + C1_E t - b t^2 / 2
        V = v_const + C1_V t + C2_V t^2

    Every instance is residual-validated against the second-order moment
    equations before being returned.
    """

    branch: str
    a: float
    b: float
    K: float
    C1_E: float
    C2_E: float
    C1_V: float
    C2_V: float
    v_const: float

    def E_fn(self, t):
        t = np.asarray(t, float)
        if self.branch == "oscillatory":
            nu = math.sqrt(2.0 * self.a)
            return self.C1_E * np.sin(nu * t) + self.C2_E * np.cos(nu * t) - self.b / (2 * self.a)
        if self.branch == "exponential":
            mu = math.sqrt(-2.0 * self.a)
            return self.C1_E * np.sinh(mu * t) + self.C2_E * np.cosh(mu * t) - self.b / (2 * self.a)
        return self.C2_E + self.C1_E * t - 0.5 * self.b * t * t

    def V_fn(self, t):
        t = np.asarray(t, float)
        if self.branch == "oscillatory":
            nu2 = 2.0 * math.sqrt(2.0 * self.a)
            return self.v_const + self.C1_V * np.sin(nu2 * t) + self.C2_V * np.cos(nu2 * t)
        if self.branch == "exponential":
            mu2 = 2.0 * math.sqrt(-2.0 * self.a)
            return self.C1_V + self.v_const * np.exp(mu2 * t) + self.C2_V * np.exp(-mu2 * t)
        return self.v_const + self.C1_V * t + self.C2_V * t * t

    def _derivs(self, t):
        """Analytic (E', E'', V', V'') used by the residual validation."""
        t = np.asarray(t, float)
        if self.branch == "oscillatory":
            nu = math.sqrt(2.0 * self.a)
            s, c = np.sin(nu * t), np.cos(nu * t)
            Ep = nu * (self.C1_E * c - self.C2_E * s)
            Epp = -nu**2 * (self.C1_E * s + self.C2_E * c)
            s2, c2 = np.sin(2 * nu * t), np.cos(2 * nu * t)
            Vp = 2 * nu * (self.C1_V * c2 - self.C2_V * s2)
            Vpp = -4 * nu**2 * (self.C1_V * s2 + self.C2_V * c2)
            return Ep, Epp, Vp, Vpp
        if self.branch == "exponential":
            mu = math.sqrt(-2.0 * self.a)
            sh, ch = np.sinh(mu * t), np.cosh(mu * t)
            Ep = mu * (self.C1_E * ch + self.C2_E * sh)
            Epp = mu**2 * (self.C1_E * sh + self.C2_E * ch)
            ep, em = np.exp(2 * mu * t), np.exp(-2 * mu * t)
            Vp = 2 * mu * (self.v_const * ep - self.C2_V * em)
            Vpp = 4 * mu**2 * (self.v_const * ep + self.C2_V * em)
            return Ep, Epp, Vp, Vpp
        Ep = self.C1_E - self.b * t
        Epp = np.full_like(t, -self.b)
        Vp = self.C1_V + 2 * self.C2_V * t
        Vpp = np.full_like(t, 2 * self.C2_V)
        return Ep, Epp, Vp, Vpp


def closed_form_moments_const(
    a: float,
    b: float,
    K: float,
    init: dict,
    t_span: float = 1.0,
) -> ClosedFormMoments:
    """Fit the closed-form constants from initial data and validate them.

    ``init`` carries E0, E0p (initial slope), V0 and V0p.  The oscillatory
    and exponential variance branches require V0 > 0; the returned form is
    checked against the second-order moment equations on a sample grid and
    a residual failure raises rather than returning a bad formula.
    """
    E0 = float(init["E0"])
    E0p = float(init["E0p"])
    V0 = float(init["V0"])
    V0p = float(init["V0p"])

    if a > 0:
        branch = "oscillatory"
        nu = math.sqrt(2.0 * a)
        C1_E = E0p / nu
        C2_E = E0 + b / (2.0 * a)
        if not V0 > 0:
            raise ScenarioError("V0 must be > 0 for the oscillatory variance branch")
        C1_V = V0p / (2.0 * nu)
        C2_V = (V0**2 - C1_V**2 + K**2 / (8.0 * a)) / (2.0 * V0)
        v_const = V0 - C2_V
        form = ClosedFormMoments(branch, a, b, K, C1_E, C2_E, C1_V, C2_V, v_const)
    elif a < 0:
        branch = "exponential"
        mu = math.sqrt(-2.0 * a)
        C1_E = E0p / mu
        C2_E = E0 + b / (2.0 * a)
        if not V0 > 0:
            raise ScenarioError("V0 must be > 0 for the exponential variance branch")
        d = V0p / (2.0 * mu)
        D0 = (V0**2 - d**2 - K**2 / (8.0 * a)) / (2.0 * V0)
        s = V0 - D0
        P = 0.5 * (s + d)
        Q = 0.5 * (s - d)
        form = ClosedFormMoments(branch, a, b, K, C1_E, C2_E, D0, Q, P)
    else:
        branch = "polynomial"
        if V0 < 1e-12:
            if abs(abs(V0p) - K) > 1e-9 * max(1.0, K):
                raise ScenarioError("V0 = 0 requires |V0p| = K in the polynomial branch")
            V2 = 0.0
        else:
            V2 = (V0p**2 - K**2) / (4.0 * V0)
        form = ClosedFormMoments(branch, a, b, K, E0p, E0, V0p, V2, V0)

    _validate_closed_form(form, t_span, _CLOSED_FORM_TOL)
    return form


def _validate_closed_form(form: ClosedFormMoments, t_span: float, tol: float) -> None:
    t = np.linspace(0.0, t_span, 201)
    E = form.E_fn(t)
    V = form.V_fn(t)
    Ep, Epp, Vp, Vpp = form._derivs(t)
    rE = float(np.max(np.abs(Epp + 2.0 * form.a * E + form.b)))
    scale_E = max(1.0, float(np.max(np.abs(E))))
    if rE > tol * scale_E:
        raise FormulaValidationError(f"expectation closed form residual {rE:.3e}")
    mask = V > 1e-9
    if mask.any():
        r = Vpp[mask] + 4.0 * form.a * V[mask] - (Vp[mask] ** 2 - form.K**2) / (2.0 * V[mask])
        rV = float(np.max(np.abs(r)))
        scale_V = max(1.0, float(np.max(np.abs(V))))
        if rV > tol * scale_V:
            raise FormulaValidationError(f"variance closed form residual {rV:.3e}")


# ---------------------------------------------------------------------------
# mean-field coupling


@dataclass
class MeanFieldSolution:
    sol: HjbSolution
    path: MomentPath
    iterations: int
    residual: float  # max-norm residual of E'' + b2 E' + (2a+b1) E + b0


def solve_meanfield_fixedpoint(
    spec: ScenarioSpec,
    N: int = 4096,
    max_iter: int = 200,
) -> MeanFieldSolution:
    """Damped Picard iteration for the mean-field coupled slope b(t).

    Freezes b_k(t) = b0 + b1 E_k(t) + b2 E_k'(t), solves the backward and
    forward systems with it, and averages successive expectation iterates.
    Iterations run on a coarse grid (whose discretization error sits far
    below the fixed-point tolerance).  The linearizer u does not depend on
    b, so it is solved once there; each iteration advances only what b
    enters: v(0), by one Simpson quadrature, which fixes E'(0), and the
    fundamental E columns of ``E'' + 2 a E = -b_k``, which ``law_image``
    carries to the initial law as ``propagate_moments`` does.  The converged
    coupling is then re-solved once at the requested resolution by
    ``solve_backward`` and ``propagate_moments``, and the result is verified
    against the reduced linear ODE E'' + b2 E' + (2a+b1) E = -b0.
    ``max_iter`` below 1 is a ``ScenarioError``.
    """
    if max_iter < 1:
        raise ScenarioError(f"mean-field fixed point: max_iter={max_iter} must be at least 1")
    if spec.cost.b.kind != "meanfield":
        raise ScenarioError("scenario does not use a mean-field coupled b")
    if spec.cost.a.kind != "const":
        raise ScenarioError("mean-field fixed point requires constant a")
    n = spec.n
    coef = spec.cost.b
    b0 = np.asarray(coef.b0 if len(coef.b0) == n else coef.b0 * n, float)
    b1, b2 = coef.b1, coef.b2

    N_it = min(N, max(256, N // 16))
    t_it = np.linspace(0.0, spec.T, N_it + 1)
    E = np.tile(spec.x0, (N_it + 1, 1))
    Ep = np.zeros_like(E)
    Epp = np.zeros_like(E)
    E_map_prev = None

    def frozen_b(grid_t, E_grid, Ep_grid, Epp_grid):
        E_it = Hermite(grid_t, E_grid, Ep_grid)
        Ep_it = Hermite(grid_t, Ep_grid, Epp_grid)
        return lambda tk: b0 + b1 * E_it(tk) + b2 * Ep_it(tk)

    iteration = 0
    converged = b1 == 0.0 and b2 == 0.0  # constant map: one solve is the fixed point
    if not converged:
        lin = _linearize(spec, N_it)
        r, rp, rpp = _flow_factors(lin)
        h = t_it[1] - t_it[0]
        a_nodes = lin.a_grid[::2, None]
    while not converged:
        iteration += 1
        if iteration > max_iter:
            raise ConvergenceError(
                f"mean-field fixed point did not converge in {max_iter} iterations "
                f"(last increment {delta:.3e})"
            )
        b_grid = eval_vector_grid(frozen_b(t_it, E, Ep, Epp), lin.th, n, "b")
        E_f, Ep_f = rk4_linear(lin.a_grid, -b_grid, np.zeros(n), lin.v(b_grid)[0] / lin.u[0] + lin.lam_M1, h)
        E_new, Ep_new = _mean_image(r, spec.x0, E_f), _mean_image(rp, spec.x0, Ep_f)
        Epp_new = _mean_image(rpp, spec.x0, -2.0 * a_nodes * E_f - b_grid[::2])
        # Converged when consecutive map outputs agree or the damped
        # increment drops below _MEANFIELD_TOL, whichever happens first.
        delta = 0.5 * float(np.max(np.abs(E_new - E)))
        if E_map_prev is not None:
            delta = min(delta, float(np.max(np.abs(E_new - E_map_prev))))
        if delta < _MEANFIELD_TOL:
            E, Ep, Epp = E_new, Ep_new, Epp_new
            break
        E_map_prev = E_new
        E = 0.5 * (E_new + E)
        Ep = 0.5 * (Ep_new + Ep)
        Epp = 0.5 * (Epp_new + Epp)

    # Final pass with the converged coupling at the requested resolution
    # keeps (sol, path, b) consistent.
    iteration = max(iteration, 1)
    sol = solve_backward(spec, N, b_override=frozen_b(t_it, E, Ep, Epp))
    path = propagate_moments(sol, spec)

    a = spec.cost.a.values[0]
    idx, Ep, Epp = _stencils(path.t, path.E)
    residual = float(np.max(np.abs(Epp + b2 * Ep + (2.0 * a + b1) * path.E[idx] + b0)))
    return MeanFieldSolution(sol=sol, path=path, iterations=iteration, residual=residual)


def _solve(spec: ScenarioSpec, N: int) -> tuple[HjbSolution, MomentPath | None]:
    """The fixed point's (sol, path) for a mean-field b; one solve and no path for any other."""
    if spec.cost.b.kind == "meanfield":
        mf = solve_meanfield_fixedpoint(spec, N=N)
        return mf.sol, mf.path
    return solve_backward(spec, N), None


def solve_scenario(spec: ScenarioSpec, N: int = 4096) -> tuple[HjbSolution, MomentPath]:
    """(sol, path) of any scenario: the fixed point for a mean-field b, one solve for any other."""
    sol, path = _solve(spec, N)
    return sol, propagate_moments(sol, spec) if path is None else path


def solve_scenario_backward(spec: ScenarioSpec, N: int = 4096) -> HjbSolution:
    """``solve_scenario``'s backward solution alone: an explicit b propagates no moment path."""
    return _solve(spec, N)[0]


def _moment_columns(n: int) -> list[str]:
    return ["t", *(f"E_{i + 1}" for i in range(n)), "V"]


def moments_to_csv(path: MomentPath) -> str:
    """CSV with a header comment carrying K, the residuals and the focal flag."""
    meta = {"K": path.K, "residual_E": path.residual_E,
            "residual_V": math.nan if path.residual_V is None else path.residual_V,
            "focal": int(path.focal)}
    return write_table(_moment_columns(path.n), np.column_stack([path.t, path.E, path.V]), meta)


def moments_from_csv(text: str) -> MomentPath:
    """Rebuild a MomentPath from its CSV.

    The CSV holds no coefficients, so the slopes of the E, E' and V
    interpolants are second-order finite differences of the columns, on a
    ``t`` column that must be an increasing uniform grid (``ScenarioError``).
    """
    meta, _, data = read_table(
        text, "moments", "t, E_1..n, V",
        lambda h: len(h) >= 3 and h == _moment_columns(len(h) - 2),
        meta_keys=("K", "residual_E", "residual_V", "focal"), min_rows=3)
    t, E, V = data[:, 0], data[:, 1:-1], data[:, -1]
    uniform_step(t, "moments CSV t column")
    rv = meta["residual_V"]
    Ep = np.gradient(E, t, axis=0, edge_order=2)
    return MomentPath(
        t=t, E=E, E_prime=Ep, E_second=np.gradient(Ep, t, axis=0, edge_order=2),
        V=V, V_prime=np.gradient(V, t, edge_order=2),
        K=meta["K"],
        residual_E=meta["residual_E"],
        residual_V=None if math.isnan(rv) else rv,
        focal=bool(meta["focal"]),
    )
