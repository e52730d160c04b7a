"""Backward coefficient system for the quadratic pay-off.

The quadratic coefficient A(t) solves the Riccati equation
``A' = -2 A^2 - a(t)`` with terminal value ``A(T) = A_T``.  Instead of
integrating it directly (it can blow up inside the horizon), we use the
substitution ``A = u'/(2u)`` which turns it into the linear oscillator
``u'' + 2 a(t) u = 0`` with ``u(T) = 1``, ``u'(T) = 2 A_T`` -- regular
everywhere.  The linear coefficient is carried as ``v = u B`` (also
regular); the exponential weight ``exp(2 int_eta^t A)`` is the exact signed
ratio ``u(t)/u(eta)``.  A, B and the constant term C are derived
quantities; C is only meaningful up to the first focal time when its
sources are singular there.

Only (u, u') is integrated (``ode.rk4_linear``); v and C, whose sources
are known along u, are cumulative Simpson quadratures from T.  The
linearizer does not depend on the running-cost slope b and v is linear
in it, so ``solve_backward`` is two steps: ``_linearize`` (u, u', their
half-grid values and the focal times) and ``_Linearizer.v``, the one
quadrature b enters.  The mean-field fixed point builds the first once and
repeats only the second.

Off-grid values come from cubic Hermite interpolants (``hermite``) built
from the solver's own derivatives: u from u', u' from ``u'' = -2 a(t) u``
and v from ``v' = -lambda M1 u' - b u``; lambda M1 and lambda M2 are the
spec's ``lam_M1`` and ``lam_M2``.  Focal times are the zeros of
the u cubic, found by safeguarded Newton steps inside each sign change.
``check_conditions`` decides both integrability conditions from them,
from u(0) and from whether v vanishes, without solving again.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridResolutionError, ScenarioError, SingularityError
from .hermite import Hermite, uniform_step
from .model import (
    ScenarioSpec,
    eval_scalar_grid,
    eval_vector_grid,
    scalar_fn,
    vector_fn,
)
from .ode import cumsimpson, require_finite, rk4_linear
from .table import read_table, write_table

# |u| below this is treated as a zero of the linearizer.
U_ZERO_TOL = 1e-12


@dataclass
class HjbSolution:
    """Grid solution of the backward coefficient system.

    ``u`` and ``udot`` are the linearizer and its derivative (regular on all
    of [0, T]); ``v = u B`` is regular as well.  ``A = udot/(2u)`` and
    ``B = v/u`` carry NaN markers where ``|u| < 1e-12``.  ``C`` is NaN past
    the first focal time (going backward from T) whenever its sources are
    singular there.  ``uddot`` and ``vdot`` are the derivatives of ``udot``
    and ``v`` at the nodes, the slopes of their Hermite interpolants.
    ``a_fn`` and ``b_fn`` are the coefficients it was solved with, the
    scenario's own or a ``b_override``.
    """

    t: np.ndarray
    u: np.ndarray
    udot: np.ndarray
    A: np.ndarray
    v: np.ndarray  # (N+1, n)
    B: np.ndarray  # (N+1, n)
    C: np.ndarray
    singular_times: tuple[float, ...]
    uddot: np.ndarray
    vdot: np.ndarray  # (N+1, n)
    a_fn: Callable[[np.ndarray], np.ndarray]
    b_fn: Callable[[np.ndarray], np.ndarray]

    @property
    def n(self) -> int:
        return self.v.shape[1]

    @cached_property
    def _u_interp(self) -> Hermite:
        return Hermite(self.t, self.u, self.udot)

    @cached_property
    def _udot_interp(self) -> Hermite:
        return Hermite(self.t, self.udot, self.uddot)

    @cached_property
    def _v_interp(self) -> Hermite:
        return Hermite(self.t, self.v, self.vdot)

    def u_at(self, t):
        return self._u_interp(t)

    def v_at(self, t):
        return self._v_interp(t)

    def A_at(self, t):
        return self._udot_interp(t) / (2.0 * self._u_interp(t))

    def B_at(self, t):
        u = self._u_interp(t)
        return self._v_interp(t) / (u[..., None] if np.ndim(t) else u)

    def C_at(self, t) -> float:
        finite = np.isfinite(self.C)
        if not finite.any():
            return math.nan
        t0 = self.t[finite][0]
        if np.any(np.asarray(t) < t0 - 1e-15):
            return math.nan
        return float(np.interp(t, self.t[finite], self.C[finite]))

    def weight(self, t: float, eta: float) -> float:
        """exp(2 int_eta^t A) as the signed ratio u(t)/u(eta)."""
        if t == eta:
            return 1.0
        ue = float(self._u_interp(eta))
        if abs(ue) < U_ZERO_TOL:
            return math.nan
        return float(self._u_interp(t)) / ue

    def is_singular_on(self, t_max: float, t_min: float = 0.0) -> bool:
        return any(t_min <= s <= t_max for s in self.singular_times)


def solve_backward(spec: ScenarioSpec, N: int = 4096, b_override=None) -> HjbSolution:
    """Solve the backward coefficient system on a uniform N+1-node grid.

    Only the linearizer needs an ODE: ``rk4_linear`` integrates
    ``u'' + 2 a(t) u = 0`` backward from ``u(T) = 1``, ``u'(T) = 2 A_T``.
    The sources of ``v' = -lambda M1 u' - b u`` and of
    ``C' = -c - |B|^2/2 - n delta^2 A - lambda (M2 A + M1.B)`` are then
    known along the solution, so v and C are cumulative Simpson integrals
    from T of sources evaluated on the Hermite cubics of u, u' and v.
    ``b_override`` substitutes an explicit time function for the
    running-cost slope, which is how the mean-field fixed point freezes
    its coupling; a mean-field scenario without an override is rejected.
    The solution keeps the a(t) and b(t) used, for every later step to read.
    """
    lin = _linearize(spec, N)
    n = spec.n
    c_fn = scalar_fn(spec.cost.c)
    if b_override is not None:
        b_fn = b_override
    elif spec.cost.b.kind == "meanfield":
        raise ScenarioError("mean-field coupled b requires the fixed-point driver")
    else:
        b_fn = vector_fn(spec.cost.b, n)

    t_grid, th, h, u, udot = lin.t, lin.th, lin.h, lin.u, lin.udot
    b_grid = eval_vector_grid(b_fn, th, n, "b")
    c_grid = eval_scalar_grid(c_fn, th, "c")
    v = lin.v(b_grid)
    vdot = _vdot(b_grid[::2], lin.lam_M1, u, udot)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uz = np.where(lin.u_h != 0.0, lin.u_h, 1e-300)
        A_h = lin.udot_h / (2.0 * uz)
        B_h = Hermite(t_grid, v, vdot)(th) / uz[:, None]
        Cdot_h = (-c_grid - 0.5 * np.sum(B_h * B_h, axis=1) - n * spec.delta**2 * A_h
                  - spec.lam_M2 * A_h - B_h @ lin.lam_M1)
        C = spec.terminal.C_T + cumsimpson(Cdot_h[::-1], -h)[::-1]

    # Derived quantities with non-finite markers at zeros of u.
    near_zero = np.abs(u) < U_ZERO_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        A = np.where(near_zero, np.nan, udot / (2.0 * np.where(near_zero, 1.0, u)))
        B = np.where(near_zero[:, None], np.nan, v / np.where(near_zero, 1.0, u)[:, None])

    singular = lin.singular_times
    if singular:
        tainted = spec.delta > 0 or spec.lam > 0 or not _v_vanishes(v)
        if tainted:
            C = np.where(t_grid < max(singular) + 0.5 * h, np.nan, C)
    C_after_focal = np.where(t_grid < max(singular, default=-h) + 0.5 * h, 0.0, C)
    require_finite("backward solve", t_grid[::-1], v=v[::-1], C=C_after_focal[::-1])

    return HjbSolution(
        t=t_grid,
        u=u,
        udot=udot,
        A=A,
        v=v,
        B=B,
        C=C,
        singular_times=singular,
        uddot=lin.uddot,
        vdot=vdot,
        a_fn=lin.a_fn,
        b_fn=b_fn,
    )


@dataclass(frozen=True)
class _Linearizer:
    """The part of the backward solve that does not depend on b, on one grid.

    ``u`` and ``udot`` solve ``u'' + 2 a u = 0`` from ``u(T) = 1``,
    ``u'(T) = 2 A_T``; ``u_h`` and ``udot_h`` are their Hermite values on
    the half grid ``th`` (index 2k is node k), where every Simpson source
    along u is evaluated.  Since ``v = u B`` is linear in b, ``v`` is the
    solve's one step that b enters: the mean-field fixed point builds this
    once and calls ``v`` with each frozen coupling.
    """

    t: np.ndarray
    th: np.ndarray
    h: float
    a_fn: Callable[[np.ndarray], np.ndarray]
    a_grid: np.ndarray  # a on th
    u: np.ndarray
    udot: np.ndarray
    uddot: np.ndarray
    u_h: np.ndarray
    udot_h: np.ndarray
    lam_M1: np.ndarray  # lambda M1, the jumps' drift
    B_T: np.ndarray
    singular_times: tuple[float, ...]

    def v(self, b_grid: np.ndarray) -> np.ndarray:
        """v at the nodes for b on the half grid: ``v' = -lambda M1 u' - b u``, from B_T."""
        vdot_h = _vdot(b_grid, self.lam_M1, self.u_h, self.udot_h)
        return self.B_T + cumsimpson(vdot_h[::-1], -self.h)[::-1]


def _linearize(spec: ScenarioSpec, N: int) -> _Linearizer:
    """The linearizer of ``spec`` on N+1 nodes, with its focal times (``GridResolutionError``)."""
    if N < 100:
        raise ScenarioError(f"grid N={N}: must be >= 100")
    a_fn = scalar_fn(spec.cost.a)
    T = spec.T
    h = T / N
    th = np.linspace(0.0, T, 2 * N + 1)
    a_grid = eval_scalar_grid(a_fn, th, "a")
    t = np.linspace(0.0, T, N + 1)

    A_T = spec.terminal.A_T
    y, yp = rk4_linear(a_grid[::-1], np.zeros((2 * N + 1, 1)), (1.0,), (2.0 * A_T,), -h)
    require_finite("backward solve", t[::-1], u=y, u_prime=yp)
    u, udot = y[::-1, 0], yp[::-1, 0]
    uddot = -2.0 * a_grid[::2] * u
    return _Linearizer(
        t=t, th=th, h=h, a_fn=a_fn, a_grid=a_grid, u=u, udot=udot, uddot=uddot,
        u_h=Hermite(t, u, udot)(th), udot_h=Hermite(t, udot, uddot)(th),
        lam_M1=spec.lam_M1, B_T=np.asarray(spec.terminal.B_T, float),
        singular_times=tuple(_locate_zeros(t, u, udot)),
    )


def u0_vanishes(u: np.ndarray) -> bool:
    """The one rule for u(0) = 0 on a grid: ``|u(0)| < 1e-9 max|u|``."""
    return abs(u[0]) < 1e-9 * float(np.max(np.abs(u)))


def nonzero_u0(u: np.ndarray) -> float:
    """u(0), which the forward flow divides by; ``SingularityError`` where it vanishes."""
    if u0_vanishes(u):
        raise SingularityError("condition (A_int) violated: u(0) = 0")
    return u[0]


def _v_vanishes(v: np.ndarray) -> bool:
    """Whether v = u B vanishes identically: ``max|v| <= 1e-12``."""
    return float(np.max(np.abs(v))) <= 1e-12


def _no_coefficient(t):
    raise ScenarioError("hjb_from_csv without an explicit-b scenario carries no coefficients")


def _vdot(b, lam_M1, u, udot):
    """``v' = -lambda M1 u' - b u``, for b of shape (len(u), n)."""
    return -lam_M1 * udot[:, None] - b * u[:, None]


def _locate_zeros(t: np.ndarray, u: np.ndarray, udot: np.ndarray) -> list[float]:
    """Sign-change zeros of u, refined on its Hermite cubic to 2e-12.

    Signs are sign bits, so a zero on a node (+0.0) is found in one cell.
    """
    crossings = np.nonzero(np.signbit(u[:-1]) != np.signbit(u[1:]))[0]
    if len(crossings) == 0:
        return []
    gaps = np.diff(crossings)
    if np.any(gaps <= 3):
        raise GridResolutionError(
            "grid too coarse to resolve a zero of u: two sign changes within 3 nodes"
        )
    cubic = Hermite(t, u, udot)
    return [cubic.root(k) for k in crossings]


def closed_form_A_const(a: float, A_T: float, T: float, t: float) -> float:
    """Riccati solution A(t) for constant quadratic cost.

    Three branches by the sign of a.  Singular times return a signed
    infinity marker rather than raising.
    """
    tau = T - t
    if a > 0:
        theta = math.atan(math.sqrt(2.0 / a) * A_T) + math.sqrt(2.0 * a) * tau
        if abs(math.cos(theta)) < 1e-14:
            return math.copysign(math.inf, math.sin(theta))
        return math.sqrt(a / 2.0) * math.tan(theta)
    if a == 0:
        denom = 1.0 - 2.0 * A_T * tau
        if abs(denom) < 1e-14:
            return math.copysign(math.inf, A_T)
        return A_T / denom
    mu = math.sqrt(-2.0 * a)
    ch = math.cosh(mu * tau)
    sh = math.sinh(mu * tau)
    u = ch - (2.0 * A_T / mu) * sh
    ud = 2.0 * A_T * ch - mu * sh
    if abs(u) < 1e-14:
        return math.copysign(math.inf, ud)
    return ud / (2.0 * u)


def eval_control_phi(sol: HjbSolution, t: float, x) -> tuple[float, np.ndarray]:
    """Pay-off value Phi(t, x) and control field alpha = grad Phi = 2 A x + B."""
    h = sol.t[1] - sol.t[0]
    if any(abs(t - s) < h for s in sol.singular_times) or abs(sol.u_at(t)) < U_ZERO_TOL:
        raise SingularityError(f"pay-off undefined at focal time t={t}")
    x = np.atleast_1d(np.asarray(x, float))
    A = float(sol.A_at(t))
    B = np.atleast_1d(sol.B_at(t))
    C = sol.C_at(t)
    phi = A * float(x @ x) + float(B @ x) + C
    alpha = 2.0 * A * x + B
    return phi, alpha


@dataclass(frozen=True)
class ConditionReport:
    """Finiteness report for the two boundary-quadrature integrability conditions."""

    a_int_first_finite: bool
    a_int_first_value: float
    a_int_second_finite: bool
    a_int_second_value: tuple[float, ...]
    singular_times: tuple[float, ...]


def check_conditions(sol: HjbSolution, spec: ScenarioSpec) -> ConditionReport:
    """Both integrability conditions, read off ``sol``'s focal times, u(0) and v.

    The first, a finite weight u(T)/u(0), holds when u(0) != 0 and u has
    no focal time on [0, T].  Near a focal time s the second integrand
    u(T) v/u^2 behaves like v(s)/(u'(s)^2 (t - s)^2), or like 1/(t - s) if
    only v(s) = 0, so it holds when u(0) != 0 and either there is no focal
    time or v vanishes identically (``max|v| <= 1e-12``).  A v that vanishes
    at a focal time but not everywhere is a coincidence no grid resolves,
    and counts as divergent.  ``a_int_second_value`` is the trapezoid of
    the integrand on ``sol``'s grid, and 0.0 per coordinate when v vanishes
    (the integrand is then zero, also at a zero of u on a node).  ``spec``
    is not read.
    """
    u0_zero = u0_vanishes(sol.u)
    focal = bool(sol.singular_times)
    v_zero = _v_vanishes(sol.v)
    if v_zero:
        second = (0.0,) * sol.n
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            integrand = sol.u[-1] * sol.v / np.square(sol.u)[:, None]
        second = tuple(float(x) for x in np.trapezoid(integrand, sol.t, axis=0))
    return ConditionReport(
        a_int_first_finite=not (u0_zero or focal),
        a_int_first_value=math.inf if u0_zero else float(abs(sol.u[-1] / sol.u[0])),
        a_int_second_finite=not u0_zero and (not focal or v_zero),
        a_int_second_value=second,
        singular_times=sol.singular_times,
    )


def _hjb_columns(n: int) -> list[str]:
    return ["t", "u", "udot", "A", *(f"v_{i + 1}" for i in range(n)),
            *(f"B_{i + 1}" for i in range(n)), "C"]


def hjb_to_csv(sol: HjbSolution) -> str:
    """CSV with columns t, u, udot, A, v_1..v_n, B_1..B_n, C."""
    return write_table(_hjb_columns(sol.n),
                       np.column_stack([sol.t, sol.u, sol.udot, sol.A, sol.v, sol.B, sol.C]))


def hjb_from_csv(text: str, spec: ScenarioSpec | None = None) -> HjbSolution:
    """Rebuild an HjbSolution from its CSV serialization.

    The slopes of the ``udot`` and ``v`` interpolants come from the
    equations when ``spec`` is given, as in ``solve_backward``.  The CSV
    holds no coefficients, so without a spec (or with a mean-field b,
    which the spec does not fix) they are second-order finite differences
    of the columns, and the solution's coefficients raise ``ScenarioError``.
    So does a ``t`` column that is not an increasing uniform grid, and a
    spec of another dimension than the table's.
    """
    _, header, data = read_table(
        text, "hjb", "t, u, udot, A, v_1..n, B_1..n, C",
        lambda h: len(h) >= 7 and h == _hjb_columns((len(h) - 5) // 2), min_rows=3)
    n = (len(header) - 5) // 2
    t, u, udot, A = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
    uniform_step(t, "hjb CSV t column")
    if spec is not None and spec.n != n:
        raise ScenarioError(f"hjb CSV has {n} coordinates, the scenario {spec.n}")
    v, B, C = data[:, 4 : 4 + n], data[:, 4 + n : 4 + 2 * n], data[:, 4 + 2 * n]
    a_fn = b_fn = _no_coefficient
    if spec is not None and spec.cost.b.kind != "meanfield":
        a_fn, b_fn = scalar_fn(spec.cost.a), vector_fn(spec.cost.b, n)
        a_nodes = eval_scalar_grid(a_fn, t, "a")
        b_nodes = eval_vector_grid(b_fn, t, n, "b")
        slopes = {"uddot": -2.0 * a_nodes * u, "vdot": _vdot(b_nodes, spec.lam_M1, u, udot)}
    else:
        slopes = {
            "uddot": np.gradient(udot, t, edge_order=2),
            "vdot": np.gradient(v, t, axis=0, edge_order=2),
        }
    try:
        singular = tuple(_locate_zeros(t, u, udot))
    except GridResolutionError as exc:
        raise ScenarioError(f"hjb CSV: {exc}") from None
    return HjbSolution(
        t=t,
        u=u,
        udot=udot,
        A=A,
        v=v,
        B=B,
        C=C,
        singular_times=singular,
        **slopes,
        a_fn=a_fn,
        b_fn=b_fn,
    )
