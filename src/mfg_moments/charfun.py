"""Characteristic functions and densities of the controlled process.

Two independent representations of the fundamental solution's
characteristic function are provided: direct quadrature of

    G_hat(t, w) = exp[ -int_0^t ( delta^2/2 |R|^2 + i B(eta) . R
                                  - lambda (p_hat(R) - 1) ) d eta ],
    R(t, eta, w) = w * weight(t, eta),

and the moment form

    G_hat(t, w) = exp[ -|w|^2 V(t)/2 - i w . E(t) + lambda Q(t, w) ],
    Q = int_0^t ( p_hat(R) - 1 + i M1 . R + (M2/n) |R|^2 / 2 ) d eta,

whose Q collects only the third-and-higher order jump contributions, so
that for lambda = 0 the characteristic function is the Gaussian in
(E, V) exactly.  Their pointwise agreement is a standing test.  General
initial laws enter by the method of characteristics:
m_hat(t, w) = G_hat(t, w) * m0_hat(w * weight(t, 0)), and their moments
by the same map, ``moments.law_image``, with r = weight(t, 0).

Densities (one dimension) are inverted from the moment form, so a
lambda = 0 density needs no eta-quadrature at all and a lambda > 0 one
integrates only the lambda Q term.  Since Re(p_hat - 1) <= 0 and
|m0_hat| <= 1, the modulus obeys

    |m_hat(t, w)| <= exp(-delta^2 w^2 S / 2),
    S = int_0^t weight(t, eta)^2 d eta = V_fund(t) / (delta^2 + lambda M2),

and frequencies where that exponent is below -800 (exp underflows to
exactly 0.0 below about -745) are left at zero without being evaluated.
A real law has m_hat(t, -w) = conj m_hat(t, w), and the moment form
evaluated at -w is the conjugate of its value at w to the bit (a
standing test), so only the non-negative half of the spectrum is
evaluated and the rest is its conjugate.

The eta-quadrature is nested Clenshaw-Curtis.  On a focal-free [0, t]
the integrands are analytic in eta, as are u(t)/u(eta) and every jump
law's p_hat, so a rule on Chebyshev points converges geometrically
(Trefethen, SIAM Review 50, 2008).  Level n has the nodes
eta_j = t sin^2(j pi / 2n), j = 0..n, and level n/2 is its even-indexed
nodes, bit for bit.  Level M is evaluated first and accepted when it
agrees with level M/2, read off the same M + 1 values, to 1e-6; a level
that does not doubles, evaluating the integrand only at its n new odd
nodes.

E(t) and V(t) between grid nodes come from the fundamental moment path's
cubic Hermite interpolants (slopes E' and V', see ``moments``), and the
weight u(t)/u(eta) from the backward solution's (slope u', see ``hjb``).
The fundamental path is the scenario's own, reused: one forward propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, GridResolutionError, ScenarioError, SingularityError
from .hjb import HjbSolution, nonzero_u0
from .model import ScenarioSpec, jump_charfn_batch, jump_moments, jump_second_moment_matrix
from .moments import MomentPath, law_image, solve_scenario
from .table import read_table, write_table

_MAX_QUAD_NODES = 1 << 16
# Log-modulus bound below which a density frequency is not evaluated: exp()
# of anything under about -745 is exactly 0.0, and the margin covers the
# difference between the bound's S and its quadrature.
_LOG_UNDERFLOW = -800.0
# Frequency step of moment_via_charfun's 5-point stencils.
_STENCIL_STEP = 1e-3


@dataclass
class DensityGrid:
    """Spatial density at a fixed time with normalization and moment metadata."""

    t: float
    x: np.ndarray
    m: np.ndarray
    mass: float
    mean: float
    variance: float

    def to_csv(self) -> str:
        meta = {"t": self.t, "mass": self.mass, "mean": self.mean, "variance": self.variance}
        return write_table(["x", "m"], np.column_stack([self.x, self.m]), meta)

    @classmethod
    def from_csv(cls, text: str) -> "DensityGrid":
        meta, _, data = read_table(text, "density", "x, m", lambda h: h == ["x", "m"],
                                   meta_keys=("t", "mass", "mean", "variance"), min_rows=2)
        return cls(x=data[:, 0], m=data[:, 1], **meta)


def gaussian_density(E, V: float, x) -> float | np.ndarray:
    """Isotropic Gaussian density with mean E and per-coordinate variance V."""
    if not V > 0:
        raise ScenarioError("V must be > 0")
    E = np.atleast_1d(np.asarray(E, float))
    n = E.shape[0]
    x = np.asarray(x, float)
    if x.ndim <= 1 and x.shape in ((), (n,)):
        dx = np.atleast_1d(x) - E
        return float((2.0 * math.pi * V) ** (-n / 2.0) * math.exp(-(dx @ dx) / (2.0 * V)))
    if n == 1 and x.ndim == 1:
        dx = x - E[0]
        return (2.0 * math.pi * V) ** -0.5 * np.exp(-dx * dx / (2.0 * V))
    dx = x - E
    return (2.0 * math.pi * V) ** (-n / 2.0) * np.exp(-np.sum(dx * dx, axis=-1) / (2.0 * V))


def check_quad_nodes(M: int) -> None:
    """Reject a first eta-quadrature level M whose half level M/2 is not whole or that passes the cap."""
    if M < 2 or M % 2 or M > _MAX_QUAD_NODES:
        raise ScenarioError(f"quadrature nodes M={M}: must be a positive even integer "
                            f"at most {_MAX_QUAD_NODES}")


@lru_cache(maxsize=32)
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes sin^2(j pi / 2n), j = 0..n, and weights of the Clenshaw-Curtis rule on [0, 1].

    The weights are the DCT-I of the Chebyshev moments 2 / (1 - m^2), m
    even, taken by one real FFT of length 2n (Waldvogel, BIT 46, 2006): O(n
    log n) time and O(n) memory.  Node 2i of level n is node i of level
    n/2 bit for bit, since 2i (pi / 2n) rounds to exactly i (pi / n).
    """
    nodes = np.sin(np.arange(n + 1) * (np.pi / (2 * n))) ** 2
    m = np.arange(0.0, n + 1, 2.0)
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - m * m)
    weights = np.fft.irfft(moments, 2 * n)[: n + 1].copy()
    weights[[0, -1]] *= 0.5
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class CharFunEvaluator:
    """Evaluates the solution characteristic function for one scenario.

    Holds the backward solution (u(0) != 0 by ``hjb.u0_vanishes``), the
    fundamental-solution moment path (started from a Dirac mass at the
    origin) and the first Clenshaw-Curtis level M of the eta-quadrature.
    An evaluation accepts level M when it agrees with level M/2, from the
    same M + 1 integrand values, to 1e-6; otherwise it doubles the level,
    evaluating only the new nodes, and fails past ``_MAX_QUAD_NODES``.
    Densities use the moment form, whose only quadrature is the
    lambda Q term, on the non-negative frequencies whose modulus bound does
    not underflow (see the module docstring).
    """

    def __init__(self, spec: ScenarioSpec, sol: HjbSolution, fundamental: MomentPath, M: int = 512):
        check_quad_nodes(M)
        nonzero_u0(sol.u)
        self.spec = spec
        self.sol = sol
        self.fundamental = fundamental
        self.M = M
        if spec.lam > 0:
            # Q's Gaussian correction needs the raw moments, not lambda times them.
            self._M1, self._M2 = jump_moments(spec.jump)
            if spec.n > 1:
                mat = jump_second_moment_matrix(spec.jump)
                iso = self._M2 / spec.n * np.eye(spec.n)
                if float(np.max(np.abs(mat - iso))) > 1e-10 * max(1.0, self._M2):
                    raise ScenarioError(
                        "characteristic-function evaluation for dimension > 1 requires an "
                        "isotropic jump second-moment matrix"
                    )

    @classmethod
    def from_scenario(cls, spec: ScenarioSpec, N: int = 4096, M: int = 512) -> "CharFunEvaluator":
        """Evaluator on ``solve_scenario``'s solution and the fundamental path its one propagation made."""
        sol, path = solve_scenario(spec, N)
        return cls(spec, sol, path.fundamental, M=M)

    # -- internals ---------------------------------------------------------

    def _check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.spec.T:
            raise ScenarioError(f"t={t} outside horizon [0, {self.spec.T}]")
        if self.sol.is_singular_on(t):
            raise SingularityError(f"scenario has a focal time on [0, {t}]")

    def _omega_matrix(self, omegas) -> np.ndarray:
        w = np.asarray(omegas, float)
        if w.ndim == 0:
            w = w.reshape(1, 1)
        elif w.ndim == 1:
            if self.spec.n == 1:
                w = w[:, None]
            else:
                w = w[None, :]
        if w.shape[-1] != self.spec.n:
            raise ScenarioError(f"omega: expected vectors of length {self.spec.n}")
        return w

    def _eta_quadrature(self, t: float, omegas: np.ndarray, integrand) -> np.ndarray:
        """Nested Clenshaw-Curtis of `integrand` over eta in [0, t].

        The whole omega batch shares one level, which keeps the quadrature
        error smooth in omega (finite-difference moment extraction relies on
        that).  `integrand` maps nodes of shape (K,) to values of shape
        (len(omegas), K), node by node: level n's values are kept, and a
        doubling evaluates it at the n new odd nodes only, so each sum is
        the same as a from-scratch Clenshaw-Curtis at its level.
        """
        if t == 0.0:
            return np.zeros(omegas.shape[0], complex)
        n = self.M
        nodes, wts = _clenshaw_curtis(n)
        f = integrand(t * nodes)
        prev = t * (f[:, ::2] @ _clenshaw_curtis(n // 2)[1])
        while True:
            val = t * (f @ wts)
            gap = float(np.max(np.abs(val - prev)))
            if gap <= 1e-6:
                return val
            if 2 * n > _MAX_QUAD_NODES:
                raise ConvergenceError(
                    f"eta-quadrature did not converge: Clenshaw-Curtis level {n} differs from "
                    f"level {n // 2} by {gap:.3e} > 1e-6 at the cap of {_MAX_QUAD_NODES}")
            n, prev = 2 * n, val
            nodes, wts = _clenshaw_curtis(n)
            f_old, f = f, np.empty((f.shape[0], n + 1), complex)
            f[:, ::2] = f_old
            f[:, 1::2] = integrand(t * nodes[1::2])

    def _shape_result(self, val: np.ndarray, omega):
        if np.ndim(omega) == 0 or (np.ndim(omega) == 1 and self.spec.n > 1):
            return complex(val[0])
        return val

    def _ratio(self, t: float, eta: np.ndarray) -> np.ndarray:
        return float(self.sol.u_at(t)) / self.sol.u_at(eta)

    # -- public evaluations ------------------------------------------------

    def eval_fundamental_charfun(self, t: float, omega) -> complex | np.ndarray:
        """Direct quadrature form of G_hat(t, omega)."""
        self._check_time(t)
        w = self._omega_matrix(omega)
        spec = self.spec

        def integrand(eta):
            wt = self._ratio(t, eta)                       # (M+1,)
            R = w[:, None, :] * wt[None, :, None]          # (m, M+1, n)
            quad = 0.5 * spec.delta**2 * np.sum(R * R, axis=-1)
            u_eta = self.sol.u_at(eta)
            B_eta = self.sol.v_at(eta) / u_eta[:, None]        # (M+1, n)
            lin = 1j * np.einsum("ij,mij->mi", B_eta, R)
            out = quad + lin
            if spec.lam > 0:
                out = out - spec.lam * (jump_charfn_batch(spec.jump, R) - 1.0)
            return out

        return self._shape_result(np.exp(-self._eta_quadrature(t, w, integrand)), omega)

    def eval_charfun_via_moments(self, t: float, omega) -> complex | np.ndarray:
        """Moment form of G_hat; identical to the direct form by construction."""
        self._check_time(t)
        w = self._omega_matrix(omega)
        spec = self.spec
        E = np.atleast_1d(self.fundamental.E_at(t))
        V = float(self.fundamental.V_at(t))
        log_g = -0.5 * np.sum(w * w, axis=-1) * V - 1j * (w @ E)
        if spec.lam > 0:
            log_g = log_g + self._lambda_Q(t, w)
        return self._shape_result(np.exp(log_g), omega)

    def _lambda_Q(self, t: float, w: np.ndarray) -> np.ndarray:
        """The moment form's lambda Q(t, w) for frequency vectors w of shape (m, n)."""
        spec, M1, m2_pc = self.spec, self._M1, self._M2 / self.spec.n

        def integrand(eta):
            wt = self._ratio(t, eta)
            R = w[:, None, :] * wt[None, :, None]
            comp = 1j * (R @ M1) + 0.5 * m2_pc * np.sum(R * R, axis=-1)
            return jump_charfn_batch(spec.jump, R) - 1.0 + comp

        return spec.lam * self._eta_quadrature(t, w, integrand)

    def initial_charfn(self, zeta: np.ndarray) -> np.ndarray:
        """m0_hat on a batch of frequency vectors, shape (..., n)."""
        law = self.spec.initial
        zeta = np.asarray(zeta, float)
        x0 = np.asarray(law.x0, float)
        phase = -1j * (zeta @ x0)
        if law.kind == "gaussian":
            return np.exp(phase - 0.5 * law.v0 * np.sum(zeta * zeta, axis=-1))
        return np.exp(phase)

    def eval_solution_charfun(self, t: float, omega):
        """m_hat(t, omega) = G_hat(t, omega) * m0_hat(omega * weight(t, 0))."""
        w = self._omega_matrix(omega)
        g = np.asarray(self.eval_fundamental_charfun(t, w))
        return self._shape_result(g.reshape(-1) * self._initial_factor(t, w), omega)

    def _initial_factor(self, t: float, w: np.ndarray) -> np.ndarray:
        """m0_hat(w * weight(t, 0)) for frequency vectors w of shape (m, n)."""
        return self.initial_charfn(w * self.sol.weight(t, 0.0))

    def log_modulus_bound(self, t: float, omega: np.ndarray) -> np.ndarray:
        """Upper bound -delta^2 w^2 S / 2 on log |m_hat(t, w)| in one dimension.

        S = int_0^t weight(t, eta)^2 d eta is read off the fundamental
        variance, V_fund(t) = K S with the variance rate K.  The bound is 0
        (no information) when delta = 0.
        """
        omega = np.asarray(omega, float)
        delta2 = self.spec.delta**2
        if delta2 == 0.0:
            return np.zeros(omega.shape)
        S = float(self.fundamental.V_at(t)) / self.fundamental.K
        return -0.5 * delta2 * S * omega * omega

    def solution_moments(self, t: float) -> tuple[np.ndarray, float]:
        """Mean and per-coordinate variance of the full solution at time t, by ``law_image``."""
        E, V = law_image(self.spec.initial, self.sol.weight(t, 0.0),
                         np.atleast_1d(self.fundamental.E_at(t)), float(self.fundamental.V_at(t)))
        return E, float(V)

    def invert_density(
        self, t: float, n_x: int = 4096, x_lo: float | None = None, x_hi: float | None = None
    ) -> DensityGrid:
        """Density at time t by inverse DFT of the solution characteristic function.

        One-dimensional only.  Default bounds are mean +- 10 standard
        deviations; explicit bounds must cover at least 8.  m_hat is the
        moment form of G_hat times m0_hat(w * weight(t, 0)): closed form
        for lambda = 0, otherwise the lambda Q term by nested Clenshaw-Curtis
        from level M in chunks of 512 frequencies.  Frequencies whose
        ``log_modulus_bound`` is below -800 stay exactly 0.0 and are not
        evaluated.  Of the others only the non-negative ones (and the
        Nyquist frequency of an even n_x) are; each negative one is the
        conjugate of its partner.  Non-finite bounds raise
        ``ScenarioError``; a grid frequency whose square overflows, or a
        mass that is not within 1e-3 of 1 (NaN included),
        ``GridResolutionError``.
        """
        if self.spec.n != 1:
            raise ScenarioError("density inversion supports dimension 1 only")
        if n_x < 2:
            raise ScenarioError(f"density grid n_x={n_x}: needs at least 2 points")
        self._check_time(t)
        E, V = self.solution_moments(t)
        mean, sd = float(E[0]), math.sqrt(max(V, 0.0))
        if not sd > 0:
            raise ScenarioError("degenerate (zero-variance) density cannot be gridded")
        if x_lo is None:
            x_lo = mean - 10.0 * sd
        if x_hi is None:
            x_hi = mean + 10.0 * sd
        if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
            raise ScenarioError(f"density grid bounds must be finite, got [{x_lo}, {x_hi}]")
        if x_lo > mean - 8.0 * sd or x_hi < mean + 8.0 * sd:
            raise GridResolutionError("density grid bounds must cover mean +- 8 sigma")

        x = np.linspace(x_lo, x_hi, n_x, endpoint=False)
        dx = x[1] - x[0]
        # A subnormal t gives finite frequencies whose squares overflow; a zero
        # spacing gives non-finite ones, which the mass check below rejects.
        with np.errstate(divide="ignore", invalid="ignore"):
            omega = 2.0 * math.pi * np.fft.fftfreq(n_x, d=dx)
        w_max = float(np.max(np.abs(omega)))
        if math.isfinite(w_max) and not math.isfinite(w_max * w_max):
            raise GridResolutionError(f"density grid at t={t:.6g} is too narrow: its largest "
                                      f"frequency {w_max:.6g} squared overflows")
        keep = np.flatnonzero(self.log_modulus_bound(t, omega) > _LOG_UNDERFLOW)
        # m_hat(t, -w) = conj m_hat(t, w) for a real law: evaluate indices up to
        # n_x // 2 (on an even grid the last is the Nyquist frequency, its own
        # partner) and fill index j > n_x // 2 from its partner n_x - j.
        half, mirror = keep[keep <= n_x // 2], keep[keep > n_x // 2]
        mhat = np.zeros(n_x, complex)
        for start in range(0, half.size, 512):
            chunk = half[start : start + 512]
            mhat[chunk] = self.eval_charfun_via_moments(t, omega[chunk])
        mhat[half] *= self._initial_factor(t, omega[half, None])
        mhat[mirror] = np.conj(mhat[n_x - mirror])
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.fft.ifft(mhat * np.exp(1j * omega * x_lo)).real / dx

        mass = float(np.trapezoid(m, x))
        if not abs(mass - 1.0) <= 1e-3:
            raise GridResolutionError(f"grid under-resolved: density mass {mass:.6f}")
        mean_out = float(np.trapezoid(x * m, x))
        var_out = float(np.trapezoid((x - mean_out) ** 2 * m, x))
        return DensityGrid(t=t, x=x, m=m, mass=mass, mean=mean_out, variance=var_out)

    def moment_via_charfun(self, t: float, k: int) -> float:
        """k-th raw moment (k in 1..4) from 5-point stencils of m_hat at omega 0."""
        if self.spec.n != 1:
            raise ScenarioError("moment extraction supports dimension 1 only")
        if k not in (1, 2, 3, 4):
            raise ScenarioError("moment order must be 1..4")
        h = _STENCIL_STEP
        w = np.array([-2 * h, -h, 0.0, h, 2 * h])
        f = np.asarray(self.eval_solution_charfun(t, w))
        if k == 1:
            d = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
        elif k == 2:
            d = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h**2)
        elif k == 3:
            d = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3)
        else:
            d = (f[4] - 4 * f[3] + 6 * f[2] - 4 * f[1] + f[0]) / h**4
        return float((1j**k * d).real)
