"""Cost-parameter recovery from observed moment trajectories.

Constant coefficients only: the expectation follows one of three explicit
families depending on the sign of a (trigonometric, hyperbolic, or
quadratic in t), so recovery reduces to picking the branch and fitting
(a, b) plus the linear constants.  The frequency/rate is profiled out:
for a fixed nu the model is linear in the remaining constants (variable
projection, Golub & Pereyra 1973), so the nonlinear search runs over
log(nu) alone.  The search is seeded by the integral form of the moment
equation, E'' + 2 a E + b = 0 integrated twice, which is linear in a
(a direct integral estimator, Dattner & Klaassen 2015): Brent's
derivative-free search runs once in a bracket around the seed.  A seed
that fixes the sign of a decisively drops the opposite-sign branch.  Where
the seed is indecisive or its minimum falls on the bracket's edge, a fixed
log-spaced grid brackets every local minimum of the profiled residual and
Brent's search refines each one; no optimization library is needed.  The
noise scale K is then identified from the variance series with the branch
and frequency frozen.  The covariance of (a, b_1..b_n) comes from
sensitivities integrated by ``ode.rk4_linear``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ScenarioError
from .hermite import Hermite
from .ode import rk4_linear
from .table import read_table, write_table

BRANCHES = ("oscillatory", "exponential", "polynomial")
# The profiled search: grid size over log(nu), its lowest frequency/rate,
# Brent's tolerance on log(nu), and the half-width in log(nu) of the bracket
# around the integral seed.
_GRID_POINTS = 96
_NU_FLOOR = 1e-3
_BRENT_TOL = 1e-12
_SEED_HALF_WIDTH = 0.5
# Frequencies/rates resolving less than this many radians across the
# observation window are shape-identical to the polynomial branch.
_DEGENERATE_RADIANS = 1.5


@dataclass(frozen=True)
class ObservedSeries:
    """Observed (t_i, E_i, V_i) samples from a single horizon."""

    t: np.ndarray
    E: np.ndarray  # (m,) or (m, n)
    V: np.ndarray  # (m,)

    def __post_init__(self):
        t = np.asarray(self.t, float)
        E = np.asarray(self.E, float)
        V = np.asarray(self.V, float)
        if t.ndim != 1 or V.ndim != 1 or E.ndim not in (1, 2):
            raise ScenarioError("observed series needs 1-D t and V and a 1-D or 2-D E")
        E = E if E.ndim == 2 else E[:, None]
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "V", V)
        if E.shape[1] == 0:
            raise ScenarioError("observed series has no E column")
        if len(E) != len(t) or len(V) != len(t):
            raise ScenarioError(f"observed series has {len(t)} times but {len(E)} rows of E "
                                f"and {len(V)} of V")
        if len(t) < 8:
            raise ScenarioError("observed series needs at least 8 samples")
        if np.any(np.diff(t) <= 0):
            raise ScenarioError("observation times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(self.E)) and np.all(np.isfinite(V))):
            raise ScenarioError("observed series contains non-finite values")
        step = float(np.min(np.diff(t)))
        if not math.isfinite(math.pi / step):
            raise ScenarioError(f"observation times have smallest time step {step:.3g}, too small "
                                f"to bound the oscillatory search (pi / step overflows)")
        for name, x in (("t", t), ("E", E), ("V", V)):
            peak = float(np.max(np.abs(x)))
            if not math.isfinite(peak * peak):
                raise ScenarioError(f"observed {name} reaches magnitude {peak:.3g}, "
                                    f"whose square overflows float64")
        if np.any(V < 0):
            raise ScenarioError("variance observations must be nonnegative")

    @property
    def n(self) -> int:
        return self.E.shape[1]


@dataclass
class RecoveredParams:
    """Fitted branch, cost parameters and model constants.

    C1/C2 follow the branch conventions of the closed forms (sin/sinh and
    cos/cosh coefficients; for the polynomial branch C1 is the linear and
    C2 the constant coefficient of E).  ``cov_ab`` is the (1+n)x(1+n)
    Gauss-Newton covariance of (a, b_1..b_n); ``identifiable`` is False when
    that direction is degenerate, e.g. for a constant series.  ``a_seed`` is
    the integral-form estimate of a (None when rank-deficient) and ``search``
    says how nu was found: "seeded" by the one bracketed search around the
    seed, or "grid" by the fallback grid, also for the polynomial branch,
    which has no nu to search.  ``to_dict`` leaves both out.
    """

    branch: str
    a: float
    b: np.ndarray
    K: float
    C1: np.ndarray
    C2: np.ndarray
    C1_V: float
    C2_V: float
    v_const: float
    rms_residual_E: float
    rms_residual_V: float
    cov_ab: np.ndarray
    identifiable: bool
    nu: float = 0.0
    a_seed: float | None = None
    search: str = "grid"

    def _freq(self) -> float:
        # Derived from a so that perturbing a moves the regenerated curve.
        return math.sqrt(2.0 * abs(self.a))

    def E_model(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        if self.branch == "oscillatory":
            nu = self._freq()
            basis = np.stack([np.sin(nu * t), np.cos(nu * t)], axis=1)
            return basis @ np.stack([self.C1, self.C2]) - self.b / (2.0 * self.a)
        if self.branch == "exponential":
            mu = self._freq()
            basis = np.stack([np.sinh(mu * t), np.cosh(mu * t)], axis=1)
            return basis @ np.stack([self.C1, self.C2]) - self.b / (2.0 * self.a)
        return self.C2 + np.outer(t, self.C1) - 0.5 * np.outer(t * t, self.b)

    def V_model(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        if self.branch == "oscillatory":
            nu = self._freq()
            return self.v_const + self.C1_V * np.sin(2 * nu * t) + self.C2_V * np.cos(2 * nu * t)
        if self.branch == "exponential":
            mu = self._freq()
            return self.C1_V + self.v_const * np.exp(2 * mu * t) + self.C2_V * np.exp(-2 * mu * t)
        return self.v_const + self.C1_V * t + self.C2_V * t * t

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "a": self.a,
            "b": self.b.tolist(),
            "K": self.K,
            "C1": self.C1.tolist(),
            "C2": self.C2.tolist(),
            "C1_V": self.C1_V,
            "C2_V": self.C2_V,
            "v_const": self.v_const,
            "nu": self.nu,
            "rms_residual_E": self.rms_residual_E,
            "rms_residual_V": self.rms_residual_V,
            "cov_ab": self.cov_ab.tolist(),
            "identifiable": self.identifiable,
        }


def _design(branch: str, nu: float, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        if branch == "oscillatory":
            return np.stack([np.sin(nu * t), np.cos(nu * t), np.ones_like(t)], axis=1)
        if branch == "exponential":
            return np.stack([np.sinh(nu * t), np.cosh(nu * t), np.ones_like(t)], axis=1)
        return np.stack([np.ones_like(t), t, t * t], axis=1)


def _profiled_fit(branch: str, nu: float, t: np.ndarray, E: np.ndarray):
    """Linear constants and residuals for a frozen frequency/rate."""
    design = _design(branch, nu, t)
    if not np.all(np.isfinite(design)):
        return None, np.full_like(E, 1e50)
    beta, *_ = np.linalg.lstsq(design, E, rcond=None)
    return beta, E - design @ beta


def _brent(f, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of f on [lo, hi] by Brent's parabolic/golden-section search.

    Returns (x, f(x)), x within ``_BRENT_TOL`` of a local minimum (Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 5).  An end
    of the bracket that lies strictly below the interior minimum found is
    returned exactly, so a caller can tell a minimum on the boundary.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    tol = _BRENT_TOL
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        # The parabola through (v, w, x) is taken when its vertex lies in
        # (a, b) and moves less than half the step before last; otherwise
        # a golden-section step into the larger part of the bracket.
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p, q) if q > 0 else (p, -q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = math.copysign(tol, mid - x)
        else:
            e = (b - x) if x < mid else (a - x)
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    for end in (lo, hi):
        f_end = f(end)
        if f_end < fx:
            x, fx = end, f_end
    return x, fx


def _rss_floor(series: ObservedSeries) -> float:
    """The RSS of an expectation fit that is exact to rounding; fits below it tie."""
    return (1e-12 * max(1.0, float(np.max(np.abs(series.E))))) ** 2 * series.E.size


def _integral_seed(series: ObservedSeries) -> float | None:
    """Least-squares a of the moment equation in integral form, or None.

    E'' + 2 a E + b = 0 integrates twice to
    E(t) = E0 + E0' tau - 2 a II E - b tau^2 / 2, with tau = t - t[0] and
    II E the double integral from t[0]: linear in one shared a and each
    coordinate's (E0, E0', b).  The integrals are cumulative trapezoid sums
    of the samples, so any strictly increasing t will do.  Time is scaled to
    a unit window and E to a unit peak first, so every integral is at most
    1/2.  Returns None when the system is rank-deficient (a constant series
    pins only 2 a E + b) or a is not finite.
    """
    E = series.E
    m, n = E.shape
    window = float(series.t[-1] - series.t[0])
    peak = float(np.max(np.abs(E)))
    if peak == 0.0:
        return None
    s = (series.t - series.t[0]) / window
    half_ds = 0.5 * np.diff(s)[:, None]

    def cumtrapz(y):
        return np.vstack([np.zeros((1, n)), np.cumsum(half_ds * (y[1:] + y[:-1]), axis=0)])

    y = E / peak
    # Rows of coordinate i form block i; column 0 is a, columns 1+3i..3+3i its (E0, E0', b).
    design = np.column_stack([-2.0 * cumtrapz(cumtrapz(y)).T.reshape(-1),
                              np.kron(np.eye(n), np.column_stack([np.ones(m), s, -0.5 * s * s]))])
    norms = np.linalg.norm(design, axis=0)
    if not np.all(norms > 0.0):
        return None
    coef, _, rank, _ = np.linalg.lstsq(design / norms, y.T.reshape(-1), rcond=1e-10)
    if rank < design.shape[1]:
        return None
    with np.errstate(over="ignore"):
        a = float(coef[0] / norms[0] / window / window)
    return a if math.isfinite(a) else None


def _seed_branch(a_seed: float | None) -> tuple[str | None, float]:
    """The branch of a seed's sign and its frequency/rate sqrt(2|a|); (None, 0.0) for none or 0."""
    if not a_seed:
        return None, 0.0
    return ("oscillatory" if a_seed > 0.0 else "exponential"), math.sqrt(2.0 * abs(a_seed))


def _fit_branch_E(branch: str, series: ObservedSeries, nu_min: float = 0.0,
                  seed: float | None = None):
    """Best E-fit of one branch; returns (nu, beta, rss, search).

    The oscillatory and exponential fits minimize the profiled residual
    over log(nu) in [max(nu_min, ``_NU_FLOOR``), nu_max]; exact fits tie at
    ``_rss_floor``, so they form one flat minimum.  With a ``seed`` (a
    frequency/rate), Brent's search runs once on log(seed) +-
    ``_SEED_HALF_WIDTH``, clipped to that interval, and its minimum is taken
    when it lies strictly inside the bracket (search "seeded").  Otherwise
    (search "grid") a fixed grid of ``_GRID_POINTS`` values brackets every
    local minimum, and Brent's search refines each.  There a minimum on one
    of the problem's own bounds is rejected: ``nu_min`` when it is positive
    (classification, where an arbitrarily slow oscillation would shadow the
    polynomial branch), and nu_max, the sampling Nyquist limit above which
    frequencies alias onto slower ones, or the rate where the hyperbolic
    basis overflows.  A minimum on the grid's own floor is kept: there the
    data are a polynomial that the branch reproduces as nu -> 0.  Brent's
    search itself minimizes the unfloored residual: the floor is about 1e-11
    wide in log(nu) around an exact fit, where a strongly growing basis still
    moves b by 1e-8, so both searches locate that minimum to
    ``_BRENT_TOL`` and agree.  Raises
    ``ConvergenceError`` when no minimum is left, or when the basis
    overflows at the one found.
    """
    t, E = series.t, series.E
    if branch == "polynomial":
        beta, resid = _profiled_fit(branch, 0.0, t, E)
        return 0.0, beta, float(np.sum(resid * resid)), "grid"

    if branch == "oscillatory":
        nu_max = math.pi / float(np.min(np.diff(t)))
    else:
        nu_max = 700.0 / max(float(t[-1]), 1e-12)
    nu_lo = max(nu_min, _NU_FLOOR)
    failure = f"profiled {branch} search found no minimum inside nu in [{nu_min:.6g}, {nu_max:.6g}]"
    if not nu_lo < nu_max:
        raise ConvergenceError(failure)

    floor = _rss_floor(series)

    def raw_rss(log_nu):
        _, resid = _profiled_fit(branch, math.exp(log_nu), t, E)
        return float(np.sum(resid * resid))

    def rss(log_nu):
        return max(raw_rss(log_nu), floor)

    log_lo, log_hi = math.log(nu_lo), math.log(nu_max)
    log_nu, search = None, "grid"
    if seed:
        lo = max(math.log(seed) - _SEED_HALF_WIDTH, log_lo)
        hi = min(math.log(seed) + _SEED_HALF_WIDTH, log_hi)
        if lo < hi:
            x, _ = _brent(raw_rss, lo, hi)
            if lo < x < hi:
                log_nu, search = x, "seeded"
    if log_nu is None:
        grid = np.linspace(log_lo, log_hi, _GRID_POINTS).tolist()
        values = [rss(x) for x in grid]
        bounds = {grid[-1], grid[0]} if nu_min > 0.0 else {grid[-1]}
        last = len(grid) - 1
        best = None
        for i in range(len(grid)):
            if best is not None and best[0] <= floor:
                break  # exact to rounding: a later minimum can only tie, and the lower nu wins ties
            # The first point of a flat run stands for the whole run.
            if (i > 0 and values[i] >= values[i - 1]) or (i < last and values[i] > values[i + 1]):
                continue
            x, value = _brent(raw_rss, grid[max(i - 1, 0)], grid[min(i + 1, last)])
            value = max(value, floor)
            if x in bounds:
                continue
            if best is None or value < best[0] - 1e-15 * max(1.0, best[0]):
                best = (value, x)
        if best is None:
            raise ConvergenceError(failure)
        log_nu = best[1]
    nu = math.exp(log_nu)
    beta, resid = _profiled_fit(branch, nu, t, E)
    if beta is None:  # the basis overflows at the minimum found
        raise ConvergenceError(failure)
    return nu, beta, float(np.sum(resid * resid)), search


def _aicc(rss: float, m: int, k: int, floor: float) -> float:
    # Fits at numerical zero are indistinguishable; flooring the RSS at the
    # round-off level makes the parameter-count penalty decide between them.
    rss = max(rss, floor)
    penalty = 2.0 * k
    if m - k - 1 > 0:
        penalty += 2.0 * k * (k + 1) / (m - k - 1)
    return m * math.log(rss / m) + penalty


def classify_branch(series: ObservedSeries) -> tuple[str, float]:
    """Pick the branch with the smallest small-sample information criterion.

    The criterion is AICc on the expectation fit:
    m ln(RSS/m) + 2k + 2k(k+1)/(m-k-1).  Oscillatory/exponential fits whose
    frequency or rate resolves less than 1.5 radians across the whole
    observation window are treated as degenerate: below that the basis is
    shape-identical to the polynomial branch, which would otherwise shadow
    it on noisy quadratic data.  An integral seed of a that resolves at
    least those 1.5 radians decides the sign of a: only its branch is
    searched, in the seed's bracket, against the polynomial branch, and the
    opposite-sign branch scores infinity.  Otherwise all three branches are
    searched.  Returns (branch, confidence) where confidence is the
    criterion gap to the runner-up; ('indeterminate', 0.0) when every fit
    is degenerate.
    """
    return _classify(series)[:2]


def _classify(series: ObservedSeries):
    """``classify_branch`` plus the winning branch's ``_fit_branch_E`` fit
    (None when indeterminate) and the integral seed of a."""
    m = series.E.size
    window = float(series.t[-1] - series.t[0])
    nu_min = _DEGENERATE_RADIANS / window
    floor = _rss_floor(series)
    a_seed = _integral_seed(series)
    seed_branch, nu_seed = _seed_branch(a_seed)
    decisive = nu_seed * window >= _DEGENERATE_RADIANS
    scores, fits = [], []
    for branch in BRANCHES:
        k = (1 + 3 * series.n) if branch != "polynomial" else 3 * series.n
        fit = None
        if not decisive or branch in ("polynomial", seed_branch):
            try:
                fit = _fit_branch_E(branch, series,
                                    nu_min=0.0 if branch == "polynomial" else nu_min,
                                    seed=nu_seed if decisive else None)
            except ConvergenceError:
                pass
        fits.append(fit)
        scores.append(_aicc(fit[2], m, k, floor) if fit and math.isfinite(fit[2]) else math.inf)
    order = sorted(range(3), key=lambda i: (scores[i], i))
    if not math.isfinite(scores[order[0]]):
        return "indeterminate", 0.0, None, a_seed
    confidence = scores[order[1]] - scores[order[0]] if math.isfinite(scores[order[1]]) else math.inf
    return BRANCHES[order[0]], float(confidence), fits[order[0]], a_seed


def _sensitivities(params: RecoveredParams, t: np.ndarray) -> np.ndarray:
    """Sensitivities of E at the times t, as columns of an (m, n+1) array:
    E_1..E_n to a, then every E_i to its own b_i.

    They solve s'' + 2 a s = forcing from zero initial data, the forcings
    being -2 E_i(t) for a in coordinate i and -1 for b_i, the same in every
    coordinate, holding the fitted initial values fixed: one ``rk4_linear``
    call on 2000 steps up to the last time, read off the Hermite cubics of
    (s, s').
    """
    steps = 2000
    t_max = float(t[-1])
    th = np.linspace(0.0, t_max, 2 * steps + 1)
    forcing = np.column_stack([-2.0 * params.E_model(th), -np.ones_like(th)])
    a_half = np.full_like(th, params.a)
    width = forcing.shape[1]
    s, sp = rk4_linear(a_half, forcing, (0.0,) * width, (0.0,) * width, t_max / steps)
    return Hermite(th[::2], s, sp)(t)


def _sensitivity_covariance(params: RecoveredParams, series: ObservedSeries, rss: float):
    """Gauss-Newton covariance of (a, b_1..b_n) from the moment-equation sensitivities.

    Coordinate i's residuals depend on a and on b_i alone, so the Jacobian
    stacks one block of rows per coordinate.  A rank-deficient Jacobian
    (e.g. constant series, where only 2 a E + b is pinned) flags the
    parameters unidentifiable.
    """
    n = series.n
    with np.errstate(over="ignore", invalid="ignore"):
        S = _sensitivities(params, series.t)
        J = np.column_stack([S[:, :n].T.reshape(-1), np.kron(np.eye(n), S[:, n:])])
        jtj = J.T @ J
        cond = np.linalg.cond(jtj) if np.all(np.isfinite(J)) else math.inf
    if not math.isfinite(cond) or cond > 1e10:
        return np.full((1 + n, 1 + n), math.inf), False
    dof = max(series.E.size - (1 + 3 * n), 1)
    return rss / dof * np.linalg.inv(jtj), True


def fit_parameters(series: ObservedSeries, branch: str | None = None) -> RecoveredParams:
    """Fit a, b and the model constants; then K from the variance series.

    The branch and its E-fit come from classification when not given.  A
    forced oscillatory or exponential branch is searched around the integral
    seed of a when the seed has its sign.  a is identified from the
    expectation's shape alone; the variance fit reuses the same frequency,
    its constant offset kept free, and K recovered from the coefficient
    constraint with any negative discriminant clamped to zero.
    """
    if branch is None:
        branch, _, fit, a_seed = _classify(series)
        if fit is None:
            raise ConvergenceError("all branch fits are degenerate")
    elif branch in BRANCHES:
        a_seed = _integral_seed(series)
        seed_branch, nu_seed = _seed_branch(a_seed)
        fit = _fit_branch_E(branch, series, seed=nu_seed if branch == seed_branch else None)
    else:
        raise ScenarioError(f"unknown branch {branch!r}")

    nu, beta, rss, search = fit
    t = series.t

    if branch == "oscillatory":
        a = 0.5 * nu * nu
        C1, C2, d = beta[0], beta[1], beta[2]
        b = -2.0 * a * d
    elif branch == "exponential":
        a = -0.5 * nu * nu
        C1, C2, d = beta[0], beta[1], beta[2]
        b = -2.0 * a * d
    else:
        a = 0.0
        C2, C1, p2 = beta[0], beta[1], beta[2]
        b = -2.0 * p2

    # Variance fit with the branch and frequency frozen.
    V = series.V
    if branch == "oscillatory":
        design = np.stack([np.ones_like(t), np.sin(2 * nu * t), np.cos(2 * nu * t)], axis=1)
        (v_const, C1_V, C2_V), *_ = np.linalg.lstsq(design, V, rcond=None)
        K2 = 8.0 * a * (C1_V**2 + C2_V**2 - v_const**2)
        V_fit = design @ np.array([v_const, C1_V, C2_V])
    elif branch == "exponential":
        design = np.stack([np.ones_like(t), np.exp(2 * nu * t), np.exp(-2 * nu * t)], axis=1)
        (C1_V, P, C2_V), *_ = np.linalg.lstsq(design, V, rcond=None)
        K2 = 32.0 * a * P * C2_V - 8.0 * a * C1_V**2
        v_const = P
        V_fit = design @ np.array([C1_V, P, C2_V])
    else:
        design = np.stack([np.ones_like(t), t, t * t], axis=1)
        (v_const, C1_V, C2_V), *_ = np.linalg.lstsq(design, V, rcond=None)
        K2 = C1_V**2 - 4.0 * C2_V * v_const
        V_fit = design @ np.array([v_const, C1_V, C2_V])
    K = math.sqrt(max(K2, 0.0))

    m = series.E.size
    params = RecoveredParams(
        branch=branch,
        a=float(a),
        b=np.atleast_1d(np.asarray(b, float)),
        K=float(K),
        C1=np.atleast_1d(np.asarray(C1, float)),
        C2=np.atleast_1d(np.asarray(C2, float)),
        C1_V=float(C1_V),
        C2_V=float(C2_V),
        v_const=float(v_const),
        rms_residual_E=math.sqrt(rss / m),
        rms_residual_V=math.sqrt(float(np.sum((V - V_fit) ** 2)) / len(V)),
        cov_ab=np.zeros((2, 2)),
        identifiable=True,
        nu=float(nu),
        a_seed=a_seed,
        search=search,
    )
    params.cov_ab, params.identifiable = _sensitivity_covariance(params, series, rss)
    return params


@dataclass
class FitDiagnostics:
    residuals_E: np.ndarray  # (m, 2): t_i, residual (first coordinate)
    rms_E: float
    rms_V: float
    max_deviation_E: float
    max_deviation_V: float


def evaluate_fit(params: RecoveredParams, series: ObservedSeries) -> FitDiagnostics:
    """Residual diagnostics plus a forward regeneration check."""
    E_fit = params.E_model(series.t)
    V_fit = params.V_model(series.t)
    rE = series.E - E_fit
    rV = series.V - V_fit
    return FitDiagnostics(
        residuals_E=np.stack([series.t, rE[:, 0]], axis=1),
        rms_E=float(np.sqrt(np.mean(rE * rE))),
        rms_V=float(np.sqrt(np.mean(rV * rV))),
        max_deviation_E=float(np.max(np.abs(rE))),
        max_deviation_V=float(np.max(np.abs(rV))),
    )


def series_from_csv(text: str) -> ObservedSeries:
    """Read an observation CSV with columns t, E (or E_1..E_n), V.

    Blank lines and lines starting with '#' are skipped.  A malformed file
    raises ``ScenarioError`` naming the line at fault.
    """
    _, _, data = read_table(text, "observation", "t, E..., V",
                            lambda h: len(h) >= 3 and h[0] == "t" and h[-1] == "V", min_rows=1)
    return ObservedSeries(t=data[:, 0], E=data[:, 1:-1], V=data[:, -1])


def series_to_csv(series: ObservedSeries) -> str:
    names = ["t"] + ([f"E_{i + 1}" for i in range(series.n)] if series.n > 1 else ["E"]) + ["V"]
    return write_table(names, np.column_stack([series.t, series.E, series.V]))
