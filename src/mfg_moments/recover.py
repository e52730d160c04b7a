"""Cost-parameter recovery from observed moment trajectories.

Constant coefficients only: the expectation solves E'' + 2 a E + b = 0, so
``E = E0 C + E0' S - b S2`` in the Stumpff functions of ``ode.stumpff``,
one family over signed a that is trigonometric for a > 0, hyperbolic for
a < 0 and quadratic at a = 0.  For a fixed a the model is linear in
(E0, E0', b) (variable projection, Golub & Pereyra 1973), so the nonlinear
search runs over one number, s = asinh(a w^2) with w the observation
window, in time scaled to a unit window.  The search is seeded by the
integral form of the moment equation, which is linear in a (a direct
integral estimator, Dattner & Klaassen 2015): Brent's derivative-free
search runs once in a bracket around the seed, and where its minimum falls
on the bracket's edge a fixed grid over the whole signed range brackets
every local minimum for Brent's search to refine; no optimization library
is needed.  The branch is the sign of the fitted a when a likelihood-ratio
test rejects a = 0 (Wilks 1938), and polynomial otherwise.  The noise
scale K is then identified from the variance series, the same family at
4a, with a frozen.  The covariance of (a, b_1..b_n) comes from
sensitivities integrated by ``ode.rk4_linear``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ScenarioError
from .hermite import Hermite
from .ode import rk4_linear, stumpff
from .table import read_table, write_table

BRANCHES = ("oscillatory", "exponential", "polynomial")
# The profiled search over s = asinh(a w^2): grid size over the signed
# range, Brent's tolerance on s, and the half-width in s of the bracket
# around the integral seed.
_GRID_POINTS = 96
_BRENT_TOL = 1e-12
_SEED_HALF_WIDTH = 0.5
# The smallest |s| a forced oscillatory or exponential fit takes.  A
# polynomial series is their a -> 0 limit: the fit's residual grows like
# |s| and the rounding of C2 = E(0) + b/(2a) like 1/|s|, both about 1e-8.
_S_FLOOR = 1e-8
# The likelihood ratio that rejects a = 0: chi-square, 1 degree of freedom, level 1e-3.
_LR_CRITICAL = 10.83


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
                                f"for float64 (the Nyquist frequency pi / step overflows)")
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
    C2 the constant coefficient of E), as do C1_V, C2_V and v_const.  The
    models read them back as initial data at t = 0 of the one Stumpff
    family.  ``cov_ab`` is the (1+n)x(1+n) Gauss-Newton covariance of
    (a, b_1..b_n); ``identifiable`` is False when that direction is
    degenerate, e.g. for a constant series.  ``a_seed`` is the integral-form
    estimate of a (None when rank-deficient) and ``search`` says how a was
    found: "seeded" by the one bracketed search around the seed, or "grid"
    by the fallback grid, also for the polynomial branch, which has no a to
    search.  ``to_dict`` leaves both out.
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

    def E_model(self, t) -> np.ndarray:
        # Read from a, so that perturbing a moves the regenerated curve.
        a = self.a
        E0, E0p = (self.C2, self.C1) if a == 0.0 else (self.C2 - self.b / (2.0 * a),
                                                        self.C1 * math.sqrt(2.0 * abs(a)))
        C, S, S2 = stumpff(a, np.asarray(t, float)[:, None])
        return C * E0 + S * E0p - S2 * self.b

    def V_model(self, t) -> np.ndarray:
        V0, V0p, c = np.linalg.solve(_variance_map(self.a), [self.C1_V, self.C2_V, self.v_const])
        C, S, S2 = stumpff(4.0 * self.a, np.asarray(t, float))
        return V0 * C + V0p * S + c * S2

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


def _unit_time(series: ObservedSeries) -> tuple[np.ndarray, float]:
    """The times scaled to the unit window, tau = (t - t[0]) / w, and the window w."""
    window = float(series.t[-1] - series.t[0])
    return (series.t - series.t[0]) / window, window


def _profiled_fit(alpha: float, tau: np.ndarray, E: np.ndarray):
    """(E0, E0' w, -b w^2) at tau = 0 and the residuals, for a frozen alpha = a w^2."""
    design = np.stack(stumpff(alpha, tau), axis=1)
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
    peak = float(np.max(np.abs(E)))
    if peak == 0.0:
        return None
    s, window = _unit_time(series)
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


def _fit_E(series: ObservedSeries, branch: str | None, a_seed: float | None):
    """Best E-fit over s = asinh(a w^2); returns (s, beta, rss, search).

    ``branch`` restricts s to [``_S_FLOOR``, ...] for "oscillatory", to
    [..., -``_S_FLOOR``] for "exponential" and to 0 for "polynomial"; None
    leaves its sign free.  s ends at the sampling's Nyquist limit above
    (faster frequencies alias onto slower ones) and where the hyperbolic
    basis overflows below.  Brent's search runs once on the seed's
    s +- ``_SEED_HALF_WIDTH``, clipped to that range, and its minimum is
    taken when strictly inside the bracket (search "seeded").  Otherwise
    (search "grid") ``_GRID_POINTS`` values, in order of growing |a| for a
    forced sign, bracket every local minimum for Brent's search to refine.
    Exact fits tie at ``_rss_floor`` and form one flat minimum, and the
    first wins ties.  A minimum on the Nyquist or overflow bound is rejected,
    one on ``_S_FLOOR`` kept: there the data are a polynomial, the a -> 0
    limit of the branch.  Brent's search minimizes the unfloored residual:
    the floor is about 1e-11 wide in s around an exact fit, where a
    strongly growing basis still moves b by 1e-8, so both searches locate
    that minimum to ``_BRENT_TOL`` and agree.  ``ConvergenceError`` when no
    minimum is left.
    """
    tau, window = _unit_time(series)
    E = series.E
    if branch == "polynomial":
        beta, resid = _profiled_fit(0.0, tau, E)
        return 0.0, beta, float(np.sum(resid * resid)), "grid"

    # The basis stays finite between a = -0.5 (700 / w)^2, where the hyperbolic one
    # nears overflow, and the largest Nyquist frequency of a finite s.
    ratio = min(math.pi * window / float(np.min(np.diff(series.t))), 1e150)
    s_max, s_min = math.asinh(0.5 * ratio * ratio), -math.asinh(0.5 * 700.0**2)
    lo, hi = {"oscillatory": (_S_FLOOR, s_max), "exponential": (s_min, -_S_FLOOR),
              None: (s_min, s_max)}[branch]
    failure = (f"profiled {branch or 'signed'} search found no minimum inside a in "
               f"[{math.sinh(lo) / window / window:.6g}, {math.sinh(hi) / window / window:.6g}]")

    floor = _rss_floor(series)

    def raw_rss(s):
        _, resid = _profiled_fit(math.sinh(s), tau, E)
        return float(np.sum(resid * resid))

    s, search = None, "grid"
    if a_seed is not None:
        seed = math.asinh(a_seed * window * window)
        if lo <= seed <= hi:
            b_lo, b_hi = max(seed - _SEED_HALF_WIDTH, lo), min(seed + _SEED_HALF_WIDTH, hi)
            x, _ = _brent(raw_rss, b_lo, b_hi)
            if b_lo < x < b_hi:
                s, search = x, "seeded"
    if s is None:
        grid = np.linspace(*((hi, lo) if branch == "exponential" else (lo, hi)), _GRID_POINTS).tolist()
        values = [max(raw_rss(x), floor) for x in grid]
        bounds = {s_min, s_max}
        last = len(grid) - 1
        best = None
        for i in range(len(grid)):
            if best is not None and best[0] <= floor:
                break  # exact to rounding: a later minimum can only tie, and the first wins ties
            # The first point of a flat run stands for the whole run.
            if (i > 0 and values[i] >= values[i - 1]) or (i < last and values[i] > values[i + 1]):
                continue
            x, value = _brent(raw_rss, *sorted((grid[max(i - 1, 0)], grid[min(i + 1, last)])))
            value = max(value, floor)
            if x in bounds:
                continue
            if best is None or value < best[0] - 1e-15 * max(1.0, best[0]):
                best = (value, x)
        if best is None:
            raise ConvergenceError(failure)
        s = best[1]
    beta, resid = _profiled_fit(math.sinh(s), tau, E)
    return s, beta, float(np.sum(resid * resid)), search


def classify_branch(series: ObservedSeries) -> tuple[str, float]:
    """The sign of the fitted a, unless a likelihood-ratio test keeps a = 0.

    The statistic is ``L = m ln(RSS0 / RSS)``, with RSS the expectation
    fit over signed a, RSS0 the fit at a = 0 (the polynomial branch), both
    floored at the round-off level ``_rss_floor`` and m the number of
    values of E.  Under a = 0 it is chi-square with one degree of freedom
    (Wilks 1938), so a = 0 is rejected when L > 10.83, the level 1e-3.
    Returns (branch, confidence) where confidence is |L - 10.83|, the
    statistic's distance from that threshold; ('indeterminate', 0.0) when
    no fit is finite.
    """
    return _classify(series)[:2]


def _classify(series: ObservedSeries):
    """``classify_branch`` plus the chosen fit of ``_fit_E`` (None when
    indeterminate) and the integral seed of a."""
    a_seed = _integral_seed(series)
    poly = _fit_E(series, "polynomial", None)
    try:
        fit = _fit_E(series, None, a_seed)
    except ConvergenceError:
        fit = None
    floor = _rss_floor(series)
    stat = series.E.size * math.log(max(poly[2], floor) / max(fit[2], floor)) if fit else 0.0
    if not math.isfinite(poly[2]) and not stat > 0.0:
        return "indeterminate", 0.0, None, a_seed
    confidence = abs(stat - _LR_CRITICAL)
    if stat > _LR_CRITICAL:
        return ("oscillatory" if fit[0] > 0.0 else "exponential"), confidence, fit, a_seed
    return "polynomial", confidence, poly, a_seed


def _sensitivities(params: RecoveredParams, t: np.ndarray) -> np.ndarray:
    """Sensitivities of E at the times t, as columns of an (m, n+1) array:
    E_1..E_n to a, then every E_i to its own b_i.

    They solve s'' + 2 a s = forcing from zero initial data, the forcings
    being -2 E_i(t) for a in coordinate i and -1 for b_i, the same in every
    coordinate, holding the fitted values at the first time fixed: one
    ``rk4_linear`` call on 2000 steps across the observed window, read off
    the Hermite cubics of (s, s').
    """
    steps = 2000
    th = np.linspace(float(t[0]), float(t[-1]), 2 * steps + 1)
    forcing = np.column_stack([-2.0 * params.E_model(th), -np.ones_like(th)])
    zero = np.zeros(forcing.shape[1])
    s, sp = rk4_linear(np.full_like(th, params.a), forcing, zero, zero, (th[-1] - th[0]) / steps)
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


def _variance_map(a: float) -> np.ndarray:
    """The matrix from (V(0), V'(0), c) of V'' + 8 a V = c to the closed forms' (C1_V, C2_V, v_const).

    a > 0: V = v_const + C1_V sin(2 nu t) + C2_V cos(2 nu t); a < 0:
    V = C1_V + v_const exp(2 nu t) + C2_V exp(-2 nu t); a = 0:
    V = v_const + C1_V t + C2_V t^2; nu = sqrt(2 |a|).
    """
    if a == 0.0:
        return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [1.0, 0.0, 0.0]])
    d, k = 0.5 / math.sqrt(2.0 * abs(a)), 0.125 / a  # V'(0)/(2 nu) and c/(8a), per unit
    if a > 0.0:
        return np.array([[0.0, d, 0.0], [1.0, 0.0, -k], [0.0, 0.0, k]])
    return np.array([[0.0, 0.0, k], [0.5, -0.5 * d, -0.5 * k], [0.5, 0.5 * d, -0.5 * k]])


def fit_parameters(series: ObservedSeries, branch: str | None = None) -> RecoveredParams:
    """Fit a, b and the model constants; then K from the variance series.

    The branch and its E-fit come from classification when not given; a
    given branch restricts the sign of a (``_fit_E``).  a is identified from
    the expectation's shape alone.  The variance fit reuses a: the variance
    solves V'' + 8 a V = c, so ``V = V0 C + V0' S + c S2`` at 4a, and K
    follows from the invariant ``K^2 = V'^2 - 2 V (c - 4 a V)``, any
    negative value clamped to zero.
    """
    if branch is None:
        branch, _, fit, a_seed = _classify(series)
        if fit is None:
            raise ConvergenceError("no expectation fit is finite")
    elif branch in BRANCHES:
        a_seed = _integral_seed(series)
        fit = _fit_E(series, branch, a_seed)
    else:
        raise ScenarioError(f"unknown branch {branch!r}")

    s, beta, rss, search = fit
    tau, w = _unit_time(series)
    alpha = math.sinh(s)
    design = np.stack(stumpff(4.0 * alpha, tau), axis=1)
    coef, *_ = np.linalg.lstsq(design, series.V, rcond=None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, c = alpha / w / w, -beta[2] / w / w, coef[2] / w / w
        K = math.sqrt(max(coef[1] ** 2 - 2.0 * coef[0] * (coef[2] - 4.0 * alpha * coef[0]), 0.0)) / w
        # The closed forms' constants hold at t = 0: the initial data there whose
        # curves best reproduce the fitted ones at the observed times.
        E_basis, V_basis = stumpff(a, series.t), stumpff(4.0 * a, series.t)
    if not np.all(np.isfinite(np.hstack([a, K, b, c, *E_basis, *V_basis]))):
        raise ConvergenceError(f"the fitted constants overflow float64 on the window {w:.6g}")
    E_fit = np.stack(stumpff(alpha, tau), axis=1) @ beta
    (E0, E0p), *_ = np.linalg.lstsq(np.column_stack(E_basis[:2]), E_fit + np.outer(E_basis[2], b),
                                    rcond=None)
    (V0, V0p), *_ = np.linalg.lstsq(np.column_stack(V_basis[:2]), design @ coef - V_basis[2] * c,
                                    rcond=None)
    nu = math.sqrt(2.0 * abs(a))
    C1, C2 = (E0p, E0) if a == 0.0 else (E0p / nu, E0 + b / (2.0 * a))
    C1_V, C2_V, v_const = _variance_map(a) @ (V0, V0p, c)

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
        rms_residual_E=math.sqrt(rss / series.E.size),
        rms_residual_V=math.sqrt(float(np.sum((series.V - design @ coef) ** 2)) / len(series.V)),
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
