"""Problem data model and jump-law algebra.

A :class:`ScenarioSpec` bundles everything a solve needs: the quadratic
running cost, the quadratic terminal cost, diffusion and jump noise levels,
the jump-size law, the horizon and the initial law.  Every jump law draws
its coordinates independently, so its exact first and second moments are
per-coordinate pairs ``(E[Z_i], E[Z_i^2])``; laws also expose their
characteristic function and seeded sampling.  The moment equations see the
jump law only through the spec's ``lam_M1`` (lambda E[Z]) and ``lam_M2``
(lambda E|Z|^2).

Sign convention, fixed repo-wide: the characteristic function of a density
``p`` is ``p_hat(w) = integral exp(-i w . z) p(z) dz``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ScenarioError

_TOP_KEYS = {"dimension", "T", "delta", "lambda", "jump", "cost", "terminal", "initial"}
_COST_KEYS = {"a", "b", "c", "meanfield"}
_TERMINAL_KEYS = {"A_T", "B_T", "C_T"}
_INITIAL_KEYS = {"kind", "x0", "v0"}
_JUMP_KEYS = {"type", "params"}
# Each law's parameters: name -> (default, per coordinate?).  A per-coordinate
# parameter is a vector of the scenario's dimension, the others are scalars.
_JUMP_PARAMS = {
    "point": {"z0": (0.0, True)},
    "gaussian": {"mu": (0.0, True), "sigma": (1.0, False)},
    "uniform": {"lo": (0.0, True), "hi": (1.0, True)},
    "exponential": {"rate": (1.0, False)},
}
_JUMP_TYPES = {"none", *_JUMP_PARAMS}


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{key}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ScenarioError(f"{key}: must be finite")
    return v


def _vector(value, n: int, key: str) -> tuple[float, ...]:
    """A number broadcasts to all coordinates; a list must have length n."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ScenarioError(f"{key}: expected length {n}, got {len(value)}")
        return tuple(_number(x, f"{key}[{i}]") for i, x in enumerate(value))
    return (_number(value, key),) * n


def _coordinates(value) -> tuple[float, ...]:
    """A number or an array-like as a tuple of coordinates, for the factories."""
    return tuple(np.atleast_1d(np.asarray(value, float)))


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key {sorted(unknown)[0]!r}")


# ---------------------------------------------------------------------------
# jump laws


@dataclass(frozen=True)
class JumpDistribution:
    """Jump-size law on R^n; one of point / gaussian / uniform / exponential.

    All variants have finite first and second moments and independent
    coordinates.  ``gaussian`` puts an independent normal with standard
    deviation ``sigma`` on each coordinate, centered at ``mu``.  ``uniform``
    is componentwise on ``[lo, hi]``.  ``exponential`` is one-sided per
    coordinate with the given rate.  ``_JUMP_PARAMS`` lists which fields
    each kind uses.
    """

    kind: str
    n: int
    z0: tuple[float, ...] = ()
    mu: tuple[float, ...] = ()
    sigma: float = 0.0
    lo: tuple[float, ...] = ()
    hi: tuple[float, ...] = ()
    rate: float = 0.0

    @classmethod
    def point(cls, z0) -> "JumpDistribution":
        z0 = _coordinates(z0)
        return cls(kind="point", n=len(z0), z0=z0)

    @classmethod
    def gaussian(cls, mu, sigma: float) -> "JumpDistribution":
        mu = _coordinates(mu)
        return cls(kind="gaussian", n=len(mu), mu=mu, sigma=float(sigma))

    @classmethod
    def uniform(cls, lo, hi) -> "JumpDistribution":
        lo = _coordinates(lo)
        return cls(kind="uniform", n=len(lo), lo=lo, hi=_coordinates(hi))

    @classmethod
    def exponential(cls, rate: float, n: int = 1) -> "JumpDistribution":
        return cls(kind="exponential", n=n, rate=float(rate))

    def validate(self, n: int) -> None:
        if self.kind not in _JUMP_PARAMS:
            raise ScenarioError(f"jump: unknown type {self.kind!r}")
        if self.n != n:
            raise ScenarioError(f"jump: dimension {self.n} does not match scenario dimension {n}")
        for name, (_, per_coordinate) in _JUMP_PARAMS[self.kind].items():
            if per_coordinate and len(getattr(self, name)) != n:
                raise ScenarioError(f"jump.{self.kind}: {name} must have length {n}")
        if self.kind == "gaussian" and not self.sigma > 0:
            raise ScenarioError("jump.gaussian: sigma must be > 0")
        if self.kind == "exponential" and not self.rate > 0:
            raise ScenarioError("jump.exponential: rate must be > 0")
        if self.kind == "uniform" and not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ScenarioError("jump.uniform: requires lo < hi componentwise")


def _coordinate_moments(jump: JumpDistribution | None) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(E[Z_i], E[Z_i^2])`` per coordinate, each of shape (n,)."""
    if jump is None:
        raise ScenarioError("no jump law")
    if jump.kind == "point":
        z0 = np.asarray(jump.z0)
        return z0.copy(), z0 * z0
    if jump.kind == "gaussian":
        mu = np.asarray(jump.mu)
        return mu.copy(), mu * mu + jump.sigma * jump.sigma
    if jump.kind == "uniform":
        lo = np.asarray(jump.lo)
        hi = np.asarray(jump.hi)
        return (lo + hi) / 2.0, (lo * lo + lo * hi + hi * hi) / 3.0
    if jump.kind == "exponential":
        r = jump.rate
        return np.full(jump.n, 1.0 / r), 2.0 / np.full(jump.n, r * r)
    raise ScenarioError(f"jump: unknown type {jump.kind!r}")


def jump_moments(jump: JumpDistribution | None) -> tuple[np.ndarray, float]:
    """Exact first moment vector M1 and total second moment M2 = E|Z|^2."""
    m1, m2 = _coordinate_moments(jump)
    return m1, float(np.sum(m2))


def jump_second_moment_matrix(jump: JumpDistribution | None) -> np.ndarray:
    """The matrix E[Z Z^T]: E[Z_i] E[Z_j] off the diagonal, as the coordinates are independent."""
    m1, m2 = _coordinate_moments(jump)
    mat = np.outer(m1, m1)
    np.fill_diagonal(mat, m2)
    return mat


def jump_charfn_batch(jump: JumpDistribution | None, R: np.ndarray) -> np.ndarray:
    """Characteristic function on a batch of frequency vectors.

    ``R`` has shape ``(..., n)``; the result has shape ``(...)`` and is
    complex.  Satisfies ``p_hat(0) = 1`` exactly and ``|p_hat| <= 1``.
    """
    if jump is None:
        raise ScenarioError("no jump law")
    R = np.asarray(R, float)
    if jump.kind == "point":
        return np.exp(-1j * (R @ np.asarray(jump.z0)))
    if jump.kind == "gaussian":
        mu = np.asarray(jump.mu)
        quad = np.sum(R * R, axis=-1)
        return np.exp(-1j * (R @ mu) - 0.5 * jump.sigma**2 * quad)
    if jump.kind == "uniform":
        lo = np.asarray(jump.lo)
        hi = np.asarray(jump.hi)
        center = (lo + hi) / 2.0
        width = hi - lo
        # integral of exp(-i w z)/width over [lo, hi] = exp(-i w c) sinc(w width / 2pi)
        factors = np.exp(-1j * R * center) * np.sinc(R * width / (2.0 * np.pi))
        return np.prod(factors, axis=-1)
    if jump.kind == "exponential":
        r = jump.rate
        return np.prod(r / (r + 1j * R), axis=-1)
    raise ScenarioError(f"jump: unknown type {jump.kind!r}")


def jump_charfn(jump: JumpDistribution | None, omega) -> complex:
    """p_hat(omega) = E exp(-i omega . Z) for a single frequency vector."""
    if jump is None:
        raise ScenarioError("no jump law")
    w = np.atleast_1d(np.asarray(omega, float))
    if w.shape != (jump.n,):
        raise ScenarioError(f"omega: expected length {jump.n}, got shape {w.shape}")
    return complex(jump_charfn_batch(jump, w))


def sample_jumps(jump: JumpDistribution | None, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. jump vectors, shape (count, n).

    The point variant consumes no randomness; the others consume a
    deterministic number of draws from ``rng`` per call.
    """
    if jump is None:
        raise ScenarioError("no jump law")
    n = jump.n
    if jump.kind == "point":
        return np.broadcast_to(np.asarray(jump.z0), (count, n)).copy()
    if jump.kind == "gaussian":
        return np.asarray(jump.mu) + jump.sigma * rng.standard_normal((count, n))
    if jump.kind == "uniform":
        lo = np.asarray(jump.lo)
        hi = np.asarray(jump.hi)
        return lo + (hi - lo) * rng.random((count, n))
    if jump.kind == "exponential":
        return rng.standard_exponential((count, n)) / jump.rate
    raise ScenarioError(f"jump: unknown type {jump.kind!r}")


def jump_sample(jump: JumpDistribution | None, rng: np.random.Generator) -> np.ndarray:
    """One jump vector, shape (n,); deterministic for a fixed generator state."""
    return sample_jumps(jump, rng, 1)[0]


# ---------------------------------------------------------------------------
# cost coefficients


@dataclass(frozen=True)
class Coefficient:
    """A time coefficient: constant, a polynomial in t, or mean-field coupled.

    ``values`` holds the constant (per coordinate, for b) or the ascending
    polynomial coefficients (scalar in t, degree <= 4).  The mean-field
    variant, allowed only for b, represents b(t) = b0 + b1 E(t) + b2 E'(t).
    """

    kind: str  # "const" | "poly" | "meanfield"
    values: tuple[float, ...] = ()
    b0: tuple[float, ...] = ()
    b1: float = 0.0
    b2: float = 0.0

    @classmethod
    def const(cls, value) -> "Coefficient":
        return cls(kind="const", values=_coordinates(value))

    @classmethod
    def poly(cls, coeffs) -> "Coefficient":
        return cls(kind="poly", values=tuple(float(c) for c in coeffs))

    @classmethod
    def meanfield(cls, b0, b1: float, b2: float) -> "Coefficient":
        return cls(kind="meanfield", b0=_coordinates(b0), b1=float(b1), b2=float(b2))


def scalar_fn(coef: Coefficient) -> Callable[[np.ndarray], np.ndarray]:
    """Callable t -> array shaped like t for a constant or polynomial coefficient."""
    if coef.kind == "const":
        v = coef.values[0]
        return lambda t: np.full(np.shape(t), v)
    if coef.kind == "poly":
        cs = coef.values[::-1]
        return lambda t: np.polyval(cs, t)
    raise ScenarioError("mean-field coefficient has no explicit time form")


def vector_fn(coef: Coefficient, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Callable t -> array of shape t.shape + (n,) for a constant or polynomial coefficient."""
    if coef.kind == "const":
        arr = np.asarray(coef.values if len(coef.values) == n else coef.values * n, float)
        return lambda t: np.full(np.shape(t) + (n,), arr)
    if coef.kind == "poly":
        cs = coef.values[::-1]
        return lambda t: np.repeat(np.polyval(cs, t)[..., None], n, axis=-1)
    raise ScenarioError("mean-field coefficient has no explicit time form")


def eval_scalar_grid(fn, t: np.ndarray, name: str) -> np.ndarray:
    """Evaluate the scalar coefficient ``name`` on the whole grid in one call.

    The callable receives the grid array and returns an array of its shape,
    or one number for a constant; any other shape raises ``ScenarioError``.
    """
    arr = np.asarray(fn(t), float)
    if arr.ndim == 0:
        return np.full(t.shape, float(arr))
    if arr.shape != t.shape:
        raise ScenarioError(f"coefficient {name}: returned shape {arr.shape} on a grid of shape {t.shape}")
    return arr


def eval_vector_grid(fn, t: np.ndarray, n: int, name: str) -> np.ndarray:
    """Evaluate the vector coefficient ``name`` on the whole grid in one call, shape (len(t), n).

    Besides (len(t), n), the callable may return one number, an (n,) vector
    constant in time or a (len(t),) array shared by every coordinate; any
    other shape raises ``ScenarioError``.
    """
    arr = np.asarray(fn(t), float)
    if arr.shape == (len(t), n):
        return arr
    if arr.shape == (n,):
        return np.broadcast_to(arr, (len(t), n)).copy()
    if arr.ndim == 0 or arr.shape == (len(t),):
        return np.broadcast_to(arr.reshape(-1, 1), (len(t), n)).copy()
    raise ScenarioError(f"coefficient {name}: returned shape {arr.shape} on a grid of {len(t)} times")


@dataclass(frozen=True)
class CostCoefficients:
    a: Coefficient
    b: Coefficient
    c: Coefficient


@dataclass(frozen=True)
class TerminalCost:
    A_T: float
    B_T: tuple[float, ...]
    C_T: float


@dataclass(frozen=True)
class InitialLaw:
    kind: str  # "dirac" | "gaussian"
    x0: tuple[float, ...]
    v0: float


@dataclass(frozen=True)
class ScenarioSpec:
    """Validated, immutable description of one problem instance."""

    n: int
    T: float
    delta: float
    lam: float
    jump: JumpDistribution | None
    cost: CostCoefficients
    terminal: TerminalCost
    initial: InitialLaw

    @property
    def x0(self) -> np.ndarray:
        return np.asarray(self.initial.x0, float)

    @property
    def lam_M1(self) -> np.ndarray:
        """The jumps' drift lambda E[Z], shape (n,); zeros when lambda = 0."""
        if self.lam > 0:
            return self.lam * jump_moments(self.jump)[0]
        return np.zeros(self.n)

    @property
    def lam_M2(self) -> float:
        """lambda E|Z|^2, the jumps' share of the variance rate; 0.0 when lambda = 0."""
        if self.lam > 0:
            return self.lam * jump_moments(self.jump)[1]
        return 0.0


def validate_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Enforce every scenario invariant; returns the spec for chaining."""
    if not isinstance(spec.n, int) or spec.n < 1:
        raise ScenarioError("dimension: must be a positive integer")
    if not spec.T > 0:
        raise ScenarioError("T: must be > 0")
    if spec.delta < 0:
        raise ScenarioError("delta: must be >= 0")
    if spec.lam < 0:
        raise ScenarioError("lambda: must be >= 0")
    if spec.lam > 0 and spec.jump is None:
        raise ScenarioError("jump required when lambda>0")
    if spec.jump is not None:
        spec.jump.validate(spec.n)
        # E[Z_i] overflows only where E[Z_i^2] does; lambda E|Z|^2 may overflow on its own.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m2 = _coordinate_moments(spec.jump)[1]
            if not math.isfinite(spec.lam * float(np.sum(m2))):
                field = "lambda" if np.all(np.isfinite(m2)) else \
                    f"jump.{spec.jump.kind}.{'/'.join(_JUMP_PARAMS[spec.jump.kind])}"
                raise ScenarioError(f"{field}: the jump moments overflow float64")
    for name, coef in (("a", spec.cost.a), ("b", spec.cost.b), ("c", spec.cost.c)):
        if coef.kind == "meanfield":
            if name != "b":
                raise ScenarioError(f"cost.{name}: meanfield coupling is only allowed for b")
        elif coef.kind == "poly":
            if not 1 <= len(coef.values) <= 5:
                raise ScenarioError(f"cost.{name}: polynomial degree must be <= 4")
        elif coef.kind == "const":
            if name == "b":
                if len(coef.values) not in (1, spec.n):
                    raise ScenarioError("cost.b: constant vector length must match dimension")
            elif len(coef.values) != 1:
                raise ScenarioError(f"cost.{name}: must be scalar")
        else:
            raise ScenarioError(f"cost.{name}: unknown coefficient kind {coef.kind!r}")
    if len(spec.terminal.B_T) != spec.n:
        raise ScenarioError("terminal.B_T: length must match dimension")
    for name, val in (("A_T", spec.terminal.A_T), ("C_T", spec.terminal.C_T)):
        if not math.isfinite(val):
            raise ScenarioError(f"terminal.{name}: must be finite")
    if spec.initial.kind not in ("dirac", "gaussian"):
        raise ScenarioError(f"initial.kind: unknown kind {spec.initial.kind!r}")
    if len(spec.initial.x0) != spec.n:
        raise ScenarioError("initial.x0: length must match dimension")
    if spec.initial.v0 < 0:
        raise ScenarioError("initial.v0: must be >= 0")
    if (spec.initial.v0 == 0) != (spec.initial.kind == "dirac"):
        raise ScenarioError("initial: v0 = 0 exactly when kind is dirac")
    if spec.lam > 0 and spec.n > 1:
        # Scalar variance dynamics require equal per-coordinate second moments.
        if np.max(np.abs(m2 - m2[0])) > 1e-9 * max(1.0, float(m2[0])):
            raise ScenarioError(
                "jump: per-coordinate second moments must be equal for dimension > 1"
            )
    return spec


# ---------------------------------------------------------------------------
# parsing and serialization


def _parse_coefficient(value, key: str, n: int, allow_meanfield: bool) -> Coefficient:
    if isinstance(value, dict):
        _check_keys(value, {"poly", "meanfield"}, key)
        if "poly" in value and "meanfield" in value:
            raise ScenarioError(f"{key}: meanfield and an explicit b spec are mutually exclusive")
        if "poly" in value:
            coeffs = value["poly"]
            if not isinstance(coeffs, list) or not 1 <= len(coeffs) <= 5:
                raise ScenarioError(f"{key}.poly: expected 1..5 coefficients")
            return Coefficient.poly([_number(c, f"{key}.poly[{i}]") for i, c in enumerate(coeffs)])
        if "meanfield" in value:
            if not allow_meanfield:
                raise ScenarioError(f"{key}: meanfield coupling is only allowed for b")
            mf = value["meanfield"]
            if not isinstance(mf, dict):
                raise ScenarioError(f"{key}.meanfield: expected an object")
            _check_keys(mf, {"b0", "b1", "b2"}, f"{key}.meanfield")
            return Coefficient.meanfield(
                _vector(mf.get("b0", 0.0), n, f"{key}.meanfield.b0"),
                _number(mf.get("b1", 0.0), f"{key}.meanfield.b1"),
                _number(mf.get("b2", 0.0), f"{key}.meanfield.b2"),
            )
        raise ScenarioError(f"{key}: empty coefficient object")
    if allow_meanfield:  # b may be a vector
        return Coefficient.const(_vector(value, n, key))
    return Coefficient.const(_number(value, key))


def _parse_jump(doc, n: int) -> JumpDistribution | None:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ScenarioError("jump: expected an object")
    _check_keys(doc, _JUMP_KEYS, "jump")
    kind = doc.get("type")
    if kind not in _JUMP_TYPES:
        raise ScenarioError(f"jump.type: expected one of {sorted(_JUMP_TYPES)}, got {kind!r}")
    if kind == "none":
        return None
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("jump.params: expected an object")
    table = _JUMP_PARAMS[kind]
    _check_keys(params, set(table), "jump.params")
    values = {}
    for name, (default, per_coordinate) in table.items():
        key = f"jump.params.{name}"
        value = params.get(name, default)
        values[name] = _vector(value, n, key) if per_coordinate else _number(value, key)
    return JumpDistribution(kind=kind, n=n, **values)


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    """Build and validate a ScenarioSpec from a configuration dictionary."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")
    for key in ("T", "delta", "lambda", "cost", "terminal", "initial"):
        if key not in doc:
            raise ScenarioError(f"scenario: missing required key {key!r}")

    n = doc.get("dimension", 1)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ScenarioError("dimension: must be a positive integer")

    cost_doc = doc["cost"]
    if not isinstance(cost_doc, dict):
        raise ScenarioError("cost: expected an object")
    _check_keys(cost_doc, _COST_KEYS, "cost")
    for key in ("a", "c"):
        if key not in cost_doc:
            raise ScenarioError(f"cost: missing required key {key!r}")
    if "meanfield" in cost_doc:
        if "b" in cost_doc:
            raise ScenarioError("cost: meanfield and an explicit b spec are mutually exclusive")
        b_coef = _parse_coefficient({"meanfield": cost_doc["meanfield"]}, "cost.b", n, True)
    elif "b" in cost_doc:
        b_coef = _parse_coefficient(cost_doc["b"], "cost.b", n, True)
    else:
        raise ScenarioError("cost: missing required key 'b'")
    cost = CostCoefficients(
        a=_parse_coefficient(cost_doc["a"], "cost.a", n, False),
        b=b_coef,
        c=_parse_coefficient(cost_doc["c"], "cost.c", n, False),
    )

    term_doc = doc["terminal"]
    if not isinstance(term_doc, dict):
        raise ScenarioError("terminal: expected an object")
    _check_keys(term_doc, _TERMINAL_KEYS, "terminal")
    terminal = TerminalCost(
        A_T=_number(term_doc.get("A_T", 0.0), "terminal.A_T"),
        B_T=_vector(term_doc.get("B_T", 0.0), n, "terminal.B_T"),
        C_T=_number(term_doc.get("C_T", 0.0), "terminal.C_T"),
    )

    init_doc = doc["initial"]
    if not isinstance(init_doc, dict):
        raise ScenarioError("initial: expected an object")
    _check_keys(init_doc, _INITIAL_KEYS, "initial")
    kind = init_doc.get("kind", "dirac")
    initial = InitialLaw(
        kind=kind,
        x0=_vector(init_doc.get("x0", 0.0), n, "initial.x0"),
        v0=_number(init_doc.get("v0", 0.0), "initial.v0"),
    )

    lam = _number(doc["lambda"], "lambda")
    jump = _parse_jump(doc.get("jump"), n)
    if lam > 0 and jump is None:
        raise ScenarioError("jump required when lambda>0")

    spec = ScenarioSpec(
        n=n,
        T=_number(doc["T"], "T"),
        delta=_number(doc["delta"], "delta"),
        lam=lam,
        jump=jump,
        cost=cost,
        terminal=terminal,
        initial=initial,
    )
    return validate_scenario(spec)


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a JSON scenario document into a validated ScenarioSpec."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return scenario_from_dict(doc)


def _serialize_coefficient(coef: Coefficient):
    if coef.kind == "const":
        return coef.values[0] if len(coef.values) == 1 else list(coef.values)
    if coef.kind == "poly":
        return {"poly": list(coef.values)}
    return {"meanfield": {"b0": list(coef.b0), "b1": coef.b1, "b2": coef.b2}}


def _serialize_jump(jump: JumpDistribution | None):
    if jump is None:
        return {"type": "none"}
    params = {}
    for name, (_, per_coordinate) in _JUMP_PARAMS[jump.kind].items():
        value = getattr(jump, name)
        params[name] = list(value) if per_coordinate else value
    return {"type": jump.kind, "params": params}


def serialize_scenario(spec: ScenarioSpec) -> dict:
    """Canonical dictionary form; parse(serialize(spec)) == spec."""
    return {
        "dimension": spec.n,
        "T": spec.T,
        "delta": spec.delta,
        "lambda": spec.lam,
        "jump": _serialize_jump(spec.jump),
        "cost": {
            "a": _serialize_coefficient(spec.cost.a),
            "b": _serialize_coefficient(spec.cost.b),
            "c": _serialize_coefficient(spec.cost.c),
        },
        "terminal": {
            "A_T": spec.terminal.A_T,
            "B_T": list(spec.terminal.B_T),
            "C_T": spec.terminal.C_T,
        },
        "initial": {
            "kind": spec.initial.kind,
            "x0": list(spec.initial.x0),
            "v0": spec.initial.v0,
        },
    }


def scenario_to_json(spec: ScenarioSpec) -> str:
    return json.dumps(serialize_scenario(spec), indent=2) + "\n"
