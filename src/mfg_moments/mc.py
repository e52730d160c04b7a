"""Monte Carlo oracle for the controlled jump-diffusion.

Euler-Maruyama with drift 2 A(t) x + B(t) (linearly interpolated from the
backward solution grid), Gaussian diffusion and compound Poisson jumps.
Each step is the affine map X <- g_k X + d_k + delta sqrt(dt) xi_k + J_k,
with g_k = 1 + 2 A_k dt, d_k = B_k dt and J_k the sum of the jumps that
arrive in step k.  So the chain at the next record step is an affine map
of its value at the last one plus one Gaussian and the arrived jumps, each
weighted by the gains after it (``_interval_maps``): the chain is sampled
exactly at the record steps, at O(record times + jumps) cost per path.

Paths are split into fixed blocks of ``_BLOCK`` paths, and block ``b``
draws from its own counter-based stream, ``Philox(SeedSequence(seed,
spawn_key=(b,)))``.  The split does not depend on the worker count, so
results are bit-identical whatever the number of workers or the order in
which they run.  Per block, the draw order is:

1. the initial states, (paths, n) normals (Gaussian initial laws only);
2. each path's total jump count, Poisson(lambda * n_steps * dt);
3. the arrival step of each jump, uniform on [0, n_steps): given its
   count, a Poisson process has i.i.d. uniform arrival times, so this has
   the law of one Poisson count per step at O(lambda T) cost;
4. all jump sizes, in one ``sample_jumps`` call, in path order;
5. the diffusion normals, one (paths, n) draw per record interval, in
   time order (none when delta = 0), so the order of the record times
   does not change the numbers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError, SingularityError
from .hjb import HjbSolution
from .model import ScenarioSpec, sample_jumps
from .table import read_table, write_table

_BLOCK = 4096


def worker_count() -> int:
    """Worker cap from MFG_MOMENTS_THREADS, defaulting to the CPU count."""
    env = os.environ.get("MFG_MOMENTS_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ScenarioError(f"MFG_MOMENTS_THREADS: expected an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; (seed, scenario) fully determine the output."""

    n_paths: int
    dt: float
    seed: int
    record_times: tuple[float, ...]
    keep_endpoints: bool = True

    def validate(self, spec: ScenarioSpec) -> None:
        if self.n_paths < 1000:
            raise ScenarioError("n_paths must be >= 1000")
        if not 0 < self.dt <= spec.T / 100:
            raise ScenarioError("dt must be positive and at most T/100")
        if spec.lam * self.dt > 0.5:
            raise ScenarioError("reduce dt: lambda*dt must be <= 0.5")
        if len(set(self.record_times)) != len(self.record_times):
            raise ScenarioError("record times must be distinct")
        for tr in self.record_times:
            if not 0 <= tr <= spec.T:
                raise ScenarioError(f"record time {tr} outside [0, T]")
            steps = tr / self.dt
            if abs(steps - round(steps)) > 1e-12 * max(1.0, abs(steps)):
                raise ScenarioError(f"record time {tr} is not a multiple of dt")


@dataclass
class SimResult:
    """Moment estimates with standard errors at each record time."""

    record_times: tuple[float, ...]
    E_hat: np.ndarray   # (R, n)
    se_E: np.ndarray    # (R, n)
    V_hat: np.ndarray   # (R,)
    se_V: np.ndarray    # (R,)
    n_jumps: np.ndarray  # (R,) cumulative jump events over all paths
    n_paths: int
    endpoints: np.ndarray | None  # (n_paths, R, n)

    def record_index(self, t: float) -> int:
        for i, tr in enumerate(self.record_times):
            if abs(tr - t) <= 1e-12 * max(1.0, abs(t)):
                return i
        raise ScenarioError(f"time {t} is not a record time")


def _interval_maps(gain, drift, noise, ends):
    """The chain's exact law from each record step to the next (``ends`` increasing).

    Over steps [r0, r1), X_r1 = scale X_r0 + shift + spread xi plus the sum
    of coef_k Z over the jumps Z arriving in steps k, where coef_k is the
    product of g_j over k < j < r1.  Returns each interval's (scale, shift,
    spread) and coef.
    """
    coef = np.ones(len(gain))
    maps = []
    for r0, r1 in zip([0, *ends], ends):
        c = coef[r0:r1]
        c[:-1] = np.cumprod(gain[r0 + 1 : r1][::-1])[::-1]
        maps.append((gain[r0] * c[0], c @ drift[r0:r1], noise * math.sqrt(c @ c)))
    return maps, coef


def _simulate_block(spec, cfg, block, out, rec, ends, chain):
    """Simulate block ``block`` into ``out`` (paths, R, n); return its jump count per interval."""
    n = spec.n
    count = len(out)
    maps, coef = chain
    n_steps = len(coef)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(block,))))

    X = np.tile(np.asarray(spec.initial.x0, float), (count, 1))
    if spec.initial.kind == "gaussian":
        X += math.sqrt(spec.initial.v0) * gen.standard_normal((count, n))
    jumps = np.zeros((count, len(ends), n))
    interval = np.zeros(0, np.intp)
    if spec.lam > 0 and n_steps:
        per_path = gen.poisson(spec.lam * n_steps * cfg.dt, count)
        steps = gen.integers(0, n_steps, int(per_path.sum()))
        sizes = sample_jumps(spec.jump, gen, len(steps))
        # each jump, carried to the end of the record interval it arrives in
        interval = np.searchsorted(ends, steps, side="right")
        np.add.at(jumps, (np.repeat(np.arange(count), per_path), interval), coef[steps, None] * sizes)

    out[:, rec == 0] = X[:, None]
    for m, (end, (scale, shift, spread)) in enumerate(zip(ends, maps)):
        X *= scale
        X += shift
        if spread > 0:
            X += spread * gen.standard_normal((count, n))
        X += jumps[:, m]
        out[:, rec == end] = X[:, None]
    return np.bincount(interval, minlength=len(ends))


def simulate_paths(spec: ScenarioSpec, sol: HjbSolution, cfg: SimConfig) -> SimResult:
    """Simulate and estimate moments at the configured record times."""
    cfg.validate(spec)
    t_max = max(cfg.record_times, default=0.0)
    if sol.is_singular_on(t_max):
        bad = min(s for s in sol.singular_times if s <= t_max)
        raise SingularityError(f"singular drift at t={bad:.6g}; simulation refuses to cross it")

    rec = np.array([round(tr / cfg.dt) for tr in cfg.record_times], dtype=np.int64)
    ends = np.unique(rec[rec > 0])
    n_steps = int(ends[-1]) if ends.size else 0
    step_t = np.arange(n_steps) * cfg.dt
    A_steps = np.interp(step_t, sol.t, sol.A)
    B_steps = np.stack([np.interp(step_t, sol.t, sol.B[:, i]) for i in range(spec.n)], axis=1) \
        if n_steps else np.zeros((0, spec.n))
    if n_steps and not (np.all(np.isfinite(A_steps)) and np.all(np.isfinite(B_steps))):
        k_bad = int(np.argmax(~(np.isfinite(A_steps) & np.all(np.isfinite(B_steps), axis=1))))
        raise SingularityError(f"singular drift at t={step_t[k_bad]:.6g}")
    chain = _interval_maps(1.0 + 2.0 * cfg.dt * A_steps, cfg.dt * B_steps,
                           spec.delta * math.sqrt(cfg.dt), ends)

    endpoints = np.empty((cfg.n_paths, len(rec), spec.n))
    blocks = range(-(-cfg.n_paths // _BLOCK))
    workers = min(worker_count(), len(blocks))

    def run(block):
        out = endpoints[block * _BLOCK : (block + 1) * _BLOCK]
        return _simulate_block(spec, cfg, block, out, rec, ends, chain)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_block = list(pool.map(run, blocks))
    else:
        per_block = [run(b) for b in blocks]
    cum_jumps = np.concatenate([[0], np.cumsum(sum(per_block))])

    E_hat = endpoints.mean(axis=0)
    centered = endpoints - E_hat
    sq = centered * centered
    var_pc = sq.sum(axis=0) / (cfg.n_paths - 1)     # endpoints.var(axis=0, ddof=1), (R, n)
    m4 = np.mean(sq * sq, axis=0)
    return SimResult(
        record_times=tuple(cfg.record_times),
        E_hat=E_hat,
        se_E=np.sqrt(var_pc) / math.sqrt(cfg.n_paths),
        V_hat=var_pc.mean(axis=1),
        se_V=np.sqrt(np.maximum(m4 - var_pc**2, 0.0) / cfg.n_paths).mean(axis=1),
        n_jumps=cum_jumps[np.searchsorted(ends, rec, side="right")].astype(np.int64),
        n_paths=cfg.n_paths,
        endpoints=endpoints if cfg.keep_endpoints else None,
    )


def empirical_charfun(result: SimResult, t: float, omegas) -> dict:
    """Empirical characteristic function mean and standard errors at time t.

    One-dimensional scenarios only; requires retained endpoints.  Returns
    arrays keyed 'omega', 'mean' (complex), 'se_re', 'se_im'.
    """
    if result.endpoints is None:
        raise ScenarioError("endpoints were not retained (set keep_endpoints)")
    idx = result.record_index(t)
    X = result.endpoints[:, idx, :]
    if X.shape[1] != 1:
        raise ScenarioError("empirical characteristic function supports dimension 1 only")
    x = X[:, 0]
    w = np.atleast_1d(np.asarray(omegas, float))
    phase = np.outer(w, x)  # exp(-i w x) = cos(w x) - i sin(w x), from real arrays only
    cos, sin = np.cos(phase), np.sin(phase, out=phase)
    root = math.sqrt(result.n_paths)
    return {"omega": w, "mean": cos.mean(axis=1) - 1j * sin.mean(axis=1),
            "se_re": cos.std(axis=1, ddof=1) / root, "se_im": sin.std(axis=1, ddof=1) / root}


@dataclass
class CompareEntry:
    quantity: str
    t: float
    analytic: float
    simulated: float
    se: float
    z: float

    @property
    def passed(self) -> bool:
        return abs(self.z) <= 4.0


@dataclass
class CompareReport:
    """z-score table between analytic moments/charfun and the simulation."""

    entries: list[CompareEntry]
    max_abs_z: float
    passed: bool
    dt_refinement: dict | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_abs_z": self.max_abs_z,
            "entries": [
                {
                    "quantity": e.quantity,
                    "t": e.t,
                    "analytic": e.analytic,
                    "simulated": e.simulated,
                    "se": e.se,
                    "z": e.z,
                    "pass": e.passed,
                }
                for e in self.entries
            ],
            "dt_refinement": self.dt_refinement,
        }


def _entry(quantity: str, t: float, analytic, simulated, se) -> CompareEntry:
    analytic, simulated, se = float(analytic), float(simulated), float(se)
    gap = simulated - analytic
    if se == 0.0:
        z = 0.0 if abs(gap) < 1e-12 else math.inf
    else:
        z = gap / se
    return CompareEntry(quantity, t, analytic, simulated, se, z)


def compare_report(
    path,
    evaluator,
    sim: SimResult,
    omegas=(),
    sim_refined: SimResult | None = None,
) -> CompareReport:
    """Flag |z| > 4 discrepancies between analytics and simulation.

    ``path`` supplies E(t), V(t); ``evaluator`` (optional, may be None)
    supplies the solution characteristic function for the requested
    omegas.  A second simulation at a finer dt adds refinement deltas.
    """
    entries: list[CompareEntry] = []
    t_grid_max = float(path.t[-1])
    for i, t in enumerate(sim.record_times):
        if t > t_grid_max + 1e-12:
            raise ScenarioError(f"record time {t} outside the analytic horizon")
        E = np.atleast_1d(path.E_at(t))
        for c in range(E.shape[0]):
            entries.append(_entry(f"E_{c + 1}", t, E[c], sim.E_hat[i, c], sim.se_E[i, c]))
        entries.append(_entry("V", t, path.V_at(t), sim.V_hat[i], sim.se_V[i]))
        if omegas and evaluator is not None and sim.endpoints is not None:
            emp = empirical_charfun(sim, t, omegas)
            ana = np.atleast_1d(evaluator.eval_solution_charfun(t, np.asarray(omegas, float)))
            for j, w in enumerate(emp["omega"]):
                mean = emp["mean"][j]
                entries.append(_entry(f"charfun_re(w={w:g})", t, ana[j].real, mean.real, emp["se_re"][j]))
                entries.append(_entry(f"charfun_im(w={w:g})", t, ana[j].imag, mean.imag, emp["se_im"][j]))

    refinement = None
    if sim_refined is not None:
        if sim_refined.record_times != sim.record_times:
            raise ScenarioError("mismatched record times between the two simulations")
        refinement = {
            "delta_E": np.abs(sim.E_hat - sim_refined.E_hat).max(axis=1).tolist(),
            "delta_V": np.abs(sim.V_hat - sim_refined.V_hat).tolist(),
        }

    max_abs_z = max((abs(e.z) for e in entries), default=0.0)
    return CompareReport(
        entries=entries,
        max_abs_z=max_abs_z,
        passed=all(e.passed for e in entries),
        dt_refinement=refinement,
    )


def _sim_columns(n: int) -> list[str]:
    return ["t", *(f"E_hat_{i + 1}" for i in range(n)), *(f"se_E_{i + 1}" for i in range(n)),
            "V_hat", "se_V", "n_jumps"]


def sim_to_csv(result: SimResult) -> str:
    """CSV with columns t, E_hat_1..n, se_E_1..n, V_hat, se_V, n_jumps."""
    return write_table(_sim_columns(result.E_hat.shape[1]), np.column_stack(
        [result.record_times, result.E_hat, result.se_E, result.V_hat, result.se_V, result.n_jumps]))


def sim_from_csv(text: str) -> SimResult:
    """Rebuild the estimator table from its CSV serialization (no endpoints).

    A malformed table raises ``ScenarioError`` naming the line at fault.
    """
    _, header, data = read_table(
        text, "simulation", "t, E_hat_1..n, se_E_1..n, V_hat, se_V, n_jumps",
        lambda h: len(h) >= 6 and h == _sim_columns((len(h) - 4) // 2), count="n_jumps")
    n = (len(header) - 4) // 2
    return SimResult(
        record_times=tuple(data[:, 0]),
        E_hat=data[:, 1 : 1 + n],
        se_E=data[:, 1 + n : 1 + 2 * n],
        V_hat=data[:, 1 + 2 * n],
        se_V=data[:, 2 + 2 * n],
        n_jumps=data[:, 3 + 2 * n].astype(np.int64),
        n_paths=0,
        endpoints=None,
    )


def endpoints_to_csv(result: SimResult) -> str:
    """Flat endpoint dump (path, t, x_1..x_n); large, gated by the CLI flag."""
    if result.endpoints is None:
        raise ScenarioError("endpoints were not retained (set keep_endpoints)")
    n_paths, n_times, n = result.endpoints.shape
    data = np.column_stack([np.repeat(np.arange(n_paths), n_times), np.tile(result.record_times, n_paths),
                            result.endpoints.reshape(n_paths * n_times, n)])
    return write_table(["path", "t", *(f"x_{i + 1}" for i in range(n))], data)
