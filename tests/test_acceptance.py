"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure next to its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import hashlib
import json
import math

import numpy as np

from mfg_moments import (
    CharFunEvaluator,
    ObservedSeries,
    SimConfig,
    classify_branch,
    closed_form_A_const,
    closed_form_moments_const,
    compare_report,
    fit_parameters,
    gaussian_density,
    propagate_moments,
    residual_check,
    simulate_paths,
    solve_backward,
    solve_meanfield_fixedpoint,
)
from mfg_moments.cli import main as cli_main

from conftest import make_doc, make_spec


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


# 1. ------------------------------------------------------------------
# Riccati closed-form agreement, relative 1e-8 at every node, N = 4096.
RICCATI_CASES = [
    (2.0, 1.0, 0.30), (2.0, 0.0, 0.60), (2.0, -0.25, 0.75),
    (0.0, 1.0, 0.40), (0.0, 0.0, 1.00), (0.0, -0.25, 1.00),
    (-2.0, 1.0, 1.00), (-2.0, 0.0, 1.00), (-2.0, -0.25, 1.00),
]


def test_acceptance_1_riccati_closed_form():
    worst = 0.0
    for a, A_T, T in RICCATI_CASES:
        sol = solve_backward(make_spec(a=a, A_T=A_T, T=T), N=4096)
        ref = np.array([closed_form_A_const(a, A_T, T, t) for t in sol.t])
        err = np.max(np.abs(sol.A - ref) / np.maximum(1.0, np.abs(ref)))
        worst = max(worst, float(err))
        assert err < 1e-8, (a, A_T, T, err)
    report(1, f"Riccati closed forms, 9 cases, worst relative error {worst:.2e} < 1e-8")


# 2. ------------------------------------------------------------------
# Second-order moment-equation residuals below 1e-6 at N = 4096 on the
# constant-coefficient suite (three scenarios per sign of a).
MOMENT_SUITE = [
    dict(a=0.0, A_T=0.0, delta=1.0),
    dict(a=0.0, b=0.4, A_T=-0.5, B_T=0.3, delta=0.5, x0=0.2, v0=0.1),
    dict(a=0.0, lam=2.0, jump={"type": "point", "params": {"z0": 1.0}}),
    dict(a=2.0, A_T=0.0, delta=1.0, x0=0.5, v0=0.2, T=0.6),
    dict(a=2.0, b=0.3, A_T=-0.25, B_T=0.1, delta=0.5, lam=1.0,
         jump={"type": "gaussian", "params": {"mu": 0.0, "sigma": 0.5}}, x0=0.3, v0=0.05, T=0.7),
    dict(a=2.0, b=-0.2, A_T=1.0, delta=1.0, x0=1.0, v0=0.3, T=0.3),
    dict(a=-2.0, A_T=1.0, x0=1.0, v0=0.2, T=0.5),
    dict(a=-2.0, b=0.5, A_T=-0.25, B_T=0.2, delta=0.7, x0=0.4, v0=0.2),
    dict(a=-2.0, A_T=0.0, delta=0.3, lam=2.0,
         jump={"type": "uniform", "params": {"lo": 0.0, "hi": 1.0}}, v0=0.1, T=0.8),
]


def test_acceptance_2_moment_equation_residuals():
    worst_E = worst_V = 0.0
    for kw in MOMENT_SUITE:
        spec = make_spec(**kw)
        sol = solve_backward(spec, N=4096)
        path = propagate_moments(sol, spec)
        rep = residual_check(path, sol)
        assert rep.rE < 1e-6, (kw, rep.rE)
        assert rep.rV is not None and rep.rV < 1e-6, (kw, rep.rV)
        worst_E = max(worst_E, rep.rE)
        worst_V = max(worst_V, rep.rV)
    report(2, f"expectation/variance residuals over 9 scenarios: "
              f"max rE {worst_E:.2e}, max rV {worst_V:.2e} < 1e-6")


# 3. ------------------------------------------------------------------
# Two representations of the characteristic function agree pointwise.
EQUIV_SCENARIOS = [
    ("brownian", dict(delta=1.0)),
    ("point-jump", dict(lam=2.0, jump={"type": "point", "params": {"z0": 1.0}})),
    ("mixed", dict(a=1.0, b=0.2, B_T=0.1, delta=0.5, lam=1.0,
                   jump={"type": "gaussian", "params": {"mu": 0.3, "sigma": 0.5}})),
]


def test_acceptance_3_representation_equivalence():
    omegas = np.linspace(-20.0, 20.0, 21)
    worst = 0.0
    for name, kw in EQUIV_SCENARIOS:
        ev = CharFunEvaluator.from_scenario(make_spec(**kw), N=4096, M=512)
        for t in (0.25, 0.5, 1.0):
            direct = ev.eval_fundamental_charfun(t, omegas)
            via = ev.eval_charfun_via_moments(t, omegas)
            err = float(np.max(np.abs(direct - via)))
            worst = max(worst, err)
            assert err < 1e-6, (name, t, err)
    report(3, f"direct vs moment-form characteristic function: max diff {worst:.2e} < 1e-6")


# 4. ------------------------------------------------------------------
# Diffusion-only density inversion reproduces the Gaussian closed form.
def test_acceptance_4_gaussian_density_oracle():
    spec = make_spec(a=0.0, b=0.4, A_T=-0.5, B_T=0.3, delta=1.0, x0=0.2, v0=0.1)
    ev = CharFunEvaluator.from_scenario(spec, N=4096, M=512)
    grid = ev.invert_density(1.0, n_x=4096)
    E, V = ev.solution_moments(1.0)
    err = float(np.max(np.abs(grid.m - gaussian_density(E, V, grid.x))))
    assert err < 1e-6
    assert abs(grid.mass - 1.0) < 1e-6
    report(4, f"inverted density vs Gaussian closed form: max |diff| {err:.2e} < 1e-6, "
              f"|mass-1| {abs(grid.mass - 1.0):.2e} < 1e-6")


# 5. ------------------------------------------------------------------
# Monte Carlo adjudication at 1e5 paths, dt = 1e-3, fixed seed.
MC_SCENARIOS = [
    ("brownian", dict(delta=1.0), (0.5, 1.0)),
    ("pure-jump", dict(lam=2.0, jump={"type": "point", "params": {"z0": 1.0}}), (0.5, math.pi)),
    ("constant-A", dict(a=-2.0, A_T=1.0, x0=1.0, delta=1.0), (0.5, 1.0)),
]


def test_acceptance_5_monte_carlo_adjudication():
    worst = 0.0
    for name, kw, omegas in MC_SCENARIOS:
        spec = make_spec(**kw)
        sol = solve_backward(spec, N=4096)
        path = propagate_moments(sol, spec)
        ev = CharFunEvaluator.from_scenario(spec, N=4096, M=512)
        cfg = SimConfig(n_paths=10**5, dt=1e-3, seed=20240715, record_times=(0.5, 1.0))
        sim = simulate_paths(spec, sol, cfg)
        rep = compare_report(path, ev, sim, omegas=omegas)
        assert rep.passed, (name, rep.to_dict())
        worst = max(worst, rep.max_abs_z)

        if name == "constant-A":
            literal = propagate_moments(sol, spec, literal_init=True)
            z_lit = compare_report(literal, None, sim).max_abs_z
            assert z_lit > 10, z_lit
            report(5, f"all |z| <= 4 (worst {worst:.2f}); literal initial-condition "
                      f"form rejected with |z| = {z_lit:.0f} > 10")


# 6. ------------------------------------------------------------------
# Mean-field fixed point solves the reduced linear equation.
MEANFIELD_CASES = [
    # (coupling, terminal slope, closed-form solution)
    ({"b0": 0.0, "b1": 1.0, "b2": 0.0}, -math.sin(1.0), lambda t: np.cos(t)),
    ({"b0": 1.0, "b1": 0.0, "b2": 0.0}, -1.0, lambda t: -t * t / 2.0),
    ({"b0": 0.0, "b1": 0.0, "b2": 1.0}, -math.exp(-1.0), lambda t: np.exp(-t)),
]


def _solve_linear_ode(b0, b1, b2, a, E0, Ep0, t):
    y, yp = E0, Ep0
    out = np.empty(len(t))
    out[0] = y
    for k in range(len(t) - 1):
        h = t[k + 1] - t[k]

        def f(yy, pp):
            return pp, -b0 - b2 * pp - (2 * a + b1) * yy

        k1 = f(y, yp)
        k2 = f(y + h / 2 * k1[0], yp + h / 2 * k1[1])
        k3 = f(y + h / 2 * k2[0], yp + h / 2 * k2[1])
        k4 = f(y + h * k3[0], yp + h * k3[1])
        y += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        yp += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        out[k + 1] = y
    return out


def test_acceptance_6_meanfield_fixed_point():
    worst_res = worst_gap = 0.0
    for coupling, B_T, exact in MEANFIELD_CASES:
        x0 = exact(np.zeros(1))[0] if coupling["b0"] == 0 else 0.0
        spec = make_spec(meanfield=coupling, delta=0.3, x0=float(x0), B_T=B_T)
        mf = solve_meanfield_fixedpoint(spec, N=4096)
        assert mf.iterations <= 50
        assert mf.residual < 1e-6
        t = mf.path.t
        direct = _solve_linear_ode(coupling["b0"], coupling["b1"], coupling["b2"],
                                   0.0, mf.path.E[0, 0], mf.path.E_prime[0, 0], t)
        gap = float(np.max(np.abs(mf.path.E[:, 0] - direct)))
        assert gap < 1e-8
        assert float(np.max(np.abs(mf.path.E[:, 0] - exact(t)))) < 1e-6
        worst_res = max(worst_res, mf.residual)
        worst_gap = max(worst_gap, gap)
    report(6, f"three couplings: max ODE residual {worst_res:.2e} < 1e-6, "
              f"max gap to direct linear solve {worst_gap:.2e} < 1e-8")


# 7. ------------------------------------------------------------------
# Parameter recovery: noiseless exactness, noisy accuracy, classification.
def _synthetic(a, b, K, init, t, noise=0.0, seed=0):
    cf = closed_form_moments_const(a, b, K, init)
    E = cf.E_fn(t)
    V = np.abs(cf.V_fn(t))
    if noise:
        rng = np.random.default_rng(seed)
        E = E + noise * float(np.max(np.abs(E))) * rng.standard_normal(len(t))
    return ObservedSeries(t=t, E=E, V=V)


def test_acceptance_7_recovery():
    noiseless = [
        (1.0, 0.5, 0.1, {"E0": 1.0, "E0p": 0.3, "V0": 1.0, "V0p": 0.0}, 1.08),
        (-1.0, 0.5, 0.8, {"E0": 0.5, "E0p": 1.0, "V0": 1.0, "V0p": 0.2}, 2.0),
        (0.0, 0.6, 0.6, {"E0": 1.0, "E0p": 2.0, "V0": 1.0, "V0p": 1.0}, 3.0),
    ]
    worst = 0.0
    for a, b, K, init, window in noiseless:
        series = _synthetic(a, b, K, init, np.linspace(0, window, 50))
        params = fit_parameters(series)
        err = max(abs(params.a - a), abs(params.b[0] - b))
        worst = max(worst, err)
        assert err < 1e-6, (a, b, err)

    # 95th-percentile relative error under 1 percent noise, 100 realizations
    t5 = np.linspace(0, 5, 50)
    init_osc = {"E0": 1.0, "E0p": 0.3, "V0": 1.0, "V0p": 0.2}
    errs_a, errs_b = [], []
    for seed in range(100):
        series = _synthetic(1.0, 0.5, 0.3, init_osc, t5, noise=0.01, seed=seed)
        params = fit_parameters(series, branch="oscillatory")
        errs_a.append(abs(params.a - 1.0) / 1.0)
        errs_b.append(abs(params.b[0] - 0.5) / 0.5)
    p95_a = float(np.percentile(errs_a, 95))
    p95_b = float(np.percentile(errs_b, 95))
    assert p95_a < 0.05 and p95_b < 0.05, (p95_a, p95_b)

    # branch classification on a 100-series noisy suite
    suites = (
        [("oscillatory", 1.0, 0.5, 0.3, init_osc, 5.0)] * 34
        + [("exponential", -1.0, 0.5, 0.8, {"E0": 0.5, "E0p": 1.0, "V0": 1.0, "V0p": 0.2}, 2.0)] * 33
        + [("polynomial", 0.0, 0.6, 0.6, {"E0": 1.0, "E0p": 2.0, "V0": 1.0, "V0p": 1.0}, 5.0)] * 33
    )
    correct = 0
    for seed, (branch, a, b, K, init, window) in enumerate(suites):
        series = _synthetic(a, b, K, init, np.linspace(0, window, 50), noise=0.01, seed=seed)
        correct += classify_branch(series)[0] == branch
    assert correct >= 99, correct
    report(7, f"noiseless recovery error {worst:.2e} < 1e-6; noisy 95th-pct error "
              f"a {p95_a:.3f}, b {p95_b:.3f} < 0.05; classification {correct}/100")


# 8. ------------------------------------------------------------------
# Diffusion-only characteristic functions stay Gaussian in (E, V).
def test_acceptance_8_gaussian_preservation():
    spec = make_spec(a=1.0, b=1.0, A_T=0.3, B_T=0.2, delta=1.0, x0=0.7, v0=0.5, T=0.8)
    ev = CharFunEvaluator.from_scenario(spec, N=4096, M=512)
    h = 1e-3
    w = np.array([-2 * h, -h, 0.0, h, 2 * h])
    worst = 0.0
    for t in (0.2, 0.5, 0.75):
        f = np.log(np.asarray(ev.eval_solution_charfun(t, w)))
        third = abs((f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3))
        worst = max(worst, float(third))
        assert third < 1e-6, (t, third)
    report(8, f"third difference of log charfun at omega=0: max {worst:.2e} < 1e-6")


# 9. ------------------------------------------------------------------
# Byte-identical compare pipeline, independent of worker count.
def test_acceptance_9_determinism(tmp_path, monkeypatch):
    doc = make_doc(delta=0.5, lam=2.0, jump={"type": "point", "params": {"z0": 1.0}})
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    args = ["compare", "--scenario", str(scenario), "--paths", "2000", "--dt", "0.005",
            "--seed", "11", "--grid", "512", "--quad", "128"]

    digests = []
    for run, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / run
        monkeypatch.setenv("MFG_MOMENTS_THREADS", workers)
        assert cli_main(args + ["--out", str(out)]) == 0
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        })
    assert digests[0] == digests[1] == digests[2]
    report(9, f"{len(digests[0])} output files digest-identical across reruns "
              f"and worker counts 1 vs 4")
