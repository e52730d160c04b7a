import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfg_moments import (
    CharFunEvaluator,
    ScenarioError,
    SimConfig,
    SimResult,
    SingularityError,
    compare_report,
    empirical_charfun,
    mc,
    propagate_moments,
    sim_from_csv,
    sim_to_csv,
    simulate_paths,
    solve_backward,
)

from conftest import make_spec


def run(spec, n_paths=2000, dt=0.005, seed=7, times=(0.5, 1.0), N=512, **kw):
    sol = solve_backward(spec, N)
    cfg = SimConfig(n_paths=n_paths, dt=dt, seed=seed, record_times=times, **kw)
    return sol, simulate_paths(spec, sol, cfg)


class TestSimulation:
    def test_no_noise_paths_are_constant(self):
        spec = make_spec(x0=0.75)
        _, res = run(spec, n_paths=1000)
        assert np.all(res.E_hat == 0.75)
        assert np.all(res.V_hat == 0.0)
        assert np.all(res.n_jumps == 0)

    def test_bit_exact_reproducibility(self, pure_jump_spec):
        _, a = run(pure_jump_spec)
        _, b = run(pure_jump_spec)
        assert np.array_equal(a.endpoints, b.endpoints)
        assert np.array_equal(a.V_hat, b.V_hat)

    def test_independent_of_worker_count(self, pure_jump_spec, monkeypatch):
        monkeypatch.setenv("MFG_MOMENTS_THREADS", "1")
        _, a = run(pure_jump_spec, n_paths=5000)
        monkeypatch.setenv("MFG_MOMENTS_THREADS", "3")
        _, b = run(pure_jump_spec, n_paths=5000)
        assert np.array_equal(a.endpoints, b.endpoints)

    def test_estimators_are_numpy_sample_moments_to_the_bit(self, pure_jump_spec):
        _, res = run(pure_jump_spec, n_paths=5000, times=(0.0, 0.5, 1.0))
        x = res.endpoints
        assert np.array_equal(res.E_hat, x.mean(axis=0))
        assert np.array_equal(res.se_E, x.std(axis=0, ddof=1) / math.sqrt(5000))
        assert np.array_equal(res.V_hat, x.var(axis=0, ddof=1).mean(axis=1))

    def test_brownian_moments_within_z_bounds(self, brownian_spec):
        _, res = run(brownian_spec, n_paths=20000)
        i = res.record_index(1.0)
        assert abs(res.E_hat[i, 0]) <= 4 * res.se_E[i, 0]
        assert abs(res.V_hat[i] - 1.0) <= 5 * res.se_V[i]

    def test_pure_jump_moments(self, pure_jump_spec):
        _, res = run(pure_jump_spec, n_paths=20000, dt=0.002)
        i = res.record_index(1.0)
        assert abs(res.E_hat[i, 0] - 2.0) <= 4 * res.se_E[i, 0]
        assert abs(res.V_hat[i] - 2.0) <= 4 * res.se_V[i]
        # about lam * T * n_paths events in total
        assert res.n_jumps[i] == pytest.approx(2.0 * 20000, rel=0.05)

    def test_gaussian_initial_law_sampled(self):
        spec = make_spec(x0=1.0, v0=0.25)
        _, res = run(spec, n_paths=20000)
        i = res.record_index(1.0)
        assert abs(res.E_hat[i, 0] - 1.0) <= 4 * res.se_E[i, 0]
        assert abs(res.V_hat[i] - 0.25) <= 4 * res.se_V[i]

    def test_weak_convergence_order_one(self):
        # deterministic drift: halving dt roughly halves the endpoint error
        spec = make_spec(a=-2.0, A_T=1.0, x0=1.0)
        sol = solve_backward(spec, 512)
        errs = []
        for dt in (0.01, 0.005):
            cfg = SimConfig(n_paths=1000, dt=dt, seed=1, record_times=(0.5,))
            res = simulate_paths(spec, sol, cfg)
            errs.append(abs(res.E_hat[0, 0] - math.e))
        ratio = errs[0] / errs[1]
        assert 1.5 <= ratio <= 3.0

    def test_cross_coordinate_independence(self):
        spec = make_spec(n=2, delta=1.0, B_T=[0.0, 0.5])
        _, res = run(spec, n_paths=20000, times=(1.0,))
        x = res.endpoints[:, 0, :]
        cov = np.cov(x[:, 0], x[:, 1], ddof=1)[0, 1]
        se = float(np.sqrt(np.var(x[:, 0], ddof=1) * np.var(x[:, 1], ddof=1) / 20000))
        assert abs(cov) <= 4 * se
        # distinct drift components actually applied
        assert res.E_hat[0, 1] - res.E_hat[0, 0] == pytest.approx(0.5, abs=4 * 2 * res.se_E[0, 0])

    def test_per_coordinate_jump_variance_rate(self):
        # n = 2 gaussian jumps: per-coordinate variance lam * sigma^2 * t,
        # not the lam * M2 * t one would get from the total second moment
        spec = make_spec(n=2, lam=1.0, jump={"type": "gaussian", "params": {"mu": 0.0, "sigma": 0.8}})
        sol = solve_backward(spec, 512)
        path = propagate_moments(sol, spec)
        _, res = run(spec, n_paths=20000, dt=0.002, times=(1.0,))
        assert path.V[-1] == pytest.approx(0.64, abs=1e-12)
        assert abs(res.V_hat[0] - 0.64) <= 4 * res.se_V[0]
        assert abs(res.V_hat[0] - 1.28) > 10 * res.se_V[0]

    def test_lambda_dt_guard(self, pure_jump_spec):
        sol = solve_backward(pure_jump_spec, 512)
        cfg = SimConfig(n_paths=1000, dt=0.26 * 0.0385, seed=1, record_times=())
        with pytest.raises(ScenarioError):
            SimConfig(n_paths=1000, dt=0.3, seed=1, record_times=()).validate(pure_jump_spec)
        big_lam = make_spec(lam=100.0, jump={"type": "point", "params": {"z0": 1.0}})
        sol2 = solve_backward(big_lam, 512)
        with pytest.raises(ScenarioError, match="reduce dt"):
            simulate_paths(big_lam, sol2, SimConfig(n_paths=1000, dt=0.01, seed=1, record_times=(0.5,)))

    def test_record_time_divisibility(self, brownian_spec):
        with pytest.raises(ScenarioError, match="multiple of dt"):
            SimConfig(n_paths=1000, dt=0.003, seed=1, record_times=(0.5,)).validate(brownian_spec)

    def test_minimum_path_count(self, brownian_spec):
        with pytest.raises(ScenarioError, match="n_paths"):
            SimConfig(n_paths=10, dt=0.005, seed=1, record_times=()).validate(brownian_spec)

    def test_singular_drift_refused(self):
        spec = make_spec(a=2.0, A_T=0.0, T=math.pi)
        sol = solve_backward(spec, 2048)
        cfg = SimConfig(n_paths=1000, dt=math.pi / 1000, seed=1, record_times=(math.pi / 2,))
        with pytest.raises(SingularityError, match="singular drift"):
            simulate_paths(spec, sol, cfg)


JUMP_LAWS = {
    "none": {},
    "point": {"lam": 3.0, "jump": {"type": "point", "params": {"z0": 0.4}}},
    "gaussian": {"lam": 3.0, "jump": {"type": "gaussian", "params": {"mu": 0.1, "sigma": 0.3}}},
}


class TestBlockSampler:
    @settings(max_examples=12, deadline=None)
    @given(n_paths=st.integers(1000, 3 * mc._BLOCK), jumps=st.sampled_from(sorted(JUMP_LAWS)),
           gaussian_initial=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_worker_count_does_not_change_a_bit(self, n_paths, jumps, gaussian_initial, seed):
        spec = make_spec(a=-0.3, b=0.1, delta=0.5, x0=0.2, v0=0.3 if gaussian_initial else 0.0,
                         **JUMP_LAWS[jumps])
        sol = solve_backward(spec, 256)
        cfg = SimConfig(n_paths=n_paths, dt=0.01, seed=seed, record_times=(0.3, 1.0))
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            for workers in ("1", "3"):
                mp.setenv("MFG_MOMENTS_THREADS", workers)
                out[workers] = simulate_paths(spec, sol, cfg)
        assert np.array_equal(out["1"].endpoints, out["3"].endpoints)
        assert np.array_equal(out["1"].n_jumps, out["3"].n_jumps)

    def test_record_time_order_does_not_change_a_bit(self):
        spec = make_spec(n=2, a=-0.3, delta=0.5, x0=[0.1, -0.2], v0=0.2, lam=2.0,
                         jump={"type": "gaussian", "params": {"mu": 0.1, "sigma": 0.3}})
        _, ref = run(spec, n_paths=5000, times=(0.0, 0.37, 1.0))
        _, res = run(spec, n_paths=5000, times=(1.0, 0.0, 0.37))
        assert np.array_equal(res.endpoints, ref.endpoints[:, [2, 0, 1]])
        assert np.array_equal(res.n_jumps, ref.n_jumps[[2, 0, 1]])

    def test_deterministic_chain_matches_a_step_loop(self):
        spec = make_spec(n=2, a=-0.8, b=[0.3, -0.2], A_T=0.5, B_T=[0.1, 0.4], x0=[1.0, -0.5])
        sol = solve_backward(spec, 512)
        dt, times = 0.002, (0.0, 0.3, 0.74, 1.0)
        res = simulate_paths(spec, sol, SimConfig(n_paths=1000, dt=dt, seed=1, record_times=times))
        X, k = np.array([1.0, -0.5]), 0
        for i, t in enumerate(times):
            while k < round(t / dt):
                A = np.interp(k * dt, sol.t, sol.A)
                B = np.array([np.interp(k * dt, sol.t, sol.B[:, c]) for c in range(2)])
                X = (1.0 + 2.0 * A * dt) * X + B * dt
                k += 1
            np.testing.assert_allclose(res.endpoints[:, i], np.broadcast_to(X, (1000, 2)),
                                       rtol=1e-13, atol=0)

    @pytest.mark.parametrize("jump", [
        {"type": "point", "params": {"z0": [0.4, -0.4]}},
        {"type": "gaussian", "params": {"mu": [0.1, -0.1], "sigma": 0.5}},
    ])
    def test_moments_match_the_exact_chain_moments(self, jump):
        # the Euler chain's own discrete moments, per coordinate:
        # m <- g m + d + lam dt E[Z],  v <- g^2 v + noise^2 + lam dt E[Z^2]
        lam, dt, n_paths = 2.0, 0.005, 20000
        spec = make_spec(n=2, a=-2.0, b=[0.2, -0.1], A_T=1.0, B_T=[0.3, 0.0], delta=0.7,
                         x0=[0.5, -1.0], v0=0.3, lam=lam, jump=jump)
        times = (0.25, 0.6, 1.0)
        sol, res = run(spec, n_paths=n_paths, dt=dt, seed=19, times=times)
        p = jump["params"]
        if jump["type"] == "point":
            EZ = np.array(p["z0"])
            EZ2 = EZ**2
        else:
            EZ = np.array(p["mu"])
            EZ2 = EZ**2 + p["sigma"] ** 2
        m, v = np.array([0.5, -1.0]), np.full(2, 0.3)
        k = 0
        for i, t in enumerate(times):
            while k < round(t / dt):
                g = 1.0 + 2.0 * dt * np.interp(k * dt, sol.t, sol.A)
                d = dt * np.array([np.interp(k * dt, sol.t, sol.B[:, c]) for c in range(2)])
                m = g * m + d + lam * dt * EZ
                v = g * g * v + spec.delta**2 * dt + lam * dt * EZ2
                k += 1
            z_E = (res.E_hat[i] - m) / res.se_E[i]
            z_V = (res.V_hat[i] - v.mean()) / res.se_V[i]
            assert np.all(np.abs(z_E) <= 4.0) and abs(z_V) <= 4.0, (t, z_E, z_V)

    def test_peak_memory_does_not_depend_on_dt(self, monkeypatch):
        monkeypatch.setenv("MFG_MOMENTS_THREADS", "1")
        spec = make_spec(a=-0.3, delta=0.5, lam=2.0, jump={"type": "point", "params": {"z0": 0.4}})
        sol = solve_backward(spec, 512)
        peaks = []
        for dt in (0.005, 0.005 / 8):
            cfg = SimConfig(n_paths=mc._BLOCK, dt=dt, seed=3, record_times=(0.5, 1.0),
                            keep_endpoints=False)
            tracemalloc.start()
            try:
                simulate_paths(spec, sol, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.5 * min(peaks), peaks

    def test_jump_totals_follow_the_poisson_rate(self):
        lam, n_paths = 3.0, 20000
        spec = make_spec(delta=0.5, lam=lam, jump={"type": "point", "params": {"z0": 0.2}})
        times = (0.0, 0.25, 0.5, 1.0)
        _, res = run(spec, n_paths=n_paths, dt=0.01, seed=5, times=times)
        assert res.n_jumps[0] == 0
        for t, total in zip(times[1:], res.n_jumps[1:]):
            expected = lam * t * n_paths
            assert abs(total - expected) <= 4.0 * math.sqrt(expected), (t, total)


class TestSimCsv:
    def test_round_trip(self, pure_jump_spec):
        _, res = run(pure_jump_spec, times=(0.0, 0.5, 1.0))
        again = sim_from_csv(sim_to_csv(res))
        assert again.record_times == res.record_times
        for name in ("E_hat", "se_E", "V_hat", "se_V", "n_jumps"):
            assert np.array_equal(getattr(again, name), getattr(res, name))

    VALID = "t,E_hat_1,se_E_1,V_hat,se_V,n_jumps\n0.5,1,0.1,2,0.2,7\n1,2,0.1,3,0.3,15\n"

    @pytest.mark.parametrize("text,cause", [
        ("", "empty"),
        ("\n  \n", "empty"),
        ("t,V_hat,se_V,n_jumps\n0.5,2,0.2,7\n", "line 1: header must be"),
        (VALID.replace("\n1,2,0.1,3,0.3,15\n", "\n1,2,0.1,3,0.3\n"), "line 3 has 5 fields"),
        (VALID.replace("0.5,1,0.1", "0.5,x,0.1"), "line 2 holds a value that is not a number"),
        (VALID.replace(",7\n", ",7.5\n"), "line 2: n_jumps must be a non-negative integer"),
        (VALID.replace(",15\n", ",-3\n"), "line 3: n_jumps must be a non-negative integer"),
    ], ids=["empty", "blank", "no-E_hat-column", "ragged-row", "non-numeric", "fractional-count",
            "negative-count"])
    def test_malformed_table_names_the_line(self, text, cause):
        with pytest.raises(ScenarioError, match=cause):
            sim_from_csv(text)

    def test_header_only_is_an_empty_table(self):
        res = sim_from_csv(self.VALID.splitlines()[0] + "\n")
        assert res.record_times == () and res.E_hat.shape == (0, 1)


class TestEmpiricalCharfun:
    def test_omega_zero_exact(self, brownian_spec):
        _, res = run(brownian_spec)
        emp = empirical_charfun(res, 1.0, [0.0])
        assert emp["mean"][0] == 1.0 + 0.0j
        assert emp["se_re"][0] == 0.0

    def test_heat_kernel_value(self, brownian_spec):
        _, res = run(brownian_spec, n_paths=20000)
        emp = empirical_charfun(res, 1.0, [1.0])
        assert abs(emp["mean"][0].real - math.exp(-0.5)) <= 4 * emp["se_re"][0]

    def test_requires_endpoints(self, brownian_spec):
        _, res = run(brownian_spec, keep_endpoints=False)
        with pytest.raises(ScenarioError, match="endpoints"):
            empirical_charfun(res, 1.0, [1.0])


class TestCompareReport:
    def test_identity_gives_zero_z(self, brownian_spec):
        sol = solve_backward(brownian_spec, 512)
        path = propagate_moments(sol, brownian_spec)
        sim = SimResult(
            record_times=(0.5,),
            E_hat=np.array([[path.E_at(0.5)[0]]]),
            se_E=np.array([[0.01]]),
            V_hat=np.array([float(path.V_at(0.5))]),
            se_V=np.array([0.01]),
            n_jumps=np.array([0]),
            n_paths=1000,
            endpoints=None,
        )
        rep = compare_report(path, None, sim)
        assert rep.max_abs_z == 0.0 and rep.passed

    def test_full_report_passes_on_brownian(self, brownian_spec):
        sol, res = run(brownian_spec, n_paths=20000)
        path = propagate_moments(sol, brownian_spec)
        ev = CharFunEvaluator.from_scenario(brownian_spec, N=512, M=64)
        rep = compare_report(path, ev, res, omegas=(0.5, 1.0))
        assert rep.passed, rep.to_dict()

    def test_refinement_deltas_present(self, brownian_spec):
        sol = solve_backward(brownian_spec, 512)
        path = propagate_moments(sol, brownian_spec)
        res = simulate_paths(brownian_spec, sol, SimConfig(1000, 0.01, 3, (1.0,)))
        res2 = simulate_paths(brownian_spec, sol, SimConfig(1000, 0.005, 3, (1.0,)))
        rep = compare_report(path, None, res, sim_refined=res2)
        assert rep.dt_refinement is not None
        assert len(rep.dt_refinement["delta_E"]) == 1

    def test_mismatched_record_times_rejected(self, brownian_spec):
        sol = solve_backward(brownian_spec, 512)
        path = propagate_moments(sol, brownian_spec)
        res = simulate_paths(brownian_spec, sol, SimConfig(1000, 0.01, 3, (1.0,)))
        res2 = simulate_paths(brownian_spec, sol, SimConfig(1000, 0.005, 3, (0.5,)))
        with pytest.raises(ScenarioError, match="mismatched record times"):
            compare_report(path, None, res, sim_refined=res2)

    def test_literal_initial_condition_fails_z_test(self):
        # the discriminating experiment: unpropagated initial mean misses by e - 1
        spec = make_spec(a=-2.0, A_T=1.0, x0=1.0, delta=1.0)
        sol = solve_backward(spec, 512)
        cfg = SimConfig(n_paths=20000, dt=0.005, seed=11, record_times=(0.5,))
        res = simulate_paths(spec, sol, cfg)
        literal = propagate_moments(sol, spec, literal_init=True)
        propagated = propagate_moments(sol, spec)
        z_lit = abs(compare_report(literal, None, res).max_abs_z)
        z_prop = abs(compare_report(propagated, None, res).max_abs_z)
        assert z_lit > 10
        assert z_prop <= 4
