import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from mfg_moments import (
    GridResolutionError,
    ScenarioError,
    SingularityError,
    check_conditions,
    closed_form_A_const,
    eval_control_phi,
    hjb_from_csv,
    hjb_to_csv,
    scenario_from_dict,
    solve_backward,
    solve_meanfield_fixedpoint,
)
from mfg_moments import hjb, model, propagate_moments
from mfg_moments.hermite import Hermite, uniform_step

from conftest import make_doc, make_spec

# (a, A_T, T) combinations whose linearizer has no zero inside [0, T]
SAFE_CASES = [
    (2.0, 1.0, 0.30), (2.0, 0.0, 0.60), (2.0, -0.25, 0.75),
    (0.0, 1.0, 0.40), (0.0, 0.0, 1.00), (0.0, -0.25, 1.00),
    (-2.0, 1.0, 1.00), (-2.0, 0.0, 1.00), (-2.0, -0.25, 1.00),
]


class TestClosedFormA:
    def test_positive_a_spot_value(self):
        # tan branch: theta(0) = pi/4 gives A(0) = 1
        assert closed_form_A_const(2.0, 0.0, math.pi / 8, 0.0) == pytest.approx(1.0)

    def test_zero_a_zero_terminal(self):
        for t in (0.0, 0.3, 0.9):
            assert closed_form_A_const(0.0, 0.0, 1.0, t) == 0.0

    def test_negative_a_equilibrium(self):
        # a = -2 A_T^2 makes the Riccati right side vanish identically
        for t in (0.0, 0.4, 1.0):
            assert closed_form_A_const(-2.0, 1.0, 1.0, t) == pytest.approx(1.0)

    @pytest.mark.parametrize("a,A_T,T", SAFE_CASES)
    def test_riccati_residual_of_closed_form(self, a, A_T, T):
        # central-difference residual of A' + 2A^2 + a = 0
        h = T / 10**4
        ts = np.linspace(2 * h, T - 2 * h, 41)
        for t in ts:
            Ap = (closed_form_A_const(a, A_T, T, t + h) - closed_form_A_const(a, A_T, T, t - h)) / (2 * h)
            A = closed_form_A_const(a, A_T, T, t)
            assert abs(Ap + 2 * A * A + a) < 1e-6 * max(1.0, A * A)

    def test_singular_time_returns_inf(self):
        # a = 0, A_T = 1: u vanishes at T - t = 1/2
        val = closed_form_A_const(0.0, 1.0, 1.0, 0.5)
        assert math.isinf(val)


class TestSolveBackward:
    @pytest.mark.parametrize("a,A_T,T", SAFE_CASES)
    def test_matches_closed_form(self, a, A_T, T):
        spec = make_spec(a=a, A_T=A_T, T=T)
        sol = solve_backward(spec, N=1024)
        ref = np.array([closed_form_A_const(a, A_T, T, t) for t in sol.t])
        assert np.max(np.abs(sol.A - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10

    def test_terminal_conditions_exact(self):
        spec = make_spec(a=1.0, b=0.3, c=0.2, A_T=0.7, B_T=-0.4, C_T=2.5, T=0.5)
        sol = solve_backward(spec, N=256)
        assert sol.A[-1] == 0.7
        assert sol.B[-1, 0] == -0.4
        assert sol.C[-1] == 2.5
        assert sol.u[-1] == 1.0 and sol.udot[-1] == 2 * 0.7

    def test_all_sources_vanish(self):
        spec = make_spec(B_T=0.25)
        sol = solve_backward(spec, N=128)
        assert np.all(sol.A == 0.0)
        assert np.allclose(sol.B[:, 0], 0.25, atol=1e-14)

    def test_riccati_residual_on_grid(self):
        # residual of the derived A on the solver's own fine grid
        for a, A_T, T in [(2.0, 0.0, 0.6), (0.0, -1.0, 1.0), (-2.0, 1.0, 1.0)]:
            spec = make_spec(a=a, A_T=A_T, T=T)
            sol = solve_backward(spec, N=10**4)
            h = sol.t[1] - sol.t[0]
            Ap = (sol.A[2:] - sol.A[:-2]) / (2 * h)
            r = Ap + 2 * sol.A[1:-1] ** 2 + a
            scale = np.maximum(1.0, sol.A[1:-1] ** 2)
            assert np.max(np.abs(r) / scale) < 1e-6

    def test_linear_v_is_regular_across_riccati_poles(self):
        # long horizon with two focal times: A blows up, v = uB stays bounded
        spec = make_spec(a=2.0, b=0.3, A_T=0.0, B_T=1.0, T=math.pi)
        sol = solve_backward(spec, N=4096)
        assert len(sol.singular_times) == 2
        assert np.all(np.isfinite(sol.v))
        assert np.max(np.abs(sol.v)) < 10.0

    def test_C_masked_past_first_backward_singularity(self):
        spec = make_spec(a=2.0, b=0.3, A_T=0.0, B_T=1.0, T=math.pi, delta=1.0)
        sol = solve_backward(spec, N=4096)
        t_star = max(sol.singular_times)
        assert np.all(np.isnan(sol.C[sol.t < t_star]))
        assert np.all(np.isfinite(sol.C[sol.t > t_star + 0.01]))

    def test_grid_too_coarse_raises(self):
        spec = make_spec(a=2.0e4, T=1.0)
        with pytest.raises(GridResolutionError, match="sign changes"):
            solve_backward(spec, N=128)

    def test_mean_field_b_requires_override(self):
        spec = make_spec(meanfield={"b0": 0, "b1": 1, "b2": 0})
        with pytest.raises(Exception, match="fixed-point"):
            solve_backward(spec, N=128)

    def test_polynomial_time_coefficient(self):
        from mfg_moments import scenario_from_dict
        from conftest import make_doc

        doc = make_doc(A_T=0.2, T=0.8)
        doc["cost"]["a"] = {"poly": [0.0, 1.0]}  # a(t) = t
        spec = scenario_from_dict(doc)
        sol = solve_backward(spec, N=4096)
        h = sol.t[1] - sol.t[0]
        Ap = (sol.A[2:] - sol.A[:-2]) / (2 * h)
        r = Ap + 2 * sol.A[1:-1] ** 2 + sol.t[1:-1]
        assert np.max(np.abs(r)) < 1e-6

    def test_csv_round_trip(self):
        spec = make_spec(a=2.0, b=0.3, A_T=0.0, B_T=1.0, T=math.pi, delta=1.0)
        sol = solve_backward(spec, N=512)
        again = hjb_from_csv(hjb_to_csv(sol))
        for name in ("t", "u", "udot", "v"):
            assert np.array_equal(getattr(sol, name), getattr(again, name))
        # NaN markers survive the round trip (NaN != NaN, compare bit masks)
        assert np.array_equal(np.isnan(sol.C), np.isnan(again.C))
        finite = np.isfinite(sol.C)
        assert np.array_equal(sol.C[finite], again.C[finite])


def _rel_err(got, ref):
    return float(np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref)))


class TestInterpolation:
    @pytest.mark.parametrize("a,T", [(2.0, math.pi), (0.5, 5.0), (4.5, 2.0)])
    def test_focal_times_match_closed_form(self, a, T):
        # u = cos(sqrt(2a)(T - t)) vanishes at T - (k + 1/2) pi / sqrt(2a)
        sol = solve_backward(make_spec(a=a, A_T=0.0, T=T), N=4096)
        nu = math.sqrt(2.0 * a)
        exact = sorted(T - (k + 0.5) * math.pi / nu for k in range(int(nu * T / math.pi + 0.5)))
        assert len(sol.singular_times) == len(exact) >= 1
        assert np.max(np.abs(np.array(sol.singular_times) - exact)) <= 1e-10

    @pytest.mark.parametrize("a,A_T,T", [(2.0, -0.25, 0.75), (-2.0, 0.3, 1.0), (0.7, 0.1, 1.0)])
    def test_off_grid_values(self, a, A_T, T):
        sol = solve_backward(make_spec(a=a, A_T=A_T, b=0.5, B_T=0.2, T=T), N=4096)
        x = np.random.default_rng(5).uniform(0.0, T, 257)
        tau = T - x
        if a > 0:
            nu = math.sqrt(2.0 * a)
            u_ref = np.cos(nu * tau) - (2.0 * A_T / nu) * np.sin(nu * tau)
        else:
            mu = math.sqrt(-2.0 * a)
            u_ref = np.cosh(mu * tau) - (2.0 * A_T / mu) * np.sinh(mu * tau)
        A_ref = [closed_form_A_const(a, A_T, T, t) for t in x]
        assert _rel_err(sol.u_at(x), u_ref) <= 1e-10
        assert _rel_err(sol.A_at(x), A_ref) <= 1e-10
        assert _rel_err(sol.B_at(x), CubicSpline(sol.t, sol.B, axis=0)(x)) <= 1e-10

    def test_csv_round_trip_off_grid(self):
        # With the spec, the reloaded slopes come from the equations, as in the solver.
        doc = make_doc(a=-1.5, A_T=0.4, B_T=0.2, lam=1.5,
                       jump={"type": "point", "params": {"z0": 0.4}})
        doc["cost"]["b"] = {"poly": [0.3, -1.0]}
        spec = scenario_from_dict(doc)
        sol = solve_backward(spec, N=512)
        again = hjb_from_csv(hjb_to_csv(sol), spec)
        x = np.random.default_rng(6).uniform(0.0, 1.0, 257)
        for name in ("u_at", "A_at", "B_at", "v_at"):
            assert _rel_err(getattr(again, name)(x), getattr(sol, name)(x)) <= 1e-13

    @pytest.mark.parametrize("solved_n,spec_n", [(2, 1), (1, 2)])
    def test_csv_read_with_a_spec_of_another_dimension_raises(self, solved_n, spec_n):
        text = hjb_to_csv(solve_backward(make_spec(n=solved_n, b=0.2, B_T=0.1), N=128))
        cause = f"^hjb CSV has {solved_n} coordinates, the scenario {spec_n}$"
        with pytest.raises(ScenarioError, match=cause):
            hjb_from_csv(text, make_spec(n=spec_n, b=0.2))

    def test_csv_read_with_a_spec_checks_the_grid(self):
        text = "t,u,udot,A,v_1,B_1,C\n0,1,0,0,0,0,0\n0,1,0,0,0,0,0\n1,1,0,0,0,0,0\n"
        with pytest.raises(ScenarioError, match="^hjb CSV t column must be increasing"):
            hjb_from_csv(text, make_spec())

    def test_root_of_a_skewed_cubic(self):
        # The cubic t^3 - 0.1 is reproduced exactly; its zero is far from the secant point 0.1.
        t = np.array([0.0, 1.0])
        assert abs(Hermite(t, t**3 - 0.1, 3.0 * t**2).root(0) - 0.1 ** (1.0 / 3.0)) <= 2e-12

    def test_scalar_and_array_shapes(self):
        sol = solve_backward(make_spec(n=2, a=0.5, b=0.3, B_T=0.1), N=256)
        for fn in (sol.u_at, sol.A_at):
            assert isinstance(fn(0.3), float)
            assert fn(np.array([0.1, 0.3, 0.7])).shape == (3,)
        assert sol.B_at(0.3).shape == (2,)
        assert sol.B_at(np.array([0.1, 0.3, 0.7])).shape == (3, 2)

    def test_non_uniform_grid_rejected(self):
        t = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ScenarioError, match="uniform"):
            Hermite(t, t, np.ones(3))

    @pytest.mark.parametrize("t", [
        [0.0, np.nan, 2.0],      # NaN steps, finite mean step
        [0.0, 1.0, np.nan],      # NaN mean step
        [0.0, np.inf, 2.0],      # infinite steps, finite mean step
        [0.0, 1.0, np.inf],      # infinite mean step
    ], ids=["nan-step", "nan-mean", "inf-step", "inf-mean"])
    def test_non_finite_step_rejected(self, t):
        with pytest.raises(ScenarioError, match="^grid must be increasing and uniformly spaced$"):
            uniform_step(np.array(t), "grid")


class TestWeight:
    def test_identity_at_equal_times(self):
        spec = make_spec(a=1.0, A_T=0.3, T=0.6)
        sol = solve_backward(spec, N=256)
        assert sol.weight(0.37, 0.37) == 1.0

    def test_linear_u_oracle(self):
        # a = 0, A_T = -1: u(t) = 1 + 2 (T - t), so weight(T, 0) = 1/3
        spec = make_spec(a=0.0, A_T=-1.0, T=1.0)
        sol = solve_backward(spec, N=512)
        assert sol.weight(1.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert np.allclose(sol.u, 1.0 + 2.0 * (1.0 - sol.t), atol=1e-12)

    def test_multiplicativity(self):
        spec = make_spec(a=-2.0, A_T=1.0)
        sol = solve_backward(spec, N=512)
        lhs = sol.weight(1.0, 0.0)
        rhs = sol.weight(1.0, 0.5) * sol.weight(0.5, 0.0)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_non_finite_marker_at_zero_of_u(self):
        spec = make_spec(a=0.0, A_T=1.0, T=1.0)  # u vanishes at t = 0.5
        sol = solve_backward(spec, N=512)
        assert math.isnan(sol.weight(1.0, 0.5))


# A poly-uniform scenario of the solve_sweep workload, with its values
# computed by the point-by-point coefficient evaluation this replaces.
POLY_UNIFORM = make_doc(a={"poly": [-0.1, 0.15]}, b={"poly": [0.2, -0.1, 0.05]},
                        c={"poly": [0.3, 0.1]}, A_T=-0.1, delta=0.5, lam=1.2,
                        jump={"type": "uniform", "params": {"lo": -0.3, "hi": 0.5}},
                        x0=0.4, v0=0.2)
POLY_UNIFORM_VALUES = {
    "u0": 1.2015855157211255, "udot0": -0.25969793378600586, "v0": 0.15929874314053596,
    "C0": 0.3306168306433582, "A_mid": -0.08571736654412514, "B_mid": 0.0635891267475147,
    "E_T": 0.4999102879402778, "V_T": 0.4120949261287593, "E_mid": 0.4677820771290647,
    "V_mid": 0.31481408031141833,
}


class TestCoefficientCallables:
    def test_polynomial_coefficients_are_evaluated_once_per_grid(self, monkeypatch):
        calls = []

        def counted(factory):
            def make(*args):
                fn = factory(*args)

                def call(t):
                    calls.append(np.shape(t))
                    return fn(t)
                return call
            return make

        # propagation and its residual check call the callables the solve stored
        monkeypatch.setattr(hjb, "scalar_fn", counted(model.scalar_fn))
        monkeypatch.setattr(hjb, "vector_fn", counted(model.vector_fn))
        spec = scenario_from_dict(POLY_UNIFORM)
        propagate_moments(solve_backward(spec, 1024), spec)
        # a, b, c for the backward solve; a, b for propagation and its residual check
        assert len(calls) == 7
        assert all(shape != () for shape in calls)

    def test_type_error_inside_a_callable_propagates(self):
        with pytest.raises(TypeError):
            solve_backward(make_spec(), 256, b_override=lambda t: float(t))

    def test_wrong_shape_names_the_coefficient(self):
        with pytest.raises(ScenarioError, match="coefficient b"):
            solve_backward(make_spec(), 256, b_override=lambda t: np.zeros((len(t), 3)))

    def test_poly_uniform_outputs_unchanged(self):
        spec = scenario_from_dict(POLY_UNIFORM)
        sol = solve_backward(spec, 1024)
        path = propagate_moments(sol, spec)
        got = {"u0": sol.u[0], "udot0": sol.udot[0], "v0": sol.v[0, 0], "C0": sol.C[0],
               "A_mid": sol.A[512], "B_mid": sol.B[512, 0], "E_T": path.E[-1, 0],
               "V_T": path.V[-1], "E_mid": path.E[512, 0], "V_mid": path.V[512]}
        for name, ref in POLY_UNIFORM_VALUES.items():
            assert got[name] == pytest.approx(ref, rel=1e-13, abs=1e-15), name


class TestEvalControlPhi:
    def test_zero_coefficients(self):
        sol = solve_backward(make_spec(), N=128)
        phi, alpha = eval_control_phi(sol, 0.5, 2.0)
        assert phi == 0.0 and np.all(alpha == 0.0)

    def test_polynomial_evaluation(self):
        # constant coefficients A = 1, B = 2, C = 3 via a = -2, b = -4, c = -2
        spec = make_spec(a=-2.0, b=-4.0, c=-2.0, A_T=1.0, B_T=2.0, C_T=3.0)
        sol = solve_backward(spec, N=512)
        phi, alpha = eval_control_phi(sol, 0.25, 2.0)
        assert phi == pytest.approx(11.0, rel=1e-9)
        assert alpha[0] == pytest.approx(6.0, rel=1e-9)

    def test_constant_term_accumulates_quadrature_of_A(self):
        # a = 0, A_T = -1, delta = 1: C(0) = int_0^1 A = -0.5 ln 3
        spec = make_spec(a=0.0, A_T=-1.0, delta=1.0)
        sol = solve_backward(spec, N=2048)
        phi, alpha = eval_control_phi(sol, 0.0, 0.0)
        ref = quad(lambda s: closed_form_A_const(0.0, -1.0, 1.0, s), 0, 1)[0]
        assert ref == pytest.approx(-0.5 * math.log(3.0), abs=1e-10)
        assert phi == pytest.approx(ref, abs=1e-9)
        assert alpha[0] == pytest.approx(0.0, abs=1e-12)

    def test_error_at_focal_time(self):
        spec = make_spec(a=0.0, A_T=1.0, T=1.0)
        sol = solve_backward(spec, N=512)
        with pytest.raises(SingularityError, match="focal"):
            eval_control_phi(sol, 0.5, 1.0)


class TestCheckConditions:
    def test_strictly_positive_linearizer(self):
        spec = make_spec(a=0.0, A_T=-0.5)
        rep = check_conditions(solve_backward(spec, N=256), spec)
        assert rep.a_int_first_finite and rep.a_int_second_finite
        assert rep.singular_times == ()

    def test_short_positive_a_horizon(self):
        spec = make_spec(a=2.0, A_T=0.0, T=math.pi / 8)
        rep = check_conditions(solve_backward(spec, N=256), spec)
        assert rep.a_int_first_finite and rep.a_int_second_finite
        assert rep.singular_times == ()
        # e^{2 int A} = 1/cos(2T) here
        assert rep.a_int_first_value == pytest.approx(1.0 / math.cos(math.pi / 4), rel=1e-8)

    def test_meanfield_report_equals_an_explicit_solve_with_its_coupling(self):
        spec = make_spec(a=0.2, meanfield={"b0": 0.2, "b1": 0.3, "b2": 0}, A_T=-0.1, B_T=0.1,
                         delta=0.4, x0=1.0)
        sol = solve_meanfield_fixedpoint(spec, N=512).sol
        rep = check_conditions(sol, spec)
        assert rep.a_int_first_finite and rep.a_int_second_finite
        assert rep == check_conditions(solve_backward(spec, 512, b_override=sol.b_fn), spec)

    @pytest.mark.parametrize("N", [512, 1024, 2048])
    def test_focal_time_with_nonzero_v_diverges_on_every_grid(self, N):
        # v = B_T everywhere; u has one zero near t = 1.8128
        spec = make_spec(a=-0.004, c=0.1, A_T=1.2536, B_T=0.985, T=2.2118, delta=0.4)
        rep = check_conditions(solve_backward(spec, N), spec)
        assert len(rep.singular_times) == 1
        assert rep.singular_times[0] == pytest.approx(1.8128, abs=1e-4)
        assert not rep.a_int_first_finite and not rep.a_int_second_finite

    @pytest.mark.parametrize("T", [1.1, 1.0])
    def test_focal_time_with_vanishing_v_keeps_the_second_integral(self, T):
        # a = 0, A_T = 1: u(t) = 1 - 2(T - t) vanishes at T - 1/2; at T = 1 that
        # is node 512, where u is exactly 0.0 and the integrand 0/0
        spec = make_spec(a=0.0, A_T=1.0, T=T, delta=0.5)
        rep = check_conditions(solve_backward(spec, 1024), spec)
        assert rep.singular_times == (pytest.approx(T - 0.5, abs=1e-12),)
        assert not rep.a_int_first_finite and rep.a_int_second_finite
        assert rep.a_int_second_value == (0.0,)

    def test_focal_time_on_a_node_is_located(self):
        # T = 1: the zero t = 1/2 is node 512, where u is exactly 0.0
        spec = make_spec(a=0.0, b=0.3, A_T=1.0, T=1.0)
        sol = solve_backward(spec, 1024)
        assert sol.u[512] == 0.0
        rep = check_conditions(sol, spec)
        assert rep.singular_times == (0.5,)
        assert not rep.a_int_first_finite and not rep.a_int_second_finite

    @given(a=st.floats(-2.0, 3.0), A_T=st.floats(-1.0, 1.5), T=st.floats(0.3, 3.5),
           b=st.just(0.0) | st.floats(-1.0, 1.0), B_T=st.just(0.0) | st.floats(-1.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_flags_do_not_depend_on_the_grid(self, a, A_T, T, b, B_T):
        spec = make_spec(a=a, b=b, A_T=A_T, B_T=B_T, T=T)
        coarse, fine = (check_conditions(solve_backward(spec, N), spec) for N in (512, 2048))
        assert coarse.a_int_first_finite == fine.a_int_first_finite
        assert coarse.a_int_second_finite == fine.a_int_second_finite

    def test_makes_no_backward_solve(self, monkeypatch):
        spec = make_spec(a=2.0, b=0.3, B_T=1.0, T=math.pi)
        sol = solve_backward(spec, N=512)

        def refuse(*args, **kwargs):
            raise AssertionError("check_conditions solved the backward system again")

        monkeypatch.setattr(hjb, "solve_backward", refuse)
        rep = check_conditions(sol, spec)
        assert not rep.a_int_first_finite and not rep.a_int_second_finite

    @pytest.mark.parametrize("gap,vanishes", [(1e-10, True), (1e-6, False)])
    def test_u0_rule_is_the_moment_map_s(self, gap, vanishes):
        # a = 0, A_T = 1/2: u(t) = 1 - (T - t), so u(0) = gap
        spec = make_spec(a=0.0, b=0.2, A_T=0.5, B_T=0.1, T=1.0 - gap)
        sol = solve_backward(spec, N=1024)
        rep = check_conditions(sol, spec)
        assert rep.singular_times == ()
        assert rep.a_int_first_finite is rep.a_int_second_finite is not vanishes
        if vanishes:
            assert rep.a_int_first_value == math.inf
            with pytest.raises(SingularityError, match="u\\(0\\) = 0"):
                propagate_moments(sol, spec)
        else:
            assert rep.a_int_first_value == pytest.approx(1.0 / gap, rel=1e-6)
            assert np.all(np.isfinite(propagate_moments(sol, spec).E))

    def test_long_horizon_detects_singularities(self):
        spec = make_spec(a=2.0, b=0.3, B_T=1.0, A_T=0.0, T=math.pi)
        rep = check_conditions(solve_backward(spec, N=2048), spec)
        assert len(rep.singular_times) == 2
        assert not rep.a_int_first_finite
        assert not rep.a_int_second_finite
