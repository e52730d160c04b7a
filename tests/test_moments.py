import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from mfg_moments import (
    ClosedFormMoments,
    ConvergenceError,
    FormulaValidationError,
    ScenarioError,
    SingularityError,
    closed_form_moments_const,
    moments_from_csv,
    moments_to_csv,
    propagate_moments,
    residual_check,
    solve_backward,
    solve_meanfield_fixedpoint,
)
from mfg_moments import hjb, moments
from mfg_moments.hermite import Hermite
from mfg_moments.hjb import hjb_from_csv, hjb_to_csv
from mfg_moments.model import eval_scalar_grid, eval_vector_grid, scenario_from_dict, vector_fn
from mfg_moments.moments import _validate_closed_form, fundamental_path, variance_rate
from mfg_moments.ode import rk4_linear

from conftest import make_doc, make_spec


def solve_and_propagate(spec, N=1024, **kwargs):
    sol = solve_backward(spec, N)
    return sol, propagate_moments(sol, spec, **kwargs)


class TestPropagation:
    def test_brownian_spreading(self, brownian_spec):
        _, path = solve_and_propagate(brownian_spec)
        assert np.allclose(path.E, 0.0, atol=1e-14)
        assert np.allclose(path.V, path.t, atol=1e-12)
        assert path.K == 1.0

    def test_compound_poisson(self, pure_jump_spec):
        _, path = solve_and_propagate(pure_jump_spec)
        assert np.allclose(path.E[:, 0], 2.0 * path.t, atol=1e-12)
        assert np.allclose(path.V, 2.0 * path.t, atol=1e-12)
        assert path.K == 2.0

    def test_constant_A_exponentials(self, constant_A_spec):
        _, path = solve_and_propagate(constant_A_spec)
        k = len(path.t) // 2  # t = 0.5
        assert path.E[k, 0] == pytest.approx(math.e, rel=1e-10)
        assert path.V[k] == pytest.approx(math.e**2, rel=1e-10)

    def test_initial_conditions_exact(self):
        spec = make_spec(a=1.0, b=0.2, A_T=0.3, T=0.6, delta=0.5, x0=0.7, v0=0.4)
        _, path = solve_and_propagate(spec)
        assert path.E[0, 0] == 0.7
        assert path.V[0] == 0.4

    def test_first_order_consistency(self):
        spec = make_spec(a=1.0, b=0.2, A_T=0.3, T=0.6, delta=0.5, x0=0.7, v0=0.4,
                         lam=1.0, jump={"type": "gaussian", "params": {"mu": 0.2, "sigma": 0.5}})
        sol, path = solve_and_propagate(spec, N=2048)
        h = path.t[1] - path.t[0]
        Ep = (path.E[2:, 0] - path.E[:-2, 0]) / (2 * h)
        rhs = 2 * sol.A[1:-1] * path.E[1:-1, 0] + sol.B[1:-1, 0] + spec.lam * 0.2
        assert np.max(np.abs(Ep - rhs)) < 1e-5
        Vp = (path.V[2:] - path.V[:-2]) / (2 * h)
        rhsV = 4 * sol.A[1:-1] * path.V[1:-1] + path.K
        assert np.max(np.abs(Vp - rhsV)) < 1e-5

    def test_monotone_variance_when_A_nonnegative(self, constant_A_spec):
        _, path = solve_and_propagate(constant_A_spec)
        assert np.all(np.diff(path.V) >= -1e-14)

    def test_degenerate_noise_scales_variance_by_squared_flow(self):
        spec = make_spec(a=1.0, A_T=0.3, T=0.6, x0=1.0, v0=0.8)
        sol, path = solve_and_propagate(spec)
        ref = 0.8 * (sol.u / sol.u[0]) ** 2
        assert np.max(np.abs(path.V - ref)) < 1e-12

    def test_endpoint_identity(self):
        # V(T) - v0 w(T,0)^2 = K int_0^T w(T,eta)^2 d eta
        spec = make_spec(a=-2.0, A_T=-0.25, b=0.5, B_T=0.2, delta=0.7, x0=0.4, v0=0.2)
        sol, path = solve_and_propagate(spec, N=4096)
        w = sol.u[-1] / sol.u
        rhs = path.K * np.trapezoid(w**2, sol.t)
        lhs = path.V[-1] - 0.2 * (sol.u[-1] / sol.u[0]) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_u0_zero_rejected(self):
        # theta spans exactly pi/2 backward, so u(0) = 0
        spec = make_spec(a=2.0, A_T=0.0, T=math.pi / 4)
        sol = solve_backward(spec, N=512)
        with pytest.raises(SingularityError, match="A_int"):
            propagate_moments(sol, spec)

    def test_coefficients_come_from_the_solution(self):
        # the same b passed as an override is the same solve and the same propagation
        doc = make_doc(a={"poly": [-0.1, 0.15]}, b={"poly": [0.2, -0.1, 0.05]}, A_T=-0.1,
                       delta=0.5, lam=1.2, jump={"type": "uniform", "params": {"lo": -0.3, "hi": 0.5}},
                       x0=0.4, v0=0.2)
        spec = scenario_from_dict(doc)
        plain = propagate_moments(solve_backward(spec, 1024), spec)
        overridden = solve_backward(spec, 1024, b_override=vector_fn(spec.cost.b, spec.n))
        again = propagate_moments(overridden, spec)
        for name in ("E", "E_prime", "E_second", "V", "V_prime"):
            assert np.array_equal(getattr(plain, name), getattr(again, name)), name
        assert (plain.residual_E, plain.residual_V) == (again.residual_E, again.residual_V)

    @pytest.mark.parametrize("meanfield_spec", [False, True])
    def test_solution_without_coefficients_is_a_scenario_error(self, meanfield_spec):
        # the CSV holds no coefficients, and a mean-field spec fixes no b
        spec = make_spec(a=0.5, b=0.2, delta=0.3, x0=1.0)
        mf_spec = make_spec(a=0.5, meanfield={"b0": 0.2, "b1": 0, "b2": 0}, delta=0.3, x0=1.0)
        again = hjb_from_csv(hjb_to_csv(solve_backward(spec, 256)), mf_spec if meanfield_spec else None)
        with pytest.raises(ScenarioError, match="carries no coefficients"):
            propagate_moments(again, spec)

    def test_literal_mode_drops_flow_propagation(self, constant_A_spec):
        sol = solve_backward(constant_A_spec, N=1024)
        lit = propagate_moments(sol, constant_A_spec, literal_init=True)
        prop = propagate_moments(sol, constant_A_spec)
        k = len(lit.t) // 2
        assert lit.literal
        # x0 = 1 enters without the exp(2t) factor in the literal form
        assert lit.E[k, 0] == pytest.approx(1.0, abs=1e-6)
        assert prop.E[k, 0] == pytest.approx(math.e, rel=1e-9)

    def test_per_coordinate_variance_rate(self):
        spec = make_spec(n=2, delta=0.5, lam=1.0,
                         jump={"type": "gaussian", "params": {"mu": 0.0, "sigma": 0.8}})
        # M2 = n sigma^2, so the per-coordinate rate is delta^2 + lam sigma^2
        assert variance_rate(spec) == pytest.approx(0.25 + 0.64)

    def test_csv_round_trip(self, pure_jump_spec):
        _, path = solve_and_propagate(pure_jump_spec, N=256)
        again = moments_from_csv(moments_to_csv(path))
        assert np.array_equal(path.t, again.t)
        assert np.array_equal(path.E, again.E)
        assert np.array_equal(path.V, again.V)
        assert again.K == path.K and again.focal == path.focal


def _direct_propagation(sol, spec):
    """E and the signed V pair of the scenario's initial law, propagated without the map.

    One forward ``rk4_linear`` from ``E(0) = x0``, ``E'(0) = 2 A(0) x0 + B(0) + lambda M1``,
    with psi (``psi(0) = 0``, ``psi'(0) = 1/u(0)``) as the last column.
    """
    N, n = len(sol.t) - 1, spec.n
    th = np.linspace(0.0, spec.T, 2 * N + 1)
    b = eval_vector_grid(sol.b_fn, th, n, "b")
    u0 = sol.u[0]
    Ep0 = sol.udot[0] / u0 * np.asarray(spec.x0) + sol.v[0] / u0 + spec.lam_M1
    y, _ = rk4_linear(eval_scalar_grid(sol.a_fn, th, "a"), np.hstack([-b, np.zeros((2 * N + 1, 1))]),
                      (*spec.x0, 0.0), (*Ep0, 1.0 / u0), sol.t[1] - sol.t[0])
    return y[:, :n], np.square(sol.u / u0) * spec.initial.v0 + variance_rate(spec) * sol.u * y[:, n]


@st.composite
def _gaussian_laws(draw):
    """Focal-free scenarios with a Gaussian initial law and constant or polynomial a.

    a <= 0.9 with A_T <= 0.1 and T <= 1 keeps u free of zeros on [0, T].
    """
    n = draw(st.sampled_from([1, 2]))
    coord = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    a = draw(st.one_of(st.floats(-0.9, 0.5),
                       st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=3).map(lambda c: {"poly": c})))
    lam = draw(st.sampled_from([0.0, 1.5]))
    return make_spec(
        n=n, a=a, b=draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)),
        A_T=draw(st.floats(-0.3, 0.1)), B_T=draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)),
        T=draw(st.floats(0.3, 1.0)), delta=draw(st.floats(0.1, 1.0)), lam=lam,
        jump={"type": "gaussian", "params": {"mu": 0.2, "sigma": 0.4}} if lam else None,
        x0=draw(coord), v0=draw(st.floats(0.01, 1.0)),
    )


class TestFundamentalMap:
    @settings(max_examples=25, deadline=None)
    @given(spec=_gaussian_laws())
    def test_mapped_path_is_the_direct_propagation(self, spec):
        sol, path = solve_and_propagate(spec)
        assert not sol.singular_times and not path.focal
        E, V = _direct_propagation(sol, spec)
        assert np.max(np.abs(path.E - E)) <= 1e-12 * max(1.0, float(np.max(np.abs(E))))
        assert np.array_equal(path.V, V)

    def test_variance_across_a_focal_time_is_folded_after_the_map(self):
        spec = make_spec(a=1.0, A_T=0.5, T=3.0, b=0.1, delta=0.5, x0=1.0, v0=0.3)
        sol, path = solve_and_propagate(spec, N=4096)
        assert sol.singular_times and path.focal
        E, V_pair = _direct_propagation(sol, spec)
        assert np.min(V_pair) < 0.0
        assert np.max(np.abs(path.V - np.abs(V_pair))) <= 1e-12 * np.max(np.abs(V_pair))
        # folding the fundamental pair before adding the initial law's share is wrong by O(1)
        fund = fundamental_path(sol, spec)
        folded_first = np.square(sol.u / sol.u[0]) * 0.3 + np.abs(fund.V)
        assert np.max(np.abs(folded_first - path.V)) > 1.0

    def test_the_path_carries_its_fundamental(self):
        spec = make_spec(a=0.3, b=0.2, A_T=-0.2, delta=0.5, x0=0.7, v0=0.3)
        sol, path = solve_and_propagate(spec)
        dirac = propagate_moments(sol, make_spec(a=0.3, b=0.2, A_T=-0.2, delta=0.5))
        assert np.array_equal(path.fundamental.E, dirac.E)
        assert np.array_equal(path.fundamental.V, dirac.V)
        # a law at the origin is its own fundamental: the path keeps no second copy
        assert dirac.E is dirac.fundamental.E and dirac.V is dirac.fundamental.V
        # literal mode is the same map with the flow factor u/u(0) replaced by 1
        lit = propagate_moments(sol, spec, literal_init=True)
        assert np.array_equal(lit.E, 0.7 + path.fundamental.E)
        assert np.array_equal(lit.V, 0.3 + path.fundamental.V)


class TestResidualCheck:
    def test_linear_expectation_has_zero_residual(self):
        spec = make_spec(b=-1.0, B_T=1.0, delta=1.0)  # B = 1+(T-t)... E'' = -b
        _, path = solve_and_propagate(spec)
        assert path.residual_E < 1e-10

    def test_clean_path_residuals_small(self):
        spec = make_spec(a=-2.0, A_T=1.0, x0=1.0, v0=1.0)
        sol, path = solve_and_propagate(spec, N=4096)
        rep = residual_check(path, sol)
        assert rep.rE < 1e-6
        assert rep.rV is not None and rep.rV < 1e-6

    def test_expectation_residual_does_not_grow_with_the_grid(self):
        # E is exact to rounding here; a stencil at spacing T/65536 would divide that
        # rounding by 12 h^2 and report 3e-6
        spec = make_spec(a=1.0, A_T=-0.5, b=0.3, x0=1.0, delta=0.5)
        sol, path = solve_and_propagate(spec, N=65536)
        assert path.residual_E <= 1e-8
        wrong_b = residual_check(path, solve_backward(spec, 65536, b_override=lambda t: 0.3 + 1e-5))
        assert wrong_b.rE == pytest.approx(1e-5, rel=1e-2)

    def test_corrupted_variance_detected(self, brownian_spec):
        # scaling V perturbs the (Var) residual by ~0.1 K^2/V, so K > 0 here
        sol, path = solve_and_propagate(brownian_spec, N=1024)
        path.V = 1.1 * path.V
        rep = residual_check(path, sol)
        assert rep.rV is not None and rep.rV > 1e-2

    def test_near_zero_variance_skipped(self):
        spec = make_spec(x0=0.5)  # no noise at all: V stays 0
        sol, path = solve_and_propagate(spec)
        rep = residual_check(path, sol)
        assert rep.rV is None
        assert "near zero" in rep.note


class TestClosedForms:
    def test_zero_curvature_branch(self):
        cf = closed_form_moments_const(0.0, 0.0, 1.0, {"E0": 0, "E0p": 1, "V0": 0, "V0p": 1})
        t = np.linspace(0, 1, 11)
        assert np.allclose(cf.E_fn(t), t)
        assert np.allclose(cf.V_fn(t), t)

    def test_oscillatory_expectation(self):
        cf = closed_form_moments_const(1.0, 0.0, 1.0, {"E0": 1, "E0p": 0, "V0": 1, "V0p": 0})
        assert cf.E_fn(math.pi / math.sqrt(2)) == pytest.approx(-1.0, abs=1e-12)

    def test_exponential_expectation(self):
        cf = closed_form_moments_const(-1.0, 0.0, 1.0, {"E0": 0, "E0p": math.sqrt(2), "V0": 1, "V0p": 0})
        assert cf.E_fn(1.0) == pytest.approx(math.sinh(math.sqrt(2)), rel=1e-12)

    @pytest.mark.parametrize("a,b,K,init", [
        (1.0, 0.5, 0.8, {"E0": 1, "E0p": 0.3, "V0": 1.0, "V0p": 0.2}),
        (2.5, -0.2, 0.4, {"E0": 0.5, "E0p": -1.0, "V0": 2.0, "V0p": 1.0}),
        (-1.0, 0.5, 0.8, {"E0": 0.5, "E0p": 1.0, "V0": 1.0, "V0p": 0.2}),
        (-3.0, 0.0, 1.2, {"E0": 1.5, "E0p": 0.0, "V0": 0.7, "V0p": -0.5}),
        (0.0, 0.6, 0.6, {"E0": 1, "E0p": 2, "V0": 1.0, "V0p": 1.0}),
    ])
    def test_all_branches_residual_validated(self, a, b, K, init):
        cf = closed_form_moments_const(a, b, K, init)
        t = np.linspace(0, 1, 101)
        assert cf.E_fn(0.0) == pytest.approx(init["E0"], abs=1e-12)
        assert cf.V_fn(0.0) == pytest.approx(init["V0"], abs=1e-12)
        # initial slopes reproduced
        h = 1e-6
        assert (cf.E_fn(h) - cf.E_fn(0.0)) / h == pytest.approx(init["E0p"], abs=1e-4)
        assert (cf.V_fn(h) - cf.V_fn(0.0)) / h == pytest.approx(init["V0p"], abs=1e-4)

    def test_variance_branch_requires_positive_V0(self):
        with pytest.raises(ScenarioError, match="V0"):
            closed_form_moments_const(1.0, 0.0, 1.0, {"E0": 0, "E0p": 0, "V0": 0.0, "V0p": 1.0})

    def test_wrong_constant_term_sign_fails_validation(self):
        # flipping the sign of K^2/(8a) in the oscillatory offset must be caught
        a, K = 1.0, 0.8
        nu = math.sqrt(2 * a)
        V0, V0p = 1.0, 0.2
        C1 = V0p / (2 * nu)
        C2_bad = (V0**2 - C1**2 - K**2 / (8 * a)) / (2 * V0)
        bad = ClosedFormMoments("oscillatory", a, 0.0, K, 0.0, 1.0, C1, C2_bad, V0 - C2_bad)
        with pytest.raises(FormulaValidationError, match="variance"):
            _validate_closed_form(bad, 1.0, 1e-8)

    def test_matches_propagated_moments(self):
        # same scenario through the ODE path and the closed form
        spec = make_spec(a=-2.0, b=0.5, A_T=-0.25, B_T=0.2, delta=0.7, x0=0.4, v0=0.2)
        sol, path = solve_and_propagate(spec, N=2048)
        A0 = sol.A[0]
        init = {
            "E0": 0.4,
            "E0p": 2 * A0 * 0.4 + sol.B[0, 0],
            "V0": 0.2,
            "V0p": 4 * A0 * 0.2 + path.K,
        }
        cf = closed_form_moments_const(-2.0, 0.5, path.K, init)
        assert np.max(np.abs(cf.E_fn(path.t) - path.E[:, 0])) < 1e-8
        assert np.max(np.abs(cf.V_fn(path.t) - path.V)) < 1e-8


    @pytest.mark.parametrize("a,A_T,T", [(2.0, -0.25, 0.75), (-2.0, 0.3, 1.0), (0.7, 0.1, 1.0)])
    def test_off_grid_values_match_closed_form(self, a, A_T, T):
        spec = make_spec(a=a, b=0.5, A_T=A_T, B_T=0.2, T=T, delta=0.7, x0=0.4, v0=0.2)
        sol, path = solve_and_propagate(spec, N=4096)
        A0 = sol.A[0]
        init = {"E0": 0.4, "E0p": 2 * A0 * 0.4 + sol.B[0, 0], "V0": 0.2,
                "V0p": 4 * A0 * 0.2 + path.K}
        cf = closed_form_moments_const(a, 0.5, path.K, init, t_span=T)
        x = np.random.default_rng(6).uniform(0.0, T, 257)
        E = cf.E_fn(x)
        V = cf.V_fn(x)
        assert np.max(np.abs(path.E_at(x)[:, 0] - E)) <= 1e-10 * np.max(np.abs(E))
        assert np.max(np.abs(path.V_at(x) - V)) <= 1e-10 * np.max(np.abs(V))

    def test_off_grid_values_match_spline_with_jumps(self):
        spec = make_spec(n=2, a=0.4, b=0.2, A_T=-0.1, delta=0.5, lam=1.0, x0=0.5, v0=0.2,
                         jump={"type": "gaussian", "params": {"mu": 0.3, "sigma": 0.6}})
        _, path = solve_and_propagate(spec, N=4096)
        x = np.random.default_rng(7).uniform(0.0, 1.0, 257)
        E_ref = CubicSpline(path.t, path.E, axis=0)(x)
        V_ref = CubicSpline(path.t, path.V)(x)
        assert np.max(np.abs(path.E_at(x) - E_ref)) <= 1e-10 * np.max(np.abs(E_ref))
        assert np.max(np.abs(path.V_at(x) - V_ref)) <= 1e-10 * np.max(np.abs(V_ref))

    def test_scalar_and_array_shapes(self, pure_jump_spec):
        _, path = solve_and_propagate(pure_jump_spec, N=256)
        assert isinstance(path.V_at(0.3), float)
        assert path.V_at(np.array([0.1, 0.3, 0.7])).shape == (3,)
        assert path.E_at(0.3).shape == (1,)
        assert path.E_at(np.array([0.1, 0.3, 0.7])).shape == (3, 1)


def _reference_fixed_point(spec, N=4096, tol=1e-8, max_iter=200):
    """The damped Picard loop with a full backward solve and propagation per iteration.

    Returns the iteration count and the final E at N, or raises ``ConvergenceError``.
    """
    coef = spec.cost.b
    b0 = np.asarray(coef.b0 if len(coef.b0) == spec.n else coef.b0 * spec.n, float)
    N_it = min(N, max(256, N // 16))
    t_it = np.linspace(0.0, spec.T, N_it + 1)
    E = np.tile(spec.x0, (N_it + 1, 1))
    Ep, Epp = np.zeros_like(E), np.zeros_like(E)
    E_map_prev = None

    def frozen_b(E, Ep, Epp):
        E_it, Ep_it = Hermite(t_it, E, Ep), Hermite(t_it, Ep, Epp)
        return lambda tk: b0 + coef.b1 * E_it(tk) + coef.b2 * Ep_it(tk)

    for iteration in range(1, max_iter + 2):
        if iteration > max_iter:
            raise ConvergenceError(
                f"mean-field fixed point did not converge in {max_iter} iterations "
                f"(last increment {delta:.3e})")
        path = propagate_moments(solve_backward(spec, N_it, b_override=frozen_b(E, Ep, Epp)), spec)
        delta = 0.5 * float(np.max(np.abs(path.E - E)))
        if E_map_prev is not None:
            delta = min(delta, float(np.max(np.abs(path.E - E_map_prev))))
        if delta < tol:
            E, Ep, Epp = path.E, path.E_prime, path.E_second
            break
        E_map_prev = path.E
        E, Ep, Epp = 0.5 * (path.E + E), 0.5 * (path.E_prime + Ep), 0.5 * (path.E_second + Epp)
    final = propagate_moments(solve_backward(spec, N, b_override=frozen_b(E, Ep, Epp)), spec)
    return iteration, final.E


class TestMeanField:
    def test_uncoupled_converges_immediately(self):
        spec = make_spec(meanfield={"b0": 0, "b1": 0, "b2": 0}, delta=0.3, x0=1.0)
        mf = solve_meanfield_fixedpoint(spec, N=512)
        assert mf.iterations == 1
        assert mf.residual < 1e-10

    def test_cosine_fixed_point(self):
        T = 1.0
        spec = make_spec(meanfield={"b0": 0, "b1": 1, "b2": 0}, delta=0.3, x0=1.0,
                         B_T=-math.sin(T), T=T)
        mf = solve_meanfield_fixedpoint(spec, N=1024)
        assert mf.iterations <= 50
        assert mf.residual < 1e-6
        assert np.max(np.abs(mf.path.E[:, 0] - np.cos(mf.path.t))) < 1e-6

    def test_constant_forcing_parabola(self):
        spec = make_spec(meanfield={"b0": 1, "b1": 0, "b2": 0}, delta=0.3, B_T=-1.0)
        mf = solve_meanfield_fixedpoint(spec, N=1024)
        assert np.max(np.abs(mf.path.E[:, 0] + mf.path.t**2 / 2)) < 1e-9

    def test_velocity_coupling(self):
        spec = make_spec(meanfield={"b0": 0, "b1": 0, "b2": 1}, delta=0.3, x0=1.0,
                         B_T=-math.exp(-1.0))
        mf = solve_meanfield_fixedpoint(spec, N=1024)
        assert mf.iterations <= 50
        assert np.max(np.abs(mf.path.E[:, 0] - np.exp(-mf.path.t))) < 1e-6

    def test_non_convergence_raises(self):
        spec = make_spec(meanfield={"b0": 0, "b1": 1, "b2": 0}, delta=0.3, x0=1.0,
                         B_T=-math.sin(1.0))
        with pytest.raises(ConvergenceError, match="increment"):
            solve_meanfield_fixedpoint(spec, N=256, max_iter=3)

    def test_matches_a_full_solve_per_iteration(self):
        # n = 2 converges; (a=0, b1=3, T=1) diverges, and its error must match too.
        converging = make_spec(n=2, a=0.3, meanfield={"b0": [0.2, -0.1], "b1": 0.3, "b2": 0.1},
                               delta=0.5, x0=[1.0, -0.5], B_T=[0.1, 0.0])
        mf = solve_meanfield_fixedpoint(converging)
        ref_iterations, ref_E = _reference_fixed_point(converging)
        assert mf.iterations == ref_iterations
        assert np.array_equal(mf.path.E, ref_E)

        diverging = make_spec(meanfield={"b0": 0, "b1": 3.0, "b2": 0}, delta=0.5, x0=1.0)
        with pytest.raises(ConvergenceError) as ref_err:
            _reference_fixed_point(diverging, max_iter=5)
        with pytest.raises(ConvergenceError) as err:
            solve_meanfield_fixedpoint(diverging, max_iter=5)
        assert str(err.value) == str(ref_err.value)

    def test_one_full_solve_per_fixed_point(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(moments, "solve_backward", counted(solve_backward))
        monkeypatch.setattr(moments, "propagate_moments", counted(propagate_moments))
        spec = make_spec(meanfield={"b0": 0.2, "b1": 0.3, "b2": 0.1}, delta=0.5, x0=1.0)
        assert solve_meanfield_fixedpoint(spec, N=1024).iterations > 1
        assert calls == ["solve_backward", "propagate_moments"]

    def test_coarse_grid_raises_before_iterating(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("iterated on a grid it rejects")

        for module in (hjb, moments):
            monkeypatch.setattr(module, "rk4_linear", no_step)
        spec = make_spec(meanfield={"b0": 0.2, "b1": 0.3, "b2": 0.1}, delta=0.5, x0=1.0)
        with pytest.raises(ScenarioError, match="N=50"):
            solve_meanfield_fixedpoint(spec, N=50)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_is_a_scenario_error(self, max_iter):
        spec = make_spec(meanfield={"b0": 0.2, "b1": 0.3, "b2": 0.1}, delta=0.5, x0=1.0)
        with pytest.raises(ScenarioError, match="max_iter"):
            solve_meanfield_fixedpoint(spec, N=1024, max_iter=max_iter)

    def test_u0_zero_is_rejected_before_any_iteration(self, monkeypatch):
        # theta spans exactly pi/2 backward, so u(0) = 0 on the coarse grid too
        spec = make_spec(a=2.0, A_T=0.0, T=math.pi / 4, meanfield={"b0": 0.2, "b1": 0.3, "b2": 0.1})
        forward = []
        monkeypatch.setattr(moments, "rk4_linear", lambda *args: forward.append(args) or rk4_linear(*args))
        with pytest.raises(SingularityError, match="A_int"):
            solve_meanfield_fixedpoint(spec, N=1024)
        assert forward == []

    def test_requires_meanfield_spec(self):
        with pytest.raises(ScenarioError, match="mean-field"):
            solve_meanfield_fixedpoint(make_spec(), N=256)
