import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfg_moments import (
    CharFunEvaluator,
    ConvergenceError,
    DensityGrid,
    GridResolutionError,
    ScenarioError,
    SingularityError,
    gaussian_density,
    propagate_moments,
    solve_backward,
)
from mfg_moments.charfun import _LOG_UNDERFLOW, _MAX_QUAD_NODES, _clenshaw_curtis
from mfg_moments.model import jump_charfn_batch, jump_moments

from conftest import make_spec


def evaluator(spec, N=1024, M=128):
    return CharFunEvaluator.from_scenario(spec, N=N, M=M)


class TestFundamentalCharfun:
    def test_omega_zero_is_one(self, brownian_spec, pure_jump_spec):
        for spec in (brownian_spec, pure_jump_spec):
            ev = evaluator(spec)
            assert ev.eval_fundamental_charfun(1.0, 0.0) == 1.0 + 0.0j

    def test_heat_kernel(self, brownian_spec):
        ev = evaluator(brownian_spec)
        val = ev.eval_fundamental_charfun(1.0, 1.0)
        assert val == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_compound_poisson(self, pure_jump_spec):
        ev = evaluator(pure_jump_spec)
        val = ev.eval_fundamental_charfun(1.0, math.pi)
        assert val == pytest.approx(math.exp(-4.0), abs=1e-9)

    def test_moment_form_matches_direct(self, pure_jump_spec):
        ev = evaluator(pure_jump_spec)
        val = ev.eval_charfun_via_moments(1.0, math.pi)
        assert val == pytest.approx(math.exp(-4.0), abs=1e-9)

    @pytest.mark.parametrize("tname", [0.25, 0.5, 1.0])
    def test_representation_equivalence_mixed_scenario(self, tname):
        spec = make_spec(a=1.0, b=0.2, A_T=0.0, B_T=0.1, delta=0.5, lam=1.0,
                         jump={"type": "gaussian", "params": {"mu": 0.3, "sigma": 0.5}})
        ev = evaluator(spec, N=2048, M=256)
        w = np.linspace(-20, 20, 21)
        direct = ev.eval_fundamental_charfun(tname, w)
        moments = ev.eval_charfun_via_moments(tname, w)
        assert np.max(np.abs(direct - moments)) < 1e-6

    def test_hermitian_symmetry_and_bound(self, pure_jump_spec):
        ev = evaluator(pure_jump_spec)
        w = np.linspace(0.1, 15, 30)
        plus = ev.eval_solution_charfun(1.0, w)
        minus = ev.eval_solution_charfun(1.0, -w)
        assert np.max(np.abs(minus - np.conj(plus))) < 1e-12
        assert np.max(np.abs(plus)) <= 1.0 + 1e-10

    def test_singular_scenario_rejected(self):
        spec = make_spec(a=2.0, A_T=0.0, T=math.pi)  # focal times inside
        sol = solve_backward(spec, N=2048)
        path_spec = make_spec(a=2.0, A_T=0.0, T=math.pi / 8)
        with pytest.raises(SingularityError):
            ev = CharFunEvaluator(spec, sol, propagate_moments(solve_backward(path_spec, 512), path_spec))
            ev.eval_fundamental_charfun(2.0, 1.0)


class TestSolutionCharfun:
    def test_dirac_at_origin_reduces_to_fundamental(self, brownian_spec):
        ev = evaluator(brownian_spec)
        w = np.linspace(-3, 3, 7)
        assert np.allclose(ev.eval_solution_charfun(0.5, w),
                           ev.eval_fundamental_charfun(0.5, w), atol=1e-14)

    def test_gaussian_initial_modulus(self):
        # constant A = 1, x0 = 1, v0 = 1: |m_hat(0.5, 1)| = exp(-e^2/2)
        spec = make_spec(a=-2.0, A_T=1.0, x0=1.0, v0=1.0)
        ev = evaluator(spec)
        val = ev.eval_solution_charfun(0.5, 1.0)
        assert abs(val) == pytest.approx(math.exp(-math.e**2 / 2.0), rel=1e-8)

    def test_translation_invariant_case_is_plain_product(self):
        spec = make_spec(delta=1.0, x0=0.7, v0=0.3)  # A = 0, weight = 1
        ev = evaluator(spec)
        w = 1.3
        lhs = ev.eval_solution_charfun(0.5, w)
        rhs = ev.eval_fundamental_charfun(0.5, w) * np.exp(-1j * w * 0.7 - 0.5 * w**2 * 0.3)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_identity_at_time_zero(self):
        spec = make_spec(a=0.2, b=0.05, delta=0.5, x0=0.2, v0=1.0)
        ev = evaluator(spec)
        w = np.linspace(-4, 4, 9)
        m0 = np.exp(-1j * w * 0.2 - 0.5 * w**2 * 1.0)
        assert np.max(np.abs(ev.eval_solution_charfun(0.0, w) - m0)) < 1e-12

    def test_gaussian_preservation_log_cubic_vanishes(self):
        # lambda = 0: log m_hat is quadratic in omega for any A, B
        spec = make_spec(a=1.0, b=1.0, A_T=0.3, B_T=0.2, delta=1.0, x0=0.7, v0=0.5, T=0.8)
        ev = evaluator(spec, N=2048)
        h = 1e-3
        w = np.array([-2 * h, -h, 0.0, h, 2 * h])
        f = np.log(np.asarray(ev.eval_solution_charfun(0.6, w)))
        third = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3)
        assert abs(third) < 1e-6


class TestGaussianDensity:
    def test_peak_value(self):
        assert gaussian_density(1.0, 0.25, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 0.25))

    def test_tails_vanish(self):
        assert gaussian_density(0.0, 1.0, 10.0) < 1e-21

    def test_two_dimensional_normalization(self):
        assert gaussian_density((0.0, 0.0), 1.0, (0.0, 0.0)) == pytest.approx(1.0 / (2 * math.pi))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ScenarioError):
            gaussian_density(0.0, 0.0, 0.0)


class TestDensityInversion:
    def test_matches_gaussian_closed_form(self):
        spec = make_spec(a=0.0, b=0.4, A_T=-0.5, B_T=0.3, delta=1.0, x0=0.2, v0=0.1)
        ev = evaluator(spec, N=2048)
        grid = ev.invert_density(1.0, n_x=2048)
        E, V = ev.solution_moments(1.0)
        ref = gaussian_density(E, V, grid.x)
        assert np.max(np.abs(grid.m - ref)) < 1e-6
        assert abs(grid.mass - 1.0) < 1e-6
        assert grid.mean == pytest.approx(float(E[0]), abs=1e-6)
        assert grid.variance == pytest.approx(V, rel=1e-4)

    def test_jump_scenario_mass_and_mean(self):
        spec = make_spec(delta=0.5, lam=2.0, jump={"type": "point", "params": {"z0": 1.0}})
        ev = evaluator(spec, N=1024, M=256)
        grid = ev.invert_density(1.0, n_x=4096)
        assert abs(grid.mass - 1.0) < 1e-4
        assert abs(grid.mean - 2.0) < 1e-4
        assert np.min(grid.m) > -1e-6 * np.max(grid.m)

    def test_short_time_recovers_initial_law(self):
        spec = make_spec(a=0.2, b=0.05, delta=0.5, x0=0.2, v0=1.0)
        ev = evaluator(spec, N=2048)
        t = 1e-3
        grid = ev.invert_density(t, n_x=2048)
        init = gaussian_density(0.2, 1.0, grid.x)
        l1 = np.trapezoid(np.abs(grid.m - init), grid.x)
        assert l1 < 1e-3

    def test_bounds_must_cover_eight_sigma(self, brownian_spec):
        ev = evaluator(brownian_spec)
        with pytest.raises(GridResolutionError, match="8 sigma"):
            ev.invert_density(1.0, x_lo=-2.0, x_hi=2.0)

    @pytest.mark.parametrize("bound", [{"x_lo": math.nan}, {"x_lo": -math.inf},
                                       {"x_hi": math.nan}, {"x_hi": math.inf}])
    def test_non_finite_bound_rejected(self, brownian_spec, bound):
        ev = evaluator(brownian_spec)
        with pytest.raises(ScenarioError, match="finite"):
            ev.invert_density(1.0, n_x=256, **bound)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_mass_is_rejected(self):
        # sd ~ 1e-50 around x0 = 0.2 is below the spacing of floats there, so
        # dx = 0 and the mass is NaN, with no warning on the way
        ev = evaluator(make_spec(delta=1.0, x0=0.2))
        with pytest.raises(GridResolutionError, match="mass nan"):
            ev.invert_density(1e-100, n_x=64)

    def test_subnormal_time_is_rejected_before_any_quadrature(self, monkeypatch):
        # sd ~ 1e-155 at t = 1e-310: the grid frequencies are finite, their squares are not
        spec = make_spec(delta=0.5, lam=1.0, jump={"type": "point", "params": {"z0": 1.0}})
        ev = evaluator(spec, N=512, M=64)
        calls = []
        moment_form = ev.eval_charfun_via_moments

        def recording(t, omega):
            calls.append(t)
            return moment_form(t, omega)

        monkeypatch.setattr(ev, "eval_charfun_via_moments", recording)
        with pytest.raises(GridResolutionError, match="t=1e-310"):
            ev.invert_density(1e-310, n_x=64)
        assert calls == []
        assert ev.invert_density(1e-200, n_x=64).mass == pytest.approx(1.0, abs=1e-3)

    def test_too_few_grid_points_rejected(self, brownian_spec):
        ev = evaluator(brownian_spec)
        for n_x in (0, 1):
            with pytest.raises(ScenarioError, match="n_x"):
                ev.invert_density(1.0, n_x=n_x)

    def test_dimension_guard(self):
        spec = make_spec(n=2, delta=1.0)
        ev = evaluator(spec)
        with pytest.raises(ScenarioError, match="dimension 1"):
            ev.invert_density(1.0)

    def test_csv_round_trip(self, brownian_spec):
        ev = evaluator(brownian_spec)
        grid = ev.invert_density(1.0, n_x=512)
        again = DensityGrid.from_csv(grid.to_csv())
        assert np.array_equal(grid.x, again.x)
        assert np.array_equal(grid.m, again.m)
        assert again.mass == grid.mass


def _full_band_density(ev, t, n_x):
    """Inverse FFT of the direct form over every frequency, in chunks of 512."""
    E, V = ev.solution_moments(t)
    mean, sd = float(E[0]), math.sqrt(V)
    x = np.linspace(mean - 10.0 * sd, mean + 10.0 * sd, n_x, endpoint=False)
    dx = x[1] - x[0]
    omega = 2.0 * math.pi * np.fft.fftfreq(n_x, d=dx)
    mhat = np.concatenate([ev.eval_solution_charfun(t, omega[s : s + 512])
                           for s in range(0, n_x, 512)])
    return omega, mhat, np.fft.ifft(mhat * np.exp(1j * omega * x[0])).real / dx


class TestClenshawCurtis:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 33, 64])
    def test_weights_integrate_polynomials_up_to_degree_n(self, n):
        nodes, wts = _clenshaw_curtis(n)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0 and np.all(np.diff(nodes) > 0)
        assert abs(wts.sum() - 1.0) <= 1e-14
        for k in range(n + 1):
            assert abs(wts @ nodes**k - 1.0 / (k + 1)) <= 1e-14, k

    @pytest.mark.parametrize("n", [2, 6, 10, 512, 4096, _MAX_QUAD_NODES])
    def test_half_level_is_the_even_nodes(self, n):
        assert np.array_equal(_clenshaw_curtis(n // 2)[0], _clenshaw_curtis(n)[0][::2])

    def test_weights_sum_to_one_at_the_cap(self):
        nodes, wts = _clenshaw_curtis(_MAX_QUAD_NODES)
        assert nodes.size == wts.size == _MAX_QUAD_NODES + 1
        assert abs(wts.sum() - 1.0) <= 1e-13 and wts.min() > 0.0

    def test_noise_never_converges_and_stops_at_the_cap(self, brownian_spec):
        ev = evaluator(brownian_spec, M=512)
        rng = np.random.default_rng(17)
        seen = []

        def noise(eta):
            seen.append(eta)
            return rng.standard_normal((1, eta.size)) + 0j

        with pytest.raises(ConvergenceError) as info:
            ev._eta_quadrature(0.8, np.zeros(1), noise)
        assert sum(eta.size for eta in seen) == _MAX_QUAD_NODES + 1
        assert np.array_equal(np.sort(np.concatenate(seen)), 0.8 * _clenshaw_curtis(_MAX_QUAD_NODES)[0])
        assert f"level {_MAX_QUAD_NODES} differs from level {_MAX_QUAD_NODES // 2} by " in str(info.value)


class TestMomentFormInversion:
    DESIGNS = {
        # a = -3 makes u(t)/u(eta) vary fast, so the direct form reaches the most nodes
        "point-heavy": dict(a=-3.0, A_T=0.5, b=0.1, B_T=0.1, delta=0.3, x0=0.5, lam=1.0,
                            jump={"type": "point", "params": {"z0": 0.5}}),
        "gaussian-initial": dict(a=0.2, A_T=-0.1, b=-0.1, B_T=0.1, delta=0.4, x0=0.3, v0=0.15,
                                 lam=1.0, jump={"type": "gaussian",
                                                "params": {"mu": -0.1, "sigma": 0.25}}),
    }

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_matches_full_band_direct_inversion(self, name):
        ev = evaluator(make_spec(**self.DESIGNS[name]), N=2048, M=512)
        t, n_x = 1.0, 2048
        omega, mhat, ref = _full_band_density(ev, t, n_x)
        grid = ev.invert_density(t, n_x=n_x)
        assert np.max(np.abs(grid.m - ref)) <= 1e-10
        skipped = ev.log_modulus_bound(t, omega) <= _LOG_UNDERFLOW
        assert 0 < np.count_nonzero(skipped) < n_x
        assert np.all(mhat[skipped] == 0.0)

    def test_no_frequency_skipped_without_diffusion(self, pure_jump_spec):
        ev = evaluator(pure_jump_spec)
        assert np.all(ev.log_modulus_bound(1.0, np.linspace(-1e4, 1e4, 9)) == 0.0)

    def test_doublings_evaluate_each_node_once(self, brownian_spec):
        ev = evaluator(brownian_spec, M=8)
        t, k = 0.75, np.array([20.0, 35.0])
        seen = []

        def wave(eta):
            return np.exp(1j * k[:, None] * eta[None, :])

        def recording(eta):
            seen.append(eta)
            return wave(eta)

        val = ev._eta_quadrature(t, k, recording)
        nodes = np.concatenate(seen)
        n = nodes.size - 1
        # the first call is level M, whose even nodes give level M/2
        assert seen[0].size == 8 + 1
        assert len(seen) >= 3 and n == 8 * 2 ** (len(seen) - 1)
        # n + 1 distinct nodes in n + 1 evaluations: each node exactly once
        unit, wts = _clenshaw_curtis(n)
        assert np.array_equal(np.sort(nodes), t * unit)
        assert np.array_equal(val, t * (wave(t * unit) @ wts))

    @pytest.mark.parametrize("n_x", [256, 255, 2048])
    def test_only_the_non_negative_half_is_evaluated(self, monkeypatch, n_x):
        ev = evaluator(make_spec(**self.DESIGNS["point-heavy"]), N=1024, M=128)
        calls = []
        moment_form = ev.eval_charfun_via_moments

        def recording(t, omega):
            calls.append(np.array(omega))
            return moment_form(t, omega)

        monkeypatch.setattr(ev, "eval_charfun_via_moments", recording)
        grid = ev.invert_density(1.0, n_x=n_x)
        omega = 2.0 * math.pi * np.fft.fftfreq(n_x, d=grid.x[1] - grid.x[0])
        keep = np.flatnonzero(ev.log_modulus_bound(1.0, omega) > _LOG_UNDERFLOW)
        half = keep[keep <= n_x // 2]
        seen = np.concatenate(calls)
        assert len(calls) == -(-half.size // 512)
        assert np.array_equal(seen, omega[half])
        negative = seen[seen < 0.0]
        if n_x == 2048:
            assert keep.size < n_x and negative.size == 0
        else:  # every frequency is kept; an even grid evaluates its Nyquist frequency
            assert keep.size == n_x
            assert np.array_equal(negative, omega[n_x // 2 : n_x // 2 + 1 - n_x % 2])


_JUMPS = st.one_of(
    st.builds(lambda z0: {"type": "point", "params": {"z0": z0}}, st.floats(-1.0, 1.0)),
    st.builds(lambda mu, sigma: {"type": "gaussian", "params": {"mu": mu, "sigma": sigma}},
              st.floats(-0.5, 0.5), st.floats(0.05, 0.5)),
    st.builds(lambda lo, width: {"type": "uniform", "params": {"lo": lo, "hi": lo + width}},
              st.floats(-0.5, 0.5), st.floats(0.05, 1.0)),
    st.builds(lambda rate: {"type": "exponential", "params": {"rate": rate}},
              st.floats(1.0, 5.0)),
)


@st.composite
def _focal_free_scenarios(draw, lams=(0.0, 0.5, 2.0)):
    """1-D scenarios with a <= 1/2, A_T <= 0.1 and T <= 1, so u has no zero on [0, T]."""
    lam = draw(st.sampled_from(lams))
    return make_spec(
        a=draw(st.floats(-1.0, 0.5)), b=draw(st.floats(-0.5, 0.5)),
        A_T=draw(st.floats(-0.3, 0.1)), B_T=draw(st.floats(-0.3, 0.3)),
        T=draw(st.floats(0.3, 1.0)), delta=draw(st.floats(0.2, 1.0)),
        lam=lam, jump=draw(_JUMPS) if lam > 0 else None,
        x0=draw(st.floats(-1.0, 1.0)), v0=draw(st.sampled_from([0.0, 0.1, 0.5])),
    )


_PROPERTY_OMEGAS = np.linspace(0.5, 20.0, 8)


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(2048)


def _gauss_legendre_lambda_Q(ev, t, w):
    """lambda Q(t, w) of the moment form by 2048-point Gauss-Legendre on [0, t], in one dimension."""
    x, gw = _gauss_legendre()
    M1, M2 = jump_moments(ev.spec.jump)
    eta = 0.5 * t * (x + 1.0)
    R = w[:, None, None] * (float(ev.sol.u_at(t)) / ev.sol.u_at(eta))[None, :, None]
    g = jump_charfn_batch(ev.spec.jump, R) - 1.0 + 1j * (R @ M1) + 0.5 * M2 * np.sum(R * R, axis=-1)
    return ev.spec.lam * (g @ (0.5 * t * gw))


class TestCharfunProperties:
    @settings(max_examples=20, deadline=None)
    @given(spec=_focal_free_scenarios(), frac=st.floats(0.1, 1.0))
    def test_both_forms_are_characteristic_functions(self, spec, frac):
        ev = evaluator(spec, N=512, M=64)
        t = frac * spec.T
        for form in (ev.eval_fundamental_charfun, ev.eval_charfun_via_moments):
            assert abs(form(t, 0.0) - 1.0) <= 1e-14
            plus = form(t, _PROPERTY_OMEGAS)
            minus = form(t, -_PROPERTY_OMEGAS)
            assert np.max(np.abs(plus)) <= 1.0 + 1e-12
            assert np.max(np.abs(minus - np.conj(plus))) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(spec=_focal_free_scenarios(), frac=st.floats(0.1, 1.0))
    def test_modulus_bound_holds(self, spec, frac):
        ev = evaluator(spec, N=512, M=64)
        t = frac * spec.T
        w = np.linspace(-30.0, 30.0, 13)
        phi = np.asarray(ev.eval_solution_charfun(t, w))
        assert np.all(np.abs(phi) <= np.exp(ev.log_modulus_bound(t, w) + 1e-6))

    @settings(max_examples=20, deadline=None)
    @given(spec=_focal_free_scenarios(lams=(0.5, 2.0)), frac=st.floats(0.1, 1.0),
           w=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
    def test_quadrature_matches_gauss_legendre(self, spec, frac, w):
        ev = evaluator(spec, N=512, M=64)
        t, w = frac * spec.T, np.array(w)
        assert np.max(np.abs(ev._lambda_Q(t, w[:, None]) - _gauss_legendre_lambda_Q(ev, t, w))) <= 1e-9
        direct, moment = ev.eval_fundamental_charfun(t, w), ev.eval_charfun_via_moments(t, w)
        assert np.max(np.abs(direct - moment)) <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(spec=_focal_free_scenarios(lams=(0.0,)), frac=st.floats(0.1, 1.0))
    def test_diffusion_density_has_unit_mass(self, spec, frac):
        grid = evaluator(spec, N=512).invert_density(frac * spec.T, n_x=1024)
        assert abs(grid.mass - 1.0) < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(spec=_focal_free_scenarios(lams=(0.5, 2.0)),
           frac=st.floats(1e-3, 1.0), n_x=st.integers(64, 4096))
    def test_half_spectrum_density_is_bit_identical_to_the_full_band(self, spec, frac, n_x):
        ev = evaluator(spec, N=512, M=64)
        t = frac * spec.T
        grid = ev.invert_density(t, n_x=n_x)
        omega = 2.0 * math.pi * np.fft.fftfreq(n_x, d=grid.x[1] - grid.x[0])
        keep = np.flatnonzero(ev.log_modulus_bound(t, omega) > _LOG_UNDERFLOW)
        half = keep[keep <= n_x // 2]
        mhat = np.zeros(n_x, complex)
        # Every kept frequency is evaluated, not mirrored.  A chunk of 512
        # indices up to n_x // 2 is evaluated in one batch with its negation,
        # so both signs stop at the quadrature level the chunk alone reaches;
        # indices that are their own partner (0, Nyquist) keep the + value.
        for start in range(0, half.size, 512):
            chunk = half[start : start + 512]
            both = ev.eval_charfun_via_moments(t, np.concatenate([omega[chunk], -omega[chunk]]))
            mhat[(n_x - chunk) % n_x] = both[chunk.size :]
            mhat[chunk] = both[: chunk.size]
        mhat[keep] *= ev._initial_factor(t, omega[keep, None])
        ref = np.fft.ifft(mhat * np.exp(1j * omega * grid.x[0])).real / (grid.x[1] - grid.x[0])
        assert np.array_equal(grid.m, ref)


class TestMomentExtraction:
    def test_first_moment_matches_path(self):
        spec = make_spec(a=1.0, b=0.2, A_T=0.3, T=0.6, delta=0.5, x0=0.7, v0=0.4)
        ev = evaluator(spec, N=2048)
        E, V = ev.solution_moments(0.5)
        assert ev.moment_via_charfun(0.5, 1) == pytest.approx(float(E[0]), abs=1e-5)

    def test_second_moment_gaussian(self):
        spec = make_spec(delta=1.0, x0=1.0, v0=0.25)
        ev = evaluator(spec)
        # V(1) = 0.25 + 1, E = 1: raw second moment E^2 + V
        assert ev.moment_via_charfun(1.0, 2) == pytest.approx(1.0 + 1.25, abs=1e-4)

    def test_fourth_moment_gaussian_identity(self):
        spec = make_spec(delta=math.sqrt(2.0))  # V(1) = 2, E = 0
        ev = evaluator(spec)
        assert ev.moment_via_charfun(1.0, 4) == pytest.approx(3.0 * 4.0, rel=1e-3)

    def test_order_guard(self, brownian_spec):
        ev = evaluator(brownian_spec)
        with pytest.raises(ScenarioError):
            ev.moment_via_charfun(1.0, 5)
