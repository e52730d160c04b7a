import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_moments import (
    ConvergenceError,
    ObservedSeries,
    ScenarioError,
    classify_branch,
    closed_form_moments_const,
    evaluate_fit,
    fit_parameters,
    series_from_csv,
    series_to_csv,
)
from mfg_moments import recover
from mfg_moments.recover import _BRENT_TOL, _GRID_POINTS, _brent, _integral_seed


def synthetic(a, b, K, t, init=None, noise=0.0, seed=0):
    init = init or {"E0": 1.0, "E0p": 0.3, "V0": 1.0, "V0p": 0.2}
    cf = closed_form_moments_const(a, b, K, init)
    E = cf.E_fn(t)
    V = np.abs(cf.V_fn(t))
    if noise:
        rng = np.random.default_rng(seed)
        scale = float(np.max(np.abs(E)))
        E = E + noise * scale * rng.standard_normal(len(t))
        V = np.abs(V + noise * float(np.max(V)) * rng.standard_normal(len(t)))
    return ObservedSeries(t=t, E=E, V=V)


class TestObservedSeries:
    def test_requires_eight_samples(self):
        with pytest.raises(ScenarioError, match="at least 8"):
            ObservedSeries(t=np.arange(5.0), E=np.zeros(5), V=np.ones(5))

    def test_rejects_negative_variance(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(ScenarioError, match="nonnegative"):
            ObservedSeries(t=t, E=np.zeros(10), V=-np.ones(10))

    def test_rejects_decreasing_times(self):
        t = np.linspace(1, 0, 10)
        with pytest.raises(ScenarioError, match="increasing"):
            ObservedSeries(t=t, E=np.zeros(10), V=np.ones(10))

    @pytest.mark.parametrize("E,V,match", [
        (np.zeros((10, 0)), np.ones(10), "no E column"),
        (np.zeros(9), np.ones(10), "10 times but 9 rows of E and 10 of V"),
        (np.zeros((10, 2)), np.ones(11), "10 times but 10 rows of E and 11 of V"),
        (np.zeros((10, 1, 1)), np.ones(10), "1-D or 2-D E"),
    ])
    def test_rejects_mismatched_shapes(self, E, V, match):
        with pytest.raises(ScenarioError, match=match):
            ObservedSeries(t=np.linspace(0, 1, 10), E=E, V=V)

    # sinh(400) = 2.6e173: its square overflows, and so did the RSS floor built from it.
    @pytest.mark.parametrize("column,peak", [("t", "1e+160"), ("E", "2.61e+173"), ("V", "1e+160")])
    def test_rejects_values_whose_squares_overflow(self, column, peak):
        t = np.linspace(0, 1, 50)
        arrays = {"t": t, "E": np.sin(t), "V": np.ones(50)}
        arrays[column] = np.sinh(400 * t) if column == "E" else 1e160 * arrays[column]
        with pytest.raises(ScenarioError, match=rf"{column} reaches magnitude {re.escape(peak)}"):
            ObservedSeries(**arrays)

    # pi / 1e-310 overflows: the oscillatory search had no finite Nyquist bound.
    def test_rejects_a_time_step_too_small_to_bound_the_frequency(self):
        t = 1e-310 * np.linspace(0, 1, 50)
        with pytest.raises(ScenarioError, match=r"smallest time step 2\.04e-312"):
            ObservedSeries(t=t, E=np.sin(3 * t), V=np.ones(50))

    def test_csv_round_trip(self):
        t = np.linspace(0, 2, 12)
        series = ObservedSeries(t=t, E=np.sin(t), V=1 + 0.1 * t)
        again = series_from_csv(series_to_csv(series))
        assert np.array_equal(series.t, again.t)
        assert np.array_equal(series.E, again.E)
        assert np.array_equal(series.V, again.V)


class TestClassification:
    def test_oscillatory_series(self):
        t = np.linspace(0, 5, 50)
        E = 0.3 * np.sin(math.sqrt(2) * t) + 0.7 * np.cos(math.sqrt(2) * t)
        series = ObservedSeries(t=t, E=E, V=np.ones(50))
        branch, confidence = classify_branch(series)
        assert branch == "oscillatory"
        assert confidence > 0

    def test_exponential_series(self):
        t = np.linspace(0, 2, 40)
        series = ObservedSeries(t=t, E=np.sinh(math.sqrt(2) * t), V=np.ones(40))
        assert classify_branch(series)[0] == "exponential"

    def test_polynomial_series(self):
        t = np.linspace(0, 3, 40)
        series = ObservedSeries(t=t, E=1 + 2 * t - t**2, V=np.ones(40))
        assert classify_branch(series)[0] == "polynomial"

    def test_constant_series_prefers_fewest_parameters(self):
        series = ObservedSeries(t=np.linspace(0, 5, 30), E=np.full(30, 2.5), V=np.ones(30))
        assert classify_branch(series)[0] == "polynomial"


class TestFit:
    # windows chosen so the variance curve stays positive (the oscillatory
    # one focuses periodically) while the frequency is still resolvable
    @pytest.mark.parametrize("a,b,K,window,init", [
        (1.0, 0.5, 0.1, 1.08, {"E0": 1.0, "E0p": 0.3, "V0": 1.0, "V0p": 0.0}),
        (-1.0, 0.5, 0.8, 2.0, {"E0": 0.5, "E0p": 1.0, "V0": 1.0, "V0p": 0.2}),
        (0.0, 0.6, 0.6, 3.0, {"E0": 1.0, "E0p": 2.0, "V0": 1.0, "V0p": 1.0}),
    ])
    def test_noiseless_round_trip(self, a, b, K, window, init):
        t = np.linspace(0, window, 50)
        series = synthetic(a, b, K, t, init=init)
        params = fit_parameters(series)
        assert abs(params.a - a) < 1e-6
        assert abs(params.b[0] - b) < 1e-6
        assert abs(params.K - K) < 1e-6
        diag = evaluate_fit(params, series)
        assert diag.rms_E < 1e-8
        assert diag.max_deviation_E < 1e-7

    def test_noisy_recovery_within_five_percent(self):
        # a and b come from the expectation fit; sample more than a period
        t = np.linspace(0, 5, 50)
        errs_a, errs_b = [], []
        for seed in range(30):
            series = synthetic(1.0, 0.5, 0.3, t, noise=0.01, seed=seed)
            params = fit_parameters(series)
            errs_a.append(abs(params.a - 1.0) / 1.0)
            errs_b.append(abs(params.b[0] - 0.5) / 0.5)
        assert np.percentile(errs_a, 95) < 0.05
        assert np.percentile(errs_b, 95) < 0.05

    def test_constant_series_unidentifiable_pair(self):
        series = ObservedSeries(t=np.linspace(0, 5, 30), E=np.full(30, 2.5), V=np.ones(30))
        params = fit_parameters(series)
        assert params.branch == "polynomial"
        assert params.a == 0.0
        assert abs(params.b[0]) < 1e-10
        assert not params.identifiable
        assert np.all(np.isinf(params.cov_ab))

    def test_scale_equivariance(self):
        t = np.linspace(0, 1.05, 50)
        base = synthetic(1.0, 0.5, 0.3, t)
        scaled = ObservedSeries(t=t, E=3.0 * base.E[:, 0], V=base.V)
        p0 = fit_parameters(base, branch="oscillatory")
        p1 = fit_parameters(scaled, branch="oscillatory")
        assert abs(p1.a - p0.a) < 1e-8
        assert p1.b[0] == pytest.approx(3.0 * p0.b[0], abs=1e-7)
        assert p1.C1[0] == pytest.approx(3.0 * p0.C1[0], abs=1e-7)
        assert p1.C2[0] == pytest.approx(3.0 * p0.C2[0], abs=1e-7)

    def test_perturbed_a_raises_rms_monotonically(self):
        t = np.linspace(0, 1.05, 50)
        series = synthetic(1.0, 0.0, 0.3, t, init={"E0": 1.0, "E0p": 0.5, "V0": 1.0, "V0p": 0.2})
        params = fit_parameters(series, branch="oscillatory")
        rms = []
        for bump in (0.01, 0.05, 0.10):
            params.a = 1.0 * (1 + bump)
            rms.append(evaluate_fit(params, series).rms_E)
        assert rms[0] < rms[1] < rms[2]

    def test_vector_series_shares_frequency(self):
        t = np.linspace(0, 1.05, 40)
        cf1 = closed_form_moments_const(1.0, 0.5, 0.3, {"E0": 1.0, "E0p": 0.3, "V0": 1.0, "V0p": 0.2})
        cf2 = closed_form_moments_const(1.0, 0.5, 0.3, {"E0": -0.4, "E0p": 1.0, "V0": 1.0, "V0p": 0.2})
        E = np.stack([cf1.E_fn(t), cf2.E_fn(t)], axis=1)
        series = ObservedSeries(t=t, E=E, V=np.abs(cf1.V_fn(t)))
        params = fit_parameters(series, branch="oscillatory")
        assert abs(params.a - 1.0) < 1e-6
        assert params.b.shape == (2,)
        assert np.allclose(params.b, 0.5, atol=1e-6)
        assert params.search == "seeded"
        assert params.cov_ab.shape == (3, 3) and params.identifiable
        assert np.all(np.isfinite(params.cov_ab))
        assert np.all(np.linalg.eigvalsh(params.cov_ab) > 0)

    def test_vector_covariance_stacks_the_coordinates(self):
        # Two copies of one series: the information on a doubles, each b_i keeps
        # its own, and the residual variance is the RSS over 2m - 7 degrees of freedom.
        t = np.linspace(0, 5, 50)
        one = synthetic(1.0, 0.5, 0.3, t, noise=0.01, seed=3)
        two = ObservedSeries(t=t, E=np.column_stack([one.E, one.E]), V=one.V)
        p1 = fit_parameters(one, branch="oscillatory")
        p2 = fit_parameters(two, branch="oscillatory")
        assert p2.a == pytest.approx(p1.a, rel=1e-8)
        info = np.linalg.inv(p1.cov_ab) * p1.rms_residual_E**2 * 50 / (50 - 4)
        expected = np.array([[2 * info[0, 0], info[0, 1], info[0, 1]],
                             [info[0, 1], info[1, 1], 0.0],
                             [info[0, 1], 0.0, info[1, 1]]])
        rss2 = p2.rms_residual_E**2 * 100
        assert np.allclose(p2.cov_ab, rss2 / (100 - 7) * np.linalg.inv(expected), rtol=1e-6, atol=0)

    def test_constant_vector_series_unidentifiable(self):
        E = np.column_stack([np.full(30, 2.5), np.full(30, -1.0)])
        params = fit_parameters(ObservedSeries(t=np.linspace(0, 5, 30), E=E, V=np.ones(30)))
        assert params.branch == "polynomial"
        assert not params.identifiable
        assert params.cov_ab.shape == (3, 3) and np.all(np.isinf(params.cov_ab))


class TestIntegralSeed:
    @pytest.mark.parametrize("a,b,window,spacing", [
        (1.0, 0.5, 1.08, "uniform"), (-1.0, 0.5, 2.0, "uniform"),
        (1.0, 0.5, 1.08, "squared"), (-1.0, 0.5, 2.0, "squared"),
    ])
    def test_noiseless_seed_is_near_a(self, a, b, window, spacing):
        u = np.linspace(0, 1, 50)
        t = window * (u if spacing == "uniform" else u * u)
        # The trapezoid sums err by O(h^2); t = window u^2 has steps up to twice the uniform one.
        tol = 1e-3 if spacing == "uniform" else 4e-3
        assert abs(_integral_seed(synthetic(a, b, 0.3, t)) - a) < tol

    def test_vector_series_has_one_shared_seed(self):
        t = np.linspace(0, 1.05, 40)
        inits = [{"E0": 1.0, "E0p": 0.3, "V0": 1.0, "V0p": 0.2},
                 {"E0": -0.4, "E0p": 1.0, "V0": 1.0, "V0p": 0.2}]
        E = np.column_stack([synthetic(1.0, b, 0.3, t, init=init).E[:, 0]
                             for b, init in zip((0.5, -0.2), inits)])
        a_seed = _integral_seed(ObservedSeries(t=t, E=E, V=np.ones(40)))
        assert isinstance(a_seed, float) and abs(a_seed - 1.0) < 1e-3

    # +-1 alternating on a uniform grid: every trapezoid cancels, so the a column is zero.
    @pytest.mark.parametrize("E", [np.full(30, 2.5), np.zeros(30),
                                   np.column_stack([np.full(30, 2.5), np.full(30, -1.0)]),
                                   np.where(np.arange(30) % 2 == 0, 1.0, -1.0)],
                             ids=["constant", "zero", "constant-pair", "alternating"])
    def test_constant_series_has_no_seed(self, E):
        series = ObservedSeries(t=np.linspace(0, 5, 30), E=E, V=np.ones(30))
        assert _integral_seed(series) is None
        assert fit_parameters(series, branch="oscillatory").a_seed is None

    def test_seed_and_search_stay_out_of_the_dict(self):
        params = fit_parameters(synthetic(1.0, 0.5, 0.3, np.linspace(0, 5, 50)))
        assert params.search == "seeded" and abs(params.a_seed - 1.0) < 1e-2
        assert "a_seed" not in params.to_dict() and "search" not in params.to_dict()


class TestProfiledSearch:
    @pytest.mark.parametrize("f", [lambda x: (x - 0.3) ** 2, lambda x: abs(x - 0.3)],
                             ids=["quadratic", "v-shape"])
    def test_brent_reaches_its_tolerance(self, f):
        x, fx = _brent(f, 0.0, 1.0)
        assert abs(x - 0.3) <= 2 * _BRENT_TOL
        assert fx == f(x)

    @pytest.mark.parametrize("f,end", [(lambda x: x, 0.0), (lambda x: -x, 1.0)],
                             ids=["increasing", "decreasing"])
    def test_brent_returns_the_bracket_end(self, f, end):
        assert _brent(f, 0.0, 1.0) == (end, f(end))

    # A polynomial series is the nu -> 0 limit of both other branches, so a
    # forced fit must end at the low end of the search, not at a spurious
    # interior minimum.
    @pytest.mark.parametrize("branch", ["oscillatory", "exponential"])
    @pytest.mark.parametrize("shape", [lambda t: 1 + 2 * t, lambda t: 1 + 2 * t - t**2,
                                       lambda t: np.full_like(t, 2.5)],
                             ids=["linear", "quadratic", "constant"])
    def test_polynomial_series_forced_onto_another_branch(self, branch, shape):
        t = np.linspace(0, 3, 40)
        params = fit_parameters(ObservedSeries(t=t, E=shape(t), V=np.ones(40)), branch=branch)
        assert params.rms_residual_E < 1e-6

    @pytest.fixture
    def count_fits(self, monkeypatch):
        calls = []
        profiled = recover._profiled_fit

        def counted(*args):
            calls.append(args[0])
            return profiled(*args)

        monkeypatch.setattr(recover, "_profiled_fit", counted)
        return calls

    def test_classified_fit_is_not_searched_again(self, count_fits):
        series = synthetic(1.0, 0.5, 0.3, np.linspace(0, 5, 50))
        classify_branch(series)
        n_classify = len(count_fits)
        count_fits.clear()
        params = fit_parameters(series)
        assert len(count_fits) == n_classify
        assert abs(params.a - 1.0) < 1e-6 and abs(params.b[0] - 0.5) < 1e-6

    def test_seeded_classification_searches_one_bracket(self, count_fits):
        # acceptance 7's noisy oscillatory series; the grid on all three branches took 548
        series = synthetic(1.0, 0.5, 0.3, np.linspace(0, 5, 50), noise=0.01, seed=0)
        assert classify_branch(series)[0] == "oscillatory"
        assert len(count_fits) <= 100
        assert set(count_fits) == {"oscillatory", "polynomial"}

    @pytest.mark.parametrize("turns,search", [(1.49, "grid"), (1.51, "seeded")])
    def test_seed_on_the_degeneracy_threshold(self, count_fits, turns, search):
        # nu * window = turns: a seed below 1.5 radians across the window leaves both
        # signs candidates, so the grid runs on both; above, only its own branch is searched.
        t = np.linspace(0, 5, 50)
        nu = turns / 5.0
        params = fit_parameters(synthetic(0.5 * nu * nu, 0.5, 0.3, t))
        assert (math.sqrt(2 * params.a_seed) * 5.0 >= 1.5) == (search == "seeded")
        assert params.search == search
        if search == "grid":
            assert count_fits.count("oscillatory") > _GRID_POINTS
            assert count_fits.count("exponential") > _GRID_POINTS
        else:
            assert "exponential" not in count_fits and len(count_fits) <= 100

    @pytest.mark.parametrize("branch", ["oscillatory", "exponential"])
    def test_exact_fits_tie_instead_of_each_being_refined(self, count_fits, branch):
        # every nu fits a constant exactly, so the profiled residual is rounding noise
        t = np.linspace(0, 3, 40)
        params = fit_parameters(ObservedSeries(t=t, E=np.full(40, 2.5), V=np.ones(40)), branch=branch)
        assert params.rms_residual_E < 1e-6
        assert len(count_fits) <= 300

    def test_failure_names_the_search_and_its_interval(self):
        # Samples 4000 apart put the Nyquist frequency below the search floor.
        series = ObservedSeries(t=4000.0 * np.arange(8), E=np.ones(8), V=np.ones(8))
        with pytest.raises(ConvergenceError, match=r"profiled oscillatory search .*\[0, 0.000785398\]"):
            fit_parameters(series, branch="oscillatory")

    def test_forced_branch_without_a_finite_fit_raises(self):
        # cosh(nu t) overflows at t = -1e6 for every nu above the search floor 1e-3
        t = np.linspace(-1e6, 1.0, 50)
        series = ObservedSeries(t=t, E=np.sin(3 * t), V=np.ones(50))
        with pytest.raises(ConvergenceError, match="profiled exponential search"):
            fit_parameters(series, branch="exponential")

    @settings(max_examples=12, deadline=None)
    @given(sign=st.sampled_from([1.0, -1.0]), nu=st.floats(0.5, 3.0),
           turns=st.floats(2.0, 8.0), b=st.floats(-1.0, 1.0), E0=st.floats(-1.0, 1.0),
           E0p=st.floats(0.5, 1.5))
    def test_noiseless_round_trip_property(self, sign, nu, turns, b, E0, E0p):
        # nu * window = turns <= 8 keeps nu below a sixth of the Nyquist limit 49 pi / window.
        a = 0.5 * sign * nu * nu
        t = np.linspace(0, turns / nu, 50)
        params = fit_parameters(synthetic(a, b, 0.3, t, init={"E0": E0, "E0p": E0p,
                                                              "V0": 1.0, "V0p": 0.0}))
        assert abs(params.a - a) < 1e-6
        assert abs(params.b[0] - b) < 1e-6

    @settings(max_examples=12, deadline=None)
    @given(sign=st.sampled_from([1.0, -1.0]), nu=st.floats(0.5, 3.0),
           turns=st.floats(2.0, 8.0), b=st.floats(-1.0, 1.0), E0=st.floats(-1.0, 1.0),
           E0p=st.floats(0.5, 1.5))
    def test_seeded_and_grid_fits_agree(self, sign, nu, turns, b, E0, E0p):
        a = 0.5 * sign * nu * nu
        series = synthetic(a, b, 0.3, np.linspace(0, turns / nu, 50),
                           init={"E0": E0, "E0p": E0p, "V0": 1.0, "V0p": 0.0})
        seeded = fit_parameters(series)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recover, "_integral_seed", lambda series: None)
            grid = fit_parameters(series)
        assert (seeded.search, grid.search) == ("seeded", "grid")
        assert seeded.branch == grid.branch
        assert abs(seeded.a - grid.a) < 1e-8
        assert abs(seeded.b[0] - grid.b[0]) < 1e-8
