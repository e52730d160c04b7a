"""The shared integrator for y'' + 2a(t) y = f and the quadratures built on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_moments import RecoveredParams, propagate_moments, solve_backward
from mfg_moments.ode import _BLOCK, cumsimpson, rk4_linear
from mfg_moments.recover import _sensitivities

from conftest import make_spec

# E(t) = E1 c(t) + E2 s(t) + D drives the third column through f = -2E.
E1, E2, D = 0.7, -0.4, 0.25


def basis(a, t):
    """c, s with c(0) = 1, c'(0) = 0, s(0) = 0, s'(0) = 1; then c' = -2a s and s' = c."""
    if a > 0:
        nu = math.sqrt(2 * a)
        return np.cos(nu * t), np.sin(nu * t) / nu
    if a < 0:
        mu = math.sqrt(-2 * a)
        return np.cosh(mu * t), np.sinh(mu * t) / mu
    return np.ones_like(t), t


def exact(a, t, data):
    """(y, y') of the columns f = 0, f = -1 (initial data ``data``) and f = -2E (zero data)."""
    c, s = basis(a, t)
    p1 = (1 - c) / (2 * a) if a else t * t / 2       # solves y'' + 2a y = 1 from rest
    r = (t * c - s) / (2 * a) if a else -t**3 / 3    # solves y'' + 2a y = -2 s from rest
    (y0, p0), (y1, p1_0) = data
    y = np.stack([y0 * c + p0 * s,
                  y1 * c + p1_0 * s - p1,
                  -2 * D * p1 - E1 * t * s + E2 * r], axis=1)
    yp = np.stack([-2 * a * y0 * s + p0 * c,
                   -2 * a * y1 * s + p1_0 * c - s,
                   -2 * D * s - E1 * (s + t * c) - E2 * t * s], axis=1)
    return y, yp


@pytest.mark.parametrize("a", [1.5, -1.2, 0.0])
def test_forward_and_backward_columns_match_closed_forms(a):
    T, N = 1.3, 800
    th = np.linspace(0.0, T, 2 * N + 1)
    c, s = basis(a, th)
    f = np.stack([0 * th, -np.ones_like(th), -2 * (E1 * c + E2 * s + D)], axis=1)
    a_half = np.full_like(th, a)
    data = ((1.0, 0.3), (0.5, -0.2))
    y_ref, yp_ref = exact(a, th[::2], data)

    y, yp = rk4_linear(a_half, f, (1.0, 0.5, 0.0), (0.3, -0.2, 0.0), T / N)
    scale = max(1.0, float(np.max(np.abs(y_ref))))
    assert np.max(np.abs(y - y_ref)) < 1e-11 * scale
    assert np.max(np.abs(yp - yp_ref)) < 1e-11 * scale

    # Backward from the exact values at T retraces the same solutions.
    yb, ypb = rk4_linear(a_half[::-1], f[::-1], y_ref[-1], yp_ref[-1], -T / N)
    assert np.max(np.abs(yb[::-1] - y_ref)) < 1e-11 * scale
    assert np.max(np.abs(ypb[::-1] - yp_ref)) < 1e-11 * scale


def rk4_reference(a_half, f_half, y0, yp0, h):
    """Classical RK4, one step at a time in Python floats: what the step maps replace."""
    N = (len(a_half) - 1) // 2
    y, yp = np.empty((N + 1, len(y0))), np.empty((N + 1, len(y0)))
    for j in range(len(y0)):
        cy, cp = y[0, j], yp[0, j] = y0[j], yp0[j]
        for k in range(N):
            (a0, a1, a2), (f0, f1, f2) = a_half[2 * k:2 * k + 3], f_half[2 * k:2 * k + 3, j]
            k1 = (cp, f0 - 2 * a0 * cy)
            k2 = (cp + h / 2 * k1[1], f1 - 2 * a1 * (cy + h / 2 * k1[0]))
            k3 = (cp + h / 2 * k2[1], f1 - 2 * a1 * (cy + h / 2 * k2[0]))
            k4 = (cp + h * k3[1], f2 - 2 * a2 * (cy + h * k3[0]))
            cy += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            cp += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            y[k + 1, j], yp[k + 1, j] = cy, cp
    return y, yp


@pytest.mark.parametrize("h", [1.0 / 300, -1.0 / 300])
def test_step_maps_reproduce_the_step_by_step_loop(h):
    # coarse steps and a time-varying a, so that a stage taking a or f at the wrong
    # half-grid point would differ far above rounding
    th = np.linspace(0.0, 1.0, 601)
    a_half = 3.0 * np.sin(4.0 * th) - 1.0
    f_half = np.stack([np.cos(3.0 * th), th**2 - 1.0], axis=1)
    got = rk4_linear(a_half, f_half, (0.4, -1.0), (1.2, 0.5), h)
    ref = rk4_reference(a_half, f_half, (0.4, -1.0), (1.2, 0.5), h)
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) < 1e-13 * max(1.0, float(np.max(np.abs(r))))


def assert_matches_reference(a_half, f_half, y0, yp0, h, rel):
    """rk4_linear against rk4_reference, each output column to ``rel`` of its largest value."""
    got = rk4_linear(a_half, f_half, y0, yp0, h)
    ref = rk4_reference(a_half, f_half, y0, yp0, h)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.all(np.abs(g - r) <= rel * np.max(np.abs(r), axis=0))


# Step counts the scan treats differently: applied in turn (K <= 2 B), whole blocks,
# one step past whole blocks, and up to three levels of blocks.
STEPS = st.one_of(st.integers(1, 2 * _BLOCK),
                  st.integers(3, 3 * _BLOCK).map(lambda m: m * _BLOCK),
                  st.integers(3, 3 * _BLOCK).map(lambda m: m * _BLOCK + 1),
                  st.integers(1, 3 * _BLOCK * _BLOCK))


@settings(max_examples=40, deadline=None)
@given(K=STEPS, width=st.integers(1, 5), backward=st.booleans(), T=st.floats(0.5, 3.0),
       amp=st.floats(0.5, 8.0), seed=st.integers(0, 2**32 - 1))
def test_scan_matches_the_step_by_step_loop(K, width, backward, T, amp, seed):
    rng = np.random.default_rng(seed)
    th = np.linspace(0.0, T, 2 * K + 1)
    # a runs from -amp to amp, so the solutions both oscillate and grow.
    a_half = amp * (2.0 * th / T - 1.0) + 0.3 * np.sin(5.0 * th)
    f_half = np.cos(np.outer(th, rng.uniform(0.0, 6.0, width)) + rng.uniform(0.0, 6.0, width))
    y0, yp0 = rng.uniform(-1.0, 1.0, width), rng.uniform(-1.0, 1.0, width)
    if backward:
        assert_matches_reference(a_half[::-1], f_half[::-1], y0, yp0, -T / K, 1e-12)
    else:
        assert_matches_reference(a_half, f_half, y0, yp0, T / K, 1e-12)


@pytest.mark.parametrize("backward", [False, True])
def test_scan_on_strongly_growing_and_decaying_solutions(backward):
    # a = -8: the solutions combine exp(4t) and exp(-4t), whose ratio reaches e^24 at T = 3;
    # columns (1, 0), (0, 1), the decaying data (1, -4) and f = -1 from rest.
    N, T = 4096, 3.0
    a_half = np.full(2 * N + 1, -8.0)
    f_half = np.zeros((2 * N + 1, 4))
    f_half[:, 3] = -1.0
    y0, yp0 = (1.0, 0.0, 1.0, 0.0), (0.0, 1.0, -4.0, 0.0)
    h = -T / N if backward else T / N
    assert_matches_reference(a_half, f_half, y0, yp0, h, 1e-12)


@pytest.mark.parametrize("N", [10, 4096, 2000])
def test_outputs_are_c_contiguous(N):
    th = np.linspace(0.0, 1.0, 2 * N + 1)
    for f_half in (np.zeros((2 * N + 1, 1)), np.ones((2 * N + 1, 3))):
        y, yp = rk4_linear(np.cos(th)[::-1], f_half[::-1], np.ones(f_half.shape[1]),
                           np.zeros(f_half.shape[1]), -1.0 / N)
        for out in (y, yp):
            assert out.shape == (N + 1, f_half.shape[1]) and out.flags.c_contiguous


def test_unforced_zero_coefficient_is_exact():
    th = np.linspace(0.0, 1.0, 257)
    y, yp = rk4_linear(np.zeros_like(th), np.zeros((257, 1)), (2.0,), (0.0,), 1 / 128)
    assert np.all(y == 2.0) and np.all(yp == 0.0)


def test_cumsimpson_is_exact_for_cubics_both_ways():
    th = np.linspace(0.0, 2.0, 21)
    g = 4 * th**3 - 3 * th**2 + 1
    t = th[::2]
    G = t**4 - t**3 + t
    assert np.allclose(cumsimpson(g, 0.2), G, rtol=0, atol=1e-13)
    assert np.allclose(cumsimpson(g[::-1], -0.2)[::-1], G - G[-1], rtol=0, atol=1e-13)
    assert np.allclose(cumsimpson(np.stack([g, 2 * g], axis=1), 0.2), np.stack([G, 2 * G], axis=1),
                       rtol=0, atol=1e-13)


GAUSS0 = {"type": "gaussian", "params": {"mu": 0.0, "sigma": 0.5}}  # M1 = 0, M2 = 0.25
POINT = {"type": "point", "params": {"z0": 0.4}}                   # M1 = 0.4


@pytest.mark.parametrize("kw,C0", [
    # a = 0, A_T = -1, v = 0: A = -1/(1 + 2(T - t)), C(0) = (delta^2 + lam M2) int_0^1 A
    (dict(A_T=-1.0, delta=1.0), -0.5 * math.log(3.0)),
    (dict(A_T=-1.0, delta=0.5, lam=2.0, jump=GAUSS0), -0.75 * 0.5 * math.log(3.0)),
    # a = 0, A_T = 0: A = 0, B = 0.3 + 0.5 (T - t), C(0) = int_0^1 (c + B^2/2 + lam M1 B)
    (dict(b=0.5, c=0.2, B_T=0.3, lam=2.0, jump=POINT),
     0.2 + 0.5 * (0.09 + 0.15 + 0.25 / 3) + 2.0 * 0.4 * (0.3 + 0.25)),
])
def test_constant_term_closed_forms(kw, C0):
    sol = solve_backward(make_spec(**kw), N=4096)
    assert abs(sol.C[0] - C0) < 1e-13


def test_fourth_order_on_halving_the_step():
    # time-varying a, b and c, with jumps and diffusion so that v and C have every source
    spec = make_spec(a={"poly": [0.6, -0.8]}, b={"poly": [0.3, 0.5]}, c={"poly": [0.2, 0.1]},
                     A_T=-0.4, B_T=0.3, T=1.5, delta=0.6, x0=0.8, v0=0.1,
                     lam=1.0, jump={"type": "gaussian", "params": {"mu": 0.2, "sigma": 0.4}})

    def fields(N):
        sol = solve_backward(spec, N)
        path = propagate_moments(sol, spec)
        step = N // 100
        return {"u": sol.u[::step], "v": sol.v[::step, 0], "C": sol.C[::step],
                "E": path.E[::step, 0], "V": path.V[::step]}

    coarse, fine, ref = fields(100), fields(200), fields(1600)
    for name in coarse:
        err_coarse = np.max(np.abs(coarse[name] - ref[name]))
        err_fine = np.max(np.abs(fine[name] - ref[name]))
        assert err_coarse > 1e-11, name  # above rounding, so the ratio measures the order
        assert err_coarse / err_fine >= 12.0, (name, err_coarse, err_fine)


def test_recovery_sensitivity_to_b_matches_closed_form():
    a = 0.8
    nu = math.sqrt(2 * a)
    params = RecoveredParams(
        branch="oscillatory", a=a, b=np.array([0.3]), K=0.5, C1=np.array([0.2]),
        C2=np.array([1.0]), C1_V=0.0, C2_V=0.0, v_const=0.1, rms_residual_E=0.0,
        rms_residual_V=0.0, cov_ab=np.zeros((2, 2)), identifiable=True, nu=nu,
    )
    t = np.linspace(0.0, 3.0, 37) + 0.013 * np.sin(np.arange(37.0))  # off the step grid
    t[0], t[-1] = 0.0, 3.0
    J = _sensitivities(params, t)
    assert np.max(np.abs(J[:, 1] + (1 - np.cos(nu * t)) / nu**2)) < 1e-10
