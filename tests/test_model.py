import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mfg_moments import (
    Coefficient,
    JumpDistribution,
    ScenarioError,
    jump_charfn,
    jump_moments,
    jump_sample,
    parse_scenario,
    sample_jumps,
    scenario_from_dict,
    scenario_to_json,
    serialize_scenario,
    validate_scenario,
)
from mfg_moments.model import jump_second_moment_matrix

from conftest import make_doc, make_spec

MINIMAL = {
    "T": 1,
    "delta": 1,
    "lambda": 0,
    "cost": {"a": 0, "b": 0, "c": 0},
    "terminal": {"A_T": 0, "B_T": 0, "C_T": 0},
    "initial": {"kind": "dirac", "x0": 0},
}


# dimension-1 laws with their densities, for the quadrature oracles
def _gauss_pdf(mu, sigma):
    return lambda z: math.exp(-((z - mu) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))


LAWS = {
    "point": (JumpDistribution.point(1.0), None, (-2, 2)),
    "gaussian": (JumpDistribution.gaussian(0.5, 2.0), _gauss_pdf(0.5, 2.0), (-30, 31)),
    "uniform": (JumpDistribution.uniform(0.0, 1.0), lambda z: 1.0, (0, 1)),
    "exponential": (JumpDistribution.exponential(2.0), lambda z: 2.0 * math.exp(-2.0 * z), (0, 20)),
}

# dimension-3 laws, with unequal coordinates where the law has per-coordinate parameters
LAWS_3D = {
    "point": JumpDistribution.point([1.0, -0.5, 2.0]),
    "gaussian": JumpDistribution.gaussian([0.5, -1.0, 0.0], 0.8),
    "uniform": JumpDistribution.uniform([0.0, -1.0, 0.5], [1.0, 2.0, 0.75]),
    "exponential": JumpDistribution.exponential(2.0, 3),
}

# every law at n = 1 and at n = 3 (equal per-coordinate second moments), as documents
JUMP_DOCS = [
    make_doc(lam=0.8, jump={"type": "point", "params": {"z0": -0.3}}),
    make_doc(lam=0.8, jump={"type": "gaussian", "params": {"mu": 0.1}}),
    make_doc(lam=0.8, jump={"type": "uniform", "params": {"lo": -0.5, "hi": 1.5}}),
    make_doc(lam=0.8, jump={"type": "exponential", "params": {}}),
    make_doc(n=3, lam=0.8, jump={"type": "point", "params": {"z0": [0.5, -0.5, 0.5]}}),
    make_doc(n=3, lam=0.8, jump={"type": "gaussian", "params": {"mu": [0.2, -0.2, 0.2], "sigma": 0.7}}),
    make_doc(n=3, lam=0.8, jump={"type": "uniform", "params": {"lo": [0.0, -1.0, 0.0], "hi": [1.0, 0.0, 1.0]}}),
    make_doc(n=3, lam=0.8, jump={"type": "exponential", "params": {"rate": 2.5}}),
]


class TestParsing:
    def test_minimal_document_defaults(self):
        spec = parse_scenario(json.dumps(MINIMAL))
        assert spec.n == 1
        assert spec.jump is None
        assert spec.T == 1.0
        assert spec.initial.kind == "dirac"

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioError, match=r"line 1"):
            parse_scenario("{not json")

    def test_jump_required_when_lambda_positive(self):
        doc = dict(MINIMAL, **{"lambda": 2})
        with pytest.raises(ScenarioError, match="jump required when lambda>0"):
            scenario_from_dict(doc)

    def test_meanfield_and_explicit_b_mutually_exclusive(self):
        doc = dict(MINIMAL)
        doc["cost"] = {"a": 0, "b": 1.0, "c": 0, "meanfield": {"b0": 0, "b1": 1, "b2": 0}}
        with pytest.raises(ScenarioError, match="mutually exclusive"):
            scenario_from_dict(doc)

    def test_unknown_keys_are_errors(self):
        doc = dict(MINIMAL, extra=1)
        with pytest.raises(ScenarioError, match="extra"):
            scenario_from_dict(doc)
        doc = dict(MINIMAL)
        doc["cost"] = {"a": 0, "b": 0, "c": 0, "q": 1}
        with pytest.raises(ScenarioError, match="'q'"):
            scenario_from_dict(doc)

    def test_uniform_needs_lo_below_hi(self):
        doc = make_doc(lam=1.0, jump={"type": "uniform", "params": {"lo": 1.0, "hi": 0.0}})
        with pytest.raises(ScenarioError, match="lo < hi"):
            scenario_from_dict(doc)

    def test_dirac_forces_zero_variance(self):
        doc = dict(MINIMAL)
        doc["initial"] = {"kind": "dirac", "x0": 0, "v0": 0.5}
        with pytest.raises(ScenarioError, match="v0"):
            scenario_from_dict(doc)

    def test_invariants_on_scalars(self):
        for key, value in (("T", -1), ("delta", -0.5), ("lambda", -2)):
            doc = dict(MINIMAL, **{key: value})
            with pytest.raises(ScenarioError):
                scenario_from_dict(doc)

    def test_anisotropic_jump_rejected_for_n2(self):
        doc = make_doc(n=2, lam=1.0, jump={"type": "point", "params": {"z0": [1.0, 2.0]}})
        with pytest.raises(ScenarioError, match="second moments"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        MINIMAL,
        make_doc(a=2.0, b=0.3, c=-1.0, A_T=0.5, B_T=0.2, C_T=1.0, delta=0.5,
                 lam=1.5, jump={"type": "gaussian", "params": {"mu": 0.2, "sigma": 0.7}},
                 x0=0.4, v0=0.25),
        make_doc(n=2, delta=1.0, B_T=[0.1, -0.2], x0=[1.0, 2.0]),
        make_doc(meanfield={"b0": 0.1, "b1": 1.0, "b2": 0.5}, x0=1.0),
        make_doc(lam=0.5, jump={"type": "exponential", "params": {"rate": 3.0}}),
        {**MINIMAL, "cost": {"a": {"poly": [0, 1, 2]}, "b": 0, "c": 0}},
        *JUMP_DOCS,
    ])
    def test_parse_serialize_parse_identity(self, doc):
        spec = scenario_from_dict(doc)
        again = parse_scenario(scenario_to_json(spec))
        assert again == spec
        assert serialize_scenario(again) == serialize_scenario(spec)


def _replacing(part: str, **changes):
    """Replace fields of one part of a spec (terminal, initial, cost or jump)."""
    return lambda spec: dataclasses.replace(spec, **{part: dataclasses.replace(getattr(spec, part), **changes)})


class TestValidateScenario:
    """Invariants of a spec built without parsing, as ``dataclasses.replace`` does."""

    @pytest.fixture
    def spec(self):
        return make_spec(n=2, lam=1.0, jump={"type": "uniform", "params": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
                         B_T=[0.1, 0.2], x0=[0.3, 0.4])

    @pytest.mark.parametrize("change, match", [
        pytest.param(_replacing("terminal", B_T=(0.1,)), "terminal.B_T", id="B_T_length"),
        pytest.param(_replacing("initial", x0=(0.3,)), "initial.x0", id="x0_length"),
        pytest.param(_replacing("terminal", A_T=math.inf), "terminal.A_T", id="A_T_not_finite"),
        pytest.param(_replacing("cost", a=Coefficient.poly([1.0] * 6)), "degree", id="six_coefficients"),
        pytest.param(_replacing("cost", a=Coefficient.meanfield(0.0, 1.0, 0.0)), "only allowed for b",
                     id="meanfield_a"),
        pytest.param(_replacing("jump", hi=(1.0, 2.0)), "second moments", id="unequal_second_moments"),
    ])
    def test_invariant_is_enforced(self, spec, change, match):
        with pytest.raises(ScenarioError, match=match):
            validate_scenario(change(spec))


class TestJumpMoments:
    def test_point_mass(self):
        M1, M2 = jump_moments(JumpDistribution.point(1.0))
        assert M1[0] == 1.0 and M2 == 1.0

    def test_gaussian_spot_value(self):
        M1, M2 = jump_moments(LAWS["gaussian"][0])
        assert M1[0] == pytest.approx(0.5)
        assert M2 == pytest.approx(4.25)

    def test_uniform_spot_value(self):
        M1, M2 = jump_moments(LAWS["uniform"][0])
        assert M1[0] == pytest.approx(0.5)
        assert M2 == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("name", ["gaussian", "uniform", "exponential"])
    def test_against_quadrature_oracle(self, name):
        jump, pdf, (lo, hi) = LAWS[name]
        m1_ref = quad(lambda z: z * pdf(z), lo, hi)[0]
        m2_ref = quad(lambda z: z * z * pdf(z), lo, hi)[0]
        M1, M2 = jump_moments(jump)
        assert M1[0] == pytest.approx(m1_ref, abs=1e-9)
        assert M2 == pytest.approx(m2_ref, rel=1e-9)

    def test_none_variant_errors(self):
        with pytest.raises(ScenarioError, match="no jump law"):
            jump_moments(None)

    def test_spec_reads_lambda_times_the_moments(self):
        spec = make_spec(lam=2.0, jump={"type": "gaussian", "params": {"mu": 0.5, "sigma": 2.0}})
        assert spec.lam_M1.tolist() == [1.0] and spec.lam_M2 == 2.0 * 4.25
        idle = make_spec(n=2, jump={"type": "point", "params": {"z0": [1.0, -1.0]}})
        assert idle.lam_M1.tolist() == [0.0, 0.0] and idle.lam_M2 == 0.0


class TestJumpSecondMomentMatrix:
    @pytest.mark.parametrize("name", list(LAWS_3D))
    def test_matches_the_sample_second_moments(self, name):
        jump = LAWS_3D[name]
        z = sample_jumps(jump, np.random.default_rng(2026), 2 * 10**5)
        products = z[:, :, None] * z[:, None, :]
        se = products.std(axis=0, ddof=1) / math.sqrt(len(z))
        mat = jump_second_moment_matrix(jump)
        assert np.all(np.abs(products.mean(axis=0) - mat) <= 5 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("name", list(LAWS_3D))
    def test_trace_is_the_total_second_moment(self, name):
        jump = LAWS_3D[name]
        assert np.trace(jump_second_moment_matrix(jump)) == jump_moments(jump)[1]


class TestJumpCharfn:
    @pytest.mark.parametrize("name", list(LAWS))
    def test_normalization_and_bound(self, name):
        jump = LAWS[name][0]
        assert jump_charfn(jump, 0.0) == 1.0
        for w in np.linspace(-25, 25, 41):
            assert abs(jump_charfn(jump, w)) <= 1.0 + 1e-12

    def test_point_mass_phase(self):
        assert jump_charfn(JumpDistribution.point(3.0), 2.0) == pytest.approx(
            complex(math.cos(6.0), -math.sin(6.0))
        )

    def test_gaussian_spot_value(self):
        val = jump_charfn(JumpDistribution.gaussian(0.0, 1.0), 1.0)
        assert val == pytest.approx(math.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize("name", ["gaussian", "uniform", "exponential"])
    @pytest.mark.parametrize("w", [0.35, 1.7, -4.0])
    def test_against_quadrature_oracle(self, name, w):
        jump, pdf, (lo, hi) = LAWS[name]
        re_ref = quad(lambda z: math.cos(w * z) * pdf(z), lo, hi, limit=200)[0]
        im_ref = quad(lambda z: -math.sin(w * z) * pdf(z), lo, hi, limit=200)[0]
        val = jump_charfn(jump, w)
        assert val.real == pytest.approx(re_ref, abs=1e-8)
        assert val.imag == pytest.approx(im_ref, abs=1e-8)

    @pytest.mark.parametrize("name", list(LAWS))
    def test_conjugate_symmetry(self, name):
        jump = LAWS[name][0]
        for w in (0.5, 2.2, 11.0):
            assert jump_charfn(jump, -w) == pytest.approx(jump_charfn(jump, w).conjugate())

    @pytest.mark.parametrize("name", list(LAWS))
    def test_derivative_at_zero_matches_first_moment(self, name):
        jump = LAWS[name][0]
        M1 = jump_moments(jump)[0][0]
        h = 1e-4
        deriv = (jump_charfn(jump, h) - jump_charfn(jump, -h)) / (2 * h)
        est = (1j * deriv).real
        assert abs(est - M1) <= 1e-6 * max(1.0, abs(M1))


class TestJumpSampling:
    def test_point_mass_constant(self):
        rng = np.random.default_rng(0)
        draws = sample_jumps(JumpDistribution.point(3.0), rng, 100)
        assert np.all(draws == 3.0)

    def test_deterministic_for_fixed_seed(self):
        jump = LAWS["gaussian"][0]
        a = jump_sample(jump, np.random.default_rng(42))
        b = jump_sample(jump, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_standard_normal_mean(self):
        rng = np.random.default_rng(123)
        draws = sample_jumps(JumpDistribution.gaussian(0.0, 1.0), rng, 10**5)
        assert abs(draws.mean()) <= 4.0 / math.sqrt(10**5)

    def test_uniform_second_moment(self):
        rng = np.random.default_rng(7)
        draws = sample_jumps(JumpDistribution.uniform(0.0, 1.0), rng, 10**5)
        assert np.mean(draws**2) == pytest.approx(1.0 / 3.0, rel=0.01)

    @pytest.mark.parametrize("name", list(LAWS))
    def test_moments_within_five_standard_errors(self, name):
        jump = LAWS[name][0]
        M1, M2 = jump_moments(jump)
        rng = np.random.default_rng(2024)
        z = sample_jumps(jump, rng, 10**5)[:, 0]
        n = len(z)
        se1 = max(z.std(ddof=1) / math.sqrt(n), 1e-15)
        se2 = max((z**2).std(ddof=1) / math.sqrt(n), 1e-15)
        assert abs(z.mean() - M1[0]) <= 5 * se1
        assert abs(np.mean(z**2) - M2) <= 5 * se2
