import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mfg_moments import (
    InitialLaw, charfun, cli, closed_form_moments_const, hjb, moments, propagate_moments,
    solve_backward,
)
from mfg_moments.cli import main
from mfg_moments.hjb import hjb_from_csv
from mfg_moments.moments import moments_from_csv
from mfg_moments.ode import rk4_linear

from conftest import make_doc

PURE_JUMP = make_doc(delta=0.5, lam=2.0, jump={"type": "point", "params": {"z0": 1.0}})
MEAN_FIELD = make_doc(a=0.2, meanfield={"b0": 0.2, "b1": 0.3, "b2": 0}, A_T=-0.1, B_T=0.1,
                      delta=0.4, x0=1.0)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(PURE_JUMP))
    return str(path)


def _digests(out_dir):
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestValidate:
    def test_valid_scenario(self, scenario_file, capsys):
        assert main(["validate", "--scenario", scenario_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(PURE_JUMP, jump={"type": "none"})))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("validate", "--scenario"), ("recover", "--input")])
    def test_undecodable_input_exits_one(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfet\x00,\x00E\x00")
        out = ["--out", str(tmp_path / "out")] if command == "recover" else []
        assert main([command, flag, str(bad), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "decode" in err

    def test_numerical_error_exits_two(self, tmp_path):
        doc = make_doc(a=2.0e4)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert main(["solve", "--scenario", str(f), "--out", str(tmp_path / "o"), "--grid", "128"]) == 2

    def test_unknown_flag_exits_usage(self, scenario_file, tmp_path, capsys):
        code = main(["solve", "--scenario", scenario_file, "--out", str(tmp_path), "--bogus"])
        assert code == 64

    def test_unknown_command_exits_usage(self):
        assert main(["frobnicate"]) == 64


class TestSolve:
    def test_happy_path_outputs_and_manifest(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--scenario", scenario_file, "--out", str(out), "--grid", "512"]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"hjb.csv", "moments.csv", "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        for entry in manifest["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_outputs_parse_back(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--scenario", scenario_file, "--out", str(out), "--grid", "512"])
        sol = hjb_from_csv((out / "hjb.csv").read_text())
        path = moments_from_csv((out / "moments.csv").read_text())
        assert len(sol.t) == 513
        assert path.K == pytest.approx(0.25 + 2.0)

    def test_meanfield_scenario_goes_through_fixed_point(self, tmp_path):
        doc = make_doc(meanfield={"b0": 0, "b1": 1, "b2": 0}, delta=0.3, x0=1.0,
                       B_T=-math.sin(1.0))
        f = tmp_path / "mf.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(f), "--out", str(out), "--grid", "512"]) == 0
        path = moments_from_csv((out / "moments.csv").read_text())
        assert np.max(np.abs(path.E[:, 0] - np.cos(path.t))) < 1e-5


class TestDensity:
    def test_one_file_per_time(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["density", "--scenario", scenario_file, "--times", "0.5,1.0",
                     "--out", str(out), "--grid", "512", "--xgrid", "1024", "--quad", "128"])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"density_t0.500000.csv", "density_t1.000000.csv", "manifest.json"} == names

    @pytest.mark.parametrize("flag,value", [("--quad", "3"), ("--quad", "0"), ("--quad", "131072"),
                                            ("--xgrid", "0"), ("--xgrid", "1"), ("--grid", "0")])
    def test_invalid_size_is_a_one_line_validation_error(self, scenario_file, tmp_path, capsys,
                                                         flag, value):
        args = ["density", "--scenario", scenario_file, "--times", "0.5", "--out",
                str(tmp_path / "out"), "--grid", "512", "--xgrid", "1024", "--quad", "128"]
        assert main(args + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra", [["--times", "0.5,7"], ["--times", "0.5", "--xgrid", "1"]])
    def test_rejected_input_creates_no_output_directory(self, scenario_file, tmp_path, extra):
        out = tmp_path / "out"
        args = ["density", "--scenario", scenario_file, "--out", str(out), "--grid", "512",
                "--quad", "128"]
        assert main(args + extra) == 1
        assert not out.exists()


class TestSimulate:
    def test_empty_record_times_header_only(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", scenario_file, "--paths", "1000",
                     "--dt", "0.005", "--seed", "3", "--out", str(out), "--grid", "512"])
        assert code == 0
        lines = (out / "sim.csv").read_text().splitlines()
        assert lines == ["t,E_hat_1,se_E_1,V_hat,se_V,n_jumps"]

    def test_endpoint_dump_flag(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", scenario_file, "--paths", "1000", "--dt", "0.005",
              "--seed", "3", "--times", "0.5", "--out", str(out), "--grid", "512",
              "--dump-endpoints"])
        dump = (out / "endpoints.csv").read_text().splitlines()
        assert dump[0] == "path,t,x_1"
        assert len(dump) == 1001


class TestRejectedBeforeSolving:
    @pytest.mark.parametrize("command,extra", [
        ("simulate", ["--paths", "500"]),
        ("compare", ["--paths", "500"]),
        ("compare", ["--paths", "1000", "--dt2", "0.5"]),
    ])
    def test_bad_simulation_config_exits_one_without_solving(
            self, scenario_file, tmp_path, monkeypatch, command, extra):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before validating")

        monkeypatch.setattr(moments, "solve_backward", no_solve)
        out = tmp_path / "out"
        args = [command, "--scenario", scenario_file, "--dt", "0.005", "--seed", "1",
                "--out", str(out), "--grid", "512"]
        assert main(args + extra) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_jump_rate_too_high_for_dt_exits_one_without_solving(
            self, tmp_path, monkeypatch, capsys, command):
        calls = []

        def counting(spec, N, *args, **kwargs):
            calls.append(N)
            return solve_backward(spec, N, *args, **kwargs)

        for module in (hjb, moments):
            monkeypatch.setattr(module, "solve_backward", counting)
        scenario = tmp_path / "fast_jumps.json"
        scenario.write_text(json.dumps(make_doc(delta=0.5, lam=100.0,
                                                jump={"type": "point", "params": {"z0": 1.0}})))
        out = tmp_path / "out"
        args = [command, "--scenario", str(scenario), "--paths", "1000", "--dt", "0.01",
                "--seed", "1", "--times", "0.5", "--grid", "512", "--out", str(out)]
        assert main(args) == 1
        assert "reduce dt" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command,extra", [
        ("compare", ["--paths", "1000", "--dt", "0.005", "--seed", "1"]),
        ("density", ["--times", "0.5"]),
    ])
    def test_odd_quadrature_exits_one_without_solving(
            self, scenario_file, tmp_path, monkeypatch, command, extra):
        calls = []

        def counting(spec, N, *args, **kwargs):
            calls.append(N)
            return solve_backward(spec, N, *args, **kwargs)

        for module in (hjb, moments):
            monkeypatch.setattr(module, "solve_backward", counting)
        out = tmp_path / "out"
        args = [command, "--scenario", scenario_file, "--quad", "3", "--grid", "512",
                "--out", str(out)]
        assert main(args + extra) == 1
        assert calls == []
        assert not out.exists()


class TestPropagation:
    @pytest.mark.parametrize("command,extra,paths", [
        ("simulate", ["--paths", "1000", "--dt", "0.01", "--seed", "1"], 0),
        ("density", ["--times", "0.5", "--xgrid", "1024", "--quad", "128"], 1),
    ])
    def test_propagates_only_the_paths_it_uses(self, tmp_path, monkeypatch, command, extra, paths):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(PURE_JUMP, initial={"kind": "dirac", "x0": 0.5})))
        calls = []

        def counting(sol, spec, *args, **kwargs):
            calls.append(spec.initial)
            return propagate_moments(sol, spec, *args, **kwargs)

        monkeypatch.setattr(moments, "propagate_moments", counting)
        args = [command, "--scenario", str(scenario), "--grid", "512", "--out", str(tmp_path / "o")]
        assert main(args + extra) == 0
        # density's one path is the scenario's; the evaluator takes its fundamental path
        assert calls == [InitialLaw(kind="dirac", x0=(0.5,), v0=0.0)] * paths
        assert not hasattr(cli, "propagate_moments") and not hasattr(cli, "solve_backward")


class TestForwardPropagations:
    """Full-grid forward ``rk4_linear`` calls per command, at --grid 1024.

    A scenario is propagated forward once: ``compare`` and the density of a
    mean-field scenario reuse the fundamental path of the scenario's solve.
    The mean-field iterations run on a coarser grid and do not count.
    """

    @pytest.mark.parametrize("doc,command,extra,expected", [
        (PURE_JUMP, "solve", [], 1),
        (MEAN_FIELD, "solve", [], 1),
        (PURE_JUMP, "density", ["--times", "0.5", "--xgrid", "256", "--quad", "64"], 1),
        (MEAN_FIELD, "density", ["--times", "0.5", "--xgrid", "256", "--quad", "64"], 1),
        (PURE_JUMP, "compare", ["--paths", "1000", "--dt", "0.01", "--seed", "3", "--quad", "64"], 1),
        (MEAN_FIELD, "compare", ["--paths", "1000", "--dt", "0.01", "--seed", "3", "--quad", "64"], 1),
        (PURE_JUMP, "simulate", ["--paths", "1000", "--dt", "0.01", "--seed", "3"], 0),
    ])
    def test_one_forward_propagation(self, tmp_path, monkeypatch, doc, command, extra, expected):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        forward = []

        def counting(a_half, f_half, y0, yp0, h):
            if h > 0 and len(a_half) == 2 * 1024 + 1:
                forward.append(f_half.shape[1])
            return rk4_linear(a_half, f_half, y0, yp0, h)

        for module in (hjb, moments):
            monkeypatch.setattr(module, "rk4_linear", counting)
        args = [command, "--scenario", str(scenario), "--grid", "1024", "--out", str(tmp_path / "o")]
        assert main(args + extra) in (0, 3)
        assert len(forward) == expected


class TestCompare:
    def test_solves_the_backward_system_once(self, scenario_file, tmp_path, monkeypatch):
        calls = []

        def counting(spec, N, *args, **kwargs):
            calls.append(N)
            return solve_backward(spec, N, *args, **kwargs)

        for module in (hjb, moments):
            monkeypatch.setattr(module, "solve_backward", counting)
        main(["compare", "--scenario", scenario_file, "--paths", "1000", "--dt", "0.01",
              "--seed", "2", "--times", "1.0", "--grid", "512", "--quad", "128",
              "--out", str(tmp_path / "out")])
        assert calls == [512]

    def test_passes_and_is_deterministic(self, scenario_file, tmp_path, monkeypatch):
        args = ["compare", "--scenario", scenario_file, "--paths", "2000", "--dt", "0.005",
                "--seed", "11", "--grid", "512", "--quad", "128"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("MFG_MOMENTS_THREADS", "1")
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("MFG_MOMENTS_THREADS", "4")
        assert main(args + ["--out", str(out2)]) == 0
        assert _digests(out1) == _digests(out2)
        report = json.loads((out1 / "report.json").read_text())
        assert report["passed"] and report["max_abs_z"] <= 4

    def test_multidimensional_compare_needs_no_characteristic_function(self, tmp_path):
        # n > 1 compares E and V only; uniform jumps have an anisotropic second-moment
        # matrix, which the characteristic-function evaluator would reject
        doc = make_doc(n=2, delta=0.5, lam=1.0, x0=[0.2, -0.1],
                       jump={"type": "uniform", "params": {"lo": -0.3, "hi": 0.5}})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["compare", "--scenario", str(f), "--paths", "2000", "--dt", "0.01",
                     "--seed", "4", "--grid", "512", "--out", str(out)]) in (0, 3)
        report = json.loads((out / "report.json").read_text())
        assert {e["quantity"] for e in report["entries"]} == {"E_1", "E_2", "V"}

    def test_biased_discretization_fails_comparison(self, tmp_path):
        # dt at the legality limit leaves an O(dt) bias much larger than se
        doc = make_doc(a=-2.0, A_T=1.0, x0=1.0, delta=1.0)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["compare", "--scenario", str(f), "--paths", "40000", "--dt", "0.01",
                     "--seed", "5", "--times", "1.0", "--grid", "512", "--quad", "64",
                     "--out", str(out)])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]

    def test_refinement_deltas_written(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["compare", "--scenario", scenario_file, "--paths", "1000", "--dt", "0.01",
              "--dt2", "0.005", "--seed", "2", "--times", "1.0", "--grid", "512",
              "--quad", "128", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["dt_refinement"] is not None


class TestMeanFieldScenario:
    """Every command solves a mean-field scenario through the fixed point, as solve does."""

    def test_simulate_and_compare_exit_zero(self, tmp_path):
        f = tmp_path / "mf.json"
        f.write_text(json.dumps(MEAN_FIELD))
        common = ["--scenario", str(f), "--seed", "5", "--grid", "512"]
        assert main(["simulate", *common, "--paths", "2000", "--dt", "0.01", "--times", "0.5,1.0",
                     "--out", str(tmp_path / "sim")]) == 0
        out = tmp_path / "cmp"
        assert main(["compare", *common, "--paths", "4000", "--dt", "0.005", "--quad", "128",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] and report["max_abs_z"] <= 4

    @pytest.mark.parametrize("jumps", [{}, {"lambda": 1.0, "jump": {"type": "point", "params": {"z0": 0.5}}}],
                             ids=["no-jumps", "point-jumps"])
    def test_density_mean_is_the_solved_expectation(self, tmp_path, jumps):
        f = tmp_path / "mf.json"
        f.write_text(json.dumps(dict(MEAN_FIELD, **jumps)))
        main(["solve", "--scenario", str(f), "--out", str(tmp_path / "solve"), "--grid", "512"])
        path = moments_from_csv((tmp_path / "solve" / "moments.csv").read_text())
        out = tmp_path / "density"
        assert main(["density", "--scenario", str(f), "--times", "0.5,1.0", "--out", str(out),
                     "--grid", "512", "--xgrid", "1024", "--quad", "128"]) == 0
        for t, k in ((0.5, 256), (1.0, 512)):
            grid = charfun.DensityGrid.from_csv((out / f"density_t{t:.6f}.csv").read_text())
            assert path.t[k] == t
            assert abs(grid.mean - path.E[k, 0]) < 1e-8


class TestRecover:
    def test_round_trip_through_files(self, tmp_path):
        cf = closed_form_moments_const(1.0, 0.5, 0.1,
                                       {"E0": 1.0, "E0p": 0.3, "V0": 1.0, "V0p": 0.0})
        t = np.linspace(0, 1.08, 50)
        lines = ["t,E,V"]
        for ti in t:
            lines.append(f"{ti:.17g},{float(cf.E_fn(ti)):.17g},{float(cf.V_fn(ti)):.17g}")
        series = tmp_path / "series.csv"
        series.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["recover", "--input", str(series), "--out", str(out)]) == 0
        doc = json.loads((out / "recovered.json").read_text())
        assert doc["branch"] == "oscillatory"
        assert abs(doc["a"] - 1.0) < 1e-6
        assert abs(doc["b"][0] - 0.5) < 1e-6

    VALID = "t,E,V\n" + "".join(f"{i},{1 + 2 * i},1\n" for i in range(10))

    @pytest.mark.parametrize("text,cause", [
        ("", "empty"),
        ("t,E,V\n", "no data rows"),
        (VALID.replace("\n3,7,1\n", "\n3,7\n"), "line 5 has 2 fields"),
        (VALID.replace("\n3,7,1\n", "\n3,x,1\n"), "line 5 holds a value that is not a number"),
        ("t,V\n" + "".join(f"{i},1\n" for i in range(10)), "columns t, E..., V"),
    ], ids=["empty", "header-only", "ragged-row", "non-numeric", "no-E-column"])
    def test_malformed_input_is_a_one_line_validation_error(self, tmp_path, capsys, text, cause):
        series = tmp_path / "series.csv"
        series.write_text(text)
        out = tmp_path / "out"
        assert main(["recover", "--input", str(series), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert cause in err
        assert not out.exists()

    def test_branch_override(self, tmp_path):
        t = np.linspace(0, 2, 30)
        lines = ["t,E,V"] + [f"{ti},{1 + 2 * ti},{1.0}" for ti in t]
        series = tmp_path / "series.csv"
        series.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["recover", "--input", str(series), "--out", str(out),
                     "--branch", "poly"]) == 0
        doc = json.loads((out / "recovered.json").read_text())
        assert doc["branch"] == "polynomial"
        assert abs(doc["a"]) < 1e-12
