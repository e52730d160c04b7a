"""Command-line pipeline: validate, solve, density, simulate, compare, recover.

Every command writes its declared outputs plus a manifest.json carrying the
resolved scenario, the numeric parameters, the tool version and a sha256
digest per output file.  Outputs are deterministic: identical invocations
produce byte-identical files regardless of worker count.

Exit codes: 0 success, 1 validation error, 2 numerical error, 3 statistical
comparison failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericsError, ScenarioError
from .hjb import hjb_to_csv
from .model import parse_scenario, serialize_scenario
from .moments import moments_to_csv, solve_scenario, solve_scenario_backward
from .table import write_table

# charfun, mc and recover are imported by the commands that use them, so that
# validate and solve do not pay for loading them.

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_NUMERICS = 2
_EXIT_COMPARISON = 3
_EXIT_USAGE = 64

_BRANCH_NAMES = {"auto": None, "osc": "oscillatory", "exp": "exponential", "poly": "polynomial"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


class _OutputWriter:
    """Writes output files and accumulates their digests for the manifest."""

    def __init__(self, out_dir: str):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.written: list[dict] = []

    def write(self, name: str, text: str) -> None:
        data = text.encode()
        (self.dir / name).write_bytes(data)
        self.written.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})

    def manifest(self, command: str, scenario: dict | None, params: dict) -> None:
        doc = {
            "command": command,
            "version": __version__,
            "scenario": scenario,
            "params": params,
            "outputs": self.written,
        }
        self.write("manifest.json", _json_dumps(doc))


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {what} file {path}: {exc}") from None


def _parse_times(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ScenarioError(f"invalid time list {text!r}") from None


def _cmd_validate(args) -> int:
    spec = parse_scenario(_read_text(args.scenario, "scenario"))
    print(f"OK: dimension={spec.n} T={spec.T} delta={spec.delta} lambda={spec.lam}")
    return _EXIT_OK


def _cmd_solve(args) -> int:
    spec = parse_scenario(_read_text(args.scenario, "scenario"))
    sol, path = solve_scenario(spec, args.grid)
    out = _OutputWriter(args.out)
    out.write("hjb.csv", hjb_to_csv(sol))
    out.write("moments.csv", moments_to_csv(path))
    out.manifest("solve", serialize_scenario(spec), {"N": args.grid})
    return _EXIT_OK


def _cmd_density(args) -> int:
    from .charfun import CharFunEvaluator, check_quad_nodes

    spec = parse_scenario(_read_text(args.scenario, "scenario"))
    times = _parse_times(args.times)
    if not times:
        raise ScenarioError("density: at least one time is required")
    check_quad_nodes(args.quad)
    ev = CharFunEvaluator.from_scenario(spec, N=args.grid, M=args.quad)
    # Every density is computed before --out is created, so a bad time or
    # grid leaves no partial output behind.
    grids = [ev.invert_density(t, n_x=args.xgrid) for t in times]
    out = _OutputWriter(args.out)
    for t, grid in zip(times, grids):
        out.write(f"density_t{t:.6f}.csv", grid.to_csv())
    out.manifest(
        "density",
        serialize_scenario(spec),
        {"N": args.grid, "M": args.quad, "N_x": args.xgrid, "times": list(times)},
    )
    return _EXIT_OK


def _cmd_simulate(args) -> int:
    from .mc import SimConfig, endpoints_to_csv, sim_to_csv, simulate_paths

    spec = parse_scenario(_read_text(args.scenario, "scenario"))
    cfg = SimConfig(
        n_paths=args.paths,
        dt=args.dt,
        seed=args.seed,
        record_times=_parse_times(args.times),
        keep_endpoints=args.dump_endpoints,
    )
    cfg.validate(spec)
    sol = solve_scenario_backward(spec, args.grid)
    result = simulate_paths(spec, sol, cfg)
    out = _OutputWriter(args.out)
    out.write("sim.csv", sim_to_csv(result))
    if args.dump_endpoints:
        out.write("endpoints.csv", endpoints_to_csv(result))
    out.manifest(
        "simulate",
        serialize_scenario(spec),
        {"N": args.grid, "n_paths": args.paths, "dt": args.dt, "seed": args.seed,
         "times": list(cfg.record_times)},
    )
    return _EXIT_OK


def _cmd_compare(args) -> int:
    from .charfun import CharFunEvaluator, check_quad_nodes
    from .mc import SimConfig, compare_report, sim_to_csv, simulate_paths

    spec = parse_scenario(_read_text(args.scenario, "scenario"))
    times = _parse_times(args.times) if args.times else (spec.T / 2, spec.T)
    omegas = _parse_times(args.omegas) if args.omegas else (0.5, 1.0, 2.0)
    if spec.n != 1:
        omegas = ()
    cfg = SimConfig(n_paths=args.paths, dt=args.dt, seed=args.seed, record_times=times)
    cfg.validate(spec)
    cfg2 = None
    if args.dt2 is not None:
        cfg2 = SimConfig(n_paths=args.paths, dt=args.dt2, seed=args.seed, record_times=times)
        cfg2.validate(spec)
    check_quad_nodes(args.quad)
    sol, path = solve_scenario(spec, args.grid)
    ev = CharFunEvaluator(spec, sol, path.fundamental, M=args.quad) if omegas else None
    result = simulate_paths(spec, sol, cfg)
    refined = None if cfg2 is None else simulate_paths(spec, sol, cfg2)
    report = compare_report(path, ev, result, omegas=omegas, sim_refined=refined)

    out = _OutputWriter(args.out)
    out.write("report.json", _json_dumps(report.to_dict()))
    out.write("sim.csv", sim_to_csv(result))
    if omegas:
        vals = [np.atleast_1d(ev.eval_solution_charfun(t, np.asarray(omegas))) for t in times]
        sweep = [np.column_stack([omegas, v.real, v.imag]) for v in vals]
        out.write("charfun.csv", write_table(["omega", "re", "im"], np.vstack(sweep)))
    out.manifest(
        "compare",
        serialize_scenario(spec),
        {"N": args.grid, "M": args.quad, "n_paths": args.paths, "dt": args.dt,
         "dt2": args.dt2, "seed": args.seed, "times": list(times), "omegas": list(omegas)},
    )
    return _EXIT_OK if report.passed else _EXIT_COMPARISON


def _cmd_recover(args) -> int:
    from .recover import evaluate_fit, fit_parameters, series_from_csv

    series = series_from_csv(_read_text(args.input, "input"))
    params = fit_parameters(series, branch=_BRANCH_NAMES[args.branch])
    diag = evaluate_fit(params, series)
    out = _OutputWriter(args.out)
    doc = params.to_dict()
    doc["max_deviation_E"] = diag.max_deviation_E
    doc["max_deviation_V"] = diag.max_deviation_V
    out.write("recovered.json", _json_dumps(doc))
    out.manifest("recover", None, {"input": args.input, "branch": args.branch})
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfg-moments", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check a scenario document")
    p.add_argument("--scenario", required=True)

    p = add("solve", _cmd_solve, help="backward coefficients and forward moments")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=4096)

    p = add("density", _cmd_density, help="density snapshots by Fourier inversion")
    p.add_argument("--scenario", required=True)
    p.add_argument("--times", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--xgrid", type=int, default=4096)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--quad", type=int, default=512)

    p = add("simulate", _cmd_simulate, help="Monte Carlo moment estimates")
    p.add_argument("--scenario", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--times", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--dump-endpoints", action="store_true")

    p = add("compare", _cmd_compare, help="solve + simulate + z-score report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--times", default="")
    p.add_argument("--omegas", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--quad", type=int, default=512)
    p.add_argument("--dt2", type=float, default=None)

    p = add("recover", _cmd_recover, help="fit cost parameters from observations")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--branch", choices=sorted(_BRANCH_NAMES), default="auto")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICS
    except OSError as exc:
        print(f"i/o error: {getattr(exc, 'filename', '')}: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
