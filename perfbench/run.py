"""Benchmark of mfg_moments: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory.  One client runs ops in sequence (a closed loop): whole passes
over the workload's generated inputs, in a fixed order, until ``S``
seconds have passed.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
over four fresh processes, half started before the timed phase and half
after it, of the time from process start until the inputs are ready
(interpreter start, ``import mfg_moments``, input generation and
``parse_scenario``).  Every timing is reported at a reference host speed
(see ``hostspeed``): a fixed reference computation runs before each op
and each set-up process, and each time is divided by how much slower
than its reference time that computation ran around it.  The reference
suits the work: a single-threaded loop for ``solve_sweep`` and
``density``, the same loop in as many threads as Monte Carlo uses for
``mc_compare``, and a fresh process for set-up and ``cli``.  The wall
times as measured are printed with the metrics.  Every process of a run
uses one OpenBLAS thread (see ``main``), not the default pool of nproc
threads; Monte Carlo uses the library's default worker count.  ``--trace 1`` runs one pass of the
inputs with each op run twice, once untraced and once traced, derives the
per-layer metrics from spans recorded around every call into the package,
and writes the spans to ``.perfbench/`` in the checkout; ``--trace 0``
writes each op's latency and the reference times there.

Every line but the last is for people: the environment record, the
input ranges, one line per failed op and one line per metric with its
unit and sample count.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An op fails when
it raises or misses its correctness check; ``correct`` is false when an
op returned an output outside its acceptance tolerance or raised
something other than the package's ``NumericsError``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("solve_sweep", "density", "mc_compare", "cli")
# The reference computation (see hostspeed) each workload's op times are set
# against, and how many of its samples on each side of an op count.  A cli
# op is a process of about a second, whose speed the nearest samples track
# best.
SPEED_REFERENCE = {"solve_sweep": ("loop", 5), "density": ("loop", 5), "mc_compare": ("pool", 5),
                   "cli": ("process", 1)}
SETUP_SAMPLES = 4
PROBE_SAMPLES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile; the largest value at p=100.

    A weighted mean of all order statistics, with weights from a beta
    distribution centred on rank p*n.  Where the ops near that rank are
    few and far apart in latency, a single order statistic jumps between
    them as they trade places from run to run; this estimate moves
    smoothly.
    """
    import numpy as np
    from scipy.special import betainc   # loaded with the package already

    xs = sorted(values)
    if p >= 100.0:
        return xs[-1]
    n, q = len(xs), p / 100.0
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(np.dot(weights, xs))


def beyond(n: int, p: float) -> int:
    """Number of samples above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(pass_size: int) -> float:
    """Highest ladder percentile with MIN_BEYOND samples beyond it in one pass.

    A run holds whole passes, so the percentile depends only on the
    workload's input set, not on the program's speed.
    """
    for p in TAIL_LADDER:
        if beyond(pass_size, p) >= MIN_BEYOND:
            return p
    return 100.0


# ---------------------------------------------------------------------------
# environment


def environment(workers: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mc_workers": workers,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


# ---------------------------------------------------------------------------
# running ops


def run_op(W, tracer, index: int, op) -> tuple[str, str]:
    """Run one op; return (status, detail).  Status is ok, raised, miss, wrong or error."""
    import mfg_moments as mm

    try:
        with tracer.op(index, op.label):
            op.run(tracer)
        return "ok", ""
    except W.CheckFailed as exc:
        return "wrong", str(exc)
    except W.StatisticalMiss as exc:
        return "miss", str(exc)
    except mm.NumericsError as exc:
        return "raised", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crashing op is reported and the loop goes on
        return "error", f"{type(exc).__name__}: {exc}"


def closed_loop(W, ops, tracer, seconds: float, speed) -> tuple[list[tuple], float]:
    """Run whole passes over the ops, in order, until `seconds` have passed.

    Stopping only at the end of a pass keeps the mix of ops the same in
    every run, whatever the seed and however fast the program is.  The
    reference computation of ``speed`` runs before each op and after the
    last; its time is not in the returned wall time.
    """
    records = []
    wall = 0.0
    while True:
        for op in ops:
            speed.sample()
            start = time.perf_counter()
            status, detail = run_op(W, tracer, len(records), op)
            latency = time.perf_counter() - start
            wall += latency
            records.append((op, status, latency, detail))
        if wall >= seconds:
            speed.sample()
            return records, wall


def paired_pass(W, ops, tracer) -> tuple[list[tuple], float]:
    """Run each op once untraced and once traced; return the traced records and
    the traced minus the untraced time.

    Which of the two runs first alternates from op to op, so that the first,
    colder call of each kind does not all fall on one side.
    """
    from tracer import Tracer

    quiet = Tracer(False)
    records, overhead = [], 0.0
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            status, detail = run_op(W, tracer if traced else quiet, i, op)
            latency = time.perf_counter() - start
            if traced:
                records.append((op, status, latency, detail))
                overhead += latency
            else:
                overhead -= latency
    return records, overhead


def measure_setup(workload: str, seed: int, tiny: bool, samples: int, speed) -> list[float]:
    """Seconds from spawning a fresh process until its inputs are ready.

    The reference computation of ``speed`` runs before each process; the
    caller runs it once more after the last process of the run.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(samples):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit code {code})")
        times.append(elapsed)
    return times


def probe_seconds(code: str, env: dict, samples: int) -> float:
    """Median wall time of a fresh ``python -c code``."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics


def timings(records, setup: list[float], factors: list[float], setup_factors: list[float],
            pass_size: int) -> dict:
    """The timed metrics from latencies and set-up times, each divided by its factor.

    A failed op counts as the slowest op of the run in the percentiles.
    """
    slowest = max(lat / f for (_, _, lat, _), f in zip(records, factors))
    latencies = [lat / f if status == "ok" else slowest
                 for (_, status, lat, _), f in zip(records, factors)]
    busy = sum(lat / f for (_, _, lat, _), f in zip(records, factors))
    ok = sum(1 for _, status, _, _ in records if status == "ok")
    return {
        "setup_s": statistics.median(s / f for s, f in zip(setup, setup_factors)),
        "ops_per_s": ok / busy,
        "op_p50_s": percentile(latencies, 50.0),
        "op_tail_s": percentile(latencies, tail_percentile(pass_size)),
    }


def end_to_end(workload: str, records, wall: float, pass_size: int, setup: list[float],
               rss_mib: float, speed, setup_speed) -> tuple[dict, dict]:
    """End-to-end metrics and, for people, the sample count behind each.

    Timings are at reference host speed; the notes give them as measured.
    """
    n = len(records)
    ok = sum(1 for _, status, _, _ in records if status == "ok")
    p_tail = tail_percentile(pass_size)
    factors = [speed.factor(k) for k in range(n)]
    setup_factors = [setup_speed.factor(k) for k in range(len(setup))]
    at_ref = timings(records, setup, factors, setup_factors, pass_size)
    raw = timings(records, setup, [1.0] * n, [1.0] * len(setup), pass_size)
    units = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_s": "s", "op_tail_s": "s"}
    metrics = {name: (value, units[name]) for name, value in at_ref.items()}
    metrics["peak_rss_mb"] = (rss_mib, "MiB")
    slow = f"host {speed.overall():.3f}x {speed.reference} reference time"
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, host {setup_speed.overall():.3f}x "
                   f"process reference time; as measured {raw['setup_s']:.6g} s: "
                   + " ".join(f"{t:.3f}" for t in setup),
        "ops_per_s": f"{ok} ops succeeded in {wall:.3f} s; {slow}; as measured "
                     f"{raw['ops_per_s']:.6g} op/s",
        "op_p50_s": f"n={n}; as measured {raw['op_p50_s']:.6g} s",
        "op_tail_s": f"p{p_tail:g}, n={n}, {beyond(n, p_tail)} samples beyond; as measured "
                     f"{raw['op_tail_s']:.6g} s",
        "peak_rss_mb": "largest subprocess (os.wait4)" if workload == "cli" else "this process",
        "error_rate": f"{n - ok} of {n} ops failed",
    }
    return metrics, notes


def per_layer(W, tracer, overhead: float, speedup: float, interp: float, imp: float) -> dict:
    st = tracer.self_times()
    counters, peaks = tracer.counters, tracer.peaks

    def busy(name):
        return st.get(name, 0.0)

    def calls(name):
        return len(tracer.durations(name))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def median_of(name):
        d = tracer.durations(name)
        return statistics.median(d) if d else 0.0

    direct, moment = busy("charfun.eval_fundamental_charfun"), busy("charfun.eval_charfun_via_moments")
    return {
        "model.parse_s": (busy("model.parse_scenario"), "s"),
        "hjb.solve_backward_s": (busy("hjb.solve_backward"), "s"),
        "hjb.solve_backward_calls": (calls("hjb.solve_backward"), "count"),
        "hjb.grid_nodes_per_s": (rate(counters["hjb.grid_nodes"], busy("hjb.solve_backward")), "node/s"),
        "hjb.check_conditions_s": (busy("hjb.check_conditions"), "s"),
        "moments.propagate_s": (busy("moments.propagate_moments"), "s"),
        "moments.propagate_calls": (calls("moments.propagate_moments"), "count"),
        "moments.meanfield_s": (busy("moments.solve_meanfield_fixedpoint"), "s"),
        "moments.meanfield_iterations": (counters["moments.meanfield_iterations"], "count"),
        "moments.meanfield_failed": (counters["moments.meanfield_failed"], "count"),
        "moments.worst_residual_ratio": (peaks.get("moments.worst_residual", 0.0) / W.TOL, "ratio"),
        "charfun.evaluator_s": (busy("charfun.CharFunEvaluator"), "s"),
        "charfun.density_s": (busy("charfun.invert_density"), "s"),
        "charfun.density_calls": (calls("charfun.invert_density"), "count"),
        "charfun.density_lam0_s": (sum(tracer.durations("charfun.invert_density", lam0=True)), "s"),
        "charfun.density_jump_s": (sum(tracer.durations("charfun.invert_density", lam0=False)), "s"),
        "charfun.direct_s": (direct, "s"),
        "charfun.moment_form_s": (moment, "s"),
        "charfun.omegas": (counters["charfun.omegas"], "count"),
        "charfun.omegas_per_s": (rate(counters["charfun.omegas"], direct + moment), "1/s"),
        "charfun.worst_gap_ratio": (peaks.get("charfun.worst_gap", 0.0) / W.TOL, "ratio"),
        "mc.simulate_s": (busy("mc.simulate_paths"), "s"),
        "mc.path_steps": (counters["mc.path_steps"], "count"),
        "mc.path_steps_per_s": (rate(counters["mc.path_steps"], busy("mc.simulate_paths")), "1/s"),
        "mc.jump_events": (counters["mc.jump_events"], "count"),
        "mc.rss_growth_mb": (counters["mc.rss_growth_kib"] / 1024.0, "MiB"),
        "mc.thread_speedup": (speedup, "ratio"),
        "mc.compare_s": (busy("mc.compare_report"), "s"),
        "mc.worst_abs_z": (peaks.get("mc.worst_abs_z", 0.0), "ratio"),
        "recover.fit_s": (busy("recover.fit_parameters"), "s"),
        "recover.fits": (counters["recover.fits"], "count"),
        "recover.worst_error": (peaks.get("recover.worst_error", 0.0), "coef"),
        "cli.interpreter_s": (interp, "s"),
        "cli.import_s": (imp, "s"),
        "cli.validate_s": (median_of("cli.validate"), "s"),
        "cli.solve_s": (median_of("cli.solve"), "s"),
        "cli.density_s": (median_of("cli.density"), "s"),
        "cli.recover_s": (median_of("cli.recover"), "s"),
        "cli.simulate_s": (median_of("cli.simulate"), "s"),
        "cli.bytes_written": (counters["cli.bytes_written"], "byte"),
        "trace.overhead_s": (overhead, "s"),
    }


def layer_self_times(tracer) -> dict[str, float]:
    """Self time per layer (module); ``op`` is the benchmark's own work in an op."""
    out: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


# ---------------------------------------------------------------------------
# the run


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        emit=print) -> dict:
    """Run one workload and return the result object printed as the last line."""
    import workloads as W
    from hostspeed import SpeedLog
    from mfg_moments.mc import worker_count
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    wl = W.BUILDERS[workload](seed, tiny, OUT_DIR / f"{workload}-{os.getpid()}")
    probes = 1 if tiny else PROBE_SAMPLES
    try:
        emit("env " + json.dumps(environment(worker_count())))
        emit("inputs " + json.dumps({"workload": workload, "seed": seed, "ops_per_pass": len(wl.ops),
                                     "reasons": wl.reasons, "templates": wl.templates}))
        if trace:
            tracer = Tracer(True)
            records, overhead = paired_pass(W, wl.ops, tracer)
            speedup = 0.0
            if workload == "mc_compare":
                speedup = W.thread_speedup(wl.ops, len(os.sched_getaffinity(0)))
            env = W.child_env(SRC)
            interp = probe_seconds("pass", env, probes)
            imp = probe_seconds("import mfg_moments", env, probes)
            metrics, notes = per_layer(W, tracer, overhead, speedup, interp, imp), {}
            self_s = layer_self_times(tracer)
            trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
            trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                              "layer_self_s": self_s, **tracer.to_dict()}))
            emit(f"trace {trace_file} ({len(tracer.spans)} spans)")
            for layer, s in sorted(self_s.items()):
                emit(f"  self time {layer:<10} {s:.6f} s")
        else:
            # Half the set-up samples before the timed phase and half after, so
            # that they see the host as the ops do, early and late in the run.
            half = 1 if tiny else SETUP_SAMPLES // 2
            # Set-up processes are few and each is set against the nearest
            # references only.
            speed, setup_speed = SpeedLog(*SPEED_REFERENCE[workload]), SpeedLog("process", window=1)
            setup = measure_setup(workload, seed, tiny, half, setup_speed)
            records, wall = closed_loop(W, wl.ops, Tracer(False), seconds, speed)
            if wl.child_rss_kib:
                rss_mib = max(wl.child_rss_kib) / 1024.0
            else:
                rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup += measure_setup(workload, seed, tiny, half, setup_speed)
            setup_speed.sample()
            metrics, notes = end_to_end(workload, records, wall, len(wl.ops), setup, rss_mib,
                                        speed, setup_speed)
            ops_file = OUT_DIR / f"ops-{workload}-seed{seed}.json"
            ops_file.write_text(json.dumps({
                "workload": workload, "seed": seed,
                "ops": [{"label": op.label, "status": status, "latency_s": lat}
                        for op, status, lat, _ in records],
                "speed": {"reference": speed.reference, "samples": speed.samples},
                "setup_s": setup, "setup_speed": setup_speed.samples}))
            emit(f"op record {ops_file}")
    finally:
        wl.cleanup()

    failed = [r for r in records if r[1] != "ok"]
    for i, (op, status, lat, detail) in enumerate(records):
        if status != "ok":
            emit(f"FAIL op={i} {op.label} {status}: {detail}")
    if not trace:
        emit(f"  {'error_rate':<30} {len(failed) / len(records):.6f} ratio ({notes['error_rate']})")
    for name, (value, unit) in metrics.items():
        emit(f"  {name:<30} {value:.9g} {unit}" + (f" ({notes[name]})" if notes.get(name) else ""))
    return {
        "correct": not any(r[1] in ("wrong", "error") for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mfg_moments" / "__init__.py").is_file():
        print(f"error: {SRC / 'mfg_moments'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MFG_MOMENTS_THREADS", None)   # the library's default worker count
    # numpy and scipy each start an OpenBLAS pool of nproc-1 spinning threads;
    # on a 2-CPU machine they contend with the op's own thread and split runs
    # into a fast and a slow mode 20% apart.  Set before numpy is imported;
    # subprocesses inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    if args.setup_only:
        import workloads as W

        wl = W.BUILDERS[args.workload](args.seed, args.tiny, OUT_DIR / f"setup-{os.getpid()}")
        print("ready", flush=True)
        wl.cleanup()
        return 0

    import mfg_moments

    if Path(mfg_moments.__file__).resolve().parent != SRC / "mfg_moments":
        print(f"error: imported {mfg_moments.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
