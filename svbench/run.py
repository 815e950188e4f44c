"""Run one svkit benchmark workload and print its metrics as one JSON line.

Usage, from the root of a source checkout (svkit is imported from ./src):

    python3 svbench/run.py --workload forced-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median over several fresh processes of the time to import
  svkit and build every job's mesh, coefficient, partition, operator(s) and
  initial interpolant;
* ``wall_s``: median wall time of one round (every job of the workload once);
* ``peak_rss_mib``: peak resident memory of this process.

With ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics plus the tracing overhead.  Every round's outputs are checked; the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  A copy of the result,
with the per-round times, is written to ``svbench/out/``.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported (here and in the
# set-up processes, which inherit the environment): the runs stay one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


def _import_svkit():
    src = Path.cwd() / "src"
    if not (src / "svkit" / "__init__.py").is_file():
        raise SystemExit(f"svbench: no svkit sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import svkit

    return svkit


def setup_probe(workload, seed) -> float:
    """Body of one set-up process: cold import plus every job's construction."""
    start = time.perf_counter()
    sk = _import_svkit()
    workload.build(sk, seed)
    return time.perf_counter() - start


def measure_setup(name, seed) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"svbench: set-up process exited with {done.returncode}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_rounds(sk, workload, seed, budget_s, log, modes=(contextlib.nullcontext,)):
    """Whole cycles of one round per mode until the next cycle would overrun
    ``budget_s`` (at least one cycle); returns each mode's round times.

    Alternating the modes within a cycle exposes the traced and untraced
    rounds to the same drift in machine speed.
    """
    times = [[] for _ in modes]
    elapsed = 0.0
    while not times[0] or elapsed + sum(statistics.fmean(t) for t in times) <= budget_s:
        for mode, mode_times in zip(modes, times):
            with mode():
                start = time.perf_counter()
                outcome = workload.run_round(sk, seed)
                took = time.perf_counter() - start
            mode_times.append(took)
            elapsed += took
            failed, problems = workload.check(sk, outcome)
            log["attempted"] += workload.jobs
            log["failed"] += failed
            log["problems"].extend(problems)
    return times


def layer_metrics(tracer, rounds, wall_s, traced_wall_s):
    spans = tracer.spans

    def per_call(name, scale, own=False):
        span = spans[name]
        total = span.self_s if own else span.total_s
        return total / span.calls * scale if span.calls else 0.0

    steps = spans["timestep.rk4_step"].calls
    metrics = {
        "sv.SVOperator.call.us": (per_call("sv.SVOperator.call", 1e6), "us"),
        "sv.SVOperator.call.self_us": (per_call("sv.SVOperator.call", 1e6, own=True), "us"),
        "sv.SVOperator.calls": (spans["sv.SVOperator.call"].calls // rounds, "count"),
        "timestep.rk4_step.us": (per_call("timestep.rk4_step", 1e6), "us"),
        "timestep.rk4_step.self_us": (per_call("timestep.rk4_step", 1e6, own=True), "us"),
        "timestep.steps": (steps // rounds, "count"),
        "poly.PiecewisePoly.per_step": (tracer.polys_in_steps / steps, "1/step"),
        "cases.source.evals_per_step": (spans["cases.source.eval"].calls / steps, "1/step"),
        "cases.source.eval.us": (per_call("cases.source.eval", 1e6), "us"),
        "dg.DGOperator.call.us": (per_call("dg.DGOperator.call", 1e6), "us"),
        "dg.DGOperator.calls": (spans["dg.DGOperator.call"].calls // rounds, "count"),
        "dg.DGOperator.init.us": (per_call("dg.DGOperator.init", 1e6), "us"),
        "sv.SVOperator.init.us": (per_call("sv.SVOperator.init", 1e6), "us"),
        "mesh.build_partition.us": (per_call("mesh.build_partition", 1e6), "us"),
        "poly.interpolate.us": (per_call("poly.interpolate", 1e6), "us"),
        "metrics.error_report.ms": (per_call("metrics.error_report", 1e3), "ms"),
        "study.run_single.s": (per_call("study.run_single", 1.0), "s"),
        "study.run_study.self_s": (spans["study.run_study"].self_s / rounds, "s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_s": (traced_wall_s - wall_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="mesh jitter seed")
    parser.add_argument("--seconds", type=int, default=30, help="time to spend measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        print(repr(setup_probe(workload, args.seed)))
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    sk = _import_svkit()
    log = {"attempted": 0, "failed": 0, "problems": []}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup}

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        times, traced = run_rounds(sk, workload, args.seed, args.seconds, log,
                                   modes=(contextlib.nullcontext, lambda: tracer.installed(sk)))
        metrics = layer_metrics(tracer, len(traced), statistics.median(times),
                                statistics.median(traced))
        record["traced_round_s"] = traced
    else:
        (times,) = run_rounds(sk, workload, args.seed, args.seconds, log)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
    record["round_s"] = times
    record["problems"] = log["problems"]

    for problem in log["problems"]:
        print(f"svbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not log["problems"],
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": metrics,
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**record, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
