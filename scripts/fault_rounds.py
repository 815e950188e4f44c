"""Count page faults, CPU and wall time of benchmark rounds in alternating processes of two commits.

Usage, from anywhere inside a git checkout of svkit:

    python3 scripts/fault_rounds.py --label steady_sources --base 144c1b5 --head HEAD \\
        --workload fine-forced --seed 91

Both commits are exported with ``git archive``, as ``scripts/bench_pairs.py``
does, and ``PROCESSES`` processes run per side, process i running the base
first when i is even and the change first when i is odd.  Each process imports
its side's svkit and ``svbench/workloads.py``, runs ``ROUNDS`` rounds of the
workload in-process (``run_round``, then ``check``) with the BLAS pools pinned
to one thread, as ``svbench/run.py`` does, and records per round the wall
time, the process CPU time and the minor page faults (``resource.getrusage``),
and its peak RSS.
Counts of faults are steady where times are not, so a change in the heap's
behaviour shows here below what pairs of whole benchmark runs resolve.

The processes go into ``BENCH_<label>.json`` under the key
``<workload> --fault-rounds``, next to any groups of ``bench_pairs.py``
between the same two commits.  The summary reads each process by the median
of its steady rounds, the rounds after the first ``WARMUP``, and its peak
RSS.  Per metric it gives each side's median, quartiles and range over the
processes, the change's wins over the process pairs (ties count for neither
side) and the relative change of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import RUN_TIMEOUT_S, _bench_doc, _export, _git, _verdict

PROCESSES = 10
ROUNDS = 5
WARMUP = 2
ROUND_METRICS = ("minflt", "cpu_s", "wall_s")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker(workload_name: str, seed: int) -> dict:
    """Body of one process, run from the top of a checkout: ``ROUNDS`` rounds of the workload."""
    sys.path[:0] = [str(Path.cwd() / "svbench"), str(Path.cwd() / "src")]
    import svkit
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    records, problems = [], 0
    for _ in range(ROUNDS):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        outcome = workload.run_round(svkit, seed)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        failed, found = workload.check(svkit, outcome)
        problems += failed + len(found)
        records.append({"wall_s": wall,
                        "cpu_s": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
                        "minflt": after.ru_minflt - before.ru_minflt})
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rounds": records, "peak_rss_mib": peak_mib, "correct": problems == 0}


def _process(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", workload,
           "--seed", str(seed)]
    env = {**os.environ, **dict.fromkeys(_THREAD_VARS, "1")}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"fault_rounds: {' '.join(cmd)} exited with {done.returncode} in {checkout}")
    return json.loads(done.stdout.splitlines()[-1])


def _steady(record: dict, metric: str, warmup: int) -> float:
    if metric == "peak_rss_mib":
        return record[metric]
    return statistics.median(r[metric] for r in record["rounds"][warmup:])


def _group(workload: str, seed: int, warmup: int, processes: list[dict]) -> dict:
    """One BENCH file entry: every process's rounds and, per metric, the verdict over processes."""
    summary = {}
    for metric in ROUND_METRICS + ("peak_rss_mib",):
        summary[metric] = {**_verdict([_steady(p["base"], metric, warmup) for p in processes],
                                      [_steady(p["head"], metric, warmup) for p in processes]),
                           "processes": len(processes)}
    correct = {side: sum(p[side]["correct"] for p in processes) for side in ("base", "head")}
    return {"workload": workload, "seed": seed, "warmup": warmup, "correct_processes": correct,
            "processes": processes, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", help="file name part: BENCH_<label>.json")
    parser.add_argument("--base", help="parent commit")
    parser.add_argument("--head", default="HEAD", help="changed commit (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=91)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.workload, args.seed)))
        return 0
    if not args.label or not args.base:
        parser.error("--label and --base are required")

    top = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=top)
               for side, rev in (("base", args.base), ("head", args.head))}
    bench_file, doc = _bench_doc(top, args.label, commits)
    key = f"{args.workload} --fault-rounds"

    with tempfile.TemporaryDirectory(prefix="fault_rounds-") as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, checkout in checkouts.items():
            checkout.mkdir()
            _export(top, commits[side], checkout)
        processes = []
        for _ in range(PROCESSES):
            order = ("base", "head") if len(processes) % 2 == 0 else ("head", "base")
            process = {"order": list(order)}
            for side in order:
                process[side] = _process(checkouts[side], args.workload, args.seed)
            processes.append(process)
            print(f"process pair {len(processes)} done", file=sys.stderr)
        doc["groups"][key] = _group(args.workload, args.seed, WARMUP, processes)
        bench_file.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
