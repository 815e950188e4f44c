"""Measure alternating base/change pairs of svkit processes and write BENCH_<label>.json.

Usage, from anywhere inside a git checkout of svkit:

    python3 scripts/bench_pairs.py --label large_n_kernels --base afff0be --head HEAD \\
        --workload fine-forced --seeds 501-510 --kind run

Both commits are exported with ``git archive`` into one temporary directory
each, so each side runs from its committed files only, as the benchmark
itself does.  Each seed makes one pair: one process per side, the base first
when the pair's index is even and the change first when it is odd.  What one
process measures is the ``--kind``:

* ``run``: ``svbench/run.py --trace 0`` for the run length the benchmark
  sets, with the end-to-end metrics;
* ``trace``: ``svbench/run.py --trace 1``, with the per-layer metrics;
* ``setup``: one ``svbench/run.py --setup-probe`` process, a cold import of
  svkit and the construction of every job of the workload, the body of one
  ``setup_s`` sample.  Whole runs put minutes between the two sides of a
  pair, and the machine's speed drifts over that span; probes put seconds
  between them;
* ``rounds``: this script's hidden ``--worker`` entry, which imports its
  side's svkit and ``svbench/workloads.py`` and runs ``ROUNDS`` rounds of the
  workload in-process (``run_round``, then ``check``).  It records per round
  the wall time, the process CPU time and the minor page faults
  (``resource.getrusage``), and reads the process by the median of its steady
  rounds (those after the first ``WARMUP``) and its peak RSS.  Counts of
  faults are steady where times are not, so a change in the heap's behaviour
  shows here below what pairs of whole runs resolve.

Every process runs with the BLAS pools pinned to one thread, as
``svbench/run.py`` pins its own, and every kind yields a record of one shape:
``correct``, ``attempted``, ``failed`` and ``metrics``.

The results go into ``BENCH_<label>.json`` at the top of the checkout, under
the key ``<workload>`` plus the kind's suffix in ``KINDS`` (for example
``fine-forced --fault-rounds``), so one file can hold several workloads and
kinds measured between the same two commits; a second run for a key adds its
pairs to those already there.  Each entry holds every record, per side the
processes whose checks passed and the jobs attempted and failed, and per
metric each side's median, quartiles and range, the change's wins (ties count
for neither side) and the relative change of the medians.  For an end-to-end
metric it also states whether the change stays within the benchmark's bound,
and whether it shows a gain: at least nine wins in ten and a drop in medians
larger than the base's interquartile range.  Both verdicts are false when a
process of the change fails its checks or fails a larger share of its jobs
than the base process of its pair.  The file is rewritten after every pair,
so an interrupted session keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN_TIMEOUT_S = 1800
KINDS = {"run": "", "trace": " --trace 1", "setup": " --setup-probe", "rounds": " --fault-rounds"}
ROUNDS = 5
WARMUP = 2
ROUND_METRICS = {"minflt": "count", "cpu_s": "s", "wall_s": "s"}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SIDES = ("base", "head")


def _git(*args: str, cwd: Path) -> str:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _export(top: Path, commit: str, dest: Path) -> None:
    """Write the committed files of ``commit`` into the empty directory ``dest``."""
    archive = subprocess.run(["git", "archive", commit], cwd=top, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _parse_seeds(text: str) -> list[int]:
    """'501-510' or '501,503,507' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _steady(rounds: list[dict], peak_mib: float, warmup: int = WARMUP) -> dict:
    """Metrics of one rounds process: the median of each round metric after ``warmup`` rounds, and the peak RSS."""
    metrics = {name: {"value": statistics.median(r[name] for r in rounds[warmup:]), "unit": unit}
               for name, unit in ROUND_METRICS.items()}
    metrics["peak_rss_mib"] = {"value": peak_mib, "unit": "MiB"}
    return metrics


def _worker(workload_name: str, seed: int) -> dict:
    """Body of one rounds process, run from the top of a checkout: ``ROUNDS`` rounds of the workload."""
    sys.path[:0] = [str(Path.cwd() / "svbench"), str(Path.cwd() / "src")]
    import svkit
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    rounds, failed, problems = [], 0, []
    for _ in range(ROUNDS):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        outcome = workload.run_round(svkit, seed)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        round_failed, found = workload.check(svkit, outcome)
        failed += round_failed
        problems.extend(found)
        rounds.append({"wall_s": wall,
                       "cpu_s": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
                       "minflt": after.ru_minflt - before.ru_minflt})
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"correct": not problems, "attempted": ROUNDS * workload.jobs, "failed": failed,
            "problems": problems, "rounds": rounds, "metrics": _steady(rounds, peak_mib)}


def _measure(checkout: Path, kind: str, workload: str, seed: int) -> dict:
    """One process of ``kind`` in ``checkout``; returns its record."""
    if kind == "rounds":
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker"]
    elif kind == "setup":
        cmd = [sys.executable, "svbench/run.py", "--setup-probe"]
    else:
        cmd = [sys.executable, "svbench/run.py", "--trace", str(int(kind == "trace"))]
    cmd += ["--workload", workload, "--seed", str(seed)]  # the worker reads it as --seeds
    env = {**os.environ, **dict.fromkeys(_THREAD_VARS, "1")}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} exited with {done.returncode} in {checkout}")
    last = done.stdout.splitlines()[-1]
    if kind == "setup":
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"setup_s": {"value": float(last), "unit": "s"}}}
    if kind == "rounds":
        return json.loads(last)
    out_file = checkout / "svbench" / "out" / f"{workload}-seed{seed}-trace{int(kind == 'trace')}.json"
    return json.loads(out_file.read_text(encoding="utf-8"))


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "runs": len(values)}


def _checks(pairs: list[dict]) -> dict:
    """Per side the correct processes and the jobs attempted and failed; whether the change is sound.

    The change is sound when every process of it is correct and none fails a
    larger share of its jobs than the base process of its pair.
    """
    checks = {side: {"correct_runs": sum(bool(p[side]["correct"]) for p in pairs),
                     "attempted": sum(p[side]["attempted"] for p in pairs),
                     "failed": sum(p[side]["failed"] for p in pairs)}
              for side in SIDES}
    checks["head_fails_more"] = sum(
        p["head"]["failed"] * p["base"]["attempted"] > p["base"]["failed"] * p["head"]["attempted"]
        for p in pairs)
    checks["head_sound"] = (checks["head"]["correct_runs"] == len(pairs)
                            and checks["head_fails_more"] == 0)
    return checks


def _summary(pairs: list[dict], declared: dict, head_sound: bool) -> dict:
    """Per metric: both sides' spread, the change's wins and ties, the relative change of the medians and the verdicts."""
    summary = {}
    for name, first in pairs[0]["base"]["metrics"].items():
        better, bound = declared.get(name, ("lower", None))
        sign = 1.0 if better == "lower" else -1.0
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        b, h = _spread(base), _spread(head)
        entry = {"unit": first["unit"], "better": better, "base": b, "head": h,
                 "head_wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
                 "ties": sum(y == x for x, y in zip(base, head)),
                 "median_change": (h["median"] - b["median"]) / b["median"] if b["median"] else None,
                 "pairs": len(pairs)}
        if bound is not None:
            entry["bound"] = bound
            entry["within_bound"] = head_sound and sign * entry["median_change"] <= bound
            entry["gain_shown"] = (head_sound and entry["head_wins"] >= 0.9 * len(pairs)
                                   and sign * (b["median"] - h["median"]) > b["q3"] - b["q1"])
        summary[name] = entry
    return summary


def _group(workload: str, kind: str, pairs: list[dict], declared: dict) -> dict:
    """One BENCH file entry: the pairs, the run lengths their records report, checks and summary."""
    checks = _checks(pairs)
    return {"workload": workload, "kind": kind,
            "seconds": sorted({p[side]["seconds"] for p in pairs for side in SIDES
                               if "seconds" in p[side]}),
            "pairs": pairs, "checks": checks,
            "summary": _summary(pairs, declared, checks["head_sound"])}


def _bench_doc(top: Path, label: str, commits: dict) -> tuple[Path, dict]:
    """``BENCH_<label>.json`` and its contents, new or as written, for the two commits."""
    bench_file = top / f"BENCH_{label}.json"
    if bench_file.exists():
        doc = json.loads(bench_file.read_text(encoding="utf-8"))
        if (doc["base_commit"], doc["head_commit"]) != (commits["base"], commits["head"]):
            raise SystemExit(f"{bench_file.name} compares other commits")
    else:
        doc = {"label": label, "base_commit": commits["base"], "head_commit": commits["head"],
               "cpu_count": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "machine": platform.machine(), "groups": {}}
    return bench_file, doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", help="file name part: BENCH_<label>.json")
    parser.add_argument("--base", help="parent commit")
    parser.add_argument("--head", default="HEAD", help="changed commit (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_parse_seeds, help="e.g. 501-510")
    parser.add_argument("--kind", choices=KINDS, default="run")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        for seed in args.seeds:
            print(json.dumps(_worker(args.workload, seed)))
        return 0
    if not args.label or not args.base:
        parser.error("--label and --base are required")

    top = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=top)
               for side, rev in (("base", args.base), ("head", args.head))}
    bench_file, doc = _bench_doc(top, args.label, commits)
    key = args.workload + KINDS[args.kind]

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, checkout in checkouts.items():
            checkout.mkdir()
            _export(top, commits[side], checkout)
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {m["name"]: (m["better"], m.get("bound"))
                    for m in spec["end_to_end"] + spec["per_layer"]}

        pairs = doc["groups"].get(key, {}).get("pairs", [])
        for seed in args.seeds:
            order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = _measure(checkouts[side], args.kind, args.workload, seed)
            pairs.append(pair)
            doc["groups"][key] = _group(args.workload, args.kind, pairs, declared)
            bench_file.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"pair {len(pairs)} seed {seed} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
