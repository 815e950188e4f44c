"""Run alternating base/change pairs of the benchmark and write BENCH_<label>.json.

Usage, from anywhere inside a git checkout of svkit:

    python3 scripts/bench_pairs.py --label large_n_kernels --base afff0be --head HEAD \\
        --workload fine-forced --seeds 501-510 --trace 0

Both commits are exported with ``git archive`` into one temporary directory
each, so each side runs ``svbench/run.py`` from its committed files only, as
the benchmark itself does, for the run length the benchmark sets.  Pair i
runs the base first when i is even and the change first when i is odd.

The results go into ``BENCH_<label>.json`` at the top of the checkout, under
the key ``<workload>`` (``<workload> --trace 1`` for traced runs), so one
file can hold several workloads measured between the same two commits; a
second run for a key adds its pairs to those already there.  Each entry holds
every run record (the benchmark's own JSON record, with its round times and
run length), per side the runs whose checks passed and the jobs attempted and
failed, and per metric each side's median, quartiles and range, the change's
wins (ties count for neither side) and the relative change of the medians.  For an
end-to-end metric it also states whether the change stays within the
benchmark's bound, and whether it shows a gain: at least nine wins in ten and
a drop in medians larger than the base's interquartile range.  Both verdicts
are false when a run of the change fails its checks or fails a larger share
of its jobs than the base run of its pair.  The file is rewritten after every
pair, so an interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 1800


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


def _run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark process; returns its full record from ``svbench/out/``."""
    cmd = [sys.executable, "svbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} exited with {done.returncode} in {checkout}")
    out_file = checkout / "svbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out_file.read_text(encoding="utf-8"))


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "runs": len(values)}


def _verdict(base: list[float], head: list[float], sign: float = 1.0) -> dict:
    """Both sides' spread, the change's wins and ties over the pairs, the relative change of the medians.

    ``sign`` is 1 for a metric where lower is better and -1 where higher is.
    """
    b, h = _spread(base), _spread(head)
    return {"base": b, "head": h,
            "head_wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
            "ties": sum(y == x for x, y in zip(base, head)),
            "median_change": (h["median"] - b["median"]) / b["median"] if b["median"] else None}


def _checks(pairs: list[dict]) -> dict:
    """Per side the correct runs and the jobs attempted and failed; whether the change is sound.

    The change is sound when every run of it is correct and none fails a
    larger share of its jobs than the base run of its pair.
    """
    checks = {side: {"correct_runs": sum(bool(p[side]["correct"]) for p in pairs),
                     "attempted": sum(p[side]["attempted"] for p in pairs),
                     "failed": sum(p[side]["failed"] for p in pairs)}
              for side in ("base", "head")}
    checks["head_fails_more"] = sum(
        p["head"]["failed"] * p["base"]["attempted"] > p["base"]["failed"] * p["head"]["attempted"]
        for p in pairs)
    checks["head_sound"] = (checks["head"]["correct_runs"] == len(pairs)
                            and checks["head_fails_more"] == 0)
    return checks


def _summary(pairs: list[dict], declared: dict, head_sound: bool) -> dict:
    """Per metric: both sides' spread, the change's wins and the verdicts."""
    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        better, bound = declared.get(name, ("lower", None))
        sign = 1.0 if better == "lower" else -1.0
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        entry = {"unit": pairs[0]["base"]["metrics"][name]["unit"], "better": better,
                 **_verdict(base, head, sign), "pairs": len(pairs)}
        if bound is not None:
            b, h = entry["base"], entry["head"]
            entry["bound"] = bound
            entry["within_bound"] = head_sound and sign * entry["median_change"] <= bound
            entry["gain_shown"] = (head_sound and entry["head_wins"] >= 0.9 * len(pairs)
                                   and sign * (b["median"] - h["median"]) > b["q3"] - b["q1"])
        summary[name] = entry
    return summary


def _group(workload: str, trace: int, pairs: list[dict], declared: dict) -> dict:
    """One BENCH file entry: the pairs, the run lengths their records report, checks and summary."""
    checks = _checks(pairs)
    return {"workload": workload, "trace": trace,
            "seconds": sorted({p[side]["seconds"] for p in pairs for side in ("base", "head")}),
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
    parser.add_argument("--label", required=True, help="file name part: BENCH_<label>.json")
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", default="HEAD", help="changed commit (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_parse_seeds, help="e.g. 501-510")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    top = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=top)
               for side, rev in (("base", args.base), ("head", args.head))}
    bench_file, doc = _bench_doc(top, args.label, commits)
    key = args.workload + (" --trace 1" if args.trace else "")

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
            order = ("base", "head") if len(pairs) % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = _run(checkouts[side], args.workload, seed, args.trace)
            pairs.append(pair)
            doc["groups"][key] = _group(args.workload, args.trace, pairs, declared)
            bench_file.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"pair {len(pairs)} seed {seed} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
