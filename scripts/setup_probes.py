"""Time alternating single set-up probes of two commits and add them to BENCH_<label>.json.

Usage, from anywhere inside a git checkout of svkit:

    python3 scripts/setup_probes.py --label one_source_form --base 8505c2b --head HEAD \\
        --workload forced-sweep --probes 30 --seed 1

Each probe is one ``svbench/run.py --setup-probe`` process: a cold import of
svkit and the construction of every job of the workload, the body of one
``setup_s`` sample.  Both commits are exported with ``git archive``, as
``scripts/bench_pairs.py`` does, and probe i runs the base first when i is
even and the change first when i is odd.  Pairs of whole benchmark runs put
minutes between the two sides, and the machine's speed drifts over that
span; single probes put seconds between them.

The probes go into ``BENCH_<label>.json`` under the key
``<workload> --setup-probe``, next to any groups of ``bench_pairs.py``
between the same two commits: every probe's seconds per side, each side's
median, quartiles and range, the change's wins (ties count for neither side)
and the relative change of the medians.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import RUN_TIMEOUT_S, _bench_doc, _export, _git, _verdict


def _probe(checkout: Path, workload: str, seed: int) -> float:
    cmd = [sys.executable, "svbench/run.py", "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"setup_probes: {' '.join(cmd)} exited with {done.returncode} in {checkout}")
    return float(done.stdout.split()[-1])


def _group(workload: str, probes: list[dict]) -> dict:
    verdict = _verdict([p["base"] for p in probes], [p["head"] for p in probes])
    return {"workload": workload, "probes": probes,
            "summary": {"setup_s": {"unit": "s", "better": "lower", **verdict,
                                    "probes": len(probes)}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="file name part: BENCH_<label>.json")
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", default="HEAD", help="changed commit (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--probes", type=int, default=30, help="probes per side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    top = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=top)
               for side, rev in (("base", args.base), ("head", args.head))}
    bench_file, doc = _bench_doc(top, args.label, commits)
    key = f"{args.workload} --setup-probe"

    with tempfile.TemporaryDirectory(prefix="setup_probes-") as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, checkout in checkouts.items():
            checkout.mkdir()
            _export(top, commits[side], checkout)
        probes = doc["groups"].get(key, {}).get("probes", [])
        for _ in range(args.probes):
            order = ("base", "head") if len(probes) % 2 == 0 else ("head", "base")
            probe = {"seed": args.seed, "order": list(order)}
            for side in order:
                probe[side] = _probe(checkouts[side], args.workload, args.seed)
            probes.append(probe)
        doc["groups"][key] = _group(args.workload, probes)
        bench_file.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
