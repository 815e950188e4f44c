"""Run three svkit CLI studies on a base commit and on this checkout and compare the tables.

Usage, from anywhere inside a git checkout of svkit:

    python3 scripts/compare_tables.py --base b88fdbe

The base commit is exported with ``git archive`` into a temporary directory,
as ``scripts/bench_pairs.py`` does; the change side is the ``src`` of this
checkout, committed or not.  Each command of ``COMMANDS`` runs as
``python3 -m svkit.cli`` on both sides.  The script prints, per command,
"identical" or the differing lines, and exits with status 1 when any line
differs or any run fails.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _export, _git

COMMANDS = (
    "--example 1 --scheme rsv,lsv,dg --k 1,2,3 --n 8,16 --t-final 0.1"
    " --compare-dg --perturb 0.2 --seed 3",
    "--example 2 --scheme rsv,lsv --k 1,2,4 --n 8,16 --t-final 0.1 --tie-break left"
    " --compare-dg --format md",
    "--example 1 --scheme rsv,lsv,dg --k 2,3 --n 512,1024 --t-final 0.002 --perturb 0.2 --seed 5",
)


def _table(src: Path, args: str) -> str:
    """Standard output of one CLI run on the package under ``src``; stops on failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "svkit.cli", *args.split()]
    done = subprocess.run(cmd, cwd=src, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"compare_tables: svkit {args} exited with {done.returncode} in {src}")
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    args = parser.parse_args(argv)

    top = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}", cwd=top)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_tables-") as tmp:
        _export(top, base, Path(tmp))
        for command in COMMANDS:
            old = _table(Path(tmp) / "src", command).splitlines()
            new = _table(top / "src", command).splitlines()
            diff = list(difflib.unified_diff(old, new, base[:10], "checkout", lineterm="", n=0))
            print(f"svkit {command}: " + ("identical" if not diff else "DIFFERS"))
            for line in diff:
                print("  " + line)
            differing += bool(diff)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
