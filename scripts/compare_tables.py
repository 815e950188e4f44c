"""Run three svkit CLI studies on a base commit and on this checkout and compare the tables.

Usage, from anywhere inside a git checkout of svkit:

    python3 scripts/compare_tables.py --base b88fdbe
    python3 scripts/compare_tables.py --base b88fdbe --tolerance

The base commit is exported with ``git archive`` into a temporary directory,
as ``scripts/bench_pairs.py`` does; the change side is the ``src`` of this
checkout, committed or not.  Each command of ``COMMANDS`` runs as
``python3 -m svkit.cli`` on both sides.  The script prints, per command,
"identical" (or "within tolerance") or what differs, and exits with status 1
when anything differs or any run fails.

By default the tables must agree byte for byte.  ``--tolerance`` runs every
command with ``--format csv`` and compares the parsed cells instead (see
``compare_csv``): an error of at least ``FLOOR`` must agree to ``RTOL``
relative, two errors below it match, and an order is compared only when both
errors it comes from are at least ``FLOOR`` on both sides.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import math
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

# A value is printed with three significant digits, so one unit of its last
# digit is at most 1% of it: a smaller relative tolerance could not pass a
# value that moved across a rounding boundary.
RTOL = 1e-2
# A relative coefficient change of 1e-12 moves an error by at most about
# 1e-12 times the solution's size.  Both manufactured cases solve for
# u = exp(sin(x - t)): at most e pointwise, about 3.8 in L2 over [0, 2*pi].
# Errors of at least 1e-9 then move by under 4e-3 of themselves, inside RTOL;
# errors below it (roundoff-level functionals such as lsv k = 3's interface
# errors at n = 1024) may move by any fraction.
FLOOR = 1e-9
# An order is printed with two decimals.
ORDER_DIGIT = 0.01


def _close(x: float, y: float) -> bool:
    scale = max(abs(x), abs(y))
    return math.isfinite(scale) and (scale < FLOOR or abs(x - y) <= RTOL * scale)


def compare_csv(old: str, new: str) -> list[str]:
    """The cells of two ``scheme,k,n,T,metric,value,order`` tables that differ beyond tolerance.

    Rows must name the same (scheme, k, n, T, metric) in the same order.  Two
    values match when their text is equal, when both lie below ``FLOOR``, or
    when they agree to ``RTOL`` relative.  An order cell on the row at n comes
    from the errors at n and at the series' previous n; when all four lie at or
    above ``FLOOR`` it must agree to ``2 * RTOL / ln(n / n_prev)`` (two errors
    each off by ``RTOL``) plus one printed digit, and is not compared otherwise.
    """
    old_rows, new_rows = list(csv.reader(old.splitlines())), list(csv.reader(new.splitlines()))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        return [f"the tables differ in header or row count ({len(old_rows)} against {len(new_rows)})"]
    problems = []
    previous: dict[tuple, tuple[float, float, float]] = {}  # series -> (n, old value, new value)
    for a, b in zip(old_rows[1:], new_rows[1:]):
        if a[:5] != b[:5] or len(a) != 7 or len(b) != 7:
            problems.append(f"row {','.join(a[:5])} against {','.join(b[:5])}")
            continue
        name = ",".join(a[:5])
        x, y, n = float(a[5]), float(b[5]), float(a[2])
        if a[5] != b[5] and not _close(x, y):
            problems.append(f"{name} value {a[5]} -> {b[5]}")
        series = (a[0], a[1], a[3], a[4])
        if a[6] != b[6]:
            prev = previous.get(series)
            if not (a[6] and b[6] and prev):
                problems.append(f"{name} order {a[6]!r} -> {b[6]!r}")
            elif min(x, y, prev[1], prev[2]) >= FLOOR:
                tol = 2.0 * RTOL / math.log(n / prev[0]) + ORDER_DIGIT
                if abs(float(a[6]) - float(b[6])) > tol:
                    problems.append(f"{name} order {a[6]} -> {b[6]}")
        previous[series] = (n, x, y)
    return problems


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
    parser.add_argument("--tolerance", action="store_true",
                        help=f"compare CSV cells to {RTOL:g} relative above {FLOOR:g}, not bytes")
    args = parser.parse_args(argv)

    top = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}", cwd=top)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_tables-") as tmp:
        _export(top, base, Path(tmp))
        for command in COMMANDS:
            run = command + " --format csv" if args.tolerance else command  # the last --format wins
            old = _table(Path(tmp) / "src", run)
            new = _table(top / "src", run)
            if args.tolerance:
                diff = compare_csv(old, new)
                same = "within tolerance"
            else:
                diff = list(difflib.unified_diff(old.splitlines(), new.splitlines(), base[:10],
                                                 "checkout", lineterm="", n=0))
                same = "identical"
            print(f"svkit {command}: " + (same if not diff else "DIFFERS"))
            for line in diff:
                print("  " + line)
            differing += bool(diff)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
