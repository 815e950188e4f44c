"""Time ``AffineOperator.apply`` on its dense and stencil paths over a grid of (k, n).

Usage, with the package on the path:

    PYTHONPATH=src python3 scripts/time_apply.py --out BENCH_dense_apply.json

For each order k and element count n of the grid, the RSV operator of
example 1 (jittered mesh, no source, so both paths add the same nothing) is
built once.  Its ``apply`` is then timed with the dense matrix set and with it
cleared, alternating the two paths round by round: each round is the mean of
a batch of calls, and the median and quartiles over the rounds are kept in
microseconds per call.  Threads are pinned to one, as in the benchmark.

The JSON file holds the machine, one row per (k, n) with M = n(k+1) and the
ratio of the dense path's median to the stencil path's, and
``worst_ratio_up_to``: for each grid M, the largest ratio over the grid
points with at most M unknowns.  ``sv._DENSE_MAX_UNKNOWNS`` is set from it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from svkit import sv  # noqa: E402
from svkit.cases import manufactured_case  # noqa: E402
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition  # noqa: E402

K_VALUES = (1, 2, 3, 5, 7, 12)
N_VALUES = (2, 3, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192)
MAX_UNKNOWNS = 416  # grid points with more unknowns are skipped
ROUNDS = 31
BATCH = 200


def _operator(k: int, n: int) -> sv.SVOperator:
    case = manufactured_case(1)
    mesh = build_mesh(n, 0.2, seed=n + k)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, Scheme.RSV, coeff)
    return sv.SVOperator(sv.SchemeConfig(k, Scheme.RSV), part, coeff)


def _per_call_us(op: sv.SVOperator, c: np.ndarray) -> float:
    apply = op.apply
    start = time.perf_counter()
    for _ in range(BATCH):
        apply(c, 0.0)
    return (time.perf_counter() - start) / BATCH * 1e6


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def time_point(k: int, n: int) -> dict:
    op = _operator(k, n)
    dense = sv._dense_matrix(op._stencil)
    c = np.random.default_rng(k * 1000 + n).standard_normal((n, k + 1))
    paths = {"stencil": None, "dense": dense}
    times = {name: [] for name in paths}
    for r in range(ROUNDS):
        order = list(paths) if r % 2 == 0 else list(paths)[::-1]
        for name in order:
            op._dense = paths[name]
            op.apply(c, 0.0)  # warm
            times[name].append(_per_call_us(op, c))
    stencil, dense_t = _spread(times["stencil"]), _spread(times["dense"])
    return {
        "k": k, "n": n, "unknowns": n * (k + 1),
        "stencil_us": stencil, "dense_us": dense_t,
        "ratio": dense_t["median"] / stencil["median"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", default="BENCH_dense_apply.json")
    args = parser.parse_args(argv)

    rows = []
    for k in K_VALUES:
        for n in N_VALUES:
            if n * (k + 1) > MAX_UNKNOWNS:
                continue
            row = time_point(k, n)
            rows.append(row)
            print(f"k={k:2d} n={n:3d} M={row['unknowns']:3d}: stencil "
                  f"{row['stencil_us']['median']:6.2f} us, dense {row['dense_us']['median']:6.2f} us, "
                  f"ratio {row['ratio']:.3f}", flush=True)
    sizes = sorted({r["unknowns"] for r in rows})
    worst = [[m, max(r["ratio"] for r in rows if r["unknowns"] <= m)] for m in sizes]
    record = {
        "script": "scripts/time_apply.py",
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "rounds": ROUNDS, "batch": BATCH,
        "worst_ratio_up_to": worst,
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for m, ratio in worst:
        print(f"M <= {m:3d}: dense/stencil at most {ratio:.3f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
