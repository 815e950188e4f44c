"""Time SVOperator construction for one scheme, order and mesh size.

Usage, with the package on the path:

    PYTHONPATH=src python3 scripts/time_sv_init.py --scheme lsv --n 1024 --k 2

The mesh, flux coefficient and partition of example 1 are built once; the
operator, with example 1's source, is then constructed 300 times in one
warm process, and the median and quartiles are printed in microseconds.
The benchmark's tracer sums set-up over every scheme of a workload, so this
is the way to see one scheme's constructor alone.  Threads are pinned to one,
as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from svkit.cases import manufactured_case  # noqa: E402
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition  # noqa: E402
from svkit.sv import SchemeConfig, SVOperator  # noqa: E402

REPEATS = 300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scheme", choices=("lsv", "rsv"), default="lsv")
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--k", type=int, default=2)
    args = parser.parse_args(argv)

    case = manufactured_case(1)
    mesh = build_mesh(args.n)
    coeff = FluxCoefficient(case.alpha, mesh)
    variant = Scheme(args.scheme)
    partition = build_partition(mesh, args.k, variant, coeff)
    config = SchemeConfig(k=args.k, variant=variant)
    SVOperator(config, partition, coeff, case.source)  # fills the per-(kind, k) caches

    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        SVOperator(config, partition, coeff, case.source)
        times.append((time.perf_counter() - start) * 1e6)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(f"SVOperator.__init__ {args.scheme} n={args.n} k={args.k}: "
          f"median {median:.0f} us (q1 {q1:.0f}, q3 {q3:.0f}) over {REPEATS} builds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
