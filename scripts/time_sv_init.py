"""Time the set-up stages of one SV run for one scheme, order and mesh size.

Usage, with the package on the path:

    PYTHONPATH=src python3 scripts/time_sv_init.py --scheme lsv --n 1024 --k 2

The mesh and flux coefficient of example 1 are built once.  Then each stage
runs 300 times in one warm process, and its median and quartiles are printed
in microseconds: ``build_partition``, the ``SVOperator`` constructor with
example 1's source, and the automatic ``interpolate`` of example 1's initial
data.  The benchmark's tracer sums set-up over every scheme of a workload, so
this is the way to see one scheme's stages alone.  Threads are pinned to one,
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
from svkit.poly import InterpKind, interpolate  # noqa: E402
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
    stages = {
        "build_partition": lambda: build_partition(mesh, args.k, variant, coeff),
        "SVOperator.__init__": lambda: SVOperator(config, partition, coeff, case.source),
        "interpolate": lambda: interpolate(case.u0, partition, coeff, InterpKind.AUTO),
    }
    for name, stage in stages.items():
        stage()  # fills the per-(kind, k) caches
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            stage()
            times.append((time.perf_counter() - start) * 1e6)
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        print(f"{name} {args.scheme} n={args.n} k={args.k}: "
              f"median {median:.0f} us (q1 {q1:.0f}, q3 {q3:.0f}) over {REPEATS} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
