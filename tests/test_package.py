import os
import subprocess
import sys

import svkit


def _loaded_after(statements: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` a fresh interpreter holds in sys.modules after ``statements``.

    A fresh interpreter, so modules imported by other tests do not count.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(svkit.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import svkit; {statements}; "
        f"print(*sorted(m for m in sys.modules if m in {names!r} or m.split('.')[0] in {names!r}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_does_not_load_scipy():
    assert _loaded_after("pass", ("scipy",)) == []


def test_jittered_mesh_loads_neither_numpy_random_nor_openssl():
    assert _loaded_after("svkit.build_mesh(16, 0.2, seed=3)", ("numpy.random", "_hashlib")) == []


def test_every_exported_name_resolves():
    missing = [name for name in svkit.__all__ if not hasattr(svkit, name)]
    assert missing == []


def test_runs_do_not_load_numpy_polynomial():
    # Gauss panels come from svkit's own Newton iteration, not numpy's
    # eigen-solver rule in numpy.polynomial.
    statements = (
        "case = svkit.manufactured_case(1); "
        "[svkit.run_single(case, scheme, 2, 8, t_final=0.01) for scheme in ('rsv', 'lsv')]; "
        "mesh = svkit.build_mesh(8); coeff = svkit.FluxCoefficient(case.alpha, mesh); "
        "part = svkit.build_partition(mesh, 2, svkit.Scheme.LSV, coeff); "
        "u0 = svkit.interpolate(case.u0, part, coeff, svkit.InterpKind.AUTO); "
        "svkit.rk4_step(u0, 0.0, 0.001, svkit.DGOperator(mesh, 2, coeff, case.source))"
    )
    assert _loaded_after(statements, ("numpy.polynomial",)) == []
