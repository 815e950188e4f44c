"""Matrix identities of the affine operators du/dt = A u + s(t).

A is assembled from the public call, one unit coefficient vector at a time,
on small meshes, and checked as a whole: mass balance, RSV = DG at constant
alpha, and a spectrum inside the growth bound that the stability estimate
allows.
"""

import numpy as np
import pytest

from svkit.dg import DGOperator
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition
from svkit.poly import PiecewisePoly
from svkit.sv import SchemeConfig, SVOperator


def _operator(scheme, mesh, k, coeff):
    if scheme == "dg":
        return DGOperator(mesh, k, coeff)
    variant = Scheme(scheme)
    part = build_partition(mesh, k, variant, coeff)
    return SVOperator(SchemeConfig(k, variant), part, coeff)


def _dense(op, mesh, k):
    """A such that op(u, t) = A u for a source-free operator, u flattened row-major."""
    size = mesh.n_elements * (k + 1)
    unit = np.eye(size)
    columns = [op(PiecewisePoly(mesh, k, e.reshape(-1, k + 1)), 0.0).coeffs.ravel() for e in unit]
    return np.column_stack(columns)


def _sin_squared(x):
    return np.sin(x) ** 2


# max |alpha'| is 1 for both: alpha' = cos x and sin 2x.
ALPHAS = {"sin": np.sin, "sin2": _sin_squared}


@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
@pytest.mark.parametrize("alpha", sorted(ALPHAS))
@pytest.mark.parametrize("k", [1, 3, 6])
def test_mean_mode_rows_conserve_mass(scheme, alpha, k):
    # With g = 0 the total mass sum_i h_i u_i0 is constant, for every state:
    # the h-weighted sum of the mean-mode rows of A is the zero row.
    mesh = build_mesh(12, 0.3, seed=k)
    coeff = FluxCoefficient(ALPHAS[alpha], mesh)
    a = _dense(_operator(scheme, mesh, k, coeff), mesh, k)
    mean_rows = mesh.sizes[:, None] * a.reshape(mesh.n_elements, k + 1, -1)[:, 0, :]
    assert np.max(np.abs(mean_rows.sum(axis=0))) < 1e-12 * np.max(np.abs(mean_rows))


@pytest.mark.parametrize("k", range(1, 13))
def test_rsv_equals_dg_at_constant_alpha(k):
    mesh = build_mesh(8, 0.3, seed=k)
    coeff = FluxCoefficient(np.ones_like, mesh)
    rsv = _dense(_operator("rsv", mesh, k, coeff), mesh, k)
    dg = _dense(_operator("dg", mesh, k, coeff), mesh, k)
    assert np.max(np.abs(rsv - dg)) < 1e-12 * np.max(np.abs(dg))


def _rk4_amplification(z):
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
@pytest.mark.parametrize("alpha", sorted(ALPHAS))
@pytest.mark.parametrize("n", [8, 16])
def test_spectrum_within_growth_bound(scheme, alpha, n):
    # The semi-discrete solution may grow at most like exp(t max|alpha'|), so
    # no eigenvalue of A lies right of max|alpha'| = 1, and one RK4 step at
    # the study's dt = 0.01/n amplifies no eigenmode by more than exp(dt).
    max_dalpha = 1.0
    dt = 0.01 / n
    mesh = build_mesh(n, 0.2, seed=n)
    coeff = FluxCoefficient(ALPHAS[alpha], mesh)
    for k in range(1, 7):
        eig = np.linalg.eigvals(_dense(_operator(scheme, mesh, k, coeff), mesh, k))
        assert eig.real.max() <= max_dalpha
        assert np.abs(_rk4_amplification(dt * eig)).max() <= np.exp(dt * max_dalpha)
