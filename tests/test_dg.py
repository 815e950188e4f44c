import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svkit.cases import manufactured_case
from svkit.exceptions import InvalidConfigError
from svkit.dg import VOLUME_QUAD_EXTRA, DGOperator
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition
from svkit.poly import InterpKind, PiecewisePoly, broken_norm, interpolate
from svkit.quadrature import gauss_panel, legendre_basis, legendre_basis_deriv
from svkit.sv import SchemeConfig, SVOperator
from svkit.timestep import integrate_to

from flux_reference import upwind_fluxes


def _random_poly(mesh, k, seed):
    rng = np.random.default_rng(seed)
    return PiecewisePoly(mesh, k, rng.standard_normal((mesh.n_elements, k + 1)))


def _constant_coeff(mesh, value=1.0):
    return FluxCoefficient(lambda x: value * np.ones_like(x), mesh)


def test_constant_state_preserved():
    mesh = build_mesh(5)
    coeff = _constant_coeff(mesh, -2.0)
    coeffs = np.zeros((5, 3))
    coeffs[:, 0] = 1.25
    u = PiecewisePoly(mesh, 2, coeffs)
    out = DGOperator(mesh, 2, coeff)(u, 0.0)
    assert np.max(np.abs(out.coeffs)) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_global_mass_conserved(k):
    mesh = build_mesh(8, 0.2, seed=2)
    coeff = FluxCoefficient(np.sin, mesh)
    u = _random_poly(mesh, k, 7)
    out = DGOperator(mesh, k, coeff)(u, 0.0)
    assert abs(np.dot(mesh.sizes, out.coeffs[:, 0])) < 1e-12 * broken_norm(u)


def test_matches_rsv_for_constant_coefficient():
    mesh = build_mesh(10, 0.25, seed=6)
    coeff = _constant_coeff(mesh)
    part = build_partition(mesh, 3, Scheme.RSV, coeff)
    u = _random_poly(mesh, 3, 9)
    dg = DGOperator(mesh, 3, coeff)(u, 0.0)
    sv = SVOperator(SchemeConfig(3, Scheme.RSV), part, coeff)(u, 0.0)
    assert np.max(np.abs(dg.coeffs - sv.coeffs)) < 1e-12 * broken_norm(u)


def test_linearity():
    mesh = build_mesh(6)
    coeff = FluxCoefficient(np.sin, mesh)
    u = _random_poly(mesh, 2, 1)
    v = _random_poly(mesh, 2, 2)
    op = DGOperator(mesh, 2, coeff)
    combined = op(2.0 * u + -0.5 * v, 0.0)
    split = 2.0 * op(u, 0.0) + -0.5 * op(v, 0.0)
    scale = max(1.0, float(np.max(np.abs(combined.coeffs))))
    assert np.max(np.abs(combined.coeffs - split.coeffs)) < 1e-12 * scale


def test_source_moments_match_projection():
    # With u = 0 the rhs is the L2 projection of g onto each element; on a
    # fine mesh the operator's panel matches a 12-point reference to roundoff
    # scale.
    mesh = build_mesh(32)
    case = manufactured_case(1)
    coeff = FluxCoefficient(case.alpha, mesh)
    u = PiecewisePoly(mesh, 2, np.zeros((32, 3)))
    t = 0.4
    out = DGOperator(mesh, 2, coeff, case.source)(u, t)
    sg, wg = np.polynomial.legendre.leggauss(12)
    x = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * sg[None, :]
    g = case.source(x, t)
    for m in range(3):
        basis = np.polynomial.legendre.legval(sg, np.eye(3)[m])
        proj = ((g * basis[None, :]) @ wg) * (2 * m + 1) / 2.0
        np.testing.assert_allclose(out.coeffs[:, m], proj, atol=1e-10)


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
def test_source_term_is_one_product_with_the_projection(k, n):
    # The DG term is g^T times one (k+3, k+1) projection, bit for bit: the
    # element size cancels, and C = 1 leaves the row pick a plain copy.
    case = manufactured_case(1)
    mesh = build_mesh(n, 0.3, seed=k)
    op = DGOperator(mesh, k, FluxCoefficient(case.alpha, mesh), case.source)
    sg, wg = gauss_panel(k + VOLUME_QUAD_EXTRA)
    projection = (wg[:, None] * legendre_basis(k, sg)) * (0.5 * (2.0 * np.arange(k + 1) + 1.0))
    g = case.source(mesh.centers + 0.5 * mesh.sizes * sg[:, None], 0.3)
    assert np.array_equal(op._source_term(0.3), g.T.dot(projection))


def test_l2_dissipation_constant_coefficient():
    k, n = 2, 16
    dt = 0.01 / n
    mesh = build_mesh(n)
    coeff = _constant_coeff(mesh)
    part = build_partition(mesh, k, Scheme.RSV, coeff)
    u = interpolate(lambda x: np.exp(np.sin(x)), part, coeff, InterpKind.AUTO)
    op = DGOperator(mesh, k, coeff)
    prev = broken_norm(u)
    for step in range(300):
        u = integrate_to(u, step * dt, (step + 1) * dt, dt, op)
        now = broken_norm(u)
        assert now <= prev + 1e-12
        prev = now


# -- block stencil against the term-by-term right-hand side ------------------------


def _reference_rhs(mesh, k, coeff, u, source, t):
    """Upwind DG right-hand side assembled term by term on (k+3)-point Gauss."""
    sg, wg = np.polynomial.legendre.leggauss(k + VOLUME_QUAD_EXTRA)
    basis, dbasis = legendre_basis_deriv(k, sg)
    x = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * sg[None, :]
    flux = upwind_fluxes(u, coeff)
    rhs = (coeff.alpha(x) * (u.coeffs @ basis.T)) @ (wg[:, None] * dbasis)  # volume term
    rhs -= flux[1:, None]                                  # test trace at +1 is 1
    rhs += flux[:-1, None] * (-1.0) ** np.arange(k + 1)    # test trace at -1 alternates
    if source is not None:
        rhs += (source(x, t) @ (wg[:, None] * basis)) * (0.5 * mesh.sizes)[:, None]
    return rhs * (2.0 * np.arange(k + 1) + 1.0) / mesh.sizes[:, None]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 24),
    jitter=st.floats(0.0, 0.35),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 12),
    shift=st.sampled_from([0.0, np.pi / 3]),
    with_source=st.booleans(),
)
def test_stacked_operator_matches_term_by_term(n, jitter, seed, k, shift, with_source):
    # shift = 0 puts a zero of alpha on the breakpoint x = 0.
    mesh = build_mesh(n, jitter, seed=seed)
    coeff = FluxCoefficient(lambda x: np.sin(x - shift), mesh)
    source = manufactured_case(1).source if with_source else None
    u = _random_poly(mesh, k, seed)
    t = 0.37

    out = DGOperator(mesh, k, coeff, source)(u, t).coeffs
    ref = _reference_rhs(mesh, k, coeff, u, source, t)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(out - ref)) < 1e-12 * scale


@pytest.mark.parametrize("warm", [False, True])
def test_non_integer_order_rejected(warm):
    mesh = build_mesh(6)
    coeff = FluxCoefficient(np.sin, mesh)
    if warm:
        DGOperator(mesh, 2, coeff)
        DGOperator(mesh, 3, coeff)
    with pytest.raises(InvalidConfigError):
        DGOperator(mesh, 2.5, coeff)
    with pytest.raises(InvalidConfigError):
        DGOperator(mesh, 3.0, coeff)
    u = PiecewisePoly(mesh, 2, np.random.default_rng(4).standard_normal((6, 3)))
    got = DGOperator(mesh, np.int64(2), coeff)(u, 0.0)
    assert np.array_equal(got.coeffs, DGOperator(mesh, 2, coeff)(u, 0.0).coeffs)
