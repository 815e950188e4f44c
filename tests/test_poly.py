import numpy as np
import pytest

from svkit.exceptions import InvalidConfigError
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition
from svkit.poly import (
    InterpKind,
    PiecewisePoly,
    auto_interp_kinds,
    broken_norm,
    cv_integrals,
    element_antiderivative,
    interpolate,
    interpolation_nodes,
    t_transform,
    total_mass,
    transform_inner_products,
    triple_norm,
)
from svkit.quadrature import RuleKind, gauss_panel, make_rule

from poly_reference import point_values


def _poly(mesh, k, coeffs):
    return PiecewisePoly(mesh, k, np.asarray(coeffs, dtype=float))


def _random_poly(mesh, k, seed):
    rng = np.random.default_rng(seed)
    return PiecewisePoly(mesh, k, rng.standard_normal((mesh.n_elements, k + 1)))


def test_traces_match_eval():
    mesh = build_mesh(6, 0.2, seed=4)
    u = _random_poly(mesh, 3, 1)
    np.testing.assert_allclose(u.right_traces(), u.eval_ref([1.0])[:, 0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(u.left_traces(), u.eval_ref([-1.0])[:, 0], rtol=0, atol=1e-13)


# -- arithmetic ----------------------------------------------------------------


@pytest.mark.parametrize("scalar", [2.5, 3, np.float64(2.5), np.int64(3), np.float32(0.5), True])
def test_scalar_multiplication_accepts_real_numbers(scalar):
    u = _random_poly(build_mesh(4), 2, seed=1)
    expected = u.coeffs * float(scalar)
    for product in (u * scalar, scalar * u):
        assert isinstance(product, PiecewisePoly)
        assert product.coeffs.dtype == np.float64
        np.testing.assert_array_equal(product.coeffs, expected)


@pytest.mark.parametrize("scalar", ["2", "x", 1j, None, np.array([2.0]), np.array(2.0)])
def test_scalar_multiplication_rejects_non_real_operands(scalar):
    u = _random_poly(build_mesh(4), 2, seed=1)
    assert u.__mul__(scalar) is NotImplemented
    with pytest.raises(TypeError):
        u * scalar
    with pytest.raises(TypeError):
        scalar * u


def test_sum_and_difference_check_mesh_and_degree():
    mesh = build_mesh(5, 0.2, seed=1)
    u = _random_poly(mesh, 2, seed=1)
    twin_mesh = build_mesh(5, 0.2, seed=1)  # equal breakpoints, another object
    v = _random_poly(twin_mesh, 2, seed=2)
    np.testing.assert_array_equal((u + v).coeffs, u.coeffs + v.coeffs)
    np.testing.assert_array_equal((u - v).coeffs, u.coeffs - v.coeffs)
    other_mesh = _random_poly(build_mesh(5, 0.2, seed=2), 2, seed=3)
    other_degree = PiecewisePoly(mesh, 1, np.zeros((5, 2)))
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="different meshes"):
            op(u, other_mesh)
        with pytest.raises(ValueError, match="different degrees"):
            op(u, other_degree)


def test_construction_converts_to_float64_and_keeps_float64_arrays():
    mesh = build_mesh(3)
    coeffs = np.ones((3, 2))
    assert PiecewisePoly(mesh, 1, coeffs).coeffs is coeffs
    for raw in ([[1, 2], [3, 4], [5, 6]], np.arange(6).reshape(3, 2), np.ones((3, 2), np.float32)):
        u = PiecewisePoly(mesh, 1, raw)
        assert type(u.coeffs) is np.ndarray and u.coeffs.dtype == np.float64
        np.testing.assert_array_equal(u.coeffs, np.asarray(raw, dtype=float))
    with pytest.raises(ValueError, match="shape"):
        PiecewisePoly(mesh, 2, coeffs)


# -- interpolation ------------------------------------------------------------


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "kind", [InterpKind.MINUS, InterpKind.PLUS, InterpKind.PLUS_MINUS, InterpKind.AUTO]
)
def test_polynomial_reproduction(scheme, k, kind):
    mesh = build_mesh(9, 0.2, seed=7)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    poly = np.polynomial.Polynomial(np.arange(1, k + 2) * 0.37)
    interp = interpolate(poly, part, coeff, kind)
    xs = np.linspace(0.1, 2 * np.pi - 0.1, 40)
    vals = point_values(interp, xs)
    assert np.max(np.abs(vals - poly(xs))) < 1e-12 * max(1.0, np.max(np.abs(poly(xs))))


def test_auto_kind_table_for_sine():
    mesh = build_mesh(8)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    # Each choice is the index of the partition point its node set leaves out.
    dropped = {InterpKind.MINUS: 0, InterpKind.PLUS: 3, InterpKind.PLUS_MINUS: 2}
    kinds = auto_interp_kinds(part, coeff)
    assert kinds[1] == dropped[InterpKind.MINUS]       # [pi/4, pi/2]: both signs positive
    assert kinds[5] == dropped[InterpKind.PLUS]        # [5pi/4, 3pi/2]: both negative
    assert kinds[0] == dropped[InterpKind.PLUS_MINUS]  # [0, pi/4]: zero at the left edge


@pytest.mark.parametrize("kind", ["minus", "plus_minus", RuleKind.GAUSS, None])
def test_interpolant_kind_must_be_an_interp_kind(kind):
    # Anything but an InterpKind is rejected, not read as a default node set.
    mesh = build_mesh(6)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    with pytest.raises(InvalidConfigError):
        interpolate(np.cos, part, coeff, kind)
    with pytest.raises(InvalidConfigError):
        interpolation_nodes(part, coeff, kind)


def test_auto_interpolant_needs_the_flux_coefficient():
    mesh = build_mesh(6)
    part = build_partition(mesh, 2, Scheme.LSV, FluxCoefficient(np.sin, mesh))
    with pytest.raises(InvalidConfigError):
        interpolate(np.cos, part)
    with pytest.raises(InvalidConfigError):
        interpolation_nodes(part, None, InterpKind.AUTO)


def test_interpolated_function_must_give_finite_real_values_of_the_nodes_shape():
    mesh = build_mesh(6)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    for f in (
        lambda x: 1.0,
        lambda x: np.ones(x.size),
        lambda x: np.ones(x.shape)[:, :-1],
        lambda x: np.where(x > 3.0, np.nan, np.cos(x)),
        lambda x: np.full_like(x, -np.inf),
        lambda x: np.exp(1j * x),
        lambda x: np.cos(x).astype(complex),
    ):
        with pytest.raises(InvalidConfigError):
            interpolate(f, part, coeff)


def test_interpolation_matches_at_nodes():
    mesh = build_mesh(8, 0.15, seed=2)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 3, Scheme.RSV, coeff)
    f = lambda x: np.exp(np.sin(x))
    interp = interpolate(f, part, coeff, InterpKind.AUTO)
    nodes = interpolation_nodes(part, coeff, InterpKind.AUTO)
    resid = interp.eval_ref(nodes.s) - f(nodes.x)
    assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(f(nodes.x)))


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_upwind_trace_exactness(scheme, k, n):
    # The automatic interpolant reproduces the function at whichever trace the
    # upwind flux selects, at every interface including the snapped zeros.
    mesh = build_mesh(n)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    f = lambda x: np.exp(np.sin(x))
    interp = interpolate(f, part, coeff, InterpKind.AUTO)
    a = coeff.interface_values[:-1]
    uhat = np.where(a > 0.0, np.roll(interp.right_traces(), 1), interp.left_traces())
    exact = f(mesh.breakpoints[:-1])
    assert np.max(np.abs(uhat - exact)) < 1e-12 * np.max(np.abs(exact))


def test_modal_nodal_round_trip():
    mesh = build_mesh(7, 0.2, seed=11)
    coeff = FluxCoefficient(np.sin, mesh)
    for k in (1, 2, 3, 4):
        part = build_partition(mesh, k, Scheme.RSV, coeff)
        u = _random_poly(mesh, k, 100 + k)
        for kind in (InterpKind.MINUS, InterpKind.PLUS, InterpKind.PLUS_MINUS):
            nodes = interpolation_nodes(part, coeff, kind)
            values = u.eval_ref(nodes.s)
            back = interpolate(
                lambda x, v=values: v, part, coeff, kind
            )
            assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


# -- transform -----------------------------------------------------------------


def test_transform_constant():
    mesh = build_mesh(5)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.LSV, coeff)
    u = _poly(mesh, 2, np.column_stack([np.full(5, 3.5), np.zeros(5), np.zeros(5)]))
    tw = t_transform(u, part)
    assert np.max(np.abs(tw - 3.5)) < 1e-13


def _partition_of_kind(mesh, k, kind):
    if kind is RuleKind.GAUSS:
        coeff = FluxCoefficient(lambda x: np.ones_like(x), mesh)
        return build_partition(mesh, k, Scheme.LSV, coeff)
    sign = 1.0 if kind is RuleKind.RADAU_RIGHT else -1.0
    coeff = FluxCoefficient(lambda x: sign * np.ones_like(x), mesh)
    return build_partition(mesh, k, Scheme.RSV, coeff)


@pytest.mark.parametrize("kind", list(RuleKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_transform_endpoint_identities(kind, k):
    mesh = build_mesh(8, 0.2, seed=5)
    part = _partition_of_kind(mesh, k, kind)
    w = _random_poly(mesh, k, 50 + k)
    tw = t_transform(w, part)
    scale = max(1.0, float(np.max(np.abs(w.coeffs))))
    if kind in (RuleKind.GAUSS, RuleKind.RADAU_RIGHT):
        assert np.max(np.abs(tw[:, 0] - w.left_traces())) < 1e-12 * scale
    if kind in (RuleKind.GAUSS, RuleKind.RADAU_LEFT):
        assert np.max(np.abs(tw[:, -1] - w.right_traces())) < 1e-12 * scale
    # general last-volume identity: w*_k = w(right) - A_{k+1} w_x(right)
    rule = make_rule(kind, k)
    wx_right = w.eval_ref_deriv(np.array([1.0]))[:, 0]
    expected = w.right_traces() - 0.5 * mesh.sizes * rule.weights[-1] * wx_right
    assert np.max(np.abs(tw[:, -1] - expected)) < 1e-11 * scale


@pytest.mark.parametrize("kind", list(RuleKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_transform_inner_product_decomposition(kind, k):
    # (v, Tw)_i = (v, w)_i + R_i[antiderivative(v) * w_x] with the remainder
    # evaluated by an independent high-order panel minus the rule sum.
    mesh = build_mesh(6, 0.25, seed=6)
    part = _partition_of_kind(mesh, k, kind)
    rng = np.random.default_rng(123 + k)
    sg, wg = np.polynomial.legendre.leggauss(2 * k + 4)
    rule = make_rule(kind, k)
    for _ in range(25):
        v = PiecewisePoly(mesh, k, rng.standard_normal((6, k + 1)))
        w = PiecewisePoly(mesh, k, rng.standard_normal((6, k + 1)))
        lhs = np.sum(cv_integrals(v, part) * t_transform(w, part), axis=1)
        modes = 2 * np.arange(k + 1) + 1
        inner = (v.coeffs * w.coeffs / modes).sum(axis=1) * mesh.sizes
        anti = element_antiderivative(v)
        exact = 0.5 * mesh.sizes * ((anti.eval_ref(sg) * w.eval_ref_deriv(sg)) @ wg)
        quad = np.sum(
            part.subweights * anti.eval_ref(rule.points) * w.eval_ref_deriv(rule.points),
            axis=1,
        )
        rhs = inner + exact - quad
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


@pytest.mark.parametrize("kind", list(RuleKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_transform_injective_and_bounded(kind, k):
    mesh = build_mesh(4)
    part = _partition_of_kind(mesh, k, kind)
    # basis-image rank: transform of each modal basis vector, single element
    images = []
    for m in range(k + 1):
        coeffs = np.zeros((4, k + 1))
        coeffs[:, m] = 1.0
        images.append(t_transform(PiecewisePoly(mesh, k, coeffs), part)[0])
    rank = np.linalg.matrix_rank(np.array(images), tol=1e-10)
    assert rank == k + 1
    # boundedness: piecewise-constant L2 norm of Tw within 10x of ||w||
    rng = np.random.default_rng(9)
    widths = np.diff(part.subpoints, axis=1)
    for _ in range(50):
        w = PiecewisePoly(mesh, k, rng.standard_normal((4, k + 1)))
        tw = t_transform(w, part)
        norm_tw = np.sqrt(np.sum(widths * tw**2))
        assert norm_tw <= 10.0 * broken_norm(w) + 1e-14


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_triple_norm_equivalent_to_l2_on_gauss(k):
    mesh = build_mesh(8, 0.15, seed=8)
    part = _partition_of_kind(mesh, k, RuleKind.GAUSS)
    rng = np.random.default_rng(77)
    for _ in range(40):
        v = PiecewisePoly(mesh, k, rng.standard_normal((8, k + 1)))
        ratio = triple_norm(v, part) ** 2 / broken_norm(v) ** 2
        assert 0.0 < ratio < 2.0


@pytest.mark.parametrize("kind", [RuleKind.RADAU_RIGHT, RuleKind.RADAU_LEFT])
def test_triple_norm_equals_l2_on_radau(kind):
    # Radau rules integrate the degree-2k remainder integrand exactly, so the
    # transform inner product collapses onto the plain L2 norm.
    mesh = build_mesh(6, 0.2, seed=3)
    part = _partition_of_kind(mesh, 3, kind)
    v = _random_poly(mesh, 3, 4)
    assert triple_norm(v, part) == pytest.approx(broken_norm(v), rel=1e-12)


def test_transform_positive_inner_products_on_gauss():
    mesh = build_mesh(5)
    part = _partition_of_kind(mesh, 3, RuleKind.GAUSS)
    v = _random_poly(mesh, 3, 15)
    per_elem = transform_inner_products(v, part)
    assert np.all(per_elem > 0)


# -- norms and averages ---------------------------------------------------------


def test_l2_norm_of_constant():
    mesh = build_mesh(4)
    u = _poly(mesh, 1, np.column_stack([np.ones(4), np.zeros(4)]))
    assert broken_norm(u, "l2") == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)


def test_linf_norm_of_constant():
    mesh = build_mesh(4)
    u = _poly(mesh, 2, np.column_stack([np.full(4, -3.0), np.zeros(4), np.zeros(4)]))
    assert broken_norm(u, "linf") == pytest.approx(3.0, abs=1e-14)


def test_l2_norm_linear_mode():
    # the linear mode squared integrates to h/3 per element
    mesh = build_mesh(2)
    u = _poly(mesh, 1, [[0.0, 1.0], [0.0, 1.0]])
    assert broken_norm(u, "l2") == pytest.approx(np.sqrt(2 * np.pi / 3), rel=1e-13)


def test_l2_matches_modal_formula():
    mesh = build_mesh(7, 0.2, seed=21)
    u = _random_poly(mesh, 3, 22)
    modes = 2 * np.arange(4) + 1
    exact = np.sqrt(np.sum(mesh.sizes[:, None] * u.coeffs**2 / modes[None, :]))
    assert broken_norm(u, "l2") == pytest.approx(exact, rel=1e-13)


def test_reference_norms():
    mesh = build_mesh(6)
    u = _poly(mesh, 1, np.column_stack([np.full(6, 2.0), np.zeros(6)]))
    # || u - (2 - sin) || = || sin || = sqrt(pi)
    value = broken_norm(u, "l2", reference=lambda x: 2.0 - np.sin(x))
    assert value == pytest.approx(np.sqrt(np.pi), rel=1e-10)


def test_l2_quadrature_doubling():
    mesh = build_mesh(32)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    f = lambda x: np.exp(np.sin(x))
    u = interpolate(f, part, coeff, InterpKind.AUTO)
    base = broken_norm(u, "l2", reference=f)
    sg, wg = gauss_panel(2 * 2 + 6)
    x = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * sg
    doubled = np.sqrt(0.5 * np.dot(mesh.sizes, ((u.eval_ref(sg) - f(x)) ** 2) @ wg))
    assert abs(base - doubled) < 1e-3 * base


def test_total_mass():
    mesh = build_mesh(5)
    coeffs = np.zeros((5, 2))
    coeffs[:, 0] = np.arange(1.0, 6.0)
    u = _poly(mesh, 1, coeffs)
    assert total_mass(u) == pytest.approx(np.dot(mesh.sizes, np.arange(1.0, 6.0)), rel=1e-14)
