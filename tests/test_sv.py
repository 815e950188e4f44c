import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svkit.cases import manufactured_case
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition, classify_elements
from svkit.poly import (
    InterpKind,
    PiecewisePoly,
    broken_norm,
    interpolate,
    interpolation_nodes,
    triple_norm,
)
from svkit.quadrature import RULE_KINDS, RuleKind, gauss_panel, legendre_basis, make_rule
from svkit.sv import (
    _DENSE_MAX_UNKNOWNS,
    SOURCE_QUAD_EXTRA,
    SchemeConfig,
    SVOperator,
    _dense_matrix,
    _legendre_antiderivative_table,
    _sv_source_map,
    cv_matrix,
    upwind_weights,
)
from svkit.dg import DGOperator
from svkit.timestep import integrate_to
from svkit.exceptions import InvalidConfigError, SingularMatrixError
import svkit.sv as sv_module

from flux_reference import upwind_fluxes
from poly_reference import integrate_panel, point_values
from strategies import breakpoint_zero_coefficients


def _random_poly(mesh, k, seed):
    rng = np.random.default_rng(seed)
    return PiecewisePoly(mesh, k, rng.standard_normal((mesh.n_elements, k + 1)))


def _constant_coeff(mesh, value=1.0):
    return FluxCoefficient(lambda x: value * np.ones_like(x), mesh)


# -- control-volume matrices -----------------------------------------------------


def _moment_matrix(kind, k):
    # The control-volume moment matrix that cv_matrix inverts: entry [j, m] is
    # the integral of L_m over [s_j, s_{j+1}].
    anti = _legendre_antiderivative_table(k, make_rule(kind, k).points)
    return anti[1:] - anti[:-1]


def test_cv_matrix_gauss_k1():
    m = _moment_matrix(RuleKind.GAUSS, 1)
    np.testing.assert_allclose(m, [[1.0, -0.5], [1.0, 0.5]], atol=1e-14)


def test_cv_matrix_radau_right_k1():
    m = _moment_matrix(RuleKind.RADAU_RIGHT, 1)
    np.testing.assert_allclose(m, [[2 / 3, -4 / 9], [4 / 3, 4 / 9]], atol=1e-14)
    np.testing.assert_allclose(m.sum(axis=0), [2.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("kind", list(RuleKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 12])
def test_cv_matrix_properties(kind, k):
    rule = make_rule(kind, k)
    matrix = _moment_matrix(kind, k)
    inverse = cv_matrix(kind, k)
    assert not inverse.flags.writeable
    # first column holds the subinterval lengths
    np.testing.assert_allclose(matrix[:, 0], np.diff(rule.points), atol=1e-13)
    # column sums are the full-interval Legendre integrals 2*delta_{m,0}
    expected = np.zeros(k + 1)
    expected[0] = 2.0
    np.testing.assert_allclose(matrix.sum(axis=0), expected, atol=1e-12)
    assert np.linalg.cond(matrix) < 1e8
    np.testing.assert_allclose(inverse @ matrix, np.eye(k + 1), atol=1e-12)
    # matrix entries agree with direct panel integration of each mode
    for j in range(k + 1):
        for m in range(k + 1):
            direct = integrate_panel(
                lambda s, m=m: np.polynomial.legendre.legval(s, np.eye(k + 1)[m]),
                rule.points[j],
                rule.points[j + 1],
                k + 2,
            )
            assert matrix[j, m] == pytest.approx(direct, abs=1e-13)


@pytest.mark.parametrize("kind", list(RuleKind))
def test_cv_matrix_one_norm_conditions(kind):
    # Measured: (k+1)^2 for the Radau kinds and k^2+k+1 for Gauss, so 169 at most
    for k in range(1, 13):
        expected = k * k + k + 1 if kind is RuleKind.GAUSS else (k + 1) ** 2
        assert np.linalg.cond(_moment_matrix(kind, k), 1) == pytest.approx(expected, rel=1e-12)


def test_cv_matrix_rejects_a_condition_above_its_limit(monkeypatch):
    cv_matrix.cache_clear()
    monkeypatch.setattr(sv_module, "_COND_LIMIT", 160.0)
    try:
        with pytest.raises(SingularMatrixError):
            cv_matrix(RuleKind.RADAU_RIGHT, 12)  # 169
        cv_matrix(RuleKind.GAUSS, 12)  # 157
    finally:
        cv_matrix.cache_clear()


# -- upwind flux ------------------------------------------------------------------


def test_upwind_flux_positive_coefficient():
    mesh = build_mesh(2)
    coeff = _constant_coeff(mesh, 2.0)
    # element 0 right trace 3, element 1 left trace 7
    u = PiecewisePoly(mesh, 1, np.array([[2.0, 1.0], [7.5, 0.5]]))
    assert u.right_traces()[0] == pytest.approx(3.0)
    assert u.left_traces()[1] == pytest.approx(7.0)
    assert upwind_fluxes(u, coeff)[1] == pytest.approx(6.0, abs=1e-14)


def test_upwind_flux_negative_coefficient():
    mesh = build_mesh(2)
    coeff = _constant_coeff(mesh, -1.0)
    u = PiecewisePoly(mesh, 1, np.array([[2.0, 1.0], [7.5, 0.5]]))
    assert upwind_fluxes(u, coeff)[1] == pytest.approx(-7.0, abs=1e-14)


def test_upwind_flux_zero_coefficient():
    mesh = build_mesh(4)
    coeff = FluxCoefficient(np.sin, mesh)  # zero at x = 0, pi, 2*pi
    u = _random_poly(mesh, 2, 3)
    assert upwind_fluxes(u, coeff)[0] == 0.0
    assert upwind_fluxes(u, coeff)[2] == 0.0
    flux = upwind_fluxes(u, coeff)
    assert flux[0] == 0.0 and flux[2] == 0.0 and flux[-1] == flux[0]


# -- semi-discrete operator --------------------------------------------------------


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
def test_constant_state_preserved(scheme):
    mesh = build_mesh(6, 0.2, seed=1)
    coeff = _constant_coeff(mesh, 3.0)
    part = build_partition(mesh, 2, scheme, coeff)
    coeffs = np.zeros((6, 3))
    coeffs[:, 0] = 4.2
    u = PiecewisePoly(mesh, 2, coeffs)
    out = SVOperator(SchemeConfig(2, scheme), part, coeff)(u, 0.0)
    assert np.max(np.abs(out.coeffs)) < 1e-13


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_global_mass_of_rhs_vanishes(scheme, k):
    mesh = build_mesh(9, 0.25, seed=2)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    u = _random_poly(mesh, k, 5)
    out = SVOperator(SchemeConfig(k, scheme), part, coeff)(u, 0.0)
    mass = np.dot(mesh.sizes, out.coeffs[:, 0])
    assert abs(mass) < 1e-12 * broken_norm(u)


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_conservation_identity(scheme, k):
    # Re-integrate the recovered polynomial over each control volume and match
    # it against the flux differences that produced it.
    mesh = build_mesh(8, 0.2, seed=3)
    case = manufactured_case(1)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    u = _random_poly(mesh, k, 8)
    t = 0.33
    config = SchemeConfig(k, scheme)
    out = SVOperator(config, part, coeff, case.source)(u, t)

    flux = upwind_fluxes(u, coeff)
    scale = max(1.0, float(np.max(np.abs(u.coeffs))))
    for i in range(mesh.n_elements):
        rule = make_rule(RULE_KINDS[part.kinds[i]], k)
        faces = np.empty(k + 2)
        faces[0] = flux[i]
        faces[-1] = flux[i + 1]
        for j in range(1, k + 1):
            xj = part.subpoints[i, j]
            faces[j] = coeff.alpha(xj) * point_values(u, xj)[0]
        for j in range(k + 1):
            a, b = part.subpoints[i, j], part.subpoints[i, j + 1]
            lhs = integrate_panel(lambda x: point_values(out, x), a, b, k + 2)
            # the identity holds against the operator's own source panel
            gj = integrate_panel(lambda x: case.source(x, t), a, b, k + SOURCE_QUAD_EXTRA)
            rhs = gj - (faces[j + 1] - faces[j])
            assert lhs == pytest.approx(rhs, abs=1e-11 * scale)


def test_linearity():
    mesh = build_mesh(7, 0.2, seed=4)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    config = SchemeConfig(2, Scheme.RSV)
    u = _random_poly(mesh, 2, 10)
    v = _random_poly(mesh, 2, 11)
    a, b = 1.7, -0.4
    op = SVOperator(config, part, coeff)
    combined = op(a * u + b * v, 0.0)
    split = a * op(u, 0.0) + b * op(v, 0.0)
    scale = max(1.0, float(np.max(np.abs(combined.coeffs))))
    assert np.max(np.abs(combined.coeffs - split.coeffs)) < 1e-12 * scale


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rsv_matches_dg_constant_coefficient(k):
    mesh = build_mesh(10, 0.3, seed=k)
    coeff = _constant_coeff(mesh)
    part = build_partition(mesh, k, Scheme.RSV, coeff)
    u = _random_poly(mesh, k, 20 + k)
    sv = SVOperator(SchemeConfig(k, Scheme.RSV), part, coeff)(u, 0.0)
    dg = DGOperator(mesh, k, coeff)(u, 0.0)
    assert np.max(np.abs(sv.coeffs - dg.coeffs)) < 1e-12 * broken_norm(u)


def test_source_quadrature_doubling():
    # Refining the per-control-volume source panel must not move the result.
    # The operator is affine in its source, so its source term is the operator
    # with the source minus the operator without it; the refined term maps
    # 8-point Gauss control-volume integrals through the same CV inverse.
    mesh = build_mesh(16)
    case = manufactured_case(1)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    config = SchemeConfig(2, Scheme.RSV)
    u = _random_poly(mesh, 2, 30)
    t = 0.2
    base = SVOperator(config, part, coeff, case.source)(u, t)
    source_term = base.coeffs - SVOperator(config, part, coeff)(u, t).coeffs
    fine = np.empty_like(source_term)
    for i in range(mesh.n_elements):
        cv = [
            integrate_panel(lambda x: case.source(x, t), a, b, 8)
            for a, b in zip(part.subpoints[i, :-1], part.subpoints[i, 1:])
        ]
        inverse = cv_matrix(RULE_KINDS[part.kinds[i]], 2)
        fine[i] = (inverse @ cv) * 2.0 / mesh.sizes[i]
    scale = max(1.0, float(np.max(np.abs(base.coeffs))))
    assert np.max(np.abs(source_term - fine)) < 1e-11 * scale


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        SchemeConfig(0, Scheme.RSV)
    with pytest.raises(InvalidConfigError):
        SchemeConfig(13, Scheme.RSV)
    mesh = build_mesh(4)
    coeff = _constant_coeff(mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    with pytest.raises(InvalidConfigError):
        SVOperator(SchemeConfig(3, Scheme.RSV), part, coeff)
    with pytest.raises(InvalidConfigError):
        SVOperator(SchemeConfig(2, Scheme.LSV), part, coeff)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_scheme_config_rejects_non_integer_order(k):
    with pytest.raises(InvalidConfigError):
        SchemeConfig(k, Scheme.RSV)


def test_scheme_config_accepts_numpy_order():
    mesh = build_mesh(6)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    u = _random_poly(mesh, 2, 4)
    op = SVOperator(SchemeConfig(np.int64(2), Scheme.RSV), part, coeff)
    assert np.array_equal(op(u, 0.0).coeffs, SVOperator(SchemeConfig(2, Scheme.RSV), part, coeff)(u, 0.0).coeffs)


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
def test_variable_coefficient_norm_growth_bound(scheme):
    # free evolution with alpha = sin x: the broken L2 norm may grow at most
    # like exp(T * max|alpha'|) = exp(T)
    k, n = 2, 16
    t_final = np.pi / 8
    mesh = build_mesh(n)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    u0 = interpolate(lambda x: np.exp(np.sin(x)), part, coeff, InterpKind.AUTO)
    op = SVOperator(SchemeConfig(k, scheme), part, coeff)
    u = integrate_to(u0, 0.0, t_final, 0.01 / n, op)
    assert broken_norm(u) <= np.exp(t_final) * broken_norm(u0) * (1 + 1e-6)


def test_constant_coefficient_dissipation():
    # alpha = 1, g = 0: RSV is L2-dissipative, LSV dissipates the transform norm
    k, n = 2, 16
    dt = 0.01 / n
    mesh = build_mesh(n)
    coeff = _constant_coeff(mesh)
    u0f = lambda x: np.exp(np.sin(x))

    part_r = build_partition(mesh, k, Scheme.RSV, coeff)
    op_r = SVOperator(SchemeConfig(k, Scheme.RSV), part_r, coeff)
    u = interpolate(u0f, part_r, coeff, InterpKind.AUTO)
    prev = broken_norm(u)
    for step in range(200):
        u = integrate_to(u, step * dt, (step + 1) * dt, dt, op_r)
        now = broken_norm(u)
        assert now <= prev + 1e-12
        prev = now

    part_l = build_partition(mesh, k, Scheme.LSV, coeff)
    op_l = SVOperator(SchemeConfig(k, Scheme.LSV), part_l, coeff)
    u = interpolate(u0f, part_l, coeff, InterpKind.AUTO)
    prev = triple_norm(u, part_l)
    for step in range(200):
        u = integrate_to(u, step * dt, (step + 1) * dt, dt, op_l)
        now = triple_norm(u, part_l)
        assert now <= prev + 1e-12
        prev = now


# -- stacked operator against a per-element reference ------------------------------


def _reference_rhs(part, coeff, u):
    """The g = 0 right-hand side built one element at a time from its own rule."""
    k = part.k
    sizes = part.mesh.sizes
    flux = upwind_fluxes(u, coeff)
    out = np.empty_like(u.coeffs)
    for i in range(part.mesh.n_elements):
        rule = make_rule(RULE_KINDS[part.kinds[i]], k)
        faces = np.empty(k + 2)
        faces[0] = flux[i]
        faces[-1] = flux[i + 1]
        x_int = part.subpoints[i, 1 : k + 1]
        faces[1:-1] = coeff.alpha(x_int) * np.polynomial.legendre.legval(
            rule.points[1 : k + 1], u.coeffs[i]
        )
        out[i] = cv_matrix(rule.kind, k) @ (faces[:-1] - faces[1:]) * 2.0 / sizes[i]
    return out


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 24),
    jitter=st.floats(0.0, 0.35),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 12),
    scheme=st.sampled_from([Scheme.RSV, Scheme.LSV]),
    tie_break=st.sampled_from([RuleKind.RADAU_RIGHT, RuleKind.RADAU_LEFT]),
    shift=st.sampled_from([0.0, np.pi / 3]),
    interp_kind=st.sampled_from(list(InterpKind)),
)
def test_stacked_operator_matches_element_loop(
    n, jitter, seed, k, scheme, tie_break, shift, interp_kind
):
    # shift = 0 puts a zero of alpha on the breakpoint x = 0.
    mesh = build_mesh(n, jitter, seed=seed)
    coeff = FluxCoefficient(lambda x: np.sin(x - shift), mesh)
    part = build_partition(mesh, k, scheme, coeff, tie_break)
    u = _random_poly(mesh, k, seed)

    out = SVOperator(SchemeConfig(k, scheme), part, coeff)(u, 0.0).coeffs
    ref = _reference_rhs(part, coeff, u)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(out - ref)) < 1e-12 * scale

    # g = 0: the flux differences telescope, so the total mass is constant.
    mass_rate = np.dot(mesh.sizes, out[:, 0])
    assert abs(mass_rate) < 1e-12 * scale

    # Interpolation reproduces the broken polynomial u from its values at the
    # nodes, which are k+1 of each element's k+2 partition points.
    nodes = interpolation_nodes(part, coeff, interp_kind)
    for i in range(n):
        assert np.all(np.isin(nodes.s[i], part.ref_points[i]))
    back = interpolate(lambda x: u.eval_ref(nodes.s), part, coeff, interp_kind)
    scale = max(1.0, float(np.max(np.abs(u.coeffs))))
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    mesh_coeff=breakpoint_zero_coefficients(),
    k=st.integers(1, 8),
    scheme=st.sampled_from([Scheme.RSV, Scheme.LSV]),
    seed=st.integers(0, 2**16),
)
def test_zeros_on_breakpoints(mesh_coeff, k, scheme, seed):
    mesh, coeff = mesh_coeff
    n = mesh.n_elements
    omega = classify_elements(mesh, coeff)
    f = lambda x: np.exp(np.sin(x))
    exact = f(mesh.breakpoints[:-1])
    a = coeff.interface_values[:-1]
    rng = np.random.default_rng(seed)
    u, v = (PiecewisePoly(mesh, k, rng.standard_normal((n, k + 1))) for _ in range(2))
    for tie_break in (RuleKind.RADAU_RIGHT, RuleKind.RADAU_LEFT):
        part = build_partition(mesh, k, scheme, coeff, tie_break)

        # Class -> rule code: 1 right Radau, 2 left Radau, 3 (a zero or a
        # sign change at an endpoint) the tie-break; LSV is Gauss throughout.
        table = {1: RuleKind.RADAU_RIGHT, 2: RuleKind.RADAU_LEFT, 3: tie_break}
        for i in range(n):
            expected = table[omega[i]] if scheme is Scheme.RSV else RuleKind.GAUSS
            assert RULE_KINDS[part.kinds[i]] is expected

        # The automatic interpolant is exact at every upwind trace.
        interp = interpolate(f, part, coeff, InterpKind.AUTO)
        uhat = np.where(a > 0.0, np.roll(interp.right_traces(), 1), interp.left_traces())
        assert np.max(np.abs(uhat - exact)) < 1e-12 * np.max(np.abs(exact))

        # The operator is linear in the state.
        op = SVOperator(SchemeConfig(k, scheme), part, coeff)
        lhs = op(2.5 * u - 0.75 * v, 0.0).coeffs
        rhs = 2.5 * op(u, 0.0).coeffs - 0.75 * op(v, 0.0).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, float(np.max(np.abs(rhs))))


@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_source_node_memo_matches_fresh_evaluation(scheme, k):
    case = manufactured_case(1)
    mesh = build_mesh(8, 0.3, seed=k)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, Scheme.LSV if scheme == "dg" else Scheme(scheme), coeff)

    def build(source):
        if scheme == "dg":
            return DGOperator(mesh, k, coeff, source)
        return SVOperator(SchemeConfig(k, part.scheme), part, coeff, source)

    op = build(case.source)
    # The source memo keeps only read-only owners; a strided array is slow.
    assert not op._src_x.flags.writeable
    assert op._src_x.flags.owndata
    assert op._src_x.flags.c_contiguous
    # a fresh writable copy of x defeats the source's node-factor memo
    fresh = build(lambda x, t: case.source(np.array(x), t))
    u0 = interpolate(case.u0, part, coeff, InterpKind.AUTO)
    assert np.array_equal(op.apply(u0.coeffs, 0.3), op(u0, 0.3).coeffs)
    got = integrate_to(u0, 0.0, 0.05, 0.01 / 8, op).coeffs
    ref = integrate_to(u0, 0.0, 0.05, 0.01 / 8, fresh).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- element-last layout against the element-stacked products ----------------------


def _element_stacked(stencil):
    """(N, k+1, 3(k+1)) full per-element blocks, columns (side, mode), of a compact stencil.

    Element i meets element i-1 only through its right trace, the sum of its
    modes, and element i+1 only through its left trace, their alternating
    sum: each neighbour block is the stencil's column times that trace row.
    """
    m, _, n = stencil.shape
    per_element = stencil.transpose(2, 0, 1)  # (N, k+1, k+3)
    right_trace, left_trace = np.ones(m), (-1.0) ** np.arange(m)
    return np.concatenate(
        [
            per_element[:, :, :1] * right_trace,
            per_element[:, :, 1 : m + 1],
            per_element[:, :, m + 1 :] * left_trace,
        ],
        axis=2,
    )


def _full_sv_patterns(kind, k):
    """((k+1) * 3(k+1), k+4) SV patterns over full neighbour columns (side, mode).

    Built as the operator's patterns are, but with every face flux a row over
    all modes of elements i-1, i and i+1.
    """
    m = k + 1
    faces = np.zeros((k + 4, k + 2, 3, m))
    faces[0, 0, 0] = 1.0                      # right trace of element i-1
    faces[1, 0, 1] = (-1.0) ** np.arange(m)   # left trace of element i
    faces[2, -1, 1] = 1.0                     # right trace of element i
    faces[3, -1, 2] = (-1.0) ** np.arange(m)  # left trace of element i+1
    interior = make_rule(kind, k).points[1 : k + 1]
    faces[4 + np.arange(k), 1 + np.arange(k), 1] = legendre_basis(k, interior)
    faces = faces.reshape(k + 4, k + 2, 3 * m)
    patterns = cv_matrix(kind, k) @ (faces[:, :-1] - faces[:, 1:])  # (k+4, m, 3m)
    return patterns.transpose(1, 2, 0).reshape(-1, k + 4)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([4]) | st.integers(4, 24),
    jitter=st.floats(0.0, 0.35),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 12),
    scheme=st.sampled_from(["rsv", "lsv", "dg"]),
    shift=st.sampled_from([0.0, np.pi / 3]),
)
def test_apply_stencil_matches_element_stacked_matmul(n, jitter, seed, k, scheme, shift):
    mesh = build_mesh(n, jitter, seed=seed)
    coeff = FluxCoefficient(lambda x: np.sin(x - shift), mesh)
    if scheme == "dg":
        op = DGOperator(mesh, k, coeff)
    else:
        variant = Scheme(scheme)
        op = SVOperator(SchemeConfig(k, variant), build_partition(mesh, k, variant, coeff), coeff)
    # Only the compact stencil and its (k+3)-row gather are kept.
    assert op._stencil.shape == (k + 1, k + 3, n)
    assert op._stencil.flags.c_contiguous and not op._stencil.flags.writeable
    assert op._gather.shape == (k + 3, n)
    c = np.random.default_rng(seed).standard_normal((n, k + 1))

    out = op.apply(c, 0.0)
    stacked = _element_stacked(op._stencil)
    i = np.arange(n)
    gathered = c[np.stack([(i - 1) % n, i, (i + 1) % n], axis=1)].reshape(n, -1, 1)
    ref = np.matmul(stacked, gathered)[..., 0]
    bound = 1e-14 * np.matmul(np.abs(stacked), np.abs(gathered))[..., 0]
    assert out.shape == (n, k + 1) and out.flags.c_contiguous
    assert np.all(np.abs(out - ref) <= bound)


@pytest.mark.parametrize(
    "scheme, alpha",
    [
        (Scheme.LSV, np.sin),                                   # Gauss everywhere
        (Scheme.RSV, lambda x: 1.5 + np.sin(x)),                # right Radau everywhere
        (Scheme.RSV, np.sin),                                   # both Radau kinds
    ],
)
@pytest.mark.parametrize("n", [4, 13, 256])
@pytest.mark.parametrize("k", [1, 2, 3, 6, 12])
def test_stencil_matches_masked_build(scheme, alpha, n, k):
    mesh = build_mesh(n, 0.3, seed=n + k)
    coeff = FluxCoefficient(alpha, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    op = SVOperator(SchemeConfig(k, scheme), part, coeff)

    # Full per-element blocks: gather each kind's elements, multiply, scatter back.
    a_int = coeff.alpha(part.subpoints[:, 1 : k + 1])
    weights = np.column_stack([upwind_weights(coeff), a_int]) * (2.0 / mesh.sizes)[:, None]
    masked = np.empty((k + 1, 3 * (k + 1), n))
    scale = np.empty_like(masked)
    for code in set(part.kinds):
        mask = part.kinds == code
        patterns = _full_sv_patterns(RULE_KINDS[code], k)
        masked.reshape(-1, n)[:, mask] = patterns @ weights[mask].T
        scale.reshape(-1, n)[:, mask] = np.abs(patterns) @ np.abs(weights[mask]).T
    masked, scale = masked.transpose(2, 0, 1), scale.transpose(2, 0, 1)
    expanded = _element_stacked(op._stencil)
    if len(set(part.kinds)) == 1:
        assert np.array_equal(expanded, masked)
    else:  # the per-kind products sum exact zeros, but BLAS may round differently
        assert np.all(np.abs(expanded - masked) <= 1e-14 * scale)


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize(
    "scheme, tie_break",
    [
        (Scheme.LSV, RuleKind.RADAU_RIGHT),
        (Scheme.RSV, RuleKind.RADAU_RIGHT),
        (Scheme.RSV, RuleKind.RADAU_LEFT),
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3, 6, 12])
def test_source_map_matches_element_stacked_reference(example, scheme, tie_break, k):
    case = manufactured_case(example)
    mesh = build_mesh(13, 0.3, seed=k)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, scheme, coeff, tie_break)
    op = SVOperator(SchemeConfig(k, scheme), part, coeff, case.source)
    t = 0.3

    # Each element's own CV quadrature and CV inverse, element index first.
    sg, wg = gauss_panel(k + SOURCE_QUAD_EXTRA)
    sp = part.subpoints
    mid = 0.5 * (sp[:, 1:] + sp[:, :-1])[..., None]
    half = 0.5 * (sp[:, 1:] - sp[:, :-1])[..., None]
    cv = np.einsum("njq,njq->nj", case.source(mid + half * sg, t), half * wg)
    cv_inv = np.array([cv_matrix(RULE_KINDS[code], k) for code in part.kinds])
    cv_inv *= (2.0 / mesh.sizes)[:, None, None]
    ref = np.matmul(cv_inv, cv[..., None])[..., 0]

    got = op._source_term(t)
    scale = np.matmul(np.abs(cv_inv), np.abs(cv)[..., None])[..., 0]
    assert op._src_map.flags.c_contiguous
    assert got.shape == (13, k + 1) and got.flags.c_contiguous
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
def test_source_maps_are_read_only(scheme, k):
    op, *_ = _case_operator(scheme, 1, 13, k, 0.3, k, True)
    assert not op._src_map.flags.writeable
    for kind in RuleKind:
        assert not _sv_source_map(kind, k).flags.writeable


@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
@pytest.mark.parametrize(
    "source",
    [
        pytest.param(lambda x, t: 1.0, id="scalar"),
        pytest.param(lambda x, t: np.ones(x.shape[-1]), id="one-per-element"),
        pytest.param(lambda x, t: np.sin(x - t)[:-1], id="row-short"),
        pytest.param(lambda x, t: np.sin(x - t) + 1j, id="complex"),
        pytest.param(lambda x, t: np.sin(x - t).astype(complex), id="complex-dtype"),
    ],
)
def test_source_must_give_real_values_of_the_nodes_shape(scheme, source):
    mesh = build_mesh(8)
    coeff = FluxCoefficient(np.sin, mesh)
    if scheme == "dg":
        op = DGOperator(mesh, 1, coeff, source)
    else:
        variant = Scheme(scheme)
        part = build_partition(mesh, 1, variant, coeff)
        op = SVOperator(SchemeConfig(1, variant), part, coeff, source)
    with pytest.raises(InvalidConfigError):
        op.apply(np.zeros((8, 2)), 0.0)


# -- dense apply on small meshes against the stencil that defines it ---------------


def _case_operator(scheme, example, n, k, jitter, seed, with_source):
    case = manufactured_case(example)
    mesh = build_mesh(n, jitter, seed=seed)
    coeff = FluxCoefficient(case.alpha, mesh)
    source = case.source if with_source else None
    if scheme == "dg":
        part = build_partition(mesh, k, Scheme.LSV, coeff)
        return DGOperator(mesh, k, coeff, source), part, coeff, case
    variant = Scheme(scheme)
    part = build_partition(mesh, k, variant, coeff)
    return SVOperator(SchemeConfig(k, variant), part, coeff, source), part, coeff, case


def _with_path(op, dense):
    """A shallow copy of op that applies its dense matrix (True) or its stencil (False)."""
    twin = copy.copy(op)
    twin._dense = _dense_matrix(op._stencil) if dense else None
    return twin


def _assert_paths_match_stencil_definition(op, seed):
    n, k = op.mesh.n_elements, op.k
    c = np.random.default_rng(seed).standard_normal((n, k + 1))
    t = 0.3
    stacked = _element_stacked(op._stencil)
    i = np.arange(n)
    gathered = c[np.stack([(i - 1) % n, i, (i + 1) % n], axis=1)].reshape(n, -1, 1)
    src = op._source_term(t) if op.source is not None else np.zeros((n, k + 1))
    ref = np.matmul(stacked, gathered)[..., 0] + src
    bound = 1e-14 * (np.matmul(np.abs(stacked), np.abs(gathered))[..., 0] + np.abs(src))
    dense, stencil = _with_path(op, True).apply(c, t), _with_path(op, False).apply(c, t)
    for out in (dense, stencil):
        assert out.shape == (n, k + 1) and out.flags.c_contiguous
        assert np.all(np.abs(out - ref) <= bound)
    # The operator takes the dense path exactly at or below the switch.
    assert np.array_equal(op.apply(c, t), dense if n * (k + 1) <= _DENSE_MAX_UNKNOWNS else stencil)


@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("n", [2, 3])
def test_dense_apply_matches_stencil_with_aliased_neighbours(n, k, scheme, with_source):
    # n = 2: the left and right neighbours are one element; n = 3: all three differ.
    op, *_ = _case_operator(scheme, 1, n, k, 0.3, n + k, with_source)
    _assert_paths_match_stencil_definition(op, seed=n * 100 + k)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 48),
    k=st.integers(1, 12),
    scheme=st.sampled_from(["rsv", "lsv", "dg"]),
    example=st.sampled_from([1, 2]),
    with_source=st.booleans(),
    jitter=st.floats(0.0, 0.35),
    seed=st.integers(0, 2**16),
)
def test_dense_apply_matches_stencil_on_random_meshes(n, k, scheme, example, with_source, jitter, seed):
    op, *_ = _case_operator(scheme, example, n, k, jitter, seed, with_source)
    _assert_paths_match_stencil_definition(op, seed)


@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
def test_integrate_to_on_dense_path_matches_stencil_path(scheme, k, with_source):
    op, part, coeff, case = _case_operator(scheme, 1, 8, k, 0.2, k, with_source)
    assert op._dense is not None
    u0 = interpolate(case.u0, part, coeff, InterpKind.AUTO)
    got = integrate_to(u0, 0.0, 0.05, 0.01 / 8, op).coeffs
    ref = integrate_to(u0, 0.0, 0.05, 0.01 / 8, _with_path(op, False)).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("scheme", ["rsv", "lsv", "dg"])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_dense_matrix_is_read_only_and_only_on_small_meshes(scheme, k):
    largest = _DENSE_MAX_UNKNOWNS // (k + 1)  # elements of the largest dense mesh
    for n in (2, 3, largest, largest + 1):
        op, *_ = _case_operator(scheme, 1, n, k, 0.2, n, False)
        size = n * (k + 1)
        if size > _DENSE_MAX_UNKNOWNS:
            assert op._dense is None
            continue
        assert op._dense.shape == (size, size)
        assert not op._dense.flags.writeable
        # Column j is A applied to the j-th unit vector by the stencil path.
        stencil = _with_path(op, False)
        units = np.eye(size)
        columns = [stencil.apply(e.reshape(n, k + 1), 0.0).ravel() for e in units]
        assert np.array_equal(op._dense, np.column_stack(columns))
