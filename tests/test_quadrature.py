import math

import numpy as np
import pytest

from svkit.exceptions import InvalidConfigError
from svkit.quadrature import (
    RuleKind,
    _build_rule,
    gauss_panel,
    legendre_basis_deriv,
    make_rule,
)

from poly_reference import exact_degree, integrate_panel

ALL_KINDS = list(RuleKind)


def test_legendre_constant():
    vals, ders = legendre_basis_deriv(0, 0.37)
    assert vals[0] == 1.0
    assert ders[0] == 0.0


def test_legendre_normalization_at_one():
    vals, _ = legendre_basis_deriv(12, 1.0)
    for k in range(13):
        assert vals[k] == pytest.approx(1.0, abs=1e-14)


def test_legendre_quadratic_closed_form():
    vals, ders = legendre_basis_deriv(2, 0.0)
    assert vals[2] == pytest.approx(-0.5, abs=1e-15)
    assert ders[2] == pytest.approx(0.0, abs=1e-15)
    # (3 s^2 - 1) / 2 at a generic point
    s = 0.731
    vals, ders = legendre_basis_deriv(2, s)
    assert vals[2] == pytest.approx((3 * s * s - 1) / 2, abs=1e-14)
    assert ders[2] == pytest.approx(3 * s, abs=1e-14)


def test_basis_derivative_consistency():
    s = np.linspace(-1, 1, 7)
    vals, ders = legendre_basis_deriv(6, s)
    eps = 1e-6
    vp, _ = legendre_basis_deriv(6, s + eps)
    vm, _ = legendre_basis_deriv(6, s - eps)
    fd = (vp - vm) / (2 * eps)
    assert np.max(np.abs(fd - ders)) < 1e-8


def test_gauss_k1_rule():
    rule = make_rule(RuleKind.GAUSS, 1)
    np.testing.assert_allclose(rule.points, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.0, 2.0, 0.0], atol=1e-14)


def test_radau_right_k1_rule():
    # Roots of L2 - L1 = (3s+1)(s-1)/2; weights from the 2x2 moment system
    # sum(w) = 2, sum(w s) = 0 -> w = (3/2, 1/2); cross-check on s^2: 2/3.
    rule = make_rule(RuleKind.RADAU_RIGHT, 1)
    np.testing.assert_allclose(rule.points, [-1.0, -1.0 / 3.0, 1.0], atol=1e-14)
    nodes = np.array([-1.0 / 3.0, 1.0])
    moments = np.array([2.0, 0.0])
    w = np.linalg.solve(np.vstack([nodes**0, nodes**1]), moments)
    assert np.dot(w, nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-14)
    np.testing.assert_allclose(rule.weights, [0.0, *w], atol=1e-13)


def test_radau_left_k1_rule():
    rule = make_rule(RuleKind.RADAU_LEFT, 1)
    np.testing.assert_allclose(rule.points, [-1.0, 1.0 / 3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(rule.weights, [0.5, 1.5, 0.0], atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", range(1, 13))
def test_rule_invariants(kind, k):
    rule = make_rule(kind, k)
    assert rule.points.size == k + 2
    assert rule.points[0] == -1.0 and rule.points[-1] == 1.0
    assert np.all(np.diff(rule.points) > 0)
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-13)
    if kind is RuleKind.GAUSS:
        assert rule.weights[0] == 0.0 and rule.weights[-1] == 0.0
        assert np.all(rule.weights[1:-1] > 0)
    elif kind is RuleKind.RADAU_RIGHT:
        assert rule.weights[0] == 0.0 and rule.weights[-1] > 0
    else:
        assert rule.weights[-1] == 0.0 and rule.weights[0] > 0


@pytest.mark.parametrize("k", range(1, 13))
def test_mirror_symmetry(k):
    right = make_rule(RuleKind.RADAU_RIGHT, k)
    left = make_rule(RuleKind.RADAU_LEFT, k)
    np.testing.assert_allclose(left.points, np.sort(-right.points), atol=1e-13)
    np.testing.assert_allclose(left.weights, right.weights[::-1], atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", range(1, 7))
def test_monomial_exactness(kind, k):
    rule = make_rule(kind, k)
    for degree in range(exact_degree(kind, k) + 1):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        approx = rule.weights @ rule.points**degree
        assert abs(approx - exact) < 1e-12 * max(1.0, abs(exact)), (kind, k, degree)


@pytest.mark.parametrize("k", range(1, 7))
def test_gauss_remainder_constant(k):
    # Classical k-point Gauss remainder applied to s^(2k), whose 2k-th
    # derivative is (2k)!.
    rule = make_rule(RuleKind.GAUSS, k)
    actual = 2.0 / (2 * k + 1) - rule.weights @ rule.points ** (2 * k)
    expected = (
        2.0 ** (2 * k + 1)
        * math.factorial(k) ** 4
        / ((2 * k + 1) * math.factorial(2 * k) ** 2)
    )
    assert actual == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "kind,endpoint", [(RuleKind.RADAU_RIGHT, 1.0), (RuleKind.RADAU_LEFT, -1.0)]
)
@pytest.mark.parametrize("k", range(1, 7))
def test_radau_remainder_constant(kind, k, endpoint):
    # Remainder on s^(2k+1) equals the integral of the squared interior node
    # polynomial times (s -+ 1), computed by an independent Gauss panel.
    rule = make_rule(kind, k)
    actual = 0.0 - rule.weights @ rule.points ** (2 * k + 1)
    interior = rule.points[1 : k + 1]

    def kernel(s):
        return np.prod((s[:, None] - interior[None, :]) ** 2, axis=1) * (s - endpoint)

    expected = integrate_panel(kernel, -1.0, 1.0, 2 * k + 4)
    assert actual == pytest.approx(expected, rel=1e-10)


def test_node_residuals_small():
    for kind in ALL_KINDS:
        for k in range(1, 13):
            rule = make_rule(kind, k)
            vals, _ = legendre_basis_deriv(k + 1, rule.points[1 : k + 1])
            if kind is RuleKind.GAUSS:
                resid = vals[:, k]
            elif kind is RuleKind.RADAU_RIGHT:
                resid = vals[:, k + 1] - vals[:, k]
            else:
                resid = vals[:, k + 1] + vals[:, k]
            assert np.max(np.abs(resid)) < 1e-13


# -- Gauss panels -----------------------------------------------------------------

PANEL_SIZES = range(1, 21)


@pytest.mark.parametrize("m", PANEL_SIZES)
def test_gauss_panel_matches_numpy_leggauss(m):
    # numpy's eigen-solver rule, loaded here only.  Measured over m = 1..20:
    # nodes within 1.2e-16 absolute; weights within 1.5e-14 relative up to
    # m = 15 and 8.3e-14 at m = 18, where against 40-digit references the
    # larger error is leggauss's own (8.4e-14, against 1.8e-15 here).
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(m)
    nodes, weights = gauss_panel(m)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1.2e-16
    assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-13


@pytest.mark.parametrize("m", PANEL_SIZES)
def test_gauss_panel_integrates_monomials_to_degree_2m_minus_1(m):
    nodes, weights = gauss_panel(m)
    for degree in range(2 * m):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(weights @ nodes**degree - exact) < 1e-14, (m, degree)


@pytest.mark.parametrize("m", PANEL_SIZES)
def test_gauss_panel_is_symmetric_and_read_only(m):
    nodes, weights = gauss_panel(m)
    assert nodes.shape == weights.shape == (m,)
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_integrate_panel_quadratic():
    assert integrate_panel(lambda s: s**2, -1, 1, 2) == pytest.approx(2 / 3, rel=1e-14)


def test_integrate_panel_constant():
    assert integrate_panel(lambda s: np.ones_like(s), 0, 2 * np.pi, 1) == pytest.approx(
        2 * np.pi, rel=1e-14
    )


def test_integrate_panel_inexact_beyond_degree():
    # Two-point Gauss evaluates s^4 at +-1/sqrt(3): 2 * (1/3)^2 = 2/9, not the
    # analytic 2/5; the rule is only exact through degree 3.
    approx = integrate_panel(lambda s: s**4, -1, 1, 2)
    assert approx == pytest.approx(2 / 9, rel=1e-14)
    assert abs(approx - 2 / 5) > 0.1


def test_order_range_rejected():
    with pytest.raises(InvalidConfigError):
        make_rule(RuleKind.GAUSS, 0)
    with pytest.raises(InvalidConfigError):
        make_rule(RuleKind.GAUSS, 13)


@pytest.mark.parametrize("warm", [False, True])
def test_order_type_checked_whatever_is_cached(warm):
    # A float order equals the cached integer key, so it must be rejected
    # before the cache is consulted; a NumPy integer is accepted either way.
    _build_rule.cache_clear()
    if warm:
        for k in (1, 2, 3):
            make_rule(RuleKind.GAUSS, k)
    with pytest.raises(InvalidConfigError):
        make_rule(RuleKind.GAUSS, 2.0)
    with pytest.raises(InvalidConfigError):
        make_rule(RuleKind.GAUSS, True)
    rule = make_rule(RuleKind.GAUSS, np.int64(3))
    assert type(rule.k) is int and rule.k == 3
    assert rule is make_rule(RuleKind.GAUSS, 3)
