import random

import numpy as np
import pytest

from svkit.exceptions import InvalidConfigError
from svkit.mesh import (
    FluxCoefficient,
    Mesh1D,
    Scheme,
    build_mesh,
    build_partition,
    classify_elements,
)
from svkit.quadrature import RULE_KINDS, RuleKind, make_rule


def test_uniform_breakpoints():
    mesh = build_mesh(4)
    np.testing.assert_allclose(
        mesh.breakpoints, [0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi], atol=1e-15
    )


def test_two_elements():
    mesh = build_mesh(2)
    np.testing.assert_allclose(mesh.sizes, [np.pi, np.pi], atol=1e-15)


def test_perturbed_mesh_ratio_bound():
    # jitter <= 0.2 h on each interior breakpoint keeps sizes in [0.6h, 1.4h]
    for seed in range(5):
        mesh = build_mesh(8, 0.2, seed=seed)
        assert np.all(np.diff(mesh.breakpoints) > 0)
        h = mesh.sizes
        assert h.max() / h.min() <= 1.4 / 0.6 + 1e-12


def test_perturbed_mesh_deterministic():
    a = build_mesh(16, 0.3, seed=42)
    b = build_mesh(16, 0.3, seed=42)
    np.testing.assert_array_equal(a.breakpoints, b.breakpoints)


def test_jitter_is_drawn_from_the_standard_library_generator():
    n, p = 16, 0.3
    rng = random.Random(42)
    expected = np.linspace(0.0, 2 * np.pi, n + 1)
    expected[1:-1] += [(2.0 * rng.random() - 1.0) * p * (2 * np.pi / n) for _ in range(n - 1)]
    np.testing.assert_array_equal(build_mesh(n, p, seed=42).breakpoints, expected)
    np.testing.assert_array_equal(build_mesh(n).breakpoints, np.linspace(0.0, 2 * np.pi, n + 1))


def test_jitter_stays_below_its_bound():
    # Each jitter lies in [-p h, p h); adding it to a breakpoint and taking it
    # back off again costs at most a rounding of 2*pi.
    n, p = 64, 0.35
    bound, slack = p * (2 * np.pi / n), 8e-16
    uniform = np.linspace(0.0, 2 * np.pi, n + 1)
    jitter = np.concatenate(
        [build_mesh(n, p, seed=seed).breakpoints[1:-1] - uniform[1:-1] for seed in range(100)]
    )
    assert np.all(jitter >= -bound - slack) and np.all(jitter < bound + slack)
    # The draws cover the interval, not one side of it.
    assert jitter.min() < -0.99 * bound and jitter.max() > 0.99 * bound


def test_bad_configs_rejected():
    with pytest.raises(InvalidConfigError):
        build_mesh(1)
    with pytest.raises(InvalidConfigError):
        build_mesh(8, 0.4)
    with pytest.raises(InvalidConfigError):
        build_mesh(8, -0.1)
    with pytest.raises(InvalidConfigError):
        build_mesh(8, 0.1, seed=-1)
    with pytest.raises(InvalidConfigError):
        build_mesh(8, 0.1, seed=1.5)
    with pytest.raises(InvalidConfigError):
        build_mesh(8, 0.1, seed=True)
    for n in (2.5, 8.0, np.float64(8), "8", True):
        with pytest.raises(InvalidConfigError):
            build_mesh(n)
    for perturbation in ("x", True, np.nan):
        with pytest.raises(InvalidConfigError):
            build_mesh(8, perturbation)
    for n, seed in ((np.int64(8), 2), (8, np.int64(2)), (np.int64(8), np.int64(2))):
        np.testing.assert_array_equal(
            build_mesh(n, 0.1, seed=seed).breakpoints, build_mesh(8, 0.1, seed=2).breakpoints
        )
    with pytest.raises(InvalidConfigError):
        Mesh1D(np.array([0.0, 1.0, 2.0]))  # does not reach 2*pi
    with pytest.raises(InvalidConfigError, match="at least 2 elements"):
        Mesh1D(np.array([0.0, 2 * np.pi]))
    with pytest.raises(InvalidConfigError, match="strictly increasing"):
        Mesh1D(np.array([0.0, 3.0, 3.0, 2 * np.pi]))
    with pytest.raises(InvalidConfigError, match="shape regularity"):
        Mesh1D(np.array([0.0, 0.5, 2 * np.pi]))  # element sizes 0.5 and 5.78
    mesh = build_mesh(8)
    coeff = FluxCoefficient(np.sin, mesh)
    with pytest.raises(InvalidConfigError, match="tie_break"):
        build_partition(mesh, 2, Scheme.RSV, coeff, tie_break=RuleKind.GAUSS)
    with pytest.raises(InvalidConfigError, match="unknown scheme"):
        build_partition(mesh, 2, "rsv", coeff)
    for alpha in (
        lambda x: 1.0,  # a scalar, not one value per breakpoint
        lambda x: np.ones(x.size - 1),
        lambda x: np.ones((x.size, 1)),
        lambda x: np.where(x > 3.0, np.nan, np.sin(x)),
        lambda x: np.full_like(x, np.inf),
        lambda x: np.sin(x) + 1j,  # complex: its imaginary part would be dropped
        lambda x: np.sin(x).astype(complex),
    ):
        with pytest.raises(InvalidConfigError):
            FluxCoefficient(alpha, mesh)


def test_coefficient_cache_matches_direct():
    mesh = build_mesh(10, 0.2, seed=1)
    coeff = FluxCoefficient(np.sin, mesh)
    direct = np.sin(mesh.breakpoints)
    assert np.max(np.abs(coeff.interface_values[:-1] - direct[:-1])) < 1e-13
    # wrap-around value is identified with x = 0
    assert coeff.interface_values[-1] == coeff.interface_values[0]


def test_zero_snapping():
    mesh = build_mesh(8)
    coeff = FluxCoefficient(np.sin, mesh)
    # sin at 0, pi, 2*pi evaluates to ~1e-16: snapped to exactly zero
    assert coeff.interface_values[0] == 0.0
    assert coeff.interface_values[4] == 0.0
    assert coeff.interface_values[8] == 0.0
    np.testing.assert_array_equal(coeff.interface_signs[:5], [0, 1, 1, 1, 0])


def test_classification_sine():
    mesh = build_mesh(8)
    coeff = FluxCoefficient(np.sin, mesh)
    omega = classify_elements(mesh, coeff)
    np.testing.assert_array_equal(omega, [3, 1, 1, 3, 3, 2, 2, 3])


def test_classification_constant():
    mesh = build_mesh(6)
    coeff = FluxCoefficient(lambda x: np.ones_like(x), mesh)
    assert np.all(classify_elements(mesh, coeff) == 1)


def test_classification_sine_squared():
    mesh4 = build_mesh(4)
    coeff4 = FluxCoefficient(lambda x: np.sin(x) ** 2, mesh4)
    assert np.all(classify_elements(mesh4, coeff4) == 3)
    mesh8 = build_mesh(8)
    coeff8 = FluxCoefficient(lambda x: np.sin(x) ** 2, mesh8)
    np.testing.assert_array_equal(classify_elements(mesh8, coeff8), [3, 1, 1, 3, 3, 1, 1, 3])


@pytest.mark.parametrize("n", [8, 16, 64, 100])
def test_mixed_class_count_bounded(n):
    mesh = build_mesh(n)
    coeff = FluxCoefficient(np.sin, mesh)
    assert int(np.sum(classify_elements(mesh, coeff) == 3)) <= 6


def test_lsv_partition_all_gauss():
    mesh = build_mesh(8)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.LSV, coeff)
    assert part.kinds.dtype == np.int8 and not part.kinds.flags.writeable
    assert all(RULE_KINDS[code] is RuleKind.GAUSS for code in part.kinds)


def test_rsv_partition_by_sign():
    mesh = build_mesh(8)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    expected = [
        RuleKind.RADAU_RIGHT,  # tie-break at the snapped zero of sin at x = 0
        RuleKind.RADAU_RIGHT,
        RuleKind.RADAU_RIGHT,
        RuleKind.RADAU_RIGHT,  # tie-break
        RuleKind.RADAU_RIGHT,  # tie-break
        RuleKind.RADAU_LEFT,
        RuleKind.RADAU_LEFT,
        RuleKind.RADAU_RIGHT,  # tie-break
    ]
    assert [RULE_KINDS[code] for code in part.kinds] == expected
    part_left = build_partition(mesh, 2, Scheme.RSV, coeff, tie_break=RuleKind.RADAU_LEFT)
    assert RULE_KINDS[part_left.kinds[0]] is RuleKind.RADAU_LEFT
    assert RULE_KINDS[part_left.kinds[1]] is RuleKind.RADAU_RIGHT


def test_rsv_subpoints_affine_map():
    mesh = build_mesh(2)
    coeff = FluxCoefficient(lambda x: np.ones_like(x), mesh)
    part = build_partition(mesh, 1, Scheme.RSV, coeff)
    assert all(RULE_KINDS[code] is RuleKind.RADAU_RIGHT for code in part.kinds)
    np.testing.assert_allclose(part.subpoints[0], [0.0, np.pi / 3, np.pi], atol=1e-13)


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_invariants(scheme, k):
    mesh = build_mesh(10, 0.25, seed=3)
    coeff = FluxCoefficient(np.sin, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    np.testing.assert_array_equal(part.subpoints[:, 0], mesh.breakpoints[:-1])
    np.testing.assert_array_equal(part.subpoints[:, -1], mesh.breakpoints[1:])
    assert np.all(np.diff(part.subpoints, axis=1) > 0)
    # subweights integrate constants over the element
    np.testing.assert_allclose(part.subweights.sum(axis=1), mesh.sizes, rtol=1e-13)
    # affine-map consistency against the reference points
    for i in range(mesh.n_elements):
        rule = make_rule(RULE_KINDS[part.kinds[i]], k)
        np.testing.assert_array_equal(part.ref_points[i], rule.points)
        mapped = mesh.centers[i] + 0.5 * mesh.sizes[i] * rule.points
        assert np.max(np.abs(part.subpoints[i] - mapped)) < 1e-13


def test_classification_pure_in_cached_signs():
    mesh = build_mesh(12, 0.2, seed=9)
    coeff = FluxCoefficient(np.sin, mesh)
    again = FluxCoefficient(np.sin, mesh)
    np.testing.assert_array_equal(
        classify_elements(mesh, coeff), classify_elements(mesh, again)
    )
