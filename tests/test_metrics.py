import numpy as np
import pytest
import svkit.metrics
import svkit.poly
from hypothesis import given, settings
from hypothesis import strategies as st

from svkit.cases import manufactured_case
from svkit.exceptions import BelowRoundoffError
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition
from svkit.metrics import (
    ErrorReport,
    _BISECT_STEPS,
    _reference_extrema,
    convergence_orders,
    error_report,
)
from svkit.poly import (
    InterpKind,
    PiecewisePoly,
    _nodes_without,
    auto_interp_kinds,
    broken_norm,
    interpolate,
    interpolation_nodes,
)
from svkit.quadrature import RuleKind, gauss_panel

from strategies import breakpoint_zero_coefficients


# -- extrema points ---------------------------------------------------------------


def _extrema(nodes):
    """The stationary points of prod (x - nodes_j) for one strictly increasing node set."""
    return svkit.metrics._extrema(np.asarray(nodes, dtype=float))


def test_extrema_two_nodes():
    np.testing.assert_allclose(_extrema([0.0, 1.0]), [0.5], atol=1e-13)
    # The order-1 Gauss rule's points are -1, 0, 1; leaving out -1 (key 0 * 3 + 0) gives the nodes 0, 1.
    z = _reference_extrema(0, 1)
    np.testing.assert_allclose(z, [0.5], atol=1e-13)
    assert not z.flags.writeable


def test_extrema_three_symmetric_nodes():
    z = _extrema([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(z, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-13)


def test_extrema_against_dense_scan():
    nodes = np.array([0.0, 1.0, 4.0])
    z = _extrema(nodes)
    xs = np.linspace(0.0, 4.0, 400001)
    omega = np.prod(xs[:, None] - nodes[None, :], axis=1)
    flips = np.nonzero(np.diff(np.sign(np.diff(omega))))[0]
    scan = xs[flips + 1]
    assert z.size == scan.size == 2
    np.testing.assert_allclose(z, scan, atol=1e-4)
    # verify to bisection accuracy with the derivative itself
    deriv = np.array(
        [sum(np.prod(np.delete(zz - nodes, j)) for j in range(3)) for zz in z]
    )
    assert np.max(np.abs(deriv)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2,
        max_size=6,
        unique=True,
    )
)
def test_extrema_interlace(nodes):
    nodes = np.sort(np.asarray(nodes))
    if np.min(np.diff(nodes)) < 1e-3:
        return
    z = _extrema(nodes)
    assert np.all(z > nodes[:-1])
    assert np.all(z < nodes[1:])


def _omega_prime_per_gap(x, nodes):
    """Derivative of prod_j (x - nodes_j), evaluated via the product-rule sum."""
    diff = x[..., None] - nodes  # (..., k+1)
    total = np.zeros_like(x)
    for j in range(nodes.shape[-1]):
        total += np.prod(np.delete(diff, j, axis=-1), axis=-1)
    return total


def _extrema_per_gap(nodes):
    """Reference bisection: one gap at a time, element-first arrays."""
    lo = nodes[:, :-1].copy()
    hi = nodes[:, 1:].copy()
    k = lo.shape[1]
    sign_lo = np.broadcast_to(np.where((k - np.arange(k)) % 2 == 0, 1.0, -1.0), lo.shape)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        fm = np.empty_like(mid)
        for j in range(k):
            fm[:, j] = _omega_prime_per_gap(mid[:, j], nodes)
        same = fm * sign_lo > 0.0
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("k", range(1, 13))
def test_extrema_batch_bit_identical_to_per_gap_bisection(k):
    rng = np.random.default_rng(k)
    gaps = rng.uniform(0.01, 1.0, (40, k + 1))
    nodes = np.cumsum(gaps, axis=1) + rng.uniform(-5.0, 5.0, (40, 1))
    for row, expected in zip(nodes, _extrema_per_gap(nodes)):
        z = _extrema(row)
        assert z.flags.c_contiguous
        assert np.array_equal(z, expected)


@pytest.mark.parametrize("scheme", [Scheme.LSV, Scheme.RSV])
@pytest.mark.parametrize("k", [1, 2, 3, 6, 12])
def test_extrema_batch_bit_identical_on_interpolation_nodes(scheme, k):
    case = manufactured_case(1)
    mesh = build_mesh(13, 0.3, seed=k)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, scheme, coeff)
    nodes = interpolation_nodes(part, coeff, InterpKind.AUTO).x
    for row, expected in zip(nodes, _extrema_per_gap(nodes)):
        assert np.array_equal(_extrema(row), expected)


# Mapping each reference node set's extrema into the elements moves them by
# roundoff only, against bisecting every element's domain nodes.
_MAPPED_EXTREMA_TOL = 4 * np.spacing(2 * np.pi)


def _assert_mapped_extrema_match_bisection(part, coeff):
    z, s_z = _nodes_without(part, auto_interp_kinds(part, coeff), _reference_extrema)
    assert np.max(np.abs(z - _extrema_per_gap(interpolation_nodes(part, coeff).x))) <= _MAPPED_EXTREMA_TOL
    nodes = interpolation_nodes(part, coeff).s
    assert np.all((nodes[:, :-1] < s_z) & (s_z < nodes[:, 1:]))


@pytest.mark.parametrize(
    "scheme, tie_break",
    [(Scheme.LSV, RuleKind.RADAU_RIGHT), (Scheme.LSV, RuleKind.RADAU_LEFT),
     (Scheme.RSV, RuleKind.RADAU_RIGHT), (Scheme.RSV, RuleKind.RADAU_LEFT)],
)
@pytest.mark.parametrize("k", range(1, 13))
def test_mapped_reference_extrema_match_per_element_bisection(scheme, tie_break, k):
    # Uniform even meshes put the zeros of alpha = sin x on breakpoints.
    case = manufactured_case(1)
    for n, perturbation in ((8, 0.0), (13, 0.3), (64, 0.0), (2048, 0.3)):
        mesh = build_mesh(n, perturbation, seed=k)
        coeff = FluxCoefficient(case.alpha, mesh)
        _assert_mapped_extrema_match_bisection(build_partition(mesh, k, scheme, coeff, tie_break), coeff)


@settings(max_examples=40, deadline=None)
@given(
    mesh_coeff=breakpoint_zero_coefficients(),
    k=st.integers(1, 12),
    scheme=st.sampled_from([Scheme.RSV, Scheme.LSV]),
    tie_break=st.sampled_from([RuleKind.RADAU_RIGHT, RuleKind.RADAU_LEFT]),
)
def test_mapped_reference_extrema_with_zeros_on_breakpoints(mesh_coeff, k, scheme, tie_break):
    mesh, coeff = mesh_coeff
    _assert_mapped_extrema_match_bisection(build_partition(mesh, k, scheme, coeff, tie_break), coeff)


# -- error functionals --------------------------------------------------------------


FLUX_FIELDS = ("flux_gap_l2", "flux_cell_rms", "flux_node_rms", "flux_iface_rms", "flux_deriv_rms")
SOLUTION_FIELDS = (
    "gap_l2", "cell_rms", "node_rms", "iface_rms", "extrema_value_rms", "extrema_deriv_rms"
)


def _setup(n=16, k=2, seed=0):
    case = manufactured_case(1)
    mesh = build_mesh(n)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, Scheme.RSV, coeff)
    return case, mesh, coeff, part


def _report(u_h, u, u_x, coeff, part):
    return error_report(u_h, u, u_x, coeff, part, scheme="rsv", t_final=0.0)


def test_functionals_vanish_on_interpolant():
    case, mesh, coeff, part = _setup()
    t = 0.7
    u = lambda x: case.u_exact(x, t)
    u_x = lambda x: case.u_x(x, t)
    u_h = interpolate(u, part, coeff, InterpKind.AUTO)
    report = _report(u_h, u, u_x, coeff, part)
    assert report.flux_gap_l2 == pytest.approx(0.0, abs=1e-13)
    assert report.flux_node_rms == pytest.approx(0.0, abs=1e-12)
    assert report.flux_iface_rms == pytest.approx(0.0, abs=1e-12)
    assert report.gap_l2 == pytest.approx(0.0, abs=1e-13)
    assert report.node_rms == pytest.approx(0.0, abs=1e-12)
    assert report.iface_rms == pytest.approx(0.0, abs=1e-12)


def test_flux_functionals_vanish_for_zero_coefficient():
    case, mesh, _, _ = _setup()
    zero = FluxCoefficient(lambda x: np.zeros_like(x), mesh)
    part = build_partition(mesh, 2, Scheme.RSV, zero)
    rng = np.random.default_rng(1)
    u_h = PiecewisePoly(mesh, 2, rng.standard_normal((16, 3)))
    t = 0.2
    report = _report(u_h, lambda x: case.u_exact(x, t), lambda x: case.u_x(x, t), zero, part)
    assert all(getattr(report, f) == pytest.approx(0.0, abs=1e-14) for f in FLUX_FIELDS)


def test_all_functionals_zero_for_exact_constant():
    _, mesh, coeff, part = _setup()
    coeffs = np.zeros((16, 3))
    coeffs[:, 0] = 2.5
    u_h = PiecewisePoly(mesh, 2, coeffs)
    const = lambda x: np.full_like(x, 2.5)
    zero_fn = lambda x: np.zeros_like(x)
    report = _report(u_h, const, zero_fn, coeff, part)
    assert all(getattr(report, f) == pytest.approx(0.0, abs=1e-13) for f in SOLUTION_FIELDS)


def test_absolute_homogeneity():
    # Scaling the mismatch field scales every functional by the same factor.
    case, mesh, coeff, part = _setup()
    rng = np.random.default_rng(5)
    d = PiecewisePoly(mesh, 2, 1e-3 * rng.standard_normal((16, 3)))
    t = 0.4
    u = lambda x: case.u_exact(x, t)
    u_x = lambda x: case.u_x(x, t)
    base = interpolate(u, part, coeff, InterpKind.AUTO)
    lam = 3.0
    # the interpolant part cancels: mismatch is exactly d (resp. lam*d) plus
    # the fixed interpolation gap; compare through differences of reports
    r1 = _report(base + d, u, u_x, coeff, part)
    r2 = _report(base + lam * d, u, u_x, coeff, part)
    # gap_l2 (distance to the interpolant) is exactly homogeneous
    assert r2.gap_l2 == pytest.approx(lam * r1.gap_l2, rel=1e-12)
    assert r2.flux_gap_l2 == pytest.approx(lam * r1.flux_gap_l2, rel=1e-12)


def test_gap_recomputed_independently():
    case, mesh, coeff, part = _setup()
    rng = np.random.default_rng(9)
    u_h = interpolate(case.u0, part, coeff, InterpKind.AUTO) + PiecewisePoly(
        mesh, 2, 1e-4 * rng.standard_normal((16, 3))
    )
    t = 0.0
    report = error_report(
        u_h,
        lambda x: case.u_exact(x, t),
        lambda x: case.u_x(x, t),
        coeff,
        part,
        scheme="rsv",
        t_final=t,
    )
    interp = interpolate(lambda x: case.u_exact(x, t), part, coeff, InterpKind.AUTO)
    independent = broken_norm(u_h - interp, "l2")
    assert report.gap_l2 == pytest.approx(independent, rel=1e-12)
    for name in ErrorReport.METRIC_FIELDS:
        value = getattr(report, name)
        assert value is None or (np.isfinite(value) and value >= 0.0)


def _twin_fields(u_sv, u_dg):
    """The SV-minus-DG fields of the report of u_sv, with u_dg as its twin."""
    case, _, coeff, part = _setup()
    report = error_report(
        u_sv, case.u0, lambda x: case.u_x(x, 0.0), coeff, part, scheme="rsv", t_final=0.0, u_dg=u_dg
    )
    return report.dg_diff_l2, report.dg_diff_flux_cell_rms, report.dg_diff_cell_rms


def test_twin_fields_vanish_for_identical_states():
    _, mesh, coeff, _ = _setup()
    rng = np.random.default_rng(3)
    u = PiecewisePoly(mesh, 2, rng.standard_normal((16, 3)))
    l2, fc, cc = _twin_fields(u, u.copy())
    assert l2 == 0.0 and fc == 0.0 and cc == 0.0


def test_twin_fields_read_a_mean_shift():
    _, mesh, coeff, _ = _setup()
    rng = np.random.default_rng(4)
    u = PiecewisePoly(mesh, 2, rng.standard_normal((16, 3)))
    d = np.zeros((16, 3))
    d[:, 0] = 1e-3
    v = PiecewisePoly(mesh, 2, u.coeffs + d)
    l2, fc, cc = _twin_fields(u, v)
    assert cc == pytest.approx(1e-3, rel=1e-12)
    assert l2 == pytest.approx(1e-3 * np.sqrt(2 * np.pi), rel=1e-12)


# -- one-pass report against each functional's own definition ---------------------


def _defined_fields(u_h, u, u_x, coeff, part, u_dg):
    """Every report field from its definition: norms, interpolant and samples of their own."""
    mesh, k, n = part.mesh, part.k, part.mesh.n_elements
    rms = lambda v: float(np.sqrt(np.sum(v ** 2) / n))
    gap = u_h - interpolate(u, part, coeff, InterpKind.AUTO)
    sg, wg = gauss_panel(k + 3)
    xq = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * sg[None, :]
    mismatch = u(xq) - u_h.eval_ref(sg)
    a_if = coeff.interface_values[1:]
    u_if = u(mesh.breakpoints[1:])
    uhat = np.where(a_if > 0.0, u_h.right_traces(), np.roll(u_h.left_traces(), -1))
    nodes = interpolation_nodes(part, coeff, InterpKind.AUTO)
    node_mismatch = u(nodes.x) - u_h.eval_ref(nodes.s)
    z, s_z = _nodes_without(part, auto_interp_kinds(part, coeff), _reference_extrema)
    dz = u_x(z) - u_h.eval_ref_deriv(s_z)
    fields = dict(
        l2=broken_norm(u_h, "l2", reference=u),
        linf=broken_norm(u_h, "linf", reference=u),
        flux_gap_l2=float(
            np.sqrt(0.5 * np.dot(mesh.sizes, ((gap.eval_ref(sg) * coeff.alpha(xq)) ** 2) @ wg))
        ),
        flux_cell_rms=float(np.sqrt(np.mean((0.5 * ((coeff.alpha(xq) * mismatch) @ wg)) ** 2))),
        flux_node_rms=rms(coeff.alpha(nodes.x) * node_mismatch),
        flux_iface_rms=float(np.sqrt(np.mean((a_if * u_if - a_if * uhat) ** 2))),
        flux_deriv_rms=rms(coeff.alpha(z) * dz),
        gap_l2=broken_norm(gap, "l2"),
        cell_rms=float(np.sqrt(np.mean((0.5 * (mismatch @ wg)) ** 2))),
        node_rms=rms(node_mismatch),
        iface_rms=float(np.sqrt(np.mean((u_if - uhat) ** 2))),
        extrema_value_rms=rms(u(z) - u_h.eval_ref(s_z)),
        extrema_deriv_rms=rms(dz),
        dg_diff_l2=None, dg_diff_flux_cell_rms=None, dg_diff_cell_rms=None,
    )
    if u_dg is not None:
        diff = u_h - u_dg
        flux_cell = 0.5 * ((coeff.alpha(xq) * diff.eval_ref(sg)) @ wg)
        fields.update(
            dg_diff_l2=broken_norm(diff, "l2"),
            dg_diff_flux_cell_rms=rms(flux_cell),
            dg_diff_cell_rms=rms(diff.coeffs[:, 0]),
        )
    return fields


_REPORT_SCHEMES = [
    ("rsv", Scheme.RSV, RuleKind.RADAU_RIGHT),
    ("rsv", Scheme.RSV, RuleKind.RADAU_LEFT),
    ("lsv", Scheme.LSV, RuleKind.RADAU_RIGHT),
    ("dg", Scheme.LSV, RuleKind.RADAU_RIGHT),  # run_single's partition for a DG run
]


def _report_inputs(example, variant, tie_break, k, n, seed):
    """A perturbed interpolant of the case at t = 0.3 and a DG twin near it."""
    case = manufactured_case(example)
    # Uniform even meshes put the zeros of example 1's alpha on breakpoints.
    mesh = build_mesh(n, 0.0 if n % 2 == 0 else 0.3, seed=seed)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, variant, coeff, tie_break)
    u = lambda x: case.u_exact(x, 0.3)
    u_x = lambda x: case.u_x(x, 0.3)
    rng = np.random.default_rng(seed)
    u_h = interpolate(u, part, coeff, InterpKind.AUTO) + PiecewisePoly(
        mesh, k, 1e-3 * rng.standard_normal((n, k + 1))
    )
    u_dg = u_h + PiecewisePoly(mesh, k, 1e-4 * rng.standard_normal((n, k + 1)))
    return u_h, u, u_x, coeff, part, u_dg


@pytest.mark.parametrize("scheme, variant, tie_break", _REPORT_SCHEMES)
@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("n", [8, 13])
@pytest.mark.parametrize("twin", [False, True])
def test_report_fields_equal_their_definitions(scheme, variant, tie_break, k, n, twin):
    for example in (1, 2):
        u_h, u, u_x, coeff, part, u_dg = _report_inputs(example, variant, tie_break, k, n, seed=k + n)
        u_dg = u_dg if twin else None
        report = error_report(u_h, u, u_x, coeff, part, scheme=scheme, t_final=0.3, u_dg=u_dg)
        defined = _defined_fields(u_h, u, u_x, coeff, part, u_dg)
        assert {name: getattr(report, name) for name in defined} == defined


def test_report_samples_each_point_set_once(monkeypatch):
    # One AUTO node set; u on the nodes, the Gauss grid, the interfaces, the
    # extrema and the Linf samples; alpha on the nodes, the grid and the extrema.
    u_h, u, u_x, coeff, part, u_dg = _report_inputs(1, Scheme.RSV, RuleKind.RADAU_RIGHT, 3, 13, seed=1)
    calls = {"auto_interp_kinds": 0, "u": 0, "alpha": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (svkit.poly, svkit.metrics):
        monkeypatch.setattr(module, "auto_interp_kinds", counted("auto_interp_kinds", auto_interp_kinds))
    monkeypatch.setattr(coeff, "alpha", counted("alpha", coeff.alpha))
    error_report(u_h, counted("u", u), u_x, coeff, part, scheme="rsv", t_final=0.3, u_dg=u_dg)
    assert calls == {"auto_interp_kinds": 1, "u": 5, "alpha": 3}


def test_metric_fields_are_the_float_fields_in_order():
    assert ErrorReport.METRIC_FIELDS == (
        "l2", "linf",
        "flux_gap_l2", "flux_cell_rms", "flux_node_rms", "flux_iface_rms", "flux_deriv_rms",
        "gap_l2", "cell_rms", "node_rms", "iface_rms", "extrema_value_rms", "extrema_deriv_rms",
        "dg_diff_l2", "dg_diff_flux_cell_rms", "dg_diff_cell_rms",
    )


# -- convergence orders ----------------------------------------------------------


def test_orders_dyadic():
    assert convergence_orders([(128, 4e-4), (256, 1e-4)]) == [pytest.approx(2.0)]


def test_orders_table_row():
    (order,) = convergence_orders([(128, 4.24e-4), (256, 1.06e-4)])
    assert order == pytest.approx(2.0, abs=5e-3)


def test_orders_non_dyadic():
    e = 1.7e-3
    (order,) = convergence_orders([(100, e), (300, e / 27.0)])
    assert order == pytest.approx(3.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=6.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_order_estimator_exact_on_power_laws(p, c):
    # Both sides of the documented 1e-15 roundoff cut-off: exact orders above
    # it, BelowRoundoffError as soon as any error reaches it.
    ns = [16, 32, 64, 128]
    errors = [(n, c * n ** (-p)) for n in ns]
    if min(e for _, e in errors) > 1e-15:
        for order in convergence_orders(errors):
            assert order == pytest.approx(p, rel=1e-9)
    else:
        with pytest.raises(BelowRoundoffError):
            convergence_orders(errors)


def test_orders_reject_roundoff_and_bad_input():
    with pytest.raises(BelowRoundoffError):
        convergence_orders([(16, 1e-3), (32, 1e-16)])
    with pytest.raises(ValueError):
        convergence_orders([(32, 1e-3), (16, 1e-4)])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            convergence_orders([(16, 1e-3), (32, bad)])
        with pytest.raises(ValueError, match="finite"):
            convergence_orders([(16, bad), (32, 1e-3)])
    assert convergence_orders([(16, 1e-3)]) == []
