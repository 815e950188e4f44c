"""Acceptance suite: every criterion as one test, one printed verdict line each.

Heavy PDE runs are shared across criteria through a module-level cache, so the
whole suite stays within a desk-scale time budget.  Level pairs for the
order-based criteria use the finest affordable resolutions per order.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

import svkit as sk
from svkit.dg import DGOperator
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition
from svkit.poly import (
    InterpKind,
    PiecewisePoly,
    broken_norm,
    cv_integrals,
    element_antiderivative,
    interpolate,
    t_transform,
    total_mass,
    triple_norm,
)
from svkit.quadrature import RuleKind, make_rule
from svkit.sv import SchemeConfig, SVOperator
from svkit.timestep import integrate_to

from poly_reference import exact_degree, integrate_panel, point_values


def _verdict(num, label, ok):
    print(f"[acceptance] criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")


# The example-1 level pairs of criterion 9, whose runs step the DG twin too.
DG_PAIRS = {1: (128, 256), 2: (128, 256), 3: (64, 128)}


@lru_cache(maxsize=None)
def _report(example, scheme, k, n):
    # The twin leaves the SV fields unchanged, so each run is integrated once,
    # with the twin where criterion 9 reads it.
    twin = example == "1" and scheme in ("rsv", "lsv") and n in DG_PAIRS.get(k, ())
    return sk.run_single(sk.manufactured_case(example), scheme, k, n, compare_dg=twin)


def _order(example, scheme, k, n1, n2, metric):
    e1 = getattr(_report(example, scheme, k, n1), metric)
    e2 = getattr(_report(example, scheme, k, n2), metric)
    return math.log(e1 / e2) / math.log(n2 / n1)


# -- criterion 1: quadrature exactness and remainder constants ---------------------


def test_c01_quadrature_exactness():
    failures = []
    for k in range(1, 7):
        for kind in RuleKind:
            rule = make_rule(kind, k)
            for degree in range(exact_degree(kind, k) + 1):
                exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
                err = abs(rule.weights @ rule.points**degree - exact)
                if err >= 1e-12 * max(1.0, abs(exact)):
                    failures.append((kind, k, degree))
        for kind, endpoint in (
            (RuleKind.RADAU_RIGHT, 1.0),
            (RuleKind.RADAU_LEFT, -1.0),
        ):
            rule = make_rule(kind, k)
            actual = 0.0 - rule.weights @ rule.points ** (2 * k + 1)
            interior = rule.points[1 : k + 1]
            expected = integrate_panel(
                lambda s: np.prod((s[:, None] - interior[None, :]) ** 2, axis=1)
                * (s - endpoint),
                -1.0,
                1.0,
                2 * k + 4,
            )
            if abs(actual - expected) >= 1e-10 * abs(expected):
                failures.append(("remainder", kind, k))
    _verdict(1, "quadrature exactness", not failures)
    assert not failures


# -- criterion 2: RSV == DG for constant coefficients -------------------------------


def test_c02_rsv_dg_identity():
    ok = True
    one = lambda x: np.ones_like(x)
    for k in (1, 2, 3, 4):
        mesh = build_mesh(10, 0.3, seed=k)
        coeff = FluxCoefficient(one, mesh)
        part = build_partition(mesh, k, Scheme.RSV, coeff)
        rng = np.random.default_rng(40 + k)
        u = PiecewisePoly(mesh, k, rng.standard_normal((10, k + 1)))
        sv = SVOperator(SchemeConfig(k, Scheme.RSV), part, coeff)(u, 0.0)
        dg = DGOperator(mesh, k, coeff)(u, 0.0)
        ok &= np.max(np.abs(sv.coeffs - dg.coeffs)) < 1e-12 * broken_norm(u)
        # full integration to T = 1 from the same start
        u0 = interpolate(lambda x: np.exp(np.sin(x)), part, coeff, InterpKind.AUTO)
        dt = 0.01 / 10
        u_sv = integrate_to(u0, 0.0, 1.0, dt, SVOperator(SchemeConfig(k, Scheme.RSV), part, coeff))
        u_dg = integrate_to(u0, 0.0, 1.0, dt, DGOperator(mesh, k, coeff))
        ok &= broken_norm(u_sv - u_dg) < 1e-10
    _verdict(2, "RSV equals upwind DG for constant coefficients", ok)
    assert ok


# -- criterion 3: mass conservation --------------------------------------------------


def test_c03_conservation():
    ok = True
    n, k = 64, 2
    t_final = np.pi / 2
    mesh = build_mesh(n)
    coeff = FluxCoefficient(np.sin, mesh)
    for scheme in (Scheme.RSV, Scheme.LSV):
        part = build_partition(mesh, k, scheme, coeff)
        u0 = interpolate(lambda x: np.exp(np.sin(x)), part, coeff, InterpKind.AUTO)
        op = SVOperator(SchemeConfig(k, scheme), part, coeff)  # g forced to zero
        u = integrate_to(u0, 0.0, t_final, 0.01 / n, op)
        drift = abs(total_mass(u) - total_mass(u0))
        ok &= drift < 1e-11 * abs(total_mass(u0))
    _verdict(3, "global mass conservation", ok)
    assert ok


# -- criterion 4: stability ------------------------------------------------------------


def test_c04_stability():
    ok = True
    t_final = np.pi / 2
    n = 64
    mesh = build_mesh(n)
    coeff = FluxCoefficient(np.sin, mesh)
    for scheme in (Scheme.RSV, Scheme.LSV):
        for k in (1, 2, 3):
            part = build_partition(mesh, k, scheme, coeff)
            u0 = interpolate(lambda x: np.exp(np.sin(x)), part, coeff, InterpKind.AUTO)
            op = SVOperator(SchemeConfig(k, scheme), part, coeff)
            u = integrate_to(u0, 0.0, t_final, 0.01 / n, op)
            bound = math.exp(t_final) * broken_norm(u0) * (1 + 1e-6)
            ok &= broken_norm(u) <= bound

    # alpha = 1: RSV dissipates L2, LSV dissipates the transform norm
    one = lambda x: np.ones_like(x)
    coeff1 = FluxCoefficient(one, mesh)
    dt = 0.01 / n
    steps = int(round(1.0 / dt))
    for scheme, norm_of in (
        (Scheme.RSV, lambda u, p: broken_norm(u)),
        (Scheme.LSV, triple_norm),
    ):
        for k in (1, 2, 3):
            part = build_partition(mesh, k, scheme, coeff1)
            u = interpolate(lambda x: np.exp(np.sin(x)), part, coeff1, InterpKind.AUTO)
            op = SVOperator(SchemeConfig(k, scheme), part, coeff1)
            prev = norm_of(u, part)
            for step in range(steps):
                u = sk.rk4_step(u, step * dt, dt, op)
                now = norm_of(u, part)
                if now > prev + 1e-10:
                    ok = False
                    break
                prev = now
    _verdict(4, "norm stability bounds", ok)
    assert ok


# -- criterion 5: absolute error reproduction ----------------------------------------


def test_c05_absolute_l2_reproduction():
    targets = [
        ("rsv", 1, 128, 4.24e-4),
        ("lsv", 1, 128, 6.31e-4),
        ("rsv", 3, 32, 4.82e-6),
        ("lsv", 3, 32, 7.66e-6),
    ]
    results = []
    for scheme, k, n, expected in targets:
        value = _report("1", scheme, k, n).l2
        results.append((scheme, k, n, value, expected, abs(value / expected - 1) <= 0.05))
    ok = all(r[-1] for r in results)
    for scheme, k, n, value, expected, good in results:
        print(
            f"    {scheme} k={k} n={n}: l2={value:.3e} target={expected:.2e} "
            f"ratio={value / expected:.3f} {'ok' if good else 'MISS'}"
        )
    _verdict(5, "absolute L2 reproduction", ok)
    assert ok


# -- criterion 6: optimal convergence order -------------------------------------------


def test_c06_optimal_order():
    pairs = {1: (64, 128), 2: (64, 128), 3: (32, 64)}
    ok = True
    for scheme in ("rsv", "lsv"):
        for k, (n1, n2) in pairs.items():
            order = _order("1", scheme, k, n1, n2, "l2")
            good = k + 0.85 <= order <= k + 1.25
            print(f"    {scheme} k={k} {n1}->{n2}: L2 order {order:.3f} {'ok' if good else 'MISS'}")
            ok &= good
    _verdict(6, "optimal L2 convergence order", ok)
    assert ok


# -- criterion 7: flux superconvergence orders ----------------------------------------

FLUX_PAIRS = {2: (128, 256), 3: (64, 128)}


def test_c07_flux_superconvergence():
    ok = True
    for scheme in ("rsv", "lsv"):
        for k, (n1, n2) in FLUX_PAIRS.items():
            orders = {
                m: _order("1", scheme, k, n1, n2, m)
                for m in ("flux_iface_rms", "flux_cell_rms", "flux_node_rms", "flux_deriv_rms")
            }
            good = (
                orders["flux_iface_rms"] >= k + 1.6
                and orders["flux_cell_rms"] >= k + 1.6
                and orders["flux_node_rms"] >= k + 1.6
                and k + 0.7 <= orders["flux_deriv_rms"] <= k + 1.3
            )
            print(
                f"    {scheme} k={k} {n1}->{n2}: iface={orders['flux_iface_rms']:.2f} "
                f"cell={orders['flux_cell_rms']:.2f} node={orders['flux_node_rms']:.2f} "
                f"deriv={orders['flux_deriv_rms']:.2f} {'ok' if good else 'MISS'}"
            )
            ok &= good
    # no flux superconvergence for the Gauss variant at k = 1: first order pair only
    order = _order("1", "lsv", 1, 128, 256, "flux_iface_rms")
    good = 1.8 <= order <= 2.3
    print(f"    lsv k=1 128->256: iface order {order:.3f} {'ok' if good else 'MISS'}")
    ok &= good
    _verdict(7, "flux superconvergence orders", ok)
    assert ok


# -- criterion 8: solution superconvergence orders -------------------------------------


def test_c08_solution_superconvergence():
    ok = True
    pairs = {1: (128, 256), 2: (128, 256), 3: (64, 128)}
    for k, (n1, n2) in pairs.items():
        gap_order = _order("1", "rsv", k, n1, n2, "gap_l2")
        deriv_order = _order("1", "rsv", k, n1, n2, "extrema_deriv_rms")
        good = gap_order >= k + 1.25 and k + 0.3 <= deriv_order <= k + 0.8
        print(
            f"    ex1 rsv k={k} {n1}->{n2}: gap order {gap_order:.3f}, "
            f"extrema-deriv order {deriv_order:.3f} {'ok' if good else 'MISS'}"
        )
        ok &= good
    for k, (n1, n2) in {1: (128, 256), 2: (128, 256), 3: (64, 128)}.items():
        gap_order = _order("2", "rsv", k, n1, n2, "gap_l2")
        good = gap_order >= k + 1.2
        print(f"    ex2 rsv k={k} {n1}->{n2}: gap order {gap_order:.3f} {'ok' if good else 'MISS'}")
        ok &= good
    _verdict(8, "solution superconvergence orders", ok)
    assert ok


# -- criterion 9: supercloseness to the DG twin ----------------------------------------


def test_c09_sv_dg_supercloseness():
    ok = True
    for scheme in ("rsv", "lsv"):
        for k, (n1, n2) in DG_PAIRS.items():
            o_l2 = _order("1", scheme, k, n1, n2, "dg_diff_l2")
            o_fc = _order("1", scheme, k, n1, n2, "dg_diff_flux_cell_rms")
            o_cc = _order("1", scheme, k, n1, n2, "dg_diff_cell_rms")
            if scheme == "rsv":
                good = o_l2 >= k + 1.3 and o_fc >= k + 1.6 and o_cc >= k + 1.6
            elif k == 1:
                good = k + 0.7 <= o_l2 <= k + 1.3
            else:
                good = k + 0.7 <= o_l2 <= k + 1.3 and o_fc >= k + 1.6 and o_cc >= k + 1.6
            print(
                f"    {scheme} k={k} {n1}->{n2}: diff={o_l2:.2f} flux-cell={o_fc:.2f} "
                f"cell={o_cc:.2f} {'ok' if good else 'MISS'}"
            )
            ok &= good
    _verdict(9, "SV-vs-DG supercloseness orders", ok)
    assert ok


# -- criterion 10: transform identities -------------------------------------------------


def test_c10_transform_identities():
    ok = True
    rng = np.random.default_rng(1234)
    mesh = build_mesh(8, 0.2, seed=17)
    for kind in RuleKind:
        if kind is RuleKind.GAUSS:
            coeff = FluxCoefficient(lambda x: np.ones_like(x), mesh)
            scheme = Scheme.LSV
        else:
            sign = 1.0 if kind is RuleKind.RADAU_RIGHT else -1.0
            coeff = FluxCoefficient(lambda x, s=sign: s * np.ones_like(x), mesh)
            scheme = Scheme.RSV
        for k in (1, 2, 3, 4):
            part = build_partition(mesh, k, scheme, coeff)
            rule = make_rule(kind, k)
            sg, wg = np.polynomial.legendre.leggauss(2 * k + 4)
            modes = 2 * np.arange(k + 1) + 1
            for _ in range(100):
                w = PiecewisePoly(mesh, k, rng.standard_normal((8, k + 1)))
                v = PiecewisePoly(mesh, k, rng.standard_normal((8, k + 1)))
                tw = t_transform(w, part)
                scale = max(1.0, float(np.max(np.abs(w.coeffs))))
                # endpoint identities per rule kind
                if kind in (RuleKind.GAUSS, RuleKind.RADAU_RIGHT):
                    ok &= np.max(np.abs(tw[:, 0] - w.left_traces())) < 1e-11 * scale
                if kind in (RuleKind.GAUSS, RuleKind.RADAU_LEFT):
                    ok &= np.max(np.abs(tw[:, -1] - w.right_traces())) < 1e-11 * scale
                wx_r = w.eval_ref_deriv(np.array([1.0]))[:, 0]
                last = w.right_traces() - 0.5 * mesh.sizes * rule.weights[-1] * wx_r
                ok &= np.max(np.abs(tw[:, -1] - last)) < 1e-11 * scale
                # inner-product decomposition
                lhs = np.sum(cv_integrals(v, part) * tw, axis=1)
                inner = (v.coeffs * w.coeffs / modes).sum(axis=1) * mesh.sizes
                anti = element_antiderivative(v)
                exact = 0.5 * mesh.sizes * ((anti.eval_ref(sg) * w.eval_ref_deriv(sg)) @ wg)
                quad = np.sum(
                    part.subweights
                    * anti.eval_ref(rule.points)
                    * w.eval_ref_deriv(rule.points),
                    axis=1,
                )
                rhs = inner + exact - quad
                ref = max(1.0, float(np.max(np.abs(lhs))))
                ok &= np.max(np.abs(lhs - rhs)) < 1e-11 * ref
    _verdict(10, "transform identities", ok)
    assert ok


# -- criterion 11: interpolation properties ----------------------------------------------


def test_c11_interpolation_properties():
    ok = True
    # polynomial reproduction
    mesh = build_mesh(9, 0.2, seed=23)
    coeff = FluxCoefficient(np.sin, mesh)
    for k in (1, 2, 3):
        part = build_partition(mesh, k, Scheme.RSV, coeff)
        poly = np.polynomial.Polynomial(0.3 * np.arange(1, k + 2))
        interp = interpolate(poly, part, coeff, InterpKind.AUTO)
        xs = np.linspace(0.05, 2 * np.pi - 0.05, 50)
        vals = point_values(interp, xs)
        ok &= np.max(np.abs(vals - poly(xs))) < 1e-12 * max(1.0, np.max(np.abs(poly(xs))))
    # upwind-trace exactness at every interface, n = 8..64, k = 1..3
    f = lambda x: np.exp(np.sin(x))
    for scheme in (Scheme.RSV, Scheme.LSV):
        for k in (1, 2, 3):
            for n in (8, 16, 32, 64):
                mesh = build_mesh(n)
                coeff = FluxCoefficient(np.sin, mesh)
                part = build_partition(mesh, k, scheme, coeff)
                interp = interpolate(f, part, coeff, InterpKind.AUTO)
                a = coeff.interface_values[:-1]
                uhat = np.where(
                    a > 0.0, np.roll(interp.right_traces(), 1), interp.left_traces()
                )
                exact = f(mesh.breakpoints[:-1])
                ok &= np.max(np.abs(uhat - exact)) < 1e-12 * np.max(np.abs(exact))
    _verdict(11, "interpolation properties", ok)
    assert ok


# -- criterion 12: determinism --------------------------------------------------------


def test_c12_determinism():
    config = dict(
        example="1",
        schemes=("rsv", "lsv"),
        k_values=(1,),
        n_values=(8, 16),
        t_final=0.1,
        perturbation=0.2,
        seed=7,
        compare_dg=True,
    )
    from svkit.study import StudyConfig, render_table, run_study

    first = render_table(run_study(StudyConfig(**config)), "csv").encode()
    second = render_table(run_study(StudyConfig(**config)), "csv").encode()
    ok = first == second
    _verdict(12, "deterministic study output", ok)
    assert ok


# -- table spot checks (values the implementation reproduces) ---------------------------


def test_table_spot_values():
    # published error levels that this implementation reproduces
    checks = [
        ("1", "rsv", 1, 128, "l2", 4.24e-4, 0.05),
        ("1", "rsv", 1, 256, "l2", 1.06e-4, 0.05),
        ("1", "lsv", 2, 128, "l2", 4.42e-6, 0.05),
        ("1", "lsv", 2, 256, "l2", 5.52e-7, 0.05),
        # max-norm levels, at the wider tolerance matching the sampling choice
        ("1", "rsv", 1, 128, "linf", 1.10e-3, 0.10),
        ("1", "lsv", 1, 128, "linf", 1.60e-3, 0.10),
    ]
    ok = True
    for example, scheme, k, n, metric, expected, tol in checks:
        value = getattr(_report(example, scheme, k, n), metric)
        good = abs(value / expected - 1) <= tol
        print(f"    {scheme} k={k} n={n} {metric}: {value:.3e} vs {expected:.2e} {'ok' if good else 'MISS'}")
        ok &= good
    assert ok
