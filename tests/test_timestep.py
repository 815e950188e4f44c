import numpy as np
import pytest

from svkit.cases import manufactured_case
from svkit.dg import DGOperator
from svkit.exceptions import InvalidConfigError, NonFiniteError
from svkit.mesh import FluxCoefficient, Scheme, build_mesh, build_partition
from svkit.poly import InterpKind, PiecewisePoly, interpolate, total_mass
from svkit.sv import SchemeConfig, SVOperator
from svkit.timestep import integrate_to, rk4_step


def test_scalar_amplification_factor():
    # One RK4 step on u' = lam*u multiplies by the degree-4 Taylor polynomial.
    lam = -0.7 + 0.3j
    dt = 0.05
    z = lam * dt
    expected = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    result = rk4_step(1.0 + 0j, 0.0, dt, lambda u, t: lam * u)
    assert result == pytest.approx(expected, rel=1e-15)


def test_zero_rhs_identity():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(12)
    out = rk4_step(u, 0.0, 0.1, lambda v, t: np.zeros_like(v))
    np.testing.assert_array_equal(out, u)


def test_zero_rhs_bitwise_stable_over_span():
    mesh = build_mesh(4)
    u0 = PiecewisePoly(mesh, 1, np.random.default_rng(1).standard_normal((4, 2)))
    out = integrate_to(u0, 0.0, 1.0, 0.3, lambda u, t: 0.0 * u)
    np.testing.assert_array_equal(out.coeffs, u0.coeffs)


def test_step_counts():
    calls = []

    def rhs(u, t):
        calls.append(t)
        return 0.0 * u

    integrate_to(np.zeros(2), 0.0, 1.0, 0.1, rhs)
    assert len(calls) == 4 * 10
    calls.clear()
    integrate_to(np.zeros(2), 0.0, 1.05, 0.1, rhs)
    assert len(calls) == 4 * 11
    # the shortened last step starts at 1.0 and its final stage lands on T
    assert calls[-1] == pytest.approx(1.05, abs=1e-14)


def test_mass_conserved_over_full_step():
    case = manufactured_case(1)
    mesh = build_mesh(16)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, 2, Scheme.RSV, coeff)
    u = interpolate(case.u0, part, coeff, InterpKind.AUTO)
    op = SVOperator(SchemeConfig(2, Scheme.RSV), part, coeff)  # g = 0
    mass0 = total_mass(u)
    u1 = rk4_step(u, 0.0, 0.01 / 16, op)
    assert total_mass(u1) == pytest.approx(mass0, rel=1e-13)


def test_nonfinite_detection():
    def blowup(u, t):
        return u * np.inf

    with pytest.raises(NonFiniteError):
        rk4_step(np.ones(3), 0.0, 0.1, blowup)
    with pytest.raises(NonFiniteError, match="step 1 of 5"):
        integrate_to(np.ones(3), 0.0, 0.5, 0.1, blowup)


def test_invalid_spans_rejected():
    with pytest.raises(InvalidConfigError):
        integrate_to(np.ones(2), 1.0, 0.5, 0.1, lambda u, t: u)
    for dt_nominal in (-0.1, 0.0):
        with pytest.raises(InvalidConfigError, match="nominal step must be positive"):
            integrate_to(np.ones(2), 0.0, 0.5, dt_nominal, lambda u, t: u)
    for dt in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(InvalidConfigError):
            rk4_step(np.ones(2), 0.0, dt, lambda u, t: u)


@pytest.mark.parametrize(
    "t0, t_final, dt",
    [
        (np.nan, 1.0, 0.1),
        (-np.inf, 1.0, 0.1),
        (0.0, np.nan, 0.1),
        (0.0, np.inf, 0.1),
        (0.0, 1.0, np.nan),
        (0.0, 1.0, np.inf),  # would be one step of size t_final
    ],
)
def test_non_finite_times_rejected(t0, t_final, dt):
    with pytest.raises(InvalidConfigError):
        integrate_to(np.ones(2), t0, t_final, dt, lambda u, t: 0.0 * u)


def test_dt_refinement_time_error_negligible():
    # At dt = 0.01/n the spatial error dominates: halving dt moves the final
    # state by far less than 0.01 percent.
    case = manufactured_case(1)
    n, k = 16, 2
    t_final = 0.5
    mesh = build_mesh(n)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, k, Scheme.RSV, coeff)
    u0 = interpolate(case.u0, part, coeff, InterpKind.AUTO)
    op = SVOperator(SchemeConfig(k, Scheme.RSV), part, coeff, case.source)
    coarse = integrate_to(u0, 0.0, t_final, 0.01 / n, op)
    fine = integrate_to(u0, 0.0, t_final, 0.005 / n, op)
    from svkit.poly import broken_norm

    err_coarse = broken_norm(coarse, "l2", reference=lambda x: case.u_exact(x, t_final))
    err_fine = broken_norm(fine, "l2", reference=lambda x: case.u_exact(x, t_final))
    assert abs(err_coarse - err_fine) < 1e-4 * err_coarse


@pytest.mark.parametrize("operator", ["sv", "dg"])
def test_two_source_evaluations_per_step(operator):
    # Stages 2 and 3 share a time, and each step must end at bitwise the time
    # the next one starts, so the operators' one-entry source memo leaves
    # 2 evaluations per step plus the first.
    case = manufactured_case(1)
    calls = []

    def source(x, t):
        calls.append(t)
        return case.source(x, t)

    n, t_final = 16, 0.1
    dt = 0.01 / n
    mesh = build_mesh(n)
    coeff = FluxCoefficient(case.alpha, mesh)
    part = build_partition(mesh, 1, Scheme.RSV, coeff)
    if operator == "sv":
        op = SVOperator(SchemeConfig(1, Scheme.RSV), part, coeff, source)
    else:
        op = DGOperator(mesh, 1, coeff, source)
    u0 = interpolate(case.u0, part, coeff, InterpKind.AUTO)
    integrate_to(u0, 0.0, t_final, dt, op)
    n_steps = 160  # t_final / dt
    assert len(calls) == 2 * n_steps + 1
    assert calls[-1] == t_final
