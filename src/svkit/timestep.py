"""Classical fourth-order Runge-Kutta integration of the semi-discrete system.

Works with any state supporting ``+`` and scalar ``*`` (broken polynomials,
ndarrays, plain floats), so scalar surrogate problems can exercise the exact
RK4 amplification factor.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import InvalidConfigError, NonFiniteError
from .poly import PiecewisePoly


def _all_finite(state) -> bool:
    if isinstance(state, PiecewisePoly):
        return bool(np.isfinite(state.coeffs).all())
    return bool(np.isfinite(state).all())


def rk4_step(u, t: float, dt: float, rhs):
    """One classical RK4 step: stages at t, t+dt/2, t+dt/2, t+dt."""
    if not 0.0 < dt < math.inf:
        raise InvalidConfigError(f"time step must be positive and finite, got {dt}")
    half, t_half = 0.5 * dt, t + 0.5 * dt
    k1 = rhs(u, t)
    k2 = rhs(u + half * k1, t_half)
    k3 = rhs(u + half * k2, t_half)
    k4 = rhs(u + dt * k3, t + dt)
    out = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not _all_finite(out):
        raise NonFiniteError(f"solution became non-finite during the step at t = {t}")
    return out


def integrate_to(u0, t0: float, t_final: float, dt_nominal: float, rhs):
    """March from t0 to t_final in uniform steps, shortening only the last one.

    The step count is ceil((t_final - t0) / dt_nominal).  Step ends lie on the
    grid t0 + m * dt_nominal, computed from the step index, not accumulated, to
    avoid drift.  Each step is the difference of its two grid times; for
    t0 >= 0 that difference is exact, so a step ends at bitwise the time the
    next one starts and an operator's one-entry source memo serves both.
    """
    for name, value in (("t0", t0), ("t_final", t_final), ("nominal step", dt_nominal)):
        if not math.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value}")
    if t_final <= t0:
        raise InvalidConfigError(f"t_final = {t_final} must exceed t0 = {t0}")
    if dt_nominal <= 0.0:
        raise InvalidConfigError(f"nominal step must be positive, got {dt_nominal}")
    span = t_final - t0
    n_steps = max(1, math.ceil(span / dt_nominal - 1e-9))
    u = u0
    t = t0
    for m in range(n_steps):
        t_next = t0 + (m + 1) * dt_nominal if m < n_steps - 1 else t_final
        try:
            u = rk4_step(u, t, t_next - t, rhs)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} (step {m + 1} of {n_steps})") from None
        t = t_next
    return u
