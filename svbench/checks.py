"""Correctness checks applied to every benchmark round.

Each check compares a result against the closed-form exact solution or
against a property the method must have; none compares against stored output.
A check returns ``None`` when the result passes and a one-line description of
the violation otherwise.
"""

from __future__ import annotations

import math

# Observed L2 order of a (coarse, fine) pair, as an offset band around k + 1.
# At n = 16 -> 32 the orders are pre-asymptotic and depend on the two mesh
# draws: over 20 seeds at 5% jitter the offsets ran from -0.16 to +0.43, so
# the band is wide.  At n = 1024 -> 2048 they ran from -0.05 to +0.06.  Both
# bands reject an order low by 0.6 or more, and so a halved order for every k.
COARSE_ORDER_BAND = (-0.6, 1.0)
FINE_ORDER_BAND = (-0.25, 0.25)

MASS_DRIFT_TOL = 1e-11   # relative to |M(0)|; roundoff is ~1e-15
NORM_BOUND_SLACK = 1e-6  # the same slack the c04 stability criterion allows
TWIN_TOL = 1e-10         # relative L2 gap between RSV and DG at constant alpha


def order_band(order: float, k: int, band: tuple[float, float]) -> str | None:
    """The observed order lies within ``k + 1 + band``."""
    low, high = k + 1 + band[0], k + 1 + band[1]
    if math.isfinite(order) and low <= order <= high:
        return None
    return f"L2 order {order:.3f} outside [{low:.2f}, {high:.2f}] for k={k}"


def mass_drift(mass_0: float, mass_t: float) -> str | None:
    """Without a source the total mass is conserved to roundoff."""
    drift = abs(mass_t - mass_0)
    if drift <= MASS_DRIFT_TOL * abs(mass_0):
        return None
    return f"mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL:g} * |M(0)| = {abs(mass_0):.6g}"


def norm_bound(norm_0: float, norm_t: float, t: float) -> str | None:
    """||u(t)|| <= e^t ||u(0)|| for |alpha'| <= 1 and no source (criterion c04)."""
    bound = math.exp(t) * norm_0 * (1.0 + NORM_BOUND_SLACK)
    if norm_t <= bound:
        return None
    return f"norm {norm_t:.6g} exceeds the stability bound {bound:.6g} at t={t:.6g}"


def twin_identity(gap: float, scale: float) -> str | None:
    """RSV and upwind DG coincide at constant alpha: ||u_rsv - u_dg|| ~ roundoff."""
    if gap <= TWIN_TOL * scale:
        return None
    return f"RSV-DG gap {gap:.3e} exceeds {TWIN_TOL:g} * {scale:.6g}"
