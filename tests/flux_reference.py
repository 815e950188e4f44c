"""Reference definition of the upwind interface flux, shared by the operator tests."""

import numpy as np


def upwind_fluxes(u, coeff) -> np.ndarray:
    """Flux alpha * upwind-trace at all N+1 interfaces (last equals first)."""
    um = u.right_traces()
    up = u.left_traces()
    a = coeff.interface_values[:-1]
    flux = np.where(a > 0.0, a * np.roll(um, 1), a * up)
    return np.concatenate([flux, flux[:1]])
