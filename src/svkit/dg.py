"""Upwind discontinuous Galerkin reference scheme on the same broken space.

Used both as a standalone solver and as the comparison partner for the
spectral-volume schemes: with a constant coefficient the right-Radau SV
operator and this one agree to roundoff.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidConfigError
from .mesh import FluxCoefficient, Mesh1D
from .poly import PiecewisePoly
from .quadrature import MAX_ORDER, gauss_panel, legendre_basis_deriv
from .sv import upwind_fluxes

VOLUME_QUAD_EXTRA = 3  # (k+3)-point Gauss for the non-polynomial volume term


class DGOperator:
    """Precomputed upwind-DG right-hand side on a fixed mesh."""

    def __init__(self, mesh: Mesh1D, k: int, coeff: FluxCoefficient, source=None):
        if not 1 <= k <= MAX_ORDER:
            raise InvalidConfigError(f"order k must lie in [1, {MAX_ORDER}], got {k}")
        self.mesh = mesh
        self.k = k
        self.coeff = coeff
        self.source = source

        q = k + VOLUME_QUAD_EXTRA
        sg, wg = gauss_panel(q)
        basis, dbasis = legendre_basis_deriv(k, sg)     # (q, k+1) each
        self._basis = basis
        self._wd = wg[:, None] * dbasis                  # rows weighted by w_q
        self._wb = wg[:, None] * basis
        self._alt = (-1.0) ** np.arange(k + 1)

        x = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * sg[None, :]
        self._x_quad = x
        self._a_quad = np.asarray(coeff.alpha(x), dtype=float)
        self._scale = (2.0 * np.arange(k + 1) + 1.0)[None, :] / mesh.sizes[:, None]
        self._half_h = 0.5 * mesh.sizes
        self._src_memo: tuple[float, np.ndarray] | None = None

    def _source_moments(self, t: float) -> np.ndarray:
        if self._src_memo is not None and self._src_memo[0] == t:
            return self._src_memo[1]
        g = np.asarray(self.source(self._x_quad, t), dtype=float)
        moments = (g @ self._wb) * self._half_h[:, None]
        self._src_memo = (t, moments)
        return moments

    def __call__(self, u: PiecewisePoly, t: float) -> PiecewisePoly:
        c = u.coeffs
        flux = upwind_fluxes(u, self.coeff)
        flux_left = flux[:-1]
        flux_right = flux[1:]

        u_quad = c @ self._basis.T                       # (N, q)
        rhs = (self._a_quad * u_quad) @ self._wd         # volume term, (N, k+1)
        rhs -= flux_right[:, None]                       # test trace at +1 is 1
        rhs += flux_left[:, None] * self._alt[None, :]   # test trace at -1 alternates
        if self.source is not None:
            rhs = rhs + self._source_moments(t)
        return PiecewisePoly(self.mesh, self.k, rhs * self._scale)
