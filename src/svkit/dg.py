"""Upwind discontinuous Galerkin reference scheme on the same broken space.

Used both as a standalone solver and as the comparison partner for the
spectral-volume schemes: with a constant coefficient the right-Radau SV
operator and this one agree to roundoff.
"""

from __future__ import annotations

import numpy as np

from .mesh import FluxCoefficient, Mesh1D
from .poly import PiecewisePoly
from .quadrature import check_order, gauss_panel, legendre_basis_deriv
from .sv import apply_stencil, neighbour_gather, trace_rows, upwind_weights

VOLUME_QUAD_EXTRA = 3  # (k+3)-point Gauss for the non-polynomial volume term


class DGOperator:
    """Precomputed upwind-DG right-hand side on a fixed mesh.

    The constructor folds the volume term, the two upwind interface traces and
    the inverse mass matrix into one element-last block stencil (the layout of
    :func:`svkit.sv.apply_stencil`), so a call is one neighbour gather and one
    contraction.
    """

    def __init__(self, mesh: Mesh1D, k: int, coeff: FluxCoefficient, source=None):
        check_order(k)
        self.mesh = mesh
        self.k = k
        self.source = source
        n = mesh.n_elements
        self._gather = neighbour_gather(n, k)

        q = k + VOLUME_QUAD_EXTRA
        sg, wg = gauss_panel(q)
        basis, dbasis = legendre_basis_deriv(k, sg)     # (q, k+1) each
        wd = wg[:, None] * dbasis                        # rows weighted by w_q
        alt = (-1.0) ** np.arange(k + 1)

        x = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * sg[None, :]
        a_quad = np.asarray(coeff.alpha(x), dtype=float)
        mode_scale = 2.0 * np.arange(k + 1) + 1.0  # inverse mass matrix, times h

        # Row m of an element's stencil is (2m+1)/h times: the left-interface
        # flux times the test trace (-1)^m, minus the right-interface flux,
        # plus the volume term.  Each is linear in the element's upwind
        # weights and its alpha samples, so one product with fixed patterns
        # builds every element.  The patterns' columns are (mode, side), the
        # column order of the element-last stencil.
        rows = trace_rows(k)
        patterns = np.zeros((4 + q, k + 1, k + 1, 3))
        patterns[:2] = alt[:, None, None] * rows[:2, None]
        patterns[2:4] = -rows[2:, None]
        patterns[4:, :, :, 1] = wd[:, :, None] * basis[:, None, :]
        patterns *= mode_scale[:, None, None]
        weights = np.column_stack([upwind_weights(coeff), a_quad]) / mesh.sizes[:, None]
        stencil = (patterns.reshape(4 + q, -1).T @ weights.T).reshape(k + 1, 3 * (k + 1), n)
        stencil.setflags(write=False)
        self._stencil = stencil

        if source is not None:
            x.setflags(write=False)  # lets a source memoise per-node factors
            self._x_quad = x
            # The source moments are (h/2) sum_q w_q g L_m, times the inverse mass.
            self._wb = (wg[:, None] * basis) * (0.5 * mode_scale)
            self._src_memo: tuple[float, np.ndarray] | None = None

    def _source_moments(self, t: float) -> np.ndarray:
        """Source moments at time t, scaled by the inverse mass matrix."""
        if self._src_memo is not None and self._src_memo[0] == t:
            return self._src_memo[1]
        g = np.asarray(self.source(self._x_quad, t), dtype=float)
        moments = g @ self._wb
        self._src_memo = (t, moments)
        return moments

    def __call__(self, u: PiecewisePoly, t: float) -> PiecewisePoly:
        out = apply_stencil(self._stencil, self._gather, u.coeffs)
        if self.source is not None:
            out += self._source_moments(t)
        return PiecewisePoly(self.mesh, self.k, out)
