"""Upwind discontinuous Galerkin reference scheme on the same broken space.

Used both as a standalone solver and as the comparison partner for the
spectral-volume schemes: with a constant coefficient the right-Radau SV
operator and this one agree to roundoff.  The operator is the affine core of
:class:`svkit.sv.AffineOperator` with the DG stencil and the DG source
projection.
"""

from __future__ import annotations

import numpy as np

from .mesh import FluxCoefficient, Mesh1D
from .poly import PiecewisePoly
from .quadrature import check_order, gauss_panel, legendre_basis_deriv
from .sv import AffineOperator, trace_rows, upwind_weights

VOLUME_QUAD_EXTRA = 3  # (k+3)-point Gauss for the non-polynomial volume term


class DGOperator(AffineOperator):
    """Precomputed upwind-DG right-hand side on a fixed mesh.

    The constructor folds the volume term, the two upwind interface traces and
    the inverse mass matrix into one compact element-last stencil over
    [right trace of element i-1, the modes of element i, left trace of
    element i+1], so a call is one trace lift, one neighbour gather and one
    contraction (on a small mesh, one dense product).  The source is
    projected with the volume term's Gauss rule: one (k+3, k+1) map from the
    node samples to the modes serves every element, as the element size
    cancels.
    """

    def __init__(self, mesh: Mesh1D, k: int, coeff: FluxCoefficient, source=None):
        check_order(k)
        n = mesh.n_elements

        q = k + VOLUME_QUAD_EXTRA
        sg, wg = gauss_panel(q)
        basis, dbasis = legendre_basis_deriv(k, sg)     # (q, k+1) each
        wd = wg[:, None] * dbasis                        # rows weighted by w_q
        alt = (-1.0) ** np.arange(k + 1)

        # (q, N), a fresh array: a source memoises only arrays that own their data.
        x = mesh.centers + 0.5 * mesh.sizes * sg[:, None]
        a_quad = np.asarray(coeff.alpha(x), dtype=float).T
        mode_scale = 2.0 * np.arange(k + 1) + 1.0  # inverse mass matrix, times h

        # Row m of an element's stencil is (2m+1)/h times: the left-interface
        # flux times the test trace (-1)^m, minus the right-interface flux,
        # plus the volume term.  Each is linear in the element's upwind
        # weights and its alpha samples, so one product with fixed patterns
        # builds every element.  The neighbours enter only through their
        # traces, so the patterns' columns are those of the compact stencil:
        # the right trace of element i-1, the modes of element i and the left
        # trace of element i+1.
        rows = trace_rows(k)
        patterns = np.zeros((4 + q, k + 1, k + 3))
        patterns[:2] = alt[:, None] * rows[:2, None]
        patterns[2:4] = -rows[2:, None]
        patterns[4:, :, 1:-1] = wd[:, :, None] * basis[:, None, :]
        patterns *= mode_scale[:, None]
        weights = np.column_stack([upwind_weights(coeff), a_quad]) / mesh.sizes[:, None]
        stencil = (patterns.reshape(4 + q, -1).T @ weights.T).reshape(k + 1, k + 3, n)

        # Source moments are the inverse mass (2m+1)/h times the element's
        # quadrature (h/2) sum_j w_j g(x_j) L_m(s_j); h cancels, so one
        # (q, k+1) map serves every element.
        projection = (wg[:, None] * basis) * (0.5 * mode_scale)
        super().__init__(mesh, k, stencil, source, x, projection, np.arange(n))

    def __call__(self, u: PiecewisePoly, t: float) -> PiecewisePoly:
        return PiecewisePoly(self.mesh, self.k, self.apply(u.coeffs, t))
