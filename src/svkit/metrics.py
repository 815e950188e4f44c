"""Error functionals, superconvergence-point sampling, and convergence orders.

Beyond the plain broken L2/Linf errors, the report measures the mismatch of
the numerical flux and of the solution at the places where spectral-volume
solutions are superconvergent: element interfaces, the interpolation nodes,
cell averages, and the stationary points of each element's node polynomial.
All RMS functionals normalize by the element count only, keeping inner sums
over nodes unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .exceptions import BelowRoundoffError
from .mesh import FluxCoefficient, Partition
from .poly import PiecewisePoly, _fit, _grid_l2, _nodes_without, auto_interp_kinds, broken_norm
from .quadrature import RULE_KINDS, gauss_panel, make_rule

_BISECT_STEPS = 60


def _extrema_batch(nodes: np.ndarray) -> np.ndarray:
    """Roots of the node-polynomial derivative, one per consecutive node gap.

    ``nodes`` is (N, k+1) with strictly increasing rows; bisection keeps each
    root bracketed inside its gap, so interlacing holds by construction.  All
    gaps of all elements are bisected at once, with the element index
    innermost.  The derivative of prod_j (x - nodes_j) is summed over j, in
    index order, from the product of the other factors, also in index order.
    """
    nodes_t = np.ascontiguousarray(nodes.T)  # (k+1, N)
    lo = nodes_t[:-1].copy()
    hi = nodes_t[1:].copy()
    k = lo.shape[0]
    # Row j lists the k factors that remain when factor j is left out.
    others = np.array([np.delete(np.arange(k + 1), j) for j in range(k + 1)])
    # At the left end of gap j the derivative has sign (-1)^(k-j): the factors
    # from nodes above the gap are negative, those below positive.
    sign_lo = np.where((k - np.arange(k)) % 2 == 0, 1.0, -1.0)[:, None]
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        diff = mid[:, None, :] - nodes_t[None, :, :]  # (k, k+1, N)
        fm = np.zeros_like(mid)
        for j in range(k + 1):
            fm += np.prod(diff[:, others[j]], axis=1)
        same = fm * sign_lo > 0.0
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return np.ascontiguousarray((0.5 * (lo + hi)).T)


@lru_cache(maxsize=None)
def _reference_extrema(code: int, dropped: int, k: int) -> np.ndarray:
    """(k,) extrema on [-1, 1] of one reference node set, read-only.

    The node set is the order-k rule ``RULE_KINDS[code]`` less its point at
    index ``dropped``, as :func:`interpolation_nodes` selects it.
    """
    z = _extrema_batch(np.delete(make_rule(RULE_KINDS[code], k).points, dropped)[None, :])[0]
    z.setflags(write=False)
    return z


def _auto_node_extrema(partition: Partition, dropped: np.ndarray):
    """(N, k) domain and reference coordinates of the extrema of each AUTO node set.

    Every element's node set is the affine image of one reference set, fixed
    by its rule code and its ``dropped`` point, so only the few sets in use are
    bisected and each element maps its set's extrema.
    """
    mesh = partition.mesh
    k = partition.k
    codes = partition.kinds * (k + 2) + dropped
    table = np.zeros((len(RULE_KINDS) * (k + 2), k))
    for code in np.flatnonzero(np.bincount(codes)):
        table[code] = _reference_extrema(*divmod(int(code), k + 2), k)
    s_z = table[codes]
    z = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * s_z
    return z, s_z


@dataclass
class ErrorReport:
    """Every error functional for one (scheme, order, resolution, time) run."""

    scheme: str
    k: int
    n: int
    t_final: float
    l2: float
    linf: float
    # flux functionals: alpha-weighted mismatch measures
    flux_gap_l2: float        # ||alpha (u_h - interpolant)||
    flux_cell_rms: float      # RMS of per-element flux-average mismatch
    flux_node_rms: float      # RMS over interpolation nodes
    flux_iface_rms: float     # RMS of exact-vs-upwind flux at interfaces
    flux_deriv_rms: float     # RMS of alpha * d/dx mismatch at extrema points
    # solution functionals
    gap_l2: float             # ||u_h - interpolant||
    cell_rms: float
    node_rms: float
    iface_rms: float
    extrema_value_rms: float  # (u - u_h) sampled at the extrema points
    extrema_deriv_rms: float  # d/dx (u - u_h) at the extrema points (headline)
    # optional comparison against the upwind DG twin
    dg_diff_l2: float | None = None
    dg_diff_flux_cell_rms: float | None = None
    dg_diff_cell_rms: float | None = None


# The metrics are the fields after the run's identity (scheme, k, n, t_final).
ErrorReport.METRIC_FIELDS = tuple(f.name for f in fields(ErrorReport)[4:])


def _rms(values: np.ndarray) -> float:
    """Root of the summed squares over the element count, the length of ``values``."""
    return float(np.sqrt(np.sum(values ** 2) / len(values)))


def _twin_functionals(diff: PiecewisePoly, aq: np.ndarray, sg, wg) -> tuple[float, float, float]:
    """L2, flux-weighted cell RMS and cell RMS of an SV-minus-DG difference.

    ``aq`` is alpha on the Gauss grid ``sg``; the cell RMS reads the exact mean modes.
    """
    samples = diff.eval_ref(sg)
    flux_cells = 0.5 * ((aq * samples) @ wg)
    return _grid_l2(samples, wg, diff.mesh.sizes), _rms(flux_cells), _rms(diff.coeffs[:, 0])


def error_report(
    u_h: PiecewisePoly,
    u: Callable,
    u_x: Callable,
    coeff: FluxCoefficient,
    partition: Partition,
    *,
    scheme: str,
    t_final: float,
    u_dg: PiecewisePoly | None = None,
) -> ErrorReport:
    """Assemble the full functional report for one finished run.

    u, u_x, alpha and u_h are sampled once on each point set (the Linf points,
    the extrema, the AUTO nodes, the Gauss grid and the interfaces); every
    functional is reduced from those samples.
    """
    mesh = partition.mesh
    # Linf and the extrema first: their temporaries are the largest, and few samples are alive yet.
    linf = broken_norm(u_h, "linf", reference=u)
    dropped = auto_interp_kinds(partition, coeff)

    # Stationary points of the node polynomials.
    z, s_z = _auto_node_extrema(partition, dropped)
    dz = np.asarray(u_x(z), dtype=float) - u_h.eval_ref_deriv(s_z)
    vz = np.asarray(u(z), dtype=float) - u_h.eval_ref(s_z)
    a_z = np.asarray(coeff.alpha(z), dtype=float)

    # Interpolation nodes; the interpolant of u is fitted to the same sample.
    nodes = _nodes_without(partition, dropped)
    u_nodes = np.asarray(u(nodes.x), dtype=float)
    node_mismatch = u_nodes - u_h.eval_ref(nodes.s)
    a_nodes = np.asarray(coeff.alpha(nodes.x), dtype=float)
    gap = u_h - _fit(u_nodes, nodes, partition)

    # Gauss grid: the L2 errors and the cell averages of the mismatch.
    sg, wg = gauss_panel(partition.k + 3)
    xq = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * sg[None, :]
    mismatch = np.asarray(u(xq), dtype=float) - u_h.eval_ref(sg)
    aq = np.asarray(coeff.alpha(xq), dtype=float)
    gap_q = gap.eval_ref(sg)

    # Interfaces x_{i+1/2}, i = 1..N; the wrap interface is the first one.
    a_if = coeff.interface_values[1:]
    u_if = np.asarray(u(mesh.breakpoints[1:]), dtype=float)
    uhat = np.where(a_if > 0.0, u_h.right_traces(), np.roll(u_h.left_traces(), -1))

    twin = (None, None, None) if u_dg is None else _twin_functionals(u_h - u_dg, aq, sg, wg)
    return ErrorReport(
        scheme=scheme,
        k=partition.k,
        n=mesh.n_elements,
        t_final=t_final,
        l2=_grid_l2(mismatch, wg, mesh.sizes),
        linf=linf,
        flux_gap_l2=_grid_l2(gap_q * aq, wg, mesh.sizes),
        flux_cell_rms=_rms(0.5 * ((aq * mismatch) @ wg)),
        flux_node_rms=_rms(a_nodes * node_mismatch),
        flux_iface_rms=_rms(a_if * u_if - a_if * uhat),
        flux_deriv_rms=_rms(a_z * dz),
        gap_l2=_grid_l2(gap_q, wg, mesh.sizes),
        cell_rms=_rms(0.5 * (mismatch @ wg)),
        node_rms=_rms(node_mismatch),
        iface_rms=_rms(u_if - uhat),
        extrema_value_rms=_rms(vz),
        extrema_deriv_rms=_rms(dz),
        dg_diff_l2=twin[0],
        dg_diff_flux_cell_rms=twin[1],
        dg_diff_cell_rms=twin[2],
    )


def convergence_orders(errors: list[tuple[int, float]]) -> list[float]:
    """Refinement-ratio order estimates between consecutive (n, error) rows."""
    if len(errors) < 2:
        return []
    orders = []
    for (n1, e1), (n2, e2) in zip(errors, errors[1:]):
        if n2 <= n1:
            raise ValueError("resolutions must be strictly increasing")
        if not (np.isfinite(e1) and np.isfinite(e2)):
            raise ValueError(f"errors must be finite, got ({e1}, {e2})")
        if e1 <= 1e-15 or e2 <= 1e-15:
            raise BelowRoundoffError(
                f"error at roundoff level ({e1:.2e}, {e2:.2e}); order undefined"
            )
        orders.append(float(np.log(e1 / e2) / np.log(n2 / n1)))
    return orders
