"""Broken polynomials on the mesh: evaluation, interpolation, transforms, norms.

A :class:`PiecewisePoly` stores one degree-k polynomial per element in the
Legendre modal basis, so the element mass matrix is diagonal and the cell
average is the zeroth coefficient.  The module also provides

* the one-sided Lagrange interpolants onto the partition nodes and the
  upwind-aware automatic choice between them,
* the transform taking a broken polynomial to the piecewise constant over
  control volumes whose recurrence mirrors the spectral-volume residual,
* broken L2/Linf norms and the transform-induced triple norm.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DegenerateNodesError, InvalidConfigError
from .mesh import FluxCoefficient, Mesh1D, Partition
from .quadrature import gauss_panel, legendre_basis, legendre_basis_deriv

_FLOAT64 = np.dtype(np.float64)
LINF_SAMPLES = 21


@dataclass(init=False)
class PiecewisePoly:
    """Piecewise polynomial of degree k with Legendre modal coefficients (N, k+1)."""

    mesh: Mesh1D
    k: int
    coeffs: np.ndarray

    # NumPy defers binary operations to this class, so an array operand
    # meets __mul__'s refusal instead of broadcasting the poly as an object.
    __array_ufunc__ = None

    def __init__(self, mesh: Mesh1D, k: int, coeffs):
        # RK4 builds 17 of these a step, nearly all from fresh float64 arrays,
        # so those skip the conversion (any other float64 dtype object merely
        # takes it, and np.asarray returns such an array as it is).
        if type(coeffs) is not np.ndarray or coeffs.dtype is not _FLOAT64:
            coeffs = np.asarray(coeffs, dtype=float)
        expected = (mesh.n_elements, k + 1)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient array must have shape {expected}")
        self.mesh = mesh
        self.k = k
        self.coeffs = coeffs

    def copy(self) -> "PiecewisePoly":
        return PiecewisePoly(self.mesh, self.k, self.coeffs.copy())

    # -- elementwise evaluation at reference coordinates ---------------------

    def eval_ref(self, s) -> np.ndarray:
        """Values at reference coordinates; s is (P,) shared or (N, P) per element."""
        s = np.asarray(s, dtype=float)
        basis = legendre_basis(self.k, s)
        if s.ndim == 1:
            return self.coeffs @ basis.T
        return np.einsum("npm,nm->np", basis, self.coeffs)

    def eval_ref_deriv(self, s) -> np.ndarray:
        """x-derivatives at reference coordinates (chain factor 2/h per element)."""
        s = np.asarray(s, dtype=float)
        _, dbasis = legendre_basis_deriv(self.k, s)
        scale = 2.0 / self.mesh.sizes
        if s.ndim == 1:
            return (self.coeffs @ dbasis.T) * scale[:, None]
        return np.einsum("npm,nm->np", dbasis, self.coeffs) * scale[:, None]

    def right_traces(self) -> np.ndarray:
        """One-sided values at each element's right endpoint."""
        return self.coeffs.sum(axis=1)

    def left_traces(self) -> np.ndarray:
        """One-sided values at each element's left endpoint."""
        alt = (-1.0) ** np.arange(self.k + 1)
        return self.coeffs @ alt

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "PiecewisePoly"):
        if other.mesh is not self.mesh and not np.array_equal(
            other.mesh.breakpoints, self.mesh.breakpoints
        ):
            raise ValueError("operands live on different meshes")
        if other.k != self.k:
            raise ValueError("operands have different degrees")

    def __add__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if other.mesh is not self.mesh or other.k != self.k:
            self._check_compatible(other)
        return PiecewisePoly(self.mesh, self.k, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if other.mesh is not self.mesh or other.k != self.k:
            self._check_compatible(other)
        return PiecewisePoly(self.mesh, self.k, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        if type(scalar) is float:
            return PiecewisePoly(self.mesh, self.k, self.coeffs * scalar)
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return PiecewisePoly(self.mesh, self.k, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return PiecewisePoly(self.mesh, self.k, -self.coeffs)


def total_mass(u: PiecewisePoly) -> float:
    """Integral of u over the whole domain."""
    return float(np.dot(u.mesh.sizes, u.coeffs[:, 0]))


# -- interpolation ------------------------------------------------------------


class InterpKind(Enum):
    MINUS = "minus"            # nodes x_{i,1} .. x_{i,k+1} (right endpoint in)
    PLUS = "plus"              # nodes x_{i,0} .. x_{i,k}   (left endpoint in)
    PLUS_MINUS = "plus_minus"  # both endpoints plus x_{i,1} .. x_{i,k-1}
    AUTO = "auto"              # per-element choice from the coefficient signs


def auto_interp_kinds(partition: Partition, coeff: FluxCoefficient) -> np.ndarray:
    """Per-element interpolant choice driven by the endpoint signs of alpha.

    The upwind flux consults an element's left trace only where alpha <= 0
    at its left interface, and its right trace only where alpha > 0 at its
    right interface.  Each element anchors exactly the endpoints that are
    consulted: both (source-type sign change) selects the endpoint-anchored
    set, only the right selects the right-biased set, only the left the
    left-biased set, and an unconsulted (sink-type) element defaults to the
    right-biased set matching its inflow from the positive side.  This makes
    the upwind trace of the interpolant exact at every interface while keeping
    all interior partition points interpolated wherever possible.

    The choice is returned as an (N,) integer array: the index of the
    partition point the element's node set leaves out, 0 for MINUS, k+1 for
    PLUS and k for PLUS_MINUS.
    """
    left = coeff.interface_signs[:-1]
    right = coeff.interface_signs[1:]
    k = partition.k
    return np.where(left > 0, 0, np.where(right > 0, k, k + 1))


class InterpNodes(NamedTuple):
    x: np.ndarray       # (N, k+1) domain coordinates of the interpolation nodes
    s: np.ndarray       # (N, k+1) matching reference coordinates


def interpolation_nodes(
    partition: Partition,
    coeff: FluxCoefficient | None = None,
    kind: InterpKind = InterpKind.AUTO,
) -> InterpNodes:
    """Domain/reference coordinates of each element's k+1 interpolation nodes.

    Every node set is the element's k+2 partition points less one: MINUS drops
    the left endpoint, PLUS the right one and PLUS_MINUS the last interior point.
    A ``kind`` that is not an :class:`InterpKind`, or AUTO without ``coeff``,
    raises InvalidConfigError.
    """
    if not isinstance(kind, InterpKind):
        raise InvalidConfigError(f"unknown interpolant kind {kind!r}")
    if kind is InterpKind.AUTO:
        if coeff is None:
            raise InvalidConfigError("automatic interpolation needs the flux coefficient")
        return _nodes_without(partition, auto_interp_kinds(partition, coeff))
    k = partition.k
    fixed = {InterpKind.MINUS: 0, InterpKind.PLUS: k + 1, InterpKind.PLUS_MINUS: k}
    return _nodes_without(partition, np.full(partition.mesh.n_elements, fixed[kind]))


def _nodes_without(partition: Partition, dropped: np.ndarray) -> InterpNodes:
    """The node sets that leave out partition point ``dropped[i]`` of each element i."""
    keep = np.arange(partition.k + 2) != dropped[:, None]
    s_nodes = partition.ref_points[keep].reshape(dropped.size, partition.k + 1)
    gaps = np.diff(s_nodes, axis=1).min(axis=1)
    if gaps.min() < 1e-13:
        raise DegenerateNodesError(f"interpolation nodes coincide in element {gaps.argmin()}")
    x_nodes = partition.mesh.centers[:, None] + 0.5 * partition.mesh.sizes[:, None] * s_nodes
    return InterpNodes(x=x_nodes, s=s_nodes)


def interpolate(
    f: Callable[[np.ndarray], np.ndarray],
    partition: Partition,
    coeff: FluxCoefficient | None = None,
    kind: InterpKind = InterpKind.AUTO,
) -> PiecewisePoly:
    """Element-by-element Lagrange interpolation of f onto the broken space.

    ``f`` must accept ndarray arguments and return finite real values of the
    same shape.  The result reproduces any piecewise polynomial of degree <= k
    exactly.
    """
    nodes = interpolation_nodes(partition, coeff, kind)
    values = np.asarray(f(nodes.x))
    if values.dtype.kind == "c" or values.shape != nodes.x.shape or not np.isfinite(values).all():
        raise InvalidConfigError(
            "the interpolated function must give a finite real value at every node"
        )
    return _fit(values.astype(float, copy=False), nodes, partition)


def _fit(values: np.ndarray, nodes: InterpNodes, partition: Partition) -> PiecewisePoly:
    """The broken polynomial that takes the (N, k+1) ``values`` at ``nodes``."""
    vand = legendre_basis(partition.k, nodes.s)  # (N, k+1, k+1), rows are nodes
    coeffs = np.linalg.solve(vand, values[..., None])[..., 0]
    return PiecewisePoly(partition.mesh, partition.k, coeffs)


# -- control-volume transform ---------------------------------------------------


def t_transform(w: PiecewisePoly, partition: Partition) -> np.ndarray:
    """Map w to its (N, k+1) control-volume constants via the weighted-derivative recurrence.

    Starting from the element's own left-endpoint value, each constant adds the
    scaled rule weight times w_x at the next partition point.  For node sets
    whose endpoint weight vanishes the first/last constants collapse to the
    one-sided endpoint traces of w.
    """
    if w.k != partition.k:
        raise ValueError("polynomial degree does not match partition order")
    k = partition.k
    increments = partition.subweights * w.eval_ref_deriv(partition.ref_points)
    values = np.cumsum(increments[:, : k + 1], axis=1)
    values += w.left_traces()[:, None]
    return values


def element_antiderivative(u: PiecewisePoly) -> PiecewisePoly:
    """Per-element antiderivative (degree k+1), vanishing constant mode.

    Uses the Legendre identity: the antiderivative of L_m is
    (L_{m+1} - L_{m-1}) / (2m+1) for m >= 1 and L_1 for m = 0, scaled by h/2.
    """
    n, k = u.mesh.n_elements, u.k
    out = np.zeros((n, k + 2))
    half = 0.5 * u.mesh.sizes
    out[:, 1] += half * u.coeffs[:, 0]
    for m in range(1, k + 1):
        c = half * u.coeffs[:, m] / (2 * m + 1)
        out[:, m + 1] += c
        out[:, m - 1] -= c
    return PiecewisePoly(u.mesh, k + 1, out)


def cv_integrals(u: PiecewisePoly, partition: Partition) -> np.ndarray:
    """Exact integrals of u over every control volume, shape (N, k+1)."""
    return np.diff(element_antiderivative(u).eval_ref(partition.ref_points), axis=1)


def transform_inner_products(u: PiecewisePoly, partition: Partition) -> np.ndarray:
    """Per-element inner products of u against its own transform image."""
    return np.sum(cv_integrals(u, partition) * t_transform(u, partition), axis=1)


def triple_norm(u: PiecewisePoly, partition: Partition) -> float:
    """Square root of the summed transform inner products.

    Coincides with the broken L2 norm on Radau partitions and stays uniformly
    equivalent to it on Gauss partitions.
    """
    total = float(np.sum(transform_inner_products(u, partition)))
    return float(np.sqrt(max(total, 0.0)))


# -- norms ----------------------------------------------------------------------


def broken_norm(
    u: PiecewisePoly,
    kind: str = "l2",
    reference: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Broken L2 or Linf norm of u, or of u - reference.

    L2 integrates the squared integrand with a per-element (k+3)-point Gauss
    panel, exact for the bare polynomial.  Linf samples 21 equispaced points
    per element, endpoints included, so both one-sided traces at every
    breakpoint participate.
    """
    mesh = u.mesh
    if kind == "l2":
        s, wq = gauss_panel(u.k + 3)
    elif kind == "linf":
        s = np.linspace(-1.0, 1.0, LINF_SAMPLES)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")

    vals = u.eval_ref(s)
    if reference is not None:
        x = mesh.centers[:, None] + 0.5 * mesh.sizes[:, None] * s[None, :]
        vals = vals - np.asarray(reference(x), dtype=float)

    if kind == "linf":
        return float(np.max(np.abs(vals)))
    return _grid_l2(vals, wq, mesh.sizes)


def _grid_l2(values: np.ndarray, weights: np.ndarray, sizes: np.ndarray) -> float:
    """Broken L2 norm from (N, q) samples on one Gauss panel of ``weights`` per element."""
    return float(np.sqrt(0.5 * np.dot(sizes, (values * values) @ weights)))
