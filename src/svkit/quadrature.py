"""Gauss-Legendre and Radau quadrature rules on the reference interval [-1, 1].

A rule of order k carries k+2 abscissae s_0 = -1 < s_1 < ... < s_{k+1} = 1.
Both endpoints are always present because they double as partition points of
the control volumes; an endpoint that is not a quadrature node carries zero
weight.  The interior nodes are the zeros of

* ``L_k``              for the Gauss kind (k nodes, exact to degree 2k-1),
* ``L_{k+1} - L_k``    for the right Radau kind (k+1 nodes incl. +1, degree 2k),
* ``L_{k+1} + L_k``    for the left Radau kind (k+1 nodes incl. -1, degree 2k),

where ``L_m`` is the Legendre polynomial normalized by ``L_m(1) = 1``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .exceptions import InvalidConfigError, NonConvergenceError

MAX_ORDER = 12

_NEWTON_TOL = 1e-14
_NEWTON_CAP = 100
_RESIDUAL_TOL = 1e-13


class RuleKind(Enum):
    GAUSS = "gauss"
    RADAU_RIGHT = "radau_right"
    RADAU_LEFT = "radau_left"


# A partition stores each element's rule kind as its index in this tuple.
RULE_KINDS = tuple(RuleKind)


def legendre_basis(k: int, s) -> np.ndarray:
    """Values of L_0 .. L_k at ``s`` via the three-term recurrence.

    Returns an array of shape ``s.shape + (k+1,)``.
    """
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape + (k + 1,))
    out[..., 0] = 1.0
    if k >= 1:
        out[..., 1] = s
    for m in range(1, k):
        out[..., m + 1] = ((2 * m + 1) * s * out[..., m] - m * out[..., m - 1]) / (m + 1)
    return out


def legendre_basis_deriv(k: int, s) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives of L_0 .. L_k at ``s``.

    Uses L'_{m+1} = L'_{m-1} + (2m+1) L_m, which is stable at the endpoints.
    """
    s = np.asarray(s, dtype=float)
    vals = legendre_basis(k, s)
    der = np.zeros_like(vals)
    if k >= 1:
        der[..., 1] = 1.0
    for m in range(1, k):
        der[..., m + 1] = der[..., m - 1] + (2 * m + 1) * vals[..., m]
    return vals, der


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-interval node/weight set of one of the three kinds."""

    kind: RuleKind
    k: int
    points: np.ndarray   # k+2 abscissae, s_0 = -1 < ... < s_{k+1} = 1
    weights: np.ndarray  # k+2 weights; non-node endpoints carry 0


@lru_cache(maxsize=None)
def gauss_panel(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1], read-only.

    The nodes are the zeros of L_m from the Newton iteration of the Gauss
    rules, and the weights the closed form 2 / ((1 - s^2) L'_m(s)^2).  As in
    numpy's ``leggauss``, both are then made symmetric about 0 and the weights
    scaled to sum to 2; unlike it, no eigen-solver or ``numpy.polynomial`` is
    loaded.  The iteration's residual check holds up to m = 85, far above the
    k + 3 <= 15 points the package uses.
    """
    s = _newton_interior(RuleKind.GAUSS, m)
    _, der = legendre_basis_deriv(m, s)
    weights = 2.0 / ((1.0 - s * s) * der[:, m] ** 2)
    nodes = (s - s[::-1]) / 2
    weights = (weights + weights[::-1]) / 2
    weights *= 2.0 / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _target(kind: RuleKind, k: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root-finding target polynomial and its derivative for the interior nodes."""
    vals, der = legendre_basis_deriv(k + 1, s)
    if kind is RuleKind.GAUSS:
        return vals[..., k], der[..., k]
    if kind is RuleKind.RADAU_RIGHT:
        return vals[..., k + 1] - vals[..., k], der[..., k + 1] - der[..., k]
    return vals[..., k + 1] + vals[..., k], der[..., k + 1] + der[..., k]


def _initial_guesses(kind: RuleKind, k: int) -> np.ndarray:
    """Chebyshev-flavored starting points for the k interior roots."""
    if kind is RuleKind.GAUSS:
        j = np.arange(1, k + 1)
        return np.sort(np.cos(np.pi * (4 * j - 1) / (4 * k + 2)))
    # Left Radau: nodes cluster toward -1; right Radau is the mirror image.
    j = np.arange(1, k + 1)
    left = -np.cos(2 * np.pi * j / (2 * k + 1))
    if kind is RuleKind.RADAU_LEFT:
        return np.sort(left)
    return np.sort(-left)


def _newton_interior(kind: RuleKind, k: int) -> np.ndarray:
    s = _initial_guesses(kind, k)
    for _ in range(_NEWTON_CAP):
        f, df = _target(kind, k, s)
        step = f / df
        s = s - step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    else:
        raise NonConvergenceError(
            f"node iteration for {kind.value} k={k} did not converge in {_NEWTON_CAP} steps"
        )
    s = np.sort(s)
    resid, _ = _target(kind, k, s)
    if np.max(np.abs(resid)) >= _RESIDUAL_TOL:
        raise NonConvergenceError(
            f"node residual {np.max(np.abs(resid)):.2e} exceeds {_RESIDUAL_TOL} "
            f"for {kind.value} k={k}"
        )
    if np.any(np.diff(s) < 1e-8) or s[0] <= -1.0 or s[-1] >= 1.0:
        raise NonConvergenceError(f"interior nodes degenerate for {kind.value} k={k}")
    return s


def _cardinal_weights(nodes: np.ndarray, panel: int) -> np.ndarray:
    """Weights A_j = integral over [-1,1] of the Lagrange cardinal at nodes[j]."""
    sg, wg = gauss_panel(panel)
    weights = np.empty(nodes.size)
    for j, node in enumerate(nodes):
        others = np.delete(nodes, j)
        card = np.prod((sg[:, None] - others[None, :]) / (node - others[None, :]), axis=1)
        weights[j] = np.dot(wg, card)
    return weights


def check_order(k) -> None:
    """Raise InvalidConfigError unless k is an integer in [1, 12]."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise InvalidConfigError(f"order k must be an integer, got {k!r}")
    if not 1 <= k <= MAX_ORDER:
        raise InvalidConfigError(f"order k must lie in [1, {MAX_ORDER}], got {k}")


def make_rule(kind: RuleKind, k: int) -> QuadratureRule:
    """Build the quadrature rule of the given kind and order k in [1, 12]."""
    check_order(k)
    if not isinstance(kind, RuleKind):
        raise InvalidConfigError(f"unknown rule kind {kind!r}")
    return _build_rule(kind, int(k))


@lru_cache(maxsize=None)
def _build_rule(kind: RuleKind, k: int) -> QuadratureRule:
    interior = _newton_interior(kind, k)
    points = np.concatenate(([-1.0], interior, [1.0]))

    # Quadrature nodes: interior points plus any endpoint that is a Radau node.
    if kind is RuleKind.GAUSS:
        active = slice(1, k + 1)
    elif kind is RuleKind.RADAU_RIGHT:
        active = slice(1, k + 2)
    else:
        active = slice(0, k + 1)
    weights = np.zeros(k + 2)
    weights[active] = _cardinal_weights(points[active], panel=k + 2)

    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(kind=kind, k=k, points=points, weights=weights)

