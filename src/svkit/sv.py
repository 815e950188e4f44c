"""Spectral-volume semi-discrete operator: du/dt from the control-volume residuals.

Each element imposes the integral conservation statement on its k+1 control
volumes.  Fluxes at interior control-volume faces use the single-valued
in-element polynomial; fluxes at element interfaces use the upwind trace.  The
degree-k polynomial is recovered from its k+1 control-volume integrals by one
reference inverse per rule kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import InvalidConfigError, SingularMatrixError
from .mesh import FluxCoefficient, Partition, Scheme
from .poly import PiecewisePoly
from .quadrature import (
    MAX_ORDER,
    QuadratureRule,
    RuleKind,
    gauss_panel,
    legendre_basis,
    make_rule,
)

_COND_LIMIT = 1e8
SOURCE_QUAD_EXTRA = 2  # (k+2)-point Gauss per control volume for the source integrals


@dataclass(frozen=True)
class SchemeConfig:
    """Order and variant of one spectral-volume run."""

    k: int
    variant: Scheme

    def __post_init__(self):
        if not 1 <= self.k <= MAX_ORDER:
            raise InvalidConfigError(f"order k must lie in [1, {MAX_ORDER}], got {self.k}")


@dataclass(frozen=True)
class ControlVolumeMatrix:
    """Reference matrix of Legendre moments over control volumes, with its inverse.

    ``matrix[j, m]`` is the integral of L_m over [s_j, s_{j+1}]; columns are
    computed exactly from the Legendre antiderivative identity.
    """

    matrix: np.ndarray
    inverse: np.ndarray


def _legendre_antiderivative_table(k: int, s: np.ndarray) -> np.ndarray:
    """A[j, m] = antiderivative of L_m evaluated at s_j (constant-free)."""
    vals = legendre_basis(k + 1, s)
    table = np.empty((s.size, k + 1))
    table[:, 0] = s
    for m in range(1, k + 1):
        table[:, m] = (vals[:, m + 1] - vals[:, m - 1]) / (2 * m + 1)
    return table


def cv_matrix(rule: QuadratureRule) -> ControlVolumeMatrix:
    """Control-volume moment matrix for one rule, cached per (kind, order)."""
    return _cv_matrix(rule.kind, rule.k)


@lru_cache(maxsize=None)
def _cv_matrix(kind: RuleKind, k: int) -> ControlVolumeMatrix:
    anti = _legendre_antiderivative_table(k, make_rule(kind, k).points)
    matrix = anti[1:] - anti[:-1]
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond >= _COND_LIMIT:
        raise SingularMatrixError(
            f"control-volume matrix ill-conditioned ({cond:.2e}) for {kind.value} k={k}"
        )
    inverse = np.linalg.inv(matrix)
    matrix.setflags(write=False)
    inverse.setflags(write=False)
    return ControlVolumeMatrix(matrix=matrix, inverse=inverse)


def upwind_fluxes(u: PiecewisePoly, coeff: FluxCoefficient) -> np.ndarray:
    """Flux alpha * upwind-trace at all N+1 interfaces (last equals first)."""
    um = u.right_traces()
    up = u.left_traces()
    a = coeff.interface_values[:-1]
    flux = np.where(a > 0.0, a * np.roll(um, 1), a * up)
    return np.concatenate([flux, flux[:1]])


class SVOperator:
    """Precomputed spectral-volume right-hand side for a fixed partition.

    The instance is reusable across time steps: all geometry, coefficient
    samples, and factorizations are set up once as per-element stacks, so a
    call treats every element alike whatever its rule kind.
    """

    def __init__(
        self,
        config: SchemeConfig,
        partition: Partition,
        coeff: FluxCoefficient,
        source=None,
    ):
        if config.k != partition.k:
            raise InvalidConfigError("config order does not match partition order")
        if config.variant is not partition.scheme:
            raise InvalidConfigError("config variant does not match partition scheme")
        self.source = source

        mesh = partition.mesh
        k = config.k
        self._mesh = mesh
        self._k = k
        self._coeff = coeff

        # (N, k, k+1): alpha times the Legendre modes at the interior CV faces.
        a_int = np.asarray(coeff.alpha(partition.subpoints[:, 1 : k + 1]), dtype=float)
        self._face_modes = a_int[..., None] * legendre_basis(k, partition.ref_points[:, 1 : k + 1])
        # (N, k+1, k+1): the reference CV inverse of each element's rule, times 2/h.
        cv_inv = np.empty((mesh.n_elements, k + 1, k + 1))
        for kind in RuleKind:
            cv_inv[partition.kinds == kind] = _cv_matrix(kind, k).inverse
        cv_inv *= (2.0 / mesh.sizes)[:, None, None]
        self._cv_inv = cv_inv

        if source is not None:
            sg, wg = gauss_panel(k + SOURCE_QUAD_EXTRA)
            sp = partition.subpoints  # (N, k+2)
            mid = 0.5 * (sp[:, 1:] + sp[:, :-1])[..., None]        # (N, k+1, 1)
            half = 0.5 * (sp[:, 1:] - sp[:, :-1])[..., None]       # (N, k+1, 1)
            self._src_x = mid + half * sg[None, None, :]           # (N, k+1, q)
            self._src_w = half * wg[None, None, :]                 # (N, k+1, q)
            self._src_memo: tuple[float, np.ndarray] | None = None

    def _source_cv(self, t: float) -> np.ndarray:
        if self._src_memo is not None and self._src_memo[0] == t:
            return self._src_memo[1]
        g = np.asarray(self.source(self._src_x, t), dtype=float)
        cv = np.sum(g * self._src_w, axis=2)
        self._src_memo = (t, cv)
        return cv

    def __call__(self, u: PiecewisePoly, t: float) -> PiecewisePoly:
        flux = upwind_fluxes(u, self._coeff)
        faces = np.empty((flux.size - 1, self._k + 2))
        faces[:, 0] = flux[:-1]
        faces[:, -1] = flux[1:]
        faces[:, 1:-1] = np.einsum("njm,nm->nj", self._face_modes, u.coeffs)

        residual = faces[:, :-1] - faces[:, 1:]
        if self.source is not None:
            residual += self._source_cv(t)
        return PiecewisePoly(self._mesh, self._k, np.einsum("nij,nj->ni", self._cv_inv, residual))
