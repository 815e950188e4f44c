"""Spectral-volume semi-discrete operator: du/dt from the control-volume residuals.

Each element imposes the integral conservation statement on its k+1 control
volumes.  Fluxes at interior control-volume faces use the single-valued
in-element polynomial; fluxes at element interfaces use the upwind trace.  The
degree-k polynomial is recovered from its k+1 control-volume integrals by its
rule's reference inverse.  The result is linear in the state and couples each
element to its two neighbours only through the upwind traces at its two
interfaces, so the operator is built once as a compact block stencil over
[right trace of c_{i-1}, c_i, left trace of c_{i+1}].

Layout: the stencil and the source nodes keep the element index last, so
every product is a contraction whose innermost loop runs over the
elements; an element-stacked ``np.matmul`` would instead make one small BLAS
call per element.  A stencil is a C-contiguous (k+1, k+3, N) array.  Its
columns are the right trace (mode sum) of element i-1, the k+1 modes of
element i and the left trace (alternating sum) of element i+1: each
neighbour block of the full (k+1, 3(k+1)) element matrix is rank 1, a
column times the trace row, and the stencil keeps only that column.

This operator and the DG one of :mod:`svkit.dg` build only their stencils and
source projections; :class:`AffineOperator` applies both.  On a small mesh it
applies A as one dense matrix assembled from the stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import InvalidConfigError, SingularMatrixError
from .mesh import FluxCoefficient, Partition, Scheme
from .poly import PiecewisePoly
from .quadrature import (
    RULE_KINDS,
    RuleKind,
    check_order,
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
        check_order(self.k)


def _legendre_antiderivative_table(k: int, s: np.ndarray) -> np.ndarray:
    """A[j, m] = antiderivative of L_m evaluated at s_j (constant-free)."""
    vals = legendre_basis(k + 1, s)
    table = np.empty((s.size, k + 1))
    table[:, 0] = s
    for m in range(1, k + 1):
        table[:, m] = (vals[:, m + 1] - vals[:, m - 1]) / (2 * m + 1)
    return table


@lru_cache(maxsize=None)
def cv_matrix(kind: RuleKind, k: int) -> np.ndarray:
    """Read-only inverse of the control-volume moment matrix of one rule kind and order k, cached.

    Entry [j, m] of the moment matrix is the integral of L_m over
    [s_j, s_{j+1}], computed exactly from the Legendre antiderivative
    identity.  It must have a 1-norm condition number below 1e8; over every
    kind and k <= 12 the largest is 169.
    """
    anti = _legendre_antiderivative_table(k, make_rule(kind, k).points)
    matrix = anti[1:] - anti[:-1]
    cond = np.linalg.cond(matrix, 1)
    if not np.isfinite(cond) or cond >= _COND_LIMIT:
        raise SingularMatrixError(
            f"control-volume matrix ill-conditioned ({cond:.2e}) for {kind.value} k={k}"
        )
    inverse = np.linalg.inv(matrix)
    inverse.setflags(write=False)
    return inverse


# -- block stencils: du/dt = A u + s(t), with A coupling each element to its two neighbours


def upwind_weights(coeff: FluxCoefficient) -> np.ndarray:
    """(N, 4) upwind parts of alpha at each element's left, then right, interface.

    Per interface a+ = alpha where alpha > 0, else 0, and a- = alpha - a+; the
    upwind flux is a+ times the trace from the left of the interface plus a-
    times the trace from its right, and one of the two terms is exactly zero.
    The columns pair with the rows of :func:`trace_rows`.
    """
    a = coeff.interface_values
    a_pos = np.where(a > 0.0, a, 0.0)
    a_neg = a - a_pos
    return np.column_stack([a_pos[:-1], a_neg[:-1], a_pos[1:], a_neg[1:]])


@lru_cache(maxsize=None)
def _lift(k: int) -> np.ndarray:
    """(k+1, k+3) matrix [ones | I | alt] from an element's modes to its stencil entries, read-only.

    A row of coefficients times it is the element's right trace (mode sum),
    its k+1 modes and its left trace (alternating sum).
    """
    alt = (-1.0) ** np.arange(k + 1)
    matrix = np.column_stack([np.ones(k + 1), np.eye(k + 1), alt])
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def trace_rows(k: int) -> np.ndarray:
    """(4, k+3) one-sided traces as rows over the compact stencil columns, read-only.

    The rows are the right trace of element i-1 (its column), the left trace
    (alternating sum) of element i, the right trace (mode sum) of element i
    and the left trace of element i+1 (its column).
    """
    rows = np.zeros((4, k + 3))
    rows[0, 0] = 1.0
    rows[1, 1:-1] = _lift(k)[:, -1]
    rows[2, 1:-1] = 1.0
    rows[3, -1] = 1.0
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _sv_patterns(kind: RuleKind, k: int) -> np.ndarray:
    """((k+1)(k+3), k+4) reference stencils of one rule kind, per unit weight, read-only.

    The weights are the four columns of :func:`upwind_weights`, then alpha at
    the k interior CV faces.  For each, the flux at every CV face is a row
    over the compact stencil columns (interior faces: the element's own
    Legendre modes), and the pattern is the CV inverse times the face
    differences.  The patterns are stored transposed, one row per stencil
    entry, so that their product with the (k+4, N) weights is an element-last
    stencil.
    """
    faces = np.zeros((k + 4, k + 2, k + 3))
    rows = trace_rows(k)
    faces[:2, 0] = rows[:2]
    faces[2:4, -1] = rows[2:]
    interior = make_rule(kind, k).points[1 : k + 1]
    faces[4 + np.arange(k), 1 + np.arange(k), 1:-1] = legendre_basis(k, interior)
    patterns = cv_matrix(kind, k) @ (faces[:, :-1] - faces[:, 1:])  # (k+4, k+1, k+3)
    patterns_t = np.ascontiguousarray(patterns.transpose(1, 2, 0)).reshape(-1, k + 4)
    patterns_t.setflags(write=False)
    return patterns_t


@lru_cache(maxsize=None)
def _sv_source_map(kind: RuleKind, k: int) -> np.ndarray:
    """((k+1)(k+2), k+1) map from g at one rule kind's source nodes to modes, read-only.

    Row j(k+2) + q holds node q of control volume j.  The CV integral is the
    CV's (k+2)-point Gauss sum times its half-width, and that half-width times
    the 2/h of the recovery is the reference half-width (s_{j+1} - s_j)/2, so
    the map is the CV inverse times the reference half-widths times the Gauss
    weights, the same for every element of the kind.
    """
    _, wg = gauss_panel(k + SOURCE_QUAD_EXTRA)
    half = 0.5 * np.diff(make_rule(kind, k).points)
    cv_map = (cv_matrix(kind, k).T * half[:, None])[:, None, :] * wg[:, None]
    cv_map = cv_map.reshape(-1, k + 1)
    cv_map.setflags(write=False)
    return cv_map


# The largest M = N(k+1) at which A is applied as one dense (M, M) matrix.  On
# small meshes a call is NumPy overhead, not flops, and one matrix-vector
# product costs less than the lift, the gather, the contraction and the
# transposed copy; the M^2 product catches up as M grows.  In
# BENCH_dense_apply.json (scripts/time_apply.py, one thread) the dense path
# took at most 0.55 of the compact stencil path's time at every grid point
# with M <= 128, 0.57 at M = 144-156, 0.87 at M = 192-208 and 1.33 at
# M = 256.  Over four runs of the grid the worst ratio at M = 192-208 ranged
# over 0.87-1.17.  The switch keeps the clear wins.
_DENSE_MAX_UNKNOWNS = 128


def _dense_matrix(stencil: np.ndarray) -> np.ndarray:
    """(M, M) matrix of the compact element-last ``stencil`` over the flat coefficients, read-only.

    Row i(k+1) + m holds row m of element i's stencil expanded to full
    blocks: the own columns over the modes of element i, the left column
    times 1 over every mode of element i-1 and the right column times
    (-1)^mode over the modes of element i+1.  Both products are exact.  On a
    two-element mesh both neighbours are one element, so the right-column
    block is added to the left-column one, rounded once.
    """
    m, _, n = stencil.shape
    own = (np.arange(n) * m + np.arange(m)[:, None])[None]  # (1, k+1, N): mode j of element i
    rows = own.transpose(1, 0, 2)                            # (k+1, 1, N)
    dense = np.zeros((n * m, n * m))
    dense[rows, own] = stencil[:, 1:-1]
    dense[rows, (own - m) % (n * m)] = stencil[:, :1]
    dense[rows, (own + m) % (n * m)] += stencil[:, -1:] * _lift(m - 1)[:, -1:]
    dense.setflags(write=False)
    return dense


class AffineOperator:
    """du/dt = A u + s(t) on a fixed mesh: an element-last block stencil A and a memoised source s.

    The spectral-volume and DG operators differ only in the (k+1, k+3, N)
    ``stencil`` and in how the source g is projected onto each element, so
    each builds those arrays and hands them here.  g is sampled on frozen
    (P, N) ``nodes``, the same P reference points in every element of a rule
    code.  The element size cancels from each projection, so one (P, k+1) map
    per rule code takes the samples to modal coefficients: ``source_map``
    stacks the C maps in use side by side, and element i reads row
    ``rows[i]`` = C·i + (position of its code) of g^T times it, reshaped to
    (N·C, k+1).  DG has C = 1.

    The stencil defines A.  On meshes with at most ``_DENSE_MAX_UNKNOWNS``
    unknowns N(k+1) the constructor also assembles A as one dense matrix from
    it, and :meth:`apply` multiplies by that instead.
    """

    def __init__(self, mesh, k, stencil, source=None, nodes=None, source_map=None, rows=None):
        self.mesh = mesh
        self.k = k
        self.source = source
        stencil.setflags(write=False)
        self._stencil = stencil
        # Row j of the gather holds the flat index, in the (N, k+3) lifted
        # coefficients c·_lift(k), of column j of element i's stencil: entry 0
        # of element i - 1, entry j of element i, entry k+2 of element i + 1.
        n = mesh.n_elements
        shift = np.zeros((k + 3, 1), dtype=np.intp)
        shift[0], shift[-1] = -1, 1
        self._lift = _lift(k)
        self._gather = (np.arange(n) + shift) % n * (k + 3) + np.arange(k + 3)[:, None]
        self._gather.setflags(write=False)
        self._dense = None
        if n * (k + 1) <= _DENSE_MAX_UNKNOWNS:
            self._dense = _dense_matrix(stencil)
        if source is not None:
            nodes.setflags(write=False)  # lets a source memoise per-node factors
            source_map.setflags(write=False)
            self._src_x = nodes
            self._src_map = source_map
            self._src_rows = rows
            self._src_memo: tuple[float, np.ndarray] | None = None

    def _source_term(self, t: float) -> np.ndarray:
        """(N, k+1) source term at time t; the last one is kept, as RK4 asks for each t twice."""
        if self._src_memo is not None and self._src_memo[0] == t:
            return self._src_memo[1]
        g = np.asarray(self.source(self._src_x, t))
        if g.shape != self._src_x.shape or g.dtype.kind == "c":
            raise InvalidConfigError("the source must give a real value at every source node")
        term = g.T.dot(self._src_map).reshape(-1, self.k + 1).take(self._src_rows, axis=0)
        self._src_memo = (t, term)
        return term

    def apply(self, c: np.ndarray, t: float) -> np.ndarray:
        """(N, k+1) coefficients of A c + s(t) for the (N, k+1) coefficients c.

        Two paths, one A.  On a small mesh, one product of the dense matrix
        with the flattened c.  Otherwise c·_lift(k) holds each element's right
        trace, modes and left trace; one flat take of it yields the stencil's
        columns ordered (column, element), so A c is one contraction over the
        middle axis with the elements innermost, then one contiguous copy of
        the transpose.
        """
        if self._dense is not None:
            out = self._dense.dot(c.ravel()).reshape(c.shape)
        else:
            gathered = c.dot(self._lift).take(self._gather)
            out = np.ascontiguousarray(np.einsum("ijn,jn->in", self._stencil, gathered).T)
        if self.source is not None:
            out += self._source_term(t)
        return out


class SVOperator(AffineOperator):
    """Precomputed spectral-volume right-hand side for a fixed partition.

    The constructor folds the upwind interface fluxes, the interior-face
    fluxes and each element's control-volume inverse into one compact
    element-last stencil, so a call is one trace lift, one neighbour gather
    and one contraction (on a small mesh, one dense product) whatever the
    elements' rule kinds.
    The source is integrated over each control volume by (k+2)-point Gauss
    and recovered by the CV inverse: per rule kind one fixed map from the
    (k+1)(k+2) node samples to the modes, as the element size cancels.
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

        mesh = partition.mesh
        k = config.k
        n = mesh.n_elements

        # Each element's stencil is its rule's patterns times its weights,
        # times 2/h.  Per rule code in use, one product with the weights
        # zeroed outside the code's elements: no gather or scatter, and the
        # sum over codes adds exact zeros.  LSV uses Gauss alone, RSV at most
        # the two Radau kinds.
        a_int = np.asarray(coeff.alpha(partition.subpoints[:, 1 : k + 1]), dtype=float)
        weights = np.column_stack([upwind_weights(coeff), a_int]) * (2.0 / mesh.sizes)[:, None]
        codes = partition.kinds
        used = np.flatnonzero(np.bincount(codes))  # the codes in use
        first, *others = used
        stencil = _sv_patterns(RULE_KINDS[first], k) @ (weights.T * (codes == first))
        for code in others:
            stencil += _sv_patterns(RULE_KINDS[code], k) @ (weights.T * (codes == code))
        stencil = stencil.reshape(k + 1, k + 3, n)

        nodes = source_map = rows = None
        if source is not None:
            sg, _ = gauss_panel(k + SOURCE_QUAD_EXTRA)
            sp = np.ascontiguousarray(partition.subpoints.T)  # (k+2, N)
            mid = 0.5 * (sp[1:] + sp[:-1])[:, None, :]        # (k+1, 1, N)
            half = 0.5 * (sp[1:] - sp[:-1])[:, None, :]       # (k+1, 1, N)
            # A fresh C-contiguous array, not a reshaped view: strided nodes slow
            # every source evaluation, and a source memoises only arrays that
            # own their data.
            nodes = np.empty(((k + 1) * sg.size, n))
            np.add(mid, half * sg[:, None], out=nodes.reshape(k + 1, sg.size, n))
            source_map = np.hstack([_sv_source_map(RULE_KINDS[code], k) for code in used])
            rows = np.arange(n) * used.size + np.searchsorted(used, codes)
        super().__init__(mesh, k, stencil, source, nodes, source_map, rows)

    def __call__(self, u: PiecewisePoly, t: float) -> PiecewisePoly:
        return PiecewisePoly(self.mesh, self.k, self.apply(u.coeffs, t))
