"""Element meshes on [0, 2*pi], control-volume partitions, and coefficient caching.

The domain is always the periodic interval [0, 2*pi].  A partition subdivides
each element into k+1 control volumes whose breakpoints are the affine image
of a reference quadrature rule; which rule a given element receives is the
defining difference between the two spectral-volume variants:

* LSV uses the Gauss rule everywhere,
* RSV picks right/left Radau by the sign of the flux coefficient at the two
  element endpoints, falling back to a configurable tie-break when the sign
  pattern is mixed or degenerate.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .exceptions import InvalidConfigError
from .quadrature import RULE_KINDS, RuleKind, make_rule

DOMAIN_LENGTH = 2.0 * np.pi

# Coefficient magnitudes at or below this level are treated as exact zeros so
# that upwind branches and element classification stay platform-independent.
ZERO_SNAP = 1e-14

MAX_PERTURBATION = 0.4
MAX_SIZE_RATIO = 10.0


def _is_number(value, kind=numbers.Real) -> bool:
    # numbers counts a bool as an integer, so True would pass as 1.
    return isinstance(value, kind) and not isinstance(value, bool)


class Scheme(Enum):
    LSV = "lsv"
    RSV = "rsv"


@dataclass(frozen=True)
class Mesh1D:
    """Strictly increasing breakpoints x_{1/2} .. x_{N+1/2} covering [0, 2*pi]."""

    breakpoints: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 3:
            raise InvalidConfigError("mesh needs at least 2 elements")
        if not (np.all(np.diff(bp) > 0)):
            raise InvalidConfigError("breakpoints must be strictly increasing")
        if abs(bp[0]) > 1e-14 or abs(bp[-1] - DOMAIN_LENGTH) > 1e-12:
            raise InvalidConfigError("mesh must cover exactly [0, 2*pi]")
        h = np.diff(bp)
        if h.max() / h.min() > MAX_SIZE_RATIO:
            raise InvalidConfigError(
                f"shape regularity violated: max/min element ratio {h.max() / h.min():.2f}"
            )
        bp = bp.copy()
        bp.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)

    @cached_property  # the breakpoints are read-only; every PiecewisePoly checks this
    def n_elements(self) -> int:
        return self.breakpoints.size - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])


def build_mesh(n: int, perturbation: float = 0.0, seed: int = 0) -> Mesh1D:
    """Uniform n-element mesh, optionally with seeded jitter at interior breakpoints.

    Each interior breakpoint moves by ``(2u - 1) * perturbation * (2*pi/n)``,
    with u drawn in turn from ``random.Random(seed)``, so by less than
    ``perturbation * (2*pi/n)``; perturbation must stay below 0.4 to preserve
    monotonicity.
    """
    if not _is_number(n, numbers.Integral) or n < 2:
        raise InvalidConfigError(f"element count must be an integer >= 2, got {n!r}")
    if not _is_number(seed, numbers.Integral) or seed < 0:
        raise InvalidConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if not _is_number(perturbation) or not 0.0 <= perturbation < MAX_PERTURBATION:
        raise InvalidConfigError(
            f"perturbation must lie in [0, {MAX_PERTURBATION}), got {perturbation!r}"
        )
    bp = np.linspace(0.0, DOMAIN_LENGTH, n + 1)
    if perturbation > 0.0:
        # The standard library's generator: numpy.random would load secrets,
        # hashlib and OpenSSL into the process for these n - 1 numbers.
        rng = random.Random(int(seed))  # Random rejects numpy integers
        h = DOMAIN_LENGTH / n
        bp[1:-1] += [(2.0 * rng.random() - 1.0) * perturbation * h for _ in range(n - 1)]
    return Mesh1D(breakpoints=bp)


class FluxCoefficient:
    """The coefficient alpha as an evaluable plus cached interface values/signs.

    ``alpha`` must accept ndarray arguments and return finite real values of
    the same shape.  Interface values within
    ``ZERO_SNAP`` of zero are snapped to exactly 0 and classified with the
    non-positive upwind branch; the wrap-around interface reuses the value at
    x = 0 so both ends of the periodic domain agree bitwise.
    """

    def __init__(self, alpha, mesh: Mesh1D):
        self.alpha = alpha
        vals = np.asarray(alpha(mesh.breakpoints))
        if (
            vals.dtype.kind == "c"
            or vals.shape != mesh.breakpoints.shape
            or not np.isfinite(vals).all()
        ):
            raise InvalidConfigError(
                "the flux coefficient must give a finite real value at every breakpoint"
            )
        vals = vals.astype(float)  # a copy: the snaps below must not reach alpha's array
        vals[-1] = vals[0]  # periodic identification of x = 0 and x = 2*pi
        vals[np.abs(vals) <= ZERO_SNAP] = 0.0
        signs = np.sign(vals).astype(np.int8)
        vals.setflags(write=False)
        signs.setflags(write=False)
        self.interface_values = vals
        self.interface_signs = signs


def classify_elements(mesh: Mesh1D, coeff: FluxCoefficient) -> np.ndarray:
    """Class 1/2/3 per element: both endpoint signs positive, both negative, mixed.

    Snapped zero endpoint values always land an element in class 3.
    """
    left = coeff.interface_signs[:-1]
    right = coeff.interface_signs[1:]
    omega = np.full(mesh.n_elements, 3, dtype=np.int8)
    omega[(left > 0) & (right > 0)] = 1
    omega[(left < 0) & (right < 0)] = 2
    return omega


@dataclass(frozen=True)
class Partition:
    """Per-element control-volume breakpoints and their quadrature metadata.

    Each element's rule kind is stored as an int8 code, its index in ``RULE_KINDS``.
    """

    mesh: Mesh1D
    k: int
    scheme: Scheme
    kinds: np.ndarray       # (N,) int8 rule code per element, RULE_KINDS[code] its kind
    ref_points: np.ndarray  # (N, k+2) abscissae of each element's rule on [-1, 1]
    subpoints: np.ndarray   # (N, k+2) domain coordinates, endpoints exact
    subweights: np.ndarray  # (N, k+2) scaled weights (h_i/2) * A_j


def build_partition(
    mesh: Mesh1D,
    k: int,
    scheme: Scheme,
    coeff: FluxCoefficient,
    tie_break: RuleKind = RuleKind.RADAU_RIGHT,
) -> Partition:
    """Assign a rule kind to every element and map its points into the element."""
    if tie_break not in (RuleKind.RADAU_RIGHT, RuleKind.RADAU_LEFT):
        raise InvalidConfigError("tie_break must be one of the two Radau kinds")
    rules = [make_rule(kind, k) for kind in RULE_KINDS]

    if scheme is Scheme.LSV:
        kinds = np.zeros(mesh.n_elements, dtype=np.int8)
    elif scheme is Scheme.RSV:
        # Classes 1, 2, 3 (both signs positive, both negative, mixed) map to
        # right Radau, left Radau and the tie-break; class 0 does not occur.
        codes = np.array([0, 1, 2, RULE_KINDS.index(tie_break)], dtype=np.int8)
        kinds = codes[classify_elements(mesh, coeff)]
    else:
        raise InvalidConfigError(f"unknown scheme {scheme!r}")

    ref_points = np.stack([rule.points for rule in rules])[kinds]
    ref_weights = np.stack([rule.weights for rule in rules])[kinds]

    half = 0.5 * mesh.sizes[:, None]
    subpoints = mesh.centers[:, None] + half * ref_points
    subweights = half * ref_weights
    # Control-volume endpoints are element breakpoints, bit for bit.
    subpoints[:, 0] = mesh.breakpoints[:-1]
    subpoints[:, -1] = mesh.breakpoints[1:]

    for arr in (kinds, ref_points, subpoints, subweights):
        arr.setflags(write=False)
    return Partition(
        mesh=mesh,
        k=k,
        scheme=scheme,
        kinds=kinds,
        ref_points=ref_points,
        subpoints=subpoints,
        subweights=subweights,
    )
