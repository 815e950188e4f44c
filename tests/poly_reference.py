"""Reference quadrature and pointwise evaluation, shared by the tests."""

import numpy as np

from svkit.quadrature import RuleKind, gauss_panel


def exact_degree(kind: RuleKind, k: int) -> int:
    """Highest polynomial degree that the order-k rule of ``kind`` integrates exactly."""
    return 2 * k - 1 if kind is RuleKind.GAUSS else 2 * k


def integrate_panel(f, a: float, b: float, m: int) -> float:
    """m-point Gauss-Legendre approximation of the integral of f over [a, b].

    Exact to roundoff for polynomials of degree <= 2m - 1.  ``f`` must accept
    an ndarray of abscissae.
    """
    sg, wg = gauss_panel(m)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(wg, np.asarray(f(mid + half * sg), dtype=float)))


def point_values(u, x) -> np.ndarray:
    """Values of the broken polynomial u at points x that lie inside elements, not on breakpoints."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bp = u.mesh.breakpoints
    elem = np.searchsorted(bp, x) - 1
    s = (2.0 * x - bp[elem] - bp[elem + 1]) / (bp[elem + 1] - bp[elem])
    return u.eval_ref(s)[elem, np.arange(x.size)]
