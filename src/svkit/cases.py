"""Manufactured-solution cases for the convergence and superconvergence studies.

Each case packages the coefficient, the exact solution with its derivatives,
and the source term obtained by substituting the exact solution into the
advection equation u_t + (alpha u)_x = g.  All callables accept ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .exceptions import UnknownCaseError

T_FINAL_DEFAULT = math.pi / 2


@dataclass(frozen=True)
class CaseSpec:
    """One manufactured problem on the periodic domain [0, 2*pi]."""

    case_id: str
    alpha: Callable
    alpha_dx: Callable
    u_exact: Callable      # u(x, t)
    u_t: Callable
    u_x: Callable
    u0: Callable           # u(x, 0)
    source: Callable       # g(x, t) = u_t + (alpha u)_x, in closed form
    t_final: float = T_FINAL_DEFAULT

    def without_source(self) -> "CaseSpec":
        """Same coefficient and start data with the forcing removed (free evolution)."""
        return replace(self, case_id=self.case_id + "-free", source=None)

    def residual(self, x, t):
        """u_t + alpha' u + alpha u_x - g; zero up to roundoff by construction."""
        return (
            self.u_t(x, t)
            + self.alpha_dx(x) * self.u_exact(x, t)
            + self.alpha(x) * self.u_x(x, t)
            - self.source(x, t)
        )


def _traveling_exp(x, t):
    return np.exp(np.sin(x - t))


class _NodeTrig:
    """(sin x, cos x) of the last read-only node array seen, keyed by identity.

    The operators evaluate a source on the same frozen node array at every
    stage, so a source written through sin(x - t) = sx cos t - cx sin t and
    cos(x - t) = cx cos t + sx sin t costs one exp per call.  Only arrays that
    own their data and are read-only are kept: a writable array, or a view
    whose base could change under it, is evaluated afresh every call.
    """

    def __init__(self):
        self._x = None
        self._sin_cos = None

    def __call__(self, x):
        if x is self._x and not x.flags.writeable:
            return self._sin_cos
        sin_cos = (np.sin(x), np.cos(x))
        if isinstance(x, np.ndarray) and x.flags.owndata and not x.flags.writeable:
            self._x, self._sin_cos = x, sin_cos
        return sin_cos


def _example1() -> CaseSpec:
    # alpha = sin x vanishes with simple zeros at 0, pi, 2*pi.
    node_trig = _NodeTrig()

    def u_t(x, t):
        return -np.cos(x - t) * _traveling_exp(x, t)

    def u_x(x, t):
        return np.cos(x - t) * _traveling_exp(x, t)

    def source(x, t):
        # exp(sin(x - t)) * (cos x + (sin x - 1) cos(x - t))
        sx, cx = node_trig(x)
        ct, st = np.cos(t), np.sin(t)
        return np.exp(sx * ct - cx * st) * (cx + (sx - 1.0) * (cx * ct + sx * st))

    return CaseSpec(
        case_id="example1",
        alpha=np.sin,
        alpha_dx=np.cos,
        u_exact=_traveling_exp,
        u_t=u_t,
        u_x=u_x,
        u0=lambda x: np.exp(np.sin(x)),
        source=source,
    )


def _example2() -> CaseSpec:
    # alpha = sin^2 x vanishes to second order at 0, pi, 2*pi.
    node_trig = _NodeTrig()

    def alpha(x):
        return np.sin(x) ** 2

    def alpha_dx(x):
        return np.sin(2.0 * x)

    def u_t(x, t):
        return -np.cos(x - t) * _traveling_exp(x, t)

    def u_x(x, t):
        return np.cos(x - t) * _traveling_exp(x, t)

    def source(x, t):
        # exp(sin(x - t)) * (sin 2x + (sin^2 x - 1) cos(x - t))
        sx, cx = node_trig(x)
        ct, st = np.cos(t), np.sin(t)
        return np.exp(sx * ct - cx * st) * (
            2.0 * sx * cx + (sx * sx - 1.0) * (cx * ct + sx * st)
        )

    return CaseSpec(
        case_id="example2",
        alpha=alpha,
        alpha_dx=alpha_dx,
        u_exact=_traveling_exp,
        u_t=u_t,
        u_x=u_x,
        u0=lambda x: np.exp(np.sin(x)),
        source=source,
    )


_CASES = {
    "example1": _example1,
    "example2": _example2,
    "1": _example1,
    "2": _example2,
}


def manufactured_case(case_id) -> CaseSpec:
    """Look up a built-in case by id ("example1"/"example2", or just 1/2)."""
    key = str(case_id).lower()
    builder = _CASES.get(key)
    if builder is None:
        raise UnknownCaseError(f"no manufactured case named {case_id!r}")
    return builder()
