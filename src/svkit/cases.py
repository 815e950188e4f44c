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


class _WaveSource:
    """g(x, t) = exp(sin(x - t)) * (f1 + f2 cos(x - t)) for constant per-node factors f1, f2.

    Through sin(x - t) = sx ct - cx st and cos(x - t) = cx ct + sx st, with
    sx, cx = sin x, cos x and ct, st = cos t, sin t, a call costs one exp.
    ``factors(sx, cx)`` gives (f1, f2).  The operators evaluate a source on
    the same frozen node array at every stage, so sx, cx, f1 and f2 of the last
    node array seen are kept, keyed by identity, as read-only arrays.  Only
    arrays that own their data and are read-only are kept: a writable array,
    or a view whose base could change under it, is evaluated afresh every call.

    Beside them the source keeps two work arrays of the nodes' shape, ``tmp``
    and ``wave``, so that a run of calls on large nodes does not free and
    re-fault them each time.  A call uses them only on the kept nodes and when
    the result has the nodes' shape and dtype, as for any scalar t; an array
    or broadcast t can give a larger result, and then the call allocates its
    own.  The result itself is always a fresh array that the caller owns.
    Because of the kept work arrays, one source must not be called from two
    threads at once.

    A call writes its result and the work arrays with the operations, in the
    order, of ``np.exp(sx * ct - cx * st) * (f1 + f2 * (cx * ct + sx * st))``,
    so its result is bit for bit that expression's.
    """

    def __init__(self, factors):
        self._factors = factors
        self._x = None
        self._node_values = None
        self._work = None

    def _nodes(self, x):
        if x is self._x and not x.flags.writeable:
            return self._node_values
        sx, cx = np.sin(x), np.cos(x)
        values = (sx, cx, *self._factors(sx, cx))
        if isinstance(x, np.ndarray) and x.flags.owndata and not x.flags.writeable:
            for value in values:
                value.setflags(write=False)
            self._x, self._node_values = x, values
            self._work = (np.empty_like(sx), np.empty_like(sx))
        return values

    def __call__(self, x, t):
        values = self._nodes(x)
        sx, cx, f1, f2 = values
        ct, st = np.cos(t), np.sin(t)
        # The result is always allocated afresh; asarray turns a 0-d x's
        # scalars into arrays.
        out = np.asarray(sx * ct)
        if values is self._node_values and out.shape == sx.shape and out.dtype == sx.dtype:
            tmp, wave = self._work
        else:
            tmp, wave = np.empty_like(out), np.empty_like(out)
        np.multiply(cx, st, out=tmp)
        np.multiply(cx, ct, out=wave)
        np.subtract(out, tmp, out=out)
        np.exp(out, out=out)
        np.multiply(sx, st, out=tmp)
        np.add(wave, tmp, out=wave)
        np.multiply(f2, wave, out=wave)
        np.add(f1, wave, out=wave)
        np.multiply(out, wave, out=out)
        return out


def _wave_case(case_id, alpha, alpha_dx, factors) -> CaseSpec:
    """The travelling wave u = exp(sin(x - t)) carried by alpha, with its source.

    Substituting u gives g = u * (alpha' + (alpha - 1) cos(x - t)), so
    ``factors(sx, cx)`` returns (alpha', alpha - 1) for :class:`_WaveSource`.
    """

    def u_t(x, t):
        return -np.cos(x - t) * _traveling_exp(x, t)

    def u_x(x, t):
        return np.cos(x - t) * _traveling_exp(x, t)

    return CaseSpec(
        case_id=case_id,
        alpha=alpha,
        alpha_dx=alpha_dx,
        u_exact=_traveling_exp,
        u_t=u_t,
        u_x=u_x,
        u0=lambda x: np.exp(np.sin(x)),
        source=_WaveSource(factors),
    )


def _example1() -> CaseSpec:
    # alpha = sin x vanishes with simple zeros at 0, pi, 2*pi.
    # g = exp(sin(x - t)) * (cos x + (sin x - 1) cos(x - t))
    return _wave_case("example1", np.sin, np.cos, lambda sx, cx: (cx, sx - 1.0))


def _example2() -> CaseSpec:
    # alpha = sin^2 x vanishes to second order at 0, pi, 2*pi.
    # g = exp(sin(x - t)) * (sin 2x + (sin^2 x - 1) cos(x - t))
    return _wave_case(
        "example2",
        lambda x: np.sin(x) ** 2,
        lambda x: np.sin(2.0 * x),
        lambda sx, cx: (2.0 * sx * cx, sx * sx - 1.0),
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
