"""Per-layer tracing by wrapping svkit's public calls from outside the package.

While installed, the tracer replaces each traced function or method with a
wrapper that times the call and charges its duration to the enclosing traced
call, so every boundary gets a call count, a total time and a self time (its
time minus that of the traced calls made inside it).  Wrapped are

* the module functions ``timestep.rk4_step``, ``mesh.build_partition``,
  ``poly.interpolate``, ``metrics.error_report``, ``study.run_single`` and
  ``study.run_study``, under every name svkit binds them to;
* ``__init__`` and ``__call__`` of ``SVOperator`` and ``DGOperator``;
* the ``source`` callable of every ``CaseSpec`` that ``manufactured_case``
  returns.

``PiecewisePoly`` constructions are counted, not timed, and only inside RK4
steps.  Only aggregates are kept; nothing is recorded per call.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from contextlib import contextmanager

STEP = "timestep.rk4_step"

_FUNCTIONS = {
    STEP: ("timestep", "rk4_step"),
    "mesh.build_partition": ("mesh", "build_partition"),
    "poly.interpolate": ("poly", "interpolate"),
    "metrics.error_report": ("metrics", "error_report"),
    "study.run_single": ("study", "run_single"),
    "study.run_study": ("study", "run_study"),
}

_METHODS = {
    "sv.SVOperator.init": ("sv", "SVOperator", "__init__"),
    "sv.SVOperator.call": ("sv", "SVOperator", "__call__"),
    "dg.DGOperator.init": ("dg", "DGOperator", "__init__"),
    "dg.DGOperator.call": ("dg", "DGOperator", "__call__"),
}

SOURCE = "cases.source.eval"


@dataclasses.dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    def __init__(self):
        self.spans = {name: Span() for name in (*_FUNCTIONS, *_METHODS, SOURCE)}
        self.polys_in_steps = 0
        self._open = []      # per open traced call: [time of its traced children]
        self._open_steps = 0

    def wrap(self, name, fn):
        span = self.spans[name]
        open_calls = self._open
        clock = time.perf_counter
        is_step = name == STEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            open_calls.append(frame)
            self._open_steps += is_step
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._open_steps -= is_step
                open_calls.pop()
                span.calls += 1
                span.total_s += elapsed
                span.child_s += frame[0]
                if open_calls:
                    open_calls[-1][0] += elapsed

        return traced

    def _count_poly(self, init):
        @functools.wraps(init)
        def counted(poly, *args, **kwargs):
            if self._open_steps:
                self.polys_in_steps += 1
            init(poly, *args, **kwargs)

        return counted

    def _traced_case(self, manufactured_case):
        @functools.wraps(manufactured_case)
        def traced(*args, **kwargs):
            case = manufactured_case(*args, **kwargs)
            if case.source is None:
                return case
            return dataclasses.replace(case, source=self.wrap(SOURCE, case.source))

        return traced

    @contextmanager
    def installed(self, sk):
        """Wrap the traced boundaries of the imported package ``sk``; undo on exit."""
        modules = [m for name, m in sys.modules.items()
                   if name == sk.__name__ or name.startswith(sk.__name__ + ".")]
        undo = []

        def replace_everywhere(original, wrapper):
            # Rebind every module-level name svkit gives this function, so
            # calls made inside the package are traced as well as ours.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

        def replace_attr(owner, attr, wrapper):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

        try:
            for name, (module, attr) in _FUNCTIONS.items():
                original = getattr(getattr(sk, module), attr)
                replace_everywhere(original, self.wrap(name, original))
            for name, (module, cls, attr) in _METHODS.items():
                owner = getattr(getattr(sk, module), cls)
                replace_attr(owner, attr, self.wrap(name, vars(owner)[attr]))
            poly = sk.poly.PiecewisePoly
            replace_attr(poly, "__init__", self._count_poly(vars(poly)["__init__"]))
            original = sk.cases.manufactured_case
            replace_everywhere(original, self._traced_case(original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
