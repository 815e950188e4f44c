"""Convergence-study driver and table emission (CSV / Markdown).

A study sweeps (scheme, order, resolution) over one manufactured case,
integrates with RK4 at dt = dt_factor / n, and collects the full error report
per run, including the optional difference against an upwind DG twin that is
started from the identical interpolated initial state.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .cases import CaseSpec, manufactured_case
from .dg import DGOperator
from .exceptions import InvalidConfigError
from .mesh import FluxCoefficient, Scheme, _is_number, build_mesh, build_partition
from .metrics import ErrorReport, convergence_orders, error_report
from .poly import InterpKind, interpolate
from .quadrature import RuleKind, check_order
from .sv import SchemeConfig, SVOperator
from .timestep import integrate_to

SCHEME_NAMES = ("rsv", "lsv", "dg")

_TIE_BREAKS = {
    "radau_right": RuleKind.RADAU_RIGHT,
    "right": RuleKind.RADAU_RIGHT,
    "radau_left": RuleKind.RADAU_LEFT,
    "left": RuleKind.RADAU_LEFT,
}


@dataclass
class StudyConfig:
    """Sweep definition for one study."""

    example: str = "example1"
    schemes: tuple[str, ...] = ("rsv",)
    k_values: tuple[int, ...] = (1,)
    n_values: tuple[int, ...] = (32, 64)
    t_final: float | None = None         # None: the case default
    dt_factor: float = 0.01
    tie_break: str = "radau_right"
    perturbation: float = 0.0
    seed: int = 0
    compare_dg: bool = False
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self):
        for name in ("schemes", "k_values", "n_values"):
            values = getattr(self, name)
            if isinstance(values, str) or not isinstance(values, Iterable):
                raise InvalidConfigError(f"{name} must be a sequence, got {values!r}")
            setattr(self, name, tuple(values))
        self.schemes = tuple(str(s).lower() for s in self.schemes)
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise InvalidConfigError(f"unknown scheme {s!r}")
        if len(set(self.schemes)) != len(self.schemes):
            raise InvalidConfigError(f"schemes must not repeat, got {self.schemes}")
        for k in self.k_values:
            check_order(k)
        self.k_values = tuple(int(k) for k in self.k_values)
        if len(set(self.k_values)) != len(self.k_values):
            raise InvalidConfigError(f"orders must not repeat, got {self.k_values}")
        if not all(_is_number(n, numbers.Integral) for n in self.n_values):
            raise InvalidConfigError(f"resolutions must be integers, got {self.n_values}")
        self.n_values = tuple(int(n) for n in self.n_values)
        if not (self.schemes and self.k_values and self.n_values):
            raise InvalidConfigError("schemes, orders and resolutions must not be empty")
        if any(n < 4 for n in self.n_values):
            raise InvalidConfigError("all resolutions must satisfy n >= 4")
        if list(self.n_values) != sorted(set(self.n_values)):
            raise InvalidConfigError("resolutions must be strictly increasing")
        if not _is_number(self.seed, numbers.Integral) or self.seed < 0:
            raise InvalidConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.tie_break, str) or self.tie_break not in _TIE_BREAKS:
            raise InvalidConfigError(f"unknown tie break {self.tie_break!r}")
        if self.fmt not in ("csv", "md"):
            raise InvalidConfigError(f"unknown output format {self.fmt!r}")
        if not isinstance(self.compare_dg, bool):
            raise InvalidConfigError(f"compare_dg must be True or False, got {self.compare_dg!r}")
        if self.out is not None and not isinstance(self.out, (str, Path)):
            raise InvalidConfigError(f"output path must be a string, got {self.out!r}")
        if not _is_number(self.perturbation):
            raise InvalidConfigError(f"perturbation must be a number, got {self.perturbation!r}")
        # Checked here, before any job runs: a NaN or infinite time would only
        # surface mid-study, or not at all (dt = inf is one step of size T).
        if not _finite_positive(self.dt_factor):
            raise InvalidConfigError(f"dt factor must be finite and positive, got {self.dt_factor}")
        if self.t_final is not None and not _finite_positive(self.t_final):
            raise InvalidConfigError(f"final time must be finite and positive, got {self.t_final}")


def _finite_positive(value) -> bool:
    return _is_number(value) and math.isfinite(value) and value > 0


@dataclass
class StudyResult:
    reports: list[ErrorReport]
    # orders[(scheme, k, metric)] aligned with the n sweep; first entry None
    orders: dict[tuple[str, int, str], list[float | None]] = field(default_factory=dict)


def run_single(
    case: CaseSpec,
    scheme: str,
    k: int,
    n: int,
    *,
    t_final: float | None = None,
    dt_factor: float = 0.01,
    tie_break: RuleKind = RuleKind.RADAU_RIGHT,
    perturbation: float = 0.0,
    seed: int = 0,
    compare_dg: bool = False,
) -> ErrorReport:
    """Solve one (scheme, k, n) instance of a case and report every functional.

    The initial state is the automatic interpolant of the initial data.  A DG
    comparison run, when requested, starts from that same interpolant.  The
    standalone ``scheme="dg"`` run uses the Gauss partition for its initial
    interpolant and superconvergence-point bookkeeping.
    """
    scheme = scheme.lower()
    if scheme not in SCHEME_NAMES:
        raise InvalidConfigError(f"unknown scheme {scheme!r}")
    mesh = build_mesh(n, perturbation, seed=seed)
    coeff = FluxCoefficient(case.alpha, mesh)
    t_end = case.t_final if t_final is None else float(t_final)
    dt = dt_factor / n

    if scheme == "dg":
        partition = build_partition(mesh, k, Scheme.LSV, coeff, tie_break)
        operator = DGOperator(mesh, k, coeff, case.source)
    else:
        variant = Scheme.RSV if scheme == "rsv" else Scheme.LSV
        partition = build_partition(mesh, k, variant, coeff, tie_break)
        config = SchemeConfig(k=k, variant=variant)
        operator = SVOperator(config, partition, coeff, case.source)

    u0 = interpolate(case.u0, partition, coeff, InterpKind.AUTO)
    u_end = integrate_to(u0, 0.0, t_end, dt, operator)

    u_dg_end = None
    if compare_dg and scheme != "dg":
        dg_operator = DGOperator(mesh, k, coeff, case.source)
        u_dg_end = integrate_to(u0, 0.0, t_end, dt, dg_operator)

    return error_report(
        u_end,
        lambda x: case.u_exact(x, t_end),
        lambda x: case.u_x(x, t_end),
        coeff,
        partition,
        scheme=scheme,
        t_final=t_end,
        u_dg=u_dg_end,
    )


def run_study(config: StudyConfig) -> StudyResult:
    """Run the whole sweep; order estimates pair consecutive resolutions."""
    case = manufactured_case(config.example)
    tie_break = _TIE_BREAKS[config.tie_break]
    reports: list[ErrorReport] = []
    for scheme in config.schemes:
        for k in config.k_values:
            for n in config.n_values:
                reports.append(
                    run_single(
                        case,
                        scheme,
                        k,
                        n,
                        t_final=config.t_final,
                        dt_factor=config.dt_factor,
                        tie_break=tie_break,
                        perturbation=config.perturbation,
                        seed=config.seed,
                        compare_dg=config.compare_dg,
                    )
                )

    result = StudyResult(reports=reports)
    for (scheme, k), series in _series(reports).items():
        for metric in ErrorReport.METRIC_FIELDS:
            values = [(r.n, getattr(r, metric)) for r in series]
            if any(v is None for _, v in values) or len(values) < 2:
                continue
            if any(v <= 1e-15 for _, v in values):
                continue  # below roundoff; leave the order column empty
            orders = convergence_orders(values)
            result.orders[(scheme, k, metric)] = [None, *orders]
    return result


def _series(reports: list[ErrorReport]) -> dict[tuple[str, int], list[ErrorReport]]:
    """Reports grouped by (scheme, k) in first-seen order, each series sorted by n."""
    groups: dict[tuple[str, int], list[ErrorReport]] = {}
    for r in reports:
        groups.setdefault((r.scheme, r.k), []).append(r)
    for series in groups.values():
        series.sort(key=lambda r: r.n)
    return groups


def _fmt_value(v: float) -> str:
    return f"{v:.2e}"


def _fmt_order(o: float | None) -> str:
    return "" if o is None else f"{o:.2f}"


def _csv_lines(result: StudyResult) -> list[str]:
    lines = ["scheme,k,n,T,metric,value,order"]
    for (scheme, k), series in _series(result.reports).items():
        for metric in ErrorReport.METRIC_FIELDS:
            if getattr(series[0], metric) is None:
                continue
            orders = result.orders.get((scheme, k, metric), [None] * len(series))
            for r, order in zip(series, orders):
                lines.append(
                    f"{scheme},{k},{r.n},{r.t_final:.10g},{metric},"
                    f"{_fmt_value(getattr(r, metric))},{_fmt_order(order)}"
                )
    return lines


def _markdown_lines(result: StudyResult) -> list[str]:
    lines: list[str] = []
    for (scheme, k), series in _series(result.reports).items():
        metrics = [m for m in ErrorReport.METRIC_FIELDS if getattr(series[0], m) is not None]
        lines.append(f"## {scheme.upper()}, k = {k}")
        lines.append("")
        header = "| n | " + " | ".join(f"{m} | order" for m in metrics) + " |"
        rule = "|" + " --- |" * (1 + 2 * len(metrics))
        lines.append(header)
        lines.append(rule)
        for i, r in enumerate(series):
            cells = [str(r.n)]
            for m in metrics:
                orders = result.orders.get((scheme, k, m), [None] * len(series))
                cells.append(_fmt_value(getattr(r, m)))
                cells.append(_fmt_order(orders[i]))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return lines


def render_table(result: StudyResult, fmt: str = "csv") -> str:
    if fmt == "csv":
        return "\n".join(_csv_lines(result)) + "\n"
    if fmt == "md":
        return "\n".join(_markdown_lines(result)) + "\n"
    raise InvalidConfigError(f"unknown output format {fmt!r}")


def emit_table(result: StudyResult, fmt: str = "csv", path: str | Path | None = None) -> str:
    """Render the study as CSV or Markdown; write it when a path is given."""
    text = render_table(result, fmt)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
