"""Command-line entry point for running convergence studies.

Example:
    svkit --example 1 --scheme rsv --k 1,2 --n 32,64,128 --format csv --out table.csv

A key=value config file can seed any flag (same names, dashes or underscores);
explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .exceptions import InvalidConfigError, NonFiniteError, SvkitError
from .study import StudyConfig, emit_table, run_study


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InvalidConfigError(f"expected a comma list of integers, got {text!r}") from None


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip().lower() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svkit",
        description="Spectral-volume / DG convergence studies on [0, 2*pi].",
    )
    parser.add_argument("--example", choices=["1", "2"], default=None,
                        help="manufactured case (default 1)")
    parser.add_argument("--scheme", default=None,
                        help="comma list from {rsv,lsv,dg} (default rsv)")
    parser.add_argument("--k", default=None, help="comma list of orders (default 1)")
    parser.add_argument("--n", default=None,
                        help="comma list of element counts (default 32,64)")
    parser.add_argument("--t-final", type=float, default=None,
                        help="final time (default: the case's)")
    parser.add_argument("--dt-factor", type=float, default=None,
                        help="time step is dt-factor / n (default 0.01)")
    parser.add_argument("--tie-break", choices=["right", "left"], default=None,
                        help="Radau choice on sign-degenerate elements (default right)")
    parser.add_argument("--perturb", type=float, default=None,
                        help="interior breakpoint jitter fraction (default 0)")
    parser.add_argument("--seed", type=int, default=None, help="jitter seed (default 0)")
    parser.add_argument("--compare-dg", action=argparse.BooleanOptionalAction,
                        default=None, help="also run an identically-started DG twin")
    parser.add_argument("--format", choices=["csv", "md"], default=None,
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying defaults for any flag")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SvkitError(f"bad config line (expected key=value): {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in _FILE_PARSERS:
            raise SvkitError(f"unknown config key {key!r} in {path}")
        values[key] = value.strip()
    return values


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


_FILE_PARSERS = {
    "example": str,
    "scheme": str,
    "k": str,
    "n": str,
    "t_final": float,
    "dt_factor": float,
    "tie_break": str,
    "perturb": float,
    "seed": int,
    "compare_dg": lambda s: _BOOL_WORDS[s.lower()],
    "format": str,
    "out": str,
}


def _merge(cli_value, file_values: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in file_values:
        try:
            return _FILE_PARSERS[key](file_values[key])
        except (KeyError, ValueError):
            raise InvalidConfigError(f"bad value for {key!r}: {file_values[key]!r}") from None
    return default


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = _load_config_file(args.config) if args.config else {}
        config = StudyConfig(
            example=str(_merge(args.example, file_values, "example", "1")),
            schemes=_str_list(str(_merge(args.scheme, file_values, "scheme", "rsv"))),
            k_values=_int_list(str(_merge(args.k, file_values, "k", "1"))),
            n_values=_int_list(str(_merge(args.n, file_values, "n", "32,64"))),
            t_final=_merge(args.t_final, file_values, "t_final", None),
            dt_factor=_merge(args.dt_factor, file_values, "dt_factor", 0.01),
            tie_break=str(_merge(args.tie_break, file_values, "tie_break", "right")),
            perturbation=_merge(args.perturb, file_values, "perturb", 0.0),
            seed=_merge(args.seed, file_values, "seed", 0),
            compare_dg=bool(_merge(args.compare_dg, file_values, "compare_dg", False)),
            fmt=str(_merge(args.format, file_values, "format", "csv")),
            out=_merge(args.out, file_values, "out", None),
        )
        result = run_study(config)
        text = emit_table(result, config.fmt, config.out)
        if config.out is None:
            sys.stdout.write(text)
    except NonFiniteError as exc:
        print(f"svkit: time integration blew up: {exc}", file=sys.stderr)
        return 2
    except (SvkitError, OSError) as exc:
        print(f"svkit: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
