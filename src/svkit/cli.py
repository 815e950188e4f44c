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
        if key not in _FIELDS:
            raise SvkitError(f"unknown config key {key!r} in {path}")
        values[key] = value.strip()
    return values


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


# Each flag or config key: the StudyConfig field it sets and the parser of its text.
_FIELDS = {
    "example": ("example", str),
    "scheme": ("schemes", _str_list),
    "k": ("k_values", _int_list),
    "n": ("n_values", _int_list),
    "t_final": ("t_final", float),
    "dt_factor": ("dt_factor", float),
    "tie_break": ("tie_break", str),
    "perturb": ("perturbation", float),
    "seed": ("seed", int),
    "compare_dg": ("compare_dg", lambda s: _BOOL_WORDS[s.lower()]),
    "format": ("fmt", str),
    "out": ("out", str),
}


def _study_config(args: argparse.Namespace, file_values: dict[str, str]) -> StudyConfig:
    """Flags first, then the config file; a key neither gives keeps StudyConfig's default."""
    settings = {}
    for key, (name, parse) in _FIELDS.items():
        flag = getattr(args, key)
        if flag is not None:
            settings[name] = parse(flag) if isinstance(flag, str) else flag
        elif key in file_values:
            try:
                settings[name] = parse(file_values[key])
            except (KeyError, ValueError):
                raise InvalidConfigError(f"bad value for {key!r}: {file_values[key]!r}") from None
    return StudyConfig(**settings)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = _load_config_file(args.config) if args.config else {}
        config = _study_config(args, file_values)
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
