import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svkit.cases import manufactured_case
from svkit.cli import _load_config_file, _study_config, build_parser, main
from svkit.exceptions import InvalidConfigError, SvkitError
from svkit.metrics import ErrorReport
from svkit.quadrature import _build_rule
from svkit.study import SCHEME_NAMES, StudyConfig, emit_table, render_table, run_single, run_study

FAST = dict(n_values=(8, 16), t_final=0.1)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        StudyConfig(schemes=("xsv",))
    with pytest.raises(InvalidConfigError):
        StudyConfig(n_values=(2, 4))
    with pytest.raises(InvalidConfigError):
        StudyConfig(n_values=(16, 8))
    with pytest.raises(InvalidConfigError):
        StudyConfig(fmt="tsv")
    with pytest.raises(InvalidConfigError):
        StudyConfig(tie_break="center")
    with pytest.raises(InvalidConfigError, match="unknown scheme"):
        run_single(manufactured_case(1), "xsv", 1, 8, t_final=0.1)
    with pytest.raises(InvalidConfigError, match="final time must be finite and positive"):
        run_single(manufactured_case(1), "rsv", 1, 8, t_final="x")
    with pytest.raises(InvalidConfigError, match="final time must be finite and positive"):
        run_single(manufactured_case(1), "rsv", 1, 8, t_final=True)
    with pytest.raises(InvalidConfigError, match="dt factor must be finite and positive"):
        run_single(manufactured_case(1), "rsv", 1, 8, t_final=0.1, dt_factor="x")
    with pytest.raises(InvalidConfigError, match="compare_dg must be True or False"):
        run_single(manufactured_case(1), "rsv", 1, 8, t_final=0.1, compare_dg="no")


def test_config_rejects_repeated_schemes():
    with pytest.raises(InvalidConfigError):
        StudyConfig(schemes=("rsv", "RSV"))


def test_config_rejects_repeated_orders():
    with pytest.raises(InvalidConfigError):
        StudyConfig(k_values=(1, 2, 1))


@pytest.mark.parametrize("k_values", [(1, 13), (0, 1)])
def test_config_rejects_orders_out_of_range(k_values):
    # Checked before any job runs, not when the first bad order is reached.
    with pytest.raises(InvalidConfigError):
        StudyConfig(k_values=k_values)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_config_rejects_bad_seed(seed):
    with pytest.raises(InvalidConfigError):
        StudyConfig(perturbation=0.1, seed=seed)


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_final", float("nan")),
        ("t_final", float("inf")),
        ("t_final", 0.0),
        ("t_final", -1.0),
        ("dt_factor", float("nan")),
        ("dt_factor", float("inf")),
    ],
)
def test_config_rejects_bad_times(field, value):
    # Checked before any job runs; inf as dt_factor used to run one step of size T.
    with pytest.raises(InvalidConfigError):
        StudyConfig(**{field: value})


# -- random bad configurations -------------------------------------------------

_GOOD_FIELDS = dict(schemes=("rsv",), k_values=(1,), n_values=(8, 16), t_final=0.01)
_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
_NON_INTEGERS = st.floats(allow_nan=True, allow_infinity=True).filter(
    lambda v: not (np.isfinite(v) and v == int(v))
)
_BAD_FIELDS = st.one_of(
    st.tuples(st.just("k_values"), st.one_of(
        st.integers(max_value=0).map(lambda k: (k,)),
        st.integers(min_value=13).map(lambda k: (1, k)),
        st.integers(1, 12).map(lambda k: (k, k)),
        st.floats(1.0, 12.0).map(lambda k: (k,)),
        st.just((True,)),
    )),
    st.tuples(st.just("n_values"), st.one_of(
        st.integers(max_value=3).map(lambda n: (n, 64)),
        st.integers(4, 99).map(lambda n: (n + 1, n)),
        st.integers(4, 99).map(lambda n: (n, n)),
        st.floats(4.0, 99.0).map(lambda n: (n,)),
    )),
    st.tuples(st.just("schemes"), _WORDS.filter(lambda s: s not in SCHEME_NAMES).map(lambda s: (s,))),
    st.tuples(st.just("tie_break"), _WORDS.filter(lambda s: s not in ("right", "left"))),
    st.tuples(st.just("seed"), st.integers(max_value=-1) | _NON_INTEGERS),
    st.tuples(st.sampled_from(["t_final", "dt_factor"]),
              st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0])),
)
# Wrongly typed values, which only StudyConfig itself receives: a config file
# would read most of them as text that parses.
_WRONGLY_TYPED = st.one_of(
    st.tuples(st.sampled_from(["schemes", "k_values", "n_values"]),
              st.none() | st.integers() | st.floats() | _WORDS),
    st.tuples(st.just("tie_break"), st.lists(st.sampled_from(["left", "right"]), min_size=1)),
    st.tuples(st.sampled_from(["t_final", "dt_factor", "perturbation"]),
              st.floats(0.01, 0.3).map(str) | st.just([0.1])),
    st.tuples(st.sampled_from(["dt_factor", "perturbation"]), st.none()),
    st.tuples(st.just("compare_dg"), st.sampled_from(["no", "yes", 0, 1, None])),
    st.tuples(st.just("out"), st.integers() | st.just(["table.csv"])),
)
_CLI_KEYS = {"schemes": "scheme", "k_values": "k", "n_values": "n"}


def _config_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(bad=_BAD_FIELDS | _WRONGLY_TYPED)
def test_random_bad_config_raises_svkit_error(bad):
    field, value = bad
    with pytest.raises(SvkitError):
        StudyConfig(**{**_GOOD_FIELDS, field: value})


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(bad=_BAD_FIELDS)
def test_random_bad_config_file_exits_with_status_1(bad):
    # The same fields through a key=value config file, which reaches every one.
    field, value = bad
    fields = {**_GOOD_FIELDS, field: value}
    text = "".join(f"{_CLI_KEYS.get(f, f)} = {_config_text(v)}\n" for f, v in fields.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "study.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("tie_break", ["left"]),
        ("k_values", 3),
        ("n_values", None),
        ("schemes", None),
        ("dt_factor", "0.01"),
        ("t_final", "1"),
        ("perturbation", "0.1"),
        ("compare_dg", "no"),
        ("out", 3),
        ("seed", True),
        ("dt_factor", True),
        ("perturbation", True),
        ("t_final", True),
    ],
)
def test_config_rejects_wrongly_typed_fields(field, value):
    with pytest.raises(InvalidConfigError):
        StudyConfig(**{**_GOOD_FIELDS, field: value})


def test_run_study_reports_and_orders():
    config = StudyConfig(example="1", schemes=("rsv",), k_values=(1,), **FAST)
    result = run_study(config)
    assert len(result.reports) == 2
    assert [r.n for r in result.reports] == [8, 16]
    orders = result.orders[("rsv", 1, "l2")]
    assert orders[0] is None
    assert 1.0 < orders[1] < 3.0
    for report in result.reports:
        for name in ErrorReport.METRIC_FIELDS:
            value = getattr(report, name)
            assert value is None or np.isfinite(value)


def test_single_resolution_has_empty_order_column():
    config = StudyConfig(example="1", schemes=("rsv",), k_values=(1,), n_values=(8,), t_final=0.1)
    result = run_study(config)
    text = render_table(result, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "scheme,k,n,T,metric,value,order"
    assert all(line.endswith(",") for line in lines[1:])
    with pytest.raises(InvalidConfigError, match="unknown output format"):
        render_table(result, "txt")


def test_csv_layout_and_orders():
    config = StudyConfig(example="1", schemes=("rsv",), k_values=(1,), **FAST)
    text = render_table(run_study(config), "csv")
    lines = text.strip().splitlines()
    l2_lines = [ln for ln in lines if ",l2," in ln]
    assert len(l2_lines) == 2
    assert l2_lines[0].endswith(",")          # first row of the series: blank order
    order = float(l2_lines[1].rsplit(",", 1)[1])
    assert 1.0 < order < 3.0
    value = l2_lines[0].split(",")[5]
    assert "e" in value and len(value.split("e")[0].replace("-", "").replace(".", "")) == 3


def test_markdown_layout():
    config = StudyConfig(example="1", schemes=("lsv",), k_values=(1,), fmt="md", **FAST)
    text = render_table(run_study(config), "md")
    assert "## LSV, k = 1" in text
    assert "| n | l2 | order |" in text.replace("l2 | order | linf", "l2 | order | linf")


def test_dg_scheme_runs():
    report = run_single(manufactured_case(1), "dg", 1, 8, t_final=0.1)
    assert report.scheme == "dg"
    assert report.l2 < 0.2
    assert report.dg_diff_l2 is None


def test_compare_dg_produces_difference_metrics():
    report = run_single(manufactured_case(1), "rsv", 1, 8, t_final=0.1, compare_dg=True)
    assert report.dg_diff_l2 is not None
    assert report.dg_diff_l2 < report.l2  # superclose to the DG twin


def test_emit_table_writes_file(tmp_path):
    config = StudyConfig(example="1", schemes=("rsv",), k_values=(1,), **FAST)
    out = tmp_path / "table.csv"
    text = emit_table(run_study(config), "csv", out)
    assert out.read_text(encoding="utf-8") == text


def test_dt_insensitivity_of_all_metrics():
    # Halving the step factor leaves every reported spatial error unchanged
    # to well under 0.01 percent: the time error is negligible at dt = c/n.
    case = manufactured_case(1)
    coarse = run_single(case, "rsv", 2, 16, t_final=0.5, dt_factor=0.01)
    fine = run_single(case, "rsv", 2, 16, t_final=0.5, dt_factor=0.005)
    for name in ErrorReport.METRIC_FIELDS:
        a, b = getattr(coarse, name), getattr(fine, name)
        if a is not None:
            assert abs(a - b) <= 1e-4 * max(a, b), name


def test_study_determinism_with_jitter():
    config = dict(
        example="1",
        schemes=("rsv", "lsv"),
        k_values=(1,),
        n_values=(8, 16),
        t_final=0.1,
        perturbation=0.2,
        seed=42,
    )
    a = render_table(run_study(StudyConfig(**config)), "csv")
    b = render_table(run_study(StudyConfig(**config)), "csv")
    assert a.encode() == b.encode()


# -- command line ------------------------------------------------------------------


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "--example", "1", "--scheme", "rsv", "--k", "1", "--n", "8,16",
            "--t-final", "0.1", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "scheme,k,n,T,metric,value,order"
    assert len(lines) > 10


def test_cli_stdout_and_md(capsys):
    code = main(
        ["--example", "1", "--scheme", "rsv", "--k", "1", "--n", "8", "--t-final", "0.1",
         "--format", "md"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "## RSV, k = 1" in captured.out


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "example = 1\nscheme = lsv\nk = 1\nn = 8\nt_final = 0.1\nformat = csv\n",
        encoding="utf-8",
    )
    out = tmp_path / "t.csv"
    code = main(["--config", str(cfg), "--scheme", "rsv", "--out", str(out)])
    assert code == 0
    body = out.read_text(encoding="utf-8")
    assert "rsv," in body and "lsv," not in body


def test_cli_leaves_unset_keys_to_study_config():
    assert _study_config(build_parser().parse_args([]), {}) == StudyConfig()


def test_cli_flags_and_config_file_set_the_same_fields(tmp_path):
    flags = ["--example", "2", "--scheme", "rsv,lsv", "--k", "2,3", "--n", "8,16",
             "--t-final", "0.5", "--dt-factor", "0.02", "--tie-break", "left", "--perturb", "0.1",
             "--seed", "4", "--compare-dg", "--format", "md", "--out", "t.md"]
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "example = 2\nscheme = rsv,lsv\nk = 2,3\nn = 8,16\nt-final = 0.5\ndt_factor = 0.02\n"
        "tie_break = left\nperturb = 0.1\nseed = 4\ncompare_dg = yes\nformat = md\nout = t.md\n",
        encoding="utf-8",
    )
    expected = StudyConfig(
        example="2", schemes=("rsv", "lsv"), k_values=(2, 3), n_values=(8, 16), t_final=0.5,
        dt_factor=0.02, tie_break="left", perturbation=0.1, seed=4, compare_dg=True, fmt="md",
        out="t.md",
    )
    parser = build_parser()
    assert _study_config(parser.parse_args(flags), {}) == expected
    assert _study_config(parser.parse_args([]), _load_config_file(str(cfg))) == expected


def test_cli_rejects_bad_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["--example", "7"])
    assert main(["--scheme", "nope", "--n", "8", "--t-final", "0.1"]) == 1
    assert main(["--n", "2,4", "--t-final", "0.1"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "abc"],
        ["--k", "1,x", "--n", "8"],
        ["--scheme", "rsv,rsv", "--k", "1", "--n", "8,16", "--t-final", "0.01"],
        ["--k", "1,1", "--n", "8,16", "--t-final", "0.01"],
        ["--k", ",", "--n", "8", "--t-final", "0.01"],
    ],
)
def test_cli_rejects_bad_lists(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("svkit: ")


def test_cli_rejects_negative_seed(capsys):
    argv = ["--k", "1", "--n", "8,16", "--t-final", "0.01", "--seed", "-1", "--perturb", "0.1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("svkit: ")


@pytest.mark.parametrize("flag", ["--t-final", "--dt-factor"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_times(flag, value, capsys):
    assert main(["--k", "1", "--n", "8,16", flag, value]) == 1
    assert capsys.readouterr().err.startswith("svkit: ")


@pytest.mark.parametrize(
    "line", ["schemes = lsv", "seed = one", "compare_dg = maybe", "scheme lsv"]
)
def test_cli_rejects_bad_config_file(tmp_path, capsys, line):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"k = 1\nn = 8\n{line}\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--t-final", "0.01"]) == 1
    assert capsys.readouterr().err.startswith("svkit: ")


def test_cli_names_bad_boolean_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("k = 1\nn = 8\ncompare_dg = maybe\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--t-final", "0.01"]) == 1
    assert capsys.readouterr().err == "svkit: bad value for 'compare_dg': 'maybe'\n"


@pytest.mark.parametrize(
    "word, expected",
    [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
     ("0", False), ("False", False), ("NO", False), ("off", False)],
)
def test_cli_reads_boolean_words_in_config_file(tmp_path, capsys, word, expected):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"k = 1\nn = 8\ncompare_dg = {word}\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--t-final", "0.01"]) == 0
    assert ("dg_diff_l2" in capsys.readouterr().out) is expected


def test_cli_rejects_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_bytes(b"n = 8\xff\n")
    assert main(["--config", str(cfg), "--t-final", "0.01"]) == 1
    assert capsys.readouterr().err.startswith("svkit: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_reports_a_blow_up_with_status_2(capsys):
    # dt = 100/8 is far above the stability limit: the run fails at step 49 of 160.
    # The step's finite check reports it; numpy's overflow warnings stay silent.
    assert main(["--k", "3", "--n", "8", "--dt-factor", "100", "--t-final", "2000"]) == 2
    assert capsys.readouterr().err.startswith("svkit: time integration blew up")


def test_cli_reports_io_error(tmp_path):
    code = main(
        ["--example", "1", "--scheme", "rsv", "--k", "1", "--n", "8",
         "--t-final", "0.1", "--out", str(tmp_path / "missing" / "t.csv")]
    )
    assert code == 1


@pytest.mark.parametrize("warm", [False, True])
def test_run_single_accepts_numpy_order(warm):
    # The order is validated the same way whether or not its rules are cached.
    _build_rule.cache_clear()
    case = manufactured_case(1)
    if warm:
        run_single(case, "rsv", 1, 8, t_final=0.05)
    got = run_single(case, "rsv", np.int64(1), 8, t_final=0.05)
    assert got == run_single(case, "rsv", 1, 8, t_final=0.05)
    with pytest.raises(InvalidConfigError):
        run_single(case, "rsv", 1.0, 8, t_final=0.05)
