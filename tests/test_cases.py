import gc
import weakref

import numpy as np
import pytest

import svkit.study
from svkit.cases import CaseSpec, manufactured_case
from svkit.exceptions import UnknownCaseError


@pytest.mark.parametrize("case_id", ["example1", "example2", 1, 2, "1", "2"])
def test_lookup(case_id):
    case = manufactured_case(case_id)
    assert isinstance(case, CaseSpec)
    assert case.t_final == pytest.approx(np.pi / 2)


def test_unknown_case():
    with pytest.raises(UnknownCaseError):
        manufactured_case("example3")


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_source_consistency_at_random_samples(case_id):
    # g is its own closed form; the advection residual must vanish to roundoff
    case = manufactured_case(case_id)
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 2 * np.pi, 100)
    t = rng.uniform(0.0, case.t_final, 100)
    resid = case.residual(x, t)
    assert np.max(np.abs(resid)) < 1e-12


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_derivatives_match_finite_differences(case_id):
    case = manufactured_case(case_id)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 6.0, 50)
    t = rng.uniform(0.0, 1.5, 50)
    eps = 1e-6
    fd_t = (case.u_exact(x, t + eps) - case.u_exact(x, t - eps)) / (2 * eps)
    fd_x = (case.u_exact(x + eps, t) - case.u_exact(x - eps, t)) / (2 * eps)
    fd_a = (case.alpha(x + eps) - case.alpha(x - eps)) / (2 * eps)
    assert np.max(np.abs(fd_t - case.u_t(x, t))) < 1e-7
    assert np.max(np.abs(fd_x - case.u_x(x, t))) < 1e-7
    assert np.max(np.abs(fd_a - case.alpha_dx(x))) < 1e-7


def test_example1_source_values():
    case = manufactured_case(1)
    # at (0, 0): u_t = -1, alpha' u = 1, alpha u_x = 0
    assert case.source(np.array([0.0]), 0.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_example2_source_values():
    case = manufactured_case(2)
    # at (pi/2, 0): u_t = 0, alpha' = 0, u_x = 0
    assert case.source(np.array([np.pi / 2]), 0.0)[0] == pytest.approx(0.0, abs=1e-13)


def test_initial_data_matches_exact_solution():
    for cid in ("example1", "example2"):
        case = manufactured_case(cid)
        x = np.linspace(0, 2 * np.pi, 11)
        np.testing.assert_allclose(case.u0(x), case.u_exact(x, 0.0), rtol=1e-14)


def test_without_source():
    case = manufactured_case(1).without_source()
    assert case.source is None
    assert case.case_id.endswith("-free")


# -- sources from per-node sin/cos against their closed forms -----------------


def _closed_form_source(case_id, x, t):
    # g = u_t + (alpha u)_x written out directly, one transcendental per term
    u = np.exp(np.sin(x - t))
    if case_id == "example1":
        return u * (np.cos(x) + (np.sin(x) - 1.0) * np.cos(x - t))
    return u * (np.sin(2.0 * x) + (np.sin(x) ** 2 - 1.0) * np.cos(x - t))


def _assert_matches_closed_form(case_id, g, x, t):
    ref = _closed_form_source(case_id, x, t)
    assert g.shape == ref.shape
    assert np.all(np.abs(g - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def _frozen(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("case_id", ["example1", "example2"])
@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize("array_t", [False, True])
def test_source_matches_closed_form(case_id, read_only, array_t):
    case = manufactured_case(case_id)
    rng = np.random.default_rng(21)
    for _ in range(4):
        x = rng.uniform(-1.0, 2 * np.pi + 1.0, (16, 3, 4))
        if read_only:
            x = _frozen(x)
        for _ in range(3):
            t = rng.uniform(0.0, 2.0, x.shape) if array_t else float(rng.uniform(0.0, 2.0))
            _assert_matches_closed_form(case_id, case.source(x, t), x, t)


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_source_memo_never_serves_stale_nodes(case_id):
    case = manufactured_case(case_id)
    rng = np.random.default_rng(5)
    shape = (12, 4, 5)
    first = _frozen(rng.uniform(0.0, 2 * np.pi, shape))
    second = _frozen(rng.uniform(0.0, 2 * np.pi, shape))
    for x, t in [(first, 0.3), (second, 0.3), (first, 0.7), (second, 0.1)]:
        _assert_matches_closed_form(case_id, case.source(x, t), x, t)

    # a writable array changed in place between calls is read afresh
    x = rng.uniform(0.0, 2 * np.pi, shape)
    for t in (0.2, 0.2, 0.4):
        _assert_matches_closed_form(case_id, case.source(x, t), x, t)
        x += rng.uniform(-0.5, 0.5, shape)

    # so is a read-only view whose writable base changes under it
    base = rng.uniform(0.0, 2 * np.pi, shape)
    view = base[...]
    view.setflags(write=False)
    for t in (0.2, 0.5):
        _assert_matches_closed_form(case_id, case.source(view, t), view, t)
        base += 0.25

    # and so is a memoised array made writable again and changed
    case.source(first, 0.3)
    first.setflags(write=True)
    first += 0.25
    _assert_matches_closed_form(case_id, case.source(first, 0.3), first, 0.3)


def _count_sin_and_cos(monkeypatch, shape):
    # np.sin and np.cos calls on arrays of the nodes' shape, from here on.
    calls = {"sin": 0, "cos": 0}

    def counting(name, fn):
        def wrapped(arg, *args, **kwargs):
            if np.shape(arg) == shape:
                calls[name] += 1
            return fn(arg, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(np, "sin", counting("sin", np.sin))
    monkeypatch.setattr(np, "cos", counting("cos", np.cos))
    return calls


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_read_only_nodes_take_sin_and_cos_once(case_id, monkeypatch):
    case = manufactured_case(case_id)
    x = _frozen(np.random.default_rng(8).uniform(0.0, 2 * np.pi, (10, 3, 4)))
    calls = _count_sin_and_cos(monkeypatch, x.shape)
    case.source(x, 0.25)
    case.source(x, 0.5)
    assert calls == {"sin": 1, "cos": 1}


# -- the memo lives as long as its nodes ---------------------------------------


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_memo_is_dropped_with_its_nodes(case_id):
    case = manufactured_case(case_id)
    x = _frozen(np.random.default_rng(12).uniform(0.0, 2 * np.pi, (10, 3, 4)))
    case.source(x, 0.25)
    sin_x = weakref.ref(case.source._nodes(x)[0])
    del x
    gc.collect()
    assert sin_x() is None
    assert case.source._work is None


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_collecting_older_nodes_keeps_the_newer_memo(case_id, monkeypatch):
    case = manufactured_case(case_id)
    rng = np.random.default_rng(13)
    first = _frozen(rng.uniform(0.0, 2 * np.pi, (10, 3, 4)))
    second = _frozen(rng.uniform(0.0, 2 * np.pi, (10, 3, 4)))
    case.source(first, 0.25)
    # Held here, the first memo's weak reference still calls back when its
    # nodes are collected, after the memo has moved on to the second nodes.
    first_ref = case.source._x
    ref = {t: _expression_source(case_id, second, t) for t in (0.5, 0.75)}
    calls = _count_sin_and_cos(monkeypatch, second.shape)
    case.source(second, 0.25)
    del first
    gc.collect()
    assert first_ref() is None
    for t in (0.5, 0.75):
        assert np.array_equal(case.source(second, t), ref[t])
    assert calls == {"sin": 1, "cos": 1}


def test_a_finished_run_leaves_no_node_arrays_in_its_case(monkeypatch):
    case = manufactured_case(1)
    error_report = svkit.study.error_report
    held_at_report = []

    def report(*args, **kwargs):
        source = case.source
        held_at_report.append((source._x, source._node_values, source._work))
        return error_report(*args, **kwargs)

    monkeypatch.setattr(svkit.study, "error_report", report)
    svkit.study.run_single(case, "rsv", 3, 64, t_final=0.1, compare_dg=True)
    assert held_at_report == [(None, None, None)]
    assert (case.source._x, case.source._node_values, case.source._work) == (None, None, None)


# -- in-place sources against the expressions they replace ---------------------


def _expression_source(case_id, x, t):
    # The sources as one numpy expression each, before they wrote into buffers.
    sx, cx = np.sin(x), np.cos(x)
    ct, st = np.cos(t), np.sin(t)
    if case_id == "example1":
        return np.exp(sx * ct - cx * st) * (cx + (sx - 1.0) * (cx * ct + sx * st))
    return np.exp(sx * ct - cx * st) * (
        2.0 * sx * cx + (sx * sx - 1.0) * (cx * ct + sx * st)
    )


@pytest.mark.parametrize("case_id", ["example1", "example2"])
@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize("t_kind", ["scalar", "array", "broadcast"])
def test_source_bit_identical_to_expression(case_id, read_only, t_kind):
    case = manufactured_case(case_id)
    rng = np.random.default_rng(34)
    for shape in [(4, 5, 64), (7,)]:
        x = rng.uniform(-1.0, 2 * np.pi + 1.0, shape)
        if read_only:
            x = _frozen(x)
        for _ in range(3):  # the second and third calls on read-only x hit the memo
            t = {"scalar": float(rng.uniform(0.0, 2.0)),
                 "array": rng.uniform(0.0, 2.0, shape),
                 "broadcast": rng.uniform(0.0, 2.0, (2,) + (1,) * len(shape))}[t_kind]
            g = case.source(x, t)
            ref = _expression_source(case_id, x, t)
            assert g.shape == ref.shape
            assert np.array_equal(g, ref)


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_source_results_are_fresh_and_node_factors_read_only(case_id):
    case = manufactured_case(case_id)
    x = _frozen(np.random.default_rng(9).uniform(0.0, 2 * np.pi, (6, 4, 8)))
    first = case.source(x, 0.4)
    first[...] = 0.0  # the caller owns the result: no buffer is shared between calls
    assert np.array_equal(case.source(x, 0.4), _expression_source(case_id, x, 0.4))
    memo = case.source._nodes(x)  # sin x, cos x and the case's two node factors
    assert case.source._nodes(x) is memo
    assert len(memo) == 4
    for factor in memo:
        assert factor.shape == x.shape
        assert not factor.flags.writeable


@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_kept_work_arrays_leave_every_result_bit_identical(case_id):
    case = manufactured_case(case_id)
    rng = np.random.default_rng(55)
    first = _frozen(rng.uniform(0.0, 2 * np.pi, (20, 64)))
    second = _frozen(rng.uniform(0.0, 2 * np.pi, (6, 3, 64)))

    def check(x, t):
        g = case.source(x, t)
        assert np.array_equal(g, _expression_source(case_id, x, t))
        return g

    # two read-only node arrays of different shapes, in alternation
    for t in (0.1, 0.2, 0.3):
        check(first, t)
        check(second, t)

    # a scalar t after a broadcast t, whose result is larger than the nodes
    assert check(first, rng.uniform(0.0, 2.0, (3, 1, 1))).shape == (3, 20, 64)
    check(first, 0.4)

    # a held result stays as it was while later calls reuse the work arrays
    held = check(first, 0.5)
    kept = held.copy()
    work = case.source._work
    for t in (0.6, rng.uniform(0.0, 2.0, (2, 1, 1)), 0.7, 0.7):
        check(first, t)
    assert case.source._work is work
    assert not any(np.shares_memory(held, array) for array in work)
    assert np.array_equal(held, kept)
