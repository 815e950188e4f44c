"""The benchmark's checks accept correct results and reject deliberately wrong ones.

Run from the repository root:  python3 -m pytest svbench/test_checks.py
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import svkit as sk  # noqa: E402


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("band", [checks.COARSE_ORDER_BAND, checks.FINE_ORDER_BAND])
def test_order_band_accepts_optimal_and_rejects_halved_or_degraded_order(k, band):
    assert checks.order_band(k + 1.0, k, band) is None
    assert checks.order_band((k + 1.0) / 2, k, band) is not None
    assert checks.order_band(k + 0.0, k, band) is not None
    assert checks.order_band(math.nan, k, band) is not None


def test_order_band_rejects_an_order_too_high():
    assert checks.order_band(4.0, 1, checks.COARSE_ORDER_BAND) is not None
    assert checks.order_band(3.5, 2, checks.FINE_ORDER_BAND) is not None


@pytest.mark.parametrize("name", ["forced-sweep", "fine-forced"])
def test_study_check_flags_a_halved_order_and_counts_a_failed_study(name):
    workload = workloads.WORKLOADS[name]
    reports = [
        SimpleNamespace(scheme=s, k=k, n=n, l2=1e-3 / n ** (k + 1))
        for s in workload.schemes for k in workload.k_values for n in workload.n_values
    ]
    orders = {(s, k, "l2"): [None, k + 1.0] for s in workload.schemes for k in workload.k_values}
    assert workload.check(None, SimpleNamespace(reports=reports, orders=orders)) == (0, [])

    orders[("lsv", 2, "l2")] = [None, 1.5]
    failed, problems = workload.check(None, SimpleNamespace(reports=reports, orders=orders))
    assert failed == 0 and len(problems) == 1 and "lsv" in problems[0]

    assert workload.check(None, None) == (workload.jobs, [])


def test_mass_drift():
    assert checks.mass_drift(7.95, 7.95 + 2e-15) is None
    assert checks.mass_drift(7.95, 7.95 * (1 + 1e-9)) is not None
    assert checks.mass_drift(-7.95, -7.95 * (1 + 1e-9)) is not None


def test_norm_bound():
    t = math.pi / 8
    assert checks.norm_bound(3.0, 3.0 * math.exp(t), t) is None
    assert checks.norm_bound(3.0, 3.0 * math.exp(t) * 1.001, t) is not None


def test_twin_identity():
    assert checks.twin_identity(3e-15, 3.6) is None
    assert checks.twin_identity(1e-6, 3.6) is not None


def test_free_twin_check_rejects_drift_growth_and_a_perturbed_twin():
    """On real svkit states: inject mass drift, norm growth and an RSV-DG mismatch."""
    workload = workloads.FreeTwinWorkload(k_values=(1,), n=8, t_final=0.05, perturbation=0.2, const_k=1)
    outcome = workload.run_round(sk, seed=3)
    assert workload.check(sk, outcome) == (0, [])

    def corrupted(member_index, which, change):
        bad = list(outcome)
        member, u0, u_sv, u_dg = bad[member_index]
        u = (u_sv if which == "sv" else u_dg).copy()
        change(u.coeffs)
        bad[member_index] = (member, u0, u, u_dg) if which == "sv" else (member, u0, u_sv, u)
        return workload.check(sk, bad)[1]

    def drift(c):
        c[0, 0] += 1e-6

    def grow(c):
        c *= 2.0

    def nudge(c):
        c[5, 1] += 1e-7

    assert any("mass drift" in p for p in corrupted(0, "sv", drift))
    assert any("mass drift" in p for p in corrupted(1, "dg", drift))
    assert any("stability bound" in p for p in corrupted(0, "dg", grow))
    assert [p for p in corrupted(2, "dg", nudge) if "RSV-DG" in p]

    outcome[1] = (outcome[1][0], None, None, None)
    assert workload.check(sk, outcome) == (1, [])
