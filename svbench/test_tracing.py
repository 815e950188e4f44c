"""The tracer counts every boundary exactly and leaves svkit as it found it.

Run from the repository root:  python3 -m pytest svbench/test_tracing.py
"""

import sys
from pathlib import Path

import workloads
from tracing import STEP, Tracer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import svkit as sk  # noqa: E402


def test_counts_on_a_small_free_twin_round_and_restores_the_package():
    originals = (sk.timestep.rk4_step, sk.rk4_step, sk.poly.interpolate,
                 vars(sk.SVOperator)["__call__"], vars(sk.poly.PiecewisePoly)["__init__"])
    workload = workloads.FreeTwinWorkload(k_values=(1,), n=8, t_final=0.05, perturbation=0.2, const_k=1)
    tracer = Tracer()
    with tracer.installed(sk):
        workload.run_round(sk, seed=3)

    steps = 40 * 2 * workload.jobs  # 0.05 / (0.01 / 8) steps, SV and DG per member
    spans = tracer.spans
    assert spans[STEP].calls == steps
    assert spans["sv.SVOperator.call"].calls == spans["dg.DGOperator.call"].calls == 2 * steps
    assert spans["sv.SVOperator.init"].calls == spans["dg.DGOperator.init"].calls == workload.jobs
    assert spans["poly.interpolate"].calls == spans["mesh.build_partition"].calls == workload.jobs
    assert spans["cases.source.eval"].calls == 0
    assert tracer.polys_in_steps == 17 * steps  # 4 RHS results and 13 RK4 combinations
    assert 0.0 < spans[STEP].self_s < spans[STEP].total_s
    assert originals == (sk.timestep.rk4_step, sk.rk4_step, sk.poly.interpolate,
                         vars(sk.SVOperator)["__call__"], vars(sk.poly.PiecewisePoly)["__init__"])


def test_source_evaluations_are_charged_to_the_sv_call():
    tracer = Tracer()
    with tracer.installed(sk):
        result = sk.run_study(sk.StudyConfig(example="1", k_values=(1,), n_values=(8, 16), t_final=0.01))
    spans = tracer.spans
    assert len(result.reports) == spans["study.run_single"].calls == 2
    assert spans["metrics.error_report"].calls == 2
    source, call = spans["cases.source.eval"], spans["sv.SVOperator.call"]
    assert 2 * spans[STEP].calls <= source.calls <= call.calls
    assert 0.0 < call.self_s < call.total_s
