"""The three benchmark workloads, driven only through svkit's public API.

A workload is a fixed list of jobs; a job is one (scheme, k, n) integration
plus its checks.  The seed passed on the command line only jitters the
interior mesh breakpoints (``build_mesh(n, perturbation, seed)``), so every
seed does the same amount of work on a different non-uniform mesh.

Each workload offers three entry points:

* ``build(sk, seed)`` constructs every job's mesh, coefficient, partition,
  operator(s) and initial interpolant: the set-up a fresh process pays;
* ``run_round(sk, seed)`` does the timed work once and returns its outcome;
* ``check(sk, outcome)`` returns ``(failed_jobs, problems)`` for that outcome.

``sk`` is the imported ``svkit`` package.  Functions are looked up on it at
call time so that the traced run can wrap them.
"""

from __future__ import annotations

import math
import sys
import traceback

import checks


class StudyWorkload:
    """``run_study`` on example 1 (alpha = sin x, with source)."""

    def __init__(self, schemes, k_values, n_values, t_final, perturbation, order_band):
        self.schemes = schemes
        self.k_values = k_values
        self.n_values = n_values
        self.t_final = t_final
        self.perturbation = perturbation
        self.order_band = order_band
        self.jobs = len(schemes) * len(k_values) * len(n_values)

    def build(self, sk, seed):
        case = sk.manufactured_case(1)
        for scheme in self.schemes:
            variant = sk.Scheme(scheme)
            for k in self.k_values:
                for n in self.n_values:
                    mesh = sk.build_mesh(n, self.perturbation, seed=seed)
                    coeff = sk.FluxCoefficient(case.alpha, mesh)
                    part = sk.build_partition(mesh, k, variant, coeff)
                    sk.SVOperator(sk.SchemeConfig(k, variant), part, coeff, case.source)
                    sk.interpolate(case.u0, part, coeff, sk.InterpKind.AUTO)

    def run_round(self, sk, seed):
        config = sk.StudyConfig(
            example="1",
            schemes=self.schemes,
            k_values=self.k_values,
            n_values=self.n_values,
            t_final=self.t_final,
            perturbation=self.perturbation,
            seed=seed,
        )
        try:
            return sk.run_study(config)
        except Exception:  # a failed study fails all its jobs; the run goes on
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, sk, result):
        if result is None:
            return self.jobs, []
        problems = []
        if len(result.reports) != self.jobs:
            problems.append(f"{len(result.reports)} reports for {self.jobs} jobs")
        for r in result.reports:
            if not (math.isfinite(r.l2) and r.l2 > 0.0):
                problems.append(f"{r.scheme} k={r.k} n={r.n}: L2 error {r.l2!r}")
        for scheme in self.schemes:
            for k in self.k_values:
                orders = result.orders.get((scheme, k, "l2"))
                if orders is None:
                    problems.append(f"{scheme} k={k}: no L2 order")
                    continue
                for order in orders[1:]:
                    problem = checks.order_band(order, k, self.order_band)
                    if problem:
                        problems.append(f"{scheme}: {problem}")
        return 0, problems


class FreeTwinWorkload:
    """Source-free evolution, each SV run stepped beside its upwind DG twin.

    The members use alpha = sin^2 x (example 2's degenerate coefficient) for
    rsv and lsv at every k; one more member runs rsv at alpha = 1, where RSV
    and DG must coincide.
    """

    def __init__(self, k_values, n, t_final, perturbation, const_k):
        self.members = [
            (scheme, k, False) for scheme in ("rsv", "lsv") for k in k_values
        ] + [("rsv", const_k, True)]
        self.n = n
        self.t_final = t_final
        self.perturbation = perturbation
        self.jobs = len(self.members)

    def _build_member(self, sk, seed, scheme, k, const_alpha):
        import numpy as np  # not at the top: a set-up process times its import

        case = sk.manufactured_case(2).without_source()
        alpha = (lambda x: np.ones_like(x)) if const_alpha else case.alpha
        mesh = sk.build_mesh(self.n, self.perturbation, seed=seed)
        coeff = sk.FluxCoefficient(alpha, mesh)
        variant = sk.Scheme(scheme)
        part = sk.build_partition(mesh, k, variant, coeff)
        sv = sk.SVOperator(sk.SchemeConfig(k, variant), part, coeff, case.source)
        dg = sk.DGOperator(mesh, k, coeff, case.source)
        u0 = sk.interpolate(case.u0, part, coeff, sk.InterpKind.AUTO)
        return sv, dg, u0

    def build(self, sk, seed):
        for member in self.members:
            self._build_member(sk, seed, *member)

    def run_round(self, sk, seed):
        dt = 0.01 / self.n
        outcome = []
        for member in self.members:
            try:
                sv, dg, u0 = self._build_member(sk, seed, *member)
                u_sv = sk.integrate_to(u0, 0.0, self.t_final, dt, sv)
                u_dg = sk.integrate_to(u0, 0.0, self.t_final, dt, dg)
                outcome.append((member, u0, u_sv, u_dg))
            except Exception:  # one failed member does not stop the others
                traceback.print_exc(file=sys.stderr)
                outcome.append((member, None, None, None))
        return outcome

    def check(self, sk, outcome):
        failed = 0
        problems = []
        for (scheme, k, const_alpha), u0, u_sv, u_dg in outcome:
            if u0 is None:
                failed += 1
                continue
            label = f"{scheme} k={k}" + (" alpha=1" if const_alpha else "")
            mass_0 = sk.total_mass(u0)
            norm_0 = sk.broken_norm(u0)
            for name, u in (("SV", u_sv), ("DG", u_dg)):
                for problem in (
                    checks.mass_drift(mass_0, sk.total_mass(u)),
                    checks.norm_bound(norm_0, sk.broken_norm(u), self.t_final),
                ):
                    if problem:
                        problems.append(f"{label} {name}: {problem}")
            if const_alpha:
                problem = checks.twin_identity(sk.broken_norm(u_sv - u_dg), sk.broken_norm(u_dg))
                if problem:
                    problems.append(f"{label}: {problem}")
        return failed, problems


WORKLOADS = {
    # The paper's convergence table in the per-call-overhead regime: thousands
    # of RK4 steps on at most 128 dofs, source evaluated on every stage.
    "forced-sweep": StudyWorkload(
        schemes=("rsv", "lsv"),
        k_values=(1, 2, 3),
        n_values=(16, 32),
        t_final=math.pi / 4,
        # Independent meshes at n = 16 and 32 make the observed order depend on
        # the draw; at 5% jitter it stays well inside the band for every seed.
        perturbation=0.05,
        order_band=checks.COARSE_ORDER_BAND,
    ),
    # No source at all, and the DG twin doubles the stepping: the only
    # workload where dg runs, and one where a faster source must read unchanged.
    "free-twin": FreeTwinWorkload(
        k_values=(1, 2, 3), n=32, t_final=math.pi / 8, perturbation=0.2, const_k=2
    ),
    # The array regime: N up to 2048 over a short horizon (77 and 154 steps), so
    # source evaluation, set-up and error_report on large N carry the time.
    "fine-forced": StudyWorkload(
        schemes=("rsv", "lsv"),
        k_values=(2, 3),
        n_values=(1024, 2048),
        t_final=0.00075,
        perturbation=0.2,
        order_band=checks.FINE_ORDER_BAND,
    ),
}
