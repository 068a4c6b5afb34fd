"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is seeded and finishes in a few minutes on a
workstation.
"""

import dataclasses
import math
import statistics
import time

import numpy as np
import pytest

import bellgamma as bg
from bellgamma.local_unitary import SWEEP_OPTS

SEED = 20250811
DIMS_GRID = [(2, 2), (2, 3), (3, 3), (3, 4)]


def _report(number: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")


def test_criterion_1_separability_zero():
    budget = 10.0
    t0 = time.perf_counter()
    worst = 0.0
    for di, dims in enumerate(DIMS_GRID):
        d = bg.BipartiteDims(*dims)
        for i in range(1000):
            rho = bg.random_product(d, np.random.SeedSequence((SEED, 1, di, i)))
            worst = max(worst, bg.gamma(rho, bg.PAPER_2X3).total)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _report(1, ok, f"max gamma over 4000 product states = {worst:.3e}", elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_2_route_equivalence():
    budget = 60.0
    t0 = time.perf_counter()
    worst_route = 0.0
    worst_grid = 0.0
    for di, dims in enumerate(DIMS_GRID):
        d = bg.BipartiteDims(*dims)
        states = [
            bg.pure_to_density(bg.random_pure(d, np.random.SeedSequence((SEED, 2, di, i))))
            for i in range(50)
        ] + [
            bg.random_density(d, np.random.SeedSequence((SEED, 2, di, 1000 + i)))
            for i in range(20)
        ]
        for rho in states:
            direct = bg.gamma(rho, bg.PAPER_2X3).total
            via3 = bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=3)
            via8 = bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=8)
            worst_route = max(worst_route, abs(via3 - direct), abs(via8 - direct))
            worst_grid = max(worst_grid, abs(via3 - via8))
    elapsed = time.perf_counter() - t0
    ok = worst_route < 1e-10 and worst_grid < 1e-12
    _report(
        2,
        ok,
        f"max |fourier - direct| = {worst_route:.3e}, max grid-3 vs grid-8 "
        f"gap = {worst_grid:.3e} over 280 states",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget


def test_criterion_3_zeroing_construction():
    budget = 5.0
    t0 = time.perf_counter()
    d = bg.BipartiteDims(2, 3)
    worst_amp = 0.0
    worst_match = 0.0
    for i in range(200):
        psi = bg.random_pure(d, np.random.SeedSequence((SEED, 3, i)))
        out, _ = bg.zero_a11_a23(psi)
        worst_amp = max(worst_amp, abs(out.amp[0, 0]), abs(out.amp[1, 2]))
        worst_match = max(
            worst_match,
            abs(bg.gamma_pure(out, bg.PAPER_2X3).total - bg.concurrence_2x3(psi)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_amp < 1e-12 and worst_match < 1e-9
    _report(
        3,
        ok,
        f"max zeroed amplitude = {worst_amp:.3e}, max |gamma(n2=2) - "
        f"concurrence_2x3| = {worst_match:.3e} over 200 states",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget


def test_criterion_4_concurrence_identity():
    budget = 5.0
    t0 = time.perf_counter()
    worst_general = 0.0
    worst_schmidt = 0.0
    for di, dims in enumerate(DIMS_GRID):
        d = bg.BipartiteDims(*dims)
        for i in range(125):
            psi = bg.random_pure(d, np.random.SeedSequence((SEED, 4, di, i)))
            ic = bg.i_concurrence(psi)
            worst_general = max(worst_general, abs(bg.concurrence_general(psi, 4.0) - ic))
            worst_schmidt = max(
                worst_schmidt, abs(bg.gamma_schmidt(psi, bg.CONCURRENCE_MATCHED) - ic)
            )
    elapsed = time.perf_counter() - t0
    ok = worst_general < 1e-10 and worst_schmidt < 1e-10
    _report(
        4,
        ok,
        f"max |concurrence_general(4) - i_concurrence| = {worst_general:.3e}, "
        f"max |gamma_schmidt(n2=4) - i_concurrence| = {worst_schmidt:.3e} "
        f"over 500 states",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget


@pytest.fixture(scope="module")
def conjecture_reports():
    plan = [("2x2", 50), ("2x3", 50), ("3x3", 25)]
    reports = {}
    t0 = time.perf_counter()
    for label, trials in plan:
        reports[label] = bg.conjecture_sweep(
            [label], trials, SEED, bg.CONCURRENCE_MATCHED, opts=SWEEP_OPTS
        )
    # The same 3x3 trials without the Schmidt restart: how far the search on
    # its own falls short of the proven supremum.  Reported, not thresholded.
    unseeded = bg.conjecture_sweep(
        ["3x3"], 25, SEED, bg.CONCURRENCE_MATCHED,
        opts=dataclasses.replace(SWEEP_OPTS, include_schmidt=False),
    )
    shortfall = max(r.schmidt_gamma - r.best_gamma for r in unseeded.rows)
    return reports, shortfall, time.perf_counter() - t0


def test_criterion_5_conjecture_support(conjecture_reports):
    budget = 180.0
    reports, shortfall, elapsed = conjecture_reports
    worst = 0.0
    overshoots = 0
    details = []
    for label, report in reports.items():
        summary = report.summaries[0]
        worst = max(worst, summary.max_deviation)
        overshoots += summary.overshoots
        details.append(f"{label}: dev={summary.max_deviation:.2e}")
    ok = worst < 1e-4 and overshoots == 0
    _report(
        5,
        ok,
        f"max |best_gamma - i_concurrence| = {worst:.3e}, overshoots above "
        f"schmidt + 1e-9 = {overshoots} ({', '.join(details)}); without the "
        f"Schmidt restart, 3x3 max(gamma_schmidt - best_gamma) = {shortfall:.3e}",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget


def test_criterion_6_invariance_of_supremum():
    budget = 120.0
    t0 = time.perf_counter()
    worst_sup = 0.0
    worst_ic = 0.0
    cases = [("2x2", 50), ("2x3", 50)]
    for ci, (label, count) in enumerate(cases):
        d = bg.BipartiteDims.parse(label)
        for i in range(count):
            psi = bg.random_pure(d, np.random.SeedSequence((SEED, 6, ci, i)))
            u = bg.random_local_unitary(d, np.random.SeedSequence((SEED, 6, ci, i, 1)))
            rotated = bg.apply_local(psi, u)
            worst_ic = max(
                worst_ic, abs(bg.i_concurrence(rotated) - bg.i_concurrence(psi))
            )
            base = bg.maximize_gamma(psi, bg.CONCURRENCE_MATCHED, SWEEP_OPTS)
            rot = bg.maximize_gamma(rotated, bg.CONCURRENCE_MATCHED, SWEEP_OPTS)
            worst_sup = max(worst_sup, abs(base.best_gamma - rot.best_gamma))
    elapsed = time.perf_counter() - t0
    ok = worst_sup < 2e-6 and worst_ic < 1e-10
    _report(
        6,
        ok,
        f"max |sup(rotated) - sup| = {worst_sup:.3e}, max i_concurrence "
        f"shift = {worst_ic:.3e} over 100 pairs",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget


def test_criterion_7_bell_counting_and_reduced_plan():
    budget = 1.0
    t0 = time.perf_counter()
    counts_ok = True
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            fam = bg.enumerate_bell(bg.BipartiteDims(m, n))
            counts_ok = counts_ok and len(fam.states) == m * (m - 1) * n * (n - 1)

    plan23 = bg.plan_measurement(bg.BipartiteDims(2, 3))
    nb = bg.NAMED_BELL_2X3
    named_ok = set(plan23.reduced.projectors) == {
        nb["phi1"], nb["phi2"], nb["phi5"], nb["phi6"], nb["psi5"], nb["psi6"]
    } and len(plan23.reduced.projectors) == 6

    bound_ok = True
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            plan = bg.plan_measurement(bg.BipartiteDims(m, n))
            bound_ok = bound_ok and (
                len(plan.reduced.projectors) <= m * (m - 1) * n * (n - 1) // 2
            )
    elapsed = time.perf_counter() - t0
    ok = counts_ok and named_ok and bound_ok
    _report(
        7,
        ok,
        f"family counts match M(M-1)N(N-1) on 9 dims: {counts_ok}; 2x3 reduced "
        f"plan is the named sextet: {named_ok}; reduced size bound: {bound_ok}",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget


def test_criterion_8_shot_noise_scaling(bell_2x3):
    budget = 30.0
    t0 = time.perf_counter()
    _, medians = bg.shot_error_table(
        bell_2x3, [10**4, 10**6], reps=100, seed=SEED, cfg=bg.PAPER_2X3
    )
    elapsed = time.perf_counter() - t0
    med4, med6 = medians[10**4], medians[10**6]
    # 1/sqrt(shots) predicts a ratio of 1/10; slack factor 1.25 gives 1/8
    ok = med6 < 5e-3 and med6 <= med4 / 8.0
    _report(
        8,
        ok,
        f"median |est - gamma| at 1e6 shots = {med6:.3e} (< 5e-3), at 1e4 "
        f"shots = {med4:.3e}, ratio = {med6 / med4 if med4 else float('nan'):.3f} "
        f"(<= 1/8)",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget


def test_criterion_9_convention_ledger(bell_2x3):
    budget = 1.0
    t0 = time.perf_counter()

    # Discrepancy 1: on a Bell state the pairwise-minor concurrence is
    # 1/sqrt(2) while I-concurrence is 1.
    c23 = bg.concurrence_2x3(bell_2x3)
    ic = bg.i_concurrence(bell_2x3)
    ok1 = (
        abs(c23 - 1 / math.sqrt(2)) < 1e-12
        and abs(ic - 1.0) < 1e-12
        and abs(ic / c23 - math.sqrt(2)) < 1e-12
    )

    # Discrepancy 2: direct evaluation gives sqrt(n2/4) for a Bell state; the
    # quoted value sqrt(n2/2) is sqrt(2) larger.  Asserted: the direct value.
    n2 = bg.PAPER_2X3.n2
    direct = bg.gamma(bg.pure_to_density(bell_2x3), bg.PAPER_2X3).total
    quoted = math.sqrt(n2 / 2.0)
    ok2 = (
        abs(direct - math.sqrt(n2 / 4.0)) < 1e-12
        and abs(quoted / direct - math.sqrt(2)) < 1e-12
    )

    # Discrepancy 3: for the rank-K maximally entangled state the direct
    # value is sqrt(n2 * (K-1) / (2K)); the quoted value sqrt(n2) exceeds it.
    d33 = bg.BipartiteDims(3, 3)
    ok3 = True
    for k in (2, 3):
        maxent = bg.max_entangled(k, d33)
        got = bg.gamma(bg.pure_to_density(maxent), bg.PAPER_2X3).total
        want = math.sqrt(n2 * (k - 1) / (2.0 * k))
        ok3 = ok3 and abs(got - want) < 1e-12 and got < math.sqrt(n2)
    # at n2 = 2 the attainable supremum sqrt((K-1)/K) stays below 1
    top = bg.gamma(bg.pure_to_density(bg.max_entangled(3, d33)), bg.PAPER_2X3).total

    elapsed = time.perf_counter() - t0
    ok = ok1 and ok2 and ok3 and top < 1.0
    _report(
        9,
        ok,
        f"bell: concurrence_2x3 = {c23:.6f} vs i_concurrence = {ic:.6f}; "
        f"gamma(bell, n2=2) = {direct:.6f} vs quoted {quoted:.6f}; "
        f"rank-3 gamma = {top:.6f} (quoted sqrt(2) = {math.sqrt(2):.6f})",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed < budget
