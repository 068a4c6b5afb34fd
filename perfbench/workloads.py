"""The four closed-loop workloads: their inputs, op cycles and output checks.

A workload is a cycle of CLI calls that one client repeats.  Each cycle
uses its own generated inputs, drawn from a pool written at set-up, so a run
averages over several states.  A check returns the list of its failures;
an empty list means the call's output is correct.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

Check = Callable[[int, str, str], list]


@dataclass(frozen=True)
class Op:
    label: str
    argv: list
    check: Check
    trials: int = 0


def _exit_zero(rc) -> list:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def _csv_rows(stdout: str) -> list:
    return list(csv.DictReader(io.StringIO(stdout)))


# ---------------------------------------------------------------- conjecture

CONJECTURE_DIMS = ("2x2", "2x3", "3x3")
#: Trials per dims in one call.  The CLI's default (50) makes one call of
#: 150 trials run about five minutes on 2 cores, longer than a benchmark run
#: may take.  Four per dims gives 12 tasks per call, 6 per worker of the
#: default 2-thread pool, so the pool, and any batching across trials, runs
#: in steady state rather than on the tail of 3 uneven tasks (with 1 per dims
#: a trial cost 1.3 s against 2.0 s with 2 or 4 per dims, on 2 cores).
CONJECTURE_TRIALS = 4
_SUMMARY = re.compile(r"^# (\S+): trials=(\d+) max_deviation=(\S+) overshoots=(\d+)$")


def check_conjecture(rc, stdout, stderr) -> list:
    """Exit 0 means every deviation from I-concurrence is below 1e-4; each
    dims summary must also report no overshoot of the Schmidt benchmark."""
    failures = _exit_zero(rc)
    summaries = [m for m in map(_SUMMARY.match, stderr.splitlines()) if m]
    if [m.group(1) for m in summaries] != list(CONJECTURE_DIMS):
        failures.append(f"expected summaries for {CONJECTURE_DIMS}, got {stderr!r}")
    for m in summaries:
        if int(m.group(2)) != CONJECTURE_TRIALS:
            failures.append(f"{m.group(1)}: trials={m.group(2)}")
        if int(m.group(4)) != 0:
            failures.append(f"{m.group(1)}: overshoots={m.group(4)}")
    if len(_csv_rows(stdout)) != len(CONJECTURE_DIMS) * CONJECTURE_TRIALS:
        failures.append("wrong number of trial rows")
    return failures


# ------------------------------------------------------------------- measure

#: Tolerances of the checks, fixed before any run: the routes agree to
#: roundoff, the identity restart means the supremum never drops below the
#: coefficient value, and local unitaries keep product states product.
POVM_TOL = 1e-9
SUP_SLACK = 1e-12
PRODUCT_TOL = 1e-12


def check_measure(product: bool) -> Check:
    def check(rc, stdout, stderr) -> list:
        failures = _exit_zero(rc)
        rows = _csv_rows(stdout)
        if len(rows) != 1:
            return failures + [f"expected one report row, got {len(rows)}"]
        row = rows[0]
        g, sup, dev = (float(row[k]) for k in ("gamma", "gamma_sup", "dev_povm_vs_gamma"))
        if not dev < POVM_TOL:
            failures.append(f"dev_povm_vs_gamma={dev!r}")
        if not sup >= g - SUP_SLACK:
            failures.append(f"gamma_sup={sup!r} below gamma={g!r}")
        if product and not sup <= PRODUCT_TOL:
            failures.append(f"gamma_sup={sup!r} on a product state")
        return failures

    return check


# -------------------------------------------------------------------- routes

ROUTES_DIMS = ((2, 3), (3, 3), (4, 4))
SHOTS = (1000, 10000, 100000, 1000000)
SIMULATE_REPS = 20  # the program's default --reps
_MEDIAN = re.compile(r"^# shots=(\d+) median_abs_error=(\S+)$")


def check_povm(rc, stdout, stderr) -> list:
    failures = _exit_zero(rc)
    diff = re.search(r"^difference=(\S+)$", stdout, re.M)
    if diff is None or not float(diff.group(1)) < POVM_TOL:
        failures.append(f"route difference not below {POVM_TOL}: {stdout!r}")
    return failures


def check_simulate(rc, stdout, stderr) -> list:
    failures = _exit_zero(rc)
    rows = _csv_rows(stdout)
    if len(rows) != len(SHOTS) * SIMULATE_REPS:
        failures.append(f"{len(rows)} rows, expected {len(SHOTS) * SIMULATE_REPS}")
    medians = {int(m.group(1)): float(m.group(2))
               for m in map(_MEDIAN.match, stderr.splitlines()) if m}
    if set(medians) != set(SHOTS):
        failures.append(f"missing median lines: {stderr!r}")
    elif not medians[SHOTS[-1]] < medians[SHOTS[0]]:
        failures.append(f"error did not fall with shots: {medians}")
    return failures


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[int, Path], None]
    warmup: Callable[[int, Path], list]
    cycle: Callable[[int, Path, int], list]


def _conjecture_cycle(seed, root, k) -> list:
    argv = ["conjecture"]
    for d in CONJECTURE_DIMS:
        argv += ["--dims", d]
    argv += ["--trials", str(CONJECTURE_TRIALS), "--seed", str(inputs.cli_seed(seed, 0, k))]
    return [Op("conjecture", argv, check_conjecture, len(CONJECTURE_DIMS) * CONJECTURE_TRIALS)]


def _measure_files(root: Path, k: int) -> dict:
    return {
        label: root / f"{k:02d}-{label}.qstate.json"
        for label in ("rho-2x2", "rho-2x3", "product-2x3")
    }


def _measure_inputs(seed, root) -> None:
    for k in range(MEASURE_POOL):
        files = _measure_files(root, k)
        rng = inputs.rng_for(seed, 1, k)
        inputs.write_state(files["rho-2x2"], "density", 2, 2, inputs.full_rank_density(rng, 4))
        inputs.write_state(files["rho-2x3"], "density", 2, 3, inputs.full_rank_density(rng, 6))
        inputs.write_state(files["product-2x3"], "density", 2, 3, inputs.product_density(rng, 2, 3))


#: The product call comes three times per cycle, with its own --seed each
#: time, so the median call is a product call: its cost is one sweep per
#: restart, while the full-rank calls vary several-fold with the input.
MEASURE_CYCLE = ("product-2x3", "rho-2x2", "product-2x3", "rho-2x3", "product-2x3")


def _measure_cycle(seed, root, k) -> list:
    files = _measure_files(root, k % MEASURE_POOL)
    return [
        Op(f"measure {label}",
           ["measure", str(files[label]), "--seed", str(inputs.cli_seed(seed, 1, k, i))],
           check_measure(label.startswith("product")))
        for i, label in enumerate(MEASURE_CYCLE)
    ]


#: Product states only.  Local unitaries keep a product state product, so
#: every restart of the supremum search stops after its first sweep and a
#: call's work is the same for every state of its dims.  This is the gated
#: workload of the optimizer: it measures the per-sweep cost of the amplitude
#: objective (the one conjecture-pure runs) and of the density objective,
#: without the input-driven spread of conjecture-pure and measure-mixed.
PRODUCT_STATES = (("pure", 2, 2), ("pure", 2, 3), ("pure", 3, 3), ("density", 2, 3))


def _product_files(root: Path, k: int) -> dict:
    return {(kind, m, n): root / f"{k:02d}-{kind}-{m}x{n}-product.qstate.json"
            for kind, m, n in PRODUCT_STATES}


def _product_inputs(seed, root) -> None:
    for k in range(PRODUCT_POOL):
        for i, ((kind, m, n), path) in enumerate(_product_files(root, k).items()):
            rng = inputs.rng_for(seed, 3, k, i)
            make = inputs.product_amplitudes if kind == "pure" else inputs.product_density
            inputs.write_state(path, kind, m, n, make(rng, m, n))


def _product_cycle(seed, root, k) -> list:
    files = _product_files(root, k % PRODUCT_POOL)
    return [
        Op(f"measure {kind}-{m}x{n}-product",
           ["measure", str(path), "--seed", str(inputs.cli_seed(seed, 3, k, i))],
           check_measure(product=True))
        for i, ((kind, m, n), path) in enumerate(files.items())
    ]


def _routes_files(root: Path, k: int, m: int, n: int) -> tuple:
    return (root / f"{k:02d}-pure-{m}x{n}.qstate.json",
            root / f"{k:02d}-rho-{m}x{n}.qstate.json")


def _routes_inputs(seed, root) -> None:
    for k in range(ROUTES_POOL):
        for di, (m, n) in enumerate(ROUTES_DIMS):
            pure, rho = _routes_files(root, k, m, n)
            rng = inputs.rng_for(seed, 2, k, di)
            inputs.write_state(pure, "pure", m, n, inputs.pure_amplitudes(rng, m, n))
            inputs.write_state(rho, "density", m, n, inputs.full_rank_density(rng, m * n))


def _routes_cycle(seed, root, k) -> list:
    ops = []
    for di, (m, n) in enumerate(ROUTES_DIMS):
        pure, rho = _routes_files(root, k % ROUTES_POOL, m, n)
        shots = [a for s in SHOTS for a in ("--shots", str(s))]
        ops += [
            Op(f"povm-check pure-{m}x{n}", ["povm-check", str(pure)], check_povm),
            Op(f"povm-check rho-{m}x{n}", ["povm-check", str(rho)], check_povm),
            Op(f"simulate pure-{m}x{n}",
               ["simulate", str(pure), *shots, "--seed", str(inputs.cli_seed(seed, 2, k, di))],
               check_simulate),
        ]
    return ops


MEASURE_POOL = 4
PRODUCT_POOL = 8
ROUTES_POOL = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conjecture-pure",
            write_inputs=lambda seed, root: None,
            warmup=lambda seed, root: ["conjecture", "--dims", "2x2", "--trials", "1",
                                       "--seed", str(inputs.cli_seed(seed, 0, 10**6))],
            cycle=_conjecture_cycle,
        ),
        Workload(
            "measure-mixed",
            write_inputs=_measure_inputs,
            warmup=lambda seed, root: ["measure", str(_measure_files(root, 0)["product-2x3"])],
            cycle=_measure_cycle,
        ),
        Workload(
            "measure-product",
            write_inputs=_product_inputs,
            warmup=lambda seed, root: ["measure", str(_product_files(root, 0)[("pure", 2, 2)])],
            cycle=_product_cycle,
        ),
        Workload(
            "routes-crosscheck",
            write_inputs=_routes_inputs,
            warmup=lambda seed, root: ["povm-check", str(_routes_files(root, 0, 2, 3)[0])],
            cycle=_routes_cycle,
        ),
    )
}
