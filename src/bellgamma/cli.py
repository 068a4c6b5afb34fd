"""Command-line interface.

Subcommands: ``measure`` (all scalar quantities for one state file),
``conjecture`` (random-state sweep comparing the maximized measure against
I-concurrence), ``povm-check`` (coefficient route vs Fourier route) and
``simulate`` (finite-shot Bell-projection estimates).

Exit codes: 0 success / check passed, 1 quantitative check failed,
2 input or usage error.  All randomness is seeded, and floats are printed
with 17 significant digits, so reruns produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from .bell import shot_error_table
from .linalg import BipartiteDims
from .local_unitary import (
    OVERSHOOT_MARGIN,
    OptimizerOptions,
    conjecture_sweep,
    maximize_gamma,
)
from .measures import (
    MeasureConfig,
    PRESET_N2,
    concurrence_2x3,
    concurrence_general,
    gamma,
    gamma_schmidt,
    i_concurrence,
)
from .phase_povm import gamma_via_povm
from .states import DensityOperator, PureState, pure_to_density, schmidt
from .statefile import StateFileError, load_local_unitary, load_state

SEPARABLE_FLAG = "separable-by-gamma-criterion"
SEPARABLE_TOL = 1e-12
#: Density input only: some restart of the supremum search stopped at its
#: sweep cap, so ``gamma_sup`` is a lower bound that may move with the input
#: in its last digits.
NOT_CONVERGED_FLAG = "sup-not-converged"

#: Fixed column order of the measure report (documented in the README).
REPORT_COLUMNS = [
    "state",
    "dims",
    "n2_preset",
    "n2",
    "gamma",
    "gamma_sup",
    "gamma_schmidt",
    "i_concurrence",
    "concurrence_general4",
    "concurrence_2x3",
    "povm_gamma",
    "dev_povm_vs_gamma",
    "dev_sup_vs_schmidt",
    "dev_general4_vs_iconc",
    "flags",
]

CONJECTURE_COLUMNS = [
    "dims",
    "trial",
    "i_concurrence",
    "gamma_schmidt",
    "best_gamma",
    "deviation",
    "overshoot",
    "converged",
]

SIMULATE_COLUMNS = ["shots", "rep", "gamma_hat", "abs_error"]


def fmt(value) -> str:
    """17-significant-digit text for floats; empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit_rows(rows: list[dict], columns: list[str], output: str) -> None:
    if output == "json":
        print(json.dumps(rows, indent=2))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt(row.get(col)) for col in columns])
    sys.stdout.write(buf.getvalue())


def _config_from_args(args) -> MeasureConfig:
    if args.n2 is not None:
        return MeasureConfig(n2=args.n2)
    return MeasureConfig.from_preset(args.n2_preset)


def _add_common(parser: argparse.ArgumentParser, default_preset: str = "paper-2x3") -> None:
    parser.add_argument(
        "--n2-preset",
        choices=sorted(PRESET_N2),
        default=default_preset,
        help=f"normalization preset (default: {default_preset})",
    )
    parser.add_argument(
        "--n2", type=float, default=None, help="explicit n2, overrides the preset"
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads for independent trials",
    )
    parser.add_argument(
        "--output", choices=["json", "csv"], default="csv", help="report format"
    )


def cmd_measure(args) -> int:
    cfg = _config_from_args(args)
    state = load_state(args.state, renormalize=args.renormalize)
    dims = state.dims

    if isinstance(state, PureState):
        rho = pure_to_density(state)
        ic = i_concurrence(state)
        schmidt_val = gamma_schmidt(state, cfg)
        cg4 = concurrence_general(state, 4.0)
        c23 = concurrence_2x3(state) if (dims.m, dims.n) == (2, 3) else None
    else:
        rho = state
        ic = schmidt_val = cg4 = c23 = None

    breakdown = gamma(rho, cfg)
    povm = gamma_via_povm(rho, cfg, grid=args.grid)
    flags = []
    if isinstance(state, PureState):
        # Per quadruple, ||x| - |y|| <= |x - y|, the modulus of a 2x2
        # amplitude minor, and the minor sum is invariant under local
        # unitaries: this bounds gamma in every frame, and the Schmidt frame
        # attains it.  So the supremum is known exactly, and a pure state is
        # separable exactly when its Schmidt rank is 1.
        sup_gamma = concurrence_general(state, prefactor=cfg.n2)
        if schmidt(state).rank == 1:
            flags.append(SEPARABLE_FLAG)
    else:
        sup = maximize_gamma(state, cfg, OptimizerOptions(seed=args.seed))
        sup_gamma = sup.best_gamma
        # gamma in the given basis can vanish on an entangled state; only a
        # converged supremum at zero marks the state separable.
        if not sup.converged:
            flags.append(NOT_CONVERGED_FLAG)
        elif sup_gamma <= SEPARABLE_TOL:
            flags.append(SEPARABLE_FLAG)

    row = {
        "state": args.state,
        "dims": dims.label(),
        "n2_preset": cfg.preset,
        "n2": cfg.n2,
        "gamma": breakdown.total,
        "gamma_sup": sup_gamma,
        "gamma_schmidt": schmidt_val,
        "i_concurrence": ic,
        "concurrence_general4": cg4,
        "concurrence_2x3": c23,
        "povm_gamma": povm,
        "dev_povm_vs_gamma": abs(povm - breakdown.total),
        "dev_sup_vs_schmidt": (
            sup_gamma - schmidt_val if schmidt_val is not None else None
        ),
        "dev_general4_vs_iconc": (
            abs(cg4 - ic) if cg4 is not None and ic is not None else None
        ),
        "flags": ";".join(flags),
    }
    _emit_rows([row], REPORT_COLUMNS, args.output)
    return 0


def cmd_conjecture(args) -> int:
    cfg = _config_from_args(args)
    dims_list = args.dims or ["2x2", "2x3"]
    for label in dims_list:
        BipartiteDims.parse(label)  # validate before the long run
    report = conjecture_sweep(
        dims_list, args.trials, args.seed, cfg, threads=args.threads
    )
    rows = [
        {
            "dims": r.dims,
            "trial": r.trial,
            "i_concurrence": r.i_concurrence,
            "gamma_schmidt": r.schmidt_gamma,
            "best_gamma": r.best_gamma,
            "deviation": r.deviation,
            "overshoot": r.overshoot,
            "converged": r.converged,
        }
        for r in report.rows
    ]
    _emit_rows(rows, CONJECTURE_COLUMNS, args.output)
    worst = 0.0
    for summary in report.summaries:
        print(
            f"# {summary.dims}: trials={summary.trials} "
            f"max_deviation={fmt(summary.max_deviation)} "
            f"overshoots={summary.overshoots}",
            file=sys.stderr,
        )
        worst = max(worst, summary.max_deviation)
    # gamma_schmidt is the proven supremum for pure input, so a search that
    # beats it by more than the margin is a bug in the optimizer.
    overshoots = [r for r in report.rows if r.overshoot]
    for r in overshoots:
        print(
            f"error: {r.dims} trial {r.trial}: best_gamma={fmt(r.best_gamma)} "
            f"exceeds the proven bound gamma_schmidt={fmt(r.schmidt_gamma)} "
            f"by more than {OVERSHOOT_MARGIN}",
            file=sys.stderr,
        )
    return 0 if worst < args.threshold and not overshoots else 1


def cmd_povm_check(args) -> int:
    cfg = _config_from_args(args)
    state = load_state(args.state, renormalize=args.renormalize)
    rho = pure_to_density(state) if isinstance(state, PureState) else state
    direct = gamma(rho, cfg).total
    via = gamma_via_povm(rho, cfg, grid=args.grid)
    diff = abs(direct - via)
    print(f"gamma={fmt(direct)}")
    print(f"gamma_via_povm={fmt(via)}")
    print(f"difference={fmt(diff)}")
    return 0 if diff < 1e-9 else 1


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    state = load_state(args.state, renormalize=args.renormalize)
    rotation = None
    if args.phase_rotation is not None:
        rotation = load_local_unitary(args.phase_rotation)
    if isinstance(state, DensityOperator) and rotation is None:
        print(
            "mixed-state input requires --phase-rotation (a local unitary "
            "making the targeted coefficients real)",
            file=sys.stderr,
        )
        return 2
    rows_raw, medians = shot_error_table(
        state,
        args.shots,
        reps=args.reps,
        seed=args.seed,
        cfg=cfg,
        phase_rotation=rotation,
    )
    rows = [
        {
            "shots": r.shots,
            "rep": r.rep,
            "gamma_hat": r.gamma_hat,
            "abs_error": r.abs_error,
        }
        for r in rows_raw
    ]
    _emit_rows(rows, SIMULATE_COLUMNS, args.output)
    for shots in args.shots:
        print(
            f"# shots={shots} median_abs_error={fmt(medians[shots])}",
            file=sys.stderr,
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bellgamma argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bellgamma",
        description=(
            "Phase-pair entanglement measure: direct, Fourier and "
            "Bell-projection routes with local-unitary maximization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser(
        "measure", help="all scalar quantities for one state file"
    )
    p_measure.add_argument("state", help="path to a .qstate.json file")
    p_measure.add_argument(
        "--renormalize", action="store_true", help="rescale a near-normalized pure state"
    )
    p_measure.add_argument(
        "--grid", type=int, default=4, help="Fourier points per phase axis (>= 3)"
    )
    _add_common(p_measure)
    p_measure.set_defaults(func=cmd_measure)

    p_conj = sub.add_parser(
        "conjecture", help="sweep random states: maximized measure vs I-concurrence"
    )
    p_conj.add_argument(
        "--dims",
        action="append",
        metavar="MxN",
        help="dimensions to test (repeatable; default 2x2 and 2x3)",
    )
    p_conj.add_argument("--trials", type=int, default=50)
    p_conj.add_argument(
        "--threshold",
        type=float,
        default=1e-4,
        help="max allowed |best - i_concurrence| for exit code 0",
    )
    # the comparison against I-concurrence presumes the matched normalization
    _add_common(p_conj, default_preset="concurrence-matched")
    p_conj.set_defaults(func=cmd_conjecture)

    p_povm = sub.add_parser(
        "povm-check", help="compare the coefficient and Fourier routes"
    )
    p_povm.add_argument("state", help="path to a .qstate.json file")
    p_povm.add_argument(
        "--renormalize", action="store_true", help="rescale a near-normalized pure state"
    )
    p_povm.add_argument(
        "--grid", type=int, default=4, help="Fourier points per phase axis (>= 3)"
    )
    _add_common(p_povm)
    p_povm.set_defaults(func=cmd_povm_check)

    p_sim = sub.add_parser(
        "simulate", help="finite-shot Bell-projection estimates of the measure"
    )
    p_sim.add_argument("state", help="path to a .qstate.json file")
    p_sim.add_argument(
        "--renormalize", action="store_true", help="rescale a near-normalized pure state"
    )
    p_sim.add_argument(
        "--shots",
        action="append",
        type=int,
        required=True,
        help="shots per projector (repeatable for a convergence table)",
    )
    p_sim.add_argument("--reps", type=int, default=20)
    p_sim.add_argument(
        "--phase-rotation",
        default=None,
        help="JSON file with local unitary factors u_a, u_b (required for mixed input)",
    )
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
