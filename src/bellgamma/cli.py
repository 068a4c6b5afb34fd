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
import sys

from .bell import MAX_DRAWS, ShotErrorRow, shot_error_table
from .linalg import BipartiteDims, check_input_dims
from .local_unitary import (
    OVERSHOOT_MARGIN,
    ConjectureRow,
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
from .statefile import load_local_unitary, load_state

SEPARABLE_FLAG = "separable-by-gamma-criterion"
SEPARABLE_TOL = 1e-12
#: Density input only: some restart of the supremum search stopped at its
#: sweep cap.  Flagged or not, a density ``gamma_sup`` is the best value a
#: local search found, and it can sit percent-level below the supremum.
NOT_CONVERGED_FLAG = "sup-not-converged"
#: ``conjecture`` exits 1 once some trial's |best_gamma - i_concurrence|
#: reaches this.
CONJECTURE_TOL = 1e-4

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

CONJECTURE_COLUMNS = list(ConjectureRow._fields)
SIMULATE_COLUMNS = list(ShotErrorRow._fields)


def fmt(value) -> str:
    """17-significant-digit text for floats; empty for missing values."""
    # floats first, most rows being floats; None and bool are not floats
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def _emit_rows(rows, columns: list[str], output: str) -> None:
    """Print ``rows``, each a sequence of values in ``columns`` order: as CSV
    under a header line, or as a JSON list of objects keyed by column."""
    if output == "json":
        print(json.dumps([dict(zip(columns, row, strict=True)) for row in rows], indent=2))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([fmt(value) for value in row] for row in rows)
    sys.stdout.write(buf.getvalue())


def _config_from_args(args) -> MeasureConfig:
    if args.n2 is not None:
        return MeasureConfig(n2=args.n2)
    return MeasureConfig.from_preset(args.n2_preset)


def _int_at_least(low: int, what: str):
    """An argparse type accepting integers >= ``low``, described as ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


#: numpy seeds its generators from non-negative integers.
_seed = _int_at_least(0, "a non-negative integer")
#: a pool needs at least one worker
_threads = _int_at_least(1, "a positive integer")


def _add_state(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("state", help="path to a .qstate.json file")
    parser.add_argument(
        "--renormalize", action="store_true", help="rescale a near-normalized pure state"
    )


def _add_n2(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n2-preset",
        choices=sorted(PRESET_N2),
        default="paper-2x3",
        help="normalization preset (default: paper-2x3)",
    )
    parser.add_argument(
        "--n2", type=float, default=None, help="explicit n2, overrides the preset"
    )


def _add_seed_and_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=0, help="base RNG seed (>= 0)")
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
        dec = schmidt(state)
        schmidt_val = gamma_schmidt(dec, cfg)
        cg4 = concurrence_general(state, 4.0)
        c23 = concurrence_2x3(state) if (dims.m, dims.n) == (2, 3) else None
    else:
        rho = state
        ic = schmidt_val = cg4 = c23 = None

    breakdown = gamma(rho, cfg)
    povm = gamma_via_povm(rho, cfg)
    flags = []
    if isinstance(state, PureState):
        # Per quadruple, ||x| - |y|| <= |x - y|, the modulus of a 2x2
        # amplitude minor, and the minor sum is invariant under local
        # unitaries: this bounds gamma in every frame, and the Schmidt frame
        # attains it.  So the supremum is known exactly, and a pure state is
        # separable exactly when its Schmidt rank is 1.
        sup_gamma = concurrence_general(state, prefactor=cfg.n2)
        if dec.rank == 1:
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

    row = (  # in REPORT_COLUMNS order
        args.state,
        dims.label(),
        cfg.preset,
        cfg.n2,
        breakdown.total,
        sup_gamma,
        schmidt_val,
        ic,
        cg4,
        c23,
        povm,
        abs(povm - breakdown.total),
        sup_gamma - schmidt_val if schmidt_val is not None else None,
        abs(cg4 - ic) if cg4 is not None and ic is not None else None,
        ";".join(flags),
    )
    _emit_rows([row], REPORT_COLUMNS, args.output)
    return 0


def cmd_conjecture(args) -> int:
    dims_list = args.dims or ["2x2", "2x3"]
    for label in dims_list:
        check_input_dims(BipartiteDims.parse(label))  # validate before the long run
    report = conjecture_sweep(dims_list, args.trials, args.seed, threads=args.threads)
    _emit_rows(report.rows, CONJECTURE_COLUMNS, args.output)
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
            f"exceeds the proven bound gamma_schmidt={fmt(r.gamma_schmidt)} "
            f"by more than {OVERSHOOT_MARGIN}",
            file=sys.stderr,
        )
    return 0 if worst < CONJECTURE_TOL and not overshoots else 1


def cmd_povm_check(args) -> int:
    cfg = _config_from_args(args)
    state = load_state(args.state, renormalize=args.renormalize)
    rho = pure_to_density(state) if isinstance(state, PureState) else state
    direct = gamma(rho, cfg).total
    via = gamma_via_povm(rho, cfg)
    diff = abs(direct - via)
    print(f"gamma={fmt(direct)}")
    print(f"gamma_via_povm={fmt(via)}")
    print(f"difference={fmt(diff)}")
    # both routes scale as sqrt(n2), so past gamma = 1 the tolerance is relative
    return 0 if diff < 1e-9 * max(1.0, abs(direct)) else 1


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
    rows, medians = shot_error_table(
        state,
        args.shots,
        reps=args.reps,
        seed=args.seed,
        cfg=cfg,
        phase_rotation=rotation,
    )
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
    _add_state(p_measure)
    _add_n2(p_measure)
    _add_seed_and_output(p_measure)
    p_measure.set_defaults(func=cmd_measure)

    p_conj = sub.add_parser(
        "conjecture", help="sweep random states at n2 = 4: maximized measure vs I-concurrence"
    )
    p_conj.add_argument(
        "--dims",
        action="append",
        metavar="MxN",
        help="dimensions to test (repeatable; default 2x2 and 2x3)",
    )
    p_conj.add_argument("--trials", type=int, default=50)
    _add_seed_and_output(p_conj)
    p_conj.add_argument(
        "--threads",
        type=_threads,
        default=1,
        help="worker threads for independent trials (>= 1; default: 1)",
    )
    p_conj.set_defaults(func=cmd_conjecture)

    p_povm = sub.add_parser(
        "povm-check", help="compare the coefficient and Fourier routes"
    )
    _add_state(p_povm)
    _add_n2(p_povm)
    p_povm.set_defaults(func=cmd_povm_check)

    p_sim = sub.add_parser(
        "simulate", help="finite-shot Bell-projection estimates of the measure"
    )
    _add_state(p_sim)
    p_sim.add_argument(
        "--shots",
        action="append",
        type=int,
        required=True,
        help="shots per projector (repeatable for a convergence table)",
    )
    p_sim.add_argument(
        "--reps",
        type=int,
        default=20,
        help=(
            "repetitions per shot count (default: 20); shot counts x reps x "
            f"M(M-1)N(N-1) projectors may total at most {MAX_DRAWS} draws"
        ),
    )
    p_sim.add_argument(
        "--phase-rotation",
        default=None,
        help="JSON file with local unitary factors u_a, u_b (required for mixed input)",
    )
    _add_n2(p_sim)
    _add_seed_and_output(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # StateFileError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
