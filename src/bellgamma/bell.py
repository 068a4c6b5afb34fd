"""Bell-state enumeration, coefficient recovery from Bell projections,
measurement planning and finite-shot simulation.

The off-diagonal coefficient rho[r, c], r = (k-1)n+p and c = (l-1)n+q, is
addressed by the projector pair (|kp> +- |lq>)/sqrt(2), whose outcome
probabilities are (rho[r, r] + rho[c, c])/2 +- Re rho[r, c]: half their
difference equals the coefficient's real part.  Only real parts are
recoverable this way, so gamma estimation presumes the state has been
locally phase-rotated to make each targeted coefficient real.  For pure
input the simulator applies that rotation per target (a phase on A level
k, read off the amplitudes), which turns Re rho[r, c] into |rho[r, c]|;
mixed input needs a rotation from the caller.  The exact outcome
probabilities of all targets are computed once per state, in closed form
as one gather from the density matrix.  Each shot count ``shots`` draws
from its own stream, ``SeedSequence((seed, shots))``, one binomial call for
all its repetitions, rep ``rep`` being the stream's (rep + 1)-th draw; so a
count's rows do not depend on which other counts are run, or in what order,
and fewer repetitions give a prefix of the rows of more.  The estimates of
all repetitions are one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import BipartiteDims, coeff_quadruples
from .local_unitary import LocalUnitary, apply_local_density
from .measures import PAPER_2X3, MeasureConfig, gamma
from .states import BellState, DensityOperator, PureState, bell_vector, pure_to_density


def enumerate_bell(dims: BipartiteDims) -> tuple[BellState, ...]:
    """All M(M-1)N(N-1) Bell states of an m x n system: for each k<l and
    each unordered B pair, both pairing orientations and both signs."""
    return tuple(
        BellState(k, l, pp, qq, sign)
        for k, l, p, q in coeff_quadruples(dims.m, dims.n)
        for pp, qq in ((p, q), (q, p))
        for sign in (1, -1)
    )


def _named(entries) -> dict[str, BellState]:
    return {name: BellState(*args) for name, args in entries}


#: The two complete Bell bases of the qubit-qutrit system, by conventional
#: name.  psi1 = (|11>+|22>)/sqrt(2), phi1 = (|11>+|23>)/sqrt(2), etc.; the
#: bases map onto each other under a permutation of the B levels.
NAMED_BELL_2X3 = _named(
    [
        ("psi1", (1, 2, 1, 2, 1)),
        ("psi2", (1, 2, 1, 2, -1)),
        ("psi3", (1, 2, 2, 3, 1)),
        ("psi4", (1, 2, 2, 3, -1)),
        ("psi5", (1, 2, 3, 1, 1)),
        ("psi6", (1, 2, 3, 1, -1)),
        ("phi1", (1, 2, 1, 3, 1)),
        ("phi2", (1, 2, 1, 3, -1)),
        ("phi3", (1, 2, 2, 1, 1)),
        ("phi4", (1, 2, 2, 1, -1)),
        ("phi5", (1, 2, 3, 2, 1)),
        ("phi6", (1, 2, 3, 2, -1)),
    ]
)

#: The four Bell states of two qubits: psi_pm = (|11> +- |22>)/sqrt(2),
#: phi_pm = (|12> +- |21>)/sqrt(2).
NAMED_BELL_2X2 = _named(
    [
        ("psi+", (1, 2, 1, 2, 1)),
        ("psi-", (1, 2, 1, 2, -1)),
        ("phi+", (1, 2, 2, 1, 1)),
        ("phi-", (1, 2, 2, 1, -1)),
    ]
)


def project(rho: DensityOperator, b: BellState) -> float:
    """Outcome probability <b|rho|b> (real, in [0, 1] within tolerance)."""
    return _project_mat(rho.mat, b, rho.dims)


def _project_mat(mat: np.ndarray, b: BellState, dims: BipartiteDims) -> float:
    v = bell_vector(b, dims)
    return float(np.real(v.conj() @ mat @ v))


def recover_coefficient(rho: DensityOperator, k: int, l: int, p: int, q: int) -> float:
    """Half the probability difference of the +- pair for (k, l, p, q);
    equals Re(rho[(k-1)n+p, (l-1)n+q]).

    The imaginary part is invisible to the fixed pair; recovering a complex
    coefficient's modulus needs a local phase rotation first.
    """
    p_plus = project(rho, BellState(k, l, p, q, 1))
    p_minus = project(rho, BellState(k, l, p, q, -1))
    return (p_plus - p_minus) / 2.0


@dataclass(frozen=True)
class ReducedPlan:
    """Coefficient positions still needed after the canonical zeroing
    rotation, with the projector list used to measure them."""

    positions: tuple[tuple[int, int], ...]
    projectors: tuple[BellState, ...]


@dataclass(frozen=True)
class MeasurementPlan:
    """The coefficient positions the Bell route measures, and the reduced plan.

    ``targets`` are 1-based (row, col) positions of coefficients rho[row, col].
    Position (row, col) is measured by the projector pair
    ``BellState(k, l, p, q, +1)`` and ``BellState(k, l, p, q, -1)``, where
    ``(k, p) = level_pair(row, dims)`` and ``(l, q) = level_pair(col, dims)``.
    """

    dims: BipartiteDims
    targets: tuple[tuple[int, int], ...]
    reduced: ReducedPlan


def _positions(dims: BipartiteDims) -> tuple[np.ndarray, np.ndarray]:
    """0-based rows and columns of both coefficient positions, (kp, lq) then
    (kq, lp), of every k<l, p<q quadruple, in ``coeff_quadruples`` order."""
    k, l, p, q = (np.array(coeff_quadruples(dims.m, dims.n), dtype=np.intp) - 1).T
    rows = np.stack([k * dims.n + p, k * dims.n + q], axis=1).ravel()
    cols = np.stack([l * dims.n + q, l * dims.n + p], axis=1).ravel()
    return rows, cols


def plan_measurement(dims: BipartiteDims) -> MeasurementPlan:
    """Every coefficient position of the Bell route, plus the reduced plan.

    The targets are, for every k<l, p<q quadruple, both the (kp, lq) and the
    (kq, lp) coefficient positions; their projector pairs make up the whole
    Bell family.  The reduced plan keeps one position per quadruple (the
    mirrored orientation, which is the one surviving the qubit-qutrit
    zeroing rotation), so at most M(M-1)N(N-1)/2 projections are needed.
    Reaching it presumes the local-unitary freedom that zeroes the partner
    positions.

    At 2x3 the reduced plan follows the named-basis convention: the
    projector sextet (phi1, phi2), (phi5, phi6), (psi5, psi6).  The pair
    (phi1, phi2) addresses coefficient (1, 6), which the zeroing rotation
    drives to zero; (phi3, phi4) is the pair that measures position (2, 4)
    directly.  The (psi5, psi6) pair is not orthogonal to (phi5, phi6).

    When the joint dimension MN is odd, complete orthonormal Bell bases do
    not exist, but the plan never relies on basis completeness.
    """
    rows, cols = _positions(dims)
    targets = tuple(zip((rows + 1).tolist(), (cols + 1).tolist()))
    if (dims.m, dims.n) == (2, 3):
        reduced = ReducedPlan(
            positions=((2, 4), (3, 5), (3, 4)),
            projectors=tuple(
                NAMED_BELL_2X3[name]
                for name in ("phi1", "phi2", "phi5", "phi6", "psi5", "psi6")
            ),
        )
    else:
        reduced = ReducedPlan(
            positions=targets[1::2],
            projectors=tuple(
                BellState(k, l, q, p, sign)
                for k, l, p, q in coeff_quadruples(dims.m, dims.n)
                for sign in (1, -1)
            ),
        )
    return MeasurementPlan(dims=dims, targets=targets, reduced=reduced)


@dataclass(frozen=True)
class ShotGammaEstimate:
    """Gamma estimated from Bell projections, with its per-quadruple terms.

    ``terms[i]`` is the pair of |.| plug-in estimates of the plus and minus
    coefficients of the i-th quadruple of ``linalg.coeff_quadruples``, and
    ``se[i]`` their standard errors, which propagate the per-projector
    binomial errors sqrt(P(1-P)/shots).  For a true-zero coefficient the
    plug-in estimate has a positive bias of order 1/sqrt(shots).
    """

    terms: tuple[tuple[float, float], ...]
    se: tuple[tuple[float, float], ...]
    n2: float
    shots: int | None
    total: float


def _measured_density(
    state: PureState | DensityOperator, phase_rotation: LocalUnitary | None
) -> DensityOperator:
    """The density matrix the projections measure: the input, rotated by
    ``phase_rotation`` when one is given.  Mixed input must come with one."""
    if isinstance(state, PureState):
        rho = pure_to_density(state)
    elif phase_rotation is None:
        raise ValueError(
            "mixed-state simulation requires an explicit phase rotation "
            "making the targeted coefficients real"
        )
    else:
        rho = state
    return rho if phase_rotation is None else apply_local_density(rho, phase_rotation)


def _target_probabilities(
    mat: np.ndarray, rows: np.ndarray, cols: np.ndarray, aligned: bool
) -> np.ndarray:
    """Exact outcome probabilities, clipped to [0, 1], as a (targets, 2)
    array: column 0 for each target's plus projector, column 1 for its
    minus projector.  Target i addresses rho[rows[i], cols[i]] (0-based,
    see ``_plan_positions``).

    The projector pair (|kp> +- |lq>)/sqrt(2) of the coefficient rho[r, c]
    has outcome probabilities (rho[r, r] + rho[c, c])/2 +- Re rho[r, c], so
    every target is one gather from the measured density matrix ``mat``
    (see ``_measured_density``).  Pure input is phase-aligned per target
    (``aligned``): a diagonal phase on A level k makes rho[r, c] real and
    non-negative and leaves the diagonal alone, so the aligned probabilities
    use |rho[r, c]|.  Mixed input uses Re rho[r, c] of the rotated matrix.
    """
    diag = mat.diagonal().real
    mid = (diag[rows] + diag[cols]) / 2.0
    coeff = mat[rows, cols]
    off = np.abs(coeff) if aligned else coeff.real
    return np.clip(np.stack([mid + off, mid - off], axis=1), 0.0, 1.0)


def _estimate(
    hats: np.ndarray, cols: np.ndarray, n2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gamma from sampled outcome frequencies, one rep per leading row.

    ``hats`` has shape (reps, targets, 2); ``cols`` comes from
    ``_plan_positions``.  Returns the |coefficient| estimates, shape
    (reps, quadruples, 2), and each rep's gamma, shape (reps,).
    """
    est = (hats[..., 0] - hats[..., 1]) / 2.0
    est = np.concatenate([est, np.zeros((len(est), 1))], axis=1)
    coeffs = np.abs(est[:, cols])
    # float_power calls libm pow like a scalar ``(plus - minus) ** 2`` sum
    # over Python floats; an array's ``** 2`` computes x*x, which differs
    # from it in the last bit for some inputs.  The terms are summed left to
    # right, as the scalar loop does, by a cumulative sum; np.sum's order
    # depends on the layout.
    sq = np.float_power(coeffs[..., 0] - coeffs[..., 1], 2.0)
    return coeffs, np.sqrt(n2 * np.cumsum(sq, axis=1)[:, -1])


#: numpy draws binomial counts with the trial count as a C long.
_MAX_SHOTS = int(np.iinfo(np.int64).max)

#: Largest shot-error table, in draws (shot counts x reps x projectors).
#: At its peak a table holds 20 (4x4) to 70 (2x2, where the per-rep rows
#: dominate) bytes per draw, so the cap keeps one under about 70 MB.
MAX_DRAWS = 10**6


def _plan_positions(
    state: PureState | DensityOperator, plan: MeasurementPlan | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 0-based rows and columns of the coefficients ``plan`` targets,
    and per quadruple the target indices of its (k, l, p, q) and (k, l, q, p)
    positions, shape (quadruples, 2).

    A plan keeps the ``_positions`` it targets, in its order, and no plan
    keeps all of them.  A position the plan does not measure gets index -1,
    which ``_estimate`` points at a zero column: absent positions count as
    zero coefficients.  A plan position that is not a pair of integers in
    1..MN, lies off the quadruples' positions or is listed twice is refused.
    """
    dims = state.dims
    rows, cols = _positions(dims)
    if plan is None:
        measured = np.arange(len(rows))
    elif plan.dims != dims:
        raise ValueError(
            f"plan dims {plan.dims.label()} do not match state dims {dims.label()}"
        )
    else:
        targets = np.array(plan.targets).reshape(len(plan.targets), 2)
        if len(targets) and targets.dtype.kind not in "iu":
            raise ValueError(f"plan positions must be integers, got {targets.dtype}")
        targets = targets.astype(np.intp) - 1
        if ((targets < 0) | (targets >= dims.size)).any():
            raise ValueError(f"plan targets a position outside 1..{dims.size}")
        slot = np.full((dims.size, dims.size), -1, dtype=np.intp)
        slot[rows, cols] = np.arange(len(rows))
        measured = slot[targets[:, 0], targets[:, 1]]
        if (measured < 0).any():
            raise ValueError("plan targets a position outside its quadruples' pairs")
        if len(np.unique(measured)) < len(measured):
            raise ValueError("plan targets a position twice")
    pair_cols = np.full(len(rows), -1, dtype=np.intp)
    pair_cols[measured] = np.arange(len(measured))
    return rows[measured], cols[measured], pair_cols.reshape(-1, 2)


def _check_shots(shots_list) -> None:
    if any(shots is None or shots < 1 for shots in shots_list):
        raise ValueError(f"shots must be >= 1, got {shots_list}")
    if any(shots > _MAX_SHOTS for shots in shots_list):
        raise ValueError(
            f"shots must be at most {_MAX_SHOTS}, the largest count numpy "
            f"can draw, got {shots_list}"
        )


def simulate_shots(
    state: PureState | DensityOperator,
    plan: MeasurementPlan | None = None,
    shots: int | None = None,
    seed: int | np.random.SeedSequence = 0,
    phase_rotation: LocalUnitary | None = None,
    cfg: MeasureConfig = PAPER_2X3,
    exact: bool = False,
) -> ShotGammaEstimate:
    """Estimate gamma from binomially sampled Bell projections.

    Each projector is measured separately (projector pairs from different
    bases are not co-measurable anyway): a binomial count over ``shots``
    trials at the true outcome probability.  Coefficient positions absent
    from the plan count as zero, which is what a reduced plan asserts about
    the zeroed positions.  With ``exact=True`` the true probabilities are
    used unsampled (the infinite-shot limit).  Deterministic given ``seed``.
    """
    rows, cols, pair_cols = _plan_positions(state, plan)
    if not exact:
        _check_shots([shots])

    probs = _target_probabilities(
        _measured_density(state, phase_rotation).mat, rows, cols, isinstance(state, PureState)
    )
    if exact:
        hats = probs
        se = np.zeros(len(probs))
    else:
        counts = np.random.default_rng(seed).binomial(shots, probs.ravel())
        hats = counts.reshape(probs.shape) / shots
        var = hats * (1.0 - hats) / shots
        se = 0.5 * np.sqrt(var[:, 0] + var[:, 1])
    coeffs, totals = _estimate(hats[np.newaxis], pair_cols, cfg.n2)
    return ShotGammaEstimate(
        terms=tuple(map(tuple, coeffs[0].tolist())),
        se=tuple(map(tuple, np.append(se, 0.0)[pair_cols].tolist())),
        n2=cfg.n2,
        shots=None if exact else shots,
        total=float(totals[0]),
    )


class ShotErrorRow(NamedTuple):
    """One rep of the shot-noise table; the fields are its columns, in order."""

    shots: int
    rep: int
    gamma_hat: float
    abs_error: float


def shot_error_table(
    state: PureState | DensityOperator,
    shots_list,
    reps: int,
    seed: int,
    cfg: MeasureConfig = PAPER_2X3,
    plan: MeasurementPlan | None = None,
    phase_rotation: LocalUnitary | None = None,
) -> tuple[tuple[ShotErrorRow, ...], dict[int, float]]:
    """Repeated simulations against the exact gamma, plus the per-shot-count
    median absolute error (the 1/sqrt(shots) convergence summary).

    The exact gamma is that of the state the projections measure: the input
    rotated by ``phase_rotation`` when one is given.

    The exact outcome probabilities are computed once per state, in closed
    form (see ``_target_probabilities``).  Each shot count ``shots`` has its
    own stream, ``default_rng(SeedSequence((seed, shots)))``, and all its
    reps are one ``binomial`` call on it: rep ``rep`` is the (rep + 1)-th
    draw of the probability vector, so rep 0 equals the ``simulate_shots``
    estimate with seed ``SeedSequence((seed, shots))``.  A count's rows
    therefore do not depend on the other counts of the call or their order,
    and the rows of fewer reps are a prefix of those of more.  The
    frequencies of every rep of every shot count are estimated in one batch.

    Each row is built once, as a ``ShotErrorRow`` tuple in column order,
    ready to be written as it is.

    The medians are keyed by shot count, so a repeated count is refused, and
    so is a table of more than ``MAX_DRAWS`` draws (shot counts x reps x
    projectors), before anything is allocated.
    """
    shots_list = list(shots_list)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    _check_shots(shots_list)
    if len(set(shots_list)) != len(shots_list):
        raise ValueError(f"shot counts must be distinct, got {shots_list}")
    rows, cols, pair_cols = _plan_positions(state, plan)
    draws = len(shots_list) * reps * 2 * len(rows)
    if draws > MAX_DRAWS:
        raise ValueError(
            f"table too large: {len(shots_list)} shot counts x {reps} reps x "
            f"{2 * len(rows)} projectors is {draws} draws, at most {MAX_DRAWS}"
        )
    # the probabilities are read in the rotated frame, so gamma is too
    rho = _measured_density(state, phase_rotation)
    truth = gamma(rho, cfg).total
    probs = _target_probabilities(rho.mat, rows, cols, isinstance(state, PureState)).ravel()
    hats = np.empty((len(shots_list), reps, len(probs)))
    for freqs, shots in zip(hats, shots_list):
        draw = np.random.default_rng(np.random.SeedSequence((seed, shots))).binomial
        np.divide(draw(shots, probs, size=freqs.shape), shots, out=freqs)
    _, totals = _estimate(hats.reshape(len(shots_list) * reps, -1, 2), pair_cols, cfg.n2)
    gammas = totals.reshape(len(shots_list), reps)
    errs = np.abs(gammas - truth)
    rows = []
    for shots, count_gammas, count_errs in zip(shots_list, gammas.tolist(), errs.tolist()):
        rows.extend(map(ShotErrorRow, [shots] * reps, range(reps), count_gammas, count_errs))
    return tuple(rows), dict(zip(shots_list, np.median(errs, axis=1).tolist()))
