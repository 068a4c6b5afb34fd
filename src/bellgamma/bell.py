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
as one gather from the density matrix.  Each repetition then seeds its own
generator and makes its own binomial draws, so each repetition adds a
fixed set-up cost; the estimates of all repetitions are one batch.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteDims, coeff_quadruples, pair_index
from .local_unitary import LocalUnitary, apply_local_density
from .measures import PAPER_2X3, MeasureConfig, gamma
from .states import BellState, DensityOperator, PureState, bell_vector, pure_to_density


@dataclass(frozen=True)
class BellFamily:
    """All M(M-1)N(N-1) Bell states of an m x n system: for each k<l and
    each unordered B pair, both pairing orientations and both signs."""

    dims: BipartiteDims
    states: tuple[BellState, ...]


def enumerate_bell(dims: BipartiteDims) -> BellFamily:
    states = []
    for k, l, p, q in coeff_quadruples(dims.m, dims.n):
        for pp, qq in ((p, q), (q, p)):
            for sign in (1, -1):
                states.append(BellState(k, l, pp, qq, sign))
    return BellFamily(dims=dims, states=tuple(states))


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
class CoefficientTarget:
    """One recoverable coefficient position and its projector pair."""

    k: int
    l: int
    p: int
    q: int
    row: int  # 1-based joint indices: coefficient rho[row, col]
    col: int
    plus: BellState
    minus: BellState


@dataclass(frozen=True)
class ReducedPlan:
    """Coefficient positions still needed after the canonical zeroing
    rotation, with the projector list used to measure them."""

    positions: tuple[tuple[int, int], ...]
    projectors: tuple[BellState, ...]
    non_orthogonal_pairs: tuple[tuple[int, int], ...]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class MeasurementPlan:
    dims: BipartiteDims
    targets: tuple[CoefficientTarget, ...]
    reduced: ReducedPlan
    notes: tuple[str, ...] = ()


def _target(dims: BipartiteDims, k: int, l: int, p: int, q: int) -> CoefficientTarget:
    return CoefficientTarget(
        k=k,
        l=l,
        p=p,
        q=q,
        row=pair_index(k, p, dims),
        col=pair_index(l, q, dims),
        plus=BellState(k, l, p, q, 1),
        minus=BellState(k, l, p, q, -1),
    )


def _targets(dims: BipartiteDims) -> tuple[CoefficientTarget, ...]:
    """Both coefficient positions, (kp, lq) then (kq, lp), of every k<l,
    p<q quadruple."""
    return tuple(
        _target(dims, k, l, pp, qq)
        for k, l, p, q in coeff_quadruples(dims.m, dims.n)
        for pp, qq in ((p, q), (q, p))
    )


def _cross_pair_orthogonality(
    projectors: tuple[BellState, ...], dims: BipartiteDims
) -> tuple[tuple[int, int], ...]:
    """Indices (i, j), i < j, of projector pairs that are not mutually
    orthogonal, read off one Gram matrix of all the projector vectors."""
    n_pairs = len(projectors) // 2
    vecs = np.array([bell_vector(b, dims) for b in projectors[: 2 * n_pairs]])
    overlap = np.abs(vecs.conj() @ vecs.T).reshape(n_pairs, 2, n_pairs, 2)
    clash = np.triu(overlap.max(axis=(1, 3)) > 1e-12, k=1)
    return tuple(zip(*(idx.tolist() for idx in np.nonzero(clash))))


def plan_measurement(dims: BipartiteDims) -> MeasurementPlan:
    """Projector pairs for every coefficient position, plus the reduced plan.

    The full target list covers, for every k<l, p<q quadruple, both the
    (kp, lq) and the (kq, lp) coefficient positions; that uses the whole
    Bell family.  The reduced plan keeps one position per quadruple (the
    mirrored orientation, which is the one surviving the qubit-qutrit
    zeroing rotation), so at most M(M-1)N(N-1)/2 projections are needed.
    """
    reduced_positions = []
    reduced_projectors: list[BellState] = []
    reduced_notes: list[str] = []
    if (dims.m, dims.n) == (2, 3):
        # Named-basis convention for the qubit-qutrit reduced plan:
        # (phi1, phi2), (phi5, phi6), (psi5, psi6).  Note the (phi1, phi2)
        # pair addresses coefficient (1, 6), which the zeroing rotation
        # drives to zero; (phi3, phi4) is the pair that measures position
        # (2, 4) directly.
        nb = NAMED_BELL_2X3
        reduced_positions = [(2, 4), (3, 5), (3, 4)]
        reduced_projectors = [
            nb["phi1"], nb["phi2"], nb["phi5"], nb["phi6"], nb["psi5"], nb["psi6"]
        ]
        reduced_notes.append(
            "2x3 reduced plan uses the named-basis projector sextet "
            "(phi1, phi2, phi5, phi6, psi5, psi6); pair (phi1, phi2) "
            "addresses coefficient (1,6), zero after the zeroing rotation, "
            "while (phi3, phi4) is the pair matching position (2,4)."
        )
    else:
        for k, l, p, q in coeff_quadruples(dims.m, dims.n):
            reduced_positions.append((pair_index(k, q, dims), pair_index(l, p, dims)))
            reduced_projectors.append(BellState(k, l, q, p, 1))
            reduced_projectors.append(BellState(k, l, q, p, -1))
        reduced_notes.append(
            "reduced plan keeps the mirrored coefficient position per "
            "quadruple; reaching it presumes the local-unitary freedom that "
            "zeroes the partner positions."
        )

    notes = []
    if (dims.m * dims.n) % 2 == 1:
        notes.append(
            "joint dimension is odd: complete orthonormal Bell bases do not "
            "exist, but the plan never relies on basis completeness."
        )

    return MeasurementPlan(
        dims=dims,
        targets=_targets(dims),
        reduced=ReducedPlan(
            positions=tuple(reduced_positions),
            projectors=tuple(reduced_projectors),
            non_orthogonal_pairs=_cross_pair_orthogonality(
                tuple(reduced_projectors), dims
            ),
            notes=tuple(reduced_notes),
        ),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ShotTerm:
    """Estimated coefficient pair for one quadruple.

    ``coeff_plus``/``coeff_minus`` are the |.| plug-in estimates; the
    standard errors propagate the per-projector binomial errors
    sqrt(P(1-P)/shots).  For a true-zero coefficient the plug-in estimate
    has a positive bias of order 1/sqrt(shots).
    """

    k: int
    l: int
    p: int
    q: int
    coeff_plus: float
    coeff_minus: float
    se_plus: float
    se_minus: float

    @property
    def contribution(self) -> float:
        return (self.coeff_plus - self.coeff_minus) ** 2


@dataclass(frozen=True)
class ShotGammaEstimate:
    terms: tuple[ShotTerm, ...]
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
    # float_power calls libm pow like the scalar ``** 2`` of
    # ShotTerm.contribution; an array's ``** 2`` computes x*x, which differs
    # from it in the last bit for some inputs.  The terms are summed left to
    # right, as the scalar loop does, by a cumulative sum; np.sum's order
    # depends on the layout.
    sq = np.float_power(coeffs[..., 0] - coeffs[..., 1], 2.0)
    return coeffs, np.sqrt(n2 * np.cumsum(sq, axis=1)[:, -1])


#: numpy draws binomial counts with the trial count as a C long.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


def _plan_positions(
    state: PureState | DensityOperator, plan: MeasurementPlan | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 0-based rows and columns of the coefficients ``plan`` targets,
    and per quadruple the target indices of its (k, l, p, q) and (k, l, q, p)
    positions, shape (quadruples, 2).

    The positions of the full target list, in ``_targets`` order, are
    computed from the quadruples; a plan keeps those of its targets, in its
    order, and no plan keeps all of them.  A position the plan does not
    measure gets index -1, which ``_estimate`` points at a zero column:
    absent positions count as zero coefficients.
    """
    dims = state.dims
    k, l, p, q = (np.array(coeff_quadruples(dims.m, dims.n), dtype=np.intp) - 1).T
    rows = np.stack([k * dims.n + p, k * dims.n + q], axis=1).ravel()
    cols = np.stack([l * dims.n + q, l * dims.n + p], axis=1).ravel()
    if plan is None:
        measured = np.arange(len(rows))
    elif plan.dims != dims:
        raise ValueError(
            f"plan dims {plan.dims.label()} do not match state dims {dims.label()}"
        )
    else:
        slot = np.full((dims.size, dims.size), -1, dtype=np.intp)
        slot[rows, cols] = np.arange(len(rows))
        measured = slot[[t.row - 1 for t in plan.targets], [t.col - 1 for t in plan.targets]]
        if (measured < 0).any():
            raise ValueError("plan targets a position outside its quadruples' pairs")
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
    quads = coeff_quadruples(state.dims.m, state.dims.n)
    coeffs, totals = _estimate(hats[np.newaxis], pair_cols, cfg.n2)
    se = np.append(se, 0.0)[pair_cols]

    terms = tuple(
        ShotTerm(
            k=k, l=l, p=p, q=q,
            coeff_plus=c_p, coeff_minus=c_m,
            se_plus=se_p, se_minus=se_m,
        )
        for (k, l, p, q), (c_p, c_m), (se_p, se_m) in zip(
            quads, coeffs[0].tolist(), se.tolist()
        )
    )
    return ShotGammaEstimate(
        terms=terms, n2=cfg.n2, shots=None if exact else shots, total=float(totals[0])
    )


@dataclass(frozen=True)
class ShotErrorRow:
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
    form (see ``_target_probabilities``).  Each rep builds its own generator
    and draws its own counts: rep ``rep`` of shot count ``shots_list[si]``
    draws from ``SeedSequence((seed, si, rep))``, so each row equals the
    ``simulate_shots`` estimate with that seed.  The frequencies of every
    rep of every shot count are then estimated in one batch.
    """
    shots_list = list(shots_list)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    _check_shots(shots_list)
    rows, cols, pair_cols = _plan_positions(state, plan)
    # the probabilities are read in the rotated frame, so gamma is too
    rho = _measured_density(state, phase_rotation)
    truth = gamma(rho, cfg).total
    probs = _target_probabilities(rho.mat, rows, cols, isinstance(state, PureState)).ravel()
    counts = np.stack(
        [
            np.random.default_rng(np.random.SeedSequence((seed, si, rep))).binomial(shots, probs)
            for si, shots in enumerate(shots_list)
            for rep in range(reps)
        ]
    )
    trials = np.repeat(np.array(shots_list, dtype=np.int64), reps)[:, np.newaxis]
    _, totals = _estimate((counts / trials).reshape(len(counts), -1, 2), pair_cols, cfg.n2)
    rows = []
    medians: dict[int, float] = {}
    for shots, gammas in zip(shots_list, totals.reshape(len(shots_list), reps).tolist()):
        errs = [abs(total - truth) for total in gammas]
        rows.extend(
            ShotErrorRow(shots=shots, rep=rep, gamma_hat=total, abs_error=err)
            for rep, (total, err) in enumerate(zip(gammas, errs))
        )
        medians[shots] = statistics.median(errs)
    return tuple(rows), medians
