"""Local unitary transformations and the supremum of gamma over them.

Contains the parameterized 2x2 and 3x3 rotations used by the qubit-qutrit
zeroing construction, a closed-form transformation driving amp[0,0] and
amp[1,2] to zero for 2x3 states, the Schmidt-basis rotation, and a
derivative-free coordinate-ascent maximizer of gamma over U(m) x U(n).
The maximizer runs its restarts in lockstep as one batch: parameters are
(B, m*m) and (B, n*n) arrays, and each probe of a line search is one
batched evaluation of the objective.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .linalg import BipartiteDims, as_complex_matrix, kron, matrices_close
from .measures import (
    CONCURRENCE_MATCHED,
    MeasureConfig,
    _gamma_total_amp,
    _gamma_total_dense,
    gamma_schmidt,
    i_concurrence,
)
from .states import DensityOperator, PureState, haar_unitary, random_pure, schmidt

UNITARY_TOL = 1e-10

#: An optimizer result above the Schmidt benchmark by more than this margin
#: counts as an overshoot (reported, never clipped).
OVERSHOOT_MARGIN = 1e-9


@dataclass(frozen=True)
class LocalUnitary:
    """A pair (u_a, u_b) acting on the joint space as kron(u_a, u_b)."""

    u_a: np.ndarray
    u_b: np.ndarray

    def __post_init__(self) -> None:
        for name, u in (("u_a", self.u_a), ("u_b", self.u_b)):
            mat = as_complex_matrix(u)
            d = mat.shape[0]
            if mat.shape != (d, d):
                raise ValueError(f"{name} must be square, got {mat.shape}")
            if not matrices_close(mat.conj().T @ mat, np.eye(d), tol=UNITARY_TOL):
                raise ValueError(f"{name} is not unitary within {UNITARY_TOL}")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    def joint(self) -> np.ndarray:
        return kron(self.u_a, self.u_b)

    def dagger(self) -> "LocalUnitary":
        return LocalUnitary(self.u_a.conj().T, self.u_b.conj().T)

    def compose(self, other: "LocalUnitary") -> "LocalUnitary":
        """Returns self applied after ``other``."""
        return LocalUnitary(self.u_a @ other.u_a, self.u_b @ other.u_b)


def identity_local(dims: BipartiteDims) -> LocalUnitary:
    return LocalUnitary(np.eye(dims.m, dtype=complex), np.eye(dims.n, dtype=complex))


def random_local_unitary(dims: BipartiteDims, seed) -> LocalUnitary:
    """Independent Haar factors on each subsystem; deterministic given seed."""
    rng = np.random.default_rng(seed)
    return LocalUnitary(haar_unitary(dims.m, rng), haar_unitary(dims.n, rng))


def apply_local(psi: PureState, u: LocalUnitary) -> PureState:
    """Transform amplitudes as u_a @ amp @ u_b.T, so the joint vector
    transforms by kron(u_a, u_b)."""
    if u.u_a.shape[0] != psi.dims.m or u.u_b.shape[0] != psi.dims.n:
        raise ValueError(
            f"local unitary sizes {u.u_a.shape[0]}x{u.u_b.shape[0]} do not "
            f"match dims {psi.dims.label()}"
        )
    return PureState(psi.dims, u.u_a @ psi.amp @ u.u_b.T)


def apply_local_density(rho: DensityOperator, u: LocalUnitary) -> DensityOperator:
    w = u.joint()
    return DensityOperator(rho.dims, w @ rho.mat @ w.conj().T)


def ua_theta_phi(theta: float, phi: float) -> np.ndarray:
    """2x2 rotation [[cos t, i e^(i phi) sin t], [i sin t, e^(i phi) cos t]]."""
    c, s = math.cos(theta), math.sin(theta)
    e = np.exp(1j * phi)
    return np.array([[c, 1j * e * s], [1j * s, e * c]], dtype=complex)


def ub_theta_phi(vartheta: float, varphi: float) -> np.ndarray:
    """3x3 rotation acting on levels 2 and 3, identity on level 1."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    e = np.exp(1j * varphi)
    return np.array(
        [[1, 0, 0], [0, c, 1j * e * s], [0, 1j * s, e * c]], dtype=complex
    )


def zero_a11_a23(psi: PureState) -> tuple[PureState, LocalUnitary]:
    """Rotate a 2x3 state so amp[0,0] and amp[1,2] vanish (closed form).

    Returns the rotated state and the local unitary used.  Always solvable:

    * amp'[0,0] = amp[0,0] cos t + i e^(i phi) sin t amp[1,0].  The two
      terms cancel for t = atan2(|amp00|, |amp10|) with phi aligning the
      phases; if amp[1,0] = 0 then t = pi/2 routes amp00 into the other row,
      and if amp[0,0] = 0 already the identity (t = 0) does.
    * After the A rotation, amp'[1,2] = i sin v * z1 + e^(i psi) cos v * z2
      for two fixed complex numbers z1, z2, and the same cancellation solves
      for (v, psi); degenerate z's again fall back to the free parameter 0.
    """
    if (psi.dims.m, psi.dims.n) != (2, 3):
        raise ValueError(f"zero_a11_a23 requires dims 2x3, got {psi.dims.label()}")
    amp = psi.amp
    a00, a10 = complex(amp[0, 0]), complex(amp[1, 0])

    if abs(a00) == 0.0:
        theta, phi = 0.0, 0.0
    elif abs(a10) == 0.0:
        theta, phi = math.pi / 2.0, 0.0
    else:
        theta = math.atan2(abs(a00), abs(a10))
        # want i e^(i phi) sin t * a10 == -cos t * a00
        phi = math.pi / 2.0 + np.angle(a00) - np.angle(a10)

    u_a = ua_theta_phi(theta, phi)
    mid = u_a @ amp

    # After the A rotation, amp'[1,2] = i sin v * m21 + e^(i psi) cos v * m22
    # where m21, m22 are the (row 2, columns 2 and 3) entries of ``mid``.
    m21, m22 = complex(mid[1, 1]), complex(mid[1, 2])
    if abs(m22) == 0.0:
        vartheta, varphi = 0.0, 0.0
    elif abs(m21) == 0.0:
        vartheta, varphi = math.pi / 2.0, 0.0
    else:
        vartheta = math.atan2(abs(m22), abs(m21))
        # want e^(i psi) cos v * m22 == -i sin v * m21
        varphi = np.angle(m21) - np.angle(m22) - math.pi / 2.0

    u_b = ub_theta_phi(vartheta, varphi)
    u = LocalUnitary(u_a, u_b)
    return apply_local(psi, u), u


def schmidt_rotation(psi: PureState) -> tuple[PureState, LocalUnitary]:
    """Rotate into the Schmidt basis: output amplitudes are diagonal with
    entries sqrt(coefficients), descending."""
    dec = schmidt(psi)
    u = LocalUnitary(dec.basis_a.conj().T, dec.basis_b.T)
    return apply_local(psi, u), u


# --------------------------------------------------------------------------
# Parameterization of U(d): plane rotations plus diagonal phases.


@lru_cache(maxsize=None)
def _level_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(d - 1) for j in range(i + 1, d))


def unitary_from_flat(d: int, x: np.ndarray) -> np.ndarray:
    """Materialize d x d unitaries from d*d real parameters each.

    ``x`` has shape (..., d*d): any leading batch axes carry over to the
    (..., d, d) result, and every unitary of a batch is built by the same
    operations as it would be alone.

    Layout: (theta, phi) per level pair (d*(d-1) values, pair-major), then d
    diagonal phases.  The result is the product of the plane rotations
    applied to the diagonal phase matrix; it is unitary for every parameter
    value, and the chart reaches all of U(d) (triangular elimination by
    complex plane rotations).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != d * d:
        raise ValueError(
            f"expected {d * d} parameters for U({d}), got shape {x.shape}"
        )
    rows = x.reshape(-1, d * d)
    count, pairs = len(rows), _level_pairs(d)
    rot = 2 * len(pairs)
    # Every parameter enters through e^(i x): a rotation angle by its real
    # and imaginary parts (cos, sin), a phase as it is.
    z = np.exp(1j * rows)
    c, s, e = z.real[:, 0:rot:2], z.imag[:, 0:rot:2], z[:, 1:rot:2]
    u = np.zeros((count, d * d), dtype=complex)
    u[:, :: d + 1] = z[:, rot:]
    u = u.reshape(count, d, d)
    # Pair (i, j) maps rows (r_i, r_j) to (c r_i - e s r_j, conj(e) s r_i + c r_j);
    # coef[:, 0] holds each pair's two coefficients of r_i, coef[:, 1] of r_j.
    coef = np.concatenate([c, np.conj(e) * s, -(e * s), c], axis=1)
    coef = coef.reshape(count, 2, 2, len(pairs), 1)
    for idx, (i, j) in enumerate(pairs):
        # the slice i:j+1:j-i selects rows i and j
        u[:, i:j + 1:j - i] = (coef[:, 0, :, idx] * u[:, i, None]
                               + coef[:, 1, :, idx] * u[:, j, None])
    return u.reshape(*x.shape[:-1], d, d)


# --------------------------------------------------------------------------
# Derivative-free maximization of gamma over the local-unitary orbit.


@dataclass(frozen=True)
class OptimizerOptions:
    """Budget for :func:`maximize_gamma`.

    The objective is smooth except for absolute-value kinks where paired
    coefficients tie, so the search is gradient-free: coordinate-wise
    periodic scans refined by golden-section, swept until a full sweep
    improves by at most ``tol``.  All ``restarts`` run in lockstep as one
    batch; each leaves it on its own convergence test or at ``max_sweeps``.
    """

    restarts: int = 8
    max_sweeps: int = 40
    tol: float = 1e-9
    seed: int = 0
    coarse_points: int = 8
    line_tol: float = 1e-6
    include_schmidt: bool = True


@dataclass(frozen=True)
class SupremumReport:
    best_gamma: float
    best_unitary: LocalUnitary
    schmidt_gamma: float | None
    iterations: int
    restarts: int
    converged: bool


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _lockstep_line_max(f1d, x0: np.ndarray, f0: np.ndarray, coarse: int,
                       line_tol: float):
    """Maximize R 2*pi-periodic functions of one variable at once.

    ``f1d`` maps arguments of shape (..., R) to values of the same shape,
    function r taking the arguments in column r; the coarse scan and the
    first two golden probes are one call each.  Per row, a coarse periodic
    scan picks the best cell and golden-section refines it; the incumbent
    (x0, f0) is never abandoned for a worse value.  A bracket shrinks by the
    same factor whichever side it keeps, so the rows take their golden
    steps together, each picking its side from its own two probes.
    Rounding can bring one row's bracket within ``line_tol`` a step before
    another's; such a row is still probed but left as it is.
    """
    best_x, best_f = x0, f0
    step = 2.0 * math.pi / coarse
    cx = x0
    scan = x0 + np.arange(1, coarse)[:, None] * step
    for x, fx in zip(scan, f1d(scan)):
        up = fx > best_f
        best_x, best_f = np.where(up, x, best_x), np.where(up, fx, best_f)
        cx = np.where(up, x, cx)
    a, b = cx - step, cx + step
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f1d(np.stack([c, d]))
    while True:
        live = b - a > line_tol
        if not live.any():
            break
        left = live & (fc > fd)  # keep [a, d]: the old c becomes d
        right = live & ~left  # keep [c, b]: the old d becomes c
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fp = f1d(probe)
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
    for x, fx in ((c, fc), (d, fd)):
        up = fx > best_f
        best_x, best_f = np.where(up, x, best_x), np.where(up, fx, best_f)
    return best_x, best_f


def _lockstep_ascent(objective, starts: np.ndarray, m: int, n: int,
                     opts: OptimizerOptions):
    """Coordinate ascent over the U(m) x U(n) chart, one restart per start.

    ``starts`` stacks the input rotated to each restart's base point.  All
    restarts begin at the identity of the chart and sweep in lockstep; a
    restart leaves the batch once a full sweep improves it by at most
    ``opts.tol``.  ``objective(starts[rows], ua, ub)`` evaluates gamma for a
    batch of candidate pairs, broadcasting leading axes of ``ua`` or ``ub``
    (several probes per row) against the rows.  Returns per-restart arrays
    (value, ua, ub, sweeps, converged).
    """
    count = len(starts)
    xs = [np.zeros((count, m * m)), np.zeros((count, n * n))]
    us = [unitary_from_flat(m, xs[0]), unitary_from_flat(n, xs[1])]
    f = objective(starts, *us)
    sweeps = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for _ in range(opts.max_sweeps):
        if active.size == 0:
            break
        sweeps[active] += 1
        start = starts[active]
        f_act = f[active]
        f_start = f_act
        for side, d in enumerate((m, n)):
            x = xs[side][active]
            pair = [u[active] for u in us]

            def along(t, ci):
                trial = np.empty(t.shape + x.shape[1:])
                trial[...] = x
                trial[..., ci] = t
                pair[side] = unitary_from_flat(d, trial)
                return objective(start, *pair)

            for ci in range(d * d):
                x[:, ci], f_act = _lockstep_line_max(
                    lambda t: along(t, ci), x[:, ci], f_act,
                    opts.coarse_points, opts.line_tol,
                )
            xs[side][active] = x
            us[side][active] = unitary_from_flat(d, x)
        f[active] = f_act
        done = f_act - f_start <= opts.tol
        converged[active[done]] = True
        active = active[~done]
    return f, us[0], us[1], sweeps, converged


def _amp_objective(amp: np.ndarray, ua: np.ndarray, ub: np.ndarray,
                   dims: BipartiteDims, n2: float) -> np.ndarray:
    return _gamma_total_amp(ua @ amp @ ub.swapaxes(-1, -2), dims, n2)


def _dense_objective(mat: np.ndarray, ua: np.ndarray, ub: np.ndarray,
                     dims: BipartiteDims, n2: float) -> np.ndarray:
    # kron(ua, ub) per row, as the broadcast outer product np.kron forms
    w = ua[..., :, None, :, None] * ub[..., None, :, None, :]
    w = w.reshape(*w.shape[:-4], dims.size, dims.size)
    return _gamma_total_dense(w @ mat @ w.conj().swapaxes(-1, -2), dims, n2)


def _restart_batch(state: PureState | DensityOperator, cfg: MeasureConfig,
                   opts: OptimizerOptions):
    """Base points of the restarts, the state rotated to each base point as
    one stacked array, and the batched objective over that array."""
    dims = state.dims
    bases: list[tuple[np.ndarray, np.ndarray]] = [
        (np.eye(dims.m, dtype=complex), np.eye(dims.n, dtype=complex))
    ]
    if isinstance(state, PureState) and opts.include_schmidt and opts.restarts > 1:
        _, rot = schmidt_rotation(state)
        bases.append((rot.u_a, rot.u_b))
    while len(bases) < opts.restarts:
        u = random_local_unitary(dims, [opts.seed, len(bases)])
        bases.append((u.u_a, u.u_b))

    if isinstance(state, PureState):
        start = np.array([ba @ state.amp @ bb.T for ba, bb in bases])
        evaluate = _amp_objective
    else:
        joint = [kron(ba, bb) for ba, bb in bases]
        start = np.array([w @ state.mat @ w.conj().T for w in joint])
        evaluate = _dense_objective
    return bases, start, lambda rotated, ua, ub: evaluate(rotated, ua, ub, dims, cfg.n2)


def maximize_gamma(
    state: PureState | DensityOperator,
    cfg: MeasureConfig = CONCURRENCE_MATCHED,
    opts: OptimizerOptions | None = None,
) -> SupremumReport:
    """Maximize gamma over local unitaries by seeded multi-restart ascent.

    Restart base points are the identity, the Schmidt rotation (pure inputs;
    the analytic supremum candidate is therefore always reachable) and Haar
    random local unitaries; each restart runs coordinate ascent in the
    plane-rotation chart composed with its base point.  The restarts run in
    lockstep as one batch, so each coordinate probe is one array evaluation
    over every restart still sweeping; a restart follows the same path as it
    would alone.  The first restart with the largest value wins.
    Deterministic given ``opts.seed``.  Values above the Schmidt benchmark
    are reported as found, never clipped.
    """
    opts = opts or OptimizerOptions()
    schmidt_val = gamma_schmidt(state, cfg) if isinstance(state, PureState) else None
    bases, start, objective = _restart_batch(state, cfg, opts)
    f, ua, ub, sweeps, converged = _lockstep_ascent(
        objective, start, state.dims.m, state.dims.n, opts
    )
    best = int(np.argmax(f))
    base_a, base_b = bases[best]
    return SupremumReport(
        best_gamma=float(f[best]),
        best_unitary=LocalUnitary(ua[best] @ base_a, ub[best] @ base_b),
        schmidt_gamma=schmidt_val,
        iterations=int(sweeps.sum()),
        restarts=len(bases),
        converged=bool(converged.all()),
    )


# --------------------------------------------------------------------------
# Conjecture harness: does the supremum equal I-concurrence?


@dataclass(frozen=True)
class ConjectureRow:
    dims: str
    trial: int
    i_concurrence: float
    schmidt_gamma: float
    best_gamma: float
    deviation: float
    overshoot: bool
    converged: bool


@dataclass(frozen=True)
class ConjectureSummary:
    dims: str
    trials: int
    max_deviation: float
    overshoots: int


@dataclass(frozen=True)
class ConjectureReport:
    rows: tuple[ConjectureRow, ...]
    summaries: tuple[ConjectureSummary, ...]


#: Defaults for sweep trials: lighter than the standalone maximizer budget
#: because the Schmidt restart already sits at the conjectured optimum.
SWEEP_OPTS = OptimizerOptions(restarts=4, max_sweeps=25)


def _conjecture_trial(dims: BipartiteDims, di: int, trial: int, seed: int,
                      cfg: MeasureConfig, opts: OptimizerOptions) -> ConjectureRow:
    ss = np.random.SeedSequence((seed, di, trial))
    psi = random_pure(dims, ss)
    trial_seed = int(ss.generate_state(1)[0])
    report = maximize_gamma(psi, cfg, replace(opts, seed=trial_seed))
    ic = i_concurrence(psi)
    assert report.schmidt_gamma is not None
    return ConjectureRow(
        dims=dims.label(),
        trial=trial,
        i_concurrence=ic,
        schmidt_gamma=report.schmidt_gamma,
        best_gamma=report.best_gamma,
        deviation=abs(report.best_gamma - ic),
        overshoot=report.best_gamma > report.schmidt_gamma + OVERSHOOT_MARGIN,
        converged=report.converged,
    )


def conjecture_sweep(
    dims_list,
    trials: int,
    seed: int,
    cfg: MeasureConfig = CONCURRENCE_MATCHED,
    opts: OptimizerOptions | None = None,
    threads: int = 1,
) -> ConjectureReport:
    """For random pure states, compare the maximized gamma against
    I-concurrence and against the Schmidt-basis benchmark.

    Per-trial seeds are fixed up front, so results are deterministic for any
    thread count.
    """
    opts = opts or SWEEP_OPTS
    tasks = [
        (BipartiteDims.parse(d) if isinstance(d, str) else d, di, t)
        for di, d in enumerate(dims_list)
        for t in range(trials)
    ]
    if threads > 1 and tasks:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(
                pool.map(
                    lambda a: _conjecture_trial(a[0], a[1], a[2], seed, cfg, opts),
                    tasks,
                )
            )
    else:
        rows = [_conjecture_trial(d, di, t, seed, cfg, opts) for d, di, t in tasks]

    summaries = []
    for d in dims_list:
        label = d if isinstance(d, str) else d.label()
        group = [r for r in rows if r.dims == label]
        summaries.append(
            ConjectureSummary(
                dims=label,
                trials=len(group),
                max_deviation=max((r.deviation for r in group), default=0.0),
                overshoots=sum(r.overshoot for r in group),
            )
        )
    return ConjectureReport(rows=tuple(rows), summaries=tuple(summaries))
