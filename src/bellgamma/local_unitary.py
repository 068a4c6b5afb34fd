"""Local unitary transformations and the supremum of gamma over them.

Contains the parameterized 2x2 and 3x3 rotations used by the qubit-qutrit
zeroing construction, a closed-form transformation driving amp[0,0] and
amp[1,2] to zero for 2x3 states, the Schmidt-basis rotation, and a
derivative-free coordinate-ascent maximizer of gamma over U(m) x U(n).
The maximizer runs its restarts in lockstep as one batch: parameters are
(B, m*m) and (B, n*n) arrays.  gamma reads paired coefficients, and for
each state kind they are one sesquilinear "paired form" of the local
unitary.  Along one chart coordinate t the moving factor is exactly
A0 + A1 cos t + A2 sin t, so each coefficient is a fixed combination of
1, cos t, sin t, cos^2 t, cos t sin t and sin^2 t: a coordinate line is set
up once from three unitaries, and each probe of its search is one small
product per restart, with no unitary or rotated state built per probe.
A line's search is one scan of a periodic grid followed by a few successive
parabolic-interpolation steps, each step one probe per restart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .linalg import BipartiteDims, as_complex_matrix, kron, matrices_close
from .measures import (
    CONCURRENCE_MATCHED,
    MeasureConfig,
    _gamma_of_pairs,
    _paired_positions,
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
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} entries must be finite")
            if not matrices_close(mat.conj().T @ mat, np.eye(d), tol=UNITARY_TOL):
                raise ValueError(f"{name} is not unitary within {UNITARY_TOL}")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    def joint(self) -> np.ndarray:
        return kron(self.u_a, self.u_b)

    def check_dims(self, dims: BipartiteDims) -> None:
        """Raise ValueError unless u_a acts on M levels and u_b on N.

        ``joint`` alone cannot catch a mismatch: swapped factors still
        make an MN x MN matrix, just not a local unitary on M x N.
        """
        if self.u_a.shape[0] != dims.m or self.u_b.shape[0] != dims.n:
            raise ValueError(
                f"local unitary sizes {self.u_a.shape[0]}x{self.u_b.shape[0]} do not "
                f"match dims {dims.label()}"
            )


def identity_local(dims: BipartiteDims) -> LocalUnitary:
    return LocalUnitary(np.eye(dims.m, dtype=complex), np.eye(dims.n, dtype=complex))


def random_local_unitary(dims: BipartiteDims, seed) -> LocalUnitary:
    """Independent Haar factors on each subsystem; deterministic given seed."""
    rng = np.random.default_rng(seed)
    return LocalUnitary(haar_unitary(dims.m, rng), haar_unitary(dims.n, rng))


def apply_local(psi: PureState, u: LocalUnitary) -> PureState:
    """Transform amplitudes as u_a @ amp @ u_b.T, so the joint vector
    transforms by kron(u_a, u_b)."""
    u.check_dims(psi.dims)
    return PureState(psi.dims, u.u_a @ psi.amp @ u.u_b.T)


def apply_local_density(rho: DensityOperator, u: LocalUnitary) -> DensityOperator:
    u.check_dims(rho.dims)
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
    coefficients tie, so the search is gradient-free: coordinate-wise line
    maximization, swept until a full sweep improves by at most ``tol``.
    Along one chart coordinate t every paired coefficient is a fixed
    combination of 1, cos t, sin t, cos^2 t, cos t sin t and sin^2 t, so
    each line is set up once and every probe evaluates that trigonometric
    form.  A line is scanned on a uniform periodic grid of ``coarse_points``
    points (at least 3), one of them the current value, and its best cell
    refined by a few successive parabolic-interpolation steps.  All ``restarts`` run in
    lockstep as one batch; each leaves it on its own convergence test or at
    ``max_sweeps``.
    """

    restarts: int = 8
    max_sweeps: int = 40
    tol: float = 1e-9
    seed: int = 0
    coarse_points: int = 32
    include_schmidt: bool = True

    def __post_init__(self) -> None:
        # a grid point and its two periodic neighbours must be distinct
        if self.coarse_points < 3:
            raise ValueError(f"coarse_points must be >= 3, got {self.coarse_points}")


@dataclass(frozen=True)
class SupremumReport:
    best_gamma: float
    best_unitary: LocalUnitary
    schmidt_gamma: float | None
    iterations: int
    restarts: int
    converged: bool


#: Successive parabolic-interpolation steps that follow a line's grid scan.
_PARABOLIC_STEPS = 3


def _lockstep_line_max(f1d, x0: np.ndarray, f0: np.ndarray, points: int):
    """Maximize R 2*pi-periodic functions of one variable at once.

    ``f1d`` maps arguments of shape (..., R) to values of the same shape,
    function r taking the arguments in column r.  One call scans a uniform
    periodic grid of ``points`` points per row, whose point 0 is the
    incumbent (x0, f0); the best grid point and its two periodic neighbours
    bracket the peak.  Each of ``_PARABOLIC_STEPS`` successive parabolic
    interpolation steps (Brent 1973) then probes, in one call, the vertex of
    the parabola through each row's bracket.  A vertex outside its bracket
    is discarded.  A vertex that beats the middle point becomes the middle,
    and the old middle the bracket end on the far side; one that does not
    becomes the end on its own side.  The middle only ever moves to a larger
    value, so the incumbent is never abandoned for a worse one.  Every step
    is elementwise, so each row ends where it would end alone.
    """
    offsets = 2.0 * math.pi * np.fft.fftfreq(points)
    values = np.concatenate([f0[None], f1d(x0 + offsets[1:, None])])
    best = values.argmax(axis=0)
    rows = np.arange(len(x0))
    x, fx = x0 + offsets[best], values[best, rows]
    # bracket ends as offsets from x, with their values
    lo, hi = np.full_like(x, -offsets[1]), np.full_like(x, offsets[1])
    f_lo, f_hi = values[best - 1, rows], values[(best + 1) % points, rows]
    for _ in range(_PARABOLIC_STEPS):
        g_lo, g_hi = fx - f_lo, fx - f_hi
        num = 0.5 * (lo * lo * g_hi - hi * hi * g_lo)
        den = lo * g_hi - hi * g_lo
        # num / den strictly inside (lo, hi); false as well when den >= 0,
        # where the parabola has no maximum, and when a value is NaN
        inside = (num < lo * den) & (num > hi * den)
        step = np.divide(num, den, out=np.zeros_like(num), where=inside)
        f_step = f1d(x + step)
        moved = inside & (f_step > fx)
        left = step < 0.0
        # Of lo < min(step, 0) < max(step, 0) < hi the better inner point is
        # the new middle, so exactly one end moves.
        at_lo, at_hi = inside & (left != moved), inside & (left == moved)
        lo = np.where(at_lo, np.minimum(step, 0.0), lo)
        hi = np.where(at_hi, np.maximum(step, 0.0), hi)
        f_lo = np.where(at_lo, np.where(left, f_step, fx), f_lo)
        f_hi = np.where(at_hi, np.where(left, fx, f_step), f_hi)
        shift = np.where(moved, step, 0.0)
        x, fx = x + shift, np.where(moved, f_step, fx)
        lo, hi = lo - shift, hi - shift
    return x, fx


# Paired forms.  gamma reads 2Q paired coefficients (Q quadruples, plus and
# minus).  For a state rotated by the local unitary (ua, ub) each is a value
# of a form that is linear in a first copy of the unitary and conjugate-linear
# in a second: form(start, xa, xb, ya, yb) with (xa, xb) = (ya, yb) = (ua, ub).
# Every product below is a broadcast multiply-and-sum over the last axis, so
# a row's value does not depend on the batch it is computed in.


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over broadcast leading axes, summed along a contiguous last axis."""
    return (x[..., :, None, :] * y.swapaxes(-1, -2)[..., None, :, :]).sum(axis=-1)


def _amp_form(amp: np.ndarray, xa, xb, ya, yb, dims: BipartiteDims) -> np.ndarray:
    """amp_x[left] * conj(amp_y[right]) with amp_x = xa @ amp @ xb.T and
    amp_y = ya @ amp @ yb.T, over the flattened (m, n) amplitudes."""
    left, right = _paired_positions(dims.m, dims.n)

    def rotate(ua, ub):
        out = _matmul(_matmul(ua, amp), ub.swapaxes(-1, -2))
        return out.reshape(*out.shape[:-2], dims.size)

    return rotate(xa, xb).take(left, axis=-1) * rotate(ya, yb).take(right, axis=-1).conj()


def _dense_form(mat: np.ndarray, xa, xb, ya, yb, dims: BipartiteDims) -> np.ndarray:
    """(W_x mat W_y^H)[left, right] with W = kron(a, b) per row; only the
    needed rows of each kron are formed."""
    left, right = _paired_positions(dims.m, dims.n)

    def kron_rows(ua, ub, rows):
        w = (ua.take(rows // dims.n, axis=-2)[..., None]
             * ub.take(rows % dims.n, axis=-2)[..., None, :])
        return w.reshape(*w.shape[:-2], dims.size)

    return (_matmul(kron_rows(xa, xb, left), mat)
            * kron_rows(ya, yb, right).conj()).sum(axis=-1)


def _form_gamma(form, start: np.ndarray, ua: np.ndarray, ub: np.ndarray,
                n2: float) -> np.ndarray:
    """The objective: gamma of each row of ``start`` rotated by (ua, ub)."""
    return _gamma_of_pairs(form(start, ua, ub, ua, ub), n2)


#: Chart-coordinate values at which U(t) = A0 + A1 cos t + A2 sin t is read.
_ANCHOR_ANGLES = np.array([0.0, math.pi / 2.0, math.pi])


def _coordinate_line(form, start: np.ndarray, pair: list, side: int,
                     x: np.ndarray, ci: int, n2: float):
    """Gamma along chart coordinate ``ci`` of factor ``side`` (0 for u_a,
    1 for u_b), as a function of that coordinate for every row of ``start``.

    ``pair`` holds the current (ua, ub) and ``x`` the chart parameters of
    factor ``side``.  Each parameter enters ``unitary_from_flat`` once,
    through e^(it), so the factor is U(t) = A0 + A1 cos t + A2 sin t,
    read off U at 0, pi/2 and pi.  The paired form is linear in U and
    conjugate-linear in U again, so every coefficient is the fixed
    combination sum_jk form(A_j, A_k) g_j g_k with g = (1, cos t, sin t).
    The returned function maps probes of shape (..., R) to gamma with one
    (..., 5) @ (5, 2Q) product per row.
    """
    d = pair[side].shape[-1]
    trial = np.repeat(x[None], 3, axis=0)
    trial[..., ci] = _ANCHOR_ANGLES[:, None]
    u0, u90, u180 = unitary_from_flat(d, trial)
    a0 = (u0 + u180) / 2.0
    anchors = np.stack([a0, (u0 - u180) / 2.0, u90 - a0])
    first, second = list(pair), list(pair)
    first[side], second[side] = anchors[:, None], anchors[None]
    g = form(start, *first, *second)  # g[j, k] = form(A_j, A_k), (3, 3, R, 2Q)
    constant = g[0, 0]
    # cos t, sin t, cos^2 t, cos t sin t, sin^2 t; the complex coefficients
    # are read as interleaved (real, imag) pairs, so the product is real.
    coef = np.stack([g[0, 1] + g[1, 0], g[0, 2] + g[2, 0], g[1, 1],
                     g[1, 2] + g[2, 1], g[2, 2]], axis=-2).view(float)

    def along(t: np.ndarray) -> np.ndarray:
        basis = np.empty(t.shape + (1, 5))
        c, s = basis[..., 0, 0], basis[..., 0, 1]
        np.cos(t, out=c)
        np.sin(t, out=s)
        np.multiply(c, c, out=basis[..., 0, 2])
        np.multiply(c, s, out=basis[..., 0, 3])
        np.multiply(s, s, out=basis[..., 0, 4])
        pairs = (basis @ coef).view(complex)[..., 0, :] + constant
        return _gamma_of_pairs(pairs, n2)

    return along


def _lockstep_ascent(form, starts: np.ndarray, m: int, n: int, n2: float,
                     opts: OptimizerOptions):
    """Coordinate ascent over the U(m) x U(n) chart, one restart per start.

    ``starts`` stacks the input rotated to each restart's base point, and
    ``form`` is its paired form (see ``_amp_form``).  All restarts begin at
    the identity of the chart and sweep in lockstep.  Each coordinate line
    is set up once from three unitaries per row (``_coordinate_line``) and
    maximized by ``_lockstep_line_max``: a periodic grid scan and a few
    parabolic steps, every probe evaluated from that trigonometric form, so
    no probe builds a unitary or a rotated state.  A sweep's value is the
    objective itself at the unitaries the sweep ends with; a restart leaves
    the batch once a full sweep improves that value by at most
    ``opts.tol``.  Returns per-restart arrays (value, ua, ub, sweeps,
    converged).
    """
    count = len(starts)
    xs = [np.zeros((count, m * m)), np.zeros((count, n * n))]
    us = [unitary_from_flat(m, xs[0]), unitary_from_flat(n, xs[1])]
    f = _form_gamma(form, starts, *us, n2)
    sweeps = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for _ in range(opts.max_sweeps):
        if active.size == 0:
            break
        sweeps[active] += 1
        start = starts[active]
        f_start = f[active]
        f_act = f_start
        pair = [u[active] for u in us]
        for side, d in enumerate((m, n)):
            x = xs[side][active]
            for ci in range(d * d):
                line = _coordinate_line(form, start, pair, side, x, ci, n2)
                x[:, ci], f_act = _lockstep_line_max(
                    line, x[:, ci], f_act, opts.coarse_points
                )
            pair[side] = unitary_from_flat(d, x)
            xs[side][active] = x
            us[side][active] = pair[side]
        f_act = _form_gamma(form, start, *pair, n2)
        f[active] = f_act
        done = f_act - f_start <= opts.tol
        converged[active[done]] = True
        active = active[~done]
    return f, us[0], us[1], sweeps, converged


def _restart_batch(state: PureState | DensityOperator, opts: OptimizerOptions):
    """Base points of the restarts, the state rotated to each base point as
    one stacked array, and the paired form over that array."""
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
        form = _amp_form
    else:
        joint = [kron(ba, bb) for ba, bb in bases]
        start = np.array([w @ state.mat @ w.conj().T for w in joint])
        form = _dense_form
    return bases, start, partial(form, dims=dims)


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
    bases, start, form = _restart_batch(state, opts)
    f, ua, ub, sweeps, converged = _lockstep_ascent(
        form, start, state.dims.m, state.dims.n, cfg.n2, opts
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
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    opts = opts or SWEEP_OPTS
    tasks = [
        (BipartiteDims.parse(d) if isinstance(d, str) else d, di, t)
        for di, d in enumerate(dims_list)
        for t in range(trials)
    ]
    if threads > 1 and tasks:
        # Imported here: only a threaded sweep needs the pool, and loading
        # it costs every other CLI call about 0.6 MB of resident memory.
        from concurrent.futures import ThreadPoolExecutor

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
