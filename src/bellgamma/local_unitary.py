"""Local unitary transformations and the supremum of gamma over them.

Contains the parameterized 2x2 and 3x3 rotations used by the qubit-qutrit
zeroing construction, a closed-form transformation driving amp[0,0] and
amp[1,2] to zero for 2x3 states, the Schmidt-basis rotation, and a
derivative-free coordinate-ascent maximizer of gamma over U(m) x U(n).
The maximizer has one objective, gamma of a density matrix; a pure input
is searched on its projector |psi><psi|.  It runs its restarts in lockstep
as one batch.  gamma reads paired coefficients, which are one sesquilinear
"paired form" of the local unitary.  A line of the search moves one factor
along a one-parameter subgroup exp(tX), X = E_ab - E_ba or i(E_ab + E_ba)
for a level pair a<b, applied to the restart's current rotated state.
exp(tX) = A0 + A1 cos t + A2 sin t with constant anchors, so each
coefficient is a fixed combination of 1, cos t, sin t, cos^2 t, cos t sin t
and sin^2 t.  Those coefficients are a gather: every anchor has at most one
nonzero per row, so each coefficient is at most two entries of the rotated
state times constants 0, +-1 or +-i, added, read by one fancy index.  Each
probe of the line's search is one small product per restart, with no
unitary or rotated state built per probe.  A line's search is one scan of a
periodic grid, whose trigonometric basis is built once, followed by a few
successive parabolic-interpolation steps, each step one probe for all
restarts and bracket bookkeeping restart by restart.  The accepted step
rotates the state on the moved factor's axes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import BipartiteDims, as_complex_matrix, kron, level_pairs
from .measures import (
    CONCURRENCE_MATCHED,
    MeasureConfig,
    _gamma_of_pairs,
    _paired_coefficients,
    _paired_positions,
    gamma_schmidt,
    i_concurrence,
)
from .states import (
    DensityOperator,
    PureState,
    _haar_from_gaussian,
    pure_to_density,
    random_pure,
    schmidt,
)

UNITARY_TOL = 1e-10

#: An optimizer result above the Schmidt benchmark by more than this margin
#: counts as an overshoot (reported, never clipped).
OVERSHOOT_MARGIN = 1e-9


def _check_unitary(name: str, u: np.ndarray) -> None:
    """Raise ValueError unless every (d, d) matrix of ``u`` is finite and
    unitary within ``UNITARY_TOL``."""
    if not np.isfinite(u).all():
        raise ValueError(f"{name} entries must be finite")
    gram = u.conj().swapaxes(-1, -2) @ u
    if not np.max(np.abs(gram - np.eye(u.shape[-1])), initial=0.0) <= UNITARY_TOL:
        raise ValueError(f"{name} is not unitary within {UNITARY_TOL}")


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
            _check_unitary(name, mat)
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


def _haar_local_stacks(dims: BipartiteDims, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Independent Haar factors (u_a, u_b) from each generator of ``rngs``,
    as one (len(rngs), d, d) stack per side.

    Each generator makes one Gaussian draw, in ``haar_unitary``'s order: the
    real and then the imaginary parts of u_a's matrix, then of u_b's.  Each
    side's draws share one QR.
    """
    sides = (dims.m, dims.n)
    size = 2 * sum(d * d for d in sides)
    gauss = np.array([rng.standard_normal(size) for rng in rngs]).reshape(len(rngs), size)
    stacks, start = [], 0
    for d in sides:
        parts = gauss[:, start:start + 2 * d * d].reshape(-1, 2, d, d)
        start += 2 * d * d
        stacks.append(_haar_from_gaussian((parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)))
    return tuple(stacks)


def random_local_unitary(dims: BipartiteDims, seed) -> LocalUnitary:
    """Independent Haar factors on each subsystem; deterministic given seed."""
    u_a, u_b = _haar_local_stacks(dims, [np.random.default_rng(seed)])
    return LocalUnitary(u_a[0], u_b[0])


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
# Derivative-free maximization of gamma over the local-unitary orbit.


@dataclass(frozen=True)
class OptimizerOptions:
    """Budget for :func:`maximize_gamma`.

    The objective is gamma of a density matrix, ``pure_to_density(psi)``
    for a pure input.  It is smooth except for absolute-value kinks where
    paired coefficients vanish, so the search is gradient-free: line
    maximization along one-parameter subgroups exp(tX) of each factor,
    X = E_ab - E_ba and i(E_ab + E_ba) for every level pair a<b, each
    applied to the restart's current rotated state.  A diagonal phase
    changes only the phases of the paired coefficients, which gamma
    ignores, so a sweep has m(m-1) + n(n-1) lines.  Sweeps repeat until one
    improves by at most ``_SWEEP_TOL`` (1e-9).  A line is scanned on a
    uniform periodic grid of ``_GRID_POINTS`` (32) points, one of them the
    current value, and its best cell refined by ``_PARABOLIC_STEPS``
    successive parabolic-interpolation steps.  All ``restarts`` run in
    lockstep as one batch; each leaves it on its own convergence test or at
    ``max_sweeps``.  ``seed`` draws the random restarts.
    """

    restarts: int = 8
    max_sweeps: int = 40
    seed: int = 0


@dataclass(frozen=True)
class SupremumReport:
    """The outcome of one ``maximize_gamma`` call.

    ``best_gamma`` is the largest value any restart reached, and
    ``best_unitary`` the local unitary of the first restart that reached it.
    ``iterations`` is the number of sweeps summed over all ``restarts``.
    ``converged`` is true when every restart stopped on its own convergence
    test rather than at ``max_sweeps``.
    """

    best_gamma: float
    best_unitary: LocalUnitary
    iterations: int
    restarts: int
    converged: bool


#: A restart converges once a full sweep raises gamma by at most this much.
_SWEEP_TOL = 1e-9
#: Points of the periodic grid that starts each line search.
_GRID_POINTS = 32
#: Successive parabolic-interpolation steps that follow a line's grid scan.
_PARABOLIC_STEPS = 3


@lru_cache(maxsize=None)
def _grid_offsets(points: int) -> np.ndarray:
    """Offsets of a uniform periodic grid of ``points`` points in
    ``np.fft.fftfreq`` order, 0 first: the non-negative steps, then the
    negative ones from the most negative up; read-only.  Built as fftfreq
    builds it, integer steps times 1/points, without importing numpy.fft."""
    steps = np.concatenate([np.arange((points - 1) // 2 + 1), np.arange(-(points // 2), 0)])
    offsets = 2.0 * math.pi * (steps * (1.0 / points))
    offsets.setflags(write=False)
    return offsets


def _lockstep_line_max(f1d, grid: np.ndarray, f0: np.ndarray):
    """Maximize R 2*pi-periodic functions of one variable at once, from 0.

    ``f1d`` maps arguments of shape (..., R) to values of the same shape,
    function r taking the arguments in column r.  ``grid`` holds the values
    at the nonzero points of a uniform periodic grid,
    ``_grid_offsets(len(grid) + 1)[1:]``, and ``f0`` the incumbent's at
    point 0; the best grid point and its two periodic neighbours bracket the
    peak.  Each of ``_PARABOLIC_STEPS`` successive parabolic interpolation
    steps (Brent 1973) then probes, in one call, the vertex of the parabola
    through each row's bracket.  A vertex outside its bracket is discarded.
    A vertex that beats the middle point becomes the middle, and the old
    middle the bracket end on the far side; one that does not becomes the
    end on its own side.  The middle only ever moves to a larger value, so
    the incumbent is never abandoned for a worse one.

    The grid argmax and each step's probe are one numpy call over all rows;
    the bracket bookkeeping runs row by row on Python floats, each row in
    the same floating-point operations it would see alone.  On a handful of
    rows that beats whole-array arithmetic, whose cost is mostly per call:
    at 8 rows (the ``measure`` default; ``conjecture`` runs 4) the loop
    costs about a third of the array version, and the two break even near
    32 rows.
    """
    points = len(grid) + 1
    offsets = _grid_offsets(points)
    values = np.concatenate([f0[None], grid])
    best = values.argmax(axis=0)
    rows = np.arange(len(f0))
    x, fx = offsets[best].tolist(), values[best, rows].tolist()
    # bracket ends (lo, hi) as offsets from x, with their values
    lo, hi = [-float(offsets[1])] * len(x), [float(offsets[1])] * len(x)
    f_lo, f_hi = values[best - 1, rows].tolist(), values[(best + 1) % points, rows].tolist()
    for _ in range(_PARABOLIC_STEPS):
        steps = []
        for r in range(len(x)):
            g_hi, g_lo = fx[r] - f_hi[r], fx[r] - f_lo[r]
            num = 0.5 * (lo[r] * lo[r] * g_hi - hi[r] * hi[r] * g_lo)
            den = lo[r] * g_hi - hi[r] * g_lo
            # num / den strictly inside (lo, hi); false as well when den >= 0,
            # where the parabola has no maximum, and when a value is NaN
            steps.append(num / den if lo[r] * den > num > hi[r] * den else None)
        probe = f1d(np.array([xr if sr is None else xr + sr for xr, sr in zip(x, steps)]))
        for r, (step, f_step) in enumerate(zip(steps, probe.tolist())):
            if step is None:
                continue
            if f_step > fx[r]:
                # the step is the new middle; the old one replaces the far end
                if step < 0.0:
                    hi[r], f_hi[r] = 0.0, fx[r]
                else:
                    lo[r], f_lo[r] = 0.0, fx[r]
                x[r], fx[r] = x[r] + step, f_step
                lo[r], hi[r] = lo[r] - step, hi[r] - step
            elif step < 0.0:
                lo[r], f_lo[r] = step, f_step
            else:
                hi[r], f_hi[r] = step, f_step
    return np.array(x), np.array(fx)


# The paired form.  gamma reads 2Q paired coefficients (Q quadruples, plus
# and minus).  For a density matrix rotated by the local unitary (ua, ub)
# each is a value of a form that is linear in a first copy of the unitary and
# conjugate-linear in a second: _dense_form(mat, xa, xb, ya, yb) with
# (xa, xb) = (ya, yb) = (ua, ub).  The search reads each line's values of
# the form by a gather (_line_gather); _dense_form is the reference it
# equals.  Every product below is a broadcast multiply-and-sum, so a row's
# value does not depend on the batch it is computed in.


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over broadcast leading axes, summed along a contiguous last axis."""
    return (x[..., :, None, :] * y.swapaxes(-1, -2)[..., None, :, :]).sum(axis=-1)


def _dense_rotate(mat: np.ndarray, ua, ub) -> np.ndarray:
    """W mat W^H with W = kron(ua, ub) per row."""
    w = ua[..., :, None, :, None] * ub[..., None, :, None, :]
    size = w.shape[-1] * w.shape[-2]
    w = w.reshape(*w.shape[:-4], size, size)
    return _matmul(_matmul(w, mat), w.conj().swapaxes(-1, -2))


def _rotate_factor(mat: np.ndarray, step: np.ndarray, side: int, m: int, n: int) -> np.ndarray:
    """W mat W^H per row with W = kron(step, I) (side 0) or kron(I, step)
    (side 1), on the moved factor's axes of the (R, m, n, m, n) view.

    A step exp(tX) has at most two nonzeros per row, so every output entry
    sums at most two nonzero products, each the one ``_dense_rotate`` forms
    for it, in the same operand order.  Its value cannot depend on the
    order of the sum, and the result equals ``_dense_rotate``'s bit for bit
    (up to the sign of a zero).
    """
    view = mat.reshape(-1, m, n, m, n)
    conj = step.conj()
    if side == 0:
        rows = (step[:, :, :, None, None, None] * view[:, None]).sum(axis=2)
        out = (rows[:, :, :, None] * conj[:, None, None, :, :, None]).sum(axis=4)
    else:
        rows = (step[:, None, :, :, None, None] * view[:, :, None]).sum(axis=3)
        out = (rows[..., None, :] * conj[:, None, None, None]).sum(axis=-1)
    return out.reshape(mat.shape)


def _dense_form(mat: np.ndarray, xa, xb, ya, yb) -> np.ndarray:
    """(W_x mat W_y^H)[left, right] with W = kron(a, b) per row; only the
    needed rows of each kron are formed.  m and n are the sizes of the
    unitaries' factors."""
    m, n = xa.shape[-1], xb.shape[-1]
    left, right = _paired_positions(m, n)

    def kron_rows(ua, ub, rows):
        w = (ua.take(rows // n, axis=-2)[..., None]
             * ub.take(rows % n, axis=-2)[..., None, :])
        return w.reshape(*w.shape[:-2], m * n)

    return (_matmul(kron_rows(xa, xb, left), mat)
            * kron_rows(ya, yb, right).conj()).sum(axis=-1)


@lru_cache(maxsize=None)
def _generator_anchors(d: int) -> np.ndarray:
    """Anchors of the off-diagonal one-parameter subgroups of U(d).

    For each level pair a<b in ``linalg.level_pairs`` order, X = E_ab - E_ba
    and then X = i(E_ab + E_ba).  Both square to -P_ab, the projector onto
    levels a and b, so exp(tX) = A0 + A1 cos t + A2 sin t with A0 = I - P_ab,
    A1 = P_ab and A2 = X.  Returns a read-only (d(d-1), 3, d, d) array.
    """
    anchors = np.zeros((d * (d - 1), 3, d, d), dtype=complex)
    for idx, (k, l) in enumerate(level_pairs(d)):
        a, b = k - 1, l - 1
        for g, (upper, lower) in zip(anchors[2 * idx:2 * idx + 2], ((1, -1), (1j, 1j))):
            g[0] = np.eye(d)
            g[0, a, a] = g[0, b, b] = 0.0
            g[1, a, a] = g[1, b, b] = 1.0
            g[2, a, b], g[2, b, a] = upper, lower
    anchors.setflags(write=False)
    return anchors


#: Which 3x3 table entries form(A_j, A_k) of a line make each of its six
#: coefficients: the constant and those of cos t, sin t, cos^2 t, cos t sin t
#: and sin^2 t.  A coefficient of one entry lists it twice, the second time
#: at weight 0.
_COEFFICIENT_TERMS = (((0, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 2), (2, 0)),
                      ((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (2, 2)))


@lru_cache(maxsize=None)
def _line_gather(m: int, n: int, side: int, gen: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the coefficients of a coordinate line read the rotated state, and
    with what weight.

    The line moves factor ``side`` along exp(tX) with the anchors
    (A0, A1, A2) = ``_generator_anchors(d)[gen]``.  Each anchor has at most
    one nonzero per row, so each row l of the joint A_j (x) I (side 0) or
    I (x) A_j (side 1) has at most one too: w_j[l], one of 0, 1, -1 and i, in
    column c_j[l].  The paired form of two such joints is therefore
    form(A_j, A_k) = w_j[left] conj(w_k[right]) mat[c_j[left], c_k[right]],
    every product exact.  A line's coefficients are sums of at most two such
    entries (``_COEFFICIENT_TERMS``).  Returns the flat indices
    c_j[left] MN + c_k[right] into an (MN)^2 matrix and the weights
    w_j[left] conj(w_k[right]) of both terms, each of shape (2, 6, 2Q) and
    read-only.
    """
    eye = np.eye((n, m)[side])
    joint = np.array([np.kron(a, eye) if side == 0 else np.kron(eye, a)
                      for a in _generator_anchors((m, n)[side])[gen]])
    column = np.abs(joint).argmax(axis=-1)
    weight = np.take_along_axis(joint, column[..., None], axis=-1)[..., 0]
    left, right = _paired_positions(m, n)
    index = column[:, None, left] * (m * n) + column[None, :, right]
    weight = weight[:, None, left] * weight[None, :, right].conj()
    j, k = np.array(_COEFFICIENT_TERMS).T
    index, weight = index[j, k], weight[j, k]
    weight[1, (j[0] == j[1]) & (k[0] == k[1])] = 0.0
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def _trig_basis(t: np.ndarray) -> np.ndarray:
    """cos t, sin t, cos^2 t, cos t sin t and sin^2 t of every probe, as a
    (*t.shape, 1, 5) stack of row vectors."""
    basis = np.empty(t.shape + (1, 5))
    c, s = basis[..., 0, 0], basis[..., 0, 1]
    np.cos(t, out=c)
    np.sin(t, out=s)
    np.multiply(c, c, out=basis[..., 0, 2])
    np.multiply(c, s, out=basis[..., 0, 3])
    np.multiply(s, s, out=basis[..., 0, 4])
    return basis


#: The trigonometric basis at the nonzero points of every line's grid,
#: shared by all restarts: each line search starts at t = 0.
_GRID_BASIS = _trig_basis(_grid_offsets(_GRID_POINTS)[1:, None])
_GRID_BASIS.setflags(write=False)


def _coordinate_line(state: np.ndarray, m: int, n: int, side: int, gen: int,
                     n2: float):
    """Gamma of every row of ``state`` after exp(tX) of line ``gen`` acts on
    factor ``side`` (0 for u_a, 1 for u_b), as a function of t.

    The paired form is linear in the moving factor and conjugate-linear in
    it again, so every coefficient is the fixed combination
    sum_jk form(A_j, A_k) g_j g_k with g = (1, cos t, sin t) and (A0, A1, A2)
    the anchors of exp(tX).  The constant and the five coefficients are one
    gather: one fancy index into the state, one multiply by constant
    weights of 0, +-1 and +-i and one add of two terms (``_line_gather``),
    so each equals its sum of ``_dense_form``'s table entries bit for bit.
    The returned function maps a trigonometric basis of shape
    (..., 1, 5) (``_trig_basis``) to gamma of shape (...), with one
    (..., 1, 5) @ (5, 2Q) product per row.
    """
    index, weight = _line_gather(m, n, side, gen)
    terms = state.reshape(*state.shape[:-2], -1).take(index, axis=-1) * weight
    coef = terms[..., 0, :, :] + terms[..., 1, :, :]
    constant = coef[..., 0, :]
    # cos t, sin t, cos^2 t, cos t sin t, sin^2 t; the complex coefficients
    # are read as interleaved (real, imag) pairs, so the product is real.
    coef = coef[..., 1:, :].view(float)

    def along(basis: np.ndarray) -> np.ndarray:
        pairs = (basis @ coef).view(complex)[..., 0, :] + constant
        return _gamma_of_pairs(pairs, n2)

    return along


def _lockstep_ascent(source: np.ndarray, bases: tuple, n2: float,
                     opts: OptimizerOptions):
    """Coordinate ascent over U(m) x U(n), one restart per base point.

    ``source`` is the input density matrix and ``bases`` stacks each
    restart's (u_a, u_b).  A sweep runs one line per off-diagonal generator
    of each factor (``_generator_anchors``): the line is set up on the
    restart's current rotated state (``_coordinate_line``) and maximized by
    ``_lockstep_line_max``, and the state and the factor are then rotated by
    the accepted exp(tX), the state on the moved factor's axes only
    (``_rotate_factor``; skipped after the sweep's last line).  At a sweep's
    end the state and the value are read again from ``source`` at the
    accumulated unitaries, so rounding cannot build up; a restart leaves the
    batch once a full sweep improves that value by at most ``_SWEEP_TOL``.
    Returns per-restart arrays (value, ua, ub, sweeps, converged).
    """
    us = [u.copy() for u in bases]
    dims = [u.shape[-1] for u in us]

    def objective(rotated):
        return _gamma_of_pairs(_paired_coefficients(rotated, *dims), n2)

    states = _dense_rotate(source, *us)
    f = objective(states)
    # the sweep end reads the state afresh from ``source``, so the last
    # line's accepted step moves only the factor
    last_line = (len(dims) - 1, len(_generator_anchors(dims[-1])) - 1)
    count = len(f)
    sweeps = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for _ in range(opts.max_sweeps):
        if active.size == 0:
            break
        sweeps[active] += 1
        state = states[active]
        f_start = f[active]
        f_act = f_start
        pair = [u[active] for u in us]
        for side, d in enumerate(dims):
            for gen, anchors in enumerate(_generator_anchors(d)):
                along = _coordinate_line(state, *dims, side, gen, n2)
                t, f_act = _lockstep_line_max(lambda t: along(_trig_basis(t)),
                                              along(_GRID_BASIS), f_act)
                step = (anchors[0] + anchors[1] * np.cos(t)[:, None, None]
                        + anchors[2] * np.sin(t)[:, None, None])
                if (side, gen) != last_line:
                    state = _rotate_factor(state, step, side, *dims)
                pair[side] = _matmul(step, pair[side])
        for u, p in zip(us, pair):
            u[active] = p
        states[active] = state = _dense_rotate(source, *pair)
        f_act = objective(state)
        f[active] = f_act
        done = f_act - f_start <= _SWEEP_TOL
        converged[active[done]] = True
        active = active[~done]
    return f, us[0], us[1], sweeps, converged


def _restart_batch(state: PureState | DensityOperator, opts: OptimizerOptions):
    """Base points of the restarts as one (u_a, u_b) pair of stacks.

    Restart 0 is the identity.  Restart 1 of a pure input, if there is one,
    is its Schmidt rotation, where gamma is the proven supremum.  Every
    other restart i draws its Haar factors from ``default_rng([seed, i])``
    through ``_haar_local_stacks``, as ``random_local_unitary`` does.  QR
    makes them unitary, so they are not checked again; ``LocalUnitary``
    checks the winner ``maximize_gamma`` reports.
    """
    dims = state.dims
    fixed = [(np.eye(dims.m, dtype=complex), np.eye(dims.n, dtype=complex))]
    if isinstance(state, PureState) and opts.restarts > 1:
        _, rot = schmidt_rotation(state)
        fixed.append((rot.u_a, rot.u_b))
    rngs = [np.random.default_rng([opts.seed, i]) for i in range(len(fixed), opts.restarts)]
    return tuple(
        np.concatenate([np.array([f[side] for f in fixed]), stack])
        for side, stack in enumerate(_haar_local_stacks(dims, rngs))
    )


def maximize_gamma(
    state: PureState | DensityOperator,
    cfg: MeasureConfig = CONCURRENCE_MATCHED,
    opts: OptimizerOptions | None = None,
) -> SupremumReport:
    """Maximize gamma over local unitaries by seeded multi-restart ascent.

    A pure input is searched on its density matrix ``pure_to_density(psi)``,
    with the objective a density input has.  Restart base points are the
    identity, the Schmidt rotation (pure inputs; the proven supremum is
    therefore always reachable) and Haar random local unitaries; each
    restart sweeps one-parameter subgroups applied to its current rotated
    state.  The restarts run in lockstep as one batch, so each line probe is
    one array evaluation over every restart still sweeping; a restart
    follows the same path as it would alone.  The first restart with the
    largest value wins.  Deterministic given ``opts.seed``.  Values above
    the Schmidt benchmark are reported as found, never clipped.
    """
    opts = opts or OptimizerOptions()
    bases = _restart_batch(state, opts)
    source = pure_to_density(state).mat if isinstance(state, PureState) else state.mat
    f, ua, ub, sweeps, converged = _lockstep_ascent(source, bases, cfg.n2, opts)
    best = int(np.argmax(f))
    return SupremumReport(
        best_gamma=float(f[best]),
        best_unitary=LocalUnitary(ua[best], ub[best]),
        iterations=int(sweeps.sum()),
        restarts=len(f),
        converged=bool(converged.all()),
    )


# --------------------------------------------------------------------------
# Conjecture harness: does the supremum equal I-concurrence?


class ConjectureRow(NamedTuple):
    """One trial of the sweep; the fields are the ``conjecture`` columns, in
    order."""

    dims: str
    trial: int
    i_concurrence: float
    gamma_schmidt: float
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


#: The budget of each sweep trial: lighter than the standalone maximizer's
#: because the Schmidt restart already sits at the conjectured optimum.
SWEEP_OPTS = OptimizerOptions(restarts=4, max_sweeps=25)


def _conjecture_trial(dims: BipartiteDims, di: int, trial: int, seed: int) -> ConjectureRow:
    ss = np.random.SeedSequence((seed, di, trial))
    psi = random_pure(dims, ss)
    trial_seed = int(ss.generate_state(1)[0])
    report = maximize_gamma(psi, CONCURRENCE_MATCHED, replace(SWEEP_OPTS, seed=trial_seed))
    ic = i_concurrence(psi)
    schmidt_val = gamma_schmidt(psi, CONCURRENCE_MATCHED)
    return ConjectureRow(
        dims=dims.label(),
        trial=trial,
        i_concurrence=ic,
        gamma_schmidt=schmidt_val,
        best_gamma=report.best_gamma,
        deviation=abs(report.best_gamma - ic),
        overshoot=report.best_gamma > schmidt_val + OVERSHOOT_MARGIN,
        converged=report.converged,
    )


def conjecture_sweep(dims_list, trials: int, seed: int, threads: int = 1) -> ConjectureReport:
    """For random pure states, compare the maximized gamma against
    I-concurrence and against the Schmidt-basis benchmark, at the matched
    normalization n2 = 4 where the two are equal.

    Per-trial seeds are fixed up front, so results are deterministic for any
    thread count.  ``dims_list`` holds dims labels like ``"2x3"``; there is
    one summary per entry, labelled with its parsed dims.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    parsed = [BipartiteDims.parse(d) for d in dims_list]
    tasks = [(d, di, t) for di, d in enumerate(parsed) for t in range(trials)]
    if threads > 1 and tasks:
        # Imported here: only a threaded sweep needs the pool, and loading
        # it costs every other CLI call about 0.6 MB of resident memory.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda task: _conjecture_trial(*task, seed), tasks))
    else:
        rows = [_conjecture_trial(*task, seed) for task in tasks]

    # Rows come in task order, ``trials`` of them per entry of
    # ``dims_list``, so a repeated entry keeps a group of its own.
    summaries = []
    for di, d in enumerate(parsed):
        group = rows[di * trials:(di + 1) * trials]
        summaries.append(
            ConjectureSummary(
                dims=d.label(),
                trials=len(group),
                max_deviation=max((r.deviation for r in group), default=0.0),
                overshoots=sum(r.overshoot for r in group),
            )
        )
    return ConjectureReport(rows=tuple(rows), summaries=tuple(summaries))
