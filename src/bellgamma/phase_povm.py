"""Relative-phase operator route to gamma.

Builds the Hermitian phase operators

    delta_a = (1/2pi) (I + sum_{k<l} e^(i phi_{A;kl}) |k><l| + h.c.)

(and delta_b likewise), forms their tensor product, and extracts individual
off-diagonal density-matrix coefficients as Fourier components of the
expectation value Tr(rho * delta) over the local-phase torus.

Each matrix element of the joint operator carries a unique phase monomial
with per-axis frequency in {-1, 0, +1}, so a double Fourier integral over
one A phase and one B phase isolates exactly one coefficient:

    (1/(2pi)^2) * integral e^(i(phi_A + phi_B)) Tr(rho delta)
        = rho[(k-1)n+p, (l-1)n+q] / (2pi)^2

and the difference branch (phi_A - phi_B weight) isolates the mirrored
coefficient rho[(k-1)n+q, (l-1)n+p].  Because the integrand is a
trigonometric polynomial of degree one per axis, a uniform grid of G >= 3
points per axis evaluates the integral exactly (up to roundoff); a change
of variables to sum and difference phases is not needed and would not be
invertible on the torus.  The factors at every grid angle of one level
pair's phase form one stack.  A call builds the stacks of every A pair k<l
and every B pair p<q, and the grid weights, once; per A pair a single einsum
then gives the grid x grid expectation values of all B pairs at once.

The operators here are treated purely as Hermitian observables; positivity
of delta is neither needed nor asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import BipartiteDims, level_pairs
from .measures import PAPER_2X3, MeasureConfig
from .states import DensityOperator

TWO_PI = 2.0 * math.pi

#: Constant relating the squared Fourier-component differences back to the
#: coefficient form of gamma; fixed analytically by the 1/(2pi) prefactors
#: of the two factor operators and confirmed against a Bell state by the
#: test suite.
C_POVM = TWO_PI**4

#: Largest accepted grid.  Any grid of 3 or more points is exact, so a finer
#: one only costs time and O(grid**2) memory.
MAX_GRID = 64


def _validate_phases(name: str, phases: Mapping[tuple[int, int], float], d: int) -> None:
    got, want = set(phases), set(level_pairs(d))
    if got != want:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise ValueError(
            f"phase assignment for subsystem {name} must cover exactly "
            f"the level pairs {sorted(want)}; missing {missing}, "
            f"unexpected {extra}"
        )


@dataclass(frozen=True)
class PhaseAssignment:
    """One phase per level pair of each subsystem (k<l and p<q, 1-based)."""

    a_phases: Mapping[tuple[int, int], float]
    b_phases: Mapping[tuple[int, int], float]

    def validate(self, dims: BipartiteDims) -> None:
        _validate_phases("A", self.a_phases, dims.m)
        _validate_phases("B", self.b_phases, dims.n)

    @classmethod
    def zeros(cls, dims: BipartiteDims) -> "PhaseAssignment":
        return cls(
            a_phases={pair: 0.0 for pair in level_pairs(dims.m)},
            b_phases={pair: 0.0 for pair in level_pairs(dims.n)},
        )


def _delta_stack(
    phases: Mapping[tuple[int, int], float | np.ndarray], d: int, count: int
) -> np.ndarray:
    """``count`` phase operators as one (count, d, d) array; each phase is a
    float shared by all of them or a (count,) array giving one per operator."""
    upper = np.zeros((count, d, d), dtype=complex)
    for (i, j), phi in phases.items():
        upper[:, i - 1, j - 1] = np.exp(1j * phi)
    return (np.eye(d) + upper + upper.conj().swapaxes(1, 2)) / TWO_PI


def _delta_factor(phases: Mapping[tuple[int, int], float], d: int) -> np.ndarray:
    return _delta_stack(phases, d, 1)[0]


def delta_a(phases: Mapping[tuple[int, int], float], dims: BipartiteDims) -> np.ndarray:
    """Hermitian A-side phase operator for a complete phase assignment."""
    _validate_phases("A", phases, dims.m)
    return _delta_factor(phases, dims.m)


def delta_b(phases: Mapping[tuple[int, int], float], dims: BipartiteDims) -> np.ndarray:
    """Hermitian B-side phase operator for a complete phase assignment."""
    _validate_phases("B", phases, dims.n)
    return _delta_factor(phases, dims.n)


def delta_joint(assignment: PhaseAssignment, dims: BipartiteDims) -> np.ndarray:
    """Joint operator delta_a tensor delta_b (Hermitian)."""
    assignment.validate(dims)
    return np.kron(
        _delta_factor(assignment.a_phases, dims.m),
        _delta_factor(assignment.b_phases, dims.n),
    )


@dataclass(frozen=True)
class FourierComponent:
    k: int
    l: int
    p: int
    q: int
    branch: str
    magnitude: float


def _grid_angles(grid: int) -> np.ndarray:
    return TWO_PI * np.arange(grid) / grid


def _pair_stacks(d: int, phase: np.ndarray) -> np.ndarray:
    """The factor stacks of every level pair of a d-level side, shape
    (P, G, d, d) in ``level_pairs(d)`` order: in stack i pair i's phase
    takes the grid angles, ``phase`` = e^(i angle), and every other phase is
    zero.  Each stack equals that pair's ``_delta_stack`` bit for bit."""
    pairs = level_pairs(d)
    rows, cols = (np.array(ix) - 1 for ix in zip(*pairs))
    upper = np.zeros((len(pairs), len(phase), d, d), dtype=complex)
    upper[..., rows, cols] = 1.0  # e^(i 0) of the phases held at zero
    upper[np.arange(len(pairs)), :, rows, cols] = phase
    return (np.eye(d) + upper + upper.conj().swapaxes(-1, -2)) / TWO_PI


def _weight_table(angles: np.ndarray) -> np.ndarray:
    """The weights e^(i(phi_A + phi_B)) and e^(i(phi_A - phi_B)) at every
    grid point in row-major (A, B) order, shape (2, G**2)."""
    sums = np.stack([angles[:, None] + angles, angles[:, None] - angles])
    return np.exp(1j * sums).reshape(2, -1)


def _component_moduli(
    r4: np.ndarray, a_stacks: np.ndarray, b_stacks: np.ndarray, weights: np.ndarray
) -> tuple[list, list]:
    """|Fourier component| of both branches for every (A pair, B pair).

    ``r4`` is rho reshaped to (m, n, m, n); ``a_stacks`` (PA, G, m, m) and
    ``b_stacks`` (PB, G, n, n) hold the factors at every grid angle of each
    level pair's phase, and ``weights`` comes from ``_weight_table``.
    Per A pair one einsum gives Tr(rho (delta_a x delta_b)) at all grid x
    grid points of every B pair without forming a Kronecker product.
    Returns the sum-branch and the difference-branch moduli as row-major
    (PA, PB) lists of floats.

    The arithmetic is that of a scalar loop over the grid points, so the
    results do not depend on how many pairs are batched: each weighted term
    is numpy's complex product written out componentwise, the terms are
    added left to right by a cumulative sum, and each modulus is Python's
    ``abs`` of a complex.  An array complex product, a pairwise sum or
    ``np.abs`` of an array each differ from that in the last bit for some
    inputs.
    """
    wr, wi = weights.real[:, None, :], weights.imag[:, None, :]
    norm = weights.shape[-1]
    plus, minus = [], []
    for das in a_stacks:
        t = np.einsum("kplq,alk,ybqp->yab", r4, das, b_stacks).reshape(len(b_stacks), norm)
        tr, ti = t.real, t.imag
        sums = np.empty((2, len(b_stacks)), dtype=complex)
        sums.real = np.cumsum(wr * tr - wi * ti, axis=-1)[..., -1]
        sums.imag = np.cumsum(wr * ti + wi * tr, axis=-1)[..., -1]
        s_plus, s_minus = (sums / norm).tolist()
        plus.extend(abs(s) for s in s_plus)
        minus.extend(abs(s) for s in s_minus)
    return plus, minus


def _check_quadruple(dims: BipartiteDims, k: int, l: int, p: int, q: int) -> None:
    if not (1 <= k < l <= dims.m and 1 <= p < q <= dims.n):
        raise ValueError(
            f"need 1 <= k < l <= {dims.m} and 1 <= p < q <= {dims.n}, "
            f"got (k,l,p,q) = ({k},{l},{p},{q})"
        )


def _check_grid(grid: int) -> None:
    if grid < 3:
        raise ValueError(
            f"grid too coarse: need at least 3 points per axis for exact "
            f"degree-one quadrature, got {grid}"
        )
    if grid > MAX_GRID:
        raise ValueError(
            f"grid too fine: at most {MAX_GRID} points per axis, got {grid}; "
            f"every grid of 3 or more points is already exact"
        )


def fourier_component(
    rho: DensityOperator,
    k: int,
    l: int,
    p: int,
    q: int,
    branch: str,
    grid: int = 4,
    base: PhaseAssignment | None = None,
) -> FourierComponent:
    """Extract one coefficient magnitude from the phase-operator expectation.

    ``branch`` "+" weights by e^(i(phi_A + phi_B)) and returns
    |rho[(k-1)n+p, (l-1)n+q]| / (2pi)^2; branch "-" weights by
    e^(i(phi_A - phi_B)) and returns the mirrored coefficient.  The values
    fixed for the non-integrated phases (``base``, default all zero) do not
    affect the result.
    """
    _check_grid(grid)
    _check_quadruple(rho.dims, k, l, p, q)
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    base = base or PhaseAssignment.zeros(rho.dims)
    base.validate(rho.dims)
    dims = rho.dims
    angles = _grid_angles(grid)
    plus, minus = _component_moduli(
        rho.mat.reshape(dims.m, dims.n, dims.m, dims.n),
        _delta_stack({**base.a_phases, (k, l): angles}, dims.m, grid)[np.newaxis],
        _delta_stack({**base.b_phases, (p, q): angles}, dims.n, grid)[np.newaxis],
        _weight_table(angles),
    )
    mag = plus[0] if branch == "+" else minus[0]
    return FourierComponent(k=k, l=l, p=p, q=q, branch=branch, magnitude=mag)


def gamma_via_povm(
    rho: DensityOperator, cfg: MeasureConfig = PAPER_2X3, grid: int = 4
) -> float:
    """Gamma assembled from Fourier components of the phase-operator
    expectation; coincides with the coefficient route ``gamma``.

    The factor stacks of every level pair and the grid weights are built
    once per call, and equal dimensions share one side's stacks; one einsum
    per A level pair covers every B pair.
    The squared modulus differences are summed in ``coeff_quadruples`` order.
    """
    _check_grid(grid)
    dims = rho.dims
    angles = _grid_angles(grid)
    phase = np.exp(1j * angles)
    a_stacks = _pair_stacks(dims.m, phase)
    b_stacks = a_stacks if dims.n == dims.m else _pair_stacks(dims.n, phase)
    plus, minus = _component_moduli(
        rho.mat.reshape(dims.m, dims.n, dims.m, dims.n),
        a_stacks,
        b_stacks,
        _weight_table(angles),
    )
    acc = 0.0
    for s_plus, s_minus in zip(plus, minus):
        acc += (s_plus - s_minus) ** 2
    return math.sqrt(cfg.n2 * C_POVM * acc)
