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
invertible on the torus.  One builder, ``_factor_stacks``, writes every
phase operator the module uses, from a table of e^(i phi) per level pair:
the identity, those phases and their conjugates go straight to their
entries.  The factors at every grid angle of one level pair's phase form
one stack.  A call builds the stacks of every A pair k<l and every B pair
p<q, and the grid weights, once.  It then takes rho against
every B stack in one matrix product, and that product against each A pair's
stack in one more: the explicit grid x grid expectation values of all B
pairs at once, which the weights turn into Fourier components.

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


def _factor_stacks(d: int, upper: np.ndarray) -> np.ndarray:
    """Phase operators of a d-level side, one per leading index of ``upper``.

    ``upper[..., i]`` is e^(i phi) of level pair i in ``level_pairs(d)``
    order; the result, shape (*upper.shape[:-1], d, d), holds
    (I + sum e^(i phi) |k><l| + h.c.) / 2pi.  The identity, the phases and
    their conjugates are written to their own entries, with no
    conj-transpose add.
    """
    pairs = level_pairs(d)
    out = np.zeros(upper.shape[:-1] + (d * d,), dtype=complex)
    out[..., :: d + 1] = 1.0
    out[..., [(k - 1) * d + l - 1 for k, l in pairs]] = upper
    out[..., [(l - 1) * d + k - 1 for k, l in pairs]] = upper.conj()
    out /= TWO_PI
    return out.reshape(upper.shape[:-1] + (d, d))


def _phase_row(phases: Mapping[tuple[int, int], float], d: int) -> np.ndarray:
    """e^(i phi) of every level pair, in ``level_pairs(d)`` order."""
    return np.exp(1j * np.array([phases[pair] for pair in level_pairs(d)]))


def delta_a(phases: Mapping[tuple[int, int], float], dims: BipartiteDims) -> np.ndarray:
    """Hermitian A-side phase operator for a complete phase assignment."""
    _validate_phases("A", phases, dims.m)
    return _factor_stacks(dims.m, _phase_row(phases, dims.m))


def delta_b(phases: Mapping[tuple[int, int], float], dims: BipartiteDims) -> np.ndarray:
    """Hermitian B-side phase operator for a complete phase assignment."""
    _validate_phases("B", phases, dims.n)
    return _factor_stacks(dims.n, _phase_row(phases, dims.n))


def delta_joint(assignment: PhaseAssignment, dims: BipartiteDims) -> np.ndarray:
    """Joint operator delta_a tensor delta_b (Hermitian)."""
    assignment.validate(dims)
    return np.kron(
        _factor_stacks(dims.m, _phase_row(assignment.a_phases, dims.m)),
        _factor_stacks(dims.n, _phase_row(assignment.b_phases, dims.n)),
    )


def _grid_angles(grid: int) -> np.ndarray:
    return TWO_PI * np.arange(grid) / grid


def _grid_stacks(d: int, row: np.ndarray, pairs, phase: np.ndarray) -> np.ndarray:
    """The factors at every grid angle of each level pair in ``pairs``
    (indices into ``level_pairs(d)``), shape (len(pairs), G, d, d): in
    stack i pair ``pairs[i]`` takes ``phase`` = e^(i angle) and every other
    pair keeps its e^(i phi) of ``row``."""
    upper = np.empty((len(pairs), len(phase), len(row)), dtype=complex)
    upper[...] = row
    upper[np.arange(len(pairs)), :, pairs] = phase
    return _factor_stacks(d, upper)


def _weight_table(angles: np.ndarray) -> np.ndarray:
    """The quadrature weights e^(i(phi_A + phi_B)) / G**2 and
    e^(i(phi_A - phi_B)) / G**2 at every grid point, shape (G**2, 2), the
    points in row-major (B angle, A angle) order, as in the tables of
    ``_component_moduli``."""
    phi_b, phi_a = angles[:, None], angles[None, :]
    sums = np.stack([phi_a + phi_b, phi_a - phi_b], axis=-1)
    return np.exp(1j * sums).reshape(-1, 2) / len(angles) ** 2


def _component_moduli(
    rho_mat: np.ndarray, a_stacks: np.ndarray, b_stacks: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """|Fourier component| of both branches for every (A pair, B pair).

    ``rho_mat`` is the (mn, mn) density matrix; ``a_stacks`` (PA, G, m, m)
    and ``b_stacks`` (PB, G, n, n) hold the factors at every grid angle of
    each level pair's phase, and ``weights`` comes from ``_weight_table``.
    Returns the moduli as a (PA, PB, 2) array, sum branch first.

    The expectation Tr(rho (delta_a x delta_b)) is
    sum rho[(k p), (l q)] delta_a[l, k] delta_b[q, p], so with rho viewed as
    a (q p) x (l k) matrix it is two matrix products.  The first, once per
    call, takes rho against every B factor at once: X, shape (PB G, m**2).
    The second, once per A pair, takes X against that pair's (G, m**2)
    factors: the (PB, G, G) table of expectations at every grid point of
    every B pair.  Its two weighted sums are one product with ``weights``.
    """
    m, n = a_stacks.shape[-1], b_stacks.shape[-1]
    grid = a_stacks.shape[1]
    r = rho_mat.reshape(m, n, m, n).transpose(3, 1, 2, 0).reshape(n * n, m * m)
    x = b_stacks.reshape(-1, n * n) @ r
    sums = np.empty((len(a_stacks), len(b_stacks), 2), dtype=complex)
    for i, das in enumerate(a_stacks):
        # the (PB, G, G) table, each B pair's G x G points flattened
        table = (x @ das.reshape(grid, m * m).T).reshape(len(b_stacks), grid * grid)
        sums[i] = table @ weights
    return np.abs(sums)


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
) -> float:
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
    phase = np.exp(1j * angles)
    moduli = _component_moduli(
        rho.mat,
        _grid_stacks(dims.m, _phase_row(base.a_phases, dims.m),
                     [level_pairs(dims.m).index((k, l))], phase),
        _grid_stacks(dims.n, _phase_row(base.b_phases, dims.n),
                     [level_pairs(dims.n).index((p, q))], phase),
        _weight_table(angles),
    )
    return float(moduli[0, 0, 0 if branch == "+" else 1])


def gamma_via_povm(
    rho: DensityOperator, cfg: MeasureConfig = PAPER_2X3, grid: int = 4
) -> float:
    """Gamma assembled from Fourier components of the phase-operator
    expectation; coincides with the coefficient route ``gamma``.

    The factor stacks of every level pair and the grid weights are built
    once per call, and equal dimensions share one side's stacks.  rho meets
    every B stack in one matrix product, and that product meets each A level
    pair's stack in one more (see ``_component_moduli``).
    """
    _check_grid(grid)
    dims = rho.dims
    angles = _grid_angles(grid)
    phase = np.exp(1j * angles)

    def every_pair(d: int) -> np.ndarray:
        count = d * (d - 1) // 2
        return _grid_stacks(d, np.ones(count, dtype=complex), np.arange(count), phase)

    a_stacks = every_pair(dims.m)
    b_stacks = a_stacks if dims.n == dims.m else every_pair(dims.n)
    moduli = _component_moduli(rho.mat, a_stacks, b_stacks, _weight_table(angles))
    diff = (moduli[..., 0] - moduli[..., 1]).ravel()
    return math.sqrt(cfg.n2 * C_POVM * float(diff @ diff))
