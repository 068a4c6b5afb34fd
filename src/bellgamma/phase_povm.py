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
pair's phase form one stack; ``gamma_via_povm`` builds the stack of each
A pair k<l and each B pair p<q once, and per quadruple a single einsum over
both grid axes gives all grid x grid expectation values.

The operators here are treated purely as Hermitian observables; positivity
of delta is neither needed nor asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import BipartiteDims, coeff_quadruples, level_pairs
from .measures import PAPER_2X3, MeasureConfig
from .states import DensityOperator

TWO_PI = 2.0 * math.pi

#: Constant relating the squared Fourier-component differences back to the
#: coefficient form of gamma; fixed analytically by the 1/(2pi) prefactors
#: of the two factor operators and confirmed against a Bell state by the
#: test suite.
C_POVM = TWO_PI**4


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


def _grid_weights(angles: np.ndarray) -> tuple[list, list]:
    """The e^(i(phi_A + phi_B)) and e^(i(phi_A - phi_B)) weights of every
    grid point, as numpy scalars in row-major (A, B) order."""
    w_plus = np.exp(1j * (angles[:, None] + angles[None, :]))
    w_minus = np.exp(1j * (angles[:, None] - angles[None, :]))
    return list(w_plus.ravel()), list(w_minus.ravel())


def _component_pair(
    r4: np.ndarray, das: np.ndarray, dbs: np.ndarray, weights: tuple[list, list]
) -> tuple[complex, complex]:
    """Both Fourier components (sum and difference weight) for one quadruple,
    sharing a single grid of expectation values.

    ``r4`` is rho reshaped to (m, n, m, n); ``das`` stacks the A factors for
    every grid angle of phi_{A;kl} and ``dbs`` the B factors for every angle
    of phi_{B;pq}.  One einsum gives the expectation Tr(rho (delta_a x
    delta_b)) at all grid x grid points without forming a Kronecker product.
    """
    t = np.einsum("kplq,alk,bqp->ab", r4, das, dbs)
    # Weighted sums as numpy-scalar products added in row-major (A, B)
    # order: an array complex product, or Python complex arithmetic, rounds
    # some terms differently in the last bit and changes printed values.
    s_plus = s_minus = 0.0 + 0.0j
    for wp, wm, tv in zip(*weights, t.ravel().tolist()):
        s_plus += wp * tv
        s_minus += wm * tv
    norm = t.size
    return s_plus / norm, s_minus / norm


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
    s_plus, s_minus = _component_pair(
        rho.mat.reshape(dims.m, dims.n, dims.m, dims.n),
        _delta_stack({**base.a_phases, (k, l): angles}, dims.m, grid),
        _delta_stack({**base.b_phases, (p, q): angles}, dims.n, grid),
        _grid_weights(angles),
    )
    mag = abs(s_plus) if branch == "+" else abs(s_minus)
    return FourierComponent(k=k, l=l, p=p, q=q, branch=branch, magnitude=float(mag))


def gamma_via_povm(
    rho: DensityOperator, cfg: MeasureConfig = PAPER_2X3, grid: int = 4
) -> float:
    """Gamma assembled from Fourier components of the phase-operator
    expectation; coincides with the coefficient route ``gamma``.

    Each A level pair's factor stack, each B level pair's and the grid
    weights are built once and shared by every quadruple that uses them.
    """
    _check_grid(grid)
    dims = rho.dims
    base = PhaseAssignment.zeros(dims)
    angles = _grid_angles(grid)
    a_stacks = {
        pair: _delta_stack({**base.a_phases, pair: angles}, dims.m, grid)
        for pair in level_pairs(dims.m)
    }
    b_stacks = {
        pair: _delta_stack({**base.b_phases, pair: angles}, dims.n, grid)
        for pair in level_pairs(dims.n)
    }
    weights = _grid_weights(angles)
    r4 = rho.mat.reshape(dims.m, dims.n, dims.m, dims.n)
    acc = 0.0
    for k, l, p, q in coeff_quadruples(dims.m, dims.n):
        s_plus, s_minus = _component_pair(r4, a_stacks[k, l], b_stacks[p, q], weights)
        acc += (abs(s_plus) - abs(s_minus)) ** 2
    return math.sqrt(cfg.n2 * C_POVM * acc)
