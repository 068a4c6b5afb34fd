"""Scalar entanglement quantities.

The central quantity ("gamma") sums, over all level quadruples k<l, p<q,
the squared difference of the absolute values of the paired off-diagonal
density-matrix coefficients

    rho[(k-1)n+p, (l-1)n+q]   and   rho[(k-1)n+q, (l-1)n+p],

scales by a normalization constant n2 and takes the square root.  For a
product state, pure or mixed, the paired coefficients have equal modulus,
so gamma vanishes identically.  For a pure state the supremum over local
unitaries is zero exactly when the state is a product.  For mixed states
gamma does not certify entanglement: a mixture of product states is
separable, yet gamma and its supremum can be well above zero.

Normalization conventions in circulation are mutually inconsistent (on a
Bell state the pairwise-minor concurrence is 1/sqrt(2) of I-concurrence,
and the quoted Bell-state value sqrt(n2/2) is sqrt(2) times the direct
evaluation sqrt(n2/4)).  This module never silently fixes a convention:
the constant is explicit in :class:`MeasureConfig`, each named preset is
tested, and direct formula evaluation is normative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import BipartiteDims, _quadruple_arrays
from .states import DensityOperator, PureState, SchmidtDecomposition, schmidt

#: Named normalization presets.
#:  - "paper-2x3" (n2=2): the convention under which the qubit-qutrit
#:    zeroing construction makes gamma coincide with the 2x3 concurrence.
#:  - "concurrence-matched" (n2=4): makes the Schmidt-form gamma equal
#:    I-concurrence exactly (via 1 - tr(rho_A^2) = 2 * sum of paired
#:    Schmidt products).
#:  - "unnormalized" (n2=1).
PRESET_N2 = {
    "paper-2x3": 2.0,
    "concurrence-matched": 4.0,
    "unnormalized": 1.0,
}


#: Largest accepted n2.  The Fourier route scales by n2 * (2pi)^4, which
#: overflows to inf near 1.15e305.
MAX_N2 = 1e300


@dataclass(frozen=True)
class MeasureConfig:
    """Normalization constant n2 (positive, at most ``MAX_N2``) plus the
    preset name it came from."""

    n2: float
    preset: str = "custom"

    def __post_init__(self) -> None:
        if not self.n2 > 0:
            raise ValueError(f"n2 must be positive, got {self.n2}")
        if not math.isfinite(self.n2):
            raise ValueError(f"n2 must be finite, got {self.n2}")
        if self.n2 > MAX_N2:
            raise ValueError(f"n2 must be at most {MAX_N2:g}, got {self.n2:g}")
        if self.preset != "custom" and self.preset not in PRESET_N2:
            raise ValueError(f"unknown preset {self.preset!r}")

    @classmethod
    def from_preset(cls, name: str) -> "MeasureConfig":
        if name not in PRESET_N2:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {sorted(PRESET_N2)}"
            )
        return cls(n2=PRESET_N2[name], preset=name)


PAPER_2X3 = MeasureConfig.from_preset("paper-2x3")
CONCURRENCE_MATCHED = MeasureConfig.from_preset("concurrence-matched")
UNNORMALIZED = MeasureConfig.from_preset("unnormalized")


@dataclass(frozen=True)
class GammaBreakdown:
    """Gamma together with its per-quadruple terms.

    ``terms[i]`` is the modulus pair (|rho[kp, lq]|, |rho[kq, lp]|) of the
    i-th quadruple of ``linalg.coeff_quadruples``; it adds
    (plus - minus) ** 2 to the sum under the square root.
    """

    terms: tuple[tuple[float, float], ...]
    n2: float
    total: float


@lru_cache(maxsize=None)
def _paired_positions(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint indices (left, right) of every quadruple's two coefficients.

    The first half lists the plus coefficients (kp, lq), the second half the
    minus coefficients (kq, lp).  A density matrix holds the coefficient at
    rho[left, right]; a pure state's is amp[left] * conj(amp[right]) over
    the flattened amplitudes.
    """
    ka, la, pb, qb = _quadruple_arrays(m, n)
    left = np.concatenate([ka * n + pb, ka * n + qb])
    right = np.concatenate([la * n + qb, la * n + pb])
    return left, right


def _paired_coefficients(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """The paired coefficients of each (mn, mn) matrix of a (..., mn, mn)
    batch, shape (..., 2Q), laid out as ``_paired_positions`` lists them."""
    left, right = _paired_positions(m, n)
    return mat.reshape(*mat.shape[:-2], -1).take(left * (m * n) + right, axis=-1)


def _gamma_of_pairs(pairs: np.ndarray, n2: float) -> np.ndarray:
    """Gamma of each row of a (..., 2Q) batch of paired coefficients."""
    moduli = np.abs(pairs)
    half = moduli.shape[-1] // 2
    # take() leaves each row's terms contiguous, so a row sums in the order
    # np.sum takes on a single matrix's terms: batched values equal unbatched.
    return np.sqrt(n2 * ((moduli[..., :half] - moduli[..., half:]) ** 2).sum(axis=-1))


def _breakdown(mat: np.ndarray, dims: BipartiteDims, n2: float) -> GammaBreakdown:
    pairs = _paired_coefficients(mat, dims.m, dims.n)
    plus, minus = np.abs(pairs).reshape(2, -1).tolist()
    return GammaBreakdown(
        terms=tuple(zip(plus, minus)), n2=n2, total=float(_gamma_of_pairs(pairs, n2))
    )


def gamma(rho: DensityOperator, cfg: MeasureConfig = PAPER_2X3) -> GammaBreakdown:
    """Gamma of a density operator, with the full per-term breakdown.

    For dims 2x3 the three terms pair the coefficient positions
    (1,5)-(2,4), (2,6)-(3,5) and (1,6)-(3,4).
    """
    return _breakdown(rho.mat, rho.dims, cfg.n2)


def gamma_pure(psi: PureState, cfg: MeasureConfig = PAPER_2X3) -> GammaBreakdown:
    """Gamma computed directly from amplitudes: coefficient pairs are
    |amp[k,p] * conj(amp[l,q])| and |amp[k,q] * conj(amp[l,p])|.

    The products are the entries of |psi><psi|, so this equals
    ``gamma(pure_to_density(psi))`` bit for bit.
    """
    v = psi.amp.reshape(-1)
    return _breakdown(np.outer(v, v.conj()), psi.dims, cfg.n2)


def i_concurrence(psi: PureState) -> float:
    """I-concurrence sqrt(2 * (tr(rho_A)^2 - tr(rho_A^2))) of a pure state.

    For a normalized state tr(rho_A) = 1, and this is the textbook
    sqrt(2 * (1 - tr(rho_A^2))).  Taking the trace from the amplitudes
    keeps the value free of the norm, so a product state whose norm is an
    ulp short still reads 0 when rho_A's entries are exact (the 1 - purity
    form read about 3e-8 there).  Rounding inside tr(rho_A^2) remains:
    generic products can read up to about 3e-8.
    """
    red = psi.amp @ psi.amp.conj().T
    trace = float(np.trace(red).real)
    purity = float(np.trace(red @ red).real)
    return math.sqrt(max(0.0, 2.0 * (trace * trace - purity)))


def concurrence_general(psi: PureState, prefactor: float = 4.0) -> float:
    """sqrt(prefactor * sum of squared 2x2 amplitude minors) over k<l, p<q.

    The canonical prefactor 4 makes this equal I-concurrence: by
    Cauchy-Binet the minor sum equals the pairwise sum of reduced-state
    eigenvalue products, i.e. (1 - tr(rho_A^2)) / 2.
    """
    if not prefactor > 0:
        raise ValueError(f"prefactor must be positive, got {prefactor}")
    amp = psi.amp
    ka, la, pb, qb = _quadruple_arrays(psi.dims.m, psi.dims.n)
    minors = amp[ka, pb] * amp[la, qb] - amp[ka, qb] * amp[la, pb]
    return math.sqrt(prefactor * float(np.sum(np.abs(minors) ** 2)))


def concurrence_2x3(psi: PureState) -> float:
    """Qubit-qutrit concurrence sqrt(2 * (|m12|^2 + |m13|^2 + |m23|^2)),
    the three m's being the 2x2 minors of the amplitude matrix."""
    if (psi.dims.m, psi.dims.n) != (2, 3):
        raise ValueError(
            f"concurrence_2x3 requires dims 2x3, got {psi.dims.label()}"
        )
    return concurrence_general(psi, prefactor=2.0)


def gamma_schmidt(psi: PureState | SchmidtDecomposition,
                  cfg: MeasureConfig = PAPER_2X3) -> float:
    """Gamma evaluated in the Schmidt basis: sqrt(n2 * sum_{i<j} l_i * l_j).

    In the Schmidt basis the amplitude matrix is diagonal, so the only
    surviving coefficient pairs are the diagonal products.  With n2 = 4
    this equals I-concurrence identically.  ``psi`` may be passed as its
    Schmidt decomposition, so a caller that has one does not decompose again.
    """
    dec = psi if isinstance(psi, SchmidtDecomposition) else schmidt(psi)
    lam = np.array(dec.coefficients)
    pair_sum = (float(lam.sum()) ** 2 - float(np.sum(lam**2))) / 2.0
    return math.sqrt(cfg.n2 * max(0.0, pair_sum))
