"""Dense complex linear algebra shared by every other module.

All matrices are plain ``numpy.ndarray`` of ``complex128`` in row-major
(C) order.  Public indices are 1-based, mirroring the usual physics
convention for density-matrix coefficients: :func:`pair_index` and
:func:`level_pair` map level pairs to 1-based joint indices and back.  Each
array lookup shifts to 0-based storage itself: ``_quadruple_arrays`` here,
``bell._positions``, ``bell._plan_positions``, ``phase_povm._factor_stacks``,
``local_unitary._generator_anchors`` and ``states.bell_vector``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Default absolute tolerance for matrix comparisons.  Every matrix in this
#: package is at most a few tens of rows, so accumulated rounding stays far
#: below this.
DEFAULT_TOL = 1e-12

_DIMS_LABEL = re.compile(r"([0-9]+)[xX]([0-9]+)")


@dataclass(frozen=True)
class BipartiteDims:
    """Dimensions (m, n) of the two subsystems of an m x n bipartite space."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise ValueError(
                f"subsystem dimensions must both be >= 2, got {self.m}x{self.n}"
            )

    @property
    def size(self) -> int:
        return self.m * self.n

    def label(self) -> str:
        return f"{self.m}x{self.n}"

    @classmethod
    def parse(cls, text: str) -> "BipartiteDims":
        """Parse a label like ``"2x3"`` into dimensions: ASCII digits, ``x``
        or ``X``, ASCII digits, and nothing else.  ``int`` alone would also
        take signs, underscores, spaces and non-ASCII digits."""
        match = _DIMS_LABEL.fullmatch(text)
        if match is None:
            raise ValueError(f"expected dims like '2x3', got {text!r}")
        return cls(int(match[1]), int(match[2]))


#: Largest subsystem dimension a state file or ``conjecture --dims`` may
#: name; library calls are not bounded.  The supremum search's largest
#: temporary is the sweep-end rotation's (R, MN, MN, MN) product for R
#: restarts: 2 MB at 5x5 with 8 restarts, 128 MB at 10x10.  A default
#: density search took 1.4 s at 5x5 (2 cores), and the tests cover every
#: dims up to 5x5.
MAX_INPUT_DIM = 5


def check_input_dims(dims: BipartiteDims) -> None:
    """Raise ValueError unless both subsystem dimensions are at most
    ``MAX_INPUT_DIM``."""
    if max(dims.m, dims.n) > MAX_INPUT_DIM:
        raise ValueError(
            f"subsystem dimensions must both be at most {MAX_INPUT_DIM}, "
            f"got {dims.label()}"
        )


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array (copying, C order)."""
    arr = np.array(a, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    return arr


def matrices_close(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise comparison with absolute tolerance (never exact equality)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result equals a[i, j] * b."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def pair_index(k: int, p: int, dims: BipartiteDims) -> int:
    """1-based joint index of level pair (k, p): returns (k-1)*n + p.

    Consistent with :func:`kron` ordering: the joint basis vector at this
    index is kron(e_k, e_p).
    """
    if not (1 <= k <= dims.m):
        raise ValueError(f"A level k={k} out of range 1..{dims.m}")
    if not (1 <= p <= dims.n):
        raise ValueError(f"B level p={p} out of range 1..{dims.n}")
    return (k - 1) * dims.n + p


def level_pair(i: int, dims: BipartiteDims) -> tuple[int, int]:
    """Inverse of :func:`pair_index` (1-based joint index to levels)."""
    if not (1 <= i <= dims.size):
        raise ValueError(f"joint index {i} out of range 1..{dims.size}")
    k, p = divmod(i - 1, dims.n)
    return k + 1, p + 1


def partial_trace(rho, dims: BipartiteDims, which: str) -> np.ndarray:
    """Trace out subsystem ``which`` ("a" or "b") of a joint operator.

    Tracing over B returns the m x m reduced matrix, tracing over A the
    n x n one; the trace is preserved either way.
    """
    mat = as_complex_matrix(rho)
    size = dims.size
    if mat.shape != (size, size):
        raise ValueError(
            f"expected {size}x{size} matrix for dims {dims.label()}, "
            f"got {mat.shape[0]}x{mat.shape[1]}"
        )
    r4 = mat.reshape(dims.m, dims.n, dims.m, dims.n)
    sel = which.lower()
    if sel == "b":
        return np.einsum("kplp->kl", r4)
    if sel == "a":
        return np.einsum("kpkq->pq", r4)
    raise ValueError(f"subsystem selector must be 'a' or 'b', got {which!r}")


@dataclass(frozen=True)
class DensityCheck:
    """Diagnostic result of a density-operator validity check."""

    hermitian: bool
    unit_trace: bool
    positive: bool
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return self.hermitian and self.unit_trace and self.positive

    @property
    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.hermitian:
            out.append(f"not Hermitian (max asymmetry {self.hermiticity_error:.3e})")
        if not self.unit_trace:
            out.append(f"trace differs from 1 by {self.trace_error:.3e}")
        if not self.positive:
            out.append(f"negative eigenvalue {self.min_eigenvalue:.3e}")
        return tuple(out)

    def __bool__(self) -> bool:
        return self.ok


def is_density_operator(rho, tol: float = DEFAULT_TOL) -> DensityCheck:
    """Check Hermiticity, unit trace and positivity (within ``tol``).

    Positivity is decided from the eigenvalues of the Hermitian part so the
    diagnostic minimum eigenvalue is meaningful for near-boundary states.
    """
    mat = as_complex_matrix(rho)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"density operator must be square, got {mat.shape}")
    herm_err = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
    trace_err = float(abs(mat.trace() - 1.0))
    herm_part = 0.5 * (mat + mat.conj().T)
    min_eig = float(np.linalg.eigvalsh(herm_part)[0])
    return DensityCheck(
        hermitian=herm_err <= tol,
        unit_trace=trace_err <= tol,
        positive=min_eig >= -tol,
        hermiticity_error=herm_err,
        trace_error=trace_err,
        min_eigenvalue=min_eig,
    )


@lru_cache(maxsize=None)
def level_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """All 1-based level pairs (k, l) with k<l of a d-level subsystem, in
    lexicographic order.

    The one index set behind the measure (its quadruples), the phase
    operators (one phase per pair) and the lines of the supremum search
    (two one-parameter subgroups per pair).
    """
    return tuple((k, l) for k in range(1, d) for l in range(k + 1, d + 1))


@lru_cache(maxsize=None)
def coeff_quadruples(m: int, n: int) -> tuple[tuple[int, int, int, int], ...]:
    """All 1-based level quadruples (k, l, p, q) with k<l and p<q: the level
    pairs of A crossed with those of B, A's pair varying slowest."""
    return tuple((k, l, p, q) for k, l in level_pairs(m) for p, q in level_pairs(n))


@lru_cache(maxsize=None)
def _quadruple_arrays(m: int, n: int):
    """0-based index arrays (ka, la, pb, qb) over all coefficient quadruples."""
    quads = np.array(coeff_quadruples(m, n), dtype=np.intp)
    ka, la, pb, qb = (quads[:, i] - 1 for i in range(4))
    return ka, la, pb, qb
