"""Construction of pure states, density operators, Bell states and
Schmidt decompositions, plus seeded random ensembles.

A pure bipartite state is held as its m x n amplitude matrix ``amp`` with
``amp[k-1, p-1]`` the amplitude of level pair (k, p); the joint state
vector is the row-major flattening of ``amp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    BipartiteDims,
    as_complex_matrix,
    is_density_operator,
    kron,
    pair_index,
)

#: Tolerance on the squared norm of amplitudes at construction time.
NORM_TOL = 1e-9

#: Tolerance for density-operator validity at construction time.
DENSITY_TOL = 1e-9

#: Singular values below this count as zero when deciding Schmidt rank.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of an m x n bipartite system."""

    dims: BipartiteDims
    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = as_complex_matrix(self.amp)
        if amp.shape != (self.dims.m, self.dims.n):
            raise ValueError(
                f"amplitude matrix shape {amp.shape} does not match dims "
                f"{self.dims.label()}"
            )
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"amplitudes not normalized: sum |amp|^2 = {norm_sq!r} "
                f"(tolerance {NORM_TOL})"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    @classmethod
    def from_vector(cls, vec, dims: BipartiteDims) -> "PureState":
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if v.size != dims.size:
            raise ValueError(
                f"state vector length {v.size} does not match dims {dims.label()}"
            )
        return cls(dims, v.reshape(dims.m, dims.n))

    def vector(self) -> np.ndarray:
        """Joint state vector (row-major flattening of the amplitudes)."""
        return self.amp.reshape(-1).copy()


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite joint-state operator."""

    dims: BipartiteDims
    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = as_complex_matrix(self.mat)
        size = self.dims.size
        if mat.shape != (size, size):
            raise ValueError(
                f"expected {size}x{size} matrix for dims {self.dims.label()}, "
                f"got {mat.shape[0]}x{mat.shape[1]}"
            )
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        check = is_density_operator(mat, tol=DENSITY_TOL)
        if not check:
            raise ValueError("invalid density operator: " + "; ".join(check.failures))
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


@dataclass(frozen=True)
class BellState:
    """Two-term superposition (|kp> + sign*|lq>)/sqrt(2) with k < l, p != q."""

    k: int
    l: int
    p: int
    q: int
    sign: int

    def __post_init__(self) -> None:
        if not self.k < self.l:
            raise ValueError(f"A levels must satisfy k < l, got k={self.k}, l={self.l}")
        if self.p == self.q:
            raise ValueError(f"B levels must differ, got p=q={self.p}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def label(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"(|{self.k}{self.p}> {s} |{self.l}{self.q}>)/sqrt(2)"


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt form of a pure state.

    ``coefficients`` are the squared Schmidt coefficients (eigenvalues of the
    reduced state), descending and summing to 1.  ``basis_a`` and ``basis_b``
    are unitaries whose columns are the Schmidt vectors, chosen so that
    ``basis_a @ diag(sqrt(coefficients)) @ basis_b.conj().T`` reconstructs the
    amplitude matrix.  Because amplitude matrices transform as
    ``u_a @ amp @ u_b.T``, the local rotation that diagonalizes the state is
    ``(basis_a.conj().T, basis_b.T)``; see ``schmidt_rotation``.
    """

    coefficients: tuple[float, ...]
    basis_a: np.ndarray
    basis_b: np.ndarray
    rank: int


def pure_to_density(psi: PureState) -> DensityOperator:
    """Projector |psi><psi| with joint ordering given by ``pair_index``."""
    v = psi.vector()
    return DensityOperator(psi.dims, np.outer(v, v.conj()))


def product_state(rho_a, rho_b) -> DensityOperator:
    """Tensor product of two single-subsystem density operators."""
    a = as_complex_matrix(rho_a)
    b = as_complex_matrix(rho_b)
    for name, mat in (("A", a), ("B", b)):
        check = is_density_operator(mat, tol=DENSITY_TOL)
        if not check:
            raise ValueError(
                f"factor {name} is not a density operator: "
                + "; ".join(check.failures)
            )
    dims = BipartiteDims(a.shape[0], b.shape[0])
    return DensityOperator(dims, kron(a, b))


def bell_vector(b: BellState, dims: BipartiteDims) -> np.ndarray:
    """Joint state vector of a Bell state (unit norm)."""
    v = np.zeros(dims.size, dtype=np.complex128)
    v[pair_index(b.k, b.p, dims) - 1] = 1.0 / np.sqrt(2.0)
    v[pair_index(b.l, b.q, dims) - 1] = b.sign / np.sqrt(2.0)
    return v


def max_entangled(k_rank: int, dims: BipartiteDims) -> PureState:
    """Rank-K state with amplitudes 1/sqrt(K) on the first K diagonal pairs."""
    if not (1 <= k_rank <= min(dims.m, dims.n)):
        raise ValueError(
            f"rank {k_rank} out of range 1..{min(dims.m, dims.n)} for dims "
            f"{dims.label()}"
        )
    amp = np.zeros((dims.m, dims.n), dtype=np.complex128)
    for i in range(k_rank):
        amp[i, i] = 1.0 / np.sqrt(k_rank)
    return PureState(dims, amp)


def schmidt(psi: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the amplitude matrix.

    SVD gives both local bases at once and is numerically stabler for
    near-degenerate coefficients than diagonalizing the reduced states.  No
    canonical basis is promised for degenerate coefficients.
    """
    u, s, vh = np.linalg.svd(psi.amp, full_matrices=True)
    lam = tuple(float(x) for x in s**2)
    rank = int(np.sum(s > RANK_TOL))
    return SchmidtDecomposition(
        coefficients=lam, basis_a=u, basis_b=vh.conj().T, rank=rank
    )


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal is phase-fixed so the distribution is exactly Haar rather
    than merely column-orthonormal.
    """
    return _haar_from_gaussian(_complex_gaussian(rng, (d, d)))


def _haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Phase-fixed Q factor of each (d, d) complex Gaussian matrix of ``z``."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def random_pure(dims: BipartiteDims, seed) -> PureState:
    """Rotation-invariant random pure state (normalized complex Gaussian)."""
    rng = np.random.default_rng(seed)
    amp = _complex_gaussian(rng, (dims.m, dims.n))
    amp /= np.linalg.norm(amp)
    return PureState(dims, amp)


def _random_density_mat(d: int, rng: np.random.Generator) -> np.ndarray:
    g = _complex_gaussian(rng, (d, d))
    h = g @ g.conj().T
    return h / h.trace()


def random_product(dims: BipartiteDims, seed) -> DensityOperator:
    """Product of two independent random density factors."""
    rng = np.random.default_rng(seed)
    a = _random_density_mat(dims.m, rng)
    b = _random_density_mat(dims.n, rng)
    return DensityOperator(dims, kron(a, b))


def random_density(dims: BipartiteDims, seed) -> DensityOperator:
    """Full-rank random mixed state (normalized Wishart matrix)."""
    rng = np.random.default_rng(seed)
    return DensityOperator(dims, _random_density_mat(dims.size, rng))
