import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bellgamma as bg


def test_pure_state_rejects_unnormalized():
    dims = bg.BipartiteDims(2, 2)
    with pytest.raises(ValueError, match="not normalized"):
        bg.PureState(dims, np.ones((2, 2), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    dims = bg.BipartiteDims(2, 2)
    with pytest.raises(ValueError, match="finite"):
        bg.PureState(dims, np.full((2, 2), bad, dtype=complex))
    amp = np.eye(2, dtype=complex) / np.sqrt(2)
    amp[0, 1] = complex(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        bg.PureState(dims, amp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_operator_rejects_non_finite_entries(bad):
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        bg.DensityOperator(bg.BipartiteDims(2, 2), mat)


def test_pure_state_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        bg.PureState(bg.BipartiteDims(2, 3), np.eye(2) / np.sqrt(2))


def test_pure_to_density_basis_state():
    dims = bg.BipartiteDims(2, 2)
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1.0
    rho = bg.pure_to_density(bg.PureState(dims, amp))
    assert bg.matrices_close(rho.mat, np.diag([1.0, 0, 0, 0]))


def test_pure_to_density_bell_2x3_entries(bell_2x3):
    rho = bg.pure_to_density(bell_2x3).mat
    # joint indices via pair_index: (1,1) -> 1 and (2,2) -> 5
    expected = np.zeros((6, 6), dtype=complex)
    for i in (0, 4):
        for j in (0, 4):
            expected[i, j] = 0.5
    assert bg.matrices_close(rho, expected)


@given(seed=st.integers(0, 2**32 - 1))
def test_pure_to_density_is_rank_one_projector(seed):
    psi = bg.random_pure(bg.BipartiteDims(2, 3), seed)
    rho = bg.pure_to_density(psi).mat
    assert abs(np.trace(rho) - 1) < 1e-12
    assert bg.matrices_close(rho @ rho, rho, tol=1e-10)


def test_product_state_maximally_mixed_factors():
    rho = bg.product_state(np.eye(2) / 2, np.eye(3) / 3)
    assert rho.dims == bg.BipartiteDims(2, 3)
    assert bg.matrices_close(rho.mat, np.eye(6) / 6)


def test_product_state_basis_projectors():
    a = np.zeros((2, 2), dtype=complex); a[0, 0] = 1.0
    b = np.zeros((3, 3), dtype=complex); b[1, 1] = 1.0
    rho = bg.product_state(a, b)
    # |12><12| sits at joint index 2
    expected = np.zeros((6, 6), dtype=complex)
    expected[1, 1] = 1.0
    assert bg.matrices_close(rho.mat, expected)


def test_product_state_rejects_bad_factor():
    with pytest.raises(ValueError, match="factor B.*Hermitian"):
        bg.product_state(np.eye(2) / 2, np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_bell_vector_named_states(dims_2x3):
    psi1 = bg.bell_vector(bg.BellState(1, 2, 1, 2, 1), dims_2x3)
    assert psi1[0] == pytest.approx(1 / np.sqrt(2))
    assert psi1[4] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(psi1) == 2

    phi2 = bg.bell_vector(bg.BellState(1, 2, 1, 3, -1), dims_2x3)
    assert phi2[0] == pytest.approx(1 / np.sqrt(2))
    assert phi2[5] == pytest.approx(-1 / np.sqrt(2))


@given(
    data=st.tuples(
        st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6), st.booleans()
    )
)
def test_bell_vector_unit_norm(data):
    m, n, pick, plus = data
    dims = bg.BipartiteDims(m, n)
    fam = bg.enumerate_bell(dims).states
    b = fam[pick % len(fam)]
    v = bg.bell_vector(b, dims)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_bell_density_off_diagonal_structure(dims_2x3):
    b = bg.BellState(1, 2, 2, 3, -1)
    rho = bg.pure_to_density(
        bg.PureState.from_vector(bg.bell_vector(b, dims_2x3), dims_2x3)
    ).mat
    i = bg.pair_index(1, 2, dims_2x3) - 1
    j = bg.pair_index(2, 3, dims_2x3) - 1
    assert rho[i, j] == pytest.approx(-0.5)
    off = rho - np.diag(np.diag(rho))
    off[i, j] = off[j, i] = 0.0
    assert np.max(np.abs(off)) < 1e-15


def test_max_entangled_examples():
    assert bg.schmidt(bg.max_entangled(1, bg.BipartiteDims(2, 3))).rank == 1
    bell = bg.max_entangled(2, bg.BipartiteDims(2, 2))
    assert bg.matrices_close(
        bell.vector().reshape(-1, 1),
        bg.bell_vector(bg.BellState(1, 2, 1, 2, 1), bg.BipartiteDims(2, 2)).reshape(-1, 1),
    )
    lam = bg.schmidt(bg.max_entangled(3, bg.BipartiteDims(3, 3))).coefficients
    assert np.allclose(lam, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_max_entangled_rank_bound():
    with pytest.raises(ValueError):
        bg.max_entangled(3, bg.BipartiteDims(2, 3))


def test_schmidt_product_state_rank_one():
    dims = bg.BipartiteDims(2, 3)
    amp = np.outer([1, 0], [0, 1, 0]).astype(complex)
    dec = bg.schmidt(bg.PureState(dims, amp))
    assert dec.rank == 1
    assert dec.coefficients[0] == pytest.approx(1.0)


def test_schmidt_three_term_state(three_term_2x3):
    dec = bg.schmidt(three_term_2x3)
    # independent oracle: eigenvalues of the reduced state
    red = bg.partial_trace(bg.pure_to_density(three_term_2x3).mat, three_term_2x3.dims, "b")
    oracle = sorted(np.linalg.eigvalsh(red), reverse=True)
    assert np.allclose(dec.coefficients, oracle, atol=1e-12)
    assert np.allclose(dec.coefficients, [2 / 3, 1 / 3], atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
def test_schmidt_reconstruction_and_sum(seed):
    psi = bg.random_pure(bg.BipartiteDims(3, 4), seed)
    dec = bg.schmidt(psi)
    assert abs(sum(dec.coefficients) - 1.0) < 1e-10
    root = np.zeros((3, 4))
    np.fill_diagonal(root, np.sqrt(dec.coefficients[:3]))
    rebuilt = dec.basis_a @ root @ dec.basis_b.conj().T
    assert bg.matrices_close(rebuilt, psi.amp, tol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
def test_schmidt_coefficients_local_invariant(seed):
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, seed)
    u = bg.random_local_unitary(dims, seed + 1)
    before = np.array(bg.schmidt(psi).coefficients)
    after = np.array(bg.schmidt(bg.apply_local(psi, u)).coefficients)
    assert np.max(np.abs(np.sort(before) - np.sort(after))) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_reduced_purities_agree(seed):
    dims = bg.BipartiteDims(3, 4)
    rho = bg.pure_to_density(bg.random_pure(dims, seed)).mat
    ra = bg.partial_trace(rho, dims, "b")
    rb = bg.partial_trace(rho, dims, "a")
    assert abs(np.trace(ra @ ra) - np.trace(rb @ rb)) < 1e-12


def test_random_generators_are_seed_deterministic():
    dims = bg.BipartiteDims(3, 3)
    assert np.array_equal(bg.random_pure(dims, 5).amp, bg.random_pure(dims, 5).amp)
    assert np.array_equal(
        bg.random_product(dims, 5).mat, bg.random_product(dims, 5).mat
    )
    u1 = bg.random_local_unitary(dims, 5)
    u2 = bg.random_local_unitary(dims, 5)
    assert np.array_equal(u1.u_a, u2.u_a) and np.array_equal(u1.u_b, u2.u_b)
    assert not np.array_equal(bg.random_pure(dims, 5).amp, bg.random_pure(dims, 6).amp)


@given(seed=st.integers(0, 2**32 - 1))
def test_random_pure_normalized(seed):
    psi = bg.random_pure(bg.BipartiteDims(2, 2), seed)
    assert abs(np.linalg.norm(psi.amp) - 1.0) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
def test_random_local_unitary_is_unitary(seed):
    u = bg.random_local_unitary(bg.BipartiteDims(3, 4), seed)
    assert bg.matrices_close(u.u_a.conj().T @ u.u_a, np.eye(3), tol=1e-12)
    assert bg.matrices_close(u.u_b.conj().T @ u.u_b, np.eye(4), tol=1e-12)


def test_random_product_and_density_are_valid():
    dims = bg.BipartiteDims(2, 3)
    for seed in range(3):
        assert bg.is_density_operator(bg.random_product(dims, seed).mat, tol=1e-9)
        assert bg.is_density_operator(bg.random_density(dims, seed).mat, tol=1e-9)
