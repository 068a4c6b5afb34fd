import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bellgamma as bg
from bellgamma.linalg import BipartiteDims, as_complex_matrix


def test_level_pairs_are_the_ordered_pairs_k_below_l():
    assert bg.level_pairs(2) == ((1, 2),)
    assert bg.level_pairs(3) == ((1, 2), (1, 3), (2, 3))
    for d in range(2, 7):
        pairs = bg.level_pairs(d)
        assert len(pairs) == d * (d - 1) // 2
        assert list(pairs) == sorted(pairs)
        assert all(1 <= k < l <= d for k, l in pairs)


def test_coeff_quadruples_cross_the_level_pairs_of_a_and_b():
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 4), (4, 4)]:
        quads = bg.coeff_quadruples(m, n)
        assert quads == tuple(
            (k, l, p, q) for k, l in bg.level_pairs(m) for p, q in bg.level_pairs(n)
        )
        assert len(quads) == m * (m - 1) * n * (n - 1) // 4


def test_kron_identity_blocks():
    assert bg.matrices_close(bg.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_scalar_factor():
    a = np.array([[0, 1], [0, 0]])
    assert bg.matrices_close(bg.kron(a, np.array([[1]])), a)


def test_kron_single_entry_by_hand():
    # block (0,0) of the result is a[0,0] * b, so the lone 1 of b lands at
    # row 1, col 1 (0-based) of the 4x4 product.
    a = np.array([[1, 0], [0, 0]])
    b = np.array([[0, 0], [0, 1]])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert bg.matrices_close(bg.kron(a, b), expected)


@given(seed=st.integers(0, 2**32 - 1))
def test_kron_mixed_product_rule(seed):
    rng = np.random.default_rng(seed)
    a, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in "ac")
    b, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in "bd")
    assert bg.matrices_close(bg.kron(a, b) @ bg.kron(c, d), bg.kron(a @ c, b @ d))


def test_kron_associative():
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    a, b, c = mats
    assert bg.matrices_close(bg.kron(bg.kron(a, b), c), bg.kron(a, bg.kron(b, c)))


def _brute_trace_over_b(rho, dims):
    red = np.zeros((dims.m, dims.m), dtype=complex)
    for k in range(dims.m):
        for l in range(dims.m):
            for p in range(dims.n):
                red[k, l] += rho[k * dims.n + p, l * dims.n + p]
    return red


def test_partial_trace_product_factorization():
    dims = bg.BipartiteDims(2, 3)
    proj = np.zeros((2, 2), dtype=complex)
    proj[0, 0] = 1.0
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho = bg.kron(proj, sigma)
    assert bg.matrices_close(bg.partial_trace(rho, dims, "b"), proj)
    assert bg.matrices_close(bg.partial_trace(rho, dims, "a"), sigma)


def test_partial_trace_bell_reduction():
    dims = bg.BipartiteDims(2, 2)
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    assert bg.matrices_close(bg.partial_trace(rho, dims, "b"), np.eye(2) / 2)


def test_partial_trace_three_term_state(three_term_2x3):
    rho = bg.pure_to_density(three_term_2x3).mat
    dims = three_term_2x3.dims
    expected = np.array([[2 / 3, 0], [0, 1 / 3]], dtype=complex)
    got = bg.partial_trace(rho, dims, "b")
    assert bg.matrices_close(got, expected)
    assert bg.matrices_close(got, _brute_trace_over_b(rho, dims))


@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_preserves_trace(seed):
    dims = bg.BipartiteDims(2, 3)
    rng = np.random.default_rng(seed)
    rho = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for which in ("a", "b"):
        assert abs(np.trace(bg.partial_trace(rho, dims, which)) - np.trace(rho)) < 1e-12


def test_partial_trace_dimension_mismatch_message():
    dims = bg.BipartiteDims(2, 3)
    with pytest.raises(ValueError, match="expected 6x6.*got 4x4"):
        bg.partial_trace(np.eye(4), dims, "b")


@pytest.mark.parametrize(
    "k,p,dims,expected",
    [
        (1, 1, (2, 2), 1),
        (1, 1, (3, 4), 1),
        (1, 3, (2, 3), 3),
        (2, 1, (2, 3), 4),
        (2, 2, (3, 3), 5),
    ],
)
def test_pair_index_examples(k, p, dims, expected):
    assert bg.pair_index(k, p, bg.BipartiteDims(*dims)) == expected


@given(m=st.integers(2, 5), n=st.integers(2, 5))
def test_pair_index_bijection(m, n):
    dims = bg.BipartiteDims(m, n)
    seen = {bg.pair_index(k, p, dims) for k in range(1, m + 1) for p in range(1, n + 1)}
    assert seen == set(range(1, m * n + 1))
    for i in sorted(seen):
        k, p = bg.level_pair(i, dims)
        assert bg.pair_index(k, p, dims) == i


def test_pair_index_matches_kron_basis_ordering():
    dims = bg.BipartiteDims(2, 3)
    for k in range(1, 3):
        for p in range(1, 4):
            e_k = np.zeros((2, 1)); e_k[k - 1] = 1.0
            e_p = np.zeros((3, 1)); e_p[p - 1] = 1.0
            joint = bg.kron(e_k, e_p).ravel()
            assert joint[bg.pair_index(k, p, dims) - 1] == 1.0


def test_pair_index_out_of_range():
    dims = bg.BipartiteDims(2, 3)
    with pytest.raises(ValueError):
        bg.pair_index(3, 1, dims)
    with pytest.raises(ValueError):
        bg.pair_index(1, 4, dims)


def test_is_density_operator_accepts_maximally_mixed():
    check = bg.is_density_operator(np.eye(4) / 4)
    assert check.ok and bool(check)
    assert check.failures == ()


def test_is_density_operator_rejects_non_hermitian():
    check = bg.is_density_operator(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not check.ok
    assert not check.hermitian
    assert any("Hermitian" in f for f in check.failures)


def test_is_density_operator_rejects_negative_eigenvalue():
    check = bg.is_density_operator(np.diag([1.5, -0.5]))
    assert not check.ok
    assert check.hermitian and check.unit_trace
    assert check.min_eigenvalue == pytest.approx(-0.5)


def test_is_density_operator_requires_square():
    with pytest.raises(ValueError, match="square"):
        bg.is_density_operator(np.ones((2, 3)))


def test_dims_validation_and_parse():
    with pytest.raises(ValueError):
        BipartiteDims(1, 3)
    assert BipartiteDims.parse("3x4") == BipartiteDims(3, 4)
    with pytest.raises(ValueError):
        BipartiteDims.parse("3by4")


@pytest.mark.parametrize("text", ["2x3", "2X3", "02x3"])
def test_dims_parse_reads_ascii_digits_around_x(text):
    assert BipartiteDims.parse(text) == BipartiteDims(2, 3)


@pytest.mark.parametrize("text", ["0_2x3", "+2x3", " 2x3", "2x3 ", "2 x 3", "2x3\n",
                                  "\uff12x3", "2x\u0663", "x3", "2x", "2xx3", "2x3x4", ""])
def test_dims_parse_refuses_what_int_alone_would_accept(text):
    with pytest.raises(ValueError, match="expected dims like '2x3'"):
        BipartiteDims.parse(text)


def test_as_complex_matrix_rejects_vectors():
    with pytest.raises(ValueError):
        as_complex_matrix(np.arange(4))
