import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgamma as bg

TWO_PI = 2 * math.pi

ROUTE_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2), (4, 4), (2, 5), (5, 5)]


# Reference: the per-point Fourier loop.  One factor build per grid angle,
# one einsum per (A angle, B angle) point and scalar accumulation of the
# weighted sums.  The library's matrix products add the same terms in
# another order, so it matches the loop to the last bits, within stated
# bounds about 18 times its worst measured difference.


def _reference_factor(phases, d):
    upper = np.zeros((d, d), dtype=complex)
    for (i, j), phi in phases.items():
        upper[i - 1, j - 1] = np.exp(1j * phi)
    return (np.eye(d) + upper + upper.conj().T) / TWO_PI


def _reference_pair(mat, dims, k, l, p, q, grid, base):
    r4 = mat.reshape(dims.m, dims.n, dims.m, dims.n)
    angles = TWO_PI * np.arange(grid) / grid
    a_ph = dict(base.a_phases)
    b_ph = dict(base.b_phases)
    das = []
    dbs = []
    for ang in angles:
        a_ph[(k, l)] = float(ang)
        das.append(_reference_factor(a_ph, dims.m))
        b_ph[(p, q)] = float(ang)
        dbs.append(_reference_factor(b_ph, dims.n))
    s_plus = 0.0 + 0.0j
    s_minus = 0.0 + 0.0j
    for ia, pa in enumerate(angles):
        for ib, pb in enumerate(angles):
            t = complex(np.einsum("kplq,lk,qp->", r4, das[ia], dbs[ib]))
            s_plus += np.exp(1j * (pa + pb)) * t
            s_minus += np.exp(1j * (pa - pb)) * t
    norm = grid * grid
    return s_plus / norm, s_minus / norm


def _reference_gamma_via_povm(rho, cfg, grid):
    base = bg.PhaseAssignment.zeros(rho.dims)
    acc = 0.0
    for k, l, p, q in bg.coeff_quadruples(rho.dims.m, rho.dims.n):
        s_plus, s_minus = _reference_pair(rho.mat, rho.dims, k, l, p, q, grid, base)
        acc += (abs(s_plus) - abs(s_minus)) ** 2
    return math.sqrt(cfg.n2 * bg.C_POVM * acc)


def _random_base(dims, rng):
    zeros = bg.PhaseAssignment.zeros(dims)
    return bg.PhaseAssignment(
        a_phases={pair: rng.uniform(0, TWO_PI) for pair in zeros.a_phases},
        b_phases={pair: rng.uniform(0, TWO_PI) for pair in zeros.b_phases},
    )


def test_delta_a_reference_matrices(dims_2x3):
    dims22 = bg.BipartiteDims(2, 2)
    flat = bg.delta_a({(1, 2): 0.0}, dims22)
    assert bg.matrices_close(flat, np.ones((2, 2)) / TWO_PI, tol=1e-14)
    quarter = bg.delta_a({(1, 2): math.pi / 2}, dims22)
    assert bg.matrices_close(
        quarter, np.array([[1, 1j], [-1j, 1]]) / TWO_PI, tol=1e-14
    )
    with pytest.raises(ValueError, match="cover"):
        bg.delta_b({(1, 2): 0.0}, dims_2x3)  # missing (1,3) and (2,3)


@given(seed=st.integers(0, 2**32 - 1))
def test_delta_factors_hermitian(seed):
    dims = bg.BipartiteDims(3, 4)
    rng = np.random.default_rng(seed)
    assignment = bg.PhaseAssignment(
        a_phases={k: rng.uniform(0, TWO_PI) for k in [(1, 2), (1, 3), (2, 3)]},
        b_phases={
            k: rng.uniform(0, TWO_PI)
            for k in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        },
    )
    joint = bg.delta_joint(assignment, dims)
    assert bg.matrices_close(joint, joint.conj().T, tol=1e-14)


def test_delta_joint_all_zero_phases():
    dims = bg.BipartiteDims(2, 2)
    joint = bg.delta_joint(bg.PhaseAssignment.zeros(dims), dims)
    assert bg.matrices_close(joint, np.ones((4, 4)) / TWO_PI**2, tol=1e-14)


def test_delta_expectation_is_real():
    dims = bg.BipartiteDims(2, 3)
    rho = bg.random_density(dims, 5)
    assignment = bg.PhaseAssignment.zeros(dims)
    val = np.einsum("ij,ji->", rho.mat, bg.delta_joint(assignment, dims))
    assert abs(val.imag) < 1e-14


def test_fourier_component_maximally_mixed_is_zero(dims_2x3):
    rho = bg.DensityOperator(dims_2x3, np.eye(6) / 6)
    for branch in "+-":
        comp = bg.fourier_component(rho, 1, 2, 1, 2, branch, grid=3)
        assert comp < 1e-14


def test_fourier_component_bell_state(bell_2x3):
    rho = bg.pure_to_density(bell_2x3)
    plus = bg.fourier_component(rho, 1, 2, 1, 2, "+", grid=3)
    assert type(plus) is float
    assert plus == pytest.approx(0.5 / TWO_PI**2, abs=1e-14)
    minus = bg.fourier_component(rho, 1, 2, 1, 2, "-", grid=3)
    assert minus < 1e-14


def test_fourier_component_grid_contract(bell_2x3):
    rho = bg.pure_to_density(bell_2x3)
    with pytest.raises(ValueError, match="grid too coarse"):
        bg.fourier_component(rho, 1, 2, 1, 2, "+", grid=2)
    with pytest.raises(ValueError):
        bg.fourier_component(rho, 2, 1, 1, 2, "+", grid=3)
    with pytest.raises(ValueError):
        bg.fourier_component(rho, 1, 2, 1, 2, "x", grid=3)


@pytest.mark.parametrize("branch", ["+", "-"])
def test_fourier_component_ignores_fixed_phase_values(branch):
    dims = bg.BipartiteDims(2, 3)
    rho = bg.random_density(dims, 11)
    base_values = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        base = bg.PhaseAssignment(
            a_phases={(1, 2): rng.uniform(0, TWO_PI)},
            b_phases={k: rng.uniform(0, TWO_PI) for k in [(1, 2), (1, 3), (2, 3)]},
        )
        comp = bg.fourier_component(rho, 1, 2, 2, 3, branch, grid=5, base=base)
        base_values.append(comp)
    assert base_values[0] == pytest.approx(base_values[1], abs=1e-12)


def test_fourier_component_matches_coefficient_readoff():
    dims = bg.BipartiteDims(2, 3)
    rho = bg.random_density(dims, 23)
    for k, l, p, q in bg.coeff_quadruples(2, 3):
        plus = bg.fourier_component(rho, k, l, p, q, "+", grid=4)
        minus = bg.fourier_component(rho, k, l, p, q, "-", grid=4)
        i, j = bg.pair_index(k, p, dims) - 1, bg.pair_index(l, q, dims) - 1
        assert plus == pytest.approx(abs(rho.mat[i, j]) / TWO_PI**2, abs=1e-13)
        i, j = bg.pair_index(k, q, dims) - 1, bg.pair_index(l, p, dims) - 1
        assert minus == pytest.approx(abs(rho.mat[i, j]) / TWO_PI**2, abs=1e-13)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_route_equivalence_random_states(dims):
    d = bg.BipartiteDims(*dims)
    cfg = bg.PAPER_2X3
    for seed in range(4):
        rho_pure = bg.pure_to_density(bg.random_pure(d, seed))
        rho_mixed = bg.random_density(d, seed + 100)
        for rho in (rho_pure, rho_mixed):
            direct = bg.gamma(rho, cfg).total
            via = bg.gamma_via_povm(rho, cfg, grid=3)
            assert abs(direct - via) < 1e-10


def test_route_equivalence_product_states():
    for seed in range(3):
        rho = bg.random_product(bg.BipartiteDims(2, 3), seed)
        assert bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=4) < 1e-10


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_grid_independence(seed):
    rho = bg.random_density(bg.BipartiteDims(2, 3), seed)
    a = bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=3)
    b = bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=8)
    assert abs(a - b) < 1e-12


def test_gamma_via_povm_grid_contract(bell_2x3):
    rho = bg.pure_to_density(bell_2x3)
    with pytest.raises(ValueError, match="grid too coarse"):
        bg.gamma_via_povm(rho, grid=2)


def test_povm_constant_on_bell_state():
    dims = bg.BipartiteDims(2, 2)
    vec = bg.bell_vector(bg.BellState(1, 2, 1, 2, 1), dims)
    rho = bg.pure_to_density(bg.PureState.from_vector(vec, dims))
    direct = bg.gamma(rho, bg.PAPER_2X3).total
    via = bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=3)
    assert abs(direct - via) <= 1e-12


@pytest.mark.parametrize("grid", [3, 4, 5, 8])
@pytest.mark.parametrize("dims", ROUTE_DIMS)
def test_gamma_via_povm_equals_per_point_loop(dims, grid):
    d = bg.BipartiteDims(*dims)
    for seed in range(2):
        for rho in (
            bg.pure_to_density(bg.random_pure(d, seed)),
            bg.random_density(d, seed + 100),
        ):
            want = _reference_gamma_via_povm(rho, bg.PAPER_2X3, grid)
            assert abs(bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=grid) - want) <= 1e-14


@pytest.mark.parametrize("dims", ROUTE_DIMS)
def test_fourier_component_equals_per_point_loop(dims):
    d = bg.BipartiteDims(*dims)
    rng = np.random.default_rng(7)
    rho = bg.random_density(d, 31)
    for grid in (3, 4, 5, 8):
        base = _random_base(d, rng)
        for k, l, p, q in bg.coeff_quadruples(d.m, d.n):
            s_plus, s_minus = _reference_pair(rho.mat, d, k, l, p, q, grid, base)
            for branch, want in (("+", s_plus), ("-", s_minus)):
                got = bg.fourier_component(rho, k, l, p, q, branch, grid=grid, base=base)
                assert abs(got - abs(want)) <= 1e-16


@pytest.mark.parametrize("dims", ROUTE_DIMS)
def test_gamma_via_povm_builds_each_level_pair_stack_once(dims, monkeypatch):
    # One batched build per side, and none for B when it has A's dimension.
    d = bg.BipartiteDims(*dims)
    built = []
    build = bg.phase_povm._factor_stacks

    def counted(dim, upper):
        stacks = build(dim, upper)
        built.append(len(stacks))
        return stacks

    monkeypatch.setattr(bg.phase_povm, "_factor_stacks", counted)
    bg.gamma_via_povm(bg.random_density(d, 3), bg.PAPER_2X3, grid=4)
    pairs = d.m * (d.m - 1) // 2
    assert built == ([pairs] if d.n == d.m else [pairs, d.n * (d.n - 1) // 2])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("grid", [3, 4, 7])
def test_pair_stacks_equal_the_per_pair_stacks(dim, grid):
    # Every factor the one builder writes, against the reference's
    # conj-transpose add.  Direct writes may flip the sign of a zero
    # imaginary part, which array_equal ignores and no product can see.
    dims = bg.BipartiteDims(dim, dim)
    rng = np.random.default_rng(100 * dim + grid)
    phases = {pair: rng.uniform(0, TWO_PI) for pair in bg.level_pairs(dim)}
    want = _reference_factor(phases, dim)
    assert np.array_equal(bg.delta_a(phases, dims), want)
    assert np.array_equal(bg.delta_b(phases, dims), want)
    angles = TWO_PI * np.arange(grid) / grid
    captured = []
    build = bg.phase_povm._factor_stacks

    def capture(d, upper):
        captured.append(build(d, upper))
        return captured[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bg.phase_povm, "_factor_stacks", capture)
        bg.gamma_via_povm(bg.random_density(dims, 0), grid=grid)
    zeros = dict.fromkeys(bg.level_pairs(dim), 0.0)
    (stacks,) = captured
    assert stacks.shape == (len(zeros), grid, dim, dim)
    for stack, pair in zip(stacks, zeros):
        for factor, angle in zip(stack, angles):
            assert np.array_equal(factor, _reference_factor({**zeros, pair: angle}, dim))


def test_grid_above_the_cap_is_refused(bell_2x3):
    rho = bg.pure_to_density(bell_2x3)
    cap = bg.phase_povm.MAX_GRID
    assert bg.gamma_via_povm(rho, grid=cap) == pytest.approx(bg.gamma(rho).total, abs=1e-12)
    with pytest.raises(ValueError, match="grid too fine"):
        bg.gamma_via_povm(rho, grid=cap + 1)
    with pytest.raises(ValueError, match="grid too fine"):
        bg.fourier_component(rho, 1, 2, 1, 2, "+", grid=cap + 1)


def test_routes_agree_at_the_largest_dims_and_grid():
    d = bg.BipartiteDims(5, 5)
    grid = bg.phase_povm.MAX_GRID
    for rho in (bg.pure_to_density(bg.random_pure(d, 1)), bg.random_density(d, 2)):
        direct = bg.gamma(rho, bg.PAPER_2X3).total
        assert abs(bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=grid) - direct) <= 1e-12


def test_fourier_route_memory_peak_at_the_largest_dims_and_grid():
    # rho against every B factor, (PB G, m**2), and one A pair's table of
    # expectations of every B pair, (PB, G, G), are live at once: a 1.9 MB
    # peak at 5x5 and G = 64, stacks and weights included.  The tables of
    # all 100 quadruples at once would take 6.5 MB alone.
    d = bg.BipartiteDims(5, 5)
    rho = bg.random_density(d, 0)
    grid = bg.phase_povm.MAX_GRID
    tracemalloc.start()
    try:
        bg.gamma_via_povm(rho, bg.PAPER_2X3, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
