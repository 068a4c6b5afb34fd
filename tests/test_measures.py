import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bellgamma as bg


def test_presets():
    assert bg.PAPER_2X3.n2 == 2.0
    assert bg.CONCURRENCE_MATCHED.n2 == 4.0
    assert bg.UNNORMALIZED.n2 == 1.0
    assert bg.MeasureConfig(n2=3.5).preset == "custom"
    with pytest.raises(ValueError):
        bg.MeasureConfig.from_preset("bogus")
    with pytest.raises(ValueError):
        bg.MeasureConfig(n2=0.0)


@pytest.mark.parametrize("n2", [math.inf, math.nan])
def test_measure_config_needs_a_finite_positive_n2(n2):
    with pytest.raises(ValueError, match="n2 must be"):
        bg.MeasureConfig(n2=n2)


def test_measure_config_bounds_n2_below_the_fourier_overflow():
    cfg = bg.MeasureConfig(n2=bg.measures.MAX_N2)
    assert math.isfinite(bg.gamma_via_povm(bg.random_density(bg.BipartiteDims(3, 3), 0), cfg))
    with pytest.raises(ValueError, match="n2 must be at most 1e\\+300, got 1.01e\\+300"):
        bg.MeasureConfig(n2=1.01e300)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_gamma_vanishes_on_product_states(dims, seed):
    rho = bg.random_product(bg.BipartiteDims(*dims), seed)
    assert bg.gamma(rho, bg.PAPER_2X3).total <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_gamma_sup_of_a_separable_mixture_is_not_zero(seed):
    # gamma vanishes on every product state, but not on mixtures of them:
    # an equal mixture of two product states is separable by construction
    # (and PPT, the exact test at 2x2), yet its supremum is far from zero.
    # So for mixed input gamma_sup > 0 does not mean entangled.
    dims = bg.BipartiteDims(2, 2)
    mixed = (bg.random_product(dims, 2 * seed).mat + bg.random_product(dims, 2 * seed + 1).mat) / 2
    rho = bg.DensityOperator(dims, mixed)
    partial_transpose = mixed.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.linalg.eigvalsh(partial_transpose).min() >= 0.0
    report = bg.maximize_gamma(rho, bg.CONCURRENCE_MATCHED)
    assert report.converged
    assert report.best_gamma > 0.05


def test_gamma_bell_2x3(bell_2x3):
    rho = bg.pure_to_density(bell_2x3)
    breakdown = bg.gamma(rho, bg.PAPER_2X3)
    assert breakdown.total == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    by_quad = dict(zip(bg.coeff_quadruples(2, 3), breakdown.terms))
    plus, minus = by_quad[(1, 2, 1, 2)]
    assert plus == pytest.approx(0.5, abs=1e-12)
    assert minus == pytest.approx(0.0, abs=1e-12)
    plus, minus = by_quad[(1, 2, 1, 3)]
    assert (plus - minus) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_gamma_swap_bell_uses_minus_branch(dims_2x3):
    amp = np.zeros((2, 3), dtype=complex)
    amp[0, 1] = amp[1, 0] = 1 / np.sqrt(2)  # (|12> + |21>)/sqrt(2)
    rho = bg.pure_to_density(bg.PureState(dims_2x3, amp))
    breakdown = bg.gamma(rho, bg.PAPER_2X3)
    assert breakdown.total == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    plus, minus = dict(zip(bg.coeff_quadruples(2, 3), breakdown.terms))[(1, 2, 1, 2)]
    assert minus == pytest.approx(0.5, abs=1e-12)
    assert plus == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_gamma_term_count(dims):
    m, n = dims
    rho = bg.random_density(bg.BipartiteDims(m, n), 0)
    breakdown = bg.gamma(rho)
    assert len(breakdown.terms) == m * (m - 1) * n * (n - 1) // 4
    assert breakdown.total == pytest.approx(
        math.sqrt(breakdown.n2 * sum((cp - cm) ** 2 for cp, cm in breakdown.terms)),
        abs=1e-12,
    )
    # terms[i] is the modulus pair of the i-th quadruple, read off rho
    index = np.array([
        [bg.pair_index(k, p, rho.dims), bg.pair_index(l, q, rho.dims),
         bg.pair_index(k, q, rho.dims), bg.pair_index(l, p, rho.dims)]
        for k, l, p, q in bg.coeff_quadruples(m, n)
    ]) - 1
    plus = np.abs(rho.mat[index[:, 0], index[:, 1]])
    minus = np.abs(rho.mat[index[:, 2], index[:, 3]])
    assert breakdown.terms == tuple(zip(plus.tolist(), minus.tolist()))


def test_gamma_pure_examples(bell_2x3, three_term_2x3):
    maxent = bg.max_entangled(2, bg.BipartiteDims(2, 2))
    assert bg.gamma_pure(maxent, bg.PAPER_2X3).total == pytest.approx(
        1 / math.sqrt(2), abs=1e-12
    )
    assert bg.gamma_pure(three_term_2x3, bg.PAPER_2X3).total == pytest.approx(
        2 / 3, abs=1e-12
    )
    assert bg.gamma_pure(bell_2x3, bg.PAPER_2X3).total == pytest.approx(
        1 / math.sqrt(2), abs=1e-12
    )


@given(seed=st.integers(0, 2**32 - 1))
def test_gamma_pure_zero_on_product_amplitudes(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amp = np.outer(a, b)
    amp /= np.linalg.norm(amp)
    psi = bg.PureState(bg.BipartiteDims(2, 3), amp)
    assert bg.gamma_pure(psi).total <= 1e-12


@given(seed=st.integers(0, 2**32 - 1))
def test_gamma_pure_matches_density_route(seed):
    psi = bg.random_pure(bg.BipartiteDims(3, 3), seed)
    # the amplitude products are the entries of |psi><psi|: equal bit for bit
    assert bg.gamma_pure(psi, bg.PAPER_2X3) == bg.gamma(bg.pure_to_density(psi), bg.PAPER_2X3)


@given(m=st.integers(2, 3), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_gamma_is_invariant_under_local_diagonal_phases(m, n, seed):
    # D_A (x) D_B multiplies each paired coefficient by a phase, and gamma
    # reads only moduli; this is why the supremum search has no phase lines.
    dims = bg.BipartiteDims(m, n)
    psi, rho = bg.random_pure(dims, seed), bg.random_density(dims, seed)
    rng = np.random.default_rng([seed, 1])
    u = bg.LocalUnitary(
        np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m))),
        np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n))),
    )
    for cfg in (bg.PAPER_2X3, bg.CONCURRENCE_MATCHED):
        before = bg.gamma_pure(psi, cfg).total
        assert abs(bg.gamma_pure(bg.apply_local(psi, u), cfg).total - before) <= 1e-13
        before = bg.gamma(rho, cfg).total
        assert abs(bg.gamma(bg.apply_local_density(rho, u), cfg).total - before) <= 1e-13


def test_i_concurrence_examples(bell_2x3, three_term_2x3):
    product = bg.max_entangled(1, bg.BipartiteDims(2, 3))
    assert bg.i_concurrence(product) == pytest.approx(0.0, abs=1e-12)
    assert bg.i_concurrence(bell_2x3) == pytest.approx(1.0, abs=1e-12)
    assert bg.i_concurrence(three_term_2x3) == pytest.approx(
        2 * math.sqrt(2) / 3, abs=1e-12
    )
    for k in (1, 2, 3):
        maxent = bg.max_entangled(k, bg.BipartiteDims(3, 3))
        assert bg.i_concurrence(maxent) == pytest.approx(
            math.sqrt(2 * (1 - 1 / k)), abs=1e-12
        )


def test_i_concurrence_keeps_a_products_zero_off_unit_norm(tmp_path, bell_2x3):
    # The norm of each product is an ulp short of one; 1 - tr(rho_A^2)
    # read 2.98e-8 on both, and 1.0000000000000002 on the Bell state.
    amp = np.array([[(1 + 1j) / math.sqrt(2), 0], [0, 0]])
    psi = bg.PureState(bg.BipartiteDims(2, 2), amp)
    path = tmp_path / "big.qstate.json"
    path.write_text(
        '{"dims": [2, 2], "kind": "pure", "data": '
        "[[[1.7e308, 1.7e308], [0, 0]], [[0, 0], [0, 0]]]}"
    )
    for product in (psi, bg.load_state(path, renormalize=True)):
        assert np.linalg.norm(product.amp) < 1.0
        assert bg.i_concurrence(product) == 0.0
    assert bg.i_concurrence(bell_2x3) == 0.9999999999999998
    assert bg.i_concurrence(bell_2x3) == bg.concurrence_general(bell_2x3, 4)


def test_i_concurrence_from_schmidt_coefficients(three_term_2x3):
    lam = np.array(bg.schmidt(three_term_2x3).coefficients)
    via_schmidt = math.sqrt(2 * (1 - float(np.sum(lam**2))))
    assert bg.i_concurrence(three_term_2x3) == pytest.approx(via_schmidt, abs=1e-12)


def test_concurrence_2x3_examples(bell_2x3, three_term_2x3):
    product = bg.max_entangled(1, bg.BipartiteDims(2, 3))
    assert bg.concurrence_2x3(product) == pytest.approx(0.0, abs=1e-12)
    assert bg.concurrence_2x3(three_term_2x3) == pytest.approx(2 / 3, abs=1e-12)
    # note the sqrt(2) gap to i_concurrence == 1 on this state
    assert bg.concurrence_2x3(bell_2x3) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_concurrence_2x3_requires_2x3():
    with pytest.raises(ValueError, match="2x3"):
        bg.concurrence_2x3(bg.max_entangled(2, bg.BipartiteDims(2, 2)))


def test_concurrence_2x3_is_general_with_prefactor_two():
    for seed in range(10):
        psi = bg.random_pure(bg.BipartiteDims(2, 3), seed)
        assert bg.concurrence_2x3(psi) == bg.concurrence_general(psi, 2.0)


def test_concurrence_general_examples(bell_2x3, three_term_2x3):
    assert bg.concurrence_general(bell_2x3, 4.0) == pytest.approx(1.0, abs=1e-12)
    assert bg.concurrence_general(three_term_2x3, 4.0) == pytest.approx(
        2 * math.sqrt(2) / 3, abs=1e-12
    )
    product = bg.max_entangled(1, bg.BipartiteDims(3, 4))
    assert bg.concurrence_general(product, 7.0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_concurrence_general_matches_i_concurrence(dims):
    for seed in range(10):
        psi = bg.random_pure(bg.BipartiteDims(*dims), seed)
        assert abs(bg.concurrence_general(psi, 4.0) - bg.i_concurrence(psi)) < 1e-10


def test_gamma_schmidt_examples(three_term_2x3):
    product = bg.max_entangled(1, bg.BipartiteDims(2, 3))
    assert bg.gamma_schmidt(product, bg.CONCURRENCE_MATCHED) == pytest.approx(
        0.0, abs=1e-12
    )
    # coefficients (2/3, 1/3): sqrt(4 * 2/9) = 2*sqrt(2)/3
    assert bg.gamma_schmidt(three_term_2x3, bg.CONCURRENCE_MATCHED) == pytest.approx(
        2 * math.sqrt(2) / 3, abs=1e-12
    )
    for k in (2, 3):
        maxent = bg.max_entangled(k, bg.BipartiteDims(3, 3))
        assert bg.gamma_schmidt(maxent, bg.CONCURRENCE_MATCHED) == pytest.approx(
            math.sqrt(2 * (1 - 1 / k)), abs=1e-12
        )


@given(seed=st.integers(0, 2**32 - 1))
def test_gamma_schmidt_equals_i_concurrence_at_n2_four(seed):
    psi = bg.random_pure(bg.BipartiteDims(3, 4), seed)
    assert abs(
        bg.gamma_schmidt(psi, bg.CONCURRENCE_MATCHED) - bg.i_concurrence(psi)
    ) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_gamma_schmidt_matches_rotated_amplitudes(seed):
    psi = bg.random_pure(bg.BipartiteDims(2, 3), seed)
    rotated, _ = bg.schmidt_rotation(psi)
    assert abs(
        bg.gamma_pure(rotated, bg.PAPER_2X3).total - bg.gamma_schmidt(psi, bg.PAPER_2X3)
    ) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_gamma_pure_below_schmidt_value(seed):
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, seed)
    cfg = bg.PAPER_2X3
    assert bg.gamma_pure(psi, cfg).total <= bg.gamma_schmidt(psi, cfg) + 1e-9
    rotated = bg.apply_local(psi, bg.random_local_unitary(dims, seed + 1))
    assert bg.gamma_pure(rotated, cfg).total <= bg.gamma_schmidt(psi, cfg) + 1e-9


# The pure-state supremum theorem.  Per quadruple k<l, p<q, the paired
# moduli are |x| = |a_kp a_lq| and |y| = |a_kq a_lp|; the reverse triangle
# inequality gives ||x| - |y|| <= |x - y| = |2x2 minor|, and the minor sum is
# invariant under local unitaries.  So in every frame gamma is at most
# concurrence_general(psi, n2), and the Schmidt frame attains that bound.

THEOREM_DIMS = st.tuples(st.integers(2, 5), st.integers(2, 5))
THEOREM_CFGS = st.sampled_from([bg.PAPER_2X3, bg.CONCURRENCE_MATCHED, bg.MeasureConfig(n2=3.5)])


def _random_frame(dims, seed):
    psi = bg.random_pure(bg.BipartiteDims(*dims), seed)
    u = bg.random_local_unitary(psi.dims, [seed, 1])
    return psi, bg.apply_local(psi, u)


@given(dims=THEOREM_DIMS, seed=st.integers(0, 2**32 - 1))
def test_each_quadruple_term_is_at_most_its_squared_minor(dims, seed):
    _, psi = _random_frame(dims, seed)
    amp = psi.amp
    terms = bg.gamma_pure(psi, bg.UNNORMALIZED).terms
    for (k, l, p, q), (plus, minus) in zip(bg.coeff_quadruples(*dims), terms, strict=True):
        k, l, p, q = k - 1, l - 1, p - 1, q - 1
        minor = amp[k, p] * amp[l, q] - amp[k, q] * amp[l, p]
        assert (plus - minus) ** 2 <= abs(minor) ** 2 + 1e-15


@given(dims=THEOREM_DIMS, seed=st.integers(0, 2**32 - 1), cfg=THEOREM_CFGS)
def test_gamma_in_any_frame_is_at_most_the_minor_sum(dims, seed, cfg):
    psi, rotated = _random_frame(dims, seed)
    bound = bg.concurrence_general(psi, prefactor=cfg.n2)
    assert bg.gamma_pure(psi, cfg).total <= bound + 1e-12
    assert bg.gamma_pure(rotated, cfg).total <= bound + 1e-12


@given(dims=THEOREM_DIMS, seed=st.integers(0, 2**32 - 1), cfg=THEOREM_CFGS)
def test_schmidt_frame_attains_the_minor_sum(dims, seed, cfg):
    _, psi = _random_frame(dims, seed)
    bound = bg.concurrence_general(psi, prefactor=cfg.n2)
    at_schmidt, _ = bg.schmidt_rotation(psi)
    assert abs(bg.gamma_pure(at_schmidt, cfg).total - bound) <= 1e-12
    assert abs(bound - bg.gamma_schmidt(psi, cfg)) <= 1e-12


@given(dims=THEOREM_DIMS, seed=st.integers(0, 2**32 - 1))
def test_minor_sum_vanishes_on_product_states(dims, seed):
    rng = np.random.default_rng(seed)
    m, n = dims
    a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amp = np.outer(a, b)
    amp /= np.linalg.norm(amp)
    psi = bg.PureState(bg.BipartiteDims(m, n), amp)
    assert bg.concurrence_general(psi, prefactor=bg.CONCURRENCE_MATCHED.n2) <= 1e-15
