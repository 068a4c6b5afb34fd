import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgamma as bg
from bellgamma.bell import (
    NAMED_BELL_2X2,
    NAMED_BELL_2X3,
    ShotErrorRow,
    _cross_pair_orthogonality,
    _estimate,
    _measured_density,
    _plan_positions,
    _project_mat,
    _target_probabilities,
)
from bellgamma.linalg import coeff_quadruples, pair_index


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_bell_counts(m, n):
    fam = bg.enumerate_bell(bg.BipartiteDims(m, n))
    assert len(fam.states) == m * (m - 1) * n * (n - 1)
    assert len(set(fam.states)) == len(fam.states)


def test_enumerate_bell_2x2_is_the_named_basis():
    # M(M-1)N(N-1) = 4 for two qubits: the family is exactly psi+-, phi+-
    fam = set(bg.enumerate_bell(bg.BipartiteDims(2, 2)).states)
    assert fam == set(NAMED_BELL_2X2.values())


def test_enumerate_bell_2x3_matches_named_bases():
    fam = set(bg.enumerate_bell(bg.BipartiteDims(2, 3)).states)
    assert len(fam) == 12
    assert fam == set(NAMED_BELL_2X3.values())


def test_named_2x3_vectors():
    dims = bg.BipartiteDims(2, 3)
    psi1 = bg.bell_vector(NAMED_BELL_2X3["psi1"], dims)
    assert psi1[0] == pytest.approx(1 / math.sqrt(2))
    assert psi1[4] == pytest.approx(1 / math.sqrt(2))
    phi5 = bg.bell_vector(NAMED_BELL_2X3["phi5"], dims)
    assert phi5[2] == pytest.approx(1 / math.sqrt(2))  # |13>
    assert phi5[4] == pytest.approx(1 / math.sqrt(2))  # |22>


def test_project_examples(dims_2x3):
    b1 = NAMED_BELL_2X3["psi1"]
    b2 = NAMED_BELL_2X3["psi2"]
    rho = bg.pure_to_density(
        bg.PureState.from_vector(bg.bell_vector(b1, dims_2x3), dims_2x3)
    )
    assert bg.project(rho, b1) == pytest.approx(1.0, abs=1e-12)
    assert bg.project(rho, b2) == pytest.approx(0.0, abs=1e-12)
    mixed = bg.DensityOperator(dims_2x3, np.eye(6) / 6)
    for b in bg.enumerate_bell(dims_2x3).states:
        assert bg.project(mixed, b) == pytest.approx(1 / 6, abs=1e-12)


def test_recover_coefficient_bell(bell_2x3):
    rho = bg.pure_to_density(bell_2x3)
    assert bg.recover_coefficient(rho, 1, 2, 1, 2) == pytest.approx(0.5, abs=1e-12)
    assert bg.recover_coefficient(rho, 1, 2, 2, 1) == pytest.approx(0.0, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
def test_recover_coefficient_matches_real_part(seed):
    dims = bg.BipartiteDims(2, 3)
    rho = bg.random_density(dims, seed)
    for k, l, p, q in bg.coeff_quadruples(2, 3):
        got = bg.recover_coefficient(rho, k, l, p, q)
        want = rho.mat[bg.pair_index(k, p, dims) - 1, bg.pair_index(l, q, dims) - 1].real
        assert abs(got - want) < 1e-12


def test_recover_coefficient_misses_imaginary_part(dims_2x3):
    mat = np.eye(6, dtype=complex) / 6
    mat[0, 4] = 0.5j
    mat[4, 0] = -0.5j
    # not positive semidefinite, but Hermitian suffices for the identity
    p_plus = bg.bell_vector(bg.BellState(1, 2, 1, 2, 1), dims_2x3)
    p_minus = bg.bell_vector(bg.BellState(1, 2, 1, 2, -1), dims_2x3)
    diff = (p_plus.conj() @ mat @ p_plus - p_minus.conj() @ mat @ p_minus).real / 2
    assert diff == pytest.approx(0.0, abs=1e-13)


def test_plan_2x2_full_targets():
    plan = bg.plan_measurement(bg.BipartiteDims(2, 2))
    assert len(plan.targets) == 2
    positions = {(t.row, t.col) for t in plan.targets}
    assert positions == {(1, 4), (2, 3)}
    projectors = {b for t in plan.targets for b in (t.plus, t.minus)}
    assert len(projectors) == 4


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_plan_counts_and_orthogonal_pairs(m, n):
    dims = bg.BipartiteDims(m, n)
    plan = bg.plan_measurement(dims)
    n_quads = m * (m - 1) * n * (n - 1) // 4
    assert len(plan.targets) == 2 * n_quads
    assert len(plan.reduced.projectors) <= m * (m - 1) * n * (n - 1) // 2
    assert len(plan.reduced.positions) <= n_quads
    for t in plan.targets:
        vp = bg.bell_vector(t.plus, dims)
        vm = bg.bell_vector(t.minus, dims)
        assert abs(np.vdot(vp, vm)) < 1e-12


def test_plan_full_targets_recover_all_quadruple_positions():
    dims = bg.BipartiteDims(2, 3)
    plan = bg.plan_measurement(dims)
    want = set()
    for k, l, p, q in bg.coeff_quadruples(2, 3):
        want.add((bg.pair_index(k, p, dims), bg.pair_index(l, q, dims)))
        want.add((bg.pair_index(k, q, dims), bg.pair_index(l, p, dims)))
    assert {(t.row, t.col) for t in plan.targets} == want


def test_reduced_plan_2x3_named_projectors():
    plan = bg.plan_measurement(bg.BipartiteDims(2, 3))
    nb = NAMED_BELL_2X3
    assert set(plan.reduced.positions) == {(2, 4), (3, 5), (3, 4)}
    assert set(plan.reduced.projectors) == {
        nb["phi1"], nb["phi2"], nb["phi5"], nb["phi6"], nb["psi5"], nb["psi6"]
    }
    assert len(plan.reduced.projectors) == 6
    # the psi pair clashes with the phi5/phi6 pair and only with it
    pairs = [
        (plan.reduced.projectors[2 * i], plan.reduced.projectors[2 * i + 1])
        for i in range(3)
    ]
    psi_idx = next(
        i for i, pair in enumerate(pairs) if pair == (nb["psi5"], nb["psi6"])
    )
    phi56_idx = next(
        i for i, pair in enumerate(pairs) if pair == (nb["phi5"], nb["phi6"])
    )
    assert tuple(sorted((psi_idx, phi56_idx))) in plan.reduced.non_orthogonal_pairs
    assert plan.reduced.notes


def _plan_restricted_to(plan, positions):
    """``plan`` measuring only the targets at the given (row, col) positions."""
    targets = tuple(t for t in plan.targets if (t.row, t.col) in positions)
    assert len(targets) == len(positions)
    return dataclasses.replace(plan, targets=targets)


#: Exact-probability estimates of the named sextet on the zeroed states of
#: random_pure(2x3, seed), seeds 0 to 2.
SEXTET_ESTIMATES = (0.3342114631064658, 0.23694443808940394, 0.17746100918833688)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduced_2x3_plan_suffices_after_the_zeroing_rotation(seed):
    # Positions missing from a plan count as zero coefficients.  After
    # zero_a11_a23 the reduced positions carry all of gamma, so their three
    # projector pairs give the concurrence; the named sextet addresses (1,6)
    # in place of (2,4) and falls short.
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, seed)
    zeroed, _ = bg.zero_a11_a23(psi)
    plan = bg.plan_measurement(dims)
    concurrence = bg.concurrence_2x3(psi)
    reduced = _plan_restricted_to(plan, set(plan.reduced.positions))
    assert abs(bg.simulate_shots(zeroed, reduced, exact=True).total - concurrence) <= 1e-15
    sextet_positions = {
        (pair_index(b.k, b.p, dims), pair_index(b.l, b.q, dims))
        for b in plan.reduced.projectors
    }
    assert sextet_positions == {(1, 6), (3, 5), (3, 4)}
    sextet = bg.simulate_shots(zeroed, _plan_restricted_to(plan, sextet_positions), exact=True)
    assert sextet.total == pytest.approx(SEXTET_ESTIMATES[seed], rel=1e-12)
    assert concurrence - sextet.total > 0.06


@pytest.mark.parametrize("dims", ["2x2", "2x3", "3x2", "3x3", "3x4", "4x4", "2x5", "5x5"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_schmidt_frame_positions_suffice_within_the_papers_projection_bound(dims, seed):
    # In the Schmidt frame amp is diagonal, so only the plus coefficients
    # at (kk, ll), k < l <= K = min(M, N), are nonzero.  Their K(K-1)
    # projectors give gamma_schmidt, within the paper's M(M-1)N(N-1)/2.
    d = bg.BipartiteDims.parse(dims)
    psi = bg.random_pure(d, seed)
    rotated, _ = bg.schmidt_rotation(psi)
    size = min(d.m, d.n)
    positions = {(pair_index(k, k, d), pair_index(l, l, d))
                 for k in range(1, size + 1) for l in range(k + 1, size + 1)}
    plan = _plan_restricted_to(bg.plan_measurement(d), positions)
    estimate = bg.simulate_shots(rotated, plan, exact=True)
    assert abs(estimate.total - bg.gamma_schmidt(psi, bg.PAPER_2X3)) <= 1e-14
    projectors = 2 * len(plan.targets)
    assert projectors == size * (size - 1)
    assert projectors <= d.m * (d.m - 1) * d.n * (d.n - 1) // 2


def test_plan_notes_odd_joint_dimension():
    plan = bg.plan_measurement(bg.BipartiteDims(3, 3))
    assert any("odd" in note for note in plan.notes)
    assert bg.plan_measurement(bg.BipartiteDims(2, 3)).notes == ()


def test_simulate_exact_matches_gamma(bell_2x3, three_term_2x3):
    for psi in (bell_2x3, three_term_2x3):
        est = bg.simulate_shots(psi, exact=True)
        want = bg.gamma(bg.pure_to_density(psi), bg.PAPER_2X3).total
        assert est.total == pytest.approx(want, abs=1e-12)
        assert est.shots is None


def test_simulate_deterministic(bell_2x3):
    e1 = bg.simulate_shots(bell_2x3, shots=500, seed=7)
    e2 = bg.simulate_shots(bell_2x3, shots=500, seed=7)
    assert e1 == e2
    e3 = bg.simulate_shots(bell_2x3, shots=500, seed=8)
    assert e1 != e3


def test_simulate_validates_shots(bell_2x3):
    with pytest.raises(ValueError, match="shots"):
        bg.simulate_shots(bell_2x3, shots=0)
    with pytest.raises(ValueError, match="shots"):
        bg.simulate_shots(bell_2x3)
    with pytest.raises(ValueError, match="shots"):
        bg.simulate_shots(bell_2x3, bg.plan_measurement(bell_2x3.dims))  # no shots default


def test_simulate_without_a_plan_builds_only_the_targets(bell_2x3, monkeypatch):
    with_plan = bg.simulate_shots(bell_2x3, bg.plan_measurement(bell_2x3.dims), 500, 7)

    def no_plan(*args, **kwargs):
        raise AssertionError("plan_measurement called")

    monkeypatch.setattr(bg.bell, "plan_measurement", no_plan)
    assert bg.simulate_shots(bell_2x3, shots=500, seed=7) == with_plan
    with pytest.raises(ValueError, match="shots"):
        bg.simulate_shots(bell_2x3)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2), (4, 4), (5, 5)])
def test_positions_without_a_plan_equal_the_full_plans(dims):
    d = bg.BipartiteDims(*dims)
    psi = bg.random_pure(d, 0)
    got = _plan_positions(psi, None)
    want = _plan_positions(psi, bg.plan_measurement(d))
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    assert [g.shape for g in got] == [w.shape for w in want]


@pytest.mark.parametrize("plan_dims", ["2x2", "3x3"])
def test_a_plan_for_other_dims_is_refused(plan_dims):
    # A 2x2 plan's targets all lie inside a 2x3 state, so unchecked it gives
    # a wrong estimate (here 0.120 at 100 shots, against gamma 0.205); a 3x3
    # plan's fall outside it.
    psi = bg.random_pure(bg.BipartiteDims(2, 3), 0)
    plan = bg.plan_measurement(bg.BipartiteDims.parse(plan_dims))
    message = f"^plan dims {plan_dims} do not match state dims 2x3$"
    with pytest.raises(ValueError, match=message):
        bg.simulate_shots(psi, plan, shots=100)
    with pytest.raises(ValueError, match=message):
        bg.simulate_shots(psi, plan, exact=True)
    with pytest.raises(ValueError, match=message):
        bg.shot_error_table(psi, [100], reps=2, seed=0, plan=plan)


def test_simulate_mixed_requires_rotation():
    rho = bg.random_density(bg.BipartiteDims(2, 2), 1)
    with pytest.raises(ValueError, match="phase rotation"):
        bg.simulate_shots(rho, shots=100)
    est = bg.simulate_shots(
        rho, shots=0, exact=True, phase_rotation=bg.identity_local(rho.dims)
    )
    assert est.total >= 0.0


def test_simulate_complex_amplitudes_need_alignment(dims_2x3):
    # amplitudes with complex phases: the per-target alignment must recover
    # the moduli, so the exact-probability estimate equals gamma
    rng = np.random.default_rng(42)
    amp = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    amp /= np.linalg.norm(amp)
    psi = bg.PureState(dims_2x3, amp)
    est = bg.simulate_shots(psi, exact=True)
    want = bg.gamma_pure(psi, bg.PAPER_2X3).total
    assert est.total == pytest.approx(want, abs=1e-12)


def test_simulate_zero_coefficient_bias_direction(dims_2x3):
    # plug-in |.| estimates of true-zero coefficients are biased upward
    # and the bias shrinks roughly like 1/sqrt(shots)
    psi = bg.max_entangled(1, dims_2x3)  # product: every coefficient is zero
    means = {}
    for shots in (100, 10000):
        totals = [
            bg.simulate_shots(psi, shots=shots, seed=seed).total
            for seed in range(40)
        ]
        means[shots] = statistics.mean(totals)
    assert means[100] > 0.0
    assert means[10000] > 0.0
    assert means[10000] < means[100] / 5.0


def test_simulate_nonzero_coefficient_estimates_converge(dims_2x3):
    # unequal weights make the +- outcome probabilities genuinely noisy;
    # the estimate mean must approach the true coefficient modulus
    amp = np.zeros((2, 3), dtype=complex)
    amp[0, 0], amp[1, 1] = 0.8, 0.6
    psi = bg.PureState(dims_2x3, amp)
    truth = 0.48  # |rho[1,5]| = 0.8 * 0.6
    for shots, tol in ((1000, 5e-3), (100000, 5e-4)):
        ests = [
            {
                (t.k, t.l, t.p, t.q): t.coeff_plus
                for t in bg.simulate_shots(psi, shots=shots, seed=s).terms
            }[(1, 2, 1, 2)]
            for s in range(30)
        ]
        assert abs(statistics.mean(ests) - truth) < tol


def test_shot_error_table_medians(bell_2x3):
    rows, medians = bg.shot_error_table(bell_2x3, [100, 1000], reps=10, seed=4)
    assert len(rows) == 20
    assert set(medians) == {100, 1000}
    assert all(r.abs_error >= 0 for r in rows)
    rows2, medians2 = bg.shot_error_table(bell_2x3, [100, 1000], reps=10, seed=4)
    assert rows == rows2 and medians == medians2


def test_shot_error_table_rejects_non_positive_counts(bell_2x3):
    with pytest.raises(ValueError, match="reps"):
        bg.shot_error_table(bell_2x3, [100], reps=0, seed=0)
    with pytest.raises(ValueError, match="reps"):
        bg.shot_error_table(bell_2x3, [100], reps=-2, seed=0)
    with pytest.raises(ValueError, match="shots"):
        bg.shot_error_table(bell_2x3, [100, 0], reps=3, seed=0)


# The simulator before batching: one scalar binomial draw per projector,
# one simulate call per (shot count, rep), and the exact probabilities from
# a per-target phase alignment and two projections.  Kept as the reference
# the batched simulator must reproduce bit for bit.


def _reference_aligning_rotation(mat, row0, col0, dims, k):
    # Local diagonal phase on A level k making mat[row0, col0] real >= 0.
    coeff = mat[row0, col0]
    theta = 0.0 if abs(coeff) == 0.0 else -float(np.angle(coeff))
    d_a = np.eye(dims.m, dtype=complex)
    d_a[k - 1, k - 1] = np.exp(1j * theta)
    return np.kron(d_a, np.eye(dims.n, dtype=complex))


def _reference_probabilities(state, plan, phase_rotation=None):
    dims = state.dims
    if isinstance(state, bg.PureState):
        base = bg.pure_to_density(state).mat
        align = True
    else:
        base = state.mat
        align = False
    if phase_rotation is not None:
        w = phase_rotation.joint()
        base = w @ base @ w.conj().T
    probs = []
    for t in plan.targets:
        mat = base
        if align:
            w = _reference_aligning_rotation(base, t.row - 1, t.col - 1, dims, t.k)
            mat = w @ base @ w.conj().T
        probs.append(
            [min(max(_project_mat(mat, b, dims), 0.0), 1.0) for b in (t.plus, t.minus)]
        )
    return probs


def _reference_simulate(state, shots, seed, phase_rotation=None):
    rng = np.random.default_rng(seed)
    plan = bg.plan_measurement(state.dims)
    hats = [
        [rng.binomial(shots, prob) / shots for prob in pair]
        for pair in _reference_probabilities(state, plan, phase_rotation)
    ]
    return _reference_estimate(plan, hats, shots)


def _reference_estimate(plan, hats, shots, cfg=bg.PAPER_2X3):
    estimates = {}
    for t, pair in zip(plan.targets, hats):
        se = 0.5 * math.sqrt(sum(h * (1.0 - h) / shots for h in pair))
        estimates[(t.k, t.l, t.p, t.q)] = ((pair[0] - pair[1]) / 2.0, se)
    terms = []
    acc = 0.0
    for k, l, p, q in coeff_quadruples(plan.dims.m, plan.dims.n):
        est_p, se_p = estimates[(k, l, p, q)]
        est_m, se_m = estimates[(k, l, q, p)]
        term = bg.ShotTerm(k, l, p, q, abs(est_p), abs(est_m), se_p, se_m)
        terms.append(term)
        acc += term.contribution
    return tuple(terms), math.sqrt(cfg.n2 * acc)


def _reference_table(state, shots_list, reps, seed, phase_rotation=None):
    rho = bg.pure_to_density(state) if isinstance(state, bg.PureState) else state
    if phase_rotation is not None:
        rho = bg.apply_local_density(rho, phase_rotation)
    truth = bg.gamma(rho, bg.PAPER_2X3).total
    rows = []
    medians = {}
    for si, shots in enumerate(shots_list):
        errs = []
        for rep in range(reps):
            rep_seed = np.random.SeedSequence((seed, si, rep))
            _, total = _reference_simulate(state, shots, rep_seed, phase_rotation)
            err = abs(total - truth)
            rows.append(ShotErrorRow(shots=shots, rep=rep, gamma_hat=total, abs_error=err))
            errs.append(err)
        medians[shots] = statistics.median(errs)
    return tuple(rows), medians


SHOTS_LIST = [1, 10, 1000, 10**6]


def _assert_table_matches_reference(state, phase_rotation=None):
    rows, medians = bg.shot_error_table(
        state, SHOTS_LIST, reps=6, seed=11, phase_rotation=phase_rotation
    )
    ref_rows, ref_medians = _reference_table(
        state, SHOTS_LIST, 6, 11, phase_rotation=phase_rotation
    )
    assert rows == ref_rows  # shots, rep, gamma_hat and abs_error, exactly
    assert medians == ref_medians
    for shots in SHOTS_LIST:
        est = bg.simulate_shots(state, shots=shots, seed=shots, phase_rotation=phase_rotation)
        terms, total = _reference_simulate(state, shots, shots, phase_rotation)
        assert est.terms == terms  # coefficients and standard errors
        assert est.total == total


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)])
def test_batched_simulation_equals_per_rep_reference(m, n):
    psi = bg.random_pure(bg.BipartiteDims(m, n), 100 * m + n)
    _assert_table_matches_reference(psi)


def test_batched_simulation_equals_reference_on_rotated_density():
    dims = bg.BipartiteDims(2, 3)
    rho = bg.random_density(dims, 3)
    _assert_table_matches_reference(rho, bg.random_local_unitary(dims, 4))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 5)])
def test_target_probabilities_match_per_target_projections(dims):
    # The closed form (rho_rr + rho_cc)/2 +- |rho_rc| (pure, aligned) or
    # +- Re rho_rc (rotated density) against the per-target alignment and
    # projection it replaced; the two round differently in the last bits.
    d = bg.BipartiteDims(*dims)
    plan = bg.plan_measurement(d)
    for seed in range(4):
        rotation = bg.random_local_unitary(d, seed + 50)
        cases = (
            (bg.random_pure(d, seed), None),
            (bg.random_pure(d, seed), rotation),
            (bg.random_density(d, seed + 20), rotation),
        )
        for state, rot in cases:
            mat = _measured_density(state, rot).mat
            rows, cols, _ = _plan_positions(state, plan)
            got = _target_probabilities(mat, rows, cols, isinstance(state, bg.PureState))
            want = np.array(_reference_probabilities(state, plan, rot))
            assert got.shape == (len(plan.targets), 2)
            assert np.abs(got - want).max() <= 1e-15


def test_batched_estimator_squares_like_the_scalar_term():
    # About one square in a thousand differs in the last bit between x*x and
    # the scalar ``** 2``, and in a sum of many terms that bit is mostly
    # lost, so the squaring is checked on many reps of the one-term 2x2 sum.
    dims = bg.BipartiteDims(2, 2)
    plan = bg.plan_measurement(dims)
    shots = 10**5
    probs = np.random.default_rng(5).random((len(plan.targets), 2))
    hats = np.random.default_rng(6).binomial(shots, probs, size=(20000, *probs.shape)) / shots
    _, _, cols = _plan_positions(bg.random_pure(dims, 0), plan)
    _, totals = _estimate(hats, cols, bg.PAPER_2X3.n2)
    want = [_reference_estimate(plan, rep.tolist(), shots)[1] for rep in hats]
    assert totals.tolist() == want


@pytest.mark.parametrize("dims", ["2x2", "2x3", "3x2", "3x3", "4x4"])
def test_restricted_plan_positions_follow_the_target_order(dims):
    # The Schmidt-frame positions (kk, ll): the restricted plan's rows and
    # columns are its targets', in _targets order, and -1 marks exactly the
    # quadruple positions it leaves out.
    d = bg.BipartiteDims.parse(dims)
    size = min(d.m, d.n)
    positions = {(pair_index(k, k, d), pair_index(l, l, d))
                 for k in range(1, size + 1) for l in range(k + 1, size + 1)}
    plan = _plan_restricted_to(bg.plan_measurement(d), positions)
    rows, cols, pair_cols = _plan_positions(bg.random_pure(d, 0), plan)
    assert rows.tolist() == [t.row - 1 for t in plan.targets]
    assert cols.tolist() == [t.col - 1 for t in plan.targets]
    index = {(t.k, t.l, t.p, t.q): i for i, t in enumerate(plan.targets)}
    want = [[index.get((k, l, p, q), -1), index.get((k, l, q, p), -1)]
            for k, l, p, q in coeff_quadruples(d.m, d.n)]
    assert pair_cols.tolist() == want


def test_a_plan_target_off_the_quadruple_positions_is_refused():
    d = bg.BipartiteDims(2, 3)
    plan = bg.plan_measurement(d)
    first = plan.targets[0]
    flipped = dataclasses.replace(first, row=first.col, col=first.row)
    bad = dataclasses.replace(plan, targets=(flipped,) + plan.targets[1:])
    with pytest.raises(ValueError, match="outside"):
        bg.simulate_shots(bg.random_pure(d, 0), bad, exact=True)


def test_vector_binomial_draws_equal_scalar_draws():
    # The batched simulator draws a whole probability vector per call; its
    # output equals the per-projector scalar draws only while numpy keeps
    # the two streams the same.
    p_rng = np.random.default_rng(0)
    for shots in (1, 2, 10, 1000, 10**6):
        for probs in (np.array([0.0, 0.5, 1.0, 1.0, 0.5, 0.0]), p_rng.random(64)):
            seed = np.random.SeedSequence((shots, len(probs)))
            vector = np.random.default_rng(seed).binomial(shots, probs)
            scalar_rng = np.random.default_rng(seed)
            assert vector.tolist() == [scalar_rng.binomial(shots, p) for p in probs.tolist()]



def _reference_cross_pair_orthogonality(projectors, dims):
    # The pairwise np.vdot loop the Gram matrix replaced.
    vecs = [bg.bell_vector(b, dims) for b in projectors]
    n_pairs = len(projectors) // 2
    clashes = []
    for i in range(n_pairs):
        for j in range(i + 1, n_pairs):
            block = [
                abs(np.vdot(vecs[2 * i + a], vecs[2 * j + b]))
                for a in (0, 1)
                for b in (0, 1)
            ]
            if max(block) > 1e-12:
                clashes.append((i, j))
    return tuple(clashes)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 5)])
def test_cross_pair_orthogonality_matches_pairwise_loop(dims):
    d = bg.BipartiteDims(*dims)
    plan = bg.plan_measurement(d)
    reduced = plan.reduced.projectors
    assert plan.reduced.non_orthogonal_pairs == _reference_cross_pair_orthogonality(
        reduced, d
    )
    full = tuple(b for t in plan.targets for b in (t.plus, t.minus))
    want = _reference_cross_pair_orthogonality(full, d)
    assert _cross_pair_orthogonality(full, d) == want
