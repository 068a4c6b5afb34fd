import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgamma as bg
from bellgamma.local_unitary import (
    SWEEP_OPTS,
    _lockstep_ascent,
    _lockstep_line_max,
    _restart_batch,
    unitary_from_flat,
)

QUICK_OPTS = bg.OptimizerOptions(restarts=3, max_sweeps=12)


def test_local_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        bg.LocalUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


def test_apply_local_identity(bell_2x3):
    out = bg.apply_local(bell_2x3, bg.identity_local(bell_2x3.dims))
    assert bg.matrices_close(out.amp, bell_2x3.amp)


def test_apply_local_swap_rows():
    dims = bg.BipartiteDims(2, 2)
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1.0  # |11>
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    out = bg.apply_local(bg.PureState(dims, amp), bg.LocalUnitary(swap, np.eye(2)))
    assert out.amp[1, 0] == pytest.approx(1.0)  # |21>


def test_apply_local_matches_joint_kron_action():
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, 3)
    u = bg.random_local_unitary(dims, 4)
    via_amp = bg.apply_local(psi, u).vector()
    via_joint = u.joint() @ psi.vector()
    assert np.max(np.abs(via_amp - via_joint)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
def test_apply_local_preserves_i_concurrence(seed):
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, seed)
    u = bg.random_local_unitary(dims, seed + 1)
    assert abs(bg.i_concurrence(bg.apply_local(psi, u)) - bg.i_concurrence(psi)) < 1e-10


def test_rotation_blocks_at_reference_angles():
    assert bg.matrices_close(bg.ua_theta_phi(0.0, 0.0), np.eye(2))
    assert bg.matrices_close(
        bg.ua_theta_phi(math.pi / 2, 0.0), np.array([[0, 1j], [1j, 0]])
    )
    assert bg.matrices_close(bg.ub_theta_phi(0.0, 0.0), np.eye(3))


@given(
    theta=st.floats(-10, 10, allow_nan=False),
    phi=st.floats(-10, 10, allow_nan=False),
)
def test_rotation_blocks_are_unitary(theta, phi):
    for u, d in ((bg.ua_theta_phi(theta, phi), 2), (bg.ub_theta_phi(theta, phi), 3)):
        assert bg.matrices_close(u.conj().T @ u, np.eye(d))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_unitary_chart_always_unitary(seed, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2 * np.pi, 2 * np.pi, d * d)
    u = unitary_from_flat(d, x)
    assert bg.matrices_close(u.conj().T @ u, np.eye(d))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), batch=st.integers(1, 8))
def test_unitary_chart_batch_matches_rows(seed, d, batch):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2 * np.pi, 2 * np.pi, (batch, d * d))
    us = unitary_from_flat(d, x)
    assert us.shape == (batch, d, d)
    for row, u in zip(x, us):
        assert np.array_equal(u, unitary_from_flat(d, row))
        assert bg.matrices_close(u.conj().T @ u, np.eye(d))
    stacked = unitary_from_flat(d, np.stack([x, x[::-1]]))
    assert stacked.shape == (2, batch, d, d)
    assert np.array_equal(stacked[0], us) and np.array_equal(stacked[1], us[::-1])


def test_unitary_chart_identity_at_zero():
    for d in (2, 3, 4):
        assert bg.matrices_close(unitary_from_flat(d, np.zeros(d * d)), np.eye(d))
        batch = unitary_from_flat(d, np.zeros((3, d * d)))
        assert all(bg.matrices_close(u, np.eye(d)) for u in batch)


def test_unitary_chart_rejects_wrong_parameter_count():
    with pytest.raises(ValueError, match="parameters"):
        unitary_from_flat(3, np.zeros(8))
    with pytest.raises(ValueError, match="parameters"):
        unitary_from_flat(2, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="parameters"):
        unitary_from_flat(2, 0.0)


def test_zero_construction_identity_when_already_zero(dims_2x3):
    amp = np.zeros((2, 3), dtype=complex)
    amp[0, 1] = amp[1, 0] = 1 / np.sqrt(2)  # amp[0,0] = amp[1,2] = 0 already
    psi = bg.PureState(dims_2x3, amp)
    out, u = bg.zero_a11_a23(psi)
    assert bg.matrices_close(u.u_a, np.eye(2))
    assert bg.matrices_close(u.u_b, np.eye(3))
    assert bg.matrices_close(out.amp, amp)


def test_zero_construction_bell_example(bell_2x3):
    out, u = bg.zero_a11_a23(bell_2x3)
    assert abs(out.amp[0, 0]) < 1e-12
    assert abs(out.amp[1, 2]) < 1e-12
    rebuilt = bg.apply_local(bell_2x3, u)
    assert bg.matrices_close(rebuilt.amp, out.amp)
    assert bg.gamma_pure(out, bg.PAPER_2X3).total == pytest.approx(
        bg.concurrence_2x3(bell_2x3), abs=1e-10
    )


def test_zero_construction_a21_zero_branch(dims_2x3):
    # amp[1,0] = 0 with amp[0,0] != 0 takes the swap-like theta = pi/2 branch
    amp = np.array([[0.6, 0.0, 0.0], [0.0, 0.48, 0.64]], dtype=complex)
    psi = bg.PureState(dims_2x3, amp)
    out, _ = bg.zero_a11_a23(psi)
    assert abs(out.amp[0, 0]) < 1e-12
    assert abs(out.amp[1, 2]) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_zero_construction_random_states(seed):
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, seed)
    out, u = bg.zero_a11_a23(psi)
    assert abs(out.amp[0, 0]) < 1e-12
    assert abs(out.amp[1, 2]) < 1e-12
    assert abs(bg.i_concurrence(out) - bg.i_concurrence(psi)) < 1e-10
    assert abs(
        bg.gamma_pure(out, bg.PAPER_2X3).total - bg.concurrence_2x3(psi)
    ) < 1e-9


def test_schmidt_rotation_diagonalizes(three_term_2x3):
    out, u = bg.schmidt_rotation(three_term_2x3)
    off = out.amp.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) < 1e-10
    assert abs(out.amp[0, 0]) == pytest.approx(math.sqrt(2 / 3), abs=1e-10)
    assert abs(out.amp[1, 1]) == pytest.approx(math.sqrt(1 / 3), abs=1e-10)
    assert abs(bg.i_concurrence(out) - bg.i_concurrence(three_term_2x3)) < 1e-10


def test_maximize_gamma_product_state_stays_zero():
    psi = bg.max_entangled(1, bg.BipartiteDims(2, 3))
    report = bg.maximize_gamma(psi, bg.CONCURRENCE_MATCHED, QUICK_OPTS)
    assert report.best_gamma < 1e-9


def test_maximize_gamma_bell_reaches_i_concurrence(bell_2x3):
    report = bg.maximize_gamma(bell_2x3, bg.CONCURRENCE_MATCHED, QUICK_OPTS)
    assert report.best_gamma == pytest.approx(1.0, abs=1e-6)
    assert report.schmidt_gamma == pytest.approx(1.0, abs=1e-10)
    assert report.restarts == QUICK_OPTS.restarts


@pytest.mark.parametrize("seed", [11, 12])
def test_maximize_gamma_lower_bounds(seed):
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, seed)
    cfg = bg.CONCURRENCE_MATCHED
    report = bg.maximize_gamma(psi, cfg, QUICK_OPTS)
    assert report.best_gamma >= bg.gamma_pure(psi, cfg).total - 1e-12
    assert report.best_gamma >= bg.gamma_schmidt(psi, cfg) - 1e-6
    assert report.best_unitary.u_a.shape == (2, 2)
    # the reported unitary reproduces the reported value
    reval = bg.gamma_pure(bg.apply_local(psi, report.best_unitary), cfg).total
    assert reval == pytest.approx(report.best_gamma, abs=1e-12)


def test_maximize_gamma_deterministic():
    psi = bg.random_pure(bg.BipartiteDims(2, 3), 21)
    r1 = bg.maximize_gamma(psi, bg.CONCURRENCE_MATCHED, QUICK_OPTS)
    r2 = bg.maximize_gamma(psi, bg.CONCURRENCE_MATCHED, QUICK_OPTS)
    assert r1.best_gamma == r2.best_gamma
    assert bg.matrices_close(r1.best_unitary.u_a, r2.best_unitary.u_a, tol=0.0)


def _reference_line_max(f1d, x0, f0, coarse, line_tol):
    """The line search of one restart on its own, probe by probe."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_f = x0, f0
    step = 2.0 * math.pi / coarse
    cx = x0
    for i in range(1, coarse):
        x = x0 + i * step
        fx = f1d(x)
        if fx > best_f:
            best_x, best_f, cx = x, fx, x
    a, b = cx - step, cx + step
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = f1d(c), f1d(d)
    while b - a > line_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = f1d(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = f1d(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def _reference_ascent(objective, m, n, opts):
    """Coordinate ascent of one restart on its own: (value, sweeps, converged)."""
    xs = [np.zeros(m * m), np.zeros(n * n)]
    us = [unitary_from_flat(m, xs[0]), unitary_from_flat(n, xs[1])]
    f = float(objective(*us))
    for sweep in range(1, opts.max_sweeps + 1):
        f_start = f
        for side, d in enumerate((m, n)):
            x = xs[side]
            for ci in range(d * d):

                def along(t):
                    trial = x.copy()
                    trial[ci] = t
                    pair = list(us)
                    pair[side] = unitary_from_flat(d, trial)
                    return float(objective(*pair))

                x[ci], f = _reference_line_max(
                    along, x[ci], f, opts.coarse_points, opts.line_tol
                )
            us[side] = unitary_from_flat(d, x)
        if f - f_start <= opts.tol:
            return f, sweep, True
    return f, opts.max_sweeps, False


def test_lockstep_line_max_stops_each_row_where_it_would_stop_alone():
    # With line_tol at a bracket width, rounding in the bracket ends makes
    # some rows take one golden step more than others.
    rng = np.random.default_rng(0)
    shift, x0 = rng.uniform(-3, 3, 6), rng.uniform(-50, 50, 6)
    width = 4 * math.pi / 8 * ((math.sqrt(5.0) - 1.0) / 2.0) ** 5
    probe_counts = set()
    for tol in width * (1 + np.linspace(-1e-13, 1e-13, 41)):
        xs, fs = _lockstep_line_max(
            lambda x: np.cos(x - shift), x0, np.cos(x0 - shift), 8, tol
        )
        for r in range(6):
            probes = []

            def f1d(x):
                probes.append(x)
                return float(np.cos(x - shift[r]))

            x_ref, f_ref = _reference_line_max(f1d, x0[r], f1d(x0[r]), 8, tol)
            assert abs(xs[r] - x_ref) <= 1e-12 and abs(fs[r] - f_ref) <= 1e-12
            probe_counts.add(len(probes))
    assert len(probe_counts) > 1


# Short budgets leave some restarts unconverged while others stop, so values
# are compared mid-path and the batch shrinks as restarts converge.
BATCH_CASES = {
    "pure-2x3": (bg.random_pure(bg.BipartiteDims(2, 3), 31), 3),
    "pure-3x3": (bg.random_pure(bg.BipartiteDims(3, 3), 32), 2),
    "density-2x3": (bg.random_density(bg.BipartiteDims(2, 3), 33), 2),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_lockstep_restarts_match_restarts_run_alone(case):
    state, max_sweeps = BATCH_CASES[case]
    opts = bg.OptimizerOptions(restarts=8, max_sweeps=max_sweeps, seed=4)
    _, start, objective = _restart_batch(state, bg.CONCURRENCE_MATCHED, opts)
    m, n = state.dims.m, state.dims.n
    f, ua, ub, sweeps, converged = _lockstep_ascent(objective, start, m, n, opts)
    assert len(f) == 8
    for i in range(8):
        f1, ua1, ub1, sweeps1, converged1 = _lockstep_ascent(
            objective, start[i:i + 1], m, n, opts
        )
        assert abs(f1[0] - f[i]) <= 1e-12
        assert (sweeps1[0], converged1[0]) == (sweeps[i], converged[i])
        assert bg.matrices_close(ua1[0], ua[i]) and bg.matrices_close(ub1[0], ub[i])
        f_ref, sweeps_ref, converged_ref = _reference_ascent(
            lambda ua, ub: objective(start[i], ua, ub), m, n, opts
        )
        assert abs(f_ref - f[i]) <= 1e-12
        assert (sweeps_ref, converged_ref) == (sweeps[i], converged[i])


def test_maximize_gamma_mixed_product_state():
    rho = bg.random_product(bg.BipartiteDims(2, 2), 3)
    report = bg.maximize_gamma(rho, bg.CONCURRENCE_MATCHED, bg.OptimizerOptions(restarts=2, max_sweeps=6))
    assert report.schmidt_gamma is None
    assert report.best_gamma < 1e-9


def test_conjecture_sweep_rows_and_summary():
    report = bg.conjecture_sweep(["2x2"], trials=5, seed=9, opts=SWEEP_OPTS)
    assert len(report.rows) == 5
    summary = report.summaries[0]
    assert summary.dims == "2x2"
    assert summary.trials == 5
    assert summary.max_deviation < 1e-6
    assert summary.overshoots == 0


def test_conjecture_sweep_thread_determinism():
    serial = bg.conjecture_sweep(["2x2"], trials=4, seed=3)
    threaded = bg.conjecture_sweep(["2x2"], trials=4, seed=3, threads=2)
    assert serial.rows == threaded.rows


def test_conjecture_sweep_empty():
    report = bg.conjecture_sweep(["2x2"], trials=0, seed=0)
    assert report.rows == ()
    assert report.summaries[0].trials == 0
