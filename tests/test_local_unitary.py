import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgamma as bg
from bellgamma.local_unitary import (
    _PARABOLIC_STEPS,
    SWEEP_OPTS,
    _coordinate_line,
    _form_gamma,
    _lockstep_ascent,
    _lockstep_line_max,
    _restart_batch,
    unitary_from_flat,
)

QUICK_OPTS = bg.OptimizerOptions(restarts=3, max_sweeps=12)


def test_local_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        bg.LocalUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_local_unitary_rejects_non_finite_entries(bad):
    u = np.eye(2, dtype=complex)
    u[1, 0] = bad
    with pytest.raises(ValueError, match="^u_a entries must be finite$"):
        bg.LocalUnitary(u, np.eye(3))
    with pytest.raises(ValueError, match="^u_b entries must be finite$"):
        bg.LocalUnitary(np.eye(3), u)
    with pytest.raises(ValueError, match="^u_a entries must be finite$"):
        bg.LocalUnitary(np.full((2, 2), np.nan), np.eye(2))


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


@pytest.mark.parametrize("sizes", [(3, 2), (2, 2), (3, 3)])
def test_apply_local_rejects_factors_of_the_wrong_sizes(sizes):
    # (3, 2) swaps the factors: kron is still 6x6, but not local on 2x3.
    dims = bg.BipartiteDims(2, 3)
    rng = np.random.default_rng(1)
    u = bg.LocalUnitary(*(bg.haar_unitary(d, rng) for d in sizes))
    message = f"sizes {sizes[0]}x{sizes[1]} do not match dims 2x3"
    with pytest.raises(ValueError, match=message):
        bg.apply_local(bg.random_pure(dims, 0), u)
    with pytest.raises(ValueError, match=message):
        bg.apply_local_density(bg.random_density(dims, 0), u)


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


def _reference_line_max(f1d, x0, f0, points, trace=None):
    """The line search of one restart on its own, probe by probe.

    Python floats and branches stand in for the batched search's arrays and
    masks; each value goes through the same floating-point operations.  The
    grid scan keeps the first best point, with the incumbent as point 0.
    Each parabolic step takes the vertex of the parabola through the
    bracket, kept only if it falls strictly inside.  ``trace`` collects each
    step's outcome.
    """
    offsets = (2.0 * math.pi * np.fft.fftfreq(points)).tolist()
    values = [f0] + [f1d(x0 + d) for d in offsets[1:]]
    best = max(range(points), key=values.__getitem__)
    x, fx = x0 + offsets[best], values[best]
    # bracket ends as offsets from x, with their values
    lo, hi = -offsets[1], offsets[1]
    f_lo, f_hi = values[best - 1], values[(best + 1) % points]
    for _ in range(_PARABOLIC_STEPS):
        g_lo, g_hi = fx - f_lo, fx - f_hi
        num = 0.5 * (lo * lo * g_hi - hi * hi * g_lo)
        den = lo * g_hi - hi * g_lo
        if not (num < lo * den and num > hi * den):
            outcome = "discarded"
        else:
            step = num / den
            f_step = f1d(x + step)
            if f_step > fx:
                outcome = "moved"
                if step < 0.0:
                    hi, f_hi = 0.0, fx
                else:
                    lo, f_lo = 0.0, fx
                x, fx, lo, hi = x + step, f_step, lo - step, hi - step
            else:
                outcome = "trimmed"
                if step < 0.0:
                    lo, f_lo = step, f_step
                else:
                    hi, f_hi = step, f_step
        if trace is not None:
            trace.append(outcome)
    return x, fx


def _reference_ascent(form, start, m, n, n2, opts):
    """Coordinate ascent of one restart on its own: (value, sweeps, converged).

    ``start`` holds the one restart's rotated state as a batch of one.  Each
    probe goes through the same coordinate line form as the lockstep search,
    one probe at a time; a sweep's value is the objective at its unitaries.
    """
    xs = [np.zeros((1, m * m)), np.zeros((1, n * n))]
    us = [unitary_from_flat(m, xs[0]), unitary_from_flat(n, xs[1])]
    f = float(_form_gamma(form, start, *us, n2)[0])
    for sweep in range(1, opts.max_sweeps + 1):
        f_start = f
        for side, d in enumerate((m, n)):
            x = xs[side]
            for ci in range(d * d):
                line = _coordinate_line(form, start, us, side, x, ci, n2)
                x[0, ci], f = _reference_line_max(
                    lambda t: float(line(np.array([t]))[0]),
                    x[0, ci], f, opts.coarse_points,
                )
            us[side] = unitary_from_flat(d, x)
        f = float(_form_gamma(form, start, *us, n2)[0])
        if f - f_start <= opts.tol:
            return f, sweep, True
    return f, opts.max_sweeps, False


def test_lockstep_line_max_stops_each_row_where_it_would_stop_alone():
    # Rows mix a smooth peak, a kinked peak (where parabolic vertices miss)
    # and a flat line (where every vertex is degenerate), so in one batch
    # rows move, trim and discard at different steps.
    rng = np.random.default_rng(0)
    rows = 12
    shift, x0 = rng.uniform(-3, 3, rows), rng.uniform(-50, 50, rows)
    smooth, kinked = rng.uniform(0, 1, rows), rng.uniform(0, 1, rows)
    smooth[-1] = kinked[-1] = 0.0

    def f(x, r=slice(None)):
        return (smooth[r] * np.cos(x - shift[r])
                - kinked[r] * np.abs(np.sin((x - shift[r]) / 2.0)))

    traces = set()
    for points in (5, 8, 32):
        xs, fs = _lockstep_line_max(f, x0, f(x0), points)
        for r in range(rows):
            trace = []
            x_ref, f_ref = _reference_line_max(
                lambda x: float(f(x, r)), x0[r], float(f(x0[r], r)), points, trace
            )
            assert abs(xs[r] - x_ref) <= 1e-12 and abs(fs[r] - f_ref) <= 1e-12
            assert fs[r] >= f(x0[r], r)
            traces.add(tuple(trace))
    assert len(traces) > 2
    assert {"moved", "trimmed", "discarded"} <= {o for t in traces for o in t}


def test_optimizer_options_need_a_grid_of_three_points():
    assert bg.OptimizerOptions(coarse_points=3).coarse_points == 3
    for points in (2, 0):
        with pytest.raises(ValueError, match="coarse_points must be >= 3"):
            bg.OptimizerOptions(coarse_points=points)


def test_lockstep_line_max_finds_a_smooth_peak():
    rng = np.random.default_rng(1)
    shift, x0 = rng.uniform(-np.pi, np.pi, 8), rng.uniform(-np.pi, np.pi, 8)
    xs, fs = _lockstep_line_max(lambda x: np.cos(x - shift), x0, np.cos(x0 - shift), 32)
    assert np.max(np.abs(np.angle(np.exp(1j * (xs - shift))))) < 1e-6
    assert np.max(1.0 - fs) < 1e-12


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
    _, start, form = _restart_batch(state, opts)
    m, n, n2 = state.dims.m, state.dims.n, bg.CONCURRENCE_MATCHED.n2
    f, ua, ub, sweeps, converged = _lockstep_ascent(form, start, m, n, n2, opts)
    assert len(f) == 8
    for i in range(8):
        f1, ua1, ub1, sweeps1, converged1 = _lockstep_ascent(
            form, start[i:i + 1], m, n, n2, opts
        )
        assert abs(f1[0] - f[i]) <= 1e-12
        assert (sweeps1[0], converged1[0]) == (sweeps[i], converged[i])
        assert bg.matrices_close(ua1[0], ua[i]) and bg.matrices_close(ub1[0], ub[i])
        f_ref, sweeps_ref, converged_ref = _reference_ascent(
            form, start[i:i + 1], m, n, n2, opts
        )
        assert abs(f_ref - f[i]) <= 1e-12
        assert (sweeps_ref, converged_ref) == (sweeps[i], converged[i])


def test_maximize_gamma_mixed_product_state():
    rho = bg.random_product(bg.BipartiteDims(2, 2), 3)
    report = bg.maximize_gamma(rho, bg.CONCURRENCE_MATCHED, bg.OptimizerOptions(restarts=2, max_sweeps=6))
    assert report.schmidt_gamma is None
    assert report.best_gamma < 1e-9


def _random_state(kind, dims, seed):
    return (bg.random_pure if kind == "pure" else bg.random_density)(dims, seed)


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_coordinate_line_equals_the_objective_at_the_moved_unitary(kind, dims):
    m, n = dims
    state = _random_state(kind, bg.BipartiteDims(m, n), 10 * m + n)
    _, start, form = _restart_batch(state, bg.OptimizerOptions(restarts=3, seed=5))
    n2 = bg.CONCURRENCE_MATCHED.n2
    rng = np.random.default_rng(m * n)
    xs = [rng.uniform(-np.pi, np.pi, (3, m * m)), rng.uniform(-np.pi, np.pi, (3, n * n))]
    pair = [unitary_from_flat(m, xs[0]), unitary_from_flat(n, xs[1])]
    for side, d in enumerate((m, n)):
        for ci in range(d * d):
            t = rng.uniform(-4 * np.pi, 4 * np.pi, (5, 3))
            along = _coordinate_line(form, start, pair, side, xs[side], ci, n2)(t)
            trial = np.repeat(xs[side][None], len(t), axis=0)
            trial[..., ci] = t
            moved = list(pair)
            moved[side] = unitary_from_flat(d, trial)
            direct = _form_gamma(form, start, *moved, n2)
            assert along.shape == t.shape
            assert np.max(np.abs(along - direct)) <= 1e-13


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_objective_is_gamma_of_the_rotated_state(kind, dims):
    d = bg.BipartiteDims(*dims)
    state = _random_state(kind, d, 3)
    bases, start, form = _restart_batch(state, bg.OptimizerOptions(restarts=4, seed=1))
    u = bg.random_local_unitary(d, 2)
    got = _form_gamma(form, start, u.u_a, u.u_b, bg.PAPER_2X3.n2)
    for (ba, bb), value in zip(bases, got):
        moved = bg.LocalUnitary(u.u_a @ ba, u.u_b @ bb)
        if kind == "pure":
            want = bg.gamma_pure(bg.apply_local(state, moved), bg.PAPER_2X3).total
        else:
            want = bg.gamma(bg.apply_local_density(state, moved), bg.PAPER_2X3).total
        assert abs(value - want) <= 1e-13


def test_maximize_gamma_density_reported_unitary_reproduces_value():
    rho = bg.random_density(bg.BipartiteDims(2, 3), 11)
    cfg = bg.CONCURRENCE_MATCHED
    report = bg.maximize_gamma(rho, cfg, QUICK_OPTS)
    assert report.best_gamma >= bg.gamma(rho, cfg).total - 1e-12
    reval = bg.gamma(bg.apply_local_density(rho, report.best_unitary), cfg).total
    assert reval == pytest.approx(report.best_gamma, abs=1e-12)


@pytest.mark.parametrize("dims", ["2x2", "2x3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_one_density_reaches_the_pure_supremum(dims, seed):
    psi = bg.random_pure(bg.BipartiteDims.parse(dims), seed)
    cfg = bg.CONCURRENCE_MATCHED
    report = bg.maximize_gamma(bg.pure_to_density(psi), cfg)
    assert abs(report.best_gamma - bg.gamma_schmidt(psi, cfg)) <= 1e-10


@pytest.mark.parametrize("dims", ["2x2", "2x3", "3x2", "3x3"])
def test_product_density_converges_after_one_sweep_per_restart(dims):
    rho = bg.random_product(bg.BipartiteDims.parse(dims), 6)
    report = bg.maximize_gamma(rho, bg.CONCURRENCE_MATCHED, bg.OptimizerOptions(seed=6))
    assert report.converged
    assert report.iterations == report.restarts
    assert report.best_gamma <= 1e-12


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
