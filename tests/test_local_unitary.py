import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgamma as bg
from bellgamma.local_unitary import (
    _GRID_POINTS,
    _PARABOLIC_STEPS,
    _SWEEP_TOL,
    _coordinate_line,
    _dense_form,
    _dense_rotate,
    _generator_anchors,
    _grid_offsets,
    _line_gather,
    _lockstep_ascent,
    _lockstep_line_max,
    _matmul,
    _restart_batch,
    _rotate_factor,
    _trig_basis,
)
from bellgamma.linalg import MAX_INPUT_DIM
from bellgamma.measures import _gamma_of_pairs

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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generators_and_diagonal_phases_span_the_unitary_algebra(d):
    # Each line moves along exp(tX) for an off-diagonal generator X; with
    # the d diagonal phases i E_kk they form a real basis of the d*d-dim
    # space of anti-Hermitian matrices, so every tangent direction is a sum
    # of line directions and a phase direction.
    anchors = _generator_anchors(d)
    assert anchors.shape == (d * (d - 1), 3, d, d)
    gens = anchors[:, 2]
    assert np.array_equal(gens.conj().swapaxes(-1, -2), -gens)
    assert np.array_equal(np.diagonal(gens, axis1=-2, axis2=-1), np.zeros((len(gens), d)))
    phases = 1j * np.eye(d)[:, :, None] * np.eye(d)
    basis = np.concatenate([gens, phases]).reshape(d * d, d * d)
    assert np.linalg.matrix_rank(np.concatenate([basis.real, basis.imag], axis=1)) == d * d
    # exp(tX) = A0 + A1 cos t + A2 sin t, at t = 0 and t = pi/2
    for a0, a1, a2 in anchors:
        assert np.array_equal(a0 + a1, np.eye(d))
        assert bg.matrices_close(a0 + a2, _exp(a2, np.pi / 2), tol=1e-14)


def _exp(x, t):
    """exp(tX) for anti-Hermitian X, from the eigendecomposition of -iX;
    ``t`` of any shape gives a (*t.shape, d, d) stack."""
    w, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * np.multiply.outer(t, w))[..., None, :]) @ v.conj().T


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


def test_grid_offsets_equal_fftfreq():
    for points in range(3, 65):
        want = 2.0 * math.pi * np.fft.fftfreq(points)
        assert _grid_offsets(points).tobytes() == want.tobytes(), points


def _reference_line_max(f1d, f0, points, trace=None):
    """The line search of one restart on its own, probe by probe, from 0.

    Python floats and branches stand in for the batched search's arrays and
    masks; each value goes through the same floating-point operations.  The
    grid scan keeps the first best point, with the incumbent (0, f0) as
    point 0.  Each parabolic step takes the vertex of the parabola through
    the bracket, kept only if it falls strictly inside.  ``trace`` collects
    each step's outcome.
    """
    offsets = (2.0 * math.pi * np.fft.fftfreq(points)).tolist()
    values = [f0] + [f1d(d) for d in offsets[1:]]
    best = max(range(points), key=values.__getitem__)
    x, fx = offsets[best], values[best]
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


def _objective(start, ua, ub, n2):
    """The reference objective: gamma of each row of ``start`` rotated by
    (ua, ub), through the dense paired form."""
    return _gamma_of_pairs(_dense_form(start, ua, ub, ua, ub), n2)


def _reference_ascent(source, base, n2, opts):
    """Coordinate ascent of one restart on its own: (value, sweeps, converged).

    ``base`` holds the one restart's (u_a, u_b) as batches of one.  Each
    probe goes through the same coordinate line form as the lockstep search,
    one probe at a time, and the state and the factor move by each accepted
    rotation through the same products; a sweep's value is the reference
    objective read from the density matrix ``source`` at its unitaries.
    """
    us = list(base)
    dims = [u.shape[-1] for u in us]
    eyes = [np.eye(d, dtype=complex) for d in dims]
    state = _dense_rotate(source, *us)
    f = float(_objective(state, *eyes, n2)[0])
    for sweep in range(1, opts.max_sweeps + 1):
        f_start = f
        for side, d in enumerate(dims):
            for gen, anchors in enumerate(_generator_anchors(d)):
                line = _coordinate_line(state, *dims, side, gen, n2)
                t, f = _reference_line_max(
                    lambda t: float(line(_trig_basis(np.array([t])))[0]), f, _GRID_POINTS,
                )
                step = list(eyes)
                at = np.full((1, 1, 1), t)
                step[side] = anchors[0] + anchors[1] * np.cos(at) + anchors[2] * np.sin(at)
                state = _dense_rotate(state, *step)
                us[side] = _matmul(step[side], us[side])
        state = _dense_rotate(source, *us)
        f = float(_objective(state, *eyes, n2)[0])
        if f - f_start <= _SWEEP_TOL:
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

    def f(t, r=slice(None)):
        x = x0[r] + t
        return (smooth[r] * np.cos(x - shift[r])
                - kinked[r] * np.abs(np.sin((x - shift[r]) / 2.0)))

    traces = set()
    for points in (5, 8, 32):
        grid = f(_grid_offsets(points)[1:, None])
        ts, fs = _lockstep_line_max(f, grid, f(0.0))
        for r in range(rows):
            trace = []
            t_ref, f_ref = _reference_line_max(
                lambda t: float(f(t, r)), float(f(0.0, r)), points, trace
            )
            assert abs(ts[r] - t_ref) <= 1e-12 and abs(fs[r] - f_ref) <= 1e-12
            assert fs[r] >= f(0.0, r)
            traces.add(tuple(trace))
    assert len(traces) > 2
    assert {"moved", "trimmed", "discarded"} <= {o for t in traces for o in t}


def test_lockstep_line_max_finds_a_smooth_peak():
    rng = np.random.default_rng(1)
    shift, x0 = rng.uniform(-np.pi, np.pi, 8), rng.uniform(-np.pi, np.pi, 8)
    def f(t):
        return np.cos(x0 + t - shift)

    ts, fs = _lockstep_line_max(f, f(_grid_offsets(32)[1:, None]), f(0.0))
    assert np.max(np.abs(np.angle(np.exp(1j * (x0 + ts - shift))))) < 1e-6
    assert np.max(1.0 - fs) < 1e-12


def _trig_sum_family(rows):
    """A seeded family of 2*pi-periodic lines for the line search: the first
    ``rows`` of 64, returned as (f1d, grid values, incumbent values).

    Row r is sum_k a_kr cos(kt) + b_kr sin(kt) - kink_r |sin((t - shift_r)/2)|
    for k = 1..3: smooth every third row, kink-dominated every sixth.  Row 5
    is constant, so no parabola through its bracket has a maximum.  The
    vertex of a parabola through a bracket whose middle is its largest value
    lies within half the bracket, so only an infinite value puts it outside:
    row 13 has -inf at its lower bracket end.  Row 7's grid and row 11's
    incumbent are NaN.
    """
    rng = np.random.default_rng(2024)
    a, b = rng.standard_normal((2, 3, 64))
    kink, shift = rng.uniform(0, 2, 64), rng.uniform(-math.pi, math.pi, 64)
    kink[::3] = 0.0
    a[:, 2::6] *= 0.05
    b[:, 2::6] *= 0.05
    a[:, 5] = b[:, 5] = kink[5] = 0.0
    k = np.arange(1, 4)[:, None]
    a, b, kink, shift = a[:, :rows], b[:, :rows], kink[:rows], shift[:rows]

    def f(t):
        x = np.asarray(t, dtype=float)[..., None, :] * k
        return ((a * np.cos(x) + b * np.sin(x)).sum(axis=-2)
                - kink * np.abs(np.sin((np.asarray(t) - shift) / 2.0)))

    values = f(_grid_offsets(_GRID_POINTS)[:, None] + np.zeros(rows))
    if rows > 13:
        values[values[:, 13].argmax() - 1, 13] = -np.inf
    if rows > 11:
        values[0, 11] = np.nan
    if rows > 7:
        values[1:, 7] = np.nan
    return f, values[1:], values[0]


# sha256 of the line search's " "-joined float.hex of x and then f for the
# first R rows of ``_trig_sum_family``, recorded with numpy 2.4 on x86-64.
PINNED_LINE_SEARCHES = {
    1: "cf98bf4adfcd6c49f4e205d5f4ddedbff2b55b1a64ece3e636486dc912c588f5",
    4: "7b02b7f7d3ae63fe4d7685350af4aab8bce412c98938f14ce276e3562f6c5ba4",
    8: "645403fb46d511b44e0c8726da66fc9382116113b400500236819b1715eaa4e5",
    64: "988d16bf5d4648ad8ad8fe185ddf832294630b9a1868f9c882c81af3416c9872",
}


@pytest.mark.parametrize("rows", sorted(PINNED_LINE_SEARCHES))
def test_lockstep_line_max_matches_its_pinned_result_bit_for_bit(rows):
    x, fx = _lockstep_line_max(*_trig_sum_family(rows))
    text = " ".join(float.hex(float(v)) for v in np.concatenate([x, fx]))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LINE_SEARCHES[rows]


def test_trig_sum_family_reaches_every_kind_of_parabolic_step():
    f, grid, f0 = _trig_sum_family(64)
    x, fx = _lockstep_line_max(f, grid, f0)
    assert np.isnan(fx[[7, 11]]).all() and (x[[7, 11]] == _grid_offsets(_GRID_POINTS)[[1, 0]]).all()
    # rows 5 and 13 discard every step and keep their best grid point
    values = np.vstack([f0, grid])
    for r in (5, 13):
        assert x[r] == _grid_offsets(_GRID_POINTS)[values[:, r].argmax()]
        assert fx[r] == values[:, r].max()
    outcomes = set()
    for r in set(range(64)) - {7, 11, 13}:
        trace = []
        _reference_line_max(lambda t: float(f(np.full(64, t))[r]), float(f0[r]),
                            _GRID_POINTS, trace)
        outcomes.update(trace)
    assert outcomes == {"moved", "trimmed", "discarded"}


# Short budgets leave some restarts unconverged while others stop, so values
# are compared mid-path and the batch shrinks as restarts converge.
BATCH_CASES = {
    "pure-2x3": (bg.random_pure(bg.BipartiteDims(2, 3), 31), 3),
    "pure-3x3": (bg.random_pure(bg.BipartiteDims(3, 3), 32), 2),
    "density-2x3": (bg.random_density(bg.BipartiteDims(2, 3), 33), 7),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_lockstep_restarts_match_restarts_run_alone(case):
    state, max_sweeps = BATCH_CASES[case]
    opts = bg.OptimizerOptions(restarts=8, max_sweeps=max_sweeps, seed=4)
    bases, source = _restart_batch(state, opts), _density_matrix(state)
    n2 = bg.CONCURRENCE_MATCHED.n2
    f, ua, ub, sweeps, converged = _lockstep_ascent(source, bases, n2, opts)
    assert len(f) == 8
    for i in range(8):
        base = tuple(u[i:i + 1] for u in bases)
        f1, ua1, ub1, sweeps1, converged1 = _lockstep_ascent(source, base, n2, opts)
        assert abs(f1[0] - f[i]) <= 1e-12
        assert (sweeps1[0], converged1[0]) == (sweeps[i], converged[i])
        assert bg.matrices_close(ua1[0], ua[i]) and bg.matrices_close(ub1[0], ub[i])
        f_ref, sweeps_ref, converged_ref = _reference_ascent(source, base, n2, opts)
        assert abs(f_ref - f[i]) <= 1e-12
        assert (sweeps_ref, converged_ref) == (sweeps[i], converged[i])


def test_maximize_gamma_mixed_product_state():
    rho = bg.random_product(bg.BipartiteDims(2, 2), 3)
    report = bg.maximize_gamma(rho, bg.CONCURRENCE_MATCHED, bg.OptimizerOptions(restarts=2, max_sweeps=6))
    assert report.best_gamma < 1e-9


def _random_state(kind, dims, seed):
    return (bg.random_pure if kind == "pure" else bg.random_density)(dims, seed)


def _density_matrix(state):
    """The matrix the search runs on: the projector of a pure input."""
    return (bg.pure_to_density(state) if isinstance(state, bg.PureState) else state).mat


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_coordinate_line_equals_the_objective_at_the_moved_unitary(kind, dims):
    m, n = dims
    state = _random_state(kind, bg.BipartiteDims(m, n), 10 * m + n)
    source = _density_matrix(state)
    n2 = bg.CONCURRENCE_MATCHED.n2
    rng = np.random.default_rng(m * n)
    # three rows, each the input in its own random frame
    frames = [bg.random_local_unitary(state.dims, [m * n, r]) for r in range(3)]
    current = _dense_rotate(
        source, np.array([u.u_a for u in frames]), np.array([u.u_b for u in frames])
    )
    eyes = [np.eye(m, dtype=complex), np.eye(n, dtype=complex)]
    for side, d in enumerate((m, n)):
        for gen, anchors in enumerate(_generator_anchors(d)):
            t = rng.uniform(-4 * np.pi, 4 * np.pi, (5, 3))
            along = _coordinate_line(current, m, n, side, gen, n2)(_trig_basis(t))
            moved = list(eyes)
            moved[side] = _exp(anchors[2], t)
            direct = _objective(current, *moved, n2)
            assert along.shape == t.shape
            assert np.max(np.abs(along - direct)) <= 1e-13


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gathered_line_table_equals_the_dense_form_table(m, n):
    # Every anchor row has at most one nonzero, one of 0, +-1 and +-i, so the
    # gather does the dense form's arithmetic exactly, and each coefficient
    # adds the same two table entries: equal bit for bit.
    dims = bg.BipartiteDims(m, n)
    rho = bg.random_density(dims, 10 * m + n)
    frames = [bg.random_local_unitary(dims, [m, n, r]) for r in range(3)]
    current = _dense_rotate(
        rho.mat, np.array([u.u_a for u in frames]), np.array([u.u_b for u in frames])
    )
    eyes = [np.eye(m, dtype=complex), np.eye(n, dtype=complex)]
    for side, d in enumerate((m, n)):
        for gen, anchors in enumerate(_generator_anchors(d)):
            first, second = list(eyes), list(eyes)
            first[side], second[side] = anchors[:, None, None], anchors[None, :, None]
            g = np.moveaxis(_dense_form(current, *first, *second), 2, 0)
            want = np.stack([g[:, 0, 0], g[:, 0, 1] + g[:, 1, 0], g[:, 0, 2] + g[:, 2, 0],
                             g[:, 1, 1], g[:, 1, 2] + g[:, 2, 1], g[:, 2, 2]], axis=1)
            index, weight = _line_gather(m, n, side, gen)
            assert index.shape == weight.shape == (2, 6, len(g[0, 0, 0]))
            terms = current.reshape(3, -1).take(index, axis=-1) * weight
            assert np.array_equal(terms[:, 0] + terms[:, 1], want)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factor_rotation_equals_the_dense_rotation(m, n):
    # A step exp(tX) has at most two nonzeros per row, so each entry of the
    # rotated state sums at most two nonzero products, the same ones the
    # dense kron product forms: equal bit for bit.
    dims = bg.BipartiteDims(m, n)
    rho = bg.random_density(dims, 10 * m + n)
    frames = [bg.random_local_unitary(dims, [n, m, r]) for r in range(3)]
    current = _dense_rotate(
        rho.mat, np.array([u.u_a for u in frames]), np.array([u.u_b for u in frames])
    )
    rng = np.random.default_rng(m * n)
    eyes = [np.eye(m, dtype=complex), np.eye(n, dtype=complex)]
    for side, d in enumerate((m, n)):
        for anchors in _generator_anchors(d):
            t = rng.uniform(-np.pi, np.pi, (3, 1, 1))
            step = anchors[0] + anchors[1] * np.cos(t) + anchors[2] * np.sin(t)
            joint = list(eyes)
            joint[side] = step
            assert np.array_equal(_rotate_factor(current, step, side, m, n),
                                  _dense_rotate(current, *joint))


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_objective_is_gamma_of_the_rotated_state(kind, dims):
    d = bg.BipartiteDims(*dims)
    state = _random_state(kind, d, 3)
    bases = _restart_batch(state, bg.OptimizerOptions(restarts=4, seed=1))
    u = bg.random_local_unitary(d, 2)
    got = _objective(_dense_rotate(_density_matrix(state), *bases), u.u_a, u.u_b,
                     bg.PAPER_2X3.n2)
    for ba, bb, value in zip(*bases, got):
        moved = bg.LocalUnitary(u.u_a @ ba, u.u_b @ bb)
        if kind == "pure":
            want = bg.gamma_pure(bg.apply_local(state, moved), bg.PAPER_2X3).total
        else:
            want = bg.gamma(bg.apply_local_density(state, moved), bg.PAPER_2X3).total
        assert abs(value - want) <= 1e-13


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("dims", ["2x3", "3x3", "4x2"])
def test_restart_bases_are_the_seeded_haar_draws(kind, dims):
    d = bg.BipartiteDims.parse(dims)
    for seed in range(4):
        state = _random_state(kind, d, seed)
        ua, ub = _restart_batch(state, bg.OptimizerOptions(seed=seed))
        assert ua.shape == (8, d.m, d.m) and ub.shape == (8, d.n, d.n)
        assert np.array_equal(ua[0], np.eye(d.m)) and np.array_equal(ub[0], np.eye(d.n))
        first = 1
        if kind == "pure":
            _, rot = bg.schmidt_rotation(state)
            assert np.array_equal(ua[1], rot.u_a) and np.array_equal(ub[1], rot.u_b)
            first = 2
        for i in range(first, 8):
            u = bg.random_local_unitary(d, [seed, i])
            assert np.array_equal(ua[i], u.u_a) and np.array_equal(ub[i], u.u_b)


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("dims", ["2x2", "2x3", "3x2", "3x3", "3x4"])
def test_reported_value_is_gamma_at_the_reported_unitary(kind, dims):
    # Every accepted rotation multiplies into the factors; a long search
    # must still report gamma at the unitary it returns.
    state = _random_state(kind, bg.BipartiteDims.parse(dims), 4)
    cfg = bg.CONCURRENCE_MATCHED
    report = bg.maximize_gamma(state, cfg, bg.OptimizerOptions(restarts=3, max_sweeps=200))
    u = report.best_unitary  # LocalUnitary has checked that it is unitary
    if kind == "pure":
        reval = bg.gamma_pure(bg.apply_local(state, u), cfg).total
    else:
        reval = bg.gamma(bg.apply_local_density(state, u), cfg).total
    assert abs(reval - report.best_gamma) <= 1e-12


def test_maximize_gamma_density_reported_unitary_reproduces_value():
    rho = bg.random_density(bg.BipartiteDims(2, 3), 11)
    cfg = bg.CONCURRENCE_MATCHED
    report = bg.maximize_gamma(rho, cfg, QUICK_OPTS)
    assert report.best_gamma >= bg.gamma(rho, cfg).total - 1e-12
    reval = bg.gamma(bg.apply_local_density(rho, report.best_unitary), cfg).total
    assert reval == pytest.approx(report.best_gamma, abs=1e-12)


@pytest.mark.parametrize("dims", ["2x2", "2x3", "3x2", "3x3", "3x4"])
def test_pure_search_is_the_search_on_its_density_matrix(dims):
    # Without the Schmidt restart (one restart), a pure input and its
    # projector run the same search, bit for bit.
    psi = bg.random_pure(bg.BipartiteDims.parse(dims), 5)
    cfg = bg.CONCURRENCE_MATCHED
    opts = bg.OptimizerOptions(restarts=1)
    pure = bg.maximize_gamma(psi, cfg, opts)
    dense = bg.maximize_gamma(bg.pure_to_density(psi), cfg, opts)
    assert pure.best_gamma == dense.best_gamma
    assert np.array_equal(pure.best_unitary.u_a, dense.best_unitary.u_a)
    assert np.array_equal(pure.best_unitary.u_b, dense.best_unitary.u_b)
    assert (pure.iterations, pure.converged) == (dense.iterations, dense.converged)


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


# The search pinned bit for bit: (float.hex(best_gamma), iterations,
# converged, sha256 of the best unitary's bytes) under six sweeps at most.  A
# change to the search's arithmetic that is meant to be exact must leave
# every entry as it is.  The values were recorded with numpy 2.4 on x86-64;
# another numpy, BLAS or LAPACK build may round the Haar draws or the line
# products differently.
PINNED_SEARCHES = {
    "density-2x2-0": ("0x1.19d7b354cdaeap-2", 45, False,
                      "1871de98d0bb714b167ac802d4038b2108fe99be2e2dc07e82f523c5ad24c719"),
    "density-2x2-1": ("0x1.908b6b45c9f23p-3", 37, False,
                      "823e8284665538104d7f242ced64d0642122e92d1e5fbbb14e3661f6c7b1c761"),
    "density-2x3-0": ("0x1.2752408db9341p-2", 48, False,
                      "9651cc2ac12407aeba587181072bebb2410b587b3ab4b2b228e98dac8b6ed4e4"),
    "density-2x3-1": ("0x1.7c962be4b9e00p-2", 48, False,
                      "e9bf3f525092e64efc8d0253497031e49a879d5c024dce059c37dc9636e97b69"),
    "density-2x4-0": ("0x1.25d112c1dfbbcp-2", 48, False,
                      "70c32e2fce654ac07a0fee4f476e5def800ecfcded4ac1faaad79985b06c10a2"),
    "density-3x3-0": ("0x1.1edc4dc35d237p-2", 48, False,
                      "18efa5f43b038822efd0a135004b6decfdd3ed4393c84e4486fba48281f81005"),
    "density-3x3-1": ("0x1.6fb278ecb4ee4p-2", 48, False,
                      "456b545ed0fb5f307c8979d59beb4c18ac0f30d679e824779d72d67aa631a23b"),
    "density-4x2-0": ("0x1.3f7d289eb6877p-2", 48, False,
                      "d816dc80230f120cd45106c1ffe73abf08b2220f77a2a71ab4e2d8f13a7d7dcd"),
    "density-4x4-0": ("0x1.c1dd64438c10fp-3", 48, False,
                      "1a5cddc4c0266da1314821a310490fbde1d3b8d237ffa4aecf4777bace482616"),
    "product-2x3": ("0x1.d1ed52076fbe9p-54", 8, True,
                    "256a67239abbff1a64f68c6643bd0a28926a2befbda5dac158c8c49059119f25"),
    "pure-2x3": ("0x1.99c530f0fec9cp-1", 37, False,
                 "a9d326504d2919f81f2a5bd2e1e71ba6342063163d3231b6f7e2ea79a5923134"),
}


def _pinned_input(name):
    kind, rest = name.split("-", 1)
    if kind == "density":
        dims, seed = rest.split("-")
        return bg.random_density(bg.BipartiteDims.parse(dims), int(seed))
    dims = bg.BipartiteDims.parse(rest)
    return bg.random_product(dims, 2) if kind == "product" else bg.random_pure(dims, 3)


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_search_matches_its_pinned_result_bit_for_bit(name):
    report = bg.maximize_gamma(_pinned_input(name), bg.CONCURRENCE_MATCHED,
                               bg.OptimizerOptions(max_sweeps=6))
    u = report.best_unitary
    digest = hashlib.sha256(u.u_a.tobytes() + u.u_b.tobytes()).hexdigest()
    got = (float.hex(report.best_gamma), report.iterations, report.converged, digest)
    assert got == PINNED_SEARCHES[name]


def test_search_memory_peak_at_the_largest_input_dims():
    # The largest temporary is the sweep-end rotation's (R, MN, MN, MN)
    # product, 2 MB at 5x5 with 8 restarts; the traced peak was 2.8 MB.
    rho = bg.random_density(bg.BipartiteDims(MAX_INPUT_DIM, MAX_INPUT_DIM), 0)
    tracemalloc.start()
    try:
        bg.maximize_gamma(rho, bg.CONCURRENCE_MATCHED, bg.OptimizerOptions(max_sweeps=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_conjecture_sweep_rows_and_summary():
    report = bg.conjecture_sweep(["2x2"], trials=5, seed=9)
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
