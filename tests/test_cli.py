import csv
import dataclasses
import io
import json
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bellgamma as bg
import bellgamma.cli
from bellgamma.cli import main
from bellgamma.statefile import _matrix_to_pairs


@pytest.fixture
def bell_file(tmp_path, bell_2x3):
    path = tmp_path / "bell.qstate.json"
    bg.save_state(path, bell_2x3)
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.qstate.json"
    bg.save_state(path, bg.max_entangled(1, bg.BipartiteDims(2, 3)))
    return str(path)


@pytest.fixture
def no_optimizer(monkeypatch):
    """Make any supremum search from the CLI fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("maximize_gamma called")

    monkeypatch.setattr(bellgamma.cli, "maximize_gamma", refuse)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def _csv_and_json_tables(capsys, argv):
    """The CSV header and rows of ``argv``, after checking that its
    ``--output json`` table holds the same columns and values."""
    code, out, _ = _run(capsys, argv)
    json_code, json_out, _ = _run(capsys, argv + ["--output", "json"])
    assert code == json_code
    header, *cells = csv.reader(io.StringIO(out))
    doc = json.loads(json_out)
    assert [list(obj) for obj in doc] == [header] * len(cells)
    assert [[bellgamma.cli.fmt(v) for v in obj.values()] for obj in doc] == cells
    return header, cells


def test_measure_bell_concurrence_matched(capsys, bell_file):
    code, out, _ = _run(
        capsys, ["measure", bell_file, "--n2-preset", "concurrence-matched"]
    )
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma_schmidt"]) == pytest.approx(1.0, abs=1e-10)
    assert float(row["i_concurrence"]) == pytest.approx(1.0, abs=1e-10)
    assert float(row["gamma_sup"]) == pytest.approx(1.0, abs=1e-6)
    assert float(row["dev_povm_vs_gamma"]) < 1e-10
    assert row["dims"] == "2x3"
    assert row["flags"] == ""


def test_measure_product_state_flagged_separable(capsys, product_file, no_optimizer):
    code, out, _ = _run(capsys, ["measure", product_file])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma"]) <= 1e-12
    assert float(row["gamma_sup"]) == 0.0
    assert row["flags"] == "separable-by-gamma-criterion"


def test_measure_product_density_flagged_separable(capsys, tmp_path):
    path = tmp_path / "product.qstate.json"
    bg.save_state(path, bg.random_product(bg.BipartiteDims(2, 3), 4))
    code, out, _ = _run(capsys, ["measure", str(path)])
    assert code == 0
    row = _parse_csv(out)[0]
    # the search converges after one sweep per restart: no sup-not-converged
    assert float(row["gamma_sup"]) <= 1e-12
    assert row["flags"] == "separable-by-gamma-criterion"


def test_measure_unconverged_density_search_is_flagged(capsys, tmp_path, monkeypatch):
    # Full-rank 2x3 searches rarely converge within the sweep cap; a cap of
    # one sweep makes that certain, since no restart stops on its first.
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.random_density(bg.BipartiteDims(2, 3), 5))
    search = bellgamma.cli.maximize_gamma
    monkeypatch.setattr(
        bellgamma.cli, "maximize_gamma",
        lambda state, cfg, opts: search(state, cfg, dataclasses.replace(opts, max_sweeps=1)),
    )
    code, out, _ = _run(capsys, ["measure", str(path)])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma_sup"]) > 0.0
    assert row["flags"] == "sup-not-converged"


def test_measure_entangled_state_with_zero_basis_gamma_not_flagged(
    capsys, tmp_path, no_optimizer
):
    # (|11> + |12> + |21> - |22>)/2: gamma vanishes in this basis, but the
    # state is maximally entangled.
    path = tmp_path / "hadamard.qstate.json"
    amp = np.array([[1, 1], [1, -1]], dtype=complex) / 2
    bg.save_state(path, bg.PureState(bg.BipartiteDims(2, 2), amp))
    code, out, _ = _run(capsys, ["measure", str(path), "--n2-preset", "paper-2x3"])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma"]) <= 1e-12
    assert float(row["i_concurrence"]) == pytest.approx(1.0, abs=1e-10)
    assert abs(float(row["gamma_sup"]) - 1 / np.sqrt(2)) <= 1e-15
    assert row["flags"] == ""


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_pure_measure_reports_the_minor_sum(capsys, tmp_path, no_optimizer, dims):
    path = tmp_path / "pure.qstate.json"
    psi = bg.random_pure(bg.BipartiteDims(*dims), 7)
    bg.save_state(path, psi)
    code, out, _ = _run(capsys, ["measure", str(path), "--seed", "3"])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma_sup"]) == bg.concurrence_general(psi, bg.PAPER_2X3.n2)
    assert row["flags"] == ""


@pytest.mark.parametrize("command", ["measure", "povm-check"])
def test_non_finite_density_file_exits_2(capsys, tmp_path, command):
    doc = bg.state_to_dict(bg.random_density(bg.BipartiteDims(2, 2), 0))
    doc["data"][0][3] = [float("nan"), 0.0]
    path = tmp_path / "nan.qstate.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, [command, str(path)])
    assert code == 2
    assert out == ""
    assert "finite" in err


def _pure_file(path, entry):
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        '{"dims": [2, 2], "kind": "pure", "data": '
        f'[[[{entry}, 0], [0, 0]], [[0, 0], [0, 0]]]}}'
    )
    return str(path)


@pytest.mark.parametrize("entry, renormalize", [
    ("1e999", False), ("1e999", True), ("NaN", True), ("1e200", False), ("9" * 5001, True),
])
def test_unusable_pure_amplitudes_exit_2_with_one_error_line(capsys, tmp_path, entry, renormalize):
    argv = ["measure", _pure_file(tmp_path / "bad.json", entry)] + ["--renormalize"] * renormalize
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_renormalize_loads_a_pure_state_whose_norm_overflows(capsys, tmp_path):
    big = _pure_file(tmp_path / "big" / "s.json", "1e200")
    unit = _pure_file(tmp_path / "unit" / "s.json", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["measure", big, "--renormalize"])
    assert (code, err) == (0, "")
    _, want, _ = _run(capsys, ["measure", unit])
    assert out.replace(big, "s.json") == want.replace(unit, "s.json")


def test_pure_measure_decomposes_the_state_once(capsys, monkeypatch, product_file):
    # gamma_schmidt and the separability flag read one Schmidt decomposition.
    real, calls = bg.states.schmidt, []

    def counting(psi):
        calls.append(psi)
        return real(psi)

    for module in (bellgamma.cli, bg.measures, bg.local_unitary):
        monkeypatch.setattr(module, "schmidt", counting)
    code, out, _ = _run(capsys, ["measure", product_file])
    assert code == 0
    assert len(calls) == 1
    assert _parse_csv(out)[0]["flags"] == "separable-by-gamma-criterion"


def test_measure_json_output(capsys, bell_file):
    code, out, _ = _run(capsys, ["measure", bell_file, "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 1
    assert doc[0]["dims"] == "2x3"
    assert doc[0]["n2_preset"] == "paper-2x3"
    assert doc[0]["gamma"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    header, cells = _csv_and_json_tables(capsys, ["measure", bell_file])
    assert header == bellgamma.cli.REPORT_COLUMNS
    assert len(cells) == 1


def test_measure_density_input_leaves_pure_fields_empty(capsys, tmp_path):
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.random_density(bg.BipartiteDims(2, 2), 0))
    code, out, _ = _run(capsys, ["measure", str(path)])
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["i_concurrence"] == ""
    assert row["gamma_schmidt"] == ""
    assert row["concurrence_2x3"] == ""
    assert float(row["gamma"]) >= 0.0


def test_measure_dims_mismatch_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.qstate.json"
    doc = bg.state_to_dict(bg.max_entangled(1, bg.BipartiteDims(2, 3)))
    doc["dims"] = [3, 3]
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["measure", str(path)])
    assert code == 2
    assert "dims mismatch" in err


def test_measure_empty_data_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.qstate.json"
    path.write_text(json.dumps({"dims": [2, 3], "kind": "pure", "data": []}))
    code, out, err = _run(capsys, ["measure", str(path)])
    assert code == 2
    assert out == ""
    assert "dims mismatch" in err and "Traceback" not in err


def test_measure_density_with_zero_gamma_in_its_basis_finds_the_supremum(capsys, tmp_path):
    # (|11> + |12> + |21> - |22>)/2 is maximally entangled, yet its paired
    # coefficients tie in the given basis, so gamma there is 0; the search
    # must leave that frame and reach the pure-state supremum.
    psi = bg.PureState(bg.BipartiteDims(2, 2), np.array([[1, 1], [1, -1]]) / 2.0)
    path = tmp_path / "hadamard.qstate.json"
    bg.save_state(path, bg.pure_to_density(psi))
    code, out, _ = _run(capsys, ["measure", str(path)])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma"]) <= 1e-12
    assert row["flags"] == ""
    assert abs(float(row["gamma_sup"]) - bg.gamma_schmidt(psi, bg.PAPER_2X3)) <= 1e-10


def test_measure_n2_override(capsys, bell_file):
    code, out, _ = _run(capsys, ["measure", bell_file, "--n2", "1.0"])
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["n2_preset"] == "custom"
    assert float(row["gamma"]) == pytest.approx(0.5, abs=1e-12)


def test_measure_rerun_is_byte_identical(capsys, bell_file):
    _, out1, _ = _run(capsys, ["measure", bell_file, "--seed", "5"])
    _, out2, _ = _run(capsys, ["measure", bell_file, "--seed", "5"])
    assert out1 == out2


def test_povm_check_pass_and_grid_contract(capsys, bell_file):
    code, out, _ = _run(capsys, ["povm-check", bell_file])
    assert code == 0
    assert "difference=" in out
    diff = float(out.strip().splitlines()[-1].split("=")[1])
    assert diff < 1e-10

    # the CLI evaluates the Fourier route on the 4-point grid
    rho = bg.pure_to_density(bg.load_state(bell_file))
    via = bg.gamma_via_povm(rho, bg.MeasureConfig.from_preset("paper-2x3"), grid=4)
    assert f"gamma_via_povm={bellgamma.cli.fmt(via)}\n" in out


def test_povm_check_tolerance_is_relative_past_gamma_one(capsys, tmp_path):
    # Both routes scale as sqrt(n2): at n2 = 1e16 they differ by about
    # 2e-9 out of 6e6, a relative 3e-16, which an absolute 1e-9 refused.
    path = tmp_path / "rho.qstate.json"
    bg.save_state(path, bg.random_density(bg.BipartiteDims(3, 3), 0))
    code, out, _ = _run(capsys, ["povm-check", str(path), "--n2", "1e16"])
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert float(lines["difference"]) > 1e-9
    assert code == 0


def test_povm_check_exits_1_when_the_routes_disagree(capsys, monkeypatch, bell_file):
    monkeypatch.setattr(bellgamma.cli, "gamma_via_povm",
                        lambda rho, cfg, grid=4: bg.gamma(rho, cfg).total + 1e-6)
    code, out, err = _run(capsys, ["povm-check", bell_file])
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert float(lines["difference"]) == pytest.approx(1e-6)
    assert (code, err) == (1, "")


def test_povm_check_maximally_mixed(capsys, tmp_path):
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.DensityOperator(bg.BipartiteDims(2, 3), np.eye(6) / 6))
    code, out, _ = _run(capsys, ["povm-check", str(path)])
    assert code == 0
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert float(lines["gamma"]) == pytest.approx(0.0, abs=1e-12)
    assert float(lines["gamma_via_povm"]) == pytest.approx(0.0, abs=1e-12)


def test_conjecture_small_run(capsys):
    argv = ["conjecture", "--dims", "2x2", "--trials", "3", "--seed", "7", "--threads", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[0] == (
        "dims,trial,i_concurrence,gamma_schmidt,best_gamma,deviation,overshoot,converged"
    )
    rows = _parse_csv(out)
    assert len(rows) == 3
    assert all(float(r["deviation"]) < 1e-4 for r in rows)
    assert "max_deviation" in err
    _csv_and_json_tables(capsys, argv)


def test_conjecture_columns_are_the_row_fields():
    assert bellgamma.cli.CONJECTURE_COLUMNS == list(bg.ConjectureRow._fields)


def test_conjecture_runs_one_thread_by_default_and_prints_what_two_threads_print(capsys):
    assert bellgamma.cli.build_parser().parse_args(["conjecture"]).threads == 1
    argv = ["conjecture", "--dims", "2x2", "--dims", "3x2", "--trials", "3", "--seed", "5"]
    default = _run(capsys, argv)
    assert default[0] == 0
    assert _run(capsys, [*argv, "--threads", "2"]) == default


def test_conjecture_reports_whether_each_search_converged(capsys, monkeypatch):
    search = bg.local_unitary.maximize_gamma
    calls = []

    def stop_second(psi, cfg, opts):
        report = search(psi, cfg, opts)
        calls.append(psi)
        assert report.converged
        return dataclasses.replace(report, converged=len(calls) != 2)

    monkeypatch.setattr(bg.local_unitary, "maximize_gamma", stop_second)
    argv = ["conjecture", "--dims", "2x2", "--trials", "3", "--seed", "7", "--threads", "1"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert [r["converged"] for r in _parse_csv(out)] == ["1", "0", "1"]


def test_conjecture_exits_1_when_the_search_beats_the_proven_bound(capsys, monkeypatch):
    # gamma_schmidt is the supremum for pure input; a larger best_gamma is
    # an optimizer bug, reported per trial while the summaries keep their form.
    search = bg.local_unitary.maximize_gamma
    calls = []

    def overshoot_second(psi, cfg, opts):
        report = search(psi, cfg, opts)
        calls.append(psi)
        if len(calls) == 2:
            report = dataclasses.replace(report, best_gamma=bg.gamma_schmidt(psi, cfg) + 1e-6)
        return report

    monkeypatch.setattr(bg.local_unitary, "maximize_gamma", overshoot_second)
    argv = ["conjecture", "--dims", "2x2", "--trials", "3", "--seed", "7", "--threads", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    rows = _parse_csv(out)
    assert [r["overshoot"] for r in rows] == ["0", "1", "0"]
    lines = err.splitlines()
    assert re.fullmatch(
        r"# 2x2: trials=3 max_deviation=\S+ overshoots=1", lines[0]
    )
    assert len(lines) == 2
    assert lines[1].startswith("error: 2x2 trial 1: best_gamma=")
    assert "exceeds the proven bound gamma_schmidt=" in lines[1]


def test_conjecture_zero_trials(capsys):
    code, out, _ = _run(capsys, ["conjecture", "--dims", "2x3", "--trials", "0"])
    assert code == 0
    assert _parse_csv(out) == []


def test_conjecture_rejects_negative_trials(capsys):
    code, out, err = _run(capsys, ["conjecture", "--dims", "2x3", "--trials", "-3"])
    assert code == 2
    assert out == ""
    assert "trials" in err


def test_conjecture_rejects_bad_dims(capsys):
    code, _, err = _run(capsys, ["conjecture", "--dims", "2by3", "--trials", "1"])
    assert code == 2
    assert "2x3" in err


def test_conjecture_rejects_dims_that_int_would_read_as_2x3(capsys):
    # int("0_2") is 2, so this label used to run silently as 2x3
    code, out, err = _run(capsys, ["conjecture", "--dims", "0_2x3", "--trials", "1"])
    assert (code, out, err) == (2, "", "error: expected dims like '2x3', got '0_2x3'\n")


def test_simulate_csv_and_determinism(capsys, bell_file):
    argv = [
        "simulate", bell_file,
        "--shots", "100", "--shots", "400",
        "--reps", "5", "--seed", "3",
    ]
    code, out1, err = _run(capsys, argv)
    assert code == 0
    rows = _parse_csv(out1)
    assert len(rows) == 10
    assert {r["shots"] for r in rows} == {"100", "400"}
    assert "median_abs_error" in err
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    header, cells = _csv_and_json_tables(capsys, argv)
    assert header == list(bg.bell.ShotErrorRow._fields)
    assert len(cells) == 10


def test_simulate_rejects_bad_shots(capsys, bell_file):
    code, _, err = _run(capsys, ["simulate", bell_file, "--shots", "0"])
    assert code == 2
    assert "shots" in err


@pytest.mark.parametrize("shots", ["9223372036854775808", "100000000000000000000"])
def test_simulate_rejects_shot_counts_numpy_cannot_draw(capsys, bell_file, shots):
    code, out, err = _run(capsys, ["simulate", bell_file, "--shots", "10", "--shots", shots])
    assert code == 2
    assert out == ""
    assert err.startswith("error: shots must be at most 9223372036854775807")


def test_simulate_accepts_the_largest_shot_count(capsys, bell_file):
    code, out, _ = _run(
        capsys, ["simulate", bell_file, "--shots", "9223372036854775807", "--reps", "1"]
    )
    assert code == 0
    assert len(_parse_csv(out)) == 1


def test_simulate_rejects_a_repeated_shot_count(capsys, bell_file):
    code, out, err = _run(
        capsys,
        ["simulate", bell_file, "--shots", "100", "--shots", "100", "--reps", "3", "--seed", "1"],
    )
    assert code == 2
    assert out == ""
    assert err == "error: shot counts must be distinct, got [100, 100]\n"


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_simulate_rejects_non_positive_reps(capsys, bell_file, reps):
    code, out, err = _run(capsys, ["simulate", bell_file, "--shots", "10", "--reps", reps])
    assert code == 2
    assert out == ""
    assert "reps" in err


def test_simulate_refuses_a_table_over_the_draw_cap(capsys, bell_file):
    # Refused before any draw: this would be 12 * 10**15 draws at 2x3.
    code, out, err = _run(
        capsys, ["simulate", bell_file, "--shots", "10", "--reps", "1000000000000000"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: table too large: 1 shot counts x 1000000000000000 reps")
    assert err.endswith(f"at most {bg.bell.MAX_DRAWS}\n")


def test_simulate_mixed_needs_rotation(capsys, tmp_path):
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.random_density(bg.BipartiteDims(2, 2), 2))
    code, _, err = _run(capsys, ["simulate", str(path), "--shots", "100"])
    assert code == 2
    assert "phase-rotation" in err


def test_simulate_mixed_with_rotation_file(capsys, tmp_path):
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.random_density(bg.BipartiteDims(2, 2), 2))
    rot = tmp_path / "rot.json"
    eye2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    rot.write_text(json.dumps({"u_a": eye2, "u_b": eye2}))
    code, out, _ = _run(
        capsys,
        ["simulate", str(path), "--shots", "200", "--reps", "2",
         "--phase-rotation", str(rot)],
    )
    assert code == 0
    assert len(_parse_csv(out)) == 2


def test_simulate_measures_error_against_gamma_of_the_rotated_state(capsys, tmp_path):
    # The projections read the rotated state, whose gamma (0.34061) is not
    # the input's (0.38543): the error must be taken against the former.
    dims = bg.BipartiteDims(2, 3)
    psi = bg.random_pure(dims, 3)
    u = bg.random_local_unitary(dims, 11)
    path, rot = tmp_path / "pure.qstate.json", tmp_path / "rot.json"
    bg.save_state(path, psi)
    rot.write_text(json.dumps({"u_a": _matrix_to_pairs(u.u_a), "u_b": _matrix_to_pairs(u.u_b)}))
    code, out, _ = _run(
        capsys,
        ["simulate", str(path), "--shots", "1000000000", "--reps", "1",
         "--phase-rotation", str(rot)],
    )
    assert code == 0
    (row,) = _parse_csv(out)
    rotated = bg.gamma_pure(bg.apply_local(psi, u)).total
    assert abs(rotated - bg.gamma_pure(psi).total) > 0.04
    assert float(row["abs_error"]) < 1e-4
    assert float(row["abs_error"]) == pytest.approx(abs(float(row["gamma_hat"]) - rotated))


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "{missing}"],
        ["povm-check", "{dir}"],
        ["simulate", "{bell}", "--shots", "10", "--phase-rotation", "{missing}"],
        ["simulate", "{bell}", "--shots", "10", "--phase-rotation", "{dir}"],
    ],
)
def test_missing_or_unreadable_file_exits_2(capsys, tmp_path, bell_file, argv):
    paths = {"missing": str(tmp_path / "absent.json"), "dir": str(tmp_path), "bell": bell_file}
    bad = paths["missing" if "{missing}" in argv else "dir"]
    code, out, err = _run(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: cannot read (")


@pytest.mark.parametrize("which", ["state", "rotation"])
def test_file_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path, bell_file, which):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = {
        "state": ["measure", str(bad)],
        "rotation": ["simulate", bell_file, "--shots", "10", "--phase-rotation", str(bad)],
    }[which]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("which", ["measure", "povm-check", "rotation"])
def test_json_nested_too_deeply_exits_2_naming_the_file(capsys, tmp_path, bell_file, which):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    argv = {
        "measure": ["measure", str(deep)],
        "povm-check": ["povm-check", str(deep)],
        "rotation": ["simulate", bell_file, "--shots", "10", "--phase-rotation", str(deep)],
    }[which]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {deep}: not valid JSON (nested too deeply)\n"


def test_simulate_rejects_non_finite_rotation(capsys, tmp_path):
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.random_density(bg.BipartiteDims(2, 2), 2))
    rot = tmp_path / "rot.json"
    eye2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    rot.write_text(json.dumps({"u_a": eye2, "u_b": [[[float("nan"), 0.0]] * 2] * 2}))
    code, out, err = _run(
        capsys, ["simulate", str(path), "--shots", "10", "--phase-rotation", str(rot)]
    )
    assert code == 2
    assert out == ""
    assert err == "error: u_b entries must be finite\n"


@pytest.mark.parametrize("sizes", [(3, 2), (2, 2), (3, 3)])
def test_simulate_rejects_rotation_of_the_wrong_sizes(capsys, tmp_path, sizes):
    # (3, 2) swaps the factors: kron is still 6x6, but not local on 2x3.
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.random_density(bg.BipartiteDims(2, 3), 2))
    rot = tmp_path / "rot.json"
    rng = np.random.default_rng(0)
    u_a, u_b = (_matrix_to_pairs(bg.haar_unitary(d, rng)) for d in sizes)
    rot.write_text(json.dumps({"u_a": u_a, "u_b": u_b}))
    code, out, err = _run(
        capsys, ["simulate", str(path), "--shots", "10", "--phase-rotation", str(rot)]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: local unitary sizes {sizes[0]}x{sizes[1]} do not match dims 2x3\n"


def test_cached_parser_matches_fresh_interpreters(capsys, tmp_path, bell_file):
    """main() reuses one parser per process; every call in a sequence must
    print and exit exactly as it does as the first call of a fresh process."""
    rho = tmp_path / "rho.qstate.json"
    bg.save_state(rho, bg.random_density(bg.BipartiteDims(2, 2), 1))
    calls = [
        ["measure", bell_file, "--n2", "3.5"],
        ["simulate", bell_file, "--shots", "10", "--shots", "100", "--reps", "2"],
        ["measure", bell_file, "--output", "json"],
        ["povm-check", str(rho), "--n2-preset", "unnormalized"],
        ["simulate", bell_file, "--shots", "1000", "--reps", "3", "--output", "json"],
        ["measure", str(rho), "--seed", "two"],
        ["conjecture", "--dims", "2x2", "--trials", "1", "--threads", "1"],
        ["measure", bell_file],
        ["povm-check", bell_file, "--n2", "-1"],
    ]
    src = str(Path(bg.__file__).resolve().parent.parent)
    script = "import sys; from bellgamma.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True,
            env={"PYTHONPATH": src}, timeout=120,
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_importing_the_cli_leaves_numpy_fft_unloaded():
    src = str(Path(bg.__file__).resolve().parent.parent)
    script = "import sys, bellgamma.cli; print('numpy.fft' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("bad", [[1, 0, 5], [True, 0]])
def test_entries_that_are_not_two_numbers_exit_2(capsys, tmp_path, bell_file, bad):
    doc = bg.state_to_dict(bg.max_entangled(2, bg.BipartiteDims(2, 2)))
    doc["data"][0][0] = bad
    path = tmp_path / "bad.qstate.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["measure", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: pure data: entries must be [re, im] pairs of numbers\n"

    eye2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    eye3 = _matrix_to_pairs(np.eye(3))
    eye3[2][2] = bad
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({"u_a": eye2, "u_b": eye3}))
    code, out, err = _run(
        capsys, ["simulate", bell_file, "--shots", "10", "--phase-rotation", str(rot)]
    )
    assert (code, out) == (2, "")
    assert err == "error: u_b: entries must be [re, im] pairs of numbers\n"


#: Every option each subcommand accepts (positionals by name, -h aside).
#: Each is read by its command; nothing is accepted and then ignored.
CLI_SURFACE = {
    "measure": {"state", "--renormalize", "--n2-preset", "--n2", "--seed", "--output"},
    "conjecture": {"--dims", "--trials", "--seed", "--threads", "--output"},
    "povm-check": {"state", "--renormalize", "--n2-preset", "--n2"},
    "simulate": {"state", "--renormalize", "--shots", "--reps", "--phase-rotation",
                 "--n2-preset", "--n2", "--seed", "--output"},
}

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_each_subcommand_declares_exactly_the_options_it_reads():
    parser = bellgamma.cli.build_parser()
    (sub,) = (a for a in parser._actions if a.choices and a.dest == "command")
    surface = {
        name: {a.option_strings[0] if a.option_strings else a.dest
               for a in p._actions if a.dest != "help"}
        for name, p in sub.choices.items()
    }
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 24


@pytest.mark.parametrize("argv", [
    ["povm-check", "STATE", "--seed", "1"],
    ["povm-check", "STATE", "--output", "json"],
    ["povm-check", "STATE", "--threads", "2"],
    ["measure", "STATE", "--threads", "2"],
    ["simulate", "STATE", "--shots", "10", "--threads", "2"],
    # conjecture compares against I-concurrence, which gamma_sup equals at n2 = 4 only
    ["conjecture", "--n2", "4"],
    ["conjecture", "--n2-preset", "concurrence-matched"],
    # every Fourier grid of 3 or more points is exact, so the CLI uses the default 4
    ["measure", "STATE", "--grid", "4"],
    ["povm-check", "STATE", "--grid", "4"],
    # conjecture's deviation bound is the constant CONJECTURE_TOL
    ["conjecture", "--threshold", "1e-4"],
])
def test_options_a_command_does_not_read_exit_2(capsys, bell_file, argv):
    argv = [bell_file if a == "STATE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_readme_synopsis_lists_exactly_the_accepted_options():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    # one entry per subcommand: its "bellgamma NAME" line and indented continuations
    entries = re.findall(r"^bellgamma (\S+)(.*(?:\n +.*)*)", readme, flags=re.M)
    assert [name for name, _ in entries] == list(CLI_SURFACE)
    for name, text in entries:
        listed = set(re.findall(r"--[a-z0-9-]+", text))
        if "STATE.qstate.json" in text:
            listed.add("state")
        assert listed == CLI_SURFACE[name], name


@pytest.mark.parametrize("command", [
    ["measure", "PURE"],
    ["measure", "RHO"],
    ["simulate", "PURE", "--shots", "10"],
    ["conjecture", "--dims", "2x2", "--trials", "1"],
])
def test_negative_seed_exits_2_naming_the_flag(capsys, tmp_path, bell_file, command):
    rho = tmp_path / "rho.qstate.json"
    bg.save_state(rho, bg.random_density(bg.BipartiteDims(2, 2), 0))
    files = {"PURE": bell_file, "RHO": str(rho)}
    argv = [files.get(a, a) for a in command] + ["--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(
        "error: argument --seed: expected a non-negative integer, got '-1'\n"
    )


@pytest.mark.parametrize("value", ["0", "-3", "2.5"])
def test_conjecture_rejects_a_thread_count_below_one(capsys, value):
    # A pool needs one worker or more; 0 and -3 must not pass as a serial run.
    argv = ["conjecture", "--dims", "2x2", "--trials", "1", f"--threads={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(
        f"error: argument --threads: expected a positive integer, got '{value}'\n"
    )


@pytest.mark.parametrize("dims", ["6x2", "2x6", "6x6"])
def test_conjecture_rejects_dims_past_the_input_bound(capsys, dims):
    # checked before any trial runs
    code, out, err = _run(capsys, ["conjecture", "--dims", "2x2", "--dims", dims,
                                   "--trials", "1", "--threads", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: subsystem dimensions must both be at most 5, got {dims}\n"


def test_conjecture_admits_the_largest_dims(capsys):
    code, out, err = _run(capsys, ["conjecture", "--dims", "5x5", "--trials", "0"])
    assert (code, _parse_csv(out)) == (0, [])
    assert err == "# 5x5: trials=0 max_deviation=0 overshoots=0\n"


def test_conjecture_exits_1_when_a_trial_deviates_from_i_concurrence(capsys, monkeypatch):
    # A search that stops 2e-4 short of I-concurrence stays under the proven
    # bound, so only the summary line reports it, and the exit code.
    search = bg.local_unitary.maximize_gamma
    calls = []

    def fall_short_second(psi, cfg, opts):
        report = search(psi, cfg, opts)
        calls.append(psi)
        if len(calls) == 2:
            report = dataclasses.replace(report, best_gamma=bg.i_concurrence(psi) - 2e-4)
        return report

    monkeypatch.setattr(bg.local_unitary, "maximize_gamma", fall_short_second)
    argv = ["conjecture", "--dims", "2x2", "--trials", "3", "--seed", "7", "--threads", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    rows = _parse_csv(out)
    assert [r["overshoot"] for r in rows] == ["0", "0", "0"]
    assert float(rows[1]["deviation"]) == pytest.approx(2e-4)
    (summary,) = err.splitlines()
    match = re.fullmatch(r"# 2x2: trials=3 max_deviation=(\S+) overshoots=0", summary)
    assert match
    assert float(match.group(1)) == float(rows[1]["deviation"])
    assert float(match.group(1)) >= bellgamma.cli.CONJECTURE_TOL


@pytest.mark.parametrize("command", [
    ["measure", "STATE"],
    ["povm-check", "STATE"],
    ["simulate", "STATE", "--shots", "10"],
])
def test_infinite_n2_exits_2(capsys, bell_file, command):
    argv = [bell_file if a == "STATE" else a for a in command] + ["--n2", "inf"]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", "error: n2 must be finite, got inf\n")


@pytest.mark.parametrize("command", [
    ["measure", "STATE", "--output", "json"],
    ["povm-check", "STATE"],
    ["simulate", "STATE", "--shots", "10"],
])
def test_n2_whose_fourier_scale_overflows_exits_2(capsys, bell_file, command):
    # n2 * (2pi)^4 overflows near 1.15e305: povm-check printed
    # gamma_via_povm=inf and measure's JSON an invalid NaN
    argv = [bell_file if a == "STATE" else a for a in command] + ["--n2", "1e308"]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", "error: n2 must be at most 1e+300, got 1e+308\n")


def test_conjecture_summary_is_labelled_with_the_parsed_dims(capsys):
    argv = ["--trials", "2", "--threads", "1"]
    upper = _run(capsys, ["conjecture", "--dims", "2X2", *argv])
    lower = _run(capsys, ["conjecture", "--dims", "2x2", *argv])
    assert upper == lower
    code, _, err = upper
    (summary,) = err.splitlines()
    assert re.fullmatch(r"# 2x2: trials=2 max_deviation=\S+ overshoots=0", summary)
    assert code == 0


def test_conjecture_repeated_dims_get_one_summary_each(capsys):
    code, out, err = _run(
        capsys, ["conjecture", "--dims", "2x2", "--dims", "2x2", "--trials", "2",
                 "--threads", "1"],
    )
    assert code == 0
    rows = _parse_csv(out)
    assert [r["trial"] for r in rows] == ["0", "1", "0", "1"]
    summaries = err.splitlines()
    assert len(summaries) == 2
    for i, summary in enumerate(summaries):
        match = re.fullmatch(r"# 2x2: trials=2 max_deviation=(\S+) overshoots=0", summary)
        assert match
        group = rows[2 * i:2 * i + 2]
        assert float(match.group(1)) == max(float(r["deviation"]) for r in group)


def test_example_script_writes_to_the_git_ignored_examples_dir(capsys, tmp_path, monkeypatch):
    script = runpy.run_path(str(REPO_ROOT / "scripts" / "make_example_states.py"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_example_states.py"])
    assert script["main"]() == 0
    assert [p.parent for p in tmp_path.rglob("*.qstate.json")] == [tmp_path / "examples"] * 5
    assert "/examples/" in (REPO_ROOT / ".gitignore").read_text().splitlines()


def test_example_script_help_exits_zero_and_writes_nothing(capsys, tmp_path, monkeypatch):
    script = runpy.run_path(str(REPO_ROOT / "scripts" / "make_example_states.py"))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        script["main"](["--help"])
    assert exc.value.code == 0
    assert "OUT_DIR" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_example_script_writes_five_states_to_the_given_dir(capsys, tmp_path, monkeypatch):
    script = runpy.run_path(str(REPO_ROOT / "scripts" / "make_example_states.py"))
    monkeypatch.chdir(tmp_path)
    assert script["main"](["out"]) == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == sorted(f"{s}.qstate.json" for s in (
        "bell_2x3", "product_2x3", "random_2x3", "mixed_2x3", "max_entangled_3x3"))
    assert list(tmp_path.iterdir()) == [tmp_path / "out"]
    for name in names:
        bg.load_state(tmp_path / "out" / name)


#: The digests ``scripts/output_digest.py`` prints since the Fourier route
#: became two matrix products, which moved the last bits of the measure and
#: povm-check Fourier values, re-pinned when ``--grid`` left the CLI and its
#: calls left the corpus (both trees printed these on the new corpus); any
#: change to the output of its corpus changes one of them.
PINNED_DIGESTS = (
    "measure calls=18 sha256=34ec1b42a81f83c96172f68829b1b50bf99acecf673b54a943a2baa4cdc200f3\n"
    "povm-check calls=13 sha256=f0104e3e0d30ad5447817217edbdb51595981400bd1d59807123587e5ad01143\n"
    "simulate calls=14 sha256=36c84475f8c4efa4100a83c4d9d192fb64ee6a23e3b7ac453ed84c19ec40bc7c\n"
    "conjecture calls=3 sha256=d99ea0e84bda9986ee8e47e843767581c0e5be56bbec17411f5a29b69e05fcc9\n"
)


def test_output_digest_script_prints_its_pinned_digests(tmp_path):
    # The states go to a temporary directory, so nothing is left in the
    # working directory.
    src = str(Path(bg.__file__).resolve().parent.parent)
    script = str(REPO_ROOT / "scripts" / "output_digest.py")
    done = subprocess.run([sys.executable, script], cwd=tmp_path, capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == PINNED_DIGESTS
    assert list(tmp_path.iterdir()) == []


def _reference_fmt(value):
    # The isinstance chain fmt had before it dispatched on exact types.
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def test_fmt_matches_the_isinstance_chain_on_every_kind_of_value():
    values = [None, True, False, 0, -3, 2**70, 0.1, -0.0, 1e-300, float("inf"), float("nan"),
              np.float64(0.1), np.float64("nan"), np.int64(7), np.bool_(True), "2x3",
              "pure;sep", 1 + 2j]
    for value in values:
        assert bellgamma.cli.fmt(value) == _reference_fmt(value), value
