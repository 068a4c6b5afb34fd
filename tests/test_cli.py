import csv
import dataclasses
import io
import json
import re
import subprocess
import sys
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


def test_measure_json_output(capsys, bell_file):
    code, out, _ = _run(capsys, ["measure", bell_file, "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 1
    assert doc[0]["dims"] == "2x3"
    assert doc[0]["n2_preset"] == "paper-2x3"
    assert doc[0]["gamma"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


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
    code, out, _ = _run(capsys, ["povm-check", bell_file, "--grid", "4"])
    assert code == 0
    assert "difference=" in out
    diff = float(out.strip().splitlines()[-1].split("=")[1])
    assert diff < 1e-10

    code, out, err = _run(capsys, ["povm-check", bell_file, "--grid", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid too coarse")


def test_povm_check_maximally_mixed(capsys, tmp_path):
    path = tmp_path / "mixed.qstate.json"
    bg.save_state(path, bg.DensityOperator(bg.BipartiteDims(2, 3), np.eye(6) / 6))
    code, out, _ = _run(capsys, ["povm-check", str(path)])
    assert code == 0
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert float(lines["gamma"]) == pytest.approx(0.0, abs=1e-12)
    assert float(lines["gamma_via_povm"]) == pytest.approx(0.0, abs=1e-12)


def test_conjecture_small_run(capsys):
    code, out, err = _run(
        capsys,
        ["conjecture", "--dims", "2x2", "--trials", "3", "--seed", "7", "--threads", "1"],
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "dims,trial,i_concurrence,gamma_schmidt,best_gamma,deviation,overshoot,converged"
    )
    rows = _parse_csv(out)
    assert len(rows) == 3
    assert all(float(r["deviation"]) < 1e-4 for r in rows)
    assert "max_deviation" in err


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
            report = dataclasses.replace(report, best_gamma=report.schmidt_gamma + 1e-6)
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


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_simulate_rejects_non_positive_reps(capsys, bell_file, reps):
    code, out, err = _run(capsys, ["simulate", bell_file, "--shots", "10", "--reps", reps])
    assert code == 2
    assert out == ""
    assert "reps" in err


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
        ["measure", str(rho), "--grid", "two"],
        ["conjecture", "--dims", "2x2", "--trials", "1", "--threads", "1"],
        ["measure", bell_file],
        ["povm-check", bell_file, "--grid", "2"],
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
