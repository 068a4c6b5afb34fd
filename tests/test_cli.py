import csv
import io
import json

import numpy as np
import pytest

import bellgamma as bg
from bellgamma.cli import main


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


def test_measure_product_state_flagged_separable(capsys, product_file):
    code, out, _ = _run(capsys, ["measure", product_file])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma"]) <= 1e-12
    assert "separable-by-gamma-criterion" in row["flags"]


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

    code, _, err = _run(capsys, ["povm-check", bell_file, "--grid", "2"])
    assert code == 2
    assert "grid too coarse" in err


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
    rows = _parse_csv(out)
    assert len(rows) == 3
    assert all(float(r["deviation"]) < 1e-4 for r in rows)
    assert "max_deviation" in err


def test_conjecture_zero_trials(capsys):
    code, out, _ = _run(capsys, ["conjecture", "--dims", "2x3", "--trials", "0"])
    assert code == 0
    assert _parse_csv(out) == []


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
