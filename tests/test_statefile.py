import json

import numpy as np
import pytest

import bellgamma as bg
from bellgamma.statefile import StateFileError


def test_pure_round_trip_is_exact(tmp_path):
    psi = bg.random_pure(bg.BipartiteDims(2, 3), 17)
    path = tmp_path / "state.qstate.json"
    bg.save_state(path, psi)
    loaded = bg.load_state(path)
    assert isinstance(loaded, bg.PureState)
    assert np.array_equal(loaded.amp, psi.amp)


def test_density_round_trip_is_exact(tmp_path):
    rho = bg.random_density(bg.BipartiteDims(3, 3), 17)
    path = tmp_path / "state.qstate.json"
    bg.save_state(path, rho)
    loaded = bg.load_state(path)
    assert isinstance(loaded, bg.DensityOperator)
    assert np.array_equal(loaded.mat, rho.mat)


def _write(tmp_path, doc):
    path = tmp_path / "state.qstate.json"
    path.write_text(json.dumps(doc))
    return path


def test_loader_rejects_dims_mismatch(tmp_path):
    doc = bg.state_to_dict(bg.random_pure(bg.BipartiteDims(2, 3), 0))
    doc["dims"] = [2, 2]
    with pytest.raises(StateFileError, match="dims mismatch"):
        bg.load_state(_write(tmp_path, doc))


def test_loader_rejects_bad_dims_field(tmp_path):
    doc = {"dims": "2x3", "kind": "pure", "data": []}
    with pytest.raises(StateFileError, match="dims mismatch"):
        bg.load_state(_write(tmp_path, doc))


@pytest.mark.parametrize("dims", [[True, 2], [2, False]])
def test_loader_rejects_boolean_dims(tmp_path, dims):
    doc = bg.state_to_dict(bg.random_pure(bg.BipartiteDims(2, 2), 0))
    doc["dims"] = dims
    with pytest.raises(StateFileError, match="integers"):
        bg.load_state(_write(tmp_path, doc))


@pytest.mark.parametrize("kind", ["pure", "density"])
def test_loader_rejects_empty_data(tmp_path, kind):
    doc = {"dims": [2, 2], "kind": kind, "data": []}
    with pytest.raises(StateFileError, match="dims mismatch"):
        bg.load_state(_write(tmp_path, doc))


def test_loader_rejects_non_finite_amplitudes(tmp_path):
    doc = bg.state_to_dict(bg.random_pure(bg.BipartiteDims(2, 2), 0))
    doc["data"] = [[[float("nan"), 0.0]] * 2] * 2
    with pytest.raises(StateFileError, match="finite"):
        bg.load_state(_write(tmp_path, doc))


def test_loader_rejects_unnormalized_unless_renormalize(tmp_path):
    psi = bg.random_pure(bg.BipartiteDims(2, 2), 3)
    doc = bg.state_to_dict(psi)
    doc["data"] = [[[2 * re, 2 * im] for re, im in row] for row in doc["data"]]
    path = _write(tmp_path, doc)
    with pytest.raises(StateFileError, match="not normalized"):
        bg.load_state(path)
    rescued = bg.load_state(path, renormalize=True)
    assert np.allclose(rescued.amp, psi.amp, atol=1e-15)


def test_loader_rejects_invalid_density(tmp_path):
    doc = {
        "dims": [2, 2],
        "kind": "density",
        "data": [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    with pytest.raises(StateFileError, match="trace"):
        bg.load_state(_write(tmp_path, doc))


def test_loader_rejects_unknown_kind(tmp_path):
    with pytest.raises(StateFileError, match="kind"):
        bg.load_state(_write(tmp_path, {"dims": [2, 2], "kind": "ket", "data": []}))


def test_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "state.qstate.json"
    path.write_text("{not json")
    with pytest.raises(StateFileError, match="JSON"):
        bg.load_state(path)


def test_local_unitary_round_trip(tmp_path):
    u = bg.random_local_unitary(bg.BipartiteDims(2, 3), 5)
    doc = {
        "u_a": [[[z.real, z.imag] for z in row] for row in u.u_a],
        "u_b": [[[z.real, z.imag] for z in row] for row in u.u_b],
    }
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(doc))
    loaded = bg.load_local_unitary(path)
    assert np.array_equal(loaded.u_a, u.u_a)
    assert np.array_equal(loaded.u_b, u.u_b)


def test_local_unitary_file_must_be_unitary(tmp_path):
    doc = {
        "u_a": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "u_b": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match="unitary"):
        bg.load_local_unitary(path)
