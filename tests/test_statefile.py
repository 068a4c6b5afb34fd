import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgamma as bg
from bellgamma.cli import main
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_loader_rejects_non_finite_density_entries(tmp_path, bad):
    doc = bg.state_to_dict(bg.random_density(bg.BipartiteDims(2, 2), 0))
    doc["data"][1][2] = [bad, 0.0]
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


@pytest.mark.parametrize("load", [bg.load_state, bg.load_local_unitary])
def test_loaders_report_missing_or_unreadable_files(tmp_path, load):
    missing = tmp_path / "absent.json"
    with pytest.raises(StateFileError, match="cannot read") as info:
        load(missing)
    assert str(missing) in str(info.value)
    with pytest.raises(StateFileError, match="cannot read") as info:
        load(tmp_path)
    assert str(tmp_path) in str(info.value)


@pytest.mark.parametrize("load", [bg.load_state, bg.load_local_unitary])
def test_loaders_report_files_that_are_not_utf8(tmp_path, load):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(StateFileError, match="not UTF-8") as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")


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


def test_local_unitary_file_must_be_finite(tmp_path):
    eye2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    nan2 = [[[float("nan"), 0.0]] * 2] * 2
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"u_a": nan2, "u_b": eye2}))
    with pytest.raises(StateFileError, match="u_a entries must be finite"):
        bg.load_local_unitary(path)


NOT_PAIRS = [[1.0, 0.0, 5.0], [1.0], [], [True, 0.0], [0.0, False], ["1", 0.0],
             [None, 0.0], [[1.0], 0.0], "ab", {"re": 1.0, "im": 0.0}, 1.0, None]


@pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
@pytest.mark.parametrize("kind", ["pure", "density"])
def test_loader_accepts_only_pairs_of_two_numbers(tmp_path, kind, bad):
    state = bg.max_entangled(1, bg.BipartiteDims(2, 2))
    if kind == "density":
        state = bg.pure_to_density(state)
    doc = bg.state_to_dict(state)
    doc["data"][0][1] = bad
    with pytest.raises(StateFileError, match="entries must be \\[re, im\\] pairs of numbers"):
        bg.load_state(_write(tmp_path, doc))


@pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
def test_local_unitary_file_accepts_only_pairs_of_two_numbers(tmp_path, bad):
    eye2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    u_b = json.loads(json.dumps(eye2))
    u_b[1][0] = bad
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"u_a": eye2, "u_b": u_b}))
    with pytest.raises(StateFileError, match="u_b: entries must be"):
        bg.load_local_unitary(path)


def test_loader_accepts_integer_entries_and_reports_huge_ones(tmp_path):
    doc = {"dims": [2, 2], "kind": "pure", "data": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    assert bg.load_state(_write(tmp_path, doc)).amp[0, 0] == 1.0
    doc["data"][1][1] = [10**400, 0]
    with pytest.raises(StateFileError, match="out of floating-point range"):
        bg.load_state(_write(tmp_path, doc))


@pytest.mark.parametrize("data, message", [
    ([[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "^pure data: rows differ in length$"),
    ([[]], "^dims mismatch: pure data must be 2x2, got 1x0$"),
    ([], "^dims mismatch: pure data must be 2x2, got no rows$"),
])
def test_loader_reports_rows_of_the_wrong_length(tmp_path, data, message):
    doc = {"dims": [2, 2], "kind": "pure", "data": data}
    with pytest.raises(StateFileError, match=message):
        bg.load_state(_write(tmp_path, doc))


def test_state_from_dict_rejects_documents_that_are_not_objects():
    for doc in ([], "pure", 3, None):
        with pytest.raises(StateFileError, match="top level must be a JSON object"):
            bg.state_from_dict(doc)


# Any JSON value, plus documents shaped like state and rotation files whose
# fields are drawn from the same values, so the fuzz reaches every check.
_json_scalars = (st.none() | st.booleans() | st.integers(-2, 2) | st.integers()
                 | st.floats() | st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=24,
)
_numbers = st.integers(-1, 1) | st.floats(-1.0, 1.0) | st.sampled_from([0.5, 0.0, 1.0])
_entries = st.lists(_numbers, min_size=2, max_size=2) | _json_values
_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
) | _json_values
_documents = (
    _json_values
    | st.fixed_dictionaries({
        "dims": st.lists(st.integers(-1, 3) | st.booleans(), max_size=3) | _json_values,
        "kind": st.sampled_from(["pure", "density"]) | _json_values,
        "data": _matrices,
    })
    | st.fixed_dictionaries({"u_a": _matrices, "u_b": _matrices})
)


@given(doc=_documents)
@settings(max_examples=150)
def test_any_json_document_loads_or_raises_state_file_error(tmp_path_factory, doc):
    root = tmp_path_factory.getbasetemp() / "fuzz"
    root.mkdir(exist_ok=True)
    path = root / "doc.json"
    path.write_text(json.dumps(doc))
    for load in (bg.state_from_dict, lambda _: bg.load_local_unitary(path)):
        try:
            loaded = load(doc)
        except StateFileError:
            continue
        assert isinstance(loaded, (bg.PureState, bg.DensityOperator, bg.LocalUnitary))

    bell = root / "bell.qstate.json"
    bg.save_state(bell, bg.max_entangled(2, bg.BipartiteDims(2, 2)))
    commands = [["povm-check", str(path)], ["measure", str(path)],
                ["simulate", str(path), "--shots", "10", "--reps", "1"],
                ["simulate", str(bell), "--shots", "10", "--reps", "1",
                 "--phase-rotation", str(path)]]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
