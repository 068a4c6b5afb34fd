"""JSON state files (extension ``.qstate.json``).

Complex entries are stored as explicit [re, im] pairs so the format stays
portable; Python's JSON float round-trip is exact, so save/load reproduces
a state bit for bit.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .linalg import BipartiteDims
from .local_unitary import LocalUnitary
from .states import DensityOperator, PureState

QSTATE_EXT = ".qstate.json"


class StateFileError(ValueError):
    """Raised when a state file fails parsing or validation."""


def _matrix_to_pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


#: What a JSON number parses to.  ``bool`` subclasses ``int``, so the check
#: compares exact types.
_NUMBER_TYPES = frozenset({int, float})
_PAIR = frozenset({2})


def _pairs_to_matrix(data, rows: int, cols: int, what: str) -> np.ndarray:
    """A rows x cols complex matrix from a list of rows of [re, im] pairs.

    Every entry must be a list of exactly two numbers; booleans, strings
    and deeper nesting are refused.  Each level of nesting is checked by
    one ``map`` pass rather than a Python loop, since the CLI loads a file
    on every call.
    """
    message = f"{what}: entries must be [re, im] pairs of numbers"
    try:
        entries = list(chain.from_iterable(data))
        lengths = set(map(len, entries))
        numbers = list(chain.from_iterable(entries))
    except TypeError as exc:  # data, a row or an entry is not a sequence
        raise StateFileError(message) from exc
    # a string or object in place of a list yields strings or keys here
    if not (lengths <= _PAIR and set(map(type, numbers)) <= _NUMBER_TYPES):
        raise StateFileError(message)
    row_lengths = set(map(len, data))
    if row_lengths != {cols} or len(data) != rows:
        if len(row_lengths) > 1:
            raise StateFileError(f"{what}: rows differ in length")
        got = f"{len(data)}x{row_lengths.pop()}" if data else "no rows"
        raise StateFileError(f"dims mismatch: {what} must be {rows}x{cols}, got {got}")
    try:
        flat = np.array(numbers, dtype=float)
    except OverflowError as exc:
        raise StateFileError(f"{what}: entry out of floating-point range") from exc
    return flat.view(np.complex128).reshape(rows, cols)


def state_to_dict(state: PureState | DensityOperator) -> dict:
    if isinstance(state, PureState):
        return {
            "dims": [state.dims.m, state.dims.n],
            "kind": "pure",
            "data": _matrix_to_pairs(state.amp),
        }
    return {
        "dims": [state.dims.m, state.dims.n],
        "kind": "density",
        "data": _matrix_to_pairs(state.mat),
    }


def state_from_dict(
    doc: dict, renormalize: bool = False, tol: float = 1e-9
) -> PureState | DensityOperator:
    if not isinstance(doc, dict):
        raise StateFileError(f"top level must be a JSON object, got {type(doc).__name__}")
    dims_field = doc.get("dims")
    if (
        not isinstance(dims_field, list)
        or len(dims_field) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims_field)
    ):
        raise StateFileError(f"dims mismatch: expected [M, N] integers, got {dims_field!r}")
    try:
        dims = BipartiteDims(*dims_field)
    except ValueError as exc:
        raise StateFileError(str(exc)) from exc

    kind = doc.get("kind")
    if kind == "pure":
        amp = _pairs_to_matrix(doc.get("data"), dims.m, dims.n, "pure data")
        norm = float(np.linalg.norm(amp))
        if abs(norm * norm - 1.0) > tol:
            if not renormalize:
                raise StateFileError(
                    f"pure state not normalized: sum |amp|^2 = {norm * norm!r} "
                    f"(tolerance {tol}); pass renormalize to rescale"
                )
            if norm == 0.0:
                raise StateFileError("pure state has zero norm")
            amp = amp / norm
        try:
            return PureState(dims, amp)
        except ValueError as exc:
            raise StateFileError(str(exc)) from exc
    if kind == "density":
        mat = _pairs_to_matrix(doc.get("data"), dims.size, dims.size, "density data")
        try:
            return DensityOperator(dims, mat)
        except ValueError as exc:
            raise StateFileError(str(exc)) from exc
    raise StateFileError(f"kind must be 'pure' or 'density', got {kind!r}")


def _read_json(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFileError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: not valid JSON ({exc})") from exc


def load_state(
    path, renormalize: bool = False, tol: float = 1e-9
) -> PureState | DensityOperator:
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be a JSON object")
    return state_from_dict(doc, renormalize=renormalize, tol=tol)


def save_state(path, state: PureState | DensityOperator) -> None:
    Path(path).write_text(
        json.dumps(state_to_dict(state), indent=2) + "\n", encoding="utf-8"
    )


def load_local_unitary(path) -> LocalUnitary:
    """Read a {"u_a": ..., "u_b": ...} JSON file of [re, im] pair matrices."""
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict) or "u_a" not in doc or "u_b" not in doc:
        raise StateFileError(f"{path}: expected keys 'u_a' and 'u_b'")
    mats = []
    for key in ("u_a", "u_b"):
        data = doc[key]
        if not isinstance(data, list) or not data:
            raise StateFileError(f"{path}: {key} must be a nested array")
        d = len(data)
        mats.append(_pairs_to_matrix(data, d, d, key))
    try:
        return LocalUnitary(*mats)
    except ValueError as exc:
        raise StateFileError(str(exc)) from exc
