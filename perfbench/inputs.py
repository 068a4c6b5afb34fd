"""Deterministic benchmark inputs.

Every state file and every ``--seed`` value the program sees is derived from
the workload seed, so one seed always yields byte-identical inputs.  States
are drawn with numpy directly, not with the library's own samplers, so a
change to the library cannot silently change what the benchmark feeds it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for one input, addressed by (seed, *path)."""
    return np.random.default_rng([seed, *path])


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pure_amplitudes(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Haar-random pure state as an m x n amplitude matrix."""
    z = _complex_gaussian(rng, (m, n))
    return z / np.linalg.norm(z)


def full_rank_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hilbert-Schmidt random density matrix (full rank with probability 1)."""
    g = _complex_gaussian(rng, (d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def product_density(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """rho_A (x) rho_B with full-rank factors: mixed, yet a product state."""
    rho = np.kron(full_rank_density(rng, m), full_rank_density(rng, n))
    return (rho + rho.conj().T) / 2.0


def product_amplitudes(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """|a> (x) |b> with Haar-random factors, as an m x n amplitude matrix."""
    return np.outer(pure_amplitudes(rng, m, 1)[:, 0], pure_amplitudes(rng, n, 1)[:, 0])


def state_document(kind: str, m: int, n: int, mat: np.ndarray) -> str:
    """The ``.qstate.json`` text for a state, as documented in the README."""
    data = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return json.dumps({"dims": [m, n], "kind": kind, "data": data}) + "\n"


def write_state(path: Path, kind: str, m: int, n: int, mat: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(state_document(kind, m, n, mat), encoding="utf-8")


def cli_seed(seed: int, *path: int) -> int:
    """A ``--seed`` value for the program, derived from the workload seed."""
    return int(rng_for(seed, *path).integers(0, 2**31 - 1))
