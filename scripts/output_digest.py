#!/usr/bin/env python3
"""Print one sha256 per CLI subcommand over a fixed, seeded argv corpus.

usage: python scripts/output_digest.py

Each digest covers the exit code, stdout and stderr of every call of that
subcommand, in corpus order.  The input states are written to a temporary
directory and named relative to it, so the digests do not depend on where
the script runs.  Two trees whose digests agree print byte-identical output
on the whole corpus; a change meant to keep the output the same is checked
by running this script on both, from the root of one checkout, with each
tree's sources first on the path:

    PYTHONPATH=<checkout>/src python scripts/output_digest.py

Error calls in the corpus fail inside the library (``--n2 -1``), not in
argparse: a usage error prints the usage line, which lists every option, so
it changes whenever an option is added or removed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

import bellgamma as bg
from bellgamma.cli import main


def _pairs(mat: np.ndarray) -> list:
    """A complex matrix as the [re, im] pair rows of the state file format."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _write_inputs(root: pathlib.Path) -> None:
    d22, d23, d33 = bg.BipartiteDims(2, 2), bg.BipartiteDims(2, 3), bg.BipartiteDims(3, 3)
    states = {
        "bell-2x3": bg.max_entangled(2, d23),
        "product-pure-3x2": bg.max_entangled(1, bg.BipartiteDims(3, 2)),
        "pure-2x2": bg.random_pure(d22, 1),
        "pure-3x3": bg.random_pure(d33, 2),
        "pure-4x4": bg.random_pure(bg.BipartiteDims(4, 4), 3),
        "pure-2x5": bg.random_pure(bg.BipartiteDims(2, 5), 4),
        "rho-2x2": bg.random_density(d22, 5),
        "rho-2x3": bg.random_density(d23, 6),
        "rho-3x3": bg.random_density(d33, 7),
        "product-rho-2x3": bg.random_product(d23, 8),
        "mixed-2x3": bg.DensityOperator(d23, np.eye(6) / 6),
    }
    for name, state in states.items():
        bg.save_state(root / f"{name}.json", state)
    rot = bg.random_local_unitary(d23, 9)
    doc = {"u_a": _pairs(rot.u_a), "u_b": _pairs(rot.u_b)}
    (root / "rot-2x3.json").write_text(json.dumps(doc), encoding="utf-8")


PURE = ["bell-2x3", "product-pure-3x2", "pure-2x2", "pure-3x3", "pure-4x4", "pure-2x5"]
DENSITY = ["rho-2x2", "rho-2x3", "rho-3x3", "product-rho-2x3", "mixed-2x3"]

CORPUS = {
    "measure": [
        *(["measure", f"{name}.json"] for name in PURE + DENSITY),
        ["measure", "pure-3x3.json", "--output", "json"],
        ["measure", "rho-2x3.json", "--seed", "3"],
        ["measure", "bell-2x3.json", "--n2-preset", "concurrence-matched"],
        ["measure", "pure-2x2.json", "--n2", "3.5"],
        ["measure", "missing.json"],
        ["measure", "rho-2x2.json", "--n2", "-1"],
        ["measure", "rho-2x2.json", "--n2", "0"],
    ],
    "povm-check": [
        *(["povm-check", f"{name}.json"] for name in PURE + DENSITY),
        ["povm-check", "pure-4x4.json", "--n2-preset", "unnormalized"],
        ["povm-check", "bell-2x3.json", "--n2", "-1"],
    ],
    "simulate": [
        *(["simulate", f"{name}.json", "--shots", "100", "--shots", "10000", "--reps", "3"]
          for name in PURE),
        ["simulate", "pure-3x3.json", "--shots", "1000", "--seed", "5", "--output", "json"],
        ["simulate", "rho-2x3.json", "--shots", "500", "--phase-rotation", "rot-2x3.json"],
        ["simulate", "bell-2x3.json", "--shots", "50", "--phase-rotation", "rot-2x3.json"],
        ["simulate", "rho-2x3.json", "--shots", "500"],
        ["simulate", "rho-2x2.json", "--shots", "500", "--phase-rotation", "rot-2x3.json"],
        ["simulate", "pure-2x2.json", "--shots", "0"],
        ["simulate", "pure-3x3.json", "--shots", "10000", "--shots", "100", "--reps", "2"],
        ["simulate", "pure-2x2.json", "--shots", "10", "--reps", "1000000000000000"],
    ],
    "conjecture": [
        ["conjecture", "--dims", "2x2", "--dims", "2x3", "--trials", "2", "--threads", "1"],
        ["conjecture", "--dims", "3x3", "--trials", "1", "--seed", "4", "--threads", "1",
         "--output", "json"],
        ["conjecture", "--dims", "6x6", "--trials", "1"],
    ],
}


def _call(argv: list) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        except Exception as exc:  # a traceback is output too, so digest it
            code = f"uncaught {type(exc).__name__}: {exc}"
    return [argv, code, out.getvalue(), err.getvalue()]


def main_digest(argv=None) -> int:
    argparse.ArgumentParser(
        description="Print one sha256 per CLI subcommand over a fixed argv corpus."
    ).parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            for command, calls in CORPUS.items():
                digest = hashlib.sha256()
                for argv in calls:
                    digest.update(json.dumps(_call(argv)).encode("utf-8") + b"\n")
                print(f"{command} calls={len(calls)} sha256={digest.hexdigest()}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
