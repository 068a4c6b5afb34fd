"""Spans around the public functions of each layer module, installed from
outside the program.

``Tracer.install`` replaces every plain public function of the layer modules
with a recording wrapper, in the defining module and in every ``bellgamma``
module that holds a binding to it (``bellgamma.cli.gamma`` as well as
``bellgamma.measures.gamma``); ``uninstall`` puts the originals back.  Spans
are kept in memory and exported once, at the end of a run.

A span opened on a thread other than the client's, with no open span of its
own, takes as parent the client's innermost open span: that is how trials
run by the conjecture thread pool are attributed to the ``conjecture_sweep``
call that submitted them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "statefile", "states", "linalg", "measures", "local_unitary",
          "phase_povm", "bell")

#: Functions left unwrapped, because a span would cost more than their
#: body: the unitary constructor of the optimizer's inner loop and the index
#: helpers called once per Bell projection.  Nor are the CLI's own handlers
#: and formatting wrapped; they count as ``cli.main`` self time.
UNSPANNED = {"local_unitary.unitary_from_flat", "linalg.pair_index", "states.bell_vector"}
CLI_SPANNED = {"main"}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    attrs: dict | None = None


# ------------------------------------------------------------------ attributes
# Call attributes the per-layer metrics need, read from arguments and results.


def _is_product(mat, m: int, n: int) -> bool:
    r4 = mat.reshape(m, n, m, n)
    rho_a = np.einsum("ipjp->ij", r4)
    rho_b = np.einsum("ipiq->pq", r4)
    return bool(np.max(np.abs(mat - np.kron(rho_a, rho_b))) < 1e-12)


def _maximize_attrs(bound, report) -> dict:
    state = bound["state"]
    dims = state.dims
    kind = "pure" if hasattr(state, "amp") else "density"
    label = f"{kind}-{dims.label()}"
    if kind == "density" and _is_product(state.mat, dims.m, dims.n):
        label += "-product"
    return {"label": label, "sweeps": report.iterations, "restarts": report.restarts,
            "converged": bool(report.converged)}


def _povm_attrs(bound, result) -> dict:
    dims = bound["rho"].dims
    quadruples = (dims.m * (dims.m - 1) // 2) * (dims.n * (dims.n - 1) // 2)
    return {"label": dims.label(), "expectations": quadruples * bound["grid"] ** 2}


def _simulate_attrs(bound, result) -> dict:
    plan = bound["plan"]
    targets = len(plan.targets) if plan is not None else len(result.terms) * 2
    return {"label": bound["state"].dims.label(), "projections": 2 * targets}


def _load_attrs(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound["path"])}


ANNOTATORS = {
    "local_unitary.maximize_gamma": _maximize_attrs,
    "local_unitary.conjecture_sweep": lambda bound, result: {"threads": bound["threads"]},
    "phase_povm.gamma_via_povm": _povm_attrs,
    "bell.simulate_shots": _simulate_attrs,
    "statefile.load_state": _load_attrs,
}


# ---------------------------------------------------------------------- tracer


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                client = self._client_stack
                parent = client[-1] if client else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                attrs = None
                if annotate and ok:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = annotate(bound.arguments, result)
                self.spans.append(Span(sid, name, start, end, parent, self.op,
                                       threading.get_ident(), attrs))

        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind every ``bellgamma`` binding."""
        if self._saved:
            raise RuntimeError("spans are already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"bellgamma.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNSPANNED
                        or (layer == "cli" and attr not in CLI_SPANNED)):
                    continue
                wrappers[fn] = self.wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "bellgamma" and not modname.startswith("bellgamma."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def export(self, path: Path, ops: list) -> None:
        """Write every span and op record, once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [asdict(s) for s in self.spans], "ops": ops}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
