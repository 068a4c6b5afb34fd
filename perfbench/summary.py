"""Turn op latencies and exported spans into the benchmark's metrics.

Self time of a span is its duration minus the part of it covered by its
children.  Children are the spans it caused, on its own thread or on
another: while ``conjecture_sweep`` waits for the trials it handed to the
thread pool, that wait is the trials' time, not its own.  Because children
on different threads may overlap one another, their cover is the length of
the union of their intervals.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS

TAIL_PER_MILLE = (999, 990, 950, 900)  # p99.9, p99, p95, p90
TAIL_MIN_BEYOND = 10
RATED_BY_FASTEST_CALLS = 20


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        cover = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                 for c in children[s["id"]]]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(cover)
    return out


def tail(samples):
    """The highest of p99.9, p99, p95 and p90 with at least ten samples
    beyond it, as (percentile, nearest-rank value, samples beyond); None
    when there are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_PER_MILLE:
        rank = -(-q * n // 1000)  # ceil(q * n / 1000) in integers
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return q / 10.0, ordered[rank - 1], n - rank
    return None


def ops_per_s(calls, cycle_s) -> float:
    """Calls per second of a run of whole cycles, each making the same kinds
    of call; ``calls`` holds the (label, seconds) of every call.

    A run of at least ``RATED_BY_FASTEST_CALLS`` cycles prices every call at
    the fastest time its label reached in the run.  Each label does the same
    work in every cycle, and on a shared machine another tenant can only
    slow a call down, so the fastest time is the one least disturbed.  (On
    a shared 2-core machine the speed of one run swung by up to 2x within
    seconds, and the mean, the median and the 10th-percentile cycle moved
    with it.)  A shorter run, of a few long cycles whose calls take
    different inputs, is rated by its mean.
    """
    if len(cycle_s) < RATED_BY_FASTEST_CALLS:
        return len(calls) / sum(cycle_s)
    fastest = {}
    for label, s in calls:
        fastest[label] = min(s, fastest.get(label, s))
    return len(calls) / sum(fastest[label] for label, _ in calls)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------- per layer

#: The kinds and dims that get a per-call latency metric of their own.
MAXIMIZE_LABELS = ("pure-2x2", "pure-2x3", "pure-3x3",
                   "density-2x2", "density-2x3", "density-2x3-product")
POVM_DIMS = ("2x2", "2x3", "3x3", "4x4")
SIMULATE_DIMS = ("2x3", "3x3", "4x4")

#: Every per-layer metric: (name, unit, which direction is better).  A
#: per-call median reads 0 when the workload never calls that function.
PER_LAYER = [
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("statefile.load_state.calls", "count", "lower"),
    ("statefile.load_state.s", "s", "lower"),
    ("statefile.bytes_read", "bytes-computed", "lower"),
    *((f"states.{fn}.{what}", unit, "lower")
      for fn in ("pure_to_density", "schmidt", "random_pure")
      for what, unit in (("calls", "count"), ("s", "s"))),
    ("linalg.is_density_operator.calls", "count", "lower"),
    ("linalg.is_density_operator.s", "s", "lower"),
    ("measures.gamma.calls", "count", "lower"),
    ("measures.gamma.s", "s", "lower"),
    ("measures.gamma_schmidt.s", "s", "lower"),
    ("measures.i_concurrence.s", "s", "lower"),
    ("local_unitary.maximize_gamma.calls", "count", "lower"),
    *((f"local_unitary.maximize_gamma.{label}.s", "s", "lower")
      for label in MAXIMIZE_LABELS),
    ("local_unitary.maximize_gamma.sweeps", "count", "lower"),
    ("local_unitary.maximize_gamma.restarts", "count", "lower"),
    ("local_unitary.maximize_gamma.s_per_sweep", "s", "lower"),
    ("local_unitary.maximize_gamma.converged_share", "ratio", "higher"),
    ("local_unitary.conjecture_sweep.s", "s", "lower"),
    ("local_unitary.conjecture_sweep.threads", "count", "higher"),
    ("local_unitary.conjecture_sweep.parallel_efficiency", "ratio", "higher"),
    ("phase_povm.gamma_via_povm.calls", "count", "lower"),
    *((f"phase_povm.gamma_via_povm.{d}.s", "s", "lower")
      for d in POVM_DIMS),
    ("phase_povm.expectations", "count-computed", "lower"),
    ("bell.simulate_shots.calls", "count", "lower"),
    *((f"bell.simulate_shots.{d}.s", "s", "lower") for d in SIMULATE_DIMS),
    ("bell.projections", "count-computed", "lower"),
    ("bell.shot_error_table.s", "s", "lower"),
    ("bell.plan_measurement.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def layer_metrics(spans, ops) -> dict:
    """Per-layer metrics of a traced run, keyed as in ``PER_LAYER``.

    ``ops`` holds, per op, its untraced and traced latency: the same call
    made twice in a row, once without and once with the spans installed.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def durations(name, label=None):
        return [s["end"] - s["start"] for s in by_name[name]
                if label is None or s["attrs"]["label"] == label]

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in by_name[name])

    v = {}
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s["name"].split(".")[0]] += selfs[s["id"]]
    busy = sum(layer_self.values())
    for layer in LAYERS:
        v[f"{layer}.self_share"] = layer_self[layer] / busy if busy else 0.0

    v["cli.main.calls"] = len(by_name["cli.main"])
    v["cli.main.self_s"] = _median([selfs[s["id"]] for s in by_name["cli.main"]])
    v["statefile.load_state.calls"] = len(by_name["statefile.load_state"])
    v["statefile.load_state.s"] = _median(durations("statefile.load_state"))
    v["statefile.bytes_read"] = attr_sum("statefile.load_state", "bytes")
    for fn in ("states.pure_to_density", "states.schmidt", "states.random_pure",
               "linalg.is_density_operator", "measures.gamma"):
        v[f"{fn}.calls"] = len(by_name[fn])
        v[f"{fn}.s"] = _median(durations(fn))
    for fn in ("measures.gamma_schmidt", "measures.i_concurrence",
               "bell.shot_error_table", "bell.plan_measurement",
               "local_unitary.conjecture_sweep"):
        v[f"{fn}.s"] = _median(durations(fn))

    mg = "local_unitary.maximize_gamma"
    calls = by_name[mg]
    v[f"{mg}.calls"] = len(calls)
    for label in MAXIMIZE_LABELS:
        v[f"{mg}.{label}.s"] = _median(durations(mg, label))
    sweeps = attr_sum(mg, "sweeps")
    v[f"{mg}.sweeps"] = sweeps / len(calls) if calls else 0.0
    v[f"{mg}.restarts"] = attr_sum(mg, "restarts") / len(calls) if calls else 0.0
    v[f"{mg}.s_per_sweep"] = sum(durations(mg)) / sweeps if sweeps else 0.0
    v[f"{mg}.converged_share"] = attr_sum(mg, "converged") / len(calls) if calls else 0.0

    cs = "local_unitary.conjecture_sweep"
    sweep_spans = {s["id"]: s for s in by_name[cs]}
    threads = [s["attrs"]["threads"] for s in sweep_spans.values()]
    v[f"{cs}.threads"] = _median(threads)
    capacity = sum((s["end"] - s["start"]) * s["attrs"]["threads"]
                   for s in sweep_spans.values())
    trial_time = sum(s["end"] - s["start"] for s in calls if s["parent"] in sweep_spans)
    v[f"{cs}.parallel_efficiency"] = trial_time / capacity if capacity else 0.0

    gp = "phase_povm.gamma_via_povm"
    v[f"{gp}.calls"] = len(by_name[gp])
    for d in POVM_DIMS:
        v[f"{gp}.{d}.s"] = _median(durations(gp, d))
    v["phase_povm.expectations"] = attr_sum(gp, "expectations")

    ss = "bell.simulate_shots"
    v[f"{ss}.calls"] = len(by_name[ss])
    for d in SIMULATE_DIMS:
        v[f"{ss}.{d}.s"] = _median(durations(ss, d))
    v["bell.projections"] = attr_sum(ss, "projections")

    v["trace.spans"] = len(spans)
    untraced = sum(op["untraced_s"] for op in ops)
    traced = sum(op["traced_s"] for op in ops)
    v["trace.overhead_share"] = traced / untraced - 1.0 if untraced else 0.0
    return v
