"""Tests of the benchmark itself: span accounting, the tail rule, input
determinism, the tracer against the real program, and the metric lists.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
from pathlib import Path

import pytest

import run
import workloads
from summary import PER_LAYER, layer_metrics, ops_per_s, self_times, tail, union_length
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def span(sid, start, end, parent=None, thread=1, name="x.f", attrs=None):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "op": 0, "thread": thread, "attrs": attrs}


def test_self_time_with_one_child_covering_part_of_its_parent():
    selfs = self_times([span(0, 0.0, 10.0), span(1, 2.0, 5.0, parent=0)])
    assert selfs == {0: pytest.approx(7.0), 1: pytest.approx(3.0)}


def test_overlapping_children_on_two_threads_are_covered_once():
    # A sweep on the client thread hands two trials to two worker threads;
    # they overlap each other, and the sweep waits for both.
    spans = [
        span(0, 0.0, 10.0, thread=1),
        span(1, 1.0, 6.0, parent=0, thread=2),
        span(2, 4.0, 9.0, parent=0, thread=3),
        span(3, 2.0, 3.0, parent=1, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(2.0)  # 10 - |[1, 9]|
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(5.0)
    assert sum(selfs.values()) == pytest.approx(12.0)  # busy time on three threads


def test_union_length_merges_and_skips_empty_intervals():
    assert union_length([(0, 2), (1, 3), (5, 6), (7, 7), (8, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert tail(samples) == (95.0, 190.0, 10)
    assert tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 10)


def test_tail_with_too_few_samples_reports_nothing():
    assert tail([float(i) for i in range(1, 100)]) is None  # p90 leaves 9 beyond
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert tail([]) is None


def test_ops_per_s_prices_long_runs_at_each_calls_fastest_time():
    # 20 cycles of a 1 s call "a" (one of them 0.8 s) and a 2 s call "b"
    # (three of them slowed to 5 s): a cycle is priced at 0.8 + 2 s.
    calls = [("a", 0.8 if k == 4 else 1.0) for k in range(20)]
    calls += [("b", 5.0 if k < 3 else 2.0) for k in range(20)]
    cycle_s = [1.0 + 2.0] * 20
    assert ops_per_s(calls, cycle_s) == pytest.approx(40 / (20 * 2.8))


def test_ops_per_s_rates_short_runs_by_their_mean():
    calls = [("a", 1.0)] * 19 + [("b", 5.0)] * 19
    assert ops_per_s(calls, [6.0] * 18 + [9.0]) == pytest.approx(38 / 117.0)


def _written(name, seed, root: Path) -> dict:
    w = workloads.WORKLOADS[name]
    w.write_inputs(seed, root)
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())} if root.exists() else {}
    argv = [op.argv for k in range(3) for op in w.cycle(seed, root, k)]
    return {"files": files, "argv": [[a.replace(str(root), "") for a in v] for v in argv]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_identical_for_one_seed_and_differ_for_another(name, tmp_path):
    first = _written(name, 5, tmp_path / "a")
    again = _written(name, 5, tmp_path / "b")
    other = _written(name, 6, tmp_path / "c")
    assert first == again
    assert first["argv"] != other["argv"]
    if first["files"]:
        assert first["files"].keys() == other["files"].keys()
        assert all(first["files"][k] != other["files"][k] for k in first["files"])


def test_generated_states_are_accepted_by_the_checks(tmp_path):
    cli = run.import_program()
    w = workloads.WORKLOADS["routes-crosscheck"]
    w.write_inputs(3, tmp_path)
    for op in w.cycle(3, tmp_path, 0):
        if op.argv[0] == "povm-check":
            result = run.call(cli, op.argv)
            assert run.failures_of(op, result) == []


def test_product_states_pass_their_checks_after_one_sweep_per_restart(tmp_path):
    cli = run.import_program()
    w = workloads.WORKLOADS["measure-product"]
    w.write_inputs(3, tmp_path)
    for op in w.cycle(3, tmp_path, 0):
        assert run.failures_of(op, run.call(cli, op.argv)) == [], op.label


def _traced(cli, tracer, argv):
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    finally:
        tracer.uninstall()


def test_tracer_wraps_imported_bindings_and_restores_them(tmp_path):
    cli = run.import_program()
    import bellgamma.measures as measures

    original = measures.gamma
    w = workloads.WORKLOADS["routes-crosscheck"]
    w.write_inputs(1, tmp_path)
    tracer = Tracer()
    assert _traced(cli, tracer, ["povm-check", str(next(tmp_path.iterdir()))]) == 0
    assert cli.gamma is original and measures.gamma is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "statefile.load_state", "measures.gamma",
            "phase_povm.gamma_via_povm", "linalg.is_density_operator"} <= names
    by_id = {s.id: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s.name == "cli.main")
    assert root.parent is None
    gamma_spans = [s for s in tracer.spans if s.name == "measures.gamma"]
    assert any(by_id[s.parent].name == "cli.main" for s in gamma_spans)


def test_trials_on_pool_threads_are_children_of_the_sweep():
    cli = run.import_program()
    tracer = Tracer()
    argv = ["conjecture", "--dims", "2x2", "--dims", "2x2", "--trials", "1",
            "--threads", "2", "--seed", "3"]
    assert _traced(cli, tracer, argv) == 0
    spans = [vars(s) for s in tracer.spans]
    sweep = next(s for s in spans if s["name"] == "local_unitary.conjecture_sweep")
    trials = [s for s in spans if s["name"] == "local_unitary.maximize_gamma"]
    assert len(trials) == 2
    assert all(s["parent"] == sweep["id"] for s in trials)
    assert all(s["thread"] != threading.get_ident() for s in trials)
    values = layer_metrics(spans, [{"untraced_s": 1.0, "traced_s": 1.0}])
    assert values["local_unitary.maximize_gamma.calls"] == 2
    assert values["local_unitary.conjecture_sweep.threads"] == 2
    assert 0.0 < values["local_unitary.conjecture_sweep.parallel_efficiency"] <= 1.0
    assert values["local_unitary.maximize_gamma.pure-2x2.s"] > 0.0


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    details = json.loads((ROOT / "perfbench" / "details.json").read_text())
    assert [w["name"] for w in details["workloads"]] == list(workloads.WORKLOADS)
    mapped = [name for m in details["layer_metrics"] for name in m["per_layer"]]
    assert sorted(mapped) == sorted(name for name, _, _ in PER_LAYER)
