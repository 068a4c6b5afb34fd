"""End-to-end benchmark of the bellgamma CLI, with a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the program is imported from ``src/``.
One client in this process calls ``bellgamma.cli.main(argv)`` in a closed
loop, capturing and checking stdout, stderr and the exit code of every call,
and repeats the workload's cycle of calls for about ``--seconds`` (whole
cycles only).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
makes every call twice in a row, once with spans installed around the layer
functions and once without, and reports the per-layer metrics and the
tracing overhead.  The last line of stdout is the JSON result; the full
record, and the spans of a traced run, go to ``.perfbench-out/``.

``--all`` runs each workload in its own process, prints every metric by
name with its unit, and exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from summary import PER_LAYER, layer_metrics, ops_per_s, tail
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
#: Set-up samples taken before the timed loop and again after it, so that the
#: median spans two moments of a shared machine rather than one.
SETUP_REPS = 4
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def import_program():
    """Import bellgamma from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bellgamma" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'bellgamma'}; "
                 "run from the root of a bellgamma checkout")
    sys.path.insert(0, str(src))
    import bellgamma
    import bellgamma.cli

    if Path(bellgamma.__file__).resolve().parent != src / "bellgamma":
        sys.exit(f"perfbench: imported bellgamma from {bellgamma.__file__}, not {src}")
    return bellgamma.cli


def call(cli, argv) -> dict:
    """One closed-loop call: run, time, capture, and note how it failed."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed op
        rc, raised = None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    return {"s": elapsed, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "raised": raised}


def failures_of(op, result) -> list:
    if result["raised"]:
        return [result["raised"]]
    try:
        return op.check(result["rc"], result["stdout"], result["stderr"])
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


# ------------------------------------------------------------------- set-up


def setup_probe(workload, seed: int, work: Path) -> int:
    """Body of one set-up sample, run in a fresh interpreter."""
    cli = import_program()
    workload.write_inputs(seed, work)
    result = call(cli, workload.warmup(seed, work))
    return 0 if result["rc"] == 0 and not result["raised"] else 1


def measure_setup(name: str, seed: int, work: Path, when: str) -> list:
    times = []
    for i in range(SETUP_REPS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", name, "--seed", str(seed), "--work", str(work / f"setup-{when}-{i}")]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed: {proc.stderr.strip()}")
    return times


# -------------------------------------------------------------- environment


def git_sha():
    try:
        # The ceiling keeps git from taking the SHA of a repository above ROOT.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(cli) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "default_threads": cli.build_parser().parse_args(["conjecture"]).threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
    }


# --------------------------------------------------------------- closed loop


def closed_loop(workload, seed: int, work: Path, seconds: float, do_call) -> list:
    """Repeat whole cycles, stopping at the cycle count whose end lies
    nearest ``seconds``; returns the wall time of each cycle."""
    start = time.perf_counter()
    cycle_s = []
    while True:
        begin = time.perf_counter()
        for op in workload.cycle(seed, work, len(cycle_s)):
            do_call(op)
        cycle_s.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cycle_s) / 2 >= seconds:
            return cycle_s


def run_workload(args) -> int:
    cli = import_program()
    workload = workloads.WORKLOADS[args.workload]
    env = environment(cli)
    if args.workload == "conjecture-pure" and env["default_threads"] > env["nproc"]:
        sys.exit(f"perfbench: the program's default --threads ({env['default_threads']}) "
                 f"exceeds nproc ({env['nproc']}); that would measure the scheduler")

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = None if args.trace else measure_setup(args.workload, args.seed, work, "before")
        inputs_dir = work / "inputs"
        workload.write_inputs(args.seed, inputs_dir)
        warm = workload.warmup(args.seed, inputs_dir)
        warm_result = call(cli, warm)
        if warm_result["rc"] != 0 or warm_result["raised"]:
            sys.exit(f"perfbench: warm-up call {warm} failed: {warm_result}")

        records = []
        failures = []
        failed_calls = 0

        def check(op, result):
            nonlocal failed_calls
            fails = failures_of(op, result)
            failures.extend(f"{op.label}: {f}" for f in fails)
            failed_calls += bool(fails)

        if args.trace:
            tracer = Tracer()

            def do_call(op):
                index = len(records)
                timed = {}
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    if traced:
                        tracer.op = index
                        tracer.install()
                    try:
                        result = call(cli, op.argv)
                    finally:
                        tracer.uninstall()
                    timed["traced_s" if traced else "untraced_s"] = result["s"]
                    check(op, result)
                records.append({"op": index, "label": op.label, **timed})
        else:
            def do_call(op):
                result = call(cli, op.argv)
                check(op, result)
                records.append({"label": op.label, "s": result["s"], "trials": op.trials})

        cycle_s = closed_loop(workload, args.seed, inputs_dir, args.seconds, do_call)
        if setup is not None:
            setup += measure_setup(args.workload, args.seed, work, "after")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        trace_path = OUT / f"trace-{tag}.json"
        tracer.export(trace_path, records)
        spans = json.loads(trace_path.read_text())["spans"]
        values = layer_metrics(spans, records)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        attempted = 2 * len(records)
        detail = {"trace_file": str(trace_path.relative_to(ROOT))}
    else:
        latencies = [r["s"] for r in records]
        wall = sum(cycle_s)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops_per_s([(r["label"], r["s"]) for r in records], cycle_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        attempted = len(records)
        op_tail = tail(latencies)
        trials = sum(r["trials"] for r in records)
        detail = {
            "ops": len(records),
            "cycles": len(cycle_s),
            "wall_s": wall,
            "mean_ops_per_s": len(records) / wall,
            "op_p50_s": statistics.median(latencies),
            "trials_per_s": trials / wall if trials else None,
            "op_tail_s": None if op_tail is None else
            {"percentile": op_tail[0], "value": op_tail[1], "samples_beyond": op_tail[2],
             "samples": len(latencies)},
            "setup_samples_s": setup,
            "calls": [[r["label"], r["s"]] for r in records],
        }
    detail["fail_share"] = failed_calls / attempted
    detail["failures"] = failures[:20]

    result = {"correct": not failures, "attempted": attempted, "failed": failed_calls,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "detail": detail, **result},
        indent=2) + "\n")

    print(f"perfbench {tag} seconds={args.seconds}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")
    print("detail " + json.dumps({k: v for k, v in detail.items() if k != "calls"}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- all of them


def run_all(args) -> int:
    ok = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=2 * args.seconds + CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<58} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'fail_share':<58} {detail['fail_share']:>16.6g} ratio")
        if "op_p50_s" in detail:
            print(f"  {'op_p50_s':<58} {detail['op_p50_s']:>16.6g} s")
        if detail.get("trials_per_s") is not None:
            print(f"  {'trials_per_s':<58} {detail['trials_per_s']:>16.6g} 1/s")
        if "op_tail_s" in detail:
            t = detail["op_tail_s"]
            print(f"  {'op_tail_s':<58} " + (
                "not reported: fewer than 10 samples beyond p90" if t is None else
                f"{t['value']:>16.6g} s (p{t['percentile']:g}, "
                f"{t['samples_beyond']} of {t['samples']} samples beyond)"))
        for failure in detail["failures"]:
            print(f"  FAILED {failure}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    if args.setup_probe:
        return setup_probe(workloads.WORKLOADS[args.workload], args.seed, args.work)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
