"""Benchmark for the schroder package: one workload, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {census,certify,classify,iso}
                             --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics: for S seconds
it runs the workload's operations, each in a fresh process, and now and
then starts an interpreter to time set-up; every time is reported at the
machine's reference speed (calib.py).  With ``--trace 1`` it runs a
fixed set of operations, each untraced and then with every layer wrapped,
and reports per-layer self times and counts.  Every answer
is checked against exact references; the last line of standard output is
one JSON object, and any wrong answer makes the exit code 1.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import CHECKS, TINY_TRACED_OPS, TRACED_OPS, WORKLOADS  # noqa: E402

SETUP_PROBES = 10
TIME_LIMIT_S = 170  # the whole run, set-up and checks included
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.errors": "count"})
    units.update({
        "fan.cones": "count",
        "classify.fingerprint.distinct": "count",
        "classify.iso.yes": "count",
        "classify.iso.no": "count",
        "classify.iso.unknown": "count",
        "unattributed.self_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


class RunError(Exception):
    """The run could not produce a result at all."""


def child_env(src: str) -> dict[str, str]:
    """Environment for every process that runs the program.

    SCHRODER_THREADS is unset and BLAS is held to one thread: the server
    forks, which is only safe without threads, and one thread is the plain
    single-threaded baseline on any machine.
    """
    env = {k: v for k, v in os.environ.items() if k != "SCHRODER_THREADS"}
    env.update(THREAD_ENV, PYTHONPATH=src)
    return env


def run_server(root, env, job, work, deadline) -> list[dict]:
    job_path = os.path.join(work, "job.json")
    results_path = os.path.join(work, "results.jsonl")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "server.py"), job_path, results_path],
        cwd=root, env=env, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError("the run did not finish in time") from None
    if code != 0:
        raise RunError(f"the operation server exited with code {code}")
    with open(results_path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def tail(latencies: list[float], pct: float, beyond: int) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to ``pct`` with at
    least ``beyond`` samples above it, or the maximum when there is none."""
    xs = sorted(latencies)
    if pct < 100:
        for p in (99.9, 99, 98, 95, 90, 75, 50):
            if p <= pct:
                rank = math.ceil(p / 100 * len(xs))
                if len(xs) - rank >= beyond:
                    return p, xs[rank - 1]
    return 100.0, xs[-1]


def provenance(root, src, args, server_info) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "schroder")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": server_info.get("numpy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {**THREAD_ENV, "SCHRODER_THREADS": None},
        "outer_SCHRODER_THREADS": os.environ.get("SCHRODER_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def check_results(ops, results) -> list[str]:
    """Problems with any answer, judged by the workload's exact references."""
    import schroder  # the checkout's copy, for the witness re-check

    problems = []
    for r in results:
        op = ops[r["index"]]
        if r.get("error"):
            found = [r["error"].strip().splitlines()[-1]]
        else:
            found = CHECKS[op["kind"]](op, r["summary"], schroder)
        r["ok"] = not found
        problems.extend(f"{op['kind']} op {r['index']}: {p}" for p in found)
    return problems


def at_reference_speed(seconds: float, calibration: list[float]) -> float:
    """A time measured between calibrations, scaled to the reference speed
    of the machine (see calib.py).

    ``calibration`` holds one sample taken right before the interval and
    one or more right after it.  The machine's speed can change during a
    long interval, so the two ends count alike: the one before, and the
    median of those after.
    """
    before, after = calibration[0], statistics.median(calibration[1:])
    return seconds * calib.REFERENCE_S / ((before + after) / 2)


def end_to_end(workload, results, probes, server_info, notes) -> dict:
    good = [r for r in results if r["ok"]]
    for r in good:
        r["scaled_s"] = at_reference_speed(r["latency_s"], r["calibration_s"])
    latencies = [r["scaled_s"] for r in good]
    if workload.pass_latency:
        size = len({r["index"] for r in results})
        passes = [results[i:i + size] for i in range(0, len(results), size)]
        latencies = [sum(r["scaled_s"] for r in p) for p in passes
                     if len(p) == size and all(r["ok"] for r in p)]
    setup = [p["probe"] * calib.REFERENCE_S / p["calibration_s"] for p in probes]
    speeds = [calib.REFERENCE_S / c for r in good for c in r["calibration_s"]]
    notes.update(latencies_s=latencies, setup_s=setup,
                 measured_latencies_s=[r["latency_s"] for r in good],
                 measured_setup_s=[p["probe"] for p in probes],
                 speed_median=statistics.median(speeds) if speeds else None)
    if not latencies or not setup:
        raise RunError("no operation succeeded")
    pct, tail_value = tail(latencies, workload.tail_pct, workload.tail_beyond)
    values = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": (sum(r["summary"]["units"] for r in good)
                             / sum(r["scaled_s"] for r in good)),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail_value * 1000,
        "peak_rss_mb": max([server_info["server_maxrss_kb"]]
                           + [r["maxrss_kb"] for r in results]) / 1024,
    }
    notes.update(tail_percentile=pct)
    return values


def per_layer(results) -> tuple[dict, dict, list[str]]:
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    problems = []
    if len(plain) != len(traced):
        problems.append(f"{len(plain)} untraced ops but {len(traced)} traced ones")
    for a, b in zip(plain, traced):
        if a["ok"] and b["ok"] and a["summary"]["digest"] != b["summary"]["digest"]:
            problems.append(f"op {a['index']}: the traced answer differs")
    values = {name: 0 for name in per_layer_units()}
    edges: dict[str, list] = {}
    for r in traced:
        t = r["trace"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] += t["self_s"][layer]
            values[f"{layer}.calls"] += t["calls"][layer]
            values[f"{layer}.errors"] += t["errors"][layer]
        values["fan.cones"] += t["cones"]
        values["classify.fingerprint.distinct"] += t["fingerprint_distinct"]
        for status, count in t["verdicts"].items():
            values[f"classify.iso.{status.lower()}"] += count
        values["unattributed.self_s"] += r["latency_s"] - t["root_s"]
        for parent, layer, calls, total in t["edges"]:
            edge = edges.setdefault(f"{parent} -> {layer}", [0, 0.0])
            edge[0] += calls
            edge[1] += total
    wall = sum(r["latency_s"] for r in traced)
    plain_wall = sum(r["latency_s"] for r in plain)
    values["trace.wall_s"] = wall
    values["trace.overhead_ratio"] = wall / plain_wall - 1 if plain_wall else 0.0
    layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    if values["unattributed.self_s"] < -1e-6 or abs(
        layer_sum + values["unattributed.self_s"] - wall
    ) > 1e-6 * max(1.0, wall):
        problems.append("layer self times and the remainder do not add up to the wall time")
    missing = sorted({m for r in traced for m in r["trace"]["missing"]})
    notes = {"traced_ops": len(traced), "untraced_wall_s": plain_wall,
             "edges": edges, "missing_functions": missing}
    return values, notes, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (n <= 5, a few operations)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: corrupt the first answer; the run must fail")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schroder", "__init__.py")):
        print(f"no schroder source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed, args.tiny)
    env = child_env(src)
    out_dir = os.path.join(root, ".perfbench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    job = {"ops": ops, "workdir": work, "source": src, "corrupt": args.inject_fault}
    if args.trace:
        job["run"] = {"trace": True, "probes": 0, "count": (
            len(ops) if workload.whole_passes
            else TINY_TRACED_OPS if args.tiny else TRACED_OPS)}
    else:
        job["run"] = {"trace": False, "budget_s": args.seconds,
                      "whole_passes": workload.whole_passes,
                      "probes": 3 if args.tiny else SETUP_PROBES}
    try:
        lines = run_server(root, env, job, work, deadline)
    except (RunError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    server_info = lines[0]
    results = [e for e in lines[1:] if "index" in e]
    probes = [e for e in lines[1:] if "probe" in e]
    problems = check_results(ops, results)
    problems += [f"set-up probe: {p['error']}" for p in probes if p["error"]]
    probes = [p for p in probes if not p["error"]]
    notes: dict = {}
    try:
        if args.trace:
            values, notes, more = per_layer(results)
            problems += more
            units = per_layer_units()
        else:
            values = end_to_end(workload, results, probes, server_info, notes)
            units = END_TO_END_UNITS
    except RunError as exc:
        values, units = {}, {}
        problems.append(str(exc))
    failed = sum(not r["ok"] for r in results)
    outcome = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    record = {"provenance": provenance(root, src, args, server_info),
              "fail_ratio": failed / len(results) if results else 1.0,
              "problems": problems[:50], "notes": notes, **outcome}
    results_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(results)} ops attempted, {failed} failed")
    for name, m in outcome["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio {record['fail_ratio']:.6g} ratio")
    if "tail_percentile" in notes:
        samples = "passes" if workload.pass_latency else "ops"
        print(f"  op_tail_ms is p{notes['tail_percentile']:g} of "
              f"{len(notes['latencies_s'])} {samples}; setup_s is the median of "
              f"{len(notes['setup_s'])} interpreter starts")
    elif args.trace:
        print(f"  per-layer totals over {notes['traced_ops']} traced ops")
        for name in notes["missing_functions"]:
            print(f"  WARNING: {name} no longer exists and was not traced")
    for p in problems[:10]:
        print(f"  PROBLEM: {p}")
    print(f"  results: {os.path.relpath(results_path, root)}")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
