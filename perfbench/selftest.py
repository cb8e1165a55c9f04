"""Fast self-test of the benchmark at tiny sizes (n <= 5, a few operations).

Run from the root of a checkout:  python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit
for every workload, that the seed changes the certify and iso inputs but not
the census and classify ones, that the correctness gate catches an injected
wrong answer, and that the benchmark fails without the program's source.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seconds", "1", *args],
        cwd=cwd or os.getcwd(), capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        outcome = None
    return proc.returncode, outcome, proc.stdout + proc.stderr


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    names = sorted(WORKLOADS)
    expect(sorted(w["name"] for w in spec["workloads"]) == names,
           f"BENCHMARK.json lists the workloads {names}")

    for name in names:
        for trace in (0, 1):
            code, outcome, log = bench("--workload", name, "--seed", "3",
                                       "--trace", str(trace), "--tiny")
            ok = code == 0 and outcome and outcome["correct"] and outcome["failed"] == 0
            expect(ok, f"{name} trace {trace} runs correctly" + ("" if ok else "\n" + log))
            got = {k: v["unit"] for k, v in outcome["metrics"].items()}
            expect(got == wanted[trace],
                   f"{name} trace {trace} emits exactly the BENCHMARK.json metrics")

    for name in names:
        make_ops = WORKLOADS[name].ops
        for tiny in (True, False):
            same = make_ops(1, tiny) == make_ops(1, tiny)
            changed = make_ops(1, tiny) != make_ops(2, tiny)
            expect(same, f"{name} (tiny={tiny}) inputs repeat for one seed")
            expect(changed == (name in ("certify", "iso")),
                   f"{name} (tiny={tiny}) inputs {'do' if changed else 'do not'} "
                   "change with the seed")

    for name in names:
        code, outcome, _ = bench("--workload", name, "--seed", "3", "--trace", "0",
                                 "--tiny", "--inject-fault")
        expect(code == 1 and outcome and not outcome["correct"]
               and outcome["failed"] >= 1, f"{name} gate catches an injected wrong answer")

    bare = os.path.join(os.getcwd(), ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, outcome, _ = bench("--workload", "census", "--seed", "1", "--trace", "0",
                                 cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and outcome is None, "without src/ the benchmark fails and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
