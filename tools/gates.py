"""Checks beyond tier-1 (`PYTHONPATH=src python tools/gates.py`, from the
repository root): output digests, refusals and timings of schroder.

Each row of `gates` is one gate.  It prints Markdown summary lines to stdout
and fails by raising; failures go to stderr, the other gates still run, and
the exit code is 1 if any failed.  In-process gates share one interpreter,
so their caches may be warm.
"""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import schroder.cli as cli
from schroder.classify import fingerprint, verify_prop_further
from schroder.cohomology import dj_presentation, eliminate, schroeder_presentation
from schroder.combinatorics import Dissection, canonical_code, class_trees, dissection_to_tree
from schroder.combinatorics import enumerate_dissections, tree_to_dissection
from schroder.fan import build_fan_direct, build_fan_subdivision, is_fano, is_smooth

# `schroder ARGV --out FILE`: the sha256 of FILE.
COLD_DIGESTS = {
    "enumerate --n 9": "d9258d6749ef3a4ef7467d50839d859b6bf060a395648b536af1a6978ab2d09b",
    "enumerate --n 9 --k 5": "bff3e145669c636f98c285b415a8147c57b92ee61b0ba1e14a9a4c5fbda1d87d",
    "enumerate --n 10": "15083b578525caeba7c3ec82df9ac081c6b1793bc4e130ae88491db72301366f",
    "classify --n 5 --bound 2 --format json": "f41937910394214137cb7088e7b12df632b2be1768484b48706d245f57bb74b6",
    "classify --n 6 --format json": "02978efa844073ac9cd55a210c32cdf29a6e3ce46f1b5b3a0fe447d55115626d",
    "classify --n 6 --format json --bound 2": "0c040b1e4fc3769cfcd6ce1d891f91c5aa7a11346e431653c3900bb51bc3fbc7",
    "classify --n 7 --format json": "fb62964e97c886dd4dea0a3e88e6f0f4f0158aa8e8ecf923439b0953489359e0",
    "classify --n 8 --format json": "46b9e3a66c8cccaa82507f32856d59a3b7f6370f53ba50f324149f6c03c8b196",
    "classify --n 10 --k 3 --bound 1 --format json":
        "12e804526f211040a9f173bb69bee9e7458d3b5f5d211f644675265b9c25d1a6",
}
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# A bare interpreter spawns and reaps (`os.wait4`) each cold run: at exec, Linux starts a
# child's peak RSS at that of the address space it leaves, and ours holds numpy and schroder.
SPAWN = """import os, sys, time
start = time.perf_counter()
pid = os.spawnv(os.P_NOWAIT, sys.executable, [sys.executable, *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    print(time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status), file=fh)
"""


def check(ok, message):
    if not ok:
        raise AssertionError(message)


def cold(*args):
    """Run `python *args` in a fresh interpreter: wall s, its own peak RSS
    in MB, exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err, result = (Path(tmp, name) for name in ("out", "err", "result"))
        with out.open("wb") as o, err.open("wb") as e:
            subprocess.run([sys.executable, "-c", SPAWN, result, *args], stdout=o, stderr=e, check=True)
        wall, rss, code = result.read_text().split()
        return float(wall), float(rss), int(code), out.read_bytes(), err.read_bytes()


def clock(call, runs=1):
    """Median wall time in s of `runs` calls of `call`, and the last result."""
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        result = call()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls), result


def cli_digest(command, n, unit, calls, want):
    """sha256 over "exit code, newline, stdout" of in-process `cli.main`
    runs, one per (argv, stdin text) in `calls`."""
    digest = hashlib.sha256()
    def run_all():
        for count, (argv, stdin) in enumerate(calls, 1):
            sys.stdin, out = io.StringIO(stdin), io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            finally:
                sys.stdin = sys.__stdin__
            digest.update(f"{code}\n{out.getvalue()}".encode())
        return count
    wall, count = clock(run_all)
    print(f"`schroder {command}` on all {count} {unit} with n <= {n}: {wall:.2f} s wall, in-process")
    got = digest.hexdigest()
    check(got == want, f"{command} output for n <= {n} has sha256 {got}, expected {want}")


def cold_digest(label, want, tmp):
    path = Path(tmp, "out")
    wall, rss, code, _, _ = cold("-m", "schroder", *label.split(), "--out", path)
    check(code == 0, f"schroder {label} exited with {code}")
    with open(path, "rb") as fh:
        got = hashlib.file_digest(fh, "sha256").hexdigest()
    print(f"`schroder {label}`: {wall:.2f} s wall, peak RSS {rss:.1f} MB")
    check(got == want, f"{label} output has sha256 {got}, expected {want}")


def fan_profile(want):
    wall, rss, exit_code, _, err = cold("-c", "from schroder import Dissection, fingerprint; "
                                        "f = fingerprint(Dissection(8, tuple((0, j) for j in range(2, 9)))); "
                                        f"assert f.profile == {want}, f.profile")
    check(exit_code == 0, f"k = n = 8 fan profile: exit {exit_code}: {err.decode()[-500:]}")
    print(f"`fingerprint` of the k = n = 8 fan triangulation: {wall:.2f} s wall, peak RSS {rss:.1f} MB")


def fingerprint_digest(want):
    # Tier-1's fingerprint digest and its pairing and table oracles stop at
    # n = 6: every value at n = 7, in the rows of test_golden_fingerprints.
    wall, rows = clock(lambda: [
        [7, k, canonical_code(tree).hex(), repr(fingerprint(tree_to_dissection(tree)))]
        for k in range(1, 8)
        for tree in sorted(class_trees(7, k), key=canonical_code)
    ])
    got = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    print(f"fingerprints of all {len(rows)} classes with n = 7: {wall:.2f} s wall, in-process")
    check(len(rows) == 261 and got == want,
          f"n = 7 fingerprints: {len(rows)} rows with sha256 {got}, expected 261 rows with {want}")


def power_dichotomy():
    wall, report = clock(lambda: verify_prop_further(3, 5))
    print(f"`verify_prop_further(3, 5)`: {wall:.2f} s wall, {report.class_count} classes, ok={report.ok}")
    check(report.ok, f"verify_prop_further(3, 5) is not ok: {report}")


def pentagon(argv):
    walls = []
    for _ in range(20):
        wall, _, code, _, err = cold("-m", "schroder", *argv)
        check(code == 0, f"schroder {argv[0]} on the README pentagon exited {code}: {err.decode()}")
        walls.append(wall)
    print(f"`schroder {argv[0]}` on the README pentagon: "
          f"{statistics.median(walls) * 1000:.0f} ms wall, median of 20 fresh runs")


def certify_chain():
    d = Dissection(10, tuple((0, j) for j in range(2, 11)))

    def chain():
        direct, tree = build_fan_direct(d), dissection_to_tree(d)
        check(is_fano(d) and direct == build_fan_subdivision(d) and is_smooth(direct)
              and eliminate(dj_presentation(direct), tree) == schroeder_presentation(tree),
              "the n = 10 fan triangulation fails the certify chain")
        return direct

    wall, direct = clock(chain, 20)
    print(f"certify chain on the n = 10 fan triangulation ({len(direct.max_cones)} cones): "
          f"{wall * 1000:.2f} ms, in-process median of 20 runs")


def timed_call(label, call, make_arg):
    arg = make_arg()
    wall, _ = clock(lambda: call(arg))
    print(f"{label}: {wall * 1000:.1f} ms wall, in-process")


def refusal(label, argv, want):
    wall, _, code, out, _ = cold("-m", "schroder", *argv)
    print(f"{label}: exit {code}, {wall:.2f} s wall, cold")
    check(code == want, f"{label} exited {code}, expected {want}")
    check(want != 2 or not out, f"{label} wrote to stdout before refusing: {out[:200]!r}")


def import_time():
    _, _, code, _, err = cold("-X", "importtime", "-c", "import schroder.cli")
    check(code == 0, f"import schroder.cli exited {code}")
    keep = ("imported package", "schroder", "schroder.classify", "numpy")
    lines = [l for l in err.decode().splitlines() if l.split("|")[-1].strip() in keep]
    print("`python -X importtime -c 'import schroder.cli'`:\n```\n" + "\n".join(lines) + "\n```")


def traced_names():
    """Every name perfbench's tracer patches resolves (`run_path` writes no bytecode)."""
    missing = [
        f"{layer}: {module}.{name}"
        for layer, (module, names) in runpy.run_path(TRACER)["LAYERS"].items()
        for name in names
        if functools.reduce(lambda obj, attr: getattr(obj, attr, None), name.split("."),
                            importlib.import_module(module)) is None
    ]
    check(not missing, "traced names that no longer resolve: " + ", ".join(missing))
    print("all traced names resolve")


def write(tmp, name, text):
    path = Path(tmp, name)
    path.write_text(text, encoding="utf-8")
    return str(path)


def dissections(top):
    """JSON text of every dissection with n <= top."""
    return (json.dumps(d.to_json()) for n in range(1, top + 1) for d in enumerate_dissections(n))


def iso_pairs(tmp):
    paths = [write(tmp, f"iso{i}.json", doc) for i, doc in enumerate(dissections(4))]
    yield from ((["iso", a, b], "") for a in paths for b in paths)


def gates(tmp):
    """Every gate as (function, arguments...), in the order they run."""
    pentagons = [write(tmp, "a.json", '{"n":3,"diagonals":[[1,4]]}'),
                 write(tmp, "b.json", '{"n":3,"diagonals":[[0,3]]}')]
    cell = write(tmp, "cell.json", '{"n": 255, "diagonals": []}')
    # Mirror combs: the right one's ring presentation is cubic in n.
    combs = [write(tmp, "left.json", json.dumps({"n": 2000, "diagonals": [[0, j] for j in range(2, 2001)]})),
             write(tmp, "right.json", json.dumps({"n": 2000, "diagonals": [[j, 2001] for j in range(1, 2000)]}))]
    return [
        *((cold_digest, label, want, tmp) for label, want in COLD_DIGESTS.items()),
        (fan_profile, ((2, 2), (3, 6), (4, 46), (5, 218), (6, 1201), (7, 5975), (8, 30667), (9, 153917))),
        (fingerprint_digest, "f6468c746e1e08857b8131c95321d75583e2835931aaf2b45cf6c107333802fe"),
        (power_dichotomy,),
        (pentagon, ["fano", pentagons[0]]),
        (pentagon, ["iso", *pentagons, "--bound", "2"]),
        (certify_chain,),
        (cli_digest, "fano", 7, "dissections", ((["fano"], doc) for doc in dissections(7)),
         "f8e16e069f6b0f74aab23ab1480d684351449503b9ce07f4bc0eca7abc8dcd45"),
        (cli_digest, "cohomology", 7, "dissections", ((["cohomology"], doc) for doc in dissections(7)),
         "1f12e377441d79da6d1517ded8a229c88f89625b2daf43e9917451fe087431a8"),
        (timed_call, "`is_fano(Dissection(10000, ()))`", is_fano, lambda: Dissection(10000, ())),
        (timed_call, "`schroeder_presentation` on the n = 1500 fan triangulation", schroeder_presentation,
         lambda: dissection_to_tree(Dissection(1500, tuple((0, j) for j in range(2, 1501))))),
        (cli_digest, "iso", 4, "ordered pairs", iso_pairs(tmp),
         "7191f0a1e2344ec56992b0a6cb93f55e495134a147238350549049b5c6cd65eb"),
        (refusal, "`schroder classify --n 11`", ["classify", "--n", "11"], 2),
        (refusal, "`schroder classify --n 40`", ["classify", "--n", "40"], 2),
        (refusal, "`schroder iso` on the n = 255 one-cell pair", ["iso", cell, cell, "--bound", "1"], 3),
        (refusal, "`schroder iso` on the n = 2000 comb pair", ["iso", *combs], 3),
        (import_time,),
        (traced_names,),
    ]


if __name__ == "__main__":
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for gate, *args in gates(tmp):
            try:
                gate(*args)
            except Exception as exc:
                failed += 1
                print(f"{gate.__name__} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    sys.exit(1 if failed else 0)
