"""Operation server: imports schroder once, then forks one child per operation.

Usage: ``python3 perfbench/server.py JOB.json RESULTS.jsonl``

Every command a user runs starts a new interpreter, so the program's
process-level caches (the fingerprint cache, the memoised tree shapes) are
cold in each of them.  A child forked from this server, which has done
nothing but import the package, starts in that same state without paying
for interpreter start again; the interpreter start is what ``setup_s``
measures.  The server writes one JSON line per operation and per set-up
probe to RESULTS.jsonl.

Each child times only the call into the program.  Outside that interval it
summarises the program's answer with the benchmark's own code, and run.py
checks the summary against exact references.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback

import schroder
import schroder.cli

import calib
import reference
from tracer import Tracer


def _cli(argv, out_path, stdin_text=None):
    """Run one CLI command in-process with its stdout going to a file.

    Returns the exit code and the file; read_output() reads it back once
    the timed interval is over.
    """
    with open(out_path, "w", encoding="utf-8") as out:
        stdin = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out):
                rc = schroder.cli.main(argv)
        finally:
            sys.stdin = stdin
    return rc, out_path


def read_output(answer):
    rc, path = answer
    with open(path, encoding="utf-8") as fh:
        return rc, fh.read()


def _tree_json(tree):
    return [_tree_json(c) for c in tree] if tree else 0


# Each operation kind has run(op, workdir) -> answer, which is timed, and
# summarise(op, answer) -> dict, which is not.  A summary holds "units" (the
# work items the operation completed) and "digest" (a hash of the answer).

def run_enumerate(op, workdir):
    return _cli(["enumerate", "--n", str(op["n"])], os.path.join(workdir, "op.out"))


def summarise_enumerate(op, answer):
    rc, text = read_output(answer)
    lines = text.splitlines()
    trailer = json.loads(lines[-1]) if lines else {}
    per_k: dict[int, int] = {}
    seen = set()
    bad = 0
    for line in lines[:-1]:
        rec = json.loads(line)
        diags = tuple(tuple(e) for e in rec["diagonals"])
        seen.add(diags)
        per_k[len(diags) + 1] = per_k.get(len(diags) + 1, 0) + 1
        if rec["n"] != op["n"] or rec["tree"] != _tree_json(
            reference.plane_tree(op["n"], diags)
        ):
            bad += 1
    return {
        "rc": rc,
        "count": trailer.get("count"),
        "records": len(lines) - 1,
        "distinct": len(seen),
        "per_k": per_k,
        "bad_records": bad,
        "units": len(lines) - 1,
        "digest": hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest(),
    }


def run_count_classes(op, workdir):
    return schroder.classify.count_classes(op["n"])


def summarise_count_classes(op, answer):
    return {
        "total": answer,
        "units": sum(reference.kirkman_cayley(op["n"], k) for k in range(1, op["n"] + 1)),
        "digest": hashlib.sha256(str(answer).encode()).hexdigest(),
    }


def run_classify(op, workdir):
    return _cli(
        ["classify", "--n", str(op["n"]), "--format", "json"],
        os.path.join(workdir, "op.out"),
    )


def summarise_classify(op, answer):
    rc, text = read_output(answer)
    doc = json.loads(text)
    tables = {}
    for t in doc["tables"]:
        codes = {reference.class_code(op["n"], [tuple(e) for e in r])
                 for r in t["representatives"]}
        tables[t["k"]] = {"count": t["count"], "reps": len(t["representatives"]),
                          "distinct_classes": len(codes)}
    return {
        "rc": rc,
        "tables": tables,
        "reports": [
            {key: r[key] for key in ("k", "ok", "class_count", "expected_count",
                                     "dissection_count", "failures")}
            for r in doc["reports"]
        ],
        "units": sum(reference.kirkman_cayley(op["n"], k) for k in tables),
        "digest": hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest(),
    }


def run_certify(op, workdir):
    doc = json.dumps({"n": op["n"], "diagonals": op["diagonals"]})
    fano = _cli(["fano"], os.path.join(workdir, "fano.out"), doc)
    ring = _cli(["cohomology"], os.path.join(workdir, "cohomology.out"), doc)
    d = schroder.Dissection(op["n"], tuple(tuple(e) for e in op["diagonals"]))
    direct = schroder.fan.build_fan_direct(d)
    subdivided = schroder.fan.build_fan_subdivision(d)
    tree = schroder.combinatorics.dissection_to_tree(d)
    tree_ring = schroder.cohomology.schroeder_presentation(tree)
    dj_ring = schroder.cohomology.eliminate(
        schroder.cohomology.dj_presentation(direct), tree
    )
    return {
        "fano": fano,
        "cohomology": ring,
        "cones": len(direct.max_cones),
        "same_fan": direct == subdivided,
        "smooth": schroder.fan.is_smooth(direct),
        "same_ring": tree_ring == dj_ring,
        "dj_ring": dj_ring,
    }


def summarise_certify(op, answer):
    fano = read_output(answer["fano"])
    ring = read_output(answer["cohomology"])
    fano_doc, ring_doc = json.loads(fano[1]), json.loads(ring[1])
    answer["cli_ring_is_dj"] = ring_doc == answer["dj_ring"].to_json()
    summary = {
        "rc": [fano[0], ring[0]],
        "fano": fano_doc["fano"],
        "degrees": sorted(r["degree"] for r in fano_doc["relations"]),
        "staircase": sorted(ring_doc["staircase"]),
        **{key: answer[key] for key in
           ("cones", "same_fan", "smooth", "same_ring", "cli_ring_is_dj")},
        "units": 1,
    }
    summary["digest"] = hashlib.sha256(
        json.dumps([fano, ring, summary]).encode()
    ).hexdigest()
    return summary


def run_iso(op, workdir):
    paths = [os.path.join(workdir, f"{name}.json") for name in ("first", "second")]
    return _cli(
        ["iso", *paths, "--bound", str(op["bound"])], os.path.join(workdir, "op.out")
    )


def prepare_iso(op, workdir):
    for name in ("first", "second"):
        with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"n": op["n"], "diagonals": op[name]}, fh)


def summarise_iso(op, answer):
    rc, text = read_output(answer)
    doc = json.loads(text)
    return {
        "rc": rc,
        "status": doc["status"],
        "witness": doc["witness"],
        "units": 1,
        "digest": hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest(),
    }


KINDS = {
    "enumerate": (None, run_enumerate, summarise_enumerate),
    "count_classes": (None, run_count_classes, summarise_count_classes),
    "classify": (None, run_classify, summarise_classify),
    "certify": (None, run_certify, summarise_certify),
    "iso": (prepare_iso, run_iso, summarise_iso),
}


def _corrupt(op, summary):
    """Self-test hook: change the answer the way a wrong program would."""
    kind = op["kind"]
    if kind == "enumerate":
        summary["per_k"][1] = summary["per_k"].get(1, 0) + 1
    elif kind == "count_classes":
        summary["total"] += 1
    elif kind == "classify":
        next(iter(summary["tables"].values()))["count"] += 1
    elif kind == "certify":
        summary["cones"] += 1
    elif kind == "iso":
        summary["status"] = "NO" if summary["status"] == "YES" else "YES"


def run_op(op, workdir, trace, corrupt):
    """Body of the forked child: time the operation, then summarise it."""
    prepare, run, summarise = KINDS[op["kind"]]
    if prepare is not None:
        prepare(op, workdir)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    # Traced runs report per-layer times as measured, so only untraced
    # operations are calibrated.
    calibration = [] if trace else [calib.calibrate()]
    error = None
    start = time.perf_counter()
    try:
        answer = run(op, workdir)
    except Exception:
        error = traceback.format_exc(limit=4)
    latency = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not trace:
        # Long operations get more samples after them, up to eight in all.
        for _ in range(1 + min(6, int(latency / 0.1))):
            calibration.append(calib.calibrate())
    result = {
        "latency_s": latency,
        "calibration_s": calibration,
        "maxrss_kb": maxrss_kb,
        "error": error,
    }
    if error is None:
        try:
            result["summary"] = summarise(op, answer)
            if corrupt:
                _corrupt(op, result["summary"])
        except Exception:
            result["error"] = traceback.format_exc(limit=4)
    if tracer is not None:
        report = tracer.report()
        report["fingerprint_distinct"] = len(
            {reference.class_code(n, diags) for n, diags in tracer.fingerprint_args}
        )
        result["trace"] = report
    return result


def _forked(op, workdir, trace, corrupt):
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = json.dumps(run_op(op, workdir, trace, corrupt)).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(write_fd, view):]
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        for chunk in iter(lambda: pipe.read(1 << 16), b""):
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if status or not chunks:
        return {"latency_s": math.nan, "maxrss_kb": 0,
                "error": f"operation process ended with wait status {status}"}
    return json.loads(b"".join(chunks))


# Once schroder is imported the probe times the calibration, from calib.py
# in the directory passed as its argument, so that set-up too can be
# reported at the reference speed.
PROBE = ("import time, schroder, sys; stamp = time.monotonic(); "
         "sys.path.insert(0, sys.argv[1]); import calib; calib.calibrate(); "
         "c = sorted(calib.calibrate() for _ in range(3)); "
         "sys.stdout.write(repr(stamp) + ' ' + repr(c[1]) + ' ' + schroder.__file__)")


def probe(source) -> dict:
    """Time from spawning an interpreter to ``import schroder`` done."""
    here = os.path.dirname(os.path.abspath(__file__))
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE, here], capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        return {"probe": None, "error": proc.stderr.strip()[-2000:]}
    stamp, calibration, path = proc.stdout.split(" ", 2)
    if not os.path.abspath(path).startswith(source + os.sep):
        return {"probe": None, "error": f"schroder was imported from {path}"}
    return {"probe": float(stamp) - spawned, "calibration_s": float(calibration),
            "error": None}


def main() -> int:
    job_path, results_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if not os.path.abspath(schroder.__file__).startswith(job["source"] + os.sep):
        print(f"schroder was imported from {schroder.__file__}, not {job['source']}",
              file=sys.stderr)
        return 2
    ops, workdir = job["ops"], job["workdir"]
    calib.calibrate()  # first-use costs are paid here, not in every child
    with open(results_path, "w", encoding="utf-8") as out:
        out.write(json.dumps(
            {"server_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}
        ) + "\n")
        spec = job["run"]
        start = time.monotonic()
        done = probes = 0
        while True:
            now = time.monotonic()
            passes, part = divmod(done, len(ops))
            if "count" in spec:
                if done >= spec["count"]:
                    break
            elif spec["whole_passes"]:
                # Stop between passes, before one that would overrun.
                if passes and not part and (
                    (now - start) * (passes + 1) / passes > spec["budget_s"]
                ):
                    break
            elif now - start >= spec["budget_s"]:
                break
            # Set-up probes are spread over the run, like the operations.
            if probes < spec["probes"] and (
                now - start >= probes * spec["budget_s"] / spec["probes"]
            ):
                out.write(json.dumps(probe(job["source"])) + "\n")
                probes += 1
                continue
            # A traced run times each operation untraced, then traced, so
            # both see the same machine.
            for traced in (False, True) if spec["trace"] else (False,):
                result = _forked(ops[part], workdir, traced, job["corrupt"] and not done)
                result.update(index=part, traced=traced)
                out.write(json.dumps(result) + "\n")
            out.flush()
            done += 1
        for _ in range(probes, spec["probes"]):
            out.write(json.dumps(probe(job["source"])) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
