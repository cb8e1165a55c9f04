"""The four workloads: their inputs, drawn from the seed, and their checks.

An operation ("op") is one unit the server runs in a fresh process, and its
``units`` are what throughput counts.  ``census`` and ``classify`` are
exhaustive, so their ops do not depend on the seed.  ``certify`` draws a
long stream from it in round-robin order over strata, so that whatever
prefix a run gets through holds every stratum equally; ``iso`` draws one
pass of stratified pairs from it around a fixed panel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import reference


@dataclass(frozen=True)
class Workload:
    ops: Callable       # (seed, tiny) -> the operations, in running order
    whole_passes: bool  # timed runs end between passes; traced runs do one
    tail_pct: float     # percentile reported as op_tail_ms
    pass_latency: bool = False  # one latency sample per pass, not per op
    tail_beyond: int = 10  # samples a run needs above tail_pct to report it


def census_ops(seed, tiny):
    n = 4 if tiny else 8
    return [{"kind": "enumerate", "n": n}, {"kind": "count_classes", "n": n}]


def classify_ops(seed, tiny):
    return [{"kind": "classify", "n": 4 if tiny else 6}]


def certify_ops(seed, tiny):
    """Every (n, diagonal count) stratum in turn; cones range from n+1 to 2^n."""
    rng = random.Random(f"certify:{seed}")
    strata = [(n, d) for n in ((3, 4, 5) if tiny else (7, 8, 9, 10)) for d in range(n)]
    return [
        {"kind": "certify", "n": n, "diagonals": reference.random_dissection(rng, n, d)}
        for _ in range(2 if tiny else 60)
        for n, d in strata
    ]


def _cell_sizes(n, diags):
    return sorted(len(m) for m in reference.cells(n, diags).values())


def _partner(rng, n, first, relation):
    """A second dissection in the given relation to ``first``, or None.

    "same": a random plane embedding of the first one's tree.  "sizes": a
    different class with the same cell sizes, so only the fingerprints
    separate the rings.  "other": a different class with other cell sizes,
    which the staircase invariant separates at once.
    """
    if relation == "same":
        return reference.tree_diagonals(
            reference.shuffled(rng, reference.plane_tree(n, first)))
    code, sizes = reference.class_code(n, first), _cell_sizes(n, first)
    for _ in range(200):
        second = reference.random_dissection(rng, n, len(first))
        if reference.class_code(n, second) != code and (
            (_cell_sizes(n, second) == sizes) == (relation == "sizes")
        ):
            return second
    return None


def _iso_pairs(rng, strata, rounds):
    """Pairs in round-robin order over the (n, cells, relation) strata.

    Cross-class pairs come in two strata of their own, one per path to NO,
    so that the share of each path does not depend on the seed.
    """
    pairs = []
    for _ in range(rounds):
        for n, k, relation in strata:
            second = None
            while second is None:
                first = reference.random_dissection(rng, n, k - 1)
                second = _partner(rng, n, first, relation)
            pairs.append({"kind": "iso", "n": n, "first": first, "second": second,
                          "bound": 2, "same_class": relation == "same"})
    return pairs


def iso_ops(seed, tiny):
    """Seeded pairs, plus a fixed panel of four-cell same-class pairs.

    The witness search for four cells is heavy-tailed (at n = 6 the cost of
    a random pair has a coefficient of variation of 1.7, from 14 ms to
    1.6 s), so a fresh draw of a few dozen per run would move throughput by
    about 20% from one seed to the next.  The panel is drawn once, from a
    fixed seed, and every pass runs all of it, heavy pairs included; the
    seed draws the three-cell and cross-class pairs around it.
    """
    if tiny:
        light = _iso_pairs(random.Random(f"iso:{seed}"),
                           [(4, 3, "same"), (5, 3, "same"), (4, 2, "other"),
                            (5, 3, "sizes")], 3)
        panel = _iso_pairs(random.Random("iso-panel"), [(4, 4, "same")], 2)
    else:
        light = _iso_pairs(random.Random(f"iso:{seed}"),
                           [(6, 3, "same"), (7, 3, "same")] * 2
                           + [(n, k, relation) for n in (6, 7) for k in (2, 3)
                              for relation in ("sizes", "other")], 15)
        panel = _iso_pairs(random.Random("iso-panel"), [(6, 4, "same"), (7, 4, "same")], 18)
    stride = len(light) // len(panel)
    ops = []
    for i, pair in enumerate(panel):
        ops.append(pair)
        ops.extend(light[i * stride:(i + 1) * stride])
    ops.extend(light[len(panel) * stride:])
    return ops


WORKLOADS = {
    # A census is both commands, each in its own process; timing them
    # apart would mix two latencies in one median.
    "census": Workload(census_ops, True, 100.0, pass_latency=True),
    "certify": Workload(certify_ops, False, 98.0),
    # Some fifteen commands a run: the maximum of so few jumped by 15%
    # between runs, their upper quartile by half as much.
    "classify": Workload(classify_ops, True, 75.0, tail_beyond=2),
    "iso": Workload(iso_ops, True, 90.0),
}
# Operations a traced run takes from a stream that has no passes.
TRACED_OPS, TINY_TRACED_OPS = 170, 12


# --- checks -----------------------------------------------------------------
# Each check returns a list of problems with one op's summary; empty is correct.

def check_enumerate(op, s, schroder):
    n = op["n"]
    expected = {k: reference.kirkman_cayley(n, k) for k in range(1, n + 1)}
    total = sum(expected.values())
    problems = []
    if s["rc"] != 0:
        problems.append(f"exit code {s['rc']}")
    if {int(k): v for k, v in s["per_k"].items()} != expected:
        problems.append(f"records per cell count {s['per_k']}, expected {expected}")
    if not s["count"] == s["records"] == s["distinct"] == total:
        problems.append(f"count {s['count']}, {s['records']} records, "
                        f"{s['distinct']} distinct, expected {total}")
    if s["bad_records"]:
        problems.append(f"{s['bad_records']} records whose tree is not their dissection's")
    return problems


def check_count_classes(op, s, schroder):
    leaves = op["n"] + 1
    expected = sum(v for (l, _), v in reference.class_counts(leaves).items() if l == leaves)
    return [] if s["total"] == expected else [f"{s['total']} classes, expected {expected}"]


def check_classify(op, s, schroder):
    n = op["n"]
    counts = reference.class_counts(n + 1)
    problems = [] if s["rc"] == 0 else [f"exit code {s['rc']}"]
    if sorted(int(k) for k in s["tables"]) != list(range(1, n + 1)):
        problems.append(f"tables for k = {sorted(s['tables'])}")
    for k, t in s["tables"].items():
        want = counts.get((n + 1, int(k)), 0)
        if not t["count"] == t["reps"] == t["distinct_classes"] == want:
            problems.append(f"k={k}: {t}, expected {want} classes")
    for r in s["reports"]:
        k = r["k"]
        if not (r["ok"] and r["class_count"] == r["expected_count"]
                == counts.get((n + 1, k), 0)
                and r["dissection_count"] == reference.kirkman_cayley(n, k)):
            problems.append(f"report for k={k}: {r}")
    if sorted(r["k"] for r in s["reports"]) != [k for k in range(1, n + 1) if k <= 3 or k == n]:
        problems.append("verification reports are missing")
    return problems


def check_certify(op, s, schroder):
    n, diags = op["n"], op["diagonals"]
    members = reference.cells(n, diags)
    sizes = [len(m) for m in members.values()]
    degrees = sorted(len(m) - (h != (0, n + 1)) for h, m in members.items())
    problems = []
    if s["rc"] != [0, 0]:
        problems.append(f"exit codes {s['rc']}")
    if s["cones"] != math.prod(sizes):
        problems.append(f"{s['cones']} cones, expected {math.prod(sizes)}")
    if not (s["same_fan"] and s["smooth"] and s["fano"]):
        problems.append("fans differ, or a fan is not smooth or not Fano")
    if s["degrees"] != degrees:
        problems.append(f"Fano degrees {s['degrees']}, expected {degrees}")
    if s["staircase"] != sorted(sizes):
        problems.append(f"staircase {s['staircase']}, expected {sorted(sizes)}")
    if not (s["same_ring"] and s["cli_ring_is_dj"]):
        problems.append("tree ring and DJ ring differ")
    return problems


def check_iso(op, s, schroder):
    if not op["same_class"]:
        return [] if (s["status"], s["rc"]) == ("NO", 1) else [
            f"cross-class pair gave {s['status']} (exit {s['rc']})"]
    if (s["status"], s["rc"]) != ("YES", 0):
        return [f"same-class pair gave {s['status']} (exit {s['rc']})"]
    return witness_problems(op, s["witness"], schroder)


def witness_problems(op, rows, schroder):
    """A YES witness must be unimodular and send every relation of the first
    ring to zero in the second.  With equal Hilbert series that makes the
    substitution an isomorphism."""
    if abs(reference.determinant(rows)) != 1:
        return [f"witness {rows} is not unimodular"]
    rings = [
        schroder.schroeder_presentation(schroder.dissection_to_tree(
            schroder.Dissection(op["n"], tuple(tuple(e) for e in op[side]))))
        for side in ("first", "second")
    ]
    k = rings[1].k
    images = [schroder.IntPolynomial.linear(row) for row in rows]
    for relation in rings[0].relations:
        mapped = schroder.IntPolynomial.zero(k)
        for exps, coef in relation.terms.items():
            term = schroder.IntPolynomial.constant(k, coef)
            for image, e in zip(images, exps):
                term = term * image ** e
            mapped = mapped + term
        if schroder.normal_form(mapped, rings[1]):
            return [f"witness {rows} does not send every relation to zero"]
    return []


CHECKS = {
    "enumerate": check_enumerate,
    "count_classes": check_count_classes,
    "classify": check_classify,
    "certify": check_certify,
    "iso": check_iso,
}
