"""Acceptance gate: one test per shipped guarantee, exact values throughout.

Each test prints a single line `criterion N (<name>): PASS|FAIL in <s>`
(visible with `pytest -s` or in the verbose test listing) and enforces the
stated runtime budget.  All comparisons are exact; there are no tolerances
anywhere in the package.  One more test, which prints nothing, checks the
rings criterion 7 builds against their closed forms.
"""

import math
import time
from itertools import product

from schroder.classify import (
    ThreeCellTree,
    _primitive_array,
    verify_prop_further,
    verify_theorem1,
)
from schroder.cli import main
from schroder.cohomology import dj_presentation, eliminate, schroeder_presentation
from schroder.combinatorics import (
    Dissection,
    canonical_code,
    dissection_to_tree,
    enumerate_dissections,
    kirkman_cayley,
    riordan_table,
)
from schroder.fan import build_fan_direct, build_fan_subdivision, is_fano, is_smooth
from schroder.polyring import IntPolynomial, power_is_zero

# Class counts s(n, k) for k = 1..n-1, one row per n = 1..10, with totals.
CLASS_TABLE = {
    1: ((), 1),
    2: ((1,), 1),
    3: ((1, 1), 2),
    4: ((1, 2, 2), 5),
    5: ((1, 3, 5, 3), 12),
    6: ((1, 4, 10, 12, 6), 33),
    7: ((1, 5, 16, 29, 28, 11), 90),
    8: ((1, 6, 24, 57, 84, 66, 23), 261),
    9: ((1, 7, 33, 99, 192, 231, 157, 46), 766),
    10: ((1, 8, 44, 157, 382, 615, 634, 373, 98), 2312),
}


def finish(num, name, start, budget, failures):
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"criterion {num} ({name}): {status} in {elapsed:.1f}s")
    assert not failures, failures[:10]
    assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.1f}s"


def test_criterion_1_class_count_table(capsys):
    start = time.perf_counter()
    failures = []
    assert main(["table", "--n", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    if len(lines) != 10:
        failures.append(f"expected 10 rows, got {len(lines)}")
    for line in lines:
        n, row, total = line.split("\t")
        parsed = tuple(int(c) for c in row.split(",")) if row else ()
        if (parsed, int(total)) != CLASS_TABLE[int(n)]:
            failures.append(f"row {n} is {parsed} / {total}")
    with capsys.disabled():
        finish(1, "class count table", start, 1.0, failures)


def test_criterion_2_enumeration_matches_closed_form():
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        per_k = {k: 0 for k in range(1, n + 1)}
        for d in enumerate_dissections(n):
            per_k[d.k] += 1
        for k, count in per_k.items():
            if count != kirkman_cayley(n, k):
                failures.append(f"count at n={n}, k={k}: {count}")
    finish(2, "enumeration vs closed form", start, 30.0, failures)


def test_criterion_3_canonical_codes_count_classes():
    start = time.perf_counter()
    failures = []
    table = riordan_table(10)
    for n in range(1, 10):
        codes = {}
        for d in enumerate_dissections(n):
            codes.setdefault(d.k, set()).add(canonical_code(dissection_to_tree(d)))
        for k, seen in codes.items():
            if len(seen) != table.s(n + 1, k):
                failures.append(f"classes at n={n}, k={k}: {len(seen)}")
        if sum(len(s) for s in codes.values()) != table.total(n + 1):
            failures.append(f"class total at n={n}")
    finish(3, "canonical code counts", start, 120.0, failures)


def test_criterion_4_fan_certification():
    start = time.perf_counter()
    failures = []
    for n in range(1, 8):
        for d in enumerate_dissections(n):
            fan = build_fan_direct(d)
            if fan != build_fan_subdivision(d):
                failures.append(f"routes disagree on {d}")
                continue
            arities = [
                dissection_to_tree(d).arity(p)
                for p in dissection_to_tree(d).internal_preorder()
            ]
            if len(fan.max_cones) != math.prod(arities):
                failures.append(f"cone count on {d}")
            if not is_smooth(fan):
                failures.append(f"non-unimodular cone on {d}")
            certificate = is_fano(d)
            if not certificate or any(r.degree < 1 for r in certificate.relations):
                failures.append(f"not Fano: {d}")
    finish(4, "fan certification", start, 300.0, failures)


def test_criterion_5_cohomology_cross_validation():
    start = time.perf_counter()
    failures = []
    for n in range(1, 8):
        for d in enumerate_dissections(n):
            tree = dissection_to_tree(d)
            via_tree = schroeder_presentation(tree)
            via_fan = eliminate(dj_presentation(build_fan_direct(d)), tree)
            if (
                via_fan.gens != via_tree.gens
                or via_fan.staircase != via_tree.staircase
                or via_fan.relations != via_tree.relations
            ):
                failures.append(f"routes disagree on {d}")

    sp = schroeder_presentation(
        dissection_to_tree(Dissection(8, ((0, 3), (0, 7), (3, 7))))
    )
    written = {r.as_text(sp.gens) for r in sp.relations}
    if written != {
        "x2_3^3",
        "x3_7^2 -x3_7*x2_3 +x3_7*x6_7",
        "x6_7^4",
        "x8_9^3 -x8_9^2*x3_7 -x8_9^2*x6_7",
    }:
        failures.append(f"running example ring is {sorted(written)}")

    # One representative per pentagon class; renumbering generator i of the
    # preorder presentation to position perm[i] reproduces the published
    # list of five rings exactly.
    x1, x2, x3 = (IntPolynomial.variable(3, i) for i in range(3))
    u1, u2 = (IntPolynomial.variable(2, i) for i in range(2))
    w = IntPolynomial.variable(1, 0)
    pentagon_cases = [
        (Dissection(3, ()), (0,), (w**4,)),
        (Dissection(3, ((2, 4),)), (1, 0), (u1**2, u2 * (u1 + u2) ** 2)),
        (Dissection(3, ((1, 4),)), (1, 0), (u1**3, u2 * (u1 + u2))),
        (
            Dissection(3, ((1, 4), (2, 4))),
            (2, 1, 0),
            (x1**2, x2 * (x1 + x2), x3 * (x1 + x2 + x3)),
        ),
        (
            Dissection(3, ((0, 2), (2, 4))),
            (2, 0, 1),
            (x1**2, x2**2, x3 * (-x1 + x2 + x3)),
        ),
    ]
    for d, perm, expected in pentagon_cases:
        sp = schroeder_presentation(dissection_to_tree(d))
        for i, rel in enumerate(sp.relations):
            moved = {}
            for exp, coef in rel.terms.items():
                new = [0] * sp.k
                for j, e in enumerate(exp):
                    new[perm[j]] = e
                moved[tuple(new)] = coef
            if IntPolynomial(sp.k, moved) != expected[perm[i]]:
                failures.append(f"pentagon ring of {d.diagonals}, relation {i}")
    finish(5, "cohomology cross-validation", start, 300.0, failures)


def test_criterion_6_classification_at_desk_scale():
    start = time.perf_counter()
    failures = []
    for n in range(1, 8):
        for k in sorted({k for k in (1, 2, 3, n) if k <= n}):
            report = verify_theorem1(n, k, gl_bound=2 if k <= 3 else None)
            if not report.ok:
                failures.extend(
                    f"(n={n}, k={k}) {msg}" for msg in report.failures
                )
    finish(6, "classification at desk scale", start, 900.0, failures)


# Criterion 7 states its identities with the generators numbered from the
# deepest vertex up: the preorder reversed on chained trees, the root moved
# last on branched ones.
def bottom_up_ring(renumbered, chained, degrees):
    ring = schroeder_presentation(ThreeCellTree(chained, degrees).tree())
    return renumbered(ring, (2, 1, 0) if chained else (1, 2, 0))


def test_criterion_7_rings_are_the_bottom_up_closed_forms(renumbered):
    # Every ring criterion 7 builds, against its relations written out.
    x1, x2, x3 = (IntPolynomial.variable(3, i) for i in range(3))
    cube = list(product(range(2, 5), repeat=3))
    wide = [(2, m2, m3) for m2 in range(2, 6) for m3 in range(2, 6)]
    got, want = [], []
    for chained, triples in ((True, cube + wide), (False, cube)):
        for m1, m2, m3 in triples:
            ring = bottom_up_ring(renumbered, chained, (m1, m2, m3))
            got.append((ring.relations, ring.staircase))
            if chained:
                relations = (x1**m1, x2 * (x1 + x2) ** (m2 - 1), x3 * (x1 + x2 + x3) ** (m3 - 1))
            else:
                relations = (x1**m1, x2**m2, x3 * (x2 + x3 - x1) * (x2 + x3) ** (m3 - 2))
            want.append((relations, (m1, m2, m3)))
    assert got == want


def test_criterion_7_power_identities_and_nonexistence(renumbered):
    def chained_ring(m1, m2, m3):
        return bottom_up_ring(renumbered, True, (m1, m2, m3))

    def branched_ring(m1, m2, m3):
        return bottom_up_ring(renumbered, False, (m1, m2, m3))

    start = time.perf_counter()
    failures = []

    # Closed-form vanishing power in the chained ring with bottom degree 2.
    for m2 in range(2, 6):
        for m3 in range(2, 6):
            ring = chained_ring(2, m2, m3)
            if not power_is_zero((m2 - 1, m2, 0), m2, ring):
                failures.append(f"identity fails at (2, {m2}, {m3})")

    triples = [
        (m1, m2, m3)
        for m1 in range(2, 5)
        for m2 in range(2, 5)
        for m3 in range(2, 5)
    ]
    for m1, m2, m3 in triples:
        bound = max(m1, m2, m3)
        vectors = _primitive_array(3, bound).tolist()

        # Chained rings: below the bottom degree no form vanishes early.
        ring = chained_ring(m1, m2, m3)
        m = min(m2, m3)
        if m < m1 and any(power_is_zero(v, m, ring) for v in vectors):
            failures.append(f"early vanishing in chained {m1, m2, m3}")

        # Chained rings with m1 > 2: forms involving the upper generators
        # never vanish at the middle power; at the top power the same holds
        # once m1 is minimal.  (Outside that regime it genuinely fails, see
        # the witnesses below.)
        if m1 > 2:
            for vec in vectors:
                if vec[1] == 0 and vec[2] == 0:
                    continue
                if power_is_zero(vec, m2, ring):
                    failures.append(f"m2 vanishing in chained {m1, m2, m3}: {vec}")
                if m1 <= min(m2, m3) and power_is_zero(vec, m3, ring):
                    failures.append(f"m3 vanishing in chained {m1, m2, m3}: {vec}")

        # Branched rings: no form involving the root generator has
        # vanishing root power.
        ring = branched_ring(m1, m2, m3)
        for vec in vectors:
            if vec[2] and power_is_zero(vec, m3, ring):
                failures.append(f"root vanishing in branched {m1, m2, m3}: {vec}")

    # The restriction to minimal m1 above is necessary: with a degree-2
    # middle vertex these two upper forms do die at the top power.
    if not power_is_zero((0, 1, 0), 4, chained_ring(3, 2, 4)):
        failures.append("expected witness (0,1,0) in chained (3,2,4)")
    if not power_is_zero((1, 2, 0), 4, chained_ring(4, 2, 4)):
        failures.append("expected witness (1,2,0) in chained (4,2,4)")
    finish(7, "power identities and nonexistence", start, 300.0, failures)


def test_criterion_8_uniform_tree_separation():
    start = time.perf_counter()
    report = verify_prop_further(3, 4)
    failures = list(report.failures)
    if report.class_count != 4 or sorted(report.l_sizes) != [1, 2, 2, 3]:
        failures.append(f"unexpected report shape: {report.to_json()}")
    finish(8, "uniform tree separation", start, 60.0, failures)
