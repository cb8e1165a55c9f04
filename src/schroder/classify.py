"""Isomorphism classification of the varieties and their cohomology rings.

Two varieties are isomorphic exactly when their trees agree as rooted trees
without the plane order, so classification by canonical code is exact and
cheap.  Distinguishing the cohomology rings is the hard direction: this
module computes ring fingerprints (degree data plus a bounded nilpotency
profile of linear forms) to separate classes, and searches for unimodular
changes of basis to certify that two presentations give the same ring.
All arithmetic is exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from ._matrix import det, rank, unimodular_inverse
from .combinatorics import (
    Dissection,
    SchroederTree,
    canonical_code,
    canonical_form,
    dissection_to_tree,
    dissection_trees,
    riordan_table,
    tree_to_dissection,
)
from .cohomology import SchroederPresentation, schroeder_presentation
from .errors import InternalError
from .polyring import IntPolynomial, RingPresentation, hilbert_series, normal_form


def variety_isomorphic(d1: Dissection, d2: Dissection) -> bool:
    """Whether the two varieties are isomorphic.

    This holds exactly when the trees agree after forgetting the plane
    embedding, i.e. when their canonical codes coincide.
    """
    return canonical_code(dissection_to_tree(d1)) == canonical_code(
        dissection_to_tree(d2)
    )


def _group(trees) -> dict[bytes, list[SchroederTree]]:
    """Trees by canonical code; groups and their members in input order."""
    groups: dict[bytes, list[SchroederTree]] = {}
    for tree in trees:
        groups.setdefault(canonical_code(tree), []).append(tree)
    return groups


def classes(n: int, k: int | None = None) -> dict[bytes, list[SchroederTree]]:
    """Variety classes of the dissections of P_{n+2}, optionally with k cells.

    Keyed by canonical code; each class lists its trees in dissection_trees order.
    """
    return _group(dissection_trees(n, k))


def count_classes(n: int, k: int | None = None) -> int:
    """Number of isomorphism classes of varieties from dissections of P_{n+2}.

    Counts distinct canonical codes and cross-checks the total against the
    coefficient table of the generating-function recurrence.
    """
    per_cells = Counter(group[0].internal_count for group in classes(n, k).values())
    table = riordan_table(n + 1)
    for cells, count in per_cells.items():
        if count != table.s(n + 1, cells):
            raise InternalError(
                f"code count for n={n}, k={cells} disagrees with the recurrence"
            )
    return sum(per_cells.values())


def _bottoms(tree: SchroederTree) -> frozenset[int]:
    """Preorder indices of the internal vertices whose rightmost child is a leaf.

    On a canonically embedded tree these are exactly the internal vertices
    all of whose children are leaves, and their generators are the ones
    whose staircase power already vanishes.
    """
    return frozenset(
        i
        for i, v in enumerate(tree.internal_preorder())
        if tree.is_leaf(v + (tree.arity(v) - 1,))
    )


def _primitive_vectors(k: int, bound: int) -> list[tuple[int, ...]]:
    """Nonzero vectors in [-bound, bound]^k, gcd one, first nonzero entry positive."""
    out = []
    for vec in product(range(-bound, bound + 1), repeat=k):
        nonzero = [c for c in vec if c]
        if not nonzero or nonzero[0] < 0:
            continue
        if math.gcd(*(abs(c) for c in nonzero)) != 1:
            continue
        out.append(vec)
    return out


def _min_vanishing_power(vec, ring: RingPresentation, cap: int) -> int | None:
    """Least p <= cap with (sum_i vec[i] x_i)^p = 0 in the ring, else None."""
    lin = IntPolynomial.linear(vec)
    acc = normal_form(lin, ring)
    for p in range(1, cap + 1):
        if not acc:
            return p
        if p < cap:
            acc = normal_form(acc * lin, ring)
    return None


def _nilpotency_table(ring: RingPresentation, vectors) -> list[int]:
    """Minimal p with alpha^p = 0, for every coefficient vector at once.

    Degrees above sum(l_i - 1) have no staircase monomials, so every form
    vanishes there and the answer is always at most that bound plus one.
    The p-th powers of all forms advance together through the graded
    staircase components; multiplication by one generator is a linear map
    between consecutive components, precomputed once per ring.  Work is
    done in 64-bit integers, with an a-priori bound checked before every
    step and an exact big-integer fallback should it ever fail.
    """
    k = ring.k
    top = sum(ring.staircase) - k
    vectors = list(vectors)
    if not vectors:
        return []
    if min(ring.staircase) < 2:
        # Generators with staircase exponent one reduce away; the graded
        # embedding below assumes none do.
        return [_min_vanishing_power(v, ring, top + 1) or top + 1 for v in vectors]

    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for exp in product(*(range(l) for l in ring.staircase)):
        by_degree.setdefault(sum(exp), []).append(exp)
    index = {
        exp: j for d, exps in by_degree.items() for j, exp in enumerate(sorted(exps))
    }
    steps = []
    for d in range(1, top):
        mats = []
        for i in range(k):
            m = np.zeros((len(by_degree[d]), len(by_degree[d + 1])), dtype=np.int64)
            for exp in by_degree[d]:
                prod_nf = normal_form(
                    ring.variable(i) * IntPolynomial(k, {tuple(exp): 1}), ring
                )
                for texp, coef in prod_nf.terms.items():
                    m[index[exp], index[texp]] = coef
            mats.append(m)
        steps.append(mats)

    alpha = np.asarray(vectors, dtype=np.int64)
    minp = np.full(len(vectors), top + 1, dtype=np.int64)
    alive = np.arange(len(vectors))
    acc = np.zeros((len(vectors), len(by_degree[1])), dtype=np.int64)
    for i in range(k):
        acc[:, index[tuple(int(j == i) for j in range(k))]] = alpha[:, i]

    box = int(np.abs(alpha).max())
    for p in range(1, top + 1):
        zero = ~acc.any(axis=1)
        if zero.any():
            minp[alive[zero]] = p
            alive = alive[~zero]
            acc = acc[~zero]
        if not len(alive) or p == top:
            break
        mats = steps[p - 1]
        growth = int(sum(np.abs(m).sum(axis=0).max() for m in mats))
        if int(np.abs(acc).max()) * box * growth >= 2**62:
            for v in alive:
                minp[v] = _min_vanishing_power(vectors[v], ring, top + 1)
            break
        coeffs = alpha[alive]
        acc = sum(
            (acc @ mats[i]) * coeffs[:, i : i + 1] for i in range(k)
        )
    return [int(p) for p in minp]


@dataclass(frozen=True)
class Fingerprint:
    """Ring data used to separate cohomology rings of non-isomorphic varieties.

    `profile` counts the primitive linear forms with coefficients in
    [-bound, bound] by their minimal vanishing power; powers run up to one
    more than the ring's top degree, where every form dies, so the counts
    always add up to the number of forms.  `vanishing_rank` is the rank of
    the span of the forms that already vanish at the smallest staircase
    exponent.  `l_size` counts the internal vertices of the canonical tree
    whose children are all leaves; it is the one field not read off from
    the presentation alone.
    """

    k: int
    bound: int
    staircase: tuple[int, ...]
    hilbert: tuple[int, ...]
    profile: tuple[tuple[int, int], ...]
    vanishing_rank: int
    l_size: int

    @property
    def ring_data(self) -> tuple:
        """The fields computed from the ring presentation alone."""
        return (
            self.k,
            self.bound,
            self.staircase,
            self.hilbert,
            self.profile,
            self.vanishing_rank,
        )


_fingerprint_cache: dict[tuple[bytes, int], Fingerprint] = {}


def fingerprint(d: Dissection, bound: int | None = None) -> Fingerprint:
    """Fingerprint of the cohomology ring, computed on the canonical embedding.

    The nilpotency profile of a fixed presentation depends on the plane
    embedding of the tree, so all dissections in one isomorphism class are
    routed through the canonical representative; equal codes then give equal
    fingerprints by construction.  The default bound is the largest
    staircase exponent.
    """
    return _tree_fingerprint(dissection_to_tree(d), bound)


def _tree_fingerprint(tree: SchroederTree, bound: int | None) -> Fingerprint:
    """Fingerprint of the class of any plane tree, cached by canonical code.

    The profile depends on the embedding, so a cache miss computes it on
    the canonical form; every member of a class then gets the same value.
    """
    staircase = tuple(sorted(tree.arity(v) for v in tree.internal_preorder()))
    if bound is None:
        bound = staircase[-1]
    if bound < 1:
        raise ValueError("bound must be at least 1")
    key = (canonical_code(tree), bound)
    cached = _fingerprint_cache.get(key)
    if cached is not None:
        return cached

    tree = canonical_form(tree)
    ring = schroeder_presentation(tree)
    floor = staircase[0]
    vectors = _primitive_vectors(ring.k, bound)
    powers = _nilpotency_table(ring, vectors)
    counts: dict[int, int] = {}
    vanishing = []
    for vec, p in zip(vectors, powers):
        counts[p] = counts.get(p, 0) + 1
        if p <= floor:
            vanishing.append(vec)
    fp = Fingerprint(
        k=ring.k,
        bound=bound,
        staircase=staircase,
        hilbert=hilbert_series(ring),
        profile=tuple(sorted(counts.items())),
        vanishing_rank=rank(vanishing),
        l_size=len(_bottoms(tree)),
    )
    _fingerprint_cache[key] = fp
    return fp


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of a bounded ring isomorphism check."""

    status: str
    detail: str
    witness: tuple[tuple[int, ...], ...] | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "detail": self.detail,
            "witness": None if self.witness is None else [list(r) for r in self.witness],
        }


def _mapped_relation_vanishes(
    factors, rows, target: SchroederPresentation
) -> bool:
    """Whether a relation, given by its linear factors, maps to zero.

    `rows[i]` is the image of generator i as a coefficient vector over the
    target generators; only rows touched by the factors need to be set.
    """
    k = target.k
    poly = IntPolynomial.constant(k, 1)
    for fvec in factors:
        img = [0] * k
        for s, c in enumerate(fvec):
            if c:
                row = rows[s]
                for t in range(k):
                    img[t] += c * row[t]
        poly = normal_form(poly * IntPolynomial.linear(img), target)
        if not poly:
            return True
    return not poly


def _maps_to_zero(source: SchroederPresentation, rows, target: SchroederPresentation) -> bool:
    """Whether every relation of `source` maps to zero in `target` via `rows`."""
    return all(
        _mapped_relation_vanishes(facs, rows, target) for facs in source.factors
    )


def _gl_witness(
    sp1: SchroederPresentation, sp2: SchroederPresentation, bound: int
) -> tuple[tuple[int, ...], ...] | None:
    """Search for a unimodular generator substitution matching the two rings.

    Rows are the images of sp1 generators over sp2 generators, with entries
    in [-bound, bound].  Relation i of sp1 only involves generators i..k-1,
    so rows are assigned from the last upwards and each relation is checked
    as soon as its row is placed; rank pruning discards dependent prefixes.
    """
    k = sp1.k
    candidates = sorted(
        (v for v in product(range(-bound, bound + 1), repeat=k) if any(v)),
        key=lambda v: (sum(abs(c) for c in v), tuple(-c for c in v)),
    )
    rows: list[tuple[int, ...] | None] = [None] * k

    def place(i: int):
        for cand in candidates:
            rows[i] = cand
            if rank(rows[i:]) != k - i:
                continue
            if not _mapped_relation_vanishes(sp1.factors[i], rows, sp2):
                continue
            if i:
                found = place(i - 1)
                if found:
                    return found
            else:
                g = [list(r) for r in rows]
                if abs(det(g)) == 1 and _maps_to_zero(
                    sp2, unimodular_inverse(g), sp1
                ):
                    return tuple(rows)
        rows[i] = None
        return None

    return place(k - 1)


def cohomology_isomorphic_bounded(
    d1: Dissection, d2: Dissection, bound: int = 2
) -> IsoVerdict:
    """Decide ring isomorphism within a coefficient bound.

    Returns YES with a unimodular witness when a substitution with entries
    in [-bound, bound] identifies the two presentations, NO when an exact
    invariant separates the rings, and UNKNOWN otherwise.  YES and NO are
    definitive; UNKNOWN only reflects the bound.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    sp1 = schroeder_presentation(dissection_to_tree(d1))
    sp2 = schroeder_presentation(dissection_to_tree(d2))
    if sp1.k != sp2.k:
        return IsoVerdict("NO", f"generator counts differ: {sp1.k} vs {sp2.k}")
    if sorted(sp1.staircase) != sorted(sp2.staircase):
        return IsoVerdict(
            "NO",
            "staircase exponent multisets differ: "
            f"{sorted(sp1.staircase)} vs {sorted(sp2.staircase)}",
        )
    fp1, fp2 = fingerprint(d1), fingerprint(d2)
    if fp1 != fp2:
        fields = [
            f
            for f in Fingerprint.__dataclass_fields__
            if getattr(fp1, f) != getattr(fp2, f)
        ]
        return IsoVerdict("NO", f"fingerprints differ in {', '.join(fields)}")
    witness = _gl_witness(sp1, sp2, bound) if bound else None
    if witness is not None:
        return IsoVerdict(
            "YES", f"unimodular substitution with entries in [-{bound}, {bound}]", witness
        )
    return IsoVerdict("UNKNOWN", f"no witness within coefficient bound {bound}")


@dataclass(frozen=True)
class TheoremOneReport:
    """Result of checking one (n, k) slice of the classification.

    The variety classes (canonical codes) must be counted by the recurrence
    table, distinct classes must be separated by fingerprints, and, when a
    search bound is given, every dissection must admit a ring isomorphism
    witness onto its class representative.
    """

    n: int
    k: int
    class_count: int
    expected_count: int
    dissection_count: int
    searches: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "class_count": self.class_count,
            "expected_count": self.expected_count,
            "dissection_count": self.dissection_count,
            "searches": self.searches,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def verify_theorem1(n: int, k: int, gl_bound: int | None = None) -> TheoremOneReport:
    """Check that ring fingerprints classify the varieties with k cells.

    Valid for k <= 3 and for k = n, where rings determine varieties.  Every
    pair of distinct classes must have distinct fingerprints, and the class
    count must match the recurrence table.  With `gl_bound`, additionally
    search for a ring isomorphism witness from every dissection to its
    class representative.
    """
    if not (k <= 3 or k == n):
        raise ValueError("classification is checked for k <= 3 or k = n")
    failures = []
    groups = classes(n, k)
    expected = riordan_table(n + 1).s(n + 1, k)
    if len(groups) != expected:
        failures.append(
            f"found {len(groups)} classes, recurrence table gives {expected}"
        )

    # One canonical representative and one fingerprint per class.
    reps = sorted(
        ((tree_to_dissection(canonical_form(trees[0])), trees) for trees in groups.values()),
        key=lambda rep: rep[0].diagonals,
    )
    prints = [fingerprint(rep) for rep, _ in reps]
    for i, (rep, _) in enumerate(reps):
        for j in range(i + 1, len(reps)):
            if prints[i] == prints[j]:
                failures.append(
                    "fingerprints collide across classes: "
                    f"{rep.diagonals} vs {reps[j][0].diagonals}"
                )

    searches = 0
    if gl_bound is not None:
        for rep, trees in reps:
            for d in map(tree_to_dissection, trees):
                verdict = cohomology_isomorphic_bounded(rep, d, gl_bound)
                searches += 1
                if verdict.status != "YES":
                    failures.append(
                        f"no witness from {rep.diagonals} to {d.diagonals}: "
                        f"{verdict.status}"
                    )
    return TheoremOneReport(
        n=n,
        k=k,
        class_count=len(groups),
        expected_count=expected,
        dissection_count=sum(len(trees) for trees in groups.values()),
        searches=searches,
        failures=tuple(failures),
    )


@lru_cache(maxsize=None)
def _uniform_shapes(ell: int, internal: int) -> tuple[tuple, ...]:
    """All plane tree shapes with `internal` vertices of out-degree `ell`."""
    if internal == 0:
        return ((),)

    def split(budget: int, slots: int):
        if slots == 1:
            yield (budget,)
            return
        for first in range(budget + 1):
            for rest in split(budget - first, slots - 1):
                yield (first,) + rest

    out = []
    for comp in split(internal - 1, ell):
        for kids in product(*(_uniform_shapes(ell, c) for c in comp)):
            out.append(kids)
    return tuple(out)


@dataclass(frozen=True)
class UniformTreeReport:
    """Result of the power check on trees with constant out-degree.

    For out-degree at least three, classes with different counts of
    all-leaf-children vertices must already be separated by the ring data
    of the fingerprint, because the only bounded linear forms whose ell-th
    power vanishes are multiples of the generators at those vertices.
    """

    ell: int
    internal: int
    n: int
    class_count: int
    l_sizes: tuple[int, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "internal": self.internal,
            "n": self.n,
            "class_count": self.class_count,
            "l_sizes": list(self.l_sizes),
            "failures": list(self.failures),
            "ok": self.ok,
        }


def verify_prop_further(
    ell: int, internal: int, n_max: int | None = None
) -> UniformTreeReport:
    """Check the power dichotomy on trees with constant out-degree `ell`.

    For every class: the generators at vertices whose children are all
    leaves satisfy x^ell = 0, no other generator does, and no primitive
    linear form with at least two nonzero coefficients in [-ell, ell] has
    vanishing ell-th power.  Classes with different counts of such vertices
    must then be separated by ring data alone.  Requires ell >= 3 and at
    least four internal vertices; `n_max` aborts early when the implied
    number of leaves would exceed it.
    """
    if ell <= 2:
        raise ValueError("the power dichotomy needs out-degree at least 3")
    if internal < 4:
        raise ValueError("at least four internal vertices are required")
    n = internal * (ell - 1)
    if n_max is not None and n > n_max:
        raise ValueError(f"n = {n} exceeds the requested budget {n_max}")

    groups = _group(SchroederTree(shape) for shape in _uniform_shapes(ell, internal))
    trees = [canonical_form(groups[code][0]) for code in sorted(groups)]

    failures = []
    data = []
    for tree in trees:
        ring = schroeder_presentation(tree)
        bottoms = _bottoms(tree)
        vectors = _primitive_vectors(ring.k, ell)
        powers = dict(zip(vectors, _nilpotency_table(ring, vectors)))
        for i in range(ring.k):
            unit = tuple(int(t == i) for t in range(ring.k))
            if (powers[unit] <= ell) != (i in bottoms):
                failures.append(
                    f"generator {i} of {tree.shape} breaks the power dichotomy"
                )
        for vec, p in powers.items():
            if p <= ell and sum(1 for c in vec if c) >= 2:
                failures.append(
                    f"mixed form {vec} on {tree.shape} has vanishing power {p}"
                )
        data.append((_tree_fingerprint(tree, None), len(bottoms)))

    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            if data[i][1] != data[j][1] and data[i][0].ring_data == data[j][0].ring_data:
                failures.append(
                    f"classes {i} and {j} differ in leaf-children count "
                    "but share all ring data"
                )
    return UniformTreeReport(
        ell=ell,
        internal=internal,
        n=n,
        class_count=len(trees),
        l_sizes=tuple(d[1] for d in data),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class ThreeCellTree:
    """One of the two tree shapes with exactly three internal vertices.

    `chained` trees have the internal vertices on one path (out-degrees
    m3 at the root, then m2, then m1); branched trees hang two internal
    children with out-degrees m1 and m2 off an m3-valent root.  Degrees
    must each be at least two, since no internal vertex has one child.
    """

    chained: bool
    degrees: tuple[int, int, int]

    def __post_init__(self):
        if len(self.degrees) != 3 or any(m < 2 for m in self.degrees):
            raise ValueError("three out-degrees, each at least 2, are required")

    def tree(self) -> SchroederTree:
        m1, m2, m3 = self.degrees
        leaf: tuple = ()
        if self.chained:
            inner = (leaf,) * m1
            mid = (leaf,) * (m2 - 1) + (inner,)
            return SchroederTree((leaf,) * (m3 - 1) + (mid,))
        return SchroederTree(((leaf,) * m1,) + (leaf,) * (m3 - 2) + ((leaf,) * m2,))

    def bottom_up_presentation(self) -> RingPresentation:
        """The ring with generators numbered from the deepest vertex up.

        Equals the preorder presentation of `tree()` after renumbering:
        chained trees reverse the order, branched trees move the root last.
        """
        m1, m2, m3 = self.degrees
        x1, x2, x3 = (IntPolynomial.variable(3, i) for i in range(3))
        if self.chained:
            relations = (
                x1**m1,
                x2 * (x1 + x2) ** (m2 - 1),
                x3 * (x1 + x2 + x3) ** (m3 - 1),
            )
        else:
            relations = (
                x1**m1,
                x2**m2,
                x3 * (x2 + x3 - x1) * (x2 + x3) ** (m3 - 2),
            )
        return RingPresentation(("x1", "x2", "x3"), relations, (m1, m2, m3))
