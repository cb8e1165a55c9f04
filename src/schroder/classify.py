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

from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from ._matrix import det, rank
from .combinatorics import (
    Dissection,
    SchroederTree,
    _canonical_shapes,
    _classes,
    canonical_code,
    canonical_form,
    class_trees,
    dissection_to_tree,
    enumerate_dissections,
    kirkman_cayley,
    nesting,
    riordan_table,
    tree_to_dissection,
)
from .cohomology import SchroederPresentation, schroeder_presentation
from .errors import InternalError
from .polyring import (
    IntPolynomial,
    RingPresentation,
    hilbert_series,
    normal_form,
)


def variety_isomorphic(d1: Dissection, d2: Dissection) -> bool:
    """Whether the two varieties are isomorphic.

    This holds exactly when the trees agree after forgetting the plane
    embedding, i.e. when their canonical codes coincide.
    """
    return canonical_code(dissection_to_tree(d1)) == canonical_code(
        dissection_to_tree(d2)
    )


def count_classes(n: int, k: int | None = None) -> int:
    """Number of isomorphism classes of varieties from dissections of P_{n+2}.

    Counts the generated classes by the cell counts of their codes, without
    building trees, and cross-checks the count for every number of cells
    against the coefficient table of the generating-function recurrence, an
    independent route to the same numbers.
    """
    per_cells = Counter(cells for cells, _ in _classes(n, k))
    table = riordan_table(n + 1)
    for cells in range(1, n + 1) if k is None else [k]:
        if per_cells[cells] != table.s(n + 1, cells):
            raise InternalError(
                f"code count for n={n}, k={cells} disagrees with the recurrence"
            )
    return sum(per_cells.values())


# `_primitive_array` and `_candidate_array` build no grid past this many
# points, 2^24.  Every grid of `classify --n 10` fits (5^10 points at
# k = n = 10); past it np.indices runs out of axes (at k > 64) or of memory
# long before a table over the grid could finish.
_MAX_POINTS = 2**24


def _check_points(k: int, bound: int, limit: int) -> None:
    """Raise ValueError naming the grid [-bound, bound]^k if it has more
    than `limit` points."""
    if (2 * bound + 1) ** k > limit:
        raise ValueError(f"grid [-{bound}, {bound}]^{k} exceeds the limit of {limit} points")


def _grid(k: int, bound: int, dtype) -> np.ndarray:
    """Every point of [-bound, bound]^k, one row each, in lexicographic order.

    A grid of more than `_MAX_POINTS` points raises ValueError naming it.
    """
    _check_points(k, bound, _MAX_POINTS)
    return np.indices((2 * bound + 1,) * k, dtype=dtype).reshape(k, -1).T - bound


@lru_cache(maxsize=None)
def _primitive_array(k: int, bound: int) -> np.ndarray:
    """Nonzero vectors in [-bound, bound]^k, gcd one, first nonzero entry positive.

    One row per vector, in lexicographic order, as itertools.product yields
    them; memoised, so the array is read-only.
    """
    # The smallest signed type that holds the grid indices 0..2 * bound.
    grid = _grid(k, bound, np.min_scalar_type(-2 * bound - 1))
    first = grid[np.arange(len(grid)), (grid != 0).argmax(axis=1)]
    keep = (first > 0) & (np.gcd.reduce(grid, axis=1) == 1)
    out = grid[keep]
    out.flags.writeable = False
    return out


# float64 holds every integer below this in absolute value exactly, so a
# product of integer arrays whose partial sums all stay below it is exact
# in any summation order.
_EXACT = 2**53
# The same limit for float32, whose products run about twice as fast.
_EXACT32 = 2**24

# An object array of the Python ints that a float array of integers
# holds, exact however large they are, where a cast through int64 wraps
# past 2^63.
_to_ints = np.frompyfunc(int, 1, 1)


def _step_matrices(ring: RingPresentation, degree: int):
    """Multiplication by each generator between graded staircase components.

    Returns `(steps, bases)`.  `bases[d]`, d <= degree, lists the degree-d
    staircase monomials, sorted; no other code enumerates them.
    `steps[d]`, d < degree, is `(mats, growth)`: `mats[i]` is the matrix of
    multiplication by x_i from `bases[d]` (columns) to `bases[d + 1]`
    (rows), so it acts on powers held one form per column, and `growth`
    sums the largest row norm of each, so |(mats[i] @ acc) * c[i]| summed
    over i stays below max|acc| * max|c| * growth, partial sums included.
    `_top_pairing` reads the bases, and the steps below the top degree
    through their transposes.
    Multiplying x^e by x_i is a plain shift while e_i + 1 < l_i; when
    e_i = l_i - 1 the product is x^rest * x_i^(l_i) with rest_i = 0, which
    relation i rewrites to -x^rest * tail_i.  Those columns are filled from
    matrices already built: x^rest times a tail monomial takes the
    monomial's variables in increasing order, all but the last through
    lower steps and the last through this step, whose matrices are built
    from generator k - 1 down.  `normal_form` reduces only a block whose
    products could leave the integers float64 holds exactly.  This needs
    what every tree presentation gives: each tail monomial of relation i
    has degree l_i, so the maps are graded, and ends in a generator above
    i.  A ring without it, and an entry that float64 does not hold
    exactly, which `_advance` could not take back to an integer, raise
    InternalError: neither is ever rounded.
    """
    ell = ring.staircase
    k = ring.k
    # Each tail monomial's variables in increasing order, repeated by
    # exponent, split before the last one; relation i's tail grouped by the
    # prefix, as [(last, coefficient)].
    groups = []
    for i, tail in enumerate(ring._tails):
        group = {}
        for texp, c in tail:
            if sum(texp) != ell[i]:
                raise InternalError("step matrices need homogeneous relations")
            seq = tuple(j for j, t in enumerate(texp) for _ in range(t))
            if seq[-1] <= i:
                raise InternalError(
                    f"step matrices need tails in generators above their own: relation {i}"
                )
            group.setdefault(seq[:-1], []).append((seq[-1], c))
        groups.append(group)
    # By degree: the staircase monomials, sorted, their positions, the
    # matrices and their largest row norms; step d fills those of degree d.
    bases, indexes, levels, norms = [[(0,) * k]], [{(0,) * k: 0}], [], []

    def tail_columns(i, rests, d):
        """-x^rest * tail_i on the degree d + 1 basis, one column per rest,
        or None where a partial sum could reach 2^53."""
        lo = d + 1 - ell[i]
        bound = 0
        for prefix, terms in groups[i].items():
            scale = 1
            for m, v in enumerate(prefix):
                scale *= max(1, norms[lo + m][v])
            for j, c in terms:
                bound += scale * abs(c) * max(1, norms[d][j])
        if bound >= _EXACT:
            return None
        # reach[prefix]: x^rest * x^prefix on the basis of its degree.
        start = np.zeros((len(bases[lo]), len(rests)))
        for r, e in enumerate(rests):
            start[indexes[lo][e], r] = 1
        reach = {(): start}
        out = 0
        for prefix, terms in groups[i].items():
            for m in range(1, len(prefix) + 1):
                if prefix[:m] not in reach:
                    reach[prefix[:m]] = levels[lo + m - 1][prefix[m - 1]] @ reach[prefix[: m - 1]]
            combo = 0
            for j, c in terms:
                combo = combo - c * levels[d][j]
            out = out + combo @ reach[prefix]
        return out

    steps = []
    for d in range(degree):
        basis = bases[d]
        # shifts[i][r]: x_i * x^e for column r, or None where relation i
        # rewrites it; its monomials are the next degree's basis.
        shifts = [
            [e[:i] + (e[i] + 1,) + e[i + 1 :] if e[i] + 1 < ell[i] else None for e in basis]
            for i in range(k)
        ]
        upper = sorted({e for row in shifts for e in row if e is not None})
        index = {e: j for j, e in enumerate(upper)}
        mats = np.zeros((k, len(upper), len(basis)))
        bases.append(upper)
        indexes.append(index)
        levels.append(mats)
        norms.append([0] * k)
        for i in reversed(range(k)):
            reduced = []
            for r, e in enumerate(shifts[i]):
                if e is None:
                    reduced.append(r)
                else:
                    mats[i, index[e], r] = 1
            if groups[i] and reduced:
                rests = [basis[r][:i] + (0,) + basis[r][i + 1 :] for r in reduced]
                block = tail_columns(i, rests, d)
                if block is None:
                    block = _normal_form_columns(ring, i, rests, index)
                mats[i][:, reduced] = block
            norms[d][i] = int(np.abs(mats[i]).sum(axis=1).max(initial=0))
        steps.append((mats, sum(norms[d])))
    return steps, bases


def _normal_form_columns(ring: RingPresentation, i: int, rests, index) -> np.ndarray:
    """-x^rest * tail_i by `normal_form`, one column per rest, on the basis
    that `index` numbers; an entry float64 does not hold raises."""
    columns = np.zeros((len(index), len(rests)))
    for r, rest in enumerate(rests):
        rewritten = IntPolynomial._raw(
            ring.k,
            {tuple(a + b for a, b in zip(rest, texp)): -c for texp, c in ring._tails[i]},
        )
        for texp, c in normal_form(rewritten, ring).terms.items():
            if float(c) != c:
                raise InternalError(f"step entry {c} is not exact in float64")
            columns[index[texp], r] = c
    return columns


# Forms whose powers one table pass advances together.  The steps are built
# once per ring and each block of forms runs through them on its own, so
# the table's arrays stay this many columns wide however many forms there are.
_TABLE_BLOCK = 1024


def _nilpotency_table(ring: RingPresentation, vectors) -> list[int]:
    """Minimal p with alpha^p = 0, for every coefficient vector at once.

    Degrees above top = sum(l_i - 1) have no staircase monomials, so every
    form vanishes there and the answer is at most top + 1.  The powers of a
    block of `_TABLE_BLOCK` forms, one column per form, advance together
    through the graded staircase components from degree 0, one
    `_step_matrices` step and one exact `_advance` per power; forms drop out
    of their block as their powers vanish.  The degree-top component is
    spanned by x^(l - 1) alone, so at half = ceil(top / 2) the pairing of
    `_top_pairing` gives alpha^top from alpha^half and alpha^(top - half):
    forms where it is nonzero get top + 1 there, the others step on, and a
    form still alive at top - 1 gets top without the last step.
    `_on_tier` puts each step and the pairing on float32, float64 or Python
    ints from its own bound, so every value is exact, a block's powers may
    change dtype from step to step, and the two powers the pairing takes
    may differ in dtype.  Columns are independent, so the
    blocks give the table one pass would, and memory does not grow with
    the number of forms.
    """
    top = sum(ring.staircase) - ring.k
    forms = np.asarray(vectors)  # no copy when `vectors` is already an array
    if not len(forms):
        return []
    steps, bases = _step_matrices(ring, top)
    half = (top + 1) // 2
    pairing, weight = _top_pairing(steps, bases, half)
    columns = np.ascontiguousarray(forms.T)
    minp = np.full(len(forms), top, dtype=np.int64)
    for start in range(0, len(forms), _TABLE_BLOCK):
        alive = np.arange(start, min(start + _TABLE_BLOCK, len(forms)))
        acc = low = np.ones((1, len(alive)))  # alpha^0
        # Up to top - 1, and through half, which passes it when top <= 1.
        for p in range(max(half, top - 1) + 1):
            if p:
                mats, growth = steps[p - 1]
                acc = _advance(acc, mats, np.take(columns, alive, axis=1), growth)  # alpha^p
            keep = acc.any(axis=0)
            minp[alive[~keep]] = p
            if p == top - half:
                low = acc
            if p == half:
                full = _top_power(acc, low, pairing, weight) != 0
                minp[alive[full]] = top + 1
                keep &= ~full
            if not keep.all():
                alive, acc, low = alive[keep], acc[:, keep], low[:, keep]
            if not len(alive):
                break
    return minp.tolist()


def _top_pairing(steps, bases, half: int):
    """G^T and sum|G|, where G[u, v] is the coefficient of x^(l - 1) in x^u * x^v.

    u runs over `bases[half]` and v over `bases[top - half]`, both from
    `_step_matrices`, so alpha^top = (alpha^half)^T G alpha^(top - half)
    for any form.  Column s of the degree-m array is the
    map v -> coefficient of x^(l - 1) in x^s * v on the degree top - m
    basis; it starts as [[1]] at m = 0, and x^t = x_i * x^(t - e_i), i the
    first generator of t, gives column t from column t - e_i and the
    transpose of `mats[i]` of step top - m.  One `_advance` per degree, with
    one-hot coefficients, builds them exactly, on whichever tier its bound
    allows; G^T comes back in float64, and its weight is summed there.  An
    entry of G that float64 does not hold exactly raises InternalError
    instead of being rounded.
    """
    top, acc = len(steps), np.ones((1, 1))
    for m in range(1, half + 1):
        upper = bases[m]
        index = {e: r for r, e in enumerate(bases[m - 1])}
        first = [next(i for i, c in enumerate(t) if c) for t in upper]
        parent = [index[t[:i] + (t[i] - 1,) + t[i + 1 :]] for t, i in zip(upper, first)]
        mats = steps[top - m][0]
        onehot = np.zeros((len(mats), len(upper)), dtype=np.int64)
        onehot[first, np.arange(len(upper))] = 1
        # The row norms of the transposes are the column norms of `mats`.
        growth = int(np.abs(mats).sum(axis=1).max(axis=1).sum())
        acc = _advance(acc[:, parent], mats.transpose(0, 2, 1), onehot, growth)
    if acc.dtype == object:
        for c in acc.flat:
            if float(c) != c:
                raise InternalError(f"pairing entry {c} is not exact in float64")
    # The steps may have run in float32; the pairing and its weight do not:
    # a sum of nonnegative float64 integers is exact below 2^53 and at least
    # 2^53 past it, all `_top_power`'s bound needs.
    acc = acc.astype(np.float64, copy=False)
    return acc, int(np.abs(acc).sum())


def _on_tier(x, y, scale, *rest):
    """`x`, `y` and `rest` cast to the one tier that keeps exact a product
    of `x` and `y` whose partial sums stay below max|x| * max|y| * scale,
    with each entry of `rest` at most `scale`.

    Every value is then an exactly represented integer in any summation
    order on the first tier whose limit that bound is below: float32 below
    2^24, float64 below 2^53, both on BLAS, and from 2^53 on, or when `x` or
    `y` is already an object array, Python ints in object arrays.  The casts
    to a float tier are exact too: while both maxima are at least 1, each
    of them, and each entry of `rest`, is at most the bound; when either
    maximum, or `scale`, is 0, every product is 0, whatever the cast did to
    the other factors.  An array already on the chosen float tier is not
    copied, and a float32 one goes up to a later tier exactly.
    """
    if x.dtype == object or y.dtype == object:
        bound = _EXACT
    else:
        bound = max(int(x.max()), -int(x.min())) * max(int(y.max()), -int(y.min())) * scale
    if bound >= _EXACT:
        return [_to_ints(a) for a in (x, y, *rest)]
    dtype = np.float32 if bound < _EXACT32 else np.float64
    return [a.astype(dtype, copy=False) for a in (x, y, *rest)]


def _top_power(high, low, pairing, weight):
    """The coefficient of x^(l - 1) in alpha^top, exactly, for each column
    of `high` (alpha^half) and `low` (alpha^(top - half)) of the same forms.

    `pairing` is G^T and `weight` sum|G| from `_top_pairing`, so the value
    is the sum over v of (pairing @ high)[v] * low[v].  Its partial sums
    stay below max|high| * max|low| * weight, and each entry of G is at most
    `weight`, so it runs on the tier `_on_tier` picks.
    """
    high, low, pairing = _on_tier(high, low, weight, pairing)
    return ((pairing @ high) * low).sum(axis=0)


def _advance(acc, mats, coeffs, growth):
    """sum_i (mats[i] @ acc) * coeffs[i], exactly, one product per generator.

    Forms run along the columns: `acc` holds one column of coordinates per
    form, `mats[i]` maps them up one degree, and `coeffs` holds integers,
    one row per generator and one column per form; callers pass it
    C-ordered, so each term is one matrix product scaled along contiguous
    rows.  With `growth` from `_step_matrices`, every partial sum stays
    below max|acc| * max|coeffs| * growth, and each entry of `mats` is at
    most `growth`, so the step runs on the tier `_on_tier` picks; an object
    `acc` keeps every later step on Python ints.  The products share one
    buffer and are summed in place, so a step holds two arrays of the
    result's size besides `acc`, and none after it; the callers pass blocks
    of a fixed number of columns.
    """
    acc, coeffs, mats = _on_tier(acc, coeffs, growth, mats)
    out = mats[0] @ acc
    out *= coeffs[0]
    term = np.empty_like(out)
    for i in range(1, len(mats)):
        np.matmul(mats[i], acc, out=term)
        term *= coeffs[i]
        out += term
    return out


@dataclass(frozen=True)
class Fingerprint:
    """Ring data used to separate cohomology rings of non-isomorphic varieties.

    `profile` counts the primitive linear forms with coefficients in
    [-bound, bound] by their minimal vanishing power; powers run up to one
    more than the ring's top degree, where every form dies, so the counts
    always add up to the number of forms.  `vanishing_rank` is the rank of
    the span of the forms that already vanish at the smallest staircase
    exponent.  `l_size` counts the generators named by a side, b - a = 1 in
    the presentation's labels: those whose vertex's last child is a leaf,
    which on the canonical tree are the internal vertices whose children
    are all leaves.  It is the one field read off the labels, not the ring.
    `profile` moves with the presentation, and `vanishing_rank` is not
    proven invariant, but `k`, `bound`, `staircase` and `hilbert` are ring
    invariants: the Hilbert series is the product of (1 - t^l) / (1 - t)
    over the staircase, each the product of the cyclotomic Phi_d, d > 1
    dividing l, so Phi_d occurs once per l_i that d divides; Moebius
    inversion of these counts fixes the staircase, every l_i being >= 2.
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


def fingerprint(d: Dissection) -> Fingerprint:
    """Fingerprint of the cohomology ring, computed on the canonical embedding.

    The nilpotency profile of a fixed presentation depends on the plane
    embedding of the tree, so all dissections in one isomorphism class are
    routed through the canonical representative; equal codes then give equal
    fingerprints by construction.  This is the one fingerprint entry, and
    the only place on its path that calls `canonical_form`.
    """
    return _table_fingerprint(*_class_table(canonical_form(dissection_to_tree(d))))


def _class_table(tree: SchroederTree):
    """The tree's ring, its primitive forms in [-l, l]^k with l the largest
    staircase exponent, and their nilpotency table: the fingerprint's forms."""
    ring = schroeder_presentation(tree)
    vectors = _primitive_array(ring.k, max(ring.staircase))
    return ring, vectors, _nilpotency_table(ring, vectors)


def _table_fingerprint(ring, vectors, table) -> Fingerprint:
    """Fingerprint of a tree from its ring, forms and table, as
    `_class_table` gives them; the canonical tree gives the class's."""
    staircase = tuple(sorted(ring.staircase))
    powers = np.array(table)
    values, counts = np.unique(powers, return_counts=True)
    return Fingerprint(
        k=ring.k,
        bound=staircase[-1],
        staircase=staircase,
        hilbert=hilbert_series(ring),
        profile=tuple(zip(values.tolist(), counts.tolist())),
        vanishing_rank=rank(vectors[powers <= staircase[0]].tolist()),
        l_size=sum(b - a == 1 for a, b in ring.labels),
    )


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


# The fingerprints take one row per point of [-l, l]^k, with l the largest
# staircase exponent, and the witness search one per point of
# [-bound, bound]^k.  `cohomology_isomorphic_bounded` allocates neither grid
# past this many points, 2^20: a k = n = 8 fingerprint (5^8 points) and a
# k = 7 one with an exponent of 3 (7^7) fit, 5^9 does not.
_MAX_GRID = 2**20

# Candidate rows whose relation check runs as one batch.  A witness in an
# early block skips the later ones, and memory stays flat however large
# (2 * bound + 1)^k grows.
_BLOCK = 256


@lru_cache(maxsize=None)
def _candidate_array(k: int, bound: int) -> np.ndarray:
    """Nonzero vectors in [-bound, bound]^k in search order, one per row.

    Smallest l1 norm first, ties in decreasing lexicographic order;
    memoised, so the array is read-only.
    """
    grid = _grid(k, bound, int)
    grid = grid[grid.any(axis=1)]
    out = grid[np.lexsort((*-grid[:, ::-1].T, np.abs(grid).sum(axis=1)))]
    out.flags.writeable = False
    return out


def _relation_vanishes_batch(factors, i, rows, block, steps):
    """For each candidate row i in `block`, whether the relation maps to zero.

    Each factor's image is affine in the candidate,
    f[i] * cand + sum_{s != i} f[s] * rows[s], so the product of the images
    advances through the target ring's graded steps for the whole block at
    once, one candidate per column and one exact `_advance` per factor.
    """
    k = block.shape[1]
    cands = np.ascontiguousarray(block.T)
    acc = np.ones((1, len(block)))
    for (mats, growth), fvec in zip(steps, factors):
        fixed = [0] * k
        for s, c in enumerate(fvec):
            if c and s != i:
                fixed = [a + c * b for a, b in zip(fixed, rows[s])]
        images = fvec[i] * cands + np.array(fixed, dtype=np.int64)[:, None]
        acc = _advance(acc, mats, images, growth)
    return ~acc.any(axis=0)


def _gl_witness(
    sp1: SchroederPresentation, sp2: SchroederPresentation, bound: int
) -> tuple[tuple[int, ...], ...] | None:
    """Search for a unimodular generator substitution matching the two rings.

    Rows are the images of sp1 generators over sp2 generators, with entries
    in [-bound, bound].  Relation i of sp1 only involves generators i..k-1,
    so rows are assigned from the last upwards and each relation is checked
    as soon as its row is placed, for a block of candidates at a time on
    sp2's step matrices; the candidates that pass go on, in order, to rank
    pruning, which discards dependent prefixes.  The first full matrix g
    with det(g) = +-1 is the witness.

    The caller must have established that the two staircase multisets are
    equal, as `cohomology_isomorphic_bounded` does before it searches.  Then
    the substitution by g^-1 sends sp2's relations to zero in sp1, and needs
    no check of its own:
    - the substitution phi: x_i -> sum_j g_ij y_j sends every relation of
      sp1 to zero in sp2, exactly, so it induces a graded ring map R1 -> R2;
    - phi is onto: g is invertible over Z, so each y_j is the image of a
      linear form;
    - `RingPresentation` validates monic leading terms x_i^(l_i) and
      triangular tails, so the staircase monomials are a Z-basis of each
      ring in each degree, and equal staircase multisets give equal ranks
      degree by degree;
    - a surjective Z-linear map between free modules of equal finite rank
      is bijective, so phi is an isomorphism, and g^-1 gives its inverse.
    """
    k = sp1.k
    candidates = _candidate_array(k, bound)
    # sp2's relations are products of linear forms, so its steps are graded;
    # their entries are small (at most 30 over every class ring with n <= 9).
    steps, _ = _step_matrices(sp2, max(len(facs) for facs in sp1.factors))
    rows: list[tuple[int, ...] | None] = [None] * k

    def place(i: int):
        factors = sp1.factors[i]
        for start in range(0, len(candidates), _BLOCK):
            block = candidates[start : start + _BLOCK]
            block = block[_relation_vanishes_batch(factors, i, rows, block, steps)]
            for cand in map(tuple, block.tolist()):
                rows[i] = cand
                if rank(rows[i:]) != k - i:
                    continue
                if i:
                    found = place(i - 1)
                    if found:
                        return found
                elif abs(det(rows)) == 1:
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
    definitive; UNKNOWN only reflects the bound, a grid of forms larger
    than `_MAX_GRID` that the fingerprints or the search would need, or a
    vertex with more than 255 children, which canonical codes cannot hold.
    A staircase NO builds no tree and any other pair builds each once, but
    a pair of different classes takes both fingerprints from `fingerprint`,
    which builds each tree once more.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    # One generator per internal vertex, its child count as exponent.
    ell1, ell2 = (sorted(map(len, nesting(d).values())) for d in (d1, d2))
    k = len(ell1)
    if k != len(ell2):
        return IsoVerdict("NO", f"generator counts differ: {k} vs {len(ell2)}")
    if ell1 != ell2:
        return IsoVerdict(
            "NO", f"staircase exponent multisets differ: {ell1} vs {ell2}"
        )
    t1, t2 = dissection_to_tree(d1), dissection_to_tree(d2)
    # Equal codes give equal fingerprints by construction, so only trees of
    # different classes have fingerprints worth comparing.
    try:
        same_class = canonical_code(t1) == canonical_code(t2)
        _check_points(k, max(bound, 0 if same_class else ell1[-1]), _MAX_GRID)
    except ValueError as exc:
        return IsoVerdict("UNKNOWN", str(exc))
    if not same_class:
        fp1, fp2 = fingerprint(d1), fingerprint(d2)
        fields = [
            f
            for f in Fingerprint.__dataclass_fields__
            if getattr(fp1, f) != getattr(fp2, f)
        ]
        if fields:
            return IsoVerdict("NO", f"fingerprints differ in {', '.join(fields)}")
    if bound:
        witness = _gl_witness(schroeder_presentation(t1), schroeder_presentation(t2), bound)
        if witness is not None:
            return IsoVerdict(
                "YES", f"unimodular substitution with entries in [-{bound}, {bound}]", witness
            )
    return IsoVerdict("UNKNOWN", f"no witness within coefficient bound {bound}")


class _Report:
    """What the report dataclasses below share: they pass when no check
    failed, and serialise their own fields."""

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        """The fields in declaration order, tuples as lists, then ok."""
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        doc["ok"] = self.ok
        return doc


@dataclass(frozen=True)
class TheoremOneReport(_Report):
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


def verify_theorem1(n: int, k: int, gl_bound: int | None = None) -> TheoremOneReport:
    """Check that ring fingerprints classify the varieties with k cells.

    Valid for k <= 3 and for k = n, where rings determine varieties.  Every
    pair of distinct classes must have distinct fingerprints, and the class
    count must match the recurrence table.  With `gl_bound`, additionally
    search for a ring isomorphism witness from every dissection to its
    class representative.  A slice outside that scope, or one whose
    fingerprints need a grid past `_MAX_POINTS` points, raises ValueError.
    """
    if not (k <= 3 or k == n):
        raise ValueError("classification is checked for k <= 3 or k = n")
    # The slice's widest class, one vertex with n - k + 2 children and the
    # others with two, has the largest fingerprint grid; refuse before
    # generating any class.
    _check_points(k, n - k + 2, _MAX_POINTS)
    failures = []
    trees = class_trees(n, k)
    expected = riordan_table(n + 1).s(n + 1, k)
    if len(trees) != expected:
        failures.append(
            f"found {len(trees)} classes, recurrence table gives {expected}"
        )

    # One canonical representative and one fingerprint per class.
    reps = sorted(
        ((tree_to_dissection(tree), tree) for tree in trees),
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
        members: dict[bytes, list[Dissection]] = {}
        for d in enumerate_dissections(n, k):
            members.setdefault(canonical_code(dissection_to_tree(d)), []).append(d)
        for rep, tree in reps:
            for d in members[canonical_code(tree)]:
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
        class_count=len(trees),
        expected_count=expected,
        dissection_count=kirkman_cayley(n, k),
        searches=searches,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class UniformTreeReport(_Report):
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


def verify_prop_further(ell: int, internal: int) -> UniformTreeReport:
    """Check the power dichotomy on trees with constant out-degree `ell`.

    For every class: the generators at vertices whose children are all
    leaves satisfy x^ell = 0, no other generator does, and no primitive
    linear form with at least two nonzero coefficients in [-ell, ell] has
    vanishing ell-th power.  Classes with different counts of such vertices
    must then be separated by ring data alone.  Requires ell >= 3 and at
    least four internal vertices.
    """
    if ell <= 2:
        raise ValueError("the power dichotomy needs out-degree at least 3")
    if internal < 4:
        raise ValueError("at least four internal vertices are required")
    n = internal * (ell - 1)

    failures = []
    data = []
    for _, shape in _canonical_shapes(n + 1, ell):
        ring, vectors, table = _class_table(SchroederTree(shape))
        powers = dict(zip(map(tuple, vectors.tolist()), table))
        # A generator named by a side belongs to a vertex with only leaf
        # children: the tree is canonical.
        for i, (a, b) in enumerate(ring.labels):
            unit = tuple(int(t == i) for t in range(ring.k))
            if (powers[unit] <= ell) != (b - a == 1):
                failures.append(
                    f"generator {i} of {shape} breaks the power dichotomy"
                )
        for vec, p in powers.items():
            if p <= ell and sum(1 for c in vec if c) >= 2:
                failures.append(
                    f"mixed form {vec} on {shape} has vanishing power {p}"
                )
        data.append(_table_fingerprint(ring, vectors, table))

    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            if data[i].l_size != data[j].l_size and data[i].ring_data == data[j].ring_data:
                failures.append(
                    f"classes {i} and {j} differ in leaf-children count "
                    "but share all ring data"
                )
    return UniformTreeReport(
        ell=ell,
        internal=internal,
        n=n,
        class_count=len(data),
        l_sizes=tuple(fp.l_size for fp in data),
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
