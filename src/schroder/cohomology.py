"""Cohomology rings of the varieties, by two independent routes.

The tree route writes the ring directly from a Schroeder tree: one
generator per internal vertex, named by its rightmost child's label, and
one relation per internal vertex built from sums over descendant sets.
The fan route starts from the Danilov-Jurkiewicz presentation, with one
generator per ray, and eliminates the redundant generators through the
linear relations.  The two outputs are compared term by term in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .combinatorics import Edge, Path, SchroederTree, phi_labels
from .errors import InternalError
from .fan import Fan, check_primitive_with, omission_masks
from .polyring import IntPolynomial, RingPresentation, hilbert_series


def _matching_descendants(tree: SchroederTree, labels, v: Path) -> list[Path]:
    """Proper descendants of v, top down, whose label ends where v's does.

    A label ends at the last leaf below its vertex, and leaves are numbered
    left to right, so these are the vertices of v's rightmost chain.
    """
    found: list[Path] = []
    path, node = v, tree.subtree(v)
    while node:
        path += (len(node) - 1,)
        node = node[-1]
        found.append(path)
    if any(labels[u][1] != labels[v][1] for u in found):
        raise InternalError(f"the rightmost chain below {v} leaves its label")
    return found


def descendant_set(tree: SchroederTree, v: Path) -> frozenset[Path]:
    """Proper descendants of v sharing the second coordinate of v's label.

    Empty for leaves.  These are the vertices whose generators appear in
    the sums the relations are built from.
    """
    return frozenset(_matching_descendants(tree, phi_labels(tree), v))


@dataclass(frozen=True)
class SchroederPresentation(RingPresentation):
    """Ring presentation remembering which tree vertex produced what.

    ``vertices`` lists the internal vertices in preorder, ``labels`` the
    rightmost-child label naming each generator, and ``factors`` the linear
    forms (as coefficient vectors) whose product is each relation.
    """

    vertices: tuple[Path, ...]
    labels: tuple[Edge, ...]
    factors: tuple = field(repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "factors", tuple(self.factors))
        if not len(self.vertices) == len(self.labels) == len(self.factors) == self.k:
            raise ValueError("per-generator metadata must match generator count")


def _gen_data(tree: SchroederTree):
    """Labels, internal vertices, generators and their index, and ``lam(v)``:
    the memoised sum of the generators named by descendant_set(tree, v)."""
    labels = phi_labels(tree)
    internal = tuple(tree.internal_preorder())
    if not internal:
        raise ValueError("a tree with no internal vertex presents no ring")
    gen_labels = tuple(labels[p + (tree.arity(p) - 1,)] for p in internal)
    gen_index = {lab: i for i, lab in enumerate(gen_labels)}

    @cache
    def lam(v: Path) -> tuple[int, ...]:
        vec = [0] * len(internal)
        for u in _matching_descendants(tree, labels, v):
            vec[gen_index[labels[u]]] += 1
        return tuple(vec)

    return labels, internal, gen_labels, gen_index, lam


def _expand(k: int, vecs) -> IntPolynomial:
    """The product of the linear forms with coefficient vectors ``vecs``,
    multiplied out factor by factor into one term dict, each factor read
    from its nonzero entries only."""
    terms = {(0,) * k: 1}
    for vec in vecs:
        nonzero = [(t, c) for t, c in enumerate(vec) if c]
        out: dict[tuple[int, ...], int] = {}
        for exp, coef in terms.items():
            for t, c in nonzero:
                new = exp[:t] + (exp[t] + 1,) + exp[t + 1 :]
                c = out.pop(new, 0) + coef * c
                if c:
                    out[new] = c
        terms = out
    return IntPolynomial._raw(k, terms)


def _presentation(tree: SchroederTree, internal, gen_labels, factors):
    """Multiply out each relation's linear factors; attach the vertex data."""
    return SchroederPresentation(
        gens=tuple(f"x{a}_{b}" for a, b in gen_labels),
        relations=tuple(_expand(len(internal), vecs) for vecs in factors),
        staircase=tuple(tree.arity(p) for p in internal),
        vertices=internal,
        labels=gen_labels,
        factors=tuple(tuple(vecs) for vecs in factors),
    )


def schroeder_presentation(tree: SchroederTree) -> SchroederPresentation:
    """One generator and one relation per internal vertex, in preorder.

    The relation of vertex v with children w_1..w_l is the generator of v
    times, for each j < l, the difference of descendant sums over v and
    over w_j.  Expanded, it carries the generator's l-th power with
    coefficient +1, which is what staircase reduction needs.
    """
    _, internal, gen_labels, _, lam = _gen_data(tree)
    k = len(internal)
    factors = []
    for i, p in enumerate(internal):
        top = lam(p)
        vecs = [tuple(1 if t == i else 0 for t in range(k))]
        for j in range(tree.arity(p) - 1):
            vecs.append(tuple(a - b for a, b in zip(top, lam(p + (j,)))))
        factors.append(vecs)
    return _presentation(tree, internal, gen_labels, factors)


@dataclass(frozen=True)
class DJPresentation:
    """Danilov-Jurkiewicz data: one generator per ray of the fan.

    ``collections`` are the primitive collections as sorted ray-index
    tuples, each standing for the square-free monomial relation over its
    rays; ``linear`` are the n forms pairing every ray vector with one
    basis direction.
    """

    n: int
    edges: tuple[Edge, ...]
    collections: tuple[tuple[int, ...], ...]
    linear: tuple[IntPolynomial, ...]

    def __post_init__(self):
        if len(self.linear) != self.n:
            raise ValueError(f"expected {self.n} linear relations")
        for form in self.linear:
            if form.nvars != len(self.edges):
                raise ValueError("linear relations must use one variable per ray")
        for coll in self.collections:
            if not all(0 <= i < len(self.edges) for i in coll):
                raise ValueError(f"collection {coll} uses unknown rays")

    @property
    def gens(self) -> tuple[str, ...]:
        return tuple(f"x{a}_{b}" for a, b in self.edges)

    def monomial_relation(self, i: int) -> IntPolynomial:
        poly = IntPolynomial.constant(len(self.edges), 1)
        for ray in self.collections[i]:
            poly = poly * IntPolynomial.variable(len(self.edges), ray)
        return poly


def dj_presentation(f: Fan) -> DJPresentation:
    """Read the presentation off the fan alone.

    Primitive collections are recovered from the maximal cones: two rays
    belong to the same collection exactly when no maximal cone omits both,
    i.e. when their omission masks (one pass over the cones) are disjoint.
    The resulting classes are verified to be primitive against the same
    masks before they are returned.
    """
    m = len(f.rays)
    omits, in_a_cone = omission_masks(f.max_cones, m)
    classes: list[tuple[int, ...]] = []
    owner: dict[int, int] = {}
    for i in range(m):
        if i in owner:
            continue
        cls = [j for j in range(m) if j == i or not omits[i] & omits[j]]
        for j in cls:
            if j in owner:
                raise InternalError("co-omission classes do not partition the rays")
            owner[j] = len(classes)
        classes.append(tuple(cls))
    for cls in classes:
        check_primitive_with(frozenset(cls), in_a_cone)
    linear = tuple(
        IntPolynomial.linear([f.rays[i][d] for i in range(m)]) for d in range(f.n)
    )
    return DJPresentation(f.n, f.edges, tuple(classes), linear)


def eliminate(dj: DJPresentation, tree: SchroederTree) -> SchroederPresentation:
    """Substitute away every generator that is not a rightmost child.

    A non-rightmost vertex's variable equals the descendant sum of its
    parent minus its own; rightmost-child variables are kept verbatim.
    After substitution every linear relation must cancel identically, and
    each monomial relation, matched to its cell through the child labels,
    becomes one relation of the tree presentation.
    """
    labels, internal, gen_labels, gen_index, lam = _gen_data(tree)
    k = len(internal)
    vertex_by_label = {labels[p]: p for p in tree.preorder() if p != ()}

    substitution: dict[Edge, tuple[int, ...]] = {}
    for e in dj.edges:
        v = vertex_by_label.get(e)
        if v is None:
            raise InternalError(f"edge {e} is not a vertex label of the tree")
        parent, slot = v[:-1], v[-1]
        if slot == tree.arity(parent) - 1:
            substitution[e] = tuple(
                1 if t == gen_index[e] else 0 for t in range(k)
            )
        else:
            substitution[e] = tuple(
                a - b for a, b in zip(lam(parent), lam(v))
            )

    for form in dj.linear:
        acc = [0] * k
        for exp, coef in form.terms.items():
            vec = substitution[dj.edges[exp.index(1)]]
            for t, c in enumerate(vec):
                acc[t] += coef * c
        if any(acc):
            raise InternalError("a linear relation fails to vanish under substitution")

    if len(dj.collections) != k:
        raise InternalError(
            f"{len(dj.collections)} monomial relations for {k} internal vertices"
        )
    by_edge_set = {
        frozenset(dj.edges[i] for i in coll): coll for coll in dj.collections
    }
    factors = []
    for p in internal:
        kids = [labels[p + (c,)] for c in range(tree.arity(p))]
        if frozenset(kids) not in by_edge_set:
            raise InternalError(f"no monomial relation matches the cell of vertex {p}")
        factors.append([substitution[kids[-1]]] + [substitution[e] for e in kids[:-1]])
    return _presentation(tree, internal, gen_labels, factors)


def betti_profile(tree: SchroederTree) -> tuple[int, ...]:
    """Graded ranks of the quotient: the staircase count in each degree."""
    return hilbert_series(schroeder_presentation(tree))
