"""Cohomology rings of the varieties, by two independent routes.

The tree route writes the ring directly from a Schroeder tree, read off
the nesting of its dissection (combinatorics.nesting): one generator per
internal vertex, named by its rightmost child's label, and one relation
per internal vertex built from sums over descendant sets.
The fan route reads the Danilov-Jurkiewicz presentation off the fan alone
and checks it against the tree's change of variables (`_gen_data`) as it
eliminates the redundant generators; tests compare the two outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .combinatorics import (
    Edge,
    Path,
    SchroederTree,
    nesting,
    phi_labels,
    tree_to_dissection,
)
from .errors import InternalError
from .fan import Fan, check_primitive_with, omission_masks
from .polyring import IntPolynomial, RingPresentation, hilbert_series


def descendant_set(tree: SchroederTree, v: Path) -> frozenset[Path]:
    """Proper descendants of v sharing the second coordinate of v's label.

    Empty for leaves.  These are the vertices whose generators appear in
    the sums the relations are built from.
    """
    labels = phi_labels(tree)
    end = labels[v][1]
    return frozenset(
        u
        for u, (_, b) in labels.items()
        if len(u) > len(v) and u[: len(v)] == v and b == end
    )


@dataclass(frozen=True)
class SchroederPresentation(RingPresentation):
    """Ring presentation remembering which tree vertex produced what.

    Generator i is the i-th key of the dissection's nesting, named by
    ``labels[i]``, that vertex's last child; ``factors`` are the linear
    forms (as coefficient vectors) whose product is each relation.
    """

    labels: tuple[Edge, ...]
    factors: tuple = field(repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "factors", tuple(self.factors))
        if not len(self.labels) == len(self.factors) == self.k:
            raise ValueError("per-generator metadata must match generator count")


def _gen_data(tree: SchroederTree):
    """The nesting of the tree's dissection, keyed by the internal vertices
    in preorder, and the image of every child edge, sides included, as a
    coefficient vector over the tree generators.

    Generator i belongs to the i-th key and is named by its last child, so
    that child maps to e_i.  Any other child c of edge e maps to
    ``lam(e) - lam(c)``, where ``lam(e)`` sums the generators on e's
    rightmost chain, e's own included, 0 for a side: the generators named
    by the descendant set of e's vertex.
    """
    nest = nesting(tree_to_dissection(tree))
    k = len(nest)
    chain: dict[Edge, tuple[int, ...]] = {}
    for i, (e, kids) in reversed(tuple(enumerate(nest.items()))):
        chain[e] = (i,) + chain.get(kids[-1], ())

    def lam(e: Edge) -> tuple[int, ...]:
        vec = [0] * k
        for i in chain.get(e, ()):
            vec[i] = 1
        return tuple(vec)

    image: dict[Edge, tuple[int, ...]] = {}
    for i, (e, kids) in enumerate(nest.items()):
        top = lam(e)
        image[kids[-1]] = tuple(1 if t == i else 0 for t in range(k))
        for c in kids[:-1]:
            image[c] = tuple(a - b for a, b in zip(top, lam(c)))
    return nest, image


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


def _presentation(nest, image):
    """Multiply out each vertex's factors, the images of its last child and
    then of the others in order; attach the labels and factors."""
    labels = tuple(kids[-1] for kids in nest.values())
    factors = tuple(
        tuple(image[c] for c in (kids[-1], *kids[:-1])) for kids in nest.values()
    )
    return SchroederPresentation(
        gens=tuple(f"x{a}_{b}" for a, b in labels),
        relations=tuple(_expand(len(nest), vecs) for vecs in factors),
        staircase=tuple(len(kids) for kids in nest.values()),
        labels=labels,
        factors=factors,
    )


def schroeder_presentation(tree: SchroederTree) -> SchroederPresentation:
    """One generator and one relation per internal vertex, in preorder.

    The relation of vertex v with children w_1..w_l is the generator of v
    times, for each j < l, the difference of descendant sums over v and
    over w_j.  Expanded, it carries the generator's l-th power with
    coefficient +1, which is what staircase reduction needs.
    """
    return _presentation(*_gen_data(tree))


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

    Each ray's variable goes to its edge's image under `_gen_data`.  Every
    ray must be an edge of the tree, every linear relation must cancel
    after substitution, and the monomial relations must match the internal
    vertices' cells one to one, through the child labels.
    """
    nest, image = _gen_data(tree)
    k = len(nest)
    for e in dj.edges:
        if e not in image:
            raise InternalError(f"edge {e} is not a vertex label of the tree")

    for form in dj.linear:
        acc = [0] * k
        for exp, coef in form.terms.items():
            vec = image[dj.edges[exp.index(1)]]
            for t, c in enumerate(vec):
                acc[t] += coef * c
        if any(acc):
            raise InternalError("a linear relation fails to vanish under substitution")

    if len(dj.collections) != k:
        raise InternalError(
            f"{len(dj.collections)} monomial relations for {k} internal vertices"
        )
    edge_sets = {frozenset(dj.edges[i] for i in coll) for coll in dj.collections}
    for e, kids in nest.items():
        if frozenset(kids) not in edge_sets:
            raise InternalError(f"no monomial relation matches the cell inside {e}")
    return _presentation(nest, image)


def betti_profile(tree: SchroederTree) -> tuple[int, ...]:
    """Graded ranks of the quotient: the staircase count in each degree."""
    return hilbert_series(schroeder_presentation(tree))
