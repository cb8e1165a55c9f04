"""Complete smooth fans attached to dissections.

Every edge of the dissected polygon except the distinguished one contributes
a ray; cells contribute bundles of maximal cones.  The fan is built twice,
by iterated stellar subdivision and by writing the cones down directly, and
the two results are compared structurally in tests.  Primitive collections
and their relations then certify the Fano property.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ._matrix import det
from .combinatorics import Dissection, Edge
from .errors import InternalError


class FanStructureError(ValueError):
    """A fan value violates its structural contract."""


def ray_vector(n: int, edge: Edge) -> tuple[int, ...]:
    """The vector e_j - e_i for the edge {i, j}, with e_0 = e_{n+1} = 0."""
    i, j = edge
    v = [0] * n
    if 1 <= i <= n:
        v[i - 1] -= 1
    if 1 <= j <= n:
        v[j - 1] += 1
    return tuple(v)


def edge_order(d: Dissection) -> tuple[Edge, ...]:
    """Global edge index: sides {0,1}..{n,n+1}, then diagonals outermost first.

    Sorting diagonals by (left endpoint, -right endpoint) lists every span
    before the spans nested inside it, left to right; this is the depth-first
    order of the nesting forest and the order subdivision consumes them in.
    """
    sides = tuple((i, i + 1) for i in range(d.n + 1))
    return sides + tuple(sorted(d.diagonals, key=lambda e: (e[0], -e[1])))


def _cells(d: Dissection) -> list[tuple[Edge, list[Edge]]]:
    """(distinguished edge, remaining edges) for each cell of the dissection.

    The cell under edge {a, b} is bounded by {a, b} together with the edges
    immediately nested inside its span; {0, n+1} bounds the outermost cell.
    Cells are listed with the outermost first, then by diagonal in the
    edge_order sense.
    """
    holders = [(0, d.n + 1)] + sorted(d.diagonals, key=lambda e: (e[0], -e[1]))
    members: dict[Edge, list[Edge]] = {h: [] for h in holders}
    edges = [(i, i + 1) for i in range(d.n + 1)] + list(d.diagonals)
    for e in edges:
        best = None
        for h in holders:
            if h != e and h[0] <= e[0] and e[1] <= h[1]:
                if best is None or (best[0] <= h[0] and h[1] <= best[1]):
                    best = h
        members[best].append(e)
    return [(h, members[h]) for h in holders]


@dataclass(frozen=True)
class Fan:
    """Rational fan with rays indexed by polygon edges.

    ``edges[i]`` is the polygon edge behind ray i, ``rays[i]`` its vector,
    and ``max_cones`` the family of maximal cones as ray-index sets.
    """

    n: int
    edges: tuple[Edge, ...]
    rays: tuple[tuple[int, ...], ...]
    max_cones: frozenset[frozenset[int]]

    def __post_init__(self):
        if len(self.edges) != len(self.rays):
            raise FanStructureError("one ray per edge required")
        for v in self.rays:
            if len(v) != self.n:
                raise FanStructureError(
                    f"ray {v} has length {len(v)}, expected {self.n}"
                )
        for cone in self.max_cones:
            if not all(0 <= i < len(self.rays) for i in cone):
                raise FanStructureError(f"cone {sorted(cone)} uses unknown rays")

    def to_json(self):
        return {
            "n": self.n,
            "rays": [
                {"edge": list(e), "vector": list(v)}
                for e, v in zip(self.edges, self.rays)
            ],
            "max_cones": sorted(sorted(c) for c in self.max_cones),
        }

    @staticmethod
    def from_json(doc) -> "Fan":
        try:
            edges = tuple((int(r["edge"][0]), int(r["edge"][1])) for r in doc["rays"])
            rays = tuple(tuple(int(x) for x in r["vector"]) for r in doc["rays"])
            cones = frozenset(frozenset(c) for c in doc["max_cones"])
            return Fan(int(doc["n"]), edges, rays, cones)
        except (KeyError, TypeError, IndexError) as exc:
            raise FanStructureError(f"malformed fan document: {exc}") from exc


def build_fan_direct(d: Dissection) -> Fan:
    """Write the maximal cones down cell by cell.

    The cell edge sets partition the rays, and a ray set is a cone exactly
    when it misses at least one edge of every cell, so the maximal cones are
    the complements of one-edge-per-cell transversals.
    """
    edges = edge_order(d)
    index = {e: i for i, e in enumerate(edges)}
    cells = [frozenset(index[e] for e in rest) for _, rest in _cells(d)]
    everything = frozenset(range(len(edges)))
    cones = frozenset(everything - frozenset(drop) for drop in product(*cells))
    rays = tuple(ray_vector(d.n, e) for e in edges)
    return Fan(d.n, edges, rays, cones)


def build_fan_subdivision(d: Dissection) -> Fan:
    """Subdivide the fan of projective n-space once per diagonal.

    The starting cones are the n-subsets of the n+1 sides.  Each diagonal
    {a, b} adds its ray in the middle of the cone over sides a..b-1 (their
    vectors telescope to e_b - e_a), splitting every maximal cone that
    contains the full face.  Outer diagonals go first so the face is still
    present when its diagonal arrives.
    """
    n = d.n
    edges = [(i, i + 1) for i in range(n + 1)]
    sides = frozenset(range(n + 1))
    cones = {sides - {i} for i in range(n + 1)}
    for a, b in sorted(d.diagonals, key=lambda e: (e[0], -e[1])):
        new = len(edges)
        edges.append((a, b))
        face = frozenset(range(a, b))
        split = [c for c in cones if face <= c]
        if not split:
            raise InternalError(f"face for diagonal {(a, b)} is not a cone")
        cones.difference_update(split)
        for c in split:
            for f in face:
                cones.add((c - {f}) | {new})
    rays = tuple(ray_vector(n, e) for e in edges)
    return Fan(n, tuple(edges), rays, frozenset(cones))


def is_smooth(f: Fan) -> bool:
    """Whether every maximal cone's rays form a basis of the lattice."""
    for cone in f.max_cones:
        if len(cone) != f.n:
            raise FanStructureError(
                f"maximal cone {sorted(cone)} has {len(cone)} rays in dimension {f.n}"
            )
        if abs(det([list(f.rays[i]) for i in sorted(cone)])) != 1:
            return False
    return True


def check_primitive(coll: frozenset[int], cones) -> None:
    """Raise InternalError unless ``coll`` is a primitive collection: inside
    none of the maximal ``cones``, yet inside one after dropping any element."""
    if any(coll <= cone for cone in cones):
        raise InternalError(f"collection {sorted(coll)} lies in a cone")
    for x in coll:
        sub = coll - {x}
        if not any(sub <= cone for cone in cones):
            raise InternalError(f"proper subset {sorted(sub)} is not a cone")


def primitive_collections(d: Dissection) -> tuple[frozenset[int], ...]:
    """The cell edge sets, as ray-index sets, outermost cell first.

    Each returned set is checked with check_primitive against the cones
    of build_fan_direct.
    """
    edges = edge_order(d)
    index = {e: i for i, e in enumerate(edges)}
    collections = tuple(
        frozenset(index[e] for e in rest) for _, rest in _cells(d)
    )
    cones = build_fan_direct(d).max_cones
    for coll in collections:
        check_primitive(coll, cones)
    return collections


@dataclass(frozen=True)
class PrimitiveRelation:
    """Sum of a collection's ray vectors, written in rays of the fan.

    ``rhs`` is a sorted tuple of (ray index, coefficient) pairs; empty means
    the sum is zero.  ``degree`` is the collection size minus the sum of the
    right-hand coefficients.
    """

    collection: frozenset[int]
    rhs: tuple[tuple[int, int], ...]
    degree: int


def primitive_relation(d: Dissection, collection: frozenset[int]) -> PrimitiveRelation:
    """Relation for one collection: zero for the outermost cell, else the
    single ray of the cell's distinguished edge, checked by exact vector
    arithmetic."""
    edges = edge_order(d)
    index = {e: i for i, e in enumerate(edges)}
    cells = {frozenset(index[e] for e in rest) for _, rest in _cells(d)}
    if collection not in cells:
        raise ValueError(f"{sorted(collection)} is not a primitive collection")
    span = set()
    for i in collection:
        span.update(edges[i])
    claimed = (min(span), max(span))
    total = [0] * d.n
    for i in collection:
        for m, x in enumerate(ray_vector(d.n, edges[i])):
            total[m] += x
    if claimed == (0, d.n + 1):
        rhs: tuple[tuple[int, int], ...] = ()
        expected = [0] * d.n
    else:
        rhs = ((edges.index(claimed), 1),)
        expected = list(ray_vector(d.n, claimed))
    if total != expected:
        raise InternalError(
            f"ray sum of {sorted(collection)} is {total}, expected {expected}"
        )
    return PrimitiveRelation(collection, rhs, len(collection) - len(rhs))


@dataclass(frozen=True)
class FanoCertificate:
    """Per-collection primitive relations; truthy iff all degrees positive."""

    edges: tuple[Edge, ...]
    relations: tuple[PrimitiveRelation, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.relations)

    def __bool__(self) -> bool:
        return all(r.degree > 0 for r in self.relations)

    def to_json(self):
        return {
            "fano": bool(self),
            "relations": [
                {
                    "collection": sorted(list(self.edges[i]) for i in r.collection),
                    "rhs": [[list(self.edges[i]), c] for i, c in r.rhs],
                    "degree": r.degree,
                }
                for r in self.relations
            ],
        }


def is_fano(d: Dissection) -> FanoCertificate:
    """Certificate that the variety of the dissection is Fano."""
    relations = tuple(
        primitive_relation(d, coll) for coll in primitive_collections(d)
    )
    return FanoCertificate(edge_order(d), relations)
