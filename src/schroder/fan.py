"""Complete smooth fans attached to dissections.

Every edge of the dissected polygon except the distinguished one contributes
a ray; cells contribute bundles of maximal cones.  The fan is built twice,
by iterated stellar subdivision and by writing the cones down directly, and
the two results are compared structurally in tests.  Primitive collections
and their relations then certify the Fano property.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from ._matrix import det
from .combinatorics import Dissection, Edge, nesting
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

    The diagonals come in the key order of combinatorics.nesting: every span
    before the spans nested inside it, left to right, which is the order
    subdivision consumes them in.
    """
    return _cells(d)[0]


def _cells(
    d: Dissection,
) -> tuple[tuple[Edge, ...], dict[Edge, int], tuple[frozenset[int], ...]]:
    """(edges, index, cells) from one combinatorics.nesting pass: the edges
    in edge_order, each edge's ray number, and each cell's edges but its
    distinguished one as ray-number sets.

    The cell under edge {a, b} is bounded by {a, b} together with the edges
    directly inside its span, which nesting lists; {0, n+1} bounds the
    outermost cell.  Cells are listed with the outermost first, then by
    diagonal in the edge_order sense.

    The cells are checked to partition the rays into nonempty sets.  That
    makes every cell a primitive collection of the fan of build_fan_direct,
    whose cones are the ray sets that miss some ray of every cell: a cell
    misses none of its own rays, so it lies in no cone, while the cell minus
    any ray x misses x and, disjoint from the other nonempty cells, misses a
    ray of each of them too.
    """
    nest = nesting(d)
    edges = tuple((i, i + 1) for i in range(d.n + 1)) + tuple(nest)[1:]
    index = {e: i for i, e in enumerate(edges)}
    cells = tuple(frozenset(map(index.__getitem__, kids)) for kids in nest.values())
    m = len(edges)
    # m memberships that cover all m rays leave no ray in two cells.
    if not all(cells) or sum(map(len, cells)) != m or set().union(*cells) != set(range(m)):
        raise InternalError(f"cells do not partition the {m} rays into nonempty sets")
    return edges, index, cells


@dataclass(frozen=True)
class Fan:
    """Rational fan with rays indexed by polygon edges.

    ``edges[i]`` is the polygon edge behind ray i, ``rays[i]`` its vector,
    and ``max_cones`` the family of maximal cones as ray bitmasks: bit i of
    a cone is set when ray i is in it.
    """

    n: int
    edges: tuple[Edge, ...]
    rays: tuple[tuple[int, ...], ...]
    max_cones: frozenset[int]

    def __post_init__(self):
        if len(self.edges) != len(self.rays):
            raise FanStructureError("one ray per edge required")
        for v in self.rays:
            if len(v) != self.n:
                raise FanStructureError(
                    f"ray {v} has length {len(v)}, expected {self.n}"
                )
        limit = 1 << len(self.rays)
        cones = self.max_cones
        if cones and (min(cones) < 0 or max(cones) >= limit):
            bad = next(c for c in cones if not 0 <= c < limit)
            if bad < 0:
                raise FanStructureError(f"cone mask {bad} is negative")
            raise FanStructureError(f"cone {ray_list(bad)} uses unknown rays")


def ray_list(cone: int) -> list[int]:
    """The rays of a cone bitmask, ascending."""
    return [i for i in range(cone.bit_length()) if cone >> i & 1]


def build_fan_direct(d: Dissection) -> Fan:
    """Write the maximal cones down cell by cell.

    The cell edge sets partition the rays, and a ray set is a cone exactly
    when it misses at least one edge of every cell, so the maximal cones are
    the complements of one-edge-per-cell transversals: all rays, with one
    bit per cell cleared.
    """
    edges, _, cells = _cells(d)
    cones = [(1 << len(edges)) - 1]
    for cell in cells:
        bits = [1 << i for i in cell]
        cones = [c ^ b for c in cones for b in bits]
    rays = tuple(ray_vector(d.n, e) for e in edges)
    return Fan(d.n, edges, rays, frozenset(cones))


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
    sides = (1 << (n + 1)) - 1
    cones = {sides ^ (1 << i) for i in range(n + 1)}
    for a, b in sorted(d.diagonals, key=lambda e: (e[0], -e[1])):
        new = 1 << len(edges)
        edges.append((a, b))
        face = (1 << b) - (1 << a)  # the sides a..b-1
        split = [c for c in cones if c & face == face]
        if not split:
            raise InternalError(f"face for diagonal {(a, b)} is not a cone")
        cones.difference_update(split)
        # Swap one side f of the face for the new ray: c ^ (f | new).
        swaps = [new | 1 << f for f in range(a, b)]
        cones.update(c ^ s for c in split for s in swaps)
    rays = tuple(ray_vector(n, e) for e in edges)
    return Fan(n, tuple(edges), rays, frozenset(cones))


def _graph_edges(rays) -> list[tuple[int, int]] | None:
    """Each ray as a graph edge (tail, head) on the vertices 0..n, or None.

    A ray with entries in {0, +-1}, at most one +1 and at most one -1, is
    e_head - e_tail with e_0 = 0: head is the index of its +1 (or 0), tail
    the index of its -1 (or 0).  The zero ray is the loop (0, 0).
    """
    edges = []
    for v in rays:
        if not set(v) <= {-1, 0, 1} or v.count(1) > 1 or v.count(-1) > 1:
            return None
        edges.append(
            (v.index(-1) + 1 if -1 in v else 0, v.index(1) + 1 if 1 in v else 0)
        )
    return edges


def _ray_columns(cones: list[int], m: int) -> list[int]:
    """For each ray i < m, the cones among ``cones`` (ray bitmasks below
    1 << m) that contain it, as a bitmask with bit c standing for cones[c].

    The cones are laid out as one byte matrix, one row of w = 8 * ceil(m/8)
    bits per cone, the last cone first.  Written in binary, ray i's column
    is the strided slice of the digits that starts w - 1 - i digits in, and
    read in base 2 it has cones[0] as its lowest bit.
    """
    width = -(-m // 8)
    w = 8 * width
    rows = b"".join(map(int.to_bytes, reversed(cones), repeat(width), repeat("big")))
    digits = bin(int.from_bytes(rows, "big") | 1 << w * len(cones))[3:]
    return [int(digits[w - 1 - i :: w] or "0", 2) for i in range(m)]


def _connected_in_every_cone(edges, columns: list[int], n: int, full: int) -> bool:
    """Whether in every cone the graph edges of its rays connect the
    vertices 0..n, given ``columns`` as from _ray_columns and ``full`` the
    set of all cones.

    reach[v] is the set of cones in which vertex v is reached from vertex
    0.  A ray's edge carries reach from either end to the other within the
    cones that contain the ray.  Every sweep over the rays that changes
    anything reaches at least one more (vertex, cone) pair, so the sweeps
    stop.
    """
    reach = [0] * (n + 1)
    reach[0] = full
    changed = True
    while changed:
        changed = False
        for (a, b), column in zip(edges, columns):
            ra, rb = reach[a], reach[b]
            if (ra ^ rb) & column:
                reach[a] = ra | rb & column
                reach[b] = rb | ra & column
                changed = True
    return all(r == full for r in reach)


def is_smooth(f: Fan) -> bool:
    """Whether every maximal cone's rays form a basis of the lattice.

    When every ray is a graph edge (see _graph_edges), a cone's n rays are
    the rows of the incidence matrix of a directed graph on the vertices
    0..n with the column of vertex 0 deleted.  That matrix is totally
    unimodular, and its determinant is +-1 exactly when the n edges form a
    spanning tree, 0 otherwise.  If they close a cycle (a loop and a
    repeated edge are cycles too), the signed sum of the cycle's rows
    vanishes.  If not, the n edges on n + 1 vertices are a spanning tree;
    of its two or more leaves one is not 0, its column holds a single +-1,
    and expanding along that column and deleting the leaf shows det = +-1
    by induction.  n edges on n + 1 vertices form a spanning tree exactly
    when they connect them, so one reachability pass over all cones at
    once, on their ray bitmasks, decides smoothness exactly.  Fans with
    other rays go through the determinant, cone by cone.
    """
    cones = list(f.max_cones)
    if set(map(int.bit_count, cones)) - {f.n}:
        bad = next(c for c in cones if c.bit_count() != f.n)
        raise FanStructureError(
            f"maximal cone {ray_list(bad)} has {bad.bit_count()} rays "
            f"in dimension {f.n}"
        )
    edges = _graph_edges(f.rays)
    if edges is None:
        return all(
            abs(det([list(f.rays[i]) for i in ray_list(c)])) == 1 for c in cones
        )
    columns = _ray_columns(cones, len(f.rays))
    return _connected_in_every_cone(edges, columns, f.n, (1 << len(cones)) - 1)


def omission_masks(cones, m: int):
    """One bitmask per ray i < m: bit c is set when the c-th of ``cones``
    (ray bitmasks below 1 << m) omits ray i.  Also returns a test whether a
    ray set lies in some cone: in cone c exactly when none of its rays is
    omitted by c, so in some cone exactly when the OR of its masks leaves a
    bit clear.
    """
    cones = list(cones)
    full = (1 << len(cones)) - 1
    masks = [full ^ column for column in _ray_columns(cones, m)]

    def in_a_cone(rays) -> bool:
        union = 0
        for i in rays:
            union |= masks[i]
        return union != full

    return masks, in_a_cone


def check_primitive_with(coll: frozenset[int], in_a_cone) -> None:
    """Raise InternalError unless ``coll`` is a primitive collection, given
    a test whether a ray set lies in some maximal cone."""
    if in_a_cone(coll):
        raise InternalError(f"collection {sorted(coll)} lies in a cone")
    for x in coll:
        sub = coll - {x}
        if not in_a_cone(sub):
            raise InternalError(f"proper subset {sorted(sub)} is not a cone")


def primitive_collections(d: Dissection) -> tuple[frozenset[int], ...]:
    """The cell edge sets, as ray-index sets, outermost cell first.

    The cells are checked to partition the rays into nonempty sets, which
    makes each a primitive collection of the fan of build_fan_direct (see
    _cells).
    """
    return _cells(d)[2]


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
    arithmetic.  Each call rebuilds the cells with one `nesting` pass, so a
    loop over every cell is quadratic (3.44 s at n = 1000 on the fan
    triangulation); `is_fano` returns every cell's relation in one linear
    pass."""
    edges, index, cells = _cells(d)
    if collection not in cells:
        raise ValueError(f"{sorted(collection)} is not a primitive collection")
    return _relation(d, edges, index, collection)


def _relation(d: Dissection, edges, index, collection: frozenset[int]) -> PrimitiveRelation:
    """The relation of one cell, in time linear in the cell's size.

    The ray vectors of the cell's edges are summed sparsely, by endpoint
    (e_j - e_i for the edge {i, j}, with e_0 = e_{n+1} = 0), as sorted
    (coordinate, value) pairs of the nonzero entries, and the claimed edge
    is looked up in `index`, the edge -> ray index map of `edges`.
    """
    total: dict[int, int] = {}
    for i in collection:
        a, b = edges[i]
        total[a] = total.get(a, 0) - 1
        total[b] = total.get(b, 0) + 1
    claimed = (min(total), max(total))
    if claimed == (0, d.n + 1):
        rhs: tuple[tuple[int, int], ...] = ()
        expected = []
    else:
        rhs = ((index[claimed], 1),)
        expected = [(m, c) for m, c in zip(claimed, (-1, 1)) if 1 <= m <= d.n]
    got = sorted((m, c) for m, c in total.items() if c and 1 <= m <= d.n)
    if got != expected:
        raise InternalError(
            f"ray sum of {sorted(collection)} is {got}, expected {expected}"
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
    edges, index, cells = _cells(d)
    return FanoCertificate(edges, tuple(_relation(d, edges, index, c) for c in cells))
