"""Polygon dissections, Schroeder trees, and the counting layer.

A dissection lives in a convex polygon with vertices 0..n+1 labeled
counterclockwise; the edge {0, n+1} is distinguished.  Dissections are in
bijection with rooted plane trees whose internal vertices have at least two
children ("Schroeder trees"), and the bijection is made explicit by an edge
labeling of the tree.  Everything downstream (fans, cohomology rings,
classification) is built on the objects defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .errors import InternalError

Edge = tuple[int, int]
Path = tuple[int, ...]


def _measure(shape) -> tuple[int, int]:
    """Validate a nested-tuple shape and return (leaves, internal vertices)."""
    if not isinstance(shape, tuple):
        raise ValueError(f"tree nodes must be tuples, got {type(shape).__name__}")
    if not shape:
        return 1, 0
    if len(shape) == 1:
        raise ValueError("internal vertices need at least two children")
    leaves, internal = 0, 1
    for child in shape:
        child_leaves, child_internal = _measure(child)
        leaves += child_leaves
        internal += child_internal
    return leaves, internal


@dataclass(frozen=True)
class SchroederTree:
    """Rooted plane tree whose internal vertices have >= 2 children.

    ``shape`` is a nested tuple: a leaf is the empty tuple, an internal
    vertex is the tuple of its child shapes in left-to-right order.
    Vertices are addressed by paths, i.e. tuples of child indices from the
    root; the root is ``()``.
    """

    shape: tuple
    n_leaves: int = field(init=False, compare=False, repr=False)
    internal_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        leaves, internal = _measure(self.shape)
        object.__setattr__(self, "n_leaves", leaves)
        object.__setattr__(self, "internal_count", internal)

    def subtree(self, path: Path) -> tuple:
        node = self.shape
        for i in path:
            node = node[i]
        return node

    def is_leaf(self, path: Path) -> bool:
        return not self.subtree(path)

    def arity(self, path: Path) -> int:
        return len(self.subtree(path))

    def preorder(self) -> list[Path]:
        """All vertex paths, root first, children left to right."""
        out: list[Path] = []

        def walk(node, path):
            out.append(path)
            for i, child in enumerate(node):
                walk(child, path + (i,))

        walk(self.shape, ())
        return out

    def internal_preorder(self) -> list[Path]:
        return [p for p in self.preorder() if self.subtree(p)]

    def to_json(self):
        """Nested-array form: a leaf is 0, an internal vertex a list."""

        def conv(node):
            return [conv(c) for c in node] if node else 0

        return conv(self.shape)

    @staticmethod
    def from_json(doc) -> "SchroederTree":
        def conv(node):
            if node == 0:
                return ()
            if not isinstance(node, list):
                raise ValueError(f"tree nodes must be 0 or lists, got {node!r}")
            return tuple(conv(c) for c in node)

        return SchroederTree(conv(doc))


def _cross(d1: Edge, d2: Edge) -> bool:
    (a, b), (c, d) = sorted((d1, d2))
    return a < c < b < d


@dataclass(frozen=True)
class Dissection:
    """Non-crossing diagonals of the polygon on vertices 0..n+1.

    Diagonals are stored as a sorted tuple of (i, j) pairs with i < j.
    Sides {i, i+1} and the distinguished edge {0, n+1} are not diagonals.
    A dissection with d diagonals cuts the polygon into d + 1 cells.
    """

    n: int
    diagonals: tuple[Edge, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        diags = sorted({(int(i), int(j)) for i, j in self.diagonals})
        object.__setattr__(self, "diagonals", tuple(diags))
        for i, j in self.diagonals:
            if not (0 <= i < j <= self.n + 1):
                raise ValueError(f"diagonal {(i, j)} out of range for n={self.n}")
            if j - i == 1:
                raise ValueError(f"{(i, j)} is a polygon side, not a diagonal")
            if (i, j) == (0, self.n + 1):
                raise ValueError("the distinguished edge {0, n+1} is not a diagonal")
        for a in range(len(self.diagonals)):
            for b in range(a + 1, len(self.diagonals)):
                if _cross(self.diagonals[a], self.diagonals[b]):
                    raise ValueError(
                        f"diagonals {self.diagonals[a]} and {self.diagonals[b]} cross"
                    )

    @property
    def k(self) -> int:
        """Number of cells the diagonals cut the polygon into."""
        return len(self.diagonals) + 1

    def to_json(self):
        return {"n": self.n, "diagonals": [list(d) for d in self.diagonals]}

    @staticmethod
    def from_json(doc) -> "Dissection":
        """Strict reader for outside input: JSON integers only, no coercion."""
        if not isinstance(doc, dict) or "n" not in doc or "diagonals" not in doc:
            raise ValueError("dissection documents need 'n' and 'diagonals' keys")
        return Dissection(
            _json_int(doc["n"]),
            tuple(tuple(_json_int(x) for x in d) for d in doc["diagonals"]),
        )


def _json_int(value) -> int:
    # bool is an int, and the int() in __post_init__ would read 1.7 or "1" as 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def phi_labels(tree: SchroederTree) -> dict[Path, Edge]:
    """Label every vertex with a pair of polygon vertices.

    The i-th leaf in preorder gets {i-1, i}; an internal vertex combines the
    first coordinate of its leftmost child with the second coordinate of its
    rightmost child.  The root always ends up with {0, n+1}, sides correspond
    to leaves, and diagonals to the remaining internal vertices.
    """
    labels: dict[Path, Edge] = {}
    seen = 0

    def walk(node, path) -> Edge:
        nonlocal seen
        if not node:
            seen += 1
            lbl = (seen - 1, seen)
        else:
            child_labels = [walk(c, path + (i,)) for i, c in enumerate(node)]
            lbl = (child_labels[0][0], child_labels[-1][1])
        labels[path] = lbl
        return lbl

    walk(tree.shape, ())
    return labels


def dissection_to_tree(d: Dissection) -> SchroederTree:
    """Peel off the cell containing the distinguished edge, recursively.

    The cell of the region [lo..hi] adjacent to the edge {lo, hi} is traced
    greedily: from each cell vertex the next one is the farthest endpoint of
    a dissection edge, which is correct because edges never enter a cell's
    interior.
    """
    diag = set(d.diagonals)

    def is_edge(a: int, b: int) -> bool:
        return b - a == 1 or (a, b) in diag

    def build(lo: int, hi: int) -> tuple:
        if hi - lo == 1:
            return ()
        verts = [lo]
        v = lo
        while v != hi:
            cap = hi - 1 if v == lo else hi
            w = next(u for u in range(cap, v, -1) if is_edge(v, u))
            verts.append(w)
            v = w
        return tuple(build(verts[i], verts[i + 1]) for i in range(len(verts) - 1))

    return SchroederTree(build(0, d.n + 1))


def tree_to_dissection(tree: SchroederTree) -> Dissection:
    """Inverse of dissection_to_tree: internal non-root labels are the diagonals."""
    if tree.n_leaves < 2:
        raise ValueError("a single-leaf tree has no associated polygon")
    labels = phi_labels(tree)
    diags = [labels[p] for p in tree.internal_preorder() if p != ()]
    return Dissection(tree.n_leaves - 1, tuple(diags))


def _compositions(total: int):
    """Compositions of ``total`` into parts >= 1, lexicographic order."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _shapes(n_leaves: int) -> tuple:
    if n_leaves == 1:
        return ((),)
    out = []
    for comp in _compositions(n_leaves):
        if len(comp) < 2:
            continue
        for kids in product(*(_shapes(c) for c in comp)):
            out.append(kids)
    return tuple(out)


def enumerate_trees(n_leaves: int) -> list[SchroederTree]:
    """All Schroeder trees with the given number of leaves.

    Deterministic order: the leaf counts of the root's children run through
    compositions in lexicographic order, and child subtrees vary recursively
    in the same order, leftmost child slowest.
    """
    if not isinstance(n_leaves, int) or n_leaves < 1:
        raise ValueError(f"n_leaves must be a positive integer, got {n_leaves!r}")
    return [SchroederTree(s) for s in _shapes(n_leaves)]


def dissection_trees(n: int, k: int | None = None) -> list[SchroederTree]:
    """Trees of the dissections of P_{n+2} (with k cells if given), in the
    enumerate_trees order that enumerate_dissections(n, k) follows."""
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return [t for t in enumerate_trees(n + 1) if k is None or t.internal_count == k]


def enumerate_dissections(n: int, k: int | None = None) -> list[Dissection]:
    """All dissections of the polygon on 0..n+1, optionally with exactly k cells.

    Runs through trees (see enumerate_trees for the order) and maps each one
    back to its dissection, so no crossing tests are ever needed.
    """
    return [tree_to_dissection(t) for t in dissection_trees(n, k)]


def canonical_code(tree: SchroederTree) -> bytes:
    """Invariant of the unordered rooted tree underlying a plane tree.

    Child-count-prefixed encoding with child codes sorted bytewise; two trees
    get the same code exactly when they agree after forgetting child order.
    """
    return _code(tree.shape)


def _code(shape) -> bytes:
    if len(shape) > 255:
        raise ValueError("vertices with more than 255 children are unsupported")
    return bytes([len(shape)]) + b"".join(sorted(_code(c) for c in shape))


def canonical_form(tree: SchroederTree) -> SchroederTree:
    """The plane representative of a tree's unordered class.

    Children are sorted by canonical code at every vertex, so leaves come
    first and any internal child ends up rightmost.
    """

    def canon(shape):
        return tuple(sorted((canon(c) for c in shape), key=_code))

    return SchroederTree(canon(tree.shape))


def kirkman_cayley(n: int, k: int) -> int:
    """Number of dissections of the (n+2)-gon into exactly k cells."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    num = math.comb(n - 1, k - 1) * math.comb(n + k, k - 1)
    q, r = divmod(num, k)
    if r:
        raise InternalError(f"kirkman_cayley({n}, {k}) is not an integer")
    return q


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _pscale(a, c):
    return [c * x for x in a]


def _pstretch(a, m):
    """Coefficients of p(y^m) given those of p(y)."""
    out = [0] * ((len(a) - 1) * m + 1)
    for i, c in enumerate(a):
        out[i * m] = c
    return out


def _ptrim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


@dataclass(frozen=True)
class RiordanTable:
    """Cell-count polynomials s_n(y); the coefficient of y^k counts the
    unordered classes of Schroeder trees with n leaves and k internal
    vertices, equivalently the varieties a k-cell dissection of the
    (n+1)-gon can produce, up to isomorphism."""

    n_max: int
    coeffs: tuple[tuple[int, ...], ...]

    def coefficients(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in 1..{self.n_max}, got {n}")
        return self.coeffs[n - 1]

    def s(self, n: int, k: int) -> int:
        c = self.coefficients(n)
        return c[k] if 0 <= k < len(c) else 0

    def row(self, n: int) -> tuple[int, ...]:
        """(s(n,1), ..., s(n,n-1)); empty for n = 1."""
        return self.coefficients(n)[1:]

    def total(self, n: int) -> int:
        return sum(self.coefficients(n))


def riordan_table(n_max: int) -> RiordanTable:
    """Solve the multiplicative recurrence for the polynomials s_n(y).

    With s_n*(y) = sum over divisors d of n of d * s_d(y^{n/d}), the
    recurrence n(1+y) s_n = y s_n* - s_{n-1}* + (1+y) sum_{i<n} s_i* s_{n-i}
    determines s_n degree by degree; the d = n term of s_n* cancels the
    n y s_n on the left, leaving n s_n = y t_n - s_{n-1}* + (1+y) sum, where
    t_n drops that term.  Every intermediate stays an integer polynomial and
    non-integrality is a hard failure.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    polys: dict[int, list[int]] = {1: [1]}
    star: dict[int, list[int]] = {1: [1]}
    for n in range(2, n_max + 1):
        t = [0]
        for d in range(1, n):
            if n % d == 0:
                t = _padd(t, _pscale(_pstretch(polys[d], n // d), d))
        conv = [0]
        for i in range(1, n):
            conv = _padd(conv, _pmul(star[i], polys[n - i]))
        rhs = _padd([0] + t, _pscale(star[n - 1], -1))
        rhs = _padd(rhs, _pmul([1, 1], conv))
        s_n = []
        for c in rhs:
            q, r = divmod(c, n)
            if r:
                raise InternalError(f"s_{n} has a non-integral coefficient")
            s_n.append(q)
        polys[n] = _ptrim(s_n)
        star[n] = _padd(t, _pscale(polys[n], n))
    return RiordanTable(n_max, tuple(tuple(polys[n]) for n in range(1, n_max + 1)))
