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
from itertools import accumulate, combinations, combinations_with_replacement, groupby, product
from operator import itemgetter

from .errors import InternalError

Edge = tuple[int, int]
Path = tuple[int, ...]


# Measuring a tree, its preorder, phi_labels and the label walk keep their
# own stacks, canonical codes walk the preorder backwards, and nesting keeps
# one of open spans, instead of recursing: a fan triangulation of the
# (n+2)-gon gives a tree of depth n, which may exceed the recursion limit.


def _measure(shape) -> tuple[int, int]:
    """Validate a nested-tuple shape and return (leaves, internal vertices)."""
    leaves = internal = 0
    stack = [shape]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            raise ValueError(f"tree nodes must be tuples, got {type(node).__name__}")
        if not node:
            leaves += 1
        elif len(node) == 1:
            raise ValueError("internal vertices need at least two children")
        else:
            internal += 1
            stack += node[::-1]
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

    def _walk(self) -> list[tuple[Path, tuple]]:
        """(path, subtree) of every vertex, root first, children left to right."""
        out = []
        stack = [((), self.shape)]
        while stack:
            path, node = stack.pop()
            out.append((path, node))
            for i in range(len(node) - 1, -1, -1):
                stack.append((path + (i,), node[i]))
        return out

    def preorder(self) -> list[Path]:
        """All vertex paths, root first, children left to right."""
        return [path for path, _ in self._walk()]

    def internal_preorder(self) -> list[Path]:
        return [path for path, node in self._walk() if node]

    def to_json(self):
        """Nested-array form: a leaf is 0, an internal vertex a list."""
        return _label_walk(self.shape)[1]


def _label_walk(shape) -> tuple[list[list[int]], object]:
    """The [enter, leave] leaf counts of every internal vertex in preorder,
    and the nested-array form of the shape, from one walk.

    An internal vertex's counts are its phi_labels pair; preorder lists the
    pairs by (left end, -right end), the root's (0, leaves) first.
    """
    labels: list[list[int]] = []
    seen = 0
    top: list = []
    # Per open vertex: its children not yet met, its array, its label.
    stack = [(iter((shape,)), top, None)]
    while stack:
        kids, array, label = stack[-1]
        for node in kids:
            if node:
                opened = [seen, 0]
                labels.append(opened)
                sub: list = []
                array.append(sub)
                stack.append((iter(node), sub, opened))
                break
            array.append(0)
            seen += 1
        else:
            stack.pop()
            if label is not None:
                label[1] = seen
    return labels, top[0]


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
        _check_diagonals(self.n, self.diagonals)

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
    walk = tree._walk()
    labels: dict[Path, Edge] = {}
    seen = 0
    for path, node in walk:  # preorder meets the leaves left to right
        if not node:
            seen += 1
            labels[path] = (seen - 1, seen)
    for path, node in reversed(walk):  # children before their parent
        if node:
            labels[path] = (labels[path + (0,)][0], labels[path + (len(node) - 1,)][1])
    return labels


def _check_diagonals(n: int, diagonals) -> None:
    """Raise ValueError unless `diagonals`, distinct (i, j) pairs in sorted
    order (as Dissection stores them), are the diagonals of a dissection of
    the polygon on 0..n+1.

    One pass decides.  In nesting order, by (left end, -right end), the
    spans still open form a chain, and a diagonal that starts inside the
    innermost one but ends beyond it crosses it; if two diagonals cross,
    that happens at the second of them or before.  Sorted order is nesting
    order except that a run of diagonals with one left end comes innermost
    first, so each right end goes onto the stack of open right ends below
    the run's earlier ones, and is tested against the end below the run.
    A rejected list is scanned again for its message: the first pair out of
    range, a side or {0, n+1}, else the lexicographically first crossing pair.
    """
    stack = [n + 1]  # open right ends, innermost last; n + 1 closes {0, n+1}
    left = run = None
    for a, b in diagonals:
        # In range, not a side (b - a > 1), and b <= n when a = 0: not {0, n+1}.
        if not 0 <= a < b - 1 <= n - (a == 0):
            break
        if a != left:
            while stack[-1] <= a:
                stack.pop()
            left, run = a, len(stack)
        if stack[run - 1] < b:
            break
        stack.insert(run, b)
    else:
        return
    for i, j in diagonals:
        if not (0 <= i < j <= n + 1):
            raise ValueError(f"diagonal {(i, j)} out of range for n={n}")
        if j - i == 1:
            raise ValueError(f"{(i, j)} is a polygon side, not a diagonal")
        if i == 0 and j == n + 1:
            raise ValueError("the distinguished edge {0, n+1} is not a diagonal")
    e, f = next(p for p in combinations(diagonals, 2) if _cross(*p))
    raise ValueError(f"diagonals {e} and {f} cross")


def nesting(d: Dissection) -> dict[Edge, list[Edge]]:
    """For {0, n+1} and each diagonal, the edges directly inside it, sides
    included, from left to right: the children of its tree vertex.

    Keys run outermost first, then by (left end, -right end), so every
    diagonal comes after the edge it lies inside.  Visiting the diagonals in
    that order, the spans still open form a chain on a stack, and each
    diagonal lies directly inside the innermost one it starts in; `d` is
    valid, so no diagonal ends beyond it.
    """
    outer = (0, d.n + 1)
    inside: dict[Edge, list[Edge]] = {outer: []}
    stack = [outer]
    for a, b in sorted(d.diagonals, key=lambda e: (e[0], -e[1])):
        while stack[-1][1] <= a:
            stack.pop()
        inside[stack[-1]].append((a, b))
        inside[(a, b)] = []
        stack.append((a, b))
    out = {}
    for (lo, hi), diags in inside.items():
        kids, v = [], lo
        for a, b in diags:
            while v < a:
                kids.append((v, v + 1))
                v += 1
            kids.append((a, b))
            v = b
        while v < hi:
            kids.append((v, v + 1))
            v += 1
        out[(lo, hi)] = kids
    return out


def dissection_to_tree(d: Dissection) -> SchroederTree:
    """The nesting of the edges as a tree: {0, n+1} is the root, the sides
    are the leaves, and the children of an edge are those directly inside it.
    """
    shapes: dict[Edge, tuple] = {}
    for edge, kids in reversed(nesting(d).items()):  # inner edges first
        shapes[edge] = tuple(shapes.get(e, ()) for e in kids)
    return SchroederTree(shapes[(0, d.n + 1)])


def tree_to_dissection(tree: SchroederTree) -> Dissection:
    """Inverse of dissection_to_tree: internal non-root labels are the diagonals."""
    if tree.n_leaves < 2:
        raise ValueError("a single-leaf tree has no associated polygon")
    labels, _ = _label_walk(tree.shape)
    return Dissection(tree.n_leaves - 1, tuple(map(tuple, labels[1:])))


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
    """The shapes of enumerate_trees(n_leaves), made from the memoised
    shapes of the root's children."""
    if n_leaves == 1:
        return ((),)
    return tuple(
        kids
        for comp in _compositions(n_leaves)
        if len(comp) >= 2
        for kids in product(*map(_shapes, comp))
    )


@lru_cache(maxsize=None)
def _fragments(n_leaves: int) -> tuple[tuple[tuple[int, ...], str], ...]:
    """(labels, text) of each _shapes(n_leaves) member, in that order.

    The labels are the phi_labels pairs of its internal vertices, its own
    included, counted from its first leaf, sorted and flattened to
    (a0, b0, a1, b1, ...); the text is its nested-array JSON.
    """
    if n_leaves == 1:
        return (((), "0"),)
    out = []
    for labels, texts in _joined(n_leaves, None):
        # Only the first child's labels can start at 0, each (0, b) with
        # b below n_leaves, so the vertex's own (0, n_leaves) follows them.
        z = 0
        while z < len(labels) and not labels[z]:
            z += 2
        labels[z:z] = (0, n_leaves)
        out.append((tuple(labels), "[" + texts + "]"))
    return tuple(out)


def _joined(n_leaves: int, cells: int | None):
    """For each shape of _shapes(n_leaves), in that order, with `cells`
    internal vertices if given: the labels of the root's children, shifted
    by their first leaves and flattened, and their texts joined by ", ".

    The labels come out sorted: child j's left ends lie in [o_j, o_j + m_j)
    for its first leaf o_j and leaf count m_j, below those of child j + 1.
    A combination's cell count is read off its fragments before any labels
    or text are built; a composition whose cell counts cannot reach `cells`
    never builds its parts' fragments.
    """
    for comp in _compositions(n_leaves):
        if len(comp) < 2:
            continue
        if cells is not None:
            least = 1 + sum(m > 1 for m in comp)
            if not least <= cells <= 1 + n_leaves - len(comp):
                continue
            wanted = 2 * (cells - 1)
        offsets = tuple(accumulate(comp[:-1]))
        for kids in product(*map(_fragments, comp)):
            if cells is not None and sum(len(ls) for ls, _ in kids) != wanted:
                continue
            labels = list(kids[0][0])
            for o, (ls, _) in zip(offsets, kids[1:]):
                labels += [x + o for x in ls]
            yield labels, ", ".join([text for _, text in kids])


def enumerate_trees(n_leaves: int) -> list[SchroederTree]:
    """All Schroeder trees with the given number of leaves.

    Deterministic order: the leaf counts of the root's children run through
    compositions in lexicographic order, and child subtrees vary recursively
    in the same order, leftmost child slowest.
    """
    if not isinstance(n_leaves, int) or n_leaves < 1:
        raise ValueError(f"n_leaves must be a positive integer, got {n_leaves!r}")
    return [SchroederTree(s) for s in _shapes(n_leaves)]


def _check_slice(n: int, k: int | None) -> None:
    """Raise ValueError unless n >= 1 and k, if given, is in 1..n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")


def _dissection_records(n: int, k: int | None = None):
    """(diagonals, JSON of the diagonals, nested-array JSON of the tree) of
    each dissection of P_{n+2} (with k cells if given), in the order of its
    tree in enumerate_trees(n + 1), assembled from the fragments of the
    root's children without building trees or dissections.

    The diagonals are sorted (i, j) pairs, and the texts are what json.dumps
    makes of them and of the tree's array.  The pairs of each record pass
    the check Dissection makes, or InternalError names the record.
    """
    for labels, texts in _joined(n + 1, k):
        pairs = iter(labels)
        diagonals = list(zip(pairs, pairs))
        # json.dumps of the pairs: "[a, b]" per pair, joined by ", ".
        text = ("[" + (", [%d, %d]" * len(diagonals))[2:] + "]") % tuple(labels)
        try:
            _check_diagonals(n, diagonals)
        except ValueError as exc:
            raise InternalError(f"enumerate record {text} is not a dissection: {exc}") from None
        yield diagonals, text, "[" + texts + "]"


def _partitions(total: int, largest: int, parts: int | None):
    """Non-increasing tuples of parts <= `largest` that sum to `total`, with
    exactly `parts` of them if given; every branch taken yields one."""
    if not total:
        if not parts:
            yield ()
        return
    if parts is None:
        low, high = 1, min(largest, total)
    elif parts:
        low, high = -(-total // parts), min(largest, total - parts + 1)
    else:
        return
    for first in range(high, low - 1, -1):
        for rest in _partitions(total - first, first, parts and parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _canonical_shapes(
    n_leaves: int, arity: int | None
) -> tuple[tuple[bytes, tuple], ...]:
    """(code, shape) of one canonical shape per unordered class, by code;
    with an `arity`, only the classes whose internal vertices all have
    exactly that many children.

    The children of a class form a multiset of smaller classes: a partition
    of the leaves into at least two parts (a non-increasing composition),
    and for each part size a multiset of classes of that size.  Sorting the
    children by code gives the shape that canonical_form makes of any
    member, and their codes joined in that order give its canonical code.
    """
    if n_leaves == 1:
        return ((b"\x00", ()),)
    out = []
    for parts in _partitions(n_leaves, n_leaves - 1, arity):
        picks = [
            combinations_with_replacement(
                _canonical_shapes(size, arity), len(list(group))
            )
            for size, group in groupby(parts)
        ]
        out += [_vertex(sum(pick, ())) for pick in product(*picks)]
    out.sort(key=itemgetter(0))
    return tuple(out)


def _classes(n: int, k: int | None = None) -> list[tuple[int, tuple]]:
    """(cells, canonical shape) of each variety class of the dissections of
    P_{n+2} (with k cells if given), in code order.

    A canonical code lists every vertex's child count, 0 for a leaf only, so
    the cell count is read off it before any tree is built.
    """
    _check_slice(n, k)
    cells = ((len(code) - code.count(0), shape) for code, shape in _canonical_shapes(n + 1, None))
    return [c for c in cells if k is None or c[0] == k]


def class_trees(n: int, k: int | None = None) -> list[SchroederTree]:
    """One canonical tree per variety class of the dissections of P_{n+2}
    (with k cells if given), in canonical code order.

    Generated class by class, without building the plane trees; each tree
    equals canonical_form of every member of its class.
    """
    return [SchroederTree(shape) for _, shape in _classes(n, k)]


def enumerate_dissections(n: int, k: int | None = None) -> list[Dissection]:
    """All dissections of the polygon on 0..n+1, optionally with exactly k cells.

    Listed in the order of their trees in enumerate_trees(n + 1), from the
    records that `enumerate` writes.
    """
    _check_slice(n, k)
    return [Dissection(n, diagonals) for diagonals, _, _ in _dissection_records(n, k)]


def canonical_code(tree: SchroederTree) -> bytes:
    """Invariant of the unordered rooted tree underlying a plane tree.

    Child-count-prefixed encoding with child codes sorted bytewise; two trees
    get the same code exactly when they agree after forgetting child order.
    """
    return _canonical(tree)[0]


def canonical_form(tree: SchroederTree) -> SchroederTree:
    """The plane representative of a tree's unordered class.

    Children are sorted by canonical code at every vertex, so leaves come
    first and any internal child ends up rightmost.
    """
    return SchroederTree(_canonical(tree)[1])


def _vertex(kids) -> tuple[bytes, tuple]:
    """(code, canonical shape) of a vertex from its children's pairs."""
    if len(kids) > 255:
        raise ValueError("vertices with more than 255 children are unsupported")
    kids = sorted(kids, key=itemgetter(0))
    return bytes([len(kids)]) + b"".join(c for c, _ in kids), tuple(s for _, s in kids)


def _canonical(tree: SchroederTree) -> tuple[bytes, tuple]:
    """(code, canonical shape) of the tree, one `_vertex` per vertex.

    Reversed preorder meets every subtree's vertices right before its root,
    so the pairs of a vertex's children are the last ones on the stack.
    Only the nodes are kept, not their paths, and children are visited
    right to left, since `_vertex` sorts them anyway.
    """
    preorder, stack = [], [tree.shape]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack += node
    pairs: list[tuple[bytes, tuple]] = []
    for node in reversed(preorder):
        split = len(pairs) - len(node)
        pairs[split:] = [_vertex(pairs[split:])]
    return pairs[0]


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
