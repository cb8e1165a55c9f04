"""Exact references and input generators, independent of the schroder package.

Nothing here imports schroder: the benchmark draws its inputs and checks the
program's answers with this code, so a bug in the program cannot hide by
agreeing with itself.  A dissection is ``(n, diagonals)`` with diagonals a
sorted tuple of ``(i, j)`` pairs, ``i < j``, in the polygon on 0..n+1 whose
edge {0, n+1} is distinguished.  A plane tree is a nested tuple: a leaf is
``()``, an internal vertex the tuple of its children.
"""

from __future__ import annotations

import math


def kirkman_cayley(n: int, k: int) -> int:
    """Dissections of the (n+2)-gon into k cells (closed form)."""
    return math.comb(n - 1, k - 1) * math.comb(n + k, k - 1) // k


def class_counts(leaves_max: int) -> dict[tuple[int, int], int]:
    """Unordered rooted trees without unary vertices, by (leaves, internal).

    Trees with L leaves and k internal vertices are the variety classes of
    k-cell dissections of the (L+1)-gon.  Counted by building multisets of
    smaller trees, type by type, with C(m + j - 1, j) ways to take j copies
    from m distinct trees of one type; the multiset size is kept as 0, 1 or
    "two or more", since a root needs at least two children.
    """
    trees: dict[tuple[int, int], int] = {(1, 0): 1}
    multisets: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for leaves in range(1, leaves_max + 1):
        for (l, i, c), m in multisets.items():
            if l == leaves and c == 2:
                trees[(leaves, i + 1)] = trees.get((leaves, i + 1), 0) + m
        for (l, i), m in [(key, m) for key, m in trees.items() if key[0] == leaves]:
            grown = dict(multisets)
            for (ml, mi, mc), count in multisets.items():
                j = 1
                while ml + j * l <= leaves_max:
                    key = (ml + j * l, mi + j * i, min(mc + j, 2))
                    grown[key] = grown.get(key, 0) + count * math.comb(m + j - 1, j)
                    j += 1
            multisets = grown
    return trees


def _crosses(e, f) -> bool:
    (a, b), (c, d) = sorted((e, f))
    return a < c < b < d


def random_dissection(rng, n: int, diagonals: int) -> tuple:
    """A non-crossing set of ``diagonals`` diagonals, drawn one at a time."""
    if not 0 <= diagonals <= n - 1:
        raise ValueError(f"a dissection of the {n + 2}-gon has 0..{n - 1} diagonals")
    candidates = [
        (i, j) for i in range(n + 2) for j in range(i + 2, n + 2) if (i, j) != (0, n + 1)
    ]
    chosen: list = []
    for _ in range(diagonals):
        free = [
            e for e in candidates
            if e not in chosen and not any(_crosses(e, f) for f in chosen)
        ]
        chosen.append(rng.choice(free))
    return tuple(sorted(chosen))


def cells(n: int, diagonals) -> dict[tuple[int, int], list]:
    """Each cell, keyed by its distinguished edge, with its other edges.

    An edge belongs to the cell of the tightest diagonal (or {0, n+1})
    whose span strictly contains it.  Members are sorted left to right.
    """
    holders = [(0, n + 1)] + list(diagonals)
    members: dict = {h: [] for h in holders}
    for e in [(i, i + 1) for i in range(n + 1)] + list(diagonals):
        inside = [h for h in holders if h != e and h[0] <= e[0] and e[1] <= h[1]]
        members[min(inside, key=lambda h: h[1] - h[0])].append(e)
    for edges in members.values():
        edges.sort()
    return members


def plane_tree(n: int, diagonals) -> tuple:
    """The Schroeder tree: a cell is a vertex, its edges left to right the children."""
    members = cells(n, diagonals)

    def build(edge):
        return () if edge[1] - edge[0] == 1 else tuple(build(e) for e in members[edge])

    return build((0, n + 1))


def code(tree) -> str:
    """Canonical string of the unordered tree: children sorted at every vertex."""
    return "(" + "".join(sorted(code(c) for c in tree)) + ")"


def class_code(n: int, diagonals) -> str:
    return code(plane_tree(n, diagonals))


def tree_diagonals(tree) -> tuple:
    """Inverse of plane_tree: leaves in order are the sides, the other
    non-root vertices span from their first leaf to their last."""
    out: list = []
    leaf = 0

    def walk(node, root):
        nonlocal leaf
        if not node:
            leaf += 1
            return leaf - 1, leaf
        spans = [walk(c, False) for c in node]
        span = (spans[0][0], spans[-1][1])
        if not root:
            out.append(span)
        return span

    walk(tree, True)
    return tuple(sorted(out))


def shuffled(rng, tree) -> tuple:
    """Another plane embedding of the same unordered tree."""
    kids = [shuffled(rng, c) for c in tree]
    rng.shuffle(kids)
    return tuple(kids)


def determinant(rows) -> int:
    """Exact integer determinant (Bareiss elimination)."""
    m = [list(r) for r in rows]
    size = len(m)
    sign, prev = 1, 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, size):
            for j in range(c + 1, size):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[-1][-1]
