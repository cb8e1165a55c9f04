"""Dissections, trees, the bijection between them, and the counting layer."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from schroder.classify import count_classes, verify_theorem1
from schroder.combinatorics import (
    Dissection,
    SchroederTree,
    _check_diagonals,
    _compositions,
    _dissection_records,
    _fragments,
    _label_walk,
    _partitions,
    _shapes,
    canonical_code,
    canonical_form,
    class_trees,
    dissection_to_tree,
    enumerate_dissections,
    enumerate_trees,
    kirkman_cayley,
    phi_labels,
    riordan_table,
    tree_to_dissection,
)

# Dissection of the 10-gon used as the running example everywhere: three
# diagonals, four cells, tree with internal vertices of arity 3, 2, 3, 4.
RUNNING = Dissection(8, ((0, 3), (0, 7), (3, 7)))
RUNNING_SHAPE = ((((), (), ()), ((), (), (), ())), (), ())


def cross(d1, d2):
    (a, b), (c, d) = sorted((d1, d2))
    return a < c < b < d


def diagonal_pool(n):
    return [
        (i, j)
        for i in range(n + 1)
        for j in range(i + 2, n + 2)
        if (i, j) != (0, n + 1)
    ]


def brute_force_dissections(n):
    """All non-crossing diagonal sets, straight from the definition."""
    pool = diagonal_pool(n)
    found = []
    for r in range(len(pool) + 1):
        for subset in combinations(pool, r):
            if all(not cross(a, b) for a, b in combinations(subset, 2)):
                found.append(frozenset(subset))
    return set(found)


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_brute_force(n):
    expected = brute_force_dissections(n)
    produced = {frozenset(d.diagonals) for d in enumerate_dissections(n)}
    assert produced == expected


def nested_array(shape):
    # Reference: the recursive conversion, for trees within the recursion limit.
    return [nested_array(c) for c in shape] if shape else 0


def test_records_match_trees_and_dissections():
    # Oracle: the tree route, every plane tree mapped to its dissection and
    # filtered by cell count, for the records and the dissection lists.
    for n in range(1, 8):
        for k in [None, *range(1, n + 1)]:
            trees = [t for t in enumerate_trees(n + 1) if k is None or t.internal_count == k]
            dissections = [tree_to_dissection(t) for t in trees]
            expected = [
                (
                    list(d.diagonals),
                    json.dumps(d.diagonals),
                    json.dumps(nested_array(t.shape)),
                )
                for d, t in zip(dissections, trees)
            ]
            assert list(_dissection_records(n, k)) == expected
            assert enumerate_dissections(n, k) == dissections


def test_fragments_match_the_label_walk():
    for m in range(1, 10):
        expected = []
        for shape in _shapes(m):
            labels, array = _label_walk(shape)
            flat = tuple(x for pair in sorted(labels) for x in pair)
            expected.append((flat, json.dumps(array)))
        assert list(_fragments(m)) == expected


def test_enumeration_counts_match_closed_form():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert len(enumerate_dissections(n, k)) == kirkman_cayley(n, k)


def test_closed_form_pinned_values():
    assert kirkman_cayley(7, 2) == 27
    assert kirkman_cayley(7, 3) == 225
    assert kirkman_cayley(7, 7) == 429
    assert kirkman_cayley(1, 1) == 1


def test_closed_form_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kirkman_cayley(3, 0)
    with pytest.raises(ValueError):
        kirkman_cayley(3, 4)


def test_running_example_tree():
    assert dissection_to_tree(RUNNING).shape == RUNNING_SHAPE
    assert tree_to_dissection(SchroederTree(RUNNING_SHAPE)) == RUNNING


def test_running_example_labels():
    tree = SchroederTree(RUNNING_SHAPE)
    labels = phi_labels(tree)
    assert labels[()] == (0, 9)
    assert labels[(0,)] == (0, 7)
    assert labels[(0, 0)] == (0, 3)
    assert labels[(0, 1)] == (3, 7)
    assert labels[(0, 0, 0)] == (0, 1)
    assert labels[(2,)] == (8, 9)


def test_bijection_roundtrip_both_ways():
    for n in range(1, 7):
        for d in enumerate_dissections(n):
            assert tree_to_dissection(dissection_to_tree(d)) == d
        for t in enumerate_trees(n + 1):
            assert dissection_to_tree(tree_to_dissection(t)) == t


def test_tree_to_dissection_matches_phi_labels():
    # Reference: the diagonals are the phi_labels of the internal vertices
    # other than the root.
    for leaves in range(2, 10):
        for tree in enumerate_trees(leaves):
            labels = phi_labels(tree)
            diags = [labels[p] for p in tree.internal_preorder() if p != ()]
            assert tree_to_dissection(tree) == Dissection(leaves - 1, tuple(diags))


def test_cell_count_is_diagonals_plus_one():
    assert RUNNING.k == 4
    assert Dissection(5, ()).k == 1


def test_tree_leaf_and_internal_counts():
    tree = SchroederTree(RUNNING_SHAPE)
    assert tree.n_leaves == 9
    assert tree.internal_count == 4
    assert tree.arity(()) == 3
    assert tree.is_leaf((1,))
    assert not tree.is_leaf((0,))


def test_preorder_visits_root_first_children_left_to_right():
    tree = SchroederTree(((), ((), ())))
    assert tree.preorder() == [(), (0,), (1,), (1, 0), (1, 1)]
    assert tree.internal_preorder() == [(), (1,)]


def test_dissection_validation():
    cases = [
        (((0, 2), (1, 3)), "cross"),
        (((1, 2),), "side"),
        (((0, 4),), "distinguished"),
        (((2, 5),), "out of range"),
        (((-1, 2),), "out of range"),
        (((3, 1),), "out of range"),
    ]
    for diagonals, message in cases:
        for check in (Dissection, _check_diagonals):
            with pytest.raises(ValueError, match=message):
                check(3, diagonals)
    with pytest.raises(ValueError):
        Dissection(0, ())


def test_bool_is_not_a_positive_integer():
    # bool is a subclass of int, so each call below took True as 1, and
    # Dissection(True, ()) wrote "n": true, which from_json refuses.
    calls = [
        (lambda: Dissection(True, ()), "n must be a positive integer, got True"),
        (lambda: enumerate_dissections(True), "n must be a positive integer, got True"),
        (lambda: enumerate_dissections(3, True), "k must be in 1..3, got True"),
        (lambda: enumerate_trees(True), "n_leaves must be a positive integer, got True"),
        (lambda: riordan_table(True), "n_max must be a positive integer, got True"),
        (lambda: count_classes(True), "n must be a positive integer, got True"),
        (lambda: verify_theorem1(True, True), "n must be a positive integer, got True"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(ValueError, match="expected an integer, got True"):
        Dissection.from_json({"n": True, "diagonals": []})


def test_crossing_names_the_first_pair():
    # The stack pass meets (2, 5) inside (1, 3); the message still names the
    # lexicographically first crossing pair.
    with pytest.raises(ValueError, match=r"^diagonals \(0, 4\) and \(2, 5\) cross$"):
        Dissection(5, ((0, 4), (1, 3), (2, 5)))


@pytest.mark.parametrize("n", range(1, 6))
def test_validation_matches_pairwise_scan(n):
    """Every diagonal set: accepted exactly when brute force accepts it, and
    rejected with the first crossing pair of a pairwise scan."""
    valid = brute_force_dissections(n)
    pool = diagonal_pool(n)
    for r in range(len(pool) + 1):
        for subset in combinations(pool, r):
            pairs = combinations(subset, 2)
            first = next(((a, b) for a, b in pairs if cross(a, b)), None)
            assert (first is None) == (frozenset(subset) in valid)
            if first is None:
                assert Dissection(n, subset).diagonals == subset
                _check_diagonals(n, subset)
                continue
            for check in (Dissection, _check_diagonals):
                with pytest.raises(ValueError) as exc:
                    check(n, subset)
                assert str(exc.value) == f"diagonals {first[0]} and {first[1]} cross"


def former_check(n, diagonals):
    """Reference: the check as it was before the one-pass stack of right
    ends.  The range tests in input order, then a pass that builds the
    nesting dict and raises at the first crossing it meets, naming the
    lexicographically first crossing pair."""
    for i, j in diagonals:
        if not (0 <= i < j <= n + 1):
            raise ValueError(f"diagonal {(i, j)} out of range for n={n}")
        if j - i == 1:
            raise ValueError(f"{(i, j)} is a polygon side, not a diagonal")
        if i == 0 and j == n + 1:
            raise ValueError("the distinguished edge {0, n+1} is not a diagonal")
    outer = (0, n + 1)
    inside = {outer: []}
    stack = [outer]
    for a, b in sorted(diagonals, key=lambda e: (e[0], -e[1])):
        while stack[-1][1] <= a:
            stack.pop()
        if stack[-1][1] < b:
            e, f = next(p for p in combinations(sorted(diagonals), 2) if cross(*p))
            raise ValueError(f"diagonals {e} and {f} cross")
        inside[stack[-1]].append((a, b))
        inside[(a, b)] = []
        stack.append((a, b))


def verdict(check, *args):
    """None if `check` accepts, else its ValueError's message."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", range(1, 6))
def test_validation_matches_the_former_check_on_every_subset(n):
    pool = diagonal_pool(n)
    for r in range(len(pool) + 1):
        for subset in combinations(pool, r):
            want = verdict(former_check, n, subset)
            assert verdict(_check_diagonals, n, subset) == want
            assert verdict(Dissection, n, subset) == want


def test_validation_matches_the_former_check_on_mixed_lists():
    # Unsorted lists, duplicates allowed, that mix diagonals with pairs out
    # of range, sides, the distinguished edge and crossing pairs.
    rng = random.Random(20221)
    for _ in range(20000):
        n = rng.randint(1, 9)
        pairs = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if kind < 0.55 and n >= 2:
                pairs.append(rng.choice(diagonal_pool(n)))
            elif kind < 0.65:
                i = rng.randint(0, n)
                pairs.append((i, i + 1))
            elif kind < 0.7:
                pairs.append((0, n + 1))
            elif kind < 0.85:
                a, b = rng.randint(-2, n + 3), rng.randint(-2, n + 3)
                pairs.append((a, b))
            elif n >= 3:
                a, c = sorted(rng.sample(range(n + 1), 2))
                if c - a >= 2:
                    pairs += [(a, rng.randint(a + 2, n + 1)), (rng.randint(a + 1, c - 1), c)]
        rng.shuffle(pairs)
        distinct = sorted(set(pairs))
        want = verdict(former_check, n, distinct)
        assert verdict(Dissection, n, pairs) == want, (n, pairs)
        assert verdict(_check_diagonals, n, distinct) == want, (n, distinct)


def test_tree_validation():
    with pytest.raises(ValueError, match="at least two children"):
        SchroederTree((((),),))
    with pytest.raises(ValueError, match="tuples"):
        SchroederTree([(), ()])
    with pytest.raises(ValueError):
        tree_to_dissection(SchroederTree(()))


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_dissections(3, 0)
    with pytest.raises(ValueError):
        enumerate_dissections(3, 4)
    with pytest.raises(ValueError):
        enumerate_dissections(0)
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError, match="k must be in 1..3, got 0"):
        class_trees(3, 0)
    with pytest.raises(ValueError, match="k must be in 1..3, got 4"):
        count_classes(3, 4)
    # A k that is not an int is refused too, not truncated or compared.
    with pytest.raises(ValueError, match="k must be in 1..3, got 2.0"):
        class_trees(3, 2.0)
    with pytest.raises(ValueError, match="k must be in 1..3, got 1.5"):
        enumerate_dissections(3, 1.5)
    with pytest.raises(ValueError, match="k must be in 1..3, got 1.5"):
        count_classes(3, 1.5)


def test_json_roundtrips():
    doc = RUNNING.to_json()
    assert json.loads(json.dumps(doc)) == doc
    assert Dissection.from_json(doc) == RUNNING
    tree = SchroederTree(RUNNING_SHAPE)
    assert tree.to_json() == [[[0, 0, 0], [0, 0, 0, 0]], 0, 0]


def test_deep_tree_json():
    # The fan triangulation's tree is a chain of depth 1500, past the
    # recursion limit that == and json.dumps on its array would hit.
    n = 1500
    tree = dissection_to_tree(Dissection(n, tuple((0, j) for j in range(2, n + 1))))
    node = tree.to_json()
    for _ in range(n - 1):
        assert isinstance(node, list) and len(node) == 2 and node[1] == 0
        node = node[0]
    assert node == [0, 0]


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        Dissection.from_json({"n": 3})


def test_from_json_ignores_extra_keys():
    doc = {"n": 3, "diagonals": [[0, 2]], "tree": [0, 0, [0, 0]]}
    assert Dissection.from_json(doc) == Dissection(3, ((0, 2),))


def test_canonical_code_identifies_mirror_trees():
    left = SchroederTree((((), ()), ()))
    right = SchroederTree(((), ((), ())))
    assert canonical_code(left) == canonical_code(right)
    assert canonical_form(left) == canonical_form(right)
    assert canonical_form(right).shape == ((), ((), ()))


@pytest.mark.parametrize("arity", [None, 2, 3, 4, 5])
def test_partitions_match_non_increasing_compositions(arity):
    # Reference: the compositions into at least two parts, filtered.
    for total in range(1, 13):
        expected = [
            c
            for c in _compositions(total)
            if len(c) >= 2
            and list(c) == sorted(c, reverse=True)
            and (arity is None or len(c) == arity)
        ]
        assert sorted(_partitions(total, total - 1, arity)) == expected


def test_canonical_code_counts_match_recurrence():
    for n in range(2, 9):
        per_k = {}
        for t in enumerate_trees(n):
            per_k.setdefault(t.internal_count, set()).add(canonical_code(t))
        table = riordan_table(n)
        for k, codes in per_k.items():
            assert len(codes) == table.s(n, k)
        assert sum(len(c) for c in per_k.values()) == table.total(n)


def test_recurrence_table_pinned_rows():
    table = riordan_table(10)
    assert [table.total(n) for n in range(1, 11)] == [
        1, 1, 2, 5, 12, 33, 90, 261, 766, 2312,
    ]
    assert table.coefficients(4) == (0, 1, 2, 2)
    assert table.row(6) == (1, 4, 10, 12, 6)
    assert table.row(10) == (1, 8, 44, 157, 382, 615, 634, 373, 98)
    assert table.row(1) == ()
    assert table.s(5, 9) == 0


def test_recurrence_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        riordan_table(0)
    with pytest.raises(ValueError):
        riordan_table(5).coefficients(6)


@st.composite
def trees(draw, max_leaves=8):
    n = draw(st.integers(min_value=2, max_value=max_leaves))
    return draw(st.sampled_from(enumerate_trees(n)))


@given(trees())
def test_root_label_spans_the_polygon(tree):
    labels = phi_labels(tree)
    assert labels[()] == (0, tree.n_leaves)


@given(trees())
def test_leaf_labels_are_the_sides_in_order(tree):
    labels = phi_labels(tree)
    leaves = [p for p in tree.preorder() if tree.is_leaf(p)]
    assert [labels[p] for p in leaves] == [(i, i + 1) for i in range(len(leaves))]


@given(trees())
def test_roundtrip_through_dissection(tree):
    assert dissection_to_tree(tree_to_dissection(tree)) == tree


@given(trees())
def test_canonical_form_is_idempotent_and_code_preserving(tree):
    canon = canonical_form(tree)
    assert canonical_code(canon) == canonical_code(tree)
    assert canonical_form(canon) == canon


@given(trees())
def test_diagonal_count_is_internal_count_minus_one(tree):
    d = tree_to_dissection(tree)
    assert len(d.diagonals) == tree.internal_count - 1
    assert d.k == tree.internal_count
