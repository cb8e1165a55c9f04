"""Cohomology presentations: the tree route, the fan route, and examples."""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from schroder.cohomology import (
    _expand,
    _gen_data,
    betti_profile,
    descendant_set,
    dj_presentation,
    eliminate,
    schroeder_presentation,
)
from schroder.combinatorics import (
    Dissection,
    SchroederTree,
    dissection_to_tree,
    enumerate_dissections,
    enumerate_trees,
    phi_labels,
    tree_to_dissection,
)
from schroder.errors import InternalError
from schroder.fan import build_fan_direct
from schroder.polyring import IntPolynomial, RingPresentation, normal_form

RUNNING = Dissection(8, ((0, 3), (0, 7), (3, 7)))
RUNNING_TREE = dissection_to_tree(RUNNING)


def test_descendant_sets_on_running_example():
    assert descendant_set(RUNNING_TREE, ()) == frozenset({(2,)})
    assert descendant_set(RUNNING_TREE, (0,)) == frozenset({(0, 1), (0, 1, 3)})
    assert descendant_set(RUNNING_TREE, (0, 0)) == frozenset({(0, 0, 2)})
    assert descendant_set(RUNNING_TREE, (2,)) == frozenset()


@pytest.mark.parametrize("n", range(1, 7))
def test_descendant_sums_follow_the_labels(n):
    # The edge images read the rightmost chains off the nesting; their
    # oracle names each generator through the labels of the literal
    # descendant set: the last child of v maps to v's generator, any other
    # child w to the sum named by v's descendant set minus w's.
    for tree in enumerate_trees(n + 1):
        _, image = _gen_data(tree)
        labels = phi_labels(tree)
        internal = tree.internal_preorder()
        gen = {labels[v + (tree.arity(v) - 1,)]: i for i, v in enumerate(internal)}

        def lam(v):
            named = Counter(gen[labels[u]] for u in descendant_set(tree, v))
            return [named[i] for i in range(len(gen))]

        assert len(image) == sum(tree.arity(v) for v in internal)
        for i, v in enumerate(internal):
            *others, last = (v + (j,) for j in range(tree.arity(v)))
            assert image[labels[last]] == tuple(int(t == i) for t in range(len(gen)))
            for w in others:
                assert image[labels[w]] == tuple(a - b for a, b in zip(lam(v), lam(w)))


def test_running_example_presentation():
    sp = schroeder_presentation(RUNNING_TREE)
    assert sp.gens == ("x8_9", "x3_7", "x2_3", "x6_7")
    assert sp.staircase == (3, 2, 3, 4)
    assert sp.labels == ((8, 9), (3, 7), (2, 3), (6, 7))
    a, b, c, d = (IntPolynomial.variable(4, i) for i in range(4))
    assert sp.relations[0] == a**2 * (a - b - d)
    assert sp.relations[1] == b * (b - c + d)
    assert sp.relations[2] == c**3
    assert sp.relations[3] == d**4


def test_ring_builds_without_the_path_walk(monkeypatch):
    # Generator order comes from the nesting alone, not from tree paths.
    expected = schroeder_presentation(RUNNING_TREE)

    def refuse(self):
        raise AssertionError("the tree ring walked the tree's paths")

    monkeypatch.setattr(SchroederTree, "_walk", refuse)
    assert schroeder_presentation(RUNNING_TREE) == expected
    assert eliminate(dj_presentation(build_fan_direct(RUNNING)), RUNNING_TREE) == expected


def test_running_example_betti_numbers():
    assert betti_profile(RUNNING_TREE) == (1, 4, 9, 14, 16, 14, 9, 4, 1)


def test_power_vanishing_matches_leaf_children():
    # Exactly the generators at vertices with only leaf children have their
    # staircase power equal to zero; the others survive one more step.
    sp = schroeder_presentation(RUNNING_TREE)
    a, b, c, d = (IntPolynomial.variable(4, i) for i in range(4))
    assert normal_form(c**3, sp) == 0
    assert normal_form(d**4, sp) == 0
    assert normal_form(a**3, sp) != 0
    assert normal_form(b**2, sp) != 0


def test_single_cell_is_projective_space():
    sp = schroeder_presentation(dissection_to_tree(Dissection(3, ())))
    assert sp.gens == ("x3_4",)
    assert sp.staircase == (4,)
    x = IntPolynomial.variable(1, 0)
    assert sp.relations == (x**4,)


def test_presentation_requires_internal_vertex():
    with pytest.raises(ValueError):
        schroeder_presentation(SchroederTree(()))


def permuted(p, perm):
    """Move variable i of p into slot perm[i]."""
    out = {}
    for exp, coef in p.terms.items():
        new = [0] * p.nvars
        for i, e in enumerate(exp):
            new[perm[i]] = e
        out[tuple(new)] = coef
    return IntPolynomial(p.nvars, out)


def assert_presents_same_ring(sp, expected, perm):
    assert sp.k == expected.k
    for i in range(sp.k):
        assert sp.staircase[i] == expected.staircase[perm[i]]
        assert permuted(sp.relations[i], perm) == expected.relations[perm[i]]


def pentagon_ring(staircase, relations):
    k = len(staircase)
    gens = tuple(f"x{i + 1}" for i in range(k))
    return RingPresentation(gens, relations, staircase)


def test_pentagon_rings():
    # The five rings realized by dissections of the pentagon, one per
    # isomorphism class, reached through explicit generator renumberings.
    x1, x2, x3 = (IntPolynomial.variable(3, i) for i in range(3))
    u1, u2 = (IntPolynomial.variable(2, i) for i in range(2))
    w = IntPolynomial.variable(1, 0)
    cases = [
        (Dissection(3, ()), (0,), pentagon_ring((4,), (w**4,))),
        (
            Dissection(3, ((2, 4),)),
            (1, 0),
            pentagon_ring((2, 3), (u1**2, u2 * (u1 + u2) ** 2)),
        ),
        (
            Dissection(3, ((1, 4),)),
            (1, 0),
            pentagon_ring((3, 2), (u1**3, u2 * (u1 + u2))),
        ),
        (
            Dissection(3, ((1, 4), (2, 4))),
            (2, 1, 0),
            pentagon_ring(
                (2, 2, 2), (x1**2, x2 * (x1 + x2), x3 * (x1 + x2 + x3))
            ),
        ),
        (
            Dissection(3, ((0, 2), (2, 4))),
            (2, 0, 1),
            pentagon_ring((2, 2, 2), (x1**2, x2**2, x3 * (-x1 + x2 + x3))),
        ),
    ]
    for d, perm, expected in cases:
        assert_presents_same_ring(
            schroeder_presentation(dissection_to_tree(d)), expected, perm
        )


def test_fan_route_structure():
    dj = dj_presentation(build_fan_direct(RUNNING))
    assert len(dj.gens) == 12
    assert len(dj.collections) == 4
    assert sorted(i for c in dj.collections for i in c) == list(range(12))
    assert len(dj.linear) == 8
    assert dj.monomial_relation(0).terms


def test_both_routes_agree_on_small_cases():
    for n in range(1, 6):
        for d in enumerate_dissections(n):
            tree = dissection_to_tree(d)
            via_tree = schroeder_presentation(tree)
            via_fan = eliminate(dj_presentation(build_fan_direct(d)), tree)
            assert via_fan.gens == via_tree.gens
            assert via_fan.staircase == via_tree.staircase
            assert via_fan.relations == via_tree.relations
            assert via_fan.factors == via_tree.factors


def _product_of_factors(k, vecs):
    """The relation as first assembled: one IntPolynomial per factor and per
    partial product.  Kept as the oracle for the sparse expansion."""
    poly = IntPolynomial.constant(k, 1)
    for vec in vecs:
        poly = poly * IntPolynomial.linear(vec)
    return poly


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), max_size=4)
    )
)
@settings(deadline=None, max_examples=200)
def test_expand_matches_the_product_loop(vecs):
    """Random factors, with zero factors and terms that cancel."""
    k = len(vecs[0]) if vecs else 2
    expected = _product_of_factors(k, vecs)
    got = _expand(k, vecs)
    assert list(got.terms.items()) == list(expected.terms.items())


@pytest.mark.parametrize("n", range(1, 7))
def test_relations_match_the_product_loop(n):
    for d in enumerate_dissections(n):
        tree = dissection_to_tree(d)
        for sp in (
            schroeder_presentation(tree),
            eliminate(dj_presentation(build_fan_direct(d)), tree),
        ):
            for rel, vecs in zip(sp.relations, sp.factors):
                expected = _product_of_factors(sp.k, vecs)
                # Term for term, in the same order, with no zero coefficient.
                assert list(rel.terms.items()) == list(expected.terms.items())


def test_eliminate_rejects_foreign_tree():
    dj = dj_presentation(build_fan_direct(RUNNING))
    other = dissection_to_tree(Dissection(8, ((1, 3), (3, 8), (4, 8))))
    with pytest.raises(InternalError):
        eliminate(dj, other)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda dj: {"linear": dj.linear[1:]}, "expected 8 linear relations"),
        (lambda dj: {"linear": (IntPolynomial.zero(3),) + dj.linear[1:]},
         "linear relations must use one variable per ray"),
        (lambda dj: {"collections": dj.collections + ((0, 12),)},
         "collection (0, 12) uses unknown rays"),
        (lambda dj: {"collections": ((-1, 3),)}, "collection (-1, 3) uses unknown rays"),
    ],
    ids=["too-few-linear", "linear-wrong-nvars", "ray-past-end", "negative-ray"],
)
def test_dj_presentation_checks_pin_their_messages(change, message):
    dj = dj_presentation(build_fan_direct(RUNNING))
    assert len(dj.edges) == 12
    with pytest.raises(ValueError) as info:
        replace(dj, **change(dj))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda dj: {"edges": dj.edges[:-1] + ((1, 8),)},
         "edge (1, 8) is not a vertex label of the tree"),
        (lambda dj: {"linear": (dj.linear[0] + IntPolynomial.variable(12, 0),) + dj.linear[1:]},
         "a linear relation fails to vanish under substitution"),
        (lambda dj: {"collections": dj.collections[1:]},
         "3 monomial relations for 4 internal vertices"),
        # Ray 3 moved from collection 1 into collection 0.
        (lambda dj: {"collections": ((0, 1, 2, 3), (4, 5, 6)) + dj.collections[2:]},
         "no monomial relation matches the cell inside (0, 3)"),
    ],
    ids=["foreign-edge", "linear-left-over", "missing-collection", "wrong-cell"],
)
def test_eliminate_checks_pin_their_messages(change, message):
    # These four checks are all the fan route tests against the tree's
    # change of variables; each fires on its own mutation of the fan data.
    dj = dj_presentation(build_fan_direct(RUNNING))
    assert dj.collections == ((0, 1, 2), (3, 4, 5, 6), (7, 8, 9), (10, 11))
    with pytest.raises(InternalError) as info:
        eliminate(replace(dj, **change(dj)), RUNNING_TREE)
    assert str(info.value) == message


def test_presentation_metadata_length_checked():
    sp = schroeder_presentation(RUNNING_TREE)
    with pytest.raises(ValueError, match="metadata"):
        type(sp)(
            gens=sp.gens,
            relations=sp.relations,
            staircase=sp.staircase,
            labels=sp.labels[:-1],
            factors=sp.factors,
        )


@st.composite
def trees(draw, n_max=7):
    n = draw(st.integers(min_value=1, max_value=n_max))
    return dissection_to_tree(draw(st.sampled_from(enumerate_dissections(n))))


@given(trees())
@settings(deadline=None, max_examples=30)
def test_betti_numbers_are_palindromic_and_count_cones(tree):
    profile = betti_profile(tree)
    assert profile == profile[::-1]
    assert profile[0] == 1
    # Total rank equals the number of maximal cones of the fan.
    assert sum(profile) == len(build_fan_direct(tree_to_dissection(tree)).max_cones)


@given(trees())
@settings(deadline=None, max_examples=30)
def test_relations_vanish_in_their_own_ring(tree):
    sp = schroeder_presentation(tree)
    for rel in sp.relations:
        assert normal_form(rel, sp) == 0


@given(trees(n_max=5))
@settings(deadline=None, max_examples=20)
def test_factors_multiply_to_the_relations(tree):
    sp = schroeder_presentation(tree)
    for rel, facs in zip(sp.relations, sp.factors):
        assert _product_of_factors(sp.k, facs) == rel
