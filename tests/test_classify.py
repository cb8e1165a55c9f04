"""Classification: fingerprints, bounded isomorphism search, verification."""

import pytest
from hypothesis import given, settings, strategies as st

import schroder.classify as classify
from schroder.classify import (
    ThreeCellTree,
    _gl_witness,
    _min_vanishing_power,
    _nilpotency_table,
    _primitive_vectors,
    classes,
    cohomology_isomorphic_bounded,
    count_classes,
    fingerprint,
    variety_isomorphic,
    verify_prop_further,
    verify_theorem1,
)
from schroder.cohomology import schroeder_presentation
from schroder.combinatorics import (
    Dissection,
    canonical_code,
    dissection_to_tree,
    enumerate_dissections,
    riordan_table,
    tree_to_dissection,
)
from schroder.polyring import IntPolynomial, normal_form

RUNNING = Dissection(8, ((0, 3), (0, 7), (3, 7)))

# Three internal vertices on one path versus two siblings, equal degrees:
# same staircase and Hilbert series, non-isomorphic rings.
CHAIN222 = ThreeCellTree(chained=True, degrees=(2, 2, 2))
BRANCH222 = ThreeCellTree(chained=False, degrees=(2, 2, 2))


def as_dissection(t: ThreeCellTree) -> Dissection:
    return tree_to_dissection(t.tree())


def test_variety_isomorphism_is_mirror_blind():
    left = Dissection(3, ((1, 3),))
    right = Dissection(3, ((1, 4),))
    mirror = Dissection(3, ((0, 2),))
    assert variety_isomorphic(left, mirror)
    assert not variety_isomorphic(left, right)
    assert variety_isomorphic(RUNNING, RUNNING)


def test_class_counts_match_recurrence():
    table = riordan_table(7)
    assert count_classes(5) == table.total(6)
    assert count_classes(6, 3) == table.s(7, 3)
    assert count_classes(1) == 1


def test_classes_match_grouping_of_dissections():
    # Reference: group the enumerated dissections by the code of their tree.
    for n in range(1, 8):
        for k in [None, *range(1, n + 1)]:
            expected: dict[bytes, list[Dissection]] = {}
            for d in enumerate_dissections(n, k):
                expected.setdefault(canonical_code(dissection_to_tree(d)), []).append(d)
            got = classes(n, k)
            assert list(got) == list(expected)
            for code, trees in got.items():
                assert [tree_to_dissection(t) for t in trees] == expected[code]


def test_primitive_vectors():
    vecs = _primitive_vectors(2, 1)
    assert set(vecs) == {(0, 1), (1, -1), (1, 0), (1, 1)}
    assert (2, 4) not in _primitive_vectors(2, 4)
    assert all(v in _primitive_vectors(2, 2) for v in vecs)


def test_nilpotency_table_matches_one_at_a_time():
    for d in [RUNNING, as_dissection(ThreeCellTree(True, (3, 2, 4)))]:
        ring = schroeder_presentation(dissection_to_tree(d))
        top = sum(ring.staircase) - ring.k
        vectors = _primitive_vectors(ring.k, 2)
        table = _nilpotency_table(ring, vectors)
        for vec, p in zip(vectors, table):
            assert p == (_min_vanishing_power(vec, ring, top + 1) or top + 1)
        assert _nilpotency_table(ring, []) == []


def test_fingerprint_is_a_class_invariant():
    left = fingerprint(Dissection(3, ((1, 3),)))
    mirror = fingerprint(Dissection(3, ((0, 2),)))
    assert left == mirror
    assert left.k == 2
    assert left.staircase == (2, 3)
    assert sum(count for _, count in left.profile) == len(
        _primitive_vectors(2, left.bound)
    )


def test_fingerprint_rejects_bad_bound():
    with pytest.raises(ValueError):
        fingerprint(RUNNING, bound=0)


def test_fingerprint_separates_the_three_cell_pair():
    # With all degrees equal to two the bounded ring data ties completely;
    # the leaf-children count is what tells the two rings apart.
    fp_chain = fingerprint(as_dissection(CHAIN222))
    fp_branch = fingerprint(as_dissection(BRANCH222))
    assert fp_chain.staircase == fp_branch.staircase
    assert fp_chain.hilbert == fp_branch.hilbert
    assert fp_chain.ring_data == fp_branch.ring_data
    assert (fp_chain.l_size, fp_branch.l_size) == (1, 2)
    assert fp_chain != fp_branch


def test_fingerprint_ring_data_separates_unequal_degrees():
    fp_chain = fingerprint(as_dissection(ThreeCellTree(True, (3, 2, 4))))
    fp_branch = fingerprint(as_dissection(ThreeCellTree(False, (3, 2, 4))))
    assert fp_chain.staircase == fp_branch.staircase
    assert fp_chain.ring_data != fp_branch.ring_data


def test_verdict_yes_on_self_and_mirror():
    self_verdict = cohomology_isomorphic_bounded(RUNNING, RUNNING, 1)
    assert self_verdict.status == "YES"
    mirror = cohomology_isomorphic_bounded(
        Dissection(3, ((1, 3),)), Dissection(3, ((0, 2),)), 2
    )
    assert mirror.status == "YES"
    assert mirror.witness is not None


def test_witness_maps_relations_to_zero():
    d1, d2 = Dissection(3, ((1, 3),)), Dissection(3, ((0, 2),))
    verdict = cohomology_isomorphic_bounded(d1, d2, 2)
    sp1 = schroeder_presentation(dissection_to_tree(d1))
    sp2 = schroeder_presentation(dissection_to_tree(d2))
    for rel in sp1.relations:
        image = IntPolynomial.constant(sp2.k, 1)
        sub = {
            i: IntPolynomial.linear(row) for i, row in enumerate(verdict.witness)
        }
        acc = IntPolynomial.constant(sp2.k, 0)
        for exp, coef in rel.terms.items():
            term = IntPolynomial.constant(sp2.k, coef)
            for i, e in enumerate(exp):
                for _ in range(e):
                    term = term * sub[i]
            acc = acc + term
        assert normal_form(acc, sp2) == 0


def test_verdict_no_on_cheap_invariants():
    assert (
        cohomology_isomorphic_bounded(Dissection(3, ()), Dissection(3, ((1, 3),))).status
        == "NO"
    )
    degrees = cohomology_isomorphic_bounded(
        Dissection(4, ((1, 4),)), Dissection(4, ((1, 3),))
    )
    assert degrees.status == "NO"
    assert "staircase" in degrees.detail
    profile = cohomology_isomorphic_bounded(
        Dissection(3, ((1, 4),)), Dissection(3, ((2, 4),))
    )
    assert profile.status == "NO"
    assert "fingerprints differ" in profile.detail


def test_verdict_no_on_the_three_cell_pair():
    verdict = cohomology_isomorphic_bounded(
        as_dissection(CHAIN222), as_dissection(BRANCH222)
    )
    assert verdict.status == "NO"
    assert "fingerprints differ" in verdict.detail


def test_verdict_unknown_when_search_disabled():
    verdict = cohomology_isomorphic_bounded(RUNNING, RUNNING, bound=0)
    assert verdict.status == "UNKNOWN"
    with pytest.raises(ValueError):
        cohomology_isomorphic_bounded(RUNNING, RUNNING, bound=-1)


def test_gl_witness_finds_identity():
    sp = schroeder_presentation(dissection_to_tree(RUNNING))
    rows = _gl_witness(sp, sp, 1)
    assert rows is not None


def test_theorem1_reports():
    assert verify_theorem1(3, 3).class_count == 2
    assert verify_theorem1(4, 2).class_count == 3
    report = verify_theorem1(6, 3)
    assert report.ok
    assert report.class_count == 16
    assert report.expected_count == 16
    assert report.dissection_count == len(enumerate_dissections(6, 3))
    searched = verify_theorem1(3, 2, gl_bound=2)
    assert searched.ok
    assert searched.searches == len(enumerate_dissections(3, 2))


def test_theorem1_fingerprints_each_class_once(monkeypatch):
    calls = []

    def counting(d, bound=None):
        calls.append(d)
        return fingerprint(d, bound)

    monkeypatch.setattr(classify, "fingerprint", counting)
    report = verify_theorem1(6, 3)
    assert report.ok
    assert len(calls) == report.class_count == 16
    assert len({canonical_code(dissection_to_tree(d)) for d in calls}) == 16


def test_theorem1_scope_is_guarded():
    with pytest.raises(ValueError):
        verify_theorem1(7, 5)


def test_theorem1_report_json():
    doc = verify_theorem1(3, 3).to_json()
    assert doc["ok"] is True
    assert doc["class_count"] == 2
    assert doc["failures"] == []


def test_uniform_tree_report():
    report = verify_prop_further(3, 4)
    assert report.ok
    assert report.n == 8
    assert report.class_count == 4
    assert sorted(report.l_sizes) == [1, 2, 2, 3]
    doc = report.to_json()
    assert doc["ok"] is True
    assert doc["ell"] == 3


def test_uniform_tree_preconditions():
    with pytest.raises(ValueError):
        verify_prop_further(2, 4)
    with pytest.raises(ValueError):
        verify_prop_further(3, 3)
    with pytest.raises(ValueError):
        verify_prop_further(3, 5, n_max=8)


def test_three_cell_trees():
    assert CHAIN222.tree().shape == ((), ((), ((), ())))
    assert BRANCH222.tree().shape == (((), ()), ((), ()))
    assert ThreeCellTree(False, (2, 3, 4)).tree().shape == (
        ((), ()), (), (), ((), (), ()),
    )
    with pytest.raises(ValueError):
        ThreeCellTree(True, (2, 1, 2))
    with pytest.raises(ValueError):
        ThreeCellTree(True, (2, 2))


@pytest.mark.parametrize("chained", [True, False])
@pytest.mark.parametrize("degrees", [(2, 2, 2), (3, 2, 4), (4, 3, 2), (2, 4, 3)])
def test_bottom_up_presentation_matches_tree_route(chained, degrees):
    # Generator i of the preorder route is generator sigma[i] of the
    # bottom-up one; chained trees reverse, branched trees cycle the root.
    t = ThreeCellTree(chained, degrees)
    sigma = (2, 1, 0) if chained else (2, 0, 1)
    sp = schroeder_presentation(t.tree())
    bu = t.bottom_up_presentation()
    for i in range(3):
        assert sp.staircase[i] == bu.staircase[sigma[i]]
        moved = {}
        for exp, coef in sp.relations[i].terms.items():
            new = [0, 0, 0]
            for j, e in enumerate(exp):
                new[sigma[j]] = e
            moved[tuple(new)] = coef
        assert IntPolynomial(3, moved) == bu.relations[sigma[i]]


@st.composite
def three_cell(draw):
    return ThreeCellTree(
        draw(st.booleans()),
        tuple(draw(st.integers(min_value=2, max_value=5)) for _ in range(3)),
    )


@given(three_cell())
@settings(deadline=None, max_examples=25)
def test_chained_and_branched_rings_never_match(t):
    other = ThreeCellTree(not t.chained, t.degrees)
    verdict = cohomology_isomorphic_bounded(
        as_dissection(t), as_dissection(other), bound=0
    )
    assert verdict.status == "NO"


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(deadline=None, max_examples=25)
def test_fingerprint_constant_on_classes(n, data):
    d1 = data.draw(st.sampled_from(enumerate_dissections(n)))
    d2 = data.draw(st.sampled_from(enumerate_dissections(n)))
    if variety_isomorphic(d1, d2):
        assert fingerprint(d1) == fingerprint(d2)
