"""Classification: fingerprints, bounded isomorphism search, verification."""

import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schroder.classify as classify
import schroder.combinatorics as combinatorics
from schroder.classify import (
    ThreeCellTree,
    _class_table,
    _gl_witness,
    _nilpotency_table,
    _primitive_array,
    _step_matrices,
    _table_fingerprint,
    cohomology_isomorphic_bounded,
    count_classes,
    fingerprint,
    variety_isomorphic,
    verify_prop_further,
    verify_theorem1,
)
from schroder._matrix import det, rank
from schroder.cohomology import schroeder_presentation
from schroder.combinatorics import (
    Dissection,
    SchroederTree,
    _canonical_shapes,
    _classes,
    canonical_code,
    canonical_form,
    class_trees,
    dissection_to_tree,
    enumerate_dissections,
    enumerate_trees,
    riordan_table,
    tree_to_dissection,
)
from schroder.errors import InternalError
from schroder.polyring import (
    IntPolynomial,
    RingPresentation,
    hilbert_series,
    min_vanishing_power,
    normal_form,
)

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


def test_canonical_pass_takes_deep_trees():
    # The fan triangulation from vertex 0 is a chain of depth n, far deeper
    # than the recursion limit: every internal vertex has a leaf and the
    # rest of the chain as children.
    n = 1500
    fan = Dissection(n, tuple((0, j) for j in range(2, n + 1)))
    mirror = Dissection(n, tuple((j, n + 1) for j in range(1, n)))
    split = Dissection(n, tuple((0, j) for j in range(2, n)) + ((n - 1, n + 1),))
    tree = dissection_to_tree(fan)
    assert canonical_code(tree) == b"\x02\x00" * n + b"\x00"
    node = canonical_form(tree).shape
    for _ in range(n):
        assert len(node) == 2 and node[0] == ()
        node = node[1]
    assert node == ()
    assert variety_isomorphic(fan, mirror)
    assert not variety_isomorphic(fan, split)


def test_class_counts_match_recurrence():
    table = riordan_table(7)
    assert count_classes(5) == table.total(6)
    assert count_classes(6, 3) == table.s(7, 3)
    assert count_classes(1) == 1


def test_class_count_disagreeing_with_recurrence_is_internal_error(monkeypatch):
    # One class dropped from the generated ones: the count for its number
    # of cells no longer matches the recurrence table.
    real = classify._classes
    monkeypatch.setattr(classify, "_classes", lambda n, k=None: real(n, k)[1:])
    first = real(5)[0][0]
    with pytest.raises(InternalError) as info:
        count_classes(5)
    assert str(info.value) == f"code count for n=5, k={first} disagrees with the recurrence"


@pytest.mark.parametrize("n", [0, -3])
def test_classes_need_a_polygon(n):
    message = f"n must be a positive integer, got {n}"
    with pytest.raises(ValueError, match=message):
        count_classes(n)
    with pytest.raises(ValueError, match=message):
        class_trees(n)


def test_classes_match_grouping_of_dissections():
    # Reference: group the enumerated dissections by the code of their tree.
    for n in range(1, 8):
        for k in [None, *range(1, n + 1)]:
            expected: dict[bytes, list[Dissection]] = {}
            for d in enumerate_dissections(n, k):
                expected.setdefault(canonical_code(dissection_to_tree(d)), []).append(d)
            got = {canonical_code(tree): tree for tree in class_trees(n, k)}
            assert set(got) == set(expected)
            assert list(got) == sorted(got)
            for code, members in expected.items():
                assert got[code] == canonical_form(dissection_to_tree(members[0]))


def uniform_plane_shapes(ell, internal):
    # Reference: every plane tree with `internal` vertices, each with `ell`
    # children, built child by child.
    if internal == 0:
        return [()]
    out = []
    for comp in product(range(internal), repeat=ell):
        if sum(comp) == internal - 1:
            out += product(*(uniform_plane_shapes(ell, c) for c in comp))
    return out


def test_uniform_classes_match_grouping_of_plane_trees():
    cases = [(ell, i) for ell in (2, 3) for i in range(1, 7)]
    cases += [(ell, i) for ell in (4, 5) for i in range(1, 5)]
    for ell, internal in cases:
        groups: dict[bytes, list[SchroederTree]] = {}
        for shape in uniform_plane_shapes(ell, internal):
            tree = SchroederTree(shape)
            groups.setdefault(canonical_code(tree), []).append(tree)
        got = _canonical_shapes(internal * (ell - 1) + 1, ell)
        assert [code for code, _ in got] == sorted(groups)
        for code, shape in got:
            assert SchroederTree(shape) == canonical_form(groups[code][0])


def test_class_trees_per_cells_match_recurrence():
    table = riordan_table(13)
    for n in range(1, 13):
        per_cells = Counter(tree.internal_count for tree in class_trees(n))
        assert per_cells == {k: table.s(n + 1, k) for k in range(1, n + 1)}
    assert sum(per_cells.values()) == 68954


def test_cell_counts_read_from_codes_match_the_trees():
    for n in range(1, 10):
        for cells, shape in _classes(n):
            assert cells == SchroederTree(shape).internal_count
        for k in range(1, n + 1):
            assert [t.internal_count for t in class_trees(n, k)] == [k] * count_classes(n, k)

def primitive_vectors_loop(k, bound):
    # Reference: the plain itertools/gcd loop.
    out = []
    for vec in product(range(-bound, bound + 1), repeat=k):
        nonzero = [c for c in vec if c]
        if nonzero and nonzero[0] > 0 and math.gcd(*nonzero) == 1:
            out.append(vec)
    return out


def test_primitive_vectors():
    vecs = _primitive_array(2, 1).tolist()
    assert sorted(vecs) == [[0, 1], [1, -1], [1, 0], [1, 1]]
    assert [2, 4] not in _primitive_array(2, 4).tolist()
    assert all(v in _primitive_array(2, 2).tolist() for v in vecs)
    # The last two cross the int8 range of the generated grid.
    for k, bound in [*product(range(1, 5), range(5)), (1, 64), (2, 64)]:
        vecs = _primitive_array(k, bound).tolist()
        assert vecs == [list(v) for v in primitive_vectors_loop(k, bound)]
        assert all(type(c) is int for vec in vecs for c in vec)


def test_primitive_vectors_are_memoised_and_immutable():
    array = _primitive_array(3, 2)
    assert _primitive_array(3, 2) is array
    assert array.tolist() == [list(v) for v in primitive_vectors_loop(3, 2)]
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0] = 0


def test_nilpotency_table_matches_one_at_a_time():
    for d in [RUNNING, as_dissection(ThreeCellTree(True, (3, 2, 4)))]:
        ring = schroeder_presentation(dissection_to_tree(d))
        top = sum(ring.staircase) - ring.k
        vectors = _primitive_array(ring.k, 2).tolist()
        table = _nilpotency_table(ring, vectors)
        for vec, p in zip(vectors, table):
            assert p == (min_vanishing_power(vec, top + 1, ring) or top + 1)
        assert _nilpotency_table(ring, []) == []


def recording_advance(monkeypatch):
    """Patch `_advance` to keep every result; returns the list they go to."""
    advance, results = classify._advance, []

    def recording(*args):
        results.append(advance(*args))
        return results[-1]

    monkeypatch.setattr(classify, "_advance", recording)
    return results


def recording_top_power(monkeypatch):
    """Patch `_top_power` to keep its arguments and result; returns the
    list they go to."""
    top_power, calls = classify._top_power, []

    def recording(*args):
        calls.append((args, top_power(*args)))
        return calls[-1][1]

    monkeypatch.setattr(classify, "_top_power", recording)
    return calls


@pytest.mark.parametrize(
    "big, fallbacks", [(2**53 + 1, 4), (2**20, 4), (2**10, 3), (2**8, 3), (2**7, 2)]
)
def test_nilpotency_table_falls_back_exactly(monkeypatch, big, fallbacks):
    # float64 holds integers exactly only below 2**53.  Forms with a large
    # coefficient pass that limit at the first step (2**53 + 1 is not even
    # representable) or only after a few, and the products must then go on
    # in Python ints.  The first `half` results of `_advance` build the
    # pairing; after them, the step of the table that first returns an
    # object array, and the number of forms still alive there, tell when
    # the guard tripped.  All four forms vanish by the top degree, so the
    # pairing drops none of them: (0, 0, 0, 1) dies at p = 4, (0, 0, 1, 1)
    # at p = 6, the other two at p = 7.
    ring = schroeder_presentation(dissection_to_tree(RUNNING))
    top = sum(ring.staircase) - ring.k
    half = (top + 1) // 2
    assert (top, half) == (8, 4)
    vectors = [(0, big, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 1, -2, 0)]
    expected = [min_vanishing_power(v, top + 1, ring) or top + 1 for v in vectors]
    assert expected == [7, 6, 4, 7]
    results = recording_advance(monkeypatch)
    assert _nilpotency_table(ring, vectors) == expected
    steps = results[half:]
    assert [out.shape[1] for out in steps] == [4, 4, 4, 4, 3, 3, 2]
    kinds = [out.dtype == object for out in steps]
    first = kinds.index(True)
    assert first == {2**53 + 1: 0, 2**20: 2, 2**10: 4, 2**8: 5, 2**7: 6}[big]
    assert all(kinds[first:])
    assert steps[first].shape[1] == fallbacks


def test_top_power_falls_back_exactly(monkeypatch):
    # With big = 2**10 no step up to half = 4 leaves float64, but
    # max|alpha^4|^2 * sum|G| passes 2**53, so the pairing alone runs on
    # Python ints.  It returns the top coefficient of each alpha^8, the one
    # entry of the degree-8 normal form, exactly: (big, 1, 0, 0) never
    # vanishes before top + 1 = 9, and the pairing drops it.
    ring = schroeder_presentation(dissection_to_tree(RUNNING))
    top, big = sum(ring.staircase) - ring.k, 2**10
    half = (top + 1) // 2
    vectors = [(big, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 1, -2, 0)]
    expected = [min_vanishing_power(v, top + 1, ring) or top + 1 for v in vectors]
    assert expected == [9, 6, 4, 7]
    results = recording_advance(monkeypatch)
    pairings = recording_top_power(monkeypatch)
    assert _nilpotency_table(ring, vectors) == expected
    assert not any(out.dtype == object for out in results)
    (((high, low, pairing, weight), value),) = pairings
    assert high.dtype == low.dtype == np.float64
    assert int(np.abs(high).max()) * int(np.abs(low).max()) * weight >= 2**53
    socle = tuple(l - 1 for l in ring.staircase)
    tops = [normal_form(IntPolynomial.linear(v) ** top, ring).terms.get(socle, 0) for v in vectors]
    assert tops[0] and tops[1:] == [0, 0, 0]
    assert value.dtype == object and value.tolist() == tops
    assert [out.shape[1] for out in results[half:]] == [4, 4, 4, 4, 2, 2, 1]


TIERS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(object): 2}


@pytest.mark.parametrize(
    "big, first64, first_object",
    [(2**4, 4, None), (2**5, 3, None), (2**7, 3, 6), (2**8, 2, 5), (2**10, 2, 4), (2**12, 1, 4)],
)
def test_nilpotency_table_climbs_tiers_exactly(monkeypatch, big, first64, first_object):
    # float32 holds integers exactly only below 2**24, float64 below 2**53.
    # Each step picks the first tier its bound is below, so with one
    # coefficient between 2**4 and 2**12 the table's steps leave float32
    # and then float64 at steps that move with `big`, and never come back.
    # The first `half` results of `_advance` build the pairing from one-hot
    # coefficients and stay in float32.
    ring = schroeder_presentation(dissection_to_tree(RUNNING))
    top = sum(ring.staircase) - ring.k
    half = (top + 1) // 2
    vectors = [(0, big, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 1, -2, 0)]
    expected = [min_vanishing_power(v, top + 1, ring) or top + 1 for v in vectors]
    results = recording_advance(monkeypatch)
    assert _nilpotency_table(ring, vectors) == expected
    assert all(out.dtype == np.float32 for out in results[:half])
    tiers = [TIERS[out.dtype] for out in results[half:]]
    assert tiers == sorted(tiers)
    assert tiers.index(1) == first64
    assert (tiers.index(2) if 2 in tiers else None) == first_object


def powers_of(form, ring, count):
    """alpha, ..., alpha^count of one form through `_advance`, once from a
    float64 alpha^0 and once from a Python-int one, which keeps every step
    on Python ints."""
    steps, _ = _step_matrices(ring, count)
    coeffs = np.array(form, dtype=np.int64)[:, None]

    def run(start):
        acc, out = start, []
        for mats, growth in steps:
            acc = classify._advance(acc, mats, coeffs, growth)
            out.append(acc)
        return out

    return run(np.ones((1, 1))), run(np.ones((1, 1), dtype=object))


def test_float32_limit_keeps_powers_exact(monkeypatch):
    # 4097**2 is odd and above 2**24, so float32 cannot hold the entries of
    # alpha**2 for this form.  At the real limit those steps leave float32
    # and match the powers taken on Python ints; with the limit raised to
    # 2**53 they stay there and round at steps 2 and 3.
    ring = schroeder_presentation(dissection_to_tree(RUNNING))
    form = (0, 4097, 1, 0)
    floats, ints = powers_of(form, ring, 3)
    assert [out.dtype for out in floats] == [np.float32, np.float64, np.float64]
    assert all(out.dtype == object for out in ints)
    assert [f.tolist() == i.tolist() for f, i in zip(floats, ints)] == [True] * 3
    monkeypatch.setattr(classify, "_EXACT32", 2**53)
    floats, _ = powers_of(form, ring, 3)
    assert all(out.dtype == np.float32 for out in floats)
    assert [f.tolist() == i.tolist() for f, i in zip(floats, ints)] == [True, False, False]


@pytest.mark.parametrize(
    "big, tiers",
    [
        (2**4, ("float32", "float32", "float32")),
        (2**12, ("float64", "float32", "float64")),
        (2**20, ("float64", "float32", "object")),
    ],
)
def test_top_power_takes_each_tier(monkeypatch, big, tiers):
    # The chain (2, 2, 2) ring has top 3, so the pairing takes alpha^2 as
    # `high` and alpha^1 as `low`: one step apart, they can come from
    # different tiers, and the pairing then picks its own from its bound.
    # Its value, and its dtype, which is the tier it ran on, are checked
    # against the one entry of the degree-3 normal form.
    ring = schroeder_presentation(CHAIN222.tree())
    top = sum(ring.staircase) - ring.k
    assert (ring.staircase, top) == ((2, 2, 2), 3)
    form = (big, 1, 1)
    calls = recording_top_power(monkeypatch)
    assert _nilpotency_table(ring, [form]) == [top + 1]
    (((high, low, _, _), value),) = calls
    assert (str(high.dtype), str(low.dtype), str(value.dtype)) == tiers
    socle = tuple(l - 1 for l in ring.staircase)
    power = normal_form(IntPolynomial.linear(form) ** top, ring)
    assert int(value[0]) == power.terms[socle]


@pytest.mark.parametrize(
    "x, scale, dtype",
    [
        ([[-1]], 2**24 - 1, np.float32),
        ([[-1]], 2**24, np.float64),
        ([[-1]], 2**53 - 1, np.float64),
        ([[-1]], 2**53, object),
        # max|x| is 128 here, where np.abs would wrap int8 -128 to -128.
        ([[-128]], 2**17 - 1, np.float32),
        ([[-128]], 2**17, np.float64),
    ],
)
def test_on_tier_picks_the_first_tier_below_the_bound(x, scale, dtype):
    # max|y| = 1, so the bound is max|x| * scale; every array, `rest`
    # included, comes back on the one tier, with its values.
    x, y, rest = np.array(x, dtype=np.int8), np.array([[1]]), np.array([[3.0]])
    out = classify._on_tier(x, y, scale, rest)
    assert [a.dtype for a in out] == [np.dtype(dtype)] * 3
    assert [a.tolist() for a in out] == [x.tolist(), [[1]], [[3]]]
    if dtype is object:
        assert all(type(a[0, 0]) is int for a in out)


def test_on_tier_keeps_objects_zeros_and_arrays_on_tier(monkeypatch):
    small = np.array([[1]])
    for x, y in [(small.astype(object), small), (small, small.astype(object))]:
        assert [a.dtype for a in classify._on_tier(x, y, 1, small)] == [np.dtype(object)] * 3
    # A zero max makes every product 0, however large the rest.
    zero = classify._on_tier(np.array([[-1]]), np.array([[0]]), 2**53, small)
    assert [a.dtype for a in zero] == [np.dtype(np.float32)] * 3
    for dtype, scale in [(np.float32, 1), (np.float64, 2**24)]:
        arrays = [np.array([[-1.0]], dtype=dtype) for _ in range(3)]
        out = classify._on_tier(*arrays[:2], scale, arrays[2])
        assert all(np.shares_memory(a, b) for a, b in zip(out, arrays))
    # The limits are read at call time.
    monkeypatch.setattr(classify, "_EXACT32", 1)
    assert classify._on_tier(small, small, 1)[0].dtype == np.float64


def test_nilpotency_table_blocks_match_one_pass(monkeypatch):
    # Rows are independent, so forms cut into blocks of any size, at any
    # boundary, must get the table one pass gives them, on Python ints too.
    cases = []
    for n in range(1, 6):
        for tree in class_trees(n):
            ring = schroeder_presentation(tree)
            cases.append((ring, _primitive_array(ring.k, 1)))
    assert len(cases) == 53
    monkeypatch.setattr(classify, "_TABLE_BLOCK", len(_primitive_array(5, 1)))
    # The pairing runs on the unrecorded `_advance`, so that every
    # `_advance` recorded below is a step of the table.
    top_pairing, advance = classify._top_pairing, classify._advance

    def unrecorded(steps, bases, half):
        with monkeypatch.context() as patch:
            patch.setattr(classify, "_advance", advance)
            return top_pairing(steps, bases, half)

    monkeypatch.setattr(classify, "_top_pairing", unrecorded)
    one_pass = [_nilpotency_table(ring, forms) for ring, forms in cases]
    for (ring, forms), table in zip(cases, one_pass):
        top = sum(ring.staircase) - ring.k
        for vec, p in zip(forms.tolist(), table):
            assert p == (min_vanishing_power(vec, top + 1, ring) or top + 1)
    results = recording_advance(monkeypatch)
    for block in (1, 3, 7):
        monkeypatch.setattr(classify, "_TABLE_BLOCK", block)
        for exact in (2**53, 1):
            monkeypatch.setattr(classify, "_EXACT", exact)
            results.clear()
            assert [_nilpotency_table(ring, forms) for ring, forms in cases] == one_pass
            assert max(out.shape[1] for out in results) == block
            assert all(out.dtype == object for out in results) == (exact == 1)


# x0 = (2**60 + 1) * x1 in this ring, and float64 rounds 2**60 + 1 to 2**60:
# step matrices built from the rounded entry would make x0 - 2**60 * x1
# vanish instead of x0 - (2**60 + 1) * x1.
BIG = 2**60 + 1
Y = [IntPolynomial.variable(2, i) for i in range(2)]
WIDE_ENTRY = RingPresentation(("x0", "x1"), (Y[0] - BIG * Y[1], Y[1] ** 2), (1, 2))


def test_nilpotency_table_keeps_wide_step_entries_exact():
    # The table refuses the ring rather than answer from a rounded entry.
    vectors = [(1, 0), (0, 1), (1, -BIG), (1, -(BIG - 1))]
    expected = [min_vanishing_power(v, 2, WIDE_ENTRY) or 2 for v in vectors]
    assert expected == [2, 2, 1, 2]
    with pytest.raises(InternalError, match="not exact in float64"):
        _nilpotency_table(WIDE_ENTRY, vectors)


def test_nilpotency_table_keeps_step_entries_past_int64_exact():
    # 2**64 is a float64, so the steps hold it exactly, but a cast through
    # int64 on the way to Python ints would wrap it to -2**63, and then
    # x0 - 2**64 * x1 would no longer vanish.
    ring = RingPresentation(("x0", "x1"), (Y[0] - 2**64 * Y[1], Y[1] ** 2), (1, 2))
    vectors = [(1, 0), (0, 1), (1, -(2**64)), (1, 1 - 2**64)]
    expected = [min_vanishing_power(v, 2, ring) or 2 for v in vectors]
    assert expected == [2, 2, 1, 2]
    assert _nilpotency_table(ring, vectors) == expected


def test_witness_search_refuses_wide_step_entries():
    sp1 = schroeder_presentation(dissection_to_tree(Dissection(3, ((1, 3),))))
    with pytest.raises(InternalError, match="not exact in float64"):
        _gl_witness(sp1, WIDE_ENTRY, 1)


def normal_form_steps(ring, degree):
    """The step matrices as they were first built: one normal_form of
    x_i * monomial per staircase monomial and generator."""
    by_degree = {}
    for exp in product(*(range(l) for l in ring.staircase)):
        by_degree.setdefault(sum(exp), []).append(exp)
    basis = [sorted(by_degree.get(d, [])) for d in range(degree + 1)]
    steps = []
    for d in range(degree):
        index = {exp: j for j, exp in enumerate(basis[d + 1])}
        mats = []
        for i in range(ring.k):
            m = np.zeros((len(basis[d]), len(basis[d + 1])))
            for r, exp in enumerate(basis[d]):
                prod_nf = normal_form(
                    ring.variable(i) * IntPolynomial(ring.k, {exp: 1}), ring
                )
                for texp, coef in prod_nf.terms.items():
                    m[r, index[texp]] = coef
            mats.append(m)
        steps.append(mats)
    return steps


def test_step_matrices_match_normal_form():
    rings = [schroeder_presentation(tree) for n in range(1, 8) for tree in class_trees(n)]
    for chained in (True, False):
        for degrees in [(2, 2, 2), (3, 2, 4), (4, 3, 2), (2, 4, 3)]:
            rings.append(schroeder_presentation(ThreeCellTree(chained, degrees).tree()))
    for ring in rings:
        top = sum(ring.staircase) - ring.k
        (got, bases), want = _step_matrices(ring, top), normal_form_steps(ring, top)
        assert len(got) == len(want) == top
        # The bases are every staircase monomial, sorted, degree by degree.
        monomials = list(product(*(range(l) for l in ring.staircase)))
        assert bases == [sorted(e for e in monomials if sum(e) == d) for d in range(top + 1)]
        assert tuple(len(b) for b in bases) == hilbert_series(ring)
        for (mats, growth), oracle in zip(got, want):
            # The oracle maps rows to columns; the steps act on columns.
            for m, o in zip(mats, oracle):
                assert m.shape == o.T.shape
                assert np.array_equal(m, o.T)
            assert growth == sum(max(np.abs(o).sum(axis=0), default=0) for o in oracle)


def counting_normal_form(monkeypatch):
    """The rings `classify.normal_form` is called with, one per call."""
    calls = []

    def counting(p, ring):
        calls.append(ring)
        return normal_form(p, ring)

    monkeypatch.setattr(classify, "normal_form", counting)
    return calls


def test_step_matrices_fill_tree_rows_without_normal_form(monkeypatch):
    # A tree presentation's tails use only generators above their own, so
    # every reduced row is filled from matrices already built.
    calls = counting_normal_form(monkeypatch)
    for tree in class_trees(6):
        ring = schroeder_presentation(tree)
        _step_matrices(ring, sum(ring.staircase) - ring.k)
    assert calls == []


def test_step_matrices_refuse_tails_below_their_generator(monkeypatch, renumbered):
    # Numbered bottom up, relations 1 and 2 have tails in generators below
    # their own: the ring is refused at relation 1 before any matrix is
    # built, while normal_form, which needs no order, still answers on it.
    ring = renumbered(schroeder_presentation(ThreeCellTree(True, (3, 2, 4)).tree()), (2, 1, 0))
    sp1 = schroeder_presentation(ThreeCellTree(True, (2, 3, 4)).tree())
    calls = counting_normal_form(monkeypatch)
    refusal = "tails in generators above their own: relation 1"
    with pytest.raises(InternalError, match=refusal):
        _step_matrices(ring, sum(ring.staircase) - ring.k)
    with pytest.raises(InternalError, match=refusal):
        _nilpotency_table(ring, _primitive_array(3, 1))
    with pytest.raises(InternalError, match=refusal):
        _gl_witness(sp1, ring, 1)
    assert calls == []
    assert min_vanishing_power((0, 1, 0), 7, ring) == 4


def test_step_matrices_reduce_wide_tree_columns_by_normal_form(monkeypatch):
    # A tree ring with staircase (10, 10), which the public fingerprint of
    # this dissection builds: one block of tail-filled columns has a bound
    # past 2^53, so it goes through normal_form, and the steps stay exact.
    d = Dissection(18, ((9, 19),))
    ring = schroeder_presentation(dissection_to_tree(d))
    assert ring.staircase == (10, 10)
    calls = counting_normal_form(monkeypatch)
    top = sum(ring.staircase) - ring.k
    (got, _), want = _step_matrices(ring, top), normal_form_steps(ring, top)
    assert calls
    assert len(got) == len(want) == top
    for (mats, growth), oracle in zip(got, want):
        for m, o in zip(mats, oracle):
            assert np.array_equal(m, o.T)
        assert growth == sum(max(np.abs(o).sum(axis=0), default=0) for o in oracle)
    calls.clear()
    assert fingerprint(d) is not None
    assert calls


# x0^2 + x1 is not homogeneous: reduction leaves the grading, and the table
# refuses the ring.  The second ring is homogeneous with a staircase exponent
# of one, so x0 reduces away.
X = [IntPolynomial.variable(3, i) for i in range(3)]
NON_HOMOGENEOUS = RingPresentation(
    ("x0", "x1", "x2"), (X[0] ** 2 + X[1], X[1] ** 2 + X[2], X[2] ** 3), (2, 2, 3)
)
UNIT_STAIRCASE = RingPresentation(
    ("x0", "x1", "x2"),
    (X[0] - X[1] + X[2], X[1] ** 2 + X[1] * X[2], X[2] ** 3),
    (1, 2, 3),
)


@pytest.mark.parametrize("ring, graded", [(NON_HOMOGENEOUS, False), (UNIT_STAIRCASE, True)])
def test_nilpotency_table_routes_by_homogeneity(ring, graded):
    top = sum(ring.staircase) - ring.k
    vectors = _primitive_array(3, 2).tolist()
    if not graded:
        with pytest.raises(InternalError, match="homogeneous"):
            _step_matrices(ring, top)
        with pytest.raises(InternalError, match="homogeneous"):
            _nilpotency_table(ring, vectors)
        return
    expected = [min_vanishing_power(v, top + 1, ring) or top + 1 for v in vectors]
    assert _nilpotency_table(ring, vectors) == expected


def oracle_table(ring, rows):
    """The least vanishing power of each form, one `min_vanishing_power`
    call per form, keyed by the form."""
    top = sum(ring.staircase) - ring.k
    return {v: min_vanishing_power(v, top + 1, ring) or top + 1 for v in map(tuple, rows)}


@pytest.mark.parametrize("n", range(1, 7))
def test_nilpotency_table_matches_oracle_on_class_rings(n):
    # A class ring has top = n, so the cases take odd and even tops, and
    # top = 1 at n = 1.  The bound-1 forms are among the bound-2 ones, so one
    # oracle serves both.  At n = 6 the oracle over all 130989 bound-2 forms
    # takes minutes, so there it checks every 29th of them.
    stride = 29 if n == 6 else 1
    for tree in class_trees(n):
        ring = schroeder_presentation(tree)
        assert sum(ring.staircase) - ring.k == n
        small, large = _primitive_array(ring.k, 1), _primitive_array(ring.k, 2)
        want = oracle_table(ring, [*small.tolist(), *large[::stride].tolist()])
        assert _nilpotency_table(ring, small) == [want[v] for v in map(tuple, small.tolist())]
        table = _nilpotency_table(ring, large)[::stride]
        assert table == [want[v] for v in map(tuple, large[::stride].tolist())]


# One generator that reduces away: nothing above degree 0, so top = 0.
ZERO_TOP = RingPresentation(("x0",), (IntPolynomial.variable(1, 0),), (1,))


@pytest.mark.parametrize("ring, top", [(ZERO_TOP, 0), (UNIT_STAIRCASE, 3)])
def test_nilpotency_table_matches_oracle_off_trees(ring, top):
    assert sum(ring.staircase) - ring.k == top
    forms = _primitive_array(ring.k, 3)
    want = oracle_table(ring, forms.tolist())
    assert _nilpotency_table(ring, forms) == [want[v] for v in map(tuple, forms.tolist())]


# x0^2 x1^2 is two rewrites away from the staircase: x0^2 = H x0 x2 and
# x1^2 = H x1 x3 make it H^2 x0 x1 x2 x3.  Every step entry is at most H,
# which float64 holds, but G[x0 x1, x0 x1] = H^2 = 2^54 + 2^28 + 1 is not.
H = 2**27 + 1
Z = [IntPolynomial.variable(4, i) for i in range(4)]
WIDE_PAIRING = RingPresentation(
    ("x0", "x1", "x2", "x3"),
    (Z[0] ** 2 - H * Z[0] * Z[2], Z[1] ** 2 - H * Z[1] * Z[3], Z[2] ** 2, Z[3] ** 2),
    (2, 2, 2, 2),
)


def test_nilpotency_table_refuses_wide_pairing_entries():
    steps, _ = _step_matrices(WIDE_PAIRING, 4)
    assert max(int(np.abs(mats).max()) for mats, _ in steps) == H
    assert [min_vanishing_power(v, 5, WIDE_PAIRING) for v in [(1, 0, 0, 0), (1, 1, 0, 0)]] == [3, 5]
    with pytest.raises(InternalError, match=f"pairing entry {H**2} is not exact in float64"):
        _nilpotency_table(WIDE_PAIRING, [(1, 0, 0, 0), (1, 1, 0, 0)])


def pairing_oracle(ring, half):
    """G[u, v], the coefficient of x^(l - 1) in normal_form(x^u * x^v), for
    the sorted staircase monomials u of degree `half` and v of degree
    top - half."""
    top = sum(ring.staircase) - ring.k
    by_degree = {}
    for exp in product(*(range(l) for l in ring.staircase)):
        by_degree.setdefault(sum(exp), []).append(exp)
    socle = tuple(l - 1 for l in ring.staircase)
    return np.array(
        [
            [
                normal_form(IntPolynomial(ring.k, {u: 1}) * IntPolynomial(ring.k, {v: 1}), ring)
                .terms.get(socle, 0)
                for v in sorted(by_degree[top - half])
            ]
            for u in sorted(by_degree[half])
        ]
    )


def test_top_pairing_matches_normal_form():
    rings = [schroeder_presentation(tree) for n in range(1, 7) for tree in class_trees(n)]
    for chained in (True, False):
        for degrees in [(2, 2, 2), (3, 2, 4), (4, 3, 2), (2, 4, 3)]:
            rings.append(schroeder_presentation(ThreeCellTree(chained, degrees).tree()))
    rings += [ZERO_TOP, UNIT_STAIRCASE]
    for ring in rings:
        top = sum(ring.staircase) - ring.k
        steps, bases = _step_matrices(ring, top)
        # Every split, not only the one the table uses, half = ceil(top / 2).
        for half in range(top + 1):
            pairing, weight = classify._top_pairing(steps, bases, half)
            oracle = pairing_oracle(ring, half)
            assert np.array_equal(pairing, oracle.T)
            assert weight == np.abs(oracle).sum()


def mapped_relation_vanishes(factors, rows, target):
    """Whether a relation, given by its linear factors, maps to zero in
    `target` when generator s goes to the form `rows[s]`, by `normal_form`
    on polynomials; only the rows the factors touch need to be set."""
    k = target.k
    poly = IntPolynomial.constant(k, 1)
    for fvec in factors:
        img = [0] * k
        for s, c in enumerate(fvec):
            if c:
                img = [a + c * b for a, b in zip(img, rows[s])]
        poly = normal_form(poly * IntPolynomial.linear(img), target)
        if not poly:
            return True
    return not poly


def maps_to_zero(source, rows, target):
    """Whether every relation of `source` maps to zero in `target` via `rows`."""
    return all(mapped_relation_vanishes(facs, rows, target) for facs in source.factors)


def cofactor_inverse(g):
    """The inverse of an integer matrix with determinant +-1, by cofactors."""
    k, d = len(g), det(g)
    assert d in (1, -1)

    def minor(i, j):
        return [[g[r][c] for c in range(k) if c != j] for r in range(k) if r != i]

    inv = [[(-1) ** (i + j) * det(minor(j, i)) * d for j in range(k)] for i in range(k)]
    assert all(
        sum(g[i][t] * inv[t][j] for t in range(k)) == (i == j)
        for i in range(k)
        for j in range(k)
    )
    return inv


def per_candidate_witness(sp1, sp2, bound):
    """The witness search as it was first written: every candidate row
    takes its own rank test and its own normal_form chain, and a full
    matrix must also pass the inverse check."""
    k = sp1.k
    candidates = sorted(
        (v for v in product(range(-bound, bound + 1), repeat=k) if any(v)),
        key=lambda v: (sum(abs(c) for c in v), tuple(-c for c in v)),
    )
    rows = [None] * k

    def place(i):
        for cand in candidates:
            rows[i] = cand
            if rank(rows[i:]) != k - i:
                continue
            if not mapped_relation_vanishes(sp1.factors[i], rows, sp2):
                continue
            if i:
                found = place(i - 1)
                if found:
                    return found
            else:
                g = [list(r) for r in rows]
                if abs(det(g)) == 1 and maps_to_zero(sp2, cofactor_inverse(g), sp1):
                    return tuple(rows)
        rows[i] = None
        return None

    return place(k - 1)


def class_pairs(n, k):
    """(representative ring, member ring) for every member of every class."""
    members = {}
    for tree in enumerate_trees(n + 1):
        if tree.internal_count == k:
            members.setdefault(canonical_code(tree), []).append(tree)
    for rep in class_trees(n, k):
        sp1 = schroeder_presentation(rep)
        for tree in members[canonical_code(rep)]:
            yield sp1, schroeder_presentation(tree)


@pytest.mark.parametrize("n", range(1, 6))
def test_batched_witness_matches_per_candidate_search(n):
    for k in range(1, min(n, 4) + 1):
        for sp1, sp2 in class_pairs(n, k):
            for bound in (1, 2):
                assert _gl_witness(sp1, sp2, bound) == per_candidate_witness(
                    sp1, sp2, bound
                )


@pytest.mark.parametrize("n", range(1, 6))
def test_witness_inverse_sends_relations_to_zero(n):
    # `_gl_witness` makes no inverse check, which equal staircases make
    # redundant; this runs it on every witness the search returns.
    for k in range(1, n + 1):
        for sp1, sp2 in class_pairs(n, k):
            for bound in (1, 2):
                g = _gl_witness(sp1, sp2, bound)
                assert g is not None
                assert maps_to_zero(sp1, g, sp2)
                assert maps_to_zero(sp2, cofactor_inverse(g), sp1)


def test_witness_search_falls_back_exactly(monkeypatch):
    # With the exactness limit at one, every product leaves float64 at its
    # first step and the whole search runs on Python ints.
    pairs = list(class_pairs(4, 4))[:6]
    expected = [_gl_witness(sp1, sp2, 2) for sp1, sp2 in pairs]
    monkeypatch.setattr(classify, "_EXACT", 1)
    results = recording_advance(monkeypatch)
    assert [_gl_witness(sp1, sp2, 2) for sp1, sp2 in pairs] == expected
    assert results and all(out.dtype == object for out in results)


def test_advance_gets_c_ordered_coefficients(monkeypatch):
    # `_advance` scales contiguous rows of its coefficients and copies none,
    # so every caller passes them C-ordered: the nilpotency table on the
    # forms still alive, the one-hot pairing and the witness search on a
    # block of candidates.
    advance, flags = classify._advance, []

    def recording(acc, mats, coeffs, growth):
        flags.append(coeffs.flags.c_contiguous)
        return advance(acc, mats, coeffs, growth)

    monkeypatch.setattr(classify, "_advance", recording)
    ring = schroeder_presentation(dissection_to_tree(RUNNING))
    vectors = _primitive_array(ring.k, 2)
    assert len(_nilpotency_table(ring, vectors)) == len(vectors)
    table = len(flags)
    assert _gl_witness(ring, ring, 1) is not None
    assert 0 < table < len(flags)
    assert all(flags)


def test_fingerprints_match_on_python_ints(monkeypatch):
    trees = [tree for n in range(1, 6) for tree in class_trees(n)]
    expected = [fingerprint(tree_to_dissection(tree)) for tree in trees]
    monkeypatch.setattr(classify, "_EXACT", 1)
    assert [fingerprint(tree_to_dissection(tree)) for tree in trees] == expected


# sha256 of [n, k, canonical code, repr(fingerprint)] for every class with
# n <= 6, taken from the int64 nilpotency table, which needed no float
# exactness argument.
GOLDEN_FINGERPRINTS = "d37e4defa2cd43fc2c03235bb1377b3b9b0bb9d38d83217fd77dde784b49f7fb"


def test_golden_fingerprints():
    rows = [
        [n, k, canonical_code(tree).hex(), repr(fingerprint(tree_to_dissection(tree)))]
        for n in range(1, 7)
        for k in range(1, n + 1)
        for tree in sorted(class_trees(n, k), key=canonical_code)
    ]
    assert len(rows) == 143
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_FINGERPRINTS


def test_ring_invariant_fields_agree_on_every_member():
    # Oracle for the fields Fingerprint names as ring invariants, plus
    # vanishing_rank: each member's own presentation, not the canonical
    # one, gives the same values.  profile and l_size do move within some
    # classes, so they are left out.
    fields = ("k", "bound", "staircase", "hilbert", "vanishing_rank")
    classes = 0
    for n in range(1, 6):
        groups = {}
        for tree in enumerate_trees(n + 1):
            groups.setdefault(canonical_code(tree), []).append(tree)
        for members in groups.values():
            prints = [_table_fingerprint(*_class_table(tree)) for tree in members]
            for field in fields:
                assert len({getattr(fp, field) for fp in prints}) == 1, (field, members[0])
            classes += 1
    assert classes == sum(count_classes(n) for n in range(1, 6))


def test_fingerprint_is_a_class_invariant():
    left = fingerprint(Dissection(3, ((1, 3),)))
    mirror = fingerprint(Dissection(3, ((0, 2),)))
    assert left == mirror
    assert left.k == 2
    assert left.staircase == (2, 3)
    assert sum(count for _, count in left.profile) == len(
        _primitive_array(2, left.bound)
    )


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


def test_iso_builds_each_tree_once(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d)
        return dissection_to_tree(d)

    monkeypatch.setattr(classify, "dissection_to_tree", counting)
    pentagon = Dissection(3, ((1, 4),)), Dissection(3, ((0, 3),))
    assert cohomology_isomorphic_bounded(*pentagon, 2).status == "YES"
    assert calls == list(pentagon)
    # A verdict the nesting gives builds no tree at all.
    for pair in (
        (Dissection(4, ((1, 4),)), Dissection(4, ((1, 3),))),
        (Dissection(3, ()), Dissection(3, ((1, 3),))),
    ):
        calls.clear()
        assert cohomology_isomorphic_bounded(*pair, 2).status == "NO"
        assert calls == []


def test_iso_builds_presentations_only_for_the_search(monkeypatch):
    calls = []

    def counting(tree):
        calls.append(tree)
        return schroeder_presentation(tree)

    monkeypatch.setattr(classify, "schroeder_presentation", counting)
    staircases = Dissection(4, ((1, 4),)), Dissection(4, ((1, 3),))
    assert cohomology_isomorphic_bounded(*staircases, 2).status == "NO"
    assert calls == []
    # Mirror combs: the right one's presentation is cubic in n, and the
    # grid refusal needs neither.
    n = 2000
    left = Dissection(n, tuple((0, j) for j in range(2, n + 1)))
    right = Dissection(n, tuple((j, n + 1) for j in range(1, n)))
    verdict = cohomology_isomorphic_bounded(left, right, 2)
    assert verdict.status == "UNKNOWN"
    assert verdict.detail == f"grid [-2, 2]^{n} exceeds the limit of 1048576 points"
    assert calls == []
    pentagon = Dissection(3, ((1, 4),)), Dissection(3, ((0, 3),))
    assert cohomology_isomorphic_bounded(*pentagon, 2).status == "YES"
    assert len(calls) == 2


def test_same_class_iso_skips_fingerprints(monkeypatch):
    tables, prints = [], []

    def counting(ring, vectors):
        tables.append(ring)
        return _nilpotency_table(ring, vectors)

    def fingerprinting(d):
        prints.append(d)
        return fingerprint(d)

    monkeypatch.setattr(classify, "_nilpotency_table", counting)
    # The public entry, the one a tracer wraps, makes every fingerprint.
    monkeypatch.setattr(classify, "fingerprint", fingerprinting)
    mirror = Dissection(3, ((1, 3),)), Dissection(3, ((0, 2),))
    assert cohomology_isomorphic_bounded(*mirror, 2).status == "YES"
    assert tables == prints == []
    other = Dissection(3, ((1, 4),)), Dissection(3, ((2, 4),))
    assert cohomology_isomorphic_bounded(*other, 2).status == "NO"
    assert len(tables) == 2
    assert prints == list(other)


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
    # At the one-byte child limit the staircase still answers first.
    counts = cohomology_isomorphic_bounded(Dissection(255, ()), Dissection(255, ((0, 2),)))
    assert (counts.status, counts.detail) == ("NO", "generator counts differ: 1 vs 2")
    wide = cohomology_isomorphic_bounded(
        Dissection(255, ((0, 2),)), Dissection(255, ((0, 3),))
    )
    assert (wide.status, wide.detail) == (
        "NO",
        "staircase exponent multisets differ: [2, 255] vs [3, 254]",
    )


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


def test_iso_declines_grids_past_the_limit(monkeypatch):
    # Neither grid of forms may be allocated: at k = 100 it has 5^100 rows,
    # and np.indices takes at most 64 axes.
    def refuse(k, bound):
        raise AssertionError(f"grid of {2 * bound + 1}^{k} points allocated")

    monkeypatch.setattr(classify, "_candidate_array", refuse)
    monkeypatch.setattr(classify, "_primitive_array", refuse)
    n = 100
    fan = Dissection(n, tuple((0, j) for j in range(2, n + 1)))
    split = Dissection(n, tuple((0, j) for j in range(2, n)) + ((n - 1, n + 1),))
    verdict = cohomology_isomorphic_bounded(fan, fan, 2)
    assert verdict.status == "UNKNOWN"
    assert verdict.detail == "grid [-2, 2]^100 exceeds the limit of 1048576 points"
    # Trees of different classes need the fingerprints' grid, search or not.
    assert cohomology_isomorphic_bounded(fan, split, 0).detail == verdict.detail
    # A k = n = 8 fingerprint (staircase exponents 2) stays within it.
    assert 5**8 <= classify._MAX_GRID < 5**9


def test_grids_past_the_point_limit_raise_a_named_error():
    # np.indices takes at most 64 axes; the k = 100 fan triangulation asks
    # for 101 and used to end in numpy's "maximum supported dimension".
    n = 100
    fan = Dissection(n, tuple((0, j) for j in range(2, n + 1)))
    message = r"^grid \[-2, 2\]\^100 exceeds the limit of 16777216 points$"
    with pytest.raises(ValueError, match=message):
        fingerprint(fan)
    with pytest.raises(ValueError, match=message):
        classify._candidate_array(100, 2)
    assert classify._MAX_POINTS == 2**24


def test_classify_grids_stay_within_the_point_limit():
    # Every fingerprint grid of `classify --n 9` and `--n 10`: the classes
    # with k <= 3 or k = n cells, bounded by the largest staircase exponent.
    for n in (9, 10):
        for k in (1, 2, 3, n):
            for tree in class_trees(n, k):
                bound = max(schroeder_presentation(tree).staircase)
                assert (2 * bound + 1) ** k <= classify._MAX_POINTS


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


def test_dissection_lists_need_no_plane_shapes(monkeypatch):
    # The members of --bound and enumerate_dissections come from the
    # record fragments, never from the plane trees of _shapes.
    report = verify_theorem1(5, 2, 1)
    dissections = enumerate_dissections(6)

    def refuse(n_leaves):
        raise AssertionError(f"plane shapes with {n_leaves} leaves built")

    monkeypatch.setattr(combinatorics, "_shapes", refuse)
    assert verify_theorem1(5, 2, 1) == report
    assert report.ok and report.searches == 14
    assert enumerate_dissections(6) == dissections


def test_theorem1_reports_colliding_fingerprints(monkeypatch):
    monkeypatch.setattr(classify, "fingerprint", lambda d: "constant")
    report = verify_theorem1(4, 2)
    assert not report.ok
    assert report.failures == (
        "fingerprints collide across classes: ((1, 5),) vs ((2, 5),)",
        "fingerprints collide across classes: ((1, 5),) vs ((3, 5),)",
        "fingerprints collide across classes: ((2, 5),) vs ((3, 5),)",
    )


def test_theorem1_reports_a_missing_class(monkeypatch):
    monkeypatch.setattr(classify, "class_trees", lambda n, k: class_trees(n, k)[1:])
    report = verify_theorem1(4, 2)
    assert not report.ok
    assert (report.class_count, report.expected_count) == (2, 3)
    assert report.failures == ("found 2 classes, recurrence table gives 3",)


def test_theorem1_fingerprints_each_class_once(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d)
        return fingerprint(d)

    monkeypatch.setattr(classify, "fingerprint", counting)
    report = verify_theorem1(6, 3)
    assert report.ok
    assert len(calls) == report.class_count == 16
    assert len({canonical_code(dissection_to_tree(d)) for d in calls}) == 16


def test_theorem1_scope_is_guarded():
    with pytest.raises(ValueError):
        verify_theorem1(7, 5)


def test_theorem1_refuses_wide_grids_before_generating_classes(monkeypatch):
    def refuse(n, k=None):
        raise AssertionError(f"classes of n = {n}, k = {k} generated")

    monkeypatch.setattr(classify, "class_trees", refuse)
    message = r"^grid \[-2, 2\]\^40 exceeds the limit of 16777216 points$"
    with pytest.raises(ValueError, match=message):
        verify_theorem1(40, 40)


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
    # Classes come in canonical code order.
    assert verify_prop_further(3, 5).l_sizes == (1, 2, 2, 3, 2, 3, 2, 3)


def test_prop_further_builds_one_table_per_class(monkeypatch):
    tables, prints = [], []

    def counting(ring, vectors):
        tables.append(ring)
        return _nilpotency_table(ring, vectors)

    def recording(ring, vectors, table):
        prints.append(_table_fingerprint(ring, vectors, table))
        return prints[-1]

    monkeypatch.setattr(classify, "_nilpotency_table", counting)
    monkeypatch.setattr(classify, "_table_fingerprint", recording)
    report = verify_prop_further(3, 5)
    assert report.ok
    assert len(tables) == len(prints) == report.class_count == 8
    monkeypatch.undo()
    trees = [SchroederTree(shape) for _, shape in _canonical_shapes(11, 3)]
    for tree, fp in zip(trees, prints, strict=True):
        assert fp == fingerprint(tree_to_dissection(tree))


def perturbed_class_table(monkeypatch, pick):
    """Make _class_table set the power of form `pick(vectors)` of the first
    class to 3, the out-degree; return that form and the class's shape."""
    real = classify._class_table
    first = SchroederTree(_canonical_shapes(9, 3)[0][1])
    seen = []

    def perturbed(tree):
        ring, vectors, table = real(tree)
        if tree == first:
            i = pick(vectors.tolist())
            seen.append(tuple(vectors[i].tolist()))
            table = [*table[:i], 3, *table[i + 1:]]
        return ring, vectors, table

    monkeypatch.setattr(classify, "_class_table", perturbed)
    return seen, first.shape


def test_prop_further_reports_a_generator_off_the_dichotomy(monkeypatch):
    # Generator 0 of the first class is named by (2, 9), not by a side.
    seen, shape = perturbed_class_table(monkeypatch, lambda vs: vs.index([1, 0, 0, 0]))
    report = verify_prop_further(3, 4)
    assert seen == [(1, 0, 0, 0)]
    assert report.failures == (f"generator 0 of {shape} breaks the power dichotomy",)


def test_prop_further_reports_a_vanishing_mixed_form(monkeypatch):
    # The last mixed form: perturbing the first one would also give the
    # class the ring data of the next class.
    def mixed(vectors):
        return max(i for i, v in enumerate(vectors) if sum(1 for c in v if c) >= 2)

    seen, shape = perturbed_class_table(monkeypatch, mixed)
    report = verify_prop_further(3, 4)
    assert report.failures == (f"mixed form {seen[0]} on {shape} has vanishing power 3",)


def test_prop_further_reports_classes_sharing_ring_data(monkeypatch):
    real = classify._table_fingerprint

    def blurred(ring, vectors, table):
        fp = real(ring, vectors, table)
        return replace(fp, staircase=(), hilbert=(), profile=(), vanishing_rank=0)

    monkeypatch.setattr(classify, "_table_fingerprint", blurred)
    report = verify_prop_further(3, 4)
    sizes = report.l_sizes
    assert report.failures == tuple(
        f"classes {i} and {j} differ in leaf-children count but share all ring data"
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
        if sizes[i] != sizes[j]
    )
    assert len(report.failures) == 5


def test_uniform_tree_preconditions():
    with pytest.raises(ValueError):
        verify_prop_further(2, 4)
    with pytest.raises(ValueError):
        verify_prop_further(3, 3)


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
def test_bottom_up_presentation_matches_tree_route(renumbered, chained, degrees):
    # Generator i of the preorder route is generator sigma[i] of the
    # bottom-up one; chained trees reverse, branched trees cycle the root.
    # `renumbered` takes the inverse permutation: bottom-up generator j is
    # preorder generator order[j].
    sigma = (2, 1, 0) if chained else (2, 0, 1)
    sp = schroeder_presentation(ThreeCellTree(chained, degrees).tree())
    bu = renumbered(sp, (2, 1, 0) if chained else (1, 2, 0))
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
