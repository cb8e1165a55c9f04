"""Fan construction by both routes, smoothness, and the Fano certificate."""

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from schroder._matrix import det
from schroder.combinatorics import Dissection, enumerate_dissections
from schroder.errors import InternalError
import schroder.fan as fan_module
from schroder.fan import (
    Fan,
    FanStructureError,
    _cells,
    _graph_edges,
    _relation,
    build_fan_direct,
    build_fan_subdivision,
    check_primitive_with,
    edge_order,
    is_fano,
    is_smooth,
    omission_masks,
    primitive_collections,
    primitive_relation,
    ray_list,
    ray_vector,
)

RUNNING = Dissection(8, ((0, 3), (0, 7), (3, 7)))


def mask(rays):
    """The cone bitmask of a ray-index set."""
    return sum(1 << i for i in set(rays))


def _direct_sets(d):
    """build_fan_direct as first written, with ray-index frozensets for
    cones: the complements of one-edge-per-cell transversals.  Kept as the
    oracle for the mask builders."""
    edges, _, cells = _cells(d)
    everything = frozenset(range(len(edges)))
    return frozenset(everything - frozenset(drop) for drop in product(*cells))


def _subdivision_sets(d):
    """build_fan_subdivision as first written, on ray-index frozensets."""
    n = d.n
    edges = [(i, i + 1) for i in range(n + 1)]
    sides = frozenset(range(n + 1))
    cones = {sides - {i} for i in range(n + 1)}
    for a, b in sorted(d.diagonals, key=lambda e: (e[0], -e[1])):
        new = len(edges)
        edges.append((a, b))
        face = frozenset(range(a, b))
        split = [c for c in cones if face <= c]
        assert split, f"face for diagonal {(a, b)} is not a cone"
        cones.difference_update(split)
        for c in split:
            for f in face:
                cones.add((c - {f}) | {new})
    return frozenset(cones)


def _as_masks(cones):
    return frozenset(map(mask, cones))


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_builders_match_the_set_builders(n):
    for d in enumerate_dissections(n):
        direct, subdivided = build_fan_direct(d), build_fan_subdivision(d)
        assert direct.max_cones == _as_masks(_direct_sets(d))
        assert subdivided.max_cones == _as_masks(_subdivision_sets(d))
        assert direct.edges == subdivided.edges == edge_order(d)


def test_mask_builders_match_on_the_fan_triangulation():
    d = Dissection(10, tuple((0, j) for j in range(2, 11)))
    direct, subdivided = build_fan_direct(d), build_fan_subdivision(d)
    assert len(direct.max_cones) == 1024
    assert direct.max_cones == _as_masks(_direct_sets(d))
    assert subdivided.max_cones == _as_masks(_subdivision_sets(d))
    assert direct == subdivided
    assert is_smooth(direct)


def test_ray_list_reads_a_mask():
    assert ray_list(0) == []
    assert ray_list(0b1001) == [0, 3]
    assert ray_list(mask({2, 5, 70})) == [2, 5, 70]


def test_ray_vectors_drop_the_extremal_basis_vectors():
    assert ray_vector(2, (0, 1)) == (1, 0)
    assert ray_vector(2, (1, 2)) == (-1, 1)
    assert ray_vector(2, (2, 3)) == (0, -1)
    assert ray_vector(8, (3, 7)) == (0, 0, -1, 0, 0, 0, 1, 0)


def test_projective_plane():
    fan = build_fan_direct(Dissection(2, ()))
    assert fan.rays == ((1, 0), (-1, 1), (0, -1))
    assert fan.max_cones == {mask({0, 1}), mask({1, 2}), mask({0, 2})}
    assert is_smooth(fan)
    assert is_fano(Dissection(2, ()))


def test_edge_order_sides_then_nested_diagonals():
    assert edge_order(RUNNING) == (
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        (0, 7), (0, 3), (3, 7),
    )


def test_running_example_fan():
    fan = build_fan_direct(RUNNING)
    assert len(fan.rays) == 12
    assert len(fan.max_cones) == 3 * 2 * 3 * 4
    assert all(c.bit_count() == 8 for c in fan.max_cones)
    assert is_smooth(fan)
    assert fan == build_fan_subdivision(RUNNING)


@pytest.mark.parametrize("n", range(1, 6))
def test_both_routes_agree(n):
    for d in enumerate_dissections(n):
        direct = build_fan_direct(d)
        assert direct == build_fan_subdivision(d)
        assert len(direct.rays) == n + d.k
        arities = [len(r) for r in _cell_sizes(d)]
        assert len(direct.max_cones) == math.prod(arities)
        assert is_smooth(direct)


def _cell_sizes(d):
    return [sorted(c) for c in primitive_collections(d)]


def test_non_smooth_fan_detected():
    fan = Fan(
        2,
        ((0, 1), (1, 2), (2, 3)),
        ((1, 0), (1, 2), (-1, -1)),
        frozenset({mask({0, 1}), mask({1, 2}), mask({0, 2})}),
    )
    assert _graph_edges(fan.rays) is None  # so is_smooth takes the det path
    assert not is_smooth(fan)


def _det_smooth(rays, cone):
    return abs(det([list(rays[i]) for i in sorted(cone)])) == 1


def test_is_smooth_matches_det_on_every_cone():
    cones = 0
    for n in range(1, 7):
        for d in enumerate_dissections(n):
            fan = build_fan_direct(d)
            assert _graph_edges(fan.rays) is not None
            for cone in fan.max_cones:
                one = Fan(n, fan.edges, fan.rays, frozenset({cone}))
                assert is_smooth(one) == _det_smooth(fan.rays, ray_list(cone))
                cones += 1
    assert cones == 42782


def _graphic_ray(rng, n):
    """e_head - e_tail on the vertices 0..n, e_0 = 0; the zero ray when equal."""
    tail, head = rng.randrange(n + 1), rng.randrange(n + 1)
    v = [0] * n
    if tail:
        v[tail - 1] -= 1
    if head:
        v[head - 1] += 1
    return tuple(v)


def test_is_smooth_matches_det_on_random_graphic_cones():
    rng = random.Random(20261018)
    seen = {"smooth": 0, "zero ray": 0, "repeated ray": 0, "cycle": 0}
    for _ in range(3000):
        n = rng.randint(1, 7)
        rays = [_graphic_ray(rng, n) for _ in range(n)]
        if rng.random() < 0.2:
            rays[rng.randrange(n)] = rays[rng.randrange(n)]
        edges = tuple((i, i + 1) for i in range(n))
        fan = Fan(n, edges, tuple(rays), frozenset({mask(range(n))}))
        assert _graph_edges(fan.rays) is not None
        smooth = is_smooth(fan)
        assert smooth == _det_smooth(rays, range(n))
        if smooth:
            seen["smooth"] += 1
        elif not all(any(v) for v in rays):
            seen["zero ray"] += 1
        elif len(set(rays)) < n:
            seen["repeated ray"] += 1
        else:
            seen["cycle"] += 1
    assert min(seen.values()) >= 100, seen


def test_is_smooth_matches_det_on_random_graphic_fans():
    """Several cones over shared graphic rays: the fan is smooth exactly
    when every cone is, whichever cones fail."""
    rng = random.Random(20261019)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(1, 6)
        m = n + rng.randint(0, 4)
        rays = tuple(_graphic_ray(rng, n) for _ in range(m))
        cones = {frozenset(rng.sample(range(m), n)) for _ in range(rng.randint(1, 8))}
        fan = Fan(n, tuple((i, i + 1) for i in range(m)), rays, _as_masks(cones))
        smooth = is_smooth(fan)
        assert smooth == all(_det_smooth(rays, cone) for cone in cones)
        verdicts[smooth] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_fan_validation():
    with pytest.raises(FanStructureError, match="one ray per edge"):
        Fan(2, ((0, 1),), ((1, 0), (0, 1)), frozenset())
    with pytest.raises(FanStructureError, match="length"):
        Fan(2, ((0, 1),), ((1, 0, 0),), frozenset())
    with pytest.raises(FanStructureError, match="unknown rays"):
        Fan(1, ((0, 1),), ((1,),), frozenset({mask({3})}))
    with pytest.raises(FanStructureError, match=r"cone \[0, 3\] uses unknown rays"):
        Fan(1, ((0, 1),), ((1,),), frozenset({mask({0}), mask({0, 3})}))
    with pytest.raises(FanStructureError, match=r"cone \[1\] uses unknown rays"):
        Fan(1, ((0, 1),), ((1,),), frozenset({mask({1})}))
    with pytest.raises(FanStructureError, match="negative"):
        Fan(1, ((0, 1),), ((1,),), frozenset({-1}))
    with pytest.raises(FanStructureError, match=r"maximal cone \[0\] has 1 rays"):
        is_smooth(Fan(2, ((0, 1), (1, 2)), ((1, 0), (0, 1)), frozenset({mask({0})})))


def test_subdivision_refuses_a_face_that_is_not_a_cone():
    # A repeated diagonal finds its face already split by its first copy.
    d = Dissection(3, ((1, 3),))
    object.__setattr__(d, "diagonals", ((1, 3), (1, 3)))
    with pytest.raises(InternalError) as info:
        build_fan_subdivision(d)
    assert str(info.value) == "face for diagonal (1, 3) is not a cone"


def test_collections_are_the_cells():
    edges = edge_order(RUNNING)
    colls = primitive_collections(RUNNING)
    as_edges = [frozenset(edges[i] for i in c) for c in colls]
    assert as_edges[0] == frozenset({(0, 7), (7, 8), (8, 9)})
    assert frozenset({(0, 3), (3, 7)}) in as_edges
    assert frozenset({(0, 1), (1, 2), (2, 3)}) in as_edges
    assert frozenset({(3, 4), (4, 5), (5, 6), (6, 7)}) in as_edges


def test_collections_partition_the_rays():
    for n in range(1, 6):
        for d in enumerate_dissections(n):
            colls = primitive_collections(d)
            assert sorted(i for c in colls for i in c) == list(range(n + d.k))


def test_check_primitive_rejects_both_ways():
    fan = build_fan_direct(RUNNING)
    in_a_cone = omission_masks(fan.max_cones, len(fan.rays))[1]
    cell = primitive_collections(RUNNING)[1]
    check_primitive_with(cell, in_a_cone)
    smaller = cell - {min(cell)}
    with pytest.raises(InternalError, match="lies in a cone"):
        check_primitive_with(smaller, in_a_cone)
    # Two full cells together contain a non-cone proper subset.
    with pytest.raises(InternalError, match="is not a cone"):
        check_primitive_with(cell | primitive_collections(RUNNING)[2], in_a_cone)


def _full_cone_check(coll, cones):
    """The primitive-collection check as it was first written: subset tests
    against every maximal cone (bitmasks).  Kept as the oracle for the
    faster checks."""
    rays = mask(coll)
    if any(rays & cone == rays for cone in cones):
        raise InternalError(f"collection {sorted(coll)} lies in a cone")
    for x in coll:
        sub = coll - {x}
        rest = rays ^ 1 << x
        if not any(rest & cone == rest for cone in cones):
            raise InternalError(f"proper subset {sorted(sub)} is not a cone")


def _verdict(check, *args):
    try:
        check(*args)
    except InternalError as exc:
        return str(exc)
    return None


def test_cell_and_mask_checks_match_the_full_cone_check():
    """Cells pass; a cell minus one ray lies in a cone; two cells joined
    have a proper subset that is not a cone.  The mask test reaches the
    oracle's verdict and message on each."""
    for n in range(1, 8):
        for d in enumerate_dissections(n):
            fan = build_fan_direct(d)
            cones = fan.max_cones
            by_masks = omission_masks(cones, len(fan.rays))[1]
            cells = _cells(d)[2]
            candidates = [(cell, None) for cell in cells]
            for i, cell in enumerate(cells):
                candidates.append((cell - {min(cell)}, "lies in a cone"))
                if i:
                    candidates.append((cell | cells[i - 1], "is not a cone"))
            for coll, reason in candidates:
                expected = _verdict(_full_cone_check, coll, cones)
                assert (expected is None) == (reason is None)
                assert reason is None or expected.endswith(reason)
                assert _verdict(check_primitive_with, coll, by_masks) == expected


@pytest.mark.parametrize(
    "cells",
    [
        (frozenset({0, 1}), frozenset({1, 2})),
        (frozenset({0, 1}),),
        (frozenset({0, 1, 2}), frozenset()),
        # Three memberships, as many as rays, but ray 2 is left out.
        (frozenset({0, 1}), frozenset({1})),
    ],
    ids=["overlapping", "ray-left-out", "empty-cell", "overlap-hiding-a-gap"],
)
def test_checked_cells_rejects_non_partitions(monkeypatch, cells):
    """Every reader of the cells refuses cells that do not partition the
    rays.  They are injected through nesting, whose keys after the first
    are the diagonals: three rays in all, the n + 1 sides and one made-up
    diagonal per cell after the first."""
    d = Dissection(3 - len(cells), ())
    edges = [(i, i + 1) for i in range(d.n + 1)] + [(0, 9)] * (len(cells) - 1)
    keys = [(0, d.n + 1)] + edges[d.n + 1 :]
    fake = {key: [edges[i] for i in sorted(cell)] for key, cell in zip(keys, cells)}
    monkeypatch.setattr(fan_module, "nesting", lambda _: fake)
    for reader in (primitive_collections, is_fano, build_fan_direct):
        with pytest.raises(InternalError, match="do not partition the 3 rays"):
            reader(d)
    with pytest.raises(InternalError, match="do not partition the 3 rays"):
        primitive_relation(d, cells[0])


def test_one_large_cell_is_certified():
    cert = is_fano(Dissection(10000, ()))
    assert cert
    (relation,) = cert.relations
    assert relation.degree == 10001
    assert relation.rhs == ()
    assert relation.collection == frozenset(range(10001))


def test_running_example_relations():
    colls = primitive_collections(RUNNING)
    rels = [primitive_relation(RUNNING, c) for c in colls]
    assert [r.degree for r in rels] == [3, 1, 2, 3]
    outer = rels[0]
    assert outer.rhs == ()
    edges = edge_order(RUNNING)
    for r in rels[1:]:
        assert len(r.rhs) == 1
        ((idx, coef),) = r.rhs
        assert coef == 1
        lhs_edges = {edges[i] for i in r.collection}
        a = min(x for e in lhs_edges for x in e)
        b = max(x for e in lhs_edges for x in e)
        assert edges[idx] == (a, b)


def test_relation_rejects_non_collection():
    with pytest.raises(ValueError, match="not a primitive collection"):
        primitive_relation(RUNNING, frozenset({0, 1}))


def test_relation_check_bites():
    # The sides {0, 1} and {2, 3} do not close up to the edge {0, 3} they
    # span: their ray vectors sum to e_1 - e_2 + e_3, not e_3.
    edges = edge_order(RUNNING)
    index = {e: i for i, e in enumerate(edges)}
    assert (edges[0], edges[2]) == ((0, 1), (2, 3))
    message = r"ray sum of \[0, 2\] is \[\(1, 1\), \(2, -1\), \(3, 1\)\], expected \[\(3, 1\)\]$"
    with pytest.raises(InternalError, match=message):
        _relation(RUNNING, edges, index, frozenset({0, 2}))


def test_positive_degrees_certify_fano():
    for n in range(1, 6):
        for d in enumerate_dissections(n):
            cert = is_fano(d)
            assert cert
            assert all(rel.degree >= 1 for rel in cert.relations)


@pytest.mark.parametrize(
    "d, degrees",
    [(RUNNING, (3, 1, 2, 3)), (Dissection(3, ()), (4,)), (Dissection(3, ((0, 2),)), (3, 1))],
    ids=["running", "one-cell", "two-cells"],
)
def test_certificate_degrees(d, degrees):
    assert is_fano(d).degrees == degrees


def test_certificate_json_shape():
    doc = is_fano(RUNNING).to_json()
    assert doc["fano"] is True
    assert [r["degree"] for r in doc["relations"]] == [3, 1, 2, 3]
    assert doc["relations"][0]["rhs"] == []


@st.composite
def dissections(draw, n_max=6):
    n = draw(st.integers(min_value=1, max_value=n_max))
    return draw(st.sampled_from(enumerate_dissections(n)))


@given(dissections())
@settings(deadline=None, max_examples=40)
def test_cone_count_and_smoothness(d):
    fan = build_fan_direct(d)
    sizes = [len(c) for c in primitive_collections(d)]
    assert len(fan.max_cones) == math.prod(sizes)
    assert is_smooth(fan)


@given(dissections())
@settings(deadline=None, max_examples=40)
def test_relation_degree_drops_for_inner_cells(d):
    edges = edge_order(d)
    for coll in primitive_collections(d):
        rel = primitive_relation(d, coll)
        outermost = (0, d.n + 1) == (
            min(x for i in coll for x in edges[i]),
            max(x for i in coll for x in edges[i]),
        )
        assert rel.degree == len(coll) - (0 if outermost else 1)
