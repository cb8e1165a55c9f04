"""Fan construction by both routes, smoothness, and the Fano certificate."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from schroder.combinatorics import Dissection, enumerate_dissections
from schroder.errors import InternalError
from schroder.fan import (
    Fan,
    FanStructureError,
    build_fan_direct,
    build_fan_subdivision,
    check_primitive,
    edge_order,
    is_fano,
    is_smooth,
    primitive_collections,
    primitive_relation,
    ray_vector,
)

RUNNING = Dissection(8, ((0, 3), (0, 7), (3, 7)))


def test_ray_vectors_drop_the_extremal_basis_vectors():
    assert ray_vector(2, (0, 1)) == (1, 0)
    assert ray_vector(2, (1, 2)) == (-1, 1)
    assert ray_vector(2, (2, 3)) == (0, -1)
    assert ray_vector(8, (3, 7)) == (0, 0, -1, 0, 0, 0, 1, 0)


def test_projective_plane():
    fan = build_fan_direct(Dissection(2, ()))
    assert fan.rays == ((1, 0), (-1, 1), (0, -1))
    assert fan.max_cones == frozenset(
        {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}
    )
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
    assert all(len(c) == 8 for c in fan.max_cones)
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
        frozenset({frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}),
    )
    assert not is_smooth(fan)


def test_fan_validation():
    with pytest.raises(FanStructureError, match="one ray per edge"):
        Fan(2, ((0, 1),), ((1, 0), (0, 1)), frozenset())
    with pytest.raises(FanStructureError, match="length"):
        Fan(2, ((0, 1),), ((1, 0, 0),), frozenset())
    with pytest.raises(FanStructureError, match="unknown rays"):
        Fan(1, ((0, 1),), ((1,),), frozenset({frozenset({3})}))
    with pytest.raises(FanStructureError, match="maximal cone"):
        is_smooth(
            Fan(2, ((0, 1), (1, 2)), ((1, 0), (0, 1)), frozenset({frozenset({0})}))
        )


def test_fan_json_roundtrip():
    fan = build_fan_direct(RUNNING)
    assert Fan.from_json(fan.to_json()) == fan
    with pytest.raises(FanStructureError):
        Fan.from_json({"n": 2})


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
    cones = build_fan_direct(RUNNING).max_cones
    cell = primitive_collections(RUNNING)[1]
    check_primitive(cell, cones)
    smaller = cell - {min(cell)}
    with pytest.raises(InternalError, match="lies in a cone"):
        check_primitive(smaller, cones)
    # Two full cells together contain a non-cone proper subset.
    with pytest.raises(InternalError, match="is not a cone"):
        check_primitive(cell | primitive_collections(RUNNING)[2], cones)


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


def test_positive_degrees_certify_fano():
    for n in range(1, 6):
        for d in enumerate_dissections(n):
            cert = is_fano(d)
            assert cert
            assert all(rel.degree >= 1 for rel in cert.relations)


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
