"""Exact polynomial arithmetic and staircase reduction."""

import json
import math
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from schroder.cohomology import schroeder_presentation
from schroder.combinatorics import class_trees
from schroder.polyring import (
    IntPolynomial,
    RingPresentation,
    hilbert_series,
    normal_form,
    power_is_zero,
)


def xvar(i, nvars=2):
    return IntPolynomial.variable(nvars, i)


def test_binomial_square():
    x, y = xvar(0), xvar(1)
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x - y) * (x + y) == x**2 - y**2


def test_scalar_arithmetic():
    x = xvar(0)
    assert 2 * x - x == x
    assert x + 0 == x
    assert x * 0 == IntPolynomial.zero(2)
    assert (x - x) == 0
    assert 1 - x == IntPolynomial.constant(2, 1) - x


def test_zero_and_truthiness():
    assert not IntPolynomial.zero(3)
    assert IntPolynomial.constant(1, 5)
    assert IntPolynomial(2, {(0, 0): 0}) == IntPolynomial.zero(2)


def test_linear_form():
    assert IntPolynomial.linear((2, 0, -1)) == 2 * xvar(0, 3) - xvar(2, 3)


def test_mixed_variable_counts_rejected():
    with pytest.raises(ValueError, match="mixed"):
        xvar(0, 2) + xvar(0, 3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        IntPolynomial(-1)
    with pytest.raises(ValueError, match="exponent"):
        IntPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError, match="integers"):
        IntPolynomial(1, {(1,): 1.5})
    with pytest.raises(ValueError):
        xvar(0) ** -1


def test_as_text():
    x, y = xvar(0), xvar(1)
    assert (x**2 - y).as_text() == "x0^2 -x1"
    assert (x * y * 2 + 1).as_text(["u", "v"]) == "+2*u*v +1"[1:]
    assert IntPolynomial.zero(2).as_text() == "0"
    assert repr(x**2 - y) == "IntPolynomial('x0^2 -x1')"


def test_foreign_operands_are_not_implemented():
    x = xvar(0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in [(x, 1.5), (1.5, x)]:
            with pytest.raises(TypeError):
                op(a, b)
    assert (x == "x0") is False
    assert (x != "x0") is True


def test_polynomial_json_roundtrip():
    p = 3 * xvar(0) ** 2 - xvar(1) + 7
    doc = p.to_json(["x", "y"])
    assert json.loads(json.dumps(doc)) == doc
    assert doc == {
        "vars": ["x", "y"],
        "terms": [
            {"exp": [0, 0], "coef": 7},
            {"exp": [0, 1], "coef": -1},
            {"exp": [2, 0], "coef": 3},
        ],
    }
    assert p.to_json()["vars"] == ["x0", "x1"]
    with pytest.raises(ValueError, match="one name per variable"):
        p.to_json(["only"])


def one_variable_ring(l):
    return RingPresentation(
        ("x",), (IntPolynomial(1, {(l,): 1}),), (l,)
    )


def test_normal_form_truncates_powers():
    ring = one_variable_ring(4)
    x = IntPolynomial.variable(1, 0)
    assert normal_form(x**3, ring) == x**3
    assert normal_form(x**4, ring) == 0
    assert normal_form((1 + x) ** 5, ring) == 1 + 5 * x + 10 * x**2 + 10 * x**3


def test_normal_form_substitutes_tails():
    # x^2 reduces to y, so x^4 reduces to y^2 and then to 0 once y^2 does.
    x, y = xvar(0), xvar(1)
    ring = RingPresentation(("x", "y"), (x**2 - y, y**2), (2, 2))
    assert normal_form(x**2, ring) == y
    assert normal_form(x**3, ring) == x * y
    assert normal_form(x**4, ring) == 0


def test_presentation_validation():
    x, y = xvar(0), xvar(1)
    with pytest.raises(ValueError, match="coefficient \\+1"):
        RingPresentation(("x", "y"), (2 * x**2, y**2), (2, 2))
    with pytest.raises(ValueError, match="coefficient \\+1"):
        RingPresentation(("x", "y"), (y**2, y**2), (2, 2))
    with pytest.raises(ValueError, match="non-leading"):
        RingPresentation(("x", "y"), (x**2 + x**3 * y, y**2), (2, 2))
    with pytest.raises(ValueError, match="equal length"):
        RingPresentation(("x",), (x**2,), (2, 2))
    with pytest.raises(ValueError, match="distinct"):
        RingPresentation(("x", "x"), (x**2, y**2), (2, 2))
    with pytest.raises(ValueError, match="at least one generator"):
        RingPresentation((), (), ())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IntPolynomial.variable(2, 2), "variable index 2 out of range"),
        (lambda: IntPolynomial.variable(2, -1), "variable index -1 out of range"),
        (lambda: RingPresentation(("x",), (xvar(0, 1),), (0,)),
         "staircase bounds must be positive"),
        (lambda: RingPresentation(("x", "y"), (xvar(0) ** 2, "y^2"), (2, 2)),
         "relation 1 is not a polynomial in 2 variables"),
        (lambda: RingPresentation(("x", "y"), (xvar(0, 3) ** 2, xvar(1) ** 2), (2, 2)),
         "relation 0 is not a polynomial in 2 variables"),
        (lambda: normal_form(xvar(0), TEST_RING), "polynomial has 2 variables, ring has 3"),
    ],
    ids=[
        "variable-past-end", "variable-negative", "staircase-zero",
        "relation-not-polynomial", "relation-wrong-nvars", "normal-form-wrong-nvars",
    ],
)
def test_public_checks_pin_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_substitution_cycles_rejected():
    x, y = xvar(0), xvar(1)
    with pytest.raises(ValueError, match="triangular"):
        RingPresentation(("x", "y"), (x**2 + x * y, y**2 + x * y), (2, 2))
    # One-directional substitution is fine.
    RingPresentation(("x", "y"), (x**2 + x * y, y**2), (2, 2))
    x, y, z = xvar(0, 3), xvar(1, 3), xvar(2, 3)
    # x's tail brings in y, y's brings in z, z's brings in x.
    with pytest.raises(ValueError, match="triangular"):
        RingPresentation(("x", "y", "z"), (x**2 + y, y**2 + z, z**2 + x), (2, 2, 2))
    # No cycle, but the order it substitutes in, x then z then y, is not the
    # order of the generators.
    ring = RingPresentation(
        ("x", "y", "z"), (x**2 + x * z, y**2, z**2 + y * z), (2, 2, 2)
    )
    assert normal_form(x**3, ring) == -x * y * z


def test_presentation_json_roundtrip():
    x, y = xvar(0), xvar(1)
    ring = RingPresentation(("a", "b"), (x**2 - y, y**3), (2, 3))
    doc = ring.to_json()
    assert json.loads(json.dumps(doc)) == doc
    assert doc == {
        "gens": ["a", "b"],
        "relations": [(x**2 - y).to_json(["a", "b"]), (y**3).to_json(["a", "b"])],
        "staircase": [2, 3],
    }


def test_power_is_zero():
    ring = one_variable_ring(3)
    assert power_is_zero((1,), 3, ring)
    assert not power_is_zero((1,), 2, ring)
    assert power_is_zero((0,), 1, ring)
    with pytest.raises(ValueError):
        power_is_zero((1,), 0, ring)
    with pytest.raises(ValueError):
        power_is_zero((1, 2), 3, ring)


def test_hilbert_series_is_the_staircase_count():
    x, y = xvar(0), xvar(1)
    ring = RingPresentation(("x", "y"), (x**2 - y, y**3), (2, 3))
    series = hilbert_series(ring)
    by_degree = [0] * len(series)
    for exp in product(range(2), range(3)):
        by_degree[sum(exp)] += 1
    assert series == tuple(by_degree)
    assert sum(series) == 2 * 3
    assert series == series[::-1]


@st.composite
def polynomials(draw, nvars=3, max_degree=3):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = []
    for _ in range(n_terms):
        exp = tuple(
            draw(st.integers(min_value=0, max_value=max_degree)) for _ in range(nvars)
        )
        terms.append((exp, draw(st.integers(min_value=-9, max_value=9))))
    return IntPolynomial(nvars, terms)


TEST_RING = RingPresentation(
    ("x", "y", "z"),
    (
        IntPolynomial(3, {(2, 0, 0): 1, (0, 1, 0): -1}),
        IntPolynomial(3, {(0, 3, 0): 1, (0, 1, 1): 2}),
        IntPolynomial(3, {(0, 0, 2): 1}),
    ),
    (2, 3, 2),
)


@given(polynomials(), polynomials())
def test_normal_form_is_a_ring_map(p, q):
    nf = lambda r: normal_form(r, TEST_RING)
    assert nf(p + q) == nf(nf(p) + nf(q))
    assert nf(p * q) == nf(nf(p) * nf(q))


@given(polynomials())
def test_normal_form_is_idempotent_and_under_staircase(p):
    reduced = normal_form(p, TEST_RING)
    assert normal_form(reduced, TEST_RING) == reduced
    for exp in reduced.terms:
        assert all(e < l for e, l in zip(exp, TEST_RING.staircase))


@given(polynomials())
def test_relations_reduce_to_zero_against_anything(p):
    for rel in TEST_RING.relations:
        assert normal_form(p * rel, TEST_RING) == 0


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_hilbert_series_total_and_symmetry(staircase):
    k = len(staircase)
    rels = tuple(
        IntPolynomial(k, {tuple(l if j == i else 0 for j in range(k)): 1})
        for i, l in enumerate(staircase)
    )
    ring = RingPresentation(tuple(f"x{i}" for i in range(k)), rels, tuple(staircase))
    series = hilbert_series(ring)
    assert sum(series) == math.prod(staircase)
    assert series == series[::-1]


def test_normal_form_matches_sympy_lex_reduction():
    """A third oracle for normal_form: sympy's reduction by a Groebner basis.

    With the generators in preorder, x_0 > x_1 > ... in lex order, the lex
    leading term of relation i is x_i^(l_i).  Leading terms that are powers
    of distinct generators are pairwise coprime, so the relations are a
    Groebner basis, and the remainder of any p is its unique normal form.
    """
    sympy = pytest.importorskip("sympy")

    def expr(p, gens):
        return sympy.Add(*(c * sympy.Mul(*map(sympy.Pow, gens, e)) for e, c in p.terms.items()))

    rng = random.Random(20)
    for n in range(1, 6):
        for tree in class_trees(n):
            ring = schroeder_presentation(tree)
            gens = [sympy.Symbol(f"x{i}") for i in range(ring.k)]
            relations = [expr(r, gens) for r in ring.relations]
            for g, l, rel in zip(gens, ring.staircase, relations):
                assert sympy.LT(rel, *gens, order="lex") == g**l
            for _ in range(3):
                terms = [
                    (tuple(rng.randrange(l + 2) for l in ring.staircase), rng.randint(-5, 5))
                    for _ in range(4)
                ]
                p = IntPolynomial(ring.k, terms)
                _, remainder = sympy.reduced(expr(p, gens), relations, *gens, order="lex")
                assert sympy.expand(remainder - expr(normal_form(p, ring), gens)) == 0
