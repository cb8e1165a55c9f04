"""Fixtures shared by the test modules."""

import pytest

from schroder.polyring import IntPolynomial, RingPresentation


def _renumbered(ring, order):
    """`ring` with its generators permuted: new generator j is old generator
    order[j], and its name, relation and staircase exponent move with it."""

    def move(p):
        return IntPolynomial(ring.k, {tuple(e[o] for o in order): c for e, c in p.terms.items()})

    return RingPresentation(
        tuple(ring.gens[o] for o in order),
        tuple(move(ring.relations[o]) for o in order),
        tuple(ring.staircase[o] for o in order),
    )


@pytest.fixture(scope="session")
def renumbered():
    """`renumbered(ring, order)`, a ring with its generators permuted."""
    return _renumbered
