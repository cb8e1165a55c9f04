"""Integer polynomial arithmetic and staircase reduction.

The quotient rings this package meets are always presented by one relation
per generator, each of the shape x_i^(l_i) + lower-in-x_i terms with unit
leading coefficient.  Because the leading monomials are pairwise coprime and
monic, rewriting any occurrence of x_i^(l_i) by the relation's tail is a
confluent and terminating reduction, and the monomials under the staircase
{e : e_i < l_i} form a basis of the quotient.  Termination additionally
needs the tails to be triangular (no substitution cycle); that is checked
once when a presentation is created, by one linear in-degree (Kahn) pass
over the graph in which generator i points to every other generator its
tail contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType


class IntPolynomial:
    """Immutable multivariate polynomial with integer coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    coefficients.  Instances support +, -, *, ** with other polynomials and
    with plain integers; they are equal when their term mappings are.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=()):
        if not isinstance(nvars, int) or nvars < 0:
            raise ValueError(f"nvars must be a non-negative integer, got {nvars!r}")
        clean: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coef in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {nvars} variables")
            if not isinstance(coef, int):
                raise ValueError(f"coefficients must be integers, got {coef!r}")
            coef += clean.pop(exp, 0)
            if coef:
                clean[exp] = coef
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "IntPolynomial":
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "_terms", terms)
        return p

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "IntPolynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._raw(nvars, {exp: 1})

    @classmethod
    def linear(cls, coeffs) -> "IntPolynomial":
        """The form sum(coeffs[i] * x_i) in len(coeffs) variables."""
        coeffs = tuple(coeffs)
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = int(c)
        return cls._raw(n, terms)

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return IntPolynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for exp, coef in other._terms.items():
            c = out.pop(exp, 0) + coef
            if c:
                out[exp] = c
        return IntPolynomial._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return IntPolynomial.zero(self.nvars)
            return IntPolynomial._raw(
                self.nvars, {e: c * other for e, c in self._terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = out.pop(exp, 0) + c1 * c2
                if c:
                    out[exp] = c
        return IntPolynomial._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, p: int):
        if not isinstance(p, int) or p < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {p!r}")
        out = IntPolynomial.constant(self.nvars, 1)
        for _ in range(p):
            out = out * self
        return out

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(self.nvars, other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        return f"IntPolynomial({self.as_text()!r})"

    def as_text(self, names=None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        if not self._terms:
            return "0"
        bits = []
        for exp in sorted(self._terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coef = self._terms[exp]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            body = "*".join(factors)
            if not factors:
                bits.append(f"{coef:+d}")
            elif coef == 1:
                bits.append(f"+{body}")
            elif coef == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{coef:+d}*{body}")
        if bits[0].startswith("+"):
            bits[0] = bits[0][1:]
        return " ".join(bits)

    def to_json(self, names=None):
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        names = list(names)
        if len(names) != self.nvars:
            raise ValueError("one name per variable required")
        return {
            "vars": names,
            "terms": [
                {"exp": list(e), "coef": self._terms[e]} for e in sorted(self._terms)
            ],
        }


@dataclass(frozen=True)
class RingPresentation:
    """Quotient of Z[x_0..x_{k-1}] by one staircase relation per generator.

    Relation i must expand to x_i^(staircase[i]) with coefficient +1 plus
    monomials whose x_i-exponent is below staircase[i], and the substitution
    graph of the tails must be acyclic; both are verified on construction so
    reduction by normal_form is guaranteed to stop at a unique answer.
    """

    gens: tuple[str, ...]
    relations: tuple[IntPolynomial, ...]
    staircase: tuple[int, ...]
    _tails: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(str(g) for g in self.gens))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "staircase", tuple(int(l) for l in self.staircase))
        k = len(self.gens)
        if k == 0:
            raise ValueError("a presentation needs at least one generator")
        if len(self.relations) != k or len(self.staircase) != k:
            raise ValueError("gens, relations and staircase must have equal length")
        if len(set(self.gens)) != k:
            raise ValueError("generator names must be distinct")
        if any(l < 1 for l in self.staircase):
            raise ValueError("staircase bounds must be positive")
        tails = []
        deps = {i: set() for i in range(k)}
        for i, rel in enumerate(self.relations):
            if not isinstance(rel, IntPolynomial) or rel.nvars != k:
                raise ValueError(f"relation {i} is not a polynomial in {k} variables")
            lead = tuple(self.staircase[i] if j == i else 0 for j in range(k))
            if rel.terms.get(lead) != 1:
                raise ValueError(
                    f"relation {i} lacks {self.gens[i]}^{self.staircase[i]} "
                    "with coefficient +1"
                )
            tail = []
            for exp, coef in rel.terms.items():
                if exp == lead:
                    continue
                if exp[i] >= self.staircase[i]:
                    raise ValueError(
                        f"relation {i} has a non-leading monomial with "
                        f"{self.gens[i]}-exponent {exp[i]}"
                    )
                tail.append((exp, coef))
                deps[i].update(j for j, e in enumerate(exp) if e and j != i)
            tails.append(tuple(sorted(tail)))
        # A substitution order must exist: rewriting x_i^(l_i) may only
        # introduce variables that come later, or reduction can cycle.
        # Kahn's pass: take the generators no tail still introduces, one at
        # a time; a cycle leaves some generator never taken.
        indegree = [0] * k
        for i in range(k):
            for j in deps[i]:
                indegree[j] += 1
        order = [i for i in range(k) if not indegree[i]]
        for i in order:  # grows while it is read
            for j in deps[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        if len(order) < k:
            raise ValueError("relations are not triangular")
        object.__setattr__(self, "_tails", tuple(tails))

    @property
    def k(self) -> int:
        return len(self.gens)

    def variable(self, i: int) -> IntPolynomial:
        return IntPolynomial.variable(self.k, i)

    def to_json(self):
        return {
            "gens": list(self.gens),
            "relations": [r.to_json(self.gens) for r in self.relations],
            "staircase": list(self.staircase),
        }


def normal_form(p: IntPolynomial, r: RingPresentation) -> IntPolynomial:
    """The unique representative of p under the staircase of r.

    Any monomial with some e_i >= l_i is rewritten through relation i's
    tail; what remains has every exponent under the staircase and is equal
    to p in the quotient.
    """
    if p.nvars != r.k:
        raise ValueError(f"polynomial has {p.nvars} variables, ring has {r.k}")
    ell = r.staircase
    pending = dict(p.terms)
    done: dict[tuple[int, ...], int] = {}
    while pending:
        exp, coef = pending.popitem()
        offender = next((i for i, e in enumerate(exp) if e >= ell[i]), None)
        if offender is None:
            c = done.pop(exp, 0) + coef
            if c:
                done[exp] = c
            continue
        rest = list(exp)
        rest[offender] -= ell[offender]
        for texp, tcoef in r._tails[offender]:
            new = tuple(a + b for a, b in zip(rest, texp))
            c = pending.pop(new, 0) - tcoef * coef
            if c:
                pending[new] = c
    return IntPolynomial._raw(p.nvars, done)


def min_vanishing_power(alpha, cap: int, r: RingPresentation) -> int | None:
    """Least p <= cap with (sum_i alpha_i x_i)^p = 0 in the quotient, else
    None.  Multiplies one factor at a time, reducing after each step to keep
    intermediate polynomials under the staircase."""
    lin = IntPolynomial.linear(alpha)
    acc = normal_form(lin, r)
    for p in range(1, cap + 1):
        if not acc:
            return p
        if p < cap:
            acc = normal_form(acc * lin, r)
    return None


def power_is_zero(alpha, p: int, r: RingPresentation) -> bool:
    """Whether the linear form with coefficient vector alpha has p-th power
    zero in the quotient."""
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"power must be a positive integer, got {p!r}")
    alpha = tuple(alpha)
    if len(alpha) != r.k:
        raise ValueError(f"form has {len(alpha)} coefficients, ring has {r.k} generators")
    # A lower power vanishing makes every higher one vanish too.
    return min_vanishing_power(alpha, p, r) is not None


def hilbert_series(r: RingPresentation) -> tuple[int, ...]:
    """Counts of staircase monomials by total degree: the coefficients of
    the product of (1 + t + ... + t^(l_i - 1)) over all generators."""
    coeffs = [1]
    for l in r.staircase:
        out = [0] * (len(coeffs) + l - 1)
        for i, c in enumerate(coeffs):
            for j in range(l):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)
