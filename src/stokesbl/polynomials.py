"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in d variables is stored as a sparse map from exponent tuples to
``Fraction`` coefficients.  Variables are ordered (x_1, ..., x_{d-1}, y): the
last axis is always the vertical coordinate.  Zero coefficients are never
stored, so equality of term maps is equality of polynomials.

All values are immutable after construction and every operation returns a new
object, so they are safe to share across threads.  The public constructor
validates and canonicalizes its input; internal operations build term maps
that are canonical by construction and return them through the private
``ExactPolynomial._trusted`` without re-validating them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

#: degree of the zero polynomial
NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# multi-index helpers (horizontal multi-indices live in Z_{>=0}^{d-1})
# ---------------------------------------------------------------------------

def monomial_exponents(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples in nvars variables of total degree == degree, graded-lex.

    Each multiset of `degree` variable indices is one monomial; no recursion
    over the variables, so any number of them works.
    """
    if degree < 0:
        return []
    out = []
    for variables in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for v in variables:
            exp[v] += 1
        out.append(tuple(exp))
    return sorted(out, key=grlex_key)


def grlex_key(exp: Sequence[int]) -> tuple:
    """Sort key for graded lexicographic term order."""
    return (sum(exp), tuple(exp))


def add_terms(out: dict[Exponent, Fraction], terms: Iterable[tuple[Exponent, Fraction]]) -> None:
    """Add (exponent, nonzero coefficient) pairs into a canonical term map in
    place.  A sum that cancels is popped, so the key order is that of ``+``."""
    for e, c in terms:
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s:
                out[e] = s
            else:
                del out[e]


# ---------------------------------------------------------------------------
# ExactPolynomial
# ---------------------------------------------------------------------------

class ExactPolynomial:
    """Sparse polynomial with exact rational coefficients.

    `dim` is the ambient dimension d; exponent tuples have length d with the
    last slot reserved for y.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Exponent, Fraction] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != dim:
                    raise ValueError(f"exponent {exp} has length != dim={dim}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = Fraction(coeff)
                if c != 0:
                    prev = clean.get(exp)
                    c = c if prev is None else prev + c
                    if c == 0:
                        clean.pop(exp, None)
                    else:
                        clean[exp] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, dim: int, terms: dict[Exponent, Fraction]) -> "ExactPolynomial":
        """Wrap a canonical term map (int-tuple keys of length dim, nonzero
        Fraction values) without copying or re-checking it."""
        out = object.__new__(cls)
        out.dim = dim
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ExactPolynomial":
        return cls(dim)

    @classmethod
    def constant(cls, value, dim: int) -> "ExactPolynomial":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff=1, dim: int | None = None) -> "ExactPolynomial":
        exp = tuple(int(e) for e in exp)
        return cls(len(exp) if dim is None else dim, {exp: Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(e) for e in self._terms)

    # -- ring operations ----------------------------------------------------

    def _check_dim(self, other: "ExactPolynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        self._check_dim(other)
        out = dict(self._terms)
        add_terms(out, other._terms.items())
        return ExactPolynomial._trusted(self.dim, out)

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial._trusted(self.dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "ExactPolynomial":
        if isinstance(other, ExactPolynomial):
            self._check_dim(other)
            out: dict[Exponent, Fraction] = {}
            for e1, c1 in self._terms.items():
                add_terms(out, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                                for e2, c2 in other._terms.items()))
            return ExactPolynomial._trusted(self.dim, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "ExactPolynomial":
        f = Fraction(factor)
        if f == 0:
            return ExactPolynomial.zero(self.dim)
        return ExactPolynomial._trusted(self.dim, {e: f * c for e, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactPolynomial)
            and self.dim == other.dim
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    # -- calculus ------------------------------------------------------------

    def derive(self, axis: int) -> "ExactPolynomial":
        """Exact partial derivative along `axis` (0-based; dim-1 is y)."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            k = e[axis]
            if k == 0:
                continue
            ne = list(e)
            ne[axis] = k - 1
            out[tuple(ne)] = c * k
        return ExactPolynomial._trusted(self.dim, out)

    def antiderive(self, axis: int) -> "ExactPolynomial":
        """Antiderivative along `axis` vanishing where that coordinate is 0."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            ne = list(e)
            ne[axis] = e[axis] + 1
            out[tuple(ne)] = c / (e[axis] + 1)
        return ExactPolynomial._trusted(self.dim, out)

    def laplacian(self) -> "ExactPolynomial":
        return self._second_derivative_sum(self.dim)

    def horizontal_laplacian(self) -> "ExactPolynomial":
        """Laplacian in the x variables only (all axes but the last)."""
        return self._second_derivative_sum(self.dim - 1)

    def _second_derivative_sum(self, naxes: int) -> "ExactPolynomial":
        """sum over axes < naxes of d^2/d(axis)^2, added in axis order."""
        out: dict[Exponent, Fraction] = {}
        for axis in range(naxes):
            add_terms(out, (
                (e[:axis] + (e[axis] - 2,) + e[axis + 1:], c * (e[axis] * (e[axis] - 1)))
                for e, c in self._terms.items() if e[axis] >= 2
            ))
        return ExactPolynomial._trusted(self.dim, out)

    # -- substitution ----------------------------------------------------------

    def trace_at_zero(self) -> "ExactPolynomial":
        """Substitute y = 0 (keep only terms with zero y-exponent)."""
        return ExactPolynomial._trusted(
            self.dim, {e: c for e, c in self._terms.items() if e[-1] == 0}
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: {"dim": d, "terms": [{"exp": [...], "num": "...", "den": "..."}]}."""
        terms = []
        for exp in sorted(self._terms, key=grlex_key):
            c = self._terms[exp]
            terms.append(
                {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
            )
        return {"dim": self.dim, "terms": terms}

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        names = [f"x{i + 1}" for i in range(self.dim - 1)] + ["y"]
        parts = []
        for exp in sorted(self._terms, key=grlex_key):
            c = self._terms[exp]
            factors = [
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(names, exp)
                if k > 0
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# VectorPolynomial
# ---------------------------------------------------------------------------

class VectorPolynomial:
    """A d-vector of ExactPolynomial sharing one ambient dimension."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[ExactPolynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("empty vector")
        dim = comps[0].dim
        if any(c.dim != dim for c in comps):
            raise ValueError("components have mismatched dimensions")
        self.components = comps

    @classmethod
    def zero(cls, ncomp: int, dim: int) -> "VectorPolynomial":
        return cls([ExactPolynomial.zero(dim) for _ in range(ncomp)])

    @classmethod
    def unit_monomial(cls, exp: Sequence[int], comp: int, ncomp: int) -> "VectorPolynomial":
        """x^exp e_comp (comp 0-based)."""
        dim = len(exp)
        comps = [ExactPolynomial.zero(dim) for _ in range(ncomp)]
        comps[comp] = ExactPolynomial.monomial(exp)
        return cls(comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> ExactPolynomial:
        return self.components[i]

    def __add__(self, other: "VectorPolynomial") -> "VectorPolynomial":
        if len(other) != len(self):
            raise ValueError("component count mismatch")
        return VectorPolynomial([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorPolynomial") -> "VectorPolynomial":
        return self + other.scale(-1)

    def scale(self, factor) -> "VectorPolynomial":
        return VectorPolynomial([c.scale(factor) for c in self.components])

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorPolynomial) and self.components == other.components

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    @property
    def degree(self):
        return max(c.degree for c in self.components)

    def divergence(self) -> ExactPolynomial:
        """sum_i d(component_i)/d(axis_i); requires len == dim."""
        if len(self.components) != self.dim:
            raise ValueError("divergence needs a d-vector in d variables")
        out: dict[Exponent, Fraction] = {}
        for axis, comp in enumerate(self.components):
            add_terms(out, comp.derive(axis)._terms.items())
        return ExactPolynomial._trusted(self.dim, out)

    def trace_at_zero(self) -> "VectorPolynomial":
        return VectorPolynomial([c.trace_at_zero() for c in self.components])

    def to_json_dict(self) -> dict:
        return {"components": [c.to_json_dict() for c in self.components]}

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(c) for c in self.components) + ")"
