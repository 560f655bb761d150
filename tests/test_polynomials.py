"""Exact polynomial arithmetic: hand-checked values plus algebraic properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesbl.polynomials import (
    ExactPolynomial,
    VectorPolynomial,
    monomial_exponents,
)


def P(dim, **terms):
    """Shorthand: P(2, x1y=3) builds 3*x1*y in dimension 2 via exponent keys."""
    return ExactPolynomial(dim, terms)


def random_poly(rng, dim, max_degree, nterms=6, denom=5):
    terms = {}
    for _ in range(nterms):
        exp = [0] * dim
        for _ in range(rng.randrange(max_degree + 1)):
            exp[rng.randrange(dim)] += 1
        if sum(exp) > max_degree:
            continue
        terms[tuple(exp)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, denom))
    return ExactPolynomial(dim, terms)


def test_derive_power_rule():
    # d/dx1 (x1^2 y) = 2 x1 y
    p = ExactPolynomial(2, {(2, 1): 1})
    assert p.derive(0) == ExactPolynomial(2, {(1, 1): 2})
    # d/dy (x1 y^3) = 3 x1 y^2
    q = ExactPolynomial(2, {(1, 3): 1})
    assert q.derive(1) == ExactPolynomial(2, {(1, 2): 3})
    # d/dx1 (y^2) = 0
    r = ExactPolynomial(2, {(0, 2): 1})
    assert r.derive(0).is_zero()


def test_derive_axis_out_of_range():
    p = ExactPolynomial(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        p.derive(2)
    with pytest.raises(ValueError):
        p.derive(-1)


def test_laplacian_div_horizontal():
    # Lap(x1^2 y^2 / 2 - y^4 / 12) = x1^2, derived by two explicit derive() passes
    p = ExactPolynomial(2, {(2, 2): Fraction(1, 2), (0, 4): Fraction(-1, 12)})
    by_hand = p.derive(0).derive(0) + p.derive(1).derive(1)
    assert p.laplacian() == by_hand == ExactPolynomial(2, {(2, 0): 1})
    # div((y, 0)) = 0 in d = 2
    v = VectorPolynomial([ExactPolynomial(2, {(0, 1): 1}), ExactPolynomial.zero(2)])
    assert v.divergence().is_zero()
    # horizontal Laplacian of x1^2 + y^2 is 2
    q = ExactPolynomial(2, {(2, 0): 1, (0, 2): 1})
    assert q.horizontal_laplacian() == ExactPolynomial.constant(2, 2)


def test_trace_at_zero():
    assert ExactPolynomial(2, {(1, 2): 1}).trace_at_zero().is_zero()
    q = ExactPolynomial(2, {(2, 0): 1, (0, 1): 1})  # x1^2 + y
    assert q.trace_at_zero() == ExactPolynomial(2, {(2, 0): 1})


def test_derivatives_commute():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.choice([2, 3])
        p = random_poly(rng, dim, 8)
        for i in range(dim):
            for j in range(dim):
                assert p.derive(i).derive(j) == p.derive(j).derive(i)


def test_leibniz_rule():
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.choice([2, 3])
        p = random_poly(rng, dim, 5)
        q = random_poly(rng, dim, 5)
        for axis in range(dim):
            assert (p * q).derive(axis) == p.derive(axis) * q + p * q.derive(axis)


def test_canonical_form_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        p = random_poly(rng, 3, 6)
        assert (p + (-p)).terms == {}
        assert (p - p).is_zero()


def test_degree_sentinel():
    assert ExactPolynomial.zero(2).degree == float("-inf")
    assert ExactPolynomial.constant(4, 2).degree == 0
    assert ExactPolynomial(2, {(2, 3): 1}).degree == 5


def test_antiderive_inverts_derive():
    rng = random.Random(17)
    for _ in range(20):
        p = random_poly(rng, 2, 6)
        for axis in range(2):
            assert p.antiderive(axis).derive(axis) == p


def test_json_form_and_order():
    p = ExactPolynomial(2, {(0, 2): Fraction(-1, 3), (1, 0): 2, (0, 0): 5})
    assert p.to_json_dict() == {"dim": 2, "terms": [
        {"exp": [0, 0], "num": "5", "den": "1"},
        {"exp": [1, 0], "num": "2", "den": "1"},
        {"exp": [0, 2], "num": "-1", "den": "3"},
    ]}


def test_vector_polynomial_basics():
    v = VectorPolynomial.unit_monomial((1, 1), 0, 2)  # x1 y e1
    w = v + v.scale(-1)
    assert w.is_zero()
    with pytest.raises(ValueError):
        VectorPolynomial([ExactPolynomial.zero(2), ExactPolynomial.zero(3)])
    zero = {"dim": 2, "terms": []}
    assert v.to_json_dict() == {"components": [
        {"dim": 2, "terms": [{"exp": [1, 1], "num": "1", "den": "1"}]}, zero]}


def test_monomial_exponents_counts():
    from itertools import product
    from math import comb

    for nvars in (1, 2, 3):
        for deg in range(5):
            assert len(monomial_exponents(nvars, deg)) == comb(deg + nvars - 1, nvars - 1)
    # one degree is graded-lex in plain tuple order: check it against every
    # exponent tuple of that degree, sorted
    for nvars in range(5):
        for deg in range(-1, 6):
            want = sorted(e for e in product(range(max(deg, 0) + 1), repeat=nvars)
                          if sum(e) == deg)
            assert monomial_exponents(nvars, deg) == want, (nvars, deg)
    # many variables at degree 1: the unit exponents, x_n first
    n = 1200
    assert monomial_exponents(n, 1) == [tuple(int(i == j) for i in range(n))
                                        for j in reversed(range(n))]


# ---------------------------------------------------------------------------
# canonical results of the internal (unvalidated) constructor, and the
# accumulation order of the in-place sums against the old copying sums
# ---------------------------------------------------------------------------

def ref_add(a, b):
    """`+` as it was before in-place accumulation: copy, add, re-validate."""
    out = a.terms
    for e, c in b.terms.items():
        s = out.get(e, Fraction(0)) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return ExactPolynomial(a.dim, out)


def shift_y(p: ExactPolynomial, power: int) -> ExactPolynomial:
    """Multiply p by y**power."""
    if power < 0:
        raise ValueError("negative power")
    out = {}
    for e, c in p._terms.items():
        ne = list(e)
        ne[-1] += power
        out[tuple(ne)] = c
    return ExactPolynomial._trusted(p.dim, out)


def ref_laplacian(p, naxes=None):
    out = ExactPolynomial.zero(p.dim)
    for axis in range(p.dim if naxes is None else naxes):
        out = ref_add(out, p.derive(axis).derive(axis))
    return out


def ref_divergence(v):
    out = ExactPolynomial.zero(v.dim)
    for axis, comp in enumerate(v.components):
        out = ref_add(out, comp.derive(axis))
    return out


def assert_canonical(p, dim):
    assert p.dim == dim
    for e, c in p._terms.items():
        assert type(e) is tuple and len(e) == dim
        assert all(type(k) is int and k >= 0 for k in e)
        assert type(c) is Fraction and c != 0
    assert p == ExactPolynomial(dim, p.terms)


def same_terms(p, q):
    """Equal term maps with equal key order."""
    return list(p.terms.items()) == list(q.terms.items())


# few distinct exponents and coefficients, so sums often cancel
small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def exact_polys(draw, dim, count):
    exps = st.tuples(*[st.integers(0, 4)] * dim)
    return [ExactPolynomial(dim, draw(st.dictionaries(exps, small_fractions, max_size=8)))
            for _ in range(count)]


dim_and_polys = st.integers(2, 4).flatmap(
    lambda d: st.tuples(st.just(d), exact_polys(d, count=d)))


@settings(max_examples=150, deadline=None)
@given(dim_and_polys, small_fractions)
def test_internal_ops_return_canonical_polynomials(case, factor):
    d, (a, b, *rest) = case
    v = VectorPolynomial([a, b, *rest])
    results = [a + b, a - b, a - a + b, -a, a * b, a.scale(factor), shift_y(a, 2),
               a.trace_at_zero(), a.laplacian(),
               a.horizontal_laplacian(), v.divergence()]
    results += [a.derive(axis) for axis in range(d)]
    results += [a.antiderive(axis) for axis in range(d)]
    for r in results:
        assert_canonical(r, d)
    assert a + b == ref_add(a, b) and same_terms(a + b, ref_add(a, b))
    assert same_terms(a.laplacian(), ref_laplacian(a))
    assert same_terms(a.horizontal_laplacian(), ref_laplacian(a, d - 1))
    assert same_terms(v.divergence(), ref_divergence(v))


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        ExactPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        ExactPolynomial(2, {(1, -1): 1})
    p = ExactPolynomial(2, {(1.0, 0): 2, (0, 1): 0, (0, 2): "-1/2"})
    assert list(p._terms.items()) == [((1, 0), Fraction(2)), ((0, 2), Fraction(-1, 2))]
    assert type(next(iter(p._terms))[0]) is int
    assert all(type(c) is Fraction for c in p._terms.values())
