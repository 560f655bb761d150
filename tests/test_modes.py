"""Exact per-mode Stokes solutions and the residual oracle."""

import operator
import random
from fractions import Fraction
from math import isqrt, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stokesbl import modes
from stokesbl.modes import (
    ModeData,
    SqrtExt,
    dtn_map,
    dtn_matrix,
    halfline_integrals,
    knorm_exact,
    mode_fields,
    poly_add,
    poly_is_zero,
    residual_check,
    solve_mode,
    solve_mode_numeric,
)


def S(re, im=0):
    return SqrtExt.of(re, im)


I = S(0, 1)


def conj(x):
    """Complex conjugate of a SqrtExt, built from its public parts."""
    return SqrtExt(x.ar, -x.ai, x.br, -x.bi, x.n)


def random_mode_case(rng, d, of=SqrtExt.of):
    k = tuple(rng.choice([v for v in range(-8, 9) if v != 0] + [0] * 3) for _ in range(d - 1))
    if all(v == 0 for v in k):
        k = (rng.choice([1, -1, 2, -3]),) + k[1:]
    deg = rng.randrange(0, 7)
    F = [
        [of(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))) for _ in range(deg + 1)]
        for _ in range(d)
    ]
    b = [of(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))) for _ in range(d)]
    return ModeData(k, F, b)


def test_sqrtext_arithmetic():
    r2 = SqrtExt.sqrt_of(2)
    assert (S(1) + r2) * (S(1) - r2) == S(-1)
    assert SqrtExt.sqrt_of(9) == S(3)  # perfect squares fold
    x = S(Fraction(2, 3), Fraction(-1, 5)) + SqrtExt(0, 0, 1, Fraction(1, 2), 7)
    assert x / x == S(1)
    assert (x * x.inverse()) == 1
    assert conj(conj(x)) == x
    assert abs((S(1, 2) + SqrtExt.sqrt_of(3)).as_complex() - (1 + 3 ** 0.5 + 2j)) < 1e-15
    with pytest.raises(ZeroDivisionError):
        S(0).inverse()
    with pytest.raises(ValueError):
        SqrtExt.sqrt_of(2) + SqrtExt.sqrt_of(3)


def test_halfline_integrals_trivial_and_shape():
    qbar, vbar = halfline_integrals((1,), [[], []], knorm_exact((1,)))
    assert qbar == [] and all(v == [] for v in vbar)
    # constant source, d=2, k=1: Qbar = -(1/2)(i z + i/2)
    qbar, vbar = halfline_integrals((1,), [[S(1)], [S(0)]], knorm_exact((1,)))
    assert qbar == [I * Fraction(-1, 4), I * Fraction(-1, 2)]
    # deg F = 1 at k=2 keeps deg Qbar <= 2
    qbar, _ = halfline_integrals((2,), [[S(0)], [S(0), S(1)]], knorm_exact((2,)))
    assert len(qbar) <= 3


def test_solve_mode_explicit_example():
    data = ModeData((1,), [[], []], [S(1), S(0)])
    sol = solve_mode(data)
    assert sol.Q == [S(0, -2)]  # -2 c with c = a . b = i
    assert sol.V[0] == [S(1), S(-1)]  # 1 - z
    assert sol.V[1] == [S(0), S(0, -1)]  # -i z
    assert residual_check((1,), data.F_poly, sol, data.b_hat).ok


def test_solve_mode_zero_data():
    data = ModeData((2,), [[], []], [S(0), S(0)])
    sol = solve_mode(data)
    assert all(poly_is_zero(v) for v in sol.V) and poly_is_zero(sol.Q)


def test_residuals_vanish_on_random_cases():
    rng = random.Random(31)
    for _ in range(25):
        for d in (2, 3):
            data = random_mode_case(rng, d)
            sol = solve_mode(data)
            res = residual_check(data.k, data.F_poly, sol, data.b_hat)
            assert res.ok
            n = max((len(f) - 1 for f in data.F_poly if f), default=-1)
            assert len(sol.V[0]) - 1 <= n + 2 if sol.V[0] else True
            assert len(sol.Q) - 1 <= n + 1 if sol.Q else True


def test_residuals_detect_perturbations():
    data = ModeData((1,), [[], []], [S(1), S(2, 1)])
    sol = solve_mode(data)
    sol_bad_q = type(sol)(sol.V, poly_add(sol.Q, [S(1)]), sol.knorm)
    res = residual_check(data.k, data.F_poly, sol_bad_q, data.b_hat)
    # momentum residual picks up exactly [ik, -|k|] * 1
    assert res.momentum[0] == [I]
    assert res.momentum[1] == [S(-1), S(0)] or res.momentum[1] == [S(-1)]
    vbad = [sol.V[0], poly_add(sol.V[1], [S(1)])]
    sol_bad_v = type(sol)(vbad, sol.Q, sol.knorm)
    res2 = residual_check(data.k, data.F_poly, sol_bad_v, data.b_hat)
    assert res2.divergence[0] == S(-1)  # -|k| * 1 at order zero


def test_conjugate_symmetry():
    rng = random.Random(41)
    for _ in range(10):
        data = random_mode_case(rng, 2)
        sol = solve_mode(data)
        conj_data = ModeData(
            tuple(-v for v in data.k),
            [[conj(c) for c in comp] for comp in data.F_poly],
            [conj(c) for c in data.b_hat],
        )
        conj_sol = solve_mode(conj_data)
        for a, b in zip(sol.V, conj_sol.V):
            assert [conj(c) for c in a] == b
        assert [conj(c) for c in sol.Q] == conj_sol.Q


def test_solve_mode_numeric_matches_exact():
    # the float closed form against the exact one, mapped through as_complex;
    # Q(0) = -2 c + qbar(0) carries c_k
    for seed in range(20):
        data = random_mode_case(random.Random(seed), 2)
        exact = solve_mode(data)
        F = [[e.as_complex() for e in comp] for comp in data.F_poly]
        integrals = halfline_integrals(data.k, F, knorm=float(abs(data.k[0])))
        V, Q = solve_mode_numeric(data.k, integrals, [e.as_complex() for e in data.b_hat])
        for got, want in [*zip(V, exact.V), (Q, exact.Q)]:
            got = np.array(got or [0j])
            want = np.array([e.as_complex() for e in want] or [0j])
            assert got.shape == want.shape, seed
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), seed


def test_dtn_map_example():
    M = dtn_map((1,))
    b = [S(1), S(0)]
    image = [M[0][0] * b[0] + M[0][1] * b[1], M[1][0] * b[0] + M[1][1] * b[1]]
    assert image == [S(-2), S(0, -1)]
    assert dtn_matrix((1,))[0, 0] == pytest.approx(-2.0)
    zero_image = [M[0][0] * S(0) + M[0][1] * S(0), M[1][0] * S(0) + M[1][1] * S(0)]
    assert all(e == 0 for e in zero_image)


def test_dtn_matches_derivative_of_mode_solution():
    # central finite difference of V(y) = V_k(y-L) e^{-|k|(y-L)} at y = L
    for k, b in (((1,), (1.0, 0.0)), ((3,), (0.25, -1.0)), ((-2,), (0.5, 2.0))):
        V, _ = solve_mode_numeric(k, ([], [[], []]), b)
        M = dtn_matrix(k)
        kn = abs(k[0])
        h = np.longdouble(1e-4)
        for comp in range(2):
            poly = V[comp]

            def field(z):
                acc = np.longdouble(0) + 1j * np.longdouble(0)
                for c in poly[::-1]:
                    acc = acc * z + complex(c)
                return acc * np.exp(np.longdouble(-kn) * z)

            fd = (-field(2 * h) + 8 * field(h) - 8 * field(-h) + field(-2 * h)) / (12 * h)
            exact = M[comp, 0] * b[0] + M[comp, 1] * b[1]
            assert abs(complex(fd) - exact) < 1e-12


def test_dtn_round_trip_exact():
    # M_k is invertible for d = 2: recover the trace from its Neumann image
    for kk in (1, 2, -3):
        M = dtn_map((kk,))
        b = [S(Fraction(3, 2), 1), S(-2, Fraction(1, 3))]
        g = [M[0][0] * b[0] + M[0][1] * b[1], M[1][0] * b[0] + M[1][1] * b[1]]
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        inv = [[M[1][1] / det, S(0) - M[0][1] / det], [S(0) - M[1][0] / det, M[0][0] / det]]
        rec = [inv[0][0] * g[0] + inv[0][1] * g[1], inv[1][0] * g[0] + inv[1][1] * g[1]]
        assert rec == b


def test_knorm_exact_folds_squares():
    assert knorm_exact((3,)) == S(3)
    assert knorm_exact((-4,)) == S(4)
    assert knorm_exact((3, 4)) == S(5)
    root5 = knorm_exact((1, 2))
    assert root5 * root5 == S(5)
    with pytest.raises(ValueError):
        knorm_exact((0,))


def test_zero_mode_rejected():
    with pytest.raises(ValueError):
        ModeData((0,), [[], []], [S(0), S(0)])
    with pytest.raises(ValueError):
        dtn_map((0, 0))
    with pytest.raises(ValueError):
        knorm_exact((0,))
    with pytest.raises(ValueError):
        halfline_integrals((0,), [[1.0], [0.0]], 1.0)
    with pytest.raises(ValueError):
        solve_mode_numeric((0,), ([], [[], []]), [0j, 0j])


def test_mode_expansion_eval():
    # a stored mode k < nyquist stands for itself and its conjugate at -k;
    # the Nyquist mode counts once
    modes = {1: ([1.0 + 0j, 0.5 + 0j], [0.5j], [2.0 + 0j]), 4: ([1.0 + 0j], [0j], [0j])}
    x = np.linspace(-np.pi, np.pi, 9)
    u1, u2, p = mode_fields(modes, 3.0, 4, x, 3.0)
    assert np.allclose(u1, 2 * np.cos(x) + np.cos(4 * x))
    assert np.allclose(u2, -np.sin(x))
    assert np.allclose(p, 4 * np.cos(x))
    u1, _, _ = mode_fields(modes, 3.0, 4, x, 4.2)
    assert np.allclose(u1, 2 * 1.6 * np.exp(-1.2) * np.cos(x) + np.exp(-4.8) * np.cos(4 * x))


def test_dtn_matrix_is_memoized_read_only():
    M = dtn_matrix((2,))
    assert dtn_matrix((2,)) is M
    assert np.array_equal(M, np.array([[e.as_complex() for e in row]
                                       for row in dtn_map((2,))]))
    with pytest.raises(ValueError):
        M[0, 0] = 0.0


# ---------------------------------------------------------------------------
# SqrtExt against a Fraction-field reference
# ---------------------------------------------------------------------------

def _gmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


class RefSqrtExt:
    """Reference scalar: the same field with four Fraction parts, no reduction."""

    def __init__(self, ar=0, ai=0, br=0, bi=0, n=0):
        ar, ai, br, bi = Fraction(ar), Fraction(ai), Fraction(br), Fraction(bi)
        n = int(n)
        if n < 0:
            raise ValueError("radicand must be >= 0")
        if n:
            r = isqrt(n)
            if r * r == n:
                ar, ai = ar + br * r, ai + bi * r
                br = bi = Fraction(0)
                n = 0
        if br == 0 and bi == 0:
            n = 0
        self.ar, self.ai, self.br, self.bi, self.n = ar, ai, br, bi, n

    @staticmethod
    def _coerce(value):
        if isinstance(value, RefSqrtExt):
            return value
        if isinstance(value, (int, Fraction)):
            return RefSqrtExt(value)
        return None

    @classmethod
    def of(cls, re, im=0):
        return cls(re, im)

    @classmethod
    def sqrt_of(cls, n):
        return cls(0, 0, 1, 0, n)

    def _common_n(self, other):
        if self.n and other.n and self.n != other.n:
            raise ValueError(f"incompatible radicands {self.n} and {other.n}")
        return self.n or other.n

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self._common_n(o)
        return RefSqrtExt(self.ar + o.ar, self.ai + o.ai, self.br + o.br, self.bi + o.bi, n)

    __radd__ = __add__

    def __neg__(self):
        return RefSqrtExt(-self.ar, -self.ai, -self.br, -self.bi, self.n)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self._common_n(o)
        a1, b1 = (self.ar, self.ai), (self.br, self.bi)
        a2, b2 = (o.ar, o.ai), (o.br, o.bi)
        ra, rb = _gmul(a1, a2), _gmul(b1, b2)
        mix1, mix2 = _gmul(a1, b2), _gmul(b1, a2)
        return RefSqrtExt(ra[0] + n * rb[0], ra[1] + n * rb[1],
                          mix1[0] + mix2[0], mix1[1] + mix2[1], n)

    __rmul__ = __mul__

    def inverse(self):
        a, b = (self.ar, self.ai), (self.br, self.bi)
        asq, bsq = _gmul(a, a), _gmul(b, b)
        w = (asq[0] - self.n * bsq[0], asq[1] - self.n * bsq[1])
        wnorm = w[0] * w[0] + w[1] * w[1]
        if wnorm == 0:
            raise ZeroDivisionError("division by zero SqrtExt")
        winv = (w[0] / wnorm, -w[1] / wnorm)
        pa, pb = _gmul(a, winv), _gmul((-b[0], -b[1]), winv)
        return RefSqrtExt(pa[0], pa[1], pb[0], pb[1], self.n)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.n and o.n and self.n != o.n:
            return False
        return (self.ar, self.ai, self.br, self.bi) == (o.ar, o.ai, o.br, o.bi)

    def conjugate(self):
        return RefSqrtExt(self.ar, -self.ai, self.br, -self.bi, self.n)

    def is_zero(self):
        return self.ar == 0 and self.ai == 0 and self.br == 0 and self.bi == 0

    def as_complex(self):
        root = sqrt(self.n) if self.n else 0.0
        return complex(float(self.ar) + float(self.br) * root,
                       float(self.ai) + float(self.bi) * root)


def parts(x):
    return (x.ar, x.ai, x.br, x.bi, x.n)


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
radicands = st.sampled_from([0, 2, 3, 5, 9])
raw_parts = st.tuples(rationals, rationals, rationals, rationals)


def both(raw, n):
    if n == 0:  # the reference keeps a sqrt(0) part; SqrtExt folds it away
        raw = raw[:2] + (0, 0)
    return SqrtExt(*raw, n), RefSqrtExt(*raw, n)


@settings(max_examples=300, deadline=None)
@given(raw_parts, raw_parts, radicands)
def test_sqrtext_ops_match_reference(px, py, n):
    x, rx = both(px, n)
    y, ry = both(py, n)
    for op in (operator.add, operator.sub, operator.mul):
        assert parts(op(x, y)) == parts(op(rx, ry))
    assert parts(-x) == parts(-rx)
    assert parts(conj(x)) == parts(rx.conjugate())
    assert x.is_zero() == rx.is_zero()
    assert (x == y) == (rx == ry)
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        assert parts(y.inverse()) == parts(ry.inverse())
        assert parts(x / y) == parts(rx / ry)


@settings(max_examples=200, deadline=None)
@given(raw_parts, radicands, rationals, st.integers(-50, 50))
def test_sqrtext_mixed_operands_match_reference(px, n, q, m):
    x, rx = both(px, n)
    for c in (q, m):
        assert parts(x + c) == parts(rx + c) and parts(c + x) == parts(c + rx)
        assert parts(x - c) == parts(rx - c) and parts(c - x) == parts(c - rx)
        assert parts(x * c) == parts(rx * c) and parts(c * x) == parts(c * rx)
        if c != 0:
            assert parts(x / c) == parts(rx / c)
        if not rx.is_zero():
            assert parts(c / x) == parts(c / rx)
        assert (x == c) == (rx == c)


@settings(max_examples=200, deadline=None)
@given(raw_parts, raw_parts, radicands)
def test_sqrtext_canonical_form(px, py, n):
    (x, rx), (y, _) = both(px, n), both(py, n)
    assume(not y.is_zero())
    back = (x * y) / y
    assert back == x and hash(back) == hash(x)
    again = x - y + y
    assert again == x and hash(again) == hash(x)
    assert x.as_complex() == rx.as_complex()


def test_sqrtext_equal_values_hash_equal():
    assert SqrtExt(Fraction(6, 2)) == SqrtExt(3)
    assert hash(SqrtExt(Fraction(6, 2))) == hash(SqrtExt(3)) == hash(3)
    assert SqrtExt("1/2", "-3/4") == SqrtExt(Fraction(2, 4), Fraction(-6, 8))
    assert hash(SqrtExt("1/2")) == hash(Fraction(1, 2))
    assert SqrtExt(0, 0, 2, 0, 4) == SqrtExt(4)  # perfect square folds
    r2 = SqrtExt.sqrt_of(2)
    assert (r2 * r2).n == 0 and r2 * r2 == 2
    assert r2 * Fraction(1, 2) == SqrtExt(0, 0, "1/2", 0, 2)
    assert hash(r2 / 2) == hash(SqrtExt(0, 0, Fraction(1, 2), 0, 2))
    assert SqrtExt(0, 0, 0, 0, 7).n == 0  # vanishing sqrt part drops n
    assert SqrtExt(1, 0, 5, 0, 0) == 1  # sqrt(0) folds like any perfect square
    assert r2 != SqrtExt.sqrt_of(3)
    assert repr(SqrtExt(Fraction(2, 4), 1, 3, 0, 5)) == "(1/2+1i) + (3+0i)*sqrt(5)"
    with pytest.raises(AttributeError):
        r2.br = Fraction(2)


def test_dtn_matrix_bytes_match_reference(monkeypatch):
    ks = [(k,) for k in range(1, 33)] + [(k, j) for k in range(1, 33) for j in (1, 3)]
    with monkeypatch.context() as m:
        m.setattr(modes, "SqrtExt", RefSqrtExt)
        want = {k: np.array([[e.as_complex() for e in row] for row in modes.dtn_map(k)])
                for k in ks}
    for k in ks:
        assert dtn_matrix(k).tobytes() == want[k].tobytes(), k


def test_solve_mode_matches_reference(monkeypatch):
    for seed in range(20):
        d = 2 + seed % 2
        sol = solve_mode(random_mode_case(random.Random(seed), d))
        with monkeypatch.context() as m:
            m.setattr(modes, "SqrtExt", RefSqrtExt)
            ref = modes.solve_mode(random_mode_case(random.Random(seed), d, RefSqrtExt.of))
        assert ref.Q and all(isinstance(c, RefSqrtExt) for c in ref.Q)
        assert [[parts(c) for c in v] for v in sol.V] == [[parts(c) for c in v] for v in ref.V]
        assert [parts(c) for c in sol.Q] == [parts(c) for c in ref.Q]
