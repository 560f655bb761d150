"""Dense 2-D coefficient arrays: pad_stack, padded_sum, coeff_derivative, poly_to_coeff2d.

The per-module loops these helpers replaced are kept here as oracles, so the
bit rules (which entries are assigned, which are accumulated into zeros and
which integer factor multiplies each coefficient) stay pinned.
"""

from fractions import Fraction
from math import factorial

import numpy as np
import numpy.polynomial.polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesbl.polynomials import ExactPolynomial, VectorPolynomial
from stokesbl.recursion import coeff_derivative, pad_stack, padded_sum, poly_to_coeff2d


def old_trace_derivative(coeff2d, beta, k):
    """x-polynomial of d_x^beta d_y^k applied to a 2-D coefficient array at y=0."""
    nxp, nyp = coeff2d.shape
    if k >= nyp:
        return np.zeros(1)
    out = np.zeros(max(nxp - beta, 1))
    for m in range(beta, nxp):
        factor = factorial(m) // factorial(m - beta) * factorial(k)
        out[m - beta] += coeff2d[m, k] * factor
    return out


def old_poly2d_dx(c):
    if c.shape[0] <= 1:
        return np.zeros((1, c.shape[1]))
    return c[1:, :] * np.arange(1, c.shape[0])[:, None]


def old_poly2d_dy(c):
    if c.shape[1] <= 1:
        return np.zeros((c.shape[0], 1))
    return c[:, 1:] * np.arange(1, c.shape[1])[None, :]


def random_coeffs(rng, shape):
    """Random coefficients with exact zeros and planted -0.0 entries."""
    c = rng.standard_normal(shape)
    c[rng.random(shape) < 0.2] = 0.0
    c[rng.random(shape) < 0.2] = -0.0
    return c


def has_negative_zero(a):
    return bool(np.any((a == 0) & np.signbit(a)))


def test_coeff_derivative_matches_trace_derivative_oracle():
    rng = np.random.default_rng(0)
    planted = 0
    for nx in range(1, 6):
        for ny in range(1, 6):
            for _ in range(4):
                w = random_coeffs(rng, (2, nx, ny))
                planted += has_negative_zero(w)
                for beta in range(5):
                    for k in range(5):  # k >= ny annihilates the y-axis
                        new = coeff_derivative(w, beta, k)[..., 0]
                        old = np.stack([old_trace_derivative(w[c], beta, k) for c in range(2)])
                        assert new.shape == old.shape
                        assert new.tobytes() == old.tobytes(), (nx, ny, beta, k)
    assert planted > 50


def test_coeff_derivative_matches_regularity_oracles():
    """Bytes equal to the old d_x / d_y helpers, up to the sign of a zero.

    The old helpers multiplied without accumulating, so they kept -0.0; the
    merged helper writes +0.0 there, as the wall-law oracle did.  Where an
    axis is annihilated, both give zeros (the old ones of shape (1, ny) or
    (nx, 1), the new one (1, 1)), and polyval2d evaluates both to +0.0.
    """
    rng = np.random.default_rng(1)
    X = rng.uniform(-9, 9, (7, 5))
    Y = rng.uniform(0, 9, (7, 5))
    for nx in range(1, 6):
        for ny in range(1, 6):
            for _ in range(4):
                c = random_coeffs(rng, (nx, ny))
                for (bx, by), oracle in (((1, 0), old_poly2d_dx), ((0, 1), old_poly2d_dy)):
                    new, old = coeff_derivative(c, bx, by), oracle(c)
                    assert not has_negative_zero(new)
                    if bx >= nx or by >= ny:
                        assert new.shape == (1, 1) and not new.any() and not old.any()
                    else:
                        assert new.shape == old.shape
                        assert new.tobytes() == (old + 0.0).tobytes()
                    clean = c + 0.0  # coefficients as the pipeline makes them
                    new_vals = npoly.polyval2d(X, Y, coeff_derivative(clean, bx, by))
                    assert new_vals.tobytes() == npoly.polyval2d(X, Y, oracle(clean)).tobytes()


def test_coeff_derivative_annihilated_axis_is_one_by_one():
    c = np.ones((3, 4, 2))
    assert coeff_derivative(c, 4, 0).shape == (3, 1, 1)
    assert coeff_derivative(c, 0, 2).shape == (3, 1, 1)
    assert not coeff_derivative(c, 0, 2).any()


small_ints = st.integers(-9, 9)
polys2d = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), small_ints,
                          max_size=8).map(lambda t: ExactPolynomial(2, t))


@settings(max_examples=200, deadline=None)
@given(polys2d, st.integers(0, 3), st.integers(0, 3))
def test_coeff_derivative_matches_exact_derivative(p, bx, by):
    dp = p
    for _ in range(bx):
        dp = dp.derive(0)
    for _ in range(by):
        dp = dp.derive(1)
    got, want = coeff_derivative(poly_to_coeff2d(p), bx, by), poly_to_coeff2d(dp)
    # the float array keeps x- and y-rows that the exact derivative trims
    assert all(g >= w for g, w in zip(got.shape, want.shape))
    padded = np.zeros(got.shape)
    padded[: want.shape[0], : want.shape[1]] = want
    assert np.array_equal(got, padded)


def test_poly_to_coeff2d_vector_pads_components():
    x2y = ExactPolynomial.monomial((2, 1), Fraction(3, 4))
    y3 = ExactPolynomial.monomial((0, 3), -2)
    for comps in ([x2y, y3], [y3, ExactPolynomial.zero(2)], [ExactPolynomial.zero(2)] * 2):
        got = poly_to_coeff2d(VectorPolynomial(comps))
        parts = [poly_to_coeff2d(q) for q in comps]
        shape = tuple(max(s) for s in zip(*(a.shape for a in parts)))
        assert got.shape == (len(comps),) + shape
        for c, part in enumerate(parts):
            want = np.zeros(shape)
            want[: part.shape[0], : part.shape[1]] = part
            assert got[c].tobytes() == want.tobytes()


def test_pad_stack_assigns_and_padded_sum_accumulates():
    a = np.array([[1.5, -0.0], [-0.0, 2.0]])
    b = np.array([[-0.0, 3.0, 4.0]])
    stacked = pad_stack([a, np.ones((2, 1))])
    assert stacked.shape == (2, 2, 2)
    assert stacked[0].tobytes() == a.tobytes()  # -0.0 kept
    total = padded_sum([(2.0, a), (1.0, b)])
    want = np.zeros((2, 3))
    want[:2, :2] += 2.0 * a
    want[:1, :3] += 1.0 * b
    assert total.tobytes() == want.tobytes()
    assert not has_negative_zero(total)
    assert padded_sum([], shape=(2, 1, 1)).shape == (2, 1, 1)
    assert padded_sum([(1.0, a)], shape=(1, 4)).shape == (2, 4)
