"""Exact per-mode Stokes solutions and the residual oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from stokesbl.modes import (
    ModeData,
    ModeExpansion,
    SqrtExt,
    dtn_map,
    dtn_matrix,
    halfline_integrals,
    knorm_exact,
    poly_add,
    poly_is_zero,
    residual_check,
    solve_mode,
    solve_mode_numeric,
)


def S(re, im=0):
    return SqrtExt.of(re, im)


I = S(0, 1)


def random_mode_case(rng, d):
    k = tuple(rng.choice([v for v in range(-8, 9) if v != 0] + [0] * 3) for _ in range(d - 1))
    if all(v == 0 for v in k):
        k = (rng.choice([1, -1, 2, -3]),) + k[1:]
    deg = rng.randrange(0, 7)
    F = [
        [S(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
           Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))) for _ in range(deg + 1)]
        for _ in range(d)
    ]
    b = [S(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
           Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))) for _ in range(d)]
    return ModeData(k, F, b)


def test_sqrtext_arithmetic():
    r2 = SqrtExt.sqrt_of(2)
    assert (S(1) + r2) * (S(1) - r2) == S(-1)
    assert SqrtExt.sqrt_of(9) == S(3)  # perfect squares fold
    x = S(Fraction(2, 3), Fraction(-1, 5)) + SqrtExt(0, 0, 1, Fraction(1, 2), 7)
    assert x / x == S(1)
    assert (x * x.inverse()) == 1
    assert x.conjugate().conjugate() == x
    assert abs((S(1, 2) + SqrtExt.sqrt_of(3)).as_complex() - (1 + 3 ** 0.5 + 2j)) < 1e-15
    with pytest.raises(ZeroDivisionError):
        S(0).inverse()
    with pytest.raises(ValueError):
        SqrtExt.sqrt_of(2) + SqrtExt.sqrt_of(3)


def test_halfline_integrals_trivial_and_shape():
    qbar, vbar = halfline_integrals((1,), [[], []])
    assert qbar == [] and all(v == [] for v in vbar)
    # constant source, d=2, k=1: Qbar = -(1/2)(i z + i/2)
    qbar, vbar = halfline_integrals((1,), [[S(1)], [S(0)]])
    assert qbar == [I * Fraction(-1, 4), I * Fraction(-1, 2)]
    # deg F = 1 at k=2 keeps deg Qbar <= 2
    qbar, _ = halfline_integrals((2,), [[S(0)], [S(0), S(1)]])
    assert len(qbar) <= 3


def test_solve_mode_explicit_example():
    data = ModeData((1,), [[], []], [S(1), S(0)])
    sol = solve_mode(data)
    assert sol.c == I
    assert sol.Q == [S(0, -2)]
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
    sol_bad_q = type(sol)(sol.k, sol.V, poly_add(sol.Q, [S(1)]), sol.c, sol.knorm)
    res = residual_check(data.k, data.F_poly, sol_bad_q, data.b_hat)
    # momentum residual picks up exactly [ik, -|k|] * 1
    assert res.momentum[0] == [I]
    assert res.momentum[1] == [S(-1), S(0)] or res.momentum[1] == [S(-1)]
    vbad = [sol.V[0], poly_add(sol.V[1], [S(1)])]
    sol_bad_v = type(sol)(sol.k, vbad, sol.Q, sol.c, sol.knorm)
    res2 = residual_check(data.k, data.F_poly, sol_bad_v, data.b_hat)
    assert res2.divergence[0] == S(-1)  # -|k| * 1 at order zero


def test_conjugate_symmetry():
    rng = random.Random(41)
    for _ in range(10):
        data = random_mode_case(rng, 2)
        sol = solve_mode(data)
        conj_data = ModeData(
            tuple(-v for v in data.k),
            [[c.conjugate() for c in comp] for comp in data.F_poly],
            [c.conjugate() for c in data.b_hat],
        )
        conj_sol = solve_mode(conj_data)
        for a, b in zip(sol.V, conj_sol.V):
            assert [c.conjugate() for c in a] == b
        assert [c.conjugate() for c in sol.Q] == conj_sol.Q


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
        V, _, _ = solve_mode_numeric(k, [[], []], b)
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


def test_mode_expansion_eval_and_json():
    exp = ModeExpansion(3.0, {
        1: {"V": np.array([[1.0 + 0j], [0j]]), "Q": np.array([0j]), "c": 0j},
        -1: {"V": np.array([[1.0 + 0j], [0j]]), "Q": np.array([0j]), "c": 0j},
    })
    x = np.linspace(-np.pi, np.pi, 9)
    vals = exp.velocity(x, 3.0, comp=0)
    assert np.allclose(vals, 2 * np.cos(x))
    dyvals = exp.velocity(x, 3.0, comp=0, dy=1)
    assert np.allclose(dyvals, -2 * np.cos(x))  # constant profile: d_y = -|k| field
    dxvals = exp.velocity(x, 3.0, comp=0, dx=1)
    assert np.allclose(dxvals, -2 * np.sin(x))
    rebuilt = ModeExpansion.from_json_list(exp.to_json_list())
    assert np.allclose(rebuilt.velocity(x, 4.2, comp=0), exp.velocity(x, 4.2, comp=0))


def test_dtn_matrix_is_memoized_read_only():
    M = dtn_matrix((2,))
    assert dtn_matrix([2]) is M
    assert np.array_equal(M, np.array([[e.as_complex() for e in row]
                                       for row in dtn_map((2,))]))
    with pytest.raises(ValueError):
        M[0, 0] = 0.0
