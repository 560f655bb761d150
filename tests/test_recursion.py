"""Corrector hierarchy: recursion identities, assembly, route equivalence."""

import base64
import inspect
import json
import sys
from math import comb

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from stokesbl.cell import (StripGrid, TransparentTop, divergence_residual, solve_cell,
                           wall_problem)
from stokesbl.cli import dump_json, main
from stokesbl.geometry import BoundaryGeometry, InputError
from stokesbl.modes import mode_fields, poly_add, poly_derive, poly_scale
from stokesbl.polynomials import ExactPolynomial, VectorPolynomial
from stokesbl.recursion import (
    CorrectorField,
    CorrectorStack,
    LevelSampler,
    LevelSolution,
    assemble_alpha,
    heterogeneous_basis,
    level_problem,
    monomial_coefficients,
    not_a_knot_coefficients,
    script_S,
    stack_from_json,
    stack_to_json,
)
from stokesbl.verify import GEOMETRIES, script_S_via_trace_formula

COS_WALL = BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25})


@pytest.fixture(scope="module")
def stack():
    return CorrectorStack(COS_WALL, nx=24, ny=32)


@pytest.fixture(scope="module")
def flat_stack():
    return CorrectorStack(BoundaryGeometry.flat(), nx=16, ny=20)


def _plant_fake_level(stack, beta, l, comp, v_poly, q_poly, rng):
    """Insert a synthetic level with random poly data, random modes 1 and 2
    and zero profiles for the other modes."""
    nx, ny = stack.grid.nx, stack.grid.ny
    modes = {k: ([0j], [0j], [0j]) for k in range(1, nx // 2 + 1)}
    for k in (1, 2):
        V = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]
        Q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        modes[k] = tuple([complex(c) for c in a] for a in (*V, Q))
    level = LevelSolution(
        beta=beta, l=l, comp=comp,
        u=rng.standard_normal((2, nx, ny + 1)),
        p=rng.standard_normal((nx, ny)),
        p_nodes=rng.standard_normal((nx, ny + 1)),
        v_poly=np.array(v_poly, dtype=float),
        q_poly=np.array(q_poly, dtype=float),
        modes=modes,
        diagnostics={},
    )
    stack.levels[(beta, l, comp)] = level
    return level


def test_transparent_level_integrates_each_sourced_mode_once(monkeypatch):
    # the top rows' right-hand side and the trace expansion share one set
    # of half-line integrals per sourced mode; homogeneous modes need none
    from stokesbl import modes, recursion

    calls = []
    integrals = modes.halfline_integrals

    def counting(k, *args, **kwargs):
        calls.append(k)
        return integrals(k, *args, **kwargs)

    monkeypatch.setattr(recursion, "halfline_integrals", counting)
    monkeypatch.setattr(modes, "halfline_integrals", counting)
    stack = CorrectorStack(COS_WALL, nx=16, ny=20)
    stack.level(0, 1, 1)
    assert calls == []
    stack.level(1, 1, 1)
    assert sorted(calls) == [(k,) for k in range(1, 9)]


def test_flat_wall_levels_vanish(flat_stack):
    for beta in range(3):
        for l in (1, 2):
            lv = flat_stack.level(beta, l, 1)
            assert np.abs(lv.u).max() < 1e-10
            assert np.abs(lv.v_poly).max() < 1e-10
            assert np.abs(lv.q_poly).max() < 1e-10


def test_level_zero_structure(stack):
    lv = stack.level(0, 1, 1)
    assert lv.v_poly.shape[1] == 1  # constant in y
    assert lv.const[0] > 0          # slip length is positive
    assert abs(lv.const[1]) < 5e-3  # no vertical tail
    assert np.abs(lv.q_poly).max() == 0.0


@pytest.mark.parametrize("wall", [COS_WALL, BoundaryGeometry.flat()], ids=["cosine", "flat"])
def test_level_zero_is_the_cell_corrector(wall):
    # `stokesbl cell` and the stack's level 0 solve one wall problem
    stack = CorrectorStack(wall, nx=16, ny=20)
    for l in (1, 2, 3):
        for comp in (1, 2):
            tail = solve_cell(wall, l, comp, nx=16, ny=20).tail
            assert tail.tobytes() == stack.level(0, l, comp).const.tobytes()


def test_level_problem_of_level_zero_is_the_wall_problem(stack):
    for l, comp in [(1, 1), (2, 2)]:
        problem, growth, pi_poly = level_problem(stack, 0, l, comp)
        want = wall_problem(stack.grid, l, comp)
        assert problem.grid is stack.grid
        assert np.array_equal(problem.bottom, want.bottom)
        assert isinstance(problem.top, TransparentTop) and not problem.top.exterior
        assert not problem.top.neumann0.any()
        assert problem.source is None and problem.div_data is None
        assert np.array_equal(growth, np.zeros((2, 1)))
        assert np.array_equal(pi_poly, np.zeros(1))


def test_level_one_degree_and_coefficient(stack):
    # (V^1_poly)_2 has degree 1 with leading coefficient -(V^0_const)_1
    lv0 = stack.level(0, 1, 1)
    lv1 = stack.level(1, 1, 1)
    assert lv1.v_poly.shape[1] <= 2
    assert lv1.v_poly[1, 1] == pytest.approx(-lv0.const[0], rel=1e-12)
    # Q^1_poly = -(V^0_poly)_1 (single surviving term)
    assert lv1.q_poly == pytest.approx([-lv0.const[0]], rel=1e-12)


def _padded(c, n):
    return np.concatenate([c, np.zeros(n - len(c))])


def test_fast_path_matches_general_correctors(stack):
    # plant random lower levels and compare level_problem's growth part
    # P = Lambda_poly e_1 + W_poly e_2 and Pi_poly with the explicit 2-D
    # closed form
    rng = np.random.default_rng(5)
    work = CorrectorStack(COS_WALL, nx=16, ny=20)
    v0 = rng.standard_normal((2, 1))
    v1 = rng.standard_normal((2, 2))
    q1 = rng.standard_normal(1)
    _plant_fake_level(work, 0, 1, 1, v0, np.zeros(1), rng)
    _plant_fake_level(work, 1, 1, 1, v1, q1, rng)
    beta = 2
    c1, c2 = 2, 1  # C(2,1), C(2,2)
    problem, growth, pi_poly = level_problem(work, beta, 1, 1)
    n = growth.shape[1]
    expected_w = npoly.polyint(-c1 * v1[0])
    assert np.allclose(growth[1], _padded(expected_w, n))
    expected_lam = npoly.polyint(npoly.polyint(
        npoly.polyadd(-2 * c2 * v0[0], c1 * q1)))
    assert np.allclose(growth[0], _padded(expected_lam, n))
    expected_pi = npoly.polyadd(npoly.polyint(2 * c2 * v0[1]), -c1 * v1[0])
    assert np.allclose(pi_poly, expected_pi)
    # the zero mode's Neumann data at the lid is P'(height)
    slope = [npoly.polyval(work.height, npoly.polyder(p)) for p in growth]
    assert np.array_equal(problem.top.neumann0, slope)


def test_source_corrector_identity(stack):
    # -Lap Lambda_poly + grad Pi_poly = F_poly + d_y^2 W_poly, exactly in y,
    # with F_poly, the polynomial part of the source, formed from the
    # planted levels: (-C(beta,1) Q^{beta-1}_poly + 2 C(beta,2) (V^{beta-2}_poly)_1,
    # 2 C(beta,2) (V^{beta-2}_poly)_2)
    rng = np.random.default_rng(11)
    work = CorrectorStack(COS_WALL, nx=16, ny=20)
    _plant_fake_level(work, 0, 1, 1, rng.standard_normal((2, 1)), np.zeros(1), rng)
    _plant_fake_level(work, 1, 1, 1, rng.standard_normal((2, 2)),
                      rng.standard_normal(1), rng)
    for beta in (1, 2):
        c1, c2 = comb(beta, 1), comb(beta, 2)
        low1 = work.level(beta - 1, 1, 1)
        F_poly = [-c1 * low1.q_poly, np.zeros(1)]
        if beta >= 2:
            low2 = work.level(beta - 2, 1, 1)
            F_poly = [npoly.polyadd(F_poly[i], 2 * c2 * low2.v_poly[i]) for i in range(2)]
        _, growth, pi_poly = level_problem(work, beta, 1, 1)
        lam1, wpoly = growth
        lhs1 = -npoly.polyder(npoly.polyder(lam1)) if len(lam1) > 2 else np.zeros(1)
        assert np.allclose(npoly.polysub(np.atleast_1d(lhs1), F_poly[0]), 0.0, atol=1e-12)
        lhs2 = npoly.polyder(pi_poly) if len(pi_poly) > 1 else np.zeros(1)
        d2w = npoly.polyder(npoly.polyder(wpoly)) if len(wpoly) > 2 else np.zeros(1)
        rhs2 = npoly.polyadd(F_poly[1], np.atleast_1d(d2w))
        assert np.allclose(npoly.polysub(np.atleast_1d(lhs2), rhs2), 0.0, atol=1e-12)


def test_mode_divergence_identity(stack):
    # above the lid: [ik, -|k|] . V^beta_k + (V^beta_k)_2' = -C(beta,1) (V^{beta-1}_k)_1
    lv0 = stack.level(0, 1, 1)
    lv1 = stack.level(1, 1, 1)
    for k in (1, 2, 3):
        V1 = lv1.modes[k][:2]
        V0 = lv0.modes[k][:2]
        div = poly_add(
            poly_add(poly_scale(1j * k, list(V1[0])), poly_scale(-abs(k), list(V1[1]))),
            poly_derive(list(V1[1])),
        )
        target = poly_scale(-1.0, list(V0[0]))
        diff = poly_add(div, poly_scale(-1.0, target))
        assert max((abs(c) for c in diff), default=0.0) < 1e-10


def corrector_trace_residual(stack: CorrectorStack, alpha: int, l: int, comp: int,
                             refine: int = 4) -> float:
    """sup over the wall of |v^alpha + x^alpha y^l e_comp|, trig-interpolated.

    At collocation points the Dirichlet rows make this exactly zero; the
    refined evaluation probes between them.
    """
    nfine = refine * stack.grid.nx
    xf = -np.pi + 2 * np.pi * np.arange(nfine) / nfine
    gf = stack.geometry.gamma(xf)
    total = np.zeros((2, nfine))
    for coef, power, level in assemble_alpha(stack, alpha, l, comp).terms:
        total += coef * xf ** power * _trig_interpolate(level.u[:, :, 0], nfine)
    total[comp - 1] += xf ** alpha * gf ** l
    return float(np.abs(total).max())


def _trig_interpolate(samples: np.ndarray, n: int) -> np.ndarray:
    """Periodic samples (last axis, m of them) at n >= m points, by zero-padding the FFT.

    When n > m and m is even, the Nyquist coefficient is split evenly between
    +-m/2, as scipy.signal.resample does, so the interpolant is real.
    """
    m = samples.shape[-1]
    spec = np.fft.rfft(samples)
    if m % 2 == 0 and n > m:
        spec[..., m // 2] *= 0.5
    return np.fft.irfft(spec / (m / n), n=n)


def corrector_divergence_residual(g: StripGrid, field: CorrectorField, x_shift: float = 0.0,
                                  remove_defect: bool = False) -> float:
    """Discrete divergence of the assembled v^alpha at the pressure cells.

    The per-level solves satisfy div_h V^beta = G^beta - mu^beta with mu^beta
    the reported compatibility defect (O(h^2)), so the raw residual telescopes
    to -sum C(alpha,beta) x^{alpha-beta} mu^beta.  With remove_defect=True
    that known uniform defect is subtracted, isolating the recursion algebra,
    which must cancel to solver precision.  x_shift moves the evaluation
    window across periods; g is the stack grid the levels were solved on.
    """
    X = g.x[:, None] + x_shift
    res = np.zeros((g.nx, g.ny))
    scale = 0.0
    for coef, power, level in field.terms:
        div = divergence_residual(g, level.u, None)
        if remove_defect:
            div = div + level.diagnostics.get("multiplier", 0.0)
        mid1 = 0.5 * (level.u[0][:, 1:] + level.u[0][:, :-1])
        res += coef * X ** power * div
        if power >= 1:
            res += coef * power * X ** (power - 1) * mid1
        scale = max(scale, float(np.abs(level.u).max()))
    return float(np.abs(res).max() / max(scale, 1e-300))


def test_assembled_trace_and_divergence(stack):
    g = stack.grid
    fld = assemble_alpha(stack, 1, 1, 1)
    assert corrector_trace_residual(stack, 1, 1, 1) < 1e-9
    # recursion algebra telescopes exactly once the reported per-level
    # compatibility defect (the multiplier) is accounted for
    assert corrector_divergence_residual(g, fld, remove_defect=True) < 1e-9
    assert corrector_divergence_residual(g, fld, x_shift=6 * np.pi, remove_defect=True) < 1e-8
    fld2 = assemble_alpha(stack, 2, 1, 1)
    assert corrector_trace_residual(stack, 2, 1, 1) < 1e-8
    assert corrector_divergence_residual(g, fld2, remove_defect=True) < 1e-8
    # raw residual equals the uniform defect, small and O(h^2)
    mus = [abs(lv.diagnostics.get("multiplier", 0.0)) for _, _, lv in fld2.terms]
    assert corrector_divergence_residual(g, fld2) <= 10 * max(sum(mus), 1e-12)


def test_divergence_defect_shrinks_under_refinement():
    vals = []
    for nx, ny in ((16, 20), (32, 40)):
        st = CorrectorStack(COS_WALL, nx=nx, ny=ny)
        vals.append(corrector_divergence_residual(st.grid, assemble_alpha(st, 1, 1, 1)))
    assert vals[1] < vals[0] / 2.5


def test_assemble_alpha_poly_structure(stack):
    # v_poly(x, y) = x (V^0_const)_1 e1 + V^1_const - y (V^0_const)_1 e2
    lv0 = stack.level(0, 1, 1)
    lv1 = stack.level(1, 1, 1)
    fld = assemble_alpha(stack, 1, 1, 1)
    v = fld.v_poly_xy
    assert v[0, 1, 0] == pytest.approx(lv0.const[0])
    assert v[0, 0, 0] == pytest.approx(lv1.const[0])
    assert v[1, 0, 1] == pytest.approx(-lv0.const[0])
    # growth split: deg_y V_poly <= beta
    assert v.shape[2] <= 2


def test_script_S_monomial_and_linearity(stack):
    P = VectorPolynomial.unit_monomial((1, 1), 0, 2)  # x y e1
    corr = script_S(stack, P)
    fld = assemble_alpha(stack, 1, 1, 1)
    assert np.allclose(corr.v_poly_xy, fld.v_poly_xy)
    P2 = P.scale(-3)
    corr2 = script_S(stack, P2)
    assert np.allclose(corr2.v_poly_xy, -3 * corr.v_poly_xy)
    zero = script_S(stack, VectorPolynomial.zero(2, 2))
    assert np.abs(zero.v_poly_xy).max() == 0.0 and zero.terms == []
    # S[P]'s terms are each monomial's v^alpha terms, in monomial order, with
    # coefficients scaled by the monomial's; regularity's samplers and
    # columns follow this order
    P3 = (VectorPolynomial.unit_monomial((0, 2), 1, 2).scale(-3)
          + VectorPolynomial.unit_monomial((2, 1), 0, 2).scale(0.5)
          + VectorPolynomial.unit_monomial((1, 1), 0, 2).scale(2))
    expect = [(coeff * c, power, level)
              for alpha, l, comp, coeff in monomial_coefficients(P3)
              for c, power, level in assemble_alpha(stack, alpha, l, comp).terms]
    got = script_S(stack, P3).terms
    assert len(got) == len(expect) == 1 + 3 + 2
    for (c, power, level), (c_want, power_want, level_want) in zip(got, expect):
        assert c == c_want and power == power_want and level is level_want


def test_script_S_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        monomial_coefficients(VectorPolynomial.unit_monomial((2, 0), 0, 2))


def test_route_equivalence_small(stack):
    # Prop-3.5-style assembly agrees with the ansatz assembly
    for P, order in (
        (VectorPolynomial.unit_monomial((1, 1), 0, 2), 2),
        (VectorPolynomial.unit_monomial((0, 2), 1, 2), 2),
        (VectorPolynomial.unit_monomial((2, 1), 0, 2), 3),
    ):
        direct = script_S(stack, P)
        via_formula = script_S_via_trace_formula(stack, P, order)
        a = np.zeros_like(via_formula)
        v = direct.v_poly_xy
        a[:, : v.shape[1], : v.shape[2]] = v
        assert np.abs(a - via_formula).max() < 1e-10


def test_script_S_growth_reduction(stack):
    # for homogeneous P of degree m the corrector polynomial has degree <= m-1
    P = VectorPolynomial.unit_monomial((1, 1), 0, 2)  # degree 2
    corr = script_S(stack, P)
    v = corr.v_poly_xy
    for c in range(2):
        for i in range(v.shape[1]):
            for j in range(v.shape[2]):
                if abs(v[c, i, j]) > 1e-12:
                    assert i + j <= 1


def test_heterogeneous_basis_counts(stack, flat_stack):
    els = heterogeneous_basis(stack, 2)
    assert len(els) == 4
    flat_els = heterogeneous_basis(flat_stack, 2)
    for el in flat_els:
        # flat wall: S = 0, so w_poly is the flat-space polynomial itself
        for c in range(2):
            from stokesbl.recursion import poly_to_coeff2d
            ref = poly_to_coeff2d(el.P[c])
            got = el.w_poly_xy[c]
            assert np.allclose(got[: ref.shape[0], : ref.shape[1]], ref, atol=1e-10)
            got2 = got.copy()
            got2[: ref.shape[0], : ref.shape[1]] -= ref
            assert np.abs(got2).max() < 1e-10


def test_stack_roundtrip(stack, flat_stack):
    # every array of a solved level comes back bit for bit through the JSON
    # text, the flat wall's all-zero mode profiles too
    for work in (stack, flat_stack):
        work.level(1, 1, 1)
        rebuilt = stack_from_json(json.loads(dump_json(stack_to_json(work))))
        assert sorted(rebuilt.levels) == sorted(work.levels)
        for key, ref in work.levels.items():
            _assert_same_level_arrays(rebuilt.levels[key], ref)


def test_one_level_call_solves_the_levels_below_it():
    # level(3) alone solves beta = 0..3, lowest first, and its stack
    # writes the same JSON as a stack driven one level at a time
    whole = CorrectorStack(COS_WALL, nx=16, ny=20)
    whole.level(3, 1, 1)
    assert sorted(whole.levels) == [(beta, 1, 1) for beta in range(4)]
    stepwise = CorrectorStack(COS_WALL, nx=16, ny=20)
    for beta in range(4):
        stepwise.level(beta, 1, 1)
    assert dump_json(stack_to_json(whole)) == dump_json(stack_to_json(stepwise))


def test_deep_level_solves_without_nesting():
    # level 30 reads 30 levels below it; solved lowest first, it needs no
    # more call depth than level 0 does
    stack = CorrectorStack(COS_WALL, nx=8, ny=16)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        stack.level(30, 1, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(stack.levels) == [(beta, 1, 1) for beta in range(31)]


# -- LevelSampler against the per-column construction ------------------------

def _column_sampler_oracle(level, stack, grid):
    """Per-column resampling: three splines and three mode sums per column."""
    values = np.zeros((2, grid.nx, grid.ny + 1))
    pressure = np.zeros((grid.nx, grid.ny + 1))
    sg = stack.grid
    for i in range(grid.nx):
        y_col = grid.y_nodes[i]
        below = y_col <= sg.height + 1e-12
        xi_lo = np.clip(sg.xi_of_y(i, y_col[below]), 0.0, 1.0)
        for c in range(2):
            values[c, i, below] = CubicSpline(sg.xi_nodes, level.u[c][i])(xi_lo)
        pressure[i, below] = CubicSpline(sg.xi_nodes, level.p_nodes[i])(xi_lo)
        above = ~below
        if np.any(above):
            ya = y_col[above]
            vp = np.stack([npoly.polyval(ya, level.v_poly[c]) for c in range(2)])
            u1, u2, p = mode_fields(level.modes, sg.height, sg.nx // 2, grid.x[i], ya)
            values[:, i, above] = vp + np.stack([u1, u2])
            pressure[i, above] = npoly.polyval(ya, level.q_poly) + p
    return values, pressure


@pytest.mark.parametrize("height, ny, stretch", [(40.0, 200, 4.0), (6.0, 48, 0.0)],
                         ids=["tall-stretched", "unstretched"])
def test_level_sampler_matches_column_oracle(stack, height, ny, stretch):
    grid = StripGrid(COS_WALL, height=height, nx=stack.grid.nx, ny=ny, stretch=stretch)
    assert (grid.y_nodes > stack.height).any() and (grid.y_nodes <= stack.height).any()
    heterogeneous_basis(stack, 2)
    for key in sorted(stack.levels):
        level = stack.levels[key]
        smp = LevelSampler(level, stack, grid)
        values, pressure = _column_sampler_oracle(level, stack, grid)
        assert smp.values.tobytes() == values.tobytes(), key
        assert smp.pressure.tobytes() == pressure.tobytes(), key
        assert np.array_equal(smp.dx, np.stack([grid.dx_nodes(v) for v in values]))
        assert np.array_equal(smp.dy, np.stack([grid.dy_nodes(v) for v in values]))


@pytest.mark.parametrize("wall, nx", [(COS_WALL, 16), (GEOMETRIES[2], 24)],
                         ids=["other-nx", "other-geometry"])
def test_level_sampler_refuses_a_grid_off_the_stack(stack, wall, nx):
    # the samples below the lid are the stack's columns, x for x
    grid = StripGrid(wall, height=6.0, nx=nx, ny=48)
    with pytest.raises(ValueError, match="collocation points and geometry"):
        LevelSampler(stack.level(0, 1, 1), stack, grid)


@pytest.mark.parametrize("wall", [COS_WALL, BoundaryGeometry.from_fourier({0: -0.4, 2: -0.125})],
                         ids=["cosine", "k2"])
def test_not_a_knot_coefficients_equal_cubic_spline(wall):
    work = CorrectorStack(wall, nx=24, ny=32)
    heterogeneous_basis(work, 2)
    knots = work.grid.xi_nodes
    for key, level in sorted(work.levels.items()):
        y = np.stack([level.u[0], level.u[1], level.p_nodes])
        want = CubicSpline(knots, y, axis=2).c
        got = not_a_knot_coefficients(knots, np.moveaxis(y, 2, 0))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("m", [8, 9, 16])
def test_trig_interpolate_reproduces_band_limited_samples(m):
    # even m: the Nyquist term cos(m x / 2) must come back whole, not doubled
    f = lambda x: (1.0 + 0.3 * np.cos(x) - 0.2 * np.sin(2 * x)
                   + 0.5 * (m % 2 == 0) * np.cos(m * x / 2))
    x = 2 * np.pi * np.arange(m) / m
    for n in (m, 4 * m, 3 * m + 1):
        xf = 2 * np.pi * np.arange(n) / n
        got = _trig_interpolate(np.stack([f(x), -f(x)]), n)
        assert np.abs(got - np.stack([f(xf), -f(xf)])).max() < 1e-13


# -- stack persistence ---------------------------------------------------------

_ROUNDTRIP_WALLS = GEOMETRIES + [BoundaryGeometry.flat(), BoundaryGeometry.flat(0.25)]


def test_stack_json_roundtrip_preserves_level_arrays(monkeypatch):
    # solved stacks on the acceptance walls and two flat ones: a load derives
    # every level array bit for bit without solving, and writes back the same text
    from stokesbl import recursion

    for height, nx, ny in ((3.0, 16, 20), (1.0, 24, 32), (3.0, 48, 64)):
        for wall in _ROUNDTRIP_WALLS:
            stack = CorrectorStack(wall, height, nx=nx, ny=ny)
            stack.level(2, 1, 1)
            stack.level(1, 2, 2)
            stack.level(0, 1, 2)
            text = dump_json(stack_to_json(stack))
            solves = []
            with monkeypatch.context() as m:
                m.setattr(recursion, "solve_stokes", lambda problem: solves.append(problem))
                m.setattr(CorrectorStack, "_solve_level", lambda *a: solves.append(a))
                rebuilt = stack_from_json(json.loads(text))
            assert solves == []
            assert list(rebuilt.levels) == sorted(stack.levels)
            for key, ref in stack.levels.items():
                _assert_same_level_arrays(rebuilt.levels[key], ref)
                assert rebuilt.levels[key].diagnostics == json.loads(json.dumps(ref.diagnostics))
            # the corrector's extend path: load, then write back unchanged
            assert dump_json(stack_to_json(rebuilt)) == text


def _assert_same_level_arrays(got, ref):
    """u, p, p_nodes, v_poly, q_poly and every mode's V1, V2 and Q equal bit for bit."""
    for name in ("u", "p", "p_nodes", "v_poly", "q_poly"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert a.flags.writeable, name
    assert list(got.modes) == list(ref.modes)
    for k, mode in ref.modes.items():
        for a, b in zip(got.modes[k], mode, strict=True):
            assert all(type(c) is complex for c in a)
            assert len(a) == len(b) and np.array(a).tobytes() == np.array(b).tobytes()


@pytest.fixture(scope="module")
def stack_text():
    """A solved 16x20 stack on the cosine wall: levels 0 and 1 of (l, comp) = (1, 1)."""
    stack = CorrectorStack(COS_WALL, nx=16, ny=20)
    stack.level(1, 1, 1)
    return dump_json(stack_to_json(stack))


# no int between 1024 and 2**63: a header nx or ny that a reader trusted would
# size the grid
_JSON_VALUES = st.one_of(
    st.integers(-3, 1024), st.sampled_from([2 ** 63, 10 ** 300, 10 ** 400]), st.floats(),
    st.booleans(), st.none(), st.text(max_size=4), st.just([]), st.just({}))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stack_reader_rejects_or_returns_finite_levels(stack_text, data):
    # one corrupted field: a header key, a level key, or one float of one
    # array set to NaN or +-inf
    stack = json.loads(stack_text)
    levels = stack["levels"]
    place = data.draw(st.sampled_from(["header", "level", "array"]))
    if place == "header":
        stack[data.draw(st.sampled_from(sorted(stack)))] = data.draw(_JSON_VALUES)
    elif place == "level":
        lv = data.draw(st.sampled_from(levels))
        lv[data.draw(st.sampled_from(sorted(lv)))] = data.draw(_JSON_VALUES)
    else:
        array = data.draw(st.sampled_from([lv[key] for lv in levels for key in ("u", "p")]))
        raw = np.frombuffer(base64.b64decode(array["f8"]), "<f8").copy()
        raw[data.draw(st.integers(0, raw.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        array["f8"] = base64.b64encode(raw.tobytes()).decode()
    try:
        rebuilt = stack_from_json(stack)
    except InputError:
        return
    for level in rebuilt.levels.values():
        arrays = [level.u, level.p, level.p_nodes, level.v_poly, level.q_poly]
        arrays += [np.array(v) for mode in level.modes.values() for v in mode]
        assert all(np.isfinite(a).all() for a in arrays)


def test_cli_stack_sequence_is_byte_reproducible(tmp_path):
    # the flat wall's all-zero mode profiles must round-trip through the stack
    for kind, wall_json in (("cos", COS_WALL.to_json_dict()),
                            ("flat", {"fourier": [{"k": 0, "re": 0.0, "im": 0.0}]})):
        wall = tmp_path / f"{kind}.json"
        wall.write_text(json.dumps(wall_json))
        grid = ["--nx", "16", "--ny", "20"]
        outs = []
        for run in ("a", "b"):
            root = tmp_path / kind / run
            stack = str(root / "stack.json")
            for comp in ("1", "2"):
                assert main(["corrector", "--geometry", str(wall), "--alpha", "1", "--l", "1",
                             "--i", comp, *grid, "--out", stack]) == 0
            assert main(["wall-law", "--stack", stack, "--order", "2",
                         "--out", str(root / "walllaw.json")]) == 0
            outs.append([(root / name).read_bytes()
                         for name in ("stack.json", "walllaw.json", "walllaw.csv")])
        data = json.loads(outs[0][0])
        assert data["schema"] == 6
        assert outs[0] == outs[1]
        for lv in data["levels"]:
            assert sorted(lv) == ["beta", "comp", "diagnostics", "l", "p", "u"]
            assert lv["u"]["shape"] == [2, 16, 21] and lv["p"]["shape"] == [16, 20]
            for key in ("u", "p"):
                assert sorted(lv[key]) == ["f8", "shape"], key
