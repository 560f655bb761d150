"""Wall-law table: identity, closed-form coefficients, effective parts."""

from math import factorial

import numpy as np
import pytest

from stokesbl.geometry import BoundaryGeometry
from stokesbl.modes import mode_fields
from stokesbl.recursion import (
    CorrectorStack,
    HeterogeneousElement,
    heterogeneous_basis,
    padded_sum,
    poly_to_coeff2d,
)
from stokesbl.verify import GEOMETRIES, flat_twin_gap, flat_wall_phi
from stokesbl.walllaw import (
    WallLawAccuracyError,
    phi_table,
    second_order_2d,
    wall_law_identity_residual,
)

COS_WALL = BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25})


@pytest.fixture(scope="module")
def stack():
    return CorrectorStack(COS_WALL, nx=24, ny=32)


@pytest.fixture(scope="module")
def table(stack):
    return phi_table(stack, 2)


def test_vertical_moment_entries_converge_to_their_closed_forms():
    """Phi^{0,l}_22[x^0] = -<gamma^l>/l! for l = 2, 3, 4, Phi^{1,1}_22[x^1] = -c0 and
    Phi^{2,1}_22[x^2] = c0/2 on the acceptance walls: the largest gap, relative to
    the table's largest entry, is second order in xi (or rounding)."""
    x = -np.pi + 2 * np.pi * np.arange(4096) / 4096
    for wall in GEOMETRIES:
        moments = [float(np.mean(wall.gamma(x) ** l)) for l in range(5)]
        want = {(0, l, 0): -moments[l] / factorial(l) for l in (2, 3, 4)}
        want.update({(1, 1, 1): -moments[1], (2, 1, 2): moments[1] / 2})
        gaps = []
        for ny in (32, 64):
            phi = phi_table(CorrectorStack(wall, nx=24, ny=ny), 4).phi
            scale = max(np.abs(mat).max() for mat in phi.values())
            gaps.append(max(abs(phi[alpha, l][1, 1][power] - value)
                            for (alpha, l, power), value in want.items()) / scale)
        assert gaps[0] <= 2e-4 and gaps[1] <= 5e-5, (wall, gaps)
        assert gaps[1] <= gaps[0] / 3 or gaps[1] <= 1e-12, (wall, gaps)


def test_flat_wall_phi_vanishes():
    flat = CorrectorStack(BoundaryGeometry.flat(), nx=16, ny=20)
    t = phi_table(flat, 2)
    assert t.slip_length == pytest.approx(0.0, abs=1e-10)
    for mat in t.phi.values():
        assert np.abs(mat).max() < 1e-9


@pytest.mark.parametrize("nx, ny", [(8, 20), (16, 32)])
@pytest.mark.parametrize("h", [0.25, 0.5])
def test_flat_wall_table_is_the_no_slip_taylor_expansion(h, nx, ny):
    """gamma = -h: the table is verify's closed form, the no-slip condition at
    y = -h Taylor-expanded about y = 0, to rounding at orders <= 3."""
    table = phi_table(CorrectorStack(BoundaryGeometry.flat(h), nx=nx, ny=ny), 3)
    assert table.phi.keys() == flat_wall_phi(h).keys()
    assert flat_twin_gap(table, h) <= 1e-10


# Phi^{alpha,l}[row, col, x-power] of the cosine wall's order-3 table at 16x20,
# lid 3, rounded to 12 decimals; unlisted entries are rounding noise below 1e-13
COS_ORDER3_PHI = {
    (0, 1): {(0, 0, 0): 0.286066867097},
    (0, 2): {(0, 0, 0): -0.081489211055, (1, 1, 0): -0.187432876084},
    (0, 3): {(0, 0, 0): 0.019140747663, (1, 1, 0): 0.052062582796},
    (1, 1): {(0, 1, 0): -0.101116813271, (1, 0, 0): -0.269804933756,
             (1, 1, 1): 0.499864565677},
    (1, 2): {(0, 1, 0): 0.04452308398, (1, 0, 0): 0.09634550333},
    (2, 1): {(0, 0, 0): 0.021472236785, (1, 0, 1): 0.142994690276,
             (1, 1, 0): 0.05502370019, (1, 1, 2): -0.249932282838},
}


def test_cosine_order_3_table_is_pinned():
    """A pin, not an oracle: the cosine wall's order-3 table against recorded
    values, to 1e-9 of the largest entry.  Orders <= 3 hold the C(beta, 2)
    terms of level_problem (levels beta = 2), which the flat twin does not
    see; dropping them moves an entry by up to 4.2e-2.  A change that moves
    an order-3 entry on purpose, such as lifting the growth polynomial out of
    the level solve, re-records these values and says why."""
    table = phi_table(CorrectorStack(COS_WALL, nx=16, ny=20), 3)
    assert table.phi.keys() == COS_ORDER3_PHI.keys()
    scale = max(abs(v) for entries in COS_ORDER3_PHI.values() for v in entries.values())
    for key, entries in COS_ORDER3_PHI.items():
        want = np.zeros(table.phi[key].shape)
        for index, value in entries.items():
            want[index] = value
        assert np.abs(table.phi[key] - want).max() <= 1e-9 * scale, key


def test_mirror_wall_maps_the_table_by_parity():
    """The mirror wall gamma(-x), with c_k -> conj(c_k), has the table
    (-1)^alpha S Phi^{alpha,l}(-x) S, S = diag(-1, 1).

    Reflecting x maps a Stokes solution (u1, u2, p)(x, y) to
    (-u1, u2, p)(-x, y), so with r, c 1-based and p the x-power, entry
    Phi_rc[p] picks up (-1)^(alpha + p + [r = 1] + [c = 1]).  On a wall even
    in x the mirror is the wall itself, and the entries whose sign is -1
    vanish.  The discrete solver keeps this symmetry, so the check sees a
    defect that breaks it in the recursion's data, such as a non-derivative
    term in the source F or a lost phase in the mode part W_k, but not one
    that the mirror wall shares, such as a sign flip of the wall slope.
    """
    odd_share = []
    for index, geo in enumerate(GEOMETRIES):
        mirror = BoundaryGeometry.from_fourier({k: complex(re, -im) for k, re, im in geo.coeffs})
        phi, phi_mirror = (phi_table(CorrectorStack(g, nx=16, ny=20), 3).phi
                           for g in (geo, mirror))
        scale = max(np.abs(m).max() for m in phi.values())
        gap = odd = 0.0
        for (alpha, l), a in phi.items():
            b = phi_mirror[alpha, l]
            n = max(a.shape[-1], b.shape[-1])
            a, b = (np.pad(m, ((0, 0), (0, 0), (0, n - m.shape[-1]))) for m in (a, b))
            r, c, p = np.indices(a.shape)
            sign = (-1.0) ** (alpha + p + (r == 0) + (c == 0))
            gap = max(gap, np.abs(b - sign * a).max())
            odd = max(odd, np.abs(a[sign < 0]).max(initial=0.0))
        assert gap <= 1e-10 * scale, (index, gap / scale)
        odd_share.append(odd / scale)
    assert max(odd_share[:3]) <= 1e-10  # the three walls with real c_k
    assert odd_share[3] > 1e-6  # a wall not even in x: the relation is not vacuous


def test_table_reads_only_the_levels_of_its_order():
    # order 1 is the Navier seed alone; order N reads (beta, l, i), beta + l <= N
    fresh = CorrectorStack(COS_WALL, nx=16, ny=20)
    phi_table(fresh, 1)
    assert set(fresh.levels) == {(0, 1, 1)}
    phi_table(fresh, 2)
    assert set(fresh.levels) == {(beta, l, i) for beta in range(2) for l in range(1, 3)
                                 for i in (1, 2) if beta + l <= 2}


def test_navier_matrix_structure(stack, table):
    seed = table.phi[(0, 1)]
    assert np.abs(seed[:, 1]).max() == 0.0  # last column identically zero
    assert seed[0, 0, 0] == pytest.approx(stack.level(0, 1, 1).const[0])
    assert table.slip_length > 0
    # horizontal-driver tails have zero vertical component (to solver tolerance);
    # the vertical driver carries net flux and is excluded from the Navier seed
    assert abs(table.tails[1][1]) < 5e-3
    assert 2 not in table.tails


def test_wall_law_identity_all_basis_elements(stack, table):
    residuals = [wall_law_identity_residual(table, el)
                 for el in heterogeneous_basis(stack, 2)]
    assert max(residuals) < 1e-6


def test_second_order_closed_form(stack, table):
    lv01 = stack.level(0, 1, 1)
    lv02_1 = stack.level(0, 2, 1)
    lv02_2 = stack.level(0, 2, 2)
    lv11 = stack.level(1, 1, 1)
    report = second_order_2d(table)
    assert set(report) == {"lambda", "c_yy", "c_xy_vector"}
    assert report["lambda"] == pytest.approx(lv01.const[0], rel=1e-12)
    assert report["c_yy"] == pytest.approx(lv02_1.const[0] / 2.0, rel=1e-10)
    expected_vec = -0.5 * (-2.0 * lv11.const + lv02_2.const)
    assert np.allclose(report["c_xy_vector"], expected_vec, rtol=1e-8, atol=1e-12)


def test_second_order_needs_order_two(stack):
    with pytest.raises(ValueError):
        second_order_2d(phi_table(stack, 1))


def test_phi11_x_dependence_cancels_in_first_column(table):
    phi11 = table.phi[(1, 1)]
    # the x-dependence cancels in the column multiplying dydx w1
    if phi11.shape[-1] > 1:
        assert np.abs(phi11[:, 0, 1:]).max() < 1e-8


def basis_identity_residuals(stack: CorrectorStack, order: int,
                             recombine_seed: int | None = None) -> list[float]:
    """Wall-law identity residual on every effective basis element.

    With recombine_seed set, tests a different (random invertible) basis of
    the same space instead.
    """
    table = phi_table(stack, order)
    elements = heterogeneous_basis(stack, order)
    if recombine_seed is not None:
        rng = np.random.default_rng(recombine_seed)
        n = len(elements)
        while True:
            A = rng.integers(-2, 3, size=(n, n)).astype(float)
            if abs(np.linalg.det(A)) > 0.5:
                break
        elements = [
            HeterogeneousElement(elements[0].P, elements[0].Q, None,
                                 padded_sum(zip(row, (el.w_poly_xy for el in elements))))
            for row in A
        ]
    return [wall_law_identity_residual(table, el) for el in elements]


def test_identity_on_recombined_basis(stack):
    residuals = basis_identity_residuals(stack, 2, recombine_seed=7)
    assert max(residuals) < 1e-6


def test_second_order_flat_is_zero():
    flat = CorrectorStack(BoundaryGeometry.flat(), nx=16, ny=20)
    table = phi_table(flat, 2)
    with pytest.raises(WallLawAccuracyError):
        second_order_2d(table)  # lambda == 0 must be flagged, not accepted


def het_part_velocity(stack, corr, x, y, comp: int) -> np.ndarray:
    """Decaying remainder above the lid of a corrector of stack (its modes).

    Valid for y >= lid only.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < stack.height - 1e-9):
        raise ValueError("het evaluation is mode-based: needs y >= lid height")
    out = np.zeros(np.broadcast(x, y).shape)
    for coef, power, level in corr.terms:
        fields = mode_fields(level.modes, stack.height, stack.grid.nx // 2, x, y)
        out = out + coef * x ** power * fields[comp]
    return out


def test_effective_part_and_het_decay(stack):
    els = heterogeneous_basis(stack, 1)
    el = next(e for e in els if not e.P.is_zero())
    # the effective part is P plus the corrector's polynomial part
    w = el.w_poly_xy
    corr = el.corrector.v_poly_xy
    for c in range(2):
        pc = poly_to_coeff2d(el.P[c])
        expect = np.zeros_like(w[c])
        expect[: pc.shape[0], : pc.shape[1]] += pc
        expect[: corr.shape[1], : corr.shape[2]] += corr[c]
        assert np.array_equal(w[c], expect)

    # sup_x |w - w_poly| decays with the lowest-mode rate e^{-2} per two units
    # of height; the linear-in-z mode profile inflates the near ratios slightly
    xs = np.linspace(-np.pi, np.pi, 65)

    def amp(y):
        return np.hypot(het_part_velocity(stack, el.corrector, xs, y, 0),
                        het_part_velocity(stack, el.corrector, xs, y, 1)).max()

    assert amp(8.0) <= 1.4 * np.exp(-2.0) * amp(6.0)
    assert amp(12.0) <= 1.2 * np.exp(-2.0) * amp(10.0)
    with pytest.raises(ValueError):
        het_part_velocity(stack, el.corrector, 0.0, 1.0, 0)  # below the lid


def test_first_order_effective_shape(stack):
    # w_poly = y e_1 + T_(1) for the first-order element
    els = heterogeneous_basis(stack, 1)
    el = next(e for e in els if not e.P.is_zero())
    w = el.w_poly_xy
    assert w[0, 0, 1] == pytest.approx(1.0)          # y e1
    assert w[0, 0, 0] == pytest.approx(stack.level(0, 1, 1).const[0])
    assert abs(w[1, 0, 0]) < 5e-3                     # vertical tail ~ 0
