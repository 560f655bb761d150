"""Excess, decay/growth exponents, Liouville fits, pointwise envelopes."""

import numpy as np
import pytest

from stokesbl.cell import StripGrid
from stokesbl.geometry import BoundaryGeometry
from stokesbl.recursion import CorrectorStack
from stokesbl.regularity import (
    RegularityWorkspace,
    build_outer_solution,
    decay_experiment,
    dyadic_radii,
    fit_exponent,
    growth_experiment,
    lift_coefficients,
    liouville_fit,
    nnls_2col,
    outer_data,
    pointwise_check,
    solution_grad_sampler,
)

COS_WALL = BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25})


@pytest.fixture(scope="module")
def stack():
    return CorrectorStack(COS_WALL, nx=24, ny=32)


@pytest.fixture(scope="module")
def eval_grid(stack):
    return StripGrid(COS_WALL, height=40.0, nx=24, ny=200, stretch=4.0)


@pytest.fixture(scope="module")
def ws2(stack, eval_grid):
    return RegularityWorkspace(stack, 2, eval_grid)


@pytest.fixture(scope="module")
def ws3(stack, eval_grid):
    return RegularityWorkspace(stack, 3, eval_grid)


def test_excess_of_basis_element_is_zero(ws2):
    for pos, idx in enumerate(ws2.column_indices):
        u_grad = lambda shift: ws2.element_grad(idx, shift)
        res = ws2.excess(u_grad, 4.0)
        assert res["H"] <= 1e-10 * max(res["grad_norm"], 1e-30)
        # the minimizer is the unit coefficient vector
        expect = np.zeros(len(ws2.column_indices))
        expect[pos] = 1.0
        assert np.allclose(res["coefficients"], expect, atol=1e-9)


def test_excess_zero_field(ws2):
    zero = lambda shift: np.zeros((4, ws2.grid.nx, ws2.grid.ny + 1))
    assert ws2.excess(zero, 4.0)["H"] == 0.0


def _two_pass_excess(ws, u_grad, r):
    """Excess with the column norms and the QR each in their own window pass."""
    wq = ws.grid.node_quad_weights()
    ncols = len(ws.column_indices)

    def blocks(scale):
        for shift in ws.window_shifts(r):
            mask = ws.window_mask(r, shift)
            if not mask.any():
                continue
            sw = np.sqrt(wq[mask])
            cols = [(ws.element_grad(idx, shift)[:, mask] * sw).reshape(4, -1).T.reshape(-1)
                    / scale[j] for j, idx in enumerate(ws.column_indices)]
            target = (u_grad(shift)[:, mask] * sw).reshape(4, -1).T.reshape(-1)
            yield np.column_stack(cols + [target]), float(np.sum(wq[mask]))

    norms = np.zeros(ncols)
    total_w = 0.0
    unorm2 = 0.0
    for blk, wsum in blocks(np.ones(ncols)):
        norms += np.sum(blk[:, :ncols] ** 2, axis=0)
        unorm2 += float(np.sum(blk[:, -1] ** 2))
        total_w += wsum
    norms = np.sqrt(np.maximum(norms, 1e-300))
    R = np.zeros((0, ncols + 1))
    for blk, _ in blocks(norms):
        R = np.linalg.qr(np.vstack([R, blk]), mode="r")
    R11 = R[:ncols, :ncols]
    rb = R[:ncols, -1]
    rho = abs(float(R[ncols, ncols])) if R.shape[0] > ncols else 0.0
    diag = np.abs(np.diag(R11))
    rank_ok = bool(diag.min() > 1e-13 * diag.max())
    coef_scaled = np.linalg.solve(R11, rb) if rank_ok \
        else np.linalg.lstsq(R11, rb, rcond=None)[0]
    return {
        "H": rho / np.sqrt(total_w),
        "coefficients": coef_scaled / norms,
        "column_indices": list(ws.column_indices),
        "cond": float(diag.max() / max(diag.min(), 1e-300)),
        "grad_norm": np.sqrt(unorm2 / total_w),
        "weight": total_w,
        "rank_ok": rank_ok,
    }


def _assert_same_excess(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].tobytes() == value.tobytes(), key
        else:
            assert got[key] == value, key


def test_excess_matches_two_pass_oracle(ws2, ws3):
    r = 5.0
    assert r not in ws2._column_norms
    fields = {
        "basis element": lambda shift: ws2.element_grad(ws2.column_indices[1], shift),
        "zero": lambda shift: np.zeros((4, ws2.grid.nx, ws2.grid.ny + 1)),
        "growth probe": lambda shift: ws3.element_grad(ws3.column_indices[-1], shift),
    }
    for name, u_grad in fields.items():
        _assert_same_excess(ws2.excess(u_grad, r), _two_pass_excess(ws2, u_grad, r))
    # the norms at r were formed by the first call and reused since
    norms = ws2._column_norms[r]
    again = ws2.excess(fields["growth probe"], r)
    assert ws2._column_norms[r] is norms
    _assert_same_excess(again, _two_pass_excess(ws2, fields["growth probe"], r))


def test_excess_scales_linearly(ws2, ws3):
    idx = ws3.column_indices[-1]
    base = lambda shift: ws3.element_grad(idx, shift)
    scaled = lambda shift: 2.5 * ws3.element_grad(idx, shift)
    h1 = ws2.excess(base, 6.0)["H"]
    h2 = ws2.excess(scaled, 6.0)["H"]
    assert h2 == pytest.approx(2.5 * h1, rel=1e-10)
    assert h1 > 0


def test_excess_monotone_in_order(ws2, ws3, stack, eval_grid):
    ws1 = RegularityWorkspace(stack, 1, eval_grid)
    idx = ws3.column_indices[-1]
    u_grad = lambda shift: ws3.element_grad(idx, shift)
    h1 = ws1.excess(u_grad, 6.0)["H"]
    h2 = ws2.excess(u_grad, 6.0)["H"]
    assert h2 <= h1 * (1 + 1e-12)


def test_growth_exponent_first_order(ws2, stack, eval_grid):
    # degree-2 heterogeneous probe against the order-1 basis: exponent ~ 1
    ws1 = RegularityWorkspace(stack, 1, eval_grid)
    probe = ws2.column_indices[-1]
    radii = dyadic_radii(2.0, 32.0)
    rep = growth_experiment(ws1, ws2, probe, radii)
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.3)


def test_fit_exponent_floor():
    fit = fit_exponent([1, 2, 4, 8], [1e-15, 1e-15, 1e-15, 1e-15], drop=1, floor=1e-12)
    assert fit["floored"] and fit["exponent"] == float("inf")
    fit2 = fit_exponent([1, 2, 4, 8], [1.0, 2.0, 4.0, 8.0], drop=0)
    assert fit2["exponent"] == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def tall_grid():
    return StripGrid(COS_WALL, height=32 * np.pi, nx=24, ny=280, stretch=5.0)


@pytest.fixture(scope="module")
def lift_ws(stack, tall_grid):
    return RegularityWorkspace(stack, 3, tall_grid)


@pytest.fixture(scope="module")
def tall_solution(lift_ws):
    return build_outer_solution(lift_ws, "quadratic")


@pytest.fixture(scope="module")
def tall_ws(stack, tall_grid):
    return RegularityWorkspace(stack, 1, tall_grid)


def test_outer_solution_satisfies_data(tall_solution):
    grid = tall_solution.grid
    vals = tall_solution.values(0.0)
    target = outer_data("quadratic", grid)
    scale = np.abs(target).max()
    assert np.abs(vals[:, :, -1] - target).max() / scale < 1e-12
    # no-slip on the wall up to stack tolerance
    assert np.abs(vals[:, :, 0]).max() / scale < 1e-5
    assert tall_solution.trace_defect / scale < 1e-5


def test_decay_experiment_quadratic_order1(tall_ws, tall_solution):
    rep = decay_experiment(tall_ws, tall_solution, r0=np.pi / 2)
    # degree-2 content decays against the order-1 space with exponent ~ 1
    assert not rep.floored
    assert rep.fitted_exponent >= 0.7
    assert len(rep.radii) == len(rep.H_values)
    assert all(h >= 0 for h in rep.H_values)
    # pressure counterpart reported per window
    assert len(rep.meta["pressure"]) == len(rep.radii)
    assert all(np.isfinite(v) for v in rep.meta["pressure"])


def test_decay_experiment_shear_is_in_space(tall_ws, lift_ws):
    shear = build_outer_solution(lift_ws, "shear")
    rep = decay_experiment(tall_ws, shear, r0=np.pi / 2)
    # shear data reproduces the first-order element: excess sits at the
    # consistency floor at every radius
    assert rep.floored and rep.fitted_exponent == float("inf")


def test_decay_requires_scale_separation(tall_ws, tall_solution):
    with pytest.raises(ValueError):
        decay_experiment(tall_ws, tall_solution, r0=8 * np.pi)


def test_liouville_recovery_and_flagging(ws2, ws3):
    idx = ws2.column_indices[1]
    u_grad = lambda shift: ws2.element_grad(idx, shift)
    radii = [4.0, 8.0, 16.0]
    fit = liouville_fit(ws2, u_grad, radii, tol=1e-8)
    assert fit["member"]
    expect = np.zeros(len(ws2.column_indices))
    expect[1] = 1.0
    assert np.abs(fit["coefficients"] - expect).max() < 1e-8

    rng = np.random.default_rng(3)
    noise_dir = rng.standard_normal((4, ws2.grid.nx, ws2.grid.ny + 1))
    scale = np.abs(ws2.element_grad(idx, 0.0)).max()
    noisy = lambda shift: ws2.element_grad(idx, shift) + 1e-6 * scale * noise_dir
    fit_noisy = liouville_fit(ws2, noisy, radii, tol=1e-4)
    assert np.abs(fit_noisy["coefficients"] - expect).max() < 1e-4

    probe = ws3.column_indices[-1]
    contaminated = lambda shift: (ws2.element_grad(idx, shift)
                                  + 1e-2 * ws3.element_grad(probe, shift))
    fit_bad = liouville_fit(ws2, contaminated, radii, tol=1e-5)
    assert not fit_bad["member"]


def test_pointwise_check_envelope(tall_ws, tall_solution):
    rep = decay_experiment(tall_ws, tall_solution, r0=np.pi / 2)
    out = pointwise_check(tall_ws, tall_solution, rep.coefficients[-1], order=1)
    assert out["fraction_dominated"] >= 0.99
    assert out["crossover_ok"]
    assert out["n_samples"] > 1000


def test_nnls_2col_matches_scipy_nnls():
    from scipy.optimize import nnls

    rng = np.random.default_rng(7)
    negatives = set()
    for trial in range(600):
        m = int(rng.integers(2, 30))
        A = rng.standard_normal((m, 2))
        if trial % 3 == 0:  # nearly parallel columns push both entries negative
            A[:, 1] = A[:, 0] + 0.1 * rng.standard_normal(m)
        b = rng.standard_normal(m)
        negatives.add(int(np.sum(np.linalg.lstsq(A, b, rcond=None)[0] < 0)))
        want = nnls(A, b)[0]
        got = nnls_2col(A, b)
        assert np.all(got >= 0)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert negatives == {0, 1, 2}


def test_outer_data_flux_free():
    grid = StripGrid(COS_WALL, height=20.0, nx=24, ny=64, stretch=2.0)
    for kind in ("shear", "quadratic", "random"):
        vals = outer_data(kind, grid, seed=5)
        assert abs(np.mean(vals[1])) < 1e-12


def test_lift_coefficients_load_orders(lift_ws):
    degrees = [int(lift_ws.elements[i].P.degree) for i in lift_ws.column_indices]
    shear = lift_coefficients(lift_ws, "shear")
    assert np.count_nonzero(shear) == 1
    rand = lift_coefficients(lift_ws, "random", seed=2)
    assert all(rand[j] != 0 for j, d in enumerate(degrees) if d == 3)


def test_solution_grad_sampler_shift_independent(tall_solution, lift_ws):
    fn = solution_grad_sampler(tall_solution.remainder)
    assert np.array_equal(fn(0.0), fn(2 * np.pi))
    # the quadratic load has x-independent velocity: gradient stays periodic
    full = solution_grad_sampler(tall_solution)
    assert np.allclose(full(0.0), full(2 * np.pi))
    # a degree-3 load makes the velocity genuinely non-periodic
    rand = build_outer_solution(lift_ws, "random", seed=2)
    grad = solution_grad_sampler(rand)
    assert not np.allclose(grad(0.0), grad(2 * np.pi))
