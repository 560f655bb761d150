"""Excess, decay/growth exponents, Liouville fits, pointwise envelopes."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from stokesbl.cell import StripGrid
from stokesbl.geometry import BoundaryGeometry
from stokesbl.recursion import (CorrectorStack, coeff_derivative, heterogeneous_basis,
                                padded_sum, poly_to_coeff2d)
from stokesbl.regularity import (
    ENVELOPE_FACTOR,
    ENVELOPE_Y_MIN,
    KINDS,
    RegularityWorkspace,
    build_outer_solution,
    decay_experiments,
    dyadic_radii,
    fit_exponent,
    horner,
    lift_coefficients,
    nnls_2col,
    outer_data,
    pointwise_check,
    projected_fits,
)
from stokesbl.verify import growth_experiment, liouville_fit

COS_WALL = BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25})


@pytest.fixture(scope="module")
def stack():
    return CorrectorStack(COS_WALL, nx=24, ny=32)


@pytest.fixture(scope="module")
def eval_grid(stack):
    return StripGrid(COS_WALL, height=40.0, nx=24, ny=200, stretch=4.0)


@pytest.fixture(scope="module")
def ws(stack, eval_grid):
    """Order 3: the order-1 and -2 fits use its leading columns."""
    return RegularityWorkspace(stack, 3, eval_grid)


# ---------------------------------------------------------------------------
# direct evaluation of the basis fields at x + shift: the oracles for the
# workspace's shift polynomials
# ---------------------------------------------------------------------------

def _grid_points(ws, shift):
    g = ws.grid
    return np.broadcast_to(g.x[:, None] + shift, g.y_nodes.shape), g.y_nodes


def direct_grad(ws, j, shift):
    """(4, nx, ny+1) samples [d1u1, d2u1, d1u2, d2u2] of column j at x + shift."""
    X, Y = _grid_points(ws, shift)
    el = ws.columns[j]
    out = np.zeros((4,) + X.shape)
    for c in range(2):
        pc = poly_to_coeff2d(el.P[c])
        out[2 * c] = npoly.polyval2d(X, Y, coeff_derivative(pc, 1, 0))
        out[2 * c + 1] = npoly.polyval2d(X, Y, coeff_derivative(pc, 0, 1))
    for coef, power, smp in ws._flat_terms(el):
        xp = X ** power
        dxp = power * X ** (power - 1) if power >= 1 else np.zeros_like(X)
        for c in range(2):
            out[2 * c] += coef * (dxp * smp.values[c] + xp * smp.dx[c])
            out[2 * c + 1] += coef * xp * smp.dy[c]
    return out


def direct_velocity(ws, j, shift):
    X, Y = _grid_points(ws, shift)
    el = ws.columns[j]
    out = np.zeros((2,) + X.shape)
    for c in range(2):
        out[c] = npoly.polyval2d(X, Y, poly_to_coeff2d(el.P[c]))
    for coef, power, smp in ws._flat_terms(el):
        for c in range(2):
            out[c] += coef * X ** power * smp.values[c]
    return out


def direct_pressure(ws, j, shift):
    X, Y = _grid_points(ws, shift)
    el = ws.columns[j]
    out = npoly.polyval2d(X, Y, poly_to_coeff2d(el.Q))
    for coef, power, smp in ws._flat_terms(el):
        out += coef * X ** power * smp.pressure
    return out


DIRECT = {"grad": direct_grad, "velocity": direct_velocity, "pressure": direct_pressure}


def column_series(ws, name, j, shift):
    """Samples of column j's `name` series at x + shift."""
    return horner(ws.series[name][:, j], ws.grid.x[:, None] + shift)


def at(solution, name, shift):
    """Samples of an outer solution's `name` series at x + shift."""
    return horner(solution.series[name], solution.lift_ws.grid.x[:, None] + shift)


def window_mask(grid, r, k):
    """The nodes of period k in the window B_{r,+}: |x + 2 pi k| <= r and y <= r,
    written here apart from the code it checks."""
    return (np.abs(grid.x[:, None] + 2 * np.pi * k) <= r) & (grid.y_nodes <= r)


def window_periods(grid, r):
    """The periods k whose window mask is nonempty, scanned well past any that can be."""
    n = int(np.ceil((r + np.pi) / (2 * np.pi)))
    return [k for k in range(-n - 3, n + 4) if window_mask(grid, r, k).any()]


def _assert_fields_close(got, want, rel, what):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rel * scale, what


def test_shift_polynomials_match_direct_evaluation(stack):
    # the regularity command's default tall strip and lift order
    grid = StripGrid(COS_WALL, height=64 * np.pi, nx=24, ny=320, stretch=5.0)
    ws = RegularityWorkspace(stack, 3, grid)
    for j in range(len(ws.columns)):
        for k in range(-17, 18):
            shift = 2 * np.pi * k
            for name, direct in DIRECT.items():
                _assert_fields_close(column_series(ws, name, j, shift),
                                     direct(ws, j, shift), 1e-13, (j, k, name))
            # the all-column evaluations are the same arithmetic, column by column
            X = ws.grid.x[:, None] + shift
            n, D = ws.prefixes[3]
            for name in ("grad", "pressure"):
                assert np.array_equal(horner(ws.series[name][:D + 1, :n], X)[j],
                                      column_series(ws, name, j, shift))
    # the lift traces are the top row of the velocity series, bit for bit
    assert ws.top_velocity.tobytes() \
        == horner(ws.series["velocity"], ws.grid.x[:, None])[..., -1].tobytes()


def test_window_pieces_are_the_periods_the_window_meets(stack):
    """window_pieces(r) yields, in order, exactly the periods whose window mask is
    nonempty, each with its abscissa, nodes and weights; no period outside the
    -n..n range it scans holds a node."""
    # the regularity command's default tall strip
    grid = StripGrid(COS_WALL, height=64 * np.pi, nx=24, ny=320, stretch=5.0)
    ws = RegularityWorkspace(stack, 1, grid)
    wq = grid.node_quad_weights()
    R = grid.height
    for r in (0.5, 1.0, np.pi / 2, np.pi, 3 * np.pi, 4 * np.pi, 8 * np.pi, R / 4, R / 2):
        n = int(np.ceil((r + np.pi) / (2 * np.pi)))
        periods = window_periods(grid, r)
        assert all(-n <= k <= n for k in periods), r
        pieces = list(ws.window_pieces(r))
        assert len(pieces) == len(periods), r
        for k, (X, nodes, w) in zip(periods, pieces):
            assert X.tobytes() == (grid.x[:, None] + 2 * np.pi * k).tobytes(), (r, k)
            want = np.flatnonzero(window_mask(grid, r, k))
            assert np.array_equal(nodes, want), (r, k)
            assert np.array_equal(w, wq.reshape(-1)[want]), (r, k)


def _bits(value):
    """The exact bits of a result: arrays and numbers as bytes, containers entry by entry."""
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return np.asarray(value).tobytes()


def test_lower_orders_fit_on_a_column_prefix(stack):
    """An order-M workspace at order m < M is the order-m workspace, bit for bit."""
    grid = StripGrid(COS_WALL, height=32 * np.pi, nx=24, ny=96, stretch=5.0)
    workspaces = {m: RegularityWorkspace(stack, m, grid) for m in (1, 2, 3, 4)}
    top = workspaces[4]
    sols = [build_outer_solution(top, kind, seed=0) for kind in ("quadratic", "random")]
    grads = [sol.series["grad"] for sol in sols] + [top.series["grad"][:, -1]]
    for M, big in workspaces.items():
        for m in range(1, M):
            small = workspaces[m]
            n, D = big.prefixes[m]
            assert (n, D) == small.prefixes[m] and n == len(small.columns)
            assert [(el.P, el.Q) for el in big.columns[:n]] \
                == [(el.P, el.Q) for el in small.columns]
            for name, arrays in small.series.items():
                view = big.series[name][:D + 1, :n]
                assert view.shape == arrays.shape
                assert view.tobytes() == arrays.tobytes(), (M, m, name)
            what = (M, m)
            assert _bits(big.excess(grads, 3 * np.pi, m)) \
                == _bits(small.excess(grads, 3 * np.pi, m)), what
            assert _bits(decay_experiments(big, sols, m)) \
                == _bits(decay_experiments(small, sols, m)), what
            if m > 1:
                assert _bits(projected_fits(big, grads, m - 1, m)) \
                    == _bits(projected_fits(small, grads, m - 1, m)), what


def test_excess_of_basis_element_is_zero(ws):
    n2 = ws.prefixes[2][0]
    for pos in range(n2):
        u_grad = ws.series["grad"][:, pos]
        res = ws.excess([u_grad], 4.0, 2)[0]
        assert res["H"] <= 1e-10 * max(ws.grad_norms([u_grad], 4.0)[0], 1e-30)
        # the minimizer is the unit coefficient vector
        expect = np.zeros(n2)
        expect[pos] = 1.0
        assert np.allclose(res["coefficients"], expect, atol=1e-9)


def test_excess_zero_field(ws):
    zero = np.zeros_like(ws.series["grad"][:, 0])
    assert ws.excess([zero], 4.0, 2)[0]["H"] == 0.0


def _oracle_blocks(ws, u_grad, r, scale):
    """Each window piece's quadrature rows, the leading len(scale) columns divided by
    scale and then u, with the piece's weight."""
    wq = ws.grid.node_quad_weights()
    for k in window_periods(ws.grid, r):
        shift = 2 * np.pi * k
        mask = window_mask(ws.grid, r, k)
        sw = np.sqrt(wq[mask])
        cols = [(column_series(ws, "grad", j, shift)[:, mask] * sw).reshape(4, -1).T.reshape(-1)
                / scale[j] for j in range(len(scale))]
        target = (horner(u_grad, ws.grid.x[:, None] + shift)[:, mask] * sw) \
            .reshape(4, -1).T.reshape(-1)
        yield np.column_stack(cols + [target]), float(np.sum(wq[mask]))


def _oracle_read(R, R11, norms, total_w):
    """H and the coefficients from a streamed R, with R11 its scaled basis block."""
    ncols = len(norms)
    rb = R[:ncols, -1]
    rho = abs(float(R[ncols, ncols])) if R.shape[0] > ncols else 0.0
    diag = np.abs(np.diag(R11))
    rank_ok = bool(diag.min() > 1e-13 * diag.max())
    coef_scaled = np.linalg.solve(R11, rb) if rank_ok \
        else np.linalg.lstsq(R11, rb, rcond=None)[0]
    return {"H": rho / np.sqrt(total_w), "coefficients": coef_scaled / norms}


def _one_pass_excess(ws, u_grad, r, order):
    """Order-m excess from one QR pass over unscaled rows; the column norms are R11's."""
    ncols = ws.prefixes[order][0]
    total_w = 0.0
    R = np.zeros((0, ncols + 1))
    for blk, wsum in _oracle_blocks(ws, u_grad, r, np.ones(ncols)):
        R = np.linalg.qr(np.vstack([R, blk]), mode="r")
        total_w += wsum
    R11 = R[:ncols, :ncols]
    norms = np.sqrt(np.maximum(np.sum(R11 ** 2, axis=0), 1e-300))
    return _oracle_read(R, R11 / norms, norms, total_w)


def _two_pass_excess(ws, u_grad, r, order):
    """Order-m excess with the column norms and the QR of pre-scaled rows each in
    their own window pass, and the windowed gradient norm of u."""
    ncols = ws.prefixes[order][0]
    norms = np.zeros(ncols)
    total_w = 0.0
    unorm2 = 0.0
    for blk, wsum in _oracle_blocks(ws, u_grad, r, np.ones(ncols)):
        norms += np.sum(blk[:, :ncols] ** 2, axis=0)
        unorm2 += float(np.sum(blk[:, -1] ** 2))
        total_w += wsum
    norms = np.sqrt(np.maximum(norms, 1e-300))
    R = np.zeros((0, ncols + 1))
    for blk, _ in _oracle_blocks(ws, u_grad, r, norms):
        R = np.linalg.qr(np.vstack([R, blk]), mode="r")
    return dict(_oracle_read(R, R[:ncols, :ncols], norms, total_w),
                grad_norm=np.sqrt(unorm2 / total_w))


def _assert_same_excess(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].tobytes() == value.tobytes(), key
        else:
            assert got[key] == value, key


def test_excess_matches_two_pass_oracle(ws):
    """excess is the one-pass oracle bit for bit; against the two-pass arithmetic,
    which scales the rows before the QR, only rounding moves."""
    r = 5.0
    fields = {
        "basis element": ws.series["grad"][:, 1],
        "zero": np.zeros_like(ws.series["grad"][:, 0]),
        "growth probe": ws.series["grad"][:, -1],
    }
    for name, u_grad in fields.items():
        got = ws.excess([u_grad], r, 2)[0]
        _assert_same_excess(got, _one_pass_excess(ws, u_grad, r, 2))
        old = _two_pass_excess(ws, u_grad, r, 2)
        norm = old.pop("grad_norm")
        assert ws.grad_norms([u_grad], r).tobytes() == np.array([norm]).tobytes(), name
        assert abs(got["H"] - old["H"]) <= 1e-12 * norm, name
        coef_scale = np.abs(old["coefficients"]).max()
        assert np.abs(got["coefficients"] - old["coefficients"]).max() \
            <= 1e-10 * coef_scale, name
    again = ws.excess([fields["growth probe"]], r, 2)[0]
    _assert_same_excess(again, _one_pass_excess(ws, fields["growth probe"], r, 2))


def test_excess_reads_each_window_piece_once(ws, monkeypatch):
    """One excess call evaluates the basis gradients and the stacked targets once
    per window piece, for one target or several, and scales the basis columns by
    their windowed norms."""
    import stokesbl.regularity as regularity

    r, order = 5.0, 2
    ncols, D = ws.prefixes[order]
    pieces = list(ws.window_pieces(r))
    calls, seen = [], {}
    qr, solve = np.linalg.qr, np.linalg.solve

    def counted_horner(coeffs, X):
        calls.append((coeffs.shape, X.tobytes()))
        return horner(coeffs, X)

    def last_qr(a, mode):
        seen["R"] = qr(a, mode=mode)
        return seen["R"]

    def scaled_solve(a, b):
        seen["scaled R11"] = a
        return solve(a, b)

    monkeypatch.setattr(regularity, "horner", counted_horner)
    monkeypatch.setattr(np.linalg, "qr", last_qr)
    monkeypatch.setattr(np.linalg, "solve", scaled_solve)
    targets = [ws.series["grad"][:, 1], np.zeros_like(ws.series["grad"][:, 0]),
               ws.series["grad"][:, -1]]
    direct = np.sqrt([sum(float(np.sum(w * np.take(horner(ws.series["grad"][:, j], X)
                                                   .reshape(4, -1), nodes, axis=1) ** 2))
                          for X, nodes, w in pieces) for j in range(ncols)])
    basis_shape = ws.series["grad"][:D + 1, :ncols].shape
    for k in (1, 3):
        calls.clear()
        seen.clear()
        ws.excess(targets[:k], r, order)
        target_shape = (targets[0].shape[0], k) + targets[0].shape[1:]
        assert calls == [(shape, X.tobytes()) for X, _, _ in pieces
                         for shape in (basis_shape, target_shape)], k
        # the scaled block's columns are R11's divided by the norms excess used
        used = np.linalg.norm(seen["R"][:ncols, :ncols], axis=0) \
            / np.linalg.norm(seen["scaled R11"], axis=0)
        assert used == pytest.approx(direct, rel=1e-12), k


def test_excess_scales_linearly(ws):
    base = ws.series["grad"][:, -1]
    scaled = 2.5 * base
    h1 = ws.excess([base], 6.0, 2)[0]["H"]
    h2 = ws.excess([scaled], 6.0, 2)[0]["H"]
    assert h2 == pytest.approx(2.5 * h1, rel=1e-10)
    assert h1 > 0


def test_excess_monotone_in_order(ws):
    u_grad = ws.series["grad"][:, -1]
    h1 = ws.excess([u_grad], 6.0, 1)[0]["H"]
    h2 = ws.excess([u_grad], 6.0, 2)[0]["H"]
    assert h2 <= h1 * (1 + 1e-12)


def test_growth_exponent_first_order(ws):
    # degree-2 heterogeneous probe against the order-1 basis: exponent ~ 1
    probe = ws.prefixes[2][0] - 1
    assert int(ws.columns[probe].P.degree) == 2
    radii = dyadic_radii(2.0, 32.0)
    assert growth_experiment(ws, 1, probe, radii) == pytest.approx(1.0, abs=0.3)


def test_fit_exponent_floor():
    fit = fit_exponent([1, 2, 4, 8], [1e-15, 1e-15, 1e-15, 1e-15], drop=1, floor=1e-12)
    assert fit["floored"] and fit["exponent"] == float("inf")
    fit2 = fit_exponent([1, 2, 4, 8], [1.0, 2.0, 4.0, 8.0], drop=0)
    assert fit2["exponent"] == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def tall_grid():
    return StripGrid(COS_WALL, height=32 * np.pi, nx=24, ny=280, stretch=5.0)


@pytest.fixture(scope="module")
def tall_ws(stack, tall_grid):
    """Order 3, the lift order: the order-1 fits use its leading columns."""
    return RegularityWorkspace(stack, 3, tall_grid)


@pytest.fixture(scope="module")
def tall_solution(tall_ws):
    return build_outer_solution(tall_ws, "quadratic", seed=0)


def test_outer_solution_satisfies_data(tall_solution):
    grid = tall_solution.grid
    vals = at(tall_solution, "velocity", 0.0)
    target = outer_data("quadratic", grid, seed=0)
    scale = np.abs(target).max()
    assert np.abs(vals[:, :, -1] - target).max() / scale < 1e-12
    # no-slip on the wall up to stack tolerance
    assert np.abs(vals[:, :, 0]).max() / scale < 1e-5


@pytest.fixture(scope="module")
def outer_solutions(tall_ws, tall_solution):
    return {"shear": build_outer_solution(tall_ws, "shear", seed=0),
            "quadratic": tall_solution,
            "random": build_outer_solution(tall_ws, "random", seed=0)}


def test_outer_solution_fields_are_lift_plus_remainder(outer_solutions, tall_ws):
    for kind, sol in outer_solutions.items():
        g, u = sol.grid, sol.remainder.u
        periodic = {
            "grad": np.stack([g.dx_nodes(u[0]), g.dy_nodes(u[0]),
                              g.dx_nodes(u[1]), g.dy_nodes(u[1])]),
            "velocity": u,
            "pressure": g.pressure_at_nodes(sol.remainder.p),
        }
        for k in (-17, -4, 0, 1, 9):
            shift = 2 * np.pi * k
            for name, direct in DIRECT.items():
                want = periodic[name] + sum(c * direct(tall_ws, j, shift)
                                            for j, c in enumerate(sol.lift))
                _assert_fields_close(at(sol, name, shift), want, 1e-13, (kind, k, name))


def test_multi_target_excess_matches_one_target_calls(tall_ws, outer_solutions):
    ws = tall_ws
    targets = {
        "basis element": ws.series["grad"][:, 0],
        "zero": np.zeros_like(ws.series["grad"][:, 0]),
        "growth probe": ws.series["grad"][:, -1],
    }
    targets.update({kind: sol.series["grad"] for kind, sol in outer_solutions.items()})
    for order, r in [(1, np.pi / 2), (1, 4 * np.pi), (1, 16 * np.pi), (3, 4 * np.pi)]:
        together = ws.excess(list(targets.values()), r, order)
        assert len(together) == len(targets)
        norms = ws.grad_norms(list(targets.values()), r)
        for (name, u_grad), got, norm in zip(targets.items(), together, norms):
            want = ws.excess([u_grad], r, order)[0]
            what = (order, r, name)
            assert norm.tobytes() == ws.grad_norms([u_grad], r)[0].tobytes(), what
            # H of a field in the span is rounding noise: below the pipeline's
            # in-space floor it is compared on the scale of the field itself
            scale = want["H"] if want["H"] > 1e-3 * norm else norm
            assert abs(got["H"] - want["H"]) <= 1e-12 * scale, what
            coef_scale = np.abs(want["coefficients"]).max()
            assert np.abs(got["coefficients"] - want["coefficients"]).max() \
                <= 1e-12 * coef_scale, what


def test_shared_passes_match_single_datum_entry_points(tall_ws, outer_solutions):
    sols = list(outer_solutions.values())
    reports = decay_experiments(tall_ws, sols, 1)
    grads = [sol.series["grad"] for sol in sols]
    fits = projected_fits(tall_ws, grads, 1, 3)
    for sol, u_grad, rep, fit in zip(sols, grads, reports, fits):
        alone = decay_experiments(tall_ws, [sol], 1)[0]
        assert rep.keys() == alone.keys()
        assert rep["radii"] == alone["radii"] and rep["floored"] == alone["floored"]
        assert rep["grad_norm"] == pytest.approx(alone["grad_norm"], rel=1e-12)
        assert np.allclose(rep["H"], alone["H"], rtol=1e-12, atol=1e-12 * rep["grad_norm"])
        if not rep["floored"]:
            assert rep["fitted_exponent"] == pytest.approx(alone["fitted_exponent"], rel=1e-12)
        one = projected_fits(tall_ws, [u_grad], 1, 3)[0]
        assert np.abs(fit - one).max() <= 1e-12 * np.abs(one).max()


def test_decay_experiment_quadratic_order1(tall_ws, tall_solution):
    rep = decay_experiments(tall_ws, [tall_solution], 1)[0]
    # degree-2 content decays against the order-1 space with exponent ~ 1
    assert not rep["floored"]
    assert rep["fitted_exponent"] >= 0.7
    assert rep["radii"][0] == np.pi / 2
    assert len(rep["radii"]) == len(rep["H"])
    assert all(h >= 0 for h in rep["H"])
    # pressure counterpart reported per window
    assert len(rep["pressure_residuals"]) == len(rep["radii"])
    assert all(np.isfinite(v) for v in rep["pressure_residuals"])


def test_decay_experiment_shear_is_in_space(tall_ws, outer_solutions):
    rep = decay_experiments(tall_ws, [outer_solutions["shear"]], 1)[0]
    # shear data reproduces the first-order element: excess sits at the
    # consistency floor at every radius
    assert rep["floored"] and rep["fitted_exponent"] == float("inf")


def test_decay_requires_scale_separation(stack):
    # R < 32 pi: the dyadic radii pi/2 .. R/4 span less than a factor 16
    grid = StripGrid(COS_WALL, height=20.0, nx=24, ny=64, stretch=2.0)
    ws = RegularityWorkspace(stack, 1, grid)
    with pytest.raises(ValueError, match="scale separation"):
        decay_experiments(ws, [build_outer_solution(ws, "shear", seed=0)], 1)


@pytest.mark.parametrize("height, ny", [(20.0, 80), (24.0, 64)],
                         ids=["other-ny", "other-height"])
def test_a_solve_off_the_workspace_nodes_is_refused(stack, height, ny):
    # a solve on another 24-column grid, read against the 24x64 lift
    # workspace: each window sample would take another node's value
    grid = StripGrid(COS_WALL, height=20.0, nx=24, ny=64, stretch=2.0)
    other = StripGrid(COS_WALL, height=height, nx=24, ny=ny, stretch=2.0)
    ws = RegularityWorkspace(stack, 1, grid)
    solution = build_outer_solution(RegularityWorkspace(stack, 1, other), "shear", seed=0)
    with pytest.raises(ValueError, match="workspace grid's nodes"):
        decay_experiments(ws, [solution], 1)
    with pytest.raises(ValueError, match="workspace grid's nodes"):
        pointwise_check(ws, solution, np.zeros(len(ws.columns)), 1)


def test_liouville_recovery_and_flagging(ws):
    u_grad = ws.series["grad"][:, 1]
    radii = [4.0, 8.0, 16.0]
    fit = liouville_fit(ws, u_grad, radii, tol=1e-8, order=2)
    assert fit["member"]
    expect = np.zeros(ws.prefixes[2][0])
    expect[1] = 1.0
    assert np.abs(fit["coefficients"] - expect).max() < 1e-8

    rng = np.random.default_rng(3)
    noise_dir = rng.standard_normal((4, ws.grid.nx, ws.grid.ny + 1))
    scale = np.abs(column_series(ws, "grad", 1, 0.0)).max()
    noisy = u_grad.copy()
    noisy[0] += 1e-6 * scale * noise_dir  # periodic noise: the X**0 coefficient
    fit_noisy = liouville_fit(ws, noisy, radii, tol=1e-4, order=2)
    assert np.abs(fit_noisy["coefficients"] - expect).max() < 1e-4

    contaminated = u_grad + 1e-2 * ws.series["grad"][:, -1]
    fit_bad = liouville_fit(ws, contaminated, radii, tol=1e-5, order=2)
    assert not fit_bad["member"]


def test_pointwise_check_envelope(tall_ws, tall_solution):
    # the fit on the decay experiments' largest window, R/4
    coeffs = tall_ws.excess([tall_solution.series["grad"]], 8 * np.pi, 1)[0]["coefficients"]
    out = pointwise_check(tall_ws, tall_solution, coeffs, order=1)
    assert out["fraction_dominated"] >= 0.99
    assert out["crossover_ok"]
    assert out["n_samples"] > 1000


def _polyval2d_pointwise_check(workspace, solution, coefficients, order):
    """pointwise_check as it evaluated u - w_poly before the difference series:
    the solution's samples at the scattered window nodes minus polyval2d of the
    fitted polynomial and its derivatives there."""
    g = solution.grid
    R = g.height
    wpoly = padded_sum((c_val, el.w_poly_xy) for c_val, el in zip(coefficients, workspace.columns))
    dx_wpoly, dy_wpoly = coeff_derivative(wpoly, 1, 0), coeff_derivative(wpoly, 0, 1)
    Xs, Ys, grads, vals = [], [], [], []
    for k in window_periods(g, R / 2):
        shift = 2 * np.pi * k
        nodes = np.flatnonzero(window_mask(g, R / 2, k) & (g.y_nodes >= ENVELOPE_Y_MIN))
        if not nodes.size:
            continue
        Xs.append(g.x[nodes // (g.ny + 1)] + shift)
        Ys.append(np.take(g.y_nodes, nodes))
        grads.append(np.take(at(solution, "grad", shift).reshape(4, -1), nodes, axis=1))
        vals.append(np.take(at(solution, "velocity", shift).reshape(2, -1), nodes, axis=1))
    X, Y = np.concatenate(Xs), np.concatenate(Ys)
    ugrad, uval = np.concatenate(grads, axis=1), np.concatenate(vals, axis=1)
    err, err_val = np.zeros_like(X), np.zeros_like(X)
    for c in range(2):
        dxw = npoly.polyval2d(X, Y, dx_wpoly[c])
        dyw = npoly.polyval2d(X, Y, dy_wpoly[c])
        err += (ugrad[2 * c] - dxw) ** 2 + (ugrad[2 * c + 1] - dyw) ** 2
        err_val += (uval[c] - npoly.polyval2d(X, Y, wpoly[c])) ** 2
    err, err_val = np.sqrt(err), np.sqrt(err_val)
    rr = np.hypot(X, Y)
    term_power = (rr / R) ** order
    term_exp = (1.0 + np.abs(X)) ** (order - 1) * np.exp(-Y / 2.0)
    A = np.column_stack([term_power, term_exp])
    wrow = 1.0 / (term_power + term_exp)
    C = nnls_2col(A * wrow[:, None], err * wrow)
    cross = (Y >= 2 * order * np.log(R)) & (rr >= 1)
    return {
        "fraction_dominated": float(np.mean(err <= ENVELOPE_FACTOR * (A @ C) + 1e-300)),
        "constants": [float(C[0]), float(C[1])],
        "n_samples": int(err.size),
        "max_error": float(err.max()),
        "max_value_error": float(err_val.max()),
        "crossover_ok": bool(np.all(term_exp[cross] <= (rr[cross] / R) ** order
                                    * (1 + np.abs(X[cross])) ** (order - 1))),
    }


def test_pointwise_check_matches_polyval2d_oracle(tall_ws, outer_solutions):
    sols = list(outer_solutions.values())
    for order in (1, 2):
        fits = projected_fits(tall_ws, [sol.series["grad"] for sol in sols], order, tall_ws.order)
        for (kind, sol), coeffs in zip(outer_solutions.items(), fits):
            got = pointwise_check(tall_ws, sol, coeffs, order)
            want = _polyval2d_pointwise_check(tall_ws, sol, coeffs, order)
            what = (order, kind)
            for key in ("n_samples", "crossover_ok", "fraction_dominated"):
                assert got[key] == want[key], (what, key)
            for key in ("constants", "max_error", "max_value_error"):
                assert np.allclose(got[key], want[key], rtol=1e-12, atol=0.0), (what, key)


def test_pointwise_samples_are_the_half_window_above_the_wall_layer(tall_ws, tall_solution):
    # the samples are the decay fits' R/2 window, cut below at ENVELOPE_Y_MIN
    g = tall_solution.grid
    R = g.height
    coeffs = tall_ws.excess([tall_solution.series["grad"]], 8 * np.pi, 1)[0]["coefficients"]
    out = pointwise_check(tall_ws, tall_solution, coeffs, order=1)
    want = sum(int(np.count_nonzero(window_mask(g, R / 2, k) & (g.y_nodes >= ENVELOPE_Y_MIN)))
               for k in window_periods(g, R / 2))
    assert out["n_samples"] == want


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
    for kind in KINDS:
        vals = outer_data(kind, grid, seed=5)
        assert abs(np.mean(vals[1])) < 1e-12


def test_lift_coefficients_load_orders(stack, tall_ws):
    # the columns are the basis elements with nonzero velocity, in basis order
    basis = heterogeneous_basis(stack, tall_ws.order)
    kept = [el for el in basis if not el.P.is_zero()]
    assert len(tall_ws.columns) == len(kept) < len(basis)
    for col, el in zip(tall_ws.columns, kept):
        assert (col.P, col.Q) == (el.P, el.Q)
        assert col.w_poly_xy.tobytes() == el.w_poly_xy.tobytes()
    degrees = [int(el.P.degree) for el in tall_ws.columns]
    assert tall_ws.degrees == degrees
    shear = lift_coefficients(tall_ws, "shear", seed=0)
    assert np.count_nonzero(shear) == 1
    rand = lift_coefficients(tall_ws, "random", seed=2)
    assert all(rand[j] != 0 for j, d in enumerate(degrees) if d == 3)


def test_solution_grad_sampler_shift_independent(tall_solution, tall_ws):
    # the quadratic load has x-independent velocity: gradient stays periodic
    assert np.allclose(at(tall_solution, "grad", 0.0), at(tall_solution, "grad", 2 * np.pi))
    # a degree-3 load makes the velocity genuinely non-periodic
    rand = build_outer_solution(tall_ws, "random", seed=2)
    assert not np.allclose(at(rand, "grad", 0.0), at(rand, "grad", 2 * np.pi))
