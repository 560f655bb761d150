"""Cell solver: manufactured solutions, flat-wall structure, convergence."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stokesbl import cell
from stokesbl.cell import (
    CellProblem,
    CellSolution,
    DirichletTop,
    Layout,
    SolverError,
    StripGrid,
    TransparentTop,
    assemble,
    assemble_rhs,
    divergence_residual,
    solve_cell,
    solve_stokes,
    trace_expansion,
    wall_problem,
)
from stokesbl.geometry import AliasingError, BoundaryGeometry, InputError
from stokesbl.modes import halfline_integrals, mode_fields, solve_mode_numeric

COS_WALL = BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25})
NO_SOURCE = [[], []]


def mode_field(k, V, Q):
    """One decaying mode k, in the {k: (V1, V2, Q)} form of mode_fields."""
    return {k: (*(list(v) or [0j] for v in V), list(Q) or [0j])}


def velocity(modes, grid, x, y):
    """(2, ...) velocity at (x, y) of decaying modes above the lid of grid."""
    return np.stack(mode_fields(modes, grid.height, grid.nx // 2, x, y)[:2])


def test_flat_wall_zero_data_gives_zero():
    sol = solve_cell(BoundaryGeometry.flat(), l=1, comp=1, nx=16, ny=20)
    assert np.abs(sol.u).max() < 1e-12
    assert np.abs(sol.tail).max() < 1e-13
    assert sol.diagnostics["divergence_residual"] < 1e-12


def test_shifted_flat_wall_constant_corrector():
    # gamma == -h: the corrector for y e1 is the constant h e1, tail (h, 0)
    h = 0.375
    sol = solve_cell(BoundaryGeometry.flat(h), l=1, comp=1, nx=16, ny=24)
    assert np.allclose(sol.u[0], h, atol=1e-10)
    assert np.abs(sol.u[1]).max() < 1e-10
    assert sol.tail[0] == pytest.approx(h, abs=1e-11)
    assert abs(sol.tail[1]) < 1e-11


def test_manufactured_transparent_homogeneous():
    # exact decaying mode solution, rough wall, no source
    k, b = 1, np.array([1.0, 0.0], dtype=complex)
    V, Q = solve_mode_numeric((k,), ([], [[], []]), b)
    errs = []
    for nx, ny in ((16, 20), (32, 40)):
        grid = StripGrid(COS_WALL, height=3.0, nx=nx, ny=ny)
        exact = mode_field(k, V, Q)
        bottom = velocity(exact, grid, grid.x, grid.gamma)
        sol = solve_stokes(CellProblem(grid, bottom, TransparentTop()))
        u_exact = velocity(exact, grid, grid.x[:, None], grid.y_nodes)
        errs.append(np.abs(sol.u - u_exact).max() / np.abs(u_exact).max())
    assert errs[1] < errs[0] / 3.0  # near second order
    assert errs[1] < 2e-3


def test_manufactured_transparent_with_mode_source():
    # polynomial-times-exponential source both below the lid and in the DtN data
    k = 1
    F = [[0.8 + 0.2j, -0.3j], [0.1 - 0.4j]]
    b = np.array([0.25 - 0.1j, 0.05 + 0.3j])
    qbar, vbar = halfline_integrals((k,), F, knorm=float(k))
    top = TransparentTop({k: (qbar, vbar, NO_SOURCE)})
    V, Q = solve_mode_numeric((k,), (qbar, vbar), b)
    errs = []
    for nx, ny in ((16, 20), (32, 40)):
        grid = StripGrid(COS_WALL, height=3.0, nx=nx, ny=ny)
        exact = mode_field(k, V, Q)
        fsrc = mode_field(k, F, [0j])
        bottom = velocity(exact, grid, grid.x, grid.gamma)
        source = velocity(fsrc, grid, grid.x[:, None], grid.y_nodes)
        sol = solve_stokes(CellProblem(grid, bottom, top, source=source))
        u_exact = velocity(exact, grid, grid.x[:, None], grid.y_nodes)
        errs.append(np.abs(sol.u - u_exact).max() / np.abs(u_exact).max())
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 5e-3


def test_manufactured_dirichlet_with_divergence():
    # smooth periodic manufactured pair with inhomogeneous divergence
    def fields(x, y):
        u1 = np.sin(x) * y ** 2
        u2 = np.cos(x) * y ** 3 / 3.0
        p = np.cos(x) * y
        return u1, u2, p

    errs = []
    for nx, ny in ((16, 24), (32, 48)):
        grid = StripGrid(COS_WALL, height=2.0, nx=nx, ny=ny)
        X, Y = grid.x[:, None], grid.y_nodes
        F = np.stack([
            np.sin(X) * (Y ** 2 - 2.0 - Y),
            np.cos(X) * (Y ** 3 / 3.0 - 2.0 * Y + 1.0),
        ])
        Xm = grid.x[:, None]
        Ym = grid.gamma[:, None] + grid.H[:, None] * grid.s_mids[None, :]
        gdata = 2.0 * Ym ** 2 * np.cos(Xm)
        u1b, u2b, _ = fields(grid.x, grid.gamma)
        u1t, u2t, _ = fields(grid.x, grid.height * np.ones_like(grid.x))
        sol = solve_stokes(CellProblem(
            grid,
            bottom=np.stack([u1b, u2b]),
            top=DirichletTop(np.stack([u1t, u2t])),
            source=F,
            div_data=gdata,
        ))
        u1e, u2e, pe = fields(X, Y)
        err_u = max(np.abs(sol.u[0] - u1e).max(), np.abs(sol.u[1] - u2e).max())
        _, _, pm = fields(Xm, Ym)
        p_shift = np.average(pm - sol.p, weights=grid.mid_volumes())
        err_p = np.abs(sol.p + p_shift - pm).max()
        errs.append((err_u, err_p))
    assert errs[1][0] < errs[0][0] / 3.0
    assert errs[1][0] < 5e-3
    assert errs[1][1] < errs[0][1] / 2.5
    assert abs(sol.diagnostics["multiplier"]) < 1e-3  # discrete compatibility defect, O(h^2)


def test_divergence_residual_is_tiny():
    sol = solve_cell(COS_WALL, l=1, comp=1, nx=24, ny=32)
    assert sol.diagnostics["divergence_residual"] < 1e-10
    assert sol.diagnostics["linear_residual"] < 1e-10


def test_divergence_residual_does_not_depend_on_memory_layout():
    # the solver's u is a transposed view; a C-contiguous copy holds the same
    # values and must give the same bytes, though the matmul rounds by layout
    sol = solve_cell(COS_WALL, l=2, comp=2, nx=16, ny=20)
    copy = np.ascontiguousarray(sol.u)
    assert copy.flags.c_contiguous and not sol.u.flags.c_contiguous
    want = divergence_residual(sol.grid, sol.u, None)
    assert divergence_residual(sol.grid, copy, None).tobytes() == want.tobytes()


def test_tail_convergence_and_positivity():
    # slip length for the cosine wall: refinement-converged and positive
    tails = []
    for nx, ny in ((16, 20), (24, 30), (36, 46)):
        sol = solve_cell(BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25}),
                         l=1, comp=1, nx=nx, ny=ny)
        tails.append(sol.tail)
    lam = [t[0] for t in tails]
    assert lam[2] > 0
    assert abs(lam[2] - lam[1]) < abs(lam[1] - lam[0])
    assert abs(tails[2][1]) < 5e-3  # vertical tail component vanishes


def test_dtn_consistency_between_heights():
    geo = COS_WALL
    sols = {}
    for height, ny in ((3.0, 36), (4.0, 48)):
        sols[height] = solve_cell(geo, l=1, comp=1, height=height, nx=24, ny=ny)
    # refinement gap at the lower height bounds the scheme error
    coarse = solve_cell(geo, l=1, comp=1, height=3.0, nx=12, ny=18)
    scheme_err = abs(coarse.tail[0] - sols[3.0].tail[0])
    assert abs(sols[3.0].tail[0] - sols[4.0].tail[0]) < max(scheme_err, 1e-6)


def test_trace_expansion_matches_taller_solve():
    geo = COS_WALL
    low = solve_cell(geo, l=1, comp=1, height=3.0, nx=24, ny=36)
    tall = solve_cell(geo, l=1, comp=1, height=5.0, nx=24, ny=60)
    modes = trace_expansion(low, TransparentTop())
    probe_y = 4.0
    vals = velocity(modes, low.grid, tall.grid.x, probe_y)[0] + low.tail[0]
    cols = [int(np.argmin(np.abs(tall.grid.y_nodes[i] - probe_y))) for i in range(tall.grid.nx)]
    tall_vals = np.array([
        np.interp(probe_y, tall.grid.y_nodes[i], tall.u[0][i]) for i in range(tall.grid.nx)
    ])
    scale = max(1.0, np.abs(tall.u[0]).max())
    assert np.abs(vals - tall_vals).max() / scale < 5e-3


def test_trace_expansion_reproduces_the_top_row():
    # the Nyquist mode k = nx/2 is real on the grid: the expansion counts it once
    wall = BoundaryGeometry.from_fourier({0: -0.5, 1: -0.2, 3: 0.1 - 0.05j})
    sol = solve_cell(wall, l=1, comp=1, nx=16, ny=20)
    modes = trace_expansion(sol, TransparentTop())
    # every mode k = 1..nx/2, as the mode solver's own lists of complex
    assert list(modes) == list(range(1, sol.grid.nx // 2 + 1))
    assert all(type(v) is list and v and all(type(c) is complex for c in v)
               for profiles in modes.values() for v in profiles)
    top = velocity(modes, sol.grid, sol.grid.x, sol.grid.height) + sol.tail[:, None]
    assert np.abs(top - sol.u[:, :, -1]).max() < 1e-13


def energy_norms(solution: CellSolution, window: float | None = None) -> dict:
    """Quadrature-consistent norms of the gradient and pressure fields."""
    g = solution.grid
    w = g.node_quad_weights()
    if window is not None:
        w = w * (np.abs(g.y_nodes) <= window) * (np.abs(g.x[:, None]) <= window)
    area = float(w.sum())
    grad_sq = np.zeros_like(w)
    for c in range(2):
        grad_sq += g.dx_nodes(solution.u[c]) ** 2 + g.dy_nodes(solution.u[c]) ** 2
    p_nodes = g.pressure_at_nodes(solution.p)
    return {
        "grad_velocity": float(np.sqrt((w * grad_sq).sum())),
        "pressure": float(np.sqrt((w * p_nodes ** 2).sum())),
        "area": area,
    }


def test_energy_norms_basics():
    sol = solve_cell(COS_WALL, l=1, comp=1, nx=24, ny=32)
    norms = energy_norms(sol)
    assert norms["grad_velocity"] > 0
    zero = solve_cell(BoundaryGeometry.flat(), l=1, comp=1, nx=16, ny=20)
    assert energy_norms(zero)["grad_velocity"] < 1e-11


def test_mode_amplitude_decay_slope():
    # periodic part decays exponentially: well below the e^{-y/2} envelope on
    # [L, L+4], steepening toward the lowest-mode rate -1 further out (the
    # linear-in-z profile keeps the near-field fit above -1)
    sol = solve_cell(COS_WALL, l=1, comp=1, nx=24, ny=36)
    modes = trace_expansion(sol, TransparentTop())

    def slope(lo, hi):
        ys = np.linspace(lo, hi, 9)
        amps = []
        for y in ys:
            v = velocity(modes, sol.grid, sol.grid.x, y)
            amps.append(np.sqrt(np.mean(v ** 2)))
        return np.polyfit(ys, np.log(np.maximum(amps, 1e-300)), 1)[0]

    assert slope(3.0, 7.0) <= -0.5
    assert slope(8.0, 16.0) <= -0.9


def test_geometry_validation():
    with pytest.raises(ValueError):
        BoundaryGeometry.from_fourier({0: -2.0})  # below -1
    with pytest.raises(ValueError):
        BoundaryGeometry.from_fourier({0: 0.3})  # above 0
    with pytest.raises(ValueError):
        StripGrid(COS_WALL, 3.0, nx=6, ny=20)  # resolution too small
    with pytest.raises(ValueError):
        solve_cell(COS_WALL, l=0, comp=1, nx=16, ny=20)


@pytest.mark.parametrize("n, smooth, nyquist", [
    (8, 0.0, 0.1),  # samples alternating -0.4, -0.6
    (8, 1.0, 0.1), (16, 1.0, -0.05), (8, 1.0, 0.0), (9, 1.0, 0.0), (15, 1.0, 0.0),
])
def test_from_samples_interpolates_its_samples(n, smooth, nyquist):
    x = 2 * np.pi * np.arange(n) / n
    s = -0.5 + smooth * (0.2 * np.cos(x) + 0.1 * np.sin(2 * x)) + nyquist * (-1.0) ** np.arange(n)
    assert np.abs(BoundaryGeometry.from_samples(s).gamma(x) - s).max() < 1e-14


def test_grid_rejects_aliased_geometry():
    aliased = BoundaryGeometry.from_fourier({0: -0.5, 13: -0.2})
    with pytest.raises(ValueError, match="aliases"):
        StripGrid(aliased, 3.0, nx=24, ny=20)
    with pytest.raises(AliasingError):
        StripGrid(BoundaryGeometry.from_fourier({0: -0.5, 12: -0.2}), 3.0, nx=24, ny=20)
    StripGrid(BoundaryGeometry.from_fourier({0: -0.5, 11: -0.2}), 3.0, nx=24, ny=20)
    StripGrid(aliased, 3.0, nx=28, ny=20)


def test_wall_problem_data():
    grid = StripGrid(COS_WALL, 3.0, nx=16, ny=20)
    for l, comp in [(1, 1), (2, 1), (3, 2)]:
        problem = wall_problem(grid, l, comp)
        assert problem.grid is grid
        assert np.array_equal(problem.bottom[comp - 1], -grid.gamma ** l)
        assert not np.any(problem.bottom[2 - comp])
        assert isinstance(problem.top, TransparentTop) and not problem.top.exterior
        assert not problem.top.neumann0.any()
        assert problem.source is None and problem.div_data is None
    for l, comp in [(0, 1), (1, 3)]:
        with pytest.raises(InputError, match="need l >= 1"):
            wall_problem(grid, l, comp)


def _dirichlet_problem(geometry, stretch=0.0, div=False, seed=0):
    """Dirichlet data with net top inflow, so the defect mu is O(1)."""
    rng = np.random.default_rng(seed)
    grid = StripGrid(geometry, height=12.0, nx=16, ny=40, stretch=stretch)
    top = rng.standard_normal((2, grid.nx)) + np.array([[0.0], [0.5]])
    return CellProblem(
        grid,
        bottom=rng.standard_normal((2, grid.nx)),
        top=DirichletTop(top),
        source=rng.standard_normal((2, grid.nx, grid.ny + 1)),
        div_data=rng.standard_normal((grid.nx, grid.ny)) if div else None,
    )


@pytest.mark.parametrize("geometry, stretch, div", [
    (BoundaryGeometry.flat(), 0.0, False),
    (COS_WALL, 0.0, False),
    (BoundaryGeometry.from_fourier({0: -0.5, 1: -0.2, 3: 0.05j}), 5.0, False),
    (COS_WALL, 0.0, True),
], ids=["flat", "rough", "stretched", "divergence-data"])
def test_dirichlet_border_matches_bordered_lu(geometry, stretch, div):
    # oracle: LU of the full bordered matrix A0 + U V^T, built here
    problem = _dirichlet_problem(geometry, stretch, div)
    core, U, V = assemble(problem.grid, DirichletTop)
    assert U.shape[1] == 4
    full = (core + sp.csc_matrix(U) @ sp.csc_matrix(V.T)).tocsc()
    # the bordered matrix carries the dense mean and Nyquist multiplier pairs
    grid = problem.grid
    L = Layout(grid, DirichletTop)
    npr = L.p.size
    nyq = np.tile((-1.0) ** np.arange(grid.nx), grid.ny)
    vols = grid.mid_volumes().T.ravel()
    border_cols = full[:, L.mu].toarray()
    border_rows = full[L.mu, :].toarray()
    assert np.array_equal(border_cols[L.p.ravel()], np.stack([np.ones(npr), nyq], 1))
    assert not border_cols[L.u.ravel()].any() and not border_cols[L.mu].any()
    assert np.allclose(border_rows[:, L.p.ravel()], np.stack([vols, nyq * vols]),
                       rtol=1e-15, atol=0)
    assert not border_rows[:, L.u.ravel()].any() and not border_rows[:, L.mu].any()
    rhs = assemble_rhs(problem)
    ref = spla.splu(full).solve(rhs)
    sol = solve_stokes(problem)

    u_ref, p_ref, (mu_ref, _) = L.fields(ref)
    assert np.abs(sol.u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    assert np.abs(sol.p - p_ref).max() <= 1e-10 * np.abs(p_ref).max()
    assert abs(mu_ref) > 1e-3
    assert abs(sol.diagnostics["multiplier"] - mu_ref) <= 1e-10 * abs(mu_ref)
    assert np.abs(full @ ref - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_transparent_border_is_empty():
    grid = StripGrid(COS_WALL, 3.0, nx=16, ny=20)
    core, U, V = assemble(grid, TransparentTop)
    assert core.shape == (2 * 16 * 21 + 16 * 20 + 1,) * 2
    assert U.shape == V.shape == (core.shape[0], 0)
    with pytest.raises(TypeError):
        assemble(grid, object)


@pytest.mark.parametrize("nx, ny", [(12, 16), (16, 20)])
@pytest.mark.parametrize("top_kind", [DirichletTop, TransparentTop])
def test_layout_numbers_every_unknown_once(nx, ny, top_kind):
    grid = StripGrid(COS_WALL, 3.0, nx=nx, ny=ny)
    L = Layout(grid, top_kind)
    assert L.u.shape == (2, ny + 1, nx) and L.p.shape == (ny, nx)
    assert L.mu.shape == ((2,) if top_kind is DirichletTop else (1,))
    numbers = np.concatenate([L.u.ravel(), L.p.ravel(), L.mu])
    assert np.array_equal(numbers, np.arange(L.n))
    assert assemble(grid, top_kind)[0].shape == (L.n, L.n)
    # fields inverts a scatter of fields given in the solver's shapes
    rng = np.random.default_rng(nx)
    u, p, mu = rng.standard_normal((2, nx, ny + 1)), rng.standard_normal((nx, ny)), \
        rng.standard_normal(L.mu.size)
    sol = np.full(L.n, np.nan)
    sol[L.u] = u.transpose(0, 2, 1)
    sol[L.p] = p.T
    sol[L.mu] = mu
    got = L.fields(sol)
    for have, want in zip(got, (u, p, mu)):
        assert have.shape == want.shape and np.array_equal(have, want)
    # the solver's memory layouts, which later reductions round by
    assert got[0].transpose(0, 2, 1).flags.c_contiguous and got[1].T.flags.c_contiguous


@pytest.mark.parametrize("nx, ny, stretch", [(8, 16, 0.0), (10, 17, 0.0), (16, 20, 0.0),
                                              (12, 40, 5.0)])
@pytest.mark.parametrize("top_kind", [DirichletTop, TransparentTop])
def test_size_bound_covers_a0_and_its_order(nx, ny, stretch, top_kind):
    # StripGrid rejects a grid whose bound exceeds _csc's int32 indices
    grid = StripGrid(COS_WALL, 3.0, nx=nx, ny=ny, stretch=stretch)
    A0 = assemble(grid, top_kind)[0]
    assert cell.a0_size_bound(nx, ny) >= max(A0.nnz, Layout(grid, top_kind).n)


@pytest.mark.parametrize("top", [TransparentTop(), DirichletTop(np.zeros((2, 16)))],
                         ids=["transparent", "dirichlet"])
def test_solver_diagnostics_hold_exactly_the_solve_statistics(top):
    # a field added here must also join CI's stack diagnostics check
    grid = StripGrid(COS_WALL, height=3.0, nx=16, ny=20)
    sol = solve_stokes(CellProblem(grid, wall_problem(grid, 1, 1).bottom, top))
    assert sorted(sol.diagnostics) == ["divergence_residual", "linear_residual",
                                       "multiplier", "resolution"]


# -- the lid closures ----------------------------------------------------------

def _lid_fields(g, seed=1):
    """A velocity quadratic and a pressure linear in xi, random per x column."""
    rng = np.random.default_rng(seed)
    c0, c1, c2 = rng.standard_normal((3, 2, g.nx, 1))
    b0, b1 = rng.standard_normal((2, g.nx, 1))
    xi = g.xi_nodes
    return c0 + c1 * xi + c2 * xi ** 2, c1 + 2 * c2 * xi, b0 + b1 * g.xi_mids, b0 + b1


@pytest.mark.parametrize("stretch", [0.0, 2.0])
def test_xi_derivative_is_exact_at_wall_and_lid_for_a_quadratic(stretch):
    g = StripGrid(COS_WALL, 3.0, nx=16, ny=20, stretch=stretch)
    u, du, _, _ = _lid_fields(g)
    for c in range(2):
        # every node, the one-sided wall and lid columns included
        assert np.abs(g.xi_derivative_nodes(u[c]) - du[c]).max() < 1e-12


@pytest.mark.parametrize("stretch", [0.0, 2.0])
def test_neumann_rows_are_the_lid_mean_of_dy(stretch):
    g = StripGrid(COS_WALL, 3.0, nx=16, ny=20, stretch=stretch)
    L = Layout(g, TransparentTop)
    u, _, _, _ = _lid_fields(g)
    x = np.zeros(L.n)
    x[L.u] = u.transpose(0, 2, 1)
    got = (assemble(g, TransparentTop)[0] @ x)[L.top_rows[0]]
    want = [np.mean(g.dy_nodes(u[c])[:, -1]) for c in range(2)]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("stretch", [0.0, 2.0])
def test_pressure_trace_rows_read_the_extrapolated_lid_pressure(stretch):
    g = StripGrid(COS_WALL, 3.0, nx=16, ny=20, stretch=stretch)
    L = Layout(g, TransparentTop)
    _, _, p, p_lid = _lid_fields(g)
    lid = g.pressure_at_nodes(p)[:, -1]
    assert np.abs(lid - p_lid[:, 0]).max() < 1e-13  # exact for p linear in xi
    x = np.zeros(L.n)
    x[L.p] = p.T
    Ax = assemble(g, TransparentTop)[0] @ x
    spec = cell.fourier_modes(g, lid)
    for k in range(1, g.nx // 2 + 1):
        # per part: the Robin row reads no pressure, the trace row mode k of the lid's
        robin, trace = L.top_rows[k][0::2], L.top_rows[k][1::2]
        parts = (np.real, np.imag)[:len(trace)]
        assert not Ax[robin].any()
        assert np.allclose(Ax[trace], [part(spec[k]) for part in parts], rtol=0, atol=1e-13)


@pytest.mark.parametrize("nx", [8, 12, 16])
def test_top_rows_cover_the_lid_rows_once(nx):
    g = StripGrid(COS_WALL, 3.0, nx=nx, ny=16)
    L = Layout(g, TransparentTop)
    assert list(L.top_rows) == list(range(nx // 2 + 1))
    assert [len(rows) for rows in L.top_rows.values()] == [2] + [4] * (nx // 2 - 1) + [2]
    assert np.array_equal(np.concatenate(list(L.top_rows.values())), L.u[:, 16].ravel())
    assert sorted(cell._transparent_rows(g, L)) == sorted(L.u[:, 16].ravel())
    assert Layout(g, DirichletTop).top_rows is None


# -- assembly ------------------------------------------------------------------

def _loop_block(rows_idx, cols_idx, mat, acc):
    nxr = rows_idx.size
    acc[0].append(np.repeat(rows_idx, cols_idx.size))
    acc[1].append(np.tile(cols_idx, nxr))
    acc[2].append(np.asarray(mat, dtype=float).ravel())


def _loop_diag(rows_idx, cols_idx, vals, acc):
    acc[0].append(rows_idx)
    acc[1].append(cols_idx)
    acc[2].append(np.asarray(vals, dtype=float))


def _loop_assemble(grid, top_kind):
    """The per-level assembler `assemble` replaced: one Python pass per
    xi-level over dense np.diag blocks, in COO order, converted by sorting."""
    g = grid
    nx, ny = g.nx, g.ny
    dxi = g.dxi
    L = Layout(g, top_kind)
    dirichlet = top_kind is DirichletTop
    acc = ([], [], [])

    for c in range(2):
        _loop_diag(L.u[c, 0], L.u[c, 0], np.ones(nx), acc)

    Dx, Dxx = g.Dx, g.Dxx
    for j in range(1, ny):
        rowj = {0: L.u[0, j], 1: L.u[1, j]}
        B0 = -Dxx + np.diag(2.0 * g.cxixi[:, j] / dxi ** 2)
        Bp = -np.diag(g.cxixi[:, j]) / dxi ** 2 - g.a_nodes[:, j, None] * Dx / dxi \
            - np.diag(g.cxi[:, j]) / (2 * dxi)
        Bm = -np.diag(g.cxixi[:, j]) / dxi ** 2 + g.a_nodes[:, j, None] * Dx / dxi \
            + np.diag(g.cxi[:, j]) / (2 * dxi)
        for c in range(2):
            _loop_block(rowj[c], L.u[c, j], B0, acc)
            _loop_block(rowj[c], L.u[c, j + 1], Bp, acc)
            _loop_block(rowj[c], L.u[c, j - 1], Bm, acc)
        _loop_block(rowj[0], L.p[j], Dx / 2 + np.diag(g.a_nodes[:, j]) / dxi, acc)
        _loop_block(rowj[0], L.p[j - 1], Dx / 2 - np.diag(g.a_nodes[:, j]) / dxi, acc)
        _loop_diag(rowj[1], L.p[j], g.invHsp_nodes[:, j] / dxi, acc)
        _loop_diag(rowj[1], L.p[j - 1], -g.invHsp_nodes[:, j] / dxi, acc)

    vols = g.mid_volumes()
    for j in range(ny):
        row = L.p[j]
        _loop_block(row, L.u[0, j], Dx / 2 - np.diag(g.a_mids[:, j]) / dxi, acc)
        _loop_block(row, L.u[0, j + 1], Dx / 2 + np.diag(g.a_mids[:, j]) / dxi, acc)
        _loop_diag(row, L.u[1, j], -g.invHsp_mids[:, j] / dxi, acc)
        _loop_diag(row, L.u[1, j + 1], g.invHsp_mids[:, j] / dxi, acc)
        if not dirichlet:
            _loop_diag(row, np.full(nx, L.mu[0]), np.ones(nx), acc)

    U = np.zeros((L.n, 4 if dirichlet else 0))
    V = np.zeros_like(U)
    if dirichlet:
        cells = L.p.ravel()
        nyq = np.tile((-1.0) ** np.arange(nx), ny)
        weights = vols.T.ravel()
        columns = (np.ones(cells.size), nyq)
        constraints = (weights, nyq * weights)
        for m in range(2):
            pin = (ny - 1) * nx + m
            _loop_diag(cells[pin:pin + 1], L.mu[m:m + 1], columns[m][pin:pin + 1], acc)
            _loop_diag(L.mu[m:m + 1], cells[pin:pin + 1], constraints[m][pin:pin + 1], acc)
            U[cells, m] = columns[m]
            U[cells[pin], m] = 0.0
            V[L.mu[m], m] = 1.0
            U[L.mu[m], 2 + m] = 1.0
            V[cells, 2 + m] = constraints[m]
            V[cells[pin], 2 + m] = 0.0
        for c in range(2):
            _loop_diag(L.u[c, ny], L.u[c, ny], np.ones(nx), acc)
    else:
        for j in range(ny):
            _loop_diag(np.full(nx, L.mu[0]), L.p[j], vols[:, j], acc)
        for slot, (cols, vals) in cell._transparent_rows(g, L).items():
            acc[0].append(np.full(cols.shape[0], slot))
            acc[1].append(cols)
            acc[2].append(np.asarray(vals, dtype=float))

    rows, cols, vals = (np.concatenate(a) for a in acc)
    return sp.coo_matrix((vals, (rows, cols)), shape=(L.n, L.n)).tocsc(), U, V


# the five walls of the acceptance suite, which seed 0 of the benchmark uses
_BENCH_WALLS = [
    {0: -0.5, 1: -0.25},
    {0: -0.5, 1: -0.1, 2: -0.08},
    {0: -0.4, 2: -0.125},
    {0: -0.5, 1: complex(-0.08, 0.1), 3: -0.05},
    {0: -0.35, 1: complex(0.0, -0.14)},
]
_ASSEMBLY_CASES = (
    [pytest.param(0, 3.0, nx, ny, 0.0, id=f"wall0-{nx}x{ny}")
     for nx, ny in ((12, 16), (24, 32), (48, 64))]
    + [pytest.param(0, 64 * np.pi, 24, 320, 5.0, id="wall0-24x320-stretch5")]
    + [pytest.param(i, 3.0, 48, 64, 0.0, id=f"wall{i}-48x64") for i in range(1, 5)]
)


@pytest.mark.parametrize("wall, height, nx, ny, stretch", _ASSEMBLY_CASES)
def test_assemble_is_bit_identical_to_loop_oracle(wall, height, nx, ny, stretch):
    grid = StripGrid(BoundaryGeometry.from_fourier(_BENCH_WALLS[wall]), height=height,
                     nx=nx, ny=ny, stretch=stretch)
    for top_kind in (DirichletTop, TransparentTop):
        core, U, V = assemble(grid, top_kind)
        ref, U_ref, V_ref = _loop_assemble(grid, top_kind)
        assert core.format == "csc" and core.shape == ref.shape
        assert core.has_canonical_format
        for name in ("indptr", "indices", "data"):
            got, want = getattr(core, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert U.tobytes() == U_ref.tobytes() and V.tobytes() == V_ref.tobytes()
        assert U.shape == U_ref.shape and V.shape == V_ref.shape


@pytest.mark.parametrize("height, nx, ny, stretch, top_kind", [
    (3.0, 48, 64, 0.0, TransparentTop),
    (64 * np.pi, 24, 320, 5.0, DirichletTop),
], ids=["48x64-transparent", "24x320-stretch5-dirichlet"])
def test_assemble_peak_memory_is_close_to_its_result(height, nx, ny, stretch, top_kind):
    # the CSC arrays are written in place: no COO copy, no per-level value
    # blocks kept alive, only one part's values and positions at a time
    grid = StripGrid(COS_WALL, height=height, nx=nx, ny=ny, stretch=stretch)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        core, _, _ = assemble(grid, top_kind)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    result = core.data.nbytes + core.indices.nbytes + core.indptr.nbytes
    assert peak <= 1.6 * result, peak / result


def test_factor_is_cached_per_grid_and_top_kind(monkeypatch):
    calls = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    grid = StripGrid(COS_WALL, height=3.0, nx=16, ny=20)
    first = solve_stokes(wall_problem(grid, 1, 1))
    bottom = wall_problem(grid, 2, 2).bottom
    top = TransparentTop({1: (*halfline_integrals((1,), [[0.3 + 0.1j], [0.2j]], knorm=1.0),
                              NO_SOURCE)}, np.array([0.1, -0.2]))
    second = solve_stokes(CellProblem(grid, bottom, top))
    assert len(calls) == 1
    assert not np.allclose(first.u, second.u)

    fresh = StripGrid(COS_WALL, height=3.0, nx=16, ny=20)
    again = solve_stokes(CellProblem(fresh, bottom, top))
    assert len(calls) == 2
    assert np.array_equal(again.u, second.u)
    assert np.array_equal(again.p, second.p)
    assert again.diagnostics["multiplier"] == second.diagnostics["multiplier"]

    # a Dirichlet top on the same grid is a second factor, then reused too
    for seed in (1, 2):
        values = np.random.default_rng(seed).standard_normal((2, grid.nx))
        solve_stokes(CellProblem(grid, bottom, DirichletTop(values)))
    assert len(calls) == 3
    assert set(grid.factors) == {TransparentTop, DirichletTop}


@pytest.mark.parametrize("top, noise", [
    (TransparentTop(), 0.0),
    (DirichletTop(np.random.default_rng(3).standard_normal((2, 16))), 0.0),
    (TransparentTop(), 1e-13),
], ids=["transparent", "dirichlet", "unconverged"])
def test_linear_residual_is_that_of_the_returned_solution(monkeypatch, top, noise):
    grid = StripGrid(COS_WALL, height=3.0, nx=16, ny=20)
    problem = CellProblem(grid, wall_problem(grid, 1, 1).bottom, top)
    solve_stokes(problem)
    factor = grid.factors[type(top)]
    if noise:
        # a fixed error in every solve: refinement runs all its passes
        exact, err = factor.solve, noise * np.random.default_rng(0).standard_normal(
            factor.core.shape[0])
        factor.solve = lambda b: exact(b) + err
    seen = []
    matvec = cell.SaddleFactor.matvec
    monkeypatch.setattr(cell.SaddleFactor, "matvec",
                        lambda self, x: seen.append(x) or matvec(self, x))
    sol = solve_stokes(problem)

    # the solution vector: the returned fields, then the multipliers
    fields = np.concatenate([sol.u[0].T.ravel(), sol.u[1].T.ravel(), sol.p.T.ravel()])
    x = np.concatenate([fields, seen[-1][fields.size:]])
    assert np.array_equal(seen[-1], x)
    assert x[fields.size] == sol.diagnostics["multiplier"]
    rhs = assemble_rhs(problem)
    want = float(np.abs(matvec(factor, x) - rhs).max() / max(1.0, float(np.abs(rhs).max())))
    assert sol.diagnostics["linear_residual"] == want
    if noise:
        assert 1e-12 < want <= cell.RESIDUAL_BOUND
    else:
        assert len(seen) <= 3  # one matvec per refinement pass, none after convergence


@pytest.mark.parametrize("top", [TransparentTop(), DirichletTop(np.zeros((2, 16)))],
                         ids=["transparent", "dirichlet"])
def test_wrong_solve_raises_solver_error(top):
    grid = StripGrid(COS_WALL, height=3.0, nx=16, ny=20)
    problem = CellProblem(grid, wall_problem(grid, 1, 1).bottom, top)
    assert solve_stokes(problem).diagnostics["linear_residual"] < 1e-10
    factor = grid.factors[type(top)]
    exact = factor.solve
    factor.solve = lambda b: exact(b) + 1e-3  # refinement cannot remove the shift
    with pytest.raises(SolverError, match="linear residual"):
        solve_stokes(problem)
