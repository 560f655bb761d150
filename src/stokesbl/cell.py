"""Discrete Stokes solver on one periodicity cell of the rough strip (d = 2).

The strip {gamma(x) < y < Y} is mapped onto the rectangle [-pi, pi) x [0, 1]
by y = gamma(x) + H(x) s(xi), H = Y - gamma, with an optional exponential
stretch s clustering points near the wall.  Discretization: Fourier
collocation in x, second-order finite differences on a staggered grid in xi
(velocity at nodes, pressure at midpoints).  The saddle-point system is
solved directly with a pressure-mean Lagrange multiplier (plus a Nyquist one
under a Dirichlet top).  Its matrix depends only on the grid and the kind of
top, so each grid keeps one sparse LU per kind and later solves only build
the right-hand side.  The matrix is written block by block straight into
its CSC arrays, in an order that leaves it canonical without sorting.
Under a Dirichlet top the dense multiplier rows and columns stay out of the
LU: the factored core pins them at single cells, and a rank-4
Sherman-Morrison-Woodbury correction restores the bordered system.

The top boundary is either Dirichlet (tall strips for regularity runs) or a
transparent condition built from the per-mode Dirichlet-to-Neumann map of the
decaying Stokes solution above y = Y: horizontal Robin rows plus a pressure
trace row per Fourier mode, with the zero mode closed by Neumann data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import AliasingError, BoundaryGeometry, InputError, SolverError
from .modes import (dtn_matrix, poly_add, poly_derive, poly_eval0, solve_mode_numeric,
                    symbol_vector)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

#: The default cell grid: lid height, x nodes and xi intervals.
DEFAULT_HEIGHT, DEFAULT_NX, DEFAULT_NY = 3.0, 32, 40

#: One-sided lid closures, mirrored at the wall and read by the top rows:
#: d/dxi f(ny) = sum_m XI_CLOSURE[m] f[ny-m] / (2 dxi), p(ny) = sum_m P_CLOSURE[m] p[ny-1-m].
XI_CLOSURE, P_CLOSURE = (3.0, -4.0, 1.0), (1.5, -0.5)


class StripGrid:
    """Boundary-fitted tensor grid with metric coefficients precomputed."""

    # float64 cannot hold every grid of finite size; the metric of one that
    # overflows is rejected by _check_representable, without numpy warnings
    @np.errstate(all="ignore")
    def __init__(self, geometry: BoundaryGeometry, height: float, *,
                 nx: int, ny: int, stretch: float = 0.0):
        if nx < 8 or ny < 16:
            raise InputError("resolution must be at least (8, 16)")
        if nx % 2 != 0:
            raise InputError("nx must be even")
        if a0_size_bound(nx, ny) > np.iinfo(np.int32).max:  # `_csc`'s index type
            raise InputError(f"grid nx = {nx}, ny = {ny} is too large for int32 matrix indices")
        if 2 * geometry.max_mode >= nx:
            raise AliasingError(f"geometry mode k = {geometry.max_mode} aliases on nx = {nx};"
                                f" need nx > {2 * geometry.max_mode}")
        if not (np.isfinite(height) and np.isfinite(stretch)):
            raise InputError(f"height and stretch must be finite (got {height}, {stretch})")
        if height < 1:  # walls lie in [-1, 0], so the lid clears every one
            raise InputError(f"lid height must be >= 1 (got {height})")
        self.geometry = geometry
        self.height = float(height)
        self.nx, self.ny = int(nx), int(ny)
        self.stretch = float(stretch)

        self.x = -np.pi + 2.0 * np.pi * np.arange(nx) / nx
        self.dx = 2.0 * np.pi / nx
        self.dxi = 1.0 / ny
        self.xi_nodes = np.arange(ny + 1) * self.dxi
        self.xi_mids = (np.arange(ny) + 0.5) * self.dxi

        self.s_nodes, self.sp_nodes, self.spp_nodes = self._stretch_eval(self.xi_nodes)
        self.s_mids, self.sp_mids, _ = self._stretch_eval(self.xi_mids)

        self.gamma = geometry.gamma(self.x)
        self.dgam = geometry.dgamma(self.x)
        self.d2gam = geometry.d2gamma(self.x)
        self.H = self.height - self.gamma

        # y and metric terms; arrays are (nx, ny+1) nodes or (nx, ny) mids
        self.y_nodes = self.gamma[:, None] + self.H[:, None] * self.s_nodes[None, :]
        self.a_nodes = self._metric_a(self.s_nodes, self.sp_nodes)
        self.a_mids = self._metric_a(self.s_mids, self.sp_mids)
        self.invHsp_nodes = 1.0 / (self.H[:, None] * self.sp_nodes[None, :])
        self.invHsp_mids = 1.0 / (self.H[:, None] * self.sp_mids[None, :])

        # Laplacian coefficients at nodes:
        #   Lap f = f_xx + 2 a f_xxi + cxx f_xixi + cxi f_xi
        ax = ((self.s_nodes[None, :] - 1.0) / self.sp_nodes[None, :]
              * (self.d2gam * self.H + self.dgam ** 2)[:, None] / self.H[:, None] ** 2)
        axi = (self.dgam[:, None] / self.H[:, None]) * (
            1.0 - (self.s_nodes[None, :] - 1.0) * self.spp_nodes[None, :]
            / self.sp_nodes[None, :] ** 2
        )
        self.cxixi = self.a_nodes ** 2 + self.invHsp_nodes ** 2
        self.cxi = ax + self.a_nodes * axi - (
            self.spp_nodes[None, :] / (self.H[:, None] ** 2 * self.sp_nodes[None, :] ** 3)
        )
        self._check_representable()

        kv = np.fft.fftfreq(nx, d=1.0 / nx)
        kv_odd = kv.copy()
        kv_odd[nx // 2] = 0.0
        eye_hat = np.fft.fft(np.eye(nx), axis=0)
        self.Dx = np.real(np.fft.ifft(1j * kv_odd[:, None] * eye_hat, axis=0))
        self.Dxx = np.real(np.fft.ifft(-(kv ** 2)[:, None] * eye_hat, axis=0))

        # saddle-point factorizations on this grid, keyed by top kind
        self.factors: dict = {}

    def _stretch_eval(self, xi):
        if self.stretch == 0.0:
            one = np.ones_like(xi)
            return xi.copy(), one, np.zeros_like(xi)
        sig = self.stretch
        den = np.expm1(sig)
        s = np.expm1(sig * xi) / den
        spr = sig * np.exp(sig * xi) / den
        return s, spr, sig * spr

    def _metric_a(self, s, spr):
        return self.dgam[:, None] * (s[None, :] - 1.0) / (self.H[:, None] * spr[None, :])

    def _check_representable(self):
        """Raise InputError when float64 cannot hold the mapped grid.

        Finite sizes can still overflow (a huge stretch) or underflow (a
        huge height squares the inverse metric to zero); the solve would
        then fail on a singular or non-finite system.
        """
        names = ("y_nodes", "a_nodes", "a_mids", "invHsp_nodes", "invHsp_mids",
                 "cxixi", "cxi")
        bad = [f"{name} not finite" for name in names
               if not np.all(np.isfinite(getattr(self, name)))]
        if not np.all(np.diff(self.y_nodes, axis=1) > 0):
            bad.append("y_nodes not increasing")
        if not np.all(self.cxixi > 0):
            bad.append("cxixi not positive")
        if bad:
            raise InputError(f"grid not representable at height {self.height!r}, stretch "
                             f"{self.stretch!r}: {', '.join(bad)}")

    # -- helpers used by the recursion and the regularity harness ----------

    def xi_of_y(self, column, yvals):
        """Invert the vertical map on one x-column, or pointwise on an array
        of column indices that broadcasts against yvals."""
        svals = (np.asarray(yvals, dtype=float) - self.gamma[column]) / self.H[column]
        if self.stretch == 0.0:
            return svals
        return np.log1p(svals * np.expm1(self.stretch)) / self.stretch

    def xi_derivative_nodes(self, f: np.ndarray) -> np.ndarray:
        """Second-order d/dxi of a node field (nx, ny+1)."""
        a, b, c = XI_CLOSURE
        out = np.empty_like(f)
        out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2 * self.dxi)
        out[:, 0] = (-a * f[:, 0] + -b * f[:, 1] + -c * f[:, 2]) / (2 * self.dxi)
        out[:, -1] = (a * f[:, -1] + b * f[:, -2] + c * f[:, -3]) / (2 * self.dxi)
        return out

    def dx_nodes(self, f: np.ndarray) -> np.ndarray:
        """Physical d/dx of a node field."""
        return self.Dx @ f + self.a_nodes * self.xi_derivative_nodes(f)

    def dy_nodes(self, f: np.ndarray) -> np.ndarray:
        """Physical d/dy of a node field."""
        return self.invHsp_nodes * self.xi_derivative_nodes(f)

    def node_quad_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights for integrals dx dy over the cell."""
        w = self.dx * self.dxi * self.H[:, None] * self.sp_nodes[None, :]
        w = w.copy()
        w[:, 0] *= 0.5
        w[:, -1] *= 0.5
        return w

    def mid_volumes(self) -> np.ndarray:
        return self.dx * self.dxi * self.H[:, None] * self.sp_mids[None, :]

    @staticmethod
    def xi_mean(f: np.ndarray) -> np.ndarray:
        """Mean of xi-neighbours: a node field (nx, ny+1) at the midpoints,
        or a midpoint field (nx, ny) at the interior nodes."""
        return 0.5 * (f[:, 1:] + f[:, :-1])

    def pressure_at_nodes(self, p: np.ndarray) -> np.ndarray:
        """Interpolate the midpoint pressure to nodes (second order)."""
        a, b = P_CLOSURE
        out = np.empty((self.nx, self.ny + 1))
        out[:, 1:-1] = self.xi_mean(p)
        out[:, 0] = a * p[:, 0] + b * p[:, 1]
        out[:, -1] = a * p[:, -1] + b * p[:, -2]
        return out


# ---------------------------------------------------------------------------
# top boundary conditions
# ---------------------------------------------------------------------------

@dataclass
class DirichletTop:
    """Prescribed velocity at y = height; values has shape (2, nx)."""

    values: np.ndarray


@dataclass
class TransparentTop:
    """Per-mode transparent condition at y = height.

    exterior maps 0 < k <= nx/2 to (qbar, vbar, W): the half-line integrals
    of the reduced (divergence-free) exterior source profile of mode k and
    the mode profile of the divergence corrector, coefficient lists, W zero
    for solenoidal problems.  A missing mode is homogeneous.  Each mode
    k < nx/2 sets the real and imaginary parts of its rows; the Nyquist mode
    k = nx/2, a real mode on the grid, only the real parts, so it counts
    once.  neumann0 holds the d_y value of the zero mode.  The top rows and
    trace_expansion both read exterior.
    """

    exterior: dict = field(default_factory=dict)
    neumann0: np.ndarray = field(default_factory=lambda: np.zeros(2))


# ---------------------------------------------------------------------------
# the saddle-point solve
# ---------------------------------------------------------------------------

@dataclass
class CellProblem:
    grid: StripGrid
    bottom: np.ndarray                    # (2, nx) velocity on the wall
    top: object                           # DirichletTop | TransparentTop
    source: np.ndarray | None = None      # (2, nx, ny+1) at nodes
    div_data: np.ndarray | None = None    # (nx, ny) at midpoints


@dataclass
class CellSolution:
    """A cell solve's fields; the tail and trace modes are read off u's top row,
    so a solution rebuilt from stored (u, p) equals the solved one."""

    grid: StripGrid
    u: np.ndarray                         # (2, nx, ny+1)
    p: np.ndarray                         # (nx, ny)
    diagnostics: dict
    tail: np.ndarray = field(init=False)  # zero Fourier mode of u at the top
    trace_modes: dict = field(init=False)  # k > 0 -> (2,) complex trace at top

    def __post_init__(self):
        spec = fourier_modes(self.grid, self.u[:, :, self.grid.ny])
        self.tail = np.real(spec[:, 0])
        self.trace_modes = {k: spec[:, k].copy() for k in range(1, self.grid.nx // 2 + 1)}


def _diags(vals: np.ndarray) -> np.ndarray:
    """np.diag of each row of vals: (levels, nx) -> (levels, nx, nx)."""
    out = np.zeros(vals.shape + vals.shape[-1:])
    out.reshape(len(vals), -1)[:, ::vals.shape[1] + 1] = vals
    return out


def a0_size_bound(nx: int, ny: int) -> int:
    """An upper bound on A0's stored entries under either top, and so on its
    order `Layout.n`: the transparent count 10 nx^2 ny + (6 ny - 2) nx, plus 2 nx."""
    return nx * ny * (10 * nx + 6)


def _csc(n: int, parts) -> sp.csc_matrix:
    """Canonical n x n CSC matrix of (rows, cols, values) parts, written in place.

    rows has shape (..., nr, 1) and cols one of
      (..., 1, nc)  every row of a block meets every column of its block,
      (..., nr, 1)  one entry per row;
    no column repeats within a part.  values is an array broadcasting to the
    entries, or a function making one, called only when its part is written.
    Pass 1 counts each column's entries from the patterns; pass 2 writes each
    part's rows and values straight to their CSC positions, advancing one
    cursor per column, and drops them before the next part.  Parts must reach
    every column in ascending row order, which makes the result canonical
    with no sorting pass.
    """
    counts = np.zeros(n, np.intp)
    for rows, cols, _ in parts:
        _advance(counts, rows, cols)
    indptr = np.zeros(n + 1, np.int32)  # scipy's index type at these sizes
    np.cumsum(counts, out=indptr[1:])
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
    cursor = indptr[:-1].astype(np.intp)
    for part in parts:
        _write_part(part, cursor, indices, data)
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _write_part(part, cursor, indices, data):
    """Write one part of `_csc` at its columns' cursors and advance them; its
    positions and values are freed on return, before the next part's exist."""
    rows, cols, values = part
    pos = cursor[cols] + _ranks(rows, cols)
    indices[pos] = rows
    data[pos] = values() if callable(values) else values
    _advance(cursor, rows, cols)


def _advance(counts, rows, cols):
    """Add each column's entry count in a `_csc` part to counts."""
    counts[cols] += rows.shape[-2] if cols.shape[-2] == 1 else 1


def _ranks(rows, cols):
    """Each entry's place, in row order, among its column's entries in a `_csc` part."""
    return np.arange(rows.shape[-2])[:, None] if cols.shape[-2] == 1 else 0


def _row(row: int, cols, vals):
    """`_csc` part of one row meeting the given columns."""
    return np.array([[row]]), np.reshape(cols, (1, -1)), vals


class Layout:
    """The numbering of the saddle-point unknowns on a grid under a kind of top.

    Unknowns are numbered u1 then u2 at the nodes, xi-level major, then p at
    the midpoints, then the multipliers: u[c, j, i] is component c at node
    (x_i, xi_j), p[j, i] the pressure cell (x_i, xi_{j+1/2}), and mu the
    pressure-mean multiplier, followed by the Nyquist one under a Dirichlet
    top.  n counts them all.  Under a transparent top, top_rows maps mode k to
    its rows of u[:, ny], ascending: the zero mode's two Neumann rows, then per
    k > 0 and `_mode_parts` part a Robin and a pressure trace row (else None).
    """

    def __init__(self, grid: StripGrid, top_kind: type):
        if top_kind not in (DirichletTop, TransparentTop):
            raise TypeError(f"unsupported top condition {top_kind!r}")
        nx, ny = grid.nx, grid.ny
        nvel, npr = 2 * (ny + 1) * nx, ny * nx
        self.n = nvel + npr + (2 if top_kind is DirichletTop else 1)
        index = np.arange(self.n)
        self.u = index[:nvel].reshape(2, ny + 1, nx)
        self.p = index[nvel:nvel + npr].reshape(ny, nx)
        self.mu = index[nvel + npr:]
        sizes = [2] + [2 * len(_mode_parts(k, nx)) for k in range(1, nx // 2 + 1)]
        self.top_rows = (dict(enumerate(np.split(self.u[:, ny].ravel(), np.cumsum(sizes)[:-1])))
                         if top_kind is TransparentTop else None)

    def fields(self, sol: np.ndarray):
        """(u, p, mu) of a solution vector, u of shape (2, nx, ny+1) and p (nx, ny).

        Both are transposed views of C-contiguous (level, x) arrays: the pinned
        outputs were made so, and `Dx @ f` in `StripGrid.dx_nodes` rounds by layout.
        """
        return sol[self.u].transpose(0, 2, 1), sol[self.p].T, sol[self.mu]


def _mode_parts(k: int, nx: int):
    """Real rows carried by the complex top condition of mode k."""
    return (np.real, np.imag) if k < nx // 2 else (np.real,)


def assemble(grid: StripGrid, top_kind: type):
    """Sparse saddle-point matrix A = A0 + U V^T of a grid and a kind of top.

    The matrix depends only on the grid and on the kind of top condition
    (`DirichletTop` or `TransparentTop`); `assemble_rhs` carries the data.

    Pressure constraint rows: the weighted mean is always pinned; with a
    Dirichlet top the x-Nyquist, xi-constant pressure pattern is invisible to
    every momentum row (the real Fourier derivative annihilates the Nyquist
    mode), so a second constraint/multiplier pair removes it.

    The transparent top keeps its multiplier in the sparse core A0, and the
    border U V^T is empty.  With a Dirichlet top the two dense multiplier
    columns and constraint rows would dominate the LU fill, so A0 keeps one
    entry of each, at the top-level pressure cells (0, ny-1) and (1, ny-1)
    with the border's own value, and the rest forms the rank-4 border.
    Returns (A0 in CSC form, U, V) with U, V of shape (n, 0) or (n, 4).

    `_csc` writes A0 straight into its CSC arrays: the only arrays that grow
    with the nonzero count are the returned ones.  The invariant is the
    order of the parts: blocks of rows go in ascending `Layout` number and,
    within a block, parts go in descending column-level offset (column level
    j+1, then j, then j-1 for a row at level j), so every column receives
    its rows in ascending order and the matrix is canonical as written.  A0
    (explicit zeros included), U and V are bit-identical to the per-level
    loop kept in the tests as the oracle.
    """
    L = Layout(grid, top_kind)
    g = grid
    nx, ny = g.nx, g.ny
    dxi = g.dxi
    u, p, mu = L.u, L.p, L.mu
    dirichlet = top_kind is DirichletTop
    parts = []

    # (rows, cols, values) parts: rows (levels, nx, 1) meet dense columns
    # (levels, 1, nx) block by block, diagonal columns (levels, nx, 1) one each.
    # Interior momentum rows of levels j = 1..ny-1: velocity levels j+1, j,
    # j-1, then pressure levels j and j-1 (d_x p in u1 rows, d_y p in u2 rows)
    Dx, Dxx = g.Dx, g.Dxx
    cxixi, cxi, a, ih = (f[:, 1:ny].T for f in (g.cxixi, g.cxi, g.a_nodes, g.invHsp_nodes))
    velocity = (
        (2, lambda: -_diags(cxixi) / dxi ** 2 - a[..., None] * Dx / dxi
         - _diags(cxi) / (2 * dxi)),
        (1, lambda: -Dxx + _diags(2.0 * cxixi / dxi ** 2)),
        (0, lambda: -_diags(cxixi) / dxi ** 2 + a[..., None] * Dx / dxi
         + _diags(cxi) / (2 * dxi)),
    )
    grad_p = ([(p[1:ny, None, :], lambda: Dx / 2 + _diags(a) / dxi),
               (p[:ny - 1, None, :], lambda: Dx / 2 - _diags(a) / dxi)],
              [(p[1:ny, :, None], ih[..., None] / dxi),
               (p[:ny - 1, :, None], -ih[..., None] / dxi)])
    top_rows = None if dirichlet else _transparent_rows(g, L)
    for c in range(2):
        # bottom Dirichlet, interior momentum rows, top rows
        parts.append((u[c, 0, :, None], u[c, 0, :, None], 1.0))
        rows = u[c, 1:ny, :, None]
        parts += [(rows, u[c, t:t + ny - 1, None, :], B) for t, B in velocity]
        parts += [(rows, cols, vals) for cols, vals in grad_p[c]]
        if dirichlet:
            parts.append((u[c, ny, :, None], u[c, ny, :, None], 1.0))
        else:
            parts += [_row(slot, *top_rows[slot]) for slot in u[c, ny]]

    # continuity rows at each pressure cell, velocity level t+1 then t
    vols = g.mid_volumes()
    a_mid, ih_mid = g.a_mids.T, g.invHsp_mids.T[..., None]
    rows = p[:, :, None]
    parts += [(rows, u[0, 1:, None, :], lambda: Dx / 2 + _diags(a_mid) / dxi),
              (rows, u[0, :ny, None, :], lambda: Dx / 2 - _diags(a_mid) / dxi),
              (rows, u[1, 1:, :, None], ih_mid / dxi), (rows, u[1, :ny, :, None], -ih_mid / dxi)]
    if not dirichlet:
        # uniform multiplier column: mu reads as compatibility defect density
        parts.append((p.reshape(-1, 1), mu[None], 1.0))

    # pressure constraint rows
    U = np.zeros((L.n, 4 if dirichlet else 0))
    V = np.zeros_like(U)
    if dirichlet:
        # multiplier m's column on the continuity rows and constraint row on
        # the pressure unknowns: m = 0 the mean, m = 1 the Nyquist pattern
        nyq = np.tile((-1.0) ** np.arange(nx), (ny, 1))
        columns = (np.ones((ny, nx)), nyq)
        constraints = (vols.T, nyq * vols.T)
        for m in range(2):
            # A0 keeps the entries at the pin cell (m, ny-1); U V^T adds the rest
            pin = p[ny - 1, m]
            parts.append(_row(pin, mu[m], columns[m][ny - 1, m]))
            parts.append(_row(mu[m], pin, constraints[m][ny - 1, m]))
            U[p, m] = columns[m]
            U[pin, m] = 0.0
            V[mu[m], m] = 1.0
            U[mu[m], 2 + m] = 1.0
            V[p, 2 + m] = constraints[m]
            V[pin, 2 + m] = 0.0
    else:
        parts.append(_row(mu[0], p, vols.T.ravel()))

    return _csc(L.n, parts), U, V


def _transparent_rows(g: StripGrid, L: Layout) -> dict:
    """(cols, vals) of the transparent condition's 2 nx top rows, keyed by
    their rows `L.top_rows`; d_y and the pressure trace use the lid closures."""
    nx, ny = g.nx, g.ny
    dcoef = g.invHsp_nodes[:, ny] / (2 * g.dxi)

    def dy_cols_vals(c, weight):
        # a unit weight is left out: 1.0 * weight can flip a complex zero's sign
        cols = L.u[c, ny - np.arange(len(XI_CLOSURE))].ravel()
        vals = np.concatenate([(weight if w == 1.0 else w * weight) * dcoef
                               for w in XI_CLOSURE])
        return cols, vals

    # zero mode: d_y of both components equals the prescribed Neumann data
    w0vec = np.full(nx, 1.0 / nx)
    rows = dict(zip(L.top_rows[0], [dy_cols_vals(c, w0vec) for c in range(2)]))

    trace_cols, lid_p = L.u[:, ny], L.p[ny - 1 - np.arange(len(P_CLOSURE))]
    for k in range(1, nx // 2 + 1):
        wk = np.exp(-1j * k * g.x) / nx
        M = dtn_matrix((k,))
        # horizontal Robin: FFT_k[d_y u1] - (M uhat)_1 = r1 - (M w0)_1
        cols_d, vals_d = dy_cols_vals(0, wk)
        # (the trace of u1 shares its columns with d_y u1: one entry each)
        row_h = (np.concatenate([cols_d, trace_cols[1]]),
                 np.concatenate([vals_d[:nx] + -M[0, 0] * wk, vals_d[nx:], -M[0, 1] * wk]))
        # pressure trace: FFT_k[p(top)] + 2 a_k . uhat = rp + 2 a_k . w0
        a_k = np.array(symbol_vector((k,), float(k)))
        row_p = (np.concatenate([*lid_p, trace_cols[0], trace_cols[1]]),
                 np.concatenate([*(w * wk for w in P_CLOSURE), 2 * a_k[0] * wk, 2 * a_k[1] * wk]))
        rows.update(zip(L.top_rows[k], [(cols, part(vals)) for part in _mode_parts(k, nx)
                                        for cols, vals in (row_h, row_p)]))
    return rows


def assemble_rhs(problem: CellProblem) -> np.ndarray:
    """Right-hand side of the saddle-point system that `assemble` builds."""
    g, top = problem.grid, problem.top
    nx, ny = g.nx, g.ny
    L = Layout(g, type(top))
    rhs = np.zeros(L.n)
    rhs[L.u[:, 0]] = problem.bottom
    if problem.source is not None:
        rhs[L.u[:, 1:ny]] = problem.source[:, :, 1:ny].transpose(0, 2, 1)
    if problem.div_data is not None:
        rhs[L.p] = problem.div_data.T

    if isinstance(top, DirichletTop):
        rhs[L.u[:, ny]] = top.values
    else:
        rhs[L.top_rows[0]] = [float(top.neumann0[0]), float(top.neumann0[1])]
        for k in range(1, nx // 2 + 1):
            if k not in top.exterior:
                continue  # a homogeneous mode's rows keep a zero right-hand side
            values = _transparent_values(k, *top.exterior[k])
            rhs[L.top_rows[k]] = [float(part(np.complex128(value)))
                                  for part in _mode_parts(k, nx) for value in values]
    return rhs


class SaddleFactor:
    """Sparse LU of the core A0 of a saddle-point matrix A = A0 + U V^T.

    With a nonempty border, solves follow the Sherman-Morrison-Woodbury
    identity A^{-1} b = y - Z C^{-1} V^T y with y = A0^{-1} b, Z = A0^{-1} U
    and the capacitance C = I + V^T Z: the columns of U cost one extra solve
    each at factor time, and every solve adds a small dense one.  With an
    empty border, `solve` and `matvec` are the LU solve and A0 @ x.
    """

    def __init__(self, core, U: np.ndarray, V: np.ndarray):
        self.core, self.U, self.V = core, U, V
        try:
            self.lu = spla.splu(core)
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"saddle-point factorization failed: {exc}") from exc
        if U.shape[1]:
            self.Z = self.lu.solve(U)
            self.capacitance = np.eye(U.shape[1]) + V.T @ self.Z

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self.lu.solve(b)
        if not self.U.shape[1]:
            return y
        return y - self.Z @ np.linalg.solve(self.capacitance, self.V.T @ y)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = self.core @ x
        if self.U.shape[1]:
            out += self.U @ (self.V.T @ x)
        return out


# Largest relative linear residual max|A x - b| / max(1, max|b|) a solve may
# return.  Refined solves on the CLI's default grids measure below 1e-12, so
# a miss means a broken factorization, not a hard problem.
RESIDUAL_BOUND = 1e-8


def solve_stokes(problem: CellProblem) -> CellSolution:
    """Direct solve of the discrete saddle-point system.

    The matrix depends only on the grid and the kind of top condition, so
    its factorization is cached on the grid: later solves on the same grid
    with the same kind of top only assemble the right-hand side.  Iterative
    refinement runs against the full bordered operator.  Raises SolverError
    when the factorization fails, the solution is not finite, or the final
    relative residual exceeds RESIDUAL_BOUND.
    """
    g = problem.grid
    kind = type(problem.top)
    rhs = assemble_rhs(problem)
    factor = g.factors.get(kind)
    if factor is None:
        factor = g.factors[kind] = SaddleFactor(*assemble(g, kind))
    sol = factor.solve(rhs)
    # iterative refinement: tall stretched grids push the condition number
    # high enough that one LU pass loses several digits
    scale = max(1.0, float(np.abs(rhs).max()))
    for _ in range(4):
        resid = rhs - factor.matvec(sol)
        if float(np.abs(resid).max()) <= 1e-12 * scale:
            break
        sol = sol + factor.solve(resid)
    else:
        # the last pass moved sol: its residual is still to be taken
        resid = rhs - factor.matvec(sol)
    if not np.all(np.isfinite(sol)):
        raise SolverError("solver returned non-finite values")
    # |b - A x| is bit-equal to |A x - b|
    linear_residual = float(np.abs(resid).max() / scale)
    if not linear_residual <= RESIDUAL_BOUND:
        raise SolverError(f"linear residual {linear_residual:.3e} exceeds "
                          f"the bound {RESIDUAL_BOUND:.0e}")

    u, p, mu = Layout(g, kind).fields(sol)
    div = divergence_residual(g, u, problem.div_data)
    return CellSolution(g, u, p, {
        "linear_residual": linear_residual,
        "divergence_residual": float(np.abs(div).max()),
        "multiplier": float(mu[0]),
        "resolution": [g.nx, g.ny],
    })


def fourier_modes(g: StripGrid, row_values: np.ndarray) -> np.ndarray:
    """Coefficients (1/nx) sum_i f(x_i) e^{-ik x_i} along the last axis.

    The grid starts at x = -pi, so the raw FFT picks up a (-1)^k phase.
    """
    kv = np.fft.fftfreq(g.nx, d=1.0 / g.nx).astype(int)
    return np.fft.fft(row_values, axis=-1) / g.nx * ((-1.0) ** kv)


def divergence_residual(g: StripGrid, u: np.ndarray, div_data) -> np.ndarray:
    """Discrete divergence minus prescribed data at the pressure cells."""
    dxi = g.dxi
    # the matmul rounds by its operand's layout: fix it, whatever u's is
    u1m = np.asfortranarray(g.xi_mean(u[0]))
    du1 = (u[0][:, 1:] - u[0][:, :-1]) / dxi
    du2 = (u[1][:, 1:] - u[1][:, :-1]) / dxi
    div = g.Dx @ u1m + g.a_mids * du1 + g.invHsp_mids * du2
    if div_data is not None:
        div = div - div_data
    return div


# ---------------------------------------------------------------------------
# the wall problem: level 0 of the corrector hierarchy
# ---------------------------------------------------------------------------

def wall_problem(grid: StripGrid, l: int, comp: int) -> CellProblem:
    """Bounded cell problem with wall data -gamma(x)^l e_comp (comp 1-based,
    the driving index i) and a homogeneous transparent top."""
    if l < 1 or comp not in (1, 2):
        raise InputError("need l >= 1 and comp in {1, 2}")
    bottom = np.zeros((2, grid.nx))
    bottom[comp - 1] -= grid.gamma ** l
    return CellProblem(grid=grid, bottom=bottom, top=TransparentTop())


def solve_cell(geometry: BoundaryGeometry, l: int, comp: int,
               height: float = DEFAULT_HEIGHT, *, nx: int, ny: int) -> CellSolution:
    """Bounded cell corrector with data v = -y^l e_comp on the wall."""
    return solve_stokes(wall_problem(StripGrid(geometry, height=height, nx=nx, ny=ny), l, comp))


def _transparent_values(k: int, qbar, vbar, W_coeffs) -> tuple[complex, complex]:
    """Right-hand sides of the Robin and pressure trace rows of mode k > 0.

    (qbar, vbar) are the half-line integrals of the reduced (divergence-free)
    exterior source profile of mode k, and w0, w0' are the value and slope
    at z = 0 of W_coeffs, the mode part of the divergence corrector.  The
    exterior solution with trace (uhat - w0) satisfies

        d_y uhat - M_k (uhat - w0) = g_k + (w0' - |k| w0)   (horizontal rows)
        phat + 2 a_k . (uhat - w0) = Qbar(0) - 2 (Vbar')_2(0)   (pressure row)

    with g_k = (1/|k|) a_k (Vbar')_2(0) + Vbar'(0).  The rows carry uhat on
    the left, so their right-hand sides are r1 - (M_k w0)_1 and rp + 2 a_k . w0.
    """
    kn = float(k)
    dv0 = [poly_eval0(poly_derive(vb), 0j) for vb in vbar]
    a_k = np.array(symbol_vector((k,), kn))
    g = (a_k / kn) * dv0[1] + np.array(dv0)
    w0 = np.array([poly_eval0(w, 0j) for w in W_coeffs], dtype=complex)
    w0p = np.array([poly_eval0(poly_derive(w), 0j) for w in W_coeffs], dtype=complex)
    r1 = complex(g[0] + (w0p - kn * w0)[0])
    rp = complex(poly_eval0(qbar, 0j) - 2 * dv0[1])
    return r1 - (dtn_matrix((k,)) @ w0)[0], rp + 2 * (a_k @ w0)


def trace_expansion(solution: CellSolution, top: TransparentTop) -> dict:
    """Profiles of the decaying modes above the top of the grid.

    Each mode k of the top trace closes the exterior problem with trace
    - W(0) from the half-line integrals and divergence corrector W that the
    transparent top the solution was solved with holds for that mode, zero
    for a homogeneous one.  Returns {k: (V1, V2, Q)} for k = 1..nx/2, the
    coefficient lists of V + W and Q, each of length >= 1, that
    modes.mode_fields evaluates.
    """
    modes = {}
    for k, trace in solution.trace_modes.items():
        qbar, vbar, W = top.exterior.get(k, ([], [[], []], [[], []]))
        w0 = np.array([poly_eval0(w, 0j) for w in W], dtype=complex)
        V, Q = solve_mode_numeric((k,), (qbar, vbar), trace - w0)
        modes[k] = (*(poly_add(v or [0j], w) or [0j] for v, w in zip(V, W)), Q or [0j])
    return modes
