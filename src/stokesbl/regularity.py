"""Large-scale regularity diagnostics: excess, decay, projected fits, pointwise.

The excess of a field u at radius r is the normalized L2 distance of grad u
from the span of the heterogeneous basis gradients over the window B_{r,+}.
It is computed as a streaming least-squares problem: window quadrature rows
are reduced block-by-block with Householder QR (numerically safe for the
near-consistent systems that arise when u itself lies in the span).

Fields and basis elements are sampled on a shared evaluation grid (one
periodicity cell, extended over as many periods as the window needs) and
differentiated with the same discrete operators, so membership tests are
exact up to rounding rather than discretization.

Each basis field, and each outer solution, is a polynomial in the period
shift: at x + s it is sum_i (x + s)^i f_i with coefficient arrays f_i that
repeat in every period.  The arrays are built once, after the solves (the
lift traces read the top row's alone before them), and every sampled field
is one Horner evaluation per period: the excess rows, the pressure
residuals and the pointwise errors u - w_poly alike.  The analyses take
each field as its gradient's X-power series.  The excess takes several at
once: each radius reads its window once, building the basis rows once and
carrying every field as an extra QR column, so the outer data share their
windows; the basis columns' scaling is read off the R factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from .cell import CellProblem, CellSolution, DirichletTop, StripGrid, solve_stokes
from .geometry import InputError
from .recursion import (
    CorrectorStack,
    HeterogeneousElement,
    LevelSampler,
    coeff_derivative,
    heterogeneous_basis,
    padded_sum,
    poly_to_coeff2d,
)


# ---------------------------------------------------------------------------
# sampled basis on an evaluation grid
# ---------------------------------------------------------------------------

def horner(coeffs: np.ndarray, X) -> np.ndarray:
    """sum_i X**i coeffs[i] by Horner's rule; X broadcasts against coeffs[i]."""
    out = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        out *= X
        out += c
    return out


def at_nodes(c: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The y-polynomials c[..., i, :] of (..., nx_pow, ny_pow) coefficients at
    the node heights Y, x-power i first: (nx_pow, ..., *Y.shape), an X-power series."""
    return np.moveaxis(npoly.polyval(Y, np.moveaxis(c, -1, 0)), c.ndim - 2, 0)


class RegularityWorkspace:
    """Heterogeneous basis sampled on an evaluation grid for window fits.

    columns are the basis elements with nonzero velocity, in basis order;
    every other index into the workspace is a position in columns.  Each
    column's velocity, gradient and pressure at x + s is a polynomial in the
    shifted abscissa X = x + s whose coefficients are periodic arrays over
    the grid: the x-powers of the flat-space pair and of the corrector
    terms, times samples that repeat in every period.  The coefficient
    arrays of all columns are built together on first use and every period
    is then one Horner evaluation.

    The graded bases nest, so one workspace serves every order m <= order:
    degrees[j] is column j's velocity degree, prefixes[m] = (n_m, D_m), and
    an order-m fit reads the first n_m columns and the X-powers up to D_m,
    which equal an order-m workspace's arrays.
    """

    def __init__(self, stack: CorrectorStack, order: int, grid: StripGrid):
        self.order = order
        self.grid = grid
        self.columns = [el for el in heterogeneous_basis(stack, order) if not el.P.is_zero()]
        self._samplers: dict = {}
        for el in self.columns:
            for _, _, level in el.corrector.terms:
                key = (level.beta, level.l, level.comp)
                if key not in self._samplers:
                    self._samplers[key] = LevelSampler(level, stack, grid)
        # dense coefficients (2, x, y) of P and (x, y) of Q, per column
        self._coeffs = [(poly_to_coeff2d(el.P), poly_to_coeff2d(el.Q)) for el in self.columns]
        # order-m columns: velocity degree <= m; D_m: their highest X-power
        self.degrees = [int(el.P.degree) for el in self.columns]
        x_degrees = [max([pc.shape[1] - 1, qc.shape[0] - 1]
                         + [power for _, power, _ in el.corrector.terms])
                     for el, (pc, qc) in zip(self.columns, self._coeffs)]
        n = [sum(deg <= m for deg in self.degrees) for m in range(order + 1)]
        self.prefixes = {m: (n[m], max(x_degrees[:n[m]])) for m in range(1, order + 1)}

    def _flat_terms(self, el: HeterogeneousElement):
        for c, p, level in el.corrector.terms:
            yield c, p, self._samplers[(level.beta, level.l, level.comp)]

    def _x_series(self, rows=slice(None)) -> dict:
        """X-power coefficient arrays of every column on the grid rows `rows`.

        Returns {"velocity": (D+1, ncols, 2, nx, nrows), "grad": (D+1, ncols,
        4, nx, nrows), "pressure": (D+1, ncols, nx, nrows)}, entry i the
        coefficient of X**i.  The flat-space pair contributes its
        y-polynomials at the nodes, a corrector term coef * X**power * V its
        samples at i = power.  The x-derivative at fixed y is (i+1) times the
        next velocity coefficient plus the samples' own x-derivative.
        """
        Y = self.grid.y_nodes[:, rows]
        D = self.prefixes[self.order][1]
        ncols = len(self.columns)
        vel = np.zeros((D + 1, ncols, 2) + Y.shape)
        grad = np.zeros((D + 1, ncols, 4) + Y.shape)
        pres = np.zeros((D + 1, ncols) + Y.shape)
        dx, dy = grad[:, :, 0::2], grad[:, :, 1::2]  # views, one entry per component
        for j, (el, (pc, qc)) in enumerate(zip(self.columns, self._coeffs)):
            dyc = coeff_derivative(pc, 0, 1)
            vel[:pc.shape[1], j] = at_nodes(pc, Y)
            dy[:dyc.shape[1], j] = at_nodes(dyc, Y)
            pres[:qc.shape[0], j] = at_nodes(qc, Y)
            for coef, power, smp in self._flat_terms(el):
                vel[power, j] += coef * smp.values[..., rows]
                dx[power, j] += coef * smp.dx[..., rows]
                dy[power, j] += coef * smp.dy[..., rows]
                pres[power, j] += coef * smp.pressure[..., rows]
        dx[:-1] += np.arange(1, D + 1)[:, None, None, None, None] * vel[1:]
        return {"velocity": vel, "grad": grad, "pressure": pres}

    @cached_property
    def series(self) -> dict:
        """The X-power coefficient arrays (_x_series), built on first use."""
        return self._x_series()

    @cached_property
    def top_velocity(self) -> np.ndarray:
        """(ncols, 2, nx) column velocities on the top row at X = x.

        Read from series built for that row only: the lift traces are taken
        while the solves' factors are still alive, and the full coefficient
        arrays wait until they are gone.
        """
        return horner(self._x_series(np.s_[-1:])["velocity"], self.grid.x[:, None])[..., -1]

    def window_pieces(self, r: float):
        """(X, nodes, quadrature weights) of each period k the window B_{r,+} meets.

        X = x + 2 pi k is the period's shifted abscissa, an (nx, 1) column at
        which every X-power series is read; nodes are the flat (row-major)
        indices of the grid nodes with |X| <= r and y <= r.
        """
        g = self.grid
        wq = g.node_quad_weights()
        n = int(np.ceil((r + np.pi) / (2 * np.pi)))
        for k in range(-n, n + 1):
            X = g.x[:, None] + 2 * np.pi * k
            nodes = np.flatnonzero((np.abs(X) <= r) & (g.y_nodes <= r))
            if nodes.size:
                yield X, nodes, np.take(wq, nodes)

    @staticmethod
    def _rows(grad: np.ndarray, nodes: np.ndarray, sw: np.ndarray) -> np.ndarray:
        """Quadrature-weighted least-squares rows of (n, 4, nx, ny+1) gradient samples.

        Rows run sample-major, component-minor; the leading axis (one entry
        per basis column or target) becomes the columns of the result.
        """
        flat = grad.reshape(grad.shape[:-2] + (-1,))
        return (np.take(flat, nodes, axis=-1) * sw).T.reshape((-1,) + grad.shape[:-3])

    def excess(self, targets, r: float, order: int) -> list[dict]:
        """Least-squares distance of each grad u from the order-m span over B_{r,+}.

        Each target is the X-power series (P+1, 4, nx, ny+1) of a gradient,
        all of one length, such as an outer solution's series["grad"].
        Returns one dict per target, all from the same pass over the window:
        the normalized excess H and the minimizer coefficients (one per
        order-m column, the first n_m of columns).  grad_norms gives the
        windowed gradient norms of u.

        Each period's basis rows are built once and streamed, unscaled,
        through one QR with every target as an extra column, accumulating the
        window weight on the way: each radius reads its window once, the
        order-m basis prefix and the stacked targets each by one horner per
        period.  The basis columns' windowed norms are the column norms of
        R11 = R[:n_m, :n_m] (R^T R = A^T A), and the triangular solve runs on
        R11 scaled by them.  Target t's residual is the 2-norm of rows ncols..ncols+t of
        R's column ncols+t; for the first (or only) target that is the single
        diagonal entry, whose 2-norm is its absolute value bit for bit, so
        a one-target call does the arithmetic of the one-target stream.
        """
        ncols, D = self.prefixes[order]
        basis = self.series["grad"][:D + 1, :ncols]
        stacked = np.stack(targets, axis=1)
        total_w = 0.0
        R = np.zeros((0, ncols + len(targets)))
        for X, nodes, w in self.window_pieces(r):
            sw = np.sqrt(w)
            total_w += float(np.sum(w))
            block = np.column_stack([self._rows(horner(basis, X), nodes, sw),
                                     self._rows(horner(stacked, X), nodes, sw)])
            R = np.linalg.qr(np.vstack([R, block]), mode="r")
        R11 = R[:ncols, :ncols]
        norms = np.sqrt(np.maximum(np.sum(R11 ** 2, axis=0), 1e-300))
        R11 = R11 / norms
        diag = np.abs(np.diag(R11))
        rank_ok = bool(diag.min() > 1e-13 * diag.max())
        results = []
        for t in range(len(targets)):
            rb = R[:ncols, ncols + t]
            below = R[ncols:ncols + t + 1, ncols + t]
            rho = float(np.linalg.norm(below))
            coef_scaled = np.linalg.solve(R11, rb) if rank_ok \
                else np.linalg.lstsq(R11, rb, rcond=None)[0]
            results.append({"H": rho / np.sqrt(total_w), "coefficients": coef_scaled / norms})
        return results

    def grad_norms(self, targets, r: float) -> np.ndarray:
        """Windowed gradient norms of the target series over B_{r,+}, one per
        target: sqrt of the weighted sum of squares of grad u over the window
        weight, the scale that excess's H is read against."""
        stacked = np.stack(targets, axis=1)
        total_w = 0.0
        unorm2 = np.zeros(len(targets))
        for X, nodes, w in self.window_pieces(r):
            rows = self._rows(horner(stacked, X), nodes, np.sqrt(w))
            unorm2 += [float(np.sum(col ** 2)) for col in rows.T]
            total_w += float(np.sum(w))
        return np.sqrt(unorm2 / total_w)


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

def fit_exponent(radii, values, drop: int, floor: float = 0.0) -> dict:
    """Log-log slope of values vs radii, dropping the smallest `drop` radii.

    Values at or below `floor` mark the field as in-space: the exponent is
    +inf (the power bound holds trivially).
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = slice(drop, None)
    r, v = radii[keep], values[keep]
    if np.all(v <= max(floor, 0.0)):
        return {"exponent": float("inf"), "floored": True}
    v = np.maximum(v, 1e-300)
    coef = np.polyfit(np.log(r), np.log(v), 1)
    return {"exponent": float(coef[0]), "floored": False}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

#: The outer data of the regularity experiments, in report order.
KINDS = ("shear", "quadratic", "random")


def outer_data(kind: str, grid: StripGrid, seed: int) -> np.ndarray:
    """Canonical outer Dirichlet traces at the strip top (net-flux free)."""
    x = grid.x
    Y = grid.height
    if kind == "shear":
        return np.stack([np.full_like(x, Y), np.zeros_like(x)])
    if kind == "quadratic":
        return np.stack([np.full_like(x, Y + Y ** 2), np.zeros_like(x)])
    if kind == "random":
        rng = np.random.default_rng(seed)
        u1 = np.full_like(x, Y)
        u2 = np.zeros_like(x)
        for k in range(1, 5):
            a, b = rng.standard_normal(2) * Y / k
            u1 = u1 + a * np.cos(k * x) + b * np.sin(k * x)
            c, d = rng.standard_normal(2) * Y / (2 * k)
            u2 = u2 + c * np.cos(k * x) + d * np.sin(k * x)
        return np.stack([u1, u2])
    raise ValueError(f"unknown outer data kind {kind!r}")


def lift_coefficients(ws: RegularityWorkspace, kind: str, seed: int) -> np.ndarray:
    """Heterogeneous-lift coefficients matching the outer data's content.

    A periodic solve cannot host super-linear large-scale content (pressures
    or velocities growing in x are not periodic), so the boundary-value
    problem on the tall strip is realized as lift-plus-periodic-remainder.
    The lift carries the data's polynomial content; shear data is pure first
    order, quadratic data adds a genuine second-order load, and random data
    loads every order of the lift space.

    The combination is projected onto zero net vertical flux through the top:
    the periodic remainder box cannot balance a net throughput (that flux
    leaves through the sides of the true domain), and an unbalanced lift
    would force a spurious uniform mass source.
    """
    R = ws.grid.height
    coeffs = np.zeros(len(ws.columns))
    if kind == "shear":
        coeffs[ws.degrees.index(1)] = 1.0
    elif kind == "quadratic":
        coeffs[ws.degrees.index(1)] = 1.0
        coeffs[ws.degrees.index(2)] = 2.0
    elif kind == "random":
        rng = np.random.default_rng(seed)
        for j, deg in enumerate(ws.degrees):
            draw = rng.standard_normal()
            draw = np.sign(draw) * max(abs(draw), 0.4)
            coeffs[j] = draw * R * (R / 4.0) ** (1 - deg)
    else:
        raise ValueError(f"unknown outer data kind {kind!r}")
    fluxes = np.array([float(np.mean(v[1])) for v in ws.top_velocity])
    net = float(coeffs @ fluxes)
    if abs(net) > 1e-12 * max(1.0, np.abs(coeffs).max()):
        pivot = int(np.argmax(np.abs(fluxes)))
        coeffs[pivot] -= net / fluxes[pivot]
    return coeffs


@dataclass
class OuterSolution:
    """Stokes solution on the tall strip: heterogeneous lift + periodic rest.

    u = sum_j c_j w*_j + v_per solves the homogeneous system in the strip,
    vanishes on the wall (to stack tolerance) and matches the prescribed
    outer trace at the top exactly.

    Like the lift workspace's columns, each field is a polynomial in the
    shifted abscissa X = x + s: its coefficient arrays are the lift
    columns' arrays combined with the lift coefficients, with the periodic
    remainder added to the X**0 term.  They are built on first use.
    """

    lift_ws: RegularityWorkspace
    lift: np.ndarray
    remainder: CellSolution

    @property
    def grid(self) -> StripGrid:
        return self.remainder.grid

    @cached_property
    def series(self) -> dict:
        """X-power coefficient arrays of "grad", "velocity" and "pressure"."""
        g, u = self.grid, self.remainder.u
        periodic = {"grad": np.stack([g.dx_nodes(u[0]), g.dy_nodes(u[0]),
                                      g.dx_nodes(u[1]), g.dy_nodes(u[1])]),
                    "velocity": u, "pressure": g.pressure_at_nodes(self.remainder.p)}
        out = {}
        for name, rest in periodic.items():
            out[name] = np.tensordot(self.lift, self.lift_ws.series[name], axes=([0], [1]))
            out[name][0] += rest
        return out


def build_outer_solution(lift_ws: RegularityWorkspace, kind: str,
                         seed: int) -> OuterSolution:
    """Solve the outer-data problem on the lift workspace's tall grid."""
    grid = lift_ws.grid
    target = outer_data(kind, grid, seed=seed)
    coeffs = lift_coefficients(lift_ws, kind, seed=seed)
    lift = padded_sum(zip(coeffs, lift_ws.top_velocity), (2, grid.nx))  # top row
    problem = CellProblem(
        grid=grid,
        bottom=np.zeros((2, grid.nx)),
        top=DirichletTop(target - lift),
    )
    remainder = solve_stokes(problem)
    return OuterSolution(lift_ws=lift_ws, lift=coeffs, remainder=remainder)


def dyadic_radii(r0: float, rmax: float) -> list[float]:
    out = [r0]
    while out[-1] * 2 <= rmax + 1e-9:
        out.append(out[-1] * 2)
    return out


#: Smallest decay window, and the in-space floor relative to ||grad u||_R.
DECAY_R0, FLOOR_REL = np.pi / 2, 1e-3
#: The window radius of the projected fits that pointwise_check reads.
FIT_RADIUS = 4 * np.pi


def check_strip_height(R: float) -> None:
    """Raise InputError unless the strip height R is at least 64 DECAY_R0 = 32 pi,
    so that the dyadic radii DECAY_R0..R/4 span a factor 16."""
    if R < 64 * DECAY_R0:
        raise InputError("insufficient scale separation: need R >= 32 pi so the "
                         "dyadic windows pi/2..R/4 span a factor 16")


def _check_nodes(workspace: RegularityWorkspace, solution: OuterSolution) -> None:
    """Raise ValueError unless the solution lies on the workspace grid's nodes:
    a window reads the solution's and the workspace's arrays at one set of
    node indices."""
    if not np.array_equal(solution.grid.y_nodes, workspace.grid.y_nodes):
        raise ValueError("the solution's grid does not have the workspace grid's nodes")


def decay_experiments(workspace: RegularityWorkspace, solutions: list[OuterSolution],
                      order: int) -> list[dict]:
    """Excess decay of genuine solves against the order-m basis over DECAY_R0..R/4.

    The solves lie on the workspace grid's nodes, of strip height R, and
    every radius is one excess pass with each solve as a target.  Returns
    per solve a dict of the radii, H at each, the fitted exponent, whether
    it floored, the windowed gradient norm and the pressure residuals.  A solve whose every H sits
    below FLOOR_REL * ||grad u||_R is classified as in-space (the decay
    bound holds with a negligible constant): its exponent is +inf.
    """
    for solution in solutions:
        _check_nodes(workspace, solution)
    R = workspace.grid.height
    check_strip_height(R)
    radii = dyadic_radii(DECAY_R0, R / 4)
    u_grads = [solution.series["grad"] for solution in solutions]
    per_radius = [workspace.excess(u_grads, r, order) for r in radii]
    grad_norms = workspace.grad_norms(u_grads, min(R / 2, radii[-1] * 2))
    reports = []
    for t, solution in enumerate(solutions):
        H = [res[t]["H"] for res in per_radius]
        fit = fit_exponent(radii, H, drop=2, floor=FLOOR_REL * grad_norms[t])
        reports.append({
            "radii": radii, "H": H,
            "fitted_exponent": fit["exponent"], "floored": fit["floored"],
            "grad_norm": grad_norms[t],
            "pressure_residuals": pressure_decay(
                workspace, solution, per_radius[-1][t]["coefficients"], radii, order),
        })
    return reports


def pressure_decay(workspace: RegularityWorkspace, solution: OuterSolution,
                   coefficients: np.ndarray, radii: list[float], order: int) -> list[float]:
    """Windowed pressure residuals ||p - pi - c_p|| with c_p the B_1 mean.

    pi is the pressure of the fitted order-m combination; the constant is the mean of
    p - pi over the unit window, mirroring the fixed-constant normalization
    of the regularity estimate.  Reported alongside the velocity excess.
    p - pi is one X-power series, read by one horner per period.
    """
    n, D = workspace.prefixes[order]
    fitted = np.tensordot(coefficients, workspace.series["pressure"][:D + 1, :n], axes=([0], [1]))
    series = padded_sum([(1.0, solution.series["pressure"]), (-1.0, fitted)])

    (X, nodes, w), = workspace.window_pieces(1.0)  # B_1 meets one period
    residual = horner(series, X)
    c_p = float(np.sum(w * np.take(residual, nodes)) / np.sum(w))
    values = []
    for r in radii:
        total, weight = 0.0, 0.0
        for X, nodes, w in workspace.window_pieces(r):
            residual = horner(series, X)
            total += float(np.sum(w * (np.take(residual, nodes) - c_p) ** 2))
            weight += float(np.sum(w))
        values.append(float(np.sqrt(total / weight)))
    return values


def projected_fits(workspace: RegularityWorkspace, targets, order: int,
                   fit_order: int) -> list[np.ndarray]:
    """Order-m coefficients via an order-`fit_order` fit over B_{FIT_RADIUS,+},
    projected into S_m.

    Fitting at a higher order gives the top-degree content its own columns
    instead of letting it bias the low-order coefficients; dropping those
    columns afterwards gives a fixed approximant free of that bias.  The
    order-m columns lead the higher order's, so the projection is a
    truncation.  All target gradient series are fitted in one excess pass.
    """
    n = workspace.prefixes[order][0]
    return [res["coefficients"][:n] for res in workspace.excess(targets, FIT_RADIUS, fit_order)]


def nnls_2col(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |A c - b| over c >= 0 for a two-column A, in closed form.

    The unconstrained least-squares solution is optimal when both entries
    are >= 0.  Otherwise the constrained optimum has a zero entry, so it is
    the better of the two one-column fits, each clipped at zero.
    """
    c = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.all(c >= 0):
        return c
    fits = []
    for j in range(2):
        fit = np.zeros(2)
        fit[j] = max(0.0, float(A[:, j] @ b) / float(A[:, j] @ A[:, j]))
        fits.append(fit)
    return min(fits, key=lambda fit: float(np.linalg.norm(A @ fit - b)))


#: Lowest sample height and constant inflation of the pointwise envelope.
ENVELOPE_Y_MIN, ENVELOPE_FACTOR = 4.0, 3.0


def pointwise_check(workspace: RegularityWorkspace, solution: OuterSolution,
                    coefficients: np.ndarray, order: int) -> dict:
    """Pointwise |grad u - grad w_poly| of an order-m fit against the two-term envelope.

    The envelope shapes are (|(x,y)|/R)^m and (1+|x|)^{m-1} e^{-y/2}; their
    constants are fitted by nonnegative least squares and inflated by
    ENVELOPE_FACTOR.  Reports the fraction of samples dominated plus the
    crossover shape fact (e^{-y/2} <= (r/R)^m once y >= 2 m ln R).  Samples
    cover {ENVELOPE_Y_MIN <= y <= R/2, |x| <= R/2}.
    """
    _check_nodes(workspace, solution)
    g = solution.grid
    R = g.height
    # u - w_poly of the fitted combination as one X-power series: the gradient's
    # four components, then the velocity's two
    wpoly = padded_sum((c_val, el.w_poly_xy) for c_val, el in zip(coefficients, workspace.columns))
    parts = [coeff_derivative(wpoly[c], bx, by) for c in range(2) for bx, by in ((1, 0), (0, 1))]
    w = np.stack([padded_sum([(1.0, part)], wpoly.shape[1:]) for part in parts + list(wpoly)])
    u = np.concatenate([solution.series["grad"], solution.series["velocity"]], axis=1)
    series = padded_sum([(1.0, u), (-1.0, at_nodes(w, g.y_nodes))])

    pieces = []
    for X, nodes, _ in workspace.window_pieces(R / 2):
        nodes = nodes[np.take(g.y_nodes, nodes) >= ENVELOPE_Y_MIN]
        pieces.append((X[nodes // (g.ny + 1), 0], np.take(g.y_nodes, nodes),
                       np.take(horner(series, X).reshape(6, -1), nodes, axis=1)))
    X, Y, diff = (np.concatenate(part, axis=-1) for part in zip(*pieces))
    err, err_val = np.linalg.norm(diff[:4], axis=0), np.linalg.norm(diff[4:], axis=0)

    rr = np.hypot(X, Y)
    term_power = (rr / R) ** order
    term_exp = (1.0 + np.abs(X)) ** (order - 1) * np.exp(-Y / 2.0)
    A = np.column_stack([term_power, term_exp])
    # scale-free fit: weight rows by the envelope shape so near-wall samples
    # count as much as the bulk, then inflate by the fixed factor
    wrow = 1.0 / (term_power + term_exp)
    C = nnls_2col(A * wrow[:, None], err * wrow)
    envelope = ENVELOPE_FACTOR * (A @ C)
    dominated = float(np.mean(err <= envelope + 1e-300))

    cross = (Y >= 2 * order * np.log(R)) & (rr >= 1)
    crossover_ok = bool(np.all(term_exp[cross] <=
                               (rr[cross] / R) ** order
                               * (1 + np.abs(X[cross])) ** (order - 1)))
    return {
        "fraction_dominated": dominated,
        "constants": [float(C[0]), float(C[1])],
        "factor": ENVELOPE_FACTOR,
        "n_samples": int(err.size),
        "max_error": float(err.max()),
        "max_value_error": float(err_val.max()),
        "crossover_ok": crossover_ok,
    }
