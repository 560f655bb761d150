"""Command-line pipeline: basis, cell, corrector, wall-law, regularity, verify.

Artifacts are JSON (structured results) and CSV (grids and tables of plain
numbers).  Commands return them as text; `main` alone places them (the JSON
at --out, the CSV and the manifest beside it), writes each atomically and
lists them in the manifest, which records the input hash, package versions,
wall clock and thread settings.  Identical configuration produces
byte-identical result artifacts (the manifest carries the volatile runtime
metadata).

Exit codes: 0 success, 2 invalid configuration, 3 solver failure, 4 failed
verification.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from .geometry import InputError, SolverError

EXIT_BAD_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


#: BLAS/OpenMP thread settings when this module was imported.  numpy is
#: loaded by then, so these are the settings in effect for the whole run.
THREADS_IN_EFFECT = {
    var: os.environ.get(var, "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


class VerificationFailed(Exception):
    """Acceptance checks failed."""


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

def write_atomic(path: str, text: str) -> str:
    """Write text to a unique temp file beside path, then move it into place.

    Concurrent writers never share a temp file, so each write lands whole;
    the temp file is removed if writing or moving it fails.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file private; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def csv_text(header: str, rows) -> str:
    """A header and rows as CSV text; a cell that is no str or int is
    written as repr(float(v)), a number that round-trips."""
    lines = [header] + [",".join(str(v) if isinstance(v, (str, int)) else repr(float(v))
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def load_json(path: str):
    """The JSON document at path; InputError if it is missing, unreadable or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"cannot read {path} as JSON: {exc}") from exc


def write_manifest(path: str, config: dict, artifacts: dict[str, str], started: float) -> str:
    """Write to path the manifest of a run; artifacts maps each path it wrote to the text."""
    import scipy

    from . import __version__

    manifest = {
        "config": config,
        "inputs_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "artifacts": {os.path.basename(p): hashlib.sha256(text.encode()).hexdigest()
                      for p, text in artifacts.items()},
        "versions": {
            "stokesbl": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_clock_s": time.time() - started,
        "threads": THREADS_IN_EFFECT,
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    return write_atomic(path, dump_json(manifest))


def load_geometry(path: str):
    from .geometry import BoundaryGeometry

    return BoundaryGeometry.from_json_dict(load_json(path))


# ---------------------------------------------------------------------------
# subcommands: each returns its summary line, its JSON text and, if it has one,
# its CSV text; it writes nothing
# ---------------------------------------------------------------------------

def cmd_basis(args) -> tuple[str, ...]:
    from .halfspace import stokes_basis

    if args.dim < 2:
        raise InputError("--dim must be >= 2")
    if args.order < 1:
        raise InputError("--order must be >= 1")
    basis = stokes_basis(args.order, args.dim)
    payload = {
        "dim": args.dim,
        "order": args.order,
        "count": len(basis),
        "elements": [
            {
                "tag": tag,
                "grade": grade,
                "velocity": pair.velocity.to_json_dict(),
                "pressure": pair.pressure.to_json_dict(),
            }
            for pair, tag, grade in zip(basis.elements, basis.tags, basis.grades)
        ],
    }
    return f"basis: {len(basis)} elements", dump_json(payload)


def cmd_cell(args) -> tuple[str, ...]:
    from .cell import solve_cell

    geometry = load_geometry(args.geometry)
    sol = solve_cell(geometry, l=args.l, comp=args.i,
                     height=args.height, nx=args.nx, ny=args.ny)
    grid = sol.grid
    p_nodes = grid.pressure_at_nodes(sol.p)
    # wall-clock stays out of the result payload so artifacts are
    # byte-reproducible; the manifest records it
    payload = {
        "tail": [float(v) for v in sol.tail],
        "trace_modes": {
            str(k): [[float(v.real), float(v.imag)] for v in sol.trace_modes[k]]
            for k in sorted(sol.trace_modes)
        },
        "residuals": sol.diagnostics,
        "resolution": [grid.nx, grid.ny],
        "geometry_hash": geometry.digest(),
    }
    return (f"cell: tail = ({sol.tail[0]:.6g}, {sol.tail[1]:.6g})", dump_json(payload),
            csv_text("x,y,u1,u2,p", (
                (grid.x[i], grid.y_nodes[i, j], sol.u[0][i, j], sol.u[1][i, j], p_nodes[i, j])
                for i in range(grid.nx) for j in range(grid.ny + 1))))


def cmd_corrector(args) -> tuple[str, ...]:
    from .recursion import CorrectorStack, stack_from_json, stack_to_json

    geometry = load_geometry(args.geometry)
    if os.path.exists(args.out):
        # extend an existing stack so successive runs share one artifact
        stack = stack_from_json(load_json(args.out))
        if stack.geometry != geometry:
            raise InputError("existing stack was built for another geometry")
        if (stack.grid.nx, stack.grid.ny) != (args.nx, args.ny) \
                or stack.height != args.height:
            raise InputError("existing stack has a different resolution")
    else:
        stack = CorrectorStack(geometry, height=args.height, nx=args.nx, ny=args.ny)
    # the library checks (alpha, --l, --i): a rejected run writes nothing;
    # the stack solves any missing level below alpha first
    tail = stack.level(args.alpha, args.l, args.i).const
    stack.grid.factors.clear()  # every level is solved: free the LU before the JSON text
    return (f"corrector: {len(stack.levels)} levels, top tail = ({tail[0]:.6g}, {tail[1]:.6g})",
            dump_json(stack_to_json(stack)))


def cmd_wall_law(args) -> tuple[str, ...]:
    from .recursion import stack_from_json
    from .walllaw import phi_table

    if args.order < 1:
        raise InputError("--order must be >= 1")
    stack = stack_from_json(load_json(args.stack))
    stored = set(stack.levels)
    table = phi_table(stack, args.order)
    solved = sorted(set(stack.levels) - stored)
    stack.grid.factors.clear()  # phi_table may have solved levels: free the LU
    return (f"wall-law: levels solved in-process: {len(solved)}, (beta, l, comp) = {solved}\n"
            f"wall-law: slip length = {table.slip_length:.6g}", dump_json(table.to_json_dict()),
            csv_text("order,alpha,l,row,col,x_power,value", (
                (alpha + l, alpha, l, r + 1, c + 1, p, v)
                for (alpha, l), mat in sorted(table.phi.items())
                for r in range(2) for c in range(2) for p, v in enumerate(mat[r, c]))))


def cmd_regularity(args) -> tuple[str, ...]:
    from .cell import StripGrid
    from .recursion import CorrectorStack
    from .regularity import (
        KINDS,
        RegularityWorkspace,
        build_outer_solution,
        check_strip_height,
        decay_experiments,
        pointwise_check,
        projected_fits,
    )

    geometry = load_geometry(args.geometry)
    if args.order < 1:
        raise InputError("--order must be >= 1")
    check_strip_height(args.R)
    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    stack = CorrectorStack(geometry, nx=args.nx, ny=args.stack_ny)
    grid = StripGrid(geometry, height=args.R, nx=args.nx, ny=args.ny,
                     stretch=args.stretch)
    # phase 1, every solve: the workspace, at the lift's order, solves the stack
    # levels it samples, and each outer datum is one tall-strip solve
    ws = RegularityWorkspace(stack, max(args.order + 1, 3), grid)
    solutions = [build_outer_solution(ws, kind, seed=args.seed) for kind in KINDS]
    # phase 2 only samples the solutions, so the factors can go before it;
    # the workspace builds its coefficient arrays only now, and each window
    # pass fits all three data at once on the order-m leading columns
    stack.grid.factors.clear()
    grid.factors.clear()
    reports = decay_experiments(ws, solutions, args.order)
    fits = projected_fits(ws, [s.series["grad"] for s in solutions], args.order, ws.order)
    results = {}
    for kind, solution, rep, coeffs in zip(KINDS, solutions, reports, fits):
        results[kind] = dict(rep, pointwise=pointwise_check(ws, solution, coeffs, args.order))
    payload = {
        "order": args.order,
        "R": args.R,
        "seed": args.seed,
        "geometry_hash": geometry.digest(),
        "data": results,
    }
    summary = "\n".join(f"regularity[{kind}]: exponent = {res['fitted_exponent']}"
                        f"{' (in-space)' if res['floored'] else ''}"
                        for kind, res in results.items())
    return summary, dump_json(payload), csv_text("data,r,H,fitted_exponent", (
        (kind, r, h, res["fitted_exponent"])
        for kind, res in results.items() for r, h in zip(res["radii"], res["H"])))


def cmd_verify(args) -> None:
    from . import verify

    failed = verify.run(args.suite)
    if failed:
        raise VerificationFailed(f"{failed} verification check(s) failed")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    from .cell import DEFAULT_HEIGHT, DEFAULT_NX, DEFAULT_NY

    # no parser accepts an abbreviated option: `cell --out` must not match
    # some other option that starts with it
    parser = argparse.ArgumentParser(
        prog="stokesbl",
        description="Boundary-layer correctors, wall laws and regularity "
                    "diagnostics for Stokes flow over rough periodic walls.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    def cell_grid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--height", type=float, default=DEFAULT_HEIGHT)
        p.add_argument("--nx", type=int, default=DEFAULT_NX)
        p.add_argument("--ny", type=int, default=DEFAULT_NY)

    p = command("basis", cmd_basis, "exact Stokes polynomial basis")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", default="basis.json")

    p = command("cell", cmd_cell, "solve one cell corrector problem")
    p.add_argument("--geometry", required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--i", type=int, default=1)
    cell_grid(p)
    p.add_argument("--out", default="cell.json", help="the CSV and manifest go beside it")

    p = command("corrector", cmd_corrector, "build the corrector stack")
    p.add_argument("--geometry", required=True)
    p.add_argument("--alpha", type=int, default=0, help="horizontal degree")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--i", type=int, default=1)
    cell_grid(p)
    p.add_argument("--out", default="stack.json")

    p = command("wall-law", cmd_wall_law, "wall-law coefficient table from a stack")
    p.add_argument("--stack", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--out", default="walllaw.json")

    p = command("regularity", cmd_regularity, "excess decay and pointwise checks")
    p.add_argument("--geometry", required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--R", type=float, default=64 * np.pi)
    p.add_argument("--nx", type=int, default=24)
    p.add_argument("--ny", type=int, default=320)
    p.add_argument("--stack-ny", type=int, default=32)
    p.add_argument("--stretch", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.json")

    p = command("verify", cmd_verify, "run the acceptance criteria")
    p.add_argument("--suite", choices=("symbolic", "numeric", "all"), default="all")
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.  The artifacts, then the
    manifest, are written before the summary is printed, so a stdout that
    cannot be written raises its own OSError, not exit 2."""
    started = time.time()
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    try:
        result = args.func(args)
        if result is None:  # verify prints its checks and writes nothing
            return 0
        summary, *texts = result
        base = os.path.splitext(args.out)[0]
        # the JSON goes to --out; the CSV and the manifest go beside it
        artifacts = dict(zip((args.out, base + ".csv"), texts))
        manifest = base + ".manifest.json"
        if len(artifacts) < len(texts):
            raise InputError(f"--out {args.out} would write the JSON and the CSV to one path")
        # a directory or an input file in the way fails before any write
        inputs = {opt: getattr(args, opt) for opt in ("geometry", "stack") if hasattr(args, opt)}
        for path in [*artifacts, manifest]:
            if os.path.isdir(path):
                raise InputError(f"cannot write {path}: it is a directory")
            for opt, src in inputs.items():
                if os.path.exists(path) and os.path.exists(src) and os.path.samefile(path, src):
                    raise InputError(f"cannot write {path}: it is the --{opt} input")
        try:
            for path, text in artifacts.items():
                write_atomic(path, text)
            path = manifest
            write_manifest(path, config, artifacts, started)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
        print(f"{summary} -> {', '.join(artifacts)}")
    except InputError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VerificationFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_VERIFY
    return 0


if __name__ == "__main__":
    sys.exit(main())
