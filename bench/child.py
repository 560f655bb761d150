"""One benchmark child process.  Run by bench/run.py, never by hand.

    child.py probe                                   import stokesbl, print "ready"
                                                     and the versions
    child.py cli --report R [--trace] -- ARGS...     stokesbl.cli.main(ARGS)
    child.py trust --report R --inputs I [--trace]   the trust-suite operations
    child.py walllaw-check --report R --stack S --table T

Every mode but `probe` writes a JSON report to R before it exits: exit code,
peak RSS, the import and work timestamps (CLOCK_MONOTONIC, shared by all
processes of the machine), the OS thread count after import and, when
traced, the spans.  The parent puts stokesbl's `src` directory on
PYTHONPATH and pins the BLAS/OpenMP thread counts in the environment before
this interpreter starts.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

T_START = time.monotonic()


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _install(tracer) -> None:
    if tracer is not None:
        import tracing

        index = tracer.begin("trace.install")
        tracing.install(tracer)
        tracer.end(index)


def _run_cli(argv, tracer, report) -> int:
    import stokesbl.cli as cli

    report["t_imported"] = time.monotonic()
    report["threads"] = _os_threads()
    _install(tracer)
    args = argv[argv.index("--") + 1:]
    report["t_work"] = time.monotonic()
    try:
        return int(cli.main(args))
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2


def _run_trust(argv, tracer, report) -> int:
    import stokesbl  # noqa: F401  (import cost stays out of the timed interval)
    import trust

    report["t_imported"] = time.monotonic()
    report["threads"] = _os_threads()
    _install(tracer)
    with open(_option(argv, "--inputs")) as fh:
        inputs = json.load(fh)

    @contextlib.contextmanager
    def span(name):
        index = tracer.begin(name) if tracer is not None else None
        try:
            yield
        finally:
            if index is not None:
                tracer.end(index)

    cpu0 = _cpu()
    report["t_work"] = time.monotonic()
    ops, summary = trust.run(inputs, span)
    report["t_done"] = time.monotonic()
    report["cpu_s"] = _cpu() - cpu0
    report["ops"] = ops
    report["summary"] = summary
    return 0


def _run_walllaw_check(argv, tracer, report) -> int:
    """Wall-law identity residuals of the CLI's table over the stack's basis."""
    import numpy as np

    from stokesbl.recursion import heterogeneous_basis, stack_from_json
    from stokesbl.walllaw import WallLawTable, wall_law_identity_residual

    with open(_option(argv, "--stack")) as fh:
        stack = stack_from_json(json.load(fh))
    with open(_option(argv, "--table")) as fh:
        data = json.load(fh)
    table = WallLawTable(
        order=data["order"],
        phi={(e["alpha"], e["l"]): np.array(e["matrix"]) for e in data["phi"]},
        tails={int(c): np.array(t) for c, t in data["tails"].items()},
        slip_length=data["slip_length"],
    )
    levels = len(stack.levels)
    elements = heterogeneous_basis(stack, data["order"])
    report["identity_residuals"] = [wall_law_identity_residual(table, el) for el in elements]
    report["levels"] = levels
    report["levels_solved_by_check"] = len(stack.levels) - levels
    return 0


MODES = {"cli": _run_cli, "trust": _run_trust, "walllaw-check": _run_walllaw_check}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        import numpy
        import scipy

        import stokesbl  # noqa: F401
        print("ready", flush=True)
        print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "env": dict(os.environ)}))
        return 0
    report: dict = {"t_start": T_START}
    tracer = None
    if "--trace" in argv[: argv.index("--") if "--" in argv else len(argv)]:
        import tracing
        tracer = tracing.Tracer()
    try:
        rc = MODES[mode](argv[1:], tracer, report)
    except Exception:
        traceback.print_exc()
        rc = 1
    report["t_end"] = time.monotonic()
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.report()
    with open(_option(argv, "--report"), "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
