"""stokesbl benchmark: three pipeline workloads, end-to-end and per-layer numbers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; stokesbl is imported from ./src.  The
workloads (see bench/README.md for why each exists):

  regularity-tall  `stokesbl regularity` at its defaults on a seeded wall
  walllaw-stack    8 `stokesbl corrector` runs extending one stack file,
                   then `stokesbl wall-law --order 4`, one process each
  trust-suite      bases, exact mode oracles, the delta_D_inv contract and
                   slip-length ladders through the public API, one process

One iteration runs the whole workload; iterations repeat until S seconds
have passed, at least twice unless that would take the run past 2.75 S, and
each metric is the median over iterations.  Child processes
run one at a time with BLAS/OpenMP pinned to one thread.  Every iteration's
outputs are checked (bench/checks.py).  With --trace 0 the last line of
stdout is a JSON object carrying the end-to-end metrics; with --trace 1 one
untraced and one traced iteration run and it carries the per-layer metrics
(bench/tracing.py).  A record of each run, with the environment, goes to
.bench_results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

WORKLOADS = ("regularity-tall", "walllaw-stack", "trust-suite")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up probes: a few before the first iteration, more after each one, so
# that the median samples the whole run
SETUP_PROBES_FIRST = 2
SETUP_PROBES_EACH = 1
# at least two iterations: with one, a run that starts in a slow spell of a
# shared host reports that spell alone.  No iteration starts that would end
# the run after MAX_RUN_FACTOR * seconds, so a slow host keeps a full set of
# runs inside its time budget.
MIN_ITERATIONS = 2
MAX_RUN_FACTOR = 2.75
DEADLINE_S = 165.0     # a run must end within 180 s
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "ratio"}

CORRECTOR_GRID = ("--nx", "48", "--ny", "64")


class Deadline(RuntimeError):
    pass


def child_env() -> dict:
    """Environment of every child: stokesbl from ./src, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("STOKESBL_OUTPUT_ROOT", None)
    return env


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Harness:
    """Spawns children one at a time and accounts for their time and memory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = child_env()
        self.started = time.monotonic()
        self.log = os.path.join(workdir, "children.log")
        self.setup: list[float] = []
        self.probe_env: dict = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, args: list[str], cwd: str, tag: str) -> dict:
        if self.remaining() < 5:
            raise Deadline("no time left for another child process")
        report_path = os.path.join(cwd, f"{tag}.report.json")
        args = [args[0], "--report", report_path, *args[1:]]
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(self.log, "ab") as out:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=cwd,
                                    env=self.env, stdout=out, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            t_exit = time.monotonic()
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if rc is None:
            raise Deadline(f"child {tag} overran the run deadline")
        report = None
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        return {
            "tag": tag,
            "rc": rc,
            "t_spawn": t_spawn,
            "t_exit": t_exit,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "maxrss_kb": report["maxrss_kb"] if report else ru1.ru_maxrss,
            "report": report,
        }

    def probe_setup(self, count: int) -> None:
        """Record `count` times from interpreter start to `import stokesbl` done."""
        for _ in range(count):
            seconds, self.probe_env = self._probe()
            self.setup.append(seconds)

    def _probe(self) -> tuple[float, dict]:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, "probe"], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            t1 = time.monotonic()
            rest = proc.stdout.read()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or rc != 0:
            raise RuntimeError("set-up probe could not import stokesbl from ./src")
        return t1 - t0, json.loads(rest)


def trace_processes(procs: list[dict]) -> list[dict]:
    """Each child's spans under a `proc` root (spawn to exit) and `proc.import`."""
    out = []
    for p in procs:
        rep = p["report"]
        if not rep or "trace" not in rep:   # killed before it could report
            continue
        spans = [["proc", p["t_spawn"], p["t_exit"], -1],
                 ["proc.import", rep["t_start"], rep["t_imported"], 0]]
        for name, start, end, parent in rep["trace"]["spans"]:
            spans.append([name, start, end, parent + 2 if parent >= 0 else 0])
        out.append({"spans": spans, "counters": rep["trace"]["counters"]})
    return out


def coverage(procs: list[dict], intervals: list[tuple[float, float]]) -> float:
    """Share of the timed intervals covered by named layers below `proc`."""
    covered = 0.0
    for proc in procs:
        for span, own in zip(proc["spans"], tracing.self_times(proc["spans"])):
            if span[0] != "proc" and any(a <= span[1] and span[2] <= b for a, b in intervals):
                covered += own
    return covered / sum(b - a for a, b in intervals)


# ---------------------------------------------------------------------------
# workloads: the constructor writes the seeded inputs; iterate(dir, traced)
# runs the workload once; check(dir, iteration, reference) -> (ops, summary)
# ---------------------------------------------------------------------------

def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _cli_args(trace: bool, argv: list[str]) -> list[str]:
    return ["cli"] + (["--trace"] if trace else []) + ["--"] + argv


class RegularityTall:
    name = "regularity-tall"

    def __init__(self, harness: Harness, seed: int):
        self.h, self.seed = harness, seed
        self.geometry = _write_json(os.path.join(harness.workdir, "geometry.json"),
                                    inputs.geometry_json(inputs.geometries(seed)[0]))

    def iterate(self, itdir: str, trace: bool) -> dict:
        argv = ["regularity", "--geometry", self.geometry, "--seed", str(self.seed),
                "--out", "report.json"]
        p = self.h.spawn(_cli_args(trace, argv), itdir, "regularity")
        return {
            "wall_s": p["t_exit"] - p["t_spawn"],
            "cpu_s": p["cpu_s"],
            "peak_kb": p["maxrss_kb"],
            "procs": [p],
            "intervals": [(p["t_spawn"], p["t_exit"])],
            "rcs": [p["rc"]],
            "outputs": [sha256(os.path.join(itdir, f)) for f in ("report.json", "report.csv")],
        }

    def check(self, itdir: str, it: dict, reference):
        return checks.check_regularity(it["rcs"][0], os.path.join(itdir, "report.json"),
                                       reference)


class WalllawStack:
    name = "walllaw-stack"

    def __init__(self, harness: Harness, seed: int):
        self.h, self.seed = harness, seed
        self.geometry = _write_json(os.path.join(harness.workdir, "geometry.json"),
                                    inputs.geometry_json(inputs.geometries(seed)[0]))

    def iterate(self, itdir: str, trace: bool) -> dict:
        procs, outputs = [], []
        stack = os.path.join(itdir, "stack.json")
        for j, (i, l) in enumerate(checks.CORRECTOR_RUNS):
            argv = ["corrector", "--geometry", self.geometry, *CORRECTOR_GRID,
                    "--alpha", str(checks.WALL_LAW_ORDER - l), "--l", str(l), "--i", str(i),
                    "--out", "stack.json"]
            procs.append(self.h.spawn(_cli_args(trace, argv), itdir, f"corrector{j}"))
            # between invocations, outside the timed intervals: keep what was written
            if os.path.exists(stack):
                shutil.copyfile(stack, os.path.join(itdir, f"stack-{j}.json"))
            outputs.append(sha256(stack))
        argv = ["wall-law", "--stack", "stack.json", "--order", str(checks.WALL_LAW_ORDER),
                "--out", "walllaw.json"]
        procs.append(self.h.spawn(_cli_args(trace, argv), itdir, "walllaw"))
        outputs += [sha256(os.path.join(itdir, f)) for f in ("walllaw.json", "walllaw.csv")]
        return {
            "wall_s": sum(p["t_exit"] - p["t_spawn"] for p in procs),
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "peak_kb": max(p["maxrss_kb"] for p in procs),
            "procs": procs,
            "intervals": [(p["t_spawn"], p["t_exit"]) for p in procs],
            "rcs": [p["rc"] for p in procs],
            "outputs": outputs,
        }

    def check(self, itdir: str, it: dict, reference):
        table = os.path.join(itdir, "walllaw.json")
        report = None
        if it["rcs"][-1] == 0:
            p = self.h.spawn(["walllaw-check", "--stack", os.path.join(itdir, "stack.json"),
                              "--table", table], itdir, "walllaw-check")
            report = p["report"]
        snaps = [os.path.join(itdir, f"stack-{j}.json")
                 for j in range(len(checks.CORRECTOR_RUNS))]
        return checks.check_walllaw(it["rcs"], snaps, table, report, reference)


class TrustSuite:
    name = "trust-suite"

    def __init__(self, harness: Harness, seed: int):
        self.h, self.seed = harness, seed
        self.inputs = _write_json(os.path.join(harness.workdir, "trust_inputs.json"), {
            "geometries": inputs.geometries(seed),
            "oracles": inputs.oracle_cases(seed),
            "polynomials": inputs.random_polynomials(seed),
        })

    def iterate(self, itdir: str, trace: bool) -> dict:
        args = ["trust", "--inputs", self.inputs] + (["--trace"] if trace else [])
        p = self.h.spawn(args, itdir, "trust")
        rep = p["report"] or {}
        done = "t_done" in rep
        start = rep["t_work"] if done else p["t_spawn"]
        end = rep["t_done"] if done else p["t_exit"]
        return {
            "wall_s": end - start,
            "cpu_s": rep["cpu_s"] if done else p["cpu_s"],
            "peak_kb": p["maxrss_kb"],
            "procs": [p],
            "intervals": [(start, end)],
            "rcs": [p["rc"]],
            "outputs": [rep.get("ops"), rep.get("summary")],
        }

    def check(self, itdir: str, it: dict, reference):
        return checks.check_trust(it["rcs"][0], it["procs"][0]["report"], reference)


WORKLOAD_CLASSES = {cls.name: cls for cls in (RegularityTall, WalllawStack, TrustSuite)}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(probe_env: dict, procs: list[dict]) -> dict:
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
            git_sha = res.stdout.strip() or None
        except OSError:   # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "stokesbl", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    threads = sorted({p["report"]["threads"] for p in procs
                      if p["report"] and "threads" in p["report"]})
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "os_threads_after_import": threads,
        "thread_env": {var: probe_env["env"].get(var) for var in THREAD_VARS},
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": probe_env["python"],
        "numpy": probe_env["numpy"],
        "scipy": probe_env["scipy"],
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run_iterations(workload, harness: Harness, seconds: float, trace: bool, seed: int,
                   record: bool) -> list[dict]:
    """Iterate and check each iteration's outputs."""
    reference = None if record else checks.load_reference(workload.name, seed)
    iterations: list[dict] = []
    checked: list[tuple] = []   # (outputs, verdicts) of fully checked iterations
    while True:
        k = len(iterations)
        if trace:   # one untraced iteration, then one traced
            if k == 2:
                break
        elif k:
            elapsed = time.monotonic() - harness.started
            last = iterations[-1]["wall_s"]
            if (record or harness.remaining() < 1.5 * last + 10
                    or elapsed + last > MAX_RUN_FACTOR * seconds
                    or (k >= MIN_ITERATIONS and elapsed >= seconds)):
                break
        traced = trace and k == 1
        itdir = os.path.join(harness.workdir, f"it{k}")
        os.makedirs(itdir)
        it = workload.iterate(itdir, traced)
        it["traced"] = traced
        known = next((v for out, v in checked if out == it["outputs"]), None)
        if known is not None and all(rc == 0 for rc in it["rcs"]):
            it["ops"] = [dict(op) for op in known]
        else:
            it["ops"], it["summary"] = workload.check(itdir, it, reference)
            checked.append((it["outputs"], it["ops"]))
        if traced:
            it["trace_procs"] = trace_processes(it["procs"])
        iterations.append(it)
        shutil.rmtree(itdir, ignore_errors=True)
        if not trace:
            harness.probe_setup(SETUP_PROBES_EACH)
    return iterations


def end_to_end(iterations: list[dict], setup: list[float], attempted: int,
               failed: int) -> dict:
    med = statistics.median
    return {
        "wall_s": med(it["wall_s"] for it in iterations),
        "cpu_s": med(it["cpu_s"] for it in iterations),
        "setup_s": med(setup),
        "peak_rss_mb": med(it["peak_kb"] / 1024.0 for it in iterations),
        "pass_frac": 1.0 - failed / attempted,
    }


def per_layer(iterations: list[dict]) -> dict:
    plain = next(it for it in iterations if not it["traced"])
    traced = next(it for it in iterations if it["traced"])
    out = tracing.layer_metrics(traced["trace_procs"])
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.untraced_wall_s"] = plain["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out["trace.coverage"] = coverage(traced["trace_procs"], traced["intervals"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one iteration and store its checked summary as the "
                             "reference for this seed")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "stokesbl", "__init__.py")):
        print("bench: no stokesbl sources under ./src", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    harness = Harness(workdir)
    # byte-compile first, so no timed import pays for it in a fresh checkout
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "stokesbl")],
                   env=harness.env, check=True, stdout=subprocess.DEVNULL)
    harness.probe_setup(1 if args.trace else SETUP_PROBES_FIRST)

    workload = WORKLOAD_CLASSES[args.workload](harness, args.seed)
    iterations = run_iterations(workload, harness, args.seconds, bool(args.trace),
                                args.seed, args.record_reference)
    attempted = sum(len(it["ops"]) for it in iterations)
    failed = sum(not op["ok"] for it in iterations for op in it["ops"])

    if args.trace:
        values = per_layer(iterations)
        units = {m: spec[2] for m, spec in tracing.LAYER_METRICS.items()}
        units.update(tracing.TRACE_METRICS)
    else:
        values = end_to_end(iterations, harness.setup, attempted, failed)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    env = environment(harness.probe_env, [p for it in iterations for p in it["procs"]])
    if args.record_reference:
        summary = iterations[0].get("summary")
        if failed or summary is None:
            print("bench: not recording a reference from a failing run", file=sys.stderr)
            return 1
        path = checks.reference_path(args.workload, args.seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env, **summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s_samples": harness.setup,
        "attempted": attempted, "failed": failed,
        "reference": checks.load_reference(args.workload, args.seed) is not None,
        "iterations": [{key: it[key] for key in ("wall_s", "cpu_s", "peak_kb", "rcs", "traced")}
                       | {"failed_ops": [op["op"] for op in it["ops"] if not op["ok"]]}
                       for it in iterations],
        "metrics": metrics,
    }
    _write_json(stem + ".json", record)
    if args.trace:
        traced = next(it for it in iterations if it["traced"])
        _write_json(stem + ".spans.json", traced["trace_procs"])

    print(f"bench {args.workload} seed={args.seed} iterations={len(iterations)} "
          f"reference={'yes' if record['reference'] else 'none for this seed'}")
    print(f"env git={env['git_sha']} src={env['source_sha256'][:12]} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} os_threads={env['os_threads_after_import']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {failed / attempted:>14.6g} ratio  ({failed}/{attempted} ops)")
    for it in iterations:
        for op in it["ops"]:
            if not op["ok"]:
                print(f"  FAILED {op['op']}")
    if failed and os.path.exists(harness.log):
        with open(harness.log, errors="replace") as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
