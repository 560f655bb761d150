"""Output checks per workload (standard library only).

Each check returns (per-operation results, summary).  An operation fails
when its process exits non-zero, when an acceptance bound that applies to it
does not hold, or when its summary disagrees with the reference recorded at
the commit that defined the benchmark (``reference/<workload>/seed-<n>.json``,
present for a fixed set of seeds).  Reference tolerances admit a solver
change that moves the last bits of a result and nothing larger.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

ORDER = 1                      # the regularity CLI's default --order
KINDS = ("shear", "quadratic", "random")
POINTWISE_KINDS = ("quadratic", "random")
CORRECTOR_RUNS = [(i, l) for i in (1, 2) for l in (1, 2, 3, 4)]   # --i, --l
WALL_LAW_ORDER = 4

# reference tolerances
REL = 1e-7          # slip lengths and gradient norms
PHI_REL = 1e-6      # wall-law entries, relative to the largest; high orders
                    # stack several levels of correctors on top of each other
EXPONENT_ABS = 1e-3  # fitted decay exponents and convergence orders
FRACTION_ABS = 0.005  # share of pointwise samples under the envelope


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"seed-{seed}.json")


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ---------------------------------------------------------------------------
# regularity-tall
# ---------------------------------------------------------------------------

def regularity_summary(report: dict) -> dict:
    out = {}
    for kind in KINDS:
        res = report["data"][kind]
        out[kind] = {
            "exponent": res["fitted_exponent"],
            "floored": res["floored"],
            "grad_norm": res["grad_norm"],
            "fraction_dominated": res["pointwise"]["fraction_dominated"],
        }
    return out


def regularity_kind_ok(kind: str, got: dict, ref: dict | None) -> bool:
    ok = got["floored"] or got["exponent"] >= ORDER - 0.3
    if kind in POINTWISE_KINDS:
        ok = ok and got["fraction_dominated"] >= 0.99
    if ref is not None:
        ok = ok and got["floored"] == ref["floored"] and close(got["grad_norm"], ref["grad_norm"])
        # shear data lies in the basis span: its pointwise errors are rounding
        # noise, so only the checked kinds compare their dominated fraction
        if kind in POINTWISE_KINDS:
            ok = ok and abs(got["fraction_dominated"] - ref["fraction_dominated"]) <= FRACTION_ABS
        if not got["floored"]:
            ok = ok and abs(got["exponent"] - ref["exponent"]) <= EXPONENT_ABS
    return ok


def check_regularity(rc: int, report_path: str, reference: dict | None):
    """One operation per outer-data kind."""
    if rc != 0 or not os.path.exists(report_path):
        return [{"op": kind, "ok": False} for kind in KINDS], None
    with open(report_path) as fh:
        summary = regularity_summary(json.load(fh))
    ops = [{"op": kind, "ok": regularity_kind_ok(kind, summary[kind],
                                                  reference and reference[kind])}
           for kind in KINDS]
    return ops, summary


# ---------------------------------------------------------------------------
# walllaw-stack
# ---------------------------------------------------------------------------

def _levels(stack: dict) -> dict:
    return {(lv["beta"], lv["l"], lv["comp"]): lv for lv in stack["levels"]}


def expected_levels(upto: int) -> set:
    """(beta, l, comp) levels after the first `upto` corrector runs."""
    out = set()
    for i, l in CORRECTOR_RUNS[:upto]:
        out.update((beta, l, i) for beta in range(WALL_LAW_ORDER - l + 1))
    return out


def stack_carried(prev: dict | None, cur: dict, upto: int) -> bool:
    """The stack read back equals the stack written, plus the new levels."""
    levels = _levels(cur)
    if set(levels) != expected_levels(upto):
        return False
    if prev is None:
        return True
    same_frame = all(prev[key] == cur[key] for key in ("geometry", "height", "nx", "ny"))
    return same_frame and all(levels[key] == lv for key, lv in _levels(prev).items())


def walllaw_summary(table: dict) -> dict:
    return {
        "slip_length": table["slip_length"],
        "tails": table["tails"],
        "phi": {f"{e['alpha']},{e['l']}": e["matrix"] for e in table["phi"]},
    }


def _flat(values) -> list[float]:
    if isinstance(values, list):
        return [v for item in values for v in _flat(item)]
    return [float(values)]


def walllaw_table_ok(summary: dict, residuals: list[float] | None, ref: dict | None) -> bool:
    ok = summary["slip_length"] > 0 and residuals is not None and len(residuals) > 0
    ok = ok and max(residuals) <= 1e-6
    if ref is not None:
        ok = ok and close(summary["slip_length"], ref["slip_length"])
        ok = ok and set(summary["tails"]) == set(ref["tails"]) and all(
            close(a, b) for c in ref["tails"] for a, b in zip(summary["tails"][c], ref["tails"][c]))
        ok = ok and set(summary["phi"]) == set(ref["phi"])
        for key, mat in ref["phi"].items():
            got, want = _flat(summary["phi"].get(key, [])), _flat(mat)
            scale = max([1.0] + [abs(v) for v in want])
            ok = ok and len(got) == len(want) and all(
                abs(a - b) <= PHI_REL * scale for a, b in zip(got, want))
    return ok


def check_walllaw(rcs: list[int], snapshots: list[str], table_path: str,
                  check_report: dict | None, reference: dict | None):
    """One operation per CLI invocation: 8 corrector runs, then wall-law."""
    ops = []
    prev = None
    for j, (rc, path) in enumerate(zip(rcs, snapshots)):
        cur = None
        if rc == 0 and os.path.exists(path):
            with open(path) as fh:
                cur = json.load(fh)
        ok = cur is not None and stack_carried(prev, cur, j + 1)
        i, l = CORRECTOR_RUNS[j]
        ops.append({"op": f"corrector i={i} l={l}", "ok": ok})
        prev = cur
    summary = None
    ok = rcs[-1] == 0 and os.path.exists(table_path) and check_report is not None \
        and check_report.get("rc") == 0 and check_report.get("levels_solved_by_check") == 0
    if ok:
        with open(table_path) as fh:
            summary = walllaw_summary(json.load(fh))
        ok = walllaw_table_ok(summary, check_report.get("identity_residuals"), reference)
    ops.append({"op": "wall-law", "ok": bool(ok)})
    return ops, summary


# ---------------------------------------------------------------------------
# trust-suite
# ---------------------------------------------------------------------------

def trust_ladder_ok(got: dict | None, ref: dict | None) -> bool:
    if got is None:
        return False
    if ref is None:
        return True
    return all(close(a, b) for a, b in zip(got["lams"], ref["lams"])) \
        and abs(got["order"] - ref["order"]) <= EXPONENT_ABS


def check_trust(rc: int, report: dict | None, reference: dict | None):
    """The child's own per-op verdicts, plus agreement with the reference."""
    if rc != 0 or report is None or "ops" not in report:
        return [{"op": "trust-suite", "ok": False}], None
    ops = [dict(op) for op in report["ops"]]
    summary = report["summary"]
    if reference is not None:
        ladder_ops = [op for op in ops if op["op"].startswith("ladder ")]
        for op, got, ref in zip(ladder_ops, summary["ladders"], reference["ladders"]):
            op["ok"] = op["ok"] and trust_ladder_ok(got, ref)
        for op in ops:
            if op["op"].startswith("basis "):
                d, m = (int(part.split("=")[1]) for part in op["op"].split()[1:])
                op["ok"] = op["ok"] and summary["basis_dims"].get(f"{d},{m}") \
                    == reference["basis_dims"].get(f"{d},{m}")
    return ops, summary

