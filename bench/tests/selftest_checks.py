"""Output checks accept the recorded reference and reject a perturbed one."""

import copy
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import checks  # noqa: E402

SEED = 0


def reference(workload):
    ref = checks.load_reference(workload, SEED)
    assert ref is not None, f"no reference recorded for {workload} seed {SEED}"
    return ref


def regularity_report(summary):
    """A CLI report carrying the summary's numbers."""
    return {"data": {kind: {"fitted_exponent": s["exponent"], "floored": s["floored"],
                            "grad_norm": s["grad_norm"],
                            "pointwise": {"fraction_dominated": s["fraction_dominated"]}}
                     for kind, s in summary.items()}}


def run_regularity(tmp_path, summary, ref):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(regularity_report(summary)))
    ops, _ = checks.check_regularity(0, str(path), ref)
    return {op["op"]: op["ok"] for op in ops}


def test_regularity_reference_agrees_and_perturbations_fail(tmp_path):
    ref = reference("regularity-tall")
    got = {kind: ref[kind] for kind in checks.KINDS}
    assert all(run_regularity(tmp_path, got, ref).values())

    last_bits = copy.deepcopy(got)
    last_bits["random"]["grad_norm"] *= 1 + 1e-12
    assert all(run_regularity(tmp_path, last_bits, ref).values())

    moved = copy.deepcopy(got)
    moved["random"]["grad_norm"] *= 1 + 1e-5
    assert run_regularity(tmp_path, moved, ref) == {"shear": True, "quadratic": True,
                                                     "random": False}

    undominated = copy.deepcopy(got)
    undominated["quadratic"]["fraction_dominated"] = 0.98
    assert not run_regularity(tmp_path, undominated, None)["quadratic"]

    slow = copy.deepcopy(got)
    slow["quadratic"]["exponent"] = checks.ORDER - 0.31
    assert not run_regularity(tmp_path, slow, None)["quadratic"]


def test_walllaw_reference_agrees_and_perturbations_fail():
    ref = reference("walllaw-stack")
    summary = {key: copy.deepcopy(ref[key]) for key in ("slip_length", "tails", "phi")}
    residuals = [1e-12]
    assert checks.walllaw_table_ok(summary, residuals, ref)
    assert not checks.walllaw_table_ok(summary, [2e-6], ref)

    key = sorted(summary["phi"])[-1]
    summary["phi"][key][0][0][0] += 1e-4
    assert not checks.walllaw_table_ok(summary, residuals, ref)


def test_stack_carried_detects_a_changed_level():
    def level(beta, l, comp, value):
        return {"beta": beta, "l": l, "comp": comp, "u": [[value]]}

    frame = {"geometry": {}, "height": 3.0, "nx": 48, "ny": 64}
    first = dict(frame, levels=[level(b, 1, 1, 0.5) for b in range(4)])
    second = dict(frame, levels=first["levels"] + [level(b, 2, 1, 0.25) for b in range(3)])
    assert checks.stack_carried(None, first, 1)
    assert checks.stack_carried(first, second, 2)
    changed = copy.deepcopy(second)
    changed["levels"][0]["u"][0][0] += 1e-15
    assert not checks.stack_carried(first, changed, 2)
    assert not checks.stack_carried(first, second, 3)   # levels missing


def test_trust_reference_agrees_and_perturbations_fail():
    ref = reference("trust-suite")
    summary = {"basis_dims": dict(ref["basis_dims"]), "ladders": copy.deepcopy(ref["ladders"])}
    ops = [{"op": f"basis d={key.split(',')[0]} m={key.split(',')[1]}", "ok": True}
           for key in summary["basis_dims"]]
    ops += [{"op": f"ladder {i}", "ok": True} for i in range(len(summary["ladders"]))]
    report = {"ops": ops, "summary": summary}

    def verdicts(rep):
        return {op["op"]: op["ok"] for op in checks.check_trust(0, rep, ref)[0]}

    assert all(verdicts(report).values())
    moved = copy.deepcopy(report)
    moved["summary"]["ladders"][2]["lams"][2] *= 1 + 1e-5
    assert [name for name, ok in verdicts(moved).items() if not ok] == ["ladder 2"]
    wrong_dim = copy.deepcopy(report)
    wrong_dim["summary"]["basis_dims"]["3,4"] += 1
    assert [name for name, ok in verdicts(wrong_dim).items() if not ok] == ["basis d=3 m=4"]
