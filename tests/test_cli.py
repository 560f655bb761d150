"""CLI: artifact formats, exit codes, reproducibility."""

import base64
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stokesbl.cli import main


@pytest.fixture()
def geometry_file(tmp_path):
    path = tmp_path / "wall.json"
    path.write_text(json.dumps(
        {"fourier": [{"k": 0, "re": -0.5, "im": 0.0}, {"k": 1, "re": -0.25, "im": 0.0}]}
    ))
    return str(path)


def test_basis_subcommand(tmp_path, capsys):
    out = tmp_path / "basis.json"
    assert main(["basis", "--dim", "2", "--order", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 4
    assert {el["tag"] for el in data["elements"]} <= {"V1", "V2"}
    assert os.path.exists(tmp_path / "basis.manifest.json")


def test_basis_rejects_bad_config(tmp_path):
    assert main(["basis", "--dim", "1", "--order", "2",
                 "--out", str(tmp_path / "b.json")]) == 2
    assert main(["basis", "--dim", "2", "--order", "0",
                 "--out", str(tmp_path / "b.json")]) == 2
    assert not (tmp_path / "b.json").exists()


def test_cell_subcommand_flat_tail(tmp_path, geometry_file):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"fourier": []}))
    assert main(["cell", "--geometry", str(flat), "--l", "1", "--i", "1",
                 "--nx", "16", "--ny", "20", "--out", str(tmp_path / "cellrun.json")]) == 0
    summary = json.loads((tmp_path / "cellrun.json").read_text())
    assert np.allclose(summary["tail"], [0.0, 0.0], atol=1e-12)
    header = (tmp_path / "cellrun.csv").read_text().splitlines()[0]
    assert header == "x,y,u1,u2,p"


def test_cell_missing_geometry(tmp_path):
    assert main(["cell", "--geometry", str(tmp_path / "nope.json")]) == 2


def test_cell_rejects_aliased_geometry(tmp_path, capsys):
    wall = tmp_path / "aliased.json"
    wall.write_text(json.dumps(
        {"fourier": [{"k": 0, "re": -0.5, "im": 0.0}, {"k": 13, "re": -0.2, "im": 0.0}]}
    ))
    assert main(["cell", "--geometry", str(wall), "--nx", "24",
                 "--out", str(tmp_path / "cellrun.json")]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "cellrun.json").exists()


def test_cell_rejects_odd_nx(tmp_path, geometry_file, capsys):
    assert main(["cell", "--geometry", geometry_file, "--nx", "9",
                 "--out", str(tmp_path / "cellrun.json")]) == 2
    assert "nx must be even" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"fourier": [{"k": 0, "re": 0.5}]},
    {"modes": []},
    {"fourier": [{"re": -0.5}]},
    {"fourier": [{"k": 0}]},
    {"fourier": 5},
    {"fourier": [{"k": 0, "re": "a"}]},
    {"fourier": [{"k": 0, "re": -10 ** 400}]},
    {"samples": "abc"},
    {"samples": []},
    {"samples": [[-0.5, -0.4], [-0.5]]},
    # each would read as a different wall than the file describes
    {"fourier": [{"k": 0, "re": -0.5}, {"k": 1, "re": -0.2}, {"k": 1, "re": -0.1}]},
    {"fourier": [{"k": 0, "re": -0.5}, {"k": 1.7, "re": -0.2}]},
    {"fourier": [{"k": 0, "re": -0.5}, {"k": True, "re": -0.2}]},
    {"fourier": [{"k": 0, "re": -0.5}, {"k": 10 ** 400, "re": -0.2}]},
    {"fourier": [{"k": 0, "re": -0.5}, {"k": 1, "re": -0.25}],
     "samples": [-0.1, -0.9, -0.1, -0.9]},
], ids=["gamma-above-zero", "no-geometry-key", "no-k", "no-re", "fourier-not-a-list",
        "re-a-string", "re-beyond-float", "samples-a-string", "samples-empty", "samples-ragged",
        "repeated-k", "fractional-k", "bool-k", "k-beyond-float", "fourier-and-samples"])
def test_cell_rejects_unrepresentable_geometry(tmp_path, payload, capsys):
    wall = tmp_path / "wall.json"
    wall.write_text(json.dumps(payload))
    assert main(["cell", "--geometry", str(wall),
                 "--out", str(tmp_path / "cellrun.json")]) == 2
    assert "invalid configuration" in capsys.readouterr().err


# --alpha is one int, as the numerics are 2-D: argparse rejects these before any command
NOT_AN_INT = (["corrector", "--alpha", "x"], ["corrector", "--alpha", "1.5"],
              ["corrector", "--alpha", "1,2"])


@pytest.mark.parametrize("argv", [
    ["cell", "--height", "nan"],
    ["cell", "--height", "inf"],
    ["corrector", "--height", "nan"],
    ["corrector", "--height", "inf"],
    ["regularity", "--R", "nan"],
    ["regularity", "--R", "inf"],
    ["regularity", "--stretch", "nan"],
    ["regularity", "--stretch", "1e6"],  # the mapped nodes overflow
    ["cell", "--height", "1e300"],  # the inverse metric squares to zero
    # one lid rule, StripGrid's, for cell, corrector and stack files; cell takes its
    # index rule from wall_problem
    ["cell", "--height", "0.8"],
    ["corrector", "--height", "0.8"],
    ["cell", "--l", "0"],
    ["cell", "--i", "3"],
    ["regularity", "--seed", "-1"],
    *NOT_AN_INT,
    # StripGrid's int32 index rule, checked before any array of that size exists
    ["cell", "--nx", str(2 ** 62)],
    ["cell", "--ny", str(2 ** 62)],
    ["cell", "--nx", str(10 ** 300)],
    # the library's index rule (CorrectorStack.level, wall_problem) rejects these
    ["corrector", "--alpha", "-1"],
    ["corrector", "--l", "0"],
    ["corrector", "--i", "3"],
    # the CLI's own rules, checked before any solve
    ["regularity", "--order", "0"],
    ["regularity", "--R", "100"],  # below 32 pi
], ids=lambda argv: " ".join(a if len(a) < 12 else f"<{len(a)}-digit int>" for a in argv))
def test_unrepresentable_sizes_exit_2(tmp_path, geometry_file, argv, capsys):
    out = ["--out", str(tmp_path / "run.json")]
    full = argv[:1] + ["--geometry", geometry_file] + argv[1:] + out
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the message comes without a numpy warning first
        if argv in NOT_AN_INT:
            with pytest.raises(SystemExit) as exc:
                main(full)
            assert exc.value.code == 2
            assert "--alpha: invalid int value" in capsys.readouterr().err
        else:
            assert main(full) == 2
            assert "invalid configuration" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["wall.json"]


def _decoded(array):
    """The float array of a {shape, f8} object."""
    return np.frombuffer(base64.b64decode(array["f8"]), "<f8").reshape(array["shape"])


def _break_first_level(data):
    # a 1-element u
    data["levels"][0]["u"] = {"shape": [1],
                              "f8": base64.b64encode(np.ones(1).tobytes()).decode()}


def _drop_p(data):
    del data["levels"][0]["p"]


def _p_at_nodes(data):
    # the shape of a node field, (nx, ny+1), its bytes filling the shape
    p = data["levels"][0]["p"]
    raw = base64.b64decode(p["f8"])
    p["shape"][1] += 1
    p["f8"] = base64.b64encode(raw + raw[: 8 * p["shape"][0]]).decode()


def _chain_gap(data):
    # level (1, 1, 2) reads level (0, 1, 2), which the stack lacks
    data["levels"].append(dict(data["levels"][0], beta=1, comp=2))


def _wrong_hash(data):
    data["geometry_hash"] = "0" * 16


def _invalid_base64(data):
    # a lenient decoder would skip the four characters and read the same bytes
    f8 = data["levels"][0]["u"]["f8"]
    data["levels"][0]["u"]["f8"] = f8[:8] + "!!!!" + f8[8:]


def _short_byte_count(data):
    u = data["levels"][0]["u"]
    u["f8"] = base64.b64encode(base64.b64decode(u["f8"])[:-8]).decode()


def _text_arrays_without_schema(data):
    # the layout of the earlier text stacks: no schema, arrays as float lists
    del data["schema"], data["stokesbl"]
    for lv in data["levels"]:
        for key in ("u", "p"):
            lv[key] = _decoded(lv[key]).tolist()


# a stack of an earlier schema also stored arrays that a schema-6 load derives
# (p_nodes, v_poly, q_poly, the mode entries); its schema number alone rejects it

def _schema_1(data):
    data["schema"] = 1


def _schema_2(data):
    # the layout before schema 3: each mode also stored at -k
    data["schema"] = 2


def _schema_3(data):
    # the layout before schema 4: each mode also stored its closing scalar c
    data["schema"] = 3


def _schema_4(data):
    # the layout before schema 5: polynomials and mode profiles as float lists
    data["schema"] = 4


def _schema_5(data):
    # the layout before schema 6: p_nodes, v_poly, q_poly and the modes stored
    data["schema"] = 5


def _truncated(data):
    # not JSON at all: the file is cut short
    return json.dumps(data)[:-100]


def _diagnostics_list(data):
    data["levels"][0]["diagnostics"] = [1]


def _duplicate_level(data):
    data["levels"].append(data["levels"][0])


def _text_beta(data):
    data["levels"][0]["beta"] = "x"


def _negative_beta(data):
    data["levels"][0]["beta"] = -1


def _fractional_beta(data):
    # int() would truncate it to 1
    data["levels"][0]["beta"] = 1.7


def _zero_l(data):
    data["levels"][0]["l"] = 0


def _comp_3(data):
    data["levels"][0]["comp"] = 3


def _bool_comp(data):
    data["levels"][0]["comp"] = True


def _levels_not_a_list(data):
    data["levels"] = 5


def _text_height(data):
    data["height"] = "x"


def _low_lid(data):
    # the lid rule of `cell` and `corrector --height` holds for stack files too
    data["height"] = 0.8


def _float_nx(data):
    data["nx"] = float(data["nx"])


def _set_first_float(array, value):
    raw = np.frombuffer(base64.b64decode(array["f8"]), "<f8").copy()
    raw[0] = value
    array["f8"] = base64.b64encode(raw.tobytes()).decode()


def _nan_in_u(data):
    _set_first_float(data["levels"][0]["u"], np.nan)


def _nan_in_p(data):
    _set_first_float(data["levels"][0]["p"], np.nan)


def _height_beyond_float(data):
    data["height"] = 10 ** 400


def _huge_int_height(data):
    # an int float can hold: the grid's lid rule, not a numpy TypeError, rejects it
    data["height"] = 10 ** 300


def _huge_nx(data):
    # an int float can hold, but no level's arrays fit it
    data["nx"] = 10 ** 300


def _ny_beyond_float(data):
    data["ny"] = 10 ** 400


def _no_levels_huge_nx(data):
    # no level to check nx against: StripGrid's index rule rejects it
    data["levels"] = []
    data["nx"] = 2 ** 62


@pytest.mark.parametrize("corrupt", [
    _break_first_level, _drop_p, _p_at_nodes, _chain_gap, _wrong_hash, _invalid_base64,
    _short_byte_count, _text_arrays_without_schema, _schema_1, _schema_2, _schema_3,
    _schema_4, _schema_5, _truncated, _diagnostics_list, _duplicate_level, _text_beta,
    _negative_beta, _fractional_beta, _zero_l, _comp_3, _bool_comp, _levels_not_a_list,
    _text_height, _low_lid, _float_nx, _nan_in_u, _nan_in_p, _height_beyond_float, _huge_nx,
    _ny_beyond_float, _no_levels_huge_nx, _huge_int_height,
])
def test_malformed_stack_exits_2(tmp_path, geometry_file, corrupt, capsys):
    stack_out = tmp_path / "stack.json"
    assert main(["corrector", "--geometry", geometry_file, "--alpha", "0",
                 "--nx", "16", "--ny", "20", "--out", str(stack_out)]) == 0
    data = json.loads(stack_out.read_text())
    # a corruption either edits the data or returns the text to write
    stack_out.write_text(corrupt(data) or json.dumps(data))
    written = stack_out.read_bytes()
    capsys.readouterr()
    assert main(["wall-law", "--stack", str(stack_out), "--order", "2",
                 "--out", str(tmp_path / "law.json")]) == 2
    assert main(["corrector", "--geometry", geometry_file, "--alpha", "1",
                 "--nx", "16", "--ny", "20", "--out", str(stack_out)]) == 2
    assert capsys.readouterr().err.count("invalid configuration") == 2
    assert not (tmp_path / "law.json").exists()
    assert stack_out.read_bytes() == written  # the failed extension left it alone


def test_stack_without_schema_6_asks_for_a_rebuild(tmp_path, capsys):
    stack = tmp_path / "stack.json"
    for schema in ({}, {"schema": 4}, {"schema": 5}):
        stack.write_text(json.dumps({**schema, "geometry": {"fourier": []}, "levels": []}))
        assert main(["wall-law", "--stack", str(stack), "--out", str(tmp_path / "law.json")]) == 2
        err = capsys.readouterr().err
        assert "not schema 6" in err and "rebuild" in err, schema


def test_wall_law_checks_order_before_reading_the_stack(tmp_path, capsys):
    assert main(["wall-law", "--stack", str(tmp_path / "missing.json"), "--order", "0",
                 "--out", str(tmp_path / "law.json")]) == 2
    err = capsys.readouterr().err
    assert "--order" in err and "missing.json" not in err


def test_wall_law_reports_levels_solved_in_process(tmp_path, geometry_file, capsys):
    stack = str(tmp_path / "stack.json")
    assert main(["corrector", "--geometry", geometry_file,
                 "--nx", "16", "--ny", "20", "--out", stack]) == 0
    # the one-level stack holds the Navier seed (0, 1, 1), all the order-1
    # table reads; order 2 solves the other levels with beta + l <= 2
    for order, solved in (("1", "0, (beta, l, comp) = []"),
                          ("2", "5, (beta, l, comp) = [(0, 1, 2), (0, 2, 1), (0, 2, 2), "
                                "(1, 1, 1), (1, 1, 2)]")):
        capsys.readouterr()
        assert main(["wall-law", "--stack", stack, "--order", order,
                     "--out", str(tmp_path / "law.json")]) == 0
        assert f"wall-law: levels solved in-process: {solved}\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["cell", "--geometry", "{dir}/text.json", "--out", "{dir}/c.json"],
    ["corrector", "--geometry", "{dir}/text.json", "--out", "{dir}/stack.json"],
    ["regularity", "--geometry", "{dir}/text.json", "--out", "{dir}/report.json"],
    ["cell", "--geometry", "{dir}/folder", "--out", "{dir}/c.json"],
    ["wall-law", "--stack", "{dir}/folder", "--out", "{dir}/law.json"],
    ["wall-law", "--stack", "{dir}/text.json", "--out", "{dir}/law.json"],
    ["corrector", "--geometry", "{dir}/wall.json", "--out", "{dir}/folder"],
], ids=lambda argv: " ".join(argv).replace("{dir}/", ""))
def test_unreadable_json_input_exits_2(tmp_path, geometry_file, argv, capsys):
    (tmp_path / "text.json").write_text("not json\n")
    (tmp_path / "folder").mkdir()
    before = sorted(os.listdir(tmp_path))
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    assert "invalid configuration: cannot read" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_csv_artifacts_hold_plain_numbers(tmp_path, geometry_file):
    assert main(["cell", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", str(tmp_path / "c.json")]) == 0
    assert main(["corrector", "--geometry", geometry_file, "--alpha", "1", "--nx", "16",
                 "--ny", "20", "--out", str(tmp_path / "stack.json")]) == 0
    assert main(["wall-law", "--stack", str(tmp_path / "stack.json"), "--order", "2",
                 "--out", str(tmp_path / "law.json")]) == 0
    assert main(SMALL_REGULARITY + ["--geometry", geometry_file,
                                    "--out", str(tmp_path / "report.json")]) == 0
    # header, first numeric column, rows at least
    for name, header, first, rows in (("c.csv", "x,y,u1,u2,p", 0, 16 * 21),
                                      ("law.csv", "order,alpha,l,row,col,x_power,value", 0, 4),
                                      ("report.csv", "data,r,H,fitted_exponent", 1, 3)):
        with open(tmp_path / name, newline="") as fh:
            head, *body = csv.reader(fh)
        assert ",".join(head) == header and len(body) >= rows, name
        for row in body:
            assert len(row) == len(head), name
            for cell in row[first:]:
                float(cell)  # ValueError on "np.float64(...)"; a floored exponent reads inf
        if name == "law.csv":
            assert all(cell.isdigit() for row in body for cell in row[:-1])
        if name == "report.csv":
            assert {row[0] for row in body} == {"shear", "quadratic", "random"}


def _manifest_artifacts(path):
    """The names a manifest lists, each checked against the bytes beside it."""
    artifacts = json.loads(path.read_text())["artifacts"]
    for name, digest in artifacts.items():
        assert hashlib.sha256((path.parent / name).read_bytes()).hexdigest() == digest, name
    return sorted(artifacts)


def test_manifest_lists_exactly_the_written_artifacts(tmp_path, geometry_file):
    # stale siblings that a run does not write stay out of its manifest
    for stale in ("stack.csv", "c", "law", "b.csv", "r"):
        (tmp_path / stale).write_text("stale\n")
    assert main(["basis", "--order", "1", "--out", str(tmp_path / "b.json")]) == 0
    assert _manifest_artifacts(tmp_path / "b.manifest.json") == ["b.json"]
    assert main(["corrector", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", str(tmp_path / "stack.json")]) == 0
    assert _manifest_artifacts(tmp_path / "stack.manifest.json") == ["stack.json"]
    assert main(["wall-law", "--stack", str(tmp_path / "stack.json"), "--order", "1",
                 "--out", str(tmp_path / "law.json")]) == 0
    assert _manifest_artifacts(tmp_path / "law.manifest.json") == ["law.csv", "law.json"]
    assert main(["cell", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", str(tmp_path / "c.json")]) == 0
    assert _manifest_artifacts(tmp_path / "c.manifest.json") == ["c.csv", "c.json"]
    assert main(SMALL_REGULARITY + ["--geometry", geometry_file,
                                    "--out", str(tmp_path / "r.json")]) == 0
    assert _manifest_artifacts(tmp_path / "r.manifest.json") == ["r.csv", "r.json"]


def test_manifest_lands_beside_its_artifacts_under_a_relative_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["basis", "--order", "1", "--out", os.path.join("runs", "b.json")]) == 0
    assert sorted(os.listdir(tmp_path / "runs")) == ["b.json", "b.manifest.json"]
    assert _manifest_artifacts(tmp_path / "runs" / "b.manifest.json") == ["b.json"]


def test_cell_beside_a_directory_named_like_its_prefix(tmp_path, geometry_file):
    (tmp_path / "cell").mkdir()
    assert main(["cell", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", str(tmp_path / "cell.json")]) == 0
    assert _manifest_artifacts(tmp_path / "cell.manifest.json") == ["cell.csv", "cell.json"]
    assert os.listdir(tmp_path / "cell") == []


def test_cell_writes_beside_its_out_and_takes_no_abbreviation(tmp_path, geometry_file):
    assert main(["cell", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", str(tmp_path / "x.json")]) == 0
    written = ["wall.json", "x.csv", "x.json", "x.manifest.json"]
    assert sorted(os.listdir(tmp_path)) == written
    # an abbreviation of an option is an unknown option, not the option
    for argv in (["cell", "--geom", geometry_file],
                 ["cell", "--geometry", geometry_file, "--out-prefix", str(tmp_path / "c")],
                 ["corrector", "--geometry", geometry_file, "--alph", "1"],
                 ["regularity", "--geometry", geometry_file, "--stack", "16"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--nx", "16", "--ny", "20", "--out", str(tmp_path / "y.json")])
        assert exc.value.code == 2, argv
    assert sorted(os.listdir(tmp_path)) == written


def _python(code: str, *args: str, timeout: int = 120) -> str:
    """stdout of a fresh interpreter running code, with this tree's src first
    on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=timeout).stdout


# one module that each of numpy.f2py, numpy.testing and numpy.ma imports when
# it executes, and unittest, which numpy.testing pulls in
NUMPY_DEFERRED = ("numpy.f2py.f2py2e", "numpy.testing._private.utils", "unittest",
                  "numpy.ma.core")


def test_cli_import_leaves_regularity_only_scipy_unloaded():
    # nor the regularity and verify modules, which their commands import, nor
    # the numpy submodules that scipy.sparse's array-API shim touches
    names = ("scipy.interpolate", "scipy.optimize", "stokesbl.regularity",
             "stokesbl.verify") + NUMPY_DEFERRED
    out = _python(f"import sys, numpy, stokesbl.cli; "
                  f"print(sorted(m for m in {names!r} if m in sys.modules)); "
                  # a deferred submodule still works on first use
                  f"numpy.testing.assert_equal(1, 1); "
                  f"print(numpy.ma.masked_array([1, 2]).sum())")
    assert out.split() == ["[]", "3"]
    # a host that imported numpy.testing first keeps the real module
    out = _python("import sys, types, numpy, numpy.testing as real, stokesbl; "
                  "print(sys.modules['numpy.testing'] is real is numpy.testing, "
                  "type(real) is types.ModuleType)")
    assert out.split() == ["True", "True"]
    # and a numpy without one of the three still imports stokesbl, which
    # defers the other two
    out = _python(f"import sys, importlib.util; find_spec = importlib.util.find_spec; "
                  f"importlib.util.find_spec = lambda name, *a: "
                  f"None if name == 'numpy.f2py' else find_spec(name, *a); "
                  f"import stokesbl.cli; "
                  f"print(sorted(m for m in {NUMPY_DEFERRED!r} if m in sys.modules))")
    assert out.strip() == "['numpy.f2py.f2py2e']"


SMALL_REGULARITY = ["regularity", "--nx", "12", "--ny", "160", "--stack-ny", "16",
                    "--R", "101"]

CELL_16X20 = ["cell", "--geometry", "{dir}/wall.json", "--nx", "16", "--ny", "20"]
WALL_LAW = ["wall-law", "--stack", "{dir}/stack.json", "--order", "1"]


@pytest.mark.parametrize("argv, out", [
    (["basis", "--order", "1"], "folder"),
    (CELL_16X20, "folder"),
    (WALL_LAW, "folder"),
    (["corrector", "--geometry", "{dir}/wall.json", "--nx", "16", "--ny", "20"], "folder"),
    (SMALL_REGULARITY + ["--geometry", "{dir}/wall.json"], "folder"),
    (["basis", "--order", "1"], "afile/b.json"),
    (CELL_16X20, "afile/b.json"),
    (CELL_16X20, "x.csv"),  # the JSON and the CSV would share x.csv
    (WALL_LAW, "x.csv"),
    (CELL_16X20, "sib.json"),  # its CSV path is a directory: not even the JSON is written
    # an output that is an input: the stack, the geometry, or a geometry at the CSV's path
    (WALL_LAW, "stack.json"),
    (CELL_16X20, "wall.json"),
    (["cell", "--geometry", "{dir}/geo.csv", "--nx", "16", "--ny", "20"], "geo.json"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unwritable_out_exits_2_and_writes_nothing(tmp_path, geometry_file, argv, out, capsys):
    assert main(["corrector", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", str(tmp_path / "stack.json")]) == 0
    (tmp_path / "folder").mkdir()
    (tmp_path / "sib.csv").mkdir()
    (tmp_path / "afile").write_text("a file, not a directory\n")
    (tmp_path / "x.csv").write_text("stale\n")
    (tmp_path / "geo.csv").write_text(Path(geometry_file).read_text())
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main([arg.format(dir=tmp_path) for arg in argv] + ["--out", str(tmp_path / out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    # no artifact, no manifest, no temp file, and every file as it was
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before


class _UnwritableStdout:
    """A stdout whose every write fails, as on a full disk or a closed pipe."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def test_unwritable_stdout_raises_after_the_artifacts_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _UnwritableStdout())
    # the stdout's own error, not an artifact write reported as exit 2
    with pytest.raises(OSError, match="No space left"):
        main(["basis", "--order", "1", "--out", str(tmp_path / "b.json")])
    assert _manifest_artifacts(tmp_path / "b.manifest.json") == ["b.json"]


def test_regularity_factors_each_grid_once_and_frees_it(tmp_path, geometry_file, monkeypatch):
    from stokesbl import cell

    built = []  # (grid, kind) of every factorization
    assemble = cell.assemble

    def recording_assemble(grid, kind):
        built.append((grid, kind))
        return assemble(grid, kind)

    monkeypatch.setattr(cell, "assemble", recording_assemble)
    assert main(SMALL_REGULARITY + ["--geometry", geometry_file,
                                    "--out", str(tmp_path / "report.json")]) == 0
    grids = [grid for grid, _ in built]
    assert len(grids) == len(set(map(id, grids))) == 2  # stack grid and tall strip
    assert all(grid.factors == {} for grid in grids)


def test_regularity_builds_coefficient_arrays_after_freeing_factors(tmp_path, geometry_file,
                                                                   monkeypatch):
    from stokesbl.regularity import RegularityWorkspace

    stacks = []  # the stack each workspace samples
    builds = []  # (rows, factors alive?) of each coefficient-array build
    init, x_series = RegularityWorkspace.__init__, RegularityWorkspace._x_series

    def recording_init(self, stack, order, grid):
        stacks.append(stack)
        init(self, stack, order, grid)

    def recording_x_series(self, rows=slice(None)):
        builds.append((rows, bool(self.grid.factors) or bool(stacks[-1].grid.factors)))
        return x_series(self, rows)

    monkeypatch.setattr(RegularityWorkspace, "__init__", recording_init)
    monkeypatch.setattr(RegularityWorkspace, "_x_series", recording_x_series)
    assert main(SMALL_REGULARITY + ["--geometry", geometry_file,
                                    "--out", str(tmp_path / "report.json")]) == 0
    # one workspace: the lift traces' top row while the factors live, the full
    # arrays only after they went
    assert builds == [(np.s_[-1:], True), (slice(None), False)]


def test_regularity_run_leaves_interpolate_and_optimize_unloaded(tmp_path, geometry_file):
    code = ("import sys; from stokesbl.cli import main; "
            f"assert main({SMALL_REGULARITY + ['--geometry', geometry_file]!r} + sys.argv[1:]) == 0; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = _python(code, "--out", str(tmp_path / "report.json"), timeout=300)
    assert out.strip().splitlines()[-1] == "[]"


def test_corrector_and_wall_law(tmp_path, geometry_file):
    stack_out = tmp_path / "stack.json"
    assert main(["corrector", "--geometry", geometry_file, "--alpha", "1",
                 "--l", "1", "--i", "1", "--nx", "16", "--ny", "20",
                 "--out", str(stack_out)]) == 0
    data = json.loads(stack_out.read_text())
    assert {(lv["beta"], lv["l"], lv["comp"]) for lv in data["levels"]} == {
        (0, 1, 1), (1, 1, 1)}
    # successive runs extend the same stack artifact
    for spec in (("0", "1", "2"), ("0", "2", "1"), ("0", "2", "2")):
        assert main(["corrector", "--geometry", geometry_file, "--alpha", spec[0],
                     "--l", spec[1], "--i", spec[2], "--nx", "16", "--ny", "20",
                     "--out", str(stack_out)]) == 0
    data = json.loads(stack_out.read_text())
    assert len(data["levels"]) == 5
    law_out = tmp_path / "law.json"
    assert main(["wall-law", "--stack", str(stack_out), "--order", "2",
                 "--out", str(law_out)]) == 0
    law = json.loads(law_out.read_text())
    assert law["slip_length"] > 0
    assert (tmp_path / "law.csv").exists()
    # a corrector and a wall-law run in one process leave the numpy
    # submodules that scipy.sparse's array-API shim touches unexecuted
    corrector = ["corrector", "--geometry", geometry_file, "--alpha", "1", "--l", "2",
                 "--i", "1", "--nx", "16", "--ny", "20", "--out", str(stack_out)]
    wall_law = ["wall-law", "--stack", str(stack_out), "--order", "2", "--out", str(law_out)]
    out = _python(f"import sys; from stokesbl.cli import main; "
                  f"assert main({corrector!r}) == 0; assert main({wall_law!r}) == 0; "
                  f"print(sorted(m for m in {NUMPY_DEFERRED!r} if m in sys.modules))",
                  timeout=300)
    assert out.strip().splitlines()[-1] == "[]"


def test_stack_bytes_do_not_depend_on_how_its_runs_were_split(tmp_path, geometry_file):
    # one --alpha 3 run, and an --alpha 1 run extended by --alpha 3, write one file
    base = ["corrector", "--geometry", geometry_file, "--l", "1", "--i", "1",
            "--nx", "24", "--ny", "32"]
    whole, split = tmp_path / "whole.json", tmp_path / "split.json"
    assert main(base + ["--alpha", "3", "--out", str(whole)]) == 0
    for alpha in ("1", "3"):
        assert main(base + ["--alpha", alpha, "--out", str(split)]) == 0
    assert len(json.loads(whole.read_text())["levels"]) == 4
    assert whole.read_bytes() == split.read_bytes()


def test_corrector_rejects_mismatched_stack(tmp_path, geometry_file):
    stack_out = tmp_path / "stack.json"
    assert main(["corrector", "--geometry", geometry_file, "--alpha", "0",
                 "--l", "1", "--i", "1", "--nx", "16", "--ny", "20",
                 "--out", str(stack_out)]) == 0
    assert main(["corrector", "--geometry", geometry_file, "--alpha", "0",
                 "--l", "1", "--i", "1", "--nx", "24", "--ny", "20",
                 "--out", str(stack_out)]) == 2
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"fourier": [{"k": 0, "re": -0.5}, {"k": 2, "re": -0.1}]}))
    written = stack_out.read_bytes()
    assert main(["corrector", "--geometry", str(other), "--alpha", "0",
                 "--l", "1", "--i", "1", "--nx", "16", "--ny", "20",
                 "--out", str(stack_out)]) == 2
    assert stack_out.read_bytes() == written


def test_one_wall_is_one_geometry_however_its_modes_are_spelled(tmp_path, geometry_file):
    from stokesbl.geometry import BoundaryGeometry

    flat = BoundaryGeometry.from_fourier({0: 0.0, 3: 0j})
    assert flat == BoundaryGeometry.flat() and flat.digest() == BoundaryGeometry.flat().digest()
    assert flat.to_json_dict() == {"fourier": []}
    # nor does a signed zero or an int spell another wall
    tilted = BoundaryGeometry(((1, -0.0, 0.125), (0, -0.5, 0)))
    assert tilted.digest() == BoundaryGeometry.from_fourier({0: -0.5, 1: 0.125j}).digest()
    grid = ["--l", "1", "--i", "1", "--nx", "16", "--ny", "20"]
    stack_out = tmp_path / "stack.json"
    assert main(["corrector", "--geometry", geometry_file, "--alpha", "0", *grid,
                 "--out", str(stack_out)]) == 0
    # the stack's wall with an explicit zero mode extends the stack
    spelled = tmp_path / "spelled.json"
    spelled.write_text(json.dumps({"fourier": [{"k": 0, "re": -0.5}, {"k": 1, "re": -0.25},
                                               {"k": 2, "re": 0.0, "im": 0.0}]}))
    assert main(["corrector", "--geometry", str(spelled), "--alpha", "1", *grid,
                 "--out", str(stack_out)]) == 0
    assert len(json.loads(stack_out.read_text())["levels"]) == 2
    # a stack whose header keeps a zero-mode spelling, hashed as spelled (as
    # stacks were written before geometries dropped zero modes), still loads
    # and is extended by the same wall
    wall = {"fourier": [{"k": 0, "re": 0.0, "im": 0.0}]}
    (tmp_path / "flat.json").write_text(json.dumps(wall))
    flat_out = tmp_path / "flat_stack.json"
    assert main(["corrector", "--geometry", str(tmp_path / "flat.json"), "--alpha", "0", *grid,
                 "--out", str(flat_out)]) == 0
    data = json.loads(flat_out.read_text())
    assert data["geometry"] == {"fourier": []}
    data["geometry"] = wall
    data["geometry_hash"] = hashlib.sha256(
        json.dumps(wall, sort_keys=True).encode()).hexdigest()[:16]
    flat_out.write_text(json.dumps(data))
    assert main(["corrector", "--geometry", str(tmp_path / "flat.json"), "--alpha", "1", *grid,
                 "--out", str(flat_out)]) == 0
    data = json.loads(flat_out.read_text())
    assert data["geometry"] == {"fourier": []} and len(data["levels"]) == 2


def test_verify_symbolic_suite(capsys):
    assert main(["verify", "--suite", "symbolic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" - ")[0] for line in lines] == [
        "ACCEPTANCE 01 PASS", "ACCEPTANCE 02 PASS", "ACCEPTANCE 03 PASS",
        "ACCEPTANCE 04 PASS", "CHECK basis_residuals PASS"]


def test_verify_exits_4_on_a_failed_check(monkeypatch, capsys):
    from stokesbl import verify

    checks = [dataclasses.replace(c, run=lambda shared: (False, "forced"))
              if c.number == 2 else c for c in verify.CHECKS]
    monkeypatch.setattr(verify, "CHECKS", checks)
    assert main(["verify", "--suite", "symbolic"]) == 4
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if " FAIL " in line]
    assert failed == ["ACCEPTANCE 02 FAIL - degree-2 basis matches the four listed pairs"
                      " up to scalars [forced]"]
    assert "1 verification check(s) failed" in captured.err


def test_reproducible_artifacts(tmp_path, geometry_file):
    outs = []
    for run in ("a", "b"):
        prefix = str(tmp_path / f"run_{run}")
        assert main(["cell", "--geometry", geometry_file, "--l", "1", "--i", "1",
                     "--nx", "16", "--ny", "20", "--out", prefix + ".json"]) == 0
        outs.append((Path(prefix + ".json").read_bytes(),
                     Path(prefix + ".csv").read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_manifest_records_inputs(tmp_path):
    out = tmp_path / "basis.json"
    assert main(["basis", "--dim", "2", "--order", "1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "basis.manifest.json").read_text())
    assert "inputs_hash" in manifest and "versions" in manifest
    assert "basis.json" in manifest["artifacts"]
    assert manifest["config"]["order"] == 1


def test_manifest_records_threads_in_effect(tmp_path):
    from stokesbl import cli

    env_before = dict(os.environ)
    out = tmp_path / "basis.json"
    assert main(["basis", "--dim", "2", "--order", "1", "--out", str(out)]) == 0
    assert dict(os.environ) == env_before
    manifest = json.loads((tmp_path / "basis.manifest.json").read_text())
    assert manifest["threads"] == cli.THREADS_IN_EFFECT
    assert set(manifest["threads"]) == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert "threads_requested" not in manifest
    assert "threads" not in manifest["config"]
    assert manifest["affinity"] == sorted(os.sched_getaffinity(0))


def test_write_atomic_interleaved_writers_use_distinct_temp_files(tmp_path, monkeypatch):
    # a second write to the same path starts and lands while the first one
    # sits between writing its temp file and moving it into place
    from stokesbl import cli

    target = str(tmp_path / "out.json")
    real_replace = os.replace
    moved = []

    def interleaving_replace(src, dst):
        if not moved:
            moved.append(src)
            cli.write_atomic(target, "second\n")
        moved.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", interleaving_replace)
    assert cli.write_atomic(target, "first\n") == target
    assert len(moved) == 3 and moved[1] != moved[2]
    with open(target) as fh:
        assert fh.read() == "first\n"  # the last move wins, whole
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_atomic_cleans_up_and_keeps_file_mode(tmp_path, monkeypatch):
    from stokesbl import cli

    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    target = str(tmp_path / "out.json")
    cli.write_atomic(target, "ok\n")
    assert os.stat(target).st_mode == os.stat(plain).st_mode

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli.write_atomic(target, "lost\n")
    assert sorted(os.listdir(tmp_path)) == ["out.json", "plain.txt"]
    with open(target) as fh:
        assert fh.read() == "ok\n"


def test_solver_failure_exits_3_without_artifacts(tmp_path, geometry_file, monkeypatch, capsys):
    import stokesbl.cell

    stack = str(tmp_path / "stack.json")
    assert main(["corrector", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", stack]) == 0
    before = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(stokesbl.cell, "RESIDUAL_BOUND", -1.0)  # every solve misses it
    runs = {
        "cell": ["cell", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                 "--out", str(tmp_path / "c.json")],
        "corrector": ["corrector", "--geometry", geometry_file, "--nx", "16", "--ny", "20",
                      "--out", str(tmp_path / "s2.json")],
        "corrector (extending)": ["corrector", "--geometry", geometry_file, "--alpha", "1",
                                  "--nx", "16", "--ny", "20", "--out", stack],
        "wall-law (missing levels)": ["wall-law", "--stack", stack, "--order", "2",
                                      "--out", str(tmp_path / "w.json")],
        "regularity": ["regularity", "--geometry", geometry_file,
                       "--out", str(tmp_path / "r.json")],
        "verify": ["verify", "--suite", "numeric"],
    }
    for name, argv in runs.items():
        capsys.readouterr()
        assert main(argv) == 3, name
        assert "solver failure" in capsys.readouterr().err, name
        assert sorted(os.listdir(tmp_path)) == before, name  # no manifest, no artifact
