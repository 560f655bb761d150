"""Spans nest, self times are non-negative and account for the traced wall time."""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_span_table_on_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],     # nested in a span of the same name
        ["c", 5.0, 9.0, 0],
    ]
    table = tracing.span_table(spans)
    assert table["a"] == {"count": 1, "total": 10.0, "self": 3.0}
    assert table["b"] == {"count": 2, "total": 3.0, "self": 3.0}
    assert table["c"] == {"count": 1, "total": 4.0, "self": 4.0}
    assert sum(tracing.self_times(spans)) == 10.0


def test_traced_cli_run_accounts_for_its_wall_time(tmp_path):
    harness = run.Harness(str(tmp_path))
    geometry = tmp_path / "geometry.json"
    geometry.write_text(json.dumps(inputs.geometry_json(inputs.geometries(0)[0])))
    argv = ["corrector", "--geometry", str(geometry), "--nx", "16", "--ny", "16",
            "--alpha", "1", "--out", "stack.json"]
    proc = harness.spawn(["cli", "--trace", "--", *argv], str(tmp_path), "corrector")
    assert proc["rc"] == 0
    [traced] = run.trace_processes([proc])
    spans = traced["spans"]
    wall = proc["t_exit"] - proc["t_spawn"]

    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    # everything is on one blocking path: self times add up to the wall time
    assert abs(sum(own) - wall) <= 1e-6 * wall
    # named layers cover all but interpreter start and exit (~0.15 s here)
    assert run.coverage([traced], [(proc["t_spawn"], proc["t_exit"])]) > 0.5

    layers = tracing.layer_metrics([traced])
    assert layers["cell.factor.count"] == 2          # levels beta = 0 and 1
    assert layers["cell.factor.distinct"] == 1
    assert layers["recursion.level.solved"] == 2
    assert layers["cli.bytes_written"] > 0 and layers["proc.count"] == 1
    assert layers["cell.refine.passes"] >= 0
    assert all(value >= 0 for value in layers.values())


def test_benchmark_json_names_every_metric_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {name: unit for name, (_, _, unit) in tracing.LAYER_METRICS.items()}
    layer_units.update(tracing.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
