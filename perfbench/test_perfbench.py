"""Tests of the benchmark itself, at the tiny scale: metrics, checks, tracer clean-up."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("trajectory.traj_steps", "filters.min_eig_rows", "filters.projections_fired", "cli.output_bytes")


def tiny(workload, trace, tmp_path, seed=3):
    return run.run(workload, seed, 0, trace, workdir=tmp_path, scale="tiny", setup_repeats=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    lines, result = tiny(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = layers.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in specs]
    for name, unit, _ in specs:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
    assert not any(line.startswith(("FAILED", "not traced")) for line in lines)
    json.dumps(result, allow_nan=False)


def test_tracer_leaves_no_wrapped_attribute(tmp_path):
    from spinprobe import cli, trajectory, filters, generators, charfuncs

    modules = (cli, trajectory, filters, generators, charfuncs)
    before = [dict(vars(m)) for m in modules]
    for workload in workloads.WORKLOADS:
        tiny(workload, 1, tmp_path)
    for module, attrs in zip(modules, before):
        after = vars(module)
        assert set(after) == set(attrs)
        assert [k for k, v in attrs.items() if after[k] is not v] == []


def test_traced_counts_repeat_at_one_seed(tmp_path):
    first = tiny("spin_five_tower", 1, tmp_path / "a", seed=5)[1]["metrics"]
    second = tiny("spin_five_tower", 1, tmp_path / "b", seed=5)[1]["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "perfbench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "record_replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_corrupted_outputs(tmp_path):
    from spinprobe import cli

    for workload, label, name, column in (
        ("record_replay", "simulate_homodyne", "trajectory.csv", 3),
        ("spin_five_tower", "ensemble_limit", "ensemble.csv", 1),
        ("spin_half_charfunc", "charfunc_limit", "charfunc.csv", 4),
    ):
        commands = workloads.get(workload, "tiny").commands(3, 0)
        dirs = {c.label: tmp_path / workload / c.label for c in commands}
        _, codes = run.execute(cli, commands, dirs)
        assert run.verify(commands, dirs, codes)[0] == {}
        path = dirs[label] / name
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows[1:]:
            row[column] = repr(float(row[column]) + 3.0)
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        cmd = next(c for c in commands if c.label == label)
        assert workloads.CHECKS[cmd.check](cmd, dirs[label], dirs) is not None


def test_pool_worker_spans_take_the_callers_span_as_parent():
    import types
    from concurrent.futures import ThreadPoolExecutor

    from tracer import Target, Tracer, self_times

    mod = types.ModuleType("fake")
    mod.inner = lambda x: sum(range(x))

    def outer(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.inner, [20000] * n))

    mod.outer = outer
    original = (mod.inner, mod.outer)
    tracer = Tracer([Target(mod, "outer", "fake.outer", "a"), Target(mod, "inner", "fake.inner", "b")])
    with tracer:
        mod.outer(4)
    assert (mod.inner, mod.outer) == original
    top = next(s for s in tracer.spans if s.name == "fake.outer")
    inner = [s for s in tracer.spans if s.name == "fake.inner"]
    assert len(inner) == 4 and all(s.parent == top.sid and s.thread != top.thread for s in inner)
    assert 0.0 <= self_times(tracer.spans)[top.sid] <= top.end - top.start
