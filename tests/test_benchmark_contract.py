"""The benchmark's reading contract: the report fields that `benchmarks/workloads.py` reads exist, and their values
match `benchmarks/reference.json`.

Each op below runs through `rkdlab.cli.main` in this process: the warm-up ops (the first op of each kind) of both
benchmarked workloads' cycles at seed 1, and every pooled `audit` and `dac` op.  Each written report goes through the
workloads module's own `observe` and `compare`; an op that writes no report must be one the reference records as
failed.  A report field renamed or moved away from where the benchmark reads it fails here, not only inside a
benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rkdlab.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARKS / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look the module up
_spec.loader.exec_module(workloads)

BENCHMARKED = ("ssl_sweep_small", "verify_cli")


def _ops() -> dict:
    """op key -> (op, its configs): the warm-up ops of each benchmarked cycle, then every pooled audit and dac op."""
    ops = {}
    for name in BENCHMARKED:
        cycle, configs = workloads.build_cycle(name, 1)
        for op in workloads.warmup_ops(cycle):
            ops[op.key] = (op, {op.config: configs[op.config]})
    for op, configs in workloads.all_reference_ops():
        if op.command in ("audit", "dac"):
            ops.setdefault(op.key, (op, configs))
    return ops


OPS = _ops()


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCHMARKS / "reference.json").read_text())


def test_the_set_covers_every_kind_the_benchmark_runs():
    kinds = {op.kind for op, _ in OPS.values()}
    assert {"ssl|n=16|lam=0", "ssl|n=16|lam=0.001", "rkd|n=10", "dac|ab n=32", "labels|cluster_wise|n=512",
            "labels|coreset_greedy|n=512"} <= kinds
    assert {k for k in kinds if k.startswith("audit")} == {f"audit|n={n}" for n in (10, 20, 32, 40, 48)}
    assert {k for k in kinds if k.startswith("dac|n=")} == {"dac|n=12", "dac|n=18"}


@pytest.mark.parametrize("key", list(OPS))
def test_the_benchmark_reads_each_report_as_recorded(tmp_path, reference, key, capsys):
    op, configs = OPS[key]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workloads.write_configs(configs, inputs)
    rc = main(op.argv(inputs, out))
    capsys.readouterr()
    if not all(path.exists() for path in op.report_paths(out)):
        assert all("error" in reference.get(k, {}) for k in workloads.reference_keys(op)), f"{key}: no report"
        return
    problems = [p for k, obs in workloads.observe(op, rc, out).items()
                for p in workloads.compare(k, obs, reference.get(k))]
    assert problems == []
