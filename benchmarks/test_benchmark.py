"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, SpanIndex, layer_metrics, union_length  # noqa: E402


# -- the tail percentile rule ------------------------------------------------


def test_tail_is_the_eleventh_slowest_op():
    lat = [float(i) for i in range(1, 101)]
    tail = run.tail_latency(lat)
    assert tail["value"] == 90.0
    assert tail["beyond"] == 10 and sum(x > tail["value"] for x in lat) == 10
    assert tail["percentile"] == pytest.approx(90.0)
    assert tail["samples"] == 100


def test_tail_with_eleven_samples_is_the_fastest():
    tail = run.tail_latency([5.0] + [9.0] * 10)
    assert tail["value"] == 5.0 and tail["beyond"] == 10


def test_tail_with_too_few_samples_falls_back_to_the_slowest():
    tail = run.tail_latency([3.0, 1.0, 2.0])
    assert tail == {"value": 3.0, "percentile": 100.0, "samples": 3, "beyond": 0}


# -- self time and busy time on synthetic spans ------------------------------


def _span(i, parent, name, start, end, thread=1, **kw):
    return Span(i, parent, name, float(start), float(end), 0, thread, **kw)


def test_union_length_merges_overlaps():
    assert union_length([(1, 3), (2, 5), (7, 8)]) == 5.0
    assert union_length([]) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, "cli.main", 0, 10),
        _span(1, 0, "graph_core.spectral_decompose", 1, 3),
        _span(2, 0, "teacher_kernel.kernel_matrix", 2, 5),  # overlaps its sibling
        _span(3, 0, "jsonio.dump_canonical", 8, 12),  # runs past the parent: clipped
        _span(4, 1, "graph_core.build_sbm", 1.5, 2.5),  # grandchild: not subtracted again
    ]
    ix = SpanIndex(spans)
    assert ix.self_time(spans[0]) == pytest.approx(10 - 4 - 2)
    assert ix.self_time(spans[1]) == pytest.approx(1.0)


def test_threaded_children_and_busy_time():
    # run_sweep on thread 1 waits while two runs execute on threads 2 and 3
    spans = [
        _span(0, None, "cli.main", 0, 11),
        _span(1, 0, "ssl_harness.run_sweep", 0.5, 10.5),
        _span(2, 1, "ssl_harness.run_experiment", 1, 6, thread=2),
        _span(3, 1, "ssl_harness.run_experiment", 2, 9, thread=3),
        _span(4, 2, "graph_core.spectral_decompose", 2, 4, thread=2),
        _span(5, 3, "graph_core.spectral_decompose", 3, 4, thread=3),
    ]
    ix = SpanIndex(spans)
    assert ix.self_time(spans[1]) == pytest.approx(10 - 8)  # union of the two runs
    m = layer_metrics(spans, n_ops=1, n_dac_ops=0)
    assert m["graph_core.decompose_s"] == pytest.approx(3.0)  # summed over threads
    assert m["graph_core.decompose_calls"] == 2
    assert m["ssl_harness.sweep_concurrency"] == pytest.approx((5 + 7) / 10)
    assert m["ssl_harness.run_s"] == pytest.approx(6.0)
    assert m["ssl_harness.loop_self_s_per_step"] == 0.0  # no steps recorded
    assert m["cli.self_s"] == pytest.approx(1.0)


def test_nested_repeats_count_once_in_busy_time():
    spans = [
        _span(0, None, "graph_core.build_two_blobs", 0, 4),
        _span(1, 0, "graph_core.lazy_graph", 1, 2),
        _span(2, None, "graph_core.lazy_graph", 5, 6),
    ]
    assert SpanIndex(spans).busy(*tracing.GRAPH_BUILDERS) == pytest.approx(5.0)


def test_size_limit_errors_count_where_raised():
    spans = [
        _span(0, None, "clustering_audit.theorem4_check", 0, 3, error="SizeLimitError"),
        _span(1, 0, "clustering_audit.lp_bound_oracle", 1, 2, error="SizeLimitError"),
        _span(2, 1, "clustering_audit.lp_primal_simplex", 1, 1.5, error="SizeLimitError"),
    ]
    m = layer_metrics(spans, n_ops=2, n_dac_ops=0)
    assert m["clustering_audit.size_limit_errors"] == 0.5


def test_every_metric_has_a_unit():
    assert set(layer_metrics([], n_ops=1, n_dac_ops=0)) == set(tracing.UNITS)


# -- failed-op accounting -----------------------------------------------------


def test_failed_ops_are_counted_and_excluded_from_latency():
    records = [
        {"latency": 1.0, "failed": False, "error": None},
        {"latency": 3.0, "failed": False, "error": None},
        {"latency": 0.5, "failed": True, "error": "N eigenvalues exceed the LP cap N"},
        {"latency": 0.5, "failed": True, "error": "N eigenvalues exceed the LP cap N"},
    ]
    s = run.summarize(records)
    assert s["attempted"] == 4 and s["failed"] == 2
    assert s["failed_frac"] == 0.5
    assert s["failures_by_class"] == {"N eigenvalues exceed the LP cap N": 2}
    assert s["ops_per_s"] == pytest.approx(2 / 5.0)  # failed ops' time still counts as busy
    assert s["op_p50_s"] == 2.0
    assert s["tail"]["value"] == 3.0


def test_error_class_masks_numbers():
    assert workloads.error_class("error: 48 eigenvalues exceed the LP cap 40\n") == \
        "N eigenvalues exceed the LP cap N"
    assert workloads.error_class("") == "missing report"


def test_compare_checks_verdicts_and_exit_status_exactly():
    ref = {"rc": 1, "verdicts": {"thm1": "pass", "thm4": "not-applicable"}}  # a precondition
    assert workloads.compare("k", {"rc": 1, "verdicts": {"thm1": "pass", "thm4": "not-applicable"}},
                             ref) == []
    problems = workloads.compare("k", {"rc": 0, "verdicts": {"thm1": "pass", "thm4": "pass"}}, ref)
    assert len(problems) == 2 and "thm4" in problems[0] and "exit status" in problems[1]
    problems = workloads.compare("k", {"rc": 1, "verdicts": {"thm1": "fail", "thm4": "not-applicable"}},
                                 ref)
    assert len(problems) == 1 and "thm1" in problems[0]


def test_open_verdict_may_change_but_never_to_fail():
    ref = {"rc": 1, "verdicts": {"thm5": "not-applicable"}, "open": ["thm5"]}
    assert workloads.compare("k", {"rc": 0, "verdicts": {"thm5": "pass"}}, ref) == []
    assert workloads.compare("k", {"rc": 1, "verdicts": {"thm5": "bound-undefined"}}, ref) == []
    assert workloads.compare("k", {"rc": 1, "verdicts": {"thm5": "not-applicable"}}, ref) == []
    assert workloads.compare("k", {"rc": 1, "verdicts": {"thm5": "fail"}}, ref) != []
    assert workloads.compare("k", {"rc": 2, "verdicts": {"thm5": "pass"}}, ref) != []


def test_only_size_limit_verdicts_are_open():
    obs = workloads._verdicts({"thm4": "not-applicable: minority mass exceeds half of some class",
                               "thm5": "not-applicable: expansion estimate not exhaustive"})
    assert obs == {"verdicts": {"thm4": "not-applicable", "thm5": "not-applicable"}, "open": ["thm5"]}


def test_reference_failure_accepts_a_written_result_without_a_failing_bound():
    ref = {"error": "N eigenvalues exceed the LP cap N"}
    assert workloads.compare("k", {"rc": 1, "verdicts": {"thm1": "pass", "thm4": "not-applicable"}},
                             ref) == []
    assert workloads.compare("k", {"rc": 1, "verdicts": {"thm1": "pass", "thm4": "fail"}}, ref) != []


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def test_op_failing_where_the_reference_completed_is_a_problem(tmp_path):
    op, configs = workloads.audit_op(10, 0, 0)
    pinned, _ = workloads.audit_op(48, *workloads.PINNED_AUDIT_48[0])
    reference = {op.key: {"rc": 0, "verdicts": {"thm1": "pass", "thm4": "pass"}},
                 pinned.key: {"error": "N eigenvalues exceed the LP cap N"}}
    runner = run.Runner(_RaisingCli, reference, tmp_path / "in", tmp_path / "out")
    rec = runner.execute(op)
    assert rec["failed"] and rec["error"] == "RuntimeError"
    assert runner.problems == [f"{op.key}: completed at the reference, now failed: RuntimeError"]
    runner.problems.clear()
    assert runner.execute(pinned)["failed"] and runner.problems == []


def test_sweep_runs_carry_the_sweep_exit_status():
    op, _ = workloads.ssl_op(16, 0.0, 5, (1, 2))
    assert workloads.reference_keys(op) == [workloads.ssl_run_key(16, 0.0, 5, s) for s in (1, 2)]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert all(reference[k]["rc"] == 0 for k in workloads.reference_keys(op))


# -- seeds and wrappers --------------------------------------------------------


def test_cycle_is_determined_by_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build_cycle(name, 3) == workloads.build_cycle(name, 3)
    a, _ = workloads.build_cycle("verify_cli", 1)
    b, _ = workloads.build_cycle("verify_cli", 2)
    assert [op.key for op in a] != [op.key for op in b]
    assert sum("audit|n=48" in op.key for op in a) == len(workloads.PINNED_AUDIT_48)


def test_verify_cli_mix_does_not_depend_on_the_seed():
    def fixed_part(seed):
        ops = workloads.build_cycle("verify_cli", seed)[0]
        return sorted(op.key for op in ops if op.command == "audit" or op.kind == "dac|ab n=32")

    def kinds(seed):
        return sorted(op.kind for op in workloads.build_cycle("verify_cli", seed)[0])

    assert fixed_part(1) == fixed_part(2)
    assert kinds(1) == kinds(2)
    audits = [k for k in fixed_part(1) if k.startswith("audit")]
    assert len(audits) == len(workloads.AUDIT_SIZES) * len(workloads.SBM_GRAPH_SEEDS) * \
        len(workloads.ROTATION_SEEDS) + len(workloads.PINNED_AUDIT_48)


def test_warmup_runs_one_op_of_each_kind():
    cycle = workloads.build_cycle("verify_cli", 5)[0]
    warm = workloads.warmup_ops(cycle)
    assert sorted(op.kind for op in warm) == sorted({op.kind for op in cycle})
    assert all(op in cycle for op in warm)


def test_every_derivable_op_has_a_reference():
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    for name in workloads.WORKLOADS:
        for seed in range(40):
            for op in workloads.build_cycle(name, seed)[0]:
                assert all(k in reference for k in workloads.reference_keys(op)), op.key


def test_wrappers_patch_every_namespace_and_restore():
    import rkdlab.cli
    import rkdlab.graph_core
    import rkdlab.spectral_rkd
    import rkdlab.ssl_harness

    original = rkdlab.graph_core.spectral_decompose
    forward = rkdlab.spectral_rkd.StudentModel.forward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = rkdlab.graph_core.spectral_decompose
        assert wrapped is not original
        for mod in (rkdlab.cli, rkdlab.spectral_rkd, rkdlab.ssl_harness):
            assert mod.spectral_decompose is wrapped
        assert rkdlab.spectral_rkd.StudentModel.forward is not forward
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert rkdlab.ssl_harness.spectral_decompose is original
    assert rkdlab.spectral_rkd.StudentModel.forward is forward


def test_missing_wrapped_name_is_recorded_absent(monkeypatch):
    monkeypatch.setitem(tracing.WRAPPED, "graph_core", ["no_such_function"])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["graph_core.no_such_function"]


# -- the command itself ----------------------------------------------------------


def _run(workload, trace, cwd=ROOT, seconds="0.1"):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_prints_layer_metrics():
    proc = _run("ssl_sweep_small", 1)
    assert proc.returncode == 0, proc.stderr
    span_file = ROOT / json.loads(proc.stdout.strip().splitlines()[-2])["detail"]["span_file"]
    assert span_file.is_file()
    span_file.unlink()
    with contextlib.suppress(OSError):
        span_file.parent.rmdir()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(tracing.UNITS) <= set(metrics)
    assert metrics["graph_core.decompose_calls"] == 12  # 3 per run, 4 runs per sweep op
    assert metrics["spectral_rkd.forward_calls_per_step"] == pytest.approx(801 / 400)
    assert metrics["ssl_harness.sweep_concurrency"] > 0


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("ssl_sweep_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
