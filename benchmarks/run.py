"""rkdlab benchmark: closed loop, one client, ops run in process through the CLI.

    python3 benchmarks/run.py --workload ssl_sweep_small --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each op calls ``rkdlab.cli.main`` on
config files generated from the workload seed, exactly as the ``rkdlab``
command would.  An untimed warm-up runs one op of each kind; the timed phase
then repeats the workload's op cycle and stops at the end of the first whole
cycle after ``--seconds``.  Every op's output is checked against
``reference.json``; a repeated (config, seed) must write byte-identical files.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one cycle
untraced after the warm-up, then wraps the layers' public functions (see
``tracing.py``) and prints per-layer metrics from the traced cycles, with the
untraced and traced mean op latency that give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, tail percentile, failures by class, checks).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up probes, half before and half after the timed phase, so that their
# median does not rest on one moment of a machine whose speed drifts.
SETUP_REPEATS = 4
TAIL_BEYOND = 10
MAX_REPORTED_PROBLEMS = 20

# Imports and generates a workload's inputs in a fresh interpreter.
SETUP_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import rkdlab.cli
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]), sys.argv[5])
"""


def tail_latency(latencies) -> dict:
    """Latency at the highest percentile that has at least ten samples beyond it.

    That is the eleventh slowest op.  With ten samples or fewer no percentile
    qualifies, and the slowest op is reported, marked with percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("no completed ops")
    if n <= TAIL_BEYOND:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    idx = n - TAIL_BEYOND - 1
    return {"value": ordered[idx], "percentile": 100.0 * (idx + 1) / n, "samples": n,
            "beyond": TAIL_BEYOND}


def summarize(records) -> dict:
    """End-to-end figures of a list of op records; failed ops are excluded from
    throughput and latency but their time counts in the busy time."""
    ok = [r["latency"] for r in records if not r["failed"]]
    busy = sum(r["latency"] for r in records)
    failures = {}
    for r in records:
        if r["failed"]:
            failures[r["error"]] = failures.get(r["error"], 0) + 1
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "failed_frac": (len(records) - len(ok)) / len(records) if records else 0.0,
        "failures_by_class": failures,
        "ops_per_s": len(ok) / busy if busy > 0 else 0.0,
        "op_p50_s": statistics.median(ok) if ok else 0.0,
        "tail": tail_latency(ok) if ok else None,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def git_commit() -> str:
    """HEAD of the checkout; git does not look above it for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def time_setup(workload: str, seed: int, scratch: Path, repeats: int) -> list:
    """Wall time of fresh interpreters that import rkdlab.cli and generate inputs."""
    samples = []
    for i in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed),
             str(scratch / f"setup_{i}")],
            capture_output=True, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return samples


class Runner:
    """Runs ops one at a time and checks each one's output."""

    def __init__(self, cli, reference: dict, inputs: Path, outputs: Path):
        self.cli = cli
        self.reference = reference
        self.inputs = inputs
        self.outputs = outputs
        self.digests = {}
        self.problems = []
        self.count = 0

    def execute(self, op, tracer=None) -> dict:
        out = self.outputs / op.slug()
        if out.exists():
            shutil.rmtree(out)
        argv = op.argv(self.inputs, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        gc.collect()  # the previous op's garbage is not collected inside this op's timed span
        if tracer is not None:
            tracer.begin_op(self.count)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc, error = exc.code, "SystemExit"
            except Exception as exc:  # an uncaught program error is a failed op, not a crash
                rc, error = None, type(exc).__name__
            latency = time.perf_counter() - start
        self.count += 1
        wrote = all(p.exists() for p in op.report_paths(out))
        failed = error is not None or not wrote
        if failed and error is None:
            error = workloads.error_class(stderr.getvalue())
        if failed:
            for key in workloads.reference_keys(op):
                ref = self.reference.get(key)
                if ref is None or "error" not in ref:
                    self.problems.append(f"{key}: completed at the reference, now failed: {error}")
        else:
            self.check(op, rc, out)
        return {"key": op.key, "command": op.command, "latency": latency, "failed": failed,
                "error": error, "rc": rc, "out": out}

    def check(self, op, rc, out: Path) -> None:
        for key, obs in workloads.observe(op, rc, out).items():
            self.problems += workloads.compare(key, obs, self.reference.get(key))
        digests = workloads.file_digests(out)
        first = self.digests.setdefault(op.key, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests) if first.get(k) != digests.get(k))
            self.problems.append(f"{op.key}: repeated op wrote different bytes in {changed}")

    def run_cycles(self, cycle, seconds: float, tracer=None) -> list:
        """Whole cycles until `seconds` have passed (at least one)."""
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            records += [self.execute(op, tracer) for op in cycle]
        return records


def load_program():
    """Import rkdlab from this checkout's sources, never from an installed copy."""
    if not (SRC / "rkdlab" / "cli.py").is_file():
        raise SystemExit(f"error: no rkdlab sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rkdlab
    import rkdlab.cli

    if Path(rkdlab.__file__).resolve().parent != (SRC / "rkdlab").resolve():
        raise SystemExit(f"error: imported rkdlab from {rkdlab.__file__}, not from {SRC}")
    return rkdlab.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=tmp_root))
    try:
        setup = time_setup(args.workload, args.seed, scratch / "setup_before", SETUP_REPEATS // 2)
        inputs = scratch / "inputs"
        cycle = workloads.generate(args.workload, args.seed, inputs)
        runner = Runner(cli, reference, inputs, scratch / "out")
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "cycle_ops": len(cycle), "environment": environment()}
        warmup = [runner.execute(op) for op in workloads.warmup_ops(cycle)]  # checked, not timed
        detail["warmup_op_latencies_s"] = [round(r["latency"], 6) for r in warmup]
        if args.trace:
            metrics, records, extra = traced_run(runner, cycle, args)
            detail.update(extra)
        else:
            records = runner.run_cycles(cycle, args.seconds)
            setup += time_setup(args.workload, args.seed, scratch / "setup_after",
                                SETUP_REPEATS - SETUP_REPEATS // 2)
            summary = summarize(records)
            if summary["tail"] is None:
                raise RuntimeError(f"every op failed: {summary['failures_by_class']}")
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (summary["ops_per_s"], "1/s"),
                "op_p50_s": (summary["op_p50_s"], "s"),
                "op_tail_s": (summary["tail"]["value"], "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            detail.update(summary, setup_samples_s=setup)
        detail["per_command_p50_s"] = per_command_p50(records)
        detail["op_latencies_s"] = [round(r["latency"], 6) for r in records]
        detail["problems"] = runner.problems[:MAX_REPORTED_PROBLEMS]
        detail["problem_count"] = len(runner.problems)
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps({
            "correct": not runner.problems,
            "attempted": len(records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    return 0


def per_command_p50(records) -> dict:
    by = {}
    for r in records:
        if not r["failed"]:
            by.setdefault(r["command"], []).append(r["latency"])
    return {k: {"p50": statistics.median(v), "n": len(v)} for k, v in sorted(by.items())}


def traced_run(runner: Runner, cycle, args):
    """One untraced cycle, then traced whole cycles until --seconds have passed."""
    start = time.perf_counter()
    untraced = runner.run_cycles(cycle, 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        remaining = args.seconds - (time.perf_counter() - start)
        records = runner.run_cycles(cycle, remaining, tracer)
    finally:
        tracer.uninstall()
    span_file = ROOT / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.jsonl"
    tracer.write(span_file)
    n_dac = sum(r["command"] == "dac" for r in records)
    layers = tracing.layer_metrics(tracer.spans, len(records), n_dac)
    metrics = {k: (v, tracing.UNITS[k]) for k, v in layers.items()}
    traced_mean = statistics.mean(r["latency"] for r in records)  # whole cycles on both sides
    untraced_mean = statistics.mean(r["latency"] for r in untraced)
    summary = summarize(records)
    metrics["failed_frac"] = (summary["failed_frac"], "fraction")
    metrics["trace.untraced_op_s"] = (untraced_mean, "s")
    metrics["trace.traced_op_s"] = (traced_mean, "s")
    extra = {"absent_wrapped": tracer.absent, "span_count": len(tracer.spans),
             "span_file": str(span_file.relative_to(ROOT)),
             "trace_overhead_s_per_op": traced_mean - untraced_mean,
             "failures_by_class": summary["failures_by_class"]}
    return metrics, untraced + records, extra


if __name__ == "__main__":
    sys.exit(main())
