"""Span tracing from outside the program, and the per-layer metrics built on it.

``Tracer.install`` wraps named public functions of the ``rkdlab`` modules.  A
wrapper records one span per call: name, start, end, parent span, op id and
thread id, plus a few values read from the call's arguments or result.  Spans
stay in memory until ``write``.  A name that no longer exists is recorded as
absent; its counts read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# Layer (module) -> wrapped public names.  Dotted names are methods.
WRAPPED = {
    "cli": ["main"],
    "ssl_harness": ["run_sweep", "run_experiment", "build_graph_fixture",
                    "build_augmentation_fixture", "build_kernel_fixture", "acquire_labels",
                    "combined_loss", "persist_run"],
    "graph_core": ["spectral_decompose", "build_sbm", "build_two_blobs", "lazy_graph", "load_graph"],
    "teacher_kernel": ["kernel_matrix"],
    "spectral_rkd": ["StudentModel.forward", "population_rkd_loss", "train_student",
                     "check_gradient", "save_checkpoint", "save_loss_trace"],
    "clustering_audit": ["theorem1_check", "theorem4_check", "lp_bound_oracle",
                         "lp_primal_simplex", "lp_primal_greedy"],
    "dac_expansion": ["estimate_c_expansion", "constant_expansion_check", "theorem5_check",
                      "expansion_implication_check"],
    "label_acquisition": ["uniform_per_class_sample", "iid_sample", "cluster_wise_sample",
                          "stochastic_greedy", "save_labeled"],
    "jsonio": ["dump_canonical"],
}

GRAPH_BUILDERS = ("graph_core.build_sbm", "graph_core.build_two_blobs", "graph_core.lazy_graph",
                  "graph_core.load_graph")
LABEL_SAMPLERS = ("label_acquisition.uniform_per_class_sample", "label_acquisition.iid_sample",
                  "label_acquisition.cluster_wise_sample", "label_acquisition.stochastic_greedy")


def _train_iterations(bound, result):
    return {"iterations": int(bound.arguments["opt"].iterations)}


def _expansion_outcome(bound, result):
    return {"exhaustive": bool(result.exhaustive), "checked_subsets": int(result.checked_subsets)}


def _bytes_written(bound, result):
    return {"bytes": Path(bound.arguments["path"]).stat().st_size}


# Values recorded from a call, by span name.  A failing extractor records nothing.
EXTRACTORS = {
    "spectral_rkd.train_student": _train_iterations,
    "dac_expansion.estimate_c_expansion": _expansion_outcome,
    "jsonio.dump_canonical": _bytes_written,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int
    thread: int
    error: str | None = None
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack = []
        self._restore = []

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Start a new op on the calling thread."""
        self.op = op_id
        self._local.stack = self._op_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)
        signature = inspect.signature(fn) if extract else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # in a worker thread of the op (run_sweep's pool) the cause is the
            # span the op's own thread is blocked in
            cause = stack or tracer._op_stack
            parent = cause[-1] if cause else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = {}
                if extract is not None and error is None:
                    try:
                        extra = extract(signature.bind(*args, **kwargs), result)
                    except Exception:
                        extra = {}
                tracer.spans.append(Span(span_id, parent, name, start, end, tracer.op,
                                         threading.get_ident(), error, extra))

        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED, in every rkdlab namespace that holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rkdlab" or n.startswith("rkdlab.")]
        for layer, names in WRAPPED.items():
            try:
                module = importlib.import_module(f"rkdlab.{layer}")
            except ImportError:
                self.absent += [f"{layer}.{n}" for n in names]
                continue
            for qual in names:
                span_name = f"{layer}.{qual.rsplit('.', 1)[-1]}"
                owner_path, _, attr = qual.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None or not callable(original):
                    self.absent.append(span_name)
                    continue
                wrapper = self._wrap(span_name, original)
                if owner_path:  # a method: patch the class once
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Parent/child lookups and self times over a list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans (any thread) cover."""
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in self.children.get(span.id, ())]
        covered = union_length([(a, b) for a, b in kids if b > a])
        return (span.end - span.start) - covered

    def ancestors(self, span: Span):
        p = self.by_id.get(span.parent)
        while p is not None:
            yield p
            p = self.by_id.get(p.parent)

    def named(self, *names) -> list:
        return [s for s in self.spans if s.name in names]

    def outermost(self, *names) -> list:
        """Spans with one of `names` that have no ancestor with one of `names`."""
        return [s for s in self.named(*names)
                if not any(a.name in names for a in self.ancestors(s))]

    def busy(self, *names) -> float:
        """Inclusive time in `names`, summed over threads, nested repeats counted once."""
        return sum(s.end - s.start for s in self.outermost(*names))

    def self_busy(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))


UNITS = {
    "graph_core.decompose_calls": "count",
    "graph_core.decompose_s": "s",
    "graph_core.build_s": "s",
    "teacher_kernel.kernel_matrix_s": "s",
    "teacher_kernel.kernel_matrix_calls": "count",
    "spectral_rkd.forward_calls_per_step": "count",
    "spectral_rkd.forward_s": "s",
    "spectral_rkd.population_loss_calls": "count",
    "spectral_rkd.population_loss_s": "s",
    "spectral_rkd.train_student_s": "s",
    "spectral_rkd.train_steps_per_s": "1/s",
    "spectral_rkd.grad_check_s": "s",
    "clustering_audit.thm1_self_s": "s",
    "clustering_audit.thm4_self_s": "s",
    "clustering_audit.lp_oracle_calls": "count",
    "clustering_audit.lp_oracle_s": "s",
    "clustering_audit.lp_simplex_share": "ratio",
    "clustering_audit.size_limit_errors": "count",
    "dac_expansion.enumerations_per_op": "count",
    "dac_expansion.exhaustive_s": "s",
    "dac_expansion.sampled_s": "s",
    "dac_expansion.subsets_per_s": "1/s",
    "label_acquisition.acquire_s": "s",
    "label_acquisition.acquire_calls": "count",
    "ssl_harness.steps_per_s": "1/s",
    "ssl_harness.loop_self_s_per_step": "s",
    "ssl_harness.combined_loss_s_per_step": "s",
    "ssl_harness.run_s": "s",
    "ssl_harness.sweep_concurrency": "ratio",
    "ssl_harness.persist_s": "s",
    "jsonio.dump_s": "s",
    "jsonio.bytes_written": "bytes",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, n_ops: int, n_dac_ops: int) -> dict:
    """Per-layer metrics from the spans of `n_ops` traced ops.

    Times and counts are per op unless the name says otherwise; times are busy
    time summed over threads.
    """
    ix = SpanIndex(spans)
    per_op = functools.partial(_ratio, den=float(n_ops))
    runs = ix.named("ssl_harness.run_experiment")
    steps = len(ix.named("ssl_harness.combined_loss"))
    in_run = [s for s in ix.named("spectral_rkd.forward")
              if any(a.name == "ssl_harness.run_experiment" for a in ix.ancestors(s))]
    estimates = ix.named("dac_expansion.estimate_c_expansion")
    exhaustive = [s for s in estimates if s.extra.get("exhaustive")]
    sampled = [s for s in estimates if s.extra and not s.extra.get("exhaustive")]
    enumerating = exhaustive + ix.named("dac_expansion.constant_expansion_check")
    trains = ix.named("spectral_rkd.train_student")
    sweep_runs = [s for s in runs if any(a.name == "ssl_harness.run_sweep" for a in ix.ancestors(s))]
    errors = [s for s in ix.named("clustering_audit.lp_primal_simplex", "clustering_audit.lp_primal_greedy",
                                  "clustering_audit.lp_bound_oracle", "clustering_audit.theorem4_check",
                                  "clustering_audit.theorem1_check")
              if s.error == "SizeLimitError"
              and not any(c.error == "SizeLimitError" for c in ix.children.get(s.id, ()))]
    dur = lambda group: sum(s.end - s.start for s in group)  # noqa: E731
    return {
        "graph_core.decompose_calls": per_op(len(ix.named("graph_core.spectral_decompose"))),
        "graph_core.decompose_s": per_op(ix.busy("graph_core.spectral_decompose")),
        "graph_core.build_s": per_op(ix.busy(*GRAPH_BUILDERS)),
        "teacher_kernel.kernel_matrix_s": per_op(ix.busy("teacher_kernel.kernel_matrix")),
        "teacher_kernel.kernel_matrix_calls": per_op(len(ix.named("teacher_kernel.kernel_matrix"))),
        "spectral_rkd.forward_calls_per_step": _ratio(len(in_run), steps),
        "spectral_rkd.forward_s": per_op(ix.busy("spectral_rkd.forward")),
        "spectral_rkd.population_loss_calls": per_op(len(ix.named("spectral_rkd.population_rkd_loss"))),
        "spectral_rkd.population_loss_s": per_op(ix.busy("spectral_rkd.population_rkd_loss")),
        "spectral_rkd.train_student_s": per_op(ix.busy("spectral_rkd.train_student")),
        "spectral_rkd.train_steps_per_s": _ratio(sum(s.extra.get("iterations", 0) for s in trains),
                                                 dur(trains)),
        "spectral_rkd.grad_check_s": per_op(ix.busy("spectral_rkd.check_gradient")),
        "clustering_audit.thm1_self_s": per_op(ix.self_busy("clustering_audit.theorem1_check")),
        "clustering_audit.thm4_self_s": per_op(ix.self_busy("clustering_audit.theorem4_check")),
        "clustering_audit.lp_oracle_calls": per_op(len(ix.named("clustering_audit.lp_bound_oracle"))),
        "clustering_audit.lp_oracle_s": per_op(ix.busy("clustering_audit.lp_bound_oracle")),
        "clustering_audit.lp_simplex_share": _ratio(ix.busy("clustering_audit.lp_primal_simplex"),
                                                    ix.busy("clustering_audit.lp_bound_oracle")),
        "clustering_audit.size_limit_errors": per_op(len(errors)),
        "dac_expansion.enumerations_per_op": _ratio(len(enumerating), n_dac_ops),
        "dac_expansion.exhaustive_s": per_op(dur(enumerating)),
        "dac_expansion.sampled_s": per_op(dur(sampled)),
        "dac_expansion.subsets_per_s": _ratio(sum(s.extra.get("checked_subsets", 0) for s in estimates),
                                              dur(estimates)),
        "label_acquisition.acquire_s": per_op(ix.busy(*LABEL_SAMPLERS)),
        "label_acquisition.acquire_calls": per_op(len(ix.outermost(*LABEL_SAMPLERS))),
        "ssl_harness.steps_per_s": _ratio(steps, dur(runs)),
        "ssl_harness.loop_self_s_per_step": _ratio(ix.self_busy("ssl_harness.run_experiment"), steps),
        "ssl_harness.combined_loss_s_per_step": _ratio(ix.busy("ssl_harness.combined_loss"), steps),
        "ssl_harness.run_s": _ratio(dur(runs), len(runs)),
        "ssl_harness.sweep_concurrency": _ratio(dur(sweep_runs), ix.busy("ssl_harness.run_sweep")),
        "ssl_harness.persist_s": per_op(ix.busy("ssl_harness.persist_run")),
        "jsonio.dump_s": per_op(ix.busy("jsonio.dump_canonical")),
        "jsonio.bytes_written": per_op(sum(s.extra.get("bytes", 0)
                                           for s in ix.named("jsonio.dump_canonical"))),
        "cli.self_s": per_op(ix.self_busy("cli.main")),
    }
