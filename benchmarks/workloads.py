"""The benchmark's workloads: config generation, the op cycle, and per-op checks.

An *op* is one ``rkdlab.cli.main`` invocation.  A workload is a fixed cycle of
ops whose fixture seeds are drawn from the workload seed.  Every seed comes
from a small pool, so ``reference.json`` can hold the expected outcome of every
op any workload seed can produce (``record_reference.py`` rebuilds it).

This module must not import ``rkdlab``: the set-up probe times that import.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("ssl_sweep_small", "ssl_large", "verify_cli")

# Seed pools.  Every derived seed is drawn from one of these.
SSL_GRAPH_SEEDS = (5, 6, 7, 8)
SSL_SEEDS = tuple(range(1, 9))
SWEEP_WIDTH = 4
LARGE_GRAPH_SEEDS = (5, 6)
LARGE_SEEDS = (1, 2, 3, 4)
SBM_GRAPH_SEEDS = tuple(range(8))
ROTATION_SEEDS = tuple(range(4))
RKD_SEEDS = (1, 2, 3, 4)
BLOB_GRAPH_SEEDS = (5, 6, 7, 8)
LABEL_SEEDS = (1, 2, 3, 4)
LAMBDAS = (0.0, 0.001)
AUDIT_SIZES = (10, 20, 32, 40)
# (size, ops per cycle) of the chain-augmented SBM dac ops.
DAC_SIZES = ((12, 2), (18, 2))
# Known defect kept in the mix on purpose: at this size, graph seeds 0 and 4
# with rotation seed 7 abort with "48 eigenvalues exceed the LP cap 40".
PINNED_AUDIT_48 = ((0, 7), (4, 7))

# Tolerances of the per-op reference checks.
ACCURACY_ABS_TOL = 1e-9  # accuracy is a vertex-count ratio: any tolerance below one vertex is exact
C_HAT_REL_TOL = 1e-9
LOSS_REL_TOL = 1e-6
GAP_ABS_TOL = 1e-9
# Verdicts that record an oracle skipped for a size limit a later commit may
# lift.  Such a verdict may later read anything but "fail" (ROADMAP item 3
# expects "bound-undefined" for the A/B fixture); every other verdict,
# "not-applicable" preconditions included, must match exactly.
OPEN_VERDICTS = (
    "not-applicable: expansion estimate not exhaustive",
    "not-applicable: graph above the exhaustive cap",
)

# Files excluded from the repeated-op byte comparison (wall-clock content).
NONDETERMINISTIC_FILES = ("timing.json",)


@dataclass(frozen=True)
class Op:
    key: str  # identifies (command, config, seed); repeated keys must give identical bytes
    command: str
    config: str  # config file name inside the inputs directory
    seeds: tuple  # SSL seeds (sweep or single run), or the --seed of other commands
    report: str  # file whose existence marks a written result

    def argv(self, inputs: Path, out: Path) -> list:
        argv = [self.command, "--config", str(inputs / self.config)]
        if self.command == "ssl" and len(self.seeds) > 1:
            argv += ["--sweep", ",".join(str(s) for s in self.seeds)]
        elif self.seeds:
            argv += ["--seed", str(self.seeds[0])]
        return argv + ["--out", str(out)]

    @property
    def kind(self) -> str:
        """The key without its seeds: ops of one kind run the same code path."""
        return "|".join(p for p in self.key.split("|") if not p.startswith(("g=", "rot=", "seed")))

    def slug(self) -> str:
        return hashlib.sha256(self.key.encode()).hexdigest()[:16]

    def report_paths(self, out: Path) -> list:
        if self.command == "ssl" and len(self.seeds) > 1:
            return [out / f"seed_{s}" / self.report for s in self.seeds]
        return [out / self.report]


# ---------------------------------------------------------------------------
# configs


def ab_config(n_per_class: int, lam_rkd: float, graph_seed: int, labels=None) -> dict:
    """The acceptance A/B config (two blobs, split_chain parts 4, table student,
    400 steps, 64 RKD pairs) at a chosen size and relational weight."""
    return {
        "graph": {"kind": "two_blobs", "n_per_class": n_per_class, "separation": 4.0,
                  "noise": 0.6, "bandwidth": 1.2, "seed": graph_seed},
        "augmentation": {"kind": "split_chain", "parts": 4},
        "kernel": {"kind": "graph_revealing"},
        "student": {"arch": "table", "init_scale": 0.05},
        "loss": {"lambda_dac": 1.0, "lambda_rkd": lam_rkd, "tau_dac": 0.95, "temperature": 1.0},
        "labels": labels or {"strategy": "uniform_per_class", "n_per_class": 4},
        "optimizer": {"step_size": 0.5, "iterations": 400, "momentum": 0.9, "rkd_pairs": 64},
        "seed": 1,
        "tolerances": {},
        "out_dir": None,
    }


def sbm_config(size: int, graph_seed: int) -> dict:
    """Chain-augmented lazy two-block SBM (p_in 0.9, p_out 0.05), 20 audit rotations."""
    return {
        "graph": {"kind": "sbm", "num_classes": 2, "sizes": [size // 2, size - size // 2],
                  "p_in": 0.9, "p_out": 0.05, "seed": graph_seed, "lazy": True},
        "augmentation": {"kind": "chain"},
        "kernel": {"kind": "graph_revealing"},
        "student": {"arch": "table", "init_scale": 0.05},
        "loss": {"lambda_dac": 1.0, "lambda_rkd": 0.001, "tau_dac": 0.95, "temperature": 1.0},
        "labels": {"strategy": "uniform_per_class", "n_per_class": 2},
        "optimizer": {"step_size": 0.4, "iterations": 2500, "momentum": 0.9,
                      "sampler": "exhaustive"},
        "seed": 0,
        "tolerances": {"audit_rotations": 20},
        "out_dir": None,
    }


LABEL_STRATEGIES = {
    "cluster_wise": {"strategy": "cluster_wise", "delta": 0.1},
    "coreset_greedy": {"strategy": "coreset_greedy", "budget": 16, "epsilon": 0.1},
}


# ---------------------------------------------------------------------------
# op constructors; each returns (op, {config name: config dict})


def ssl_op(n_per_class: int, lam: float, graph_seed: int, seeds) -> tuple:
    name = f"ssl_n{n_per_class}_lam{lam:g}_g{graph_seed}.json"
    seeds = tuple(int(s) for s in seeds)
    key = f"ssl|n={n_per_class}|lam={lam:g}|g={graph_seed}|seeds={','.join(map(str, seeds))}"
    return Op(key, "ssl", name, seeds, "run_result.json"), {name: ab_config(n_per_class, lam, graph_seed)}


def ssl_run_key(n_per_class: int, lam: float, graph_seed: int, seed: int) -> str:
    """Reference key of one SSL run; a sweep is checked run by run."""
    return f"ssl|n={n_per_class}|lam={lam:g}|g={graph_seed}|seed={seed}"


def rkd_op(graph_seed: int, seed: int) -> tuple:
    name = f"sbm10_g{graph_seed}.json"
    return (Op(f"rkd|n=10|g={graph_seed}|seed={seed}", "rkd", name, (seed,), "rkd_report.json"),
            {name: sbm_config(10, graph_seed)})


def audit_op(size: int, graph_seed: int, rotation_seed: int) -> tuple:
    name = f"sbm{size}_g{graph_seed}.json"
    return (Op(f"audit|n={size}|g={graph_seed}|rot={rotation_seed}", "audit", name,
               (rotation_seed,), "audit_report.json"),
            {name: sbm_config(size, graph_seed)})


def dac_sbm_op(size: int, graph_seed: int) -> tuple:
    name = f"sbm{size}_g{graph_seed}.json"
    return (Op(f"dac|n={size}|g={graph_seed}", "dac", name, (), "dac_report.json"),
            {name: sbm_config(size, graph_seed)})


def dac_ab_op(graph_seed: int) -> tuple:
    name = f"ab16_g{graph_seed}.json"
    return (Op(f"dac|ab n=32|g={graph_seed}", "dac", name, (), "dac_report.json"),
            {name: ab_config(16, 0.001, graph_seed)})


def labels_op(strategy: str, graph_seed: int, seed: int) -> tuple:
    name = f"labels_{strategy}_g{graph_seed}.json"
    cfg = ab_config(256, 0.001, graph_seed, labels=LABEL_STRATEGIES[strategy])
    return (Op(f"labels|{strategy}|n=512|g={graph_seed}|seed={seed}", "labels", name, (seed,),
               "label_report.json"),
            {name: cfg})


# ---------------------------------------------------------------------------
# workload cycles


def _pick(rng: np.random.Generator, pool, k: int = 1) -> list:
    return [pool[int(i)] for i in rng.choice(len(pool), size=k, replace=False)]


def build_cycle(workload: str, seed: int) -> tuple:
    """The op cycle of a workload and the configs it needs, both determined by seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    made = []
    if workload == "ssl_sweep_small":
        g = _pick(rng, SSL_GRAPH_SEEDS)[0]
        seeds = sorted(_pick(rng, SSL_SEEDS, SWEEP_WIDTH))
        made = [ssl_op(16, lam, g, seeds) for lam in LAMBDAS]
    elif workload == "ssl_large":
        g = _pick(rng, LARGE_GRAPH_SEEDS)[0]
        made = [ssl_op(1024, 0.001, g, _pick(rng, LARGE_SEEDS))]
    else:
        made.append(rkd_op(_pick(rng, SBM_GRAPH_SEEDS)[0], _pick(rng, RKD_SEEDS)[0]))
        # The graph and the rotation decide whether thm4 reaches its LP and what
        # an audit costs, so each size audits every pooled (graph, rotation)
        # pair and the seed only orders them: seed-drawn pairs moved the median
        # op, an audit, by up to 7% from seed to seed.
        audits = [(size, g, r) for size in AUDIT_SIZES for g in SBM_GRAPH_SEEDS
                  for r in ROTATION_SEEDS]
        made += [audit_op(*audits[int(i)]) for i in rng.permutation(len(audits))]
        made += [audit_op(48, g, r) for g, r in PINNED_AUDIT_48]
        for size, count in DAC_SIZES:
            made += [dac_sbm_op(size, g) for g in _pick(rng, SBM_GRAPH_SEEDS, count)]
        # The sampled dac op is the slowest, and its cost differs by up to 30%
        # between blob graphs, so every cycle runs it on each pooled graph.  A
        # run's cost then does not depend on the seed, and since a 40 s run
        # holds at least 3 cycles, its eleventh slowest op is one of these.
        made += [dac_ab_op(g) for g in _pick(rng, BLOB_GRAPH_SEEDS, len(BLOB_GRAPH_SEEDS))]
        g, s = _pick(rng, BLOB_GRAPH_SEEDS)[0], _pick(rng, LABEL_SEEDS)[0]
        made += [labels_op(strategy, g, s) for strategy in LABEL_STRATEGIES]
    ops = [op for op, _ in made]
    configs = {}
    for _, cfgs in made:
        configs.update(cfgs)
    return ops, configs


def warmup_ops(cycle) -> list:
    """The first op of each kind, run untimed before the timed phase: later
    cycles run faster than a process's first, for every kind of op."""
    seen, ops = set(), []
    for op in cycle:
        if op.kind not in seen:
            seen.add(op.kind)
            ops.append(op)
    return ops


def write_configs(configs: dict, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs.items():
        (inputs / name).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def generate(workload: str, seed: int, inputs: Path) -> list:
    """Write the workload's config files into `inputs` and return its op cycle."""
    ops, configs = build_cycle(workload, seed)
    write_configs(configs, Path(inputs))
    return ops


# ---------------------------------------------------------------------------
# outcomes and checks


def category(verdict) -> str:
    """The verdict category: the text before the first ':'."""
    return str(verdict).split(":", 1)[0].strip()


def error_class(stderr: str) -> str:
    """A stable class for a failed op: its error message with numbers masked."""
    lines = [ln for ln in stderr.strip().splitlines() if ln.startswith("error:")]
    if not lines:
        return "missing report"
    return re.sub(r"\d+(\.\d+)?", "N", lines[-1][len("error:"):].strip())


def _ssl_params(op: Op):
    m = re.match(r"ssl\|n=(\d+)\|lam=([^|]+)\|g=(\d+)\|", op.key)
    return int(m.group(1)), float(m.group(2)), int(m.group(3))


def reference_keys(op: Op) -> list:
    """Reference keys an op is checked against; a sweep is checked run by run."""
    if op.command == "ssl":
        n, lam, g = _ssl_params(op)
        return [ssl_run_key(n, lam, g, s) for s in op.seeds]
    return [op.key]


def _verdicts(full: dict) -> dict:
    """Verdict categories, and the names whose verdict is an open one."""
    obs = {"verdicts": {k: category(v) for k, v in sorted(full.items())}}
    opened = sorted(k for k, v in full.items() if v in OPEN_VERDICTS)
    if opened:
        obs["open"] = opened
    return obs


def observe(op: Op, rc: int, out: Path) -> dict:
    """Reference key -> observed outcome for a completed op.  Each run of a
    sweep carries the exit status of the whole sweep."""
    if op.command == "ssl":
        found = {}
        for key, path in zip(reference_keys(op), op.report_paths(out)):
            data = json.loads(path.read_text())
            found[key] = {"accuracy": data["accuracy"], "rc": rc,
                          **_verdicts({k: v.get("verdict") for k, v in data["audits"].items()})}
        return found
    data = json.loads((out / op.report).read_text())
    if op.command == "rkd":
        obs = {"population_loss": data["population_loss"], "gap": data["gap"]}
    elif op.command == "audit":
        obs = _verdicts({"thm1": data["thm1"]["verdicts"].get("thm1"),
                         "thm4": data["thm4"]["verdicts"].get("thm4")})
    elif op.command == "dac":
        obs = {"c_hat": data["c_hat"], **_verdicts({"thm5": data["thm5"]["verdict"]})}
    else:
        obs = {"count": data["count"], "strategy": data["strategy"]}
    obs["rc"] = rc
    return {op.key: obs}


def compare(key: str, obs: dict, ref: dict) -> list:
    """Problems found comparing an observed outcome with its reference."""
    if ref is None:
        return [f"{key}: no reference value recorded"]
    got_verdicts = obs.get("verdicts", {})
    if "error" in ref:
        # the op failed at the recording commit; a written result is accepted
        # unless it reports a bound that fails
        return [f"{key}: {name} verdict 'fail' where the reference failed with {ref['error']!r}"
                for name, got in got_verdicts.items() if got == "fail"]
    problems = []
    opened = False
    for name, want in ref.get("verdicts", {}).items():
        got = got_verdicts.get(name)
        if name in ref.get("open", ()) and got not in (want, "fail", None):
            opened = True  # the skipped oracle now runs, and its bound does not fail
        elif got != want:
            problems.append(f"{key}: {name} verdict {got!r} != reference {want!r}")
    if "rc" in ref and obs.get("rc") != ref["rc"] and not (opened and obs.get("rc") == 0):
        problems.append(f"{key}: exit status {obs.get('rc')!r} != reference {ref['rc']!r}")
    if "accuracy" in ref and abs(obs["accuracy"] - ref["accuracy"]) > ACCURACY_ABS_TOL:
        problems.append(f"{key}: accuracy {obs['accuracy']!r} != reference {ref['accuracy']!r}")
    if "c_hat" in ref:
        got, want = float(obs["c_hat"]), float(ref["c_hat"])  # canonical JSON writes inf as "inf"
        if not (got == want or abs(got - want) <= C_HAT_REL_TOL * max(abs(want), 1.0)):
            problems.append(f"{key}: c_hat {got!r} != reference {want!r}")
    if "population_loss" in ref:
        got, want = obs["population_loss"], ref["population_loss"]
        if abs(got - want) > LOSS_REL_TOL * max(abs(want), 1e-12):
            problems.append(f"{key}: population_loss {got!r} != reference {want!r}")
    if "gap" in ref and abs(obs["gap"] - ref["gap"]) > GAP_ABS_TOL:
        problems.append(f"{key}: gap {obs['gap']!r} != reference {ref['gap']!r}")
    for name in ("count", "strategy"):
        if name in ref and obs.get(name) != ref[name]:
            problems.append(f"{key}: {name} {obs.get(name)!r} != reference {ref[name]!r}")
    return problems


def file_digests(out: Path) -> dict:
    """sha256 of every file an op wrote, except those holding wall-clock time."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name not in NONDETERMINISTIC_FILES
    }


def all_reference_ops() -> list:
    """Every op any workload seed can produce, for recording references."""
    made = []
    for g in SSL_GRAPH_SEEDS:
        made += [ssl_op(16, lam, g, SSL_SEEDS) for lam in LAMBDAS]
    for g in LARGE_GRAPH_SEEDS:
        made += [ssl_op(1024, 0.001, g, [s]) for s in LARGE_SEEDS]
    for g in SBM_GRAPH_SEEDS:
        made += [rkd_op(g, s) for s in RKD_SEEDS]
        made += [audit_op(size, g, r) for size in AUDIT_SIZES for r in ROTATION_SEEDS]
        made += [dac_sbm_op(size, g) for size, _ in DAC_SIZES]
    made += [audit_op(48, g, r) for g, r in PINNED_AUDIT_48]
    for g in BLOB_GRAPH_SEEDS:
        made.append(dac_ab_op(g))
        made += [labels_op(strategy, g, s) for strategy in LABEL_STRATEGIES for s in LABEL_SEEDS]
    return made
