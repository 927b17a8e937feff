"""End-to-end semi-supervised runs: cross-entropy + consistency + relational loss.

A run builds a fixture graph, acquires a few labels, trains a student on the
combined objective, evaluates transductive accuracy on the unlabeled
vertices, and embeds the clustering-error audits in the result.  Identical
(config, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import inspect
import itertools
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import jsonio
from .clustering_audit import AuditTolerances, theorem1_check, theorem4_check
from .dac_expansion import (
    AugmentationMap,
    chain_augmentation,
    knn_augmentation,
    load_augmentation,
    split_chain_augmentation,
    theorem5_check,
)
from .errors import InvalidConfigError, RkdlabError, TrainingDivergedError
from .graph_core import (
    PopulationGraph,
    build_sbm,
    build_two_blobs,
    lazy_graph,
    load_graph,
    scaled_eigenvectors,
)
from .label_acquisition import (
    LabeledSet,
    cluster_wise_sample,
    iid_sample,
    save_labeled,
    stochastic_greedy,
    make_labeled,
    uniform_per_class_sample,
)
from .spectral_rkd import (
    OptimizerConfig,
    Prediction,
    StudentModel,
    _PairTable,
    descend,
    population_rkd_loss,
    spectral_decompose,
    verify_gradient,
)
from .teacher_kernel import KernelSpec, TeacherEmbedding, kernel_matrix, spectral_teacher_embedding


@functools.cache
def _parameters(reader) -> tuple:
    """(the annotation of each name reader takes, the names without a default), from its signature."""
    params = inspect.signature(reader).parameters.values()
    return {p.name: p.annotation for p in params}, tuple(p.name for p in params if p.default is p.empty)


# what a config value of a parameter annotated float, int (either or None) or bool must be (a bool is not a number)
_VALUE_TYPES = {"float": (numbers.Real, "a number"), "float | None": ((numbers.Real, type(None)), "a number or null"),
                "int": (numbers.Integral, "an integer"), "bool": (bool, "true or false"),
                "int | None": ((numbers.Integral, type(None)), "an integer or null")}


def _check_section(prefix: str, section: dict, reader, own=(), supplied=()) -> dict:
    """`section`, once its keys are the parameters of `reader`, the class or
    builder that consumes it, apart from the `own` keys its caller reads (a
    `kind`) and those the run supplies (a seed), and its values fit `_VALUE_TYPES`.  An unknown
    or missing key, or a value of the wrong type, is an InvalidConfigError naming prefix + key."""
    taken, required = _parameters(reader)
    for key, value in section.items():
        if key not in own and (key not in taken or key in supplied):
            raise InvalidConfigError(f"unknown key {prefix}{key}")
        types, name = _VALUE_TYPES.get(taken.get(key), (None, None))
        if types and (not isinstance(value, types) or isinstance(value, bool) and types is not bool):
            raise InvalidConfigError(f"{prefix}{key}={value!r} must be {name}")
    for key in required:
        if key not in section and key not in supplied:
            raise InvalidConfigError(f"missing key {prefix}{key}")
    return section


@dataclass(frozen=True)
class LossWeights:
    """The loss section of a config: the weights of the consistency and the
    relational term, and the confidence threshold and softmax temperature
    that select the weak views kept by the consistency term."""

    lambda_dac: float = 1.0
    lambda_rkd: float = 0.0
    tau_dac: float = 0.95
    temperature: float = 1.0

    def __post_init__(self):
        if self.lambda_dac < 0 or self.lambda_rkd < 0:
            raise InvalidConfigError("loss weights lambda_dac and lambda_rkd must be nonnegative")
        if not 0 < self.tau_dac <= 1:
            raise InvalidConfigError(f"loss.tau_dac={self.tau_dac} outside (0, 1]")
        if self.temperature <= 0:
            raise InvalidConfigError(f"loss.temperature={self.temperature} must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's config, with its sections kept as written for `to_dict` and the
    hash.  The parameters of the class or builder that consumes a section are
    its schema, checked here: `loss` (read into `loss_weights`), `optimizer`
    (into `opt`, with this seed), `tolerances` (into `audit_tolerances`),
    `student` (build_student), and `graph`, `augmentation`, `kernel` and
    `labels` (the reader of their kind, from `_read`)."""

    graph: dict
    kernel: dict
    student: dict
    loss: dict
    labels: dict
    optimizer: dict
    seed: int
    augmentation: dict = field(default_factory=lambda: {"kind": "chain"})
    tolerances: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        loss = _check_section("loss.", self.loss, LossWeights)
        optimizer = _check_section("optimizer.", self.optimizer, OptimizerConfig, supplied=("seed",))
        object.__setattr__(self, "loss_weights", LossWeights(**loss))
        object.__setattr__(self, "opt", OptimizerConfig(**optimizer, seed=self.seed))
        tolerances = _check_section("tolerances.", self.tolerances, AuditTolerances)
        object.__setattr__(self, "audit_tolerances", AuditTolerances(**tolerances))
        _check_section("student.", self.student, build_student, supplied=("g", "points", "seed"))
        for name in ("graph", "augmentation", "kernel", "labels"):
            _read(name, getattr(self, name))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidConfigError("the top level is not a JSON object")
        return cls(**_check_section("", data, cls))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """The config in a JSON file; a file that cannot be read or parsed, or
        an invalid config, is an InvalidConfigError naming the path."""
        try:
            return cls.from_dict(jsonio.load(path))
        except (OSError, ValueError, InvalidConfigError) as exc:
            raise InvalidConfigError(f"config {path}: {exc}") from exc

    def save(self, path) -> None:
        jsonio.dump_canonical(self.to_dict(), path)

    def config_hash(self) -> str:
        return hashlib.sha256(jsonio.dumps_canonical(self.to_dict()).encode()).hexdigest()


@dataclass
class RunResult:
    config_hash: str
    accuracy: float
    losses: list
    audits: dict
    labeled: LabeledSet
    model: StudentModel
    wall_clock: float

    def report_dict(self) -> dict:
        """Everything except wall-clock, which goes to a separate timing file so
        repeated runs stay byte-identical."""
        return {
            "config_hash": self.config_hash,
            "accuracy": self.accuracy,
            "final_losses": dict(self.losses[-1]) if self.losses else {},
            "iterations": len(self.losses),
            "audits": self.audits,
            "labeled_vertices": [int(v) for v in self.labeled.vertices()],
        }


# ---------------------------------------------------------------------------
# fixture builders


def _read(name: str, section: dict):
    """(the reader of `section`'s kind, its other keys), checked against the reader's parameters and
    any `path` for existence.  The map is built per call, as benchmarks/tracing.py wraps readers after import."""
    tag, default, supplied, readers = {
        "graph": ("kind", None, (), {"sbm": sbm_graph, "two_blobs": build_two_blobs, "file": load_graph}),
        "augmentation": ("kind", "chain", ("g", "points"), {
            "chain": chain_augmentation, "split_chain": split_chain_augmentation, "knn": knn_augmentation,
            "file": load_augmentation}),
        "kernel": ("kind", None, ("g", "points"), {
            "graph_revealing": KernelSpec.graph_revealing, "shifted_cosine": shifted_cosine_kernel,
            "rbf": rbf_kernel}),
        "labels": ("strategy", "uniform_per_class", ("g", "kernel", "seed"), {
            "uniform_per_class": uniform_per_class_sample, "iid": iid_labels,
            "coreset_greedy": coreset_greedy_labels, "cluster_wise": cluster_wise_labels}),
    }[name]
    kind = section[tag] if tag in section else default
    if not isinstance(kind, str) or kind not in readers:
        raise InvalidConfigError(f"unknown {name}.{tag} {kind!r}" if tag in section else f"missing key {name}.{tag}")
    _check_section(f"{name}.", section, readers[kind], own=(tag,), supplied=supplied)
    if "path" in section and not Path(section["path"]).exists():
        raise InvalidConfigError(f"referenced file does not exist: {section['path']}")
    return readers[kind], {key: value for key, value in section.items() if key != tag}


def _build(name: str, section: dict, **run):
    """What `section` describes: its kind's reader on its other keys and on the names in `run` it takes."""
    reader, keys = _read(name, section)
    taken, _ = _parameters(reader)
    return reader(**keys, **{key: value for key, value in run.items() if key in taken})


def sbm_graph(num_classes: int, sizes, p_in: float, p_out: float, seed: int, lazy: bool = True) -> PopulationGraph:
    g = build_sbm(num_classes, sizes, p_in, p_out, seed)
    return lazy_graph(g) if lazy else g


def shifted_cosine_kernel(g, dim: int | None = None, noise: float = 0.0, seed: int = 0) -> KernelSpec:
    """Spectral teacher features of `dim` dimensions (None: K), with Gaussian noise of scale `noise`."""
    dim = g.num_classes if dim is None else dim
    return KernelSpec.shifted_cosine(spectral_teacher_embedding(g, dim, float(noise), int(seed)))


def rbf_kernel(points, bandwidth: float) -> KernelSpec:
    if points is None:
        raise InvalidConfigError("rbf kernel needs point coordinates")
    return KernelSpec.rbf(TeacherEmbedding.from_arrays(points), float(bandwidth))


def iid_labels(g: PopulationGraph, budget: int, seed: int, require_coverage: bool = True) -> LabeledSet:
    return iid_sample(g, budget, seed, require_coverage)[0]


def coreset_greedy_labels(g: PopulationGraph, kernel, budget: int, seed: int, epsilon: float = 0.1) -> LabeledSet:
    return make_labeled(g, stochastic_greedy(kernel, g, budget, float(epsilon), seed), "coreset_greedy", seed)


def cluster_wise_labels(g: PopulationGraph, seed: int, delta: float = 0.1) -> LabeledSet:
    return cluster_wise_sample(spectral_clustering_prediction(g, seed), g, float(delta), seed)


def build_graph_fixture(cfg: ExperimentConfig):
    """Returns (graph, points-or-None) from the config's graph section."""
    built = _build("graph", cfg.graph)
    return built if isinstance(built, tuple) else (built, None)


def build_augmentation_fixture(cfg: ExperimentConfig, g: PopulationGraph, points) -> AugmentationMap:
    return _build("augmentation", cfg.augmentation, g=g, points=points)


def build_kernel_fixture(cfg: ExperimentConfig, g: PopulationGraph, points) -> KernelSpec:
    return _build("kernel", cfg.kernel, g=g, points=points)


def acquire_labels(cfg: ExperimentConfig, g: PopulationGraph, kernel, seed: int) -> LabeledSet:
    return _build("labels", cfg.labels, g=g, kernel=kernel, seed=seed)


def spectral_clustering_prediction(g: PopulationGraph, seed: int) -> Prediction:
    """One-hot prediction from k-means on the scaled leading eigenvectors.

    The standard rounding step for spectral embeddings; deterministic per seed.
    """
    from scipy.cluster.vq import kmeans2

    K = g.num_classes
    _, assignment = kmeans2(scaled_eigenvectors(g, K), K, seed=seed, minit="++")
    return Prediction(scores=np.eye(K)[assignment].astype(float))


# ---------------------------------------------------------------------------
# the combined objective


def _softmax(z: np.ndarray) -> np.ndarray:
    # the ufunc reductions behind ndarray.max and .sum, without their Python wrappers
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _top_probability(z: np.ndarray) -> np.ndarray:
    """`_softmax(z).max(axis=-1)` as the same floats: a row's largest term exp(0) is 1, and a divide keeps order."""
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return 1.0 / np.add.reduce(e, axis=-1)


def _run_sums(values: np.ndarray, counts: list) -> np.ndarray:
    """The `.sum()` of each run of `values`, runs of the given lengths end to end (a row sum adds alike;
    np.add.reduceat adds sequentially, `.sum()` pairwise from 8 terms up, and padding regroups terms)."""
    if len(set(counts)) == 1:
        return values.reshape(len(counts), counts[0]).sum(axis=-1)
    ends = itertools.accumulate(counts)
    return np.array([values[end - count:end].sum() for count, end in zip(counts, ends)])


class _CombinedLoss:
    """CE + lambda_dac * consistency + lambda_rkd * pairwise relational loss of each student of a stack (each with
    its own labeled set, views and pairs) and the analytic gradient of each total, from one forward pass (pseudo-
    labels are constants); weak views below tau_dac at temperature T are discarded, and none kept makes the
    consistency term 0.  The stack's scores are one array of S |X| rows: row-wise work on all rows at once, each
    member's sums on its own run, and one `bincount` whose bins take their terms in the order of one student's
    `np.add.at` scatters (CE, DAC, relational a-ends, b-ends), so each member gets the floats of a stack of one."""

    def __init__(self, labeled, kmat: np.ndarray, weights: LossWeights):
        self.kmat, self.weights = kmat, weights
        self.offsets = np.arange(len(labeled)) * len(kmat)  # of each member's rows
        self.label_counts = [len(one.vertices()) for one in labeled]
        self.label_rows = np.concatenate([one.vertices() + off for one, off in zip(labeled, self.offsets)])
        self.label_pick = (np.arange(len(self.label_rows)), np.concatenate([one.classes() for one in labeled]))
        self.label_divisors = np.repeat(self.label_counts, self.label_counts)[:, None]
        self.label_means = np.maximum(self.label_counts, 1)

    def __call__(self, model: StudentModel, features, weak_strong_pairs, rkd_pairs) -> tuple:
        """(each member's loss row: total, cross_entropy, dac, rkd, confident count; the stack's parameter
        gradients), given lists of each member's (weak, strong) pairs and its R relational pairs (each list or None)."""
        scores = model.forward(features)
        K = scores.shape[-1]
        flat = scores.reshape(-1, K)
        count = len(self.offsets)
        lam_dac, lam_rkd = self.weights.lambda_dac, self.weights.lambda_rkd
        dac = rkd = [0.0] * count
        kept = [0] * count

        # each softmax block minus its one-hot targets is the score gradient of
        # its CE; a mean is written as sum / count, the same reduction and divide
        probs = _softmax(flat[self.label_rows])
        ce = _run_sums(-np.log(np.maximum(probs[self.label_pick], 1e-300)), self.label_counts) / self.label_means
        probs[self.label_pick] -= 1.0
        probs /= self.label_divisors
        rows, blocks = [self.label_rows], [probs]  # the score rows of the gradient terms, and the terms

        if weak_strong_pairs is not None and lam_dac > 0:
            ws, _ = self._rows(weak_strong_pairs)
            weak = flat[ws[:, 0]]
            confident = _top_probability(weak / self.weights.temperature) >= self.weights.tau_dac
            strong = ws[confident, 1]
            if len(strong):
                if count == 1:
                    kept = [len(strong)]
                    means = share = len(strong)
                else:
                    share = np.bincount(strong // len(self.kmat), minlength=count)  # a row // |X| is its member
                    kept, means, share = share.tolist(), np.maximum(share, 1), np.repeat(share, share)[:, None]
                probs = _softmax(flat[strong])
                pick = (np.arange(len(strong)), weak[confident].argmax(axis=1))  # the pseudo-labels
                dac = (_run_sums(-np.log(np.maximum(probs[pick], 1e-300)), kept) / means).tolist()
                probs[pick] -= 1.0
                probs *= lam_dac
                probs /= share
                rows.append(strong)
                blocks.append(probs)

        if rkd_pairs is not None and lam_rkd > 0:
            ends, pairs = self._rows(rkd_pairs)
            num_pairs = len(rkd_pairs[0])
            sa, sb = flat[ends[:, 0]], flat[ends[:, 1]]
            resid = (sa * sb).sum(axis=-1) - self.kmat[pairs[:, 0], pairs[:, 1]]
            rkd = ((resid**2).reshape(count, num_pairs).sum(axis=-1) / num_pairs).tolist()
            coef = ((2.0 * lam_rkd / num_pairs) * resid)[:, None]
            rows += [ends[:, 0], ends[:, 1]]
            blocks += [coef * sb, coef * sa]

        codes = (np.concatenate(rows)[:, None] * K + np.arange(K)).ravel()
        gscores = np.bincount(codes, weights=np.concatenate(blocks).ravel(), minlength=flat.size)
        losses = [{"total": c + lam_dac * d + lam_rkd * r, "cross_entropy": c, "dac": d, "rkd": r, "confident": k}
                  for c, d, r, k in zip(ce.tolist(), dac, rkd, kept)]
        return losses, model.backward(features, gscores.reshape(scores.shape))

    def _rows(self, vertex_pairs):
        """(each member's vertex pairs as rows of the stack's scores, end to end; the vertex pairs, end to end)."""
        if len(vertex_pairs) == 1:  # one member's rows need no layout
            return vertex_pairs[0], vertex_pairs[0]
        pairs = np.concatenate(vertex_pairs)
        return pairs + np.repeat(self.offsets, [len(one) for one in vertex_pairs])[:, None], pairs

    def objective(self, features, weak_strong_pairs, rkd_pairs):
        """One member's total on one batch as an objective: a student -> (total, parameter gradient)."""
        def at(model: StudentModel):
            (row,), grad = self(model, features, [weak_strong_pairs], [rkd_pairs])
            return row["total"], grad
        return at


@dataclass(frozen=True)
class _ViewTable:
    """Strong-view candidates of a vertex pool, built once per run.

    `fixed` holds the (weak, strong) pair of every pool vertex whose strong
    view needs no draw: the vertex itself when it has no partner, its only
    partner when it has one.  For the vertices with two or more partners
    (`rows`, their positions in the pool), the sorted other members of their
    augmentation sets are concatenated in `flat`; `starts` and `counts`
    locate each vertex's run in it.
    """

    fixed: np.ndarray
    rows: np.ndarray
    flat: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, aug: AugmentationMap, pool: np.ndarray) -> "_ViewTable":
        others = [sorted(aug.sets[int(x)] - {int(x)}) for x in pool]
        counts = np.array([len(o) for o in others], dtype=int)
        starts = np.cumsum(counts) - counts
        flat = np.array([v for o in others for v in o], dtype=int)
        pool = np.asarray(pool, dtype=int)
        fixed = np.stack([pool, pool], axis=1)
        single = counts == 1
        fixed[single, 1] = flat[starts[single]]
        fixed.flags.writeable = False
        rows = np.flatnonzero(counts > 1)
        return cls(fixed=fixed, rows=rows, flat=flat, starts=starts[rows], counts=counts[rows])

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """(weak, strong) pairs: the weak view is the vertex itself, the strong
        view a uniformly drawn other member, or the vertex itself if it has none.

        One draw per vertex with two or more partners, in pool order.  A draw
        from a single value consumes no randomness, so skipping the vertices
        with one partner leaves the generator where drawing them would; with
        none left to draw, `fixed` itself (read-only) is returned.
        """
        if not len(self.counts):
            return self.fixed
        pairs = self.fixed.copy()
        pairs[self.rows, 1] = self.flat[self.starts + rng.integers(self.counts)]
        return pairs


def build_student(g: PopulationGraph, points, seed: int, arch: str = "table", init_scale: float = 0.1,
                  hidden: int = 8):
    """Returns (model, features): the student a config's student section
    describes, initialized from `seed`, and the per-vertex inputs it reads
    (None for the table student)."""
    if arch == "table":
        widths, features = (g.size, g.num_classes), None
    elif arch in ("linear", "mlp"):
        if points is None:
            raise InvalidConfigError(f"{arch} student needs point coordinates from the graph fixture")
        features = points
        widths = ((points.shape[1], g.num_classes) if arch == "linear"
                  else (points.shape[1], int(hidden), g.num_classes))
    else:
        raise InvalidConfigError(f"unknown architecture {arch!r}")
    model = StudentModel.initialize(arch, widths, seed=seed, scale=float(init_scale))
    return model, features


def run_experiment(cfg: ExperimentConfig, seed: int | None = None) -> RunResult:
    """Train on the combined objective, evaluate transductively, audit, persist:
    the sweep of one seed (by default cfg.seed), whose divergence is raised."""
    (result,) = _run_lockstep(cfg, [(cfg, cfg.seed if seed is None else seed)])
    if isinstance(result, TrainingDivergedError):
        raise result
    return result


# a seed set up to train, with the seconds its setup took and the loss rows of its steps
_Seed = collections.namedtuple("_Seed", "cfg seed labeled unlabeled model views pairs rng setup_s losses")


def _run_lockstep(cfg: ExperimentConfig, runs) -> list:
    """The RunResult or TrainingDivergedError of each (config, seed) run of a sweep, persisted.  Fixtures are
    built once; each seed in turn gets its labels, student and generator and gradient-checks step 0's batch (if
    one raises, the seeds before it train and persist, then it propagates).  All step as one stack, each drawing
    from its own generator, so each gets the bits of a run on its own.  A run's wall clock is its share: the
    fixtures and the training loop, which all seeds share, plus its own setup and audits."""
    start = time.perf_counter()
    g, points = build_graph_fixture(cfg)
    aug = build_augmentation_fixture(cfg, g, points)
    kernel = build_kernel_fixture(cfg, g, points)
    kmat = kernel_matrix(kernel, g)
    opt = cfg.opt
    num_pairs = max(2, g.size) if opt.rkd_pairs is None else opt.rkd_pairs
    tables = lambda pool: (_ViewTable.build(aug, pool),  # noqa: E731
                           _PairTable.build(pool, g.degrees()[pool] / g.degrees()[pool].sum()))
    shared = tables(np.arange(g.size)) if opt.recycle_labeled else None

    ready, failure = [], None
    for run_cfg, seed in runs:
        t0 = time.perf_counter()
        try:
            labeled = acquire_labels(cfg, g, kernel, seed)
            model, features = build_student(g, points, seed, **cfg.student)
            unlabeled = np.setdiff1d(np.arange(g.size), labeled.vertices())
            if not (opt.recycle_labeled or len(unlabeled)):
                raise InvalidConfigError("optimizer.recycle_labeled is false and every vertex is labeled: "
                                         "the unlabeled training pool is empty")
            views, pairs = shared or tables(unlabeled)
            twin = np.random.default_rng((seed, 1))  # draws step 0's batch for the check
            check = _CombinedLoss([labeled], kmat, cfg.loss_weights)
            verify_gradient(model, check.objective(features, views.draw(twin), pairs.draw(twin, num_pairs)), seed)
        except RkdlabError as exc:
            failure = exc
            break
        ready.append(_Seed(run_cfg, seed, labeled, unlabeled, model, views, pairs, np.random.default_rng((seed, 1)),
                           time.perf_counter() - t0, []))

    results = []
    if ready:
        first = ready[0].model
        stack = StudentModel(first.architecture, first.widths, np.stack([s.model.parameters for s in ready]))
        active, objective = [], None

        def step_loss(step, members):
            nonlocal active, objective
            if len(active) != len(members):  # at the first step, and when seeds leave
                active = [ready[i] for i in members]
                objective = _CombinedLoss([s.labeled for s in active], kmat, cfg.loss_weights)
            ws = [s.views.draw(s.rng) for s in active]
            pairs = [s.pairs.draw(s.rng, num_pairs) for s in active]
            rows, grad = objective(stack, features, ws, pairs)
            for s, row in zip(active, rows):
                s.losses.append(row)
            return [row["total"] for row in rows], grad

        errors = descend(stack, step_loss, opt, features)
        shared_s = time.perf_counter() - start - sum(s.setup_s for s in ready)
        left = iter(range(len(ready)))  # the rows of the stack left after training
        for s, error in zip(ready, errors):
            t0 = time.perf_counter()
            if error is not None:  # the record of a diverged run
                if s.cfg.out_dir:
                    Path(s.cfg.out_dir).mkdir(parents=True, exist_ok=True)
                    jsonio.dump_canonical({"status": "diverged", "message": str(error), "loss_trace": error.trace},
                                          Path(s.cfg.out_dir) / "failed_run.json")
                results.append(error)
                continue
            model = StudentModel(stack.architecture, stack.widths, stack.parameters[next(left)])
            pred = model.prediction(features)
            correct = pred.hard_labels()[s.unlabeled] == g.labels[s.unlabeled]
            results.append(RunResult(
                config_hash=s.cfg.config_hash(),
                accuracy=float(np.mean(correct)) if len(s.unlabeled) else math.nan,
                losses=s.losses,
                audits=_audit_bundle(pred, g, aug),
                labeled=s.labeled,
                model=model,
                wall_clock=shared_s + s.setup_s + time.perf_counter() - t0,
            ))
            if s.cfg.out_dir:
                persist_run(s.cfg, results[-1], s.seed)
    if failure is not None:
        raise failure
    return results


def _audit_bundle(pred: Prediction, g: PopulationGraph, aug: AugmentationMap) -> dict:
    """Theorem verdicts (or explicit markers) for the trained snapshot."""
    K = g.num_classes
    thm1 = theorem1_check([pred], g)
    dec = spectral_decompose(g)
    delta = population_rkd_loss(pred, g) - dec.residual_weights(K)
    thm4 = theorem4_check(pred, g, Delta=max(delta, 0.0), K0=K)
    bundle = {
        "thm1": {"verdict": thm1.verdicts["thm1"], "mu": thm1.mu, "bound": thm1.bound_thm1},
        "thm4": {
            "verdict": thm4.verdicts["thm4"], "mu": thm4.mu, "bound": thm4.bound_thm4,
            "delta": float(delta), "lp_primal": thm4.lp_primal, "lp_dual": thm4.lp_dual,
        },
    }
    mu5, bound5, verdict5 = theorem5_check([pred], aug, g)
    bundle["thm5"] = {"verdict": verdict5, "mu": mu5, "bound": bound5}
    return bundle


def persist_run(cfg: ExperimentConfig, result: RunResult, seed: int) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonio.dump_canonical(result.report_dict(), out / "run_result.json")
    jsonio.dump_canonical(result.audits, out / "audit_report.json")
    jsonio.dump_canonical({"wall_clock_seconds": result.wall_clock}, out / "timing.json")
    cfg.save(out / "config.json")
    save_labeled(result.labeled, out / "labels.csv")
    terms = ("total", "cross_entropy", "dac", "rkd")
    rows = [(f"{i}", *(f"{row[t]:.17g}" for t in terms), f"{row['confident']}") for i, row in enumerate(result.losses)]
    jsonio.dump_csv(("iteration", *terms, "confident"), rows, out / "losses.csv")


def run_sweep(cfg: ExperimentConfig, seeds) -> list:
    """Independent (config, seed) runs in seed order, trained in lockstep (`_run_lockstep`) in the calling
    process.  A seed whose training diverges gives its TrainingDivergedError in place of a result (recorded in
    its failed_run.json), and the remaining seeds still run."""
    runs = [(replace(cfg, seed=seed, out_dir=str(Path(cfg.out_dir) / f"seed_{seed}") if cfg.out_dir else None),
             seed) for seed in seeds]
    return _run_lockstep(cfg, runs)
