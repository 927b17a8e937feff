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
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import jsonio
from .clustering_audit import AuditTolerances, clustering_audits
from .dac_expansion import (
    AugmentationMap,
    chain_augmentation,
    estimate_c_expansion,
    knn_augmentation,
    load_augmentation,
    split_chain_augmentation,
    theorem5_check,
)
from .errors import DomainError, InvalidConfigError, RkdlabError, TrainingDivergedError
from .graph_core import (
    PopulationGraph,
    _freeze,
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
    ARCHITECTURES,
    OptimizerConfig,
    Prediction,
    StudentModel,
    _PairTable,
    descend,
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
        if "arch" in self.student and self.student["arch"] not in ARCHITECTURES:
            raise InvalidConfigError(f"unknown student.arch {self.student['arch']!r}")
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
        "labels": ("strategy", "uniform_per_class", ("g", "kmat", "seed"), {
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
    if not 1 <= dim <= g.size:
        raise InvalidConfigError(f"kernel.dim={dim!r} must be in [1, |X| = {g.size}]")
    return KernelSpec.shifted_cosine(spectral_teacher_embedding(g, dim, float(noise), int(seed)))


def rbf_kernel(points, bandwidth: float) -> KernelSpec:
    if points is None:
        raise InvalidConfigError("rbf kernel needs point coordinates")
    return KernelSpec.rbf(TeacherEmbedding(points), float(bandwidth))


def iid_labels(g: PopulationGraph, budget: int, seed: int, require_coverage: bool = True) -> LabeledSet:
    return iid_sample(g, budget, seed, require_coverage)[0]


def coreset_greedy_labels(g: PopulationGraph, kmat: np.ndarray, budget: int, seed: int,
                          epsilon: float = 0.1) -> LabeledSet:
    return make_labeled(g, stochastic_greedy(kmat, budget, float(epsilon), seed), "coreset_greedy", seed)


def cluster_wise_labels(g: PopulationGraph, seed: int, delta: float = 0.1) -> LabeledSet:
    return cluster_wise_sample(spectral_clustering_prediction(g, seed), g, float(delta), seed)


def build_graph_fixture(cfg: ExperimentConfig):
    """Returns (graph, points-or-None) from the config's graph section."""
    built = _build("graph", cfg.graph)
    return built if isinstance(built, tuple) else (built, None)


def build_augmentation_fixture(cfg: ExperimentConfig, g: PopulationGraph, points) -> AugmentationMap:
    return _build("augmentation", cfg.augmentation, g=g, points=points)


def build_kernel_fixture(cfg: ExperimentConfig, g: PopulationGraph, points, relational: bool = True):
    """The |X| x |X| matrix of the config's teacher kernel on g, read-only like the graph's arrays, when a
    relational term or the label reader takes it, else None (the kernel itself is built, so its errors raise)."""
    spec = _build("kernel", cfg.kernel, g=g, points=points)
    labels_reader, _ = _read("labels", cfg.labels)
    if not (relational or "kmat" in _parameters(labels_reader)[0]):
        return None
    return _freeze(kernel_matrix(spec, g))


def acquire_labels(cfg: ExperimentConfig, g: PopulationGraph, kmat: np.ndarray, seed: int) -> LabeledSet:
    return _build("labels", cfg.labels, g=g, kmat=kmat, seed=seed)


def spectral_clustering_prediction(g: PopulationGraph, seed: int) -> Prediction:
    """One-hot prediction from k-means on the scaled leading eigenvectors.

    The standard rounding step for spectral embeddings; deterministic per seed.
    """
    K = g.num_classes
    return Prediction(scores=np.eye(K)[_kmeans_labels(scaled_eigenvectors(g, K), K, seed)])


# scipy's vq sums a distance's squared differences in turn below this many features, from it expands
# |x - c|^2 = -2 x.c + |x|^2 + |c|^2 with one gemm
VQ_GEMM_FEATURES = 5


def _squared_distances(data: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """(|X|, len(centres)) squared Euclidean distances, each row's squared differences added in turn."""
    diff = data[:, None, :] - centres[None, :, :]
    return _in_turn(diff * diff)


def _kmeans_labels(data: np.ndarray, K: int, seed: int) -> np.ndarray:
    """The labels of scipy.cluster.vq.kmeans2(data, K, seed=seed, minit="++") as the same integers: k-means++
    seeding (Arthur & Vassilvitskii 2007) from np.random.RandomState(seed), then kmeans2's 10 Lloyd rounds, each
    label the first nearest centre and each centre its cluster's sum in vertex order over its count.  An empty
    cluster keeps its centre and warns as kmeans2 does.  Fewer than K distinct rows are a DomainError (where
    kmeans2 divides 0 by 0 and seeds a repeated centre)."""
    rng = np.random.RandomState(seed)
    n, d = data.shape
    centres = np.empty((K, d))
    centres[0] = data[rng.randint(n)]
    for i in range(1, K):
        d2 = _squared_distances(data, centres[:i]).min(axis=1)
        if d2.sum() == 0:
            raise DomainError(f"k-means of {n} rows into K={K} clusters: fewer than {K} distinct rows")
        centres[i] = data[np.searchsorted((d2 / d2.sum()).cumsum(), rng.uniform())]
    for _ in range(10):
        if d < VQ_GEMM_FEATURES:
            labels = _squared_distances(data, centres).argmin(axis=1)
        else:
            gram = -2.0 * (data @ centres.T)
            labels = ((gram + _in_turn(data * data)[:, None]) + _in_turn(centres * centres)).argmin(axis=1)
        counts = np.bincount(labels, minlength=K)
        sums = np.stack([np.bincount(labels, weights=column, minlength=K) for column in data.T], axis=1)
        full = counts > 0
        if not full.all():
            warnings.warn("One of the clusters is empty. Re-run kmeans with a different initialization.",
                          stacklevel=2)
        centres = np.where(full[:, None], sums / np.maximum(counts, 1)[:, None], centres)
    return labels


# ---------------------------------------------------------------------------
# the combined objective


# np.add.reduce adds a row of fewer terms in order, as adding its columns in turn does; from this many, pairwise
PAIRWISE_TERMS = 8


def _in_turn(z: np.ndarray) -> np.ndarray:
    """The sums of z's rows (its last axis), each row's terms added in turn from the first."""
    total = z[..., 0]
    for k in range(1, z.shape[-1]):
        total = total + z[..., k]
    return total


def _row_sums(z: np.ndarray) -> np.ndarray:
    """np.add.reduce(z, axis=-1) as the same floats: for rows of fewer than PAIRWISE_TERMS terms, z's columns
    added in turn, a fraction of a reduction's cost on rows this short."""
    return np.add.reduce(z, axis=-1) if z.shape[-1] >= PAIRWISE_TERMS else _in_turn(z)


def _exp_sums(z: np.ndarray) -> tuple:
    """(exp(z - each row's max), each row's sum of it): a softmax of z's rows before its divide.  The max is
    np.maximum of z's columns, exactly a reduction's max at a fraction of its cost on a few classes."""
    top = z[:, 0]
    for k in range(1, z.shape[1]):
        top = np.maximum(top, z[:, k])
    e = z - top[:, None]
    np.exp(e, out=e)
    return e, _row_sums(e)


def _run_sums(values: np.ndarray, counts: list) -> np.ndarray:
    """The `.sum()` of each run of `values`, runs of the given lengths end to end (a row sum adds alike;
    np.add.reduceat adds sequentially, `.sum()` pairwise from 8 terms up, and padding regroups terms)."""
    if len(set(counts)) == 1:
        return np.add.reduce(values.reshape(len(counts), counts[0]), axis=-1)
    ends = itertools.accumulate(counts)
    return np.array([np.add.reduce(values[end - count:end]) for count, end in zip(counts, ends)])


class _CombinedLoss:
    """CE + lambda_dac * consistency + lambda_rkd * pairwise relational loss of each student of a stack (each with
    its own labeled set, views and pairs) and the analytic gradient of each total, from one forward pass (pseudo-
    labels are constants); weak views below tau_dac at temperature T are discarded, and none kept makes the
    consistency term 0.  The stack's scores are one array of S |X| rows, each row quantity computed once on all of
    them: one softmax, whose label rows CE reads and whose strong rows DAC reads, and whose 1 / row sum is a weak
    view's confidence at T = 1 (its top probability, exp(0) / sum); at other T the confidence is 1 / row sum of
    the rows of scores / T.  Each member's sums run on its own terms, and one `bincount` gives each bin its terms in
    the order of one student's `np.add.at` scatters (CE, DAC, relational a-ends, b-ends), so each member gets the
    floats of a stack of one.  The label rows' scatter codes and one-hot targets are built once here, the
    relational ends' once a block (`_lay_out`), and a step builds only those of its confident strong rows."""

    def __init__(self, labeled, shape: tuple, weights: LossWeights):
        """`labeled`: each member's labeled set; `shape`: a member's scores' shape, (|X|, K)."""
        (self.size, K), self.weights = shape, weights
        self.num_classes = K
        self.score_codes = np.arange(len(labeled) * self.size * K).reshape(-1, K)  # a score's bincount code: its index
        offsets = np.arange(len(labeled)) * self.size  # of each member's rows
        self.label_counts = [len(one.vertices()) for one in labeled]
        self.label_rows = np.concatenate([one.vertices() + off for one, off in zip(labeled, offsets)])
        classes = np.concatenate([one.classes() for one in labeled])
        self.label_picks = np.arange(0, len(classes) * K, K) + classes  # in the label rows' scores, flat
        self.label_targets = np.eye(K)[classes]
        self.label_codes = self.score_codes.take(self.label_rows, axis=0).ravel()
        self.label_divisors = np.repeat(self.label_counts, self.label_counts)[:, None]
        self.label_means = np.maximum(self.label_counts, 1)

    def __call__(self, model: StudentModel, features, views, ends, targets, codes) -> tuple:
        """(each member's loss row: total, cross_entropy, dac, rkd, confident count; the stack's parameter
        gradients), given one step of a laid-out block (`_lay_out`): the members' weak and strong views and the a-
        and b-ends of their R relational pairs each, as score rows end to end in member order, the kernel values of
        those pairs and the ends' scatter codes (ends, targets and codes None without a relational term)."""
        scores = model.forward(features)
        K = self.num_classes
        flat = scores.reshape(-1, K)
        count = len(self.label_counts)
        lam_dac, lam_rkd, temperature = self.weights.lambda_dac, self.weights.lambda_rkd, self.weights.temperature
        dac = rkd = [0.0] * count
        kept = [0] * count
        exps, sums = _exp_sums(flat)
        probs = exps / sums[:, None]

        # each softmax block minus its one-hot targets is the score gradient of
        # its CE; a mean is written as sum / count, the same reduction and divide
        block = probs.take(self.label_rows, axis=0)
        ce = _run_sums(-np.log(np.maximum(block.take(self.label_picks), 1e-300)), self.label_counts) / self.label_means
        block -= self.label_targets
        block /= self.label_divisors
        blocks, scattered = [block], [self.label_codes]  # the gradient terms, and the codes of their scores

        if views is not None and lam_dac > 0:
            weak, strong = views
            top = 1.0 / (sums if temperature == 1.0 else _exp_sums(flat / temperature)[1])
            confident = top.take(weak) >= self.weights.tau_dac
            strong = strong[confident]
            if len(strong):
                share = np.bincount(strong // self.size, minlength=count)  # a row // |X| is its member
                kept, means, share = share.tolist(), np.maximum(share, 1), np.repeat(share, share)[:, None]
                block = probs.take(strong, axis=0)
                pseudo = flat.take(weak[confident], axis=0).argmax(axis=1)
                picks = np.arange(0, len(strong) * K, K) + pseudo
                dac = (_run_sums(-np.log(np.maximum(block.take(picks), 1e-300)), kept) / means).tolist()
                block.ravel()[picks] -= 1.0
                block *= lam_dac
                block /= share
                blocks.append(block)
                scattered.append(self.score_codes.take(strong, axis=0).ravel())

        if ends is not None and lam_rkd > 0:
            num_pairs = ends.shape[1] // count
            sides = flat.take(ends, axis=0)  # the a-ends' score rows, then the b-ends'
            resid = _row_sums(sides[0] * sides[1]) - targets
            rkd = (np.add.reduce((resid**2).reshape(count, num_pairs), axis=-1) / num_pairs).tolist()
            sides *= ((2.0 * lam_rkd / num_pairs) * resid)[:, None]
            blocks += [sides[1], sides[0]]  # an a-end's term is coef * its b-end's scores, and vice versa
            scattered.append(codes)

        gscores = np.bincount(np.concatenate(scattered), weights=np.concatenate(blocks).ravel(), minlength=flat.size)
        losses = [{"total": c + lam_dac * d + lam_rkd * r, "cross_entropy": c, "dac": d, "rkd": r, "confident": k}
                  for c, d, r, k in zip(ce.tolist(), dac, rkd, kept)]
        return losses, model.backward(features, gscores.reshape(scores.shape))

    def objective(self, features, views, ends, targets, codes):
        """One member's total on one laid-out step as an objective: a student -> (total, parameter gradient)."""
        def at(model: StudentModel):
            (row,), grad = self(model, features, views, ends, targets, codes)
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
        rows = np.flatnonzero(counts > 1)
        return cls(fixed=_freeze(fixed), rows=rows, flat=flat, starts=starts[rows], counts=counts[rows])

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """(weak, strong) pairs: the weak view is the vertex itself, the strong
        view a uniformly drawn other member, or the vertex itself if it has none.

        One draw per vertex with two or more partners, in pool order.  A draw
        from a single value consumes no randomness, so skipping the vertices
        with one partner leaves the generator where drawing them would.
        """
        pairs = self.fixed.copy()
        pairs[self.rows, 1] = self.flat[self.starts + rng.integers(self.counts)]
        return pairs


class _Block(collections.namedtuple("_Block", "views ends targets")):
    """A seed's batches of some training steps, as vertices: (weak, strong) views (steps, P, 2), relational
    pairs (steps, R, 2) and their kernel values (steps, R), the last two None without a relational term."""

    __slots__ = ()


class _Rows(collections.namedtuple("_Rows", "views ends targets codes")):
    """The members' blocks laid out as score rows of the stack (`_lay_out`): weak then strong views (steps, 2,
    S P), a-ends then b-ends (steps, 2, S R), their kernel values (steps, S R) and their scatter codes (steps,
    2 S R K), each member's end to end in member order; the last three None without a relational term."""

    __slots__ = ()

    def step(self, i: int) -> tuple:
        """Step i's arrays, each None or indexed by step first."""
        return tuple(None if a is None else a[i] for a in self)


def _draw_block(views: _ViewTable, pairs: _PairTable, rng: np.random.Generator, num_pairs: int, kmat,
                steps: int) -> _Block:
    """A seed's batches of its next `steps` steps, drawn from rng as one views.draw then pairs.draw per step
    would, with the values of kmat, the relational term's kernel matrix (None: no term), at each pair.  When the
    views draw nothing, the pairs are all that reads the generator: the block's pairs are one draw of all their
    uniforms, and no pair is drawn without a relational term."""
    if not len(views.counts):
        ws = np.broadcast_to(views.fixed, (steps, *views.fixed.shape))
        ends = None if kmat is None else pairs.draw(rng, steps * num_pairs).reshape(steps, num_pairs, 2)
    else:
        drawn = [(views.draw(rng), pairs.draw(rng, num_pairs)) for _ in range(steps)]
        ws = np.stack([w for w, _ in drawn])
        ends = None if kmat is None else np.stack([p for _, p in drawn])
    return _Block(ws, ends, None if ends is None else kmat[ends[..., 0], ends[..., 1]])


def _lay_out(blocks, shape: tuple) -> _Rows:
    """The members' blocks (of equal steps) as the stack's score rows, given a member's scores' shape (|X|, K):
    member i's vertices offset by i |X|, each step's weak views, strong views, a-ends and b-ends contiguous, and
    the ends' scatter codes."""
    size, K = shape
    offsets = range(0, len(blocks) * size, size)
    rows = lambda arrays: np.concatenate([a.transpose(0, 2, 1) + off for a, off in zip(arrays, offsets)],  # noqa: E731
                                         axis=2)
    views, ends, targets = zip(*blocks)
    if ends[0] is None:
        return _Rows(rows(views), None, None, None)
    ends = rows(ends)
    codes = (ends.reshape(len(ends), -1, 1) * K + np.arange(K)).reshape(len(ends), -1)
    return _Rows(rows(views), ends, np.concatenate(targets, axis=1), codes)


def build_student(g: PopulationGraph, points, seed: int, arch: str = "table", init_scale: float = 0.1,
                  hidden: int = 8):
    """Returns (model, features): the student a config's student section
    describes, initialized from `seed`, and the per-vertex inputs it reads
    (None for the table student).  `arch`, one of ARCHITECTURES, is checked when the config loads."""
    if arch == "table":
        widths, features = (g.size, g.num_classes), None
    elif points is None:
        raise InvalidConfigError(f"{arch} student needs point coordinates from the graph fixture")
    else:
        features = points
        widths = ((points.shape[1], g.num_classes) if arch == "linear"
                  else (points.shape[1], int(hidden), g.num_classes))
    model = StudentModel.initialize(arch, widths, seed=seed, scale=float(init_scale))
    return model, features


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train on the combined objective, evaluate transductively, audit, persist:
    the sweep of cfg alone, whose divergence is raised."""
    (result,) = _run_lockstep([cfg])
    if isinstance(result, TrainingDivergedError):
        raise result
    return result


# a seed set up to train: its block draw (steps -> _Block), the seconds its setup took and the loss rows of its steps
_Seed = collections.namedtuple("_Seed", "cfg labeled unlabeled model draw setup_s losses")

# the training steps whose batches a seed draws at once, and whose stacked rows are laid out at once
BLOCK_STEPS = 16


def _run_lockstep(cfgs) -> list:
    """The RunResult or TrainingDivergedError of each run of a sweep, given as configs that differ only in seed
    and out_dir, persisted.  Fixtures are built once, from the first; each seed in turn gets its labels, student
    and generator, draws its first block of BLOCK_STEPS steps and gradient-checks step 0's batch (if one raises,
    the seeds before it train and persist, then it propagates).  All step as one stack, each drawing its blocks
    from its own generator, so each gets the bits of a run on its own; the stack's rows are laid out once a
    block, and again, whole, when seeds leave.  The c-expansion of the augmentation, which every
    seed's theorem 5 audit reads, is enumerated once after training.  A run's wall clock is its share: the
    fixtures, the training loop and that enumeration, which all seeds share, plus its own setup and audits."""
    start = time.perf_counter()
    cfg = cfgs[0]
    g, points = build_graph_fixture(cfg)
    aug = build_augmentation_fixture(cfg, g, points)
    opt, relational = cfg.opt, cfg.loss_weights.lambda_rkd > 0
    kmat = build_kernel_fixture(cfg, g, points, relational=relational)
    num_pairs = max(2, g.size) if opt.rkd_pairs is None else opt.rkd_pairs
    shape = (g.size, g.num_classes)  # of a student's scores
    tables = lambda pool: (_ViewTable.build(aug, pool),  # noqa: E731
                           _PairTable.build(pool, g.degrees()[pool] / g.degrees()[pool].sum()))
    shared = tables(np.arange(g.size)) if opt.recycle_labeled else None

    ready, blocks, failure = [], [], None
    for run_cfg in cfgs:
        seed = run_cfg.seed
        t0 = time.perf_counter()
        try:
            labeled = acquire_labels(run_cfg, g, kmat, seed)
            model, features = build_student(g, points, seed, **cfg.student)
            unlabeled = np.setdiff1d(np.arange(g.size), labeled.vertices())
            if not (opt.recycle_labeled or len(unlabeled)):
                raise InvalidConfigError("optimizer.recycle_labeled is false and every vertex is labeled: "
                                         "the unlabeled training pool is empty")
            draw = functools.partial(_draw_block, *(shared or tables(unlabeled)), np.random.default_rng((seed, 1)),
                                     num_pairs, kmat if relational else None)
            block = draw(max(1, min(BLOCK_STEPS, opt.iterations)))  # a run of no steps checks step 0 too
            check = _CombinedLoss([labeled], shape, cfg.loss_weights)
            verify_gradient(model, check.objective(features, *_lay_out([block], shape).step(0)), seed)
        except RkdlabError as exc:
            failure = exc
            break
        ready.append(_Seed(run_cfg, labeled, unlabeled, model, draw, time.perf_counter() - t0, []))
        blocks.append(block)

    results = []
    if ready:
        first = ready[0].model
        stack = StudentModel(first.architecture, first.widths, np.stack([s.model.parameters for s in ready]))
        active, objective, laid = [], None, None

        def step_loss(step, members):
            nonlocal active, objective, laid
            at = step % BLOCK_STEPS
            if step and not at:  # each seed left draws its next block
                for i in members:
                    blocks[i] = ready[i].draw(min(BLOCK_STEPS, opt.iterations - step))
            if len(active) != len(members):  # at the first step, and when seeds leave
                active = [ready[i] for i in members]
                objective = _CombinedLoss([s.labeled for s in active], shape, cfg.loss_weights)
                laid = None
            if not at or laid is None:
                laid = _lay_out([blocks[i] for i in members], shape)
            rows, grad = objective(stack, features, *laid.step(at))
            for s, row in zip(active, rows):
                s.losses.append(row)
            return [row["total"] for row in rows], grad

        errors = descend(stack, step_loss, opt, features)
        # None above the exhaustive cap, which theorem5_check records as its verdict, or when no seed is audited
        c_hat = estimate_c_expansion(aug, g).c_hat if any(error is None for error in errors) else None
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
                audits={**clustering_audits([pred], g), "thm5": theorem5_check([pred], aug, g, c_hat)},
                labeled=s.labeled,
                model=model,
                wall_clock=shared_s + s.setup_s + time.perf_counter() - t0,
            ))
            if s.cfg.out_dir:
                persist_run(s.cfg, results[-1])
    if failure is not None:
        raise failure
    return results


def persist_run(cfg: ExperimentConfig, result: RunResult) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonio.dump_canonical(result.report_dict(), out / "run_result.json")
    jsonio.dump_canonical(result.audits, out / "audit_report.json")
    jsonio.dump_canonical({"wall_clock_seconds": result.wall_clock}, out / "timing.json")
    cfg.save(out / "config.json")
    save_labeled(result.labeled, out / "labels.csv")
    rows = [("%d,%.17g,%.17g,%.17g,%.17g,%d" % (i, row["total"], row["cross_entropy"], row["dac"], row["rkd"],
                                               row["confident"]),)  # the whole row as one field
            for i, row in enumerate(result.losses)]
    jsonio.dump_csv(("iteration", "total", "cross_entropy", "dac", "rkd", "confident"), rows, out / "losses.csv")


def run_sweep(cfg: ExperimentConfig, seeds) -> list:
    """Independent runs of cfg at each seed, in seed order, trained in lockstep (`_run_lockstep`) in the calling
    process.  A seed whose training diverges gives its TrainingDivergedError in place of a result (recorded in
    its failed_run.json), and the remaining seeds still run."""
    cfgs = [replace(cfg, seed=seed, out_dir=str(Path(cfg.out_dir) / f"seed_{seed}") if cfg.out_dir else None)
            for seed in seeds]
    return _run_lockstep(cfgs)
