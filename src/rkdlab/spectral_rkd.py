"""Population and empirical relational-distillation losses and their minimizers.

The population loss is the Frobenius error of a rank-K reconstruction of the
normalized adjacency from degree-scaled student outputs; its exact minimizers
come from the leading Laplacian eigenvectors, and the empirical loss over
sampled vertex pairs is an unbiased estimate of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import DomainError, InvalidConfigError, NotPsdError, NumericError, TrainingDivergedError
from .graph_core import PopulationGraph, normalized_adjacency, scaled_eigenvectors, spectral_decompose
from .teacher_kernel import KernelSpec, kernel_matrix

LOSS_AGREEMENT_TOL = 1e-9
GRAD_CHECK_REL_TOL = 1e-4
GRAD_CHECK_COORDS = 10
DIVERGENCE_CAP = 1e6
TRACE_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class Prediction:
    """K-dimensional scores on every vertex; row x is f(x)."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        if s.ndim != 2:
            raise InvalidConfigError(f"scores must be 2-D, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise InvalidConfigError("non-finite prediction score")
        s = np.ascontiguousarray(s)
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1]

    def hard_labels(self) -> np.ndarray:
        """Deterministic argmax labels (first maximal index)."""
        return np.argmax(self.scores, axis=1)

    def hard_labels_stochastic(self, rng: np.random.Generator) -> np.ndarray:
        """Argmax with uniform tie-breaking among entries within 1e-9 of the row max."""
        out = np.empty(self.scores.shape[0], dtype=int)
        for i, row in enumerate(self.scores):
            ties = np.nonzero(row >= row.max() - 1e-9)[0]
            out[i] = ties[0] if len(ties) == 1 else rng.choice(ties)
        return out


@dataclass
class StudentModel:
    """Small parametric student: a score table, a linear map, or a 1-hidden-layer net.

    widths:
      - table:  (|X|, K), parameters are the score table itself
      - linear: (d, K)
      - mlp:    (d, h, K), tanh hidden activation

    parameters: one student's flat vector (p,), or an (S, p) stack scored as one (S, |X|, K) array with each
    member's floats (a stacked matmul makes the same BLAS call per member).
    """

    architecture: str
    widths: tuple
    parameters: np.ndarray

    def __post_init__(self):
        if self.architecture not in ("table", "linear", "mlp"):
            raise InvalidConfigError(f"unknown architecture {self.architecture!r}")
        self.widths = tuple(int(w) for w in self.widths)
        expect = self.parameter_count(self.architecture, self.widths)
        parameters = np.asarray(self.parameters, dtype=float)
        self.parameters = (parameters if parameters.ndim == 2 else parameters.ravel()).copy()
        if self.parameters.shape[-1] != expect:
            raise InvalidConfigError(
                f"{self.architecture}{self.widths} needs {expect} parameters, got {self.parameters.shape[-1]}"
            )

    @staticmethod
    def parameter_count(architecture: str, widths) -> int:
        if architecture == "table":
            n, k = widths
            return n * k
        if architecture == "linear":
            d, k = widths
            return d * k
        h = widths[1]
        return widths[0] * h + h * widths[2]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @classmethod
    def initialize(cls, architecture: str, widths, seed: int, scale: float = 0.1) -> "StudentModel":
        rng = np.random.default_rng(seed)
        count = cls.parameter_count(architecture, tuple(widths))
        return cls(architecture, tuple(widths), scale * rng.standard_normal(count))

    def _unpack(self):
        lead = self.parameters.shape[:-1]
        if self.architecture == "mlp":
            d, h, k = self.widths
            a1 = self.parameters[..., : h * d].reshape(*lead, h, d)
            a2 = self.parameters[..., h * d :].reshape(*lead, k, h)
            return a1, a2
        return (self.parameters.reshape(*lead, self.widths[-1], self.widths[0])
                if self.architecture == "linear"
                else self.parameters.reshape(*lead, *self.widths))

    def forward(self, features: np.ndarray | None) -> np.ndarray:
        """Scores for all vertices; `features` is ignored by the table model."""
        if self.architecture == "table":
            return self.parameters.reshape(self.parameters.shape[:-1] + self.widths)
        if features is None:
            raise DomainError(f"{self.architecture} model needs input features")
        x = np.asarray(features, dtype=float)
        if self.architecture == "linear":
            return x @ self._unpack().swapaxes(-1, -2)
        a1, a2 = self._unpack()
        return np.tanh(x @ a1.swapaxes(-1, -2)) @ a2.swapaxes(-1, -2)

    def backward(self, features: np.ndarray | None, gscores: np.ndarray) -> np.ndarray:
        """Gradient with respect to the parameters, given the gradient
        `gscores` of a loss with respect to the scores `forward(features)`."""
        if self.architecture == "table":
            return gscores.ravel() if self.parameters.ndim == 1 else gscores.reshape(self.parameters.shape)
        if features is None:
            raise DomainError(f"{self.architecture} model needs input features")
        x = np.asarray(features, dtype=float)
        gt = gscores.swapaxes(-1, -2)
        if self.architecture == "linear":
            return (gt @ x).reshape(self.parameters.shape)
        a1, a2 = self._unpack()
        hidden = np.tanh(x @ a1.swapaxes(-1, -2))
        ga2 = gt @ hidden
        gpre = (gscores @ a2) * (1.0 - hidden**2)
        ga1 = gpre.swapaxes(-1, -2) @ x
        lead = self.parameters.shape[:-1]
        return np.concatenate([ga1.reshape(*lead, -1), ga2.reshape(*lead, -1)], axis=-1)

    def prediction(self, features: np.ndarray | None = None) -> Prediction:
        return Prediction(scores=self.forward(features))

    def copy(self) -> "StudentModel":
        return StudentModel(self.architecture, self.widths, self.parameters.copy())


@dataclass(frozen=True)
class RkdLossReport:
    population_loss: float
    empirical_loss: float
    gap: float
    b_f: float
    b_k: float

    def __post_init__(self):
        if self.population_loss < 0 or self.empirical_loss < 0:
            raise InvalidConfigError("losses must be nonnegative")


@dataclass(frozen=True)
class OptimizerConfig:
    """Momentum descent: the optimizer section shared by `rkdlab rkd` (which
    reads `sampler`) and `rkdlab ssl` (`rkd_pairs`, None meaning max(2, |X|),
    and `recycle_labeled`), both of which read the row-norm cap `b_f`, with the run's seed."""

    seed: int
    step_size: float = 0.5
    iterations: int = 500
    momentum: float = 0.9
    b_f: float | None = None
    sampler: str | int = "exhaustive"
    rkd_pairs: int | None = None
    recycle_labeled: bool = True

    def __post_init__(self):
        if self.step_size <= 0:
            raise InvalidConfigError(f"optimizer.step_size={self.step_size!r} must be positive")
        if not (is_integer(self.iterations) and self.iterations >= 0):
            raise InvalidConfigError(f"optimizer.iterations={self.iterations!r} must be a nonnegative integer")
        if self.rkd_pairs is not None and not (is_integer(self.rkd_pairs) and self.rkd_pairs >= 1):
            raise InvalidConfigError(f"optimizer.rkd_pairs={self.rkd_pairs!r} must be an integer >= 1")
        if self.sampler != "exhaustive" and not (is_integer(self.sampler) and self.sampler >= 1):
            raise InvalidConfigError(f"optimizer.sampler={self.sampler!r} is not 'exhaustive' or a count > 0")


def is_integer(value) -> bool:
    """An int or a numpy integer, and not a bool: a count read from a config."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def population_rkd_loss(f: Prediction, g: PopulationGraph) -> float:
    """|| Wbar - D^{1/2} F F^T D^{1/2} ||_F^2, cross-checked against its
    expectation form over weighted vertex pairs (agreement within 1e-9)."""
    (matrix_form,), (expectation_form,) = _PopulationLoss(g).forms(f.scores[None])
    return _agreed(matrix_form, float(expectation_form))


def _agreed(matrix_form: float, expectation_form: float) -> float:
    """The matrix form of the population loss, once its expectation form agrees."""
    if abs(matrix_form - expectation_form) > LOSS_AGREEMENT_TOL * max(1.0, matrix_form):
        raise NumericError(
            f"population loss forms disagree: {matrix_form!r} vs {expectation_form!r}"
        )
    return matrix_form


class _PopulationLoss:
    """Both forms of the population loss on one graph, for a stack of score
    tables, with the graph's D^{1/2}, Wbar, graph-revealing kernel and pair
    weights w_x w_x' built once."""

    def __init__(self, g: PopulationGraph):
        deg = g.degrees()
        self.size = g.size
        self.sqrt_deg = np.sqrt(deg)[:, None]
        self.wbar = normalized_adjacency(g)
        self.kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
        self.pair_weights = np.outer(deg, deg)

    def forms(self, scores: np.ndarray) -> tuple:
        """(matrix forms, expectation forms) of an (R, |X|, K) stack: a list
        and an array of floats equal to those of one 2-D evaluation per
        member.  A stacked matmul makes the same BLAS call per member, and
        each Frobenius norm is its own dot, square root and scalar power, as
        in np.linalg.norm(...) ** 2 (an array square rounds differently)."""
        if scores.shape[1] != self.size:
            raise DomainError(f"prediction rows {scores.shape[1]} != |X| = {self.size}")
        left, right = scores * self.sqrt_deg, scores * self.sqrt_deg  # two buffers: a gemm, not a syrk
        resid = (self.wbar - left @ right.transpose(0, 2, 1)).reshape(len(scores), -1)
        matrix = [math.sqrt(r.dot(r)) ** 2 for r in resid]
        return matrix, _pair_expectations(scores, self.kmat, self.pair_weights)


def empirical_rkd_loss(f: Prediction, pairs, kernel, g: PopulationGraph | None = None) -> float:
    """Mean over sampled pairs of (f(x)^T f(x') - k(x, x'))^2.

    `kernel` is a KernelSpec (materialized on g) or a precomputed kernel matrix.
    """
    pairs = np.asarray(pairs, dtype=int)
    if pairs.size == 0:
        raise DomainError("empty pair list")
    pairs = pairs.reshape(-1, 2)
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    a, b = pairs[:, 0], pairs[:, 1]
    inner = np.sum(f.scores[a] * f.scores[b], axis=1)
    return float(np.mean((inner - kmat[a, b]) ** 2))


def exact_pair_expectation(f: Prediction, kernel, g: PopulationGraph) -> float:
    """Exhaustive weighted pairing: sum over ordered pairs of w_x w_x' (f^T f - k)^2.

    The independent oracle for unbiasedness of the sampled empirical loss.
    """
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    deg = g.degrees()
    return float(_pair_expectations(f.scores[None], kmat, np.outer(deg, deg))[0])


def _pair_expectations(scores: np.ndarray, kmat: np.ndarray, pair_weights: np.ndarray) -> np.ndarray:
    """exact_pair_expectation of each member of an (R, |X|, K) score stack."""
    gram = scores @ scores.transpose(0, 2, 1)
    return (pair_weights * (gram - kmat) ** 2).reshape(len(scores), -1).sum(axis=1)


@dataclass(frozen=True)
class _PairTable:
    """Relational-pair endpoints drawn from a vertex pool with fixed
    probabilities, built once per run.

    `cdf` is the normalised cumulative table that
    `Generator.choice(len(pool), p=weights)` builds on every call; searching it
    with the same uniforms gives the same indices and leaves the generator in
    the same state, without choice's per-call validation of `p`.
    """

    pool: np.ndarray
    cdf: np.ndarray

    @classmethod
    def build(cls, pool: np.ndarray, weights: np.ndarray) -> "_PairTable":
        cdf = np.asarray(weights, dtype=float).cumsum()
        cdf /= cdf[-1]
        return cls(pool=pool, cdf=cdf)

    def draw(self, rng: np.random.Generator, num_pairs: int) -> np.ndarray:
        """num_pairs (a, b) pairs, 2 * num_pairs endpoints drawn in row order."""
        return self.pool[self.cdf.searchsorted(rng.random(2 * num_pairs), side="right")].reshape(num_pairs, 2)


def draw_pairs(g: PopulationGraph, num_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Consecutive disjoint pairs from an i.i.d. degree-weighted vertex draw."""
    if num_pairs < 1:
        raise DomainError("need at least one pair")
    return _PairTable.build(np.arange(g.size), g.degrees()).draw(rng, num_pairs)


def exact_population_minimizer(g: PopulationGraph, K: int, rotation: np.ndarray | None = None) -> Prediction:
    """Closed-form population minimizer D^{-1/2} V_K diag(sqrt(1-lambda_i)) Q.

    Requires 1 - lambda_i >= 0 for i <= K (guaranteed when the normalized
    adjacency is positive semi-definite); any orthogonal Q gives the same loss.
    """
    stacked = None if rotation is None else np.asarray(rotation, dtype=float)[None]
    return Prediction(scores=population_minimizers(g, K, stacked)[0])


def population_minimizers(g: PopulationGraph, K: int, rotations: np.ndarray | None = None) -> np.ndarray:
    """exact_population_minimizer for each Q of an (R, K, K) stack of
    rotations (None: the identity alone), as one (R, |X|, K) score array
    built from one unrotated base and one stacked matmul."""
    if not 1 <= K <= g.size:
        raise DomainError(f"need 1 <= K <= |X|, got K={K}")
    q = np.eye(K)[None] if rotations is None else np.asarray(rotations, dtype=float)
    if q.ndim != 3 or q.shape[1:] != (K, K) or not np.isfinite(q).all() or np.any(
        np.linalg.norm(q.transpose(0, 2, 1) @ q - np.eye(K), axis=(1, 2)) > 1e-10
    ):
        raise DomainError("rotation must be a K x K orthogonal matrix")
    head = spectral_decompose(g).eigenvalues[:K]
    if np.any(1.0 - head < -1e-10):
        raise NotPsdError(
            f"1 - lambda_{int(np.argmax(head)) + 1} < 0: normalized adjacency is not PSD on the top-K block"
        )
    scores = scaled_eigenvectors(g, K, q)
    if not np.all(np.isfinite(scores)):
        raise InvalidConfigError("non-finite prediction score")
    return scores


def random_rotation(K: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw."""
    return random_rotations(K, 1, rng)[0]


def random_rotations(K: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, K, K) stack of random_rotation draws from one Gaussian draw and
    one stacked QR: the same matrices, and the same generator state after,
    as count random_rotation calls."""
    q, r = np.linalg.qr(rng.standard_normal((count, K, K)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


# ---------------------------------------------------------------------------
# training


class _PairLoss:
    """The weighted pair loss sum_i u_i (f(a_i)^T f(b_i) - k_i)^2 of one batch,
    and its gradient with respect to the scores, computed in buffers kept
    with the batch.

    a and b select the pairs' endpoint rows of the scores: 1-D index arrays,
    or basic indices whose views broadcast to a grid of pairs (the
    exhaustive batch), with u and kvals of the pairs' shape.
    """

    def __init__(self, a, b, u, kvals):
        self.a, self.b, self.u, self.kvals = a, b, u, kvals
        self.twice_u = 2.0 * u
        self.codes = None

    def _allocate(self, n: int, K: int) -> None:
        shape = np.shape(self.u)
        rows = np.arange(n)
        ends = np.stack([np.broadcast_to(rows[self.a], shape), np.broadcast_to(rows[self.b], shape)])
        # Flat gscores bins of the gradient terms, laid out (endpoint, class,
        # pair): each a-endpoint's terms, then each b-endpoint's.  One
        # bincount over them adds every bin's terms in the order of an
        # unbuffered `add.at` scatter over a followed by one over b, from the
        # same zeros, so it gives the same floats.
        self.codes = (ends.reshape(2, 1, -1) * K + np.arange(K)[:, None]).ravel()
        self.class_first = (len(shape), *range(len(shape)))
        self.products = np.empty((*shape, K))
        self.resid = np.empty(shape)
        self.terms = np.empty((2, K, *shape))

    def __call__(self, scores: np.ndarray):
        """(loss, gradient with respect to scores)."""
        if self.codes is None:
            self._allocate(*scores.shape)
        fa, fb = scores[self.a], scores[self.b]
        resid = np.multiply(fa, fb, out=self.products).sum(axis=-1, out=self.resid)
        resid -= self.kvals
        loss = float((self.u * resid**2).sum())
        coef = self.twice_u * resid
        np.multiply(coef, fb.transpose(self.class_first), out=self.terms[0])
        np.multiply(coef, fa.transpose(self.class_first), out=self.terms[1])
        gscores = np.bincount(self.codes, weights=self.terms.reshape(-1), minlength=scores.size)
        return loss, gscores.reshape(scores.shape)

    def objective(self, features):
        """The batch's loss as an objective: model -> (loss, parameter gradient)."""
        def at(model: StudentModel):
            loss, gscores = self(model.forward(features))
            return loss, model.backward(features, gscores)
        return at


def _exhaustive_batch(g: PopulationGraph, kmat: np.ndarray):
    """Every ordered pair (x, x') weighted by w_x w_x', as the basic indices
    a = [:, None] and b = [None, :], whose views of the scores broadcast to
    the |X| x |X| grid of pairs."""
    a, b = (slice(None), None), (None, slice(None))
    deg = g.degrees()
    return a, b, deg[a] * deg[b], kmat


def check_gradient(model: StudentModel, objective, coords: int, seed: int) -> float:
    """Max relative error of objective(model) -> (loss, parameter gradient) vs central differences.

    A coordinate's error is scaled by the larger of the two gradients, and at
    least by the roundoff of a central difference of the loss,
    eps |loss| / h, over the tolerance: a gradient below that floor cannot be
    resolved by the differences, so its error is not read as relative.
    """
    loss, grad = objective(model)
    rng = np.random.default_rng(seed)
    idx = rng.choice(model.parameters.size, size=min(coords, model.parameters.size), replace=False)
    worst = 0.0
    h = 1e-6
    floor = np.finfo(float).eps * abs(loss) / (h * GRAD_CHECK_REL_TOL)
    for i in idx:
        probe = model.copy()
        probe.parameters[i] += h
        up, _ = objective(probe)
        probe.parameters[i] -= 2 * h
        down, _ = objective(probe)
        numeric = (up - down) / (2 * h)
        error = abs(numeric - grad[i])
        if error > 0:
            worst = max(worst, error / max(abs(numeric), abs(grad[i]), floor))
    return worst


def _project_rows(model: StudentModel, features, b_f: float) -> None:
    """Clip per-vertex squared row norms to b_f: a table rescales each row above it, a parametric model (each
    member of a stack) all parameters by its worst row.  What was above is rescaled until it is not (a rescale
    can round up, and tanh is not linear in the scale): by sqrt(b_f / norm) again, and by an ulp at least."""
    table = model.architecture == "table"
    sqn = np.sum(model.forward(features) ** 2, axis=-1)
    worst = sqn.ravel() if table else sqn.reshape(-1, sqn.shape[-1]).max(axis=-1)  # each table row, or member
    over = worst > b_f
    if not over.any():
        return
    units = model.parameters.reshape(len(worst), -1).copy()
    base, worst = units[over], worst[over]
    factor = np.sqrt(b_f / worst)
    while True:
        scaled = base * factor[:, None]
        sqn = np.sum((scaled if table else StudentModel(model.architecture, model.widths, scaled).forward(features))
                     ** 2, axis=-1)
        worst = sqn if table else sqn.max(axis=-1)
        still = worst > b_f
        if not still.any():
            break
        factor[still] = np.minimum(np.nextafter(factor[still], 0.0), factor[still] * np.sqrt(b_f / worst[still]))
    units[over] = scaled
    model.parameters = units.reshape(model.parameters.shape)


def verify_gradient(model: StudentModel, objective, seed: int) -> None:
    """Raise NumericError unless objective passes check_gradient on GRAD_CHECK_COORDS coordinates."""
    worst = check_gradient(model, objective, GRAD_CHECK_COORDS, seed)
    if worst >= GRAD_CHECK_REL_TOL:
        raise NumericError(f"gradient check failed: relative error {worst:.3e} >= 1e-4")


def descend(model: StudentModel, step_loss, opt: OptimizerConfig, features=None) -> list:
    """Momentum descent in place on a stack of students (one student is a stack of one), the training loop of
    `rkdlab rkd` and `rkdlab ssl`: step i descends on step_loss(i, members) = (the losses of `members`, the
    students left, and their parameter gradients) and projects rows to squared norm opt.b_f when set.  A loss
    non-finite or above DIVERGENCE_CAP takes its student out; returns per student None or that divergence."""
    velocity = np.zeros_like(model.parameters)
    members = list(range(len(model.parameters) if model.parameters.ndim == 2 else 1))
    traces = [[] for _ in members]
    errors = [None] * len(members)
    for step in range(opt.iterations):
        losses, grad = step_loss(step, members)
        diverged = False
        for i, loss in zip(members, losses):
            traces[i].append(loss)
            if not math.isfinite(loss) or loss > DIVERGENCE_CAP:
                errors[i] = TrainingDivergedError(f"loss {loss!r} at step {step}", trace=traces[i])
                diverged = True
        if diverged:
            keep = [j for j, i in enumerate(members) if errors[i] is None]
            members = [members[j] for j in keep]
            if not members:
                break
            model.parameters, velocity, grad = model.parameters[keep], velocity[keep], grad[keep]
        velocity *= opt.momentum
        velocity -= opt.step_size * grad
        model.parameters += velocity
        if opt.b_f is not None:
            _project_rows(model, features, opt.b_f)
    return errors


def train_student(
    model: StudentModel,
    g: PopulationGraph,
    kernel,
    opt: OptimizerConfig,
    features: np.ndarray | None = None,
    trace_out: list | None = None,
):
    """Gradient descent on the empirical RKD loss; returns (model, RkdLossReport).

    opt.sampler: "exhaustive" trains on all ordered pairs weighted by w_x w_x'
    (the population objective); an integer m resamples m i.i.d. pairs per step,
    after one batch drawn for the gradient check.  Pass a list as trace_out to
    collect (iteration, empirical_loss, population_loss) rows.
    """
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    model = model.copy()
    rng = np.random.default_rng(opt.seed)

    if opt.sampler == "exhaustive":
        grid = _PairLoss(*_exhaustive_batch(g, kmat))
        next_batch = lambda: grid  # noqa: E731
    else:
        table = _PairTable.build(np.arange(g.size), g.degrees())
        weights = np.full(opt.sampler, 1.0 / opt.sampler)

        def next_batch():
            pairs = table.draw(rng, opt.sampler)
            a, b = pairs[:, 0], pairs[:, 1]
            return _PairLoss(a, b, weights, kmat[a, b])

    pair_loss = next_batch()
    verify_gradient(model, pair_loss.objective(features), opt.seed)
    trace = None if trace_out is None else _LossTrace(g, trace_out)

    def step_loss(step, members):
        nonlocal pair_loss
        pair_loss = next_batch()
        scores = model.forward(features)
        loss, gscores = pair_loss(scores)
        if trace is not None:
            trace.add(step, loss, scores)
        return (loss,), model.backward(features, gscores)

    try:
        (diverged,) = descend(model, step_loss, opt, features)
    finally:
        if trace is not None:
            trace.flush()
    if diverged is not None:
        raise diverged

    pred = model.prediction(features)
    pop = population_rkd_loss(pred, g)
    emp, _ = pair_loss(pred.scores)
    floor = spectral_decompose(g).residual_weights(min(model.num_classes, g.size))
    b_f = float(np.max(np.sum(pred.scores**2, axis=1)))
    report = RkdLossReport(
        population_loss=pop,
        empirical_loss=float(emp),
        gap=pop - floor,
        b_f=b_f,
        b_k=float(kmat.max()),
    )
    return model, report


class _LossTrace:
    """The (step, empirical loss, population loss) rows of a training run.

    Each step's scores are kept, and the population loss of a block of steps
    is evaluated at once, with the floats, checks and errors of one
    population_rkd_loss call per step, in step order.  A block's |X| x |X|
    temporaries hold at most TRACE_BLOCK_BYTES each, so memory does not grow
    with the number of steps.
    """

    def __init__(self, g: PopulationGraph, rows: list):
        self.population = _PopulationLoss(g)
        self.capacity = max(1, TRACE_BLOCK_BYTES // (8 * g.size * g.size))
        self.rows = rows
        self.steps, self.losses = [], []  # of the kept scores
        self.block = None

    def add(self, step: int, loss: float, scores: np.ndarray) -> None:
        if self.block is None:
            self.block = np.empty((self.capacity, *scores.shape))
        self.block[len(self.steps)] = scores
        self.steps.append(step)
        self.losses.append(loss)
        if len(self.steps) == self.capacity:
            self.flush()

    def flush(self) -> None:
        """Append the kept steps' rows; raise at the first step whose scores
        are not finite or whose loss forms disagree, after the rows before it;
        the kept steps are dropped either way."""
        steps, losses = self.steps, self.losses
        self.steps, self.losses = [], []
        if not steps:
            return
        block = self.block[: len(steps)]
        finite = np.isfinite(block).all(axis=(1, 2))
        usable = len(block) if finite.all() else int(np.argmin(finite))
        if usable:
            matrix, expectation = self.population.forms(block[:usable])
            for step, loss, m, e in zip(steps, losses, matrix, expectation.tolist()):
                self.rows.append((step, loss, _agreed(m, e)))
        if usable < len(block):
            Prediction(scores=block[usable])  # raises: a non-finite score


# ---------------------------------------------------------------------------
# Rademacher complexity


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: float
    trials: int
    exact: bool


def _family_scores(family) -> list[np.ndarray]:
    out = []
    for member in family:
        out.append(member.scores if isinstance(member, Prediction) else np.asarray(member, float))
    if not out:
        raise DomainError("family must be nonempty")
    return out


def estimate_rademacher(
    family,
    g: PopulationGraph,
    N: int,
    trials: int,
    seed: int,
    exact: bool = False,
) -> RademacherEstimate:
    """sup-over-family Rademacher average of vector-valued scores on N draws.

    Monte Carlo over degree-weighted vertex draws and sign matrices; the exact
    mode enumerates both (guarded to tiny N, K, |X|).
    """
    members = _family_scores(family)
    K = members[0].shape[1]
    if exact:
        combos = g.size**N * 2 ** (N * K)
        if combos > 2_000_000:
            raise DomainError(f"exact enumeration of {combos} outcomes is too large")
        deg = g.degrees()
        total = 0.0
        signs = list(itertools.product((-1.0, 1.0), repeat=N * K))
        for draw in itertools.product(range(g.size), repeat=N):
            p = float(np.prod(deg[list(draw)]))
            acc = 0.0
            for flat in signs:
                rho = np.asarray(flat).reshape(N, K)
                acc += max(float(np.sum(rho * m[list(draw), :])) / N for m in members)
            total += p * acc / len(signs)
        return RademacherEstimate(value=total, stderr=0.0, trials=len(signs), exact=True)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    vals = np.empty(trials)
    deg = g.degrees()
    for t in range(trials):
        draw = rng.choice(g.size, size=N, p=deg)
        rho = rng.choice((-1.0, 1.0), size=(N, K))
        vals[t] = max(float(np.sum(rho * m[draw, :])) / N for m in members)
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RademacherEstimate(value=float(vals.mean()), stderr=stderr, trials=trials, exact=False)


def dnn_rademacher_bound(p: int, K: int, B_X: float, B_F: float, N: int) -> float:
    """Closed-form width-free complexity bound (2 sqrt(p log 2) + sqrt 2) K B_X B_F / sqrt(N)."""
    if p <= 0 or K <= 0 or B_X <= 0 or B_F <= 0 or N <= 0:
        raise DomainError("all inputs must be positive")
    return (2.0 * math.sqrt(p * math.log(2.0)) + math.sqrt(2.0)) * K * B_X * B_F / math.sqrt(N)


def theorem2_gap_bound(B_f: float, B_k: float, rad: float, N: int, delta: float) -> float:
    """High-probability population-loss gap bound driven by Rademacher complexity."""
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    if B_f <= 0 or B_k <= 0 or N <= 0 or rad < 0:
        raise DomainError("bounds and sample size must be positive, rad nonnegative")
    return 16.0 * math.sqrt(2.0 * B_f) * (B_f + B_k) * rad + 2.0 * (B_k + B_f) ** 2 * math.sqrt(
        math.log(4.0 / delta) / N
    )


# ---------------------------------------------------------------------------
# checkpoints and traces


def save_checkpoint(model: StudentModel, seed: int, path) -> None:
    payload = {
        "architecture": model.architecture,
        "widths": list(model.widths),
        "parameters": [float(x) for x in model.parameters],
        "seed": seed,
    }
    jsonio.dump_canonical(payload, path)


def load_checkpoint(path) -> StudentModel:
    data = jsonio.load(path)
    return StudentModel(
        architecture=data["architecture"],
        widths=tuple(data["widths"]),
        parameters=np.asarray(data["parameters"], dtype=float),
    )


def save_loss_trace(rows, path) -> None:
    """rows: iterable of (iteration, empirical_loss, population_loss)."""
    jsonio.dump_csv(("iteration", "empirical_loss", "population_loss"),
                    [(f"{it}", f"{emp:.17g}", f"{pop:.17g}") for it, emp, pop in rows], path)
