"""Population and empirical relational-distillation losses and their minimizers.

The population loss is the Frobenius error of a rank-K reconstruction of the
normalized adjacency from degree-scaled student outputs; its exact minimizers
come from the leading Laplacian eigenvectors, and the empirical loss over
sampled vertex pairs is an unbiased estimate of it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InvalidConfigError, NotPsdError, NumericError, TrainingDivergedError
from .graph_core import PopulationGraph, normalized_adjacency, spectral_decompose
from .teacher_kernel import kernel_matrix

LOSS_AGREEMENT_TOL = 1e-9
GRAD_CHECK_REL_TOL = 1e-4
DIVERGENCE_CAP = 1e6


@dataclass(frozen=True)
class Prediction:
    """K-dimensional scores on every vertex; row x is f(x)."""

    scores: np.ndarray
    b_f: float | None = None

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        if s.ndim != 2:
            raise InvalidConfigError(f"scores must be 2-D, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise InvalidConfigError("non-finite prediction score")
        if self.b_f is not None:
            worst = float(np.max(np.sum(s**2, axis=1)))
            if worst > self.b_f + 1e-9:
                raise InvalidConfigError(f"row squared norm {worst} exceeds declared bound {self.b_f}")
        s = np.ascontiguousarray(s)
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1]

    def hard_labels(self) -> np.ndarray:
        """Deterministic argmax labels (first maximal index)."""
        return np.argmax(self.scores, axis=1)

    def hard_labels_stochastic(self, rng: np.random.Generator, tol: float = 1e-9) -> np.ndarray:
        """Argmax with uniform tie-breaking among entries within tol of the row max."""
        out = np.empty(self.scores.shape[0], dtype=int)
        for i, row in enumerate(self.scores):
            ties = np.nonzero(row >= row.max() - tol)[0]
            out[i] = ties[0] if len(ties) == 1 else rng.choice(ties)
        return out


@dataclass
class StudentModel:
    """Small parametric student: a score table, a linear map, or a 1-hidden-layer net.

    widths:
      - table:  (|X|, K), parameters are the score table itself
      - linear: (d, K)
      - mlp:    (d, h, K), tanh hidden activation
    """

    architecture: str
    widths: tuple
    parameters: np.ndarray

    def __post_init__(self):
        if self.architecture not in ("table", "linear", "mlp"):
            raise InvalidConfigError(f"unknown architecture {self.architecture!r}")
        self.widths = tuple(int(w) for w in self.widths)
        expect = self.parameter_count(self.architecture, self.widths)
        self.parameters = np.asarray(self.parameters, dtype=float).ravel().copy()
        if self.parameters.size != expect:
            raise InvalidConfigError(
                f"{self.architecture}{self.widths} needs {expect} parameters, got {self.parameters.size}"
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
    def depth(self) -> int:
        """Number of weight layers p."""
        return 2 if self.architecture == "mlp" else 1

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @classmethod
    def initialize(cls, architecture: str, widths, seed: int, scale: float = 0.1) -> "StudentModel":
        rng = np.random.default_rng(seed)
        count = cls.parameter_count(architecture, tuple(widths))
        return cls(architecture, tuple(widths), scale * rng.standard_normal(count))

    def _unpack(self):
        if self.architecture == "mlp":
            d, h, k = self.widths
            a1 = self.parameters[: h * d].reshape(h, d)
            a2 = self.parameters[h * d :].reshape(k, h)
            return a1, a2
        return (self.parameters.reshape(self.widths[-1], self.widths[0])
                if self.architecture == "linear"
                else self.parameters.reshape(self.widths))

    def forward(self, features: np.ndarray | None) -> np.ndarray:
        """Scores for all vertices; `features` is ignored by the table model."""
        if self.architecture == "table":
            return self.parameters.reshape(self.widths)
        if features is None:
            raise DomainError(f"{self.architecture} model needs input features")
        x = np.asarray(features, dtype=float)
        if self.architecture == "linear":
            return x @ self._unpack().T
        a1, a2 = self._unpack()
        return np.tanh(x @ a1.T) @ a2.T

    def backward(self, features: np.ndarray | None, gscores: np.ndarray) -> np.ndarray:
        """Gradient with respect to the flat parameters, given the gradient
        `gscores` of a loss with respect to the scores `forward(features)`."""
        if self.architecture == "table":
            return gscores.ravel()
        if features is None:
            raise DomainError(f"{self.architecture} model needs input features")
        x = np.asarray(features, dtype=float)
        if self.architecture == "linear":
            return (gscores.T @ x).ravel()
        a1, a2 = self._unpack()
        hidden = np.tanh(x @ a1.T)
        ga2 = gscores.T @ hidden
        gpre = (gscores @ a2) * (1.0 - hidden**2)
        ga1 = gpre.T @ x
        return np.concatenate([ga1.ravel(), ga2.ravel()])

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
    step_size: float
    iterations: int
    seed: int
    momentum: float = 0.0
    b_f: float | None = None
    pairs_per_step: int = 0  # 0 means exhaustive weighted pairing
    init_scale: float = 0.1
    grad_check_coords: int = 10

    def __post_init__(self):
        if self.step_size <= 0:
            raise InvalidConfigError("step size must be positive")
        if self.iterations < 0:
            raise InvalidConfigError("iteration cap must be nonnegative")


def population_rkd_loss(f: Prediction, g: PopulationGraph) -> float:
    """|| Wbar - D^{1/2} F F^T D^{1/2} ||_F^2, cross-checked against its
    expectation form over weighted vertex pairs (agreement within 1e-9)."""
    scores = f.scores
    if scores.shape[0] != g.size:
        raise DomainError(f"prediction rows {scores.shape[0]} != |X| = {g.size}")
    deg = g.degrees()
    sd = np.sqrt(deg)
    wbar = normalized_adjacency(g)
    gram = (scores * sd[:, None]) @ (scores * sd[:, None]).T
    matrix_form = float(np.linalg.norm(wbar - gram) ** 2)
    kmat = g.weights / np.outer(deg, deg)
    expectation_form = float(
        np.sum(np.outer(deg, deg) * (kmat - scores @ scores.T) ** 2)
    )
    if abs(matrix_form - expectation_form) > LOSS_AGREEMENT_TOL * max(1.0, matrix_form):
        raise NumericError(
            f"population loss forms disagree: {matrix_form!r} vs {expectation_form!r}"
        )
    return matrix_form


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
    return float(np.sum(np.outer(deg, deg) * (f.scores @ f.scores.T - kmat) ** 2))


def draw_pairs(g: PopulationGraph, num_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Consecutive disjoint pairs from an i.i.d. degree-weighted vertex draw."""
    if num_pairs < 1:
        raise DomainError("need at least one pair")
    draws = rng.choice(g.size, size=2 * num_pairs, p=g.degrees())
    return draws.reshape(num_pairs, 2)


def exact_population_minimizer(g: PopulationGraph, K: int, rotation: np.ndarray | None = None) -> Prediction:
    """Closed-form population minimizer D^{-1/2} V_K diag(sqrt(1-lambda_i)) Q.

    Requires 1 - lambda_i >= 0 for i <= K (guaranteed when the normalized
    adjacency is positive semi-definite); any orthogonal Q gives the same loss.
    """
    if not 1 <= K <= g.size:
        raise DomainError(f"need 1 <= K <= |X|, got K={K}")
    if rotation is None:
        rotation = np.eye(K)
    q = np.asarray(rotation, dtype=float)
    if q.shape != (K, K) or np.linalg.norm(q.T @ q - np.eye(K)) > 1e-10:
        raise DomainError("rotation must be a K x K orthogonal matrix")
    dec = spectral_decompose(g)
    head = dec.eigenvalues[:K]
    if np.any(1.0 - head < -1e-10):
        raise NotPsdError(
            f"1 - lambda_{int(np.argmax(head)) + 1} < 0: normalized adjacency is not PSD on the top-K block"
        )
    scale = np.sqrt(np.clip(1.0 - head, 0.0, None))
    scores = (dec.eigenvectors[:, :K] * scale[None, :]) @ q / np.sqrt(g.degrees())[:, None]
    return Prediction(scores=scores)


def random_rotation(K: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((K, K)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# training


def _loss_and_grad(model: StudentModel, features, a, b, u, kvals):
    """Weighted pair loss sum_i u_i (f(a_i)^T f(b_i) - k_i)^2 and its gradient."""
    scores = model.forward(features)
    fa, fb = scores[a], scores[b]
    resid = np.sum(fa * fb, axis=1) - kvals
    loss = float(np.sum(u * resid**2))
    coef = (2.0 * u * resid)[:, None]
    gscores = np.zeros_like(scores)
    np.add.at(gscores, a, coef * fb)
    np.add.at(gscores, b, coef * fa)
    return loss, model.backward(features, gscores)


def _exhaustive_batch(g: PopulationGraph, kmat: np.ndarray):
    n = g.size
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a, b = a.ravel(), b.ravel()
    deg = g.degrees()
    return a, b, deg[a] * deg[b], kmat[a, b]


def check_gradient(model: StudentModel, features, a, b, u, kvals, coords: int, seed: int) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    _, grad = _loss_and_grad(model, features, a, b, u, kvals)
    rng = np.random.default_rng(seed)
    idx = rng.choice(model.parameters.size, size=min(coords, model.parameters.size), replace=False)
    worst = 0.0
    h = 1e-6
    for i in idx:
        probe = model.copy()
        probe.parameters[i] += h
        up, _ = _loss_and_grad(probe, features, a, b, u, kvals)
        probe.parameters[i] -= 2 * h
        down, _ = _loss_and_grad(probe, features, a, b, u, kvals)
        numeric = (up - down) / (2 * h)
        scale = max(abs(numeric), abs(grad[i]), 1e-8)
        worst = max(worst, abs(numeric - grad[i]) / scale)
    return worst


def _project_rows(model: StudentModel, features, b_f: float) -> None:
    """Clip per-vertex squared row norms to b_f (table model rescales its rows;
    parametric models rescale all parameters by the worst violation)."""
    scores = model.forward(features)
    sqn = np.sum(scores**2, axis=1)
    if model.architecture == "table":
        factor = np.minimum(1.0, np.sqrt(b_f / np.maximum(sqn, 1e-300)))
        model.parameters = (scores * factor[:, None]).ravel()
    else:
        worst = float(sqn.max())
        if worst > b_f:
            model.parameters *= math.sqrt(b_f / worst)


def train_student(
    model: StudentModel,
    g: PopulationGraph,
    kernel,
    sampler,
    opt: OptimizerConfig,
    features: np.ndarray | None = None,
    trace_out: list | None = None,
):
    """Gradient descent on the empirical RKD loss; returns (model, RkdLossReport).

    sampler: "exhaustive" trains on all ordered pairs weighted by w_x w_x'
    (the population objective); an integer m resamples m i.i.d. pairs per step.
    The analytic gradient is checked against central differences at
    initialization and must agree to 1e-4 relative error.  Pass a list as
    trace_out to collect (iteration, empirical_loss, population_loss) rows.
    """
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    model = model.copy()
    rng = np.random.default_rng(opt.seed)

    if sampler == "exhaustive" or (isinstance(sampler, int) and sampler == 0):
        batch_fn = None
        a0, b0, u0, k0 = _exhaustive_batch(g, kmat)
    elif isinstance(sampler, int):
        def batch_fn():
            pairs = draw_pairs(g, sampler, rng)
            a, b = pairs[:, 0], pairs[:, 1]
            return a, b, np.full(len(a), 1.0 / len(a)), kmat[a, b]

        a0, b0, u0, k0 = batch_fn()
    elif callable(sampler):
        def batch_fn():
            pairs = np.asarray(sampler(g, rng), dtype=int).reshape(-1, 2)
            a, b = pairs[:, 0], pairs[:, 1]
            return a, b, np.full(len(a), 1.0 / len(a)), kmat[a, b]

        a0, b0, u0, k0 = batch_fn()
    else:
        raise InvalidConfigError(f"unsupported sampler {sampler!r}")

    worst = check_gradient(model, features, a0, b0, u0, k0, opt.grad_check_coords, opt.seed)
    if worst >= GRAD_CHECK_REL_TOL:
        raise NumericError(f"gradient check failed: relative error {worst:.3e} >= 1e-4")

    velocity = np.zeros_like(model.parameters)
    trace = []
    a, b, u, kv = a0, b0, u0, k0
    for step in range(opt.iterations):
        if batch_fn is not None:
            a, b, u, kv = batch_fn()
        loss, grad = _loss_and_grad(model, features, a, b, u, kv)
        trace.append(loss)
        if trace_out is not None:
            trace_out.append((step, loss, population_rkd_loss(model.prediction(features), g)))
        if not math.isfinite(loss) or loss > DIVERGENCE_CAP:
            raise TrainingDivergedError(f"loss {loss!r} at step {step}", trace=trace)
        velocity = opt.momentum * velocity - opt.step_size * grad
        model.parameters = model.parameters + velocity
        if opt.b_f is not None:
            _project_rows(model, features, opt.b_f)

    pred = model.prediction(features)
    pop = population_rkd_loss(pred, g)
    emp, _ = _loss_and_grad(model, features, a, b, u, kv)
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
    from .jsonio import dump_canonical

    dump_canonical(payload, path)


def load_checkpoint(path) -> StudentModel:
    data = json.loads(Path(path).read_text())
    return StudentModel(
        architecture=data["architecture"],
        widths=tuple(data["widths"]),
        parameters=np.asarray(data["parameters"], dtype=float),
    )


def save_loss_trace(rows, path) -> None:
    """rows: iterable of (iteration, empirical_loss, population_loss)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "empirical_loss", "population_loss"])
        for it, emp, pop in rows:
            writer.writerow([it, format(emp, ".17g"), format(pop, ".17g")])
