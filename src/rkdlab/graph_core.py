"""Population-induced graphs and their spectral quantities.

A population graph is a finite weighted undirected graph whose edge weights
double as the data distribution: the degree of a vertex is its sampling
probability, and the total weight mass is normalized to 1 at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateGraphError, InvalidConfigError, NumericError
from . import jsonio

TOTAL_MASS_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only contiguous array that no other array can write through.

    A view is copied, because its base may stay writeable; an array that owns
    its data (every builder's output) is frozen in place.
    """
    a = np.ascontiguousarray(a)
    if not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PopulationGraph:
    """Finite weighted graph over the population; weights are the distribution.

    Invariants (checked at construction): the weight matrix is symmetric and
    nonnegative, its total mass is 1 within 1e-12, every vertex has positive
    degree, and every class label in [0, num_classes) is present.  Weights
    and labels are read-only after construction, which lets the graph keep
    its degrees and spectral_decompose cache the graph's spectrum on it.
    """

    vertices: tuple
    weights: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        n = len(self.vertices)
        if n < 2:
            raise InvalidConfigError(f"graph needs at least 2 vertices, got {n}")
        if w.shape != (n, n):
            raise InvalidConfigError(f"weight matrix shape {w.shape} != ({n}, {n})")
        if labels.shape != (n,):
            raise InvalidConfigError(f"labels shape {labels.shape} != ({n},)")
        if not np.array_equal(w, w.T):
            raise InvalidConfigError("weight matrix is not symmetric")
        if np.any(w < 0):
            raise InvalidConfigError("negative edge weight")
        total = w.sum()
        if abs(total - 1.0) > TOTAL_MASS_TOL:
            raise InvalidConfigError(f"total weight mass {total!r} != 1 beyond 1e-12")
        deg = w.sum(axis=1)
        if np.any(deg <= 0):
            bad = int(np.argmin(deg))
            raise DegenerateGraphError(f"vertex {self.vertices[bad]} has zero degree")
        if self.num_classes < 1:
            raise InvalidConfigError("num_classes must be positive")
        if np.any(labels < 0) or np.any(labels >= self.num_classes):
            raise InvalidConfigError("label outside [0, num_classes)")
        present = np.unique(labels)
        if len(present) != self.num_classes:
            missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
            raise InvalidConfigError(f"empty class(es): {missing}")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "_degrees", _freeze(self.weights.sum(axis=1)))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def degrees(self) -> np.ndarray:
        """Per-vertex degree w_x (read-only); equals the sampling probability P(x)."""
        return self._degrees

    def class_masses(self) -> np.ndarray:
        """Probability mass of each ground-truth class."""
        deg = self.degrees()
        return np.array([deg[self.labels == k].sum() for k in range(self.num_classes)])

    def class_members(self, k: int) -> np.ndarray:
        return np.nonzero(self.labels == k)[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of I - normalized adjacency."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.asarray(self.eigenvectors, dtype=float)))

    def residual_weights(self, K: int) -> float:
        """Tail energy sum_{i>K} (1 - lambda_i)^2, the rank-K approximation floor."""
        lam = self.eigenvalues[K:]
        return float(np.sum((1.0 - lam) ** 2))


def normalized_adjacency(g: PopulationGraph) -> np.ndarray:
    """D^{-1/2} W D^{-1/2}; symmetric with entries w_xx' / sqrt(w_x w_x')."""
    inv_sqrt = 1.0 / np.sqrt(g.degrees())
    return g.weights * np.outer(inv_sqrt, inv_sqrt)


def laplacian(g: PopulationGraph) -> np.ndarray:
    return np.eye(g.size) - normalized_adjacency(g)


def spectral_decompose(g: PopulationGraph) -> SpectralDecomposition:
    """Eigendecomposition of the normalized Laplacian, ascending eigenvalues.

    Sign convention: in each eigenvector the first entry of magnitude above
    1e-10 is made positive, so repeated runs agree bit-for-bit.  Computed
    once per graph: the checked decomposition is stored on the graph, and
    every later call returns that same read-only object.
    """
    cached = g.__dict__.get("_spectrum")
    if cached is not None:
        return cached
    lap = laplacian(g)
    try:
        lam, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(lap))
        raise NumericError(f"eigensolver failed to converge (cond={cond:.3e})") from exc
    above = np.abs(vecs) > 1e-10
    first = (above.argmax(axis=0), np.arange(vecs.shape[1]))  # each column's first entry above 1e-10, if any
    vecs *= np.where(above[first] & (vecs[first] < 0), -1.0, 1.0)  # a product with +-1 is exact
    recon = (vecs * lam) @ vecs.T
    err = float(np.linalg.norm(recon - lap))
    if err > RECONSTRUCTION_TOL:
        raise NumericError(f"eigen reconstruction error {err:.3e} exceeds 1e-8")
    if lam[0] < -EIGENVALUE_TOL or abs(lam[0]) > EIGENVALUE_TOL:
        raise NumericError(f"smallest Laplacian eigenvalue {lam[0]!r} not ~0")
    if lam[-1] > 2.0 + EIGENVALUE_TOL:
        raise NumericError(f"largest Laplacian eigenvalue {lam[-1]!r} exceeds 2")
    dec = SpectralDecomposition(eigenvalues=lam, eigenvectors=vecs)
    object.__setattr__(g, "_spectrum", dec)
    return dec


def scaled_eigenvectors(g: PopulationGraph, K: int, rotation: np.ndarray | None = None) -> np.ndarray:
    """D^{-1/2} V_K diag(sqrt(1 - lambda_i)) Q, one row per vertex.

    The leading K eigenvectors scaled by sqrt(1 - lambda_i) (clipped at 0),
    rotated by Q when one is given, then unscaled by D^{1/2}.  An (R, K, K)
    stack of rotations gives an (R, |X|, K) stack, rotated by one matmul.
    """
    dec = spectral_decompose(g)
    rows = dec.eigenvectors[:, :K] * np.sqrt(np.clip(1.0 - dec.eigenvalues[:K], 0.0, None))[None, :]
    if rotation is not None:
        rows = rows @ rotation
    return rows / np.sqrt(g.degrees())[:, None]


def inter_class_fraction(g: PopulationGraph) -> float:
    """Fraction of edge-weight mass that crosses ground-truth class boundaries.

    Counted over ordered pairs, which makes it coincide exactly with the
    Laplacian quadratic form sum_k y_k^T L y_k of the degree-scaled one-hot
    labels (label_boundary_mass in tests/oracles.py, the test oracle of this
    identity).
    """
    cross = float(g.weights[g.labels[:, None] != g.labels[None, :]].sum())
    total = float(g.weights.sum())
    return cross / total


def _normalize_weights(w: np.ndarray) -> np.ndarray:
    total = w.sum()
    if total <= 0:
        raise DegenerateGraphError("graph has zero total weight")
    # skip the division when already normalized so save/load round-trips are
    # value-exact on the stored decimal strings
    if abs(total - 1.0) <= TOTAL_MASS_TOL:
        return w
    return w / total


def build_sbm(
    num_classes: int,
    sizes,
    p_in: float,
    p_out: float,
    seed: int,
) -> PopulationGraph:
    """Stochastic block model with equal-weight Bernoulli edges, normalized to mass 1.

    Resamples with an incremented sub-seed until every vertex has positive
    degree and every class-induced subgraph is connected (the latter only when
    p_in > 0), failing after 100 attempts.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) != num_classes:
        raise InvalidConfigError(f"graph.sizes={sizes!r} must hold {num_classes} block sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise InvalidConfigError(f"graph.sizes={sizes!r}: every class must have at least one vertex")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise InvalidConfigError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    n = sum(sizes)
    labels = np.repeat(np.arange(num_classes), sizes)
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        same = labels[:, None] == labels[None, :]
        probs = np.where(same, p_in, p_out)
        upper = np.triu(rng.random((n, n)) < probs, k=1)
        adj = (upper | upper.T).astype(float)
        if adj.sum() == 0:
            continue
        if np.any(adj.sum(axis=1) == 0):
            continue
        if p_in > 0 and not all(
            _is_connected(adj[np.ix_(labels == k, labels == k)]) for k in range(num_classes)
        ):
            continue
        weights = adj / adj.sum()
        return PopulationGraph(
            vertices=tuple(range(n)), weights=weights, labels=labels, num_classes=num_classes
        )
    raise DegenerateGraphError(
        "could not sample a graph with positive degrees in 100 attempts"
    )


def _is_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    if n <= 1:
        return True
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def lazy_graph(g: PopulationGraph) -> PopulationGraph:
    """Half the mass moved onto self-loops: W' = (W + diag(degrees)) / 2.

    Degrees (hence the distribution) are unchanged, and the normalized
    adjacency becomes (Wbar + I)/2, which is always positive semi-definite, so
    the closed-form population minimizers exist at every K.
    """
    w = (g.weights + np.diag(g.degrees())) / 2.0
    return PopulationGraph(vertices=g.vertices, weights=w, labels=g.labels, num_classes=g.num_classes)


def gaussian_similarity(points: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-||p - p'||^2 / (2 bandwidth^2)) of every pair of rows, roundoff below 0 taken as 0: the rbf kernel, and
    the two-blob weights before normalization.  The cross term is the two-blob fixture's general matmul (2 p) @ p.T:
    numpy's p @ p.T, a symmetric rank-k update, rounds some entries apart when the row count is not a multiple of 8."""
    sq = np.sum(points**2, axis=1)
    dist2 = np.maximum(sq[:, None] + sq[None, :] - (2.0 * points) @ points.T, 0.0)
    return np.exp(-dist2 / (2.0 * bandwidth**2))


def build_two_blobs(
    n_per_class: int,
    separation: float = 4.0,
    noise: float = 0.6,
    bandwidth: float = 1.2,
    seed: int = 0,
):
    """Two Gaussian blobs in the plane with a Gaussian-similarity graph.

    Returns (graph, points).  The weights are the rbf kernel's similarity,
    which is positive semi-definite, so the normalized adjacency is as well.
    """
    if n_per_class < 1:
        raise InvalidConfigError(f"graph.n_per_class={n_per_class!r} must be at least 1 (one point per blob)")
    if not bandwidth > 0:
        raise InvalidConfigError(f"graph.bandwidth={bandwidth!r} must be positive")
    rng = np.random.default_rng(seed)
    centers = np.array([[-separation / 2.0, 0.0], [separation / 2.0, 0.0]])
    points = np.vstack([
        centers[0] + noise * rng.standard_normal((n_per_class, 2)),
        centers[1] + noise * rng.standard_normal((n_per_class, 2)),
    ])
    labels = np.repeat([0, 1], n_per_class)
    graph = PopulationGraph(
        vertices=tuple(range(len(points))),
        weights=_normalize_weights(gaussian_similarity(points, bandwidth)),
        labels=labels,
        num_classes=2,
    )
    return graph, points


def save_graph(g: PopulationGraph, path) -> None:
    """Write the JSON graph format: upper-triangle [i, j, w] edge triples."""
    lines = []
    n = g.size
    for i in range(n):
        for j in range(i, n):
            w = g.weights[i, j]
            if w != 0.0:
                lines.append(f"    [{i}, {j}, {jsonio.format_float(float(w))}]")
    edges = ",\n".join(lines)
    labels = ", ".join(str(int(x)) for x in g.labels)
    vertices = ", ".join(json.dumps(v) for v in g.vertices)
    text = (
        "{\n"
        f'  "vertices": [{vertices}],\n'
        f'  "num_classes": {g.num_classes},\n'
        f'  "labels": [{labels}],\n'
        f'  "edges": [\n{edges}\n  ]\n'
        "}\n"
    )
    Path(path).write_text(text)


def load_graph(path) -> PopulationGraph:
    """Load the JSON graph format; symmetrizes edges and normalizes total mass."""
    data = jsonio.load(path)
    vertices = tuple(data["vertices"])
    n = len(vertices)
    weights = np.zeros((n, n))
    for i, j, w in data["edges"]:
        i, j = int(i), int(j)
        if not (0 <= i <= j < n):
            raise InvalidConfigError(f"edge ({i}, {j}) outside vertex range or i > j")
        weights[i, j] = float(w)
        weights[j, i] = float(w)
    weights = _normalize_weights(weights)
    return PopulationGraph(
        vertices=vertices,
        weights=weights,
        labels=np.asarray(data["labels"], dtype=int),
        num_classes=int(data["num_classes"]),
    )
