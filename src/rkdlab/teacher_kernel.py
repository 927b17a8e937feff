"""Teacher models as kernels over the population.

A teacher enters only through the pairwise kernel it induces.  The
graph-revealing kernel k(x, x') = w_xx' / (w_x w_x') satisfies
D^{1/2} K D^{1/2} = normalized adjacency exactly, which is the identity
verified by verify_graph_revealing_identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InvalidConfigError
from .graph_core import PopulationGraph, normalized_adjacency, scaled_eigenvectors


@dataclass(frozen=True)
class TeacherEmbedding:
    """Per-vertex teacher feature vectors, one row per vertex."""

    features: np.ndarray
    dim: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise InvalidConfigError(f"features shape {feats.shape} inconsistent with dim={self.dim}")
        if not np.all(np.isfinite(feats)):
            raise InvalidConfigError("non-finite teacher feature")
        feats = np.ascontiguousarray(feats)
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)

    @classmethod
    def from_arrays(cls, features) -> "TeacherEmbedding":
        feats = np.asarray(features, dtype=float)
        return cls(features=feats, dim=feats.shape[1])


@dataclass(frozen=True)
class KernelSpec:
    """One of three kernel variants evaluated on a graph's vertex set.

    variant:
      - "graph_revealing": k(x, x') = w_xx' / (w_x w_x'); needs only the graph.
      - "shifted_cosine": 1 + cosine similarity of teacher features, values in [0, 2].
      - "rbf": exp(-||psi(x) - psi(x')||^2 / (2 bandwidth^2)).
    """

    variant: str
    embedding: TeacherEmbedding | None = None
    bandwidth: float | None = None

    def __post_init__(self):
        if self.variant not in ("graph_revealing", "shifted_cosine", "rbf"):
            raise InvalidConfigError(f"unknown kernel variant {self.variant!r}")
        if self.variant in ("shifted_cosine", "rbf") and self.embedding is None:
            raise InvalidConfigError(f"{self.variant} kernel needs a teacher embedding")
        if self.variant == "shifted_cosine":
            norms = np.linalg.norm(self.embedding.features, axis=1)
            if np.any(norms == 0):
                raise DomainError("shifted_cosine is undefined on a zero feature vector")
        if self.variant == "rbf" and not (self.bandwidth and self.bandwidth > 0):
            raise InvalidConfigError("rbf kernel needs bandwidth > 0")

    @classmethod
    def graph_revealing(cls) -> "KernelSpec":
        return cls(variant="graph_revealing")

    @classmethod
    def shifted_cosine(cls, embedding: TeacherEmbedding) -> "KernelSpec":
        return cls(variant="shifted_cosine", embedding=embedding)

    @classmethod
    def rbf(cls, embedding: TeacherEmbedding, bandwidth: float) -> "KernelSpec":
        return cls(variant="rbf", embedding=embedding, bandwidth=bandwidth)

    def pairwise(self, points) -> np.ndarray:
        """Pairwise kernel values over arbitrary feature rows (embedding variants only)."""
        pts = np.asarray(points, dtype=float)
        if self.variant == "shifted_cosine":
            norms = np.linalg.norm(pts, axis=1)
            if np.any(norms == 0):
                raise DomainError("shifted_cosine is undefined on a zero feature vector")
            unit = pts / norms[:, None]
            return 1.0 + unit @ unit.T
        if self.variant == "rbf":
            sq = np.sum(pts**2, axis=1)
            dist2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
            np.maximum(dist2, 0.0, out=dist2)
            return np.exp(-dist2 / (2.0 * self.bandwidth**2))
        raise DomainError("graph_revealing kernel is evaluated on a graph, not raw points")


def kernel_matrix(spec: KernelSpec, g: PopulationGraph) -> np.ndarray:
    """Materialize the |X| x |X| kernel matrix of `spec` on g's vertex set."""
    if spec.variant == "graph_revealing":
        deg = g.degrees()
        if (deg <= 0).any():
            raise DomainError("graph-revealing kernel needs positive degrees")
        return g.weights / np.outer(deg, deg)
    feats = spec.embedding.features
    if feats.shape[0] != g.size:
        raise DomainError(f"embedding rows {feats.shape[0]} != |X| = {g.size}")
    return spec.pairwise(feats)


def kernel_bound(spec: KernelSpec, g: PopulationGraph) -> float:
    """B_k: the maximum kernel value on the vertex set."""
    return float(kernel_matrix(spec, g).max())


def verify_graph_revealing_identity(g: PopulationGraph) -> float:
    """Frobenius residual of D^{1/2} K D^{1/2} - normalized adjacency.

    Zero (to machine precision) for the graph-revealing kernel of g itself.
    """
    kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
    sqrt_deg = np.sqrt(g.degrees())
    lhs = kmat * np.outer(sqrt_deg, sqrt_deg)
    return float(np.linalg.norm(lhs - normalized_adjacency(g)))


def spectral_teacher_embedding(g: PopulationGraph, dim: int, noise: float = 0.0, seed: int = 0) -> TeacherEmbedding:
    """Synthetic teacher features: scaled Laplacian eigenvectors of a teacher graph.

    The leading `dim` eigenvectors, scaled by sqrt(1 - lambda_i) and unscaled by
    D^{1/2}, optionally perturbed by Gaussian noise to model a shifted teacher.
    """
    feats = scaled_eigenvectors(g, dim)
    if noise > 0:
        rng = np.random.default_rng(seed)
        feats = feats + noise * rng.standard_normal(feats.shape)
    return TeacherEmbedding.from_arrays(feats)


def load_embedding(path) -> TeacherEmbedding:
    """Load {"dim": d, "features": [[...], ...]} aligned with graph vertex order."""
    data = json.loads(Path(path).read_text())
    return TeacherEmbedding(features=np.asarray(data["features"], dtype=float), dim=int(data["dim"]))


def save_embedding(emb: TeacherEmbedding, path) -> None:
    from .jsonio import dump_canonical

    dump_canonical({"dim": emb.dim, "features": emb.features}, path)
