"""Teacher models as kernels over the population.

A teacher enters only through the pairwise kernel it induces.  The
graph-revealing kernel k(x, x') = w_xx' / (w_x w_x') satisfies
D^{1/2} K D^{1/2} = normalized adjacency exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfigError
from .graph_core import PopulationGraph, _freeze, gaussian_similarity, scaled_eigenvectors


@dataclass(frozen=True)
class TeacherEmbedding:
    """Per-vertex teacher feature vectors, one row per vertex."""

    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise InvalidConfigError(f"features must be 2-D, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise InvalidConfigError("non-finite teacher feature")
        object.__setattr__(self, "features", _freeze(feats))


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


def kernel_matrix(spec: KernelSpec, g: PopulationGraph) -> np.ndarray:
    """Materialize the |X| x |X| kernel matrix of `spec` on g's vertex set: the one
    evaluation of each variant (a zero shifted_cosine feature row is rejected when
    the spec is built)."""
    if spec.variant == "graph_revealing":
        deg = g.degrees()
        return g.weights / np.outer(deg, deg)
    feats = spec.embedding.features
    if feats.shape[0] != g.size:
        raise DomainError(f"embedding rows {feats.shape[0]} != |X| = {g.size}")
    if spec.variant == "rbf":
        return gaussian_similarity(feats, spec.bandwidth)
    unit = feats / np.linalg.norm(feats, axis=1)[:, None]
    return 1.0 + unit @ unit.T


def spectral_teacher_embedding(g: PopulationGraph, dim: int, noise: float, seed: int) -> TeacherEmbedding:
    """Synthetic teacher features: scaled Laplacian eigenvectors of a teacher graph.

    The leading `dim` eigenvectors, scaled by sqrt(1 - lambda_i) and unscaled by
    D^{1/2}, perturbed by Gaussian noise of scale `noise` drawn from `seed`
    (none at 0) to model a shifted teacher.
    """
    feats = scaled_eigenvectors(g, dim)
    if noise > 0:
        rng = np.random.default_rng(seed)
        feats = feats + noise * rng.standard_normal(feats.shape)
    return TeacherEmbedding(feats)

