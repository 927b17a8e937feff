import math

import numpy as np
import pytest

from rkdlab.errors import DomainError, InvalidConfigError
from rkdlab.graph_core import build_two_blobs, normalized_adjacency
from rkdlab.teacher_kernel import (
    KernelSpec,
    TeacherEmbedding,
    kernel_matrix,
    spectral_teacher_embedding,
)

from conftest import hand_graph
from oracles import verify_graph_revealing_identity


class TestKernelMatrix:
    def test_graph_revealing_two_vertex(self):
        g = hand_graph([[0.0, 0.5], [0.5, 0.0]], [0, 1], 2)
        kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
        assert math.isclose(kmat[0, 1], 2.0, abs_tol=1e-15)

    def test_shifted_cosine_extremes(self):
        emb = TeacherEmbedding([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        g = hand_graph(np.ones((3, 3)), [0, 0, 1], 2)
        kmat = kernel_matrix(KernelSpec.shifted_cosine(emb), g)
        assert math.isclose(kmat[0, 1], 2.0, abs_tol=1e-12)
        assert math.isclose(kmat[0, 2], 0.0, abs_tol=1e-12)
        assert kmat.min() >= -1e-12 and kmat.max() <= 2.0 + 1e-12

    def test_rbf_identical_points(self):
        emb = TeacherEmbedding([[1.0], [1.0], [1.0]])
        g = hand_graph(np.ones((3, 3)), [0, 0, 1], 2)
        kmat = kernel_matrix(KernelSpec.rbf(emb, bandwidth=0.7), g)
        assert np.allclose(kmat, 1.0)

    @pytest.mark.parametrize("n_per_class", [7, 8])
    def test_two_blob_weights_are_the_normalized_rbf_kernel(self, n_per_class):
        # 14 points: a row count that is not a multiple of 8, where numpy's
        # p @ p.T (a syrk) and a general matmul round a few entries apart
        g, points = build_two_blobs(n_per_class, bandwidth=0.5, seed=n_per_class)
        kmat = kernel_matrix(KernelSpec.rbf(TeacherEmbedding(points), 0.5), g)
        assert np.array_equal(g.weights, kmat / kmat.sum())

    def test_zero_vector_rejected_for_cosine(self):
        with pytest.raises(DomainError, match="zero feature"):
            KernelSpec.shifted_cosine(TeacherEmbedding([[0.0, 0.0], [1.0, 0.0]]))

    def test_bad_bandwidth(self):
        emb = TeacherEmbedding([[1.0]])
        with pytest.raises(InvalidConfigError):
            KernelSpec.rbf(emb, bandwidth=0.0)

    def test_unknown_variant(self):
        with pytest.raises(InvalidConfigError, match="unknown kernel variant 'cosine'"):
            KernelSpec(variant="cosine")

    @pytest.mark.parametrize("variant", ["shifted_cosine", "rbf"])
    def test_embedding_variants_need_features(self, variant):
        with pytest.raises(InvalidConfigError, match=f"{variant} kernel needs a teacher embedding"):
            KernelSpec(variant=variant, bandwidth=1.0)

    @pytest.mark.parametrize("variant", ["shifted_cosine", "rbf"])
    def test_embedding_rows_must_match_the_vertex_set(self, variant):
        g = hand_graph(np.ones((3, 3)), [0, 0, 1], 2)
        spec = KernelSpec(variant=variant, embedding=TeacherEmbedding(np.ones((2, 1))), bandwidth=1.0)
        with pytest.raises(DomainError, match=r"embedding rows 2 != \|X\| = 3"):
            kernel_matrix(spec, g)

    def test_symmetry(self, sbm_pair):
        kmat = kernel_matrix(KernelSpec.graph_revealing(), sbm_pair)
        assert np.array_equal(kmat, kmat.T)


class TestGraphRevealingIdentity:
    def test_residual_negligible_on_any_graph(self, sbm_pair, disconnected_blocks):
        assert verify_graph_revealing_identity(sbm_pair) < 1e-10
        assert verify_graph_revealing_identity(disconnected_blocks) < 1e-10

    def test_self_loop_graph_kernel_is_inverse_degree(self):
        g = hand_graph(np.eye(3), [0, 0, 1], 2)
        kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
        assert np.allclose(kmat, np.diag(1.0 / g.degrees()))
        assert verify_graph_revealing_identity(g) < 1e-10

    def test_mismatched_kernel_residual_is_positive(self, sbm_pair):
        emb = spectral_teacher_embedding(sbm_pair, dim=2, noise=0.0, seed=0)
        kmat = kernel_matrix(KernelSpec.shifted_cosine(emb), sbm_pair)
        sd = np.sqrt(sbm_pair.degrees())
        residual = np.linalg.norm(kmat * np.outer(sd, sd) - normalized_adjacency(sbm_pair))
        assert residual > 0.0  # reported, not asserted against a bound

    def test_kernel_psd_iff_normalized_adjacency_psd(self, sbm_pair):
        # congruence: D^{1/2} K D^{1/2} = Wbar, so inertia matches
        kmat = kernel_matrix(KernelSpec.graph_revealing(), sbm_pair)
        k_eigs = np.linalg.eigvalsh(kmat)
        w_eigs = np.linalg.eigvalsh(normalized_adjacency(sbm_pair))
        assert (k_eigs.min() >= -1e-10) == (w_eigs.min() >= -1e-10)
        assert k_eigs.min() >= -1e-10  # lazy fixture is PSD


class TestEmbeddingIO:
    def test_features_must_be_one_row_per_vertex(self):
        with pytest.raises(InvalidConfigError, match="2-D"):
            TeacherEmbedding(np.ones(3))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidConfigError):
            TeacherEmbedding([[np.inf, 0.0]])


class TestSpectralTeacherEmbedding:
    def test_noiseless_embedding_reproduces_adjacency(self, sbm_pair):
        emb = spectral_teacher_embedding(sbm_pair, dim=sbm_pair.size, noise=0.0, seed=0)
        sd = np.sqrt(sbm_pair.degrees())
        gram = (emb.features * sd[:, None]) @ (emb.features * sd[:, None]).T
        assert np.linalg.norm(gram - normalized_adjacency(sbm_pair)) < 1e-8

    def test_noise_changes_features_deterministically(self, sbm_pair):
        a = spectral_teacher_embedding(sbm_pair, dim=2, noise=0.1, seed=4)
        b = spectral_teacher_embedding(sbm_pair, dim=2, noise=0.1, seed=4)
        c = spectral_teacher_embedding(sbm_pair, dim=2, noise=0.1, seed=5)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)
