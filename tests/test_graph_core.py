import json
import math

import numpy as np
import pytest

from rkdlab.errors import DegenerateGraphError, InvalidConfigError, NumericError
from rkdlab.graph_core import (
    PopulationGraph,
    _is_connected,
    build_sbm,
    build_two_blobs,
    inter_class_fraction,
    laplacian,
    lazy_graph,
    load_graph,
    normalized_adjacency,
    save_graph,
    spectral_decompose,
)

from conftest import hand_graph
from oracles import is_connected_depth_first


class TestPopulationGraphInvariants:
    def test_rejects_asymmetric_weights(self):
        w = np.array([[0.0, 0.6], [0.4, 0.0]])
        with pytest.raises(InvalidConfigError, match="symmetric"):
            PopulationGraph(vertices=(0, 1), weights=w, labels=[0, 1], num_classes=2)

    def test_rejects_unnormalized_mass(self):
        w = np.array([[0.0, 0.3], [0.3, 0.0]])
        with pytest.raises(InvalidConfigError, match="mass"):
            PopulationGraph(vertices=(0, 1), weights=w, labels=[0, 1], num_classes=2)

    def test_rejects_zero_degree(self):
        w = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGraphError, match="zero degree"):
            PopulationGraph(vertices=(0, 1, 2), weights=w, labels=[0, 0, 1], num_classes=2)

    def test_rejects_empty_class(self):
        w = np.full((2, 2), 0.25)
        with pytest.raises(InvalidConfigError, match="empty class"):
            PopulationGraph(vertices=(0, 1), weights=w, labels=[0, 0], num_classes=2)

    # (case, vertices, weights, labels, num_classes, what the error says)
    MALFORMED = [
        ("one-vertex", (0,), [[1.0]], [0], 1, "at least 2 vertices, got 1"),
        ("weight-shape", (0, 1, 2), np.full((2, 2), 0.25), [0, 0, 1], 2, r"weight matrix shape \(2, 2\) != \(3, 3\)"),
        ("label-shape", (0, 1), np.full((2, 2), 0.25), [[0, 1]], 2, r"labels shape \(1, 2\) != \(2,\)"),
        ("negative-weight", (0, 1), [[0.6, -0.1], [-0.1, 0.6]], [0, 1], 2, "negative edge weight"),
        ("no-classes", (0, 1), np.full((2, 2), 0.25), [0, 0], 0, "num_classes must be positive"),
        ("label-outside", (0, 1), np.full((2, 2), 0.25), [0, 2], 2, r"label outside \[0, num_classes\)"),
    ]

    @pytest.mark.parametrize("case,vertices,weights,labels,num_classes,message", MALFORMED,
                             ids=[row[0] for row in MALFORMED])
    def test_rejects_malformed_arguments(self, case, vertices, weights, labels, num_classes, message):
        with pytest.raises(InvalidConfigError, match=message):
            PopulationGraph(vertices=vertices, weights=np.asarray(weights), labels=labels, num_classes=num_classes)

    def test_weights_are_immutable(self, disconnected_blocks):
        with pytest.raises(ValueError):
            disconnected_blocks.weights[0, 0] = 1.0

    def test_mutating_a_source_view_changes_nothing(self, sbm_pair):
        w = np.array(sbm_pair.weights)
        labels = np.array(sbm_pair.labels)
        buf = np.stack([w, w])  # writeable memory the graph arrays are views of
        lab_buf = np.stack([labels, labels])
        g = PopulationGraph(vertices=sbm_pair.vertices, weights=buf[0], labels=lab_buf[0],
                            num_classes=2)
        dec = spectral_decompose(g)
        buf[0] = np.eye(len(w)) / len(w)
        lab_buf[0] = 0
        assert np.array_equal(g.weights, w)
        assert np.array_equal(g.labels, labels)
        again = spectral_decompose(g)
        fresh = spectral_decompose(
            PopulationGraph(vertices=g.vertices, weights=w, labels=labels, num_classes=2))
        assert again is dec
        assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(again.eigenvectors, fresh.eigenvectors)

    def test_degrees_sum_to_one(self, sbm_pair):
        assert math.isclose(sbm_pair.degrees().sum(), 1.0, abs_tol=1e-12)


class TestBuildSbm:
    def test_disconnected_blocks_alpha_and_gap(self, disconnected_blocks):
        assert inter_class_fraction(disconnected_blocks) == 0.0
        dec = spectral_decompose(disconnected_blocks)
        assert abs(dec.eigenvalues[1]) < 1e-10

    def test_complete_graph_matches_closed_form(self):
        # p_in = p_out = 1 gives K_6; normalized Laplacian spectrum {0, n/(n-1)}
        g = build_sbm(2, [3, 3], p_in=1.0, p_out=1.0, seed=0)
        dec = spectral_decompose(g)
        expected = np.array([0.0] + [6.0 / 5.0] * 5)
        assert np.allclose(dec.eigenvalues, expected, atol=1e-10)

    def test_three_block_separation(self):
        g = build_sbm(3, [5, 5, 5], p_in=0.9, p_out=0.05, seed=1)
        dec = spectral_decompose(g)
        assert inter_class_fraction(g) < 0.25
        assert dec.eigenvalues[3] > dec.eigenvalues[2]

    def test_deterministic_given_seed(self):
        a = build_sbm(2, [4, 4], 0.8, 0.1, seed=5)
        b = build_sbm(2, [4, 4], 0.8, 0.1, seed=5)
        assert np.array_equal(a.weights, b.weights)

    def test_invalid_probabilities(self):
        with pytest.raises(InvalidConfigError):
            build_sbm(2, [3, 3], p_in=0.2, p_out=0.5, seed=0)

    def test_empty_class_config(self):
        with pytest.raises(InvalidConfigError):
            build_sbm(2, [3, 0], p_in=1.0, p_out=0.0, seed=0)

    def test_unsalvageable_graph_fails_after_attempts(self):
        # two isolated singletons can never get positive degrees
        with pytest.raises(DegenerateGraphError, match="100 attempts"):
            build_sbm(2, [1, 1], p_in=1.0, p_out=0.0, seed=0)

    def test_one_vertex_class_is_connected(self):
        # a class of one vertex has no edge inside it, and gets its degree from the other class
        g = build_sbm(2, [1, 3], p_in=1.0, p_out=0.5, seed=0)
        assert g.class_members(0).tolist() == [0] and g.degrees()[0] > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_connectivity_matches_a_depth_first_search(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.1, 0.3, 0.7):
            for _ in range(25):
                upper = np.triu(rng.random((n, n)) < density, k=1)
                adj = (upper | upper.T).astype(float)
                if n > 2 and rng.random() < 0.3:
                    adj[n - 1, :] = adj[:, n - 1] = 0.0  # an isolated vertex
                assert _is_connected(adj) == is_connected_depth_first(adj)
        assert _is_connected(np.zeros((1, 1))) and not (n > 1 and _is_connected(np.zeros((n, n))))
        assert _is_connected(np.ones((n, n)))

    def test_two_blocks_are_not_connected(self):
        adj = np.kron(np.eye(2), np.ones((3, 3)))
        assert not _is_connected(adj) and not is_connected_depth_first(adj)
        adj[2, 3] = adj[3, 2] = 0.5
        assert _is_connected(adj) and is_connected_depth_first(adj)

    def test_within_class_connectivity(self):
        for seed in range(8):
            g = build_sbm(2, [6, 6], p_in=0.4, p_out=0.05, seed=seed)
            dec = spectral_decompose(g)
            # at most K components, so lambda_{K+1} > 0
            assert dec.eigenvalues[2] > 1e-10


class TestBuildTwoBlobs:
    def test_separated_blobs_have_small_alpha(self):
        g, _ = build_two_blobs(6, separation=6.0, noise=0.3, bandwidth=1.0, seed=4)
        assert inter_class_fraction(g) < 0.05


class TestNormalizedAdjacency:
    def test_two_vertex_cross(self):
        g = hand_graph([[0.0, 0.5], [0.5, 0.0]], [0, 1], 2)
        assert np.allclose(normalized_adjacency(g), [[0.0, 1.0], [1.0, 0.0]])

    def test_uniform_complete_without_loops(self):
        w = np.ones((4, 4)) - np.eye(4)
        g = hand_graph(w, [0, 0, 1, 1], 2)
        wbar = normalized_adjacency(g)
        off = wbar[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1.0 / 3.0)

    def test_self_loops_only_gives_identity(self):
        g = hand_graph(np.eye(3), [0, 0, 1], 2)
        assert np.allclose(normalized_adjacency(g), np.eye(3))


class TestSpectralDecompose:
    def test_computed_once_per_graph(self, graph_core_eighs):
        g = lazy_graph(build_sbm(2, [6, 6], p_in=0.9, p_out=0.1, seed=3))
        dec = spectral_decompose(g)
        assert spectral_decompose(g) is dec
        assert len(graph_core_eighs) == 1
        rebuilt = lazy_graph(build_sbm(2, [6, 6], p_in=0.9, p_out=0.1, seed=3))
        fresh = spectral_decompose(rebuilt)
        assert fresh is not dec and len(graph_core_eighs) == 2
        assert np.array_equal(fresh.eigenvalues, dec.eigenvalues)
        assert np.array_equal(fresh.eigenvectors, dec.eigenvectors)
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 0.0

    def test_disconnected_zero_eigenvectors_span_indicators(self, disconnected_blocks):
        dec = spectral_decompose(disconnected_blocks)
        assert abs(dec.eigenvalues[0]) < 1e-10 and abs(dec.eigenvalues[1]) < 1e-10
        v = dec.eigenvectors[:, :2]
        sd = np.sqrt(disconnected_blocks.degrees())
        for k in (0, 1):
            ind = sd * (disconnected_blocks.labels == k)
            ind = ind / np.linalg.norm(ind)
            residual = ind - v @ (v.T @ ind)
            assert np.linalg.norm(residual) < 1e-8

    def test_path_matches_cubic_roots(self, path3):
        # char poly (1 - l)((1 - l)^2 - 1) has roots {0, 1, 2}
        dec = spectral_decompose(path3)
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 2.0], atol=1e-10)

    @pytest.mark.parametrize("fault,message", [
        ("no-convergence", r"eigensolver failed to converge \(cond="),
        ("wrong-vectors", "eigen reconstruction error"),
        ("lifted-smallest", "smallest Laplacian eigenvalue"),
        ("lifted-largest", "largest Laplacian eigenvalue"),
    ])
    def test_eigensolver_faults_raise(self, monkeypatch, fault, message):
        g = hand_graph([[0.0, 0.5], [0.5, 0.0]], [0, 1], 2)  # Laplacian spectrum {0, 2}
        eigh = np.linalg.eigh

        def faulty(a):
            if fault == "no-convergence":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            lam, vecs = eigh(a)
            if fault == "wrong-vectors":
                return lam, vecs[:, ::-1].copy()
            lam[0 if fault == "lifted-smallest" else -1] += 5e-9  # within the reconstruction tolerance
            return lam, vecs

        monkeypatch.setattr(np.linalg, "eigh", faulty)
        with pytest.raises(NumericError, match=message):
            spectral_decompose(g)
        assert "_spectrum" not in g.__dict__  # a faulty spectrum is not kept

    def test_reconstruction_error(self):
        g = build_sbm(2, [5, 5], 0.9, 0.1, seed=3)
        dec = spectral_decompose(g)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(recon - laplacian(g)) < 1e-8

    def test_orthonormal_columns(self, sbm_pair):
        dec = spectral_decompose(sbm_pair)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.abs(gram - np.eye(sbm_pair.size)).max() < 1e-10

    def test_sign_convention(self, sbm_pair):
        dec = spectral_decompose(sbm_pair)
        for i in range(sbm_pair.size):
            col = dec.eigenvectors[:, i]
            nz = np.nonzero(np.abs(col) > 1e-10)[0]
            assert col[nz[0]] > 0

    def test_sign_convention_negates_whole_columns_of_eigh(self, sbm_pair, disconnected_blocks, path3):
        for g in (sbm_pair, disconnected_blocks, path3):
            _, vecs = np.linalg.eigh(laplacian(g))
            got = spectral_decompose(g).eigenvectors
            for i in range(g.size):  # the rule one column at a time, as the reference
                col = vecs[:, i]
                lead = col[np.nonzero(np.abs(col) > 1e-10)[0][0]]
                assert np.array_equal(got[:, i], -col if lead < 0 else col)

    def test_trace_identity(self, sbm_pair):
        dec = spectral_decompose(sbm_pair)
        wbar = normalized_adjacency(sbm_pair)
        assert math.isclose(
            float(dec.eigenvalues.sum()), sbm_pair.size - float(np.trace(wbar)), abs_tol=1e-8
        )

    def test_psd_graph_spectrum_in_unit_interval(self, sbm_pair):
        dec = spectral_decompose(sbm_pair)
        assert dec.eigenvalues[-1] <= 1.0 + 1e-10


class TestInterClassFraction:
    def test_single_cross_edge(self):
        # one symmetric cross pair carrying 2 * eps of the unit ordered mass
        eps = 0.05
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = (1.0 - 2 * eps) / 4.0
        w[2, 3] = w[3, 2] = (1.0 - 2 * eps) / 4.0
        w[1, 2] = w[2, 1] = eps
        g = PopulationGraph(vertices=(0, 1, 2, 3), weights=w, labels=[0, 0, 1, 1], num_classes=2)
        oracle = sum(
            w[i, j]
            for i in range(4)
            for j in range(4)
            if g.labels[i] != g.labels[j]
        )
        assert math.isclose(inter_class_fraction(g), oracle, abs_tol=1e-15)
        assert math.isclose(inter_class_fraction(g), 2 * eps, abs_tol=1e-15)

    def test_label_agnostic_complete_graph(self):
        # uniform over all ordered pairs incl. diagonal: alpha = 2 |X1||X2| / n^2
        n1, n2 = 3, 5
        n = n1 + n2
        w = np.full((n, n), 1.0 / n**2)
        g = PopulationGraph(
            vertices=tuple(range(n)), weights=w, labels=[0] * n1 + [1] * n2, num_classes=2
        )
        assert math.isclose(inter_class_fraction(g), 2 * n1 * n2 / n**2, abs_tol=1e-15)

    def test_range(self, sbm_pair):
        assert 0.0 <= inter_class_fraction(sbm_pair) <= 1.0


class TestLazyGraph:
    def test_preserves_degrees_and_forces_psd(self, disconnected_blocks):
        g = build_sbm(2, [4, 4], 0.9, 0.2, seed=1)
        lz = lazy_graph(g)
        assert np.allclose(lz.degrees(), g.degrees())
        dec = spectral_decompose(lz)
        assert dec.eigenvalues[-1] <= 1.0 + 1e-10


class TestGraphFileRoundTrip:
    def test_value_exact_round_trip(self, tmp_path, sbm_pair):
        path = tmp_path / "graph.json"
        save_graph(sbm_pair, path)
        loaded = load_graph(path)
        assert np.array_equal(loaded.weights, sbm_pair.weights)
        assert np.array_equal(loaded.labels, sbm_pair.labels)
        assert loaded.vertices == sbm_pair.vertices

    def test_byte_exact_double_round_trip(self, tmp_path, sbm_pair):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(sbm_pair, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loader_normalizes_and_symmetrizes(self, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({
            "vertices": [0, 1, 2],
            "num_classes": 2,
            "labels": [0, 0, 1],
            "edges": [[0, 1, 2.0], [1, 2, 1.0], [2, 2, 1.0]],
        }))
        g = load_graph(path)
        assert math.isclose(g.weights.sum(), 1.0, abs_tol=1e-15)
        assert g.weights[1, 0] == g.weights[0, 1]


def sparsest_2_partition(g):
    """min over 2-partitions (S, S^c) of their larger conductance, cut / min(vol S, vol S^c), by enumeration."""
    n, deg = g.size, g.degrees()
    best = math.inf
    for code in range(1, 2 ** (n - 1)):  # vertex n - 1 stays in S^c: each partition once
        inside = (code >> np.arange(n)) & 1 == 1
        cut = g.weights[np.ix_(inside, ~inside)].sum()
        best = min(best, cut / min(deg[inside].sum(), deg[~inside].sum()))
    return best


def test_corollary_ratio_is_finite_and_recorded():
    # sparsest-partition consistency: mu * phi_k^2 / (alpha log k) stays finite
    # across small fixtures; recorded, not asserted to any constant
    from oracles import exact_population_minimizer, majority_label

    ratios = []
    for seed in range(4):
        g = lazy_graph(build_sbm(2, [5, 5], 0.9, 0.15, seed=seed))
        alpha = inter_class_fraction(g)
        phi2 = sparsest_2_partition(g)
        f = exact_population_minimizer(g, 2)
        mu = majority_label(f, g).minority_mass
        if alpha > 0 and phi2 > 0:
            ratios.append(mu * phi2**2 / (alpha * math.log(2)))
    print(f"sparsest-partition consistency ratios: {[round(r, 6) for r in ratios]}")
    assert ratios and all(math.isfinite(r) for r in ratios)
