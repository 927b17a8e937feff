import math

import numpy as np
import pytest

from rkdlab.errors import (
    DomainError,
    InvalidConfigError,
    NotPsdError,
    TrainingDivergedError,
)
from rkdlab.graph_core import build_sbm, lazy_graph, normalized_adjacency, spectral_decompose
from rkdlab.spectral_rkd import (
    OptimizerConfig,
    Prediction,
    StudentModel,
    check_gradient,
    dnn_rademacher_bound,
    draw_pairs,
    empirical_rkd_loss,
    estimate_rademacher,
    exact_pair_expectation,
    exact_population_minimizer,
    load_checkpoint,
    population_rkd_loss,
    random_rotation,
    save_checkpoint,
    theorem2_gap_bound,
    train_student,
)
from rkdlab.teacher_kernel import KernelSpec

from conftest import hand_graph


class TestPopulationLoss:
    def test_zero_prediction_gives_adjacency_norm(self, sbm_pair):
        f = Prediction(scores=np.zeros((sbm_pair.size, 2)))
        expected = float(np.linalg.norm(normalized_adjacency(sbm_pair)) ** 2)
        assert math.isclose(population_rkd_loss(f, sbm_pair), expected, rel_tol=1e-12)

    def test_two_vertex_hand_computation(self):
        g = hand_graph([[0.0, 0.5], [0.5, 0.0]], [0, 1], 2)
        f = Prediction(scores=np.ones((2, 1)))
        # Wbar = [[0,1],[1,0]], D^{1/2} F F^T D^{1/2} = 0.5 * ones -> 4 * 0.25
        assert math.isclose(population_rkd_loss(f, g), 1.0, abs_tol=1e-12)

    def test_minimizer_reaches_tail_energy(self, sbm_pair):
        dec = spectral_decompose(sbm_pair)
        f = exact_population_minimizer(sbm_pair, 2)
        assert math.isclose(population_rkd_loss(f, sbm_pair), dec.residual_weights(2), abs_tol=1e-8)

    def test_dimension_mismatch(self, sbm_pair):
        with pytest.raises(DomainError):
            population_rkd_loss(Prediction(scores=np.zeros((3, 2))), sbm_pair)


class TestEmpiricalLoss:
    def test_single_matching_pair_is_zero(self, sbm_pair):
        kmat = np.ones((sbm_pair.size, sbm_pair.size))
        scores = np.ones((sbm_pair.size, 1))
        assert empirical_rkd_loss(Prediction(scores=scores), [(0, 1)], kmat) == 0.0

    def test_single_pair_square(self):
        g = hand_graph([[0.0, 0.5], [0.5, 0.0]], [0, 1], 2)
        kmat = np.zeros((2, 2))
        f = Prediction(scores=np.array([[2.0], [1.0]]))
        assert empirical_rkd_loss(f, [(0, 1)], kmat) == 4.0

    def test_exhaustive_weighted_equals_population(self):
        g = lazy_graph(build_sbm(2, [3, 3], 0.9, 0.2, seed=2))
        f = Prediction(scores=np.random.default_rng(0).standard_normal((6, 2)) * 0.3)
        kern = KernelSpec.graph_revealing()
        assert math.isclose(
            exact_pair_expectation(f, kern, g), population_rkd_loss(f, g), abs_tol=1e-9
        )

    def test_empty_pairs_rejected(self, sbm_pair):
        f = Prediction(scores=np.zeros((sbm_pair.size, 2)))
        with pytest.raises(DomainError):
            empirical_rkd_loss(f, [], KernelSpec.graph_revealing(), sbm_pair)


class TestExactMinimizer:
    def test_identity_rotation_is_blockwise_constant(self, disconnected_blocks):
        f = exact_population_minimizer(disconnected_blocks, 2)
        for k in (0, 1):
            rows = f.scores[disconnected_blocks.labels == k]
            assert np.allclose(rows, rows[0], atol=1e-10)

    def test_full_rank_reconstruction_is_lossless(self, sbm_pair):
        f = exact_population_minimizer(sbm_pair, sbm_pair.size)
        assert population_rkd_loss(f, sbm_pair) < 1e-8

    def test_rotation_invariance_of_loss(self, sbm_pair):
        rng = np.random.default_rng(0)
        losses = [
            population_rkd_loss(exact_population_minimizer(sbm_pair, 2, random_rotation(2, rng)), sbm_pair)
            for _ in range(20)
        ]
        assert max(losses) - min(losses) < 1e-9

    def test_not_psd_refusal(self):
        # complete K_2 has normalized Laplacian eigenvalues {0, 2}
        g = hand_graph([[0.0, 0.5], [0.5, 0.0]], [0, 1], 2)
        with pytest.raises(NotPsdError):
            exact_population_minimizer(g, 2)

    def test_invalid_rotation(self, sbm_pair):
        with pytest.raises(DomainError):
            exact_population_minimizer(sbm_pair, 2, np.ones((2, 2)))

    def test_random_search_never_beats_floor(self, sbm_pair):
        dec = spectral_decompose(sbm_pair)
        floor = dec.residual_weights(2)
        rng = np.random.default_rng(1)
        best = math.inf
        for _ in range(100):
            f = Prediction(scores=rng.standard_normal((sbm_pair.size, 2)))
            best = min(best, population_rkd_loss(f, sbm_pair))
        assert best >= floor - 1e-8


class TestStudentModel:
    def test_parameter_count_validation(self):
        with pytest.raises(InvalidConfigError):
            StudentModel("linear", (3, 2), np.zeros(5))

    def test_forward_shapes(self):
        mlp = StudentModel.initialize("mlp", (3, 5, 2), seed=0)
        out = mlp.forward(np.ones((7, 3)))
        assert out.shape == (7, 2)

    def test_table_ignores_features(self):
        table = StudentModel.initialize("table", (4, 2), seed=0)
        assert np.array_equal(table.forward(None), table.parameters.reshape(4, 2))

    def test_checkpoint_round_trip(self, tmp_path):
        model = StudentModel.initialize("mlp", (2, 4, 3), seed=5)
        save_checkpoint(model, seed=5, path=tmp_path / "ckpt.json")
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        assert loaded.architecture == "mlp"
        assert loaded.widths == (2, 4, 3)
        assert np.array_equal(loaded.parameters, model.parameters)


class TestTraining:
    def test_table_reaches_eckart_young_floor(self):
        g = lazy_graph(build_sbm(2, [4, 4], 0.9, 0.1, seed=3))
        floor = spectral_decompose(g).residual_weights(2)
        model = StudentModel.initialize("table", (8, 2), seed=1)
        _, report = train_student(
            model, g, KernelSpec.graph_revealing(),
            OptimizerConfig(step_size=0.3, iterations=3000, seed=0, momentum=0.9),
        )
        assert abs(report.population_loss - floor) < 1e-3
        assert report.gap < 1e-3

    def test_zero_iterations_returns_input_model(self, sbm_pair):
        model = StudentModel.initialize("table", (sbm_pair.size, 2), seed=2)
        trained, _ = train_student(
            model, sbm_pair, KernelSpec.graph_revealing(),
            OptimizerConfig(step_size=0.1, iterations=0, seed=0),
        )
        assert np.array_equal(trained.parameters, model.parameters)

    def test_linear_student_on_embeddable_fixture(self):
        g = lazy_graph(build_sbm(2, [4, 4], 0.9, 0.1, seed=6))
        target = exact_population_minimizer(g, 2)
        model = StudentModel.initialize("linear", (2, 2), seed=4)
        _, report = train_student(
            model, g, KernelSpec.graph_revealing(),
            OptimizerConfig(step_size=0.2, iterations=5000, seed=0, momentum=0.9),
            features=target.scores,
        )
        assert report.gap < 0.05

    def test_divergence_raises_with_trace(self, sbm_pair):
        model = StudentModel.initialize("table", (sbm_pair.size, 2), seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train_student(
                model, sbm_pair, KernelSpec.graph_revealing(),
                OptimizerConfig(step_size=500.0, iterations=200, seed=0),
            )
        assert len(err.value.trace) > 0

    def test_row_norm_projection_enforces_bound(self):
        g = lazy_graph(build_sbm(2, [4, 4], 0.9, 0.1, seed=3))
        model = StudentModel.initialize("table", (8, 2), seed=1)
        trained, report = train_student(
            model, g, KernelSpec.graph_revealing(),
            OptimizerConfig(step_size=0.3, iterations=500, seed=0, momentum=0.9, b_f=0.5),
        )
        assert report.b_f <= 0.5 + 1e-9

    def test_pair_sampler_mode_trains(self, sbm_pair):
        model = StudentModel.initialize("table", (sbm_pair.size, 2), seed=1)
        trained, report = train_student(
            model, sbm_pair, KernelSpec.graph_revealing(),
            OptimizerConfig(step_size=0.1, iterations=400, seed=0, momentum=0.5, sampler=64),
        )
        zero = population_rkd_loss(Prediction(scores=np.zeros((sbm_pair.size, 2))), sbm_pair)
        assert report.population_loss < zero


class TestGradientCheck:
    @pytest.mark.parametrize("arch,widths", [("table", (6, 2)), ("linear", (3, 2)), ("mlp", (3, 4, 2))])
    def test_analytic_matches_central_differences(self, arch, widths):
        g = lazy_graph(build_sbm(2, [3, 3], 0.9, 0.2, seed=2))
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((6, 3)) if arch != "table" else None
        model = StudentModel.initialize(arch, widths, seed=7, scale=0.5)
        pairs = draw_pairs(g, 12, rng)
        a, b = pairs[:, 0], pairs[:, 1]
        kmat = normalized_adjacency(g)
        worst = check_gradient(model, feats, a, b, np.full(12, 1.0 / 12), kmat[a, b], coords=10, seed=3)
        assert worst < 1e-4


class TestRademacher:
    def test_zero_family_is_exactly_zero(self, sbm_pair):
        fam = [Prediction(scores=np.zeros((sbm_pair.size, 2)))]
        est = estimate_rademacher(fam, sbm_pair, N=4, trials=20, seed=0)
        assert est.value == 0.0

    def test_sign_pair_family_bounds(self):
        g = hand_graph(np.ones((3, 3)), [0, 0, 1], 2)
        scores = np.array([[0.5, -0.2], [0.1, 0.3], [-0.4, 0.2]])
        fam = [Prediction(scores=scores), Prediction(scores=-scores)]
        est = estimate_rademacher(fam, g, N=2, trials=1, seed=0, exact=True)
        assert est.exact
        assert 0.0 <= est.value <= 2 * float(np.abs(scores).max()) + 1e-12

    def test_singleton_family_centered(self):
        g = hand_graph(np.ones((3, 3)), [0, 0, 1], 2)
        scores = np.array([[0.5, -0.2], [0.1, 0.3], [-0.4, 0.2]])
        exact = estimate_rademacher([Prediction(scores=scores)], g, N=2, trials=1, seed=0, exact=True)
        assert abs(exact.value) < 1e-12
        mc = estimate_rademacher([Prediction(scores=scores)], g, N=8, trials=400, seed=1)
        assert abs(mc.value) <= 3 * mc.stderr


class TestClosedFormBounds:
    def test_dnn_bound_base_case(self):
        assert math.isclose(
            dnn_rademacher_bound(1, 1, 1.0, 1.0, 1),
            2.0 * math.sqrt(math.log(2.0)) + math.sqrt(2.0),
            rel_tol=1e-15,
        )

    def test_dnn_bound_scalings(self):
        base = dnn_rademacher_bound(3, 2, 1.5, 2.0, 100)
        assert math.isclose(dnn_rademacher_bound(3, 2, 1.5, 2.0, 400), base / 2.0, rel_tol=1e-12)
        assert math.isclose(dnn_rademacher_bound(3, 4, 1.5, 2.0, 100), base * 2.0, rel_tol=1e-12)

    def test_dnn_bound_domain(self):
        with pytest.raises(DomainError):
            dnn_rademacher_bound(0, 1, 1.0, 1.0, 1)

    def test_gap_bound_substitution(self):
        expected = 16.0 * math.sqrt(2.0) * 2.0 * 0.1 + 2.0 * 4.0 * math.sqrt(math.log(8.0) / 100.0)
        assert math.isclose(theorem2_gap_bound(1.0, 1.0, 0.1, 100, 0.5), expected, rel_tol=1e-12)

    def test_gap_bound_limits_and_linearity(self):
        assert theorem2_gap_bound(1.0, 1.0, 0.0, 10**14, 0.5) < 1e-5
        b1 = theorem2_gap_bound(1.0, 1.0, 0.1, 100, 0.5)
        b2 = theorem2_gap_bound(1.0, 1.0, 0.2, 100, 0.5)
        fixed = 2.0 * 4.0 * math.sqrt(math.log(8.0) / 100.0)
        assert math.isclose(b2 - fixed, 2.0 * (b1 - fixed), rel_tol=1e-12)

    def test_gap_bound_domain(self):
        with pytest.raises(DomainError):
            theorem2_gap_bound(1.0, 1.0, 0.1, 100, 1.5)


def test_gap_bound_audits_empirical_minimizers(sbm_pair):
    # ERM over a finite family on sampled pair losses: the population-loss gap
    # of the empirical winner stays below the complexity-driven bound
    rng = np.random.default_rng(14)
    family = [exact_population_minimizer(sbm_pair, 2, random_rotation(2, rng)) for _ in range(6)]
    kern = KernelSpec.graph_revealing()
    kmat_bound = float(np.max(
        sbm_pair.weights / np.outer(sbm_pair.degrees(), sbm_pair.degrees())
    ))
    b_f = max(float(np.max(np.sum(f.scores**2, axis=1))) for f in family)
    pop_losses = np.array([population_rkd_loss(f, sbm_pair) for f in family])
    N = 40
    delta = 0.2
    rad = estimate_rademacher(family, sbm_pair, N=N // 2, trials=200, seed=3)
    bound = theorem2_gap_bound(b_f, kmat_bound, rad.value, N, delta)
    failures = 0
    for trial in range(50):
        pairs = draw_pairs(sbm_pair, N // 2, np.random.default_rng((15, trial)))
        emp = [empirical_rkd_loss(f, pairs, kern, sbm_pair) for f in family]
        winner = int(np.argmin(emp))
        if pop_losses[winner] - pop_losses.min() > bound:
            failures += 1
    assert failures <= max(1, int(0.5 * delta * 50) + 3)


def test_variance_shrinks_with_more_pairs(sbm_pair):
    # concentration of the sampled empirical loss as the pair budget grows
    f = exact_population_minimizer(sbm_pair, 2)
    kern = KernelSpec.graph_revealing()
    variances = []
    for n_pairs in (10, 40, 160):
        rng = np.random.default_rng(42)
        vals = [
            empirical_rkd_loss(f, draw_pairs(sbm_pair, n_pairs, rng), kern, sbm_pair)
            for _ in range(200)
        ]
        variances.append(float(np.var(vals, ddof=1)))
    assert variances[0] > variances[1] > variances[2]
