import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_oracles as oracle
from rkdlab import spectral_rkd
from rkdlab.errors import (
    DomainError,
    InvalidConfigError,
    NotPsdError,
    NumericError,
    TrainingDivergedError,
)
from rkdlab.graph_core import (
    EIGENVALUE_TOL,
    build_sbm,
    laplacian,
    lazy_graph,
    normalized_adjacency,
    spectral_decompose,
)
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
    population_minimizers,
    population_rkd_loss,
    random_rotation,
    random_rotations,
    save_checkpoint,
    theorem2_gap_bound,
    train_student,
)
from rkdlab.teacher_kernel import KernelSpec, kernel_matrix

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

    @pytest.mark.parametrize("call", [
        lambda g: exact_population_minimizer(g, 2, np.full((2, 2), np.nan)),
        lambda g: exact_population_minimizer(g, 2, np.diag([np.inf, 1.0])),
        lambda g: population_minimizers(g, 2, np.full((3, 2, 2), np.nan)),
    ], ids=["nan", "inf-entry", "nan-stack"])
    def test_non_finite_rotation_rejected_as_rotation(self, sbm_pair, call):
        # rejected before any arithmetic on it: no warning from the matmul
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="orthogonal"):
                call(sbm_pair)

    def test_random_search_never_beats_floor(self, sbm_pair):
        dec = spectral_decompose(sbm_pair)
        floor = dec.residual_weights(2)
        rng = np.random.default_rng(1)
        best = math.inf
        for _ in range(100):
            f = Prediction(scores=rng.standard_normal((sbm_pair.size, 2)))
            best = min(best, population_rkd_loss(f, sbm_pair))
        assert best >= floor - 1e-8


class TestLazySbmInvariants:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_graph_spectrum_and_minimizers(self, data):
        K = data.draw(st.integers(2, 3), label="K")
        sizes = data.draw(st.lists(st.integers(2, 6), min_size=K, max_size=K), label="sizes")
        p_in = data.draw(st.floats(0.5, 1.0), label="p_in")
        p_out = data.draw(st.floats(0.0, p_in), label="p_out")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        g = lazy_graph(build_sbm(K, sizes, p_in, p_out, seed=seed))
        assert np.array_equal(g.weights, g.weights.T)
        assert math.isclose(float(g.weights.sum()), 1.0, abs_tol=1e-12)
        dec = spectral_decompose(g)
        lam = dec.eigenvalues
        assert np.all(np.diff(lam) >= 0)
        assert lam[0] >= -EIGENVALUE_TOL and lam[-1] <= 1.0 + EIGENVALUE_TOL
        assert math.isclose(float(lam.sum()), float(np.trace(laplacian(g))), abs_tol=1e-9)
        family = population_minimizers(g, K, random_rotations(K, 4, np.random.default_rng(seed)))
        for scores in family:
            assert abs(population_rkd_loss(Prediction(scores=scores), g) - dec.residual_weights(K)) <= 1e-8


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

    def test_report_b_k_is_kernel_max(self, sbm_pair):
        # B_k = sup k(x, x'), read off the kernel matrix the run trains on
        model = StudentModel.initialize("table", (sbm_pair.size, 2), seed=2)
        _, report = train_student(
            model, sbm_pair, KernelSpec.graph_revealing(),
            OptimizerConfig(step_size=0.1, iterations=0, seed=0),
        )
        assert report.b_k == float(kernel_matrix(KernelSpec.graph_revealing(), sbm_pair).max())

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
        objective = spectral_rkd._PairLoss(a, b, np.full(12, 1.0 / 12), kmat[a, b]).objective(feats)
        worst = check_gradient(model, objective, coords=10, seed=3)
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


# ---------------------------------------------------------------------------
# the batched training loop against the frozen per-step loop


def _students(g):
    """(model, features) of each student architecture on g."""
    feats = 0.3 * np.random.default_rng(3).standard_normal((g.size, 3))
    return {
        "table": (StudentModel.initialize("table", (g.size, 2), seed=1, scale=0.3), None),
        "linear": (StudentModel.initialize("linear", (3, 2), seed=1, scale=0.3), feats),
        "mlp": (StudentModel.initialize("mlp", (3, 4, 2), seed=1, scale=0.3), feats),
    }


def _outcome(train, model, g, opt, features):
    """(parameters, trace rows, error) of one run of a training loop."""
    rows = []
    with np.errstate(all="ignore"):  # the diverging runs overflow on both sides
        try:
            trained, _ = train(model, g, KernelSpec.graph_revealing(), opt, features=features, trace_out=rows)
        except (TrainingDivergedError, NumericError, InvalidConfigError) as exc:
            return None, rows, (type(exc), str(exc), getattr(exc, "trace", None))
    return trained.parameters, rows, None


def _same_run(model, g, opt, features):
    got = _outcome(train_student, model, g, opt, features)
    want = _outcome(oracle.train_student, model, g, opt, features)
    if want[0] is None:
        assert got[0] is None
    else:
        assert np.array_equal(got[0], want[0])
    assert repr(got[1:]) == repr(want[1:])  # exact floats, and a nan equals a nan
    return got


class TestTrainingMatchesPerStepOracle:
    @pytest.mark.parametrize("arch", ["table", "linear", "mlp"])
    @pytest.mark.parametrize("sampler", ["exhaustive", 16])
    @pytest.mark.parametrize("b_f", [None, 0.05])
    @pytest.mark.parametrize("iterations", [0, 40, 42])
    def test_parameters_and_trace_rows(self, monkeypatch, arch, sampler, b_f, iterations):
        # a block of 7 steps puts flushes mid-run, and leaves a partial last
        # block (40 steps) or none (42 steps, and no step at all)
        g = lazy_graph(build_sbm(2, [4, 5], 0.9, 0.1, seed=3))
        monkeypatch.setattr(spectral_rkd, "TRACE_BLOCK_BYTES", 7 * 8 * g.size * g.size)
        model, feats = _students(g)[arch]
        opt = OptimizerConfig(seed=2, step_size=0.2, iterations=iterations, momentum=0.9, sampler=sampler,
                              b_f=b_f)
        _, rows, error = _same_run(model, g, opt, feats)
        assert error is None and len(rows) == iterations

    @pytest.mark.parametrize("step_size,error", [(50.0, TrainingDivergedError), (math.inf, InvalidConfigError)])
    @pytest.mark.parametrize("block", [1, 7])
    def test_divergence_flushes_the_open_block_first(self, monkeypatch, step_size, error, block):
        # an infinite step makes the parameters non-finite, so the trace meets
        # a non-finite score before the divergence check reads that step's
        # loss; with one step per block that score opens its block
        g = lazy_graph(build_sbm(2, [4, 5], 0.9, 0.1, seed=3))
        monkeypatch.setattr(spectral_rkd, "TRACE_BLOCK_BYTES", block * 8 * g.size * g.size)
        model, _ = _students(g)["table"]
        opt = OptimizerConfig(seed=2, step_size=step_size, iterations=40, momentum=0.9)
        _, rows, got = _same_run(model, g, opt, None)
        assert got[0] is error and rows

    def test_disagreeing_loss_forms_raise_at_the_same_step(self, monkeypatch):
        # the forms differ by up to about 5e-16 of the loss here: at a
        # tolerance inside that range, the first step beyond it raises, after
        # the rows before it, as a per-step check does
        g = lazy_graph(build_sbm(2, [4, 5], 0.9, 0.1, seed=3))
        monkeypatch.setattr(spectral_rkd, "TRACE_BLOCK_BYTES", 7 * 8 * g.size * g.size)
        monkeypatch.setattr(spectral_rkd, "LOSS_AGREEMENT_TOL", 5.1e-16)
        model, _ = _students(g)["table"]
        opt = OptimizerConfig(seed=2, step_size=0.2, iterations=40, momentum=0.9)
        _, _, got = _same_run(model, g, opt, None)
        assert got[0] is NumericError


class TestRowProjection:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rows_end_at_or_below_the_cap(self, data):
        arch = data.draw(st.sampled_from(["table", "linear", "mlp"]), label="arch")
        n, K = data.draw(st.integers(1, 12), label="n"), data.draw(st.integers(1, 4), label="K")
        members = data.draw(st.sampled_from([None, 1, 3]), label="stack")  # None: a single student
        widths = {"table": (n, K), "linear": (3, K), "mlp": (3, 4, K)}[arch]
        count = StudentModel.parameter_count(arch, widths) * (members or 1)
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count), label="values")
        scale = data.draw(st.floats(1e-3, 1e3), label="scale")
        b_f = data.draw(st.floats(1e-6, 1e3), label="b_f")
        parameters = scale * np.array(values).reshape(-1 if members is None else (members, -1))
        features = None if arch == "table" else np.random.default_rng(n).standard_normal((n, 3))
        model = StudentModel(arch, widths, parameters)
        before = model.forward(features)
        spectral_rkd._project_rows(model, features, b_f)
        after = model.forward(features)
        norms = np.sum(after**2, axis=-1)
        assert norms.max() <= b_f
        within = np.sum(before**2, axis=-1) <= b_f
        if arch == "table":  # rows within the cap are kept as they are
            assert np.array_equal(after[within], before[within])
        else:  # and so are students within it
            kept = within.all(axis=-1)
            assert np.array_equal(model.parameters[kept], parameters[kept])

    def test_one_rescale_can_round_above_the_cap(self):
        rows = np.random.default_rng(0).standard_normal((32000, 2))
        once = rows * np.sqrt(0.05 / np.sum(rows**2, axis=1))[:, None]
        assert np.count_nonzero(np.sum(once**2, axis=1) > 0.05) > 1000
        model = StudentModel("table", rows.shape, rows.ravel())
        spectral_rkd._project_rows(model, None, 0.05)
        assert np.sum(model.forward(None) ** 2, axis=1).max() <= 0.05


class TestGradientCheckFloor:
    def test_tiny_gradient_on_a_sampled_batch_passes(self, tmp_path):
        # a coordinate's gradient of -6.7e-8 is within a few hundred times the
        # central-difference roundoff at this loss (about 2e-10): an absolute
        # 1e-8 scale floor read it as a 3.5e-4 relative error and aborted
        # `rkdlab rkd` on this fixture
        g = lazy_graph(build_sbm(2, [6, 6], 0.9, 0.1, seed=4))
        model = StudentModel.initialize("table", (12, 2), seed=1, scale=0.05)
        opt = OptimizerConfig(seed=1, step_size=0.4, iterations=1, momentum=0.9, sampler=16)
        train_student(model, g, KernelSpec.graph_revealing(), opt)

    def test_one_percent_error_above_the_floor_fails(self):
        g = lazy_graph(build_sbm(2, [3, 3], 0.9, 0.2, seed=2))
        a, b, u, kvals = spectral_rkd._exhaustive_batch(g, normalized_adjacency(g))
        model = StudentModel.initialize("table", (6, 2), seed=7, scale=0.5)
        grad = model.backward(None, spectral_rkd._PairLoss(a, b, u, kvals)(model.forward(None))[1])
        worst = int(np.argmax(np.abs(grad)))

        class Skewed(StudentModel):
            def backward(self, features, gscores):
                out = super().backward(features, gscores).copy()
                out[worst] *= 1.01
                return out

        skewed = Skewed("table", (6, 2), model.parameters)
        objective = spectral_rkd._PairLoss(a, b, u, kvals).objective(None)
        assert check_gradient(model, objective, coords=12, seed=0) < 1e-6
        assert check_gradient(skewed, objective, coords=12, seed=0) > 5e-3


@pytest.mark.parametrize("field,value", [
    ("iterations", 400.0), ("iterations", True), ("rkd_pairs", 2.5), ("sampler", True), ("sampler", 16.0),
])
def test_integer_optimizer_keys_reject_other_types(field, value):
    with pytest.raises(InvalidConfigError, match=f"optimizer.{field}="):
        OptimizerConfig(seed=0, **{field: value})
