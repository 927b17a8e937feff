import math

import numpy as np
import pytest

from rkdlab import label_acquisition
from rkdlab.errors import DomainError, InvalidConfigError
from rkdlab.graph_core import PopulationGraph, build_sbm, build_two_blobs, lazy_graph
from rkdlab.label_acquisition import (
    REDRAW_CAP,
    check_non_degenerate,
    cluster_wise_sample,
    erm_zero_one,
    iid_sample,
    make_labeled,
    population_error,
    save_labeled,
    stochastic_greedy,
    theorem3_bound,
    theorem3_check,
    uniform_per_class_sample,
)
from rkdlab.spectral_rkd import Prediction
from rkdlab.teacher_kernel import KernelSpec, kernel_matrix

from conftest import hand_graph
from oracles import (
    coverage_rate,
    exhaustive_best_subset,
    facility_location_value,
    full_greedy,
    mean_draws_to_cover,
)


def uniform_graph(labels):
    n = len(labels)
    return hand_graph(np.ones((n, n)), labels, max(labels) + 1)


def onehot(g, labels=None):
    labels = g.labels if labels is None else np.asarray(labels)
    return Prediction(scores=np.eye(g.num_classes)[labels].astype(float))


class TestNonDegeneracy:
    def test_perfect_predictor(self, sbm_pair):
        rep = check_non_degenerate(onehot(sbm_pair), sbm_pair)
        assert rep.ok
        assert math.isinf(rep.c0)
        assert rep.m0 == min(len(sbm_pair.class_members(k)) for k in range(2))

    def test_missing_class_fails(self, sbm_pair):
        rep = check_non_degenerate(onehot(sbm_pair, [0] * sbm_pair.size), sbm_pair)
        assert not rep.ok
        assert any("surjective" in r for r in rep.reasons)

    def test_small_c0_fails(self):
        # one cluster holds 0.5 mass of which 0.3 is split minority: c0 = 5/3 < 2
        w = np.diag([4.0, 3.0, 3.0, 5.0, 5.0])
        g = PopulationGraph(vertices=tuple(range(5)), weights=w / w.sum(),
                            labels=[0, 1, 2, 1, 2], num_classes=3)
        predicted = [0, 0, 0, 1, 2]
        scores = np.eye(3)[predicted].astype(float)
        rep = check_non_degenerate(Prediction(scores=scores), g)
        assert not rep.ok
        assert math.isclose(rep.c0, 5.0 / 3.0, rel_tol=1e-12)


class TestClusterWiseSampling:
    def make_c0_two_fixture(self):
        # two predicted clusters of 12 uniform vertices; cluster 0 is half wrong
        labels = [0] * 6 + [1] * 6 + [1] * 12
        g = uniform_graph(labels)
        predicted = [0] * 12 + [1] * 12
        return g, Prediction(scores=np.eye(2)[predicted].astype(float))

    def test_budget_formula(self):
        g, f = self.make_c0_two_fixture()
        rep = check_non_degenerate(f, g)
        assert rep.ok and math.isclose(rep.c0, 2.0, rel_tol=1e-12) and rep.m0 == 12
        labeled = cluster_wise_sample(f, g, delta=1.0 / 8.0, seed=0)
        # m = ceil(log2(2 * 2 / (1/8))) = ceil(log2 32) = 5 per cluster
        assert len(labeled.pairs) == 2 * 5

    def test_perfect_predictor_needs_one_draw(self, sbm_pair):
        labeled = cluster_wise_sample(onehot(sbm_pair), sbm_pair, delta=0.05, seed=1)
        assert len(labeled.pairs) == sbm_pair.num_classes
        assert set(labeled.classes().tolist()) == set(range(sbm_pair.num_classes))

    def test_delta_window_enforced(self):
        g, f = self.make_c0_two_fixture()
        with pytest.raises(DomainError, match="delta_min"):
            cluster_wise_sample(f, g, delta=2.0 * 2 / 2.0**12 / 2.0, seed=0)

    def test_coverage_rate_meets_guarantee(self):
        # uniform-degree fixture with c0 = 4: one quarter of cluster 0 mislabeled
        labels = [0] * 9 + [1] * 3 + [1] * 12
        g = uniform_graph(labels)
        predicted = [0] * 12 + [1] * 12
        f = Prediction(scores=np.eye(2)[predicted].astype(float))
        rep = check_non_degenerate(f, g)
        assert rep.ok and math.isclose(rep.c0, 4.0, rel_tol=1e-12)
        delta = 0.1
        rate = coverage_rate(f, g, delta, trials=2000, seed=3)
        se = math.sqrt(delta * (1 - delta) / 2000)
        assert rate >= 1.0 - delta - 3.0 * se


class TestIidAndUniform:
    def test_uniform_per_class_contract(self, sbm_pair):
        labeled = uniform_per_class_sample(sbm_pair, 4, seed=0)
        counts = np.bincount(labeled.classes(), minlength=2)
        assert list(counts) == [4, 4]

    def test_iid_rejection_counting(self):
        # tiny minority class forces visible rejections at small n
        w = np.diag([50.0, 50.0, 1.0, 1.0])
        g = PopulationGraph(vertices=(0, 1, 2, 3), weights=w / w.sum(),
                            labels=[0, 0, 1, 1], num_classes=2)
        labeled, rejections = iid_sample(g, 3, seed=5, require_coverage=True)
        assert len(np.unique(labeled.classes())) == 2
        assert rejections >= 0

    def test_labels_csv_round_trip(self, tmp_path, sbm_pair):
        labeled = uniform_per_class_sample(sbm_pair, 2, seed=9)
        path = tmp_path / "labels.csv"
        save_labeled(labeled, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "vertex_id,class,strategy,seed"
        assert len(rows) == 1 + len(labeled.pairs)

    def test_coupon_collector_mean(self):
        # balanced classes: expected draws to cover K classes is K * H_K
        g = uniform_graph([0] * 6 + [1] * 6 + [2] * 6)
        mean = mean_draws_to_cover(g, trials=4000, seed=2)
        expected = 3.0 * (1.0 + 1.0 / 2.0 + 1.0 / 3.0)
        assert abs(mean - expected) / expected < 0.1


class TestFacilityLocation:
    def test_whole_set_value_for_diagonal_max_kernels(self, two_blobs):
        g, points = two_blobs
        from rkdlab.teacher_kernel import TeacherEmbedding

        kern = kernel_matrix(KernelSpec.rbf(TeacherEmbedding(points), 1.0), g)
        value = facility_location_value(range(g.size), kern)
        assert math.isclose(value, float(g.size), rel_tol=1e-12)

    def test_identical_points_symmetric_singletons(self):
        g = uniform_graph([0, 0, 1])
        kmat = np.ones((3, 3))
        vals = [facility_location_value([i], kmat) for i in range(3)]
        assert len(set(vals)) == 1

    def test_matches_double_loop_oracle(self, sbm_pair):
        kmat = np.random.default_rng(4).random((sbm_pair.size, sbm_pair.size))
        kmat = (kmat + kmat.T) / 2
        selected = [1, 4, 7]
        oracle = sum(max(kmat[i, j] for i in selected) for j in range(sbm_pair.size))
        assert math.isclose(facility_location_value(selected, kmat), oracle, rel_tol=1e-12)

    def test_empty_selection_rejected(self, sbm_pair):
        with pytest.raises(DomainError):
            facility_location_value([], kernel_matrix(KernelSpec.graph_revealing(), sbm_pair))

    def test_monotone_in_selection(self, sbm_pair):
        kmat = np.abs(np.random.default_rng(1).random((sbm_pair.size, sbm_pair.size)))
        v1 = facility_location_value([0], kmat)
        v2 = facility_location_value([0, 3], kmat)
        assert v2 >= v1


class TestGreedy:
    def test_full_greedy_gains_nonincreasing(self, two_blobs):
        g, points = two_blobs
        from rkdlab.teacher_kernel import TeacherEmbedding

        kern = kernel_matrix(KernelSpec.rbf(TeacherEmbedding(points), 1.0), g)
        _, gains = full_greedy(kern, g.size)
        assert all(gains[i] >= gains[i + 1] - 1e-12 for i in range(len(gains) - 1))

    def test_selecting_everything(self, sbm_pair):
        kmat = np.ones((sbm_pair.size, sbm_pair.size))
        picked = stochastic_greedy(kmat, sbm_pair.size, epsilon=0.5, seed=0)
        assert sorted(picked) == list(range(sbm_pair.size))

    def test_epsilon_to_zero_matches_full_greedy(self, two_blobs):
        g, points = two_blobs
        from rkdlab.teacher_kernel import TeacherEmbedding

        kern = kernel_matrix(KernelSpec.rbf(TeacherEmbedding(points), 1.0), g)
        stoch = stochastic_greedy(kern, 4, epsilon=1e-9, seed=3)
        full, _ = full_greedy(kern, 4)
        assert stoch == full

    def test_near_optimality_on_exhaustive_fixture(self):
        g, points = build_two_blobs(5, separation=5.0, noise=0.4, bandwidth=1.0, seed=6)
        from rkdlab.teacher_kernel import TeacherEmbedding

        kern = kernel_matrix(KernelSpec.rbf(TeacherEmbedding(points), 1.0), g)
        _, opt = exhaustive_best_subset(kern, 2)
        for seed in range(5):
            picked = stochastic_greedy(kern, 2, epsilon=0.2, seed=seed)
            value = facility_location_value(picked, kern)
            assert value >= (1.0 - 1.0 / math.e - 0.2) * opt - 1e-12

    def test_invalid_epsilon(self, sbm_pair):
        with pytest.raises(DomainError):
            stochastic_greedy(np.ones((sbm_pair.size, sbm_pair.size)), 2, epsilon=0.0, seed=0)


class TestErm:
    def test_perfect_predictor_wins(self, sbm_pair):
        good = onehot(sbm_pair)
        bad = onehot(sbm_pair, (sbm_pair.labels + 1) % 2)
        labeled = uniform_per_class_sample(sbm_pair, 3, seed=0)
        result = erm_zero_one([bad, good], labeled)
        assert result.index == 1
        assert result.empirical_errors[1] == 0.0

    def test_tie_broken_by_family_order(self):
        g = uniform_graph([0, 0, 1, 1])
        f1 = onehot(g, [0, 0, 1, 0])
        f2 = onehot(g, [0, 0, 0, 1])
        labeled = make_labeled(g, [0, 1], "manual", seed=0)
        assert erm_zero_one([f1, f2], labeled).index == 0

    def test_matches_brute_recount(self, sbm_pair):
        rng = np.random.default_rng(2)
        fam = [onehot(sbm_pair, rng.integers(0, 2, sbm_pair.size)) for _ in range(5)]
        labeled = uniform_per_class_sample(sbm_pair, 4, seed=1)
        result = erm_zero_one(fam, labeled)
        for f, err in zip(fam, result.empirical_errors):
            recount = np.mean([
                f.hard_labels()[v] != c for v, c in labeled.pairs
            ])
            assert math.isclose(err, recount, rel_tol=1e-12)


class TestTheorem3:
    def test_singleton_family_never_fails(self, sbm_pair):
        report = theorem3_check([onehot(sbm_pair)], sbm_pair, n=10, trials=200, delta=0.2, seed=0)
        assert report.failures == 0
        assert report.max_excess == 0.0

    def test_redraws_stop_at_the_cap(self):
        # class 1 holds mass 1e-12: a covering draw of n = 2 is practically
        # never found, and the redraws end at the cap iid_sample shares
        w = np.diag([1.0, 1.0, 1.0, 3e-12])
        g = PopulationGraph(vertices=(0, 1, 2, 3), weights=w / w.sum(), labels=[0, 0, 0, 1], num_classes=2)
        with pytest.raises(DomainError, match=f"no class-covering draw of size 2 in {REDRAW_CAP} attempts"):
            theorem3_check([onehot(g)], g, n=2, trials=5, delta=0.2, seed=0)

    def test_budget_below_classes_rejected(self, sbm_pair):
        with pytest.raises(InvalidConfigError):
            theorem3_bound(2, 1, 0.0, 0.1)

    def test_vacuous_flag(self, sbm_pair):
        report = theorem3_check([onehot(sbm_pair)], sbm_pair, n=2, trials=10, delta=0.2, seed=0)
        assert report.vacuous  # zero-one risk <= 1 < bound

    def test_failure_rate_within_tolerance(self):
        g = lazy_graph(build_sbm(2, [8, 8], 0.9, 0.1, seed=4))
        rng = np.random.default_rng(9)
        fam = [onehot(g)]
        for _ in range(4):
            flips = rng.random(g.size) < 0.15
            fam.append(onehot(g, np.where(flips, 1 - g.labels, g.labels)))
        delta = 0.2
        report = theorem3_check(fam, g, n=40, trials=400, delta=delta, seed=1)
        se = math.sqrt((delta / 2) * (1 - delta / 2) / 400)
        assert report.failure_rate <= delta / 2 + 3 * se

    def test_a_trial_above_the_bound_counts_as_a_failure(self, sbm_pair, monkeypatch):
        # the bound never fails at these sizes, so it is set to 0: the ERM winner is the
        # flipped member whenever the draws miss vertex 0 (ties go to the earliest member)
        monkeypatch.setattr(label_acquisition, "theorem3_bound", lambda K, n, mu, delta: 0.0)
        flipped = np.array(sbm_pair.labels)
        flipped[0] = 1 - flipped[0]
        report = theorem3_check([onehot(sbm_pair, flipped), onehot(sbm_pair)], sbm_pair, n=2, trials=50,
                                delta=0.2, seed=0)
        assert 0 < report.failures < 50 and report.failure_rate == report.failures / 50
        assert report.max_excess == sbm_pair.degrees()[0]

    def test_population_error_is_degree_weighted(self, sbm_pair):
        flipped = onehot(sbm_pair, (sbm_pair.labels + 1) % 2)
        assert math.isclose(population_error(flipped, sbm_pair), 1.0, abs_tol=1e-12)


# (case, a call on the sbm_pair fixture, whose classes have 5 vertices each, what its DomainError says)
OUT_OF_DOMAIN = [
    ("class-below-budget", lambda g: uniform_per_class_sample(g, 6, seed=0), "class 0 has only 5 vertices for budget 6"),
    ("degenerate-prediction", lambda g: cluster_wise_sample(onehot(g, np.zeros(g.size, dtype=int)), g, 0.5, seed=0),
     "prediction is degenerate: prediction not surjective"),
    ("empty-coreset", lambda g: stochastic_greedy(np.ones((g.size, g.size)), 0, 0.1, seed=0),
     r"need 1 <= n <= \|X\|, got n=0"),
    ("coreset-above-size", lambda g: stochastic_greedy(np.ones((g.size, g.size)), g.size + 1, 0.1, seed=0),
     r"need 1 <= n <= \|X\|, got n=11"),
    ("empty-erm-family", lambda g: erm_zero_one([], make_labeled(g, [0], "manual", 0)), "family must be nonempty"),
    ("delta-at-one", lambda g: theorem3_bound(2, 4, 0.0, 1.0), r"delta must be in \(0, 1\)"),
]


@pytest.mark.parametrize("case,call,message", OUT_OF_DOMAIN, ids=[row[0] for row in OUT_OF_DOMAIN])
def test_arguments_outside_the_domain_raise(sbm_pair, case, call, message):
    with pytest.raises(DomainError, match=message):
        call(sbm_pair)
