import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import frozen_oracles as oracle
from rkdlab import clustering_audit
from rkdlab.clustering_audit import (
    LP_AGREEMENT_TOL,
    clustering_audits,
    lp_bound_oracle,
    lp_dual_value,
    lp_lagrangian_dual,
    lp_primal_greedy,
    majority_labels,
    margin_prefactor,
    skeletons_and_margins,
    theorem1_check,
    theorem4_check,
)
from rkdlab.dac_expansion import chain_augmentation, dac_error, theorem5_check
from rkdlab.errors import DomainError, NumericError
from rkdlab.graph_core import build_sbm, inter_class_fraction, lazy_graph, spectral_decompose
from rkdlab.spectral_rkd import (
    OptimizerConfig,
    Prediction,
    StudentModel,
    population_loss_gap,
    population_minimizers,
    random_rotations,
    train_student,
)
from rkdlab.teacher_kernel import KernelSpec, kernel_matrix

from conftest import hand_graph
from oracles import (
    LP_ENUMERATION_CAP,
    exact_population_minimizer,
    example_c1_margin_check,
    hard_labels_stochastic,
    label_boundary_mass,
    lemma_c1_check,
    lp_lagrangian_dual_fractions,
    lp_primal_enumerate,
    majority_label,
    member_labeling,
    member_skeleton,
    random_rotation,
    skeleton_and_margin,
)


def onehot_prediction(g):
    return Prediction(scores=np.eye(g.num_classes)[g.labels].astype(float))


class TestMajorityLabel:
    def test_scores_must_have_a_row_per_vertex(self, sbm_pair):
        with pytest.raises(DomainError, match=r"prediction rows 3 != \|X\| = 10"):
            majority_label(Prediction(scores=np.ones((3, 2))), sbm_pair)

    def test_correct_onehot_has_zero_minority(self, sbm_pair):
        maj = majority_label(onehot_prediction(sbm_pair), sbm_pair)
        assert maj.minority_mass == 0.0
        assert not maj.minority_mask.any()

    def test_two_thirds_cluster(self):
        # cluster of three equal-mass vertices: two of class 0, one of class 1
        g = hand_graph(np.ones((3, 3)), [0, 0, 1], 2)
        f = Prediction(scores=np.tile([1.0, 0.0], (3, 1)))
        maj = majority_label(f, g)
        assert list(maj.label) == [0, 0, 0]
        assert list(maj.minority_mask) == [False, False, True]
        assert math.isclose(maj.minority_mass, 1.0 / 3.0, abs_tol=1e-12)

    def test_invariant_under_positive_scaling(self, sbm_pair):
        f = exact_population_minimizer(sbm_pair, 2, random_rotation(2, np.random.default_rng(3)))
        doubled = Prediction(scores=2.0 * f.scores)
        a, b = majority_label(f, sbm_pair), majority_label(doubled, sbm_pair)
        assert np.array_equal(a.label, b.label)
        assert np.array_equal(a.minority_mask, b.minority_mask)

    def test_tie_goes_to_smallest_class(self):
        g = hand_graph(np.ones((4, 4)), [0, 0, 1, 1], 2)
        f = Prediction(scores=np.tile([1.0, 0.0], (4, 1)))
        maj = majority_label(f, g)
        assert list(maj.label) == [0, 0, 0, 0]
        assert list(maj.minority_mask) == [False, False, True, True]

    def test_family_error_is_max_and_monotone_under_union(self, sbm_pair):
        f_good = onehot_prediction(sbm_pair)
        flipped = f_good.scores.copy()
        flipped[0] = 1.0 - flipped[0]
        f_bad = Prediction(scores=flipped)
        mus = [majority_label(f, sbm_pair).minority_mass for f in (f_good, f_bad)]
        assert max(mus) >= mus[0]


class TestSkeletonAndMargin:
    def test_surjective_onehot_has_unit_beta_gamma(self, sbm_pair):
        # flip one low-mass vertex so the minority competitor set is nonempty
        scores = onehot_prediction(sbm_pair).scores.copy()
        scores[0] = 1.0 - scores[0]
        rep = skeleton_and_margin(Prediction(scores=scores), sbm_pair)
        assert rep.applicable
        assert math.isclose(rep.beta, 1.0, abs_tol=1e-12)
        assert math.isclose(rep.gamma, 1.0, abs_tol=1e-12)

    def test_empty_minority_gives_infinite_margins(self, sbm_pair):
        rep = skeleton_and_margin(onehot_prediction(sbm_pair), sbm_pair)
        assert rep.applicable
        assert math.isinf(rep.gamma)
        assert margin_prefactor(rep.beta, rep.gamma) == 1.0

    def test_proportional_skeleton_rows_fail_rank(self):
        # the skeleton rows (2, -3) and (-2/3, 1) are proportional; beta and gamma are still measured
        g = hand_graph(np.ones((6, 6)), [0, 0, 0, 1, 1, 1], 2)
        rep = skeleton_and_margin(Prediction(scores=_skip_reason_family()[2]), g)
        assert rep.reason == "skeleton matrix rank-deficient"
        assert not rep.applicable
        assert rep.beta > 0 and rep.gamma is not None

    def test_halves_violation_is_marker_not_exception(self):
        g = hand_graph(np.ones((4, 4)), [0, 0, 1, 1], 2)
        f = Prediction(scores=np.tile([1.0, 0.0], (4, 1)))  # everything one cluster
        rep = skeleton_and_margin(f, g)
        assert not rep.applicable
        assert "half" in rep.reason
        assert rep.beta is None and rep.gamma is None


class TestTheorem1:
    def test_disconnected_blocks_bound_zero_pass(self, disconnected_blocks):
        fam = [exact_population_minimizer(disconnected_blocks, 2)]
        report = theorem1_check(fam, disconnected_blocks)
        assert report["verdict"] == "pass"
        assert report["bound"] == 0.0
        assert report["mu"] == 0.0

    def test_fifty_random_rotations_pass(self, sbm_pair):
        rng = np.random.default_rng(17)
        fam = [exact_population_minimizer(sbm_pair, 2, random_rotation(2, rng)) for _ in range(50)]
        report = theorem1_check(fam, sbm_pair)
        assert report["verdict"] == "pass"
        assert len(report["skipped"]) < len(fam)

    def test_precondition_violators_are_skipped_not_failed(self, sbm_pair):
        constant = Prediction(scores=np.tile([1.0, 0.0], (sbm_pair.size, 1)))
        fam = [exact_population_minimizer(sbm_pair, 2), constant]
        report = theorem1_check(fam, sbm_pair)
        assert report["verdict"] == "pass"
        assert report["skipped"] == [(1, "minority mass exceeds half of some class")]

    def test_monte_carlo_sbm_audit(self):
        for seed in range(10):
            g = lazy_graph(build_sbm(2, [5, 5], 0.9, 0.1, seed=seed))
            rng = np.random.default_rng(seed)
            fam = [exact_population_minimizer(g, 2, random_rotation(2, rng)) for _ in range(3)]
            report = theorem1_check(fam, g)
            assert report["verdict"] != "fail"

    def test_empty_family_rejected(self, sbm_pair):
        with pytest.raises(DomainError, match="empty prediction family"):
            theorem1_check([], sbm_pair)

    def test_record_keys(self, sbm_pair):
        report = theorem1_check([exact_population_minimizer(sbm_pair, 2)], sbm_pair)
        assert list(report) == ["verdict", "mu", "bound", "alpha", "beta", "gamma", "lambda_next", "skipped"]
        assert report["lambda_next"] == spectral_decompose(sbm_pair).eigenvalues[2]

    def test_every_member_skipped_measures_nothing(self, sbm_pair):
        constant = Prediction(scores=np.tile([1.0, 0.0], (sbm_pair.size, 1)))
        report = theorem1_check([constant], sbm_pair)
        assert report["verdict"] == "not-applicable: every member skipped"
        assert report["mu"] is report["bound"] is report["beta"] is report["gamma"] is None


class TestTheorem4:
    def test_zero_delta_reduces_to_theorem1(self, sbm_pair):
        f = exact_population_minimizer(sbm_pair, 2)
        r4 = theorem4_check(f, sbm_pair, Delta=0.0)
        r1 = theorem1_check([f], sbm_pair)
        assert r4["verdict"] == "pass"
        assert math.isclose(r4["bound"], r1["bound"], rel_tol=1e-12)
        assert [r4[k] for k in ("mu", "alpha", "beta", "gamma", "lambda_next")] == \
            [r1[k] for k in ("mu", "alpha", "beta", "gamma", "lambda_next")]

    def test_negative_dual_denominator_is_bound_undefined(self):
        # a non-lazy path on four vertices has eigenvalues 0, 0.5, 1.5, 2: with
        # K = K0 = 3, (1 - 1.5)^2 - (1 - 2)^2 < 0 although 1.5 < 2, and the
        # closed-form dual was -0 below the LP optimum 1
        g = hand_graph(np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1), [0, 0, 1, 1], 2)
        f = Prediction(scores=np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 2.0]]))
        audit = theorem4_check(f, g, Delta=0.0)
        assert audit["verdict"].startswith("bound-undefined: (1 - lambda_K0)^2=0.25")
        assert "(1 - lambda_K+1)^2=0.99" in audit["verdict"]
        assert audit["bound"] is None and audit["lp_dual"] is None

    def test_trained_student_passes(self):
        g = lazy_graph(build_sbm(2, [5, 5], 0.9, 0.05, seed=21))
        model = StudentModel.initialize("table", (g.size, 2), seed=3)
        trained, report = train_student(
            model, g, kernel_matrix(KernelSpec.graph_revealing(), g),
            OptimizerConfig(step_size=0.3, iterations=3000, seed=0, momentum=0.9),
        )
        pred = trained.prediction()
        delta = max(report.gap, 0.0)
        audit = theorem4_check(pred, g, Delta=delta)
        assert audit["verdict"] in ("pass", "not-applicable: skeleton matrix rank-deficient",
                                    "not-applicable: prediction not surjective")
        if audit["verdict"] == "pass":
            assert audit["mu"] <= audit["bound"] + 1e-9

    def test_oversized_delta_is_marker(self, sbm_pair):
        f = exact_population_minimizer(sbm_pair, 2)
        dec = spectral_decompose(sbm_pair)
        too_big = (1.0 - dec.eigenvalues[1]) ** 2 + 1.0
        report = theorem4_check(f, sbm_pair, Delta=too_big)
        assert report["verdict"].startswith("bound-undefined")
        assert report["bound"] is None


def test_clustering_audits_run_thm1_on_the_family_and_thm4_on_member_0(sbm_pair):
    family = population_minimizers(sbm_pair, 2, random_rotations(2, 3, np.random.default_rng(0)))
    f0 = Prediction(scores=family[0])
    delta = population_loss_gap(f0, sbm_pair)[1]
    audits = clustering_audits(family, sbm_pair)
    assert audits == {"thm1": theorem1_check(family, sbm_pair),
                      "thm4": theorem4_check(f0, sbm_pair, Delta=max(delta, 0.0))}


def _lazy_triangles():
    """Two classes of three vertices, in-class weight 1 and cross weight 1/4, made lazy.

    Every degree is d = 2 + 3/4 = 11/4.  The normalized adjacency's
    eigenvalues are 1, (2 - 3/4) / d and -1/d four times, so the lazy
    Laplacian (1 - eigenvalue) / 2 has lambda = 0, 3/11 and 15/22 four times.
    The cross mass is 9/4 of 6 d: alpha = 3/22.
    """
    labels = np.repeat([0, 1], 3)
    w = np.where(labels[:, None] == labels[None, :], 1.0, 0.25)
    np.fill_diagonal(w, 0.0)
    return lazy_graph(hand_graph(w, labels, 2))


# Vertex 2 (class 0) lands in the class-1 cluster and is the one minority
# vertex.  The skeleton is vertices 0 and 3, diag(3, 4): beta = 4.  Class 0's
# margin is 3 - f(2)_0 = 3, class 1 has no competitor: gamma = 3.
PINNED_SCORES = np.array([[3.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 4.0], [0.0, 2.0], [0.0, 2.0]])


class TestTheorem4PinnedValues:
    """Theorem 4's bound on a fixture worked out by hand, K = K0 = 2, Delta = 1/2.

    The LP's costs (1 - lambda)^2 are 1 and 64/121 on the head and 49/484 on
    the four tail coordinates.  Delta = 1/2 lies between (1 - lambda_3)^2 =
    49/484 and (1 - lambda_2)^2 = 256/484.  The closed-form dual is Delta over
    (256 - 49)/484: 242/207.  The primal moves one unit of head mass at slope
    207/484, which spends 207/484 of the budget, then the rest at slope 1 -
    49/484: 1 + (242 - 207)/435 = 94/87.
    """

    def audit(self, delta=0.5):
        return theorem4_check(Prediction(scores=PINNED_SCORES), _lazy_triangles(), Delta=delta)

    def test_fixture_quantities(self):
        g = _lazy_triangles()
        np.testing.assert_allclose(spectral_decompose(g).eigenvalues, [0.0, 3 / 11] + [15 / 22] * 4, atol=1e-14)
        assert inter_class_fraction(g) == pytest.approx(3 / 22, rel=1e-14)
        report = self.audit()
        assert (report["beta"], report["gamma"]) == pytest.approx((4.0, 3.0), rel=1e-14)
        assert report["mu"] == pytest.approx(1 / 6, rel=1e-14)
        assert (report["Delta"], report["lambda_next"]) == pytest.approx((0.5, 15 / 22), rel=1e-14)

    def test_margin_prefactor_squares_the_ratio(self):
        assert margin_prefactor(4.0, 3.0) == pytest.approx(16 / 9, rel=1e-15)
        assert margin_prefactor(1.0, 2.0) == 1.0
        assert margin_prefactor(5.0, math.inf) == 1.0

    def test_bound_adds_the_dual_not_the_primal(self):
        report = self.audit()
        assert report["lp_primal"] == pytest.approx(94 / 87, rel=1e-12)
        assert report["lp_dual"] == pytest.approx(242 / 207, rel=1e-12)
        # 2 (beta / gamma)^2 (alpha / lambda_3 + dual), alpha / lambda_3 = 1/5
        assert report["bound"] == pytest.approx(2 * 16 / 9 * (1 / 5 + 242 / 207), rel=1e-12)
        assert report["verdict"] == "pass"

    def test_delta_is_guarded_by_lambda_k_not_lambda_k_plus_1(self):
        assert self.audit(0.5)["bound"] is not None  # above (1 - lambda_3)^2, below (1 - lambda_2)^2
        report = self.audit(0.53)  # above (1 - lambda_2)^2 = 0.5289...
        assert report["verdict"] == "bound-undefined: Delta=0.53 >= (1 - lambda_K)^2"
        assert report["bound"] is None

    def test_negative_delta_is_bound_undefined(self):
        report = self.audit(-1e-3)
        assert report["verdict"] == "bound-undefined: negative Delta"
        assert report["bound"] is None and report["lp_dual"] is None

    def test_k_plus_1_above_the_vertex_count_is_bound_undefined(self, path3):
        report = theorem4_check(Prediction(scores=np.eye(3)), path3, Delta=0.0)
        assert report["verdict"] == "bound-undefined: K+1 exceeds |X|"
        assert report["bound"] is None and report["lambda_next"] is None

    def test_a_third_zero_eigenvalue_is_bound_undefined(self):
        # three disjoint pairs: lambda = 0, 0, 0, 1, 1, 1 once lazy, so lambda_3 ~ 0 with K = 2
        pairs = np.kron(np.eye(3), np.ones((2, 2)) - np.eye(2))
        g = lazy_graph(hand_graph(pairs, [0, 0, 1, 1, 1, 1], 2))
        scores = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        report = theorem4_check(Prediction(scores=scores), g, Delta=0.1)
        assert report["verdict"] == "bound-undefined: lambda_{K+1} ~ 0"
        assert report["bound"] is None


def exact_solutions(lam, K, delta):
    """The exact greedy primal and the exact Lagrangian dual, which must agree
    exactly, and the exact enumeration too where it runs (n <= 12)."""
    greedy, lagrangian = lp_primal_greedy(lam, K, delta), lp_lagrangian_dual(lam, K, delta)
    assert isinstance(greedy, Fraction) and greedy == lagrangian
    if len(lam) <= LP_ENUMERATION_CAP:
        assert lp_primal_enumerate(lam, K, delta) == greedy
    return greedy


class TestLpOracle:
    def test_three_solvers_agree_on_reference_spectrum(self):
        # costs 1, 1, 0.25, (0.1)^2: the first unit of head mass costs 1 - 0.25
        # more than the tail's, and only Delta is left to pay for it
        value = exact_solutions([0.0, 0.0, 0.5, 0.9], 2, 0.01)
        assert value == Fraction(0.01) / Fraction(3, 4)

    def test_exact_solvers_agree_on_48_eigenvalues(self):
        lam = spectral_decompose(lazy_graph(build_sbm(2, [24, 24], 0.9, 0.05, seed=4))).eigenvalues
        assert len(lam) == 48
        for K, delta in ((2, 0.01), (2, 0.2), (5, 0.05)):
            primal, _ = lp_bound_oracle(lam, K, K0=1, Delta=delta)
            assert primal == float(exact_solutions(lam, K, delta))

    def test_fractional_head_mass_near_a_bound(self):
        # the optimum puts head mass 8.9e-8 on the cheaper head coordinate:
        # a binding budget row with two free coordinates, not an integral vertex
        lam, delta = [0.0, 0.1, 0.5, 0.8, 0.9], 5e-8
        costs = (1.0 - np.array(lam)) ** 2
        t = exact_solutions(lam, 2, delta)
        assert t == Fraction(delta) / (Fraction(costs[1]) - Fraction(costs[2])) and t > 8e-8
        # head mass s, 1 - s and 1 + s for s from 1e-10 to 1e-6
        for step in 10.0 ** np.arange(-10, -5):
            for delta in (step * (costs[1] - costs[2]), (1 - step) * (costs[1] - costs[2]),
                          costs[1] - costs[2] + step * (costs[0] - costs[2])):
                primal, _ = lp_bound_oracle(lam, 2, K0=1, Delta=delta)
                assert primal == float(exact_solutions(lam, 2, delta))

    # Spectrum of the 32-vertex A/B fixture (graph seed 6) with the Delta of a
    # student trained there at lambda_rkd 0.5, temperature 0.5, tau_dac 0.6,
    # seed 1.  The LP costs span 1.0 down to 1.6e-15.
    WIDE_COST_SPECTRUM = [
        5.637849477274663e-17, 0.023702295304179482, 0.6760265784056648, 0.7972464729900206,
        0.8700638640621378, 0.8881665686262397, 0.9304021117403891, 0.9645836968708109,
        0.9665563852587705, 0.9754162211196953, 0.9892233360685619, 0.9901814588124876,
        0.993584963981443, 0.9979191265378579, 0.9988025360380163, 0.9990534503671619,
        0.9993864196656772, 0.99968690120804, 0.9997913981088089, 0.9998917468115218,
        0.9999587457573558, 0.9999723635525382, 0.9999814594928451, 0.9999854688748364,
        0.9999920541205439, 0.9999974728377854, 0.9999992564496715, 0.9999992977871818,
        0.999999454062628, 0.9999997982063971, 0.9999998861265808, 0.9999999600391103,
    ]

    def test_exact_solvers_agree_on_wide_cost_range(self):
        lam, delta = self.WIDE_COST_SPECTRUM, 0.09839935458424082
        value = exact_solutions(lam, 2, delta)
        primal, dual = lp_bound_oracle(lam, 2, K0=2, Delta=delta)
        assert primal == float(value) and primal <= dual
        assert abs(primal - 0.11600982867893615) < 1e-15

    def test_equal_head_costs_with_head_mass_just_above_one(self):
        # three equal head costs and head mass 1 + 7e-9: a float simplex at its default
        # feasibility tolerance put all of that mass on one coordinate
        lam, delta = [0.0, 0.2, 0.2, 0.2, 0.9, 0.99, 0.99, 0.99], 4.422952297017875e-09
        value = exact_solutions(lam, 3, delta)
        primal, _ = lp_bound_oracle(lam, 3, K0=1, Delta=delta)
        assert primal == float(value) and abs(primal - (1.0 + 7.0205595e-09)) < 1e-15

    def test_zero_optimum_is_positive_zero(self):
        lam = [0.0, 0.1, 0.5, 0.8, 0.9]
        assert exact_solutions(lam, 2, 0.0) == 0
        value, _ = lp_bound_oracle(lam, 2, K0=1, Delta=0.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_tiny_budget_spectra_match_enumeration(self):
        # n = 12, K = 9 and tail eigenvalues within 3e-4 of 1 leave an LP budget
        # below about 1e-7; float solvers aborted on 4 of these 60 as disagreeing
        rng = np.random.default_rng(0)
        for _ in range(60):
            lam = np.sort(np.concatenate([[0.0], 1.0 - rng.uniform(0.0, 3e-4, size=11)]))
            delta = float(rng.uniform(0.0, 0.9) * (1.0 - lam[8]) ** 2)
            primal, _ = lp_bound_oracle(lam, 9, K0=9, Delta=delta)
            assert primal == float(lp_primal_enumerate(lam, 9, delta))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exact_solvers_on_random_spectra(self, data):
        n = data.draw(st.integers(2, 16), label="n")
        K = data.draw(st.integers(1, n - 1), label="K")
        # few distinct values, some within 1e-12..1e-3 of 1, so values repeat
        value = st.one_of(st.floats(0.0, 1.0), st.floats(-12.0, -3.0).map(lambda e: 1.0 - 10.0**e))
        values = data.draw(st.lists(value, min_size=1, max_size=n), label="values")
        lam = sorted(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n), label="lam"))
        gap = (1.0 - lam[K - 1]) ** 2
        assume(gap > 0.0)
        share = data.draw(st.one_of(st.just(0.0), st.floats(-14.0, 0.0, exclude_max=True).map(
            lambda e: 10.0**e)), label="share")
        delta = share * gap
        assume(delta < gap)
        greedy = lp_primal_greedy(lam, K, delta)
        assert greedy == lp_lagrangian_dual(lam, K, delta)
        if n <= 8:
            assert greedy == lp_primal_enumerate(lam, K, delta)
        costs = (1.0 - np.array(lam)) ** 2
        for K0 in range(1, K + 1):
            if costs[K0 - 1] > costs[K]:  # the closed form's denominator is positive
                assert float(greedy) <= lp_dual_value(lam, K, K0, delta) + LP_AGREEMENT_TOL
                assert lp_bound_oracle(lam, K, K0, delta)[0] == float(greedy)

    @pytest.mark.parametrize("K", [2, 3])
    def test_integer_dual_equals_the_fraction_dual_on_sbm_spectra(self, K):
        # |X| = 10-48, eight graph seeds and four Deltas below (1 - lambda_K)^2: 160 cases per K
        cases = 0
        for size in (10, 20, 32, 40, 48):
            for seed in range(8):
                sizes = [size // K + (k < size % K) for k in range(K)]
                lam = spectral_decompose(lazy_graph(build_sbm(K, sizes, 0.9, 0.05, seed=seed))).eigenvalues
                for share in (0.0, 1e-6, 0.5, 0.99):
                    delta = share * (1.0 - lam[K - 1]) ** 2
                    assert lp_lagrangian_dual(lam, K, delta) == lp_lagrangian_dual_fractions(lam, K, delta)
                    cases += 1
        assert cases == 160

    @pytest.mark.parametrize("lam,K", [
        ([0.0, 0.5, 0.5, 0.5, 0.9, 0.9, 1.0], 2),
        ([0.0, 0.5, 0.5, 0.5, 0.9, 0.9, 1.0], 3),
        ([0.0, 0.0, 0.25, 0.25, 0.25, 0.25], 2),
        ([0.0, 0.3, 0.3, 0.7, 0.7, 0.7, 0.7, 1.0, 1.0], 4),
        ([0.0, 0.1, 0.1, 0.1, 0.1], 1),
        ([0.0, 0.2, 0.2, 0.2, 0.2, 0.2], 3),
    ])
    def test_integer_dual_on_repeated_eigenvalues_and_delta_just_below_the_cap(self, lam, K):
        cap = (1.0 - lam[K - 1]) ** 2
        for delta in (0.0, cap / 3, cap * (1 - 1e-12), math.nextafter(cap, 0.0)):
            dual = lp_lagrangian_dual(lam, K, delta)
            assert dual == lp_lagrangian_dual_fractions(lam, K, delta) == lp_primal_greedy(lam, K, delta)

    def test_vanishing_delta_forces_zero_leakage(self):
        lam = [0.0, 0.1, 0.5, 0.8, 0.9]
        primal, dual = lp_bound_oracle(lam, 2, K0=1, Delta=1e-12)
        assert primal < 1e-9

    def test_k0_equals_k_dual_closed_form(self):
        lam = [0.0, 0.0, 0.5, 0.9]
        expected = 0.01 / ((1.0 - 0.0) ** 2 - (1.0 - 0.5) ** 2)
        assert math.isclose(lp_dual_value(lam, 2, 2, 0.01), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("lam,K,delta", [
        ([0.0, 3.06e-69, 1.0, 1.0, 1.0, 1.0], 1, 0.0),  # both squares round to 1.0
        ([0.0, 0.3, math.nextafter(0.3, 1.0), 0.9], 2, 1e-3),  # both round to 0.48999999999999994
    ])
    def test_dual_denominator_that_rounds_to_zero_is_rejected(self, lam, K, delta):
        # lambda_K0 < lambda_{K+1}, yet the float denominator is 0 (it gave nan and inf)
        with pytest.raises(DomainError, match=r"lambda_K0\)\^2=.* - \(1 - lambda_K\+1\)\^2=.* not positive"):
            lp_dual_value(lam, K, K, delta)
        with pytest.raises(DomainError, match="is not positive"):
            lp_bound_oracle(lam, K, K0=K, Delta=delta)

    def test_weak_duality_on_random_spectra(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 50:
            n = int(rng.integers(5, 20))
            lam = np.sort(rng.uniform(0.0, 1.0, size=n))
            lam[0] = 0.0
            K = int(rng.integers(1, 4))
            if K >= n or lam[K] - lam[K - 1] < 1e-3:
                continue
            K0 = int(rng.integers(1, K + 1))
            if not lam[K0 - 1] < lam[K] - 1e-9:
                continue
            delta = float(rng.uniform(0.0, 0.9) * (1.0 - lam[K - 1]) ** 2)
            primal, dual = lp_bound_oracle(lam, K, K0, delta)
            assert primal <= dual + 1e-9
            done += 1

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            lp_primal_greedy([0.0, 0.2, 0.5], 1, Delta=2.0)

    @pytest.mark.parametrize("call,message", [
        (lambda: lp_primal_greedy([0.0, 0.2, 0.5], 0, 0.0), "need 1 <= K < 3"),
        (lambda: lp_lagrangian_dual([0.0, 0.2, 0.5], 3, 0.0), "need 1 <= K < 3"),
        (lambda: lp_primal_greedy([0.0, 0.5, 0.2], 1, 0.0), "eigenvalues must be ascending"),
        (lambda: lp_dual_value([0.0, 0.2, 0.5], 1, 0, 0.0), "need 1 <= K0 <= K, got K0=0"),
        (lambda: lp_dual_value([0.0, 0.2, 0.5], 1, 2, 0.0), "need 1 <= K0 <= K, got K0=2"),
    ], ids=["K-zero", "K-at-n", "descending", "K0-zero", "K0-above-K"])
    def test_outside_the_domain_is_rejected(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_disagreeing_exact_solvers_raise(self, monkeypatch):
        lam = [0.0, 0.2, 0.5, 0.9]
        exact = lp_lagrangian_dual(lam, 1, 0.1)
        monkeypatch.setattr(clustering_audit, "lp_lagrangian_dual", lambda *args: exact + Fraction(1, 10**30))
        with pytest.raises(NumericError, match="LP solvers disagree"):
            lp_bound_oracle(lam, 1, 1, 0.1)

    def test_failed_weak_duality_raises(self, monkeypatch):
        lam = [0.0, 0.2, 0.5, 0.9]
        primal = float(lp_primal_greedy(lam, 1, 0.1))
        monkeypatch.setattr(clustering_audit, "lp_dual_value", lambda *args: primal - 2 * LP_AGREEMENT_TOL)
        with pytest.raises(NumericError, match="weak duality violated"):
            lp_bound_oracle(lam, 1, 1, 0.1)


class TestLemmaC1:
    def test_perfect_onehot_both_sides_zero(self, sbm_pair):
        lhs, rhs = lemma_c1_check(onehot_prediction(sbm_pair), sbm_pair)
        assert lhs == 0.0
        assert rhs < 1e-18

    def test_random_full_rank_prediction_holds(self, sbm_pair):
        rng = np.random.default_rng(8)
        f = exact_population_minimizer(sbm_pair, 2, random_rotation(2, rng))
        lhs, rhs = lemma_c1_check(f, sbm_pair)
        assert lhs <= rhs + 1e-9

    def test_one_flipped_vertex(self):
        # five uniform vertices per class; one flipped vertex of mass 0.1
        g = hand_graph(np.ones((10, 10)), [0] * 5 + [1] * 5, 2)
        scores = np.eye(2)[g.labels].astype(float)
        scores[0] = [0.0, 1.0]
        lhs, rhs = lemma_c1_check(Prediction(scores=scores), g)
        assert math.isclose(lhs, 0.1, abs_tol=1e-12)
        assert rhs >= lhs - 1e-12

    def test_precondition_violation_raises(self):
        g = hand_graph(np.ones((4, 4)), [0, 0, 1, 1], 2)
        f = Prediction(scores=np.tile([1.0, 0.0], (4, 1)))
        with pytest.raises(DomainError):
            lemma_c1_check(f, g)


class TestExampleC1Margin:
    def test_minimum_feasible_loss_gives_sqrt2_beta(self):
        for beta in (1.0, 2.0):
            lo = math.log1p(math.exp(-math.sqrt(2.0) * beta))
            assert math.isclose(example_c1_margin_check(beta, lo), math.sqrt(2.0) * beta, abs_tol=1e-9)

    def test_upper_end_tends_to_zero(self):
        beta = 1.0
        hi = math.log1p(math.exp(-beta))
        val = example_c1_margin_check(beta, hi - 1e-9)
        assert 0.0 < val < 1e-3

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            example_c1_margin_check(1.0, 0.9)


class TestBoundaryMassIdentity:
    def test_equals_inter_class_fraction_everywhere(self):
        for seed in range(6):
            g = build_sbm(2, [4, 5], 0.8, 0.15, seed=seed)
            assert abs(label_boundary_mass(g) - inter_class_fraction(g)) < 1e-10

    def test_rotated_minimizer_expected_error(self, disconnected_blocks):
        # uniform tie-breaking on the 45-degree rotation flips half a block
        q = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        f = exact_population_minimizer(disconnected_blocks, 2, q)
        masses = []
        for t in range(300):
            labels = hard_labels_stochastic(f, np.random.default_rng((9, t)))
            # one-hot scores of the tie-broken labels, whose argmax is those labels
            onehot = Prediction(scores=np.eye(2)[labels])
            masses.append(majority_label(onehot, disconnected_blocks).minority_mass)
        assert np.mean(masses) >= 0.25 - 0.05


# ---------------------------------------------------------------------------
# the stacked family audit against the frozen per-member loops


def _same_majority(got, want):
    assert np.array_equal(got.label, want.label)
    assert np.array_equal(got.minority_mask, want.minority_mask)
    assert np.array_equal(got.predicted, want.predicted)
    assert got.minority_mass == want.minority_mass  # bit for bit: deg[mask].sum() on both sides


def _outcome(audit, *args):
    """repr of an audit's record, or the type and message of what it raised."""
    try:
        return repr(audit(*args))
    except NumericError as exc:
        return (type(exc), str(exc))


def _check_stack_against_oracle(scores, g, c_hat=3.0):
    """The stacked labeling, halves condition, skeletons, margins, reasons and
    DAC errors of every member, and the theorem 1, 4 and 5 records, against
    the frozen per-member loops (repr is exact for floats)."""
    family = [Prediction(scores=s) for s in scores]
    maj = majority_labels(scores, g)
    skel = skeletons_and_margins(scores, maj)
    assert [r for r, _ in skel.skipped] == np.flatnonzero(~skel.applicable).tolist()
    for r, f in enumerate(family):
        want = oracle.majority_label(f, g)
        _same_majority(member_labeling(maj, r), want)
        assert maj.halves[r] == oracle.halves_condition(want, g)
        assert repr(member_skeleton(skel, r)) == repr(oracle.skeleton_and_margin(f, g))
        # and a member audited alone, as a stack of one, gets the same bits
        _same_majority(majority_label(f, g), want)
        assert repr(skeleton_and_margin(f, g)) == repr(oracle.skeleton_and_margin(f, g))
    want = oracle.theorem1_check(family, g)
    assert repr(theorem1_check(scores, g)) == repr(want)
    assert repr(theorem1_check(family, g)) == repr(want)
    for f in (family[0], family[-1]):
        # where the closed-form dual fails weak duality, both raise alike
        assert _outcome(theorem4_check, f, g, 0.0) == _outcome(oracle.theorem4_check, f, g, 0.0)
    aug = chain_augmentation(g)
    assert dac_error(maj.predicted, aug, g).tolist() == [oracle.dac_error(p, aug, g) for p in maj.predicted]
    assert repr(theorem5_check(scores, aug, g, c_hat)) == repr(oracle.theorem5_check(family, aug, g, c_hat))
    return skel


def _skip_reason_family():
    """Six members on six equal-mass vertices, classes [0, 0, 0, 1, 1, 1]: one
    per reachable skip reason, one whose clusters both tie (so that half of
    class 1 is minority), and one that passes."""
    halves = np.tile([1.0, 0.0], (6, 1))
    halves[5] = [0.0, 1.0]  # cluster 0 holds two class-1 vertices of three
    wrong = np.array([[2.0, 1.5], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    rank = np.array([[2.0, -3.0], [1.0, -4.0], [1.0, -4.0], [-2.0 / 3.0, 1.0], [-1.0, 0.5], [-1.0, 0.5]])
    margin = np.array([[3.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 4.9], [0.0, 1.0], [0.0, 1.0]])
    tie = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    clean = np.array([[2.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0], [0.0, 1.0]])
    return np.stack([halves, wrong, rank, margin, tie, clean])


def _half_class_family():
    """A 24-vertex graph whose class 0 is ten pairs of vertices with equal
    degrees, and three members on it: one whose minority is one vertex of
    each pair (exactly half of class 0, ten minority vertices), one whose
    skeleton rows are proportional, and one with a zero margin."""
    a = np.r_[np.arange(1, 11) / 7, np.arange(1, 11) / 7, np.full(4, 30 / 7)]
    labels = np.repeat([0, 1], [20, 4])
    g = hand_graph(np.outer(a, a), labels, 2)  # equal rows of equal a: equal degrees, bit for bit
    truth = np.eye(2)[labels]
    half = np.eye(2)[np.where(np.arange(24) < 10, 1, labels)] * (1 + np.arange(24) / 100)[:, None]
    rank = np.where(labels[:, None] == 0, [1.0, -4.0], [-1.0, 0.5])
    rank[0], rank[20] = [2.0, -3.0], [-2.0 / 3.0, 1.0]
    zero = truth.copy()
    zero[20] = [1.0, 1.0]  # a class-1 minority vertex as high on class 1 as the skeleton
    return g, np.stack([half, rank, zero])


class TestStackedAuditMatchesOracle:
    def test_every_skip_reason_and_tie(self):
        g = hand_graph(np.ones((6, 6)), [0, 0, 0, 1, 1, 1], 2)
        skel = _check_stack_against_oracle(_skip_reason_family(), g)
        reasons = [member_skeleton(skel, r).reason.split(" ")[0] for r in range(6)]
        assert reasons == ["minority", "skeleton", "skeleton", "non-positive", "minority", ""]
        assert "wrong class" in dict(skel.skipped)[1] and "rank-deficient" in dict(skel.skipped)[2]
        assert list(majority_labels(_skip_reason_family(), g).label[4]) == [0] * 6  # both ties go to class 0

    def test_exact_half_class_dependent_skeleton_and_zero_margin(self):
        g, scores = _half_class_family()
        maj = majority_labels(scores, g)
        assert maj.minority_mask[0].sum() == 10 and maj.minority_mask[0, :10].all()
        class_mass = g.degrees()[:20].sum()
        assert abs(maj.minority_mass[0] - class_mass / 2) < 1e-15  # half of class 0, up to rounding
        skel = _check_stack_against_oracle(scores, g)
        assert skel.applicable.tolist() == [True, False, False]
        assert skel.skipped == [(1, "skeleton matrix rank-deficient"), (2, "non-positive margin 0.0")]

    def test_no_non_minority_vertex(self, monkeypatch):
        # unreachable through majority labels (a minority of every vertex
        # breaks the halves condition), so the labeling is made by hand
        monkeypatch.setattr(oracle, "halves_condition", lambda maj, g: True)
        g = hand_graph(np.ones((4, 4)), [0, 0, 1, 1], 2)
        scores = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        f = Prediction(scores=scores)
        real = oracle.majority_label(f, g)
        maj = oracle.MajorityLabeling(label=1 - g.labels, minority_mask=np.ones(4, dtype=bool), minority_mass=1.0,
                                      predicted=real.predicted)
        stacked = clustering_audit.MajorityLabeling(
            label=maj.label[None], minority_mask=maj.minority_mask[None], minority_mass=np.ones(1),
            predicted=maj.predicted[None], halves=np.ones(1, dtype=bool),
        )
        got = member_skeleton(skeletons_and_margins(scores[None], stacked), 0)
        assert got.reason == "no non-minority vertices"
        assert repr(got) == repr(oracle.skeleton_and_margin(f, g, maj))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_stacks(self, data):
        n = data.draw(st.integers(2, 9), label="n")
        C = data.draw(st.integers(1, min(3, n)), label="C")
        labels = list(range(C)) + data.draw(st.lists(st.integers(0, C - 1), min_size=n - C,
                                                     max_size=n - C), label="labels")
        # equal weights half the time, so that class masses tie within clusters
        top = data.draw(st.sampled_from([0, 3]), label="top")
        upper = data.draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n), label="w")
        w = np.triu(np.reshape(upper, (n, n)).astype(float))
        w = w + w.T + np.eye(n)  # self-loops keep every degree positive
        g = hand_graph(w, labels, C)
        R = data.draw(st.integers(1, 64), label="R")
        K = data.draw(st.integers(1, 3), label="K")
        # few distinct values, so argmax, mass and margin ties and
        # rank-deficient skeletons are common
        value = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
        flat = data.draw(st.lists(value, min_size=R * n * K, max_size=R * n * K), label="scores")
        c_hat = data.draw(st.sampled_from([None, 0.5, 1.5, 3.0]), label="c_hat")
        _check_stack_against_oracle(np.reshape(flat, (R, n, K)), g, c_hat)

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_stacked_rotations_match_sequential_draws(self, K):
        stacked, sequential = np.random.default_rng(K), np.random.default_rng(K)
        for count in (1, 3, 20):
            q = random_rotations(K, count, stacked)
            assert np.array_equal(q, np.stack([oracle.random_rotation(K, sequential) for _ in range(count)]))
        assert stacked.bit_generator.state == sequential.bit_generator.state
        assert np.array_equal(random_rotation(K, stacked), oracle.random_rotation(K, sequential))

    @pytest.mark.parametrize("sizes", [[5, 5], [4, 3, 5]])
    def test_minimizer_family_matches_per_rotation_builds(self, sizes):
        g = lazy_graph(build_sbm(len(sizes), sizes, 0.9, 0.1, seed=2))
        K = len(sizes)
        q = random_rotations(K, 21, np.random.default_rng(5))
        family = population_minimizers(g, K, q)
        for member, rotation in zip(family, q):
            assert np.array_equal(member, exact_population_minimizer(g, K, rotation).scores)
        _check_stack_against_oracle(family, g)

    def test_one_bad_rotation_rejects_the_family(self, sbm_pair):
        q = random_rotations(2, 4, np.random.default_rng(0))
        q[2, 0, 0] += 1e-6
        with pytest.raises(DomainError, match="orthogonal"):
            population_minimizers(sbm_pair, 2, q)
