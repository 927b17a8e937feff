import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkdlab.clustering_audit import (
    LP_AGREEMENT_TOL,
    LP_ENUMERATION_CAP,
    example_c1_margin_check,
    label_boundary_mass,
    lemma_c1_check,
    lp_bound_oracle,
    lp_dual_value,
    lp_lagrangian_dual,
    lp_primal_enumerate,
    lp_primal_greedy,
    majority_label,
    margin_prefactor,
    skeleton_and_margin,
    theorem1_check,
    theorem4_check,
)
from rkdlab.errors import DomainError, NumericError
from rkdlab.graph_core import build_sbm, inter_class_fraction, lazy_graph, spectral_decompose
from rkdlab.spectral_rkd import (
    OptimizerConfig,
    Prediction,
    StudentModel,
    exact_population_minimizer,
    random_rotation,
    train_student,
)
from rkdlab.teacher_kernel import KernelSpec

from conftest import hand_graph


def onehot_prediction(g):
    return Prediction(scores=np.eye(g.num_classes)[g.labels].astype(float))


class TestMajorityLabel:
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

    def test_tie_goes_to_smallest_class_and_is_recorded(self):
        g = hand_graph(np.ones((4, 4)), [0, 0, 1, 1], 2)
        f = Prediction(scores=np.tile([1.0, 0.0], (4, 1)))
        maj = majority_label(f, g)
        assert list(maj.label) == [0, 0, 0, 0]
        assert maj.ties == (0,)

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
        assert all(math.isinf(gk) for gk in rep.gammas)
        assert margin_prefactor(rep.beta, rep.gamma) == 1.0

    def test_duplicate_rows_fail_rank(self):
        g = hand_graph(np.ones((4, 4)), [0, 0, 1, 1], 2)
        scores = np.array([[1.0, 0.5], [1.0, 0.5], [2.0, 1.0], [2.0, 1.0]])
        rep = skeleton_and_margin(Prediction(scores=scores), g)
        assert not rep.rank_ok
        assert not rep.applicable

    def test_halves_violation_is_marker_not_exception(self):
        g = hand_graph(np.ones((4, 4)), [0, 0, 1, 1], 2)
        f = Prediction(scores=np.tile([1.0, 0.0], (4, 1)))  # everything one cluster
        rep = skeleton_and_margin(f, g)
        assert not rep.applicable
        assert "half" in rep.reason


class TestTheorem1:
    def test_disconnected_blocks_bound_zero_pass(self, disconnected_blocks):
        fam = [exact_population_minimizer(disconnected_blocks, 2)]
        report = theorem1_check(fam, disconnected_blocks)
        assert report.verdicts["thm1"] == "pass"
        assert report.bound_thm1 == 0.0
        assert report.mu == 0.0

    def test_fifty_random_rotations_pass(self, sbm_pair):
        rng = np.random.default_rng(17)
        fam = [exact_population_minimizer(sbm_pair, 2, random_rotation(2, rng)) for _ in range(50)]
        report = theorem1_check(fam, sbm_pair)
        assert report.verdicts["thm1"] == "pass"
        assert len(report.skipped) < len(fam)

    def test_precondition_violators_are_skipped_not_failed(self, sbm_pair):
        constant = Prediction(scores=np.tile([1.0, 0.0], (sbm_pair.size, 1)))
        fam = [exact_population_minimizer(sbm_pair, 2), constant]
        report = theorem1_check(fam, sbm_pair)
        assert report.verdicts["thm1"] == "pass"
        assert len(report.skipped) == 1

    def test_monte_carlo_sbm_audit(self):
        for seed in range(10):
            g = lazy_graph(build_sbm(2, [5, 5], 0.9, 0.1, seed=seed))
            rng = np.random.default_rng(seed)
            fam = [exact_population_minimizer(g, 2, random_rotation(2, rng)) for _ in range(3)]
            report = theorem1_check(fam, g)
            assert report.verdicts["thm1"] != "fail"

    def test_report_serializable(self, sbm_pair):
        report = theorem1_check([exact_population_minimizer(sbm_pair, 2)], sbm_pair)
        payload = report.to_dict()
        assert set(payload) >= {"mu", "alpha", "lambdas", "beta", "gamma", "verdicts"}


class TestTheorem4:
    def test_zero_delta_reduces_to_theorem1(self, sbm_pair):
        f = exact_population_minimizer(sbm_pair, 2)
        r4 = theorem4_check(f, sbm_pair, Delta=0.0, K0=2)
        r1 = theorem1_check([f], sbm_pair)
        assert r4.verdicts["thm4"] == "pass"
        assert math.isclose(r4.bound_thm4, r1.bound_thm1, rel_tol=1e-12)

    def test_negative_dual_denominator_is_bound_undefined(self):
        # a non-lazy path on four vertices has eigenvalues 0, 0.5, 1.5, 2: with
        # K = K0 = 3, (1 - 1.5)^2 - (1 - 2)^2 < 0 although 1.5 < 2, and the
        # closed-form dual was -0 below the LP optimum 1
        g = hand_graph(np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1), [0, 0, 1, 1], 2)
        f = Prediction(scores=np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 2.0]]))
        audit = theorem4_check(f, g, Delta=0.0, K0=3)
        assert audit.verdicts["thm4"].startswith("bound-undefined: (1 - lambda_K0)^2=0.25")
        assert "(1 - lambda_K+1)^2=0.99" in audit.verdicts["thm4"]
        assert audit.bound_thm4 is None and audit.lp_dual is None

    def test_trained_student_passes(self):
        g = lazy_graph(build_sbm(2, [5, 5], 0.9, 0.05, seed=21))
        model = StudentModel.initialize("table", (g.size, 2), seed=3)
        trained, report = train_student(
            model, g, KernelSpec.graph_revealing(),
            OptimizerConfig(step_size=0.3, iterations=3000, seed=0, momentum=0.9),
        )
        pred = trained.prediction()
        delta = max(report.gap, 0.0)
        audit = theorem4_check(pred, g, Delta=delta, K0=2)
        assert audit.verdicts["thm4"] in ("pass", "not-applicable: skeleton matrix rank-deficient",
                                          "not-applicable: prediction not surjective")
        if audit.verdicts["thm4"] == "pass":
            assert audit.mu <= audit.bound_thm4 + 1e-9

    def test_oversized_delta_is_marker(self, sbm_pair):
        f = exact_population_minimizer(sbm_pair, 2)
        dec = spectral_decompose(sbm_pair)
        too_big = (1.0 - dec.eigenvalues[1]) ** 2 + 1.0
        report = theorem4_check(f, sbm_pair, Delta=too_big, K0=2)
        assert report.verdicts["thm4"].startswith("bound-undefined")
        assert report.bound_thm4 is None


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
            labels = f.hard_labels_stochastic(np.random.default_rng((9, t)))
            masses.append(majority_label(f, disconnected_blocks, predicted=labels).minority_mass)
        assert np.mean(masses) >= 0.25 - 0.05
