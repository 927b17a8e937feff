import math

import numpy as np
import pytest

from rkdlab.dac_expansion import (
    C_HAT_CAP,
    COMPONENT_SUBSET_CAP,
    MASS_TOL,
    AugmentationMap,
    EXHAUSTIVE_SUBSET_CAP,
    chain_augmentation,
    constant_expansion_check,
    dac_error,
    estimate_c_expansion,
    expansion_implication_check,
    knn_augmentation,
    load_augmentation,
    make_augmentation,
    theorem5_check,
)
from rkdlab.errors import DomainError, InvalidAugmentationError, InvalidConfigError
from rkdlab.graph_core import PopulationGraph, build_sbm, lazy_graph
from rkdlab.spectral_rkd import Prediction

from conftest import hand_graph
from oracles import neighborhoods, save_augmentation


def uniform_graph(labels):
    n = len(labels)
    return hand_graph(np.ones((n, n)), labels, max(labels) + 1)


class TestAugmentationValidation:
    def test_missing_self_rejected(self):
        g = uniform_graph([0, 0, 1, 1])
        with pytest.raises(InvalidAugmentationError, match="own augmentation"):
            make_augmentation([{1}, {1, 0}, {2, 3}, {3, 2}], g)

    def test_bare_singleton_rejected_when_strict(self):
        g = uniform_graph([0, 0, 1, 1])
        with pytest.raises(InvalidAugmentationError, match="singleton"):
            make_augmentation([{0}, {1, 0}, {2, 3}, {3, 2}], g)

    def test_class_crossing_rejected(self):
        g = uniform_graph([0, 0, 1, 1])
        with pytest.raises(InvalidAugmentationError, match="class boundary"):
            make_augmentation([{0, 2}, {1, 0}, {2, 3}, {3, 2}], g)

    def test_chain_links_each_vertex_to_the_next_of_its_class(self):
        # interleaved classes, and class 2 of one vertex, whose set is its bare self
        aug = chain_augmentation(uniform_graph([1, 0, 2, 1, 0, 1]))
        assert aug.sets == ({0, 3}, {1, 4}, {2}, {3, 5}, {4, 1}, {5, 0})

    def test_file_round_trip(self, tmp_path):
        g = uniform_graph([0, 0, 1, 1])
        aug = chain_augmentation(g)
        save_augmentation(aug, tmp_path / "aug.json")
        loaded = load_augmentation(tmp_path / "aug.json", g)
        assert loaded.sets == aug.sets

    def test_loaded_singleton_rejected(self, tmp_path):
        g = uniform_graph([0, 0, 1, 1])
        save_augmentation(AugmentationMap(({0}, {1, 0}, {2, 3}, {3, 2})), tmp_path / "aug.json")
        with pytest.raises(InvalidAugmentationError, match="singleton"):
            load_augmentation(tmp_path / "aug.json", g)

    def test_loaded_sets_must_cover_the_vertex_set(self, tmp_path):
        save_augmentation(chain_augmentation(uniform_graph([0, 0, 1, 1])), tmp_path / "aug.json")
        with pytest.raises(InvalidAugmentationError, match="4 augmentation sets for 6 vertices"):
            load_augmentation(tmp_path / "aug.json", uniform_graph([0, 0, 0, 1, 1, 1]))

    @pytest.mark.parametrize("points,k,message", [
        (None, 2, "knn augmentation needs point coordinates"),
        (np.zeros((4, 2)), 1.5, "augmentation.k=1.5 must be an integer"),
    ], ids=["no-points", "fractional-k"])
    def test_knn_arguments(self, points, k, message):
        with pytest.raises(InvalidConfigError, match=message):
            knn_augmentation(uniform_graph([0, 0, 1, 1]), points, k)


class TestNeighborhoods:
    def test_cycle_chain_neighborhood(self):
        # one class of four on a cycle with A(x) = {x, next}
        g = uniform_graph([0, 0, 0, 0, 1, 1])
        sets = [{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 4}]
        nb = neighborhoods(make_augmentation(sets, g))
        assert nb.members[1] == frozenset({0, 1, 2})

    def test_disjoint_sets_are_not_neighbors(self):
        g = uniform_graph([0, 0, 0, 0, 1, 1])
        sets = [{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}]
        nb = neighborhoods(make_augmentation(sets, g))
        assert 2 not in nb.members[0]

    def test_symmetric_reflexive_and_class_confined(self, sbm_pair):
        aug = chain_augmentation(sbm_pair)
        nb = neighborhoods(aug)
        for x in range(sbm_pair.size):
            assert x in nb.members[x]
            for x2 in nb.members[x]:
                assert x in nb.members[x2]
        for k in range(sbm_pair.num_classes):
            members = set(int(v) for v in sbm_pair.class_members(k))
            assert nb.of_set(members) <= members


class TestCExpansion:
    def test_chain_on_class_expands(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        report = estimate_c_expansion(chain_augmentation(g), g)
        assert report.exhaustive
        assert report.c_hat > 1.0

    def test_full_class_augmentation_is_unbounded(self):
        g = uniform_graph([0, 0, 0, 1, 1, 1])
        sets = [set(range(3))] * 3 + [set(range(3, 6))] * 3
        report = estimate_c_expansion(make_augmentation(sets, g), g)
        assert report.exhaustive
        assert report.c_hat == C_HAT_CAP

    def test_isolated_subcliques_fail_expansion(self):
        # one class split into two augmentation-isolated halves
        g = uniform_graph([0] * 8 + [1] * 4)
        sets = (
            [{0, 1}, {1, 0}, {2, 3}, {3, 2}][0:2]
            + [{2, 3}, {3, 2}]
            + [{4, 5}, {5, 4}, {6, 7}, {7, 6}]
            + [{8, 9}, {9, 8}, {10, 11}, {11, 10}]
        )
        report = estimate_c_expansion(make_augmentation(sets, g), g)
        assert report.c_hat <= 1.0

    def test_monotone_under_enlargement(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        small = chain_augmentation(g)
        bigger_sets = [set(s) | {sorted(s)[0] + 2 if sorted(s)[0] + 2 < 6 else 0} if i < 6 else set(s)
                       for i, s in enumerate(small.sets)]
        # enlarge only within the first class, staying class-invariant
        bigger_sets = []
        for i, s in enumerate(small.sets):
            s = set(s)
            if i < 6:
                s.add((i + 2) % 6)
            else:
                s.add(6 + ((i - 6 + 2) % 6))
            bigger_sets.append(s)
        bigger = make_augmentation(bigger_sets, g)
        small_c = estimate_c_expansion(small, g).c_hat
        big_c = estimate_c_expansion(bigger, g).c_hat
        assert big_c >= small_c

    def test_component_above_cap_is_a_report(self):
        g = lazy_graph(build_sbm(2, [21, 4], 0.9, 0.1, seed=0))
        report = estimate_c_expansion(chain_augmentation(g), g)
        assert (report.c_hat, report.checked_subsets, report.exhaustive) == (None, 0, False)
        assert report.reason == f"NB component of 21 vertices exceeds the exhaustive cap {COMPONENT_SUBSET_CAP}"

    def test_component_at_cap_is_enumerated(self):
        g = lazy_graph(build_sbm(2, [COMPONENT_SUBSET_CAP, 4], 0.9, 0.1, seed=0))
        report = estimate_c_expansion(chain_augmentation(g), g)
        assert report.exhaustive and report.reason == ""
        assert 1.0 < report.c_hat < C_HAT_CAP

    def test_graph_above_whole_graph_cap_with_small_components(self):
        # 40 vertices in ten augmentation-isolated chains of four
        g = uniform_graph([0] * 20 + [1] * 20)
        sets = [{x, 4 * (x // 4) + (x + 1) % 4} for x in range(g.size)]
        report = estimate_c_expansion(make_augmentation(sets, g), g)
        assert report.c_hat == 1.0
        assert report.checked_subsets == 10 * 15  # every nonempty subset of each chain


def nb_components(aug):
    """Connected components of the NB relation by search over neighborhoods()."""
    nb = neighborhoods(aug)
    seen, comps = set(), []
    for start in range(aug.size):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend(nb.members[x] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def brute_force_c_hat(aug, g):
    """The c-expansion definition over every subset of the whole graph."""
    n, K = g.size, g.num_classes
    nb = neighborhoods(aug)
    adj = np.array([[x2 in nb.members[x] for x2 in range(n)] for x in range(n)], dtype=float)
    codes = np.arange(1, 1 << n)
    bits = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    class_deg = (g.degrees() * (g.labels[None, :] == np.arange(K)[:, None])).T
    s_mass = bits @ class_deg
    nb_mass = ((bits @ adj) > 0).astype(float) @ class_deg
    totals = g.class_masses()
    qualifying = np.all(s_mass <= totals / 2 + MASS_TOL, axis=1)
    c_hat = C_HAT_CAP
    for k in range(K):
        sel = qualifying & (s_mass[:, k] > MASS_TOL) & (nb_mass[:, k] < totals[k] - MASS_TOL)
        if sel.any():
            c_hat = min(c_hat, float((nb_mass[sel, k] / s_mass[sel, k]).min()))
    return c_hat


def random_class_invariant_map(rng):
    """A random weighted graph on <= 12 vertices with a class-invariant map.

    Half the maps cut every class into three random groups, so a class often
    splits into several NB components.  Sets are cyclic chains inside a group
    plus random extra peers; one in ten is a bare singleton.
    """
    n = int(rng.integers(4, 13))
    K = int(rng.integers(2, 4))
    labels = rng.permutation(np.arange(n) % K)
    w = rng.random((n, n))
    g = hand_graph(w + w.T, labels, K)
    group = rng.integers(0, 3, size=n) if rng.random() < 0.5 else np.zeros(n, dtype=int)
    sets = [None] * n
    for k in range(K):
        for grp in range(3):
            peers = [int(v) for v in np.nonzero((labels == k) & (group == grp))[0]]
            for i, x in enumerate(peers):
                if rng.random() < 0.1:
                    sets[x] = {x}
                else:
                    sets[x] = {x, peers[(i + 1) % len(peers)]} | {v for v in peers if rng.random() < 0.2}
    return g, AugmentationMap(sets)  # singleton sets too: not a map make_augmentation accepts


class TestCExpansionOracle:
    def test_matches_whole_graph_brute_force(self):
        rng = np.random.default_rng(7)
        split = finite = 0
        for _ in range(120):
            g, aug = random_class_invariant_map(rng)
            if len(nb_components(aug)) > g.num_classes:
                split += 1  # some class holds more than one component
            want = brute_force_c_hat(aug, g)
            finite += 1.0 < want < C_HAT_CAP
            got = estimate_c_expansion(aug, g).c_hat
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)
        assert split >= 40 and finite >= 25


class TestDacError:
    def test_component_constant_prediction_has_zero_error(self):
        g = uniform_graph([0, 0, 0, 1, 1, 1])
        aug = chain_augmentation(g)
        f = Prediction(scores=np.eye(2)[g.labels].astype(float))
        assert dac_error(f.hard_labels(), aug, g) == 0.0

    def test_single_crossing_vertex_mass(self):
        # only vertex 0 (mass 0.2) sees a disagreeing member in its own set
        w = np.diag([2.0, 2.0, 2.0, 2.0, 2.0])
        g = PopulationGraph(vertices=tuple(range(5)), weights=w / w.sum(),
                            labels=[0, 0, 0, 1, 1], num_classes=2)
        aug = make_augmentation([{0, 1}, {1, 2}, {2, 1}, {3, 4}, {4, 3}], g)
        scores = np.eye(2)[[0, 1, 1, 1, 1]].astype(float)
        f = Prediction(scores=scores)
        assert math.isclose(dac_error(f.hard_labels(), aug, g), 0.2, abs_tol=1e-12)


class TestTheorem5:
    def test_zero_dac_error_forces_zero_clustering_error(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        aug = chain_augmentation(g)
        f = Prediction(scores=np.eye(2)[g.labels].astype(float))
        c_hat = estimate_c_expansion(aug, g).c_hat
        record = theorem5_check([f], aug, g, c_hat)
        assert record == {"verdict": "pass", "mu": 0.0, "bound": 0.0, "c_hat": c_hat, "nu": 0.0}

    def test_single_inconsistent_vertex_fixture(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        aug = chain_augmentation(g)
        scores = np.eye(2)[g.labels].astype(float)
        scores[2] = [0.0, 1.0]
        record = theorem5_check([Prediction(scores=scores)], aug, g, estimate_c_expansion(aug, g).c_hat)
        assert record["verdict"] == "pass"
        assert record["mu"] <= record["bound"] + 1e-9

    def test_bound_scales_family_max_dac_error(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        aug = chain_augmentation(g)
        fam = []
        for flipped in ([2], [2, 8]):
            scores = np.eye(2)[g.labels].astype(float)
            scores[flipped] = scores[flipped][:, ::-1]
            fam.append(Prediction(scores=scores))
        nus = [dac_error(f.hard_labels(), aug, g) for f in fam]
        assert nus[0] < nus[1]
        c_hat = estimate_c_expansion(aug, g).c_hat
        record = theorem5_check(fam, aug, g, c_hat)
        assert record["nu"] == max(nus)
        assert record["bound"] == max(2.0 / (c_hat - 1.0), 2.0) * max(nus)
        assert record["verdict"] == "pass"

    def test_twenty_random_thresholded_predictors(self):
        g = uniform_graph([0] * 7 + [1] * 7)
        aug = chain_augmentation(g)
        rng = np.random.default_rng(12)
        fam = []
        for _ in range(20):
            flips = rng.random(g.size) < 0.12
            scores = np.eye(2)[np.where(flips, 1 - g.labels, g.labels)].astype(float)
            fam.append(Prediction(scores=scores))
        record = theorem5_check(fam, aug, g, estimate_c_expansion(aug, g).c_hat)
        assert record["verdict"] in ("pass", "not-applicable: every member skipped")

    def test_component_above_cap_is_marker(self):
        g = uniform_graph([0] * 21 + [1] * 3)
        f = Prediction(scores=np.eye(2)[g.labels].astype(float))
        aug = chain_augmentation(g)
        report = estimate_c_expansion(aug, g)
        assert (report.c_hat, report.checked_subsets, report.exhaustive) == (None, 0, False)
        assert report.reason == f"NB component of 21 vertices exceeds the exhaustive cap {COMPONENT_SUBSET_CAP}"
        record = theorem5_check([f], aug, g, report.c_hat)
        assert record == {"verdict": "not-applicable: component above the exhaustive cap", "mu": None,
                          "bound": None, "c_hat": None, "nu": None}

    def test_bound_reads_the_callers_c_hat(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        aug = chain_augmentation(g)
        scores = np.eye(2)[g.labels].astype(float)
        scores[2] = [0.0, 1.0]
        f = Prediction(scores=scores)
        nu = dac_error(f.hard_labels(), aug, g)
        for c_hat in (estimate_c_expansion(aug, g).c_hat, 1.5, 1.25, 3.0):
            record = theorem5_check([f], aug, g, c_hat)
            assert record["bound"] == max(2.0 / (c_hat - 1.0), 2.0) * nu
            assert (record["verdict"], record["c_hat"]) == ("pass", c_hat)

    def test_callers_c_hat_at_most_one_is_marker(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        aug = chain_augmentation(g)
        f = Prediction(scores=np.eye(2)[g.labels].astype(float))
        record = theorem5_check([f], aug, g, 1.0)
        assert record == {"verdict": "bound-undefined: c_hat=1.0 <= 1", "mu": None, "bound": None, "c_hat": 1.0,
                          "nu": None}

    def test_empty_family_rejected_with_or_without_a_c_hat(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        aug = chain_augmentation(g)
        for c_hat in (estimate_c_expansion(aug, g).c_hat, None):
            with pytest.raises(DomainError, match="empty"):
                theorem5_check([], aug, g, c_hat)

    def test_failed_expansion_is_marker(self):
        g = uniform_graph([0, 0, 0, 0, 1, 1])
        sets = [{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}]
        aug = make_augmentation(sets, g)
        f = Prediction(scores=np.eye(2)[g.labels].astype(float))
        record = theorem5_check([f], aug, g, estimate_c_expansion(aug, g).c_hat)
        assert record["verdict"].startswith("bound-undefined")


class TestConstantExpansion:
    def test_full_class_augmentation_expands(self):
        g = uniform_graph([0, 0, 0, 1, 1, 1])
        sets = [set(range(3))] * 3 + [set(range(3, 6))] * 3
        aug = make_augmentation(sets, g)
        assert constant_expansion_check(aug, g, q=0.1, xi=0.2)

    def test_failure_fixture_fails_for_small_q(self):
        g = uniform_graph([0, 0, 0, 0, 1, 1])
        sets = [{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}]
        aug = make_augmentation(sets, g)
        assert not constant_expansion_check(aug, g, q=0.1, xi=0.05)

    def test_graph_above_the_whole_graph_cap_raises(self):
        g = uniform_graph([0] * 10 + [1] * 9)
        with pytest.raises(DomainError, match=f"19 exceeds the exhaustive cap {EXHAUSTIVE_SUBSET_CAP}"):
            constant_expansion_check(chain_augmentation(g), g, q=0.1, xi=0.1)

    def test_shared_table_probes_match_per_probe_checks(self):
        rng = np.random.default_rng(3)
        fixtures = [random_class_invariant_map(rng) for _ in range(40)]
        for sizes, seed in (([6, 6], 0), ([9, 9], 3)):
            g = lazy_graph(build_sbm(2, sizes, 0.9, 0.05, seed=seed))
            fixtures.append((g, chain_augmentation(g)))
        probed = set()
        for g, aug in fixtures:
            report = estimate_c_expansion(aug, g)
            c_hat = report.c_hat
            result = expansion_implication_check(aug, g, report)
            if not result["applicable"]:
                continue
            c_eff = c_hat * (1.0 - 1e-9) if math.isfinite(c_hat) else C_HAT_CAP
            for xi, got in result["probes"].items():
                assert got == constant_expansion_check(aug, g, q=xi / (c_eff - 1.0), xi=xi)
            probed.add(g.size)
        assert 18 in probed and len(probed) >= 5

    def test_implication_probes_pass_on_expanding_fixture(self):
        g = uniform_graph([0] * 6 + [1] * 6)
        aug = chain_augmentation(g)
        result = expansion_implication_check(aug, g, estimate_c_expansion(aug, g))
        assert result["applicable"]
        assert all(result["probes"].values())
