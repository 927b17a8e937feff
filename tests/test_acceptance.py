"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; a failure in this module is a build stopper.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time

import numpy as np

from rkdlab.clustering_audit import (
    lp_dual_value,
    lp_lagrangian_dual,
    lp_primal_greedy,
    majority_labels,
    theorem1_check,
    theorem4_check,
)
from rkdlab.dac_expansion import (
    chain_augmentation,
    estimate_c_expansion,
    expansion_implication_check,
    make_augmentation,
    theorem5_check,
)
from rkdlab.graph_core import (
    PopulationGraph,
    build_sbm,
    build_two_blobs,
    inter_class_fraction,
    lazy_graph,
    spectral_decompose,
)
from rkdlab.label_acquisition import (
    check_non_degenerate,
    stochastic_greedy,
    theorem3_check,
)
from rkdlab.spectral_rkd import (
    OptimizerConfig,
    Prediction,
    StudentModel,
    _PairLoss,
    check_gradient,
    population_rkd_loss,
    train_student,
)
from rkdlab.ssl_harness import ExperimentConfig, run_experiment
from rkdlab.teacher_kernel import KernelSpec, TeacherEmbedding, kernel_matrix

from oracles import (
    coverage_rate,
    draw_pairs,
    exact_pair_expectation,
    exact_population_minimizer,
    example_c1_margin_check,
    exhaustive_best_subset,
    facility_location_value,
    full_greedy,
    hard_labels_stochastic,
    label_boundary_mass,
    mean_draws_to_cover,
    random_rotation,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def uniform_graph(labels):
    labels = list(labels)
    n = len(labels)
    w = np.ones((n, n)) / n**2
    return PopulationGraph(vertices=tuple(range(n)), weights=w,
                           labels=labels, num_classes=max(labels) + 1)


def onehot(g, labels=None):
    labels = g.labels if labels is None else np.asarray(labels)
    return Prediction(scores=np.eye(g.num_classes)[labels].astype(float))


def small_fixture_pool(count, max_size=10):
    """Mixed graphs of at most max_size vertices, deterministic."""
    pool = []
    seed = 0
    while len(pool) < count:
        kind = len(pool) % 3
        if kind == 0:
            pool.append(build_sbm(2, [3 + seed % 2, 3 + (seed + 1) % 2], 0.9, 0.2, seed=seed))
        elif kind == 1:
            pool.append(lazy_graph(build_sbm(2, [4, 4], 0.85, 0.15, seed=seed)))
        else:
            g, _ = build_two_blobs(4, separation=4.0, noise=0.5, bandwidth=1.0, seed=seed)
            pool.append(g)
        seed += 1
    return pool[:count]


def test_criterion_01_unbiasedness():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(0)
    for g in small_fixture_pool(20, max_size=10):
        assert g.size <= 10
        f = Prediction(scores=0.5 * rng.standard_normal((g.size, 2)))
        kern = kernel_matrix(KernelSpec.graph_revealing(), g)
        exact = exact_pair_expectation(f, kern, g)
        population = population_rkd_loss(f, g)
        worst = max(worst, abs(exact - population))
    elapsed = time.time() - t0
    verdict(1, worst <= 1e-9 and elapsed < 1.0,
            f"exact pair expectation vs population loss, worst |diff|={worst:.3e} on 20 fixtures "
            f"({elapsed:.2f}s < 1s)")


def test_criterion_02_eckart_young():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    best_search_margin = math.inf
    fixtures = [lazy_graph(build_sbm(2, [5, 5], 0.9, 0.1, seed=s)) for s in range(6)]
    fixtures += [build_two_blobs(5, seed=s)[0] for s in range(4)]
    for g in fixtures:
        dec = spectral_decompose(g)
        assert dec.eigenvalues[-1] <= 1.0 + 1e-10  # PSD fixture
        floor = dec.residual_weights(2)
        f = exact_population_minimizer(g, 2, random_rotation(2, rng))
        worst_gap = max(worst_gap, abs(population_rkd_loss(f, g) - floor))
    g = fixtures[0]
    floor = spectral_decompose(g).residual_weights(2)
    for _ in range(1000):
        cand = Prediction(scores=rng.standard_normal((g.size, 2)) * rng.uniform(0.2, 1.5))
        best_search_margin = min(best_search_margin, population_rkd_loss(cand, g) - floor)
    elapsed = time.time() - t0
    verdict(2, worst_gap <= 1e-8 and best_search_margin >= -1e-8 and elapsed < 10.0,
            f"minimizer loss hits the tail energy (worst gap {worst_gap:.2e}); 1000-candidate "
            f"search margin {best_search_margin:.2e} >= -1e-8 ({elapsed:.2f}s < 10s)")


def test_criterion_03_boundary_mass_identity():
    t0 = time.time()
    worst = 0.0
    count = 0
    for seed in range(30):
        for g in (build_sbm(2, [4, 5], 0.8, 0.15, seed=seed),
                  lazy_graph(build_sbm(3, [3, 3, 3], 0.9, 0.1, seed=seed))):
            worst = max(worst, abs(label_boundary_mass(g) - inter_class_fraction(g)))
            count += 1
    elapsed = time.time() - t0
    verdict(3, worst <= 1e-10 and count >= 50 and elapsed < 1.0,
            f"label quadratic form equals inter-class fraction, worst |diff|={worst:.3e} "
            f"on {count} fixtures ({elapsed:.2f}s < 1s)")


def test_criterion_04_population_bound_audit():
    t0 = time.time()
    passes = 0
    fails = []
    seed = 0
    while passes + len(fails) < 100 and seed < 300:
        g = lazy_graph(build_sbm(2, [5 + seed % 3, 5 + (seed // 3) % 3], 0.85, 0.08, seed=seed))
        rng = np.random.default_rng((1000, seed))
        fam = [exact_population_minimizer(g, 2, random_rotation(2, rng)) for _ in range(3)]
        report = theorem1_check(fam, g)
        if report["verdict"] == "pass":
            passes += 1
        elif report["verdict"] == "fail":
            fails.append(seed)
        seed += 1
    elapsed = time.time() - t0
    verdict(4, passes == 100 and not fails and elapsed < 30.0,
            f"population clustering bound holds on {passes}/100 qualifying seeded fixtures, "
            f"fails={fails} ({elapsed:.2f}s < 30s)")


def test_criterion_05_empirical_bound_lp_and_trained_students():
    t0 = time.time()
    rng = np.random.default_rng(5)
    checked = 0
    worst_disagreement = 0.0
    worst_duality = -math.inf
    while checked < 500:
        n = int(rng.integers(5, 30))
        lam = np.sort(rng.uniform(0.0, 1.0, size=n))
        lam[0] = 0.0
        K = int(rng.integers(1, 5))
        if K >= n or lam[K] - lam[K - 1] < 1e-3:
            continue
        K0 = int(rng.integers(1, K + 1))
        if not lam[K0 - 1] < lam[K] - 1e-9:
            continue
        delta = float(rng.uniform(0.0, 0.9) * (1.0 - lam[K - 1]) ** 2)
        lagrangian = lp_lagrangian_dual(lam, K, delta)
        greedy = lp_primal_greedy(lam, K, delta)
        dual = lp_dual_value(lam, K, K0, delta)
        worst_disagreement = max(worst_disagreement, abs(float(lagrangian - greedy)))
        worst_duality = max(worst_duality, float(greedy) - dual)
        checked += 1

    audited = 0
    fails = []
    seed = 0
    while audited < 20 and seed < 60:
        g = lazy_graph(build_sbm(2, [5, 5], 0.9, 0.06, seed=seed))
        model = StudentModel.initialize("table", (g.size, 2), seed=seed + 500)
        trained, rep = train_student(
            model, g, kernel_matrix(KernelSpec.graph_revealing(), g),
            OptimizerConfig(step_size=0.3, iterations=2500, seed=seed, momentum=0.9),
        )
        audit = theorem4_check(trained.prediction(), g, Delta=max(rep.gap, 0.0))
        if audit["verdict"] == "pass":
            audited += 1
        elif audit["verdict"] == "fail":
            fails.append(seed)
        seed += 1
    elapsed = time.time() - t0
    verdict(5, worst_disagreement <= 1e-9 and worst_duality <= 1e-9 and audited == 20
            and not fails and elapsed < 60.0,
            f"LP solvers agree (worst {worst_disagreement:.2e}) and respect the closed-form dual "
            f"(worst primal-dual {worst_duality:.2e}) on 500 spectra; empirical bound passes on "
            f"{audited}/20 trained students, fails={fails} ({elapsed:.1f}s < 60s)")


def test_criterion_06_rotation_pitfall_and_margin_formula():
    t0 = time.time()
    g = build_sbm(2, [4, 4], p_in=1.0, p_out=0.0, seed=7)
    q45 = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
    f = exact_population_minimizer(g, 2, q45)
    # one-hot scores of the tie-broken labels, whose argmax is those labels
    labels = np.stack([hard_labels_stochastic(f, np.random.default_rng((6, t))) for t in range(10000)])
    masses = np.array([maj.minority_mass for maj in majority_labels(np.eye(2)[labels], g)])
    mean_mu = float(masses.mean())

    margin_errs = [
        abs(example_c1_margin_check(beta, math.log1p(math.exp(-math.sqrt(2.0) * beta)))
            - math.sqrt(2.0) * beta)
        for beta in (0.5, 1.0, 2.0)
    ]
    elapsed = time.time() - t0
    verdict(6, mean_mu >= 0.25 - 0.02 and max(margin_errs) <= 1e-9 and elapsed < 5.0,
            f"rotated-minimizer expected clustering error {mean_mu:.4f} >= 0.23 over 1e4 "
            f"tie-break seeds; margin formula error {max(margin_errs):.2e} ({elapsed:.1f}s < 5s)")


def _theorem5_fixtures():
    """At least 10 exhaustive fixtures, including a designed near-tight one."""
    fixtures = []
    # cycle chains with small flip families, several sizes
    for n_half, flip_seed in ((6, 0), (7, 1), (8, 2), (9, 3)):
        g = uniform_graph([0] * n_half + [1] * n_half)
        aug = chain_augmentation(g)
        rng = np.random.default_rng(flip_seed)
        family = [onehot(g)]
        for _ in range(5):
            flips = rng.random(g.size) < 0.1
            family.append(onehot(g, np.where(flips, 1 - g.labels, g.labels)))
        fixtures.append((f"cycle-{2 * n_half}", g, aug, family))
    # lazy SBM graphs with chain augmentations and single-vertex inconsistencies
    for seed in range(3):
        g = lazy_graph(build_sbm(2, [6, 6], 0.9, 0.1, seed=seed))
        aug = chain_augmentation(g)
        bad = onehot(g).scores.copy()
        bad[seed] = 1.0 - bad[seed]
        fixtures.append((f"sbm-{seed}", g, aug, [onehot(g), Prediction(scores=bad)]))
    # full-class augmentations (unbounded expansion)
    g = uniform_graph([0] * 5 + [1] * 5)
    sets = [set(range(5))] * 5 + [set(range(5, 10))] * 5
    aug = make_augmentation(sets, g)
    flipped = onehot(g).scores.copy()
    flipped[0] = 1.0 - flipped[0]
    fixtures.append(("full-class", g, aug, [onehot(g), Prediction(scores=flipped)]))
    # 18-vertex cap fixture
    g = uniform_graph([0] * 9 + [1] * 9)
    fixtures.append(("cap-18", g, chain_augmentation(g), [onehot(g)]))
    # designed near-tight fixture: one class is an 8-vertex augmentation path,
    # flipping its first half gives mu = 4/16 against bound 8 * nu = 8/16
    labels = [0] * 8 + [1] * 8
    g = uniform_graph(labels)
    sets = [{i, i + 1} for i in range(7)] + [{7, 6}]
    sets += [set(range(8, 16))] * 8
    aug = make_augmentation(sets, g)
    tight = onehot(g, [1] * 4 + [0] * 4 + [1] * 8)
    fixtures.append(("near-tight", g, aug, [tight]))
    return fixtures


def test_criterion_07_expansion_bound():
    t0 = time.time()
    results = []
    ratios = {}
    for name, g, aug, family in _theorem5_fixtures():
        record = theorem5_check(family, aug, g, estimate_c_expansion(aug, g).c_hat)
        mu, bound, v = record["mu"], record["bound"], record["verdict"]
        results.append((name, v))
        if v == "pass" and bound > 0:
            ratios[name] = mu / bound
        probes = expansion_implication_check(aug, g, estimate_c_expansion(aug, g))
        if probes["applicable"]:
            results.append((name + "-lemma-e2", all(probes["probes"].values())))
    bad = [r for r in results if r[1] not in ("pass", True)]
    near_tight = ratios.get("near-tight", 0.0)
    elapsed = time.time() - t0
    verdict(7, not bad and len(results) >= 10 and near_tight >= 0.45 and elapsed < 120.0,
            f"expansion bound and implication probes pass on {len(results)} checks "
            f"(near-tight ratio {near_tight:.3f}); failures={bad} ({elapsed:.1f}s < 120s)")


def test_criterion_08_cluster_wise_labeling():
    t0 = time.time()
    fixtures = []
    # c0 = 4 (quarter of cluster 0 mislabeled), K = 2
    fixtures.append((uniform_graph([0] * 9 + [1] * 3 + [1] * 12), [0] * 12 + [1] * 12, 0.1))
    # c0 = 3, K = 2
    fixtures.append((uniform_graph([0] * 8 + [1] * 4 + [1] * 12), [0] * 12 + [1] * 12, 0.2))
    # perfect predictor, K = 2
    fixtures.append((uniform_graph([0] * 8 + [1] * 8), None, 0.1))
    # K = 3 with one noisy cluster (c0 = 6)
    fixtures.append((uniform_graph([0] * 10 + [1] * 2 + [1] * 12 + [2] * 12), [0] * 12 + [1] * 12 + [2] * 12, 0.1))
    # K = 3 perfect
    fixtures.append((uniform_graph([0] * 6 + [1] * 6 + [2] * 6), None, 0.15))
    worst_slack = math.inf
    for i, (g, predicted, delta) in enumerate(fixtures):
        f = onehot(g, predicted) if predicted is not None else onehot(g)
        report = check_non_degenerate(f, g)
        assert report.ok, report.reasons
        rate = coverage_rate(f, g, delta, trials=10000, seed=100 + i)
        se = math.sqrt(delta * (1.0 - delta) / 10000)
        worst_slack = min(worst_slack, rate - (1.0 - delta - 3.0 * se))

    g = uniform_graph([0] * 6 + [1] * 6 + [2] * 6 + [3] * 6)
    mean = mean_draws_to_cover(g, trials=10000, seed=3)
    harmonic = sum(1.0 / k for k in range(1, 5))
    coupon_err = abs(mean - 4.0 * harmonic) / (4.0 * harmonic)
    elapsed = time.time() - t0
    verdict(8, worst_slack >= 0.0 and coupon_err <= 0.1 and elapsed < 30.0,
            f"cluster-wise coverage beats 1-delta-3se on 5 fixtures (worst slack "
            f"{worst_slack:.4f}); coupon-collector mean within {coupon_err:.3f} of K*H_K "
            f"({elapsed:.1f}s < 30s)")


def test_criterion_09_excess_risk():
    t0 = time.time()
    g = lazy_graph(build_sbm(2, [8, 8], 0.9, 0.1, seed=4))
    rng = np.random.default_rng(9)
    noisy_family = [onehot(g)]
    for _ in range(4):
        flips = rng.random(g.size) < 0.15
        noisy_family.append(onehot(g, np.where(flips, 1 - g.labels, g.labels)))
    # a larger population keeps the family's clustering error small enough for
    # a non-vacuous bound: single-vertex flips plus a label-swapped member
    big = lazy_graph(build_sbm(2, [32, 32], 0.9, 0.05, seed=6))
    tight_family = [onehot(big), onehot(big, 1 - big.labels)]
    for v in (0, 20, 40):
        flipped = np.array(big.labels)
        flipped[v] = 1 - flipped[v]
        tight_family.append(onehot(big, flipped))
    cases = [
        ([onehot(g)], g, 200, 0.2),       # singleton: excess risk identically 0
        (noisy_family, g, 40, 0.2),       # bound vacuous but the audit still runs
        (tight_family, big, 2000, 0.2),   # non-vacuous bound
    ]
    worst_slack = math.inf
    nonvacuous = 0
    for i, (family, graph, n, delta) in enumerate(cases):
        report = theorem3_check(family, graph, n=n, trials=2000, delta=delta, seed=10 + i)
        se = math.sqrt((delta / 2.0) * (1.0 - delta / 2.0) / 2000)
        worst_slack = min(worst_slack, delta / 2.0 + 3.0 * se - report.failure_rate)
        if not report.vacuous:
            nonvacuous += 1
    elapsed = time.time() - t0
    verdict(9, worst_slack >= 0.0 and nonvacuous >= 1 and elapsed < 60.0,
            f"excess-risk violations within delta/2 + 3se on 3 families (worst slack "
            f"{worst_slack:.4f}, {nonvacuous} non-vacuous) over 2000 draws each "
            f"({elapsed:.1f}s < 60s)")


def test_criterion_10_stochastic_greedy():
    t0 = time.time()
    worst_margin = math.inf
    exact_matches = 0
    cases = 0
    for seed in range(4):
        g, points = build_two_blobs(5, separation=4.0 + seed, noise=0.4, bandwidth=1.0, seed=seed)
        kern = KernelSpec.rbf(TeacherEmbedding(points), 1.0)
        kmat = kernel_matrix(kern, g)
        for n in (1, 2, 3):
            _, opt = exhaustive_best_subset(kmat, n)
            for eps in (0.1, 0.3):
                for greedy_seed in range(3):
                    picked = stochastic_greedy(kmat, n, epsilon=eps, seed=greedy_seed)
                    value = facility_location_value(picked, kmat)
                    worst_margin = min(worst_margin, value - (1.0 - 1.0 / math.e - eps) * opt)
                    cases += 1
            full, _ = full_greedy(kmat, n)
            if stochastic_greedy(kmat, n, epsilon=1e-9, seed=0) == full:
                exact_matches += 1
    elapsed = time.time() - t0
    verdict(10, worst_margin >= -1e-12 and exact_matches == 12 and elapsed < 10.0,
            f"stochastic greedy beats (1 - 1/e - eps) * OPT on {cases} runs (worst margin "
            f"{worst_margin:.4e}); eps->0 matches full greedy {exact_matches}/12 "
            f"({elapsed:.1f}s < 10s)")


def test_criterion_11_gradient_check():
    t0 = time.time()
    worst = 0.0
    specs = [
        ("table", (8, 2), None),
        ("table", (10, 3), None),
        ("linear", (3, 2), 3),
        ("linear", (4, 3), 4),
        ("mlp", (3, 5, 2), 3),
    ]
    for i, (arch, widths, dim) in enumerate(specs):
        if arch == "table":
            g = lazy_graph(build_sbm(widths[1], [widths[0] // widths[1]] * widths[1], 0.9, 0.2, seed=i))
            feats = None
            widths = (g.size, widths[1])
        else:
            g = lazy_graph(build_sbm(widths[-1], [3] * widths[-1], 0.9, 0.2, seed=i))
            feats = np.random.default_rng(i).standard_normal((g.size, dim))
        model = StudentModel.initialize(arch, widths, seed=20 + i, scale=0.5)
        rng = np.random.default_rng(i)
        pairs = draw_pairs(g, 15, rng)
        a, b = pairs[:, 0], pairs[:, 1]
        kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
        objective = _PairLoss(a, b, np.full(15, 1.0 / 15), kmat[a, b]).objective(feats)
        worst = max(worst, check_gradient(model, objective, coords=10, seed=i))
    elapsed = time.time() - t0
    verdict(11, worst < 1e-4 and elapsed < 5.0,
            f"analytic pair-loss gradient vs central differences, worst relative error "
            f"{worst:.2e} on 10 coords x 5 fixtures ({elapsed:.1f}s < 5s)")


def canonical_ab_config(lam_rkd, seed):
    return ExperimentConfig(
        graph={"kind": "two_blobs", "n_per_class": 16, "separation": 4.0, "noise": 0.6,
               "bandwidth": 1.2, "seed": 5},
        augmentation={"kind": "split_chain", "parts": 4},
        kernel={"kind": "graph_revealing"},
        student={"arch": "table", "init_scale": 0.05},
        loss={"lambda_dac": 1.0, "lambda_rkd": lam_rkd, "tau_dac": 0.95, "temperature": 1.0},
        labels={"strategy": "uniform_per_class", "n_per_class": 4},
        optimizer={"step_size": 0.5, "iterations": 400, "momentum": 0.9, "rkd_pairs": 64},
        seed=seed,
    )


def test_criterion_12_relational_term_direction():
    t0 = time.time()
    means = {}
    for lam in (0.0, 0.001):
        accs = [run_experiment(canonical_ab_config(lam, seed)).accuracy for seed in (1, 2, 3)]
        means[lam] = sum(accs) / len(accs)
    elapsed = time.time() - t0
    verdict(12, means[0.001] >= means[0.0] and elapsed < 300.0,
            f"two-blob low-label A/B (n = 4K): accuracy with relational weight on "
            f"{means[0.001]:.4f} >= off {means[0.0]:.4f} over 3 seeds ({elapsed:.1f}s < 5min)")


def test_criterion_13_reproducibility(tmp_path):
    files = ["run_result.json", "audit_report.json", "losses.csv", "labels.csv"]
    cfg_dict = canonical_ab_config(0.001, 1).to_dict()
    cfg_dict["out_dir"] = str(tmp_path / "run")
    cfg_dict["optimizer"] = dict(cfg_dict["optimizer"], iterations=60)
    cfg = ExperimentConfig.from_dict(cfg_dict)
    snapshots = []
    for _ in range(2):
        run_experiment(cfg)
        snapshots.append({name: (tmp_path / "run" / name).read_bytes() for name in files})
    identical = all(snapshots[0][name] == snapshots[1][name] for name in files)
    verdict(13, identical, "identical (config, seed) produced byte-identical reports "
            f"across {files}")
