import math
import re
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_oracles as oracle

from rkdlab.dac_expansion import (
    AugmentationMap,
    chain_augmentation,
    load_augmentation,
    make_augmentation,
    save_augmentation,
)
from rkdlab.errors import InvalidConfigError, NumericError, TrainingDivergedError
from rkdlab.graph_core import build_sbm, build_two_blobs, lazy_graph, load_graph, save_graph
from rkdlab.jsonio import dumps_canonical
from rkdlab.label_acquisition import (
    LabeledSet,
    cluster_wise_sample,
    iid_sample,
    make_labeled,
    stochastic_greedy,
    uniform_per_class_sample,
)
from rkdlab.spectral_rkd import DIVERGENCE_CAP, GRAD_CHECK_COORDS, OptimizerConfig, StudentModel, train_student
from rkdlab.ssl_harness import (
    ExperimentConfig,
    LossWeights,
    _CombinedLoss,
    _PairTable,
    _ViewTable,
    acquire_labels,
    build_augmentation_fixture,
    build_graph_fixture,
    build_kernel_fixture,
    run_experiment,
    run_sweep,
    spectral_clustering_prediction,
)
from rkdlab.teacher_kernel import KernelSpec, TeacherEmbedding, kernel_matrix, spectral_teacher_embedding


def blob_config(**overrides):
    base = dict(
        graph={"kind": "two_blobs", "n_per_class": 8, "separation": 4.0, "noise": 0.5,
               "bandwidth": 1.2, "seed": 5},
        augmentation={"kind": "chain"},
        kernel={"kind": "graph_revealing"},
        student={"arch": "table", "init_scale": 0.05},
        loss={"lambda_dac": 1.0, "lambda_rkd": 0.001, "tau_dac": 0.95, "temperature": 1.0},
        labels={"strategy": "uniform_per_class", "n_per_class": 4},
        optimizer={"step_size": 0.5, "iterations": 60, "momentum": 0.9, "rkd_pairs": 16},
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_is_exact(self, tmp_path):
        cfg = blob_config()
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert ExperimentConfig.from_file(path) == cfg
        assert ExperimentConfig.from_file(path).config_hash() == cfg.config_hash()

    def test_invalid_tau_rejected(self):
        with pytest.raises(InvalidConfigError):
            blob_config(loss={"lambda_dac": 1.0, "lambda_rkd": 0.0, "tau_dac": 1.5})

    def test_float_keys_take_integers_and_an_optional_one_null(self):
        cfg = blob_config(optimizer={"step_size": 1, "iterations": 0, "momentum": 0, "b_f": None},
                          loss={"lambda_dac": 1, "lambda_rkd": 0})
        assert (cfg.opt.step_size, cfg.opt.b_f, cfg.loss_weights.lambda_rkd) == (1, None, 0)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidConfigError):
            blob_config(loss={"lambda_dac": -1.0, "lambda_rkd": 0.0})

    def test_missing_referenced_file_rejected(self):
        with pytest.raises(InvalidConfigError, match="does not exist"):
            blob_config(graph={"kind": "file", "path": "/nonexistent/graph.json"})

    # (section, its required keys, each optional key with a valid value)
    SECTIONS = [
        ("loss", {}, {"lambda_dac": 0.5, "lambda_rkd": 0.001, "tau_dac": 0.9, "temperature": 2.0}),
        ("optimizer", {}, {"step_size": 0.3, "iterations": 5, "momentum": 0.5, "b_f": 1.0, "sampler": 16,
                           "rkd_pairs": 8, "recycle_labeled": False}),
        ("student", {}, {"arch": "mlp", "init_scale": 0.2, "hidden": 4}),
        ("graph", {"kind": "two_blobs", "n_per_class": 8},
         {"separation": 3.0, "noise": 0.4, "bandwidth": 1.0, "seed": 2}),
        ("graph", {"kind": "sbm", "num_classes": 2, "sizes": [4, 4], "p_in": 0.9, "p_out": 0.1, "seed": 3},
         {"lazy": False}),
        ("augmentation", {}, {"kind": "chain"}),
        ("augmentation", {"kind": "split_chain"}, {"parts": 3}),
        ("augmentation", {"kind": "knn"}, {"k": 1}),
        ("augmentation", {"kind": "file", "path": __file__}, {}),
        ("kernel", {"kind": "graph_revealing"}, {}),
        ("kernel", {"kind": "shifted_cosine"}, {"dim": 3, "noise": 0.1, "seed": 4}),
        ("kernel", {"kind": "rbf", "bandwidth": 1.5}, {}),
        ("labels", {"n_per_class": 2}, {"strategy": "uniform_per_class"}),
        ("labels", {"strategy": "iid", "budget": 4}, {"require_coverage": False}),
        ("labels", {"strategy": "coreset_greedy", "budget": 4}, {"epsilon": 0.2}),
        ("labels", {"strategy": "cluster_wise"}, {"delta": 0.2}),
    ]
    # keys another reader takes or the run supplies, and typos of real keys
    STRANGERS = ["seed", "g", "points", "kernel", "kind", "strategy", "lazy", "max_attempts", "iteration",
                 "lambda_rk", "hiden", "p_inn", "parst", "budjet", "epsilom", "bandwith"]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_section_readers_take_exactly_their_keys(self, data):
        name, required, optional = data.draw(st.sampled_from(self.SECTIONS), label="section")
        chosen = data.draw(st.sets(st.sampled_from(sorted(optional))), label="optional keys") if optional else ()
        section = {**required, **{key: optional[key] for key in chosen}}
        cfg = blob_config(**{name: section})
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        with tempfile.TemporaryDirectory() as tmp:
            cfg.save(Path(tmp) / "cfg.json")
            assert ExperimentConfig.from_file(Path(tmp) / "cfg.json").config_hash() == cfg.config_hash()
        names = st.one_of(st.sampled_from(self.STRANGERS), st.text(min_size=1, max_size=6))
        stranger = data.draw(names.filter(lambda key: key not in {**optional, **required}), label="stranger")
        with pytest.raises(InvalidConfigError, match=re.escape(f"unknown key {name}.{stranger}")):
            blob_config(**{name: {**section, stranger: 1}})


# blobs close enough that spectral clustering errs, so cluster_wise's delta sets its draw count
SMALL_BLOBS = {"kind": "two_blobs", "n_per_class": 5, "separation": 1.5, "noise": 0.5, "bandwidth": 1.2,
               "seed": 5}


def _small_blobs():
    return build_two_blobs(5, separation=1.5, noise=0.5, bandwidth=1.2, seed=5)


def _both_classes(sets):
    """Class 0 of the 5-per-class blobs is vertices 0-4, class 1 is 5-9."""
    return AugmentationMap(sets=tuple(sets) + tuple({v + 5 for v in s} for s in sets))


# split_chain sets, written out: 5 members in chunks of max(2, ceil(5 / parts)),
# a chunk of one joined to the member before it
SPLIT_CHAIN = {
    2: _both_classes([{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 3}]),
    3: _both_classes([{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 3}]),
}


def _knn_oracle(g, points, k):
    """A(x) = x and its k nearest points of its own class."""
    sets = []
    for x in range(g.size):
        same = sorted((math.dist(points[x], points[v]), v) for v in range(g.size) if g.labels[v] == g.labels[x])
        sets.append({v for _, v in same[: k + 1]} | {x})
    return make_augmentation(sets, g)


def _sbm_expected(fx, s):
    g = build_sbm(2, [4, 4], 0.9, 0.1, 3)
    return (lazy_graph(g) if s.get("lazy", True) else g), None


def _shifted_cosine_expected(fx, s):
    dim = s.get("dim", fx.g.num_classes)
    return KernelSpec.shifted_cosine(spectral_teacher_embedding(fx.g, dim, s.get("noise", 0.0), s.get("seed", 0)))


# (section, its required keys, each optional key, the direct library call at
# the defaults a config gets); "path" is replaced by a temporary file
KIND_CASES = [
    ("graph", {"kind": "sbm", "num_classes": 2, "sizes": [4, 4], "p_in": 0.9, "p_out": 0.1, "seed": 3},
     {"lazy": False}, _sbm_expected),
    ("graph", {"kind": "two_blobs", "n_per_class": 5},
     {"separation": 3.0, "noise": 0.4, "bandwidth": 1.0, "seed": 2},
     lambda fx, s: build_two_blobs(5, s.get("separation", 4.0), s.get("noise", 0.6), s.get("bandwidth", 1.2),
                                   s.get("seed", 0))),
    ("graph", {"kind": "file", "path": None}, {}, lambda fx, s: (load_graph(fx.files["graph"]), None)),
    ("augmentation", {}, {"kind": "chain"}, lambda fx, s: chain_augmentation(fx.g)),
    ("augmentation", {"kind": "split_chain"}, {"parts": 3}, lambda fx, s: SPLIT_CHAIN[s.get("parts", 2)]),
    ("augmentation", {"kind": "knn"}, {"k": 1}, lambda fx, s: _knn_oracle(fx.g, fx.points, s.get("k", 2))),
    ("augmentation", {"kind": "file", "path": None}, {},
     lambda fx, s: load_augmentation(fx.files["augmentation"], fx.g)),
    ("kernel", {"kind": "graph_revealing"}, {}, lambda fx, s: KernelSpec.graph_revealing()),
    ("kernel", {"kind": "shifted_cosine"}, {"dim": 3, "noise": 0.1, "seed": 4}, _shifted_cosine_expected),
    # the noise seed's default shows only under noise
    ("kernel", {"kind": "shifted_cosine", "noise": 0.1}, {"seed": 4}, _shifted_cosine_expected),
    ("kernel", {"kind": "rbf", "bandwidth": 1.5}, {},
     lambda fx, s: KernelSpec.rbf(TeacherEmbedding.from_arrays(fx.points), 1.5)),
    ("labels", {"n_per_class": 2}, {"strategy": "uniform_per_class"},
     lambda fx, s: uniform_per_class_sample(fx.g, 2, fx.seed)),
    # at seed 7 a budget of 2 covers both classes only after a redraw
    ("labels", {"strategy": "iid", "budget": 2}, {"require_coverage": False},
     lambda fx, s: iid_sample(fx.g, 2, fx.seed, s.get("require_coverage", True))[0]),
    ("labels", {"strategy": "coreset_greedy", "budget": 4}, {"epsilon": 0.3},
     lambda fx, s: make_labeled(fx.g, stochastic_greedy(fx.kernel, fx.g, 4, s.get("epsilon", 0.1), fx.seed),
                                "coreset_greedy", fx.seed)),
    ("labels", {"strategy": "cluster_wise"}, {"delta": 0.5},
     lambda fx, s: cluster_wise_sample(spectral_clustering_prediction(fx.g, fx.seed), fx.g,
                                       s.get("delta", 0.1), fx.seed)),
]


class TestSectionKinds:
    """Each kind of each kind-tagged section builds what the library call it
    names builds, with the defaults a config gets."""

    @staticmethod
    def build(section, cfg, kernel):
        g, points = build_graph_fixture(cfg)
        if section == "graph":
            return g, points
        if section == "augmentation":
            return build_augmentation_fixture(cfg, g, points)
        if section == "kernel":
            return build_kernel_fixture(cfg, g, points)
        return acquire_labels(cfg, g, kernel, cfg.seed)

    @pytest.mark.parametrize("full", [False, True], ids=["required", "all-keys"])
    @pytest.mark.parametrize("section,required,optional,expected", [
        pytest.param(*case, id="-".join([case[0], *(v for k, v in {**case[1], **case[2]}.items()
                                                      if k in ("kind", "strategy"))]))
        for case in KIND_CASES
    ])
    def test_fixture_is_the_direct_call(self, tmp_path, section, required, optional, expected, full):
        g, points = _small_blobs()
        files = {"graph": tmp_path / "graph.json", "augmentation": tmp_path / "augmentation.json"}
        save_graph(build_sbm(2, [3, 3], 1.0, 0.0, 1), files["graph"])
        save_augmentation(chain_augmentation(g), files["augmentation"])
        fx = SimpleNamespace(g=g, points=points, files=files, kernel=KernelSpec.graph_revealing(), seed=7)
        spec = {**required, **(optional if full else {})}
        if "path" in spec:
            spec["path"] = str(files[section])
        got = self.build(section, blob_config(**{"graph": SMALL_BLOBS, section: spec}), fx.kernel)
        want = expected(fx, spec)
        if section == "graph":
            (got_g, got_points), (want_g, want_points) = got, want
            assert got_g.vertices == want_g.vertices and got_g.num_classes == want_g.num_classes
            assert np.array_equal(got_g.weights, want_g.weights)
            assert np.array_equal(got_g.labels, want_g.labels)
            assert (got_points is None and want_points is None) or np.array_equal(got_points, want_points)
        elif section == "kernel":
            assert got.variant == want.variant
            assert np.array_equal(kernel_matrix(got, g), kernel_matrix(want, g))
        else:
            assert got == want

    @pytest.mark.parametrize("section,kind,key,value", [
        pytest.param(*case, id=f"{case[0]}.{case[2]}={case[3]!r}") for case in [
            ("augmentation", {"kind": "split_chain"}, "parts", 2.5),
            ("augmentation", {"kind": "split_chain"}, "parts", "2"),
            ("augmentation", {"kind": "knn"}, "k", 1.5),
            ("augmentation", {"kind": "knn"}, "k", True),
            ("kernel", {"kind": "shifted_cosine"}, "dim", 2.5),
            ("kernel", {"kind": "shifted_cosine"}, "dim", "2"),
            ("labels", {}, "n_per_class", 2.5),
            ("labels", {}, "n_per_class", "4"),
            ("labels", {"strategy": "iid"}, "budget", 2.5),
            ("labels", {"strategy": "coreset_greedy"}, "budget", "4"),
            ("labels", {"strategy": "coreset_greedy"}, "budget", True),
        ]
    ])
    def test_integer_keys_reject_other_values(self, section, kind, key, value):
        # int() used to read 2.5 as 2 and "4" as 4; the config now rejects them when it loads
        with pytest.raises(InvalidConfigError, match=re.escape(f"{section}.{key}={value!r}")):
            blob_config(**{"graph": SMALL_BLOBS, section: {**kind, key: value}})


def _evaluate(model, features, labeled, ws, pairs, kmat, weights):
    """One student's loss row and parameter gradient: the objective on a stack of one."""
    views = None if ws is None else [np.asarray(ws, dtype=int)]
    pairs = None if pairs is None else [np.asarray(pairs, dtype=int)]
    (row,), grad = _CombinedLoss([labeled], kmat, weights)(model, features, views, pairs)
    return row, grad


class TestCombinedLoss:
    def setup_fixture(self):
        g, points = build_two_blobs(4, separation=5.0, noise=0.3, bandwidth=1.0, seed=1)
        kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
        labeled = uniform_per_class_sample(g, 2, seed=0)
        return g, kmat, labeled

    def test_weights_zero_reduces_to_cross_entropy(self):
        g, kmat, labeled = self.setup_fixture()
        model = StudentModel.initialize("table", (g.size, 2), seed=3)
        cfg = {"lambda_dac": 0.0, "lambda_rkd": 0.0}
        ws = [(i, i) for i in range(g.size)]
        pairs = [(0, 1), (2, 3)]
        row, _ = _evaluate(model, None, labeled, ws, pairs, kmat, LossWeights(**cfg))
        assert row["total"] == row["cross_entropy"]
        assert row["dac"] == 0.0 and row["rkd"] == 0.0

    def test_confident_correct_model_has_tiny_loss(self):
        g, kmat, labeled = self.setup_fixture()
        scores = 20.0 * np.eye(2)[g.labels].astype(float)
        model = StudentModel("table", (g.size, 2), scores.ravel())
        ws = [(i, i) for i in range(g.size)]
        row, _ = _evaluate(model, None, labeled, ws, None, kmat,
                           LossWeights(lambda_dac=1.0, lambda_rkd=0.0, tau_dac=0.95))
        assert row["confident"] == g.size
        assert row["dac"] < 1e-8
        assert row["cross_entropy"] < 1e-8

    def test_all_below_threshold_gives_zero_dac(self):
        g, kmat, labeled = self.setup_fixture()
        model = StudentModel("table", (g.size, 2), np.zeros(g.size * 2))
        ws = [(i, i) for i in range(g.size)]
        row, _ = _evaluate(model, None, labeled, ws, None, kmat,
                           LossWeights(lambda_dac=1.0, lambda_rkd=0.0, tau_dac=0.95))
        assert row["confident"] == 0
        assert row["dac"] == 0.0

    def test_hand_computed_vector(self):
        # two vertices, one class each; frozen arithmetic for every term
        from conftest import hand_graph

        g = hand_graph([[0.0, 0.5], [0.5, 0.0]], [0, 1], 2)
        kmat = kernel_matrix(KernelSpec.graph_revealing(), g)  # off-diagonal 2
        scores = np.array([[2.0, 0.0], [0.0, 1.0]])
        model = StudentModel("table", (2, 2), scores.ravel())
        labeled = make_labeled(g, [0], "manual", seed=0)
        ws = [(0, 1)]  # weak view vertex 0, strong view vertex 1
        pairs = [(0, 1)]
        cfg = {"lambda_dac": 1.0, "lambda_rkd": 0.5, "tau_dac": 0.8, "temperature": 1.0}
        row, _ = _evaluate(model, None, labeled, ws, pairs, kmat, LossWeights(**cfg))
        ce = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
        conf = math.exp(2.0) / (math.exp(2.0) + 1.0)  # 0.881 >= 0.8 kept
        dac = -math.log(1.0 / (1.0 + math.e))  # strong logits [0,1], pseudo-label 0
        rkd = (0.0 - 2.0) ** 2  # f(0)^T f(1) = 0 vs kernel 2
        assert math.isclose(conf, 0.8807970779778823, rel_tol=1e-12)
        assert math.isclose(row["cross_entropy"], ce, rel_tol=1e-12)
        assert math.isclose(row["dac"], dac, rel_tol=1e-12)
        assert math.isclose(row["rkd"], rkd, rel_tol=1e-12)
        assert math.isclose(row["total"], ce + dac + 0.5 * rkd, rel_tol=1e-12)

    @pytest.mark.parametrize("arch", ["table", "linear", "mlp"])
    def test_gradient_matches_finite_differences(self, arch):
        g, kmat, labeled = self.setup_fixture()
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((g.size, 3)) if arch != "table" else None
        widths = {"table": (g.size, 2), "linear": (3, 2), "mlp": (3, 4, 2)}[arch]
        model = StudentModel.initialize(arch, widths, seed=5, scale=0.4)
        ws = [(i, (i + 1) % g.size if g.labels[i] == g.labels[(i + 1) % g.size] else i)
              for i in range(g.size)]
        pairs = [(0, 1), (2, 5), (3, 3), (6, 7)]
        cfg = {"lambda_dac": 1.0, "lambda_rkd": 0.3, "tau_dac": 0.2, "temperature": 1.0}
        _, grad = _evaluate(model, feats, labeled, ws, pairs, kmat, LossWeights(**cfg))
        h = 1e-6
        idx = rng.choice(model.parameters.size, size=min(10, model.parameters.size), replace=False)
        for i in idx:
            probe = model.copy()
            probe.parameters[i] += h
            up = _evaluate(probe, feats, labeled, ws, pairs, kmat, LossWeights(**cfg))[0]["total"]
            probe.parameters[i] -= 2 * h
            down = _evaluate(probe, feats, labeled, ws, pairs, kmat, LossWeights(**cfg))[0]["total"]
            numeric = (up - down) / (2 * h)
            assert abs(numeric - grad[i]) <= 1e-4 * max(1.0, abs(numeric), abs(grad[i]))


class TestCombinedLossOracle:
    @pytest.mark.parametrize("arch", ["table", "linear", "mlp"])
    def test_same_bits_as_reference(self, arch):
        g, points = build_two_blobs(6, separation=3.0, noise=0.8, bandwidth=1.0, seed=2)
        kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
        n = g.size
        maker = np.random.default_rng({"table": 0, "linear": 1, "mlp": 2}[arch])
        widths = {"table": (n, 3), "linear": (2, 3), "mlp": (2, 5, 3)}[arch]
        features = None if arch == "table" else points
        labeled_sets = [uniform_per_class_sample(g, 2, seed=4),
                        LabeledSet(pairs=(), strategy="manual", seed=0)]
        seen = set()
        for trial in range(48):
            # tau 0.34 keeps every weak view of a 3-class student, tau 1.0 none
            temp, tau = [(1.0, 0.34), (0.5, 0.9), (1.0, 1.0), (2.0, 0.6)][trial % 4]
            lam_rkd = (0.0, 0.3)[trial // 4 % 2]
            labeled = labeled_sets[trial // 8 % 2]
            model = StudentModel.initialize(arch, widths, seed=trial, scale=float(maker.uniform(0.1, 3.0)))
            # repeated weak and strong views and repeated (even diagonal) pairs
            ws = np.stack([maker.integers(0, n, size=n + 4), maker.integers(0, n // 2, size=n + 4)], axis=1)
            pairs = maker.integers(0, n // 2, size=(2 * n, 2))
            cfg = {"lambda_dac": float(maker.uniform(0.5, 2.0)), "lambda_rkd": lam_rkd,
                   "tau_dac": tau, "temperature": temp}
            got, grad = _evaluate(model, features, labeled, ws, pairs, kmat, LossWeights(**cfg))
            want = oracle.combined_loss(model, features, labeled, ws, pairs, kmat, cfg)
            assert got == {"total": want.total, "cross_entropy": want.cross_entropy, "dac": want.dac,
                           "rkd": want.rkd, "confident": want.confident_count}, trial
            np.testing.assert_array_equal(grad, want.grad)
            kept = "none" if got["confident"] == 0 else "all" if got["confident"] == len(ws) else "some"
            seen.add((kept, len(labeled.pairs) == 0, lam_rkd == 0.0))
        # none / some / all weak views kept, with and without labels and RKD term
        assert seen == {(k, e, z) for k in ("none", "some", "all") for e in (False, True) for z in (False, True)}


SWEEP_SEEDS = (1, 3, 4)
KNN = {"kind": "knn", "k": 2}  # every vertex has two partners, so each step draws strong views
# config sections of the sweeps whose files must be those of their seeds run one at a time
SWEEP_CASES = [
    pytest.param({"student": {"arch": arch, "init_scale": 0.3, **({"hidden": 4} if arch == "mlp" else {})},
                  "augmentation": augmentation, "loss": {"lambda_rkd": lambda_rkd}},
                 id=f"{arch}-{augmentation['kind']}-rkd{lambda_rkd}")
    for arch in ("table", "linear", "mlp")
    for augmentation in ({"kind": "split_chain", "parts": 2}, KNN)
    for lambda_rkd in (0.0, 0.3)
] + [
    pytest.param({"optimizer": {"b_f": 0.05}}, id="row-norm-cap"),
    pytest.param({"student": {"arch": "linear", "init_scale": 0.3}, "optimizer": {"b_f": 0.05}},
                 id="linear-row-norm-cap"),
    pytest.param({"augmentation": KNN, "labels": {"strategy": "iid", "budget": 5},
                  "optimizer": {"recycle_labeled": False}}, id="unlabeled-pool-iid"),
]


def _sweep_config(tmp_path, **sections):
    """The config of the frozen-loop test at 30 steps, writing to tmp_path, with
    the loss and optimizer `sections` updated key by key and the others replaced."""
    base = {"graph": {"kind": "two_blobs", "n_per_class": 6, "separation": 3.0, "noise": 0.8, "bandwidth": 1.2,
                      "seed": 2},
            "student": {"arch": "table", "init_scale": 0.3},
            "loss": {"lambda_dac": 1.0, "lambda_rkd": 0.001, "tau_dac": 0.6, "temperature": 1.0},
            "labels": {"strategy": "uniform_per_class", "n_per_class": 2},
            "optimizer": {"step_size": 0.1, "iterations": 30, "momentum": 0.9, "rkd_pairs": 8}}
    for name, updates in sections.items():
        base[name] = {**base[name], **updates} if name in ("loss", "optimizer") else updates
    return blob_config(**base, out_dir=str(tmp_path))


def _persisted(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.glob("seed_*/*")) if p.name != "timing.json"}


def _single_runs(root: Path, cfg, seeds) -> list:
    """Each seed run on its own, writing into the directory the sweep gave it, so
    the config (and its hash in the report) is the same down to out_dir."""
    runs = []
    for seed in seeds:
        single = replace(cfg, seed=seed, out_dir=str(root / f"seed_{seed}"))
        shutil.rmtree(single.out_dir)
        runs.append(run_experiment(single))
    return runs


class TestRunExperiment:
    def test_zero_iterations_equals_init_accuracy(self):
        cfg = blob_config(optimizer={"step_size": 0.5, "iterations": 0, "momentum": 0.9})
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.accuracy == b.accuracy
        assert len(a.losses) == 0

    def test_label_budget_contract(self):
        cfg = blob_config()
        result = run_experiment(cfg)
        counts = np.bincount(result.labeled.classes(), minlength=2)
        assert list(counts) == [4, 4]

    def test_audit_bundle_has_all_theorems(self):
        result = run_experiment(blob_config())
        assert set(result.audits) == {"thm1", "thm4", "thm5"}
        for payload in result.audits.values():
            assert "verdict" in payload

    def test_ab_fixture_records_exact_thm5_verdict(self, graph_core_eighs):
        # the 32-vertex A/B config: split_chain cuts each class into four
        # augmentation-isolated parts, so c_hat is exactly 1
        cfg = blob_config(
            graph={"kind": "two_blobs", "n_per_class": 16, "separation": 4.0, "noise": 0.6,
                   "bandwidth": 1.2, "seed": 5},
            augmentation={"kind": "split_chain", "parts": 4},
            optimizer={"step_size": 0.5, "iterations": 400, "momentum": 0.9, "rkd_pairs": 64},
            seed=1,
        )
        result = run_experiment(cfg)
        assert result.audits["thm5"]["verdict"] == "bound-undefined: c_hat=1.0 <= 1"
        assert graph_core_eighs == [(32, 32)]  # one eigensolve for the whole run

    def test_artifacts_written_and_reproducible(self, tmp_path):
        files = ["run_result.json", "audit_report.json", "losses.csv", "labels.csv", "config.json"]
        cfg = blob_config(out_dir=str(tmp_path / "run"))
        contents = []
        for _ in range(2):
            run_experiment(cfg)
            contents.append({name: (tmp_path / "run" / name).read_bytes() for name in files})
        for name in files:
            assert contents[0][name] == contents[1][name], name

    def test_cluster_wise_strategy_via_spectral_clustering(self):
        cfg = blob_config(labels={"strategy": "cluster_wise", "delta": 0.1},
                          graph={"kind": "sbm", "num_classes": 2, "sizes": [6, 6],
                                 "p_in": 0.9, "p_out": 0.05, "seed": 3, "lazy": True})
        result = run_experiment(cfg)
        assert set(result.labeled.classes().tolist()) == {0, 1}

    def test_run_makes_one_forward_pass_per_step(self, monkeypatch):
        calls = []
        forward = StudentModel.forward

        def counting(self, features):
            calls.append(1)
            return forward(self, features)

        monkeypatch.setattr(StudentModel, "forward", counting)
        iterations = 25
        run_experiment(blob_config(optimizer={"step_size": 0.5, "iterations": iterations,
                                              "momentum": 0.9, "rkd_pairs": 16}))
        # one per training step, plus the final prediction, plus the step-0
        # gradient check's loss and two differences per checked coordinate
        assert len(calls) == iterations + 1 + (1 + 2 * GRAD_CHECK_COORDS)

    @pytest.mark.parametrize("arch", ["table", "linear", "mlp"])
    @pytest.mark.parametrize("lambda_rkd", [0.0, 0.3])
    @pytest.mark.parametrize("augmentation", [{"kind": "split_chain", "parts": 2}, {"kind": "knn", "k": 2}])
    @pytest.mark.parametrize("iterations", [0, 1, 40])
    def test_training_matches_the_frozen_loop(self, arch, lambda_rkd, augmentation, iterations):
        # knn gives every vertex two partners, so each step draws strong views
        cfg = blob_config(
            graph={"kind": "two_blobs", "n_per_class": 6, "separation": 3.0, "noise": 0.8,
                   "bandwidth": 1.2, "seed": 2},
            augmentation=augmentation,
            student={"arch": arch, "init_scale": 0.3, **({"hidden": 4} if arch == "mlp" else {})},
            loss={"lambda_dac": 1.0, "lambda_rkd": lambda_rkd, "tau_dac": 0.6, "temperature": 1.0},
            labels={"strategy": "uniform_per_class", "n_per_class": 2},
            optimizer={"step_size": 0.1, "iterations": iterations, "momentum": 0.9, "rkd_pairs": 8},
            seed=4,
        )
        want_losses, want_parameters = oracle.ssl_train(cfg, 4)
        result = run_experiment(cfg)
        assert repr(result.losses) == repr(want_losses)
        assert np.array_equal(result.model.parameters, want_parameters)
        assert iterations < 40 or max(row["confident"] for row in result.losses) > 0  # DAC term in play

    def test_skewed_gradient_fails_the_check_before_training(self, monkeypatch):
        backward = StudentModel.backward
        monkeypatch.setattr(StudentModel, "backward", lambda self, features, gscores:
                            1.01 * backward(self, features, gscores))
        with pytest.raises(NumericError, match="gradient check failed"):
            run_experiment(blob_config())

    @pytest.mark.parametrize("arch", ["table", "linear"])
    def test_row_norm_cap_holds_at_the_end(self, arch):
        cfg = blob_config(student={"arch": arch, "init_scale": 0.05},
                          optimizer={"step_size": 0.5, "iterations": 60, "momentum": 0.9, "rkd_pairs": 16,
                                     "b_f": 0.05})
        result = run_experiment(cfg)
        points = build_graph_fixture(cfg)[1] if arch != "table" else None
        assert np.sum(result.model.forward(points) ** 2, axis=1).max() <= 0.05

    def test_divergence_records_the_diverging_loss_as_rkd_does(self):
        g, _ = build_graph_fixture(blob_config())
        diverging = {"step_size": 500.0, "iterations": 50, "momentum": 0.9}
        with pytest.raises(TrainingDivergedError) as ssl_error:
            run_experiment(blob_config(optimizer=diverging))
        with pytest.raises(TrainingDivergedError) as rkd_error:
            train_student(StudentModel.initialize("table", (g.size, 2), seed=7), g, KernelSpec.graph_revealing(),
                          OptimizerConfig(seed=7, **diverging))
        for error in (ssl_error.value, rkd_error.value):
            trace = error.trace
            assert not trace[-1] <= DIVERGENCE_CAP and all(loss <= DIVERGENCE_CAP for loss in trace[:-1])
            assert str(error) == f"loss {trace[-1]!r} at step {len(trace) - 1}"

    def test_sweep_makes_one_forward_pass_per_step(self, monkeypatch):
        calls = []
        forward = StudentModel.forward

        def counting(self, features):
            calls.append(self.parameters.shape)
            return forward(self, features)

        monkeypatch.setattr(StudentModel, "forward", counting)
        iterations = 25
        run_sweep(blob_config(optimizer={"step_size": 0.5, "iterations": iterations, "momentum": 0.9,
                                         "rkd_pairs": 16}), [1, 2, 3])
        # one per training step for the whole (3, p) stack; per seed, the
        # final prediction and the gradient check's loss and differences
        assert calls.count((3, 32)) == iterations
        assert len(calls) == iterations + 3 * (1 + 1 + 2 * GRAD_CHECK_COORDS)

    @pytest.mark.parametrize("overrides", SWEEP_CASES)
    def test_sweep_matches_individual_runs(self, tmp_path, overrides):
        cfg = _sweep_config(tmp_path, **overrides)
        swept = run_sweep(cfg, SWEEP_SEEDS)
        swept_files = _persisted(tmp_path)
        singles = _single_runs(tmp_path, cfg, SWEEP_SEEDS)
        assert [repr(r.losses) for r in swept] == [repr(r.losses) for r in singles]
        for one, other in zip(swept, singles):
            assert np.array_equal(one.model.parameters, other.model.parameters)
        assert len(swept_files) == 5 * len(SWEEP_SEEDS)
        assert _persisted(tmp_path) == swept_files
        assert max(row["confident"] for r in swept for row in r.losses) > 0  # DAC term in play
        if not cfg.opt.recycle_labeled:  # training pools of different sizes
            assert len({len(set(r.labeled.vertices().tolist())) for r in swept}) > 1

    def test_diverging_seeds_leave_the_sweep_and_the_others_keep_their_bits(self, tmp_path):
        # at this step size seeds 4 and 5 diverge, at steps 26 and 34, and 3 and 6 do not
        cfg = blob_config(optimizer={"step_size": 1.0, "iterations": 40, "momentum": 0.9, "rkd_pairs": 16},
                          loss={"lambda_dac": 1.0, "lambda_rkd": 0.3, "tau_dac": 0.95, "temperature": 1.0},
                          out_dir=str(tmp_path))
        swept = run_sweep(cfg, [3, 4, 5, 6])
        swept_files = _persisted(tmp_path)
        assert [len(r.trace) if isinstance(r, TrainingDivergedError) else None for r in swept] == [None, 27, 35, None]
        for seed, result in zip([3, 4, 5, 6], swept):
            single = replace(cfg, seed=seed, out_dir=str(tmp_path / f"seed_{seed}"))
            shutil.rmtree(single.out_dir)
            if isinstance(result, TrainingDivergedError):
                with pytest.raises(TrainingDivergedError) as error:
                    run_experiment(single)
                assert (str(error.value), error.value.trace) == (str(result), result.trace)
            else:
                assert repr(run_experiment(single).losses) == repr(result.losses)
        assert {p.name for p in swept_files} == {"failed_run.json", "run_result.json", "audit_report.json",
                                                 "losses.csv", "labels.csv", "config.json"}
        assert _persisted(tmp_path) == swept_files


class TestStackedObjective:
    @pytest.mark.parametrize("arch", ["table", "linear", "mlp"])
    def test_each_member_gets_the_bits_of_its_own_evaluation(self, arch):
        # members differ in label count, in number of views and in confident
        # count, with runs both shorter and longer than pairwise summation's 8
        g, points = build_two_blobs(6, separation=3.0, noise=0.8, bandwidth=1.0, seed=2)
        kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
        n = g.size
        maker = np.random.default_rng({"table": 10, "linear": 11, "mlp": 12}[arch])
        widths = {"table": (n, 3), "linear": (2, 3), "mlp": (2, 5, 3)}[arch]
        features = None if arch == "table" else points
        for trial in range(16):
            size = int(maker.integers(1, 5))
            models = [StudentModel.initialize(arch, widths, seed=10 * trial + i, scale=float(maker.uniform(0.1, 3.0)))
                      for i in range(size)]
            labeled = [uniform_per_class_sample(g, int(maker.integers(1, 4)), seed=i) if maker.random() < 0.8
                       else LabeledSet(pairs=(), strategy="manual", seed=0) for i in range(size)]
            views = [np.stack([maker.integers(0, n, size=m), maker.integers(0, n // 2, size=m)], axis=1)
                     for m in maker.integers(n // 2, n + 5, size=size)]
            pairs = maker.integers(0, n // 2, size=(size, 2 * n, 2))
            cfg = {"lambda_dac": float(maker.uniform(0.5, 2.0)), "lambda_rkd": (0.0, 0.3)[trial % 2],
                   "tau_dac": (0.34, 0.5, 0.7)[trial % 3], "temperature": (1.0, 0.5)[trial // 3 % 2]}
            stack = StudentModel(arch, widths, np.stack([m.parameters for m in models]))
            rows, grad = _CombinedLoss(labeled, kmat, LossWeights(**cfg))(stack, features, views, pairs)
            for i, model in enumerate(models):
                want = oracle.combined_loss(model, features, labeled[i], views[i], pairs[i], kmat, cfg)
                assert rows[i] == {"total": want.total, "cross_entropy": want.cross_entropy, "dac": want.dac,
                                   "rkd": want.rkd, "confident": want.confident_count}, (trial, i)
                np.testing.assert_array_equal(grad[i], want.grad)


def _strong_views_oracle(aug, pool, rng):
    """Per-vertex reference draw: the sorted other members of A(x), one draw each."""
    pairs = np.empty((len(pool), 2), dtype=int)
    for i, x in enumerate(pool):
        others = sorted(aug.sets[int(x)] - {int(x)})
        pairs[i, 0] = x
        pairs[i, 1] = others[rng.integers(len(others))] if others else x
    return pairs


class TestViewSampling:
    def test_table_draw_matches_per_vertex_loop(self):
        from conftest import hand_graph

        maker = np.random.default_rng(0)
        for trial in range(60):
            n = int(maker.integers(2, 30))
            labels = np.zeros(n, dtype=int)
            g = hand_graph(np.ones((n, n)) - np.eye(n), labels, 1)
            sets = []
            for x in range(n):
                members = {x} | set(maker.integers(0, n, size=int(maker.integers(0, 5))).tolist())
                sets.append({x} if maker.random() < 0.25 else members)
            aug = make_augmentation(sets, g, strict=False)
            pool = (np.arange(n) if trial % 2 else
                    np.sort(maker.choice(n, size=max(1, n // 2), replace=False)))
            table = _ViewTable.build(aug, pool)
            fast, slow = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(20):
                np.testing.assert_array_equal(table.draw(fast), _strong_views_oracle(aug, pool, slow))
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_all_singletons_draw_nothing(self):
        from conftest import hand_graph

        g = hand_graph(np.ones((3, 3)) - np.eye(3), [0, 0, 0], 1)
        aug = make_augmentation([{0}, {1}, {2}], g, strict=False)
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        pairs = _ViewTable.build(aug, np.arange(3)).draw(rng)
        np.testing.assert_array_equal(pairs, [[0, 0], [1, 1], [2, 2]])
        assert rng.bit_generator.state == before


    def test_single_partners_are_fixed_at_build(self):
        from conftest import hand_graph

        g = hand_graph(np.ones((4, 4)) - np.eye(4), [0, 0, 0, 0], 1)
        aug = make_augmentation([{0, 1}, {1, 2}, {2, 3}, {3, 0}], g, strict=False)
        table = _ViewTable.build(aug, np.arange(4))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        first, second = table.draw(rng), table.draw(rng)
        np.testing.assert_array_equal(first, [[0, 1], [1, 2], [2, 3], [3, 0]])
        assert second is first and not first.flags.writeable  # no copy, no rng call
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(first, _strong_views_oracle(aug, np.arange(4), rng))


class TestPairDraws:
    def test_cdf_draw_matches_generator_choice(self):
        maker = np.random.default_rng(11)
        for trial in range(60):
            n = int(maker.integers(1, 40))
            # uneven degrees, spanning up to six decades
            degrees = maker.uniform(0.0, 1.0, size=n) * 10.0 ** maker.integers(0, 7, size=n) + 1e-3
            pool = (np.arange(n) if trial % 2 else  # recycle_labeled true / false
                    np.sort(maker.choice(n, size=int(maker.integers(1, n + 1)), replace=False)))
            weights = degrees[pool] / degrees[pool].sum()
            table = _PairTable.build(pool, weights)
            fast, slow = np.random.default_rng(trial), np.random.default_rng(trial)
            for num_pairs in (1, 7, int(maker.integers(1, 80))):
                expected = pool[slow.choice(len(pool), size=2 * num_pairs, p=weights)].reshape(num_pairs, 2)
                np.testing.assert_array_equal(table.draw(fast, num_pairs), expected)
            assert fast.bit_generator.state == slow.bit_generator.state


class TestCanonicalJson:
    def test_float_formatting_is_stable(self):
        payload = {"a": 1.0 / 3.0, "b": [math.pi, 2], "c": {"nested": True}}
        assert dumps_canonical(payload) == dumps_canonical(payload)
        assert "0.33333333333333331" in dumps_canonical(payload)

    def test_non_finite_floats_become_strings(self):
        text = dumps_canonical({"x": math.inf, "y": -math.inf, "z": math.nan})
        assert '"inf"' in text and '"-inf"' in text and '"nan"' in text
