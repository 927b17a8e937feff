import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkdlab.dac_expansion import make_augmentation
from rkdlab.errors import InvalidConfigError
from rkdlab.graph_core import build_two_blobs
from rkdlab.jsonio import dumps_canonical
from rkdlab.label_acquisition import LabeledSet, make_labeled, uniform_per_class_sample
from rkdlab.spectral_rkd import StudentModel
from rkdlab.ssl_harness import (
    CombinedLossReport,
    ExperimentConfig,
    LossWeights,
    _PairTable,
    _ViewTable,
    combined_loss,
    run_experiment,
    run_sweep,
)
from rkdlab.teacher_kernel import KernelSpec, kernel_matrix


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
    ]
    # keys another reader takes or the run supplies, and typos of real keys
    STRANGERS = ["seed", "g", "points", "lazy", "max_attempts", "iteration", "lambda_rk", "hiden", "p_inn"]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_section_readers_take_exactly_their_keys(self, data):
        name, required, optional = data.draw(st.sampled_from(self.SECTIONS), label="section")
        chosen = data.draw(st.sets(st.sampled_from(sorted(optional))), label="optional keys")
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
        rep = combined_loss(model, None, labeled, ws, pairs, kmat, LossWeights(**cfg))
        assert rep.total == rep.cross_entropy
        assert rep.dac == 0.0 and rep.rkd == 0.0

    def test_confident_correct_model_has_tiny_loss(self):
        g, kmat, labeled = self.setup_fixture()
        scores = 20.0 * np.eye(2)[g.labels].astype(float)
        model = StudentModel("table", (g.size, 2), scores.ravel())
        ws = [(i, i) for i in range(g.size)]
        rep = combined_loss(model, None, labeled, ws, None, kmat,
                            LossWeights(lambda_dac=1.0, lambda_rkd=0.0, tau_dac=0.95))
        assert rep.confident_count == g.size
        assert rep.dac < 1e-8
        assert rep.cross_entropy < 1e-8

    def test_all_below_threshold_gives_zero_dac(self):
        g, kmat, labeled = self.setup_fixture()
        model = StudentModel("table", (g.size, 2), np.zeros(g.size * 2))
        ws = [(i, i) for i in range(g.size)]
        rep = combined_loss(model, None, labeled, ws, None, kmat,
                            LossWeights(lambda_dac=1.0, lambda_rkd=0.0, tau_dac=0.95))
        assert rep.confident_count == 0
        assert rep.dac == 0.0

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
        rep = combined_loss(model, None, labeled, ws, pairs, kmat, LossWeights(**cfg))
        ce = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
        conf = math.exp(2.0) / (math.exp(2.0) + 1.0)  # 0.881 >= 0.8 kept
        dac = -math.log(1.0 / (1.0 + math.e))  # strong logits [0,1], pseudo-label 0
        rkd = (0.0 - 2.0) ** 2  # f(0)^T f(1) = 0 vs kernel 2
        assert math.isclose(conf, 0.8807970779778823, rel_tol=1e-12)
        assert math.isclose(rep.cross_entropy, ce, rel_tol=1e-12)
        assert math.isclose(rep.dac, dac, rel_tol=1e-12)
        assert math.isclose(rep.rkd, rkd, rel_tol=1e-12)
        assert math.isclose(rep.total, ce + dac + 0.5 * rkd, rel_tol=1e-12)

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
        grad = combined_loss(model, feats, labeled, ws, pairs, kmat, LossWeights(**cfg)).grad
        h = 1e-6
        idx = rng.choice(model.parameters.size, size=min(10, model.parameters.size), replace=False)
        for i in idx:
            probe = model.copy()
            probe.parameters[i] += h
            up = combined_loss(probe, feats, labeled, ws, pairs, kmat, LossWeights(**cfg)).total
            probe.parameters[i] -= 2 * h
            down = combined_loss(probe, feats, labeled, ws, pairs, kmat, LossWeights(**cfg)).total
            numeric = (up - down) / (2 * h)
            assert abs(numeric - grad[i]) <= 1e-4 * max(1.0, abs(numeric), abs(grad[i]))


def _softmax_reference(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _combined_loss_reference(model, features, labeled, weak_strong_pairs, rkd_pairs, kmat, loss_cfg):
    """The combined objective as first fused into one pass, kept verbatim as a
    bit-for-bit oracle: later rewrites must return the same floats."""
    scores = model.forward(features)
    gscores = np.zeros_like(scores)
    lam_dac = float(loss_cfg.get("lambda_dac", 1.0))
    lam_rkd = float(loss_cfg.get("lambda_rkd", 0.0))
    tau = float(loss_cfg.get("tau_dac", 0.95))
    temp = float(loss_cfg.get("temperature", 1.0))

    ce = 0.0
    verts = labeled.vertices()
    if len(verts):
        probs = _softmax_reference(scores[verts])
        rows, classes = np.arange(len(verts)), labeled.classes()
        ce = float(-np.log(np.maximum(probs[rows, classes], 1e-300)).mean())
        probs[rows, classes] -= 1.0
        np.add.at(gscores, verts, probs / len(verts))

    dac = 0.0
    kept = 0
    if weak_strong_pairs is not None and len(weak_strong_pairs) and lam_dac > 0:
        ws = np.asarray(weak_strong_pairs, dtype=int)
        weak_probs = _softmax_reference(scores[ws[:, 0]] / temp)
        confident = weak_probs.max(axis=1) >= tau
        kept = int(confident.sum())
        if kept:
            pseudo = np.argmax(scores[ws[confident, 0]], axis=1)
            strong = ws[confident, 1]
            strong_probs = _softmax_reference(scores[strong])
            rows = np.arange(kept)
            dac = float(-np.log(np.maximum(strong_probs[rows, pseudo], 1e-300)).mean())
            strong_probs[rows, pseudo] -= 1.0
            np.add.at(gscores, strong, lam_dac * strong_probs / kept)

    rkd = 0.0
    if rkd_pairs is not None and len(rkd_pairs) and lam_rkd > 0:
        pr = np.asarray(rkd_pairs, dtype=int)
        a, b = pr[:, 0], pr[:, 1]
        resid = np.sum(scores[a] * scores[b], axis=1) - kmat[a, b]
        rkd = float(np.mean(resid**2))
        coef = (2.0 * lam_rkd / len(pr)) * resid
        np.add.at(gscores, a, coef[:, None] * scores[b])
        np.add.at(gscores, b, coef[:, None] * scores[a])

    total = ce + lam_dac * dac + lam_rkd * rkd
    return CombinedLossReport(total=total, cross_entropy=ce, dac=dac, rkd=rkd, confident_count=kept,
                              grad=model.backward(features, gscores))


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
            got = combined_loss(model, features, labeled, ws, pairs, kmat, LossWeights(**cfg))
            want = _combined_loss_reference(model, features, labeled, ws, pairs, kmat, cfg)
            for name in ("total", "cross_entropy", "dac", "rkd", "confident_count"):
                assert getattr(got, name) == getattr(want, name), (trial, name)
            np.testing.assert_array_equal(got.grad, want.grad)
            kept = "none" if got.confident_count == 0 else "all" if got.confident_count == len(ws) else "some"
            seen.add((kept, len(labeled.pairs) == 0, lam_rkd == 0.0))
        # none / some / all weak views kept, with and without labels and RKD term
        assert seen == {(k, e, z) for k in ("none", "some", "all") for e in (False, True) for z in (False, True)}


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
        # one per training step, plus the final prediction
        assert len(calls) == iterations + 1

    def test_sweep_matches_individual_runs(self, tmp_path):
        cfg = blob_config(optimizer={"step_size": 0.5, "iterations": 30, "momentum": 0.9},
                          out_dir=str(tmp_path))

        def persisted():
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in sorted(tmp_path.glob("seed_*/*")) if p.name != "timing.json"}

        swept = run_sweep(cfg, [3, 4])
        swept_files = persisted()
        for s in (3, 4):
            shutil.rmtree(tmp_path / f"seed_{s}")
        # each single run writes into the directory the sweep gave its seed, so
        # the config (and its hash in the report) is the same down to out_dir
        singles = [run_experiment(blob_config(optimizer=cfg.optimizer, seed=s,
                                              out_dir=str(tmp_path / f"seed_{s}")))
                   for s in (3, 4)]
        assert [r.accuracy for r in swept] == [r.accuracy for r in singles]
        assert len(swept_files) == 2 * 5
        assert persisted() == swept_files


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
