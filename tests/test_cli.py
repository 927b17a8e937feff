import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rkdlab
from rkdlab import cli, dac_expansion
from rkdlab.cli import build_parser, main
from rkdlab.graph_core import build_two_blobs, load_graph, save_graph
from rkdlab.jsonio import dump_canonical
from rkdlab.spectral_rkd import StudentModel
from rkdlab.ssl_harness import sbm_graph


@pytest.fixture
def audit_config(tmp_path):
    cfg = {
        "graph": {"kind": "sbm", "num_classes": 2, "sizes": [5, 5], "p_in": 0.9,
                  "p_out": 0.05, "seed": 3, "lazy": True},
        "augmentation": {"kind": "chain"},
        "kernel": {"kind": "graph_revealing"},
        "student": {"arch": "table", "init_scale": 0.05},
        "loss": {"lambda_dac": 1.0, "lambda_rkd": 0.001, "tau_dac": 0.95, "temperature": 1.0},
        "labels": {"strategy": "uniform_per_class", "n_per_class": 2},
        "optimizer": {"step_size": 0.4, "iterations": 200, "momentum": 0.9, "rkd_pairs": 16,
                      "sampler": "exhaustive"},
        "seed": 7,
        "tolerances": {"audit_rotations": 10},
        "out_dir": None,
    }
    path = tmp_path / "config.json"
    dump_canonical(cfg, path)
    return path


def test_no_arguments_prints_usage_and_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_parser_is_built_once_and_parses_independently(tmp_path):
    parser = build_parser()
    assert build_parser() is parser
    sweep = parser.parse_args(["ssl", "--config", "c.json", "--out", "o", "--sweep", "1,2"])
    dac = parser.parse_args(["dac", "--config", "c.json", "--out", "o"])
    assert (sweep.command, sweep.seed, sweep.sweep) == ("ssl", None, "1,2")
    assert (dac.command, dac.seed) == ("dac", 0) and not hasattr(dac, "sweep")
    lazy, plain = tmp_path / "lazy.json", tmp_path / "plain.json"
    assert main(["graph", "--gen", "sbm", "--lazy", "--seed", "0", "--out", str(lazy)]) == 0
    assert main(["spectra", "--graph", str(lazy), "--out", str(tmp_path / "spectra")]) == 0
    assert main(["graph", "--gen", "sbm", "--seed", "0", "--out", str(plain)]) == 0
    assert np.all(np.diag(load_graph(lazy).weights) > 0)
    assert np.all(np.diag(load_graph(plain).weights) == 0)


@pytest.mark.parametrize("lazy", [False, True])
def test_graph_sbm_file_is_the_config_readers_graph(tmp_path, lazy):
    # `rkdlab graph --gen sbm` and a config's sbm graph section build through one function
    out, want = tmp_path / "cli.json", tmp_path / "reader.json"
    flags = ["--k", "3", "--sizes", "3,4,2", "--p-in", "0.8", "--p-out", "0.1"] + (["--lazy"] if lazy else [])
    assert main(["graph", "--gen", "sbm", *flags, "--seed", "5", "--out", str(out)]) == 0
    save_graph(sbm_graph(3, [3, 4, 2], 0.8, 0.1, 5, lazy=lazy), want)
    assert out.read_bytes() == want.read_bytes()


def test_graph_two_blobs_file_is_build_two_blobs_graph(tmp_path):
    out, want = tmp_path / "cli.json", tmp_path / "library.json"
    assert main(["graph", "--gen", "two-blobs", "--n-per", "4", "--seed", "5", "--out", str(out)]) == 0
    save_graph(build_two_blobs(4, seed=5)[0], want)
    assert out.read_bytes() == want.read_bytes()


# (case, the graph file's JSON document, what the error names)
BAD_GRAPH_FILES = [
    ("edge-outside", {"vertices": [0, 1, 2], "num_classes": 2, "labels": [0, 0, 1],
                      "edges": [[0, 1, 1.0], [1, 3, 1.0]]}, "edge (1, 3) outside vertex range"),
    ("reversed-edge", {"vertices": [0, 1, 2], "num_classes": 2, "labels": [0, 0, 1],
                       "edges": [[1, 0, 1.0], [0, 2, 1.0]]}, "edge (1, 0) outside vertex range or i > j"),
    ("zero-mass", {"vertices": [0, 1], "num_classes": 2, "labels": [0, 1], "edges": [[0, 1, 0.0]]},
     "zero total weight"),
    ("no-edges", {"vertices": [0, 1], "num_classes": 2, "labels": [0, 1], "edges": []}, "zero total weight"),
    ("short-labels", {"vertices": [0, 1, 2], "num_classes": 2, "labels": [0, 1],
                      "edges": [[0, 1, 1.0], [1, 2, 1.0]]}, "labels shape (2,) != (3,)"),
]


@pytest.mark.parametrize("case,document,named", BAD_GRAPH_FILES, ids=[row[0] for row in BAD_GRAPH_FILES])
def test_bad_graph_file_exits_1_naming_the_fault(tmp_path, capsys, case, document, named):
    path = tmp_path / "g.json"
    dump_canonical(document, path)
    assert main(["spectra", "--graph", str(path), "--out", str(tmp_path / "spec")]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err


def test_graph_generation_writes_disconnected_fixture(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["graph", "--gen", "sbm", "--k", "2", "--sizes", "4,4",
                 "--p-in", "1", "--p-out", "0", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert "alpha=0" in capsys.readouterr().out
    g = load_graph(out)
    assert g.size == 8


def test_spectra_subcommand(tmp_path):
    gpath = tmp_path / "g.json"
    main(["graph", "--gen", "sbm", "--k", "2", "--sizes", "4,4", "--p-in", "0.9",
          "--p-out", "0.1", "--lazy", "--seed", "3", "--out", str(gpath)])
    code = main(["spectra", "--graph", str(gpath), "--out", str(tmp_path / "spec")])
    assert code == 0
    payload = json.loads((tmp_path / "spec" / "spectra.json").read_text())
    assert len(payload["eigenvalues"]) == 8
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"])


def test_audit_subcommand_passes_on_clean_fixture(tmp_path, audit_config, capsys):
    code = main(["audit", "--config", str(audit_config), "--seed", "7",
                 "--out", str(tmp_path / "a1")])
    assert code == 0
    report = json.loads((tmp_path / "a1" / "audit_report.json").read_text())
    assert report["thm1"]["verdicts"]["thm1"] == "pass"
    assert report["thm4"]["verdicts"]["thm4"] == "pass"


def test_rkd_subcommand_trains(tmp_path, audit_config):
    code = main(["rkd", "--config", str(audit_config), "--seed", "1",
                 "--out", str(tmp_path / "rkd")])
    assert code == 0
    report = json.loads((tmp_path / "rkd" / "rkd_report.json").read_text())
    assert report["gap"] < 0.5
    assert (tmp_path / "rkd" / "checkpoint.json").exists()
    trace = (tmp_path / "rkd" / "losses.csv").read_text().splitlines()
    assert trace[0] == "iteration,empirical_loss,population_loss"
    assert len(trace) == 1 + 200


def test_ssl_divergence_writes_failed_run_record(tmp_path, audit_config, capsys):
    cfg = json.loads(audit_config.read_text())
    cfg["optimizer"] = dict(cfg["optimizer"], step_size=500.0)
    bad = tmp_path / "diverge.json"
    dump_canonical(cfg, bad)
    code = main(["ssl", "--config", str(bad), "--seed", "7", "--out", str(tmp_path / "boom")])
    assert code == 1
    record = json.loads((tmp_path / "boom" / "failed_run.json").read_text())
    assert record["status"] == "diverged"
    assert len(record["loss_trace"]) > 0


def test_ssl_sweep_records_each_diverged_seed_and_exits_1(tmp_path, audit_config, capsys):
    cfg = json.loads(audit_config.read_text())
    cfg["optimizer"] = dict(cfg["optimizer"], step_size=500.0)
    bad = tmp_path / "diverge.json"
    dump_canonical(cfg, bad)
    code = main(["ssl", "--config", str(bad), "--sweep", "7,8", "--out", str(tmp_path / "boom")])
    assert code == 1
    for seed in (7, 8):
        record = json.loads((tmp_path / "boom" / f"seed_{seed}" / "failed_run.json").read_text())
        assert record["status"] == "diverged"
        assert len(record["loss_trace"]) > 0
    err = capsys.readouterr().err
    assert "diverged for seed 7" in err and "diverged for seed 8" in err


@pytest.mark.parametrize("command", ["audit", "dac", "rkd", "labels", "ssl"])
def test_no_command_loads_scipy(tmp_path, audit_config, command):
    # each command in a fresh interpreter; labels and ssl acquire cluster_wise labels, whose k-means is numpy's
    if command in ("labels", "ssl"):
        cfg = json.loads(audit_config.read_text())
        cfg["labels"] = {"strategy": "cluster_wise", "delta": 0.1}
        dump_canonical(cfg, audit_config)
    out = tmp_path / command
    argv = [command, "--config", str(audit_config), "--seed", "7", "--out", str(out)]
    script = (f"import sys; from rkdlab.cli import main; code = main({argv!r}); "
              "print(code, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    src = str(Path(rkdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"
    if command == "audit":  # the audit reaches thm4's LP, numpy's own simplex
        thm4 = json.loads((out / "audit_report.json").read_text())["thm4"]
        assert thm4["verdicts"]["thm4"] == "pass" and thm4["lp_primal"] is not None
    if command in ("labels", "ssl"):
        assert (out / "labels.csv").read_text().splitlines()[1].split(",")[2] == "cluster_wise"


def test_dac_subcommand(tmp_path, audit_config):
    code = main(["dac", "--config", str(audit_config), "--out", str(tmp_path / "dac")])
    assert code == 0
    report = json.loads((tmp_path / "dac" / "dac_report.json").read_text())
    assert report["exhaustive"] is True
    assert report["c_hat"] > 1.0
    assert sorted(report["expansion_implication"]) == ["0.05", "0.1", "0.2"]
    assert "expansion_implication_skipped" not in report


def test_dac_enumerates_c_expansion_for_its_report_and_for_theorem5(tmp_path, audit_config, monkeypatch):
    # one enumeration serves the report, the implication probes (its c_hat) and theorem 5 (the report itself)
    calls = []
    estimate = dac_expansion.estimate_c_expansion

    def counting(aug, g):
        calls.append(g.size)
        return estimate(aug, g)

    monkeypatch.setattr(dac_expansion, "estimate_c_expansion", counting)
    monkeypatch.setattr(cli, "estimate_c_expansion", counting)
    assert main(["dac", "--config", str(audit_config), "--out", str(tmp_path / "dac")]) == 0
    assert calls == [10]


def ab_config(tmp_path, **sections):
    """The 32-vertex A/B config (two blobs, split_chain parts 4, table student,
    400 steps) with sections replaced key by key."""
    cfg = {
        "graph": {"kind": "two_blobs", "n_per_class": 16, "separation": 4.0, "noise": 0.6,
                  "bandwidth": 1.2, "seed": 6},
        "augmentation": {"kind": "split_chain", "parts": 4},
        "kernel": {"kind": "graph_revealing"},
        "student": {"arch": "table", "init_scale": 0.05},
        "loss": {"lambda_dac": 1.0, "lambda_rkd": 0.001, "tau_dac": 0.95, "temperature": 1.0},
        "labels": {"strategy": "uniform_per_class", "n_per_class": 4},
        "optimizer": {"step_size": 0.5, "iterations": 400, "momentum": 0.9, "rkd_pairs": 64},
        "seed": 1,
        "tolerances": {},
        "out_dir": None,
    }
    for name, updates in sections.items():
        cfg[name] = {**cfg[name], **updates}
    path = tmp_path / "ab.json"
    dump_canonical(cfg, path)
    return path


def test_dac_on_ab_fixture_records_why_probes_are_skipped(tmp_path):
    # split_chain isolates parts of each class, so c_hat is 1
    path = ab_config(tmp_path, graph={"seed": 5})
    code = main(["dac", "--config", str(path), "--out", str(tmp_path / "dac")])
    assert code == 1
    report = json.loads((tmp_path / "dac" / "dac_report.json").read_text())
    assert report["c_hat"] == 1.0
    assert report["expansion_implication"] == {}
    assert report["expansion_implication_skipped"] == "c_hat=1.0 <= 1"


def sbm_chain_config(tmp_path, sizes, graph_seed=0):
    """A chain-augmented lazy two-block SBM config (p_in 0.9, p_out 0.05)."""
    cfg = {
        "graph": {"kind": "sbm", "num_classes": 2, "sizes": list(sizes), "p_in": 0.9,
                  "p_out": 0.05, "seed": graph_seed, "lazy": True},
        "augmentation": {"kind": "chain"},
        "kernel": {"kind": "graph_revealing"},
        "student": {"arch": "table", "init_scale": 0.05},
        "loss": {"lambda_dac": 1.0, "lambda_rkd": 0.001, "tau_dac": 0.95, "temperature": 1.0},
        "labels": {"strategy": "uniform_per_class", "n_per_class": 2},
        "optimizer": {"step_size": 0.4, "iterations": 200, "momentum": 0.9,
                      "sampler": "exhaustive"},
        "seed": 0,
        "tolerances": {"audit_rotations": 20},
        "out_dir": None,
    }
    path = tmp_path / f"sbm_{'_'.join(map(str, sizes))}_g{graph_seed}.json"
    dump_canonical(cfg, path)
    return path


def test_dac_records_verdict_above_component_cap(tmp_path, capsys):
    path = sbm_chain_config(tmp_path, [21, 21])
    code = main(["dac", "--config", str(path), "--out", str(tmp_path / "dac")])
    assert code == 1
    report = json.loads((tmp_path / "dac" / "dac_report.json").read_text())
    assert report["c_hat"] is None
    assert report["checked_subsets"] == 0
    assert report["thm5"]["verdict"] == "not-applicable: component above the exhaustive cap"
    assert report["expansion_implication"] == {}
    assert report["expansion_implication_skipped"] == (
        "NB component of 21 vertices exceeds the exhaustive cap 20")
    assert "c_hat=n/a" in capsys.readouterr().out


def test_dac_above_whole_graph_cap_skips_probes(tmp_path):
    # 20 vertices: c-expansion enumerates each 10-vertex chain, while the
    # whole-graph constant-expansion probes are above their cap
    path = sbm_chain_config(tmp_path, [10, 10])
    code = main(["dac", "--config", str(path), "--out", str(tmp_path / "dac")])
    assert code == 0
    report = json.loads((tmp_path / "dac" / "dac_report.json").read_text())
    assert report["exhaustive"] is True
    assert report["c_hat"] > 1.0
    assert report["thm5"]["verdict"] == "pass"
    assert report["expansion_implication"] == {}
    assert report["expansion_implication_skipped"] == "|X|=20 above the whole-graph cap 18"


def test_audit_decomposes_its_graph_once(tmp_path, graph_core_eighs):
    path = sbm_chain_config(tmp_path, [10, 10])  # 20 rotations
    code = main(["audit", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "a")])
    assert code == 0
    assert graph_core_eighs == [(20, 20)]


@pytest.mark.parametrize("graph_seed", [0, 4])
def test_audit_on_48_vertices_writes_report(tmp_path, graph_seed):
    path = sbm_chain_config(tmp_path, [24, 24], graph_seed)
    code = main(["audit", "--config", str(path), "--seed", "7", "--out", str(tmp_path / "a48")])
    assert code == 0
    report = json.loads((tmp_path / "a48" / "audit_report.json").read_text())
    assert report["thm1"]["verdicts"]["thm1"] == "pass"
    assert report["thm4"]["verdicts"]["thm4"] == "pass"


def test_labels_subcommand(tmp_path, audit_config):
    code = main(["labels", "--config", str(audit_config), "--seed", "2",
                 "--out", str(tmp_path / "lab")])
    assert code == 0
    report = json.loads((tmp_path / "lab" / "label_report.json").read_text())
    assert report["count"] == 4
    assert report["full_coverage"] is True


def test_ssl_and_report_subcommands(tmp_path, audit_config):
    code = main(["ssl", "--config", str(audit_config), "--seed", "7",
                 "--out", str(tmp_path / "runs" / "r1")])
    assert code == 0
    assert (tmp_path / "runs" / "r1" / "run_result.json").exists()
    code = main(["report", "--out", str(tmp_path / "runs")])
    assert code == 0
    summary = json.loads((tmp_path / "runs" / "report.json").read_text())
    assert len(summary["runs"]) == 1


def test_ssl_seed_is_the_recorded_seed(tmp_path, audit_config, monkeypatch):
    # --seed 3 on a seed-7 config writes what --sweep 3 writes for seed 3, config and hash included
    written = {}
    runs = {"single": ["--seed", "3", "--out", "out/seed_3"], "sweep": ["--sweep", "3", "--out", "out"]}
    for name, flags in runs.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["ssl", "--config", str(audit_config), *flags]) == 0
        written[name] = {p.name: p.read_bytes() for p in Path("out/seed_3").iterdir() if p.name != "timing.json"}
    assert written["single"] == written["sweep"]
    assert json.loads(written["single"]["config.json"])["seed"] == 3


def test_ssl_sweep(tmp_path, audit_config):
    code = main(["ssl", "--config", str(audit_config), "--sweep", "1,2",
                 "--out", str(tmp_path / "sweep")])
    assert code == 0
    assert (tmp_path / "sweep" / "seed_1" / "run_result.json").exists()
    assert (tmp_path / "sweep" / "seed_2" / "run_result.json").exists()


def test_validation_failure_exits_1(tmp_path, capsys):
    bad = {
        "graph": {"kind": "sbm", "num_classes": 2, "sizes": [3, 3], "p_in": 0.2,
                  "p_out": 0.9, "seed": 0},
        "kernel": {"kind": "graph_revealing"},
        "student": {"arch": "table"},
        "loss": {"lambda_dac": 1.0, "lambda_rkd": 0.0},
        "labels": {"strategy": "uniform_per_class", "n_per_class": 1},
        "optimizer": {},
        "seed": 0,
    }
    path = tmp_path / "bad.json"
    dump_canonical(bad, path)
    code = main(["rkd", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "p_out" in capsys.readouterr().err


def test_report_on_empty_directory_exits_1(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path)])
    assert code == 1
    assert "no run_result" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rkd", "ssl"])
@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_parametric_student_without_points_exits_1(tmp_path, audit_config, capsys, command, arch):
    cfg = json.loads(audit_config.read_text())
    cfg["student"] = {"arch": arch, "init_scale": 0.05}
    path = tmp_path / "no_points.json"
    dump_canonical(cfg, path)
    code = main([command, "--config", str(path), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{arch} student needs point coordinates" in capsys.readouterr().err


def test_ssl_lp_oracle_agrees_on_wide_cost_spectrum(tmp_path):
    # the trained student's Delta leaves LP costs from 1.0 down to 1.6e-15;
    # the unpolished simplex point missed the greedy optimum by 1.6e-9
    path = ab_config(tmp_path, loss={"lambda_rkd": 0.5, "temperature": 0.5, "tau_dac": 0.6})
    code = main(["ssl", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 0
    thm4 = json.loads((tmp_path / "out" / "audit_report.json").read_text())["thm4"]
    assert thm4["verdict"] == "pass"
    assert abs(thm4["lp_primal"] - 0.11600982867893615) < 1e-15


def _rename(section, key, typo):
    def edit(cfg):
        cfg[section][typo] = cfg[section].pop(key, 1)
    return edit


def _set(section, **values):
    return lambda cfg: cfg[section].update(values)


def _set_blobs(**values):
    """A two-blob graph section of 4 points per blob, with values replaced."""
    return lambda cfg: cfg.update(graph={"kind": "two_blobs", "n_per_class": 4, "separation": 4.0, "noise": 0.6,
                                         "bandwidth": 1.2, "seed": 5, **values})


def _set_cosine(**values):
    """A shifted_cosine kernel section with the given keys."""
    return lambda cfg: cfg.update(kernel={"kind": "shifted_cosine", **values})


# (case, edit of the audit_config document or the file's raw text, the key
# or fault stderr must name); every error but a BUILD_TIME case's also names
# the file
BAD_CONFIGS = [
    ("optimizer.iteration", _rename("optimizer", "iterations", "iteration"), "optimizer.iteration"),
    ("loss.lambda_rk", _rename("loss", "lambda_rkd", "lambda_rk"), "loss.lambda_rk"),
    ("student.hiden", _rename("student", "hidden", "hiden"), "student.hiden"),
    ("graph.p_inn", _rename("graph", "p_in", "p_inn"), "graph.p_inn"),
    ("unknown-section", lambda cfg: cfg.update(optimiser={}), "optimiser"),
    ("negative-iterations", _set("optimizer", iterations=-5), "optimizer.iterations"),
    ("zero-rkd-pairs", _set("optimizer", rkd_pairs=0), "optimizer.rkd_pairs"),
    ("zero-parts", _set("augmentation", kind="split_chain", parts=0), "augmentation.parts"),
    ("fractional-iterations", _set("optimizer", iterations=400.5), "optimizer.iterations"),
    ("bool-iterations", _set("optimizer", iterations=True), "optimizer.iterations"),
    ("fractional-rkd-pairs", _set("optimizer", rkd_pairs=2.5), "optimizer.rkd_pairs"),
    ("bool-sampler", _set("optimizer", sampler=True), "optimizer.sampler"),
    ("fractional-sampler", _set("optimizer", sampler=16.5), "optimizer.sampler"),
    ("tolerances.audit_rotation", _rename("tolerances", "audit_rotations", "audit_rotation"),
     "tolerances.audit_rotation"),
    ("string-rotations", _set("tolerances", audit_rotations="x"), "tolerances.audit_rotations"),
    ("fractional-rotations", _set("tolerances", audit_rotations=2.5), "tolerances.audit_rotations"),
    ("zero-rotations", _set("tolerances", audit_rotations=0), "tolerances.audit_rotations"),
    ("bool-rotations", _set("tolerances", audit_rotations=True), "tolerances.audit_rotations"),
    ("missing-section", lambda cfg: cfg.pop("kernel"), "kernel"),
    ("augmentation.parst", _set("augmentation", kind="split_chain", parst=2), "augmentation.parst"),
    ("labels.budjet", lambda cfg: cfg.update(labels={"strategy": "iid", "budjet": 4}), "labels.budjet"),
    ("labels.epsilom", _set("labels", strategy="coreset_greedy", budget=4, epsilom=0.2), "labels.epsilom"),
    ("kernel.bandwith", lambda cfg: cfg.update(kernel={"kind": "rbf", "bandwith": 1.0}), "kernel.bandwith"),
    ("kernel-without-kind", lambda cfg: cfg["kernel"].pop("kind"), "kernel.kind"),
    ("unknown-augmentation-kind", _set("augmentation", kind="shuffle"), "augmentation.kind"),
    ("unknown-label-strategy", _set("labels", strategy="random"), "labels.strategy"),
    ("unknown-graph-kind", _set("graph", kind="ring"), "graph.kind"),
    ("graph-without-kind", lambda cfg: cfg["graph"].pop("kind"), "graph.kind"),
    ("list-kind", _set("augmentation", kind=["chain"]), "augmentation.kind"),
    ("labels.seed", _set("labels", seed=3), "labels.seed"),
    ("iid-without-budget", lambda cfg: cfg.update(labels={"strategy": "iid"}), "labels.budget"),
    ("file-without-path", _set("augmentation", kind="file"), "augmentation.path"),
    ("string-kernel-noise", _set_cosine(noise="x"), "kernel.noise"),
    ("string-init-scale", _set("student", init_scale="x"), "student.init_scale"),
    ("string-tau", _set("loss", tau_dac="x"), "loss.tau_dac"),
    ("string-graph-noise", _set_blobs(noise="0.6"), "graph.noise"),
    ("string-momentum", _set("optimizer", momentum="x"), "optimizer.momentum"),
    ("bool-step-size", _set("optimizer", step_size=True), "optimizer.step_size"),
    ("bool-lambda-rkd", _set("loss", lambda_rkd=True), "loss.lambda_rkd"),
    ("string-b-f", _set("optimizer", b_f="0.5"), "optimizer.b_f"),
    ("int-lazy", _set("graph", lazy=1), "graph.lazy"),
    ("string-recycle-labeled", _set("optimizer", recycle_labeled="no"), "optimizer.recycle_labeled"),
    ("fractional-parts", _set("augmentation", kind="split_chain", parts=2.5), "augmentation.parts"),
    ("string-knn-k", _set("augmentation", kind="knn", k="3"), "augmentation.k"),
    ("float-n-per-class", _set("labels", n_per_class=4.0), "labels.n_per_class"),
    ("bool-kernel-dim", _set_cosine(dim=True), "kernel.dim"),
    ("zero-step-size", _set("optimizer", step_size=0), "optimizer.step_size"),
    ("negative-step-size", _set("optimizer", step_size=-0.5), "optimizer.step_size"),
    ("zero-temperature", _set("loss", temperature=0.0), "loss.temperature"),
    ("unknown-arch", _set("student", arch="cnn"), "student.arch"),
    ("zero-budget", lambda cfg: cfg.update(labels={"strategy": "iid", "budget": 0}), "labels.budget"),
    ("zero-n-per-class", _set("labels", n_per_class=0), "labels.n_per_class"),
    ("sbm-size-count", _set("graph", sizes=[10]), "graph.sizes"),
    ("sbm-empty-block", _set("graph", sizes=[0, 10]), "graph.sizes"),
    ("zero-blob-size", _set_blobs(n_per_class=0), "graph.n_per_class"),
    ("zero-bandwidth", _set_blobs(bandwidth=0.0), "graph.bandwidth"),
    ("negative-bandwidth", _set_blobs(bandwidth=-1.2), "graph.bandwidth"),
    ("negative-kernel-dim", _set_cosine(dim=-1), "kernel.dim"),
    ("zero-kernel-dim", _set_cosine(dim=0), "kernel.dim"),
    ("kernel-dim-above-size", _set_cosine(dim=11), "kernel.dim"),  # |X| + 1
    ("knn-without-points", _set("augmentation", kind="knn"), "knn augmentation needs point coordinates"),
    ("missing-file", None, None),
    ("malformed-json", '{"graph": ', None),
    ("top-level-list", "[1, 2]", None),
]


# the commands that read a case's value, where not rkd, ssl and audit
COMMANDS = {
    "zero-parts": ("dac", "ssl"),
    "knn-without-points": ("dac", "ssl"),
    "zero-budget": ("labels", "ssl"),
    "zero-n-per-class": ("labels", "ssl"),
    "negative-kernel-dim": ("rkd", "ssl"),
    "zero-kernel-dim": ("rkd", "ssl"),
    "kernel-dim-above-size": ("rkd", "ssl"),
    "unknown-arch": ("rkd", "ssl", "audit", "dac", "labels"),
}
# the cases rejected when a command builds what a section describes, not when
# it loads the config, whose errors therefore do not name the file
BUILD_TIME = {"zero-parts", "knn-without-points", "zero-budget", "zero-n-per-class", "sbm-size-count",
              "sbm-empty-block", "zero-blob-size", "zero-bandwidth", "negative-bandwidth", "negative-kernel-dim", "zero-kernel-dim",
              "kernel-dim-above-size"}


@pytest.mark.parametrize("case,edit,named,command", [
    pytest.param(case, edit, named, command, id=f"{case}-{command}")
    for case, edit, named in BAD_CONFIGS
    for command in COMMANDS.get(case, ("rkd", "ssl", "audit"))
])
def test_bad_config_exits_1_naming_the_key_or_the_path(tmp_path, audit_config, capsys, case, edit, named,
                                                        command):
    path = tmp_path / "bad.json"
    if isinstance(edit, str):
        path.write_text(edit)
    elif edit is not None:
        cfg = json.loads(audit_config.read_text())
        edit(cfg)
        path.write_text(json.dumps(cfg, sort_keys=True))  # keeps a float such as 4.0 a float
    code = main([command, "--config", str(path), "--seed", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err, err
    if named:
        assert named in err, err
    if case not in BUILD_TIME:
        assert str(path) in err, err


def test_shifted_cosine_kernel_takes_every_eigenvector(tmp_path, audit_config):
    # kernel.dim may be |X| = 10; the kernel is then the shifted cosine of the full spectral embedding
    cfg = json.loads(audit_config.read_text())
    cfg["kernel"] = {"kind": "shifted_cosine", "dim": 10}
    path = tmp_path / "dim.json"
    dump_canonical(cfg, path)
    assert main(["rkd", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "rkd")]) == 0


def test_rkd_and_ssl_share_the_optimizer_defaults(tmp_path, audit_config):
    # step_size 0.5 and 500 iterations for both commands (rkd used 0.3 and 1000)
    cfg = json.loads(audit_config.read_text())
    del cfg["optimizer"]["step_size"], cfg["optimizer"]["iterations"]
    path = tmp_path / "defaults.json"
    dump_canonical(cfg, path)
    assert main(["rkd", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "rkd")]) == 0
    assert len((tmp_path / "rkd" / "losses.csv").read_text().splitlines()) == 1 + 500
    assert abs(json.loads((tmp_path / "rkd" / "rkd_report.json").read_text())["gap"]) <= 1e-12
    assert main(["ssl", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "ssl")]) == 0
    assert json.loads((tmp_path / "ssl" / "run_result.json").read_text())["iterations"] == 500


def test_ssl_with_a_wrong_gradient_exits_1(tmp_path, audit_config, capsys, monkeypatch):
    backward = StudentModel.backward
    monkeypatch.setattr(StudentModel, "backward", lambda self, features, gscores:
                        1.01 * backward(self, features, gscores))
    code = main(["ssl", "--config", str(audit_config), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "gradient check failed" in capsys.readouterr().err


def test_ssl_sweep_stops_at_the_first_seed_that_fails_before_training(tmp_path, capsys):
    # 20 i.i.d. draws label all ten vertices at seed 2 only, which leaves it no
    # training pool: seeds 1 and 3 train and are written, 2 and 4 are not
    path = ab_config(tmp_path, graph={"n_per_class": 5, "separation": 1.5, "noise": 0.5, "seed": 5},
                     optimizer={"iterations": 5, "recycle_labeled": False})
    cfg = json.loads(path.read_text())
    cfg.update(augmentation={"kind": "chain"}, labels={"strategy": "iid", "budget": 20})
    dump_canonical(cfg, path)
    assert main(["ssl", "--config", str(path), "--seed", "2", "--out", str(tmp_path / "single")]) == 1
    single = capsys.readouterr().err
    assert main(["ssl", "--config", str(path), "--sweep", "1,3,2,4", "--out", str(tmp_path / "sweep")]) == 1
    assert capsys.readouterr().err == single and "unlabeled training pool is empty" in single
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == ["seed_1", "seed_3"]
    for seed in (1, 3):
        assert (tmp_path / "sweep" / f"seed_{seed}" / "run_result.json").exists()


def test_ssl_with_empty_training_pool_exits_1(tmp_path, capsys):
    # every vertex labeled and labeled vertices not recycled: nothing to train on
    path = ab_config(tmp_path, labels={"n_per_class": 16}, optimizer={"recycle_labeled": False})
    code = main(["ssl", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "recycle_labeled" in err and "unlabeled training pool is empty" in err
