"""Command-line entry points for the workbench.

Each subcommand reads a config (or generator flags), runs the corresponding
module, writes JSON/CSV artifacts under the output directory, and prints a
one-line summary.  Exit codes: 0 success, 1 validation/runtime failure with
the violated invariant named, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import jsonio
from .errors import RkdlabError, TrainingDivergedError
from .graph_core import (
    build_two_blobs,
    inter_class_fraction,
    load_graph,
    save_graph,
    spectral_decompose,
)
from .spectral_rkd import (
    Prediction,
    population_minimizers,
    population_rkd_loss,
    random_rotations,
    save_checkpoint,
    save_loss_trace,
    train_student,
)
from .ssl_harness import (
    ExperimentConfig,
    build_augmentation_fixture,
    build_graph_fixture,
    build_kernel_fixture,
    build_student,
    acquire_labels,
    run_experiment,
    run_sweep,
    sbm_graph,
)


def _cmd_graph(args) -> int:
    if args.gen == "sbm":
        sizes = [int(s) for s in args.sizes.split(",")]
        g = sbm_graph(args.k, sizes, args.p_in, args.p_out, args.seed, lazy=args.lazy)
    else:  # two-blobs, the parser's only other choice
        g, _ = build_two_blobs(args.n_per, seed=args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_graph(g, args.out)
    print(f"graph |X|={g.size} K={g.num_classes} alpha={inter_class_fraction(g):.6g} -> {args.out}")
    return 0


def _cmd_spectra(args) -> int:
    g = load_graph(args.graph)
    dec = spectral_decompose(g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jsonio.dump_canonical(
        {
            "eigenvalues": [float(x) for x in dec.eigenvalues],
            "trace": float(np.sum(dec.eigenvalues)),
            "alpha": inter_class_fraction(g),
        },
        out / "spectra.json",
    )
    print(f"spectra |X|={g.size} lambda_2={dec.eigenvalues[1]:.6g} -> {out / 'spectra.json'}")
    return 0


def _cmd_rkd(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    g, points = build_graph_fixture(cfg)
    kernel = build_kernel_fixture(cfg, g, points)
    model, features = build_student(g, points, args.seed, **cfg.student)
    trace = []
    trained, report = train_student(model, g, kernel, replace(cfg.opt, seed=args.seed), features=features,
                                    trace_out=trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(trained, args.seed, out / "checkpoint.json")
    save_loss_trace(trace, out / "losses.csv")
    jsonio.dump_canonical(asdict(report), out / "rkd_report.json")
    print(f"rkd gap={report.gap:.6g} population_loss={report.population_loss:.6g} -> {out}")
    return 0


def _cmd_audit(args) -> int:
    from .clustering_audit import theorem1_check, theorem4_check

    cfg = ExperimentConfig.from_file(args.config)
    g, _ = build_graph_fixture(cfg)
    K = g.num_classes
    rotations = random_rotations(K, cfg.audit_tolerances.audit_rotations, np.random.default_rng(args.seed))
    family = population_minimizers(g, K, rotations)
    thm1 = theorem1_check(family, g)
    dec = spectral_decompose(g)
    f0 = Prediction(scores=family[0])
    delta = max(population_rkd_loss(f0, g) - dec.residual_weights(K), 0.0)
    thm4 = theorem4_check(f0, g, Delta=delta, K0=K)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"thm1": thm1.to_dict(), "thm4": thm4.to_dict()}
    jsonio.dump_canonical(payload, out / "audit_report.json")
    verdicts = [thm1.verdicts.get("thm1"), thm4.verdicts.get("thm4")]
    print(f"audit verdicts thm1={verdicts[0]} thm4={verdicts[1]} -> {out / 'audit_report.json'}")
    return 0 if all(v == "pass" for v in verdicts) else 1


def _cmd_dac(args) -> int:
    from .dac_expansion import estimate_c_expansion, expansion_implication_check, theorem5_check
    from .errors import SizeLimitError

    cfg = ExperimentConfig.from_file(args.config)
    g, points = build_graph_fixture(cfg)
    aug = build_augmentation_fixture(cfg, g, points)
    try:
        report = estimate_c_expansion(aug, g)
        implication = expansion_implication_check(aug, g)
        expansion = {"c_hat": report.c_hat, "checked_subsets": report.checked_subsets,
                     "exhaustive": report.exhaustive,
                     "expansion_implication": {str(k): v for k, v in implication["probes"].items()}}
        if not implication["applicable"]:
            expansion["expansion_implication_skipped"] = implication["reason"]
    except SizeLimitError as exc:  # theorem5_check records the cap as its verdict
        expansion = {"c_hat": None, "checked_subsets": 0, "exhaustive": False,
                     "expansion_implication": {}, "expansion_implication_skipped": str(exc)}
    # audit a family of lightly corrupted one-hot predictors (seeded flips)
    rng = np.random.default_rng(args.seed)
    family = [Prediction(scores=np.eye(g.num_classes)[g.labels].astype(float))]
    for _ in range(5):
        flips = rng.random(g.size) < 0.1
        noisy = np.where(flips, (g.labels + 1) % g.num_classes, g.labels)
        family.append(Prediction(scores=np.eye(g.num_classes)[noisy].astype(float)))
    mu, bound, verdict = theorem5_check(family, aug, g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jsonio.dump_canonical(
        {**expansion, "thm5": {"mu": mu, "bound": bound, "verdict": verdict}},
        out / "dac_report.json",
    )
    c_hat = expansion["c_hat"]
    c_text = "n/a" if c_hat is None else f"{c_hat:.6g}"
    print(f"dac c_hat={c_text} thm5={verdict} -> {out / 'dac_report.json'}")
    return 0 if verdict == "pass" else 1


def _cmd_labels(args) -> int:
    from .label_acquisition import save_labeled

    cfg = ExperimentConfig.from_file(args.config)
    g, points = build_graph_fixture(cfg)
    kernel = build_kernel_fixture(cfg, g, points)
    labeled = acquire_labels(cfg, g, kernel, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_labeled(labeled, out / "labels.csv")
    classes = sorted(set(labeled.classes().tolist()))
    jsonio.dump_canonical(
        {
            "strategy": labeled.strategy,
            "count": len(labeled.pairs),
            "classes_covered": classes,
            "full_coverage": len(classes) == g.num_classes,
        },
        out / "label_report.json",
    )
    print(f"labels n={len(labeled.pairs)} strategy={labeled.strategy} -> {out / 'labels.csv'}")
    return 0


def _cmd_ssl(args) -> int:
    cfg = replace(ExperimentConfig.from_file(args.config), out_dir=args.out)
    if args.sweep:
        seeds = [int(s) for s in args.sweep.split(",")]
        results = run_sweep(cfg, seeds)
        diverged = [s for s, r in zip(seeds, results) if isinstance(r, TrainingDivergedError)]
        for s in diverged:
            print(f"error: training diverged for seed {s}, record at "
                  f"{Path(args.out) / f'seed_{s}' / 'failed_run.json'}", file=sys.stderr)
        accs = [None if isinstance(r, TrainingDivergedError) else round(r.accuracy, 4) for r in results]
        print(f"ssl sweep seeds={seeds} accuracies={accs} -> {args.out}")
        return 1 if diverged else 0
    try:
        result = run_experiment(cfg, seed=args.seed)
    except TrainingDivergedError:
        print(f"error: training diverged, record at {Path(args.out) / 'failed_run.json'}", file=sys.stderr)
        return 1
    print(f"ssl accuracy={result.accuracy:.4f} verdicts="
          f"{[v.get('verdict') for v in result.audits.values()]} -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    root = Path(args.out)
    rows = []
    for path in sorted(root.glob("**/run_result.json")):
        data = jsonio.load(path)
        rows.append({
            "run": str(path.parent.relative_to(root)),
            "accuracy": data["accuracy"],
            "config_hash": data["config_hash"],
            "verdicts": {k: v.get("verdict") for k, v in data["audits"].items()},
        })
    if not rows:
        raise RkdlabError(f"no run_result.json files under {root}")
    jsonio.dump_canonical({"runs": rows}, root / "report.json")
    print(f"report {len(rows)} runs -> {root / 'report.json'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="rkdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="generate a population graph file")
    p.add_argument("--gen", required=True, choices=["sbm", "two-blobs"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--sizes", default="4,4", help="comma-separated block sizes")
    p.add_argument("--p-in", type=float, default=1.0)
    p.add_argument("--p-out", type=float, default=0.0)
    p.add_argument("--n-per", type=int, default=10)
    p.add_argument("--lazy", action="store_true", help="move half the mass to self-loops")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("spectra", help="eigendecompose a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectra)

    for name, fn, needs_seed in (
        ("rkd", _cmd_rkd, True),
        ("audit", _cmd_audit, True),
        ("dac", _cmd_dac, False),
        ("labels", _cmd_labels, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, required=needs_seed, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("ssl", help="run the combined semi-supervised experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--sweep", default=None, help="comma-separated seeds, trained together in lockstep")
    p.set_defaults(func=_cmd_ssl)

    p = sub.add_parser("report", help="aggregate run results under a directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RkdlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
