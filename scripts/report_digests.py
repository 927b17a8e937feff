"""Digest every benchmark reference op and a fixed set of SSL sweeps: exit status, output text and file hashes.

    python3 scripts/report_digests.py --out digests.json
    python3 scripts/report_digests.py --root ../other-checkout --out other.json
    diff digests.json other.json

Runs each op of ``benchmarks.workloads.all_reference_ops()``, then each sweep of
``sweep_ops()`` (paths the benchmark does not take: knn views, parametric
students, a training pool without the labeled vertices, a row-norm cap), in
this process through ``rkdlab.cli.main``, importing ``rkdlab`` from ``<root>/src`` and the
workloads from ``<root>/benchmarks`` (``--root`` defaults to the checkout
holding this script).  For each op key it records the exit status, standard
output, standard error, and the sha256 of every file the op wrote except those
holding wall-clock time.  Ops run in a scratch working directory on the
relative paths ``inputs`` and ``out``, which also reach the reports (an SSL
run's config keeps its ``out_dir``), so two checkouts that behave alike write
the same JSON file, and a change that must keep report bytes is checked with
one diff.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent


def load(root: Path):
    """rkdlab.cli and the benchmark's workloads module from the checkout at root."""
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import rkdlab
    import rkdlab.cli
    import workloads

    if Path(rkdlab.__file__).resolve().parent != (root / "src" / "rkdlab").resolve():
        raise SystemExit(f"error: imported rkdlab from {rkdlab.__file__}, not from {root / 'src'}")
    return rkdlab.cli, workloads


SWEEP_SEEDS = (1, 2, 5)


def sweep_ops(workloads) -> list:
    """``ssl --sweep 1,2,5`` ops on the 32-vertex A/B blobs (graph seed 5): knn
    views (k 3) for the table, linear and mlp students, each with the labeled
    vertices in the training pool and, with i.i.d. labels, without them; and
    the table student under a row-norm cap."""
    made = []
    for arch in ("table", "linear", "mlp"):
        for recycle in (True, False):
            cfg = workloads.ab_config(16, 0.001, 5, labels=None if recycle else {"strategy": "iid", "budget": 6})
            cfg["augmentation"] = {"kind": "knn", "k": 3}
            cfg["student"] = {"arch": arch, "init_scale": 0.05}
            cfg["optimizer"]["recycle_labeled"] = recycle
            made.append((f"knn3|{arch}|recycle={recycle}", cfg))
    capped = workloads.ab_config(16, 0.001, 5)
    capped["optimizer"]["b_f"] = 0.05
    made.append(("b_f=0.05", capped))
    return [(workloads.Op(f"ssl-sweep|{name}", "ssl", f"sweep_{i}.json", SWEEP_SEEDS, "run_result.json"),
             {f"sweep_{i}.json": cfg}) for i, (name, cfg) in enumerate(made)]


def digest_op(cli, workloads, op, inputs: Path, out: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(op.argv(inputs, out))
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # an uncaught program error is recorded, not fatal
            rc = f"uncaught {type(exc).__name__}: {exc}"
    files = workloads.file_digests(out) if out.exists() else {}
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout to run")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    target = args.out.resolve()
    cli, workloads = load(args.root.resolve())
    ops = workloads.all_reference_ops() + sweep_ops(workloads)
    configs = {}
    for _, cfgs in ops:
        configs.update(cfgs)
    home = Path.cwd()
    scratch = Path(tempfile.mkdtemp(prefix="report_digests_"))
    try:
        os.chdir(scratch)
        inputs, out = Path("inputs"), Path("out")
        workloads.write_configs(configs, inputs)
        result = {}
        for op, _ in ops:
            result[op.key] = digest_op(cli, workloads, op, inputs, out)
            shutil.rmtree(out, ignore_errors=True)
    finally:
        os.chdir(home)
        shutil.rmtree(scratch, ignore_errors=True)
    target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} ops -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
