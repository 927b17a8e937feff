"""Rebuild reference.json: the outcome of every op any workload seed can produce.

    python3 benchmarks/record_reference.py

Run from the root of a source checkout.  Takes a few minutes (the |X| = 2048
SSL runs dominate).  Record only at a commit whose outputs are known good;
run.py checks every op against this file.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    cli = run.load_program()
    reference = {}
    tmp_root = run.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference_", dir=tmp_root))
    try:
        made = workloads.all_reference_ops()
        configs = {}
        for _, cfgs in made:
            configs.update(cfgs)
        workloads.write_configs(configs, scratch / "inputs")
        runner = run.Runner(cli, {}, scratch / "inputs", scratch / "out")
        for op, _ in made:
            rec = runner.execute(op)
            if rec["failed"]:
                reference[op.key] = {"error": rec["error"]}
            else:
                reference.update(workloads.observe(op, rec["rc"], rec["out"]))
            print(f"{rec['latency']:8.3f}s {op.key}: {'failed: ' + rec['error'] if rec['failed'] else 'ok'}",
                  flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} reference outcomes -> {path}")


if __name__ == "__main__":
    main()
