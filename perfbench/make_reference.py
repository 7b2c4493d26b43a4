"""Regenerate the committed reference outputs in reference/ at the default seed.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only when a change to obsent is meant to change its outputs, and say
so in the change's notes: checks.py compares every default-seed invocation
with these files.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, run  # noqa: E402


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS + run.EXTRA_WORKLOADS:
        workdir = run.WORK / f"{workload}-reference"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        argv = run.prepare(workload, run.DEFAULT_SEED, workdir)
        result = run.run_op_unchecked(argv, workdir, trace=False)
        if result.get("exit_code") != 0:
            print(f"{workload}: invocation failed: {result}", file=sys.stderr)
            return 1
        target = checks.REFERENCE_DIR / checks.REFERENCE_FILES[workload]
        if workload == "verify-all":
            report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
            summary = {"argv": argv, "properties": checks.verify_summary(report)}
            target.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        else:
            output = "table.json" if workload == "entropy-seq512" else "run.csv"
            shutil.copyfile(workdir / output, target)
        print(f"{workload}: wrote {target.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
