"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs each workload once clean (every op must pass) and once per injected
fault (the run must report failed ops and exit 1).  The runs are short:
one or two passes each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import FAULTS, OUT_DIR, ROOT, WORKLOADS

SEED = 1  # has a recorded digest, which the fix-order fault needs


def run(workload: str, fault: str | None) -> tuple[int, dict]:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", str(SEED), "--seconds", "0",
            "--trace", "0", "--out", str(OUT_DIR / "selftest.jsonl")]
    if fault:
        argv += ["--inject-fault", fault]
    child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    lines = child.stdout.strip().splitlines()
    return child.returncode, json.loads(lines[-1]) if lines else {}


def main() -> int:
    problems = []
    cases = [(w, None) for w in WORKLOADS] + [(w, f) for f, (w, _) in FAULTS.items()]
    for workload, fault in cases:
        status, result = run(workload, fault)
        failed = result.get("failed")
        expected = "0 failed, exit 0" if fault is None else "failed > 0, exit 1"
        ok = (status, failed == 0) == ((0, True) if fault is None else (1, False))
        ok = ok and failed is not None
        print(f"{'ok  ' if ok else 'FAIL'} {workload:<10} fault={fault}: "
              f"exit {status}, failed {failed} of {result.get('attempted')} (want {expected})")
        if not ok:
            problems.append((workload, fault))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
