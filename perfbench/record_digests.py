"""Record the result digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py [FIRST LAST]

Runs one pass per workload and seed (default seeds 0..30) and rewrites
digests.json.  Re-record only when a change is meant to alter results, and
say so in the change.  A pass with a failed op is not recorded.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import DIGESTS, WORKLOADS, Runner, load_circdeg


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 30)
    cli = load_circdeg()
    digests: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in range(first, last + 1):
            runner = Runner(cli, workload, seed, workloads.make_ops(workload, seed), None)
            runner.expected_digest = None
            runner.run_pass()
            runner.close()
            if runner.failed:
                print(f"{workload} seed {seed}: {runner.failures[0]}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = runner.first_digest
            print(f"{workload} seed {seed} {runner.first_digest[:16]}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
