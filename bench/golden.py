"""Record the golden exit code, stdout digest and nominal time of every pool job.

Run from the repository root, only at a commit whose output is accepted as
correct:

    python3 bench/golden.py

Each job runs cold three times; the three outputs must be byte-identical.
`nominal_s` is the median wall time and is used only to order the job cycle
(see `jobs.cycle`), never as a result.
"""

from __future__ import annotations

import json
import statistics
import sys

import jobs

REPEATS = 3


def main() -> int:
    jobs.import_cli()
    golden = {}
    for workload, pool in jobs.POOLS.items():
        for argv in pool:
            results = [jobs.run_cold(argv) for _ in range(REPEATS)]
            outcomes = {(r.exit_code, jobs.digest(r.stdout)) for r in results}
            if len(outcomes) != 1:
                print(f"nondeterministic output: {jobs.job_key(argv)}", file=sys.stderr)
                return 1
            (code, sha), = outcomes
            nominal = statistics.median(r.wall_s for r in results)
            golden[jobs.job_key(argv)] = {"exit": code, "sha256": sha, "nominal_s": round(nominal, 3)}
            print(f"{workload:15s} {nominal:7.3f}s exit={code} {jobs.job_key(argv)}", file=sys.stderr)
    with open(jobs.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
