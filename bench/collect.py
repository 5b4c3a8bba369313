"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/collect.py --workloads verify-all,cusp-expand --seeds 1-10 \\
        --seconds 36 [--trace-seed 7] [--out bench/results/BENCH_x.json] [--label TEXT]

Run from the repository root.  Each run is a fresh ``bench/run.py`` process.
For every workload and end-to-end metric it reports the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median.  With --trace-seed it also makes two traced runs with
that seed and checks that every count (unit "count" or "bits") is identical.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

RUN = [sys.executable, "bench/run.py"]
EXACT_UNITS = ("count", "bits")


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "seed": seed,
        "elapsed_s": elapsed,
        "context": json.loads(lines[-2])["context"],
        "result": json.loads(lines[-1]),
    }


def summarize(runs) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def exact_differences(a: dict, b: dict) -> list:
    return sorted(
        name for name, m in a["result"]["metrics"].items()
        if m["unit"] in EXACT_UNITS and m["value"] != b["result"]["metrics"][name]["value"]
    )


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()
    report = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, 0))
            ctx = runs[-1]["context"]
            print(f"{workload} seed={seed} jobs={ctx['jobs']} "
                  f"probe={ctx['host_probe_s'][0]:.3f}/{ctx['host_probe_s'][1]:.3f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["result"]["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry = {"runs": runs, "summary": summarize(runs)}
        for name, s in entry["summary"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}",
                  file=sys.stderr)
        if args.trace_seed is not None:
            traced = [run_once(workload, args.trace_seed, args.seconds, 1) for _ in range(2)]
            entry["traced"] = traced
            entry["trace_counts_differ"] = exact_differences(*traced)
            print(f"  {workload} traced: counts differ {entry['trace_counts_differ']}, "
                  f"uncovered {traced[0]['context']['uncovered']}, "
                  f"elapsed {traced[0]['elapsed_s']:.1f}/{traced[1]['elapsed_s']:.1f}s",
                  file=sys.stderr)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
