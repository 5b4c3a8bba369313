"""Cold-job benchmark of the genuslab CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs one job at a time in a closed
loop: each job is a ``genuslab`` command line from the workload's fixed pool,
run cold in a child forked after ``import genuslab.cli`` (see jobs.py).  Every
job's exit code and stdout digest are checked against golden.json.

--trace 0 measures for S seconds and reports the end-to-end metrics.
--trace 1 runs a fixed list of jobs, each once untraced and once with the
layer tracer installed (see tracer.py), and reports the per-layer metrics;
its counts repeat exactly for any seed.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run's context (host probe,
tail percentile, fail ratio, coverage).  See README.md for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import statistics
import sys
import time
from fractions import Fraction

import jobs

SETUP_SAMPLES = 4       # fresh-interpreter imports at each end of a run
BLOCK = 4               # jobs per block of the cycle that a seed may reorder
TAIL_BEYOND = 10        # the tail percentile has at least this many jobs above it
TRACE_STRIDE = {"verify-all": 1, "cusp-expand": 2, "rigidity-sweep": 1}

E2E_UNITS = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = ("generating", "normalization", "closedform", "euler", "ahat-vanishing",
          "modularity", "rigidity", "localterms", "expansion", "selfintersection",
          "obstruction", "codes", "roundtrip")

# (layer, fields) reported by a traced run; every field is summed over its jobs
LAYERS = (
    ("series.qseries_mul", ("calls", "self_s", "coeff_products")),
    ("series.qseries_add", ("calls", "self_s")),
    ("series.qseries_inverse", ("calls", "self_s")),
    ("series.truncpoly_mul", ("calls", "self_s")),
    ("series.truncpoly_inverse", ("calls", "self_s")),
    ("series.truncpoly_compose", ("calls", "self_s")),
    ("rings.is_zero", ("calls",)),
    ("manifolds.builtin", ("calls", "misses", "incl_s")),
    ("manifolds.integrate", ("calls", "self_s")),
    ("genus.index_density", ("calls", "hit_ratio", "incl_s")),
    ("genus.word_factor_product", ("calls", "incl_s")),
    ("genus.twisted_index", ("calls", "incl_s")),
    ("genus.char_series", ("calls", "incl_s")),
    ("genus.genus_value", ("calls", "incl_s")),
    ("cusp.generator_expansions", ("calls", "hit_ratio", "incl_s")),
    ("cusp.verify_modularity", ("incl_s",)),
    ("cusp.normalized_phi", ("incl_s",)),
    ("localization.local_term", ("calls", "incl_s", "self_s")),
    ("localization.rigidity_check", ("incl_s",)),
    ("obstructions.code_audit", ("incl_s",)),
    ("obstructions.cross_check_prediction", ("incl_s",)),
    *((f"suites.{suite}", ("incl_s",)) for suite in SUITES),
    ("cli.emit", ("incl_s",)),
)
FIELD_UNITS = {"calls": "count", "misses": "count", "coeff_products": "count",
               "hit_ratio": "ratio", "self_s": "s", "incl_s": "s"}

_INTEGER = re.compile(rb"\d+")


def host_probe() -> float:
    """Seconds for a fixed pure-Python Fraction loop; context only."""
    t0 = time.perf_counter()
    acc = Fraction(1)
    for i in range(1, 20000):
        acc = acc * Fraction(i + 1, i) + Fraction(1, i * i + 1)
        if acc.denominator > 1 << 256:
            acc = Fraction(acc.numerator % 1000003 + 1, 7)
    return time.perf_counter() - t0


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs above it."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100 * (index + 1) // n


def coeff_bits(stdout: bytes) -> int:
    """Bit length of the largest integer written in a job's output."""
    return max((int(m).bit_length() for m in _INTEGER.findall(stdout)), default=0)


def seeded_passes(order, seed):
    """Endless passes over the cycle; each pass shuffles jobs within each block.

    Every pass starts at the same block, so runs with different seeds measure
    nearly the same mix of jobs in a different order.
    """
    rng = random.Random(seed)
    blocks = [order[i:i + BLOCK] for i in range(0, len(order), BLOCK)]
    while True:
        for block in blocks:
            yield from rng.sample(block, len(block))


def closed_loop(order, seed, seconds):
    """Run jobs from seeded passes over the cycle for `seconds`."""
    results = []
    passes = seeded_passes(order, seed)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        results.append(jobs.run_cold(next(passes)))
    return results, time.perf_counter() - t0


def per_job_median(results):
    """Median over the distinct jobs run of each job's median wall time.

    Every pool job weighs the same however often the run repeated it, so
    runs that end at different points of a pass still compare.
    """
    by_job = {}
    for r in results:
        by_job.setdefault(r.argv, []).append(r.wall_s)
    return statistics.median(statistics.median(v) for v in by_job.values())


def end_to_end(results, wall, setups):
    times = [r.wall_s for r in results]
    tail_value, tail_pct = tail(times)
    metrics = {
        "job_s.p50": per_job_median(results),
        "job_s.tail": tail_value,
        "jobs_per_s": len(results) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.peak_rss_kb for r in results) / 1024,  # ru_maxrss is KiB
    }
    context = {
        "tail_percentile": tail_pct,
        "gaussian_share": sum(jobs.uses_gaussian(r.argv) for r in results) / len(results),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, context


def traced_pairs(trace_list):
    """Each job once untraced and once traced, alternating which goes first."""
    plain, traced = [], []
    for i, argv in enumerate(trace_list):
        if i % 2:
            traced.append(jobs.run_cold(argv, traced=True))
            plain.append(jobs.run_cold(argv))
        else:
            plain.append(jobs.run_cold(argv))
            traced.append(jobs.run_cold(argv, traced=True))
    return plain, traced


def per_layer(workload, plain, traced):
    by_key, layers = {}, {}  # per wrapped function: summed stats, (layer, workloads)
    for result in traced:
        if result.trace is None:  # the job died; it is counted as failed
            continue
        layers.update(result.trace["layers"])
        for key, stat in result.trace["stats"].items():
            _accumulate(by_key.setdefault(key, dict.fromkeys(stat, 0)), stat)
    uncovered = sorted(
        key for key, (_, workloads) in layers.items()
        if workload in workloads and not by_key[key]["calls"]
    )
    totals = {}
    for key, stat in by_key.items():
        _accumulate(totals.setdefault(layers[key][0], dict.fromkeys(stat, 0)), stat)
    metrics = {}
    for layer, fields in LAYERS:
        total = totals.get(layer, {})
        calls = total.get("calls", 0)
        for field in fields:
            if field == "hit_ratio":
                value = total.get("repeats", 0) / calls if calls else 0.0
            elif field == "misses":
                value = calls - total.get("repeats", 0)
            else:
                value = total.get(field, 0)
            metrics[f"{layer}.{field}"] = {"value": value, "unit": FIELD_UNITS[field]}
    metrics["series.coeff_bits_max"] = {
        "value": max(coeff_bits(r.stdout) for r in traced), "unit": "bits"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in plain),
        "unit": "ratio",
    }
    return metrics, uncovered


def _accumulate(total: dict, stat: dict) -> None:
    for field, value in stat.items():
        total[field] += value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (jobs.SRC / "genuslab" / "cli.py").is_file():
        print(f"no genuslab source tree at {jobs.SRC}", file=sys.stderr)
        return 2
    golden = jobs.load_golden()
    pool = jobs.POOLS[args.workload]
    missing = [jobs.job_key(a) for a in pool if jobs.job_key(a) not in golden]
    if missing:
        print(f"jobs without a golden digest: {missing}", file=sys.stderr)
        return 2
    order = jobs.cycle(pool, golden)

    jobs.import_cli()
    jobs.setup_seconds()  # untimed: compiles the bytecode cache on a first run
    probe = [host_probe()]
    if args.trace:
        trace_list = order[:: TRACE_STRIDE[args.workload]]
        plain, traced = traced_pairs(random.Random(args.seed).sample(trace_list, len(trace_list)))
        results = plain + traced
        metrics, uncovered = per_layer(args.workload, plain, traced)
        context = {"trace_jobs": len(traced), "uncovered": uncovered}
    else:
        setups = [jobs.setup_seconds() for _ in range(SETUP_SAMPLES)]
        results, wall = closed_loop(order, args.seed, args.seconds)
        setups += [jobs.setup_seconds() for _ in range(SETUP_SAMPLES)]
        metrics, context = end_to_end(results, wall, setups)
        context["setup_samples_s"] = setups
    probe.append(host_probe())
    failed = sum(not jobs.matches_golden(r, golden) for r in results)
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(results),
        "fail_ratio": failed / len(results),
        "host_probe_s": probe,
    })
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
