"""Job pools and the cold-job runner.

A job is one ``genuslab`` command line.  Each job runs in a child forked from
a parent that has imported ``genuslab.cli`` but never called into it, so the
child starts with every module-level cache empty, as a fresh CLI process
does.  The interpreter start and the import itself are timed separately as
the benchmark's set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

JOB_TIMEOUT_S = 60  # a child still running after this is killed and counted as failed


def _expand_pool():
    manifolds = ("CP4", "CP6", "CP8", "HP2", "HP3", "HP4", "V(4,4)",
                 "product(CP2,CP2)", "product(HP2,HP2)")
    return [
        ("expand", "--manifold", f"builtin:{m}", "--cusp", cusp, "--qorder", str(q))
        for m in manifolds
        for cusp in ("ahat", "signature")
        for q in (16, 24)
    ]


def _rigidity_pool():
    pairs = (
        ("HP2_diagonal(1,2,4)", "2,3,5"),
        ("HP2_diagonal(1,2,4)", "i,-i,2"),
        ("HP3_diagonal(1,2,3,5)", "2,3,5"),
        ("CP2_linear(0,1,3)", "i,-i,2"),
        ("CP3_linear(0,1,2,3)", "2,3,5"),
        ("CP4_linear(0,1,2,3,5)", "2,3,5"),
        ("CP4_linear(0,0,1,1,2)", "2,3"),  # non-isolated fixed components
    )
    return [
        ("rigidity", "--action", f"builtin:{action}", "--lambda", samples, "--qorder", str(q))
        for action, samples in pairs
        for q in (8, 12)
    ]


POOLS = {
    "verify-all": [("verify", "--suite", "all", "--qorder", str(q)) for q in range(4, 9)],
    "cusp-expand": _expand_pool(),
    "rigidity-sweep": _rigidity_pool(),
}


def job_key(argv) -> str:
    return " ".join(argv)


def uses_gaussian(argv) -> bool:
    """True for a rigidity job with a sample in Q(i) \\ Q."""
    if "--lambda" not in argv:
        return False
    samples = argv[argv.index("--lambda") + 1].split(",")
    return any(s.strip() in ("i", "-i") for s in samples)


def load_golden() -> dict:
    """{job key: {"exit", "sha256", "nominal_s"}} recorded at the baseline commit."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def cycle(pool, golden) -> list:
    """The pool in a fixed order that interleaves cheap and costly jobs.

    Jobs are ranked by their recorded nominal time and rank r is placed where
    the golden-ratio sequence frac(i * phi) has rank r, so every stretch of
    consecutive jobs mixes costs evenly and a run that ends part-way through
    the pool still sees a representative mix.
    """
    phi = (math.sqrt(5) - 1) / 2
    ranked = sorted(pool, key=lambda argv: (golden[job_key(argv)]["nominal_s"], argv))
    slots = sorted(range(len(pool)), key=lambda i: (i * phi) % 1)
    order = [None] * len(pool)
    for rank, slot in enumerate(slots):
        order[slot] = ranked[rank]
    return order


@dataclass
class JobResult:
    argv: tuple
    wall_s: float
    exit_code: int
    stdout: bytes
    peak_rss_kb: int
    trace: dict | None


def _run_main(argv) -> int:
    """Run the CLI entry point the way ``sys.exit(main())`` would."""
    from genuslab.cli import main

    try:
        return main(list(argv))
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


def _child(argv, out_w: int, trace_w: int | None) -> None:
    """Body of the forked child; never returns."""
    code = 1
    try:
        signal.alarm(JOB_TIMEOUT_S)
        os.dup2(out_w, 1)
        os.close(out_w)
        tracer = layers = None
        if trace_w is not None:
            import tracer as tracing

            tracer = tracing.Tracer()
            layers = tracing.install(tracer)
        code = _run_main(argv)
        sys.stdout.flush()
        os.close(1)  # end of the job's output for the parent
        if tracer is not None:
            payload = {"stats": tracer.snapshot(), "layers": layers}
            with os.fdopen(trace_w, "wb") as fh:
                fh.write(json.dumps(payload).encode())
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def run_cold(argv, traced: bool = False) -> JobResult:
    """Run one job in a child forked from the imported parent and time it."""
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    trace_r, trace_w = os.pipe() if traced else (None, None)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(out_r)
        if trace_r is not None:
            os.close(trace_r)
        _child(argv, out_w, trace_w)
    reaped = False
    try:
        os.close(out_w)
        if trace_w is not None:
            os.close(trace_w)
        stdout = _read_all(out_r)
        trace_bytes = _read_all(trace_r) if trace_r is not None else b""
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - t0
    finally:
        os.close(out_r)
        if trace_r is not None:
            os.close(trace_r)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    trace = json.loads(trace_bytes) if trace_bytes else None
    return JobResult(tuple(argv), wall, code, stdout, usage.ru_maxrss, trace)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def matches_golden(result: JobResult, golden: dict) -> bool:
    want = golden.get(job_key(result.argv))
    return (
        want is not None
        and result.exit_code == want["exit"]
        and digest(result.stdout) == want["sha256"]
    )


def import_cli() -> None:
    """Import the CLI from this checkout's source tree into the parent."""
    sys.path.insert(0, str(SRC))
    import genuslab.cli  # noqa: F401  (the import is the point)


def setup_seconds() -> float:
    """Wall time for a fresh interpreter to start and import genuslab.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import genuslab.cli"
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], os.environ)
    _, status = os.waitpid(pid, 0)
    elapsed = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("a fresh interpreter could not import genuslab.cli")
    return elapsed

