"""Byte-identity of CLI output against the benchmark's recorded digests.

`bench/golden.json` maps each benchmark job (a `genuslab` command line) to the
exit code and stdout SHA-256 accepted as correct.  Every job of the three
pools is replayed here in-process, so a change to any output byte fails
tier-1 tests, not only the benchmark.  The file is only read.

That replay runs warm, in file order.  The rigidity jobs replay once more
cold, with every cache emptied before each job as in a fresh process, so
that a fault in the order in which samples share cached N-factors fails
here too.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from genuslab.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def pool_jobs():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    return sorted((key, want["exit"], want["sha256"]) for key, want in golden.items())


JOBS = pool_jobs()


def test_replay_covers_every_pool_job():
    assert sum(key.startswith("expand ") for key, _, _ in JOBS) == 36
    assert sum(key.startswith("rigidity ") for key, _, _ in JOBS) == 14
    assert sum(key.startswith("verify ") for key, _, _ in JOBS) == 5
    assert len(JOBS) == 55


@pytest.mark.parametrize("key,exit_code,sha256", JOBS, ids=[key for key, _, _ in JOBS])
def test_output_matches_golden_digest(key, exit_code, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(key.split(" "))  # job keys are argv joined by single spaces
    assert code == exit_code
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == sha256


RIGIDITY_JOBS = [job for job in JOBS if job[0].startswith("rigidity ")]


@pytest.mark.parametrize("key,exit_code,sha256", RIGIDITY_JOBS, ids=[key for key, _, _ in RIGIDITY_JOBS])
def test_rigidity_output_matches_golden_digest_cold(empty_caches, key, exit_code, sha256):
    empty_caches()
    test_output_matches_golden_digest(key, exit_code, sha256)
