"""Byte pins for the command lines that no bench pool replays: `obstruct`, `genus`, two `expand` lines,
two `rigidity` lines with a rational sample before a Gaussian one, `verify --suite modularity`, and six
lines in the csv and text formats.

Each line runs in-process through `cli.main`.  The SHA-256 of its stdout and
its exit code must equal the entry under the line in `command_digests.json`.
The matrix files of `obstruct --matrix-file` are written from MATRICES first;
their paths do not reach the output.  Record the file from the root of a
checkout with

    PYTHONPATH=src python tests/test_command_digests.py > tests/command_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from genuslab.cli import QORDER_ENV, main

# each needs a sign flip, a clearing above a pivot and a phase-2 step at two or three of p = 2, 3, 5
MATRICES = {
    "m2x4a.json": [[5, -3, 3, 4], [-3, -4, 3, -1]],
    "m2x4b.json": [[-4, 1, -4, -5], [-2, -2, 4, 1]],
    "m4x6.json": [[-2, 5, -3, 3, 1, -5], [5, -4, -3, 4, -5, -1], [-5, -1, 2, 4, 1, 1], [1, 4, 2, -3, 0, -4]],
}

LINES = [
    *(f"obstruct --matrix-file {name} --p {p}" for name in MATRICES for p in (2, 3, 5)),
    "obstruct --weights [1,3,4,5] --order 4",
    "obstruct --codim 10",
    "obstruct --codim 10 --order 3",
    "obstruct --fixdim [[8,[0,4]],[12,[4,8]]]",
    *(f"genus --manifold builtin:{m} --spec {spec}"
      for m in ("pt", "CP3", "CP4", "HP2", "product(CP2,HP2)") for spec in ("generic", "signature", "ahat")),
    "expand --manifold builtin:CP3 --cusp ahat",
    "expand --manifold builtin:pt --qorder 0",
    # a rational sample before a Gaussian one: rigidity compares series over Q and over Q(i)
    "rigidity --action builtin:CP2_linear(0,1,3) --lambda 2,i --qorder 3",
    "rigidity --action builtin:HP2_diagonal(1,2,4) --lambda 3,-i --qorder 3",
    "verify --suite modularity --qorder 2",
    # csv and text flatten the encoded payload: records, series and polynomials all reach _flatten
    "obstruct --matrix-file m2x4a.json --p 3 --format csv",
    "obstruct --matrix-file m2x4a.json --p 3 --format text",
    "obstruct --weights [1,3,4,5] --order 4 --format text",
    "rigidity --action builtin:CP2_linear(0,1,3) --lambda 2,i --qorder 3 --format csv",
    "genus --manifold builtin:CP4 --spec generic --format text",
    "expand --manifold builtin:HP2 --cusp ahat --qorder 3 --format csv",
]

DIGESTS = pathlib.Path(__file__).with_name("command_digests.json")


def run_line(line: str, directory: pathlib.Path) -> dict:
    """Exit code and stdout digest of one command line, with the matrix files under `directory`."""
    argv = [str(directory / arg) if arg in MATRICES else arg for arg in line.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def write_matrices(directory: pathlib.Path) -> None:
    for name, matrix in MATRICES.items():
        (directory / name).write_text(json.dumps(matrix), encoding="utf-8")


def test_the_digest_file_has_one_entry_per_line():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(LINES)


@pytest.mark.parametrize("line", LINES)
def test_a_command_line_prints_its_recorded_bytes(line, tmp_path, monkeypatch):
    monkeypatch.delenv(QORDER_ENV, raising=False)  # expand without --qorder reads it
    write_matrices(tmp_path)
    assert run_line(line, tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))[line]


if __name__ == "__main__":
    os.environ.pop(QORDER_ENV, None)
    with tempfile.TemporaryDirectory() as scratch:
        write_matrices(pathlib.Path(scratch))
        digests = {line: run_line(line, pathlib.Path(scratch)) for line in LINES}
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
