"""Seeded, bounded command lines over all five commands never end in a traceback.

A fixed seed draws each case from a small argv grammar: well-formed values
next to malformed numbers, empty lists, unknown names, stray or missing
options and unknown commands.  Sizes stay bounded, so no case is a large
run: q-order <= 8, samples of at most 6 digits, |weight| <= 12, matrices of
at most 4 x 8, and manifolds of at most two catalog factors of real
dimension <= 16 each.  Each case runs
in-process through `cli.main` with the package caches emptied first.  It
must exit 0, 2, 3 or 4 with no traceback.  Under `--format json` its stdout
is one JSON document, except for a usage error, which writes only to stderr.
"""

import json
import random

import pytest

from genuslab import cli

SEED = 20261020
CASES_PER_COMMAND = 100
MATRIX = "MATRIX_FILE"  # stands for the matrix file that a case writes

NAMES = ["", " ", "x", "CP", "CPx", "CP-1", "CP0", "HP0", "V(2)", "V(a,b)", "V(0,1)", "product()",
         "product(CP2,)", "product(CP2,CP2,CP2,CP2)", "CP2xQP1", "pt", "PT", "CP2 ", "1e3"]
SUITES = ["all", "generating", "normalization", "closedform", "euler", "ahat-vanishing", "modularity",
          "rigidity", "localterms", "expansion", "selfintersection", "obstruction", "codes", "roundtrip",
          "", "ALL", "nonsense"]
NUMBERS = ["", " ", "x", "1.5", "1/2", "0x10", "--", "-", "1e2", "٣", "+3", " 4 "]


def qorder(rng):
    return str(rng.randint(-2, 8)) if rng.random() < 0.85 else rng.choice(NUMBERS)


def manifold(rng):
    roll = rng.random()
    if roll < 0.2:
        return rng.choice(NAMES)
    if roll < 0.4:
        return f"V({rng.randint(1, 4)},{rng.randint(1, 5)})"
    if roll < 0.55:
        return f"product({small_manifold(rng)},{small_manifold(rng)})"
    return small_manifold(rng)


def small_manifold(rng):
    return rng.choice([f"CP{rng.randint(1, 8)}", f"HP{rng.randint(1, 4)}", "pt"])


def sample(rng):
    if rng.random() < 0.2:
        return rng.choice(["i", "-i", "0", "1", "-1", "1/0", "abc", "", "2/4", "-0", "i/2", "1+i"])
    digits = rng.randint(1, 6)
    p = rng.randint(1 - 10 ** digits, 10 ** digits - 1)
    if digits < 6 and rng.random() < 0.4:
        return f"{p}/{rng.randint(1, 10 ** (6 - digits) - 1)}"
    return str(p)


def weight_list(rng, n):
    return [rng.randint(-12, 12) for _ in range(n)]


def action(rng):
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(["CP2_linear()", "CP2_linear(0,1)", "CP2_linear(0,,1)", "CP2_linear(0,--1,1)",
                           "CP2_linear(-)", "CP2_linear(0,a,1)", "HP2_diagonal(1,1,2)", "HP1_diagonal(0,1)",
                           "XP2_linear(0,1,2)", "CP0_linear(0)", "HP2_linear(0,1,2)", "CP1_linear(3,3)"])
    if roll < 0.6:
        n = rng.randint(1, 4)
        return f"CP{n}_linear({','.join(map(str, weight_list(rng, n + 1)))})"
    n = rng.randint(1, 3)
    return f"HP{n}_diagonal({','.join(map(str, weight_list(rng, n + 1)))})"


def json_list(rng, item, n_max):
    if rng.random() < 0.2:
        return rng.choice(["", "[", "[1,", "{}", "[]", "[[]]", "null", '"x"', "[1.5]", '["a"]', "[true]", "[0]"])
    return json.dumps([item() for _ in range(rng.randint(0, n_max))])


def matrix(rng):
    if rng.random() < 0.2:
        return rng.choice(["", "nope", "[]", "[[]]", "[[1,2],[3]]", "[[1.5,0]]", '[["a"]]', "[1,2]", "{}"])
    rows, cols = rng.randint(1, 4), rng.randint(1, 8)
    return json.dumps([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


def fixdim_table(rng):
    def entry():
        dim = rng.randint(-2, 16)
        return [dim, [rng.randint(-2, dim + 2) for _ in range(rng.randint(0, 3))]]
    return json_list(rng, entry, 3)


def obstruct_options(rng):
    options = []
    for flag, value, chance in (
        ("--weights", lambda: json_list(rng, lambda: rng.randint(-12, 12), 6), 0.4),
        ("--codim", lambda: str(rng.randint(-2, 16)) if rng.random() < 0.85 else rng.choice(NUMBERS), 0.3),
        ("--matrix-file", lambda: MATRIX, 0.3),
        ("--fixdim", lambda: fixdim_table(rng), 0.3),
        ("--order", lambda: str(rng.randint(-1, 13)) if rng.random() < 0.85 else rng.choice(NUMBERS), 0.5),
        ("--p", lambda: rng.choice(["2", "3", "5", "7", "0", "1", "4", "-3", "x"]), 0.25),
    ):
        if rng.random() < chance:
            options += [flag, value()]
    return options


def command_line(rng, command):
    if command == "genus":
        argv = ["--manifold", f"builtin:{manifold(rng)}", "--spec", rng.choice(["generic", "signature", "ahat"])]
    elif command == "expand":
        argv = ["--manifold", f"builtin:{manifold(rng)}", "--cusp", rng.choice(["ahat", "signature"]),
                "--qorder", qorder(rng)]
    elif command == "verify":
        suite = "all" if rng.random() < 0.05 else rng.choice(SUITES[1:])
        argv = ["--suite", suite, "--qorder", qorder(rng)]
    elif command == "rigidity":
        samples = ",".join(sample(rng) for _ in range(rng.randint(0, 3)))
        argv = ["--action", f"builtin:{action(rng)}", "--lambda", samples, "--qorder", qorder(rng)]
    else:
        argv = obstruct_options(rng)
    roll = rng.random()
    if roll < 0.05:
        argv = argv[:-1]  # an option without its value, or a value cut off
    elif roll < 0.1:
        argv = argv + [rng.choice(["--bogus", "stray", "--qorder"])]
    return [command, *argv, "--format", "json"]


def cases():
    rng = random.Random(SEED)
    out = [command_line(rng, c) for c in cli.COMMANDS for _ in range(CASES_PER_COMMAND)]
    out += [["frob", "--format", "json"], ["--format", "json"], ["genus", "genus", "--format", "json"]]
    return out


CASES = cases()


@pytest.mark.parametrize("argv", CASES, ids=[f"{argv[0]}-{i:03d}" for i, argv in enumerate(CASES)])
def test_a_fuzzed_command_line_exits_by_contract(argv, capsys, tmp_path, empty_caches):
    if MATRIX in argv:
        path = tmp_path / "m.json"
        path.write_text(matrix(random.Random(f"{SEED} {argv}")))
        argv = [str(path) if a == MATRIX else a for a in argv]
    empty_caches()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err, argv
    if code == 2 and not out:
        assert "genuslab: error:" in err, argv  # a usage error writes to stderr only
    else:
        json.loads(out)
