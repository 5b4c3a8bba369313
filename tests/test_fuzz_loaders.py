"""Key and type mutations of model and action files never end in a traceback.

Each example applies one to three mutations (delete a key or list item,
rename a key, or replace a value with one of another type) to a valid
document and runs it through `cli.main`: `genus` for a model file,
`rigidity --qorder 2` for an action file.  The exit code must be one of the
contract's 0, 2, 3 or 4.  The documents stay small (caps <= 3), so every
run is short.  Apart from the seeded mutations, each numeric slot of the
unmutated documents takes a literal past the int-to-str digit limit, which
must exit 4 within a second.
"""

import contextlib
import copy
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslab import cli

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

VALUES = [None, True, False, 0, 1, -1, 2, 3, 1.5, "", "x", "h", "u", "1/2", "1/0", "abc",
          [], [1], ["h"], {}, {"h": 1}, {"h": "x"}, {"u": 1}]
KEYS = ["x", "h", "u", "form", "mult", "chern", "weight", "normal", "model", "entries", "style"]

CP1 = {
    "name": "CP1",
    "dim_real": 2,
    "spin": True,
    "generators": [{"symbol": "h", "degree": 2, "cap": 1}],
    "pairing": "1",
    "tangent": {"style": "chern", "delta": 1, "entries": [{"form": {"h": "1"}, "mult": 2}]},
}

HP1 = {
    "name": "HP1",
    "dim_real": 4,
    "spin": True,
    "generators": [{"symbol": "u", "degree": 4, "cap": 1}],
    "pairing": "1",
    "tangent": {
        "style": "pontryagin",
        "delta": 1,
        "entries": [{"form": {"u": "1"}, "mult": 4}, {"form": {"u": "4"}, "mult": -1}],
    },
}

# CP2_linear(0,0,1) with its CP1 component inline, so mutations reach the model loader too
ACTION = {
    "name": "CP2_linear(0,0,1)",
    "ambient": "builtin:CP2",
    "components": [
        {"model": CP1, "normal": [{"chern": {"h": "1"}, "weight": 1}]},
        {"model": "point", "normal": [{"chern": {}, "weight": -1}, {"chern": {}, "weight": -1}]},
    ],
}


def paths(doc, prefix=()):
    """Every key or index path into a JSON document, its root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from paths(v, prefix + (k,))


def mutate(doc, path, how, arg):
    if not path:
        return arg if how == "replace" else {}
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if how == "delete":
        del parent[key]
    elif how == "rename" and isinstance(parent, dict):
        parent[arg] = parent.pop(key)
    else:
        parent[key] = copy.deepcopy(arg)
    return doc


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        how = draw(st.sampled_from(["delete", "rename", "replace"]))
        arg = draw(st.sampled_from(KEYS if how == "rename" else VALUES))
        doc = mutate(doc, path, how, arg)
    return doc


def exit_code(argv, doc, flag):
    """`cli.main` on `doc` written to a file; stdout is discarded."""
    return exit_code_of_text(argv, json.dumps(doc), flag)


def exit_code_of_text(argv, text, flag):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*argv, flag, f"file:{path}"])


def test_the_unmutated_documents_run():
    assert exit_code(["genus"], CP1, "--manifold") == 0
    assert exit_code(["genus"], HP1, "--manifold") == 0
    assert exit_code(["rigidity", "--lambda", "2,3", "--qorder", "2"], ACTION, "--action") == 0


@FUZZ
@given(st.one_of(mutated(CP1), mutated(HP1)))
def test_mutated_model_files_exit_by_contract(doc):
    assert exit_code(["genus"], doc, "--manifold") in (0, 2, 3, 4)


@FUZZ
@given(mutated(ACTION))
def test_mutated_action_files_exit_by_contract(doc):
    assert exit_code(["rigidity", "--lambda", "2,3", "--qorder", "2"], doc, "--action") in (0, 2, 3, 4)


MODEL_RUN = (["genus"], "--manifold")
ACTION_RUN = (["rigidity", "--lambda", "2,3", "--qorder", "2"], "--action")
BIG_INT = "7" * 5000
BIG_RATIONAL = '"1e10000000"'  # Fraction would build 10^(10^7) from it


@pytest.mark.parametrize(
    "doc, run, path, literal",
    [
        (CP1, MODEL_RUN, ("dim_real",), BIG_INT),
        (CP1, MODEL_RUN, ("generators", 0, "degree"), BIG_INT),
        (CP1, MODEL_RUN, ("generators", 0, "cap"), BIG_INT),
        (CP1, MODEL_RUN, ("tangent", "delta"), BIG_INT),
        (CP1, MODEL_RUN, ("tangent", "entries", 0, "mult"), BIG_INT),
        (ACTION, ACTION_RUN, ("components", 1, "normal", 0, "weight"), BIG_INT),
        (ACTION, ACTION_RUN, ("components", 0, "model", "generators", 0, "cap"), BIG_INT),
        (CP1, MODEL_RUN, ("pairing",), BIG_RATIONAL),
        (CP1, MODEL_RUN, ("tangent", "entries", 0, "form", "h"), BIG_RATIONAL),
        (HP1, MODEL_RUN, ("tangent", "entries", 1, "form", "u"), BIG_RATIONAL),
        (ACTION, ACTION_RUN, ("components", 0, "normal", 0, "chern", "h"), BIG_RATIONAL),
        (ACTION, ACTION_RUN, ("components", 0, "model", "pairing"), BIG_RATIONAL),
    ],
    ids=["dim_real", "degree", "cap", "delta", "mult", "weight", "inline-model-cap", "pairing", "form",
         "pontryagin-form", "chern", "inline-model-pairing"],
)
def test_a_literal_past_the_digit_limit_exits_4_at_once(doc, run, path, literal):
    # a 5000-digit integer ended in a traceback and 1e10000000 ran 13 s to one: both are refused before int()
    doc = mutate(copy.deepcopy(doc), path, "replace", "OVERSIZED")
    text = json.dumps(doc).replace('"OVERSIZED"', literal)
    argv, flag = run
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert exit_code_of_text(argv, text, flag) == 4
    assert time.perf_counter() - start < 1
    assert "Traceback" not in err.getvalue()
