"""Record contracts: every record is immutable, a model equals its file and
product forms, a zero rotation weight is rejected, and `cli.encode` turns the
reports into fixed dicts."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from genuslab.cli import encode
from genuslab.cusp import generator_expansions
from genuslab.errors import ValidationError
from genuslab.genus import GenusSpec, cusp_series
from genuslab.localization import (
    CircleActionData,
    FixedComponent,
    NormalSummand,
    builtin_action,
    rigidity_check,
)
from genuslab.manifolds import builtin, dump_model, euler_characteristic, load_model, point, product
from genuslab.obstructions import code_audit, cross_check_prediction, lattice_normal_form
from genuslab.rings import GaussianRational
from genuslab.suites import CATALOG_FOR_EXPANSIONS, MODULARITY_SET, suite_roundtrip


def records():
    cp2 = builtin("CP2")
    action = builtin_action("CP2_linear(0,1,3)")
    component = action.components[1]
    return [
        GenusSpec.signature(),
        cusp_series(cp2, "signature", 2),
        generator_expansions("signature", 2),
        cp2.cohomology.generators[0],
        cp2.cohomology,
        cp2.tangent.entries[0],
        cp2.tangent,
        cp2,
        component.normal[0],
        component,
        action,
        rigidity_check(action, [Fraction(2)], 1),
        cross_check_prediction(builtin("HP2"), [[1, 1]], 2, 2),
        lattice_normal_form([[1, 2, 3], [0, 1, 1]], 3),
        code_audit([[1, 1, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0]]),
    ]


def test_there_are_fifteen_distinct_record_types():
    assert len({type(r) for r in records()}) == 15


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_assigning_to_a_record_field_raises(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_a_loaded_model_equals_its_catalog_entry():
    cp2 = builtin("CP2")
    loaded = load_model(dump_model(cp2))
    assert euler_characteristic(cp2) == euler_characteristic(loaded) == 3
    assert loaded == cp2 and cp2 == loaded and not loaded != cp2
    assert hash(point()) == hash(builtin("pt")) and point() == builtin("pt")
    assert loaded != cp2._replace(spin=True)
    assert [c["status"] for c in suite_roundtrip(2)] == ["PASS", "PASS"]


def test_validate_rejects_a_zero_rotation_weight():
    # action files and builtins never get this far with weight 0 (tests/test_cli.py); validate is the guard of the rest
    zero = CircleActionData((FixedComponent(point(), (NormalSummand({}, 0),)),), builtin("CP1"), "test")
    with pytest.raises(ValidationError, match="nonzero"):
        zero.validate()


def test_report_dicts_are_unchanged():
    # recorded when the records were dataclasses: rigidity and obstruct JSON must not change
    action = builtin_action("CP2_linear(0,1,3)")
    assert encode(rigidity_check(action, [Fraction(2), Fraction(-1, 3)], 2)) == {
        "action": "CP2_linear(0,1,3)", "samples": ["2", "-1/3"], "qorder": 2, "spin": False,
        "all_samples_equal": False, "matches_loop_series": False, "q0_constant": True,
        "status": "OBSERVATIONAL", "series": "(1) + (135/2)*q + (18225/16)*q^2 + O(s^6)",
    }
    action = builtin_action("HP2_diagonal(1,2,4)")
    assert encode(rigidity_check(action, [GaussianRational(0, 1), Fraction(3)], 1)) == {
        "action": "HP2_diagonal(1,2,4)", "samples": ["1*i", "3"], "qorder": 1, "spin": True,
        "all_samples_equal": True, "matches_loop_series": True, "q0_constant": True,
        "status": "PASS", "series": "(1) + O(s^4)",
    }
    assert encode(code_audit([[1, 1, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0]])) == {
        "r": 1, "k": 3, "weight_distribution": {"0": 1, "2": 1, "4": 2}, "dichotomy_holds": False,
        "closure_applicable": True, "small_weight_closed": True, "closure_inference_consistent": True,
        "row_odd_counts": [4, 2], "rows_have_two_odd_entries": False, "tail_column_odd_counts": [1, 0, 1, 1],
        "tail_columns_even_parity": False, "tail_nonzero_columns": 3, "tail_nonzero_le_r": False,
        "sublinearity_holds": True,
    }
    assert encode(lattice_normal_form([[1, 2, 3], [0, 1, 1]], 3)) == {
        "matrix": [[1, 0, 1], [0, 1, 1]], "column_order": [0, 1, 2], "transform": [[1, -2], [0, 1]],
        "covering_degree": 1,
    }


JOBS = Path(__file__).resolve().parent.parent / "bench" / "jobs.py"


def pool_models(monkeypatch):
    """The catalog models that the benchmark pools and the verify suites name, with their actions' fixed components."""
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # dataclasses look their module up
    spec.loader.exec_module(jobs)
    names = {*CATALOG_FOR_EXPANSIONS, *MODULARITY_SET, "pt", "CP3", "CP5", "CP7", "HP1", "HP3", "product(HP2,HP2)"}
    names |= {f"V({n},{n})" for n in range(1, 11)}
    actions = {"HP2_diagonal(1,2,4)", "HP1_diagonal(1,2)", "CP2_linear(0,1,2)", "CP2_linear(0,0,1)"}
    for argv in (job for pool in jobs.POOLS.values() for job in pool):
        for flag, found in (("--manifold", names), ("--action", actions)):
            if flag in argv:
                found.add(argv[argv.index(flag) + 1].removeprefix("builtin:"))
    components = [c for a in sorted(actions) for c in builtin_action(a).components]
    return [builtin(n) for n in sorted(names)] + [c.model for c in components]


def test_models_of_the_pools_hash(monkeypatch):
    models = pool_models(monkeypatch)
    assert len(models) > 30
    for model in models:
        assert hash(model) == hash(model._replace())


def test_a_product_and_its_catalog_entry_are_equal_and_hash_alike():
    built, catalog = product([builtin("CP2")] * 2), builtin("product(CP2,CP2)")
    assert euler_characteristic(built) == euler_characteristic(catalog) == 9
    assert built == catalog and hash(built) == hash(catalog)
