"""Catalog models, classical identities at load, and the JSON loader."""

import json
from fractions import Fraction
from math import comb

import pytest

from genuslab import suites
from genuslab.errors import ResourceCapError, StructuralError, ValidationError
from genuslab.manifolds import (
    MAX_DIM_REAL,
    builtin,
    complex_projective_space,
    dump_model,
    euler_characteristic,
    first_chern_class,
    load_model,
    total_chern_class,
)


def test_cp1_chern_root():
    m = builtin("CP1")
    c = total_chern_class(m)
    ring = m.poly_ring()
    assert c == ring.one() + 2 * ring.gen("h")  # c_1 = 2h


def test_hypersurface_total_chern_and_pairing():
    m = builtin("V(4,4)")
    ring = m.poly_ring()
    h = ring.gen("h")
    assert total_chern_class(m) == (1 + h) ** 6 * (1 + 4 * h).inverse()
    assert m.integrate(h ** 4) == 4  # <h^4, [V]> = degree


def test_euler_characteristics():
    assert euler_characteristic(builtin("CP2")) == 3
    assert euler_characteristic(builtin("CP4")) == 5
    assert euler_characteristic(builtin("V(4,4)")) == 188  # (3^6-1)/4 + 6
    assert euler_characteristic(builtin("product(CP1,CP1)")) == 4  # multiplicative


def test_euler_closed_form_even_degrees():
    for n in (1, 2, 4, 6, 8, 10):
        closed = Fraction((n - 1) ** (n + 2) - 1, n) + (n + 2)
        assert euler_characteristic(builtin(f"V({n},{n})")) == closed


def test_euler_odd_degree_against_binomial_oracle():
    # closed form is non-integral for odd n >= 3; direct pipeline still exact:
    # chi = l * [h^n] (1+h)^{n+2} (1+l h)^{-1}
    for n in (3, 5):
        l = n
        coeff = sum(comb(n + 2, j) * (-l) ** (n - j) for j in range(n + 1))
        assert euler_characteristic(builtin(f"V({n},{n})")) == l * coeff
    assert euler_characteristic(builtin("V(3,3)")) == -6


def test_euler_rejects_pontryagin_style():
    for name in ("HP2", "product(CP2,HP2)"):
        for chern_class in (euler_characteristic, first_chern_class):
            with pytest.raises(StructuralError, match="needs Chern-style tangent data"):
                chern_class(builtin(name))


def test_spin_flags():
    assert builtin("CP3").spin and not builtin("CP2").spin
    assert builtin("HP1").spin and builtin("HP3").spin
    assert builtin("V(4,4)").spin          # c_1 = 2h
    assert not builtin("V(4,3)").spin      # c_1 = 3h
    assert builtin("product(HP2,HP2)").spin
    assert not builtin("product(CP2,CP2)").spin


def test_v_first_chern_class():
    for n, l in ((4, 4), (6, 2), (3, 5)):
        m = builtin(f"V({n},{l})")
        ring = m.poly_ring()
        assert first_chern_class(m) == (n + 2 - l) * ring.gen("h")


def test_product_pairing_multiplicative():
    m = builtin("product(CP2,CP2)")
    ring = m.poly_ring()
    h1, h2 = ring.gen("h1"), ring.gen("h2")
    assert m.integrate(h1 ** 2 * h2 ** 2) == 1
    v = builtin("product(V(2,3),CP1)")
    ringv = v.poly_ring()
    assert v.integrate(ringv.gen("h1") ** 2 * ringv.gen("h2")) == 3


def test_unknown_builtin():
    with pytest.raises(ValidationError):
        builtin("K3")
    with pytest.raises(ValidationError):
        builtin("CPx")
    with pytest.raises(ValidationError):
        builtin("V(0,1)")


@pytest.mark.parametrize("name", ["product(V(4,4),CP2)", "product(CP2,V(4,4))", "product(HP2,V(2,2),CP1)"])
def test_product_name_names_the_product(name):
    # a product's name joins its factors' names with x, hypersurfaces V(n,l) first or not
    model = builtin(name)
    assert builtin(model.name) == model


# -- loader ---------------------------------------------------------------------


def test_loader_round_trip(tmp_path):
    doc = dump_model(builtin("CP2"))
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(doc))
    loaded = load_model(str(path))
    assert loaded.cohomology == builtin("CP2").cohomology
    assert loaded.tangent == builtin("CP2").tangent
    assert loaded.dim_real == 4 and loaded.spin is False
    # round-trip again through dump
    assert dump_model(loaded) == doc


def test_loader_ignores_an_orientation_note():
    # model files written before models dropped the note still load, to the same model
    doc = dump_model(builtin("CP2")) | {"orientation_note": "complex orientation; sign(CP^{2m}) = +1"}
    assert load_model(doc) == builtin("CP2")


def test_a_real_dimension_above_the_cap_is_a_resource_cap():
    assert complex_projective_space(MAX_DIM_REAL // 2).dim_real == MAX_DIM_REAL
    with pytest.raises(ResourceCapError):
        complex_projective_space(MAX_DIM_REAL // 2 + 1)


@pytest.mark.parametrize(
    "name",
    ["pt", "CP1", "CP3", "CP8", "HP1", "HP4", "V(2,2)", "V(4,3)", "V(6,2)",
     "product(CP2,CP2)", "product(HP2,HP2)", "product(CP1,CP3)"],
)
def test_catalog_models_round_trip(name):
    # the loader ties a Chern root to degree-2 and a squared root to degree-4 generators
    doc = dump_model(builtin(name))
    loaded = load_model(json.loads(json.dumps(doc)))
    assert loaded.tangent == builtin(name).tangent
    assert dump_model(loaded) == doc


def test_loader_dimension_mismatch():
    doc = dump_model(builtin("CP2"))
    doc["tangent"]["entries"][0]["mult"] = 7  # sum mult - delta != dim/2
    with pytest.raises(ValidationError) as err:
        load_model(doc)
    assert err.value.code == "dimension-mismatch"


def test_loader_zero_pairing():
    doc = dump_model(builtin("CP2"))
    doc["pairing"] = "0"
    with pytest.raises(ValidationError) as err:
        load_model(doc)
    assert err.value.code == "zero-pairing"


def test_loader_schema_errors():
    with pytest.raises(ValidationError) as err:
        load_model({"name": "x"})
    assert err.value.code == "schema"
    doc = dump_model(builtin("CP2"))
    doc["tangent"]["style"] = "spin"
    with pytest.raises(ValidationError) as err:
        load_model(doc)
    assert err.value.code == "schema"
    doc = dump_model(builtin("CP2"))
    doc["tangent"]["entries"][0]["form"] = {"z": "1"}
    with pytest.raises(ValidationError) as err:
        load_model(doc)
    assert err.value.code == "schema"


def test_loader_pontryagin_hp3_euler_unsupported():
    doc = {
        "name": "HP3-file",
        "dim_real": 12,
        "spin": True,
        "generators": [{"symbol": "u", "degree": 4, "cap": 3}],
        "pairing": "1",
        "tangent": {
            "style": "pontryagin",
            "delta": 1,
            "entries": [
                {"form": {"u": "1"}, "mult": 8},
                {"form": {"u": "4"}, "mult": -1},
            ],
        },
    }
    m = load_model(doc)
    assert m.tangent.style == "pontryagin"
    with pytest.raises(StructuralError):
        euler_characteristic(m)


def test_the_euler_suite_reuses_the_catalog_values(empty_caches):
    # the self-check of each V(n,n) computes its Euler characteristic; the suite asks again
    empty_caches()
    checks = suites.suite_euler(4)
    assert [c["status"] for c in checks] == ["PASS"] * 8
    info = euler_characteristic.cache_info()
    assert (info.misses, info.hits) == (8, 8)
    empty_caches()
