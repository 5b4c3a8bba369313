"""CLI contract: flags, exit codes, deterministic machine-readable output."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from genuslab import genus, localization, manifolds, suites
from genuslab.cli import COMMANDS, GLOBAL_OPTIONS, main
from genuslab.errors import InternalInconsistencyError

CLI = [sys.executable, "-m", "genuslab.cli"]


def run_cli(*args, env_extra=None, timeout=300):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


def test_genus_hp2_generic():
    r = run_cli("genus", "--manifold", "builtin:HP2", "--spec", "generic")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["value_text"] == "epsilon"
    assert payload["value"] == {"epsilon": "1"}


def test_genus_cp8_generic_non_unit_coefficients():
    r = run_cli("genus", "--manifold", "builtin:CP8", "--spec", "generic")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["value"] == {"epsilon^2": "3/8", "delta^2*epsilon": "-15/4", "delta^4": "35/8"}
    assert payload["value_text"] == "3/8*epsilon^2 + -15/4*delta^2*epsilon + 35/8*delta^4"


def test_generic_genus_above_the_ring_caps_exits_4():
    # weight 13 needs delta^13, beyond the delta/epsilon caps (12, 6)
    r = run_cli("genus", "--manifold", "builtin:CP26", "--spec", "generic")
    assert r.returncode == 4
    assert json.loads(r.stdout)["code"] == "resource-cap"
    r = run_cli("genus", "--manifold", "builtin:CP24", "--spec", "generic")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"]["delta^12"] == "676039/1024"


def test_a_catalog_dimension_above_the_cap_exits_4_before_any_work():
    start = time.perf_counter()
    r = run_cli("genus", "--manifold", "builtin:CP800", "--spec", "ahat")
    assert r.returncode == 4 and time.perf_counter() - start < 5
    assert json.loads(r.stdout)["code"] == "resource-cap"
    assert "Traceback" not in r.stderr
    assert run_cli("genus", "--manifold", "builtin:product(HP60,HP60)", "--spec", "signature").returncode == 4
    assert run_cli("genus", "--manifold", "builtin:CP200", "--spec", "ahat").returncode == 0


def test_a_product_above_the_cap_exits_4_before_any_factor_self_check(capsys, empty_caches):
    # each factor's self-check computes genera and Euler numbers; the product's dimension is refused first
    empty_caches()
    code, out = run_main(capsys, "genus", "--manifold", "builtin:product(HP100,HP100,HP100)", "--spec", "ahat")
    assert (code, json.loads(out)["code"]) == (4, "resource-cap")
    assert genus.genus_value.cache_info().currsize == 0
    assert manifolds.euler_characteristic.cache_info().currsize == 0
    empty_caches()


def test_a_nested_product_of_more_than_three_leaves_exits_2_before_any_self_check(capsys, empty_caches):
    # the factor limit counts catalog leaves: 16 CP1s, nested two levels deep, once ran 0.8 s to exit 0
    empty_caches()
    nest = "product(CP1xCP1xCP1,CP1xCP1xCP1,CP1xCP1)"
    start = time.perf_counter()
    code, out = run_main(capsys, "genus", "--manifold", f"builtin:product({nest},{nest})", "--spec", "signature")
    assert time.perf_counter() - start < 1
    assert (code, json.loads(out)) == (2, {"code": "invalid", "error": "products support 1 to 3 factors"})
    assert genus.genus_value.cache_info().currsize == 0
    for name in ("product(CP1xCP1,CP1xCP1)", "CP1xCP1xCP1xCP1", "product(product(CP1,CP1),CP1xCP1)"):
        assert run_main(capsys, "genus", "--manifold", f"builtin:{name}", "--spec", "signature")[0] == 2
    for name in ("product(CP1xCP1,CP2)", "product(HP2,HP2)"):
        assert run_main(capsys, "genus", "--manifold", f"builtin:{name}", "--spec", "signature")[0] == 0
    empty_caches()


def test_genus_cp3_ahat_is_zero():
    r = run_cli("genus", "--manifold", "builtin:CP3", "--spec", "ahat")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == "0"


def test_genus_v44_signature_cross_checked():
    r = run_cli("genus", "--manifold", "builtin:V(4,4)", "--spec", "signature")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["value"] == "100"
    assert "cross_check" in payload


def test_expand_hp2_ahat():
    r = run_cli("expand", "--manifold", "builtin:HP2", "--cusp", "ahat", "--qorder", "6")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    # q^{-1} coefficient of Phi_0(HP2) vanishes: lowest s-exponent is 0, not -2
    assert payload["series"]["lowest_s_exponent"] == 0
    assert payload["k"] == 2
    assert payload["spin_integrality"] is True


def test_expand_cp2_signature_qorder_zero():
    r = run_cli("expand", "--manifold", "builtin:CP2", "--cusp", "signature", "--qorder", "0")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["series"]["coefficients"][0] == "1"


def test_expand_v44_second_coefficient():
    r = run_cli("expand", "--manifold", "builtin:V(4,4)", "--cusp", "ahat", "--qorder", "3")
    payload = json.loads(r.stdout)
    # head coefficient of Phi_0 is -A-hat(V4, TM_C) = 100 (pole order 0)
    assert payload["pole_order_q"] == "0"
    assert payload["series"]["coefficients"][0] == "100"


def test_unknown_manifold_exits_2():
    r = run_cli("genus", "--manifold", "builtin:K3")
    assert r.returncode == 2
    assert json.loads(r.stdout)["code"] == "invalid"


def test_bad_reference_exits_2():
    r = run_cli("genus", "--manifold", "K3")
    assert r.returncode == 2


def test_rigidity_builtin_pass():
    r = run_cli(
        "rigidity",
        "--action",
        "builtin:HP2_diagonal(1,2,4)",
        "--lambda",
        "2,3,5",
        "--qorder",
        "4",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["status"] == "PASS"
    assert payload["matches_loop_series"] is True


def test_rigidity_inadmissible_sample_exits_2():
    r = run_cli(
        "rigidity", "--action", "builtin:HP1_diagonal(1,2)", "--lambda", "1", "--qorder", "2"
    )
    assert r.returncode == 2
    assert json.loads(r.stdout)["code"] == "inadmissible"


def test_obstruct_weights():
    r = run_cli("obstruct", "--weights", "[1,3,4]", "--order", "4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["m"] == "1/2"
    assert payload["vanish_count"] == 1


def test_obstruct_codim_involution():
    r = run_cli("obstruct", "--codim", "8")
    payload = json.loads(r.stdout)
    assert payload["vanish_count"] == 2
    r = run_cli("obstruct", "--codim", "6", "--order", "3")
    assert json.loads(r.stdout)["vanish_count"] == 1


def test_obstruct_fixdim():
    r = run_cli("obstruct", "--fixdim", "[[8,[4,0]]]")
    assert json.loads(r.stdout)["restricted"] is True
    r = run_cli("obstruct", "--fixdim", "[[8,[4,4]]]")
    assert json.loads(r.stdout)["restricted"] is False


def test_malformed_fixdim_tables_exit_2():
    for table in ("[1]", "5", '"x"', "[[4,2]]", '[[4,[2,"a"]]]', "[[4,[2,2],7]]", '[{"dim":4}]'):
        assert_validation_exit(run_cli("obstruct", "--fixdim", table))


def test_obstruct_matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1,0,1,1],[0,1,1,1]]")
    r = run_cli("obstruct", "--matrix-file", str(path))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["normal_form"]["covering_degree"] == 1
    assert payload["code_audit"]["sublinearity_holds"] is True


PIN_MATRICES = {
    "m1.json": "[[1, 2, 3, 4, 5, 6], [0, 1, 1, 2, 3, 5]]",
    "m2.json": "[[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8], [1, 4, 1, 4, 2, 1, 3, 5], [1, 7, 3, 2, 0, 5, 0, 8]]",
}


@pytest.mark.parametrize(
    "args, digest",
    [
        (("--matrix-file", "m1.json"), "9c63a0db523a54eca487ce8b2bacd590693974f1898e519320436ac424d53d83"),
        (("--matrix-file", "m1.json", "--p", "3"), "b26ffad156b525e46b27c602729e9c3cccf0c1a368a0764034f232486ae640b0"),
        (("--matrix-file", "m2.json"), "8f1eac491bf0ee0dc770b253157827478eb31a6ea805bb504a384bff29e0b64d"),
        (("--matrix-file", "m2.json", "--p", "3"), "ac66ca3a06a299647066829ddb212c3e35783ea8d5c78f9c4e054e12b8c59eb6"),
        (("--codim", "8"), "15cd14ddffce3d0f64bb5976d9a622b4c23f2f4ee0e176178c56ee511a19b79d"),
        (("--codim", "6", "--order", "3"), "b1b7d88ae9da4ab49de14cca76e614257add4e2c41652b9c591cca207de72284"),
        (("--weights", "[1,3,-4,6]", "--order", "4"), "6f353fa0bd0f784f183e4709baa87a5deecdf1c0d451e683a1922b3037d6319b"),
    ],
)
def test_obstruct_output_bytes_are_pinned(tmp_path, args, digest):
    # SHA-256 of stdout, recorded before the code audit's rewrite; no bench pool runs obstruct
    for name, text in PIN_MATRICES.items():
        (tmp_path / name).write_text(text)
    r = run_cli("obstruct", *(str(tmp_path / a) if a in PIN_MATRICES else a for a in args))
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--suite", "all", "--qorder", "4"),
        ("rigidity", "--action", "builtin:HP2_diagonal(1,2,4)", "--lambda", "i,-i,2", "--qorder", "4"),
        ("expand", "--manifold", "builtin:product(CP2,HP2)", "--cusp", "signature", "--qorder", "6"),
        ("genus", "--manifold", "builtin:product(CP2,CP2)"),
    ],
    ids=lambda args: args[0],
)
def test_output_bytes_do_not_depend_on_the_hash_seed(args):
    # str hashes change with PYTHONHASHSEED and the scalar fields hash by identity,
    # so no set or dict order may reach the output
    runs = [
        subprocess.run(CLI + list(args), capture_output=True, env=dict(os.environ, PYTHONHASHSEED=seed), timeout=60)
        for seed in ("0", "1", "12345")
    ]
    assert runs[0].stdout
    assert {(r.returncode, r.stdout) for r in runs} == {(0, runs[0].stdout)}


NORMAL_FORM_SAMPLE = "[[1,0,1,1],[0,1,1,1]]"


@pytest.mark.parametrize(
    "text,p",
    [
        ("[1,2]", "2"),                      # rows that are not lists
        ('[["a",0],[0,1]]', "2"),            # a string entry
        ("[[null,1],[1,0]]", "2"),           # a null entry
        ("[[1.5,0],[0,1]]", "2"),            # a float entry, once truncated to 1
        (NORMAL_FORM_SAMPLE, "0"),           # p must be a prime
        (NORMAL_FORM_SAMPLE, "-3"),
        ("[[1,1],[0,2]]", "4"),              # 2 has no inverse mod 4 or mod 6
        ("[[1,1],[0,2]]", "6"),
        ("[[1,1],[0,3]]", "9"),              # 3 has no inverse mod 9
        (NORMAL_FORM_SAMPLE, "3215031751"),  # strong pseudoprime to bases 2, 3, 5, 7
        (NORMAL_FORM_SAMPLE, "318665857834031151167461"),  # ... to bases 2 through 37
        (NORMAL_FORM_SAMPLE, str(2**89 - 1)),  # a prime above the exact Miller-Rabin range
    ],
)
def test_malformed_matrix_or_p_exits_2(tmp_path, text, p):
    path = tmp_path / "m.json"
    path.write_text(text)
    r = run_cli("obstruct", "--matrix-file", str(path), "--p", p)
    assert_validation_exit(r)
    assert json.loads(r.stdout)["code"] == "invalid"


def test_large_prime_p_is_checked_quickly(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(NORMAL_FORM_SAMPLE)
    r = run_cli("obstruct", "--matrix-file", str(path), "--p", str(2**61 - 1), timeout=30)
    assert r.returncode == 0
    assert json.loads(r.stdout)["p"] == 2**61 - 1


def test_code_audit_over_cap_after_normal_form_exits_4(tmp_path):
    # 14 independent rows pass the normal form; enumerating 2^14 code words does not run
    path = tmp_path / "m14.json"
    path.write_text(json.dumps([[int(i == j) for j in range(14)] for i in range(14)]))
    r = run_cli("obstruct", "--matrix-file", str(path))
    assert r.returncode == 4
    assert json.loads(r.stdout)["code"] == "resource-cap"


def test_obstruct_without_inputs_exits_2():
    r = run_cli("obstruct")
    assert r.returncode == 2


def test_obstruct_given_several_modes_exits_2():
    # the first mode ran and the rest were ignored, with exit 0
    r = run_cli("obstruct", "--weights", "[1]", "--order", "2", "--codim", "4", "--fixdim", "[[8,[4,4]]]")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout) == {
        "code": "invalid",
        "error": "obstruct takes exactly one of --weights, --codim, --matrix-file, --fixdim; "
        "got --weights, --codim, --fixdim",
    }


def test_several_obstruct_modes_are_refused_before_any_work(capsys, tmp_path):
    # an unreadable matrix file is not opened
    code, out = run_main(capsys, "obstruct", "--matrix-file", str(tmp_path / "missing.json"), "--codim", "2")
    assert code == 2
    assert json.loads(out)["error"].endswith("; got --codim, --matrix-file")


@pytest.mark.parametrize(
    "args, error",
    [
        (("--weights", "[1,2]", "--order", "3", "--p", "4"), "--weights does not take --p"),
        (("--fixdim", "[[8,[4,0]]]", "--order", "5"), "--fixdim does not take --order"),
        (("--matrix-file", "m.json", "--order", "3"), "--matrix-file does not take --order"),
        (("--codim", "4", "--p", "7"), "--codim does not take --p"),
    ],
    ids=["weights-p", "fixdim-order", "matrix-order", "codim-p"],
)
def test_an_obstruct_option_that_the_mode_never_reads_exits_2(capsys, tmp_path, args, error):
    # each exited 0 with the option ignored; 4 is not even a prime
    (tmp_path / "m.json").write_text(NORMAL_FORM_SAMPLE)
    code, out = run_main(capsys, "obstruct", *(str(tmp_path / a) if a == "m.json" else a for a in args))
    assert code == 2
    assert json.loads(out) == {"code": "invalid", "error": error}


def test_an_unread_obstruct_option_is_refused_before_any_work(capsys, tmp_path):
    # the matrix file is not opened
    code, out = run_main(capsys, "obstruct", "--matrix-file", str(tmp_path / "missing.json"), "--order", "3")
    assert code == 2
    assert json.loads(out)["error"] == "--matrix-file does not take --order"


def test_verify_small_suite():
    r = run_cli("verify", "--suite", "localterms", "--qorder", "4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["status"] == "PASS"
    assert payload["failed"] == []


def test_verify_unknown_suite_exits_2():
    r = run_cli("verify", "--suite", "nonsense")
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args, env",
    [
        (("--suite", "all", "--qorder", "1"), None),
        (("--suite", "modularity", "--qorder", "1"), None),
        (("--suite", "all"), {"GENUSLAB_QORDER": "1"}),
    ],
    ids=["all", "modularity", "env"],
)
def test_verify_below_the_generators_minimum_qorder_exits_2(args, env):
    # the cusp generator expansions need q-order >= 2: a precondition, not an inconsistency
    r = run_cli("verify", *args, env_extra=env)
    assert r.returncode == 2
    payload = json.loads(r.stdout)
    assert payload["code"] == "invalid"
    assert "q-order >= 2" in payload["error"]


def raise_(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


@pytest.mark.parametrize(
    "suite, target",
    [("modularity", "generator_expansions"), ("closedform", "hypersurface_index_closed")],
)
def test_pipeline_disagreement_is_a_fail_check(monkeypatch, suite, target):
    monkeypatch.setattr(suites, target, raise_(InternalInconsistencyError("pipelines disagree")))
    checks = suites.run_suite(suite, 2)
    failed = [c for c in checks if c["status"] == "FAIL"]
    assert failed and all(c["detail"] == "pipelines disagree" for c in failed)
    assert main(["verify", "--suite", suite, "--qorder", "2"]) == 3


@pytest.mark.parametrize(
    "suite, target",
    [("modularity", "generator_expansions"), ("closedform", "hypersurface_index_closed")],
)
def test_other_errors_propagate_out_of_run_suite(monkeypatch, suite, target):
    monkeypatch.setattr(suites, target, raise_(TypeError("a bug, not a disagreement")))
    with pytest.raises(TypeError, match="a bug"):
        suites.run_suite(suite, 2)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes in this process during the test."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("qorder", [2, 4, 6])
def test_verify_all_with_a_forked_codes_suite_equals_the_sequential_run(monkeypatch, forks, qorder):
    overlapped = suites.run_suite("all", qorder)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert overlapped == suites.run_suite("all", qorder)


def test_verify_all_leaves_no_child(forks):
    suites.run_suite("all", 4)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_parent_suite_that_raises_leaves_no_child(monkeypatch, forks):
    monkeypatch.setattr(suites, "generator_expansions", raise_(TypeError("a bug, not a disagreement")))
    with pytest.raises(TypeError, match="a bug"):
        suites.run_suite("all", 2)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_fail_made_in_the_codes_child_reaches_the_output(monkeypatch, forks):
    audited = []  # filled only in the process that runs the audit

    def failing_audit(matrix):
        audited.append(matrix)
        return SimpleNamespace(sublinearity_holds=False)

    monkeypatch.setattr(suites, "code_audit", failing_audit)
    checks = {c["name"]: c["status"] for c in suites.run_suite("all", 2)}
    assert checks["code-sublinearity-1000-random"] == "FAIL"
    assert audited == [] and len(forks) == 1  # the FAIL came from the child
    assert main(["verify", "--suite", "all", "--qorder", "2"]) == 3
    assert_no_child_left()


def test_a_codes_child_that_fails_falls_back_to_the_parent(monkeypatch, forks):
    monkeypatch.setitem(suites.SUITES, "codes", raise_(TypeError("a bug in codes")))
    with pytest.raises(TypeError, match="a bug in codes"):
        suites.run_suite("all", 2)
    assert len(forks) == 1
    assert_no_child_left()


def test_codes_output_that_does_not_parse_falls_back_to_the_parent(monkeypatch, forks):
    expected = suites.run_suite("codes", 2)
    ran = []  # filled only in the process that runs the suite
    codes = suites.SUITES["codes"]
    monkeypatch.setitem(suites.SUITES, "codes", lambda q: ran.append(q) or codes(q))
    monkeypatch.setattr(suites.json, "dumps", lambda obj: "not json")
    checks = suites.run_suite("all", 2)
    assert [c for c in checks if c["name"].startswith("code-")] == expected
    assert ran == [2] and len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("suite", ["codes", "roundtrip"])
def test_verify_suites_without_generators_run_at_qorder_1(suite):
    r = run_cli("verify", "--suite", suite, "--qorder", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "PASS"


def test_verify_all_binary_identical_across_runs():
    a = run_cli("verify", "--suite", "all", "--qorder", "6")
    b = run_cli("verify", "--suite", "all", "--qorder", "6")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["status"] == "PASS"


def test_env_var_sets_default_qorder():
    r = run_cli(
        "expand",
        "--manifold",
        "builtin:CP2",
        "--cusp",
        "signature",
        env_extra={"GENUSLAB_QORDER": "2"},
    )
    payload = json.loads(r.stdout)
    assert payload["qorder"] == 2
    r = run_cli("verify", "--suite", "localterms", env_extra={"GENUSLAB_QORDER": "zebra"})
    assert r.returncode == 2


def test_formats_csv_and_text():
    r = run_cli("--format", "csv", "obstruct", "--weights", "[1,3,4]", "--order", "4")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "key,value"
    assert any(line.startswith("m,") for line in r.stdout.splitlines())
    r = run_cli("--format", "text", "genus", "--manifold", "builtin:CP2", "--spec", "ahat")
    assert "value = -1/8" in r.stdout


def test_output_file(tmp_path):
    out = tmp_path / "result.json"
    r = run_cli("genus", "--manifold", "builtin:CP2", "--spec", "ahat", "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    assert json.loads(out.read_text())["value"] == "-1/8"
    # an error goes to the same file and replaces the earlier result
    r = run_cli("genus", "--manifold", "builtin:nosuch", "--out", str(out))
    assert (r.returncode, r.stdout) == (2, "")
    assert json.loads(out.read_text())["code"] == "invalid"


def test_resource_cap_exits_4(tmp_path):
    path = tmp_path / "big.json"
    identity = [[int(i == j) for j in range(26)] for i in range(26)]
    path.write_text(json.dumps(identity))
    r = run_cli("obstruct", "--matrix-file", str(path))
    assert r.returncode == 4
    assert json.loads(r.stdout)["code"] == "resource-cap"


def test_fabricated_spin_action_exits_3(tmp_path):
    # honest HP2_diagonal(1,2,4) weights with one sign flipped: the localization
    # sums become sample-dependent, FAILing rigidity on a spin ambient
    doc = {
        "name": "tampered",
        "ambient": "builtin:HP2",
        "components": [
            {"model": "point", "normal": [
                {"chern": {}, "weight": -1},  # flipped from +1
                {"chern": {}, "weight": -3},
                {"chern": {}, "weight": 3},
                {"chern": {}, "weight": -5},
            ]},
            {"model": "point", "normal": [
                {"chern": {}, "weight": -1},
                {"chern": {}, "weight": -3},
                {"chern": {}, "weight": 2},
                {"chern": {}, "weight": -6},
            ]},
            {"model": "point", "normal": [
                {"chern": {}, "weight": -3},
                {"chern": {}, "weight": -5},
                {"chern": {}, "weight": -2},
                {"chern": {}, "weight": -6},
            ]},
        ],
    }
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc))
    r = run_cli("rigidity", "--action", f"file:{path}", "--lambda", "2,3", "--qorder", "3")
    assert r.returncode == 3
    report = json.loads(r.stdout)  # the report itself, through the one status rule of main
    assert (report["status"], report["spin"]) == ("FAIL", True)


def test_a_payload_value_too_long_to_print_exits_4(capsys, monkeypatch):
    # main encodes the payload inside its error handling: an unprintable value is a resource cap, not a traceback
    def huge(args):
        return {"command": "genus", "value": Fraction(10**5000)}

    monkeypatch.setitem(COMMANDS, "genus", (huge, *COMMANDS["genus"][1:]))
    code, out = run_main(capsys, "genus", "--manifold", "builtin:CP2")
    assert (code, json.loads(out)["code"]) == (4, "resource-cap")


@pytest.mark.parametrize(
    "sample",
    ["1e1000", "7" * 1001, "1e20000", "2,1e-20000"],
    ids=["1e1000", "1001-digit-integer", "1e20000", "1e-20000"],
)
def test_a_value_too_long_to_print_is_a_resource_cap(sample):
    # a sample past Python's int-to-str digit limit is refused before the work, since the report
    # prints it; below the limit the run completes, and its series has integers past the limit
    t0 = time.perf_counter()
    r = run_cli("rigidity", "--action", "builtin:CP2_linear(0,1,3)", "--lambda", sample, "--qorder", "2",
                timeout=30)
    assert time.perf_counter() - t0 < 5
    assert r.returncode == 4
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["code"] == "resource-cap"


@pytest.mark.parametrize(
    "args",
    [("--weights", f"[{'7' * 5000}]", "--order", "3"), ("--fixdim", f"[[{'7' * 5000},[0]]]"),
     ("--matrix-file", "m.json")],
    ids=["weights", "fixdim", "matrix-file"],
)
def test_an_obstruct_integer_past_the_digit_limit_is_a_resource_cap(tmp_path, args):
    # json.loads refuses such a literal with a plain ValueError; it is refused before any int()
    path = tmp_path / "m.json"
    path.write_text(f"[[{'7' * 5000},1]]")
    t0 = time.perf_counter()
    r = run_cli("obstruct", *(str(path) if a == "m.json" else a for a in args), timeout=30)
    assert time.perf_counter() - t0 < 1
    assert r.returncode == 4
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["code"] == "resource-cap"


@pytest.mark.parametrize(
    "args, env",
    [
        (("rigidity", "--action", "builtin:CP2_linear(0,1,3)", "--lambda", "1e10000000"), {}),
        (("rigidity", "--action", "builtin:CP2_linear(0,1,3)", "--lambda", "7" * 5000), {}),
        (("rigidity", "--action", "builtin:CP2_linear(0,1,3)", "--lambda", "2,1e-10000000"), {}),
        (("expand", "--manifold", "builtin:CP2"), {"GENUSLAB_QORDER": "7" * 5000}),
        (("rigidity", "--action", f"builtin:CP2_linear(0,1,{'7' * 5000})", "--lambda", "2"), {}),
        (("genus", "--manifold", f"builtin:CP{'7' * 5000}"), {}),
    ],
    ids=["lambda-1e10000000", "lambda-5000-digits", "lambda-1e-10000000", "qorder-env-5000-digits",
         "builtin-action-weight", "builtin-manifold-index"],
)
def test_a_number_past_the_digit_limit_is_a_resource_cap_before_it_is_converted(args, env):
    # 1e10000000 built 10^10^7 for 14 s; the others exited 2 echoing 5000 digits, or 1 with a traceback
    t0 = time.perf_counter()
    r = run_cli(*args, env_extra=env, timeout=30)
    assert time.perf_counter() - t0 < 1
    assert (r.returncode, json.loads(r.stdout)["code"]) == (4, "resource-cap")
    assert "Traceback" not in r.stderr
    assert "7" * 100 not in r.stdout  # the message gives the digit count, not the literal


@pytest.mark.parametrize("spec", ["generic", "signature"])
def test_a_genus_value_too_long_to_print_exits_4(tmp_path, spec):
    # CP4's tangent with the root 10^1500 h: the generic value_text printed its coefficients with str()
    doc = {"name": "X", "dim_real": 8, "spin": False, "generators": [{"symbol": "h", "degree": 2, "cap": 4}],
           "pairing": "1", "tangent": {"style": "chern", "delta": 1, "entries": [{"form": {"h": "1e1500"}, "mult": 5}]}}
    r = run_cli("genus", "--manifold", f"file:{write_json(tmp_path, doc)}", "--spec", spec)
    assert (r.returncode, json.loads(r.stdout)["code"]) == (4, "resource-cap")
    assert "Traceback" not in r.stderr


def assert_validation_exit(r):
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "error" in json.loads(r.stdout)


def test_non_integer_hypersurface_arguments_exit_2():
    assert_validation_exit(run_cli("expand", "--manifold", "builtin:V(a,b)"))


def test_missing_manifold_file_exits_2(tmp_path):
    assert_validation_exit(run_cli("genus", "--manifold", f"file:{tmp_path / 'missing.json'}"))


def test_missing_matrix_file_exits_2(tmp_path):
    r = run_cli("obstruct", "--matrix-file", str(tmp_path / "missing.json"), "--p", "2")
    assert_validation_exit(r)


def test_action_component_not_an_object_exits_2(tmp_path):
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"ambient": "builtin:HP2", "components": [["point"]]}))
    r = run_cli("rigidity", "--action", f"file:{path}", "--lambda", "2,3")
    assert_validation_exit(r)
    assert json.loads(r.stdout)["code"] == "schema"


def test_out_of_range_fixdim_tables_exit_2():
    # negative or oversized component dimensions and a negative ambient dimension
    for table in ("[[4,[-3,-5]]]", "[[4,[9]]]", "[[-4,[]]]", '[{"dim":8,"components":[4,10]}]'):
        assert_validation_exit(run_cli("obstruct", "--fixdim", table))
    for table in ("[[8,[4,0]]]", "[[4,[0,4]]]"):  # the bounds themselves are allowed
        assert run_cli("obstruct", "--fixdim", table).returncode == 0


@pytest.mark.parametrize(
    "args",
    [
        ("--weights", "[true,2]", "--order", "3"),
        ("--weights", "[2,true]", "--order", "3"),
        ("--fixdim", "[[4,[true,2]]]"),
        ("--fixdim", "[[true,[0,1]]]"),
        ("--fixdim", '[{"dim":8,"components":[false]}]'),
    ],
    ids=["weight", "last-weight", "component", "ambient", "mapping"],
)
def test_bools_where_integers_are_expected_exit_2(args):
    # JSON true/false load as Python bools, which are ints: they must not pass as 1 and 0
    r = run_cli("obstruct", *args)
    assert_validation_exit(r)
    assert json.loads(r.stdout)["code"] == "invalid"


def test_non_geometric_obstruct_inputs_exit_2():
    for args in (
        ("--codim", "-8"),
        ("--codim", "-2", "--order", "3"),
        ("--weights", "[0,0]", "--order", "2"),
        ("--weights", "[1,0,3]", "--order", "5"),
    ):
        r = run_cli("obstruct", *args)
        assert_validation_exit(r)
        assert json.loads(r.stdout)["code"] == "invalid"
    assert run_cli("obstruct", "--codim", "0").returncode == 0


ORDER_BELOW_TWO = {"code": "invalid", "error": "order must be >= 2"}


@pytest.mark.parametrize(
    "args",
    [
        ("--weights", "[]", "--order", "0"),   # a ZeroDivisionError traceback with exit 1 before
        ("--weights", "[]", "--order", "1"),   # exit 0 with m = 0 before
        ("--weights", "[]", "--order", "-2"),  # the same
        ("--weights", "[1]", "--order", "0"),
        ("--weights", "[1,2]", "--order", "1"),
        ("--codim", "4", "--order", "1"),
        ("--codim", "0", "--order", "0"),
        ("--fixdim", "[[8,[4,0]]]", "--order", "1"),  # a mode that reads no order
        ("--matrix-file", "m.json", "--order", "-1"),
    ],
)
def test_an_order_below_two_exits_2_in_every_mode(capsys, tmp_path, args):
    (tmp_path / "m.json").write_text(NORMAL_FORM_SAMPLE)
    code, out = run_main(capsys, "obstruct", *(str(tmp_path / a) if a == "m.json" else a for a in args))
    assert code == 2
    assert json.loads(out) == ORDER_BELOW_TWO


def test_an_empty_weight_list_with_order_zero_is_no_traceback():
    r = run_cli("obstruct", "--weights", "[]", "--order", "0")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout) == ORDER_BELOW_TWO


def test_a_failed_catalog_self_check_exits_3(capsys, monkeypatch, empty_caches):
    # a builtin that fails a classical identity is a bug, not bad input
    empty_caches()
    real = genus.genus_value
    monkeypatch.setattr(genus, "genus_value", lambda spec, model: real(spec, model) * 2)
    code, out = run_main(capsys, "genus", "--manifold", "builtin:HP2")
    assert code == 3
    payload = json.loads(out)
    assert payload["code"] == "internal-inconsistency"
    assert payload["error"] == "catalog self-check failed for HP2: signature = 2, expected 1"
    monkeypatch.undo()
    empty_caches()


@pytest.mark.parametrize("name", ["CP2_linear(0,,1)", "CP2_linear(0,--1,1)", "CP2_linear(-)", "HP1_diagonal(1,-)"])
def test_a_builtin_action_with_a_malformed_weight_exits_2(capsys, name):
    # each ended in a ValueError traceback (found by tests/test_fuzz_cli.py)
    code, out = run_main(capsys, "rigidity", "--action", f"builtin:{name}", "--lambda", "2")
    assert code == 2
    assert json.loads(out) == {"code": "invalid", "error": f"unknown builtin action {name!r}"}


def test_a_builtin_action_that_fails_the_euler_check_exits_3(capsys, monkeypatch):
    # a builtin recipe that fails a classical identity is a bug, not bad input; it exited 2
    monkeypatch.setattr(localization, "euler_fixed_check", lambda action: False)
    code, out = run_main(capsys, "rigidity", "--action", "builtin:CP2_linear(0,1,2)", "--lambda", "2")
    assert code == 3
    assert json.loads(out) == {
        "code": "internal-inconsistency",
        "error": "builtin action CP2_linear(0,1,2): fixed-point data fails the Euler-characteristic check",
    }


def write_json(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def cp2_linear_action():
    """CP2_linear(0,0,1) as an action file document."""
    return {
        "name": "CP2_linear(0,0,1)",
        "ambient": "builtin:CP2",
        "components": [
            {"model": "builtin:CP1", "normal": [{"chern": {"h": "1"}, "weight": 1}]},
            {"model": "point", "normal": [{"chern": {}, "weight": -1}, {"chern": {}, "weight": -1}]},
        ],
    }


def test_a_printed_fail_report_exits_3(capsys, tmp_path):
    # CP2_linear(0,1,2) with its first weight flipped: the q^0 coefficient moves with the sample
    weights = [(-1, 2), (-1, 1), (-2, -1)]
    doc = {
        "ambient": "builtin:CP2",
        "components": [{"model": "point", "normal": [{"chern": {}, "weight": w} for w in ws]} for ws in weights],
    }
    args = ("--lambda", "2,3", "--qorder", "2")
    code, out = run_main(capsys, "rigidity", "--action", f"file:{write_json(tmp_path, doc)}", *args)
    assert (code, json.loads(out)["status"]) == (3, "FAIL")
    code, out = run_main(capsys, "rigidity", "--action", "builtin:CP2_linear(0,1,2)", *args)
    assert (code, json.loads(out)["status"]) == (0, "OBSERVATIONAL")


@pytest.mark.parametrize(
    "entry",
    [
        {"chern": [1], "weight": 1},
        {"chern": "h", "weight": 1},
        {"chern": {"h": "abc"}, "weight": 1},
        {"chern": {"h": [1]}, "weight": 1},
        {"chern": {"h": "1"}, "weight": True},
        {"chern": {"h": "1"}, "weight": 0},
    ],
    ids=["chern-list", "chern-string", "coefficient-abc", "coefficient-list", "weight-true", "weight-zero"],
)
def test_malformed_normal_entries_exit_2(tmp_path, entry):
    doc = cp2_linear_action()
    doc["components"][0]["normal"][0] = entry
    r = run_cli("rigidity", "--action", f"file:{write_json(tmp_path, doc)}", "--lambda", "2,3", "--qorder", "2")
    assert_validation_exit(r)
    assert json.loads(r.stdout)["code"] == "schema"


def test_normal_form_on_a_degree_4_generator_exits_2(tmp_path):
    # a line bundle's Chern class cannot be HP1's degree-4 generator u
    component = {"model": "builtin:HP1", "normal": [{"chern": {"u": "1"}, "weight": 1}, {"chern": {}, "weight": 2}]}
    doc = {"ambient": "builtin:HP2", "components": [component]}
    r = run_cli("rigidity", "--action", f"file:{write_json(tmp_path, doc)}", "--lambda", "2,3", "--qorder", "2")
    assert_validation_exit(r)
    assert json.loads(r.stdout)["code"] == "schema"


def cp1_model():
    return {
        "name": "CP1",
        "dim_real": 2,
        "spin": True,
        "generators": [{"symbol": "h", "degree": 2, "cap": 1}],
        "pairing": "1",
        "tangent": {"style": "chern", "delta": 1, "entries": [{"form": {"h": "1"}, "mult": 2}]},
    }


def cp2_model():
    return {
        "name": "CP2",
        "dim_real": 4,
        "spin": False,
        "generators": [{"symbol": "h", "degree": 2, "cap": 2}],
        "pairing": "1",
        "tangent": {"style": "chern", "delta": 1, "entries": [{"form": {"h": "1"}, "mult": 3}]},
    }


def hp2_model():
    return {
        "name": "HP2",
        "dim_real": 8,
        "spin": True,
        "generators": [{"symbol": "u", "degree": 4, "cap": 2}],
        "pairing": "1",
        "tangent": {
            "style": "pontryagin",
            "delta": 1,
            "entries": [{"form": {"u": "1"}, "mult": 6}, {"form": {"u": "4"}, "mult": -1}],
        },
    }


def _entries_not_a_list(doc):
    doc["tangent"]["entries"] = 5


def _mult_true(doc):
    doc["tangent"]["entries"][0]["mult"] = True


def _cap_true(doc):
    doc["generators"][0]["cap"] = True


def _delta_true(doc):
    doc["tangent"]["delta"] = True


def _chern_on_degree_4(doc):  # HP2's squared roots read as Chern roots of its degree-4 generator
    doc["tangent"]["style"] = "chern"


def _pontryagin_on_degree_2(doc):  # CP2's roots read as squared roots of its degree-2 generator
    doc["tangent"]["style"] = "pontryagin"


@pytest.mark.parametrize(
    "model, mutate",
    [
        (cp2_model, _entries_not_a_list),
        (cp2_model, _mult_true),
        (cp1_model, _cap_true),
        (cp2_model, _delta_true),
        (hp2_model, _chern_on_degree_4),
        (cp2_model, _pontryagin_on_degree_2),
    ],
    ids=["entries-5", "mult-true", "cap-true", "delta-true", "chern-on-degree-4", "pontryagin-on-degree-2"],
)
def test_malformed_tangent_data_exits_2(tmp_path, model, mutate):
    doc = model()
    assert run_cli("genus", "--manifold", f"file:{write_json(tmp_path, doc)}", "--spec", "signature").returncode == 0
    mutate(doc)
    r = run_cli("genus", "--manifold", f"file:{write_json(tmp_path, doc)}", "--spec", "signature")
    assert_validation_exit(r)
    assert json.loads(r.stdout)["code"] == "schema"


def test_a_model_file_above_the_dimension_cap_exits_4(tmp_path):
    doc = cp1_model()  # CP1000: one degree-2 generator of cap 1000, real dimension 2000
    doc.update(name="CP1000", dim_real=2000, spin=False)
    doc["generators"][0]["cap"] = 1000
    doc["tangent"]["entries"][0]["mult"] = 1001
    r = run_cli("genus", "--manifold", f"file:{write_json(tmp_path, doc)}", "--spec", "signature")
    assert r.returncode == 4
    assert json.loads(r.stdout)["code"] == "resource-cap"


# -- argv grammar ---------------------------------------------------------------------


HP2_ACTION = "builtin:HP2_diagonal(1,2,4)"


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("nope",),
        ("expand",),
        ("rigidity", "--action", HP2_ACTION),
        ("expand", "--manifold"),
        ("expand", "--manifold", "builtin:HP2", "--qorder", "six"),
        ("obstruct", "--matrix-file", "m.json", "--p", "2.5"),
        ("obstruct", "--codim", "4", "--order", "x"),
        ("obstruct", "--codim", "1e3"),
        ("expand", "--manifold", "builtin:HP2", "--cusp", "infinity"),
        ("genus", "--manifold", "builtin:HP2", "--spec", "elliptic"),
        ("--format", "xml", "genus", "--manifold", "builtin:HP2"),
        ("genus", "--manifold", "builtin:HP2", "--format=yaml"),
        ("genus", "--manifold", "builtin:HP2", "--bogus", "1"),
        ("obstruct", "--o", "3"),
        ("genus", "--manifold", "builtin:HP2", "stray"),
        ("genus", "--manifold", "builtin:HP2", "--help=x"),
    ],
    ids=[
        "no-command", "unknown-command", "missing-manifold", "missing-lambda", "no-value",
        "qorder", "p", "order", "codim", "cusp", "spec", "format", "format-after", "unknown-option",
        "ambiguous-prefix", "stray-positional", "help-with-value",
    ],
)
def test_usage_errors_exit_2_on_stderr_only(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "genuslab: error:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", [None, "genus", "expand", "verify", "rigidity", "obstruct"])
def test_help_names_every_command_and_option(command):
    r = run_cli(*([command] if command else []), "--help")
    assert r.returncode == 0
    assert r.stderr == ""
    names = [*GLOBAL_OPTIONS, *(COMMANDS[command][2] if command else COMMANDS)]
    assert all(name in r.stdout for name in names)


def run_main(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "canonical, spellings",
    [
        (
            ("expand", "--manifold", "builtin:HP2", "--qorder", "6"),
            [("expand", "--manifold", "builtin:HP2", "--qorder=6"),
             ("expand", "--manifold=builtin:HP2", "--qord", "6"),
             ("expand", "--man", "builtin:HP2", "--q=6")],
        ),
        (
            ("--format", "text", "genus", "--manifold", "builtin:CP2", "--spec", "ahat"),
            [("genus", "--manifold", "builtin:CP2", "--spec", "ahat", "--format", "text"),
             ("--format", "csv", "genus", "--manifold", "builtin:CP2", "--spec", "ahat", "--fo", "text"),
             ("--format=json", "--format", "text", "genus", "--manifold", "builtin:CP2", "--spec=ahat")],
        ),
        (
            ("obstruct", "--codim=-1"),
            [("obstruct", "--codim", "-1"), ("obstruct", "--cod", "-1")],
        ),
        (
            ("rigidity", "--action", HP2_ACTION, "--lambda=-2,3", "--qorder", "2"),
            [("rigidity", "--action", HP2_ACTION, "--lambda", "-2,3", "--qorder", "2")],
        ),
    ],
    ids=["qorder", "format", "negative-codim", "negative-lambda"],
)
def test_spellings_give_the_canonical_bytes(capsys, canonical, spellings):
    want = run_main(capsys, *canonical)
    assert want[1]
    for argv in spellings:
        assert run_main(capsys, *argv) == want


def test_out_before_or_after_the_command_writes_the_stdout_bytes(capsys, tmp_path):
    argv = ("genus", "--manifold", "builtin:CP2", "--spec", "ahat")
    code, want = run_main(capsys, *argv)
    assert code == 0
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert run_main(capsys, "--out", str(before), *argv) == (0, "")
    assert run_main(capsys, *argv, "--o", str(after)) == (0, "")
    assert before.read_text(encoding="utf-8") == after.read_text(encoding="utf-8") == want


def test_a_cold_job_imports_no_module_after_the_cli():
    # a stdlib import on the per-job path (argparse builds pull in gettext and locale)
    # costs every cold CLI process milliseconds that the series kernels never get back
    probe = (
        "import contextlib, io, sys\n"
        "import genuslab.cli as cli\n"
        "before = set(sys.modules)\n"
        "assert not {'argparse', 'gettext', 'locale'} & before, sorted({'argparse', 'gettext', 'locale'} & before)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['expand', '--manifold', 'builtin:HP2', '--qorder', '4'])\n"
        "assert code == 0, code\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_the_cli_imports_no_logging_dataclasses_or_inspect():
    # dataclasses alone pulls in inspect, dis, ast, tokenize and traceback: tens of
    # milliseconds of every cold CLI process that no output needs
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import genuslab.cli\n"
        "print(sorted({'logging', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


@pytest.mark.parametrize("out", ["/nonexistent/x.json", "."], ids=["missing-directory", "a-directory"])
def test_an_out_file_that_cannot_be_opened_exits_2(out):
    r = run_cli("genus", "--manifold", "builtin:CP2", "--out", out)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "genuslab: error: argument --out: can't open" in r.stderr
    assert "Traceback" not in r.stderr


def test_a_zero_weight_in_a_builtin_action_exits_2():  # an action file's is in test_malformed_normal_entries_exit_2
    r = run_cli("rigidity", "--action", "builtin:HP2_diagonal(0,1,2)", "--lambda", "2,3", "--qorder", "2")
    assert_validation_exit(r)
    assert json.loads(r.stdout)["code"] == "invalid"
