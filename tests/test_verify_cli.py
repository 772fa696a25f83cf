"""Verification harness and CLI tests."""

import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from weylkit import (
    AlgebraKind,
    DefiningIdentityFailure,
    ShriekElement,
    UnknownSuite,
    UnsupportedN,
    basis_of_degree,
    dual_presentation,
    relations_of,
    run_suite,
)
from weylkit.cli import _VERBS, cli_main
from weylkit.quadratic import relation_text
from weylkit.shriek import top_word
from weylkit.verify import SUITE_NAMES, bless_golden, compute_golden, load_golden


def _strip_timing(doc):
    for check in doc["checks"]:
        check.pop("elapsedMillis", None)
    return doc


@pytest.mark.parametrize("name, n", [("frobenius", 2), ("nakayama", 2), ("decomposition", 2), ("shriek-dims", 3)])
def test_shriek_suites_check_no_basis_word(monkeypatch, name, n):
    # basis words are valid by construction; these runs once made 1 920, 416, 1 300 and 710 key checks
    checked = []
    inner = ShriekElement._check_keys
    monkeypatch.setattr(ShriekElement, "_check_keys", lambda self, keys: checked.extend(keys) or inner(self, keys))
    assert run_suite(name, n, seed=1).passed
    assert checked == []
    ShriekElement.word(n, top_word(n))  # the wrapper counts
    assert checked == [top_word(n)]


def test_every_suite_passes_smoke():
    for name in SUITE_NAMES:
        report = run_suite(name, 1, seed=5, budget=30)
        assert report.passed, [c for c in report.checks if not c.passed]


def test_center_suite_example():
    report = run_suite("center", 1, 42)
    assert report.passed and report.n_range == [1]


def test_center_suite_solves_each_degree_once(monkeypatch):
    from weylkit import verify

    solves = []
    inner = verify.centralizer_in_degree

    def counting(kind, n, d):
        solves.append((n, d))
        return inner(kind, n, d)

    monkeypatch.setattr(verify, "centralizer_in_degree", counting)
    assert run_suite("center", 2).passed
    assert sorted(solves) == [(n, d) for n in (1, 2) for d in range(6)]


def test_center_suite_crash_fails_each_check_that_hits_it(monkeypatch):
    from weylkit import verify

    def crash(kind, n, d):
        raise RuntimeError("solver down")

    monkeypatch.setattr(verify, "centralizer_in_degree", crash)
    report = run_suite("center", 1)
    assert [c.status for c in report.checks] == ["fail", "fail", "fail"]
    assert all("solver down" in c.witness for c in report.checks)


def test_center_suite_binds_the_read_off_to_the_product(monkeypatch):
    from weylkit import verify

    def everything(kind, n, d):  # every basis monomial, central or not
        return [verify.AlgebraElement.monomial(kind, n, m) for m in basis_of_degree(kind, n, d)]

    monkeypatch.setattr(verify, "centralizer_in_degree", everything)
    report = run_suite("center", 2)
    failed = {c.claim_id: c.witness for c in report.checks if not c.passed}
    for n in (1, 2):
        witness = failed[f"center-read-off-commutes[n={n}]"]
        m = re.fullmatch(r"(\S+) is in the degree-\d read-off, but \[\1, \S+\] = .+", witness)
        assert m and not re.fullmatch(r"1|z(\^\d)?", m[1]), witness  # names a non-central monomial


_CENTER_CLAIMS = ("center-dimension", "center-spanned-by-z-power", "center-read-off-commutes")


@pytest.mark.parametrize(
    "keep, catching",
    [
        (lambda m: not any(m.xexps), _CENTER_CLAIMS),  # ignores the d-exponents
        (lambda m: not any(m.dexps), _CENTER_CLAIMS),  # ignores the x-exponents
        (lambda m: True, _CENTER_CLAIMS),  # keeps every monomial of B
        (lambda m: False, _CENTER_CLAIMS),  # an empty read-off spans no z^d
    ],
    ids=["ignores-d", "ignores-x", "keeps-everything", "returns-nothing"],
)
def test_center_suite_catches_each_read_off_mutant(monkeypatch, keep, catching):
    from weylkit import verify

    assert run_suite("center", 2).passed  # unmutated

    def mutant(kind, n, d):
        return [verify.AlgebraElement.monomial(kind, n, m) for m in basis_of_degree(kind, n, d) if keep(m)]

    monkeypatch.setattr(verify, "centralizer_in_degree", mutant)
    report = run_suite("center", 2)
    failed = {c.claim_id for c in report.checks if not c.passed}
    assert not report.passed
    assert failed == {f"{claim}[n={n}]" for claim in catching for n in (1, 2)}


def test_dual_suite_builds_each_presentation_once(monkeypatch):
    from weylkit import linalg, verify

    calls = []

    def counting(module, name):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or inner(*args))

    counting(verify, "orthogonal_complement")
    counting(verify, "dual_presentation")
    counting(linalg, "_eliminate")
    assert run_suite("dual-orthogonality", 3).passed
    # per n: one complement, the B and C duals and the involution's double complement
    assert calls.count("orthogonal_complement") == 6
    assert calls.count("dual_presentation") == 6
    assert calls.count("_eliminate") == 27


def test_dual_suite_catches_an_engine_off_its_presentation(monkeypatch):
    from weylkit import verify

    # hand C! the dual relations of B: they certify and count alike, but z^2 = 0 in C!
    inner = verify.dual_presentation
    monkeypatch.setattr(verify, "dual_presentation", lambda kind, n: inner(AlgebraKind.B, n))
    report = run_suite("dual-orthogonality", 2)
    failed = [(c.claim_id, c.witness) for c in report.checks if not c.passed]
    assert failed == [
        ("engines-satisfy-relations[n=1]", "x1*d1 + z^2 is not zero in C!"),
        ("engines-satisfy-relations[n=2]", "x1*d1 + x2*d2 + z^2 is not zero in C!"),
    ]


def test_nakayama_suite_crash_fails_each_check_that_hits_it(monkeypatch):
    from weylkit import verify

    def crash(n):
        raise RuntimeError("solver down")

    monkeypatch.setattr(verify, "nakayama", crash)
    report = run_suite("nakayama", 1)
    assert [c.status for c in report.checks] == ["fail"] * 6
    assert all("solver down" in c.witness for c in report.checks)


def test_roundtrip_suite_checks_shriek_text_at_n3(monkeypatch):
    from weylkit import verify

    seen = []
    inner = verify.reduce_expression

    def recording(expr, kind):
        seen.append(expr.n)
        return inner(expr, kind)

    monkeypatch.setattr(verify, "reduce_expression", recording)
    assert run_suite("roundtrip", 3, budget=10).passed
    assert seen.count(3) >= 1


def test_shriek_dims_suite_example():
    report = run_suite("shriek-dims", 2, 0)
    assert report.passed and report.n_range == [1, 2]


EXPECTED_CLAIMS = {
    "pbw-laws": {
        "partial-additivity",
        "partial-subadditivity",
        "commutator-filtration-drop",
        "no-zero-divisors",
        "graded-multiplicativity",
        "unit-bilinearity",
        "associativity",
        "confluence",
        "basis-dimension",
        "filtration-zero-piece",
    },
    "center": {"center-dimension", "center-spanned-by-z-power", "center-read-off-commutes"},
    "dual-orthogonality": {
        "relation-count",
        "complement-dimension",
        "rank-nullity",
        "orthogonality",
        "structured-dual-spans",
        "involution",
        "engines-satisfy-relations",
        "degree-two-dimension",
    },
    "shriek-dims": {
        "degree-dimensions",
        "dimension-palindrome",
        "total-dimension",
        "free-rank-two-split",
        "reduction-confluence",
        "shriek-associativity",
    },
    "frobenius": {"gram-invertible", "form-associativity", "top-pairing-unit", "form-is-top-coefficient"},
    "nakayama": {
        "defining-identity",
        "multiplicativity",
        "graded",
        "z-eigenvector",
        "z-free-restriction",
        "golden-regression",
    },
    "decomposition": {
        "parts-sum",
        "projection-idempotent",
        "subalgebra-closure",
        "rank-two-dimensions",
        "z-span-change-of-basis",
        "bimodule-closure",
    },
    "localization": {
        "dehomogenize-ring-hom",
        "kernel-characterization",
        "round-trip-dehom-homog",
        "fraction-laws",
        "theta-isomorphism",
        "mu-multiplicative",
        "degree-additivity",
        "z-torsion-free",
    },
    "roundtrip": {"parse-render-pbw", "parse-render-shriek", "render-injective", "json-shape"},
}


def test_claim_inventory_is_stable():
    # every claim runs exactly once per n, and none silently disappears
    for name, expected in EXPECTED_CLAIMS.items():
        for n in (1, 3):
            report = run_suite(name, n, seed=2, budget=10)
            got = {c.claim_id.split("[")[0] for c in report.checks}
            assert got == expected, (name, n, got ^ expected)
            assert len(report.checks) == n * len(expected)
            assert all(c.paper_anchor for c in report.checks)


def test_suite_determinism():
    a = run_suite("pbw-laws", 2, seed=11, budget=40)
    b = run_suite("pbw-laws", 2, seed=11, budget=40)
    assert _strip_timing(a.to_json_dict()) == _strip_timing(b.to_json_dict())


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite", 1)


def test_unsupported_n():
    with pytest.raises(UnsupportedN):
        run_suite("nakayama", 4)
    with pytest.raises(UnsupportedN):
        run_suite("pbw-laws", 4)
    with pytest.raises(UnsupportedN):
        run_suite("pbw-laws", 0)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_shares_one_n_cap(name):
    assert run_suite(name, 3, budget=3).passed
    with pytest.raises(UnsupportedN):
        run_suite(name, 4)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_refuses_a_zero_budget(name):
    with pytest.raises(ValueError):
        run_suite(name, 1, budget=0)


@pytest.mark.parametrize("n, budget", [(1, 2.5), (1.0, 10), ("1", 10), (1, None)])
def test_suite_refuses_a_non_int_n_or_budget_before_any_check(monkeypatch, n, budget):
    # a float budget reached the checks, which each failed with a TypeError witness
    from weylkit import verify

    monkeypatch.setattr(verify, "_Recorder", lambda *args: pytest.fail("a check ran"))
    with pytest.raises(TypeError):
        run_suite("pbw-laws", n, budget=budget)


def test_report_shape():
    report = run_suite("center", 2, seed=1, budget=10)
    doc = report.to_json_dict()
    assert doc["suiteName"] == "center"
    assert doc["nRange"] == [1, 2]
    for check in doc["checks"]:
        assert set(check) == {"claimId", "paperAnchor", "status", "witness", "elapsedMillis"}
        assert check["status"] in ("pass", "fail")
        if check["status"] == "fail":
            assert check["witness"]


def test_golden_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLKIT_GOLDEN_DIR", str(tmp_path))
    assert load_golden(1) is None
    path = bless_golden(1)
    assert path.parent == tmp_path
    assert load_golden(1) == compute_golden(1)


def test_golden_mismatch_detected(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLKIT_GOLDEN_DIR", str(tmp_path))
    data = compute_golden(1)
    data["nakayama_z_scalar"] = "7/1"
    path = tmp_path / "shriek_n1.json"
    path.write_text(json.dumps(data))
    report = run_suite("nakayama", 1, seed=1, budget=10)
    golden_checks = [c for c in report.checks if c.claim_id.startswith("golden")]
    assert golden_checks and not golden_checks[0].passed


def _wrong_nakayama(monkeypatch):
    """Make ``verify.nakayama`` return sigma with x1's image scaled by 2."""
    from weylkit import verify
    from weylkit.shriek import NakayamaMap

    real = verify.nakayama

    def wrong(n):
        images = real(n).images
        return NakayamaMap(n, dict(images, x1=images["x1"].scaled(2)))

    monkeypatch.setattr(verify, "nakayama", wrong)


def test_refused_bless_keeps_the_golden_file(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLKIT_GOLDEN_DIR", str(tmp_path))
    before = bless_golden(1).read_bytes()
    _wrong_nakayama(monkeypatch)
    with pytest.raises(DefiningIdentityFailure, match=r"defining identity fails at \(x1, d1\*z\)"):
        bless_golden(1)
    assert (tmp_path / "shriek_n1.json").read_bytes() == before


def _unsigned_partner(monkeypatch):
    """Make ``shriek._partner`` pair every word with its complement by sign +1."""
    from weylkit import shriek

    real = shriek._partner
    monkeypatch.setattr(shriek, "_partner", lambda u, n: (real(u, n)[0], 1))


@pytest.mark.parametrize("n, negative", [(1, 2), (2, 12), (3, 56)])
def test_form_check_catches_an_unsigned_pairing(monkeypatch, n, negative):
    from weylkit import shriek

    words = shriek.shriek_basis(n)
    assert sum(shriek._partner(u, n)[1] == -1 for u in words) == negative
    assert shriek.form_failure(n) is None
    _unsigned_partner(monkeypatch)
    assert shriek.form_failure(n) is not None
    report = run_suite("frobenius", n, seed=1, budget=10)
    form_checks = {c.claim_id: c.passed for c in report.checks if c.claim_id.startswith("form-is-top")}
    assert form_checks == {f"form-is-top-coefficient[n={k}]": False for k in range(1, n + 1)}


def test_refused_bless_keeps_the_golden_file_under_an_unsigned_pairing(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLKIT_GOLDEN_DIR", str(tmp_path))
    before = bless_golden(2).read_bytes()
    _unsigned_partner(monkeypatch)
    with pytest.raises(DefiningIdentityFailure, match="beta is not the top coefficient"):
        bless_golden(2)
    assert (tmp_path / "shriek_n2.json").read_bytes() == before


@pytest.mark.parametrize("argv", [["verify", "nakayama", "--n", "1", "--bless"], ["nakayama", "--n", "1", "--json"]])
def test_cli_refused_bless_is_a_named_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("WEYLKIT_GOLDEN_DIR", str(tmp_path))
    _wrong_nakayama(monkeypatch)
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: defining identity fails at (x1, d1*z); refusing to bless\n"
    assert not (tmp_path / "shriek_n1.json").exists()


def test_shipped_golden_files_match():
    for n in (1, 2, 3):
        assert load_golden(n) == compute_golden(n)


# -- CLI ------------------------------------------------------------------------


def test_cli_nf(capsys):
    assert cli_main(["nf", "--n", "1", "--algebra", "B", "d1*x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1*d1 + z^2"


def test_cli_nf_shriek(capsys):
    assert cli_main(["nf", "--n", "1", "--algebra", "B!", "z*z"]) == 0
    assert capsys.readouterr().out.strip() == "-x1*d1"


def test_cli_dims(capsys):
    assert cli_main(["dims", "--n", "2", "--algebra", "B!"]) == 0
    assert capsys.readouterr().out.strip() == "1 5 10 10 5 1"


def test_cli_mul_comm(capsys):
    assert cli_main(["mul", "--n", "1", "z", "x1*d1"]) == 0
    assert capsys.readouterr().out.strip() == "z*x1*d1"
    assert cli_main(["comm", "--n", "1", "d1", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "z^2"


def test_cli_theta_and_mu(capsys):
    assert cli_main(["theta", "--n", "1", "x1*d1 + z^2"]) == 0
    assert capsys.readouterr().out.strip() == "x1*d1 + 1"
    assert cli_main(["mu", "--n", "1", "x1*d1 + 1"]) == 0
    assert capsys.readouterr().out.strip() == "(x1*d1 + z^2)/z^2"


def test_cli_homogenize_dehomogenize(capsys):
    assert cli_main(["homogenize", "--n", "1", "x1*d1 + 1"]) == 0
    assert capsys.readouterr().out.strip() == "(x1*d1 + z^2)/z^2"
    assert cli_main(["dehomogenize", "--n", "1", "z^3*x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1"


def test_cli_center(capsys):
    assert cli_main(["center", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "degree 0: dimension 1: 1" in out
    assert "degree 3: dimension 1: z^3" in out


def test_cli_center_at_its_cap(capsys):
    assert cli_main(["center", "--n", "4"]) == 0
    assert capsys.readouterr().out == "".join(
        f"degree {d}: dimension 1: {'1' if d == 0 else 'z' if d == 1 else f'z^{d}'}\n" for d in range(6)
    )


def test_cli_dual(capsys):
    assert cli_main(["dual", "--n", "1", "--algebra", "B"]) == 0
    out = capsys.readouterr().out
    assert "x1*d1 + z^2" in out


def test_cli_nakayama_json(capsys):
    assert cli_main(["nakayama", "--n", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nakayama_z_scalar"] == "1/1"
    assert doc["degree_dimensions"] == [1, 3, 3, 1]


def test_cli_verify_suite(capsys):
    assert cli_main(["verify", "center", "--n", "1", "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "suite PASS" in out


def test_cli_verify_json_schema(capsys):
    assert cli_main(["verify", "nakayama", "--n", "1", "--budget", "10", "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert isinstance(docs, list) and docs[0]["suiteName"] == "nakayama"
    for check in docs[0]["checks"]:
        assert check["status"] == "pass"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_cli_dims_counts_the_pbw_basis(capsys, kind, n):
    # the verb counts by its own formula; the basis it counts is the oracle
    want = [len(basis_of_degree(AlgebraKind(kind), n, d)) for d in range(9)]
    assert cli_main(["dims", "--n", str(n), "--algebra", kind]) == 0
    assert capsys.readouterr().out == " ".join(map(str, want)) + "\n"
    assert cli_main(["dims", "--n", str(n), "--algebra", kind, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"algebra": kind, "n": n, "dims": want}


def test_cli_center_json(capsys):
    assert cli_main(["center", "--n", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["algebra"], doc["n"]) == ("B", 2)
    assert doc["degrees"] == [
        {
            "d": d,
            "dimension": 1,
            "basis": [{"algebra": "B", "n": 2, "terms": [{"coeff": "1/1", "z": d, "x": [0, 0], "d": [0, 0]}]}],
        }
        for d in range(6)
    ]


@pytest.mark.parametrize("kind", ["B", "C"])
def test_cli_dual_json(capsys, kind):
    primal, dual = relations_of(AlgebraKind(kind), 1), dual_presentation(AlgebraKind(kind), 1)
    assert cli_main(["dual", "--n", "1", "--algebra", kind, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "algebra": kind,
        "n": 1,
        "generators": ["x1", "d1", "z"],
        "primal_relations": [relation_text(r, primal.generators) for r in primal.relations],
        "dual_relations": [relation_text(r, dual.generators) for r in dual.relations],
    }


def test_cli_nakayama_text(capsys):
    # the Nakayama automorphism of B! fixes every generator
    assert cli_main(["nakayama", "--n", "2"]) == 0
    assert capsys.readouterr().out == "".join(
        f"sigma({g}) = {g}\n" for g in ("d1", "d2", "x1", "x2", "z")
    ) + "z scalar k = 1\n"


def test_cli_verify_all(capsys):
    assert cli_main(["verify", "all", "--n", "1", "--budget", "5"]) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if "] suite " in line]
    assert [line.split("]")[0][1:] for line in verdicts] == list(SUITE_NAMES)
    assert all(" suite PASS (" in line for line in verdicts)


def test_cli_verify_unknown_suite_fails(capsys):
    assert cli_main(["verify", "bogus", "--n", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_parse_error_exit_code(capsys):
    assert cli_main(["nf", "--n", "1", "x1 +"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_index_error(capsys):
    assert cli_main(["nf", "--n", "1", "x2"]) == 1
    err = capsys.readouterr().err
    assert "index" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["nf", "--algebra", "Q", "x1"],
        ["verify", "center", "--budget", "0"],
        ["dims", "--n", "-1"],
        ["nf", "--seed", "3", "x1"],
        ["center", "--algebra", "A"],
        ["dual", "--algebra", "C!"],
        ["nakayama", "--bless"],
        ["homogenize", "--algebra", "A", "x1"],
        ["verify", "center", "--budget", "1001"],
        ["nf", "--n", "abc", "x1"],
    ],
)
def test_cli_usage_error_exit_code(capsys, argv):
    assert cli_main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


# verb -> (largest --n, EXPR count)
_VERB_MAX_N = {
    "center": (4, 0),
    "nakayama": (3, 0),
    "dims": (1000, 0),
    "dual": (12, 0),
    "nf": (1000, 1),
    "mul": (1000, 2),
    "comm": (1000, 2),
    "homogenize": (1000, 1),
    "dehomogenize": (1000, 1),
    "theta": (1000, 1),
    "mu": (1000, 1),
    "verify": (3, 0),
}


@pytest.mark.parametrize("verb", list(_VERB_MAX_N))
def test_cli_n_guard_fires_before_work(capsys, verb):
    # one past each cap: unguarded, center, dual and nakayama grow fast with n, and
    # nf --n 1000000000 x1 died allocating its exponent vectors
    max_n, exprs = _VERB_MAX_N[verb]
    over = max_n + 1
    assert cli_main([verb, "--n", str(over), *["x1"] * exprs]) == 1
    assert capsys.readouterr().err == f"error: {verb} supports 1 <= n <= {over - 1}, got {over}\n"


_BAD_EXPRESSIONS = {
    "deep-nesting": "(" * 300 + "x1" + ")" * 300,
    "huge-exponent": "d1^10000000*x1^10000000",  # 10^7 + 1 terms
    "huge-expansion": "(x1+d1+z)^40",  # s^20 * s^20 builds more than 100 000 terms
    "huge-coefficient": "2^20000",  # 6021 digits: past the 4300-digit bound when printed
    "huge-literal": "4" * 4400,  # past the same bound when read
}


@pytest.mark.parametrize("text", list(_BAD_EXPRESSIONS.values()), ids=list(_BAD_EXPRESSIONS))
def test_cli_refuses_bad_expression_cleanly(capsys, text):
    assert cli_main(["nf", "--n", "1", "--", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["mul", "comm"])
def test_cli_refuses_huge_product_before_building_it(capsys, verb):
    # 10 000 terms, among them 9999!*z^19998 (35 656 digits); building them took 53 s
    start = time.perf_counter()
    assert cli_main([verb, "--n", "1", "d1^9999", "x1^9999"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_product_guard_lets_a_cancelling_commutator_print(capsys, digit_limit):
    # a*a holds a coefficient of 400! (869 digits), which cancels in a*a - a*a
    digit_limit(640)
    assert cli_main(["comm", "--n", "1", "x1^400*d1^400", "x1^400*d1^400"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert cli_main(["mul", "--n", "1", "x1^400*d1^400", "x1^400*d1^400"]) == 1


def _exchange_powers(verb, n, kind="B"):
    return [verb, "--n", str(n), "--algebra", kind,
            "*".join(f"d{i}^9" for i in range(1, n + 1)), "*".join(f"x{i}^9" for i in range(1, n + 1))]


def _refuse_term_pairs_of_degree(monkeypatch, degree):
    """Fails a test that multiplies a term pair of two monomials, both of ``degree``."""
    from weylkit import pbw

    multiply_pair = pbw._mul_monomials

    def guarded(m1, m2, kind, n):
        if m1.degree == m2.degree == degree:
            raise AssertionError("a term pair of the product was multiplied")
        return multiply_pair(m1, m2, kind, n)

    monkeypatch.setattr(pbw, "_mul_monomials", guarded)


@pytest.fixture
def operands_only(monkeypatch):
    """Fails a test that multiplies a term pair of d1^9*...*d8^9 and x1^9*...*x8^9."""
    # building each operand multiplies smaller monomials; a term pair of the
    # refused product pairs the two whole operands, both of degree 72
    _refuse_term_pairs_of_degree(monkeypatch, 72)


@pytest.mark.parametrize("verb", ["mul", "comm"])
def test_cli_refuses_a_product_of_too_many_terms_before_building_it(capsys, operands_only, verb):
    # 10^8 terms; at n = 5 the 10^5 of them took 2.9 s and 111 MB, and each n is 10x more;
    # at n = 8 the cap is 100 000 * 5 / 8 terms
    start = time.perf_counter()
    assert cli_main(_exchange_powers(verb, 8)) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: the product would build more than 62500 terms\n"


def _sum(n, word):
    return "+".join(word.format(i=i) for i in range(1, n + 1))


def _product(n, word):
    return "*".join(word.format(i=i) for i in range(1, n + 1))


_OVERSIZED_PRODUCTS = {
    # 10 000 terms, 9999! among the coefficients: nf did not end in 10 s, homogenize in 44 s
    **{verb: [verb, "--n", "1", "d1^9999*x1^9999"] for verb in ("nf", "homogenize", "dehomogenize", "theta", "mu")},
    # one term pair that builds 10^8 terms
    "nf-n8": ["nf", "--n", "8", f"({_product(8, 'd{i}^9')})*({_product(8, 'x{i}^9')})"],
    # ... and left to right: the product up to x5^9 builds 10^5 terms (1.5 s), past the cap at n = 8
    "nf-n8-unparenthesized": ["nf", "--n", "8", f"{_product(8, 'd{i}^9')}*{_product(8, 'x{i}^9')}"],
    # 160 000 and 10^6 word pairs
    "mul-B!": ["mul", "--n", "400", "--algebra", "B!", _sum(400, "x{i}"), _sum(400, "d{i}")],
    "mul-B!-n1000": ["mul", "--n", "1000", "--algebra", "B!", _sum(1000, "x{i}"), _sum(1000, "d{i}")],
    # 1 600 pairs of z-words, each up to 400 words: printing 0 took 15.5 s
    "nf-B!": ["nf", "--n", "400", "--algebra", "B!", f"({_sum(40, 'x{i}*z')})*({_sum(40, 'x{i}*z')})"],
}


@pytest.mark.parametrize("argv", list(_OVERSIZED_PRODUCTS.values()), ids=list(_OVERSIZED_PRODUCTS))
def test_cli_refuses_an_oversized_product_in_every_expression_verb(capsys, operands_only, argv):
    start = time.perf_counter()
    assert cli_main(argv) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and err.count("error:") == 1


_LONG_SUM = ["nf", "--n", "1", "9" * 4300 + " + " + "9" * 4300]


def test_cli_render_refuses_a_sum_too_long_to_print(capsys):
    # each literal has 4300 digits, which the tokenizer accepts; their sum has 4301
    assert cli_main(_LONG_SUM) == 1
    assert capsys.readouterr().err == "error: a coefficient has more than 4300 digits\n"


_LONG_EXPONENTS = {
    "nf": ["nf", "--n", "1", "--", f"(x1^{'9' * 4300})^2"],
    "mu": ["mu", "--n", "1", "x1", "--", "-" + "9" * 4300],
    "mu-json": ["mu", "--n", "1", "--json", "x1", "--", "-" + "9" * 4300],
}


@pytest.mark.parametrize("argv", list(_LONG_EXPONENTS.values()), ids=list(_LONG_EXPONENTS))
def test_cli_render_names_an_exponent_too_long_to_print(capsys, argv):
    # every coefficient is 1: the long number is an x1 exponent or a z power
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: an exponent has more than 4300 digits\n"


_EXCHANGE_REFUSAL = "error: the product's exchange factors may have more than 34400 bits\n"


def test_cli_comm_guard_reads_the_lower_product_when_it_is_lower(capsys):
    # x1^9999*d1^9999 exchanges nothing; d1^9999*x1^9999 reaches 0 with 9999!
    start = time.perf_counter()
    assert cli_main(["comm", "--n", "1", "x1^9999", "d1^9999"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == _EXCHANGE_REFUSAL


def test_cli_theta_strips_a_large_z_power_at_once(capsys):
    # stripping one z at a time took 0.82 s for z^99999, linear in the exponent
    start = time.perf_counter()
    assert cli_main(["theta", "--n", "1", "z^10000000"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "1\n"


def test_cli_product_guard_refuses_on_the_exchange_bits_before_any_term_pair(capsys, monkeypatch):
    from weylkit import normal_form, parse, render

    text = "(3*x1 - 2*d1 + z)^4"
    assert cli_main(["nf", "--n", "1", text]) == 0
    assert capsys.readouterr().out == render(normal_form(parse(text, 1, AlgebraKind.B), AlgebraKind.B)) + "\n"
    # d1^k*x1^k prints for k <= 1548; its exchange bits, 22k, pass 8 * 4300 at k = 1564
    _refuse_term_pairs_of_degree(monkeypatch, 1564)
    assert cli_main(["mul", "--n", "1", "d1^1564", "x1^1564"]) == 1
    assert capsys.readouterr().err == _EXCHANGE_REFUSAL


_DIGIT_REFUSALS = {
    **{f"bad-{name}": ["nf", "--n", "1", "--", text] for name, text in _BAD_EXPRESSIONS.items()},
    **{f"huge-{verb}": [verb, "--n", "1", "d1^9999", "x1^9999"] for verb in ("mul", "comm")},
    **{f"many-{verb}": _exchange_powers(verb, 8) for verb in ("mul", "comm")},
    **{f"oversized-{name}": argv for name, argv in _OVERSIZED_PRODUCTS.items()},
    "long-sum": _LONG_SUM,
    **{f"long-exponent-{name}": argv for name, argv in _LONG_EXPONENTS.items()},
    "comm-lower": ["comm", "--n", "1", "x1^9999", "d1^9999"],
    "exchange-bits": ["mul", "--n", "1", "d1^1564", "x1^1564"],
}


@pytest.mark.parametrize("argv", list(_DIGIT_REFUSALS.values()), ids=list(_DIGIT_REFUSALS))
def test_cli_refusals_do_not_follow_the_interpreter_digit_limit(capsys, digit_limit, argv):
    # an interpreter limit of 0 means no limit; the bound stays 4300 digits
    outcomes = []
    for limit in (None, 0):
        if limit is not None:
            digit_limit(limit)
        start = time.perf_counter()
        status = cli_main(argv)
        assert time.perf_counter() - start < 1
        outcomes.append((status, capsys.readouterr()))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 1


@pytest.mark.parametrize("q, p", [(9, 99), (1, 200)])
def test_cli_nf_evaluates_a_product_without_rewriting(capsys, rewrite_steps, q, p):
    # rewriting d1^9*x1^99 took 262 450 steps (2-3 s), and d1*x1^200 20 301
    from weylkit import AlgebraElement, AlgebraKind, Generator, multiply, render

    d1, x1 = (AlgebraElement.generator(AlgebraKind.B, 1, g) for g in (Generator.d(1), Generator.x(1)))
    assert cli_main(["nf", "--n", "1", f"d1^{q}*x1^{p}"]) == 0
    assert rewrite_steps == []
    assert capsys.readouterr().out == render(multiply(d1**q, x1**p)) + "\n"


def test_cli_term_guard_counts_what_multiply_builds(capsys, monkeypatch):
    from weylkit import expressions

    monkeypatch.setattr(expressions, "_MAX_PRODUCT_TERMS", 1000)
    assert cli_main(_exchange_powers("mul", 3)) == 0  # exactly 10^3 terms
    assert capsys.readouterr().out.count(" + ") == 999
    assert cli_main(_exchange_powers("comm", 3)) == 1  # b*a builds one more
    assert capsys.readouterr().err.startswith("error:")
    assert cli_main(_exchange_powers("mul", 8, "C")) == 0  # nothing exchanges in C
    assert capsys.readouterr().out.count("*") == 15
    # the same 10^3 terms at n = 6, where the cap falls to 1000 * 5 // 6
    assert cli_main(["mul", "--n", "6", *_exchange_powers("mul", 3)[3:]]) == 1
    assert capsys.readouterr().err == "error: the product would build more than 833 terms\n"
    # in B! x_i*z times x_j*z builds -x_k*d_k for the one index k unused (i != j) and nothing
    # for i == j, and every visited pair counts at least one: 9 pairs count 9
    square = ["nf", "--n", "3", "--algebra", "B!", "(x1*z + x2*z + x3*z)^2"]
    monkeypatch.setattr(expressions, "_MAX_PRODUCT_TERMS", 9)
    assert cli_main(square) == 0
    monkeypatch.setattr(expressions, "_MAX_PRODUCT_TERMS", 8)
    assert cli_main(square) == 1
    assert capsys.readouterr().err == "error: the product would build more than 8 terms\n"


def test_cli_parser_is_reused_with_fresh_defaults(capsys, monkeypatch):
    from weylkit import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    # every option is read before the one nf does not take is refused
    assert cli_main(["nf", "--n", "2", "--algebra", "A", "--json", "d1*x1", "--seed", "3"]) == 2
    capsys.readouterr()
    assert cli_main(["nf", "d1*x1"]) == 0
    assert capsys.readouterr().out == "x1*d1 + z^2\n"  # n = 1, kind B, text
    assert built == [1]


def test_cli_long_unary_minus_chain(capsys):
    assert cli_main(["nf", "--n", "1", "--", "-" * 3000 + "x1"]) == 0
    assert capsys.readouterr().out == "x1\n"


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from(sorted(_VERBS)))
    verb = _VERBS[name]
    argv = [name, "--n", str(draw(st.sampled_from([1, verb.max_n + 1])))]
    if draw(st.booleans()):
        argv.append("--json")
    if verb.kinds:
        argv += ["--algebra", draw(st.sampled_from(verb.kinds))]
    if name == "verify":
        argv += [draw(st.sampled_from(["all", *SUITE_NAMES])), "--budget", draw(st.sampled_from(["1", "1001"]))]
    if verb.exprs:
        argv += ["--", *[draw(st.text(alphabet="xdz0123456789+-*^/() ", max_size=8)) for _ in range(verb.exprs)]]
    return argv


@settings(max_examples=80, deadline=1000)
@given(_argvs())
@example(["nf", "--n", "1", "--", "d1^8*x1^8"])
@example(["nf", "--n", "1", "--", "(d1+x1+z)^8"])
# a z power, or a degree in an error message, past Python's 4300-digit int-to-str limit
@example(["mu", "--n", "1", "x1", "--", "-" + "9" * 4300])
@example(["mu", "--n", "1", "--json", "x1", "--", "-" + "9" * 4300])
@example(["theta", "--n", "1", "--", f"(x1^{'9' * 4300})^2 + x1"])
def test_cli_fuzz_ends_in_a_clean_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli_main(argv)
    assert status in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def test_cli_text_output_deterministic(capsys):
    assert cli_main(["verify", "roundtrip", "--n", "2", "--seed", "9", "--budget", "25"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["verify", "roundtrip", "--n", "2", "--seed", "9", "--budget", "25"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_json_deterministic_modulo_timing(capsys):
    assert cli_main(["verify", "center", "--n", "1", "--seed", "3", "--json"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert cli_main(["verify", "center", "--n", "1", "--seed", "3", "--json"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert [_strip_timing(r) for r in a] == [_strip_timing(r) for r in b]


def test_cli_bless_to_override_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEYLKIT_GOLDEN_DIR", str(tmp_path))
    assert cli_main(["verify", "nakayama", "--n", "1", "--budget", "10", "--bless"]) == 0
    capsys.readouterr()
    assert (tmp_path / "shriek_n1.json").exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weylkit.cli", "nf", "--n", "1", "d1*x1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1*d1 + z^2"


def test_console_entry_point_exits_quietly_on_a_closed_stdout():
    # 869 252 bytes of dimensions: more than a pipe buffers, so the CLI writes after the close
    with subprocess.Popen(
        [sys.executable, "-m", "weylkit.cli", "dims", "--n", "1000", "--algebra", "B!"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def _readme_verb_rows() -> list[tuple[str, str]]:
    """(example, output) of each row of README's verb table, the backticks of the example stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = []
    for line in readme.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]  # "A\|B" is one cell
        if len(cells) == 5 and cells[3].startswith("`weylkit "):
            rows.append((cells[3].strip("`"), cells[4]))
    return rows


_README_ROWS = _readme_verb_rows()


def test_readme_verb_table_has_a_row_per_verb():
    assert sorted(shlex.split(example)[1] for example, _ in _README_ROWS) == sorted(_VERBS)


@pytest.mark.parametrize("example, output", _README_ROWS, ids=[shlex.split(e)[1] for e, _ in _README_ROWS])
def test_readme_verb_example_runs(capsys, example, output):
    assert cli_main(shlex.split(example)[1:]) == 0
    out = capsys.readouterr().out
    if re.fullmatch(r"`[^`]*`", output):  # a literal output, not a description
        assert out.strip() == output.strip("`")
