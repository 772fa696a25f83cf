"""Named, reproducible verification suites.

Each suite binds a family of algebraic claims to executable checks over a
deterministic sample stream derived from (seed, suite name, n).  A check
records a claim id, the mathematical statement it tests (its anchor), a
pass/fail status, a rendered counterexample on failure, and elapsed time.

Suites: pbw-laws, center, dual-orthogonality, shriek-dims, frobenius,
nakayama, decomposition, localization, roundtrip.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from . import linalg
from .errors import DefiningIdentityFailure, UnknownSuite, UnsupportedN
from .expressions import parse, render
from .generators import AlgebraKind, Generator, Rational, rank_generator
from .pbw import (
    AlgebraElement,
    PBWMonomial,
    basis_of_degree,
    centralizer_in_degree,
    commutator,
    divide_by_z,
    graded_degree,
    multiply,
    normal_form,
    partial_degree,
    word_normal_form,
    z_divides,
    z_shift,
)
from .quadratic import (
    DualRelationBasis,
    QuadraticPresentation,
    dual_presentation,
    orthogonal_complement,
    pairing,
    relation_failure,
    relation_rows,
    relation_text,
    relations_of,
)
from .shriek import (
    NakayamaMap,
    ShriekElement,
    ShriekWord,
    apply_automorphism,
    bilinear_form,
    decompose,
    defining_identity_failure,
    degree_dimensions,
    form_failure,
    gram_matrix,
    multiply as smul,
    nakayama,
    reduce_expression,
    reduce_word as sreduce,
    shriek_basis,
    shriek_basis_of_degree,
    top_word,
)
from . import localization as loc

DEFAULT_SEED = 1729
DEFAULT_BUDGET = 200


@dataclass
class CheckResult:
    claim_id: str
    paper_anchor: str
    status: str
    witness: str | None
    elapsed_millis: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class SuiteReport:
    suite_name: str
    n_range: list[int]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suiteName": self.suite_name,
            "nRange": self.n_range,
            "passed": self.passed,
            "checks": [
                {
                    "claimId": c.claim_id,
                    "paperAnchor": c.paper_anchor,
                    "status": c.status,
                    "witness": c.witness,
                    "elapsedMillis": c.elapsed_millis,
                }
                for c in self.checks
            ],
        }

    def text_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            line = f"[{self.suite_name}] {c.status.upper():4s} {c.claim_id} -- {c.paper_anchor}"
            if c.witness:
                line += f" | witness: {c.witness}"
            lines.append(line)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"[{self.suite_name}] suite {verdict} ({len(self.checks)} checks, n in {self.n_range})"
        )
        return lines


class _Recorder:
    def __init__(self, report: SuiteReport, n: int):
        self.report = report
        self.n = n

    def check(self, claim_id: str, anchor: str, fn: Callable[[], str | None]) -> None:
        start = time.perf_counter()
        try:
            witness = fn()
        except Exception as exc:  # a crashed check is a failed check
            witness = f"exception: {exc!r}"
        elapsed = int((time.perf_counter() - start) * 1000)
        self.report.checks.append(
            CheckResult(
                claim_id=f"{claim_id}[n={self.n}]",
                paper_anchor=anchor,
                status="fail" if witness else "pass",
                witness=witness,
                elapsed_millis=elapsed,
            )
        )

    def sample(self, claim_id: str, anchor: str, count: int, probe: Callable[[], str | None]) -> None:
        """Record a check that calls ``probe`` up to ``count`` times; its first witness fails it."""

        def draws():
            for _ in range(count):
                witness = probe()
                if witness:
                    return witness
            return None

        self.check(claim_id, anchor, draws)


# -- deterministic random objects -----------------------------------------------

_MAX_TERMS = 3  # terms drawn per random element, before like terms merge
_MAX_Z = 2  # z exponent of a random PBW monomial


def random_element(
    rng: random.Random, kind: AlgebraKind, n: int, max_partial: int = 3, nonzero: bool = False
) -> AlgebraElement:
    while True:
        coeffs: dict[PBWMonomial, Rational] = {}
        for _ in range(rng.randint(1 if nonzero else 0, _MAX_TERMS)):
            partial = rng.randint(0, max_partial)
            exps = [0] * (2 * n)
            for _ in range(partial):
                exps[rng.randrange(2 * n)] += 1
            ze = 0 if kind is AlgebraKind.A else rng.randint(0, _MAX_Z)
            m = PBWMonomial(ze, tuple(exps[:n]), tuple(exps[n:]))
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
            coeffs[m] = coeffs.get(m, 0) + c
        e = AlgebraElement(kind, n, coeffs)
        if not nonzero or not e.is_zero():
            return e


def random_homogeneous(rng: random.Random, kind: AlgebraKind, n: int, basis: list[PBWMonomial]) -> AlgebraElement:
    coeffs: dict[PBWMonomial, Rational] = {}
    for _ in range(rng.randint(1, _MAX_TERMS)):
        m = rng.choice(basis)
        coeffs[m] = coeffs.get(m, 0) + rng.choice([-2, -1, 1, 2])
    return AlgebraElement(kind, n, coeffs)


def random_word(
    rng: random.Random, n: int, kind: AlgebraKind, max_len: int = 6
) -> tuple[Generator, ...]:
    pool = [rank_generator(r, n) for r in range(2 * n + 1 if kind.has_z else 2 * n)]  # x, d, then z
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def random_shriek(rng: random.Random, n: int, words: list[ShriekWord]) -> ShriekElement:
    coeffs: dict = {}
    for _ in range(rng.randint(0, _MAX_TERMS)):
        w = rng.choice(words)
        coeffs[w] = coeffs.get(w, 0) + rng.choice([-2, -1, 1, 2])
    return ShriekElement.of_basis(n, coeffs)


def _word_draws(
    rng: random.Random, n: int, k: int, budget: int
) -> tuple[Callable[[], tuple[ShriekWord, ...]], int]:
    """(draw, count): each k-tuple of basis words once at n = 1, else ``budget`` random k-tuples."""
    words = shriek_basis(n)
    if n == 1:
        return itertools.product(words, repeat=k).__next__, len(words) ** k
    return (lambda: tuple(rng.choice(words) for _ in range(k))), budget


# -- individual suites ------------------------------------------------------------

def _suite_pbw_laws(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    kind = AlgebraKind.B
    one = AlgebraElement.one(kind, n)

    def nonzero_pair():
        return random_element(rng, kind, n, nonzero=True), random_element(rng, kind, n, nonzero=True)

    def partial_additivity():
        a, b = nonzero_pair()
        ab = multiply(a, b)
        if ab.is_zero() or partial_degree(ab) != partial_degree(a) + partial_degree(b):
            return f"a = {a}; b = {b}; ab = {ab}"
        return None

    rec.sample("partial-additivity", "partial(ab) = partial(a) + partial(b)", budget, partial_additivity)

    def partial_subadditivity():
        a, b = nonzero_pair()
        s = a + b
        if not s.is_zero() and partial_degree(s) > max(partial_degree(a), partial_degree(b)):
            return f"a = {a}; b = {b}"
        return None

    rec.sample(
        "partial-subadditivity", "partial(a+b) <= max(partial(a), partial(b))", budget, partial_subadditivity
    )

    def commutator_drop():
        a, b = nonzero_pair()
        c = commutator(a, b)
        if not c.is_zero() and partial_degree(c) > partial_degree(a) + partial_degree(b) - 1:
            return f"a = {a}; b = {b}; [a,b] = {c}"
        return None

    rec.sample("commutator-filtration-drop", "[F_p, F_t] lies in F_(p+t-1)", budget, commutator_drop)

    def no_zero_divisors():
        a, b = nonzero_pair()
        return f"a = {a}; b = {b}" if multiply(a, b).is_zero() else None

    rec.sample("no-zero-divisors", "the homogenized algebra is an integral domain", budget, no_zero_divisors)

    def graded_multiplicativity():
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        a = random_homogeneous(rng, kind, n, basis_of_degree(kind, n, da))
        b = random_homogeneous(rng, kind, n, basis_of_degree(kind, n, db))
        if a.is_zero() or b.is_zero():
            return None
        ab = multiply(a, b)
        if ab.is_zero() or graded_degree(ab) != da + db:
            return f"a = {a}; b = {b}"
        return None

    rec.sample(
        "graded-multiplicativity",
        "deg(ab) = deg(a) + deg(b) for homogeneous a, b",
        budget,
        graded_multiplicativity,
    )

    def unit_and_bilinearity():
        a = random_element(rng, kind, n)
        b = random_element(rng, kind, n)
        c = random_element(rng, kind, n)
        lam = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        if multiply(a, one) != a or multiply(one, a) != a:
            return f"unit law fails on a = {a}"
        if multiply(a + b, c) != multiply(a, c) + multiply(b, c):
            return f"left distributivity fails: a = {a}; b = {b}; c = {c}"
        if multiply(c, a + b) != multiply(c, a) + multiply(c, b):
            return f"right distributivity fails: a = {a}; b = {b}; c = {c}"
        if multiply(a.scaled(lam), b) != multiply(a, b).scaled(lam):
            return f"scalar compatibility fails: a = {a}; b = {b}; lam = {lam}"
        return None

    rec.sample(
        "unit-bilinearity", "multiplication is unital and bilinear", max(budget // 4, 10), unit_and_bilinearity
    )

    def associativity():
        a = random_element(rng, kind, n)
        b = random_element(rng, kind, n)
        c = random_element(rng, kind, n)
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            return f"a = {a}; b = {b}; c = {c}"
        return None

    rec.sample("associativity", "(ab)c = a(bc)", budget, associativity)

    def confluence():
        k = rng.choice([AlgebraKind.A, AlgebraKind.B, AlgebraKind.C])
        w = random_word(rng, n, k)
        reference = word_normal_form(w, k, n)
        if any(word_normal_form(w, k, n, rng=rng) != reference for _ in range(3)):
            return f"word {'*'.join(map(str, w)) or '1'} in {k.value}"
        # split the word and cross-check against the closed-form product
        cut = rng.randint(0, len(w))
        left = word_normal_form(w[:cut], k, n)
        right = word_normal_form(w[cut:], k, n)
        if multiply(left, right) != reference:
            return f"split product mismatch on {'*'.join(map(str, w)) or '1'}"
        return None

    rec.sample(
        "confluence", "randomized reduction orders yield one normal form", max(budget // 4, 20), confluence
    )

    def basis_dimension():
        for d in range(0, 9):
            got = len(basis_of_degree(AlgebraKind.B, n, d))
            want = comb(d + 2 * n, 2 * n)
            if got != want:
                return f"degree {d}: {got} != C({d + 2 * n},{2 * n}) = {want}"
        return None

    rec.check("basis-dimension", "PBW basis: dim B_d = C(d+2n, 2n)", basis_dimension)

    def filtration_zero_piece():
        if partial_degree(one) != 0:
            return "1 is not in filtration degree 0"
        a = random_element(rng, kind, n, nonzero=True)
        in_kz = all(m.partial == 0 for m in a.coeffs)
        return f"a = {a}" if (partial_degree(a) == 0) != in_kz else None

    rec.sample(
        "filtration-zero-piece",
        "the partial-degree-0 piece is exactly the z polynomials, and contains 1",
        max(budget // 10, 10),
        filtration_zero_piece,
    )


def _suite_center(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    max_degree = 5

    @functools.cache  # a read-off that raises is not cached: it fails each check that asks
    def centralizer(d: int) -> list[AlgebraElement]:
        return centralizer_in_degree(AlgebraKind.B, n, d)

    def center_dims():
        for d in range(0, max_degree + 1):
            cz = centralizer(d)
            if len(cz) != 1:
                return f"degree {d}: dimension {len(cz)}"
        return None

    rec.check("center-dimension", "the center is K[z]: one dimension per degree", center_dims)

    def center_span():
        for d in range(0, max_degree + 1):
            cz = centralizer(d)
            if not cz:
                return f"degree {d}: the read-off is empty"
            zd = PBWMonomial(d, (0,) * n, (0,) * n)
            for v in cz:
                if set(v.coeffs) != {zd}:
                    return f"degree {d}: basis vector {v} is not a multiple of z^{d}"
        return None

    rec.check("center-spanned-by-z-power", "the degree-d center is spanned by z^d", center_span)

    # the read-off makes no product; this claim checks it against the product
    gens = [AlgebraElement.generator(AlgebraKind.B, n, rank_generator(r, n)) for r in range(2 * n + 1)]

    def read_off_matches_commutators():
        d = rng.randint(0, max_degree)
        m = AlgebraElement.monomial(AlgebraKind.B, n, rng.choice(basis_of_degree(AlgebraKind.B, n, d)))
        listed = m in centralizer(d)
        for g in gens:
            if not (c := commutator(m, g)).is_zero():
                return f"{m} is in the degree-{d} read-off, but [{m}, {g}] = {c}" if listed else None
        return None if listed else f"{m} commutes with every generator but is not in the degree-{d} read-off"

    rec.sample(
        "center-read-off-commutes",
        "a basis monomial is read off as central iff it commutes with every generator",
        max(budget // 10, 10),
        read_off_matches_commutators,
    )


def _suite_dual(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    B, C = AlgebraKind.B, AlgebraKind.C

    # each object is built once per n, as in _suite_center
    @functools.cache
    def primal(kind: AlgebraKind = B) -> QuadraticPresentation:
        return relations_of(kind, n)

    @functools.cache
    def complement() -> DualRelationBasis:
        return orthogonal_complement(primal())

    @functools.cache
    def dual(kind: AlgebraKind) -> QuadraticPresentation:
        return dual_presentation(kind, n)

    def relation_count():
        got = len(primal().relations)
        want = 2 * n * n + n
        return None if got == want else f"{got} != {want}"

    rec.check("relation-count", "B(n) has 2n^2+n quadratic relations", relation_count)

    def complement_dimension():
        comp = complement()
        want = 2 * n * n + 3 * n + 1
        return None if len(comp.basis) == want else f"{len(comp.basis)} != {want}"

    rec.check("complement-dimension", "dim of the dual relation space is 2n^2+3n+1", complement_dimension)

    def rank_nullity():
        total = len(primal().relations) + len(complement().basis)
        want = (2 * n + 1) ** 2
        return None if total == want else f"{total} != {want}"

    rec.check("rank-nullity", "dim R + dim R-perp = (2n+1)^2", rank_nullity)

    def orthogonality():
        p, comp = primal(), complement()
        for r in p.relations:
            for s in comp.basis:
                if pairing(r, s) != 0:
                    return f"pairing gives {pairing(r, s)}"
        return None

    rec.check("orthogonality", "relations pair to zero with the dual relations", orthogonality)

    def structured_span():
        dual(B)  # certifies internally
        dual(C)
        return None

    rec.check(
        "structured-dual-spans",
        "squares, anticommutators and sum x_i d_i + z^2 span the complement",
        structured_span,
    )

    def involution():
        p = primal()
        back = orthogonal_complement(QuadraticPresentation(p.generators, complement().basis))
        g = len(p.generators)
        ok = linalg.span_equal(relation_rows(back.basis, g), relation_rows(p.relations, g))
        return None if ok else "double complement differs from the relation span"

    rec.check("involution", "the orthogonal complement is an involution", involution)

    def presented():  # each engine with the presentation it should satisfy
        return (B, primal(B)), (C, primal(C)), (AlgebraKind.B_SHRIEK, dual(B)), (AlgebraKind.C_SHRIEK, dual(C))

    def engines_satisfy_relations():
        for kind, p in presented():
            if (rel := relation_failure(p, kind)) is not None:
                return f"{relation_text(rel, p.generators)} is not zero in {kind.value}"
        return None

    rec.check("engines-satisfy-relations", "B and C satisfy R; B! and C! satisfy R-perp", engines_satisfy_relations)

    def degree_two_dimension():
        for kind, p in presented():
            got = len(shriek_basis_of_degree(n, 2) if kind.is_shriek else basis_of_degree(kind, n, 2))
            if got != (2 * n + 1) ** 2 - len(p.relations):
                return f"{kind.value}: {got} != {(2 * n + 1) ** 2} - {len(p.relations)}"
        return None

    rec.check("degree-two-dimension", "dim of degree 2 is (2n+1)^2 minus the relation count", degree_two_dimension)


def _suite_shriek_dims(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    words = shriek_basis(n)

    def dims():
        got = [len(shriek_basis_of_degree(n, j)) for j in range(2 * n + 2)]
        formula = [comb(2 * n, j) + (comb(2 * n, j - 1) if j else 0) for j in range(2 * n + 2)]
        if got != formula or degree_dimensions(n) != formula:
            return f"{got} != {formula}"
        return None

    rec.check("degree-dimensions", "dim (B!)_j = C(2n,j) + C(2n,j-1)", dims)

    def palindrome():
        got = degree_dimensions(n)
        return None if got == got[::-1] else f"{got}"

    rec.check("dimension-palindrome", "dim (B!)_j = dim (B!)_(2n+1-j)", palindrome)

    def total():
        want = 2 ** (2 * n + 1)
        return None if len(words) == want else f"{len(words)} != {want}"

    rec.check("total-dimension", "dim B! = 2^(2n+1)", total)

    def split():
        zfree = sum(1 for w in words if w.zflag == 0)
        zfull = sum(1 for w in words if w.zflag == 1)
        want = 2 ** (2 * n)
        return None if zfree == zfull == want else f"{zfree}, {zfull} != {want}"

    rec.check("free-rank-two-split", "B! is free of rank two over its z-free subalgebra", split)

    # the quantum-PBW statement at desk scale: word reduction is
    # confluent, so the square-free words really are a basis
    def reduction_confluence():
        word = random_word(rng, n, AlgebraKind.B_SHRIEK)
        ref = sreduce(word, n)
        if any(sreduce(word, n, rng=rng) != ref for _ in range(3)):
            return f"word {'*'.join(map(str, word)) or '1'}"
        return None

    rec.sample(
        "reduction-confluence",
        "quantum-PBW: randomized shriek reductions agree",
        max(budget // 4, 20),
        reduction_confluence,
    )

    def shriek_associativity():
        a, b, c = (ShriekElement.of_basis(n, {rng.choice(words): 1}) for _ in range(3))
        if smul(smul(a, b), c) != smul(a, smul(b, c)):
            return f"a = {a}; b = {b}; c = {c}"
        return None

    rec.sample("shriek-associativity", "(ab)c = a(bc) in B!", budget, shriek_associativity)


def _suite_frobenius(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    def gram_invertible():
        for j in range(0, 2 * n + 2):
            if linalg.det(gram_matrix(n, j)) == 0:
                return f"gram({n},{j}) is singular"
        return None

    rec.check("gram-invertible", "the Frobenius form is nondegenerate in every degree", gram_invertible)

    draw, count = _word_draws(rng, n, 3, budget)

    def form_associativity():
        a, b, c = (ShriekElement.of_basis(n, {w: 1}) for w in draw())
        if bilinear_form(smul(a, b), c) != bilinear_form(a, smul(b, c)):
            return f"a = {a}; b = {b}; c = {c}"
        return None

    rec.sample("form-associativity", "beta(ab, c) = beta(a, bc)", count, form_associativity)

    def unit_pairing():
        one = ShriekElement.one(n)
        top = ShriekElement.of_basis(n, {top_word(n): 1})
        if bilinear_form(one, top) != 1 or bilinear_form(top, one) != 1:
            return "beta(1, top) != 1"
        return None

    rec.check("top-pairing-unit", "beta(1, top word) = 1", unit_pairing)

    def form_is_top_coefficient():
        u = form_failure(n)
        return None if u is None else f"u = {u}"

    rec.check("form-is-top-coefficient", "beta(u, v) is the top coefficient of uv", form_is_top_coefficient)


def _suite_nakayama(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    words = shriek_basis(n)

    @functools.cache  # one map for every check; read off the pairing, it raises nothing
    def sigma() -> NakayamaMap:
        return nakayama(n)

    def defining_identity():
        failure = defining_identity_failure(sigma())
        if failure is None:
            return None
        y, x = failure
        return f"y = {y}; x = {x}"

    rec.check("defining-identity", "beta(sigma(y), x) = beta(x, y)", defining_identity)

    draw, count = _word_draws(rng, n, 2, budget)

    def multiplicativity():
        nm = sigma()
        a, b = (ShriekElement.of_basis(n, {w: 1}) for w in draw())
        if apply_automorphism(nm, smul(a, b)) != smul(apply_automorphism(nm, a), apply_automorphism(nm, b)):
            return f"a = {a}; b = {b}"
        return None

    rec.sample("multiplicativity", "sigma(uv) = sigma(u) sigma(v)", count, multiplicativity)

    def graded():
        nm = sigma()
        for w in words:
            e = ShriekElement.of_basis(n, {w: 1})
            img = apply_automorphism(nm, e)
            if img.is_zero() or img.degrees() != {w.degree}:
                return f"word {e} maps to {img}"
        return None

    rec.check("graded", "sigma preserves the grading and is bijective per degree", graded)

    def z_eigen():
        nm = sigma()
        try:
            k = nm.z_scalar
        except ValueError as exc:
            return str(exc)
        return None if k != 0 else "sigma(z) = 0"

    rec.check("z-eigenvector", "sigma(z) = k z with k nonzero", z_eigen)

    def z_free_restriction():
        for name, img in sigma().images.items():
            if name == "z":
                continue
            if any(w.zflag for w in img.coeffs):
                return f"sigma({name}) = {img} has a z component"
        return None

    rec.check("z-free-restriction", "sigma restricts to the z-free subalgebra", z_free_restriction)

    def golden_regression():
        stored = load_golden(n)
        if stored is None:
            return f"golden file missing for n={n}; generate it with --bless"
        computed = _golden_data(sigma())
        if stored != computed:
            diffs = [k for k in computed if stored.get(k) != computed[k]]
            return f"golden mismatch in fields {diffs}"
        return None

    rec.check("golden-regression", "Nakayama data matches the blessed golden values", golden_regression)


def _suite_decomposition(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    words = shriek_basis(n)
    zfree = [w for w in words if w.zflag == 0]
    zwords = [w for w in words if w.zflag == 1]

    def parts_sum():
        for w in words:
            e = ShriekElement.of_basis(n, {w: 1})
            c, zp = decompose(e)
            if c + zp != e:
                return f"word {e}"
        for _ in range(budget):
            e = random_shriek(rng, n, words)
            c, zp = decompose(e)
            if c + zp != e:
                return f"element {e}"
        return None

    rec.check("parts-sum", "B! = (z-free part) + (z part)", parts_sum)

    def idempotent():
        e = random_shriek(rng, n, words)
        c, zp = decompose(e)
        zero = ShriekElement(n)
        return f"element {e}" if decompose(c) != (c, zero) or decompose(zp) != (zero, zp) else None

    rec.sample("projection-idempotent", "both projections are idempotent", budget, idempotent)

    def subalgebra_closure():
        elements = [ShriekElement.of_basis(n, {u: 1}) for u in zfree]
        for u in elements:
            for v in elements:
                prod = smul(u, v)
                if any(w.zflag for w in prod.coeffs):
                    return f"{u} * {v} = {prod}"
        return None

    rec.check("subalgebra-closure", "the z-free words form a closed subalgebra", subalgebra_closure)

    def dimensions():
        want = 2 ** (2 * n)
        return None if len(zfree) == len(zwords) == want else f"{len(zfree)}, {len(zwords)}"

    rec.check("rank-two-dimensions", "both summands have dimension 2^(2n)", dimensions)

    def z_span_change_of_basis():
        zel = ShriekElement.generator(n, Generator.z())
        seen = {}
        for u in zfree:
            e = ShriekElement.of_basis(n, {u: 1})
            img = smul(zel, e)
            if len(img.coeffs) != 1:
                return f"z * {e} is not a signed word: {img}"
            w, c = next(iter(img.coeffs.items()))
            if w.zflag != 1 or c not in (1, -1):
                return f"z * {e} = {img}"
            seen[w] = c
        if set(seen) != set(zwords):
            return "left multiplication by z misses part of the z span"
        return None

    rec.check(
        "z-span-change-of-basis",
        "z * (z-free basis) hits each z word exactly once, up to sign",
        z_span_change_of_basis,
    )

    def bimodule_closure():
        c = ShriekElement.of_basis(n, {rng.choice(zfree): 1})
        w = ShriekElement.of_basis(n, {rng.choice(zwords): 1})
        for prod in (smul(c, w), smul(w, c)):
            if any(t.zflag == 0 for t in prod.coeffs):
                return f"c = {c}; w = {w}; product {prod}"
        return None

    rec.sample(
        "bimodule-closure", "multiplication by z-free elements preserves the z span", budget, bimodule_closure
    )


def _suite_localization(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    B, A = AlgebraKind.B, AlgebraKind.A
    zminus1 = AlgebraElement.generator(B, n, Generator.z()) - AlgebraElement.one(B, n)

    def ring_hom():
        a = random_element(rng, B, n)
        b = random_element(rng, B, n)
        if loc.dehomogenize(multiply(a, b)) != multiply(loc.dehomogenize(a), loc.dehomogenize(b)):
            return f"a = {a}; b = {b}"
        if loc.dehomogenize(a + b) != loc.dehomogenize(a) + loc.dehomogenize(b):
            return f"additivity: a = {a}; b = {b}"
        return None

    rec.sample(
        "dehomogenize-ring-hom", "z -> 1 is a ring homomorphism onto the Weyl algebra", budget, ring_hom
    )

    def kernel_characterization():
        w = random_element(rng, B, n, nonzero=True)
        b = multiply(zminus1, w)
        got = loc.kernel_witness(b)
        if got is None or multiply(zminus1, got) != b:
            return f"constructed kernel element {b}"
        a = random_element(rng, B, n, nonzero=True)
        if loc.dehomogenize(a).is_zero() != (loc.kernel_witness(a) is not None):
            return f"characterization fails on {a}"
        return None

    rec.sample("kernel-characterization", "ker(z -> 1) = (z - 1) B", budget, kernel_characterization)

    def round_trips():
        a = random_element(rng, A, n, max_partial=6)
        hb, k = loc.homogenize(a)
        if loc.dehomogenize(hb) != a:
            return f"a = {a}"
        if not a.is_zero() and (not hb.is_homogeneous() or graded_degree(hb) != k):
            return f"homogenize({a}) is not homogeneous of degree {k}"
        return None

    rec.sample("round-trip-dehom-homog", "dehomogenize(homogenize(a)) = a", budget, round_trips)

    def fraction_laws():
        a = loc.make(random_element(rng, B, n), rng.randint(0, 3))
        b = loc.make(random_element(rng, B, n), rng.randint(0, 3))
        if not loc.loc_equals(a, a):
            return f"reflexivity fails on {a}"
        if loc.loc_equals(a, b) != loc.loc_equals(b, a):
            return f"symmetry fails on {a}, {b}"
        # well-definedness: z^t a / z^(k+t) is the same fraction
        t = rng.randint(1, 3)
        a_rep = loc.LocalizedElement(z_shift(a.numerator, t), a.zpow + t)
        if not loc.loc_equals(a, a_rep):
            return f"scaled representative not equal: {a}"
        if not loc.loc_equals(loc.loc_add(a_rep, b), loc.loc_add(a, b)):
            return f"sum not well defined: {a}, {b}"
        if not loc.loc_equals(loc.loc_multiply(a_rep, b), loc.loc_multiply(a, b)):
            return f"product not well defined: {a}, {b}"
        return None

    rec.sample("fraction-laws", "cross-multiplication equality is a congruence", budget, fraction_laws)

    def theta_iso():
        a = random_element(rng, A, n, max_partial=6)
        if loc.theta(loc.theta_inverse(a)) != a:
            return f"round trip fails on {a}"
        b = random_element(rng, A, n)
        e = loc.theta_inverse(a)
        f = loc.theta_inverse(b)
        if loc.theta(loc.loc_multiply(e, f)) != multiply(a, b):
            return f"multiplicativity fails on {a}, {b}"
        if loc.theta(loc.loc_add(e, f)) != a + b:
            return f"additivity fails on {a}, {b}"
        return None

    rec.sample(
        "theta-isomorphism",
        "theta: degree-zero part -> Weyl algebra is a ring isomorphism",
        budget,
        theta_iso,
    )

    def mu_multiplicative():
        a = random_element(rng, A, n)
        b = random_element(rng, A, n)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = loc.loc_multiply(loc.mu(a, s), loc.mu(b, t))
        rhs = loc.mu(multiply(a, b), s + t)
        return f"a = {a}; b = {b}; s = {s}; t = {t}" if lhs != rhs else None

    rec.sample("mu-multiplicative", "mu(a,s) mu(b,t) = mu(ab, s+t)", budget, mu_multiplicative)

    def degree_additivity():
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        a = loc.make(random_homogeneous(rng, B, n, basis_of_degree(B, n, da)), rng.randint(0, 3))
        b = loc.make(random_homogeneous(rng, B, n, basis_of_degree(B, n, db)), rng.randint(0, 3))
        if a.is_zero() or b.is_zero():
            return None
        p = loc.loc_multiply(a, b)
        return f"a = {a}; b = {b}; product {p}" if p.degree() != a.degree() + b.degree() else None

    rec.sample("degree-additivity", "degrees of homogeneous fractions add", budget, degree_additivity)

    def z_torsion_free():
        a = random_element(rng, B, n, nonzero=True)
        k = rng.randint(1, 3)
        if z_shift(a, k).is_zero():
            return f"z^{k} kills {a}"
        b = z_shift(a, k)
        for _ in range(k):
            if not z_divides(b):
                return f"z divisibility bookkeeping broke on {a}"
            b = divide_by_z(b)
        return None if b == a else f"divide_by_z does not invert z multiplication on {a}"

    rec.sample(
        "z-torsion-free",
        "no z torsion at element level: z^k a = 0 only for a = 0",
        budget,
        z_torsion_free,
    )


def _suite_roundtrip(rec: _Recorder, n: int, rng: random.Random, budget: int) -> None:
    words = shriek_basis(n)

    def pbw_roundtrip():
        kind = rng.choice([AlgebraKind.A, AlgebraKind.B, AlgebraKind.C])
        e = random_element(rng, kind, n)
        text = render(e, "text")
        back = normal_form(parse(text, n, kind), kind)
        return f"{text} -> {back}" if back != e else None

    rec.sample("parse-render-pbw", "parse after render recovers every canonical element", budget, pbw_roundtrip)

    def shriek_roundtrip():
        kind = rng.choice([AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK])
        e = ShriekElement.of_basis(n, random_shriek(rng, n, words).coeffs, kind)
        text = render(e, "text")
        back = reduce_expression(parse(text, n, kind), kind)
        return f"{text} -> {back}" if back != e else None

    rec.sample("parse-render-shriek", "round trip through text for shriek elements", budget, shriek_roundtrip)

    seen: dict[str, AlgebraElement] = {}

    def injectivity():
        e = random_element(rng, AlgebraKind.B, n)
        text = render(e, "text")
        if text in seen and seen[text] != e:
            return f"two canonical elements render to {text}"
        seen[text] = e
        return None

    rec.sample("render-injective", "distinct canonical elements render differently", budget, injectivity)

    def json_shape():
        e = random_element(rng, AlgebraKind.B, n, nonzero=True)
        doc = json.loads(render(e, "json"))
        for key in ("algebra", "n", "terms"):
            if key not in doc:
                return f"missing key {key}"
        for t in doc["terms"]:
            for key in ("coeff", "z", "x", "d"):
                if key not in t:
                    return f"missing term key {key}"
            if len(t["x"]) != n or len(t["d"]) != n:
                return "wrong exponent vector length"
        return None

    rec.check("json-shape", "JSON form carries algebra, n and canonical terms", json_shape)


_SUITES: dict[str, Callable[[_Recorder, int, random.Random, int], None]] = {
    "pbw-laws": _suite_pbw_laws,
    "center": _suite_center,
    "dual-orthogonality": _suite_dual,
    "shriek-dims": _suite_shriek_dims,
    "frobenius": _suite_frobenius,
    "nakayama": _suite_nakayama,
    "decomposition": _suite_decomposition,
    "localization": _suite_localization,
    "roundtrip": _suite_roundtrip,
}

SUITE_NAMES = tuple(_SUITES)

SUITE_MAX_N = 3  # the largest pair count every suite accepts


def run_suite(name: str, n: int, seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET) -> SuiteReport:
    """Run one named suite for every pair count 1..n, deterministically.

    The sample stream depends only on (seed, suite name, pair count), so
    identical arguments reproduce identical check outcomes.  A non-int n or
    budget raises TypeError before any check runs.
    """
    if not (isinstance(n, int) and isinstance(budget, int)):
        raise TypeError(f"run_suite needs int n and budget, got {n!r} and {budget!r}")
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if n < 1 or n > SUITE_MAX_N:
        raise UnsupportedN(f"suite {name} supports 1 <= n <= {SUITE_MAX_N}, got {n}")
    if budget < 1:
        raise ValueError("budget must be positive")
    n_values = list(range(1, n + 1))
    report = SuiteReport(suite_name=name, n_range=n_values)
    share = max(budget // len(n_values), 1)
    for ni in n_values:
        rng = random.Random(f"{name}:{seed}:{ni}")
        _SUITES[name](_Recorder(report, ni), ni, rng, share)
    return report


# -- golden values -----------------------------------------------------------------

def golden_path(n: int) -> Path:
    folder = os.environ.get("WEYLKIT_GOLDEN_DIR") or Path(__file__).parent / "golden"
    return Path(folder) / f"shriek_n{n}.json"


def _golden_data(nm: NakayamaMap) -> dict:
    """Dims, Gram determinants, Nakayama images and z scalar for ``nm.n``."""
    n = nm.n
    dets = [linalg.det(gram_matrix(n, j)) for j in range(2 * n + 2)]
    return {
        "n": n,
        "degree_dimensions": degree_dimensions(n),
        "gram_determinants": [f"{d.numerator}/{d.denominator}" for d in dets],
        "nakayama_images": {name: render(img, "json") for name, img in sorted(nm.images.items())},
        "nakayama_z_scalar": f"{nm.z_scalar.numerator}/{nm.z_scalar.denominator}",
    }


def compute_golden(n: int) -> dict:
    """Golden data for one n: dims, Gram determinants, Nakayama images, scalar.

    The complement pairing is checked against the product
    (``shriek.form_failure``); the Nakayama images, read off it (the tests
    keep the Gram solve as their oracle), against the defining identity on
    all basis pairs (``shriek.defining_identity_failure``).  So a blessed
    file is verified output; otherwise :class:`DefiningIdentityFailure`
    names the first failing word or pair.
    """
    u = form_failure(n)
    if u is not None:
        raise DefiningIdentityFailure(f"beta is not the top coefficient of the product at u = {u}; refusing to bless")
    nm = nakayama(n)
    failure = defining_identity_failure(nm)
    if failure is not None:
        y, x = failure
        raise DefiningIdentityFailure(f"defining identity fails at ({y}, {x}); refusing to bless")
    return _golden_data(nm)


def bless_golden(n: int) -> Path:
    """Write ``compute_golden(n)``; a refused bless leaves the existing file as it was."""
    data = compute_golden(n)
    path = golden_path(n)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_golden(n: int) -> dict | None:
    path = golden_path(n)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)
