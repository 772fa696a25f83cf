"""Acceptance criteria, one test per criterion.

Every check is exact (rational arithmetic, zero tolerance).  Each test
prints a single ``criterion N: PASS (...)`` line; a failed assertion marks
the criterion red.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from weylkit import (
    AlgebraElement,
    AlgebraKind,
    Generator,
    PBWMonomial,
    ShriekElement,
    apply_automorphism,
    basis_of_degree,
    bilinear_form,
    centralizer_in_degree,
    commutator,
    decompose,
    degree_dimensions,
    dehomogenize,
    dual_presentation,
    gram_matrix,
    kernel_witness,
    loc_multiply,
    mu,
    multiply,
    nakayama,
    orthogonal_complement,
    pairing,
    partial_degree,
    relations_of,
    shriek_basis,
    shriek_basis_of_degree,
    theta,
    theta_inverse,
    word_normal_form,
)
from weylkit import linalg
from weylkit.quadratic import relation_rows
from weylkit.shriek import multiply as smul, reduce_word
from weylkit.verify import compute_golden, load_golden, random_element

A, B = AlgebraKind.A, AlgebraKind.B

SEED = 20260810


class timer:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s / limit {self.limit}s) {self.description}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its time budget: {elapsed:.2f}s >= {self.limit}s"
            )
        return False


def test_criterion_1_pbw_identity():
    with timer(1, "normal_form(d1 x1^a) = x1^a d1 + a z^2 x1^(a-1), and the Weyl analogue", 1.0):
        d1, x1 = Generator.d(1), Generator.x(1)
        for a in range(1, 21):
            word = (d1,) + (x1,) * a
            got = word_normal_form(word, B, 1)
            expected = AlgebraElement(
                B,
                1,
                {
                    PBWMonomial(0, (a,), (1,)): Fraction(1),
                    PBWMonomial(2, (a - 1,), (0,)): Fraction(a),
                },
            )
            assert got == expected, f"a = {a}"
            got_a = word_normal_form(word, A, 1)
            expected_a = AlgebraElement(
                A,
                1,
                {
                    PBWMonomial(0, (a,), (1,)): Fraction(1),
                    PBWMonomial(0, (a - 1,), (0,)): Fraction(a),
                },
            )
            assert got_a == expected_a, f"a = {a} (Weyl)"


def test_criterion_2_graded_dimensions():
    with timer(2, "|basis_of_degree(B,n,d)| = C(d+2n,2n) for n <= 3, d <= 8", 1.0):
        for n in (1, 2, 3):
            for d in range(0, 9):
                got = basis_of_degree(B, n, d)
                assert len(got) == comb(d + 2 * n, 2 * n), (n, d)
                assert len(set(got)) == len(got)


def test_criterion_3_partial_degree_laws():
    with timer(3, "partial-degree laws on 10^4 seeded random pairs (n <= 2, partial <= 3)", 30.0):
        failures = 0
        for n in (1, 2):
            rng = random.Random(f"criterion3:{SEED}:{n}")
            for _ in range(5000):
                a = random_element(rng, B, n, max_partial=3, nonzero=True)
                b = random_element(rng, B, n, max_partial=3, nonzero=True)
                ab = multiply(a, b)
                if ab.is_zero() or partial_degree(ab) != partial_degree(a) + partial_degree(b):
                    failures += 1
                c = commutator(a, b)
                if not c.is_zero() and partial_degree(c) > partial_degree(a) + partial_degree(b) - 1:
                    failures += 1
        assert failures == 0


def test_criterion_4_center():
    with timer(4, "centralizer basis is exactly {z^d} for n in {1,2}, d <= 5", 60.0):
        for n in (1, 2):
            for d in range(0, 6):
                basis = centralizer_in_degree(B, n, d)
                assert len(basis) == 1, (n, d, len(basis))
                zd = PBWMonomial(d, (0,) * n, (0,) * n)
                (vec,) = basis
                assert set(vec.coeffs) == {zd}, (n, d, str(vec))


def test_criterion_5_dual_relations():
    with timer(5, "dim R-perp = 2n^2+3n+1, all pairings vanish, structured dual spans", 5.0):
        for n in (1, 2, 3):
            primal = relations_of(B, n)
            comp = orthogonal_complement(primal)
            assert len(comp.basis) == 2 * n * n + 3 * n + 1, n
            for r in primal.relations:
                for s in comp.basis:
                    assert pairing(r, s) == 0, n
            structured = dual_presentation(B, n)  # raises if the span differs
            g = len(structured.generators)
            assert linalg.span_equal(
                relation_rows(structured.relations, g),
                relation_rows(comp.basis, g),
            ), n


def test_criterion_6_shriek_dimensions():
    with timer(6, "dim (B!)_j = C(2n,j)+C(2n,j-1), total 2^(2n+1), n <= 3", 5.0):
        for n in (1, 2, 3):
            dims = [len(shriek_basis_of_degree(n, j)) for j in range(2 * n + 2)]
            assert dims == [
                comb(2 * n, j) + (comb(2 * n, j - 1) if j else 0) for j in range(2 * n + 2)
            ], n
            assert dims == degree_dimensions(n)
            assert sum(dims) == 2 ** (2 * n + 1)
            assert len(shriek_basis(n)) == 2 ** (2 * n + 1)


def test_criterion_7_associativity_and_confluence():
    with timer(7, "shriek associativity (all 8^3 triples n=1, 10^4 random n=2) and confluence", 60.0):
        els = [ShriekElement.word(1, w) for w in shriek_basis(1)]
        for a, b, c in itertools.product(els, repeat=3):
            assert smul(smul(a, b), c) == smul(a, smul(b, c))
        words2 = shriek_basis(2)
        rng = random.Random(f"criterion7:{SEED}")
        for _ in range(10000):
            wa, wb, wc = rng.choice(words2), rng.choice(words2), rng.choice(words2)
            a, b, c = (ShriekElement.word(2, w) for w in (wa, wb, wc))
            assert smul(smul(a, b), c) == smul(a, smul(b, c))
        pool = {
            1: [Generator.x(1), Generator.d(1), Generator.z()],
            2: [Generator.x(1), Generator.x(2), Generator.d(1), Generator.d(2), Generator.z()],
        }
        for i in range(1000):
            n = 1 if i % 2 else 2
            word = [rng.choice(pool[n]) for _ in range(rng.randint(0, 6))]
            ref = reduce_word(word, n)
            for _ in range(3):
                assert reduce_word(word, n, rng=rng) == ref, word


def test_criterion_8_frobenius_nondegeneracy():
    with timer(8, "every gram matrix invertible (n <= 2); beta(ab,c) = beta(a,bc) on all triples n=1", 30.0):
        for n in (1, 2):
            for j in range(0, 2 * n + 2):
                m = gram_matrix(n, j)
                assert linalg.det(m) != 0, (n, j)
        words = shriek_basis(1)
        for wa, wb, wc in itertools.product(words, repeat=3):
            a, b, c = (ShriekElement.word(1, w) for w in (wa, wb, wc))
            assert bilinear_form(smul(a, b), c) == bilinear_form(a, smul(b, c))


def test_criterion_9_nakayama():
    with timer(9, "Nakayama: defining identity, multiplicativity, grading, sigma(z)=kz, golden match", 60.0):
        for n in (1, 2):
            nm = nakayama(n)
            words = shriek_basis(n)
            for wa in words:
                for wb in words:
                    a, b = ShriekElement.word(n, wa), ShriekElement.word(n, wb)
                    assert bilinear_form(apply_automorphism(nm, a), b) == bilinear_form(b, a)
            if n == 1:
                pairs = itertools.product(words, repeat=2)
            else:
                rng = random.Random(f"criterion9:{SEED}")
                pairs = ((rng.choice(words), rng.choice(words)) for _ in range(10000))
            for wa, wb in pairs:
                a, b = ShriekElement.word(n, wa), ShriekElement.word(n, wb)
                assert apply_automorphism(nm, smul(a, b)) == smul(
                    apply_automorphism(nm, a), apply_automorphism(nm, b)
                )
            for w in words:
                img = apply_automorphism(nm, ShriekElement.word(n, w))
                assert not img.is_zero() and img.degrees() == {w.degree}
            k = nm.z_scalar
            assert k != 0
            for name, img in nm.images.items():
                if name != "z":
                    assert all(w.zflag == 0 for w in img.coeffs), name
            stored = load_golden(n)
            assert stored is not None, f"golden file missing for n={n}"
            assert stored == compute_golden(n)


def test_criterion_10_decomposition():
    with timer(10, "decomposition: parts sum, idempotent projections, closed subalgebra, dims 2^(2n)", 5.0):
        for n in (1, 2):
            words = shriek_basis(n)
            zero = ShriekElement(n)
            zfree = [w for w in words if w.zflag == 0]
            assert len(zfree) == 2 ** (2 * n)
            assert len(words) - len(zfree) == 2 ** (2 * n)
            for w in words:
                e = ShriekElement.word(n, w)
                c, zp = decompose(e)
                assert c + zp == e
                assert decompose(c) == (c, zero)
                assert decompose(zp) == (zero, zp)
            for u in zfree:
                for v in zfree:
                    prod = smul(ShriekElement.word(n, u), ShriekElement.word(n, v))
                    assert all(t.zflag == 0 for t in prod.coeffs)


def test_criterion_11_dehomogenization():
    with timer(11, "ring-homomorphism law on 10^4 pairs; kernel witness on 10^3 elements", 30.0):
        failures = 0
        for n in (1, 2):
            rng = random.Random(f"criterion11:{SEED}:{n}")
            for _ in range(5000):
                a = random_element(rng, B, n, max_partial=3)
                b = random_element(rng, B, n, max_partial=3)
                if dehomogenize(multiply(a, b)) != multiply(dehomogenize(a), dehomogenize(b)):
                    failures += 1
            zm1 = AlgebraElement.generator(B, n, Generator.z()) - AlgebraElement.one(B, n)
            for _ in range(500):
                w = random_element(rng, B, n, nonzero=True)
                target = multiply(zm1, w)
                got = kernel_witness(target)
                if got is None or multiply(zm1, got) != target:
                    failures += 1
        assert failures == 0


def test_criterion_12_theta_and_mu():
    with timer(12, "theta round trips and multiplicativity; mu(a,s) mu(b,t) = mu(ab,s+t)", 60.0):
        failures = 0
        for n in (1, 2):
            rng = random.Random(f"criterion12:{SEED}:{n}")
            for _ in range(500):
                a = random_element(rng, A, n, max_partial=6)
                if theta(theta_inverse(a)) != a:
                    failures += 1
            for _ in range(250):
                a = random_element(rng, A, n)
                b = random_element(rng, A, n)
                e, f = theta_inverse(a), theta_inverse(b)
                if theta(loc_multiply(e, f)) != multiply(a, b):
                    failures += 1
            for _ in range(500):
                a = random_element(rng, A, n)
                b = random_element(rng, A, n)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                if loc_multiply(mu(a, s), mu(b, t)) != mu(multiply(a, b), s + t):
                    failures += 1
        assert failures == 0
