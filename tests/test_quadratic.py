"""Quadratic presentations, the pairing, and the computed Koszul dual."""

import random
from fractions import Fraction

import pytest
import sympy

from weylkit import (
    AlgebraKind,
    QuadraticPresentation,
    RankDeficientInput,
    dual_presentation,
    orthogonal_complement,
    pairing,
    relations_of,
)
from weylkit.quadratic import generator_names, relation_failure, relation_rows, relation_text
from weylkit import linalg
from weylkit.shriek import degree_dimensions

B, C = AlgebraKind.B, AlgebraKind.C


def rel(*pairs):
    out = {}
    for u, v, c in pairs:
        out[(u, v)] = Fraction(c)
    return out


@pytest.mark.parametrize(
    "build",
    [
        lambda: relations_of(B, -1),
        lambda: relations_of(C, -1),
        lambda: dual_presentation(B, -1),
        lambda: dual_presentation(C, -1),
        lambda: degree_dimensions(-1),
        lambda: degree_dimensions(-1, AlgebraKind.C_SHRIEK),
    ],
    ids=["relations-B", "relations-C", "dual-B", "dual-C", "dims-B!", "dims-C!"],
)
def test_a_negative_pair_count_is_refused(build):
    # dual_presentation(B, -1) raised IndexError; the others returned empty results
    with pytest.raises(ValueError, match="nonnegative"):
        build()


def test_relation_counts():
    for n in (1, 2, 3):
        assert len(relations_of(B, n).relations) == 2 * n * n + n
        assert len(relations_of(C, n).relations) == 2 * n * n + n


def test_b1_relations_exact():
    p = relations_of(B, 1)
    # generators are ordered x1, d1, z
    assert p.generators == ("x1", "d1", "z")
    assert list(p.relations) == [
        rel((1, 0, 1), (0, 1, -1), (2, 2, -1)),  # d1(x)x1 - x1(x)d1 - z(x)z
        rel((0, 2, 1), (2, 0, -1)),  # x1(x)z - z(x)x1
        rel((1, 2, 1), (2, 1, -1)),  # d1(x)z - z(x)d1
    ]


def test_c1_relations_exact():
    p = relations_of(C, 1)
    # all three commutators among x1, d1, z
    assert list(p.relations) == [
        rel((0, 1, 1), (1, 0, -1)),
        rel((0, 2, 1), (2, 0, -1)),
        rel((1, 2, 1), (2, 1, -1)),
    ]


def test_pairing_examples():
    p = relations_of(B, 1)
    r1 = p.relations[0]
    assert pairing(r1, rel((0, 0, 1))) == 0  # x1 (x) x1
    assert pairing(r1, rel((2, 2, 1))) == -1  # z (x) z


def brute_force_pairing(r, s, g):
    """Dense double-loop oracle for the pairing."""
    total = Fraction(0)
    for u in range(g):
        for v in range(g):
            for up in range(g):
                for vp in range(g):
                    if u == vp and v == up:
                        total += r.get((u, v), Fraction(0)) * s.get((up, vp), Fraction(0))
    return total


def test_pairing_against_dense_oracle():
    rng = random.Random(41)
    g = 5  # n = 2 generators
    for _ in range(40):
        r = {
            (rng.randrange(g), rng.randrange(g)): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 5))
        }
        s = {
            (rng.randrange(g), rng.randrange(g)): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 5))
        }
        assert pairing(r, s) == brute_force_pairing(r, s, g)


def test_pairing_is_symmetric():
    rng = random.Random(43)
    g = 3
    for _ in range(40):
        r = {(rng.randrange(g), rng.randrange(g)): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        s = {(rng.randrange(g), rng.randrange(g)): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        assert pairing(r, s) == pairing(s, r)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complement_dimension_and_orthogonality(n):
    p = relations_of(B, n)
    comp = orthogonal_complement(p)
    assert len(comp.basis) == 2 * n * n + 3 * n + 1
    for r in p.relations:
        for s in comp.basis:
            assert pairing(r, s) == 0


def test_complement_membership_examples():
    p = relations_of(B, 1)
    # x1 (x) x1 pairs to zero with all three relations
    for r in p.relations:
        assert pairing(r, rel((0, 0, 1))) == 0
    # x1 (x) d1 + d1 (x) x1 likewise
    anti = rel((0, 1, 1), (1, 0, 1))
    for r in p.relations:
        assert pairing(r, anti) == 0
    # and for every i at n = 3
    p3 = relations_of(B, 3)
    for i in range(3):
        anti = rel((i, 3 + i, 1), (3 + i, i, 1))
        for r in p3.relations:
            assert pairing(r, anti) == 0


def test_rank_deficient_input_rejected():
    p = relations_of(B, 1)
    doubled = QuadraticPresentation(p.generators, p.relations + (p.relations[0],))
    with pytest.raises(RankDeficientInput):
        orthogonal_complement(doubled)


def test_dual_presentation_b1_exact():
    dp = dual_presentation(B, 1)
    texts = [relation_text(r, dp.generators) for r in dp.relations]
    assert texts == [
        "x1^2",
        "d1^2",
        "x1*d1 + d1*x1",
        "x1*z + z*x1",
        "d1*z + z*d1",
        "x1*d1 + z^2",
    ]


def test_dual_presentation_c1_exact():
    dp = dual_presentation(C, 1)
    texts = [relation_text(r, dp.generators) for r in dp.relations]
    assert texts == [
        "x1^2",
        "d1^2",
        "z^2",
        "x1*d1 + d1*x1",
        "x1*z + z*x1",
        "d1*z + z*d1",
    ]


def test_b2_presentations_in_order():
    # R lists the mixed pairs as d_i x_j and R-perp as x_i d_j, i outer in both; a dual that
    # listed d_i x_j as x_j d_i would span the same space and pass every verify claim
    primal, dual = relations_of(B, 2), dual_presentation(B, 2)
    assert [relation_text(r, primal.generators) for r in primal.relations] == [
        "x1*x2 - x2*x1", "d1*d2 - d2*d1",
        "-x1*d1 + d1*x1 - z^2", "-x2*d1 + d1*x2", "-x1*d2 + d2*x1", "-x2*d2 + d2*x2 - z^2",
        "x1*z - z*x1", "x2*z - z*x2", "d1*z - z*d1", "d2*z - z*d2",
    ]
    assert [relation_text(r, dual.generators) for r in dual.relations] == [
        "x1^2", "x2^2", "d1^2", "d2^2", "x1*x2 + x2*x1", "d1*d2 + d2*d1",
        "x1*d1 + d1*x1", "x1*d2 + d2*x1", "x2*d1 + d1*x2", "x2*d2 + d2*x2",
        "x1*z + z*x1", "x2*z + z*x2", "d1*z + z*d1", "d2*z + z*d2", "x1*d1 + x2*d2 + z^2",
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_relation_count(n):
    assert len(dual_presentation(B, n).relations) == 2 * n * n + 3 * n + 1
    assert len(dual_presentation(C, n).relations) == 2 * n * n + 3 * n + 1


@pytest.mark.parametrize("n", [1, 2])
def test_dual_spans_complement_by_sympy_oracle(n):
    # independent oracle: sympy row spaces instead of the in-package rref
    p = relations_of(B, n)
    comp = orthogonal_complement(p)
    dual = dual_presentation(B, n)
    g = len(p.generators)
    m_comp = sympy.Matrix([[sympy.Rational(v) for v in row] for row in relation_rows(comp.basis, g)])
    m_dual = sympy.Matrix([[sympy.Rational(v) for v in row] for row in relation_rows(dual.relations, g)])
    stacked = m_comp.col_join(m_dual)
    assert m_comp.rank() == m_dual.rank() == stacked.rank() == 2 * n * n + 3 * n + 1


@pytest.mark.parametrize("n", [1, 2])
def test_involution(n):
    p = relations_of(B, n)
    comp = orthogonal_complement(p)
    back = orthogonal_complement(QuadraticPresentation(p.generators, comp.basis))
    g = len(p.generators)
    assert linalg.span_equal(relation_rows(back.basis, g), relation_rows(p.relations, g))


def test_rank_nullity_against_sympy():
    for n in (1, 2):
        p = relations_of(B, n)
        g = len(p.generators)
        m = sympy.Matrix([[sympy.Rational(v) for v in row] for row in relation_rows(p.relations, g)])
        assert m.rank() + len(orthogonal_complement(p).basis) == g * g


def test_generator_names():
    assert generator_names(2) == ("x1", "x2", "d1", "d2", "z")


def _failing(p, kind):
    """The relations of ``p`` that are not zero in ``kind``, each found by ``relation_failure`` alone."""
    return [r for r in p.relations if relation_failure(QuadraticPresentation(p.generators, (r,)), kind) is not None]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_engine_satisfies_its_presentation(n):
    for base, dual_kind in ((B, AlgebraKind.B_SHRIEK), (C, AlgebraKind.C_SHRIEK)):
        assert relation_failure(relations_of(base, n), base) is None
        assert relation_failure(dual_presentation(base, n), dual_kind) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_failure_catches_the_wrong_engine(n):
    # C commutes d_i x_i past x_i d_i with no z^2: the n mixed relations of B fail there
    primal = relations_of(B, n)
    assert relation_failure(primal, C) is not None
    assert [relation_text(r, primal.generators) for r in _failing(primal, C)] == [
        f"-x{i}*d{i} + d{i}*x{i} - z^2" for i in range(1, n + 1)
    ]
    # z^2 = 0 in C!, so only sum x_i d_i + z^2 fails there
    dual = dual_presentation(B, n)
    assert relation_failure(dual, AlgebraKind.C_SHRIEK) == dual.relations[-1]
    assert _failing(dual, AlgebraKind.C_SHRIEK) == [dual.relations[-1]]


def test_the_certificate_pairs_through_a_cell_index(monkeypatch, eliminations):
    from weylkit import quadratic, verify
    from weylkit.verify import run_suite

    calls = []
    inner = quadratic.pairing

    def counting(r, s):
        calls.append((r, s))
        return inner(r, s)

    for holder in (quadratic, verify):
        monkeypatch.setattr(holder, "pairing", counting)
    for kind in (B, C):
        for n in range(1, 5):
            eliminations.clear()
            dual_presentation(kind, n)
            assert len(eliminations) == 2, (kind, n)  # rank of the primal and of the dual relations
    assert calls == []  # the literal sweep paired every relation with every one: 1 620 calls for B(4)
    run_suite("dual-orthogonality", 2)
    assert calls  # verify's orthogonality claim keeps the literal route


def test_the_pairing_sweep_alone_refuses_a_primal_without_its_z_square(monkeypatch):
    from weylkit import quadratic

    inner = quadratic.relations_of

    def dropped(kind, n):  # d_i x_i - x_i d_i: the ranks of both sides stay as they were
        p = inner(kind, n)
        rels = tuple({cell: c for cell, c in r.items() if cell != (2 * n, 2 * n)} for r in p.relations)
        return QuadraticPresentation(p.generators, rels)

    monkeypatch.setattr(quadratic, "relations_of", dropped)
    assert linalg.rank(relation_rows(dropped(B, 2).relations, 5)) == linalg.rank(relation_rows(inner(B, 2).relations, 5))
    with pytest.raises(RuntimeError, match="does not span the orthogonal complement"):
        dual_presentation(B, 2)
    dual_presentation(C, 2)  # C has no z square to drop
