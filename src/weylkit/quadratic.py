"""Quadratic presentations and their Koszul duals.

A quadratic presentation is a list of relations in the tensor square of
the degree-1 generator space.  The dual relation space is the orthogonal
complement under the pairing

    <u (x) v, u' (x) v'>  =  [u = v'] [v = u']

on basis tensors (note the transposition: the left slot of one factor
pairs against the right slot of the other).  Both presentations are read
off one list of generator pairs: the relations R of B or C are their
commutators u (x) v - v (x) u, with - z (x) z on each d_i x_i of B (the
PBW engine's d_i x_i - x_i d_i = z^2), and the dual relations R-perp are
their anticommutators u (x) v + v (x) u, plus the squares and, for B, the
loop sum_i x_i d_i + z^2.  That loop is why the pairing is twisted: the
untwisted one would flip the sign of its z^2.  The structured dual is
never trusted: ``dual_presentation`` certifies that it spans the
orthogonal complement and raises if it does not.  The pairing is
nondegenerate, so that holds exactly when every structured relation pairs
to zero with every primal relation and the structured relations have rank
(2n+1)^2 minus the rank of the primal ones.  A relation touches at most
n+1 of the (2n+1)^2 cells, so the certificate pairs through an index of
the primal cells, each keyed under its transpose, and pays only for the
cells two relations share; ``pairing`` stays the one definition, which
verify's orthogonality claim reads pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import linalg
from .errors import RankDeficientInput
from .expressions import evaluate, format_terms
from .generators import AlgebraKind, Rational, rank_generator

# one relation: sparse map over ordered generator-index pairs
Relation = dict[tuple[int, int], Rational]


def generator_names(n: int) -> tuple[str, ...]:
    """The generator names by rank: the rows and columns of the relation grid."""
    if n < 0:
        raise ValueError(f"the pair count must be nonnegative, got {n}")
    return tuple(str(rank_generator(r, n)) for r in range(2 * n + 1))


@dataclass(frozen=True)
class QuadraticPresentation:
    """Generators x_1..x_n, d_1..d_n, z plus homogeneous quadratic relations."""

    generators: tuple[str, ...]
    relations: tuple[Relation, ...]


@dataclass(frozen=True)
class DualRelationBasis:
    """A basis of the orthogonal complement of a relation space."""

    basis: tuple[Relation, ...]


def _pairs(kind: AlgebraKind, n: int) -> list[tuple[int, int]]:
    """The generator pairs (u, v) by rank that both presentations read, in their order.

    Every u < v for C(n).  For B(n): the x-x and d-d pairs, the mixed pairs
    (d_i, x_j), the only ones with u > v, then the x-z and d-z pairs.
    """
    g = 2 * n + 1
    if kind is AlgebraKind.C:
        return [(u, v) for u in range(g) for v in range(u + 1, g)]
    xs, ds = range(n), range(n, 2 * n)
    return (
        [(u, v) for block in (xs, ds) for u in block for v in block if u < v]
        + [(u, v) for u in ds for v in xs]
        + [(u, 2 * n) for u in range(2 * n)]
    )


def relations_of(kind: AlgebraKind, n: int) -> QuadraticPresentation:
    """The defining quadratic relations of B(n) or C(n): the commutators of the pairs.

    For B(n) these are the 2n^2+n relations: x- and d-commutators, the
    mixed relations d_i (x) x_j - x_j (x) d_i - [i=j] z (x) z, and the
    z-centrality commutators.  For C(n): all commutators in 2n+1
    variables.  A negative n raises ValueError.
    """
    if kind not in (AlgebraKind.B, AlgebraKind.C):
        raise ValueError(f"quadratic presentations exist for kinds B and C, not {kind.value}")
    gens = generator_names(n)
    rels: list[Relation] = []
    for u, v in _pairs(kind, n):
        rel = {(u, v): 1, (v, u): -1}
        if u == v + n:  # d_i x_i, listed in B(n) only
            rel[(2 * n, 2 * n)] = -1
        rels.append(rel)
    return QuadraticPresentation(gens, tuple(rels))


def pairing(r: Relation, s: Relation) -> Rational:
    """<r, s> = sum over (u,v) of r[u,v] * s[v,u]."""
    total = 0
    for (u, v), c in r.items():
        other = s.get((v, u))
        if other is not None:
            total += c * other
    return total


def relation_rows(rels: list[Relation] | tuple[Relation, ...], g: int) -> list[list[Rational]]:
    """Relations as dense coefficient rows over the (u,v) grid."""
    rows = []
    for rel in rels:
        row = [0] * (g * g)
        for (u, v), c in rel.items():
            row[u * g + v] = c
        rows.append(row)
    return rows


def orthogonal_complement(p: QuadraticPresentation) -> DualRelationBasis:
    """Exact kernel basis of the pairing against ``p``'s relations.

    Raises :class:`RankDeficientInput` when the relation list is
    linearly dependent.
    """
    g = len(p.generators)
    # row . flat(s) = pairing(rel, s) for the row of the transposed relation
    rows = relation_rows([{(v, u): c for (u, v), c in rel.items()} for rel in p.relations], g)
    kernel = linalg.nullspace(rows, g * g)
    if len(kernel) != g * g - len(rows):  # rank-nullity
        raise RankDeficientInput("relation list is linearly dependent")
    return DualRelationBasis(tuple({divmod(idx, g): c for idx, c in enumerate(vec) if c} for vec in kernel))


def dual_presentation(kind: AlgebraKind, n: int) -> QuadraticPresentation:
    """The structured presentation of the Koszul dual of B(n) or C(n).

    The squares (of x_i and d_i for B(n), of every generator for C(n)),
    the anticommutators of the pairs of ``relations_of`` (a mixed pair
    d_i x_j of B(n) listed as x_i d_j, in the same order), and for B(n)
    the loop sum_i x_i d_i + z^2.  For C(n) that is the exterior algebra
    on 2n+1 generators.  The returned set is certified to span exactly the
    orthogonal complement of the primal relations: each primal cell (u, v)
    is indexed under (v, u) once, each structured relation sums its
    pairings with the primal ones through that index, and a nonzero sum,
    or a rank other than (2n+1)^2 minus the primal rank, raises
    RuntimeError.  A negative n raises ValueError.
    """
    if kind not in (AlgebraKind.B, AlgebraKind.C):
        raise ValueError(f"dual presentations exist for kinds B and C, not {kind.value}")
    gens = generator_names(n)
    z = 2 * n
    rels: list[Relation] = [{(u, u): 1} for u in range(z + 1 if kind is AlgebraKind.C else z)]
    for u, v in _pairs(kind, n):
        if u > v:  # d_i x_j reads as x_i d_j
            u, v = u - n, v + n
        rels.append({(u, v): 1, (v, u): 1})
    if kind is AlgebraKind.B:
        loop: Relation = {(i, n + i): 1 for i in range(n)}
        loop[(z, z)] = 1
        rels.append(loop)
    g = len(gens)
    primal = relations_of(kind, n).relations
    # <r, s> sums r[u, v] * s[v, u], so each primal cell (u, v) is keyed under (v, u)
    index: dict[tuple[int, int], list[tuple[int, Rational]]] = {}
    for j, r in enumerate(primal):
        for (u, v), c in r.items():
            index.setdefault((v, u), []).append((j, c))
    orthogonal = True
    for s in rels:
        sums: dict[int, Rational] = {}  # <r_j, s> for each primal r_j that meets s
        for cell, c in s.items():
            for j, rc in index.get(cell, ()):
                sums[j] = sums.get(j, 0) + rc * c
        if any(sums.values()):
            orthogonal = False
            break
    primal_rank = linalg.rank(relation_rows(primal, g))
    if not orthogonal or linalg.rank(relation_rows(rels, g)) != g * g - primal_rank:
        raise RuntimeError(
            "structured dual presentation does not span the orthogonal complement"
        )
    return QuadraticPresentation(gens, tuple(rels))


def relation_text(rel: Relation, gens: tuple[str, ...]) -> str:
    """Human-readable form of one relation, e.g. ``d1*x1 - x1*d1 - z^2``."""
    return format_terms([
        (c, f"{gens[u]}^2" if u == v else f"{gens[u]}*{gens[v]}")
        for (u, v), c in sorted(rel.items())
    ])


def relation_failure(p: QuadraticPresentation, kind: AlgebraKind) -> Relation | None:
    """The first relation of ``p`` that is not zero in ``kind`` (u (x) v read as the product u v), or None."""
    n = len(p.generators) // 2
    return next((r for r in p.relations if evaluate(relation_text(r, p.generators), n, kind)), None)
