"""Quadratic presentations and their Koszul duals.

A quadratic presentation is a list of relations in the tensor square of
the degree-1 generator space.  The dual relation space is the orthogonal
complement under the pairing

    <u (x) v, u' (x) v'>  =  [u = v'] [v = u']

on basis tensors (note the transposition: the left slot of one factor
pairs against the right slot of the other).  With the bracket convention
used by the PBW engine (d_i x_i - x_i d_i = z^2, relations written
d (x) x - x (x) d - z (x) z), this is the convention under which the dual
of the homogenized algebra comes out on the relations

    x_i^2,  d_i^2,  all anticommutators,  sum_i x_i d_i + z^2,

including the mixed anticommutators x_i d_j + d_j x_i.  The untwisted
pairing would flip the sign of the z^2 term instead.  The structured
presentation is never trusted: ``dual_presentation`` certifies that it
spans the orthogonal complement and raises if it does not.  The pairing
is nondegenerate, so that holds exactly when every structured relation
pairs to zero with every primal relation and the structured relations
have rank (2n+1)^2 minus the rank of the primal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import linalg
from .errors import RankDeficientInput
from .expressions import evaluate, format_terms
from .generators import AlgebraKind, Generator, Rational, rank_generator

# one relation: sparse map over ordered generator-index pairs
Relation = dict[tuple[int, int], Rational]


def generator_names(n: int) -> tuple[str, ...]:
    """The generator names by rank: the rows and columns of the relation grid."""
    if n < 0:
        raise ValueError(f"the pair count must be nonnegative, got {n}")
    return tuple(str(rank_generator(r, n)) for r in range(2 * n + 1))


def _grid_ranks(n: int) -> tuple[list[int], list[int], int]:
    """The grid rows of x_1..x_n, d_1..d_n and z: their ``Generator.rank``."""
    pairs = range(1, n + 1)
    return [Generator.x(i).rank(n) for i in pairs], [Generator.d(i).rank(n) for i in pairs], Generator.z().rank(n)


@dataclass(frozen=True)
class QuadraticPresentation:
    """Generators x_1..x_n, d_1..d_n, z plus homogeneous quadratic relations."""

    generators: tuple[str, ...]
    relations: tuple[Relation, ...]


@dataclass(frozen=True)
class DualRelationBasis:
    """A basis of the orthogonal complement of a relation space."""

    basis: tuple[Relation, ...]


def _comm(u: int, v: int) -> Relation:
    return {(u, v): 1, (v, u): -1}


def _anticomm(u: int, v: int) -> Relation:
    return {(u, v): 1, (v, u): 1}


def relations_of(kind: AlgebraKind, n: int) -> QuadraticPresentation:
    """The defining quadratic relations of B(n) or C(n).

    For B(n) these are the 2n^2+n relations: x- and d-commutators, the
    mixed relations d_i (x) x_j - x_j (x) d_i - [i=j] z (x) z, and the
    z-centrality commutators.  For C(n): all commutators in 2n+1
    variables.  A negative n raises ValueError.
    """
    if kind not in (AlgebraKind.B, AlgebraKind.C):
        raise ValueError(f"quadratic presentations exist for kinds B and C, not {kind.value}")
    gens = generator_names(n)
    x, d, z = _grid_ranks(n)
    rels: list[Relation] = []
    if kind is AlgebraKind.C:
        for u in range(2 * n + 1):
            for v in range(u + 1, 2 * n + 1):
                rels.append(_comm(u, v))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                rels.append(_comm(x[i], x[j]))
        for i in range(n):
            for j in range(i + 1, n):
                rels.append(_comm(d[i], d[j]))
        for i in range(n):
            for j in range(n):
                rel = _comm(d[i], x[j])
                if i == j:
                    rel[(z, z)] = -1
                rels.append(rel)
        for i in range(n):
            rels.append(_comm(x[i], z))
        for i in range(n):
            rels.append(_comm(d[i], z))
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

    For B(n): squares of x_i and d_i, anticommutators of every distinct
    generator pair (including all mixed x_i d_j), and sum_i x_i d_i + z^2.
    For C(n): squares of all generators and all anticommutators (the
    exterior algebra on 2n+1 generators).  The returned set is certified
    to span exactly the orthogonal complement of the primal relations.  A
    negative n raises ValueError.
    """
    if kind not in (AlgebraKind.B, AlgebraKind.C):
        raise ValueError(f"dual presentations exist for kinds B and C, not {kind.value}")
    gens = generator_names(n)
    x, d, z = _grid_ranks(n)
    rels: list[Relation] = []
    if kind is AlgebraKind.C:
        for u in range(2 * n + 1):
            rels.append({(u, u): 1})
        for u in range(2 * n + 1):
            for v in range(u + 1, 2 * n + 1):
                rels.append(_anticomm(u, v))
    else:
        for i in range(n):
            rels.append({(x[i], x[i]): 1})
        for i in range(n):
            rels.append({(d[i], d[i]): 1})
        for i in range(n):
            for j in range(i + 1, n):
                rels.append(_anticomm(x[i], x[j]))
        for i in range(n):
            for j in range(i + 1, n):
                rels.append(_anticomm(d[i], d[j]))
        for i in range(n):
            for j in range(n):
                rels.append(_anticomm(x[i], d[j]))
        for i in range(n):
            rels.append(_anticomm(x[i], z))
        for i in range(n):
            rels.append(_anticomm(d[i], z))
        loop: Relation = {(x[i], d[i]): 1 for i in range(n)}
        loop[(z, z)] = 1
        rels.append(loop)
    g = len(gens)
    primal = relations_of(kind, n).relations
    orthogonal = all(pairing(r, s) == 0 for r in primal for s in rels)
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
