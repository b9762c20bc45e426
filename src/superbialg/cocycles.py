"""Re-derivation of the classification inputs.

Forms the matrix over Q of the cocycle identity, whose column for each
unknown cobracket constant is the residual of that constant's unit
cobracket, computes its exact nullspace (Gauss-Jordan elimination over Q),
generates the quadratic co-Jacobi constraints on the surviving parameters,
and compares the cocycle space with the span of coboundaries.

Unknown ordering: admissible triples (i, k, l) sorted lexicographically,
with k < l for distinct upper indices and odd-odd diagonal unknowns (k = l)
included once.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Q, Ring
from .bialgebra import (Cobracket, _cocycle_residual, _cojacobi_residuals,
                        coboundary_delta)
from .tensors import RMatrix


def admissible_unknowns(algebra):
    """Triples (i, k, l) surviving the grading and antisymmetry cuts."""
    n = algebra.dim
    grades = algebra.grades
    out = []
    for i in range(n):
        for k in range(n):
            for l in range(k, n):
                if k == l and not grades[k]:
                    continue  # even wedge with itself vanishes
                if (grades[k] + grades[l]) % 2 != grades[i]:
                    continue
                out.append((i, k, l))
    return out


class LinearSystem:
    """Exact rational linear system M t = 0 over the admissible unknowns."""

    def __init__(self, unknowns, rows):
        self.unknowns = unknowns      # list of (i, k, l)
        self.rows = rows              # list of Fraction lists

    @property
    def unknown_count(self):
        return len(self.unknowns)

    @property
    def equation_count(self):
        return len(self.rows)


def build_cocycle_system(algebra):
    """One equation per component (i, j, l, m) of the cocycle residual at
    (g_i, g_j), i <= j, that some unknown reaches, in that order.  The
    residual is linear in the cobracket, so column u holds the residual of
    the unit cobracket at u."""
    unknowns = admissible_unknowns(algebra)
    columns = {}
    for col, u in enumerate(unknowns):
        d = Cobracket.from_entries(algebra, Q, [(u, 1)])
        for i in range(algebra.dim):
            for j in range(i, algebra.dim):
                if i == j and not algebra.grades[i]:
                    continue
                res = _cocycle_residual(algebra, d, i, j)
                for (l, m), value in res.coeffs.items():
                    entries = columns.setdefault((i, j, l, m), {})
                    entries[col] = value.as_fraction()
    zero = Fraction(0)
    rows = [[entries.get(col, zero) for col in range(len(unknowns))]
            for _, entries in sorted(columns.items())]
    return LinearSystem(unknowns, rows)


# -- exact linear algebra ---------------------------------------------------

def _rref(rows, ncols):
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Returns (rows, pivot columns).  The first len(pivots) rows carry 1 in
    their pivot column, which is 0 in every other row.  Columns past `ncols`
    are right-hand sides (rationals or SuperScalars) that follow the same
    row operations and hold no pivot.  A row update touches only the columns
    where the pivot row is nonzero, and every right-hand column.  Every
    entry of the first `ncols` columns must be an int or a Fraction.
    """
    m = [list(row) for row in rows]
    if not all(isinstance(x, (int, Fraction)) for row in m for x in row[:ncols]):
        raise TypeError("a matrix entry is not an int or a Fraction")
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((rr for rr in range(r, len(m)) if m[rr][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        # entries left of col are zero in rows r.., so updates start at col
        pivot = m[r]
        inv = Fraction(1) / pivot[col]
        live = [c for c in range(col, len(pivot)) if c >= ncols or pivot[c]]
        for c in live:
            pivot[c] = pivot[c] * inv
        for rr, row in enumerate(m):
            factor = row[col]
            if rr != r and factor:
                for c in live:
                    row[c] = row[c] - factor * pivot[c]
        pivots.append(col)
    return m, pivots


def rank(rows, ncols=None):
    ncols = ncols if ncols is not None else len(rows[0]) if rows else 0
    return len(_rref(rows, ncols)[1])


def nullspace(rows, ncols=None):
    """Exact basis of {v : M v = 0}.

    One basis vector per free column of the reduced echelon form, with 1 in
    its free slot and 0 in the other free slots.
    """
    ncols = ncols if ncols is not None else len(rows[0]) if rows else 0
    reduced, pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def residual_of(system, vector):
    """M v for an exact membership check."""
    return [sum(r * x for r, x in zip(row, vector)) for row in system.rows]


def span_solve(basis, vectors):
    """Per vector, the x with sum_j x_j basis_j = vector (0 on basis vectors
    not needed), or None outside the span.  The rational basis is eliminated
    once; the vectors, whose entries may be scalars, ride along."""
    n = len(basis)
    reduced, pivots = _rref([[b[i] for b in basis] + [v[i] for v in vectors]
                             for i in range(len(vectors[0]) if vectors else 0)], n)
    at = dict(zip(pivots, reduced))
    return [None if any(row[c] != 0 for row in reduced[len(pivots):]) else
            [at[j][c] if j in at else 0 for j in range(n)]
            for c in range(n, n + len(vectors))]


# -- cobracket <-> vector ----------------------------------------------------

def cobracket_vector(d, unknowns):
    """Flatten a Cobracket to its admissible-triple coefficient vector."""
    zero = d.ring.zero()
    return [d.rows[i].coeffs.get((k, l), zero) for (i, k, l) in unknowns]


def vector_cobracket(algebra, unknowns, vector):
    return Cobracket.from_entries(algebra, algebra.ring, zip(unknowns, vector))


class SolutionFamily:
    """Nullspace basis of the cocycle system, as cobrackets and vectors."""

    def __init__(self, algebra, unknowns, vectors):
        self.algebra = algebra
        self.unknowns = unknowns
        self.vectors = vectors

    @property
    def nullity(self):
        return len(self.vectors)

    def cobrackets(self):
        return [vector_cobracket(self.algebra, self.unknowns, v)
                for v in self.vectors]


def solve_cocycle_space(algebra):
    system = build_cocycle_system(algebra)
    basis = nullspace(system.rows, system.unknown_count)
    return system, SolutionFamily(algebra, system.unknowns, basis)


def basis_r_matrices(algebra):
    """The six even wedge generators: 3 even-even plus 3 odd-odd."""
    evens = [i for i in range(algebra.dim) if not algebra.grades[i]]
    odds = [i for i in range(algebra.dim) if algebra.grades[i]]
    out = []
    for a in range(len(evens)):
        for b in range(a + 1, len(evens)):
            out.append(RMatrix.from_wedges(
                algebra, [(1, algebra.basis[evens[a]], algebra.basis[evens[b]])]))
    for a in range(len(odds)):
        for b in range(a, len(odds)):
            out.append(RMatrix.from_wedges(
                algebra, [(1, algebra.basis[odds[a]], algebra.basis[odds[b]])]))
    return out


def coboundary_space(algebra):
    """A maximal independent set of coboundary cobrackets: the pivot columns
    of the candidates' reduced echelon form, i.e. each candidate that is not
    in the span of those before it."""
    unknowns = admissible_unknowns(algebra)
    deltas = [coboundary_delta(algebra, r) for r in basis_r_matrices(algebra)]
    vectors = [[v.as_fraction() for v in cobracket_vector(d, unknowns)]
               for d in deltas]
    _, pivots = _rref(zip(*vectors), len(vectors))
    return [deltas[c] for c in pivots], [vectors[c] for c in pivots]


def evaluate_constraints(constraints, point, ring):
    """Evaluate t-polynomials at a point (entries rational or in `ring`).

    Returns the list of nonzero residuals.
    """
    bad = []
    for poly in constraints:
        images = dict(zip(poly.ring.even_names, map(ring.coerce, point)))
        total = poly.map(ring, images)
        if not total.is_zero():
            bad.append((poly, total))
    return bad


def cojacobi_constraints(family):
    """Distinct quadratic polynomials the co-Jacobi identity imposes.

    Substitutes the general parameter-linear cobracket into the co-Jacobi
    identity and collects the nonzero coefficient polynomials in t1..tr.
    """
    algebra = family.algebra
    r = family.nullity
    ring = Ring([(f"t{n}", "commuting") for n in range(r)])
    d = Cobracket.from_entries(algebra, ring, (
        (u, coeff * ring.var(f"t{pos}"))
        for pos, vec in enumerate(family.vectors)
        for u, coeff in zip(family.unknowns, vec) if coeff))
    seen = []
    seen_rendered = set()
    for *_, res in _cojacobi_residuals(algebra, d):
        text = res.render()
        if text.startswith("-"):
            res = -res
            text = res.render()
        if text not in seen_rendered:
            seen_rendered.add(text)
            seen.append(res)
    return ring, seen
