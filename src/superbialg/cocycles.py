"""Re-derivation of the classification inputs.

Builds the linear system the cocycle identity imposes on the unknown
cobracket constants, computes its exact nullspace (fraction-free Bareiss
elimination), generates the quadratic co-Jacobi constraints on the surviving
parameters, and compares the cocycle space with the span of coboundaries.

Unknown ordering: admissible triples (i, k, l) sorted lexicographically,
with k < l for distinct upper indices and odd-odd diagonal unknowns (k = l)
included once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import Ring
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
    """Exact rational linear system M t = 0 over named unknowns."""

    def __init__(self, algebra, unknowns, rows, equations):
        self.algebra = algebra
        self.unknowns = unknowns      # list of (i, k, l)
        self.rows = rows              # list of Fraction lists
        self.equations = equations    # labels parallel to rows

    @property
    def unknown_count(self):
        return len(self.unknowns)

    @property
    def equation_count(self):
        return len(self.rows)


def generic_cobracket(algebra):
    """A cobracket whose admissible constants are fresh ring parameters."""
    unknowns = admissible_unknowns(algebra)
    ring = Ring([(f"t{n}", "commuting") for n in range(len(unknowns))])
    d = Cobracket.from_entries(algebra, ring, (
        (u, ring.var(f"t{pos}")) for pos, u in enumerate(unknowns)))
    return d, unknowns, ring


def _linear_coefficients(scalar, ring, count):
    """Coefficient vector of a scalar linear in the t-parameters."""
    row = [Fraction(0)] * count
    for exps, odds, coeff in scalar.terms():
        if odds:
            raise ValueError("unexpected Grassmann content in a cocycle equation")
        nonzero = [(pos, e) for pos, e in enumerate(exps) if e]
        if len(nonzero) != 1 or nonzero[0][1] != 1:
            raise ValueError("cocycle equation is not linear in the unknowns")
        row[nonzero[0][0]] += coeff
    return row


def build_cocycle_system(algebra):
    """One linear equation per component of each cocycle-identity residual."""
    d, unknowns, ring = generic_cobracket(algebra)
    rows = []
    labels = []
    names = algebra.basis
    n = algebra.dim
    for i in range(n):
        for j in range(i, n):
            if i == j and not algebra.grades[i]:
                continue
            res = _cocycle_residual(algebra, d, i, j)
            for (l, m), value in sorted(res.coeffs.items()):
                row = _linear_coefficients(value, ring, len(unknowns))
                if any(row):
                    rows.append(row)
                    labels.append(f"({names[i]},{names[j]})->"
                                  f"{names[l]}(x){names[m]}")
    return LinearSystem(algebra, unknowns, rows, labels)


# -- exact linear algebra ---------------------------------------------------

def _integerize(row):
    lcm = 1
    for x in row:
        if x.denominator != 1:
            g = math.gcd(lcm, x.denominator)
            lcm = lcm // g * x.denominator
    return [int(x * lcm) for x in row]


def _bareiss_echelon(rows, ncols):
    """Fraction-free row echelon form; returns (matrix, pivot columns).

    Entries stay integers throughout; each elimination step divides exactly
    by the previous pivot.
    """
    m = [list(map(int, r)) for r in rows]
    pivots = []
    prev = 1
    r = 0
    for col in range(ncols):
        pivot_row = None
        for rr in range(r, len(m)):
            if m[rr][col]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for rr in range(r + 1, len(m)):
            if not any(m[rr][col:]):
                continue
            for cc in range(ncols):
                if cc == col:
                    continue
                m[rr][cc] = (m[r][col] * m[rr][cc] - m[rr][col] * m[r][cc]) // prev
            m[rr][col] = 0
        prev = m[r][col]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows, ncols=None):
    if not rows:
        return 0
    ncols = ncols if ncols is not None else len(rows[0])
    scaled = [_integerize([Fraction(x) for x in row]) for row in rows]
    _, pivots = _bareiss_echelon(scaled, ncols)
    return len(pivots)


def nullspace(rows, ncols=None, column_order=None):
    """Exact basis of {v : M v = 0}.

    Bareiss elimination over integers, then rational back-substitution; one
    basis vector per free column, normalized with 1 in its free slot.
    `column_order` permutes the columns before elimination (used by the
    determinism cross-check); returned vectors are always in natural order.
    """
    if not rows:
        return []
    ncols = ncols if ncols is not None else len(rows[0])
    order = list(column_order) if column_order is not None else list(range(ncols))
    if sorted(order) != list(range(ncols)):
        raise ValueError("column_order must be a permutation")
    scaled = [_integerize([Fraction(row[c]) for c in order]) for row in rows]
    ech, pivots = _bareiss_echelon(scaled, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        # back-substitute pivot rows bottom-up
        for rr in range(len(pivots) - 1, -1, -1):
            pc = pivots[rr]
            s = Fraction(0)
            for cc in range(pc + 1, ncols):
                if v[cc]:
                    s += Fraction(ech[rr][cc]) * v[cc]
            v[pc] = -s / Fraction(ech[rr][pc])
        out = [Fraction(0)] * ncols
        for pos, c in enumerate(order):
            out[c] = v[pos]
        basis.append(out)
    return basis


def kernel_of_system(system, column_order=None):
    return nullspace(system.rows, system.unknown_count, column_order)


def residual_of(system, vector):
    """M v for an exact membership check."""
    return [sum(r * x for r, x in zip(row, vector)) for row in system.rows]


def in_span(basis, vector):
    """Solve sum_j x_j basis_j = vector; vector entries may be scalars.

    The basis is rational, so elimination uses rational pivots only; returns
    the coefficient list or None when the vector is outside the span.
    """
    if not basis:
        return None if any(
            (not v.is_zero()) if hasattr(v, "is_zero") else v
            for v in vector) else []
    ncols = len(basis)
    nrows = len(vector)
    m = [[Fraction(basis[j][i]) for j in range(ncols)] for i in range(nrows)]
    rhs = list(vector)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if m[rr][col]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        rhs[r], rhs[pivot_row] = rhs[pivot_row], rhs[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        rhs[r] = _scale(rhs[r], inv)
        for rr in range(nrows):
            if rr != r and m[rr][col]:
                factor = m[rr][col]
                m[rr] = [a - factor * b for a, b in zip(m[rr], m[r])]
                rhs[rr] = _axpy(rhs[rr], -factor, rhs[r])
        pivots.append(col)
        r += 1
    coeffs = [None] * ncols
    for row_idx, col in enumerate(pivots):
        coeffs[col] = rhs[row_idx]
    for rr in range(len(pivots), nrows):
        if not _is_zero(rhs[rr]):
            return None
    # free columns take coefficient zero
    for idx, val in enumerate(coeffs):
        if val is None:
            coeffs[idx] = 0
    return coeffs


def _scale(value, q):
    if hasattr(value, "ring"):
        return q * value
    return Fraction(value) * q


def _axpy(value, q, other):
    if hasattr(value, "ring") or hasattr(other, "ring"):
        return value + q * other
    return Fraction(value) + q * Fraction(other)


def _is_zero(value):
    if hasattr(value, "is_zero"):
        return value.is_zero()
    return value == 0


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
    basis = kernel_of_system(system)
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
    """A maximal independent set of coboundary cobrackets."""
    unknowns = admissible_unknowns(algebra)
    picked = []
    picked_vectors = []
    for r in basis_r_matrices(algebra):
        d = coboundary_delta(algebra, r)
        vec = [v.as_fraction() for v in cobracket_vector(d, unknowns)]
        if not any(vec):
            continue
        if rank(picked_vectors + [vec]) > len(picked_vectors):
            picked.append(d)
            picked_vectors.append(vec)
    return picked, picked_vectors


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
            text = (-res).render()
        if text not in seen_rendered:
            seen_rendered.add(text)
            seen.append(ring.parse(text))
    return ring, seen
