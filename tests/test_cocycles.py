"""Tests for the cocycle linear system, exact nullspace, and constraints."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superbialg import algebra, claims, cocycles
from superbialg.algebra import SuperLieAlgebra, builtin
from superbialg.bialgebra import (Cobracket, _cocycle_residual,
                                  check_cobracket, coboundary_delta,
                                  family)
from superbialg.claims import run_claims
from superbialg.cocycles import (admissible_unknowns, basis_r_matrices,
                                 build_cocycle_system, coboundary_space, cojacobi_constraints,
                                 cobracket_vector, evaluate_constraints,
                                 nullspace, rank, residual_of,
                                 solve_cocycle_space, span_solve,
                                 vector_cobracket)
from superbialg.poisson import group
from superbialg.scalars import Ring, RingMismatchError

from test_algebra import constructor_inputs
from test_double import dual_block


@pytest.fixture(scope="module")
def e2():
    return builtin("super_e2")


@pytest.fixture(scope="module")
def osp():
    return builtin("osp12")


@pytest.fixture(scope="module")
def e2_solution(e2):
    return solve_cocycle_space(e2)


@pytest.fixture(scope="module")
def osp_solution(osp):
    return solve_cocycle_space(osp)


class TestSystem:
    def test_unknown_count_thirty(self, e2, osp):
        # per even generator: 3 even-even pairs + 3 odd symmetric pairs;
        # per odd generator: 6 even-odd pairs; total 3*6 + 2*6 = 30
        assert len(admissible_unknowns(e2)) == 30
        assert len(admissible_unknowns(osp)) == 30

    def test_abelian_gives_zero_matrix(self):
        from superbialg.algebra import SuperLieAlgebra
        abelian = SuperLieAlgebra(
            "abelian5",
            [("A", "even"), ("B", "even"), ("C", "even"),
             ("S", "odd"), ("T", "odd")], {})
        system = build_cocycle_system(abelian)
        assert system.equation_count == 0

    def test_kernel_vectors_exact(self, e2_solution, osp_solution):
        for system, fam in (e2_solution, osp_solution):
            assert fam.vectors
            for v in fam.vectors:
                assert not any(residual_of(system, v))


# -- reference: the cocycle system built before the unit-cobracket columns,
# from a cobracket whose 30 constants are the variables of a polynomial ring
# and a residual read back coefficient by coefficient; kept verbatim, except
# that the names carry a _frozen prefix and the build returns the unknowns
# and rows in place of the LinearSystem with equation labels.

def _frozen_generic_cobracket(algebra):
    """A cobracket whose admissible constants are fresh ring parameters."""
    unknowns = admissible_unknowns(algebra)
    ring = Ring([(f"t{n}", "commuting") for n in range(len(unknowns))])
    d = Cobracket.from_entries(algebra, ring, (
        (u, ring.var(f"t{pos}")) for pos, u in enumerate(unknowns)))
    return d, unknowns, ring


def _frozen_linear_coefficients(scalar, ring, count):
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


def _frozen_build_cocycle_system(algebra):
    """One linear equation per component of each cocycle-identity residual."""
    d, unknowns, ring = _frozen_generic_cobracket(algebra)
    rows = []
    n = algebra.dim
    for i in range(n):
        for j in range(i, n):
            if i == j and not algebra.grades[i]:
                continue
            res = _cocycle_residual(algebra, d, i, j)
            for (l, m), value in sorted(res.coeffs.items()):
                row = _frozen_linear_coefficients(value, ring, len(unknowns))
                if any(row):
                    rows.append(row)
    return unknowns, rows


def _assert_system_equals_frozen(algebra):
    system = build_cocycle_system(algebra)
    assert (system.unknowns, system.rows) \
        == _frozen_build_cocycle_system(algebra)


class TestSystemEqualsFrozen:
    @pytest.mark.parametrize("name", ["osp12", "super_e2"])
    def test_builtins(self, name):
        _assert_system_equals_frozen(builtin(name))

    def test_abelian(self):
        _assert_system_equals_frozen(SuperLieAlgebra(
            "abelian5", [("A", "even"), ("B", "even"), ("C", "even"),
                         ("S", "odd"), ("T", "odd")], {}))

    @pytest.mark.parametrize("point", [
        ("e2-case-b", dict(a=1, b=2, c=3, d=0)),
        ("e2-case-a", dict(a=4, b=1, c=Fraction(-1, 2)))])
    def test_numeric_duals(self, point):
        d = family(point[0], **point[1])
        _assert_system_equals_frozen(dual_block(d.algebra, d))

    def test_symbolic_dual_is_refused_as_before(self):
        d = family("e2-case-b")
        dual = dual_block(d.algebra, d)
        with pytest.raises(RingMismatchError) as frozen:
            _frozen_build_cocycle_system(dual)
        with pytest.raises(RingMismatchError) as new:
            build_cocycle_system(dual)
        assert str(new.value) == str(frozen.value)

    @settings(max_examples=40, deadline=None)
    @given(constructor_inputs())
    @example(([("H", "even"), ("X", "even")], {("H", "H"): [(1, "X")]}))
    def test_drawn_superalgebras(self, drawn):
        # brackets on any ordered pair, even diagonals included
        _assert_system_equals_frozen(SuperLieAlgebra("drawn", *drawn))


def _permuted_nullspace(rows, ncols, order):
    """The nullspace found with the columns taken in `order`: permuted
    before elimination, each basis vector put back in natural order."""
    basis = []
    for u in nullspace([[row[c] for c in order] for row in rows], ncols):
        v = [None] * ncols
        for i, c in enumerate(order):
            v[c] = u[i]
        basis.append(v)
    return basis


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        assert nullspace(eye) == []

    def test_forced_kernel(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        basis = nullspace(m)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == -v[1] and v[0] != 0

    def test_rank_cross_check_with_permuted_columns(self, osp_solution):
        system, fam = osp_solution
        n = system.unknown_count
        rng = random.Random(11)
        order = list(range(n))
        rng.shuffle(order)
        permuted = _permuted_nullspace(system.rows, n, order)
        assert len(permuted) == fam.nullity
        # the two bases span the same space (mutual membership)
        assert None not in span_solve(
            fam.vectors, [[Fraction(x) for x in v] for v in permuted])
        assert None not in span_solve(
            permuted, [[Fraction(x) for x in v] for v in fam.vectors])


class TestSpaces:
    def test_osp_coboundary_completeness(self, osp, osp_solution):
        system, fam = osp_solution
        cobs, vectors = coboundary_space(osp)
        assert fam.nullity == 6
        assert len(vectors) == 6
        assert None not in span_solve(
            fam.vectors, [[Fraction(x) for x in v] for v in vectors])
        assert None not in span_solve(
            vectors, [[Fraction(x) for x in v] for v in fam.vectors])

    def test_e2_coboundaries_are_proper(self, e2, e2_solution):
        system, fam = e2_solution
        cobs, vectors = coboundary_space(e2)
        assert fam.nullity == 7
        assert len(vectors) == 5
        assert None not in span_solve(
            fam.vectors, [[Fraction(x) for x in v] for v in vectors])

    def test_abelian_coboundaries_vanish(self):
        from superbialg.algebra import SuperLieAlgebra
        abelian = SuperLieAlgebra(
            "abelian5",
            [("A", "even"), ("B", "even"), ("C", "even"),
             ("S", "odd"), ("T", "odd")], {})
        cobs, vectors = coboundary_space(abelian)
        assert vectors == []

    def test_kernel_members_are_cocycles(self, e2, e2_solution):
        system, fam = e2_solution
        for d in fam.cobrackets():
            report = check_cobracket(e2, d)
            assert not report.failures["cocycle"]
            assert not report.failures["grading"]
            assert not report.failures["antisymmetry"]


class TestQuadraticConstraints:
    def test_case_a_point_satisfies(self, e2, e2_solution):
        _, fam = e2_solution
        ring, constraints = cojacobi_constraints(fam)
        assert constraints
        d = family("e2-case-a")
        coeffs = span_solve(fam.vectors, [cobracket_vector(d, fam.unknowns)])[0]
        assert coeffs is not None
        coeffs = [d.ring.coerce(x) if not hasattr(x, "ring") else x
                  for x in coeffs]
        assert evaluate_constraints(constraints, coeffs, d.ring) == []

    def test_case_b_cd_point_violates(self, e2, e2_solution):
        _, fam = e2_solution
        _, constraints = cojacobi_constraints(fam)
        d = family("e2-case-b", c=1, d=1)
        coeffs = span_solve(fam.vectors, [cobracket_vector(d, fam.unknowns)])[0]
        assert coeffs is not None
        coeffs = [d.ring.coerce(x) if not hasattr(x, "ring") else x
                  for x in coeffs]
        assert evaluate_constraints(constraints, coeffs, d.ring)

    def test_zero_point_satisfies(self, e2, e2_solution):
        _, fam = e2_solution
        ring, constraints = cojacobi_constraints(fam)
        zero_point = [Fraction(0)] * fam.nullity
        assert evaluate_constraints(constraints, zero_point, ring) == []

    def test_claims_solve_each_space_once(self, monkeypatch):
        # the cocycle-spaces claims and both quadratic-point claims share
        # the latest solved space; a replaced builtin is solved afresh
        solved, expanded = [], []
        solve = cocycles.solve_cocycle_space
        expand = cocycles.cojacobi_constraints

        def counted_solve(alg):
            solved.append(alg)
            return solve(alg)

        def counted_expand(fam):
            expanded.append(fam)
            return expand(fam)

        monkeypatch.setattr(cocycles, "solve_cocycle_space", counted_solve)
        monkeypatch.setattr(cocycles, "cojacobi_constraints", counted_expand)
        claims._cocycle_space.cache_clear()
        claims._quadratic_points.cache_clear()
        results = run_claims(prefix="spaces.") + run_claims(prefix="quadratic.")
        assert [r.status for r in results] == ["pass"] * 4
        assert [a.name for a in solved] == ["osp12", "super_e2"]
        assert len(expanded) == 1
        copy = algebra.parse_algebra_text(
            algebra.render_algebra_text(builtin("super_e2")))
        monkeypatch.setitem(algebra._BUILTIN_CACHE, "super_e2", copy)
        assert [r.status for r in run_claims(prefix="quadratic.")] == ["pass"] * 2
        assert len(solved) == 3 and solved[2] is copy
        assert len(expanded) == 2

    def test_quadratic_claims_eliminate_once_each(self, monkeypatch):
        # one elimination solves the space (30 unknowns) and one solves both
        # points over its 7 basis vectors; a second run eliminates nothing
        eliminated = []
        rref = cocycles._rref

        def counted(rows, ncols):
            eliminated.append(ncols)
            return rref(rows, ncols)

        monkeypatch.setattr(cocycles, "_rref", counted)
        claims._cocycle_space.cache_clear()
        claims._quadratic_points.cache_clear()
        for _ in range(2):
            results = run_claims("quadratic")
            assert [r.status for r in results] == ["pass"] * 2
            assert eliminated == [30, 7]


def _frozen_evaluate_constraints(constraints, point, ring):
    """The previous evaluate_constraints body, kept verbatim as the reference
    for the ring map it now calls."""
    bad = []
    for poly in constraints:
        total = ring.zero()
        for exps, odds, coeff in poly.terms():
            term = ring.scalar(coeff)
            for pos, e in enumerate(exps):
                if e:
                    value = point[pos]
                    if not hasattr(value, "ring"):
                        value = ring.scalar(value)
                    term = term * value ** e
            total = total + term
        if not total.is_zero():
            bad.append((poly, total))
    return bad


def test_evaluate_constraints_equals_frozen(e2_solution):
    # points mix rationals with even elements of the super-E(2) group ring,
    # which carry negative powers of E and products of Grassmann generators
    _, fam = e2_solution
    _, constraints = cojacobi_constraints(fam)
    ring = group("super-e2").ring
    texts = ["0", "1", "-2/3", "c", "E^-1", "a*E^-2+1", "xi*eta",
             "E^-1*eta*xi-s", "2*b*xi*eta+E"]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.fractions(-3, 3, max_denominator=4),
                              st.sampled_from(texts).map(ring.parse)),
                    min_size=fam.nullity, max_size=fam.nullity))
    def check(point):
        assert evaluate_constraints(constraints, point, ring) \
            == _frozen_evaluate_constraints(constraints, point, ring)

    check()


def test_vector_cobracket_round_trip(e2, e2_solution):
    system, fam = e2_solution
    for v in fam.vectors:
        d = vector_cobracket(e2, fam.unknowns, v)
        again = cobracket_vector(d, fam.unknowns)
        assert [x.as_fraction() for x in again] == list(v)


# -- reference: the elimination kernels before the single Gauss-Jordan routine
# (fraction-free Bareiss with back-substitution for rank and nullspace, and
# a separate rational elimination for in_span), kept verbatim; only the names
# carry a _frozen prefix.

def _frozen_integerize(row):
    lcm = 1
    for x in row:
        if x.denominator != 1:
            g = math.gcd(lcm, x.denominator)
            lcm = lcm // g * x.denominator
    return [int(x * lcm) for x in row]


def _frozen_bareiss_echelon(rows, ncols):
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


def _frozen_rank(rows, ncols=None):
    if not rows:
        return 0
    ncols = ncols if ncols is not None else len(rows[0])
    scaled = [_frozen_integerize([Fraction(x) for x in row]) for row in rows]
    _, pivots = _frozen_bareiss_echelon(scaled, ncols)
    return len(pivots)


def _frozen_nullspace(rows, ncols=None, column_order=None):
    if not rows:
        return []
    ncols = ncols if ncols is not None else len(rows[0])
    order = list(column_order) if column_order is not None else list(range(ncols))
    if sorted(order) != list(range(ncols)):
        raise ValueError("column_order must be a permutation")
    scaled = [_frozen_integerize([Fraction(row[c]) for c in order]) for row in rows]
    ech, pivots = _frozen_bareiss_echelon(scaled, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
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


def _frozen_in_span(basis, vector):
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
        rhs[r] = _frozen_scale(rhs[r], inv)
        for rr in range(nrows):
            if rr != r and m[rr][col]:
                factor = m[rr][col]
                m[rr] = [a - factor * b for a, b in zip(m[rr], m[r])]
                rhs[rr] = _frozen_axpy(rhs[rr], -factor, rhs[r])
        pivots.append(col)
        r += 1
    coeffs = [None] * ncols
    for row_idx, col in enumerate(pivots):
        coeffs[col] = rhs[row_idx]
    for rr in range(len(pivots), nrows):
        if not _frozen_is_zero(rhs[rr]):
            return None
    for idx, val in enumerate(coeffs):
        if val is None:
            coeffs[idx] = 0
    return coeffs


def _frozen_scale(value, q):
    if hasattr(value, "ring"):
        return q * value
    return Fraction(value) * q


def _frozen_axpy(value, q, other):
    if hasattr(value, "ring") or hasattr(other, "ring"):
        return value + q * other
    return Fraction(value) + q * Fraction(other)


def _frozen_is_zero(value):
    if hasattr(value, "is_zero"):
        return value.is_zero()
    return value == 0


# small rationals, zero half the time, so that random rows are often
# dependent and pivots often missing
_ENTRY = st.sampled_from([Fraction(0)] * 6 + [
    Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)])


@st.composite
def _matrices(draw, max_rows=4, max_cols=6):
    """At least one row, with zero rows, duplicate rows and combinations of
    other rows mixed in, in random row order; plus a column order."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(_ENTRY, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=max_rows))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "combo"]),
                              max_size=3)):
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            x, y = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            q = draw(_ENTRY)
            rows.append([a + q * b for a, b in zip(x, y)])
    rows = draw(st.permutations(rows))
    return rows, ncols, draw(st.permutations(range(ncols)))


class TestOneEliminationKernel:
    @settings(max_examples=60, deadline=None)
    @given(_matrices())
    def test_rank_and_nullspace_equal_frozen(self, case):
        rows, ncols, order = case
        assert rank(rows, ncols) == _frozen_rank(rows, ncols)
        assert rank(rows) == _frozen_rank(rows)
        assert nullspace(rows) == _frozen_nullspace(rows)
        basis = _permuted_nullspace(rows, ncols, order)
        assert basis == _frozen_nullspace(rows, ncols, column_order=order)
        assert len(basis) == ncols - rank(rows, ncols)
        for v in basis:
            assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)

    @settings(max_examples=40, deadline=None)
    @given(_matrices(max_cols=4), st.data())
    def test_in_span_equals_frozen(self, case, data):
        # the rows, padded by a zero coordinate, are the basis vectors; one
        # vector inside their span, one with a nonzero last coordinate, and
        # one arbitrary vector
        rows, ncols, _ = case
        basis = data.draw(st.sampled_from([[r + [0] for r in rows], []]))
        weights = data.draw(st.lists(_ENTRY, min_size=len(basis),
                                     max_size=len(basis)))
        inside = [sum((w * b[i] for w, b in zip(weights, basis)), Fraction(0))
                  for i in range(ncols + 1)]
        outside = inside[:-1] + [data.draw(_ENTRY.filter(bool))]
        other = data.draw(st.lists(_ENTRY, min_size=ncols + 1,
                                   max_size=ncols + 1))
        for vector in (inside, outside, other):
            coeffs = span_solve(basis, [vector])[0]
            assert coeffs == _frozen_in_span(basis, vector)
            if coeffs is not None:
                assert [sum(c * b[i] for c, b in zip(coeffs, basis))
                        for i in range(ncols + 1)] == vector
        assert span_solve(basis, [inside])[0] is not None
        assert span_solve(basis, [outside])[0] is None

    @settings(max_examples=25, deadline=None)
    @given(_matrices(max_cols=4), st.data())
    def test_in_span_with_scalar_entries_equals_frozen(self, case, data):
        # weights in a ring with a Laurent and two Grassmann generators; the
        # rows, padded by a zero coordinate, are the basis, and the vector
        # outside the span has an odd element there
        ring = Ring([("a", "commuting"), ("E", "laurent"),
                     ("xi", "grassmann"), ("eta", "grassmann")])
        texts = ["0", "1", "-2/3", "a", "E^-1", "xi", "a*eta+E", "xi*eta"]
        rows, ncols, _ = case
        basis = [r + [0] for r in rows]
        weights = data.draw(st.lists(st.sampled_from(texts).map(ring.parse),
                                     min_size=len(basis), max_size=len(basis)))
        inside = [sum((b[i] * w for w, b in zip(weights, basis)), ring.zero())
                  for i in range(ncols + 1)]
        outside = inside[:-1] + [ring.var("xi")]
        for vector in (inside, outside):
            coeffs = span_solve(basis, [vector])[0]
            assert coeffs == _frozen_in_span(basis, vector)
            if coeffs is not None:
                assert [sum((b[i] * c for c, b in zip(coeffs, basis)),
                            ring.zero()) for i in range(ncols + 1)] == vector
        assert span_solve(basis, [inside])[0] is not None
        assert span_solve(basis, [outside])[0] is None

    @settings(max_examples=40, deadline=None)
    @given(_matrices(max_cols=4), st.data())
    def test_span_solve_equals_frozen_vector_by_vector(self, case, data):
        # one elimination of the basis, padded by a zero coordinate, for a
        # list of vectors with rational and scalar entries: combinations of
        # the basis, the same with a nonzero last coordinate, and arbitrary
        ring = Ring([("a", "commuting"), ("E", "laurent"),
                     ("xi", "grassmann"), ("eta", "grassmann")])
        scalars = st.sampled_from(["0", "1", "-2/3", "a", "E^-1", "xi",
                                   "a*eta+E", "xi*eta"]).map(ring.parse)
        rows, ncols, _ = case
        basis = data.draw(st.sampled_from([[r + [0] for r in rows], []]))
        kinds = data.draw(st.lists(st.sampled_from(
            ["inside", "outside", "other"]), max_size=6))
        vectors = []
        for kind in kinds:
            entry = data.draw(st.sampled_from([_ENTRY, scalars]))
            if kind == "other":
                vectors.append(data.draw(st.lists(
                    st.one_of(_ENTRY, scalars), min_size=ncols + 1,
                    max_size=ncols + 1)))
                continue
            weights = data.draw(st.lists(entry, min_size=len(basis),
                                         max_size=len(basis)))
            vector = [sum((w * b[i] for w, b in zip(weights, basis)),
                          Fraction(0)) for i in range(ncols + 1)]
            if kind == "outside":
                vector[-1] = data.draw(st.sampled_from(
                    [ring.var("xi"), Fraction(-1, 2)]))
            vectors.append(vector)
        got = span_solve(basis, vectors)
        assert len(got) == len(vectors)
        for kind, vector, coeffs in zip(kinds, vectors, got):
            assert coeffs == _frozen_in_span(basis, vector)
            assert coeffs == span_solve(basis, [vector])[0]
            if kind != "other":
                assert (coeffs is None) == (kind == "outside")

    @pytest.mark.parametrize("name", ["osp12", "super_e2"])
    def test_coboundary_space_picks_as_frozen_greedy_loop(self, name):
        # the previous coboundary_space kept each candidate that raised the
        # rank of those kept before it
        algebra = builtin(name)
        unknowns = admissible_unknowns(algebra)
        picked = []
        for r in basis_r_matrices(algebra):
            vec = [v.as_fraction() for v in cobracket_vector(
                coboundary_delta(algebra, r), unknowns)]
            if any(vec) and _frozen_rank(picked + [vec]) > len(picked):
                picked.append(vec)
        cobs, vectors = coboundary_space(algebra)
        assert vectors == picked
        assert [[x.as_fraction() for x in cobracket_vector(d, unknowns)]
                for d in cobs] == vectors

    def test_no_equations_leave_the_whole_space(self):
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        assert nullspace([], ncols=3) == eye
        # free columns come in the permuted order
        assert _permuted_nullspace([], 3, [2, 0, 1]) == [
            eye[2], eye[0], eye[1]]
        assert rank([], 3) == 0
        assert nullspace([]) == []

    def test_empty_basis_spans_only_zero(self):
        assert span_solve([], [[Fraction(0)] * 3])[0] == []
        assert span_solve([], [[Fraction(0), Fraction(1)]])[0] is None
