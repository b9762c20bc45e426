"""Tests for the cocycle linear system, exact nullspace, and constraints."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbialg.algebra import builtin
from superbialg.bialgebra import case_a, case_b, check_cobracket
from superbialg.cocycles import (admissible_unknowns, build_cocycle_system,
                                 coboundary_space, cojacobi_constraints,
                                 cobracket_vector, evaluate_constraints,
                                 in_span, kernel_of_system, nullspace,
                                 residual_of, solve_cocycle_space,
                                 vector_cobracket)
from superbialg.poisson import group


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
        permuted = kernel_of_system(system, column_order=order)
        assert len(permuted) == fam.nullity
        # the two bases span the same space (mutual membership)
        for v in permuted:
            assert in_span(fam.vectors, [Fraction(x) for x in v]) is not None
        for v in fam.vectors:
            assert in_span(permuted, [Fraction(x) for x in v]) is not None


class TestSpaces:
    def test_osp_coboundary_completeness(self, osp, osp_solution):
        system, fam = osp_solution
        cobs, vectors = coboundary_space(osp)
        assert fam.nullity == 6
        assert len(vectors) == 6
        for v in vectors:
            assert in_span(fam.vectors, [Fraction(x) for x in v]) is not None
        for v in fam.vectors:
            assert in_span(vectors, [Fraction(x) for x in v]) is not None

    def test_e2_coboundaries_are_proper(self, e2, e2_solution):
        system, fam = e2_solution
        cobs, vectors = coboundary_space(e2)
        assert fam.nullity == 7
        assert len(vectors) == 5
        for v in vectors:
            assert in_span(fam.vectors, [Fraction(x) for x in v]) is not None

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
            assert not report.cocycle
            assert not report.grading and not report.antisymmetry


class TestQuadraticConstraints:
    def test_case_a_point_satisfies(self, e2, e2_solution):
        _, fam = e2_solution
        ring, constraints = cojacobi_constraints(fam)
        assert constraints
        d = case_a()
        coeffs = in_span(fam.vectors, cobracket_vector(d, fam.unknowns))
        assert coeffs is not None
        coeffs = [d.ring.coerce(x) if not hasattr(x, "ring") else x
                  for x in coeffs]
        assert evaluate_constraints(constraints, coeffs, d.ring) == []

    def test_case_b_cd_point_violates(self, e2, e2_solution):
        _, fam = e2_solution
        _, constraints = cojacobi_constraints(fam)
        d = case_b(c=1, d=1)
        coeffs = in_span(fam.vectors, cobracket_vector(d, fam.unknowns))
        assert coeffs is not None
        coeffs = [d.ring.coerce(x) if not hasattr(x, "ring") else x
                  for x in coeffs]
        assert evaluate_constraints(constraints, coeffs, d.ring)

    def test_zero_point_satisfies(self, e2, e2_solution):
        _, fam = e2_solution
        ring, constraints = cojacobi_constraints(fam)
        zero_point = [Fraction(0)] * fam.nullity
        assert evaluate_constraints(constraints, zero_point, ring) == []


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
