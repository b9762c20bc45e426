"""The Drinfeld double D = g + g*: a second route to every bialgebra claim.

(g, delta) is a Lie super-bialgebra exactly when D, with the bracket that
makes the canonical pairing of g and g* invariant, is a Lie superalgebra
(Drinfeld 1983; Andruskiewitsch 1993 for superalgebras).  D's axioms run
through `SuperLieAlgebra.validate`.  Beyond the keyed sum `Ring.accumulate`,
it shares no kernel with `_cocycle_residuals`, but it does share
`tensors.contract` with `_cojacobi_residuals`: D's Jacobi sum and delta's
co-Jacobi sum are the same sparse contraction, so this route is independent
of the cocycle kernel alone (ROADMAP item 12).  `double` reads only the
structure constants and the cobracket rows.
"""

from fractions import Fraction

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from superbialg.algebra import SuperLieAlgebra, builtin
from superbialg.bialgebra import (MCYBE, check_cobracket, coboundary_delta,
                                  cybe_status, family, family_ids,
                                  parse_cobracket_text)
from superbialg.cocycles import (_rref, rank, solve_cocycle_space, span_solve,
                                 vector_cobracket)
from superbialg.tensors import RMatrix


def _dual_brackets(algebra, d):
    """[e^k, e^l] = z(k,l) f_i^{kl} e^i for k <= l, e^k named `<e_k>*`."""
    star = [f"{n}*" for n in algebra.basis]
    brackets = {}
    for i, row in enumerate(d.rows):
        for (k, l), f in row.coeffs.items():
            if k <= l:
                brackets.setdefault((star[k], star[l]), []).append(
                    (algebra.z(k, l) * f, star[i]))
    return brackets


def dual_block(algebra, d):
    """g*, the subalgebra of `double(algebra, d)` on the e^i."""
    return SuperLieAlgebra(
        f"{algebra.name}*", [(f"{n}*", g) for n, g in zip(algebra.basis, algebra.grades)],
        _dual_brackets(algebra, d), ring=d.ring)


def double(algebra, d):
    """D over d.ring on the basis e_i, then e^i of the grade of e_i, with
    [e_i, e_j] = c_ij^k e_k, the brackets of `dual_block` and
    [e_i, e^j] = sum_m c_mi^j e^m + sum_m z(j,m) f_i^{jm} e_m, where
    delta(e_i) = f_i^{kl} e_k (x) e_l; the constructor completes the rest."""
    names, star = algebra.basis, [f"{n}*" for n in algebra.basis]
    brackets = _dual_brackets(algebra, d)
    for (m, i), entries in algebra.constants_in(d.ring).items():
        for k, c in entries:
            if m <= i:
                brackets.setdefault((names[m], names[i]), []).append((c, names[k]))
            brackets.setdefault((names[i], star[k]), []).append((c, star[m]))
    for i, row in enumerate(d.rows):
        for (j, m), f in row.coeffs.items():
            brackets.setdefault((names[i], star[j]), []).append(
                (algebra.z(j, m) * f, names[m]))
    basis = [*zip(names, algebra.grades), *zip(star, algebra.grades)]
    return SuperLieAlgebra(f"D({algebra.name})", basis, brackets, ring=d.ring)


def family_cobracket(fid, **params):
    """The cobracket of a family; an r-matrix family gives its coboundary."""
    obj = family(fid, **params)
    if isinstance(obj, RMatrix):
        return coboundary_delta(obj.algebra, obj)
    return obj


def canonical_r(D, dim):
    """r_D = sum_i ((-1)^{|i|} e_i (x) e^i - e^i (x) e_i) on D = g + g*,
    g of dimension `dim`."""
    one = D.ring.one()
    coeffs = {}
    for i in range(dim):
        coeffs[i, dim + i] = (-1 if D.grades[i] else 1) * one
        coeffs[dim + i, i] = -one
    return RMatrix(D, coeffs, D.ring)


@functools.lru_cache(maxsize=None)
def _solved_space(name):
    return solve_cocycle_space(builtin(name))[1]


class TestDoubleIsSuperalgebraExactlyForBialgebras:
    @pytest.mark.parametrize("fid", family_ids())
    def test_families(self, fid):
        d = family_cobracket(fid)
        passed = double(d.algebra, d).validate().passed
        assert passed == check_cobracket(d.algebra, d).passed
        assert passed == (fid != "e2-case-b")

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(["osp12", "super_e2"]),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                    min_size=7, max_size=7),
           st.none() | st.tuples(st.integers(0, 99), st.sampled_from([-1, 1, 2])))
    @example("super_e2", [1, 0, 0, 0, 0, 0, 0], (0, 1))
    @example("osp12", [0, 1, 0, 0, 0, 0, 0], (3, -1))
    def test_points_of_the_cocycle_spaces(self, name, coords, perturbation):
        # a point of the solved space, perturbed at one admissible constant
        algebra, fam = builtin(name), _solved_space(name)
        vector = [sum(x * v[u] for x, v in zip(coords, fam.vectors))
                  for u in range(len(fam.unknowns))]
        if perturbation is not None:
            vector[perturbation[0] % len(vector)] += perturbation[1]
        d = vector_cobracket(algebra, fam.unknowns, vector)
        passed = double(algebra, d).validate().passed
        assert passed == check_cobracket(algebra, d).passed
        if span_solve(fam.vectors, [vector])[0] is None:
            assert not passed

    def test_case_b_residuals_are_multiples_of_cd(self):
        d = family("e2-case-b")
        cd = d.ring.var("c") * d.ring.var("d")
        jacobi = double(d.algebra, d).validate().residuals("jacobi")
        cojacobi = check_cobracket(d.algebra, d).residuals("cojacobi")
        assert len(jacobi) == 96 and cojacobi
        for res in jacobi + cojacobi:
            [(_, _, q)] = res.terms()
            assert res == q * cd

    def test_published_case_a_sign_fails_jacobi(self):
        # case A at (a, b, c) = (1, 0, 3), where m = 0; the printed
        # delta(D-) row +1/2 (a P+ - b P-)^D- is +1/2 P+^D- there (ERRATA.md)
        e2 = builtin("super_e2")
        rows = """delta H = 1 H^P+ + 3 P+^P-
                  delta P- = -1 P+^P-
                  delta D+ = 1/2 P+^D+
                  delta D- = {} P+^D-"""
        published = parse_cobracket_text(rows.format("1/2"), e2)
        corrected = parse_cobracket_text(rows.format("-1/2"), e2)
        assert corrected == family("e2-case-a", a=1, b=0, c=3)
        assert double(e2, published).validate().failing_axioms() == ["jacobi"]
        assert double(e2, corrected).validate().passed


class TestEveryBialgebraRestrictsACoboundary:
    """delta_D(r_D) restricted to g is 2 delta: r_D is
    sum_i (-1)^{|i|} e_i ^ e^i, with the wedge without 1/2."""

    @pytest.mark.parametrize("fid", family_ids())
    def test_families(self, fid):
        d = family_cobracket(fid)
        D = double(d.algebra, d)
        r = canonical_r(D, d.algebra.dim)
        rows = coboundary_delta(D, r).rows
        for i in range(d.algebra.dim):
            assert rows[i].coeffs == {kl: 2 * v for kl, v in d.rows[i].coeffs.items()}
        assert (cybe_status(D, r) == MCYBE) == (fid != "e2-case-b")


def _derived_series(algebra):
    """Dimensions of g', g'' and g''' over Q."""
    n = algebra.dim
    span, dims = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)], []
    for _ in range(3):
        rows = []
        for u in span:
            for v in span:
                row = [Fraction(0)] * n
                for (i, j), entries in algebra.constants.items():
                    for k, c in entries:
                        row[k] += u[i] * v[j] * c.as_fraction()
                rows.append(row)
        reduced, pivots = _rref(rows, n)
        span = reduced[:len(pivots)]
        dims.append(len(span))
    return tuple(dims)


def _odd_bracket_rank(algebra):
    """The rank of [g_odd, g_odd] -> g_even, one row per odd pair."""
    n, odd = algebra.dim, [k for k in range(algebra.dim) if algebra.grades[k]]
    rows = []
    for x in odd:
        for y in odd:
            row = [Fraction(0)] * n
            for k, c in algebra.bracket_indices(x, y):
                row[k] = c.as_fraction()
            rows.append(row)
    return rank(rows, n)


def test_dual_invariants_split_the_normal_forms():
    """The derived series of g* and the rank of its odd-odd bracket, read off
    the g* block of the double at c = 1 (d = 1 for iv) and t = 1, 2.  They
    are necessary invariants only: forms with equal values need not be
    equivalent, and these do not separate (v) from (vi)."""
    groups = {
        "super_e2": {"i": ("e2-case-i", {"c": 1}), "ii": ("e2-case-ii", {"c": 1}),
                     "iii": ("e2-case-iii", {"c": 1}), "iv": ("e2-case-iv", {"d": 1}),
                     "v": ("e2-case-v", {"c": 1}), "vi": ("e2-case-vi", {"c": 1})},
        "osp12": {"r1": ("osp-r1", {}), "r2": ("osp-r2", {}),
                  "r3(1)": ("osp-r3", {"t": 1}), "r3(2)": ("osp-r3", {"t": 2})}}
    found, classes = {}, {}
    for name, points in groups.items():
        for label, (fid, params) in points.items():
            d = family_cobracket(fid, **params)
            block = dual_block(d.algebra, d)
            found[label] = (_derived_series(block), _odd_bracket_rank(block))
            classes.setdefault((name, found[label]), []).append(label)
    assert found == {
        "i": ((1, 0, 0), 0), "ii": ((4, 0, 0), 0), "iii": ((4, 1, 0), 0),
        "iv": ((4, 2, 0), 2), "v": ((4, 1, 0), 1), "vi": ((4, 1, 0), 1),
        "r1": ((4, 1, 0), 0), "r2": ((4, 2, 0), 2),
        "r3(1)": ((4, 2, 0), 2), "r3(2)": ((4, 2, 0), 2)}
    assert sorted(classes.values()) == [
        ["i"], ["ii"], ["iii"], ["iv"], ["r1"], ["r2", "r3(1)", "r3(2)"], ["v", "vi"]]
