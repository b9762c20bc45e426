"""Tests for cobrackets, the four bialgebra axioms, and the named families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbialg import cocycles
from superbialg.algebra import builtin
from superbialg.bialgebra import (Cobracket, _cojacobi_residuals, case_a,
                                  case_b, check_cobracket, coboundary_delta,
                                  cybe_status, dual_algebra, family,
                                  family_ids, parse_cobracket_text,
                                  CYBE, MCYBE)
from superbialg.scalars import Ring
from superbialg.tensors import GradedTensor, RMatrix, parse_rmatrix


@pytest.fixture(scope="module")
def e2():
    return builtin("super_e2")


@pytest.fixture(scope="module")
def osp():
    return builtin("osp12")


class TestCoboundary:
    def test_zero_r(self, e2):
        r = parse_rmatrix("0 H^P+", e2)
        assert coboundary_delta(e2, r).is_zero()

    def test_rii_equals_case_a_point(self, e2):
        d = coboundary_delta(e2, family("e2-r-ii"))
        assert d == case_a(1, 0, 0)

    def test_rv_equals_case_b_point(self, e2):
        d = coboundary_delta(e2, family("e2-r-v"))
        assert d == case_b(1, 0, 0, 0)

    def test_pp_wedge_is_irrelevant(self, e2):
        d = coboundary_delta(e2, parse_rmatrix("1 P+^P-", e2))
        assert d.is_zero()

    def test_symbolic_r3(self, osp):
        d = coboundary_delta(osp, family("osp-r3"))
        report = check_cobracket(osp, d)
        assert report.passed


class TestCobracketAxioms:
    @pytest.mark.parametrize("fid", ["osp-r1", "osp-r2", "osp-r3",
                                     "e2-r-ii", "e2-r-iii", "e2-r-v", "e2-r-vi"])
    def test_coboundary_families_pass(self, fid, e2, osp):
        algebra = osp if fid.startswith("osp") else e2
        d = coboundary_delta(algebra, family(fid))
        assert check_cobracket(algebra, d).passed

    @pytest.mark.parametrize("branch", [1, -1])
    def test_case_a_symbolic(self, branch, e2):
        report = check_cobracket(e2, case_a(branch=branch))
        assert report.passed

    def test_case_b_generic_residual(self, e2):
        report = check_cobracket(e2, case_b())
        assert not report.passed
        assert report.failing_axioms() == ["cojacobi"]
        for res in report.residuals("cojacobi"):
            # vanishing under both c->0 and d->0 forces divisibility by c*d
            assert res.substitute({"c": 0}).is_zero()
            assert res.substitute({"d": 0}).is_zero()

    def test_case_b_specializations_pass(self, e2):
        assert check_cobracket(e2, case_b(c=0)).passed
        assert check_cobracket(e2, case_b(d=0)).passed

    def test_case_b_numeric_violation(self, e2):
        assert not check_cobracket(e2, case_b(c=1, d=1)).passed


class TestCybeStatus:
    def test_e2_statuses(self, e2):
        assert cybe_status(e2, family("e2-r-ii")) == CYBE
        assert cybe_status(e2, family("e2-r-v")) == CYBE
        assert cybe_status(e2, family("e2-r-iii")) == MCYBE
        assert cybe_status(e2, family("e2-r-vi")) == MCYBE

    def test_osp_statuses(self, osp):
        assert cybe_status(osp, family("osp-r1")) == CYBE
        assert cybe_status(osp, family("osp-r3")) == MCYBE
        # r2 sits on the degenerate orbit x^2 = yz, where the Schouten
        # bracket vanishes identically, so it is triangular
        assert cybe_status(osp, family("osp-r2")) == CYBE

    def test_cojacobi_iff_mcybe(self, e2, osp):
        # co-Jacobi of a coboundary holds exactly when the Schouten bracket
        # is ad-invariant; all named families are, so both sides agree
        for fid in ("osp-r1", "osp-r2", "e2-r-ii", "e2-r-iii", "e2-r-v",
                    "e2-r-vi"):
            algebra = osp if fid.startswith("osp") else e2
            r = family(fid)
            report = check_cobracket(algebra, coboundary_delta(algebra, r))
            assert not report.cojacobi
            assert cybe_status(algebra, r) in (CYBE, MCYBE)

    def test_neither_status_fails_cojacobi_only(self, osp):
        # the bare sl(2) standard r-matrix is not ad-invariant inside
        # osp(1|2): its coboundary must fail co-Jacobi and nothing else
        r = parse_rmatrix("1 X+^X-", osp)
        assert cybe_status(osp, r) == "neither"
        report = check_cobracket(osp, coboundary_delta(osp, r))
        assert report.failing_axioms() == ["cojacobi"]


class TestDuality:
    def test_case_a_dual_is_a_superalgebra(self, e2):
        dual = dual_algebra(e2, case_a())
        assert dual.validate().passed

    def test_case_b_generic_dual_fails_jacobi_only(self, e2):
        dual = dual_algebra(e2, case_b())
        report = dual.validate()
        assert report.jacobi_failures
        assert not report.antisymmetry_failures
        assert not report.grading_failures

    def test_duality_matches_cojacobi(self, e2):
        # dual-Jacobi passes exactly when the co-Jacobi report is clean
        for d in (case_a(), case_b(d=0), case_b(c=0)):
            assert dual_algebra(e2, d).validate().passed
            assert not check_cobracket(e2, d).cojacobi
        generic = case_b()
        assert dual_algebra(e2, generic).validate().jacobi_failures
        assert check_cobracket(e2, generic).cojacobi


class TestFamilies:
    def test_family_ids_resolve(self):
        for fid in family_ids():
            obj = family(fid)
            assert obj is not None

    def test_case_i_shape(self, e2):
        d = family("e2-case-i")
        i = e2.index
        # delta(H) = c P+^P-, every other row zero
        assert d.f[i["H"]][i["P+"]][i["P-"]] == d.ring.var("c")
        for g in ("P+", "P-", "D+", "D-"):
            assert d.delta(g).is_zero()

    def test_numeric_case_a_requires_square(self):
        with pytest.raises(ValueError):
            case_a(2, 1, 0)
        d = case_a(4, 9, 0)
        i = d.algebra.index
        assert d.f[i["D+"]][i["P+"]][i["D-"]] == 6

    def test_branch_sign(self):
        plus = case_a(1, 1, 0, branch=1)
        minus = case_a(1, 1, 0, branch=-1)
        i = plus.algebra.index
        assert plus.f[i["D+"]][i["P+"]][i["D-"]] == 1
        assert minus.f[i["D+"]][i["P+"]][i["D-"]] == -1

    def test_r_vi_value(self, e2):
        r = family("e2-r-vi")
        i = e2.index
        assert r.coeffs[(i["H"], i["P+"])] == 1
        assert r.coeffs[(i["H"], i["P-"])] == -1
        assert r.coeffs[(i["D+"], i["D+"])] == -1
        assert r.coeffs[(i["D-"], i["D-"])] == -1

    def test_osp_r3_is_scaled_sum(self, osp):
        r1 = family("osp-r3", t=1)
        i = osp.index
        assert r1.coeffs[(i["V+"], i["V+"])] == -2
        assert r1.coeffs[(i["H"], i["X-"])] == 1

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            family("nope")

    @pytest.mark.parametrize("fid", ["e2-case-i", "e2-case-ii", "e2-case-iii",
                                     "e2-case-iv", "e2-case-v", "e2-case-vi"])
    def test_six_families_pass_all_axioms(self, fid, e2):
        assert check_cobracket(e2, family(fid)).passed


class TestCobracketText:
    def test_round_trip(self, e2):
        d = case_a(1, 0, Fraction(5, 4))
        text = d.render()
        again = parse_cobracket_text(text, e2)
        assert again == d

    def test_parse_rows(self, e2):
        d = parse_cobracket_text("delta H = 1 P+^P-", e2)
        i = e2.index
        assert d.f[i["H"]][i["P+"]][i["P-"]] == 1
        assert d.f[i["H"]][i["P-"]][i["P+"]] == -1


# -- frozen dense references -------------------------------------------------
#
# The co-Jacobi loop and the grading/antisymmetry scan as they ran over the
# dense n x n x n table before cobrackets were stored as sparse rows; the
# sparse kernels must report the same entries in the same order.

def dense_cojacobi_residuals(algebra, d):
    f = d.f
    n = algebra.dim
    for i in range(n):
        for k in range(n):
            for l in range(n):
                for m in range(n):
                    res = d.ring.zero()
                    for j in range(n):
                        res = res + f[i][k][j] * f[j][l][m] * algebra.z(k, m)
                        res = res + f[i][l][j] * f[j][m][k] * algebra.z(l, k)
                        res = res + f[i][m][j] * f[j][k][l] * algebra.z(m, l)
                    if not res.is_zero():
                        yield i, k, l, m, res


def dense_grading_antisymmetry(algebra, d):
    f = d.f
    n = algebra.dim
    grades = algebra.grades
    grading, antisymmetry = [], []
    for i in range(n):
        for k in range(n):
            for l in range(n):
                v = f[i][k][l]
                if v.is_zero():
                    continue
                if (grades[k] + grades[l]) % 2 != grades[i]:
                    grading.append(
                        (algebra.basis[i], algebra.basis[k], algebra.basis[l], v))
    for i in range(n):
        for k in range(n):
            for l in range(k, n):
                res = f[i][k][l] + algebra.z(k, l) * f[i][l][k]
                if not res.is_zero():
                    antisymmetry.append(
                        (algebra.basis[i], algebra.basis[k], algebra.basis[l], res))
    return grading, antisymmetry


def assert_matches_dense(algebra, d):
    assert (list(_cojacobi_residuals(algebra, d))
            == list(dense_cojacobi_residuals(algebra, d)))
    report = check_cobracket(algebra, d)
    assert (report.grading, report.antisymmetry) == dense_grading_antisymmetry(
        algebra, d)


def _constraint_cobracket(algebra):
    """The parameter-linear cobracket that `cojacobi_constraints` expands."""
    _, fam = cocycles.solve_cocycle_space(algebra)
    ring = Ring([(f"t{n}", "commuting") for n in range(fam.nullity)])
    return Cobracket.from_entries(algebra, ring, (
        (u, coeff * ring.var(f"t{pos}"))
        for pos, vec in enumerate(fam.vectors)
        for u, coeff in zip(fam.unknowns, vec) if coeff))


NAMED = family_ids() + ["generic:osp12", "generic:super_e2",
                        "constraints:osp12", "constraints:super_e2"]


def _named_cobracket(label):
    """A family cobracket, the coboundary of an r-matrix family, or the
    generic or co-Jacobi-constraint cobracket of a built-in algebra."""
    if ":" not in label:
        obj = family(label)
        if isinstance(obj, RMatrix):
            return coboundary_delta(obj.algebra, obj)
        return obj
    kind, name = label.split(":")
    algebra = builtin(name)
    if kind == "generic":
        return cocycles.generic_cobracket(algebra)[0]
    return _constraint_cobracket(algebra)


class TestSparseKernelsMatchDense:
    @pytest.mark.parametrize("label", NAMED)
    def test_named_cobrackets(self, label):
        d = _named_cobracket(label)
        assert_matches_dense(d.algebra, d)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["osp12", "super_e2"]).flatmap(
        lambda name: st.tuples(st.just(name), st.lists(st.tuples(
            st.tuples(*[st.integers(0, 4)] * 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            max_size=12))))
    def test_random_rational_cobrackets(self, drawn):
        name, entries = drawn
        algebra = builtin(name)
        ring = algebra.ring
        d = Cobracket.from_entries(algebra, ring, entries)
        assert_matches_dense(algebra, d)
        # the same values as raw rows: neither graded nor antisymmetric
        coeffs = [{} for _ in range(algebra.dim)]
        for (i, k, l), value in entries:
            coeffs[i][(k, l)] = coeffs[i].get((k, l), ring.zero()) + value
        raw = Cobracket(algebra, ring,
                        [GradedTensor(algebra, 2, c, ring) for c in coeffs])
        assert_matches_dense(algebra, raw)
