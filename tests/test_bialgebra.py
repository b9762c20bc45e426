"""Tests for cobrackets, the four bialgebra axioms, and the named families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbialg import cocycles
from superbialg.algebra import builtin
from superbialg.bialgebra import (Cobracket, _cojacobi_residuals,
                                  check_cobracket, coboundary_delta,
                                  cybe_status, family,
                                  family_ids, parse_cobracket_text,
                                  CYBE, MCYBE)
from superbialg.equivalence import e2_automorphism, transform
from superbialg.scalars import Q, Ring, RingMismatchError
from superbialg.tensors import (RMatrix, ad_action, parse_rmatrix,
                                parse_wedge_sum, render_wedge_form, schouten,
                                wedge)

from test_double import double, family_cobracket


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
        assert d == family("e2-case-a", 1, 0, 0)

    def test_rv_equals_case_b_point(self, e2):
        d = coboundary_delta(e2, family("e2-r-v"))
        assert d == family("e2-case-b", 1, 0, 0, 0)

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
        report = check_cobracket(e2, family("e2-case-a", branch=branch))
        assert report.passed

    def test_case_b_generic_residual(self, e2):
        report = check_cobracket(e2, family("e2-case-b"))
        assert not report.passed
        assert report.failing_axioms() == ["cojacobi"]
        for res in report.residuals("cojacobi"):
            # vanishing under both c->0 and d->0 forces divisibility by c*d
            assert res.substitute({"c": 0}).is_zero()
            assert res.substitute({"d": 0}).is_zero()

    def test_case_b_specializations_pass(self, e2):
        assert check_cobracket(e2, family("e2-case-b", c=0)).passed
        assert check_cobracket(e2, family("e2-case-b", d=0)).passed

    def test_case_b_numeric_violation(self, e2):
        assert not check_cobracket(e2, family("e2-case-b", c=1, d=1)).passed


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
            assert not report.failures["cojacobi"]
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
        assert double(e2, family("e2-case-a")).validate().passed

    def test_case_b_generic_dual_fails_jacobi_only(self, e2):
        report = double(e2, family("e2-case-b")).validate()
        assert report.failing_axioms() == ["jacobi"]

    def test_duality_matches_cojacobi(self, e2):
        # the double's Jacobi passes exactly when the co-Jacobi report is clean
        for d in (family("e2-case-a"), family("e2-case-b", d=0),
                  family("e2-case-b", c=0)):
            assert double(e2, d).validate().passed
            assert not check_cobracket(e2, d).failures["cojacobi"]
        generic = family("e2-case-b")
        assert double(e2, generic).validate().failures["jacobi"]
        assert check_cobracket(e2, generic).failures["cojacobi"]


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
            family("e2-case-a", 2, 1, 0)
        d = family("e2-case-a", 4, 9, 0)
        i = d.algebra.index
        assert d.f[i["D+"]][i["P+"]][i["D-"]] == 6

    def test_branch_sign(self):
        plus = family("e2-case-a", 1, 1, 0, branch=1)
        minus = family("e2-case-a", 1, 1, 0, branch=-1)
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
        d = family("e2-case-a", 1, 0, Fraction(5, 4))
        text = d.render()
        again = parse_cobracket_text(text, e2)
        assert again == d

    def test_multi_term_coefficients_round_trip(self, e2):
        # only a one-term coefficient lends its sign to the joint: read back,
        # `- a+b H^P-` would be -(a+b) H^P-
        ring = Ring([("a", "commuting"), ("b", "commuting")])
        a, b = ring.var("a"), ring.var("b")
        t = (wedge(e2, "H", "P+", ring) + wedge(e2, "H", "P-", ring, coeff=b - a)
             + wedge(e2, "P+", "P-", ring, coeff=-2 * b)
             + wedge(e2, "D+", "D+", ring, coeff=-a - b)
             + wedge(e2, "D+", "D-", ring, coeff=a - b))
        text = render_wedge_form(t)
        assert text == ("1 H^P+ + -a+b H^P- - 2*b P+^P- + -a-b D+^D+"
                        " + a-b D+^D-")
        assert parse_wedge_sum(text, e2, ring) == t
        d = Cobracket.from_rows(e2, {"H": t, "P-": -1 * t}, ring)
        assert parse_cobracket_text(d.render(), e2, ring) == d, d.render()

    def test_parse_rows(self, e2):
        d = parse_cobracket_text("delta H = 1 P+^P-", e2)
        i = e2.index
        assert d.f[i["H"]][i["P+"]][i["P-"]] == 1
        assert d.f[i["H"]][i["P-"]][i["P+"]] == -1


def _round_trip_cases():
    """r:<id> and coboundary:<id> for every r-matrix family, cobracket:<id>
    for every cobracket family, and the zero r-matrix and zero cobracket of
    both built-in algebras."""
    cases = []
    for fid in family_ids():
        if isinstance(family(fid), RMatrix):
            cases += [f"r:{fid}", f"coboundary:{fid}"]
        else:
            cases.append(f"cobracket:{fid}")
    return cases + [f"{kind}:zero-{name}" for kind in ("r", "cobracket")
                    for name in ("osp12", "super_e2")]


@pytest.mark.parametrize("case", _round_trip_cases())
def test_rendered_output_parses_back(case):
    kind, label = case.split(":")
    if label.startswith("zero-"):
        algebra = builtin(label[len("zero-"):])
        obj = (RMatrix if kind == "r" else Cobracket)(algebra, {})
    else:
        obj = family(label)
        if kind == "coboundary":
            obj = coboundary_delta(obj.algebra, obj)
    if kind == "r":
        text = render_wedge_form(obj)
        assert parse_rmatrix(text, obj.algebra, obj.ring) == obj, text
    else:
        text = obj.render()
        assert parse_cobracket_text(text, obj.algebra, obj.ring) == obj, text


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
    assert sorted(_cojacobi_residuals(algebra, d).items()) == \
        [(tuple(key), res) for *key, res in dense_cojacobi_residuals(algebra, d)]
    report = check_cobracket(algebra, d)
    assert tuple([(*labels, res) for labels, res in report.failures[axiom]]
                 for axiom in ("grading", "antisymmetry")) == \
        dense_grading_antisymmetry(algebra, d)


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
    generic (one ring variable per admissible constant, as the cocycle
    system was once built) or co-Jacobi-constraint cobracket of a built-in
    algebra."""
    if ":" not in label:
        return family_cobracket(label)
    kind, name = label.split(":")
    algebra = builtin(name)
    if kind == "generic":
        # imported here: test_cocycles draws algebras from test_algebra,
        # which imports this module
        from test_cocycles import _frozen_generic_cobracket
        return _frozen_generic_cobracket(algebra)[0]
    return _constraint_cobracket(algebra)


def _drawn_entries():
    return st.sampled_from(["osp12", "super_e2"]).flatmap(
        lambda name: st.tuples(st.just(name), st.lists(st.tuples(
            st.tuples(*[st.integers(0, 4)] * 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            max_size=12)))


class TestSparseKernelsMatchDense:
    @pytest.mark.parametrize("label", NAMED)
    def test_named_cobrackets(self, label):
        d = _named_cobracket(label)
        assert_matches_dense(d.algebra, d)

    @settings(max_examples=25, deadline=None)
    @given(_drawn_entries())
    def test_random_rational_cobrackets(self, drawn):
        name, entries = drawn
        algebra = builtin(name)
        ring = algebra.ring
        d = Cobracket.from_entries(algebra, ring, entries)
        assert_matches_dense(algebra, d)
        # the same values as raw rows: neither graded nor antisymmetric
        coeffs = {}
        for key, value in entries:
            coeffs[key] = coeffs.get(key, ring.zero()) + value
        raw = Cobracket(algebra, coeffs, ring)
        assert_matches_dense(algebra, raw)


_PRINTED_CASE_A = """
    delta H = a H^P+ + b H^P- + c P+^P-
    delta P+ = b P+^P-
    delta P- = -a P+^P-
    delta D+ = 1/2*a P+^D+ - 1/2*b P-^D+ + m P+^D-
    delta D- = 1/2*a P+^D- - 1/2*b P-^D- + m P-^D+"""


def _failing_cobrackets():
    """Cobrackets failing the axioms of `check_cobracket`, each with its full
    report text: case A with the printed delta(D-) row (ERRATA), a raw
    coefficient dict that is neither graded nor antisymmetric, and case B at
    c = d = 1."""
    e2 = builtin("super_e2")
    one = e2.ring.one()
    return {
        "printed-case-a": (parse_cobracket_text(
            _PRINTED_CASE_A, e2, family("e2-case-a").ring),
            "cojacobi violated at (D+,P+,P-,D-): -b*m\n"
            "cojacobi violated at (D+,P+,D-,P-): b*m\n"
            "cojacobi violated at (D+,P-,P+,D-): b*m\n"
            "cojacobi violated at (D+,P-,D-,P+): -b*m\n"
            "cojacobi violated at (D+,D-,P+,P-): -b*m\n"
            "cojacobi violated at (D+,D-,P-,P+): b*m\n"
            "cojacobi violated at (D-,P+,P-,D+): a*m\n"
            "cojacobi violated at (D-,P+,P-,D-): -2*a*b\n"
            "cojacobi violated at (D-,P+,D+,P-): -a*m\n"
            "cojacobi violated at (D-,P+,D-,P-): 2*a*b\n"
            "cojacobi violated at (D-,P-,P+,D+): -a*m\n"
            "cojacobi violated at (D-,P-,P+,D-): 2*a*b\n"
            "cojacobi violated at (D-,P-,D+,P+): a*m\n"
            "cojacobi violated at (D-,P-,D-,P+): -2*a*b\n"
            "cojacobi violated at (D-,D+,P+,P-): a*m\n"
            "cojacobi violated at (D-,D+,P-,P+): -a*m\n"
            "cojacobi violated at (D-,D-,P+,P-): -2*a*b\n"
            "cojacobi violated at (D-,D-,P-,P+): 2*a*b\n"
            "cocycle violated at (H,D-,P+,D-): -a\n"
            "cocycle violated at (H,D-,P-,D-): -b\n"
            "cocycle violated at (H,D-,D-,P+): a\n"
            "cocycle violated at (H,D-,D-,P-): b\n"
            "cocycle violated at (D-,D-,P+,P-): -2*a\n"
            "cocycle violated at (D-,D-,P-,P+): 2*a"),
        "raw": (Cobracket(e2, {(0, 1, 2): one, (0, 0, 3): 2 * one,
                               (3, 0, 3): -one}),
                "grading violated at (H,H,D+): 2\n"
                "antisymmetry violated at (H,H,D+): 2\n"
                "antisymmetry violated at (H,P+,P-): 1\n"
                "antisymmetry violated at (D+,H,D+): -1\n"
                "cojacobi violated at (H,H,H,D+): -2\n"
                "cojacobi violated at (H,H,D+,H): -2\n"
                "cojacobi violated at (H,D+,H,H): -2\n"
                "cojacobi violated at (D+,H,H,D+): 1\n"
                "cojacobi violated at (D+,H,D+,H): 1\n"
                "cojacobi violated at (D+,D+,H,H): 1\n"
                "cocycle violated at (H,P+,P+,D+): -2\n"
                "cocycle violated at (H,P-,P-,D+): 2\n"
                "cocycle violated at (H,D+,H,P+): 2\n"
                "cocycle violated at (H,D+,D+,D+): -1\n"
                "cocycle violated at (H,D-,D-,D+): 1\n"
                "cocycle violated at (P+,D+,P+,D+): -1\n"
                "cocycle violated at (P-,D+,P-,D+): 1\n"
                "cocycle violated at (D+,D+,H,P+): 2\n"
                "cocycle violated at (D+,D+,D+,D+): -1\n"
                "cocycle violated at (D+,D-,D-,D+): 1/2"),
        "case-b-cd": (family("e2-case-b", 0, 0, 1, 1),
                      "cojacobi violated at (H,H,P+,P-): -4\n"
                      "cojacobi violated at (H,H,P-,P+): 4\n"
                      "cojacobi violated at (H,P+,H,P-): 4\n"
                      "cojacobi violated at (H,P+,P-,H): -4\n"
                      "cojacobi violated at (H,P+,D-,D-): 2\n"
                      "cojacobi violated at (H,P-,H,P+): -4\n"
                      "cojacobi violated at (H,P-,P+,H): 4\n"
                      "cojacobi violated at (H,P-,D+,D+): 2\n"
                      "cojacobi violated at (H,D+,P-,D+): 2\n"
                      "cojacobi violated at (H,D+,D+,P-): 2\n"
                      "cojacobi violated at (H,D-,P+,D-): 2\n"
                      "cojacobi violated at (H,D-,D-,P+): 2\n"
                      "cojacobi violated at (D+,P+,P-,D+): -1\n"
                      "cojacobi violated at (D+,P+,D+,P-): 1\n"
                      "cojacobi violated at (D+,P-,P+,D+): 1\n"
                      "cojacobi violated at (D+,P-,D+,P+): -1\n"
                      "cojacobi violated at (D+,D+,P+,P-): -1\n"
                      "cojacobi violated at (D+,D+,P-,P+): 1\n"
                      "cojacobi violated at (D-,P+,P-,D-): -1\n"
                      "cojacobi violated at (D-,P+,D-,P-): 1\n"
                      "cojacobi violated at (D-,P-,P+,D-): 1\n"
                      "cojacobi violated at (D-,P-,D-,P+): -1\n"
                      "cojacobi violated at (D-,D-,P+,P-): -1\n"
                      "cojacobi violated at (D-,D-,P-,P+): 1"),
    }


@pytest.mark.parametrize("case", ["printed-case-a", "raw", "case-b-cd"])
def test_failing_check_cobracket_report_text(case):
    d, rendered = _failing_cobrackets()[case]
    assert check_cobracket(d.algebra, d).render() == rendered


def test_numeric_points_share_the_one_q_ring():
    # every fully numeric family point and the builtin algebras live in Q,
    # so the structure constants are read as they are, with no conversion
    osp = builtin("osp12")
    points = [family("osp-r-a", x=1, y=2, z=3),
              family("e2-r-a", a=4, b=1, f=Fraction(2, 3)),
              family("osp-r1")]
    assert osp.ring is Q and all(r.ring is Q for r in points)
    assert osp.constants_in(points[0].ring) is osp.constants
    assert family("osp-r-a").ring is not Q


class TestCobracketIsARank3Tensor:
    """A cobracket is its coefficient dict keyed (i, k, l), dual slot first;
    `rows`, `delta` and `f` are views of it, and the tensor operations and
    `transform` give back a Cobracket."""

    @staticmethod
    def assert_views_agree(d):
        n, zero = d.algebra.dim, d.ring.zero()
        assert d.rank == 3 and len(d.rows) == n and d.rows is d.rows
        f = d.f
        for i, name in enumerate(d.algebra.basis):
            assert d.delta(i) is d.rows[i] is d.delta(name)
            assert {(i, *kl): v for kl, v in d.rows[i].coeffs.items()} == \
                {key: v for key, v in d.coeffs.items() if key[0] == i}
            assert [[f[i][k][l] for l in range(n)] for k in range(n)] == \
                [[d.coeffs.get((i, k, l), zero) for l in range(n)]
                 for k in range(n)]

    @pytest.mark.parametrize("fid", family_ids())
    def test_views_agree_on_families(self, fid):
        self.assert_views_agree(family_cobracket(fid))

    @settings(max_examples=25, deadline=None)
    @given(_drawn_entries())
    def test_views_agree_on_drawn_points(self, drawn):
        name, entries = drawn
        algebra = builtin(name)
        self.assert_views_agree(
            Cobracket.from_entries(algebra, algebra.ring, entries))

    def test_operations_return_a_cobracket(self, e2):
        d = family("e2-case-b")
        wider = Ring([(n, "commuting") for n in (*d.ring.names, "u")])
        point = d.map(Q, {n: Q.scalar(k) for k, n in enumerate(d.ring.names)})
        flip = e2_automorphism("flip", ring=d.ring)
        results = [point, d.convert(wider), d - d, d + d, -d, d.scale(2),
                   2 * d, transform(flip, d), transform(flip, point)]
        assert [type(x) for x in results] == [Cobracket] * len(results)
        assert point == family("e2-case-b", 0, 1, 2, 3)
        assert (d - d).render() == "delta = 0"
        for x in results[:2] + results[3:]:
            assert x.render().startswith("delta H = ")
            assert parse_cobracket_text(x.render(), e2, x.ring) == x

    def test_ad_action_and_schouten_refuse_a_cobracket(self, e2):
        # both act on tensors of g; a cobracket's first slot is dual
        d = family("e2-case-ii", c=1)
        with pytest.raises(ValueError, match="rank 2 or 3 over g"):
            ad_action(e2, "H", d)
        with pytest.raises(ValueError, match="rank-2"):
            schouten(e2, d)

    def test_from_rows_refuses_a_row_of_another_algebra(self, e2, osp):
        with pytest.raises(RingMismatchError):
            Cobracket.from_rows(e2, {"H": wedge(osp, "H", "X+")})

    def test_check_cobracket_refuses_another_algebras_cobracket(self, osp):
        with pytest.raises(RingMismatchError, match="different algebra"):
            check_cobracket(osp, family("e2-case-ii", c=1))
