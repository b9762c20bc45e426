"""Tests for superalgebra construction, validation, and the file format."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superbialg.scalars import Ring, SuperScalar
from superbialg import algebra as algebra_module
from superbialg.algebra import (SuperLieAlgebra, AlgebraError, builtin,
                                bracket, data_path, parse_algebra_text,
                                render_algebra_text)
from superbialg.bialgebra import Cobracket
from superbialg.tensors import GradedTensor
from test_bialgebra import NAMED, _named_cobracket
from test_double import _dual_brackets, dual_block


def dense_table(algebra):
    """The dense table c[i][j][k] of the structure constants, zeros filled
    in from the sparse `constants`."""
    n = algebra.dim
    zero = algebra.ring.zero()
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j), entries in algebra.constants.items():
        for k, v in entries:
            table[i][j][k] = v
    return table


@pytest.fixture(scope="module")
def e2():
    return builtin("super_e2")


@pytest.fixture(scope="module")
def osp():
    return builtin("osp12")


# -- reference: the built-in algebras as they were written out by hand
# before `builtin` read the bundled .alg files; kept verbatim, except that
# the name carries a _frozen prefix.

def _frozen_build_builtin(name):
    half = Fraction(1, 2)
    if name == "super_e2":
        return SuperLieAlgebra(
            "super_e2",
            [("H", "even"), ("P+", "even"), ("P-", "even"),
             ("D+", "odd"), ("D-", "odd")],
            {
                ("H", "P+"): [(1, "P+")],
                ("H", "P-"): [(-1, "P-")],
                ("H", "D+"): [(half, "D+")],
                ("H", "D-"): [(-half, "D-")],
                ("D+", "D+"): [(1, "P+")],
                ("D-", "D-"): [(1, "P-")],
            },
        )
    if name == "osp12":
        return SuperLieAlgebra(
            "osp12",
            [("H", "even"), ("X+", "even"), ("X-", "even"),
             ("V+", "odd"), ("V-", "odd")],
            {
                ("H", "X+"): [(1, "X+")],
                ("H", "X-"): [(-1, "X-")],
                ("H", "V+"): [(half, "V+")],
                ("H", "V-"): [(-half, "V-")],
                ("X+", "X-"): [(2, "H")],
                ("V+", "V-"): [(-half, "H")],
                ("V+", "V+"): [(half, "X+")],
                ("V-", "V-"): [(-half, "X-")],
                ("X+", "V-"): [(1, "V+")],
                ("X-", "V+"): [(1, "V-")],
            },
        )
    raise KeyError(f"unknown builtin algebra {name!r}")


class TestBuiltins:
    def test_cached_and_unvalidated(self, monkeypatch):
        # one object per name, read from its file without a validate call
        calls = []
        validate = SuperLieAlgebra.validate
        monkeypatch.setattr(SuperLieAlgebra, "validate",
                            lambda self: calls.append(self) or validate(self))
        for name in ("osp12", "super_e2"):
            monkeypatch.delitem(algebra_module._BUILTIN_CACHE, name,
                                raising=False)
            first = builtin(name)
            assert builtin(name) is first and first.name == name
        assert calls == []

    @pytest.mark.parametrize("name", ["claims", "../osp12", "osp12.alg", ""])
    def test_unknown_name_opens_no_file(self, name, monkeypatch):
        def no_file(_):
            raise AssertionError("a data file was opened")

        monkeypatch.setattr(algebra_module, "data_path", no_file)
        with pytest.raises(KeyError) as info:
            builtin(name)
        assert info.value.args == (f"unknown builtin algebra {name!r}",)

    def test_both_validate(self, e2, osp):
        assert e2.validate().passed
        assert osp.validate().passed

    def test_basis_orders(self, e2, osp):
        assert e2.basis == ("H", "P+", "P-", "D+", "D-")
        assert osp.basis == ("H", "X+", "X-", "V+", "V-")
        assert e2.grades == (0, 0, 0, 1, 1)

    def test_e2_table(self, e2):
        # [H, P+] = P+, [P+, P-] = 0, {D+, D+} = P+
        i, c = e2.index, dense_table(e2)
        assert c[i["H"]][i["P+"]][i["P+"]] == 1
        assert all(v.is_zero() for v in c[i["P+"]][i["P-"]])
        assert c[i["D+"]][i["D+"]][i["P+"]] == 1

    def test_osp_table(self, osp):
        i, c = osp.index, dense_table(osp)
        assert c[i["X+"]][i["X-"]][i["H"]] == 2
        assert c[i["X+"]][i["V-"]][i["V+"]] == 1
        assert c[i["V+"]][i["V-"]][i["H"]] == Fraction(-1, 2)

    def test_antisymmetric_completion(self, osp):
        i, c = osp.index, dense_table(osp)
        # odd-odd pairs are symmetric: {V-, V+} = {V+, V-}
        assert c[i["V-"]][i["V+"]][i["H"]] == Fraction(-1, 2)
        # even-even antisymmetric: [X-, X+] = -2H
        assert c[i["X-"]][i["X+"]][i["H"]] == -2


class TestBracket:
    def test_h_pplus(self, e2):
        out = bracket(e2, e2.element("H"), e2.element("P+"))
        assert out == e2.element("P+")

    def test_odd_odd(self, osp):
        out = bracket(osp, osp.element("V+"), osp.element("V-"))
        assert out.coeffs[(0,)] == Fraction(-1, 2)

    def test_koszul_rule_with_odd_coefficients(self, e2):
        # [xi D+, eta D-] = -xi eta {D+, D-} = 0
        ring = Ring([("xi", "grassmann"), ("eta", "grassmann")])
        x = e2.element("D+", ring=ring, coeff=ring.var("xi"))
        y = e2.element("D-", ring=ring, coeff=ring.var("eta"))
        assert bracket(e2, x, y).is_zero()
        # and [xi D+, eta D+] = -xi eta {D+, D+} = -xi*eta P+
        y2 = e2.element("D+", ring=ring, coeff=ring.var("eta"))
        out = bracket(e2, x, y2)
        assert out.coeffs[(1,)] == -(ring.var("xi") * ring.var("eta"))

    def test_grading_respected(self, osp):
        for i in range(osp.dim):
            for j in range(osp.dim):
                out = bracket(osp, osp.element(osp.basis[i]),
                              osp.element(osp.basis[j]))
                for (k,), v in out.coeffs.items():
                    assert (osp.grades[i] + osp.grades[j]) % 2 == osp.grades[k]

    def test_even_square_vanishes(self, osp):
        for name in ("H", "X+", "X-"):
            assert bracket(osp, osp.element(name), osp.element(name)).is_zero()


class TestValidation:
    def test_mutated_table_fails_jacobi(self):
        # {D+,D+} = P- instead of P+ breaks the (H, D+, D+) Jacobi triple
        half = Fraction(1, 2)
        mutated = SuperLieAlgebra(
            "mutated",
            [("H", "even"), ("P+", "even"), ("P-", "even"),
             ("D+", "odd"), ("D-", "odd")],
            {
                ("H", "P+"): [(1, "P+")],
                ("H", "P-"): [(-1, "P-")],
                ("H", "D+"): [(half, "D+")],
                ("H", "D-"): [(-half, "D-")],
                ("D+", "D+"): [(1, "P-")],
                ("D-", "D-"): [(1, "P-")],
            },
        )
        report = mutated.validate()
        assert not report.passed
        assert report.failures["jacobi"]
        assert any(set(labels[:3]) <= {"H", "D+"}
                   for labels, _ in report.failures["jacobi"])
        assert all(isinstance(res, SuperScalar)
                   for res in report.residuals("jacobi"))

    def test_abelian_validates(self):
        abelian = SuperLieAlgebra(
            "abelian", [("X", "even"), ("T", "odd")], {})
        assert abelian.validate().passed


class TestFileFormat:
    def test_bundled_files_match_builtins(self, e2, osp):
        for name, parsed in (("super_e2", e2), ("osp12", osp)):
            ref = _frozen_build_builtin(name)
            assert parsed.basis == ref.basis
            assert parsed.grades == ref.grades
            got, want = dense_table(parsed), dense_table(ref)
            n = ref.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert got[i][j][k] == want[i][j][k]

    def test_round_trip(self, osp):
        text = render_algebra_text(osp)
        again = parse_algebra_text(text)
        assert render_algebra_text(again) == text

    def test_random_solvable_round_trip(self):
        import random
        rng = random.Random(7)
        for _ in range(5):
            weights = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            algebra = SuperLieAlgebra(
                "solvable",
                [("H", "even"), ("X", "even"), ("Y", "even"), ("Q", "odd")],
                {
                    ("H", "X"): [(weights[0], "X")],
                    ("H", "Y"): [(weights[1], "Y")],
                    ("H", "Q"): [(weights[2], "Q")],
                },
            )
            assert algebra.validate().passed
            text = render_algebra_text(algebra)
            assert render_algebra_text(parse_algebra_text(text)) == text

    def test_duplicate_basis_rejected(self):
        bad = """\
[algebra] name = bad
basis = H:even H:odd
[brackets]
"""
        with pytest.raises(ValueError):
            parse_algebra_text(bad)

    def test_axiom_failure_aborts(self):
        # [H,X] = X, [H,Y] = Y, [X,Y] = H violates the Jacobi identity
        bad = """\
[algebra] name = bad
basis = H:even X:even Y:even
[brackets]
H X = 1 X
H Y = 1 Y
X Y = 1 H
"""
        with pytest.raises(AlgebraError):
            parse_algebra_text(bad)

    def test_pair_order_enforced(self):
        bad = """\
[algebra] name = bad
basis = H:even X:even
[brackets]
X H = 1 X
"""
        with pytest.raises(ValueError):
            parse_algebra_text(bad)


# -- frozen dense references -------------------------------------------------
#
# The constructor fill and the validator as they ran over a
# dense n x n x n table before structure constants were stored sparsely.  The
# sparse store must give the same table and nonzero brackets, and `validate`
# the same three reports, entry for entry and in the same order.

def dense_fill(algebra, brackets):
    n = algebra.dim
    zero = algebra.ring.zero()
    c = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (iname, jname), rhs in brackets.items():
        i, j = algebra.index[iname], algebra.index[jname]
        for coeff, kname in rhs:
            k = algebra.index[kname]
            value = algebra.ring.coerce(coeff)
            c[i][j][k] = c[i][j][k] + value
            if i != j:
                zij = algebra.z(i, j)
                c[j][i][k] = c[j][i][k] - zij * value
    return c


def dense_validate(algebra, c):
    """(grading, antisymmetry, jacobi) failure lists of table c."""
    grading, antisymmetry, jacobi = [], [], []
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = c[i][j][k]
                if v.is_zero():
                    continue
                if (algebra.grades[i] + algebra.grades[j]) % 2 != algebra.grades[k]:
                    grading.append(
                        (algebra.basis[i], algebra.basis[j], algebra.basis[k], v.render()))
    for i in range(n):
        for j in range(i, n):
            zij = algebra.z(i, j)
            for k in range(n):
                res = c[i][j][k] + zij * c[j][i][k]
                if not res.is_zero():
                    antisymmetry.append(
                        (algebra.basis[i], algebra.basis[j], algebra.basis[k], res.render()))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for m in range(n):
                    res = algebra.ring.zero()
                    for k in range(n):
                        res = res + c[i][j][k] * c[k][l][m] * algebra.z(i, l)
                        res = res + c[j][l][k] * c[k][i][m] * algebra.z(j, i)
                        res = res + c[l][i][k] * c[k][j][m] * algebra.z(l, j)
                    if not res.is_zero():
                        jacobi.append(
                            (algebra.basis[i], algebra.basis[j], algebra.basis[l],
                             algebra.basis[m], res.render()))
    return grading, antisymmetry, jacobi


def assert_store_matches_dense(algebra, c):
    assert dense_table(algebra) == c
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            assert list(algebra.bracket_indices(i, j)) == [
                (k, v) for k, v in enumerate(c[i][j]) if not v.is_zero()]
    report = algebra.validate()
    assert tuple([(*labels, res.render())
                  for labels, res in report.failures[axiom]]
                 for axiom in ("grading", "antisymmetry", "jacobi")) == \
        dense_validate(algebra, c)


def alg_file_brackets(name):
    """The [brackets] section of a bundled .alg file, read line by line."""
    brackets = {}
    text = data_path(f"{name}.alg").read_text().split("[brackets]", 1)[1]
    for line in text.splitlines():
        lhs, _, rhs = line.split("#", 1)[0].partition("=")
        tokens = rhs.split()
        if tokens:
            brackets[tuple(lhs.split())] = [
                (Fraction(tokens[p]), tokens[p + 1]) for p in range(0, len(tokens), 2)]
    return brackets


@st.composite
def constructor_inputs(draw):
    """A basis of up to four elements and brackets on any ordered pairs,
    diagonal ones included, so that grading, antisymmetry and Jacobi fail."""
    grades = draw(st.lists(st.sampled_from(["even", "odd"]), min_size=1, max_size=4))
    names = [f"g{i}" for i in range(len(grades))]
    terms = st.lists(st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.sampled_from(names)), min_size=1, max_size=3)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    return list(zip(names, grades)), draw(st.dictionaries(pairs, terms, max_size=6))


class TestSparseStoreMatchesDense:
    @pytest.mark.parametrize("name", ["super_e2", "osp12"])
    def test_builtins(self, name):
        algebra = builtin(name)
        assert_store_matches_dense(algebra, dense_fill(algebra, alg_file_brackets(name)))

    @settings(max_examples=40, deadline=None)
    @given(constructor_inputs())
    @example(([("H", "even"), ("X", "even")], {("H", "H"): [(1, "X")]}))
    def test_constructor_algebras(self, drawn):
        basis, brackets = drawn
        algebra = SuperLieAlgebra("drawn", basis, brackets)
        assert_store_matches_dense(algebra, dense_fill(algebra, brackets))

    @pytest.mark.parametrize("label", NAMED)
    def test_named_duals(self, label):
        # the g* block of the double: constants over each family's ring
        d = _named_cobracket(label)
        block = dual_block(d.algebra, d)
        assert_store_matches_dense(
            block, dense_fill(block, _dual_brackets(d.algebra, d)))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["osp12", "super_e2"]).flatmap(
        lambda name: st.tuples(st.just(name), st.lists(st.tuples(
            st.tuples(*[st.integers(0, 4)] * 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            max_size=12))))
    def test_random_duals(self, drawn):
        name, entries = drawn
        algebra = builtin(name)
        ring = algebra.ring
        coeffs = [{} for _ in range(algebra.dim)]
        for (i, k, l), value in entries:
            coeffs[i][(k, l)] = coeffs[i].get((k, l), ring.zero()) + value
        raw = Cobracket(algebra, ring,
                        [GradedTensor(algebra, 2, c, ring) for c in coeffs])
        for d in (Cobracket.from_entries(algebra, ring, entries), raw):
            block = dual_block(algebra, d)
            assert_store_matches_dense(
                block, dense_fill(block, _dual_brackets(algebra, d)))
