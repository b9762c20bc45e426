"""Tests for graded tensors, wedge, adjoint action, and the Schouten bracket."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import superbialg
from superbialg.algebra import builtin, bracket
from superbialg.scalars import Ring
from superbialg.tensors import (GradedTensor, RMatrix, wedge, ad_action,
                                schouten, is_ad_invariant, parse_rmatrix,
                                render_wedge_form)
from superbialg.bialgebra import family


@pytest.fixture(scope="module")
def e2():
    return builtin("super_e2")


@pytest.fixture(scope="module")
def osp():
    return builtin("osp12")


class TestWedge:
    def test_even_even(self, e2):
        t = wedge(e2, "H", "P+")
        assert t.coeffs[(0, 1)] == 1
        assert t.coeffs[(1, 0)] == -1

    def test_odd_diagonal_symmetrizes(self, osp):
        t = wedge(osp, "V+", "V+")
        assert t.coeffs[(3, 3)] == 2

    def test_even_diagonal_vanishes(self, e2):
        assert wedge(e2, "P+", "P+").is_zero()

    def test_z_antisymmetry_on_all_pairs(self, osp):
        for i in range(osp.dim):
            for j in range(osp.dim):
                lhs = wedge(osp, i, j)
                zij = osp.z(i, j)
                rhs = wedge(osp, j, i)
                assert (lhs + zij * GradedTensor(osp, 2, rhs.coeffs)).is_zero() \
                    or (lhs.coeffs == {k: -zij * v for k, v in rhs.coeffs.items()})


class TestAdAction:
    def test_h_on_pp(self, e2):
        t = GradedTensor(e2, 2, {(1, 2): e2.ring.one()})  # P+ (x) P-
        assert ad_action(e2, "H", t).is_zero()

    def test_zero(self, e2):
        assert ad_action(e2, "H", GradedTensor.zero(e2, 2)).is_zero()

    def test_xplus_on_h_wedge_xplus(self, osp):
        assert ad_action(osp, "X+", wedge(osp, "H", "X+")).is_zero()

    def test_rank1_rejected(self, e2):
        with pytest.raises(ValueError):
            ad_action(e2, "H", e2.element("P+"))

    def test_derivation_over_tensor(self, osp):
        # ad(g, x (x) y) = [g,x] (x) y + z(g,x) x (x) [g,y] on random pairs
        rng = random.Random(3)
        for _ in range(40):
            g = rng.randrange(osp.dim)
            i = rng.randrange(osp.dim)
            j = rng.randrange(osp.dim)
            t = GradedTensor(osp, 2, {(i, j): osp.ring.one()})
            got = ad_action(osp, g, t)
            expect = GradedTensor.zero(osp, 2)
            for k, cv in osp.bracket_indices(g, i):
                expect = expect + GradedTensor(osp, 2, {(k, j): cv})
            for k, cv in osp.bracket_indices(g, j):
                zgi = osp.z(g, i)
                expect = expect + GradedTensor(osp, 2, {(i, k): zgi * cv})
            assert got == expect


class TestRMatrix:
    def test_grading_constraint(self, e2):
        with pytest.raises(ValueError):
            RMatrix.from_wedges(e2, [(1, "H", "D+")])

    def test_antisymmetry_constraint(self, e2):
        with pytest.raises(ValueError):
            RMatrix(e2, {(0, 1): e2.ring.one()})

    @pytest.mark.parametrize("parametric", [False, True], ids=["Q", "t"])
    def test_antisymmetry_over_q_and_a_parameter(self, e2, parametric):
        # a lone entry, an even mirror of the same sign and an even diagonal
        # entry are refused; an odd diagonal entry is its own mirror
        ring = Ring([("t", "commuting")]) if parametric else e2.ring
        t = ring.var("t") if parametric else ring.scalar(3)
        h, p, d = (e2.index[name] for name in ("H", "P+", "D+"))
        for coeffs in ({(h, p): t}, {(h, p): t, (p, h): t}, {(h, h): t},
                       {(h, p): t, (p, h): -t, (p, p): t}):
            with pytest.raises(ValueError, match="not graded-antisymmetric"):
                RMatrix(e2, coeffs, ring)
        r = RMatrix(e2, {(h, p): t, (p, h): -t, (d, d): t}, ring)
        assert sorted(r.coeffs) == [(h, p), (p, h), (d, d)]

    def test_parse_render(self, osp):
        r = parse_rmatrix("1 H^X+ - 1 V+^V+", osp)
        assert r == family("osp-r2")
        assert parse_rmatrix(render_wedge_form(r), osp) == r

    def test_parse_with_coefficient(self, e2):
        r = parse_rmatrix("1 H^P+ - 1/2 D+^D+", e2)
        assert r == family("e2-r-v")

    def test_parse_with_prefix(self, osp):
        assert parse_rmatrix("r = 1 H^X+", osp) == family("osp-r1")


class TestSchouten:
    def test_zero(self, e2):
        z = RMatrix(e2, {})
        assert schouten(e2, z).is_zero()

    def test_e2_rii_cybe(self, e2):
        assert schouten(e2, family("e2-r-ii")).is_zero()

    def test_osp_r1_cybe(self, osp):
        assert schouten(osp, family("osp-r1")).is_zero()

    def test_e2_rv_cybe(self, e2):
        assert schouten(e2, family("e2-r-v")).is_zero()

    def test_e2_riii_not_cybe_but_invariant(self, e2):
        s = schouten(e2, family("e2-r-iii"))
        assert not s.is_zero()
        assert is_ad_invariant(e2, s)

    def test_osp_r3_not_cybe_but_invariant(self, osp):
        s = schouten(osp, family("osp-r3", t=1))
        assert not s.is_zero()
        assert is_ad_invariant(osp, s)

    def test_schouten_obstruction_is_the_orbit_invariant(self, osp):
        # [[r_a, r_a]] vanishes exactly on the degenerate orbit x^2 = yz:
        # parameterize (x, y, z) = (p q, p^2, q^2) and check symbolically.
        r = family("osp-r-a")
        ring = r.ring
        s = schouten(osp, r)
        bindings = {"x": ring.parse("x*y"), "y": ring.parse("x^2"),
                    "z": ring.parse("y^2")}
        for idx, v in s.coeffs.items():
            assert v.substitute(bindings).is_zero()
        # and it does not vanish identically
        assert not s.is_zero()

    def test_odd_r_rejected(self, e2):
        with pytest.raises(ValueError):
            schouten(e2, GradedTensor(e2, 2, {(0, 3): e2.ring.one()}))


# ---------------------------------------------------------------------------
# Independent oracle: the Schouten bracket in the defining representation
# ---------------------------------------------------------------------------

F = Fraction

# osp(1|2) on V = C^{2|1}, the third basis vector odd.  Matrices are dicts
# {(row, col): Fraction}; the elementary unit E_ij has parity p(i) + p(j).
V_PARITY = (0, 0, 1)
GRADE = {"H": 0, "X+": 0, "X-": 0, "V+": 1, "V-": 1}
RHO = {
    "H": {(0, 0): F(1, 2), (1, 1): F(-1, 2)},
    "X+": {(0, 1): F(1)},
    "X-": {(1, 0): F(1)},
    "V+": {(0, 2): F(1, 2), (2, 1): F(1, 2)},
    "V-": {(1, 2): F(1, 2), (2, 0): F(-1, 2)},
}
IDENTITY = {(i, i): F(1) for i in range(3)}

# r-matrices as (coefficient, x, y) wedge terms, named as in the package
ORACLE_RMATRICES = {
    "r1": [(F(1), "H", "X+")],
    "r2": [(F(1), "H", "X+"), (F(-1), "V+", "V+")],
    "r3(t=1)": [(F(1), "H", "X+"), (F(-1), "V+", "V+"),
                (F(1), "H", "X-"), (F(-1), "V-", "V-")],
    "H^X+ - 1/2 V+^V+": [(F(1), "H", "X+"), (F(-1, 2), "V+", "V+")],
}


def _unit_parity(u):
    return (V_PARITY[u[0]] + V_PARITY[u[1]]) % 2


def _add_into(out, key, value):
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def _matmul(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                _add_into(out, (i, l), x * y)
    return out


def _supercommutator(x, y):
    """[rho(x), rho(y)] = AB - (-1)^{|x||y|} BA on generator names."""
    sign = -1 if GRADE[x] and GRADE[y] else 1
    out = _matmul(RHO[x], RHO[y])
    for key, value in _matmul(RHO[y], RHO[x]).items():
        _add_into(out, key, -sign * value)
    return out


def _read_osp12_brackets():
    """The bracket table of data/osp12.alg as {(x, y): {name: Fraction}}."""
    path = Path(superbialg.__file__).parent / "data" / "osp12.alg"
    table = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" not in line or line.startswith(("[", "basis")):
            continue
        lhs, rhs = line.split("=", 1)
        terms, sign, coeff = {}, 1, None
        for token in rhs.split():
            if token in ("+", "-"):
                sign = -1 if token == "-" else 1
            elif coeff is None:
                coeff = sign * F(token)
            else:
                terms[token] = coeff
                sign, coeff = 1, None
        table[tuple(lhs.split())] = terms
    return table


def _cube_mul(a, b):
    """Product in End(V)^(x)3: Koszul sign for every right factor that
    moves left past a factor of the left operand."""
    out = {}
    for (u1, u2, u3), x in a.items():
        for (w1, w2, w3), y in b.items():
            if u1[1] != w1[0] or u2[1] != w2[0] or u3[1] != w3[0]:
                continue
            crossings = (_unit_parity(w1) * (_unit_parity(u2) + _unit_parity(u3))
                         + _unit_parity(w2) * _unit_parity(u3))
            key = ((u1[0], w1[1]), (u2[0], w2[1]), (u3[0], w3[1]))
            _add_into(out, key, (-1) ** crossings * x * y)
    return out


def _expand_wedges(wedges):
    """x ^ y = x (x) y - (-1)^{|x||y|} y (x) x, with no 1/2 (README rule)."""
    terms = []
    for c, x, y in wedges:
        terms.append((c, x, y))
        terms.append((-(-1) ** (GRADE[x] * GRADE[y]) * c, y, x))
    return terms


def _leg(terms, slots):
    """r_{pq}: the rank-2 terms placed in `slots`, the identity elsewhere."""
    out = {}
    for c, x, y in terms:
        legs = [IDENTITY, IDENTITY, IDENTITY]
        legs[slots[0]], legs[slots[1]] = RHO[x], RHO[y]
        for u1, a1 in legs[0].items():
            for u2, a2 in legs[1].items():
                for u3, a3 in legs[2].items():
                    _add_into(out, (u1, u2, u3), c * a1 * a2 * a3)
    return out


def oracle_schouten(wedges):
    """[r12,r13] + [r12,r23] + [r13,r23] evaluated in End(V)^(x)3."""
    terms = _expand_wedges(wedges)
    assert all(GRADE[x] == GRADE[y] for _, x, y in terms)  # r is even
    r12, r13, r23 = (_leg(terms, s) for s in ((0, 1), (0, 2), (1, 2)))
    out = {}
    for a, b in ((r12, r13), (r12, r23), (r13, r23)):
        # r is even, so each super-bracket is a plain commutator
        for key, value in _cube_mul(a, b).items():
            _add_into(out, key, value)
        for key, value in _cube_mul(b, a).items():
            _add_into(out, key, -value)
    return out


class TestRepresentationOracle:
    """Yang-Baxter status of the osp(1|2) normal forms from 3x3 matrices.

    The oracle shares no arithmetic with superbialg: plain Fraction
    matrices for the defining representation rho on C^{2|1}, graded tensor
    products of matrix units with Koszul signs, and the wedge expanded by
    the README rule.  rho is faithful (its five matrices have disjoint
    nonzero supports), so rho(x)rho(x)rho is injective on g(x)g(x)g; since
    the classical Yang-Baxter expression of an even r lies in g(x)g(x)g, a
    zero here is a proof that [[r,r]] = 0, not a spot check.
    """

    def test_matrices_satisfy_the_osp12_brackets(self):
        table = _read_osp12_brackets()
        assert len(table) == 10
        names = list(GRADE)
        for i, x in enumerate(names):
            for y in names[i:]:
                expect = {}
                for name, c in table.get((x, y), {}).items():
                    for key, value in RHO[name].items():
                        _add_into(expect, key, c * value)
                assert _supercommutator(x, y) == expect, (x, y)

    def test_representation_is_faithful(self):
        supports = [set(m) for m in RHO.values()]
        assert all(supports)
        assert sum(map(len, supports)) == len(set().union(*supports))
        for name, m in RHO.items():
            assert all(_unit_parity(u) == GRADE[name] for u in m)

    @pytest.mark.parametrize("name, fid, params", [
        ("r1", "osp-r1", {}), ("r2", "osp-r2", {}), ("r3(t=1)", "osp-r3", {"t": 1})])
    def test_wedges_are_the_named_families(self, osp, name, fid, params):
        assert RMatrix.from_wedges(osp, ORACLE_RMATRICES[name]) \
            == family(fid, **params)

    @pytest.mark.parametrize("name", ["r1", "r2"])
    def test_triangular(self, name):
        assert oracle_schouten(ORACLE_RMATRICES[name]) == {}

    @pytest.mark.parametrize("name", ["r3(t=1)", "H^X+ - 1/2 V+^V+"])
    def test_not_triangular(self, name):
        assert oracle_schouten(ORACLE_RMATRICES[name]) != {}
