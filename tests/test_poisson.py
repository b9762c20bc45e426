"""Tests for coordinate rings, fields, coproducts, and Poisson brackets."""

import functools
import hashlib
import itertools
import re
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superbialg import algebra, poisson
from superbialg.poisson import (group, named_structure, check_axioms,
                                render_table, table_cell, format_table,
                                PoissonStructure,
                                coboundary_structure,
                                super_e2_group, osp_group, CoordinateRing)
from superbialg.bialgebra import coboundary_delta, family
from superbialg.algebra import SuperLieAlgebra, builtin, data_path
from superbialg.claims import constants_from_group, run_claims
from superbialg.scalars import EVEN, ODD, Ring, SuperScalar
from superbialg.cocycles import basis_r_matrices
from superbialg.tensors import (GradedTensor, RMatrix, parse_rmatrix,
                                parse_wedge_sum, render_wedge_form)
from test_algebra import dense_table


# the published structure ids of each group, in table order
STRUCTURE_IDS = {"osp": ["1", "2", "3"],
                 "super-e2": ["i", "ii", "iii", "iv", "v", "vi"]}

# The hand-written field tables the derivation replaced, kept verbatim as
# reference data: "rl" marks an even field, the same on both sides.  A
# right-hand ("r") table is that of the left field times the parity sign
# (-1)^{|D|(|x|+1)} on each generator x.
E2_FIELD_TABLES = {
    ("H", "Y", "rl"): (EVEN, {"a": "-a", "b": "b", "s": "1",
                              "xi": "-1/2*xi", "eta": "1/2*eta"}),
    ("H", "X", "rl"): (EVEN, {"s": "1"}),
    ("P+", "Y", "rl"): (EVEN, {"a": "1"}),
    ("P+", "X", "rl"): (EVEN, {"a": "E^-2"}),
    ("P-", "Y", "rl"): (EVEN, {"b": "1"}),
    ("P-", "X", "rl"): (EVEN, {"b": "E^2"}),
    ("D-", "Y", "r"): (ODD, {"b": "1/2*eta", "eta": "1"}),
    ("D-", "X", "r"): (ODD, {"b": "-1/2*E*eta", "eta": "E"}),
    ("D-", "Y", "l"): (ODD, {"b": "-1/2*eta", "eta": "1"}),
    ("D-", "X", "l"): (ODD, {"b": "1/2*E*eta", "eta": "E"}),
    ("D+", "Y", "r"): (ODD, {"a": "1/2*xi", "xi": "1"}),
    ("D+", "X", "r"): (ODD, {"a": "-1/2*E^-1*xi", "xi": "E^-1"}),
    ("D+", "Y", "l"): (ODD, {"a": "-1/2*xi", "xi": "1"}),
    ("D+", "X", "l"): (ODD, {"a": "1/2*E^-1*xi", "xi": "E^-1"}),
}

# gamma = c*alpha - a*delta, beta = d*alpha - b*delta, e = 1 + alpha*delta
OSP_FIELD_TABLES = {
    ("H", "Y", "rl"): (EVEN, {"a": "1/2*a", "b": "-1/2*b",
                              "c": "1/2*c", "d": "-1/2*d"}),
    ("H", "X", "rl"): (EVEN, {"a": "1/2*a", "alpha": "1/2*alpha",
                              "b": "1/2*b", "c": "-1/2*c",
                              "delta": "-1/2*delta", "d": "-1/2*d"}),
    ("X+", "Y", "rl"): (EVEN, {"b": "a", "d": "c"}),
    ("X+", "X", "rl"): (EVEN, {"a": "c", "alpha": "delta", "b": "d"}),
    ("X-", "Y", "rl"): (EVEN, {"a": "b", "c": "d"}),
    ("X-", "X", "rl"): (EVEN, {"c": "a", "delta": "alpha", "d": "b"}),
    ("V+", "Y", "r"): (ODD, {"alpha": "1/2*a", "b": "1/2*alpha",
                             "delta": "1/2*c", "d": "1/2*delta"}),
    ("V+", "X", "r"): (ODD, {"a": "-1/2*c*alpha+1/2*a*delta",
                             "alpha": "1/2+1/2*alpha*delta",
                             "b": "-1/2*d*alpha+1/2*b*delta"}),
    ("V+", "Y", "l"): (ODD, {"alpha": "1/2*a", "b": "-1/2*alpha",
                             "delta": "1/2*c", "d": "-1/2*delta"}),
    ("V+", "X", "l"): (ODD, {"a": "1/2*c*alpha-1/2*a*delta",
                             "alpha": "1/2+1/2*alpha*delta",
                             "b": "1/2*d*alpha-1/2*b*delta"}),
    ("V-", "Y", "r"): (ODD, {"a": "-1/2*alpha", "alpha": "1/2*b",
                             "c": "-1/2*delta", "delta": "1/2*d"}),
    ("V-", "X", "r"): (ODD, {"c": "-1/2*c*alpha+1/2*a*delta",
                             "delta": "1/2+1/2*alpha*delta",
                             "d": "-1/2*d*alpha+1/2*b*delta"}),
    ("V-", "Y", "l"): (ODD, {"a": "1/2*alpha", "alpha": "1/2*b",
                             "c": "1/2*delta", "delta": "1/2*d"}),
    ("V-", "X", "l"): (ODD, {"c": "1/2*c*alpha-1/2*a*delta",
                             "delta": "1/2+1/2*alpha*delta",
                             "d": "1/2*d*alpha-1/2*b*delta"}),
}


# The coproduct strings and identity tables that the supermatrix derivation
# replaced, kept verbatim as reference data.
FROZEN_COPRODUCT_RULES = {
    "super-e2": {
        "c": "c",
        "s": "s1+s2",
        "a": "a2+a1*E2^-2+1/2*xi1*xi2*E2^-1",
        "b": "b2+b1*E2^2+1/2*eta1*eta2*E2",
        "E": "E1*E2",
        "xi": "xi2+xi1*E2^-1",
        "eta": "eta2+eta1*E2",
    },
    "osp": {
        "a": "a1*a2+alpha1*c2*alpha2-alpha1*a2*delta2+b1*c2",
        "alpha": "a1*alpha2+alpha1+alpha1*alpha2*delta2+b1*delta2",
        "b": "a1*b2+alpha1*d2*alpha2-alpha1*b2*delta2+b1*d2",
        "c": "c1*a2+delta1*c2*alpha2-delta1*a2*delta2+d1*c2",
        "delta": "c1*alpha2+delta1+delta1*alpha2*delta2+d1*delta2",
        "d": "c1*b2+delta1*d2*alpha2-delta1*b2*delta2+d1*d2",
    },
}
FROZEN_IDENTITY = {
    "super-e2": {"s": 0, "a": 0, "b": 0, "xi": 0, "eta": 0, "E": 1},
    "osp": {"a": 1, "b": 0, "c": 0, "d": 1, "alpha": 0, "delta": 0},
}

# The defining supermatrices, written out apart from `poisson`.  Derived
# entries: gamma, beta, e on OSp; E^-1, E, E^-2, E^2, 1/2 xi E^-1 and
# 1/2 eta E on super-E(2).
SUPERMATRICES = {
    "osp": [(("a", "b", "alpha"), ("c", "d", "delta"),
             ("c*alpha-a*delta", "d*alpha-b*delta", "1+alpha*delta"))],
    "super-e2": [
        (("1", "s"), ("0", "1")),
        (("1", "xi", "a"), ("0", "E^-1", "1/2*xi*E^-1"), ("0", "0", "E^-2")),
        (("1", "eta", "b"), ("0", "E", "1/2*eta*E"), ("0", "0", "E^2")),
    ],
}


# The two-sided fields every group held before each field became a left
# derivation, kept verbatim as the reference for right-hand images:
# `_FrozenField` is the previous `VectorField` with its `side`,
# `_frozen_monomial_image` the previous `_monomial_image` (the right Leibniz
# rule and the Laurent branch included) and `_frozen_two_sided` the previous
# `_derive_fields` with its side loop.  None of them reads the parity sign
# D^(r) m = (-1)^{|D|(|m|+1)} D^(l) m that replaced the right rule.

class _FrozenField:
    def __init__(self, group, label, parity, table, side="l"):
        self.group = group
        self.label = label
        self.parity = parity
        self.side = side
        self.table = table  # generator name -> SuperScalar
        self.images = {}  # monomial key (exps, odds) -> its image

    def on_generator(self, name):
        return self.table.get(name, self.group.zero)

    def image(self, key):
        if key not in self.images:
            self.images[key] = _frozen_monomial_image(self.group, self, key)
        return self.images[key]

    def __call__(self, f):
        ring = self.group.ring
        f = ring.coerce(f)
        return ring._combination([(c, f._den, self.image(key))
                                  for key, c in f._terms.items()])


def _frozen_monomial_image(self, field, key):
    # For x1^k1 .. xm^km th_1 .. th_n, the factor at an odd slot t picks
    # up (-1)^{|field| * (odd factors crossed)}: those BEFORE t for a
    # left derivative, those AFTER t for a right one.  Even factors sit
    # before every odd factor, so under the right rule they cross all n.
    ring = self.ring
    right = field.side == "r" and field.parity
    exps, odds = key
    products = []
    n_odd = len(odds)
    even_sign = -1 if (right and n_odd % 2) else 1
    for pos, k in enumerate(exps):
        if not k:
            continue
        name = ring.even_names[pos]
        rule = self.laurent_rules.get(name)
        if rule is not None:
            src, factor = rule
            base = field.on_generator(src)
            if not base.is_zero():
                products.append((k * factor * even_sign,
                                 (base, ring.monomial(exps, odds))))
            continue
        value = field.on_generator(name)
        if value.is_zero():
            continue
        reduced = list(exps)
        reduced[pos] = k - 1
        products.append((k * even_sign, (
            ring.monomial(reduced, ()), value,
            ring.monomial(ring._zero_exps, odds))))
    for t, oi in enumerate(odds):
        name = ring.odd_names[oi]
        value = field.on_generator(name)
        if value.is_zero():
            continue
        crossed = (n_odd - 1 - t) if right else t
        sign = -1 if (field.parity and crossed % 2) else 1
        products.append((sign, (
            ring.monomial(exps, ()),
            ring.monomial(ring._zero_exps, odds[:t]), value,
            ring.monomial(ring._zero_exps, odds[t + 1:]))))
    return ring.sum_of_products(products)


@functools.lru_cache(maxsize=8)
def _frozen_two_sided(self):
    """{(gen, chirality, side): _FrozenField} of group `self`."""
    # Y_k, X_k of the `poisson` docstring, summed over the pairs (p, q) of
    # Delta(T_ij): entry k kept and entry m differentiated, (k, m) = (p, q)
    # for Y and (q, p) for X.  An even field is derived once for both sides,
    # and the values at e once per tangent: its two sides agree at e.
    ring, entries, parity = self.ring, self.entries, self.parities
    fields = {}
    for gen, odd in zip(self.algebra.basis, self.algebra.grades):
        table = {n: ring.scalar(q) for n, q in self.tangents[gen].items()}
        tangent = _FrozenField(self, f"xi_{gen}", odd, table)
        at_e = [self.at_identity(tangent(x)).as_fraction() for x in entries]
        for side in ("l", "r") if odd else ("l",):
            for chirality, crossing, order in (("Y", "l", 1), ("X", "r", -1)):
                flip, values = odd and side == crossing, {}
                for name in self.coordinates:
                    value = ring.linear_combination(
                        (-at_e[m] if flip and parity[k] else at_e[m],
                         entries[k]) for k, m in
                        (pq[::order] for pq in self.coproduct_pairs[name]))
                    if value._terms:
                        values[name] = value
                for s in (side,) if odd else ("l", "r"):
                    fields[gen, chirality, s] = _FrozenField(
                        self, f"{chirality}_{gen}^({s})", odd, values, s)
    return fields


def _right(fld, f):
    """The right derivative of f for the left field `fld`: the parity sign
    (-1)^{|fld|(|m|+1)} times fld(c*m) on each term c*m of f."""
    ring = fld.group.ring
    total = ring.zero()
    for exps, odds, c in ring.coerce(f).terms():
        image = fld(ring.monomial(exps, odds, c))
        total = total + (-image if fld.parity and not len(odds) % 2 else image)
    return total


@pytest.fixture(scope="module")
def e2():
    return group("super-e2")


@pytest.fixture(scope="module")
def osp():
    return group("osp")


class TestFields:
    @pytest.mark.parametrize("gname,tables", [("super-e2", E2_FIELD_TABLES),
                                              ("osp", OSP_FIELD_TABLES)])
    def test_derived_fields_equal_frozen_tables(self, gname, tables):
        grp = group(gname)
        checked = 0
        for (gen, chirality, side), (parity, table) in tables.items():
            fld = grp.field(gen, chirality)
            assert fld.parity == parity
            for s in ("l", "r") if side == "rl" else (side,):
                for name in grp.coordinates:
                    want = grp.parse(table.get(name, "0"))
                    got = (_right(fld, grp.var(name)) if s == "r"
                           else fld.on_generator(name))
                    assert got == want, (gen, chirality, s, name)
                    checked += 1
        assert checked == 20 * len(grp.coordinates)

    def test_e2_table_entries(self, e2):
        a = e2.var("a")
        assert e2.field("H", "Y")(a) == -a
        assert e2.field("P+", "X")(a) == e2.parse("E^-2")
        assert _right(e2.field("D+", "Y"), a) == e2.parse("1/2*xi")

    def test_osp_table_entries(self, osp):
        alpha = osp.var("alpha")
        assert _right(osp.field("V+", "Y"), alpha) == e2_half(osp, "a")
        assert _right(osp.field("V+", "X"), osp.var("a")) \
            == osp.parse("-1/2*c*alpha+1/2*a*delta")

    def test_chain_rule_on_group_like(self, e2):
        es = e2.parse("E^2")
        assert e2.field("H", "Y")(es) == es
        assert e2.field("H", "X")(e2.parse("E^-2")) == e2.parse("-E^-2")
        assert e2.field("P+", "Y")(es).is_zero()
        # the chain rule sits in the table: field(E) = 1/2 field(s) E
        for fld in map(e2.field, *zip(*_field_keys(e2))):
            assert fld.on_generator("E") == Fraction(1, 2) \
                * fld.on_generator("s") * e2.var("E"), fld

    def test_left_vs_right_derivative_extension(self, e2):
        # both D- fields send eta -> 1 and xi -> 0, so on xi*eta the right
        # rule gives D(xi*eta) = xi D(eta) = xi while the left rule gives
        # (-1)^{|D||xi|} xi D(eta) = -xi; the parity sign of the even xi*eta
        # turns the one into the other
        f = e2.var("xi") * e2.var("eta")
        assert _frozen_two_sided(e2)["D-", "Y", "r"](f) == e2.var("xi")
        assert _right(e2.field("D-", "Y"), f) == e2.var("xi")
        assert e2.field("D-", "Y")(f) == -e2.var("xi")

    def test_graded_leibniz(self, e2):
        # field(fg) = field(f) g + (-1)^{|field||f|} f field(g) for the
        # left-derivative fields
        f = e2.var("a") * e2.var("xi")
        g = e2.var("eta")
        fld = e2.field("D-", "Y")
        lhs = fld(f * g)
        rhs = fld(f) * g - f * fld(g)  # field odd, f odd
        assert lhs == rhs


    @pytest.mark.parametrize("gname,gens", [("super-e2", ["D+", "D-"]),
                                            ("osp", ["V+", "V-"])])
    def test_odd_tangent_values_at_e_agree_on_both_sides(self, gname, gens):
        # the derivation forms them once, from the left field; extended by
        # the frozen right rule, the same tangent differs on the product of
        # the odd coordinates but not at e
        grp = FRESH_GROUPS[gname]()
        theta, phi = (grp.var(n) for n in grp.coordinates if grp.parity_of(n))
        for gen in gens:
            table = {n: grp.ring.scalar(q) for n, q in grp.tangents[gen].items()}
            left = poisson.VectorField(grp, gen, ODD, table)
            right = _FrozenField(grp, gen, ODD, table, "r")
            assert left(theta * phi) == -right(theta * phi) != 0, gen
            for tangent in (left, right):
                assert [grp.at_identity(tangent(x)).as_fraction()
                        for x in grp.entries] == grp.tangent_at_identity(gen)
            assert any(grp.tangent_at_identity(gen)), gen

    @pytest.mark.parametrize("gname,count", [("super-e2", 500), ("osp", 600)])
    def test_fields_represent_the_algebra(self, gname, count):
        assert _representation_defects(group(gname)) == (count, [])

    def test_wrong_tangent_factor_breaks_the_representation(self):
        grp = osp_group()
        grp.tangents["V+"] = {"alpha": 1}  # d/dalpha where 1/2 d/dalpha is right
        checked, defects = _representation_defects(grp)
        assert (checked, len(defects)) == (600, 106)


def _representation_defects(grp):
    """(identities checked, failures) of [F_j, F_k}(x) = sign * sum_l
    c_jk^l F_l(x) over both chiralities, both sides, every ordered generator
    pair and every coordinate x, with [F_j, F_k} = F_j F_k - z(j,k) F_k F_j.
    The sign is +1 for Y and -1 for X; on the left side an odd-odd pair
    takes the opposite sign.  A right-hand field is its left field times
    the parity sign (`_right`).  This ties the `.alg` constants to T and the
    tangents, which otherwise meet only in the published cells."""
    algebra, ring = grp.algebra, grp.ring
    checked, defects = 0, []
    for chirality, sign in (("Y", 1), ("X", -1)):
        for side in ("l", "r"):
            fields = [grp.field(gen, chirality) for gen in algebra.basis]
            if side == "r":
                fields = [functools.partial(_right, fld) for fld in fields]
            for j, k in itertools.product(range(algebra.dim), repeat=2):
                odd_pair = algebra.grades[j] and algebra.grades[k]
                z = -1 if odd_pair else 1
                s = -sign if odd_pair and side == "l" else sign
                for name in grp.coordinates:
                    x = grp.var(name)
                    lhs = fields[j](fields[k](x)) - z * fields[k](fields[j](x))
                    rhs = ring.linear_combination(
                        (s * c.as_fraction(), fields[l](x))
                        for l, c in algebra.constants.get((j, k), ()))
                    checked += 1
                    if lhs != rhs:
                        defects.append((chirality, side, j, k, name))
    return checked, defects


FRESH_GROUPS = {"super-e2": super_e2_group, "osp": osp_group}


def _field_keys(grp):
    return [(gen, chirality) for gen in grp.algebra.basis for chirality in "YX"]


def _homogeneous(grp, parity):
    """Random polynomials of one parity, in normal form in the group ring."""
    ring = grp.ring
    exps = st.tuples(*[
        st.integers(-2 if ring.kind(name) == "laurent" else 0, 2)
        for name in ring.even_names])
    odds = st.sampled_from([o for o in [(), (0,), (1,), (0, 1)]
                            if len(o) % 2 == parity])
    term = st.tuples(exps, odds, st.integers(-3, 3))

    def build(terms):
        total = ring.zero()
        for e, o, c in terms:
            total = total + ring.monomial(e, o, c)
        return total * ring.one()  # reduce modulo the group relation

    return st.lists(term, max_size=3).map(build)


def _pair(gname):
    grp = group(gname)
    return st.tuples(st.sampled_from([EVEN, ODD]),
                     st.sampled_from([EVEN, ODD])).flatmap(
        lambda p: st.tuples(st.just(p), _homogeneous(grp, p[0]),
                            _homogeneous(grp, p[1])))


class TestFieldImages:
    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_graded_leibniz_every_field(self, gname):
        # left: D(fg) = D(f) g + (-1)^{|D||f|} f D(g)
        # right, of the parity-signed images: D(fg) = (-1)^{|D||g|} D(f) g
        # + f D(g)
        grp = group(gname)
        fields = [grp.field(*key) for key in _field_keys(grp)]
        assert len(fields) == 10 == len(set(map(id, grp._fields.values())))

        @settings(max_examples=40, deadline=None)
        @given(_pair(gname))
        def check(drawn):
            (pf, pg), f, g = drawn
            for fld in fields:
                sign = -1 if (fld.parity and pf) else 1
                assert fld(f * g) == fld(f) * g + sign * (f * fld(g)), fld.label
                right = functools.partial(_right, fld)
                sign = -1 if (fld.parity and pg) else 1
                assert right(f * g) == sign * (right(f) * g) + f * right(g), \
                    fld.label

        check()

    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_warm_and_fresh_groups_agree(self, gname):
        warm = group(gname)
        st_id = STRUCTURE_IDS[gname][-1]
        check_axioms(named_structure(gname, st_id))
        keys = _field_keys(warm)

        @settings(max_examples=25, deadline=None)
        @given(st.sampled_from([EVEN, ODD]).flatmap(
            lambda p: _homogeneous(warm, p)))
        def check(f):
            fresh = FRESH_GROUPS[gname]()
            for key in keys:
                assert fresh.field(*key)(f) == warm.field(*key)(f), key

        check()

    def test_memo_holds_one_image_per_monomial(self):
        grp = osp_group()
        fld = grp.field("V+", "X")
        monomials = [grp.parse(t) for t in ("a*b*alpha", "c^2", "d*delta")]
        images = [fld(m) for m in monomials]
        assert len(fld.images) == 3
        f = monomials[0] + 2 * monomials[1] - monomials[2]
        assert fld(f) == images[0] + 2 * images[1] - images[2]
        assert len(fld.images) == 3
        # a caller mutating a result must not reach the memo
        want = images[0].render()
        fld(monomials[0])._terms.clear()
        assert fld(monomials[0]).render() == want != "0"


class TestRightDerivativeIsAParitySign:
    """D^(r) m = (-1)^{|D|(|m|+1)} D^(l) m (DeWitt 1984), the identity
    `CoordinateRing.basis_bracket` reads every right-hand image by: the
    frozen two-sided fields, derived with their side loop and extended by
    the right Leibniz rule, against the left fields of the group."""

    @staticmethod
    def _assert_sign(grp, keys):
        frozen = _frozen_two_sided(grp)
        checked = 0
        for (gen, chirality), fld in grp._fields.items():
            for key in keys:
                left = grp.image(fld, key)
                sign = -1 if fld.parity and not len(key[1]) % 2 else 1
                assert frozen[gen, chirality, "r"].image(key) == sign * left, \
                    (gen, chirality, key)
                assert frozen[gen, chirality, "l"].image(key) == left
                checked += fld.parity
        return checked

    def test_on_every_monomial_the_claims_meet(self):
        assert all(r.status != "fail" for r in run_claims())
        for gname in FRESH_GROUPS:
            grp = group(gname)
            keys = {key for fld in grp._fields.values() for key in fld.images}
            assert len(keys) > 20
            assert self._assert_sign(grp, keys) == 4 * len(keys)

    @pytest.mark.parametrize("gname", sorted(FRESH_GROUPS))
    def test_on_drawn_monomials(self, gname):
        grp = group(gname)

        @settings(max_examples=40, deadline=None)
        @given(st.sampled_from([EVEN, ODD]).flatmap(
            lambda p: _homogeneous(grp, p)))
        def check(f):
            self._assert_sign(grp, list(f._terms))

        check()


def e2_half(grp, name):
    return Fraction(1, 2) * grp.var(name)


class TestCoproduct:
    def test_primitive_s(self, e2):
        ds = e2.coproduct(e2.var("s"))
        assert ds == e2.tensor_sum([(1, e2.var("s"), 1), (1, 1, e2.var("s"))])

    def test_xi_rule(self, e2):
        assert e2.coproduct(e2.var("xi")) == \
            e2.square().parse("xi2+xi1*E2^-1")

    def test_group_like(self, e2):
        tring = e2.square()
        assert e2.coproduct(e2.parse("E^2")) == tring.parse("E1^2*E2^2")

    def test_one(self, e2):
        assert e2.coproduct(e2.ring.one()) == e2.square().one()

    def test_osp_relation_preserved(self, osp):
        tring = osp.square()
        rel = osp.coproduct(osp.var("a")) * osp.coproduct(osp.var("d")) \
            - osp.coproduct(osp.var("b")) * osp.coproduct(osp.var("c")) \
            + osp.coproduct(osp.var("alpha")) * osp.coproduct(osp.var("delta"))
        assert rel == tring.one()

    def test_counit(self, osp):
        ident2 = {"a2": 1, "b2": 0, "c2": 0, "d2": 1, "alpha2": 0, "delta2": 0}
        for gname in osp.coordinates:
            dg = osp.coproduct(osp.var(gname))
            assert dg.substitute(ident2) == osp.tensor_sum([(1, osp.var(gname), 1)])

    @staticmethod
    def _assert_supermatrix_product(grp, blocks):
        # Delta(T_ij) = sum_k T_ik (x) T_kj and T_ij(e) = delta_ij for every
        # entry: on a coordinate this is the derived rule, on a derived
        # entry the ring map Delta is multiplicative on it
        for b, block in enumerate(blocks):
            T = [[grp.parse(text) for text in row] for row in block]
            n = len(T)
            for i in range(n):
                for j in range(n):
                    product = sum((grp.tensor_sum([(1, T[i][k], 1)])
                                   * grp.tensor_sum([(1, 1, T[k][j])])
                                   for k in range(n)), grp.square().zero())
                    assert grp.coproduct(T[i][j]) == product, (b, i, j)
                    assert grp.at_identity(T[i][j]) == \
                        grp.ring.scalar(int(i == j)), (b, i, j)

    def test_osp_coproduct_is_the_supermatrix_product(self, osp):
        self._assert_supermatrix_product(osp, SUPERMATRICES["osp"])

    def test_super_e2_coproduct_is_the_supermatrix_product(self, e2):
        self._assert_supermatrix_product(e2, SUPERMATRICES["super-e2"])

    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_derived_coproduct_and_identity_equal_frozen(self, gname):
        grp = FRESH_GROUPS[gname]()
        assert [list(map(list, block)) for block in grp.matrix] == \
            [list(map(list, block)) for block in SUPERMATRICES[gname]]
        tring = grp.square()
        assert grp._generator_coproducts() == {
            name: tring.parse(rule)
            for name, rule in FROZEN_COPRODUCT_RULES[gname].items()}
        assert grp.identity == FROZEN_IDENTITY[gname]
        # the square's supermatrix diag(T1, T2) gives its identity per slot
        assert _frozen_square(grp).identity == {
            f"{name}{slot}": v for slot in (1, 2)
            for name, v in FROZEN_IDENTITY[gname].items()}

    def test_matrix_names_every_coordinate_once(self, osp):
        (block,) = SUPERMATRICES["osp"]
        missing = [block[:1] + (("c", "1", "delta"),) + block[2:]]
        twice = [block, (("a",),)]
        for matrix in (missing, twice):
            with pytest.raises(ValueError, match="one entry of T"):
                CoordinateRing("bad", osp.ring, osp.coordinates, matrix,
                               osp.tangents, {}, (), "osp12")

    def test_matrix_entries_must_be_homogeneous(self, osp):
        # the product bracket's sign (-1)^{|v||w|} needs a parity per entry
        (block,) = SUPERMATRICES["osp"]
        mixed = [block[:2] + (("c*alpha-a*delta", "d*alpha-b*delta",
                               "1+alpha"),)]
        with pytest.raises(ValueError, match="entry 1\\+alpha of T is not"
                                             " homogeneous"):
            CoordinateRing("bad", osp.ring, osp.coordinates, mixed,
                           osp.tangents, {}, (), "osp12")

    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_counit_both_slots(self, gname):
        grp = group(gname)
        for name in grp.ring.names:
            x = grp.var(name)
            dx = grp.coproduct(x)
            assert _frozen_restrict(grp, dx, 1) == x \
                == _frozen_restrict(grp, dx, 2), name


# The previous coproduct loop, kept verbatim as the reference for the ring
# map; `_frozen_embedder` below is the previous slot embedding.
def _frozen_coproduct(grp, f):
    tring = grp.square()
    rules = grp._generator_coproducts()
    ring = grp.ring
    out = tring.zero()
    for exps, odds, coeff in f.terms():
        acc = tring.scalar(coeff)
        for pos, k in enumerate(exps):
            if not k:
                continue
            name = ring.even_names[pos]
            acc = acc * (rules[name] ** k)
        for oi in odds:
            acc = acc * rules[ring.odd_names[oi]]
        out = out + acc
    return out


# The derivation of the fields through G x G that reading them off T
# replaced, kept as the reference: Y_k = restrict_1 o xi_k(slot 2) o Delta
# and X_k = restrict_2 o xi_k(slot 1) o Delta, with Delta the frozen
# coproduct rules, xi_k lifted to a slot by embedding its table there and
# restrict_s the ring map keeping slot s and sending the other slot to e.

@functools.lru_cache(maxsize=4)
def _frozen_square(grp):
    """G x G as the whole coordinate ring `square()` built before it became
    a bare `Ring`: over `grp.square()`, with T = diag(T1, T2) and the
    Laurent rules (E1 <- s1, E2 <- s2) retagged per slot."""
    def tag(text, slot):
        # each coordinate (a key of `identity`) in `text` gets the slot
        return re.sub(r"[A-Za-z_]\w*", lambda m: f"{m[0]}{slot}"
                      if m[0] in grp.identity else m[0], text)

    slots = (1, 2)
    return CoordinateRing(
        f"{grp.name}^2", grp.square(),
        coordinates=[tag(n, slot) for slot in slots for n in grp.coordinates],
        matrix=[[[tag(x, slot) for x in row] for row in block]
                for slot in slots for block in grp.matrix],
        tangents={},
        laurent_rules={tag(n, slot): (tag(src, slot), q) for slot in slots
                       for n, (src, q) in grp.laurent_rules.items()},
        display=(), algebra_name=grp.algebra.name, params=grp.params)


def _frozen_restrict(grp, x, slot):
    ring = grp.ring
    images = {}
    for name in ring.names:
        if name in grp.params:
            images[name] = ring.var(name)
            continue
        for s in (1, 2):
            images[f"{name}{s}"] = ring.var(name) if s == slot \
                else ring.scalar(grp.identity[name])
    return x.map(ring, images)


def _frozen_lift(grp, field, slot, side="l"):
    embed = _frozen_embedder(grp, slot)
    table = {f"{name}{slot}": embed(value)
             for name, value in field.table.items()}
    return _FrozenField(_frozen_square(grp), f"{field.label}_{slot}",
                        field.parity, table, side)


def _frozen_fields(grp):
    """{(gen, chirality, side): (parity, side, table)} by the square."""
    tring = grp.square()
    delta = {name: tring.parse(rule)
             for name, rule in FROZEN_COPRODUCT_RULES[grp.name].items()}
    fields = {}
    for gen, parity in zip(grp.algebra.basis, grp.algebra.grades):
        table = {name: grp.ring.scalar(q)
                 for name, q in grp.tangents[gen].items()}
        for side in ("l", "r") if parity else ("l",):
            tangent = _FrozenField(grp, f"xi_{gen}", parity, table, side)
            for chirality, slot, kept in (("Y", 2, 1), ("X", 1, 2)):
                lifted = _frozen_lift(grp, tangent, slot, side)
                values = {name: _frozen_restrict(grp, lifted(delta[name]), kept)
                          for name in grp.coordinates}
                values = {name: v for name, v in values.items()
                          if not v.is_zero()}
                for s in (side,) if parity else ("l", "r"):
                    fields[gen, chirality, s] = (parity, s, values)
    return fields


class TestRingMap:
    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_fields_read_off_t_equal_the_frozen_square_derivation(self, gname):
        # the square's right-hand fields, by the right Leibniz rule, are the
        # left fields read off T times the parity sign on each generator
        grp = FRESH_GROUPS[gname]()
        fields = {key: grp.field(*key) for key in _field_keys(grp)}
        assert grp._square is None  # reading the fields off T needs no G x G
        frozen = _frozen_fields(grp)
        assert sorted(frozen) == sorted(
            key + (side,) for key in fields for side in "lr")
        for (gen, chirality, side), (parity, _, table) in frozen.items():
            fld = fields[gen, chirality]
            got = {name: _right(fld, grp.var(name)) if side == "r"
                   else fld.on_generator(name) for name in grp.coordinates}
            assert fld.parity == parity
            assert {n: v for n, v in got.items() if v._terms} == table, \
                (gen, chirality, side)

    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_coproduct_and_embeddings_equal_frozen(self, gname):
        # draws carry negative powers of E on super-E(2) and both Grassmann
        # generators in either parity
        grp = group(gname)
        frozen = {1: _frozen_embedder(grp, 1), 2: _frozen_embedder(grp, 2)}

        @settings(max_examples=25, deadline=None)
        @given(_pair(gname))
        def check(drawn):
            _, f, g = drawn
            x = f + g
            assert grp.coproduct(x) == _frozen_coproduct(grp, x)
            assert grp.tensor_sum([(1, x, 1)]) == frozen[1](x)
            assert grp.tensor_sum([(1, 1, x)]) == frozen[2](x)
            for slot, other in ((1, 2), (2, 1)):
                assert _frozen_restrict(grp, frozen[slot](x), slot) == x
                assert _frozen_restrict(grp, frozen[other](x), slot) == \
                    grp.at_identity(x)

        check()

    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_tensor_is_the_product_of_the_frozen_embeddings(self, gname):
        # the draws carry the shared parameter c and negative powers of E
        # on super-E(2); a fresh group's square is built by `tensor` itself
        warm = group(gname)

        @settings(max_examples=30, deadline=None)
        @given(_pair(gname))
        def check(drawn):
            _, f, g = drawn
            fresh = FRESH_GROUPS[gname]()
            for grp in (fresh, warm):
                got = grp.tensor_sum([(1, f, g)])
                assert got == _frozen_embedder(grp, 1)(f) \
                    * _frozen_embedder(grp, 2)(g)
                assert got.ring is grp.square()

        check()

    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_at_identity_and_coproduct_memos_equal_the_ring_maps(self, gname):
        # each memo is checked filling (fresh group) and read (warm group)
        warm = group(gname)

        @settings(max_examples=30, deadline=None)
        @given(_pair(gname))
        def check(drawn):
            _, f, g = drawn
            x = f + g
            fresh = FRESH_GROUPS[gname]()
            for grp in (fresh, warm, fresh):
                assert grp.at_identity(x) == x.substitute(grp.identity)
                assert grp.coproduct(x) == _frozen_coproduct(grp, x)

        check()

    def test_square_refuses_a_layout_tensor_cannot_read(self, e2, osp):
        # a parameter after a coordinate would make concatenated keys wrong,
        # and one in a leading monomial would make them reducible
        from superbialg.scalars import ReductionError, Ring
        late = Ring([("s", "commuting"), ("c", "commuting"),
                     ("E", "laurent")])
        leading = Ring([("c", "commuting"), ("s", "commuting"),
                        ("E", "laurent")], relations=[("c*s-1", "c*s")])
        for ring, error, message in (
                (late, ValueError, "parameters must lead the evens"),
                (leading, ReductionError, "'c\\*s1' and 'c\\*s2' share")):
            grp = CoordinateRing("bad", ring, ("s",), [[["1", "s"], ["0", "1"]],
                                                       [["E"]]],
                                 {"H": {"s": 1}}, {"E": ("s", Fraction(1, 2))},
                                 (), "super_e2", params=("c",))
            with pytest.raises(error, match=message):
                grp.square()

    def test_tensor_refuses_another_ring(self, e2, osp):
        from superbialg.scalars import RingMismatchError
        with pytest.raises(RingMismatchError):
            e2.tensor_sum([(1, e2.var("a"), osp.var("a"))])

    def test_square_is_a_coordinate_ring(self, e2):
        assert isinstance(e2.square(), Ring) and e2.square() is e2.square()
        sq = _frozen_square(e2)
        assert sq.ring is e2.square()
        assert sq.laurent_rules == {"E1": ("s1", Fraction(1, 2)),
                                    "E2": ("s2", Fraction(1, 2))}
        # a lifted field acts on its slot only, with the same Leibniz rule
        fld = e2.field("D+", "Y")
        lifted = _frozen_lift(e2, fld, 2)
        assert lifted.parity == fld.parity
        x = sq.ring.parse("xi1*a2*E2^-2")
        assert lifted(x) == -e2.tensor_sum([(1, e2.var("xi"), 1)]) \
            * e2.tensor_sum([(1, 1, fld(e2.parse("a*E^-2")))])


class TestBrackets:
    def test_osp2_ab(self):
        st = named_structure("osp", "2")
        assert table_cell(st, "a", "b") == st.group.parse("a^2-1")

    def test_e2_iv_matches_cocycle_table(self):
        st = named_structure("super-e2", "iv")
        grp = st.group
        assert table_cell(st, "a", "es") == grp.parse("-2*a*E^2")
        assert table_cell(st, "xi", "xi") == grp.parse("-2*a")
        assert table_cell(st, "b", "xi") == grp.parse("b*xi")

    def test_even_diagonal_vanishes(self):
        st = named_structure("super-e2", "iii")
        grp = st.group
        assert st.bracket(grp.var("a"), grp.var("a")).is_zero()

    def test_mixed_reduces_to_coboundary_at_c_zero(self):
        st = named_structure("super-e2", "ii")
        pure = coboundary_structure(st.group, family("e2-r-ii"))
        grp = st.group
        for lf, tf in grp.display:
            for lg, tg in grp.display:
                mixed_val = st.bracket(grp.parse(tf), grp.parse(tg))
                assert mixed_val.substitute({"c": 0}) \
                    == pure.bracket(grp.parse(tf), grp.parse(tg))

    def test_phi_must_vanish_at_identity(self, e2):
        with pytest.raises(ValueError):
            PoissonStructure(e2, r=family("e2-r-ii"), phi=parse_wedge_sum(
                "1+s P+^P-", e2.algebra, e2.ring))

    @pytest.mark.parametrize("gname,text", [
        ("super-e2", "xi H^P+"), ("super-e2", "a*E^-2 P+^P- + a H^D+"),
        ("osp", "b X+^V+ + alpha H^X-")])
    def test_phi_must_be_even(self, gname, text):
        # check_axioms reads Leibniz at (f, g, h), g > h, off (f, h, g), which
        # holds for an even bracket only: on xi H^P+ the full sweep finds
        # Leibniz failures at (s, eta, a) and (a, eta, s) but not at their
        # mirrors
        grp = group(gname)
        with pytest.raises(ValueError, match="Phi must be even"):
            PoissonStructure(grp, phi=parse_wedge_sum(text, grp.algebra,
                                                      grp.ring))

    def test_brackets_vanish_at_identity(self):
        for gname in ("osp", "super-e2"):
            for sid in STRUCTURE_IDS[gname]:
                st = named_structure(gname, sid)
                grp = st.group
                for (lf, lg), value in render_table(st):
                    assert grp.vanishes_at_identity(value), (sid, lf, lg)


class TestAxioms:
    @pytest.mark.parametrize("gname,sid", [("osp", s) for s in ("1", "2", "3")]
                             + [("super-e2", s) for s in
                                ("i", "ii", "iii", "iv", "v", "vi")])
    def test_all_axioms(self, gname, sid):
        report = check_axioms(named_structure(gname, sid))
        assert report.passed, report.render()

    def test_zero_structure_trivially_passes(self, e2):
        from superbialg.poisson import PoissonStructure
        zero = PoissonStructure(e2, "zero")
        report = check_axioms(zero)
        assert report.passed

    def test_leibniz_random_triples(self):
        # random degree-2 products on both slots, e2 structure (vi)
        import random
        rng = random.Random(2)
        st = named_structure("super-e2", "vi")
        grp = st.group
        gens = [grp.var(g) for g in grp.coordinates]
        pars = [0, 0, 0, 1, 1]
        for _ in range(25):
            i, j, k = (rng.randrange(5) for _ in range(3))
            f, g, h = gens[i], gens[j], gens[k]
            z = -1 if (pars[i] and pars[j]) else 1
            lhs = st.bracket(f, g * h)
            rhs = st.bracket(f, g) * h + z * (g * st.bracket(f, h))
            assert lhs == rhs


class TestRendering:
    def test_row_counts(self):
        assert len(render_table(named_structure("osp", "1"))) == 17
        assert len(render_table(named_structure("super-e2", "i"))) == 12

    def test_machine_format(self):
        text = format_table(named_structure("super-e2", "i"), fmt="machine")
        assert "{a,b} = c*s" in text

    def test_table_scale(self):
        st = named_structure("osp", "2")
        assert st.display_scale == 2

    @pytest.mark.parametrize("scale", [0.1, 2.0, Decimal("0.1")],
                             ids=["float", "integral-float", "decimal"])
    def test_inexact_display_scale_is_refused(self, scale):
        r = family("osp-r-a", x=1, y=2, z=3)
        with pytest.raises(TypeError, match="exact rationals"):
            coboundary_structure(group("osp"), r, display_scale=scale)

    def test_rational_display_scales(self):
        r = family("osp-r-a", x=1, y=2, z=3)
        for scale, want in ((2, 2), (Fraction(3, 2), Fraction(3, 2)),
                            ("1/2", Fraction(1, 2)), ("4/2", 2)):
            st = coboundary_structure(group("osp"), r, display_scale=scale)
            assert st.display_scale == want
            assert type(st.display_scale) is type(want)

    @pytest.mark.parametrize("scale", [2, Fraction(3, 2), Fraction(1, 2)])
    @pytest.mark.parametrize("gname", ["osp", "super-e2"])
    def test_cells_are_the_scaled_bracket(self, gname, scale):
        # the display paths fold the scale into the bracket's coefficients:
        # every cell equals display_scale * {f, g}, in lowest terms, and
        # costs one combination on a warm group; on super-E(2) the
        # structure carries Phi = c*s P+^P- besides r
        grp = group(gname)
        if gname == "osp":
            structure = coboundary_structure(
                grp, family("osp-r-a", x=1, y=Fraction(-2, 3), z=5),
                display_scale=scale)
        else:
            structure = PoissonStructure(
                grp, "iii", family("e2-r-iii"),
                parse_wedge_sum("c*s P+^P-", grp.algebra, grp.ring),
                display_scale=scale)
        elements = grp.display_elements
        rows = render_table(structure)
        assert sum(not value.is_zero() for _, value in rows) > 5
        for (lf, lg), value in rows:
            want = scale * structure.bracket(elements[lf], elements[lg])
            assert value == want
            assert table_cell(structure, lf, lg) == want
        combination = Ring._combination
        calls = []

        def counted(ring, triples):
            calls.append(ring)
            return combination(ring, triples)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Ring, "_combination", counted)
            table_cell(structure, "a", "b")
        assert len(calls) == 1


class TestSquareUse:
    """G x G is built for the coproduct check alone; the fields and the
    coproduct run through `apply_field` and `coproduct`, the methods the
    bench tracer wraps as its `poisson.field` and `poisson.coproduct`."""

    @pytest.mark.parametrize("gname,fid,params", [
        ("osp", "osp-r-a", {"x": 1, "y": 2, "z": 3}),
        ("super-e2", "e2-r-b", {"a": 2, "b": Fraction(1, 3), "f": -1})])
    def test_format_table_leaves_the_square_unbuilt(self, gname, fid, params):
        grp = FRESH_GROUPS[gname]()
        format_table(coboundary_structure(grp, family(fid, **params)))
        assert grp._fields is not None and grp._square is None

    def test_fields_and_coproducts_go_through_their_methods(self, monkeypatch):
        calls = {"apply_field": 0, "coproduct": 0}
        for name in calls:
            method = getattr(CoordinateRing, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(CoordinateRing, name, counted)
        grp = osp_group()
        structure = coboundary_structure(grp, family("osp-r-a", x=1, y=2, z=3))
        format_table(structure)
        assert calls["apply_field"] and not calls["coproduct"]
        assert check_axioms(structure).passed
        assert calls["coproduct"] and grp._square is not None


class TestPublishedTables:
    def test_every_cell(self):
        results = run_claims(prefix="table")
        assert len(results) == 123
        bad = [r for r in results if r.status == "fail"]
        assert not bad, [r.machine_line() for r in bad]

    def test_expected_errata(self):
        results = run_claims(prefix="table")
        errata = sorted(r.claim_id for r in results if r.status == "erratum")
        assert errata == ["table1.3.b,d", "table2.v.a,b"]

    def test_only_unparsable_published_text_is_an_erratum(self, monkeypatch):
        # published text outside the grammar is an erratum; any other error
        # while reading a published cell fails its claim
        parse = CoordinateRing.parse

        def broken_on_published(self, text):
            if text == "-b-E^2":   # the published cell of table2.v.a,b
                raise RuntimeError("reader broke")
            return parse(self, text)

        monkeypatch.setattr(CoordinateRing, "parse", broken_on_published)
        results = {r.claim_id: r for r in run_claims(prefix=".b,d")
                   + run_claims(prefix="table2.v.a,b")}
        parse_error, other = results["table1.3.b,d"], results["table2.v.a,b"]
        assert parse_error.status == "erratum"
        assert "published text does not parse" in parse_error.detail
        assert (other.status, other.detail) == ("fail", "error: reader broke")

    def test_fault_injection_fails_claims(self, monkeypatch):
        # a mutated built-in must make the corresponding claims fail
        text = algebra.render_algebra_text(algebra.builtin("super_e2"))
        assert "D+ D+ = 1 P+\n" in text
        mutated = algebra.parse_algebra_text(
            text.replace("D+ D+ = 1 P+\n", "D+ D+ = 1 P-\n"), validate=False)
        i = mutated.index
        c = dense_table(mutated)
        assert c[i["D+"]][i["D+"]][i["P+"]] == 0
        assert c[i["D+"]][i["D+"]][i["P-"]] == 1
        group("super_e2")  # built first, so that it keeps the file's algebra
        monkeypatch.setitem(algebra._BUILTIN_CACHE, "super_e2", mutated)
        results = run_claims(prefix="axioms.e2") + run_claims(prefix="files.e2")
        assert [(r.claim_id, r.status) for r in results] == [
            ("axioms.e2", "fail"), ("files.e2", "fail")]
        assert results[1].detail == "structure constants differ"


class TestPrintedTable2VCell:
    """The printed `table2.v.a,b`, -b - e^s, against the recomputed -b + c*s.
    The printed bracket is structure (v) plus delta dd_a ^ dd_b, delta the
    difference of the two cells, a function of s alone, and dd_x the left
    partial derivative (`VectorField` sending x to 1; on s it carries the
    chain rule 1/2 E dd_E).  The printed cell keeps Jacobi and fails
    vanishing at e and the coproduct morphism at Delta{a,b} alone."""

    PRINTED = "-b-E^2"

    @staticmethod
    def _partials(grp):
        one = grp.ring.one()
        return {x: poisson.VectorField(grp, f"d/d{x}", grp.parity_of(x), {x: one})
                for x in grp.coordinates}

    def _shifted(self, delta):
        """Structure (v) with delta added to {a, b}."""
        structure = named_structure("super-e2", "v")
        grp = structure.group
        da, db = (self._partials(grp)[x] for x in "ab")

        def bracket(f, g):
            return structure.bracket(f, g) + delta * (da(f) * db(g) - db(f) * da(g))
        return types.SimpleNamespace(group=grp, bracket=bracket)

    def _partial_jacobi(self, structure):
        """The Jacobi residuals of check_axioms' sum, each bracket
        {x_f, P} read off the generator table pi by coordinate partials:
        sum_b pi[f, b] dd_b P."""
        grp = structure.group
        gens, partial = grp.coordinates, self._partials(grp)
        par = {g: grp.parity_of(g) for g in gens}
        pi = {(f, g): structure.bracket(grp.var(f), grp.var(g))
              for f in gens for g in gens}

        def z(p, q):
            return -1 if p and q else 1

        def bracket(f, P):
            return sum((pi[f, b] * partial[b](P) for b in gens), grp.ring.zero())

        triples = list(itertools.combinations_with_replacement(gens, 3))
        assert len(triples) == 35
        out = []
        for f, g, h in triples:
            total = (z(par[f], par[h]) * bracket(f, pi[g, h])
                     + z(par[g], par[f]) * bracket(g, pi[h, f])
                     + z(par[h], par[g]) * bracket(h, pi[f, g]))
            if not total.is_zero():
                out.append(((f, g, h), total))
        return out

    def test_partials_give_check_axioms_jacobi_residuals(self):
        grp = group("super-e2")
        structures = [coboundary_structure(grp, r)
                      for r in basis_r_matrices(grp.algebra)]
        structures += [named_structure("super-e2", sid)
                       for sid in STRUCTURE_IDS["super-e2"]]
        failing = 0
        for structure in structures:
            want = check_axioms(structure).failures["jacobi"]
            assert self._partial_jacobi(structure) == want
            failing += bool(want)
        assert failing == 3

    def test_printed_cell_keeps_jacobi(self):
        grp = group("super-e2")
        recomputed = table_cell(named_structure("super-e2", "v"), "a", "b")
        assert recomputed == grp.parse("-b+c*s")
        printed = self._shifted(grp.parse(self.PRINTED) - recomputed)
        assert printed.bracket(grp.var("a"), grp.var("b")) == grp.parse(self.PRINTED)
        assert self._partial_jacobi(printed) == []
        report = check_axioms(printed)
        assert report.failing_axioms() == ["coproduct_morphism", "vanishing"]
        assert report.failures["coproduct_morphism"] == [
            (("a", "b"), grp.square().parse("-E1^2*E2^2+E1^2+E2^2"))]
        # a failed vanishing check carries the value at e, not the bracket
        assert [(labels, value.as_fraction())
                for labels, value in report.failures["vanishing"]] == [
            (("a", "b"), -1), (("b", "a"), 1)]
        assert report.render().splitlines()[-2:] == [
            "vanishing fails at {a,b} at identity: -1",
            "vanishing fails at {b,a} at identity: 1"]
        assert check_axioms(named_structure("super-e2", "v")).passed

    @pytest.mark.parametrize("delta", ["s^2", "E^-2", "c*s^3*E^4"])
    def test_any_function_of_s_on_a_b_keeps_jacobi(self, delta):
        report = check_axioms(self._shifted(group("super-e2").parse(delta)))
        assert "jacobi" not in report.failing_axioms()
        assert [labels for labels, _ in report.failures["coproduct_morphism"]] \
            == [("a", "b")]


class TestNormalizationsAgainstOspColumn2:
    """The wedge without 1/2 and the coboundary sign of README's
    Conventions: the other choice of either changes most of the 17 cells
    of OSp column 2 (r2, which `test_every_cell` matches with its published
    cells)."""

    @staticmethod
    def _changed(r):
        grp = group("osp")
        want = render_table(named_structure("osp", "2"))
        got = render_table(coboundary_structure(grp, r, display_scale=2))
        assert [cell for cell, _ in got] == [cell for cell, _ in want]
        assert len(want) == 17
        return {cell: value for (cell, value), (_, old) in zip(got, want)
                if value != old}

    def test_half_normalized_wedge_changes_10_cells(self):
        osp = group("osp")
        assert parse_rmatrix("1 H^X+ - 1 V+^V+", osp.algebra) == family("osp-r2")
        changed = self._changed(parse_rmatrix("1 H^X+ - 1/2 V+^V+", osp.algebra))
        assert len(changed) == 10
        # the stray alpha*delta terms
        (stray,) = osp.parse("alpha*delta")._terms
        assert [cell for cell, value in changed.items() if stray in value._terms
                ] == [("a", "b"), ("b", "d"), ("alpha", "alpha")]

    def test_opposite_coboundary_sign_changes_15_cells(self):
        osp = group("osp")
        r2, negated = (parse_rmatrix(text, osp.algebra)
                       for text in ("1 H^X+ - 1 V+^V+", "-1 H^X+ + 1 V+^V+"))
        # -r2's coboundary is -delta(r2): the sign of [g (x) 1 + 1 (x) g, r]
        delta, opposite = (coboundary_delta(osp.algebra, r) for r in (r2, negated))
        assert not delta.is_zero() and (delta - delta) - delta == opposite
        changed = self._changed(negated)
        assert len(changed) == 15
        assert all(value == -table_cell(named_structure("osp", "2"), *cell)
                   for cell, value in changed.items())


def _rebuilt_group(grp, **changes):
    """A new CoordinateRing from `grp`'s arguments, some of them changed."""
    args = dict(name=grp.name, ring=grp.ring, coordinates=grp.coordinates,
                matrix=grp.matrix, tangents=grp.tangents,
                laurent_rules=grp.laurent_rules, display=grp.display,
                algebra_name=grp.algebra.name, params=grp.params)
    return CoordinateRing(**{**args, **changes})


class TestBuiltinFilesAgainstT:
    """`files.*` compares each bundled .alg file with the structure
    constants read off its group's T (`claims.constants_from_group`)."""

    NAMES = {"super-e2": "super_e2", "osp": "osp12"}

    @pytest.mark.parametrize("gname", sorted(FRESH_GROUPS))
    def test_derivation_never_reads_the_constants(self, gname, monkeypatch):
        # a group built on an algebra with the file's basis and grades and
        # no brackets still reads off the file's constants exactly
        name = self.NAMES[gname]
        ref = algebra.parse_algebra_text(data_path(f"{name}.alg").read_text())
        blank = SuperLieAlgebra(name, list(zip(ref.basis, ref.grades)), {})
        monkeypatch.setitem(algebra._BUILTIN_CACHE, name, blank)
        grp = FRESH_GROUPS[gname]()
        assert grp.algebra is blank and not blank.constants
        assert constants_from_group(grp) == ref.constants

    def test_tangents_are_shared_with_the_fields(self):
        # rho is read from the values the fields were derived from: no
        # tangent is applied a second time
        grp = osp_group()
        grp.field("H", "Y")
        applied = []
        apply_field = grp.apply_field
        grp.apply_field = lambda field, f: applied.append(f) or apply_field(field, f)
        assert constants_from_group(grp) == builtin("osp12").constants
        assert applied == []

    def _files_claim(self, monkeypatch, gname, grp):
        monkeypatch.setitem(poisson._GROUPS, gname, grp)
        result, = run_claims(prefix=f"files.{gname.split('-')[-1]}")
        return result.status, result.detail

    @pytest.mark.parametrize("gname", sorted(FRESH_GROUPS))
    def test_claims_pass(self, gname, monkeypatch):
        assert self._files_claim(monkeypatch, gname, FRESH_GROUPS[gname]()) == (
            "pass", "file constants identical to builtin")

    def test_tangent_of_v_plus_doubled_fails(self, monkeypatch):
        grp = osp_group()
        assert grp.tangents["V+"] == {"alpha": Fraction(1, 2)}
        mutated = _rebuilt_group(grp, tangents={**grp.tangents,
                                                "V+": {"alpha": 1}})
        assert self._files_claim(monkeypatch, "osp", mutated) == (
            "fail", "structure constants differ")

    def test_changed_entry_of_t_fails(self, monkeypatch):
        # {D+, D+} = 2 rho(D+)^2 reads 2 P+ when T_12 of the (xi, a) block
        # loses its 1/2
        grp = super_e2_group()
        assert grp.matrix[1][1][2] == "1/2*xi*E^-1"
        changed = [[list(row) for row in b] for b in grp.matrix]
        changed[1][1][2] = "xi*E^-1"
        mutated = _rebuilt_group(grp, matrix=changed)
        assert self._files_claim(monkeypatch, "super-e2", mutated) == (
            "fail", "structure constants differ")

    @pytest.mark.parametrize("gname, line, changed", [
        ("osp", "V+ V+ = 1/2 X+", "V+ V+ = 1 X+"),
        ("super-e2", "H D- = -1/2 D-", "H D- = -1 D-")])
    def test_changed_file_coefficient_fails(self, gname, line, changed,
                                            monkeypatch, tmp_path):
        name = self.NAMES[gname]
        text = data_path(f"{name}.alg").read_text()
        assert line in text
        path = tmp_path / f"{name}.alg"
        path.write_text(text.replace(line, changed))
        grp = group(gname)  # built first, on the bundled file
        monkeypatch.setattr(algebra, "data_path", lambda _: path)
        monkeypatch.delitem(algebra._BUILTIN_CACHE, name)
        assert self._files_claim(monkeypatch, gname, grp) == (
            "fail", "structure constants differ")

    def test_dependent_tangents_fail(self, monkeypatch):
        # V- given the tangent of V+: the rho_k do not fix the constants
        grp = osp_group()
        mutated = _rebuilt_group(grp, tangents={**grp.tangents,
                                                "V-": grp.tangents["V+"]})
        with pytest.raises(ValueError, match="linearly dependent"):
            constants_from_group(mutated)
        status, detail = self._files_claim(monkeypatch, "osp", mutated)
        assert status == "fail" and "linearly dependent" in detail


# The scalar grammar of the group rings, fuzzed by the rules of
# `test_cli.TestFuzzInputGrammars`: free text of the grammar's pieces (digits,
# operators, spaces, newlines, both groups' variables and a name neither
# has), and the grammar's own shape with free factors: variables with
# exponents of either sign, rationals whose denominator may be 0, and
# dangling signs and operators.
_SCALAR_NAMES = ["a", "b", "c", "d", "s", "E", "xi", "eta", "alpha", "delta",
                 "q"]
_SCALAR_PIECES = list("0123456789/+-*^ \n.") + _SCALAR_NAMES
_FACTOR = st.one_of(
    st.builds("{}{}".format, st.sampled_from(_SCALAR_NAMES), st.one_of(
        st.just(""), st.builds("^{}{}".format, st.sampled_from(["", "-"]),
                               st.integers(0, 3)))),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 3)),
    st.integers(0, 12).map(str))
_SCALAR_TEXT = st.one_of(
    st.lists(st.sampled_from(_SCALAR_PIECES), max_size=24).map("".join),
    st.builds("{}{}{}".format,
              st.sampled_from(["", "-", "+", "--", "- "]),
              st.lists(st.tuples(
                  st.sampled_from([" + ", " - ", "+", "-", " ", ""]),
                  st.lists(_FACTOR, min_size=1, max_size=4).map("*".join)),
                  min_size=1, max_size=4).map(
                      lambda terms: "".join(s + t for s, t in terms).lstrip()),
              st.sampled_from(["", "+", "-", " -", "*", "^", "/"])))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FRESH_GROUPS)), _SCALAR_TEXT)
@example("super-e2", "c*E^-2*xi - 1/2*a*b")
@example("super-e2", "a^-1*E")
@example("osp", "1/0*b")
@example("super-e2", "xi^2")
@example("osp", "alpha*alpha + d")
@example("osp", "a*d -")
def test_group_scalar_grammar(gname, text):
    """Each text parses to a scalar of the group ring that reads back from
    its rendering, or is refused with a ValueError, never another error."""
    grp = group(gname)
    try:
        value = grp.parse(text)
    except ValueError:
        return
    assert isinstance(value, SuperScalar) and value.ring is grp.ring
    assert grp.parse(value.render()) == value


# -- one structure path against the two-loop bracket it replaced ---------------
#
# The references below are the previous structure layer, kept verbatim as
# test data: its Phi tables of the published structures, its bracket (one
# loop over the r entries, one over Phi), its check_axioms (every generator
# bracket recomputed where an axiom reads it) and its tensor-square bracket,
# with the slot embedding and the split of a tensor-ring monomial into its
# two halves that the bracket used.

def _frozen_phi_cs(grp):
    """The extra term c*s P+^P- carried by every non-coboundary member."""
    cs = grp.parse("c*s")
    return {("P+", "P-"): cs, ("P-", "P+"): -cs}


def _frozen_phi_case_iv(grp):
    """The cocycle of the family-(iv) structure (overall scale set to 1)."""
    p = grp.parse
    table = {}

    def add_wedge(x, y, value, odd_pair=False):
        table[(x, y)] = table.get((x, y), grp.ring.zero()) + value
        sign = 1 if odd_pair else -1
        table[(y, x)] = table.get((y, x), grp.ring.zero()) + sign * value

    add_wedge("P+", "H", p("-2*a*E^2"))
    add_wedge("D+", "D+", p("-2*a*E^2") * Fraction(1, 2), odd_pair=True)
    add_wedge("P-", "H", p("-2*b*E^-2"))
    add_wedge("P-", "P+", p("2*a*b"))
    add_wedge("D-", "D-", p("2*b*E^-2") * Fraction(1, 2), odd_pair=True)
    add_wedge("H", "D+", p("E*xi"))
    add_wedge("P+", "D+", p("-a*E^3*xi"))
    add_wedge("P-", "D+", p("b*E^-1*xi"))
    add_wedge("H", "D-", p("E^-1*eta"))
    add_wedge("P+", "D-", p("-a*E*eta"))
    add_wedge("P-", "D-", p("b*E^-3*eta"))
    add_wedge("D+", "D-", p("-1/2*xi*eta"), odd_pair=True)
    return {key: v for key, v in table.items() if not v.is_zero()}


def _frozen_r_entries(r):
    names = r.algebra.basis
    return [(names[k], names[l], v.as_fraction())
            for (k, l), v in sorted(r.coeffs.items())]


class _FrozenStructure:
    def __init__(self, grp, r_entries, phi):
        self.group = grp
        self.r_entries = r_entries
        self.phi = phi

    def bracket(self, f, g):
        grp = self.group
        field = _frozen_two_sided(grp)
        out = grp.ring.zero()
        for (k, j, coeff) in self.r_entries:
            yterm = field[k, "Y", "r"](f) * coeff * field[j, "Y", "l"](g)
            xterm = field[k, "X", "r"](f) * coeff * field[j, "X", "l"](g)
            out = out + yterm - xterm
        for (j, k), value in self.phi.items():
            out = out + field[j, "X", "r"](f) * value * field[k, "X", "l"](g)
        return out


def _frozen_embedder(grp, slot):
    tring = grp.square()
    ring = grp.ring

    def embed(x):
        out = tring.zero()
        for exps, odds, coeff in x.terms():
            e2 = [0] * len(tring.even_names)
            for pos, e in enumerate(exps):
                if not e:
                    continue
                name = ring.even_names[pos]
                target = name if name in grp.params else f"{name}{slot}"
                e2[tring._even_pos[target]] = e
            o2 = tuple(tring._odd_pos[f"{ring.odd_names[i]}{slot}"]
                       for i in odds)
            out = out + tring.monomial(e2, o2, coeff)
        return out
    return embed


def _frozen_split(grp, exps, odds):
    """Partition a tensor-ring monomial into base-ring halves."""
    tring = grp.square()
    ring = grp.ring
    e1 = [0] * len(ring.even_names)
    eb = [0] * len(ring.even_names)
    for pos, e in enumerate(exps):
        if not e:
            continue
        name = tring.even_names[pos]
        if name in grp.params:
            e1[ring._even_pos[name]] = e
        elif name.endswith("1"):
            e1[ring._even_pos[name[:-1]]] = e
        else:
            eb[ring._even_pos[name[:-1]]] = e
    o1 = []
    ob = []
    for oi in odds:
        name = tring.odd_names[oi]
        (o1 if name.endswith("1") else ob).append(ring._odd_pos[name[:-1]])
    return ring.monomial(e1, tuple(o1)), ring.monomial(eb, tuple(ob))


def _frozen_tensor_bracket(structure, F, G):
    grp = structure.group
    tring = grp.square()
    embed1, embed2 = _frozen_embedder(grp, 1), _frozen_embedder(grp, 2)

    def split(exps, odds):
        return _frozen_split(grp, exps, odds)

    out = tring.zero()
    for e_f, o_f, c_f in F.terms():
        u, v = split(e_f, o_f)
        u = c_f * u
        vpar = v.parity() if not v.is_zero() else EVEN
        for e_g, o_g, c_g in G.terms():
            w, x = split(e_g, o_g)
            w = c_g * w
            wpar = w.parity() if not w.is_zero() else EVEN
            sign = -1 if (vpar and wpar) else 1
            uw = structure.bracket(u, w)
            if not uw.is_zero():
                vx = v * x
                if not vx.is_zero():
                    out = out + sign * (embed1(uw) * embed2(vx))
            uw_prod = u * w
            if not uw_prod.is_zero():
                vx_br = structure.bracket(v, x)
                if not vx_br.is_zero():
                    out = out + sign * (embed1(uw_prod) * embed2(vx_br))
    return out


def _frozen_check_axioms(structure):
    grp = structure.group
    gens = list(grp.coordinates)
    par = {g: grp.parity_of(g) for g in gens}
    val = {g: grp.var(g) for g in gens}
    report = {axiom: [] for axiom in REPORT_LISTS}

    def z(p, q):
        return -1 if (p and q) else 1

    for f, g in itertools.combinations_with_replacement(gens, 2):
        res = structure.bracket(val[f], val[g]) \
            + z(par[f], par[g]) * structure.bracket(val[g], val[f])
        if not res.is_zero():
            report["antisymmetry"].append((f"{{{f},{g}}}", res.render()))

    for f, g, h in itertools.product(gens, repeat=3):
        lhs = structure.bracket(val[f], val[g] * val[h])
        rhs = structure.bracket(val[f], val[g]) * val[h] \
            + z(par[f], par[g]) * (val[g] * structure.bracket(val[f], val[h]))
        if lhs != rhs:
            report["leibniz"].append((f"{{{f},{g}*{h}}}", (lhs - rhs).render()))

    for f, g, h in itertools.combinations_with_replacement(gens, 3):
        total = z(par[f], par[h]) * structure.bracket(val[f], structure.bracket(val[g], val[h])) \
            + z(par[g], par[f]) * structure.bracket(val[g], structure.bracket(val[h], val[f])) \
            + z(par[h], par[g]) * structure.bracket(val[h], structure.bracket(val[f], val[g]))
        if not total.is_zero():
            report["jacobi"].append((f"({f},{g},{h})", total.render()))

    for f, g in itertools.combinations_with_replacement(gens, 2):
        lhs = grp.coproduct(structure.bracket(val[f], val[g]))
        rhs = _frozen_tensor_bracket(structure, grp.coproduct(val[f]),
                                     grp.coproduct(val[g]))
        if lhs != rhs:
            report["coproduct_morphism"].append(
                (f"Delta{{{f},{g}}}", (lhs - rhs).render()))

    for label_f, text_f in grp.display:
        for label_g, text_g in grp.display:
            value = structure.bracket(grp.parse(text_f), grp.parse(text_g))
            if not grp.vanishes_at_identity(value):
                report["vanishing"].append(
                    (f"{{{label_f},{label_g}}} at identity", value.render()))
    return report


# the previous named_structure, as (group, r-matrix family and parameters or
# None, frozen Phi builder or None)
FROZEN_NAMED = {
    ("osp", "1"): ("osp", ("osp-r1", {}), None),
    ("osp", "2"): ("osp", ("osp-r2", {}), None),
    ("osp", "3"): ("osp", ("osp-r3", {"t": 1}), None),
    ("super-e2", "i"): ("super-e2", None, _frozen_phi_cs),
    ("super-e2", "ii"): ("super-e2", ("e2-r-ii", {}), _frozen_phi_cs),
    ("super-e2", "iii"): ("super-e2", ("e2-r-iii", {}), _frozen_phi_cs),
    ("super-e2", "iv"): ("super-e2", None, _frozen_phi_case_iv),
    ("super-e2", "v"): ("super-e2", ("e2-r-v", {}), _frozen_phi_cs),
    ("super-e2", "vi"): ("super-e2", ("e2-r-vi", {}), _frozen_phi_cs),
}

# structures that fail some axiom, with the failure count per report list
FAILING = {
    "e2-r-ii+a": {"jacobi": 3, "coproduct_morphism": 1},
    "osp-half": {"jacobi": 11},
    "one-sided-phi": {"antisymmetry": 1},
}
REPORT_LISTS = ("antisymmetry", "leibniz", "jacobi", "coproduct_morphism",
                "vanishing")


def _frozen_named(key):
    gname, fam, phi = FROZEN_NAMED[key]
    grp = group(gname)
    r_entries = _frozen_r_entries(family(fam[0], **fam[1])) if fam else []
    return grp, r_entries, phi(grp) if phi else {}


def _case(name, groups=group):
    """(new structure, frozen structure) for a named or failing case; a
    failing case is built on the groups that `groups` returns by name."""
    if name in FAILING:
        e2, osp = groups("super-e2"), groups("osp")
        if name == "e2-r-ii+a":
            r = family("e2-r-ii")
            new = PoissonStructure(e2, r=r, phi=parse_wedge_sum(
                "a P+^P-", e2.algebra, e2.ring))
            a = e2.parse("a")
            old = (e2, _frozen_r_entries(r), {("P+", "P-"): a, ("P-", "P+"): -a})
        elif name == "osp-half":
            r = parse_rmatrix("1 H^X+ - 1/2 V+^V+", osp.algebra)
            new = PoissonStructure(osp, r=r)
            old = (osp, _frozen_r_entries(r), {})
        else:
            cs = e2.parse("c*s")
            index = e2.algebra.index
            new = PoissonStructure(e2, phi=GradedTensor(
                e2.algebra, 2, {(index["P+"], index["P-"]): cs}, e2.ring))
            old = (e2, [], {("P+", "P-"): cs})
        return new, _FrozenStructure(*old)
    return named_structure(*name), _FrozenStructure(*_frozen_named(name))


ALL_CASES = list(FROZEN_NAMED) + list(FAILING)


def _case_id(name):
    return name if isinstance(name, str) else "-".join(name)


class TestOneStructurePath:
    @pytest.mark.parametrize("key", list(FROZEN_NAMED), ids=_case_id)
    def test_named_structure_has_frozen_entries(self, key):
        new = named_structure(*key)
        grp, r_entries, phi = _frozen_named(key)
        assert new.group is grp
        assert new.r_entries == r_entries
        assert new.phi == phi
        assert new.display_scale == (2 if key[0] == "osp" else 1)

    def test_case_iv_has_22_entries_and_round_trips(self):
        assert len(named_structure("super-e2", "iv").phi) == 22
        grp = group("super-e2")
        text = poisson._STRUCTURES["super-e2"]["iv"][2]
        assert render_wedge_form(
            parse_wedge_sum(text, grp.algebra, grp.ring)) == text

    def test_structure_ids_read_the_table(self):
        assert {g: list(ids) for g, ids in poisson._STRUCTURES.items()} \
            == STRUCTURE_IDS
        with pytest.raises(KeyError, match=r"unknown OSp structure '9' \(1\|2\|3\)"):
            named_structure("osp", "9")
        with pytest.raises(KeyError, match=r"unknown super-e2 structure 'vii' \(i\.\.vi\)"):
            named_structure("super-e2", "vii")

    @pytest.mark.parametrize("name", ALL_CASES, ids=_case_id)
    def test_bracket_equals_frozen(self, name):
        new, old = _case(name)

        @settings(max_examples=20, deadline=None)
        @given(_pair(new.group.name))
        def check(drawn):
            _, f, g = drawn
            assert new.bracket(f, g) == old.bracket(f, g)

        check()

    @pytest.mark.parametrize("name", ALL_CASES, ids=_case_id)
    def test_check_axioms_equals_frozen(self, name):
        new, old = _case(name)
        got, want = check_axioms(new), _frozen_check_axioms(old)
        for axiom in REPORT_LISTS:
            assert [got.formats[axiom].format(*labels, res.render())
                    for labels, res in got.failures[axiom]] == [
                f"{axiom} fails at {where}: {res}"
                for where, res in want[axiom]], axiom
        counts = {axiom: len(want[axiom]) for axiom in REPORT_LISTS
                  if want[axiom]}
        assert counts == FAILING.get(name, {})

    @pytest.mark.parametrize("name,lines,digest", [
        ("osp-half", 11, "7ec6933f63b5f0f3fc567aabffcfef80"
                         "44d7052332060ff8e3128f5e2af33f52"),
        ("e2-r-ii+a", 4, "1b08fa9919a68b5589565974a29da487"
                         "7775988ab735d5d58248c54ff7630c42")])
    def test_failure_rendering_is_pinned(self, name, lines, digest):
        report = check_axioms(_case(name)[0])
        assert all(isinstance(res, SuperScalar)
                   for axiom in report.failing_axioms()
                   for res in report.residuals(axiom))
        text = report.render()
        assert len(text.splitlines()) == lines
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text


class _LeibnizDefect(PoissonStructure):
    """The zero bracket on super-E(2) except {a, b*s} = 1, which is no
    derivation in its second argument."""

    def bracket(self, f, g):
        value = super().bracket(f, g)
        if f == self.group.var("a") and g == self.group.parse("b*s"):
            return value + 1
        return value


def _fresh_structure(name):
    """A new structure object for a case on a new group object, so that the
    group's basis-bracket memo starts empty (the groups are cached for the
    process)."""
    groups = functools.cache(lambda gname: FRESH_GROUPS[gname]())
    if name in FAILING:
        return _case(name, groups)[0]
    gname, sid = name
    grp = groups(gname)
    family_id, params, phi_text = poisson._STRUCTURES[gname][sid]
    return PoissonStructure(
        grp, sid, family(family_id, **params) if family_id else None,
        parse_wedge_sum(phi_text, grp.algebra, grp.ring) if phi_text else None,
        display_scale=2 if gname == "osp" else 1)


class TestAxiomSweepMemo:
    @pytest.mark.parametrize("name", ALL_CASES, ids=_case_id)
    def test_each_monomial_pair_is_bracketed_once(self, name, monkeypatch):
        # each basis bracket of a monomial pair is formed once per group: the
        # group's memo serves check_axioms, render_table and a second sweep,
        # which forms nothing
        new = _fresh_structure(name)
        grp = new.group
        formed = {}
        basis_bracket = CoordinateRing.basis_bracket

        def counted(self, key, m, n):
            formed[self, key, m, n] = formed.get((self, key, m, n), 0) + 1
            return basis_bracket(self, key, m, n)

        monkeypatch.setattr(CoordinateRing, "basis_bracket", counted)
        check_axioms(new)
        render_table(new)
        assert formed and set(formed.values()) == {1}
        assert {key[0] for key in formed} == {grp}
        count = len(formed)
        check_axioms(new)
        render_table(new)
        assert len(formed) == count
        memo = grp.basis_brackets
        assert sum(map(len, memo.values())) == count
        assert {key for row in memo.values() for key in row} \
            == {key for key, _, _ in new.coefficients}
        zeros = [v for row in memo.values() for v in row.values()
                 if v.is_zero()]
        assert zeros and all(v is grp.zero for v in zeros)

    def test_leibniz_right_side_is_formed_from_pi(self, e2):
        report = check_axioms(_LeibnizDefect(e2, "defect"))
        assert [(labels, res.render()) for labels, res in
                report.failures["leibniz"]] == [(("a", "s", "b"), "1"),
                                                (("a", "b", "s"), "1")]
        assert report.failing_axioms() == ["leibniz"]


# The previous check_axioms, kept verbatim (only the name carries a _frozen
# prefix): every Leibniz triple evaluated, and the coproduct side as one
# `tensor` per term, summed by `_combination`.

def _frozen_parent_check_axioms(structure):
    """Graded antisymmetry, Leibniz, graded Jacobi, and the coproduct
    morphism property, all on the group generators (exact, symbolic).

    pi[f, g] = {x_f, x_g} is computed once; the Leibniz right side is formed
    from it.  The coproduct morphism compares Delta{x_f, x_g} with the
    product bracket on G x G of Delta x_f = sum u (x) v and Delta x_g =
    sum w (x) y over entries of T:

        {u (x) v, w (x) y} = (-1)^{|v||w|} ({u,w} (x) vy + uw (x) {v,y})
    """
    grp = structure.group
    ring, entries, at = grp.ring, grp.entries, grp.entry_index
    gens = list(grp.coordinates)
    par = {g: grp.parity_of(g) for g in gens}
    val = {g: entries[at[g]] for g in gens}
    report = algebra.Report(poisson._AXIOMS)
    bracket, product = structure.bracket, grp.entry_product

    pi = {(f, g): bracket(val[f], val[g]) for f in gens for g in gens}

    def z(p, q):
        return -1 if (p and q) else 1

    for f, g in itertools.combinations_with_replacement(gens, 2):
        res = ring._combination([(1, 1, pi[f, g]),
                                 (z(par[f], par[g]), 1, pi[g, f])])
        if not res.is_zero():
            report.add("antisymmetry", (f, g), res)

    for f, g, h in itertools.product(gens, repeat=3):
        lhs = bracket(val[f], product(at[g], at[h]))
        rhs = ring.sum_of_products([(1, (pi[f, g], val[h])),
                                    (z(par[f], par[g]), (val[g], pi[f, h]))])
        if lhs != rhs:
            report.add("leibniz", (f, g, h), lhs - rhs)

    for f, g, h in itertools.combinations_with_replacement(gens, 3):
        total = ring._combination([
            (z(par[f], par[h]), 1, bracket(val[f], pi[g, h])),
            (z(par[g], par[f]), 1, bracket(val[g], pi[h, f])),
            (z(par[h], par[g]), 1, bracket(val[h], pi[f, g]))])
        if not total.is_zero():
            report.add("jacobi", (f, g, h), total)

    pairs = grp.coproduct_pairs

    def tensor(x, y):
        return grp.tensor_sum([(1, x, y)])
    parity = [x.parity() for x in entries]
    tring = grp.square()
    brackets = {}  # (p, r) -> {entry p, entry r}

    def entry_bracket(p, r):
        if (p, r) not in brackets:
            brackets[p, r] = bracket(entries[p], entries[r])
        return brackets[p, r]

    for f, g in itertools.combinations_with_replacement(gens, 2):
        terms = []
        for p, q in pairs[f]:
            for r, s in pairs[g]:
                sign = z(parity[q], parity[r])
                terms += [(sign, 1, tensor(entry_bracket(p, r), product(q, s))),
                          (sign, 1, tensor(product(p, r), entry_bracket(q, s)))]
        lhs = grp.coproduct(pi[f, g])
        rhs = tring._combination(terms)
        if lhs != rhs:
            report.add("coproduct_morphism", (f, g), lhs - rhs)

    elements = grp.display_elements
    for label_f, f in elements.items():
        for label_g, g in elements.items():
            value = bracket(f, g)
            if not grp.vanishes_at_identity(value):
                report.add("vanishing", (label_f, label_g), value)
    return report


class _NotBiderivation(PoissonStructure):
    """A structure's bracket plus d(n)^2 m n on the monomials m, n, d(n) the
    number of factors of n (an E^-1 counts once): bilinear and even, but no
    derivation in its second argument, since d is additive and d^2 is not."""

    def bracket(self, f, g):
        ring = self.group.ring
        return super().bracket(f, g) + ring.sum_of_products([
            (Fraction(c * d * (sum(map(abs, n[0])) + len(n[1])) ** 2,
                      f._den * g._den),
             (ring._make({m: 1}), ring._make({n: 1})))
            for m, c in f._terms.items() for n, d in g._terms.items()])


def _drop_first_phi_term(grp, sid):
    # (iv)'s Phi without its first term 2*a*E^2 H^P+: still zero at e, but
    # no longer multiplicative
    text = poisson._STRUCTURES[grp.name][sid][2]
    kept = text.split(" + ", 1)[1]
    return PoissonStructure(grp, "iv-dropped", phi=parse_wedge_sum(
        kept, grp.algebra, grp.ring))


def _read_at_e(grp, failures):
    """The frozen parent's failures with each vanishing residual, which it
    reported as the whole bracket, read at e, as check_axioms reports it."""
    return {axiom: [(labels, grp.at_identity(value)) for labels, value in found]
            if axiom == "vanishing" else found
            for axiom, found in failures.items()}


class TestAxiomLoopsEqualFrozen:
    @pytest.mark.parametrize("key", [("osp", "3"), ("super-e2", "iii")],
                             ids=_case_id)
    def test_leibniz_mirror_on_a_bracket_that_is_no_biderivation(self, key):
        gname, sid = key
        grp = FRESH_GROUPS[gname]()
        family_id, params, phi_text = poisson._STRUCTURES[gname][sid]
        structure = _NotBiderivation(grp, sid, family(family_id, **params),
                                     parse_wedge_sum(phi_text, grp.algebra,
                                                     grp.ring)
                                     if phi_text else None)
        got = check_axioms(structure)
        want = _frozen_parent_check_axioms(structure)
        assert got.failures == _read_at_e(structure.group, want.failures)
        odd = {g for g in grp.coordinates if grp.parity_of(g)}
        leibniz = [labels for labels, _ in got.failures["leibniz"]]
        assert any(g in odd and h in odd and g != h for _, g, h in leibniz)
        assert any(g not in odd and h not in odd and g != h
                   for _, g, h in leibniz)

    def test_coproduct_sum_on_a_phi_that_is_not_multiplicative(self):
        structure = _drop_first_phi_term(FRESH_GROUPS["super-e2"](), "iv")
        assert len(structure.phi) == 20
        got = check_axioms(structure)
        want = _frozen_parent_check_axioms(structure)
        assert got.failures == _read_at_e(structure.group, want.failures)
        assert got.failures["coproduct_morphism"]


# The bracket loop before two single terms got their own path, kept verbatim
# as the reference: every (left field, coefficient, right field) triple, the
# images of f and g computed once per call, a zero image skipped and the
# products summed and reduced once.

def _frozen_triples(structure):
    fields = _frozen_two_sided(structure.group)

    def field(*key):
        return fields[key]

    triples = []
    for k, j, coeff in structure.r_entries:
        triples.append((field(k, "Y", "r"), coeff, field(j, "Y", "l")))
        triples.append((field(k, "X", "r"), -coeff, field(j, "X", "l")))
    for (j, k), value in structure.phi.items():
        triples.append((field(j, "X", "r"), value, field(k, "X", "l")))
    return triples


def _frozen_loop_bracket(structure, f, g):
    left = {}
    right = {}
    products = []
    for lfield, coeff, rfield in _frozen_triples(structure):
        lf = left.get(lfield)
        if lf is None:
            lf = left[lfield] = lfield(f)
        if lf.is_zero():
            continue
        rg = right.get(rfield)
        if rg is None:
            rg = right[rfield] = rfield(g)
        if rg.is_zero():
            continue
        products.append((coeff, (lf, rg)) if isinstance(coeff, Fraction)
                        else (1, (lf, coeff, rg)))
    return structure.group.ring.sum_of_products(products)


def _rational(nonzero=False):
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return q.filter(bool) if nonzero else q


# a coboundary family as (id, group name, parameter strategy): e2-r-a with
# a*b the square of a rational, as its root needs
_COBOUNDARY_FAMILIES = {
    "osp-r-a": ("osp", st.fixed_dictionaries(
        {"x": _rational(), "y": _rational(), "z": _rational()})),
    "e2-r-a": ("super-e2", st.tuples(
        _rational(nonzero=True), _rational(), _rational(), _rational(),
        st.sampled_from([1, -1])).map(lambda t: {
            "a": t[0] * t[1] ** 2, "b": t[0] * t[2] ** 2, "f": t[3],
            "branch": t[4]})),
    "e2-r-b": ("super-e2", st.fixed_dictionaries(
        {"a": _rational(), "b": _rational(), "f": _rational()})),
}


def _single_term(grp):
    """c times a monomial of the group ring, c a rational other than 1 (on
    OSp a monomial divisible by a*d reduces to a polynomial)."""
    ring = grp.ring
    exps = st.tuples(*[
        st.integers(-2 if ring.kind(name) == "laurent" else 0, 2)
        for name in ring.even_names])
    odds = st.sampled_from([(), (0,), (1,), (0, 1)])
    coeff = _rational(nonzero=True).filter(lambda q: q != 1)
    return st.builds(ring.monomial, exps, odds, coeff)


def _arguments(grp):
    """Two single terms, zero and a polynomial: every pair of them is a
    bracket to check."""
    return st.tuples(_single_term(grp), _single_term(grp),
                     st.sampled_from([EVEN, ODD]).flatmap(
                         lambda p: _homogeneous(grp, p)),
                     _single_term(grp)).map(
        lambda t: [t[0], t[1], grp.ring.zero(), t[2] + t[3]])


def _display_and_generators(grp):
    display = [grp.parse(text) for _, text in grp.display]
    return display + [grp.var(name) for name in grp.coordinates]


class TestTermProducts:
    @pytest.mark.parametrize("key", list(FROZEN_NAMED), ids=_case_id)
    def test_named_brackets_equal_frozen_loop(self, key):
        structure = named_structure(*key)
        elements = _display_and_generators(structure.group)
        for f, g in itertools.product(elements, repeat=2):
            assert structure.bracket(f, g) == \
                _frozen_loop_bracket(structure, f, g), (f, g)

    @pytest.mark.parametrize("fid", sorted(_COBOUNDARY_FAMILIES))
    def test_coboundary_brackets_equal_frozen_loop(self, fid):
        gname, params = _COBOUNDARY_FAMILIES[fid]
        warm = group(gname)

        @settings(max_examples=30, deadline=None)
        @given(params, _arguments(warm), st.booleans())
        def check(values, arguments, fresh_first):
            r = family(fid, **values)
            structures = [coboundary_structure(FRESH_GROUPS[gname](), r),
                          coboundary_structure(warm, r)]
            if not fresh_first:
                structures.reverse()
            for f, g in itertools.product(arguments, repeat=2):
                want = _frozen_loop_bracket(structures[0], f, g)
                for structure in structures:
                    assert structure.bracket(f, g) == want, (f, g)

        check()

    @pytest.mark.parametrize("fresh_first", [True, False],
                             ids=["fresh-first", "warm-first"])
    @pytest.mark.parametrize("gname", ["super-e2", "osp"])
    def test_named_brackets_agree_on_warm_and_fresh_groups(self, gname,
                                                          fresh_first):
        fresh = FRESH_GROUPS[gname]()
        for sid in STRUCTURE_IDS[gname]:
            family_id, params, phi_text = poisson._STRUCTURES[gname][sid]
            r = family(family_id, **params) if family_id else None
            phi = parse_wedge_sum(phi_text, fresh.algebra, fresh.ring) \
                if phi_text else None
            structures = [PoissonStructure(fresh, sid, r, phi),
                          named_structure(gname, sid)]
            if not fresh_first:
                structures.reverse()
            elements = _display_and_generators(fresh)
            for f, g in itertools.product(elements, repeat=2):
                want = _frozen_loop_bracket(structures[0], f, g)
                for structure in structures:
                    assert structure.bracket(f, g) == want, (sid, f, g)

    def test_memo_keeps_zero_products_as_one_shared_value(self):
        # polynomial arguments fill the memo through their monomials; each
        # value is B_kj(m, n) = Y_k^(r) m Y_j^(l) n - X_k^(r) m X_j^(l) n
        grp = osp_group()
        structure = coboundary_structure(grp, family("osp-r-a", x=1, y=2, z=3))
        memo = grp.basis_brackets
        elements = _display_and_generators(grp)
        polynomials = [grp.ring.zero(), grp.parse("a*b+alpha*delta"),
                       grp.parse("b-3*c"), grp.parse("a*d")]
        assert all(len(p._terms) != 1 for p in polynomials)
        monomials = set()
        for f, g in itertools.product(polynomials, elements):
            structure.bracket(f, g)
            structure.bracket(Fraction(-3, 2) * g, f)
            monomials.update(itertools.product(f._terms, g._terms))
            monomials.update(itertools.product(g._terms, f._terms))
        names = {(k, j) for k, j, _ in structure.r_entries}
        assert memo and set(memo) <= monomials
        assert all(set(row) == names for row in memo.values())
        values = [value for row in memo.values() for value in row.values()]
        zeros = [value for value in values if value.is_zero()]
        assert zeros and all(value is grp.zero for value in zeros)
        field = _frozen_two_sided(grp)
        for (m, n), row in memo.items():
            for (k, j), value in row.items():
                assert value == (
                    field[k, "Y", "r"].image(m) * field[j, "Y", "l"].image(n)
                    - field[k, "X", "r"].image(m) * field[j, "X", "l"].image(n))
        # the memo is the group's: a second structure with the same r
        # entries reads it and adds nothing
        kept = {key: dict(row) for key, row in memo.items()}
        again = coboundary_structure(grp, family("osp-r-a", x=1, y=2, z=3))
        for f, g in itertools.product(polynomials, elements):
            again.bracket(f, g)
        assert {key: dict(row) for key, row in memo.items()} == kept
        assert all(row[kj] is kept[key][kj]
                   for key, row in memo.items() for kj in row)

    def test_repeated_term_bracket_forms_no_product(self, monkeypatch):
        # every basis bracket B_kj(m, n), zero or not, is read from the
        # group's memo the second time, and nothing is multiplied
        grp = super_e2_group()
        structure = coboundary_structure(
            grp, family("e2-r-b", a=2, b=Fraction(1, 3), f=-1))
        elements = _display_and_generators(grp)
        formed = []
        basis_bracket = poisson.CoordinateRing.basis_bracket
        sum_of_products = Ring.sum_of_products

        def counted_bracket(self, *args):
            formed.append(args)
            return basis_bracket(self, *args)

        def counted_sum(self, products):
            formed.append(products)
            return sum_of_products(self, products)

        monkeypatch.setattr(poisson.CoordinateRing, "basis_bracket",
                            counted_bracket)
        monkeypatch.setattr(Ring, "sum_of_products", counted_sum)
        first = [structure.bracket(f, g)
                 for f, g in itertools.product(elements, repeat=2)]
        assert formed
        formed.clear()
        again = [structure.bracket(f, g)
                 for f, g in itertools.product(elements, repeat=2)]
        assert again == first
        assert formed == []


# The previous `bracket` and `_monomial_bracket`, kept verbatim as the
# reference on a wrapper of the structure they check: {m, n} of two
# monomials formed once per structure and kept in `_pairs`, as the r
# entries' combination of basis brackets plus the Phi products, and a
# coefficient-1 single-term bracket returned as stored.  Two names differ:
# the basis-bracket memo is the wrapper's own `_frozen_basis`, filled by
# `_frozen_basis_bracket`, the previous `CoordinateRing.basis_bracket`, so
# the reference shares no memo with the structure it checks.

def _frozen_basis_bracket(self, k, j, m, n):
    """B_kj(m, n) = Y_k^(r) m * Y_j^(l) n - X_k^(r) m * X_j^(l) n of the
    monomial keys m, n, reduced once; a zero is the group's `zero`."""
    products = []
    field = _frozen_two_sided(self)
    for chirality, sign in (("Y", 1), ("X", -1)):
        lm = field[k, chirality, "r"].image(m)
        if lm._terms:
            rn = field[j, chirality, "l"].image(n)
            if rn._terms:
                products.append((sign, (lm, rn)))
    value = self.ring.sum_of_products(products) if products else self.zero
    return value if value._terms else self.zero


class _FrozenParentStructure:
    def __init__(self, structure):
        self.group = structure.group
        self.phi = structure.phi
        # ((k, j), numerator, denominator) of each r entry; the key objects
        # are shared by every basis bracket this structure stores
        self._r = [((k, j), q.numerator, q.denominator)
                   for k, j, q in structure.r_entries]
        self._pairs = {}  # (monomial m, monomial n) -> {m, n}
        self._frozen_basis = {}

    def bracket(self, f, g):
        """{f, g} = sum of c*d*{m, n} over the terms c*m of f and d*n of g,
        the numerators c*d over the denominator of f times that of g.  Each
        {m, n} is formed once per structure and kept in `_pairs`."""
        den = f._den * g._den
        pairs = self._pairs
        triples = []
        for m, c in f._terms.items():
            for n, d in g._terms.items():
                value = pairs.get((m, n))
                if value is None:
                    value = pairs[m, n] = self._monomial_bracket(m, n)
                if value._terms:
                    triples.append((c * d, den, value))
        if len(triples) == 1 and triples[0][0] == den:
            return triples[0][2]  # 1 * {m, n}: nothing new to form
        return self.group.ring._combination(triples)

    def _monomial_bracket(self, m, n):
        # {m, n} of two coefficient-1 monomials: the rational combination of
        # r^{kj} B_kj(m, n), each basis bracket read from the group's memo,
        # plus the Phi products X_j^(r) m Phi^{jk} X_k^(l) n, reduced once.
        grp = self.group
        ring, field = grp.ring, _frozen_two_sided(grp)
        row = self._frozen_basis.get((m, n))
        if row is None:
            row = self._frozen_basis[m, n] = {}
        triples = []
        for kj, num, den in self._r:
            value = row.get(kj)
            if value is None:
                value = row[kj] = _frozen_basis_bracket(grp, *kj, m, n)
            if value._terms:
                triples.append((num, den, value))
        phi = []
        for (j, k), value in self.phi.items():
            lm = field[j, "X", "r"].image(m)
            if lm._terms:
                rn = field[k, "X", "l"].image(n)
                if rn._terms:
                    phi.append((1, (lm, value, rn)))
        if phi:
            triples.append((1, 1, ring.sum_of_products(phi)))
        value = ring._combination(triples)
        return value if value._terms else grp.zero


def _assert_brackets_equal_frozen_parent(structure, elements):
    frozen = _FrozenParentStructure(structure)
    for f, g in itertools.product(elements, repeat=2):
        assert structure.bracket(f, g) == frozen.bracket(f, g), (f, g)


def _sweep_arguments(structure):
    """The display elements and generators, and the brackets of adjacent
    generators, which are polynomials with several terms."""
    grp = structure.group
    elements = _display_and_generators(grp)
    gens = [grp.var(name) for name in grp.coordinates]
    return elements + [structure.bracket(x, y) for x, y in zip(gens, gens[1:])]


class TestBracketEqualsFrozenParent:
    @pytest.mark.parametrize("key", list(FROZEN_NAMED), ids=_case_id)
    def test_named_structures(self, key):
        structure = _fresh_structure(key)
        _assert_brackets_equal_frozen_parent(structure,
                                             _sweep_arguments(structure))

    def test_phi_without_its_first_term(self):
        structure = _drop_first_phi_term(FRESH_GROUPS["super-e2"](), "iv")
        _assert_brackets_equal_frozen_parent(structure,
                                             _sweep_arguments(structure))

    def test_phi_with_a_multi_term_coefficient(self):
        # Phi^{H,P+} = c*s + a*b: two Phi keys on one pair of fields
        grp = super_e2_group()
        structure = PoissonStructure(grp, "two-terms", family("e2-r-ii"),
                                     parse_wedge_sum(
                                         "c*s H^P+ + a*b H^P+", grp.algebra,
                                         grp.ring))
        assert len(structure.phi[("H", "P+")]._terms) == 2
        assert sum(len(key) == 3 for key, _, _ in structure.coefficients) == 4
        _assert_brackets_equal_frozen_parent(structure,
                                             _sweep_arguments(structure))

    @pytest.mark.parametrize("fid", sorted(_COBOUNDARY_FAMILIES))
    def test_random_coboundary_structures(self, fid):
        gname, params = _COBOUNDARY_FAMILIES[fid]
        warm = group(gname)

        @settings(max_examples=20, deadline=None)
        @given(params, _arguments(warm))
        def check(values, arguments):
            structure = coboundary_structure(warm, family(fid, **values))
            _assert_brackets_equal_frozen_parent(structure, arguments)

        check()


class TestCoboundaryBasis:
    @pytest.mark.parametrize("gname", ["osp", "super-e2"])
    def test_basis_r_matrices_and_pair_sums_fail_at_most_jacobi(self, gname):
        # the coproduct, antisymmetry, Leibniz and vanishing residuals are
        # linear in r: passing on a basis of (wedge^2 g)_even and on the sums
        # of its pairs checks them on every r-matrix; Jacobi is quadratic
        grp = group(gname)
        algebra = grp.algebra
        basis = basis_r_matrices(algebra)
        assert len(basis) == 6
        matrices = basis + [RMatrix(algebra, (x + y).coeffs)
                            for x, y in itertools.combinations(basis, 2)]
        assert len(matrices) == 21
        for r in matrices:
            report = check_axioms(coboundary_structure(grp, r))
            assert set(report.failing_axioms()) <= {"jacobi"}, report.render()
