"""Tests for the supercommutative scalar ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbialg.poisson import group
from superbialg.scalars import (
    Ring,
    ParityError,
    RingMismatchError,
    ScalarParseError,
    reduce_mod_relation,
    rational_sqrt,
)


@pytest.fixture
def ring():
    return Ring([
        ("a", "commuting"), ("b", "commuting"),
        ("E", "laurent"),
        ("xi", "grassmann"), ("eta", "grassmann"),
    ])


@pytest.fixture
def osp_ring():
    return Ring(
        [("a", "commuting"), ("b", "commuting"), ("c", "commuting"),
         ("d", "commuting"), ("alpha", "grassmann"), ("delta", "grassmann")],
        relations=[("a*d-b*c+alpha*delta-1", "a*d")],
    )


class TestGrassmann:
    def test_nilpotency(self, ring):
        xi = ring.var("xi")
        assert (xi * xi).is_zero()

    def test_anticommutation(self, ring):
        xi, eta = ring.var("xi"), ring.var("eta")
        assert xi * eta == -(eta * xi)
        assert not (xi * eta).is_zero()

    def test_three_factor_sign(self, ring):
        xi, eta = ring.var("xi"), ring.var("eta")
        # eta*xi*eta contains eta twice
        assert (eta * xi * eta).is_zero()


class TestLaurent:
    def test_cancellation(self, ring):
        E = ring.var("E")
        assert E * E ** -1 == 1

    def test_negative_powers(self, ring):
        E = ring.var("E")
        assert (E ** -2) * (E ** 3) == E

    def test_commuting_not_invertible(self, ring):
        with pytest.raises(ValueError):
            ring.var("a") ** -1


class TestArithmetic:
    def test_distributes(self, ring):
        a, b, E = ring.var("a"), ring.var("b"), ring.var("E")
        x, y, z = a + b, E - 1, a * b
        assert (x + y) * z == x * z + y * z

    def test_supercommutativity_of_odd(self, ring):
        xi, eta = ring.var("xi"), ring.var("eta")
        a = ring.var("a")
        x = a * xi
        y = eta
        assert x * y == -(y * x)

    def test_parity(self, ring):
        assert ring.var("a").parity() == 0
        assert ring.var("xi").parity() == 1
        assert (ring.var("xi") * ring.var("eta")).parity() == 0
        mixed = ring.var("a") + ring.var("xi")
        assert mixed.parity() is None
        assert not mixed.is_homogeneous()

    def test_ring_mismatch(self, ring, osp_ring):
        with pytest.raises(RingMismatchError):
            ring.var("a") * osp_ring.var("a")


class TestSubstitute:
    def test_polynomial_point(self, ring):
        a = ring.var("a")
        expr = a * a - 1
        assert expr.substitute({"a": 1}).is_zero()

    def test_product_vanishing(self, ring):
        expr = ring.var("a") * ring.var("b")
        assert expr.substitute({"a": 1, "b": 0}).is_zero()

    def test_identity_evaluation_of_laurent(self, ring):
        expr = ring.var("E") ** 2
        assert expr.substitute({"E": 1}) == 1

    def test_grassmann_to_zero(self, ring):
        expr = ring.var("xi") * ring.var("a")
        assert expr.substitute({"xi": 0}).is_zero()

    def test_grassmann_to_odd(self, ring):
        xi, eta = ring.var("xi"), ring.var("eta")
        expr = xi * eta
        assert expr.substitute({"xi": eta}).is_zero()
        flipped = expr.substitute({"xi": eta, "eta": xi})
        assert flipped == eta * xi

    def test_parity_violation(self, ring):
        with pytest.raises(ParityError):
            ring.var("a").substitute({"a": ring.var("xi")})
        with pytest.raises(ParityError):
            ring.var("xi").substitute({"xi": ring.var("a")})


class TestReduction:
    def test_single_rewrite(self, osp_ring):
        ad = osp_ring.parse("a*d")
        assert ad == osp_ring.parse("b*c-alpha*delta+1")

    def test_square_oracle(self, osp_ring):
        # (ad)^2 -> (bc - alpha*delta + 1)^2, expanded by hand with
        # (alpha*delta)^2 = 0
        lhs = osp_ring.parse("a^2*d^2")
        by_hand = osp_ring.parse(
            "b^2*c^2 - 2*b*c*alpha*delta + 2*b*c - 2*alpha*delta + 1")
        assert lhs == by_hand

    def test_irreducible(self, osp_ring):
        bc = osp_ring.parse("b*c")
        assert bc.render() == "b*c"

    def test_idempotent(self, osp_ring):
        x = osp_ring.parse("a^2*d^2+a*b*c*d+alpha*delta")
        again = osp_ring._make(osp_ring._reduce_terms(dict(x._terms)))
        assert again == x

    def test_standalone_reduce(self):
        plain = Ring([("a", "commuting"), ("b", "commuting"),
                      ("m", "commuting")])
        x = plain.parse("m^2")
        reduced = reduce_mod_relation(x, "m^2-a*b", "m^2")
        assert reduced == plain.parse("a*b")
        cubed = reduce_mod_relation(plain.parse("m^3"), "m^2-a*b", "m^2")
        assert cubed == plain.parse("a*b*m")


class TestGrammar:
    def test_render_example(self, ring):
        x = -Fraction(1, 2) * ring.parse("a^2") * ring.var("E") ** -1 \
            * ring.var("xi") * ring.var("eta")
        assert x.render() == "-1/2*a^2*E^-1*xi*eta"
        assert ring.parse(x.render()) == x

    def test_parse_signs(self, ring):
        assert ring.parse("-a+b") == ring.var("b") - ring.var("a")
        assert ring.parse("3/2") == Fraction(3, 2)
        assert ring.parse("0").is_zero()

    def test_reject_grassmann_power(self, ring):
        with pytest.raises(ScalarParseError):
            ring.parse("xi^2")

    def test_reject_unknown_name(self, ring):
        with pytest.raises(ScalarParseError):
            ring.parse("q")

    def test_zero_renders(self, ring):
        assert ring.zero().render() == "0"


# -- randomized property suite ----------------------------------------------

def _elements(ring):
    coeffs = st.integers(-4, 4).map(Fraction)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.integers(-2, 2))
    odds = st.sampled_from([(), (0,), (1,), (0, 1)])
    term = st.tuples(exps, odds, coeffs)

    def build(terms):
        total = ring.zero()
        for e, o, c in terms:
            total = total + ring.monomial(e, o, c)
        return total

    return st.lists(term, min_size=0, max_size=4).map(build)


RING = Ring([
    ("a", "commuting"), ("b", "commuting"), ("E", "laurent"),
    ("xi", "grassmann"), ("eta", "grassmann"),
])


@settings(max_examples=400, deadline=None)
@given(_elements(RING), _elements(RING), _elements(RING))
def test_canonical_two_ways(x, y, z):
    assert (x + y) * z == x * z + y * z


@settings(max_examples=400, deadline=None)
@given(_elements(RING), _elements(RING))
def test_supercommutativity(x, y):
    for xp in x.homogeneous_parts():
        for yp in y.homogeneous_parts():
            if xp.is_zero() or yp.is_zero():
                continue
            sign = -1 if (xp.parity() and yp.parity()) else 1
            assert xp * yp == sign * (yp * xp)


@settings(max_examples=400, deadline=None)
@given(_elements(RING), _elements(RING), _elements(RING))
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=200, deadline=None)
@given(_elements(RING))
def test_parse_render_roundtrip(x):
    assert RING.parse(x.render()) == x


def test_rational_sqrt():
    assert rational_sqrt(Fraction(36)) == 6
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


OSP_RING = Ring(
    [("a", "commuting"), ("b", "commuting"), ("c", "commuting"),
     ("d", "commuting"), ("alpha", "grassmann"), ("delta", "grassmann")],
    relations=[("a*d-b*c+alpha*delta-1", "a*d")],
)


def _osp_elements():
    coeffs = st.integers(-4, 4).map(Fraction)
    exps = st.tuples(*[st.integers(0, 2)] * 4)
    odds = st.sampled_from([(), (0,), (1,), (0, 1)])
    term = st.tuples(exps, odds, coeffs)

    def build(terms):
        total = OSP_RING.zero()
        for e, o, c in terms:
            total = total + OSP_RING.monomial(e, o, c)
        # the product with one reduces modulo the relation
        return total * OSP_RING.one()

    return st.lists(term, min_size=0, max_size=4).map(build)


@settings(max_examples=200, deadline=None)
@given(_osp_elements(), _osp_elements(), _osp_elements())
def test_canonical_two_ways_osp(x, y, z):
    assert (x + y) * z == x * z + y * z


@settings(max_examples=200, deadline=None)
@given(_osp_elements(), _osp_elements(), _osp_elements())
def test_associativity_osp(x, y, z):
    assert (x * y) * z == x * (y * z)


_RATIONALS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    st.sampled_from([0, Fraction(0)]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_elements(RING), _osp_elements()), _RATIONALS)
def test_rational_factor_equals_constant_scalar(x, q):
    want = x * x.ring.scalar(q)
    for got in (x * q, q * x):
        assert got == want
        assert all(type(c) is Fraction for _, _, c in got.terms())


def test_ring_mismatch_on_every_product():
    twin = Ring([
        ("a", "commuting"), ("b", "commuting"), ("E", "laurent"),
        ("xi", "grassmann"), ("eta", "grassmann"),
    ])
    x = RING.parse("a+xi")
    # an equal ring built separately is the same ring
    assert x * twin.parse("b") == RING.parse("a*b+b*xi")
    for left, right in ((x, OSP_RING.var("a")), (OSP_RING.var("a"), x),
                        (RING.zero(), OSP_RING.zero()),
                        (OSP_RING.one(), RING.one())):
        with pytest.raises(RingMismatchError):
            left * right


def test_monomial_is_in_normal_form():
    ring = group("osp").ring
    assert ring.monomial((1, 0, 0, 1), ()) == ring.parse("a*d")
