"""Tests for the supercommutative scalar ring."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbialg.poisson import group
from superbialg.scalars import (
    EVEN,
    GRASSMANN,
    ODD,
    Q,
    Ring,
    ParityError,
    ReductionError,
    RingMismatchError,
    ScalarParseError,
    SuperScalar,
    reduce_mod_relation,
    rational_sqrt,
)
from test_exact_kernel import _element, _values


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


def test_pow_makes_no_spare_multiplies(osp_ring, monkeypatch):
    # square-and-multiply: x ** 1 is x itself, x ** 4 is two squarings
    x = osp_ring.parse("a+alpha*delta")
    calls = []
    mul = SuperScalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(SuperScalar, "__mul__", counted)

    def count(f):
        calls.clear()
        value = f()
        return len(calls), value

    assert count(lambda: x ** 1) == (0, x)
    muls, x4 = count(lambda: x ** 4)
    assert muls == 2 and x4 == mul(mul(x, x), mul(x, x))
    muls, x5 = count(lambda: x ** 5)
    assert muls == 3 and x5 == mul(x4, x)
    assert count(lambda: x ** 0) == (0, osp_ring.one())
    muls, abc = count(lambda: osp_ring.parse("a*b*c"))
    assert muls <= 3
    assert abc == mul(mul(osp_ring.var("a"), osp_ring.var("b")), osp_ring.var("c"))


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
        again = osp_ring._reduced(dict(x._terms), x._den)
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


@pytest.mark.parametrize("inexact", [0.25, 4.0, Decimal("0.25")],
                         ids=["float", "integral-float", "decimal"])
def test_rational_sqrt_refuses_inexact(inexact):
    with pytest.raises(TypeError):
        rational_sqrt(inexact)


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


# -- the ring map against the substitution loop it replaced --------------------
#
# The previous SuperScalar.substitute body, kept verbatim as the reference
# for `substitute`, which now goes through `SuperScalar.map`.

def _frozen_substitute(x, bindings):
    ring = x.ring
    vals = {}
    for name, value in bindings.items():
        kind = ring._kinds.get(name)
        if kind is None:
            raise KeyError(f"no variable {name!r} in ring")
        value = ring.coerce(value)
        if not value.is_zero():
            want = ODD if kind == GRASSMANN else EVEN
            if value.parity() != want:
                raise ParityError(
                    f"binding for {name!r} must be "
                    f"{'odd' if want else 'even'}")
        vals[name] = value
    result = ring.zero()
    for (exps, odds), coeff in x._terms.items():
        acc = ring.scalar(coeff)
        for pos, k in enumerate(exps):
            if not k:
                continue
            name = ring._evens[pos]
            if name in vals:
                acc = acc * (vals[name] ** k)
            else:
                exp_vec = list(ring._zero_exps)
                exp_vec[pos] = k
                acc = acc * ring.monomial(exp_vec, ())
        for oi in odds:
            name = ring._odds[oi]
            factor = vals.get(name)
            if factor is None:
                factor = ring.monomial(ring._zero_exps, (oi,))
            acc = acc * factor
            if acc.is_zero():
                break
        result = result + acc
    return result


def _bindings(ring, elements):
    """Random parity-preserving bindings of a subset of the variables.  A
    Laurent variable takes an invertible image (a nonzero multiple of a
    power of itself), so negative powers invert it; a Grassmann variable
    may take another Grassmann generator, reordering the factors."""
    def value(name):
        kind = ring.kind(name)
        if kind == "laurent":
            return st.tuples(st.sampled_from([-2, -1, 1, 3]),
                             st.integers(-2, 2)).map(
                lambda ck: ck[0] * ring.var(name) ** ck[1])
        part = 1 if kind == "grassmann" else 0
        drawn = elements.map(lambda x: x.homogeneous_parts()[part])
        if kind == "grassmann":
            drawn = st.one_of(drawn, st.sampled_from(
                [ring.var(n) for n in ring.odd_names] + [0]))
        return st.one_of(drawn, st.integers(-2, 2)) if part == 0 else drawn

    return st.fixed_dictionaries({}, optional={
        name: value(name) for name in ring.names})


class TestSubstituteIsTheRingMap:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_frozen_substitute(self, data):
        elements = data.draw(st.sampled_from(
            [(RING, _elements(RING)), (OSP_RING, _osp_elements())]))
        ring, strategy = elements
        x = data.draw(strategy)
        bindings = data.draw(_bindings(ring, strategy))
        assert x.substitute(bindings) == _frozen_substitute(x, bindings)

    def test_swapped_grassmann_generators(self, ring):
        xi, eta, E = ring.var("xi"), ring.var("eta"), ring.var("E")
        x = ring.parse("2*a*E^-2*xi*eta - E^-1*eta + xi")
        swap = {"xi": eta, "eta": xi, "E": 3 * E ** -1}
        assert x.substitute(swap) == _frozen_substitute(x, swap) \
            == ring.parse("-2/9*a*E^2*xi*eta - 1/3*E*xi + eta")

    def test_map_into_another_ring(self, ring, osp_ring):
        x = ring.parse("a*E^-1*xi + b^2")
        images = {"a": osp_ring.parse("a"), "b": osp_ring.parse("b+c"),
                  "E": osp_ring.one(), "xi": osp_ring.parse("alpha"),
                  "eta": osp_ring.parse("delta")}
        assert x.map(osp_ring, images) == osp_ring.parse("a*alpha+b^2+2*b*c+c^2")


# -- convert against the remapping loop it replaced -----------------------------
#
# The previous SuperScalar.convert body, kept as the reference for `convert`,
# which now goes through `SuperScalar.map`.  It reads and builds exact
# coefficient dicts through the helpers of test_exact_kernel.

def _frozen_convert(x, target):
    if target == x.ring:
        return _element(target, _values(x))
    even_map = []
    for name in x.ring._evens:
        if name not in target._even_pos or target.kind(name) != x.ring.kind(name):
            raise RingMismatchError(f"target ring lacks variable {name!r}")
        even_map.append(target._even_pos[name])
    odd_map = []
    for name in x.ring._odds:
        if name not in target._odd_pos:
            raise RingMismatchError(f"target ring lacks Grassmann variable {name!r}")
        odd_map.append(target._odd_pos[name])
    out = {}
    zero = (0,) * len(target._evens)
    for (exps, odds), coeff in _values(x).items():
        new_exps = list(zero)
        for pos, e in enumerate(exps):
            if e:
                new_exps[even_map[pos]] = e
        mapped = [odd_map[i] for i in odds]
        sign = 1
        # insertion sort, flipping the sign per transposition
        for i in range(1, len(mapped)):
            j = i
            while j > 0 and mapped[j - 1] > mapped[j]:
                mapped[j - 1], mapped[j] = mapped[j], mapped[j - 1]
                sign = -sign
                j -= 1
        key = (tuple(new_exps), tuple(mapped))
        acc = out.get(key, Fraction(0)) + sign * coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return _element(target, out)


def _ring_elements(ring):
    """Sums of up to four random terms of any ring, with negative powers of
    its Laurent variables and any set of its Grassmann generators."""
    exps = st.tuples(*[st.integers(-2 if ring.kind(n) == "laurent" else 0, 2)
                       for n in ring.even_names])
    odds = st.sets(st.sampled_from(range(len(ring.odd_names)))).map(
        lambda s: tuple(sorted(s)))
    term = st.tuples(exps, odds, st.integers(-4, 4).map(Fraction))

    def build(terms):
        total = ring.zero()
        for e, o, c in terms:
            total = total + ring.monomial(e, o, c)
        return total

    return st.lists(term, max_size=4).map(build)


# RING and OSP_RING with their variables listed in other orders, Grassmann
# generators interleaved; SHUFFLED carries an extra variable
SHUFFLED = Ring([("eta", "grassmann"), ("E", "laurent"), ("t", "commuting"),
                 ("xi", "grassmann"), ("b", "commuting"), ("a", "commuting")])
OSP_FREE = Ring([("delta", "grassmann"), ("d", "commuting"),
                 ("alpha", "grassmann"), ("c", "commuting"),
                 ("b", "commuting"), ("a", "commuting")])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(RING, SHUFFLED), (OSP_FREE, OSP_RING),
                        (OSP_RING, OSP_FREE), (RING, RING)]).flatmap(
    lambda pair: st.tuples(st.just(pair[1]), _ring_elements(pair[0]))))
def test_convert_equals_frozen_convert(drawn):
    target, x = drawn
    assert x.convert(target) == _frozen_convert(x, target)


@pytest.mark.parametrize("target", [
    Ring([("a", "commuting"), ("E", "laurent"), ("xi", "grassmann"),
          ("eta", "grassmann")]),                                # lacks b
    Ring([("a", "commuting"), ("b", "commuting"), ("E", "commuting"),
          ("xi", "grassmann"), ("eta", "grassmann")]),           # E's kind
    Ring([("a", "commuting"), ("b", "commuting"), ("E", "laurent"),
          ("xi", "commuting"), ("eta", "grassmann")]),           # xi's kind
], ids=["missing-name", "kind-mismatch", "grassmann-as-even"])
def test_convert_mismatch_raises(target):
    x = RING.parse("a*E^-1*xi + b")
    for convert in (SuperScalar.convert, _frozen_convert):
        with pytest.raises(RingMismatchError):
            convert(x, target)


# -- rewrite soundness with several relations ----------------------------------

def test_overlapping_leading_monomials_are_rejected():
    variables = [(n, "commuting") for n in "abcd"]
    with pytest.raises(ReductionError, match="'a\\*d' and 'a\\*b'"):
        Ring(variables, relations=[("a*d-c", "a*d"), ("a*b-d", "a*b")])
    # leads with no common variable are accepted
    Ring(variables, relations=[("a*d-c", "a*d"), ("b*c-1", "b*c")])


def test_osp_square_ring_is_accepted():
    relations = group("osp").square()._relation_spec
    assert [lead for _, lead in relations] == ["a1*d1", "a2*d2"]


_SQUARE = group("osp").square()
_SQUARE_SWAPPED = Ring(
    [(n, _SQUARE.kind(n)) for n in _SQUARE.names],
    relations=list(reversed(_SQUARE._relation_spec)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.tuples(*[st.integers(0, 2)] * len(_SQUARE.even_names)),
    st.integers(-3, 3).filter(bool)), max_size=3))
def test_square_normal_form_ignores_relation_order(terms):
    # the same polynomial, reduced with the two relations in either order
    forms = []
    for ring in (_SQUARE, _SQUARE_SWAPPED):
        x = ring.zero()
        for exps, c in terms:
            x = x + ring.monomial(exps, (), c)
        forms.append(x.render())
    assert forms[0] == forms[1]


# -- rendering ---------------------------------------------------------------

def _frozen_render(x):
    # the previous SuperScalar.render: each coefficient a Fraction
    if not x._terms:
        return "0"
    pieces = []
    den = x._den
    for key in sorted(x._terms, reverse=True):
        exps, odds = key
        coeff = x._terms[key]
        if den != 1:
            coeff = Fraction(coeff, den)
        factors = []
        for pos, e in enumerate(exps):
            if not e:
                continue
            name = x.ring._evens[pos]
            factors.append(name if e == 1 else f"{name}^{e}")
        factors.extend(x.ring._odds[i] for i in odds)
        mag = coeff if coeff > 0 else -coeff
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += sign + body
    return text


def _fractional_elements(ring):
    """Zero and sums of up to five terms with negative and fractional
    coefficients over denominators that share factors, so the stored
    numerators share factors with the common denominator; negative Laurent
    exponents and any set of Grassmann generators."""
    exps = st.tuples(*[st.integers(-3 if ring.kind(n) == "laurent" else 0, 3)
                       for n in ring.even_names])
    odds = st.sets(st.sampled_from(range(len(ring.odd_names)))).map(
        lambda s: tuple(sorted(s))) if ring.odd_names else st.just(())
    coeffs = st.builds(Fraction, st.integers(-12, 12),
                       st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]))
    return st.dictionaries(st.tuples(exps, odds), coeffs, max_size=5).map(
        lambda values: _element(ring, values))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([RING, OSP_RING, Q]).flatmap(_fractional_elements))
def test_render_equals_frozen_render(x):
    text = x.render()
    assert text == _frozen_render(x)
    assert x.ring.parse(text) == x
