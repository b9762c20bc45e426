"""The fraction-free exact kernel against the kernels it replaced.

A scalar is stored as int numerators over one positive denominator, in
lowest terms, and `SuperScalar.__mul__`, the relation rewriter,
`SuperScalar.map` and `PoissonStructure.bracket` do integer arithmetic
only: they form products unreduced and reduce once, memoize normal forms
per ring, and cancel one gcd per result.  `cocycles._rref` updates only the
live columns of a pivot row.  The previous bodies are kept below as
references, working on term dicts with Fraction coefficients; the kernel's
results, read as such dicts by `_values`, must equal theirs, and every
result must be in lowest terms (`_stored`).  Since `==` compares stored
forms, equal values reached by different routes must be stored alike.
`Ring.sum_of_products` over a ring without variables, which is Q, is
checked against the `Fraction` sum and against the generic kernel, and
`CoordinateRing.tensor_sum` against the product of the previous slot
embeddings.
"""

import math
from decimal import Decimal
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from superbialg.bialgebra import family
from superbialg.cocycles import _rref, nullspace, span_solve
from superbialg.poisson import group, named_structure
from test_poisson import _frozen_two_sided
from superbialg.scalars import (
    ReductionError,
    Ring,
    RingMismatchError,
    _divides,
    _merge_grassmann,
    _sum_of_products,
    parse_rational,
    reduce_mod_relation,
)

E2 = group("super_e2")
OSP = group("osp")
SQUARE = OSP.square()
CONSTANTS = Ring([])


# -- the previous kernels, kept as references ---------------------------------

def _frozen_rules(ring):
    """The ring's rules as the previous `_compile_relation` built them: the
    relation parsed without reduction, replacement = lead - relation."""
    free = Ring([(n, ring.kind(n)) for n in ring.names])
    rules = []
    for rel_text, lead_text in ring._relation_spec:
        (lead_key, _), = free.parse(lead_text)._terms.items()
        replacement = free.monomial(*lead_key) - free.parse(rel_text)
        rules.append((lead_key[0], _values(replacement)))
    return tuple(rules)


def _frozen_mul(left, right, rules):
    # the previous SuperScalar.__mul__ loop, reducing its result
    out = {}
    get = out.get
    right = list(right.items())
    for (e1, o1), c1 in left.items():
        for (e2, o2), c2 in right:
            if o1 and o2:
                odds, sign = _merge_grassmann(o1, o2)
                if odds is None:
                    continue
            else:
                odds, sign = o1 or o2, 1
            key = (tuple(map(add, e1, e2)), odds)
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            acc = get(key)
            out[key] = c if acc is None else acc + c
    out = {key: c for key, c in out.items() if c}
    return _frozen_rewrite(out, rules) if rules else out


def _frozen_rewrite(terms, rules):
    # the previous `_rewrite`: one rule application per step, from the start
    for _ in range(10000):
        rewritten = None
        for lead_exps, replacement in rules:
            for (exps, odds), coeff in terms.items():
                if _divides(lead_exps, exps):
                    rewritten = ((exps, odds), coeff, lead_exps, replacement)
                    break
            if rewritten:
                break
        if rewritten is None:
            return terms
        (exps, odds), coeff, lead_exps, replacement = rewritten
        terms = dict(terms)
        del terms[(exps, odds)]
        quotient = {(tuple(e - l for e, l in zip(exps, lead_exps)), odds): coeff}
        for key, c in _frozen_mul(quotient, replacement, rules).items():
            acc = terms.get(key, Fraction(0)) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
    raise ReductionError("relation rewriting did not terminate")


def _frozen_power(terms, k, rules):
    if k < 0:
        (exps, _), coeff = next(iter(terms.items()))
        terms = _frozen_rewrite(
            {(tuple(-e for e in exps), ()): Fraction(1) / coeff}, rules)
        k = -k
    acc = terms
    for _ in range(k - 1):
        acc = _frozen_mul(acc, terms, rules)
    return acc


def _frozen_map(x, target, images):
    # the previous SuperScalar.map: reduce after every factor
    rules = _frozen_rules(target)
    ring = x.ring
    evens = [_values(images[name]) for name in ring._evens]
    odds = [_values(images[name]) for name in ring._odds]
    out = {}
    for (exps, odd_idx), coeff in _values(x).items():
        acc = {(target._zero_exps, ()): Fraction(coeff)}
        for pos, k in enumerate(exps):
            if k:
                acc = _frozen_mul(acc, _frozen_power(evens[pos], k, rules), rules)
        for oi in odd_idx:
            acc = _frozen_mul(acc, odds[oi], rules)
        for key, c in acc.items():
            out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def _frozen_bracket(structure, f, g):
    # the previous bracket: each (left field, coefficient, right field)
    # triple's product reduced, then summed; the fields are the frozen
    # two-sided ones, right-hand images by the right Leibniz rule
    fields = _frozen_two_sided(structure.group)

    def field(*key):
        return fields[key]

    triples = []
    for k, j, coeff in structure.r_entries:
        triples.append((field(k, "Y", "r"), coeff, field(j, "Y", "l")))
        triples.append((field(k, "X", "r"), -coeff, field(j, "X", "l")))
    for (j, k), value in structure.phi.items():
        triples.append((field(j, "X", "r"), value, field(k, "X", "l")))
    total = structure.group.ring.zero()
    for lfield, coeff, rfield in triples:
        total = total + lfield(f) * coeff * rfield(g)
    return total


def _frozen_rref(rows, ncols, rhs=None):
    # the previous cocycles._rref: every row update recomputes every column
    m = [[Fraction(x) for x in row] for row in rows]
    if rhs is not None:
        for row, value in zip(m, rhs):
            row.append(value)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((rr for rr in range(r, len(m)) if m[rr][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        pivot = [x * inv for x in m[r][col:]]
        m[r][col:] = pivot
        for rr, row in enumerate(m):
            factor = row[col]
            if rr != r and factor:
                row[col:] = [a - factor * b for a, b in zip(row[col:], pivot)]
        pivots.append(col)
    return m, pivots, None if rhs is None else [row.pop() for row in m]


# -- strategies ----------------------------------------------------------------

# integral Fractions included, so the stored form has something to normalize
_COEFFS = st.one_of(st.integers(-4, 4), st.sampled_from(
    [Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2), Fraction(-2, 3)]))


def _term_dicts(ring, max_exp=2, max_size=4):
    """Random zero-free term dicts, not reduced: negative powers of the
    Laurent variables, any set of Grassmann generators."""
    exps = st.tuples(*[st.integers(-2 if ring.kind(n) == "laurent" else 0,
                                   max_exp) for n in ring.even_names])
    odds = st.sets(st.sampled_from(range(len(ring.odd_names))) if
                   ring.odd_names else st.nothing()).map(
        lambda s: tuple(sorted(s)))
    return st.dictionaries(st.tuples(exps, odds), _COEFFS.filter(bool),
                           max_size=max_size)


def _elements(ring, max_exp=2, max_size=4):
    def build(terms):
        total = ring.zero()
        for (exps, odds), c in terms.items():
            total = total + ring.monomial(exps, odds, c)
        return total
    return _term_dicts(ring, max_exp, max_size).map(build)


RINGS = [E2.ring, OSP.ring, SQUARE, CONSTANTS]


def _values(x):
    """The exact coefficients of `x`, {key: Fraction}, for comparison with
    the references."""
    return {key: Fraction(c, x._den) for key, c in x._terms.items()}


def _element(ring, values):
    """The element of `ring` whose coefficients are `values`, a term dict
    with rational coefficients, in normal form."""
    den = math.lcm(*[Fraction(c).denominator for c in values.values()])
    return ring._reduced({key: int(c * den) for key, c in values.items()}, den)


def _stored(x):
    """The stored form is in lowest terms: nonzero int numerators over a
    positive int denominator whose gcd with all of them is 1, so zero has
    denominator 1."""
    nums = list(x._terms.values())
    return (all(type(c) is int and c for c in nums) and type(x._den) is int
            and x._den >= 1 and math.gcd(x._den, *nums) == 1)


# -- products and the rewriter -------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS).flatmap(
    lambda ring: st.tuples(_elements(ring, 1 if ring is SQUARE else 2),
                           _elements(ring, 1 if ring is SQUARE else 2))),
       _COEFFS)
def test_product_equals_frozen(pair, q):
    x, y = pair
    rules = _frozen_rules(x.ring)
    product = x * y
    assert _values(product) == _frozen_mul(_values(x), _values(y), rules)

    def fraction_sum(*parts):
        # the sum of r * values over the (rational r, values) parts
        out = {}
        for r, values in parts:
            for key, c in values.items():
                out[key] = out.get(key, Fraction(0)) + r * c
        return {key: c for key, c in out.items() if c}

    vx, vy = _values(x), _values(y)
    assert _values(x + y) == fraction_sum((1, vx), (1, vy))
    assert _values(x - y) == fraction_sum((1, vx), (-1, vy))
    assert _values(-x) == fraction_sum((-1, vx))
    assert _values(q * x) == _values(x * q) == fraction_sum((q, vx))
    assert _values(q - x) == fraction_sum((1, _values(x.ring.scalar(q))),
                                          (-1, vx))
    for value in (product, x + y, x - y, -x, x * Fraction(3, 2), Fraction(2, 3) * y,
                  x * Fraction(4, 2), x * 2, q * x):
        assert _stored(value)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(OSP.ring, 3), (SQUARE, 2)]).flatmap(
    lambda drawn: st.tuples(st.just(drawn[0]), _term_dicts(*drawn))))
def test_rewrite_equals_frozen(drawn):
    ring, terms = drawn
    want = _frozen_rewrite(terms, _frozen_rules(ring))
    # in a fresh ring, so the memo starts empty, and in the shared one
    fresh = Ring([(n, ring.kind(n)) for n in ring.names], ring._relation_spec)
    for r in (fresh, ring):
        got = _element(r, terms)
        assert _values(got) == want and _stored(got)


@settings(max_examples=30, deadline=None)
@given(_term_dicts(OSP.ring, 3, 5))
def test_reduce_mod_relation_equals_frozen(terms):
    free = Ring([(n, OSP.ring.kind(n)) for n in OSP.ring.names])
    x = free.zero()
    for (exps, odds), c in terms.items():
        x = x + free.monomial(exps, odds, c)
    got = reduce_mod_relation(x, "a*d-b*c+alpha*delta-1", "a*d")
    assert _values(got) == _frozen_rewrite(_values(x), _frozen_rules(OSP.ring))
    assert _stored(got)


# -- sums of products over Q ----------------------------------------------------

_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_Q_PRODUCTS = st.lists(st.tuples(
    st.one_of(st.integers(-3, 3), _RATIONALS),
    st.lists(st.one_of(st.just(0), _RATIONALS).map(CONSTANTS.scalar),
             max_size=3).map(tuple)), max_size=5)


def _generic_sum_of_products(ring, products):
    # the kernel every ring with variables takes, on the same products
    checked = []
    for q, factors in products:
        q = Fraction(q)
        checked.append((q.numerator,
                        q.denominator * math.prod(x._den for x in factors),
                        [x._terms for x in factors]))
    return ring._reduced(*_sum_of_products(checked, (ring._zero_exps, ())))


@settings(max_examples=100, deadline=None)
@given(_Q_PRODUCTS)
def test_sum_over_q_equals_the_fraction_sum_and_the_generic_kernel(products):
    got = CONSTANTS.sum_of_products(products)
    assert got.as_fraction() == sum(
        (Fraction(q) * math.prod(x.as_fraction() for x in factors)
         for q, factors in products), Fraction(0))
    # stored as the generic kernel stores it: int numerators, lowest terms
    want = _generic_sum_of_products(CONSTANTS, products)
    assert got._terms == want._terms and got._den == want._den
    assert _stored(got)


def test_sum_over_q_edge_cases():
    half, unit = CONSTANTS.scalar(Fraction(1, 2)), ((), ())
    assert CONSTANTS._is_q and not E2.ring._is_q and not Ring(
        [("p", "commuting")])._is_q
    # so a ring without variables has no relations
    with pytest.raises(ReductionError, match="must not be 1"):
        Ring([], relations=[("1", "1")])
    for products in ([], [(3, (half, CONSTANTS.zero()))],
                     [(1, (half,)), (-1, (half,))],
                     [(Fraction(2, 3), (half, half)), (Fraction(-1, 6), ())]):
        got = CONSTANTS.sum_of_products(products)
        assert (got._terms, got._den) == ({}, 1)
    for q, stored in ((Fraction(-3, 4), ({unit: -3}, 4)), (5, ({unit: 5}, 1))):
        got = CONSTANTS.sum_of_products([(q, ())])
        assert (got._terms, got._den) == stored
    got = CONSTANTS.sum_of_products([(Fraction(4, 3), (half, half, half))])
    assert (got._terms, got._den) == ({unit: 1}, 6)
    # an equal ring built apart is the same ring
    assert Ring([]).sum_of_products([(2, (half,))]) == 1
    for inexact in (0.5, 2.0, Decimal("0.5")):
        with pytest.raises(TypeError):
            CONSTANTS.sum_of_products([(inexact, (half,))])
    for stranger in (E2.ring.one(), Ring([("p", "commuting")]).scalar(2)):
        with pytest.raises(RingMismatchError):
            CONSTANTS.sum_of_products([(1, (half, stranger))])


# -- the ring map --------------------------------------------------------------

def _frozen_embedding(grp, slot):
    """The images of the previous slot embedding: each variable to its
    namesake tagged with `slot` in the square, a parameter to itself."""
    tring = grp.square()
    return {n: tring.var(n if n in grp.params else f"{n}{slot}")
            for n in grp.ring.names}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([E2, OSP]).flatmap(
    lambda grp: st.tuples(st.just(grp), _elements(grp.ring, 2, 3))))
def test_coproduct_and_embeddings_equal_frozen(drawn):
    grp, x = drawn
    square = grp.square()
    for got, images in ((grp.coproduct(x), grp._generator_coproducts()),
                        (grp.tensor_sum([(1, x, 1)]), _frozen_embedding(grp, 1)),
                        (grp.tensor_sum([(1, 1, x)]), _frozen_embedding(grp, 2))):
        assert _values(got) == _frozen_map(x, square, images)
        assert _stored(got)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([E2, OSP]).flatmap(
    lambda grp: st.tuples(st.just(grp), _elements(grp.ring, 2, 3),
                          _elements(grp.ring, 2, 3))))
def test_tensor_equals_the_product_of_the_frozen_embeddings(drawn):
    # on super-E(2) the draws carry c, shared by both slots, and negative
    # powers of E; the product is reduced, the tensor is not
    grp, x, y = drawn
    square = grp.square()
    want = _frozen_mul(_frozen_map(x, square, _frozen_embedding(grp, 1)),
                       _frozen_map(y, square, _frozen_embedding(grp, 2)),
                       _frozen_rules(square))
    got = grp.tensor_sum([(1, x, y)])
    assert _values(got) == want and _stored(got)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([E2.ring, OSP.ring]).flatmap(
    lambda ring: st.tuples(_elements(ring), st.lists(_elements(ring), min_size=2,
                                                     max_size=2))))
def test_substitute_equals_frozen(drawn):
    x, (u, v) = drawn
    ring = x.ring
    # an even value for the first two even variables, Laurent ones untouched
    names = [n for n in ring.even_names if ring.kind(n) != "laurent"][:2]
    bindings = {names[0]: u.homogeneous_parts()[0], names[1]: Fraction(1, 2)}
    images = {n: ring.var(n) for n in ring.names}
    images.update({n: ring.coerce(value) for n, value in bindings.items()})
    got = x.substitute(bindings)
    assert _values(got) == _frozen_map(x, ring, images)
    assert _stored(got)


# -- one stored form per value -------------------------------------------------

def _same(*values):
    # equal, and stored alike: `==` compares the stored forms
    first = values[0]
    for other in values:
        assert _stored(other)
        assert other == first
        assert (other._terms, other._den) == (first._terms, first._den)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda ring: st.tuples(*[
    _elements(ring, 1 if ring is SQUARE else 2, 3) for _ in range(3)])),
    _COEFFS, _COEFFS)
def test_equal_values_by_different_routes_are_stored_alike(drawn, q, r):
    x, y, z = drawn
    ring = x.ring
    _same(x * Fraction(1, 3) * 3, x)
    _same(x * Fraction(1, 3) + x * Fraction(1, 6), x * Fraction(1, 2))
    _same(ring.sum_of_products([(q, (x, y, z)), (r, (y, z))]),
          q * x * y * z + r * y * z, (q * x + r) * y * z)
    even, odd = x.homogeneous_parts()
    _same(even + odd, odd + even, x)
    # an even value for the first non-Laurent even variable
    bindings = {n: y.homogeneous_parts()[0] * Fraction(2, 3) for n in
                [n for n in ring.even_names if ring.kind(n) != "laurent"][:1]}
    images = {n: ring.var(n) for n in ring.names}
    images.update(bindings)
    _same(x.map(ring, images), x.substitute(bindings))


# -- fields and brackets -------------------------------------------------------

_STRUCTURES = [("osp", "3"), ("super_e2", "i"), ("super_e2", "iv")]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_STRUCTURES).flatmap(
    lambda sid: st.tuples(st.just(sid), _elements(group(sid[0]).ring, 1, 2),
                          _elements(group(sid[0]).ring, 1, 2))))
def test_bracket_equals_frozen(drawn):
    (name, sid), f, g = drawn
    structure = named_structure(name, sid)
    got = structure.bracket(f, g)
    assert got == _frozen_bracket(structure, f, g)
    assert _stored(got)
    field = group(name).field(structure.group.algebra.basis[0], "X")
    assert _stored(field(f)) and _stored(field(f * Fraction(2, 3)))


# -- the relation rewriter: cycles and depth -------------------------------------

def test_cycle_raises_through_ring_arithmetic():
    # a*d -> a^2 + d^2 rewrites a^2*d^2 back to itself: a^2 lies above a*d
    # in the degree-lexicographic order, so the ring is refused when built
    with pytest.raises(ReductionError, match="not below its leading monomial"):
        Ring([("a", "commuting"), ("d", "commuting")],
             relations=[("a*d-a^2-d^2", "a*d")])


@pytest.mark.parametrize("relations, message", [
    # a^2 has the degree of a*d and a larger exponent of a
    ([("a*d-a^2-d^2", "a*d")], "not below its leading monomial 'a\\*d'"),
    ([("a-d^2", "a")], "not below its leading monomial 'a'"),
    # b -> a -> b: with both leading variables ranked, one rule must rise
    ([("b-a", "b"), ("a-b", "a")], "not below its leading monomial 'b'"),
    ([("a^2-E^-1", "a^2")], "negative exponent"),
    # 1 = 0 would make every element zero
    ([("1", "1")], "must not be 1"),
])
def test_relations_must_lower_their_leading_monomial(relations, message):
    variables = [(n, "commuting") for n in "abd"] + [("E", "laurent")]
    with pytest.raises(ReductionError, match=message):
        Ring(variables, relations=relations)


@pytest.mark.parametrize("relations", [
    [("a*d-b*c+alpha*delta-1", "a*d")],  # OSp
    [("a*d-b*c-1", "a*d")], [("a*d-b*c-2", "a*d")],
    [("m^2-a*b", "m^2")], [("m^2-3*b", "m^2")],  # family roots
    [("b-a", "b")],  # equal degree: the leading variable ranks first
    [("a*d-c", "a*d"), ("b*c-1", "b*c")],
])
def test_terminating_relations_are_accepted(relations):
    variables = [(n, "commuting") for n in "abcdm"] + [
        ("alpha", "grassmann"), ("delta", "grassmann")]
    Ring(variables, relations=relations)


def test_var_is_the_normal_form():
    # b is the leading monomial of b - a, so the variable b is a
    ring = Ring([("a", "commuting"), ("b", "commuting")], [("b-a", "b")])
    b = ring.var("b")
    assert b == ring.var("a")
    assert (b._terms, b._den) == (ring.parse("b")._terms, ring.parse("b")._den)


def test_every_relation_ring_in_use_is_accepted():
    # the OSp ring, its tensor square and the symbolic root family rings
    rings = [OSP.ring, SQUARE, family("e2-r-a").ring,
             family("e2-case-a", a=2).ring, family("e2-case-a", b=3).ring]
    for ring in rings:
        rebuilt = Ring([(n, ring.kind(n)) for n in ring.names],
                       ring._relation_spec)
        assert rebuilt == ring and ring._relation_spec


def test_cycle_raises_through_reduce_mod_relation():
    plain = Ring([("a", "commuting"), ("d", "commuting")])
    with pytest.raises(ReductionError, match="did not terminate"):
        reduce_mod_relation(plain.parse("a^2*d^2"), "a*d-a^2-d^2", "a*d")


def test_powers_of_ad_equal_the_binomial_oracle():
    # alpha*delta is nilpotent, so (ad)^k = (1 + bc - alpha*delta)^k
    # = (1+bc)^k - k (1+bc)^(k-1) alpha*delta, written out with binomial
    # coefficients in a relation-free ring and converted
    ring = Ring(OSP.ring._kinds.items(), OSP.ring._relation_spec)
    free = Ring(OSP.ring._kinds.items())
    for k in range(1, 41):
        oracle = free.zero()
        for j in range(k + 1):
            oracle = oracle + free.monomial((0, j, j, 0), (), math.comb(k, j))
        for j in range(k):
            oracle = oracle + free.monomial((0, j, j, 0), (0, 1),
                                            -k * math.comb(k - 1, j))
        assert ring.monomial((k, 0, 0, k), ()) == oracle.convert(ring), k
    assert len(ring._normal_forms) < 2000


# -- no floats -----------------------------------------------------------------

@pytest.mark.parametrize("inexact", [0.1, 2.0, Decimal("0.5")],
                         ids=["float", "integral-float", "decimal"])
def test_inexact_values_are_refused(inexact):
    ring = E2.ring
    x = ring.parse("a*xi + b")
    for enter in (ring.scalar, ring.coerce,
                  lambda q: ring.monomial((0, 1, 0, 0, 0), (), q),
                  lambda q: x.substitute({"b": q}),
                  lambda q: ring.sum_of_products([(q, (x,))]),
                  lambda q: ring.linear_combination([(1, x), (q, x)]),
                  lambda q: x * q, lambda q: q * x, lambda q: x + q,
                  lambda q: x - q, lambda q: q - x):
        with pytest.raises(TypeError):
            enter(inexact)
    # the ring's readers take number text; the operators do not
    for enter in (lambda q: x + q, lambda q: q + x, lambda q: x * q,
                  lambda q: q * x, lambda q: x - q, lambda q: q - x):
        with pytest.raises(TypeError):
            enter("1/2")


@pytest.mark.parametrize("inexact", [0.5, 2.0, Decimal("0.5")],
                         ids=["float", "integral-float", "decimal"])
def test_inexact_matrix_entries_are_refused(inexact):
    # exact elimination takes int and Fraction entries only
    for solve in (lambda rows: nullspace(rows), lambda rows: _rref(rows, 2),
                  lambda rows: span_solve(rows, [[1, 2]])[0]):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            solve([[inexact, 1], [1, Fraction(1, 3)]])


@pytest.mark.parametrize("text", ["1e-99999999", "1E5", "1.5", "1/2/3", "0x10",
                                  "1_000", " ", ""])
def test_text_outside_the_number_grammar_is_refused(text):
    # at once: Fraction would expand an exponent digit by digit
    ring = E2.ring
    for enter in (ring.scalar, ring.coerce, parse_rational,
                  lambda q: ring.linear_combination([(q, ring.one())])):
        with pytest.raises(ValueError):
            enter(text)
    with pytest.raises(ZeroDivisionError):
        ring.scalar("1/0")


def test_exact_values_are_accepted():
    ring = E2.ring
    half = Fraction(1, 2)
    for q in (half, "1/2", "3/6", " +2/4 "):
        assert ring.scalar(q) == half
        assert ring.monomial((0, 0, 1, 0, 0), (), q) == half * ring.var("a")
        assert ring.coerce(q) == half
    assert ring.scalar(Fraction(4, 2))._terms == {(ring._zero_exps, ()): 2}
    assert type(ring.scalar("2").as_fraction()) is Fraction
    x = ring.parse("a*b")
    assert x.substitute({"b": "1/4"}) == Fraction(1, 4) * ring.var("a")
    assert x.substitute({"b": 3}) == 3 * ring.var("a")


# -- sparse Gauss-Jordan ---------------------------------------------------------

_ENTRIES = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                     st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))


def _matrices(min_rows=0):
    return st.integers(1, 6).flatmap(lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                 min_size=min_rows, max_size=6)))


def _no_float(values):
    return not any(isinstance(v, float) for v in values)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rref_equals_frozen(drawn):
    ncols, rows = drawn
    got = _rref(rows, ncols)
    assert got == _frozen_rref(rows, ncols)[:2]
    assert all(_no_float(row) for row in got[0])
    basis = nullspace(rows, ncols)
    assert all(_no_float(v) for v in basis)


@settings(max_examples=30, deadline=None)
@given(_matrices(min_rows=1), st.data())
def test_rref_with_scalar_rhs_equals_frozen(drawn, data):
    ncols, rows = drawn
    ring = E2.ring
    rhs = data.draw(st.lists(st.one_of(_ENTRIES, _elements(ring, 1, 2)),
                             min_size=len(rows), max_size=len(rows)))
    # the right-hand side rides along as a column past ncols
    got = _rref([list(row) + [value] for row, value in zip(rows, rhs)], ncols)
    want = _frozen_rref(rows, ncols, rhs)
    assert ([row[:ncols] for row in got[0]], got[1]) == want[:2]
    assert all(row[ncols] == b for row, b in zip(got[0], want[2]))
    assert _no_float([row[ncols] for row in got[0]])
    # span_solve over the columns: the rows, read as basis vectors
    coeffs = span_solve([list(col) for col in zip(*rows)], [rhs])[0]
    assert coeffs is None or _no_float(coeffs)
