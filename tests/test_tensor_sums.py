"""The tensor layer's sums of products against the loops they replaced.

`Ring.accumulate` forms every tensor coefficient that is a sum of scalar
products as one key, reduced once: over Q all keys of a call in one integer
pass, in any other ring one `Ring.sum_of_products` per key.  The structure
constants are read converted once per ring (`SuperLieAlgebra.constants_in`).
The previous bodies are kept below as references: they multiply with
`SuperScalar.__mul__`, add with `+` after every product and convert each
structure constant where it is used, and the keyed accumulator is the
per-key loop it replaced, with the Q sum it called.  Both must agree on four
rings: the constants, the super-E(2) coordinate ring (Laurent E, Grassmann
xi and eta, so odd and mixed-parity coefficients), the OSp ring with its
relation, and the symbolic `e2-r-a` family ring with m^2 = ab.
"""

import functools
import gc
import math
import weakref
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbialg.algebra import bracket, builtin
from superbialg.bialgebra import (Cobracket, _cocycle_residual,
                                  _cojacobi_residuals, family)
from superbialg.equivalence import (Automorphism, _matmul, e2_automorphism,
                                    osp_automorphism, transform)
from superbialg.poisson import group
from superbialg.scalars import EVEN, Ring, RingMismatchError, _rational
from superbialg.tensors import (GradedTensor, RMatrix, _wedge_sum, ad_action,
                                contract, schouten)

CONSTANTS = Ring([])
E2_RING = group("super_e2").ring
OSP_RING = group("osp").ring
FAMILY_RING = family("e2-r-a").ring
RINGS = {"constants": CONSTANTS, "super-e2": E2_RING, "osp": OSP_RING,
         "m2-ab": FAMILY_RING}
ALGEBRAS = ("osp12", "super_e2")


# -- the previous loops, kept as references -------------------------------------

def _frozen_sum_of_products(ring, products):
    # over Q: one lcm, one integer sum and one gcd per call
    if not ring._is_q:
        return ring.sum_of_products(products)
    unit = ring._zero_exps, ()
    parts = []
    for q, factors in products:
        n, d = (q, 1) if type(q) is int else _rational(q)
        for x in factors:
            if x.ring is not ring and x.ring != ring:
                raise RingMismatchError("factor belongs to a different ring")
            n *= x._terms.get(unit, 0)
            d *= x._den
        parts.append((n, d))
    den = math.lcm(*[d for _, d in parts])
    num = sum([n * (den // d) for n, d in parts])
    if not num:
        return ring._make({})
    g = math.gcd(num, den)
    return ring._make({unit: num // g}, den // g)


def _frozen_accumulate(ring, products):
    groups = defaultdict(list)
    for key, q, factors in products:
        groups[key].append((q, factors))
    out = {}
    for key, group in groups.items():
        value = _frozen_sum_of_products(ring, group)
        if value._terms:
            out[key] = value
    return out


def _frozen_add(t, u):
    out = dict(t.coeffs)
    for k, v in u.coeffs.items():
        acc = out.get(k, t.ring.zero()) + v
        if acc.is_zero():
            out.pop(k, None)
        else:
            out[k] = acc
    return GradedTensor(t.algebra, t.rank, out, t.ring)


def _frozen_wedge_sum(algebra, entries, ring=None):
    ring = ring if ring is not None else algebra.ring
    out = {}
    for coeff, x, y in entries:
        i = algebra.index[x] if isinstance(x, str) else x
        j = algebra.index[y] if isinstance(y, str) else y
        coeff = ring.coerce(coeff)
        for key, value in (((i, j), coeff), ((j, i), -algebra.z(i, j) * coeff)):
            acc = out.get(key)
            out[key] = value if acc is None else acc + value
    return GradedTensor(algebra, 2, out, ring)


def _frozen_adjoint(algebra, gi, t):
    ggrade = algebra.grades[gi]
    ring = t.ring
    out = {}
    for idx, coeff in t.coeffs.items():
        for cpart in coeff.homogeneous_parts():
            if cpart.is_zero():
                continue
            sign = -1 if (ggrade and cpart.parity()) else 1
            for slot, target in enumerate(idx):
                for k, cval in algebra.bracket_indices(gi, target):
                    new_idx = idx[:slot] + (k,) + idx[slot + 1:]
                    value = sign * (cpart * cval.convert(ring))
                    acc = out.get(new_idx)
                    out[new_idx] = value if acc is None else acc + value
                if ggrade and algebra.grades[target]:
                    sign = -sign
    return GradedTensor(algebra, t.rank, out, ring)


def _frozen_contract(rows):
    out = {}
    for a, row in enumerate(rows):
        for (b, j), left in row.items():
            for (c, d), right in rows[j].items():
                key = (a, b, c, d)
                prod = left * right
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
    return out


def _frozen_schouten(algebra, r):
    ring = r.ring
    out = {}

    def add(idx, value):
        if value.is_zero():
            return
        acc = out.get(idx, ring.zero()) + value
        if acc.is_zero():
            out.pop(idx, None)
        else:
            out[idx] = acc

    items = list(r.coeffs.items())
    for (k, l), r1 in items:
        for (m, n), r2 in items:
            zlm = algebra.z(l, m)
            coeff = r1 * r2
            for p, cval in algebra.bracket_indices(k, m):
                add((p, l, n), zlm * (coeff * cval.convert(ring)))
            for p, cval in algebra.bracket_indices(l, m):
                add((k, p, n), coeff * cval.convert(ring))
            for p, cval in algebra.bracket_indices(l, n):
                add((k, m, p), zlm * (coeff * cval.convert(ring)))
    return GradedTensor(algebra, 3, out, ring)


def _frozen_bracket(algebra, x, y):
    out = GradedTensor.zero(algebra, 1, x.ring)
    for (i,), f in x.coeffs.items():
        out = _frozen_add(out, _frozen_adjoint(algebra, i, y).scale(f))
    return out


def _frozen_from_entries(algebra, ring, entries):
    zero = ring.zero()
    coeffs = [{} for _ in range(algebra.dim)]
    for (i, k, l), value in entries:
        value = ring.coerce(value)
        row = coeffs[i]
        row[(k, l)] = row.get((k, l), zero) + value
        if k != l:
            row[(l, k)] = row.get((l, k), zero) - algebra.z(k, l) * value
    return Cobracket(algebra, ring,
                     [GradedTensor(algebra, 2, c, ring) for c in coeffs])


def _frozen_cocycle_residual(algebra, d, i, j):
    ring = d.ring
    res = GradedTensor.zero(algebra, 2, ring)
    for k, cval in algebra.bracket_indices(i, j):
        res = _frozen_add(res, cval.convert(ring) * d.delta(k))
    res = _frozen_add(res, -_frozen_adjoint(algebra, i, d.delta(j)))
    adj = _frozen_adjoint(algebra, j, d.delta(i))
    if algebra.z(i, j) == -1:
        res = _frozen_add(res, -adj)
    else:
        res = _frozen_add(res, adj)
    return res


def _frozen_cojacobi_residuals(algebra, d):
    residuals = {}
    for (i, k, l, m), value in _frozen_contract([row.coeffs for row in d.rows]).items():
        if algebra.z(k, m) == -1:
            value = -value
        for key in ((i, k, l, m), (i, m, k, l), (i, l, m, k)):
            acc = residuals.get(key)
            residuals[key] = value if acc is None else acc + value
    return [(*key, residuals[key]) for key in sorted(residuals)
            if not residuals[key].is_zero()]


def _frozen_matmul(left, right, zero):
    n = len(left)
    return [[sum((left[i][k] * right[k][j] for k in range(n)
                  if not left[i][k].is_zero()), zero)
             for j in range(n)] for i in range(n)]


def _frozen_transform(phi, x):
    algebra = phi.algebra
    ring = phi.ring
    n = algebra.dim
    if isinstance(x, Cobracket):
        moved = [_frozen_transform(phi, row) for row in x.rows]
        rows = []
        for i in range(n):
            row = GradedTensor.zero(algebra, 2, ring)
            for p, image in enumerate(moved):
                if not phi.inverse[i][p].is_zero():
                    row = _frozen_add(row, phi.inverse[i][p] * image)
            rows.append(row)
        return Cobracket(algebra, ring, rows)
    src = x.convert(ring) if x.ring != ring else x
    out = {}
    for (k, l), v in src.coeffs.items():
        for kk, mk in enumerate(phi.matrix[k]):
            if mk.is_zero():
                continue
            for ll, ml in enumerate(phi.matrix[l]):
                if ml.is_zero():
                    continue
                term = v * mk * ml
                acc = out.get((kk, ll))
                out[(kk, ll)] = term if acc is None else acc + term
    if isinstance(x, RMatrix):
        return RMatrix(algebra, out, ring)
    return GradedTensor(algebra, 2, out, ring)


def _frozen_structure_residuals(phi):
    algebra = phi.algebra
    n = algebra.dim
    bad = []
    for i in range(n):
        for j in range(n):
            lhs = _frozen_bracket(algebra, phi.apply_index(i), phi.apply_index(j))
            rhs = GradedTensor.zero(algebra, 1, phi.ring)
            for k, cval in algebra.bracket_indices(i, j):
                rhs = _frozen_add(rhs, cval.convert(phi.ring) * phi.apply_index(k))
            diff = _frozen_add(lhs, -rhs)
            for (k,), v in diff.coeffs.items():
                bad.append((algebra.basis[i], algebra.basis[j],
                            algebra.basis[k], v))
    return bad


# -- strategies ------------------------------------------------------------------

_COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from(
    [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]))


@functools.lru_cache(maxsize=None)
def _scalars(ring, parity=None, max_size=3):
    """Elements of `ring` with at most `max_size` terms: exponents 0..1
    (-1..1 for a Laurent variable), any Grassmann set, or only those of the
    given parity.  A ring without Grassmann variables has no odd element
    but 0.  Each strategy is built once and reused by every draw."""
    exps = st.tuples(*[st.integers(-1 if ring.kind(n) == "laurent" else 0, 1)
                       for n in ring.even_names])
    odds = st.sets(st.sampled_from(range(len(ring.odd_names))) if
                   ring.odd_names else st.nothing()).map(
        lambda s: tuple(sorted(s)))
    if parity is not None:
        odds = odds.filter(lambda o: len(o) % 2 == parity)
        if parity and not ring.odd_names:
            return st.just(ring.zero())

    def build(terms):
        total = ring.zero()
        for (e, o), c in terms.items():
            total = total + ring.monomial(e, o, c)
        return total
    return st.dictionaries(st.tuples(exps, odds), _COEFFS.filter(bool),
                           max_size=max_size).map(build)


@st.composite
def _tensors(draw, algebra, ring, rank, even=False, max_size=4):
    """A tensor of `rank` over `ring`; with `even`, every coefficient has
    the parity of its basis slots, so the tensor is even."""
    keys = draw(st.lists(st.tuples(*[st.integers(0, algebra.dim - 1)] * rank),
                         max_size=max_size, unique=True))
    coeffs = {}
    for key in keys:
        parity = sum(algebra.grades[i] for i in key) % 2 if even else None
        coeffs[key] = draw(_scalars(ring, parity))
    return GradedTensor(algebra, rank, coeffs, ring)


@st.composite
def _cobrackets(draw, algebra, ring):
    return Cobracket(algebra, ring, [draw(_tensors(algebra, ring, 2, max_size=3))
                                     for _ in range(algebra.dim)])


@st.composite
def _automorphisms(draw, algebra, ring):
    """I + N with N strictly upper triangular inside the grading blocks and
    even entries, and its inverse I - N + N^2 - ...: a valid Automorphism
    (it need not preserve the bracket)."""
    n = algebra.dim
    zero, one = ring.zero(), ring.one()
    nil = [[draw(_scalars(ring, EVEN, max_size=2))
            if i < j and algebra.grades[i] == algebra.grades[j] else zero
            for j in range(n)] for i in range(n)]
    matrix = [[one if i == j else zero for j in range(n)] for i in range(n)]
    power = [[nil[i][j] for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in matrix]
    for k in range(1, n):
        sign = -1 if k % 2 else 1
        inverse = [[inverse[i][j] + sign * power[i][j] for j in range(n)]
                   for i in range(n)]
        power = _frozen_matmul(power, nil, zero)
    matrix = [[matrix[i][j] + nil[i][j] for j in range(n)] for i in range(n)]
    return Automorphism(algebra, matrix, inverse, ring)


def _over_rings(test):
    """Run `test` for the four rings and both algebras, with hypothesis
    draws."""
    test = settings(max_examples=15, deadline=None)(given(data=st.data())(test))
    test = pytest.mark.parametrize("algebra_name", ALGEBRAS)(test)
    return pytest.mark.parametrize("ring_name", sorted(RINGS))(test)


# -- the comparisons ---------------------------------------------------------------

@_over_rings
def test_wedge_sum_equals_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    names = st.one_of(st.sampled_from(algebra.basis),
                      st.integers(0, algebra.dim - 1))
    entries = data.draw(st.lists(st.tuples(
        st.one_of(_COEFFS, _scalars(ring)), names, names), max_size=5))
    assert _wedge_sum(algebra, entries, ring) == \
        _frozen_wedge_sum(algebra, entries, ring)


@_over_rings
def test_adjoint_equals_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    t = data.draw(_tensors(algebra, ring, data.draw(st.sampled_from((2, 3)))))
    for g in range(algebra.dim):
        assert ad_action(algebra, g, t) == _frozen_adjoint(algebra, g, t)


@_over_rings
def test_bracket_equals_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    x = data.draw(_tensors(algebra, ring, 1))
    y = data.draw(_tensors(algebra, ring, 1))
    assert bracket(algebra, x, y) == _frozen_bracket(algebra, x, y)


@_over_rings
def test_add_equals_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    t = data.draw(_tensors(algebra, ring, 2))
    u = data.draw(_tensors(algebra, ring, 2))
    assert t + u == _frozen_add(t, u)
    assert (t - t).is_zero()


@_over_rings
def test_contract_and_cojacobi_equal_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    d = data.draw(_cobrackets(algebra, ring))
    rows = [row.coeffs for row in d.rows]
    frozen = {k: v for k, v in _frozen_contract(rows).items() if not v.is_zero()}
    assert contract(ring, rows) == frozen
    assert list(_cojacobi_residuals(algebra, d)) == \
        _frozen_cojacobi_residuals(algebra, d)


@_over_rings
def test_schouten_equals_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    r = data.draw(_tensors(algebra, ring, 2, even=True))
    assert r.parity() == EVEN
    assert schouten(algebra, r) == _frozen_schouten(algebra, r)


@_over_rings
def test_from_entries_equals_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    index = st.integers(0, algebra.dim - 1)
    entries = data.draw(st.lists(st.tuples(
        st.tuples(index, index, index), st.one_of(_COEFFS, _scalars(ring))),
        max_size=6))
    assert Cobracket.from_entries(algebra, ring, entries) == \
        _frozen_from_entries(algebra, ring, entries)


@_over_rings
def test_cocycle_residual_equals_frozen(ring_name, algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    d = data.draw(_cobrackets(algebra, ring))
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            assert _cocycle_residual(algebra, d, i, j) == \
                _frozen_cocycle_residual(algebra, d, i, j)


@_over_rings
def test_matmul_equals_frozen(ring_name, algebra_name, data):
    ring = RINGS[ring_name]
    n = data.draw(st.integers(1, 3))
    left, right = ([[data.draw(_scalars(ring, max_size=2)) for _ in range(n)]
                    for _ in range(n)] for _ in range(2))
    assert _matmul(left, right, ring) == \
        _frozen_matmul(left, right, ring.zero())


@_over_rings
def test_transform_and_structure_residuals_equal_frozen(ring_name,
                                                         algebra_name, data):
    algebra, ring = builtin(algebra_name), RINGS[ring_name]
    phi = data.draw(_automorphisms(algebra, ring))
    t = data.draw(_tensors(algebra, ring, 2))
    assert transform(phi, t) == _frozen_transform(phi, t)
    d = data.draw(_cobrackets(algebra, ring))
    assert transform(phi, d) == _frozen_transform(phi, d)
    assert phi.structure_residuals() == _frozen_structure_residuals(phi)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_named_automorphisms_transform_like_frozen(ring_name):
    # the witnesses' maps: numeric osp, symbolic shift, flip and scale
    ring = RINGS[ring_name]
    even = ring.parse(ring.even_names[-1]) if ring.even_names else ring.one()
    maps = [osp_automorphism(2, 3, 1, 2, ring=ring),
            osp_automorphism(Fraction(1, 2), Fraction(-1, 2), 1, 1, ring=ring),
            e2_automorphism("shift", even, 3, ring=ring),
            e2_automorphism("flip", ring=ring),
            e2_automorphism("scale", Fraction(1, 2), -3, ring=ring)]
    for phi in maps:
        osp = phi.algebra.name == "osp12"
        # numeric families: transform converts them into the map's ring
        x = family("osp-r-a", 1, 2, 3) if osp else family("e2-r-b", 1, 2, 3)
        assert transform(phi, x) == _frozen_transform(phi, x)
        assert phi.structure_residuals() == []
        if not osp:
            d = family("e2-case-b", 1, 2, 3, 0)
            assert transform(phi, d) == _frozen_transform(phi, d)


def test_constants_are_converted_once_per_ring():
    algebra = builtin("osp12")
    assert algebra.constants_in(CONSTANTS) is algebra.constants
    # a numeric family ring equals the constants ring, so it shares them
    assert algebra.constants_in(family("osp-r-a", 1, 2, 3).ring) \
        is algebra.constants
    converted = algebra.constants_in(OSP_RING)
    assert converted is algebra.constants_in(
        Ring([(n, OSP_RING.kind(n)) for n in OSP_RING.names],
             OSP_RING._relation_spec))
    assert converted == {ij: tuple((k, v.convert(OSP_RING)) for k, v in entries)
                         for ij, entries in algebra.constants.items()}


def test_constants_keep_only_the_latest_ring():
    # 200 distinct rings, as 200 numeric `e2-r-a` relation rings would be:
    # the algebra keeps one converted table, so only the last ring survives
    algebra = builtin("super_e2")
    refs = []
    for k in range(1, 201):
        ring = Ring([("m", "commuting")], relations=[(f"m^2-{k}", "m^2")])
        refs.append(weakref.ref(ring))
        algebra.constants_in(ring)
    del ring
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * 199 + [False]
    assert algebra.constants_in(refs[-1]()) is algebra.constants_in(refs[-1]())


@pytest.mark.parametrize("fid", ["e2-r-a", "e2-case-a", "e2-case-b", "osp-r-a"])
def test_map_equals_coefficientwise_scalar_map(fid):
    symbolic = family(fid)
    ring = Ring([])
    images = {n: ring.scalar(q) for n, q in
              zip(symbolic.ring.names, (2, Fraction(-1, 3), 5, Fraction(3, 2)))}
    mapped = symbolic.map(ring, images)
    rows = mapped.rows if isinstance(mapped, Cobracket) else [mapped]
    sources = symbolic.rows if isinstance(symbolic, Cobracket) else [symbolic]
    for row, source in zip(rows, sources):
        assert row.coeffs == {k: v for k, v in (
            (k, v.map(ring, images)) for k, v in source.coeffs.items())
            if not v.is_zero()}


def _stored(sums):
    return {key: (value._terms, value._den) for key, value in sums.items()}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_accumulate_equals_frozen(ring_name, data):
    ring = RINGS[ring_name]
    products = data.draw(st.lists(st.tuples(
        st.integers(0, 3), _COEFFS,
        st.lists(_scalars(ring), max_size=3).map(tuple)), max_size=12))
    frozen = _stored(_frozen_accumulate(ring, products))
    assert _stored(ring.accumulate(products)) == frozen
    assert _stored(ring.accumulate(iter(products))) == frozen
    assert all(terms for terms, _ in frozen.values())
    pairs = [(q, factors) for _, q, factors in products]
    total = ring.sum_of_products(pairs)
    expected = _frozen_sum_of_products(ring, pairs)
    assert (total._terms, total._den) == (expected._terms, expected._den)


class TestAccumulateOverQ:
    def test_empty_input(self):
        assert CONSTANTS.accumulate([]) == {}
        assert CONSTANTS.accumulate(iter(())) == {}
        assert CONSTANTS.sum_of_products([]).is_zero()

    def test_cancelling_key_is_dropped(self):
        half = CONSTANTS.scalar(Fraction(1, 2))
        sums = CONSTANTS.accumulate([("a", 2, (half,)), ("b", 1, ()),
                                     ("a", -1, ())])
        assert list(sums) == ["b"]

    def test_one_lcm_and_lowest_terms_per_key(self):
        # denominators 2, 6 and 3 over one lcm 6; each key reduced alone
        third = CONSTANTS.scalar(Fraction(1, 3))
        sums = CONSTANTS.accumulate([
            ("a", Fraction(1, 2), ()), ("a", Fraction(1, 6), ()),
            ("b", Fraction(1, 2), ()), ("b", Fraction(1, 2), ()),
            ("c", 1, (third, third)), ("c", Fraction(-1, 2), (third,))])
        assert _stored(sums) == {"a": ({((), ()): 2}, 3),
                                 "b": ({((), ()): 1}, 1),
                                 "c": ({((), ()): -1}, 18)}

    def test_factor_after_a_zero_is_still_checked(self):
        other = E2_RING.one()
        with pytest.raises(RingMismatchError):
            CONSTANTS.accumulate([("a", 1, (CONSTANTS.zero(), other))])
        with pytest.raises(RingMismatchError):
            CONSTANTS.sum_of_products([(0, (other,))])
        # an equal ring is the same ring
        assert _stored(CONSTANTS.accumulate(
            [("a", 3, (Ring([]).scalar(2),))])) == {"a": ({((), ()): 6}, 1)}

    @pytest.mark.parametrize("q", [0.5, Decimal("0.5")])
    def test_inexact_coefficient_raises_type_error(self, q):
        with pytest.raises(TypeError):
            CONSTANTS.accumulate([("a", q, ())])

    def test_generator_input(self):
        two = CONSTANTS.scalar(2)
        sums = CONSTANTS.accumulate((k % 2, Fraction(1, k), (two,))
                                    for k in range(1, 5))
        assert _stored(sums) == {1: ({((), ()): 8}, 3),
                                 0: ({((), ()): 3}, 2)}
