"""Exact arithmetic in a supercommutative coefficient ring.

Elements live in Q[p1,...,pn][E,E^-1] (x) Lambda(th1,...,thm): rational
coefficients, commuting polynomial variables, optional group-like Laurent
variables (integer exponents of either sign), and anticommuting Grassmann
generators.  Everything is kept in a canonical sparse form: a term is a
rational coefficient times an exponent vector over the even variables times
a strictly increasing product of Grassmann generators.  Signs come from
bubble-sorting Grassmann factors into that fixed order; a repeated generator
annihilates the term.

An element is stored as integer numerators over one positive common
denominator, in lowest terms (zero has denominator 1), so it has one stored
form and all arithmetic is on Python integers.  A rational enters through
one reader, which refuses a float or a Decimal with ``TypeError``.

Rings may carry rewrite relations (e.g. ``a*d - b*c + alpha*delta - 1`` with
leading monomial ``a*d``), in which case every arithmetic result is reduced
to its normal form automatically.  A product is formed unreduced and reduced
once; reduction is one linear pass over the terms, and the normal form of
each reducible monomial is computed once per ring and kept.  Sums,
differences, negation and rational multiples are one combination kernel,
``Ring._combination``: a rational combination of normal forms is a normal
form, so nothing is reduced.

A ring without variables is Q (a relation needs a leading monomial other
than 1).  ``Ring.accumulate`` sums keyed products; over Q it is one pass of
integer arithmetic over one denominator, and ``sum_of_products`` is its
one-key case.

No floating point anywhere; all values are immutable and all operations are
pure functions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational
from operator import add as _add

COMMUTING = "commuting"
LAURENT = "laurent"
GRASSMANN = "grassmann"

_KINDS = (COMMUTING, LAURENT, GRASSMANN)

EVEN = 0
ODD = 1


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class ParityError(ValueError):
    """A substitution or constructor violates Z2-grading."""


class ReductionError(ValueError):
    """A rewrite relation is malformed or reduction failed to terminate."""


class ScalarParseError(ValueError):
    """Text does not conform to the scalar grammar."""


_NUMBER = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text):
    """The rational spelt by `text`, an integer or p/q: ValueError for any
    other text, exponents and decimals included; ZeroDivisionError for p/0."""
    if _NUMBER.fullmatch(text.strip()) is None:
        raise ValueError(f"not an integer or p/q: {text!r}")
    return Fraction(text)


def _rational(q):
    """(numerator, positive denominator) in lowest terms of an exact
    rational or its text; a float or a Decimal raises TypeError."""
    if type(q) is int:
        return q, 1
    if type(q) is not Fraction:
        if isinstance(q, str):
            q = parse_rational(q)
        elif isinstance(q, Rational):
            q = Fraction(q)
        else:
            raise TypeError(
                f"coefficients are exact rationals, not {type(q).__name__}")
    return q.numerator, q.denominator


def _lowest(terms, den):
    """The numerators `terms` over `den` without the zeros, in lowest terms."""
    terms = {key: c for key, c in terms.items() if c}
    if den == 1 or not terms:
        return terms, 1
    g = math.gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {key: c // g for key, c in terms.items()}, den // g


def _merge_grassmann(left, right):
    """(merged tuple, sign) of two increasing index tuples, or (None, 0)."""
    out = []
    sign = 1
    i, j = 0, 0
    nl = len(left)
    while i < nl and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the nl - i remaining factors of `left`
            if (nl - i) & 1:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out), sign


class Ring:
    """A variable table with a fixed total order, plus optional relations.

    `variables` is an ordered iterable of (name, kind) pairs with kind one of
    "commuting", "laurent", "grassmann".  `relations` is an iterable of
    (relation_text, leading_monomial_text) pairs in the scalar grammar; each
    relation must be homogeneous even, carry its leading monomial with
    coefficient 1, and the leading monomial must not be 1 (which would make
    the ring zero) and must divide no other monomial of the relation.  No
    two leading monomials may share a variable: then no two rules overlap,
    and by Buchberger's first criterion the normal form does not depend on
    which rule fires first.  The other monomials of a relation have
    nonnegative exponents and lie below its leading monomial in the
    degree-lexicographic order on the even exponents that ranks the leading
    variables first: rewriting lowers monomials in it, so it ends.
    """

    def __init__(self, variables=(), relations=()):
        evens = []
        odds = []
        kinds = {}
        for name, kind in variables:
            if kind not in _KINDS:
                raise ValueError(f"unknown variable kind {kind!r}")
            if name in kinds:
                raise ValueError(f"duplicate variable name {name!r}")
            kinds[name] = kind
            if kind == GRASSMANN:
                odds.append(name)
            else:
                evens.append(name)
        self._evens = tuple(evens)
        self._odds = tuple(odds)
        self._kinds = kinds
        self._is_q = not kinds  # no variables, so no relations: Q
        self._even_pos = {n: i for i, n in enumerate(self._evens)}
        self._odd_pos = {n: i for i, n in enumerate(self._odds)}
        self._zero_exps = (0,) * len(self._evens)
        self._relation_spec = tuple(relations)
        self._relations = ()
        self._normal_forms = {}  # reducible monomial -> its normal form
        self._texts = {}  # monomial -> its factor text, for `render`
        rules = []
        for rel_text, lead_text in self._relation_spec:
            rule = self._compile_relation(self.parse(rel_text),
                                          self.parse(lead_text))
            for (other, _), (_, other_text) in zip(rules, self._relation_spec):
                if any(l and o for l, o in zip(rule[0], other)):
                    raise ReductionError(
                        f"leading monomials {other_text!r} and {lead_text!r}"
                        " share a variable")
            rules.append(rule)
        ranked = sorted(range(len(evens)), key=lambda p: not any(
            lead[p] for lead, _ in rules)) if rules else ()

        def weight(exps):
            return sum(exps), [exps[p] for p in ranked]

        for (lead, (replacement, _)), (rel_text, lead_text) in zip(
                rules, self._relation_spec):
            for exps, _ in replacement:
                if min(exps, default=0) < 0:
                    raise ReductionError(
                        f"relation {rel_text!r} has a negative exponent")
                if weight(exps) >= weight(lead):
                    raise ReductionError(
                        f"relation {rel_text!r} has a monomial not below"
                        f" its leading monomial {lead_text!r}")
        self._relations = tuple(rules)

    def _compile_relation(self, relation, leading):
        """(leading exponents, (numerators, denominator) of lead - relation)."""
        if len(leading._terms) != 1:
            raise ReductionError("leading monomial must be a single term")
        (lead_key, lead_coeff), = leading._terms.items()
        lead_exps, lead_odds = lead_key
        if lead_odds:
            raise ReductionError("leading monomial must be purely even")
        if any(k < 0 for k in lead_exps):
            raise ReductionError("leading monomial exponents must be nonnegative")
        if not any(lead_exps):
            raise ReductionError("leading monomial must not be 1")
        if lead_coeff != 1 or leading._den != 1:
            raise ReductionError("leading monomial must have coefficient 1")
        if relation.parity() not in (EVEN, None) or not relation.is_homogeneous():
            raise ReductionError("relation must be homogeneous even")
        if relation._terms.get(lead_key) != relation._den:
            raise ReductionError("leading monomial must occur in the relation with coefficient 1")
        for (exps, odds) in relation._terms:
            if (exps, odds) == lead_key:
                continue
            if _divides(lead_exps, exps):
                raise ReductionError("leading monomial divides another monomial of the relation")
        # lead == lead - relation modulo the relation
        replacement = self._make({lead_key: 1}) - relation
        return (lead_exps, (replacement._terms, replacement._den))

    # -- constructors -------------------------------------------------

    def _make(self, terms, den=1):
        return SuperScalar(self, terms, den)

    def zero(self):
        return self._make({})

    def one(self):
        return self.scalar(1)

    def scalar(self, q):
        n, d = _rational(q)
        if not n:
            return self.zero()
        return self._make({(self._zero_exps, ()): n}, d)

    def var(self, name):
        kind = self._kinds.get(name)
        if kind is None:
            raise KeyError(f"no variable {name!r} in ring")
        if kind == GRASSMANN:
            key = (self._zero_exps, (self._odd_pos[name],))
        else:
            exps = list(self._zero_exps)
            exps[self._even_pos[name]] = 1
            key = (tuple(exps), ())
        # a variable may be a leading monomial: return its normal form
        if self._relations:
            return self._reduced({key: 1}, 1)
        return self._make({key: 1})

    def monomial(self, exps, odds, coeff=1):
        """coeff * the monomial, in normal form modulo the relations."""
        n, d = _rational(coeff)
        if not n:
            return self.zero()
        return self._reduced({(tuple(exps), tuple(odds)): n}, d)

    def coerce(self, value):
        if isinstance(value, SuperScalar):
            if value.ring is not self and value.ring != self:
                raise RingMismatchError("scalar belongs to a different ring")
            return value
        return self.scalar(value)

    # -- metadata ------------------------------------------------------

    @property
    def even_names(self):
        return self._evens

    @property
    def odd_names(self):
        return self._odds

    @property
    def names(self):
        return self._evens + self._odds

    def kind(self, name):
        return self._kinds[name]

    def namesakes(self, target):
        """The images, for `SuperScalar.map`, of the ring map into `target`
        that sends each variable to its namesake of the same kind."""
        for name, kind in self._kinds.items():
            if target._kinds.get(name) != kind:
                what = "Grassmann variable" if kind == GRASSMANN else "variable"
                raise RingMismatchError(f"target ring lacks {what} {name!r}")
        return {name: target.var(name) for name in self.names}

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Ring):
            return NotImplemented
        return (self._evens == other._evens and self._odds == other._odds
                and self._kinds == other._kinds
                and self._relation_spec == other._relation_spec)

    def __hash__(self):
        return hash((self._evens, self._odds, self._relation_spec))

    def __repr__(self):
        parts = [f"{n}:{self._kinds[n][0]}" for n in self.names]
        return f"Ring({' '.join(parts)})"

    # -- normal form ---------------------------------------------------

    def _reduced(self, terms, den):
        """`terms` over `den` in normal form and lowest terms."""
        if not self._relations:
            return self._make(*_lowest(terms, den))
        return self._make(*_rewrite(terms, den, self._relations,
                                    self._normal_forms))

    def sum_of_products(self, products):
        """The normal form of the sum of q * x1 * ... * xn over the (q,
        (x1, ..., xn)) pairs in `products`: q rational, each x an element of
        this ring, n >= 0.  Every product is formed unreduced and the sum is
        reduced once; reduction is linear, so this equals the sum of the
        reduced products."""
        if self._is_q:
            return self.accumulate(
                (None, q, factors) for q, factors in products).get(
                None, self._make({}))
        checked = []
        for q, factors in products:
            n, d = (q, 1) if type(q) is int else _rational(q)
            terms = []
            for x in factors:
                if x.ring is not self and x.ring != self:
                    raise RingMismatchError("factor belongs to a different ring")
                terms.append(x._terms)
                d *= x._den
            checked.append((n, d, terms))
        return self._reduced(*_sum_of_products(checked, (self._zero_exps, ())))

    def accumulate(self, products):
        """{key: sum of q * f1 * ... * fn} over the (key, q, (f1, ..., fn))
        triples in `products`, zero sums dropped.  Over Q the whole call
        shares one lcm, then takes one integer sum per key and one gcd per
        nonzero key; elsewhere each key is one `sum_of_products`."""
        if not self._is_q:
            groups = {}
            for key, q, factors in products:
                groups.setdefault(key, []).append((q, factors))
            sums = {key: self.sum_of_products(group)
                    for key, group in groups.items()}
            return {key: value for key, value in sums.items() if value._terms}
        parts = []
        for key, q, factors in products:
            n, d = (q, 1) if type(q) is int else _rational(q)
            for x in factors:
                if x.ring is not self and x.ring != self:
                    raise RingMismatchError("factor belongs to a different ring")
                n *= x._terms.get(((), ()), 0)
                d *= x._den
            parts.append((key, n, d))
        den = math.lcm(*{d for _, _, d in parts})
        sums = {}
        for key, n, d in parts:
            n *= den // d
            acc = sums.get(key)
            sums[key] = n if acc is None else acc + n
        out = {}
        for key, n in sums.items():
            if n:
                g = math.gcd(n, den)
                out[key] = self._make({((), ()): n // g}, den // g)
        return out

    def linear_combination(self, pairs):
        """The sum of q * x over (rational q, element x) pairs."""
        return self._combination([(*_rational(q), x) for q, x in pairs])

    def _combination(self, triples):
        """The sum of n/d * x over (n, d, x) triples.  A rational combination
        of normal forms is a normal form, so nothing is reduced."""
        den = math.lcm(*[d * x._den for _, d, x in triples])
        out = {}
        get = out.get
        for n, d, x in triples:
            if x.ring is not self and x.ring != self:
                raise RingMismatchError("element belongs to a different ring")
            n *= den // (d * x._den)
            for key, c in x._terms.items():
                c *= n
                acc = get(key)
                out[key] = c if acc is None else acc + c
        return self._make(*_lowest(out, den))

    # -- parsing / rendering -------------------------------------------

    def parse(self, text):
        return _parse_scalar(self, text)


Q = Ring()  # the one ring without variables, shared by every numeric point


def _divides(lead_exps, exps):
    for l, e in zip(lead_exps, exps):
        if l and e < l:
            return False
    return True


def _multiply(left, right, out):
    """The product kernel: add left * right into `out`, unreduced, zeros
    kept, and return it."""
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
            key = (tuple(map(_add, e1, e2)), odds)
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            acc = get(key)
            out[key] = c if acc is None else acc + c
    return out


def _sum_of_products(products, unit):
    """(numerators, lcm of the d) of the sum of n/d * f1 * ... * fn over
    (n, d, numerator dicts) triples, unreduced; `unit` is the empty product."""
    den = math.lcm(*[d for _, d, _ in products])
    out = {}
    get = out.get
    for coeff, d, factors in products:
        coeff *= den // d
        left = factors[0] if factors else {unit: 1}
        if coeff != 1:
            left = {key: c * coeff for key, c in left.items()}
        if len(factors) < 2:
            for key, c in left.items():
                acc = get(key)
                out[key] = c if acc is None else acc + c
            continue
        for right in factors[1:-1]:
            left = _multiply(left, right, {})
        _multiply(left, factors[-1], out)
    return out, den


def _rule_for(exps, rules):
    for rule in rules:
        if _divides(rule[0], exps):
            return rule
    return None


def _rewrite(terms, den, rules, memo):
    """Normal form, in lowest terms, of `terms` over `den` in one linear
    pass: each reducible monomial is replaced by its normal form, computed
    once by `_normal_form` and kept in `memo`."""
    for exps, _ in terms:
        if _rule_for(exps, rules) is not None:
            break
    else:
        return _lowest(terms, den)
    forms = []
    for key, c in terms.items():
        form = memo.get(key)
        if form is None and _rule_for(key[0], rules) is not None:
            form = _normal_form(key, rules, memo)
        forms.append((key, c, form))
    lcm = math.lcm(*[form[1] for _, _, form in forms if form is not None])
    out = {}
    get = out.get
    for key, c, form in forms:
        if form is None:
            c *= lcm
            acc = get(key)
            out[key] = c if acc is None else acc + c
            continue
        form, fden = form
        c *= lcm // fden
        for k, f in form.items():
            f *= c
            acc = get(k)
            out[k] = f if acc is None else acc + f
    return _lowest(out, den * lcm)


def _normal_form(key, rules, memo):
    """The normal form (numerators, denominator) of the reducible monomial
    `key`, kept in `memo` with that of every reducible monomial met on the
    way.  One rewrite step turns a monomial into quotient * replacement; the
    monomials of that expansion are settled first, depth first on an
    explicit stack.  A monomial that reappears while its own normal form is
    being computed means the rules do not terminate."""
    expansions = {}  # monomials on the stack -> their one-step expansions
    stack = [key]
    while stack:
        top = stack[-1]
        expansion = expansions.get(top)
        if expansion is None:
            exps, odds = top
            lead_exps, (replacement, den) = _rule_for(exps, rules)
            quotient = {(tuple(e - l for e, l in zip(exps, lead_exps)), odds): 1}
            expansion = expansions[top] = (
                _multiply(quotient, replacement, {}), den)
        for k in expansion[0]:
            if k not in memo and _rule_for(k[0], rules) is not None:
                if k in expansions:
                    raise ReductionError("relation rewriting did not terminate")
                stack.append(k)
                break
        else:
            stack.pop()
            del expansions[top]
            memo[top] = _rewrite(*expansion, rules, memo)
    return memo[key]


class SuperScalar:
    """Canonical element of a supercommutative ring: `_terms` maps (even
    exponents, increasing Grassmann indices) to nonzero int numerators over
    the one denominator `_den`.  Immutable."""

    __slots__ = ("ring", "_terms", "_den")

    def __init__(self, ring, terms, den=1):
        self.ring = ring
        self._terms = terms
        self._den = den

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def terms(self):
        """Iterate (even_exps, odd_indices, coefficient as a Fraction)."""
        den = self._den
        for (exps, odds), coeff in self._terms.items():
            yield exps, odds, Fraction(coeff, den)

    def parity(self):
        """0, 1, or None for a mixed-parity (inhomogeneous) element."""
        parities = {len(odds) & 1 for (_, odds) in self._terms}
        if not parities:
            return None
        if len(parities) == 1:
            return parities.pop()
        return None

    def is_homogeneous(self):
        return len({len(odds) & 1 for (_, odds) in self._terms}) <= 1

    def homogeneous_parts(self):
        """Split into (even part, odd part)."""
        even = {}
        odd = {}
        for key, coeff in self._terms.items():
            (even if len(key[1]) % 2 == 0 else odd)[key] = coeff
        ring, den = self.ring, self._den
        return ring._make(*_lowest(even, den)), ring._make(*_lowest(odd, den))

    def as_fraction(self):
        """The rational value of a constant element; error otherwise."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            (key, coeff), = self._terms.items()
            if key == (self.ring._zero_exps, ()):
                return Fraction(coeff, self._den)
        raise ValueError(f"not a constant: {self}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (SuperScalar, int, Fraction)):
            return NotImplemented
        other = self.ring.coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        return self.ring._combination([(1, 1, self), (1, 1, other)])

    __radd__ = __add__

    def __neg__(self):
        return self.ring._combination([(-1, 1, self)])

    def __sub__(self, other):
        if not isinstance(other, (SuperScalar, int, Fraction)):
            return NotImplemented
        ring = self.ring
        return ring._combination([(1, 1, self), (-1, 1, ring.coerce(other))])

    def __rsub__(self, other):
        if not isinstance(other, (SuperScalar, int, Fraction)):
            return NotImplemented
        ring = self.ring
        return ring._combination([(1, 1, ring.coerce(other)), (-1, 1, self)])

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            # a rational multiple of a normal form is a normal form
            n, d = _rational(other)
            if n == d:
                return self
            return ring._combination([(n, d, self)])
        if not isinstance(other, SuperScalar):
            return NotImplemented
        ring.coerce(other)
        return ring._reduced(_multiply(self._terms, other._terms, {}),
                             self._den * other._den)

    def __rmul__(self, other):
        # other is int/Fraction: even, commutes freely
        return self * other

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self._invert() ** (-k)
        if not k:
            return self.ring.one()
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def _invert(self):
        if len(self._terms) != 1:
            raise ValueError("only monomials in Laurent variables are invertible")
        (key, coeff), = self._terms.items()
        exps, odds = key
        if odds:
            raise ValueError("Grassmann factors are not invertible")
        for pos, e in enumerate(exps):
            if e and self.ring.kind(self.ring._evens[pos]) != LAURENT:
                raise ValueError("only monomials in Laurent variables are invertible")
        return self.ring.monomial(tuple(-e for e in exps), (),
                                  Fraction(self._den, coeff))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, SuperScalar):
            return NotImplemented
        if other.ring != self.ring:
            return False
        return self._terms == other._terms and self._den == other._den

    __hash__ = None

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings):
        """Simultaneous substitution name -> value of the same ring and
        parity (or 0), then normalization."""
        ring = self.ring
        images = {name: ring.var(name) for name in ring.names}
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
            images[name] = value
        return self.map(ring, images)

    def map(self, target, images):
        """The ring homomorphism into `target` that sends each variable to
        `images[name]`, an element of `target` (see `map_products`).  The
        products are formed unreduced and their sum is reduced once."""
        return target.sum_of_products(
            map_products(self.ring, target, images)(self))

    def convert(self, target):
        """Re-express in `target`, matching variables by name and kind: the
        ring map that sends each variable to its namesake."""
        if target == self.ring:
            return target._make(dict(self._terms), self._den)
        return self.map(target, self.ring.namesakes(target))

    # -- rendering -------------------------------------------------------

    def render(self):
        """Terms in decreasing key order, each coefficient in lowest terms;
        a monomial's factor text is formed once per ring and kept."""
        if not self._terms:
            return "0"
        ring, den, text = self.ring, self._den, ""
        texts = ring._texts
        for key in sorted(self._terms, reverse=True):
            mono = texts.get(key)
            if mono is None:
                exps, odds = key
                mono = texts[key] = "*".join(
                    [name if e == 1 else f"{name}^{e}"
                     for name, e in zip(ring._evens, exps) if e]
                    + [ring._odds[i] for i in odds])
            c = self._terms[key]
            mag = -c if c < 0 else c
            if not mono or mag != den:
                g = math.gcd(mag, den)
                coeff = f"{mag // g}/{den // g}" if g != den else str(mag // g)
                mono = f"{coeff}*{mono}" if mono else coeff
            text += ("-" if c < 0 else "+" if text else "") + mono
        return text

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<{self.render()}>"


def map_products(source, target, images):
    """The ring map from `source` into `target` sending each variable to
    `images[name]`, an element of `target`, as a function from an element of
    `source` to the (coefficient, factors) pairs whose `sum_of_products` in
    `target` is its image (Grassmann factors in their stored order, a
    negative Laurent power inverted), the images checked once for all.  A
    coefficient is an int when integral, otherwise a Fraction."""
    evens = [images[name] for name in source._evens]
    odds = [images[name] for name in source._odds]
    for image in evens + odds:
        if image.ring is not target and image.ring != target:
            raise RingMismatchError("image belongs to a different ring")

    def products(x):
        den = x._den
        return [(coeff if den == 1 else Fraction(coeff, den),
                 [evens[pos] if k == 1 else evens[pos] ** k
                  for pos, k in enumerate(exps) if k]
                 + [odds[i] for i in odd_idx])
                for (exps, odd_idx), coeff in x._terms.items()]
    return products


def reduce_mod_relation(x, relation, leading_monomial):
    """Rewrite every occurrence of `leading_monomial` using ``relation ==
    0``.  Unlike a `Ring`'s relations it is not checked to terminate: with
    ``a*d - a^2 - d^2`` and leading monomial ``a*d``, rewriting ``a^2*d^2``
    comes back to ``a^2*d^2`` and raises ReductionError."""
    ring = x.ring
    if isinstance(leading_monomial, str):
        leading_monomial = ring.parse(leading_monomial)
    if isinstance(relation, str):
        relation = ring.parse(relation)
    rule = ring._compile_relation(relation, leading_monomial)
    # the rule is not the ring's, so its normal forms are kept apart
    return ring._make(*_rewrite(x._terms, x._den, (rule,), {}))


# -- text grammar -----------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<pow>\^-?\d+)"
    r"|(?P<star>\*)"
    r"|(?P<sign>[+-]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ScalarParseError(f"unexpected input at {rest[:10]!r}")
        pos = m.end()
        for group in ("num", "name", "pow", "star", "sign"):
            val = m.group(group)
            if val is not None:
                tokens.append((group, val))
                break
    return tokens


def _parse_scalar(ring, text):
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar")
    result = ring.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ScalarParseError("dangling sign")
        term = ring.scalar(sign)
        while True:
            kind, val = tokens[i]
            if kind == "num":
                den = val.partition("/")[2]
                if den and not int(den):
                    raise ScalarParseError(f"zero denominator in {val!r}")
                term = term * Fraction(val)
                i += 1
            elif kind == "name":
                if val not in ring._kinds:
                    raise ScalarParseError(f"unknown variable {val!r}")
                i += 1
                exp = 1
                if i < n and tokens[i][0] == "pow":
                    exp = int(tokens[i][1][1:])
                    i += 1
                vkind = ring.kind(val)
                if vkind == GRASSMANN and exp != 1:
                    raise ScalarParseError(
                        f"Grassmann factor {val!r} must be exponentless")
                if vkind == COMMUTING and exp < 1:
                    raise ScalarParseError(
                        f"exponent of {val!r} must be >= 1")
                term = term * (ring.var(val) ** exp)
            else:
                raise ScalarParseError(f"unexpected token {val!r}")
            if i < n and tokens[i][0] == "star":
                i += 1
                if i >= n:
                    raise ScalarParseError("dangling '*'")
                continue
            break
        result = result + term
        if i < n and tokens[i][0] not in ("sign",):
            raise ScalarParseError(f"unexpected token {tokens[i][1]!r}")
    return result


def rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None; a float or a
    Decimal raises TypeError."""
    n, d = _rational(q)
    if n < 0:
        return None
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)
