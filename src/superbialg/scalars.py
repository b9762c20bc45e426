"""Exact arithmetic in a supercommutative coefficient ring.

Elements live in Q[p1,...,pn][E,E^-1] (x) Lambda(th1,...,thm): rational
coefficients, commuting polynomial variables, optional group-like Laurent
variables (integer exponents of either sign), and anticommuting Grassmann
generators.  Everything is kept in a canonical sparse form: a term is a
rational coefficient times an exponent vector over the even variables times
a strictly increasing product of Grassmann generators.  Signs come from
bubble-sorting Grassmann factors into that fixed order; a repeated generator
annihilates the term.

Rings may carry rewrite relations (e.g. ``a*d - b*c + alpha*delta - 1`` with
leading monomial ``a*d``), in which case every arithmetic result is reduced
to its normal form automatically.

No floating point anywhere; all values are immutable and all operations are
pure functions.
"""

from __future__ import annotations

import re
from fractions import Fraction
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


def _merge_grassmann(left, right):
    """Merge two nonempty strictly increasing index tuples, counting crossings.

    Returns (merged tuple, sign) or (None, 0) when an index repeats.
    """
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
    coefficient 1, and the leading monomial must divide no other monomial of
    the relation.
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
        self._even_pos = {n: i for i, n in enumerate(self._evens)}
        self._odd_pos = {n: i for i, n in enumerate(self._odds)}
        self._zero_exps = (0,) * len(self._evens)
        self._relation_spec = tuple(relations)
        self._relations = ()
        rules = []
        for rel_text, lead_text in relations:
            rel = self.parse(rel_text)
            lead = self.parse(lead_text)
            rules.append(self._compile_relation(rel, lead))
        self._relations = tuple(rules)

    def _compile_relation(self, relation, leading):
        if len(leading._terms) != 1:
            raise ReductionError("leading monomial must be a single term")
        (lead_key, lead_coeff), = leading._terms.items()
        lead_exps, lead_odds = lead_key
        if lead_odds:
            raise ReductionError("leading monomial must be purely even")
        if any(k < 0 for k in lead_exps):
            raise ReductionError("leading monomial exponents must be nonnegative")
        if lead_coeff != 1:
            raise ReductionError("leading monomial must have coefficient 1")
        if relation.parity() not in (EVEN, None) or not relation.is_homogeneous():
            raise ReductionError("relation must be homogeneous even")
        if relation._terms.get(lead_key) != Fraction(1):
            raise ReductionError("leading monomial must occur in the relation with coefficient 1")
        for (exps, odds) in relation._terms:
            if (exps, odds) == lead_key:
                continue
            if _divides(lead_exps, exps):
                raise ReductionError("leading monomial divides another monomial of the relation")
        # lead == lead - relation modulo the relation
        replacement = self._make({lead_key: Fraction(1)}) - relation
        return (lead_exps, replacement)

    # -- constructors -------------------------------------------------

    def _make(self, terms):
        return SuperScalar(self, terms)

    def zero(self):
        return self._make({})

    def one(self):
        return self.scalar(1)

    def scalar(self, q):
        q = Fraction(q)
        if q == 0:
            return self.zero()
        return self._make({(self._zero_exps, ()): q})

    def var(self, name):
        kind = self._kinds.get(name)
        if kind is None:
            raise KeyError(f"no variable {name!r} in ring")
        if kind == GRASSMANN:
            return self._make({(self._zero_exps, (self._odd_pos[name],)): Fraction(1)})
        exps = list(self._zero_exps)
        exps[self._even_pos[name]] = 1
        return self._make({(tuple(exps), ()): Fraction(1)})

    def monomial(self, exps, odds, coeff=1):
        """coeff * the monomial, in normal form modulo the relations."""
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return self._make(self._reduce_terms({(tuple(exps), tuple(odds)): coeff}))

    def coerce(self, value):
        if isinstance(value, SuperScalar):
            if value.ring != self:
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

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return (self._evens == other._evens and self._odds == other._odds
                and self._kinds == other._kinds
                and self._relation_spec == other._relation_spec)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self._evens, self._odds, self._relation_spec))

    def __repr__(self):
        parts = [f"{n}:{self._kinds[n][0]}" for n in self.names]
        return f"Ring({' '.join(parts)})"

    # -- normal form ---------------------------------------------------

    def _reduce_terms(self, terms):
        if not self._relations:
            return terms
        return _rewrite(self, terms, self._relations)

    # -- parsing / rendering -------------------------------------------

    def parse(self, text):
        return _parse_scalar(self, text)


def _divides(lead_exps, exps):
    for l, e in zip(lead_exps, exps):
        if l and e < l:
            return False
    return True


def _rewrite(ring, terms, rules):
    """Normal form of a term dict under compiled (lead_exps, replacement)
    rules: repeatedly replace a term divisible by the first applicable
    leading monomial.  The input dict is left unchanged."""
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
        quotient = ring._make(
            {(tuple(e - l for e, l in zip(exps, lead_exps)), odds): coeff})
        for key, c in (quotient * replacement)._terms.items():
            acc = terms.get(key, Fraction(0)) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
    raise ReductionError("relation rewriting did not terminate")


class SuperScalar:
    """Canonical element of a supercommutative ring.

    Stored as a map from (even exponent vector, increasing Grassmann index
    tuple) to a nonzero Fraction.  Do not mutate; all operations return new
    values.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self._terms = terms

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def terms(self):
        """Iterate (even_exps, odd_indices, coefficient)."""
        for (exps, odds), coeff in self._terms.items():
            yield exps, odds, coeff

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
        return self.ring._make(even), self.ring._make(odd)

    def constant_term(self):
        return self._terms.get((self.ring._zero_exps, ()), Fraction(0))

    def as_fraction(self):
        """The rational value of a constant element; error otherwise."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            (key, coeff), = self._terms.items()
            if key == (self.ring._zero_exps, ()):
                return coeff
        raise ValueError(f"not a constant: {self}")

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if isinstance(other, SuperScalar):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError("operands from different rings")
            return other
        return self.ring.scalar(other)

    def __add__(self, other):
        if not isinstance(other, (SuperScalar, int, Fraction)):
            return NotImplemented
        other = self._check(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = terms.get(key, Fraction(0)) + coeff
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return self.ring._make(terms)

    __radd__ = __add__

    def __neg__(self):
        return self.ring._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            # a rational multiple of a normal form is a normal form
            if not other:
                return ring.zero()
            return ring._make({key: c * other for key, c in self._terms.items()})
        if not isinstance(other, SuperScalar):
            return NotImplemented
        self._check(other)
        out = {}
        get = out.get
        right = list(other._terms.items())
        for (e1, o1), c1 in self._terms.items():
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
        out = {key: c for key, c in out.items() if c}
        return ring._make(ring._reduce_terms(out))

    def __rmul__(self, other):
        # other is int/Fraction: even, commutes freely
        return self * other

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self._invert() ** (-k)
        result = self.ring.one()
        base = self
        n = k
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        return self.ring.monomial(tuple(-e for e in exps), (), Fraction(1, 1) / coeff)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, SuperScalar):
            return NotImplemented
        if other.ring != self.ring:
            return False
        return self._terms == other._terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings):
        """Simultaneous substitution name -> value, then normalization.

        Values must be elements of the same ring (or rationals).  A binding
        must preserve parity: even variables take even values, Grassmann
        variables take odd values or 0.
        """
        ring = self.ring
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
        for (exps, odds), coeff in self._terms.items():
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

    def convert(self, target):
        """Re-express in `target`, matching variables by name and kind."""
        if target == self.ring:
            return target._make(dict(self._terms))
        even_map = []
        for name in self.ring._evens:
            if name not in target._even_pos or target.kind(name) != self.ring.kind(name):
                raise RingMismatchError(f"target ring lacks variable {name!r}")
            even_map.append(target._even_pos[name])
        odd_map = []
        for name in self.ring._odds:
            if name not in target._odd_pos:
                raise RingMismatchError(f"target ring lacks Grassmann variable {name!r}")
            odd_map.append(target._odd_pos[name])
        out = {}
        zero = (0,) * len(target._evens)
        for (exps, odds), coeff in self._terms.items():
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
        out = target._reduce_terms(out)
        return target._make(out)

    # -- rendering -------------------------------------------------------

    def render(self):
        if not self._terms:
            return "0"
        pieces = []
        for key in sorted(self._terms, reverse=True):
            exps, odds = key
            coeff = self._terms[key]
            factors = []
            for pos, e in enumerate(exps):
                if not e:
                    continue
                name = self.ring._evens[pos]
                factors.append(name if e == 1 else f"{name}^{e}")
            factors.extend(self.ring._odds[i] for i in odds)
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

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<{self.render()}>"


def reduce_mod_relation(x, relation, leading_monomial):
    """Rewrite every occurrence of `leading_monomial` using `relation`.

    `relation` is understood as ``relation == 0``; the leading monomial must
    occur in it with coefficient 1 and divide no other monomial of it, which
    makes single-relation rewriting confluent and terminating (every other
    monomial is smaller in the degree-lexicographic order that ranks the
    leading variable highest).
    """
    ring = x.ring
    if isinstance(leading_monomial, str):
        leading_monomial = ring.parse(leading_monomial)
    if isinstance(relation, str):
        relation = ring.parse(relation)
    rule = ring._compile_relation(relation, leading_monomial)
    return ring._make(_rewrite(ring, x._terms, (rule,)))


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
    """Exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    import math
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)
