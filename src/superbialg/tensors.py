"""Graded tensors of a superalgebra, the one sparse representation: an
r-matrix is a rank-2 `GradedTensor` and a cobracket a rank-3 one.  Here too
are wedges, the adjoint action, the Schouten bracket [[r,r]], the graded
antisymmetry residual and the sparse contraction shared by the Jacobi and
co-Jacobi checks.  Each of their coefficients is one key of `Ring.accumulate`.

Sign conventions (frozen here, used everywhere):

* cobracket: delta(g_i) = f_i^{kl} g_k (x) g_l is stored at key (i, k, l).
  Its first slot is the dual (lower) one; the other two hold g (x) g.

* wedge: x ^ y = x (x) y - z(x,y) y (x) x, with NO 1/2 factor.  For two odd
  basis elements this symmetrizes, so V+ ^ V+ = 2 V+ (x) V+.  The convention
  is the one under which the coboundary cobrackets reproduce the published
  bracket tables (see the poisson module).

* adjoint action on g_k (x) g_l: [g, g_k] (x) g_l + z(g, g_k) g_k (x) [g, g_l],
  extended to rank 3 with two Koszul crossings, and to scalar coefficients f
  with the prefactor (-1)^{|g||f|}.

* Schouten bracket of an even r = r^{kl} g_k (x) g_l with itself:
      [r12,r13] = z(l,m) r^{kl} r^{mn} [g_k,g_m] (x) g_l (x) g_n
      [r12,r23] =        r^{kl} r^{mn} g_k (x) [g_l,g_m] (x) g_n
      [r13,r23] = z(l,m) r^{kl} r^{mn} g_k (x) g_m (x) [g_l,g_n]
  The z(l,m) factors are the single source of sign truth for all three
  pairwise brackets; they come from transporting odd symbols past one
  another in U(G) (x) U(G) (x) U(G).
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .scalars import EVEN, RingMismatchError, ScalarParseError, map_products


class GradedTensor:
    """Element of G, G(x)G or G(x)G(x)G with SuperScalar coefficients.

    `coeffs` maps basis-index tuples (length == rank) to scalars over
    `ring`; zero coefficients are never stored.  The operations below return
    a tensor of the same kind, built by `_new`.
    """

    __slots__ = ("algebra", "rank", "coeffs", "ring")

    def __init__(self, algebra, rank, coeffs, ring=None):
        if rank not in (1, 2, 3):
            raise ValueError("rank must be 1, 2 or 3")
        self.algebra = algebra
        self.rank = rank
        self.ring = ring if ring is not None else algebra.ring
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    def _new(self, coeffs, ring):
        return GradedTensor(self.algebra, self.rank, coeffs, ring)

    @classmethod
    def zero(cls, algebra, rank, ring=None):
        return cls(algebra, rank, {}, ring)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if (other.algebra is not self.algebra or other.rank != self.rank
                or other.ring != self.ring):
            raise RingMismatchError("incompatible tensors")
        return self._new(self.ring.accumulate(
            (k, 1, (v,)) for t in (self, other) for k, v in t.coeffs.items()),
            self.ring)

    def __neg__(self):
        return self._new({k: -v for k, v in self.coeffs.items()}, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """Left multiplication by a scalar (Koszul-free: the scalar sits in
        front of every term)."""
        scalar = self.ring.coerce(scalar)
        return self._new({k: scalar * v for k, v in self.coeffs.items()},
                         self.ring)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        if not isinstance(other, GradedTensor):
            return NotImplemented
        if (other.algebra is not self.algebra or other.rank != self.rank
                or other.ring != self.ring):
            return False
        return self.coeffs == other.coeffs

    __hash__ = None

    def parity(self):
        """Total parity (coefficient + slots), or None if inhomogeneous."""
        parities = set()
        for idx, coeff in self.coeffs.items():
            cp = coeff.parity()
            if cp is None:
                return None
            parities.add((cp + sum(self.algebra.grades[i] for i in idx)) % 2)
        if not parities:
            return EVEN
        if len(parities) == 1:
            return parities.pop()
        return None

    def map(self, ring, images):
        """`SuperScalar.map(ring, images)` on every coefficient, with the
        images checked once."""
        return self._map(ring, map_products(self.ring, ring, images))

    def _map(self, ring, products):
        return self._new(ring.accumulate(
            (k, q, factors) for k, v in self.coeffs.items()
            for q, factors in products(v)), ring)

    def convert(self, ring):
        return self.map(ring, self.ring.namesakes(ring))

    def render(self):
        if not self.coeffs:
            return "0"
        names = self.algebra.basis
        parts = []
        for idx in sorted(self.coeffs):
            label = "(x)".join(names[i] for i in idx)
            parts.append(f"({self.coeffs[idx].render()}) {label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<rank-{self.rank} {self.render()}>"


def wedge(algebra, x, y, ring=None, coeff=1):
    """x ^ y = x(x)y - z(x,y) y(x)x on basis elements (names or indices)."""
    return _wedge_sum(algebra, [(coeff, x, y)], ring)


def _wedge_sum(algebra, entries, ring=None):
    """The sum of coeff * (x ^ y) over (coeff, x, y) terms, accumulated
    into one coefficient dict."""
    ring = ring if ring is not None else algebra.ring
    products = []
    for coeff, x, y in entries:
        i = algebra.index[x] if isinstance(x, str) else x
        j = algebra.index[y] if isinstance(y, str) else y
        coeff = (ring.coerce(coeff),)
        products += [((i, j), 1, coeff), ((j, i), -algebra.z(i, j), coeff)]
    return GradedTensor(algebra, 2, ring.accumulate(products), ring)


def ad_action(algebra, g, t):
    """Adjoint action of basis element `g` on a tensor of g (x) g or
    g (x) g (x) g; a cobracket, whose first slot is dual, is refused."""
    if t.algebra is not algebra:
        raise RingMismatchError("tensor of a different algebra")
    if t.rank == 1 or isinstance(t, Cobracket):
        raise ValueError("ad_action expects a tensor of rank 2 or 3 over g")
    gi = algebra.index[g] if isinstance(g, str) else g
    return GradedTensor(algebra, t.rank,
                        t.ring.accumulate(_adjoint(algebra, gi, t)), t.ring)


def _adjoint(algebra, gi, t):
    """The (index, sign, (scalar, structure constant)) triples whose
    `Ring.accumulate` is ad_{g_i}(t), for any rank: the bracket enters each slot in
    turn after the Koszul signs of the scalar's parity parts and prior slots."""
    ggrade = algebra.grades[gi]
    constants = algebra.constants_in(t.ring)
    # without Grassmann generators every scalar is even: nothing to split
    split = ggrade and t.ring.odd_names
    for idx, coeff in t.coeffs.items():
        for cpart in coeff.homogeneous_parts() if split else (coeff,):
            if cpart.is_zero():
                continue
            # move g past the scalar coefficient, then past each slot
            sign = -1 if (split and cpart.parity()) else 1
            for slot, target in enumerate(idx):
                for k, cval in constants.get((gi, target), ()):
                    yield idx[:slot] + (k,) + idx[slot + 1:], sign, (cpart, cval)
                if ggrade and algebra.grades[target]:
                    sign = -sign


def contract(ring, rows):
    """T(a,b,c,d) = sum_j rows[a][(b,j)] rows[j][(c,d)] over stored entries,
    each stored product formed once, accumulated over `ring`.

    `rows` is a list of {(b, j): scalar} dicts.  With rows[i][(k,l)] = f_i^{kl}
    this is the co-Jacobi contraction of a cobracket; with rows[i][(j,k)] =
    c_ij^k it is [[g_a,g_b],g_c]_d, the Jacobi term of an algebra.
    """
    return ring.accumulate((
        ((a, b, c, d), 1, (left, right))
        for a, row in enumerate(rows) for (b, j), left in row.items()
        for (c, d), right in rows[j].items()))


def _graded_antisymmetry(algebra, ring, coeffs, at):
    """{key: t[.., k, l, ..] + z(k,l) t[.., l, k, ..]} for the index pair at
    `at`, `at` + 1, keyed with k <= l and zero sums dropped: t enters its
    sorted key with 1 (k < l), z(k,l) (k > l) or 1 + z(k,k) (k = l)."""
    return ring.accumulate((
        (key[:at] + (min(k, l), max(k, l)) + key[at + 2:],
         (k <= l) + (k >= l) * algebra.z(k, l), (v,))
        for key, v in coeffs.items() for k, l in (key[at:at + 2],)))


class RMatrix(GradedTensor):
    """Even rank-2 tensor in (G_B ^ G_B) + (G_F ^ G_F).

    Every stored coefficient must couple two even or two odd basis elements,
    carry an even scalar, and satisfy graded antisymmetry
    r^{kl} = -z(k,l) r^{lk}.
    """

    def __init__(self, algebra, coeffs, ring=None):
        super().__init__(algebra, 2, coeffs, ring)
        for (k, l), v in self.coeffs.items():
            if (algebra.grades[k] + algebra.grades[l]) % 2:
                raise ValueError(
                    f"r-matrix couples {algebra.basis[k]} with {algebra.basis[l]}"
                    " across the grading")
            if v.parity() not in (EVEN, None) or not v.is_homogeneous():
                raise ValueError("r-matrix coefficients must be even")
        if _graded_antisymmetry(algebra, self.ring, self.coeffs, 0):
            raise ValueError("r-matrix is not graded-antisymmetric")

    @classmethod
    def from_wedges(cls, algebra, entries, ring=None):
        """Build from (coefficient, name, name) wedge terms."""
        total = _wedge_sum(algebra, entries, ring)
        return cls(algebra, total.coeffs, total.ring)


class Cobracket(GradedTensor):
    """delta(g_i) = f_i^{kl} g_k (x) g_l: the rank-3 tensor keyed (i, k, l),
    whose first slot is dual.  The operations of `GradedTensor` return a
    Cobracket; `rows` views it as delta(g_i) per basis element."""

    def __init__(self, algebra, coeffs, ring=None):
        super().__init__(algebra, 3, coeffs, ring)

    def _new(self, coeffs, ring):
        return Cobracket(self.algebra, coeffs, ring)

    @classmethod
    def from_rows(cls, algebra, rows, ring=None):
        """Build from {name: rank-2 tensor of this algebra and ring} rows."""
        zero = GradedTensor.zero(algebra, 2, ring)
        return cls(algebra, {(algebra.index[name], *kl): v
                             for name, row in rows.items()
                             for kl, v in (zero + row).coeffs.items()}, zero.ring)

    @classmethod
    def from_entries(cls, algebra, ring, entries):
        """Build from ((i, k, l), value) pairs: each value is added at
        f_i^{kl} and, for k != l, at f_i^{lk} with the graded sign -z(k,l)."""
        products = []
        for (i, k, l), value in entries:
            value = (ring.coerce(value),)
            products.append(((i, k, l), 1, value))
            if k != l:
                products.append(((i, l, k), -algebra.z(k, l), value))
        return cls(algebra, ring.accumulate(products), ring)

    @functools.cached_property
    def rows(self):
        """delta(g_i) for each i, as rank-2 tensors, built once."""
        return tuple(GradedTensor(self.algebra, 2, {
            (k, l): v for (j, k, l), v in self.coeffs.items() if j == i},
            self.ring) for i in range(self.algebra.dim))

    def delta(self, g):
        """delta(g_i) as a rank-2 tensor."""
        return self.rows[self.algebra.index[g] if isinstance(g, str) else g]

    @property
    def f(self):
        """The dense table f[i][k][l], built on each access."""
        n, zero = range(self.algebra.dim), self.ring.zero()
        return [[[self.coeffs.get((i, k, l), zero) for l in n] for k in n]
                for i in n]

    def render(self):
        lines = [f"delta {name} = {text}" for name, text in zip(
            self.algebra.basis, map(render_wedge_form, self.rows)) if text != "0"]
        return "\n".join(lines) or "delta = 0"


_WEDGE_TERM = re.compile(r"^(?:(?P<coeff>.*?)\s+)?(?P<x>\S+)\^(?P<y>\S+)$")


def _split_wedge_terms(text):
    """Split `1 H^P+ - 1 V+^V+` into signed term strings.

    A +/- token separates terms only when it stands alone between spaces;
    signs inside coefficients (e.g. `E^-1`) are untouched.
    """
    text = text.strip()
    if text.startswith("r") and "=" in text.split("^", 1)[0]:
        text = text.split("=", 1)[1].strip()
    if not text:
        raise ScalarParseError("empty wedge sum")
    if text == "0":
        return []
    terms = []
    current = []
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            if current:
                terms.append((sign, " ".join(current)))
                current = []
                sign = 1
            if tok == "-":
                sign = -sign
            continue
        current.append(tok)
    if not current:
        raise ScalarParseError("dangling sign")
    terms.append((sign, " ".join(current)))
    return terms


def parse_wedge_sum(text, algebra, ring=None):
    """Parse `1 H^P+ - 1 V+^V+` (wedge grammar, SuperScalar coefficients)
    into a rank-2 tensor; a lone `0` is the zero tensor.  A blank sum, a
    sign with no term after it, a malformed term, an unknown basis name or a
    bad coefficient raises ScalarParseError."""
    ring = ring if ring is not None else algebra.ring
    entries = []
    for sign, term in _split_wedge_terms(text):
        m = _WEDGE_TERM.match(term)
        if not m:
            raise ScalarParseError(f"bad wedge term {term!r}")
        x, y = m.group("x"), m.group("y")
        if x not in algebra.index or y not in algebra.index:
            raise ScalarParseError(f"unknown basis name in {term!r}")
        coeff_text = m.group("coeff")
        coeff = ring.parse(coeff_text) if coeff_text else ring.one()
        entries.append((sign * coeff, x, y))
    return _wedge_sum(algebra, entries, ring)


def parse_rmatrix(text, algebra, ring=None):
    """Parse a wedge sum (see `parse_wedge_sum`) as an r-matrix."""
    total = parse_wedge_sum(text, algebra, ring)
    return RMatrix(algebra, total.coeffs, total.ring)


def render_wedge_form(t):
    """Render a rank-2 tensor in the wedge grammar (k<l plus odd diagonal)."""
    if t.is_zero():
        return "0"
    algebra = t.algebra
    parts = []
    for (k, l) in sorted(t.coeffs):
        if k > l:
            continue
        coeff = t.coeffs[(k, l)]
        if k == l:
            coeff = coeff * Fraction(1, 2)
        text = f"{coeff.render()} {algebra.basis[k]}^{algebra.basis[l]}"
        # only a one-term coefficient gives its sign to the joint: the
        # parser reads `- a+b` as -(a+b), so -a+b joins as `+ -a+b`
        if not parts:
            parts.append(text)
        elif text[0] == "-" and len(coeff._terms) == 1:
            parts.append(f" - {text[1:]}")
        else:
            parts.append(f" + {text}")
    return "".join(parts)


def schouten(algebra, r):
    """[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] for an even r."""
    if r.algebra is not algebra:
        raise RingMismatchError("tensor of a different algebra")
    if r.rank != 2:
        raise ValueError("schouten expects a rank-2 tensor")
    if r.parity() != EVEN:
        raise ValueError("schouten expects an even homogeneous r")
    ring = r.ring
    constants = algebra.constants_in(ring)
    products = []
    for (k, l), r1 in r.coeffs.items():
        for (m, n), r2 in r.coeffs.items():
            zlm = algebra.z(l, m)
            products += [((p, l, n), zlm, (r1, r2, cval))
                         for p, cval in constants.get((k, m), ())]
            products += [((k, p, n), 1, (r1, r2, cval))
                         for p, cval in constants.get((l, m), ())]
            products += [((k, m, p), zlm, (r1, r2, cval))
                         for p, cval in constants.get((l, n), ())]
    return GradedTensor(algebra, 3, ring.accumulate(products), ring)


def is_ad_invariant(algebra, t):
    """True when ad_g(t) = 0 for every basis element g."""
    return all(ad_action(algebra, g, t).is_zero() for g in range(algebra.dim))
