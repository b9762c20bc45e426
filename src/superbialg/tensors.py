"""Graded tensor powers of a superalgebra: wedges, the adjoint action on
rank-2 and rank-3 tensors, and the Schouten bracket [[r,r]].

Sign conventions (frozen here, used everywhere):

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

import re
from fractions import Fraction

from .scalars import EVEN, RingMismatchError, ScalarParseError


class GradedTensor:
    """Element of G, G(x)G or G(x)G(x)G with SuperScalar coefficients.

    `coeffs` maps basis-index tuples (length == rank) to scalars over
    `ring`; zero coefficients are never stored.
    """

    __slots__ = ("algebra", "rank", "coeffs", "ring")

    def __init__(self, algebra, rank, coeffs, ring=None):
        if rank not in (1, 2, 3):
            raise ValueError("rank must be 1, 2 or 3")
        self.algebra = algebra
        self.rank = rank
        self.ring = ring if ring is not None else algebra.ring
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    @classmethod
    def zero(cls, algebra, rank, ring=None):
        return cls(algebra, rank, {}, ring)

    def is_zero(self):
        return not self.coeffs

    def _compatible(self, other):
        if (other.algebra is not self.algebra or other.rank != self.rank
                or other.ring != self.ring):
            raise RingMismatchError("incompatible tensors")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            acc = out.get(k, self.ring.zero()) + v
            if acc.is_zero():
                out.pop(k, None)
            else:
                out[k] = acc
        return GradedTensor(self.algebra, self.rank, out, self.ring)

    def __neg__(self):
        return GradedTensor(self.algebra, self.rank,
                            {k: -v for k, v in self.coeffs.items()}, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """Left multiplication by a scalar (Koszul-free: the scalar sits in
        front of every term)."""
        scalar = self.ring.coerce(scalar)
        out = {}
        for k, v in self.coeffs.items():
            prod = scalar * v
            if not prod.is_zero():
                out[k] = prod
        return GradedTensor(self.algebra, self.rank, out, self.ring)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        if not isinstance(other, GradedTensor):
            return NotImplemented
        if (other.algebra is not self.algebra or other.rank != self.rank
                or other.ring != self.ring):
            return False
        return self.coeffs == other.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def basis_parity(self, idx):
        return sum(self.algebra.grades[i] for i in idx) % 2

    def parity(self):
        """Total parity (coefficient + slots), or None if inhomogeneous."""
        parities = set()
        for idx, coeff in self.coeffs.items():
            cp = coeff.parity()
            if cp is None:
                return None
            parities.add((cp + self.basis_parity(idx)) % 2)
        if not parities:
            return EVEN
        if len(parities) == 1:
            return parities.pop()
        return None

    def convert(self, ring):
        return GradedTensor(self.algebra, self.rank,
                            {k: v.convert(ring) for k, v in self.coeffs.items()},
                            ring)

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


def basis_tensor(algebra, idx, ring=None, coeff=1):
    ring = ring if ring is not None else algebra.ring
    return GradedTensor(algebra, len(idx), {tuple(idx): ring.coerce(coeff)}, ring)


def wedge(algebra, x, y, ring=None, coeff=1):
    """x ^ y = x(x)y - z(x,y) y(x)x on basis elements (names or indices)."""
    ring = ring if ring is not None else algebra.ring
    i = algebra.index[x] if isinstance(x, str) else x
    j = algebra.index[y] if isinstance(y, str) else y
    coeff = ring.coerce(coeff)
    out = {}
    zij = algebra.z(i, j)
    out[(i, j)] = coeff
    key = (j, i)
    acc = out.get(key, ring.zero()) - zij * coeff
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc
    return GradedTensor(algebra, 2, out, ring)


def ad_action(algebra, g, t):
    """Adjoint action of basis element `g` on a rank-2 or rank-3 tensor."""
    if t.rank == 1:
        raise ValueError("ad_action expects rank 2 or 3")
    gi = algebra.index[g] if isinstance(g, str) else g
    ggrade = algebra.grades[gi]
    ring = t.ring
    out = GradedTensor.zero(algebra, t.rank, ring)
    for idx, coeff in t.coeffs.items():
        for cpart in coeff.homogeneous_parts():
            if cpart.is_zero():
                continue
            # move g past the scalar coefficient
            csign = -1 if (ggrade and cpart.parity()) else 1
            slot_sign = 1
            for slot in range(t.rank):
                target = idx[slot]
                terms = {}
                for k, cval in algebra.bracket_indices(gi, target):
                    new_idx = idx[:slot] + (k,) + idx[slot + 1:]
                    value = (csign * slot_sign) * (cpart * cval.convert(ring))
                    if not value.is_zero():
                        terms[new_idx] = terms.get(new_idx, ring.zero()) + value
                if terms:
                    out = out + GradedTensor(algebra, t.rank, terms, ring)
                if ggrade and algebra.grades[target]:
                    slot_sign = -slot_sign
    return out


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
        for (k, l), v in self.coeffs.items():
            mirrored = self.coeffs.get((l, k), self.ring.zero())
            if not (v + algebra.z(k, l) * mirrored).is_zero():
                raise ValueError("r-matrix is not graded-antisymmetric")

    @classmethod
    def from_wedges(cls, algebra, entries, ring=None):
        """Build from (coefficient, name, name) wedge terms."""
        ring = ring if ring is not None else algebra.ring
        total = GradedTensor.zero(algebra, 2, ring)
        for coeff, x, y in entries:
            total = total + wedge(algebra, x, y, ring, coeff)
        return cls(algebra, total.coeffs, ring)


_WEDGE_TERM = re.compile(r"^(?:(?P<coeff>.*?)\s+)?(?P<x>\S+)\^(?P<y>\S+)$")


def _split_wedge_terms(text):
    """Split `1 H^P+ - 1 V+^V+` into signed term strings.

    A +/- token separates terms only when it stands alone between spaces;
    signs inside coefficients (e.g. `E^-1`) are untouched.
    """
    text = text.strip()
    if text.startswith("r") and "=" in text.split("^", 1)[0]:
        text = text.split("=", 1)[1].strip()
    tokens = text.split()
    terms = []
    current = []
    sign = 1
    for tok in tokens:
        if tok in ("+", "-"):
            if current:
                terms.append((sign, " ".join(current)))
                current = []
                sign = 1
            if tok == "-":
                sign = -sign
            continue
        current.append(tok)
    if current:
        terms.append((sign, " ".join(current)))
    return terms


def parse_wedge_sum(text, algebra, ring=None):
    """Parse `1 H^P+ - 1 V+^V+` (wedge grammar, SuperScalar coefficients)
    into a rank-2 tensor; a malformed term, an unknown basis name or a bad
    coefficient raises ScalarParseError."""
    ring = ring if ring is not None else algebra.ring
    total = GradedTensor.zero(algebra, 2, ring)
    for sign, term in _split_wedge_terms(text):
        m = _WEDGE_TERM.match(term)
        if not m:
            raise ScalarParseError(f"bad wedge term {term!r}")
        x, y = m.group("x"), m.group("y")
        if x not in algebra.index or y not in algebra.index:
            raise ScalarParseError(f"unknown basis name in {term!r}")
        coeff_text = m.group("coeff")
        coeff = ring.parse(coeff_text) if coeff_text else ring.one()
        total = total + wedge(algebra, x, y, ring, sign * coeff)
    return total


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
        text = coeff.render()
        parts.append(f"{text} {algebra.basis[k]}^{algebra.basis[l]}")
    return " + ".join(parts).replace("+ -", "- ")


def schouten(algebra, r):
    """[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] for an even r."""
    if r.rank != 2:
        raise ValueError("schouten expects a rank-2 tensor")
    if r.parity() != EVEN:
        raise ValueError("schouten expects an even homogeneous r")
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


def is_ad_invariant(algebra, t):
    """True when ad_g(t) = 0 for every basis element g."""
    return all(ad_action(algebra, g, t).is_zero() for g in range(algebra.dim))
