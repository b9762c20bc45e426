"""Automorphism groups of the two superalgebras and orbit verification.

Automorphisms are grade-preserving matrices of even scalars; structure
preservation is checked, never assumed.  One transport moves every tensor:
its dual slots by phi^-1 and the others by phi.  It carries an r-matrix by
phi (x) phi and a cobracket by phi^-1 on its dual first slot, so that
coboundary construction commutes with transforms, and phi is an
automorphism exactly when it carries the structure constants, with two dual
slots, to themselves.

The published equivalences come without witnesses; the concrete matrices
realizing each claim were solved for once and are frozen here, nine claims
as (map, source, target) rows of one witness table checked by one loop
(`_Witnesses`), four of other shapes as functions (`verify_orbit_claims`).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Ring, RingMismatchError
from .algebra import builtin
from .tensors import Cobracket, GradedTensor, RMatrix
from .bialgebra import cybe_status, family


def _matmul(left, right, ring):
    """The product of two square matrices of scalars over `ring`, entry
    (i, j) one key of `ring.accumulate`."""
    n, zero = len(left), ring.zero()
    sums = ring.accumulate(((i, j), 1, (x, y)) for i in range(n)
                           for k, x in enumerate(left[i]) if x._terms
                           for j, y in enumerate(right[k]) if y._terms)
    return [[sums.get((i, j), zero) for j in range(n)] for i in range(n)]


class Automorphism:
    """Basis map phi(g_i) = sum_j M[i][j] g_j with even scalar entries.

    The inverse matrix is supplied analytically by each constructor; it is
    verified against the forward matrix on construction.
    """

    def __init__(self, algebra, matrix, inverse, ring=None, name=""):
        self.algebra = algebra
        self.ring = ring if ring is not None else algebra.ring
        self.name = name
        n = algebra.dim
        self.matrix, self.inverse = (
            [[self.ring.coerce(m[i][j]) for j in range(n)] for i in range(n)]
            for m in (matrix, inverse))
        if any(len(odds) % 2 for row in self.matrix + self.inverse
               for v in row for _, odds in v._terms):
            raise ValueError("automorphism entries must be even scalars")
        if any(algebra.grades[i] != algebra.grades[j]
               and not self.matrix[i][j].is_zero()
               for i in range(n) for j in range(n)):
            raise ValueError("automorphism mixes the grading blocks")
        product = _matmul(self.matrix, self.inverse, self.ring)
        if any(product[i][j] != int(i == j) for i in range(n) for j in range(n)):
            raise ValueError("inverse matrix does not invert the map")

    def is_structure_preserving(self):
        """[phi(g_i), phi(g_j)] == phi([g_i, g_j]) for all pairs: phi
        transports the structure constants c_ij^k to themselves."""
        constants = {(i, j, k): v for (i, j), found in
                     self.algebra.constants_in(self.ring).items() for k, v in found}
        return _transport(self, constants, 2) == constants

    def __repr__(self):
        return f"<Automorphism {self.name or 'phi'} on {self.algebra.name}>"


def osp_automorphism(a, b, c, d, ring=None):
    """The osp(1|2) automorphism determined by the fermion map
    V+ -> a V+ + b V-, V- -> c V+ + d V- (requires ad - bc = 1).

    The boson block follows: H -> -ac X+ + (ad+bc) H + bd X-,
    X+ -> a^2 X+ - 2ab H - b^2 X-, X- -> -c^2 X+ + 2cd H + d^2 X-.
    """
    algebra = builtin("osp12")
    if ring is None:
        ring = algebra.ring
    a, b, c, d = (ring.coerce(v) for v in (a, b, c, d))
    det = a * d - b * c
    if det != ring.one():
        raise ValueError(f"determinant must be 1; residual {(det - 1).render()}")
    zero = ring.zero()

    def blocks(a, b, c, d):
        return [
            [a * d + b * c, -(a * c), b * d, zero, zero],   # H
            [-2 * (a * b), a * a, -(b * b), zero, zero],    # X+
            [2 * (c * d), -(c * c), d * d, zero, zero],     # X-
            [zero, zero, zero, a, b],                       # V+
            [zero, zero, zero, c, d],                       # V-
        ]

    # inverse fermion block of an SL(2) matrix: (d, -b, -c, a)
    return Automorphism(algebra, blocks(a, b, c, d),
                        blocks(d, -b, -c, a), ring,
                        name=f"osp({a},{b},{c},{d})")


def e2_automorphism(gen, alpha=None, beta=None, ring=None):
    """super-e(2) automorphism generators.

    shift: H -> H + alpha P+ + beta P-, the rest fixed.
    flip:  H -> -H, P+/- -> P-/+, D+/- -> D-/+.
    scale: P+ -> alpha^2 P+, D+ -> alpha D+, P- -> beta^2 P-, D- -> beta D-
           (alpha, beta invertible).

    The inverse is the same generator at the inverse parameters:
    shift(-alpha, -beta), scale(1/alpha, 1/beta), and flip itself.
    """
    algebra = builtin("super_e2")
    if ring is None:
        ring = algebra.ring
    if gen not in ("shift", "flip", "scale"):
        raise KeyError(f"unknown generator {gen!r} (shift | flip | scale)")
    unit = 0 if gen == "shift" else 1
    alpha, beta = (ring.coerce(unit if v is None else v) for v in (alpha, beta))
    inverse = (alpha, beta)   # flip is an involution and ignores them
    if gen == "shift":
        inverse = (-alpha, -beta)
    elif gen == "scale":
        if alpha.is_zero() or beta.is_zero():
            raise ValueError("scale parameters must be nonzero")
        try:
            inverse = (alpha ** -1, beta ** -1)
        except ValueError as exc:
            raise ValueError("scale parameters must be invertible") from exc
    one, zero = ring.one(), ring.zero()

    def matrix(alpha, beta):
        if gen == "flip":
            m = [[zero] * 5 for _ in range(5)]
            m[0][0], m[1][2], m[2][1], m[3][4], m[4][3] = -one, one, one, one, one
            return m
        m = [[one if i == j else zero for j in range(5)] for i in range(5)]
        if gen == "shift":
            m[0][1], m[0][2] = alpha, beta
        else:
            m[1][1], m[2][2] = alpha * alpha, beta * beta
            m[3][3], m[4][4] = alpha, beta
        return m

    name = "flip" if gen == "flip" else f"{gen}({alpha},{beta})"
    return Automorphism(algebra, matrix(alpha, beta), matrix(*inverse), ring,
                        name=name)


def _transport(phi, coeffs, dual):
    """{key: coefficient} of a tensor moved through phi over phi.ring: each
    of the first `dual` slots by phi^-1, t'_i = sum_p phi^-1[i][p] t_p, and
    every other slot by phi, t'^j = sum_k t^k phi[k][j].  The entries are
    even, so no Koszul sign enters."""
    down = [[(i, m) for i, m in enumerate(column) if m._terms]
            for column in zip(*phi.inverse)]
    up = [[(j, m) for j, m in enumerate(row) if m._terms] for row in phi.matrix]
    # expand one slot at a time, extending every (index, key, factors) prefix
    terms = [(idx, (), (v,)) for idx, v in coeffs.items()]
    for n in range(len(next(iter(coeffs), ()))):
        moves = down if n < dual else up
        terms = [(idx, key + (j,), factors + (m,)) for idx, key, factors in terms
                 for j, m in moves[idx[n]]]
    return phi.ring.accumulate((key, 1, factors) for _, key, factors in terms)


def transform(phi, x):
    """Transport a tensor of phi's algebra: an RMatrix by phi (x) phi, a
    Cobracket by phi^-1 on its dual slot and phi (x) phi on the others,
    delta'(g_i) = sum_p phi^-1[i][p] (phi (x) phi)(delta(g_p))."""
    if x.algebra is not phi.algebra:
        raise RingMismatchError("tensor of a different algebra")
    ring = phi.ring
    src = x.convert(ring) if x.ring != ring else x
    moved = _transport(phi, src.coeffs, isinstance(x, Cobracket))
    if isinstance(x, RMatrix):
        return RMatrix(phi.algebra, moved, ring)
    return x._new(moved, ring)


# -- orbit claims with frozen witnesses --------------------------------------

class OrbitClaim:
    def __init__(self, claim_id, anchor, run):
        self.claim_id = claim_id
        self.anchor = anchor
        self.run = run


_FAMILIES = {"r_a": "osp-r-a", "r_b": "osp-r-b", "r1": "osp-r1", "r2": "osp-r2",
             "r3": "osp-r3", "case_A": "e2-case-a", "case_B": "e2-case-b"}


def _label(point):
    name, *args = point
    return f"{name}({','.join(str(a) for a in args)})"


class _Witnesses:
    """A claim's run over witness rows (map, source, target), points being
    (family, *args).  A row asserts transform(phi, source) == target, with
    phi = osp_automorphism(*args) for ("osp", *args), else
    e2_automorphism(gen, *args), built over the source's ring when the claim
    runs; a row with map None asserts source == target."""

    def __init__(self, detail, *rows):
        self.detail = detail
        self.rows = rows

    def __call__(self):
        for spec, source, target in self.rows:
            x = family(_FAMILIES[source[0]], *source[1:])
            want = family(_FAMILIES[target[0]], *target[1:])
            if spec is None:
                if x != want:
                    return False, f"{_label(source)} is not {_label(target)}"
                continue
            gen, *args = spec
            phi = (osp_automorphism(*args, ring=x.ring) if gen == "osp"
                   else e2_automorphism(gen, *args, ring=x.ring))
            if transform(phi, x) != want:
                return False, (f"{phi.name} does not carry {_label(source)}"
                               f" to {_label(target)}")
        return True, self.detail


def _claim_congruence():
    """The r_a parameters transform like the symmetric form S = [[y,-x],[-x,z]]
    under congruence: S -> M^T S M for the map with fermion block
    M = [[a,b],[c,d]], symbolically under ad-bc=1.  (Transporting along the
    inverse map gives the same law with M replaced by M^-1; the content is
    the Sylvester orbit structure either way.)"""
    ring = Ring([(v, "commuting") for v in "abcdxyz"],
                relations=[("a*d-b*c-1", "a*d")])
    a, b, c, d, x, y, z = (ring.var(v) for v in "abcdxyz")
    phi = osp_automorphism(a, b, c, d, ring)
    if not phi.is_structure_preserving():
        return False, "osp automorphism fails structure preservation"
    r_a = family("osp-r-a").convert(ring)
    law = {"x": -(a * b * y) + (a * d + b * c) * x - c * d * z,
           "y": a * a * y - 2 * a * c * x + c * c * z,
           "z": b * b * y - 2 * b * d * x + d * d * z}
    expected = GradedTensor(phi.algebra, 2, {
        k: v.substitute(law) for k, v in r_a.coeffs.items()}, ring)
    ok = transform(phi, r_a) == expected
    return ok, "parameters follow the symmetric-form congruence law (M^T S M)"


def _claim_e2_generators():
    """The three super-e(2) generators preserve the bracket (shift and scale
    symbolically)."""
    ring = Ring([("al", "commuting"), ("be", "commuting")])
    for phi in (e2_automorphism("shift", ring.var("al"), ring.var("be"),
                                ring=ring),
                e2_automorphism("flip"), e2_automorphism("scale", 3, -2)):
        if not phi.is_structure_preserving():
            return False, f"{phi.name.partition('(')[0]} fails"
    return True, "shift (symbolic), flip, scale all preserve the bracket"


def _claim_det_condition():
    """ad - bc != 1 is rejected: the boson block is no automorphism."""
    try:
        osp_automorphism(1, 0, 0, 2)
    except ValueError as exc:
        return True, f"rejected: {exc}"
    return False, "determinant 2 was accepted"


def _claim_cybe_preserved():
    """Equivalence preserves the CYBE/mCYBE classification on the frozen
    witnesses."""
    osp = builtin("osp12")
    for fermion, r in (((1, 0, 1, 1), family("osp-r-a", 1, 1, 1)),
                       ((0, -1, 1, 1), family("osp-r-a", 1, 2, 1)),
                       ((2, 3, 1, 2), family("osp-r-b", 2, 3))):
        moved = transform(osp_automorphism(*fermion), r)
        if cybe_status(osp, r) != cybe_status(osp, moved):
            return False, "classification changed under a witness"
    return True, "CYBE status invariant on all frozen witnesses"


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)

ORBIT_CLAIMS = [
    OrbitClaim("orbit.congruence", "r_a parameter congruence law", _claim_congruence),
    # x^2 - yz = 0 (nonzero)
    OrbitClaim("orbit.ra-to-r2", "degenerate r_a orbit lands on r2", _Witnesses(
        "witness (1,1,0,1): r_a(1,1,1) -> r2",
        (None, ("r_a", 0, 1, 0), ("r2",)),
        (("osp", 1, 1, 0, 1), ("r_a", 1, 1, 1), ("r2",)))),
    # x^2 - yz != 0
    OrbitClaim("orbit.ra-to-r3", "nondegenerate r_a orbit lands on r3(t)", _Witnesses(
        "witnesses (1,0,1,1) and (1/2,-1/2,1,1) realize r_a -> r3(t)",
        (None, ("r_a", 0, 1, 1), ("r3", 1)),
        (("osp", 1, 0, 1, 1), ("r_a", 1, 2, 1), ("r3", 1)),
        (("osp", _HALF, -_HALF, 1, 1), ("r_a", 0, 4, 1), ("r3", 2)))),
    # r_b is always equivalent to a multiple of r1
    OrbitClaim("orbit.rb-to-r1", "r_b orbit lands on r1", _Witnesses(
        "witnesses (1,1,0,1) and (2,3,1,2) realize r_b -> r1",
        (("osp", 1, 1, 0, 1), ("r_b", 1, 1), ("r1",)),
        (("osp", 2, 3, 1, 2), ("r_b", 2, 3), ("r1",)))),
    OrbitClaim("orbit.e2-generators", "the three super-e(2) generators", _claim_e2_generators),
    OrbitClaim("orbit.det-condition", "ad-bc=1 is necessary", _claim_det_condition),
    # families (iii) and (ii) normal forms at square parameter points
    OrbitClaim("orbit.case-a-scale", "case A scaling to families (ii)/(iii)", _Witnesses(
        "a, b scale to 1 or 0 at square parameter points",
        (("scale", _HALF, _THIRD), ("case_A", 4, 9, 5),
         ("case_A", 1, 1, Fraction(5, 36))),
        (("scale", _HALF, 1), ("case_A", 4, 0, 5), ("case_A", 1, 0, Fraction(5, 4))))),
    # flip swaps the case-A parameters (a,b,c,m) -> (b,a,c,m)
    OrbitClaim("orbit.case-a-flip", "case A flip swaps a and b", _Witnesses(
        "flip then scale reduces (0,9,5) to the (ii) family",
        (("flip",), ("case_A", 0, 9, 5), ("case_A", 9, 0, 5)),
        (("scale", _THIRD, 1), ("case_A", 9, 0, 5), ("case_A", 1, 0, Fraction(5, 9))))),
    # the two sign branches (last argument) are equivalent, also symbolically
    # over Q[a,b,c,m]/(m^2 - ab)
    OrbitClaim("orbit.case-a-branch", "case A sign branches are equivalent", _Witnesses(
        "witness scale(1,-1), symbolically in (a,b,c,m)",
        (("scale", 1, -1), ("case_A", 4, 9, 5), ("case_A", 4, 9, 5, -1)),
        (("scale", 1, -1), ("case_A",), ("case_A", None, None, None, -1)))),
    # d != 0: shift(a/2d, b/2d) kills a, b, c (family (iv) normal form)
    OrbitClaim("orbit.case-b-shift", "case B shift to family (iv)", _Witnesses(
        "witness shift(1,3/2): case_B(2,3,0,1) -> case_B(0,0,0,1)",
        (("shift", 1, Fraction(3, 2)), ("case_B", 2, 3, 0, 1), ("case_B", 0, 0, 0, 1)))),
    # d = 0 reductions to families (v) and (vi)
    OrbitClaim("orbit.case-b-scale", "case B scaling to families (v)/(vi)", _Witnesses(
        "a, b scale out to 1 or 0 in case B at d=0",
        (("scale", _HALF, 1), ("case_B", 4, 0, 7, 0), ("case_B", 1, 0, Fraction(7, 4), 0)),
        (("scale", _HALF, _THIRD), ("case_B", 4, 9, 7, 0),
         ("case_B", 1, 1, Fraction(7, 36), 0)))),
    # flip maps case_B(a,b,c,d) to case_B(b,a,c,-d)
    OrbitClaim("orbit.case-b-flip", "case B flip swaps a and b", _Witnesses(
        "flip then scale reduces (0,4,7,0) to the (v) family",
        (("flip",), ("case_B", 0, 4, 7, 0), ("case_B", 4, 0, 7, 0)),
        (("scale", _HALF, 1), ("case_B", 4, 0, 7, 0), ("case_B", 1, 0, Fraction(7, 4), 0)))),
    OrbitClaim("orbit.cybe-preserved", "equivalence preserves CYBE status", _claim_cybe_preserved),
]


def verify_orbit_claims():
    """Run every orbit claim; returns (claim_id, anchor, ok, detail) rows."""
    results = []
    for claim in ORBIT_CLAIMS:
        try:
            ok, detail = claim.run()
        except Exception as exc:  # a failed witness is a report, not a crash
            ok, detail = False, f"error: {exc}"
        results.append((claim.claim_id, claim.anchor, ok, detail))
    return results
