"""Automorphism groups of the two superalgebras and orbit verification.

Automorphisms are grade-preserving matrices over a scalar ring; structure
preservation is checked, never assumed.  Transforms transport r-matrices
with phi (x) phi and cobrackets with phi^-1 on the lower index, so that
coboundary construction commutes with transforms.

The published equivalences come without witnesses; the concrete matrices
realizing each claim were solved for once and are frozen here as named
constants with regression checks (`verify_orbit_claims`).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Ring
from .algebra import builtin, bracket
from .tensors import GradedTensor, RMatrix, wedge
from .bialgebra import (Cobracket, case_a, case_b, cybe_status,
                        osp_r_a, osp_r_b, osp_r1, osp_r2, osp_r3)


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
        self.matrix = [[self.ring.coerce(matrix[i][j]) for j in range(n)]
                       for i in range(n)]
        self.inverse = [[self.ring.coerce(inverse[i][j]) for j in range(n)]
                        for i in range(n)]
        for i in range(n):
            for j in range(n):
                if (algebra.grades[i] != algebra.grades[j]
                        and not self.matrix[i][j].is_zero()):
                    raise ValueError("automorphism mixes the grading blocks")
                acc = self.ring.zero()
                for k in range(n):
                    acc = acc + self.matrix[i][k] * self.inverse[k][j]
                if not (acc == self.ring.one() if i == j else acc.is_zero()):
                    raise ValueError("inverse matrix does not invert the map")

    def apply_index(self, i):
        """phi(g_i) as a rank-1 tensor."""
        coeffs = {}
        for j, v in enumerate(self.matrix[i]):
            if not v.is_zero():
                coeffs[(j,)] = v
        return GradedTensor(self.algebra, 1, coeffs, self.ring)

    def is_structure_preserving(self):
        """[phi(g_i), phi(g_j)] == phi([g_i, g_j]) for all pairs."""
        return not self.structure_residuals()

    def structure_residuals(self):
        algebra = self.algebra
        n = algebra.dim
        bad = []
        for i in range(n):
            for j in range(n):
                lhs = bracket(algebra, self.apply_index(i), self.apply_index(j))
                rhs = GradedTensor.zero(algebra, 1, self.ring)
                for k, cval in algebra.bracket_indices(i, j):
                    rhs = rhs + cval.convert(self.ring) * self.apply_index(k)
                diff = lhs - rhs
                for (k,), v in diff.coeffs.items():
                    bad.append((algebra.basis[i], algebra.basis[j],
                                algebra.basis[k], v))
        return bad

    def compose(self, other):
        """phi o psi: apply `other` first, then this map."""
        if other.algebra is not self.algebra or other.ring != self.ring:
            raise ValueError("incompatible automorphisms")
        n = self.algebra.dim
        matrix = [[sum((other.matrix[i][k] * self.matrix[k][j]
                        for k in range(n)), self.ring.zero())
                   for j in range(n)] for i in range(n)]
        inverse = [[sum((self.inverse[i][k] * other.inverse[k][j]
                         for k in range(n)), self.ring.zero())
                    for j in range(n)] for i in range(n)]
        return Automorphism(self.algebra, matrix, inverse, self.ring,
                            name=f"{self.name}*{other.name}")

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
    """
    algebra = builtin("super_e2")
    if ring is None:
        ring = algebra.ring
    one = ring.one()
    zero = ring.zero()

    def diagonal():
        return [[one if i == j else zero for j in range(5)] for i in range(5)]

    if gen == "shift":
        alpha = ring.coerce(alpha if alpha is not None else 0)
        beta = ring.coerce(beta if beta is not None else 0)
        m = diagonal()
        m[0][1] = alpha
        m[0][2] = beta
        inv = diagonal()
        inv[0][1] = -alpha
        inv[0][2] = -beta
        return Automorphism(algebra, m, inv, ring, name=f"shift({alpha},{beta})")
    if gen == "flip":
        m = [[zero] * 5 for _ in range(5)]
        m[0][0] = -one
        m[1][2] = one
        m[2][1] = one
        m[3][4] = one
        m[4][3] = one
        return Automorphism(algebra, m, m, ring, name="flip")
    if gen == "scale":
        alpha = ring.coerce(alpha if alpha is not None else 1)
        beta = ring.coerce(beta if beta is not None else 1)
        if alpha.is_zero() or beta.is_zero():
            raise ValueError("scale parameters must be nonzero")
        try:
            ainv = alpha ** -1
            binv = beta ** -1
        except ValueError as exc:
            raise ValueError("scale parameters must be invertible") from exc
        m = diagonal()
        m[1][1] = alpha * alpha
        m[2][2] = beta * beta
        m[3][3] = alpha
        m[4][4] = beta
        inv = diagonal()
        inv[1][1] = ainv * ainv
        inv[2][2] = binv * binv
        inv[3][3] = ainv
        inv[4][4] = binv
        return Automorphism(algebra, m, inv, ring, name=f"scale({alpha},{beta})")
    raise KeyError(f"unknown generator {gen!r} (shift | flip | scale)")


def transform(phi, x):
    """Transport an RMatrix (phi (x) phi) or a Cobracket (phi^-1 on the
    lower index, phi (x) phi on the upper)."""
    algebra = phi.algebra
    ring = phi.ring
    n = algebra.dim
    if isinstance(x, Cobracket):
        src = x.convert(ring) if x.ring != ring else x
        table = [[[ring.zero()] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for p in range(n):
                if phi.inverse[i][p].is_zero():
                    continue
                for k in range(n):
                    for l in range(n):
                        v = src.f[p][k][l]
                        if v.is_zero():
                            continue
                        for kk in range(n):
                            mk = phi.matrix[k][kk]
                            if mk.is_zero():
                                continue
                            for ll in range(n):
                                ml = phi.matrix[l][ll]
                                if ml.is_zero():
                                    continue
                                table[i][kk][ll] = (table[i][kk][ll]
                                                    + phi.inverse[i][p] * v * mk * ml)
        return Cobracket(algebra, ring, table)
    if isinstance(x, GradedTensor) and x.rank == 2:
        src = x.convert(ring) if x.ring != ring else x
        out = {}
        for (k, l), v in src.coeffs.items():
            for kk in range(n):
                mk = phi.matrix[k][kk]
                if mk.is_zero():
                    continue
                for ll in range(n):
                    ml = phi.matrix[l][ll]
                    if ml.is_zero():
                        continue
                    key = (kk, ll)
                    acc = out.get(key, ring.zero()) + v * mk * ml
                    if acc.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = acc
        if isinstance(x, RMatrix):
            return RMatrix(algebra, out, ring)
        return GradedTensor(algebra, 2, out, ring)
    raise TypeError("transform expects an RMatrix or a Cobracket")


# -- orbit claims with frozen witnesses --------------------------------------

class OrbitClaim:
    def __init__(self, claim_id, anchor, run):
        self.claim_id = claim_id
        self.anchor = anchor
        self.run = run


def _sl2_ring():
    return Ring([(v, "commuting") for v in
                 ("a", "b", "c", "d", "x", "y", "z")],
                relations=[("a*d-b*c-1", "a*d")])


def _claim_congruence():
    """The r_a parameters transform like the symmetric form S = [[y,-x],[-x,z]]
    under congruence: S -> M^T S M for the map with fermion block
    M = [[a,b],[c,d]], symbolically under ad-bc=1.  (Transporting along the
    inverse map gives the same law with M replaced by M^-1; the content is
    the Sylvester orbit structure either way.)"""
    ring = _sl2_ring()
    a, b, c, d = (ring.var(v) for v in "abcd")
    x, y, z = (ring.var(v) for v in "xyz")
    phi = osp_automorphism(a, b, c, d, ring)
    if not phi.is_structure_preserving():
        return False, "osp automorphism fails structure preservation"
    moved = transform(phi, osp_r_a().convert(ring))
    y_t = a * a * y - 2 * a * c * x + c * c * z
    z_t = b * b * y - 2 * b * d * x + d * d * z
    x_t = -(a * b * y) + (a * d + b * c) * x - c * d * z
    expected = _r_a_at(ring, x_t, y_t, z_t)
    ok = moved == expected
    return ok, "parameters follow the symmetric-form congruence law (M^T S M)"


def _r_a_at(ring, x, y, z):
    algebra = builtin("osp12")
    total = GradedTensor.zero(algebra, 2, ring)
    for coeff, u, v in [
            (x, "X+", "X-"), (2 * x, "V+", "V-"),
            (y, "H", "X+"), (-y, "V+", "V+"),
            (z, "H", "X-"), (-z, "V-", "V-")]:
        total = total + wedge(algebra, u, v, ring, coeff)
    return GradedTensor(algebra, 2, total.coeffs, ring)


def _claim_ra_null_orbit():
    """x^2 - yz = 0 (nonzero): witness (a,b,c,d) = (1,1,0,1) carries
    r_a(1,1,1) onto r2; r_a(0,1,0) is r2 itself."""
    osp = builtin("osp12")
    if osp_r_a(0, 1, 0) != osp_r2():
        return False, "r_a(0,1,0) is not r2"
    phi = osp_automorphism(1, 1, 0, 1)
    moved = transform(phi, osp_r_a(1, 1, 1))
    ok = moved == osp_r2()
    return ok, "witness (1,1,0,1): r_a(1,1,1) -> r2"


def _claim_ra_generic_orbit():
    """x^2 - yz != 0: r_a(0,1,1) = r3(1); witness (1,0,1,1) carries
    r_a(1,2,1) -> r3(1); witness (1/2,-1/2,1,1) carries
    r_a(0,4,1) -> r3(2)."""
    if osp_r_a(0, 1, 1) != osp_r3(1):
        return False, "r_a(0,1,1) is not r3(1)"
    phi = osp_automorphism(1, 0, 1, 1)
    if transform(phi, osp_r_a(1, 2, 1)) != osp_r3(1):
        return False, "witness (1,0,1,1) fails on r_a(1,2,1)"
    half = Fraction(1, 2)
    psi = osp_automorphism(half, -half, 1, 1)
    if transform(psi, osp_r_a(0, 4, 1)) != osp_r3(2):
        return False, "witness (1/2,-1/2,1,1) fails on r_a(0,4,1)"
    return True, "witnesses (1,0,1,1) and (1/2,-1/2,1,1) realize r_a -> r3(t)"


def _claim_rb_orbit():
    """r_b is always equivalent to a multiple of r1: witness [[1,1],[0,1]]
    for r_b(1,1), witness [[2,3],[1,2]] for r_b(2,3)."""
    phi = osp_automorphism(1, 1, 0, 1)
    if transform(phi, osp_r_b(1, 1)) != osp_r1():
        return False, "witness (1,1,0,1) fails on r_b(1,1)"
    psi = osp_automorphism(2, 3, 1, 2)
    if transform(psi, osp_r_b(2, 3)) != osp_r1():
        return False, "witness (2,3,1,2) fails on r_b(2,3)"
    return True, "witnesses (1,1,0,1) and (2,3,1,2) realize r_b -> r1"


def _claim_e2_generators():
    """The three super-e(2) generators preserve the bracket (shift and scale
    symbolically)."""
    ring = Ring([("al", "commuting"), ("be", "commuting")])
    shift = e2_automorphism("shift", ring.var("al"), ring.var("be"), ring=ring)
    if not shift.is_structure_preserving():
        return False, "shift fails"
    if not e2_automorphism("flip").is_structure_preserving():
        return False, "flip fails"
    scale = e2_automorphism("scale", Fraction(3), Fraction(-2))
    if not scale.is_structure_preserving():
        return False, "scale fails"
    return True, "shift (symbolic), flip, scale all preserve the bracket"


def _claim_det_condition():
    """ad - bc != 1 is rejected: the boson block is no automorphism."""
    try:
        osp_automorphism(1, 0, 0, 2)
    except ValueError as exc:
        return True, f"rejected: {exc}"
    return False, "determinant 2 was accepted"


def _claim_case_a_scale():
    """scale(1/2, 1/3) carries case_A(4,9,5) onto case_A(1,1,5/36) (family
    (iii) normal form); scale(1/2, 1) carries case_A(4,0,5) to (ii) form."""
    phi = e2_automorphism("scale", Fraction(1, 2), Fraction(1, 3))
    moved = transform(phi, case_a(4, 9, 5))
    if moved != case_a(1, 1, Fraction(5, 36)):
        return False, "scale(1/2,1/3) fails on case_A(4,9,5)"
    psi = e2_automorphism("scale", Fraction(1, 2), 1)
    if transform(psi, case_a(4, 0, 5)) != case_a(1, 0, Fraction(5, 4)):
        return False, "scale(1/2,1) fails on case_A(4,0,5)"
    return True, "a, b scale to 1 or 0 at square parameter points"


def _claim_case_a_flip():
    """flip swaps the case-A parameters (a,b,c,m) -> (b,a,c,m):
    case_A(0,9,5) -> case_A(9,0,5), then scale(1/3,1) -> case_A(1,0,5/9)."""
    flip = e2_automorphism("flip")
    moved = transform(flip, case_a(0, 9, 5))
    if moved != case_a(9, 0, 5):
        return False, "flip fails on case_A(0,9,5)"
    chain = transform(e2_automorphism("scale", Fraction(1, 3), 1), moved)
    ok = chain == case_a(1, 0, Fraction(5, 9))
    return ok, "flip then scale reduces (0,9,5) to the (ii) family"


def _claim_case_a_branch():
    """scale(1, -1) maps the + branch of case A to the - branch (the two
    sign branches are automorphism-equivalent)."""
    phi = e2_automorphism("scale", 1, -1)
    plus = case_a(4, 9, 5, branch=1)
    minus = case_a(4, 9, 5, branch=-1)
    if transform(phi, plus) != minus:
        return False, "scale(1,-1) does not flip the branch at (4,9,5)"
    # symbolic check over Q[a,b,c,m]/(m^2 - ab)
    sym_plus = case_a()
    ring = sym_plus.ring
    phi_sym = e2_automorphism("scale", 1, -1, ring=ring)
    sym_minus = case_a(branch=-1)
    ok = transform(phi_sym, sym_plus) == sym_minus
    return ok, "witness scale(1,-1), symbolically in (a,b,c,m)"


def _claim_case_b_shift():
    """d != 0: shift(a/2d, b/2d) kills a, b, c; frozen point (2,3,0,1) with
    shift(1, 3/2) -> case_B(0,0,0,1) (family (iv) normal form)."""
    phi = e2_automorphism("shift", 1, Fraction(3, 2))
    moved = transform(phi, case_b(2, 3, 0, 1))
    ok = moved == case_b(0, 0, 0, 1)
    return ok, "witness shift(1,3/2): case_B(2,3,0,1) -> case_B(0,0,0,1)"


def _claim_case_b_scale():
    """d = 0 reductions to families (v) and (vi): scale(1/2,1) carries
    case_B(4,0,7,0) -> case_B(1,0,7/4,0); scale(1/2,1/3) carries
    case_B(4,9,7,0) -> case_B(1,1,7/36,0)."""
    if transform(e2_automorphism("scale", Fraction(1, 2), 1),
                 case_b(4, 0, 7, 0)) != case_b(1, 0, Fraction(7, 4), 0):
        return False, "scale(1/2,1) fails on case_B(4,0,7,0)"
    if transform(e2_automorphism("scale", Fraction(1, 2), Fraction(1, 3)),
                 case_b(4, 9, 7, 0)) != case_b(1, 1, Fraction(7, 36), 0):
        return False, "scale(1/2,1/3) fails on case_B(4,9,7,0)"
    return True, "a, b scale out to 1 or 0 in case B at d=0"


def _claim_case_b_flip():
    """flip maps case_B(a,b,c,d) to case_B(b,a,c,-d); with scale it carries
    case_B(0,4,7,0) into the family (v) normal form."""
    flip = e2_automorphism("flip")
    if transform(flip, case_b(0, 4, 7, 0)) != case_b(4, 0, 7, 0):
        return False, "flip fails on case_B(0,4,7,0)"
    chain = transform(e2_automorphism("scale", Fraction(1, 2), 1),
                      transform(flip, case_b(0, 4, 7, 0)))
    ok = chain == case_b(1, 0, Fraction(7, 4), 0)
    return ok, "flip then scale reduces (0,4,7,0) to the (v) family"


def _claim_cybe_preserved():
    """Equivalence preserves the CYBE/mCYBE classification on the frozen
    witnesses."""
    osp = builtin("osp12")
    pairs = [
        (osp_r_a(1, 1, 1), transform(osp_automorphism(1, 0, 1, 1), osp_r_a(1, 1, 1))),
        (osp_r_a(1, 2, 1), transform(osp_automorphism(0, -1, 1, 1), osp_r_a(1, 2, 1))),
        (osp_r_b(2, 3), transform(osp_automorphism(2, 3, 1, 2), osp_r_b(2, 3))),
    ]
    for before, after in pairs:
        if cybe_status(osp, before) != cybe_status(osp, after):
            return False, "classification changed under a witness"
    return True, "CYBE status invariant on all frozen witnesses"


ORBIT_CLAIMS = [
    OrbitClaim("orbit.congruence", "r_a parameter congruence law", _claim_congruence),
    OrbitClaim("orbit.ra-to-r2", "degenerate r_a orbit lands on r2", _claim_ra_null_orbit),
    OrbitClaim("orbit.ra-to-r3", "nondegenerate r_a orbit lands on r3(t)", _claim_ra_generic_orbit),
    OrbitClaim("orbit.rb-to-r1", "r_b orbit lands on r1", _claim_rb_orbit),
    OrbitClaim("orbit.e2-generators", "the three super-e(2) generators", _claim_e2_generators),
    OrbitClaim("orbit.det-condition", "ad-bc=1 is necessary", _claim_det_condition),
    OrbitClaim("orbit.case-a-scale", "case A scaling to families (ii)/(iii)", _claim_case_a_scale),
    OrbitClaim("orbit.case-a-flip", "case A flip swaps a and b", _claim_case_a_flip),
    OrbitClaim("orbit.case-a-branch", "case A sign branches are equivalent", _claim_case_a_branch),
    OrbitClaim("orbit.case-b-shift", "case B shift to family (iv)", _claim_case_b_shift),
    OrbitClaim("orbit.case-b-scale", "case B scaling to families (v)/(vi)", _claim_case_b_scale),
    OrbitClaim("orbit.case-b-flip", "case B flip swaps a and b", _claim_case_b_flip),
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
