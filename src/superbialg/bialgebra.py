"""Cobrackets and Lie super-bialgebra axioms.

A cobracket is the table f_i^{kl} of delta(g_i) = f_i^{kl} g_k (x) g_l.  The
four axioms checked here are grading, graded antisymmetry, co-Jacobi, and
the cocycle compatibility with the bracket,

    delta([g_i, g_j]) = ad_i delta(g_j) - z(i,j) ad_j delta(g_i),

all as exact scalar-zero tests (parameters stay symbolic; failures carry the
residual polynomial).

The coboundary construction fixes the overall sign so that
delta(g) = [g(x)1 + 1(x)g, r] = ad_g(r): this is the sign under which the
coboundary of H^P+ coincides with the case-A cobracket at (a,b,c) = (1,0,0)
and the Poisson module reproduces the published bracket tables.  The
opposite sign satisfies the linear axioms just as well, so the tables, not
the cocycle identity, are the effective witness.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EVEN, Ring, rational_sqrt
from .algebra import SuperLieAlgebra
from . import tensors
from .tensors import GradedTensor, RMatrix, ad_action, wedge

CYBE = "CYBE"
MCYBE = "mCYBE"
NEITHER = "neither"


class Cobracket:
    """Constants f_i^{kl} over a scalar ring, stored densely."""

    def __init__(self, algebra, ring=None, table=None):
        self.algebra = algebra
        self.ring = ring if ring is not None else algebra.ring
        n = algebra.dim
        zero = self.ring.zero()
        if table is None:
            table = [[[zero] * n for _ in range(n)] for _ in range(n)]
        self.f = table

    @classmethod
    def from_rows(cls, algebra, rows, ring=None):
        """Build from {generator name: rank-2 GradedTensor} rows."""
        ring = ring if ring is not None else algebra.ring
        d = cls(algebra, ring)
        n = algebra.dim
        table = [[[ring.zero()] * n for _ in range(n)] for _ in range(n)]
        for name, tensor in rows.items():
            i = algebra.index[name]
            for (k, l), v in tensor.coeffs.items():
                table[i][k][l] = table[i][k][l] + v
        d.f = table
        return d

    @classmethod
    def from_entries(cls, algebra, ring, entries):
        """Build from ((i, k, l), value) pairs: each value is added at
        f_i^{kl} and, for k != l, at f_i^{lk} with the graded sign -z(k,l)."""
        n = algebra.dim
        table = [[[ring.zero()] * n for _ in range(n)] for _ in range(n)]
        for (i, k, l), value in entries:
            value = ring.coerce(value)
            table[i][k][l] = table[i][k][l] + value
            if k != l:
                table[i][l][k] = table[i][l][k] - algebra.z(k, l) * value
        return cls(algebra, ring, table)

    def delta(self, g):
        """delta(g_i) as a rank-2 tensor."""
        i = self.algebra.index[g] if isinstance(g, str) else g
        coeffs = {}
        n = self.algebra.dim
        for k in range(n):
            for l in range(n):
                v = self.f[i][k][l]
                if not v.is_zero():
                    coeffs[(k, l)] = v
        return GradedTensor(self.algebra, 2, coeffs, self.ring)

    def is_zero(self):
        return all(v.is_zero() for plane in self.f for row in plane for v in row)

    def __eq__(self, other):
        if not isinstance(other, Cobracket):
            return NotImplemented
        if other.algebra is not self.algebra or other.ring != self.ring:
            return False
        n = self.algebra.dim
        return all(self.f[i][k][l] == other.f[i][k][l]
                   for i in range(n) for k in range(n) for l in range(n))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def __sub__(self, other):
        n = self.algebra.dim
        table = [[[self.f[i][k][l] - other.f[i][k][l] for l in range(n)]
                  for k in range(n)] for i in range(n)]
        return Cobracket(self.algebra, self.ring, table)

    def convert(self, ring):
        n = self.algebra.dim
        table = [[[self.f[i][k][l].convert(ring) for l in range(n)]
                  for k in range(n)] for i in range(n)]
        return Cobracket(self.algebra, ring, table)

    def render(self):
        lines = []
        for i, name in enumerate(self.algebra.basis):
            row = tensors.render_wedge_form(self.delta(i))
            if row != "0":
                lines.append(f"delta {name} = {row}")
        return "\n".join(lines) if lines else "delta = 0"

    def __repr__(self):
        return f"<Cobracket on {self.algebra.name}: {self.render()!r}>"


class CobracketReport:
    """Per-axiom residuals of the four bialgebra conditions."""

    AXIOMS = ("grading", "antisymmetry", "cojacobi", "cocycle")

    def __init__(self):
        self.grading = []       # (i, k, l, residual)
        self.antisymmetry = []  # (i, k, l, residual)
        self.cojacobi = []      # (i, k, l, m, residual)
        self.cocycle = []       # (i, j, l, m, residual)

    @property
    def passed(self):
        return not (self.grading or self.antisymmetry
                    or self.cojacobi or self.cocycle)

    def failing_axioms(self):
        return [name for name in self.AXIOMS if getattr(self, name)]

    def residuals(self, axiom):
        return [entry[-1] for entry in getattr(self, axiom)]

    def render(self):
        if self.passed:
            return "all cobracket axioms hold"
        lines = []
        for axiom in self.AXIOMS:
            for entry in getattr(self, axiom):
                where = ",".join(str(x) for x in entry[:-1])
                lines.append(f"{axiom} violated at ({where}): {entry[-1].render()}")
        return "\n".join(lines)


def coboundary_delta(algebra, r):
    """delta(g) = [g(x)1 + 1(x)g, r] = ad_g(r), as a Cobracket."""
    if r.parity() != EVEN:
        raise ValueError("coboundary needs an even r")
    rows = {}
    for g, name in enumerate(algebra.basis):
        rows[name] = ad_action(algebra, g, r)
    return Cobracket.from_rows(algebra, rows, r.ring)


def _cocycle_residual(algebra, d, i, j):
    """delta([g_i,g_j]) - ad_i delta(g_j) + z(i,j) ad_j delta(g_i)."""
    ring = d.ring
    res = GradedTensor.zero(algebra, 2, ring)
    for k, cval in algebra.bracket_indices(i, j):
        res = res + cval.convert(ring) * d.delta(k)
    res = res - ad_action(algebra, i, d.delta(j))
    adj = ad_action(algebra, j, d.delta(i))
    if algebra.z(i, j) == -1:
        res = res - adj
    else:
        res = res + adj
    return res


def _cojacobi_residuals(algebra, d):
    """Yield (i, k, l, m, residual) for every nonzero co-Jacobi sum
    sum_j f_i^{kj} f_j^{lm} z(k,m) + f_i^{lj} f_j^{mk} z(l,k)
          + f_i^{mj} f_j^{kl} z(m,l),
    with i, k, l, m in lexicographic order."""
    f = d.f
    n = algebra.dim
    for i in range(n):
        for k in range(n):
            for l in range(n):
                for m in range(n):
                    res = d.ring.zero()
                    for j in range(n):
                        res = res + f[i][k][j] * f[j][l][m] * algebra.z(k, m)
                        res = res + f[i][l][j] * f[j][m][k] * algebra.z(l, k)
                        res = res + f[i][m][j] * f[j][k][l] * algebra.z(m, l)
                    if not res.is_zero():
                        yield i, k, l, m, res


def check_cobracket(algebra, d):
    report = CobracketReport()
    n = algebra.dim
    grades = algebra.grades
    for i in range(n):
        for k in range(n):
            for l in range(n):
                v = d.f[i][k][l]
                if v.is_zero():
                    continue
                if (grades[k] + grades[l]) % 2 != grades[i]:
                    report.grading.append(
                        (algebra.basis[i], algebra.basis[k], algebra.basis[l], v))
    for i in range(n):
        for k in range(n):
            for l in range(k, n):
                res = d.f[i][k][l] + algebra.z(k, l) * d.f[i][l][k]
                if not res.is_zero():
                    report.antisymmetry.append(
                        (algebra.basis[i], algebra.basis[k], algebra.basis[l], res))
    for i, k, l, m, res in _cojacobi_residuals(algebra, d):
        report.cojacobi.append((algebra.basis[i], algebra.basis[k],
                                algebra.basis[l], algebra.basis[m], res))
    for i in range(n):
        for j in range(i, n):
            if i == j and not grades[i]:
                continue
            res = _cocycle_residual(algebra, d, i, j)
            for (l, m), v in sorted(res.coeffs.items()):
                report.cocycle.append(
                    (algebra.basis[i], algebra.basis[j],
                     algebra.basis[l], algebra.basis[m], v))
    return report


def cybe_status(algebra, r):
    """CYBE when [[r,r]] = 0; mCYBE when it is merely ad-invariant."""
    s = tensors.schouten(algebra, r)
    if s.is_zero():
        return CYBE
    if tensors.is_ad_invariant(algebra, s):
        return MCYBE
    return NEITHER


def dual_algebra(algebra, d, name=None):
    """The algebra on the dual space with structure constants c~_{kl}^i = f_i^{kl}.

    Feeding a cobracket through the ordinary superalgebra validator is the
    duality cross-check: its Jacobi test must agree with co-Jacobi.
    """
    dual = SuperLieAlgebra(
        name or f"{algebra.name}*",
        [(f"{n}*", g) for n, g in zip(algebra.basis, algebra.grades)],
        {},
        ring=d.ring,
    )
    n = algebra.dim
    dual.c = [[[d.f[i][k][l] for i in range(n)] for l in range(n)] for k in range(n)]
    return dual


# -- named families ----------------------------------------------------------

def _family_ring(symbolic, relations=()):
    return Ring([(name, "commuting") for name in symbolic], relations)


def _resolve_params(defaults, given):
    """Split family parameters into numeric values and symbolic leftovers."""
    numeric = {}
    symbolic = []
    for name in defaults:
        value = given.get(name)
        if value is None:
            symbolic.append(name)
        else:
            numeric[name] = Fraction(value)
    return numeric, symbolic


def case_a(a=None, b=None, c=None, branch=1):
    """Case-A cobracket family on super-e(2); m stands for sqrt(ab).

    With both a and b numeric, m is the exact rational square root of a*b
    (error if irrational); otherwise m stays a ring parameter constrained by
    m^2 = a*b.  `branch` (+1/-1) selects the sign of the m-terms.

    The delta(D-) row uses -1/2 (a P+ - b P-) ^ D-: the opposite sign fails
    the cocycle identity and disagrees with the coboundary of the case-A
    r-matrix family (see ERRATA.md).
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    numeric, symbolic = _resolve_params(("a", "b", "c"), {"a": a, "b": b, "c": c})
    m_numeric = None
    if "a" in numeric and "b" in numeric:
        m_numeric = rational_sqrt(numeric["a"] * numeric["b"])
        if m_numeric is None:
            raise ValueError("a*b must be a rational square for a numeric family")
        m_numeric *= branch
        ring = _family_ring(symbolic)
    else:
        names = symbolic + ["m"]
        a_text = str(numeric["a"]) if "a" in numeric else "a"
        b_text = str(numeric["b"]) if "b" in numeric else "b"
        ring = _family_ring(names, [(f"m^2-{a_text}*{b_text}", "m^2")])
    algebra = _FAMILY_E2()
    va = ring.scalar(numeric["a"]) if "a" in numeric else ring.var("a")
    vb = ring.scalar(numeric["b"]) if "b" in numeric else ring.var("b")
    vc = ring.scalar(numeric["c"]) if "c" in numeric else ring.var("c")
    if m_numeric is not None:
        vm = ring.scalar(m_numeric)
    else:
        vm = branch * ring.var("m")
    w = lambda x, y, coeff: wedge(algebra, x, y, ring, coeff)
    half = Fraction(1, 2)
    rows = {
        "H": w("H", "P+", va) + w("H", "P-", vb) + w("P+", "P-", vc),
        "P+": w("P+", "P-", vb),
        "P-": w("P+", "P-", -va),
        "D+": w("P+", "D+", half * va) + w("P-", "D+", -half * vb)
              + w("P+", "D-", vm),
        "D-": w("P+", "D-", -half * va) + w("P-", "D-", half * vb)
              + w("P-", "D+", vm),
    }
    return Cobracket.from_rows(algebra, rows, ring)


def case_b(a=None, b=None, c=None, d=None):
    """Case-B cobracket family on super-e(2) (a bialgebra only when cd=0).

    The published delta(D-) row carries a doubled "+ +"; it is read as a
    single plus (see ERRATA.md).
    """
    numeric, symbolic = _resolve_params(
        ("a", "b", "c", "d"), {"a": a, "b": b, "c": c, "d": d})
    ring = _family_ring(symbolic)
    algebra = _FAMILY_E2()
    val = {name: (ring.scalar(numeric[name]) if name in numeric else ring.var(name))
           for name in ("a", "b", "c", "d")}
    w = lambda x, y, coeff: wedge(algebra, x, y, ring, coeff)
    half = Fraction(1, 2)
    rows = {
        "H": w("H", "P+", val["a"]) + w("D+", "D+", -half * val["a"])
             + w("H", "P-", val["b"]) + w("D-", "D-", half * val["b"])
             + w("P+", "P-", val["c"]),
        "P+": w("P+", "P-", val["b"]) + w("H", "P+", 2 * val["d"])
              + w("D+", "D+", -val["d"]),
        "P-": w("P+", "P-", -val["a"]) + w("H", "P-", 2 * val["d"])
              + w("D-", "D-", val["d"]),
        "D+": w("P+", "D+", -half * val["a"]) + w("P-", "D+", -half * val["b"])
              + w("H", "D+", val["d"]),
        "D-": w("P+", "D-", -half * val["a"]) + w("P-", "D-", -half * val["b"])
              + w("H", "D-", val["d"]),
    }
    return Cobracket.from_rows(algebra, rows, ring)


def _FAMILY_E2():
    from .algebra import builtin
    return builtin("super_e2")


def _FAMILY_OSP():
    from .algebra import builtin
    return builtin("osp12")


def osp_r_a(x=None, y=None, z=None):
    """r_a = x(X+^X- + 2 V+^V-) + y(H^X+ - V+^V+) + z(H^X- - V-^V-)."""
    numeric, symbolic = _resolve_params(("x", "y", "z"), {"x": x, "y": y, "z": z})
    ring = _family_ring(symbolic)
    val = {n: (ring.scalar(numeric[n]) if n in numeric else ring.var(n))
           for n in ("x", "y", "z")}
    algebra = _FAMILY_OSP()
    return RMatrix.from_wedges(algebra, [
        (val["x"], "X+", "X-"), (2 * val["x"], "V+", "V-"),
        (val["y"], "H", "X+"), (-val["y"], "V+", "V+"),
        (val["z"], "H", "X-"), (-val["z"], "V-", "V-"),
    ], ring)


def osp_r_b(p=None, q=None):
    """r_b = pq X+^X- + p^2 H^X+ + q^2 H^X-  (u=p^2, v=q^2, the sign branch
    of sqrt(uv) rides on the sign of q)."""
    numeric, symbolic = _resolve_params(("p", "q"), {"p": p, "q": q})
    ring = _family_ring(symbolic)
    val = {n: (ring.scalar(numeric[n]) if n in numeric else ring.var(n))
           for n in ("p", "q")}
    algebra = _FAMILY_OSP()
    return RMatrix.from_wedges(algebra, [
        (val["p"] * val["q"], "X+", "X-"),
        (val["p"] ** 2, "H", "X+"),
        (val["q"] ** 2, "H", "X-"),
    ], ring)


def osp_r1():
    return RMatrix.from_wedges(_FAMILY_OSP(), [(1, "H", "X+")])


def osp_r2():
    return RMatrix.from_wedges(
        _FAMILY_OSP(), [(1, "H", "X+"), (-1, "V+", "V+")])


def osp_r3(t=None):
    numeric, symbolic = _resolve_params(("t",), {"t": t})
    ring = _family_ring(symbolic)
    vt = ring.scalar(numeric["t"]) if "t" in numeric else ring.var("t")
    return RMatrix.from_wedges(_FAMILY_OSP(), [
        (vt, "H", "X+"), (-vt, "V+", "V+"),
        (vt, "H", "X-"), (-vt, "V-", "V-"),
    ], ring)


def e2_r_a(a=None, b=None, f=None, branch=1):
    """r_A = a H^P+ - b H^P- + m D+^D- + f P+^P-, with m^2 = ab."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    numeric, symbolic = _resolve_params(("a", "b", "f"), {"a": a, "b": b, "f": f})
    m_numeric = None
    if "a" in numeric and "b" in numeric:
        m_numeric = rational_sqrt(numeric["a"] * numeric["b"])
        if m_numeric is None:
            raise ValueError("a*b must be a rational square for a numeric family")
        m_numeric *= branch
        ring = _family_ring(symbolic)
    else:
        a_text = str(numeric["a"]) if "a" in numeric else "a"
        b_text = str(numeric["b"]) if "b" in numeric else "b"
        ring = _family_ring(symbolic + ["m"], [(f"m^2-{a_text}*{b_text}", "m^2")])
    val = {n: (ring.scalar(numeric[n]) if n in numeric else ring.var(n))
           for n in ("a", "b", "f")}
    vm = ring.scalar(m_numeric) if m_numeric is not None else branch * ring.var("m")
    return RMatrix.from_wedges(_FAMILY_E2(), [
        (val["a"], "H", "P+"), (-val["b"], "H", "P-"),
        (vm, "D+", "D-"), (val["f"], "P+", "P-"),
    ], ring)


def e2_r_b(a=None, b=None, f=None):
    """r_B = a(H^P+ - 1/2 D+^D+) - b(H^P- + 1/2 D-^D-) + f P+^P-."""
    numeric, symbolic = _resolve_params(("a", "b", "f"), {"a": a, "b": b, "f": f})
    ring = _family_ring(symbolic)
    val = {n: (ring.scalar(numeric[n]) if n in numeric else ring.var(n))
           for n in ("a", "b", "f")}
    half = Fraction(1, 2)
    return RMatrix.from_wedges(_FAMILY_E2(), [
        (val["a"], "H", "P+"), (-half * val["a"], "D+", "D+"),
        (-val["b"], "H", "P-"), (-half * val["b"], "D-", "D-"),
        (val["f"], "P+", "P-"),
    ], ring)


def e2_r_ii():
    return RMatrix.from_wedges(_FAMILY_E2(), [(1, "H", "P+")])


def e2_r_iii():
    return RMatrix.from_wedges(
        _FAMILY_E2(), [(1, "H", "P+"), (-1, "H", "P-"), (1, "D+", "D-")])


def e2_r_v():
    return RMatrix.from_wedges(
        _FAMILY_E2(), [(1, "H", "P+"), (Fraction(-1, 2), "D+", "D+")])


def e2_r_vi():
    return RMatrix.from_wedges(_FAMILY_E2(), [
        (1, "H", "P+"), (Fraction(-1, 2), "D+", "D+"),
        (-1, "H", "P-"), (Fraction(-1, 2), "D-", "D-")])


_FAMILY_BUILDERS = {
    "osp-r-a": osp_r_a,
    "osp-r-b": osp_r_b,
    "osp-r1": osp_r1,
    "osp-r2": osp_r2,
    "osp-r3": osp_r3,
    "e2-case-a": case_a,
    "e2-case-b": case_b,
    "e2-case-i": lambda c=None: case_a(0, 0, c),
    "e2-case-ii": lambda c=None: case_a(1, 0, c),
    "e2-case-iii": lambda c=None, branch=1: case_a(1, 1, c, branch=branch),
    "e2-case-iv": lambda d=None: case_b(0, 0, 0, d),
    "e2-case-v": lambda c=None: case_b(1, 0, c, 0),
    "e2-case-vi": lambda c=None: case_b(1, 1, c, 0),
    "e2-r-a": e2_r_a,
    "e2-r-b": e2_r_b,
    "e2-r-ii": e2_r_ii,
    "e2-r-iii": e2_r_iii,
    "e2-r-v": e2_r_v,
    "e2-r-vi": e2_r_vi,
}


def family_ids():
    return sorted(_FAMILY_BUILDERS)


def family(family_id, **params):
    """Named cobracket or r-matrix families (ids via family_ids())."""
    key = family_id.lower().replace("_", "-")
    builder = _FAMILY_BUILDERS.get(key)
    if builder is None:
        raise KeyError(f"unknown family {family_id!r}")
    import inspect
    accepted = inspect.signature(builder).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"family {family_id!r} has no parameter {', '.join(unknown)};"
            f" it accepts: {', '.join(accepted) or 'none'}")
    return builder(**params)


# -- cobracket text format ----------------------------------------------------
#
# delta H = 1 P+^P-
# delta D+ = 1/2 P+^D+

def parse_cobracket_text(text, algebra, ring=None):
    ring = ring if ring is not None else algebra.ring
    rows = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("delta"):
            raise ValueError(f"line {lineno}: rows start with 'delta'")
        head, _, rhs = line.partition("=")
        parts = head.split()
        if len(parts) != 2 or parts[1] not in algebra.index:
            raise ValueError(f"line {lineno}: expected 'delta <generator> = ...'")
        gname = parts[1]
        total = GradedTensor.zero(algebra, 2, ring)
        rhs = rhs.strip()
        if rhs not in ("", "0"):
            for sign, term in tensors._split_wedge_terms(rhs):
                m = tensors._WEDGE_TERM.match(term)
                if not m:
                    raise ValueError(f"line {lineno}: bad wedge term {term!r}")
                x, y = m.group("x"), m.group("y")
                coeff_text = m.group("coeff")
                coeff = ring.parse(coeff_text) if coeff_text else ring.one()
                total = total + wedge(algebra, x, y, ring, sign * coeff)
        rows[gname] = total
    return Cobracket.from_rows(algebra, rows, ring)
