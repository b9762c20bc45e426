"""Cobrackets and Lie super-bialgebra axioms.

A cobracket delta(g_i) = f_i^{kl} g_k (x) g_l is stored as sparse rows: one
rank-2 tensor delta(g_i) per basis element, holding only the nonzero f_i^{kl}.
The four axioms checked here are grading, graded antisymmetry, co-Jacobi, and
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
from .algebra import SuperLieAlgebra, builtin
from . import tensors
from .tensors import GradedTensor, RMatrix, ad_action, wedge

CYBE = "CYBE"
MCYBE = "mCYBE"
NEITHER = "neither"


class Cobracket:
    """delta(g_i) = f_i^{kl} g_k (x) g_l over a scalar ring, stored as sparse
    rows: `rows[i]` is delta(g_i), a rank-2 GradedTensor."""

    def __init__(self, algebra, ring=None, rows=None):
        self.algebra = algebra
        self.ring = ring if ring is not None else algebra.ring
        if rows is None:
            rows = [GradedTensor.zero(algebra, 2, self.ring)] * algebra.dim
        self.rows = list(rows)

    @property
    def f(self):
        """The dense table f[i][k][l], built from the rows on each access."""
        n = self.algebra.dim
        zero = self.ring.zero()
        table = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(self.rows):
            for (k, l), v in row.coeffs.items():
                table[i][k][l] = v
        return table

    @classmethod
    def from_rows(cls, algebra, rows, ring=None):
        """Build from {generator name: rank-2 GradedTensor} rows."""
        d = cls(algebra, ring)
        for name, tensor in rows.items():
            i = algebra.index[name]
            d.rows[i] = d.rows[i] + tensor
        return d

    @classmethod
    def from_entries(cls, algebra, ring, entries):
        """Build from ((i, k, l), value) pairs: each value is added at
        f_i^{kl} and, for k != l, at f_i^{lk} with the graded sign -z(k,l)."""
        zero = ring.zero()
        coeffs = [{} for _ in range(algebra.dim)]
        for (i, k, l), value in entries:
            value = ring.coerce(value)
            row = coeffs[i]
            row[(k, l)] = row.get((k, l), zero) + value
            if k != l:
                row[(l, k)] = row.get((l, k), zero) - algebra.z(k, l) * value
        return cls(algebra, ring,
                   [GradedTensor(algebra, 2, c, ring) for c in coeffs])

    def delta(self, g):
        """delta(g_i) as a rank-2 tensor."""
        return self.rows[self.algebra.index[g] if isinstance(g, str) else g]

    def is_zero(self):
        return all(row.is_zero() for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Cobracket):
            return NotImplemented
        return (other.algebra is self.algebra and other.ring == self.ring
                and self.rows == other.rows)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def __sub__(self, other):
        return Cobracket(self.algebra, self.ring,
                         [a - b for a, b in zip(self.rows, other.rows)])

    def convert(self, ring):
        return Cobracket(self.algebra, ring,
                         [row.convert(ring) for row in self.rows])

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
    z(k,m) T(i,k,l,m) + z(l,k) T(i,l,m,k) + z(m,l) T(i,m,k,l), where
    T(i,k,l,m) = sum_j f_i^{kj} f_j^{lm}, with i, k, l, m in lexicographic
    order.  T runs over stored entries only; each of its entries enters the
    three cyclic positions of its last three indices with the same sign."""
    rows = [list(row.coeffs.items()) for row in d.rows]
    contraction = {}
    for i, row in enumerate(rows):
        for (k, j), left in row:
            for (l, m), right in rows[j]:
                key = (i, k, l, m)
                prod = left * right
                acc = contraction.get(key)
                contraction[key] = prod if acc is None else acc + prod
    residuals = {}
    for (i, k, l, m), value in contraction.items():
        if algebra.z(k, m) == -1:
            value = -value
        for key in ((i, k, l, m), (i, m, k, l), (i, l, m, k)):
            acc = residuals.get(key)
            residuals[key] = value if acc is None else acc + value
    for key in sorted(residuals):
        res = residuals[key]
        if not res.is_zero():
            yield (*key, res)


def check_cobracket(algebra, d):
    report = CobracketReport()
    grades = algebra.grades
    names = algebra.basis
    zero = d.ring.zero()
    for i, row in enumerate(d.rows):
        f = row.coeffs
        for (k, l), v in sorted(f.items()):
            if (grades[k] + grades[l]) % 2 != grades[i]:
                report.grading.append((names[i], names[k], names[l], v))
        for k, l in sorted({(min(kl), max(kl)) for kl in f}):
            res = f.get((k, l), zero) + algebra.z(k, l) * f.get((l, k), zero)
            if not res.is_zero():
                report.antisymmetry.append((names[i], names[k], names[l], res))
    for i, k, l, m, res in _cojacobi_residuals(algebra, d):
        report.cojacobi.append((names[i], names[k], names[l], names[m], res))
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            if i == j and not grades[i]:
                continue
            res = _cocycle_residual(algebra, d, i, j)
            for (l, m), v in sorted(res.coeffs.items()):
                report.cocycle.append((names[i], names[j], names[l], names[m], v))
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
    f = d.f
    dual.c = [[[f[i][k][l] for i in range(n)] for l in range(n)] for k in range(n)]
    return dual


# -- named families ----------------------------------------------------------

def _resolve_params(params, extra=(), relations=()):
    """The family ring and {name: scalar}: numeric parameters become ring
    scalars, the others (in order, then `extra`) commuting ring variables."""
    symbolic = [name for name, value in params.items() if value is None]
    symbolic += extra
    ring = Ring([(name, "commuting") for name in symbolic], relations)
    values = {name: ring.var(name) for name in symbolic}
    for name, value in params.items():
        if value is not None:
            values[name] = ring.scalar(value)
    return ring, values


def _resolve_with_root(params, branch):
    """`_resolve_params` plus m = branch * sqrt(ab): with a and b both
    numeric, m is their exact rational root (error if irrational); otherwise
    m is a ring variable constrained by m^2 = a*b."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    a, b = params["a"], params["b"]
    if a is None or b is None:
        a_text = "a" if a is None else str(Fraction(a))
        b_text = "b" if b is None else str(Fraction(b))
        ring, val = _resolve_params(
            params, ["m"], [(f"m^2-{a_text}*{b_text}", "m^2")])
        val["m"] = branch * val["m"]
        return ring, val
    root = rational_sqrt(Fraction(a) * Fraction(b))
    if root is None:
        raise ValueError("a*b must be a rational square for a numeric family")
    ring, val = _resolve_params(params)
    val["m"] = ring.scalar(branch * root)
    return ring, val


def case_a(a=None, b=None, c=None, branch=1):
    """Case-A cobracket family on super-e(2); m stands for sqrt(ab).

    With both a and b numeric, m is the exact rational square root of a*b
    (error if irrational); otherwise m stays a ring parameter constrained by
    m^2 = a*b.  `branch` (+1/-1) selects the sign of the m-terms.

    The delta(D-) row uses -1/2 (a P+ - b P-) ^ D-: the opposite sign fails
    the cocycle identity and disagrees with the coboundary of the case-A
    r-matrix family (see ERRATA.md).
    """
    ring, val = _resolve_with_root({"a": a, "b": b, "c": c}, branch)
    algebra = builtin("super_e2")
    w = lambda x, y, coeff: wedge(algebra, x, y, ring, coeff)
    half = Fraction(1, 2)
    rows = {
        "H": w("H", "P+", val["a"]) + w("H", "P-", val["b"])
             + w("P+", "P-", val["c"]),
        "P+": w("P+", "P-", val["b"]),
        "P-": w("P+", "P-", -val["a"]),
        "D+": w("P+", "D+", half * val["a"]) + w("P-", "D+", -half * val["b"])
              + w("P+", "D-", val["m"]),
        "D-": w("P+", "D-", -half * val["a"]) + w("P-", "D-", half * val["b"])
              + w("P-", "D+", val["m"]),
    }
    return Cobracket.from_rows(algebra, rows, ring)


def case_b(a=None, b=None, c=None, d=None):
    """Case-B cobracket family on super-e(2) (a bialgebra only when cd=0).

    The published delta(D-) row carries a doubled "+ +"; it is read as a
    single plus (see ERRATA.md).
    """
    ring, val = _resolve_params({"a": a, "b": b, "c": c, "d": d})
    algebra = builtin("super_e2")
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


def _r_a_wedges(x, y, z):
    """The wedge terms of r_a at scalars x, y, z of any one ring."""
    return [(x, "X+", "X-"), (2 * x, "V+", "V-"),
            (y, "H", "X+"), (-y, "V+", "V+"),
            (z, "H", "X-"), (-z, "V-", "V-")]


def osp_r_a(x=None, y=None, z=None):
    """r_a = x(X+^X- + 2 V+^V-) + y(H^X+ - V+^V+) + z(H^X- - V-^V-)."""
    ring, val = _resolve_params({"x": x, "y": y, "z": z})
    return RMatrix.from_wedges(
        builtin("osp12"), _r_a_wedges(val["x"], val["y"], val["z"]), ring)


def osp_r_b(p=None, q=None):
    """r_b = pq X+^X- + p^2 H^X+ + q^2 H^X-  (u=p^2, v=q^2, the sign branch
    of sqrt(uv) rides on the sign of q)."""
    ring, val = _resolve_params({"p": p, "q": q})
    return RMatrix.from_wedges(builtin("osp12"), [
        (val["p"] * val["q"], "X+", "X-"),
        (val["p"] ** 2, "H", "X+"),
        (val["q"] ** 2, "H", "X-"),
    ], ring)


def osp_r1():
    return RMatrix.from_wedges(builtin("osp12"), [(1, "H", "X+")])


def osp_r2():
    return RMatrix.from_wedges(
        builtin("osp12"), [(1, "H", "X+"), (-1, "V+", "V+")])


def osp_r3(t=None):
    ring, val = _resolve_params({"t": t})
    t = val["t"]
    return RMatrix.from_wedges(builtin("osp12"), [
        (t, "H", "X+"), (-t, "V+", "V+"),
        (t, "H", "X-"), (-t, "V-", "V-"),
    ], ring)


def e2_r_a(a=None, b=None, f=None, branch=1):
    """r_A = a H^P+ - b H^P- + m D+^D- + f P+^P-, with m^2 = ab."""
    ring, val = _resolve_with_root({"a": a, "b": b, "f": f}, branch)
    return RMatrix.from_wedges(builtin("super_e2"), [
        (val["a"], "H", "P+"), (-val["b"], "H", "P-"),
        (val["m"], "D+", "D-"), (val["f"], "P+", "P-"),
    ], ring)


def e2_r_b(a=None, b=None, f=None):
    """r_B = a(H^P+ - 1/2 D+^D+) - b(H^P- + 1/2 D-^D-) + f P+^P-."""
    ring, val = _resolve_params({"a": a, "b": b, "f": f})
    half = Fraction(1, 2)
    return RMatrix.from_wedges(builtin("super_e2"), [
        (val["a"], "H", "P+"), (-half * val["a"], "D+", "D+"),
        (-val["b"], "H", "P-"), (-half * val["b"], "D-", "D-"),
        (val["f"], "P+", "P-"),
    ], ring)


def e2_r_ii():
    return RMatrix.from_wedges(builtin("super_e2"), [(1, "H", "P+")])


def e2_r_iii():
    return RMatrix.from_wedges(
        builtin("super_e2"), [(1, "H", "P+"), (-1, "H", "P-"), (1, "D+", "D-")])


def e2_r_v():
    return RMatrix.from_wedges(
        builtin("super_e2"), [(1, "H", "P+"), (Fraction(-1, 2), "D+", "D+")])


def e2_r_vi():
    return RMatrix.from_wedges(builtin("super_e2"), [
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
        if rhs.strip() == "0":
            rows[parts[1]] = GradedTensor.zero(algebra, 2, ring)
            continue
        try:
            rows[parts[1]] = tensors.parse_wedge_sum(rhs, algebra, ring)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Cobracket.from_rows(algebra, rows, ring)
