"""Cobrackets and Lie super-bialgebra axioms.

A cobracket delta(g_i) = f_i^{kl} g_k (x) g_l is stored as sparse rows: one
rank-2 tensor delta(g_i) per basis element, holding only the nonzero f_i^{kl}.
The four axioms checked here are grading, graded antisymmetry, co-Jacobi, and
the cocycle compatibility with the bracket,

    delta([g_i, g_j]) = ad_i delta(g_j) - z(i,j) ad_j delta(g_i),

all as exact scalar-zero tests (parameters stay symbolic); `check_cobracket`
returns a `Report` holding each nonzero residual polynomial.

The coboundary construction fixes the overall sign so that
delta(g) = [g(x)1 + 1(x)g, r] = ad_g(r): this is the sign under which the
coboundary of H^P+ coincides with the case-A cobracket at (a,b,c) = (1,0,0)
and the Poisson module reproduces the published bracket tables.  The
opposite sign satisfies the linear axioms just as well, so the tables, not
the cocycle identity, are the effective witness.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EVEN, Q, Ring, map_products, rational_sqrt
from .algebra import Report, builtin
from . import tensors
from .tensors import GradedTensor, RMatrix, ad_action

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
        products = []
        for (i, k, l), value in entries:
            value = (ring.coerce(value),)
            products.append(((i, k, l), 1, value))
            if k != l:
                products.append(((i, l, k), -algebra.z(k, l), value))
        coeffs = [{} for _ in range(algebra.dim)]
        for (i, k, l), value in ring.accumulate(products).items():
            coeffs[i][k, l] = value
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

    __hash__ = None

    def __sub__(self, other):
        return Cobracket(self.algebra, self.ring,
                         [a - b for a, b in zip(self.rows, other.rows)])

    def map(self, ring, images):
        """Every row through `GradedTensor.map`, the images checked once."""
        products = map_products(self.ring, ring, images)
        return Cobracket(self.algebra, ring,
                         [row._map(ring, products) for row in self.rows])

    def convert(self, ring):
        return self.map(ring, self.ring.namesakes(ring))

    def render(self):
        lines = []
        for i, name in enumerate(self.algebra.basis):
            row = tensors.render_wedge_form(self.delta(i))
            if row != "0":
                lines.append(f"delta {name} = {row}")
        return "\n".join(lines) if lines else "delta = 0"

    def __repr__(self):
        return f"<Cobracket on {self.algebra.name}: {self.render()!r}>"


_AXIOMS = {"grading": "grading violated at ({},{},{}): {}",
           "antisymmetry": "antisymmetry violated at ({},{},{}): {}",
           "cojacobi": "cojacobi violated at ({},{},{},{}): {}",
           "cocycle": "cocycle violated at ({},{},{},{}): {}"}


def coboundary_delta(algebra, r):
    """delta(g) = [g(x)1 + 1(x)g, r] = ad_g(r), as a Cobracket."""
    if r.parity() != EVEN:
        raise ValueError("coboundary needs an even r")
    return Cobracket(algebra, r.ring,
                     [ad_action(algebra, g, r) for g in range(algebra.dim)])


def _cocycle_residual(algebra, d, i, j):
    """delta([g_i,g_j]) - ad_i delta(g_j) + z(i,j) ad_j delta(g_i)."""
    ring = d.ring
    products = [(kl, 1, (cval, v))
                for k, cval in algebra.constants_in(ring).get((i, j), ())
                for kl, v in d.rows[k].coeffs.items()]
    products += [(key, -sign, factors) for key, sign, factors
                 in tensors._adjoint(algebra, i, d.rows[j])]
    products += [(key, algebra.z(i, j) * sign, factors) for key, sign, factors
                 in tensors._adjoint(algebra, j, d.rows[i])]
    return GradedTensor(algebra, 2, ring.accumulate(products), ring)


def _cojacobi_residuals(algebra, d):
    """Yield (i, k, l, m, residual) for every nonzero co-Jacobi sum
    z(k,m) T(i,k,l,m) + z(l,k) T(i,l,m,k) + z(m,l) T(i,m,k,l), where
    T(i,k,l,m) = sum_j f_i^{kj} f_j^{lm}, with i, k, l, m in lexicographic
    order.  T is `tensors.contract` of the rows; each of its entries enters
    the three cyclic positions of its last three indices with the same sign."""
    contracted = tensors.contract(d.ring, [row.coeffs for row in d.rows])
    residuals = d.ring.accumulate((
        (key, algebra.z(k, m), (value,))
        for (i, k, l, m), value in contracted.items()
        for key in ((i, k, l, m), (i, m, k, l), (i, l, m, k))))
    for key, res in sorted(residuals.items()):
        yield (*key, res)


def check_cobracket(algebra, d):
    report = Report(_AXIOMS)
    grades = algebra.grades
    names = algebra.basis
    zero = d.ring.zero()
    for i, row in enumerate(d.rows):
        f = row.coeffs
        for (k, l), v in sorted(f.items()):
            if (grades[k] + grades[l]) % 2 != grades[i]:
                report.add("grading", (names[i], names[k], names[l]), v)
        for k, l in sorted({(min(kl), max(kl)) for kl in f}):
            res = f.get((k, l), zero) + algebra.z(k, l) * f.get((l, k), zero)
            if not res.is_zero():
                report.add("antisymmetry", (names[i], names[k], names[l]), res)
    for i, k, l, m, res in _cojacobi_residuals(algebra, d):
        report.add("cojacobi", (names[i], names[k], names[l], names[m]), res)
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            if i == j and not grades[i]:
                continue
            res = _cocycle_residual(algebra, d, i, j)
            for (l, m), v in sorted(res.coeffs.items()):
                report.add("cocycle", (names[i], names[j], names[l], names[m]), v)
    return report


def cybe_status(algebra, r):
    """CYBE when [[r,r]] = 0; mCYBE when it is merely ad-invariant."""
    s = tensors.schouten(algebra, r)
    if s.is_zero():
        return CYBE
    if tensors.is_ad_invariant(algebra, s):
        return MCYBE
    return NEITHER


# -- named families ----------------------------------------------------------
#
# id -> (algebra, parameters, text): a wedge sum is an r-matrix, `delta <g> =`
# rows a cobracket.  With a `branch` the text may use m = branch*sqrt(ab).

_FAMILIES = {
    "osp-r-a": ("osp12", "x y z",
                "x X+^X- + 2*x V+^V- + y H^X+ - y V+^V+ + z H^X- - z V-^V-"),
    # u = p^2, v = q^2: the sign branch of sqrt(uv) rides on the sign of q
    "osp-r-b": ("osp12", "p q", "p*q X+^X- + p^2 H^X+ + q^2 H^X-"),
    "osp-r1": ("osp12", "", "H^X+"),
    "osp-r2": ("osp12", "", "H^X+ - V+^V+"),
    "osp-r3": ("osp12", "t", "t H^X+ - t V+^V+ + t H^X- - t V-^V-"),
    "e2-case-a": ("super_e2", "a b c branch", """
        delta H = a H^P+ + b H^P- + c P+^P-
        delta P+ = b P+^P-
        delta P- = -a P+^P-
        delta D+ = 1/2*a P+^D+ - 1/2*b P-^D+ + m P+^D-
        # printed +1/2 (a P+ - b P-)^D-: fails the cocycle identity (ERRATA)
        delta D- = -1/2*a P+^D- + 1/2*b P-^D- + m P-^D+"""),
    # a bialgebra only when cd = 0
    "e2-case-b": ("super_e2", "a b c d", """
        delta H = a H^P+ - 1/2*a D+^D+ + b H^P- + 1/2*b D-^D- + c P+^P-
        delta P+ = b P+^P- + 2*d H^P+ - d D+^D+
        delta P- = -a P+^P- + 2*d H^P- + d D-^D-
        delta D+ = -1/2*a P+^D+ - 1/2*b P-^D+ + d H^D+
        # printed `^ D- + + d(H ^ D-)`: the doubled plus read as one (ERRATA)
        delta D- = -1/2*a P+^D- - 1/2*b P-^D- + d H^D-"""),
    "e2-r-a": ("super_e2", "a b f branch", "a H^P+ - b H^P- + m D+^D- + f P+^P-"),
    "e2-r-b": ("super_e2", "a b f",
               "a H^P+ - 1/2*a D+^D+ - b H^P- - 1/2*b D-^D- + f P+^P-"),
    "e2-r-ii": ("super_e2", "", "H^P+"),
    "e2-r-iii": ("super_e2", "", "H^P+ - H^P- + D+^D-"),
    "e2-r-v": ("super_e2", "", "H^P+ - 1/2 D+^D+"),
    "e2-r-vi": ("super_e2", "", "H^P+ - 1/2 D+^D+ - H^P- - 1/2 D-^D-"),
}

# The normal forms (i)-(vi): id -> (parent id, parameters, fixed values).
_NORMAL_FORMS = {
    "e2-case-i": ("e2-case-a", "c", {"a": 0, "b": 0}),
    "e2-case-ii": ("e2-case-a", "c", {"a": 1, "b": 0}),
    "e2-case-iii": ("e2-case-a", "c branch", {"a": 1, "b": 1}),
    "e2-case-iv": ("e2-case-b", "d", {"a": 0, "b": 0, "c": 0}),
    "e2-case-v": ("e2-case-b", "c", {"a": 1, "b": 0, "d": 0}),
    "e2-case-vi": ("e2-case-b", "c", {"a": 1, "b": 1, "d": 0}),
}

_PARSED = {}  # id of _FAMILIES -> the family at symbolic parameters


def _bind(names, values):
    """The ring of a family call and the image in it of every symbol of the
    family's text.  A numeric value becomes a scalar, any other parameter a
    commuting variable, in table order.  m is branch * sqrt(ab): 0 when a or
    b is 0, the rational root when both are numbers (an error when it is
    irrational), and otherwise branch * a variable m with m^2 = ab."""
    free = [n for n in names if n != "branch" and values.get(n) is None]
    relations, root, branch = [], None, values.get("branch", 1)
    if "branch" in names:
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        a, b = values.get("a"), values.get("b")
        if a == 0 or b == 0:
            root = 0
        elif a is None or b is None:
            free.append("m")
            relations.append((f"m^2-{'a' if a is None else Fraction(a)}"
                              f"*{'b' if b is None else Fraction(b)}", "m^2"))
        else:
            root = rational_sqrt(Fraction(a) * Fraction(b))
            if root is None:
                raise ValueError(
                    "a*b must be a rational square for a numeric family")
    ring = Ring([(n, "commuting") for n in free], relations) if free else Q
    images = {n: ring.var(n) if n in free else ring.scalar(values[n])
              for n in names if n != "branch"}
    if "branch" in names:
        images["m"] = branch * (ring.var("m") if root is None
                                else ring.scalar(root))
    return ring, images


def _parsed(key):
    """The family `key` of `_FAMILIES` at symbolic parameters, parsed once."""
    if key not in _PARSED:
        algebra, names, text = _FAMILIES[key]
        parse = (parse_cobracket_text if "delta" in text
                 else tensors.parse_rmatrix)
        _PARSED[key] = parse(text, builtin(algebra), _bind(names.split(), {})[0])
    return _PARSED[key]


def family_ids():
    return sorted([*_FAMILIES, *_NORMAL_FORMS])


def family(family_id, *args, **params):
    """A named cobracket or r-matrix family (ids via family_ids()).  Values
    bind the parameters by position, in table order, or by name; an unbound
    parameter, or one bound to None, stays symbolic."""
    key = family_id.lower().replace("_", "-")
    if key in _NORMAL_FORMS:
        parent, accepted, fixed = _NORMAL_FORMS[key]
    elif key in _FAMILIES:
        parent, accepted, fixed = key, _FAMILIES[key][1], {}
    else:
        raise KeyError(f"unknown family {family_id!r}")
    accepted = accepted.split()
    if len(args) > len(accepted) or set(accepted[:len(args)]) & set(params):
        raise TypeError(f"family {family_id!r} takes one value at most for"
                        f" each of: {', '.join(accepted) or 'none'}")
    params.update(zip(accepted, args))
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"family {family_id!r} has no parameter {', '.join(unknown)};"
            f" it accepts: {', '.join(accepted) or 'none'}")
    symbolic = _parsed(parent)
    ring, images = _bind(_FAMILIES[parent][1].split(), {**params, **fixed})
    if isinstance(symbolic, Cobracket):
        return symbolic.map(ring, images)
    return RMatrix(symbolic.algebra, symbolic.map(ring, images).coeffs, ring)


# -- cobracket text format ----------------------------------------------------
#
# delta H = 1 P+^P-
# delta D+ = 1/2 P+^D+
#
# Omitted rows are zero; `delta = 0` as the whole file is the zero cobracket.

def parse_cobracket_text(text, algebra, ring=None):
    ring = ring if ring is not None else algebra.ring
    lines = ["".join(raw.split("#", 1)[0].split()) for raw in text.splitlines()]
    if [line for line in lines if line] == ["delta=0"]:
        return Cobracket(algebra, ring)
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
        if parts[1] in rows:
            raise ValueError(f"line {lineno}: second row for {parts[1]}")
        try:
            rows[parts[1]] = tensors.parse_wedge_sum(rhs, algebra, ring)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Cobracket.from_rows(algebra, rows, ring)
