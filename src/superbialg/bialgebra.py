"""Cobrackets and Lie super-bialgebra axioms.

A cobracket delta(g_i) = f_i^{kl} g_k (x) g_l is the rank-3 tensor
`tensors.Cobracket`, keyed (i, k, l) with its dual slot first and only the
nonzero f_i^{kl} stored.  The four axioms checked here are grading, graded
antisymmetry, co-Jacobi, and the cocycle compatibility with the bracket,

    delta([g_i, g_j]) = ad_i delta(g_j) - z(i,j) ad_j delta(g_i),

all as exact scalar-zero tests (parameters stay symbolic).  Each axiom is
one dict {index key: nonzero residual polynomial}, and `check_cobracket`
files the four through `Report.add_all`.  `_pairs` is the one rule for the
pairs (g_i, g_j) the cocycle identity is checked on; the cocycle system of
`cocycles` reads the same `_cocycle_residuals` dict.

The coboundary construction fixes the overall sign so that
delta(g) = [g(x)1 + 1(x)g, r] = ad_g(r): this is the sign under which the
coboundary of H^P+ coincides with the case-A cobracket at (a,b,c) = (1,0,0)
and the Poisson module reproduces the published bracket tables.  The
opposite sign satisfies the linear axioms just as well, so the tables, not
the cocycle identity, are the effective witness.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EVEN, Q, Ring, RingMismatchError, rational_sqrt
from .algebra import Report, builtin
from . import tensors
from .tensors import Cobracket, RMatrix, ad_action

CYBE = "CYBE"
MCYBE = "mCYBE"
NEITHER = "neither"


_AXIOMS = {"grading": "grading violated at ({},{},{}): {}",
           "antisymmetry": "antisymmetry violated at ({},{},{}): {}",
           "cojacobi": "cojacobi violated at ({},{},{},{}): {}",
           "cocycle": "cocycle violated at ({},{},{},{}): {}"}


def coboundary_delta(algebra, r):
    """delta(g) = [g(x)1 + 1(x)g, r] = ad_g(r), as a Cobracket."""
    if r.parity() != EVEN:
        raise ValueError("coboundary needs an even r")
    return Cobracket(algebra, {
        (g, *kl): v for g in range(algebra.dim)
        for kl, v in ad_action(algebra, g, r).coeffs.items()}, r.ring)


def _pairs(algebra):
    """The pairs (i, j), i <= j, that determine a graded-antisymmetric
    function of two basis elements, which vanishes on the even diagonal."""
    n, grades = algebra.dim, algebra.grades
    return [(i, j) for i in range(n) for j in range(i, n) if i < j or grades[i]]


def _cocycle_residuals(algebra, d):
    """{(i, j, l, m): residual} of delta([g_i,g_j]) - ad_i delta(g_j)
    + z(i,j) ad_j delta(g_i), graded-antisymmetric in (i, j), over `_pairs`
    in one `Ring.accumulate`."""
    constants, rows = algebra.constants_in(d.ring), d.rows
    products = []
    for i, j in _pairs(algebra):
        products += [((i, j, *kl), 1, (cval, v))
                     for k, cval in constants.get((i, j), ())
                     for kl, v in rows[k].coeffs.items()]
        for g, row, z in ((i, rows[j], -1), (j, rows[i], algebra.z(i, j))):
            products += [((i, j, *kl), z * sign, factors) for kl, sign, factors
                         in tensors._adjoint(algebra, g, row)]
    return d.ring.accumulate(products)


def _cojacobi_residuals(algebra, d):
    """{(i, k, l, m): residual} for every nonzero co-Jacobi sum
    z(k,m) T(i,k,l,m) + z(l,k) T(i,l,m,k) + z(m,l) T(i,m,k,l), where
    T(i,k,l,m) = sum_j f_i^{kj} f_j^{lm} is `tensors.contract` of the rows;
    each of its entries enters the three cyclic positions of its last three
    indices with the same sign."""
    contracted = tensors.contract(d.ring, [row.coeffs for row in d.rows])
    return d.ring.accumulate((
        (key, algebra.z(k, m), (value,))
        for (i, k, l, m), value in contracted.items()
        for key in ((i, k, l, m), (i, m, k, l), (i, l, m, k))))


def check_cobracket(algebra, d):
    if d.algebra is not algebra:
        raise RingMismatchError("tensor of a different algebra")
    grades = algebra.grades
    report = Report(_AXIOMS)
    report.add_all(algebra.basis, {
        "grading": {key: v for key, v in d.coeffs.items()
                    if sum(grades[i] for i in key) % 2},
        "antisymmetry": tensors._graded_antisymmetry(algebra, d.ring,
                                                     d.coeffs, 1),
        "cojacobi": _cojacobi_residuals(algebra, d),
        "cocycle": _cocycle_residuals(algebra, d)})
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
        return Cobracket(algebra, {}, ring)
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
