"""Finite-dimensional Lie superalgebras from graded bases and sparse
structure constants (only the nonzero c_ij^k are stored), with axiom
validation and the `.alg` file format.  `data_path` is the one reader of
the bundled data; the two built-in algebras are the parsed `data/*.alg`
files, which the `files.*` claims check against the constants read off the
groups' supermatrices T.  `Report` is the one record of a failed exact axiom
check, here and in `bialgebra` and `poisson`: it holds each failed
identity's residual value."""

from __future__ import annotations

from importlib import resources

from .scalars import EVEN, ODD, Q, RingMismatchError, parse_rational
from . import tensors


class AlgebraError(ValueError):
    """An algebra definition violates the superalgebra axioms."""

    def __init__(self, report):
        super().__init__(report.render())
        self.report = report


class Report:
    """The failed identities of an exact axiom check.  `failures` maps each
    axiom, in check order, to its (labels, residual) pairs: `labels` are
    basis or coordinate names, `residual` the nonzero `SuperScalar`.
    `formats[axiom]` prints one failure from the labels and the rendered
    residual."""

    def __init__(self, formats):
        self.formats = formats
        self.failures = {axiom: [] for axiom in formats}

    def add(self, axiom, labels, residual):
        self.failures[axiom].append((labels, residual))

    @property
    def passed(self):
        return not any(self.failures.values())

    def failing_axioms(self):
        return [axiom for axiom, found in self.failures.items() if found]

    def residuals(self, axiom):
        return [residual for _, residual in self.failures[axiom]]

    def render(self):
        return "\n".join(
            self.formats[axiom].format(*labels, residual.render())
            for axiom, found in self.failures.items()
            for labels, residual in found) or "all axioms hold"


_AXIOMS = {"grading": "grading violated at c[{}][{}]^[{}]: {}",
           "antisymmetry": "graded antisymmetry violated at ({},{})^{}: {}",
           "jacobi": "super-Jacobi violated at ({},{},{}) -> {}: {}"}


class SuperLieAlgebra:
    """Graded basis plus sparse structure constants c_ij^k.

    `basis` is an ordered list of (name, grade) with grade "even"/"odd" (or
    0/1).  `brackets` maps a pair of basis names (i <= j in basis order) to a
    list of (coefficient, basis name) pairs; the graded-antisymmetric
    completion is filled in automatically.  Coefficients live in `ring`
    (rational constants unless an explicitly parametric algebra is built).
    Only nonzero constants are kept, in `constants` = {(i, j): ((k, c_ij^k),
    ...)} sorted by k; `constants_in(ring)` is that table over another ring.
    """

    def __init__(self, name, basis, brackets, ring=None):
        self.name = name
        self.ring = ring if ring is not None else Q
        self.basis = tuple(bname for bname, _ in basis)
        self.grades = tuple({"even": EVEN, "odd": ODD}[g] if isinstance(g, str)
                            else g for _, g in basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("duplicate basis name")
        self.dim = len(self.basis)
        self.index = {bname: i for i, bname in enumerate(self.basis)}
        products = []
        for (iname, jname), rhs in brackets.items():
            i, j = self.index[iname], self.index[jname]
            for coeff, kname in rhs:
                k = self.index[kname]
                value = (self.ring.coerce(coeff),)
                products.append(((i, j, k), 1, value))
                if i != j:
                    products.append(((j, i, k), -self.z(i, j), value))
        self.constants = _sparse_constants(self.ring.accumulate(products))
        self._constants_in = (self.ring, self.constants)  # the latest pair

    def z(self, i, j):
        """Koszul sign (-1)^{|i||j|} for basis indices."""
        return -1 if (self.grades[i] and self.grades[j]) else 1

    def bracket_indices(self, i, j):
        """Nonzero structure constants of [g_i, g_j] as (k, coefficient)."""
        return self.constants.get((i, j), ())

    def constants_in(self, ring):
        """`constants` converted into `ring`, of which only the latest (ring,
        table) pair is kept (a ring equal to the algebra's gets `constants`)."""
        if ring == self.ring:
            return self.constants
        last, converted = self._constants_in
        if ring != last:
            converted = {ij: tuple((k, v.convert(ring)) for k, v in entries)
                         for ij, entries in self.constants.items()}
            self._constants_in = (ring, converted)
        return converted

    # -- axioms ---------------------------------------------------------

    def validate(self):
        """Grading, graded antisymmetry and super-Jacobi over the stored
        constants.  Jacobi at (i,j,l) -> m is z(i,l) T(i,j,l,m) + z(j,i)
        T(j,l,i,m) + z(l,j) T(l,i,j,m) with T(x,y,w,m) = [[x,y],w]_m from
        `tensors.contract`; each T entry enters its three keys with z(x,w)."""
        report = Report(_AXIOMS)
        names = self.basis
        rows = [{} for _ in range(self.dim)]
        for (i, j), entries in sorted(self.constants.items()):
            for k, v in entries:
                rows[i][j, k] = v
                if (self.grades[i] + self.grades[j]) % 2 != self.grades[k]:
                    report.add("grading", (names[i], names[j], names[k]), v)
        # c_ij^k + z(i,j) c_ji^k keyed i <= j: c_ij^k enters with 1 when
        # i < j, z(i,j) when i > j and 1 + z(i,i) when i = j
        antisymmetry = self.ring.accumulate((
            ((min(i, j), max(i, j), k),
             (i <= j) + (i >= j) * self.z(i, j), (v,))
            for (i, j), entries in self.constants.items() for k, v in entries))
        for (i, j, k), res in sorted(antisymmetry.items()):
            report.add("antisymmetry", (names[i], names[j], names[k]), res)
        jacobi = self.ring.accumulate((
            (key, self.z(x, w), (value,))
            for (x, y, w, m), value in tensors.contract(self.ring, rows).items()
            for key in ((x, y, w, m), (w, x, y, m), (y, w, x, m))))
        for key, res in sorted(jacobi.items()):
            report.add("jacobi", tuple(names[i] for i in key), res)
        return report

    # -- elements --------------------------------------------------------

    def element(self, name, ring=None, coeff=1):
        """Basis element as a rank-1 tensor, optionally over a larger ring."""
        ring = ring if ring is not None else self.ring
        return tensors.GradedTensor(self, 1, {(self.index[name],): ring.coerce(coeff)}, ring)

    def __repr__(self):
        return f"SuperLieAlgebra({self.name}, dim={self.dim})"


def _sparse_constants(entries):
    """{(i, j): ((k, value), ...)} sorted by k from {(i, j, k): value}, whose
    values are nonzero."""
    constants = {}
    for (i, j, k), v in sorted(entries.items()):
        constants[i, j] = constants.get((i, j), ()) + ((k, v),)
    return constants


def bracket(algebra, x, y):
    """Graded bracket of two rank-1 tensors with scalar coefficients.

    Coefficients may be odd; the Koszul rule
    [f x, g y] = (-1)^{|g||x|} f g [x, y] applies for homogeneous scalars.
    """
    if x.algebra is not algebra or y.algebra is not algebra:
        raise RingMismatchError("elements of a different algebra")
    if x.rank != 1 or y.rank != 1:
        raise ValueError("bracket is defined on rank-1 elements")
    return tensors.GradedTensor(algebra, 1, x.ring.accumulate((
        (key, sign, (f, *factors)) for (i,), f in x.coeffs.items()
        for key, sign, factors in tensors._adjoint(algebra, i, y))), x.ring)


# -- built-in algebras --------------------------------------------------

BUILTIN_NAMES = ("osp12", "super_e2")
_BUILTIN_CACHE = {}


def data_path(name):
    """The bundled data file `name` (`claims.json` or `<builtin>.alg`)."""
    return resources.files("superbialg.data").joinpath(name)


def builtin(name):
    """The two built-in algebras, read unvalidated from `data/<name>.alg`
    with basis orders (H,P+,P-,D+,D-) and (H,X+,X-,V+,V-); the `axioms.*`
    claims validate them.  Cached: repeated calls return the same object, so
    tensors built anywhere in the package share one algebra instance."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin algebra {name!r}")
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = parse_algebra_text(
            data_path(f"{name}.alg").read_text(), validate=False)
    return _BUILTIN_CACHE[name]


# -- file format ----------------------------------------------------------
#
# [algebra] name = super_e2
# basis = H:even P+:even P-:even D+:odd D-:odd
# [brackets]            # omitted pairs are zero; only i<=j pairs listed
# H P+ = 1 P+
# D+ D+ = 1 P+

def parse_algebra_text(text, validate=True):
    name = None
    basis = []
    brackets = {}
    section = None
    index = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[algebra]"):
            section = "algebra"
            rest = line[len("[algebra]"):].strip()
            if rest:
                key, _, value = rest.partition("=")
                if key.strip() != "name":
                    raise ValueError(f"line {lineno}: expected 'name = ...'")
                name = value.strip()
            continue
        if line == "[brackets]":
            section = "brackets"
            continue
        if section == "algebra":
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "name":
                name = value.strip()
            elif key == "basis":
                for token in value.split():
                    bname, _, grade = token.partition(":")
                    if grade not in ("even", "odd"):
                        raise ValueError(
                            f"line {lineno}: bad grade in {token!r}")
                    if bname in index:
                        raise ValueError(
                            f"line {lineno}: duplicate basis name {bname!r}")
                    index[bname] = len(basis)
                    basis.append((bname, grade))
            else:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
        elif section == "brackets":
            lhs, _, rhs = line.partition("=")
            parts = lhs.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'I J = ...'")
            iname, jname = parts
            for bname in (iname, jname):
                if bname not in index:
                    raise ValueError(f"line {lineno}: unknown basis name {bname!r}")
            if index[iname] > index[jname]:
                raise ValueError(
                    f"line {lineno}: list only pairs with i <= j in basis order")
            if (iname, jname) in brackets:
                raise ValueError(f"line {lineno}: duplicate pair {iname} {jname}")
            tokens = rhs.split()
            if len(tokens) % 2 != 0 or not tokens:
                raise ValueError(
                    f"line {lineno}: right-hand side must be rational/name pairs")
            rhs_pairs = []
            for pos in range(0, len(tokens), 2):
                try:
                    coeff = parse_rational(tokens[pos])
                except (ValueError, ZeroDivisionError):
                    raise ValueError(
                        f"line {lineno}: bad rational {tokens[pos]!r}") from None
                kname = tokens[pos + 1]
                if kname not in index:
                    raise ValueError(f"line {lineno}: unknown basis name {kname!r}")
                rhs_pairs.append((coeff, kname))
            brackets[(iname, jname)] = rhs_pairs
        else:
            raise ValueError(f"line {lineno}: content outside any section")
    if name is None or not basis:
        raise ValueError("missing [algebra] header or basis")
    algebra = SuperLieAlgebra(name, basis, brackets)
    if validate:
        report = algebra.validate()
        if not report.passed:
            raise AlgebraError(report)
    return algebra


def parse_algebra_file(path, validate=True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read(), validate=validate)


def render_algebra_text(algebra):
    lines = [f"[algebra] name = {algebra.name}"]
    grade_names = {EVEN: "even", ODD: "odd"}
    lines.append("basis = " + " ".join(
        f"{n}:{grade_names[g]}" for n, g in zip(algebra.basis, algebra.grades)))
    lines.append("[brackets]")
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            entries = algebra.bracket_indices(i, j)
            if not entries:
                continue
            rhs = " ".join(
                f"{v.as_fraction()} {algebra.basis[k]}" for k, v in entries)
            lines.append(f"{algebra.basis[i]} {algebra.basis[j]} = {rhs}")
    return "\n".join(lines) + "\n"
