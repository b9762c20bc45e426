"""Poisson-Lie brackets on the supergroups super-E(2) and OSp(1|2).

Coordinate rings:

* super-E(2): even coordinates s, a, b; odd coordinates xi, eta; and the
  group-like Laurent variable E standing for exp(s/2) (so e^s = E^2).  The
  super-E(2) ring also carries the family parameter c of the bracket tables.
* OSp(1|2): even a, b, c, d; odd alpha, delta; subject to
  a*d - b*c + alpha*delta = 1 (reduced with leading monomial a*d).

Each group is defined by its supermatrix T (`matrix`): on OSp(1|2) T =
[[a, b, alpha], [c, d, delta], [gamma, beta, e]] with gamma = c*alpha -
a*delta, beta = d*alpha - b*delta and e = 1 + alpha*delta; on super-E(2)
three upper triangular blocks in s, (xi, a, E^-1) and (eta, b, E).  The
coproduct Delta(T_ij) = sum_k T_ik (x) T_kj and the identity T(e) = 1 are
derived from T; the parameter c maps to itself.

Every bracket has one shape, a Sklyanin term of the classical r-matrix plus
a group-valued cocycle term Phi (the c*s P+^P- term of the non-coboundary
super-E(2) families, or the whole bracket of family iv):

    {f, g} = (Y_k^(r) f) r^{kj} (Y_j^(l) g) - (X_k^(r) f) r^{kj} (X_j^(l) g)
             + (X_j^(r) f) Phi^{jk} (X_k^(l) g)

Both r and Phi are rank-2 wedge sums; the nine published structures are one
table (`_STRUCTURES`) of r-matrix families and Phi texts.  The bracket is
linear in (r, Phi), so a structure is its rational coefficients over basis
brackets of its group: r^{kj} times

    B_kj(m, n) = (Y_k^(r) m)(Y_j^(l) n) - (X_k^(r) m)(X_j^(l) n)

for each entry of r, and q times (X_j^(r) m) mu (X_k^(l) n) for each term
q*mu of Phi^{jk}, mu a monomial.  `bracket` is the one bracket: {f, g} is
the sum of c*d times the combination at (m, n) over the terms c*m of f and
d*n of g.  Products are taken in the written order; the supercommutative
ring supplies every Koszul sign.

The invariant fields are read off T, through Delta(T_ij) = sum_l T_il (x)
T_lj, from tangent vectors xi_k at e (Semenov-Tian-Shansky 1985):

    Y_k(T_ij) = sum_l eps T_il xi_k(T_lj)|_e
    X_k(T_ij) = sum_l xi_k(T_il)|_e T_lj

with eps = (-1)^{|xi_k||T_il|}, the sign of the entry the derivative
crosses.  The tangents are

    super-E(2): H -> d/ds, P+ -> d/da, P- -> d/db, D+ -> d/dxi, D- -> d/deta
    OSp(1|2):   H -> 1/2 (d/da - d/dd), X+ -> d/db, X- -> d/dc,
                V+ -> 1/2 d/dalpha, V- -> 1/2 d/ddelta

Every field is a left derivation, and its table carries the chain rule
field(E) = 1/2 field(s) E.  The right derivative the bracket reads on its
left argument is a parity sign times the left one (DeWitt 1984): D^(r) m =
(-1)^{|D|(|m|+1)} D^(l) m.  A field's image, the value at e and the
coproduct of each monomial, the product of two entries of T and each basis
bracket (`basis_brackets`, {(m, n): {key: value}}, shared by every
structure) are formed once per group; a zero basis bracket is the group's
one `zero`.

G x G is a bare `Ring`, the ring Delta maps into (`CoordinateRing.square`:
slot-tagged variables x1, x2, shared parameters, each relation once per
slot); it serves the coproduct check alone.  `tensor_sum` sums q x (x) y
by concatenating keys; x in slot 1 is `tensor_sum([(1, x, 1)])`, and the
coproduct is the ring map x -> Delta(x).  The bracket is Poisson-Lie when
Delta is a Poisson map into the product structure on G x G, read off
Delta x = sum u (x) v over the nonzero entries u, v of T (`entries`,
`coproduct_pairs`):

    {u (x) v, w (x) y} = (-1)^{|v||w|} ({u,w} (x) vy + uw (x) {v,y})

`check_axioms` returns a `Report` of the failed identities and their
residuals.

OSp bracket values are conventionally displayed after multiplication by 2,
which is how the published table is normalized; `render_table` applies the
structure's display scale.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from operator import add

from .scalars import EVEN, ODD, Ring, _lowest, _rational
from .algebra import Report, builtin
from .bialgebra import family as bialgebra_family
from .tensors import parse_wedge_sum

HALF = Fraction(1, 2)


class VectorField:
    """Invariant graded derivation given by its action on the generators,
    extended by the left Leibniz rule D(fg) = D(f) g + (-1)^{|D||f|} f D(g).
    A Laurent variable's entry is its chain-rule value: field(E) = 1/2
    field(s) E on super-E(2)."""

    side = "l"  # every field is a left derivation; bench/tracing.py reads it

    def __init__(self, group, label, parity, table):
        self.group = group
        self.label = label
        self.parity = parity
        self.table = dict(table)  # generator name -> SuperScalar
        for name, (src, factor) in group.laurent_rules.items():
            self.table.pop(name, None)
            if src in table:
                self.table[name] = factor * table[src] * group.var(name)
        self.images = {}  # monomial key (exps, odds) -> its image

    def on_generator(self, name):
        return self.table.get(name, self.group.zero)

    def __call__(self, f):
        return self.group.apply_field(self, f)

    def __repr__(self):
        return f"<field {self.label} on {self.group.name}>"


class CoordinateRing:
    """A supergroup coordinate ring with coproduct and invariant fields.
    `matrix` holds the blocks of T as entry texts; every variable but a
    parameter is one entry T_ij, with identity value delta_ij."""

    def __init__(self, name, ring, coordinates, matrix, tangents,
                 laurent_rules, display, algebra_name, params=()):
        self.name = name
        self.ring = ring
        self.coordinates = tuple(coordinates)
        self.params = tuple(params)
        self.matrix = tuple(matrix)
        names = ring.names
        entries = [(text, int(i == j)) for block in self.matrix
                   for i, row in enumerate(block)
                   for j, text in enumerate(row) if text in names]
        if sorted(x for x, _ in entries) != sorted(set(names) - set(params)):
            raise ValueError(f"{name}: every coordinate must be one entry of T")
        self.identity = dict(entries)
        # T's distinct nonzero entries, and for each coordinate x = T_ij the
        # (p, q) indices into `entries` of Delta(x) = sum_k T_ik (x) T_kj;
        # the product bracket's sign needs every entry homogeneous
        index = {}
        self.entries = []
        for text in dict.fromkeys(t for block in self.matrix
                                  for row in block for t in row):
            x = ring.parse(text)
            if x.is_zero():
                continue
            if x.parity() is None:
                raise ValueError(f"{name}: entry {text} of T is not homogeneous")
            index[text] = len(self.entries)
            self.entries.append(x)
        self.entry_index = index  # entry text -> its index in `entries`
        self.parities = [x.parity() for x in self.entries]
        self.coproduct_pairs = {
            x: tuple((index[row[k]], index[block[k][j]])
                     for k in range(len(block))
                     if row[k] in index and block[k][j] in index)
            for block in self.matrix for row in block
            for j, x in enumerate(row) if x in self.identity}
        self.laurent_rules = dict(laurent_rules)
        self.display = list(display)
        self.display_elements = {label: ring.parse(text)
                                 for label, text in self.display}
        self.algebra = builtin(algebra_name)
        self.tangents = dict(tangents)  # generator -> {coordinate: rational}
        self._fields = None
        self._square = None
        # (m, n) -> {key: basis bracket}, filled by `PoissonStructure.bracket`
        self.basis_brackets = {}
        self.zero = ring.zero()
        self._delta = None
        # monomial -> its value at e or its coproduct; (p, q) -> the product
        # of entries p and q of T: each formed once per group
        self._identity_values, self._coproducts, self._products = {}, {}, {}

    # -- basic ring helpers ------------------------------------------------

    def var(self, name):
        return self.ring.var(name)

    def parse(self, text):
        return self.ring.parse(text)

    def parity_of(self, name):
        return ODD if self.ring.kind(name) == "grassmann" else EVEN

    def at_identity(self, f):
        return self._per_monomial(self._identity_values, f, self.ring,
                                  lambda _, m: m.substitute(self.identity))

    def vanishes_at_identity(self, f):
        return self.at_identity(f).is_zero()

    def _per_monomial(self, memo, f, target, image):
        # a linear map: the sum of c * image(key, m) over the terms c*m of f,
        # m the monomial of `key`, each image formed once and kept in `memo`
        f = self.ring.coerce(f)
        den, triples = f._den, []
        for key, c in f._terms.items():
            value = memo.get(key)
            if value is None:
                value = memo[key] = image(key, self.ring._make({key: 1}))
            triples.append((c, den, value))
        return target._combination(triples)

    def entry_product(self, p, q):
        """entries[p] * entries[q], formed once per group."""
        if (p, q) not in self._products:
            self._products[p, q] = self.entries[p] * self.entries[q]
        return self._products[p, q]

    def field(self, gen, chirality):
        """The invariant field Y or X of generator `gen`."""
        if self._fields is None:
            self._fields = self._derive_fields()
        return self._fields[gen, chirality]

    def tangent_at_identity(self, gen):
        """[xi(x)|_e for x in `entries`], xi the tangent of `gen`."""
        self.field(gen, "Y")
        return self._at_e[gen]

    def _derive_fields(self):
        # Y_k, X_k of the module docstring, summed over the pairs (p, q) of
        # Delta(T_ij): entry k kept and entry m differentiated, (k, m) = (p, q)
        # for Y and (q, p) for X.  An odd Y crosses the kept entry.
        ring, entries, parity = self.ring, self.entries, self.parities
        fields, self._at_e = {}, {}
        for gen, odd in zip(self.algebra.basis, self.algebra.grades):
            table = {n: ring.scalar(q) for n, q in self.tangents[gen].items()}
            tangent = VectorField(self, f"xi_{gen}", odd, table)
            at_e = self._at_e[gen] = [
                self.at_identity(tangent(x)).as_fraction() for x in entries]
            for chirality, order in (("Y", 1), ("X", -1)):
                flip, values = odd and chirality == "Y", {}
                for name in self.coordinates:
                    value = ring.linear_combination(
                        (-at_e[m] if flip and parity[k] else at_e[m],
                         entries[k]) for k, m in
                        (pq[::order] for pq in self.coproduct_pairs[name]))
                    if value._terms:
                        values[name] = value
                fields[gen, chirality] = VectorField(
                    self, f"{chirality}_{gen}", odd, values)
        return fields

    # -- derivations ---------------------------------------------------------

    def apply_field(self, field, f):
        return self._per_monomial(field.images, f, self.ring, lambda key, _:
                                  self._monomial_image(field, key))

    def image(self, field, key):
        """The image under `field` of the coefficient-1 monomial `key`,
        computed once per field and kept in `field.images`."""
        image = field.images.get(key)
        if image is None:
            image = field.images[key] = self._monomial_image(field, key)
        return image

    def basis_bracket(self, key, m, n):
        """The basis bracket `key` of the monomial keys m, n, reduced once; a
        zero is the group's `zero`.  An r key (k, j) names B_kj(m, n) =
        Y_k^(r) m * Y_j^(l) n - X_k^(r) m * X_j^(l) n, a Phi key (j, k, mu),
        mu a monomial key, names X_j^(r) m * mu * X_k^(l) n (mu may be odd,
        so the factors keep that order).  The right derivative is the left
        one times a parity sign, D^(r) m = (-1)^{|D|(|m|+1)} D^(l) m."""
        left, right, *mu = key
        odd_m = len(m[1]) % 2
        products = []
        for chirality, sign in (("X", 1),) if mu else (("Y", 1), ("X", -1)):
            field = self.field(left, chirality)
            lm = self.image(field, m)
            if lm._terms:
                rn = self.image(self.field(right, chirality), n)
                if rn._terms:
                    if field.parity and not odd_m:
                        sign = -sign
                    products.append((sign, (lm, *[self.ring._make({mono: 1})
                                                  for mono in mu], rn)))
        value = self.ring.sum_of_products(products) if products else self.zero
        return value if value._terms else self.zero

    def _monomial_image(self, field, key):
        # the left graded Leibniz rule on x1^k1 .. xm^km th_1 .. th_n: the
        # factor at odd slot t crosses the t odd factors before it
        ring = self.ring
        exps, odds = key
        products = []
        for pos, k in enumerate(exps):
            if not k:
                continue
            value = field.on_generator(ring.even_names[pos])
            if value.is_zero():
                continue
            reduced = list(exps)
            reduced[pos] = k - 1
            products.append((k, (ring.monomial(reduced, ()), value,
                                 ring.monomial(ring._zero_exps, odds))))
        for t, oi in enumerate(odds):
            value = field.on_generator(ring.odd_names[oi])
            if value.is_zero():
                continue
            products.append((-1 if (field.parity and t % 2) else 1, (
                ring.monomial(exps, ()),
                ring.monomial(ring._zero_exps, odds[:t]), value,
                ring.monomial(ring._zero_exps, odds[t + 1:]))))
        return ring.sum_of_products(products)

    # -- the tensor square ---------------------------------------------------

    def square(self):
        """The ring of G x G that Delta maps into, built once.

        Variable layout: shared parameters first, then slot-1 evens, slot-2
        evens, slot-1 odds, slot-2 odds; each relation is retagged per slot.
        `tensor_sum` needs G's parameters to lead its evens.  Every leading
        monomial lies in one slot: one with a parameter would be shared by
        the two slot copies of its relation, which `Ring` refuses.
        """
        if self._square is not None:
            return self._square
        ring, params, identity = self.ring, self.params, self.identity

        def tag(text, slot):
            # each coordinate (a key of `identity`) in `text` gets the slot
            return re.sub(r"[A-Za-z_]\w*", lambda m: f"{m[0]}{slot}"
                          if m[0] in identity else m[0], text)

        variables = [(p, ring.kind(p)) for p in params]
        for names in (ring.even_names, ring.odd_names):
            for slot in (1, 2):
                variables += [(f"{n}{slot}", ring.kind(n))
                              for n in names if n not in params]
        relations = [(tag(text, slot), tag(lead, slot))
                     for text, lead in ring._relation_spec for slot in (1, 2)]
        square = Ring(variables, relations)
        if ring.even_names[:len(params)] != params:
            raise ValueError(f"{self.name}: parameters must lead the evens")
        self._square = square
        return square

    def tensor_sum(self, triples):
        """The sum of q * x (x) y in the square over (integer q, x, y in G
        or rational) triples, a zero factor skipped: each key of x then one
        of y, the shared parameters' exponents added, over one denominator,
        put in lowest terms once.  No product kernel and no rewrite, as a
        tensor of normal forms is a normal form (see `square`)."""
        n, shift = len(self.params), len(self.ring.odd_names)
        coerce = self.ring.coerce
        triples = [(q, coerce(x), coerce(y)) for q, x, y in triples]
        triples = [t for t in triples if t[1]._terms and t[2]._terms]
        den = math.lcm(*[x._den * y._den for _, x, y in triples])
        out = {}
        for q, x, y in triples:
            q *= den // (x._den * y._den)
            right = [(e[:n], e[n:], tuple(i + shift for i in o), c)
                     for (e, o), c in y._terms.items()]
            for (e1, o1), c1 in x._terms.items():
                head1, tail1, c1 = e1[:n], e1[n:], q * c1
                for head2, tail2, o2, c2 in right:
                    key = (tuple(map(add, head1, head2)) + tail1 + tail2, o1 + o2)
                    out[key] = out.get(key, 0) + c1 * c2
        return self.square()._make(*_lowest(out, den))

    def _generator_coproducts(self):
        """Delta of every ring variable, derived once: Delta(T_ij) =
        sum_k T_ik (x) T_kj over its `coproduct_pairs`."""
        if self._delta is None:
            delta = {p: self.square().var(p) for p in self.params}
            delta.update((x, self.tensor_sum(
                [(1, self.entries[p], self.entries[q]) for p, q in pairs]))
                for x, pairs in self.coproduct_pairs.items())
            self._delta = delta
        return self._delta

    def coproduct(self, f):
        """The ring map sending each variable to its generator coproduct,
        formed once per monomial of the group."""
        tring = self.square()
        return self._per_monomial(self._coproducts, f, tring, lambda _, m: m.map(
            tring, self._generator_coproducts()))

    def __repr__(self):
        return f"<CoordinateRing {self.name}>"


# -- the two groups -----------------------------------------------------------

def super_e2_group():
    ring = Ring([
        ("c", "commuting"),
        ("s", "commuting"), ("a", "commuting"), ("b", "commuting"),
        ("E", "laurent"),
        ("xi", "grassmann"), ("eta", "grassmann"),
    ])
    tangents = {"H": {"s": 1}, "P+": {"a": 1}, "P-": {"b": 1},
                "D+": {"xi": 1}, "D-": {"eta": 1}}
    matrix = [
        [["1", "s"], ["0", "1"]],
        [["1", "xi", "a"], ["0", "E^-1", "1/2*xi*E^-1"], ["0", "0", "E^-2"]],
        [["1", "eta", "b"], ["0", "E", "1/2*eta*E"], ["0", "0", "E^2"]],
    ]
    display = [("a", "a"), ("b", "b"), ("es", "E^2"),
               ("xi", "xi"), ("eta", "eta")]
    return CoordinateRing(
        "super-e2", ring,
        coordinates=("s", "a", "b", "xi", "eta"),
        matrix=matrix,
        tangents=tangents,
        laurent_rules={"E": ("s", HALF)},
        display=display,
        algebra_name="super_e2",
        params=("c",),
    )


def osp_group():
    ring = Ring(
        [("a", "commuting"), ("b", "commuting"), ("c", "commuting"),
         ("d", "commuting"), ("alpha", "grassmann"), ("delta", "grassmann")],
        relations=[("a*d-b*c+alpha*delta-1", "a*d")],
    )
    tangents = {"H": {"a": HALF, "d": -HALF}, "X+": {"b": 1}, "X-": {"c": 1},
                "V+": {"alpha": HALF}, "V-": {"delta": HALF}}
    # the last row is gamma, beta, e
    matrix = [[["a", "b", "alpha"], ["c", "d", "delta"],
               ["c*alpha-a*delta", "d*alpha-b*delta", "1+alpha*delta"]]]
    display = [("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"),
               ("alpha", "alpha"), ("delta", "delta")]
    return CoordinateRing(
        "osp", ring,
        coordinates=("a", "b", "c", "d", "alpha", "delta"),
        matrix=matrix,
        tangents=tangents,
        laurent_rules={},
        display=display,
        algebra_name="osp12",
    )


_GROUPS = {}


def group(name):
    key = name.lower().replace("_", "-")
    if key in ("super-e2", "e2"):
        key = "super-e2"
    elif key in ("osp", "osp12"):
        key = "osp"
    else:
        raise KeyError(f"unknown group {name!r}")
    if key not in _GROUPS:
        _GROUPS[key] = super_e2_group() if key == "super-e2" else osp_group()
    return _GROUPS[key]


# -- Poisson structures --------------------------------------------------------

class PoissonStructure:
    """The bracket of an r-matrix and a group-valued cocycle Phi.

    `r` is an RMatrix with rational components and `phi` an even rank-2
    GradedTensor over the group ring; either may be absent.  They are kept
    as `r_entries`, (k, j, r^{kj}) name triples, and `phi`, {(j, k) names:
    Phi^{jk}}.  Every Phi^{jk} must vanish at the identity.  `coefficients`
    holds (key, numerator, denominator) over the group's basis brackets:
    key (k, j) for r^{kj}, and (j, k, mu) for each term q*mu of Phi^{jk}.
    """

    def __init__(self, grp, structure_id="", r=None, phi=None,
                 display_scale=1):
        self.group = grp
        self.structure_id = structure_id
        n, d = _rational(display_scale)
        self.display_scale = n if d == 1 else Fraction(n, d)
        self.r_entries = [] if r is None else [
            (r.algebra.basis[k], r.algebra.basis[j], v.as_fraction())
            for (k, j), v in sorted(r.coeffs.items())]
        self.phi = {} if phi is None else {
            (phi.algebra.basis[j], phi.algebra.basis[k]): v
            for (j, k), v in phi.coeffs.items()}
        if phi is not None and phi.parity() != EVEN:
            raise ValueError("Phi must be even")
        for (j, k), value in self.phi.items():
            if not grp.vanishes_at_identity(value):
                raise ValueError(
                    f"Phi^({j},{k}) = {value.render()} does not vanish at the"
                    " group identity")
        self.coefficients = [((k, j), q.numerator, q.denominator)
                             for k, j, q in self.r_entries]
        self.coefficients += [((j, k, mu), c, value._den)
                              for (j, k), value in self.phi.items()
                              for mu, c in value._terms.items()]

    def bracket(self, f, g):
        """{f, g}, the sum of c*d*q*B(m, n) over the terms c*m of f, d*n of
        g and q*B of `coefficients`: one rational combination of basis
        brackets, each read from the group's memo or formed into it."""
        grp = self.group
        memo, basis_bracket = grp.basis_brackets, grp.basis_bracket
        den = f._den * g._den
        triples = []
        for m, c in f._terms.items():
            for n, d in g._terms.items():
                row = memo.get((m, n))
                if row is None:
                    row = memo[m, n] = {}
                for key, num, q_den in self.coefficients:
                    value = row.get(key)
                    if value is None:
                        value = row[key] = basis_bracket(key, m, n)
                    if value._terms:
                        triples.append((c * d * num, den * q_den, value))
        return grp.ring._combination(triples)

    def __repr__(self):
        return f"<PoissonStructure {self.group.name}:{self.structure_id}>"


def coboundary_structure(grp, r, structure_id="", display_scale=1):
    """The structure of an RMatrix alone (rational tensor components)."""
    return PoissonStructure(grp, structure_id, r, display_scale=display_scale)


# The nine published structures: group -> id -> (r-matrix family, its
# parameters, Phi as a wedge sum over the group ring).  Every non-coboundary
# super-E(2) member carries c*s P+^P-; Phi of (iv) has overall scale 1.
_STRUCTURES = {
    "osp": {
        "1": ("osp-r1", {}, None),
        "2": ("osp-r2", {}, None),
        "3": ("osp-r3", {"t": 1}, None),
    },
    "super-e2": {
        "i": (None, {}, "c*s P+^P-"),
        "ii": ("e2-r-ii", {}, "c*s P+^P-"),
        "iii": ("e2-r-iii", {}, "c*s P+^P-"),
        "iv": (None, {},
               "2*a*E^2 H^P+ + 2*b*E^-2 H^P- + E*xi H^D+ + E^-1*eta H^D-"
               " - 2*a*b P+^P- - a*E^3*xi P+^D+ - a*E*eta P+^D-"
               " + b*E^-1*xi P-^D+ + b*E^-3*eta P-^D- - a*E^2 D+^D+"
               " - 1/2*xi*eta D+^D- + b*E^-2 D-^D-"),
        "v": ("e2-r-v", {}, "c*s P+^P-"),
        "vi": ("e2-r-vi", {}, "c*s P+^P-"),
    },
}


_NAMED = {}


def named_structure(group_name, structure_id):
    """The nine published structures: osp 1|2|3 and super-e2 i..vi.
    Cached like `group()`: one object per (group, id)."""
    grp = group(group_name)
    sid = str(structure_id).lower()
    key = (grp.name, sid)
    if key in _NAMED:
        return _NAMED[key]
    entry = _STRUCTURES[grp.name].get(sid)
    if entry is None:
        if grp.name == "osp":
            raise KeyError(f"unknown OSp structure {structure_id!r} (1|2|3)")
        raise KeyError(f"unknown super-e2 structure {structure_id!r} (i..vi)")
    family_id, params, phi_text = entry
    r = bialgebra_family(family_id, **params) if family_id else None
    phi = parse_wedge_sum(phi_text, grp.algebra, grp.ring) if phi_text else None
    _NAMED[key] = PoissonStructure(grp, sid, r, phi,
                                   display_scale=2 if grp.name == "osp" else 1)
    return _NAMED[key]


def structure_ids(group_name):
    return list(_STRUCTURES[group(group_name).name])


_AXIOMS = {"antisymmetry": "antisymmetry fails at {{{},{}}}: {}",
           "leibniz": "leibniz fails at {{{},{}*{}}}: {}",
           "jacobi": "jacobi fails at ({},{},{}): {}",
           "coproduct_morphism": "coproduct_morphism fails at Delta{{{},{}}}: {}",
           "vanishing": "vanishing fails at {{{},{}}} at identity: {}"}


def check_axioms(structure):
    """Graded antisymmetry, Leibniz, graded Jacobi, and the coproduct
    morphism property, all on the group generators (exact, symbolic).

    pi[f, g] = {x_f, x_g} is computed once; the Leibniz right side is formed
    from it, for g <= h in coordinate order: for g > h the residual is z =
    (-1)^{|g||h|} times that at (f, h, g), as x_g x_h = z x_h x_g and the
    right side of an even bracket permutes alike.  The coproduct morphism
    compares Delta{x_f, x_g} with one `tensor_sum`, the product bracket of
    Delta x_f = sum u (x) v and Delta x_g = sum w (x) y over entries of T:

        {u (x) v, w (x) y} = (-1)^{|v||w|} ({u,w} (x) vy + uw (x) {v,y})
    """
    grp = structure.group
    ring, entries, at = grp.ring, grp.entries, grp.entry_index
    gens = list(grp.coordinates)
    par = {g: grp.parity_of(g) for g in gens}
    val = {g: entries[at[g]] for g in gens}
    report = Report(_AXIOMS)
    bracket, product = structure.bracket, grp.entry_product

    pi = {(f, g): bracket(val[f], val[g]) for f in gens for g in gens}

    def z(p, q):
        return -1 if (p and q) else 1

    for f, g in itertools.combinations_with_replacement(gens, 2):
        res = ring._combination([(1, 1, pi[f, g]),
                                 (z(par[f], par[g]), 1, pi[g, f])])
        if not res.is_zero():
            report.add("antisymmetry", (f, g), res)

    done = {}  # (f, g, h), g <= h -> the Leibniz residual there
    for f, g, h in itertools.product(gens, repeat=3):
        if (f, h, g) in done:
            res = -done[f, h, g] if par[g] and par[h] else done[f, h, g]
        else:
            res = done[f, g, h] = ring.sum_of_products([
                (1, (bracket(val[f], product(at[g], at[h])),)),
                (-1, (pi[f, g], val[h])), (-z(par[f], par[g]), (val[g], pi[f, h]))])
        if res._terms:
            report.add("leibniz", (f, g, h), res)

    for f, g, h in itertools.combinations_with_replacement(gens, 3):
        total = ring._combination([
            (z(par[f], par[h]), 1, bracket(val[f], pi[g, h])),
            (z(par[g], par[f]), 1, bracket(val[g], pi[h, f])),
            (z(par[h], par[g]), 1, bracket(val[h], pi[f, g]))])
        if not total.is_zero():
            report.add("jacobi", (f, g, h), total)

    entry_bracket = functools.cache(lambda p, r: bracket(entries[p], entries[r]))

    for f, g in itertools.combinations_with_replacement(gens, 2):
        terms = []
        for p, q in grp.coproduct_pairs[f]:
            for r, s in grp.coproduct_pairs[g]:
                sign = z(grp.parities[q], grp.parities[r])
                terms += [(sign, entry_bracket(p, r), product(q, s)),
                          (sign, product(p, r), entry_bracket(q, s))]
        lhs, rhs = grp.coproduct(pi[f, g]), grp.tensor_sum(terms)
        if lhs != rhs:
            report.add("coproduct_morphism", (f, g), lhs - rhs)

    for label_f, f in grp.display_elements.items():
        for label_g, g in grp.display_elements.items():
            value = bracket(f, g)
            if not grp.vanishes_at_identity(value):
                report.add("vanishing", (label_f, label_g), value)
    return report


def render_table(structure):
    """Bracket of every unordered display pair, in published row order.

    Returns a list of ((label_f, label_g), element) with the structure's
    display scale applied.  The odd-odd diagonal is included; even diagonal
    rows are omitted (identically zero by antisymmetry).
    """
    elements = list(structure.group.display_elements.items())
    rows = []
    for i, (lf, f) in enumerate(elements):
        for lg, g in elements[i:]:
            if lf == lg and f.parity() == EVEN:
                continue
            value = structure.display_scale * structure.bracket(f, g)
            rows.append(((lf, lg), value))
    return rows


def format_table(structure, fmt="machine"):
    rows = render_table(structure)
    lines = []
    if fmt == "machine":
        for (lf, lg), value in rows:
            lines.append(f"{{{lf},{lg}}} = {value.render()}")
    else:
        width = max(len(f"{{{lf},{lg}}}") for (lf, lg), _ in rows)
        lines.append(f"# {structure.group.name}, structure {structure.structure_id}"
                     + (f" (values scaled by {structure.display_scale})"
                        if structure.display_scale != 1 else ""))
        for (lf, lg), value in rows:
            head = f"{{{lf},{lg}}}"
            text = value.render()
            lines.append(f"{head:<{width}}  {text if text != '0' else '.'}")
    return "\n".join(lines)


def table_cell(structure, label_f, label_g):
    elements = structure.group.display_elements
    return structure.display_scale * structure.bracket(elements[label_f],
                                                       elements[label_g])
