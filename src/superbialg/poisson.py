"""Poisson-Lie brackets on the supergroups super-E(2) and OSp(1|2).

Coordinate rings:

* super-E(2): even coordinates s, a, b; odd coordinates xi, eta; and the
  group-like Laurent variable E standing for exp(s/2) (so e^s = E^2).  The
  super-E(2) ring also carries the family parameter c of the bracket tables.
* OSp(1|2): even a, b, c, d; odd alpha, delta; subject to
  a*d - b*c + alpha*delta = 1 (reduced with leading monomial a*d).  The
  derived letters e = 1 + alpha*delta, gamma = c*alpha - a*delta and
  beta = d*alpha - b*delta are expansion macros, not generators.

Every bracket has one shape, a Sklyanin term of the classical r-matrix plus
a group-valued cocycle term Phi (the c*s P+^P- term of the non-coboundary
super-E(2) families, or the whole bracket of family iv):

    {f, g} = (Y_k^(r) f) r^{kj} (Y_j^(l) g) - (X_k^(r) f) r^{kj} (X_j^(l) g)
             + (X_j^(r) f) Phi^{jk} (X_k^(l) g)

Both r and Phi are rank-2 wedge sums; the nine published structures are one
table (`_STRUCTURES`) of r-matrix families and Phi texts.  `bracket` runs
one loop over (left field, coefficient, right field) triples, applies each
field to f and to g at most once per call and skips a triple with a zero
image.  Products are taken in the written order; the supercommutative ring
supplies every Koszul sign.  `check_axioms` computes the generator brackets
pi[f, g] = {x_f, x_g} once and reads them in every axiom that needs them.

The invariant fields are derived from the coproduct and a tangent vector
xi_k at the identity: Y_k = (id (x) xi_k) o Delta and X_k = (xi_k (x) id) o
Delta, with xi_k(v) evaluated at the identity.  The tangent maps are

    super-E(2): H -> d/ds, P+ -> d/da, P- -> d/db, D+ -> d/dxi, D- -> d/deta
    OSp(1|2):   H -> 1/2 (d/da - d/dd), X+ -> d/db, X- -> d/dc,
                V+ -> 1/2 d/dalpha, V- -> 1/2 d/ddelta

For an odd xi_k the left and right derivatives differ by the sign
(-1)^{|kept half|}: a left Y crosses the slot-1 half, a right X the slot-2
half.  Field application is the graded Leibniz rule of the field's side, with
the chain rule field(E) = 1/2 field(s) E on the group-like variable.
Each field keeps the image of every monomial it has been applied to
(`VectorField.images`), and `apply_field` sums coeff * image per term; the
memo lives as long as its group, i.e. the process for `group()`, and after a
full verify-paper run holds 770 images in about 0.25 MB.

OSp bracket values are conventionally displayed after multiplication by 2,
which is how the published table is normalized; `render_table` applies the
structure's display scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalars import EVEN, ODD, Ring
from .algebra import builtin
from .bialgebra import family as bialgebra_family
from .tensors import parse_wedge_sum

HALF = Fraction(1, 2)


class VectorField:
    """Invariant graded derivation given by its action on the generators.

    `side` distinguishes right-hand from left-hand derivatives of
    superfunctions: a left derivative extends by the left Leibniz rule
    D(fg) = D(f) g + (-1)^{|D||f|} f D(g), a right derivative by the right
    rule D(fg) = (-1)^{|D||g|} D(f) g + f D(g) (they agree on even fields).
    The distinction comes from stripping the odd group parameter off the
    far side of a first-order variation.
    """

    def __init__(self, group, label, parity, table, side="l"):
        self.group = group
        self.label = label
        self.parity = parity
        self.side = side
        self.table = table  # generator name -> SuperScalar
        self.images = {}  # monomial key (exps, odds) -> term dict of its image

    def on_generator(self, name):
        value = self.table.get(name)
        return value if value is not None else self.group.ring.zero()

    def __call__(self, f):
        return self.group.apply_field(self, f)

    def __repr__(self):
        return f"<field {self.label} on {self.group.name}>"


class CoordinateRing:
    """A supergroup coordinate ring with coproduct and invariant fields."""

    def __init__(self, name, ring, coordinates, identity, tangents,
                 coproduct_rules, laurent_rules, display,
                 algebra_name, params=()):
        self.name = name
        self.ring = ring
        self.coordinates = tuple(coordinates)
        self.params = tuple(params)
        self.identity = dict(identity)
        self.laurent_rules = dict(laurent_rules)
        self.display = list(display)
        self.algebra = builtin(algebra_name)
        self.tangents = dict(tangents)  # generator -> {coordinate: rational}
        self._fields = None
        self._tensor = None
        self._coproduct_rules = coproduct_rules
        self._delta = None

    # -- basic ring helpers ------------------------------------------------

    def var(self, name):
        return self.ring.var(name)

    def parse(self, text):
        return self.ring.parse(text)

    def parity_of(self, name):
        return ODD if self.ring.kind(name) == "grassmann" else EVEN

    def at_identity(self, f):
        return f.substitute(self.identity)

    def vanishes_at_identity(self, f):
        return self.at_identity(f).is_zero()

    def field(self, gen, chirality, side):
        """The invariant field Y or X of generator `gen`, side "l" or "r"."""
        if self._fields is None:
            self._fields = self._derive_fields()
        return self._fields[(gen, chirality, side)]

    def _derive_fields(self):
        # Per term u (x) v of Delta(x): Y(x) gets u xi(v)|_e and X(x) gets
        # xi(u)|_e v.  An odd derivative reaches v across u from the left
        # and u across v from the right, hence the sign of a left Y and a
        # right X on an odd kept half.
        split = self.tensor_square()[3]
        delta = self._generator_coproducts()
        ring = self.ring
        fields = {}
        for gen, parity in zip(self.algebra.basis, self.algebra.grades):
            tangent = VectorField(self, f"xi_{gen}", parity, {
                name: ring.scalar(q) for name, q in self.tangents[gen].items()})
            tables = {key: {} for key in itertools.product("YX", "lr")}
            for name in self.coordinates:
                sums = dict.fromkeys(tables, ring.zero())
                for exps, odds, coeff in delta[name].terms():
                    u, v = split(exps, odds)
                    at_v = self.at_identity(self.apply_field(tangent, v))
                    if not at_v.is_zero():
                        y = coeff * u * at_v
                        sums["Y", "r"] += y
                        sums["Y", "l"] += -y if parity and u.parity() else y
                    at_u = self.at_identity(self.apply_field(tangent, u))
                    if not at_u.is_zero():
                        x = coeff * at_u * v
                        sums["X", "l"] += x
                        sums["X", "r"] += -x if parity and v.parity() else x
                for key, value in sums.items():
                    if not value.is_zero():
                        tables[key][name] = value
            for (chirality, side), table in tables.items():
                fields[(gen, chirality, side)] = VectorField(
                    self, f"{chirality}_{gen}^({side})", parity, table, side)
        return fields

    # -- derivations ---------------------------------------------------------

    def apply_field(self, field, f):
        # A field is linear, so field(f) = sum of coeff * field(monomial),
        # with each monomial's image computed once per field and kept.
        images = field.images
        out = {}
        get = out.get
        for key, coeff in f._terms.items():
            image = images.get(key)
            if image is None:
                image = images[key] = self._monomial_image(field, key)._terms
            for k, c in image.items():
                c = c * coeff
                acc = get(k)
                out[k] = c if acc is None else acc + c
        if len(f._terms) > 1:
            out = {k: c for k, c in out.items() if c}
        return self.ring._make(out)

    def _monomial_image(self, field, key):
        # For x1^k1 .. xm^km th_1 .. th_n, the factor at an odd slot t picks
        # up (-1)^{|field| * (odd factors crossed)}: those BEFORE t for a
        # left derivative, those AFTER t for a right one.  Even factors sit
        # before every odd factor, so under the right rule they cross all n.
        ring = self.ring
        right = field.side == "r" and field.parity
        exps, odds = key
        out = ring.zero()
        n_odd = len(odds)
        even_sign = -1 if (right and n_odd % 2) else 1
        for pos, k in enumerate(exps):
            if not k:
                continue
            name = ring.even_names[pos]
            rule = self.laurent_rules.get(name)
            if rule is not None:
                src, factor = rule
                base = field.on_generator(src)
                if base.is_zero():
                    continue
                whole = ring.monomial(exps, odds, k * factor * even_sign)
                out = out + base * whole
                continue
            value = field.on_generator(name)
            if value.is_zero():
                continue
            reduced = list(exps)
            reduced[pos] = k - 1
            rest_even = ring.monomial(reduced, (), k * even_sign)
            odd_part = ring.monomial(ring._zero_exps, odds)
            out = out + rest_even * value * odd_part
        for t, oi in enumerate(odds):
            name = ring.odd_names[oi]
            value = field.on_generator(name)
            if value.is_zero():
                continue
            crossed = (n_odd - 1 - t) if right else t
            sign = -1 if (field.parity and crossed % 2) else 1
            even_part = ring.monomial(exps, (), sign)
            before = ring.monomial(ring._zero_exps, odds[:t])
            after = ring.monomial(ring._zero_exps, odds[t + 1:])
            out = out + even_part * before * value * after
        return out

    # -- coproduct -----------------------------------------------------------

    def tensor_square(self):
        """(tensor ring, embed1, embed2, split) for the coproduct checks.

        Variable layout: shared parameters first, then slot-1 evens, slot-2
        evens, slot-1 odds, slot-2 odds; slot-1 Grassmann generators precede
        slot-2 ones so that splitting a canonical term costs no sign.
        """
        if self._tensor is not None:
            return self._tensor
        ring = self.ring
        variables = [(p, ring.kind(p)) for p in self.params]
        for slot in (1, 2):
            for name in ring.even_names:
                if name in self.params:
                    continue
                variables.append((f"{name}{slot}", ring.kind(name)))
        for slot in (1, 2):
            for name in ring.odd_names:
                variables.append((f"{name}{slot}", "grassmann"))
        relations = []
        for rel_text, lead_text in ring._relation_spec:
            for slot in (1, 2):
                relations.append((_retag(rel_text, ring, self.params, slot),
                                  _retag(lead_text, ring, self.params, slot)))
        tring = Ring(variables, relations)

        def embedder(slot):
            def embed(x):
                out = tring.zero()
                for exps, odds, coeff in x.terms():
                    e2 = [0] * len(tring.even_names)
                    for pos, e in enumerate(exps):
                        if not e:
                            continue
                        name = ring.even_names[pos]
                        target = name if name in self.params else f"{name}{slot}"
                        e2[tring._even_pos[target]] = e
                    o2 = tuple(tring._odd_pos[f"{ring.odd_names[i]}{slot}"]
                               for i in odds)
                    out = out + tring.monomial(e2, o2, coeff)
                return out
            return embed

        def split(exps, odds):
            """Partition a tensor-ring monomial into base-ring halves."""
            e1 = [0] * len(ring.even_names)
            eb = [0] * len(ring.even_names)
            for pos, e in enumerate(exps):
                if not e:
                    continue
                name = tring.even_names[pos]
                if name in self.params:
                    e1[ring._even_pos[name]] = e
                elif name.endswith("1"):
                    e1[ring._even_pos[name[:-1]]] = e
                else:
                    eb[ring._even_pos[name[:-1]]] = e
            o1 = []
            ob = []
            for oi in odds:
                name = tring.odd_names[oi]
                (o1 if name.endswith("1") else ob).append(
                    ring._odd_pos[name[:-1]])
            return (ring.monomial(e1, tuple(o1)),
                    ring.monomial(eb, tuple(ob)))

        self._tensor = (tring, embedder(1), embedder(2), split)
        return self._tensor

    def _generator_coproducts(self):
        """Delta of every ring variable, parsed once into the tensor square."""
        if self._delta is None:
            tring = self.tensor_square()[0]
            self._delta = {name: tring.parse(rule)
                           for name, rule in self._coproduct_rules.items()}
        return self._delta

    def coproduct(self, f):
        """Multiplicative extension of the generator coproducts."""
        tring = self.tensor_square()[0]
        rules = self._generator_coproducts()
        ring = self.ring
        out = tring.zero()
        for exps, odds, coeff in f.terms():
            acc = tring.scalar(coeff)
            for pos, k in enumerate(exps):
                if not k:
                    continue
                name = ring.even_names[pos]
                acc = acc * (rules[name] ** k)
            for oi in odds:
                acc = acc * rules[ring.odd_names[oi]]
            out = out + acc
        return out

    def __repr__(self):
        return f"<CoordinateRing {self.name}>"


def _retag(text, ring, params, slot):
    """Suffix every non-parameter variable in a relation text with the slot."""
    import re

    def rename(match):
        name = match.group(0)
        if name in params or name not in ring._kinds:
            return name
        return f"{name}{slot}"

    return re.sub(r"[A-Za-z_][A-Za-z_0-9]*", rename, text)


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
    coproduct_rules = {
        "c": "c",
        "s": "s1+s2",
        "a": "a2+a1*E2^-2+1/2*xi1*xi2*E2^-1",
        "b": "b2+b1*E2^2+1/2*eta1*eta2*E2",
        "E": "E1*E2",
        "xi": "xi2+xi1*E2^-1",
        "eta": "eta2+eta1*E2",
    }
    display = [("a", "a"), ("b", "b"), ("es", "E^2"),
               ("xi", "xi"), ("eta", "eta")]
    return CoordinateRing(
        "super-e2", ring,
        coordinates=("s", "a", "b", "xi", "eta"),
        identity={"s": 0, "a": 0, "b": 0, "xi": 0, "eta": 0, "E": 1},
        tangents=tangents,
        coproduct_rules=coproduct_rules,
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
    # coproducts follow from 3x3 supermatrix multiplication, with the
    # derived letters expanded
    coproduct_rules = {
        "a": "a1*a2+alpha1*c2*alpha2-alpha1*a2*delta2+b1*c2",
        "alpha": "a1*alpha2+alpha1+alpha1*alpha2*delta2+b1*delta2",
        "b": "a1*b2+alpha1*d2*alpha2-alpha1*b2*delta2+b1*d2",
        "c": "c1*a2+delta1*c2*alpha2-delta1*a2*delta2+d1*c2",
        "delta": "c1*alpha2+delta1+delta1*alpha2*delta2+d1*delta2",
        "d": "c1*b2+delta1*d2*alpha2-delta1*b2*delta2+d1*d2",
    }
    display = [("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"),
               ("alpha", "alpha"), ("delta", "delta")]
    return CoordinateRing(
        "osp", ring,
        coordinates=("a", "b", "c", "d", "alpha", "delta"),
        identity={"a": 1, "b": 0, "c": 0, "d": 1, "alpha": 0, "delta": 0},
        tangents=tangents,
        coproduct_rules=coproduct_rules,
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

    `r` is an RMatrix with rational components and `phi` a rank-2
    GradedTensor over the group ring; either may be absent.  They are kept as
    `r_entries`, (k, j, r^{kj}) name triples, and `phi`, {(j, k) names:
    Phi^{jk}}.  Every Phi^{jk} must vanish at the identity.
    """

    def __init__(self, grp, structure_id="", r=None, phi=None,
                 display_scale=1):
        self.group = grp
        self.structure_id = structure_id
        self.display_scale = Fraction(display_scale)
        self.r_entries = [] if r is None else [
            (r.algebra.basis[k], r.algebra.basis[j], v.as_fraction())
            for (k, j), v in sorted(r.coeffs.items())]
        self.phi = {} if phi is None else {
            (phi.algebra.basis[j], phi.algebra.basis[k]): v
            for (j, k), v in phi.coeffs.items()}
        for (j, k), value in self.phi.items():
            if not grp.vanishes_at_identity(value):
                raise ValueError(
                    f"Phi^({j},{k}) = {value.render()} does not vanish at the"
                    " group identity")
        self._triples = None

    def _bracket_triples(self):
        # (left field, coefficient, right field) for every term of the bracket
        field = self.group.field
        triples = []
        for k, j, coeff in self.r_entries:
            triples.append((field(k, "Y", "r"), coeff, field(j, "Y", "l")))
            triples.append((field(k, "X", "r"), -coeff, field(j, "X", "l")))
        for (j, k), value in self.phi.items():
            triples.append((field(j, "X", "r"), value, field(k, "X", "l")))
        return triples

    def bracket(self, f, g):
        """Sum of L(f) c R(g) over the triples; each image of f and of g is
        computed once, and a triple with a zero image is skipped."""
        if self._triples is None:
            self._triples = self._bracket_triples()
        left = {}
        right = {}
        out = {}
        get = out.get
        for lfield, coeff, rfield in self._triples:
            lf = left.get(lfield)
            if lf is None:
                lf = left[lfield] = lfield(f)
            if lf.is_zero():
                continue
            rg = right.get(rfield)
            if rg is None:
                rg = right[rfield] = rfield(g)
            if rg.is_zero():
                continue
            for k, c in (lf * coeff * rg)._terms.items():
                acc = get(k)
                out[k] = c if acc is None else acc + c
        return self.group.ring._make({k: c for k, c in out.items() if c})

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


def named_structure(group_name, structure_id):
    """The nine published structures: osp 1|2|3 and super-e2 i..vi."""
    grp = group(group_name)
    sid = str(structure_id).lower()
    entry = _STRUCTURES[grp.name].get(sid)
    if entry is None:
        if grp.name == "osp":
            raise KeyError(f"unknown OSp structure {structure_id!r} (1|2|3)")
        raise KeyError(f"unknown super-e2 structure {structure_id!r} (i..vi)")
    family_id, params, phi_text = entry
    r = bialgebra_family(family_id, **params) if family_id else None
    phi = parse_wedge_sum(phi_text, grp.algebra, grp.ring) if phi_text else None
    return PoissonStructure(grp, sid, r, phi,
                            display_scale=2 if grp.name == "osp" else 1)


def structure_ids(group_name):
    return list(_STRUCTURES[group(group_name).name])


def _tensor_bracket(structure, F, G):
    """Componentwise bracket on the tensor square:
    {f(x)g, h(x)k} = (-1)^{|g||h|} ({f,h}(x)gk + fh(x){g,k})."""
    grp = structure.group
    tring, embed1, embed2, split = grp.tensor_square()
    out = tring.zero()
    for e_f, o_f, c_f in F.terms():
        u, v = split(e_f, o_f)
        u = c_f * u
        vpar = v.parity() if not v.is_zero() else EVEN
        for e_g, o_g, c_g in G.terms():
            w, x = split(e_g, o_g)
            w = c_g * w
            wpar = w.parity() if not w.is_zero() else EVEN
            sign = -1 if (vpar and wpar) else 1
            uw = structure.bracket(u, w)
            if not uw.is_zero():
                vx = v * x
                if not vx.is_zero():
                    out = out + sign * (embed1(uw) * embed2(vx))
            uw_prod = u * w
            if not uw_prod.is_zero():
                vx_br = structure.bracket(v, x)
                if not vx_br.is_zero():
                    out = out + sign * (embed1(uw_prod) * embed2(vx_br))
    return out


class AxiomReport:
    AXIOMS = ("antisymmetry", "leibniz", "jacobi", "coproduct_morphism")

    def __init__(self):
        self.antisymmetry = []
        self.leibniz = []
        self.jacobi = []
        self.coproduct_morphism = []
        self.vanishing = []

    @property
    def passed(self):
        return not (self.antisymmetry or self.leibniz or self.jacobi
                    or self.coproduct_morphism or self.vanishing)

    def render(self):
        if self.passed:
            return "all Poisson-Lie axioms hold"
        lines = []
        for axiom in self.AXIOMS + ("vanishing",):
            for where, res in getattr(self, axiom):
                lines.append(f"{axiom} fails at {where}: {res}")
        return "\n".join(lines)


def check_axioms(structure, leibniz_triples=None):
    """Graded antisymmetry, Leibniz, graded Jacobi, and the coproduct
    morphism property, all on the group generators (exact, symbolic).

    The generator brackets pi[f, g] = {x_f, x_g} are computed once and read
    by every axiom that needs them."""
    grp = structure.group
    gens = list(grp.coordinates)
    par = {g: grp.parity_of(g) for g in gens}
    val = {g: grp.var(g) for g in gens}
    report = AxiomReport()
    pi = {(f, g): structure.bracket(val[f], val[g]) for f in gens for g in gens}

    def z(p, q):
        return -1 if (p and q) else 1

    for f, g in itertools.combinations_with_replacement(gens, 2):
        res = pi[f, g] + z(par[f], par[g]) * pi[g, f]
        if not res.is_zero():
            report.antisymmetry.append((f"{{{f},{g}}}", res.render()))

    triples = leibniz_triples
    if triples is None:
        triples = list(itertools.product(gens, repeat=3))
    for f, g, h in triples:
        lhs = structure.bracket(val[f], val[g] * val[h])
        rhs = pi[f, g] * val[h] + z(par[f], par[g]) * (val[g] * pi[f, h])
        if lhs != rhs:
            report.leibniz.append((f"{{{f},{g}*{h}}}", (lhs - rhs).render()))

    for f, g, h in itertools.combinations_with_replacement(gens, 3):
        total = z(par[f], par[h]) * structure.bracket(val[f], pi[g, h]) \
            + z(par[g], par[f]) * structure.bracket(val[g], pi[h, f]) \
            + z(par[h], par[g]) * structure.bracket(val[h], pi[f, g])
        if not total.is_zero():
            report.jacobi.append((f"({f},{g},{h})", total.render()))

    for f, g in itertools.combinations_with_replacement(gens, 2):
        lhs = grp.coproduct(pi[f, g])
        rhs = _tensor_bracket(structure, grp.coproduct(val[f]),
                              grp.coproduct(val[g]))
        if lhs != rhs:
            report.coproduct_morphism.append(
                (f"Delta{{{f},{g}}}", (lhs - rhs).render()))

    for label_f, text_f in grp.display:
        for label_g, text_g in grp.display:
            value = structure.bracket(grp.parse(text_f), grp.parse(text_g))
            if not grp.vanishes_at_identity(value):
                report.vanishing.append(
                    (f"{{{label_f},{label_g}}} at identity", value.render()))
    return report


def render_table(structure):
    """Bracket of every unordered display pair, in published row order.

    Returns a list of ((label_f, label_g), element) with the structure's
    display scale applied.  The odd-odd diagonal is included; even diagonal
    rows are omitted (identically zero by antisymmetry).
    """
    grp = structure.group
    elements = [(label, grp.parse(text)) for label, text in grp.display]
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
    grp = structure.group
    texts = dict(grp.display)
    value = structure.bracket(grp.parse(texts[label_f]), grp.parse(texts[label_g]))
    return structure.display_scale * value
