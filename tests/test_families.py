"""The named families against their frozen hand-written builders.

`bialgebra` keeps the families as one table of wedge-sum and cobracket-row
texts, parsed once at symbolic parameters and specialised through the one
ring map.  The 13 builders below are the code that table replaced, kept as
the reference: every one of the 19 ids must give the same object (type,
ring and coefficients) and the same rendered text, or the same error.

The reference carries one fix over the replaced code: in
`_frozen_resolve_with_root`, a numeric zero a or b sends m = sqrt(ab) to 0.
The replaced code kept m as a ring variable with the relation m^2 = 0*b, a
nonzero nilpotent that `cobracket-check --family e2-case-a --params a=0`
printed as `m P+^D-`.
"""

import inspect
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superbialg.algebra import builtin
from superbialg.bialgebra import (_FAMILIES, _NORMAL_FORMS, Cobracket, family,
                                  family_ids)
from superbialg.scalars import Ring, rational_sqrt
from superbialg.tensors import RMatrix, render_wedge_form, wedge


# -- the frozen builders -------------------------------------------------------

def _frozen_resolve_params(params, extra=(), relations=()):
    symbolic = [name for name, value in params.items() if value is None]
    symbolic += extra
    ring = Ring([(name, "commuting") for name in symbolic], relations)
    values = {name: ring.var(name) for name in symbolic}
    for name, value in params.items():
        if value is not None:
            values[name] = ring.scalar(value)
    return ring, values


def _frozen_resolve_with_root(params, branch):
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    a, b = params["a"], params["b"]
    if a == 0 or b == 0:
        # the one fix: sqrt(0*b) = 0, not a nilpotent ring variable
        ring, val = _frozen_resolve_params(params)
        val["m"] = ring.zero()
        return ring, val
    if a is None or b is None:
        a_text = "a" if a is None else str(Fraction(a))
        b_text = "b" if b is None else str(Fraction(b))
        ring, val = _frozen_resolve_params(
            params, ["m"], [(f"m^2-{a_text}*{b_text}", "m^2")])
        val["m"] = branch * val["m"]
        return ring, val
    root = rational_sqrt(Fraction(a) * Fraction(b))
    if root is None:
        raise ValueError("a*b must be a rational square for a numeric family")
    ring, val = _frozen_resolve_params(params)
    val["m"] = ring.scalar(branch * root)
    return ring, val


def _frozen_case_a(a=None, b=None, c=None, branch=1):
    ring, val = _frozen_resolve_with_root({"a": a, "b": b, "c": c}, branch)
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


def _frozen_case_b(a=None, b=None, c=None, d=None):
    ring, val = _frozen_resolve_params({"a": a, "b": b, "c": c, "d": d})
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


def _frozen_osp_r_a(x=None, y=None, z=None):
    ring, val = _frozen_resolve_params({"x": x, "y": y, "z": z})
    x, y, z = val["x"], val["y"], val["z"]
    return RMatrix.from_wedges(builtin("osp12"), [
        (x, "X+", "X-"), (2 * x, "V+", "V-"),
        (y, "H", "X+"), (-y, "V+", "V+"),
        (z, "H", "X-"), (-z, "V-", "V-"),
    ], ring)


def _frozen_osp_r_b(p=None, q=None):
    ring, val = _frozen_resolve_params({"p": p, "q": q})
    return RMatrix.from_wedges(builtin("osp12"), [
        (val["p"] * val["q"], "X+", "X-"),
        (val["p"] ** 2, "H", "X+"),
        (val["q"] ** 2, "H", "X-"),
    ], ring)


def _frozen_osp_r1():
    return RMatrix.from_wedges(builtin("osp12"), [(1, "H", "X+")])


def _frozen_osp_r2():
    return RMatrix.from_wedges(
        builtin("osp12"), [(1, "H", "X+"), (-1, "V+", "V+")])


def _frozen_osp_r3(t=None):
    ring, val = _frozen_resolve_params({"t": t})
    t = val["t"]
    return RMatrix.from_wedges(builtin("osp12"), [
        (t, "H", "X+"), (-t, "V+", "V+"),
        (t, "H", "X-"), (-t, "V-", "V-"),
    ], ring)


def _frozen_e2_r_a(a=None, b=None, f=None, branch=1):
    ring, val = _frozen_resolve_with_root({"a": a, "b": b, "f": f}, branch)
    return RMatrix.from_wedges(builtin("super_e2"), [
        (val["a"], "H", "P+"), (-val["b"], "H", "P-"),
        (val["m"], "D+", "D-"), (val["f"], "P+", "P-"),
    ], ring)


def _frozen_e2_r_b(a=None, b=None, f=None):
    ring, val = _frozen_resolve_params({"a": a, "b": b, "f": f})
    half = Fraction(1, 2)
    return RMatrix.from_wedges(builtin("super_e2"), [
        (val["a"], "H", "P+"), (-half * val["a"], "D+", "D+"),
        (-val["b"], "H", "P-"), (-half * val["b"], "D-", "D-"),
        (val["f"], "P+", "P-"),
    ], ring)


def _frozen_e2_r_ii():
    return RMatrix.from_wedges(builtin("super_e2"), [(1, "H", "P+")])


def _frozen_e2_r_iii():
    return RMatrix.from_wedges(
        builtin("super_e2"), [(1, "H", "P+"), (-1, "H", "P-"), (1, "D+", "D-")])


def _frozen_e2_r_v():
    return RMatrix.from_wedges(
        builtin("super_e2"), [(1, "H", "P+"), (Fraction(-1, 2), "D+", "D+")])


def _frozen_e2_r_vi():
    return RMatrix.from_wedges(builtin("super_e2"), [
        (1, "H", "P+"), (Fraction(-1, 2), "D+", "D+"),
        (-1, "H", "P-"), (Fraction(-1, 2), "D-", "D-")])


FROZEN = {
    "osp-r-a": _frozen_osp_r_a,
    "osp-r-b": _frozen_osp_r_b,
    "osp-r1": _frozen_osp_r1,
    "osp-r2": _frozen_osp_r2,
    "osp-r3": _frozen_osp_r3,
    "e2-case-a": _frozen_case_a,
    "e2-case-b": _frozen_case_b,
    "e2-case-i": lambda c=None: _frozen_case_a(0, 0, c),
    "e2-case-ii": lambda c=None: _frozen_case_a(1, 0, c),
    "e2-case-iii": lambda c=None, branch=1: _frozen_case_a(1, 1, c, branch=branch),
    "e2-case-iv": lambda d=None: _frozen_case_b(0, 0, 0, d),
    "e2-case-v": lambda c=None: _frozen_case_b(1, 0, c, 0),
    "e2-case-vi": lambda c=None: _frozen_case_b(1, 1, c, 0),
    "e2-r-a": _frozen_e2_r_a,
    "e2-r-b": _frozen_e2_r_b,
    "e2-r-ii": _frozen_e2_r_ii,
    "e2-r-iii": _frozen_e2_r_iii,
    "e2-r-v": _frozen_e2_r_v,
    "e2-r-vi": _frozen_e2_r_vi,
}

# the parameters of each frozen builder, in signature order
PARAMETERS = {fid: list(inspect.signature(build).parameters)
              for fid, build in FROZEN.items()}


def _render(obj):
    return render_wedge_form(obj) if isinstance(obj, RMatrix) else obj.render()


def _outcome(build, *args, **params):
    """(type, ring, rendered text, object) of a call, or (error type,
    message) when it raises."""
    try:
        obj = build(*args, **params)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return type(obj), obj.ring, _render(obj), obj


def assert_matches_frozen(fid, *args, **params):
    got = _outcome(family, fid, *args, **params)
    want = _outcome(FROZEN[fid], *args, **params)
    assert got == want, (fid, args, params)


# -- the table against the reference ----------------------------------------------

def test_ids_and_parameters_match_the_builders():
    assert family_ids() == sorted(FROZEN)
    for fid, names in PARAMETERS.items():
        with pytest.raises(ValueError) as info:
            family(fid, zz=1)
        assert str(info.value) == (
            f"family {fid!r} has no parameter zz;"
            f" it accepts: {', '.join(names) or 'none'}")


@pytest.mark.parametrize("fid", sorted(FROZEN))
def test_symbolic_family_matches_frozen(fid):
    assert_matches_frozen(fid)


def _value_strategy(name):
    if name == "branch":
        return st.sampled_from([1, -1])
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _numeric_draw(fid):
    """Numeric values for every parameter.  For a root family, b is drawn
    half the time as a times a rational square, so that ab has a rational
    root, and otherwise freely, which mostly leaves the root irrational."""
    names = PARAMETERS[fid]
    base = st.fixed_dictionaries({n: _value_strategy(n) for n in names})
    if "a" not in names:
        return base
    square = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.tuples(base, st.booleans(), square).map(
        lambda drawn: {**drawn[0], "b": drawn[0]["a"] * drawn[2] ** 2}
        if drawn[1] else drawn[0])


@pytest.mark.parametrize("fid", sorted(fid for fid in FROZEN if PARAMETERS[fid]))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_numeric_draws_match_frozen(fid, data):
    values = data.draw(_numeric_draw(fid))
    assert_matches_frozen(fid, **values)
    names = PARAMETERS[fid]
    assert_matches_frozen(fid, *(values[n] for n in names))


@pytest.mark.parametrize("fid", sorted(fid for fid in FROZEN if PARAMETERS[fid]))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_partly_symbolic_draws_match_frozen(fid, data):
    """Some parameters left None: the ring's variables and the relation
    text of the root are then part of what must agree."""
    names = PARAMETERS[fid]
    values = data.draw(st.fixed_dictionaries({
        n: _value_strategy(n) if n == "branch"
        else st.none() | _value_strategy(n) for n in names}))
    assert_matches_frozen(fid, **values)


@pytest.mark.parametrize("fid", ["e2-case-a", "e2-r-a"])
@pytest.mark.parametrize("a, b", [
    (4, 9), (-1, -4), (Fraction(1, 2), 2), (2, 1), (-1, 4), (3, None),
    (None, Fraction(-2, 3)), (0, 5), (5, 0), (0, None), (None, 0), (0, 0),
])
@pytest.mark.parametrize("branch", [1, -1])
def test_root_points_match_frozen(fid, a, b, branch):
    """Both branches at a rational root, an irrational and a negative
    product, a root left symbolic, and a zero factor."""
    assert_matches_frozen(fid, a=a, b=b, branch=branch)


@pytest.mark.parametrize("fid", ["e2-case-a", "e2-case-iii", "e2-r-a"])
@pytest.mark.parametrize("branch", [0, 2, Fraction(1, 2), None])
def test_bad_branch_matches_frozen(fid, branch):
    got = _outcome(family, fid, branch=branch)
    assert got == _outcome(FROZEN[fid], branch=branch)
    assert got == (ValueError, "branch must be +1 or -1")


def test_irrational_root_message():
    assert _outcome(family, "e2-case-a", 1, 2) == (
        ValueError, "a*b must be a rational square for a numeric family")


def test_unknown_family_message():
    with pytest.raises(KeyError) as info:
        family("nope")
    assert info.value.args == ("unknown family 'nope'",)


def test_positional_values():
    assert family("e2-case-b", 2, 3, 5, 7) == family(
        "e2-case-b", a=2, b=3, c=5, d=7)
    assert family("e2-case-a", 1, 1, None, -1) == family(
        "e2-case-iii", branch=-1)
    with pytest.raises(TypeError):
        family("osp-r1", 1)
    with pytest.raises(TypeError):
        family("osp-r3", 1, t=2)


def test_calls_do_not_share_objects():
    assert family("e2-case-a") is not family("e2-case-a")
    assert family("osp-r1") is not family("osp-r1")


# -- a numeric zero factor of ab leaves no root ------------------------------------

@pytest.mark.parametrize("fid", ["e2-case-a", "e2-r-a"])
@pytest.mark.parametrize("zero, other", [("a", "b"), ("b", "a")])
@pytest.mark.parametrize("number", [5, Fraction(-2, 3)])
def test_zero_factor_then_number_is_the_numeric_family(fid, zero, other,
                                                       number):
    """family(id, a=0) with b then set to a number through the ring map is
    family(id, a=0, b=number): m = sqrt(0*b) is 0, so the only variable
    the second binding removes is b."""
    partial = family(fid, **{zero: 0})
    numeric = family(fid, **{zero: 0, other: number})
    target = numeric.ring
    assert set(partial.ring.names) - {other} == set(target.names)
    images = {n: target.scalar(number) if n == other else target.var(n)
              for n in partial.ring.names}
    if isinstance(partial, Cobracket):
        mapped = partial.map(target, images)
    else:
        mapped = RMatrix(partial.algebra,
                         partial.map(target, images).coeffs, target)
    assert mapped == numeric
    assert _render(mapped) == _render(numeric)


# -- the README lists the table ---------------------------------------------------

_README = Path(__file__).resolve().parent.parent / "README.md"
_ROW = re.compile(r"^\| `(?P<id>[a-z0-9-]+)` \| `(?P<algebra>\w+)` \| "
                  r"(?P<kind>r-matrix|cobracket) \| (?P<params>[^|]*?) \|")


def _readme_families():
    rows = {}
    for line in _README.read_text(encoding="utf-8").splitlines():
        m = _ROW.match(line)
        if m:
            params = m.group("params")
            rows[m.group("id")] = (
                m.group("algebra"), m.group("kind"),
                [] if params == "none" else [p.strip(" `") for p in params.split(",")])
    return rows


def _table_parameters(fid):
    row = _NORMAL_FORMS[fid] if fid in _NORMAL_FORMS else _FAMILIES[fid]
    return row[1].split()


def test_table_parameters_are_the_frozen_ones():
    for fid in family_ids():
        assert _table_parameters(fid) == PARAMETERS[fid], fid


def test_readme_lists_every_family():
    """The README's family list names every id with the table's algebra,
    kind and parameters, in the order `family` takes them positionally."""
    listed = _readme_families()
    assert sorted(listed) == family_ids()
    for fid in family_ids():
        obj = family(fid)
        kind = "r-matrix" if isinstance(obj, RMatrix) else "cobracket"
        assert listed[fid] == (obj.algebra.name, kind,
                               _table_parameters(fid)), fid
