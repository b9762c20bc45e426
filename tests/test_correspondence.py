"""The H^1 split of super-e(2): each published case is a coboundary plus
explicit non-coboundary directions.

The cocycle space of super-e(2) has dimension 7 and its coboundary space
dimension 5, so H^1 has dimension 2.  With omega_0 = `delta H = 1 P+^P-`
and omega_3 the fourth basis vector of `solve_cocycle_space(super_e2)`,
symbolically in all parameters:

* case A = d(r_A at f = 0) + c omega_0, on both sign branches;
* case B = d(r_B at f = 0) + c omega_0 + d omega_3;
* {omega_0, omega_3} completes the coboundaries to the cocycle space.

So the two non-coboundary directions of super-e(2) are exactly c and d.
Cases A and B stay hand-written rows of the family table; these identities
derive them a second way, and so pin the case-A delta(D-) sign that the
printed row gets wrong (ERRATA.md).
"""

import pytest

from superbialg.algebra import builtin
from superbialg.bialgebra import (Cobracket, coboundary_delta, family,
                                  parse_cobracket_text)
from superbialg.cocycles import (admissible_unknowns, cobracket_vector,
                                 coboundary_space, rank, solve_cocycle_space)
from superbialg.tensors import parse_wedge_sum

E2 = builtin("super_e2")


def _omegas():
    _, fam = solve_cocycle_space(E2)
    return parse_cobracket_text("delta H = 1 P+^P-", E2), fam.cobrackets()[3]


def _times(scale, omega):
    """scale * omega, omega rational, over the ring of `scale`."""
    return omega.convert(scale.ring).scale(scale)


def _case_a_residual(case, branch):
    """case - d(r_A at f = 0) - c omega_0 over the ring of `case`."""
    ring = case.ring
    omega_0, _ = _omegas()
    exact = coboundary_delta(E2, family("e2-r-a", f=0, branch=branch))
    return case - exact.convert(ring) - _times(ring.var("c"), omega_0)


@pytest.mark.parametrize("branch", [1, -1])
def test_case_a_is_a_coboundary_plus_c_omega_0(branch):
    residual = _case_a_residual(family("e2-case-a", branch=branch), branch)
    assert residual.is_zero(), residual.render()


def test_case_b_is_a_coboundary_plus_c_omega_0_plus_d_omega_3():
    case = family("e2-case-b")
    ring = case.ring
    omega_0, omega_3 = _omegas()
    exact = coboundary_delta(E2, family("e2-r-b", f=0))
    residual = (case - exact.convert(ring) - _times(ring.var("c"), omega_0)
                - _times(ring.var("d"), omega_3))
    assert residual.is_zero(), residual.render()


def test_omegas_span_h1():
    """{omega_0, omega_3} raises the rank of the coboundaries from 5 to the
    nullity 7, and both are cocycles."""
    _, fam = solve_cocycle_space(E2)
    _, coboundaries = coboundary_space(E2)
    unknowns = admissible_unknowns(E2)
    assert fam.unknowns == unknowns
    omegas = [[v.as_fraction() for v in cobracket_vector(w, unknowns)]
              for w in _omegas()]
    assert fam.nullity == 7
    assert rank(coboundaries) == 5
    assert rank(coboundaries + omegas) == 7
    assert rank(fam.vectors + omegas) == 7


def test_printed_case_a_sign_breaks_the_split():
    """The printed delta(D-) row, +1/2 (a P+ - b P-)^D- + m P-^D+, is not
    a coboundary plus c omega_0."""
    case = family("e2-case-a")
    rows = dict(zip(E2.basis, case.rows))
    rows["D-"] = parse_wedge_sum(
        "1/2*a P+^D- - 1/2*b P-^D- + m P-^D+", E2, case.ring)
    printed = Cobracket.from_rows(E2, rows, case.ring)
    assert printed != case
    assert not _case_a_residual(printed, 1).is_zero()
