"""Tests for automorphisms, transforms, and the frozen orbit witnesses."""

import random
from fractions import Fraction

import pytest

from superbialg.scalars import Ring
from superbialg.algebra import builtin
from superbialg.bialgebra import (Cobracket, case_a, case_b,
                                  coboundary_delta, cybe_status, family,
                                  osp_r_a, osp_r_b)
from superbialg.equivalence import (e2_automorphism,
                                    osp_automorphism, transform,
                                    verify_orbit_claims)


@pytest.fixture(scope="module")
def osp():
    return builtin("osp12")


class TestOspAutomorphism:
    def test_identity(self, osp):
        phi = osp_automorphism(1, 0, 0, 1)
        assert phi.is_structure_preserving()
        assert transform(phi, family("osp-r2")) == family("osp-r2")

    def test_symbolic_structure_preservation(self):
        ring = Ring([(v, "commuting") for v in "abcd"],
                    relations=[("a*d-b*c-1", "a*d")])
        phi = osp_automorphism(*(ring.var(v) for v in "abcd"), ring=ring)
        assert phi.is_structure_preserving()

    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            osp_automorphism(1, 0, 0, 2)

    def test_wrong_symbolic_determinant_fails(self):
        # with ad - bc = k != 1 the boson block stops preserving the bracket
        ring = Ring([(v, "commuting") for v in "abcd"],
                    relations=[("a*d-b*c-2", "a*d")])
        with pytest.raises(ValueError):
            osp_automorphism(*(ring.var(v) for v in "abcd"), ring=ring)


class TestE2Automorphisms:
    def test_all_generators_preserve_structure(self):
        assert e2_automorphism("flip").is_structure_preserving()
        assert e2_automorphism("shift", 2, Fraction(1, 3)).is_structure_preserving()
        assert e2_automorphism("scale", 3, -2).is_structure_preserving()

    def test_scale_rejects_zero(self):
        with pytest.raises(ValueError):
            e2_automorphism("scale", 0, 1)

    def test_flip_involution(self):
        flip = e2_automorphism("flip")
        composed = flip.compose(flip)
        d = case_a(1, 0, 5)
        assert transform(composed, d) == d


class TestTransform:
    def test_functoriality_on_r_matrices(self, osp):
        rng = random.Random(5)
        for _ in range(10):
            while True:
                a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
                if a != 0:
                    break
            # solve ad - bc = 1 for d
            d = (1 + b * c) / a
            phi = osp_automorphism(a, b, c, d)
            psi = osp_automorphism(1, rng.randint(-2, 2), 0, 1)
            r = osp_r_a(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
            assert transform(phi.compose(psi), r) == transform(phi, transform(psi, r))

    def test_functoriality_on_cobrackets(self):
        phi = e2_automorphism("scale", Fraction(1, 2), 3)
        psi = e2_automorphism("shift", 1, -2)
        d = case_b(4, 9, 0, 0)
        assert transform(phi.compose(psi), d) == transform(phi, transform(psi, d))

    def test_coboundary_commutes_with_transform(self, osp):
        from superbialg.bialgebra import coboundary_delta
        phi = osp_automorphism(1, 1, 0, 1)
        r = osp_r_a(1, 2, 1)
        lhs = transform(phi, coboundary_delta(osp, r))
        rhs = coboundary_delta(osp, transform(phi, r))
        assert lhs == rhs

    def test_case_a_scale_parameter_law(self):
        # a -> a alpha^2, b -> b beta^2, c -> c alpha^2 beta^2, m -> m alpha beta
        phi = e2_automorphism("scale", 2, 3)
        moved = transform(phi, case_a(1, 1, 1, branch=1))
        assert moved == case_a(4, 9, 36, branch=1)

    def test_case_b_flip_parameter_law(self):
        flip = e2_automorphism("flip")
        assert transform(flip, case_b(2, 3, 5, 7)) == case_b(3, 2, 5, -7)

    def test_cybe_status_preserved(self, osp):
        phi = osp_automorphism(2, 3, 1, 2)
        for r in (osp_r_a(1, 1, 1), osp_r_b(2, 3), family("osp-r3", t=1)):
            assert cybe_status(osp, r) == cybe_status(osp, transform(phi, r))


class TestOrbitClaims:
    def test_all_claims_pass(self):
        results = verify_orbit_claims()
        failures = [(cid, detail) for cid, _, ok, detail in results if not ok]
        assert not failures, failures

    def test_claim_count(self):
        assert len(verify_orbit_claims()) == 13


def dense_transform_table(phi, x):
    """The cobracket transform as it ran over the dense n x n x n table
    before cobrackets were stored as sparse rows (frozen reference; the
    table `src.f` is read once instead of per entry)."""
    algebra = phi.algebra
    ring = phi.ring
    n = algebra.dim
    src = x.convert(ring) if x.ring != ring else x
    f = src.f
    table = [[[ring.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for p in range(n):
            if phi.inverse[i][p].is_zero():
                continue
            for k in range(n):
                for l in range(n):
                    v = f[p][k][l]
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
    return table


def _witnesses():
    """(automorphism, cobracket) pairs of the orbit claims, plus the osp
    witnesses applied to the coboundaries of the r-matrices they move."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    osp = builtin("osp12")
    sym = case_a()
    pairs = [
        (e2_automorphism("scale", half, third), case_a(4, 9, 5)),
        (e2_automorphism("scale", half, 1), case_a(4, 0, 5)),
        (e2_automorphism("flip"), case_a(0, 9, 5)),
        (e2_automorphism("scale", third, 1), case_a(9, 0, 5)),
        (e2_automorphism("scale", 1, -1), case_a(4, 9, 5)),
        (e2_automorphism("scale", 1, -1, ring=sym.ring), sym),
        (e2_automorphism("shift", 1, Fraction(3, 2)), case_b(2, 3, 0, 1)),
        (e2_automorphism("scale", half, 1), case_b(4, 0, 7, 0)),
        (e2_automorphism("scale", half, third), case_b(4, 9, 7, 0)),
        (e2_automorphism("flip"), case_b(0, 4, 7, 0)),
    ]
    for phi, r in [(osp_automorphism(1, 1, 0, 1), osp_r_a(1, 1, 1)),
                   (osp_automorphism(1, 0, 1, 1), osp_r_a(1, 2, 1)),
                   (osp_automorphism(half, -half, 1, 1), osp_r_a(0, 4, 1)),
                   (osp_automorphism(2, 3, 1, 2), osp_r_b(2, 3)),
                   (osp_automorphism(0, -1, 1, 1), osp_r_a(1, 2, 1))]:
        pairs.append((phi, coboundary_delta(osp, r)))
    return pairs


def test_sparse_transform_matches_dense_reference():
    for phi, d in _witnesses():
        assert isinstance(d, Cobracket) and not d.is_zero()
        assert transform(phi, d).f == dense_transform_table(phi, d), phi.name
