"""Tests for automorphisms, transforms, and the frozen orbit witnesses."""

import hashlib
import random
from fractions import Fraction

import pytest

from superbialg import equivalence
from superbialg.scalars import Ring
from superbialg.algebra import builtin
from superbialg.bialgebra import (Cobracket, coboundary_delta, cybe_status,
                                  family)
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
        d = family("e2-case-a", 1, 0, 5)
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
            r = family("osp-r-a", rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
            assert transform(phi.compose(psi), r) == transform(phi, transform(psi, r))

    def test_functoriality_on_cobrackets(self):
        phi = e2_automorphism("scale", Fraction(1, 2), 3)
        psi = e2_automorphism("shift", 1, -2)
        d = family("e2-case-b", 4, 9, 0, 0)
        assert transform(phi.compose(psi), d) == transform(phi, transform(psi, d))

    def test_coboundary_commutes_with_transform(self, osp):
        from superbialg.bialgebra import coboundary_delta
        phi = osp_automorphism(1, 1, 0, 1)
        r = family("osp-r-a", 1, 2, 1)
        lhs = transform(phi, coboundary_delta(osp, r))
        rhs = coboundary_delta(osp, transform(phi, r))
        assert lhs == rhs

    def test_case_a_scale_parameter_law(self):
        # a -> a alpha^2, b -> b beta^2, c -> c alpha^2 beta^2, m -> m alpha beta
        phi = e2_automorphism("scale", 2, 3)
        moved = transform(phi, family("e2-case-a", 1, 1, 1, branch=1))
        assert moved == family("e2-case-a", 4, 9, 36, branch=1)

    def test_case_b_flip_parameter_law(self):
        flip = e2_automorphism("flip")
        assert (transform(flip, family("e2-case-b", 2, 3, 5, 7))
                == family("e2-case-b", 3, 2, 5, -7))

    def test_cybe_status_preserved(self, osp):
        phi = osp_automorphism(2, 3, 1, 2)
        for r in (family("osp-r-a", 1, 1, 1), family("osp-r-b", 2, 3),
                  family("osp-r3", t=1)):
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
    sym = family("e2-case-a")
    pairs = [
        (e2_automorphism("scale", half, third), family("e2-case-a", 4, 9, 5)),
        (e2_automorphism("scale", half, 1), family("e2-case-a", 4, 0, 5)),
        (e2_automorphism("flip"), family("e2-case-a", 0, 9, 5)),
        (e2_automorphism("scale", third, 1), family("e2-case-a", 9, 0, 5)),
        (e2_automorphism("scale", 1, -1), family("e2-case-a", 4, 9, 5)),
        (e2_automorphism("scale", 1, -1, ring=sym.ring), sym),
        (e2_automorphism("shift", 1, Fraction(3, 2)), family("e2-case-b", 2, 3, 0, 1)),
        (e2_automorphism("scale", half, 1), family("e2-case-b", 4, 0, 7, 0)),
        (e2_automorphism("scale", half, third), family("e2-case-b", 4, 9, 7, 0)),
        (e2_automorphism("flip"), family("e2-case-b", 0, 4, 7, 0)),
    ]
    for phi, r in [(osp_automorphism(1, 1, 0, 1), family("osp-r-a", 1, 1, 1)),
                   (osp_automorphism(1, 0, 1, 1), family("osp-r-a", 1, 2, 1)),
                   (osp_automorphism(half, -half, 1, 1), family("osp-r-a", 0, 4, 1)),
                   (osp_automorphism(2, 3, 1, 2), family("osp-r-b", 2, 3)),
                   (osp_automorphism(0, -1, 1, 1), family("osp-r-a", 1, 2, 1))]:
        pairs.append((phi, coboundary_delta(osp, r)))
    return pairs


def test_sparse_transform_matches_dense_reference():
    for phi, d in _witnesses():
        assert isinstance(d, Cobracket) and not d.is_zero()
        assert transform(phi, d).f == dense_transform_table(phi, d), phi.name


# -- the e2 inverses against the hand-written matrices they replaced ----------

def _frozen_e2_inverse(gen, alpha, beta, ring):
    """The inverse matrices e2_automorphism wrote out by hand before each
    inverse became the same generator at the inverse parameters (kept
    verbatim as the reference)."""
    one = ring.one()
    zero = ring.zero()

    def diagonal():
        return [[one if i == j else zero for j in range(5)] for i in range(5)]

    if gen == "shift":
        inv = diagonal()
        inv[0][1] = -alpha
        inv[0][2] = -beta
        return inv
    if gen == "flip":
        m = [[zero] * 5 for _ in range(5)]
        m[0][0] = -one
        m[1][2] = one
        m[2][1] = one
        m[3][4] = one
        m[4][3] = one
        return m
    ainv = alpha ** -1
    binv = beta ** -1
    inv = diagonal()
    inv[1][1] = ainv * ainv
    inv[2][2] = binv * binv
    inv[3][3] = ainv
    inv[4][4] = binv
    return inv


class TestDerivedE2Inverses:
    @pytest.mark.parametrize("gen", ["shift", "flip", "scale"])
    def test_rational_parameters(self, gen):
        ring = builtin("super_e2").ring
        rng = random.Random(11)
        for _ in range(8):
            alpha, beta = (ring.scalar(Fraction(rng.choice([-1, 1])
                                                * rng.randint(1, 9),
                                                rng.randint(1, 9)))
                           for _ in range(2))
            phi = e2_automorphism(gen, alpha, beta)
            assert phi.inverse == _frozen_e2_inverse(gen, alpha, beta, ring)

    @pytest.mark.parametrize("gen, kind", [("shift", "commuting"),
                                           ("flip", "commuting"),
                                           ("scale", "laurent")])
    def test_symbolic_parameters(self, gen, kind):
        ring = Ring([("al", kind), ("be", kind)])
        alpha, beta = 3 * ring.var("al"), -ring.var("be")
        phi = e2_automorphism(gen, alpha, beta, ring=ring)
        assert phi.inverse == _frozen_e2_inverse(gen, alpha, beta, ring)
        assert phi.is_structure_preserving()

    def test_parameter_errors_unchanged(self):
        for alpha, beta in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="must be nonzero"):
                e2_automorphism("scale", alpha, beta)
        ring = Ring([("al", "commuting")])
        with pytest.raises(ValueError, match="must be invertible"):
            e2_automorphism("scale", ring.var("al"), 1, ring=ring)
        with pytest.raises(KeyError, match="unknown generator"):
            e2_automorphism("twist")


# -- the witness table ----------------------------------------------------------

WITNESS_CLAIMS = [c for c in equivalence.ORBIT_CLAIMS
                  if isinstance(c.run, equivalence._Witnesses)]


def _perturbed(point):
    """The target point with one parameter changed: c of a cobracket family,
    the last one of r3; r1 and r2 have none and trade places."""
    name, *args = point
    if not args:
        return ({"r1": "r2", "r2": "r1"}[name],)
    i = min(2, len(args) - 1)
    args[i] = 1 if args[i] is None else args[i] + 1
    return (name, *args)


def test_witness_table_shape():
    # nine claims of 18 rows; the four of another shape stay functions
    assert len(WITNESS_CLAIMS) == 9
    assert sum(len(c.run.rows) for c in WITNESS_CLAIMS) == 18
    assert [c.claim_id for c in equivalence.ORBIT_CLAIMS
            if c not in WITNESS_CLAIMS] == [
        "orbit.congruence", "orbit.e2-generators", "orbit.det-condition",
        "orbit.cybe-preserved"]


@pytest.mark.parametrize("claim", WITNESS_CLAIMS, ids=lambda c: c.claim_id)
def test_every_witness_row_is_checked(claim):
    witnesses = claim.run
    for n, (spec, source, target) in enumerate(witnesses.rows):
        rows = list(witnesses.rows)
        rows[n] = (spec, source, _perturbed(target))
        ok, detail = equivalence._Witnesses(witnesses.detail, *rows)()
        assert not ok, (claim.claim_id, n)
        if spec is None:
            assert detail == (f"{equivalence._label(source)} is not "
                              f"{equivalence._label(_perturbed(target))}")
        else:
            gen, *args = spec
            name = gen + (f"({','.join(map(str, args))})" if args else "")
            assert detail.startswith(f"{name} does not carry "), detail


def test_verify_orbits_stdout_is_golden(capsys):
    from superbialg.cli import main
    assert main(["verify-orbits"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b1cf4ca89390c0e4e1be5b07b53d3d56c795b3037ecb18a4df787c6382596475")
