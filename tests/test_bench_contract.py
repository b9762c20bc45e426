"""The benchmark's tracer names package functions by string, and its scalar
probes build their operands through public calls; these tests fail when a
traced name or a probed call is renamed or deleted, rather than only a
traced benchmark run."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from superbialg import equivalence, poisson, scalars
from superbialg.bialgebra import family
from superbialg.equivalence import verify_orbit_claims

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_traced_functions_resolve(tracing):
    for mod_name, attr in tracing.FUNCTIONS:
        assert mod_name in tracing.MODULES
        module = importlib.import_module(f"superbialg.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_install_and_uninstall(tracing):
    runs = [claim.run for claim in equivalence.ORBIT_CLAIMS]
    mul = scalars.SuperScalar.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scalars.SuperScalar.__mul__ is not mul
    finally:
        tracer.uninstall()
    assert scalars.SuperScalar.__mul__ is mul
    assert [claim.run for claim in equivalence.ORBIT_CLAIMS] == runs
    failures = [row for row in verify_orbit_claims() if not row[2]]
    assert not failures, failures


def test_probe_operands_build():
    # the scalar probes read CoordinateRing.coproduct, var and coordinates
    # and Cobracket.f through public calls
    operands = _load("probes").operands()
    assert sorted(operands) == ["const", "e2", "osp", "tensor"]
    assert all(operands.values())


def test_tables_reach_apply_field(monkeypatch):
    # the traced tables workload must reach poisson.field, the span on
    # CoordinateRing.apply_field: a coboundary table rendered on a fresh
    # group calls it while the group derives its fields
    calls = []
    apply_field = poisson.CoordinateRing.apply_field

    def counted(self, field, f):
        calls.append(field)
        return apply_field(self, field, f)

    monkeypatch.setattr(poisson.CoordinateRing, "apply_field", counted)
    r = family("osp-r-a", x=1, y=Fraction(-2, 3), z=5)
    text = poisson.format_table(poisson.coboundary_structure(
        poisson.osp_group(), r, display_scale=2))
    assert text.count("\n") == 16
    assert calls


def test_traced_table_reaches_the_field_span(tracing):
    # the tracer's repeat key for poisson.field reads the field's label and
    # `side`, so a traced run calls apply_field through it
    tracer = tracing.Tracer()
    tracer.install()
    try:
        poisson.format_table(poisson.coboundary_structure(
            poisson.osp_group(), family("osp-r1"), display_scale=2))
    finally:
        tracer.uninstall()
    assert tracer.summary()["poisson.field"][0] > 0


def test_one_job_of_each_kind_meets_its_expectation():
    # one job of each kind from a classify and a tables pass, both cocycle
    # jobs among them, through the calls the benchmark makes: a change to
    # that API (the pair from solve_cocycle_space, SolutionFamily.nullity,
    # the (ring, list) from cojacobi_constraints) fails here and not only
    # in a benchmark run
    workloads = _load("workloads")
    jobs = {}
    for job in (workloads.make_jobs("classify", 1)
                + workloads.make_jobs("tables", 1)):
        jobs.setdefault(job if job[0] == "cocycles" else job[0], job)
    assert set(jobs) == {
        "case-a", "case-b", "osp-r-a", "e2-r-a", ("cocycles", "osp12"),
        ("cocycles", "super_e2"), "table:osp-r-a", "table:e2-r-a",
        "table:e2-r-b", "table:named"}
    expect = workloads.Expectations()
    for job in jobs.values():
        assert expect.mismatch(job, workloads.run_job(job)) is None, job
