"""The benchmark's tracer names package functions by string, and its scalar
probes build their operands through public calls; these tests fail when a
traced name or a probed call is renamed or deleted, rather than only a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from superbialg import equivalence, scalars
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
