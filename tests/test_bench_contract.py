"""The benchmark's tracer names package functions by string; these tests
fail when a traced name is renamed or deleted, rather than only a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from superbialg import equivalence, scalars
from superbialg.equivalence import verify_orbit_claims

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
