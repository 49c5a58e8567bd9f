"""The benchmark's tracer wraps qccsim functions by name: every name must resolve.

``bench/tracer.py`` is compiled from its source, so that the test writes
nothing under ``bench/``.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def qccsim_attributes() -> dict:
    """Every attribute of every loaded qccsim module, and the hook that counts states."""
    from qccsim.qstate import StateVector

    modules = {n: m for n, m in sys.modules.items() if n == "qccsim" or n.startswith("qccsim.")}
    attributes = {(n, attr): value for n, m in modules.items() for attr, value in vars(m).items()}
    attributes["StateVector", "__post_init__"] = StateVector.__post_init__
    return attributes


def test_every_traced_name_resolves(tracer):
    names = tracer.traced_names()
    assert names
    for name in names:
        layer, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"qccsim.{layer}"), fn, None)), name


def test_install_then_uninstall_restores_every_attribute(tracer):
    import qccsim.cli  # noqa: F401  (install imports every module; snapshot them all first)
    import qccsim.qstate

    before = qccsim_attributes()
    apply = qccsim.qstate.apply
    recorder = tracer.Recorder()
    try:
        recorder.install()
        assert qccsim.qstate.apply is not apply
    finally:
        recorder.uninstall()
    after = qccsim_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
