"""Start-up contract of the package and the CLI process, each case in a fresh interpreter."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qccsim.cli import CONTEXT_NAMES, THREAD_VARIABLES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def python(*args: str, exit_code: int = 0, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``src`` with no thread variable set except those in ``env``;
    it must end with ``exit_code``."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env={**base, **env})
    assert proc.returncode == exit_code, proc.stderr
    return proc


def test_package_import_leaves_numpy_unloaded():
    script = (
        "import json, sys, qccsim\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('numpy', 'qccsim')))))"
    )
    assert json.loads(python("-c", script).stdout) == ["qccsim"]


def test_every_export_resolves_and_star_import_matches_all():
    script = """
import importlib, json, qccsim
names = {}
exec("from qccsim import *", names)
star = sorted(k for k in names if not k.startswith("__"))
resolved = all(
    getattr(qccsim, n) is getattr(importlib.import_module("qccsim." + m), n)
    for m, ns in qccsim._EXPORTS.items() for n in ns
)
try:
    qccsim.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
report = {"all": qccsim.__all__, "star": star, "dir": dir(qccsim), "resolved": resolved, "missing": missing}
print(json.dumps(report))
"""
    report = json.loads(python("-c", script).stdout)
    assert report["resolved"]
    assert report["star"] == sorted(report["all"])
    assert set(report["all"]) <= set(report["dir"])
    submodules = {"errors", "montecarlo", "neutron", "pointer", "qcc", "qstate", "tolerances", "weakmeas"}
    assert {n for n in report["dir"] if not n.startswith("_")} - set(report["all"]) <= submodules
    assert report["missing"] == "module 'qccsim' has no attribute 'no_such_name'"


LOADED_QCCSIM_MODULES = "import json, sys, {}\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('qccsim'))))"


def test_serialize_import_loads_no_physics_module():
    loaded = json.loads(python("-c", LOADED_QCCSIM_MODULES.format("qccsim.serialize")).stdout)
    assert loaded == ["qccsim", "qccsim.errors", "qccsim.serialize", "qccsim.tolerances"]


def test_montecarlo_import_loads_no_scenario_or_state_algebra():
    loaded = json.loads(python("-c", LOADED_QCCSIM_MODULES.format("qccsim.montecarlo")).stdout)
    assert "qccsim.montecarlo" in loaded
    assert not {"qccsim.neutron", "qccsim.qcc", "qccsim.weakmeas", "qccsim.qstate"} & set(loaded)


def test_cli_import_loads_no_state_algebra():
    # Weak measurements are amplitude tuples and written-out spectra: qstate is a leaf nothing imports.
    loaded = json.loads(python("-c", LOADED_QCCSIM_MODULES.format("qccsim.cli")).stdout)
    assert "qccsim.weakmeas" in loaded
    assert "qccsim.qstate" not in loaded


def test_cli_import_loads_no_numpy():
    script = (
        "import json, sys, qccsim.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy'))))"
    )
    assert json.loads(python("-c", script).stdout) == []


# Stdlib modules no one-shot scalar run needs: ``dataclasses`` pulls in ``inspect``,
# which pulls in ``ast``, ``dis`` and ``tokenize``.
INTROSPECTION = ("dataclasses", "inspect")


def test_cli_import_loads_no_dataclasses_or_inspect():
    script = f"import json, sys, qccsim.cli\nprint(json.dumps([m for m in {INTROSPECTION!r} if m in sys.modules]))"
    assert json.loads(python("-c", script).stdout) == []


# The one-shot runs that build no array, with their exit codes: every weak-value
# context, each scalar scenario and its --validate-only run, one exit 3 and one exit 5.
SCALAR_RUNS = [
    *((["weak-value", "--context", name], 5 if name == "orthogonal" else 0) for name in CONTEXT_NAMES),
    *(([name], 0) for name in ("qcc", "qcc-joint", "neutron-absorber", "neutron-magnetic")),
    *(([name, "--validate-only"], 0) for name in ("qcc", "qcc-joint", "weak-value", "neutron-absorber",
                                                   "neutron-magnetic")),
    (["qcc", "--g", "nan"], 3),
]

RUN_SCALAR = """
import contextlib, io, json, sys
from qccsim.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report.append([code, sorted(m for m in sys.modules if m.startswith("numpy"))])
print(json.dumps([report, [m for m in %r if m in sys.modules]]))
""" % ((*INTROSPECTION, "qccsim.qstate"),)


def test_scalar_scenarios_run_without_numpy():
    report, unneeded = json.loads(
        python("-c", RUN_SCALAR, json.dumps([argv for argv, _ in SCALAR_RUNS])).stdout
    )
    assert report == [[code, []] for _, code in SCALAR_RUNS]
    # Neither introspection nor the state algebra, which no weak measurement uses, is loaded
    # by any of the runs: modules stay in sys.modules.
    assert unneeded == []


RUN_TWO_WORKERS = """
import contextlib, io, json, os, sys
os.cpu_count = lambda: 2  # two chunks, so one helper thread, on any machine
from qccsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["montecarlo", "--n", "20000", "--workers", "2"])
print(json.dumps([code, [m for m in ("concurrent.futures", "logging") if m in sys.modules]]))
"""


def test_two_worker_montecarlo_loads_no_thread_pool_or_logging():
    assert json.loads(python("-c", RUN_TWO_WORKERS).stdout) == [0, []]


# A failing `python -m qccsim.cli` process: each documented exit code, no record on stdout,
# and exactly one JSON error object on stderr, never a traceback.
ENTRY_FAILURES = [
    (["qcc", "--g", "abc"], 2),
    (["qcc", "--g", "nan"], 3),
    (["montecarlo", "--n", "16777217"], 4),
    (["weak-value", "--context", "orthogonal"], 5),
]


@pytest.mark.parametrize("argv, code", ENTRY_FAILURES, ids=[f"exit-{code}" for _, code in ENTRY_FAILURES])
def test_process_entry_failure_is_one_json_error(argv, code):
    proc = python("-W", "error", "-m", "qccsim.cli", *argv, exit_code=code)
    assert proc.stdout == ""
    assert list(json.loads(proc.stderr)) == ["error"]


def test_cli_import_skips_numpy_random():
    err = python("-X", "importtime", "-c", "import qccsim.cli").stderr
    modules = [line.split("|")[-1].strip() for line in err.splitlines() if line.startswith("import time:")]
    assert "qccsim.cli" in modules
    assert not [m for m in modules if m.startswith("numpy.random")]


RUN_AS_MAIN = """
import json, os, runpy, sys
sys.argv = ["qccsim", "--version"]
try:
    runpy.run_module("qccsim.cli", run_name="__main__")
except SystemExit:
    pass
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
print()
print(json.dumps({"env": {k: os.environ.get(k) for k in %r}, "threads": threads}))
""" % (THREAD_VARIABLES,)


@pytest.mark.parametrize(
    "given, expected",
    [
        ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
        ({"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}),
        ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
    ],
    ids=["unset", "openblas-set", "omp-set"],
)
def test_cli_process_defaults_to_one_blas_thread(given, expected):
    version, report = python("-c", RUN_AS_MAIN, **given).stdout.split("\n\n")
    assert version == "qccsim 0.1.0"
    report = json.loads(report)
    assert report["env"] == expected
    if not given:  # set before numpy loaded, so OpenBLAS started no pool
        assert report["threads"] == 1


def test_library_import_leaves_environment_unchanged():
    script = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        "import qccsim.cli\n"
        "print(json.dumps(before == dict(os.environ)))"
    )
    assert json.loads(python("-c", script).stdout) is True


def test_in_process_main_leaves_the_environment_alone():
    script = """
import contextlib, io, json, os
from qccsim.cli import main
before = dict(os.environ)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["neutron-absorber"])
print(json.dumps([code, before == dict(os.environ)]))
"""
    assert json.loads(python("-c", script).stdout) == [0, True]


def test_console_script_applies_the_thread_default():
    # The target pyproject.toml declares, read with a regex: Python 3.10 has no tomllib.
    module, function = re.search(
        r'^qccsim = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE
    ).groups()
    script = f"""
import json, os, sys
from {module} import {function} as main
sys.argv = ["qccsim", "neutron-absorber", "--M", "0.3"]
code = main()
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""
    record, tail = python("-c", script).stdout.rstrip("\n").rsplit("\n", 1)
    assert json.loads(tail) == [0, "1"]
    assert json.loads(record)["scenario"] == "neutron-absorber"
