"""Span recorder that traces qccsim's public functions from outside the package.

Each function in ``LAYERS`` is replaced, on every ``qccsim.*`` module
attribute that refers to it, by a wrapper that records a span: name,
start, end, parent span and operation id. Patching only the defining
module would miss calls from ``cli`` and ``weakmeas``, which bind names
with ``from .x import y``. ``StateVector`` constructions are counted by
wrapping ``__post_init__``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# layer -> (traced functions, end-to-end metric and workload it should move)
LAYERS: dict[str, tuple[tuple[str, ...], str]] = {
    "qstate": (
        ("apply", "partial_project", "inner", "tensor"),
        "items_per_cpu_s and op_cpu_p50_s on sweep; nothing on montecarlo",
    ),
    "weakmeas": (
        ("make_observable", "couple_and_postselect", "weak_value", "linear_response_report", "validity_margin"),
        "items_per_cpu_s on sweep (qcc points)",
    ),
    "pointer": (
        ("translate", "superpose", "mean_position", "norm_sq", "overlap", "to_grid", "component_overlap"),
        "items_per_cpu_s on sweep (qcc points); little on oneshot (qcc-joint, grid)",
    ),
    "qcc": (
        ("build_prepost", "arm_observable", "run_ideal_qcc", "run_joint_pointers"),
        "items_per_cpu_s and op_cpu_p90_s on sweep (qcc points)",
    ),
    "neutron": (
        ("reference_intensity", "perturbed_intensity", "intensity_absorber", "intensity_magnetic", "systematic_term_report"),
        "items_per_cpu_s and op_cpu_p50_s on sweep (neutron points)",
    ),
    "montecarlo": (
        ("sample_trials", "estimate_weak_value", "sample_intensity_experiment"),
        "items_per_cpu_s and op_cpu_p50_s on montecarlo; nothing on sweep",
    ),
    "serialize": (
        ("dumps_json", "write_sweep_csv", "write_trials_csv", "write_grid_csv"),
        "op_cpu_p90_s and items_per_cpu_s on montecarlo (trials CSV); items_per_cpu_s on sweep",
    ),
    "cli": (
        (
            "build_parser",
            "resolve_params",
            "validate_params",
            "run_weak_value",
            "run_qcc_scenario",
            "run_neutron_absorber",
            "run_neutron_magnetic",
            "run_montecarlo",
            "run_sweep",
        ),
        "op_cpu_p50_s on oneshot",
    ),
}

CONSTRUCTED = "qstate.StateVector.constructed"
TRIALS = "montecarlo.trials"
# Functions whose calls add to a counter: name -> (counter, measure(arguments, result)).
MEASURES = {
    "montecarlo.sample_trials": (TRIALS, lambda a, r: a["n"]),
    "montecarlo.sample_intensity_experiment": (TRIALS, lambda a, r: a["n"]),
    "serialize.dumps_json": ("serialize.dumps_json.bytes", lambda a, r: len(r.encode())),
    "serialize.write_sweep_csv": ("serialize.write_sweep_csv.bytes", lambda a, r: os.path.getsize(a["path"])),
    "serialize.write_trials_csv": ("serialize.write_trials_csv.bytes", lambda a, r: os.path.getsize(a["path"])),
    "serialize.write_grid_csv": ("serialize.write_grid_csv.bytes", lambda a, r: os.path.getsize(a["path"])),
}
COUNTERS = (CONSTRUCTED, TRIALS) + tuple(sorted({c for c, _ in MEASURES.values()} - {TRIALS}))
IMPORTS = ("numpy", "qccsim", "qccsim.montecarlo", "qccsim.cli")


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, (fns, _) in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for module in IMPORTS:
        units[f"import.{module}_s"] = "s"
    units.update({"trace.overhead_s": "s", "trace.overhead_pct": "%", "trace.coverage_pct": "%"})
    return units


class Recorder:
    """Collects spans and counters while installed; restores qccsim on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: Counter = Counter()
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        rec = self
        measure = MEASURES.get(name)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans.append((sid, name, t0, t1, parent, rec.op_id))
            if measure is not None:
                bound = signature.bind(*args, **kwargs).arguments
                rec.counters[measure[0]] += measure[1](bound, result)
            return result

        return wrapper

    def install(self) -> None:
        import qccsim.cli  # noqa: F401  (imports every qccsim module)
        from qccsim.qstate import StateVector

        modules = [m for n, m in list(sys.modules.items()) if n == "qccsim" or n.startswith("qccsim.")]
        for name in traced_names():
            layer, fn = name.split(".")
            original = getattr(sys.modules[f"qccsim.{layer}"], fn)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        post_init = StateVector.__post_init__
        rec = self

        def counted_post_init(state):
            rec.counters[CONSTRUCTED] += 1
            post_init(state)

        self._patch(StateVector, "__post_init__", counted_post_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()


def summarize(spans, counters: Counter) -> tuple[Counter, dict[str, float], dict[int, float]]:
    """Call counts, self time per name, and top-level span time per operation.

    Self time is a span's duration minus its direct children's; children
    run nested inside their parent on one thread, so they never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, t0, t1, parent, _ in spans:
        if parent:
            child_time[parent] += t1 - t0
    calls: Counter = Counter(counters)
    self_s: dict[str, float] = defaultdict(float)
    top: dict[int, float] = defaultdict(float)
    for sid, name, t0, t1, parent, op in spans:
        calls[f"{name}.calls"] += 1
        self_s[f"{name}.self_s"] += (t1 - t0) - child_time[sid]
        if not parent:
            top[op] += t1 - t0
    return calls, self_s, top
