"""qccsim benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; it uses ``src/`` as the
package, with no install step. Workloads (see ``workloads.py``):

- ``oneshot``: each operation is one ``python -m qccsim.cli`` process.
- ``sweep``: each operation is an in-process ``main(["sweep", ...])``.
- ``montecarlo``: each operation is an in-process ``main(["montecarlo", ...])``.

With ``--trace 0`` it runs operations for ``--seconds`` seconds, in
whole cycles, and reports the end-to-end metrics: set-up time, peak
memory, per-operation CPU time (median and p90) and work items per CPU
second, with in-process CPU times scaled by a machine-speed gauge
(``gauge.py``), plus unchecked wall-clock figures. With ``--trace 1`` it
runs a fixed cycle of the same seed untraced and then twice under the
span recorder (``tracer.py``), and reports per-layer calls, self time,
counters, import times, tracing overhead and coverage. Every operation's
output is checked (``checks.py``); a failed check counts in ``failed``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with
its unit, the seed and the provenance.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter, process_time

import checks
import tracer
from gauge import GAUGE_S, gauge_cpu
from workloads import WORKLOADS, Op, cycles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

SETUP_PROBES = 10
IMPORT_PROBES = 3
TRACE_CYCLES = 1
OP_TIMEOUT_S = 120

# End-to-end metrics checked against BENCHMARK.json. Times are CPU time
# of the process(es) doing the work, in-process operations scaled by the
# speed gauge: on a shared virtual machine, steal time moves wall time
# and neighbours move CPU speed by tens of percent from one minute to the
# next. Raw CPU and wall-clock figures are printed beside them, unchecked.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_cpu_p50_s": "s",
    "op_cpu_p90_s": "s",
    "items_per_cpu_s": "1/s",
}

# Workload-specific throughput metrics: name -> operation classes pooled.
CLASS_RATES = {
    "sweep": {
        "sweep_qcc_points_per_s": ("sweep-qcc",),
        "sweep_neutron_points_per_s": ("sweep-absorber", "sweep-magnetic"),
    },
    "montecarlo": {
        "mc_trials_per_s_1w": ("pointer-1w",),
        "mc_trials_per_s_2w": ("pointer-2w",),
        "mc_csv_trials_per_s": ("pointer-csv",),
        "mc_intensity_trials_per_s": ("intensity-absorber", "intensity-magnetic"),
    },
}


@dataclass
class Result:
    """One executed operation: timing, in-process time of main, problems found."""

    op: Op
    wall: float
    cpu: float
    main_wall: float
    gauge: float = GAUGE_S
    problems: list[str] = field(default_factory=list)
    record: dict | None = None


def use_source() -> None:
    """Put ``src/`` first on sys.path, or exit 2 when there is no source tree."""
    if not (SRC / "qccsim" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qccsim sources under {SRC}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(cmd: list[str]) -> tuple[int | None, str, str, float, float]:
    """Run a child to completion.

    Returns (exit code or None on timeout, stdout, stderr, wall time,
    CPU time of the child).
    """
    c0, t0 = children_cpu(), perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=OP_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", f"killed after {OP_TIMEOUT_S} s"
    return code, out, err, perf_counter() - t0, children_cpu() - c0


def call_main(argv) -> tuple[int | None, str, str, float, float]:
    """Run ``qccsim.cli.main(argv)`` in this process, capturing its output.

    Returns the same fields as ``spawn``; the CPU time is this process's,
    all threads included. An exception escaping ``main`` is a failed
    operation, reported with exit code None and its traceback as stderr.
    """
    import qccsim.cli

    out, err = io.StringIO(), io.StringIO()
    c0, t0 = process_time(), perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = qccsim.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        err.write(traceback.format_exc(limit=3))
    return code, out.getvalue(), err.getvalue(), perf_counter() - t0, process_time() - c0


def exact_shift(context: str, tan_theta: float, width: float, g: float) -> float:
    from qccsim.cli import build_context
    from qccsim.pointer import make_gaussian, mean_position
    from qccsim.weakmeas import couple_and_postselect

    ctx, obs = build_context(context, tan_theta)
    phi0 = make_gaussian(0.0, width)
    return mean_position(couple_and_postselect(ctx, obs, phi0, g).pointer_final) - mean_position(phi0)


class Executor:
    """Runs operations of one workload, plain or traced, and checks them."""

    def __init__(self, workload: str, tmp: Path) -> None:
        self.oneshot = workload == "oneshot"
        self.tmp = tmp
        self.recorder = tracer.Recorder()
        self.child_traces: list[dict] = []

    def execute(self, op: Op, traced: bool) -> Result:
        spans_path = self.tmp / "spans.json"
        if not self.oneshot:
            code, out, err, wall, cpu = call_main(op.argv)
        elif traced:
            spans_path.unlink(missing_ok=True)
            code, out, err, wall, cpu = spawn([sys.executable, str(BENCH / "entry.py"), str(spans_path), *op.argv])
        else:
            code, out, err, wall, cpu = spawn([sys.executable, "-m", "qccsim.cli", *op.argv])
        result = Result(op, wall, cpu, wall)
        if self.oneshot and traced:
            child = json.loads(spans_path.read_text()) if spans_path.exists() else {"wall": 0.0, "spans": [], "counters": {}}
            self.child_traces.append(child)
            result.main_wall = child["wall"]
        if code != 0:
            result.problems.append(f"exit {code}: {err.strip()[-400:]}")
            return result
        try:
            result.record = checks.parse_record(out)
        except ValueError as exc:
            result.problems.append(f"unreadable record: {exc}")
        return result

    def check(self, result: Result, previous: Result | None) -> None:
        """Closed-form and consistency checks; none of this is timed."""
        record = result.record
        if record is None:
            return
        try:
            result.problems += checks.check_record(record, exact_shift)
            if self.oneshot:
                artifact = checks.read_artifact(record)
                code, out, err, _, _ = call_main(result.op.argv)
                in_process = checks.parse_record(out) if code == 0 else None
                if in_process is None or checks.without(in_process) != checks.without(record):
                    result.problems.append("one-shot record differs from the in-process main record")
                elif checks.read_artifact(in_process) != artifact:
                    result.problems.append("one-shot CSV differs from the in-process CSV")
            if result.op.cls == "pointer-2w":
                if previous is None or previous.record is None or previous.op.cls != "pointer-1w":
                    result.problems.append("pointer-2w run has no 1-worker run to compare with")
                elif checks.without(record, "workers") != checks.without(previous.record, "workers"):
                    result.problems.append("records at --workers 1 and 2 differ beyond config.workers")
        except Exception:
            result.problems.append(traceback.format_exc(limit=3))


def probe_setup(workload: str, seed: int, tmp: Path) -> tuple[float, float]:
    """CPU and wall time of a fresh interpreter until qccsim.cli is imported
    and the workload's first operation is ready."""
    t0 = perf_counter()
    code, out, err, _, _ = spawn([sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(tmp)])
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
    ready, cpu = map(float, out.split())
    return cpu, ready - t0


def measure_imports() -> dict[str, float]:
    """Median cumulative import time per module, from ``python -X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in tracer.IMPORTS}
    for _ in range(IMPORT_PROBES):
        code, _, err, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import qccsim.cli"])
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-400:]}")
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {f"import.{m}_s": statistics.median(v) if v else 0.0 for m, v in samples.items()}


def timed_run(executor: Executor, workload: str, seed: int, seconds: float, tmp: Path):
    """Closed loop over whole cycles for ``seconds``.

    Returns the results and the set-up probes. Each in-process result
    carries the speed gauge run in this process just before it, since
    the machine's speed can change between operations.

    Set-up probes run between cycles, spread over the run, so that their
    median samples the same machine conditions as the operations.
    """
    results: list[Result] = []
    setup = [probe_setup(workload, seed, tmp)]
    start = perf_counter()
    interval = seconds / SETUP_PROBES
    for cycle in cycles(workload, seed, tmp):
        previous = None
        for op in cycle:
            gauge = None if executor.oneshot else gauge_cpu()
            result = executor.execute(op, traced=False)
            if gauge is not None:
                result.gauge = gauge
            executor.check(result, previous)
            previous = result
            results.append(result)
        for result in results[-len(cycle):]:
            result.record = None
        elapsed = perf_counter() - start
        if elapsed >= len(setup) * interval:
            setup.append(probe_setup(workload, seed, tmp))
        if elapsed >= seconds:
            return results, setup


def pooled_rate(results: list[Result], classes: tuple[str, ...]) -> tuple[float, int]:
    chosen = [r for r in results if r.op.cls in classes]
    return sum(r.op.items for r in chosen) / sum(r.wall for r in chosen), len(chosen)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def e2e_metrics(workload: str, results: list[Result], setup, rss_mb: float):
    """Checked metrics and unchecked ones, each as (value, unit, sample count).

    Checked times are CPU times. An in-process operation's CPU time is
    scaled by its speed gauge (``gauge.py``). CPU times of fresh
    processes (set-up probes, one-shot operations) are not scaled: a
    gauge run in this process, or right after start-up in the child,
    tracked them worse than no gauge at all.
    """
    scaled = [r.cpu * GAUGE_S / r.gauge for r in results]
    cpus = [r.cpu for r in results]
    walls = [r.wall for r in results]
    items = sum(r.op.items for r in results)
    n, k = len(results), len(setup)
    checked = {
        "setup_s": (statistics.median(c for c, _ in setup), "s", k),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "op_cpu_p50_s": (statistics.median(scaled), "s", n),
        "op_cpu_p90_s": (p90(scaled), "s", n),
        "items_per_cpu_s": (items / sum(scaled), "1/s", n),
    }
    unchecked = {
        "failed_frac": (sum(1 for r in results if r.problems) / n, "1", n),
        "op_cpu_raw_p50_s": (statistics.median(cpus), "s", n),
        "setup_wall_s": (statistics.median(w for _, w in setup), "s", k),
        "op_wall_p50_s": (statistics.median(walls), "s", n),
        "op_wall_p90_s": (p90(walls), "s", n),
        "items_per_wall_s": (items / sum(walls), "1/s", n),
    }
    if workload == "oneshot":
        unchecked["oneshot_p50_s"] = unchecked.pop("op_wall_p50_s")
        unchecked["oneshot_p90_s"] = unchecked.pop("op_wall_p90_s")
    else:
        unchecked["gauge_s"] = (statistics.median(r.gauge for r in results), "s", n)
    for name, classes in CLASS_RATES.get(workload, {}).items():
        rate, count = pooled_rate(results, classes)
        unchecked[name] = (rate, "1/s", count)
    return checked, unchecked


def traced_run(executor: Executor, workload: str, seed: int, tmp: Path):
    """Untraced pass, then two traced passes over the same fixed operations."""
    ops = [op for cycle in islice(cycles(workload, seed, tmp), TRACE_CYCLES) for op in cycle]
    checked: list[Result] = []
    for op in ops:
        result = executor.execute(op, traced=False)
        executor.check(result, checked[-1] if checked else None)
        checked.append(result)
    reference = [checks.without(r.record) if r.record else None for r in checked]
    # The first pass warms caches and lazy imports; the second is the
    # untraced baseline for the overhead figure.
    base = [executor.execute(op, traced=False) for op in ops]

    passes = []
    if not executor.oneshot:
        executor.recorder.install()
    try:
        for _ in range(2):
            executor.recorder.reset()
            executor.child_traces = []
            traced = []
            for i, op in enumerate(ops):
                executor.recorder.op_id = i
                result = executor.execute(op, traced=True)
                if result.record is not None and checks.without(result.record) != reference[i]:
                    result.problems.append("traced record differs from the untraced record")
                result.record = None
                traced.append(result)
            if executor.oneshot:
                calls, self_s, top = merge_children(executor.child_traces)
                spans = [[i, *s] for i, child in enumerate(executor.child_traces) for s in child["spans"]]
            else:
                calls, self_s, top = tracer.summarize(executor.recorder.spans, executor.recorder.counters)
                spans = [[s[5], *s[:5]] for s in executor.recorder.spans]
            passes.append((traced, calls, self_s, top, spans))
    finally:
        executor.recorder.uninstall()
    return ops, checked + base, base, passes


def merge_children(child_traces: list[dict]):
    """Merge per-process summaries of one-shot children; op id = child index."""
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    top: dict[int, float] = {}
    for i, child in enumerate(child_traces):
        c, s, t = tracer.summarize([tuple(x) for x in child["spans"]], Counter(child["counters"]))
        calls.update(c)
        for name, value in s.items():
            self_s[name] += value
        top[i] = sum(t.values())
    return calls, self_s, top


def layer_metrics(base, passes, imports: dict[str, float]):
    (traced_a, calls_a, self_a, top_a, _), (_, calls_b, self_b, _, _) = passes
    units = tracer.metric_units()
    metrics: dict[str, float] = {}
    for name, unit in units.items():
        if name.endswith(".self_s"):
            metrics[name] = (self_a.get(name, 0.0) + self_b.get(name, 0.0)) / 2.0
        elif unit in ("count", "bytes"):
            metrics[name] = calls_a.get(name, 0)
    metrics.update(imports)
    untraced = sum(r.cpu for r in base)
    traced = sum(r.cpu for r in traced_a)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    coverage = [100.0 * top_a.get(i, 0.0) / r.main_wall for i, r in enumerate(traced_a) if r.main_wall > 0]
    metrics["trace.coverage_pct"] = statistics.median(coverage)
    mismatched = sorted(k for k in set(calls_a) | set(calls_b) if calls_a[k] != calls_b[k])
    return metrics, mismatched, min(coverage)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py"))),
    }


def check_manifest(trace: bool) -> None:
    """The metrics this run prints must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = tracer.metric_units() if trace else E2E_UNITS
    if declared != emitted:
        raise SystemExit(f"BENCHMARK.json and bench/run.py disagree on metrics: {sorted(set(declared) ^ set(emitted))}")


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<44} {value:>16.6g} {unit:<6} {note}".rstrip())


def report_traced(executor: Executor, args, tmp: Path):
    """Per-layer metrics of the traced run; prints them and the layer map."""
    imports = measure_imports()
    ops, untraced, base, passes = traced_run(executor, args.workload, args.seed, tmp)
    metrics, mismatched, min_cov = layer_metrics(base, passes, imports)
    spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops": [list(op.argv) for op in ops],
        "fields": ["op", "span", "name", "start", "end", "parent"],
        "spans": passes[0][4],
    }))
    units = tracer.metric_units()
    for layer, (_, moves) in tracer.LAYERS.items():
        print(f"# layer {layer}: should move {moves}")
    for name, value in metrics.items():
        print_metric(name, value, units[name])
    print(f"# coverage min {min_cov:.2f}% over {len(ops)} ops; spans written to {spans_path}")
    print(f"# counts repeat across two traced runs: {'NO ' + ', '.join(mismatched) if mismatched else 'yes'}")
    return untraced + passes[0][0] + passes[1][0], metrics, units, not mismatched


def report_timed(executor: Executor, args, tmp: Path):
    """End-to-end metrics of the untraced timed run; prints them."""
    results, setup = timed_run(executor, args.workload, args.seed, args.seconds, tmp)
    who = resource.RUSAGE_CHILDREN if executor.oneshot else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    checked, unchecked = e2e_metrics(args.workload, results, setup, rss_mb)
    for name, (value, unit, n) in checked.items():
        print_metric(name, value, unit, f"n={n}")
    for name, (value, unit, n) in unchecked.items():
        print_metric(name, value, unit, f"n={n} (not checked)")
    return results, {name: value for name, (value, _, _) in checked.items()}, E2E_UNITS, True


def run_workload(args) -> int:
    use_source()
    check_manifest(bool(args.trace))
    OUT_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        executor = Executor(args.workload, tmp)
        print(f"# qccsim benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        report = report_traced if args.trace else report_timed
        results, metrics, units, counts_ok = report(executor, args, tmp)
        print("# provenance " + json.dumps({"seed": args.seed, **provenance()}))
        failed = [r for r in results if r.problems]
        for r in failed[:5]:
            print(f"# FAILED {r.op.cls} {' '.join(r.op.argv)}: {r.problems[0][:400]}")
        print(json.dumps({
            "correct": not failed and counts_ok,
            "attempted": len(results),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args) -> int:
    use_source()
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main() -> int:
    # On SIGTERM, unwind normally: the running child is killed and waited
    # for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
