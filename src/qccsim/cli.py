"""Command-line entry point: one reproducible scenario per invocation.

Parameters come from flags, or from a flat JSON config file with flags
taking precedence. Every run echoes its resolved config in the JSON
record it prints, so a record can be re-run bit-exactly. The parser,
defaults and checks are all generated from ``SCENARIO_TABLE``.

Exit codes: 0 success, 2 flag or config parse error, 3 validation error
(``--csv`` where the run has no CSV artifact, as in a Monte Carlo
intensity mode, or ``--csv`` and ``--json`` naming one file) or an
output path that cannot be written, 4 capacity error, 5 numerical error
(orthogonal postselection, a negative inference radicand, a float
overflow or division by zero, a pointer width whose powers leave the
float range, or a pointer too far out for floats to resolve its width).
Each of these errors prints one JSON object to stderr. Output files are
renamed into place only once all are written, so a failed run leaves
none behind, nor any directory it created for them, and an earlier file
under the same name stays as it was.

numpy loads only where a run builds an array: ``sweep``, ``montecarlo``
and the ``weak-value --csv`` grid. ``qcc``, ``qcc-joint``, ``weak-value``
and the neutron scenarios run on Python floats without it.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

from . import __version__
from ._record import Record
from .errors import (
    CapacityError,
    NegativeRadicand,
    NumericalError,
    SimulationError,
    ValidationError,
)
from .montecarlo import (check_estimation_coupling, check_seed, check_trial_count, check_workers,
                         estimate_weak_value, sample_intensity_experiment, sample_trials)
from .neutron import (
    AbsorberConfig,
    MagneticConfig,
    check_absorption,
    check_rotation,
    infer_weak_value,
    intensity_absorber,
    intensity_magnetic,
    systematic_term_report,
)
from .pointer import check_grid_points, check_width, make_gaussian, support, to_grid
from .qcc import (
    ARMS,
    OBSERVABLE_TAGS,
    SIGMA_X_ROWS,
    arm_observable,
    build_prepost,
    run_ideal_qcc,
    run_joint_pointers,
)
from .serialize import (
    Table,
    dumps_json,
    qcc_report_dict,
    weak_measurement_dict,
    write_grid_csv,
    write_sweep_csv,
    write_trials_csv,
)
from .tolerances import MAX_AMPLITUDES
from .weakmeas import PrePostContext, Spectrum, branch_table

OUTDIR_ENV = "QCCSIM_OUTDIR"
# A user's BLAS thread count; without one, a CLI process asks for one thread.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

SWEEP_SCENARIOS = ("qcc", "neutron-absorber", "neutron-magnetic")
MC_MODES = ("pointer", "intensity-absorber", "intensity-magnetic")

QCC_SWEEP_HEADER = (
    "g",
    "wv_pi_I_re",
    "wv_sigma_I_re",
    "wv_pi_II_re",
    "wv_sigma_II_re",
    "shift_I",
    "shift_II",
    "postselect_prob",
)
NEUTRON_SWEEP_HEADER = ("param", "ratio_exact", "ratio_predicted", "inferred_wv", "expansion_error")


_HALF = 1.0 / math.sqrt(2.0)
# Spectra of sigma_x and of |path 0><path 0|, written out exactly as np.linalg.eigh returns them.
SIGMA_X_SPECTRUM = Spectrum(SIGMA_X_ROWS, (-1.0, 1.0), ((-_HALF, _HALF), (_HALF, _HALF)))
PROJECTOR_SPECTRUM = Spectrum(((1.0, 0.0), (0.0, 0.0)), (0.0, 1.0), ((0.0, 1.0), (1.0, 0.0)))
# Two-level context name -> (context, observable spectrum). "anomalous" is the
# sigma_x one whose chi = (cos theta, sin theta) follows tan_theta, taken
# without atan, which loses precision at large |tan theta|.
_TWO_LEVEL = {
    "spin-trivial": (PrePostContext((1.0, 0.0), (1.0, 0.0)), SIGMA_X_SPECTRUM),
    "path-null": (PrePostContext((_HALF, _HALF), (0.0, 1.0)), PROJECTOR_SPECTRUM),
    "orthogonal": (PrePostContext((1.0, 0.0), (0.0, 1.0)), SIGMA_X_SPECTRUM),
}
# Cheshire Cat context name -> (arm, observable tag), on the states of build_prepost().
_ARM_CONTEXTS = {
    f"qcc-{short}-{arm}": (arm, tag) for arm in ARMS for tag, short in zip(OBSERVABLE_TAGS, ("pi", "sigma"))
}
CONTEXT_NAMES = (*_TWO_LEVEL, "anomalous", *_ARM_CONTEXTS)


def build_context(name: str, tan_theta: float = 3.0) -> tuple[PrePostContext, Spectrum]:
    """Named pre/postselection scenarios used by weak-value and montecarlo runs."""
    if name in _ARM_CONTEXTS:
        return build_prepost(), arm_observable(*_ARM_CONTEXTS[name])
    if name == "anomalous":
        h = math.hypot(1.0, tan_theta)
        return PrePostContext((1.0, 0.0), (1.0 / h, tan_theta / h)), SIGMA_X_SPECTRUM
    if name not in _TWO_LEVEL:
        raise ValidationError(f"unknown context {name!r}; choose from {CONTEXT_NAMES}")
    return _TWO_LEVEL[name]


def parse_range(text: str) -> np.ndarray:
    """Inclusive sweep grid from a start:stop:count spec."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad range {text!r}: {exc}") from None
    if count < 1:
        raise ValidationError(f"range count must be >= 1, got {count}")
    if count > MAX_AMPLITUDES:
        raise CapacityError(f"range count {count} exceeds limit {MAX_AMPLITUDES}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"range endpoints must be finite, got {text!r}")
    if not math.isfinite(stop - start):  # np.linspace would warn and return NaN
        raise ValidationError(f"range {text!r} has no finite width")
    import numpy as np
    return np.linspace(start, stop, count)


class Param(Record):
    """One scenario parameter: its flag, default, type check and value rule.

    ``kind`` is "float", "int", "choice", "switch" or "range" (a
    start:stop:count string). A float whose default is None is optional.
    ``check`` is the library's rule for a well-typed value, the one the run
    applies: its ``ValidationError`` becomes the violation and its
    ``CapacityError`` propagates, as in the run.
    With ``when = (key, values)`` the parameter is checked only while
    ``params[key]`` is one of ``values``.
    """

    name: str
    kind: str
    default: object = None
    help: str = ""
    choices: tuple = ()
    check: Callable[[object], None] | None = None
    when: tuple[str, tuple] | None = None
    flag: str = ""

    @property
    def option(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")


def _when(key: str, values: tuple, *params: Param) -> tuple[Param, ...]:
    return tuple(p._replace(when=(key, values)) for p in params)


def _sweep_range(name: str, scenario: str, check=None) -> Param:
    help_text = f"{scenario} sweep grid, start:stop:count"
    return Param(name, "range", None, help_text, check=check, when=("sweep_scenario", (scenario,)))


CONTEXT = Param("context", "choice", "qcc-pi-I", "named pre/postselection context", CONTEXT_NAMES)
TAN_THETA = Param("tan_theta", "float", 3.0, "tan(theta) of the anomalous context")
POINTER_WIDTH = Param("pointer_width", "float", 1.0, "Gaussian pointer width", check=check_width)
ARM = Param("arm", "choice", "I", "interferometer arm", ARMS)
ABSORBER_M = Param("M", "float", 0.1, "absorber strength, arm attenuation e^(-M)", check=check_absorption)
ROTATION_ALPHA = Param("alpha", "float", 0.2, "arm spin-rotation angle", check=check_rotation)
OBSERVABLES = (
    Param("observable_I", "choice", "projector", "observable coupled in arm I", OBSERVABLE_TAGS),
    Param("observable_II", "choice", "sigma_x", "observable coupled in arm II", OBSERVABLE_TAGS),
)

WEAK_VALUE_PARAMS = (
    CONTEXT,
    TAN_THETA,
    Param("g", "float", 0.01, "coupling strength"),
    POINTER_WIDTH,
    Param("grid_xmin", "float", None, "grid CSV lower edge; unset fits the pointer"),
    Param("grid_xmax", "float", None, "grid CSV upper edge; unset fits the pointer"),
    Param("grid_points", "int", 1024, "grid CSV points", check=check_grid_points),
)
QCC_PARAMS = (
    Param("g", "float", 0.02, "coupling for both arms"),
    Param("g_I", "float", None, "arm-I coupling, overrides --g"),
    Param("g_II", "float", None, "arm-II coupling, overrides --g"),
    *OBSERVABLES,
    POINTER_WIDTH,
    Param("swap_spin_labels", "switch", False, "exchange the postselected spin labels"),
)
MONTECARLO_PARAMS = (
    Param("mode", "choice", "pointer", "what to sample", MC_MODES),
    *_when(
        "mode", ("pointer",), CONTEXT, TAN_THETA,
        Param("g", "float", 0.05, "coupling strength", check=check_estimation_coupling),
        POINTER_WIDTH,
    ),
    *_when("mode", MC_MODES[1:], ARM),
    *_when("mode", ("intensity-absorber",), ABSORBER_M),
    *_when("mode", ("intensity-magnetic",), ROTATION_ALPHA),
    Param("n", "int", 100000, "number of trials", check=check_trial_count),
    Param("seed", "int", 12345, "Philox key of the trial stream, below 2**128", check=check_seed),
    Param("workers", "int", 1, "worker threads", check=check_workers),
)
SWEEP_PARAMS = (
    Param("sweep_scenario", "choice", None, "scenario to sweep", SWEEP_SCENARIOS, flag="--scenario"),
    _sweep_range("g", "qcc"),
    _sweep_range("M", "neutron-absorber", check_absorption),
    _sweep_range("alpha", "neutron-magnetic", check_rotation),
    ARM,
    *OBSERVABLES,
    POINTER_WIDTH,
)


class Scenario(NamedTuple):
    """A subcommand: its help line, parameter table and runner."""

    help: str
    params: tuple[Param, ...]
    run: Callable[[dict, Path | None, dict], dict]  # (params, staged CSV path, checked sweep grids)
    csv: str = ""  # the results key naming the --csv artifact; "" when there is none


# Runners are looked up by module attribute at call time, so a wrapper
# installed on a ``run_*`` function also sees the CLI's calls to it.
SCENARIO_TABLE = {
    "weak-value": Scenario("single weak measurement on a named context", WEAK_VALUE_PARAMS,
                           lambda p, csv, _: run_weak_value(p, csv), csv="grid_csv"),
    "qcc": Scenario("Cheshire Cat run (qcc)", QCC_PARAMS, lambda p, csv, _: run_qcc_scenario(p, False)),
    "qcc-joint": Scenario("Cheshire Cat run (qcc-joint)", QCC_PARAMS,
                          lambda p, csv, _: run_qcc_scenario(p, True)),
    "neutron-absorber": Scenario("arm absorber intensity experiment", (ARM, ABSORBER_M),
                                 lambda p, csv, _: run_neutron_absorber(p)),
    "neutron-magnetic": Scenario("arm spin-rotation intensity experiment", (ARM, ROTATION_ALPHA),
                                 lambda p, csv, _: run_neutron_magnetic(p)),
    "montecarlo": Scenario("finite-statistics sampling", MONTECARLO_PARAMS,
                           lambda p, csv, _: run_montecarlo(p, csv), csv="trials_csv"),
    "sweep": Scenario("parameter sweep emitting a CSV table", SWEEP_PARAMS,
                      lambda p, csv, grids: run_sweep(p, csv, grids), csv="sweep_csv"),
}
_FLAG_TYPES = {"float": float, "int": int}
_VALUE_FLAGS = {p.option for s in SCENARIO_TABLE.values() for p in s.params if p.kind != "switch"}
_NEGATIVE_START = re.compile(r"-[\d.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--alpha -3:3:11`` as ``--alpha=-3:3:11``: argparse reads a value
    that starts with '-' and is not a plain number (a range, -1e-3) as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _VALUE_FLAGS and _NEGATIVE_START.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


class ConfigParseError(SimulationError):
    """The flags or the config file cannot be parsed."""


class JsonErrorParser(argparse.ArgumentParser):
    """Reports a flag error as one JSON error object, still exiting 2; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        sys.stderr.write(_error_object(ConfigParseError(f"{self.prog}: {message}")))
        raise SystemExit(2)


@functools.cache  # one parser per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = JsonErrorParser(
        prog="qccsim",
        description="Exact simulator for pre/postselected weak measurements "
        "and intensity-based interferometer experiments.",
    )
    parser.add_argument("--version", action="version", version=f"qccsim {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, scenario in SCENARIO_TABLE.items():
        p = sub.add_parser(name, help=scenario.help)
        for param in scenario.params:
            help_text = f"{param.help} (default: {param.default})"
            if param.kind == "switch":
                p.add_argument(param.option, action="store_true", dest=param.name, help=help_text)
            else:
                p.add_argument(param.option, dest=param.name, type=_FLAG_TYPES.get(param.kind),
                               choices=param.choices or None, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override its values")
        p.add_argument("--json", dest="json_path", help="also write the run record to this file")
        p.add_argument("--csv", dest="csv_path", help="write the scenario's CSV artifact here")
        p.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument(
            "--validate-only",
            action="store_true",
            help="report precondition violations and exit without computing",
        )
    return parser


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigParseError(f"config file {path} must hold a JSON object")
    return data


def resolve_params(scenario: str, args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Merge defaults, config file, and explicit flags; collect violations."""
    params = {param.name: param.default for param in SCENARIO_TABLE[scenario].params}
    violations: list[str] = []
    if args.config:
        for key, value in load_config_file(args.config).items():
            if key in params:
                params[key] = value
            else:
                violations.append(f"{key}: unknown parameter for scenario {scenario}")
    for key in params:
        flag_value = getattr(args, key, None)
        if flag_value is not None and flag_value is not False:
            params[key] = flag_value
    return params, violations


def _problem(param: Param, params: dict, grids: dict) -> str | None:
    """Why ``params[param.name]`` is not of its kind, or None; stores coerced numbers back,
    and a range's checked grid in ``grids``, since ``params`` keeps the range's text.

    Raises ``ValidationError`` for a malformed range or a failed library rule."""
    raw = value = params.get(param.name)
    if param.kind == "float":
        if raw is None and param.default is None:
            return None
        try:
            value = float(raw)
        except OverflowError:  # a JSON integer beyond the float range; math.copysign would convert it too
            value = math.inf if raw > 0 else -math.inf
        except (TypeError, ValueError):
            value = None
        if value is None or isinstance(raw, (bool, str)):  # float(True), float("0.5") succeed
            return f"must be a number, got {raw!r}"
        if not math.isfinite(value):
            return f"must be finite, got {value!r}"
        params[param.name] = value
    elif param.kind == "int":
        if isinstance(raw, float) and raw.is_integer():
            value = int(raw)
        if not isinstance(value, int) or isinstance(value, bool):
            return f"must be an integer, got {raw!r}"
        params[param.name] = value
    elif param.kind == "choice" and raw not in param.choices:
        return f"must be one of {param.choices}, got {raw!r}"
    elif param.kind == "switch" and not isinstance(raw, bool):
        return f"must be true or false, got {raw!r}"
    elif param.kind == "range":
        if raw is None:
            return f"sweep over {params[param.when[0]]} needs {param.option} start:stop:count"
        value = parse_range(raw)
    if param.check is not None:
        param.check(value)
    if param.kind == "range":
        grids[param.name] = value
    return None


def validate_params(scenario: str, params: dict) -> tuple[list[str], dict]:
    """Every violated precondition, one message per violation, in table order, and the
    checked grid of each sweep range by parameter name, which the run sweeps."""
    violations: list[str] = []
    grids: dict = {}
    for param in SCENARIO_TABLE[scenario].params:
        if param.when is not None and params.get(param.when[0]) not in param.when[1]:
            continue
        try:
            problem = _problem(param, params, grids)
        except ValidationError as exc:  # a library rule's own message, as in the run
            problem = str(exc)
        if problem is not None:
            violations.append(f"{param.name}: {problem}")
    return violations, grids


def run_weak_value(params: dict, csv_path: Path | None) -> dict:
    table = branch_table(*build_context(params["context"], params["tan_theta"]))
    table.weak_value()  # an orthogonal postselection raises before coupling
    phi0 = make_gaussian(0.0, params["pointer_width"])
    result = table.couple(phi0, params["g"])
    out = {"context": params["context"]}
    out.update(weak_measurement_dict(result, table.linear_response(result), table.validity(phi0, params["g"])))
    if csv_path is not None:
        lo, hi = support(result.pointer_final)
        xmin = lo if params["grid_xmin"] is None else params["grid_xmin"]
        xmax = hi if params["grid_xmax"] is None else params["grid_xmax"]
        grid = to_grid(result.pointer_final, xmin, xmax, params["grid_points"])
        write_grid_csv(grid, csv_path)
    return out


def run_qcc_scenario(params: dict, joint: bool) -> dict:
    runner = run_joint_pointers if joint else run_ideal_qcc
    report = runner(observable_I=params["observable_I"], observable_II=params["observable_II"],
                    g_I=params["g"] if params["g_I"] is None else params["g_I"],
                    g_II=params["g"] if params["g_II"] is None else params["g_II"],
                    pointer_width=params["pointer_width"], swap_spin_labels=params["swap_spin_labels"])
    return qcc_report_dict(report)


def run_neutron_absorber(params: dict) -> dict:
    return intensity_absorber(AbsorberConfig(params["arm"], params["M"]))._asdict()


def run_neutron_magnetic(params: dict) -> dict:
    report = intensity_magnetic(MagneticConfig(params["arm"], params["alpha"]))
    return {
        "intensity": report._asdict(),
        "systematic": systematic_term_report(params["alpha"])._asdict(),
    }


def run_montecarlo(params: dict, csv_path: Path | None) -> dict:
    n, seed = params["n"], params["seed"]
    if params["mode"] == "pointer":
        table = branch_table(*build_context(params["context"], params["tan_theta"]))
        wv = table.weak_value()  # an orthogonal postselection raises before sampling
        phi0 = make_gaussian(0.0, params["pointer_width"])
        exact = table.couple(phi0, params["g"])
        trials = sample_trials(exact, n, seed, workers=params["workers"])
        out = {
            "mode": "pointer",
            "context": params["context"],
            "estimator": estimate_weak_value(trials, phi0, params["g"])._asdict(),
            "exact_weak_value_re": wv.real,
            "exact_postselect_prob": exact.postselect_prob_coupled,
        }
        if csv_path is not None:
            write_trials_csv(trials, csv_path)
        return out
    if params["mode"] == "intensity-absorber":
        cfg = AbsorberConfig(params["arm"], params["M"])
        exact_report = intensity_absorber(cfg)
    else:
        cfg = MagneticConfig(params["arm"], params["alpha"])
        exact_report = intensity_magnetic(cfg)
    counts = sample_intensity_experiment(exact_report, n, seed)
    try:
        inferred = infer_weak_value(cfg, counts.ratio)
    except NegativeRadicand:
        inferred = math.nan  # sampled ratio below the reachable band; JSON null
    return {
        "mode": params["mode"],
        "counts": counts._asdict(),
        "exact": exact_report._asdict(),
        "inferred_from_counts": inferred,
    }


def run_sweep(params: dict, csv_path: Path | None, grids: dict) -> dict:
    """One run over the whole swept array, the swept parameter's grid in ``grids`` as
    validation checked it: its rows equal single runs at each value."""
    scenario = params["sweep_scenario"]
    if scenario == "qcc":
        values = grids["g"]
        header = QCC_SWEEP_HEADER
        record = qcc_report_dict(run_ideal_qcc(
            observable_I=params["observable_I"], observable_II=params["observable_II"],
            g_I=values, g_II=values, pointer_width=params["pointer_width"]))
        columns = [values, *(record[c] for c in header[1:])]
    else:
        header = NEUTRON_SWEEP_HEADER
        if scenario == "neutron-magnetic":
            values = grids["alpha"]
            rep = intensity_magnetic(MagneticConfig(params["arm"], values))
            predicted = rep.second_order_prediction
        else:
            values = grids["M"]
            rep = intensity_absorber(AbsorberConfig(params["arm"], values))
            predicted = rep.first_order_prediction
        columns = [values, rep.ratio, predicted, rep.inferred_weak_value, rep.expansion_error]
    import numpy as np
    # A constant column (a qcc weak value or postselect_prob) is broadcast; Table formats it once.
    table = Table(header, [np.broadcast_to(c, values.shape) if np.ndim(c) == 0 else c for c in columns])
    out = {"swept_scenario": scenario, "columns": list(header), "rows": table}
    if csv_path is not None:
        write_sweep_csv(csv_path, table)
    return out


def _temp_beside(path: Path | None, kind: str) -> Path | None:
    """The short, fixed name ``path``'s artifact is written under until the run succeeds."""
    return None if path is None else path.parent / f".qccsim-{kind}-{os.getpid()}.tmp"


def run(args: argparse.Namespace) -> int:
    scenario = args.scenario
    params, violations = resolve_params(scenario, args)
    problems, grids = validate_params(scenario, params)
    violations += problems
    csv_key = SCENARIO_TABLE[scenario].csv
    if args.csv_path is not None and not csv_key:
        violations.append(f"csv: no CSV artifact defined for scenario {scenario}")
    elif args.csv_path is not None and params.get("mode") in MC_MODES[1:]:
        violations.append(f"csv: no CSV artifact defined for montecarlo mode {params['mode']}")
    out_dir = Path(args.out or os.environ.get(OUTDIR_ENV) or ".")
    csv_path, json_path = (None if raw is None else out_dir / raw for raw in (args.csv_path, args.json_path))
    if csv_path is not None and json_path is not None and csv_path.resolve() == json_path.resolve():
        violations.append(f"json: --json and --csv name the same file {str(json_path)!r}")
    if args.validate_only:
        sys.stdout.write(dumps_json({"scenario": scenario, "violations": violations}))
        return 0 if not violations else 3
    if violations:
        raise ValidationError("; ".join(violations))

    created: list[Path] = []  # directories this run made, removed again if it fails
    csv_temp, json_temp = _temp_beside(csv_path, "csv"), _temp_beside(json_path, "json")
    staged = [(temp, path) for temp, path in ((csv_temp, csv_path), (json_temp, json_path)) if path]
    try:
        for path in (csv_path, json_path):  # each missing directory is listed before the attempt
            if path is not None and not path.parent.is_dir():
                # The first ancestor that exists ends the walk: its own ancestors exist too.
                created += reversed(list(itertools.takewhile(lambda d: not d.exists(), path.parents)))
                path.parent.mkdir(parents=True, exist_ok=True)
        results = SCENARIO_TABLE[scenario].run(params, csv_temp, grids)
        if csv_path is not None:
            results[csv_key] = str(csv_path)
        text = dumps_json({"artifact": "qccsim", "version": __version__,
                           "timestamp": datetime.now(timezone.utc).isoformat(),
                           "scenario": scenario, "config": params, "results": results})
        if json_temp is not None:
            json_temp.write_text(text)
        for _, path in staged:  # renaming onto a directory fails: fail before the first rename
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for temp, path in staged:
            os.replace(temp, path)
        staged, created = [], []  # the run finished: nothing to clean up
    except OSError as exc:  # name the file the user gave, not its staging name
        final = {str(temp): str(path) for temp, path in staged}.get(str(exc.filename))
        if final is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, final) from None
    finally:
        for temp, _ in staged:
            if temp.parent.is_dir():  # else the temp was never written
                temp.unlink(missing_ok=True)
        for directory in reversed(created):  # deepest first
            if directory.is_dir():
                directory.rmdir()
    sys.stdout.write(text)  # after the renames, so that a run whose file cannot be written prints no record
    return 0


def _error_object(exc: Exception) -> str:
    return dumps_json({"error": {"type": type(exc).__name__, "message": str(exc)}})


# Error type -> exit code, as the module docstring lists them; the first match wins.
EXIT_CODES = {
    ConfigParseError: 2,
    ValidationError: 3,
    OSError: 3,
    CapacityError: 4,
    NumericalError: 5,
    OverflowError: 5,
    ZeroDivisionError: 5,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return run(args)
    except tuple(EXIT_CODES) as exc:
        sys.stderr.write(_error_object(exc))
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def console_main() -> int:
    """A ``qccsim`` process, as the console script or ``python -m qccsim.cli``: :func:`main`
    with ``OPENBLAS_NUM_THREADS=1`` unless a thread variable is set. numpy starts its BLAS
    thread pool when it loads, and a run's matrices are at most 4x4."""
    if not any(name in os.environ for name in THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
