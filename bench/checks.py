"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct. Closed forms are compared within a tolerance, not bit for bit:
at M = 0.2 the program and exp(-2M) differ in the last digit. Sampled
quantities are compared within six standard errors.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable

TOL = 1e-12
SIGMAS = 6.0

QCC_WEAK_VALUES = {"wv_pi_I": 1.0, "wv_sigma_I": 0.0, "wv_pi_II": 0.0, "wv_sigma_II": 1.0}
CONTEXT_WEAK_VALUES = {
    "spin-trivial": 0.0,
    "path-null": 0.0,
    "qcc-pi-I": 1.0,
    "qcc-sigma-I": 0.0,
    "qcc-pi-II": 0.0,
    "qcc-sigma-II": 1.0,
}

# Exact pointer shift for (context, tan_theta, pointer_width, g), taken
# from the library itself; Monte Carlo estimates are checked against it.
ShiftOracle = Callable[[str, float, float, float], float]


def absorber_ratio(arm: str, M: float) -> float:
    return math.exp(-2.0 * M) if arm == "I" else 1.0


def magnetic_ratio(arm: str, alpha: float) -> float:
    half = alpha / 2.0
    return math.cos(half) ** 2 if arm == "I" else 1.0 + math.sin(half) ** 2


def _close(problems: list[str], what: str, got, want: float, tol: float = TOL) -> None:
    if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def without(record: dict, *config_keys: str) -> dict:
    """The record without its timestamp and the named config entries."""
    out = {k: v for k, v in record.items() if k != "timestamp"}
    out["config"] = {k: v for k, v in record["config"].items() if k not in config_keys}
    return out


def parse_record(text: str) -> dict:
    record = json.loads(text)
    if not isinstance(record, dict) or record.get("artifact") != "qccsim":
        raise ValueError("stdout is not a qccsim record")
    return record


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_qcc(problems: list[str], res: dict, where: str = "") -> None:
    for name, want in QCC_WEAK_VALUES.items():
        _close(problems, f"{where}{name}_re", res[f"{name}_re"], want)
        if f"{name}_im" in res:
            _close(problems, f"{where}{name}_im", res[f"{name}_im"], 0.0)


def _check_weak_value(problems: list[str], res: dict, cfg: dict) -> None:
    context = cfg["context"]
    want = cfg["tan_theta"] if context == "anomalous" else CONTEXT_WEAK_VALUES[context]
    _close(problems, "weak_value_re", res["weak_value_re"], want)
    if "grid_csv" in res:
        header, rows = _read_csv(res["grid_csv"])
        if header != ["x", "re", "im", "prob_density"] or len(rows) != cfg["grid_points"]:
            problems.append(f"grid CSV: header {header}, {len(rows)} rows")
            return
        xs = [float(r[0]) for r in rows]
        dens = [float(r[3]) for r in rows]
        norm = sum(0.5 * (dens[i] + dens[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))
        _close(problems, "grid norm", norm, res["postselect_prob_coupled"], 1e-6)


def _check_sweep(problems: list[str], res: dict, cfg: dict) -> None:
    scenario = res["swept_scenario"]
    key = {"qcc": "g", "neutron-absorber": "M", "neutron-magnetic": "alpha"}[scenario]
    n = int(cfg[key].split(":")[2])
    rows = res["rows"]
    if len(rows) != n:
        problems.append(f"sweep: {len(rows)} rows, expected {n}")
        return
    for i, row in enumerate(rows):
        where = f"row {i} "
        if scenario == "qcc":
            _check_qcc(problems, row, where)
            _close(problems, where + "postselect_prob", row["postselect_prob"], 0.25)
            if cfg["observable_I"] == "projector":
                _close(problems, where + "shift_I", row["shift_I"], row["g"])
        elif scenario == "neutron-absorber":
            _close(problems, where + "ratio_exact", row["ratio_exact"], absorber_ratio(cfg["arm"], row["param"]))
        else:
            _close(problems, where + "ratio_exact", row["ratio_exact"], magnetic_ratio(cfg["arm"], row["param"]))
        if len(problems) > 5:
            return
    header, csv_rows = _read_csv(res["sweep_csv"])
    if header != res["columns"] or len(csv_rows) != n:
        problems.append(f"sweep CSV: header {header}, {len(csv_rows)} rows")
        return
    for i, (row, cells) in enumerate(zip(rows, csv_rows)):
        for col, cell in zip(header, cells):
            value = row[col]
            same = cell in ("", "nan") if value is None else float(cell) == value
            if not same:
                problems.append(f"sweep CSV row {i} {col}: {cell!r} != record {value!r}")
                return


def _check_pointer_mc(problems: list[str], res: dict, cfg: dict, exact_shift: ShiftOracle) -> None:
    est = res["estimator"]
    n = cfg["n"]
    p = res["exact_postselect_prob"]
    if est["n_total"] != n:
        problems.append(f"estimator n_total {est['n_total']} != n {n}")
    rate_tol = SIGMAS * math.sqrt(p * (1.0 - p) / n) + TOL
    if abs(est["postselect_rate"] - p) > rate_tol:
        problems.append(f"postselect_rate {est['postselect_rate']!r} vs exact {p!r}")
    shift = exact_shift(cfg["context"], cfg["tan_theta"], cfg["pointer_width"], cfg["g"])
    shift_tol = SIGMAS * est["std_error"] * abs(cfg["g"]) + 1e-9
    if abs(est["mean_shift"] - shift) > shift_tol:
        problems.append(f"mean_shift {est['mean_shift']!r} vs exact {shift!r}")
    _close(problems, "exact_weak_value_re", res["exact_weak_value_re"],
           cfg["tan_theta"] if cfg["context"] == "anomalous" else CONTEXT_WEAK_VALUES[cfg["context"]])
    if "trials_csv" in res:
        header, rows = _read_csv(res["trials_csv"])
        hits = [float(r[2]) for r in rows if r[1] == "1"]
        if header != ["trial_index", "postselected", "position"] or len(rows) != n:
            problems.append(f"trials CSV: header {header}, {len(rows)} rows")
        elif len(hits) != est["n_postselected"]:
            problems.append(f"trials CSV: {len(hits)} postselected, record {est['n_postselected']}")
        else:
            _close(problems, "trials CSV mean", math.fsum(hits) / len(hits), est["mean_shift"], 1e-9)


def _check_intensity_mc(problems: list[str], res: dict, cfg: dict) -> None:
    counts = res["counts"]
    if cfg["mode"] == "intensity-absorber":
        want = absorber_ratio(cfg["arm"], cfg["M"])
    else:
        want = magnetic_ratio(cfg["arm"], cfg["alpha"])
    _close(problems, "exact ratio", res["exact"]["ratio"], want)
    if counts["n_trials"] != cfg["n"]:
        problems.append(f"counts n_trials {counts['n_trials']} != n {cfg['n']}")
    if abs(counts["ratio"] - want) > SIGMAS * counts["ratio_std_error"]:
        problems.append(f"count ratio {counts['ratio']!r} vs exact {want!r}")


def check_record(record: dict, exact_shift: ShiftOracle) -> list[str]:
    """Problems with one qccsim record, judged from its echoed config."""
    problems: list[str] = []
    cfg, res = record["config"], record["results"]
    scenario = record["scenario"]
    if scenario in ("qcc", "qcc-joint"):
        _check_qcc(problems, res)
        if res["joint"] != (scenario == "qcc-joint"):
            problems.append(f"joint flag {res['joint']!r} for {scenario}")
    elif scenario == "weak-value":
        _check_weak_value(problems, res, cfg)
    elif scenario == "neutron-absorber":
        _close(problems, "ratio", res["ratio"], absorber_ratio(cfg["arm"], cfg["M"]))
    elif scenario == "neutron-magnetic":
        _close(problems, "ratio", res["intensity"]["ratio"], magnetic_ratio(cfg["arm"], cfg["alpha"]))
        _close(problems, "systematic ratio", res["systematic"]["ratio_exact"], magnetic_ratio("I", cfg["alpha"]))
    elif scenario == "sweep":
        _check_sweep(problems, res, cfg)
    elif scenario == "montecarlo":
        if cfg["mode"] == "pointer":
            _check_pointer_mc(problems, res, cfg, exact_shift)
        else:
            _check_intensity_mc(problems, res, cfg)
    else:
        problems.append(f"unexpected scenario {scenario!r}")
    return problems


def read_artifact(record: dict) -> bytes | None:
    """Bytes of the CSV artifact a record names, if any."""
    res = record["results"]
    for key in ("grid_csv", "trials_csv", "sweep_csv"):
        if key in res:
            return Path(res[key]).read_bytes()
    return None
