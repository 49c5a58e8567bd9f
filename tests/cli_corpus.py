"""The CLI's observable behaviour as a digest corpus: for each argv, the exit code and
the sha256 of its stdout, its stderr and each file it leaves behind.

    PYTHONPATH=src python tests/cli_corpus.py --write   # rewrite tests/data/cli_corpus.json
    PYTHONPATH=src python tests/cli_corpus.py           # compare every case with that file

Each case runs in-process through ``qccsim.cli.main``, in a fresh output directory
(``QCCSIM_OUTDIR``) that holds one empty subdirectory ``d`` and the ``CONFIG_FILES``,
which an argv names as ``<out>/<name>``. The record's timestamp and the output
directory's path are masked before hashing. The cases are derived from
``SCENARIO_TABLE`` and from the argv lists below, among them ``EXTREME_INPUTS``,
``FAILED_RUNS`` and ``CONFIG_CASES``. Without numpy, the comparison skips the cases
that need it, so the scalar cases can be compared under any Python.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qccsim.cli import CONTEXT_NAMES, OUTDIR_ENV, SCENARIO_TABLE, main
from qccsim.qcc import OBSERVABLE_TAGS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

COUPLINGS = ("0", "5e-324", "1e-08", "0.01", "0.5", "-2", "1e307", "1e308")
WIDTHS = ("1e-100", "1", "1e100")
JOINT_COUPLINGS = ("0", "5e-324", "0.02", "1e307", "1e308")
SPLIT_COUPLINGS = (("0.3", "-0.1"), ("1e308", "-1e308"), ("5e-324", "1e307"))
SWEEPS = {"qcc": ("--g", "0:0.2:5"), "neutron-absorber": ("--M", "0:1:4"), "neutron-magnetic": ("--alpha=-3:3:5",)}
# Each sweep one row past a 2^14-row block of the table renderer; the magnetic one passes alpha = 0.
BLOCK_SWEEPS = {"qcc": ("--g", f"0:0.3:{2**14 + 1}"), "neutron-absorber": ("--M", f"0:2:{2**14 + 1}"),
                "neutron-magnetic": (f"--alpha=-3:3:{2**14 + 1}",)}
SMALL_MC = ("--n", "2000")
# Four 2^14-trial blocks and 17 trials more, so two chunks each end inside a block.
BLOCKS_MC = ("--n", str(4 * 2**14 + 17))
# Intensity runs of odd n: one ending halfway through a counter block, one trial either side of
# a 2^14-trial block, and the largest Philox key.
INTENSITY_MC = (
    "montecarlo --mode intensity-absorber --n 16383",
    "montecarlo --mode intensity-absorber --arm II --n 16385",
    "montecarlo --mode intensity-magnetic --n 32769 --seed 340282366920938463463374607431768211455",
    "montecarlo --mode intensity-absorber --n 3 --seed 9",
    "montecarlo --mode intensity-magnetic --arm II --n 3 --seed 4",
)
# The smallest absorption: the sampled count ratio divided by 2 M leaves the float range.
TINY_ABSORPTION_MC = ("montecarlo", "--mode", "intensity-absorber", "--M", "5e-324", "--n", "1000")
# Trials CSV positions at the edges of %.17g's fixed notation: straddling 1e-4, crossing
# 1e16-1e17 into exponent notation, and in exponent notation only.
TRIALS_CSV_SCALES = (("--g", "1e-05", "--pointer-width", "0.0001"), ("--pointer-width", "3e16"),
                     ("--pointer-width", "1e100"))
# Each value rule at its boundaries, as tests/test_cli.py's RULE_CASES lists them.
RULE_BOUNDARIES = (
    "neutron-absorber --M -0.0",
    "neutron-absorber --M=-5e-324",
    "neutron-magnetic --alpha 3.141592653589793",
    "neutron-magnetic --alpha=-3.141592653589793",
    "qcc --pointer-width 5e-324",
    "qcc --pointer-width 0.0",
    "weak-value --pointer-width -0.0",
    "montecarlo --g 5e-324",
    "montecarlo --g -0.0",
    "montecarlo --workers 1",
)

# Extreme inputs: each ends in a documented exit code, and a failure in exactly one JSON
# error object on stderr, never in a traceback.
EXTREME_INPUTS = (
    "qcc --pointer-width 1e-100",
    "montecarlo --n 2000 --pointer-width 1e153 --g 1",
    "weak-value --g 1e300",
    "qcc --pointer-width 1e300",
    "weak-value --context anomalous --tan-theta 1e200",
    "weak-value --grid-xmin -1e308 --grid-xmax 1e308 --csv g.csv",
    "sweep --scenario qcc --g 0:1:3 --csv .",
    "montecarlo --n 100 --csv .",
    "weak-value --g 5e-324",
    "qcc --g 1e307 --pointer-width 1e-100",
    "qcc-joint --g 5e-324",
    "qcc-joint --g 1e308",
    "qcc-joint --g 1e307 --pointer-width 1e-100",
    "qcc-joint --g-I 1e308 --g-II -1e308 --observable-I sigma_x --observable-II sigma_x",
    "sweep --scenario qcc --g=-1e307:1e307:5",
    "neutron-absorber --M=-5e-324",
    "neutron-magnetic --alpha 3.1415926535897936",
    "sweep --scenario neutron-magnetic --alpha=-4:4:3000",
    "qcc --pointer-width 0",
    "montecarlo --workers 0",
    "weak-value --grid-points 4 --csv g.csv",
    "weak-value --grid-points 2 --csv g.csv",
    "weak-value --pointer-width 1e-160 --g 1",
    "weak-value --pointer-width 0.01 --g 1e153",
    "montecarlo --mode intensity-magnetic --arm I --alpha 0.05 --n 50 --seed 2",
    "montecarlo --mode intensity-absorber --n 1 --seed 1",
    "montecarlo --mode intensity-magnetic --alpha 1e-160 --n 1000",
    "montecarlo --mode intensity-magnetic --alpha=-1e-160 --n 1000",
    "qcc --g abc",
    "qcc --bogus 1",
    "sweep --scenario qcc --g 0:1:1048577",
    "montecarlo --n 16777217",
    "weak-value --grid-points 2097152 --csv g.csv",
    "qcc --csv q.csv",
    "sweep --scenario qcc --g inf:1:3",
    "montecarlo --seed -1",
    "montecarlo --n 0",
    "weak-value --csv new/sub/g.csv --json new/r.json",
    "montecarlo --context anomalous --g 1e5 --n 2000",
)
# Failed runs: each exits nonzero, prints no record and leaves no file beside the premade ``d``.
FAILED_RUNS = (
    "sweep --scenario qcc --g 0:1:3 --csv s.csv --json d",
    "weak-value --context orthogonal --csv g.csv",
    "montecarlo --mode intensity-magnetic --n 100 --csv t.csv",
    "weak-value --context orthogonal --csv new/sub/g.csv --json d/new/r.json",
    "weak-value --csv x --json ./x",
    "montecarlo --g 5e-324 --n 2000",
)

OUT = "<out>"  # a case's output directory, in an argv and in every digested text
# Config files, by name, as each case's output directory holds them.
CONFIG_FILES = {
    "overrides.json": '{"g": 0.3, "g_I": 0.05, "observable_I": "sigma_x", "swap_spin_labels": true}',
    "unknown-key.json": '{"g": 0.1, "bogus": 1}',
    "float-true.json": '{"g": true}',
    "float-string.json": '{"g": "0.5"}',
    "float-null.json": '{"g": null}',
    "float-integer.json": '{"g": 1, "pointer_width": 2}',
    "float-beyond-range.json": '{"g": 1' + "0" * 400 + "}",
    "int-integral-float.json": '{"n": 2000.0, "seed": 7.0}',
    "int-fraction.json": '{"n": 2000.5}',
    "choice-number.json": '{"observable_I": 1}',
    "switch-string.json": '{"swap_spin_labels": "yes"}',
    "sweep.json": '{"sweep_scenario": "qcc", "g": "0:0.2:3", "pointer_width": 0.5}',
    "array.json": "[1, 2]",
    "invalid.json": '{"g": ',
}
# Runs that read a config file: flags override it; each JSON type meets each kind's rule.
CONFIG_CASES = (
    "qcc --config <out>/overrides.json",
    "qcc --config <out>/overrides.json --g-I 0.1 --observable-I projector",
    "qcc-joint --config <out>/overrides.json --g 0.2",
    "qcc --config <out>/unknown-key.json",
    "qcc --config <out>/unknown-key.json --validate-only",
    "qcc --config <out>/float-true.json",
    "qcc --config <out>/float-string.json",
    "qcc --config <out>/float-null.json",
    "qcc --config <out>/float-null.json --g 0.1",
    "qcc --config <out>/float-integer.json",
    "qcc --config <out>/float-beyond-range.json",
    "qcc --config <out>/float-beyond-range.json --validate-only",
    "montecarlo --config <out>/int-integral-float.json",
    "montecarlo --config <out>/int-fraction.json",
    "qcc --config <out>/choice-number.json",
    "qcc --config <out>/switch-string.json",
    "sweep --config <out>/sweep.json",
    "qcc --config <out>/array.json",
    "qcc --config <out>/invalid.json",
    "qcc --config <out>/missing.json",
)


def cases() -> list[tuple[str, ...]]:
    """Every argv of the corpus, in order, without repeats."""
    argvs = []
    for name, scenario in SCENARIO_TABLE.items():
        argvs += [(name,), (name, "--validate-only")]
        for param in scenario.params:
            argvs += [(name, param.option, value) for value in param.choices]
    for context, g, width in itertools.product(CONTEXT_NAMES, COUPLINGS, WIDTHS):
        argvs.append(("weak-value", "--context", context, "--g", g, "--pointer-width", width))
    for tan_theta in ("0", "1e-08", "30", "-3", "1e200"):
        argvs.append(("weak-value", "--context", "anomalous", "--tan-theta", tan_theta))
    for scenario, (obs_I, obs_II), swap in itertools.product(
        ("qcc", "qcc-joint"), itertools.product(OBSERVABLE_TAGS, repeat=2), ((), ("--swap-spin-labels",))
    ):
        observables = ("--observable-I", obs_I, "--observable-II", obs_II, *swap)
        argvs += [(scenario, "--g", g, *observables) for g in JOINT_COUPLINGS]
        argvs += [(scenario, "--g-I", g_I, "--g-II", g_II, *observables) for g_I, g_II in SPLIT_COUPLINGS]
    for scenario, width, g in itertools.product(("qcc", "qcc-joint"), WIDTHS[::2], ("0.02", "1e307")):
        argvs.append((scenario, "--g", g, "--pointer-width", width))
    for workers, csv in itertools.product(("1", "2"), ((), ("--csv", "t.csv", "--json", "r.json"))):
        argvs.append(("montecarlo", *SMALL_MC, "--workers", workers, *csv))
        argvs.append(("montecarlo", "--mode", "intensity-magnetic", *SMALL_MC, "--workers", workers))
    for width in WIDTHS[::2]:
        argvs.append(("montecarlo", *SMALL_MC, "--pointer-width", width))
    argvs += [("montecarlo", *BLOCKS_MC, "--workers", workers, "--csv", "t.csv") for workers in ("1", "2")]
    argvs.append(("montecarlo", "--context", "spin-trivial", *BLOCKS_MC, "--workers", "2"))
    argvs += [("montecarlo", "--mode", mode, *BLOCKS_MC) for mode in ("intensity-absorber", "intensity-magnetic")]
    argvs += [tuple(line.split()) for line in INTENSITY_MC]
    argvs.append(TINY_ABSORPTION_MC)
    argvs += [("montecarlo", *SMALL_MC, *args, "--csv", "t.csv") for args in TRIALS_CSV_SCALES]
    # Trials CSVs over five 2^14-row blocks: nearly all trials accepted, and about a tenth.
    argvs += [("montecarlo", "--context", context, *BLOCKS_MC, "--csv", "t.csv") for context in ("spin-trivial", "anomalous")]
    for scenario, grid in SWEEPS.items():
        argvs.append(("sweep", "--scenario", scenario, *grid))
        argvs.append(("sweep", "--scenario", scenario, *grid, "--csv", "s.csv", "--json", "r.json"))
    for width in WIDTHS[::2]:
        argvs.append(("sweep", "--scenario", "qcc", *SWEEPS["qcc"], "--pointer-width", width))
    for scenario, grid in BLOCK_SWEEPS.items():
        argvs.append(("sweep", "--scenario", scenario, *grid, "--csv", "s.csv", "--json", "r.json"))
    argvs.append(("weak-value", "--csv", "g.csv", "--grid-points", "64"))
    argvs += [tuple(line.split()) for line in RULE_BOUNDARIES]
    argvs += [tuple(line.split()) for line in (*EXTREME_INPUTS, *FAILED_RUNS)]
    argvs += [tuple(line.split()) for line in CONFIG_CASES]
    return list(dict.fromkeys(argvs))


def _digest(text: str, out_dir: Path) -> str:
    masked = TIMESTAMP.sub('"timestamp": "<masked>"', text.replace(str(out_dir), OUT))
    return hashlib.sha256(masked.encode()).hexdigest()


def run_case(argv, out_dir: Path) -> dict:
    """One entry: ``argv`` run through ``main`` with ``out_dir`` as its output directory."""
    (out_dir / "d").mkdir()
    for name, text in CONFIG_FILES.items():
        (out_dir / name).write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = os.environ.get(OUTDIR_ENV)
    os.environ[OUTDIR_ENV] = str(out_dir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main([arg.replace(OUT, str(out_dir)) for arg in argv])
            except SystemExit as exc:  # argparse's exits: 2 on a flag error
                code = exc.code
    finally:
        if saved is None:
            del os.environ[OUTDIR_ENV]
        else:
            os.environ[OUTDIR_ENV] = saved
    premade = out_dir / "d"
    left = sorted(p for p in out_dir.rglob("*")
                  if p.relative_to(out_dir).as_posix() not in CONFIG_FILES and (p != premade or any(p.iterdir())))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _digest(stdout.getvalue(), out_dir),
        "stderr": _digest(stderr.getvalue(), out_dir),
        "artifacts": {
            p.relative_to(out_dir).as_posix(): _digest(p.read_text(), out_dir) if p.is_file() else "directory"
            for p in left
        },
    }


def run_in_temp(argv) -> dict:
    with tempfile.TemporaryDirectory() as out_dir:
        return run_case(argv, Path(out_dir))


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def write(entries: list[dict]) -> None:
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    CORPUS.write_text(f"[\n{lines}\n]\n")


def compare() -> int:
    """Compare every case with the corpus file; print the differing argvs and a summary."""
    same = differ = skipped = 0
    for entry in load():
        try:
            got = run_in_temp(entry["argv"])
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            skipped += 1
            continue
        if got == entry:
            same += 1
        else:
            differ += 1
            print("differs:", " ".join(entry["argv"]))
    print(f"python {sys.version.split()[0]}: {same} same, {differ} differ, {skipped} skipped (need numpy)")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write([run_in_temp(argv) for argv in cases()])
        print(f"wrote {CORPUS}")
    else:
        sys.exit(compare())
