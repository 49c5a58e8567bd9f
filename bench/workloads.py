"""Seeded inputs for the three benchmark workloads.

A workload is an endless sequence of cycles. A cycle holds one operation
of each class, in an order the seed shuffles. The seed picks parameter
values and order only, never grid lengths or trial counts, so a cycle
costs about the same whatever the seed and every run sees the same mix.

Only valid inputs are generated: the ``orthogonal`` context (documented
exit 5) and other error paths are left out on purpose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

WORKLOADS = ("oneshot", "sweep", "montecarlo")

# Named contexts with a defined weak value (everything but "orthogonal").
CONTEXTS = (
    "spin-trivial",
    "path-null",
    "anomalous",
    "qcc-pi-I",
    "qcc-sigma-I",
    "qcc-pi-II",
    "qcc-sigma-II",
)
OBSERVABLES = ("projector", "sigma_x")
ARMS = ("I", "II")

# Sizes per operation class. They set the cost of a cycle, so they are
# constants rather than seeded values.
ONESHOT_MC_TRIALS = 20_000
ONESHOT_SWEEP_POINTS = 21
ONESHOT_GRID_POINTS = 1024
SWEEP_QCC_POINTS = 101
SWEEP_NEUTRON_POINTS = 201
MC_POINTER_TRIALS = 200_000
MC_CSV_TRIALS = 50_000
MC_INTENSITY_TRIALS = 200_000


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a qccsim argv and the work it stands for.

    ``items`` counts work units: 1 per one-shot run, points per sweep,
    trials per Monte Carlo run.
    """

    cls: str
    argv: tuple[str, ...]
    items: int


def _num(x: float) -> str:
    return repr(float(x))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _pointer_args(rng: random.Random) -> list[str]:
    context = rng.choice(CONTEXTS)
    args = [f"--context={context}", f"--g={_num(rng.uniform(0.05, 0.3))}"]
    if context == "anomalous":
        args.append(f"--tan-theta={_num(rng.uniform(1.0, 5.0))}")
    args.append(f"--pointer-width={_num(rng.uniform(0.5, 2.0))}")
    return args


def _qcc_args(rng: random.Random) -> list[str]:
    return [
        f"--g={_num(rng.uniform(0.005, 0.1))}",
        f"--observable-I={rng.choice(OBSERVABLES)}",
        f"--observable-II={rng.choice(OBSERVABLES)}",
        f"--pointer-width={_num(rng.uniform(0.5, 2.0))}",
    ]


def _mc_seed(rng: random.Random) -> str:
    return f"--seed={rng.randrange(2**32)}"


def _oneshot_cycle(rng: random.Random, out: Path) -> list[Op]:
    wv = _pointer_args(rng)
    grid = _pointer_args(rng)
    if rng.random() < 0.5:
        mc = [
            "--mode=pointer",
            *_pointer_args(rng),
            f"--workers={rng.choice((1, 2))}",
            f"--csv={out / 'oneshot-trials.csv'}",
        ]
    else:
        mc = [
            "--mode=intensity-absorber",
            f"--arm={rng.choice(ARMS)}",
            f"--M={_num(rng.uniform(0.05, 1.5))}",
        ]
    scenario = rng.choice(("qcc", "neutron-absorber", "neutron-magnetic"))
    grid_flag = {
        "qcc": f"--g={_num(rng.uniform(0.0, 0.05))}:{_num(rng.uniform(0.1, 0.5))}",
        "neutron-absorber": f"--M=0:{_num(rng.uniform(0.5, 2.0))}",
        "neutron-magnetic": f"--alpha={_num(-rng.uniform(1.0, math.pi))}:{_num(rng.uniform(1.0, math.pi))}",
    }[scenario]
    ops = [
        Op("qcc", ("qcc", *_qcc_args(rng)), 1),
        Op("qcc-joint", ("qcc-joint", *_qcc_args(rng)), 1),
        Op("weak-value", ("weak-value", *wv), 1),
        Op(
            "weak-value-grid",
            (
                "weak-value",
                *grid,
                f"--grid-points={ONESHOT_GRID_POINTS}",
                f"--csv={out / 'oneshot-grid.csv'}",
            ),
            1,
        ),
        Op(
            "neutron-absorber",
            ("neutron-absorber", f"--arm={rng.choice(ARMS)}", f"--M={_num(rng.uniform(0.0, 2.0))}"),
            1,
        ),
        Op(
            "neutron-magnetic",
            (
                "neutron-magnetic",
                f"--arm={rng.choice(ARMS)}",
                f"--alpha={_num(_signed(rng, 0.01, math.pi))}",
            ),
            1,
        ),
        Op("montecarlo", ("montecarlo", *mc, f"--n={ONESHOT_MC_TRIALS}", _mc_seed(rng)), 1),
        Op(
            "sweep",
            (
                "sweep",
                f"--scenario={scenario}",
                f"{grid_flag}:{ONESHOT_SWEEP_POINTS}",
                f"--arm={rng.choice(ARMS)}",
                f"--csv={out / 'oneshot-sweep.csv'}",
            ),
            1,
        ),
    ]
    rng.shuffle(ops)
    return ops


def _sweep_cycle(rng: random.Random, out: Path) -> list[Op]:
    # Observables stay at their defaults: a sigma_x coupling has one more
    # eigenbranch than a projector, so choosing it by seed would change
    # the cost per point.
    g_lo, g_hi = rng.uniform(0.0, 0.05), rng.uniform(0.2, 0.5)
    a_hi = rng.uniform(1.0, math.pi)
    ops = [
        Op(
            "sweep-qcc",
            (
                "sweep",
                "--scenario=qcc",
                f"--g={_num(g_lo)}:{_num(g_hi)}:{SWEEP_QCC_POINTS}",
                f"--pointer-width={_num(rng.uniform(0.5, 2.0))}",
                f"--csv={out / 'sweep-qcc.csv'}",
            ),
            SWEEP_QCC_POINTS,
        ),
        Op(
            "sweep-absorber",
            (
                "sweep",
                "--scenario=neutron-absorber",
                f"--M=0:{_num(rng.uniform(0.5, 2.0))}:{SWEEP_NEUTRON_POINTS}",
                f"--arm={rng.choice(ARMS)}",
                f"--csv={out / 'sweep-absorber.csv'}",
            ),
            SWEEP_NEUTRON_POINTS,
        ),
        Op(
            "sweep-magnetic",
            (
                "sweep",
                "--scenario=neutron-magnetic",
                f"--alpha={_num(-a_hi)}:{_num(a_hi)}:{SWEEP_NEUTRON_POINTS}",
                f"--arm={rng.choice(ARMS)}",
                f"--csv={out / 'sweep-magnetic.csv'}",
            ),
            SWEEP_NEUTRON_POINTS,
        ),
    ]
    rng.shuffle(ops)
    return ops


def _montecarlo_cycle(rng: random.Random, out: Path) -> list[Op]:
    # The 1- and 2-worker runs share every parameter so that their
    # records can be compared; they stay adjacent, 1 worker first.
    pointer = ["montecarlo", "--mode=pointer", *_pointer_args(rng), f"--n={MC_POINTER_TRIALS}", _mc_seed(rng)]
    pair = [
        Op("pointer-1w", (*pointer, "--workers=1"), MC_POINTER_TRIALS),
        Op("pointer-2w", (*pointer, "--workers=2"), MC_POINTER_TRIALS),
    ]
    singles = [
        Op(
            "pointer-csv",
            (
                "montecarlo",
                "--mode=pointer",
                *_pointer_args(rng),
                f"--n={MC_CSV_TRIALS}",
                _mc_seed(rng),
                f"--workers={rng.choice((1, 2))}",
                f"--csv={out / 'mc-trials.csv'}",
            ),
            MC_CSV_TRIALS,
        ),
        Op(
            "intensity-absorber",
            (
                "montecarlo",
                "--mode=intensity-absorber",
                f"--arm={rng.choice(ARMS)}",
                f"--M={_num(rng.uniform(0.05, 1.5))}",
                f"--n={MC_INTENSITY_TRIALS}",
                _mc_seed(rng),
            ),
            MC_INTENSITY_TRIALS,
        ),
        Op(
            "intensity-magnetic",
            (
                "montecarlo",
                "--mode=intensity-magnetic",
                f"--arm={rng.choice(ARMS)}",
                f"--alpha={_num(_signed(rng, 0.1, 2.0))}",
                f"--n={MC_INTENSITY_TRIALS}",
                _mc_seed(rng),
            ),
            MC_INTENSITY_TRIALS,
        ),
    ]
    groups: list[list[Op]] = [pair] + [[op] for op in singles]
    rng.shuffle(groups)
    return [op for group in groups for op in group]


_CYCLES = {
    "oneshot": _oneshot_cycle,
    "sweep": _sweep_cycle,
    "montecarlo": _montecarlo_cycle,
}


def cycles(workload: str, seed: int, out: Path) -> Iterator[list[Op]]:
    """Endless cycles of ``workload`` for ``seed``; CSV artifacts go under ``out``."""
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLES[workload]
    while True:
        yield make(rng, out)
