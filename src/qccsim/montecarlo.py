"""Finite-statistics emulation of weak measurement runs.

Each trial owns one counter block of a counter-based generator, so a
batch is a pure function of (seed, n): any chunking or thread layout
reproduces it bit for bit. Postselection is Bernoulli with the exact
coupled probability; accepted trials draw a pointer position from the
exact final density by inverse-CDF on a dense tabulation.
"""

from __future__ import annotations

import math
import os

from ._record import Record
from .errors import CapacityError, ValidationError
from .neutron import IntensityReport
from .pointer import GaussianPointerState, density, mean_position, support
from .tolerances import MAX_TRIALS
from .weakmeas import WeakMeasurementResult

DENSITY_POINTS = 4096

# Uniform draws consumed per trial; one full Philox counter block, so
# trial i always starts at counter offset i.
DRAWS_PER_TRIAL = 4


class TrialBatch(Record):
    """Outcomes of n independent pre/postselected trials.

    ``postselected`` is the per-trial success mask; ``positions`` holds
    the pointer readouts of successful trials, in trial order. The counts
    ``n_total`` and ``n_postselected`` are attributes read off the mask, not fields.
    """

    positions: np.ndarray
    postselected: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        positions = np.asarray(self.positions, dtype=float)
        mask = np.asarray(self.postselected, dtype=bool)
        n_postselected = int(mask.sum())
        if positions.size != n_postselected:
            raise ValidationError("need one position per postselected trial")
        if positions.size and not np.all(np.isfinite(positions)):
            raise ValidationError("positions contain non-finite entries")
        positions = positions.copy()
        positions.flags.writeable = False
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "postselected", mask)
        object.__setattr__(self, "n_total", mask.size)
        object.__setattr__(self, "n_postselected", n_postselected)


class EstimatorReport(Record):
    """Weak-value estimate from a trial batch."""

    mean_shift: float
    std_error: float
    estimated_wv_re: float
    postselect_rate: float
    n_total: int
    n_postselected: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValidationError("standard error cannot be negative")
        if abs(self.postselect_rate - self.n_postselected / self.n_total) > 1e-12:
            raise ValidationError("postselect_rate inconsistent with counts")


def _tabulated_inverse_cdf(pointer_final: GaussianPointerState):
    """Inverse CDF of the normalized |phi_f(x)|^2 on a dense grid."""
    import numpy as np
    xs = np.linspace(*support(pointer_final), DENSITY_POINTS)
    dens = density(pointer_final, xs)
    segments = 0.5 * (dens[1:] + dens[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(segments)))
    cdf /= cdf[-1]

    def draw(u: np.ndarray) -> np.ndarray:
        return np.interp(u, cdf, xs)

    return draw


def check_trial_count(n: int) -> None:
    """The trial count rule: at least one trial, at most ``MAX_TRIALS``."""
    if n < 1:
        raise ValidationError(f"need at least one trial, got n={n}")
    if n > MAX_TRIALS:
        raise CapacityError(f"trial count {n} exceeds limit {MAX_TRIALS}")


def check_seed(seed: int) -> None:
    """The seed rule: a Philox key, at least 0 and below 2**128."""
    if not 0 <= seed < 2**128:
        raise ValidationError(f"Philox key must be >= 0 and < 2**128, got {seed}")


def _trial_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    from numpy.random import Generator, Philox  # here, so runs that never sample skip its import

    bits = Philox(key=seed)
    if start:
        bits.advance(start)
    return Generator(bits).random((count, DRAWS_PER_TRIAL))


def sample_trials(coupled: WeakMeasurementResult, n: int, seed: int, workers: int = 1) -> TrialBatch:
    """Sample n trials of a coupled pre/postselected run.

    ``coupled`` is the exact run (see
    :func:`~qccsim.weakmeas.couple_and_postselect`): its coupled
    probability drives postselection and its final pointer the readout.
    ``workers`` only sets the execution layout; results are identical
    for any value because trial i derives all its randomness from
    counter block i of the seeded generator.
    """
    import numpy as np
    check_trial_count(n)
    check_seed(seed)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    p_post = min(max(coupled.postselect_prob_coupled, 0.0), 1.0)
    draw = (
        _tabulated_inverse_cdf(coupled.pointer_final)
        if p_post > 0.0 and coupled.pointer_final.components
        else None
    )

    def run_chunk(bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, count = bounds
        u = _trial_uniforms(seed, start, count)
        mask = u[:, 0] < p_post
        pos = draw(u[mask, 1]) if draw is not None else np.empty(0)
        return mask, pos

    # One chunk per thread, never more than trials or CPUs; the output does not depend on it.
    chunk_size = -(-n // min(workers, n, os.cpu_count() or 1))
    bounds = [(s, min(chunk_size, n - s)) for s in range(0, n, chunk_size)]
    if len(bounds) == 1:
        parts = [run_chunk(bounds[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so that one-chunk runs skip importing logging

        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            parts = list(pool.map(run_chunk, bounds))

    return TrialBatch(np.concatenate([p for _, p in parts]), np.concatenate([m for m, _ in parts]))


def estimate_weak_value(batch: TrialBatch, phi0: GaussianPointerState, g: float) -> EstimatorReport:
    """Estimate Re(A^w) as (mean readout - initial mean) / g."""
    if batch.n_postselected < 2:
        raise ValidationError(
            f"insufficient statistics: {batch.n_postselected} postselected trials"
        )
    if g == 0.0:
        raise ValidationError("weak-value estimation needs a nonzero coupling")
    import numpy as np
    mean_shift = float(batch.positions.mean()) - mean_position(phi0)
    with np.errstate(over="ignore"):
        spread = float(batch.positions.std(ddof=1))
    if not math.isfinite(spread):  # squared readouts of a ~1e154-wide pointer overflow: rescale
        scale = float(np.max(np.abs(batch.positions)))
        spread = scale * float((batch.positions / scale).std(ddof=1))
    std_error = spread / math.sqrt(batch.n_postselected) / abs(g)
    return EstimatorReport(
        mean_shift=mean_shift,
        std_error=std_error,
        estimated_wv_re=mean_shift / g,
        postselect_rate=batch.n_postselected / batch.n_total,
        n_total=batch.n_total,
        n_postselected=batch.n_postselected,
    )


class IntensityCounts(Record):
    """Detection counts for a reference/perturbed intensity experiment."""

    n_trials: int
    n_reference: int
    n_perturbed: int
    rate_reference: float
    rate_perturbed: float
    ratio: float
    ratio_std_error: float
    two_proportion_z: float
    seed: int


def sample_intensity_experiment(exact: IntensityReport, n: int, seed: int) -> IntensityCounts:
    """Bernoulli sampling of reference and perturbed detections.

    Detection probabilities are the exact intensities of one run's
    report (``intensity_absorber`` or ``intensity_magnetic``). Both runs
    use n trials each, with independent uniforms from the same
    counter-based stream; the count ratio estimates the exact intensity
    ratio with a delta-method standard error.
    """
    check_trial_count(n)
    check_seed(seed)
    p_ref = exact.i0
    p_pert = exact.i_perturbed
    u = _trial_uniforms(seed, 0, n)
    n_ref = int((u[:, 0] < p_ref).sum())
    n_pert = int((u[:, 1] < p_pert).sum())
    if n_ref == 0:
        raise ValidationError("no reference detections; increase n")
    r_ref = n_ref / n
    r_pert = n_pert / n
    ratio = r_pert / r_ref
    if n_pert > 0:
        ratio_se = ratio * math.sqrt((1.0 - r_pert) / (n * r_pert) + (1.0 - r_ref) / (n * r_ref))
    else:
        ratio_se = math.nan  # undefined without perturbed detections; JSON null
    pooled = (n_ref + n_pert) / (2.0 * n)
    denom = math.sqrt(pooled * (1.0 - pooled) * 2.0 / n) if 0.0 < pooled < 1.0 else 0.0
    if denom > 0.0:
        z = (r_pert - r_ref) / denom
    else:
        z = 0.0 if r_pert == r_ref else math.inf
    return IntensityCounts(
        n_trials=n,
        n_reference=n_ref,
        n_perturbed=n_pert,
        rate_reference=r_ref,
        rate_perturbed=r_pert,
        ratio=ratio,
        ratio_std_error=ratio_se,
        two_proportion_z=z,
        seed=int(seed),
    )
