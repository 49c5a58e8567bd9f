"""Finite-statistics emulation of weak measurement runs.

Each trial owns one counter block of a counter-based generator, so a
batch is a pure function of (seed, n): any chunking or thread layout
reproduces it bit for bit. Trials are drawn 2**20 at a time, keeping only
the acceptance mask and readouts (two counts for an intensity run).
Postselection is Bernoulli with the exact coupled probability; accepted
trials draw a pointer position from the exact final density by inverse-CDF
on a dense tabulation, looked up in sorted blocks with unchanged bits.
"""

from __future__ import annotations

import math
import os

from ._record import Record
from .errors import CapacityError, ValidationError
from .pointer import density, mean_position, support
from .tolerances import MAX_TRIALS

DENSITY_POINTS = 4096

# Uniform draws consumed per trial; one full Philox counter block, so
# trial i always starts at counter offset i.
DRAWS_PER_TRIAL = 4
# Trials drawn at a time (a 32 MB table of uniforms), so memory stays bounded at any n.
COUNTER_BLOCK = 2**20
# Draws sorted at a time, so np.interp finds each bin from the last one; a larger sort leaves the cache.
LOOKUP_BLOCK = 2**14


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
        positions = np.array(self.positions, dtype=float)  # copies, frozen below
        mask = np.array(self.postselected, dtype=bool)
        n_postselected = int(mask.sum())
        if positions.size != n_postselected:
            raise ValidationError("need one position per postselected trial")
        if positions.size and not np.all(np.isfinite(positions)):
            raise ValidationError("positions contain non-finite entries")
        positions.flags.writeable = False
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


def _tabulated_inverse_cdf(pointer_final: GaussianPointerState):
    """Inverse CDF of the normalized |phi_f(x)|^2 on a dense grid."""
    import numpy as np
    xs = np.linspace(*support(pointer_final), DENSITY_POINTS)
    dens = density(pointer_final, xs)
    segments = 0.5 * (dens[1:] + dens[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(segments)))
    cdf /= cdf[-1]

    def draw(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        for s in range(0, u.size, LOOKUP_BLOCK):
            order = u[s:s + LOOKUP_BLOCK].argsort()
            out[s:s + LOOKUP_BLOCK][order] = np.interp(u[s:s + LOOKUP_BLOCK][order], cdf, xs)
        return out

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


def check_workers(workers: int) -> None:
    """The worker rule: at least one thread."""
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers!r}")


def check_estimation_coupling(g: float) -> None:
    """The estimation rule: (mean readout - initial mean) / g needs g != 0."""
    if g == 0.0:
        raise ValidationError(f"weak-value estimation needs a nonzero coupling, got {g!r}")


def _trial_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    from numpy.random import Generator, Philox  # here, so runs that never sample skip its import

    bits = Philox(key=seed)
    bits.advance(start)
    return Generator(bits).random((count, DRAWS_PER_TRIAL))


def _blocks(start: int, count: int, size: int) -> list[tuple[int, int]]:
    """``(start, count)`` of each run of ``size`` trials in a range of trials, in order."""
    return [(s, min(size, start + count - s)) for s in range(start, start + count, size)]


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
    check_workers(workers)
    p_post = min(max(coupled.postselect_prob_coupled, 0.0), 1.0)
    final = coupled.pointer_final
    draw = _tabulated_inverse_cdf(final) if p_post > 0.0 and final.components else None
    # Each chunk writes its mask and its readouts from its first trial on; unwritten pages cost no memory.
    mask, readouts = np.empty(n, dtype=bool), np.empty(n)

    def run_chunk(bounds: tuple[int, int]) -> np.ndarray:
        filled = bounds[0]
        for start, count in _blocks(*bounds, COUNTER_BLOCK):
            u = _trial_uniforms(seed, start, count)
            accepted = u[np.less(u[:, 0], p_post, out=mask[start:start + count]), 1]
            del u  # freed before the lookup allocates
            if draw is not None:
                filled += draw(accepted, readouts[filled:filled + accepted.size]).size
        return readouts[bounds[0]:filled]

    # One chunk per thread, never more than trials or CPUs; the output does not depend on it.
    bounds = _blocks(0, n, -(-n // min(workers, n, os.cpu_count() or 1)))
    if len(bounds) == 1:
        parts = [run_chunk(bounds[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so that one-chunk runs skip importing logging

        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            parts = list(pool.map(run_chunk, bounds))
    positions = np.concatenate(parts) if len(parts) > 1 else parts[0]
    del parts, readouts  # once concatenated, the buffer is freed before the batch copies the positions
    return TrialBatch(positions, mask)


def estimate_weak_value(batch: TrialBatch, phi0: GaussianPointerState, g: float) -> EstimatorReport:
    """Estimate Re(A^w) as (mean readout - initial mean) / g."""
    if batch.n_postselected < 2:
        raise ValidationError(
            f"insufficient statistics: {batch.n_postselected} postselected trials"
        )
    check_estimation_coupling(g)
    import numpy as np
    mean_shift = float(batch.positions.mean()) - mean_position(phi0)
    with np.errstate(over="ignore"):
        spread = float(batch.positions.std(ddof=1))
    if not math.isfinite(spread):  # squared readouts of a ~1e154-wide pointer overflow: rescale
        scale = float(np.max(np.abs(batch.positions)))
        spread = scale * float((batch.positions / scale).std(ddof=1))
    std_error = spread / math.sqrt(batch.n_postselected) / abs(g)
    estimate = mean_shift / g
    for field, value in (("estimated_wv_re", estimate), ("std_error", std_error)):
        if not math.isfinite(value):  # a tiny coupling divides a finite shift past the float range
            raise OverflowError(f"weak-value estimate overflows: {field} at g={g!r}")
    return EstimatorReport(
        mean_shift=mean_shift,
        std_error=std_error,
        estimated_wv_re=estimate,
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
    if getattr(p_pert, "ndim", 0):
        raise ValidationError(f"one run's report expected, got a sweep's: i_perturbed has shape {p_pert.shape}")
    n_ref = n_pert = 0
    for block in _blocks(0, n, COUNTER_BLOCK):
        u = _trial_uniforms(seed, *block)
        n_ref += int((u[:, 0] < p_ref).sum())
        n_pert += int((u[:, 1] < p_pert).sum())
        del u  # freed before the next block is drawn
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
