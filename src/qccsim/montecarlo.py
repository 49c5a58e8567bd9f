"""Finite-statistics emulation of weak measurement runs.

Each pointer trial owns one counter block of a counter-based generator,
and intensity trial i the stream's words 2i and 2i + 1, so a sample is a
pure function of (seed, n): any chunking or thread layout reproduces it
bit for bit. Each chunk draws the raw 64-bit words of its trials 2**14 at
a time, small enough to stay in cache, and compares them with integer
bounds, so that only an accepted trial's readout word becomes a uniform;
it keeps only the acceptance mask and readouts (two counts for an
intensity run). A block's accepted readout words are gathered by
``np.compress`` at acceptances between 0.1 and 0.9, and by boolean
indexing outside that band, where its per-trial branch is predictable
(``COMPRESS_BAND``); both give the same words in trial order.
Postselection is Bernoulli with the exact coupled probability; accepted
trials draw a pointer position from the exact final density by
inverse-CDF on a dense tabulation, looked up in sorted order with
unchanged bits.
"""

from __future__ import annotations

import math
import os

from ._record import Record
from .errors import CapacityError, ValidationError
from .pointer import check_grid_points, density, mean_position, support
from .tolerances import MAX_TRIALS, spans

# Inverse-CDF knots while the support spans at most 32 widths; past that, the next power of two
# that keeps them at most 1/KNOTS_PER_WIDTH width apart, within check_grid_points' cap.
DENSITY_POINTS = 4096
KNOTS_PER_WIDTH = 128

# Philox words per pointer trial: one full counter block, so trial i always starts at counter
# offset i. Column 0 decides acceptance, column 1 is the readout; columns 2 and 3 are drawn and
# never read. An intensity trial draws only its two columns, the reference and perturbed detections.
DRAWS_PER_TRIAL = 4

# Acceptance band where np.compress gathers a block's accepted readout words, in one index pass.
# Boolean indexing branches once per trial, so it is cheaper only where that branch is predictable.
# Interleaved best-of-40 sample_trials runs of 200k trials (Xeon, numpy 2.4): compress is 12% faster
# at p = 0.5 and 2-7% at p = 0.108; boolean indexing is 1-3% faster at p = 0.092 and 2-5% at p = 0.99;
# from p = 0.85 to 0.95 the two are within 1%.
COMPRESS_BAND = (0.1, 0.9)


class EstimatorReport(Record):
    """Weak-value estimate from a trial sample."""

    mean_shift: float
    std_error: float
    estimated_wv_re: float
    postselect_rate: float
    n_total: int
    n_postselected: int


def _tabulated_inverse_cdf(pointer_final: GaussianPointerState):
    """Inverse CDF of the normalized |phi_f(x)|^2 on a dense grid, sized from the pointer's support."""
    import numpy as np
    lo, hi = support(pointer_final)
    intervals = math.ceil(KNOTS_PER_WIDTH * (hi - lo) / pointer_final.width)
    knots = DENSITY_POINTS if intervals <= DENSITY_POINTS else 1 << intervals.bit_length()
    check_grid_points(knots)
    xs = np.linspace(lo, hi, knots)
    dens = density(pointer_final, xs)
    segments = 0.5 * (dens[1:] + dens[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(segments)))
    cdf /= cdf[-1]

    def draw(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        # np.interp is elementwise, so the order changes no bit; near-sorted draws let its bin
        # search start next to each answer. The key floor(u * 4096) has 12 bits, held in a uint16:
        # a radix sort of those keys is cheaper than a float sort.
        order = np.argsort((u * DENSITY_POINTS).astype(np.uint16), kind="stable")
        out[order] = np.interp(u[order], cdf, xs)
        return out

    return draw


def _check_integer(value, name: str) -> None:
    """A count is a Python or numpy integer: not a bool, a float or NaN."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_trial_count(n: int) -> None:
    """The trial count rule: an integer, at least one trial, at most ``MAX_TRIALS``."""
    _check_integer(n, "trial count n")
    if n < 1:
        raise ValidationError(f"need at least one trial, got n={n}")
    if n > MAX_TRIALS:
        raise CapacityError(f"trial count {n} exceeds limit {MAX_TRIALS}")


def check_seed(seed: int) -> None:
    """The seed rule: an integer Philox key, at least 0 and below 2**128."""
    _check_integer(seed, "seed")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"Philox key must be >= 0 and < 2**128, got {seed}")


def check_workers(workers: int) -> None:
    """The worker rule: an integer, at least one thread."""
    _check_integer(workers, "worker count")
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers!r}")


def check_estimation_coupling(g: float) -> None:
    """The estimation rule: (mean readout - initial mean) / g needs a finite g != 0."""
    if not abs(g) < math.inf:
        raise ValidationError(f"weak-value estimation needs a finite coupling, got {g!r}")
    if g == 0.0:
        raise ValidationError(f"weak-value estimation needs a nonzero coupling, got {g!r}")


def _word_bound(p: float) -> int:
    """The W for which a Philox word w passes ``w < W`` exactly when its uniform is below p."""
    # numpy's Philox uniform of w is (w >> 11) * 2**-53, and p * 2**53 is exact (a power-of-two
    # scaling), so for an integer k = w >> 11 < 2**53: u < p <=> k < ceil(p * 2**53) <=> w < W.
    # At p >= 1 every word passes (W = 2**64); at p <= 0, -0.0 or NaN none does, as u < nan is False.
    if not p > 0.0:
        return 0
    return math.ceil(p * 2.0**53) << 11 if p < 1.0 else 2**64


def _trial_tables(seed: int, start: int, stop: int, per_trial: int = DRAWS_PER_TRIAL) -> Iterator[tuple[int, np.ndarray]]:
    """``(first trial, words)`` for each block of trials from ``start`` to ``stop`` (:func:`spans`):
    row i of ``words`` holds the next ``per_trial`` raw ``uint64`` words of the stream, for
    trial ``first + i``. ``start`` counts counter blocks, so a run of fewer words per trial starts
    at 0. Each block is a new array; drop it before asking for the next, so that only one is alive."""
    from numpy.random import Philox  # here, so runs that never sample skip its import

    bits = Philox(key=seed)
    bits.advance(start)
    for first, last in spans(start, stop):
        yield first, bits.random_raw((last - first) * per_trial).reshape(-1, per_trial)


def sample_trials(coupled: WeakMeasurementResult, n: int, seed: int, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sample n trials of a coupled pre/postselected run, as ``(positions, postselected)``: the
    pointer readouts of the accepted trials, in trial order, and the per-trial acceptance mask.

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
    bound = _word_bound(coupled.postselect_prob_coupled)
    final = coupled.pointer_final
    draw = _tabulated_inverse_cdf(final) if bound and final.components else None
    # Each chunk writes its mask and its readouts from its first trial on; unwritten pages cost no memory.
    mask, readouts = np.empty(n, dtype=bool), np.empty(n)
    low, high = map(_word_bound, COMPRESS_BAND)
    gather = np.compress if low <= bound < high else lambda keep, column: column[keep]

    def run_chunk(span: tuple[int, int]) -> np.ndarray:
        filled = span[0]
        for first, words in _trial_tables(seed, *span):
            accepted = gather(np.less(words[:, 0], bound, out=mask[first:first + len(words)]), words[:, 1])
            del words
            if draw is not None:  # numpy's Philox double of each accepted readout word, bit for bit
                filled += draw((accepted >> 11) * 2.0**-53, readouts[filled:filled + accepted.size]).size
        return readouts[span[0]:filled]

    # One chunk per thread, never more than trials or CPUs; the output does not depend on it.
    chunks = spans(0, n, -(-n // min(workers, n, os.cpu_count() or 1)))
    if len(chunks) == 1:
        parts = [run_chunk(chunks[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so that one-chunk runs skip importing logging

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(run_chunk, chunks))
    return (np.concatenate(parts) if len(parts) > 1 else parts[0]), mask


def estimate_weak_value(trials: tuple[np.ndarray, np.ndarray], phi0: GaussianPointerState, g: float) -> EstimatorReport:
    """Estimate Re(A^w) as (mean readout - initial mean) / g from :func:`sample_trials`'s pair."""
    import numpy as np
    positions, postselected = trials
    if not np.isfinite(positions).all():
        raise ValidationError("positions contain non-finite entries")
    n_postselected = positions.size
    if n_postselected < 2:
        raise ValidationError(f"insufficient statistics: {n_postselected} postselected trials")
    check_estimation_coupling(g)
    mean_shift = float(positions.mean()) - mean_position(phi0)
    with np.errstate(over="ignore"):
        spread = float(positions.std(ddof=1))
    if not math.isfinite(spread):  # squared readouts of a ~1e154-wide pointer overflow: rescale
        scale = float(np.max(np.abs(positions)))
        spread = scale * float((positions / scale).std(ddof=1))
    std_error = spread / math.sqrt(n_postselected) / abs(g)
    estimate = mean_shift / g
    for field, value in (("estimated_wv_re", estimate), ("std_error", std_error)):
        if not math.isfinite(value):  # a tiny coupling divides a finite shift past the float range
            raise OverflowError(f"weak-value estimate overflows: {field} at g={g!r}")
    return EstimatorReport(
        mean_shift=mean_shift,
        std_error=std_error,
        estimated_wv_re=estimate,
        postselect_rate=n_postselected / postselected.size,
        n_total=postselected.size,
        n_postselected=n_postselected,
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
    use n trials each: trial i compares the stream's words 2i and 2i + 1
    with the reference and perturbed probabilities; the count ratio
    estimates the exact intensity ratio with a delta-method standard error.
    """
    check_trial_count(n)
    check_seed(seed)
    import numpy as np
    p_pert = exact.i_perturbed
    if getattr(p_pert, "ndim", 0):
        raise ValidationError(f"one run's report expected, got a sweep's: i_perturbed has shape {p_pert.shape}")
    if not 0.0 < exact.i0 <= 1.0:  # NaN fails every comparison, so it is rejected too
        raise ValidationError(f"reference intensity i0 must be in (0, 1], got {exact.i0!r}")
    if not 0.0 <= p_pert <= 1.0:
        raise ValidationError(f"perturbed intensity i_perturbed must be in [0, 1], got {p_pert!r}")
    bound_ref, bound_pert = _word_bound(exact.i0), _word_bound(p_pert)
    n_ref = n_pert = 0
    for _, words in _trial_tables(seed, 0, n, 2):
        n_ref += int(np.count_nonzero(words[:, 0] < bound_ref))
        n_pert += int(np.count_nonzero(words[:, 1] < bound_pert))
        del words
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
    # n_ref >= 1 makes pooled > 0, pooled = 1 forces n_ref = n_pert = n, and for n <= MAX_TRIALS
    # 0 < pooled < 1 gives denom > 0: a zero denom means equal rates, so z = 0.
    z = (r_pert - r_ref) / denom if denom else 0.0
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
