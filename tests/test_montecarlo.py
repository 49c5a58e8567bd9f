"""Trial sampling determinism and statistical agreement with exact results."""

import concurrent.futures
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qccsim.cli import build_context
from qccsim.errors import CapacityError, ValidationError
import qccsim.montecarlo as montecarlo
from qccsim.montecarlo import (
    DENSITY_POINTS,
    DRAWS_PER_TRIAL,
    _tabulated_inverse_cdf,
    _trial_tables,
    _word_bound,
    estimate_weak_value,
    sample_intensity_experiment,
    sample_trials,
)
from qccsim.neutron import AbsorberConfig, MagneticConfig, intensity_absorber, intensity_magnetic
from qccsim.pointer import make_gaussian
from qccsim.serialize import dumps_json, write_trials_csv
from qccsim.tolerances import BLOCK_ROWS
from qccsim.weakmeas import couple_and_postselect

from oracles import (
    CHI2_999_DF63,
    gaussian_amplitude,
    intensity_uniforms_oracle,
    inverse_cdf_oracle,
    sample_trials_oracle,
    trial_uniforms_oracle,
)

PHI0 = make_gaussian(0.0, 1.0)
SEED = 12345
# Trial counts on each side of the table edges, and past 2**20.
TABLE_EDGES = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5, 2**20 + 17]
# Acceptance about 0.06, 0.5 and 0.998 at g = 0.1: below montecarlo.COMPRESS_BAND, inside it and above it.
GATHER_CONTEXTS = ["anomalous", "path-null", "spin-trivial"]
# Probabilities at the edges of the integer word bound: trial 4's two drawn uniforms, each with
# its float neighbours. A pointer run's are below 1/2, where p * 2**53 of a neighbour is not an
# integer; an intensity run's (0.84 and 0.69) and their neighbours lie on the 2**-53 grid.
EDGE_N = 2000
EDGE_UNIFORMS = trial_uniforms_oracle(SEED, 0, EDGE_N)
INTENSITY_EDGE_UNIFORMS = intensity_uniforms_oracle(SEED, EDGE_N)


def edge_probabilities(uniforms: np.ndarray) -> list[float]:
    return [
        0.0, -0.0, 5e-324, 2.0**-53,
        *(float(v) for u in uniforms[4, :2] for v in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0))),
        1.0 - 2.0**-53, 1.0, float(np.nextafter(1.0, 2.0)), math.inf, -math.inf, math.nan,
    ]


EDGE_PROBABILITIES = edge_probabilities(EDGE_UNIFORMS)


def drawn_tables(seed: int, start: int, count: int) -> np.ndarray:
    """The word blocks ``_trial_tables`` yields, stacked, as numpy's Philox doubles ``(w >> 11) * 2**-53``."""
    tables = list(_trial_tables(seed, start, start + count))
    assert [first for first, _ in tables] == list(range(start, start + count, BLOCK_ROWS))
    return (np.concatenate([words for _, words in tables]) >> 11) * 2.0**-53


def batches_equal(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> bool:
    """Two ``(positions, postselected)`` samples hold the same trials."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestDeterminism:
    def test_worker_layout_does_not_change_results(self):
        ctx, obs = build_context("qcc-pi-I")
        batches = [
            sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 10_000, SEED, workers=w)
            for w in (1, 3, 7)
        ]
        assert batches_equal(batches[0], batches[1])
        assert batches_equal(batches[0], batches[2])

    def test_same_seed_reproduces_bit_for_bit(self):
        ctx, obs = build_context("anomalous")
        a = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 5_000, SEED)
        b = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 5_000, SEED)
        assert batches_equal(a, b)

    def test_different_seed_changes_outcomes(self):
        ctx, obs = build_context("qcc-pi-I")
        a = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 5_000, SEED)
        b = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 5_000, SEED + 1)
        assert not np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (64, 10)])
    def test_thread_pool_is_capped_by_chunks_and_cpus(self, monkeypatch, cpus, expected):
        pools = []

        class RecordingPool:
            """Runs chunks in the calling thread and records the requested size."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        ctx, obs = build_context("qcc-pi-I")
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 10, SEED, workers=10**6)
        assert pools == [expected]
        assert batches_equal(trials, sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 10, SEED))

    def test_chunk_count_follows_cpus_not_workers(self, monkeypatch):
        chunks = []

        def counting_tables(seed, start, stop):
            chunks.append(stop - start)
            return _trial_tables(seed, start, stop)

        monkeypatch.setattr(montecarlo, "_trial_tables", counting_tables)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        ctx, obs = build_context("qcc-pi-I")
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 20_000, SEED, workers=10**6)
        assert sorted(chunks) == [10_000, 10_000]
        assert batches_equal(trials, sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 20_000, SEED))

    def test_two_workers_equal_one_across_counter_blocks(self, monkeypatch, tmp_path):
        # One worker draws 64 full tables and one of 17 trials; two draw 32 full tables each, then 9 and 8 trials.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        coupled = couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.05)
        n = 2**20 + 17
        one, two = (sample_trials(coupled, n, SEED, workers=w) for w in (1, 2))
        assert batches_equal(one, two)
        write_trials_csv(one, tmp_path / "one.csv")
        write_trials_csv(two, tmp_path / "two.csv")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_threads_beyond_the_cpus_fill_the_shared_mask(self, monkeypatch):
        # Eight chunk threads on fewer cores, switching often, each write their own mask slice.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        coupled = couple_and_postselect(*build_context("anomalous", tan_theta=3.0), PHI0, 0.1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trials = sample_trials(coupled, 80_003, SEED, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert batches_equal(trials, sample_trials(coupled, 80_003, SEED))

    def test_chunked_stream_matches_contiguous_stream(self):
        whole = trial_uniforms_oracle(SEED, 0, 300)
        assert np.array_equal(drawn_tables(SEED, 100, 120), whole[100:220])
        assert np.array_equal(drawn_tables(SEED, 0, 100), whole[:100])

    @pytest.mark.parametrize("count", TABLE_EDGES)
    def test_tables_across_their_edges_match_the_contiguous_stream(self, count):
        assert np.array_equal(drawn_tables(SEED, 100, count), trial_uniforms_oracle(SEED, 100, count))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", TABLE_EDGES)
    @pytest.mark.parametrize("context", GATHER_CONTEXTS)
    def test_batches_across_table_edges_equal_the_oracle(self, monkeypatch, context, n, workers):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        coupled = couple_and_postselect(*build_context(context, tan_theta=4.0), PHI0, 0.1)
        positions, mask = sample_trials(coupled, n, SEED, workers=workers)
        want_mask, want_positions = sample_trials_oracle(coupled, n, SEED)
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(positions.view(np.uint64), want_positions.view(np.uint64))


class TestWordBound:
    """Raw Philox words compared with an integer bound accept and count exactly the trials whose
    uniform, as ``Generator.random`` draws it, is below p."""

    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    def test_pointer_acceptance_is_the_float_comparison(self, p):
        coupled = couple_and_postselect(*build_context("anomalous", tan_theta=3.0), PHI0, 0.1)
        coupled = coupled._replace(postselect_prob_coupled=p)
        positions, mask = sample_trials(coupled, EDGE_N, SEED)
        want = EDGE_UNIFORMS[:, 0] < p
        assert np.array_equal(mask, want)
        readouts = inverse_cdf_oracle(coupled.pointer_final, EDGE_UNIFORMS[want, 1])[0]
        assert np.array_equal(positions.view(np.uint64), readouts.view(np.uint64))

    @pytest.mark.parametrize("p", [*edge_probabilities(INTENSITY_EDGE_UNIFORMS), 5.0, -1.0])
    def test_intensity_counts_are_the_float_comparison(self, p):
        # The sampler reads only the two intensities; an IntensityReport would reject most of these.
        # Outside [0, 1], or NaN, p is no probability and is rejected by name; so is an i0 of 0.
        n_ref, n_pert = (int(np.count_nonzero(INTENSITY_EDGE_UNIFORMS[:, column] < p)) for column in (0, 1))
        perturbed, reference = SimpleNamespace(i0=0.5, i_perturbed=p), SimpleNamespace(i0=p, i_perturbed=0.5)
        if 0.0 <= p <= 1.0:
            assert sample_intensity_experiment(perturbed, EDGE_N, SEED).n_perturbed == n_pert
        else:
            with pytest.raises(ValidationError, match=rf"^perturbed intensity i_perturbed must be in \[0, 1\], got {p!r}$"):
                sample_intensity_experiment(perturbed, EDGE_N, SEED)
        if not 0.0 < p <= 1.0:
            with pytest.raises(ValidationError, match=rf"^reference intensity i0 must be in \(0, 1\], got {p!r}$"):
                sample_intensity_experiment(reference, EDGE_N, SEED)
        elif n_ref:
            assert sample_intensity_experiment(reference, EDGE_N, SEED).n_reference == n_ref
        else:
            with pytest.raises(ValidationError, match="^no reference detections; increase n$"):
                sample_intensity_experiment(reference, EDGE_N, SEED)

    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    def test_words_next_to_the_bound_compare_as_their_uniforms(self, p):
        # A word on the bound is drawn with probability 2**-64, so the draws above cannot reach it.
        bound = _word_bound(p)
        near = (min(max(bound + step, 0), 2**64 - 1) for step in (-2**11, -1, 0, 1, 2**11))
        words = np.array([0, 2**11, 2**63, 2**64 - 2**11 - 1, 2**64 - 1, *near], dtype=np.uint64)
        assert np.array_equal(words < bound, (words >> 11) * 2.0**-53 < p)


class TestSortedLookup:
    """The inverse-CDF lookup sorts its draws in blocks; every readout keeps plain np.interp's bits."""

    @staticmethod
    def bits(values: np.ndarray) -> list[str]:
        return [v.hex() for v in values.tolist()]

    @pytest.mark.parametrize("size", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
    def test_block_edges(self, size):
        pointer = couple_and_postselect(*build_context("anomalous", tan_theta=3.0), PHI0, 0.1).pointer_final
        u = np.random.default_rng(size).random(size)
        readouts = _tabulated_inverse_cdf(pointer)(u, np.empty_like(u))
        assert self.bits(readouts) == self.bits(inverse_cdf_oracle(pointer, u)[0])

    def test_knots_flat_segments_and_the_unit_interval_ends(self):
        # Branches 200 widths apart: the density between them underflows to 0, so the CDF has tied knots.
        pointer = couple_and_postselect(*build_context("anomalous", tan_theta=3.0), PHI0, 100.0).pointer_final
        cdf = inverse_cdf_oracle(pointer, np.empty(0))[1]
        assert np.count_nonzero(np.diff(cdf) == 0.0) > 100
        flat = cdf[1:][np.diff(cdf) == 0.0]
        u = np.concatenate((cdf, flat, np.nextafter(flat, 0.0), [0.0, 1.0 - 2.0**-53], cdf[::-1]))
        u = np.random.default_rng(3).permutation(u)
        readouts = _tabulated_inverse_cdf(pointer)(u, np.empty_like(u))
        assert self.bits(readouts) == self.bits(inverse_cdf_oracle(pointer, u)[0])

    # Anomalous branches at +-g, each 8 widths inside the support: 32 widths at g = 8.
    @pytest.mark.parametrize("g, knots", [(0.1, DENSITY_POINTS), (8.0, DENSITY_POINTS), (8.5, 2**13),
                                          (100.0, 2**15), (1e3, 2**18)])
    def test_the_knot_count_follows_the_support(self, g, knots):
        pointer = couple_and_postselect(*build_context("anomalous", tan_theta=3.0), PHI0, g).pointer_final
        u = np.random.default_rng(7).random(1000)
        readouts = _tabulated_inverse_cdf(pointer)(u, np.empty_like(u))
        oracle, cdf = inverse_cdf_oracle(pointer, u)
        assert cdf.size == knots
        assert self.bits(readouts) == self.bits(oracle)

    def test_a_support_past_the_knot_limit_is_a_capacity_error(self):
        coupled = couple_and_postselect(*build_context("anomalous", tan_theta=3.0), PHI0, 1e5)
        with pytest.raises(CapacityError, match=r"^grid of 33554432 points exceeds limit 1048576$"):
            sample_trials(coupled, 2000, 1)

    def test_spin_trivial_accepts_nearly_every_trial(self):
        coupled = couple_and_postselect(*build_context("spin-trivial"), PHI0, 0.1)
        assert coupled.postselect_prob_coupled > 0.99
        n = 3 * BLOCK_ROWS + 5
        u = trial_uniforms_oracle(SEED, 0, n)
        accepted = u[u[:, 0] < coupled.postselect_prob_coupled, 1]
        positions, _ = sample_trials(coupled, n, SEED)
        assert self.bits(positions) == self.bits(inverse_cdf_oracle(coupled.pointer_final, accepted)[0])


class TestPostselectionStatistics:
    def test_rate_matches_exact_probability(self):
        ctx, obs = build_context("qcc-pi-I")
        n = 1_000_000
        positions, _ = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), n, SEED)
        se = math.sqrt(0.25 * 0.75 / n)
        assert abs(positions.size / n - 0.25) <= 4.0 * se

    def test_orthogonal_postselection_never_accepts(self):
        ctx, obs = build_context("orthogonal")
        positions, mask = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), 2_000, SEED)
        assert np.count_nonzero(mask) == 0
        assert positions.size == 0


class TestEstimator:
    def test_projector_arm_one(self):
        ctx, obs = build_context("qcc-pi-I")
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), 1_000_000, SEED)
        report = estimate_weak_value(trials, PHI0, 0.1)
        assert abs(report.estimated_wv_re - 1.0) <= 4.0 * report.std_error
        assert report.postselect_rate == pytest.approx(0.25, abs=0.01)

    def test_projector_arm_two_sees_nothing(self):
        ctx, obs = build_context("qcc-pi-II")
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), 1_000_000, SEED)
        report = estimate_weak_value(trials, PHI0, 0.1)
        assert abs(report.estimated_wv_re) <= 4.0 * report.std_error

    def test_anomalous_amplification(self):
        g = 0.01
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, g), 1_000_000, SEED)
        report = estimate_weak_value(trials, PHI0, g)
        assert abs(report.estimated_wv_re - 3.0) <= 4.0 * report.std_error
        assert report.estimated_wv_re > 1.0

    def test_standard_error_scales_as_root_n(self):
        ctx, obs = build_context("qcc-pi-I")
        errors = []
        for n in (10_000, 1_000_000):
            trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), n, SEED)
            errors.append(estimate_weak_value(trials, PHI0, 0.1).std_error)
        assert 5.0 <= errors[0] / errors[1] <= 20.0

    def test_readout_distribution_matches_exact_density(self):
        g = 0.1
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        result = couple_and_postselect(ctx, obs, PHI0, g)
        comps = result.pointer_final.components
        coeffs = tuple(c.coeff for c in comps)
        centers = tuple(c.center for c in comps)
        xs = np.linspace(min(centers) - 12.0, max(centers) + 12.0, 2**16)
        f = gaussian_amplitude(xs, coeffs, centers, 1.0)
        dens = (f.conj() * f).real
        segments = 0.5 * (dens[1:] + dens[:-1]) * np.diff(xs)
        cdf = np.concatenate(([0.0], np.cumsum(segments)))
        cdf /= cdf[-1]
        n_bins = 64
        edges = np.interp(np.linspace(0.0, 1.0, n_bins + 1)[1:-1], cdf, xs)

        positions, _ = sample_trials(couple_and_postselect(ctx, obs, PHI0, g), 1_000_000, SEED)
        counts = np.bincount(
            np.searchsorted(edges, positions), minlength=n_bins
        )
        expected = positions.size / n_bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_999_DF63

    def test_far_apart_lobes_keep_the_pointer_spread(self):
        # Branches 2,000 widths apart: the upper lobe is a Gaussian of spread 1 about +g.
        g = 1e3
        coupled = couple_and_postselect(*build_context("anomalous", tan_theta=3.0), PHI0, g)
        positions, _ = sample_trials(coupled, 200_000, 1)
        lobe = positions[positions > 0.0] - g
        std_error = 1.0 / math.sqrt(2.0 * (lobe.size - 1))  # of a normal sample's standard deviation
        assert abs(float(lobe.std(ddof=1)) - 1.0) <= 4.0 * std_error

    def test_spread_of_readouts_whose_squares_overflow_is_finite(self):
        positions = np.array([1e154, -1e154, 3e154])
        trials = (positions, np.ones(3, dtype=bool))
        report = estimate_weak_value(trials, PHI0, 1.0)
        assert report.std_error == pytest.approx(np.std(positions / 1e154, ddof=1) * 1e154 / math.sqrt(3), rel=1e-15)

    def test_insufficient_statistics_rejected(self):
        ctx, obs = build_context("orthogonal")
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), 100, SEED)
        with pytest.raises(ValidationError):
            estimate_weak_value(trials, PHI0, 0.1)

    def test_zero_coupling_rejected(self):
        ctx, obs = build_context("qcc-pi-I")
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), 100, SEED)
        with pytest.raises(ValidationError):
            estimate_weak_value(trials, PHI0, 0.0)

    @pytest.mark.parametrize(
        "positions, field", [([1.0, 1.0], "estimated_wv_re"), ([-1.0, 1.0], "std_error")], ids=["mean", "spread"]
    )
    def test_an_estimate_beyond_the_float_range_overflows(self, positions, field):
        # A finite shift or spread divided by a subnormal coupling leaves the float range.
        trials = (np.array(positions), np.ones(2, dtype=bool))
        with pytest.raises(OverflowError, match=rf"^weak-value estimate overflows: {field} at g=5e-324$"):
            estimate_weak_value(trials, PHI0, 5e-324)
        report = estimate_weak_value(trials, PHI0, 1e-300)
        assert math.isfinite(report.estimated_wv_re) and math.isfinite(report.std_error)


class TestBatchValidation:
    def test_bad_trial_counts(self):
        with pytest.raises(ValidationError):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 0, SEED)
        with pytest.raises(ValidationError):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, SEED, workers=0)

    def test_non_finite_positions_rejected(self):
        with pytest.raises(ValidationError, match="^positions contain non-finite entries$"):
            estimate_weak_value((np.array([math.nan]), np.ones(1, dtype=bool)), PHI0, 0.1)

    def test_inconsistent_batch_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="^need one position per postselected trial$"):
            write_trials_csv((np.array([0.1]), np.array([True, True, False])), tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()


class TestSeedRule:
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_philox_key_range_is_rejected(self, seed):
        message = rf"^Philox key must be >= 0 and < 2\*\*128, got {seed}$"
        with pytest.raises(ValidationError, match=message):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, seed)
        with pytest.raises(ValidationError, match=message):
            sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 10, seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1, np.uint64(5)])
    def test_seed_at_the_philox_key_bounds_samples(self, seed):
        assert sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, seed)[1].size == 10
        assert sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 10, seed).seed == seed

    @pytest.mark.parametrize("seed", [2.5, 3.0, math.nan, True])
    def test_a_seed_that_is_no_integer_is_rejected(self, seed):
        message = rf"^seed must be an integer, got {seed!r}$"
        with pytest.raises(ValidationError, match=message):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, seed)
        with pytest.raises(ValidationError, match=message):
            sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 10, seed)


class TestCountAndCouplingRules:
    """Library callers get the CLI's rules: a count is an integer, a coupling finite and nonzero."""

    @pytest.mark.parametrize("n", [2.5, 10.0, math.nan, math.inf, True])
    def test_a_trial_count_that_is_no_integer_is_rejected(self, n):
        message = rf"^trial count n must be an integer, got {n!r}$"
        with pytest.raises(ValidationError, match=message):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), n, 1)
        with pytest.raises(ValidationError, match=message):
            sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), n, 1)

    @pytest.mark.parametrize("workers", [2.5, 1.0, math.nan, False])
    def test_a_worker_count_that_is_no_integer_is_rejected(self, workers):
        with pytest.raises(ValidationError, match=rf"^worker count must be an integer, got {workers!r}$"):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, 1, workers=workers)

    def test_numpy_integer_counts_sample(self):
        coupled = couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1)
        assert batches_equal(sample_trials(coupled, np.int64(100), SEED, workers=np.int32(2)), sample_trials(coupled, 100, SEED))
        assert sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), np.uint16(100), SEED).n_trials == 100

    @pytest.mark.parametrize("g", [math.nan, -math.nan, math.inf, -math.inf])
    def test_a_non_finite_estimation_coupling_is_rejected(self, g):
        trials = sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 1000, SEED)
        with pytest.raises(ValidationError, match=rf"^weak-value estimation needs a finite coupling, got {g!r}$"):
            estimate_weak_value(trials, PHI0, g)


class TestIntensitySampling:
    def test_zero_trials_are_rejected(self):
        with pytest.raises(ValidationError, match="^need at least one trial, got n=0$"):
            sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 0, 1)

    def test_empty_arm_ratio_is_flat(self):
        counts = sample_intensity_experiment(intensity_absorber(AbsorberConfig("II", 0.3)), 100_000, SEED)
        assert abs(counts.ratio - 1.0) <= 4.0 * counts.ratio_std_error
        assert abs(counts.two_proportion_z) < 4.0

    def test_null_perturbation_is_not_detected(self):
        counts = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.0)), 10_000, SEED)
        assert abs(counts.two_proportion_z) < 4.0

    def test_occupied_arm_ratio_matches_exact(self):
        counts = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 1_000_000, SEED)
        assert abs(counts.ratio - math.exp(-0.2)) <= 4.0 * counts.ratio_std_error
        assert counts.two_proportion_z < -4.0

    def test_counts_are_reproducible(self):
        a = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.2)), 20_000, SEED)
        b = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.2)), 20_000, SEED)
        assert (a.n_reference, a.n_perturbed) == (b.n_reference, b.n_perturbed)

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValidationError):
            sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 0, SEED)

    @pytest.mark.parametrize("n", [1000, 999])
    def test_a_sweeps_report_is_rejected(self, n):
        # n equal to the point count once drew trial i against the i-th swept intensity.
        report = intensity_absorber(AbsorberConfig("I", np.linspace(0.0, 1.0, 1000)))
        with pytest.raises(ValidationError, match=r"i_perturbed has shape \(1000,\)"):
            sample_intensity_experiment(report, n, 1)

    def test_a_sweeps_reference_intensity_is_rejected(self):
        exact = SimpleNamespace(i0=np.array([0.5, 0.5]), i_perturbed=0.5)
        with pytest.raises(ValidationError, match=r"^one run's report expected, got a sweep's: i0 has shape \(2,\)$"):
            sample_intensity_experiment(exact, 10, 1)

    @pytest.mark.parametrize("m", [np.float64(0.2), np.array(0.2)], ids=["float64", "0-d array"])
    def test_one_number_of_numpy_type_samples_as_a_float(self, m):
        counts = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", m)), 1000, SEED)
        assert counts == sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.2)), 1000, SEED)

    def test_equal_certain_detections_have_a_zero_z_score(self):
        # Every trial detects in both runs: the pooled rate is 1, so the z-score's spread is 0.
        exact = intensity_absorber(AbsorberConfig("I", 0.1))._replace(i0=1.0, i_perturbed=1.0, ratio=1.0)
        counts = sample_intensity_experiment(exact, 100, SEED)
        assert (counts.n_reference, counts.n_perturbed, counts.ratio, counts.two_proportion_z) == (100, 100, 1.0, 0.0)

    @pytest.mark.parametrize("n, seed", [*((n, SEED) for n in TABLE_EDGES), (1001, SEED), (65553, 7)])
    @pytest.mark.parametrize("report", [lambda: intensity_absorber(AbsorberConfig("I", 0.1)),
                                        lambda: intensity_magnetic(MagneticConfig("I", 0.2))],
                             ids=["absorber", "magnetic"])
    def test_counts_across_table_edges_equal_the_oracle(self, report, n, seed):
        # Each experiment at the CLI's defaults; 65553 trials with seed 7 span five 2^14-trial blocks.
        exact = report()
        u = intensity_uniforms_oracle(seed, n)
        counts = sample_intensity_experiment(exact, n, seed)
        oracle = (int(np.count_nonzero(u[:, 0] < exact.i0)), int(np.count_nonzero(u[:, 1] < exact.i_perturbed)))
        assert (counts.n_reference, counts.n_perturbed) == oracle

    @pytest.mark.parametrize("n", [1, 3, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
    def test_a_run_draws_two_words_per_trial(self, monkeypatch, n):
        drawn = []

        class CountingPhilox(np.random.Philox):
            def random_raw(self, size=None, output=True):
                drawn.append(size)
                return super().random_raw(size, output)

        monkeypatch.setattr(np.random, "Philox", CountingPhilox)
        sample_intensity_experiment(SimpleNamespace(i0=1.0, i_perturbed=0.5), n, SEED)
        assert sum(drawn) == 2 * n

    def test_no_perturbed_detections_leave_the_error_undefined(self):
        counts = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 40.0)), 100, 1)
        assert counts.n_perturbed == 0
        assert math.isnan(counts.ratio_std_error)
        assert '"ratio_std_error": null' in dumps_json(counts._asdict())


class TestTracedMemory:
    """Each chunk holds one block of ``BLOCK_ROWS`` rows of words at a time, whatever n is."""

    @staticmethod
    def traced_peak(run) -> int:
        run(100)  # imports and first-call set-up stay out of the count
        tracemalloc.start()
        try:
            run(2**20 + 17)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_an_intensity_run_peaks_below_half_a_megabyte(self):
        exact = intensity_absorber(AbsorberConfig("I", 0.1))
        assert self.traced_peak(lambda n: sample_intensity_experiment(exact, n, SEED)) < 2**19

    def test_a_one_worker_pointer_run_returns_the_buffer_it_fills(self):
        # At p_post ~ 1 the readouts fill their buffer; a copy of them would add n * 8 bytes.
        coupled = couple_and_postselect(*build_context("spin-trivial"), PHI0, 0.1)
        peak = self.traced_peak(lambda n: sample_trials(coupled, n, SEED))
        assert peak < (2**20 + 17) * (8 + 1) + 2**22

    def test_a_two_worker_pointer_run_holds_no_table_of_every_trial(self, monkeypatch):
        # At p_post ~ 1 the mask and readouts are as large as they get; one (n, 4) table would add n * 32 bytes.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        coupled = couple_and_postselect(*build_context("spin-trivial"), PHI0, 0.1)
        peak = self.traced_peak(lambda n: sample_trials(coupled, n, SEED, workers=2))
        assert peak < (2**20 + 17) * DRAWS_PER_TRIAL * 8
