"""Trial sampling determinism and statistical agreement with exact results."""

import concurrent.futures
import math
import sys

import numpy as np
import pytest

from qccsim.cli import build_context
from qccsim.errors import ValidationError
import qccsim.montecarlo as montecarlo
from qccsim.montecarlo import (
    COUNTER_BLOCK,
    LOOKUP_BLOCK,
    TrialBatch,
    _tabulated_inverse_cdf,
    _trial_uniforms,
    estimate_weak_value,
    sample_intensity_experiment,
    sample_trials,
)
from qccsim.neutron import AbsorberConfig, intensity_absorber
from qccsim.pointer import make_gaussian
from qccsim.serialize import dumps_json, write_trials_csv
from qccsim.weakmeas import couple_and_postselect

from oracles import CHI2_999_DF63, gaussian_amplitude, inverse_cdf_oracle

PHI0 = make_gaussian(0.0, 1.0)
SEED = 12345


def batches_equal(a: TrialBatch, b: TrialBatch) -> bool:
    return (
        a.n_total == b.n_total
        and a.n_postselected == b.n_postselected
        and np.array_equal(a.postselected, b.postselected)
        and np.array_equal(a.positions, b.positions)
    )


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
        assert not np.array_equal(a.postselected, b.postselected)

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
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 10, SEED, workers=10**6)
        assert pools == [expected]
        assert batches_equal(batch, sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 10, SEED))

    def test_chunk_count_follows_cpus_not_workers(self, monkeypatch):
        chunks = []

        def counting_uniforms(seed, start, count):
            chunks.append(count)
            return _trial_uniforms(seed, start, count)

        monkeypatch.setattr(montecarlo, "_trial_uniforms", counting_uniforms)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        ctx, obs = build_context("qcc-pi-I")
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 20_000, SEED, workers=10**6)
        assert sorted(chunks) == [10_000, 10_000]
        assert batches_equal(batch, sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), 20_000, SEED))

    def test_two_workers_equal_one_across_counter_blocks(self, monkeypatch, tmp_path):
        # One worker draws blocks of 2**20 and 17 trials, two draw one block of 524297 each.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        coupled = couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.05)
        n = COUNTER_BLOCK + 17
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
            batch = sample_trials(coupled, 80_003, SEED, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert batches_equal(batch, sample_trials(coupled, 80_003, SEED))

    def test_chunked_stream_matches_contiguous_stream(self):
        whole = _trial_uniforms(SEED, 0, 300)
        assert np.array_equal(_trial_uniforms(SEED, 100, 120), whole[100:220])
        assert np.array_equal(_trial_uniforms(SEED, 0, 100), whole[:100])


class TestSortedLookup:
    """The inverse-CDF lookup sorts its draws in blocks; every readout keeps plain np.interp's bits."""

    @staticmethod
    def bits(values: np.ndarray) -> list[str]:
        return [v.hex() for v in values.tolist()]

    @pytest.mark.parametrize("size", [LOOKUP_BLOCK - 1, LOOKUP_BLOCK, LOOKUP_BLOCK + 1, 3 * LOOKUP_BLOCK + 5])
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

    def test_spin_trivial_accepts_nearly_every_trial(self):
        coupled = couple_and_postselect(*build_context("spin-trivial"), PHI0, 0.1)
        assert coupled.postselect_prob_coupled > 0.99
        n = 3 * LOOKUP_BLOCK + 5
        u = _trial_uniforms(SEED, 0, n)
        accepted = u[u[:, 0] < coupled.postselect_prob_coupled, 1]
        batch = sample_trials(coupled, n, SEED)
        assert self.bits(batch.positions) == self.bits(inverse_cdf_oracle(coupled.pointer_final, accepted)[0])


class TestPostselectionStatistics:
    def test_rate_matches_exact_probability(self):
        ctx, obs = build_context("qcc-pi-I")
        n = 1_000_000
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), n, SEED)
        se = math.sqrt(0.25 * 0.75 / n)
        assert abs(batch.n_postselected / n - 0.25) <= 4.0 * se

    def test_orthogonal_postselection_never_accepts(self):
        ctx, obs = build_context("orthogonal")
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), 2_000, SEED)
        assert batch.n_postselected == 0
        assert batch.positions.size == 0


class TestEstimator:
    def test_projector_arm_one(self):
        ctx, obs = build_context("qcc-pi-I")
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), 1_000_000, SEED)
        report = estimate_weak_value(batch, PHI0, 0.1)
        assert abs(report.estimated_wv_re - 1.0) <= 4.0 * report.std_error
        assert report.postselect_rate == pytest.approx(0.25, abs=0.01)

    def test_projector_arm_two_sees_nothing(self):
        ctx, obs = build_context("qcc-pi-II")
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), 1_000_000, SEED)
        report = estimate_weak_value(batch, PHI0, 0.1)
        assert abs(report.estimated_wv_re) <= 4.0 * report.std_error

    def test_anomalous_amplification(self):
        g = 0.01
        ctx, obs = build_context("anomalous", tan_theta=3.0)
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, g), 1_000_000, SEED)
        report = estimate_weak_value(batch, PHI0, g)
        assert abs(report.estimated_wv_re - 3.0) <= 4.0 * report.std_error
        assert report.estimated_wv_re > 1.0

    def test_standard_error_scales_as_root_n(self):
        ctx, obs = build_context("qcc-pi-I")
        errors = []
        for n in (10_000, 1_000_000):
            batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), n, SEED)
            errors.append(estimate_weak_value(batch, PHI0, 0.1).std_error)
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

        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, g), 1_000_000, SEED)
        counts = np.bincount(
            np.searchsorted(edges, batch.positions), minlength=n_bins
        )
        expected = batch.n_postselected / n_bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_999_DF63

    def test_spread_of_readouts_whose_squares_overflow_is_finite(self):
        positions = np.array([1e154, -1e154, 3e154])
        batch = TrialBatch(positions=positions, postselected=np.ones(3, dtype=bool))
        report = estimate_weak_value(batch, PHI0, 1.0)
        assert report.std_error == pytest.approx(np.std(positions / 1e154, ddof=1) * 1e154 / math.sqrt(3), rel=1e-15)

    def test_insufficient_statistics_rejected(self):
        ctx, obs = build_context("orthogonal")
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), 100, SEED)
        with pytest.raises(ValidationError):
            estimate_weak_value(batch, PHI0, 0.1)

    def test_zero_coupling_rejected(self):
        ctx, obs = build_context("qcc-pi-I")
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.0), 100, SEED)
        with pytest.raises(ValidationError):
            estimate_weak_value(batch, PHI0, 0.0)

    @pytest.mark.parametrize(
        "positions, field", [([1.0, 1.0], "estimated_wv_re"), ([-1.0, 1.0], "std_error")], ids=["mean", "spread"]
    )
    def test_an_estimate_beyond_the_float_range_overflows(self, positions, field):
        # A finite shift or spread divided by a subnormal coupling leaves the float range.
        batch = TrialBatch(positions, [True, True])
        with pytest.raises(OverflowError, match=rf"^weak-value estimate overflows: {field} at g=5e-324$"):
            estimate_weak_value(batch, PHI0, 5e-324)
        report = estimate_weak_value(batch, PHI0, 1e-300)
        assert math.isfinite(report.estimated_wv_re) and math.isfinite(report.std_error)


class TestBatchValidation:
    def test_bad_trial_counts(self):
        with pytest.raises(ValidationError):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 0, SEED)
        with pytest.raises(ValidationError):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, SEED, workers=0)

    def test_non_finite_positions_rejected(self):
        with pytest.raises(ValidationError, match="^positions contain non-finite entries$"):
            TrialBatch([math.nan], [True])

    def test_inconsistent_batch_rejected(self):
        with pytest.raises(ValidationError):
            TrialBatch(positions=np.array([0.1]), postselected=np.array([True, True, False]))

    def test_batch_arrays_are_read_only(self):
        ctx, obs = build_context("qcc-pi-I")
        batch = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), 50, SEED)
        with pytest.raises(ValueError):
            batch.postselected[0] = False


class TestSeedRule:
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_philox_key_range_is_rejected(self, seed):
        message = rf"^Philox key must be >= 0 and < 2\*\*128, got {seed}$"
        with pytest.raises(ValidationError, match=message):
            sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, seed)
        with pytest.raises(ValidationError, match=message):
            sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 10, seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_at_the_philox_key_bounds_samples(self, seed):
        assert sample_trials(couple_and_postselect(*build_context("qcc-pi-I"), PHI0, 0.1), 10, seed).n_total == 10
        assert sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.1)), 10, seed).seed == seed


class TestIntensitySampling:
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

    @pytest.mark.parametrize("m", [np.float64(0.2), np.array(0.2)], ids=["float64", "0-d array"])
    def test_one_number_of_numpy_type_samples_as_a_float(self, m):
        counts = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", m)), 1000, SEED)
        assert counts == sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 0.2)), 1000, SEED)

    def test_equal_certain_detections_have_a_zero_z_score(self):
        # Every trial detects in both runs: the pooled rate is 1, so the z-score's spread is 0.
        exact = intensity_absorber(AbsorberConfig("I", 0.1))._replace(i0=1.0, i_perturbed=1.0, ratio=1.0)
        counts = sample_intensity_experiment(exact, 100, SEED)
        assert (counts.n_reference, counts.n_perturbed, counts.ratio, counts.two_proportion_z) == (100, 100, 1.0, 0.0)

    def test_no_perturbed_detections_leave_the_error_undefined(self):
        counts = sample_intensity_experiment(intensity_absorber(AbsorberConfig("I", 40.0)), 100, 1)
        assert counts.n_perturbed == 0
        assert math.isnan(counts.ratio_std_error)
        assert '"ratio_std_error": null' in dumps_json(counts._asdict())
