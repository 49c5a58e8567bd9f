"""Acceptance gate: one test per shipping criterion, stated tolerances.

Each test prints a single ``criterion N (...): PASS|FAIL`` line (visible
with ``pytest -v -s`` or in the captured output of a failing run) and
carries the full check in its assertions.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qccsim.cli import CONTEXT_NAMES, build_context
from qccsim.montecarlo import estimate_weak_value, sample_trials
from qccsim.neutron import (
    AbsorberConfig,
    MagneticConfig,
    intensity_absorber,
    intensity_magnetic,
)
from qccsim.pointer import make_gaussian, norm_sq, overlap
from qccsim.qcc import run_ideal_qcc
from qccsim.weakmeas import couple_and_postselect, linear_response_report

from oracles import fit_exponent, random_hermitian, random_state, sum_rule_gap

PHI0 = make_gaussian(0.0, 1.0)
M_GRID = (0.01, 0.05, 0.1, 0.25)
ALPHA_GRID = (0.05, 0.1, 0.2, 0.5)
MC_SEED = 12345


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def normalized_distance(pointer_final) -> float:
    ov = overlap(PHI0, pointer_final).real / math.sqrt(norm_sq(pointer_final))
    return math.sqrt(max(2.0 - 2.0 * ov, 0.0))


def test_criterion_1_qcc_signature():
    with criterion(1, "QCC weak-value signature"):
        start = time.perf_counter()
        report = run_ideal_qcc(observable_I="projector", observable_II="sigma_x", g_I=0.02, g_II=0.02,
                               pointer_width=1.0)
        assert report.wv_pi_I == pytest.approx(1.0, abs=1e-12)
        assert report.wv_sigma_I == pytest.approx(0.0, abs=1e-12)
        assert report.wv_pi_II == pytest.approx(0.0, abs=1e-12)
        assert report.wv_sigma_II == pytest.approx(1.0, abs=1e-12)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_pointer_shift_law():
    with criterion(2, "pointer-shift linear-response law"):
        start = time.perf_counter()
        gs = (0.1, 0.05, 0.025)
        contexts = ("qcc-pi-I", "qcc-sigma-I", "qcc-pi-II", "qcc-sigma-II", "anomalous")
        for name in contexts:
            ctx, obs = build_context(name, tan_theta=3.0)
            errors = [linear_response_report(ctx, obs, PHI0, g).abs_error for g in gs]
            assert fit_exponent(gs, errors) >= 2.0, name
        ctx, obs = build_context("qcc-pi-I")
        report = linear_response_report(ctx, obs, PHI0, 0.025)
        assert abs(report.exact_shift - report.predicted_shift) / abs(report.predicted_shift) <= 0.01
        assert time.perf_counter() - start < 5.0


def test_criterion_3_null_weak_value_contract():
    with criterion(3, "null weak values leave the pointer unchanged"):
        gs = np.geomspace(0.005, 0.04, 4)
        for name in ("qcc-sigma-I", "qcc-pi-II"):
            ctx, obs = build_context(name)
            dist = [
                normalized_distance(couple_and_postselect(ctx, obs, PHI0, g).pointer_final)
                for g in gs
            ]
            # Fit on the squared distance: it is a smooth even series in
            # g, while the distance itself hits the sqrt rounding floor.
            assert fit_exponent(gs, [d**2 for d in dist]) >= 2.0 * 1.95, name
            at_002 = normalized_distance(
                couple_and_postselect(ctx, obs, PHI0, 0.02).pointer_final
            )
            assert at_002 <= 1e-3, name


def test_criterion_4_expectation_decomposition():
    with criterion(4, "expectation decomposes over postselections"):
        start = time.perf_counter()
        for dim in (2, 4):
            rng = np.random.default_rng(42 + dim)
            for _ in range(100):
                psi = random_state(rng, dim)
                a = random_hermitian(rng, dim)
                assert sum_rule_gap(psi, a, random_hermitian(rng, dim))[1] <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_5_absorber_intensities():
    with criterion(5, "absorber intensity ratios"):
        for M in M_GRID:
            assert intensity_absorber(AbsorberConfig("II", M)).ratio == 1.0
            report = intensity_absorber(AbsorberConfig("I", M))
            assert abs(report.ratio - math.exp(-2.0 * M)) <= 1e-12
            assert abs(report.ratio - report.first_order_prediction) <= 2.0 * M**2


def test_criterion_6_magnetic_intensities():
    with criterion(6, "magnetic intensity ratios and systematic term"):
        for alpha in ALPHA_GRID:
            report_i = intensity_magnetic(MagneticConfig("I", alpha))
            report_ii = intensity_magnetic(MagneticConfig("II", alpha))
            # Exact arm-I closed form; it also satisfies this
            # criterion's own second-order band, which the alternative
            # reading ((1 + cos(a/2))/2)^2 cannot.
            assert abs(report_i.ratio - math.cos(alpha / 2.0) ** 2) <= 1e-12
            assert abs(report_ii.ratio - (1.0 + math.sin(alpha / 2.0) ** 2)) <= 1e-12
            assert abs(report_i.ratio - report_i.second_order_prediction) <= alpha**4
            assert abs(report_ii.ratio - report_ii.second_order_prediction) <= alpha**4
        deviations = [
            abs(intensity_magnetic(MagneticConfig("I", a)).ratio - 1.0) for a in ALPHA_GRID
        ]
        assert fit_exponent(ALPHA_GRID, deviations) == pytest.approx(2.0, abs=0.1)


def test_criterion_7_inference_round_trip():
    with criterion(7, "weak values inferred from intensity ratios"):
        for M in M_GRID:
            inferred = intensity_absorber(AbsorberConfig("I", M)).inferred_weak_value
            assert abs(inferred - 1.0) <= 2.0 * M
        for alpha in ALPHA_GRID:
            inferred = intensity_magnetic(MagneticConfig("II", alpha)).inferred_weak_value
            assert abs(inferred - 1.0) <= alpha**2


def test_criterion_8_monte_carlo():
    with criterion(8, "finite-statistics sampling"):
        start = time.perf_counter()
        n = 1_000_000

        ctx, obs = build_context("qcc-pi-I")
        trials = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), n, MC_SEED)
        rate_se = math.sqrt(0.25 * 0.75 / n)
        assert abs(trials[0].size / n - 0.25) <= 4.0 * rate_se
        report = estimate_weak_value(trials, PHI0, 0.1)
        assert abs(report.estimated_wv_re - 1.0) <= 4.0 * report.std_error

        ctx, obs = build_context("qcc-pi-II")
        report = estimate_weak_value(
            sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), n, MC_SEED), PHI0, 0.1
        )
        assert abs(report.estimated_wv_re - 0.0) <= 4.0 * report.std_error

        ctx, obs = build_context("anomalous", tan_theta=3.0)
        report = estimate_weak_value(
            sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.05), n, MC_SEED), PHI0, 0.05
        )
        assert abs(report.estimated_wv_re - 3.0) <= 4.0 * report.std_error

        ctx, obs = build_context("qcc-pi-I")
        serial = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), n, MC_SEED, workers=1)
        threaded = sample_trials(couple_and_postselect(ctx, obs, PHI0, 0.1), n, MC_SEED, workers=5)
        assert np.array_equal(serial[1], threaded[1])
        assert np.array_equal(serial[0], threaded[0])
        assert time.perf_counter() - start < 60.0


def test_criterion_9_postselection_probability_stability():
    with criterion(9, "postselection probabilities are coupling-stable"):
        gs = np.geomspace(0.005, 0.04, 4)
        for name in CONTEXT_NAMES:
            ctx, obs = build_context(name, tan_theta=3.0)
            p0 = couple_and_postselect(ctx, obs, PHI0, 0.0).postselect_prob_coupled
            deviations = [
                abs(couple_and_postselect(ctx, obs, PHI0, g).postselect_prob_coupled - p0)
                for g in gs
            ]
            assert fit_exponent(gs, deviations) >= 1.95, name
