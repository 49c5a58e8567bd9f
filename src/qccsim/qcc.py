"""The ideal Quantum Cheshire Cat scenario on a two-arm interferometer.

System space: path (arm I / arm II) tensor spin. The beam-splitter and
mirror optics are folded into the pre- and postselected states, which
are therefore the states at the coupling time. Couplings act arm-locally:
presence is probed by the arm projector, the spin component by the arm
projector times sigma_x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pointer import (
    GaussianComponent,
    GaussianPointerState,
    component_overlap,
    component_position_element,
    make_gaussian,
    mean_position,
)
from .qstate import SIGMA_X, StateVector, inner
from .weakmeas import (
    Observable,
    PrePostContext,
    couple_and_postselect,
    make_observable,
    validity_margin,
    weak_value,
)

SYSTEM_LABELS = ("path", "spin")
ARMS = ("I", "II")
OBSERVABLE_TAGS = ("projector", "sigma_x")

# Margin above which a report is flagged as outside the weak regime.
WEAK_MARGIN_WARN = 0.2


def arm_observable(arm: str, tag: str) -> Observable:
    """Arm-local observable on path (x) spin.

    ``projector`` is |arm><arm| (x) 1, ``sigma_x`` is |arm><arm| (x) sigma_x.
    Built once per (arm, tag): every call returns the same immutable object.
    """
    if arm not in ARMS:
        raise ValidationError(f"arm must be one of {ARMS}, got {arm!r}")
    if tag not in OBSERVABLE_TAGS:
        raise ValidationError(f"observable must be one of {OBSERVABLE_TAGS}, got {tag!r}")
    return _arm_observable(arm, tag)


@functools.cache
def _arm_observable(arm: str, tag: str) -> Observable:
    proj = np.zeros((2, 2), dtype=complex)
    proj[ARMS.index(arm), ARMS.index(arm)] = 1.0
    spin_part = SIGMA_X if tag == "sigma_x" else np.eye(2, dtype=complex)
    return make_observable(np.kron(proj, spin_part), SYSTEM_LABELS, dims=(2, 2))


def build_prepost(swap_spin_labels: bool = False) -> PrePostContext:
    """Pre/postselection pair that defines the Cheshire Cat configuration.

    Preselection: (|I> + |II>) |+z> / sqrt(2). Postselection:
    (|I>|+z> + |II>|-z>) / sqrt(2). With ``swap_spin_labels`` the spin
    labels in the postselection are exchanged, which swaps the roles of
    the two arms in every report. Built once per variant: every call
    returns the same immutable object.
    """
    return _prepost(bool(swap_spin_labels))


@functools.cache
def _prepost(swap_spin_labels: bool) -> PrePostContext:
    # Basis order |I, +z>, |I, -z>, |II, +z>, |II, -z>.
    psi = np.zeros(4, dtype=complex)
    psi[[0, 2]] = 1.0 / math.sqrt(2.0)
    chi = np.zeros(4, dtype=complex)
    chi[[1, 2] if swap_spin_labels else [0, 3]] = 1.0 / math.sqrt(2.0)
    return PrePostContext(
        psi_i=StateVector((2, 2), SYSTEM_LABELS, psi),
        chi_f=StateVector((2, 2), SYSTEM_LABELS, chi),
    )


@dataclass(frozen=True)
class QccConfig:
    """Couplings and observables for one Cheshire Cat run."""

    observable_I: str = "projector"
    observable_II: str = "sigma_x"
    g_I: float = 0.02
    g_II: float = 0.02
    pointer_width: float = 1.0

    def __post_init__(self) -> None:
        if self.observable_I not in OBSERVABLE_TAGS or self.observable_II not in OBSERVABLE_TAGS:
            raise ValidationError(f"observable tags must be in {OBSERVABLE_TAGS}")
        if not (math.isfinite(self.g_I) and math.isfinite(self.g_II)):
            raise ValidationError("couplings must be finite")
        if not (math.isfinite(self.pointer_width) and self.pointer_width > 0.0):
            raise ValidationError(f"pointer_width must be positive, got {self.pointer_width}")


@dataclass(frozen=True)
class QccReport:
    """The four defining weak values plus exact pointer shifts.

    ``postselect_amp``/``postselect_prob`` describe the unperturbed
    postselection. ``postselect_prob_I``/``postselect_prob_II`` are the
    exact probabilities including the coupling: per arm for separate
    runs, both equal to the joint probability when ``joint`` is set.
    """

    wv_pi_I: complex
    wv_sigma_I: complex
    wv_pi_II: complex
    wv_sigma_II: complex
    shift_I: float
    shift_II: float
    postselect_amp: complex
    postselect_prob: float
    postselect_prob_I: float
    postselect_prob_II: float
    margin_warning: bool
    joint: bool


def _qcc_report(ctx: PrePostContext, cfg: QccConfig, phi0: GaussianPointerState, **measured) -> QccReport:
    """A run's ``measured`` shifts, coupled probabilities and ``joint`` flag, plus
    the four weak values, unperturbed postselection and weak-regime flag."""
    amp = inner(ctx.chi_f, ctx.psi_i)
    margins = (
        validity_margin(ctx, arm_observable("I", cfg.observable_I), phi0, cfg.g_I).margin,
        validity_margin(ctx, arm_observable("II", cfg.observable_II), phi0, cfg.g_II).margin,
    )
    return QccReport(
        wv_pi_I=weak_value(ctx, arm_observable("I", "projector")),
        wv_sigma_I=weak_value(ctx, arm_observable("I", "sigma_x")),
        wv_pi_II=weak_value(ctx, arm_observable("II", "projector")),
        wv_sigma_II=weak_value(ctx, arm_observable("II", "sigma_x")),
        postselect_amp=amp,
        postselect_prob=abs(amp) ** 2,
        margin_warning=any(m >= WEAK_MARGIN_WARN for m in margins),
        **measured,
    )


def run_ideal_qcc(cfg: QccConfig, swap_spin_labels: bool = False) -> QccReport:
    """Two separate single-pointer runs, one per arm, plus the weak values.

    Each arm couples its own pointer in its own run, which is the ideal
    protocol: the reported shifts are exact single-coupling results.
    """
    ctx = build_prepost(swap_spin_labels)
    phi0 = make_gaussian(0.0, cfg.pointer_width)
    base = mean_position(phi0)
    res_I = couple_and_postselect(ctx, arm_observable("I", cfg.observable_I), phi0, cfg.g_I)
    res_II = couple_and_postselect(ctx, arm_observable("II", cfg.observable_II), phi0, cfg.g_II)
    return _qcc_report(
        ctx, cfg, phi0,
        shift_I=mean_position(res_I.pointer_final) - base,
        shift_II=mean_position(res_II.pointer_final) - base,
        postselect_prob_I=res_I.postselect_prob_coupled,
        postselect_prob_II=res_II.postselect_prob_coupled,
        joint=False,
    )


def run_joint_pointers(cfg: QccConfig, swap_spin_labels: bool = False) -> QccReport:
    """Both couplings in one run on path (x) spin (x) pointer_I (x) pointer_II.

    The two couplings commute (they act on disjoint arms and different
    pointers), so the joint branch amplitude factorizes over the two
    eigenbases; marginal shifts agree with the separate runs up to
    terms of order g_I * g_II.
    """
    ctx = build_prepost(swap_spin_labels)
    obs_I = arm_observable("I", cfg.observable_I)
    obs_II = arm_observable("II", cfg.observable_II)
    width = cfg.pointer_width

    # Joint branch (k, l): coefficient <chi|a_k><a_k|b_l><b_l|psi>,
    # pointer I shifted by g_I a_k, pointer II by g_II b_l.
    branches: list[tuple[complex, GaussianComponent, GaussianComponent]] = []
    for a_val, a_vec in zip(obs_I.eigvals, obs_I.eigvecs):
        chi_a = inner(ctx.chi_f, a_vec)  # <chi|a_k>
        for b_val, b_vec in zip(obs_II.eigvals, obs_II.eigvecs):
            coeff = chi_a * inner(a_vec, b_vec) * inner(b_vec, ctx.psi_i)
            branches.append(
                (
                    coeff,
                    GaussianComponent(1.0, cfg.g_I * a_val, width, 0.0),
                    GaussianComponent(1.0, cfg.g_II * b_val, width, 0.0),
                )
            )

    norm2 = 0.0
    x_i = 0.0
    x_ii = 0.0
    for ca, ua, va in branches:
        for cb, ub, vb in branches:
            w = (ca.conjugate() * cb)
            o_i = component_overlap(ua, ub)
            o_ii = component_overlap(va, vb)
            norm2 += (w * o_i * o_ii).real
            x_i += (w * component_position_element(ua, ub) * o_ii).real
            x_ii += (w * o_i * component_position_element(va, vb)).real
    if norm2 <= 0.0:
        raise ValidationError("joint postselection has zero probability")

    return _qcc_report(
        ctx, cfg, make_gaussian(0.0, width),
        shift_I=x_i / norm2,
        shift_II=x_ii / norm2,
        postselect_prob_I=norm2,
        postselect_prob_II=norm2,
        joint=True,
    )
