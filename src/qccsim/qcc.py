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
    GaussianPointerState,
    make_gaussian,
    mean_position,
    norm_sq,
    overlap,
    position_element,
    translate,
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


def _couple_arms(
    cfg: QccConfig, swap_spin_labels: bool
) -> tuple[PrePostContext, GaussianPointerState, GaussianPointerState, GaussianPointerState]:
    """The context, the initial pointer phi0 and the final pointers Phi_I,
    Phi_II of one ordinary coupling per arm."""
    ctx = build_prepost(swap_spin_labels)
    phi0 = make_gaussian(0.0, cfg.pointer_width)
    res_I = couple_and_postselect(ctx, arm_observable("I", cfg.observable_I), phi0, cfg.g_I)
    res_II = couple_and_postselect(ctx, arm_observable("II", cfg.observable_II), phi0, cfg.g_II)
    return ctx, phi0, res_I.pointer_final, res_II.pointer_final


def run_ideal_qcc(cfg: QccConfig, swap_spin_labels: bool = False) -> QccReport:
    """Two separate single-pointer runs, one per arm, plus the weak values.

    Each arm couples its own pointer in its own run, which is the ideal
    protocol: the reported shifts are exact single-coupling results.
    """
    ctx, phi0, phi_I, phi_II = _couple_arms(cfg, swap_spin_labels)
    base = mean_position(phi0)
    return _qcc_report(
        ctx, cfg, phi0,
        shift_I=mean_position(phi_I) - base,
        shift_II=mean_position(phi_II) - base,
        postselect_prob_I=norm_sq(phi_I),
        postselect_prob_II=norm_sq(phi_II),
        joint=False,
    )


def run_joint_pointers(cfg: QccConfig, swap_spin_labels: bool = False) -> QccReport:
    """Both couplings in one run on path (x) spin (x) pointer_I (x) pointer_II.

    The arm observables are arm-local, so A_I A_II = 0 and the coupling
    unitaries obey U_I U_II = U_I + U_II - 1 exactly: every cross term of
    the product holds A_I A_II. The postselected two-pointer state is thus
    Phi_I (x) phi0 + phi0 (x) Phi_II - <chi|psi> phi0 (x) phi0 at any coupling,
    from the ideal run's two couplings. Marginal shifts agree with the
    separate runs up to terms of order g_I * g_II.
    """
    ctx, phi0, phi_I, phi_II = _couple_arms(cfg, swap_spin_labels)
    identity_term = translate(phi0, 0.0, -inner(ctx.chi_f, ctx.psi_i))
    terms = ((phi_I, phi0), (phi0, phi_II), (identity_term, phi0))
    norm2 = x_i = x_ii = 0.0
    for p_s, q_s in terms:
        for p_t, q_t in terms:
            o_i, o_ii = overlap(p_s, p_t), overlap(q_s, q_t)
            norm2 += (o_i * o_ii).real
            x_i += (position_element(p_s, p_t) * o_ii).real
            x_ii += (o_i * position_element(q_s, q_t)).real
    if norm2 <= 0.0:
        raise ValidationError("joint postselection has zero probability")
    return _qcc_report(
        ctx, cfg, phi0,
        shift_I=x_i / norm2,
        shift_II=x_ii / norm2,
        postselect_prob_I=norm2,
        postselect_prob_II=norm2,
        joint=True,
    )
