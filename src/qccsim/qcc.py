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

from ._record import Record
from .errors import ValidationError
from .pointer import check_width, make_gaussian, overlap, position_element, translate
from .weakmeas import PrePostContext, Spectrum, first_failure, one_number, reduce_table, require

SIGMA_X_ROWS = ((0.0, 1.0), (1.0, 0.0))
ARMS = ("I", "II")
OBSERVABLE_TAGS = ("projector", "sigma_x")

# Amplitudes over |I, +z>, |I, -z>, |II, +z>, |II, -z>: the preselection and,
# by swap_spin_labels, the postselection.
_H = 1.0 / math.sqrt(2.0)
PSI = (_H, 0.0, _H, 0.0)
CHI = {False: (_H, 0.0, 0.0, _H), True: (0.0, _H, _H, 0.0)}

# (arm, tag) -> eigenvalues and eigenvectors, written out exactly as
# np.linalg.eigh returns them for |arm><arm| (x) 1 and |arm><arm| (x) sigma_x.
_ARM_EIGENPAIRS = {
    ("I", "projector"): ((0.0, 0.0, 1.0, 1.0), ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))),
    ("I", "sigma_x"): ((-1.0, 0.0, 0.0, 1.0), ((-_H, _H, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (_H, _H, 0, 0))),
    ("II", "projector"): ((0.0, 0.0, 1.0, 1.0), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ("II", "sigma_x"): ((-1.0, 0.0, 0.0, 1.0), ((0, 0, -_H, _H), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, _H, _H))),
}

# Margin above which a report is flagged as outside the weak regime.
WEAK_MARGIN_WARN = 0.2


@functools.cache
def arm_observable(arm: str, tag: str) -> Spectrum:
    """Arm-local observable on path (x) spin, written out and checked.

    ``projector`` is |arm><arm| (x) 1, ``sigma_x`` is |arm><arm| (x) sigma_x.
    Built once per (arm, tag): every call returns the same immutable object.
    """
    if arm not in ARMS:
        raise ValidationError(f"arm must be one of {ARMS}, got {arm!r}")
    if tag not in OBSERVABLE_TAGS:
        raise ValidationError(f"observable must be one of {OBSERVABLE_TAGS}, got {tag!r}")
    spin = SIGMA_X_ROWS if tag == "sigma_x" else ((1.0, 0.0), (0.0, 1.0))
    j = ARMS.index(arm)
    rows = tuple(tuple(float(r // 2 == c // 2 == j) * spin[r % 2][c % 2] for c in range(4)) for r in range(4))
    return Spectrum(rows, *_ARM_EIGENPAIRS[arm, tag])


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
    return PrePostContext(PSI, CHI[swap_spin_labels])


def arm_table(arm: str, tag: str, swap_spin_labels: bool = False) -> BranchTable:
    """Branch table of an arm observable in the Cheshire Cat context.

    Built once per (arm, tag, variant): every call returns the same object.
    """
    return _arm_table(arm, tag, bool(swap_spin_labels))


@functools.cache
def _arm_table(arm: str, tag: str, swap_spin_labels: bool) -> BranchTable:
    return reduce_table(PSI, CHI[swap_spin_labels], arm_observable(arm, tag))


class QccConfig(Record):
    """Couplings and observables for one Cheshire Cat run.

    ``g_I`` and ``g_II`` may also be arrays of one shape: the config then
    describes a sweep, and :func:`run_ideal_qcc` reports arrays.
    """

    observable_I: str = "projector"
    observable_II: str = "sigma_x"
    g_I: float | np.ndarray = 0.02
    g_II: float | np.ndarray = 0.02
    pointer_width: float = 1.0

    def __post_init__(self) -> None:
        if self.observable_I not in OBSERVABLE_TAGS or self.observable_II not in OBSERVABLE_TAGS:
            raise ValidationError(f"observable tags must be in {OBSERVABLE_TAGS}")
        require(self.g_I, "coupling g_I must be finite")
        require(self.g_II, "coupling g_II must be finite")
        check_width(self.pointer_width)


class QccReport(Record):
    """The four defining weak values plus exact pointer shifts.

    ``postselect_amp``/``postselect_prob`` describe the unperturbed
    postselection. ``postselect_prob_I``/``postselect_prob_II`` are the
    exact probabilities including the coupling: per arm for separate
    runs, both equal to the joint probability when ``joint`` is set.
    For a sweep config the shift, probability and warning fields are
    arrays over the couplings.
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


def _qcc_report(cfg: QccConfig, swap_spin_labels: bool, **measured) -> QccReport:
    """A run's ``measured`` shifts, coupled probabilities and ``joint`` flag, plus
    the four weak values, unperturbed postselection and weak-regime flag."""
    for arm, g in (("I", cfg.g_I), ("II", cfg.g_II)):
        bad = first_failure(lambda shift: abs(shift) < math.inf, measured[f"shift_{arm}"], g)
        if bad is not None:  # a record holds finite shifts only
            raise OverflowError(f"pointer shift overflows: shift_{arm} at g_{arm}={bad[1]!r}")
    table = functools.partial(arm_table, swap_spin_labels=swap_spin_labels)
    phi0 = make_gaussian(0.0, cfg.pointer_width)
    margin_I = table("I", cfg.observable_I).margin(phi0, cfg.g_I)
    margin_II = table("II", cfg.observable_II).margin(phi0, cfg.g_II)
    amp = table("I", "projector").overlap
    return QccReport(
        wv_pi_I=table("I", "projector").weak_value(),
        wv_sigma_I=table("I", "sigma_x").weak_value(),
        wv_pi_II=table("II", "projector").weak_value(),
        wv_sigma_II=table("II", "sigma_x").weak_value(),
        postselect_amp=amp,
        postselect_prob=abs(amp) ** 2,
        margin_warning=(margin_I >= WEAK_MARGIN_WARN) | (margin_II >= WEAK_MARGIN_WARN),
        **measured,
    )


def run_ideal_qcc(cfg: QccConfig, swap_spin_labels: bool = False) -> QccReport:
    """Two separate single-pointer runs, one per arm, plus the weak values.

    Each arm couples its own pointer in its own run, which is the ideal
    protocol: the reported shifts are exact single-coupling results. A
    sweep config is evaluated over all its couplings at once.
    """
    swap = bool(swap_spin_labels)
    phi0 = make_gaussian(0.0, cfg.pointer_width)
    shift_I, prob_I = arm_table("I", cfg.observable_I, swap).readout(phi0, cfg.g_I)
    shift_II, prob_II = arm_table("II", cfg.observable_II, swap).readout(phi0, cfg.g_II)
    return _qcc_report(
        cfg, swap,
        shift_I=shift_I,
        shift_II=shift_II,
        postselect_prob_I=prob_I,
        postselect_prob_II=prob_II,
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
    if not (one_number(cfg.g_I) and one_number(cfg.g_II)):
        raise ValidationError("a joint run takes scalar couplings")
    swap = bool(swap_spin_labels)
    phi0 = make_gaussian(0.0, cfg.pointer_width)
    table_I = arm_table("I", cfg.observable_I, swap)
    phi_I = table_I.pointer(phi0, cfg.g_I)
    phi_II = arm_table("II", cfg.observable_II, swap).pointer(phi0, cfg.g_II)
    identity_term = translate(phi0, 0.0, -table_I.overlap)
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
        cfg, swap,
        shift_I=x_i / norm2,
        shift_II=x_ii / norm2,
        postselect_prob_I=norm2,
        postselect_prob_II=norm2,
        joint=True,
    )
