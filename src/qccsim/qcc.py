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
from .pointer import make_gaussian, moments, translate
from .weakmeas import PrePostContext, Spectrum, branch_table, one_number, require

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


def check_arm(arm: str) -> None:
    """The arm rule: one of ``ARMS``."""
    if arm not in ARMS:
        raise ValidationError(f"arm must be one of {ARMS}, got {arm!r}")


def check_observable(tag: str) -> None:
    """The observable rule: one of ``OBSERVABLE_TAGS``."""
    if tag not in OBSERVABLE_TAGS:
        raise ValidationError(f"observable must be one of {OBSERVABLE_TAGS}, got {tag!r}")


@functools.cache
def arm_observable(arm: str, tag: str) -> Spectrum:
    """Arm-local observable on path (x) spin, written out and checked.

    ``projector`` is |arm><arm| (x) 1, ``sigma_x`` is |arm><arm| (x) sigma_x.
    Built once per (arm, tag): every call returns the same immutable object.
    """
    check_arm(arm)
    check_observable(tag)
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
    return branch_table(_prepost(swap_spin_labels), arm_observable(arm, tag))


class QccReport(Record):
    """The four defining weak values plus exact pointer shifts.

    ``postselect_amp``/``postselect_prob`` describe the unperturbed
    postselection. ``postselect_prob_I``/``postselect_prob_II`` are the
    exact probabilities including the coupling: per arm for separate
    runs, both equal to the joint probability when ``joint`` is set.
    For a sweep the shift, probability and warning fields are arrays
    over the couplings.
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


def _checked_run(observable_I: str, observable_II: str, g_I, g_II, pointer_width: float,
                 swap_spin_labels: bool) -> tuple[BranchTable, BranchTable, GaussianPointerState]:
    """A run's two arm tables and its fresh pointer, after checking its arguments in the
    order observable_I, observable_II, g_I, g_II, pointer_width (the pointer checks its width)."""
    check_observable(observable_I)
    check_observable(observable_II)
    require(g_I, "coupling g_I must be finite")
    require(g_II, "coupling g_II must be finite")
    return (arm_table("I", observable_I, swap_spin_labels), arm_table("II", observable_II, swap_spin_labels),
            make_gaussian(0.0, pointer_width))


def _qcc_report(table_I: BranchTable, table_II: BranchTable, phi0: GaussianPointerState, g_I, g_II,
                swap_spin_labels: bool, **measured) -> QccReport:
    """A run's ``measured`` shifts, coupled probabilities and ``joint`` flag, plus
    the four weak values, unperturbed postselection and weak-regime flag.

    No input gives a non-finite shift, so none is checked for. An arm table holds one
    branch at g a (shift g a), two of equal weight at -g and g (shift 0), or weights
    -1/4, 1/2, 1/4 at -g, 0, g (shift g e / (4 prob), with the Gaussian overlap e <= 1
    and prob >= 1/4). So |shift| <= |g| up to rounding, which keeps the shift at the
    largest finite g finite; a joint run's shifts are finite too (:func:`run_joint_pointers`)."""
    margin_I, margin_II = table_I.margin(phi0, g_I), table_II.margin(phi0, g_II)
    return QccReport(
        wv_pi_I=arm_table("I", "projector", swap_spin_labels).weak_value(),
        wv_sigma_I=arm_table("I", "sigma_x", swap_spin_labels).weak_value(),
        wv_pi_II=arm_table("II", "projector", swap_spin_labels).weak_value(),
        wv_sigma_II=arm_table("II", "sigma_x", swap_spin_labels).weak_value(),
        postselect_amp=table_I.overlap,
        postselect_prob=abs(table_I.overlap) ** 2,
        margin_warning=(margin_I >= WEAK_MARGIN_WARN) | (margin_II >= WEAK_MARGIN_WARN),
        **measured,
    )


def run_ideal_qcc(*, observable_I: str, observable_II: str, g_I, g_II, pointer_width: float,
                  swap_spin_labels: bool = False) -> QccReport:
    """Two separate single-pointer runs, one per arm, plus the weak values.

    Each arm couples its own pointer in its own run, which is the ideal
    protocol: the reported shifts are exact single-coupling results.
    ``g_I`` and ``g_II`` may also be arrays of one shape: the run is then a
    sweep over all its couplings at once, and reports arrays.
    """
    table_I, table_II, phi0 = _checked_run(observable_I, observable_II, g_I, g_II, pointer_width, swap_spin_labels)
    shift_I, prob_I = table_I.readout(phi0, g_I)
    shift_II, prob_II = table_II.readout(phi0, g_II)
    return _qcc_report(
        table_I, table_II, phi0, g_I, g_II, swap_spin_labels,
        shift_I=shift_I,
        shift_II=shift_II,
        postselect_prob_I=prob_I,
        postselect_prob_II=prob_II,
        joint=False,
    )


def run_joint_pointers(*, observable_I: str, observable_II: str, g_I, g_II, pointer_width: float,
                       swap_spin_labels: bool = False) -> QccReport:
    """Both couplings in one run on path (x) spin (x) pointer_I (x) pointer_II.

    The arm observables are arm-local, so A_I A_II = 0 and the coupling
    unitaries obey U_I U_II = U_I + U_II - 1 exactly: every cross term of
    the product holds A_I A_II. The postselected two-pointer state is thus
    Phi_I (x) phi0 + phi0 (x) Phi_II - <chi|psi> phi0 (x) phi0 at any coupling,
    from the ideal run's two couplings. Marginal shifts agree with the
    separate runs up to terms of order g_I * g_II.
    """
    table_I, table_II, phi0 = _checked_run(observable_I, observable_II, g_I, g_II, pointer_width, swap_spin_labels)
    if not (one_number(g_I) and one_number(g_II)):
        raise ValidationError("a joint run takes scalar couplings")
    phi_I, phi_II = table_I.pointer(phi0, g_I), table_II.pointer(phi0, g_II)
    identity_term = translate(phi0, 0.0, -table_I.overlap)
    terms = ((phi_I, phi0), (phi0, phi_II), (identity_term, phi0))
    norm2 = x_i = x_ii = 0.0
    for p_s, q_s in terms:
        for p_t, q_t in terms:
            (o_i, e_i), (o_ii, e_ii) = moments(p_s, p_t), moments(q_s, q_t)
            norm2 += (o_i * o_ii).real
            x_i += (e_i * o_ii).real
            x_ii += (o_i * e_ii).real
    # norm2 >= 1/8, so it is never 0. The state is (A(x_I) phi0(x_II) + phi0(x_I) B(x_II)) / 2.
    # One of A and B is 0 or odd, phi0 is even, so the two terms are orthogonal. The other is
    # phi0 shifted by g, or (phi0(x - g) + phi0(x + g)) / 2, whose squared norm is >= 1/2.
    # The shifts are finite: each is at most 2 |g| in size, and beyond |g| only through terms
    # carrying the overlap e^(-g^2 / 8 sigma^2), which is 0 far inside the float range (sigma < 5e153).
    return _qcc_report(
        table_I, table_II, phi0, g_I, g_II, swap_spin_labels,
        shift_I=x_i / norm2,
        shift_II=x_ii / norm2,
        postselect_prob_I=norm2,
        postselect_prob_II=norm2,
        joint=True,
    )
