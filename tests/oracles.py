"""Independent reference implementations used to check the package.

Everything here is deliberately brute force: double loops instead of
np.kron, quadrature instead of closed forms. Agreement between these and the package is the
evidence the fast paths are right.
"""

from __future__ import annotations

import math

import numpy as np

from qccsim.montecarlo import DENSITY_POINTS, DRAWS_PER_TRIAL
from qccsim.pointer import component_overlap, density, midpoint, support
from qccsim.serialize import format_float
from qccsim.weakmeas import PrePostContext, Spectrum, branch_table

# 0.999 quantile of the chi-square distribution with 63 degrees of
# freedom, for the 64-bin histogram test.
CHI2_999_DF63 = 103.4424

# Errors at or below this are float noise around an exactly satisfied
# identity; exponent fits skip such series.
EXACT_FLOOR = 5e-14

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_X.flags.writeable = False


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit double loop."""
    out = np.zeros(a.size * b.size, dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i * b.size + j] = ai * bj
    return out


def inner_sum_oracle(bra: np.ndarray, ket: np.ndarray) -> complex:
    """Plain summation inner product, conjugate-linear in the bra."""
    total = 0.0 + 0.0j
    for x, y in zip(bra, ket):
        total += x.conjugate() * y
    return total


def gaussian_amplitude(x: np.ndarray, coeffs, centers, width: float) -> np.ndarray:
    """Superposition of Gaussians at rest, evaluated directly from its definition."""
    out = np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    norm = (2.0 * math.pi * width**2) ** -0.25
    for a, c in zip(coeffs, centers):
        dx = np.asarray(x, dtype=float) - c
        out += a * norm * np.exp(-(dx**2) / (4.0 * width**2))
    return out


def component_position_element(a, b, width: float) -> float:
    """Closed-form <u_a|x|u_b> between unit-norm components."""
    return component_overlap(a, b, width) * midpoint(a.center, b.center)


def pair_sum(p, q, element) -> complex:
    """sum over component pairs of c_a^* c_b element(a, b, width), one sum per call:
    the per-pair evaluation order that pointer.moments keeps for both its sums."""
    total = 0.0 + 0.0j
    for a in p.components:
        for b in q.components:
            total += a.coeff.conjugate() * b.coeff * element(a, b, p.width)
    return total


def quadrature_grid(centers, width: float, n: int = 2**16):
    span = 12.0 * width
    lo = min(centers) - span
    hi = max(centers) + span
    return np.linspace(lo, hi, n)


def quadrature_mean_position(coeffs, centers, width: float) -> float:
    """<x> by trapezoid quadrature on a dense grid."""
    xs = quadrature_grid(centers, width)
    f = gaussian_amplitude(xs, coeffs, centers, width)
    dens = (f.conj() * f).real
    return float(np.trapezoid(xs * dens, xs) / np.trapezoid(dens, xs))


def quadrature_mean_momentum(coeffs, centers, width: float) -> float:
    """<P> by FFT spectral derivative plus trapezoid quadrature."""
    xs = quadrature_grid(centers, width)
    f = gaussian_amplitude(xs, coeffs, centers, width)
    k = 2.0 * math.pi * np.fft.fftfreq(xs.size, xs[1] - xs[0])
    pf = np.fft.ifft(k * np.fft.fft(f))
    num = np.trapezoid(f.conj() * pf, xs).real
    den = np.trapezoid((f.conj() * f).real, xs)
    return float(num / den)


def quadrature_norm_sq(coeffs, centers, width: float) -> float:
    xs = quadrature_grid(centers, width)
    f = gaussian_amplitude(xs, coeffs, centers, width)
    return float(np.trapezoid((f.conj() * f).real, xs))


def fit_exponent(params, errors, floor: float = EXACT_FLOOR) -> float:
    """Log-log slope of errors vs params.

    Series whose largest error sits at or below ``floor`` hold exactly
    to float precision; they return inf (stronger than any power law).
    """
    params = np.asarray(params, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if errors.max() <= floor:
        return math.inf
    if np.any(errors <= 0.0):
        raise ValueError("cannot fit an exponent through zero errors above the floor")
    slope = np.polyfit(np.log(params), np.log(errors), 1)[0]
    return float(slope)


def absorber_ratio_arm_I(m: float) -> float:
    """Exact arm-I absorber intensity ratio, derived by hand.

    Postselection amplitude (e^-M)/2 against reference 1/2.
    """
    return math.exp(-2.0 * m)


def magnetic_ratio_arm_I(alpha: float) -> float:
    """Exact arm-I rotation ratio: only the identity part of the
    rotation survives postselection, with amplitude cos(alpha/2)."""
    return math.cos(alpha / 2.0) ** 2


def magnetic_ratio_arm_II(alpha: float) -> float:
    """Exact arm-II rotation ratio: 1 + sin^2(alpha/2), the spin-flip
    amplitude i sin(alpha/2) adding in quadrature."""
    return 1.0 + math.sin(alpha / 2.0) ** 2


def anomalous_exact_shift(g: float, tan_theta: float, width: float) -> float:
    """Exact pointer shift for pre |+z>, post cos t <+z| + sin t <-z|, A = sigma_x.

    Branch weights over |+x>, |-x>: w_pm = (cos t +- sin t)/2; centers
    +-g. Cross position elements vanish by symmetry, cross overlaps are
    exp(-g^2 / (2 width^2)).
    """
    t = math.atan(tan_theta)
    w_p = (math.cos(t) + math.sin(t)) / 2.0
    w_m = (math.cos(t) - math.sin(t)) / 2.0
    cross = math.exp(-(g**2) / (2.0 * width**2))
    num = g * w_p**2 - g * w_m**2
    den = w_p**2 + w_m**2 + 2.0 * w_p * w_m * cross
    return num / den


def anomalous_postselect_prob(g: float, tan_theta: float, width: float) -> float:
    """Exact coupled postselection probability for the anomalous context."""
    t = math.atan(tan_theta)
    w_p = (math.cos(t) + math.sin(t)) / 2.0
    w_m = (math.cos(t) - math.sin(t)) / 2.0
    cross = math.exp(-(g**2) / (2.0 * width**2))
    return w_p**2 + w_m**2 + 2.0 * w_p * w_m * cross


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1.0j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1.0j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1.0j * rng.normal(size=(dim, dim))
    qmat, r = np.linalg.qr(m)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def quadrature_readout(psi, chi, matrix, gs, width: float):
    """Exact pointer shift and coupled norm^2 at each coupling in ``gs``, by quadrature.

    The postselected pointer is sum_k <chi|a_k><a_k|psi> phi0(x - g a_k)
    over a dense eigendecomposition of ``matrix``, one term per
    eigenvector; phi0 is the unit Gaussian of ``width`` at rest at 0.
    """
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    coeffs = [np.vdot(chi, vecs[:, k]) * np.vdot(vecs[:, k], psi) for k in range(len(vals))]
    shifts = [quadrature_mean_position(coeffs, [g * a for a in vals], width) for g in gs]
    norms = [quadrature_norm_sq(coeffs, [g * a for a in vals], width) for g in gs]
    return np.array(shifts), np.array(norms)


def branch_oracle(psi, chi, matrix):
    """What a branch table holds, by a dense ``eigh`` of ``matrix``.

    Returns the distinct eigenvalues a_k with c_k = sum <chi|v><v|psi> over the
    eigenvectors v of a_k (eigenvalues within 1e-9 of the first one of a group
    count as one), then <chi|psi>, <chi|A|psi> and <chi|A^2|psi>.
    """
    a = np.asarray(matrix, dtype=complex)
    psi, chi = np.asarray(psi, dtype=complex), np.asarray(chi, dtype=complex)
    vals, vecs = np.linalg.eigh(a)
    branches: list[list] = []
    for val, vec in zip(vals.tolist(), vecs.T):
        c = np.vdot(chi, vec) * np.vdot(vec, psi)
        if branches and abs(val - branches[-1][0]) <= 1e-9:  # eigh sorts, so a group is a run
            branches[-1][1] += c
        else:
            branches.append([val, c])
    a_psi = a @ psi
    return [tuple(b) for b in branches], np.vdot(chi, psi), np.vdot(chi, a_psi), np.vdot(chi, a @ a_psi)


def sum_rule_gap(psi, a_matrix, basis_matrix) -> tuple[float, float]:
    """<psi|A|psi> by numpy, and its gap to sum_f |<b_f|psi>|^2 A^w_f over the eigenbasis b_f of B.

    Each A^w_f is the package's weak value, read off ``branch_table`` with the
    postselection b_f. A numerically orthogonal outcome contributes
    conj(<b_f|psi>) <b_f|A|psi>, the same product without the 0 * inf ambiguity.
    """
    a = np.asarray(a_matrix, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    vals, vecs = np.linalg.eigh(a)
    spectrum = Spectrum(a.tolist(), vals.tolist(), vecs.T.tolist())
    lhs = np.vdot(psi, a @ psi)
    rhs = 0.0 + 0.0j
    for b in np.linalg.eigh(np.asarray(basis_matrix, dtype=complex))[1].T:
        table = branch_table(PrePostContext(psi.tolist(), b.tolist()), spectrum)
        if table.orthogonal:
            rhs += table.overlap.conjugate() * table.transition
        else:
            rhs += abs(table.overlap) ** 2 * table.weak_value()
    return float(lhs.real), float(abs(lhs - rhs))


def grid_csv_oracle(grid) -> str:
    """Grid CSV text of ``to_grid``'s ``(xs, amps, density)``, one row at a time from
    Python floats and complex numbers."""
    xs, amps, _ = grid
    lines = ["x,re,im,prob_density"]
    for x, z in zip(xs.tolist(), amps.tolist()):
        z = complex(z)
        cells = (x, z.real, z.imag, (z.conjugate() * z).real)
        lines.append(",".join(format(float(v), ".17g") for v in cells))
    return "\n".join(lines) + "\n"


def trials_csv_oracle(trials) -> str:
    """Trials CSV text of a ``(positions, postselected)`` sample, one trial at a time;
    rejected trials leave the position empty."""
    lines = ["trial_index,postselected,position"]
    positions = iter(trials[0].tolist())
    for i, hit in enumerate(trials[1].tolist()):
        lines.append(f"{i},1,{format(next(positions), '.17g')}" if hit else f"{i},0,")
    return "\n".join(lines) + "\n"


def inverse_cdf_oracle(pointer_final, u) -> np.ndarray:
    """The sampler's inverse-CDF readouts of uniforms ``u``: one plain ``np.interp`` over the
    unsorted draws, on the sampler's trapezoid CDF over its knots: ``DENSITY_POINTS`` while the
    support spans at most 32 widths, else doubled until they are at most 1/128 width apart."""
    lo, hi = support(pointer_final)
    knots, width = DENSITY_POINTS, pointer_final.width
    if hi - lo > 32.0 * width:
        while (hi - lo) / (knots - 1) > width / 128.0:
            knots *= 2
    xs = np.linspace(lo, hi, knots)
    dens = density(pointer_final, xs)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))))
    cdf /= cdf[-1]
    return np.interp(u, cdf, xs), cdf


def trial_uniforms_oracle(seed: int, start: int, count: int) -> np.ndarray:
    """The uniforms of ``count`` trials from ``start`` on, as one contiguous ``(count, 4)`` draw
    of the seeded Philox stream: row i is counter block ``start + i``."""
    bits = np.random.Philox(key=seed)
    bits.advance(start)
    return np.random.Generator(bits).random((count, DRAWS_PER_TRIAL))


def intensity_uniforms_oracle(seed: int, n: int) -> np.ndarray:
    """The uniforms of an intensity run's ``n`` trials, as one contiguous ``(n, 2)`` draw of the
    seeded Philox stream: row i holds the reference and perturbed uniforms of trial i."""
    return np.random.Generator(np.random.Philox(key=seed)).random((n, 2))


def sample_trials_oracle(coupled, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The acceptance mask and readouts of ``sample_trials(coupled, n, seed)``, from one
    contiguous draw and one unsorted lookup of every accepted trial."""
    u = trial_uniforms_oracle(seed, 0, n)
    mask = u[:, 0] < min(max(coupled.postselect_prob_coupled, 0.0), 1.0)
    return mask, inverse_cdf_oracle(coupled.pointer_final, u[mask, 1])[0]


def table_csv_oracle(header, columns) -> str:
    """A sweep table's CSV text, one row at a time, one ``format_float`` per cell."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


def rows_as_dicts(header, columns) -> list[dict]:
    """A sweep record's rows, one dict of Python floats per row."""
    return [dict(zip(header, map(float, row))) for row in zip(*columns)]
