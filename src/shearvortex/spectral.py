"""Derivatives, the Biot-Savart law, norms, quadrature and trig-exact
resampling; a Field transforms itself, and its grid keeps the arrays
these operations share.

Both frames share one Biot-Savart law: _solve, the one division by a
Laplacian symbol, and _velocity, its perp-gradient, serve
inverse_laplacian, biot_savart and transport alike. The symbol operand is
the plain Laplacian's by default and the frame Laplacian's (the plain one
at t = 0) in the frame.

Hot loops work on half spectra: a real field's coefficients in the rfft2
layout, the first n/2 + 1 columns of coeffs (normalized like coeffs, so
np.fft.irfft2(c, norm="forward") gives the values and np.fft.rfft2(v,
norm="forward") the coefficients). Column 0 and the Nyquist column n/2
are their own conjugate mirrors; the other columns stand for themselves
and their mirror images. An operator of the full layout acts on the half
layout through the first n/2 + 1 columns of its plan arrays: odd orders
zero the Nyquist mode and even orders do not depend on its sign, so the
slices are exact. transport_spectrum is the one dealiased transport
kernel; transport wraps it for Fields, derivative_samples samples a
derivative of a half spectrum, and full_spectrum turns a half spectrum
back into a Field's coeffs.

All operations assume smooth fields that decay well inside the box, so the
periodic spectral representation is accurate. Quadrature is the rectangle
rule, exact for resolved trigonometric content.
"""

import numpy as np

from .errors import (DomainError, TruncationError, UnsupportedOrderError,
                     check_order, check_real)
from .grid import MAX_DERIVATIVE_ORDER, Field


def derivative(f, a, b):
    """Mixed spectral derivative d^a/dx1^a d^b/dx2^b of the field; the odd
    orders project out the Nyquist mode (see GridSpec.multipliers)."""
    a = check_order(a, "derivative order")
    b = check_order(b, "derivative order")
    if a < 0 or b < 0 or a + b > MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrderError(
            f"derivative order ({a}, {b}) outside 0 <= a+b <= {MAX_DERIVATIVE_ORDER}")
    if a == 0 and b == 0:
        return f
    return Field(f.grid, coeffs=f.coeffs * _derivative_symbol(f.grid, a, b))


def _derivative_symbol(grid, a, b, cols=None):
    """Multiplier of d^a/dx1^a d^b/dx2^b on the first cols columns: all by
    default, grid.half_cols for a half spectrum."""
    d = grid.multipliers
    mult = 1.0
    if a:
        mult = d[a][:, None]
    if b:
        mult = mult * d[b][None, :cols]
    return mult


def derivative_samples(c, grid, a, b):
    """Samples of d^a/dx1^a d^b/dx2^b of the real field with half spectrum
    c: one inverse real transform, and no Field. Unlike a Field's, the
    samples are not checked for finiteness."""
    return np.fft.irfft2(c * _derivative_symbol(grid, a, b, grid.half_cols),
                         norm="forward")


def _solve(c, symbol):
    """Coefficients c divided by the Laplacian symbol, zero mode -> 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = c / symbol
    psi[0, 0] = 0.0
    return psi


def _velocity(c, symbol, d1, d2):
    """Spectra of (u1, u2) = (-d2 psi, d1 psi), lap(psi) = c; d1 and d2 are
    the first-derivative multipliers broadcast along axes 0 and 1."""
    psi = _solve(c, symbol)
    return -d2 * psi, d1 * psi


def inverse_laplacian(f, symbol=None):
    """Solve lap(psi) = f with the mean-zero gauge (zero mode -> 0); lap has
    the Fourier symbol given, by default the plain one, grid.laplacian."""
    if symbol is None:
        symbol = f.grid.laplacian
    return Field(f.grid, coeffs=_solve(f.coeffs, symbol))


def biot_savart(omega, symbol=None):
    """Velocity (u1, u2) = perp-gradient of the inverse Laplacian of omega.

    The gauge fixes the stream function to zero mean, so curl(u) recovers
    omega minus its mean value when the symbol is the plain Laplacian's.
    """
    grid = omega.grid
    if symbol is None:
        symbol = grid.laplacian
    d = grid.multipliers[1]
    u1, u2 = _velocity(omega.coeffs, symbol, d[:, None], d[None, :])
    return Field(grid, coeffs=u1), Field(grid, coeffs=u2)


def half_spectrum(f):
    """The field's half spectrum: a read-only view of its coeffs' first
    n/2 + 1 columns."""
    return f.coeffs[:, :f.grid.half_cols]


def full_spectrum(c):
    """Full fft-layout coefficients of the real field with half spectrum c.

    Columns 1..n/2-1 are mirrored by Hermitian symmetry; the self-mirrored
    columns 0 and n/2 take their Hermitian part, which is what irfft2
    reads of them. The result is exactly Hermitian.
    """
    n = c.shape[0]
    mirror = np.roll(c[::-1], 1, axis=0).conj()       # conj(c[-j, l])
    out = np.empty((n, n), dtype=np.complex128)
    out[:, n // 2 + 1:] = mirror[:, n // 2 - 1:0:-1]
    out[:, 1:n // 2] = c[:, 1:n // 2]
    for col in (0, n // 2):
        out[:, col] = 0.5 * (c[:, col] + mirror[:, col])
    return out


def transport_spectrum(omega, w, grid, symbol):
    """Half spectrum of u . grad(w), u the velocity of omega under the
    Laplacian symbol given, from half spectra (symbol in the half layout
    too). 2/3-dealiased on both inputs and on the product: four inverse
    real transforms and one forward."""
    h = grid.half_cols
    keep = grid.keep[:, :h]
    d = grid.multipliers[1]
    d1, d2 = d[:, None], d[None, :h]
    od = omega * keep
    wd = od if w is omega else w * keep
    u1, u2 = _velocity(od, symbol, d1, d2)
    irfft2 = np.fft.irfft2
    prod = (irfft2(u1, norm="forward") * irfft2(d1 * wd, norm="forward")
            + irfft2(u2, norm="forward") * irfft2(d2 * wd, norm="forward"))
    return np.fft.rfft2(prod, norm="forward") * keep


def transport(omega, w, symbol=None):
    """u . grad(w) with u = biot_savart(omega, symbol), 2/3-dealiased on
    both inputs and on the product; equal to div(u w), as div(u) = 0."""
    grid = omega.grid
    if symbol is None:
        symbol = grid.laplacian
    oh = half_spectrum(omega)
    wh = oh if w is omega else half_spectrum(w)
    out = transport_spectrum(oh, wh, grid, symbol[:, :grid.half_cols])
    return Field(grid, coeffs=full_spectrum(out))


def mass(f):
    """Integral of f over the box: zero spectral mode times the box area."""
    if f.has_coeffs and not f.has_values:
        return float(f.coeffs[0, 0].real) * (2.0 * f.grid.half_width) ** 2
    return float(np.sum(f.values)) * f.grid.spacing ** 2


def lp_norm(f, p):
    """L^p norm by rectangle-rule quadrature; p in [1, inf]."""
    p = check_real(p, "p")
    if not p >= 1.0:
        raise DomainError(f"p must satisfy 1 <= p <= inf, got {p!r}")
    return lp_samples(f.values, f.grid, p)


def lp_samples(v, grid, p):
    """L^p norm of the samples v by rectangle-rule quadrature; p in
    [1, inf], unchecked."""
    v = np.abs(v)
    if np.isinf(p):
        return float(v.max())
    h2 = grid.spacing ** 2
    if p == 1.0:
        return float(np.sum(v) * h2)
    if p == 2.0:
        return float(np.sqrt(np.sum(v * v) * h2))
    return float((np.sum(v ** p) * h2) ** (1.0 / p))


def _weight_exponent(m):
    m = check_real(m, "weight exponent")
    if not 0.0 <= m <= 12.0:
        raise DomainError(f"weight exponent must lie in [0, 12], got {m!r}")
    return m


def weighted_norm(f, m, a=0, b=0):
    """Weighted Sobolev-type seminorm: L^2 norm of <x>^m d^a d^b f, with
    the polynomial weight <x> = (1 + |x|^2)^(1/2) and m in [0, 12].

    Derivatives up to total order 3 are supported here; they are taken
    spectrally and the weight is applied in physical space.
    """
    m = _weight_exponent(m)
    a, b = check_order(a, "derivative order"), check_order(b, "derivative order")
    if a + b > 3:
        raise UnsupportedOrderError(f"weighted norm supports a+b <= 3, got ({a}, {b})")
    g = derivative(f, a, b)
    return weighted_l2(weight_samples(f.grid, m), g.values, f.grid)


def weight_samples(grid, m):
    """Samples of the weight <x>^m = (1 + |x|^2)^(m/2), m in [0, 12]."""
    return grid.bracket_sq ** (0.5 * _weight_exponent(m))


def weighted_l2(w, v, grid):
    """L^2 norm of the samples w * v by rectangle-rule quadrature."""
    return float(np.sqrt(np.sum((w * v) ** 2) * grid.spacing ** 2))


def weighted_inner(f, g, m=0.0):
    """Weighted L^2 inner product (f, g) with weight <x>^(2m), m in [0, 12]."""
    m = _weight_exponent(m)
    w2 = f.grid.bracket_sq ** m if m else 1.0
    h2 = f.grid.spacing ** 2
    return float(np.sum(w2 * f.values * g.values) * h2)


def dealias_mask(grid):
    """Boolean keep-mask implementing the 2/3 rule on both axes."""
    return grid.keep


def spectral_tail_ratio(f):
    """Max |coeff| in the outer eighth of the band over the overall max.

    A resolved field keeps this small; values above ~1e-6 signal that
    energy is piling up against the truncation.
    """
    c = np.abs(f.coeffs)
    peak = c.max()
    if peak == 0.0:
        return 0.0
    return float(c[f.grid.outer_band].max() / peak)


TAIL_MASS_TOL = 1e-8  # largest tail mass ratio of a localized field


def tail_mass_ratio(f):
    """Fraction of the L^1 mass outside the half-box |x|, |y| <= L/2."""
    v = np.abs(f.values)
    total = v.sum()
    if total == 0.0:
        return 0.0
    return float(v[f.grid.outside_half_box].sum() / total)


def check_localized(f, what):
    """Raise TruncationError if f's tail mass ratio exceeds TAIL_MASS_TOL."""
    r = tail_mass_ratio(f)
    if r > TAIL_MASS_TOL:
        raise TruncationError(f"{what} not localized: tail mass ratio {r:.2e} "
                              f"exceeds {TAIL_MASS_TOL:g}", tail=r)


def shear_phase(grid, slope):
    """The phase exp(-i slope xi_j y_q) of the shear by slope."""
    return np.exp(-1j * slope * np.outer(grid.k, grid.x))


def shear_out_of_band(grid, slope):
    """Boolean mask of the lattice points whose shear request
    (xi_j, slope*xi_j + eta_k) lies outside the resolvable band."""
    k = grid.k
    return np.abs(slope * k[:, None] + k[None, :]) > grid.band


def sheared(coeffs, phase):
    """The evaluation of shear_spectrum, with the shear's phase given."""
    n = coeffs.shape[0]
    mixed = np.fft.ifft(coeffs, axis=1) * n
    mixed *= phase
    return np.fft.fft(mixed, axis=1) / n


def shear_spectrum(coeffs, grid, slope):
    """Evaluate the band-limited spectrum at (xi_j, slope*xi_j + eta_k).

    A shear in the frequency plane is exactly a modulation in physical
    space, so the evaluation is trigonometrically exact: the mixed
    (axis-0 spectral, axis-1 physical) representation picks up the phase
    exp(-i slope xi_j y_q) before transforming back. Returns the evaluated
    array together with the boolean mask of lattice points whose request
    lies outside the resolvable band (those values are periodic wraps and
    should be discarded or vetted by the caller). A caller that shears by
    one slope many times keeps shear_phase and shear_out_of_band and calls
    sheared.
    """
    return (sheared(coeffs, shear_phase(grid, slope)),
            shear_out_of_band(grid, slope))


def affine_trig_sum(a, s, rp, rq, m11, m21, m22, sign):
    """Trigonometric sum of a lattice at a lower-triangular image of another.

    Returns out[p, q] = sum over j, k of a[j, k] exp(sign i (s_j X + s_k Y))
    at (X, Y) = (m11 rp_p, m21 rp_p + m22 rq_q). The map is lower
    triangular, so the exponent separates into two dense 1-D stages
    (matrix products) with a phase in rp_p between them; exact, cost
    O(len(rp) n^2). Resampling a field is sign +1 over (wavenumbers,
    centred spectrum) at rp = rq = the target points; evaluating a
    spectrum is sign -1 over (positions, samples), transposed when the map
    is upper triangular in the frequencies, and a half spectrum needs only
    the rows rp of its n/2 + 1 columns. A real lattice a takes the first
    stage as two real products, its cosine and sine parts.
    """
    phase = sign * 1j
    arg = np.outer(rp, m11 * s)
    if np.isrealobj(a):
        out = np.cos(arg) @ a + phase * (np.sin(arg) @ a)   # [p, k]
    else:
        out = np.exp(phase * arg) @ a                       # [p, k]
    out *= np.exp(phase * np.outer(rp, m21 * s))            # phase in rp_p per s_k
    return out @ np.exp(phase * np.outer(m22 * s, rq))      # [p, q]
