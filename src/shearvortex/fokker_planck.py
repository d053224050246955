"""Closed-form limit semigroup of the late-time generator.

In Fourier variables the limit generator advects coefficients along linear
characteristics while damping them through an explicit quadratic-form
exponent. The semigroup therefore reduces to (i) evaluating the initial
spectrum at the backward characteristic image of each lattice mode and
(ii) multiplying by the exponent factor. Off-lattice evaluation is done
with exact trigonometric (band-limited) interpolation, split into a shear
stage and a scaling stage so each stage is separable: the shear is
spectral.shear_spectrum (FFTs), the scaling the dense affine kernel
spectral.affine_trig_sum that also changes the self-similar frame.

The field is real, so the scaling stage evaluates only the half spectrum
(the n/2 + 1 columns of the rfft2 layout) from the real samples of the
sheared spectrum: both dense stages run on n/2 + 1 rows, the first as
two real products. The damping multiplies the half spectrum, and the
result's values come from one inverse real transform of it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, ResolutionError, UnsupportedOrderError,
                     check_order, check_real)
from .grid import Field
from .spectral import (affine_trig_sum, full_spectrum, shear_spectrum,
                       spectral_tail_ratio)

SQRT3 = np.sqrt(3.0)

RESOLVED_TAIL_TOL = 1e-8  # outer-band ratio that apply_semigroup accepts


def gaussian(grid):
    """The unit-mass Gaussian equilibrium (1/4pi) exp(-r^2/4)."""
    return Field(grid, values=grid.gaussian_values)


def eigenfunction(a, b, grid):
    """Derivative-ladder eigenfunction of the limit generator.

    Applying (d1 - sqrt3 d2) a times and (sqrt3 d1 - d2) b times to the
    Gaussian produces an eigenfunction with eigenvalue -(3a + b)/2. Orders
    with a + b = 0 return the Gaussian itself (eigenvalue 0).
    """
    a = check_order(a, "eigenfunction order")
    b = check_order(b, "eigenfunction order")
    if a < 0 or b < 0 or a + b > 4:
        raise UnsupportedOrderError(f"eigenfunction orders must satisfy 0 <= a+b <= 4, got ({a}, {b})")
    g = gaussian(grid)
    d1 = grid.multipliers[1][:, None]
    d2 = grid.multipliers[1][None, :]
    mult = (d1 - SQRT3 * d2) ** a * (SQRT3 * d1 - d2) ** b
    return Field(grid, coeffs=g.coeffs * mult)


def eigenvalue(a, b):
    """Decay rate of eigenfunction(a, b) under the limit semigroup."""
    return -(3 * a + b) / 2.0


def symbol_exponent(tau, xi, eta):
    """Quadratic-form exponent Phi(tau, xi, eta) of the semigroup symbol.

    Always <= 0; tends to -(xi^2 + eta^2) as tau -> infinity, which is the
    Fourier transform exponent of the Gaussian equilibrium.
    """
    if np.any(np.asarray(tau) < 0):
        raise DomainError("tau must be nonnegative")
    e = np.exp(-np.asarray(tau, dtype=np.float64))
    return (-(1 - e) ** 3 * xi ** 2
            - 2.0 * SQRT3 * e * (1 - e) ** 2 * xi * eta
            - (1 - e) * (1 + 3 * e ** 2) * eta ** 2)


@dataclass(frozen=True)
class CharMap:
    """Backward characteristic map of Fourier modes over a time tau.

    Linear map with matrix [[m11, m12], [m21, m22]]; its determinant is
    exp(-2 tau) (two contracting directions with rates 1/2 and 3/2).
    """

    tau: float
    m11: float
    m12: float
    m21: float
    m22: float

    @property
    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21


def char_map(tau):
    """Backward characteristics as an explicit 2x2 map: a mode (xi, eta)
    is read from (m11 xi + m12 eta, m21 xi + m22 eta) after a time tau."""
    tau = check_real(tau, "tau")
    if not 0.0 <= tau < np.inf:
        raise DomainError(f"tau must be finite and nonnegative, got {tau!r}")
    e1 = np.exp(-tau / 2.0)
    e3 = np.exp(-3.0 * tau / 2.0)
    return CharMap(
        tau=tau,
        m11=1.5 * e1 - 0.5 * e3,
        m12=-0.5 * SQRT3 * e1 + 0.5 * SQRT3 * e3,
        m21=0.5 * SQRT3 * e1 - 0.5 * SQRT3 * e3,
        m22=-0.5 * e1 + 1.5 * e3,
    )


def _scale_stage(coeffs, grid, u11, u12, u22):
    """Trig-exact evaluation at (u11*xi_j + u12*eta_k, u22*eta_k), on the
    half layout: the n/2 + 1 columns eta_k of a real field's spectrum.

    The samples of coeffs are read as real, as Field.values reads them.
    The map is upper triangular in (xi, eta), so the shared kernel runs
    on the transposed samples, where it is lower triangular, with the
    half columns as its row points.
    """
    n, h = grid.n, grid.half_cols
    k = grid.k
    v = (np.fft.ifft2(coeffs) * n ** 2).real  # physical samples
    out = affine_trig_sum(v.T, grid.x, k[:h], k, u22, u12, u11, -1).T / n ** 2
    out *= grid.signs[:, :h]  # back to fft-array sign convention
    out[np.abs(u11 * k[:, None] + u12 * k[None, :h]) > grid.band] = 0.0
    if abs(u22) * np.abs(k).max() > grid.band:
        out[:, np.abs(u22 * k[:h]) > grid.band] = 0.0
    return out


def apply_semigroup(f, tau):
    """Advance a field by the limit semigroup over a time tau >= 0.

    The zero mode is exactly preserved, so the mass of the field is
    invariant up to the rounding of its samples. The input spectrum should
    be resolved (decayed well before the band edge); otherwise the
    characteristic shift moves significant content across the band and
    the result is unreliable. The result holds both representations, its
    values from one inverse real transform of the half spectrum and its
    coeffs the Hermitian full layout of the same half spectrum; mass()
    sums those values, so it reads the kept zero mode to rounding, not
    exactly.
    """
    tau = check_real(tau, "tau")
    if not 0.0 <= tau < np.inf:
        raise DomainError(f"tau must be finite and nonnegative, got {tau!r}")
    if tau == 0.0:
        return f
    r = spectral_tail_ratio(f)
    if r > RESOLVED_TAIL_TOL:
        raise ResolutionError(
            f"spectrum not resolved: outer-band ratio {r:.2e} exceeds "
            f"{RESOLVED_TAIL_TOL:g}")
    m = char_map(tau)
    # LU split: the backward map factors into a frequency shear followed by
    # an upper-triangular scaling; m11 > 0 for every tau >= 0.
    slope = m.m21 / m.m11
    u11 = m.m11
    u12 = m.m12
    u22 = m.det / m.m11
    grid = f.grid
    c, oob = shear_spectrum(f.coeffs, grid, slope)
    c[oob] = 0.0
    c = _scale_stage(c, grid, u11, u12, u22)
    c *= np.exp(symbol_exponent(tau, grid.k[:, None],
                                grid.k[None, :grid.half_cols]))
    return Field(grid, values=np.fft.irfft2(c, norm="forward"),
                 coeffs=full_spectrum(c))
