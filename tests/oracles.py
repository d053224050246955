"""Independent reference computations used by the tests.

Everything here is deliberately built from a different route than the
package internals: closed-form Gaussian algebra, symbolic differentiation,
scalar quadrature, trigonometric sums taken one point at a time, the
conservative form of the transport term and the non-conservative form of
the frame drift, for the Duhamel term that integrand under a different
quadrature, summed without a time march, the aliasing vetting over whole
drop sets, and the frame evolver's right-hand side on the full spectrum
through Fields.
Agreement between these and the library is the point of the tests that
import them.
"""

import numpy as np

from shearvortex import (AliasingError, Field, FrameCoefficients, apply_semigroup,
                         derivative)
from shearvortex.fokker_planck import char_map, symbol_exponent
from shearvortex.spectral import shear_spectrum
from shearvortex.propagator import _gl_nodes, _lagrange_weights, symbol_value

SQRT3 = np.sqrt(3.0)

# frozen scalar references, evaluated once at 30 significant digits
GAUSSIAN_PEAK = 0.079577471545947667884        # 1/(4 pi)
GAUSSIAN_L2 = 0.19947114020071633897           # (8 pi)^(-1/2)
GAUSSIAN_L43 = 0.42804899481670900262          # closed-form L^{4/3} integral
KATO_SINGLE_G = 0.46679073880721196247         # 2^{1/8} * ||G||_{4/3}
KERNEL_CENTER = 0.076455561618776718899        # 1/(4 pi sqrt(13/12))
SPEED_G_AT_R2 = 0.050302555783788087539        # (1 - e^{-1})/(4 pi)
SYMBOL_1110 = 0.26359713811572677008           # e^{-4/3}
COORD_X_1110 = 0.86602540378443864676          # 1/sqrt(4/3)
COORD_Y_1110 = -0.41602514716892184151         # -(1/2)/sqrt((4/3)(13/12))


def couette_kernel_covariance(nu, t):
    """Covariance of the shear-diffusion kernel as a centered Gaussian."""
    return np.array([[2.0 * nu * (t + t ** 3 / 3.0), nu * t * t],
                     [nu * t * t, 2.0 * nu * t]])


def sheared_gaussian_covariance(nu, t, sigma2):
    """Covariance of the kernel applied to an isotropic Gaussian blob.

    The shear transports the blob covariance sigma2*I to
    sigma2*[[1+t^2, t], [t, 1]]; diffusion adds the kernel covariance.
    """
    blob = sigma2 * np.array([[1.0 + t * t, t], [t, 1.0]])
    return couette_kernel_covariance(nu, t) + blob


def gauss2d(cov, x, y):
    """Unit-mass centered Gaussian density with covariance matrix cov."""
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    q = inv[0, 0] * x * x + 2.0 * inv[0, 1] * x * y + inv[1, 1] * y * y
    return np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(det))


def forward_chars(tau, xi, eta):
    """Forward frequency characteristics of the limit drift flow.

    Inverse of the backward map; the limit-semigroup damping integrates
    the second component squared along this flow.
    """
    ep = np.exp(0.5 * tau)
    ep3 = np.exp(1.5 * tau)
    big_xi = (1.5 * xi - 0.5 * SQRT3 * eta) * ep + (-0.5 * xi + 0.5 * SQRT3 * eta) * ep3
    big_eta = (0.5 * SQRT3 * xi - 0.5 * eta) * ep + (-0.5 * SQRT3 * xi + 1.5 * eta) * ep3
    return big_xi, big_eta


def trig_sum_direct(a, s, X, Y, sign):
    """sum over j, k of a[j, k] exp(sign i (s_j X + s_k Y)) at each point
    (X[p, q], Y[p, q]) separately: O(n^4), no separable matrix stages, and
    the points need not come from a triangular map."""
    out = np.empty(X.shape, dtype=complex)
    for idx in np.ndindex(X.shape):
        phase = s[:, None] * X[idx] + s[None, :] * Y[idx]
        out[idx] = np.sum(a * np.exp(sign * 1j * phase))
    return out


def advection_divergence(omega1, omega2, symbol=None):
    """Conservative form div(u w) of the dealiased transport term, with
    u = perp-gradient of the stream function of keep * omega1 under the
    Laplacian symbol given (default -(k1^2 + k2^2)) and w = keep * omega2.
    The divergence of the products, not u . grad(w): the two agree because
    div(u) = 0 and the 2/3 rule keeps only unaliased modes of the product.
    """
    grid = omega1.grid
    k1, k2 = np.meshgrid(grid.k, grid.k, indexing="ij")
    sym = -(k1 ** 2 + k2 ** 2) if symbol is None else symbol
    cut = grid.k_max * 2.0 / 3.0
    keep = (np.abs(k1) <= cut) & (np.abs(k2) <= cut)
    safe = np.where(sym == 0.0, 1.0, sym)
    psi = np.where(sym == 0.0, 0.0, omega1.coeffs * keep / safe)
    psi = Field(grid, coeffs=psi)
    u1 = -derivative(psi, 0, 1).values
    u2 = derivative(psi, 1, 0).values
    w = Field(grid, coeffs=omega2.coeffs * keep).values
    div = (derivative(Field(grid, values=u1 * w), 1, 0).coeffs
           + derivative(Field(grid, values=u2 * w), 0, 1).coeffs)
    return Field(grid, coeffs=div * keep)


def drift_spectrum_nonconservative(c, co, grid):
    """Half spectrum of the frame generator's drift and constant terms in
    the form b . grad(f) + const f: the products of the coordinates with
    the samples of f's two first derivatives, plus const times f (the
    library forms div(b f), whose zero mode vanishes by construction)."""
    d = grid.multipliers[1]
    irfft2 = np.fft.irfft2
    fx = irfft2(c * d[:, None], norm="forward")
    fy = irfft2(c * d[None, :grid.half_cols], norm="forward")
    X, Y = grid.x[:, None], grid.x[None, :]
    out = co.dil1 * (X - co.mix * Y) * (fx - co.mix * fy)
    out += co.dil2 * Y * fy
    out += co.rot * (X * fy - Y * fx)
    out += co.const * irfft2(c, norm="forward")
    return np.fft.rfft2(out, norm="forward")


def frame_rhs_full(f, t, sym_mid, nu, nonlinear):
    """Full-layout coefficients of the evolver's explicit terms at time t:
    the drifts and the constant sampled from Field values, the frame
    symbol minus sym_mid (both n x n) times the coefficients and, if
    nonlinear, the conservative form of the advection term. Every
    transform is a complex one of the full spectrum."""
    grid = f.grid
    co = FrameCoefficients.at_time(t)
    k1, k2 = np.meshgrid(grid.k, grid.k, indexing="ij")
    sym = -(co.diff1 * (k1 - co.mix * k2) ** 2 + co.diff2 * k2 ** 2)
    fx = derivative(f, 1, 0).values
    fy = derivative(f, 0, 1).values
    x, y = np.meshgrid(grid.x, grid.x, indexing="ij")
    drift = (co.dil1 * (x - co.mix * y) * (fx - co.mix * fy)
             + co.dil2 * y * fy + co.rot * (x * fy - y * fx)
             + co.const * f.values)
    out = Field(grid, values=drift).coeffs + (sym - sym_mid) * f.coeffs
    if nonlinear:
        out = out - (co.nonlin / nu) * advection_divergence(f, f, sym).coeffs
    return out


def field_at(traj, s):
    """Trajectory field at time s by polynomial interpolation of the full
    spectra (the march interpolates half spectra)."""
    ts = traj.times
    j = np.searchsorted(ts, s)
    if j < len(ts) and ts[j] == s:
        return traj.fields[j]
    idx, w = _lagrange_weights(ts, s)
    c = sum(wi * traj.fields[i].coeffs for i, wi in zip(idx, w))
    return Field(traj.grid, coeffs=c)


def check_alias_unpruned(c, grid, nu, lags, alias_tol):
    """The aliasing vetting over each lag's whole drop set: raise
    AliasingError if S(t) drops significant content of the spectrum c,
    the lags t vetted in the order given. The library keeps only the drop
    set's entries whose decay weight exceeds alias_tol."""
    kx, ky = np.broadcast_arrays(*grid.wavegrid())
    mag = np.abs(c)
    ref = max(float(mag.max()), 1e-300)
    for t in lags:
        lost = np.abs(ky - t * kx) > grid.band
        if not lost.any():
            continue
        cin = mag[lost] * symbol_value(nu, t, kx[lost], ky[lost] - t * kx[lost])
        worst = float(cin.max())
        if worst > alias_tol * ref:
            idx = np.argwhere(lost)[np.argmax(cin)]
            mode = (float(grid.k[idx[0]]), float(grid.k[idx[1]]))
            raise AliasingError(
                f"shift t*xi moved significant content across the band "
                f"(decay-weighted |lost|/|peak| = {worst / ref:.2e} "
                f"at mode {mode})",
                mode=mode)


def duhamel_direct(traj1, traj2, targets):
    """Bilinear Duhamel integrals summed afresh for every target time.

    The conservative form of the library's integrand under the library's
    previous quadrature, kept as an independent reference: one 8-point
    Gauss-Legendre panel on each sample interval below t, and the final
    interval split into a fixed four panels graded toward s = t, where the
    library now derives its panel sets from the decay rate. There is no march: every node is
    propagated straight to the target, S(t - s) g(s), so no semigroup
    composition enters. The cost is quadratic in the number of samples.
    """
    ts = np.asarray(traj1.times)
    out = []
    for t in targets:
        t = float(t)
        if t == ts[0]:
            out.append(Field(traj1.grid, coeffs=np.zeros((traj1.grid.n,) * 2, complex)))
            continue
        panels = []
        full = ts[(ts > ts[0]) & (ts < t - 1e-14)]
        edges = np.concatenate(([ts[0]], full, [t]))
        for a, b in zip(edges[:-1], edges[1:-1]):
            panels.append((a, b))
        # graded split of the final interval toward s = t
        a0 = edges[-2]
        d = t - a0
        breaks = (a0, a0 + 0.5 * d, a0 + 0.75 * d, a0 + 0.875 * d, t)
        panels.extend(zip(breaks[:-1], breaks[1:]))
        acc = np.zeros((traj1.grid.n,) * 2, dtype=complex)
        for a, b in panels:
            nodes, weights = _gl_nodes(a, b)
            for s, w in zip(nodes, weights):
                g = advection_divergence(field_at(traj1, s), field_at(traj2, s))
                acc += w * apply_semigroup(g, traj1.nu, t - s).coeffs
        out.append(Field(traj1.grid, coeffs=-acc))
    return out


def limit_semigroup_full(f, tau):
    """The limit semigroup over a time tau > 0 on the full fft layout: the
    frequency shear, then the scale stage at every lattice point with the
    complex samples of the sheared spectrum and the dense n x n stages
    written out, then the damping (the library evaluates the n/2 + 1
    columns of the half layout from real samples)."""
    grid = f.grid
    n, k, x = grid.n, grid.k, grid.x
    m = char_map(tau)
    u11, u12, u22 = m.m11, m.m12, m.det / m.m11
    c, oob = shear_spectrum(f.coeffs, grid, m.m21 / m.m11)
    c[oob] = 0.0
    v = np.fft.ifft2(c).T * n ** 2  # transposed complex samples
    out = np.exp(-1j * np.outer(k, u22 * x)) @ v
    out *= np.exp(-1j * np.outer(k, u12 * x))
    out = (out @ np.exp(-1j * np.outer(u11 * x, k))).T / n ** 2
    out *= grid.signs
    out[np.abs(u11 * k[:, None] + u12 * k[None, :]) > grid.band] = 0.0
    out[:, np.abs(u22 * k) > grid.band] = 0.0
    kx, ky = grid.wavegrid()
    return Field(grid, coeffs=out * np.exp(symbol_exponent(tau, kx, ky)))
