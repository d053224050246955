"""Independent reference computations used by the tests.

Everything here is deliberately built from a different route than the
package internals: closed-form Gaussian algebra, symbolic differentiation,
scalar quadrature, trigonometric sums taken one point at a time or as
dense unfolded matrix stages, the conservative form of the transport term
and the non-conservative form of the frame drift, for the Duhamel term
that integrand under a different quadrature, summed without a time march
and carried by a full-layout shear, the aliasing vetting over whole
drop sets, and the frame evolver's right-hand side on the full spectrum.
The full-layout references take and return full fft-layout coefficient
arrays, not Fields. Three references keep, on half spectra, a route the
library left for speed: the transport kernel on the whole half layout,
the Duhamel march with each node's transport term formed from
interpolated spectra, and the energy pair with one two-axis inverse
transform per derivative order. Agreement between these and the library
is the point of the tests that import them.
"""

import numpy as np

from shearvortex import AliasingError, FrameCoefficients
from shearvortex.fokker_planck import char_map, symbol_exponent
from shearvortex.propagator import (_gl_nodes, _lagrange_weights, _panel_set,
                                    symbol_value)
from shearvortex.diagnostics import _D_TERMS, _E_TERMS
from shearvortex.spectral import (derivative_symbol, shear_spectrum,
                                  transport_spectrum, weight_samples)

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


def affine_trig_sum_dense(a, s, rp, rq, m11, m21, m22, sign):
    """The sum of spectral.affine_trig_sum, out[p, q] = sum over j, k of
    a[j, k] exp(sign i (s_j X + s_k Y)) at (X, Y) = (m11 rp_p,
    m21 rp_p + m22 rq_q), as two dense stages over the whole lattice:
    every exponential taken, no mirror symmetry of s or rq used, so any
    s and rq will do. A real a takes its first stage as cosine and sine
    products."""
    phase = sign * 1j
    arg = np.outer(rp, m11 * s)
    if np.isrealobj(a):
        out = np.cos(arg) @ a + phase * (np.sin(arg) @ a)   # [p, k]
    else:
        out = np.exp(phase * arg) @ a                       # [p, k]
    out *= np.exp(phase * np.outer(rp, m21 * s))            # phase in rp_p per s_k
    return out @ np.exp(phase * np.outer(m22 * s, rq))      # [p, q]


def full_coeffs(v):
    """Full fft-layout coefficients of the samples v, normalized so the
    zero mode is their mean."""
    return np.fft.fft2(v) / v.shape[0] ** 2


def full_spectrum(c):
    """Full fft-layout coefficients of the real field with half spectrum c,
    completed entry by entry by Hermitian symmetry, H[-j, -l] =
    conj(H[j, l]): columns n/2+1..n-1 mirror c's columns n/2-1..1, and
    the self-mirrored columns 0 and n/2 take their Hermitian part, which
    is what irfft2 reads of them. The result is exactly Hermitian."""
    n, h = c.shape
    rows = -np.arange(n) % n                     # the row index of -j
    out = np.empty((n, n), dtype=np.complex128)
    out[:, :h] = c
    out[:, h:] = np.conj(c[rows][:, h - 2:0:-1])
    for col in (0, n // 2):
        out[:, col] = 0.5 * (c[:, col] + np.conj(c[rows, col]))
    return out


def full_values(c):
    """Samples of the real part of the field with full coefficients c."""
    return (np.fft.ifft2(c) * c.shape[0] ** 2).real


def derivative_samples(c, grid, a, b):
    """Samples of d^a/dx1^a d^b/dx2^b of the real field with half spectrum
    c: one inverse real transform over both axes."""
    return np.fft.irfft2(c * derivative_symbol(grid, a, b), norm="forward")


def energy_per_order(omega, t, coef):
    """E and D of the hypocoercive pair from the samples <x>^m d^a omega,
    each order by its own derivative_samples, and the inner product of
    every pair of orders the row tables name, summed row by row."""
    grid = omega.grid
    weight = weight_samples(grid, coef.m)
    rows = _E_TERMS + _D_TERMS
    orders = {o for row in rows for o in row[2:] if o is not None}
    f = {o: weight * derivative_samples(omega.coeffs, grid, *o) for o in orders}
    h2 = grid.spacing ** 2

    def gram(a, b):
        return float(np.sum(f[a] * f[b])) * h2

    log = np.log(t / coef.t0)
    decay = 1.0 / (1.0 + t * t)
    cs = (1.0, coef.c1, coef.c2, coef.c3, coef.c4, coef.c5, coef.c6, coef.c7)
    e = sum(cs[ci] * log ** lp * gram(a, b) for ci, lp, a, b in _E_TERMS)
    d = sum(cs[ci] * log ** lp
            * (gram(b, b) + (decay * gram(a, a) if a is not None else 0.0))
            for ci, lp, a, b in _D_TERMS)
    return e, d


def laplacian_symbol_full(grid, co=None):
    """Full-layout symbol of the plain Laplacian, or of the frame
    Laplacian with coefficients co."""
    k1, k2 = np.meshgrid(grid.k, grid.k, indexing="ij")
    if co is None:
        return -(k1 ** 2 + k2 ** 2)
    return -(co.diff1 * (k1 - co.mix * k2) ** 2 + co.diff2 * k2 ** 2)


def keep_full(grid, tau=0.0):
    """Full-layout keep mask of the 2/3 rule on the modes (k1, k2 - tau k1),
    with the band's 1e-12 slack: in shearing coordinates at shear time
    tau, the physical 2/3 box."""
    k1, k2 = np.meshgrid(grid.k, grid.k, indexing="ij")
    cut = grid.k_max * (2.0 / 3.0) * (1.0 + 1e-12)
    return (np.abs(k1) <= cut) & (np.abs(k2 - tau * k1) <= cut)


def stream_full(c, sym):
    """c / sym on full fft-layout coefficients, zero where the symbol
    vanishes."""
    safe = np.where(sym == 0.0, 1.0, sym)
    return np.where(sym == 0.0, 0.0, c / safe)


def advection_divergence(c1, c2, grid, sym=None):
    """Conservative form div(u w) of the dealiased transport term, on full
    fft-layout coefficients, with u = perp-gradient of the stream function
    of keep * c1 under the full-layout Laplacian symbol given (default
    the plain one) and w = keep * c2. The divergence of the products, not
    u . grad(w): the two agree because div(u) = 0 and the 2/3 rule keeps
    only unaliased modes of the product.
    """
    if sym is None:
        sym = laplacian_symbol_full(grid)
    return bracket_divergence(stream_full(c1 * keep_full(grid), sym), c2, grid)


def bracket_divergence(psi, c2, grid):
    """div(u w) on full fft-layout coefficients, u = perp-gradient of the
    stream function psi and w = keep * c2, cut to the keep mask."""
    keep = keep_full(grid)
    d = grid.multipliers[1]
    d1, d2 = d[:, None], d[None, :]
    u1 = full_values(-d2 * psi)
    u2 = full_values(d1 * psi)
    w = full_values(c2 * keep)
    div = d1 * full_coeffs(u1 * w) + d2 * full_coeffs(u2 * w)
    return div * keep


def transport_spectrum_full_width(omega, w, grid, symbol):
    """The dealiased transport kernel on the whole half layout: four
    irfft2 of the velocity and gradient spectra, the product, one rfft2,
    then the keep mask; the library runs each stage on the kept columns
    only, with the same arithmetic."""
    keep = grid.keep
    d1 = grid.multipliers[1][:, None]
    d2 = grid.multipliers[1][None, :grid.half_cols]
    od = omega * keep
    wd = od if w is omega else w * keep
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = od / symbol
    psi[0, 0] = 0.0
    irfft2 = np.fft.irfft2
    prod = (irfft2(-d2 * psi, norm="forward") * irfft2(d1 * wd, norm="forward")
            + irfft2(d1 * psi, norm="forward") * irfft2(d2 * wd, norm="forward"))
    return np.fft.rfft2(prod, norm="forward") * keep


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
    the drifts and the constant sampled from the field's full spectrum,
    the frame symbol minus sym_mid (both n x n) times the coefficients
    and, if nonlinear, the conservative form of the advection term. Every
    transform is a complex one of the full spectrum."""
    grid = f.grid
    co = FrameCoefficients.at_time(t)
    sym = laplacian_symbol_full(grid, co)
    c = full_coeffs(f.values)
    d = grid.multipliers[1]
    fx = full_values(d[:, None] * c)
    fy = full_values(d[None, :] * c)
    x, y = np.meshgrid(grid.x, grid.x, indexing="ij")
    drift = (co.dil1 * (x - co.mix * y) * (fx - co.mix * fy)
             + co.dil2 * y * fy + co.rot * (x * fy - y * fx)
             + co.const * f.values)
    out = full_coeffs(drift) + (sym - sym_mid) * c
    if nonlinear:
        out = out - (co.nonlin / nu) * advection_divergence(c, c, grid, sym)
    return out


def shear_full(c, grid, slope):
    """The full spectrum c evaluated at (xi_j, slope*xi_j + eta_k) as a
    modulation along the second axis; targets whose request lies outside
    the band read zero."""
    k = grid.k
    mixed = np.fft.ifft(c, axis=1) * np.exp(-1j * slope * np.outer(k, grid.x))
    out = np.fft.fft(mixed, axis=1)
    out[np.abs(slope * k[:, None] + k[None, :]) > grid.band] = 0.0
    return out


def check_alias_unpruned(c, grid, nu, lags, alias_tol):
    """The aliasing vetting over each lag's whole drop set: raise
    AliasingError if S(t) drops significant content of the spectrum c,
    the lags t vetted in the order given, one vetting per lag."""
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


def duhamel_direct_sheared(traj1, traj2, targets):
    """Full-layout bilinear Duhamel integrals summed afresh for every
    target time, in shearing coordinates anchored at t_0 = times[0].

    Each sample is read at (xi, eta - tau xi), tau = t_i - t_0, by a
    full-layout shear, with its stream function there, g / -(xi^2 +
    (eta - tau xi)^2). A node's term is the conservative form of the
    bracket of the stream function and the spectrum, each interpolated
    at the node, cut to the physical 2/3 box at the node's shear time;
    it is multiplied straight to the target by the closed-form damping
    of shearing coordinates, with no march, then read back at
    (xi, eta + tau xi). The quadrature is the library's previous one:
    8-point Gauss-Legendre panels, one on each sample interval below t
    and four on the last, graded toward s = t, where the library derives
    its panel sets from the decay rate. The cost is quadratic in the
    number of samples.
    """
    ts = traj1.times
    grid, nu = traj1.grid, traj1.nu
    k1, k2 = np.meshgrid(grid.k, grid.k, indexing="ij")

    def read_in(traj):
        specs, streams = [], []
        for t, f in zip(ts, traj.fields):
            tau = t - ts[0]
            g = shear_full(full_coeffs(f.values), grid, -tau)
            specs.append(g)
            streams.append(stream_full(g * keep_full(grid),
                                       -(k1 ** 2 + (k2 - tau * k1) ** 2)))
        return specs, streams

    def at(samples, s):
        idx, w = _lagrange_weights(ts, s)
        return sum(wi * samples[i] for i, wi in zip(idx, w))

    def panels(t):
        edges = [ts[0]] + [u for u in ts[1:] if u < t - 1e-14] + [t]
        a0, d = edges[-2], t - edges[-2]
        breaks = (a0, a0 + 0.5 * d, a0 + 0.75 * d, a0 + 0.875 * d, t)
        return (list(zip(edges[:-2], edges[1:-1]))
                + list(zip(breaks[:-1], breaks[1:])))

    specs, streams = read_in(traj1)
    specs2 = specs if traj2 is traj1 else read_in(traj2)[0]
    out = []
    for t in targets:
        t = float(t)
        tau = t - ts[0]
        acc = np.zeros((grid.n,) * 2, dtype=complex)
        if t > ts[0]:
            for a, b in panels(t):
                for s, w in zip(*_gl_nodes(a, b)):
                    g = bracket_divergence(at(streams, s), at(specs2, s), grid)
                    g *= keep_full(grid, s - ts[0])
                    acc += w * symbol_value(nu, t - s, k1, k2 - tau * k1) * g
        out.append(-shear_full(acc, grid, tau))
    return out


def duhamel_per_node(traj1, traj2, targets):
    """The library's Duhamel march in shearing coordinates, unvetted, with
    each node's transport term formed from the spectra and stream
    functions interpolated at the node.

    The library interpolates each node's transport factors from its
    stencil samples' factors instead; the two are equal up to roundoff,
    because the factors are linear in the spectra. Each target is
    marched afresh from t_0, so the cost is quadratic in the number of
    samples.
    """
    grid, ts, nu = traj1.grid, traj1.times, traj1.nu
    kx, ky = grid.wavegrid()
    rate = 2.0 * nu * grid.k_max ** 2
    unit = np.ones((grid.n, grid.half_cols))

    def shear(c, tau):
        out, oob = shear_spectrum(c, grid, tau)
        out[oob] = 0.0
        return out

    def read_in(traj):
        specs, streams = [], []
        for t, f in zip(ts, traj.fields):
            tau = t - ts[0]
            g = shear(f.coeffs, -tau)
            specs.append(g)
            psi = g * grid.keep / -(kx ** 2 + (ky - tau * kx) ** 2)
            psi[0, 0] = 0.0
            streams.append(psi)
        return specs, streams

    def at(samples, s):
        idx, w = _lagrange_weights(ts, s)
        return sum(wi * samples[i] for i, wi in zip(idx, w))

    def carry(a, b):
        return symbol_value(nu, (b - ts[0]) - (a - ts[0]), kx,
                            ky - (b - ts[0]) * kx)

    with np.errstate(divide="ignore", invalid="ignore"):
        specs, streams = read_in(traj1)
        specs2 = specs if traj2 is traj1 else read_in(traj2)[0]

    def panels(a, b):
        total = 0.0
        for s, w in zip(*_panel_set(a, b, rate)):
            # the stream function as the spectrum, under a unit symbol
            g = transport_spectrum(at(streams, s), at(specs2, s), grid, unit)
            g *= np.abs(ky - (s - ts[0]) * kx) <= (2.0 / 3.0) * grid.band
            total = total + w * carry(s, b) * g
        return total

    out = []
    for t in targets:
        acc = np.zeros((grid.n, grid.half_cols), dtype=complex)
        k = 0
        while k + 1 < len(ts) and ts[k + 1] <= t:
            acc = carry(ts[k], ts[k + 1]) * acc + panels(ts[k], ts[k + 1])
            k += 1
        if t > ts[k]:
            acc = carry(ts[k], t) * acc + panels(ts[k], t)
        out.append(-shear(acc, t - ts[0]))
    return out


def limit_semigroup_full(f, tau):
    """Full fft-layout coefficients of the limit semigroup over a time
    tau > 0: the frequency shear as a modulation of the complex full
    spectrum, then the scale stage at every lattice point with the complex
    samples of the sheared spectrum and the dense n x n stages written
    out, then the damping (the library evaluates the n/2 + 1 columns of
    the half layout from real samples)."""
    grid = f.grid
    n, k, x = grid.n, grid.k, grid.x
    m = char_map(tau)
    u11, u12, u22 = m.m11, m.m12, m.det / m.m11
    c = shear_full(full_coeffs(f.values), grid, m.m21 / m.m11)
    v = np.fft.ifft2(c).T * n ** 2  # transposed complex samples
    out = np.exp(-1j * np.outer(k, u22 * x)) @ v
    out *= np.exp(-1j * np.outer(k, u12 * x))
    out = (out @ np.exp(-1j * np.outer(u11 * x, k))).T / n ** 2
    out *= (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    out[np.abs(u11 * k[:, None] + u12 * k[None, :]) > grid.band] = 0.0
    out[:, np.abs(u22 * k) > grid.band] = 0.0
    return out * np.exp(symbol_exponent(tau, k[:, None], k[None, :]))
