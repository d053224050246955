"""Exact linearized semigroup around plane Couette flow, and the Picard
fixed-point machinery built on it.

In Fourier variables the linearized vorticity equation transports modes
along the shear characteristic eta -> eta + t*xi while damping them with
an explicit anisotropic heat exponent; the enhanced x-diffusion grows like
t^3. The propagator below is exact on the resolvable band: it is
spectral.characteristic_flow for the backward map (xi, eta) ->
(xi, eta + t xi), a frequency shear (a modulation in physical space),
damped by symbol_value, a diagonal multiplier. The limit semigroup of
fokker_planck is the same kernel for its own map and damping. Its
fundamental solution, green_kernel, is read off the self-similar frame,
which is built on it: the fixed Gaussian at selfsim_coords, divided by
selfsim.amplitude.

The bilinear Duhamel term of the mild formulation is marched in shearing
coordinates (Rogallo 1981) anchored at the trajectory's first time t_0:
g(tau, X, Y) = omega(t_0 + tau, X + tau Y, Y), whose spectrum at a mode
(xi, eta) is the physical one at (xi, eta - tau xi). There the linear
flow is a real diagonal multiplier (_carry) on a fixed lattice, so the
march shears nothing: each sample is read into shearing coordinates
once, and each target is vetted for aliasing and read back once. The
shear has determinant 1, so the transport term there is the same
Poisson bracket with the Laplacian symbol -(xi^2 + (eta - tau xi)^2).
Its factors (spectral.transport_factors) are linear in the spectra, so a
quadrature node's are the Lagrange combination of its stencil samples'
factors, and its term, bilinear in them, is the combination of the
stencil's pair terms with the products of the Lagrange weights. All
nodes of a panel set lie in one sample interval and read its stencil,
so the march transforms each pair of samples that share a stencil once
(spectral.pair_product, stacked), keeps the pairs in a fixed ring, and
weighs each with one real multiplier: the sum over the set's nodes of
the pair's weight times the node's multiplier (Gauss weight, carry and
physical 2/3 mask), one small matrix product per chunk of nodes. Per
iteration, the factors' inverse transforms run once per sample and the
forward transforms once per pair: a 4-wide stencil has 10 pairs, and
each later stencil brings 4, whatever the panel depth. The pair spectra
are non-zero only on the 2n/3 + 1 rows and n/3 + 1 columns the 2/3
rule keeps, so the multipliers and the accumulation run on that block
alone, and a target is widened to the half layout only to be vetted and
read back. Each sample interval is integrated once, by Gauss panels
graded at the band's fastest decay rate, so one Picard iteration costs a
number of transforms linear in the number of time samples. What depends
on the time grid alone (each interval's multipliers and carry, each
shear slope's phase and band-exit mask) is built once per Picard solve
and dropped when it ends (picard_solve, spectral.solve_memo).
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    DivergenceError,
    DomainError,
    GridError,
    NoConvergenceError,
    check_order,
    check_positive,
    check_reals,
    check_time,
    check_times,
)
from .grid import Field
from .selfsim import amplitude, selfsim_coords
from .spectral import (band_exit, characteristic_flow, kept_cols, lp_norm,
                       pair_product, solve_memo, transport_factors)


def green_kernel(nu, t, x, y):
    """Fundamental solution of the linearized equation, evaluated pointwise.

    An anisotropic, sheared Gaussian: variance grows like nu*t^3 along x
    (shear-enhanced diffusion) and like nu*t along the tilted y direction.
    The self-similar frame is built on it: it is the fixed Gaussian
    (1/4pi) exp(-(X^2 + Y^2)/4) at the frame coordinates (X, Y) of (x, y)
    (selfsim_coords), divided by the frame's amplitude.
    """
    check_positive(nu, "viscosity")
    t = check_times(t, "green_kernel time")
    if not np.all(t > 0):
        raise DomainError("green_kernel requires a finite t > 0")
    X, Y = selfsim_coords(t, nu, x, y)
    return np.exp(-(X * X + Y * Y) / 4.0) / (4.0 * np.pi * amplitude(t, nu))


def symbol_value(nu, t, xi, eta):
    """Damping multiplier of the propagator at one Fourier mode.

    Equals exp(-nu * integral over [0, t] of xi^2 + (eta + s*xi)^2 ds); the
    integral evaluates to xi^2 t + xi eta t^2 + eta^2 t + xi^2 t^3 / 3 and
    is nonnegative, so the multiplier never exceeds 1.
    """
    check_positive(nu, "viscosity")
    t = check_times(t, "symbol_value time")
    xi = check_reals(xi, "symbol_value xi")
    eta = check_reals(eta, "symbol_value eta")
    return _damping(nu, t, xi, eta)


def _damping(nu, t, xi, eta):
    """symbol_value's multiplier in closed form, its arguments unchecked
    and broadcast together."""
    expo = t * (xi ** 2 + eta ** 2) + t ** 2 * xi * eta + (t ** 3 / 3.0) * xi ** 2
    return np.exp(-nu * expo)


_ALIAS_TOL = 1e-9


def _flow(c, grid, t, damping=1.0):
    """The half spectrum c read at (xi, eta + t xi), times damping: the
    kernel spectral.characteristic_flow for the pure shear by t, whose
    scaling stage is the identity; unvetted."""
    return characteristic_flow(c, grid, ((1, 0), (t, 1)), damping)


def apply_semigroup(f, nu, t, alias_tol=_ALIAS_TOL):
    """Advance a physical-frame vorticity field by the linear propagator.

    Exact on the resolvable band. Modes whose source lies outside the band
    are dropped (their true content is below resolution for a resolved
    field); if the dropped contribution would have been significant the
    input was under-resolved and an AliasingError identifies the worst
    offending mode.
    """
    check_positive(nu, "viscosity")
    check_positive(alias_tol, "alias_tol")
    t = check_time(t, "time")
    if t == 0.0:
        return f
    grid = f.grid
    _check_alias(f.coeffs, grid, t, alias_tol, nu)
    return Field(grid, coeffs=_flow(f.coeffs, grid, t, symbol_value(
        nu, t, *grid.wavegrid())))


def _check_alias(c, grid, t, alias_tol, nu=None):
    """Raise AliasingError if the spectrum c has significant content on
    the modes (xi, eta) that the shear eta -> eta - t xi carries out of the
    band: those S(t) drops, and in shearing coordinates at shear time t
    those whose physical frequency is past the band.

    Given nu, dropped content is weighted by the viscous factor it would
    carry at its destination, since that is exactly what the discarded
    contribution would have amounted to; a spectrum in shearing
    coordinates carries its decay already. It is significant above
    alias_tol times the peak |c|. The lost modes are those whose request
    -t xi + eta leaves the band (spectral.band_exit), kept once per lag
    in an open solve memo.
    """
    kx, ky = np.broadcast_arrays(*grid.wavegrid())
    lost = band_exit(grid, -t)
    if not lost.any():
        return
    mag = np.abs(c)
    ref = max(float(mag.max()), 1e-300)
    cin = mag[lost]
    if nu is not None:
        cin = cin * symbol_value(nu, t, kx[lost], ky[lost] - t * kx[lost])
    worst = float(cin.max())
    if worst > alias_tol * ref:
        i, j = np.argwhere(lost)[np.argmax(cin)]
        mode = (float(grid.k[i]), float(grid.k[j]))
        raise AliasingError(
            f"shift t*xi moved significant content across the band "
            f"(decay-weighted |lost|/|peak| = {worst / ref:.2e} "
            f"at mode {mode})",
            mode=mode)


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled vorticity evolution at fixed viscosity."""

    times: tuple
    fields: tuple
    nu: float
    # solver convergence metadata (Picard update distance per iteration);
    # empty for hand-built trajectories
    history: tuple = ()

    def __post_init__(self):
        try:
            times = tuple(check_time(t, "trajectory time") for t in self.times)
            fields = tuple(self.fields)
        except TypeError:
            raise GridError("trajectory times and fields must be sequences") from None
        if len(times) == 0 or len(times) != len(fields):
            raise GridError("trajectory needs matching, nonempty times and fields")
        if not all(isinstance(f, Field) for f in fields):
            raise GridError("trajectory fields must be Fields")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise DomainError("trajectory times must be strictly increasing")
        check_positive(self.nu, "viscosity")
        grid = fields[0].grid
        if any(f.grid != grid for f in fields):
            raise GridError("trajectory fields must share one grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fields", fields)

    def __len__(self):
        return len(self.times)

    @property
    def grid(self):
        return self.fields[0].grid


def kato_norm(traj):
    """sup over samples of (nu t <t>)^(1/4) ||omega(t)||_{L^{4/3}}.

    The weight vanishes at t = 0, so an initial sample at time zero does
    not contribute; <t> = (1 + t^2)^(1/2).
    """
    best = 0.0
    for t, f in zip(traj.times, traj.fields):
        w = (traj.nu * t * np.hypot(1.0, t)) ** 0.25
        if w == 0.0:
            continue
        best = max(best, w * lp_norm(f, 4.0 / 3.0))
    return float(best)


def _lagrange_weights(ts, s, width=4):
    """Interpolation stencil (indices, weights) for time s on sample grid ts.
    s may be an array of times inside one sample interval: they share one
    stencil, found from the least of them, and each weight is an array
    over s."""
    n = len(ts)
    width = min(width, n)
    # center the stencil on s, clamped to the sample range
    i = int(np.searchsorted(ts, np.min(s)))
    lo = max(0, min(i - width // 2, n - width))
    idx = range(lo, lo + width)
    w = []
    for a in idx:
        num = 1.0
        for b in idx:
            if b != a:
                num *= (s - ts[b]) / (ts[a] - ts[b])
        w.append(num)
    return list(idx), w


@functools.cache
def _gauss_legendre():
    """The 8-point Gauss-Legendre rule on [-1, 1], formed on first use:
    numpy loads numpy.polynomial only then, and only picard reads it."""
    return np.polynomial.legendre.leggauss(8)


def _gl_nodes(a, b):
    """8-point Gauss-Legendre nodes/weights on [a, b]."""
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    nodes, weights = _gauss_legendre()
    return mid + rad * nodes, rad * weights


def _panel_set(a, b, rate):
    """Gauss-Legendre nodes/weights on [a, b] for an integrand decaying
    like exp(-rate (b - s)): 8-point panels with breaks b - d/2, b - d/4,
    ... (d = b - a), as many as bring rate times the length of the last
    panel down to 4, i.e. 1 + ceil(log2(rate d / 4)) if rate d > 4, else 1.
    """
    d = b - a
    depth = 1 + max(0, math.ceil(math.log2(rate * d / 4.0)))
    breaks = [a] + [b - d / 2.0 ** j for j in range(1, depth)] + [b]
    nodes, weights = zip(*map(_gl_nodes, breaks[:-1], breaks[1:]))
    return np.concatenate(nodes), np.concatenate(weights)


def _carry(nu, grid, a, b, cols=None):
    """The linear flow in shearing coordinates from shear time a to b:
    the real multiplier exp(-nu * integral over [a, b] of
    xi^2 + (eta - r xi)^2 dr) on the half layout, or on its first cols
    columns; an array of start times a gives one multiplier per entry,
    on leading axes."""
    kx, ky = grid.wavegrid()
    ky = ky[:, :cols]
    return _damping(nu, b - a, kx, ky - b * kx)


def _duhamel_targets(traj1, traj2, targets, tables=None):
    """Bilinear Duhamel integrals at several target times, in one march.

    Each target t gets -(integral over s in [t_0, t] of S(t - s) g(s)),
    where g is the transport term of the pair and S the propagator. The
    march runs in shearing coordinates at shear time tau = t - t_0 (see
    the module docstring), where S is the multiplier _carry. One
    accumulator J_k = integral over [t_0, t_k] of carry(s, t_k) g(s) is
    marched with J_{k+1} = carry(t_k, t_{k+1}) J_k + (panel set on
    [t_k, t_{k+1}]), the panels graded toward t_{k+1} at the band's
    fastest decay rate 2 nu k_max^2 (one 8-node panel while rate times the
    interval is at most 4). A sample target t_k is J_k itself; a target t
    in (t_k, t_{k+1}) is carry(t_k, t) J_k plus one panel set on [t_k, t].
    So every interval is integrated once and the cost is linear in the
    number of samples; the multipliers compose to roundoff.

    The march runs on arrays. Each sample is read into shearing
    coordinates, and its transport factors built there, once per call,
    and kept while a stencil reads them, at most 4 samples' at a time.
    g(s) is the transport term of the factors interpolated at s, which
    equals the transport kernel on the spectra (and stream functions)
    interpolated at s up to roundoff, as the factors are linear in the
    spectra; it is then cut to the physical 2/3 box at s. The term is
    bilinear in the factors, so with the stencil's Lagrange weights L_i,
    g(s) = sum over stencil pairs i <= j of L_i(s) L_j(s) Q_ij, where
    Q_ij = u_i . grad w_j + u_j . grad w_i, or u_i . grad w_i when i = j
    (spectral.pair_product). Each pair is transformed once per call,
    when a stencil first reads it, and its kept block held in a ring of
    one slot per pair of a stencil (10 for 4 samples) while stencils
    read it; consecutive stencils share all pairs but those of the
    sample that leaves. A panel set's nodes all read one stencil, so its
    integral is sum M_ij Q_ij on the kept block, with one real
    multiplier M_ij per pair: the sum over the nodes of L_i L_j times
    the node's multiplier (its Gauss weight, its carry to the panel
    set's end and its physical 2/3 box), formed by one small matrix
    product per chunk of at most a stencil's width of nodes, and the
    sum is taken pair by pair into one array. As L_i L_j is symmetric,
    this serves two different trajectories alike. On the kept block the
    pair spectra are zero off the 2n/3 + 1 rows the 2/3 rule keeps, so
    the ring, the multipliers, the carries and J hold those rows alone;
    J stays +0.0 on the others, which is what a target reads there.
    J is only ever multiplied, so it carries its decay and no shear
    leakage: each target is vetted for content whose physical frequency
    lies past the band, which the read-back would drop, and read back.

    What an interval needs of the time grid alone (its panel set,
    stencil, pair slots, multipliers and carry) is built once per call,
    or, given tables (a spectral.SolveMemo, picard_solve's), once per
    solve: kept in tables.intervals, keyed by the interval's ends, and
    read by the solve's later iterations. Nothing that depends on the
    trajectories is kept.
    """
    if (traj1.nu != traj2.nu or traj1.times != traj2.times
            or traj1.grid != traj2.grid):
        raise GridError("duhamel term needs trajectories on a common grid "
                        "and time grid")
    nu = traj1.nu
    grid = traj1.grid
    ts = traj1.times
    t0 = ts[0]
    rate = 2.0 * nu * grid.k_max ** 2
    targets = [check_time(t, "target time") for t in targets]
    reads = {}  # target t -> index k of the accumulator J_k it starts from
    for t in targets:
        if not t0 <= t <= ts[-1] + 1e-12:
            raise DomainError(f"target time {t} outside trajectory range")
        if t > t0:
            reads[t] = bisect.bisect_right(ts, t) - 1
    kx, ky = grid.wavegrid()
    m = kept_cols(grid)
    ky_kept = ky[:, :m]
    # the rows the 2/3 rule keeps on the kept columns (spectral._drop_rows)
    rows = np.r_[:grid.n // 3 + 1, grid.n - grid.n // 3:grid.n]
    # A stencil reads `width` consecutive samples and the stencils only
    # move forward, so slot i % width of the factor ring holds sample i's
    # factors, and the pair ring's slot for the residues {i, j} mod width
    # holds pair (i, j)'s kept spectrum, from the first read to the last:
    # a slot is taken when its lower sample leaves the stencil, and a
    # sample or pair whose slot was taken is formed again. Within one
    # stencil the residues are distinct, so a stencil covers every slot.
    width = len(_lagrange_weights(ts, t0)[0])
    ring = np.empty((width, 4, grid.n, grid.n))
    held = [None] * width  # the sample index each factor slot holds
    pairs = list(itertools.combinations_with_replacement(range(width), 2))
    slot_of = {pair: c for c, pair in enumerate(pairs)}  # residues -> slot
    pair_ring = np.empty((len(pairs), len(rows), m), dtype=np.complex128)
    held_pairs = [None] * len(pairs)  # the sample pair each slot holds
    total, term = np.empty((2, len(rows), m), dtype=np.complex128)

    def factors(i):
        tau = ts[i] - t0
        g1 = g2 = _flow(traj1.fields[i].coeffs, grid, -tau)
        if traj2 is not traj1:
            # in an open arena scope the second flow takes g1's slab
            g1 = g1.copy()
            g2 = _flow(traj2.fields[i].coeffs, grid, -tau)
        return transport_factors(g1, g2, grid, -(kx ** 2 + (ky - tau * kx) ** 2))

    def interval(a, b):
        # (stencil, pair slots, multipliers, carry from a to b) of [a, b]:
        # every node lies inside [a, b], within one sample interval, so
        # all read that interval's stencil; each pair's multiplier is the
        # sum over the nodes of L_i L_j times the node's multiplier,
        # formed for up to width nodes per matrix product
        entry = None if tables is None else tables.intervals.get((a, b))
        if entry is not None:
            return entry
        s_all, w_all = _panel_set(a, b, rate)
        idx, lagrange = _lagrange_weights(ts, s_all)
        slots = [slot_of[tuple(sorted((idx[p] % width, idx[q] % width)))]
                 for p, q in pairs]
        weights = np.empty((len(pairs), len(s_all)))  # slot x node
        weights[slots] = [lagrange[p] * lagrange[q] for p, q in pairs]
        mults = np.zeros((len(pairs), grid.n, m))
        for lo in range(0, len(s_all), width):
            s, w = s_all[lo:lo + width], w_all[lo:lo + width]
            # the node multiplier: Gauss weight, carry to b, and the
            # physical 2/3 box at the node's shear time (the pair spectra
            # keep the shearing lattice's, grid.keep at t_0)
            lag = (s - t0)[:, None, None]
            mult = _carry(nu, grid, lag, b - t0, m) * w[:, None, None]
            mult *= np.abs(ky_kept - lag * kx) <= (2.0 / 3.0) * grid.band
            mults += np.tensordot(weights[:, lo:lo + width], mult, 1)
        # both are formed on all rows, then cut to the kept ones: a matrix
        # product's bytes may depend on its operands' shape
        entry = idx, slots, mults[:, rows], _carry(nu, grid, a - t0, b - t0, m)[rows]
        if tables is not None:
            for table in entry[2:]:
                table.setflags(write=False)
            tables.intervals[a, b] = entry
        return entry

    def panels(a, b):
        # the carry from a to b, and the panel set's integral on the kept
        # rows, into total: transform the stencil's pairs not yet held,
        # up to width per stacked call, then add each pair's term times
        # its multiplier in slot order, from +0.0, the bytes of the
        # stacked sum over the slots
        idx, slots, mults, carry = interval(a, b)
        for i in idx:
            if held[i % width] != i:
                ring[i % width], held[i % width] = factors(i), i
        new = [((idx[p], idx[q]), c) for (p, q), c in zip(pairs, slots)
               if held_pairs[c] != (idx[p], idx[q])]
        for lo in range(0, len(new), width):
            chunk = new[lo:lo + width]
            spectra = pair_product(ring, [(i % width, j % width)
                                          for (i, j), _ in chunk], grid)
            for (pair, c), spectrum in zip(chunk, spectra):
                pair_ring[c], held_pairs[c] = spectrum[rows, :m], pair
        total.fill(0.0)
        for mult, spectrum in zip(mults, pair_ring):
            np.add(total, np.multiply(mult, spectrum, out=term), out=total)
        return carry, total

    zero = np.zeros((grid.n, grid.half_cols), dtype=np.complex128)
    done = {t0: Field(grid, coeffs=zero)}
    acc = np.zeros((len(rows), m), dtype=np.complex128)  # J_k, kept rows
    last = max(reads.values(), default=0)
    for k in range(last + 1):
        for t in [t for t, j in reads.items() if j == k]:
            part = zero.copy()
            if t == ts[k]:
                part[rows, :m] = acc
            else:
                carry, panel = panels(ts[k], t)
                part[rows, :m] = carry * acc + panel
            _check_alias(part, grid, t - t0, _ALIAS_TOL)
            done[t] = Field(grid, coeffs=-_flow(part, grid, t - t0))
        if k < last:
            carry, panel = panels(ts[k], ts[k + 1])
            np.multiply(carry, acc, out=acc)
            acc += panel
    return [done[t] for t in targets]


def duhamel_bilinear(traj1, traj2, t):
    """The bilinear interaction term of the mild formulation at time t.

    Bilinear in its arguments and mass-free (it is a divergence), so for
    zero input it vanishes identically.
    """
    return _duhamel_targets(traj1, traj2, [t])[0]


PICARD_MAX_ITER = 12  # iteration budget of picard_solve
PICARD_TOL = 1e-10    # relative Kato-norm update that ends the iteration
MAX_PICARD_SAMPLES = 1025  # time samples picard_solve accepts


def picard_times(horizon, n_times, t_start=0.0):
    """The time samples of picard_solve: n_times, evenly spaced over
    [t_start, t_start + horizon]. A horizon that is not positive, a
    t_start that is not a finite time, or a count outside 2 to
    MAX_PICARD_SAMPLES raises DomainError."""
    check_positive(horizon, "horizon")
    n_times = check_order(n_times, "n_times")
    if not 2 <= n_times <= MAX_PICARD_SAMPLES:
        raise DomainError(f"need 2 to {MAX_PICARD_SAMPLES} sample times, "
                          f"got {n_times}")
    t_start = check_time(t_start, "t_start")
    return tuple(t_start + horizon * j / (n_times - 1) for j in range(n_times))


def picard_solve(omega0, nu, horizon, n_times, t_start=0.0):
    """Iterate the mild formulation to its fixed point on [t_start, t_start+horizon].

    The iteration maps a trajectory to (linear flow of the data) plus the
    bilinear term of the trajectory with itself, sampled on a uniform time
    grid (picard_times). Convergence is measured in the weighted Kato norm
    of successive differences, relative to the trajectory norm; the
    per-iteration distances are kept on the result as traj.history.
    Sustained growth of the differences, or a distance or norm that
    overflows, raises DivergenceError; exhausting the budget raises
    NoConvergenceError. More than MAX_PICARD_SAMPLES samples raise
    DomainError before any work.

    What depends only on the time grid, nu and the grid is built once
    per solve: the solve opens a spectral.solve_memo on its thread around
    the linear flow and the iterations, where the shears keep each
    slope's phase and band-exit mask and the march (_duhamel_targets)
    its intervals' tables. The memo is emptied and closed when the solve
    returns or raises, so no table outlives it.
    """
    check_positive(nu, "viscosity")
    times = picard_times(horizon, n_times, t_start)
    with solve_memo() as tables:
        linear = tuple(apply_semigroup(omega0, nu, t - times[0]) for t in times)
        traj = Trajectory(times=times, fields=linear, nu=nu)
        dists = []  # Kato distance of each update
        for _ in range(PICARD_MAX_ITER):
            fields = tuple(lin + cor for lin, cor in zip(
                linear, _duhamel_targets(traj, traj, times, tables)))
            dists.append(kato_norm(Trajectory(times=times, nu=nu, fields=tuple(
                a - b for a, b in zip(fields, traj.fields)))))
            traj = Trajectory(times=times, fields=fields, nu=nu,
                              history=tuple(dists))
            scale = kato_norm(traj)
            # a zero distance ends the iteration below, so no quotient of
            # distances divides by zero
            ratios = [b / a for a, b in zip(dists, dists[1:])]
            if not (math.isfinite(dists[-1]) and math.isfinite(scale)):
                # an overflowed norm would pass the tolerance test as inf <= inf
                raise DivergenceError(
                    f"Picard Kato norms overflowed (update distance {dists[-1]!r}, "
                    f"trajectory norm {scale!r}); data too large for the "
                    "contraction regime", ratios=ratios)
            scale = max(scale, 1e-300)
            if len(dists) >= 3 and dists[-3] <= dists[-2] <= dists[-1]:
                raise DivergenceError(
                    f"Picard differences growing (ratios {ratios[-2]:.3f}, "
                    f"{ratios[-1]:.3f}); data too large for the contraction "
                    "regime", ratios=ratios)
            if dists[-1] <= PICARD_TOL * scale:
                return traj
    raise NoConvergenceError(
        f"Picard iteration did not reach tol={PICARD_TOL:g} within {PICARD_MAX_ITER} "
        f"iterations (last relative update {dists[-1] / scale:.3e})", residual=dists[-1])
