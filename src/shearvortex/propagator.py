"""Exact linearized semigroup around plane Couette flow, and the Picard
fixed-point machinery built on it.

In Fourier variables the linearized vorticity equation transports modes
along the shear characteristic eta -> eta + t*xi while damping them with
an explicit anisotropic heat exponent; the enhanced x-diffusion grows like
t^3. The propagator below is exact on the resolvable band: it is
spectral.characteristic_flow for the backward map (xi, eta) ->
(xi, eta + t xi), a frequency shear (a modulation in physical space),
damped by symbol_value, a diagonal multiplier. The limit semigroup of
fokker_planck is the same kernel for its own map and damping.

The bilinear Duhamel term of the mild formulation is marched in time with
the semigroup property, integrating each sample interval once by Gauss
panels graded at the band's fastest decay rate, so one Picard iteration
costs a number of propagations linear in the number of time samples. Every
quadrature node is vetted for aliasing against every target time it
contributes to. The transport term's factors (spectral.transport_factors)
are linear in the spectra, so a node's are interpolated from its
stencil samples' factors: per iteration, the four inverse transforms run
once per sample and the one forward transform once per node.

The march runs on arrays and reads a lag plan. The sample grid is uniform
and the panels sit at the same places relative to each interval's end, so
the lags repeat; the plan picard_solve shares among its iterations keeps
each distinct propagation lag's flow tables (the kernel's shear phase,
out-of-band mask and damping symbol), and for each distinct vetting lag
the flat indices of the modes S(t) drops with their destination decay
weights, keeping only the entries whose weight exceeds the vetting
tolerance. That pruning changes no vetting outcome: a pruned entry's
weighted content is at most the tolerance times the peak, so it can
neither raise nor be the worst mode of a raise. The plan keeps at most
LAG_PLAN_BUDGET bytes (one lag's flow tables take 0.2 MiB at n = 128 and
3.1 MiB at n = 512, so 10 lags fit at n = 512); past it a lag's tables
are built per call by the same arithmetic, so no result depends on the
budget. apply_semigroup runs the same kernel on tables built for the one
call.
"""

import bisect
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
    check_time,
    check_times,
)
from .grid import Field
from .spectral import (characteristic_flow, flow_tables, lp_norm,
                       transport_factors, transport_product)


def green_kernel(nu, t, x, y):
    """Fundamental solution of the linearized equation, evaluated pointwise.

    An anisotropic, sheared Gaussian: variance grows like nu*t^3 along x
    (shear-enhanced diffusion) and like nu*t along the tilted y direction.
    """
    check_positive(nu, "viscosity")
    t = check_times(t, "green_kernel time")
    if not np.all(t > 0):
        raise DomainError("green_kernel requires a finite t > 0")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a = 1.0 + t ** 2 / 3.0
    b = 1.0 + t ** 2 / 12.0
    pref = 1.0 / (4.0 * np.pi * nu * t * np.sqrt(b))
    e1 = x ** 2 / (4.0 * nu * t * a)
    e2 = (a * y - 0.5 * t * x) ** 2 / (4.0 * nu * t * a * b)
    return pref * np.exp(-(e1 + e2))


def symbol_value(nu, t, xi, eta):
    """Damping multiplier of the propagator at one Fourier mode.

    Equals exp(-nu * integral over [0, t] of xi^2 + (eta + s*xi)^2 ds); the
    integral evaluates to xi^2 t + xi eta t^2 + eta^2 t + xi^2 t^3 / 3 and
    is nonnegative, so the multiplier never exceeds 1.
    """
    check_positive(nu, "viscosity")
    t = check_times(t, "symbol_value time")
    xi = np.asarray(xi, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    expo = t * (xi ** 2 + eta ** 2) + t ** 2 * xi * eta + (t ** 3 / 3.0) * xi ** 2
    return np.exp(-nu * expo)


_ALIAS_TOL = 1e-9

LAG_PLAN_BUDGET = 32 * 2 ** 20  # bytes of lag tables one solve keeps


class _LagPlan:
    """Tables of the propagator S(t) on one grid at one viscosity, built
    once per exact lag t and kept while they fit in LAG_PLAN_BUDGET bytes;
    past it a lag's tables are built again on each call, by the same
    arithmetic.

    tables(t) are spectral.flow_tables of S(t): the shear phase
    ((n/2 + 1) x n), the out-of-band mask and the damping symbol
    (n x (n/2 + 1) each), about 0.2 MiB a lag at n = 128 and 3.1 MiB at
    n = 512, where 10 lags fit the budget, and flow(c, t) runs
    spectral.characteristic_flow on them; drops(t) is the drop set of
    S(t) vetted at alias_tol (see _drop_set and _check_alias).
    """

    def __init__(self, grid, nu, alias_tol=_ALIAS_TOL):
        self.grid = grid
        self.nu = nu
        self.alias_tol = alias_tol
        self.nbytes = 0
        self._kept = {}

    def _memo(self, key, build, *args):
        tables = self._kept.get(key)
        if tables is None:
            tables = build(self.grid, self.nu, *args)
            size = sum(a.nbytes for a in tables)
            if self.nbytes + size <= LAG_PLAN_BUDGET:
                self._kept[key] = tables
                self.nbytes += size
        return tables

    def tables(self, t):
        t = float(t)
        return self._memo(("tables", t), _lag_tables, t)

    def drops(self, t):
        t = float(t)
        return self._memo(("drops", t), _drop_set, t, self.alias_tol)

    def flow(self, c, t):
        """S(t) applied to the spectrum c, unvetted, on the lag's tables."""
        return characteristic_flow(c, self.grid, ((1.0, 0.0), (t, 1.0)),
                                   self.tables(t))


def _lag_tables(grid, nu, t):
    """spectral.flow_tables of S(t): its backward map reads a mode
    (xi, eta) from (xi, eta + t xi), and symbol_value damps it."""
    return flow_tables(grid, ((1.0, 0.0), (t, 1.0)),
                       symbol_value(nu, t, *grid.wavegrid()))


def _drop_set(grid, nu, t, alias_tol):
    """Source modes that S(t) drops, as flat indices, with the viscous
    factor each would carry at its (out of band) destination; only the
    entries whose factor exceeds alias_tol, the ones vetting can flag."""
    # vet the input, not the shifted output: source modes with
    # |eta - t*xi| > k_max are never read by any resolvable target
    kx, ky = np.broadcast_arrays(*grid.wavegrid())
    lost = np.abs(ky - t * kx) > grid.band
    weight = symbol_value(nu, t, kx[lost], ky[lost] - t * kx[lost])
    big = weight > alias_tol
    return np.flatnonzero(lost)[big], weight[big]


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
    plan = _LagPlan(f.grid, nu, alias_tol)
    _check_alias(f.coeffs, (t,), plan)
    return Field(f.grid, coeffs=plan.flow(f.coeffs, t))


def _check_alias(c, lags, plan):
    """Raise AliasingError if S(t) would drop significant content of the
    spectrum c, vetting the lags t in the order given.

    Dropped content is weighted by the viscous factor it would carry at
    its destination, since that is exactly what the discarded contribution
    would have amounted to, and it is significant above plan.alias_tol
    times the peak |c|. The plan's drop sets leave out the modes whose
    factor is at most alias_tol: such a mode's |c| * factor is at most
    peak * alias_tol (|c| <= peak, and rounding is monotone), so it can
    neither raise nor be the worst mode of a raise, and the error (message
    and mode) is the one the full drop set gives.
    """
    mag = np.abs(c)
    ref = max(float(mag.max()), 1e-300)
    flat = mag.ravel()
    for t in lags:
        idx, weight = plan.drops(t)
        if not idx.size:
            continue
        cin = flat[idx] * weight
        worst = float(cin.max())
        if worst > plan.alias_tol * ref:
            i, j = np.unravel_index(idx[np.argmax(cin)], mag.shape)
            mode = (float(plan.grid.k[i]), float(plan.grid.k[j]))
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
        times = tuple(check_time(t, "trajectory time") for t in self.times)
        fields = tuple(self.fields)
        if len(times) == 0 or len(times) != len(fields):
            raise GridError("trajectory needs matching, nonempty times and fields")
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
    """Interpolation stencil (indices, weights) for time s on sample grid ts."""
    n = len(ts)
    width = min(width, n)
    # center the stencil on s, clamped to the sample range
    i = int(np.searchsorted(ts, s))
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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gl_nodes(a, b):
    """8-point Gauss-Legendre nodes/weights on [a, b]."""
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    return mid + rad * _GL_NODES, rad * _GL_WEIGHTS


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


def _duhamel_targets(traj1, traj2, targets, plan=None):
    """Bilinear Duhamel integrals at several target times, in one march.

    Each target t gets -(integral over s in [t_0, t] of S(t - s) g(s)),
    where g is the transport term of the pair and S the propagator.
    One accumulator J_k = integral over [t_0, t_k] of S(t_k - s) g(s) is
    marched with J_{k+1} = S(t_{k+1} - t_k) J_k + (panel set on
    [t_k, t_{k+1}]), the panels graded toward t_{k+1} at the band's fastest
    decay rate 2 nu k_max^2 (one 8-node panel while rate times the interval
    is at most 4). A sample target t_k is J_k itself; a target t in
    (t_k, t_{k+1}) is S(t - t_k) J_k plus one panel set on [t_k, t]. So
    every interval is integrated once and the cost is linear in the number
    of samples; the semigroup property makes this equal the per-target sum
    up to the composition error of the discrete shear (~1e-8 relative at
    n=128).

    The march runs on arrays. g(s) is spectral.transport_product of the
    transport factors interpolated at s from those of the samples, which
    equals the transport kernel on the spectra interpolated at s up to
    roundoff, as the factors are linear in the spectra; each sample's
    factors are built once per call and kept while a stencil reads them,
    at most 4 samples' at a time. Propagation and vetting read plan (a
    _LagPlan, by default one built for this call). Each distinct lag's
    tables are built once while they fit in the plan's byte budget, and
    the drop sets keep only the entries that can fail the vetting; neither
    the budget nor the pruning changes the result (see the module
    docstring).
    """
    if traj1.nu != traj2.nu or traj1.times != traj2.times:
        raise GridError("duhamel term needs trajectories on a common time grid")
    nu = traj1.nu
    grid = traj1.grid
    ts = traj1.times
    rate = 2.0 * nu * grid.k_max ** 2
    targets = [float(t) for t in targets]
    reads = {}  # target t -> index k of the accumulator J_k it starts from
    for t in targets:
        if not ts[0] <= t <= ts[-1] + 1e-12:
            raise DomainError(f"target time {t} outside trajectory range")
        if t > ts[0]:
            reads[t] = bisect.bisect_right(ts, t) - 1
    if plan is None:
        plan = _LagPlan(grid, nu)
    spectra1 = [f.coeffs for f in traj1.fields]
    spectra2 = spectra1 if traj2 is traj1 else [f.coeffs for f in traj2.fields]
    zero = np.zeros_like(spectra1[0])
    # The transport factors are linear in the spectra, so a node's are the
    # Lagrange combination of its stencil samples' factors. A stencil
    # reads `width` consecutive samples and the stencils only move
    # forward, so slot i % width of the ring holds sample i's factors from
    # its first read to its last; a sample whose slot was taken is rebuilt.
    # A stencil covers every slot, so the combination reads no unfilled one.
    width = len(_lagrange_weights(ts, ts[0])[0])
    ring = np.empty((width, 4, grid.n, grid.n))
    held = [None] * width  # the sample index each slot holds

    def divergence(s):
        weights = np.empty(width)
        for i, wi in zip(*_lagrange_weights(ts, s)):
            slot = i % width
            if held[slot] != i:
                ring[slot] = transport_factors(spectra1[i], spectra2[i], grid,
                                               grid.laplacian)
                held[slot] = i
            weights[slot] = wi
        return transport_product(np.einsum("i,i...->...", weights, ring), grid)

    propagate = plan.flow  # only ever applied to vetted content; see panels

    def panels(a, b, later):
        # Sum of w S(b - s) g(s) over the panel set on [a, b]; each g(s) is
        # first vetted at lag t - s for every target t in later. J is then
        # propagated unvetted: drop sets compose on the band (a mode's
        # destination eta - lag*xi moves monotonically with the lag, and
        # the band is an interval), so what S(t - t_k) drops from
        # S(t_k - s) g(s) is exactly what S(t - s) drops from g(s). Vetting
        # J instead would flag the ~1e-8 interpolation leakage of the
        # discrete shear, which is not aliasing.
        total = zero.copy()
        for s, w in zip(*_panel_set(a, b, rate)):
            g = divergence(s)
            _check_alias(g, [t - s for t in later], plan)
            total += w * propagate(g, b - s)
        return total

    done = {ts[0]: Field(grid, coeffs=zero)}
    acc = zero  # J_k
    last = max(reads.values(), default=0)
    for k in range(last + 1):
        for t in [t for t, m in reads.items() if m == k]:
            part = acc if t == ts[k] else (
                propagate(acc, t - ts[k]) + panels(ts[k], t, [t]))
            done[t] = Field(grid, coeffs=-part)
        if k < last:
            later = [t for t, m in reads.items() if m > k]
            acc = (propagate(acc, ts[k + 1] - ts[k])
                   + panels(ts[k], ts[k + 1], later))
    return [done[t] for t in targets]


def duhamel_bilinear(traj1, traj2, t):
    """The bilinear interaction term of the mild formulation at time t.

    Bilinear in its arguments and mass-free (it is a divergence), so for
    zero input it vanishes identically.
    """
    return _duhamel_targets(traj1, traj2, [t])[0]


PICARD_MAX_ITER = 12  # iteration budget of picard_solve
PICARD_TOL = 1e-10    # relative Kato-norm update that ends the iteration


def picard_solve(omega0, nu, horizon, n_times, t_start=0.0):
    """Iterate the mild formulation to its fixed point on [t_start, t_start+horizon].

    The iteration maps a trajectory to (linear flow of the data) plus the
    bilinear term of the trajectory with itself, sampled on a uniform time
    grid. Convergence is measured in the weighted Kato norm of successive
    differences, relative to the trajectory norm; the per-iteration
    distances are kept on the result as traj.history. Sustained growth of
    the differences raises DivergenceError, exhausting the budget raises
    NoConvergenceError.
    """
    check_positive(nu, "viscosity")
    check_positive(horizon, "horizon")
    n_times = check_order(n_times, "n_times")
    if n_times < 2:
        raise DomainError(f"need at least two sample times, got {n_times}")
    t_start = check_time(t_start, "t_start")
    times = tuple(t_start + horizon * j / (n_times - 1) for j in range(n_times))
    linear = tuple(apply_semigroup(omega0, nu, t - t_start) for t in times)
    traj = Trajectory(times=times, fields=linear, nu=nu)
    plan = _LagPlan(omega0.grid, nu)
    ratios = []
    dists = []
    last_dist = None
    for _ in range(PICARD_MAX_ITER):
        correction = _duhamel_targets(traj, traj, times, plan)
        new_fields = tuple(lin + cor for lin, cor in zip(linear, correction))
        diff = Trajectory(times=times, nu=nu,
                          fields=tuple(a - b for a, b in zip(new_fields, traj.fields)))
        dist = kato_norm(diff)
        dists.append(dist)
        new_traj = Trajectory(times=times, fields=new_fields, nu=nu,
                              history=tuple(dists))
        scale = max(kato_norm(new_traj), 1e-300)
        if last_dist is not None and last_dist > 0:
            ratios.append(dist / last_dist)
            if len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0:
                raise DivergenceError(
                    f"Picard differences growing (ratios {ratios[-2]:.3f}, {ratios[-1]:.3f}); "
                    "data too large for the contraction regime", ratios=ratios)
        traj = new_traj
        last_dist = dist
        if dist <= PICARD_TOL * scale:
            return traj
    raise NoConvergenceError(
        f"Picard iteration did not reach tol={PICARD_TOL:g} within {PICARD_MAX_ITER} "
        f"iterations (last relative update {last_dist / scale:.3e})", residual=last_dist)
