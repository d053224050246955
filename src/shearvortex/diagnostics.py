"""Norm time series, exponent fitting, energy functionals and
empirical-constant probes for the frame dynamics.

The hypocoercive energy pair (E, D) mixes weighted norms of derivatives
up to third order with log-time factors and a ladder of small constants;
the constants must satisfy explicit ratio constraints for E to stay
coercive, and those constraints are validated on construction. Both are
read off one Gram table: the weighted-L2 inner products of the samples
<x>^m d^a omega, each sample formed once per call and summed as it
streams in from spectral.derivative_pass; this module takes no
transform of its own. record measures the distance to alpha times the
fixed Gaussian from samples as well. record and the energy pair run
their large temporaries in the calling thread's arena scope
(spectral.arena_scope), so the samples of a run that opens one reuse
the same slabs and weights.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, GridError, check_real, check_time
from .grid import Field, Frame
from .propagator import apply_semigroup as heat_shear_semigroup
from .selfsim import invert_frame_laplacian
from .spectral import (arena_scope, derivative, derivative_pass, lp_norm,
                       lp_samples, mass, sample_values, weighted_l2,
                       weighted_norm)

#: fixed exponent grid for the L^p columns (4/3 is the fixed-point norm)
P_GRID = (1.0, 4.0 / 3.0, 2.0, np.inf)

_RATIO = 10.0  # enforced separation factor between consecutive constants


@dataclass(frozen=True)
class EnergyCoefficients:
    """Constant ladder (c1..c7) of the energy pair, with anchor t0 and
    weight exponent m.

    The ladder must satisfy c1 >> c2 = c4 >> c3 >> c5 >> c6 >> c7 together
    with c1^2 << c2, c2^2 << c1 c3, c5^2 << c3 c6 and c6^2 << c5 c7; every
    ">>"/"<<" is enforced here as a factor-10 inequality. These conditions
    make the cross terms of E dominated by the squares, so E >= 0.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    t0: float = 1.0
    m: float = 2.0

    def __post_init__(self):
        cs = (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6, self.c7)
        if not all(isinstance(v, numbers.Real) and math.isfinite(v)
                   for v in (*cs, self.t0, self.m)):
            raise DomainError("energy constants, t0 and m must be finite numbers")
        if any(c <= 0 for c in cs):
            raise DomainError("all energy constants must be positive")
        if self.t0 <= 0:
            raise DomainError("anchor time t0 must be positive")
        if self.m <= 1:
            raise DomainError("weight exponent m must exceed 1")
        if self.c2 != self.c4:
            raise DomainError("need c2 = c4")
        c1, c2, c3, _, c5, c6, c7 = cs
        # (big, small) pairs: the chain, then the products
        pairs = (("1", 1.0, "c1", c1), ("c1", c1, "c2", c2), ("c2", c2, "c3", c3),
                 ("c3", c3, "c5", c5), ("c5", c5, "c6", c6), ("c6", c6, "c7", c7),
                 ("c2", c2, "c1^2", c1 ** 2), ("c1*c3", c1 * c3, "c2^2", c2 ** 2),
                 ("c3*c6", c3 * c6, "c5^2", c5 ** 2),
                 ("c5*c7", c5 * c7, "c6^2", c6 ** 2))
        # 1e-12 relative slack admits ladders that hit factor 10 exactly
        for big_name, big, small_name, small in pairs:
            if _RATIO * small > big * (1.0 + 1e-12):
                raise DomainError(
                    f"need {big_name} >= {_RATIO:g} * {small_name}")

    @classmethod
    def from_scale(cls, A=10.0, t0=1.0, m=2.0):
        """One-parameter ladder (A^-3, A^-5, A^-6, A^-5, A^-9, A^-11, A^-12);
        satisfies every ratio constraint for A >= 10."""
        A = check_real(A, "energy scale A")
        return cls(c1=A ** -3, c2=A ** -5, c3=A ** -6, c4=A ** -5,
                   c5=A ** -9, c6=A ** -11, c7=A ** -12, t0=t0, m=m)


@dataclass(frozen=True)
class RecordOptions:
    """Which quantities record() computes per sample."""

    weight_exponents: tuple = (2.0, 3.0)
    energy: EnergyCoefficients = None   # set to also record (E, D)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of the monitored quantities."""

    t: float
    tau: float
    mass: float
    lp_norms: dict
    weighted: dict
    convergence_L2m: dict
    convergence_L1_phys: float
    energy: float = None
    dissipation: float = None


def record(state, opts=None, mixed0=None):
    """Compute the configured diagnostics for one frame state.

    convergence_L2m is the weighted-L2 distance to alpha times the fixed
    Gaussian for each configured m. The physical-frame L1 distance equals
    the frame-coordinates L1 distance exactly (the amplitude factor
    cancels the Jacobian), so no resampling is involved. Every column is
    read off the state's samples, the energy pair's derivatives off its
    spectrum. A state that holds only its half spectrum, as the limit
    semigroup leaves it, is sampled by axes (spectral.sample_values):
    the axis-0 inverse transform on slab 4, shared with the energy
    pair's x-order-0 derivatives, then the axis-1 inverse real one into
    the values the state's Field keeps, so that a snapshot reads them.
    A caller that sampled the state itself passes its axis-0 stage as
    mixed0, which those derivatives read instead (energy_functionals),
    so record takes no axis-0 transform of x-order 0.
    Every large temporary runs in the calling thread's arena scope
    (spectral.arena_scope; one of its own if none is open): the distance
    to the Gaussian, |omega| and the quadratures' products on slabs 0-2,
    then the energy pair, and each weight <x>^m is the arena's, formed
    once per arena. opts must be a RecordOptions (DomainError
    otherwise); a column that is not finite raises GridError.
    """
    if opts is None:
        opts = RecordOptions()
    if not isinstance(opts, RecordOptions):
        raise DomainError(f"record options must be RecordOptions, got {opts!r}")
    om = state.omega
    grid = om.grid
    with arena_scope() as ws:
        v, stage = sample_values(om, 4)
        mixed0 = stage if mixed0 is None else mixed0
        (diff,), (mag,), (scratch,) = (ws.take(i, (v.shape, float)) for i in range(3))
        np.subtract(v, np.multiply(grid.gaussian_values, state.alpha, out=diff), out=diff)
        powers = {m: ws.weight(grid, m) for m in opts.weight_exponents}
        np.abs(v, out=mag)
        lp = {p: lp_samples(mag, grid, p, scratch) for p in P_GRID}
        weighted = {(m, 0, 0): weighted_l2(powers[m], v, grid, scratch)
                    for m in opts.weight_exponents}
        conv = {m: weighted_l2(powers[m], diff, grid, scratch)
                for m in opts.weight_exponents}
        conv_l1 = lp_samples(np.abs(diff, out=mag), grid, 1.0)
        total = float(mass(om))
        if not all(map(math.isfinite, (total, conv_l1, *lp.values(),
                                       *weighted.values(), *conv.values()))):
            raise GridError("a diagnostic of the state is not finite")
        e = d = None
        if opts.energy is not None:
            e, d = energy_functionals(om, state.t, opts.energy, mixed0=mixed0)
    return DiagnosticsRecord(
        t=state.t, tau=state.tau, mass=total, lp_norms=lp,
        weighted=weighted, convergence_L2m=conv,
        convergence_L1_phys=conv_l1, energy=e, dissipation=d)


def rate_fit(series, window=None):
    """Least-squares slope of log(value) against log(t), with its
    standard error. Needs at least 5 samples in the window, all positive."""
    try:
        pts = [(check_real(t, "rate fit time"), check_real(v, "rate fit value"))
               for t, v in series]
        if window is not None:
            ta, tb = (check_real(w, "rate fit window") for w in window)
            pts = [(t, v) for t, v in pts if ta <= t <= tb]
    except (TypeError, ValueError):
        raise DomainError("rate fit needs a series of (t, value) pairs and a "
                          "(start, end) window") from None
    if len(pts) < 5:
        raise FitError(f"rate fit needs >= 5 samples, got {len(pts)}")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if not (np.all((0 < t) & (t < np.inf)) and np.all((0 < v) & (v < np.inf))):
        raise DomainError("rate fit needs finite positive times and values")
    x = np.log(t)
    y = np.log(v)
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DomainError("rate fit window must span distinct times")
    slope = float(dx @ y) / sxx
    resid = y - y.mean() - slope * dx
    rss = float(resid @ resid)
    stderr = np.sqrt(max(rss, 0.0) / ((len(pts) - 2) * sxx))
    return slope, float(stderr)


# Gram rows of E and D: (ladder index 0..7 with 0 meaning 1.0, log power,
# a, b) over the weighted samples f_a = <x>^m d^a omega. An E row adds
# c log^p (f_a, f_b); a D row adds c log^p (|f_b|^2 + |f_a|^2 / (1 + t^2)),
# the second term only when a is set.
_E_TERMS = (
    (0, 0, (0, 0), (0, 0)),
    (1, 1, (0, 1), (0, 1)),
    (2, 2, (1, 0), (0, 1)),
    (3, 3, (1, 0), (1, 0)),
    (4, 2, (0, 2), (0, 2)),
    (5, 4, (1, 1), (1, 1)),
    (6, 5, (2, 0), (1, 1)),
    (7, 6, (2, 0), (2, 0)),
)
_D_TERMS = (
    (0, 0, (1, 0), (0, 1)),
    (1, 1, (1, 1), (0, 2)),
    (2, 2, None, (1, 0)),
    (3, 3, (2, 0), (1, 1)),
    (4, 2, (1, 2), (0, 3)),
    (5, 4, (2, 1), (1, 2)),
    (6, 5, None, (2, 0)),
    (7, 6, (3, 0), (2, 1)),
)
# the ten derivative orders sampled, and each cross pair of E by the factor
# that comes later in ascending order (derivative_pass's order)
_ORDERS = tuple(sorted({o for row in _E_TERMS + _D_TERMS for o in row[2:]
                        if o is not None}))
_CROSS = {a: b for _, _, a, b in _E_TERMS if a != b}


def energy_functionals(omega, t, coef, mixed0=None):
    """The energy E(t) and dissipation D(t) of the hypocoercive pair.

    Both sum rows of one Gram table of weighted-L2 inner products of the
    samples f_a = <x>^m d^a omega (orders up to 3), scaled by a constant
    from the ladder, a power of ln(t/t0) and, inside D, 1/(1+t^2) on the
    sheared-direction derivative of each pair. f_0 is weighted from the
    field's own samples and the nine derivatives stream in from one
    spectral.derivative_pass: each square sum is taken as its sample
    arrives, and each cross pair when its later factor does, so at most
    one earlier factor is held. The pass and f_0 run on slabs 0-3 of the
    calling thread's arena scope (spectral.arena_scope; one of its own
    if none is open), and the weight <x>^m is the arena's. mixed0 holds
    the axis-0 inverse transform of omega's spectrum when the caller has
    it (record), which the x-order-0 derivatives read; a sample or
    square sum that is not finite raises GridError.
    """
    t = check_time(t, "energy time")
    if t < coef.t0:
        raise DomainError(f"energy functionals need t >= t0 = {coef.t0}")
    grid = omega.grid
    log = float(np.log(t / coef.t0))
    decay = 1.0 / (1.0 + t * t)
    cs = (1.0, coef.c1, coef.c2, coef.c3, coef.c4, coef.c5, coef.c6, coef.c7)
    h2 = grid.spacing ** 2
    gram, kept = {}, {}

    def square(o, f):
        gram[o, o] = float(np.vdot(f, f)) * h2
        if not math.isfinite(gram[o, o]):
            raise GridError(f"weighted derivative {o} of the field is not "
                            "finite")

    with arena_scope() as ws:
        weight = ws.weight(grid, coef.m)
        f0, = ws.take(2, ((grid.n, grid.n), float))
        square((0, 0), np.multiply(weight, omega.values, out=f0))
        for o, f in derivative_pass(omega.coeffs, grid, _ORDERS[1:],
                                    _CROSS.values(), mixed0):
            f *= weight
            square(o, f)
            if o in _CROSS:
                gram[o, _CROSS[o]] = float(np.vdot(f, kept.pop(_CROSS[o]))) * h2
            elif o in _CROSS.values():
                kept[o] = f
    e = sum(cs[ci] * log ** lp * gram[a, b] for ci, lp, a, b in _E_TERMS)
    d = sum(cs[ci] * log ** lp
            * (gram[b, b] + (decay * gram[a, a] if a is not None else 0.0))
            for ci, lp, a, b in _D_TERMS)
    return e, d


@dataclass(frozen=True)
class ProbeReport:
    """Empirical constants of one inequality over an ensemble."""

    kind: str
    params: dict
    entries: tuple            # (field index, t, ratio) triples
    max_ratio: float
    mean_ratio: float
    argmax: tuple             # (field index, t) of the maximizer


def _stream_gradient(f, t):
    """sup|d1 psi| + <t> sup|d2 psi| for the frame stream function psi of
    f at time t, the left side of both Biot-Savart probes."""
    g = invert_frame_laplacian(f, t)
    return (float(lp_norm(derivative(g, 1, 0), np.inf)) + np.sqrt(1.0 + t * t)
            * float(lp_norm(derivative(g, 0, 1), np.inf)))


def _ratio_biot_savart(f, t, m):
    p_hi = 2.0 * m / (m - 1.0)
    p_lo = 2.0 * m / (m + 1.0)
    rhs = np.sqrt(1.0 + t * t) ** 1.5 * np.sqrt(
        float(lp_norm(f, p_hi)) * float(lp_norm(f, p_lo)))
    return _stream_gradient(f, t) / rhs


def _ratio_anisotropic(f, t, sigma):
    rhs = (np.sqrt(1.0 + t * t) ** (1.0 + sigma)
           * float(weighted_norm(f, 1.0)) ** (0.5 + sigma)
           * float(weighted_norm(f, 1.0, 1, 0)) ** (0.5 - sigma))
    return _stream_gradient(f, t) / rhs


def _ratio_semigroup(f, t, nu):
    """Worst constant over the smoothing bounds L1 -> L2, L1 -> Linf and
    the divergence-form variant L1 -> L2."""
    # norm ratios tolerate a looser band guard than solver paths: at
    # large t the shift sheds only deeply decayed spectrum-floor content
    g = heat_shear_semigroup(f, nu, t, alias_tol=1e-6)
    n1 = float(lp_norm(f, 1))
    spread = nu * t * np.sqrt(1.0 + t * t)
    r1 = float(lp_norm(g, 2)) * spread ** 0.5 / n1
    r2 = float(lp_norm(g, np.inf)) * spread / n1
    gd = heat_shear_semigroup(derivative(f, 1, 0), nu, t, alias_tol=1e-6)
    r3 = float(lp_norm(gd, 2)) * np.sqrt(nu * t) * spread ** 0.5 / n1
    return max(r1, r2, r3)


# each probe kind: its ratio, the parameter that ratio takes, and the
# frame its ensemble lives in
_PROBES = {
    "biot_savart_linf": (_ratio_biot_savart, "m", Frame.SELFSIM),
    "anisotropic_sigma": (_ratio_anisotropic, "sigma", Frame.SELFSIM),
    "semigroup_lp": (_ratio_semigroup, "nu", Frame.PHYSICAL),
}
PROBE_KINDS = tuple(_PROBES)


def inequality_probe(kind, ensemble, times, m=2.0, sigma=0.25, nu=1.0):
    """Measure LHS/RHS (constants stripped) of one of the a priori
    inequalities over an ensemble of fields and a list of times.

    Zero fields are skipped with a warning; ratios must come out finite.
    Returns a deterministic report with max, mean, and the maximizer.
    """
    if kind not in PROBE_KINDS:
        raise DomainError(f"unknown probe kind {kind!r}; use one of {PROBE_KINDS}")
    ratio, name, _ = _PROBES[kind]
    try:
        ensemble = list(ensemble)
        times = [check_time(t, "probe time") for t in times]
    except TypeError:
        raise DomainError("probe ensemble and times must be sequences") from None
    if not ensemble:
        raise DomainError("probe ensemble must be nonempty")
    if not all(isinstance(f, Field) for f in ensemble):
        raise DomainError("probe ensemble must hold Fields")
    m, sigma = check_real(m, "probe m"), check_real(sigma, "probe sigma")
    if name == "m" and not 1 < m < np.inf:
        raise DomainError(f"biot-savart probe needs a finite m > 1, got {m!r}")
    if name == "sigma" and not 0 < sigma < 0.5:
        raise DomainError("anisotropic probe needs 0 < sigma < 1/2")
    param = {"m": m, "sigma": sigma, "nu": nu}[name]
    entries = []
    for i, f in enumerate(ensemble):
        if float(lp_norm(f, np.inf)) == 0.0:
            warnings.warn(f"probe skips zero field at index {i}", RuntimeWarning,
                          stacklevel=2)
            continue
        for t in times:
            r = ratio(f, t, param)
            if not np.isfinite(r):
                raise DomainError(
                    f"probe ratio not finite for field {i} at t={t}")
            entries.append((i, float(t), float(r)))
    if not entries:
        raise DomainError("probe ensemble contained only zero fields")
    ratios = np.array([e[2] for e in entries])
    top = int(np.argmax(ratios))
    return ProbeReport(kind=kind, params={name: param}, entries=tuple(entries),
                       max_ratio=float(ratios.max()),
                       mean_ratio=float(ratios.mean()),
                       argmax=(entries[top][0], entries[top][1]))
