"""Norm time series, exponent fitting, energy functionals and
empirical-constant probes for the frame dynamics.

The hypocoercive energy pair (E, D) mixes weighted norms of derivatives
up to third order with log-time factors and a ladder of small constants;
the constants must satisfy explicit ratio constraints for E to stay
coercive, and those constraints are validated on construction. Both are
read off one Gram table: the weighted-L2 inner products of the samples
<x>^m d^a omega, each sample formed once per call. record measures the
distance to alpha times the fixed Gaussian from samples as well.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, GridError, check_real
from .propagator import apply_semigroup as heat_shear_semigroup
from .selfsim import invert_frame_laplacian
from .spectral import (derivative, derivative_samples, half_spectrum,
                       lp_norm, lp_samples, mass, weight_samples,
                       weighted_l2, weighted_norm)

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
        chain = (("1", 1.0, "c1", self.c1), ("c1", self.c1, "c2", self.c2),
                 ("c2", self.c2, "c3", self.c3), ("c3", self.c3, "c5", self.c5),
                 ("c5", self.c5, "c6", self.c6), ("c6", self.c6, "c7", self.c7))
        # 1e-12 relative slack admits ladders that hit factor 10 exactly
        for big_name, big, small_name, small in chain:
            if _RATIO * small > big * (1.0 + 1e-12):
                raise DomainError(
                    f"need {big_name} >= {_RATIO:g} * {small_name}")
        prods = (("c1^2", self.c1 ** 2, "c2", self.c2),
                 ("c2^2", self.c2 ** 2, "c1*c3", self.c1 * self.c3),
                 ("c5^2", self.c5 ** 2, "c3*c6", self.c3 * self.c6),
                 ("c6^2", self.c6 ** 2, "c5*c7", self.c5 * self.c7))
        for small_name, small, big_name, big in prods:
            if _RATIO * small > big * (1.0 + 1e-12):
                raise DomainError(
                    f"need {big_name} >= {_RATIO:g} * {small_name}")

    @classmethod
    def from_scale(cls, A=10.0, t0=1.0, m=2.0):
        """One-parameter ladder (A^-3, A^-5, A^-6, A^-5, A^-9, A^-11, A^-12);
        satisfies every ratio constraint for A >= 10."""
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


def record(state, opts=None):
    """Compute the configured diagnostics for one frame state.

    convergence_L2m is the weighted-L2 distance to alpha times the fixed
    Gaussian for each configured m. The physical-frame L1 distance equals
    the frame-coordinates L1 distance exactly (the amplitude factor
    cancels the Jacobian), so no resampling is involved. Every column is
    read off the state's samples, the energy pair's derivatives off its
    half spectrum, and each distinct weight <x>^m is formed once.
    """
    opts = opts or RecordOptions()
    om = state.omega
    grid = om.grid
    v = om.values
    diff = v - state.alpha * grid.gaussian_values
    powers = {m: weight_samples(grid, m) for m in opts.weight_exponents}
    lp = {p: float(lp_norm(om, p)) for p in P_GRID}
    weighted = {(m, 0, 0): weighted_l2(powers[m], v, grid)
                for m in opts.weight_exponents}
    conv = {m: weighted_l2(powers[m], diff, grid)
            for m in opts.weight_exponents}
    e = d = None
    if opts.energy is not None:
        e, d = energy_functionals(om, state.t, opts.energy,
                                  powers.get(opts.energy.m))
    return DiagnosticsRecord(
        t=state.t, tau=state.tau, mass=float(mass(om)), lp_norms=lp,
        weighted=weighted, convergence_L2m=conv,
        convergence_L1_phys=lp_samples(diff, grid, 1.0),
        energy=e, dissipation=d)


def rate_fit(series, window=None):
    """Least-squares slope of log(value) against log(t), with its
    standard error. Needs at least 5 samples in the window, all positive."""
    pts = [(check_real(t, "rate fit time"), check_real(v, "rate fit value"))
           for t, v in series]
    if window is not None:
        ta, tb = (check_real(w, "rate fit window") for w in window)
        pts = [(t, v) for t, v in pts if ta <= t <= tb]
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
# the ten derivative orders sampled, and the four that enter an inner product
_ORDERS = tuple(sorted({o for row in _E_TERMS + _D_TERMS for o in row[2:]
                        if o is not None}))
_CROSS = frozenset(o for _, _, a, b in _E_TERMS if a != b for o in (a, b))


def energy_functionals(omega, t, coef, weight=None):
    """The energy E(t) and dissipation D(t) of the hypocoercive pair.

    Both sum rows of one Gram table of weighted-L2 inner products of the
    samples f_a = <x>^m d^a omega (orders up to 3), scaled by a constant
    from the ladder, a power of ln(t/t0) and, inside D, 1/(1+t^2) on the
    sheared-direction derivative of each pair. Each sample is formed
    once, a derivative by one inverse real transform of the field's half
    spectrum, and one that enters no inner product is dropped once
    normed. weight holds the samples of <x>^m when the caller has them
    (record shares its own); a sample or square sum that is not finite
    raises GridError.
    """
    if t < coef.t0:
        raise DomainError(f"energy functionals need t >= t0 = {coef.t0}")
    grid = omega.grid
    if weight is None:
        weight = weight_samples(grid, coef.m)
    log = float(np.log(t / coef.t0))
    decay = 1.0 / (1.0 + t * t)
    cs = (1.0, coef.c1, coef.c2, coef.c3, coef.c4, coef.c5, coef.c6, coef.c7)
    c = half_spectrum(omega)
    h2 = grid.spacing ** 2
    gram, kept = {}, {}
    for o in _ORDERS:
        f = weight * (omega.values if o == (0, 0)
                      else derivative_samples(c, grid, *o))
        gram[o, o] = float(np.sum(f * f)) * h2
        if not math.isfinite(gram[o, o]):
            raise GridError(f"weighted derivative {o} of the field is not "
                            "finite")
        if o in _CROSS:
            kept[o] = f
    for _, _, a, b in _E_TERMS:
        if a != b:
            gram[a, b] = float(np.sum(kept[a] * kept[b])) * h2
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


PROBE_KINDS = ("biot_savart_linf", "anisotropic_sigma", "semigroup_lp")


def _stream_gradient_sup(f, t):
    """sup norms of the two stream-function derivatives in the frame."""
    g = invert_frame_laplacian(f, t)
    gx = float(lp_norm(derivative(g, 1, 0), np.inf))
    gy = float(lp_norm(derivative(g, 0, 1), np.inf))
    return gx, gy


def _ratio_biot_savart(f, t, m):
    gx, gy = _stream_gradient_sup(f, t)
    bracket = np.sqrt(1.0 + t * t)
    lhs = gx + bracket * gy
    p_hi = 2.0 * m / (m - 1.0)
    p_lo = 2.0 * m / (m + 1.0)
    rhs = bracket ** 1.5 * np.sqrt(float(lp_norm(f, p_hi)) * float(lp_norm(f, p_lo)))
    return lhs / rhs


def _ratio_anisotropic(f, t, sigma):
    gx, gy = _stream_gradient_sup(f, t)
    bracket = np.sqrt(1.0 + t * t)
    lhs = gx + bracket * gy
    rhs = (bracket ** (1.0 + sigma)
           * float(weighted_norm(f, 1.0)) ** (0.5 + sigma)
           * float(weighted_norm(f, 1.0, 1, 0)) ** (0.5 - sigma))
    return lhs / rhs


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


def inequality_probe(kind, ensemble, times, m=2.0, sigma=0.25, nu=1.0):
    """Measure LHS/RHS (constants stripped) of one of the a priori
    inequalities over an ensemble of fields and a list of times.

    Zero fields are skipped with a warning; ratios must come out finite.
    Returns a deterministic report with max, mean, and the maximizer.
    """
    if kind not in PROBE_KINDS:
        raise DomainError(f"unknown probe kind {kind!r}; use one of {PROBE_KINDS}")
    ensemble = list(ensemble)
    if not ensemble:
        raise DomainError("probe ensemble must be nonempty")
    if kind == "biot_savart_linf" and m <= 1:
        raise DomainError("biot-savart probe needs m > 1")
    if kind == "anisotropic_sigma" and not 0 < sigma < 0.5:
        raise DomainError("anisotropic probe needs 0 < sigma < 1/2")
    entries = []
    for i, f in enumerate(ensemble):
        if float(lp_norm(f, np.inf)) == 0.0:
            warnings.warn(f"probe skips zero field at index {i}", RuntimeWarning,
                          stacklevel=2)
            continue
        for t in times:
            if kind == "biot_savart_linf":
                r = _ratio_biot_savart(f, t, m)
            elif kind == "anisotropic_sigma":
                r = _ratio_anisotropic(f, t, sigma)
            else:
                r = _ratio_semigroup(f, t, nu)
            if not np.isfinite(r):
                raise DomainError(
                    f"probe ratio not finite for field {i} at t={t}")
            entries.append((i, float(t), float(r)))
    if not entries:
        raise DomainError("probe ensemble contained only zero fields")
    ratios = np.array([e[2] for e in entries])
    top = int(np.argmax(ratios))
    params = {"m": m} if kind == "biot_savart_linf" else (
        {"sigma": sigma} if kind == "anisotropic_sigma" else {"nu": nu})
    return ProbeReport(kind=kind, params=params, entries=tuple(entries),
                       max_ratio=float(ratios.max()),
                       mean_ratio=float(ratios.mean()),
                       argmax=(entries[top][0], entries[top][1]))
