"""Closed-form limit semigroup of the late-time generator.

In Fourier variables the limit generator advects coefficients along linear
characteristics while damping them through an explicit quadratic-form
exponent. The semigroup therefore reduces to (i) evaluating the initial
spectrum at the backward characteristic image of each lattice mode and
(ii) multiplying by the exponent factor: spectral.characteristic_flow for
the map char_map(tau) and the damping exp(symbol_exponent), the kernel
the physical heat-shear propagator runs too. Here the map is not a pure
shear, so the kernel's trig-exact read takes both of its stages: an FFT
shear, then the dense affine scaling that also changes the self-similar
frame. semigroup_flow advances one field to each time of a list: it vets
the field and forms its shear rows (spectral.shear_rows) once, then runs
the damping and the flow (spectral.flow_rows) per time, in the calling
thread's arena scope (spectral.arena_scope); each result is a Field of
its own. apply_semigroup is its one-time case.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ResolutionError, UnsupportedOrderError,
                     check_order, check_reals, check_time, check_times)
from .grid import Field
from .spectral import (_spectrum_tail, arena_scope, derivative_symbol,
                       flow_rows, shear_rows)

SQRT3 = np.sqrt(3.0)

RESOLVED_TAIL_TOL = 1e-8  # outer-band ratio that semigroup_flow accepts


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
    d1 = derivative_symbol(grid, 1, 0)
    d2 = derivative_symbol(grid, 0, 1)
    mult = (d1 - SQRT3 * d2) ** a * (SQRT3 * d1 - d2) ** b
    return Field(grid, coeffs=g.coeffs * mult)


def eigenvalue(a, b):
    """Decay rate of eigenfunction(a, b) under the limit semigroup."""
    a, b = check_order(a, "eigenvalue order"), check_order(b, "eigenvalue order")
    return -(3 * a + b) / 2.0


def symbol_exponent(tau, xi, eta):
    """Quadratic-form exponent Phi(tau, xi, eta) of the semigroup symbol.

    Always <= 0; tends to -(xi^2 + eta^2) as tau -> infinity, which is the
    Fourier transform exponent of the Gaussian equilibrium.
    """
    tau = check_times(tau, "symbol_exponent tau")
    xi = check_reals(xi, "symbol_exponent xi")
    eta = check_reals(eta, "symbol_exponent eta")
    return _exponent(np.exp(-tau), xi, eta)


def _exponent(e, xi, eta, out=None):
    """symbol_exponent at e = exp(-tau), unchecked, formed in out (an
    array of the broadcast shape) when given."""
    cross = np.multiply(2.0 * SQRT3 * e * (1 - e) ** 2 * xi, eta, out=out)
    return np.subtract(np.subtract(-(1 - e) ** 3 * xi ** 2, cross, out=out),
                       (1 - e) * (1 + 3 * e ** 2) * eta ** 2, out=out)


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
    tau = check_time(tau, "tau")
    e1 = np.exp(-tau / 2.0)
    e3 = np.exp(-3.0 * tau / 2.0)
    return CharMap(
        tau=tau,
        m11=1.5 * e1 - 0.5 * e3,
        m12=-0.5 * SQRT3 * e1 + 0.5 * SQRT3 * e3,
        m21=0.5 * SQRT3 * e1 - 0.5 * SQRT3 * e3,
        m22=-0.5 * e1 + 1.5 * e3,
    )


def apply_semigroup(f, tau):
    """Advance a field by the limit semigroup over a time tau >= 0: the
    one-tau case of semigroup_flow, whose arena use it shares.

    The zero mode is exactly preserved, so the mass of the field is
    invariant up to the rounding of its samples. The input spectrum should
    be resolved (decayed well before the band edge); otherwise the
    characteristic shift moves significant content across the band and
    the result is unreliable.
    """
    return next(semigroup_flow(f, (tau,)))


def semigroup_flow(f, taus):
    """Yield f advanced by the limit semigroup to each tau >= 0 of taus in
    turn, each a Field of its own; a tau of 0 yields f itself.

    The work on f alone is done once, at the first positive tau: its tail
    check (ResolutionError unless its spectrum is resolved) and its shear
    rows (spectral.shear_rows). So a run's samples share it, and a
    sample at tau = 0 is yielded before an unresolved f raises. Each
    sample's large temporaries run in the arena scope of the thread that
    asks for it (spectral.arena_scope; one of its own if none is open),
    never held open across a yield: the tail check and each tau's
    damping on slab 4, the rows on slab 5, kept for the whole flow, and
    each flow (spectral.flow_rows) on slabs 0-3. So a caller in the same
    scope may use slabs 0-4 between two samples.
    """
    grid = f.grid
    rows = None
    for tau in taus:
        tau = check_time(tau, "tau")
        if tau == 0.0:
            yield f
            continue
        with arena_scope() as ws:
            damping, = ws.take(4, (f.coeffs.shape, float))
            if rows is None:
                r = _spectrum_tail(f.coeffs, grid, damping)
                if r > RESOLVED_TAIL_TOL:
                    raise ResolutionError(
                        f"spectrum not resolved: outer-band ratio {r:.2e} "
                        f"exceeds {RESOLVED_TAIL_TOL:g}")
                rows = shear_rows(f.coeffs, grid, 5)
            cm = char_map(tau)
            m = (cm.m11, cm.m12), (cm.m21, cm.m22)    # m11 > 0 for every tau >= 0
            np.exp(_exponent(np.exp(-tau), *grid.wavegrid(), damping), out=damping)
            omega = Field(grid, coeffs=flow_rows(rows, grid, m, damping))
        yield omega
