"""Self-similar frame: coordinate changes, frame generator, nonlinear term
and the log-time pseudo-spectral evolver.

The frame rescales physical coordinates by the spreading scales of the
linear kernel (shear-enhanced along x) and rescales vorticity by the
kernel decay rate, so the kernel itself becomes the fixed Gaussian
(1/4pi) exp(-(X^2+Y^2)/4). Evolution in the frame uses tau = ln t; the
frame generator has time-dependent coefficients converging at rate 1/t^2
to the limit generator handled in closed form by the fokker_planck module.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BlowUpError, DomainError, GridError, ResolutionError,
                     TruncationError, check_order, check_positive, check_real)
from .grid import Field, Frame
from .spectral import (
    affine_trig_sum,
    check_localized,
    full_spectrum,
    half_spectrum,
    inverse_laplacian,
    mass,
    spectral_tail_ratio,
    tail_mass_ratio,
    transport,
    transport_spectrum,
)

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class FrameCoefficients:
    """Scalar coefficients of the frame generator at a fixed time.

    diff1/diff2 multiply the sheared and plain second derivatives, mix is
    the shear slope inside the tilted derivative, dil1/dil2 the two
    dilation drifts, rot the rotation, const the zeroth-order term (equal
    to dil1 (1 + mix^2) + dil2, the divergence of the drift) and nonlin
    the (viscosity-free) prefactor of the advection term. As
    t -> infinity they converge, at rate 1/t^2, to
    (0, sqrt(3), 4, 0, 2, sqrt(3)/2, 2, 0).
    """

    t: float
    diff1: float
    mix: float
    diff2: float
    dil1: float
    dil2: float
    rot: float
    const: float
    nonlin: float

    @classmethod
    def at_time(cls, t):
        # the coefficient formulas are regular down to t = 0 (where the
        # diffusion part reduces to the plain Laplacian), unlike the frame
        # change itself which needs t > 0
        t = check_real(t, "time")
        if not 0.0 <= t < np.inf:
            raise DomainError(f"frame coefficients need a finite t >= 0, got {t!r}")
        a = 1.0 + t * t / 3.0
        b = 1.0 + t * t / 12.0
        return cls(
            t=t,
            diff1=1.0 / a,
            mix=0.5 * t / np.sqrt(b),
            diff2=a / b,
            dil1=0.5 / a,
            dil2=0.5 * a / b,
            rot=0.25 * t / np.sqrt(b) * (9.0 + t * t) / (3.0 + t * t),
            const=(12.0 + 2.0 * t * t) / (12.0 + t * t),
            nonlin=1.0 / b,
        )

    @classmethod
    def limit(cls):
        """Late-time limit values (the limit-generator coefficients)."""
        return cls(t=np.inf, diff1=0.0, mix=SQRT3, diff2=4.0, dil1=0.0,
                   dil2=2.0, rot=0.5 * SQRT3, const=2.0, nonlin=0.0)


def selfsim_coords(t, nu, x, y):
    """Map physical coordinates to self-similar coordinates at time t."""
    check_positive(t, "time")
    check_positive(nu, "viscosity")
    t, nu = float(t), float(nu)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a = 1.0 + t * t / 3.0
    b = 1.0 + t * t / 12.0
    X = x / np.sqrt(nu * t * a)
    Y = (a * y - 0.5 * t * x) / np.sqrt(nu * t * a * b)
    return X, Y


def amplitude(t, nu):
    """Vorticity rescaling factor of the frame: nu t sqrt(1 + t^2/12)."""
    return nu * t * np.sqrt(1.0 + t * t / 12.0)


def _frame_map(t, nu):
    """Lower-triangular map (X, Y) -> (x, y) = (a X, c X + b Y)."""
    A = 1.0 + t * t / 3.0
    B = 1.0 + t * t / 12.0
    a = np.sqrt(nu * t * A)
    b = np.sqrt(nu * t * B / A)
    c = 0.5 * t * np.sqrt(nu * t / A)
    return a, c, b


@dataclass(frozen=True)
class SelfSimilarState:
    """Vorticity in the self-similar frame at a physical time t >= 1.

    alpha caches the total mass (conserved along the flow); the frame
    change is singular at t = 0, and runs are started at t >= 1 where the
    frame is well conditioned.
    """

    omega: Field
    t: float
    nu: float
    alpha: float = None

    def __post_init__(self):
        if self.omega.grid.frame != Frame.SELFSIM:
            raise GridError("state field must live on a selfsim-frame grid")
        t = check_real(self.t, "state time")
        if not 1.0 <= t < np.inf:
            raise DomainError(f"state time must be finite and >= 1, got {self.t!r}")
        object.__setattr__(self, "t", t)
        check_positive(self.nu, "viscosity")
        alpha = (mass(self.omega) if self.alpha is None
                 else check_real(self.alpha, "state mass alpha"))
        if not np.isfinite(alpha):
            raise DomainError(f"state mass alpha must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def tau(self):
        return float(np.log(self.t))


# resampling evaluates the periodic extension of the source, so a target
# box reaching past the source box reads periodic copies; replication of
# bulk values shows up as O(1) tail mass in the output
_WRAP_TOL = 1e-4


def _check_wrap(f, what):
    r = tail_mass_ratio(f)
    if r > _WRAP_TOL:
        raise TruncationError(
            f"{what} has tail mass ratio {r:.2e}: the target box wraps into "
            "the source bulk (grids are incompatible at this time)", tail=r)


def phys_to_selfsim(omega, t, nu, target_grid):
    """Resample a physical-frame vorticity field into the frame at time t.

    Mass is preserved exactly in exact arithmetic (the amplitude cancels
    the Jacobian); the input must be localized well inside its box.
    """
    if omega.grid.frame != Frame.PHYSICAL:
        raise GridError("phys_to_selfsim expects a physical-frame field")
    if target_grid.frame != Frame.SELFSIM:
        raise GridError("target grid must be a selfsim-frame grid")
    check_localized(omega, "physical field")
    a, c, b = _frame_map(t, nu)
    # f(a X, c X + b Y) from the spectrum with origin-centred phases; target
    # points past the source box read its periodic extension
    chat = omega.coeffs * omega.grid.signs
    x = target_grid.x
    vals = affine_trig_sum(chat, omega.grid.k, x, x, a, c, b, 1).real
    out = Field(target_grid, values=vals * amplitude(t, nu))
    _check_wrap(out, "resampled frame field")
    return SelfSimilarState(omega=out, t=float(t), nu=float(nu))


def selfsim_to_phys(state, target_grid):
    """Resample a frame state back to a physical-frame vorticity field."""
    if target_grid.frame != Frame.PHYSICAL:
        raise GridError("target grid must be a physical-frame grid")
    check_localized(state.omega, "frame field")
    a, c, b = _frame_map(state.t, state.nu)
    # inverse of (x, y) = (a X, c X + b Y) is lower triangular as well
    chat = state.omega.coeffs * state.omega.grid.signs
    x = target_grid.x
    vals = affine_trig_sum(chat, state.omega.grid.k, x, x,
                           1.0 / a, -c / (a * b), 1.0 / b, 1).real
    out = Field(target_grid, values=vals * (1.0 / amplitude(state.t, state.nu)))
    _check_wrap(out, "resampled physical field")
    return out


def _laplacian_symbol(grid, co, cols=None):
    """Fourier symbol of the frame Laplacian (nonpositive; zero at 0) on
    the first cols columns: all by default, grid.half_cols for a half
    spectrum."""
    kx, ky = grid.k[:, None], grid.k[None, :cols]
    return -(co.diff1 * (kx - co.mix * ky) ** 2 + co.diff2 * ky ** 2)


def invert_frame_laplacian(f, t):
    """Solve the frame Laplacian with the mean-zero gauge (zero mode -> 0)."""
    return inverse_laplacian(f, _laplacian_symbol(f.grid, FrameCoefficients.at_time(t)))


def _drift_spectrum(c, co, grid):
    """Half spectrum of the first- and zeroth-order terms of the generator
    with coefficients co, applied to the field f with half spectrum c.

    The drift is b . grad(f) with b1 = dil1 (X - mix Y) - rot Y and
    b2 = -mix dil1 (X - mix Y) + dil2 Y + rot X, and div(b) =
    dil1 (1 + mix^2) + dil2 is the constant term's coefficient at every
    time and in the limit. So the two terms are div(b f): the products
    b f are formed in physical space and differentiated spectrally, one
    inverse real transform and two forward. The derivative multipliers
    vanish at the zero mode, so the terms carry no mass by construction.
    """
    d = grid.multipliers[1]
    X, Y = grid.x[:, None], grid.x[None, :]
    f = np.fft.irfft2(c, norm="forward")
    stretch = co.dil1 * (X - co.mix * Y)
    b1 = stretch - co.rot * Y
    b2 = co.dil2 * Y + co.rot * X - co.mix * stretch
    rfft2 = np.fft.rfft2
    return (d[:, None] * rfft2(b1 * f, norm="forward")
            + d[None, :grid.half_cols] * rfft2(b2 * f, norm="forward"))


def _apply_generator(f, co):
    """Frame generator with coefficients co (diffusion + drifts + constant)."""
    grid = f.grid
    c = half_spectrum(f)
    out = _drift_spectrum(c, co, grid)
    out += _laplacian_symbol(grid, co, grid.half_cols) * c
    return Field(grid, coeffs=full_spectrum(out))


def apply_generator(f, t):
    """Full frame generator at time t (diffusion + drifts + constant)."""
    return _apply_generator(f, FrameCoefficients.at_time(t))


def apply_limit_generator(f):
    """Late-time limit generator: 4 d_Y^2 + 2 Y d_Y + 2 + rotation."""
    return _apply_generator(f, FrameCoefficients.limit())


def nonlinear_term(f, t, nu):
    """Self-advection term of the frame equation, dealiased (2/3 rule).

    Minus the transport of the field by its frame Biot-Savart velocity,
    i.e. a Poisson bracket with its frame stream function; exactly
    mass-free, and weighted by 1/(nu (1 + t^2/12)).
    """
    check_positive(nu, "viscosity")
    co = FrameCoefficients.at_time(t)
    return transport(f, f, _laplacian_symbol(f.grid, co)) * -(co.nonlin / nu)


GROWTH_FACTOR = 10.0      # one-step L2 growth that flags instability
MAX_HALVINGS = 3          # step halvings tried before BlowUpError
CFL_LIMIT = 1.7           # bound on dtau * skew advection rate
MONITOR_TAIL_TOL = 1e-6   # spectral and box tail the monitor allows
MONITOR_EVERY = 25        # steps between in-interval monitor checks


@dataclass(frozen=True)
class StepControl:
    """Evolver step size, sampling cadence and tail action; the other step
    controls are the constants GROWTH_FACTOR, MAX_HALVINGS, CFL_LIMIT,
    MONITOR_TAIL_TOL and MONITOR_EVERY."""

    dtau: float = 2e-3
    samples_per_decade: int = 16
    on_tail: str = "error"        # "error", "warn" or "ignore"

    def __post_init__(self):
        check_positive(self.dtau, "dtau")
        if check_order(self.samples_per_decade, "samples per decade") < 4:
            raise DomainError("need at least 4 samples per decade")
        if self.on_tail not in ("error", "warn", "ignore"):
            raise DomainError(f"unknown tail action {self.on_tail!r}")


def _skew_rate(co, grid):
    """Undamped advection rate estimate used by the step-size check."""
    L = grid.half_width
    return (co.rot + co.dil1 * (1.0 + co.mix ** 2)) * L * grid.k_max


def _tail_monitor(f, control, t):
    spec_tail = spectral_tail_ratio(f)
    phys_tail = tail_mass_ratio(f)
    worst = max(spec_tail, phys_tail)
    if worst <= MONITOR_TAIL_TOL:
        return
    msg = (f"resolution monitor at t={t:.6g}: spectral tail {spec_tail:.2e}, "
           f"box tail {phys_tail:.2e} exceed {MONITOR_TAIL_TOL:g}")
    if control.on_tail == "error":
        raise ResolutionError(msg)
    if control.on_tail == "warn":
        warnings.warn(msg, RuntimeWarning, stacklevel=3)


def sample_schedule(t_init, t_end, samples_per_decade):
    """Sample log-times tau = ln t from t_init to t_end: every
    ln10/samples_per_decade from ln t_init, plus ln t_end when later."""
    tau = float(np.log(t_init))
    tau_end = float(np.log(t_end))
    ln10 = float(np.log(10.0))
    taus = [tau]
    j = 1
    while True:
        s = tau + j * ln10 / samples_per_decade
        if s >= tau_end - 1e-12:
            break
        taus.append(s)
        j += 1
    if tau_end > tau:
        taus.append(tau_end)
    return taus


def _half_norm(c):
    """l2 norm of the full spectrum whose half spectrum is c: columns
    1..n/2-1 count twice, the self-mirrored columns 0 and n/2 once."""
    p = c.real * c.real
    p += c.imag * c.imag
    return float(np.sqrt(2.0 * p.sum() - p[:, 0].sum() - p[:, -1].sum()))


def _frame_rhs(c, t, sym_mid, grid, nu, nonlinear):
    """Half spectrum of the evolver's explicit terms at time t: drifts,
    constant, the diffusion left over by the integrating factor sym_mid
    and, if nonlinear, the advection term."""
    co = FrameCoefficients.at_time(t)
    sym = _laplacian_symbol(grid, co, grid.half_cols)
    out = _drift_spectrum(c, co, grid)
    out += (sym - sym_mid) * c
    if nonlinear:
        out += transport_spectrum(c, c, grid, sym) * -(co.nonlin / nu)
    return out


def evolve(state, t_end, control=None, nonlinear=True, observer=None):
    """Advance a frame state to t_end; returns (final state, records).

    Integrates in tau = ln t. Diffusion is applied exactly through an
    integrating factor with the symbol frozen at the step midpoint; the
    remaining terms (drifts, constant, advection and the frozen-symbol
    correction) advance with an explicit third-order Runge-Kutta stage
    cycle, which keeps the skew drift terms inside the stability region.
    The steps run on the half spectrum (see spectral); Fields are built
    only for samples, the tail monitor and a blow-up's last state.
    Samples are logarithmically spaced; each sample calls the observer
    (default: diagnostics.record) and its results are returned in order.
    """
    control = control or StepControl()
    t_end = check_real(t_end, "t_end")
    if not state.t <= t_end < np.inf:
        raise DomainError(f"t_end must be finite and >= the state time, got {t_end!r}")
    if observer is None:
        from .diagnostics import record as observer  # default observer
    grid = state.omega.grid
    nu = state.nu
    alpha = state.alpha

    def rhs(tau_s, c, sym_mid):
        return _frame_rhs(c, np.exp(tau_s), sym_mid, grid, nu, nonlinear)

    def as_field(c):
        return Field(grid, coeffs=full_spectrum(c))

    sample_taus = sample_schedule(state.t, t_end, control.samples_per_decade)
    tau = sample_taus[0]

    c = half_spectrum(state.omega)
    norm0 = _half_norm(c)
    records = [observer(state)]
    steps_done = 0
    for target in sample_taus[1:]:
        while tau < target - 1e-13:
            h = min(control.dtau, target - tau)
            t_mid = np.exp(tau + 0.5 * h)
            rate = _skew_rate(FrameCoefficients.at_time(t_mid), grid)
            if h * rate > CFL_LIMIT:
                raise ResolutionError(
                    f"tau step {h:.3e} exceeds stability bound "
                    f"{CFL_LIMIT / rate:.3e} at t={t_mid:.4g} "
                    "(refine dtau or coarsen the grid)")
            attempt = h
            for halving in range(MAX_HALVINGS + 1):
                c_new = c
                tau_new = tau
                nsub = 2 ** halving
                ok = True
                for _ in range(nsub):
                    hh = attempt
                    co_mid = FrameCoefficients.at_time(np.exp(tau_new + 0.5 * hh))
                    sym_mid = _laplacian_symbol(grid, co_mid, grid.half_cols)
                    E = np.exp(hh * sym_mid)
                    Eh = np.exp(0.5 * hh * sym_mid)
                    k1 = rhs(tau_new, c_new, sym_mid)
                    ca = Eh * (c_new + 0.5 * hh * k1)
                    k2 = rhs(tau_new + 0.5 * hh, ca, sym_mid)
                    cb = E * (c_new - hh * k1) + 2.0 * hh * Eh * k2
                    k3 = rhs(tau_new + hh, cb, sym_mid)
                    c_new = E * c_new + (hh / 6.0) * (E * k1 + 4.0 * Eh * k2 + k3)
                    tau_new += hh
                    if not np.all(np.isfinite(c_new)):
                        ok = False
                        break
                if ok:
                    norm_new = _half_norm(c_new)
                    if norm_new <= GROWTH_FACTOR * max(norm0, 1e-300):
                        break
                attempt *= 0.5
            else:
                raise BlowUpError(
                    f"instability at t={np.exp(tau):.4g}: one-step growth exceeded "
                    f"{GROWTH_FACTOR}x even after {MAX_HALVINGS} halvings",
                    last_state=replace(state, omega=as_field(c),
                                       t=float(np.exp(tau)), alpha=alpha))
            c = c_new
            norm0 = norm_new
            tau = tau_new
            steps_done += 1
            if steps_done % MONITOR_EVERY == 0:
                _tail_monitor(as_field(c), control, np.exp(tau))
        state = SelfSimilarState(omega=as_field(c), t=float(np.exp(tau)),
                                 nu=nu, alpha=alpha)
        _tail_monitor(state.omega, control, state.t)
        records.append(observer(state))
    return state, records
