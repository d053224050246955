"""Self-similar frame: coordinate changes, frame generator, nonlinear term
and the log-time pseudo-spectral evolver.

The frame rescales physical coordinates by the spreading scales of the
linear kernel (shear-enhanced along x) and rescales vorticity by the
kernel decay rate, so the kernel itself becomes the fixed Gaussian
(1/4pi) exp(-(X^2+Y^2)/4). Evolution in the frame uses tau = ln t; the
frame generator has time-dependent coefficients converging at rate 1/t^2
to the limit generator handled in closed form by the fokker_planck module.

Each frame concept has one routine here, which other modules read:
_frame_map is the only formula for the frame's scales (selfsim_coords,
amplitude and propagator.green_kernel read it); _frame_rhs forms the
frame equation's explicit terms, advection included (evolve,
apply_generator, apply_limit_generator and nonlinear_term call it), with
the drift's matrix from _drift_spectrum; and _frame_read is the one
vetted read of both frame changes.

evolve steps one frame state to one later time; sample_schedule gives
the log-spaced sample times, and callers that sample a run (the runner)
evolve from one sample to the next and record each state themselves.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BlowUpError, DomainError, GridError, ResolutionError,
                     TruncationError, check_order, check_positive, check_real,
                     check_reals, check_time, check_times)
from .grid import Field, Frame
from .spectral import (
    arena_scope,
    check_localized,
    drift_arrays,
    drift_divergence,
    inverse_laplacian,
    kept_cols,
    mass,
    resampled,
    spectral_tail_ratio,
    spectrum_norm,
    tail_mass_ratio,
    tail_ratios,
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
        t = check_time(t, "time")
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


def _frame_map(t, nu):
    """Lower-triangular map (X, Y) -> (x, y) = (a X, c X + b Y) of the
    frame at time t (a number or an array), the only formula for the
    frame's scales: with A = 1 + t^2/3 and B = 1 + t^2/12,
    a = sqrt(nu t A), b = sqrt(nu t B / A) and c = (t/2) sqrt(nu t / A)."""
    A = 1.0 + t * t / 3.0
    B = 1.0 + t * t / 12.0
    a = np.sqrt(nu * t * A)
    b = np.sqrt(nu * t * B / A)
    c = 0.5 * t * np.sqrt(nu * t / A)
    return a, c, b


def selfsim_coords(t, nu, x, y):
    """Map physical coordinates to self-similar coordinates at time t > 0
    (a number or an array): the inverse of the frame map,
    X = x / a and Y = (y - c X) / b."""
    t = check_times(t, "time")
    if not np.all(t > 0):
        raise DomainError("selfsim_coords requires a finite t > 0")
    check_positive(nu, "viscosity")
    a, c, b = _frame_map(t, float(nu))
    X = check_reals(x, "selfsim_coords x") / a
    return X, (check_reals(y, "selfsim_coords y") - c * X) / b


def amplitude(t, nu):
    """Vorticity rescaling factor of the frame, the frame map's
    determinant a b = nu t sqrt(1 + t^2/12), at a time t >= 0 (a number
    or an array)."""
    check_positive(nu, "viscosity")
    a, _, b = _frame_map(check_times(t, "time"), nu)
    return a * b


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


# a frame change reads the source's transform over the source box alone,
# so no periodic copy of the source enters; the image can still reach past
# the target box (box tail) or past the target band (spectral tail)
_WRAP_TOL = 1e-4


def _frame_read(f, target_grid, u, source, image):
    """f's image on target_grid under the frame change whose spectral map
    is u = (u11, u12, u22) (resampled), vetted: f must be localized in its
    box, and the image's box and spectral tails must stay within
    _WRAP_TOL. source and image name the two fields in the errors."""
    check_localized(f, f"{source} field")
    out = resampled(f, target_grid, *u)
    box, spec = tail_mass_ratio(out), spectral_tail_ratio(out)
    worst = max(box, spec)
    if worst > _WRAP_TOL:
        raise TruncationError(
            f"resampled {image} field has box tail {box:.2e} and spectral "
            f"tail {spec:.2e}, above {_WRAP_TOL:g}: the target box is too "
            "small or its lattice too coarse for the image at this time",
            tail=worst)
    return out


def phys_to_selfsim(omega, t, nu, target_grid):
    """Resample a physical-frame vorticity field into the frame at time t.

    Mass is preserved exactly in exact arithmetic (the amplitude cancels
    the Jacobian); the input must be localized well inside its box. t and
    nu are checked before any resampling.
    """
    check_positive(t, "time")
    check_positive(nu, "viscosity")
    if omega.grid.frame != Frame.PHYSICAL:
        raise GridError("phys_to_selfsim expects a physical-frame field")
    if target_grid.frame != Frame.SELFSIM:
        raise GridError("target grid must be a selfsim-frame grid")
    a, c, b = _frame_map(t, nu)
    # amplitude(t, nu) f(A X), A = [[a, 0], [c, b]], has f's transform at
    # A^-T kappa: the amplitude, det A, cancels the Jacobian
    out = _frame_read(omega, target_grid, (1.0 / a, -c / (a * b), 1.0 / b),
                      "physical", "frame")
    return SelfSimilarState(omega=out, t=float(t), nu=float(nu))


def selfsim_to_phys(state, target_grid):
    """Resample a frame state back to a physical-frame vorticity field."""
    if target_grid.frame != Frame.PHYSICAL:
        raise GridError("target grid must be a physical-frame grid")
    # the physical field g(A^-1 x) / det A has the frame field g's
    # transform at A^T k, A^T = [[a, c], [0, b]]
    return _frame_read(state.omega, target_grid,
                       _frame_map(state.t, state.nu), "frame", "physical")


def _laplacian_symbol(grid, co):
    """Fourier symbol of the frame Laplacian (nonpositive; zero at 0)."""
    kx, ky = grid.wavegrid()
    return -(co.diff1 * (kx - co.mix * ky) ** 2 + co.diff2 * ky ** 2)


def invert_frame_laplacian(f, t):
    """Solve the frame Laplacian with the mean-zero gauge (zero mode -> 0)."""
    return inverse_laplacian(f, _laplacian_symbol(f.grid, FrameCoefficients.at_time(t)))


def _drift_spectrum(c, co, grid, symbol=None):
    """Half spectrum of the first- and zeroth-order terms of the generator
    with coefficients co, applied to the field f with half spectrum c.

    The drift is b . grad(f) with b1 = dil1 (X - mix Y) - rot Y and
    b2 = -mix dil1 (X - mix Y) + dil2 Y + rot X, and div(b) =
    dil1 (1 + mix^2) + dil2 is the constant term's coefficient at every
    time and in the limit. So the two terms are div(b f), and b is
    linear in (X, Y): spectral.drift_divergence forms the fluxes b f in
    the mixed (axis-0 physical, axis-1 spectral) representation, where X
    f is X times the axis-0 inverse transform of c, whose columns 0 and
    n/2 are read at their real part (what the inverse real transform
    reads of them), so only Y f goes through samples; then it
    differentiates spectrally. The derivative multipliers vanish at the
    zero mode, so the terms carry no mass by construction.

    symbol is drift_divergence's: when given, the frame Laplacian symbol
    under which the field's transport rides in the same transforms, left
    in the drift arrays (spectral.drift_arrays). A co of None runs the
    transport alone and returns None.
    """
    a = None if co is None else (
        (co.dil1, -(co.dil1 * co.mix + co.rot)),
        (co.rot - co.mix * co.dil1, co.dil2 + co.mix * co.mix * co.dil1))
    return drift_divergence(c, a, grid, symbol)


def _frame_rhs(c, co, grid, shift=0.0, nu=None, sym=None, out=None):
    """Half spectrum of the frame equation's explicit terms with
    coefficients co for the field with half spectrum c: drifts, constant,
    the diffusion minus the integrating-factor symbol shift and, when nu
    is given, the advection term at viscosity nu, minus the transport of
    the field by its frame Biot-Savart velocity weighted by nonlin / nu,
    dealiased (2/3 rule).

    sym is co's frame Laplacian symbol when the caller has it; passed as
    the shift itself, the (sym - shift) c term is exactly zero and is
    skipped. A shift of None leaves out the drifts, the constant and the
    diffusion: the result is the advection term alone (nonlinear_term).
    out is the array the result is written to (fresh if None). c may be
    the first of spectral.drift_arrays' mixed arrays (with transport
    exactly when nu is given), which is overwritten.

    A nonlinear right-hand side makes 15 one-axis transform passes in six
    numpy calls, all in spectral.drift_divergence, where the transport
    rides in the drift's transforms; a linear one makes five passes in
    four calls.
    """
    if sym is None:
        sym = _laplacian_symbol(grid, co)
    if out is None:
        out = np.empty((grid.n, grid.half_cols), dtype=np.complex128)
    symbol = None if nu is None else sym
    with arena_scope():
        mixed, _ = drift_arrays(grid, nu is not None)
        if shift is None:
            _drift_spectrum(c, None, grid, symbol)
            return np.multiply(mixed[2], -(co.nonlin / nu), out=out)
        if sym is shift:
            np.copyto(out, _drift_spectrum(c, co, grid, symbol))
        else:
            np.multiply(sym - shift, c, out=out)
            out += _drift_spectrum(c, co, grid, symbol)
    if nu is not None:
        m = kept_cols(grid)
        advection = mixed[2][:, :m]
        advection *= -(co.nonlin / nu)
        out[:, :m] += advection
    return out


def apply_generator(f, t):
    """Full frame generator at time t (diffusion + drifts + constant)."""
    co = FrameCoefficients.at_time(t)
    return Field(f.grid, coeffs=_frame_rhs(f.coeffs, co, f.grid))


def apply_limit_generator(f):
    """Late-time limit generator: 4 d_Y^2 + 2 Y d_Y + 2 + rotation."""
    co = FrameCoefficients.limit()
    return Field(f.grid, coeffs=_frame_rhs(f.coeffs, co, f.grid))


def nonlinear_term(f, t, nu):
    """Self-advection term of the frame equation, dealiased (2/3 rule).

    Minus the transport of the field by its frame Biot-Savart velocity,
    i.e. a Poisson bracket with its frame stream function; exactly
    mass-free, and weighted by 1/(nu (1 + t^2/12)).
    """
    check_positive(nu, "viscosity")
    return Field(f.grid, coeffs=_frame_rhs(
        f.coeffs, FrameCoefficients.at_time(t), f.grid, None, nu))


GROWTH_FACTOR = 10.0      # one-step L2 growth that flags instability
MAX_HALVINGS = 3          # step halvings tried before BlowUpError
CFL_LIMIT = 1.7           # bound on dtau * skew advection rate
MONITOR_TAIL_TOL = 1e-6   # spectral and box tail the monitor allows
MONITOR_EVERY = 25        # steps between in-call monitor checks
MAX_STEPS = 10 ** 6       # most steps one evolve call takes, ln(t_end/t) / dtau
TAIL_ACTIONS = ("error", "warn", "ignore")  # what evolve's on_tail may say


def _skew_rate(co, grid):
    """Undamped advection rate estimate used by the step-size check."""
    L = grid.half_width
    return (co.rot + co.dil1 * (1.0 + co.mix ** 2)) * L * grid.k_max


def _tail_monitor(f, on_tail, t):
    """Check the spectral and box tails of f, a Field or the pair of its
    tail ratios already read."""
    spec_tail, phys_tail = ((spectral_tail_ratio(f), tail_mass_ratio(f))
                            if isinstance(f, Field) else f)
    worst = max(spec_tail, phys_tail)
    if worst <= MONITOR_TAIL_TOL:
        return
    msg = (f"resolution monitor at t={t:.6g}: spectral tail {spec_tail:.2e}, "
           f"box tail {phys_tail:.2e} exceed {MONITOR_TAIL_TOL:g}")
    if on_tail == "error":
        raise ResolutionError(msg)
    if on_tail == "warn":
        warnings.warn(msg, RuntimeWarning, stacklevel=3)


def sample_schedule(t_init, t_end, samples_per_decade):
    """Sample log-times tau = ln t from t_init to t_end: every
    ln10/samples_per_decade from ln t_init, plus ln t_end when later.
    Needs 0 < t_init <= t_end < inf and an integral cadence >= 4."""
    if check_order(samples_per_decade, "samples per decade") < 4:
        raise DomainError("need at least 4 samples per decade")
    check_positive(t_init, "t_init")
    if not t_init <= check_real(t_end, "t_end") < np.inf:
        raise DomainError(f"t_end must be finite and >= t_init, got {t_end!r}")
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


def evolve(state, t_end, dtau=2e-3, nonlinear=True, on_tail="error"):
    """Advance a frame state to t_end and return the state there (the
    input itself when t_end is its time).

    Integrates in tau = ln t with steps of at most dtau. Diffusion is
    applied exactly through an integrating factor with the symbol frozen
    at the step midpoint; the remaining terms (drifts, constant, advection
    and the frozen-symbol correction) advance with an explicit third-order
    Runge-Kutta stage cycle, which keeps the skew drift terms inside the
    stability region. The steps run on arrays, the half spectrum of the
    state, in one arena scope per call (_march); Fields are built only for
    the result, the tail monitor and a blow-up's last state. The tail
    monitor runs every MONITOR_EVERY steps and on the result, and on_tail
    (one of TAIL_ACTIONS) says what a resolution loss does. Callers that
    sample a run call evolve once per sample interval. A call that would
    take more than MAX_STEPS steps raises DomainError before the first.
    """
    check_positive(dtau, "dtau")
    if on_tail not in TAIL_ACTIONS:
        raise DomainError(f"unknown tail action {on_tail!r}")
    t_end = check_real(t_end, "t_end")
    if not state.t <= t_end < np.inf:
        raise DomainError(f"t_end must be finite and >= the state time, got {t_end!r}")
    if t_end == state.t:
        return state
    if math.log(t_end / state.t) / dtau > MAX_STEPS:
        raise DomainError(f"ln(t_end/t) / dtau exceeds {MAX_STEPS:g} steps")
    with arena_scope():     # _march's drift arrays, dropped with the call
        c, tau = _march(state, float(np.log(t_end)), dtau,
                        state.nu if nonlinear else None, on_tail)
    state = replace(state, omega=Field(state.omega.grid, coeffs=c),
                    t=float(np.exp(tau)))
    _tail_monitor(state.omega, on_tail, state.t)
    return state


def _march(state, target, dtau, nu, on_tail):
    """evolve's steps from state to log-time target, advecting at
    viscosity nu unless it is None: the half spectrum there and its
    log-time.

    Every right-hand side and stage runs in arrays taken here, once: the
    right-hand sides' drift arrays (spectral.drift_arrays, in evolve's
    arena scope), and, allocated, the accepted and the trial
    spectrum, two stage slopes and one integrating factor, which holds
    Eh = exp(h sym_mid / 2) until k2 is weighted and E = exp(h sym_mid)
    after. Each stage's input is formed in the first mixed drift array,
    which the right-hand side then overwrites, and the last is scratch
    between right-hand sides. The stage combinations are formed in place
    with the association of the classic formulas, k1 being folded into
    E k1 + 4 Eh k2 before k3 takes k2's place; the midpoint stage reuses
    sym_mid as its frame symbol.
    The tail monitor reads the accepted spectrum in the first two mixed
    and the first samples drift arrays, which hold nothing between
    right-hand sides.
    """
    grid = state.omega.grid
    shape = (grid.n, grid.half_cols)
    mixed, samples = drift_arrays(grid, nu is not None)
    stage, scratch = mixed[0], mixed[-1]
    c, trial, k1, k2 = np.empty((4, *shape), dtype=np.complex128)
    E = np.empty(shape)
    np.copyto(c, state.omega.coeffs)
    at_time = FrameCoefficients.at_time
    tau = state.tau
    norm0 = spectrum_norm(c)
    steps_done = 0
    while tau < target - 1e-13:
        h = min(dtau, target - tau)
        t_mid = np.exp(tau + 0.5 * h)
        rate = _skew_rate(at_time(t_mid), grid)
        if h * rate > CFL_LIMIT:
            raise ResolutionError(
                f"tau step {h:.3e} exceeds stability bound "
                f"{CFL_LIMIT / rate:.3e} at t={t_mid:.4g} "
                "(refine dtau or coarsen the grid)")
        attempt = h
        for halving in range(MAX_HALVINGS + 1):
            np.copyto(trial, c)
            tau_new = tau
            nsub = 2 ** halving
            ok = True
            for _ in range(nsub):
                hh = attempt
                co_mid = at_time(np.exp(tau_new + 0.5 * hh))
                sym_mid = _laplacian_symbol(grid, co_mid)
                np.exp(np.multiply(0.5 * hh, sym_mid, out=E), out=E)   # Eh
                _frame_rhs(trial, at_time(np.exp(tau_new)), grid, sym_mid, nu,
                           out=k1)
                np.multiply(0.5 * hh, k1, out=stage)
                stage += trial
                stage *= E                            # Eh (c + h/2 k1)
                _frame_rhs(stage, co_mid, grid, sym_mid, nu, sym=sym_mid,
                           out=k2)
                k2 *= E                               # Eh k2
                np.exp(np.multiply(hh, sym_mid, out=E), out=E)         # E
                np.multiply(hh, k1, out=stage)
                np.subtract(trial, stage, out=stage)
                stage *= E
                stage += np.multiply(2.0 * hh, k2, out=scratch)
                # stage: E (c - h k1) + 2h Eh k2
                k1 *= E
                k2 *= 4.0
                k1 += k2                              # E k1 + 4 Eh k2
                _frame_rhs(stage, at_time(np.exp(tau_new + hh)), grid, sym_mid,
                           nu, out=k2)                # k3
                k1 += k2
                k1 *= hh / 6.0
                trial *= E
                trial += k1
                tau_new += hh
                if not np.all(np.isfinite(trial)):
                    ok = False
                    break
            if ok:
                norm_new = spectrum_norm(trial)
                if norm_new <= GROWTH_FACTOR * max(norm0, 1e-300):
                    break
            attempt *= 0.5
        else:
            raise BlowUpError(
                f"instability at t={np.exp(tau):.4g}: one-step growth exceeded "
                f"{GROWTH_FACTOR}x even after {MAX_HALVINGS} halvings",
                last_state=replace(state, omega=Field(grid, coeffs=c),
                                   t=float(np.exp(tau))))
        c, trial = trial, c
        norm0 = norm_new
        tau = tau_new
        steps_done += 1
        if steps_done % MONITOR_EVERY == 0:
            _tail_monitor(tail_ratios(c, grid, mixed[:2], samples[0]), on_tail,
                          np.exp(tau))
    return c, tau
