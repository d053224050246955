"""Catalog of localized initial vorticity fields.

Every entry returns a Field on the given grid, deterministic in the seed,
and is checked to be localized (tail mass below tol outside the half-box)
so that downstream coordinate-weighted operations are trustworthy.
"""

from collections.abc import Mapping

import numpy as np

from .errors import DomainError, ResolutionError, check_order
from .fokker_planck import eigenfunction
from .grid import Field
from .spectral import check_localized, mass

def _pair(value):
    """A scalar (used for both axes) or a 2-sequence, as two floats."""
    if np.isscalar(value):
        return float(value), float(value)
    v = tuple(float(c) for c in value)
    if len(v) != 2:
        raise ValueError("expected a scalar or a pair")
    return v


def _flag(value):
    """A real boolean: no other value is read as true or false."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError
    return bool(value)


def _order(value):
    """A nonnegative integral number (2 and 2.0 alike) as an int."""
    v = check_order(value, "order")
    if v < 0:
        raise ValueError
    return v


def _gauss_bump(grid, amplitude, center, widths):
    """Unit-mass anisotropic Gaussian scaled by amplitude.

    widths are the variances of the two axes (pairs, like center); width 2
    on both axes gives exactly the fixed frame Gaussian (1/4pi) exp(-r^2/4).
    """
    cx, cy = center
    v1, v2 = widths
    if v1 <= 0 or v2 <= 0:
        raise DomainError("widths must be positive variances")
    x, y = grid.x[:, None], grid.x[None, :]
    norm = amplitude / (2.0 * np.pi * np.sqrt(v1 * v2))
    vals = norm * np.exp(-((x - cx) ** 2) / (2.0 * v1)
                         - ((y - cy) ** 2) / (2.0 * v2))
    return Field(grid, values=vals)


def make_field(entry, grid, seed=0, params=None):
    """Build a catalog field; raises if the result is not localized.

    entries and parameters:
      gaussian: amplitude (1), center (0, 0), widths (1) - variances;
        widths 2 reproduces the fixed frame Gaussian (needs a box with
        half width 18 or more to clear the localization gate)
      dipole: separation (4), strength (1), widths (1) - zero total mass
      point_vortex_approx: gamma (1), eps (0.5) - mollified point vortex,
        eps must cover at least 2 grid spacings
      random_localized: amplitude (1), correlation (1), zero_mass (False) -
        seeded filtered noise under a fixed Gaussian envelope
      eigenfunction: a (0), b (1) - frame-generator eigenfunctions

    The seed is a nonnegative integral number (7 and 7.0 alike).
    """
    if not isinstance(params, (Mapping, type(None))):
        raise DomainError(f"initial data params must be a mapping, got {params!r}")
    params = dict(params or {})
    if not isinstance(entry, str) or entry not in CATALOG:
        raise DomainError(f"unknown initial-data entry {entry!r}; "
                          f"catalog: {CATALOG}")
    if check_order(seed, "seed") < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")

    def take(name, default, conv=float):
        value = params.pop(name, default)
        try:
            return conv(value)
        except (TypeError, ValueError, OverflowError, DomainError):
            raise DomainError(f"initial data {entry!r}: parameter {name!r} "
                              f"has invalid value {value!r}") from None

    f = _MAKERS[entry](grid, int(seed), take)
    if params:
        raise DomainError(
            f"unknown parameters for {entry!r}: {sorted(params)}")
    check_localized(f, f"initial data {entry!r}")
    return f


def _make_gaussian(grid, seed, take):
    # default variance 1, not 2: the width-2 profile (the fixed frame
    # Gaussian) only clears the half-box tail gate on boxes with L >= 18
    return _gauss_bump(grid, take("amplitude", 1.0),
                       take("center", 0.0, _pair), take("widths", 1.0, _pair))


def _make_dipole(grid, seed, take):
    sep = take("separation", 4.0)
    strength = take("strength", 1.0)
    widths = take("widths", 1.0, _pair)
    if sep <= 0:
        raise DomainError("dipole separation must be positive")
    up = _gauss_bump(grid, strength, (0.0, sep / 2.0), widths)
    down = _gauss_bump(grid, strength, (0.0, -sep / 2.0), widths)
    return up - down


def _make_point_vortex(grid, seed, take):
    gamma = take("gamma", 1.0)
    eps = take("eps", 0.5)
    if eps < 2.0 * grid.spacing:
        raise ResolutionError(
            f"mollification width {eps:g} under-resolved: needs at least "
            f"2 grid spacings ({2.0 * grid.spacing:g})")
    # unit-mass mollifier (pi eps^2)^-1 exp(-r^2/eps^2) times circulation
    return _gauss_bump(grid, gamma, (0.0, 0.0), _pair(0.5 * eps * eps))


def _make_random(grid, seed, take):
    amplitude = take("amplitude", 1.0)
    corr = take("correlation", 1.0)
    zero_mass = take("zero_mass", False, _flag)
    if corr <= 0:
        raise DomainError("correlation length must be positive")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((grid.n, grid.n))
    smooth = Field(grid, coeffs=np.fft.rfft2(noise, norm="forward")
                   * np.exp(0.5 * corr ** 2 * grid.laplacian))
    x, y = grid.x[:, None], grid.x[None, :]
    # envelope scale L/14 keeps the half-box tail under 1e-8 with margin
    envelope = np.exp(-(x ** 2 + y ** 2) / (grid.half_width / 14.0) ** 2 / 2.0)
    vals = smooth.values * envelope
    peak = np.abs(vals).max()
    if peak == 0.0:
        raise DomainError("degenerate random field (zero everywhere)")
    vals = vals * (amplitude / peak)
    f = Field(grid, values=vals)
    if zero_mass:
        # subtract a narrow unit-mass bump; narrower than the frame
        # Gaussian so the correction never dominates the tail budget
        f = f - float(mass(f)) * _gauss_bump(grid, 1.0, (0.0, 0.0), (1.0, 1.0))
    return f


def _make_eigenfunction(grid, seed, take):
    a = take("a", 0, _order)
    b = take("b", 1, _order)
    return eigenfunction(a, b, grid)


# each catalog entry's maker, in catalog order
_MAKERS = {"gaussian": _make_gaussian, "dipole": _make_dipole,
           "point_vortex_approx": _make_point_vortex,
           "random_localized": _make_random,
           "eigenfunction": _make_eigenfunction}
CATALOG = tuple(_MAKERS)
