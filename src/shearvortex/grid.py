"""Periodic grids and dual-representation fields.

A grid covers the square box [-L, L)^2 with n uniformly spaced points per
axis, so the resolvable wavenumbers are k_j = j*pi/L for j in [-n/2, n/2).
Spectral coefficients are normalized so the zero mode equals the mean value
of the field over the box; integrals are rectangle-rule sums, which are
spectrally accurate for smooth periodic data.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GridError


class Frame(Enum):
    """Which coordinate frame the grid axes live in."""

    PHYSICAL = "physical"
    SELFSIM = "selfsim"


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid on [-half_width, half_width)^2."""

    half_width: float
    n: int
    frame: Frame = Frame.PHYSICAL

    # derived arrays, attached once and excluded from comparison
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, n = float(self.half_width), self.n
        if not (isinstance(n, (int, np.integer)) and n >= 8 and (n & (n - 1)) == 0):
            raise GridError(f"n must be a power of two >= 8, got {n!r}")
        # the spacing 2L/n and the band edge pi/spacing must be finite
        if not (np.isfinite(L) and np.pi / np.finfo(float).max < 2.0 * L / n < np.inf):
            raise GridError("half_width must be positive and finite with a "
                            f"representable spacing and band, got {L!r}")
        if not isinstance(self.frame, Frame):
            raise GridError(f"frame must be a Frame, got {self.frame!r}")
        object.__setattr__(self, "half_width", L)
        object.__setattr__(self, "n", int(n))
        x = -L + (2.0 * L / n) * np.arange(n)
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)  # j*pi/L, fft order
        x.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "k", k)

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.n

    @property
    def k_max(self):
        """Largest resolvable wavenumber magnitude per axis (Nyquist)."""
        return np.pi * self.n / (2.0 * self.half_width)

    def meshgrid(self):
        """Coordinate arrays (first axis, second axis), indexed [i, j]."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def wavegrid(self):
        """Wavenumber arrays matching the fft layout of coefficients."""
        return self.k[:, None], self.k[None, :]


def make_grid(half_width, n, frame=Frame.PHYSICAL):
    """Validated GridSpec constructor; accepts frame as Frame or string."""
    if isinstance(frame, str):
        try:
            frame = Frame(frame)
        except ValueError:
            raise GridError(f"unknown frame {frame!r}") from None
    return GridSpec(half_width, n, frame)


class Field:
    """Scalar field on a GridSpec holding physical and/or spectral data.

    Whichever representation is missing is computed on first access and
    cached; the arrays themselves are read-only. values[i, j] is the sample
    at (x[i], x[j]); coeffs follows numpy fft ordering on both axes and is
    normalized so coeffs[0, 0] is the mean of the field over the box.
    """

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise GridError("Field needs values or coeffs")
        n = grid.n
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (n, n):
                raise GridError(f"values shape {values.shape} != ({n}, {n})")
            if not np.all(np.isfinite(values)):
                raise GridError("values contain non-finite entries")
            values = values.copy()
            values.setflags(write=False)
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=np.complex128)
            if coeffs.shape != (n, n):
                raise GridError(f"coeffs shape {coeffs.shape} != ({n}, {n})")
            if not np.all(np.isfinite(coeffs)):
                raise GridError("coeffs contain non-finite entries")
            coeffs = coeffs.copy()
            coeffs.setflags(write=False)
        self.grid = grid
        self._values = values
        self._coeffs = coeffs

    @property
    def values(self):
        if self._values is None:
            v = np.fft.ifft2(self._coeffs) * (self.grid.n ** 2)
            v = np.ascontiguousarray(v.real)
            v.setflags(write=False)
            self._values = v
        return self._values

    @property
    def coeffs(self):
        if self._coeffs is None:
            c = np.fft.fft2(self._values) / (self.grid.n ** 2)
            c = np.ascontiguousarray(c)
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    @property
    def has_values(self):
        return self._values is not None

    @property
    def has_coeffs(self):
        return self._coeffs is not None

    def _check_same_grid(self, other):
        if self.grid != other.grid:
            raise GridError("fields live on different grids")

    # linear arithmetic; works in whichever representation both sides share
    def __add__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        self._check_same_grid(other)
        if self.has_values and other.has_values:
            return Field(self.grid, values=self.values + other.values)
        return Field(self.grid, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        self._check_same_grid(other)
        if self.has_values and other.has_values:
            return Field(self.grid, values=self.values - other.values)
        return Field(self.grid, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        if self.has_values:
            return Field(self.grid, values=self.values * float(scalar))
        return Field(self.grid, coeffs=self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        reps = [r for r, ok in (("values", self.has_values), ("coeffs", self.has_coeffs)) if ok]
        g = self.grid
        return f"Field(n={g.n}, L={g.half_width:g}, frame={g.frame.value}, reps={'+'.join(reps)})"
