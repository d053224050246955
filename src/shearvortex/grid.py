"""Periodic grids and dual-representation fields.

A grid covers the square box [-L, L)^2 with n uniformly spaced points per
axis, so the resolvable wavenumbers are k_j = j*pi/L for j in [-n/2, n/2).
Spectral coefficients are normalized so the zero mode equals the mean value
of the field over the box; integrals are rectangle-rule sums, which are
spectrally accurate for smooth periodic data.

Fields are real, so their spectra are Hermitian and a Field keeps one
half: the half_cols = n/2 + 1 columns of the np.fft.rfft2 layout, rows in
fft order over all n wavenumbers and columns over k_0 .. k_{n/2}.

A GridSpec owns every array that depends on the grid alone: the points x
and wavenumbers k, built with it, and, built on first use and then kept,
the band edge, the 2/3 keep mask, the outer-eighth and half-box masks, the
derivative multipliers, the Laplacian's symbol and the samples of the
frame Gaussian. The masks, the symbol and wavegrid() are in the half
layout; the multipliers are per axis. These arrays are read-only and
take no part in comparing grids.
"""

import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError, check_real

MAX_DERIVATIVE_ORDER = 4  # highest per-axis order of `multipliers`


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
        try:
            L = check_real(self.half_width, "half_width")
        except DomainError as e:
            raise GridError(str(e)) from None
        n = self.n
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
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "k", _frozen(k))

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.n

    @property
    def k_max(self):
        """Largest resolvable wavenumber magnitude per axis (Nyquist)."""
        return np.pi * self.n / (2.0 * self.half_width)

    @property
    def half_cols(self):
        """Columns of a half spectrum (the rfft2 layout): n/2 + 1."""
        return self.n // 2 + 1

    @cached_property
    def band(self):
        """k_max (1 + 1e-12): a wavenumber beyond it is out of band."""
        return self.k_max * (1.0 + 1e-12)

    def meshgrid(self):
        """Coordinate arrays (first axis, second axis), indexed [i, j]."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def wavegrid(self):
        """Wavenumber arrays (rows, columns) of the half layout."""
        return self.k[:, None], self.k[None, :self.half_cols]

    @cached_property
    def mode_index(self):
        """|j| of each fft position, where k_j = j*pi/L."""
        return _frozen(np.abs(np.fft.fftfreq(self.n, d=1.0 / self.n)))

    @cached_property
    def keep(self):
        """Boolean keep-mask of the 2/3 dealiasing rule on both axes."""
        keep = self.mode_index <= self.n / 3.0
        return _frozen(keep[:, None] & keep[None, :self.half_cols])

    @cached_property
    def outer_band(self):
        """Boolean mask of the outer eighth of the band on either axis."""
        out = self.mode_index >= (7.0 / 16.0) * self.n
        return _frozen(out[:, None] | out[None, :self.half_cols])

    @cached_property
    def outside_half_box(self):
        """Boolean mask of the samples with |x| or |y| beyond L/2."""
        far = np.abs(self.x) > 0.5 * self.half_width
        return _frozen(far[:, None] | far[None, :])

    @cached_property
    def multipliers(self):
        """(i k)^p along one axis for p = 0..MAX_DERIVATIVE_ORDER. Odd p
        zero the Nyquist mode, whose real coefficient has no well-defined
        odd derivative; so derivatives of real fields stay exactly real."""
        ik = 1j * self.k.astype(np.complex128)
        ik_odd = ik.copy()
        ik_odd[self.n // 2] = 0.0
        return tuple(_frozen((ik_odd if p % 2 else ik) ** p)
                     for p in range(MAX_DERIVATIVE_ORDER + 1))

    @cached_property
    def laplacian(self):
        """Fourier symbol -(k1^2 + k2^2) of the Laplacian; zero at k = 0."""
        kx, ky = self.wavegrid()
        return _frozen(-(kx ** 2 + ky ** 2))

    @cached_property
    def gaussian_values(self):
        """Samples of the unit-mass frame Gaussian (1/4pi) exp(-|x|^2/4)."""
        r2 = self.x[:, None] ** 2 + self.x[None, :] ** 2
        return _frozen(np.exp(-r2 / 4.0) / (4.0 * np.pi))


def _frozen(a):
    a.setflags(write=False)
    return a


def _frozen_copy(a, what, dtype, shape):
    """A read-only copy of a as dtype, None for None; GridError unless a
    holds numbers dtype can hold, has the given shape and is finite.
    Strings, bytes and objects, which a float conversion would parse, are
    refused, and so are complex numbers for a real dtype."""
    if a is None:
        return None
    a = np.asarray(a)
    if a.dtype.kind not in "biuf" + np.dtype(dtype).kind:
        raise GridError(f"{what} must hold numbers {np.dtype(dtype).name} "
                        f"can hold, got dtype {a.dtype}")
    if a.shape != shape:
        raise GridError(f"{what} shape {a.shape} != {shape}")
    a = np.array(a, dtype=dtype)
    if not np.all(np.isfinite(a)):
        raise GridError(f"{what} contain non-finite entries")
    a.setflags(write=False)
    return a


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
    at (x[i], x[j]). coeffs is the n x (n/2 + 1) half spectrum,
    np.fft.rfft2(values, norm="forward"), so coeffs[0, 0] is the mean of
    the field over the box; values is np.fft.irfft2(coeffs,
    norm="forward"). Columns 0 and n/2 are their own mirror images, and
    irfft2 reads only the Hermitian part of them.
    """

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise GridError("Field needs values or coeffs")
        if not isinstance(grid, GridSpec):
            raise GridError(f"Field needs a GridSpec, got {grid!r}")
        n, h = grid.n, grid.half_cols
        self.grid = grid
        self._values = _frozen_copy(values, "values", np.float64, (n, n))
        self._coeffs = _frozen_copy(coeffs, "coeffs", np.complex128, (n, h))

    @property
    def values(self):
        if self._values is None:
            v = np.fft.irfft2(self._coeffs, norm="forward")
            v.setflags(write=False)
            self._values = v
        return self._values

    @property
    def coeffs(self):
        if self._coeffs is None:
            c = np.fft.rfft2(self._values, norm="forward")
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    def keep_values(self, v):
        """Keep v, the samples of this field's coeffs formed by the caller
        (spectral.sample_values), as its values, without a copy; v is
        made read-only. GridError if the field holds values already or v
        is not an n x n float64 array."""
        n = self.grid.n
        if self._values is not None:
            raise GridError("field holds its values already")
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64
                and v.shape == (n, n)):
            raise GridError(f"values must be a float64 {n} x {n} array")
        v.setflags(write=False)
        self._values = v

    @property
    def has_values(self):
        return self._values is not None

    @property
    def has_coeffs(self):
        return self._coeffs is not None

    # linear arithmetic; works in whichever representation both sides share
    def _combine(self, other, op):
        if not isinstance(other, Field):
            return NotImplemented
        if self.grid != other.grid:
            raise GridError("fields live on different grids")
        if self.has_values and other.has_values:
            return Field(self.grid, values=op(self.values, other.values))
        return Field(self.grid, coeffs=op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
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
