"""Derivatives, the Biot-Savart law, norms, quadrature and trig-exact
resampling; a Field transforms itself, and its grid keeps the arrays
these operations share.

Both frames share one Biot-Savart law: _solve, the one division by a
Laplacian symbol, and _velocity, its perp-gradient, serve
inverse_laplacian, biot_savart and transport alike. The symbol operand is
the plain Laplacian's by default and the frame Laplacian's (the plain one
at t = 0) in the frame.

Every spectrum is a half spectrum, the rfft2 layout of a Field's coeffs
(see grid). Column 0 and the Nyquist column n/2 are their own conjugate
mirrors; the other columns stand for themselves and their mirror images.
The shear mixes columns, so shear_spectrum runs on full rows, but only
on rows 0..n/2 (shear_rows): rows j and n - j of a real field's spectrum
are conjugate mirrors, and _shear, the one row completion, fills in rows
n/2+1..n-1 of its output. The dense sums of affine_trig_sum and the
shear's phase fold by the mirror symmetry of grid.x and grid.k
(x_{n-j} = -x_j, k_{n-j} = -k_j), so they take cosines and sines at
n/2 + 1 points per axis; the shear's phase writes them as the real and
imaginary parts of its complex array. affine_trig_sum's three table
pairs, over a lattice also evenly spaced on its first n/2 entries, are
products of the cosines and sines at about 2 sqrt(n/2) points per row
by angle addition (_trig_tables). What a shear reads of a spectrum
(shear_rows) does not depend on the slope, so a flow of one spectrum
to several times forms it once (flow_rows).

Both linear semigroups, the physical heat-shear propagator and the
frame's limit semigroup, are one Ornstein-Uhlenbeck operation: read the
spectrum at the backward image M k of each mode, then multiply by a
Gaussian damping. characteristic_flow is that operation, for any M and
damping operand. It alone splits M into a shear and an upper-triangular
scaling, and no other module shears or scales a spectrum; the heat-shear
map's scaling is the identity and is skipped. The scale stage sums
physical samples, so the flow hands it the samples of its sheared
spectrum. The frame changes are the scale stage alone, read from one
grid into another: resampled is its Field entry, and hands over the
Field's samples.

transport_spectrum is the one dealiased transport kernel, the composition
of its two halves: transport_factors, the samples of the velocity and of
the gradient, linear in each input, and transport_product, the dealiased
spectrum of their product. Both halves run on the n x (n/3 + 1) block of
columns the 2/3 rule keeps, in stages: transport_mixed forms the four
factors' spectra on the block and takes them to the mixed (axis-0
physical, axis-1 spectral) representation in one stacked axis-0 inverse
transform; one stacked axis-1 inverse real transform gives their
samples; transport_samples forms the product in place; one axis-1
forward real transform and kept_spectrum's axis-0 forward transform of
the kept columns finish it. So the kernel makes ten one-axis passes in
four numpy calls. The Duhamel march calls the halves apart: it builds
each sample's factors once, and as the term is bilinear in them, a
node's term is a fixed real combination of its stencil's pair terms.
pair_product forms those (pair_samples, beside transport_samples) and
sends a stack of them through transport_product's own forward stage
(_forward_product), so the march transforms each pair once, not each
node. transport_samples, pair_samples and kept_spectrum work on the
last three (factors) or two (spectrum) axes, so a stacked call gives
each slice's own result bit for bit. transport wraps the kernel for
Fields.
drift_divergence runs the same stages for the frame equation, with the
factors and their product riding in the transforms of the drift's
fluxes, so that a frame right-hand side makes its 15 passes in six
calls. derivative_pass samples derivatives of a half spectrum by the
same row-column split: one axis-0 inverse transform per x-order, shared
by that order's axis-1 inverse real transforms.

Large temporaries run in the calling thread's Arena, opened by
arena_scope: numbered slabs of bytes, each allocated on first use and
kept, plus the weight samples <x>^m of each grid. A kernel reads the
thread's open arena; an entry point with none open opens one for its
call, so a standalone call allocates what its temporaries need and its
callees share them. A generator opens its scope per item, never across
a yield. A caller that opens one scope around a loop reuses its slabs
from item to item instead of freeing and faulting them in again. What
a kernel returns on a slab is valid until the slab is taken again, so
a result that another thread reads while this one goes on
(sample_values' axis-0 stage with no slab) goes into a new array; a
Field copies the arrays it is built from.
The slabs each kernel takes (its result's slab in brackets):

    derivative_pass      0-1, each sample on 2 [2], or 3 if held [3]
    shear_rows           i, default 0 [i]; 1 as scratch
    _shear               0-2 [1; the mask on 2, or the memo's]
    flow_rows            0-3, through _shear and scale_spectrum [1]
    scale_spectrum       0-3, through affine_trig_sum [1]
    affine_trig_sum      0-3 [1]
    sample_values        i, the axis-0 stage [i]; none if i is None
    semigroup_flow       4 (tail check, damping), 5 (its input's shear
                         rows, for the whole flow), 0-3 (flow_rows)
    record               0-2, 4 (sample_values, unless the caller
                         sampled), energy_functionals'
    energy_functionals   2, derivative_pass's 0-3
    drift_divergence     6, the drift arrays (drift_arrays)

So a flow and a record may share one arena in turn on one thread, as
the flow leaves slabs 0-4 free between samples, and the frame evolver's
drift arrays sit beside both. propagator's Duhamel targets copy the
first of two trajectories' flowed samples (slab 1) before they flow the
second's, so the march gives the same bytes in a scope as without one.

A Picard solve keeps, for as long as it runs, the arrays that depend on
its time grid alone, in a SolveMemo that propagator.picard_solve, and
only it, opens on the thread that runs the solve (solve_memo): the
runner's worker when picard's cross-check runs beside the frame
evolver, else the caller's thread. Its shears keep each slope's phase
as its (n/2 + 1) x (n/2 + 1) top block and its band-exit mask as
booleans, keyed by (grid, slope), read through the thread as the arena
is, so no kernel takes a table argument; the march keeps its
intervals' multipliers and carries there (propagator._duhamel_targets).
The memo is emptied and closed when the solve returns or raises. With
none open, each shear forms its phase and mask in its slabs: so does
fp-decay's limit flow, whose every sample shears by a new slope, and
every other entry. The memo is not the arena's, since an arena may
serve a whole run (fp-decay's worker keeps one for its flow).

All operations assume smooth fields that decay well inside the box, so the
periodic spectral representation is accurate. Quadrature is the rectangle
rule, exact for resolved trigonometric content.
"""

import math
import threading
from itertools import groupby

import numpy as np

from .errors import (DomainError, GridError, TruncationError,
                     UnsupportedOrderError, check_order, check_real)
from .grid import MAX_DERIVATIVE_ORDER, Field


class Arena:
    """The large temporaries of one arena scope (arena_scope), on numbered
    slabs of bytes, grown when a request is larger, and the weight
    samples <x>^m of each grid; each is allocated on first use and kept
    while the scope is open.

    A scope belongs to one thread: the kernels a thread runs in it share
    its arena, one sample's and the next's alike, and kernels running at
    once on two threads have one each. A kernel's docstring names the
    slabs it writes: callees get the slabs their caller is done with, and
    what a kernel returns on a slab is valid until that slab is taken
    again. Fields copy what they are given, so a Field built from a slab
    stays fresh."""

    def __init__(self):
        self._slabs, self._weights = [], {}

    def take(self, i, *specs):
        """Arrays of the (shape, dtype) specs, laid out in turn on slab i
        at 16-byte offsets; what slab i held before is overwritten."""
        spans, end = [], 0
        for shape, dtype in specs:
            spans.append(end)
            end += -(-math.prod(shape) * np.dtype(dtype).itemsize // 16) * 16
        self._slabs += [None] * (i + 1 - len(self._slabs))
        if self._slabs[i] is None or self._slabs[i].size < end:
            self._slabs[i] = np.empty(end, dtype=np.uint8)
        return [np.ndarray(shape, dtype, self._slabs[i], at)
                for at, (shape, dtype) in zip(spans, specs)]

    def weight(self, grid, m):
        """weight_samples(grid, m), formed once."""
        if (grid, m) not in self._weights:
            self._weights[grid, m] = weight_samples(grid, m)
        return self._weights[grid, m]


_scope = threading.local()      # .arena: the thread's open Arena, or None;
                                # .memo: its open SolveMemo, or None


class arena_scope:
    """The calling thread's open Arena, for a with block: the kernels the
    block calls take their large temporaries from it. With none open, a
    fresh one is opened for the block and dropped when it exits, by an
    exception too; else the open one serves and stays open."""

    def __enter__(self):
        self.outer = getattr(_scope, "arena", None)
        _scope.arena = self.outer or Arena()
        return _scope.arena

    def __exit__(self, *exc):
        _scope.arena = self.outer


class SolveMemo:
    """The arrays of one solve that depend only on its grid, viscosity
    and time grid, each built on first use, kept read-only until the
    solve ends (solve_memo) and keyed by the exact values it is built
    from: per (grid, slope), the top block of the shear's phase (_phase)
    and its band-exit mask (band_exit); per interval ends, the Duhamel
    march's entries (propagator._duhamel_targets)."""

    def __init__(self):
        self.phases, self.exits, self.intervals = {}, {}, {}

    def clear(self):
        for table in (self.phases, self.exits, self.intervals):
            table.clear()


class solve_memo:
    """A fresh SolveMemo for a with block, open on the calling thread,
    where _phase and band_exit read it. On exit, by an exception too, it
    is emptied and the thread's previous memo, if any, is open again."""

    def __enter__(self):
        self.outer = getattr(_scope, "memo", None)
        _scope.memo = SolveMemo()
        return _scope.memo

    def __exit__(self, *exc):
        _scope.memo.clear()
        _scope.memo = self.outer


def _kept(a):
    """A read-only copy of a, as a solve memo keeps it."""
    a = a.copy()
    a.flags.writeable = False
    return a


def derivative(f, a, b):
    """Mixed spectral derivative d^a/dx1^a d^b/dx2^b of the field; the odd
    orders project out the Nyquist mode (see GridSpec.multipliers)."""
    a = check_order(a, "derivative order")
    b = check_order(b, "derivative order")
    if a < 0 or b < 0 or a + b > MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrderError(
            f"derivative order ({a}, {b}) outside 0 <= a+b <= {MAX_DERIVATIVE_ORDER}")
    if a == 0 and b == 0:
        return f
    return Field(f.grid, coeffs=f.coeffs * derivative_symbol(f.grid, a, b))


def derivative_symbol(grid, a, b):
    """Multiplier of d^a/dx1^a d^b/dx2^b on the half layout."""
    d = grid.multipliers
    mult = 1.0
    if a:
        mult = d[a][:, None]
    if b:
        mult = mult * d[b][None, :grid.half_cols]
    return mult


def derivative_pass(c, grid, orders, held=(), mixed0=None):
    """Yield (order, samples) of d^a/dx1^a d^b/dx2^b of the real field with
    half spectrum c for each order (a, b) in orders, in ascending order,
    and no Field. irfft2 splits by rows and columns, so the orders of one
    a share its axis-0 stage: one axis-0 inverse transform of c (ik1)^a
    per distinct a, then one axis-1 inverse real transform of that mixed
    array times (ik2)^b per order; the factor (ik)^0 = 1 is skipped.
    mixed0, when given, is the axis-0 inverse transform of c itself (as
    sample_values leaves it), which the orders with a = 0 read instead.

    Each order runs in the calling thread's arena scope (opened per order,
    never across a yield), on slabs 0 and 1, and each samples array is
    slab 2, valid until the next order is yielded, or slab 3 for an order
    in held, valid until the next such order: a caller that keeps one
    sample across others names its order in held, and overwrites any
    sample at will. Unlike a Field's, the samples are
    not checked for finiteness."""
    d, h, n = grid.multipliers, grid.half_cols, grid.n
    for a, group in groupby(sorted(orders), key=lambda o: o[0]):
        read = None if a else mixed0
        for o in group:
            with arena_scope() as ws:
                (mixed,), (product,) = (ws.take(i, (c.shape, complex)) for i in (0, 1))
                if read is None:
                    spec = _scaled(c, d[a][:, None], product) if a else c
                    read = np.fft.ifft(spec, axis=0, norm="forward", out=mixed)
                spec = _scaled(read, d[o[1]][:h], product) if o[1] else read
                out, = ws.take(3 if o in held else 2, ((n, n), float))
                samples = np.fft.irfft(spec, axis=1, norm="forward", out=out)
            yield o, samples


def _scaled(a, factor, out):
    """np.multiply(a, factor, out=out) for a factor that broadcasts
    against a, with numpy's smallest ufunc buffer: for a broadcast
    operand numpy allocates its iterator's buffers, np.getbufsize()
    entries (128 KiB of complex), though it fills none when nothing is
    cast, and an allocation that size is a fresh mapping each time."""
    with np.errstate():
        np.setbufsize(16)
        return np.multiply(a, factor, out=out)


def _solve(c, symbol):
    """Coefficients c divided by the Laplacian symbol, zero mode -> 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = c / symbol
    psi[0, 0] = 0.0
    return psi


def _velocity(psi, d1, d2, out):
    """Spectra of (u1, u2) = (-d2 psi, d1 psi) for the stream function
    psi (_solve), written into out[0] and out[1] and returned; d1 and d2
    are the first-derivative multipliers broadcast along axes 0 and 1."""
    np.multiply(-d2, psi, out=out[0])
    np.multiply(d1, psi, out=out[1])
    return out


def _symbol(grid, symbol):
    """The Laplacian symbol operand of the public Biot-Savart entries:
    grid.laplacian for None, else a real array in grid's half layout
    (GridError otherwise)."""
    if symbol is None:
        return grid.laplacian
    if (np.shape(symbol) != (grid.n, grid.half_cols)
            or np.asarray(symbol).dtype.kind not in "biuf"):
        raise GridError(f"symbol must be a real {grid.n} x {grid.half_cols} "
                        f"array, got {type(symbol).__name__} of shape "
                        f"{np.shape(symbol)}")
    return symbol


def inverse_laplacian(f, symbol=None):
    """Solve lap(psi) = f with the mean-zero gauge (zero mode -> 0); lap has
    the Fourier symbol given, by default the plain one, grid.laplacian."""
    return Field(f.grid, coeffs=_solve(f.coeffs, _symbol(f.grid, symbol)))


def biot_savart(omega, symbol=None):
    """Velocity (u1, u2) = perp-gradient of the inverse Laplacian of omega.

    The gauge fixes the stream function to zero mean, so curl(u) recovers
    omega minus its mean value when the symbol is the plain Laplacian's.
    """
    grid = omega.grid
    u1, u2 = _velocity(_solve(omega.coeffs, _symbol(grid, symbol)),
                       derivative_symbol(grid, 1, 0),
                       derivative_symbol(grid, 0, 1),
                       np.empty((2, grid.n, grid.half_cols), dtype=np.complex128))
    return Field(grid, coeffs=u1), Field(grid, coeffs=u2)


def spectrum_norm(c):
    """l2 norm of the full spectrum whose half spectrum is c: columns
    1..n/2-1 count twice, the self-mirrored columns 0 and n/2 once."""
    p = c.real * c.real
    p += c.imag * c.imag
    return float(np.sqrt(2.0 * p.sum() - p[:, 0].sum() - p[:, -1].sum()))


def kept_cols(grid):
    """Half-layout columns 0..n/3 that the 2/3 rule keeps (grid.keep);
    n is a power of two, so n/3 is not an integer."""
    return grid.n // 3 + 1


def _drop_rows(block, grid):
    """Zero in place, and return, the rows n/3 + 1 .. n - n/3 - 1 (axis
    -2) of block, the kept columns of a half spectrum or a stack of
    them: on those columns the 2/3 rule (grid.keep) drops these rows."""
    n = grid.n
    block[..., n // 3 + 1:n - n // 3, :] = 0.0
    return block


def transport_mixed(omega, w, grid, symbol, out):
    """Write into out, a 4 x n x (n/3 + 1) array, the mixed (axis-0
    physical, axis-1 spectral) representations of u1, u2, d1 w and d2 w
    on the block of kept columns, u the velocity of omega under the
    Laplacian symbol given; omega, w and the symbol are half spectra, and
    both inputs are 2/3-dealiased. The four spectra are formed in out,
    then one stacked axis-0 inverse transform runs in place. out may be
    the kept block of a wider stack (see drift_divergence)."""
    m = kept_cols(grid)
    d1 = derivative_symbol(grid, 1, 0)
    d2 = derivative_symbol(grid, 0, 1)[:, :m]
    od = _drop_rows(omega[:, :m].copy(), grid)
    wd = od if w is omega else _drop_rows(w[:, :m].copy(), grid)
    np.multiply(d1, wd, out=out[2])
    np.multiply(d2, wd, out=out[3])
    psi = _solve(od, symbol[:, :m])
    del od, wd      # freed before the velocity's products
    _velocity(psi, d1, d2, out)
    np.fft.ifft(out, axis=-2, norm="forward", out=out)


def transport_factors(omega, w, grid, symbol):
    """Samples (u1, u2, d1 w, d2 w) of the transport term u . grad(w), u
    the velocity of omega under the Laplacian symbol given, as one
    4 x n x n array; omega, w and the symbol are half spectra, and both
    inputs are 2/3-dealiased. Linear in each input.

    Two transform calls: transport_mixed's stacked axis-0 inverse
    transform of the kept block, then one stacked axis-1 inverse real
    transform. The mixed representation vanishes past column n/3, so the
    inverse real transform reads the block zero-padded to n/2 + 1
    columns and gives the samples irfft2 would.
    """
    mixed = np.empty((4, grid.n, kept_cols(grid)), dtype=np.complex128)
    transport_mixed(omega, w, grid, symbol, mixed)
    return np.fft.irfft(mixed, n=grid.n, axis=-1, norm="forward")


def transport_samples(factors):
    """Samples of u1 d1 w + u2 d2 w from the samples (u1, u2, d1 w, d2 w)
    transport_factors returns, or a stack of them on leading axes, formed
    in place: the result is the u1 plane (index 0 on axis -3) of factors,
    and the u2 plane is overwritten too."""
    u1, u2, w1, w2 = np.moveaxis(factors, -3, 0)
    u1 *= w1
    u2 *= w2
    u1 += u2
    return u1


def kept_spectrum(rows, grid):
    """The 2/3-dealiased half spectrum whose mixed (axis-0 physical,
    axis-1 spectral) representation is rows, or a stack of them on
    leading axes, formed in rows: one axis-0 forward transform of the
    n/3 + 1 kept columns, and the rest zeroed: the other columns, and on
    the kept ones the rows n/3 + 1 .. n - n/3 - 1 that the 2/3 rule drops
    (grid.keep). Returns rows."""
    m = kept_cols(grid)
    kept = rows[..., :m]
    np.fft.fft(kept, axis=-2, norm="forward", out=kept)
    _drop_rows(kept, grid)
    rows[..., m:] = 0.0
    return rows


def pair_samples(factors, pairs):
    """Samples of the pair terms of a stack of transport_factors' samples
    (factors, k x 4 x n x n), in a new array with pairs' order on axis 0:
    for (a, b), u_a . grad w_b + u_b . grad w_a, or u_a . grad w_a (as
    transport_samples forms it) when a = b. So the term of the factors
    sum_a c_a factors[a] is the sum over pairs a <= b of c_a c_b times
    the pair's term."""
    out = np.empty((len(pairs),) + factors.shape[2:])
    scratch = np.empty(factors.shape[2:])
    for q, (a, b) in zip(out, pairs):
        (u1, u2, w1, w2), (v1, v2, z1, z2) = factors[a], factors[b]
        np.multiply(u1, z1, out=q)
        q += np.multiply(u2, z2, out=scratch)
        if a != b:
            q += np.multiply(v1, w1, out=scratch)
            q += np.multiply(v2, w2, out=scratch)
    return out


def _forward_product(samples, grid):
    """The 2/3-dealiased half spectrum of product samples, or a stack of
    them on leading axes, formed in two transform calls: one axis-1
    forward real transform and the axis-0 forward transform of the
    n/3 + 1 kept columns (kept_spectrum). Only those columns can be
    non-zero."""
    rows = np.fft.rfft(samples, axis=-1, norm="forward")
    return kept_spectrum(rows, grid)


def transport_product(factors, grid):
    """Half spectrum of u1 d1 w + u2 d2 w from the samples transport_factors
    returns, or a stack of such spectra from a stack of them on leading
    axes, 2/3-dealiased: the product is formed in place in factors
    (transport_samples), then transformed (_forward_product)."""
    return _forward_product(transport_samples(factors), grid)


def pair_product(factors, pairs, grid):
    """The 2/3-dealiased half spectra of the pair terms
    pair_samples(factors, pairs), on a leading axis, through
    transport_product's forward stage, stacked (_forward_product)."""
    return _forward_product(pair_samples(factors, pairs), grid)


def drift_arrays(grid, transport):
    """The arrays drift_divergence runs in, on slab 6 of the calling
    thread's open arena, as (mixed, samples): mixed holds five
    n x (n/2 + 1) mixed (axis-0 physical, axis-1 spectral) arrays, and
    samples the axis-1 inverse real transforms of the first five of them
    (with transport) or of the first alone. Between calls they hold
    nothing, so a caller in the same scope may form the next call's input
    in mixed[0] and use mixed[-1] as scratch."""
    with arena_scope() as ws:
        return ws.take(6, ((5, grid.n, grid.half_cols), complex),
                       ((5 if transport else 1, grid.n, grid.n), float))


def drift_divergence(c, a, grid, symbol=None):
    """Half spectrum of div(b f) for the real field f with half spectrum
    c and the drift b = a x linear in the sample coordinates x = (X, Y),
    a = ((a11, a12), (a21, a22)); and, given a Laplacian symbol, of the
    transport of f by its own velocity under it, 2/3-dealiased. The drift
    spectrum is returned as mixed[0] of drift_arrays (with transport
    exactly when the symbol is given), and the transport's is left in
    mixed[2]; both are valid until the arrays are taken again. c may be
    mixed[0]. An a of None runs the transport alone and returns None.

    The fluxes b f are formed in the mixed representation. X depends on
    axis 0 alone, so the axis-1 real transform of X f is X times M, the
    axis-0 inverse transform of c, with columns 0 and n/2 read at their
    real part, which is what the inverse real transform reads of them;
    only Y f goes through samples. So the drift takes four transform
    calls: the axis-0 inverse transform of c, one axis-1 inverse real
    transform, one axis-1 forward real transform of Y f and one axis-0
    forward transform of the two fluxes, stacked.

    The transport runs transport_spectrum's kernel stage by stage:
    transport_mixed stages the four factors' kept blocks in mixed[1..4],
    zero past them, and they ride in the drift's inverse real transform;
    their product (transport_samples) rides in its forward one into
    mixed[2], and kept_spectrum finishes it there. So drift and transport
    take six calls, 15 one-axis passes, and the transport equals
    transport_spectrum(c, c, grid, symbol) bit for bit. mixed[1] takes
    Y f's transform and then the b2 flux, and mixed[3] and mixed[4] are
    scratch.
    """
    mixed, samples = drift_arrays(grid, symbol is not None)
    # the stacks start at f's slot when there is a drift and at the
    # factors' when not; the products are Y f and then u . grad f
    lo = 0 if a is not None else 1
    hi = 1 if symbol is None else 2
    if symbol is not None:
        m = kept_cols(grid)
        mixed[1:, :, m:] = 0.0
        transport_mixed(c, c, grid, symbol, mixed[1:, :, :m])
    if a is not None:
        np.fft.ifft(c, axis=-2, norm="forward", out=mixed[0])
    np.fft.irfft(mixed[lo:len(samples)], axis=-1, norm="forward",
                 out=samples[lo:])
    if a is not None:
        samples[0] *= grid.x                  # Y f
    if symbol is not None:
        transport_samples(samples[1:])
    np.fft.rfft(samples[lo:hi], axis=-1, norm="forward", out=mixed[1 + lo:1 + hi])
    if symbol is not None:
        kept_spectrum(mixed[2], grid)
    if a is None:
        return None
    (a11, a12), (a21, a22) = a
    xf, yf, s1, s2 = mixed[0], mixed[1], mixed[3], mixed[4]
    xf[:, ::grid.half_cols - 1].imag = 0.0
    xf *= grid.x[:, None]                     # X f
    np.multiply(yf, a12, out=s1)
    np.multiply(xf, a21, out=s2)
    yf *= a22
    yf += s2                                  # b2 f
    xf *= a11
    xf += s1                                  # b1 f
    np.fft.fft(mixed[:2], axis=-2, norm="forward", out=mixed[:2])
    xf *= derivative_symbol(grid, 1, 0)
    yf *= derivative_symbol(grid, 0, 1)
    xf += yf
    return xf


def transport_spectrum(omega, w, grid, symbol):
    """Half spectrum of u . grad(w), u the velocity of omega under the
    Laplacian symbol given, from half spectra (symbol in the half layout
    too). 2/3-dealiased on both inputs and on the product, on the
    n x (n/3 + 1) block of kept columns, in four transform calls: the
    stacked axis-0 inverse and axis-1 inverse real transforms of the four
    factors (transport_factors), then, after the product, one axis-1
    forward real transform and one axis-0 forward transform of the block
    (transport_product)."""
    return transport_product(transport_factors(omega, w, grid, symbol), grid)


def transport(omega, w, symbol=None):
    """u . grad(w) with u = biot_savart(omega, symbol), 2/3-dealiased on
    both inputs and on the product; equal to div(u w), as div(u) = 0."""
    grid = omega.grid
    return Field(grid, coeffs=transport_spectrum(omega.coeffs, w.coeffs,
                                                 grid, _symbol(grid, symbol)))


def mass(f):
    """Integral of f over the box: zero spectral mode times the box area,
    the exact value the solvers conserve, whether or not f holds its
    samples."""
    return float(f.coeffs[0, 0].real) * (2.0 * f.grid.half_width) ** 2


def lp_norm(f, p):
    """L^p norm by rectangle-rule quadrature; p in [1, inf]."""
    p = check_real(p, "p")
    if not p >= 1.0:
        raise DomainError(f"p must satisfy 1 <= p <= inf, got {p!r}")
    return lp_samples(np.abs(f.values), f.grid, p)


def lp_samples(v, grid, p, scratch=None):
    """L^p norm of the samples whose magnitudes are v, by rectangle-rule
    quadrature; p in [1, inf], unchecked. Powers of v are formed in
    scratch, shaped like v (fresh if None)."""
    if np.isinf(p):
        return float(v.max())
    h2 = grid.spacing ** 2
    if p == 1.0:
        return float(np.sum(v) * h2)
    if p == 2.0:
        return float(np.sqrt(np.sum(np.multiply(v, v, out=scratch)) * h2))
    return float((np.sum(np.power(v, p, out=scratch)) * h2) ** (1.0 / p))


def _weight_exponent(m):
    m = check_real(m, "weight exponent")
    if not 0.0 <= m <= 12.0:
        raise DomainError(f"weight exponent must lie in [0, 12], got {m!r}")
    return m


def weighted_norm(f, m, a=0, b=0):
    """Weighted Sobolev-type seminorm: L^2 norm of <x>^m d^a d^b f, with
    the polynomial weight <x> = (1 + |x|^2)^(1/2) and m in [0, 12].

    Derivatives up to total order 3 are supported here; they are taken
    spectrally and the weight is applied in physical space.
    """
    m = _weight_exponent(m)
    a, b = check_order(a, "derivative order"), check_order(b, "derivative order")
    if a + b > 3:
        raise UnsupportedOrderError(f"weighted norm supports a+b <= 3, got ({a}, {b})")
    g = derivative(f, a, b)
    return weighted_l2(weight_samples(f.grid, m), g.values, f.grid)


def _bracket_sq(grid):
    """Samples of <x>^2 = 1 + |x|^2; the weight <x>^m is its m/2 power."""
    return 1.0 + grid.x[:, None] ** 2 + grid.x[None, :] ** 2


def weight_samples(grid, m):
    """Samples of the weight <x>^m = (1 + |x|^2)^(m/2), m in [0, 12],
    formed on each call (Arena.weight keeps them for a run)."""
    return _bracket_sq(grid) ** (0.5 * _weight_exponent(m))


def weighted_l2(w, v, grid, scratch=None):
    """L^2 norm of the samples w * v by rectangle-rule quadrature; the
    product is formed in scratch, shaped like v (fresh if None)."""
    wv = np.multiply(w, v, out=scratch)
    return float(np.sqrt(np.sum(np.square(wv, out=wv)) * grid.spacing ** 2))


def weighted_inner(f, g, m=0.0):
    """Weighted L^2 inner product (f, g) with weight <x>^(2m), m in [0, 12]."""
    m = _weight_exponent(m)
    w2 = _bracket_sq(f.grid) ** m if m else 1.0
    h2 = f.grid.spacing ** 2
    return float(np.sum(w2 * f.values * g.values) * h2)


def dealias_mask(grid):
    """Boolean keep-mask implementing the 2/3 rule on both axes."""
    return grid.keep


def spectral_tail_ratio(f):
    """Max |coeff| in the outer eighth of the band over the overall max.

    A resolved field keeps this small; values above ~1e-6 signal that
    energy is piling up against the truncation.
    """
    return _spectrum_tail(f.coeffs, f.grid)


def _spectrum_tail(c, grid, out=None):
    """spectral_tail_ratio of the half spectrum c; |c| is formed in out,
    a float array shaped like c (fresh if None)."""
    c = np.abs(c, out=out)
    peak = c.max()
    if peak == 0.0:
        return 0.0
    return float(np.max(c, where=grid.outer_band, initial=0.0) / peak)


TAIL_MASS_TOL = 1e-8  # largest tail mass ratio of a localized field


def tail_mass_ratio(f):
    """Fraction of the L^1 mass outside the half-box |x|, |y| <= L/2."""
    return _samples_tail(f.values, f.grid)


def _samples_tail(v, grid, out=None, pick=None):
    """tail_mass_ratio of the samples v: |v| is formed in out, shaped
    like v, and the tail's entries are gathered in pick, a 1-D float
    array of at least n^2 entries (fresh if None)."""
    v = np.abs(v, out=out)
    total = v.sum()
    if total == 0.0:
        return 0.0
    far = grid.outside_half_box.ravel()
    pick = None if pick is None else pick[:np.count_nonzero(far)]
    return float(np.compress(far, v.ravel(), out=pick).sum() / total)


def tail_ratios(c, grid, mixed, v):
    """(spectral_tail_ratio, tail_mass_ratio) of the real field with half
    spectrum c, read in the caller's buffers: mixed, two complex arrays
    shaped like c, and v, n x n, which is left holding |samples|."""
    spec = _spectrum_tail(c, grid, v.reshape(-1)[:c.size].reshape(c.shape))
    _irfft2(c, grid, mixed[0], v)
    return spec, _samples_tail(v, grid, v, mixed[1].view(float).reshape(-1))


def check_localized(f, what):
    """Raise TruncationError if f's tail mass ratio exceeds TAIL_MASS_TOL."""
    r = tail_mass_ratio(f)
    if r > TAIL_MASS_TOL:
        raise TruncationError(f"{what} not localized: tail mass ratio {r:.2e} "
                              f"exceeds {TAIL_MASS_TOL:g}", tail=r)


def shear_phase(grid, slope, out=None):
    """Rows 0..n/2 of the phase exp(-i slope xi_j y_q) of the shear by
    slope, (n/2 + 1) x n, written into out when given (fresh if None):
    the rows shear_spectrum transforms. The cosines and sines are taken
    at columns 0..n/2, the top block, into the real and imaginary parts,
    the same bytes as the complex exponential (+0.0 for a zero sine, as
    exp gives it, so slopes +0.0 and -0.0 give the same bytes); as
    y_{n-q} = -y_q, columns n/2+1..n-1 are the conjugates of columns
    n/2-1..1 (_mirror_phase). Formed on each call; a solve keeps the top
    blocks it builds (_phase)."""
    n, h = grid.n, grid.half_cols
    out = np.empty((h, n), dtype=np.complex128) if out is None else out
    top = out[:, :h]
    arg = np.multiply(np.outer(grid.k[:h], grid.x[:h], out=top.imag), -slope,
                      out=top.imag)
    np.cos(arg, out=top.real)
    np.sin(arg, out=arg)
    arg += 0.0
    return _mirror_phase(out, h)


def _mirror_phase(out, h):
    """Write columns n/2+1..n-1 of the phase out as the conjugates of its
    columns n/2-1..1, and return out."""
    np.conjugate(out[:, h - 2:0:-1], out=out[:, h:])
    return out


def _phase(grid, slope, out):
    """shear_phase(grid, slope, out). In the thread's open solve memo the
    phase is built once per (grid, slope) and its top block kept, (n/2 +
    1) x (n/2 + 1), half the phase; later calls copy the block into out
    and mirror it, the same bytes."""
    memo = getattr(_scope, "memo", None)
    if memo is None:
        return shear_phase(grid, slope, out=out)
    h = grid.half_cols
    top = memo.phases.get((grid, slope))
    if top is None:
        shear_phase(grid, slope, out=out)
        memo.phases[grid, slope] = _kept(out[:, :h])
        return out
    out[:, :h] = top
    return _mirror_phase(out, h)


def band_exit(grid, slope, out=None):
    """Boolean mask of the half-layout modes (xi, eta) whose shear request
    slope xi + eta lies past the band: formed in out, a (float, bool)
    pair of arrays shaped like the half layout, the float one scratch
    (fresh if None). In the thread's open solve memo it is formed once
    per (grid, slope) and the kept read-only mask is returned."""
    memo = getattr(_scope, "memo", None)
    if memo is not None and (grid, slope) in memo.exits:
        return memo.exits[grid, slope]
    kx, ky = grid.wavegrid()
    shape = (grid.n, grid.half_cols)
    request, oob = (np.empty(shape), np.empty(shape, bool)) if out is None else out
    np.abs(np.add(slope * kx, ky, out=request), out=request)
    np.greater(request, grid.band, out=oob)
    if memo is not None:
        oob = memo.exits[grid, slope] = _kept(oob)
    return oob


def shear_spectrum(coeffs, grid, slope):
    """Evaluate the band-limited half spectrum at (xi_j, slope*xi_j + eta_k).

    A shear in the frequency plane is exactly a modulation in physical
    space, so the evaluation is trigonometrically exact: the mixed
    (axis-0 spectral, axis-1 physical) representation picks up the phase
    exp(-i slope xi_j y_q) (shear_phase) before transforming back. The
    shear mixes columns, so it runs on full rows: rows 0..n/2 of the full
    spectrum, 2 (n/2 + 1) complex transforms of length n. The field is
    real, so rows j and n - j of the mixed representation, and of the
    phase, are conjugate; the output's rows n/2+1..n-1 are the conjugate
    mirrors of rows n/2-1..1. Returns the evaluated array together with
    the boolean mask of lattice points whose request lies outside the
    resolvable band (those values are periodic wraps and should be
    discarded or vetted by the caller). A slope that is not a finite real
    raises DomainError, and coeffs not shaped as grid's half spectrum
    GridError.
    """
    if not math.isfinite(check_real(slope, "shear slope")):
        raise DomainError(f"shear slope must be finite, got {slope!r}")
    if np.shape(coeffs) != (grid.n, grid.half_cols):
        raise GridError(f"coeffs shape {np.shape(coeffs)} != "
                        f"({grid.n}, {grid.half_cols})")
    with arena_scope():
        return _shear(shear_rows(np.asarray(coeffs, dtype=complex), grid),
                      grid, slope)


def shear_rows(c, grid, i=0):
    """What a shear reads of the half spectrum c: rows 0..n/2 of its full
    spectrum, (n/2 + 1) x n, taken to the mixed (axis-0 spectral, axis-1
    physical) representation by one axis-1 inverse transform, on slab i
    (not 1); slab 1 is scratch. Their columns 0..n/2 are c's, and columns
    n/2+1..n-1 mirror c's columns n/2-1..1 by Hermitian symmetry; the
    self-mirrored columns 0 and n/2 take their Hermitian part, which is
    what irfft2 reads of them. They do not depend on the slope, so a flow
    of one spectrum by several maps forms them once (on a slab no other
    kernel takes)."""
    n, h = grid.n, grid.half_cols
    with arena_scope() as ws:
        (rows,), (mirror,) = ws.take(i, ((h, n), complex)), ws.take(1, ((h, h), complex))
        mirror[0] = c[0]                              # conj(c[-j, l])
        mirror[1:] = c[:n // 2 - 1:-1]
        np.conjugate(mirror, out=mirror)
        rows[:, :h] = c[:h]
        rows[:, h:] = mirror[:, h - 2:0:-1]
        for col in (0, n // 2):
            rows[:, col] = 0.5 * (c[:h, col] + mirror[:, col])
        return np.fft.ifft(rows, axis=1, norm="forward", out=rows)


def _shear(rows, grid, slope):
    """shear_spectrum of the spectrum whose shear_rows are rows, unchecked,
    on slabs 0-2: the phase on slab 1 (_phase), the phased rows on slab 0
    (rows may be slab 0, which is then overwritten), the evaluated array
    is slab 1 and the mask (band_exit) slab 2, or, in an open solve memo,
    the memo's read-only mask. The evaluated rows 0..n/2 are the phased
    rows' transforms, and rows n/2+1..n-1 the conjugate mirrors of rows
    n/2-1..1 (H[-j, -l] = conj(H[j, l]), indices mod n)."""
    n, h = grid.n, grid.half_cols
    shape = (n, h)
    with arena_scope() as ws:
        phase = _phase(grid, slope, ws.take(1, ((h, n), complex))[0])
        mixed, = ws.take(0, ((h, n), complex))
        np.multiply(rows, phase, out=mixed)
        np.fft.fft(mixed, axis=1, norm="forward", out=mixed)
        out, = ws.take(1, (shape, complex))
        out[:h] = mixed[:, :h]
        mirrored = mixed[h - 2:0:-1]                  # rows n/2-1..1
        np.conjugate(mirrored[:, :1], out=out[h:, :1])
        np.conjugate(mirrored[:, n - 1:n - h:-1], out=out[h:, 1:])
        return out, band_exit(grid, slope,
                              ws.take(2, (shape, float), (shape, bool)))


def scale_spectrum(v, grid, target, u11, u12, u22):
    """Target's half spectrum whose coefficient at each mode (xi_j, eta_k)
    of target is the spectrum of the real samples v on grid read at
    (u11*xi_j + u12*eta_k, u22*eta_k): the transform of v there, a sum
    over grid's own box, times (h / 2 L_target)^2, h grid's spacing.
    Trig-exact; requests outside grid's band read zero. With target =
    grid it is v's spectrum evaluated at the image of each of its modes.

    The map is upper triangular in (xi, eta), so affine_trig_sum runs on
    the transposed samples, where it is lower triangular, with target's
    n/2 + 1 half-layout columns as its row points. It runs on slabs 0-3;
    v may be slab 0, and the result is slab 1.
    """
    kx, ky = target.wavegrid()
    with arena_scope() as ws:
        out = affine_trig_sum(v.T, grid.x, ky[0], target.k, u22, u12, u11).T
        out /= (target.half_width / grid.half_width * grid.n) ** 2  # (2 L_target / h)^2
        out[1::2, ::2] *= -1.0      # back to the fft-array sign convention:
        out[::2, 1::2] *= -1.0      # (-1)^(j+k) at row j, column k
        request, oob = ws.take(0, (out.shape, float), (out.shape, bool))
        np.abs(np.add(u11 * kx, u12 * ky, out=request), out=request)
        out[np.greater(request, grid.band, out=oob)] = 0.0
    if abs(u22) * np.abs(target.k).max() > grid.band:
        out[:, np.abs(u22 * ky[0]) > grid.band] = 0.0
    return out


def characteristic_flow(c, grid, m, damping):
    """The half spectrum c read at the backward image (m11 xi + m12 eta,
    m21 xi + m22 eta) of each mode of the map m = ((m11, m12), (m21, m22)),
    m11 != 0, then multiplied by damping, a multiplier on the half layout;
    trig-exact on the band. It runs on slabs 0-3, and the result is slab
    1: flow_rows on c's shear_rows, formed on slab 0.
    """
    with arena_scope():
        return flow_rows(shear_rows(c, grid), grid, m, damping)


def flow_rows(rows, grid, m, damping):
    """characteristic_flow of the spectrum whose shear_rows are rows, on
    slabs 0-3 (rows may be slab 0, which is then overwritten); the result
    is slab 1.

    The read splits as m = [[1, 0], [m21/m11, 1]] U: shear_spectrum by
    m21/m11, zero the targets whose shear request leaves the band, then
    run scale_spectrum on the samples of the sheared spectrum by U =
    [[m11, m12], [0, det(m)/m11]] unless U is the identity, which it is
    exactly when m11 = m22 = 1 and m12 = 0.
    """
    (m11, m12), (m21, m22) = m
    with arena_scope() as ws:
        out, oob = _shear(rows, grid, m21 / m11)
        out[oob] = 0.0
        if (m11, m12, m22) != (1.0, 0.0, 1.0):
            v = _irfft2(out, grid, out, ws.take(0, ((grid.n, grid.n), float))[0])
            out = scale_spectrum(v, grid, grid, m11, m12,
                                 (m11 * m22 - m12 * m21) / m11)
    out *= damping
    return out


def sample_values(f, i=None):
    """f's samples, and the axis-0 inverse transform of its half spectrum
    when it was taken here, else None. A Field that holds only its half
    spectrum gets its samples by the axes irfft2 takes, bit for bit: the
    axis-0 inverse transform onto slab i, or into a new array if i is
    None, then the axis-1 inverse real transform into a new array that f
    keeps as its values (Field.keep_values), so that later readers, a
    snapshot among them, take no transform. The first stage is kept for
    derivative_pass to share (mixed0): on slab i until the slab is taken
    again, and a new array for as long as its reader needs it, on any
    thread."""
    if f.has_values:
        return f.values, None
    if i is None:
        mixed = np.empty(f.coeffs.shape, complex)
    else:
        with arena_scope() as ws:
            mixed, = ws.take(i, (f.coeffs.shape, complex))
    f.keep_values(_irfft2(f.coeffs, f.grid, mixed, None))
    return f.values, mixed


def _irfft2(c, grid, mixed, out):
    """irfft2(c, norm="forward") written into out (fresh if None), by the
    axes irfft2 takes them: the axis-0 inverse transform into mixed,
    shaped like c (c itself may be given), then the axis-1 inverse real
    one."""
    np.fft.ifft(c, axis=0, norm="forward", out=mixed)
    return np.fft.irfft(mixed, n=grid.n, axis=1, norm="forward", out=out)


def _fold(a, even, odd):
    """Write into even and odd the even and odd parts of the rows of a
    over the mirror j <-> n - j, on rows 0..n/2: row m is a[m] + a[n - m]
    and a[m] - a[n - m]; the self-mirrored rows 0 and n/2 enter both
    parts whole."""
    n = a.shape[0]
    np.copyto(even, a[:n // 2 + 1])
    np.copyto(odd, even)
    tail = a[:n // 2:-1]        # rows n-1..n/2+1, the mirrors of rows 1..n/2-1
    even[1:-1] += tail
    odd[1:-1] -= tail


def _check_lattice(v, what, uniform=False):
    """GridError unless v, of even length, is mirrored about index 0
    (v_{n-j} = -v_j for 0 < j < n/2) and, if uniform, evenly spaced on
    its first n/2 entries, each to a few ulps of max |v|."""
    v = np.asarray(v)
    n = len(v)
    if v.ndim != 1 or n < 2 or n % 2:
        raise GridError(f"{what} must be a lattice of even length, got shape {v.shape}")
    tol = 8 * np.finfo(float).eps * np.abs(v).max()
    if np.abs(v[1:n // 2] + v[:n // 2:-1]).max(initial=0.0) > tol:
        raise GridError(f"{what} is not mirrored about index 0")
    if uniform and np.abs(np.diff(v[:n // 2]) - (v[1] - v[0])).max(initial=0.0) > tol:
        raise GridError(f"{what} is not evenly spaced on its first n/2 entries")


def _blocks(n):
    """(block length, block count) of _trig_tables over the n/2 evenly
    spaced points of a lattice of n: the length a power of two near
    sqrt(n/2) that divides n/2."""
    m = n // 2
    b = math.gcd(m, 1 << (m.bit_length() - 1) // 2)
    return b, m // b


def _table_specs(n, npt):
    """The (shape, dtype) specs of _trig_tables' scratch for a lattice of
    n and npt row points: a product over the n/2 evenly spaced points,
    and the arguments, then cosines and sines, at the block starts and
    at the offsets within a block."""
    b, q = _blocks(n)
    return ((q, b, npt), float), ((2, q, 1, npt), float), ((2, 1, b, npt), float)


def _trig_tables(c, s, r, cos, sin, scratch):
    """Write cos(c s_j r_p) and sin(c s_j r_p) into cos[j, p] and sin[j, p]
    for j = 0..n/2 (cos and sin may be strided views), s a lattice of n
    evenly spaced on its first n/2 entries (_check_lattice); scratch holds
    arrays of the specs _table_specs(n, len(r)).

    By angle addition over blocks of B (_blocks): with j = B q + i,
    s_j = s_{Bq} + (s_i - s_0) + d_j, so the tables are products of the
    cosines and sines at the block starts and at the offsets within a
    block, 2 (n/(2B) + B) len(r) arguments in all instead of (n/2 + 1)
    len(r). d_j, zero on an exactly even lattice and a few ulps on any
    other, enters to first order, exp(i c r_p d_j) = 1 + i c r_p d_j,
    which is exact in double precision. The last entry s_{n/2} does not
    follow the spacing on grid.k (the self-mirrored Nyquist wavenumber)
    and is taken directly."""
    m = len(s) // 2
    b, q = _blocks(len(s))
    tmp, start, step = scratch
    np.multiply.outer(c * s[:m:b], r, out=start[0, :, 0])
    np.multiply.outer(c * (s[:b] - s[0]), r, out=step[0, 0])
    for arg in (start, step):
        np.sin(arg[0], out=arg[1])
        np.cos(arg[0], out=arg[0])
    c3, s3 = cos[:m].reshape(q, b, -1), sin[:m].reshape(q, b, -1)
    np.multiply(start[0], step[0], out=c3)
    c3 -= np.multiply(start[1], step[1], out=tmp)
    np.multiply(start[1], step[0], out=s3)
    s3 += np.multiply(start[0], step[1], out=tmp)
    blocks = s[:m].reshape(q, b)
    d = (blocks - blocks[:, :1]) - (s[:b] - s[0])
    if d.any():
        cr = c * r
        c3 -= np.multiply(np.multiply.outer(d, cr, out=tmp), s3, out=tmp)
        s3 += np.multiply(np.multiply.outer(d, cr, out=tmp), c3, out=tmp)
    np.multiply(c * s[m], r, out=cos[m])
    np.sin(cos[m], out=sin[m])
    np.cos(cos[m], out=cos[m])


def affine_trig_sum(a, s, rp, rq, m11, m21, m22):
    """Trigonometric sum of a lattice at a lower-triangular image of another.

    Returns out[p, q] = sum over j, k of a[j, k] exp(-i (s_j X + s_k Y))
    at (X, Y) = (m11 rp_p, m21 rp_p + m22 rq_q). The map is lower
    triangular, so the exponent separates into two dense 1-D stages
    (matrix products) with a phase in rp_p between them; exact. Over
    (positions, samples) it is the transform of the samples at the image
    points; scale_spectrum hands it the samples transposed, where its
    upper-triangular map is lower triangular, and a half spectrum needs
    only the rows rp of its n/2 + 1 columns.

    Precondition, checked (GridError): s, of length n with a n x n, and
    rq are even lattices mirrored about index 0 (s_{n-j} = -s_j, the
    entries 0 and n/2 alone), and s is evenly spaced on its first n/2
    entries, as grid.k is and grid.x is to an ulp; rp may be any points.
    The sums fold by the mirror symmetry: rows j and n - j of a, and
    columns k and n - k of the phased stage-1 output, enter as their sum
    times a cosine and their difference times a sine, and output column
    n - q is column q with the sine part's sign flipped. So each stage is
    two real matrix products over n/2 + 1 points. The cosine and sine
    tables of stage 1, the phase and stage 2 are built by angle addition
    along s (_trig_tables), at about 2 sqrt(n/2) arguments per row point
    instead of n/2 + 1. Cost: about 2 len(rp) n^2 real multiply-adds for
    a real a, 3 len(rp) n^2 for a complex one, on one path.

    Every array runs on slabs 0-3: the folds, the tables, both stages'
    products and the phase are formed in place, and the result is slab 1.
    a may be slab 0, which is overwritten once a is folded.
    """
    _check_lattice(s, "s", uniform=True)
    _check_lattice(rq, "rq")
    n, npt, nq = len(s), len(rp), len(rq)
    h, hq = n // 2 + 1, nq // 2 + 1
    phase = -1j
    with arena_scope() as ws:
        even, odd = ws.take(1, ((2, h, a.shape[1]), a.dtype))[0]      # [m, k]
        _fold(a, even, odd)
        cos, sin, *scratch = ws.take(0, ((h, npt), float), ((h, npt), float),
                                     *_table_specs(n, npt))
        _trig_tables(m11, s, rp, cos, sin, scratch)
        products = ws.take(2, ((2, npt, a.shape[1]), a.dtype))[0]
        np.matmul(cos.T, even.view(float), out=products[0].view(float))
        np.matmul(sin.T, odd.view(float), out=products[1].view(float))
        out, = ws.take(1, ((npt, n), complex))
        np.add(products[0], np.multiply(phase, products[1], out=out), out=out)  # [p, k]
        # the phase exp(-i m21 rp_p s_k) on column k, the conjugate of column
        # n - k's, then the fold over k
        ph, *scratch = ws.take(0, ((h, npt), complex), *_table_specs(n, npt))
        _trig_tables(-m21, s, rp, ph.real, ph.imag, scratch)         # [m, p]
        (even,), (odd,) = ws.take(2, ((h, npt), complex)), ws.take(3, ((h, npt), complex))
        cols, inner = out.T, odd[1:-1]
        np.multiply(cols[:h], ph, out=even)                   # column k, phased
        np.conjugate(cols[:n // 2:-1], out=inner)             # column n - k ...
        inner *= ph[1:-1]
        np.conjugate(inner, out=inner)                        # ... phased
        np.subtract(even[1:-1], inner, out=inner)             # odd part
        even[1:-1] *= 2.0
        even[1:-1] -= inner                                   # even part
        odd[0], odd[-1] = even[0], even[-1]
        out, = ws.take(1, ((nq, npt), complex))
        cos, sin, *scratch = ws.take(0, ((h, hq), float), ((h, hq), float),
                                     *_table_specs(n, hq))
        _trig_tables(m22, s, rq[:hq], cos, sin, scratch)
        plus = out[:hq]                                       # [q, p]
        np.matmul(cos.T, even.view(float), out=plus.view(float))
        minus, = ws.take(2, ((hq, npt), complex))
        np.matmul(sin.T, odd.view(float), out=minus.view(float))
        np.multiply(phase, minus, out=minus)
        np.subtract(plus[hq - 2:0:-1], minus[hq - 2:0:-1], out=out[hq:])
        plus += minus
        return out.T


def resampled(f, grid, u11, u12, u22):
    """The Field on grid whose coefficient at each mode kappa is f's
    transform at U kappa, U = [[u11, u12], [0, u22]] (scale_spectrum):
    f(U^-T X) / |det U| at the points X of grid, which keeps the mass.
    Trig-exact on f's band; the sum runs over f's own box, so no periodic
    copy of f is read. It reads f's samples, which a Field that holds
    them hands over without a transform."""
    return Field(grid, coeffs=scale_spectrum(f.values, f.grid, grid, u11, u12, u22))
