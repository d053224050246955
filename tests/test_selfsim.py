import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shearvortex import (
    BlowUpError,
    DomainError,
    Field,
    FrameCoefficients,
    GridError,
    ResolutionError,
    SelfSimilarState,
    Trajectory,
    amplitude,
    apply_generator,
    apply_limit_generator,
    apply_semigroup,
    evolve,
    green_kernel,
    inverse_laplacian,
    invert_frame_laplacian,
    lp_norm,
    make_grid,
    mass,
    nonlinear_term,
    phys_to_selfsim,
    rate_fit,
    record,
    selfsim_coords,
    selfsim_to_phys,
    transport,
)
from shearvortex import selfsim
from shearvortex.errors import TruncationError
from shearvortex.fokker_planck import eigenfunction, gaussian
from shearvortex.initial_data import make_field
from shearvortex.propagator import _duhamel_targets
from shearvortex.selfsim import sample_schedule
from shearvortex.spectral import derivative, spectrum_norm

from conftest import NON_REAL_POINTS, localized_field
from oracles import (COORD_X_1110, COORD_Y_1110, SQRT3,
                     drift_spectrum_nonconservative, frame_rhs_full,
                     full_spectrum, laplacian_symbol_full)


# ---------------------------------------------------------- coordinates

def test_coords_fix_origin():
    for t in (1.0, 2.0, 50.0):
        X, Y = selfsim_coords(t, 1.0, 0.0, 0.0)
        assert X == 0.0 and Y == 0.0


def test_coords_frozen_values():
    X, Y = selfsim_coords(1.0, 1.0, 1.0, 0.0)
    assert abs(X - COORD_X_1110) <= 1e-14
    assert abs(Y - COORD_Y_1110) <= 1e-14


def test_coords_jacobian_determinant():
    # the map is linear, so its matrix is read off the unit vectors
    for t in (1.0, 3.0, 20.0):
        X1, Y1 = selfsim_coords(t, 1.0, 1.0, 0.0)
        X2, Y2 = selfsim_coords(t, 1.0, 0.0, 1.0)
        det = X1 * Y2 - X2 * Y1
        want = 1.0 / (t * np.sqrt(1.0 + t * t / 12.0))
        assert det == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("point", NON_REAL_POINTS)
def test_coords_reject_non_real_points(point):
    for x, y in ((point, 0.0), (1.0, point)):
        with pytest.raises(DomainError):
            selfsim_coords(1.0, 1.0, x, y)


def test_coords_reject_nonpositive_time():
    with pytest.raises(DomainError):
        selfsim_coords(0.0, 1.0, 1.0, 1.0)


def test_amplitude_formula():
    assert amplitude(2.0, 0.5) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-14)


# --------------------------------------------------------- frame change

# the t=2 kernel has principal std ~3.4; the half-box tail gate needs
# about six of those inside L/2
@pytest.fixture(scope="module")
def wide_phys_grid():
    return make_grid(40.0, 512)


# round-trip pair for t=1: wrapped reads in either direction must land
# far from the field cores, and the frame box must hold the fixed
# Gaussian's half-box tail (needs half width 18 or more)
@pytest.fixture(scope="module")
def phys24():
    return make_grid(24.0, 256)


@pytest.fixture(scope="module")
def frame20():
    return make_grid(20.0, 256, "selfsim")


def kernel_field(grid, t):
    x, y = grid.meshgrid()
    return Field(grid, values=green_kernel(1.0, t, x, y))


def test_kernel_maps_to_fixed_gaussian(frame_grid, wide_phys_grid):
    # the spreading kernel collapses onto the fixed profile in the frame
    for t in (1.0, 2.0):
        state = phys_to_selfsim(kernel_field(wide_phys_grid, t), t, 1.0, frame_grid)
        diff = lp_norm(state.omega - gaussian(frame_grid), 2)
        assert diff <= 1e-9 * lp_norm(gaussian(frame_grid), 2)


def test_frame_change_preserves_mass(frame_grid, wide_phys_grid):
    f = kernel_field(wide_phys_grid, 2.0)
    state = phys_to_selfsim(f, 2.0, 1.0, frame_grid)
    assert abs(state.alpha - mass(f)) <= 1e-10 * abs(mass(f))


def test_frame_round_trip(phys24, frame20):
    f = kernel_field(phys24, 1.0)
    state = phys_to_selfsim(f, 1.0, 1.0, frame20)
    back = selfsim_to_phys(state, phys24)
    assert lp_norm(back - f, 2) <= 1e-10 * lp_norm(f, 2)


def test_gaussian_state_maps_to_kernel(phys24, frame20):
    state = SelfSimilarState(omega=gaussian(frame20), t=1.0, nu=1.0)
    phys = selfsim_to_phys(state, phys24)
    want = kernel_field(phys24, 1.0)
    assert lp_norm(phys - want, 2) <= 1e-9 * lp_norm(want, 2)


def test_inverse_map_reads_wide_targets_and_rejects_unfit_ones(wide_phys_grid):
    # the frame change reads the frame field's transform over its own box,
    # so a physical box wider than the frame box's image gets the kernel,
    # not periodic copies; a target box too small for the image, or a
    # lattice too coarse for it, is refused
    g = make_grid(20.0, 256, "selfsim")
    state = SelfSimilarState(omega=gaussian(g), t=2.0, nu=1.0)
    phys = selfsim_to_phys(state, wide_phys_grid)
    want = kernel_field(wide_phys_grid, 2.0)
    assert lp_norm(phys - want, 2) <= 1e-12 * lp_norm(want, 2)
    with pytest.raises(TruncationError) as small:       # box tail 0.60
        selfsim_to_phys(replace(state, t=5.0), make_grid(8.0, 128))
    assert small.value.tail > 0.5
    phys = make_field("gaussian", make_grid(20.0, 128))
    with pytest.raises(TruncationError) as coarse:     # spectral tail 5.9e-2
        phys_to_selfsim(phys, 3.0, 1.0, make_grid(20.0, 128, "selfsim"))
    assert coarse.value.tail > 5e-2


@pytest.mark.parametrize("t", [2.0, 3.0])
def test_catalog_gaussian_maps_to_its_closed_form_on_equal_boxes(t):
    # the frame image amplitude(t) f(A X) of the catalog Gaussian f, read
    # from a box of the frame box's size: resolved at n = 512, though the
    # frame box maps past the physical box
    phys_grid, frame = make_grid(20.0, 512), make_grid(20.0, 512, "selfsim")
    f = make_field("gaussian", phys_grid)
    state = phys_to_selfsim(f, t, 1.0, frame)
    a, c, b = selfsim._frame_map(t, 1.0)
    X, Y = frame.meshgrid()
    x, y = a * X, c * X + b * Y
    want = amplitude(t, 1.0) * np.exp(-(x * x + y * y) / 2.0) / (2.0 * np.pi)
    err = np.sqrt(np.sum((state.omega.values - want) ** 2) / np.sum(want ** 2))
    assert err <= 1e-12
    assert abs(state.alpha - mass(f)) <= 4 * np.finfo(float).eps


def test_frame_change_rejects_wide_field(frame_grid):
    g = make_grid(16.0, 256)
    x, y = g.meshgrid()
    wide = Field(g, values=np.exp(-(x ** 2 + y ** 2) / 80.0))
    with pytest.raises(TruncationError):
        phys_to_selfsim(wide, 1.0, 1.0, frame_grid)


@pytest.mark.parametrize("t, nu", [
    (-1.0, 1.0), (np.inf, 1.0), (np.nan, 1.0), (1j, 1.0), ("2", 1.0),
    (0.0, 1.0), (2.0, np.nan), (2.0, "1"), (2.0, -1.0), (2.0, np.inf)])
def test_frame_change_checks_time_and_viscosity_first(
        frame_grid, wide_phys_grid, monkeypatch, t, nu):
    # these used to run the dense resample first and end in a misleading
    # GridError (t = inf with 4 RuntimeWarnings) or a bare ValueError or
    # TypeError
    def fail(*args):
        raise AssertionError("resampled before t and nu were checked")

    monkeypatch.setattr(selfsim, "resampled", fail)
    f = kernel_field(wide_phys_grid, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            phys_to_selfsim(f, t, nu, frame_grid)


def test_state_validation(frame_grid):
    G = gaussian(frame_grid)
    with pytest.raises(DomainError):
        SelfSimilarState(omega=G, t=0.5, nu=1.0)
    with pytest.raises(DomainError):
        SelfSimilarState(omega=G, t=1.0, nu=-1.0)
    for t in ("1", 1j, np.nan):
        with pytest.raises(DomainError):
            SelfSimilarState(omega=G, t=t, nu=1.0)
    for alpha in ("1", 1j, np.inf):
        with pytest.raises(DomainError):
            SelfSimilarState(omega=G, t=1.0, nu=1.0, alpha=alpha)
    phys = Field(make_grid(16.0, 256), values=G.values)
    with pytest.raises(GridError):
        SelfSimilarState(omega=phys, t=1.0, nu=1.0)
    state = SelfSimilarState(omega=G, t=np.e, nu=1.0)
    assert state.alpha == pytest.approx(1.0, abs=1e-10)
    assert state.tau == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------- frame coefficients

def test_frame_coefficients_at_zero_time():
    co = FrameCoefficients.at_time(0.0)
    assert (co.diff1, co.mix, co.diff2) == (1.0, 0.0, 1.0)
    assert (co.dil1, co.dil2, co.rot) == (0.5, 0.5, 0.0)
    assert (co.const, co.nonlin) == (1.0, 1.0)
    for t in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            FrameCoefficients.at_time(t)


def test_frame_coefficients_limit_values():
    lim = FrameCoefficients.limit()
    assert (lim.diff1, lim.mix, lim.diff2) == (0.0, SQRT3, 4.0)
    assert (lim.dil1, lim.dil2, lim.rot) == (0.0, 2.0, 0.5 * SQRT3)
    assert (lim.const, lim.nonlin) == (2.0, 0.0)


def test_frame_coefficients_converge_to_limit():
    # regression bound: every coefficient within 10/t of its limit
    lim = FrameCoefficients.limit()
    names = ("diff1", "mix", "diff2", "dil1", "dil2", "rot", "const", "nonlin")
    for t in (10.0, 31.6, 100.0, 316.0, 1000.0):
        co = FrameCoefficients.at_time(t)
        for name in names:
            gap = abs(getattr(co, name) - getattr(lim, name))
            assert gap <= 10.0 / t, (name, t, gap)


# ----------------------------------------------------- frame laplacian

def test_frame_laplacian_inverse_at_zero_time(frame_grid):
    f = localized_field(frame_grid, seed=3)
    kx, ky = frame_grid.wavegrid()
    psi = invert_frame_laplacian(f, 0.0)
    k2 = kx ** 2 + ky ** 2
    k2[0, 0] = 1.0
    want = f.coeffs / -k2
    want[0, 0] = 0.0
    assert np.abs(psi.coeffs - want).max() <= 1e-13 * np.abs(want).max()


def test_frame_law_at_zero_time_is_the_plain_law(frame_grid):
    # the frame Laplacian at t = 0 is the plain one, to the last bit, so
    # both frames run one Biot-Savart law
    f = localized_field(frame_grid, seed=3)
    got = invert_frame_laplacian(f, 0.0).coeffs
    assert got.tobytes() == inverse_laplacian(f).coeffs.tobytes()
    nu = 0.7
    got = nonlinear_term(f, 0.0, nu).coeffs
    assert got.tobytes() == (transport(f, f) * -(1.0 / nu)).coeffs.tobytes()


def _frame_symbol(xi, eta, t):
    """The frame Laplacian's symbol, written out from the coefficients."""
    a = 1.0 + t * t / 3.0
    b = 1.0 + t * t / 12.0
    return -((xi - 0.5 * t * eta / np.sqrt(b)) ** 2 / a + a * eta ** 2 / b)


def test_frame_laplacian_single_mode():
    # reference: the symbol evaluated by hand at one lattice mode of the
    # half layout
    g = make_grid(16.0, 64, "selfsim")
    t = 2.0
    j, l = -3, 5
    xi = j * np.pi / 16.0
    eta = l * np.pi / 16.0
    coeffs = np.zeros((64, 33), complex)
    coeffs[j % 64, l] = 1.0
    sigma = _frame_symbol(xi, eta, t)
    out = invert_frame_laplacian(Field(g, coeffs=coeffs), t)
    assert out.coeffs[j % 64, l] == pytest.approx(1.0 / sigma, rel=1e-13)
    other = out.coeffs.copy()
    other[j % 64, l] = 0.0
    assert np.abs(other).max() == 0.0


def test_frame_laplacian_gauge_and_inverse(frame_grid):
    f = localized_field(frame_grid, seed=6)
    psi = invert_frame_laplacian(f, 3.0)
    assert abs(mass(psi)) == 0.0
    back = psi.coeffs * _frame_symbol(*frame_grid.wavegrid(), 3.0)
    want = f.coeffs.copy()
    want[0, 0] = 0.0
    assert np.abs(back - want).max() <= 1e-12 * np.abs(want).max()


# ------------------------------------------------------ frame generator

def test_gaussian_is_steady_for_generator(frame_grid):
    G = gaussian(frame_grid)
    scale = lp_norm(G, 2)
    for t in (1.0, 5.0, 100.0):
        assert lp_norm(apply_generator(G, t), 2) <= 1e-8 * scale


def test_generator_linearity(frame_grid):
    f = localized_field(frame_grid, seed=4)
    g = localized_field(frame_grid, seed=5)
    lhs = apply_generator(f * 2.0 + g * -1.5, 3.0)
    rhs = apply_generator(f, 3.0) * 2.0 + apply_generator(g, 3.0) * -1.5
    assert lp_norm(lhs - rhs, 2) <= 1e-12 * lp_norm(rhs, 2)


def test_generator_converges_to_limit_generator(frame_grid):
    # the gap closes at least like 1/t for fixed localized data
    f = localized_field(frame_grid, seed=7)
    lim = apply_limit_generator(f)
    series = []
    for t in np.geomspace(10.0, 1000.0, 6):
        gap = lp_norm(apply_generator(f, float(t)) - lim, 2)
        series.append((float(t), gap))
    slope, _ = rate_fit(series)
    assert slope <= -1.0


def test_limit_generator_annihilates_gaussian(frame_grid):
    G = gaussian(frame_grid)
    assert lp_norm(apply_limit_generator(G), 2) <= 1e-8 * lp_norm(G, 2)


@pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (1, 1)])
def test_limit_generator_eigenfunctions(frame_grid, a, b):
    psi = eigenfunction(a, b, frame_grid)
    lam = -(3.0 * a + b) / 2.0
    resid = lp_norm(apply_limit_generator(psi) - psi * lam, 2)
    assert resid <= 1e-8 * lp_norm(psi, 2)


def test_limit_generator_linearity(frame_grid):
    f = localized_field(frame_grid, seed=8)
    g = localized_field(frame_grid, seed=9)
    lhs = apply_limit_generator(f * 0.7 + g * 2.0)
    rhs = apply_limit_generator(f) * 0.7 + apply_limit_generator(g) * 2.0
    assert lp_norm(lhs - rhs, 2) <= 1e-12 * lp_norm(rhs, 2)


# ------------------------------------------------------- advection term

def test_nonlinear_term_zero(frame_grid):
    z = Field(frame_grid, values=np.zeros((256, 256)))
    assert np.abs(nonlinear_term(z, 2.0, 1.0).values).max() == 0.0


def test_nonlinear_term_quadratic_scaling(frame_grid):
    f = localized_field(frame_grid, seed=10)
    base = nonlinear_term(f, 2.0, 1.0)
    scaled = nonlinear_term(f * 3.0, 2.0, 1.0)
    assert lp_norm(scaled - base * 9.0, 2) <= 1e-12 * lp_norm(scaled, 2)


def test_nonlinear_term_mass_free(frame_grid):
    f = localized_field(frame_grid, seed=11)
    out = nonlinear_term(f, 1.5, 1.0)
    assert abs(mass(out)) <= 1e-12 * lp_norm(out, 1)


def test_nonlinear_term_matches_pointwise_quadrature():
    # reference: same expression assembled pointwise in physical space.
    # the input spectrum is confined to the inner third of the band, so
    # the dealiased pipeline and the plain pointwise products agree.
    g = make_grid(16.0, 64, "selfsim")
    rng = np.random.default_rng(12)
    coeffs = np.zeros((64, 64), complex)
    band = 8
    block = rng.standard_normal((2 * band + 1, 2 * band + 1)) \
        + 1j * rng.standard_normal((2 * band + 1, 2 * band + 1))
    for dj in range(-band, band + 1):
        for dl in range(-band, band + 1):
            coeffs[dj % 64, dl % 64] = block[dj + band, dl + band]
    coeffs[0, 0] = 0.0
    # hermitian symmetrization keeps the field real
    sym = (coeffs + np.conj(np.flip(np.roll(np.roll(coeffs, -1, 0), -1, 1),
                                    (0, 1)))) / 2.0
    f = Field(g, values=(np.fft.ifft2(sym) * 64 ** 2).real)
    t, nu = 2.0, 0.7
    got = nonlinear_term(f, t, nu)
    psi = invert_frame_laplacian(f, t)
    jac = (derivative(psi, 0, 1).values * derivative(f, 1, 0).values
           - derivative(psi, 1, 0).values * derivative(f, 0, 1).values)
    want = jac / (nu * (1.0 + t * t / 12.0))
    assert np.abs(got.values - want).max() <= 1e-10 * np.abs(want).max()


# --------------------------------------------------------------- evolve

def evolve_sampled(state, t_end, samples_per_decade=16, **kwargs):
    """The states at sample_schedule's times from state.t to t_end, each
    evolved from the one before, as a sampled run steps them."""
    states = [state]
    for tau in sample_schedule(state.t, t_end, samples_per_decade)[1:]:
        states.append(evolve(states[-1], float(np.exp(tau)), **kwargs))
    return states


def test_evolve_requires_forward_time(frame_grid):
    state = SelfSimilarState(omega=gaussian(frame_grid), t=2.0, nu=1.0)
    for t_end in (1.0, np.nan, np.inf, "2", 2j):
        with pytest.raises(DomainError):
            evolve(state, t_end)


def test_evolve_to_the_state_time_returns_the_state(frame_grid):
    state = SelfSimilarState(omega=gaussian(frame_grid), t=2.0, nu=1.0)
    assert evolve(state, state.t) is state


def test_evolve_gaussian_fixed_point_short():
    g = make_grid(16.0, 128, "selfsim")
    G = gaussian(g)
    state = SelfSimilarState(omega=G, t=1.0, nu=1.0)
    states = evolve_sampled(state, 3.0, nonlinear=False)
    final, records = states[-1], [record(s) for s in states]
    assert lp_norm(final.omega - G, 2) <= 1e-8 * lp_norm(G, 2)
    assert final.t == pytest.approx(3.0, rel=1e-12)
    # records carry consistent clocks and nonnegative norms
    for r in records:
        assert r.t == pytest.approx(np.exp(r.tau), rel=1e-12)
        assert all(v >= 0.0 for v in r.lp_norms.values())
    assert records[0].t == pytest.approx(1.0)
    assert records[-1].t == pytest.approx(3.0, rel=1e-12)


def test_evolve_conserves_mass_nonlinear():
    g = make_grid(16.0, 128, "selfsim")
    f = make_field("gaussian", g, params={"amplitude": 1.0, "center": (1.0, -0.5)})
    f = f + make_field("dipole", g, params={"strength": 0.6})
    state = SelfSimilarState(omega=f, t=1.0, nu=1.0)
    final = evolve_sampled(state, 2.0, nonlinear=True)[-1]
    assert abs(mass(final.omega) - mass(f)) <= 1e-10 * abs(mass(f))
    assert final.alpha == state.alpha


def test_evolve_mass_drift_bounded_for_rough_data():
    # Broadband data near the resolution limit: the drift terms are a
    # divergence, so band-edge content in the coordinate-weighted
    # products cannot reach the zero mode (measured 2.2e-16).  The loose
    # envelope still catches a real conservation bug, which shows up
    # orders of magnitude above it.
    g = make_grid(16.0, 128, "selfsim")
    f = localized_field(g, seed=13)
    state = SelfSimilarState(omega=f, t=1.0, nu=1.0)
    final = evolve_sampled(state, 2.0, nonlinear=True)[-1]
    assert abs(mass(final.omega) - mass(f)) <= 1e-7 * max(abs(mass(f)), 1e-12)


def test_evolve_linear_run_keeps_mass_at_the_band_edge():
    # an eigenfunction whose spectrum reaches the band edge (tail ~3e-8,
    # under the monitor's bound) on a coarse grid: the drift terms are a
    # divergence, so no aliasing of their products reaches the mass
    # (the non-conservative form drifted 2.3e-7 of the L1 norm here)
    g = make_grid(20.0, 64, "selfsim")
    f = eigenfunction(0, 1, g)
    state = SelfSimilarState(omega=f, t=2.0, nu=1.0)
    final = evolve_sampled(state, 7.0, nonlinear=False)[-1]
    assert abs(mass(final.omega) - mass(f)) <= 1e-14 * lp_norm(f, 1)


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0, 30.0, 1000.0, None])
def test_drift_kernel_matches_the_nonconservative_form(frame_grid, t):
    co = FrameCoefficients.limit() if t is None else FrameCoefficients.at_time(t)
    c = localized_field(frame_grid, seed=19).coeffs
    got = selfsim._drift_spectrum(c, co, frame_grid)
    want = drift_spectrum_nonconservative(c, co, frame_grid)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert got[0, 0] == 0.0


def _zero_padded(f, n2):
    """f's spectrum on the same box with n2 points per axis; f's Nyquist
    row and column, which have no unique mirror, are dropped."""
    n = f.grid.n
    src = np.r_[0:n // 2, n // 2 + 1:n]
    dst = np.r_[0:n // 2, n2 - n // 2 + 1:n2]
    cols = np.r_[0:n // 2]
    c = np.zeros((n2, n2 // 2 + 1), dtype=complex)
    c[np.ix_(dst, cols)] = f.coeffs[np.ix_(src, cols)]
    return Field(make_grid(f.grid.half_width, n2, f.grid.frame), coeffs=c)


def test_conservative_drift_is_no_farther_from_the_refined_run(monkeypatch):
    # the sim benchmark's datum on its grid, the smallest on which it
    # passes the resolution monitors (at n = 64 its frame spectrum's tail
    # is 8.7e-3, past the monitors' 1e-6), evolved with the conservative
    # drift and with the non-conservative form, against the same state
    # zero-padded to 2n (measured: 1.4e-8 and 3.4e-8 relative L2; the
    # step error is far below either)
    phys = make_field("random_localized", make_grid(16.0, 128), 0,
                      params={"amplitude": 0.2})
    state = phys_to_selfsim(phys, 1.0, 1.0, make_grid(16.0, 128, "selfsim"))

    def final(s):
        return evolve_sampled(s, 1.25, dtau=3.5e-3)[-1].omega.values

    fine = SelfSimilarState(omega=_zero_padded(state.omega, 256), t=1.0, nu=1.0)
    ref = final(fine)[::2, ::2]
    new = np.linalg.norm(final(state) - ref)
    conservative = selfsim._drift_spectrum

    def nonconservative(c, co, grid, symbol):
        # the transport rides in the drift's transforms, which may
        # overwrite c: the oracle reads c first
        drift = drift_spectrum_nonconservative(c, co, grid)
        conservative(c, co, grid, symbol)
        return drift

    monkeypatch.setattr(selfsim, "_drift_spectrum", nonconservative)
    old = np.linalg.norm(final(state) - ref)
    assert new <= old


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 3.0, 30.0, 1000.0, 1e8, None])
def test_frame_constant_is_the_drift_divergence(t):
    co = FrameCoefficients.limit() if t is None else FrameCoefficients.at_time(t)
    div = co.dil1 * (1.0 + co.mix ** 2) + co.dil2
    assert div == pytest.approx(co.const, rel=1e-15, abs=0.0)


def test_evolve_third_order_in_step_size():
    g = make_grid(16.0, 128, "selfsim")
    f = localized_field(g, seed=14)
    state = SelfSimilarState(omega=f, t=1.0, nu=1.0)
    t_end = float(np.exp(0.2))

    def final_coeffs(dtau):
        final = evolve_sampled(state, t_end, samples_per_decade=4,
                               dtau=dtau, nonlinear=False)[-1]
        return final.omega.coeffs

    ref = final_coeffs(2.5e-4)
    steps = (4e-3, 2e-3, 1e-3)
    errs = [float(np.linalg.norm(final_coeffs(dtau) - ref)) for dtau in steps]
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert order >= 2.7


def test_evolve_blowup_detector_reports_last_state(monkeypatch):
    g = make_grid(16.0, 128, "selfsim")
    f = localized_field(g, seed=15)
    state = SelfSimilarState(omega=f, t=1.0, nu=1.0)
    monkeypatch.setattr(selfsim, "GROWTH_FACTOR", 0.5)
    monkeypatch.setattr(selfsim, "MAX_HALVINGS", 1)
    with pytest.raises(BlowUpError) as info:
        evolve(state, 2.0, dtau=2e-3, nonlinear=False)
    assert info.value.last_state is not None
    assert info.value.last_state.t == pytest.approx(1.0)


def test_evolve_step_size_guard(frame_grid):
    state = SelfSimilarState(omega=gaussian(frame_grid), t=1.0, nu=1.0)
    with pytest.raises(ResolutionError):
        evolve(state, 2.0, dtau=1.0, nonlinear=False)


def test_evolve_caps_its_steps_before_any_work(frame_grid, monkeypatch):
    def refuse(*args):
        raise AssertionError("evolve started stepping")

    monkeypatch.setattr(selfsim, "_frame_rhs", refuse)
    state = SelfSimilarState(omega=gaussian(frame_grid), t=1.0, nu=1.0)
    for dtau in (1e-12, 0.999 * np.log(2.0) / selfsim.MAX_STEPS):
        with pytest.raises(DomainError):
            evolve(state, 2.0, dtau=dtau)


def test_evolve_tail_monitor_actions():
    g = make_grid(16.0, 64, "selfsim")
    f = localized_field(g, seed=16, corr=0.5)   # under-resolved on purpose
    state = SelfSimilarState(omega=f, t=1.0, nu=1.0)
    with pytest.raises(ResolutionError):
        evolve(state, 1.1, on_tail="error", nonlinear=False)
    with pytest.warns(RuntimeWarning):
        evolve(state, 1.1, on_tail="warn", nonlinear=False)
    final = evolve(state, 1.1, on_tail="ignore", nonlinear=False)
    assert final.t == pytest.approx(1.1, rel=1e-12)


@pytest.mark.parametrize("nonlinear", [False, True])
@pytest.mark.parametrize("t", [1.0, 3.0, 30.0])
def test_half_spectrum_rhs_matches_full_layout_oracle(frame_grid, t, nonlinear):
    # the step's right-hand side on real transforms of the half spectrum,
    # against the full-spectrum, Field-based one; sym_mid is taken at a
    # later time so the frozen-symbol correction is not zero
    f = localized_field(frame_grid, seed=17)
    nu = 0.5
    co_mid = FrameCoefficients.at_time(1.1 * t)
    sym_mid = selfsim._laplacian_symbol(frame_grid, co_mid)
    got = full_spectrum(selfsim._frame_rhs(
        f.coeffs, FrameCoefficients.at_time(t), frame_grid, sym_mid,
        nu if nonlinear else None))
    want = frame_rhs_full(f, t, laplacian_symbol_full(frame_grid, co_mid), nu,
                          nonlinear)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_evolve_step_uses_only_real_transforms(monkeypatch):
    # one step with no monitor call: three RHS evaluations of 15 one-axis
    # passes in six calls. The transport's four factors go through one
    # stacked axis-0 inverse transform of the n x (n/3 + 1) block of
    # columns the 2/3 rule keeps, then c's axis-0 inverse transform; one
    # stacked axis-1 inverse real transform of those five mixed arrays;
    # one stacked axis-1 forward real transform of Y f and the transport
    # product; the axis-0 forward transform of the product's kept block;
    # one stacked axis-0 forward transform of the two drift fluxes. No
    # complex transform runs on an n x n array
    g = make_grid(16.0, 64, "selfsim")
    n, m, h = g.n, g.n // 3 + 1, g.half_cols
    # a state held as coefficients, so no transform of the input is counted
    f = localized_field(g, seed=18)
    state = SelfSimilarState(omega=Field(g, coeffs=f.coeffs), t=1.0, nu=1.0)
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, kwargs.get("axis"), np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    monkeypatch.setattr(selfsim, "_tail_monitor", lambda *args: None)
    dtau = 2e-3
    final = evolve(state, float(np.exp(dtau)), dtau)
    rhs = [("ifft", -2, (4, n, m)), ("ifft", -2, (n, h)),
           ("irfft", -1, (5, n, h)), ("rfft", -1, (2, n, n)),
           ("fft", -2, (n, m)), ("fft", -2, (2, n, h))]
    assert calls == rhs * 3
    assert all(shape[-2:] != (n, n) for name, _, shape in calls
               if name in ("fft", "ifft"))
    assert final.t == pytest.approx(np.exp(dtau), rel=1e-15)
    # the final state is a real field: its full spectrum is exactly Hermitian
    c = full_spectrum(final.omega.coeffs)
    mirror = np.roll(np.roll(c[::-1, ::-1], 1, axis=0), 1, axis=1)
    assert np.array_equal(c, mirror.conj())
    # the growth test's norm is the full spectrum's l2 norm
    assert spectrum_norm(final.omega.coeffs) == pytest.approx(
        np.linalg.norm(c), rel=1e-14)


def test_workspaces_do_not_outlive_their_calls():
    # evolve steps in arrays it allocates per call, and the Duhamel march
    # reuses one node buffer within a call: a later call, on the same
    # state or another grid, neither sees nor changes an earlier result
    g = make_grid(16.0, 128, "selfsim")
    small = make_grid(16.0, 64, "selfsim")
    state = SelfSimilarState(omega=localized_field(g, seed=14), t=1.0, nu=1.0)
    t_end = float(np.exp(0.01))
    first = evolve(state, t_end, 2e-3)
    held = first.omega.coeffs.copy()
    evolve(SelfSimilarState(omega=gaussian(small) * 3.0, t=1.0, nu=1.0),
           t_end, 2e-3)
    second = evolve(state, t_end, 2e-3)
    assert np.array_equal(second.omega.coeffs, held)
    assert np.array_equal(first.omega.coeffs, held)
    f = make_field("gaussian", make_grid(16.0, 64), params={"amplitude": 0.01})
    times = (1.0, 1.25, 1.5)
    traj = Trajectory(times=times, nu=1.0, fields=tuple(
        apply_semigroup(f, 1.0, t - times[0]) for t in times))
    once = _duhamel_targets(traj, traj, times)
    again = _duhamel_targets(traj, traj, times)
    assert np.abs(once[-1].coeffs).max() > 0.0
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(once, again))


def test_evolve_workspace_is_no_larger_than_the_temporaries_it_replaced():
    # four nonlinear steps at n = 128: the per-call workspace and what is
    # still made per stage peak, above the input, no higher than the
    # per-stage temporaries did before the workspace (2390832 bytes,
    # tracemalloc, the same call). 26 steps pass the in-call tail monitor
    # too, which reads in the workspace's arrays (its own Field copy and
    # transforms had raised the peak to 2482576 bytes)
    g = make_grid(16.0, 128, "selfsim")
    state = SelfSimilarState(omega=Field(g, coeffs=localized_field(g, seed=14).coeffs),
                             t=1.0, nu=1.0)
    for steps in (4, 26):
        t_end = float(np.exp(steps * 2e-3))
        evolve(state, t_end, 2e-3)  # builds the grid's lazily kept arrays
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evolve(state, t_end, 2e-3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2390832, (steps, peak)


def test_step_control_validation(frame_grid):
    # evolve's step size and tail action, and the sample cadence and
    # window of sample_schedule
    state = SelfSimilarState(omega=gaussian(frame_grid), t=1.0, nu=1.0)
    for dtau in (0.0, np.nan, np.inf, "0.1", 0.1j):
        with pytest.raises(DomainError):
            evolve(state, 2.0, dtau=dtau)
    with pytest.raises(DomainError):
        evolve(state, 2.0, on_tail="explode")
    for spd in (3, "16", 16.5, np.nan, -1):
        with pytest.raises(DomainError):
            sample_schedule(1.0, 10.0, spd)
    for t_init, t_end in ((0.0, 10.0), (-1.0, 10.0), (np.nan, 10.0),
                          (np.inf, np.inf), ("1", 10.0), (1.0, np.nan),
                          (1.0, np.inf), (2.0, 1.0), (1.0, "10")):
        with pytest.raises(DomainError):
            sample_schedule(t_init, t_end, 16)
    assert sample_schedule(2.0, 2.0, 4) == [pytest.approx(np.log(2.0))]
