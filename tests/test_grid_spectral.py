import ast
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from shearvortex import (
    Field,
    GridError,
    DomainError,
    UnsupportedOrderError,
    biot_savart,
    derivative,
    lp_norm,
    make_grid,
    mass,
    transport,
    weighted_inner,
    weighted_norm,
)
from shearvortex.fokker_planck import _scale_stage, char_map, gaussian
from shearvortex.selfsim import FrameCoefficients, _frame_map, _laplacian_symbol
from shearvortex.spectral import MAX_DERIVATIVE_ORDER, affine_trig_sum, dealias_mask

from conftest import localized_field
from oracles import (GAUSSIAN_L2, SPEED_G_AT_R2, advection_divergence,
                     trig_sum_direct)


# ---------------------------------------------------------------- grids

def test_grid_spacing_and_band():
    g = make_grid(16.0, 8)
    assert g.spacing == 4.0
    assert np.isclose(g.k.max(), 3.0 * np.pi / 16.0, rtol=1e-15)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(GridError):
        make_grid(16.0, 7)


def test_grid_rejects_bad_half_width():
    with pytest.raises(GridError):
        make_grid(-1.0, 64)
    with pytest.raises(GridError):
        make_grid(np.inf, 64)
    # spacing or wavenumbers that overflow or underflow a double
    for half_width in (5e-324, 1e-310, 1.7e308, np.nan):
        with pytest.raises(GridError):
            make_grid(half_width, 8)


def test_grid_integer_wavenumbers_at_half_width_pi():
    g = make_grid(np.pi, 16)
    assert np.allclose(np.sort(g.k), np.arange(-8, 8), atol=1e-14)


def test_grid_rejects_unknown_frame():
    with pytest.raises(GridError):
        make_grid(16.0, 64, "rotating")


# ------------------------------------------------------------ grid plan

SRC = Path(__file__).resolve().parents[1] / "src" / "shearvortex"


def _calls_outside(home, names):
    """Calls of the named functions in src/shearvortex outside home."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in names:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    return calls


def test_only_the_grid_builds_wavenumbers_and_meshes():
    calls = _calls_outside("grid.py", ("fftfreq", "meshgrid"))
    assert not calls, calls


def test_only_spectral_divides_by_a_laplacian_symbol():
    # the symbol division needs np.errstate for the zero mode; one
    # inverse_laplacian serves the physical and the frame Laplacian
    calls = _calls_outside("spectral.py", ("errstate",))
    assert not calls, calls


def test_propagator_leaves_shears_and_transforms_to_spectral():
    # the propagator reads shear phases from its lag plan, which builds
    # them with spectral.shear_phase: no np.fft reference, and no exp of
    # an imaginary argument, in propagator.py
    found = []
    tree = ast.parse((SRC / "propagator.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            found.append(f"{node.lineno} fft")
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "exp"
                and any(isinstance(c, ast.Constant)
                        and isinstance(c.value, complex)
                        for c in ast.walk(node))):
            found.append(f"{node.lineno} exp")
    assert not found, found


def _plan_by_formula(L, n):
    """Each grid-only array by its formula, built from np.meshgrid and
    np.fft.fftfreq the way the operations that use it once built it."""
    x = -L + (2.0 * L / n) * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    j = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    keep = j <= n / 3.0
    s = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    plan = {
        "x": x, "k": k, "mode_index": j,
        "keep": keep[:, None] & keep[None, :],
        "outer_band": (j[:, None] >= (7.0 / 16.0) * n)
        | (j[None, :] >= (7.0 / 16.0) * n),
        "outside_half_box": (np.abs(x1) > 0.5 * L) | (np.abs(x2) > 0.5 * L),
        "signs": np.outer(s, s),
        "laplacian": -(k1 ** 2 + k2 ** 2),
        "bracket_sq": 1.0 + x1 ** 2 + x2 ** 2,
        "gaussian_values": np.exp(-(x1 ** 2 + x2 ** 2) / 4.0) / (4.0 * np.pi),
    }
    for order in range(MAX_DERIVATIVE_ORDER + 1):
        kc = k.astype(np.complex128)
        if order % 2 == 1:
            kc = kc.copy()
            kc[n // 2] = 0.0
        plan[order] = (1j * kc) ** order
    return plan


def test_plan_arrays_are_kept_read_only_and_exact():
    # a spacing that is not a dyadic rational, so any change in the order
    # of operations would show in the last bits
    L, n = 16.3, 64
    grid = make_grid(L, n)

    def read(name):
        return grid.multipliers[name] if isinstance(name, int) else getattr(grid, name)

    for name, want in _plan_by_formula(L, n).items():
        got = read(name)
        assert read(name) is got, name
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError):
            got[(0,) * got.ndim] = got[(0,) * got.ndim]
    assert grid.band == grid.k_max * (1.0 + 1e-12)
    assert dealias_mask(grid) is grid.keep
    assert np.array_equal(gaussian(grid).values, grid.gaussian_values)
    # the plan takes no part in comparing or hashing grids
    fresh = make_grid(L, n)
    assert fresh == grid and hash(fresh) == hash(grid)


# ----------------------------------------------------------- transforms

def test_constant_field_spectrum(small_grid):
    f = Field(small_grid, values=np.full((64, 64), 2.5))
    c = f.coeffs
    assert np.isclose(c[0, 0].real, 2.5, rtol=1e-14)
    off = c.copy()
    off[0, 0] = 0.0
    assert np.abs(off).max() < 1e-13


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_transform_round_trip(seed):
    g = make_grid(16.0, 64)
    vals = np.random.default_rng(seed).standard_normal((64, 64))
    f = Field(g, values=vals)
    back = Field(g, coeffs=f.coeffs)
    assert not back.has_values
    assert np.abs(back.values - vals).max() <= 1e-12 * np.abs(vals).max()


def test_single_cosine_two_coefficients(phys_grid):
    x, _ = phys_grid.meshgrid()
    k = 3.0 * np.pi / phys_grid.half_width
    f = Field(phys_grid, values=np.cos(k * x))
    c = f.coeffs
    big = np.abs(c) > 1e-12
    assert big.sum() == 2
    assert np.allclose(np.abs(c[big]), 0.5, rtol=1e-12)


def test_field_scales_by_real_numbers_only(small_grid):
    f = localized_field(small_grid, seed=2)
    want = f.values * 2.0
    for c in (2, 2.0, np.float64(2.0), np.int64(2)):
        assert np.array_equal((f * c).values, want)
        assert np.array_equal((c * f).values, want)
    for c in ("2", 1j, np.complex128(1.0), None, [2.0]):
        assert Field.__mul__(f, c) is NotImplemented, c
    with pytest.raises(TypeError):
        f * "2"
    with pytest.raises(TypeError):
        f * 1j


# ---------------------------------------------------------- derivatives

def test_derivative_of_constant_vanishes(small_grid):
    f = Field(small_grid, values=np.ones((64, 64)))
    assert np.abs(derivative(f, 1, 0).values).max() < 1e-14


def test_derivative_single_mode_exact(phys_grid):
    x, _ = phys_grid.meshgrid()
    k = 5.0 * np.pi / phys_grid.half_width
    f = Field(phys_grid, values=np.sin(k * x))
    d = derivative(f, 1, 0).values
    assert np.abs(d - k * np.cos(k * x)).max() <= 1e-12 * k


def test_mixed_derivative_product_rule(phys_grid):
    # reference: symbolic differentiation of the same product of modes
    X, Y = sympy.symbols("X Y")
    k1 = 3 * sympy.pi / 16
    k2 = 5 * sympy.pi / 16
    expr = sympy.sin(k1 * X) * sympy.cos(k2 * Y)
    target = sympy.lambdify((X, Y), sympy.diff(expr, X, Y), "numpy")
    source = sympy.lambdify((X, Y), expr, "numpy")
    x, y = phys_grid.meshgrid()
    f = Field(phys_grid, values=source(x, y))
    got = derivative(f, 1, 1).values
    want = target(x, y)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_derivative_order_cap():
    g = make_grid(16.0, 64)
    f = Field(g, values=np.ones((64, 64)))
    with pytest.raises(UnsupportedOrderError):
        derivative(f, 3, 2)
    with pytest.raises(UnsupportedOrderError):
        derivative(f, -1, 0)
    for a, b in ((1.5, 0), (0, 0.5), (np.nan, 0), (1, np.inf), ("2", 1)):
        with pytest.raises(DomainError):
            derivative(f, a, b)
    # integral floats and numpy integers stay accepted
    want = derivative(f, 1, 2).coeffs
    assert np.array_equal(derivative(f, 1.0, np.int64(2)).coeffs, want)


# ---------------------------------------------------------- biot-savart

def test_biot_savart_zero(small_grid):
    z = Field(small_grid, values=np.zeros((64, 64)))
    u1, u2 = biot_savart(z)
    assert np.abs(u1.values).max() == 0.0
    assert np.abs(u2.values).max() == 0.0


def test_biot_savart_circulation_speed():
    # reference: circulation law |u|(r) = (1 - e^{-r^2/4})/(2 pi r) for the
    # radial Gaussian. The periodic images shift the speed by O(1/L^2), so
    # extrapolate two box sizes at fixed spacing to the open-plane value.
    speeds = []
    for L, n in ((16.0, 256), (32.0, 512)):
        g = make_grid(L, n, "selfsim")
        u1, u2 = biot_savart(gaussian(g))
        i = int(round((2.0 + L) / g.spacing))
        j = int(round(L / g.spacing))
        # at (2, 0) the flow is purely azimuthal, i.e. along the second axis
        assert abs(float(u1.values[i, j])) < 1e-15
        speeds.append(float(u2.values[i, j]))
    extrapolated = (4.0 * speeds[1] - speeds[0]) / 3.0
    assert abs(extrapolated - SPEED_G_AT_R2) <= 1e-4 * SPEED_G_AT_R2
    # single-box value carries the documented image correction only
    assert abs(speeds[0] - SPEED_G_AT_R2) <= 2.5e-2 * SPEED_G_AT_R2


def test_biot_savart_divergence_free_and_curl(frame_grid):
    f = localized_field(frame_grid, seed=7)
    u1, u2 = biot_savart(f)
    div = derivative(u1, 1, 0) + derivative(u2, 0, 1)
    assert np.abs(div.coeffs).max() <= 1e-13 * np.abs(f.coeffs).max()
    curl = derivative(u2, 1, 0) - derivative(u1, 0, 1)
    want = f.coeffs.copy()
    want[0, 0] = 0.0
    assert np.abs(curl.coeffs - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("t", [None, 3.0])
def test_transport_matches_conservative_form(frame_grid, t):
    # u . grad(w) against div(u w), for the plain Laplacian (None) and the
    # frame Laplacian at t = 3, with omega and w different fields
    symbol = None if t is None else _laplacian_symbol(
        frame_grid, FrameCoefficients.at_time(t))
    omega = localized_field(frame_grid, seed=8)
    w = localized_field(frame_grid, seed=9)
    got = transport(omega, w, symbol).coeffs
    want = advection_divergence(omega, w, symbol).coeffs
    assert np.abs(want).max() > 0.0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------- norms

def test_lp_norm_zero_field(small_grid):
    z = Field(small_grid, values=np.zeros((64, 64)))
    for p in (1.0, 4.0 / 3.0, 2.0, np.inf):
        assert lp_norm(z, p) == 0.0


def test_gaussian_l1_is_unit_mass(frame_grid):
    assert abs(lp_norm(gaussian(frame_grid), 1) - 1.0) <= 1e-10


def test_gaussian_l2_closed_form(frame_grid):
    assert abs(lp_norm(gaussian(frame_grid), 2) - GAUSSIAN_L2) <= 1e-12


def test_lp_norm_rejects_small_p(small_grid):
    f = Field(small_grid, values=np.ones((64, 64)))
    with pytest.raises(DomainError):
        lp_norm(f, 0.5)


def test_weighted_norm_zero_and_unweighted(frame_grid):
    z = Field(frame_grid, values=np.zeros((256, 256)))
    assert weighted_norm(z, 3.0) == 0.0
    G = gaussian(frame_grid)
    assert abs(weighted_norm(G, 0.0) - GAUSSIAN_L2) <= 1e-12


def test_weighted_norm_monotone_in_m(frame_grid):
    f = localized_field(frame_grid, seed=3)
    values = [weighted_norm(f, m) for m in (0.0, 1.0, 2.0, 3.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


@settings(max_examples=20, deadline=None)
@given(st.floats(-50.0, 50.0).filter(lambda c: abs(c) > 1e-6))
def test_weighted_norm_homogeneous(c):
    g = make_grid(16.0, 64, "selfsim")
    f = localized_field(g, seed=11)
    lhs = weighted_norm(f * c, 2.0)
    rhs = abs(c) * weighted_norm(f, 2.0)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_weighted_norm_order_cap(small_grid):
    f = Field(small_grid, values=np.ones((64, 64)))
    with pytest.raises(UnsupportedOrderError):
        weighted_norm(f, 2.0, 2, 2)
    for a, b in ((1.5, 0), (0, 0.5), ("x", 0), (None, 1)):
        with pytest.raises(DomainError):
            weighted_norm(f, 2.0, a, b)


@pytest.mark.parametrize("m", [-1.0, 12.5, np.nan, np.inf])
def test_weight_exponent_range(small_grid, m):
    f = Field(small_grid, values=np.ones((64, 64)))
    with pytest.raises(DomainError):
        weighted_norm(f, m)
    with pytest.raises(DomainError):
        weighted_inner(f, f, m)


def test_weighted_inner_matches_norm(frame_grid):
    f = localized_field(frame_grid, seed=5)
    ip = weighted_inner(f, f, 2.0)
    assert abs(ip - weighted_norm(f, 2.0) ** 2) <= 1e-12 * ip


# ----------------------------------------------------------------- mass

def test_mass_of_gaussian(frame_grid):
    assert abs(mass(gaussian(frame_grid)) - 1.0) <= 1e-10


def test_mass_of_derivative_vanishes(frame_grid):
    f = localized_field(frame_grid, seed=2)
    assert abs(mass(derivative(f, 1, 0))) <= 1e-13 * lp_norm(f, 1)


@settings(max_examples=20, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_mass_linearity(alpha, beta):
    g = make_grid(16.0, 64, "selfsim")
    f = localized_field(g, seed=1)
    h = localized_field(g, seed=2)
    combined = mass(f * alpha + h * beta)
    parts = alpha * mass(f) + beta * mass(h)
    scale = abs(alpha) * abs(mass(f)) + abs(beta) * abs(mass(h)) + 1e-30
    assert abs(combined - parts) <= 1e-12 * scale


# ------------------------------------------------------------- parseval

def test_parseval(frame_grid):
    f = localized_field(frame_grid, seed=9)
    box = (2.0 * frame_grid.half_width) ** 2
    spectral_sum = box * float(np.sum(np.abs(f.coeffs) ** 2))
    assert abs(lp_norm(f, 2) ** 2 - spectral_sum) <= 1e-12 * spectral_sum


# ------------------------------------------------------------- dealias

def test_dealias_clears_outer_band(frame_grid):
    f = localized_field(frame_grid, seed=4)
    noisy = f.coeffs + 1e-3
    clean = noisy * dealias_mask(frame_grid)
    kx, ky = frame_grid.wavegrid()
    cutoff = frame_grid.k_max * 2.0 / 3.0
    outer = (np.abs(kx) >= cutoff) | (np.abs(ky) >= cutoff)
    assert np.abs(clean[outer]).max() == 0.0
    assert np.array_equal(clean[~outer], noisy[~outer])


# ------------------------------------------------------ affine kernel

def _random_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_affine_kernel_physical_map_matches_direct_sum():
    # the frame change: a spectrum summed at (a X_p, c X_p + b Y_q), sign +1
    src = make_grid(8.0, 16)
    target = make_grid(6.0, 16, "selfsim")
    chat = _random_spectrum(16, seed=3)
    a, c, b = _frame_map(2.0, 0.3)
    got = affine_trig_sum(chat, src.k, target.x, target.x, a, c, b, 1)
    X, Y = target.meshgrid()
    ref = trig_sum_direct(chat, src.k, a * X, c * X + b * Y, 1)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_affine_kernel_row_points_and_real_lattice():
    # rows at a subset of the points are those rows of the square sum, and
    # a real lattice (two real first-stage products) sums as its complex
    # cast does
    grid = make_grid(8.0, 16, "selfsim")
    a = np.random.default_rng(5).standard_normal((16, 16))
    args = (0.8, -0.3, 1.1, -1)
    square = affine_trig_sum(a.astype(complex), grid.x, grid.k, grid.k, *args)
    rows = grid.k[:grid.half_cols]
    for lattice in (a, a.astype(complex)):
        got = affine_trig_sum(lattice, grid.x, rows, grid.k, *args)
        assert got.shape == (grid.half_cols, 16)
        assert (np.abs(got - square[:grid.half_cols]).max()
                <= 1e-13 * np.abs(square).max())


def test_affine_kernel_spectral_scale_stage_matches_direct_sum():
    # the limit semigroup's scale stage: real samples summed at the upper
    # triangular image (u11 xi_j + u12 eta_k, u22 eta_k), sign -1, which the
    # stage hands to the kernel transposed; it evaluates the n/2 + 1
    # columns of the half layout
    grid = make_grid(8.0, 16, "selfsim")
    n, h = grid.n, grid.half_cols
    coeffs = _random_spectrum(n, seed=4)
    m = char_map(0.4)
    u11, u12, u22 = m.m11, m.m12, m.det / m.m11
    got = _scale_stage(coeffs, grid, u11, u12, u22)
    assert got.shape == (n, h)
    v = (np.fft.ifft2(coeffs) * n ** 2).real
    xi, eta = np.meshgrid(grid.k, grid.k[:h], indexing="ij")
    X, Y = u11 * xi + u12 * eta, u22 * eta
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(h))
    ref = signs * trig_sum_direct(v, grid.x, X, Y, -1) / n ** 2
    inside = (np.abs(X) <= grid.k_max) & (np.abs(Y) <= grid.k_max)
    assert inside.sum() > n * h // 2
    assert np.abs(got - ref)[inside].max() <= 1e-12 * np.abs(ref).max()
    assert not got[~inside].any()
