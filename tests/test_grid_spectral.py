import ast
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from shearvortex import (
    CATALOG,
    Field,
    GridError,
    GridSpec,
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
from shearvortex.diagnostics import PROBE_KINDS, record
from shearvortex.errors import ShearVortexError
from shearvortex.fokker_planck import char_map, gaussian
from shearvortex.initial_data import make_field
from shearvortex.propagator import apply_semigroup
from shearvortex.selfsim import (FrameCoefficients, SelfSimilarState,
                                 _frame_map, _laplacian_symbol)
from shearvortex.spectral import (MAX_DERIVATIVE_ORDER, _table_specs,
                                  _trig_tables, affine_trig_sum,
                                  inverse_laplacian, _scope, arena_scope,
                                  characteristic_flow, dealias_mask,
                                  drift_arrays, drift_divergence,
                                  kept_spectrum, pair_product,
                                  scale_spectrum, shear_phase,
                                  shear_spectrum, spectrum_norm,
                                  transport_factors, transport_product,
                                  transport_spectrum)

from conftest import localized_field
from oracles import (GAUSSIAN_L2, SPEED_G_AT_R2, advection_divergence,
                     affine_trig_sum_dense, full_coeffs, full_spectrum,
                     laplacian_symbol_full, shear_full,
                     transport_spectrum_full_width, trig_sum_direct)


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


# half widths a float conversion would parse ("16", b"16") or fail on with
# a bare ValueError or TypeError
@pytest.mark.parametrize("half_width", ["16", b"16", "abc", 1j, None, [16]])
def test_grid_half_width_must_be_a_real_number(half_width):
    with pytest.raises(GridError):
        make_grid(half_width, 64)
    with pytest.raises(GridError):
        GridSpec(half_width, 8)


def test_grid_integer_wavenumbers_at_half_width_pi():
    g = make_grid(np.pi, 16)
    assert np.allclose(np.sort(g.k), np.arange(-8, 8), atol=1e-14)


def test_grid_rejects_unknown_frame():
    with pytest.raises(GridError):
        make_grid(16.0, 64, "rotating")


@pytest.mark.parametrize("half_width, n", [(8.0, 8), (20.0, 512), (16.3, 64),
                                           (np.pi, 128), (7.3, 16), (1 / 3, 32)])
def test_grid_lattices_are_mirror_symmetric(half_width, n):
    # the precondition of affine_trig_sum and shear_phase: x_{n-j} = -x_j
    # and k_{n-j} = -k_j, with entries 0 and n/2 alone, to a few ulps
    g = make_grid(half_width, n)
    x, k = g.x, g.k
    assert x[n // 2] == 0.0 and x[0] == -half_width
    assert k[0] == 0.0 and abs(k[n // 2] + g.k_max) <= 4 * np.spacing(g.k_max)
    assert np.abs(x[1:n // 2] + x[:n // 2:-1]).max() <= 4 * np.spacing(half_width)
    assert np.abs(k[1:n // 2] + k[:n // 2:-1]).max() <= 4 * np.spacing(g.k_max)


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


def _callers(names, files="*.py"):
    """(file, function) of each call of the named functions in the
    src/shearvortex files matching files, function being the top-level
    function or method whose body holds the call ("<module>" outside
    any)."""
    found = set()

    def visit(node, owner, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name, name)
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "attr", getattr(child.func, "id", None)) in names:
                found.add((name, owner or "<module>"))
            visit(child, owner, name)

    for path in sorted(SRC.glob(files)):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path.name)
    return found


def test_frame_scales_have_one_formula():
    # the frame map's scales are written out once, in selfsim._frame_map;
    # the kernel, the coordinates and the amplitude read them from there
    calls = {c for c in _callers(("sqrt",))
             if c[1] in ("green_kernel", "selfsim_coords", "amplitude")}
    assert not calls, calls


def test_frame_equation_has_one_right_hand_side():
    # apply_generator, apply_limit_generator and evolve form the frame
    # equation's explicit terms through selfsim._frame_rhs alone
    assert _callers(("_drift_spectrum",)) == {("selfsim.py", "_frame_rhs")}


def test_frame_advection_has_one_routine():
    # evolve and nonlinear_term advect through selfsim._frame_rhs alone,
    # whose _drift_spectrum (the test above) hands the frame symbol to
    # spectral.drift_divergence, where the transport rides in the drift's
    # transforms
    calls = _callers(("transport", "transport_spectrum", "drift_divergence"),
                     "selfsim.py")
    assert calls == {("selfsim.py", "_drift_spectrum")}


def test_only_the_grid_builds_wavenumbers_and_meshes():
    calls = _calls_outside("grid.py", ("fftfreq", "meshgrid"))
    assert not calls, calls


def test_only_spectral_divides_by_a_laplacian_symbol():
    # the symbol division needs np.errstate for the zero mode; one
    # inverse_laplacian serves the physical and the frame Laplacian
    calls = _calls_outside("spectral.py", ("errstate",))
    assert not calls, calls


def test_only_spectral_sums_over_the_full_lattice():
    # a Field's coeffs are its half spectrum; only spectral completes one
    # (for the shear and the frame change) and takes complex transforms
    calls = _calls_outside("spectral.py", ("fft", "ifft", "fft2", "ifft2",
                                           "full_spectrum"))
    assert not calls, calls


def test_diagnostics_leaves_sampling_to_spectral():
    # the energy pair streams its derivative samples from
    # spectral.derivative_pass: diagnostics.py calls no numpy.fft
    # function and imports nothing from numpy.fft
    tree = ast.parse((SRC / "diagnostics.py").read_text(encoding="utf-8"))
    found = [f"{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
             if (isinstance(node, ast.Call)
                 and "fft" in ast.unparse(node.func).split(".")[:-1])
             or (isinstance(node, ast.ImportFrom)
                 and "fft" in (node.module or ""))
             or (isinstance(node, ast.Import)
                 and any("fft" in alias.name for alias in node.names))]
    assert not found, found


def test_only_run_experiment_closes_a_run():
    # one run skeleton: a mode returns its final object and summary lines,
    # and run_experiment alone handles a solver failure (besides _try_fit's
    # unfittable series) and writes final.snap
    tree = ast.parse((SRC / "runner.py").read_text(encoding="utf-8"))
    handlers = [func.name
                for func in tree.body if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func)
                if isinstance(node, ast.ExceptHandler)
                and getattr(node.type, "id", None) == "ShearVortexError"]
    assert handlers == ["_try_fit", "run_experiment"], handlers
    finals = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value == "final.snap"]
    assert len(finals) == 1, finals


def test_only_one_ahead_starts_a_thread():
    # both two-thread modes, fp-decay's flow and picard's cross-check,
    # run their worker through runner._one_ahead, the one place in src/
    # that builds a threading.Thread
    assert _callers(("Thread",)) == {("runner.py", "_one_ahead")}


def test_only_picard_solve_opens_the_solve_memo():
    # the shear phases and masks and the march's interval tables live for
    # one Picard solve, on the thread that runs it: no other entry keeps
    # them, and no kernel takes them as an argument
    assert _callers(("solve_memo",)) == {("propagator.py", "picard_solve")}


def test_probe_kinds_are_decided_in_one_table():
    # a kind's ratio, parameter and ensemble frame come from the
    # diagnostics table: no comparison with a kind's name in diagnostics.py,
    # and no kind named in runner.py at all
    def literals(name, compared):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        nodes = ([c for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  for c in (node.left, *node.comparators)] if compared
                 else list(ast.walk(tree)))
        return [f"{name}:{node.lineno} {node.value}" for node in nodes
                if isinstance(node, ast.Constant) and node.value in PROBE_KINDS]

    found = literals("diagnostics.py", True) + literals("runner.py", False)
    assert not found, found


def test_each_catalog_name_is_written_once():
    # initial_data's one table maps each entry name to its maker
    tree = ast.parse((SRC / "initial_data.py").read_text(encoding="utf-8"))
    names = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in CATALOG]
    assert sorted(names) == sorted(CATALOG), names


def test_no_function_body_imports():
    # every module's dependencies are its top-level imports, so the
    # import graph of the package is the one its module heads show
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found


def test_propagator_leaves_shears_and_transforms_to_spectral():
    # the propagator shears through spectral.characteristic_flow, whose
    # shear_spectrum builds the phase with spectral.shear_phase: no np.fft
    # reference, and no exp of an imaginary argument, in propagator.py
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


def test_only_the_characteristic_flow_shears_and_scales():
    # one kernel for both linear semigroups: the heat-shear propagator and
    # the limit semigroup run spectral.characteristic_flow (the limit
    # semigroup its two parts, shear_rows once per input and flow_rows per
    # time), and no other module shears or scales a spectrum itself
    calls = _calls_outside("spectral.py", ("sheared", "shear_phase",
                                           "shear_spectrum", "scale_spectrum"))
    assert not calls, calls


def test_only_the_scale_stage_runs_the_affine_sum():
    # the frame changes read a spectrum through scale_spectrum, the one
    # caller of affine_trig_sum; no src/ code completes a half spectrum
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("affine_trig_sum", "full_spectrum"):
                    calls.append((path.name, owner.get(id(node)), name))
    assert calls == [("spectral.py", "scale_spectrum", "affine_trig_sum")], calls


def test_temporaries_come_from_arena_scopes_alone():
    # a kernel takes its large temporaries from the calling thread's arena
    # scope: no src/ function has an arena parameter ws, and only
    # spectral's scope code builds an Arena
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and "ws" in [a.arg for a in (*node.args.posonlyargs,
                                          *node.args.args,
                                          *node.args.kwonlyargs)]]
    assert not found, found
    built = {(path.name, top.name)
             for path in sorted(SRC.glob("*.py"))
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Arena"}
    assert built == {("spectral.py", "arena_scope")}, built


def _plan_by_formula(L, n):
    """Each grid-only array by its formula, built from np.meshgrid and
    np.fft.fftfreq the way the operations that use it once built it; the
    masks and the Laplacian on the first n/2 + 1 columns, the half
    layout."""
    h = n // 2 + 1
    x = -L + (2.0 * L / n) * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    j = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    keep = j <= n / 3.0
    plan = {
        "x": x, "k": k, "mode_index": j,
        "keep": keep[:, None] & keep[None, :h],
        "outer_band": (j[:, None] >= (7.0 / 16.0) * n)
        | (j[None, :h] >= (7.0 / 16.0) * n),
        "outside_half_box": (np.abs(x1) > 0.5 * L) | (np.abs(x2) > 0.5 * L),
        "laplacian": -(k1 ** 2 + k2 ** 2)[:, :h],
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
    kx, ky = grid.wavegrid()
    assert np.array_equal(kx[:, 0], grid.k)
    assert np.array_equal(ky[0], grid.k[:n // 2 + 1])
    assert dealias_mask(grid) is grid.keep
    assert np.array_equal(gaussian(grid).values, grid.gaussian_values)
    # the plan takes no part in comparing or hashing grids
    fresh = make_grid(L, n)
    assert fresh == grid and hash(fresh) == hash(grid)


# ----------------------------------------------------------- transforms

def test_field_coeffs_are_the_rfft2_half_spectrum(small_grid):
    n = small_grid.n
    with pytest.raises(GridError):
        Field(small_grid, coeffs=np.zeros((n, n), dtype=complex))
    v = localized_field(small_grid, seed=2).values
    c = Field(small_grid, values=v).coeffs
    want = np.fft.rfft2(v, norm="forward")
    assert c.shape == (n, n // 2 + 1)
    assert c.tobytes() == want.tobytes()
    back = Field(small_grid, coeffs=c).values
    assert back.tobytes() == np.fft.irfft2(c, norm="forward").tobytes()


def test_field_values_must_be_real_numbers(small_grid):
    # a float conversion would parse the strings
    with pytest.raises(GridError):
        Field(small_grid, values=np.full((64, 64), "1.5"))


@pytest.mark.parametrize("grid", ["g", None])
def test_field_grid_must_be_a_gridspec(grid):
    with pytest.raises(GridError):
        Field(grid, values=np.zeros((64, 64)))
    with pytest.raises(GridError):
        Field(grid, coeffs=np.zeros((64, 33)))


def test_field_coeffs_must_be_numbers(small_grid):
    with pytest.raises(GridError):
        Field(small_grid, coeffs=np.full((64, 33), "1"))


def test_field_values_must_not_be_complex(small_grid):
    # a float conversion would drop the imaginary part with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError):
            Field(small_grid, values=np.full((64, 64), 1.0 + 1.0j))


def test_field_keeps_read_only_float_copies(small_grid):
    ints = np.ones((64, 64), dtype=np.int64)
    f = Field(small_grid, values=ints, coeffs=np.zeros((64, 33)))
    assert f.values.dtype == np.float64 and f.coeffs.dtype == np.complex128
    assert not (f.values.flags.writeable or f.coeffs.flags.writeable)
    v = np.ones((64, 64))
    g = Field(small_grid, values=v)
    v[0, 0] = 2.0
    assert g.values[0, 0] == 1.0


def test_field_keeps_the_values_it_is_handed_only_once(small_grid):
    # keep_values takes the samples of the coeffs formed elsewhere without
    # a copy and freezes them; it refuses a second set and a wrong array
    f = Field(small_grid, coeffs=np.zeros((64, 33)))
    for bad in (np.zeros((64, 33)), np.zeros((64, 64), dtype=np.float32),
                [[0.0] * 64] * 64):
        with pytest.raises(GridError):
            f.keep_values(bad)
    v = np.zeros((64, 64))
    f.keep_values(v)
    assert f.values is v and not v.flags.writeable
    with pytest.raises(GridError):
        f.keep_values(np.zeros((64, 64)))


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
    # frame Laplacian at t = 3, with omega and w different fields; the
    # oracle's full layout is compared on its first n/2 + 1 columns
    co = None if t is None else FrameCoefficients.at_time(t)
    symbol = None if co is None else _laplacian_symbol(frame_grid, co)
    omega = localized_field(frame_grid, seed=8)
    w = localized_field(frame_grid, seed=9)
    got = transport(omega, w, symbol).coeffs
    want = advection_divergence(full_coeffs(omega.values),
                                full_coeffs(w.values), frame_grid,
                                laplacian_symbol_full(frame_grid, co))
    want = want[:, :frame_grid.half_cols]
    assert np.abs(want).max() > 0.0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("t", [None, 3.0])
@pytest.mark.parametrize("same", [True, False])
def test_kept_block_transport_equals_full_width_kernel(n, t, same):
    # the kept-column stages do the full-width kernel's arithmetic on the
    # columns the 2/3 rule keeps, so the two agree bit for bit; w is omega
    # takes the shared-input path
    g = make_grid(16.0, n, "selfsim")
    symbol = g.laplacian if t is None else _laplacian_symbol(
        g, FrameCoefficients.at_time(t))
    omega = localized_field(g, seed=8).coeffs
    w = omega if same else localized_field(g, seed=9).coeffs
    got = transport_spectrum(omega, w, g, symbol)
    want = transport_spectrum_full_width(omega, w, g, symbol)
    assert np.abs(want).max() > 0.0
    assert np.array_equal(got, want)


def _flow_case(seed):
    g = make_grid(16.0, 32, "selfsim")
    m = ((0.9, 0.2), (0.3, 1.1))
    return (g, localized_field(g, seed=seed).coeffs, m,
            np.ones((g.n, g.half_cols)))


def test_arena_scopes_nest_and_close_on_errors():
    # a nested scope serves the open arena and leaves it open, by an
    # exception too; the outermost one drops its arena on exit, so the
    # next scope is fresh and the thread holds no arena between scopes
    assert getattr(_scope, "arena", None) is None
    with arena_scope() as outer:
        with arena_scope() as inner:
            assert inner is outer
        with pytest.raises(GridError):
            with arena_scope():
                raise GridError("inside a nested scope")
        assert _scope.arena is outer
    assert _scope.arena is None
    with pytest.raises(GridError):
        with arena_scope() as failed:
            raise GridError("inside an outermost scope")
    assert _scope.arena is None
    with arena_scope() as fresh:
        assert fresh is not outer and fresh is not failed


def test_kernels_outside_a_scope_return_independent_results():
    # outside any scope each characteristic_flow call has an arena of its
    # own, so a result held while the next is computed stays as it was;
    # in one scope the two share slab 1, which is why the Duhamel targets
    # copy g1 before they flow g2
    g, c, m, d = _flow_case(8)
    first = characteristic_flow(c, g, m, d)
    held = first.copy()
    second = characteristic_flow(localized_field(g, seed=9).coeffs, g, m, d)
    assert first.tobytes() == held.tobytes()
    assert not np.shares_memory(first, second)
    with arena_scope():
        assert np.shares_memory(characteristic_flow(c, g, m, d),
                                characteristic_flow(c, g, m, d))


def test_threads_scoped_kernels_never_share_slabs():
    # three threads, more than the cores, run the flow in scopes of their
    # own at once, with a short switch interval: each gets the one-thread
    # result every time, in an arena whose slabs no other thread holds
    g, c, m, d = _flow_case(8)
    want = characteristic_flow(c, g, m, d).tobytes()
    start, results = threading.Barrier(3), {}

    def run(k):
        with arena_scope() as arena:
            start.wait(timeout=30)
            results[k] = arena, [characteristic_flow(c, g, m, d).tobytes()
                                 for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(got == [want] * 20 for _, got in results.values())
    slabs = [s.ctypes.data for arena, _ in results.values()
             for s in arena._slabs if s is not None]
    assert len(results) == 3 and len(set(slabs)) == len(slabs) > 0


@pytest.mark.parametrize("n", [16, 128])
def test_drift_divergence_carries_the_transport_kernel_bit_for_bit(n):
    # the transport that rides in the drift's stacked transforms is the
    # kernel's, byte for byte, with or without a drift beside it
    g = make_grid(16.0, n, "selfsim")
    symbol = _laplacian_symbol(g, FrameCoefficients.at_time(3.0))
    c = localized_field(g, seed=8).coeffs
    want = transport_spectrum(c, c, g, symbol).tobytes()
    for a in (((0.1, -0.2), (0.3, 0.4)), None):
        with arena_scope():
            drift_divergence(c, a, g, symbol)
            assert drift_arrays(g, True)[0][2].tobytes() == want


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("count", [1, 4])
def test_stacked_transport_product_equals_per_slice_calls(n, count):
    # the Duhamel march transforms several nodes' factors in one stacked
    # call: each slice of the result is that slice's own call, byte for
    # byte, for transport_product and for its last stage, kept_spectrum
    g = make_grid(16.0, n)
    stack = np.stack([
        transport_factors(localized_field(g, seed=seed).coeffs,
                          localized_field(g, seed=seed + 9).coeffs,
                          g, g.laplacian) for seed in range(count)])
    want = [transport_product(f.copy(), g).tobytes() for f in stack]
    assert [c.tobytes() for c in transport_product(stack.copy(), g)] == want
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((count, n, g.half_cols, 2))
    rows = rows.view(np.complex128)[..., 0]
    want = [kept_spectrum(r.copy(), g).tobytes() for r in rows]
    assert [c.tobytes() for c in kept_spectrum(rows.copy(), g)] == want


def _factor_ring(g, count):
    """count samples' transport factors, stacked, from seeded fields."""
    return np.stack([
        transport_factors(localized_field(g, seed=seed).coeffs,
                          localized_field(g, seed=seed + 9).coeffs,
                          g, g.laplacian) for seed in range(count)])


@pytest.mark.parametrize("n", [16, 128])
def test_stacked_pair_product_equals_per_pair_calls(n):
    # the Duhamel march transforms several pairs' terms in one stacked
    # call: each slice of the result is that pair's own call, byte for
    # byte, in any order and with repeats of a sample
    g = make_grid(16.0, n)
    ring = _factor_ring(g, 4)
    which = [(0, 1), (2, 2), (3, 1), (0, 0), (1, 3)]
    want = [pair_product(ring, [pair], g)[0].tobytes() for pair in which]
    assert [c.tobytes() for c in pair_product(ring, which, g)] == want


def test_pair_terms_sum_to_the_combined_factors_transport():
    # the march's identity: the term of the factors combined with weights
    # c_i is the sum over pairs i <= j of c_i c_j times the pair's term,
    # for weights of mixed sign as Lagrange weights are (the first set is
    # the cubic stencil's at its midpoint), within 1e-13 of the peak; a
    # diagonal pair's term is transport_product's of that sample
    g = make_grid(16.0, 64)
    ring = _factor_ring(g, 4)
    which = [(i, j) for i in range(4) for j in range(i, 4)]
    spectra = pair_product(ring, which, g)
    assert spectra[0].tobytes() == transport_product(ring[0].copy(), g).tobytes()
    for c in ([-0.0625, 0.5625, 0.5625, -0.0625], [0.3, -1.2, 2.1, -0.2]):
        want = transport_product(np.tensordot(c, ring, 1), g)
        got = sum(c[i] * c[j] * q for (i, j), q in zip(which, spectra))
        peak = np.abs(want).max()
        assert peak > 0.0
        assert np.abs(got - want).max() <= 1e-13 * peak


def _sheared_frame_gap(L, n, t):
    """Relative l2 gap between the physical transport term of the catalog
    Gaussian carried to time t (nu = 1) and the same term formed in
    shearing coordinates: the field sheared by -t, the Laplacian symbol
    -(xi^2 + (eta - t xi)^2), the result sheared back. The Poisson
    bracket is invariant under the det-1 shear, so the two differ only in
    how the stream function is periodized."""
    g = make_grid(L, n)
    c = apply_semigroup(make_field("gaussian", g), 1.0, t).coeffs
    phys = transport_spectrum(c, c, g, g.laplacian)
    s, oob = shear_spectrum(c, g, -t)
    s[oob] = 0.0
    kx, ky = g.wavegrid()
    frame = transport_spectrum(s, s, g, -(kx ** 2 + (ky - t * kx) ** 2))
    back = shear_spectrum(frame, g, t)[0]
    return spectrum_norm(phys - back) / spectrum_norm(phys)


def test_physical_biot_savart_periodic_image_error():
    # the physical Biot-Savart law periodizes the stream function, an
    # error of order (w/L)^2 for a field of width w: at t = 0.25 it falls
    # ~4x (measured 5.8e-3 -> 1.4e-3) when the box doubles at equal
    # spacing. At t = 1 the two image lattices coincide, and so do the
    # two terms
    coarse = _sheared_frame_gap(20.0, 128, 0.25)
    assert coarse / _sheared_frame_gap(40.0, 256, 0.25) >= 3.0
    assert _sheared_frame_gap(20.0, 128, 1.0) <= 1e-11


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
    spectral_sum = box * float(np.sum(np.abs(full_spectrum(f.coeffs)) ** 2))
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


def test_affine_kernel_row_points_and_real_lattice():
    # rows at a subset of the points are those rows of the square sum, and
    # a real lattice (two real first-stage products) sums as its complex
    # cast does
    grid = make_grid(8.0, 16, "selfsim")
    a = np.random.default_rng(5).standard_normal((16, 16))
    args = (0.8, -0.3, 1.1)
    square = affine_trig_sum(a.astype(complex), grid.x, grid.k, grid.k, *args)
    rows = grid.k[:grid.half_cols]
    for lattice in (a, a.astype(complex)):
        got = affine_trig_sum(lattice, grid.x, rows, grid.k, *args)
        assert got.shape == (grid.half_cols, 16)
        assert (np.abs(got - square[:grid.half_cols]).max()
                <= 1e-13 * np.abs(square).max())


@pytest.mark.parametrize("n", [8, 128])
@pytest.mark.parametrize("complex_lattice", [False, True])
def test_folded_kernel_matches_the_dense_kernel(n, complex_lattice):
    # real and complex lattices, over positions (the scale stage's s) and
    # over wavenumbers, at the whole target lattice, its first n/2 + 1
    # points and a subset of points
    grid = make_grid(16.3, n, "selfsim")
    rng = np.random.default_rng(n - 1)
    a = rng.standard_normal((n, n))
    if complex_lattice:
        a = a + 1j * rng.standard_normal((n, n))
    args = (0.8, -0.3, 1.1)
    for s, r in ((grid.x, grid.k), (grid.k, grid.x)):
        for rp in (r, r[:grid.half_cols], r[[1, 5, 2]]):
            got = affine_trig_sum(a, s, rp, r, *args)
            want = affine_trig_sum_dense(a, s, rp, r, *args, -1)
            assert got.shape == want.shape == (len(rp), n)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _tables(c, s, r):
    """_trig_tables' (cos, sin), (n/2 + 1) x len(r), on fresh arrays."""
    h = len(s) // 2 + 1
    cos, sin = np.empty((h, len(r))), np.empty((h, len(r)))
    _trig_tables(c, s, r, cos, sin,
                 [np.empty(shape, dtype) for shape, dtype in _table_specs(len(s), len(r))])
    return cos, sin


@pytest.mark.parametrize("half_width", [20.0, 16.3])
@pytest.mark.parametrize("n", [16, 128, 512])
def test_angle_addition_tables_are_as_accurate_as_the_direct_formula(n, half_width):
    # cos and sin of c s_j r_p, j = 0..n/2, against long double on the
    # exact product of the given floats; over positions (s = grid.x, rows
    # at wavenumbers) and over wavenumbers (s = grid.k, whose entry n/2 is
    # the Nyquist one, off the spacing). L = 16.3 spaces grid.x unevenly
    # by ulps, which the tables take to first order. The error stays
    # within twice the direct np.cos / np.sin of the rounded product's
    # (1.4e-14 at n = 128, 5.7e-14 at n = 512 for c = 1)
    grid = make_grid(half_width, n)
    h = grid.half_cols
    for c in (1.0, -0.8, 1.7):
        for s, r in ((grid.x, grid.k[:h]), (grid.k, grid.x[:h])):
            exact = np.multiply.outer(np.longdouble(c) * s[:h].astype(np.longdouble),
                                      r.astype(np.longdouble))
            arg = np.multiply.outer(c * s[:h], r)
            for got, trig in zip(_tables(c, s, r), (np.cos, np.sin)):
                want = trig(exact)
                direct = np.abs(trig(arg) - want).max()
                assert np.abs(got - want).max() <= 2 * direct, (c, trig)


def test_affine_kernel_rejects_a_lattice_off_its_precondition():
    # s must be mirrored and evenly spaced on its first n/2 entries, rq
    # mirrored, each to a few ulps; a perturbation of 1e-9 of the spacing
    # breaks either, and so does an odd length
    grid = make_grid(8.0, 16, "selfsim")
    a = np.random.default_rng(2).standard_normal((16, 16))
    args = (0.8, -0.3, 1.1)
    h = grid.half_cols
    uneven = grid.x.copy()
    uneven[3] += 1e-9 * grid.spacing
    unmirrored = grid.k.copy()
    unmirrored[-2] *= 1.0 + 1e-9
    for s, rq in ((uneven, grid.k), (unmirrored, grid.x), (grid.x, unmirrored),
                  (grid.x, grid.k[:-1])):
        with pytest.raises(GridError):
            affine_trig_sum(a, s, grid.k[:h], rq, *args)
    # the grid's own lattices pass at every size, uneven ulps included
    for n, half_width in ((8, 16.0), (512, 20.0), (512, 16.3), (128, np.pi)):
        g = make_grid(half_width, n)
        for s in (g.x, g.k):
            affine_trig_sum(np.ones((n, n)), s, s[:3], s, *args)


def test_scale_spectrum_between_grids_of_different_lengths():
    # the frame change's read from n = 16 into a lattice of 32 and back,
    # by the frame map at t = 2, nu = 0.3 and by its inverse
    coarse, fine = make_grid(8.0, 16), make_grid(16.0, 32, "selfsim")
    a, c, b = _frame_map(2.0, 0.3)
    maps = ((coarse, fine, (1.0 / a, -c / (a * b), 1.0 / b)),
            (fine, coarse, (a, c, b)))
    for src, target, (u11, u12, u22) in maps:
        n, h = target.n, target.half_cols
        coeffs = _random_spectrum(src.n, seed=src.n)[:, :src.half_cols]
        got = scale_spectrum(np.fft.irfft2(coeffs, norm="forward"), src,
                             target, u11, u12, u22)
        assert got.shape == (n, h)
        v = (np.fft.ifft2(full_spectrum(coeffs)) * src.n ** 2).real
        xi, eta = np.meshgrid(target.k, target.k[:h], indexing="ij")
        X, Y = u11 * xi + u12 * eta, u22 * eta
        signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(h))
        scale = (src.spacing / (2.0 * target.half_width)) ** 2
        ref = signs * trig_sum_direct(v, src.x, X, Y, -1) * scale
        inside = (np.abs(X) <= src.k_max) & (np.abs(Y) <= src.k_max)
        assert n * h // 4 < inside.sum() < n * h
        assert np.abs(got - ref)[inside].max() <= 1e-12 * np.abs(ref).max()
        assert not got[~inside].any()


def test_affine_kernel_spectral_scale_stage_matches_direct_sum():
    # the limit semigroup's scale stage: real samples summed at the upper
    # triangular image (u11 xi_j + u12 eta_k, u22 eta_k), sign -1, which the
    # stage hands to the kernel transposed; it evaluates the n/2 + 1
    # columns of the half layout, from the samples of a half spectrum
    grid = make_grid(8.0, 16, "selfsim")
    n, h = grid.n, grid.half_cols
    coeffs = _random_spectrum(n, seed=4)[:, :h]
    m = char_map(0.4)
    u11, u12, u22 = m.m11, m.m12, m.det / m.m11
    got = scale_spectrum(np.fft.irfft2(coeffs, norm="forward"), grid, grid,
                         u11, u12, u22)
    assert got.shape == (n, h)
    v = (np.fft.ifft2(full_spectrum(coeffs)) * n ** 2).real
    xi, eta = np.meshgrid(grid.k, grid.k[:h], indexing="ij")
    X, Y = u11 * xi + u12 * eta, u22 * eta
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(h))
    ref = signs * trig_sum_direct(v, grid.x, X, Y, -1) / n ** 2
    inside = (np.abs(X) <= grid.k_max) & (np.abs(Y) <= grid.k_max)
    assert inside.sum() > n * h // 2
    assert np.abs(got - ref)[inside].max() <= 1e-12 * np.abs(ref).max()
    assert not got[~inside].any()


# ---------------------------------------------------------------- shear

@pytest.mark.parametrize("half_width, n", [(20.0, 512), (8.0, 16), (16.0, 8)])
def test_shear_phase_is_the_top_rows_of_the_dense_phase(half_width, n):
    # rows 0..n/2 only; the mirrored columns are conjugates of computed
    # ones, byte for byte where x is mirrored exactly (these grids) but
    # for the sign of the zero imaginary parts of row 0 (xi = 0), which
    # adding 0j makes positive
    grid = make_grid(half_width, n)
    for slope in (0.37, -1.9, 12.3):
        got = shear_phase(grid, slope)
        want = np.exp(-1j * slope * np.outer(grid.k, grid.x))[:grid.half_cols]
        assert got.shape == (grid.half_cols, n)
        assert (got + 0j).tobytes() == (want + 0j).tobytes()
        assert got[1:].tobytes() == want[1:].tobytes()


@pytest.mark.parametrize("n", [8, 16, 128])
def test_sheared_matches_the_full_layout_shear(n):
    # a real field with content in its Nyquist row and column, whose
    # shear is not Hermitian there
    grid = make_grid(16.0, n)
    v = np.random.default_rng(n).standard_normal((n, n))
    c = np.fft.rfft2(v, norm="forward")
    assert np.abs(c[n // 2]).min() > 0.0 and np.abs(c[:, n // 2]).min() > 0.0
    for slope in (0.3, -1.7, 4.0):
        got, oob = shear_spectrum(c, grid, slope)
        got[oob] = 0.0
        want = shear_full(full_coeffs(v), grid, slope)[:, :grid.half_cols]
        assert got.shape == (n, grid.half_cols)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_characteristic_flow_takes_its_map_and_damping():
    # the kernel is given the backward map and the damping operand: a
    # pure shear is shear_spectrum with its out-of-band targets zeroed,
    # times the damping; char_map(0.4) adds the scale stage by
    # U = [[m11, m12], [0, det/m11]]; bit for bit
    n = 32
    grid = make_grid(16.0, n)
    rng = np.random.default_rng(11)
    c = np.fft.rfft2(rng.standard_normal((n, n)), norm="forward")
    d = rng.uniform(0.5, 1.0, c.shape)
    for t in (0.3, -1.1):
        want, oob = shear_spectrum(c, grid, t)
        want[oob] = 0.0
        got = characteristic_flow(c, grid, ((1, 0), (t, 1)), d)
        assert got.tobytes() == (want * d).tobytes()
    cm = char_map(0.4)
    want, oob = shear_spectrum(c, grid, cm.m21 / cm.m11)
    want[oob] = 0.0
    want = scale_spectrum(np.fft.irfft2(want, norm="forward"), grid, grid,
                          cm.m11, cm.m12,
                          (cm.m11 * cm.m22 - cm.m12 * cm.m21) / cm.m11)
    got = characteristic_flow(c, grid, ((cm.m11, cm.m12), (cm.m21, cm.m22)), d)
    assert got.tobytes() == (want * d).tobytes()


# ------------------------------------------------------ value-level contract

_GRID = make_grid(16.0, 16, "selfsim")
_F = gaussian(_GRID)
_LAP = _GRID.laplacian
# one row per value-level case that raised a raw error or passed silently
_VALUE_CASES = {
    "record opts array": lambda: record(SelfSimilarState(omega=_F, t=1.0, nu=1.0),
                                        np.zeros(3)),
    "shear slope string": lambda: shear_spectrum(_F.coeffs, _GRID, "1"),
    "shear slope nan": lambda: shear_spectrum(_F.coeffs, _GRID, np.nan),
    "shear slope inf": lambda: shear_spectrum(_F.coeffs, _GRID, np.inf),
    "shear coeffs shape": lambda: shear_spectrum(_F.coeffs[:, :3], _GRID, 0.5),
    "shear coeffs vector": lambda: shear_spectrum(np.zeros(3), _GRID, 0.5),
    "inverse_laplacian symbol string": lambda: inverse_laplacian(_F, "1"),
    "inverse_laplacian symbol shape": lambda: inverse_laplacian(_F, np.zeros(3)),
    "biot_savart symbol complex": lambda: biot_savart(_F, _LAP * 1j),
    "biot_savart symbol object": lambda: biot_savart(_F, object()),
    "transport symbol shape": lambda: transport(_F, _F, _LAP[:, :-1]),
    "transport symbol list": lambda: transport(_F, _F, [1.0, 2.0]),
}


@pytest.mark.parametrize("case", sorted(_VALUE_CASES))
def test_value_level_cases_raise_toolkit_errors(case):
    with pytest.raises(ShearVortexError):
        _VALUE_CASES[case]()


def test_checked_entries_accept_what_they_did():
    # the checks reject nothing the kernels took before: a numpy slope,
    # a frame symbol and the plain one given explicitly
    out, oob = shear_spectrum(_F.coeffs, _GRID, np.float64(0.5))
    assert out.shape == _F.coeffs.shape and oob.dtype == bool
    sym = _laplacian_symbol(_GRID, FrameCoefficients.at_time(2.0))
    assert np.array_equal(inverse_laplacian(_F, sym).coeffs,
                          inverse_laplacian(_F, sym.copy()).coeffs)
    assert np.array_equal(transport(_F, _F, _LAP).coeffs, transport(_F, _F).coeffs)
