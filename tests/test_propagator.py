import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import sympy

from shearvortex import (
    AliasingError,
    DivergenceError,
    DomainError,
    Field,
    GridError,
    NoConvergenceError,
    Trajectory,
    apply_semigroup,
    duhamel_bilinear,
    green_kernel,
    kato_norm,
    lp_norm,
    make_grid,
    mass,
    picard_solve,
    transport,
)
from shearvortex import diagnostics, errors, propagator, selfsim, spectral
from shearvortex.config import parse_config, picard_samples
from shearvortex.fokker_planck import apply_semigroup as fp_apply
from shearvortex.fokker_planck import char_map, gaussian, semigroup_flow
from shearvortex.initial_data import make_field
from shearvortex.propagator import _duhamel_targets, _panel_set, symbol_value
from shearvortex.selfsim import (FrameCoefficients, amplitude, nonlinear_term,
                                 selfsim_coords)
from shearvortex.spectral import weighted_norm

from conftest import NON_REAL_POINTS, localized_field
from oracles import (KATO_SINGLE_G, KERNEL_CENTER, SYMBOL_1110,
                     check_alias_unpruned, duhamel_direct_sheared,
                     duhamel_per_node)


# --------------------------------------------------------------- kernel

def test_kernel_center_value():
    assert abs(green_kernel(1.0, 1.0, 0.0, 0.0) - KERNEL_CENTER) <= 1e-14


def test_kernel_parity():
    for x, y in ((0.7, -1.3), (2.0, 0.4), (-0.2, -0.9)):
        assert green_kernel(1.0, 2.0, -x, -y) == pytest.approx(
            green_kernel(1.0, 2.0, x, y), rel=1e-14)


def test_kernel_unit_mass():
    g = make_grid(40.0, 512)
    x, y = g.meshgrid()
    for t in (1.0, 3.0):
        total = float(np.sum(green_kernel(1.0, t, x, y))) * g.spacing ** 2
        assert abs(total - 1.0) <= 1e-8


@pytest.mark.parametrize("nu", [0.1, 1.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 10.0, 1000.0])
def test_kernel_is_the_fixed_gaussian_in_frame_coordinates(t, nu):
    # G(x, t) amplitude(t) = (1/4pi) exp(-|X|^2/4) at the frame
    # coordinates X of x: the frame is built on the kernel
    x, y = make_grid(5.0, 32).meshgrid()
    X, Y = selfsim_coords(t, nu, x, y)
    want = np.exp(-(X ** 2 + Y ** 2) / 4.0) / (4.0 * np.pi)
    got = green_kernel(nu, t, x, y) * amplitude(t, nu)
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_kernel_rejects_nonpositive_time():
    for t in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            green_kernel(1.0, t, 0.0, 0.0)
    with pytest.raises(DomainError):
        green_kernel(-1.0, 1.0, 0.0, 0.0)


# times that a float conversion would parse, or read only in part
NON_REAL_TIMES = ["0.5", b"0.5", 0.5j, np.array(["0.5"]), [0.5, "1"],
                  np.array([0.5, 1.0], dtype=object), np.array([0.5, 0.5j])]


@pytest.mark.parametrize("point", NON_REAL_POINTS)
def test_kernel_rejects_non_real_points(point):
    for x, y in ((point, 0.0), (0.5, point)):
        with pytest.raises(DomainError):
            green_kernel(1.0, 1.0, x, y)


@pytest.mark.parametrize("t", NON_REAL_TIMES)
def test_kernel_rejects_non_real_time(t):
    with pytest.raises(DomainError):
        green_kernel(1.0, t, 0.0, 0.0)


# --------------------------------------------------------------- symbol

@pytest.mark.parametrize("t", NON_REAL_TIMES)
def test_symbol_rejects_non_real_time(t):
    with pytest.raises(DomainError):
        symbol_value(1.0, t, 1.0, 1.0)


def test_symbol_rejects_non_finite_time():
    for t in (np.nan, np.inf, np.array([0.5, np.nan])):
        with pytest.raises(DomainError):
            symbol_value(1.0, t, 1.0, 1.0)


@pytest.mark.parametrize("point", NON_REAL_POINTS)
def test_symbol_rejects_non_real_points(point):
    for xi, eta in ((point, 0.0), (1.0, point)):
        with pytest.raises(DomainError):
            symbol_value(1.0, 1.0, xi, eta)


def test_symbol_reads_float_arrays_without_a_copy():
    # symbol_value runs once per Duhamel node: its points pass as they are
    xi = np.linspace(-1.0, 1.0, 5)
    assert errors.check_reals(xi, "xi") is xi


def test_symbol_identity_at_time_zero():
    for xi, eta in ((0.0, 0.0), (3.0, -2.0), (10.0, 10.0)):
        assert symbol_value(1.0, 0.0, xi, eta) == 1.0


def test_symbol_frozen_value():
    assert abs(symbol_value(1.0, 1.0, 1.0, 0.0) - SYMBOL_1110) <= 1e-14


def test_symbol_parity():
    assert symbol_value(0.7, 2.0, 1.3, -0.4) == pytest.approx(
        symbol_value(0.7, 2.0, -1.3, 0.4), rel=1e-15)


def test_symbol_matches_symbolic_integral():
    # reference: the damping exponent is nu * integral of the advected
    # frequency magnitude squared, integrated symbolically
    s, t, xi, eta, nu = sympy.symbols("s t xi eta nu", real=True)
    exponent = nu * sympy.integrate(xi ** 2 + (eta + s * xi) ** 2, (s, 0, t))
    ref = sympy.lambdify((nu, t, xi, eta), sympy.exp(-exponent), "numpy")
    for args in ((1.0, 1.0, 1.0, 0.0), (0.5, 2.0, 0.7, -0.3),
                 (2.0, 0.3, -1.2, 0.8), (1.0, 5.0, 0.1, 2.0)):
        assert symbol_value(*args) == pytest.approx(ref(*args), rel=1e-13)


def test_symbol_consistent_with_kernel_transform():
    # transforming kernel samples must reproduce the symbol: certifies the
    # closed-form kernel and the spectral multiplier against each other
    g = make_grid(32.0, 256)
    x, y = g.meshgrid()
    t = 1.5
    f = Field(g, values=green_kernel(1.0, t, x, y))
    kx, ky = g.wavegrid()
    # samples start at -L, so coefficient (j, l) carries a (-1)^(j+l) phase
    # relative to the continuous transform
    j = np.rint(g.k * g.half_width / np.pi).astype(int)
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    recovered = (f.coeffs * (2.0 * g.half_width) ** 2
                 * np.outer(sign, sign[:g.half_cols]))
    want = symbol_value(1.0, t, kx, ky)
    assert np.abs(recovered.real - want).max() <= 1e-12
    assert np.abs(recovered.imag).max() <= 1e-12


# ------------------------------------------------------------ semigroup

def test_semigroup_identity_at_time_zero(phys_grid):
    f = localized_field(phys_grid, seed=1)
    out = apply_semigroup(f, 1.0, 0.0)
    assert np.abs(out.values - f.values).max() <= 1e-13 * np.abs(f.values).max()


@pytest.mark.parametrize("seed,s,t", [(0, 0.5, 1.5), (1, 2.0, 2.0),
                                      (2, 0.25, 3.75), (3, 1.0, 0.1)])
def test_semigroup_law(phys_grid, seed, s, t):
    f = localized_field(phys_grid, seed=seed)
    two_step = apply_semigroup(apply_semigroup(f, 1.0, s), 1.0, t)
    one_step = apply_semigroup(f, 1.0, s + t)
    num = lp_norm(two_step - one_step, 2)
    assert num <= 1e-12 * lp_norm(one_step, 2)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_semigroup_rejects_bad_time(phys_grid, t):
    with pytest.raises(DomainError):
        apply_semigroup(localized_field(phys_grid, seed=1), 1.0, t)


def test_semigroup_mass_invariance(phys_grid):
    f = localized_field(phys_grid, seed=4)
    m0 = mass(f)
    for t in (0.3, 1.0, 10.0):
        assert abs(mass(apply_semigroup(f, 1.0, t)) - m0) <= 1e-13 * max(abs(m0), 1.0)


def test_semigroup_smoothing_ratios_bounded(phys_grid):
    # decay shape of the L1 -> Lq smoothing estimates: the normalized
    # ratio must stay bounded over four decades of time
    ts = np.geomspace(0.1, 100.0, 8)
    for seed in (0, 1, 2):
        f = localized_field(phys_grid, seed=seed)
        n1 = lp_norm(f, 1)
        for q, power in ((2.0, -0.5), (np.inf, -1.0)):
            ratios = []
            for t in ts:
                out = apply_semigroup(f, 1.0, float(t))
                envelope = (t * np.hypot(1.0, t)) ** power
                ratios.append(lp_norm(out, q) / (envelope * n1))
            assert np.all(np.isfinite(ratios))
            assert max(ratios) <= 10.0


# -------------------------------------------------------------- duhamel

def _constant_trajectory(grid, f, times, nu=1.0):
    return Trajectory(times=times, fields=tuple(f for _ in times), nu=nu)


def test_duhamel_zero_trajectory(phys_grid):
    z = Field(phys_grid, values=np.zeros((256, 256)))
    traj = _constant_trajectory(phys_grid, z, (0.0, 0.5, 1.0))
    out = duhamel_bilinear(traj, traj, 1.0)
    assert np.abs(out.values).max() == 0.0


def test_duhamel_bilinearity_and_mass(phys_grid):
    f = localized_field(phys_grid, seed=5)
    g = localized_field(phys_grid, seed=6)
    times = (0.0, 0.25, 0.5)
    t1 = _constant_trajectory(phys_grid, f, times)
    t2 = _constant_trajectory(phys_grid, g, times)
    t1s = _constant_trajectory(phys_grid, f * 3.0, times)
    base = duhamel_bilinear(t1, t2, 0.5)
    scaled = duhamel_bilinear(t1s, t2, 0.5)
    assert np.abs(scaled.values - 3.0 * base.values).max() <= 1e-12 * np.abs(
        scaled.values).max()
    assert abs(mass(base)) <= 1e-12 * lp_norm(base, 1)


def test_duhamel_rejects_out_of_range_time(phys_grid):
    f = localized_field(phys_grid, seed=5)
    traj = _constant_trajectory(phys_grid, f, (0.0, 0.5, 1.0))
    with pytest.raises(DomainError):
        duhamel_bilinear(traj, traj, 2.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_duhamel_rejects_non_finite_time(phys_grid, t):
    f = localized_field(phys_grid, seed=5)
    traj = _constant_trajectory(phys_grid, f, (0.0, 0.5, 1.0))
    with pytest.raises(DomainError):
        _duhamel_targets(traj, traj, [0.5, t])


@pytest.mark.parametrize("t", ["0.5", b"0.5", None, 1j])
def test_duhamel_rejects_non_real_time(phys_grid, t):
    # a string or bytes target used to be parsed by float(), and None or
    # a complex number raised a bare TypeError
    f = localized_field(phys_grid, seed=5)
    traj = _constant_trajectory(phys_grid, f, (0.0, 0.5, 1.0))
    with pytest.raises(DomainError):
        duhamel_bilinear(traj, traj, t)
    with pytest.raises(DomainError):
        _duhamel_targets(traj, traj, [0.5, t])


@pytest.fixture(scope="module")
def resolved_trajectories():
    """Linear flows of two Gaussians on a grid that resolves the Duhamel
    integrand, sampled like a short Picard window."""
    g = make_grid(20.0, 128)
    times = (1.0, 1.25, 1.5, 1.75)

    def linear_flow(params):
        f = make_field("gaussian", g, params=params)
        return Trajectory(times=times, nu=1.0, fields=tuple(
            apply_semigroup(f, 1.0, t - times[0]) for t in times))

    return (linear_flow({"amplitude": 0.05}),
            linear_flow({"amplitude": 0.05, "center": (1.0, -0.5),
                         "widths": (1.5, 1.0)}))


@pytest.mark.parametrize("horizon, n_times, t_start", [
    (0.25, 17, 1.0), (0.1, 7, 0.3), (2.0, 3, 0.0)])
def test_picard_times_are_the_solve_times(horizon, n_times, t_start):
    # the runner reads picard's time samples before the solve returns
    zero = Field(make_grid(16.0, 16), values=np.zeros((16, 16)))
    traj = picard_solve(zero, 1.0, horizon, n_times, t_start=t_start)
    times = propagator.picard_times(horizon, n_times, t_start)
    assert np.array(times).tobytes() == np.array(traj.times).tobytes()


def _scoped_case(name, trajs):
    """A call of the named entry on resolved_trajectories' data."""
    om = trajs[0].fields[0]
    frame = make_grid(20.0, 128, "selfsim")
    state = selfsim.phys_to_selfsim(om, 1.0, 1.0, frame)
    return {
        "duhamel_bilinear": lambda: duhamel_bilinear(*trajs, 1.6),
        "picard_solve": lambda: picard_solve(om, 1.0, 0.25, 5, t_start=1.0),
        "evolve": lambda: selfsim.evolve(state, 1.05, 0.004).omega,
        "phys_to_selfsim": lambda: selfsim.phys_to_selfsim(
            om, 1.5, 1.0, frame).omega,
        "selfsim_to_phys": lambda: selfsim.selfsim_to_phys(state, om.grid),
        "apply_semigroup": lambda: apply_semigroup(om, 1.0, 0.5),
        "fokker_planck.apply_semigroup": lambda: fp_apply(state.omega, 0.5),
        "record": lambda: diagnostics.record(state),
    }[name]


def _result_bytes(result):
    if isinstance(result, Field):
        return result.values.tobytes() + result.coeffs.tobytes()
    if isinstance(result, Trajectory):
        return b"".join(map(_result_bytes, result.fields))
    return repr(result).encode()


@pytest.mark.parametrize("name", [
    "duhamel_bilinear", "picard_solve", "evolve", "phys_to_selfsim",
    "selfsim_to_phys", "apply_semigroup", "fokker_planck.apply_semigroup",
    "record"])
def test_entries_give_the_same_bytes_inside_an_arena_scope(
        resolved_trajectories, name):
    # an entry run inside an open arena scope shares the scope's slabs
    # with its callees, and twice in one scope it finds them written by
    # its first call; either way its result is the standalone call's,
    # byte for byte. The Duhamel march on two different trajectories
    # holds the first one's flowed sample while it flows the second's.
    call = _scoped_case(name, resolved_trajectories)
    want = _result_bytes(call())
    with spectral.arena_scope():
        assert _result_bytes(call()) == want
        assert _result_bytes(call()) == want


@pytest.mark.parametrize("mixed,targets", [
    (False, (1.75, 1.0, 1.5, 1.3, 1.25, 1.6)),
    (True, (1.6, 1.0, 1.75)),
])
def test_duhamel_march_matches_direct_sum(resolved_trajectories, mixed,
                                          targets):
    # both run in shearing coordinates anchored at t_0. The march composes
    # multipliers and interpolates each node's transport factors, where
    # the direct sum carries each node straight to its target and forms
    # its term from the interpolated spectrum and stream function; the
    # march derives its panel depth where the oracle splits the last
    # interval into four. They differ by the quadrature (measured 1.6e-11
    # to 4.1e-9 here), nowhere near 1e-7
    first, second = resolved_trajectories
    if not mixed:
        second = first
    marched = _duhamel_targets(first, second, targets)
    direct = duhamel_direct_sheared(first, second, targets)
    for t, m, d in zip(targets, marched, direct):
        d = d[:, :first.grid.half_cols]  # the oracle's full layout
        peak = np.abs(d).max()
        if t == first.times[0]:
            assert peak == 0.0 and np.abs(m.coeffs).max() == 0.0
        else:
            assert np.abs(m.coeffs - d).max() <= 1e-7 * peak, t


@pytest.mark.parametrize("mixed", [False, True])
def test_duhamel_factor_reuse_matches_per_node_transport(
        resolved_trajectories, mixed):
    # the march interpolates each node's transport factors from its
    # stencil samples' factors; the oracle transforms the spectra and
    # stream functions interpolated at the node. The factors are linear in the spectra, so
    # only roundoff separates the two. 1.3 lies strictly between samples
    # (a panel set on [t_k, t]); the pair of different trajectories goes
    # through duhamel_bilinear
    first, second = resolved_trajectories
    targets = (1.3, 1.75)
    if mixed:
        got = [duhamel_bilinear(first, second, t) for t in targets]
    else:
        second = first
        got = _duhamel_targets(first, first, targets)
    want = duhamel_per_node(first, second, targets)
    for t, g, w in zip(targets, got, want):
        peak = np.abs(w).max()
        assert peak > 0.0
        assert np.abs(g.coeffs - w).max() <= 1e-13 * peak, t


def test_duhamel_vets_every_node_against_later_targets():
    # rough data on a coarse box. The advection divergence lives in the
    # 2/3 band, and a lag below 0.5 shifts it by less than k_max/3, so
    # t = 0.5 loses nothing. At t = 0.75 the nodes of the first interval
    # reach lag 0.75 and shift content out of the band. The march carries
    # each node to its target in shearing coordinates, so the target's
    # read-back vetting sees that content past the physical band.
    g = make_grid(16.0, 32)
    f = localized_field(g, seed=3)
    traj = _constant_trajectory(g, f, tuple(0.25 * j for j in range(5)))
    duhamel_bilinear(traj, traj, 0.5)
    with pytest.raises(AliasingError):
        duhamel_bilinear(traj, traj, 0.75)


def test_alias_tol_must_be_positive_and_finite():
    # a NaN or infinite tolerance would switch the aliasing check off:
    # this bump, under-resolved for the shear at t = 2, would pass
    g = make_grid(8.0, 64)
    x, y = g.meshgrid()
    bump = Field(g, values=np.exp(-(x ** 2 + y ** 2) / 0.18))
    with pytest.raises(AliasingError):
        apply_semigroup(bump, 1e-3, 2.0)
    for tol in (np.nan, np.inf, -1e-9, 0.0, "1e-9", 1j):
        with pytest.raises(DomainError):
            apply_semigroup(bump, 1e-3, 2.0, alias_tol=tol)
        with pytest.raises(DomainError):
            apply_semigroup(bump, 1e-3, 0.0, alias_tol=tol)


def test_panel_set_resolves_the_fastest_decay():
    # exp(-c (b - s)) is the integrand's fastest mode; the derived depth
    # keeps its integral within 1e-13 of the peak for c up to 1024, with
    # no more than 40 nodes while c <= 64
    for c in np.geomspace(1.0, 1024.0, 200):
        nodes, weights = _panel_set(2.0, 3.0, c)
        exact = -np.expm1(-c) / c
        assert abs(np.dot(weights, np.exp(-c * (3.0 - nodes))) - exact) <= 1e-13
        if c <= 64.0:
            assert len(nodes) <= 40
    assert len(_panel_set(2.0, 3.0, 4.0)[0]) == 8


def _count_transforms(monkeypatch):
    """Lists the march fills: the pair count of each pair_product call,
    the plane count of each forward product transform (every product
    spectrum, a pair's or a node's, goes through
    spectral._forward_product), and one entry per transport_factors call
    (a sample's factors)."""
    pairs, planes, factors = [], [], []
    pair_product, forward = propagator.pair_product, spectral._forward_product
    build = propagator.transport_factors

    def counted_pairs(ring, which, grid):
        pairs.append(len(which))
        return pair_product(ring, which, grid)

    def counted_forward(samples, grid):
        planes.append(len(samples) if samples.ndim == 3 else 1)
        return forward(samples, grid)

    def counted_build(*args):
        factors.append(None)
        return build(*args)

    monkeypatch.setattr(propagator, "pair_product", counted_pairs)
    monkeypatch.setattr(spectral, "_forward_product", counted_forward)
    monkeypatch.setattr(propagator, "transport_factors", counted_build)
    return pairs, planes, factors


def test_duhamel_transforms_each_stencil_pair_once(resolved_trajectories,
                                                   monkeypatch):
    # each interval is integrated once, and a sample target is the marched
    # accumulator itself. Each sample's transport factors are built once
    # per march, from its copy in shearing coordinates, and each pair of
    # samples that share a 4-wide stencil is transformed once: the first
    # stencil has 10 pairs, each later one brings the 4 of its new
    # sample, in stacks of at most 4. Every forward product transform is
    # of pair terms, so no node's term is transformed, and the count
    # does not grow with the panel depth
    first, _ = resolved_trajectories
    grid = first.grid
    rate = 2.0 * first.nu * grid.k_max ** 2
    f = make_field("gaussian", grid, params={"amplitude": 0.05})
    times = tuple(1.0 + j / 64.0 for j in range(17))
    assert rate * (times[1] - times[0]) <= 4.0
    window = Trajectory(times=times, nu=1.0, fields=tuple(
        apply_semigroup(f, 1.0, t - times[0]) for t in times))
    pairs, planes, factors = _count_transforms(monkeypatch)
    _duhamel_targets(window, window, times)
    assert sum(pairs) == 10 + 4 * (len(times) - 4) == 62
    assert max(pairs) <= 4
    assert planes == pairs
    assert len(factors) == len(times)

    # the resolved window's intervals of 0.25 need a graded panel set,
    # 8 nodes per panel (8 * depth * 3 node terms per march); nu = 4
    # grades it two panels deeper
    for nu in (1.0, 4.0):
        depth = 1 + math.ceil(math.log2(nu * rate * 0.25 / 4.0))
        assert depth > 1
        graded = Trajectory(times=first.times, fields=first.fields, nu=nu)
        for counts in (pairs, planes, factors):
            counts.clear()
        _duhamel_targets(graded, graded, graded.times)
        assert sum(pairs) == 10
        assert planes == pairs
        assert len(factors) == len(first.times)


@pytest.mark.parametrize("other", [
    make_grid(20.0, 64), make_grid(16.0, 128),
    make_grid(20.0, 128, "selfsim")])
def test_duhamel_rejects_trajectories_on_different_grids(
        resolved_trajectories, other):
    # a different n used to end in a raw broadcast ValueError, and a
    # different half width or frame in a mixed-grid answer
    first, _ = resolved_trajectories
    f = make_field("gaussian", other, params={"amplitude": 0.05})
    second = Trajectory(times=first.times, nu=first.nu,
                        fields=tuple(f for _ in first.times))
    for a, b in ((first, second), (second, first)):
        with pytest.raises(GridError):
            duhamel_bilinear(a, b, 1.5)
        with pytest.raises(GridError):
            _duhamel_targets(a, b, [1.5])


def test_duhamel_memory_does_not_grow_with_the_samples():
    # the march keeps the transport factors of one stencil's samples (at
    # most 4) at a time, so marching 33 samples holds no more memory than
    # marching 9, less than one sample's factors more
    grid = make_grid(20.0, 128)
    f = make_field("gaussian", grid, params={"amplitude": 0.05})

    def peak(count):
        times = tuple(1.0 + j / 64.0 for j in range(count))
        window = Trajectory(times=times, nu=1.0, fields=tuple(
            apply_semigroup(f, 1.0, t - times[0]) for t in times))
        for sample in window.fields:  # transform lazy spectra beforehand
            sample.coeffs
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _duhamel_targets(window, window, [times[-1]])
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one_sample = 4 * grid.n ** 2 * 8
    short = peak(9)
    assert short >= 4 * one_sample
    assert peak(33) - short < one_sample


def _small_picard_data():
    # three Picard iterations on a window of four intervals
    g = make_grid(16.0, 64)
    return make_field("gaussian", g, params={"amplitude": 0.01})


def _calls_in_march(monkeypatch, targets):
    """Argument tuples of each call of the functions named by the
    (module, name) pairs targets made inside _duhamel_targets (so not by
    the linear flow's apply_semigroup), by name."""
    calls = {name: [] for _, name in targets}
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    march = propagator._duhamel_targets

    def marked(*args):
        inside.append(None)
        try:
            return march(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(propagator, "_duhamel_targets", marked)
    return calls


def test_picard_shears_each_sample_and_target_once(monkeypatch):
    # in shearing coordinates the march propagates by a multiplier: the
    # kernel runs once per sample read in (slope -tau_i) and once per
    # target after t_0 read back (slope +tau), and nowhere else. It
    # builds each distinct slope's shear phase once per solve: the
    # linear flow before the march has built the +tau ones
    calls = _calls_in_march(monkeypatch, [
        (propagator, "characteristic_flow"), (spectral, "shear_phase")])
    traj = picard_solve(_small_picard_data(), 1.0, 0.5, 5, t_start=1.0)
    assert len(traj.history) == 3
    taus = [t - traj.times[0] for t in traj.times]
    want = sorted(([-tau for tau in taus] + taus[1:]) * 3)
    assert sorted(m[1][0] for _, _, m, _ in calls["characteristic_flow"]) == want
    assert sorted(slope for _, slope in calls["shear_phase"]) == sorted(
        -tau for tau in taus)


def _count_calls(monkeypatch, targets):
    """Argument tuples of each call of the functions named by the
    (module, name) pairs targets, by name, wherever they are made."""
    calls = {name: [] for _, name in targets}
    for owner, name in targets:
        def counted(*args, fn=getattr(owner, name), name=name, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_picard_builds_each_shear_phase_once_per_solve(monkeypatch):
    # a solve's shears take slopes +tau (the linear flow and the read-
    # backs) and -tau (the read-ins); each distinct one is built once,
    # and each shear of it after the first reads the kept top block
    calls = _count_calls(monkeypatch, [(spectral, "shear_phase"),
                                       (spectral, "_shear")])
    traj = picard_solve(_small_picard_data(), 1.0, 0.5, 5, t_start=1.0)
    taus = [t - traj.times[0] for t in traj.times]
    slopes = [slope for _, slope in calls["shear_phase"]]
    assert sorted(slopes) == sorted(set(slopes)) == sorted(
        [-tau for tau in taus] + taus[1:])
    assert len(calls["_shear"]) == 4 + 3 * (5 + 4)


def test_picard_builds_each_interval_table_once_per_solve(monkeypatch):
    # an interval's panel set, node multipliers and carry depend on the
    # time grid alone: one solve builds each once, though its three
    # iterations march every interval
    calls = _calls_in_march(monkeypatch, [(propagator, "_panel_set"),
                                          (propagator, "_carry")])
    traj = picard_solve(_small_picard_data(), 1.0, 0.5, 5, t_start=1.0)
    assert len(traj.history) == 3
    ts = traj.times
    intervals = list(zip(ts, ts[1:]))
    assert sorted(args[:2] for args in calls["_panel_set"]) == intervals
    carries = [args[2:4] for args in calls["_carry"] if np.ndim(args[2]) == 0]
    assert sorted(carries) == [(a - ts[0], b - ts[0]) for a, b in intervals]


def _diverging_picard():
    """picard_solve's arguments on test_diverging_picard_exits_3's config."""
    cfg = parse_config("mode = picard\ninitial_data = gaussian\n"
                       "initial_params = amplitude=400.0\n"
                       "grid_n = 64\nt_end = 2.0\n")
    om0 = make_field(cfg.initial_data, make_grid(cfg.grid_l, cfg.grid_n),
                     cfg.seed, params=cfg.initial_params)
    return om0, cfg.nu, cfg.t_end - cfg.t_init, picard_samples(cfg), cfg.t_init


def test_picard_tables_die_with_the_solve(monkeypatch):
    # the memo a solve opens on its thread is closed when it returns or
    # raises, and nothing holds its tables after; the next solve starts
    # with an empty one
    kept, opened = [], []  # weak references to the memos, and their
                           # sizes when each solve's linear flow begins
    march, flow = propagator._duhamel_targets, propagator.apply_semigroup

    def marched(*args):
        kept.append(weakref.ref(args[3]))
        return march(*args)

    def flowed(*args):
        memo = spectral._scope.memo
        if not opened or opened[-1][0]() is not memo:
            opened.append((weakref.ref(memo), len(memo.phases),
                           len(memo.exits), len(memo.intervals)))
        return flow(*args)

    monkeypatch.setattr(propagator, "_duhamel_targets", marched)
    monkeypatch.setattr(propagator, "apply_semigroup", flowed)
    picard_solve(_small_picard_data(), 1.0, 0.5, 5, t_start=1.0)
    assert getattr(spectral._scope, "memo", None) is None
    assert len(kept) == 3 and all(ref() is None for ref in kept)
    with pytest.raises(DivergenceError):
        picard_solve(*_diverging_picard())
    gc.collect()
    assert getattr(spectral._scope, "memo", None) is None
    assert len(kept) == 6 and all(ref() is None for ref in kept)
    assert [sizes for _, *sizes in opened] == [[0, 0, 0]] * 2


def test_only_picard_keeps_shear_tables(resolved_trajectories, monkeypatch):
    # fp-decay's limit flow, a lone Duhamel term and a lone propagation
    # keep no table: each shear builds its own phase, as before solves
    # kept them
    calls = _count_calls(monkeypatch, [(spectral, "shear_phase"),
                                       (spectral, "_shear")])
    grid = make_grid(20.0, 128, "selfsim")
    f = make_field("eigenfunction", grid, params={"a": 1, "b": 0})
    for _ in semigroup_flow(f, [0.0, 0.1, 0.2, 0.2, 0.4]):
        pass
    assert len(calls["_shear"]) == len(calls["shear_phase"]) == 4
    duhamel_bilinear(*resolved_trajectories, 1.6)
    assert len(calls["_shear"]) == len(calls["shear_phase"]) > 4
    before = len(calls["shear_phase"])
    for _ in range(2):
        apply_semigroup(resolved_trajectories[0].fields[0], 1.0, 0.3)
    assert len(calls["_shear"]) == len(calls["shear_phase"]) == before + 2
    assert getattr(spectral._scope, "memo", None) is None


def test_a_kept_phase_and_mask_give_the_shears_bytes():
    # inside a solve memo, a second shear by a slope copies the kept top
    # block of its phase and mirrors it, and reads the kept mask: the
    # same bytes as a shear with nothing kept; +0.0 and -0.0 share one
    # entry
    g = make_grid(16.0, 64)
    c = localized_field(g, seed=4).coeffs
    slopes = (0.3, -0.3, 0.0, -0.0, 1.7)
    want = [spectral.shear_spectrum(c, g, s) for s in slopes]
    with spectral.solve_memo() as memo:
        for _ in range(2):
            for s, (out, oob) in zip(slopes, want):
                got, mask = spectral.shear_spectrum(c, g, s)
                assert got.tobytes() == out.tobytes()
                assert mask.tobytes() == oob.tobytes()
                assert not mask.flags.writeable
        assert len(memo.phases) == len(memo.exits) == 4
    assert not memo.phases and not memo.exits


def test_picard_peak_memory_above_its_input():
    # a small solve's tracemalloc peak above its input. The solve keeps
    # its intervals' multipliers and carries and its slopes' phases and
    # masks (about 0.5 MiB here), and its march sums the pair terms into
    # one array instead of stacking a 10-pair product. Measured
    # 2,098,372 B before the solve kept tables and 2,187,294 B with them
    # (n = 64, 5 samples, 3 iterations); the bound leaves 3%
    om0 = _small_picard_data()
    om0.values
    picard_solve(om0, 1.0, 0.5, 5, t_start=1.0)  # the caches of first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        picard_solve(om0, 1.0, 0.5, 5, t_start=1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2_250_000


def _vetting(check, *args):
    try:
        check(*args)
    except AliasingError as e:
        return str(e), e.mode
    return None


def test_vetting_raises_as_the_full_drop_set():
    # apply_semigroup vets its lag's whole drop set: over a sweep of single
    # lags it gives the oracle's outcome (pass, or the same message and
    # mode). The march vets each target it reads back from shearing
    # coordinates: every raise names a mode whose image at its target lies
    # out of band. The config of
    # test_duhamel_vets_every_node_against_later_targets
    g = make_grid(16.0, 32)
    f = localized_field(g, seed=3)
    traj = _constant_trajectory(g, f, tuple(0.25 * j for j in range(5)))
    raised = 0
    for t in np.linspace(0.3, 1.0, 15):
        got = _vetting(duhamel_bilinear, traj, traj, t)
        if got is not None:
            xi, eta = got[1]
            assert abs(eta - t * xi) > g.band, t
            raised += 1
    assert 0 < raised < 15

    raised = 0
    for tol in (1e-12, propagator._ALIAS_TOL, 1e-6, 1e-3):
        for c in (f.coeffs, transport(f, f).coeffs):
            for lag in np.linspace(0.05, 2.0, 40):
                got = _vetting(apply_semigroup, Field(g, coeffs=c), 1.0, lag,
                               tol)
                assert got == _vetting(check_alias_unpruned, c, g, 1.0,
                                       [lag], tol)
                raised += got is not None
    assert 0 < raised < 320


def test_trajectory_validation(phys_grid):
    f = localized_field(phys_grid, seed=1)
    with pytest.raises(GridError):
        Trajectory(times=(), fields=(), nu=1.0)
    with pytest.raises(DomainError):
        Trajectory(times=(1.0, 0.5), fields=(f, f), nu=1.0)
    for times in ((0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (0.0, np.nan, 2.0),
                  ("0.5", " 1e0 "), (0.5, 1j), (0.0, 10 ** 400)):
        with pytest.raises(DomainError):
            Trajectory(times=times, fields=(f,) * len(times), nu=1.0)
    for nu in (np.nan, -1.0, np.inf, "1", 1j):
        with pytest.raises(DomainError):
            Trajectory(times=(0.0, 1.0), fields=(f, f), nu=nu)
    other = localized_field(make_grid(16.0, 64), seed=1)
    with pytest.raises(GridError):
        Trajectory(times=(0.0, 1.0), fields=(f, other), nu=1.0)


@pytest.mark.parametrize("fields", [(1.0, 2.0), None])
def test_trajectory_holds_fields(fields):
    with pytest.raises(GridError):
        Trajectory((0.0, 0.5), fields, 1.0)


# --------------------------------------------------------------- picard

def test_picard_zero_data_one_iteration():
    g = make_grid(16.0, 64)
    z = Field(g, values=np.zeros((64, 64)))
    traj = picard_solve(z, 1.0, 1.0, 5)
    assert len(traj.history) == 1
    assert all(np.abs(f.values).max() == 0.0 for f in traj.fields)


def test_picard_contraction_monotone_and_scales_with_data():
    # iterate update distances must fall geometrically, with a contraction
    # factor that grows with the data size (here: roughly doubling)
    g = make_grid(16.0, 64)
    factors = []
    for amp in (0.01, 0.02):
        f = make_field("gaussian", g, params={"amplitude": amp})
        traj = picard_solve(f, 1.0, 0.5, 9, t_start=1.0)
        hist = traj.history
        assert len(hist) >= 3
        assert all(type(d) is float for d in hist)
        assert type(kato_norm(traj)) is float
        assert all(b < a for a, b in zip(hist, hist[1:]))
        ratios = [b / a for a, b in zip(hist, hist[1:])]
        assert all(r < 0.5 for r in ratios)
        factors.append(ratios[0])
    assert 1.5 <= factors[1] / factors[0] <= 3.0


def test_picard_errors_carry_the_update_distances(monkeypatch):
    # the distances are recomputed here by the iteration's definition: the
    # divergence payload is their consecutive quotients, its message quotes
    # the last two, and the budget's residual is the last distance
    f = make_field("gaussian", make_grid(16.0, 64), params={"amplitude": 400.0})
    times = tuple(j / 8 for j in range(9))
    with pytest.raises(DivergenceError) as diverged:
        picard_solve(f, 1.0, 1.0, len(times))
    ratios = diverged.value.ratios
    linear = tuple(apply_semigroup(f, 1.0, t) for t in times)
    traj, dists = Trajectory(times=times, fields=linear, nu=1.0), []
    for _ in range(len(ratios) + 1):
        fields = tuple(a + b for a, b in
                       zip(linear, _duhamel_targets(traj, traj, times)))
        dists.append(kato_norm(Trajectory(times=times, nu=1.0, fields=tuple(
            a - b for a, b in zip(fields, traj.fields)))))
        traj = Trajectory(times=times, fields=fields, nu=1.0)
    assert list(ratios) == [b / a for a, b in zip(dists, dists[1:])]
    assert f"ratios {ratios[-2]:.3f}, {ratios[-1]:.3f})" in str(diverged.value)
    monkeypatch.setattr(propagator, "PICARD_MAX_ITER", 2)
    with pytest.raises(NoConvergenceError) as exhausted:
        picard_solve(f, 1.0, 1.0, len(times))
    assert exhausted.value.residual == dists[1]


def test_picard_refuses_an_overflowing_kato_norm():
    # at amplitude 1e150 the L^(4/3) norm overflows to inf; inf <= tol * inf
    # must not read as convergence
    f = make_field("gaussian", make_grid(16.0, 64), params={"amplitude": 1e150})
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as info:
        picard_solve(f, 1.0, 1.0, 9)
    assert "overflowed" in str(info.value)
    assert info.value.ratios == []


def test_picard_rejects_bad_arguments(phys_grid):
    f = localized_field(phys_grid, seed=1)
    with pytest.raises(DomainError):
        picard_solve(f, -1.0, 1.0, 5)
    with pytest.raises(DomainError):
        picard_solve(f, 1.0, 0.0, 5)
    with pytest.raises(DomainError):
        picard_solve(f, 1.0, 1.0, 1)
    for n_times in (2.5, np.nan):
        with pytest.raises(DomainError):
            picard_solve(f, 1.0, 1.0, n_times)
    for horizon in (np.nan, np.inf, "1"):
        with pytest.raises(DomainError):
            picard_solve(f, 1.0, horizon, 5)
    for t_start in (np.nan, np.inf, -1.0, "1"):
        with pytest.raises(DomainError):
            picard_solve(f, 1.0, 1.0, 5, t_start=t_start)


def test_picard_caps_its_samples_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("picard_solve started work")

    monkeypatch.setattr(propagator, "apply_semigroup", refuse)
    f = localized_field(make_grid(16.0, 32), seed=1)
    with pytest.raises(DomainError):
        picard_solve(f, 1.0, 1.0, propagator.MAX_PICARD_SAMPLES + 1)


@pytest.mark.parametrize("t_start,horizon,n_times", [(0.0, 2.0, 17),
                                                     (1.0, 3.0, 25)])
def test_picard_converges_over_long_windows(t_start, horizon, n_times):
    # windows four and six times the longest the other tests solve: the
    # march carries its nodes over lags up to the horizon in shearing
    # coordinates, converges, conserves mass and raises no AliasingError
    f = make_field("gaussian", make_grid(16.0, 64), params={"amplitude": 0.05})
    traj = picard_solve(f, 1.0, horizon, n_times, t_start=t_start)
    hist = traj.history
    assert len(hist) >= 2
    assert all(b < a for a, b in zip(hist, hist[1:]))
    m0 = mass(f)
    assert all(abs(mass(u) - m0) <= 1e-12 * abs(m0) for u in traj.fields)


def test_shearing_multiplier_composes_and_reads_back_as_the_propagator():
    # _carry(a, b) is the heat-shear flow from shear time a to b in
    # shearing coordinates: two steps make one, and the multiplier from 0
    # to tau, read back at +tau, is apply_semigroup over tau
    g = make_grid(20.0, 128)
    for a, b, c in ((0.0, 0.25, 1.0), (0.3, 1.1, 1.7)):
        two = propagator._carry(1.0, g, a, b) * propagator._carry(1.0, g, b, c)
        assert np.abs(two - propagator._carry(1.0, g, a, c)).max() <= 1e-14
    f = make_field("dipole", g)
    for tau in (0.25, 1.0):
        read = propagator._flow(propagator._carry(1.0, g, 0.0, tau) * f.coeffs,
                                g, tau)
        want = apply_semigroup(f, 1.0, tau).coeffs
        assert np.abs(read - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("nu", [np.nan, np.inf, "1", 1j,
                                pytest.param(10 ** 400, id="10**400")])
@pytest.mark.parametrize("site", ["green_kernel", "symbol_value",
                                  "apply_semigroup", "picard_solve",
                                  "nonlinear_term", "selfsim_coords",
                                  "amplitude"])
def test_viscosity_must_be_positive_and_finite(site, nu):
    g = make_grid(16.0, 32)
    f = localized_field(g, seed=2)
    frame_f = localized_field(make_grid(16.0, 32, "selfsim"), seed=2)
    call = {
        "green_kernel": lambda: green_kernel(nu, 1.0, 0.0, 0.0),
        "symbol_value": lambda: symbol_value(nu, 1.0, 0.5, 0.5),
        "apply_semigroup": lambda: apply_semigroup(f, nu, 0.5),
        "picard_solve": lambda: picard_solve(f, nu, 0.5, 3),
        "nonlinear_term": lambda: nonlinear_term(frame_f, 2.0, nu),
        "selfsim_coords": lambda: selfsim_coords(2.0, nu, 0.0, 0.0),
        "amplitude": lambda: amplitude(2.0, nu),
    }[site]
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("value", ["1", 1j])
@pytest.mark.parametrize("site", ["apply_semigroup_t", "selfsim_coords_t",
                                  "frame_coefficients", "char_map",
                                  "limit_semigroup", "lp_norm",
                                  "weighted_norm", "amplitude_t"])
def test_scalar_arguments_must_be_real_numbers(site, value):
    # a string or complex scalar is rejected before any comparison with it
    f = localized_field(make_grid(16.0, 32), seed=2)
    frame_f = localized_field(make_grid(16.0, 32, "selfsim"), seed=2)
    call = {
        "apply_semigroup_t": lambda: apply_semigroup(f, 1.0, value),
        "selfsim_coords_t": lambda: selfsim_coords(value, 1.0, 0.0, 0.0),
        "frame_coefficients": lambda: FrameCoefficients.at_time(value),
        "char_map": lambda: char_map(value),
        "limit_semigroup": lambda: fp_apply(frame_f, value),
        "lp_norm": lambda: lp_norm(f, value),
        "weighted_norm": lambda: weighted_norm(f, value),
        "amplitude_t": lambda: amplitude(value, 1.0),
    }[site]
    with pytest.raises(DomainError):
        call()


# ------------------------------------------------------------ kato norm

def test_kato_norm_zero_trajectory(phys_grid):
    z = Field(phys_grid, values=np.zeros((256, 256)))
    traj = Trajectory(times=(1.0, 2.0), fields=(z, z), nu=1.0)
    assert kato_norm(traj) == 0.0


def test_kato_norm_homogeneous(phys_grid):
    f = localized_field(phys_grid, seed=8)
    traj = Trajectory(times=(0.5, 1.0), fields=(f, f * 0.5), nu=1.0)
    scaled = Trajectory(times=(0.5, 1.0), fields=(f * -3.0, f * -1.5), nu=1.0)
    assert kato_norm(scaled) == pytest.approx(3.0 * kato_norm(traj), rel=1e-13)


def test_kato_norm_single_gaussian_snapshot():
    g = make_grid(16.0, 256)
    x, y = g.meshgrid()
    G = Field(g, values=np.exp(-(x ** 2 + y ** 2) / 4.0) / (4.0 * np.pi))
    traj = Trajectory(times=(1.0,), fields=(G,), nu=1.0)
    assert abs(kato_norm(traj) - KATO_SINGLE_G) <= 1e-10


def test_kato_norm_ignores_time_zero_sample(phys_grid):
    f = localized_field(phys_grid, seed=9)
    traj = Trajectory(times=(0.0,), fields=(f,), nu=1.0)
    assert kato_norm(traj) == 0.0
