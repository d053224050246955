import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from shearvortex import (
    Field,
    apply_limit_generator,
    make_grid,
    mass,
    weighted_norm,
)
from shearvortex import fokker_planck, spectral
from shearvortex.diagnostics import EnergyCoefficients, RecordOptions, record
from shearvortex.errors import DomainError, ResolutionError, UnsupportedOrderError
from shearvortex.fokker_planck import (
    SQRT3,
    apply_semigroup,
    char_map,
    eigenfunction,
    eigenvalue,
    gaussian,
    symbol_exponent,
)
from shearvortex.selfsim import SelfSimilarState
from shearvortex.spectral import arena_scope

from conftest import NON_REAL_POINTS, localized_field
from oracles import GAUSSIAN_PEAK, forward_chars, limit_semigroup_full


# ---------------------------------------------------------------- equilibrium

def test_gaussian_peak_and_mass(frame_grid):
    G = gaussian(frame_grid)
    assert G.values.max() == pytest.approx(GAUSSIAN_PEAK, rel=1e-15)
    assert mass(G) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_symmetries(frame_grid):
    G = gaussian(frame_grid)
    n = frame_grid.n
    flipped = G.values[(-np.arange(n)) % n, :]
    assert np.array_equal(flipped, G.values)
    assert np.array_equal(G.values.T, G.values)


# -------------------------------------------------------------- eigenfunctions

def test_eigenfunction_order_zero_is_gaussian(frame_grid):
    f = eigenfunction(0, 0, frame_grid)
    G = gaussian(frame_grid)
    assert np.allclose(f.coeffs, G.coeffs, rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (1, 1), (2, 2)])
def test_eigenfunction_has_zero_mass(frame_grid, a, b):
    f = eigenfunction(a, b, frame_grid)
    assert mass(f) == 0.0


def test_eigenfunction_order_cap(frame_grid):
    with pytest.raises(UnsupportedOrderError):
        eigenfunction(3, 2, frame_grid)
    with pytest.raises(UnsupportedOrderError):
        eigenfunction(-1, 0, frame_grid)
    for a, b in ((1.7, 0), (0, 0.5), (np.nan, 1)):
        with pytest.raises(DomainError):
            eigenfunction(a, b, frame_grid)
    for a, b in ((1.7, 0), (0, 0.5), (np.nan, 1), ("a", 1), (1, "1"), (1j, 0)):
        with pytest.raises(DomainError):
            eigenvalue(a, b)


def test_eigenvalue_table():
    assert eigenvalue(0, 0) == 0.0
    assert eigenvalue(1, 0) == -1.5
    assert eigenvalue(0, 1) == -0.5
    assert eigenvalue(1, 1) == -2.0
    assert eigenvalue(2, 2) == -4.0


def test_eigenfunction_satisfies_generator_relation(frame_grid):
    # L psi = lambda psi; compare in L2 since the coordinate products in
    # the generator amplify roundoff at otherwise empty band-edge modes
    for a, b in ((1, 0), (0, 1), (2, 1)):
        psi = eigenfunction(a, b, frame_grid)
        lhs = apply_limit_generator(psi)
        want = eigenvalue(a, b) * psi.coeffs
        rel = np.linalg.norm(lhs.coeffs - want) / np.linalg.norm(want)
        assert rel <= 1e-8


# ------------------------------------------------------------ symbol exponent

def test_symbol_exponent_vanishes_at_zero_time():
    xi = np.linspace(-5.0, 5.0, 11)
    assert np.all(symbol_exponent(0.0, xi, xi[::-1]) == 0.0)


def test_symbol_exponent_long_time_limit():
    # the damping factor tends to the spectrum of the Gaussian equilibrium
    for xi, eta in ((1.0, 0.0), (0.5, -1.5), (2.0, 2.0)):
        got = symbol_exponent(40.0, xi, eta)
        assert got == pytest.approx(-(xi ** 2 + eta ** 2), abs=1e-12)


@pytest.mark.parametrize("tau,xi,eta", [
    (0.7, 1.0, -0.3),
    (2.1, -0.5, 0.9),
    (0.05, 2.0, 2.0),
    (1.3, 0.0, 1.0),
])
def test_symbol_exponent_quadrature_oracle(tau, xi, eta):
    # accumulate the damping along the forward mode path: the exponent
    # evaluated at the forward image equals -4 int_0^tau Upsilon(s)^2 ds
    X, Y = forward_chars(tau, xi, eta)
    lhs = float(symbol_exponent(tau, X, Y))

    def ups(s):
        return ((SQRT3 / 2.0 * xi - 0.5 * eta) * np.exp(s / 2.0)
                + (-SQRT3 / 2.0 * xi + 1.5 * eta) * np.exp(1.5 * s))

    rhs = -4.0 * quad(lambda s: ups(s) ** 2, 0.0, tau, epsabs=1e-14)[0]
    assert lhs == pytest.approx(rhs, abs=1e-11 * max(1.0, abs(rhs)))


@given(tau=st.floats(0.0, 20.0), xi=st.floats(-50.0, 50.0),
       eta=st.floats(-50.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_symbol_exponent_nonpositive(tau, xi, eta):
    assert symbol_exponent(tau, xi, eta) <= 0.0


def test_symbol_exponent_rejects_negative_time():
    # and, as symbol_value does, NaN and infinite times, in arrays too
    for tau in (-0.1, np.nan, np.inf, np.array([0.5, np.nan]),
                np.array([[0.5], [np.inf]])):
        with pytest.raises(DomainError):
            symbol_exponent(tau, 1.0, 1.0)


@pytest.mark.parametrize("tau", ["0.5", b"0.5", 0.5j, np.array(["0.5"]),
                                 [0.5, "1"], np.array([0.5, 1.0], dtype=object),
                                 np.array([0.5, 0.5j])])
def test_symbol_exponent_rejects_non_real_time(tau):
    # a float conversion would parse the strings and read the objects
    with pytest.raises(DomainError):
        symbol_exponent(tau, 1.0, 1.0)


@pytest.mark.parametrize("point", NON_REAL_POINTS)
def test_symbol_exponent_rejects_non_real_points(point):
    for xi, eta in ((point, 0.0), (1.0, point)):
        with pytest.raises(DomainError):
            symbol_exponent(1.0, xi, eta)


# ------------------------------------------------------------- characteristics

def test_char_map_identity_at_zero():
    m = char_map(0.0)
    assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.0, 0.0, 1.0)
    assert m.det == 1.0


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.7])
def test_char_map_determinant(tau):
    assert char_map(tau).det == pytest.approx(np.exp(-2.0 * tau), abs=1e-14)


@pytest.mark.parametrize("tau", [0.2, 1.0, 3.0])
def test_backward_inverts_forward(tau):
    xi = np.array([1.0, -0.5, 2.0, 0.0])
    eta = np.array([0.3, 0.9, -2.0, 1.0])
    X, Y = forward_chars(tau, xi, eta)
    m = char_map(tau)
    back = np.array([[m.m11, m.m12], [m.m21, m.m22]]) @ np.array([X, Y])
    assert np.allclose(back[0], xi, rtol=0.0, atol=1e-12)
    assert np.allclose(back[1], eta, rtol=0.0, atol=1e-12)


def test_char_map_rejects_negative_time():
    for tau in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            char_map(tau)


# ------------------------------------------------------------------ semigroup

def test_semigroup_zero_time_is_identity(frame_grid):
    f = localized_field(frame_grid, seed=3, corr=2.0)
    out = apply_semigroup(f, 0.0)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_semigroup_fixes_gaussian(frame_grid):
    G = gaussian(frame_grid)
    out = apply_semigroup(G, 1.3)
    rel = np.linalg.norm(out.coeffs - G.coeffs) / np.linalg.norm(G.coeffs)
    assert rel <= 1e-12


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (1, 1)])
def test_semigroup_decays_eigenfunctions(frame_grid, a, b):
    psi = eigenfunction(a, b, frame_grid)
    out = apply_semigroup(psi, 1.0)
    want = np.exp(eigenvalue(a, b)) * psi.coeffs
    rel = np.linalg.norm(out.coeffs - want) / np.linalg.norm(want)
    assert rel <= 1e-12


def test_semigroup_composition_law(frame_grid):
    f = localized_field(frame_grid, seed=5, corr=2.0)
    for s, t in ((0.4, 1.1), (0.05, 0.05), (2.0, 0.7)):
        one = apply_semigroup(f, s + t)
        two = apply_semigroup(apply_semigroup(f, s), t)
        rel = (np.linalg.norm(one.coeffs - two.coeffs)
               / np.linalg.norm(one.coeffs))
        assert rel <= 1e-10


def test_semigroup_preserves_mass(frame_grid):
    f = localized_field(frame_grid, seed=7, corr=2.0)
    m0 = mass(f)
    for tau in (0.3, 1.0, 4.0):
        assert mass(apply_semigroup(f, tau)) == pytest.approx(m0, abs=1e-12)


def test_semigroup_matches_generator_at_short_times(frame_grid):
    # (S_h f - f)/h converges to the generator at first order in h
    f = localized_field(frame_grid, seed=5, corr=2.0)
    Lf = apply_limit_generator(f)
    scale = np.linalg.norm(Lf.coeffs)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        quotient = (apply_semigroup(f, h).coeffs - f.coeffs) / h
        errs.append(np.linalg.norm(quotient - Lf.coeffs) / scale)
    assert errs[0] <= 0.1
    assert 0.4 <= errs[1] / errs[0] <= 0.6
    assert 0.4 <= errs[2] / errs[1] <= 0.6


def test_semigroup_weighted_norm_stays_bounded(frame_grid):
    f = localized_field(frame_grid, seed=5, corr=2.0)
    n0 = weighted_norm(f, 2)
    ratios = [weighted_norm(apply_semigroup(f, tau), 2) / n0
              for tau in np.linspace(0.0, 5.0, 11)]
    assert max(ratios) <= 1.2


def test_semigroup_converges_to_projected_gaussian(frame_grid):
    # mean-zero content decays at rate 1/2, so the residual against
    # mass * G shrinks by about e^{-1} per unit time
    f = localized_field(frame_grid, seed=5, corr=2.0)
    target = mass(f) * gaussian(frame_grid).coeffs
    scale = np.linalg.norm(f.coeffs)
    r4 = np.linalg.norm(apply_semigroup(f, 4.0).coeffs - target) / scale
    r6 = np.linalg.norm(apply_semigroup(f, 6.0).coeffs - target) / scale
    assert r6 <= np.exp(-3.0)
    assert 0.3 <= r6 / r4 <= 0.45


def _assert_matches_full_layout(f, tau):
    got = apply_semigroup(f, tau)
    want = (np.fft.ifft2(limit_semigroup_full(f, tau)) * f.grid.n ** 2).real
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("tau", [0.05, 0.7, 2.5])
def test_semigroup_matches_full_layout_oracle(frame_grid, tau):
    for f in (localized_field(frame_grid, seed=5, corr=2.0),
              eigenfunction(1, 1, frame_grid), gaussian(frame_grid)):
        _assert_matches_full_layout(f, tau)


def test_semigroup_matches_full_layout_oracle_at_n512():
    # the fp-decay benchmark's datum and horizon
    grid = make_grid(20.0, 512, "selfsim")
    _assert_matches_full_layout(eigenfunction(1, 0, grid), np.log(3.2))


def test_semigroup_result_is_sampled_once_from_its_half_spectrum(frame_grid):
    # the result holds its half spectrum only; its values are one inverse
    # real transform of it, taken on first use and then kept
    out = apply_semigroup(localized_field(frame_grid, seed=5, corr=2.0), 0.7)
    assert out.has_coeffs and not out.has_values
    assert out.values is out.values
    assert np.array_equal(out.values,
                          np.fft.irfft2(out.coeffs, norm="forward"))


class _TrigSizes:
    """numpy, but recording the size of every exp, cos and sin argument."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("exp", "cos", "sin"):
            return attr

        def recorded(x, *args, **kwargs):
            self.sizes.append((name, np.size(x)))
            return attr(x, *args, **kwargs)
        return recorded


def test_semigroup_takes_trig_at_half_lattice_points(small_grid, monkeypatch):
    # the shear's phase folds by the lattices' mirror symmetry: one cosine
    # and one sine of (n/2 + 1)^2 arguments. The scale kernel's three
    # table pairs are built by angle addition over blocks of about
    # sqrt(n/2) points: no other cosine or sine that spectral evaluates
    # during one call spans more than (n/2 + 1) 2 sqrt(n/2) arguments,
    # nor all of them together more than 6 (n/2 + 1) (5/2 sqrt(n/2) + 1)
    # (it was 6 (n/2 + 1)^2); spectral takes no exponential
    f = gaussian(small_grid)
    trig = _TrigSizes()
    monkeypatch.setattr(spectral, "np", trig)
    apply_semigroup(f, 0.7)
    names = {name for name, _ in trig.sizes}
    assert names == {"cos", "sin"}
    h, root = small_grid.half_cols, np.sqrt(small_grid.n / 2)
    sizes = sorted(size for _, size in trig.sizes)
    assert sizes[-2:] == [h ** 2] * 2
    assert sizes[-3] <= 2 * root * h
    assert sum(sizes[:-2]) <= 6 * h * (2.5 * root + 1)


def test_semigroup_rejects_negative_time(frame_grid):
    f = gaussian(frame_grid)
    for tau in (-0.5, np.nan, np.inf):
        with pytest.raises(DomainError):
            apply_semigroup(f, tau)


def test_semigroup_rejects_unresolved_spectrum():
    # first derivative ladder field on a coarse box: outer-band content
    # sits just above the acceptance threshold
    g = make_grid(20.0, 64, "selfsim")
    psi = eigenfunction(1, 0, g)
    with pytest.raises(ResolutionError):
        apply_semigroup(psi, 1.0)


# ------------------------------------------------------------- the run arena

def _fp_sample(f0, tau):
    """One fp-decay sample, as the runner takes it: the flow to tau, then
    record, both in the calling thread's arena scope."""
    state = SelfSimilarState(omega=apply_semigroup(f0, tau),
                             t=float(np.exp(tau)), nu=1.0, alpha=mass(f0))
    opts = RecordOptions(energy=EnergyCoefficients.from_scale())
    return state, record(state, opts)


def test_one_arena_over_several_taus_matches_fresh_calls_bit_for_bit():
    # the flow and record reuse one arena's slabs from sample to sample:
    # each sample equals fresh calls' bit for bit, a later sample leaves
    # the earlier states unchanged, and the arena keeps at most 8
    # slab-sized arrays (slabs and weights)
    grid = make_grid(20.0, 128, "selfsim")
    f0 = eigenfunction(1, 0, grid)
    taus = (0.1, 0.5, 1.2, 0.0)
    fresh = [_fp_sample(eigenfunction(1, 0, grid), tau) for tau in taus]
    held = []
    with arena_scope() as ws:
        for tau, (fresh_state, fresh_rec) in zip(taus, fresh):
            state, rec = _fp_sample(f0, tau)
            assert state.omega.coeffs.tobytes() == fresh_state.omega.coeffs.tobytes()
            assert rec == fresh_rec
            held.append((state, state.omega.coeffs.copy(), state.omega.values.copy()))
    for state, coeffs, values in held:
        assert state.omega.coeffs.tobytes() == coeffs.tobytes()
        assert state.omega.values.tobytes() == values.tobytes()
    assert len(ws._slabs) + len(ws._weights) <= 8


def test_warm_fp_decay_sample_allocates_only_what_it_keeps():
    # with the arena warm, one sample (flow + record) at n = 128 peaks,
    # above the arena, at what it returns and keeps: the state's coeffs
    # and values, 264192 bytes (record samples the state by axes, with
    # the first stage on a slab), and the returned objects, under 8 KiB.
    # The same sample peaked at 1323572 bytes before the arena
    # (tracemalloc, no arena: every temporary fresh)
    grid = make_grid(20.0, 128, "selfsim")
    f0 = eigenfunction(1, 0, grid)
    with arena_scope():
        _fp_sample(f0, 0.3)    # fills the arena and the grid's arrays
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state, _ = _fp_sample(f0, 0.6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    kept = state.omega.coeffs.nbytes + state.omega.values.nbytes
    assert kept == 264192
    assert peak <= kept + 8192, peak


def test_record_samples_a_flowed_state_as_irfft2_does():
    # record gives a state that holds only its half spectrum its samples
    # by axes, the first stage shared with the energy pass: the values it
    # leaves on the Field equal irfft2's byte for byte, and stay there
    for n in (128, 256, 512):
        grid = make_grid(20.0, n, "selfsim")
        state, _ = _fp_sample(eigenfunction(1, 0, grid), 0.4)
        assert state.omega.has_values
        want = np.fft.irfft2(state.omega.coeffs, norm="forward")
        assert state.omega.values.tobytes() == want.tobytes()
        assert not state.omega.values.flags.writeable


def test_flow_over_taus_matches_one_tau_calls_and_prepares_once(monkeypatch):
    # semigroup_flow vets f and forms its shear rows once, at the first
    # positive tau, and each of its samples equals apply_semigroup's one
    # tau call bit for bit, with record's use of the arena in between
    grid = make_grid(20.0, 128, "selfsim")
    f0 = eigenfunction(1, 0, grid)
    taus = (0.0, 0.2, 0.9, 0.0, 1.7)
    counts = {"_spectrum_tail": 0, "shear_rows": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(fokker_planck, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(fokker_planck, name, counted)
    opts = RecordOptions(energy=EnergyCoefficients.from_scale())
    flowed = []
    with arena_scope():
        for tau, omega in zip(taus, fokker_planck.semigroup_flow(f0, taus)):
            flowed.append(omega)
            record(SelfSimilarState(omega=omega, t=float(np.exp(tau)), nu=1.0,
                                    alpha=mass(f0)), opts)
    assert counts == {"_spectrum_tail": 1, "shear_rows": 1}
    assert flowed[0] is f0 and flowed[3] is f0
    for tau, omega in zip(taus, flowed):
        assert omega.coeffs.tobytes() == apply_semigroup(f0, tau).coeffs.tobytes()


def test_flow_yields_tau_zero_before_rejecting_an_unresolved_field():
    g = make_grid(20.0, 64, "selfsim")
    psi = eigenfunction(1, 0, g)
    flow = fokker_planck.semigroup_flow(psi, (0.0, 1.0))
    assert next(flow) is psi
    with pytest.raises(ResolutionError):
        next(flow)
