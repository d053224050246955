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

from conftest import localized_field
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
    with pytest.raises(DomainError):
        symbol_exponent(-0.1, 1.0, 1.0)


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
    want = limit_semigroup_full(f, tau).values
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


def test_semigroup_result_holds_both_representations(frame_grid):
    # values from the inverse real transform, coeffs its Hermitian layout
    out = apply_semigroup(localized_field(frame_grid, seed=5, corr=2.0), 0.7)
    assert out.has_values and out.has_coeffs
    c = out.coeffs
    assert np.array_equal(c, np.roll(c[::-1, ::-1], 1, axis=(0, 1)).conj())
    back = (np.fft.ifft2(c) * frame_grid.n ** 2).real
    assert np.abs(back - out.values).max() <= 1e-14 * np.abs(out.values).max()


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
