import numpy as np
import pytest

from shearvortex import (
    EnergyCoefficients,
    Field,
    RecordOptions,
    SelfSimilarState,
    energy_functionals,
    inequality_probe,
    lp_norm,
    make_grid,
    mass,
    rate_fit,
    record,
    weighted_inner,
    weighted_norm,
)
from shearvortex import diagnostics, fokker_planck, spectral
from shearvortex.diagnostics import P_GRID
from shearvortex.errors import DomainError, FitError, GridError
from shearvortex.fokker_planck import eigenfunction, gaussian
from shearvortex.selfsim import invert_frame_laplacian
from shearvortex.spectral import derivative

from conftest import localized_field


# --------------------------------------------------------------------- record

def test_record_of_scaled_gaussian_state(small_grid):
    G = gaussian(small_grid)
    state = SelfSimilarState(omega=Field(small_grid, values=0.7 * G.values),
                             t=2.0, nu=1.0)
    rec = record(state)
    assert rec.t == 2.0
    assert rec.tau == pytest.approx(np.log(2.0), rel=1e-15)
    assert rec.mass == pytest.approx(0.7, abs=1e-12)
    assert set(rec.lp_norms) == set(P_GRID)
    for m in (2.0, 3.0):
        assert rec.convergence_L2m[m] <= 1e-10
    assert rec.convergence_L1_phys <= 1e-10
    assert rec.energy is None and rec.dissipation is None


def test_record_convergence_columns_measure_the_perturbation(small_grid):
    psi = eigenfunction(0, 1, small_grid)
    state = SelfSimilarState(omega=gaussian(small_grid) + psi, t=2.0, nu=1.0)
    rec = record(state)
    for m in (2.0, 3.0):
        assert rec.convergence_L2m[m] == pytest.approx(
            float(weighted_norm(psi, m)), rel=1e-12)
    assert rec.convergence_L1_phys == pytest.approx(
        float(lp_norm(psi, 1)), rel=1e-12)


def test_record_optional_columns(small_grid):
    om = gaussian(small_grid) + eigenfunction(0, 1, small_grid)
    state = SelfSimilarState(omega=om, t=2.0, nu=1.0)
    opts = RecordOptions(energy=EnergyCoefficients.from_scale())
    rec = record(state, opts)
    e, d = energy_functionals(om, 2.0, opts.energy)
    assert rec.energy == pytest.approx(e, rel=1e-12)
    assert rec.dissipation == pytest.approx(d, rel=1e-12)


def test_record_distance_to_alpha_gaussian_matches_field_arithmetic(
        small_grid, monkeypatch):
    # alpha is set apart from the mass, and omega is held as coefficients,
    # as the evolver leaves it; the Gaussian comes from the grid's samples
    om = Field(small_grid, coeffs=(gaussian(small_grid)
                                   + eigenfunction(0, 1, small_grid)).coeffs)
    state = SelfSimilarState(omega=om, t=2.0, nu=1.0, alpha=0.7)
    want = om - 0.7 * gaussian(small_grid)
    monkeypatch.setattr(fokker_planck, "gaussian", _forbidden)
    monkeypatch.setattr(diagnostics, "gaussian", _forbidden, raising=False)
    rec = record(state)
    for m in (2.0, 3.0):
        assert rec.convergence_L2m[m] == pytest.approx(
            float(weighted_norm(want, m)), rel=1e-13)
    assert rec.convergence_L1_phys == pytest.approx(
        float(lp_norm(want, 1)), rel=1e-13)


def _forbidden(*args, **kwargs):
    raise AssertionError("called")


# ------------------------------------------------------------------- rate_fit

def test_rate_fit_recovers_exact_power_law():
    t = np.geomspace(1.0, 100.0, 12)
    series = list(zip(t, 3.0 * t ** -1.5))
    slope, err = rate_fit(series)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert err <= 1e-12


def test_rate_fit_constant_series():
    series = [(t, 2.0) for t in np.geomspace(1.0, 10.0, 6)]
    slope, err = rate_fit(series)
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_rate_fit_with_mild_noise():
    rng = np.random.default_rng(0)
    t = np.geomspace(1.0, 100.0, 40)
    v = t ** -1.0 * np.exp(rng.normal(0.0, 0.01, t.size))
    slope, err = rate_fit(list(zip(t, v)))
    assert slope == pytest.approx(-1.0, abs=0.02)
    assert err <= 0.01


def test_rate_fit_window_filters_samples():
    t = np.geomspace(1.0, 1000.0, 20)
    v = 5.0 * t ** -2.0
    # poison the early samples; the window must exclude them
    v[t < 10.0] = 1e6
    slope, _ = rate_fit(list(zip(t, v)), window=(10.0, 1000.0))
    assert slope == pytest.approx(-2.0, abs=1e-10)


def test_rate_fit_needs_enough_samples():
    with pytest.raises(FitError):
        rate_fit([(1.0, 1.0), (2.0, 0.5), (3.0, 0.3), (4.0, 0.2)])


def test_rate_fit_rejects_bad_series():
    good_t = np.geomspace(1.0, 10.0, 6)
    with pytest.raises(DomainError):
        rate_fit([(t, -1.0) for t in good_t])
    with pytest.raises(DomainError):
        rate_fit([(0.0, 1.0)] + [(t, 1.0) for t in good_t])
    with pytest.raises(DomainError):
        rate_fit([(2.0, v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)])
    for bad in ((2.0, np.nan), (np.inf, 0.5), (np.nan, 0.5), (3.0, np.inf),
                ("2.0", 0.5), (2.0, " 5e-1 "), (2.0, 0.5j)):
        with pytest.raises(DomainError):
            rate_fit([(t, 1.0 / t) for t in good_t] + [bad])
    with pytest.raises(DomainError):
        rate_fit([(str(t), str(1.0 / t)) for t in good_t])
    with pytest.raises(DomainError):
        rate_fit([(t, 1.0 / t) for t in good_t], window=("1", "10"))


# ---------------------------------------------------------- energy functionals

def test_energy_of_zero_field(small_grid):
    z = Field(small_grid, values=np.zeros((small_grid.n, small_grid.n)))
    e, d = energy_functionals(z, 2.0, EnergyCoefficients.from_scale())
    assert e == 0.0 and d == 0.0


def test_energy_at_anchor_time(small_grid):
    # at t = t0 every log factor vanishes, leaving the bare leading terms
    om = gaussian(small_grid) + eigenfunction(0, 1, small_grid)
    coef = EnergyCoefficients.from_scale()
    e, d = energy_functionals(om, coef.t0, coef)
    assert e == pytest.approx(float(weighted_norm(om, coef.m)) ** 2, rel=1e-12)
    want_d = (float(weighted_norm(om, coef.m, 1, 0)) ** 2 / (1.0 + coef.t0 ** 2)
              + float(weighted_norm(om, coef.m, 0, 1)) ** 2)
    assert d == pytest.approx(want_d, rel=1e-12)


def test_energy_term_sum(small_grid):
    # reconstruct both functionals term by term from their documented
    # tables of derivative orders, log powers, and ladder constants
    om = localized_field(small_grid, seed=11, corr=1.5)
    t = 2.0
    coef = EnergyCoefficients.from_scale()
    m = coef.m
    log = np.log(t / coef.t0)
    decay = 1.0 / (1.0 + t * t)
    cs = (1.0, coef.c1, coef.c2, coef.c3, coef.c4, coef.c5, coef.c6, coef.c7)

    def n2(a, b):
        return float(weighted_norm(om, m, a, b)) ** 2

    def inner(p, q):
        return float(weighted_inner(derivative(om, *p), derivative(om, *q), m))

    want_e = (n2(0, 0)
              + cs[1] * log * n2(0, 1)
              + cs[2] * log ** 2 * inner((1, 0), (0, 1))
              + cs[3] * log ** 3 * n2(1, 0)
              + cs[4] * log ** 2 * n2(0, 2)
              + cs[5] * log ** 4 * n2(1, 1)
              + cs[6] * log ** 5 * inner((2, 0), (1, 1))
              + cs[7] * log ** 6 * n2(2, 0))
    want_d = ((decay * n2(1, 0) + n2(0, 1))
              + cs[1] * log * (decay * n2(1, 1) + n2(0, 2))
              + cs[2] * log ** 2 * n2(1, 0)
              + cs[3] * log ** 3 * (decay * n2(2, 0) + n2(1, 1))
              + cs[4] * log ** 2 * (decay * n2(1, 2) + n2(0, 3))
              + cs[5] * log ** 4 * (decay * n2(2, 1) + n2(1, 2))
              + cs[6] * log ** 5 * n2(2, 0)
              + cs[7] * log ** 6 * (decay * n2(3, 0) + n2(2, 1)))
    e, d = energy_functionals(om, t, coef)
    assert e == pytest.approx(want_e, rel=1e-12)
    assert d == pytest.approx(want_d, rel=1e-12)


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


_TRANSFORMS = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2")


def _count_sampling(monkeypatch, calls):
    """Count derivative calls and every 2-D transform into calls."""
    for mod in (spectral, diagnostics):
        monkeypatch.setattr(mod, "derivative",
                            _counted(calls, "derivative", spectral.derivative))
    for name in _TRANSFORMS:
        monkeypatch.setattr(np.fft, name,
                            _counted(calls, name, getattr(np.fft, name)))


def test_energy_samples_each_derivative_once(small_grid, monkeypatch):
    # one Gram table: ten weighted samples (orders up to 3), the field's
    # own samples and one inverse real transform of its half spectrum per
    # nonzero order; no derivative Field, no complex transform and no
    # per-term norm calls. The field holds both representations, as
    # apply_semigroup leaves it.
    lf = localized_field(small_grid, seed=11, corr=1.5)
    om = Field(small_grid, values=lf.values, coeffs=lf.coeffs)
    calls = []
    _count_sampling(monkeypatch, calls)
    for mod in (spectral, diagnostics):
        for name in ("weighted_norm", "weighted_inner"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _forbidden)
    energy_functionals(om, 2.0, EnergyCoefficients.from_scale())
    assert calls.count("irfft2") == 9
    assert calls.count("derivative") == 0
    assert len(calls) == 9


class _PowerCount(np.ndarray):
    """Samples of <x>^2 that log the exponent of every power taken."""

    def __pow__(self, other):
        self.log.append(other)
        return np.asarray(self) ** other


@pytest.mark.parametrize("energy_m,powers", [(2.0, [1.0, 1.5]),
                                             (4.0, [1.0, 1.5, 2.0])])
def test_record_on_fp_decay_state_reads_samples_once(monkeypatch, energy_m,
                                                     powers):
    # the state apply_semigroup leaves holds values and coeffs, so record
    # transforms nothing but the energy pair's nine derivative samples,
    # calls no derivative, and forms each distinct weight power once
    grid = make_grid(16.0, 64, "selfsim")
    bracket = grid.bracket_sq.view(_PowerCount)
    bracket.log = []
    grid.__dict__["bracket_sq"] = bracket
    f0 = gaussian(grid) + 0.3 * eigenfunction(1, 0, grid)
    u = fokker_planck.apply_semigroup(f0, 0.5)
    state = SelfSimilarState(omega=u, t=2.0, nu=1.0, alpha=mass(f0))
    opts = RecordOptions(weight_exponents=(2.0, 3.0),
                         energy=EnergyCoefficients.from_scale(m=energy_m))
    calls = []
    _count_sampling(monkeypatch, calls)
    rec = record(state, opts)
    assert calls == ["irfft2"] * 9
    assert sorted(bracket.log) == powers
    assert np.isfinite(rec.energy) and np.isfinite(rec.dissipation)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_energy_raises_on_overflowing_samples(small_grid):
    # a cosine mode near the float maximum: its weighted samples and their
    # derivatives overflow, which must raise, not give a NaN or infinite
    # E or D
    c = np.zeros((small_grid.n,) * 2, dtype=complex)
    c[30, 0] = c[-30, 0] = 1e306
    om = Field(small_grid, coeffs=c)
    coef = EnergyCoefficients.from_scale()
    with pytest.raises(GridError):
        energy_functionals(om, 2.0, coef)
    state = SelfSimilarState(omega=om, t=2.0, nu=1.0)
    with pytest.raises(GridError):
        record(state, RecordOptions(energy=coef))


def test_energy_positive_for_valid_ladder(small_grid):
    om = localized_field(small_grid, seed=11, corr=1.5)
    coef = EnergyCoefficients.from_scale()
    for t in (1.0, 2.0, 10.0, 100.0):
        e, d = energy_functionals(om, t, coef)
        assert e >= 0.0
        assert d >= 0.0


def test_energy_rejects_time_before_anchor(small_grid):
    om = gaussian(small_grid)
    with pytest.raises(DomainError):
        energy_functionals(om, 0.5, EnergyCoefficients.from_scale(t0=1.0))


# ---------------------------------------------------------- coefficient ladder

def test_from_scale_default_is_valid():
    coef = EnergyCoefficients.from_scale()
    assert coef.c1 == pytest.approx(1e-3)
    assert coef.c2 == coef.c4
    # the boundary scale A = 10 hits several constraints exactly
    EnergyCoefficients.from_scale(10.0)


def test_from_scale_rejects_small_separation():
    with pytest.raises(DomainError):
        EnergyCoefficients.from_scale(9.0)


def test_ladder_validation():
    good = dict(c1=1e-3, c2=1e-5, c3=1e-6, c4=1e-5, c5=1e-9, c6=1e-11, c7=1e-12)
    EnergyCoefficients(**good)
    with pytest.raises(DomainError):
        EnergyCoefficients(**{**good, "c4": 2e-5})
    with pytest.raises(DomainError):
        EnergyCoefficients(**{**good, "c1": -1e-3})
    with pytest.raises(DomainError):
        EnergyCoefficients(**good, t0=0.0)
    with pytest.raises(DomainError):
        EnergyCoefficients(**good, m=1.0)
    # NaN passes every ordering check, so finiteness is checked first
    for name, bad in (("t0", np.nan), ("c3", np.nan), ("m", np.nan),
                      ("m", np.inf), ("t0", np.inf), ("c7", "1e-12")):
        with pytest.raises(DomainError):
            EnergyCoefficients(**{**good, name: bad})
    # chain satisfied but c2 << c1^2 fails
    with pytest.raises(DomainError):
        EnergyCoefficients(c1=0.1, c2=0.01, c3=1e-3, c4=0.01,
                           c5=1e-4, c6=1e-5, c7=1e-6)


# ---------------------------------------------------------------------- probes

def test_probe_gaussian_biot_savart(small_grid):
    G = gaussian(small_grid)
    rep = inequality_probe("biot_savart_linf", [G], [10.0])
    assert rep.kind == "biot_savart_linf"
    assert rep.params == {"m": 2.0}
    assert len(rep.entries) == 1
    assert rep.argmax == (0, 10.0)
    assert rep.max_ratio == rep.mean_ratio
    assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
    # recompute the single ratio from its definition
    t = 10.0
    psi = invert_frame_laplacian(G, t)
    gx = float(lp_norm(derivative(psi, 1, 0), np.inf))
    gy = float(lp_norm(derivative(psi, 0, 1), np.inf))
    bracket = np.sqrt(1.0 + t * t)
    lhs = gx + bracket * gy
    rhs = bracket ** 1.5 * np.sqrt(float(lp_norm(G, 4.0)) * float(lp_norm(G, 4.0 / 3.0)))
    assert rep.max_ratio == pytest.approx(lhs / rhs, rel=1e-12)


def test_probe_anisotropic_ratio_definition(small_grid):
    G = gaussian(small_grid)
    sigma = 0.25
    rep = inequality_probe("anisotropic_sigma", [G], [10.0], sigma=sigma)
    t = 10.0
    psi = invert_frame_laplacian(G, t)
    gx = float(lp_norm(derivative(psi, 1, 0), np.inf))
    gy = float(lp_norm(derivative(psi, 0, 1), np.inf))
    bracket = np.sqrt(1.0 + t * t)
    lhs = gx + bracket * gy
    rhs = (bracket ** (1.0 + sigma)
           * float(weighted_norm(G, 1.0)) ** (0.5 + sigma)
           * float(weighted_norm(G, 1.0, 1, 0)) ** (0.5 - sigma))
    assert rep.max_ratio == pytest.approx(lhs / rhs, rel=1e-12)


def test_probe_semigroup_ratios_bounded(small_grid):
    fields = [gaussian(small_grid), localized_field(small_grid, seed=2, corr=1.5)]
    rep = inequality_probe("semigroup_lp", fields, [0.5, 2.0, 10.0])
    assert len(rep.entries) == 6
    assert rep.max_ratio <= 10.0
    assert all(np.isfinite(r) for _, _, r in rep.entries)


def test_probe_is_deterministic(small_grid):
    fields = [gaussian(small_grid), localized_field(small_grid, seed=2, corr=1.5)]
    a = inequality_probe("biot_savart_linf", fields, [1.0, 10.0])
    b = inequality_probe("biot_savart_linf", fields, [1.0, 10.0])
    assert a.entries == b.entries
    assert a.max_ratio == b.max_ratio and a.argmax == b.argmax


def test_probe_skips_zero_fields_with_warning(small_grid):
    z = Field(small_grid, values=np.zeros((small_grid.n, small_grid.n)))
    G = gaussian(small_grid)
    with pytest.warns(RuntimeWarning):
        rep = inequality_probe("biot_savart_linf", [z, G], [10.0])
    assert [i for i, _, _ in rep.entries] == [1]


def test_probe_error_paths(small_grid):
    G = gaussian(small_grid)
    z = Field(small_grid, values=np.zeros((small_grid.n, small_grid.n)))
    with pytest.raises(DomainError):
        inequality_probe("no_such_probe", [G], [1.0])
    with pytest.raises(DomainError):
        inequality_probe("biot_savart_linf", [], [1.0])
    with pytest.raises(DomainError):
        inequality_probe("biot_savart_linf", [G], [1.0], m=1.0)
    with pytest.raises(DomainError):
        inequality_probe("anisotropic_sigma", [G], [1.0], sigma=0.5)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(DomainError):
            inequality_probe("biot_savart_linf", [z], [1.0])
