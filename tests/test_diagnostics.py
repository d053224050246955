import tracemalloc

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
from oracles import energy_per_order


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


# a window of one entry, a series of 3-tuples and no series at all used to
# fail with a bare ValueError or TypeError from unpacking
@pytest.mark.parametrize("series, window", [
    ([(t, 1.0 / t) for t in range(1, 7)], (1.0,)),
    ([(t, 1.0 / t, 0.0) for t in range(1, 7)], None),
    (None, None)])
def test_rate_fit_rejects_malformed_input(series, window):
    with pytest.raises(DomainError):
        rate_fit(series, window)


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
_AXIS_TRANSFORMS = ("fft", "ifft", "rfft", "irfft")


def _counted_axis(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(f"{name}/{kwargs.get('axis', -1)}")
        return fn(*args, **kwargs)
    return wrapper


def _count_sampling(monkeypatch, calls):
    """Count derivative calls and every transform into calls; a one-axis
    transform is logged with its axis, as "ifft/0"."""
    for mod in (spectral, diagnostics):
        monkeypatch.setattr(mod, "derivative",
                            _counted(calls, "derivative", spectral.derivative))
    for name in _TRANSFORMS:
        monkeypatch.setattr(np.fft, name,
                            _counted(calls, name, getattr(np.fft, name)))
    for name in _AXIS_TRANSFORMS:
        monkeypatch.setattr(np.fft, name,
                            _counted_axis(calls, name, getattr(np.fft, name)))


# the energy pair's nine derivative samples: per x-order a = 0..3, one
# axis-0 inverse transform, then one axis-1 inverse real transform per
# order (a, b) of the Gram table (3, 3, 2 and 1 of them)
_PASS_CALLS = [c for count in (3, 3, 2, 1)
               for c in ["ifft/0"] + ["irfft/1"] * count]


def test_energy_samples_each_derivative_once(small_grid, monkeypatch):
    # one Gram table: ten weighted samples (orders up to 3), the field's
    # own samples and the nine derivatives of its half spectrum from four
    # axis-0 inverse transforms, shared by the nine axis-1 inverse real
    # transforms; no derivative Field, no 2-D transform and no per-term
    # norm calls. The field holds both representations, so its own
    # samples cost no transform.
    lf = localized_field(small_grid, seed=11, corr=1.5)
    om = Field(small_grid, values=lf.values, coeffs=lf.coeffs)
    calls = []
    _count_sampling(monkeypatch, calls)
    for mod in (spectral, diagnostics):
        for name in ("weighted_norm", "weighted_inner"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _forbidden)
    energy_functionals(om, 2.0, EnergyCoefficients.from_scale())
    assert calls.count("ifft/0") == 4
    assert calls.count("irfft/1") == 9
    assert calls.count("derivative") == 0
    assert len(calls) == 13


@pytest.mark.parametrize("energy_m,powers", [(2.0, [2.0, 3.0]),
                                             (4.0, [2.0, 3.0, 4.0])])
def test_record_on_fp_decay_state_reads_samples_once(monkeypatch, energy_m,
                                                     powers):
    # the state apply_semigroup leaves holds its half spectrum only, so
    # record transforms nothing but its samples, once, by axes, and the
    # energy pair's nine derivative samples, whose x-order-0 ones share
    # the samples' axis-0 transform (four axis-0 transforms in all, and
    # ten axis-1 ones), calls no derivative, and forms each distinct
    # weight power once (the log holds the exponent m of each weight
    # spectral forms)
    grid = make_grid(16.0, 64, "selfsim")
    log = []

    def counted(grid, m, _form=spectral.weight_samples):
        log.append(m)
        return _form(grid, m)

    monkeypatch.setattr(spectral, "weight_samples", counted)
    f0 = gaussian(grid) + 0.3 * eigenfunction(1, 0, grid)
    u = fokker_planck.apply_semigroup(f0, 0.5)
    state = SelfSimilarState(omega=u, t=2.0, nu=1.0, alpha=mass(f0))
    opts = RecordOptions(weight_exponents=(2.0, 3.0),
                         energy=EnergyCoefficients.from_scale(m=energy_m))
    calls = []
    _count_sampling(monkeypatch, calls)
    rec = record(state, opts)
    assert calls == ["ifft/0", "irfft/1"] + _PASS_CALLS[1:]
    assert sorted(log) == powers
    assert np.isfinite(rec.energy) and np.isfinite(rec.dissipation)
    # the same state sampled by its caller, who hands over the axis-0
    # stage (fp-decay's worker samples, its main thread records): record
    # takes no transform of x-order 0, and gives the same record
    handed = SelfSimilarState(omega=fokker_planck.apply_semigroup(f0, 0.5),
                              t=2.0, nu=1.0, alpha=mass(f0))
    _, stage = spectral.sample_values(handed.omega)
    calls.clear()
    assert repr(record(handed, opts, mixed0=stage)) == repr(rec)
    assert calls == _PASS_CALLS[1:]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_energy_raises_on_overflowing_samples(small_grid):
    # a cosine mode near the float maximum: its weighted samples and their
    # derivatives overflow, which must raise, not give a NaN or infinite
    # E or D, nor an infinite norm column when record takes no energy
    c = np.zeros((small_grid.n, small_grid.half_cols), dtype=complex)
    c[30, 0] = c[-30, 0] = 1e306
    om = Field(small_grid, coeffs=c)
    coef = EnergyCoefficients.from_scale()
    with pytest.raises(GridError):
        energy_functionals(om, 2.0, coef)
    state = SelfSimilarState(omega=om, t=2.0, nu=1.0)
    for opts in (RecordOptions(energy=coef), RecordOptions()):
        with pytest.raises(GridError):
            record(state, opts)


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


@pytest.mark.parametrize("t", [np.nan, np.inf, "2", 2 + 0j])
def test_energy_rejects_times_that_are_not_finite_reals(small_grid, t):
    with pytest.raises(DomainError):
        energy_functionals(gaussian(small_grid), t,
                           EnergyCoefficients.from_scale())


@pytest.mark.parametrize("n", [16, 64, 128])
def test_energy_pass_matches_per_order_transforms(n):
    # the pass's row-column split against one irfft2 per derivative
    # order
    grid = make_grid(16.0, n, "selfsim")
    om = localized_field(grid, seed=n, corr=1.5)
    for m in (2.0, 3.0):
        coef = EnergyCoefficients.from_scale(m=m)
        for t in (1.0, 2.0, 30.0):
            got = energy_functionals(om, t, coef)
            want = energy_per_order(om, t, coef)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * abs(w), (m, t, g, w)


def test_energy_call_holds_at_most_five_arrays(frame_grid):
    # the samples stream through the Gram table: the weight, the pass's
    # two complex buffers, one sample and at most one earlier cross factor
    om = localized_field(frame_grid, seed=5, corr=1.5)
    coef = EnergyCoefficients.from_scale()
    energy_functionals(om, 2.0, coef)      # caches the Field's transforms
    tracemalloc.start()
    try:
        energy_functionals(om, 2.0, coef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * om.values.nbytes, peak / om.values.nbytes


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


@pytest.mark.parametrize("A", ["10", None])
def test_energy_scale_must_be_a_real_number(A):
    with pytest.raises(DomainError):
        EnergyCoefficients.from_scale(A)


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


@pytest.mark.parametrize("case", ["no ensemble", "no times", "arrays",
                                  "string times"])
def test_probe_rejects_malformed_ensembles_and_times(small_grid, case):
    G = gaussian(small_grid)
    ensemble, times = {"no ensemble": (None, [1.0]), "no times": ([G], None),
                       "arrays": ([G.values], [1.0]),
                       "string times": ([G], ["1"])}[case]
    with pytest.raises(DomainError):
        inequality_probe("biot_savart_linf", ensemble, times)


@pytest.mark.parametrize("kind, bad", [
    ("biot_savart_linf", {"m": "3"}), ("biot_savart_linf", {"m": 3j}),
    ("biot_savart_linf", {"m": None}),
    ("anisotropic_sigma", {"sigma": "0.2"}),
    ("anisotropic_sigma", {"sigma": b"0.2"}),
    ("anisotropic_sigma", {"sigma": None})])
def test_probe_rejects_non_real_parameters(small_grid, kind, bad):
    # m <= 1 and 0 < sigma used to raise a bare TypeError on these
    with pytest.raises(DomainError):
        inequality_probe(kind, [gaussian(small_grid)], [1.0], **bad)


@pytest.mark.parametrize("m", [np.nan, np.inf])
def test_probe_rejects_non_finite_m_before_any_work(small_grid, monkeypatch, m):
    # these passed the m > 1 check, and the run then failed inside lp_norm
    # with a message that named neither the probe nor m
    def fail(*args):
        raise AssertionError("probe ratio taken before m was checked")

    monkeypatch.setattr(diagnostics, "_ratio_biot_savart", fail)
    with pytest.raises(DomainError, match="biot-savart probe needs a finite m"):
        inequality_probe("biot_savart_linf", [gaussian(small_grid)], [1.0], m=m)
