import numpy as np
import pytest

from shearvortex import CATALOG, make_field, make_grid, mass
from shearvortex.errors import DomainError, ResolutionError, TruncationError
from shearvortex.fokker_planck import eigenfunction, gaussian
from shearvortex.spectral import lp_norm


@pytest.fixture(scope="module")
def wide_frame_grid():
    # half width 20: wide enough for the frame Gaussian and the ladder
    # fields to clear the localization gate
    return make_grid(20.0, 256, "selfsim")


def test_catalog_contents():
    assert set(CATALOG) == {"gaussian", "dipole", "point_vortex_approx",
                            "random_localized", "eigenfunction"}


def test_gaussian_default_has_unit_mass(frame_grid):
    f = make_field("gaussian", frame_grid)
    assert mass(f) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_width_two_is_the_frame_gaussian(wide_frame_grid):
    f = make_field("gaussian", wide_frame_grid, params={"widths": 2.0})
    G = gaussian(wide_frame_grid)
    assert np.abs(f.values - G.values).max() <= 1e-15


def test_gaussian_amplitude_and_center(frame_grid):
    f = make_field("gaussian", frame_grid,
                   params={"amplitude": 0.3, "center": (1.0, -2.0)})
    assert mass(f) == pytest.approx(0.3, abs=1e-12)
    x, y = frame_grid.meshgrid()
    i = np.unravel_index(np.argmax(f.values), f.values.shape)
    assert (x[i], y[i]) == (1.0, -2.0)


def test_gaussian_rejects_bad_widths(frame_grid):
    with pytest.raises(DomainError):
        make_field("gaussian", frame_grid, params={"widths": -1.0})
    with pytest.raises(DomainError):
        make_field("gaussian", frame_grid, params={"center": (1.0, 2.0, 3.0)})


def test_dipole_mass_cancels(frame_grid):
    f = make_field("dipole", frame_grid)
    assert abs(mass(f)) <= 1e-14 * float(lp_norm(f, 1))


def test_dipole_antisymmetry(frame_grid):
    f = make_field("dipole", frame_grid)
    n = frame_grid.n
    mirrored = f.values[:, (-np.arange(n)) % n]
    assert np.abs(f.values + mirrored).max() <= 1e-15


def test_dipole_rejects_nonpositive_separation(frame_grid):
    with pytest.raises(DomainError):
        make_field("dipole", frame_grid, params={"separation": 0.0})


def test_point_vortex_carries_circulation(frame_grid):
    f = make_field("point_vortex_approx", frame_grid, params={"gamma": 2.0})
    assert mass(f) == pytest.approx(2.0, abs=1e-10)


def test_point_vortex_needs_resolved_core():
    coarse = make_grid(16.0, 64, "selfsim")  # spacing 0.5
    with pytest.raises(ResolutionError):
        make_field("point_vortex_approx", coarse)
    make_field("point_vortex_approx", coarse, params={"eps": 1.5})


def test_random_localized_is_seed_deterministic(frame_grid):
    a = make_field("random_localized", frame_grid, seed=7)
    b = make_field("random_localized", frame_grid, seed=7)
    c = make_field("random_localized", frame_grid, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_random_localized_amplitude_sets_peak(frame_grid):
    f = make_field("random_localized", frame_grid, seed=4,
                   params={"amplitude": 0.5})
    assert np.abs(f.values).max() == pytest.approx(0.5, rel=1e-14)


def test_random_localized_zero_mass_option(frame_grid):
    f = make_field("random_localized", frame_grid, seed=4,
                   params={"zero_mass": True})
    assert abs(mass(f)) <= 1e-12


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None, 1.0])
def test_zero_mass_accepts_only_booleans(frame_grid, value):
    with pytest.raises(DomainError) as info:
        make_field("random_localized", frame_grid, seed=4,
                   params={"zero_mass": value})
    assert "'zero_mass'" in str(info.value)
    off = make_field("random_localized", frame_grid, seed=4,
                     params={"zero_mass": np.False_})
    assert np.array_equal(off.values, make_field(
        "random_localized", frame_grid, seed=4).values)


def test_random_localized_rejects_bad_correlation(frame_grid):
    with pytest.raises(DomainError):
        make_field("random_localized", frame_grid, params={"correlation": 0.0})


def test_eigenfunction_entry_matches_ladder(wide_frame_grid):
    f = make_field("eigenfunction", wide_frame_grid, params={"a": 1, "b": 0})
    want = eigenfunction(1, 0, wide_frame_grid)
    assert np.array_equal(f.coeffs, want.coeffs)


@pytest.mark.parametrize("params, name", [
    ({"a": 1.7, "b": 0}, "a"), ({"a": 1, "b": 0.5}, "b"),
    ({"a": -1, "b": 1}, "a"), ({"a": 1, "b": -2.0}, "b"),
    ({"a": np.nan, "b": 0}, "a"), ({"a": 1, "b": np.inf}, "b"),
])
def test_eigenfunction_rejects_non_integral_orders(wide_frame_grid, params,
                                                    name):
    with pytest.raises(DomainError) as info:
        make_field("eigenfunction", wide_frame_grid, params=params)
    assert repr(name) in str(info.value)


def test_eigenfunction_accepts_integral_floats(wide_frame_grid):
    f = make_field("eigenfunction", wide_frame_grid,
                   params={"a": 1.0, "b": np.int64(0)})
    want = eigenfunction(1, 0, wide_frame_grid)
    assert np.array_equal(f.coeffs, want.coeffs)


def test_localization_gate(frame_grid):
    # the frame Gaussian itself is too wide for a half-width-16 box
    with pytest.raises(TruncationError) as info:
        make_field("gaussian", frame_grid, params={"widths": 2.0})
    assert info.value.tail > 1e-8
    with pytest.raises(TruncationError):
        make_field("eigenfunction", frame_grid)


def test_unknown_entry_and_leftover_params(frame_grid):
    with pytest.raises(DomainError):
        make_field("vortex_sheet", frame_grid)
    with pytest.raises(DomainError):
        make_field("gaussian", frame_grid, params={"amplitud": 1.0})
    with pytest.raises(DomainError):
        make_field("dipole", frame_grid, params={"gamma": 1.0})


def test_make_field_rejects_a_non_mapping_or_a_non_string_entry(frame_grid):
    # neither may escape as a raw ValueError
    with pytest.raises(DomainError):
        make_field("gaussian", frame_grid, params="amplitude=0.05")
    with pytest.raises(DomainError):
        make_field(np.zeros(3), frame_grid)


@pytest.mark.parametrize("seed", [1.7, "3", b"3", -1, np.nan, np.inf, "x",
                                  None, 1j])
def test_make_field_rejects_bad_seeds(frame_grid, seed):
    # a fraction used to be truncated (1.7 gave the seed-1 field) and a
    # numeric string parsed; negative and NaN seeds reached numpy
    for entry in ("gaussian", "random_localized"):
        with pytest.raises(DomainError):
            make_field(entry, frame_grid, seed)


def test_make_field_reads_integral_seeds_exactly(frame_grid):
    # an integral float is its integer, and integers past 2^53 are not
    # rounded through a float
    base = make_field("random_localized", frame_grid, 3)
    assert np.array_equal(
        make_field("random_localized", frame_grid, 3.0).values, base.values)
    assert np.array_equal(
        make_field("random_localized", frame_grid, np.int64(3)).values,
        base.values)
    big = 2 ** 60
    assert not np.array_equal(
        make_field("random_localized", frame_grid, big).values,
        make_field("random_localized", frame_grid, big + 1).values)
