from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearvortex import (
    RunConfig,
    override_config,
    parse_config,
    serialize_config,
    validate_config,
)
from shearvortex.config import MODES, TAIL_ACTIONS
from shearvortex.errors import ConfigError

ROUND_TRIP = RunConfig(mode="fp-decay", nu=0.5, grid_n=128, grid_l=20.0,
                       t_init=1.0, t_end=50.0, dtau=1e-3,
                       initial_data="random_localized",
                       initial_params={"amplitude": 0.25, "zero_mass": True,
                                       "widths": (2.0, 1.0)},
                       seed=3, output_dir="out", samples_per_decade=8,
                       weights=(2.0, 4.0), on_tail="warn",
                       snapshot_cadence=5)


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.mode == "simulate"
    assert cfg.nu == 1.0
    assert (cfg.grid_n, cfg.grid_l) == (256, 16.0)
    assert (cfg.t_init, cfg.t_end) == (1.0, 100.0)
    assert cfg.weights == (2.0, 3.0)
    assert cfg.on_tail == "error"
    validate_config(cfg)


def test_serialize_parse_round_trip():
    assert parse_config(serialize_config(ROUND_TRIP)) == ROUND_TRIP


def test_canonical_text_is_pinned():
    # run directories keep config.txt; its exact text must not drift
    assert serialize_config(RunConfig()) == (
        "mode = simulate\n"
        "nu = 1.0\n"
        "grid_n = 256\n"
        "grid_l = 16.0\n"
        "t_init = 1.0\n"
        "t_end = 100.0\n"
        "dtau = 0.002\n"
        "initial_data = gaussian\n"
        "initial_params = \n"
        "seed = 0\n"
        "output_dir = \n"
        "samples_per_decade = 16\n"
        "weights = 2.0, 3.0\n"
        "on_tail = error\n"
        "snapshot_cadence = 0\n")
    assert serialize_config(ROUND_TRIP) == (
        "mode = fp-decay\n"
        "nu = 0.5\n"
        "grid_n = 128\n"
        "grid_l = 20.0\n"
        "t_init = 1.0\n"
        "t_end = 50.0\n"
        "dtau = 0.001\n"
        "initial_data = random_localized\n"
        "initial_params = amplitude=0.25, widths=2.0:1.0, zero_mass=true\n"
        "seed = 3\n"
        "output_dir = out\n"
        "samples_per_decade = 8\n"
        "weights = 2.0, 4.0\n"
        "on_tail = warn\n"
        "snapshot_cadence = 5\n")


def test_serialized_form_is_byte_stable():
    text = serialize_config(RunConfig(seed=2, initial_params={"b": 1, "a": 2.5}))
    again = serialize_config(parse_config(text))
    assert again == text


def test_numpy_scalars_serialize_like_python_floats():
    twin = RunConfig(nu=0.5, grid_l=20.0, weights=(2.0, 3.5))
    cfg = RunConfig(nu=np.float64(0.5), grid_l=np.float32(20.0),
                    weights=(np.float64(2.0), np.float64(3.5)))
    text = serialize_config(cfg)
    assert text == serialize_config(twin)
    assert parse_config(text) == twin
    assert serialize_config(parse_config(text)) == text


def test_parse_ignores_comments_blanks_and_order():
    text = """
# run setup
t_end = 10.0   # horizon
mode = linear

nu = 2.0
"""
    cfg = parse_config(text)
    assert (cfg.mode, cfg.nu, cfg.t_end) == ("linear", 2.0, 10.0)
    assert cfg.grid_n == 256  # untouched default


def test_parse_scalar_forms():
    cfg = parse_config(
        "initial_data = random_localized\n"
        "initial_params = amplitude=0.5, zero_mass=true, widths=2.0:1.0, "
        "label=blob\n")
    assert cfg.initial_params == {"amplitude": 0.5, "zero_mass": True,
                                  "widths": (2.0, 1.0), "label": "blob"}


def test_parse_reports_line_and_column():
    with pytest.raises(ConfigError) as info:
        parse_config("mode = linear\nnu = 1.0\nvorticity = 3\n")
    assert info.value.line == 3
    assert info.value.column == 1
    assert "unknown key" in str(info.value)

    with pytest.raises(ConfigError) as info:
        parse_config("nu = 1.0\nnu = 2.0\n")
    assert info.value.line == 2

    with pytest.raises(ConfigError) as info:
        parse_config("just some words\n")
    assert info.value.line == 1

    with pytest.raises(ConfigError) as info:
        parse_config("nu = fast\n")
    assert info.value.line == 1
    assert "nu" in str(info.value)


def test_parse_rejects_malformed_params():
    with pytest.raises(ConfigError):
        parse_config("initial_params = amplitude\n")
    with pytest.raises(ConfigError):
        parse_config("initial_params = a=1, a=2\n")
    with pytest.raises(ConfigError):
        parse_config("initial_params = =3\n")
    with pytest.raises(ConfigError):
        parse_config("weights = 2.0, fast\n")


@pytest.mark.parametrize("field,value", [
    ("mode", "turbo"),
    ("nu", 0.0),
    ("grid_n", 100),
    ("grid_n", 4),
    ("grid_l", -1.0),
    ("t_init", 0.5),
    ("t_end", 1.0),
    ("dtau", 0.0),
    ("samples_per_decade", 3),
    ("weights", ()),
    ("weights", (2.0, 15.0)),
    ("weights", (1.0, 3.0)),
    ("on_tail", "panic"),
    ("snapshot_cadence", -1),
    ("seed", -1),
    # resource bounds: grid size, sampling cadence, evolver steps
    ("grid_n", 4096),
    ("grid_n", 2 ** 20),
    ("samples_per_decade", 1001),
    ("samples_per_decade", 10 ** 12),
    ("dtau", 1e-6),
    # each value has its field's declared type, in a form whose
    # serialized text parses back
    ("grid_n", 128.0),
    ("nu", "1"),
    ("weights", (2.0, "x")),
    ("seed", 1.5),
    ("samples_per_decade", 4.5),
    ("snapshot_cadence", 1.5),
    ("grid_n", True),
    ("t_end", False),
    ("weights", (2.0, True)),
    ("weights", [2.0, 3.0]),
    ("mode", None),
    ("initial_params", "amplitude=0.5"),
    pytest.param("nu", 10 ** 400, id="nu-int-past-float-range"),
])
def test_validate_rejects_bad_fields(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert field in str(info.value)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["nu", "grid_l", "t_init", "t_end", "dtau"])
def test_validate_rejects_non_finite_fields(field, value):
    with pytest.raises(ConfigError) as info:
        validate_config(RunConfig(**{field: value}))
    assert f"{field!r}: must be finite" in str(info.value)


def test_validate_bounds_picard_window():
    # at most 1025 time samples, 8 per unit time
    validate_config(RunConfig(mode="picard", t_init=1.0, t_end=129.0))
    for t_end in (129.125, 1e12):
        with pytest.raises(ConfigError) as info:
            validate_config(RunConfig(mode="picard", t_end=t_end))
        assert "'t_end'" in str(info.value)
    # the evolver step bound applies where picard runs the frame evolver
    with pytest.raises(ConfigError):
        validate_config(RunConfig(mode="picard", t_end=2.0, dtau=1e-7))
    validate_config(RunConfig(mode="picard", t_init=0.0, t_end=2.0,
                              dtau=1e-7))


def test_picard_mode_admits_early_start():
    validate_config(RunConfig(mode="picard", t_init=0.5, t_end=1.0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(mode="simulate", t_init=0.5))


def test_override_config():
    cfg = RunConfig()
    out = override_config(cfg, t_end=None, nu=2.0, grid_n=None)
    assert out.nu == 2.0
    assert out.t_end == cfg.t_end
    with pytest.raises(ConfigError):
        override_config(cfg, nu=-1.0)


# ------------------------------------------------------------- properties

_KEYS = [f.name for f in fields(RunConfig)]
_LINE = st.tuples(st.sampled_from(_KEYS + ["bogus", ""]),
                  st.sampled_from([" = ", "=", " "]),
                  st.text(max_size=30)).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_LINE, max_size=8).map("\n".join)))
def test_parse_raises_only_config_errors(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


_WORD = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_SCALAR = st.one_of(
    st.booleans(), st.integers(),
    st.floats(allow_nan=False),
    _WORD.filter(lambda w: w not in ("true", "false", "inf", "nan",
                                     "infinity")))
_PARAM = st.one_of(_SCALAR, st.tuples(_SCALAR, _SCALAR))


@st.composite
def _valid_configs(draw):
    t_init = draw(st.floats(1.0, 1e3))
    weights = ((draw(st.floats(1.0, 12.0, exclude_min=True)),)
               + tuple(draw(st.lists(st.floats(0.0, 12.0), max_size=3))))
    return RunConfig(
        mode=draw(st.sampled_from(MODES)),
        nu=draw(st.floats(1e-300, 1e300)),
        grid_n=2 ** draw(st.integers(3, 11)),
        grid_l=draw(st.floats(1e-3, 1e3)),
        t_init=t_init,
        t_end=t_init + draw(st.floats(1e-3, 100.0)),
        dtau=draw(st.floats(1e-4, 1.0)),
        initial_data=draw(_WORD),
        initial_params=draw(st.dictionaries(_WORD, _PARAM, max_size=4)),
        seed=draw(st.integers(0, 2 ** 64)),
        output_dir=draw(st.text("abcxyz019_./-", max_size=12)),
        samples_per_decade=draw(st.integers(4, 1000)),
        weights=weights,
        on_tail=draw(st.sampled_from(TAIL_ACTIONS)),
        snapshot_cadence=draw(st.integers(0, 10 ** 6)))


@settings(max_examples=200, deadline=None)
@given(_valid_configs())
def test_valid_configs_round_trip_byte_stably(cfg):
    text = serialize_config(cfg)
    back = parse_config(text)
    assert back == cfg
    assert serialize_config(back) == text
