import pytest

from shearvortex import (
    RunConfig,
    override_config,
    parse_config,
    serialize_config,
    validate_config,
)
from shearvortex.errors import ConfigError


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
    cfg = RunConfig(mode="fp-decay", nu=0.5, grid_n=128, grid_l=20.0,
                    t_init=1.0, t_end=50.0, dtau=1e-3,
                    initial_data="random_localized",
                    initial_params={"amplitude": 0.25, "zero_mass": True,
                                    "widths": (2.0, 1.0)},
                    seed=3, output_dir="out", samples_per_decade=8,
                    weights=(2.0, 4.0), on_tail="warn", snapshot_cadence=5)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialized_form_is_byte_stable():
    text = serialize_config(RunConfig(seed=2, initial_params={"b": 1, "a": 2.5}))
    again = serialize_config(parse_config(text))
    assert again == text


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
