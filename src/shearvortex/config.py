"""Run configuration: a line-oriented key = value document.

Comments start with '#', blank lines are ignored, every key appears at
most once, and unknown keys are rejected with the line/column of the
offender. The keys are the fields of RunConfig, whose declared types
choose how values are parsed and formatted. serialize_config emits the
canonical form: every key in field order with normalized value
formatting, so parse/serialize round trips are byte-stable.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, check_real
from .propagator import MAX_PICARD_SAMPLES
from .selfsim import MAX_STEPS, TAIL_ACTIONS

MODES = ("simulate", "linear", "fp-decay", "picard", "probe")

# bounds on resource-sized requests, checked by validate_config; the
# library's evolve and picard_solve enforce MAX_STEPS and
# MAX_PICARD_SAMPLES themselves
MAX_GRID_N = 2048                 # modes per axis
MAX_SAMPLES_PER_DECADE = 1000


@dataclass(frozen=True)
class RunConfig:
    mode: str = "simulate"
    nu: float = 1.0
    grid_n: int = 256
    grid_l: float = 16.0
    t_init: float = 1.0
    t_end: float = 100.0
    dtau: float = 2e-3
    initial_data: str = "gaussian"
    initial_params: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = ""
    samples_per_decade: int = 16
    weights: tuple = (2.0, 3.0)
    on_tail: str = "error"
    snapshot_cadence: int = 0


def _fmt_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ":".join(_fmt_scalar(c) for c in v)
    return str(v)


def _scalar(text):
    """Parse one scalar token: bool, int, float, pair, or bare string."""
    t = text.strip()
    if ":" in t:
        return tuple(_scalar(p) for p in t.split(":"))
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    for conv in (int, float):
        try:
            return conv(t)
        except ValueError:
            pass
    return t


def _parse_params(text):
    out = {}
    if not text.strip():
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValueError(f"malformed parameter {chunk.strip()!r} "
                             "(expected name=value)")
        name, _, val = chunk.partition("=")
        name = name.strip()
        if not name:
            raise ValueError("empty parameter name")
        if name in out:
            raise ValueError(f"duplicate parameter {name!r}")
        out[name] = _scalar(val)
    return out


def _real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# How a value of each declared RunConfig field type is parsed (raising
# ValueError on text it cannot read) and formatted, and the test and noun
# of the values such a field takes: those serialize_config writes in a
# form parse_config reads back. NumPy scalars count as the Python numbers
# they stand for; floats are formatted as Python floats, so a NumPy
# scalar writes the same text as its float twin.
_ValueType = namedtuple("_ValueType", "parse format test noun")
_TYPES = {
    str: _ValueType(str, str, lambda v: isinstance(v, str), "a string"),
    int: _ValueType(int, str, lambda v: isinstance(v, numbers.Integral)
                    and not isinstance(v, bool), "an integer"),
    float: _ValueType(float, lambda v: repr(float(v)), _real, "a real number"),
    tuple: _ValueType(
        lambda text: tuple(float(w) for w in text.split(",") if w.strip()),
        lambda values: ", ".join(repr(float(w)) for w in values),
        lambda v: isinstance(v, tuple) and all(map(_real, v)),
        "a tuple of real numbers"),
    dict: _ValueType(_parse_params, lambda params: ", ".join(
        f"{k}={_fmt_scalar(v)}" for k, v in sorted(params.items())),
        lambda v: isinstance(v, dict), "a dict"),
}


def serialize_config(cfg):
    """Canonical text form: field order, values formatted by field type."""
    return "".join(f"{f.name} = {_TYPES[f.type].format(getattr(cfg, f.name))}\n"
                   for f in fields(RunConfig))


def parse_config(text):
    """Parse a key = value document into a validated RunConfig."""
    types = {f.name: f.type for f in fields(RunConfig)}
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        if not stripped.strip():
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno,
                              column=len(line) - len(line.lstrip()) + 1)
        key_part, _, val_part = stripped.partition("=")
        key = key_part.strip()
        key_col = line.index(key) + 1 if key else 1
        if not key:
            raise ConfigError("missing key before '='", line=lineno, column=1)
        if key not in types:
            raise ConfigError(f"unknown key {key!r}", line=lineno,
                              column=key_col)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno,
                              column=key_col)
        val_col = len(line) - len(line.partition("=")[2].lstrip()) + 1
        raw[key] = (val_part.strip(), lineno, val_col)

    kwargs = {}
    for key, (val, lineno, col) in raw.items():
        try:
            kwargs[key] = _TYPES[types[key]].parse(val)
        except ValueError as e:
            raise ConfigError(f"field {key!r}: {e}", line=lineno,
                              column=col) from None
    return validate_config(RunConfig(**kwargs))


def picard_samples(cfg):
    """Time samples of a picard run: eight per unit time, at least 17."""
    return max(17, math.ceil(8.0 * (cfg.t_end - cfg.t_init)) + 1)


def validate_config(cfg):
    """Field-level validation; raises ConfigError naming the field."""
    def bad(fieldname, msg):
        raise ConfigError(f"field {fieldname!r}: {msg}")

    for f in fields(RunConfig):
        value, value_type = getattr(cfg, f.name), _TYPES[f.type]
        if not value_type.test(value):
            bad(f.name, f"must be {value_type.noun}, got {value!r}")
    if cfg.mode not in MODES:
        bad("mode", f"must be one of {MODES}, got {cfg.mode!r}")
    for name in ("nu", "grid_l", "t_init", "t_end", "dtau"):
        # check_real reads an int too large for a float as an infinity
        if not math.isfinite(check_real(getattr(cfg, name), name)):
            bad(name, f"must be finite, got {getattr(cfg, name)!r}")
    if not cfg.nu > 0:
        bad("nu", f"viscosity must be positive, got {cfg.nu!r}")
    n = cfg.grid_n
    if n < 8 or n & (n - 1) or n > MAX_GRID_N:
        bad("grid_n", f"must be a power of two in [8, {MAX_GRID_N}], got {n!r}")
    if not cfg.grid_l > 0:
        bad("grid_l", "box half-width must be positive")
    t_floor = 0.0 if cfg.mode == "picard" else 1.0
    if cfg.t_init < t_floor:
        bad("t_init", f"must be >= {t_floor:g} for mode {cfg.mode!r}")
    if cfg.t_end <= cfg.t_init:
        bad("t_end", "must exceed t_init")
    if not cfg.dtau > 0:
        bad("dtau", "step must be positive")
    if not 4 <= cfg.samples_per_decade <= MAX_SAMPLES_PER_DECADE:
        bad("samples_per_decade",
            f"cadence must lie in [4, {MAX_SAMPLES_PER_DECADE}]")
    # the frame evolver runs in simulate and linear, and in picard from t = 1
    evolves = cfg.mode in ("simulate", "linear") or (
        cfg.mode == "picard" and cfg.t_init >= 1.0)
    if evolves and math.log(cfg.t_end / cfg.t_init) / cfg.dtau > MAX_STEPS:
        bad("dtau", f"ln(t_end/t_init) / dtau exceeds {MAX_STEPS:g} steps")
    # picard_samples(cfg) > MAX, without the count (which can overflow)
    if (cfg.mode == "picard"
            and 8.0 * (cfg.t_end - cfg.t_init) > MAX_PICARD_SAMPLES - 1):
        bad("t_end", f"picard window needs more than {MAX_PICARD_SAMPLES} "
                     "time samples (8 per unit time)")
    if not cfg.weights:
        bad("weights", "need at least one weight exponent")
    if any(not 0 <= w <= 12 for w in cfg.weights):
        bad("weights", "exponents must lie in [0, 12]")
    if cfg.weights[0] <= 1:
        bad("weights", "first exponent drives the energy pair; needs m > 1")
    if cfg.on_tail not in TAIL_ACTIONS:
        bad("on_tail", f"must be one of {TAIL_ACTIONS}")
    if cfg.snapshot_cadence < 0:
        bad("snapshot_cadence", "cadence must be >= 0")
    if cfg.seed < 0:
        bad("seed", "seed must be >= 0")
    return cfg


def override_config(cfg, **overrides):
    """Apply non-None overrides (CLI flags) and revalidate."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return validate_config(replace(cfg, **changes))
