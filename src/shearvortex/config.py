"""Run configuration: a line-oriented key = value document.

Comments start with '#', blank lines are ignored, every key appears at
most once, and unknown keys are rejected with the line/column of the
offender. serialize_config emits the canonical form: every key in a
fixed order with normalized value formatting, so parse/serialize round
trips are byte-stable.
"""

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError

MODES = ("simulate", "linear", "fp-decay", "picard", "probe")
TAIL_ACTIONS = ("error", "warn", "ignore")

_KEY_ORDER = ("mode", "nu", "grid_n", "grid_l", "t_init", "t_end", "dtau",
              "initial_data", "initial_params", "seed", "output_dir",
              "samples_per_decade", "weights", "on_tail", "snapshot_cadence")


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
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ":".join(_fmt_scalar(c) for c in v)
    return str(v)


def serialize_config(cfg):
    """Canonical text form: fixed key order, normalized values."""
    params = ", ".join(f"{k}={_fmt_scalar(v)}"
                       for k, v in sorted(cfg.initial_params.items()))
    values = {
        "mode": cfg.mode,
        "nu": repr(cfg.nu),
        "grid_n": str(cfg.grid_n),
        "grid_l": repr(cfg.grid_l),
        "t_init": repr(cfg.t_init),
        "t_end": repr(cfg.t_end),
        "dtau": repr(cfg.dtau),
        "initial_data": cfg.initial_data,
        "initial_params": params,
        "seed": str(cfg.seed),
        "output_dir": cfg.output_dir,
        "samples_per_decade": str(cfg.samples_per_decade),
        "weights": ", ".join(repr(w) for w in cfg.weights),
        "on_tail": cfg.on_tail,
        "snapshot_cadence": str(cfg.snapshot_cadence),
    }
    return "".join(f"{k} = {values[k]}\n" for k in _KEY_ORDER)


def _scalar(text, line, col):
    """Parse one scalar token: bool, int, float, pair, or bare string."""
    t = text.strip()
    if ":" in t:
        parts = t.split(":")
        return tuple(_scalar(p, line, col) for p in parts)
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def _parse_params(text, line, col):
    out = {}
    if not text.strip():
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ConfigError(f"malformed parameter {chunk.strip()!r} "
                              "(expected name=value)", line=line, column=col)
        name, _, val = chunk.partition("=")
        name = name.strip()
        if not name:
            raise ConfigError("empty parameter name", line=line, column=col)
        if name in out:
            raise ConfigError(f"duplicate parameter {name!r}", line=line,
                              column=col)
        out[name] = _scalar(val, line, col)
    return out


_CONVERTERS = {
    "mode": str, "nu": float, "grid_n": int, "grid_l": float,
    "t_init": float, "t_end": float, "dtau": float, "initial_data": str,
    "seed": int, "output_dir": str, "samples_per_decade": int,
    "on_tail": str, "snapshot_cadence": int,
}


def parse_config(text):
    """Parse a key = value document into a validated RunConfig."""
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
        if key not in _KEY_ORDER:
            raise ConfigError(f"unknown key {key!r}", line=lineno,
                              column=key_col)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno,
                              column=key_col)
        val_col = len(line) - len(line.partition("=")[2].lstrip()) + 1
        raw[key] = (val_part.strip(), lineno, val_col)

    kwargs = {}
    for key, (val, lineno, col) in raw.items():
        if key == "initial_params":
            kwargs[key] = _parse_params(val, lineno, col)
        elif key == "weights":
            try:
                weights = tuple(float(w) for w in val.split(",") if w.strip())
            except ValueError:
                raise ConfigError(f"weights must be numbers, got {val!r}",
                                  line=lineno, column=col) from None
            kwargs[key] = weights
        else:
            conv = _CONVERTERS[key]
            try:
                kwargs[key] = conv(val)
            except ValueError:
                raise ConfigError(
                    f"field {key!r} expects {conv.__name__}, got {val!r}",
                    line=lineno, column=col) from None
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Field-level validation; raises ConfigError naming the field."""
    def bad(fieldname, msg):
        raise ConfigError(f"field {fieldname!r}: {msg}")

    if cfg.mode not in MODES:
        bad("mode", f"must be one of {MODES}, got {cfg.mode!r}")
    for name in ("nu", "grid_l", "t_init", "t_end", "dtau"):
        if not math.isfinite(getattr(cfg, name)):
            bad(name, f"must be finite, got {getattr(cfg, name)!r}")
    if not cfg.nu > 0:
        bad("nu", f"viscosity must be positive, got {cfg.nu!r}")
    n = cfg.grid_n
    if n < 8 or n & (n - 1):
        bad("grid_n", f"must be a power of two >= 8, got {n!r}")
    if not cfg.grid_l > 0:
        bad("grid_l", "box half-width must be positive")
    t_floor = 0.0 if cfg.mode == "picard" else 1.0
    if cfg.t_init < t_floor:
        bad("t_init", f"must be >= {t_floor:g} for mode {cfg.mode!r}")
    if cfg.t_end <= cfg.t_init:
        bad("t_end", "must exceed t_init")
    if not cfg.dtau > 0:
        bad("dtau", "step must be positive")
    if cfg.samples_per_decade < 4:
        bad("samples_per_decade", "cadence must be at least 4")
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
    out = replace(cfg, **changes)
    validate_config(out)
    return out
