"""Command line front end.

Each run subcommand reads an optional config file, applies flag
overrides, runs the experiment, and reports the output directory.
Exit codes: 0 success, 2 invalid input or snapshot, 3 solver failure,
4 resolution or spectral-support failure.
"""

import argparse
import sys
from dataclasses import fields

from .config import MODES, RunConfig, override_config, parse_config
from .errors import ConfigError, ShearVortexError
from .runner import resolve_output_dir, run_experiment
from .selfsim import TAIL_ACTIONS
from .snapshot import read_metadata


def _add_run_flags(sub):
    sub.add_argument("--config", metavar="FILE",
                     help="key = value config file")
    sub.add_argument("--nu", type=float, help="viscosity")
    sub.add_argument("--grid-n", type=int, dest="grid_n",
                     help="modes per direction (power of two)")
    sub.add_argument("--grid-l", type=float, dest="grid_l",
                     help="half width of the computational box")
    sub.add_argument("--t-init", type=float, dest="t_init",
                     help="start time")
    sub.add_argument("--t-end", type=float, dest="t_end", help="end time")
    sub.add_argument("--dtau", type=float, help="logarithmic step size")
    sub.add_argument("--initial-data", dest="initial_data",
                     help="catalog entry for the initial field")
    sub.add_argument("--seed", type=int, help="random seed")
    sub.add_argument("--on-tail", dest="on_tail",
                     choices=TAIL_ACTIONS,
                     help="action when the spectral tail grows too large")
    sub.add_argument("--out", metavar="DIR",
                     help="output directory (overrides config and "
                          "SHEARVORTEX_OUT)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="shearvortex",
        description="Spectral solver and diagnostics for planar vorticity "
                    "in a background shear flow.")
    subs = p.add_subparsers(dest="command", required=True)
    notes = {
        "simulate": "full nonlinear evolution in the self-similar frame",
        "linear": "linear evolution only (advection-diffusion part)",
        "fp-decay": "decay under the long-time limit semigroup",
        "picard": "mild-solution iteration on the physical grid",
        "probe": "empirical constants for the a priori inequalities",
    }
    for mode in MODES:
        sub = subs.add_parser(mode, help=notes[mode])
        _add_run_flags(sub)
    info = subs.add_parser("snapshot-info",
                           help="print the metadata of a snapshot file")
    info.add_argument("path", help="snapshot file")
    return p


def _load_config(args):
    if args.config:
        try:
            with open(args.config, "r", encoding="ascii") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {args.config} is not ASCII: {e}") from None
        cfg = parse_config(text)
    else:
        cfg = RunConfig()
    # a flag overrides the RunConfig field named by its dest
    overrides = {f.name: vars(args).get(f.name) for f in fields(RunConfig)}
    overrides["mode"] = args.command
    return override_config(cfg, **overrides)


def _snapshot_info(path):
    meta = read_metadata(path)
    for key in sorted(meta):
        print(f"{key}: {meta[key]}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "snapshot-info":
            return _snapshot_info(args.path)
        cfg = _load_config(args)
        code = run_experiment(cfg, output_dir=args.out)
        print(f"wrote {resolve_output_dir(cfg, args.out)}")
        return code
    except ShearVortexError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
