"""One measured shearvortex run in a fresh interpreter.

Usage: python3 perfbench/child.py --config FILE --out DIR [--trace]
       [--setup-only]

Parses the config as the command line front end does, creates the output
directory, then calls runner.run_experiment once. Prints one JSON line:
the CLOCK_MONOTONIC reading at the call (so the parent can subtract its
launch time to get set-up time), the call's wall and CPU time, the
process's peak resident set and, with --trace, the per-layer spans.
--setup-only stops just before the call.
"""

import argparse
import json
import os
import resource
import time


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import shearvortex.runner as runner
    from shearvortex.config import parse_config

    tracer = survivors = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        survivors = tracer.surviving_bindings()
    with open(args.config, encoding="ascii") as fh:
        cfg = parse_config(fh.read())
    os.makedirs(args.out)

    t_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_call": t_call}))
        return
    c0 = time.process_time()
    w0 = time.perf_counter()
    runner.run_experiment(cfg, output_dir=args.out)
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "t_call": t_call, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mib": peak_kib / 1024.0,
        "trace": tracer.report() if tracer else None,
        "survivors": survivors,
    }))


if __name__ == "__main__":
    main()
