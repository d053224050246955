"""shearvortex benchmark: end-to-end and per-layer metrics of the CLI modes.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Each measured run of the program is a fresh interpreter (perfbench/child.py)
that parses a config and calls runner.run_experiment once, because every
command line run pays import and set-up. Repeats, each followed by a few
set-up-only launches and calibration samples, continue while another one
would end within half a repeat of --seconds (default: run_seconds of
BENCHMARK.json); the first repeat always runs, even when it alone takes
longer. The figures are medians over the repeats.

--trace 0 reports the end-to-end metrics: wall_norm, cpu_norm, setup_s,
peak_rss_mib and rel_err. wall_norm and cpu_norm are a repeat's wall and
CPU time divided by the time of a fixed numpy kernel (perfbench/calib.py)
sampled before, during and after it, because the host's speed drifts more
between runs than the program's time does; the raw seconds are printed
above the result. --trace 1 alternates untraced and traced repeats and
reports the per-layer metrics of perfbench/tracer.py together with
trace.overhead. Both modes check every output (see gates below) and count
a repeat as failed on a non-zero exit, a failed gate or an artifact digest
(or, traced, a .calls count) that differs from the reference: the first
gated run of the same config and source tree, kept in perfbench/.cache, so
reruns are compared across runs as well as within one. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.

Run from anywhere inside a checkout that has src/shearvortex; scratch
output goes to perfbench/.work and the reference caches to perfbench/.cache,
both ignored by git.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import COUNTERS, FFT_LAYER, TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CACHE = BENCH / ".cache"

# Run lengths are cut from the figures in perfbench/README.md so that a
# repeat of sim and fpdecay fits several times into one run and picard
# (whose 17-sample minimum fixes its cost) once.
WORKLOADS = {
    "sim-n128": {
        "mode": "simulate", "initial_data": "random_localized",
        "initial_params": "amplitude=0.2", "grid_n": "128",
        "grid_l": "16.0", "t_end": "1.25", "dtau": "0.004"},
    "picard-n128": {
        "mode": "picard", "initial_data": "gaussian",
        "initial_params": "amplitude=0.05", "grid_n": "128",
        "grid_l": "20.0", "t_end": "1.25", "dtau": "0.004"},
    "fpdecay-n512": {
        "mode": "fp-decay", "initial_data": "eigenfunction",
        "initial_params": "a=1, b=0", "grid_n": "512", "grid_l": "20.0",
        "t_end": "3.2", "snapshot_cadence": "1"},
}

# BLAS and OpenMP pools pinned to one thread: with the default pool,
# complex np.linalg.norm in the evolver step keeps a second core spinning,
# which doubles cpu_s and makes wall_s depend on what else the host runs.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# set-up samples per run (repeats' own set-ups plus set-up-only launches),
# spread evenly between the repeats
SETUP_SAMPLES = 12
MAX_REPEATS = 50
# Calibration (perfbench/calib.py): CALIB_FIRST kernel samples before the
# first untraced repeat, one after every one, and one in every CALIB_EVERY_S
# of a repeat while the repeat is paused, so that a long repeat (picard,
# ~25 s) is calibrated throughout and not only at its ends. A repeat's
# kernel_s is the median of the samples during it and on either side.
CALIB_FIRST = 3
CALIB_EVERY_S = 2.0
CHILD_TIMEOUT_S = 150
ARTIFACTS = ("diagnostics.csv", "summary.txt", "final.snap")

# Only this initial data consumes the seed; the other workloads' outputs
# are the same for every seed, so their reference digests are shared.
SEEDED_DATA = ("random_localized",)

# correctness gates
PICARD_GAP_MAX = 1e-5
SIM_ERR_MAX = 1e-5
SIM_REF_DIVISOR = 8               # reference run at dtau / 8
SIM_ORDER_RATIO = (7.0, 9.0)      # err(dtau) / err(dtau/2) of a 3rd-order step
# The error of random_localized data varies 3x between seeds (measured:
# 2.4e-8 to 8.8e-8 over seeds 1-6), far wider than any bound, so sim's
# reported rel_err is that of one fixed datum; each run's own seed is still
# gated against its own dtau/8 reference.
SIM_FIXED_SEED = 0
FP_EXPONENT = -1.5                # eigenvalue of eigenfunction (1, 0)
FP_EXPONENT_TOL = 1e-3
FP_STATE_TOL = 1e-10
# rel_err below this is roundoff, not discretization error (fpdecay sits at
# ~1e-14); it reads as the floor so refactors that only reorder roundoff do
# not move the metric. The gates above use the raw values.
REL_ERR_FLOOR = 1e-12

END_TO_END = (("wall_norm", "ratio"), ("cpu_norm", "ratio"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("rel_err", "1"))

LAYERS = tuple(layer for layer, _, _ in TARGETS) + (FFT_LAYER,)

# inclusive spans whose share of run_experiment each workload's reason
# predicts; printed in trace mode
SHARES = ("selfsim.evolve", "propagator.picard_solve",
          "diagnostics.record", "fokker_planck.apply_semigroup",
          "selfsim.phys_to_selfsim", "snapshot.write_snapshot",
          "transforms.fft")


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead"] = "1"
    return units


class Failed(Exception):
    """A repeat or gate failed; the message says which."""


def config_text(workload, seed, **changes):
    cfg = dict(WORKLOADS[workload], seed=str(seed), **changes)
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment():
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy, "blas": blas, "threads": THREAD_ENV}


def run_seconds():
    """The measurement budget declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


@functools.cache
def source_digest():
    """Identity of the program under test: hash of every source file."""
    h = hashlib.sha256()
    for path in sorted((SRC / "shearvortex").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Launches children for one workload and seed; keeps their results."""

    def __init__(self, workload, seed):
        self.env = child_env()
        self.count = 0
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()

    def launch(self, cfg_text, trace=False, setup_only=False, keep=False,
               calib_n=None):
        """Run one child; returns its JSON record plus setup_s and, unless
        setup_only, the artifact digests and (keep=True) the output dir.
        With calib_n, the child is paused every CALIB_EVERY_S for one
        calibration sample at that grid size: the record's "kernels" holds
        them, and its wall_s and setup_s leave the paused time out (cpu_s
        never counts it)."""
        self.count += 1
        cfg = self.dir / f"run{self.count}.cfg"
        out = self.dir / f"run{self.count}"
        cfg.write_text(cfg_text, encoding="ascii")
        cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(cfg),
               "--out", str(out)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        pauses, kernels = [], []
        # files, not pipes: nothing reads a pipe while the child runs
        with open(self.dir / f"run{self.count}.stdout", "w+") as stdout, \
                open(self.dir / f"run{self.count}.stderr", "w+") as stderr:
            t_launch = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=stdout,
                                    stderr=stderr)
            try:
                self._supervise(proc, t_launch, calib_n, pauses, kernels)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            stdout.seek(0)
            stderr.seek(0)
            if proc.returncode != 0:
                tail = stderr.read().strip().splitlines()[-1:] or ["(no stderr)"]
                raise Failed(f"child exited {proc.returncode}: {tail[0]}")
            rec = json.loads(stdout.read().strip().splitlines()[-1])
        rec["setup_s"] = (rec["t_call"] - t_launch
                          - _paused(pauses, t_launch, rec["t_call"]))
        if "wall_s" in rec:
            rec["wall_s"] -= _paused(pauses, rec["t_call"],
                                     rec["t_call"] + rec["wall_s"])
        rec["kernels"] = kernels
        if not setup_only:
            rec["digest"] = {name: hashlib.sha256(
                (out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
        if keep:
            rec["out"] = out
        else:
            shutil.rmtree(out, ignore_errors=True)
        return rec

    def _supervise(self, proc, t_launch, calib_n, pauses, kernels):
        """Wait for proc; with calib_n, stop it every CALIB_EVERY_S, take
        one kernel sample and let it go on, noting the paused interval."""
        deadline = t_launch + CHILD_TIMEOUT_S
        while True:
            left = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.0, min(left, CALIB_EVERY_S)
                                      if calib_n else left))
                return
            except subprocess.TimeoutExpired:
                if not calib_n or time.monotonic() >= deadline:
                    raise Failed(f"child timed out after {CHILD_TIMEOUT_S} s"
                                 ) from None
            t_stop = time.monotonic()
            os.kill(proc.pid, signal.SIGSTOP)
            _, status = os.waitpid(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                # it ended before the stop; this wait has reaped it
                proc.returncode = os.waitstatus_to_exitcode(status)
                return
            try:
                kernels += self.calibrate(calib_n)
            finally:
                os.kill(proc.pid, signal.SIGCONT)
            pauses.append((t_stop, time.monotonic()))

    def calibrate(self, n, count=1):
        """Times of `count` calibration kernel samples at grid size n, one
        process each."""
        cmd = [sys.executable, str(BENCH / "calib.py"), "--n", str(n)]
        times = []
        while len(times) < count:
            try:
                proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S,
                                      check=True)
            except (subprocess.SubprocessError, OSError) as e:
                raise Failed(f"calibration kernel failed: {e}") from None
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                         ["kernel_s"])
        return times

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ------------------------------------------------------------------ gates

def summary_value(summary, key):
    for line in summary.splitlines():
        if line.startswith(key):
            return line[len(key):].strip()
    raise Failed(f"summary has no line {key!r}")


def _relative_l2(a, b):
    import numpy as np
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _final_values(out):
    from shearvortex.snapshot import read_snapshot
    return read_snapshot(str(out / "final.snap")).omega.values


def _paused(pauses, start, end):
    """Seconds of the (stop, resume) intervals that fall in [start, end]."""
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in pauses)


def _cache_path(name, key_text, suffix):
    key = hashlib.sha256((source_digest() + key_text).encode()).hexdigest()
    return CACHE / f"{name}-{key[:24]}{suffix}"


def _cached(name, key_text, compute):
    """compute() once per (key_text, source tree); the result is kept in
    perfbench/.cache as an .npz of named arrays."""
    import numpy as np
    path = _cache_path(name, key_text, ".npz")
    if path.exists():
        with np.load(path) as data:
            return {k: data[k] for k in data.files}
    arrays = compute()
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)
    return arrays


def load_reference(key_text):
    """The reference outputs of this config and source tree, or None."""
    path = _cache_path("outputs", key_text, ".json")
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def store_reference(key_text, value):
    CACHE.mkdir(parents=True, exist_ok=True)
    path = _cache_path("outputs", key_text, ".json")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def reference_key(workload, seed):
    """Config text that determines a workload's outputs."""
    seeded = WORKLOADS[workload]["initial_data"] in SEEDED_DATA
    return config_text(workload, seed if seeded else 0)


def sim_error(runner, seed, final):
    """Relative L2 distance of a sim final state to the dtau/8 run of the
    same seed, and err(dtau)/err(dtau/2), which is near 8 when the
    reference has converged."""
    dtau = float(WORKLOADS["sim-n128"]["dtau"])

    def references():
        states = {}
        for name, divisor in (("ref", SIM_REF_DIVISOR), ("half", 2)):
            rec = runner.launch(config_text("sim-n128", seed,
                                            dtau=repr(dtau / divisor)),
                                keep=True)
            states[name] = _final_values(rec["out"])
            shutil.rmtree(rec["out"], ignore_errors=True)
        return states

    refs = _cached("sim-ref", config_text("sim-n128", seed), references)
    err = _relative_l2(final, refs["ref"])
    return err, err / _relative_l2(refs["half"], refs["ref"])


def _check_sim(err, ratio):
    if not err <= SIM_ERR_MAX:
        raise Failed(f"sim error {err!r} > {SIM_ERR_MAX}")
    lo, hi = SIM_ORDER_RATIO
    if not lo <= ratio <= hi:
        raise Failed(f"err(dtau)/err(dtau/2) = {ratio!r} outside [{lo}, {hi}]:"
                     " reference not converged")


def sim_fixed_datum_error(runner):
    """sim rel_err on the datum of SIM_FIXED_SEED (see the constant)."""
    import numpy as np

    def compute():
        rec = runner.launch(config_text("sim-n128", SIM_FIXED_SEED), keep=True)
        final = _final_values(rec["out"])
        shutil.rmtree(rec["out"], ignore_errors=True)
        err, ratio = sim_error(runner, SIM_FIXED_SEED, final)
        _check_sim(err, ratio)
        return {"err": np.array(err)}

    return float(_cached("sim-fixed-err", config_text(
        "sim-n128", SIM_FIXED_SEED), compute)["err"])


def check_outputs(workload, out, runner, seed):
    """Apply the workload's gates to one output directory. Returns
    (rel_err before the floor, notes for the report)."""
    summary = (out / "summary.txt").read_text(encoding="ascii")
    if not summary.startswith("status: OK"):
        raise Failed(f"summary status: {summary.splitlines()[0]}")
    if workload == "picard-n128":
        gap = float(summary_value(
            summary, "sup relative L2 discrepancy picard vs frame evolver:"))
        if not gap <= PICARD_GAP_MAX:
            raise Failed(f"picard discrepancy {gap!r} > {PICARD_GAP_MAX}")
        return gap, {}
    if workload == "fpdecay-n512":
        slope = float(summary_value(
            summary, "fitted decay exponent of the L2(3) norm:").split()[0])
        if not abs(slope - FP_EXPONENT) <= FP_EXPONENT_TOL:
            raise Failed(f"fitted exponent {slope!r} not within "
                         f"{FP_EXPONENT_TOL} of {FP_EXPONENT}")
        from shearvortex.grid import make_grid
        from shearvortex.fokker_planck import eigenfunction
        cfg = WORKLOADS[workload]
        grid = make_grid(float(cfg["grid_l"]), int(cfg["grid_n"]), "selfsim")
        tau = math.log(float(cfg["t_end"]))  # t_init is 1
        exact = math.exp(FP_EXPONENT * tau) * eigenfunction(1, 0, grid).values
        err = _relative_l2(_final_values(out), exact)
        if not err <= FP_STATE_TOL:
            raise Failed(f"final state off exp(-1.5 tau) f0 by {err!r}")
        return err, {"fitted_exponent": slope}
    err, ratio = sim_error(runner, seed, _final_values(out))
    drift = float(summary_value(summary, "mass relative drift:"))
    notes = {"seed_rel_err": err, "order_ratio": ratio, "mass_drift": drift}
    _check_sim(err, ratio)
    if seed == SIM_FIXED_SEED:
        return err, notes
    return sim_fixed_datum_error(runner), notes


# ------------------------------------------------------------------ runs

def _calls(rec):
    return {k: v for k, v in rec["trace"].items() if k.endswith(".calls")}


def _problem(rec, ref):
    """Why a successful child's repeat still fails, or None. `ref` holds
    the reference digests and, once a traced repeat ran, .calls counts."""
    if rec["digest"] != ref["digest"]:
        return f"artifact digests differ from the reference: {rec['digest']}"
    if rec["trace"] is not None:
        if rec["survivors"]:
            return f"tracer left originals bound: {rec['survivors']}"
        ref.setdefault("calls", _calls(rec))
        if _calls(rec) != ref["calls"]:
            return "traced repeat disagrees with the reference .calls counts"
    return None


def measure(workload, seed, seconds, trace):
    """Run repeats for about `seconds`; returns the repeats as (traced,
    record or None, problem or None), the set-up samples and the gate
    results."""
    runner = Runner(workload, seed)
    text = config_text(workload, seed)
    key = reference_key(workload, seed)
    stored = load_reference(key)
    ref = dict(stored or {})
    n = int(WORKLOADS[workload]["grid_n"])
    try:
        start = time.monotonic()
        repeats, setups, first, probes = [], [], None, None
        kernels = [] if trace else runner.calibrate(n, CALIB_FIRST)
        while len(repeats) < MAX_REPEATS:
            t0 = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                keep = first is None and not traced
                try:
                    rec = runner.launch(text, trace=traced, keep=keep,
                                        calib_n=None if trace else n)
                except Failed as e:
                    repeats.append((traced, None, str(e)))
                    continue
                if keep:
                    first = rec
                if "digest" not in ref:
                    ref["digest"] = rec["digest"]
                problem = _problem(rec, ref)
                repeats.append((traced, rec, problem))
                if problem is None and not traced:
                    setups.append(rec["setup_s"])
            if not trace:
                done = repeats[-1][1]
                after = runner.calibrate(n)
                if done is not None:
                    done["kernel_s"] = statistics.median(
                        kernels + done["kernels"] + after)
                kernels = after
                if probes is None:
                    # spread SETUP_SAMPLES over the repeats that will fit
                    fit = max(1, int(seconds / (time.monotonic() - t0)))
                    probes = max(0, math.ceil(SETUP_SAMPLES / fit) - 1)
                setups += [runner.launch(text, setup_only=True)["setup_s"]
                           for _ in range(probes)]
            # another repeat if, by the last one's length, it ends within
            # half a repeat of the budget, so runs average `seconds`
            now = time.monotonic()
            if now - start + (now - t0) / 2 > seconds:
                break
        rel_err, notes, gate = None, {}, "no untraced repeat to gate"
        if first is not None:
            try:
                rel_err, notes = check_outputs(workload, first["out"], runner,
                                               seed)
                gate = None
            except Failed as e:
                gate = str(e)
            shutil.rmtree(first["out"], ignore_errors=True)
        if gate:
            # every repeat that passed so far shares the failed artifacts
            repeats = [(t, r, p or gate) for t, r, p in repeats]
        elif ref != stored:
            store_reference(key, ref)
        return repeats, setups, rel_err, notes
    finally:
        runner.close()


def _completed(repeats, traced):
    """Records of the repeats of one kind that ran to completion, those that
    passed every check if there are any."""
    done = [(r, p) for t, r, p in repeats if t == traced and r is not None]
    return [r for r, p in done if p is None] or [r for r, _ in done]


def _median(recs, key):
    return statistics.median(r[key] for r in recs)


def _spread(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    lo, hi = q[0], q[2]
    return f"median {statistics.median(values):.6g}  q1 {lo:.6g}  q3 {hi:.6g}" \
        f"  n {len(values)}"


def end_to_end(repeats, setups, rel_err):
    recs = _completed(repeats, False)
    if not recs:
        raise Failed("no repeat ran to completion")
    setup = setups or [r["setup_s"] for r in recs]
    for r in recs:
        r["wall_norm"] = r["wall_s"] / r["kernel_s"]
        r["cpu_norm"] = r["cpu_s"] / r["kernel_s"]
    values = {"wall_norm": _median(recs, "wall_norm"),
              "cpu_norm": _median(recs, "cpu_norm"),
              "setup_s": statistics.median(setup),
              "peak_rss_mib": _median(recs, "peak_rss_mib"),
              # outputs that failed their gates count as wholly wrong
              "rel_err": max(1.0 if rel_err is None else rel_err,
                             REL_ERR_FLOOR)}
    lines = [f"  {name:<13} {_spread(series)} ({unit})" for name, unit, series in (
        ("wall_s", "s", [r["wall_s"] for r in recs]),
        ("cpu_s", "s", [r["cpu_s"] for r in recs]),
        ("kernel_s", "s", [r["kernel_s"] for r in recs]),
        ("wall_norm", "ratio", [r["wall_norm"] for r in recs]),
        ("cpu_norm", "ratio", [r["cpu_norm"] for r in recs]),
        ("setup_s", "s", setup),
        ("peak_rss_mib", "MiB", [r["peak_rss_mib"] for r in recs]))]
    return values, lines


def per_layer(repeats):
    plain = _completed(repeats, False)
    traced = _completed(repeats, True)
    if not plain or not traced:
        raise Failed("trace mode needs an untraced and a traced repeat that completed")
    values = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead":
            values[name] = (_median(traced, "wall_s")
                            / _median(plain, "wall_s") - 1.0)
        elif unit == "s":
            values[name] = statistics.median(r["trace"][name] for r in traced)
        else:
            # counts repeat exactly across traced repeats (a gate checks it)
            values[name] = traced[0]["trace"][name]
    total = statistics.median(r["trace"]["runner.run_experiment.incl_s"]
                              for r in traced)
    lines = [f"  share of run_experiment, inclusive: {layer:<30} "
             f"{statistics.median(r['trace'][layer + '.incl_s'] for r in traced) / total:7.2%}"
             for layer in SHARES]
    lines.append(f"  trace.overhead {values['trace.overhead']!r} (1)")
    return values, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement budget (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "shearvortex" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'shearvortex'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = run_seconds() if args.seconds is None else args.seconds

    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + config_text(args.workload, args.seed).replace("\n", "; "))
    try:
        repeats, setups, rel_err, notes = measure(
            args.workload, args.seed, seconds, bool(args.trace))
    except Failed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted = len(repeats)
    failed = sum(1 for _, _, problem in repeats if problem is not None)
    print(f"  rel_err raw {rel_err!r}; reported {max(rel_err or 0.0, REL_ERR_FLOOR)!r} (1)"
          if rel_err is not None else "  rel_err: n/a (gate failed)")
    for key, value in notes.items():
        print(f"  {key}: {value!r}")
    print(f"  fail_frac {failed / attempted!r} ({failed} of {attempted}) (1)")
    for _, _, problem in repeats:
        if problem:
            print(f"  failure: {problem}")
    try:
        if args.trace:
            values, lines = per_layer(repeats)
            units = per_layer_units()
        else:
            values, lines = end_to_end(repeats, setups, rel_err)
            units = dict(END_TO_END)
    except Failed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
