"""Experiment orchestration: build initial data, run the configured
solver, sample it, stream diagnostics to CSV, snapshot states, and
summarize fits.

The runner owns the sampling: simulate and linear evolve the frame state
from one time of sample_schedule to the next, fp-decay applies the limit
semigroup at those times, and picard's cross-check evolves to each of the
mild solution's time samples; each sampled state goes to the recorder.

Threads. Two modes run work off the main thread, both through one
primitive, _one_ahead: a context manager that starts one worker thread
on entry, which computes the items of a generator in an arena scope of
its own (spectral.arena_scope) at most one item ahead of the reader,
and which closes the generator on its own thread and is joined on exit,
before the run returns or raises. fp-decay flows its initial field
through one fokker_planck.semigroup_flow over the run's times; no flow
reads the previous sample's record, so the worker flows sample i + 1,
samples it (spectral.sample_values, its axis-0 stage in a new array
that goes with the state) and, for each sample a snapshot is written
of, encodes it, payload hash included (snapshot.encode_snapshot), while
the main thread records sample i from its samples and stage (record's
mixed0) in its own run-long scope. The cadence that picks those
samples is the recorder's (_Recorder.writes). picard's cross-check
needs only the initial field and the sample times
(propagator.picard_times), so from t_init >= 1 the two solvers run at
once (_cross_checked): the worker's one item is picard_solve, whose
time-grid tables (spectral.solve_memo) live on the worker for the solve
alone, and the frame image of each Picard field, while the main thread
runs the frame evolver's chain and each state's record, with no
run-long scope, and reads the item once the chain is done. Each side keeps only the
samples the gap of the two solvers reads (a chain state only when its
snapshot is written); then the samples are committed, and the first
failure in the order of a one-thread run is raised. The main thread
writes every CSV row and snapshot file, in sample order. simulate,
linear, probe and picard from t_init < 1 start no thread, and the main
thread samples, hashes and writes each of their snapshots.

Outputs are a pure function of (config, seed): floats are serialized
with repr (shortest round-trip form), each reduction runs in one thread
(fp-decay's flow, samples and snapshot hashes, picard's solve and its
fields' frame images on the worker, all else on the main thread) in a
fixed order, and random fields come from a seeded generator, so a rerun
with the same config reproduces every artifact byte for byte.
"""

import os
import threading
from contextlib import closing, contextmanager

import numpy as np

from .config import picard_samples, serialize_config, validate_config
from .diagnostics import (
    _PROBES,
    P_GRID,
    EnergyCoefficients,
    RecordOptions,
    inequality_probe,
    rate_fit,
    record,
)
from .errors import ShearVortexError
from .fokker_planck import semigroup_flow
from .grid import make_grid
from .initial_data import make_field
from .propagator import picard_solve, picard_times
from .selfsim import (
    SelfSimilarState,
    amplitude,
    evolve,
    phys_to_selfsim,
    sample_schedule,
)
from .snapshot import encode_snapshot, write_snapshot
from .spectral import arena_scope, lp_norm, lp_samples, mass, sample_values

PROBE_ENSEMBLE_SIZE = 10
PROBE_TIMES = 5
LOCAL_FIT_SAMPLES = 5  # samples of the summary's local convergence exponent
MASS_FLOOR = 1e-12     # |mass| / L1 norm below which the mass is roundoff


def _fmt_m(m):
    return str(int(m)) if float(m).is_integer() else repr(float(m))


def _columns(weights):
    """(header, value of a record) for each column of diagnostics.csv."""
    return ([("t", lambda r: r.t), ("tau", lambda r: r.tau),
             ("mass", lambda r: r.mass)]
            + [(name, lambda r, p=p: r.lp_norms[p])
               for name, p in zip(("L1", "L43", "L2", "Linf"), P_GRID)]
            + [(f"conv_L2m_{_fmt_m(m)}", lambda r, m=m: r.convergence_L2m[m])
               for m in weights]
            + [("conv_L1_phys", lambda r: r.convergence_L1_phys),
               ("E", lambda r: r.energy), ("D", lambda r: r.dissipation)])


def _csv_rows(records, weights):
    columns = _columns(weights)
    lines = [",".join(header for header, _ in columns)]
    lines += [",".join(repr(value(r)) for _, value in columns)
              for r in records]
    return "\n".join(lines) + "\n"


def resolve_output_dir(cfg, override=None):
    """Priority: explicit override, config value, environment, ./runs."""
    return (override or cfg.output_dir
            or os.environ.get("SHEARVORTEX_OUT") or "runs")


def _try_fit(series, window):
    try:
        slope, err = rate_fit(series, window)
        return f"{slope!r} (stderr {err!r})"
    except ShearVortexError:
        return "n/a (series not fittable in window)"


def _measured_onset(records, key_m):
    """Earliest sample time from which conv_L2m decreases to the end."""
    vals = [r.convergence_L2m[key_m] for r in records]
    onset = None
    for i in range(len(vals) - 1, 0, -1):
        if vals[i - 1] < vals[i] * (1.0 - 1e-12):
            break
        onset = records[i - 1].t
    if onset is None and len(vals) >= 2:
        onset = records[-1].t
    return onset


class _Recorder:
    """Records each sampled state as the run streams it and writes
    snapshots, so partial output survives a mid-run solver failure."""

    def __init__(self, opts, outdir, cadence):
        self.opts = opts
        self.outdir = outdir
        self.cadence = cadence
        self.records = []
        self.index = 0

    def __call__(self, state):
        return self.commit(record(state, self.opts), state)

    def writes(self, index):
        """Whether the snapshot cadence writes sample index."""
        return bool(self.cadence) and index % self.cadence == 0

    def commit(self, rec, snapshot):
        """Keep rec as the next sample, and write snapshot, its state or
        that state's encoding (snapshot.encode_snapshot), if the cadence
        writes the sample; snapshot may be None if it does not."""
        self.records.append(rec)
        if self.writes(self.index):
            write_snapshot(snapshot, os.path.join(
                self.outdir, f"state_{self.index:05d}.snap"))
        self.index += 1
        return rec


def run_experiment(cfg, output_dir=None):
    """Run one experiment; returns 0 and leaves its artifacts in the
    output directory.

    Every mode writes config.txt, diagnostics.csv (one row per recorded
    sample) and summary.txt (headed by ``status: OK`` and ``mode:``).
    simulate, linear and fp-decay also write final.snap, the last frame
    state, and picard its last physical field; these four write every
    ``snapshot_cadence``-th recorded sample as state_*.snap (state_00000
    on). probe writes probes.csv and records no samples.

    A solver failure still writes the samples recorded so far, a summary
    headed ``status: FAILED`` and, when the error carries one, the last
    stable state as last_stable.snap; the error then propagates.

    The config is validated first (ConfigError), before any output.
    """
    validate_config(cfg)
    outdir = resolve_output_dir(cfg, output_dir)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.txt"), "w", encoding="ascii") as fh:
        fh.write(serialize_config(cfg))
    run = {"simulate": _run_evolution, "linear": _run_evolution,
           "fp-decay": _run_fp_decay, "picard": _run_picard,
           "probe": _run_probe}[cfg.mode]
    recorder = _Recorder(_record_options(cfg), outdir, cfg.snapshot_cadence)
    try:
        final, lines = run(cfg, recorder)
    except ShearVortexError as exc:
        lines = [f"status: FAILED {type(exc).__name__}: {exc}",
                 f"samples recorded before failure: {len(recorder.records)}"]
        last = getattr(exc, "last_state", None)
        if last is not None:
            write_snapshot(last, os.path.join(outdir, "last_stable.snap"))
            lines.append("last stable state written to last_stable.snap")
        _write_outputs(outdir, cfg, recorder.records, lines)
        raise
    if final is not None:
        write_snapshot(final, os.path.join(outdir, "final.snap"))
    _write_outputs(outdir, cfg, recorder.records,
                   ["status: OK", f"mode: {cfg.mode}"] + lines)
    return 0


def _record_options(cfg):
    # picard may start before t = 1, where no frame state exists; every
    # state a run records has t >= 1, so the energy pair is anchored there
    return RecordOptions(
        weight_exponents=cfg.weights,
        energy=EnergyCoefficients.from_scale(10.0, t0=max(cfg.t_init, 1.0),
                                             m=cfg.weights[0]))


def _write_outputs(outdir, cfg, records, summary_lines):
    with open(os.path.join(outdir, "diagnostics.csv"), "w",
              encoding="ascii") as fh:
        fh.write(_csv_rows(records, cfg.weights))
    with open(os.path.join(outdir, "summary.txt"), "w",
              encoding="ascii") as fh:
        fh.write("\n".join(summary_lines) + "\n")


def _initial_state(cfg, frame_grid):
    """Catalog data is physical except eigenfunctions, which live in the
    frame already."""
    if cfg.initial_data == "eigenfunction":
        f = make_field(cfg.initial_data, frame_grid, cfg.seed,
                       params=cfg.initial_params)
        return SelfSimilarState(omega=f, t=cfg.t_init, nu=cfg.nu)
    phys_grid = make_grid(cfg.grid_l, cfg.grid_n)
    f = make_field(cfg.initial_data, phys_grid, cfg.seed,
                   params=cfg.initial_params)
    return phys_to_selfsim(f, cfg.t_init, cfg.nu, frame_grid)


def _mass_drift(first, last):
    """|m_end/m_0 - 1|; for data whose mass is roundoff (|m_0| at most
    MASS_FLOOR times its L1 norm), |m_end - m_0| over that L1 norm."""
    m0, l1 = first.mass, first.lp_norms[1.0]
    if abs(m0) > MASS_FLOOR * l1:
        return abs(last.mass / m0 - 1.0)
    return abs(last.mass - m0) / l1 if l1 > 0 else abs(last.mass)


def _run_evolution(cfg, recorder):
    frame_grid = make_grid(cfg.grid_l, cfg.grid_n, "selfsim")
    state = _initial_state(cfg, frame_grid)
    recorder(state)
    for tau in sample_schedule(cfg.t_init, cfg.t_end,
                               cfg.samples_per_decade)[1:]:
        state = evolve(state, float(np.exp(tau)), cfg.dtau,
                       nonlinear=cfg.mode == "simulate", on_tail=cfg.on_tail)
        recorder(state)
    recs = recorder.records
    m0 = cfg.weights[0]
    mass_drift = _mass_drift(recs[0], recs[-1])
    l1 = [r.lp_norms[1.0] for r in recs]
    worst_l1_rise = max((l1[i + 1] / l1[i] - 1.0 for i in range(len(l1) - 1)
                         if l1[i] > 0), default=0.0)
    late = (cfg.t_end / 10.0, cfg.t_end)
    conv_series = [(r.t, r.convergence_L2m[m0]) for r in recs]
    low = min(conv_series, key=lambda p: p[1])
    growth_series = [(r.t, r.weighted[(m0, 0, 0)]) for r in recs]
    # physical-frame sup norm via the amplitude factor (exact identity)
    linf_phys = [(r.t, r.lp_norms[np.inf] / amplitude(r.t, cfg.nu))
                 for r in recs]
    return state, [
        f"samples: {len(recs)}",
        f"mass initial: {recs[0].mass!r}",
        f"mass relative drift: {mass_drift!r}",
        f"worst relative L1 rise per sample: {worst_l1_rise!r}",
        f"conv_L2m_{_fmt_m(m0)} final: {recs[-1].convergence_L2m[m0]!r}",
        f"conv_L2m_{_fmt_m(m0)} minimum: {low[1]!r} at t = {low[0]!r}",
        "local exponent conv_L2m_" + _fmt_m(m0)
        + f" over last {LOCAL_FIT_SAMPLES} samples: "
        + _try_fit(conv_series[-LOCAL_FIT_SAMPLES:], None),
        "fitted exponent conv_L2m_" + _fmt_m(m0)
        + f" over last decade: {_try_fit(conv_series, late)}",
        "fitted exponent weighted L2(m) growth over [10, t_end]: "
        + _try_fit(growth_series, (10.0, cfg.t_end)),
        "fitted exponent physical sup norm over [10, t_end]: "
        + _try_fit(linf_phys, (10.0, cfg.t_end)),
        f"measured convergence onset t: {_measured_onset(recs, m0)!r}",
    ]


def _run_fp_decay(cfg, recorder):
    """Decay of the limit semigroup from frame initial data, sampled on the
    evolver's schedule; time column is t = t_init e^tau."""
    frame_grid = make_grid(cfg.grid_l, cfg.grid_n, "selfsim")
    f0 = make_field(cfg.initial_data, frame_grid, cfg.seed,
                    params=cfg.initial_params)
    alpha = float(mass(f0))
    f0.coeffs       # formed here: the worker and record both read them
    taus = sample_schedule(cfg.t_init, cfg.t_end, cfg.samples_per_decade)
    taus = [s - taus[0] for s in taus]
    last = len(taus) - 1

    def sampled():
        """Each state of f0's flow over taus, sampled, with its axis-0
        stage, a new array as the main thread records the state while
        this generator samples the next, and its snapshot's encoding if
        the cadence writes it or it is the last (final.snap), else None."""
        with closing(semigroup_flow(f0, taus)) as flow:
            for i, (tau, omega) in enumerate(zip(taus, flow)):
                state = SelfSimilarState(omega=omega,
                                         t=float(cfg.t_init * np.exp(tau)),
                                         nu=cfg.nu, alpha=alpha)
                _, stage = sample_values(omega)
                keep = recorder.writes(i) or i == last
                yield state, stage, encode_snapshot(state) if keep else None

    # record's scope; the worker opens its own
    with arena_scope(), _one_ahead(sampled()) as flow:
        for state, stage, snapshot in flow:
            recorder.commit(record(state, recorder.opts, mixed0=stage),
                            snapshot)
    recs = recorder.records
    m_fit = 3.0 if 3.0 in cfg.weights else cfg.weights[-1]
    series = [(r.t, r.weighted[(m_fit, 0, 0)]) for r in recs]
    return snapshot, [
        f"samples: {len(recs)}",
        f"fitted decay exponent of the L2({_fmt_m(m_fit)}) norm: "
        + _try_fit(series, None),
        f"norm initial: {series[0][1]!r}",
        f"norm final: {series[-1][1]!r}",
    ]


@contextmanager
def _one_ahead(items):
    """Start one worker thread that computes the items of the generator
    items in turn, in an arena scope of its own, and give an iterator
    over them; the worker begins the first item on entry and each next
    one as the caller takes the one before it, so it runs at most one
    item ahead. An exception that items raises is raised by the iterator
    in its turn, after the items before it. On exit the worker closes
    items, so their cleanup runs on its thread, and is joined."""
    turn, ready = threading.Semaphore(0), threading.Semaphore(0)
    outcome, stop = [None, None], []

    def work():
        with arena_scope(), closing(items):
            while turn.acquire() and not stop:
                try:
                    outcome[:] = next(items), None
                except BaseException as exc:    # re-raised by the reader
                    outcome[:] = None, exc
                ready.release()

    def taken():
        while True:
            ready.acquire()
            item, exc = outcome
            if isinstance(exc, StopIteration):
                return
            if exc is not None:
                raise exc
            turn.release()      # the next item, while the caller holds this
            yield item

    worker = threading.Thread(target=work, name="shearvortex-worker")
    worker.start()
    turn.release()
    try:
        yield taken()
    finally:
        stop.append(True)
        turn.release()
        worker.join()


def _run_picard(cfg, recorder):
    """Mild-solution iteration on the physical grid; when the window lies
    in t >= 1 the frame evolver runs alongside and the sup discrepancy of
    the two solvers (in frame coordinates, L2) goes to the summary."""
    phys_grid = make_grid(cfg.grid_l, cfg.grid_n)
    n_times = picard_samples(cfg)
    om0 = make_field(cfg.initial_data, phys_grid, cfg.seed,
                     params=cfg.initial_params)
    window = (cfg.t_end - cfg.t_init, n_times, cfg.t_init)
    if cfg.t_init >= 1.0:
        traj, sup_gap = _cross_checked(cfg, om0, window, recorder)
    else:
        traj, sup_gap = picard_solve(om0, cfg.nu, *window), None
    return traj.fields[-1], [
        f"time samples: {n_times}",
        "picard update distances: "
        + ", ".join(repr(d) for d in traj.history),
        f"initial L1 norm: {float(lp_norm(om0, 1))!r}",
        f"final L1 norm: {float(lp_norm(traj.fields[-1], 1))!r}",
        "sup relative L2 discrepancy picard vs frame evolver: "
        + (repr(sup_gap) if sup_gap is not None
           else "n/a (window starts before t = 1)"),
    ]


def _cross_checked(cfg, om0, window, recorder):
    """Picard's solve of om0 over window (picard_times' arguments) and
    the frame evolver's chain through its time samples, run at once: a
    worker thread (_one_ahead) solves and reads each field past the first
    into the frame, while the main thread evolves om0's frame image and
    records each state. Once both are done, the samples are committed in
    order, and a failure is raised where the serial run would have met
    it: the solve's, with nothing recorded; then om0's frame image's;
    then, per sample i, the step to t_i's, the record's and the frame
    image of field i's, after the samples before it. Returns the
    trajectory and the sup over samples of the relative L2 gap of the
    two solvers in the frame, read off the samples each side keeps."""
    frame_grid = make_grid(cfg.grid_l, cfg.grid_n, "selfsim")

    def solved():
        traj = picard_solve(om0, cfg.nu, *window)
        yield (traj, *_collected(
            phys_to_selfsim(om, t, cfg.nu, frame_grid).omega.values
            for t, om in zip(traj.times[1:], traj.fields[1:])))

    om0.coeffs      # formed here: both threads read them
    with _one_ahead(solved()) as solve:
        chain, failed = _collected(_frame_chain(cfg, om0, window, frame_grid,
                                                recorder))
        traj, images, image_failed = next(solve)
    # field i's frame image comes after the step to t_i and its record
    if image_failed is not None and len(chain) > len(images) + 1:
        chain, failed = chain[:len(images) + 2], image_failed
    for _, rec, state in chain:
        recorder.commit(rec, state)
    if failed is not None:
        raise failed
    sup_gap = 0.0
    for (v, _, _), ref in zip(chain[1:], images):
        gap = lp_samples(np.abs(v - ref), frame_grid, 2)
        scale = lp_samples(np.abs(ref), frame_grid, 2)
        sup_gap = max(sup_gap, gap / scale if scale > 0 else gap)
    return traj, sup_gap


def _collected(items):
    """The items up to the first whose computation raises, and that
    error (None if there is none)."""
    done = []
    try:
        for item in items:
            done.append(item)
    except Exception as exc:    # raised in its turn by the caller
        return done, exc
    return done, None


def _frame_chain(cfg, om0, window, frame_grid, recorder):
    """Yield the frame evolver's states, from om0's frame image through
    the time samples of window, each as its samples, its record and, if
    recorder's cadence writes its snapshot, itself (else None)."""
    times = picard_times(*window)
    state = phys_to_selfsim(om0, times[0], cfg.nu, frame_grid)
    for i, t in enumerate(times):
        if i:
            state = evolve(state, t, cfg.dtau, on_tail=cfg.on_tail)
        rec = record(state, recorder.opts)
        yield (state.omega.values, rec,
               state if recorder.writes(i) else None)


def _run_probe(cfg, recorder):
    """Empirical-constant probes over a seeded ensemble; writes probes.csv
    and records no samples."""
    # one seeded ensemble on the grid of each frame a probe kind names
    grids = {frame: make_grid(cfg.grid_l, cfg.grid_n, frame)
             for _, _, frame in _PROBES.values()}
    ensembles = {frame: [make_field("random_localized", grid, cfg.seed + i)
                         for i in range(PROBE_ENSEMBLE_SIZE)]
                 for frame, grid in grids.items()}
    times = [float(t) for t in np.geomspace(cfg.t_init, cfg.t_end,
                                            PROBE_TIMES)]
    rows = ["kind,field,t,ratio"]
    lines = [f"ensemble size: {PROBE_ENSEMBLE_SIZE}",
             "times: " + ", ".join(repr(t) for t in times)]
    for kind, (_, _, frame) in _PROBES.items():
        rep = inequality_probe(kind, ensembles[frame], times, nu=cfg.nu)
        for i, t, r in rep.entries:
            rows.append(f"{kind},{i},{t!r},{r!r}")
        lines += [f"{kind} max ratio: {rep.max_ratio!r}",
                  f"{kind} mean ratio: {rep.mean_ratio!r}",
                  f"{kind} maximizer: field {rep.argmax[0]} at t={rep.argmax[1]!r}"]
    with open(os.path.join(recorder.outdir, "probes.csv"), "w",
              encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    return None, lines
