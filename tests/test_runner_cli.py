import contextlib
import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import shearvortex
from shearvortex import (
    ConfigError,
    Field,
    RunConfig,
    SelfSimilarState,
    diagnostics,
    errors,
    fokker_planck,
    make_grid,
    parse_config,
    read_snapshot,
    run_experiment,
    runner,
    selfsim,
    spectral,
    write_snapshot,
)
from shearvortex.cli import main
from shearvortex.diagnostics import rate_fit
from shearvortex.errors import GridError
from shearvortex.runner import resolve_output_dir

from conftest import localized_field

CSV_HEADER = ("t,tau,mass,L1,L43,L2,Linf,conv_L2m_2,conv_L2m_3,"
              "conv_L1_phys,E,D")


def read_lines(path):
    with open(path, encoding="ascii") as fh:
        return fh.read().splitlines()


def summary_value(lines, label):
    for line in lines:
        if line.startswith(label):
            return line[len(label):].strip()
    raise AssertionError(f"summary line {label!r} not found in {lines}")


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="ascii")
    return str(path)


# ------------------------------------------------------------------ run modes

def test_linear_run_stays_on_gaussian(tmp_path):
    # frame Gaussian initial data is a fixed point of the linear frame
    # dynamics; the convergence column measures pure integration error
    cfg = write_config(tmp_path, (
        "initial_data = eigenfunction\n"
        "initial_params = a=0, b=0\n"
        "grid_l = 20.0\n"
        "grid_n = 128\n"
        "t_end = 10.0\n"))
    out = str(tmp_path / "out")
    assert main(["linear", "--config", cfg, "--out", out]) == 0
    for name in ("config.txt", "diagnostics.csv", "summary.txt",
                 "final.snap", "final.snap.meta"):
        assert os.path.exists(os.path.join(out, name))
    rows = read_lines(os.path.join(out, "diagnostics.csv"))
    assert rows[0] == CSV_HEADER
    col = rows[0].split(",").index("conv_L2m_2")
    conv = [float(r.split(",")[col]) for r in rows[1:]]
    assert max(conv) <= 1e-7
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0] == "status: OK"
    assert float(summary_value(summary, "mass relative drift:")) <= 1e-10
    final = read_snapshot(os.path.join(out, "final.snap"))
    assert isinstance(final, SelfSimilarState)
    assert final.t == pytest.approx(10.0, rel=1e-12)


def test_fp_decay_recovers_ladder_exponent(tmp_path):
    cfg = write_config(tmp_path, (
        "initial_data = eigenfunction\n"
        "initial_params = a=1, b=0\n"
        "grid_l = 20.0\n"
        "grid_n = 128\n"
        "t_end = 100.0\n"))
    out = str(tmp_path / "out")
    assert main(["fp-decay", "--config", cfg, "--out", out]) == 0
    summary = read_lines(os.path.join(out, "summary.txt"))
    fitted = summary_value(summary,
                           "fitted decay exponent of the L2(3) norm:")
    slope = float(fitted.split()[0])
    assert slope == pytest.approx(-1.5, abs=1e-3)


def test_probe_mode_writes_ratio_table(tmp_path):
    out = str(tmp_path / "out")
    assert main(["probe", "--grid-n", "64", "--t-end", "10.0",
                 "--out", out]) == 0
    rows = read_lines(os.path.join(out, "probes.csv"))
    assert rows[0] == "kind,field,t,ratio"
    # 3 kinds x 10 ensemble fields x 5 times
    assert len(rows) == 1 + 3 * 10 * 5
    ratios = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    summary = read_lines(os.path.join(out, "summary.txt"))
    for kind in ("biot_savart_linf", "anisotropic_sigma", "semigroup_lp"):
        float(summary_value(summary, f"{kind} max ratio:"))
    # a probe records no samples, as on its failure path
    assert read_lines(os.path.join(out, "diagnostics.csv")) == [CSV_HEADER]


PICARD_CONFIG = ("initial_data = gaussian\n"
                 "initial_params = amplitude=0.05\n"
                 "grid_l = 20.0\n"
                 "grid_n = 128\n"
                 "t_end = 1.25\n"
                 "dtau = 0.004\n")
PICARD_GAP = "sup relative L2 discrepancy picard vs frame evolver:"


def test_picard_mode_cross_checks_frame_evolver(tmp_path):
    cfg = write_config(tmp_path, PICARD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["picard", "--config", cfg, "--out", out]) == 0
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary_value(summary, "time samples:") == "17"
    history = [float(d) for d in summary_value(
        summary, "picard update distances:").split(", ")]
    assert len(history) == 3
    assert all(b < a for a, b in zip(history, history[1:]))
    gap = summary_value(summary, PICARD_GAP)
    assert float(gap) <= 1e-5
    # the frame evolver steps from one picard time sample to the next,
    # whatever the sampling cadence of simulate and linear runs
    cfg = write_config(tmp_path, PICARD_CONFIG + "samples_per_decade = 1000\n")
    out = str(tmp_path / "out_1000")
    assert main(["picard", "--config", cfg, "--out", out]) == 0
    assert summary_value(read_lines(os.path.join(out, "summary.txt")),
                         PICARD_GAP) == gap


def test_picard_cross_check_failure_keeps_the_samples_before_it(tmp_path,
                                                              capsys):
    # at dtau = 0.0077 the solve succeeds and the frame evolver raises
    # ResolutionError on its way to t = 1.145: the ten samples before it
    # are written, and no thread outlives the run
    cfg = write_config(tmp_path, PICARD_CONFIG.replace("0.004", "0.0077"))
    out = str(tmp_path / "out")
    threads = threading.enumerate()
    assert main(["picard", "--config", cfg, "--out", out]) == 4
    assert threading.enumerate() == threads
    assert "ResolutionError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0].startswith("status: FAILED ResolutionError")
    assert summary_value(summary, "samples recorded before failure:") == "10"
    rows = read_lines(os.path.join(out, "diagnostics.csv"))
    assert rows[0] == CSV_HEADER and len(rows) == 11
    assert not os.path.exists(os.path.join(out, "final.snap"))


def _picard_time(k):
    """The k-th time sample of PICARD_CONFIG's picard run."""
    return 1.0 + 0.25 * k / 16


def _failing_at(monkeypatch, name, k, exc):
    """Make runner.<name>(field or state, t, ...) raise exc when t is the
    k-th time sample of PICARD_CONFIG's run."""
    call = getattr(runner, name)

    def failing(first, t, *args, **kwargs):
        if t == _picard_time(k):
            raise exc
        return call(first, t, *args, **kwargs)

    monkeypatch.setattr(runner, name, failing)


@pytest.mark.parametrize("evolve_at, frame_at, rows, failed", [
    (None, 3, 4, "frame"),      # sample 3's frame image: after its record
    (3, None, 3, "evolve"),     # the step to sample 3: before its record
    (3, 5, 3, "evolve"),        # the earlier failure is raised
    (5, 3, 4, "frame"),
    (4, 3, 4, "frame"),         # frame image 3 comes before the step to 4
    (3, 3, 3, "evolve"),        # the step to 3 comes before frame image 3
    (None, 0, 0, "frame"),      # om0's frame image, before any record
])
def test_picard_cross_check_failures_replay_the_serial_order(
        tmp_path, monkeypatch, evolve_at, frame_at, rows, failed):
    # per sample i the run steps the evolver to t_i, records the state and
    # then reads the Picard field at t_i into the frame; the first failure
    # in that order is raised, unchanged, after the samples before it are
    # written, and no thread outlives the run
    errs = {"evolve": errors.ResolutionError("evolve failed"),
            "frame": errors.ResolutionError("frame image failed")}
    if evolve_at is not None:
        _failing_at(monkeypatch, "evolve", evolve_at, errs["evolve"])
    if frame_at is not None:
        _failing_at(monkeypatch, "phys_to_selfsim", frame_at, errs["frame"])
    out = tmp_path / "out"
    threads = threading.enumerate()
    with pytest.raises(errors.ResolutionError) as raised:
        run_experiment(parse_config("mode = picard\n" + PICARD_CONFIG),
                       str(out))
    assert threading.enumerate() == threads
    assert raised.value is errs[failed]
    summary = read_lines(out / "summary.txt")
    assert summary[0] == f"status: FAILED ResolutionError: {errs[failed]}"
    assert summary_value(summary, "samples recorded before failure:") == (
        str(rows))
    assert len(read_lines(out / "diagnostics.csv")) == rows + 1


def test_picard_solve_failure_outranks_the_cross_check(tmp_path,
                                                       monkeypatch):
    # the solve runs first in the serial order, so its error is raised
    # with nothing recorded even when the cross-check fails as well
    def failing_solve(*args, **kwargs):
        raise errors.NoConvergenceError("solve failed")

    monkeypatch.setattr(runner, "picard_solve", failing_solve)
    _failing_at(monkeypatch, "evolve", 2, errors.ResolutionError("evolve"))
    out = tmp_path / "out"
    threads = threading.enumerate()
    with pytest.raises(errors.NoConvergenceError):
        run_experiment(parse_config("mode = picard\n" + PICARD_CONFIG),
                       str(out))
    assert threading.enumerate() == threads
    summary = read_lines(out / "summary.txt")
    assert summary[0] == "status: FAILED NoConvergenceError: solve failed"
    assert read_lines(out / "diagnostics.csv") == [CSV_HEADER]


@contextlib.contextmanager
def _inline_one_ahead(items):
    """runner._one_ahead in line: the items, each computed on the calling
    thread as it is taken, and closed on exit."""
    with contextlib.closing(items):
        yield items


def _logged(monkeypatch, ran, name):
    """Log in ran[name] the threads that call runner.<name>."""
    call = getattr(runner, name)

    def logged(*args, **kwargs):
        ran.setdefault(name, set()).add(threading.current_thread())
        return call(*args, **kwargs)

    monkeypatch.setattr(runner, name, logged)


def test_picard_solves_on_a_worker_beside_the_frame_evolver(tmp_path,
                                                            monkeypatch):
    # the solve and its fields' frame images run on one worker thread,
    # the frame evolver's chain and record on the main thread, and the
    # worker ends with the run; with a short switch interval the files
    # are those of a run that runs the chain and then the solve, on one
    # thread, byte for byte
    ran = {}
    for name in ("picard_solve", "phys_to_selfsim", "evolve", "record"):
        _logged(monkeypatch, ran, name)
    cfg = parse_config("mode = picard\nsnapshot_cadence = 4\n"
                       + PICARD_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    threads = threading.enumerate()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_experiment(cfg, str(a))
    finally:
        sys.setswitchinterval(interval)
    assert threading.enumerate() == threads
    main_thread = threading.main_thread()
    (worker,) = ran["picard_solve"]
    assert worker is not main_thread
    assert ran["phys_to_selfsim"] == {main_thread, worker}
    assert ran["evolve"] == ran["record"] == {main_thread}
    monkeypatch.setattr(runner, "_one_ahead", _inline_one_ahead)
    run_experiment(cfg, str(b))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert {"diagnostics.csv", "summary.txt", "final.snap",
            "state_00016.snap"} <= set(names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_picard_solve_begins_before_the_chain_steps(tmp_path,
                                                    monkeypatch):
    # the worker begins the solve as the cross-check starts, not when the
    # main thread reads its outcome after the chain: the chain's first
    # step waits for the solve to have begun
    began, waited = threading.Event(), []
    solve, step = runner.picard_solve, runner.evolve

    def logged_solve(*args, **kwargs):
        began.set()
        return solve(*args, **kwargs)

    def waiting_evolve(*args, **kwargs):
        if not waited:
            waited.append(began.wait(10))
        return step(*args, **kwargs)

    monkeypatch.setattr(runner, "picard_solve", logged_solve)
    monkeypatch.setattr(runner, "evolve", waiting_evolve)
    run_experiment(parse_config("mode = picard\n" + PICARD_CONFIG),
                   str(tmp_path / "out"))
    assert waited == [True]


def test_picard_mode_starts_before_the_frame(tmp_path, monkeypatch):
    # from t_init = 0 no frame state exists, so nothing is recorded and
    # the frame evolver's cross-check is left out: the solve runs on the
    # main thread
    ran = {}
    _logged(monkeypatch, ran, "picard_solve")
    out = str(tmp_path / "out")
    assert main(["picard", "--grid-n", "128", "--grid-l", "20",
                 "--t-init", "0", "--t-end", "0.25", "--out", out]) == 0
    assert ran == {"picard_solve": {threading.main_thread()}}
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[:2] == ["status: OK", "mode: picard"]
    assert summary_value(summary, "time samples:") == "17"
    assert summary_value(summary, PICARD_GAP) == (
        "n/a (window starts before t = 1)")
    assert read_lines(os.path.join(out, "diagnostics.csv")) == [CSV_HEADER]
    assert isinstance(read_snapshot(os.path.join(out, "final.snap")), Field)


SCHEDULE_CONFIG = ("initial_data = eigenfunction\n"
                   "initial_params = a=0, b=1\n"
                   "grid_l = 18.0\n"
                   "grid_n = 64\n"
                   "t_init = 2.0\n"
                   "samples_per_decade = 8\n")


@pytest.fixture(scope="module")
def schedule_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("schedule")
    cfg = write_config(base, SCHEDULE_CONFIG + "t_end = 7.0\n")
    outs = {}
    for mode in ("linear", "fp-decay"):
        outs[mode] = str(base / mode)
        assert main([mode, "--config", cfg, "--out", outs[mode]]) == 0
    return outs


def csv_column(out, name):
    rows = read_lines(os.path.join(out, "diagnostics.csv"))
    col = rows[0].split(",").index(name)
    return [float(r.split(",")[col]) for r in rows[1:]]


def test_fp_decay_samples_on_the_evolver_schedule(schedule_runs):
    # every ln10/samples_per_decade in log-time from t_init, plus t_end
    t_lin = csv_column(schedule_runs["linear"], "t")
    t_fp = csv_column(schedule_runs["fp-decay"], "t")
    assert len(t_fp) == len(t_lin) == 6
    assert t_fp == pytest.approx(t_lin, rel=1e-12)
    assert np.diff(np.log(t_fp[:-1])) == pytest.approx(np.log(10.0) / 8, rel=1e-12)


def test_linear_summary_reports_minimum_and_local_exponent(schedule_runs):
    out = schedule_runs["linear"]
    summary = read_lines(os.path.join(out, "summary.txt"))
    t = csv_column(out, "t")
    conv = csv_column(out, "conv_L2m_2")
    low = int(np.argmin(conv))
    assert summary_value(summary, "conv_L2m_2 minimum:") == (
        f"{conv[low]!r} at t = {t[low]!r}")
    local = summary_value(summary,
                          "local exponent conv_L2m_2 over last 5 samples:")
    slope, err = rate_fit(list(zip(t, conv))[-5:])
    assert local == f"{slope!r} (stderr {err!r})"


def test_local_exponent_needs_five_samples(tmp_path):
    cfg = write_config(tmp_path, SCHEDULE_CONFIG + "t_end = 3.0\n")
    out = str(tmp_path / "out")
    assert main(["linear", "--config", cfg, "--out", out]) == 0
    assert len(csv_column(out, "t")) == 3
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary_value(
        summary, "local exponent conv_L2m_2 over last 5 samples:"
    ).startswith("n/a")


@pytest.mark.parametrize("n, bound", [(64, 1e-6), (128, 1e-10)])
def test_mass_drift_of_zero_mass_data_is_relative_to_l1(tmp_path, n, bound):
    # the (0, 1) eigenfunction has zero mass, which its zero mode reads
    # exactly; a roundoff mass (-8.7e-17 when it was read off the
    # samples) made the relative drift read 3e9 at n = 64, so the drift
    # is measured against ||w0||_1. At n = 64 the mass does drift, by
    # 2.6e-7 (the band edge leaks into the zero mode); at n = 128 it is
    # roundoff.
    cfg = write_config(tmp_path, SCHEDULE_CONFIG.replace("18.0", "20.0")
                       .replace("64", str(n)) + "t_end = 7.0\n")
    out = str(tmp_path / "out")
    assert main(["linear", "--config", cfg, "--out", out]) == 0
    summary = read_lines(os.path.join(out, "summary.txt"))
    mass_col, l1 = csv_column(out, "mass"), csv_column(out, "L1")
    m0 = float(summary_value(summary, "mass initial:"))
    assert m0 == mass_col[0]
    assert m0 == 0.0
    drift = float(summary_value(summary, "mass relative drift:"))
    assert drift == pytest.approx(abs(mass_col[-1] - m0) / l1[0], rel=1e-6)
    assert drift <= bound


# -------------------------------------------------------------- reproducibility

@pytest.fixture(scope="module")
def simulate_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")
    cfg = write_config(base, (
        "initial_data = gaussian\n"
        "initial_params = amplitude=0.2\n"
        "grid_n = 128\n"
        "t_end = 2.0\n"
        "dtau = 0.004\n"
        "snapshot_cadence = 3\n"))
    dirs = (str(base / "a"), str(base / "b"))
    for d in dirs:
        assert main(["simulate", "--config", cfg, "--out", d]) == 0
    return dirs


def test_rerun_reproduces_artifacts_byte_for_byte(simulate_runs):
    a, b = simulate_runs
    for name in ("config.txt", "diagnostics.csv", "summary.txt",
                 "final.snap", "state_00000.snap"):
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


FP_DECAY_N128 = ("initial_data = eigenfunction\n"
                 "initial_params = a=1, b=0\n"
                 "grid_l = 20.0\n"
                 "grid_n = 128\n"
                 "t_end = 3.2\n"
                 "snapshot_cadence = 1\n")


def test_fp_decay_rerun_reproduces_artifacts_byte_for_byte(tmp_path):
    # two in-process fp-decay runs, each flowing its samples on a worker
    # thread in an arena of its own while the main thread records them
    # and writes the snapshots in another, write the same files, byte
    # for byte
    cfg = write_config(tmp_path, FP_DECAY_N128)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["fp-decay", "--config", cfg, "--out", str(d)]) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    assert "state_00009.snap" in names and "final.snap" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_fp_decay_overlap_writes_what_one_thread_writes(tmp_path,
                                                       monkeypatch):
    # the run flows sample i + 1 on a worker thread, in an arena scope of
    # its own, while the main thread records sample i in its scope; a
    # reference loop that runs the flow, record and the snapshots in one
    # thread on one arena writes every file the same, byte for byte
    cfg = write_config(tmp_path, FP_DECAY_N128)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fp-decay", "--config", cfg, "--out", str(a)]) == 0
    arenas, take = {}, spectral.Arena.take

    def logged_take(arena, *args):
        arenas[id(arena)] = arena, threading.current_thread()
        return take(arena, *args)

    monkeypatch.setattr(spectral.Arena, "take", logged_take)
    monkeypatch.setattr(runner, "_one_ahead", _inline_one_ahead)
    assert main(["fp-decay", "--config", cfg, "--out", str(b)]) == 0
    assert [thread for _, thread in arenas.values()] == [threading.main_thread()]
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert {"diagnostics.csv", "summary.txt", "final.snap",
            "state_00009.snap", "state_00009.snap.meta"} <= set(names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _counted_flow(begun):
    """runner.semigroup_flow that logs the thread that begins each item."""
    def flow(f, taus):
        items = fokker_planck.semigroup_flow(f, taus)
        while True:
            begun.append(threading.current_thread())
            try:
                omega = next(items)
            except StopIteration:
                return
            yield omega
    return flow


def test_fp_decay_flows_one_sample_ahead_on_a_worker_that_ends_with_the_run(
        tmp_path, monkeypatch):
    # every flow runs on one worker thread, which has begun at most the
    # item after the one record reads, and no thread outlives the run
    begun, ahead = [], []

    def counted_record(state, opts, mixed0=None):
        ahead.append(len(begun) - len(ahead))
        return diagnostics.record(state, opts, mixed0=mixed0)

    monkeypatch.setattr(runner, "semigroup_flow", _counted_flow(begun))
    monkeypatch.setattr(runner, "record", counted_record)
    threads = threading.active_count()
    run_experiment(parse_config("mode = fp-decay\n" + FP_DECAY_N128),
                   str(tmp_path / "out"))
    assert threading.active_count() == threads
    assert getattr(spectral._scope, "arena", None) is None
    assert len(ahead) == 10 and len(begun) in (10, 11)
    assert 1 <= min(ahead) and max(ahead) <= 2, ahead
    assert len(set(begun)) == 1
    assert begun[0] is not threading.main_thread()


def test_fp_decay_samples_and_hashes_on_the_worker(tmp_path, monkeypatch):
    # the worker samples each state (both sampling transforms) and hashes
    # each snapshot, final.snap's included; record on the main thread
    # finds the samples there
    sampled, hashed = [], []

    def logged_sampling(module):
        def sample_values(f, *args):
            v, stage = spectral.sample_values(f, *args)
            sampled.append((threading.current_thread(), stage is not None))
            return v, stage
        monkeypatch.setattr(module, "sample_values", sample_values)

    def logged_sha256(data, _sha256=hashlib.sha256):
        hashed.append(threading.current_thread())
        return _sha256(data)

    for module in (runner, diagnostics):
        logged_sampling(module)
    monkeypatch.setattr(hashlib, "sha256", logged_sha256)
    run_experiment(parse_config("mode = fp-decay\n" + FP_DECAY_N128),
                   str(tmp_path / "out"))
    # f0 holds its samples already; each later state is sampled here
    main = threading.main_thread()
    on_worker = [taken for thread, taken in sampled if thread is not main]
    assert on_worker == [False] + [True] * 9
    assert not any(taken for thread, taken in sampled if thread is main)
    workers = {thread for thread, _ in sampled if thread is not main}
    assert len(workers) == 1 and len(hashed) == 10 and set(hashed) == workers


def test_unresolved_fp_decay_leaves_no_thread(tmp_path, capsys):
    # the run of test_unresolved_fp_decay_exits_4_with_partial_outputs:
    # the worker's ResolutionError reaches the main thread after tau = 0
    # is recorded, and the worker is joined
    out = str(tmp_path / "out")
    threads = threading.active_count()
    assert main(["fp-decay", "--initial-data", "gaussian", "--grid-n", "32",
                 "--grid-l", "16", "--t-end", "3.2", "--out", out]) == 4
    assert threading.active_count() == threads
    assert getattr(spectral._scope, "arena", None) is None
    assert "ResolutionError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary_value(summary, "samples recorded before failure:") == "1"


def test_fp_decay_record_failure_joins_the_worker_mid_flow(tmp_path,
                                                           monkeypatch):
    # record fails at sample 3 once the worker has begun sample 4's flow:
    # the three samples before it are written, the summary is FAILED, and
    # the worker closes the flow, on its own thread, and is joined before
    # the error leaves the run
    recorded, flowing_4, ran_on = [], threading.Event(), []

    def flow(f, taus):
        ran_on.append(threading.current_thread())
        try:
            for i, omega in enumerate(fokker_planck.semigroup_flow(f, taus)):
                yield omega
                if i == 3:      # the worker begins sample 4 and stays in its
                    flowing_4.set()     # flow for 0.2 s, so a run that did
                    time.sleep(0.2)     # not join it would leave it alive
        finally:
            ran_on.append(threading.current_thread())

    def failing_record(state, opts, mixed0=None):
        if len(recorded) == 3:
            assert flowing_4.wait(30)
            raise GridError("record failed at sample 3")
        recorded.append(state)
        return diagnostics.record(state, opts, mixed0=mixed0)

    monkeypatch.setattr(runner, "semigroup_flow", flow)
    monkeypatch.setattr(runner, "record", failing_record)
    out = tmp_path / "out"
    threads = threading.active_count()
    # raised keeps the error's traceback, and with it the flow, alive: a
    # flow the worker had not closed would still be suspended here
    with pytest.raises(GridError) as raised:  # noqa: F841
        run_experiment(parse_config("mode = fp-decay\n" + FP_DECAY_N128),
                       str(out))
    assert threading.active_count() == threads
    assert getattr(spectral._scope, "arena", None) is None
    assert len(ran_on) == 2 and ran_on[0] is ran_on[1]
    assert ran_on[0] is not threading.main_thread()
    assert len(recorded) == 3
    assert len(read_lines(out / "diagnostics.csv")) == 4
    summary = read_lines(out / "summary.txt")
    assert summary[0] == "status: FAILED GridError: record failed at sample 3"
    assert summary_value(summary, "samples recorded before failure:") == "3"
    assert sorted(p for p in os.listdir(out) if p.endswith(".snap")) == [
        f"state_{i:05d}.snap" for i in range(3)]


def test_simulate_artifacts(simulate_runs):
    a, _ = simulate_runs
    summary = read_lines(os.path.join(a, "summary.txt"))
    assert summary[0] == "status: OK"
    assert float(summary_value(summary, "mass relative drift:")) <= 1e-10
    state = read_snapshot(os.path.join(a, "final.snap"))
    assert state.t == pytest.approx(2.0, rel=1e-12)
    # cadence 3 snapshots the 0th and 3rd samples
    assert os.path.exists(os.path.join(a, "state_00000.snap"))
    assert os.path.exists(os.path.join(a, "state_00003.snap"))


def test_snapshot_info_command(simulate_runs, capsys):
    a, _ = simulate_runs
    assert main(["snapshot-info", os.path.join(a, "final.snap")]) == 0
    lines = capsys.readouterr().out.splitlines()
    entries = dict(line.split(": ", 1) for line in lines)
    assert entries["format"] == "shearvortex-snapshot-1"
    assert entries["kind"] == "state"
    assert entries["n"] == "128"


# ------------------------------------------------------------------ exit codes

def test_invalid_flags_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["simulate", "--nu", "-1.0", "--out", out]) == 2
    assert "nu" in capsys.readouterr().err


def test_non_finite_config_exits_2(tmp_path, capsys):
    # an infinite window must be rejected before picard sizes its samples
    cfg = write_config(tmp_path, "t_end = inf\n")
    out = str(tmp_path / "out")
    assert main(["picard", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert "'t_end'" in err


def test_run_experiment_validates_a_config_built_in_code(tmp_path):
    # a RunConfig built in code has not been through parse_config; a bad
    # cadence is rejected before the output directory exists
    out = tmp_path / "out"
    cfg = RunConfig(mode="fp-decay", initial_data="eigenfunction",
                    initial_params={"a": 1, "b": 0}, grid_n=64, grid_l=20.0,
                    t_end=3.2, samples_per_decade=-1, output_dir=str(out))
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg)
    assert "'samples_per_decade'" in str(info.value)
    assert not out.exists()


def test_non_ascii_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial_data = caf\u00e9\n", encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", str(cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert "ASCII" in err


@pytest.mark.parametrize("entry, params, name", [
    ("gaussian", "amplitude=abc", "amplitude"),
    ("gaussian", "center=1:x", "center"),
    ("gaussian", "widths=1:2:3", "widths"),
    ("eigenfunction", "a=x", "a"),
    ("point_vortex_approx", "eps=abc", "eps"),
    ("random_localized", "correlation=1:2", "correlation"),
    # values that int(), bool() or float() would convert silently or
    # overflow on
    ("random_localized", "zero_mass=no", "zero_mass"),
    ("random_localized", "zero_mass=1", "zero_mass"),
    ("eigenfunction", "a=1.7", "a"),
    ("eigenfunction", "a=1, b=-1", "b"),
    pytest.param("gaussian", "amplitude=" + "9" * 400, "amplitude",
                 id="gaussian-amplitude=9x400-amplitude"),
])
def test_non_numeric_initial_params_exit_2(tmp_path, capsys, entry, params,
                                           name):
    cfg = write_config(tmp_path, (
        f"initial_data = {entry}\n"
        f"initial_params = {params}\n"
        "grid_n = 16\n"))
    out = str(tmp_path / "out")
    assert main(["fp-decay", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "DomainError" in err
    assert repr(entry) in err and repr(name) in err


def test_missing_snapshot_exits_2(tmp_path, capsys):
    assert main(["snapshot-info", str(tmp_path / "absent.snap")]) == 2
    assert "error" in capsys.readouterr().err


def test_each_error_class_carries_its_exit_code():
    # the CLI returns the error's own exit_code: 2 for invalid input, 3 for
    # solver failures and 4 for resolution failures, subclasses included
    want = {errors.ShearVortexError: 2, errors.ConfigError: 2,
            errors.GridError: 2, errors.DomainError: 2, errors.FitError: 2,
            errors.ChecksumError: 2, errors.SolverError: 3,
            errors.DivergenceError: 3, errors.NoConvergenceError: 3,
            errors.BlowUpError: 3, errors.ResolutionError: 4,
            errors.TruncationError: 4, errors.AliasingError: 4}
    assert {cls: cls("x").exit_code for cls in want} == want


def test_diverging_picard_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "initial_data = gaussian\n"
        "initial_params = amplitude=400.0\n"
        "grid_n = 64\n"
        "t_end = 2.0\n"))
    out = str(tmp_path / "out")
    threads = threading.enumerate()
    assert main(["picard", "--config", cfg, "--out", out]) == 3
    assert threading.enumerate() == threads
    # the solve's error, raised before its cross-check records a sample
    assert "DivergenceError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0].startswith("status: FAILED DivergenceError")
    assert summary_value(summary, "samples recorded before failure:") == "0"
    assert read_lines(os.path.join(out, "diagnostics.csv")) == [CSV_HEADER]


def test_unresolved_run_exits_4_with_partial_outputs(tmp_path, capsys):
    # variance-1 data on a 64-mode box trips the resolution monitor right
    # after the first sample; the partial series must still be on disk
    out = str(tmp_path / "out")
    assert main(["simulate", "--grid-n", "64", "--t-end", "2.0",
                 "--out", out]) == 4
    assert "ResolutionError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0].startswith("status: FAILED ResolutionError")
    assert summary_value(summary, "samples recorded before failure:") == "1"
    rows = read_lines(os.path.join(out, "diagnostics.csv"))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 2


def test_unresolved_fp_decay_exits_4_with_partial_outputs(tmp_path, capsys):
    # a unit Gaussian is not resolved on a 32-mode box: tau = 0 passes it
    # through and is recorded, the first positive tau rejects it
    out = str(tmp_path / "out")
    assert main(["fp-decay", "--initial-data", "gaussian", "--grid-n", "32",
                 "--grid-l", "16", "--t-end", "3.2", "--out", out]) == 4
    assert "ResolutionError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0].startswith("status: FAILED ResolutionError")
    assert summary_value(summary, "samples recorded before failure:") == "1"
    assert len(read_lines(os.path.join(out, "diagnostics.csv"))) == 2
    assert not os.path.exists(os.path.join(out, "final.snap"))


def test_blown_up_run_exits_3_with_last_stable_state(tmp_path, capsys,
                                                     monkeypatch):
    # the detector settings of test_evolve_blowup_detector_reports_last_state
    monkeypatch.setattr(selfsim, "GROWTH_FACTOR", 0.5)
    monkeypatch.setattr(selfsim, "MAX_HALVINGS", 1)
    out = str(tmp_path / "out")
    assert main(["linear", "--grid-n", "128", "--grid-l", "16",
                 "--t-end", "2", "--out", out]) == 3
    assert "BlowUpError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0].startswith("status: FAILED BlowUpError")
    assert "last stable state written to last_stable.snap" in summary
    last = read_snapshot(os.path.join(out, "last_stable.snap"))
    assert isinstance(last, SelfSimilarState)
    assert last.t == pytest.approx(1.0)
    assert not os.path.exists(os.path.join(out, "final.snap"))


def test_failed_probe_exits_4_with_failed_summary(tmp_path, capsys):
    # a 16-mode box cannot hold the semigroup probe's shift
    out = str(tmp_path / "out")
    assert main(["probe", "--grid-n", "16", "--grid-l", "16", "--out", out]) == 4
    assert "AliasingError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0].startswith("status: FAILED AliasingError")


def test_incompatible_resample_exits_4(tmp_path, capsys):
    # broadband data reaches past the frame lattice's band, so the frame
    # change would truncate it; the run is rejected up front
    cfg = write_config(tmp_path, (
        "initial_data = random_localized\n"
        "initial_params = correlation=0.5\n"
        "grid_n = 64\n"
        "t_end = 1.3\n"))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 4
    assert "TruncationError" in capsys.readouterr().err
    summary = read_lines(os.path.join(out, "summary.txt"))
    assert summary[0].startswith("status: FAILED TruncationError")


def test_simulate_starts_physical_data_late_on_equal_boxes(tmp_path):
    # at t_init = 2 the frame box maps past the physical box of the same
    # size; the frame change reads the data's transform, which n = 256
    # resolves there, so the handoff is made
    cfg = write_config(tmp_path, (
        "initial_data = gaussian\n"
        "grid_l = 20.0\n"
        "grid_n = 256\n"
        "t_init = 2.0\n"
        "t_end = 2.2\n"
        "dtau = 0.002\n"))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert read_lines(os.path.join(out, "summary.txt"))[0] == "status: OK"


# ------------------------------------------------------------ output directory

def test_output_dir_priority(monkeypatch):
    cfg = RunConfig(output_dir="from_cfg")
    monkeypatch.setenv("SHEARVORTEX_OUT", "from_env")
    assert resolve_output_dir(cfg, "explicit") == "explicit"
    assert resolve_output_dir(cfg) == "from_cfg"
    assert resolve_output_dir(RunConfig()) == "from_env"
    monkeypatch.delenv("SHEARVORTEX_OUT")
    assert resolve_output_dir(RunConfig()) == "runs"


def test_environment_output_dir_is_used(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, (
        "initial_data = eigenfunction\n"
        "initial_params = a=1, b=0\n"
        "grid_l = 20.0\n"
        "grid_n = 128\n"
        "t_end = 10.0\n"))
    target = tmp_path / "env_out"
    monkeypatch.setenv("SHEARVORTEX_OUT", str(target))
    assert main(["fp-decay", "--config", cfg]) == 0
    assert (target / "summary.txt").exists()
    assert f"wrote {target}" in capsys.readouterr().out


# -------------------------------------------------------------- console script

# the checkout whose code the tests import; its pyproject.toml declares the
# console script and its src directory goes first on the child's path
SRC_DIR = os.path.dirname(
    os.path.dirname(os.path.abspath(shearvortex.__file__)))
PYPROJECT = os.path.join(os.path.dirname(SRC_DIR), "pyproject.toml")
# a child that regressed into a full default run fails instead of hanging
CLI_TIMEOUT = 120


def check_console_script(command, tmp_path, grid):
    """Run ``command`` as a separate process the way a user would.

    Checks that arguments come from the command line and that the entry
    point's return value becomes the process exit status.
    """
    path = tmp_path / "field.snap"
    write_snapshot(localized_field(grid, seed=2), path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run(command + list(args), capture_output=True,
                              text=True, cwd=tmp_path, env=env,
                              timeout=CLI_TIMEOUT)

    proc = run("snapshot-info", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "kind: field" in proc.stdout
    # argparse usage errors exit 2 as well; only a rejected config names
    # the ConfigError and the offending field
    proc = run("linear", "--nu", "0")
    assert proc.returncode == 2, proc.stderr
    assert "ConfigError" in proc.stderr
    assert "'nu'" in proc.stderr


def test_console_script_entry_point(tmp_path, small_grid):
    # runs the [project.scripts] target the way the wrapper that pip
    # generates does, so no install is needed
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["shearvortex"]
    module, func = target.split(":")
    wrapper = (f"import sys; from {module} import {func} as entry; "
               "sys.argv[0] = 'shearvortex'; sys.exit(entry())")
    check_console_script([sys.executable, "-c", wrapper], tmp_path,
                         small_grid)


@pytest.mark.skipif(shutil.which("shearvortex") is None,
                    reason="no installed shearvortex console script on PATH")
def test_installed_console_script(tmp_path, small_grid):
    check_console_script([shutil.which("shearvortex")], tmp_path, small_grid)
