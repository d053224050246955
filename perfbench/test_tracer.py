"""Self-test of the benchmark's tracer.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py

Checks that install() leaves no original target bound anywhere in
shearvortex, that every call of a target is counted (against an
independent count from sys.setprofile) and that two traced runs of the
same config count the same calls.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import shearvortex.diagnostics as diagnostics  # noqa: E402
import shearvortex.runner as runner  # noqa: E402
from shearvortex.config import parse_config  # noqa: E402
from tracer import TARGETS, Tracer, fft_cost  # noqa: E402

SMALL = {
    "simulate": "mode = simulate\ninitial_data = gaussian\ngrid_n = 64\n"
                "grid_l = 12.0\nt_end = 1.1\ndtau = 0.004\n",
    "fp-decay": "mode = fp-decay\ninitial_data = eigenfunction\n"
                "initial_params = a=1, b=0\ngrid_n = 128\ngrid_l = 20.0\n"
                "t_end = 2.0\nsnapshot_cadence = 2\n",
    # a window before t = 1 skips the frame-evolver cross-check, which no
    # grid below n=128 passes; the Duhamel path still runs in full
    "picard": "mode = picard\ninitial_data = gaussian\n"
              "initial_params = amplitude=0.05\ngrid_n = 64\ngrid_l = 12.0\n"
              "t_init = 0.5\nt_end = 0.75\n",
}


def _original(layer):
    for name, module, path in TARGETS:
        if name == layer:
            owner = sys.modules[f"shearvortex.{module}"]
            for part in path.split("."):
                owner = getattr(owner, part)
            return owner
    raise KeyError(layer)


def test_install_rebinds_every_alias_and_uninstall_restores():
    fp_apply = runner.fp_apply
    heat_shear = diagnostics.heat_shear_semigroup
    fft2 = np.fft.fft2
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.surviving_bindings() == []
        assert runner.fp_apply is not fp_apply
        assert runner.fp_apply.__wrapped__ is fp_apply
        assert diagnostics.heat_shear_semigroup.__wrapped__ is heat_shear
        assert np.fft.fft2.__wrapped__ is fft2
    finally:
        tracer.uninstall()
    assert runner.fp_apply is fp_apply
    assert diagnostics.heat_shear_semigroup is heat_shear
    assert np.fft.fft2 is fft2


def _traced_run(mode, tmp_path, profile=False):
    """Calls per layer from the tracer and, with profile=True, from
    sys.setprofile counting executions of each original's code object."""
    cfg = parse_config(SMALL[mode])
    codes = {}
    for layer, _, _ in TARGETS:
        codes[_original(layer).__code__] = layer
    seen = dict.fromkeys(codes.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    tracer = Tracer()
    tracer.install()
    try:
        if profile:
            sys.setprofile(count)
        try:
            runner.run_experiment(cfg, output_dir=str(tmp_path))
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    report = tracer.report()
    calls = {k[:-len(".calls")]: v for k, v in report.items()
             if k.endswith(".calls")}
    return calls, seen, report


@pytest.mark.parametrize("mode", sorted(SMALL))
def test_every_call_is_counted(mode, tmp_path):
    calls, seen, report = _traced_run(mode, tmp_path, profile=True)
    assert {k: calls[k] for k in seen} == seen
    assert calls["transforms.fft"] > 0
    assert report["transforms.fft.flops"] > 0
    assert report["snapshot.write_snapshot.bytes"] > 0
    if mode == "picard":
        assert calls["propagator.apply_semigroup"] > 0
        assert report["propagator.picard_solve.iterations"] > 0


@pytest.mark.parametrize("mode", sorted(SMALL))
def test_two_traced_runs_count_the_same_calls(mode, tmp_path):
    first, _, _ = _traced_run(mode, tmp_path / "a")
    second, _, _ = _traced_run(mode, tmp_path / "b")
    assert first == second
    assert first["spectral.derivative"] > 0


def test_fft_cost_is_5_n_log2_n_complex_and_half_real():
    z = np.zeros((8, 8), complex)
    x = np.zeros((8, 8))
    assert fft_cost("fft2", (z,), {}, np.fft.fft2(z)) == (2048, 5.0 * 64 * 6)
    nbytes, flops = fft_cost("rfft2", (x,), {}, np.fft.rfft2(x))
    assert (nbytes, flops) == (512 + 8 * 5 * 16, 2.5 * 64 * 6)
    # a batch of 8 one-dimensional transforms of length 8 along axis 0
    assert fft_cost("ifft", (z, None, 0), {}, np.fft.ifft(z, axis=0))[1] \
        == 5.0 * 64 * 3
