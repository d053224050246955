"""Outside-in tracer for shearvortex: wraps functions, never edits them.

Each target function is wrapped once and the wrapper is bound, by object
identity, at every place a shearvortex module (or a class defined in one)
holds the original. That covers from-imports and aliases such as
``runner.fp_apply`` and ``diagnostics.heat_shear_semigroup``; rebinding by
name alone would miss them and undercount calls.

Every wrapper records a span. A span's self time is its duration minus the
durations of the traced spans it directly encloses. The public entry
points of ``numpy.fft`` and ``scipy.fft`` are wrapped as one layer,
``transforms.fft``, with computed bytes (input plus output array sizes)
and computed flops (5 N log2 N per complex transform of N points, half
that for a real-input or real-output transform).
"""

import functools
import importlib
import math
import os
import pkgutil
import sys
import time

import numpy as np

# (metric prefix, module under shearvortex, attribute path)
TARGETS = (
    ("grid.field_init", "grid", "Field.__init__"),
    ("spectral.derivative", "spectral", "derivative"),
    ("spectral.shear_spectrum", "spectral", "shear_spectrum"),
    ("spectral.biot_savart", "spectral", "biot_savart"),
    ("spectral.dealias_mask", "spectral", "dealias_mask"),
    ("spectral.weighted_norm", "spectral", "weighted_norm"),
    ("spectral.weighted_inner", "spectral", "weighted_inner"),
    ("spectral.lp_norm", "spectral", "lp_norm"),
    ("selfsim.evolve", "selfsim", "evolve"),
    ("selfsim.nonlinear_term", "selfsim", "nonlinear_term"),
    ("selfsim.invert_frame_laplacian", "selfsim", "invert_frame_laplacian"),
    ("selfsim.phys_to_selfsim", "selfsim", "phys_to_selfsim"),
    ("propagator.picard_solve", "propagator", "picard_solve"),
    ("propagator.apply_semigroup", "propagator", "apply_semigroup"),
    ("propagator.kato_norm", "propagator", "kato_norm"),
    ("fokker_planck.apply_semigroup", "fokker_planck", "apply_semigroup"),
    ("fokker_planck.gaussian", "fokker_planck", "gaussian"),
    ("diagnostics.record", "diagnostics", "record"),
    ("diagnostics.energy_functionals", "diagnostics", "energy_functionals"),
    ("initial_data.make_field", "initial_data", "make_field"),
    ("snapshot.write_snapshot", "snapshot", "write_snapshot"),
    ("runner.run_experiment", "runner", "run_experiment"),
)

FFT_LAYER = "transforms.fft"
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn")

# counters filled by the hooks below, beside calls and self time, with units
COUNTERS = {"transforms.fft.bytes": "B-computed",
            "transforms.fft.flops": "flop-computed",
            "snapshot.write_snapshot.bytes": "B",
            "propagator.picard_solve.iterations": "count"}


def _fft_axes(name, args, kwargs, ndim):
    """Axes a numpy/scipy fft entry point transforms, from its arguments."""
    if name[-1] == "2":
        axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
    elif name[-1] == "n":
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            axes = range(ndim - len(s), ndim) if s is not None else range(ndim)
    else:
        axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    return tuple(axes)


def fft_cost(name, args, kwargs, result):
    """Computed (bytes, flops) of one transform call."""
    a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    out = np.asarray(result)
    if name.startswith(("rfft", "ihfft")):
        real_side = a
    elif name.startswith(("irfft", "hfft")):
        real_side = out
    else:
        real_side = None
    ref = out if real_side is None else real_side
    n = 1
    for ax in _fft_axes(name, args, kwargs, ref.ndim):
        n *= ref.shape[ax]
    per_point = 5.0 if real_side is None else 2.5
    flops = per_point * ref.size * math.log2(n) if n > 1 else 0.0
    return a.nbytes + out.nbytes, flops


def _shearvortex_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "shearvortex"
                                  or name.startswith("shearvortex."))]


def _binding_owners():
    """Every namespace that can hold a target: shearvortex modules and the
    classes they define, as (owner, name -> value) pairs."""
    for mod in _shearvortex_modules():
        yield mod, vars(mod)
        for value in list(vars(mod).values()):
            if (isinstance(value, type)
                    and value.__module__.startswith("shearvortex")):
                yield value, vars(value)


class Tracer:
    """Span and counter registry; install() wraps, uninstall() restores."""

    def __init__(self):
        self.stats = {}       # layer -> [calls, self_s, inclusive_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._wrappers = {}   # id(original) -> (original, wrapper)
        self._patched = []    # (owner, name, original) for uninstall

    def _wrap(self, layer, fn, hook=None):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += span - children[0]
                stats[2] += span
                if stack:
                    stack[-1][0] += span
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self._wrappers[id(fn)] = (fn, traced)
        return traced

    def _fft_hook(self, name):
        def hook(args, kwargs, result):
            nbytes, flops = fft_cost(name, args, kwargs, result)
            self.counters["transforms.fft.bytes"] += nbytes
            self.counters["transforms.fft.flops"] += flops
        return hook

    def _snapshot_hook(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counters["snapshot.write_snapshot.bytes"] += (
            os.path.getsize(path) + os.path.getsize(os.fspath(path) + ".meta"))

    def _picard_hook(self, args, kwargs, result):
        self.counters["propagator.picard_solve.iterations"] += len(
            result.history)

    def _setattr(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Import every shearvortex module, wrap every target and rebind
        each binding of an original to its wrapper."""
        pkg = importlib.import_module("shearvortex")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"shearvortex.{info.name}")
        hooks = {"snapshot.write_snapshot": self._snapshot_hook,
                 "propagator.picard_solve": self._picard_hook}
        for layer, module, path in TARGETS:
            owner = importlib.import_module(f"shearvortex.{module}")
            for part in path.split("."):
                owner = getattr(owner, part)
            self._wrap(layer, owner, hooks.get(layer))
        for module in FFT_MODULES:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                continue
            for name in FFT_NAMES:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                if id(fn) not in self._wrappers:
                    self._wrap(FFT_LAYER, fn, self._fft_hook(name))
                self._setattr(mod, name, self._wrappers[id(fn)][1])
        for owner, namespace in _binding_owners():
            for name, value in list(namespace.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._setattr(owner, name, entry[1])

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def surviving_bindings(self):
        """Names in shearvortex (and the fft namespaces) that still hold an
        original target after install(); empty when tracing is complete."""
        owners = list(_binding_owners())
        for module in FFT_MODULES:
            if module in sys.modules:
                owners.append((sys.modules[module], vars(sys.modules[module])))
        found = []
        for owner, namespace in owners:
            for name, value in list(namespace.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    found.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return found

    def report(self):
        """Flat metrics: <layer>.calls, <layer>.self_s, <layer>.incl_s and
        the counters."""
        out = {}
        for layer, (calls, self_s, incl_s) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.incl_s"] = incl_s
        out.update(self.counters)
        return out
