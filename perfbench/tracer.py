"""Span tracer that wraps the program's layers from outside the package.

Each torusfs module is a layer.  ``Tracer.install`` replaces the public
functions and methods of every layer module (plus a few named private entry
points, and the transforms in ``numpy.fft``) with wrappers that time each
call.  A call's self time is its duration minus the time of the wrapped
calls it made; summed per layer, self times add up to the traced wall time.
Spans are aggregated as they close (per layer self time, per span name call
count and time) so that memory stays flat however many calls a unit makes.

The program is never edited: wrappers are swapped into module and class
namespaces and swapped back by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

LAYERS = ("grid", "littlewood_paley", "dyadic", "maximal", "spaces", "pseudo", "experiments", "report", "cli")
ROOT = "bench"  # a unit's own time outside every layer

# Private entry points that carry a metric of their own.
EXTRA = {
    "experiments": ("_fspace_draw",),
    "cli": ("_write_outputs",),
}

# Span name -> metric group whose outermost inclusive time is reported.
GROUPS = {
    "spaces.phi_analyze": "spaces.analyze",
    "spaces.phi_synthesize": "spaces.synthesize",
    "spaces.sequence_norm": "spaces.sequence_norm",
    "spaces.besov_norm": "spaces.function_norm",
    "spaces.triebel_norm": "spaces.function_norm",
    "spaces.triebel_infty_norm": "spaces.function_norm",
    "spaces.triebel_sharp_norm": "spaces.function_norm",
    "spaces.atomic_decompose": "spaces.atomic",
    "experiments.atom_train_spectrum": "experiments.atom_train",
    "experiments.multiplier_on_lattice": "experiments.multiplier",
    "experiments._fspace_draw": "experiments.draw",
    "cli._write_outputs": "report.write",
    "report.write_report_json": "report.write",
    "report.write_table_csv": "report.write",
    "grid.fft": "grid.fft",
    "grid.fftfreq": "grid.fftfreq",
}

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
FREQ_NAMES = ("fftfreq", "rfftfreq")


def _size(args, kwargs) -> int:
    """Element count of a call's first argument."""
    first = args[0] if args else next(iter(kwargs.values()))
    return int(np.size(first))


def _entries(field) -> int:
    try:
        return len(field)
    except TypeError:  # a field type without len: count its documented rows
        return len(field.to_rows())


# Span name -> (counter name, function of (args, kwargs, result) giving the increment).
COUNTERS = {
    "littlewood_paley.smooth_step": ("littlewood_paley.window", lambda a, k, r: _size(a, k)),
    "experiments.reproducing_profile": ("experiments.profile", lambda a, k, r: _size(a, k)),
    "dyadic.DyadicCube.__post_init__": ("dyadic.cubes_built", lambda a, k, r: 1),
    "spaces.phi_analyze": ("spaces.coeff_entries", lambda a, k, r: _entries(r)),
    "grid.fft": ("grid.fft_points", lambda a, k, r: _size(a, k)),
}


class Tracer:
    def __init__(self):
        self.self_s = Counter()  # layer -> self time
        self.calls = Counter()  # span name -> calls
        self.span_s = Counter()  # span name -> inclusive time (all calls)
        self.group_s = Counter()  # metric group -> outermost inclusive time
        self.counts = Counter()  # counter name -> summed increments
        self._children = [0.0]  # child time of each open span; [0] is the root
        self._open_groups = Counter()
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        group = GROUPS.get(name)
        counter = COUNTERS.get(name)
        children = self._children
        open_groups = self._open_groups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            if group:
                open_groups[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = children.pop()
                children[-1] += dur
                self.self_s[layer] += dur - child
                self.calls[name] += 1
                self.span_s[name] += dur
                if group:
                    open_groups[group] -= 1
                    if open_groups[group] == 0:
                        self.group_s[group] += dur
            if counter:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def unit(self, fn, *args, **kwargs):
        """Run one unit of work as the root span; returns (result, seconds)."""
        start = time.perf_counter()
        self._children[0] = 0.0
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self.self_s[ROOT] += dur - self._children[0]
        return result, dur

    # -- installing wrappers ----------------------------------------------------

    def _swap(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def install(self):
        """Wrap every layer.  Callers outside the package must call the
        program through its modules, not through names they imported."""
        modules = {layer: importlib.import_module(f"torusfs.{layer}") for layer in LAYERS}
        namespaces = list(modules.values())  # where a wrapped function may be bound by name
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                        continue
                    if inspect.isgeneratorfunction(obj):
                        continue
                    wrapped = self._wrap(layer, f"{layer}.{attr}", obj)
                    for ns in namespaces:  # rebind every import of the same object
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._swap(ns, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, f"{layer}.{attr}", obj)
        self._wrap_fft()

    def _wrap_class(self, layer, qual, cls):
        for attr, obj in list(cls.__dict__.items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{qual}.{attr}"
            if isinstance(obj, property) and obj.fget is not None:
                self._swap(cls, attr, property(self._wrap(layer, name, obj.fget), obj.fset, obj.fdel, obj.__doc__))
            elif isinstance(obj, staticmethod):
                self._swap(cls, attr, staticmethod(self._wrap(layer, name, obj.__func__)))
            elif isinstance(obj, classmethod):
                self._swap(cls, attr, classmethod(self._wrap(layer, name, obj.__func__)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                self._swap(cls, attr, self._wrap(layer, name, obj))

    def _wrap_fft(self):
        for attr in FFT_NAMES + FREQ_NAMES:
            fn = getattr(np.fft, attr, None)
            if fn is not None:
                name = "grid.fft" if attr in FFT_NAMES else "grid.fftfreq"
                self._swap(np.fft, attr, self._wrap("grid", name, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals over everything traced so far."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS + (ROOT,)}
        out.update({
            "grid.fft_calls": self.calls["grid.fft"],
            "grid.fft_points": self.counts["grid.fft_points"],
            "grid.fft_s": self.group_s["grid.fft"],
            "grid.fftfreq_calls": self.calls["grid.fftfreq"],
            "grid.fftfreq_s": self.group_s["grid.fftfreq"],
            "littlewood_paley.window_calls": self.calls["littlewood_paley.smooth_step"],
            "littlewood_paley.window_points": self.counts["littlewood_paley.window"],
            "dyadic.cubes_built": self.counts["dyadic.cubes_built"],
            "spaces.analyze_s": self.group_s["spaces.analyze"],
            "spaces.synthesize_s": self.group_s["spaces.synthesize"],
            "spaces.sequence_norm_s": self.group_s["spaces.sequence_norm"],
            "spaces.function_norm_s": self.group_s["spaces.function_norm"],
            "spaces.atomic_s": self.group_s["spaces.atomic"],
            "spaces.coeff_entries": self.counts["spaces.coeff_entries"],
            "experiments.atom_train_s": self.group_s["experiments.atom_train"],
            "experiments.multiplier_s": self.group_s["experiments.multiplier"],
            "experiments.profile_points": self.counts["experiments.profile"],
            "experiments.draw_busy_s": self.group_s["experiments.draw"],
            "report.write_s": self.group_s["report.write"],
        })
        return out

    def write(self, path) -> None:
        """Dump the aggregated spans (one JSON object per span name)."""
        with open(path, "w") as fh:
            for name in sorted(self.calls):
                fh.write(json.dumps({"span": name, "calls": self.calls[name], "seconds": self.span_s[name]}) + "\n")
            for layer in sorted(self.self_s):
                fh.write(json.dumps({"layer": layer, "self_s": self.self_s[layer]}) + "\n")
