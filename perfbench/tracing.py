"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces every public function of the helixtm modules
with a timing wrapper, wherever the function's name is bound: in its own
module, in the modules that import it by name (``spectrum``,
``observables``, ``cli``) and in the package namespace.  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

A span is one call of a wrapped function.  A layer's self time is the
time of its spans minus the time of the spans they contain, so geometry
evaluated inside a quadrature counts for geometry, and the integrand's own
arithmetic (a closure inside ``spectrum`` or ``observables``) counts for
quadrature.  Calls and work counts are taken where control enters a layer
from another one, so a layer's internal calls to itself count once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("geometry", "quadrature", "spectrum", "linalg", "observables", "cli")

# Inclusive timers: (layer, function) -> metric name.
INCLUSIVE = {
    ("spectrum", "build_hamiltonian"): "spectrum.assembly_s",
    ("linalg", "eigen_decompose"): "linalg.eig_s",
    ("observables", "toroidal_moment"): "observables.moment_s",
}

# Every per-layer metric the traced run reports, in report order.
METRICS = (
    "geometry.calls", "geometry.points", "geometry.self_s",
    "quadrature.calls", "quadrature.points", "quadrature.self_s",
    "spectrum.solves", "spectrum.elements", "spectrum.assembly_s", "spectrum.self_s",
    "linalg.calls", "linalg.rows", "linalg.eig_s",
    "observables.moments", "observables.moment_s", "observables.self_s",
    "cli.commands", "cli.bytes_out", "cli.self_s",
)


def _angle_count(args, kwargs):
    """Length of the angle array handed to a geometry function (0 if none)."""
    phi = kwargs.get("phi", args[1] if len(args) > 1 else None)
    if phi is None or not isinstance(phi, (int, float, np.ndarray, list, tuple)):
        return 0
    return int(np.size(phi))


def _matrix_dim(args, kwargs):
    m = args[0] if args else None
    if hasattr(m, "dim"):
        return int(m.dim)
    return int(np.shape(m)[0]) if np.ndim(m) else 1


class _CountingWriter(io.TextIOBase):
    """Passes text through to ``target`` and counts the UTF-8 bytes."""

    def __init__(self, target):
        self.target, self.bytes = target, 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.target.write(text)


class Tracer:
    def __init__(self):
        self._stack = []
        self._saved = []
        self.values = defaultdict(float)

    def reset(self):
        # Cleared in place: the installed wrappers hold this mapping.
        self.values.clear()

    def snapshot(self):
        return {name: self.values.get(name, 0.0) for name in METRICS}

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, fn, on_exit):
        values, stack = self.values, self._stack
        inclusive = INCLUSIVE.get((layer, fn.__name__))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entering = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                values[f"{layer}.self_s"] += elapsed - frame[1]
                if inclusive:
                    values[inclusive] += elapsed
                on_exit(values, entering, args, kwargs, result, error)

        return traced

    # -- what each layer counts ------------------------------------------------

    @staticmethod
    def _counter(layer, name):
        if layer == "geometry":
            def count(values, entering, args, kwargs, result, error):
                if entering:
                    values["geometry.calls"] += 1
                    values["geometry.points"] += _angle_count(args, kwargs)
        elif layer == "quadrature":
            def count(values, entering, args, kwargs, result, error):
                if entering:
                    values["quadrature.calls"] += 1
                    done = result if result is not None else getattr(error, "result", None)
                    if done is not None:
                        values["quadrature.points"] += done.points_used
        elif layer == "spectrum":
            def count(values, entering, args, kwargs, result, error):
                if name == "solve_states":
                    values["spectrum.solves"] += 1
                elif name == "hamiltonian_element":
                    values["spectrum.elements"] += 1
        elif layer == "linalg":
            def count(values, entering, args, kwargs, result, error):
                if entering:
                    values["linalg.calls"] += 1
                    values["linalg.rows"] += _matrix_dim(args, kwargs)
        elif layer == "observables":
            def count(values, entering, args, kwargs, result, error):
                if name == "toroidal_moment":
                    values["observables.moments"] += 1
        else:
            def count(values, entering, args, kwargs, result, error):
                if name == "main":
                    values["cli.commands"] += 1
        return count

    def _wrap_cli_main(self, fn):
        """cli.main also reports the bytes it wrote, to --out or to stdout."""

        @functools.wraps(fn)
        def main(argv=None):
            argv = list(sys.argv[1:] if argv is None else argv)
            path = argv[argv.index("--out") + 1] if "--out" in argv else None
            stdout = sys.stdout
            counter = _CountingWriter(stdout)
            sys.stdout = counter
            try:
                return fn(argv)
            finally:
                sys.stdout = stdout
                written = counter.bytes
                if path not in (None, "-") and os.path.exists(path):
                    written += os.path.getsize(path)
                self.values["cli.bytes_out"] += written

        return main

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"helixtm.{layer}") for layer in LAYERS]
        package = importlib.import_module("helixtm")
        replacements = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapped = self._span(layer, obj, self._counter(layer, name))
                if layer == "cli" and name == "main":
                    wrapped = self._wrap_cli_main(wrapped)
                replacements[id(obj)] = (obj, wrapped)
        for module in [package, *modules]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._saved.append((module, name, obj))
                    setattr(module, name, replacements[id(obj)][1])

    def uninstall(self):
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()
