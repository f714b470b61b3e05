"""Outside-in layer timing: wrap public subzurek functions at module level.

Each target function is replaced, in every loaded ``subzurek`` module that
binds it (``analysis`` imports ``eval_cut`` by name, ``states`` imports
``fourier_coeffs``), by a wrapper that records a span.  A span's self time
is its duration minus the time of wrapped calls made inside it, so the self
times of all spans add up to the time covered by traced calls and nothing
is counted twice.  No file of the program changes.
"""

from __future__ import annotations

import functools
import sys
import time


def _samples(args, kwargs, result):
    window = kwargs.get("window", args[1] if len(args) > 1 else None)
    return window.nx * window.np


def _text_mb(args, kwargs, result):
    return len(result) / 1e6


def _payload_mb(args, kwargs, result):
    return len(kwargs.get("payload", args[1] if len(args) > 1 else b"")) / 1e6


def _steps(args, kwargs, result):
    return len(result[0])


# (module, function, span name, work per call or None)
TARGETS = (
    ("superosc", "fourier_coeffs", "superosc.fourier_coeffs", None),
    ("states", "build_psi", "states.build_psi", None),
    ("states", "build_cat", "states.build_cat", None),
    ("states", "norm_squared", "states.norm_squared", None),
    ("wigner", "eval_grid", "wigner.eval_grid", _samples),
    ("wigner", "eval_wigner", "wigner.eval_wigner", None),
    ("wigner", "eval_cut", "wigner.eval_cut", None),
    ("wigner", "marginal_x", "wigner.marginal_x", None),
    ("oracle", "wigner_quadrature", "oracle.wigner_quadrature", None),
    ("oracle", "norm_quadrature", "oracle.norm_quadrature", None),
    ("analysis", "central_cut_crossings", "analysis.central_cut_crossings", None),
    ("analysis", "overspill_check", "analysis.overspill_check", None),
    ("analysis", "overlap_decay_scan", "analysis.overlap_decay_scan", _steps),
    ("analysis", "last_half_crossing", "analysis.last_half_crossing", None),
    ("export", "grid_to_csv", "export.grid_to_csv", _text_mb),
    ("export", "grid_to_pgm", "export.grid_to_pgm", None),
    ("export", "atomic_write_text", "export.write", None),
    ("export", "atomic_write_bytes", "export.write", _payload_mb),
)


class Tracer:
    """Per-span-name totals: calls, self seconds, work units."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child seconds of each open span
        self.stats: dict[str, list[float]] = {}

    def wrap(self, name, fn, work=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
            if work is not None:
                stats[2] += work(args, kwargs, result)
            return result

        return traced

    def covered_s(self) -> float:
        """Seconds spent inside any traced call."""
        return sum(s[1] for s in self.stats.values())


def install(tracer: Tracer) -> None:
    """Replace every module-level binding of each target by its traced wrapper."""
    modules = [m for n, m in list(sys.modules.items()) if n == "subzurek" or n.startswith("subzurek.")]
    for mod_name, attr, name, work in TARGETS:
        original = getattr(sys.modules[f"subzurek.{mod_name}"], attr)
        wrapper = tracer.wrap(name, original, work)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
