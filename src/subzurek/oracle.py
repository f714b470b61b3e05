"""Brute-force Wigner transform by direct quadrature of the defining integral.

This is the validation path for the closed-form engine: everything here is
computed from

    W(x,p) = (1/pi hbar) int psi*(x+y) psi(x-y) e^{2ipy/hbar} dy

by composite Simpson quadrature, with no reference to the pairwise kernel.
There is one rule, default_quadrature: plain composite Simpson, with the
window and sample count from printed criteria instead of adaptivity so
failures are auditable.  Every point and the norm integral use it; no
caller chooses another.  The lattice is symmetric about y = 0, so psi is
evaluated once per point and read backwards for psi(x-y).  The transform
phase is built on the y >= 0 half alone, from cos and sin, and mirrored as
its conjugate; its bits are those of the complex exp over the whole
lattice.  The integrand is still formed and summed over the whole lattice:
its value at -y is the conjugate of its value at +y only up to roundoff, so
the imaginary part cancels pairwise and only checks roundoff.  The kernel
works in place and drops each array after its last use, so a point holds
about 36 bytes per lattice sample at its peak.

psi comes from states.eval_psi, whose components end where exp stops
returning normal numbers, at exponent ln(2^-1022); the terms left out are
below 2.3e-308 of their weight, and at validate's points on the presets no
oracle bit changes.  The Simpson sum adds the end samples and numpy's sums
of the odd and of the even samples, in an order fixed by numpy alone; a dot
product with a weight vector goes to BLAS, whose order follows the CPUs the
process may use, so validate printed different residuals on one CPU and on
two.

wigner_quadrature takes arrays of points.  It fixes every point's rule
first, so a point outside the oracle's regime raises before any quadrature
runs.  When the process may use two CPUs, the caller and one helper thread
then take points in turn from a shared counter; an error is raised in the
caller, lowest point index first.  Each point's bits are those of a serial
loop, with or without the helper.

For shared-width Gaussian superpositions the integrand's y-support is set by
the component centers and width alone: each (j,k) product term is a width-xi
Gaussian centered at (a_j - a_k)/2, so a half-width of max|center| + 8 xi
puts the truncated tails below 1e-16 of peak (e^{-64}).  The oscillation
rate is 2|p|/hbar from the transform phase plus O(1/xi) from the envelopes.
StateSpec rejects a geometry whose window or width float64 cannot square,
so the window is finite and positive.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .cpus import cpu_count
from .states import StateSpec, eval_psi

# Simpson panels per oscillation period demanded by the resolution criterion;
# the safety factor pushes the h^4 truncation error to ~1e-10 absolute.
_PANELS_PER_PERIOD = 16
_SAFETY = 16
_MAX_PANELS = 4_000_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration window half-width and even Simpson panel count."""

    y_halfwidth: float
    n_points: int


def default_quadrature(state: StateSpec, p: float = 0.0) -> QuadratureSpec:
    """Window max|center| + 8 xi; panel count from the fringe-resolution
    criterion at p, with safety margin (even, as _SAFETY is)."""
    yh = float(np.max(np.abs(state.centers))) + 8.0 * state.xi
    # 4/xi: the fourth-root-of-f'''' effective rate of the width-xi Gaussians
    rate = 2.0 * abs(p) / state.constants.hbar + 4.0 / state.xi
    n = max(int(math.ceil(_PANELS_PER_PERIOD * yh * rate / math.pi)) * _SAFETY, 64)
    if n > _MAX_PANELS:
        raise ValueError(
            f"resolution criterion demands {n} panels (p={p}, window={yh}); "
            "point is outside the oracle's practical regime"
        )
    return QuadratureSpec(y_halfwidth=yh, n_points=n)


def _simpson(values: np.ndarray, h: float):
    odd = values[1:-1:2].sum()
    even = values[2:-1:2].sum()
    return (values[0] + values[-1] + 4.0 * odd + 2.0 * even) * (h / 3.0)


def _parts(state: StateSpec, x: float, p: float, quad: QuadratureSpec) -> tuple[float, float]:
    """(real, imaginary) Simpson estimates of the transform integral under
    the rule quad."""
    hbar = state.constants.hbar
    half = quad.n_points // 2
    h = 2.0 * quad.y_halfwidth / quad.n_points
    # integer multiples of h make the lattice exactly symmetric, y[n - k] ==
    # -y[k], so psi(x - y) is psi(x + y) reversed and psi is evaluated once
    y = np.arange(-half, half + 1, dtype=float)
    y *= h
    # numpy's complex division by hbar multiplies by 1/hbar, so theta takes
    # the same factor and every bit of the phase below is the complex exp's
    theta = 2.0 * p * y[half:]
    theta *= 1.0 / hbar
    y += x
    f = eval_psi(state, y)
    del y
    integrand = np.conj(f)
    integrand *= f[::-1]
    del f
    # e^{2ipy/hbar} from cos and sin on y >= 0, the y < 0 half its conjugate
    # read backwards
    phase = np.empty(integrand.size, dtype=complex)
    np.cos(theta, out=phase.real[half:])
    np.sin(theta, out=phase.imag[half:])
    del theta
    phase.real[:half] = phase.real[:half:-1]
    np.negative(phase.imag[:half:-1], out=phase.imag[:half])
    integrand *= phase
    del phase
    total = _simpson(integrand, h) / (math.pi * hbar)
    return float(np.real(total)), float(np.imag(total))


def wigner_quadrature_parts(state: StateSpec, x: float, p: float) -> tuple[float, float]:
    """(real, imaginary) Simpson estimates of the transform integral.

    The imaginary part is a pure diagnostic; it cancels analytically.
    """
    return _parts(state, x, p, default_quadrature(state, p))


def _real_parts(state: StateSpec, xs: list, ps: list, quads: list) -> list[float]:
    """Real Simpson estimates at each point.  With two points and two CPUs
    the caller and one helper thread take points from a shared counter.
    The helper runs the private kernel _parts alone, so a profiler that
    wraps the public functions sees nothing on its thread."""
    values = [0.0] * len(quads)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    pending = iter(range(len(quads)))

    def work() -> None:
        # stop taking points after a failure; every lower index is already
        # taken, so the lowest failing index is the serial loop's
        while not errors:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                values[i] = _parts(state, xs[i], ps[i], quads[i])[0]
            except BaseException as exc:
                errors[i] = exc

    helper = None
    if len(quads) >= 2 and cpu_count() >= 2:
        helper = threading.Thread(target=work, name="subzurek-quadrature")
        helper.start()
    try:
        work()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return values


def wigner_quadrature(state: StateSpec, x, p):
    """Real part of the quadrature Wigner transform at phase-space points.

    Scalars in, float out; arrays broadcast, as in eval_wigner.  Every
    point's rule is fixed first, in index order, so a point outside the
    oracle's regime raises before any quadrature runs.
    """
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    xs, ps = x.ravel().tolist(), p.ravel().tolist()
    quads = [default_quadrature(state, pk) for pk in ps]
    values = _real_parts(state, xs, ps, quads)
    if x.ndim == 0:
        return values[0]
    return np.array(values).reshape(x.shape)


def norm_quadrature(state: StateSpec) -> float:
    """Simpson integral of |psi(x)|^2 over the default window, which covers
    every component +-8 xi."""
    quad = default_quadrature(state)
    y = np.linspace(-quad.y_halfwidth, quad.y_halfwidth, quad.n_points + 1)
    dens = np.abs(eval_psi(state, y)) ** 2
    h = 2.0 * quad.y_halfwidth / quad.n_points
    return float(_simpson(dens, h))
