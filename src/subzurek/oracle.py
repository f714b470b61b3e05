"""Brute-force Wigner transform by direct quadrature of the defining integral.

This is the validation path for the closed-form engine: everything here is
computed from

    W(x,p) = (1/pi hbar) int psi*(x+y) psi(x-y) e^{2ipy/hbar} dy

by composite Simpson quadrature, with no reference to the pairwise kernel.
The rule is plain composite Simpson; windows and sample counts follow printed
criteria instead of adaptivity so failures are auditable.  The lattice is
symmetric about y = 0, so psi is evaluated once per point and read backwards
for psi(x-y).  The transform phase is built on the y >= 0 half alone, from
cos and sin, and mirrored as its conjugate; its bits are those of the complex
exp over the whole lattice.  The integrand is still formed and summed over
the whole lattice: its value at -y is the conjugate of its value at +y only
up to roundoff, so the imaginary part cancels pairwise and only checks
roundoff.  The kernel works in place and drops each array after its last
use, so a point holds about 36 bytes per lattice sample at its peak.

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

    def __post_init__(self):
        if not (self.y_halfwidth > 0.0) or not math.isfinite(self.y_halfwidth):
            raise ValueError(f"y_halfwidth must be positive, got {self.y_halfwidth}")
        if self.n_points < 2 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be a positive even panel count, got {self.n_points}")


def _envelope_rate(state: StateSpec) -> float:
    # fourth-root-of-f'''' effective rate of the width-xi Gaussian factors
    return 4.0 / state.xi


def required_panels(state: StateSpec, p: float, y_halfwidth: float) -> int:
    """Panel count from the fringe-resolution criterion, with safety margin."""
    rate = 2.0 * abs(p) / state.constants.hbar + _envelope_rate(state)
    base = int(math.ceil(_PANELS_PER_PERIOD * y_halfwidth * rate / math.pi))
    n = base * _SAFETY
    n += n % 2
    n = max(n, 64)
    if n > _MAX_PANELS:
        raise ValueError(
            f"resolution criterion demands {n} panels (p={p}, window={y_halfwidth}); "
            "point is outside the oracle's practical regime"
        )
    return n


def default_quadrature(state: StateSpec, p: float = 0.0) -> QuadratureSpec:
    """Window max|center| + 8 xi; panel count from the fringe criterion."""
    yh = float(np.max(np.abs(state.centers))) + 8.0 * state.xi
    return QuadratureSpec(y_halfwidth=yh, n_points=required_panels(state, p, yh))


def _check_window(state: StateSpec, quad: QuadratureSpec) -> None:
    # integrand envelope at the window edge, relative to peak: the nearest
    # (j,k) Gaussian center in y is at most max|center| from the edge
    spread = quad.y_halfwidth - float(np.max(np.abs(state.centers)))
    if spread <= 0.0 or math.exp(-(spread**2) / (state.xi**2)) > 1e-16:
        raise ValueError(
            f"quadrature window {quad.y_halfwidth} too narrow: integrand tail "
            "exceeds 1e-16 of peak at the boundary"
        )


def _simpson(values: np.ndarray, h: float):
    # weights in the values' dtype: a complex @ makes no cast copy of them
    weights = np.ones(values.shape[-1], dtype=values.dtype)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (values @ weights) * (h / 3.0)


def _rule(state: StateSpec, p: float, quad: QuadratureSpec | None) -> QuadratureSpec:
    """quad, or the default rule at p, checked against the fringe and window
    criteria."""
    if quad is None:
        quad = default_quadrature(state, p)
    else:
        minimum = required_panels(state, p, quad.y_halfwidth) // _SAFETY
        if quad.n_points < minimum:
            raise ValueError(
                f"n_points={quad.n_points} below the fringe-resolution minimum "
                f"{minimum} for p={p}"
            )
    _check_window(state, quad)
    return quad


def wigner_quadrature_parts(
    state: StateSpec, x: float, p: float, quad: QuadratureSpec | None = None
) -> tuple[float, float]:
    """(real, imaginary) Simpson estimates of the transform integral.

    The imaginary part is a pure diagnostic; it cancels analytically.
    """
    quad = _rule(state, p, quad)
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


def _real_parts(state: StateSpec, xs: list, ps: list, quads: list) -> list[float]:
    """Real Simpson estimates at each point.  With two points and two CPUs
    the caller and one helper thread take points from a shared counter.
    The helper runs wigner_quadrature_parts alone, so a profiler that wraps
    the public functions sees nothing on its thread."""
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
                values[i] = wigner_quadrature_parts(state, xs[i], ps[i], quads[i])[0]
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


def wigner_quadrature(state: StateSpec, x, p, quad: QuadratureSpec | None = None):
    """Real part of the quadrature Wigner transform at phase-space points.

    Scalars in, float out; arrays broadcast, as in eval_wigner.  Every
    point's rule is fixed first, in index order, so a point outside the
    oracle's regime raises before any quadrature runs.
    """
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    xs, ps = x.ravel().tolist(), p.ravel().tolist()
    quads = [_rule(state, pk, quad) for pk in ps]
    values = _real_parts(state, xs, ps, quads)
    if x.ndim == 0:
        return values[0]
    return np.array(values).reshape(x.shape)


def norm_quadrature(state: StateSpec, quad: QuadratureSpec | None = None) -> float:
    """Simpson integral of |psi(x)|^2; window must cover all components +-8 xi."""
    if quad is None:
        quad = default_quadrature(state)
    required = float(np.max(np.abs(state.centers))) + 8.0 * state.xi
    if quad.y_halfwidth < required:
        raise ValueError(
            f"norm window {quad.y_halfwidth} < required {required} (all components +-8 xi)"
        )
    y = np.linspace(-quad.y_halfwidth, quad.y_halfwidth, quad.n_points + 1)
    dens = np.abs(eval_psi(state, y)) ** 2
    h = 2.0 * quad.y_halfwidth / quad.n_points
    return float(_simpson(dens, h))
