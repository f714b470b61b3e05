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
runs, then integrates the points one by one in index order.

For shared-width Gaussian superpositions the integrand is a sum of terms,
one per component pair (j,k): a Gaussian e^{-(y-d)^2/xi^2} centered at
d = (a_j - a_k)/2 times the plane wave e^{2ipy/hbar}.  A half-width of
max|center| + 8 xi puts every truncated tail below e^{-64} of its peak.
The Simpson sum is (4 T_h - T_2h)/3, and on such terms a trapezoid sum of
step s is exponentially accurate: its error is the term's spectrum aliased
from the frequency 2 pi/s (Trefethen and Weideman, SIAM Rev. 56, 2014).
The coarse trapezoid T_2h aliases the most, from pi/h, where the
spectrum of a term is e^{-(pi/h - 2|p|/hbar)^2 xi^2/4} of its peak.  The
panel count makes pi/h >= 2|p|/hbar + 16/xi, which puts that weight at
e^{-64} too, the window's margin.  At validate's points on the presets
a margin of 8/xi left errors of 2e-9 to 6e-9; 16/xi leaves roundoff.
StateSpec rejects a geometry whose window or width float64 cannot square,
so the window is finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import StateSpec, eval_psi

# how far, times 1/xi, the coarse trapezoid's alias frequency pi/h must
# pass 2|p|/hbar: the aliased weight is then e^{-(16/2)^2} = e^{-64}
_ALIAS_MARGIN = 16.0
_MAX_PANELS = 4_000_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration window half-width and even Simpson panel count."""

    y_halfwidth: float
    n_points: int


def default_quadrature(state: StateSpec, p: float = 0.0) -> QuadratureSpec:
    """Window max|center| + 8 xi; the fewest even panels, and at least 64,
    that make pi/h >= 2|p|/hbar + 16/xi (see the module docstring)."""
    yh = float(np.max(np.abs(state.centers))) + 8.0 * state.xi
    rate = 2.0 * abs(p) / state.constants.hbar + _ALIAS_MARGIN / state.xi
    # h = 2 yh / n, so pi/h >= rate takes n >= 2 yh rate / pi
    n = max(2 * int(math.ceil(yh * rate / math.pi)), 64)
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


def wigner_quadrature(state: StateSpec, x, p):
    """Real part of the quadrature Wigner transform at phase-space points.

    Scalars in, float out; arrays broadcast, as in eval_wigner.  Every
    point's rule is fixed first, in index order, so a point outside the
    oracle's regime raises before any quadrature runs.
    """
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    xs, ps = x.ravel().tolist(), p.ravel().tolist()
    quads = [default_quadrature(state, pk) for pk in ps]
    values = [_parts(state, xk, pk, quad)[0] for xk, pk, quad in zip(xs, ps, quads)]
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
