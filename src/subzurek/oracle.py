"""Brute-force Wigner transform by direct quadrature of the defining integral.

This is the validation path for the closed-form engine: everything here is
computed from

    W(x,p) = (1/pi hbar) int psi*(x+y) psi(x-y) e^{2ipy/hbar} dy

by composite Simpson quadrature, with no reference to the pairwise kernel.
There is one rule, default_quadrature: plain composite Simpson, with the
window and sample count from printed criteria instead of adaptivity so
failures are auditable.  Every point and the norm integral use it; no
caller chooses another.  A point's lattice is symmetric about y = 0, so
psi is evaluated once a sample and read backwards for psi(x-y).  The
transform phase is taken from cos and sin on the y >= 0 samples alone,
each y < 0 sample the conjugate of its mirror; its bits are those of the
complex exp over the whole lattice.  The integrand is still formed and
summed over the whole lattice: its value at -y is the conjugate of its
value at +y only up to roundoff, so the imaginary part cancels pairwise and
only checks roundoff.

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
runs.  It then takes the points in index order, in batches of at most
_BATCH_SAMPLES lattice samples (a larger lattice alone).  A batch's
lattices, psi (one eval_psi call), integrand and transform phase are each
formed once, as one array over all its samples, and only the Simpson sums
are taken point by point.  Every sample's value is the arithmetic of its
own point: y = k h from its integer offset k from its point's middle
sample, and psi does not depend on the samples beside it.  So a point's
bits do not depend on the batching, and numpy's per-call cost, more than
the arithmetic on lattices of a few hundred samples, is paid once a batch.
The budget keeps a call's peak, about 90 bytes a sample, from growing with
the number of points.

For shared-width Gaussian superpositions the integrand is a sum of terms,
one per component pair (j,k):

    |c_j c_k| e^{-(x-m)^2/xi^2} e^{-(y-d)^2/xi^2} times a plane wave,

with m = (a_j + a_k)/2, d = (a_j - a_k)/2 and |m| + |d| <= A = max|center|.
Each point's window ends at Y(x) = min(A + 8 xi, A + 8 sqrt2 xi - |x|).
Past it the two exponents sum to at least 64: with a = (|x| - |m|)/xi and
b = (Y - |d|)/xi, either b >= 8, or a + b >= 8 sqrt2 and so a^2 + b^2 >=
(a + b)^2/2 >= 64.  So every dropped piece is below e^{-64} of its term's
unweighted peak, which is what the whole-comb window A + 8 xi guarantees
at x = 0.  Y is floored at xi, from |x| = A + (8 sqrt2 - 1) xi on, where
every term's x weight alone is below e^{-106}.  validate's 24 lattices on fig2b (n = 12)
take 12,810 panels, where the whole-comb window took 23,018.
The Simpson sum is (4 T_h - T_2h)/3, and on such terms a trapezoid sum of
step s is exponentially accurate: its error is the term's spectrum aliased
from the frequency 2 pi/s (Trefethen and Weideman, SIAM Rev. 56, 2014).
The coarse trapezoid T_2h aliases the most, from pi/h, where the
spectrum of a term is e^{-(pi/h - 2|p|/hbar)^2 xi^2/4} of its peak.  The
panel count makes pi/h >= 2|p|/hbar + 16/xi, which puts that weight at
e^{-64} too, the window's margin.  At validate's points on the presets a
margin of 8/xi left errors of 2e-9 to 6e-9, and a window ending at
A + 6 xi - |x| left 5e-12 to 4e-10; the rule leaves roundoff.
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
# how far, times xi, a point's window reaches past max|center| - |x|: a
# dropped pair term is then below e^{-64} of its peak (module docstring)
_PAIR_REACH = 8.0 * math.sqrt(2.0)
_MAX_PANELS = 4_000_000
# lattice samples per eval_psi call of wigner_quadrature; a point whose
# lattice is larger takes a call of its own
_BATCH_SAMPLES = 1 << 12


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration window half-width and even Simpson panel count."""

    y_halfwidth: float
    n_points: int


def default_quadrature(state: StateSpec, p: float = 0.0, x: float = 0.0) -> QuadratureSpec:
    """Window min(A + 8 xi, A + 8 sqrt2 xi - |x|), A = max|center|, and at
    least xi; the fewest even panels, and at least 64, that make
    pi/h >= 2|p|/hbar + 16/xi (see the module docstring)."""
    reach = float(np.max(np.abs(state.centers)))
    yh = max(min(reach + 8.0 * state.xi, reach + _PAIR_REACH * state.xi - abs(x)), state.xi)
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


def _batch_parts(state: StateSpec, xs, ps, quads) -> list[tuple[float, float]]:
    """(real, imaginary) Simpson estimates of the transform integral at each
    point under its rule, from whole-batch arrays and per-point Simpson sums
    (see the module docstring)."""
    hbar = state.constants.hbar
    sizes = [quad.n_points + 1 for quad in quads]
    hs = [2.0 * quad.y_halfwidth / quad.n_points for quad in quads]
    ends = np.cumsum(sizes)
    # y = k h from each sample's integer offset k from its point's middle
    # sample: the lattice is exactly symmetric about x, so psi(x - y) is
    # psi(x + y) read through mirror, each run reversed
    middle = np.repeat(ends - np.array(sizes) // 2 - 1, sizes)
    k = np.arange(ends[-1]) - middle
    mirror = middle - k
    up = k >= 0
    y = k * np.repeat(hs, sizes)
    del middle, k
    # numpy's complex division by hbar multiplies by 1/hbar, so theta takes
    # the same factor and every bit of the phase is the complex exp's
    theta = y[up]
    theta *= np.repeat([2.0 * p for p in ps], [size // 2 + 1 for size in sizes])
    theta *= 1.0 / hbar
    y += np.repeat(xs, sizes)
    f = eval_psi(state, y)
    del y
    integrand = np.conj(f)
    integrand *= f[mirror]
    del f
    # e^{2ipy/hbar} from cos and sin on y >= 0, each y < 0 sample the
    # conjugate of its mirror sample
    phase = np.empty(integrand.size, dtype=complex)
    phase.real[up] = np.cos(theta)
    phase.imag[up] = np.sin(theta)
    phase[~up] = np.conj(phase[mirror[~up]])
    integrand *= phase
    parts = []
    for h, stop, size in zip(hs, ends.tolist(), sizes):
        total = _simpson(integrand[stop - size:stop], h) / (math.pi * hbar)
        parts.append((float(np.real(total)), float(np.imag(total))))
    return parts


def wigner_quadrature_parts(state: StateSpec, x: float, p: float) -> tuple[float, float]:
    """(real, imaginary) Simpson estimates of the transform integral.

    The imaginary part is a pure diagnostic; it cancels analytically.
    """
    return _batch_parts(state, [x], [p], [default_quadrature(state, p, x)])[0]


def wigner_quadrature(state: StateSpec, x, p):
    """Real part of the quadrature Wigner transform at phase-space points.

    Scalars in, float out; arrays broadcast, as in eval_wigner.  Every
    point's rule is fixed first, in index order, so a point outside the
    oracle's regime raises before any quadrature runs.  The points are then
    taken in index order, in batches of at most _BATCH_SAMPLES lattice
    samples, each batch transformed in one pass (_batch_parts).
    """
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    xs, ps = x.ravel().tolist(), p.ravel().tolist()
    quads = [default_quadrature(state, pk, xk) for xk, pk in zip(xs, ps)]
    values, start, samples = [], 0, 0
    for k, quad in enumerate(quads):
        samples += quad.n_points + 1
        if k + 1 == len(quads) or samples + quads[k + 1].n_points + 1 > _BATCH_SAMPLES:
            batch = slice(start, k + 1)
            values += [re for re, _ in _batch_parts(state, xs[batch], ps[batch], quads[batch])]
            start, samples = k + 1, 0
    if x.ndim == 0:
        return values[0]
    return np.array(values).reshape(x.shape)


def norm_quadrature(state: StateSpec) -> float:
    """Simpson integral of |psi(x)|^2 over the default window at x = 0,
    which covers every component +-8 xi."""
    quad = default_quadrature(state)
    y = np.linspace(-quad.y_halfwidth, quad.y_halfwidth, quad.n_points + 1)
    dens = np.abs(eval_psi(state, y)) ** 2
    h = 2.0 * quad.y_halfwidth / quad.n_points
    return float(_simpson(dens, h))
