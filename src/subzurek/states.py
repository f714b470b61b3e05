"""Gaussian superposition states in position space.

Every state handled here is a finite superposition of displaced squeezed
Gaussians sharing one width xi,

    psi(x) = sum_j coeff_j * s(x - center_j),
    s(x)   = (pi xi^2)^{-1/4} e^{-x^2 / (2 xi^2)}.

A StateSpec holds the centers and coefficients as two read-only arrays and
the width once, so a state of mixed widths cannot be built.  The one width
keeps every overlap and Wigner integral in closed form:

    <s(.-a) | s(.-b)> = e^{-(a-b)^2 / (4 xi^2)}.

Two constructors cover the cases of interest: a two-component cat state and
the superoscillating comb

    psi(x) = phi_0(x) + (1/sqrt2) sum_{j != 0, |j| <= n/2} (-i)^j phi_j(x),
    phi_j(x) = k_{|j|} s(x - j dx),

whose Wigner function reproduces the superoscillating f along the central
momentum cut.  Note (-i)^j for negative j is the ordinary integer power,
i.e. (-i)^{-j} = conj((-i)^j), which makes coeff_{-j} = conj(coeff_j).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .superosc import SuperoscParams, fourier_coeffs


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system: reduced Planck constant. h = 2*pi*hbar is always derived."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0) or not math.isfinite(self.hbar):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


@dataclass(frozen=True, eq=False)
class StateSpec:
    """Immutable Gaussian superposition of one width xi, plus unit system.

    centers and coeffs are stored as read-only float and complex arrays, one
    coefficient per center.
    """

    centers: np.ndarray
    coeffs: np.ndarray
    xi: float
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        centers = _read_only(np.array(self.centers, dtype=float))
        coeffs = _read_only(np.array(self.coeffs, dtype=complex))
        if centers.ndim != 1 or centers.size == 0:
            raise ValueError("state must have at least one component")
        if coeffs.shape != centers.shape:
            raise ValueError(
                f"state needs one coefficient per center, got {coeffs.shape} and {centers.shape}"
            )
        if not np.all(np.isfinite(centers)):
            raise ValueError(f"component centers must be finite, got {centers}")
        if not (self.xi > 0.0) or not math.isfinite(self.xi):
            raise ValueError(f"xi must be positive and finite, got {self.xi}")
        # the float64 core squares the phase-space extent and the finest width
        reach = float(np.max(np.abs(centers)))
        widths = (self.xi, self.constants.hbar / self.xi)
        extent = reach + 8.0 * max(widths)
        if not math.isfinite(extent * extent) or min(widths) ** 2 < sys.float_info.min:
            raise ValueError(
                f"geometry outside float64's range: max|center| = {reach:.3g}, "
                f"xi = {self.xi:.3g}, hbar/xi = {widths[1]:.3g}"
            )
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coeffs", coeffs)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def norm_squared(state: StateSpec) -> float:
    """<psi|psi> from the exact pairwise Gaussian overlap formula.

    Requires the shared-xi restriction; the general unequal-width overlap is
    out of scope.
    """
    xi = state.xi
    a = state.centers
    c = state.coeffs
    sep = a[:, None] - a[None, :]
    gram = np.exp(-(sep**2) / (4.0 * xi * xi))
    val = np.real(np.conj(c) @ gram @ c)
    return float(val)


def _normalize(state: StateSpec) -> StateSpec:
    scale = 1.0 / math.sqrt(norm_squared(state))
    return replace(state, coeffs=state.coeffs * scale)


def build_cat(
    delta_x: float,
    xi: float,
    constants: PhysicalConstants | None = None,
    normalize: bool = True,
) -> StateSpec:
    """Symmetric two-component cat state at centers +-delta_x.

    Before rescaling the coefficients are 1/sqrt2 each, so the raw norm
    squared is 1 + e^{-delta_x^2/xi^2}.
    """
    constants = constants or PhysicalConstants()
    if not (delta_x > 0.0) or not math.isfinite(delta_x):
        raise ValueError(f"delta_x must be positive and finite, got {delta_x}")
    w = 1.0 / math.sqrt(2.0)
    state = StateSpec(centers=[+float(delta_x), -float(delta_x)], coeffs=[complex(w)] * 2,
                      xi=float(xi), constants=constants)
    return _normalize(state) if normalize else state


def build_psi(
    params: SuperoscParams,
    delta_x: float,
    xi: float,
    constants: PhysicalConstants | None = None,
    normalize: bool = True,
) -> StateSpec:
    """Superoscillating comb of n+1 Gaussians at centers j*delta_x, |j| <= n/2.

    Component weights are k_0 at the origin and (-i)^j k_{|j|} / sqrt2
    elsewhere, with k from the coefficient table.  By default the whole state
    is rescaled to unit norm; pass normalize=False for the verbatim
    coefficients.
    """
    constants = constants or PhysicalConstants()
    if not (delta_x > 0.0):
        raise ValueError(f"delta_x must be positive, got {delta_x}")
    table = fourier_coeffs(params)
    half = params.n // 2
    if half % 2 == 1:
        warnings.warn(
            f"n/2 = {half} is odd: the central-fringe sign convention flips "
            "relative to the even-n/2 reference cases",
            stacklevel=2,
        )
    js = range(-half, half + 1)
    ks = [float(table.k[abs(j)]) for j in js]
    coeffs = [complex(k) if j == 0 else (-1j) ** j * k / math.sqrt(2.0) for j, k in zip(js, ks)]
    state = StateSpec(centers=[j * float(delta_x) for j in js], coeffs=coeffs,
                      xi=float(xi), constants=constants)
    return _normalize(state) if normalize else state


# ln(2^-1022): below this exponent float64 exp is subnormal or zero, and
# numpy reaches those values through a slow underflow path, about 100 times
# the cost of a normal result
_EXP_NORMAL_FLOOR = math.log(np.finfo(float).tiny)
# |x - center| / xi beyond which the exponent is below _EXP_NORMAL_FLOOR; the
# 1e-12 margin covers the rounding of the exponent near the edge
_EXP_NORMAL_REACH = math.sqrt(-2.0 * _EXP_NORMAL_FLOOR) * (1.0 + 1e-12)


def eval_psi(state: StateSpec, x):
    """psi(x); x may be a scalar or ndarray, complex values returned.

    Each component is evaluated only on the slice of an ascending 1-D array
    inside its reach, where its exp is a normal float64; past the reach its
    term, below 2.3e-308 times its weight, is left out.  Such an array
    (every quadrature lattice) goes straight to that kernel; any other input
    is flattened, sorted once with a stable argsort and scattered back.  NaN sorts last, outside every reach, so its
    positions are then set to nan + nan j, as a sum of NaN terms gives."""
    x = np.asarray(x, dtype=float)
    xs, order = x, None
    if not (x.ndim == 1 and bool(np.all(x[1:] >= x[:-1]))):  # NaN fails
        flat = x.ravel()
        order = np.argsort(flat, kind="stable")
        xs = flat[order]
    out = np.zeros(xs.shape, dtype=complex)
    xi = state.xi
    amp = (math.pi * xi**2) ** -0.25
    weights = [coeff * amp for coeff in state.coeffs.tolist()]
    reach = _EXP_NORMAL_REACH * xi
    spans = np.searchsorted(xs, np.add.outer(state.centers, (-reach, reach))).tolist()
    width = max(hi - lo for lo, hi in spans)
    g, term = np.empty(width), np.empty(width)
    re, im = out.real, out.imag
    # inside a reach every exponent is above ln(2^-1022) (1 + 1e-12)^2, so
    # exp all but never takes its subnormal path.  c * g has real part
    # c.real * g and imaginary part c.imag * g, bit for bit.  A part of c
    # that is +-0 would add +-0, which changes no sum (the sums start at +0
    # and never reach -0), so it is skipped: a comb's coefficients are real
    # or imaginary
    for center, c, (lo, hi) in zip(state.centers.tolist(), weights, spans):
        gp, tp = g[: hi - lo], term[: hi - lo]
        np.subtract(xs[lo:hi], center, out=gp)
        np.square(gp, out=gp)
        np.divide(gp, -(2.0 * xi**2), out=gp)
        np.exp(gp, out=gp)
        for acc, part in ((re, c.real), (im, c.imag)):
            if part:
                np.add(acc[lo:hi], np.multiply(gp, part, out=tp), out=acc[lo:hi])
    if order is None:
        return out
    scattered = np.empty_like(out)
    scattered[order] = out
    scattered[np.isnan(flat)] = complex(math.nan, math.nan)
    if x.ndim == 0:
        return complex(scattered[0])
    return scattered.reshape(x.shape)
