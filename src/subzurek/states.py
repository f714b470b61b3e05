"""Gaussian superposition states in position space.

Every state handled here is a finite superposition of displaced squeezed
Gaussians sharing one width xi,

    psi(x) = sum_j coeff_j * s(x - center_j),
    s(x)   = (pi xi^2)^{-1/4} e^{-x^2 / (2 xi^2)},

which keeps every overlap and Wigner integral in closed form:

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

import functools
import math
import warnings
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class GaussianComponent:
    """One displaced squeezed Gaussian: center, width xi, complex weight."""

    center: float
    xi: float
    coeff: complex

    def __post_init__(self):
        if not (self.xi > 0.0) or not math.isfinite(self.xi):
            raise ValueError(f"xi must be positive and finite, got {self.xi}")
        if not math.isfinite(self.center):
            raise ValueError(f"component center must be finite, got {self.center}")


@dataclass(frozen=True)
class StateSpec:
    """Immutable Gaussian superposition plus unit system.

    normalized records whether the coefficients were rescaled so that the
    exact pairwise-overlap norm is 1.
    """

    components: tuple[GaussianComponent, ...]
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    normalized: bool = False

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("state must have at least one component")

    # computed on first access and kept; the arrays are read-only because
    # every caller shares them
    @functools.cached_property
    def centers(self) -> np.ndarray:
        return _read_only(np.array([c.center for c in self.components]))

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        return _read_only(np.array([c.coeff for c in self.components], dtype=complex))

    @functools.cached_property
    def xi(self) -> float:
        """Common width of all components; raises on mixed widths."""
        xis = {c.xi for c in self.components}
        if len(xis) > 1:
            raise ValueError(f"components carry mixed xi values {sorted(xis)}")
        return self.components[0].xi


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
    n2 = norm_squared(state)
    scale = 1.0 / math.sqrt(n2)
    comps = tuple(
        GaussianComponent(c.center, c.xi, c.coeff * scale) for c in state.components
    )
    return StateSpec(components=comps, constants=state.constants, normalized=True)


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
    w = 1.0 / math.sqrt(2.0)
    comps = (
        GaussianComponent(+float(delta_x), float(xi), complex(w)),
        GaussianComponent(-float(delta_x), float(xi), complex(w)),
    )
    state = StateSpec(components=comps, constants=constants)
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
    is rescaled to unit norm (flagged); pass normalize=False for the verbatim
    coefficients.
    """
    constants = constants or PhysicalConstants()
    if not (delta_x > 0.0):
        raise ValueError(f"delta_x must be positive, got {delta_x}")
    if not (xi > 0.0):
        raise ValueError(f"xi must be positive, got {xi}")
    table = fourier_coeffs(params)
    half = params.n // 2
    if half % 2 == 1:
        warnings.warn(
            f"n/2 = {half} is odd: the central-fringe sign convention flips "
            "relative to the even-n/2 reference cases",
            stacklevel=2,
        )
    comps = []
    for j in range(-half, half + 1):
        k = float(table.k[abs(j)])
        if j == 0:
            coeff = complex(k)
        else:
            coeff = (-1j) ** j * k / math.sqrt(2.0)
        comps.append(GaussianComponent(j * float(delta_x), float(xi), coeff))
    state = StateSpec(components=tuple(comps), constants=constants)
    return _normalize(state) if normalize else state


# float64 exp rounds to exactly +0.0 below about -745.13, but numpy reaches
# that zero through a slow underflow path
_EXP_ZERO_BELOW = -746.0
# |x - center| / xi beyond which the exponent is below _EXP_ZERO_BELOW; the
# 1e-12 margin covers the rounding of the exponent near the edge
_EXP_ZERO_REACH = math.sqrt(-2.0 * _EXP_ZERO_BELOW) * (1.0 + 1e-12)


def eval_psi(state: StateSpec, x):
    """psi(x); x may be a scalar or ndarray, complex values returned."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    g = np.empty(xs.shape)
    # on an ascending 1-D input (the quadrature lattices) each component is
    # evaluated only on the slice inside its reach, where its exp can be
    # nonzero; past the reach it adds exactly zero.  NaN fails the ascending
    # test, so such input takes the full loop and the NaN propagates.
    ascending = xs.ndim == 1 and bool(np.all(xs[1:] >= xs[:-1]))
    for comp in state.components:
        amp = (math.pi * comp.xi**2) ** -0.25
        if ascending:
            reach = _EXP_ZERO_REACH * comp.xi
            lo, hi = np.searchsorted(xs, (comp.center - reach, comp.center + reach))
            part = slice(lo, hi)
        else:
            part = ...
        xp, gp = xs[part], g[part]
        arg = -((xp - comp.center) ** 2) / (2.0 * comp.xi**2)
        # skip the arguments whose exp is exactly zero; NaN still propagates
        gp.fill(0.0)
        np.exp(arg, out=gp, where=~(arg < _EXP_ZERO_BELOW))
        out[part] += comp.coeff * amp * gp
    if np.isscalar(x) or (hasattr(x, "ndim") and x.ndim == 0):
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# flat text serialization (17 significant digits, round-trip exact)

def state_to_text(state: StateSpec) -> str:
    lines = [
        f"hbar = {state.constants.hbar:.17g}",
        f"normalized = {int(state.normalized)}",
        f"n_components = {len(state.components)}",
    ]
    for i, c in enumerate(state.components):
        lines.append(
            f"component_{i} = {c.center:.17g} {c.xi:.17g} "
            f"{c.coeff.real:.17g} {c.coeff.imag:.17g}"
        )
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> StateSpec:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        hbar = float(fields["hbar"])
        normalized = bool(int(fields["normalized"]))
        n = int(fields["n_components"])
        comps = []
        for i in range(n):
            center, xi, re, im = (float(t) for t in fields[f"component_{i}"].split())
            comps.append(GaussianComponent(center, xi, complex(re, im)))
    except KeyError as exc:
        raise ValueError(f"state text missing field {exc}") from exc
    return StateSpec(
        components=tuple(comps),
        constants=PhysicalConstants(hbar=hbar),
        normalized=normalized,
    )
