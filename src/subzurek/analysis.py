"""Structure-scale measurement on phase-space distributions.

The reference scale for interference structure of a state spread over
position extent L and momentum extent P is the tile area

    a_Z = (h/P) * (h/L) = h^2 / (L*P),

the finest generic fringe area such a state develops.  A superoscillating
comb beats this locally: its central momentum cut W(0,p) tracks the real
part of the superoscillating f at argument p*dx/hbar, so the zero crossings
near the origin tighten from h/(2L) to h/(2*L*alpha), and the local patch
area shrinks to roughly a_Z / alpha^2.  The estimators here measure exactly
that: crossing positions along a central cut, the recovered alpha, the
patch-area estimate, and the overspill ratio that decides whether the
exponentially small central structure is visible at all above the tails of
the two neighboring Gaussians.

The displacement-sensitivity diagnostic quantifies the flip side: overlap
decay under phase-space displacement is governed by the envelope set by the
bulk components, not by the superoscillatory patch, so the detection scale
shows no alpha-fold gain.  The overlaps are exact integrals over the whole
plane (wigner.displaced_overlaps), so a scan needs no window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import PhysicalConstants, StateSpec
from .wigner import MixtureSpec, displaced_overlaps, eval_cut, eval_wigner, finest_fringe, pair_kernel

OVERSPILL_WARN_RATIO = 0.1
_RHS_FLOOR = 1e-280


@dataclass(frozen=True)
class ScaleReport:
    """Measured structure scales of one central-cut analysis.

    crossing_spacings are consecutive gaps between detected sign changes;
    alpha_est = (h/(2L)) / min spacing; a_SO_est = (h/(L a)) * (h/(P a)).
    overspill_lhs/rhs are nan when the check was not run.
    """

    L: float
    P: float
    a_Z: float
    alpha_est: float
    a_SO_est: float
    crossing_spacings: tuple[float, ...]
    overspill_lhs: float = math.nan
    overspill_rhs: float = math.nan

    def __post_init__(self):
        if any(s <= 0.0 for s in self.crossing_spacings):
            raise ValueError("crossing spacings must all be positive")

    @property
    def overspill_ratio(self) -> float:
        if math.isnan(self.overspill_lhs) or math.isnan(self.overspill_rhs):
            return math.nan
        return self.overspill_lhs / self.overspill_rhs


@dataclass(frozen=True)
class OverspillResult:
    """Two sides of the visibility condition lhs << rhs at the origin."""

    lhs: float
    rhs: float
    ratio: float
    satisfied: bool
    indeterminate: bool = False


def zurek_scale(L: float, P: float, constants: PhysicalConstants) -> float:
    """Tile area (h/P)*(h/L) for extents L, P."""
    if not (L > 0.0 and P > 0.0):
        raise ValueError(f"extents must be positive, got L={L}, P={P}")
    h = constants.h
    return (h / P) * (h / L)


def recommended_cut_samples(
    window: float, L: float, alpha: float, constants: PhysicalConstants, per_fringe: int = 64
) -> int:
    """Sample count giving >= per_fringe samples per finest fringe h/(2 L alpha)."""
    fringe = finest_fringe(L, alpha, constants)
    return max(256, int(math.ceil(per_fringe * window / fringe)) + 1)


def crossings_from_samples(coords: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sign-change positions of a sampled profile, linearly interpolated."""
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    sign = np.sign(values)
    # exact zeros inherit the preceding nonzero sign (leading zeros stay 0)
    # so a touch does not double-count
    last = np.maximum.accumulate(np.where(sign != 0.0, np.arange(sign.size), 0))
    sign = sign[last]
    idx = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    frac = values[idx] / (values[idx] - values[idx + 1])
    return coords[idx] + frac * (coords[idx + 1] - coords[idx])


def central_cut_crossings(
    source, axis: str, window: float, samples: int
) -> np.ndarray:
    """Zero-crossing positions of W along a cut through the origin.

    axis "p_cut_at_x0" scans W(0, t), "x_cut_at_p0" scans W(t, 0) for t in
    [-window/2, window/2].  Crossings are located by linear interpolation
    between adjacent samples of opposite sign.
    """
    if axis not in ("p_cut_at_x0", "x_cut_at_p0"):
        raise ValueError(f"axis must be 'p_cut_at_x0' or 'x_cut_at_p0', got {axis!r}")
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")
    t = np.linspace(-window / 2.0, window / 2.0, samples)
    v = eval_cut(source, "p" if axis == "p_cut_at_x0" else "x", t)
    found = crossings_from_samples(t, v)
    if found.size < 2:
        raise ValueError(
            f"window {window} contains {found.size} crossings; need at least 2 "
            "(widen the window or check the state)"
        )
    return found


def superosc_scale(
    crossings: np.ndarray, L: float, P: float, constants: PhysicalConstants
) -> ScaleReport:
    """Estimate alpha and the patch area from central-cut crossings.

    Uses the smallest spacing: superoscillation is local to the origin and
    the envelope widens spacings away from it, so the minimum is the central
    value.
    """
    crossings = np.asarray(crossings, dtype=float)
    if crossings.size < 2:
        raise ValueError("need at least two crossings to measure a spacing")
    spacings = np.diff(np.sort(crossings))
    smallest = float(spacings.min())
    h = constants.h
    alpha_est = (h / (2.0 * L)) / smallest
    a_so = (h / (L * alpha_est)) * (h / (P * alpha_est))
    return ScaleReport(
        L=L,
        P=P,
        a_Z=zurek_scale(L, P, constants),
        alpha_est=alpha_est,
        a_SO_est=a_so,
        crossing_spacings=tuple(float(s) for s in spacings),
    )


def overspill_check(state: StateSpec, constants: PhysicalConstants | None = None) -> OverspillResult:
    """Compare the two neighbor components' Wigner weight at the origin with
    the full interference value there.

    lhs is the sum of the two isolated-component (diagonal-pair) kernels of
    the components adjacent to the central one; rhs is |W(0,0)| of the full
    state.  Emits a warning when the ratio exceeds 0.1 (structure drowned)."""
    constants = constants or state.constants
    if len(state.components) < 3:
        raise ValueError(
            "overspill check needs a central component with two adjacent "
            f"neighbors; state has {len(state.components)} components"
        )
    comps = sorted(state.components, key=lambda c: c.center)
    i0 = int(np.argmin([abs(c.center) for c in comps]))
    if i0 == 0 or i0 == len(comps) - 1:
        raise ValueError("central component has no neighbor on both sides")
    lhs = sum(
        float(pair_kernel(c, c, 0.0, 0.0, constants).real) for c in (comps[i0 - 1], comps[i0 + 1])
    )
    rhs = abs(eval_wigner(state, 0.0, 0.0))
    if rhs < _RHS_FLOOR:
        return OverspillResult(lhs=lhs, rhs=rhs, ratio=math.nan, satisfied=False, indeterminate=True)
    ratio = lhs / rhs
    satisfied = ratio < OVERSPILL_WARN_RATIO
    if not satisfied:
        warnings.warn(
            f"overspill ratio {ratio:.3g} >= {OVERSPILL_WARN_RATIO}: neighbor Gaussians "
            "drown the central interference structure",
            stacklevel=2,
        )
    return OverspillResult(lhs=lhs, rhs=rhs, ratio=ratio, satisfied=satisfied)


# ---------------------------------------------------------------------------
# displacement sensitivity

def displacement_sensitivity(source, delta_x: float, delta_p: float) -> float:
    """Normalized overlap O(d) = <W, W_shifted> / <W, W>.

    O(0) = 1 exactly; for a single Gaussian displaced in x it equals
    e^{-dx^2/(2 xi^2)}.
    """
    # a zero shift reuses both unshifted Gram matrices, so O(0) is exactly 1
    base, shifted = displaced_overlaps(source, [(0.0, 0.0), (delta_x, delta_p)])
    return float(shifted / base)


def overlap_decay_scan(
    source,
    direction: tuple[float, float],
    max_delta: float,
    steps: int = 161,
) -> tuple[np.ndarray, np.ndarray]:
    """O(t * direction) for t on a uniform grid in [0, max_delta]."""
    ux, up = direction
    norm = math.hypot(ux, up)
    if norm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    if not (math.isfinite(max_delta) and max_delta > 0.0 and steps >= 2):
        raise ValueError(f"scan needs finite max_delta > 0, steps >= 2, got {max_delta}, {steps}")
    ux, up = ux / norm, up / norm
    ts = np.linspace(0.0, max_delta, steps)
    # ts[0] = 0 reuses the unshifted Gram matrices, so O(0) is exactly 1
    ov = displaced_overlaps(source, [(ux * t, up * t) for t in ts])
    return ts, ov / ov[0]


def last_half_crossing(ts: np.ndarray, overlaps: np.ndarray) -> float:
    """Largest scan position where the overlap curve crosses 1/2 (interpolated)."""
    below = np.asarray(overlaps) < 0.5
    flips = np.nonzero(below[:-1] != below[1:])[0]
    if flips.size == 0:
        raise ValueError("overlap never crosses 1/2 within the scanned range; widen the scan")
    i = int(flips[-1])
    frac = (0.5 - overlaps[i]) / (overlaps[i + 1] - overlaps[i])
    return float(ts[i] + frac * (ts[i + 1] - ts[i]))


def half_overlap_displacement(
    source,
    direction: tuple[float, float] = (0.0, 1.0),
    max_delta: float | None = None,
    steps: int = 161,
) -> float:
    """Largest displacement along the ray at which O(d) still crosses 1/2.

    The overlap of a fringed state oscillates through 1/2 many times; the
    fringe-phase positions of the early dips measure the fringe period, not
    detectability.  The last crossing is meant as the gross scale beyond
    which the displaced state stays distinguishable, and it is that when the
    revivals of O(d) die out before the Gaussian component envelope does.
    When they outlast it, the last crossing is the last revival to top 1/2,
    a fringe phase: the compass (cat, delta_x = 12, cross) along the
    diagonal revives to 0.52 near d = 1.1 and gives 1.136, against 0.199 for
    fig2a along the diagonal.  Look at the scanned curve before comparing
    such values across states.
    """
    if max_delta is None:
        max_delta = default_scan_margin(source)
    ts, ov = overlap_decay_scan(source, direction, max_delta, steps)
    return last_half_crossing(ts, ov)


def default_scan_margin(source) -> float:
    """Default scan reach 2.5 * max(xi, hbar/xi).

    The envelope decays e^{-d^2/(2 xi^2)} and e^{-d^2 xi^2/(2 hbar^2)} both
    pass 1/2 near 1.18 * max(xi, hbar/xi), so the scan ends well past them.
    """
    states = [t.state for t in source.terms] if isinstance(source, MixtureSpec) else [source]
    xi = min(st.xi for st in states)
    hbar = states[0].constants.hbar
    return 2.5 * max(xi, hbar / xi)


# ---------------------------------------------------------------------------
# report serialization

def report_to_text(report: ScaleReport) -> str:
    lines = [
        f"L = {report.L:.17g}",
        f"P = {report.P:.17g}",
        f"a_Z = {report.a_Z:.17g}",
        f"alpha_est = {report.alpha_est:.17g}",
        f"a_SO_est = {report.a_SO_est:.17g}",
        f"overspill_lhs = {report.overspill_lhs:.17g}",
        f"overspill_rhs = {report.overspill_rhs:.17g}",
        f"overspill_ratio = {report.overspill_ratio:.17g}",
        "crossing_spacings = " + ",".join(f"{s:.17g}" for s in report.crossing_spacings),
    ]
    return "\n".join(lines) + "\n"
