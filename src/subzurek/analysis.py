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
patch-area estimate, and the overspill ratio of the two neighboring
components' own Gaussian weight at the origin to |W(0,0)|.  That ratio says
whether their tails swamp the central value, not whether the value is more
than float64 roundoff: `analyze --n 20 --alpha 16` reports "ok" while its
W(0,0) is roundoff (ROADMAP items 1 and 12).  analyze measures a state as
the `analyze` command does; validate_gates gives the `validate` command's gates.

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

from . import oracle, states, wigner
from .states import PhysicalConstants, StateSpec
from .wigner import Factored, displaced_overlaps, eval_cut, eval_wigner, finest_fringe, pair_kernel

OVERSPILL_WARN_RATIO = 0.1
_RHS_FLOOR = 1e-280
_CUT_SAMPLES_PER_FRINGE = 64


@dataclass(frozen=True)
class ScaleReport:
    """Measured structure scales of one central-cut analysis.

    crossing_spacings are consecutive gaps between detected sign changes;
    alpha_est = (h/(2L)) / min spacing; a_SO_est = (h/(L a)) * (h/(P a)).
    """

    L: float
    P: float
    a_Z: float
    alpha_est: float
    a_SO_est: float
    crossing_spacings: tuple[float, ...]

    def __post_init__(self):
        if any(s <= 0.0 for s in self.crossing_spacings):
            raise ValueError("crossing spacings must all be positive")


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

    axis is eval_cut's: "p" scans W(0, t), "x" scans W(t, 0) for t in
    [-window/2, window/2].  Crossings are located by linear interpolation
    between adjacent samples of opposite sign.
    """
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")
    t = np.linspace(-window / 2.0, window / 2.0, samples)
    v = eval_cut(source, axis, t)
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


def overspill_check(state: StateSpec, core: Factored | None = None) -> OverspillResult:
    """Compare the two neighbor components' own Wigner weight at the origin
    with the full value there.

    lhs is the sum of the two isolated-component (diagonal-pair) kernels of
    the components adjacent to the central one; rhs is |W(0,0)| of the full
    state, read from core, the state's factored form, when it is given.
    Emits a warning when the ratio exceeds 0.1 (their tails swamp the
    central value).  A small ratio does not show that rhs is more than
    float64 roundoff of the interference sum (ROADMAP items 1 and 12)."""
    if state.centers.size < 3:
        raise ValueError(
            "overspill check needs a central component with two adjacent "
            f"neighbors; state has {state.centers.size} components"
        )
    order = np.argsort(state.centers, kind="stable")
    i0 = int(np.argmin(np.abs(state.centers[order])))
    if i0 == 0 or i0 == order.size - 1:
        raise ValueError("central component has no neighbor on both sides")
    lhs = sum(float(pair_kernel(state, j, j, 0.0, 0.0).real) for j in order[[i0 - 1, i0 + 1]])
    rhs = abs(eval_wigner(state if core is None else core, 0.0, 0.0))
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


def analyze(state: StateSpec, alpha: float) -> tuple[ScaleReport, OverspillResult | None]:
    """The scale report and overspill check (None under 3 components) of
    `subzurek analyze`: L = P = the spread of the centers, and the p cut spans
    the h/L panel at 64 samples per finest fringe h/(2 L alpha), 256 at least.
    The state is factored once, for the cut and the overspill check."""
    constants = state.constants
    core = wigner.factor(state)
    L = float(np.ptp(state.centers))
    fringe = finest_fringe(L, alpha, constants)
    window = constants.h / L
    samples = max(256, int(math.ceil(_CUT_SAMPLES_PER_FRINGE * window / fringe)) + 1)
    report = superosc_scale(central_cut_crossings(core, "p", window, samples), L, L, constants)
    return report, overspill_check(state, core) if state.centers.size >= 3 else None


def validate_gates(state: StateSpec, points: int) -> list[tuple[str, float, float]]:
    """The `subzurek validate` gates as (name, value, tol), passing when
    value <= tol: the closed form against the quadrature oracle at `points`
    seeded points, and the exact norm, marginal and total integral.  The
    state is factored once for every closed-form gate.  Calls go through the
    modules, so a function patched there is the one checked."""
    rng = np.random.default_rng(20260808)
    xi, hbar = state.xi, state.constants.hbar
    half = float(np.max(np.abs(state.centers)))
    drawn = [(rng.uniform(-half - 2 * xi, half + 2 * xi), rng.uniform(-3.5 * hbar / xi, 3.5 * hbar / xi))
             for _ in range(points)]
    xs, ps = np.array(drawn).reshape(-1, 2).T
    core = wigner.factor(state)
    closed = wigner.eval_wigner(core, xs, ps)
    quad = oracle.wigner_quadrature(state, xs, ps)
    full = wigner._pair_sum_complex(state, xs, ps)
    n2 = states.norm_squared(state)
    nq = oracle.norm_quadrature(state)
    # the marginal and total integral are exact over the whole p line and plane
    window = wigner.suggested_window(core)
    samples = wigner.integration_samples(window.x_max - window.x_min, 0.0, xi)
    lattice = np.linspace(window.x_min, window.x_max, samples)
    marg = wigner.marginal_x(core, lattice)
    psi2 = np.abs(states.eval_psi(state, lattice)) ** 2
    return [
        ("closed-form vs quadrature (abs)", float(np.max(np.abs(closed - quad), initial=0.0)), 1e-8),
        ("pair-sum imaginary residue (rel)",
         float(np.max(np.abs(full.imag) / np.maximum(1.0, np.abs(full.real)), initial=0.0)), 1e-12),
        ("norm closed-form vs quadrature (rel)", abs(n2 - nq) / nq, 1e-8),
        ("normalization |<psi|psi>-1|", abs(n2 - 1.0), 1e-10),
        ("marginal vs |psi|^2 (abs)", float(np.max(np.abs(marg - psi2))), 1e-12),
        ("total integral - 1", abs(wigner.total_integral(core) - 1.0), 1e-12),
    ]


# ---------------------------------------------------------------------------
# displacement sensitivity

def displacement_sensitivity(source, delta_x: float, delta_p: float) -> float:
    """Normalized overlap O(d) = <W, W_shifted> / <W, W>.

    O(0) = 1 exactly; for a single Gaussian displaced in x it equals
    e^{-dx^2/(2 xi^2)}.
    """
    # the two shifts share one block of arithmetic, so a zero shift gives exactly 1
    base, shifted = displaced_overlaps(source, [(0.0, 0.0), (delta_x, delta_p)])
    return float(shifted / base)


def overlap_decay_scan(
    source,
    direction: tuple[float, float],
    max_delta: float | None = None,
    steps: int = 161,
) -> tuple[np.ndarray, np.ndarray]:
    """O(t * direction) for t uniform in [0, max_delta], by default default_scan_margin(source)."""
    ux, up = direction
    norm = math.hypot(ux, up)
    if norm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    if max_delta is None:
        max_delta = default_scan_margin(source)
    if not (math.isfinite(max_delta) and max_delta > 0.0 and steps >= 2):
        raise ValueError(f"scan needs finite max_delta > 0, steps >= 2, got {max_delta}, {steps}")
    ux, up = ux / norm, up / norm
    ts = np.linspace(0.0, max_delta, steps)
    # ts[0] = 0, so dividing by ov[0] makes O(0) exactly 1
    ov = displaced_overlaps(source, [(ux * t, up * t) for t in ts])
    return ts, ov / ov[0]


def last_half_crossing(ts: np.ndarray, overlaps: np.ndarray) -> float:
    """Largest scan position where the overlap curve crosses 1/2 (interpolated).

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
    below = np.asarray(overlaps) < 0.5
    flips = np.nonzero(below[:-1] != below[1:])[0]
    if flips.size == 0:
        raise ValueError("overlap never crosses 1/2 within the scanned range; widen the scan")
    i = int(flips[-1])
    frac = (0.5 - overlaps[i]) / (overlaps[i + 1] - overlaps[i])
    return float(ts[i] + frac * (ts[i + 1] - ts[i]))


def default_scan_margin(source) -> float:
    """Default scan reach 2.5 * max(xi, hbar/xi).

    The envelope decays e^{-d^2/(2 xi^2)} and e^{-d^2 xi^2/(2 hbar^2)} both
    pass 1/2 near 1.18 * max(xi, hbar/xi), so the scan ends well past them.
    """
    xi = min(t.state.xi for t in wigner._terms(source))
    return 2.5 * max(xi, source.constants.hbar / xi)


# ---------------------------------------------------------------------------
# report serialization

def report_to_text(report: ScaleReport, spill: OverspillResult | None = None) -> str:
    """The report as `key = value` lines; the overspill keys come from
    spill and are nan when the check was skipped (spill None)."""
    lhs, rhs, ratio = (math.nan,) * 3 if spill is None else (spill.lhs, spill.rhs, spill.ratio)
    lines = [
        f"L = {report.L:.17g}",
        f"P = {report.P:.17g}",
        f"a_Z = {report.a_Z:.17g}",
        f"alpha_est = {report.alpha_est:.17g}",
        f"a_SO_est = {report.a_SO_est:.17g}",
        f"overspill_lhs = {lhs:.17g}",
        f"overspill_rhs = {rhs:.17g}",
        f"overspill_ratio = {ratio:.17g}",
        "crossing_spacings = " + ",".join(f"{s:.17g}" for s in report.crossing_spacings),
    ]
    return "\n".join(lines) + "\n"
