"""Independent references for the benchmark's correctness checks.

Nothing here imports subzurek.  The states are rebuilt from their definition
(arXiv:1704.08174, with hbar = 1 unless given):

    psi(x) = phi_0(x) + (1/sqrt2) sum_{j != 0, |j| <= n/2} (-i)^j phi_j(x),
    phi_j(x) = k_|j| s(x - j dx),   s = width-xi Gaussian,
    c_j = (-1)^j C(n,j) (alpha+1)^(n-j) (alpha-1)^j / 2^n,
    d_0 = c_{n/2},  d_j = c_{n/2+j} + c_{n/2-j},  k_j = sqrt|d_j|,

with the c_j in exact rational arithmetic, and normalised by a trapezoid
integral of |psi|^2.  W comes from a direct trapezoid quadrature of

    W(x,p) = (1/pi hbar) int psi*(x+y) psi(x-y) e^{2ipy/hbar} dy,

and the overlap of a mixture with its displaced copy from wave functions
alone, sum_ab w_a w_b |<a|D(d)|b>|^2, with no phase-space grid.  The cross
mixture's quarter-turned arm W(-p, x) is the Wigner function of the momentum
wave function psi~ read as a position wave function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MP_DIGITS = 60
# The CLI presets, restated from the paper's figure captions.
PRESETS = {
    "fig1": dict(n=8, alpha=10.0, xi=0.25, delta_x=3.0, cross=False),
    "fig2a": dict(n=4, alpha=6.0, xi=1.0, delta_x=6.0, cross=True),
    "fig2b": dict(n=12, alpha=10.0, xi=0.25, delta_x=3.0, cross=True),
    "fig2c": dict(n=12, alpha=16.0, xi=0.25, delta_x=3.0, cross=True),
    "cat": dict(n=None, alpha=1.0, xi=1.0, delta_x=3.0, cross=False),
}


def exact_d(n: int, alpha: float) -> list[Fraction]:
    """d_0..d_{n/2} in exact rational arithmetic."""
    a = Fraction(alpha)
    c = [
        Fraction((-1) ** j * math.comb(n, j)) * (a + 1) ** (n - j) * (a - 1) ** j / 2**n
        for j in range(n + 1)
    ]
    half = n // 2
    d = [c[half]] + [c[half + j] + c[half - j] for j in range(1, half + 1)]
    if sum(d) != 1:
        raise AssertionError("sum of d_j is not 1")
    return d


def exact_k(n: int, alpha: float) -> list[float]:
    """k_0..k_{n/2} = sqrt|d_j| from exact binomial coefficients."""
    return [math.sqrt(abs(float(v))) for v in exact_d(n, alpha)]


@dataclass(frozen=True)
class Comb:
    """psi = sum_j coeffs[j] s(x - centers[j]), unit norm, width xi."""

    centers: np.ndarray
    coeffs: np.ndarray
    xi: float
    hbar: float = 1.0

    def psi(self, x: np.ndarray) -> np.ndarray:
        amp = (math.pi * self.xi**2) ** -0.25
        g = np.exp(-((x[..., None] - self.centers) ** 2) / (2 * self.xi**2))
        return amp * (g @ self.coeffs)

    def psi_momentum(self, p: np.ndarray) -> np.ndarray:
        """(2 pi hbar)^(-1/2) int psi(x) e^{-ipx/hbar} dx, in closed form."""
        amp = (self.xi**2 / (math.pi * self.hbar**2)) ** 0.25
        g = np.exp(-(p[..., None] ** 2) * self.xi**2 / (2 * self.hbar**2))
        ph = np.exp(-1j * p[..., None] * self.centers / self.hbar)
        return amp * ((g * ph) @ self.coeffs)

    @property
    def half_span(self) -> float:
        return float(np.max(np.abs(self.centers)))


def build(kind: str, n: int | None, alpha: float, xi: float, delta_x: float) -> Comb:
    if kind == "cat":
        centers = np.array([delta_x, -delta_x])
        coeffs = np.full(2, 1 / math.sqrt(2), dtype=complex)
    else:
        k = exact_k(n, alpha)
        js = np.arange(-(n // 2), n // 2 + 1)
        centers = js * float(delta_x)
        coeffs = np.array(
            [k[0] if j == 0 else (-1j) ** int(j) * k[abs(int(j))] / math.sqrt(2) for j in js],
            dtype=complex,
        )
    raw = Comb(centers, coeffs, float(xi))
    y = np.linspace(-raw.half_span - 12 * xi, raw.half_span + 12 * xi, 40001)
    norm2 = np.trapezoid(np.abs(raw.psi(y)) ** 2, y)
    return Comb(centers, coeffs / math.sqrt(norm2), float(xi))


def build_preset(name: str, delta_x: float | None = None) -> Comb:
    p = PRESETS[name]
    kind = "cat" if name == "cat" else "psi"
    return build(kind, p["n"], p["alpha"], p["xi"], delta_x if delta_x is not None else p["delta_x"])


def wigner(state: Comb, x: float, p: float) -> float:
    """Trapezoid quadrature of the defining integral at one point.

    The integrand is a sum of width-xi/sqrt2 Gaussians in y times e^{2ipy/hbar};
    the step puts the aliased part of its spectrum far below float64 roundoff.
    """
    hbar = state.hbar
    half = state.half_span + abs(x) + 10 * state.xi
    rate = 2 * abs(p) / hbar + 26 / state.xi
    m = int(math.ceil(2 * half * rate / (2 * math.pi))) + 1
    y = np.linspace(-half, half, max(m, 257))
    f = np.conj(state.psi(x + y)) * state.psi(x - y) * np.exp(2j * p * y / hbar)
    return float(np.trapezoid(f, y).real / (math.pi * hbar))


def wigner_source(state: Comb, cross: bool, x: float, p: float) -> float:
    if not cross:
        return wigner(state, x, p)
    return 0.5 * (wigner(state, x, p) + wigner(state, -p, x))


def _overlap_sq(fa, fb, dx: float, dp: float, x: np.ndarray, hbar: float) -> float:
    # |<a|D(dx,dp)|b>|^2 with (D b)(x) = e^{i dp x/hbar} b(x - dx), up to a phase
    f = np.conj(fa(x)) * np.exp(1j * dp * x / hbar) * fb(x - dx)
    return abs(np.trapezoid(f, x)) ** 2


def displaced_overlap(state: Comb, cross: bool, dx: float, dp: float) -> float:
    """O(d) = sum_ab w_a w_b |<a|D(d)|b>|^2, normalised to 1 at d = 0."""
    hbar = state.hbar
    arms = [state.psi] + ([state.psi_momentum] if cross else [])
    weights = [1.0 / len(arms)] * len(arms)
    reach = max(state.half_span + 12 * state.xi, 12 * hbar / state.xi) + abs(dx)
    rate = 2 * state.half_span / hbar + abs(dp) / hbar + 30 / min(state.xi, hbar / state.xi)
    m = int(math.ceil(2 * reach * rate / (2 * math.pi))) + 1
    x = np.linspace(-reach, reach, max(m, 1025))

    def total(dx_, dp_):
        return sum(
            wa * wb * _overlap_sq(fa, fb, dx_, dp_, x, hbar)
            for fa, wa in zip(arms, weights)
            for fb, wb in zip(arms, weights)
        )

    return total(dx, dp) / total(0.0, 0.0)


def wigner_mp(name: str, x: float, p: float, digits: int = MP_DIGITS) -> tuple[float, float]:
    """(W, S) at one point for a preset, W summed at ``digits`` digits.

    The defining integral done in closed form for each pair of Gaussians,

        W = (1/pi hbar) sum_jk conj(c_j) c_k e^{-(x-(a_j+a_k)/2)^2/xi^2}
            e^{-p^2 xi^2/hbar^2} e^{-ip(a_k-a_j)/hbar},

    with the c_j from exact d_j and the norm from exact Gaussian overlaps
    e^{-(a_j-a_k)^2/4xi^2}.  S is the same sum of absolute pair terms, so
    eps*S is the roundoff a float64 pair sum cannot get below.  A cross
    preset's value is [W(x,p) + W(-p,x)]/2.
    """
    import mpmath

    pre = PRESETS[name]
    with mpmath.workdps(digits):
        xi, dx = mpmath.mpf(pre["xi"]), mpmath.mpf(pre["delta_x"])
        if name == "cat":
            centers = [dx, -dx]
            coeffs = [1 / mpmath.sqrt(2)] * 2
        else:
            half = pre["n"] // 2
            k = [mpmath.sqrt(abs(mpmath.mpf(v.numerator) / v.denominator))
                 for v in exact_d(pre["n"], pre["alpha"])]
            js = range(-half, half + 1)
            centers = [j * dx for j in js]
            coeffs = [k[0] if j == 0 else mpmath.mpc(0, -1) ** j * k[abs(j)] / mpmath.sqrt(2) for j in js]
        pairs = [(mpmath.conj(cj) * ck, aj, ak)
                 for cj, aj in zip(coeffs, centers) for ck, ak in zip(coeffs, centers)]
        norm2 = mpmath.re(sum(w * mpmath.exp(-((aj - ak) ** 2) / (4 * xi**2)) for w, aj, ak in pairs))

        def at(x, p):
            x, p = mpmath.mpf(x), mpmath.mpf(p)
            gp = mpmath.exp(-(p * xi) ** 2)
            terms = [w * mpmath.exp(-((x - (aj + ak) / 2) ** 2) / xi**2) * gp
                     * mpmath.expj(-p * (ak - aj)) for w, aj, ak in pairs]
            return mpmath.re(sum(terms)), sum(abs(t) for t in terms)

        arms = [at(x, p)] + ([at(-p, x)] if pre["cross"] else [])
        scale = mpmath.pi * norm2 * len(arms)
        return (float(sum(v for v, _ in arms) / scale), float(sum(s for _, s in arms) / scale))
