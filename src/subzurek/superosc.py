"""Superoscillating test function and its Fourier-coefficient machinery.

The function under study is

    f(x) = (cos(x) + i*alpha*sin(x))**n,   alpha >= 1, n even,

a band-limited signal (frequencies in [-n, n]) that nevertheless oscillates
locally at the faster rate n*alpha near x = 0 when alpha > 1.  Writing
cos(x) + i*alpha*sin(x) = ((alpha+1)/2) e^{ix} + ((1-alpha)/2) e^{-ix} and
expanding the power binomially gives the equivalent Fourier sum

    f(x) = sum_{j=0}^{n} c_j e^{i(n-2j)x},
    c_j  = (-1)^j binom(n,j) (alpha+1)^{n-j} (alpha-1)^j / 2^n.

Because f(0) = 1, the c_j sum to exactly 1 while individually growing like
alpha^n; the alternating sum cancels catastrophically in double precision
(at n = 32, alpha = 16 the naive float64 sum is off by ~1e21).  All
coefficient algebra here is therefore done in exact rational arithmetic and
only converted to floats at the edge; the Fourier-sum evaluator runs in
mpmath with enough working digits to absorb the cancellation.

The regrouped sequences derived from the c_j,

    d_0 = c_{n/2},   d_j = c_{n/2+j} + c_{n/2-j}   (j = 1..n/2),
    k_j = sqrt(|d_j| / sum_l d_l),

carry the pair structure used to lift f into a phase-space state; the
denominator sum_l d_l is again exactly 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

@dataclass(frozen=True)
class SuperoscParams:
    """Parameters of the superoscillating function: exponent n and strength alpha.

    n must be even and >= 2 (the pairing d_j = c_{n/2+j} + c_{n/2-j} needs a
    middle index); alpha >= 1, with alpha = 1 the degenerate plane-wave case
    f(x) = e^{inx}.
    """

    n: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        if not math.isfinite(self.alpha) or self.alpha < 1.0:
            raise ValueError(f"alpha must be finite and >= 1, got {self.alpha}")


@dataclass(frozen=True)
class CoeffTable:
    """Fourier coefficients c_0..c_n and the derived d/k sequences.

    Float views are provided for numerics.  The exact values are held once,
    as the integer numerators of the c_j and d_j over their one denominator,
    so the sum identities (sum c = sum d = 1) can be checked without
    floating-point cancellation.
    """

    params: SuperoscParams
    c: np.ndarray
    d: np.ndarray
    k: np.ndarray
    c_numerators: tuple = field(repr=False)
    d_numerators: tuple = field(repr=False)
    denominator: int = field(repr=False)

    def c_sum_exact(self) -> Fraction:
        return Fraction(sum(self.c_numerators), self.denominator)

    def d_sum_exact(self) -> Fraction:
        return Fraction(sum(self.d_numerators), self.denominator)


def _exact_coeffs(params: SuperoscParams) -> tuple[list[int], int]:
    """The exact c_j as integer numerators over one denominator.  Every float
    alpha is a rational num/den, so this is lossless: c_j is
    (-1)^j binom(n,j) (num+den)^{n-j} (num-den)^j over 2^n den^n."""
    n = params.n
    num, den = float(params.alpha).as_integer_ratio()
    up, down = num + den, num - den
    # down**j with j=0 is 1 even when alpha == 1
    return [(-1) ** j * math.comb(n, j) * up ** (n - j) * down**j for j in range(n + 1)], (2 * den) ** n


def fourier_coeffs(params: SuperoscParams) -> CoeffTable:
    """Build the coefficient table for the given (n, alpha).

    Raises ValueError when any |c_j| exceeds the double-precision range; the
    exact intermediate values cannot overflow, so the check is made once,
    against the final magnitudes.  The d_j are sums of the c_j's integer
    numerators over their one denominator, and every float is the correctly
    rounded quotient of the two, as float() of the reduced fraction is.
    """
    nums, scale = _exact_coeffs(params)
    biggest = max(abs(v) for v in nums)
    if biggest >= scale << 1024:  # float64 overflows from 2^1024
        raise ValueError(
            f"coefficient magnitude ~10^{len(str(biggest // scale))} "
            f"for n={params.n}, alpha={params.alpha} exceeds double-precision range"
        )
    half = params.n // 2
    d_nums = [nums[half]] + [nums[half + j] + nums[half - j] for j in range(1, half + 1)]
    # The regrouped d_j are a permutation-sum of the c_j, so their total is
    # exactly f(0) = 1; assert rather than assume before using it as the
    # k_j denominator.
    if sum(d_nums) != scale:
        raise AssertionError(
            f"sum of d_j = {Fraction(sum(d_nums), scale)} != 1; coefficient regrouping is broken"
        )
    c = np.array([v / scale for v in nums])
    d = np.array([v / scale for v in d_nums])
    k = np.sqrt(np.abs(d))
    return CoeffTable(params=params, c=c, d=d, k=k, c_numerators=tuple(nums),
                      d_numerators=tuple(d_nums), denominator=scale)


def _cpow_int(base: complex, n: int) -> complex:
    """Exponentiation by squaring for integer n >= 0."""
    result = complex(1.0)
    b = base
    while n:
        if n & 1:
            result *= b
        b *= b
        n >>= 1
    return result


def eval_f_direct(params: SuperoscParams, x: float) -> complex:
    """Evaluate f(x) = (cos(x) + i*alpha*sin(x))**n from the product form."""
    base = complex(math.cos(x), params.alpha * math.sin(x))
    return _cpow_int(base, params.n)


def _working_digits(params: SuperoscParams) -> int:
    # sum |c_j| = alpha^n sets the cancellation scale; pad generously.
    return max(40, int(params.n * math.log10(params.alpha + 1.0)) + 30)


def eval_f_fourier(table: CoeffTable, x: float) -> complex:
    """Evaluate the Fourier sum sum_j c_j e^{i(n-2j)x} of table.params.

    The partial sums reach |c_j| ~ alpha^n before collapsing to O(|f|), so the
    summation runs in mpmath at a precision that keeps the cancellation noise
    below double-precision roundoff of the result.
    """
    import mpmath as mp  # only this evaluator needs it; the CLI starts without it

    n = table.params.n
    with mp.workdps(_working_digits(table.params)):
        xx = mp.mpf(x)
        acc = mp.mpc(0)
        for j, num in enumerate(table.c_numerators):
            acc += mp.mpf(num) / table.denominator * mp.expj((n - 2 * j) * xx)
        return complex(acc)


def phase_gradient(params: SuperoscParams, x: float = 0.0, step: float = 1e-6) -> float:
    """Local phase gradient of f by central finite difference of arg f.

    At x = 0 this recovers n*alpha, the superoscillation rate exceeding the
    band limit n.  The default step balances truncation against roundoff for
    O(1) phases.
    """
    hi = eval_f_direct(params, x + step)
    lo = eval_f_direct(params, x - step)
    dphi = cmath.phase(hi) - cmath.phase(lo)
    # unwrap a single branch jump; valid while the step resolves the phase
    if dphi > math.pi:
        dphi -= 2 * math.pi
    elif dphi < -math.pi:
        dphi += 2 * math.pi
    return dphi / (2 * step)
