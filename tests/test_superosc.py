import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from subzurek.superosc import (
    CoeffTable,
    SuperoscParams,
    _working_digits,
    eval_f_direct,
    eval_f_fourier,
    fourier_coeffs,
    phase_gradient,
)

ALPHAS = [1.0, 2.0, 6.0, 10.0, 16.0]


class TestParams:
    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="even"):
            SuperoscParams(n=7, alpha=2.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            SuperoscParams(n=0, alpha=2.0)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError, match="alpha"):
            SuperoscParams(n=4, alpha=0.5)

    def test_alpha_one_allowed(self):
        SuperoscParams(n=4, alpha=1.0)


class TestFourierCoeffs:
    def test_plane_wave_case_n4(self):
        # alpha = 1 kills every term with j > 0 and (alpha+1)^n / 2^n = 1
        table = fourier_coeffs(SuperoscParams(4, 1.0))
        np.testing.assert_array_equal(table.c, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_hand_expanded_n2_alpha3(self):
        # (cos x + 3i sin x)^2 = (2e^{ix} - e^{-ix})^2 / ... expands to
        # coefficients 4, -4, 1 on frequencies +2, 0, -2
        table = fourier_coeffs(SuperoscParams(2, 3.0))
        np.testing.assert_allclose(table.c, [4.0, -4.0, 1.0], rtol=0, atol=0)
        assert table.c_sum_exact() == 1

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", range(2, 34, 2))
    def test_sum_identities(self, n, alpha):
        table = fourier_coeffs(SuperoscParams(n, alpha))
        # exact-rational sums; tolerance 1e-12 is met with zero slack
        assert abs(table.c_sum_exact() - 1) <= 1e-12
        assert abs(table.d_sum_exact() - 1) <= 1e-12

    def test_k_is_sqrt_abs_d(self):
        table = fourier_coeffs(SuperoscParams(8, 10.0))
        np.testing.assert_array_equal(table.k, np.sqrt(np.abs(table.d)))

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_sign_structure(self, n):
        # sign(d_j) = (-1)^(n/2 + j) wherever d_j != 0
        table = fourier_coeffs(SuperoscParams(n, 10.0))
        for j, d in enumerate(table.d):
            if d != 0.0:
                assert math.copysign(1.0, d) == (-1.0) ** (n // 2 + j)

    def test_overflow_rejected_with_magnitude_error(self):
        with pytest.raises(ValueError, match="magnitude"):
            fourier_coeffs(SuperoscParams(600, 20.0))

    def test_large_n_supported(self):
        table = fourier_coeffs(SuperoscParams(200, 20.0))
        assert np.all(np.isfinite(table.c))
        assert abs(table.c_sum_exact() - 1) == 0


def _fraction_table(params):
    """The coefficient table in Fraction arithmetic throughout: c_j from
    Fraction(alpha), d_j as Fraction sums, floats by float()."""
    n = params.n
    a = Fraction(params.alpha)
    c = [Fraction((-1) ** j * math.comb(n, j)) * (a + 1) ** (n - j) * (a - 1) ** j / Fraction(2) ** n
         for j in range(n + 1)]
    half = n // 2
    d = [c[half]] + [c[half + j] + c[half - j] for j in range(1, half + 1)]
    return c, d


def _coefficient_cases():
    rng = np.random.default_rng(34)
    alphas = [1.0, 1.5, 7.31, 10.906, 16.0, 24.0] + [float(v) for v in rng.uniform(1.0, 30.0, 4)]
    return [(n, alpha) for n in range(2, 34, 2) for alpha in alphas]


class TestIntegerCoefficients:
    """The table built from integer numerators over one denominator is the
    Fraction arithmetic's, value for value and bit for bit."""

    def test_equals_fraction_arithmetic(self):
        for n, alpha in _coefficient_cases():
            table = fourier_coeffs(SuperoscParams(n, alpha))
            c, d = _fraction_table(table.params)
            exact = [tuple(Fraction(v, table.denominator) for v in nums)
                     for nums in (table.c_numerators, table.d_numerators)]
            assert exact == [tuple(c), tuple(d)], (n, alpha)
            floats = np.array([float(v) for v in c]), np.array([float(v) for v in d])
            assert table.c.tobytes() == floats[0].tobytes(), (n, alpha)
            assert table.d.tobytes() == floats[1].tobytes(), (n, alpha)
            assert table.k.tobytes() == np.sqrt(np.abs(floats[1]) / float(sum(d))).tobytes(), (n, alpha)

    def test_fourier_sum_bits_equal_fraction_path(self):
        # the Fourier sum over reduced Fractions, each c_j's numerator over
        # its own denominator in mpmath, against the table's numerators over
        # their one denominator
        rng = np.random.default_rng(35)
        for n, alpha in _coefficient_cases():
            table = fourier_coeffs(SuperoscParams(n, alpha))
            c, _ = _fraction_table(table.params)
            for x in rng.uniform(-math.pi, math.pi, 10).tolist():
                with mpmath.workdps(_working_digits(table.params)):
                    xx, acc = mpmath.mpf(x), mpmath.mpc(0)
                    for j, cj in enumerate(c):
                        acc += mpmath.mpf(cj.numerator) / cj.denominator * mpmath.expj((n - 2 * j) * xx)
                    ref = complex(acc)
                got = eval_f_fourier(table, x)
                assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex()), (n, alpha, x)


class TestEvalDirect:
    def test_plane_wave(self):
        # alpha = 1: f(x) = e^{inx}
        val = eval_f_direct(SuperoscParams(8, 1.0), 0.3)
        expected = cmath.exp(1j * 8 * 0.3)
        assert abs(val - expected) < 1e-14

    @pytest.mark.parametrize("n,alpha", [(2, 1.0), (8, 10.0), (32, 16.0)])
    def test_unity_at_origin(self, n, alpha):
        assert eval_f_direct(SuperoscParams(n, alpha), 0.0) == 1.0 + 0.0j

    def test_matches_fourier_in_superosc_region(self):
        params = SuperoscParams(8, 10.0)
        table = fourier_coeffs(params)
        d = eval_f_direct(params, 0.01)
        f = eval_f_fourier(table, 0.01)
        assert abs(d - f) <= 1e-9 * abs(d)

    def test_modulus_never_below_one(self):
        # |f|^2 = (1 + (alpha^2-1) sin^2 x)^n >= 1
        params = SuperoscParams(12, 10.0)
        for x in np.linspace(-math.pi, math.pi, 101):
            assert abs(eval_f_direct(params, float(x))) >= 1.0 - 1e-12


class TestEvalFourier:
    def test_plane_wave_single_term(self):
        params = SuperoscParams(4, 1.0)
        table = fourier_coeffs(params)
        val = eval_f_fourier(table, 1.7)
        assert abs(val - cmath.exp(4j * 1.7)) < 1e-13

    def test_unity_at_origin(self):
        params = SuperoscParams(8, 10.0)
        table = fourier_coeffs(params)
        assert abs(eval_f_fourier(table, 0.0) - 1.0) < 1e-13

    def test_agrees_with_direct_n12_alpha16(self):
        params = SuperoscParams(12, 16.0)
        table = fourier_coeffs(params)
        d = eval_f_direct(params, 0.05)
        f = eval_f_fourier(table, 0.05)
        assert abs(d - f) <= 1e-9 * abs(d)


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("n,alpha", [(2, 2.0), (8, 10.0), (16, 6.0), (32, 16.0)])
    def test_direct_vs_fourier_random_x(self, n, alpha):
        params = SuperoscParams(n, alpha)
        table = fourier_coeffs(params)
        rng = np.random.default_rng(1234 + n)
        for x in rng.uniform(-math.pi, math.pi, 100):
            d = eval_f_direct(params, float(x))
            f = eval_f_fourier(table, float(x))
            assert abs(d - f) <= 1e-9 * max(1.0, abs(d))

    @pytest.mark.parametrize("n,alpha", [(8, 10.0), (12, 16.0)])
    def test_two_pi_periodicity(self, n, alpha):
        params = SuperoscParams(n, alpha)
        table = fourier_coeffs(params)
        rng = np.random.default_rng(99)
        for x in rng.uniform(-math.pi, math.pi, 10):
            a = eval_f_fourier(table, float(x))
            b = eval_f_fourier(table, float(x) + 2 * math.pi)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestSuperoscillationPresence:
    @pytest.mark.parametrize("n,alpha", [(8, 10.0), (12, 16.0), (32, 2.0)])
    def test_local_phase_gradient_exceeds_band_limit(self, n, alpha):
        params = SuperoscParams(n, alpha)
        rate = phase_gradient(params, 0.0)
        assert abs(rate - n * alpha) <= 1e-4 * n * alpha
        if alpha > 1.0:
            assert rate > params.n
