import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from subzurek import oracle, wigner
from subzurek.analysis import (
    analyze,
    central_cut_crossings,
    crossings_from_samples,
    default_scan_margin,
    displacement_sensitivity,
    last_half_crossing,
    overlap_decay_scan,
    overspill_check,
    report_to_text,
    superosc_scale,
    validate_gates,
    zurek_scale,
)
from subzurek.states import (
    PhysicalConstants,
    StateSpec,
    build_cat,
    build_psi,
    eval_psi,
)
from subzurek.cli import Scenario
from subzurek.superosc import SuperoscParams
from subzurek.wigner import cross_state, displaced_overlaps

CONST = PhysicalConstants()


def psi_state(n, alpha, dx=3.0, xi=0.25):
    return build_psi(SuperoscParams(n, alpha), dx, xi)


class TestZurekScale:
    def test_fig1a_compass_value(self):
        # L = P = 6, hbar = 1: (2 pi / 6)^2
        assert zurek_scale(6.0, 6.0, CONST) == pytest.approx((2 * math.pi / 6) ** 2, rel=1e-12)
        assert zurek_scale(6.0, 6.0, CONST) == pytest.approx(1.0966, abs=2e-4)

    def test_unit_tile(self):
        h = CONST.h
        assert zurek_scale(h, h, CONST) == pytest.approx(1.0, rel=1e-14)

    def test_homogeneity(self):
        a = zurek_scale(6.0, 5.0, CONST)
        assert zurek_scale(12.0, 5.0, CONST) == pytest.approx(a / 2.0, rel=1e-14)

    def test_scale_identity(self):
        for L, P in ((6.0, 6.0), (24.0, 24.0), (3.0, 7.0)):
            assert zurek_scale(L, P, CONST) * L * P == pytest.approx(CONST.h**2, rel=1e-14)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            zurek_scale(0.0, 1.0, CONST)


class TestCrossingDetector:
    def test_synthetic_cosine_spacings(self):
        kappa = 17.0
        t = np.linspace(-1.0, 1.0, 4001)
        crossings = crossings_from_samples(t, np.cos(kappa * t))
        spacings = np.diff(crossings)
        dt = t[1] - t[0]
        assert np.max(np.abs(spacings - math.pi / kappa)) <= dt

    def test_exact_zeros_inherit_the_preceding_sign(self):
        # a leading zero, a run of zeros across a sign change (one crossing,
        # at the last zero) and touches of zero that must not count
        values = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 0.0, -1.0, -2.0, 0.0, -1.0, 1.0, 0.0, 3.0])
        t = np.arange(values.size, dtype=float)
        assert np.array_equal(crossings_from_samples(t, values), [5.0, 9.5])

    def test_zero_runs_match_the_sample_loop(self):
        def loop_crossings(coords, values):
            sign = np.sign(values)
            for i in range(1, sign.size):
                if sign[i] == 0.0:
                    sign[i] = sign[i - 1]
            idx = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
            frac = values[idx] / (values[idx] - values[idx + 1])
            return coords[idx] + frac * (coords[idx + 1] - coords[idx])

        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.integers(-2, 3, 200) * rng.uniform(0.5, 1.5, 200)
            t = np.sort(rng.uniform(-1.0, 1.0, 200))
            assert np.array_equal(crossings_from_samples(t, values), loop_crossings(t, values))

    def test_cat_cut_crossing_positions(self):
        # interference cos(6p): zeros at pi/12 + k pi/6, shifted by the
        # diagonal-term tail (cos(6p) = -e^{-9} at a zero, so dp = e^{-9}/6)
        cat = build_cat(3.0, 1.0)
        crossings = central_cut_crossings(cat, "p", 2.0, 8001)
        k = np.round((crossings - math.pi / 12.0) / (math.pi / 6.0))
        expected = math.pi / 12.0 + k * math.pi / 6.0
        tail_shift = math.exp(-9.0) / 6.0
        assert np.max(np.abs(crossings - expected)) <= tail_shift + 1e-6
        assert np.max(np.abs(np.diff(crossings) - math.pi / 6.0)) <= 2 * tail_shift + 1e-6

    def test_plane_wave_regime_spacing(self):
        # alpha = 1 comb collapses to a cat of extent L = n dx: spacing h/(2L)
        st = psi_state(4, 1.0, dx=3.0, xi=0.25)
        L = 4 * 3.0
        window = CONST.h / L
        crossings = central_cut_crossings(st, "p", window, 4001)
        spacing = np.diff(crossings).min()
        assert spacing == pytest.approx(CONST.h / (2 * L), rel=0.01)

    def test_fig1_spacing_near_alpha_scaled_fringe(self):
        st = psi_state(8, 10.0)
        L = 24.0
        window = CONST.h / L
        crossings = central_cut_crossings(st, "p", window, 8001)
        spacing = np.diff(crossings).min()
        assert spacing == pytest.approx(CONST.h / (2 * L * 10.0), rel=0.15)

    def test_too_few_crossings_rejected(self):
        st = StateSpec(centers=[0.0], coeffs=[1.0 + 0j], xi=1.0, constants=CONST)
        with pytest.raises(ValueError, match="crossings"):
            central_cut_crossings(st, "p", 1.0, 512)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            central_cut_crossings(build_cat(3.0, 1.0), "diagonal", 1.0, 512)


class TestSuperoscScale:
    def run_scale(self, n, alpha, L=None):
        st = psi_state(n, alpha)
        L = L or n * 3.0
        window = CONST.h / L
        samples = 4001 if alpha < 12 else 8001
        crossings = central_cut_crossings(st, "p", window, samples)
        return superosc_scale(crossings, L, L, CONST)

    def test_fig2b_recovers_alpha_ten(self):
        report = self.run_scale(12, 10.0)
        assert abs(report.alpha_est - 10.0) <= 1.5

    def test_fig2c_alpha_sixteen_and_area_ratio(self):
        rb = self.run_scale(12, 10.0)
        rc = self.run_scale(12, 16.0)
        assert abs(rc.alpha_est / 16.0 - 1.0) <= 0.15
        ratio = rc.a_SO_est / rb.a_SO_est
        assert abs(ratio - (10.0 / 16.0) ** 2) <= 0.2 * (10.0 / 16.0) ** 2

    def test_alpha_one_baseline(self):
        report = self.run_scale(12, 1.0)
        assert abs(report.alpha_est - 1.0) <= 0.05

    def test_monotone_alpha_recovery(self):
        estimates = [self.run_scale(12, a).alpha_est for a in (6.0, 10.0, 16.0)]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_report_consistency(self):
        report = self.run_scale(12, 10.0)
        assert report.a_Z == pytest.approx(zurek_scale(36.0, 36.0, CONST), rel=1e-14)
        assert report.a_SO_est == pytest.approx(report.a_Z / report.alpha_est**2, rel=1e-12)
        assert all(s > 0 for s in report.crossing_spacings)

    def test_report_text_fields(self):
        text = report_to_text(self.run_scale(12, 10.0))
        for key in ("L =", "P =", "a_Z =", "alpha_est =", "a_SO_est =", "crossing_spacings ="):
            assert key in text


class TestOverspill:
    def test_fig1_far_below_threshold(self):
        res = overspill_check(psi_state(8, 10.0))
        assert res.satisfied and not res.indeterminate
        assert res.ratio < 1e-3

    def test_wide_components_violate_with_warning(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 3.0)
        with pytest.warns(UserWarning, match="overspill"):
            res = overspill_check(st)
        assert not res.satisfied
        assert res.ratio > 0.1

    def test_single_gaussian_rejected(self):
        st = StateSpec(centers=[0.0], coeffs=[1.0 + 0j], xi=1.0, constants=CONST)
        with pytest.raises(ValueError, match="neighbor"):
            overspill_check(st)

    def test_cat_rejected(self):
        with pytest.raises(ValueError):
            overspill_check(build_cat(3.0, 1.0))

    def test_log_lhs_linear_in_separation(self):
        # log lhs ~ -(dx/xi)^2 + const; slope -1 with < 1% residual
        xi = 0.25
        ratios = []
        seps = np.array([1.5, 2.0, 2.5, 3.0])
        for dx in seps:
            res = overspill_check(build_psi(SuperoscParams(8, 10.0), float(dx), xi))
            ratios.append(math.log(res.lhs))
        xsq = (seps / xi) ** 2
        slope, intercept = np.polyfit(xsq, ratios, 1)
        assert slope == pytest.approx(-1.0, abs=0.01)
        fit = slope * xsq + intercept
        span = ratios[0] - ratios[-1]
        assert np.max(np.abs(fit - ratios)) <= 0.01 * abs(span)


class TestAnalyze:
    def test_fig2b_and_fig2c_recover_alpha(self):
        for alpha, tol in ((10.0, 1.5), (16.0, 0.15 * 16.0)):
            report, spill = analyze(psi_state(12, alpha), alpha)
            assert abs(report.alpha_est - alpha) <= tol
            assert report.L == report.P == 36.0 and spill.satisfied

    def test_cat_has_no_overspill_result(self):
        report, spill = analyze(build_cat(3.0, 1.0), 1.0)
        assert spill is None and abs(report.alpha_est - 1.0) <= 0.05

    def test_cat_without_crossings_raises(self):
        # the state of `analyze --preset cat --delta-x 1e-6`: one Gaussian in effect
        with pytest.raises(ValueError, match="0 crossings"):
            analyze(build_cat(1e-6, 1.0), 1.0)

    def test_factors_the_state_once(self, monkeypatch):
        built = count_factoring(monkeypatch)
        analyze(psi_state(12, 10.0), 10.0)
        assert built == [1]

    def test_extent_is_the_scenarios_bit_for_bit(self):
        # 2 fl(n/2 dx) = fl(n dx): the spread of the centers is Scenario.extent_L
        for dx in (0.3, 0.7, 1.1, 2.5, 3.0, 4.4, 6.0, 7.3):
            for n in range(2, 34, 2):
                scenario = Scenario("psi", n, 4.0, dx / 12, dx, 1.0, False, None)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # odd n/2 sign-convention note
                    report, _ = analyze(scenario.build_state(), scenario.alpha)
                assert report.L == report.P == scenario.extent_L
            cat = Scenario("cat", None, 1.0, 1.0, dx, 1.0, False, None)
            assert analyze(cat.build_state(), 1.0)[0].L == cat.extent_L


def count_factoring(monkeypatch):
    """A one-item list counting the wigner.factor calls that build a core
    rather than pass a Factored through."""
    built, factor = [0], wigner.factor

    def counting(source):
        built[0] += not isinstance(source, wigner.Factored)
        return factor(source)

    monkeypatch.setattr(wigner, "factor", counting)
    return built


def per_point_gates(state, n_points):
    """The first two validate gates from a point-at-a-time loop."""
    xi, hbar = state.xi, state.constants.hbar
    half = float(np.max(np.abs(state.centers)))
    rng = np.random.default_rng(20260808)
    worst = worst_im = 0.0
    for _ in range(n_points):
        x = float(rng.uniform(-half - 2 * xi, half + 2 * xi))
        p = float(rng.uniform(-3.5 * hbar / xi, 3.5 * hbar / xi))
        worst = max(worst, abs(wigner.eval_wigner(state, x, p) - oracle.wigner_quadrature(state, x, p)))
        full = wigner._pair_sum_complex(state, x, p)
        worst_im = max(worst_im, abs(full.imag) / max(1.0, abs(full.real)))
    return [("closed-form vs quadrature (abs)", worst, 1e-8),
            ("pair-sum imaginary residue (rel)", worst_im, 1e-12)]


class TestValidateGates:
    def test_names_tolerances_and_order(self):
        gates = validate_gates(build_cat(3.0, 1.0), 4)
        assert [(name, tol) for name, _, tol in gates] == [
            ("closed-form vs quadrature (abs)", 1e-8),
            ("pair-sum imaginary residue (rel)", 1e-12),
            ("norm closed-form vs quadrature (rel)", 1e-8),
            ("normalization |<psi|psi>-1|", 1e-10),
            ("marginal vs |psi|^2 (abs)", 1e-12),
            ("total integral - 1", 1e-12),
        ]
        assert all(value <= tol for _, value, tol in gates)

    @pytest.mark.parametrize("state", [
        psi_state(8, 10.0), psi_state(4, 6.0, dx=6.0, xi=1.0), build_cat(3.0, 1.0),
        build_psi(SuperoscParams(12, 10.0), 3.0, 0.25, PhysicalConstants(hbar=0.7)),
    ], ids=["fig1", "fig2a", "cat", "hbar0.7"])
    def test_point_gates_equal_the_per_point_loop(self, state):
        assert validate_gates(state, 12)[:2] == per_point_gates(state, 12)

    def test_factors_the_state_once(self, monkeypatch):
        built = count_factoring(monkeypatch)
        validate_gates(psi_state(12, 10.0), 4)
        assert built == [1]

    def test_marginal_off_by_1e9_fails_its_gate(self, monkeypatch):
        marginal_x = wigner.marginal_x
        monkeypatch.setattr(wigner, "marginal_x", lambda source, xs: marginal_x(source, xs) + 1e-9)
        failing = [name for name, value, tol in validate_gates(psi_state(12, 10.0), 4) if value > tol]
        assert failing == ["marginal vs |psi|^2 (abs)"]


class TestDisplacementSensitivity:
    def test_zero_displacement_is_exactly_one(self):
        st = build_cat(3.0, 1.0)
        assert displacement_sensitivity(st, 0.0, 0.0) == 1.0

    def test_single_gaussian_analytic_decay(self):
        xi = 1.0
        st = StateSpec(
            centers=[0.0],
            coeffs=[1.0 + 0j],
            xi=xi,
            constants=CONST,
        )
        for dx in (0.5, 1.0, 2.0):
            got = displacement_sensitivity(st, dx, 0.0)
            assert got == pytest.approx(math.exp(-(dx**2) / (2 * xi**2)), abs=1e-14)

    def test_quarter_turn_invariance_of_overlap(self):
        mix = cross_state(build_psi(SuperoscParams(4, 6.0), 6.0, 1.0))
        for dx, dp in ((0.3, 0.0), (0.1, 0.2), (0.25, -0.15)):
            a = displacement_sensitivity(mix, dx, dp)
            b = displacement_sensitivity(mix, -dp, dx)
            assert abs(a - b) <= 1e-4

    def test_pure_scan_matches_wavefunction_overlap(self):
        # for a pure state 2 pi hbar int W W_d = |<psi|D(d)|psi>|^2; the right
        # side comes from psi alone by quadrature in x, with no phase-space grid
        st = psi_state(4, 6.0, dx=6.0, xi=1.0)
        ts, ov = overlap_decay_scan(st, (1.0, 1.0), 2.5, steps=11)
        x = np.linspace(-40.0, 40.0, 8001)
        psi = eval_psi(st, x)
        for t, got in zip(ts, ov):
            d = t / math.sqrt(2)
            shifted = np.exp(1j * d * x / CONST.hbar) * eval_psi(st, x - d)
            want = abs(np.trapezoid(np.conj(psi) * shifted, x)) ** 2
            assert abs(got - want) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        half=hst.integers(1, 5),
        alpha=hst.floats(1.0, 12.0),
        xi=hst.floats(0.2, 1.5),
        spacing=hst.floats(1.0, 8.0),
        cross=hst.booleans(),
        dx=hst.floats(-3.0, 3.0),
        dp=hst.floats(-3.0, 3.0),
    )
    def test_overlap_even_in_shift_and_bounded(self, half, alpha, xi, spacing, cross, dx, dp):
        # int W(z) W(z-d) dz = int W(z+d) W(z) dz, and the overlap of two
        # density operators lies in [0, purity]; the slack is roundoff only.
        # Delta x = spacing * xi stays at least one width: closer, a large-alpha
        # comb cancels to a norm whose roundoff alone reaches 1e-11
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # odd n/2 sign-convention note
            state = build_psi(SuperoscParams(2 * half, alpha), spacing * xi, xi)
        source = cross_state(state) if cross else state
        o0, plus, minus = displaced_overlaps(source, [(0.0, 0.0), (dx, dp), (-dx, -dp)])
        assert abs(plus - minus) <= 1e-12 * o0
        assert -1e-12 * o0 <= plus <= o0 * (1.0 + 1e-12)


class TestHalfOverlapScale:
    def test_last_crossing_interpolation(self):
        ts = np.linspace(0.0, 1.0, 11)
        ov = np.array([1.0, 0.9, 0.4, 0.6, 0.8, 0.55, 0.45, 0.3, 0.2, 0.1, 0.05])
        # final down-crossing sits between 0.5 and 0.6
        val = last_half_crossing(ts, ov)
        assert 0.5 < val < 0.6

    def test_never_crossing_rejected(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="crosses"):
            last_half_crossing(ts, np.full(5, 0.9))

    def test_gaussian_envelope_scale(self):
        # pure Gaussian overlap e^{-d^2/(2 xi^2)} crosses 1/2 once, at
        # xi sqrt(2 ln 2)
        xi = 1.0
        st = StateSpec(
            centers=[0.0],
            coeffs=[1.0 + 0j],
            xi=xi,
            constants=CONST,
        )
        scale = last_half_crossing(*overlap_decay_scan(st, (1.0, 0.0), 3.0))
        assert scale == pytest.approx(xi * math.sqrt(2 * math.log(2)), abs=0.01)

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_scan_reach_defaults_to_the_scan_margin(self, direction):
        for source in (build_cat(3.0, 1.0), cross_state(psi_state(4, 6.0, dx=6.0, xi=1.0))):
            ts, ov = overlap_decay_scan(source, direction)
            assert ts[-1] == default_scan_margin(source)
            explicit = overlap_decay_scan(source, direction, default_scan_margin(source), 161)
            assert np.array_equal(ts, explicit[0]) and np.array_equal(ov, explicit[1])

    def test_scan_monotone_prefix(self):
        st = build_cat(3.0, 1.0)
        ts, ov = overlap_decay_scan(st, (0.0, 1.0), 1.0, steps=41)
        assert ov[0] == 1.0
        assert np.all(ov <= 1.0 + 1e-12)
