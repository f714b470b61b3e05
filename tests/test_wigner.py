import argparse
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from subzurek.states import (
    PhysicalConstants,
    StateSpec,
    build_cat,
    build_psi,
    eval_psi,
)
import subzurek
from subzurek.cli import cut_window, resolve_scenario
from subzurek.superosc import SuperoscParams
from subzurek.wigner import (
    IDENTITY,
    QUARTER_TURN,
    GridWindow,
    MixtureSpec,
    MixtureTerm,
    GridRows,
    PhaseSpaceGrid,
    _BLOCK_VALUES,
    _SHIFT_ELEMENTS,
    _columns,
    _eval_columns,
    _gram,
    _integrals,
    _pair_sum_complex,
    _row_blocks,
    cross_state,
    displaced_overlaps,
    eval_cut,
    eval_grid,
    eval_wigner,
    factor,
    integration_samples,
    marginal_x,
    overlap,
    pair_kernel,
    purity,
    suggested_window,
    total_integral,
)

CONST = PhysicalConstants()


def single_gaussian(xi=1.0):
    return StateSpec(
        centers=[0.0],
        coeffs=[1.0 + 0j],
        xi=xi,
        constants=CONST,
    )


def fig1_state():
    return build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)


def fig2a_state():
    return build_psi(SuperoscParams(4, 6.0), 6.0, 1.0)


def gaussian_spot(x, p, xi=1.0, hbar=1.0):
    return np.exp(-(x**2) / xi**2 - p**2 * xi**2 / hbar**2) / (math.pi * hbar)


class TestPairKernel:
    def test_single_gaussian_peak(self):
        st = single_gaussian()
        assert pair_kernel(st, 0, 0, 0.0, 0.0) == pytest.approx(1.0 / math.pi)

    def test_hermitian_pair_symmetry(self):
        st = StateSpec(centers=[2.0, -1.0], coeffs=[0.3 + 0.4j, -0.2 + 0.9j], xi=0.5, constants=CONST)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, p = rng.uniform(-3, 3, 2)
            kab = pair_kernel(st, 0, 1, x, p)
            kba = pair_kernel(st, 1, 0, x, p)
            assert kab == pytest.approx(np.conj(kba), abs=1e-15)


def pair_sum_one_call_per_pair(state, x, p):
    m = state.centers.size
    return sum(pair_kernel(state, j, k, x, p) for j in range(m) for k in range(m))


class TestPairSumBlocks:
    """_pair_sum_complex calls pair_kernel on blocks of index arrays: the
    bits of one call per pair, in less memory than every pair at once."""

    STATES = {"fig1": fig1_state, "fig2b": lambda: build_psi(SuperoscParams(12, 10.0), 3.0, 0.25),
              "generic": lambda: generic_state()}

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_bits_equal_one_call_per_pair(self, name):
        st = self.STATES[name]()
        half = float(np.max(np.abs(st.centers)))
        rng = np.random.default_rng(23)
        xs = rng.uniform(-half - 2 * st.xi, half + 2 * st.xi, 24)
        ps = rng.uniform(-3.5 / st.xi, 3.5 / st.xi, 24)
        got, ref = _pair_sum_complex(st, xs, ps), pair_sum_one_call_per_pair(st, xs, ps)
        assert got.shape == (24,) and got.tobytes() == ref.tobytes()
        for x, p in zip(xs.tolist(), ps.tolist()):
            got, ref = _pair_sum_complex(st, x, p), pair_sum_one_call_per_pair(st, x, p)
            assert type(got) is type(ref) and got.tobytes() == ref.tobytes()

    def test_257_grid_peak_below_every_pair_at_once(self):
        # the 257^2 grid of acceptance criterion 9: one complex array over all
        # m^2 ordered pairs of fig2b would take 178 MB
        st = self.STATES["fig2b"]()
        axis = np.linspace(-16.0, 16.0, 257)
        X, P = np.meshgrid(axis, axis, indexing="ij")
        every_pair = st.centers.size ** 2 * X.size * 16
        _pair_sum_complex(st, X[:2], P[:2])  # warm numpy's caches
        tracemalloc.start()
        try:
            _pair_sum_complex(st, X, P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert every_pair > 170e6
        assert peak <= 16e6


class TestCatFormula:
    """Two-component pair sum against the printed three-term closed form."""

    def cat_reference(self, x, p, dx, xi, hbar=1.0):
        # [spot(x-dx) + spot(x+dx)]/2 + spot(x) cos(2 p dx / hbar), for
        # weights 1/sqrt2 each; overall 1/(1+e^{-dx^2/xi^2}) after rescaling
        g = lambda xx: np.exp(-(xx**2) / xi**2 - p**2 * xi**2 / hbar**2) / (math.pi * hbar)
        raw = 0.5 * (g(x - dx) + g(x + dx)) + g(x) * np.cos(2 * p * dx / hbar)
        return raw / (1.0 + math.exp(-(dx**2) / xi**2))

    def test_pair_sum_reproduces_printed_form(self):
        dx, xi = 3.0, 1.0
        cat = build_cat(dx, xi)
        xs = np.linspace(-6, 6, 40)
        ps = np.linspace(-4, 4, 25)
        for x in xs:
            vals = eval_wigner(cat, float(x), ps)
            ref = self.cat_reference(float(x), ps, dx, xi)
            np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12)


class TestEvalWigner:
    def test_single_gaussian_closed_form(self):
        st = single_gaussian()
        rng = np.random.default_rng(7)
        for _ in range(25):
            x, p = rng.uniform(-3, 3, 2)
            assert eval_wigner(st, x, p) == pytest.approx(gaussian_spot(x, p), abs=1e-15)

    def test_hermitian_doubling_bitstable_vs_full_sum(self):
        st = fig1_state()
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-13, 13)
            p = rng.uniform(-14, 14)
            fast = eval_wigner(st, x, p)
            full = _pair_sum_complex(st, x, p)
            assert abs(fast - full.real) <= 1e-13

    def test_imaginary_residue_cancels(self):
        rng = np.random.default_rng(13)
        for st in (fig1_state(), fig2a_state(), build_cat(3.0, 1.0)):
            half = float(np.max(np.abs(st.centers)))
            xs = rng.uniform(-half - 2, half + 2, 1000)
            ps = rng.uniform(-3.5 / st.xi, 3.5 / st.xi, 1000)
            vals = _pair_sum_complex(st, xs, ps)
            residue = np.abs(vals.imag) / np.maximum(1.0, np.abs(vals.real))
            assert float(residue.max()) <= 1e-12

    def test_bounded_by_inverse_pi_hbar(self):
        bound = 1 / (math.pi * CONST.hbar) + 1e-9
        rng = np.random.default_rng(17)
        for st in (fig1_state(), fig2a_state(), build_cat(3.0, 1.0)):
            half = float(np.max(np.abs(st.centers)))
            xs = rng.uniform(-half - 2, half + 2, 400)
            ps = rng.uniform(-3.5 / st.xi, 3.5 / st.xi, 400)
            assert np.max(np.abs(eval_wigner(st, xs, ps))) <= bound


class TestMixture:
    def test_single_term_equals_pure(self):
        st = fig2a_state()
        mix = MixtureSpec(terms=(MixtureTerm(st, 1.0, IDENTITY),))
        rng = np.random.default_rng(23)
        for _ in range(20):
            x, p = rng.uniform(-10, 10, 2)
            assert eval_wigner(mix, x, p) == eval_wigner(st, x, p)

    def test_weights_must_sum_to_one(self):
        st = single_gaussian()
        with pytest.raises(ValueError, match="sum"):
            MixtureSpec(terms=(MixtureTerm(st, 0.7), MixtureTerm(st, 0.7)))

    def test_cross_state_quarter_turn_symmetric_away_from_odd_patches(self):
        # Exact W+ quarter-turn symmetry would need W(x,p) = W(-x,-p); the
        # (-i)^j phases make adjacent-midpoint interference patches odd in p,
        # so equality holds only up to their leakage.  On the coordinate axes
        # and the central column the nearest odd patch is delta_x/2 away and
        # the residue is bounded by ~e^{-(delta_x/2)^2/xi^2}.
        mix = cross_state(fig2a_state())
        leakage = 2.0 * math.exp(-(3.0**2) / 1.0**2) / math.pi
        rng = np.random.default_rng(29)
        for _ in range(40):
            t = rng.uniform(-14, 14)
            for x, p in ((t, 0.0), (0.0, t), (0.1 * t / 14, t)):
                xr, pr = -p, x
                dev = abs(eval_wigner(mix, x, p) - eval_wigner(mix, xr, pr))
                assert dev <= 10 * leakage

    def test_cross_state_asymmetry_at_odd_midpoint_patches(self):
        # the sine-type patch between adjacent components flips sign under
        # p -> -p, so the two-term mixture is genuinely asymmetric there
        mix = cross_state(fig2a_state())
        a = eval_wigner(mix, 3.0, 0.26)
        b = eval_wigner(mix, -0.26, 3.0)
        assert abs(a - b) > 0.1

    def test_cross_state_shows_four_arms(self):
        # Gaussian spots on both axes at the component distance
        mix = cross_state(fig2a_state())
        r = 12.0
        on_axis = [eval_wigner(mix, r, 0.0), eval_wigner(mix, -r, 0.0),
                   eval_wigner(mix, 0.0, r), eval_wigner(mix, 0.0, -r)]
        off_axis = eval_wigner(mix, r / math.sqrt(2), r / math.sqrt(2))
        assert min(on_axis) > 100 * abs(off_axis)


def pair_sum_grid(source, window):
    # real part of the full complex pair sum on the lattice, independent of
    # the factored core; quarter-turned terms evaluate at (-p, x)
    X, P = np.meshgrid(window.x_coords(), window.p_coords(), indexing="ij")
    terms = source.terms if isinstance(source, MixtureSpec) else (MixtureTerm(source, 1.0),)
    return sum(
        t.weight * _pair_sum_complex(
            t.state, *((-P, X) if t.rotation == QUARTER_TURN else (X, P))
        ).real
        for t in terms
    )


class TestEvalGrid:
    def test_two_by_two_matches_pointwise_values(self):
        st = single_gaussian()
        window = GridWindow(-1.0, 1.0, -2.0, 2.0, 2, 2)
        grid = eval_grid(st, window)
        for i, x in enumerate((-1.0, 1.0)):
            for j, p in enumerate((-2.0, 2.0)):
                assert grid.values[i, j] == pytest.approx(gaussian_spot(x, p), abs=1e-15)

    def test_lattice_is_endpoint_inclusive(self):
        window = GridWindow(-1.0, 3.0, -2.0, 2.0, 5, 9)
        np.testing.assert_allclose(window.x_coords(), np.linspace(-1, 3, 5))
        np.testing.assert_allclose(window.p_coords(), np.linspace(-2, 2, 9))

    @pytest.mark.parametrize("source_builder", [
        lambda: fig2a_state(),
        lambda: cross_state(fig2a_state()),
        lambda: generic_state(),
        lambda: cross_state(generic_state()),
    ])
    def test_factored_matches_pair_sum(self, source_builder):
        source = source_builder()
        window = GridWindow(-8.0, 8.0, -6.0, 6.0, 41, 37)
        fast = eval_grid(source, window)
        assert np.max(np.abs(fast.values - pair_sum_grid(source, window))) <= 1e-12

    def test_deterministic_rerun(self):
        st = fig1_state()
        window = GridWindow(-5.0, 5.0, -5.0, 5.0, 64, 64)
        a = eval_grid(st, window).values
        b = eval_grid(st, window).values
        assert np.array_equal(a, b)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            GridWindow(0.0, 0.0, -1.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            GridWindow(-1.0, 1.0, -1.0, 1.0, 1, 4)
        with pytest.raises(ValueError):
            GridWindow(math.inf, 1.0, -1.0, 1.0, 4, 4)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -1e308, 1e308)],
                             ids=["x", "p"])
    def test_rejects_a_width_past_float64(self, bounds):
        # finite bounds whose difference is inf: every sample step is inf
        with pytest.raises(ValueError, match="float64's range"):
            GridWindow(*bounds, 3, 3)
        GridWindow(*(0.5 * b for b in bounds), 3, 3)  # a width of 1e308 is fine


@pytest.mark.parametrize("nrows", [1, 2, 3, 17, 36, 37, 2049])
@pytest.mark.parametrize("ncols", [2, 399, 3001, 8000, 8192, 20001, _BLOCK_VALUES // 3])
def test_row_blocks_partition(nrows, ncols):
    blocks = _row_blocks(nrows, ncols)
    step = max(2, _BLOCK_VALUES // ncols)
    assert blocks[0][0] == 0 and blocks[-1][1] == nrows
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    heights = [stop - start for start, stop in blocks]
    # every block but the last is one step; the last takes a one-row tail
    assert heights[:-1] == [step] * (len(blocks) - 1)
    assert 2 <= heights[-1] <= step + 1 or heights == [nrows]


class TestGridRows:
    @pytest.mark.parametrize("preset,kind", [("fig1", "pure"), ("fig2b", "cross")])
    def test_rows_are_eval_grid_rows(self, preset, kind):
        # fig1 folds C into X (D_x = 17 > D_p = 9), fig2b into P (38 and 38)
        source = preset_source(preset, kind)
        window = GridWindow(-16.0, 16.0, -4.0, 4.0, 17, 8000)
        d_x, d_p = factor(source).coeffs.shape
        assert (d_x > d_p) == (preset == "fig1")
        grid = GridRows(source, window)
        values = eval_grid(source, window).values
        for start, stop in _row_blocks(17, 8000):
            assert grid.rows(start, stop).tobytes() == values[start:stop].tobytes()


def integration_grid(state, L):
    base = suggested_window(state)
    xi = state.xi
    nx = integration_samples(base.x_max - base.x_min, 0.0, xi)
    npts = integration_samples(base.p_max - base.p_min, L, 1.0 / xi)
    return GridWindow(base.x_min, base.x_max, base.p_min, base.p_max, nx, npts)


def product_grid(source, L):
    # W*W products double the band limit and shrink envelopes by sqrt2; for
    # mixtures the rotated term puts fringes along x as well
    base = suggested_window(source)
    w = 1.0 / math.sqrt(2)
    nx = integration_samples(base.x_max - base.x_min, 2 * L, w)
    npts = integration_samples(base.p_max - base.p_min, 2 * L, w)
    return GridWindow(base.x_min, base.x_max, base.p_min, base.p_max, nx, npts)


class TestMarginals:
    def test_single_gaussian_marginal_is_position_density(self):
        st = single_gaussian()
        xs = np.linspace(-8.0, 8.0, 257)
        dens = np.abs(eval_psi(st, xs)) ** 2
        assert np.max(np.abs(marginal_x(st, xs) - dens)) <= 1e-12

    def test_fig1_marginal_matches_density(self):
        st = fig1_state()
        xs = integration_grid(st, 24.0).x_coords()
        dens = np.abs(eval_psi(st, xs)) ** 2
        assert np.max(np.abs(marginal_x(st, xs) - dens)) <= 1e-12

    def test_column_integrals_match_trapezoid(self):
        # generic columns: no source has both omega and mu nonzero, which
        # would leave the sign of phi in the closed form untested
        rng = np.random.default_rng(7)
        cols = np.array([rng.uniform(0.5, 2.0, 6), rng.uniform(-3.0, 3.0, 6),
                         rng.uniform(0.3, 1.5, 6), rng.uniform(-6.0, 6.0, 6),
                         rng.uniform(-math.pi, math.pi, 6)])
        t = np.linspace(-15.0, 15.0, 6001)
        trapz = np.trapezoid(_eval_columns(cols, t), t, axis=0)
        assert np.max(np.abs(_integrals(cols) - trapz)) <= 1e-12

    def test_total_integral_is_one(self):
        assert abs(total_integral(fig1_state()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["fig1", "fig2a_cross", "compass"])
    def test_exact_integrals_match_grid_trapezoid(self, name):
        source = {
            "fig1": fig1_state,
            "fig2a_cross": lambda: cross_state(fig2a_state()),
            "compass": lambda: cross_state(build_cat(12.0 / 2, 1.0, CONST)),
        }[name]()
        L = 12.0 if name == "compass" else 24.0
        grid = eval_grid(source, product_grid(source, L))
        trapz = np.trapezoid(grid.values, grid.window.p_coords(), axis=1)
        assert np.max(np.abs(marginal_x(source, grid.window.x_coords()) - trapz)) <= 1e-12
        total = np.trapezoid(trapz, grid.window.x_coords())
        assert total_integral(source) == pytest.approx(total, rel=0, abs=1e-12)


class TestOverlap:
    def test_pure_state_purity_is_one(self):
        st = single_gaussian()
        assert purity(st) == pytest.approx(1.0, abs=1e-14)

    def test_displaced_gaussian_fidelity(self):
        xi = 1.0
        a = single_gaussian(xi)
        for delta in (0.5, 1.0, 2.0):
            b = StateSpec(
                centers=[delta],
                coeffs=[1.0 + 0j],
                xi=xi,
                constants=CONST,
            )
            window = GridWindow(-9.0, 9.0 + delta, -8.0, 8.0, 385, 321)
            ga = eval_grid(a, window)
            gb = eval_grid(b, window)
            expected = math.exp(-(delta**2) / (2 * xi**2))
            assert overlap(ga, gb, CONST) == pytest.approx(expected, abs=1e-4)

    def test_cross_state_purity_below_pure(self):
        st = fig2a_state()
        pure = purity(st)
        mixed = purity(cross_state(st))
        assert mixed < pure
        # balanced mixture purity = 1/2 + |<psi|rot psi>|^2/2; the xi=sqrt(hbar)
        # origin component is rotation-invariant, so the branch overlap is
        # |c_0|^2 and the mixture keeps a small coherent excess over 1/2
        c0 = abs(st.coeffs[st.centers == 0.0][0]) ** 2
        assert mixed == pytest.approx(0.5 + c0**2 / 2.0, abs=1e-4)

    @pytest.mark.parametrize("name", ["fig2a", "compass"])
    def test_purity_matches_grid_self_overlap(self, name):
        source = fig2a_state() if name == "fig2a" else cross_state(build_cat(12.0 / 2, 1.0, CONST))
        window = product_grid(source, 12.0)
        grid = eval_grid(source, window)
        assert purity(source) == pytest.approx(overlap(grid, grid, CONST), rel=0, abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "p"])
    def test_compass_displaced_overlaps_match_shifted_grids(self, axis):
        # one axis stays put along x or p; its Gram product is reused.  The
        # window holds every arm of the shifted copies, so the trapezoid sums
        # converge to the exact plane integrals
        source = cross_state(build_cat(6.0 / 2, 1.0, CONST))
        window = GridWindow(-12.0, 12.0, -12.0, 12.0, 241, 241)
        steps = [0.0, 0.3, 1.1, 2.5]
        shifts = [(t, 0.0) if axis == "x" else (0.0, t) for t in steps]
        base = eval_grid(source, window)
        expected = []
        for dx, dp in shifts:
            moved = GridWindow(window.x_min - dx, window.x_max - dx,
                               window.p_min - dp, window.p_max - dp, window.nx, window.np)
            shifted = PhaseSpaceGrid(window, eval_grid(source, moved).values)
            expected.append(overlap(base, shifted, CONST))
        got = displaced_overlaps(source, shifts)
        assert min(expected) < 0.5
        assert np.max(np.abs(got - np.array(expected))) <= 1e-12

    def test_lattice_mismatch_rejected(self):
        st = single_gaussian()
        ga = eval_grid(st, GridWindow(-8, 8, -8, 8, 64, 64))
        gb = eval_grid(st, GridWindow(-8, 8, -8, 8, 65, 64))
        with pytest.raises(ValueError, match="lattice"):
            overlap(ga, gb, CONST)


def gram_pair_sum(source, shifts):
    """2 pi hbar sum(G_x * G_p) per shift over the ungrouped R x R Gram pair
    of the _columns table, one entry per column pair."""
    cols_x, cols_p = _columns(source)
    return 2.0 * math.pi * source.constants.hbar * np.array(
        [np.sum(_gram(cols_x, dx) * _gram(cols_p, dp)) for dx, dp in shifts]
    )


def generic_state():
    # equally spaced, so columns of one separation share (mu, sigma, omega);
    # both coefficient parts nonzero and of both signs, so their phases do not
    # agree mod pi and the columns must stay apart
    return StateSpec(
        centers=[-3.0, -1.5, 0.0, 1.5, 3.0],
        coeffs=[0.3 + 0.7j, -1.1 + 0.2j, 0.5 - 0.5j, -2.0 - 0.1j, 0.4 + 0.9j],
        xi=0.4,
        constants=CONST,
    )


def preset_source(name, kind):
    state = resolve_scenario(argparse.Namespace(preset=name)).build_state()
    return cross_state(state) if kind == "cross" else state


class TestBasis:
    """The grouped basis W = X_b C P_b^T against the ungrouped column table."""

    SHIFTS = [(0.0, 0.0)] + [(t, 0.0) for t in np.linspace(0.1, 2.5, 20)] + \
        [(0.0, t) for t in np.linspace(0.1, 2.5, 20)] + [(0.7 * t, -0.4 * t) for t in np.linspace(0.1, 2.5, 20)]

    @pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "compass", "generic"])
    @pytest.mark.parametrize("kind", ["pure", "cross"])
    def test_overlaps_match_ungrouped_gram_sum(self, name, kind):
        # the compass's cat is the pure case of its cross mixture
        if name == "compass":
            cat = build_cat(6.0, 1.0, CONST)
            source = cross_state(cat) if kind == "cross" else cat
        elif name == "generic":
            source = cross_state(generic_state()) if kind == "cross" else generic_state()
        else:
            source = preset_source(name, kind)
        want = gram_pair_sum(source, self.SHIFTS)
        got = displaced_overlaps(source, self.SHIFTS)
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]

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
    def test_comb_overlaps_match_ungrouped_gram_sum(self, half, alpha, xi, spacing, cross, dx, dp):
        # Delta x = spacing * xi stays at least one width, as in the analysis
        # tests, where both sums stay far above their roundoff floor
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # odd n/2 sign-convention note
            state = build_psi(SuperoscParams(2 * half, alpha), spacing * xi, xi)
        source = cross_state(state) if cross else state
        shifts = [(0.0, 0.0), (dx, dp), (dx, 0.0), (0.0, dp)]
        want = gram_pair_sum(source, shifts)
        assert np.max(np.abs(displaced_overlaps(source, shifts) - want)) <= 1e-14 * want[0]

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
    def test_pure_comb_counts(self, n):
        # 2m - 1 midpoints in x and m separations in p for m = n + 1 centers
        core = factor(build_psi(SuperoscParams(n, 5.0), 3.0, 0.25))
        m = n + 1
        assert core.basis_x.shape[1] == 2 * m - 1
        assert core.basis_p.shape[1] == m
        assert core.coeffs.shape == (2 * m - 1, m)

    def test_fig2b_cross_counts(self):
        source = preset_source("fig2b", "cross")
        core = factor(source)
        assert _columns(source)[0].shape[1] == 182
        assert (core.basis_x.shape[1], core.basis_p.shape[1]) == (38, 38)

    def test_generic_phases_do_not_merge(self):
        # the p columns of one separation k - j share (mu, sigma, omega), and
        # their phases arg(c_j conj c_k) differ mod pi, so each keeps its own
        # basis column; the x columns all have phi = 0 and group by midpoint
        state = generic_state()
        c = state.coeffs
        core = factor(state)
        for sep in range(1, 5):
            phases = np.mod(np.angle(c[:-sep] * np.conj(c[sep:])), math.pi)
            assert np.unique(phases).size == phases.size
            assert np.count_nonzero(core.basis_p[3] == 1.5 * sep) == 5 - sep
        assert core.basis_x.shape[1] == 9

    @staticmethod
    def _scan_peak(source, shifts):
        tracemalloc.start()
        try:
            displaced_overlaps(source, shifts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_scan_memory_is_bounded_by_block(self):
        # the n=32, alpha=24 cross has D = 98 basis columns a side; blocks of
        # _SHIFT_ELEMENTS Gram elements (13 shifts) bound the temporaries,
        # where all 161 at once or the ungrouped 1122 x 1122 Gram pair take
        # several times this bound
        source = cross_state(build_psi(SuperoscParams(32, 24.0), 3.0, 0.25))
        shifts = [(t, t) for t in np.linspace(0.0, 2.5, 161)]
        assert self._scan_peak(source, shifts) <= 16 * 2**20

    def test_fig2b_cross_diagonal_scan_holds_few_blocks(self):
        # D = 38, so a block is 90 shifts and one 90 x 38 x 38 array 1.04 MB:
        # G_x and _gram's two in-place arrays for G_p; with fresh temporaries
        # for every step of the closed form it took 7.5 MB
        source = preset_source("fig2b", "cross")
        shifts = [(t, t) for t in np.linspace(0.0, 2.5, 161)]
        displaced_overlaps(source, shifts[:1])  # the basis, outside the trace
        assert self._scan_peak(source, shifts) <= 3.5e6

    def test_scan_memory_does_not_grow_with_steps(self):
        # the compass has D = 4, so a block holds 8192 shifts; all 100 001 at
        # once would take 12.8 MB for each of _gram's temporaries
        source = cross_state(build_cat(6.0, 1.0, CONST))
        shifts = np.repeat(np.linspace(0.0, 2.5, 100_001)[:, None], 2, axis=1)
        assert self._scan_peak(source, shifts) <= 16 * 2**20

    @pytest.mark.parametrize("name, several_blocks", [("fig2a", False), ("n32", True)])
    def test_shift_value_does_not_depend_on_its_block(self, name, several_blocks):
        if name == "fig2a":
            source = preset_source("fig2a", "cross")
        else:
            source = cross_state(build_psi(SuperoscParams(32, 24.0), 3.0, 0.25))
        shifts = [(t, t) for t in np.linspace(0.0, 2.5, 161)]
        block = _SHIFT_ELEMENTS // max(factor(source).coeffs.shape) ** 2
        assert (block < len(shifts)) == several_blocks
        one_by_one = np.concatenate([displaced_overlaps(source, [s]) for s in shifts])
        assert np.array_equal(displaced_overlaps(source, shifts), one_by_one)


def mp_pair_sum(source, x, p):
    """(W, S) at one point: the pair sum over the float centers and
    coefficients at 60 digits, and S the sum of its absolute pair terms."""
    w_sum = s_sum = 0
    with mpmath.workdps(60):
        for t in source.terms if isinstance(source, MixtureSpec) else (MixtureTerm(source, 1.0),):
            st = t.state
            xt, pt = (-p, x) if t.rotation == QUARTER_TURN else (x, p)
            xt, pt = mpmath.mpf(xt), mpmath.mpf(pt)
            xi, hbar = mpmath.mpf(st.xi), mpmath.mpf(st.constants.hbar)
            scale = mpmath.mpf(t.weight) * mpmath.exp(-(pt * xi / hbar) ** 2) / (mpmath.pi * hbar)
            comps = [(mpmath.mpf(a), mpmath.mpc(c.real, c.imag)) for a, c in zip(st.centers, st.coeffs)]
            for a, ca in comps:
                for b, cb in comps:
                    term = (ca * mpmath.conj(cb) * mpmath.exp(-((xt - (a + b) / 2) / xi) ** 2)
                            * mpmath.expj(pt * (b - a) / hbar) * scale)
                    w_sum += term.real
                    s_sum += abs(term)
        return float(w_sum), float(s_sum)


class TestFactored:
    """Every reader of the core gives the same bits from a Factored as from
    the source it was factored from."""

    @pytest.mark.parametrize("kind", ["pure", "cross"])
    @pytest.mark.parametrize("name", ["fig1", "fig2a", "compass"])
    def test_readers_take_a_factored_source(self, name, kind):
        if name == "compass":
            cat = build_cat(6.0, 1.0, CONST)
            source = cross_state(cat) if kind == "cross" else cat
        else:
            source = preset_source(name, kind)
        core = factor(source)
        assert factor(core) is core
        xs, ps = np.linspace(-9.0, 9.0, 300), np.linspace(-4.0, 5.0, 300)
        window = GridWindow(-9.0, 9.0, -4.0, 4.0, 33, 65)
        shifts = [(0.0, 0.0), (0.3, -0.2), (1.1, 0.0)]
        for read in (
            lambda s: eval_wigner(s, xs, ps),
            lambda s: eval_cut(s, "p", ps),
            lambda s: eval_cut(s, "x", xs),
            lambda s: GridRows(s, window).rows(0, window.nx),
            lambda s: marginal_x(s, xs),
            lambda s: np.float64(total_integral(s)),
            lambda s: displaced_overlaps(s, shifts),
            lambda s: np.float64(purity(s)),
            lambda s: np.array(dataclasses.astuple(suggested_window(s))),
        ):
            assert read(core).tobytes() == read(source).tobytes()

    def test_arrays_are_read_only(self):
        core = factor(preset_source("fig2b", "cross"))
        assert core.constants == CONST
        for a in (core.basis_x, core.basis_p, core.coeffs):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestRoundoffFloor:
    """On the central h/L panel the true W is an exponentially small
    cancellation (1e-15 for fig2c), so an absolute pair-sum check cannot
    see it.  The core must stay within eps * S of the exact sum over the
    same float coefficients, S being the sum of absolute pair terms: the
    float64 floor of any pair sum, and no worse."""

    @pytest.mark.parametrize("source_kind", ["pure", "cross"])
    @pytest.mark.parametrize("preset", ["fig1", "fig2b", "fig2c"])
    def test_central_panel_within_eps_of_sum(self, preset, source_kind):
        scenario = resolve_scenario(argparse.Namespace(preset=preset))
        state = scenario.build_state()
        source = cross_state(state) if source_kind == "cross" else state
        half = CONST.h / np.ptp(state.centers) / 2.0
        ps = np.concatenate(([0.0], np.linspace(-half, half, 16)))
        got = eval_wigner(source, 0.0, ps)
        assert got[0] == eval_wigner(source, 0.0, 0.0)
        for p, w in zip(ps, got):
            exact, s = mp_pair_sum(source, 0.0, float(p))
            assert abs(w - exact) <= np.finfo(float).eps * s


class TestSuggestedWindow:
    """Each edge against its closed-form bound, six widths (xi in x, hbar/xi
    in p) past the outermost center or the momentum envelope, to 1 ulp."""

    @staticmethod
    def bounds(terms):
        edges = []
        for t in terms:
            a, xi, hbar = t.state.centers, t.state.xi, t.state.constants.hbar
            lo, hi, ph = float(a.min()) - 6.0 * xi, float(a.max()) + 6.0 * xi, 6.0 * hbar / xi
            if t.rotation == QUARTER_TURN:
                edges.append((-ph, ph, max(abs(lo), abs(hi))))
            else:
                edges.append((lo, hi, ph))
        p_half = max(e[2] for e in edges)
        return min(e[0] for e in edges), max(e[1] for e in edges), -p_half, p_half

    # turned_pair has both centers positive, so its p edge is the mirrored
    # upper x edge, not the lower one
    @pytest.mark.parametrize("name", ["comb", "cross", "compass", "turned_pair"])
    def test_edges_match_closed_form(self, name):
        constants = PhysicalConstants(hbar=0.7)
        comb = build_psi(SuperoscParams(4, 3.0), 1.3, 0.3, constants)
        pair = StateSpec(
            centers=[1.1, 2.9],
            coeffs=[0.6 + 0j, 0.8j],
            xi=0.3,
            constants=constants,
        )
        source = {
            "comb": comb,
            "cross": cross_state(comb),
            "compass": cross_state(build_cat(7.0 / 2, 0.3, constants)),
            "turned_pair": MixtureSpec(terms=(MixtureTerm(pair, 1.0, QUARTER_TURN),)),
        }[name]
        terms = source.terms if isinstance(source, MixtureSpec) else (MixtureTerm(source, 1.0),)
        window = suggested_window(source)
        got = (window.x_min, window.x_max, window.p_min, window.p_max)
        for edge, bound in zip(got, self.bounds(terms)):
            assert abs(edge - bound) <= np.spacing(abs(bound))


class TestCompassMixture:
    def test_arms_at_half_extent(self):
        mix = cross_state(build_cat(24.0 / 2, 1.0, CONST))
        states = [t.state for t in mix.terms]
        assert all(np.ptp(st.centers) == 24.0 for st in states)
        rotations = {t.rotation for t in mix.terms}
        assert rotations == {IDENTITY, QUARTER_TURN}


class TestEvalCut:
    def test_memory_stays_linear_in_samples(self):
        # the fig2c signed p-cut: 70,407 samples of a 182-term cross mixture;
        # an unblocked point path would hold several samples x terms buffers
        scenario = resolve_scenario(argparse.Namespace(preset="fig2c"))
        source = scenario.build_source()
        width, samples = cut_window(scenario, source, "p", "signed")
        coords = np.linspace(-width / 2.0, width / 2.0, samples)
        tracemalloc.start()
        try:
            eval_cut(source, "p", coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples == 70407
        assert peak <= 16 * 2**20


GRID_DIGEST = """
import argparse, hashlib
from subzurek.cli import auto_window, resolve_scenario
from subzurek.wigner import eval_grid
scenario = resolve_scenario(argparse.Namespace(preset="fig2b"))
source = scenario.build_source("cross")
window, _ = auto_window(scenario, source)
print(window.nx, window.np, hashlib.sha256(eval_grid(source, window).values.tobytes()).hexdigest())
"""


def test_grid_bytes_do_not_depend_on_blas_threads():
    # the grid is one GEMM; its bytes must not change with the OpenBLAS
    # thread count, or reruns on another machine would not reproduce files
    src = os.path.dirname(os.path.dirname(subzurek.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", GRID_DIGEST], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        digests.append(run.stdout)
    assert digests[0].startswith("1536 1536 ")
    assert digests[0] == digests[1]
