import argparse
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from subzurek.states import (
    GaussianComponent,
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
    PhaseSpaceGrid,
    _pair_sum_complex,
    compass_mixture,
    cross_state,
    displaced_overlaps,
    eval_cut,
    eval_grid,
    eval_wigner,
    integration_samples,
    marginal_x,
    overlap,
    pair_kernel,
    purity,
    rotate_point,
    suggested_window,
    total_integral,
    wigner_bound,
)

CONST = PhysicalConstants()


def single_gaussian(xi=1.0):
    return StateSpec(
        components=(GaussianComponent(0.0, xi, 1.0 + 0j),),
        constants=CONST,
        normalized=True,
    )


def fig1_state():
    return build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)


def fig2a_state():
    return build_psi(SuperoscParams(4, 6.0), 6.0, 1.0)


def gaussian_spot(x, p, xi=1.0, hbar=1.0):
    return np.exp(-(x**2) / xi**2 - p**2 * xi**2 / hbar**2) / (math.pi * hbar)


class TestPairKernel:
    def test_single_gaussian_peak(self):
        comp = GaussianComponent(0.0, 1.0, 1.0 + 0j)
        assert pair_kernel(comp, comp, 0.0, 0.0, CONST) == pytest.approx(1.0 / math.pi)

    def test_hermitian_pair_symmetry(self):
        a = GaussianComponent(2.0, 0.5, 0.3 + 0.4j)
        b = GaussianComponent(-1.0, 0.5, -0.2 + 0.9j)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, p = rng.uniform(-3, 3, 2)
            kab = pair_kernel(a, b, x, p, CONST)
            kba = pair_kernel(b, a, x, p, CONST)
            assert kab == pytest.approx(np.conj(kba), abs=1e-15)

    def test_mismatched_xi_rejected(self):
        a = GaussianComponent(0.0, 1.0, 1.0 + 0j)
        b = GaussianComponent(0.0, 2.0, 1.0 + 0j)
        with pytest.raises(ValueError, match="widths"):
            pair_kernel(a, b, 0.0, 0.0, CONST)


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
        bound = wigner_bound(CONST) + 1e-9
        rng = np.random.default_rng(17)
        for st in (fig1_state(), fig2a_state(), build_cat(3.0, 1.0)):
            half = float(np.max(np.abs(st.centers)))
            xs = rng.uniform(-half - 2, half + 2, 400)
            ps = rng.uniform(-3.5 / st.xi, 3.5 / st.xi, 400)
            assert np.max(np.abs(eval_wigner(st, xs, ps))) <= bound

    def test_mixed_xi_rejected(self):
        comps = (
            GaussianComponent(0.0, 1.0, 1.0 + 0j),
            GaussianComponent(1.0, 0.5, 1.0 + 0j),
        )
        with pytest.raises(ValueError, match="mixed"):
            eval_wigner(StateSpec(components=comps), 0.0, 0.0)


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
                xr, pr = rotate_point(x, p)
                dev = abs(eval_wigner(mix, x, p) - eval_wigner(mix, xr, pr))
                assert dev <= 10 * leakage

    def test_cross_state_asymmetry_at_odd_midpoint_patches(self):
        # the sine-type patch between adjacent components flips sign under
        # p -> -p, so the two-term mixture is genuinely asymmetric there
        mix = cross_state(fig2a_state())
        a = eval_wigner(mix, 3.0, 0.26)
        b = eval_wigner(mix, *rotate_point(3.0, 0.26))
        assert abs(a - b) > 0.1

    def test_quarter_turn_involution(self):
        pt = (1.234, -5.678)
        out = pt
        for _ in range(4):
            out = rotate_point(*out)
        assert out == pt

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
            t.state, *(rotate_point(X, P) if t.rotation == QUARTER_TURN else (X, P))
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
        window = GridWindow(-8.0, 8.0, -8.0, 8.0, 257, 257)
        grid = eval_grid(st, window)
        marg = marginal_x(grid, st)
        dens = np.abs(eval_psi(st, grid.x_coords())) ** 2
        assert np.max(np.abs(marg - dens)) <= 1e-8

    def test_fig1_marginal_matches_density(self):
        st = fig1_state()
        grid = eval_grid(st, integration_grid(st, 24.0))
        marg = marginal_x(grid, st)
        dens = np.abs(eval_psi(st, grid.x_coords())) ** 2
        assert np.max(np.abs(marg - dens)) <= 1e-6

    def test_total_integral_is_one(self):
        st = fig1_state()
        grid = eval_grid(st, integration_grid(st, 24.0))
        assert abs(total_integral(grid) - 1.0) <= 1e-6

    def test_narrow_p_window_rejected(self):
        st = single_gaussian()
        grid = eval_grid(st, GridWindow(-8.0, 8.0, -2.0, 2.0, 64, 64))
        with pytest.raises(ValueError, match="window"):
            marginal_x(grid, st)


class TestOverlap:
    def test_pure_state_purity_is_one(self):
        st = single_gaussian()
        assert purity(st) == pytest.approx(1.0, abs=1e-14)

    def test_displaced_gaussian_fidelity(self):
        xi = 1.0
        a = single_gaussian(xi)
        for delta in (0.5, 1.0, 2.0):
            b = StateSpec(
                components=(GaussianComponent(delta, xi, 1.0 + 0j),),
                constants=CONST,
                normalized=True,
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
        c0 = abs({c.center: c.coeff for c in st.components}[0.0]) ** 2
        assert mixed == pytest.approx(0.5 + c0**2 / 2.0, abs=1e-4)

    @pytest.mark.parametrize("name", ["fig2a", "compass"])
    def test_purity_matches_grid_self_overlap(self, name):
        source = fig2a_state() if name == "fig2a" else compass_mixture(12.0, 1.0, CONST)
        window = product_grid(source, 12.0)
        grid = eval_grid(source, window)
        assert purity(source) == pytest.approx(overlap(grid, grid, CONST), rel=0, abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "p"])
    def test_compass_displaced_overlaps_match_shifted_grids(self, axis):
        # one axis stays put along x or p; its Gram product is reused.  The
        # window holds every arm of the shifted copies, so the trapezoid sums
        # converge to the exact plane integrals
        source = compass_mixture(6.0, 1.0, CONST)
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


def mp_pair_sum(source, x, p):
    """(W, S) at one point: the pair sum over the float centers and
    coefficients at 60 digits, and S the sum of its absolute pair terms."""
    w_sum = s_sum = 0
    with mpmath.workdps(60):
        for t in source.terms if isinstance(source, MixtureSpec) else (MixtureTerm(source, 1.0),):
            st = t.state
            xt, pt = rotate_point(x, p) if t.rotation == QUARTER_TURN else (x, p)
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
        half = CONST.h / state.extent / 2.0
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
            components=(GaussianComponent(1.1, 0.3, 0.6 + 0j), GaussianComponent(2.9, 0.3, 0.8j)),
            constants=constants,
        )
        source = {
            "comb": comb,
            "cross": cross_state(comb),
            "compass": compass_mixture(7.0, 0.3, constants),
            "turned_pair": MixtureSpec(terms=(MixtureTerm(pair, 1.0, QUARTER_TURN),)),
        }[name]
        terms = source.terms if isinstance(source, MixtureSpec) else (MixtureTerm(source, 1.0),)
        window = suggested_window(source)
        got = (window.x_min, window.x_max, window.p_min, window.p_max)
        for edge, bound in zip(got, self.bounds(terms)):
            assert abs(edge - bound) <= np.spacing(abs(bound))


class TestCompassMixture:
    def test_arms_at_half_extent(self):
        mix = compass_mixture(24.0, 1.0, CONST)
        states = [t.state for t in mix.terms]
        assert all(st.extent == 24.0 for st in states)
        rotations = {t.rotation for t in mix.terms}
        assert rotations == {IDENTITY, QUARTER_TURN}


class TestEvalCut:
    def test_memory_stays_linear_in_samples(self):
        # the fig2c signed p-cut: 70,407 samples of a 182-term cross mixture;
        # an unblocked point path would hold several samples x terms buffers
        scenario = resolve_scenario(argparse.Namespace(preset="fig2c"))
        width, samples = cut_window(scenario, "signed")
        coords = np.linspace(-width / 2.0, width / 2.0, samples)
        source = scenario.build_source()
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
