import math

import numpy as np
import pytest

from subzurek.oracle import QuadratureSpec, norm_quadrature
from subzurek.states import (
    PhysicalConstants,
    StateSpec,
    build_cat,
    build_psi,
    eval_psi,
    norm_squared,
)
from subzurek.superosc import SuperoscParams, fourier_coeffs


def single_gaussian(xi=1.0, center=0.0, coeff=1.0):
    return StateSpec(
        centers=[center],
        coeffs=[complex(coeff)],
        xi=xi,
        constants=PhysicalConstants(),
    )


class TestConstants:
    def test_h_is_derived(self):
        c = PhysicalConstants(hbar=2.0)
        assert c.h == 4.0 * math.pi

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=0.0)


class TestBuildCat:
    def test_symmetric_two_components(self):
        cat = build_cat(3.0, 1.0)
        assert cat.centers.size == 2
        assert sorted(cat.centers.tolist()) == [-3.0, 3.0]
        c0, c1 = cat.coeffs.tolist()
        assert c0 == c1
        assert c0.imag == 0.0 and c0.real > 0.0

    def test_coincident_components_reduce_to_single_gaussian(self):
        cat = StateSpec(centers=[0.0, 0.0], coeffs=[0.5, 0.5], xi=1.0)
        xs = np.linspace(-4, 4, 41)
        ref = single_gaussian()
        np.testing.assert_allclose(eval_psi(cat, xs), eval_psi(ref, xs), atol=1e-12)

    def test_raw_norm_is_one_plus_overlap(self):
        raw = build_cat(3.0, 1.0, normalize=False)
        expected = 1.0 + math.exp(-9.0)
        assert abs(norm_squared(raw) - expected) < 1e-14
        # quadrature agrees with the closed-form overlap expression
        assert abs(norm_quadrature(raw) - expected) < 1e-10

    def test_normalized_to_1e10(self):
        cat = build_cat(3.0, 1.0)
        assert abs(norm_squared(cat) - 1.0) <= 1e-10

    def test_rejects_bad_xi(self):
        with pytest.raises(ValueError):
            build_cat(3.0, -1.0)

    @pytest.mark.parametrize("delta_x", [0.0, -3.0, math.inf, math.nan])
    def test_rejects_bad_delta_x(self, delta_x):
        with pytest.raises(ValueError, match="delta_x"):
            build_cat(delta_x, 1.0)


class TestBuildPsi:
    def test_fig1_has_nine_components(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        assert st.centers.size == 9
        assert np.ptp(st.centers) == 8 * 3.0

    @pytest.mark.parametrize("n,alpha,dx,xi", [(8, 10.0, 3.0, 0.25), (4, 6.0, 6.0, 1.0)])
    def test_comb_shows_n_plus_one_spikes(self, n, alpha, dx, xi):
        # |psi|^2 local maxima on a xi/20 grid over the comb, well-separated
        # regime dx >= 6 xi
        st = build_psi(SuperoscParams(n, alpha), dx, xi)
        half = (n / 2) * dx + 4 * xi
        xs = np.arange(-half, half, xi / 20.0)
        dens = np.abs(eval_psi(st, xs)) ** 2
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        floor = dens.max() * 1e-12
        assert int(np.count_nonzero(interior & (dens[1:-1] > floor))) == n + 1

    def test_n2_alpha1_reduces_to_two_gaussians(self):
        # c = [1,0,0] gives d_0 = c_1 = 0, d_1 = c_0 + c_2 = 1, so k = [0,1]:
        # the origin component vanishes and the state is a cat at +-delta_x
        table = fourier_coeffs(SuperoscParams(2, 1.0))
        np.testing.assert_array_equal(table.k, [0.0, 1.0])
        with pytest.warns(UserWarning):  # n/2 = 1 is odd
            st = build_psi(SuperoscParams(2, 1.0), 2.0, 0.5)
        by_center = dict(zip(st.centers.tolist(), st.coeffs.tolist()))
        assert by_center[0.0] == 0.0
        assert abs(by_center[2.0]) > 0.0
        assert abs(by_center[-2.0]) == pytest.approx(abs(by_center[2.0]), abs=1e-15)

    def test_fig2a_raw_coefficient_weights(self):
        # verbatim (unnormalized) coefficients: sum |coeff|^2 = k_0^2 + sum_{j!=0} k^2/2
        params = SuperoscParams(4, 6.0)
        table = fourier_coeffs(params)
        st = build_psi(params, 6.0, 1.0, normalize=False)
        total = sum(abs(c) ** 2 for c in st.coeffs.tolist())
        expected = table.k[0] ** 2 + sum(table.k[j] ** 2 for j in (1, 2))
        assert abs(total - expected) < 1e-9 * expected

    def test_hermitian_coefficient_symmetry(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        by_center = dict(zip(st.centers.tolist(), st.coeffs.tolist()))
        for j in range(1, 5):
            plus = by_center[3.0 * j]
            minus = by_center[-3.0 * j]
            assert abs(abs(plus) - abs(minus)) <= 1e-14
            assert minus == pytest.approx(plus.conjugate(), abs=1e-15)

    def test_normalized_flag_and_value(self):
        st = build_psi(SuperoscParams(12, 10.0), 3.0, 0.25)
        assert abs(norm_squared(st) - 1.0) <= 1e-10

    def test_odd_half_n_warns(self):
        with pytest.warns(UserWarning, match="sign convention"):
            build_psi(SuperoscParams(6, 10.0), 3.0, 0.25)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            build_psi(SuperoscParams(8, 10.0), -1.0, 0.25)
        with pytest.raises(ValueError):
            build_psi(SuperoscParams(8, 10.0), 3.0, 0.0)


class TestEvalPsi:
    def test_gaussian_peak_value(self):
        st = single_gaussian()
        assert abs(eval_psi(st, 0.0) - math.pi**-0.25) < 1e-15

    def test_neighbor_overspill_negligible_at_component_center(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        by_center = dict(zip(st.centers.tolist(), st.coeffs.tolist()))
        val = eval_psi(st, 3.0)
        expected = by_center[3.0] * (math.pi * 0.25**2) ** -0.25
        assert abs(val - expected) <= 1e-10 * abs(expected)

    def test_matches_componentwise_sum(self):
        st = build_psi(SuperoscParams(4, 6.0), 6.0, 1.0)
        xs = np.linspace(-14, 14, 57)
        manual = np.zeros(xs.shape, dtype=complex)
        for center, coeff in zip(st.centers, st.coeffs):
            manual += coeff * (math.pi * st.xi**2) ** -0.25 * np.exp(
                -((xs - center) ** 2) / (2 * st.xi**2)
            )
        np.testing.assert_allclose(eval_psi(st, xs), manual, atol=1e-14)

    def test_density_nonnegative_on_grid(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        xs = np.linspace(-14, 14, 2001)
        assert np.all(np.abs(eval_psi(st, xs)) ** 2 >= 0.0)


def _psi_every_exp(state, x):
    """Reference psi: the per-component loop taking exp of every argument."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    for center, coeff in zip(state.centers.tolist(), state.coeffs.tolist()):
        amp = (math.pi * state.xi**2) ** -0.25
        out += coeff * amp * np.exp(-((xs - center) ** 2) / (2.0 * state.xi**2))
    if np.isscalar(x) or (hasattr(x, "ndim") and x.ndim == 0):
        return complex(out)
    return out


def _underflow_edge(state, rng):
    # per component, points whose exponent -(x-c)^2/(2 xi^2) runs across
    # -744...-747, where float64 exp goes from subnormal to exactly zero
    t = np.linspace(744.0, 747.0, 301)
    pts = [c + s * state.xi * np.sqrt(2.0 * t) for c in state.centers for s in (-1.0, 1.0)]
    return rng.permutation(np.concatenate(pts + [np.linspace(-40.0, 40.0, 4001)]))


def _assert_psi_bits(got, ref):
    """Every real and imaginary part of got has the bits of ref's, except
    where ref's is subnormal: there eval_psi leaves out the terms past exp's
    normal floor, and the part may move by less than np.finfo(float).tiny."""
    got = np.asarray(got, dtype=complex).reshape(-1).view(float)
    ref = np.asarray(ref, dtype=complex).reshape(-1).view(float)
    tiny = np.finfo(float).tiny
    subnormal = (ref != 0.0) & (np.abs(ref) < tiny)
    assert np.array_equal(got[~subnormal].view(np.uint64), ref[~subnormal].view(np.uint64))
    assert np.all(np.abs(got[subnormal] - ref[subnormal]) < tiny)


class TestEvalPsiBitwise:
    """Skipping exp below its normal floor changes no bit of a zero or normal
    part of psi."""

    STATES = {
        "cat": lambda: build_cat(3.0, 0.25, PhysicalConstants(hbar=0.7)),
        "comb_n12": lambda: build_psi(
            SuperoscParams(12, 16.0), 3.0, 0.25, PhysicalConstants(hbar=0.7)
        ),
        # coefficients with both parts nonzero, both signs, and one zero
        "generic": lambda: StateSpec(
            centers=[-2.9, 0.0, 0.4, 3.1, 5.0],
            coeffs=[0.3 + 0.7j, -1.1 + 0.2j, 0.5 - 0.5j, -2.0 - 0.0j, 0j],
            xi=0.25,
        ),
    }

    @pytest.fixture(params=sorted(STATES))
    def state(self, request):
        return self.STATES[request.param]()

    def test_unsorted_1d_across_underflow_edge(self, state):
        xs = _underflow_edge(state, np.random.default_rng(7))
        _assert_psi_bits(eval_psi(state, xs), _psi_every_exp(state, xs))

    def test_2d_input_keeps_shape(self, state):
        xs = _underflow_edge(state, np.random.default_rng(8))[:4000].reshape(80, 50)
        got = eval_psi(state, xs)
        assert got.shape == (80, 50)
        _assert_psi_bits(got, _psi_every_exp(state, xs))

    def test_scalar_and_0d_inputs(self, state):
        edge = _underflow_edge(state, np.random.default_rng(9))
        for x in (0.0, float(state.centers[-1]), *edge[:25].tolist()):
            for arg in (x, np.float64(x), np.array(x)):
                got = eval_psi(state, arg)
                assert isinstance(got, complex)
                _assert_psi_bits(got, _psi_every_exp(state, arg))

    def test_nonfinite_inputs_propagate(self, state):
        xs = np.array([np.nan, np.inf, -np.inf, 0.0])
        got = eval_psi(state, xs)
        assert np.isnan(got[0].real) and np.isnan(got[0].imag)
        _assert_psi_bits(got[1:], _psi_every_exp(state, xs[1:]))

    # every input reaches the per-component slice, ascending 1-D input
    # directly and the rest sorted and scattered back; a reach cut even 1%
    # short drops normal terms at the outermost centers

    def test_sorted_across_underflow_edge(self, state):
        xs = np.sort(_underflow_edge(state, np.random.default_rng(10)))
        _assert_psi_bits(eval_psi(state, xs), _psi_every_exp(state, xs))

    def test_sorted_with_duplicates(self, state):
        xs = np.sort(np.repeat(_underflow_edge(state, np.random.default_rng(11)), 2))
        _assert_psi_bits(eval_psi(state, xs), _psi_every_exp(state, xs))

    def test_sorted_with_infinite_ends(self, state):
        edge = np.sort(_underflow_edge(state, np.random.default_rng(12)))
        xs = np.concatenate(([-np.inf], edge, [np.inf]))
        got = eval_psi(state, xs)
        assert got[0] == 0.0 and got[-1] == 0.0
        _assert_psi_bits(got, _psi_every_exp(state, xs))

    def test_nan_in_ascending_run_takes_full_path(self, state):
        xs = np.sort(_underflow_edge(state, np.random.default_rng(13)))
        k = xs.size // 2
        xs[k] = np.nan
        got = eval_psi(state, xs)
        assert np.isnan(got[k].real) and np.isnan(got[k].imag)
        rest = np.delete(np.arange(xs.size), k)
        _assert_psi_bits(got[rest], _psi_every_exp(state, xs)[rest])

    def test_ascending_input_is_not_sorted(self, state, monkeypatch):
        xs = np.sort(_underflow_edge(state, np.random.default_rng(14)))
        expected = _psi_every_exp(state, xs)
        monkeypatch.setattr(np, "argsort", lambda *a, **k: pytest.fail("ascending input sorted"))
        _assert_psi_bits(eval_psi(state, xs), expected)
        norm_quadrature(state)

    def test_empty_and_single_element(self, state):
        assert eval_psi(state, np.array([])).shape == (0,)
        # exponents -732 ... -745: the term is subnormal, not yet zero
        tail = state.centers.max() + state.xi * np.sqrt(2.0 * np.linspace(732.0, 745.0, 5))
        for x in (0.0, float(state.centers[0]), *tail.tolist()):
            xs = np.array([x])
            got = eval_psi(state, xs)
            assert got.shape == (1,)
            _assert_psi_bits(got, _psi_every_exp(state, xs))


class TestNormSquared:
    def test_unit_single_component(self):
        assert norm_squared(single_gaussian()) == pytest.approx(1.0, abs=1e-15)

    def test_far_separated_cat(self):
        w = complex(1 / math.sqrt(2))
        st = StateSpec(centers=[10.0, -10.0], coeffs=[w, w], xi=1.0)
        assert norm_squared(st) == pytest.approx(1.0 + math.exp(-100.0), abs=1e-15)

    def test_fig1_matches_quadrature(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        closed = norm_squared(st)
        quad = norm_quadrature(st)
        assert abs(closed - quad) <= 1e-8 * quad

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StateSpec(centers=[], coeffs=[], xi=1.0)


class TestStateSpec:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="one coefficient per center"):
            StateSpec(centers=[0.0, 1.0], coeffs=[1.0 + 0j], xi=1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_center_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StateSpec(centers=[0.0, bad], coeffs=[1.0, 1.0], xi=1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_xi_rejected(self, bad):
        with pytest.raises(ValueError, match="xi"):
            StateSpec(centers=[0.0], coeffs=[1.0], xi=bad)

    def test_arrays_copied_and_typed(self):
        centers, coeffs = np.array([1.0, 2.0]), np.array([1.0, 0.5])
        st = StateSpec(centers=centers, coeffs=coeffs, xi=1.0)
        centers[0] = coeffs[0] = 9.0
        assert st.centers.tolist() == [1.0, 2.0]
        assert st.coeffs.dtype == complex and st.coeffs.tolist() == [1.0, 0.5]


class TestDerivedArrays:
    def test_computed_once_and_read_only(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        assert st.centers is st.centers and st.coeffs is st.coeffs
        assert st.centers.tolist() == [3.0 * j for j in range(-4, 5)]
        with pytest.raises(ValueError, match="read-only"):
            st.centers[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            st.coeffs[0] = 0.0
