import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest

import subzurek.oracle as oracle_mod
from subzurek.oracle import (
    QuadratureSpec,
    _batch_parts,
    _simpson,
    default_quadrature,
    norm_quadrature,
    wigner_quadrature,
    wigner_quadrature_parts,
)
from subzurek.states import (
    PhysicalConstants,
    StateSpec,
    build_cat,
    build_psi,
    eval_psi,
)
from subzurek.superosc import SuperoscParams
from subzurek.wigner import eval_wigner


def single_gaussian(xi=1.0):
    return StateSpec(
        centers=[0.0],
        coeffs=[1.0 + 0j],
        xi=xi,
        constants=PhysicalConstants(),
    )


class TestWignerQuadrature:
    def test_single_gaussian_peak(self):
        val = wigner_quadrature(single_gaussian(), 0.0, 0.0)
        assert abs(val - 1.0 / math.pi) <= 1e-10

    def test_cat_matches_printed_closed_form(self):
        # three-term cat expression at (0, pi/6): interference phase is
        # cos(2 * (pi/6) * 3) = cos(pi) = -1
        dx, xi = 3.0, 1.0
        cat = build_cat(dx, xi)
        p = math.pi / 6.0
        g = lambda x, pp: math.exp(-x * x / xi**2 - pp * pp * xi**2) / math.pi
        printed = (0.5 * (g(-dx, p) + g(dx, p)) + g(0.0, p) * math.cos(2 * p * dx)) / (
            1.0 + math.exp(-(dx**2) / xi**2)
        )
        assert abs(wigner_quadrature(cat, 0.0, p) - printed) <= 1e-8

    def test_fig2b_random_points_match_closed_form(self):
        st = build_psi(SuperoscParams(12, 10.0), 3.0, 0.25)
        rng = np.random.default_rng(404)
        for _ in range(15):
            x = float(rng.uniform(-19, 19))
            p = float(rng.uniform(-14, 14))
            assert abs(eval_wigner(st, x, p) - wigner_quadrature(st, x, p)) <= 1e-8

    def test_imaginary_part_is_diagnostic_noise(self):
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        re, im = wigner_quadrature_parts(st, 1.3, -2.1)
        assert abs(im) <= 1e-12 * max(1.0, abs(re))


class TestConvergence:
    def test_doubling_from_default_is_stable(self):
        for state, pt in (
            (build_cat(3.0, 1.0), (0.7, 1.3)),
            (build_psi(SuperoscParams(8, 10.0), 3.0, 0.25), (1.0, 2.0)),
        ):
            x, p = pt
            d = default_quadrature(state, p, x)
            v1 = wigner_quadrature(state, x, p)
            v2 = _batch_parts(state, [x], [p], [QuadratureSpec(d.y_halfwidth, 2 * d.n_points)])[0][0]
            assert abs(v1 - v2) <= 1e-15

    def test_error_reduction_per_doubling_above_roundoff(self):
        # Gaussian-enveloped integrands converge faster than h^4 once the
        # oscillation is resolved (tail-free windows leave pure aliasing
        # error); each doubling above roundoff gains far more than the
        # h^4 factor 16 demands
        cat = build_cat(3.0, 1.0)
        x, p = 0.7, 5.0

        def raw(n):
            y = np.linspace(-11.0, 11.0, n + 1)
            f = np.conj(eval_psi(cat, x + y)) * eval_psi(cat, x - y) * np.exp(2j * p * y)
            w = np.ones(n + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            return float(np.real(np.sum(w * f)) * (22.0 / n) / 3.0 / math.pi)

        ref = raw(2**17)
        err_coarse = abs(raw(64) - ref)
        err_fine = abs(raw(128) - ref)
        assert err_coarse > 1e-12  # above roundoff
        assert err_coarse / err_fine >= 12.0

    def test_simpson_core_is_fourth_order(self):
        # on an integrand with boundary-dominated error the classic h^4
        # ratio ~16 appears cleanly
        exact = math.e - 1.0
        errs = []
        for n in (16, 32, 64):
            xs = np.linspace(0.0, 1.0, n + 1)
            errs.append(abs(_simpson(np.exp(xs), 1.0 / n) - exact))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.05)


def _two_call_quadrature(state, x, p):
    """Reference oracle: linspace lattice, psi evaluated at x+y and at x-y."""
    quad = default_quadrature(state, p)
    hbar = state.constants.hbar
    y = np.linspace(-quad.y_halfwidth, quad.y_halfwidth, quad.n_points + 1)
    integrand = (
        np.conj(eval_psi(state, x + y)) * eval_psi(state, x - y) * np.exp(2j * p * y / hbar)
    )
    w = np.ones(y.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = 2.0 * quad.y_halfwidth / quad.n_points
    total = (integrand @ w) * (h / 3.0) / (math.pi * hbar)
    return float(total.real)


class TestSymmetricLattice:
    STATES = {
        "fig1": lambda: build_psi(SuperoscParams(8, 10.0), 3.0, 0.25),
        "fig2b": lambda: build_psi(SuperoscParams(12, 10.0), 3.0, 0.25),
        "cat": lambda: build_cat(3.0, 1.0),
        "comb_n12_alpha16": lambda: build_psi(SuperoscParams(12, 16.0), 3.0, 0.25),
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_matches_two_call_linspace_form(self, name):
        st = self.STATES[name]()
        half = float(np.max(np.abs(st.centers)))
        rng = np.random.default_rng(2026)
        for _ in range(6):
            x = float(rng.uniform(-half - 2 * st.xi, half + 2 * st.xi))
            p = float(rng.uniform(-3.5 / st.xi, 3.5 / st.xi))
            assert abs(wigner_quadrature(st, x, p) - _two_call_quadrature(st, x, p)) <= 1e-14

    def test_one_psi_evaluation_per_point(self, monkeypatch):
        # one eval_psi call for the batch, covering each point's lattice
        # once: n_points + 1 samples a point, psi(x - y) read backwards
        calls = []

        def counting(state, x):
            calls.append(np.shape(x))
            return eval_psi(state, x)

        monkeypatch.setattr(oracle_mod, "eval_psi", counting)
        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        points = ((0.0, 0.0), (1.3, -2.1), (-4.0, 7.5))
        wigner_quadrature(st, [x for x, _ in points], [p for _, p in points])
        assert calls == [(sum(default_quadrature(st, p, x).n_points + 1 for x, p in points),)]


def _complex_exp_parts(state, x, p):
    """Reference oracle: the transform phase as one complex exp over the
    whole lattice, psi through eval_psi's sort-and-scatter path (2-D input)."""
    quad = default_quadrature(state, p, x)
    hbar = state.constants.hbar
    half = quad.n_points // 2
    h = 2.0 * quad.y_halfwidth / quad.n_points
    y = h * np.arange(-half, half + 1)
    f = eval_psi(state, (x + y)[None, :])[0]
    integrand = np.conj(f) * f[::-1] * np.exp(2j * p * y / hbar)
    total = _simpson(integrand, h) / (math.pi * hbar)
    return float(np.real(total)), float(np.imag(total))


class TestHalfLatticePhase:
    """Phase from cos/sin on y >= 0 and its conjugate on y < 0: same bits."""

    STATES = {
        "fig1": lambda hbar: build_psi(SuperoscParams(8, 10.0), 3.0, 0.25, PhysicalConstants(hbar)),
        "fig2b": lambda hbar: build_psi(SuperoscParams(12, 10.0), 3.0, 0.25, PhysicalConstants(hbar)),
        "cat": lambda hbar: build_cat(3.0, 1.0, PhysicalConstants(hbar)),
        "comb_n12_alpha16": lambda hbar: build_psi(
            SuperoscParams(12, 16.0), 3.0, 0.25, PhysicalConstants(hbar)
        ),
    }

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("name", sorted(STATES))
    def test_bitwise_equal_to_complex_exp(self, name, hbar):
        st = self.STATES[name](hbar)
        half = float(np.max(np.abs(st.centers)))
        rng = np.random.default_rng(99)
        p_max = 3.5 * hbar / st.xi
        for p in (-p_max * rng.uniform(0.1, 1.0), 0.0, p_max * rng.uniform(0.1, 1.0)):
            x = float(rng.uniform(-half - 2 * st.xi, half + 2 * st.xi))
            got = np.array(wigner_quadrature_parts(st, x, p))
            ref = np.array(_complex_exp_parts(st, x, p))
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (x, p, got - ref)


def _psi_every_exp(state, x):
    """Reference psi: the per-component loop taking exp of every argument,
    the subnormal tails past exp's normal floor included."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    amp = (math.pi * state.xi**2) ** -0.25
    for center, coeff in zip(state.centers.tolist(), state.coeffs.tolist()):
        out += coeff * amp * np.exp(-((xs - center) ** 2) / (2.0 * state.xi**2))
    return out


def _validate_points(state, count=24):
    """The (x, p) points that validate draws for a state."""
    rng = np.random.default_rng(20260808)
    half = float(np.max(np.abs(state.centers)))
    p_max = 3.5 * state.constants.hbar / state.xi
    points = [(rng.uniform(-half - 2 * state.xi, half + 2 * state.xi), rng.uniform(-p_max, p_max))
              for _ in range(count)]
    return [(float(x), float(p)) for x, p in points]


class TestNormalFloorCut:
    """eval_psi leaves out every term past exp's normal floor; at validate's
    points no oracle bit changes."""

    STATES = {
        "fig1": lambda: build_psi(SuperoscParams(8, 10.0), 3.0, 0.25),
        "fig2b": lambda: build_psi(SuperoscParams(12, 10.0), 3.0, 0.25),
        "comb_n12_alpha16": lambda: build_psi(SuperoscParams(12, 16.0), 3.0, 0.25),
        "cat": lambda: build_cat(3.0, 1.0),
        "comb_n20_alpha16": lambda: build_psi(SuperoscParams(20, 16.0), 3.0, 0.25),
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_oracle_bits_equal_every_exp_psi(self, name, monkeypatch):
        st = self.STATES[name]()
        points = _validate_points(st)
        shipped = [wigner_quadrature_parts(st, x, p) for x, p in points]
        shipped_norm = norm_quadrature(st)
        monkeypatch.setattr(oracle_mod, "eval_psi", _psi_every_exp)
        reference = [wigner_quadrature_parts(st, x, p) for x, p in points]
        assert np.array_equal(np.array(shipped).view(np.uint64), np.array(reference).view(np.uint64))
        assert np.float64(shipped_norm).view(np.uint64) == np.float64(norm_quadrature(st)).view(np.uint64)


def _mp_pair_sum(state, x, p):
    """W at one point: the pair sum over the state's float centers and
    coefficients at 50 digits."""
    with mpmath.workdps(50):
        x, p = mpmath.mpf(x), mpmath.mpf(p)
        xi, hbar = mpmath.mpf(state.xi), mpmath.mpf(state.constants.hbar)
        comps = [(mpmath.mpf(a), mpmath.mpc(c.real, c.imag))
                 for a, c in zip(state.centers.tolist(), state.coeffs.tolist())]
        total = sum((ca * mpmath.conj(cb) * mpmath.exp(-((x - (a + b) / 2) / xi) ** 2)
                     * mpmath.expj(p * (b - a) / hbar)).real
                    for a, ca in comps for b, cb in comps)
        return float(total * mpmath.exp(-((p * xi / hbar) ** 2)) / (mpmath.pi * hbar))


def _worst_vs_pair_sum(state):
    points = _validate_points(state)
    got = wigner_quadrature(state, [x for x, _ in points], [p for _, p in points])
    return max(abs(g - _mp_pair_sum(state, x, p)) for g, (x, p) in zip(got.tolist(), points))


def _sweep_cases(count=12, seed=29):
    """Seeded combs and cats, hbar != 1: (n, alpha, delta_x, xi, hbar), n = 0
    for a cat."""
    rng = np.random.default_rng(seed)
    cases = {}
    for i in range(count):
        n = 0 if i % 3 == 0 else 4 * int(rng.integers(1, 5))
        alpha, dx = float(rng.uniform(1.0, 16.0)), float(rng.uniform(0.5, 6.0))
        xi, hbar = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.3, 3.0))
        cases[f"sweep{i}"] = (n, alpha, dx, xi, hbar)
    return cases


class TestPairSumAccuracy:
    """At validate's points the oracle is within 1e-15 of the exact pair sum
    over the state's float centers and coefficients."""

    CASES = {
        "fig1": (8, 10.0, 3.0, 0.25, 1.0),
        "fig2a": (4, 6.0, 6.0, 1.0, 1.0),
        "fig2b": (12, 10.0, 3.0, 0.25, 1.0),
        "fig2c": (12, 16.0, 3.0, 0.25, 1.0),
        "cat": (0, 0.0, 3.0, 1.0, 1.0),
        "n20_alpha16": (20, 16.0, 3.0, 0.25, 1.0),
        "n32_alpha24": (32, 24.0, 3.0, 0.25, 1.0),
        **_sweep_cases(),
    }

    @staticmethod
    def state(case):
        n, alpha, dx, xi, hbar = case
        if n == 0:
            return build_cat(dx, xi, PhysicalConstants(hbar))
        return build_psi(SuperoscParams(n, alpha), dx, xi, PhysicalConstants(hbar))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_within_1e_15_of_50_digit_pair_sum(self, name):
        assert _worst_vs_pair_sum(self.state(self.CASES[name])) <= 1e-15

    @pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "fig2c", "cat"])
    def test_half_the_alias_margin_fails(self, name, monkeypatch):
        # pi/h >= 2|p|/hbar + 8/xi leaves the coarse trapezoid's alias at
        # e^{-16} of each term's peak, which the check above must see
        monkeypatch.setattr(oracle_mod, "_ALIAS_MARGIN", 8.0)
        assert _worst_vs_pair_sum(self.state(self.CASES[name])) > 1e-15

    @pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "fig2c", "cat"])
    def test_window_margin_is_needed(self, name, monkeypatch):
        # a window ending at max|center| + 6 xi - |x| drops pair terms that
        # reach e^{-18} of their peak, which the check above must see
        monkeypatch.setattr(oracle_mod, "_PAIR_REACH", 6.0)
        assert _worst_vs_pair_sum(self.state(self.CASES[name])) > 1e-15


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpu"])
def cpus(request):
    """Run the oracle with this thread pinned to 1 or 2 CPUs: its bits and
    errors must not depend on the CPUs the process may use."""
    mask = os.sched_getaffinity(0)
    if len(mask) < request.param:
        pytest.skip(f"the process may use {len(mask)} CPU(s)")
    os.sched_setaffinity(0, sorted(mask)[: request.param])
    try:
        yield request.param
    finally:
        os.sched_setaffinity(0, mask)


def _fig2b_points(count, seed=20260808):
    st = build_psi(SuperoscParams(12, 10.0), 3.0, 0.25)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-20.0, 20.0, count)
    ps = rng.uniform(-14.0, 14.0, count)
    return st, xs, ps


class TestBatchedPoints:
    """wigner_quadrature over arrays: the per-point loop's bits and errors."""

    def test_array_bits_equal_per_point_loop(self, cpus):
        st, xs, ps = _fig2b_points(9)
        got = wigner_quadrature(st, xs, ps)
        loop = np.array([wigner_quadrature_parts(st, x, p)[0] for x, p in zip(xs.tolist(), ps.tolist())])
        assert got.shape == (9,)
        assert got.tobytes() == loop.tobytes()

    def test_scalars_give_a_float_and_arrays_broadcast(self, cpus):
        st, xs, ps = _fig2b_points(3)
        one = wigner_quadrature(st, xs[0], ps[0])
        assert type(one) is float
        row = wigner_quadrature(st, xs[0], ps)
        grid = wigner_quadrature(st, xs[:, None], ps[None, :])
        assert grid.shape == (3, 3)
        assert row.tobytes() == grid[0].tobytes()
        assert grid[0, 0] == one

    def test_out_of_regime_point_raises_before_any_quadrature(self, cpus, monkeypatch):
        # p = -4e5 needs more than the oracle's panel cap; the first such
        # point by index names the error, as in the per-point loop
        calls = []
        monkeypatch.setattr(oracle_mod, "eval_psi", lambda *a: calls.append(a))
        st = build_psi(SuperoscParams(12, 10.0), 3.0, 0.003)
        with pytest.raises(ValueError, match=r"p=-400000\.0,"):
            wigner_quadrature(st, [0.0, 0.5, 1.0, 1.5], [1.0, -400000.0, 2.0, 500000.0])
        assert calls == []

    def test_lowest_failing_index_is_raised(self, cpus, monkeypatch):
        # batches of at most 1200 samples hold one to three of these points
        # and are taken in index order: points 2 and 5 fail, point 2's batch
        # raises, and no later batch is evaluated
        st, xs, ps = _fig2b_points(8)
        monkeypatch.setattr(oracle_mod, "_BATCH_SAMPLES", 1200)
        batches = []

        def failing(state, y):
            # a lattice's middle sample is its point's x
            batches.append([k for k in range(xs.size) if xs[k] in y])
            if {2, 5} & set(batches[-1]):
                raise ArithmeticError(f"point {min({2, 5} & set(batches[-1]))}")
            return eval_psi(state, y)

        monkeypatch.setattr(oracle_mod, "eval_psi", failing)
        with pytest.raises(ArithmeticError, match="point 2"):
            wigner_quadrature(st, xs, ps)
        assert len(batches) > 1
        assert sum(batches, []) == list(range(batches[-1][-1] + 1))
        assert 5 not in batches[-1]


class TestQuadratureMemory:
    def test_fig2b_largest_p_peak_below_100kb(self):
        # validate draws p from +-3.5 hbar/xi; at the edge the rule takes its
        # most samples, 1173 here
        st = build_psi(SuperoscParams(12, 10.0), 3.0, 0.25)
        p = 3.5 / st.xi
        assert default_quadrature(st, p).n_points == 1172
        wigner_quadrature_parts(st, 0.3, p)  # warm numpy's caches
        tracemalloc.start()
        try:
            wigner_quadrature_parts(st, 0.3, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 100_000

    def test_200_points_peak_below_500kb(self):
        # psi is taken a batch of at most _BATCH_SAMPLES lattice samples at a
        # time, so the peak does not grow with the number of points; the 200
        # lattices here hold 107,296 samples, and one batch of them all
        # peaked at 7.0 MB
        st, xs, ps = _fig2b_points(200)
        wigner_quadrature(st, xs[:10], ps[:10])  # warm numpy's caches
        tracemalloc.start()
        try:
            wigner_quadrature(st, xs, ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 500_000


class TestNormQuadrature:
    def test_normalized_single_gaussian(self):
        assert abs(norm_quadrature(single_gaussian()) - 1.0) <= 1e-10

    def test_coincident_unit_coefficients_give_four(self):
        # psi = 2 s(x), so the integral is 4 <s|s> = 4
        st = StateSpec(centers=[0.0, 0.0], coeffs=[1.0 + 0j, 1.0 + 0j], xi=1.0)
        assert abs(norm_quadrature(st) - 4.0) <= 1e-10

    def test_fig1_matches_closed_form(self):
        from subzurek.states import norm_squared

        st = build_psi(SuperoscParams(8, 10.0), 3.0, 0.25)
        q = norm_quadrature(st)
        assert abs(q - norm_squared(st)) <= 1e-8 * q
