"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is pinned here and matches the package's
documented guarantees.
"""

import math

import numpy as np
import pytest

from subzurek.analysis import (
    central_cut_crossings,
    displacement_sensitivity,
    last_half_crossing,
    overlap_decay_scan,
    overspill_check,
    superosc_scale,
    zurek_scale,
)
from subzurek.cli import main
from subzurek.oracle import wigner_quadrature
from subzurek.states import (
    PhysicalConstants,
    StateSpec,
    build_cat,
    build_psi,
    eval_psi,
    norm_squared,
)
from subzurek.superosc import SuperoscParams, eval_f_direct, eval_f_fourier, fourier_coeffs
from subzurek.wigner import (
    GridWindow,
    _pair_sum_complex,
    cross_state,
    eval_grid,
    eval_wigner,
    integration_samples,
    marginal_x,
    overlap,
    suggested_window,
    total_integral,
)

CONST = PhysicalConstants()
SEED = 20260808

PRESET_STATES = {
    "fig1": (8, 10.0, 0.25, 3.0),
    "fig2a": (4, 6.0, 1.0, 6.0),
    "fig2b": (12, 10.0, 0.25, 3.0),
    "fig2c": (12, 16.0, 0.25, 3.0),
}


def build_preset(name):
    if name == "cat":
        return build_cat(3.0, 1.0, CONST)
    n, alpha, xi, dx = PRESET_STATES[name]
    return build_psi(SuperoscParams(n, alpha), dx, xi, CONST)


def preset_extent(name):
    if name == "cat":
        return 6.0
    n, _, _, dx = PRESET_STATES[name]
    return n * dx


def integration_window(source, L, squared=False):
    base = suggested_window(source)
    rate = (2.0 * L if squared else L) / CONST.hbar
    if isinstance(source, StateSpec):
        xi = source.xi
        x_env = xi / math.sqrt(2) if squared else xi
        p_env = CONST.hbar / xi / (math.sqrt(2) if squared else 1.0)
        x_rate = 0.0
    else:
        xi = source.terms[0].state.xi
        w = min(xi, CONST.hbar / xi) / (math.sqrt(2) if squared else 1.0)
        x_env = p_env = w
        x_rate = rate
    nx = integration_samples(base.x_max - base.x_min, x_rate, x_env)
    npts = integration_samples(base.p_max - base.p_min, rate, p_env)
    return GridWindow(base.x_min, base.x_max, base.p_min, base.p_max, nx, npts)


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


def test_criterion_1_oracle_equivalence():
    """Closed-form W agrees with direct quadrature at 50 seeded points/preset."""
    rng = np.random.default_rng(SEED)
    worst_by_preset = {}
    for name in ("fig1", "fig2a", "fig2b", "cat"):
        state = build_preset(name)
        xi = state.xi
        half = float(np.max(np.abs(state.centers)))
        worst = 0.0
        for _ in range(50):
            x = float(rng.uniform(-half - 2 * xi, half + 2 * xi))
            p = float(rng.uniform(-3.5 / xi, 3.5 / xi))
            dev = abs(eval_wigner(state, x, p) - wigner_quadrature(state, x, p))
            worst = max(worst, dev)
        worst_by_preset[name] = worst
        assert worst <= 1e-8, f"{name}: oracle deviation {worst:.3e}"
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst_by_preset.items())
    report(1, f"max |closed - quadrature| per preset: {detail} (tol 1e-8)")


def test_criterion_2_cat_state_formula():
    """Two-component pair sum reproduces the printed three-term cat form."""
    dx, xi = 3.0, 1.0
    cat_raw = build_cat(dx, xi, CONST, normalize=False)  # weights 1/sqrt2: printed form
    xs = np.linspace(-6.5, 6.5, 32)
    ps = np.linspace(-4.0, 4.0, 32)
    X, P = np.meshgrid(xs, ps, indexing="ij")
    spot = lambda xc: np.exp(-((X - xc) ** 2) / xi**2 - P**2 * xi**2) / math.pi
    printed = 0.5 * (spot(dx) + spot(-dx)) + spot(0.0) * np.cos(2 * P * dx)
    got = eval_wigner(cat_raw, X, P)
    dev = float(np.max(np.abs(got - printed)))
    assert got.size >= 1000
    assert dev <= 1e-12
    report(2, f"max deviation from printed cat form on {got.size} lattice points: {dev:.2e} (tol 1e-12)")


def test_criterion_3_coefficient_identities():
    """Sum identities and representation equivalence over the (n, alpha) sweep."""
    rng = np.random.default_rng(SEED + 1)
    worst_rel = 0.0
    for n in range(2, 34, 2):
        for alpha in (1.0, 2.0, 6.0, 10.0, 16.0):
            params = SuperoscParams(n, alpha)
            table = fourier_coeffs(params)
            assert abs(table.c_sum_exact() - 1) <= 1e-12
            assert abs(table.d_sum_exact() - 1) <= 1e-12
            for x in rng.uniform(-math.pi, math.pi, 100):
                d = eval_f_direct(params, float(x))
                f = eval_f_fourier(table, float(x))
                rel = abs(d - f) / max(1.0, abs(d))
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-9
    report(3, f"sum identities exact for n in 2..32, alpha in {{1,2,6,10,16}}; "
              f"worst direct-vs-fourier residual {worst_rel:.2e} (tol 1e-9)")


def test_criterion_4_superoscillation_factor_recovery():
    """fig1 central crossing spacing recovers alpha = 10 within 15%."""
    state = build_preset("fig1")
    L = preset_extent("fig1")
    panel = CONST.h / L  # the figure panel width
    crossings = central_cut_crossings(state, "p", panel, 8001)
    rep = superosc_scale(crossings, L, L, CONST)
    assert abs(rep.alpha_est - 10.0) <= 1.5
    # the bracketed superoscillatory region of length (h/L)/10 spans the
    # central crossing pair
    assert min(rep.crossing_spacings) <= panel / 10.0
    report(4, f"fig1 alpha_est = {rep.alpha_est:.3f} (target 10 +- 15%), "
              f"min spacing {min(rep.crossing_spacings):.5f} inside (h/L)/10 = {panel / 10:.5f}")


def test_criterion_5_sub_zurek_scaling():
    """a_SO ratio between alpha = 10 and alpha = 16 presets shows 1/alpha^2."""
    reports = {}
    for name in ("fig2b", "fig2c"):
        state = build_preset(name)
        L = preset_extent(name)
        crossings = central_cut_crossings(state, "p", CONST.h / L, 8001)
        reports[name] = superosc_scale(crossings, L, L, CONST)
    ratio = reports["fig2c"].a_SO_est / reports["fig2b"].a_SO_est
    target = (10.0 / 16.0) ** 2
    assert abs(ratio - target) <= 0.2 * target
    report(5, f"a_SO(fig2c)/a_SO(fig2b) = {ratio:.4f} vs (10/16)^2 = {target:.4f} (tol 20%)")


def test_criterion_6_overspill_condition():
    """fig1 satisfies the visibility condition; xi = 3 violates it and warns."""
    ok = overspill_check(build_preset("fig1"))
    assert ok.satisfied and ok.ratio < 1e-3
    wide_state = build_psi(SuperoscParams(8, 10.0), 3.0, 3.0, CONST)
    with pytest.warns(UserWarning, match="overspill"):
        bad = overspill_check(wide_state)
    assert not bad.satisfied and bad.ratio > 0.1
    report(6, f"fig1 ratio {ok.ratio:.2e} < 1e-3; xi=3 ratio {bad.ratio:.2f} > 0.1 with warning")


def test_criterion_7_wigner_axioms():
    """Normalization, marginal identity, magnitude bound, purity per preset."""
    bound = 1 / (math.pi * CONST.hbar) + 1e-9
    details = []
    for name in ("fig1", "fig2a", "fig2b", "fig2c", "cat"):
        state = build_preset(name)
        L = preset_extent(name)
        grid = eval_grid(state, integration_window(state, L))
        total = total_integral(state)
        assert abs(total - 1.0) <= 1e-12, f"{name}: integral {total}"
        marg = marginal_x(state, grid.window.x_coords())
        dens = np.abs(eval_psi(state, grid.window.x_coords())) ** 2
        marg_dev = float(np.max(np.abs(marg - dens)))
        assert marg_dev <= 1e-12, f"{name}: marginal deviation {marg_dev:.3e}"
        assert float(np.max(np.abs(grid.values))) <= bound, f"{name}: bound violated"
        sq = eval_grid(state, integration_window(state, L, squared=True))
        pur = overlap(sq, sq, CONST)
        assert abs(pur - 1.0) <= 1e-4, f"{name}: purity {pur}"
        details.append(f"{name} ok")
    # mixedness: the balanced cross mixture loses purity
    mix = cross_state(build_preset("fig2a"))
    win = integration_window(mix, preset_extent("fig2a"), squared=True)
    gm = eval_grid(mix, win)
    gp = eval_grid(build_preset("fig2a"), win)
    mixed = overlap(gm, gm, CONST)
    pure = overlap(gp, gp, CONST)
    assert mixed < pure
    report(7, f"integral/marginal/bound/purity pass for {', '.join(details)}; "
              f"cross purity {mixed:.4f} < pure purity {pure:.4f}")


def test_criterion_8_no_sensitivity_gain():
    """Half-overlap displacement of the fig2a cross matches the compass baseline."""
    L = preset_extent("fig2a")
    scales = {}
    for label, source in (
        ("cross", cross_state(build_preset("fig2a"))),
        ("compass", cross_state(build_cat(L / 2, 1.0, CONST))),
    ):
        ts, ov = overlap_decay_scan(source, (0.0, 1.0), 2.5, steps=201)
        scales[label] = last_half_crossing(ts, ov)
    ratio = scales["cross"] / scales["compass"]
    assert abs(ratio - 1.0) <= 0.25
    alpha = 6.0
    assert ratio > 1.0 / alpha + 0.25  # nowhere near an alpha-fold gain
    report(8, f"half-overlap scale: cross {scales['cross']:.4f} vs compass "
              f"{scales['compass']:.4f} (ratio {ratio:.3f}, tol 25%; no {alpha:.0f}-fold gain)")


def test_criterion_8_curvature_is_position_variance():
    """For a pure state shifted along p, O(d) = 1 - d^2 Var(x)/hbar^2 + O(d^4):
    Var(x)/hbar^2 is a quarter of the quantum Fisher information of the shift
    (Braunstein & Caves, PRL 72, 3439 (1994)), and it does not grow with alpha."""
    d = 1e-3
    x = np.linspace(-24.0, 24.0, 24001)
    variances = {}
    for alpha in (1.0, 10.0, 16.0):
        state = build_psi(SuperoscParams(12, alpha), 3.0, 0.25, CONST)
        dens = np.abs(eval_psi(state, x)) ** 2
        norm = np.trapezoid(dens, x)
        mean = np.trapezoid(x * dens, x) / norm
        var = np.trapezoid((x - mean) ** 2 * dens, x) / norm
        curvature = (1.0 - displacement_sensitivity(state, 0.0, d)) / d**2
        assert curvature == pytest.approx(var / CONST.hbar**2, rel=1e-3), f"alpha {alpha}"
        variances[alpha] = var
    assert variances[16.0] < variances[1.0]
    report(8, "curvature of O(d) along p = Var(x)/hbar^2 to 1e-3; Var(x) "
              + ", ".join(f"{v:.2f} at alpha {a:.0f}" for a, v in variances.items()))


def test_criterion_9_determinism_and_fast_path(tmp_path, monkeypatch):
    """Factored grid == full complex pair sum on 257x257; CLI reruns byte-identical."""
    source = cross_state(build_preset("fig2b"))
    window = GridWindow(-16.0, 16.0, -16.0, 16.0, 257, 257)
    fast = eval_grid(source, window)
    # the full ordered-pair sum shares no code with the factored core; the
    # cross mixture is half the state plus half its quarter-turn W(-p, x)
    X, P = np.meshgrid(window.x_coords(), window.p_coords(), indexing="ij")
    state = source.terms[0].state
    naive = 0.5 * (_pair_sum_complex(state, X, P).real + _pair_sum_complex(state, -P, X).real)
    dev = float(np.max(np.abs(fast.values - naive)))
    assert dev <= 1e-12

    monkeypatch.chdir(tmp_path)
    args = ["wigner", "--preset", "fig2b", "--grid=-4:4:257,-4:4:257",
            "--allow-undersampled", "--format", "both"]
    assert main(args + ["--out", "run1"]) == 0
    assert main(args + ["--out", "run2"]) == 0
    csv_same = (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()
    pgm_same = (tmp_path / "run1.pgm").read_bytes() == (tmp_path / "run2.pgm").read_bytes()
    assert csv_same and pgm_same
    report(9, f"factored-vs-pair-sum max dev {dev:.2e} on 257x257 (tol 1e-12); "
              f"CLI reruns byte-identical (csv={csv_same}, pgm={pgm_same})")
