import math
import os
import subprocess
import sys

import numpy as np
import pytest

import subzurek
from subzurek import cli, oracle, wigner
from subzurek.cli import (
    EXIT_ANALYSIS,
    EXIT_BAD_PARAMS,
    EXIT_OK,
    EXIT_UNDERSAMPLED,
    EXIT_VALIDATION,
    PRESETS,
    build_parser,
    main,
    resolve_scenario,
)


def run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


def exit_code(args, tmp_path, monkeypatch):
    """main's return code, or the code argparse exits with on a bad value."""
    try:
        return run(args, tmp_path, monkeypatch)
    except SystemExit as exc:
        return exc.code


class TestPresetFidelity:
    def test_caption_parameters(self):
        assert PRESETS["fig1"] == dict(
            kind="psi", n=8, alpha=10.0, xi=0.25, delta_x=3.0, hbar=1.0, cross=False
        )
        assert PRESETS["fig2a"] == dict(
            kind="psi", n=4, alpha=6.0, xi=1.0, delta_x=6.0, hbar=1.0, cross=True
        )
        assert PRESETS["fig2b"] == dict(
            kind="psi", n=12, alpha=10.0, xi=0.25, delta_x=3.0, hbar=1.0, cross=True
        )
        assert PRESETS["fig2c"] == dict(
            kind="psi", n=12, alpha=16.0, xi=0.25, delta_x=3.0, hbar=1.0, cross=True
        )
        assert PRESETS["cat"]["delta_x"] == 3.0


class TestCoeffs:
    def test_plane_wave_table(self, tmp_path, monkeypatch):
        assert run(["coeffs", "--n", "4", "--alpha", "1", "--out", "t"], tmp_path, monkeypatch) == EXIT_OK
        lines = (tmp_path / "t_coeffs.csv").read_text().strip().split("\n")
        rows = [l for l in lines if not l.startswith("#") and not l.startswith("j,")]
        c_vals = [float(r.split(",")[1]) for r in rows]
        assert c_vals == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_hand_expanded_n2_alpha3(self, tmp_path, monkeypatch):
        assert run(["coeffs", "--n", "2", "--alpha", "3", "--out", "t"], tmp_path, monkeypatch) == EXIT_OK
        rows = [
            l for l in (tmp_path / "t_coeffs.csv").read_text().strip().split("\n")
            if not l.startswith("#") and not l.startswith("j,")
        ]
        assert [float(r.split(",")[1]) for r in rows] == [4.0, -4.0, 1.0]

    def test_sum_identity_in_footer(self, tmp_path, monkeypatch):
        assert run(["coeffs", "--n", "8", "--alpha", "10", "--out", "t"], tmp_path, monkeypatch) == EXIT_OK
        text = (tmp_path / "t_coeffs.csv").read_text()
        assert "# sum_c = 1 (exact 1)" in text
        assert "# sum_d = 1 (exact 1)" in text

    def test_invalid_parameters_exit_2(self, tmp_path, monkeypatch, capsys):
        assert run(["coeffs", "--n", "7", "--alpha", "2"], tmp_path, monkeypatch) == EXIT_BAD_PARAMS
        assert "error:" in capsys.readouterr().err

    def test_same_out_as_wigner_leaves_both_files(self, tmp_path, monkeypatch):
        args = ["--preset", "fig2a", "--out", "f"]
        small = ["--grid=-4:4:33,-4:4:33", "--allow-undersampled"]
        assert run(["wigner", *args, *small], tmp_path, monkeypatch) == EXIT_OK
        grid = (tmp_path / "f.csv").read_bytes()
        assert run(["coeffs", *args], tmp_path, monkeypatch) == EXIT_OK
        assert (tmp_path / "f.csv").read_bytes() == grid
        assert (tmp_path / "f_coeffs.csv").read_text().startswith("# subzurek coeffs n=4 ")


class TestWigner:
    def test_cat_origin_value_printed(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["wigner", "--preset", "cat", "--delta-x", "3", "--grid=-8:8:257,-8:8:257"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        printed = float(out.split("W(0,0) = ")[1].split()[0])
        # three-term form at the origin: G(0,0)(1 + e^{-9}) up to normalization
        assert printed == pytest.approx(1.0 / math.pi, rel=1e-9)

    def test_grid_csv_export(self, tmp_path, monkeypatch):
        code = run(
            ["wigner", "--preset", "cat", "--grid=-7:7:113,-7:7:257", "--out", "w"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = (tmp_path / "w.csv").read_text().strip().split("\n")
        header_idx = next(i for i, l in enumerate(lines) if l == "x_min,x_max,p_min,p_max,nx,np")
        assert lines[header_idx + 1].split(",") == ["-7", "7", "-7", "7", "113", "257"]
        assert len(lines) - header_idx - 2 == 113

    def test_undersampled_x_axis_of_pure_source_exit_3(self, tmp_path, monkeypatch, capsys):
        # the p axis passes the fringe rule; along x a pure source takes
        # auto_window's 8 samples per width xi, 112 over 14 for the cat
        code = run(
            ["wigner", "--preset", "cat", "--grid=-7:7:33,-7:7:257", "--out", "w"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_UNDERSAMPLED
        assert "33 x-samples but the width rule needs 112" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    def test_undersampled_x_axis_of_pure_source_override(self, tmp_path, monkeypatch):
        code = run(
            ["wigner", "--preset", "cat", "--grid=-7:7:33,-7:7:257", "--allow-undersampled", "--out", "w"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        assert len((tmp_path / "w.csv").read_text().strip().split("\n")) > 33

    def test_fig2a_pgm_four_arms(self, tmp_path, monkeypatch):
        code = run(
            ["wigner", "--preset", "fig2a", "--format", "pgm", "--map", "signed",
             "--grid=-15:15:121,-15:15:121", "--allow-undersampled", "--out", "arms"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        blob = (tmp_path / "arms.pgm").read_bytes()
        head, body = blob.split(b"65535\n", 1)
        pix = np.frombuffer(body, dtype=">u2").reshape(121, 121).astype(float)
        mid = (pix - 32768.0) / 32768.0  # signed map recentred
        # structure along both axes at +-6 and +-12 stands far above the
        # off-axis background (signs alternate: midpoint interference between
        # components 0 and 2 dominates at +-6 and is negative at p = 0)
        i0 = 60
        spots = []
        for r in (6.0, 12.0):
            i = round((r + 15) / 30 * 120)
            spots += [mid[i, i0], mid[120 - i, i0], mid[i0, i], mid[i0, 120 - i]]
        background = [mid[90, 90], mid[30, 90], mid[90, 30], mid[30, 30]]
        assert min(abs(s) for s in spots) > 0.02
        assert min(abs(s) for s in spots) > 10 * max(abs(b) for b in background)
        assert mid[108, 60] > 0.0 > mid[84, 60]  # outer blob vs midpoint patch

    def test_logabs_cut_covers_panel_width(self, tmp_path, monkeypatch):
        code = run(
            ["wigner", "--preset", "fig1", "--cut", "p", "--map", "logabs", "--out", "prof"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = (tmp_path / "prof_cut.csv").read_text().strip().split("\n")
        data = [l for l in lines if not l.startswith("#") and not l.startswith("p,")]
        coords = np.array([float(l.split(",")[0]) for l in data])
        width = coords[-1] - coords[0]
        assert width == pytest.approx(2 * math.pi / 24.0, rel=1e-6)  # h/L
        vals = np.array([float(l.split(",")[1]) for l in data])
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("axis", ["x", "p"])
    @pytest.mark.parametrize("source", ["pure", "cross"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_full_cut_spans_the_default_window(self, preset, source, axis, tmp_path, monkeypatch):
        # a full cut spans suggested_window on its own axis, six Gaussian
        # widths past every spot, so W has fallen to roundoff at both ends
        argv = ["wigner", "--preset", preset, "--source", source, "--cut", axis, "--map", "signed", "--out", "c"]
        assert run(argv, tmp_path, monkeypatch) == EXIT_OK
        lines = [l for l in (tmp_path / "c_cut.csv").read_text().splitlines() if not l.startswith("#")]
        rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        args = build_parser().parse_args(argv)
        window = wigner.suggested_window(resolve_scenario(args).build_source(args.source))
        bounds = (window.x_min, window.x_max) if axis == "x" else (window.p_min, window.p_max)
        assert (rows[0, 0], rows[-1, 0]) == bounds
        w = np.abs(rows[:, 1])
        assert max(w[0], w[-1]) <= 1e-12 * w.max()

    def test_undersampled_grid_exit_3(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["wigner", "--preset", "fig1", "--grid=-1:1:32,-1:1:32"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_UNDERSAMPLED
        assert "--allow-undersampled" in capsys.readouterr().err

    def test_undersampled_x_axis_of_mixture_exit_3(self, tmp_path, monkeypatch, capsys):
        # the p axis passes the fringe rule, but the quarter-turned arm of the
        # cross mixture fringes along x too
        code = run(
            ["wigner", "--preset", "fig2b", "--grid=-16:16:17,-4:4:8000"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_UNDERSAMPLED
        assert "17 x-samples" in capsys.readouterr().err
        assert not (tmp_path / "fig2b.csv").exists()

    def test_undersampled_override(self, tmp_path, monkeypatch):
        code = run(
            ["wigner", "--preset", "fig1", "--grid=-1:1:32,-1:1:32",
             "--allow-undersampled", "--out", "u"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        assert (tmp_path / "u.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        args = ["wigner", "--preset", "fig2b", "--grid=-5:5:129,-5:5:129",
                "--allow-undersampled", "--format", "both"]
        run(args + ["--out", "a"], tmp_path, monkeypatch)
        run(args + ["--out", "b"], tmp_path, monkeypatch)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


class TestAnalyze:
    def test_fig2b_scales(self, tmp_path, monkeypatch, capsys):
        assert run(["analyze", "--preset", "fig2b", "--out", "r"], tmp_path, monkeypatch) == EXIT_OK
        out = capsys.readouterr().out
        alpha_est = float(out.split("alpha_est = ")[1].split()[0])
        assert abs(alpha_est - 10.0) <= 1.5
        text = (tmp_path / "r_report.txt").read_text()
        a_z = float([l for l in text.splitlines() if l.startswith("a_Z")][0].split("=")[1])
        a_so = float([l for l in text.splitlines() if l.startswith("a_SO_est")][0].split("=")[1])
        assert a_so == pytest.approx(a_z / 100.0, rel=0.35)

    def test_fig2c_recovers_alpha_sixteen(self, tmp_path, monkeypatch, capsys):
        assert run(["analyze", "--preset", "fig2c", "--out", "r"], tmp_path, monkeypatch) == EXIT_OK
        out = capsys.readouterr().out
        alpha_est = float(out.split("alpha_est = ")[1].split()[0])
        assert abs(alpha_est - 16.0) <= 0.15 * 16.0

    def test_cat_skips_overspill(self, tmp_path, monkeypatch, capsys):
        assert run(["analyze", "--preset", "cat"], tmp_path, monkeypatch) == EXIT_OK
        out = capsys.readouterr().out
        assert "skipped" in out
        alpha_est = float(out.split("alpha_est = ")[1].split()[0])
        assert abs(alpha_est - 1.0) <= 0.05

    @staticmethod
    def report_fields(path):
        return dict(line.split(" = ", 1) for line in path.read_text().splitlines()
                    if not line.startswith("#"))

    def test_cat_report_writes_nan_overspill(self, tmp_path, monkeypatch):
        assert run(["analyze", "--preset", "cat", "--out", "c"], tmp_path, monkeypatch) == EXIT_OK
        fields = self.report_fields(tmp_path / "c_report.txt")
        assert [fields[k] for k in ("overspill_lhs", "overspill_rhs", "overspill_ratio")] == ["nan"] * 3

    def test_fig1_report_ratio_is_the_printed_ratio(self, tmp_path, monkeypatch, capsys):
        assert run(["analyze", "--preset", "fig1", "--out", "f"], tmp_path, monkeypatch) == EXIT_OK
        printed = capsys.readouterr().out.split("overspill ratio = ")[1].split()[0]
        fields = self.report_fields(tmp_path / "f_report.txt")
        spill = subzurek.overspill_check(subzurek.build_psi(subzurek.SuperoscParams(8, 10.0), 3.0, 0.25))
        assert float(fields["overspill_ratio"]) == spill.ratio
        assert f"{spill.ratio:.6g}" == printed
        assert float(fields["overspill_lhs"]) == spill.lhs and float(fields["overspill_rhs"]) == spill.rhs

    def test_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        # a single Gaussian has no central crossings to analyze
        code = run(
            ["analyze", "--preset", "cat", "--delta-x", "1e-6"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_ANALYSIS
        assert "analysis failed" in capsys.readouterr().err


class TestNonFiniteGeometry:
    # a comb's j = 0 center is 0 * inf = nan; a cat's centers are +-inf
    @pytest.mark.parametrize("command", [["analyze"], ["validate"], ["wigner", "--cut", "p"]],
                             ids=["analyze", "validate", "wigner-cut"])
    @pytest.mark.parametrize("scenario", [
        ["--n", "4", "--alpha", "2", "--xi", "0.25"], ["--preset", "cat"],
    ], ids=["comb", "cat"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_spacing_exits_2(self, command, scenario, value, tmp_path, monkeypatch, capsys):
        code = run(command + scenario + [f"--delta-x={value}", "--out", "o"], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    # a cat of zero spacing divided by its zero extent; a negative one was
    # analyzed and validated as if it were positive
    @pytest.mark.parametrize("command", ["analyze", "validate", "sensitivity", "wigner"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_cat_spacing_exits_2(self, command, value, tmp_path, monkeypatch, capsys):
        code = run([command, "--preset", "cat", f"--delta-x={value}", "--out", "o"], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        assert "delta_x must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # a window or width that float64 cannot square: these printed NaN
    # grids, or raised an overflow from the oracle or the sampler
    @pytest.mark.parametrize("argv", [
        "wigner --preset cat --xi 1e200",
        "wigner --preset cat --xi 1e-200",
        "validate --preset cat --xi 1e200",
        "validate --n 20 --alpha 2 --xi 0.25 --delta-x 1e307",
        "wigner --preset fig1 --delta-x 1e307",
        "wigner --preset fig1 --hbar 1e300",
        "analyze --preset fig1 --xi 1e200",
        "sensitivity --preset cat --xi 1e200",
        "validate --n 4 --alpha 2 --xi 1e300 --delta-x 3",
    ])
    def test_geometry_beyond_float64_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        code = run(argv.split() + ["--out", "o"], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        assert "geometry outside float64's range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    # finite grid bounds whose width float64 cannot hold: the first wrote
    # NaN rows with exit 0, the others raised an OverflowError from the
    # fringe rule
    @pytest.mark.parametrize("argv", [
        "wigner --preset fig1 --grid=-1e308:1e308:3,-1:1:30000",
        "wigner --preset fig1 --grid=-1:1:3,-1e308:1e308:3",
        "wigner --preset fig2b --grid=-1e308:1e308:3,-1:1:3 --allow-undersampled",
    ])
    def test_grid_width_beyond_float64_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        code = run(argv.split() + ["--format", "both", "--out", "o"], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        assert "grid window outside float64's range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestValidate:
    def test_fig1_gates_pass(self, tmp_path, monkeypatch, capsys):
        assert run(["validate", "--preset", "fig1", "--points", "8"], tmp_path, monkeypatch) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_cat_gates_pass(self, tmp_path, monkeypatch):
        assert run(["validate", "--preset", "cat", "--points", "8"], tmp_path, monkeypatch) == EXIT_OK

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_exit_2(self, points, tmp_path, monkeypatch, capsys):
        code = run(["validate", "--preset", "cat", f"--points={points}"], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        captured = capsys.readouterr()
        assert "--points" in captured.err
        assert "all gates pass" not in captured.out

    def test_default_points_is_24(self, tmp_path, monkeypatch, capsys):
        assert run(["validate", "--preset", "cat"], tmp_path, monkeypatch) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[:2] == _per_point_gate_lines("cat", 24)

    def test_builds_no_grid(self, tmp_path, monkeypatch, capsys):
        calls = []
        eval_grid = wigner.eval_grid

        def counting(*args):
            calls.append(args)
            return eval_grid(*args)

        monkeypatch.setattr(wigner, "eval_grid", counting)
        assert run(["validate", "--preset", "fig2b", "--points", "4"], tmp_path, monkeypatch) == EXIT_OK
        assert calls == []
        assert "all gates pass" in capsys.readouterr().out

    def test_marginal_off_by_1e9_exits_5(self, tmp_path, monkeypatch, capsys):
        marginal_x = wigner.marginal_x
        monkeypatch.setattr(wigner, "marginal_x", lambda source, xs: marginal_x(source, xs) + 1e-9)
        code = run(["validate", "--preset", "fig2b", "--points", "4"], tmp_path, monkeypatch)
        assert code == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL  marginal vs |psi|^2" in out and "all gates pass" not in out

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs a process that may use two CPUs")
    def test_stdout_same_on_one_cpu_and_unpinned(self):
        # a multi-threaded BLAS sums in an order that follows the CPUs the
        # process may use, so no printed value may come from it; each child
        # pins itself before numpy loads, and OPENBLAS_NUM_THREADS is unset
        src = os.path.dirname(os.path.dirname(os.path.abspath(subzurek.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        code = ("import os, sys\n"
                "if sys.argv[1]: os.sched_setaffinity(0, {int(sys.argv[1])})\n"
                "from subzurek.cli import main\n"
                "raise SystemExit(main(['validate', '--preset', 'fig1']))\n")
        pinned, unpinned = (
            subprocess.run([sys.executable, "-c", code, cpu], env=env, capture_output=True,
                           text=True, check=True).stdout
            for cpu in (str(min(os.sched_getaffinity(0))), "")
        )
        assert "all gates pass" in unpinned
        assert pinned == unpinned

    def test_out_of_regime_point_exits_2_before_any_quadrature(self, tmp_path, monkeypatch, capsys):
        # at xi = 0.003 and delta_x = 160 the oracle's panel cap excludes
        # some drawn points; the first of them by index is named, and no psi
        # is evaluated first
        calls = []
        monkeypatch.setattr(oracle, "eval_psi", lambda *a: calls.append(a))
        code = run(["validate", "--n", "12", "--alpha", "10", "--xi", "0.003", "--delta-x", "160"],
                   tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert "demands 4268998 panels (p=-844.1681735943207, window=955.0042158846821)" in err
        assert calls == []


def _per_point_gate_lines(preset, n_points):
    """The first two validate gates from the point-at-a-time loop."""
    args = build_parser().parse_args(["validate", "--preset", preset])
    scenario = resolve_scenario(args)
    state = scenario.build_state()
    hbar, xi = scenario.constants.hbar, scenario.xi
    half = float(np.max(np.abs(state.centers)))
    rng = np.random.default_rng(20260808)
    worst = worst_im = 0.0
    for _ in range(n_points):
        x = float(rng.uniform(-half - 2 * xi, half + 2 * xi))
        p = float(rng.uniform(-3.5 * hbar / xi, 3.5 * hbar / xi))
        worst = max(worst, abs(wigner.eval_wigner(state, x, p) - oracle.wigner_quadrature(state, x, p)))
        full = wigner._pair_sum_complex(state, x, p)
        worst_im = max(worst_im, abs(full.imag) / max(1.0, abs(full.real)))
    gates = (("closed-form vs quadrature (abs)", worst, 1e-8),
             ("pair-sum imaginary residue (rel)", worst_im, 1e-12))
    return [f"PASS  {name:<42} {value:.3e} (tol {tol:.1e})" for name, value, tol in gates]


class TestValidateBatched:
    @pytest.mark.parametrize("preset", ["fig1", "fig2a", "cat"])
    def test_gate_lines_match_per_point_loop(self, preset, tmp_path, monkeypatch, capsys):
        assert run(["validate", "--preset", preset, "--points", "12"], tmp_path, monkeypatch) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == _per_point_gate_lines(preset, 12)


class TestSensitivity:
    def test_cat_scan_writes_profile(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["sensitivity", "--preset", "cat", "--direction", "p",
             "--max-delta", "2.0", "--steps", "81", "--out", "s"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        scale = float(out.split("scale = ")[1].split()[0])
        assert 0.5 < scale < 2.0
        lines = (tmp_path / "s_sensitivity.csv").read_text().strip().split("\n")
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "delta,overlap"
        first = data[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    def test_defaults_reach_and_steps(self, tmp_path, monkeypatch):
        # xi = 0.5 puts the default reach 2.5 * max(xi, hbar/xi) at 5
        code = run(["sensitivity", "--preset", "cat", "--xi", "0.5", "--out", "s"],
                   tmp_path, monkeypatch)
        assert code == EXIT_OK
        lines = (tmp_path / "s_sensitivity.csv").read_text().strip().split("\n")
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 161
        assert float(data[-1].split(",")[0]) == 5.0

    @pytest.mark.parametrize("key, value", [
        ("max_delta", "-1"), ("max_delta", "0"), ("max_delta", "inf"), ("steps", "0"),
        # rejected by the parser itself: type and choices
        ("max_delta", "wide"), ("steps", "many"), ("direction", "up"), ("source", "both"),
        ("preset", "nope"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_scan_input_exits_2(self, key, value, via, tmp_path, monkeypatch, capsys):
        if via == "flag":
            extra = [f"--{key.replace('_', '-')}={value}"]
        else:
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(f"{key} = {value}\n")
            extra = ["--config", str(cfg)]
        code = exit_code(["sensitivity", "--preset", "cat", "--out", "s"] + extra, tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert key.split("_")[-1] in err
        assert "Traceback" not in err
        assert not (tmp_path / "s_sensitivity.csv").exists()

    @pytest.mark.parametrize("args, source", [
        # a custom scenario has no cross default, fig2a's default is the cross
        (["--n", "4", "--alpha", "6", "--xi", "1", "--delta-x", "6", "--source", "cross"], "cross"),
        (["--preset", "fig2a", "--source", "pure"], "pure"),
    ])
    def test_header_names_the_scanned_source(self, args, source, tmp_path, monkeypatch):
        code = run(["sensitivity"] + args + ["--direction", "x", "--steps", "9", "--out", "s"],
                   tmp_path, monkeypatch)
        assert code == EXIT_OK
        header = (tmp_path / "s_sensitivity.csv").read_text().split("\n")[0]
        assert f" source={source} direction=x half_overlap_displacement=" in header


SENSITIVITY = ["sensitivity", "--preset", "cat", "--out", "s"]
WIGNER = ["wigner", "--preset", "cat", "--out", "w"]
WIGNER_GRID = WIGNER + ["--grid=-7:7:113,-7:7:257"]
UNDERSAMPLED = ["wigner", "--preset", "fig1", "--grid=-1:1:32,-1:1:32", "--out", "w"]


class TestConfigFile:
    def test_precedence_flags_over_config_over_preset(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = cat\ndelta_x = 5.0\n")
        # flag overrides config's delta_x; config supplies the preset
        code = run(
            ["analyze", "--config", str(cfg), "--delta-x", "4.0", "--out", "c"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        text = (tmp_path / "c_report.txt").read_text()
        L = float([l for l in text.splitlines() if l.startswith("L =")][0].split("=")[1])
        assert L == 8.0  # 2 * delta_x from the flag, not the config

    def test_unknown_key_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("flux_capacitor = 1\n")
        code = run(["analyze", "--config", str(cfg), "--preset", "cat"], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS

    def test_missing_parameters_exit_2(self, tmp_path, monkeypatch):
        assert run(["wigner", "--n", "8"], tmp_path, monkeypatch) == EXIT_BAD_PARAMS

    # (argv without the key, key, value, another value for the override)
    CASES = [
        (SENSITIVITY, "source", "cross", "pure"),
        (SENSITIVITY, "direction", "x", "diag"),
        (SENSITIVITY, "steps", "41", "21"),
        (SENSITIVITY, "max_delta", "2", "3"),
        (WIGNER_GRID, "format", "pgm", "both"),
        (WIGNER_GRID + ["--format", "pgm"], "map", "logabs", "linear"),
        (WIGNER_GRID + ["--format", "pgm"], "bits", "8", "16"),
        (WIGNER, "cut", "p", "x"),
        (WIGNER, "grid", "-7:7:113,-7:7:257", "-6:6:97,-6:6:257"),
        (["validate", "--preset", "cat"], "points", "3", "2"),
    ]

    @staticmethod
    def _flag(key, value):
        flag = f"--{key.replace('_', '-')}"
        return [flag if value == "true" else f"{flag}={value}"]

    @staticmethod
    def _outputs(args, workdir, monkeypatch, capsys):
        workdir.mkdir()
        assert run(args, workdir, monkeypatch) == EXIT_OK
        return {p.name: p.read_bytes() for p in workdir.iterdir()}, capsys.readouterr().out

    @pytest.mark.parametrize("base, key, value, other", CASES + [
        (UNDERSAMPLED, "allow_undersampled", "true", None),
    ], ids=[case[1] for case in CASES] + ["allow_undersampled"])
    def test_config_value_matches_flag(self, base, key, value, other, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        by_flag = self._outputs(base + self._flag(key, value), tmp_path / "flag", monkeypatch, capsys)
        by_config = self._outputs(base + ["--config", str(cfg)], tmp_path / "config", monkeypatch, capsys)
        assert by_config == by_flag

    @pytest.mark.parametrize("base, key, value, other", CASES + [
        (UNDERSAMPLED, "allow_undersampled", "false", "true"),
    ], ids=[case[1] for case in CASES] + ["allow_undersampled"])
    def test_flag_overrides_config(self, base, key, value, other, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flag = self._flag(key, other)
        by_flag = self._outputs(base + flag, tmp_path / "flag", monkeypatch, capsys)
        both = self._outputs(base + ["--config", str(cfg)] + flag, tmp_path / "both", monkeypatch, capsys)
        assert both == by_flag

    @pytest.mark.parametrize("line", [
        "preset = nope", "format = xyz", "map = log", "bits = 12", "allow_undersampled = maybe",
        "grid", "= 3",
    ])
    def test_bad_wigner_config_exits_2(self, line, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = exit_code(WIGNER_GRID + ["--config", str(cfg)], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_nested_config_exits_2(self, key, tmp_path, monkeypatch, capsys):
        # argparse's prefix matching reads `conf` as --config as well
        (tmp_path / "inner.cfg").write_text("direction = x\n")
        cfg = tmp_path / "outer.cfg"
        cfg.write_text(f"steps = 5\n{key} = inner.cfg\n")
        code = exit_code(SENSITIVITY + ["--config", str(cfg)], tmp_path, monkeypatch)
        assert code == EXIT_BAD_PARAMS
        assert "another config file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inner.cfg", "outer.cfg"]

    def test_negative_grid_from_config_reaches_fringe_gate(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = fig2b\ngrid = -16:16:17,-4:4:8000\n")
        code = run(["wigner", "--config", str(cfg), "--out", "w"], tmp_path, monkeypatch)
        assert code == EXIT_UNDERSAMPLED
        assert "17 x-samples" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()


def test_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("direction = x\n")
    nested = tmp_path / "nested.cfg"
    nested.write_text(f"config = {cfg}\n")
    calls = [
        (SENSITIVITY + ["--steps=many"], EXIT_BAD_PARAMS),
        (SENSITIVITY + ["--config", str(cfg)], EXIT_OK),
        (SENSITIVITY + ["--config", str(nested)], EXIT_BAD_PARAMS),
        (UNDERSAMPLED + ["--allow-undersampled"], EXIT_OK),
        (UNDERSAMPLED, EXIT_UNDERSAMPLED),
        (["validate", "--preset", "cat", "--points", "3"], EXIT_OK),
        (["validate", "--preset", "cat"], EXIT_OK),
    ]

    def outcome(argv, workdir):
        workdir.mkdir()
        code = exit_code(argv, workdir, monkeypatch)
        out, err = capsys.readouterr()
        return code, out, err, {p.name: p.read_bytes() for p in workdir.iterdir()}

    builds = []

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    reused = [outcome(argv, tmp_path / f"reused{i}") for i, (argv, _) in enumerate(calls)]
    assert len(builds) == 1
    assert [r[0] for r in reused] == [code for _, code in calls]
    for i, (argv, _) in enumerate(calls):
        cli._parser.cache_clear()
        assert outcome(argv, tmp_path / f"fresh{i}") == reused[i]


def test_cli_import_loads_neither_mpmath_nor_a_thread_pool():
    # mpmath loads only in eval_f_fourier; the CSV helper is a bare thread
    src = os.path.dirname(os.path.dirname(os.path.abspath(subzurek.__file__)))
    code = "import sys, subzurek.cli; print(sorted({'mpmath', 'concurrent.futures'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
