"""Command-line front end: presets, grid export, analysis, validation.

Subcommands
-----------
coeffs       write the Fourier/derived coefficient table as CSV
wigner       evaluate W on a grid or central cut and export CSV/PGM
analyze      measure structure scales (analysis.analyze) and write a report
validate     run the oracle gates of analysis.validate_gates, exit 5 on failure
sensitivity  scan overlap decay under phase-space displacement

Configuration is resolved as: explicit flags > config file > preset
defaults.  A config file (--config) holds flat `key = value` lines, and each
key is a flag name written with `_` or `-`.  A line is read as the flag
--key=value, so its value is checked exactly as the flag's would be: type,
choices, and argparse's prefix matching of flag names.  allow_undersampled
takes true or false; a config file cannot name another one.  The resolved
configuration is echoed into every output header.  All file writes are
atomic (a temp file put in place when complete) and byte-deterministic.

Exit codes: 0 ok, 2 invalid parameters, 3 undersampled grid forced without
--allow-undersampled, 4 analysis failure, 5 validation gate failure.

main builds its parser once per process, on its first call, and reuses it;
build_parser returns a new one on every call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, export, states, wigner
from .states import PhysicalConstants, StateSpec
from .superosc import SuperoscParams, fourier_coeffs
from .wigner import GridWindow, MixtureSpec

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_UNDERSAMPLED = 3
EXIT_ANALYSIS = 4
EXIT_VALIDATION = 5

SAMPLES_PER_FRINGE = 8
MAX_AUTO_SAMPLES = 1536

PRESETS: dict[str, dict] = {
    "fig1": dict(kind="psi", n=8, alpha=10.0, xi=0.25, delta_x=3.0, hbar=1.0, cross=False),
    "fig2a": dict(kind="psi", n=4, alpha=6.0, xi=1.0, delta_x=6.0, hbar=1.0, cross=True),
    "fig2b": dict(kind="psi", n=12, alpha=10.0, xi=0.25, delta_x=3.0, hbar=1.0, cross=True),
    "fig2c": dict(kind="psi", n=12, alpha=16.0, xi=0.25, delta_x=3.0, hbar=1.0, cross=True),
    "cat": dict(kind="cat", n=None, alpha=1.0, xi=1.0, delta_x=3.0, hbar=1.0, cross=False),
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fmt_or_na(v) -> str:
    return "NA" if v is None else f"{v:.17g}"


@dataclass
class Scenario:
    kind: str           # psi | cat
    n: int | None
    alpha: float
    xi: float | None
    delta_x: float | None
    hbar: float
    cross: bool
    preset: str | None

    def describe(self) -> str:
        n = "NA" if self.n is None else self.n
        return (
            f"preset={self.preset or 'custom'} kind={self.kind} n={n} "
            f"alpha={self.alpha:.17g} xi={_fmt_or_na(self.xi)} delta_x={_fmt_or_na(self.delta_x)} "
            f"hbar={self.hbar:.17g} cross={int(self.cross)}"
        )

    def checksum(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]

    @property
    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(hbar=self.hbar)

    @property
    def extent_L(self) -> float:
        """Position extent between outermost components."""
        if self.kind == "cat":
            return 2.0 * self.delta_x
        return self.n * self.delta_x

    def fringe(self) -> float:
        """Finest expected fringe h/(2 L alpha) along p."""
        return wigner.finest_fringe(self.extent_L, self.alpha, self.constants)

    def build_state(self) -> StateSpec:
        if self.kind == "cat":
            return states.build_cat(self.delta_x, self.xi, self.constants)
        params = SuperoscParams(n=self.n, alpha=self.alpha)
        return states.build_psi(params, self.delta_x, self.xi, self.constants)

    def build_source(self, source_kind: str = "auto"):
        state = self.build_state()
        want_cross = {"auto": self.cross, "pure": False, "cross": True}[source_kind]
        return wigner.cross_state(state) if want_cross else state


# ---------------------------------------------------------------------------
# configuration resolution

def _config_tokens(path: str) -> list[str]:
    """Read each `key = value` line as the flag token --key=value.

    argparse then checks the value exactly as it checks the flag.  The `=`
    form keeps negative values such as `grid = -16:16:17,...` whole."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {line!r} is not 'key = value'")
            flag, value = "--" + key.strip().replace("_", "-"), value.strip()
            if flag != "--allow-undersampled":
                tokens.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
            elif value.lower() not in ("0", "false", "no"):
                raise ValueError(f"config allow_undersampled takes true or false, got {value!r}")
    return tokens


def resolve_scenario(args: argparse.Namespace, require_geometry: bool = True) -> Scenario:
    preset_name = getattr(args, "preset", None)
    base = dict(PRESETS[preset_name]) if preset_name else dict(
        kind="psi", n=None, alpha=None, xi=None, delta_x=None, hbar=1.0, cross=False
    )
    for key in ("n", "alpha", "xi", "delta_x", "hbar"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    if base["kind"] == "cat":
        base["n"] = None
        base["alpha"] = 1.0
    missing = [k for k in ("alpha",) if base.get(k) is None]
    if require_geometry:
        missing += [k for k in ("xi", "delta_x") if base.get(k) is None]
    if base["kind"] == "psi" and base.get("n") is None:
        missing.insert(0, "n")
    if missing:
        raise ValueError(f"missing parameters {missing}; give --preset or explicit flags")
    return Scenario(
        kind=base["kind"],
        n=base["n"],
        alpha=float(base["alpha"]),
        xi=None if base.get("xi") is None else float(base["xi"]),
        delta_x=None if base.get("delta_x") is None else float(base["delta_x"]),
        hbar=float(base["hbar"]),
        cross=bool(base["cross"]),
        preset=preset_name,
    )


# ---------------------------------------------------------------------------
# grid selection

def _parse_grid(text: str) -> tuple[float, float, int, float, float, int]:
    try:
        x_part, p_part = text.split(",")
        x0, x1, nx = x_part.split(":")
        p0, p1, npts = p_part.split(":")
        return float(x0), float(x1), int(nx), float(p0), float(p1), int(npts)
    except ValueError as exc:
        raise ValueError(f"--grid must be x0:x1:nx,p0:p1:np, got {text!r}") from exc


def _rule_min_samples(width: float, fringe: float) -> int:
    return int(math.ceil(SAMPLES_PER_FRINGE * width / fringe))


def _axis_rules(scenario: Scenario, source) -> dict[str, tuple[str, float]]:
    """Each axis's sampling rule, (name, finest structure): the fringe along
    p; along x the fringe for a cross, whose arms put p fringes along x too,
    and the width xi for a pure source."""
    fringe = scenario.fringe()
    x_rule = ("fringe", fringe) if isinstance(source, MixtureSpec) else ("width", scenario.xi)
    return {"p": ("fringe", fringe), "x": x_rule}


def auto_window(scenario: Scenario, source) -> tuple[GridWindow, bool]:
    """Default grid: full source extent, each axis's rule of _axis_rules
    capped at MAX_AUTO_SAMPLES samples.  Returns (window, undersampled_flag)."""
    base = wigner.suggested_window(source)
    rules = _axis_rules(scenario, source)
    nx_rule = _rule_min_samples(base.x_max - base.x_min, rules["x"][1])
    np_rule = _rule_min_samples(base.p_max - base.p_min, rules["p"][1])
    nx = min(max(nx_rule, 129), MAX_AUTO_SAMPLES)
    npts = min(max(np_rule, 129), MAX_AUTO_SAMPLES)
    window = GridWindow(base.x_min, base.x_max, base.p_min, base.p_max, nx, npts)
    return window, nx < nx_rule or npts < np_rule


def cut_window(scenario: Scenario, source, axis: str, mapping: str) -> tuple[float, int]:
    """(full width, samples) for a central cut of source along axis.

    logabs cuts default to the superoscillation panel of width h/L; other
    mappings span the default grid's window on the cut's axis,
    suggested_window(source), symmetric about 0 for every CLI source.
    """
    if mapping == export.MAP_LOGABS:
        width = scenario.constants.h / scenario.extent_L
    else:
        w = wigner.suggested_window(source)
        width = w.x_max - w.x_min if axis == "x" else w.p_max - w.p_min
    samples = max(1025, _rule_min_samples(width, scenario.fringe()) + 1)
    return width, samples


# ---------------------------------------------------------------------------
# subcommands

def cmd_coeffs(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args, require_geometry=False)
    if scenario.kind == "cat":
        raise ValueError("coeffs needs a superoscillating scenario (even n >= 2)")
    params = SuperoscParams(n=scenario.n, alpha=scenario.alpha)
    table = fourier_coeffs(params)
    c_sum = table.c_sum_exact()
    d_sum = table.d_sum_exact()
    lines = [
        f"# subzurek coeffs n={params.n} alpha={params.alpha:.17g} checksum={scenario.checksum()}",
        "j,c,d,k",
    ]
    half = params.n // 2
    for j in range(params.n + 1):
        d = f"{table.d[j]:.17g}" if j <= half else ""
        k = f"{table.k[j]:.17g}" if j <= half else ""
        lines.append(f"{j},{table.c[j]:.17g},{d},{k}")
    lines.append(f"# sum_c = {float(c_sum):.17g} (exact {c_sum})")
    lines.append(f"# sum_d = {float(d_sum):.17g} (exact {d_sum})")
    text = "\n".join(lines) + "\n"
    out = (args.out or args.preset or args.command) + "_coeffs.csv"
    export.atomic_write_text(out, text)
    print(f"wrote {out}  sum_c={float(c_sum):.17g} sum_d={float(d_sum):.17g}")
    return EXIT_OK


def cmd_wigner(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args)
    source = scenario.build_source(args.source)
    header = [
        f"subzurek wigner {scenario.describe()} source={args.source} "
        f"map={args.map} fringe={scenario.fringe():.17g}"
    ]
    print(f"W(0,0) = {wigner.eval_wigner(source, 0.0, 0.0):.17g}")
    prefix = args.out or args.preset or args.command

    if args.cut:
        width, samples = cut_window(scenario, source, args.cut, args.map)
        coords = np.linspace(-width / 2.0, width / 2.0, samples)
        values = wigner.eval_cut(source, args.cut, coords)
        if args.map == export.MAP_LOGABS:
            values = export.log_profile(values)
        csv = export.cut_to_csv(coords, values, args.cut, header + [f"cut={args.cut} width={width:.17g}"])
        path = prefix + "_cut.csv"
        export.atomic_write_bytes(path, csv)
        print(f"wrote {path} ({samples} samples over width {width:.6g})")
        return EXIT_OK

    if args.grid:
        x0, x1, nx, p0, p1, npts = _parse_grid(args.grid)
        window = GridWindow(x0, x1, p0, p1, nx, npts)
        rules = _axis_rules(scenario, source)
        for axis, have, width in (("p", npts, p1 - p0), ("x", nx, x1 - x0)):
            rule, fine = rules[axis]
            need = _rule_min_samples(width, fine)
            if have < need and not args.allow_undersampled:
                raise CliError(
                    f"grid has {have} {axis}-samples but the {rule} rule needs {need} "
                    f"({SAMPLES_PER_FRINGE} per {rule} {fine:.3e}); pass --allow-undersampled to override",
                    EXIT_UNDERSAMPLED,
                )
    else:
        window, undersampled = auto_window(scenario, source)
        if undersampled:
            print(
                "note: auto grid capped below the fringe rule (overview render); "
                "use --grid for full-resolution panels",
                file=sys.stderr,
            )
    grid = wigner.GridRows(source, window)
    wrote = []
    if args.format in ("csv", "both"):
        path = prefix + ".csv"
        export.write_grid_csv(path, grid, header)
        wrote.append(path)
    if args.format in ("pgm", "both"):
        path = prefix + ".pgm"
        export.atomic_write_chunks(path, export.grid_pgm_chunks(grid, args.map, args.bits, header))
        wrote.append(path)
    print(f"wrote {' '.join(wrote)} ({window.nx}x{window.np} samples)")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args)
    state = scenario.build_state()  # parameter errors exit 2, analysis errors 4
    try:
        report, spill = analysis.analyze(state, scenario.alpha)
    except ValueError as exc:
        raise CliError(f"analysis failed: {exc}", EXIT_ANALYSIS) from exc

    out = (args.out or args.preset or args.command) + "_report.txt"
    text = f"# subzurek analyze {scenario.describe()}\n" + analysis.report_to_text(report, spill)
    export.atomic_write_text(out, text)
    print(f"L = {report.L:.6g}   P = {report.P:.6g}")
    print(f"a_Z = {report.a_Z:.6g}")
    print(f"alpha_est = {report.alpha_est:.6g}   (scenario alpha = {scenario.alpha:.6g})")
    print(f"a_SO_est = {report.a_SO_est:.6g}   (a_Z/alpha_est^2)")
    print(f"smallest crossing spacing = {min(report.crossing_spacings):.6g}")
    if spill is None:
        print("overspill check skipped: state has no central component with two neighbors")
    else:
        print(f"overspill ratio = {spill.ratio:.6g} ({'ok' if spill.satisfied else 'VIOLATED'})")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise CliError(f"--points must be >= 1, got {args.points}", EXIT_BAD_PARAMS)
    scenario = resolve_scenario(args)
    failed = []
    for name, value, tol in analysis.validate_gates(scenario.build_state(), args.points):
        ok = value <= tol
        print(f"{'PASS' if ok else 'FAIL'}  {name:<42} {value:.3e} (tol {tol:.1e})")
        if not ok:
            failed.append(name)
    if failed:
        raise CliError("validation gates failed: " + "; ".join(failed), EXIT_VALIDATION)
    print(f"all gates pass for {scenario.describe()}")
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args)
    source = scenario.build_source(args.source)
    direction = {"x": (1.0, 0.0), "p": (0.0, 1.0), "diag": (1.0, 1.0)}[args.direction]
    ts, ov = analysis.overlap_decay_scan(source, direction, args.max_delta, args.steps)
    scale = analysis.last_half_crossing(ts, ov)
    prefix = args.out or args.preset or args.command
    header = [
        f"subzurek sensitivity {scenario.describe()} source={args.source} direction={args.direction} "
        f"half_overlap_displacement={scale:.17g}"
    ]
    csv = export.cut_to_csv(ts, ov, "delta", header, value_label="overlap")
    path = prefix + "_sensitivity.csv"
    export.atomic_write_bytes(path, csv)
    print(f"half-overlap displacement scale = {scale:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_scenario_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sp.add_argument("--n", type=int, default=None, help="even exponent of the superoscillating comb")
    sp.add_argument("--alpha", type=float, default=None, help="superoscillation strength (>= 1)")
    sp.add_argument("--xi", type=float, default=None, help="Gaussian width")
    sp.add_argument("--delta-x", dest="delta_x", type=float, default=None, help="component spacing")
    sp.add_argument("--hbar", type=float, default=None)
    sp.add_argument("--config", default=None, help="flat key = value config file")
    sp.add_argument("--out", default=None, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subzurek", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="write the coefficient table")
    _add_scenario_flags(sp)
    sp.set_defaults(func=cmd_coeffs)

    sp = sub.add_parser("wigner", help="evaluate W on a grid or cut and export")
    _add_scenario_flags(sp)
    sp.add_argument("--source", choices=("auto", "pure", "cross"), default="auto")
    sp.add_argument("--grid", default=None, help="x0:x1:nx,p0:p1:np window override")
    sp.add_argument("--cut", choices=("x", "p"), default=None, help="1-D central cut instead of a grid")
    sp.add_argument("--format", choices=("csv", "pgm", "both"), default="csv")
    sp.add_argument("--map", choices=export.VALUE_MAPS, default=export.MAP_SIGNED)
    sp.add_argument("--bits", type=int, choices=(8, 16), default=16)
    sp.add_argument("--allow-undersampled", action="store_true")
    sp.set_defaults(func=cmd_wigner)

    sp = sub.add_parser("analyze", help="measure structure scales")
    _add_scenario_flags(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("validate", help="run quadrature-oracle gates")
    _add_scenario_flags(sp)
    sp.add_argument("--points", type=int, default=24, help="random phase-space points per gate")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("sensitivity", help="overlap decay under displacement")
    _add_scenario_flags(sp)
    sp.add_argument("--source", choices=("auto", "pure", "cross"), default="auto")
    sp.add_argument("--direction", choices=("x", "p", "diag"), default="p")
    sp.add_argument("--max-delta", dest="max_delta", type=float, default=None)
    sp.add_argument("--steps", type=int, default=161)
    sp.set_defaults(func=cmd_sensitivity)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser for main, built on main's first call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            tokens = _config_tokens(args.config)
            # a nested file would be silently dropped: the typed --config wins
            if parser.parse_known_args([args.command] + tokens)[0].config is not None:
                raise ValueError(f"config file {args.config!r} names another config file")
            # config tokens come before the typed flags, so a typed flag wins
            args, extra = parser.parse_known_args([args.command] + tokens + argv[1:])
            if extra:
                raise ValueError(f"unknown config key {' '.join(extra)!r}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
