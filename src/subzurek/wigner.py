"""Closed-form Wigner engine for shared-width Gaussian superpositions.

For psi = sum_j c_j s(x - a_j) with s a width-xi Gaussian, the transform
W(x,p) = (1/pi hbar) int psi*(x+y) psi(x-y) e^{2ipy/hbar} dy evaluates in
closed form pair by pair.  Substituting the Gaussians and integrating:

    W(x,p) = sum_{j,k} conj(c_j) c_k K_{jk}(x,p),
    K_{jk}(x,p) = (1/pi hbar) e^{-(x-(a_j+a_k)/2)^2/xi^2}
                  e^{-p^2 xi^2/hbar^2} e^{i p (a_j-a_k)/hbar},

i.e. each ordered pair contributes a Gaussian spot halfway between the two
centers times a plane wave in p whose frequency is the center separation;
the conjugated coefficient's center enters the phase with the + sign (this
is fixed by the e^{+2ipy/hbar} convention above and is what the quadrature
oracle reproduces).  A two-component cat with real weights 1/sqrt2
collapses the sum to the familiar three terms: half-weight spots at the two
centers plus a full-amplitude cos(2 p dx / hbar) interference ridge at the
midpoint.

Every evaluation runs through one factored core.  The pairs (j,k) and
(k,j) are complex conjugates, so a pure state is a sum of R = m(m+1)/2 real
terms, one per pair j <= k, and each term is a Gaussian in x times a
Gaussian-enveloped plane wave in p.  So W = X P^T with an x-factor matrix X
(nx x R) and a p-factor matrix P (np x R), and every factor column has the
form A e^{-(t-mu)^2/sigma^2} cos(omega t + phi).  _columns is the one place
that turns a source into the table of those five parameters per column: a
mixture concatenates its terms' columns, and a quarter-turned term swaps
its two factors.  Everything else reads the table.  A grid is one matrix
product of the evaluated columns, and a point or cut a row-wise sum of
X * P.  suggested_window is six sigma past every column's mu.  A
phase-space overlap, shifted or not, is a product of small R x R Gram
matrices whose entries are exact Gaussian integrals over the real line: no
grid, window or sampling rule.

pair_kernel evaluates one ordered pair as written above, and
_pair_sum_complex sums it over all ordered pairs.  That complex sum shares
no code with the core; it is the reference the core must match to 1e-12,
and its imaginary part must cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import GaussianComponent, PhysicalConstants, StateSpec

IDENTITY = "identity"
QUARTER_TURN = "quarter_turn"
_ROTATIONS = (IDENTITY, QUARTER_TURN)

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class GridWindow:
    """Endpoint-inclusive rectangular (x,p) sampling lattice.

    Sample (i,j) sits at x = x_min + i*(x_max-x_min)/(nx-1),
    p = p_min + j*(p_max-p_min)/(np-1).
    """

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self):
        for v in (self.x_min, self.x_max, self.p_min, self.p_max):
            if not math.isfinite(v):
                raise ValueError("grid bounds must be finite")
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid window must have positive extent on both axes")
        if self.nx < 2 or self.np < 2:
            raise ValueError("grid needs at least 2 samples per axis")

    def x_coords(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def p_coords(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """A GridWindow plus the row-major (nx, np) value buffer."""

    window: GridWindow
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.window.nx, self.window.np):
            raise ValueError(
                f"value buffer shape {self.values.shape} does not match "
                f"(nx, np) = ({self.window.nx}, {self.window.np})"
            )

    def x_coords(self) -> np.ndarray:
        return self.window.x_coords()

    def p_coords(self) -> np.ndarray:
        return self.window.p_coords()


@dataclass(frozen=True)
class MixtureTerm:
    state: StateSpec
    weight: float
    rotation: str = IDENTITY

    def __post_init__(self):
        if self.rotation not in _ROTATIONS:
            raise ValueError(f"rotation must be one of {_ROTATIONS}, got {self.rotation!r}")
        if self.weight < 0.0:
            raise ValueError(f"mixture weights must be non-negative, got {self.weight}")


@dataclass(frozen=True)
class MixtureSpec:
    """Incoherent mixture of Wigner distributions, optionally quarter-turned."""

    terms: tuple[MixtureTerm, ...]

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("mixture must have at least one term")
        total = sum(t.weight for t in self.terms)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    @property
    def constants(self) -> PhysicalConstants:
        return self.terms[0].state.constants


def cross_state(state: StateSpec) -> MixtureSpec:
    """Balanced mixture of W_state with its quarter-turn: W+(x,p) = [W(x,p)+W(-p,x)]/2."""
    return MixtureSpec(
        terms=(
            MixtureTerm(state, 0.5, IDENTITY),
            MixtureTerm(state, 0.5, QUARTER_TURN),
        )
    )


def compass_mixture(L: float, xi: float, constants: PhysicalConstants | None = None) -> MixtureSpec:
    """Four-armed reference mixture with extents L = P: a two-component cat of
    separation L crossed with its own quarter-turn.

    Serves as the non-superoscillating baseline in sensitivity comparisons.
    """
    from .states import build_cat

    return cross_state(build_cat(L / 2.0, xi, constants))


def rotate_point(x, p):
    """Quarter-turn of the evaluation point: (x, p) -> (-p, x).

    Evaluating W at the returned point realizes the rotated distribution
    W'(x,p) = W(-p, x).  Four applications return the original point exactly.
    """
    return -p, x


def pair_kernel(
    comp_a: GaussianComponent,
    comp_b: GaussianComponent,
    x,
    p,
    constants: PhysicalConstants,
) -> complex:
    """Ordered-pair kernel; comp_b is the conjugated side.

    Returns coeff_a * conj(coeff_b) * (1/pi hbar) * e^{-(x-(a+b)/2)^2/xi^2}
    * e^{-p^2 xi^2/hbar^2} * e^{i p (b-a)/hbar} with a, b the two centers.
    Summed over all ordered pairs of a state this yields the real W(x,p).
    Hermitian symmetry: kernel(a,b) = conj(kernel(b,a)).
    """
    if comp_a.xi != comp_b.xi:
        raise ValueError(f"pair kernel needs equal widths, got {comp_a.xi} and {comp_b.xi}")
    xi = comp_a.xi
    hbar = constants.hbar
    a, b = comp_a.center, comp_b.center
    mid = 0.5 * (a + b)
    envelope = np.exp(-((x - mid) ** 2) / (xi * xi)) * np.exp(-(p * p) * xi * xi / (hbar * hbar))
    phase = np.exp(1j * p * (b - a) / hbar)
    return comp_a.coeff * np.conj(comp_b.coeff) * envelope * phase / (math.pi * hbar)


def _pair_sum_complex(state: StateSpec, x, p):
    """Sum of pair_kernel over all ordered pairs, complex; the imaginary part
    must cancel.  It shares no code with the factored core and is the
    reference that the core is checked against."""
    comps = state.components
    return sum(pair_kernel(a, b, x, p, state.constants) for a in comps for b in comps)


# ---------------------------------------------------------------------------
# factored core: W = X P^T

def _terms(source) -> tuple[MixtureTerm, ...]:
    if isinstance(source, StateSpec):
        return (MixtureTerm(source, 1.0, IDENTITY),)
    if not isinstance(source, MixtureSpec):
        raise TypeError(f"source must be StateSpec or MixtureSpec, got {type(source)}")
    return source.terms


def _columns(source):
    """Parameters (5 x R) of the X and of the P columns of a StateSpec or
    MixtureSpec, one column per pair j <= k of each term, terms concatenated.

    Rows are A, mu, sigma, omega, phi, column r being
    A e^{-(t-mu)^2/sigma^2} cos(omega t + phi) (see _eval_columns): the x
    factor is the spot at the pair's midpoint, and the p factor
    Re(w e^{i omega p}) g(p) is |w| cos(omega p + arg w) g(p), its A carrying
    the term's weight and 1/(pi hbar).  A quarter-turned term W(-p, x) swaps
    the two and mirrors its new p side, the x spot taken at -p.
    """
    xs, ps = [], []
    for t in _terms(source):
        xi, hbar = t.state.xi, t.state.constants.hbar  # xi raises on mixed widths
        a, c = t.state.centers, t.state.coeffs
        j, k = np.triu_indices(a.size)
        # the (j,k) and (k,j) kernels are complex conjugates: keep j <= k and
        # double the off-diagonal real parts
        w = c[j] * np.conj(c[k]) * np.where(j == k, 1.0, 2.0)
        one, zero = np.ones(w.size), np.zeros(w.size)
        x = np.array([one, 0.5 * (a[j] + a[k]), xi * one, zero, zero])
        p = np.array([t.weight * np.abs(w) / (math.pi * hbar), zero, hbar / xi * one,
                      (a[k] - a[j]) / hbar, np.angle(w)])
        if t.rotation == QUARTER_TURN:
            x, p = p, x * [[1.0], [-1.0], [1.0], [1.0], [1.0]]
        xs.append(x)
        ps.append(p)
    return np.hstack(xs), np.hstack(ps)


def _eval_columns(cols: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A e^{-(t-mu)^2/sigma^2} cos(omega t + phi) of every column at every t,
    as a len(t) x R matrix: X at the x coordinates, P at the p coordinates,
    with W = X P^T."""
    amp, mu, sigma, omega, phi = cols[:, None, :]
    t = t[:, None]
    out = t * omega
    out += phi
    np.cos(out, out=out)
    g = t - mu
    g *= g
    g /= -(sigma * sigma)
    np.exp(g, out=g)
    out *= g
    out *= amp
    return out


_POINT_BLOCK = 256


def eval_wigner(source, x, p):
    """W(x,p) of a StateSpec or MixtureSpec, exact closed form.

    Row-wise sums of X*P over the core, _POINT_BLOCK points at a time so
    memory stays O(N).  Scalars in, float out; arrays broadcast.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    cols_x, cols_p = _columns(source)
    out = np.empty(np.broadcast_shapes(x.shape, p.shape))
    flat = out.reshape(-1)
    # a scalar coordinate, as on a cut, is one factor row for every block
    xs = x.reshape(1) if x.ndim == 0 else np.broadcast_to(x, out.shape).ravel()
    ps = p.reshape(1) if p.ndim == 0 else np.broadcast_to(p, out.shape).ravel()
    for i in range(0, flat.size, _POINT_BLOCK):
        block = slice(i, i + _POINT_BLOCK)
        X = _eval_columns(cols_x, xs if xs.size == 1 else xs[block])
        P = _eval_columns(cols_p, ps if ps.size == 1 else ps[block])
        flat[block] = (X * P).sum(axis=1)
    if out.ndim == 0:
        return float(out)
    return out


def wigner_bound(constants: PhysicalConstants) -> float:
    """|W| <= 1/(pi hbar) for any normalized pure state."""
    return 1.0 / (math.pi * constants.hbar)


def eval_grid(source, window: GridWindow) -> PhaseSpaceGrid:
    """Fill the lattice with W = X P^T for a StateSpec or MixtureSpec."""
    cols_x, cols_p = _columns(source)
    # the grid is allocated before its factors, so their memory returns to
    # the top of the heap: left as a hole below the grid, it made the CSV
    # buffer grown next raise the figures peak RSS by 5 MB
    values = np.empty((window.nx, window.np))
    X = _eval_columns(cols_x, window.x_coords())
    P = _eval_columns(cols_p, window.p_coords())
    np.matmul(X, P.T, out=values)
    return PhaseSpaceGrid(window=window, values=values)


def eval_cut(source, axis: str, coords: np.ndarray):
    """1-D cut through the origin: axis 'p' varies p at x=0, 'x' varies x at p=0."""
    coords = np.asarray(coords, dtype=float)
    if axis == "p":
        return eval_wigner(source, 0.0, coords)
    if axis == "x":
        return eval_wigner(source, coords, 0.0)
    raise ValueError(f"cut axis must be 'x' or 'p', got {axis!r}")


# ---------------------------------------------------------------------------
# integrals on grids

def _trapz2d(values: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> float:
    return float(np.trapezoid(np.trapezoid(values, ps, axis=1), xs))


def marginal_x(grid: PhaseSpaceGrid, state: StateSpec, envelope_tol: float = 1e-14) -> np.ndarray:
    """Position marginal int W dp per x-column (trapezoidal).

    For an adequate p-window this equals |psi(x)|^2.  The window check uses
    the analytic momentum envelope e^{-p^2 xi^2 / hbar^2} at the boundary.
    """
    xi = state.xi
    hbar = state.constants.hbar
    # both boundaries must sit in the momentum tail; the nearer one is worst
    p_edge = min(abs(grid.window.p_min), abs(grid.window.p_max))
    envelope = math.exp(-(p_edge**2) * xi * xi / (hbar * hbar))
    if envelope > envelope_tol:
        raise ValueError(
            f"p-window too narrow: boundary envelope {envelope:.3e} > {envelope_tol:.1e}"
        )
    return np.trapezoid(grid.values, grid.p_coords(), axis=1)


def total_integral(grid: PhaseSpaceGrid) -> float:
    """int int W dx dp (1 for a normalized state on an adequate window)."""
    return _trapz2d(grid.values, grid.x_coords(), grid.p_coords())


def overlap(grid_a: PhaseSpaceGrid, grid_b: PhaseSpaceGrid, constants: PhysicalConstants) -> float:
    """Phase-space overlap 2 pi hbar int int W_a W_b dx dp on a shared lattice.

    For pure states this equals |<a|b>|^2; the self-overlap is the purity.
    """
    if grid_a.window != grid_b.window:
        raise ValueError("overlap requires identical grid lattices")
    xs = grid_a.x_coords()
    ps = grid_a.p_coords()
    return 2.0 * math.pi * constants.hbar * _trapz2d(grid_a.values * grid_b.values, xs, ps)


# ---------------------------------------------------------------------------
# exact overlaps: closed-form Gram matrices of the factor columns

def _gram(cols: np.ndarray, d: float = 0.0) -> np.ndarray:
    """G[r, s] = int f_r(t) f_s(t - d) dt over the real line, in closed form.

    The shift maps mu_s to mu_s + d and phi_s to phi_s - omega_s d.  Each wave
    (Omega, Phi) = (omega_r +- omega_s, phi_r +- phi_s) of the cosine product
    adds A_r A_s sqrt(pi/a) e^{-(mu_r-mu_s)^2/(sigma_r^2+sigma_s^2)}
    e^{-Omega^2/4a} cos(Phi + b Omega/2a) / 2, with a = 1/sigma_r^2 +
    1/sigma_s^2 and b = 2 mu_r/sigma_r^2 + 2 mu_s/sigma_s^2.
    """
    a1, m1, s1, w1, f1 = cols[:, :, None]
    a2, m2, s2, w2, f2 = cols[:, None, :]
    m2, f2 = m2 + d, f2 - w2 * d
    a = 1.0 / (s1 * s1) + 1.0 / (s2 * s2)
    b = 2.0 * m1 / (s1 * s1) + 2.0 * m2 / (s2 * s2)
    waves = sum(
        np.exp(-(omega * omega) / (4.0 * a)) * np.cos(phi + b * omega / (2.0 * a))
        for omega, phi in ((w1 + w2, f1 + f2), (w1 - w2, f1 - f2))
    )
    gauss = np.exp(-((m1 - m2) ** 2) / (s1 * s1 + s2 * s2))
    return 0.5 * a1 * a2 * np.sqrt(math.pi / a) * gauss * waves


def displaced_overlaps(source, shifts) -> np.ndarray:
    """2 pi hbar int int W(x,p) W(x-dx, p-dp) dx dp for each (dx, dp) in shifts,
    exact over the whole plane: with W = X P^T it is sum(G_x * G_p), the Gram
    matrices (_gram) of the x and p columns against their shifted copies."""
    cols_x, cols_p = _columns(source)
    # a shift along one axis leaves the other axis's Gram matrix unchanged
    gram_x, gram_p = _gram(cols_x), _gram(cols_p)
    out = []
    for dx, dp in shifts:
        gx = gram_x if dx == 0.0 else _gram(cols_x, dx)
        gp = gram_p if dp == 0.0 else _gram(cols_p, dp)
        out.append(np.sum(gx * gp))
    return 2.0 * math.pi * source.constants.hbar * np.array(out)


def purity(source) -> float:
    """Self-overlap 2 pi hbar int int W^2 over the whole plane."""
    return float(displaced_overlaps(source, [(0.0, 0.0)])[0])


# ---------------------------------------------------------------------------
# scales and window helpers

def finest_fringe(L: float, alpha: float, constants: PhysicalConstants) -> float:
    """Expected finest interference spacing h/(2 L alpha) along p."""
    if L <= 0:
        raise ValueError(f"extent L must be positive, got {L}")
    return constants.h / (2.0 * L * max(alpha, 1.0))


def integration_samples(width: float, max_rate: float, envelope_width: float) -> int:
    """Trapezoid sample count for grid integrals of Gaussian-enveloped fringes,
    as in the marginal and total-integral gates of `subzurek validate`.

    Superoscillations are not high frequencies: the integrand's true band
    limit is max_rate (center separation L/hbar for W), and the trapezoid
    rule on a Gaussian-enveloped band-limited integrand converges once the
    sampling rate beats that limit, no matter how fine the local structure
    looks.  envelope_width is the Gaussian factor's width along the
    integration axis (xi in x, hbar/xi in p; divide by sqrt2 for squared
    integrands); the 11/width margin pushes the envelope-spectrum aliasing
    below ~1e-12.
    """
    rate = max_rate + 11.0 / envelope_width
    return int(math.ceil(width * rate / (2.0 * math.pi))) * 2 + 1


def suggested_window(source) -> GridWindow:
    """Window covering every factor column of a source, six Gaussian widths
    past each spot: six xi past the outermost centers in x and six hbar/xi
    in p, a quarter-turned term trading the two axes.

    Sample counts are not set here (callers apply their own resolution
    rule); placeholders of 2 are used and must be overridden.
    """
    (_, mu_x, sigma_x, _, _), (_, mu_p, sigma_p, _, _) = _columns(source)
    x_lo = float(np.min(mu_x - 6.0 * sigma_x))
    x_hi = float(np.max(mu_x + 6.0 * sigma_x))
    p_half = float(np.max(np.abs(mu_p) + 6.0 * sigma_p))
    return GridWindow(x_min=x_lo, x_max=x_hi, p_min=-p_half, p_max=p_half, nx=2, np=2)
