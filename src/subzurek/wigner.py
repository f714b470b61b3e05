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
its two factors.

Many columns share one shape: a comb of m components has R columns but
only 2m-1 distinct x shapes (the pair midpoints) and m distinct p shapes
(the pair separations).  factor groups the columns whose (mu, sigma,
omega) are equal and whose phi agree mod pi into D unit-amplitude basis
columns per axis, and scatters each column's signed amplitude into a
D_x x D_p coefficient matrix C, so W = X_b C P_b^T; a column with a phase
of its own keeps its own basis column, so D <= R.  It returns the frozen
Factored(basis_x, basis_p, coeffs, constants).  Every reader uses the
basis, and accepts a Factored or a source, which it factors on each call:
a caller that reads one source several times, as analyze and validate do,
factors it once and passes the Factored.  A grid is X_b (C P_b^T) or
(X_b C) P_b^T, a product at rank min(D_x, D_p), and a point or cut a
row-wise sum of (X_b C) * P_b.  suggested_window reaches six sigma past
every basis column's mu.

A grid's product is taken in blocks of rows (GridRows), the small factors
built once over their whole axes, so no nx x np array need be held; the
CLI streams the blocks into its CSV and PGM writers.  There is one
partition, _row_blocks: max(2, _BLOCK_VALUES // np) rows a block, a
one-row tail joined to the block before it, and eval_grid writes the same
blocks into one array.  The bits of a GEMM can follow the rows it is
given: a one-row product goes to OpenBLAS's gemv, which rounds differently
from gemm, and on 37-row windows of fig1 and fig2b with np = 3001 and
20001, 2- and 5-row blocks moved values by up to 2.3e-18 against one
whole-grid product.  So no product has one row, and every reader of a grid
takes the same blocks.

Every integral of W over a whole axis is closed form too, with no grid,
window or sampling rule: a column integrates to A sigma sqrt(pi)
e^{-omega^2 sigma^2/4} cos(omega mu + phi) (_integrals), so the position
marginal is X_b C times the P_b column integrals and the total integral
the product of both sides' integrals through C.  A phase-space overlap,
shifted or not, is sum(G_x * (C G_p C^T)) with G_x and G_p the D x D Gram
matrices of the basis columns against their shifted copies, entries exact
Gaussian integrals over the real line; a scan costs D^2 of them per step,
where the column table would take 2 R^2.  The trapezoid overlap of two
grids stays as the reference that tests compare these exact forms against.

pair_kernel evaluates one ordered pair as written above, and
_pair_sum_complex sums it over all ordered pairs.  That complex sum shares
no code with the core; it is the reference the core must match to 1e-12,
and its imaginary part must cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import PhysicalConstants, StateSpec, _read_only

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
        # a width past float64's range makes every sample step inf
        if not (math.isfinite(self.x_max - self.x_min) and math.isfinite(self.p_max - self.p_min)):
            raise ValueError(
                f"grid window outside float64's range: widths {self.x_max - self.x_min:.3g} "
                f"in x and {self.p_max - self.p_min:.3g} in p"
            )
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

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of the buffer, as GridRows.rows gives them."""
        return self.values[start:stop]


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


def pair_kernel(state: StateSpec, j: int, k: int, x, p) -> complex:
    """Ordered-pair kernel of components j and k of a state; k is the
    conjugated side.

    Returns c_j * conj(c_k) * (1/pi hbar) * e^{-(x-(a+b)/2)^2/xi^2}
    * e^{-p^2 xi^2/hbar^2} * e^{i p (b-a)/hbar} with a, b the centers of j
    and k and xi the state's one width.  Summed over all ordered pairs this
    yields the real W(x,p).  Hermitian symmetry: kernel(j,k) = conj(kernel(k,j)).
    j and k may be integer arrays that broadcast against x and p.
    """
    xi, hbar = state.xi, state.constants.hbar
    a, b = state.centers[j], state.centers[k]
    mid = 0.5 * (a + b)
    envelope = np.exp(-((x - mid) ** 2) / (xi * xi)) * np.exp(-(p * p) * xi * xi / (hbar * hbar))
    phase = np.exp(1j * p * (b - a) / hbar)
    # np.multiply takes numpy's array loop for scalars too, where * on two
    # complex scalars rounds differently, so a pair's bits do not depend on
    # whether j, k, x and p are scalars or arrays
    weight = np.multiply(state.coeffs[j], np.conj(state.coeffs[k]))
    return np.multiply(weight * envelope, phase) / (math.pi * hbar)


# pair_kernel values per block of ordered pairs in _pair_sum_complex
_PAIR_ELEMENTS = 1 << 16


def _pair_sum_complex(state: StateSpec, x, p):
    """Sum of pair_kernel over all ordered pairs, complex; the imaginary part
    must cancel.  It shares no code with the factored core and is the
    reference that the core is checked against.

    pair_kernel takes the pairs in blocks of _PAIR_ELEMENTS // (number of
    points) index arrays, and its rows are added j-major from 0, one at a
    time: the bits of a sum over one pair_kernel call per pair, with
    temporaries that stay O(_PAIR_ELEMENTS) or one pair's."""
    m = state.centers.size
    points = np.broadcast(x, p)
    j, k = np.divmod(np.arange(m * m), m)
    per_block = max(1, _PAIR_ELEMENTS // max(1, points.size))
    lead = (-1,) + (1,) * points.ndim
    total = 0
    for lo in range(0, m * m, per_block):
        block = slice(lo, lo + per_block)
        total = sum(pair_kernel(state, j[block].reshape(lead), k[block].reshape(lead), x, p), total)
    return total


# ---------------------------------------------------------------------------
# factored core: W = X P^T = X_b C P_b^T

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
        xi, hbar = t.state.xi, t.state.constants.hbar
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


_HALF_PI = 0.5 * math.pi


def _group(cols: np.ndarray):
    """Unit-amplitude basis (5 x D) of a column table, the index (R,) of each
    column's basis column and each column's signed amplitude (R,).

    Columns of equal (mu, sigma, omega) whose phi agree mod pi share one
    basis column: cos(u + phi) = -cos(u + phi - pi), so phi is folded into
    [-pi/2, pi/2) and the fold's sign moves to the amplitude.  Any other
    column keeps a basis column of its own, so D <= R.
    """
    amp, mu, sigma, omega, phi = cols
    up, down = phi >= _HALF_PI, phi < -_HALF_PI
    phi = np.where(up, phi - math.pi, np.where(down, phi + math.pi, phi))
    keys = np.array([mu, sigma, omega, phi])
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    basis = np.vstack([np.ones(np.count_nonzero(first)), keys[:, first]])
    return basis, index, np.where(up | down, -amp, amp)


@dataclass(frozen=True, eq=False)
class Factored:
    """The factored core of a source, W = X_b C P_b^T: the x and p basis
    columns (5 x D_x and 5 x D_p, see _group), the D_x x D_p coefficient
    matrix C and the source's constants, as read-only arrays."""

    basis_x: np.ndarray
    basis_p: np.ndarray
    coeffs: np.ndarray
    constants: PhysicalConstants


def factor(source) -> Factored:
    """The Factored core of a StateSpec or MixtureSpec; a Factored is
    returned as it is.  Entry (a, b) of C sums the amplitude products of the
    columns whose x side is basis column a and whose p side is basis column b."""
    if isinstance(source, Factored):
        return source
    cols_x, cols_p = _columns(source)
    basis_x, index_x, amp_x = _group(cols_x)
    basis_p, index_p, amp_p = _group(cols_p)
    dx, dp = basis_x.shape[1], basis_p.shape[1]
    coeffs = np.bincount(index_x * dp + index_p, weights=amp_x * amp_p, minlength=dx * dp)
    arrays = [_read_only(a) for a in (basis_x, basis_p, coeffs.reshape(dx, dp))]
    return Factored(*arrays, source.constants)


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
    """W(x,p) of a StateSpec, MixtureSpec or Factored, exact closed form.

    Row-wise sums of (X_b C) * P_b over the core, _POINT_BLOCK points at a
    time so memory stays O(N).  Scalars in, float out; arrays broadcast.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    core = factor(source)
    out = np.empty(np.broadcast_shapes(x.shape, p.shape))
    flat = out.reshape(-1)
    # a scalar coordinate, as on a cut, is one factor row for every block
    xs = x.reshape(1) if x.ndim == 0 else np.broadcast_to(x, out.shape).ravel()
    ps = p.reshape(1) if p.ndim == 0 else np.broadcast_to(p, out.shape).ravel()
    for i in range(0, flat.size, _POINT_BLOCK):
        block = slice(i, i + _POINT_BLOCK)
        X = _eval_columns(core.basis_x, xs if xs.size == 1 else xs[block])
        P = _eval_columns(core.basis_p, ps if ps.size == 1 else ps[block])
        flat[block] = ((X @ core.coeffs) * P).sum(axis=1)
    if out.ndim == 0:
        return float(out)
    return out


# values per row block of a grid (see _row_blocks): enough to amortize the
# per-block numpy calls, few enough that a block's CSV records and
# temporaries stay a few MB
_BLOCK_VALUES = 1 << 14


def _row_blocks(nrows: int, ncols: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of rows of an nrows x ncols table:
    max(2, _BLOCK_VALUES // ncols) rows a block, and a one-row tail joined
    to the block before it, so that no block of a grid is one row."""
    step = max(2, _BLOCK_VALUES // ncols)
    starts = list(range(0, nrows, step))
    if len(starts) > 1 and nrows - starts[-1] == 1:
        del starts[-1]
    return list(zip(starts, starts[1:] + [nrows]))


class GridRows:
    """W of a StateSpec, MixtureSpec or Factored on a window, evaluated a block of rows
    at a time, so no nx x np array is held.

    The factors are built once over their whole axes, C folded into the side
    with more basis columns so that each product runs at rank
    min(D_x, D_p): W = L R with L = X_b and R = C P_b^T (D_x x np), or
    L = X_b C and R = P_b^T.  rows(start, stop) is L[start:stop] @ R.
    """

    def __init__(self, source, window: GridWindow):
        core = factor(source)
        coeffs = core.coeffs
        X = _eval_columns(core.basis_x, window.x_coords())
        P = _eval_columns(core.basis_p, window.p_coords())
        if coeffs.shape[0] <= coeffs.shape[1]:
            self._left, self._right = X, coeffs @ P.T
        else:
            self._left, self._right = X @ coeffs, P.T
        self.window = window

    def rows(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """W at rows start:stop of the window, into out if given."""
        return np.matmul(self._left[start:stop], self._right, out=out)


def eval_grid(source, window: GridWindow) -> PhaseSpaceGrid:
    """Fill the lattice with W for a StateSpec or MixtureSpec: GridRows's
    products over _row_blocks, written into one array, so its bits are
    those that the grid CSV and PGM writers stream from a GridRows."""
    grid = GridRows(source, window)
    values = np.empty((window.nx, window.np))
    for start, stop in _row_blocks(window.nx, window.np):
        grid.rows(start, stop, out=values[start:stop])
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
# trapezoid reference on grids

def _trapz2d(values: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> float:
    return float(np.trapezoid(np.trapezoid(values, ps, axis=1), xs))


def overlap(grid_a: PhaseSpaceGrid, grid_b: PhaseSpaceGrid, constants: PhysicalConstants) -> float:
    """Phase-space overlap 2 pi hbar int int W_a W_b dx dp on a shared lattice.

    For pure states this equals |<a|b>|^2; the self-overlap is the purity.
    """
    if grid_a.window != grid_b.window:
        raise ValueError("overlap requires identical grid lattices")
    xs = grid_a.window.x_coords()
    ps = grid_a.window.p_coords()
    return 2.0 * math.pi * constants.hbar * _trapz2d(grid_a.values * grid_b.values, xs, ps)


# ---------------------------------------------------------------------------
# exact integrals: closed forms over the real line of the factor columns

def _integrals(cols: np.ndarray) -> np.ndarray:
    """int f_r(t) dt over the real line for every column r, in closed form:
    A sigma sqrt(pi) e^{-omega^2 sigma^2/4} cos(omega mu + phi)."""
    amp, mu, sigma, omega, phi = cols
    envelope = np.exp(-0.25 * (omega * sigma) ** 2)
    return amp * sigma * math.sqrt(math.pi) * envelope * np.cos(omega * mu + phi)


def marginal_x(source, xs) -> np.ndarray:
    """Position marginal int W(x, p) dp at each x, exact over the whole p
    line: X_b C times the integrals of the P_b columns.  For a pure state it
    equals |psi(x)|^2."""
    core = factor(source)
    return _eval_columns(core.basis_x, np.asarray(xs, dtype=float)) @ (core.coeffs @ _integrals(core.basis_p))


def total_integral(source) -> float:
    """int int W dx dp over the whole plane, exact (1 for a normalized state)."""
    core = factor(source)
    return float(_integrals(core.basis_x) @ core.coeffs @ _integrals(core.basis_p))


def _gram(cols: np.ndarray, d=0.0) -> np.ndarray:
    """G[r, s] = int f_r(t) f_s(t - d) dt over the real line, in closed form.

    The shift maps mu_s to mu_s + d and phi_s to phi_s - omega_s d.  Each wave
    (Omega, Phi) = (omega_r +- omega_s, phi_r +- phi_s) of the cosine product
    adds A_r A_s sqrt(pi/a) e^{-(mu_r-mu_s)^2/(sigma_r^2+sigma_s^2)}
    e^{-Omega^2/4a} cos(Phi + b Omega/2a) / 2, with a = 1/sigma_r^2 +
    1/sigma_s^2 and b = 2 mu_r/sigma_r^2 + 2 mu_s/sigma_s^2.  The B shifts d
    (a scalar is one) give the B matrices as one B x R x R array.
    """
    d = np.reshape(d, (-1, 1, 1))
    a1, m1, s1, w1, f1 = cols[:, :, None]
    a2, m2, s2, w2, f2 = cols[:, None, :]
    m2, f2 = m2 + d, f2 - w2 * d
    a = 1.0 / (s1 * s1) + 1.0 / (s2 * s2)
    b = 2.0 * m1 / (s1 * s1) + 2.0 * m2 / (s2 * s2)

    # The B x R x R arrays are built in place, in the operation order of
    # prefactor * gauss * sum(waves): b, then the waves beside it, then the
    # product in b's place; a wave's phase Phi is added a few shifts at a time.
    def wave(out, omega, phase):
        np.multiply(b, omega, out=out)
        out /= 2.0 * a
        for j in range(0, len(out), step):
            out[j : j + step] += phase(f1, f2[j : j + step])
        np.cos(out, out=out)
        out *= np.exp(-(omega * omega) / (4.0 * a))
        return out

    step = max(1, _PHASE_ELEMENTS // a.size)
    waves = wave(np.empty_like(b), w1 + w2, np.add)
    waves += 0.0  # sum() starts from +0, which turns a -0 into +0
    waves += wave(b, w1 - w2, np.subtract)  # b is read for the last time
    gauss = np.subtract(m1, m2, out=b)
    np.square(gauss, out=gauss)
    gauss /= -(s1 * s1 + s2 * s2)  # -(x^2) / y, as x^2 / -y is the same double
    np.exp(gauss, out=gauss)
    gauss *= 0.5 * a1 * a2 * np.sqrt(math.pi / a)
    gauss *= waves
    return gauss


# Gram elements per block of shifts: the n=32, alpha=24 cross (D = 98) takes
# 13 shifts a block, a comb with D <= 13 takes 775 or more
_SHIFT_ELEMENTS = 1 << 17
# Gram elements per chunk of a wave's phase, a sixteenth of a block
_PHASE_ELEMENTS = _SHIFT_ELEMENTS // 16


def displaced_overlaps(source, shifts) -> np.ndarray:
    """2 pi hbar int int W(x,p) W(x-dx, p-dp) dx dp for each (dx, dp) in shifts,
    exact over the whole plane: with W = X_b C P_b^T it is
    sum(G_x * (C G_p C^T)), G_x and G_p the Gram matrices (_gram) of the x
    and p basis columns against their shifted copies.  Shifts are taken in
    blocks of _SHIFT_ELEMENTS // max(D_x, D_p)^2, so temporaries stay
    O(_SHIFT_ELEMENTS) whatever the number of shifts, and a shift's value does
    not depend on the block it lands in."""
    core = factor(source)
    coeffs = core.coeffs
    shifts = np.asarray(shifts, dtype=float).reshape(-1, 2)
    per_block = max(1, _SHIFT_ELEMENTS // max(coeffs.shape) ** 2)
    out = np.empty(len(shifts))
    for i in range(0, len(shifts), per_block):
        block = shifts[i:i + per_block, :, None, None]
        dx, dp = block[:, 0], block[:, 1]
        # a block with no shift along an axis takes that axis's unshifted
        # Gram matrix; one expression, so that no block outlives its use: at
        # most G_x and the arrays of the _gram call that builds G_p are alive
        out[i:i + per_block] = np.sum(
            _gram(core.basis_x, dx if dx.any() else 0.0)
            * (coeffs @ _gram(core.basis_p, dp if dp.any() else 0.0) @ coeffs.T),
            axis=(-2, -1),
        )
    return 2.0 * math.pi * core.constants.hbar * out


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
    as in the reference grids the exact integrals are tested against; the
    marginal gate of `subzurek validate` takes its x lattice from it.

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
    """Window covering every factor column of a source (or Factored), six
    Gaussian widths past each spot: six xi past the outermost centers in x and six hbar/xi
    in p, a quarter-turned term trading the two axes.

    Sample counts are not set here (callers apply their own resolution
    rule); placeholders of 2 are used and must be overridden.
    """
    core = factor(source)
    _, mu_x, sigma_x, _, _ = core.basis_x
    _, mu_p, sigma_p, _, _ = core.basis_p
    x_lo = float(np.min(mu_x - 6.0 * sigma_x))
    x_hi = float(np.max(mu_x + 6.0 * sigma_x))
    p_half = float(np.max(np.abs(mu_p) + 6.0 * sigma_p))
    return GridWindow(x_min=x_lo, x_max=x_hi, p_min=-p_half, p_max=p_half, nx=2, np=2)
