"""Foundational numerics: phase sums, smoothing kernel, continued fractions, quadrature.

e2pi is e(u) = exp(2*pi*i*u) with the phase reduced first, and
lattice_phase_sum the one evaluator of the weighted sums sum_j w_j e(t b_j):
on a lattice t = m + o of panel midpoints m and node offsets o it takes one
exponential per midpoint and per offset instead of one per point, and
phase_sum is its one-offset case for a plain grid of t.

The smoothing kernel theta is the indicator of [-7e/8, 7e/8] convolved with l
normalized boxes of width e/(4l) each (e = epsilon). That makes theta l times
continuously differentiable with

    theta(y) = 1        for |y| <= 3e/4,
    0 < theta(y) < 1    for 3e/4 < |y| < e,
    theta(y) = 0        for |y| >= e,

and gives the closed-form Fourier transform

    Theta(x) = (7e/4) * sinc(7e x/4) * sinc(e x/(4l))^l,   sinc(u) = sin(pi u)/(pi u),

which obeys |Theta(x)| <= min(7e/4, 1/(pi|x|), (1/(pi|x|)) * (4l/(pi e |x|))^l)
with no slack, since |sinc(u)| <= min(1, 1/(pi|u|)).

theta itself is evaluated exactly: the sum of l boxes is an Irwin-Hall variable,
so theta(y) is a difference of Irwin-Hall CDF values. Floats are dyadic
rationals, so the CDF polynomial evaluates exactly in Fraction arithmetic; only
the final conversion back to float rounds. A cached-grid interpolation was
rejected: it cannot keep the three regimes exact nor support 1e-8 relative
agreement between the closed form and quadrature of theta.

The oscillatory quadrature cuts its range into equal panels of many cycles of
the integrand's top frequency and integrates them in one pass of a
Gauss-Legendre rule whose node count is fixed in advance by a
Bernstein-ellipse bound on the truncation error (see oscillatory_integral).
The bound covers integrands of exponential type 2*pi*max_frequency that are
bounded on the real line, such as products of trigonometric sums with
frequencies up to max_frequency and Theta; nothing is evaluated twice to
estimate the error. It calls the integrand as
f(t, mid, off) on the lattice of a chunk of panels: mid holds the panel
midpoints, off = h * x the node offsets for the half-width h shared by every
panel, and t = (mid[:, None] + off[None, :]).ravel() the flat points. An
integrand that only needs t ignores the other two; the A/B integrand feeds
mid and off to lattice_phase_sum. The nodes come from Newton's method on
P_n, not from an eigensolver, so building them runs no LAPACK or BLAS
threads.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from ._io import Record, ordered_map

_SNAP_TOL = 1e-9          # continued-fraction integer snap (see cf_convergents)
_MAX_CF_DEN = 10 ** 15    # denominators beyond double resolution are noise

# Quadrature panels span at most this many cycles of the top frequency.
_PANEL_CYCLES = 64
# Truncation-error bound of every quadrature relative to sup|f| * (hi - lo)
# (see oscillatory_integral), at the level of double-precision rounding.
TRUNCATION_TOL = 1e-15
# Integrand points per quadrature chunk. Chunk boundaries depend on the node
# count alone, so the reduction order, and with it every bit of the result,
# is the same for any thread count; with lattice_phase_sum's blocks the
# bound also caps working memory for any table size.
_CHUNK_POINTS = 1 << 14
# Lattice points x base terms per block of a lattice_phase_sum.
_BLOCK_ENTRIES = 1 << 21


def e2pi(u):
    """exp(2*pi*i*u) elementwise; reducing u - rint(u) first keeps large
    arguments at full precision and makes e2pi(-u) the exact conjugate."""
    return np.exp((2j * np.pi) * (u - np.rint(u)))


def phase_sum(ts, base, w) -> np.ndarray:
    """sum_j w_j e(t * base_j) at each t of ts, as a complex array.

    The one-offset case of lattice_phase_sum, whose blocks of rows it keeps:
    einsum sums each row on its own and runs no BLAS threads, so
    phase_sum([t]) equals the entry at t of any longer call; an empty base
    gives zeros.
    """
    return lattice_phase_sum(np.asarray(ts, dtype=float), np.zeros(1), base, w)[:, 0]


def lattice_phase_sum(mid, off, base, w) -> np.ndarray:
    """sum_j w_j e((m + o) * base_j) for every m of mid and o of off, as a
    len(mid) x len(off) complex array.

    e((m + o) b) = e(m b) e(o b), so a call takes (len(mid) + len(off)) *
    len(base) exponentials instead of one per lattice point and term, and an
    einsum multiplies and sums the two factors. A block covers about
    _BLOCK_ENTRIES lattice points times terms (a block of offsets, then as
    many midpoints as fit), so memory stays bounded for any table size.
    einsum sums each entry on its own and runs no BLAS threads, so no entry
    depends on where the blocks fall.
    """
    out = np.empty((len(mid), len(off)), dtype=complex)
    rows = max(1, _BLOCK_ENTRIES // max(1, len(base)))
    for c in range(0, len(off), rows):
        en = e2pi(off[c:c + rows, None] * base)
        step = max(1, rows // len(en))
        for r in range(0, len(mid), step):
            em = e2pi(mid[r:r + step, None] * base) * w
            out[r:r + step, c:c + rows] = np.einsum("pj,nj->pn", em, en)
    return out


class SmoothingKernel(Record):
    """Compactly supported bump of half-width epsilon and smoothness order l."""

    __slots__ = ("epsilon", "l")

    def __init__(self, epsilon: float, l: int):
        if not (epsilon > 0 and math.isfinite(epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if l < 1:
            raise ValueError("l must be >= 1")
        self._set(epsilon, l)


def _irwin_hall_cdf(s: Fraction, l: int) -> Fraction:
    # CDF of the sum of l iid U[0,1] at s, exact for rational s.
    if s <= 0:
        return Fraction(0)
    if s >= l:
        return Fraction(1)
    total = Fraction(0)
    for j in range(int(s) + 1):
        term = math.comb(l, j) * (s - j) ** l
        total += -term if j % 2 else term
    return total / math.factorial(l)


def kernel_eval(kern: SmoothingKernel, y: float) -> float:
    """theta(y): exact regime decision, value in [0, 1], even in y."""
    l = kern.l
    eps = Fraction(kern.epsilon)
    yq = Fraction(float(y))
    box = eps / (4 * l)                      # single-box width
    half = l * Fraction(1, 2)
    vp = (yq + 7 * eps / 8) / box + half
    vm = (yq - 7 * eps / 8) / box + half
    val = _irwin_hall_cdf(vp, l) - _irwin_hall_cdf(vm, l)
    if val <= 0:
        return 0.0
    if val >= 1:
        return 1.0
    out = float(val)
    # val is strictly inside (0,1); keep the float there (<= 1 ulp nudge).
    if out >= 1.0:
        out = math.nextafter(1.0, 0.0)
    elif out <= 0.0:
        out = math.nextafter(0.0, 1.0)
    return out


def _int_power(x: np.ndarray, l: int) -> np.ndarray:
    """x ** l for an integer l >= 1 by repeated squaring: a few multiplies a
    point, where NumPy runs its general float pow for l > 2."""
    out = None
    while True:
        if l & 1:
            out = x if out is None else out * x
        l >>= 1
        if not l:
            return out
        x = x * x


def kernel_fourier(kern: SmoothingKernel, x):
    """Theta(x), closed form; accepts a scalar or ndarray, value 7e/4 at x=0."""
    eps, l = kern.epsilon, kern.l
    x = np.asarray(x, dtype=float)
    boxes = _int_power(np.sinc(eps * x / (4 * l)), l)
    out = (7 * eps / 4) * np.sinc(7 * eps * x / 4) * boxes
    return float(out) if out.ndim == 0 else out


def kernel_fourier_bound(kern: SmoothingKernel, x):
    """The decay envelope min(7e/4, 1/(pi|x|), (1/(pi|x|))(4l/(pi e |x|))^l)."""
    eps, l = kern.epsilon, kern.l
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / (np.pi * ax)
        out = np.minimum(7 * eps / 4, np.minimum(inv, inv * (4 * l / (np.pi * eps * ax)) ** l))
    return float(out) if out.ndim == 0 else out


def cf_convergents(alpha: float, n: int) -> list[Fraction]:
    """First n continued-fraction convergents of alpha, in lowest terms.

    The walk runs in exact rational arithmetic on the binary value of alpha,
    so every emitted convergent genuinely satisfies |alpha - a/q| < 1/q^2.
    A double that encodes an intended rational (e.g. 7/3) carries rounding in
    its last ulps which would sprout garbage partial quotients; a residual
    within _SNAP_TOL of an integer is therefore snapped and the expansion
    terminated there. The walk also stops before a denominator above 10^15.
    """
    return _cf_walk(alpha, n)[0]


def _cf_walk(alpha: float, n: int) -> tuple[list[Fraction], bool]:
    """cf_convergents plus a flag: False if the cap or n, not alpha, ended it."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[Fraction] = []
    h_prev, h_prev2 = 1, 0
    k_prev, k_prev2 = 0, 1
    x = Fraction(float(alpha))
    snap = Fraction(_SNAP_TOL)
    while len(out) < n:
        nearest = round(x)
        if abs(x - nearest) < snap * max(1, abs(nearest)):
            a = int(nearest)
            terminal = True
        else:
            a = math.floor(x)
            terminal = False
        h = a * h_prev + h_prev2
        k = a * k_prev + k_prev2
        if k > _MAX_CF_DEN:
            return out, False
        out.append(Fraction(h, k))
        if terminal or x == a:
            return out, True
        h_prev2, h_prev = h_prev, h
        k_prev2, k_prev = k_prev, k
        x = 1 / (x - a)
    return out, False


def dirichlet_approx(alpha: float, Q: int) -> Fraction:
    """Best rational a/q with q <= Q in the sense |q*alpha - a|.

    Returns the last convergent with denominator <= Q. That convergent
    satisfies |alpha - a/q| <= 1/(q(Q+1)) because the next denominator
    exceeds Q. Approximants with larger q can have smaller absolute error
    |alpha - a/q| but may violate the q-scaled bound, so they are never
    preferred; among equally good q the smallest is kept (determinism).
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    best: Fraction | None = None
    for conv in cf_convergents(alpha, 64):
        if conv.denominator <= Q:
            best = conv
        else:
            break
    if best is None:
        # First convergent is floor(alpha)/1, denominator 1 <= Q always.
        raise AssertionError("unreachable: denominator-1 convergent exists")
    return best


class QuadratureSpec(Record):
    """Panelized quadrature request for a possibly oscillatory integrand.

    max_frequency bounds |d/dt of the phase in cycles| over [lo, hi]; the
    panels and their node count follow the cycles it implies, and every
    request is integrated to TRUNCATION_TOL (see oscillatory_integral).
    """

    __slots__ = ("lo", "hi", "max_frequency")

    def __init__(self, lo: float, hi: float, max_frequency: float):
        if not lo < hi:
            raise ValueError("need lo < hi")
        if max_frequency < 0 or not math.isfinite(max_frequency):
            raise ValueError("max_frequency must be finite and >= 0")
        self._set(lo, hi, max_frequency)


def _legendre_pair(n: int, x: np.ndarray, y=None) -> tuple[np.ndarray, np.ndarray]:
    """P_{n-1} and P_n at x, elementwise, for n >= 1.

    Given y = 1 - x, the three-term recurrence runs on the steps D_k = P_k -
    P_{k-1}, where (k+1) D_{k+1} = k D_k - (2k+1) y P_k: near x = 1 a small y
    keeps the digits that x itself rounds away. Near x = 0 the plain
    recurrence keeps those of x, which 1 - x would round away.
    """
    if y is None:
        prev, p = np.ones_like(x), x
        for k in range(1, n):
            prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
        return prev, p
    prev, p, d = np.ones_like(y), x, -y
    for k in range(1, n):
        d = (k * d - (2 * k + 1) * y * p) / (k + 1)
        prev, p = p, p + d
    return prev, p


def _newton(step, v: np.ndarray) -> np.ndarray:
    # Newton from an asymptotic start converges quadratically: iterate until
    # every step is below 1e-10 relative, then take one more
    for _ in range(20):
        dv = step(v)
        v = v + dv
        if np.all(np.abs(dv) <= 1e-10 * np.abs(v)):
            break
    return v + step(v)


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], n >= 1.

    Newton's method on P_n from Tricomi's asymptotic roots (the approach of
    Hale and Townsend, SIAM J. Sci. Comput. 35(2), 2013, with the recurrence
    in place of their asymptotic expansions), in NumPy only: an eigensolver
    would start LAPACK's BLAS threads. Nodes with x > 1/2 are found in
    theta = arccos x, whose relative precision carries to 1 - x and to the
    weight 2 sin^2(theta) / (n (P_{n-1} - x P_n))^2; the rest are found in x,
    where 1 - x^2 is well conditioned. The negative half mirrors the positive
    one exactly, and an odd n puts a node at exactly 0.
    """
    k = np.arange(1, (n + 1) // 2 + 1)       # roots in [0, 1), largest first
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3))
                      * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    outer = theta < np.pi / 3

    def theta_step(th):
        y = 2.0 * np.sin(th / 2) ** 2
        prev, p = _legendre_pair(n, 1.0 - y, y)
        return p * np.sin(th) / (n * (prev - (1.0 - y) * p))

    def x_step(x):
        prev, p = _legendre_pair(n, x)
        return -p * (1.0 - x) * (1.0 + x) / (n * (prev - x * p))

    th = _newton(theta_step, theta[outer])
    x = np.cos(theta[~outer])
    if n % 2:
        x[-1] = 0.0        # P_n(0) = 0 exactly, so Newton keeps it there
    x = _newton(x_step, x)
    y = 2.0 * np.sin(th / 2) ** 2
    pos = np.concatenate([1.0 - y, x])
    prev, p = (np.concatenate(pair) for pair in
               zip(_legendre_pair(n, 1.0 - y, y), _legendre_pair(n, x)))
    sin2 = np.concatenate([np.sin(th) ** 2, (1.0 - x) * (1.0 + x)])
    w = 2.0 * sin2 / (n * (prev - pos * p)) ** 2
    return (np.concatenate([-pos[:n // 2], pos[::-1]]),
            np.concatenate([w[:n // 2], w[::-1]]))


def _log_truncation_bound(cycles: float, nodes: int) -> float:
    """For c cycles and n nodes, the log of the minimum over rho > 1 of
    (32/15) e^((pi c/2)(rho - 1/rho)) rho^(-2n) / (rho^2 - 1).

    Times sup|f| on the real line and the panel length, this bounds the
    error of the n-node Gauss-Legendre rule on a panel of c cycles for any f
    of exponential type 2 pi F, c = F * panel length: on the Bernstein
    ellipse E_rho of the panel |f| <= sup|f| e^((pi c/2)(rho - 1/rho)), and
    Trefethen (SIAM Review 50(1), 2008, Thm 4.5) bounds the error by
    (64/15) M rho^(-2n) / (rho^2 - 1) on [-1, 1]. With rho = e^u the log is
    log(16/15) + pi c sinh u - (2n + 1) u - log sinh u, convex in u, so its
    minimum sits at the one root of pi c cosh u = 2n + 1 + coth u, found by
    bisection. With c = 0 (a constant f) the bound falls to 0 as rho grows.
    """
    if cycles == 0:
        return -math.inf

    def slope(u):
        return math.pi * cycles * math.cosh(u) - (2 * nodes + 1) - 1.0 / math.tanh(u)

    lo, hi = 0.0, 1.0
    while slope(hi) < 0:
        lo, hi = hi, 2 * hi
    for _ in range(64):
        mid = (lo + hi) / 2
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (math.log(16 / 15) + math.pi * cycles * math.sinh(hi)
            - (2 * nodes + 1) * hi - math.log(math.sinh(hi)))


@functools.cache
def _nodes_for_cycles(cycles: int) -> int:
    """The smallest n whose truncation bound is at most TRUNCATION_TOL.

    Integer cycles keep the cache small and give every panel near the
    _PANEL_CYCLES cap the same rule: n(64) = 133.
    """
    def enough(n):
        return _log_truncation_bound(cycles, n) <= math.log(TRUNCATION_TOL)

    lo, hi = 0, 1              # the bound falls as n grows: bisect on n
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def _panel_sums(f, edges: np.ndarray, nodes: int, threads: int,
                deadline=None) -> complex:
    """Gauss-Legendre with the given node count over every panel.

    The panels are equal, of half-width h = (edges[-1] - edges[0]) /
    (2 * n_panels). f is called once per chunk of panels as f(t, mid, off):
    mid the chunk's panel midpoints, off = h * x for the n Gauss-Legendre
    nodes x, and t = (mid[:, None] + off[None, :]).ravel(), the flat lattice
    that an integrand needing only t reads. Chunks hold about _CHUNK_POINTS
    points and partial sums are combined in chunk-index order, so the result
    is bit-identical for any thread count. deadline, if given, is called
    before each chunk and may raise to abandon the integral.
    """
    xs, ws = _leggauss(nodes)
    n_panels = len(edges) - 1
    h = (edges[-1] - edges[0]) / (2 * n_panels)
    off = h * xs
    per_chunk = max(1, _CHUNK_POINTS // nodes)

    def one_chunk(start: int) -> complex:
        if deadline is not None:
            deadline()
        stop = min(start + per_chunk, n_panels)
        mid = (edges[start:stop] + edges[start + 1:stop + 1]) / 2
        t = (mid[:, None] + off[None, :]).ravel()
        vals = np.broadcast_to(np.asarray(f(t, mid, off), dtype=complex), t.shape)
        # einsum rather than matmul: BLAS would add threads of its own
        panel = np.einsum("ij,j->i", vals.reshape(-1, nodes), ws) * h
        return complex(np.sum(panel))

    total = complex(0)
    # parts arrive in chunk order, whatever thread ran each chunk
    for part in ordered_map(one_chunk, range(0, n_panels, per_chunk), threads):
        total += part
    return total


def oscillatory_integral(f, spec: QuadratureSpec, *, threads: int = 1,
                         deadline=None) -> complex:
    """Integrate a vectorized complex integrand f over [spec.lo, spec.hi].

    f is called as f(t, mid, off) on the panel lattice (see _panel_sums) and
    returns the values at the flat points t, or a scalar broadcast to them.

    The range is cut into equal panels of c <= _PANEL_CYCLES cycles of
    max_frequency (a single panel when max_frequency == 0) and integrated
    once, every panel with the same n = _nodes_for_cycles(ceil(c)) nodes.
    For any f of exponential type 2 pi max_frequency that is bounded on the
    real line (an entire function such as Theta(t) times trigonometric sums
    of frequencies up to max_frequency) the truncation error is then at most
    TRUNCATION_TOL * sup|f| * (hi - lo) (see _log_truncation_bound). Other
    integrands get no such guarantee; one analytic near each panel, such as
    a polynomial times e(x t) between the kernel's knots, or e(t y^k),
    typically comes out to a similar accuracy. Since n is monotone in the
    cycles, no panel takes more than _nodes_for_cycles(_PANEL_CYCLES) = 133
    nodes. deadline, if given, is called before each chunk of integrand
    evaluations (see _panel_sums).
    """
    cycles = (spec.hi - spec.lo) * spec.max_frequency
    n_panels = max(1, math.ceil(cycles / _PANEL_CYCLES))
    nodes = _nodes_for_cycles(math.ceil(cycles / n_panels))
    edges = np.linspace(spec.lo, spec.hi, n_panels + 1)
    return _panel_sums(f, edges, nodes, threads, deadline)
