"""Foundational numerics: phase sums, smoothing kernel, continued fractions, quadrature.

e2pi is e(u) = exp(2*pi*i*u) with the phase reduced first, and phase_sum the
one evaluator of the weighted sums sum_j w_j e(t b_j) along a grid of t.

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

The oscillatory quadrature cuts its range into panels of many cycles of the
integrand's top frequency and takes each panel's Gauss-Legendre node count
from the cycles it holds (see oscillatory_integral).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from .errors import NonConvergence

_SNAP_TOL = 1e-9          # continued-fraction integer snap (see cf_convergents)
_MAX_CF_DEN = 10 ** 15    # denominators beyond double resolution are noise

# Quadrature panels span at most this many cycles of the top frequency.
_PANEL_CYCLES = 64
_NODES_INIT = 8    # node counts per panel are _NODES_INIT * 2^j
# Integrand points per quadrature chunk. Chunk boundaries depend on the node
# count alone, so the reduction order, and with it every bit of the result,
# is the same for any thread count; with phase_sum's blocks the bound also
# caps working memory for any table size.
_CHUNK_POINTS = 1 << 16
# Phase entries (t values x base terms) per block of a phase_sum.
_BLOCK_ENTRIES = 1 << 21


def e2pi(u):
    """exp(2*pi*i*u) elementwise; reducing u - rint(u) first keeps large
    arguments at full precision and makes e2pi(-u) the exact conjugate."""
    return np.exp((2j * np.pi) * (u - np.rint(u)))


def phase_sum(ts, base, w) -> np.ndarray:
    """sum_j w_j e(t * base_j) at each t of ts, as a complex array.

    One einsum per block of about _BLOCK_ENTRIES phase entries. einsum sums
    each row on its own and runs no BLAS threads, so phase_sum([t]) equals
    the entry at t of any longer call; an empty base gives zeros.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty(len(ts), dtype=complex)
    block = max(1, _BLOCK_ENTRIES // max(1, len(base)))
    for s in range(0, len(ts), block):
        out[s:s + block] = np.einsum("ij,j->i", e2pi(ts[s:s + block, None] * base), w)
    return out


@dataclass(frozen=True)
class SmoothingKernel:
    """Compactly supported bump of half-width epsilon and smoothness order l."""

    epsilon: float
    l: int

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if self.l < 1:
            raise ValueError("l must be >= 1")


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


def kernel_fourier(kern: SmoothingKernel, x):
    """Theta(x), closed form; accepts a scalar or ndarray, value 7e/4 at x=0."""
    eps, l = kern.epsilon, kern.l
    x = np.asarray(x, dtype=float)
    out = (7 * eps / 4) * np.sinc(7 * eps * x / 4) * np.sinc(eps * x / (4 * l)) ** l
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Panelized quadrature request for a possibly oscillatory integrand.

    max_frequency bounds |d/dt of the phase in cycles| over [lo, hi]; the
    panels and their node counts follow the cycles it implies (see
    oscillatory_integral).
    """

    lo: float
    hi: float
    max_frequency: float
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.max_frequency < 0 or not math.isfinite(self.max_frequency):
            raise ValueError("max_frequency must be finite and >= 0")
        if not (0 < self.rel_tol <= 0.1):
            raise ValueError("rel_tol must be in (0, 0.1]")


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _panel_sums(f, edges: np.ndarray, nodes: int, threads: int,
                deadline=None) -> tuple[complex, float]:
    """Gauss-Legendre over every panel; returns (integral of f, integral of |f|).

    Panels are processed in chunks of about _CHUNK_POINTS integrand points and
    partial sums are combined in chunk-index order, so the result is
    bit-identical for any thread count. deadline, if given, is called before
    each chunk and may raise to abandon the integral.
    """
    xs, ws = _leggauss(nodes)
    n_panels = len(edges) - 1
    per_chunk = max(1, _CHUNK_POINTS // nodes)

    def one_chunk(start: int) -> tuple[complex, float]:
        if deadline is not None:
            deadline()
        stop = min(start + per_chunk, n_panels)
        e0, e1 = edges[start:stop], edges[start + 1:stop + 1]
        mid = (e0 + e1) / 2
        half = (e1 - e0) / 2
        t = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
        vals = np.broadcast_to(np.asarray(f(t), dtype=complex), t.shape)
        vals = vals.reshape(-1, nodes)
        # einsum rather than matmul: BLAS would add threads of its own
        panel = np.einsum("ij,j->i", vals, ws) * half
        mass = np.einsum("ij,j->i", np.abs(vals), ws) * half
        return complex(np.sum(panel)), float(np.sum(mass))

    total = complex(0)
    mass = 0.0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # map yields in chunk order, whatever thread ran each chunk
        for part, m in pool.map(one_chunk, range(0, n_panels, per_chunk)):
            total += part
            mass += m
    return total, mass


def oscillatory_integral(f, spec: QuadratureSpec, *, threads: int = 1,
                         nodes_cap: int = 1024, deadline=None) -> complex:
    """Integrate a vectorized complex integrand f over [spec.lo, spec.hi].

    The range is cut into equal panels of at most _PANEL_CYCLES cycles of
    max_frequency (a single panel when max_frequency == 0). A Gauss-Legendre
    rule with n nodes is exact to degree 2n - 1, and e(x t) over c cycles
    needs a degree a little above pi*c, so panels start at n nodes, the
    smallest _NODES_INIT * 2^j with at least two nodes per cycle, and are
    compared with 2n nodes; a panel of fewer cycles gets fewer nodes. The
    estimates agree to rel_tol * scale on the first comparison for any
    integrand band-limited to max_frequency; otherwise n doubles until they
    do. scale = max(|estimate|, 1e-3 * integral of |f|), so integrals that
    cancel to about zero still converge. Raises NonConvergence once 2n would
    exceed nodes_cap, before any evaluation when nodes_cap < 2n at the start.
    deadline, if given, is called before each chunk of integrand evaluations
    (see _panel_sums).
    """
    cycles = (spec.hi - spec.lo) * spec.max_frequency
    n_panels = max(1, math.ceil(cycles / _PANEL_CYCLES))
    edges = np.linspace(spec.lo, spec.hi, n_panels + 1)
    start = _NODES_INIT
    while start < 2.0 * cycles / n_panels:
        start *= 2

    nodes = start
    if 2 * nodes <= nodes_cap:
        prev, _ = _panel_sums(f, edges, nodes, threads, deadline)
    while 2 * nodes <= nodes_cap:
        nodes *= 2
        cur, mass = _panel_sums(f, edges, nodes, threads, deadline)
        if abs(cur - prev) <= spec.rel_tol * max(abs(cur), 1e-3 * mass):
            return cur
        prev = cur
    raise NonConvergence(
        f"no agreement to rel_tol={spec.rel_tol} within {nodes_cap} nodes/panel "
        f"({n_panels} panels of {cycles / n_panels:.4g} cycles on "
        f"[{spec.lo}, {spec.hi}], starting at {start} nodes)")
