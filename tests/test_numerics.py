"""Kernel, continued-fraction, and quadrature tests.

Oracles used here:
  - conv_oracle: the kernel definition itself, numerically convolving the
    indicator with l boxes on a fine grid (independent of the CDF evaluation).
  - fourier_quad_oracle: direct quadrature of kernel_eval against e(-xy),
    panelized at the polynomial knots and at quarter oscillation periods.
  - Fraction-based CF recurrence and exhaustive denominator scans.
  - fsum_phase_sum: math.fsum over cos and sin, term by term, for phase sums.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psquintet import numerics
from psquintet.errors import BudgetExceeded
from psquintet.numerics import (
    TRUNCATION_TOL,
    QuadratureSpec,
    SmoothingKernel,
    cf_convergents,
    dirichlet_approx,
    e2pi,
    kernel_eval,
    kernel_fourier,
    kernel_fourier_bound,
    oscillatory_integral,
    phase_sum,
)


def conv_oracle(eps, l, ys):
    # indicator of [-7e/8, 7e/8] convolved with l normalized boxes of width e/(4l)
    n = 1 << 17
    span = 1.25 * eps
    dx = 2 * span / n
    x = -span + dx * np.arange(n + 1)
    f = ((x >= -7 * eps / 8) & (x <= 7 * eps / 8)).astype(float)
    m = max(1, round(eps / (8 * l) / dx))
    box = np.full(2 * m + 1, 1.0 / (2 * m + 1))
    for _ in range(l):
        f = np.convolve(f, box, mode="same")
    return np.interp(ys, x, f)


def fourier_quad_oracle(kern, x):
    """integral of theta(y) e(-xy) dy by knot- and oscillation-aware panels."""
    eps, l = kern.epsilon, kern.l
    w = eps / (4 * l)
    knots = {-eps, eps}
    for sgn in (-1.0, 1.0):
        for j in range(l + 1):
            knots.add(sgn * 7 * eps / 8 + (j - l / 2) * w)
    knots = sorted(k for k in knots if -eps <= k <= eps)
    xs, ws = np.polynomial.legendre.leggauss(24)
    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a <= 0:
            continue
        m = max(1, math.ceil(abs(x) * (b - a) * 4))
        edges = np.linspace(a, b, m + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            mid, half = (e0 + e1) / 2, (e1 - e0) / 2
            t = mid + half * xs
            th = np.array([kernel_eval(kern, float(y)) for y in t])
            pieces.append(half * np.sum(th * ws * np.exp(-2j * np.pi * x * t)))
    return math.fsum(p.real for p in pieces)


class TestKernelEval:
    def test_plateau_support_midpoint(self):
        kern = SmoothingKernel(0.1, 3)
        assert kernel_eval(kern, 0.0) == 1.0
        assert kernel_eval(kern, 0.1) == 0.0
        assert kernel_eval(kern, -0.1) == 0.0
        # half the smearing mass sits inside the indicator at y = 7e/8
        assert kernel_eval(kern, 7 * 0.1 / 8) == pytest.approx(0.5, abs=1e-13)

    def test_transition_value_against_convolution(self):
        kern = SmoothingKernel(0.1, 2)
        ys = np.array([0.08, -0.08, 0.076, 0.09, 0.095])
        want = conv_oracle(0.1, 2, ys)
        got = np.array([kernel_eval(kern, float(y)) for y in ys])
        assert np.allclose(got, want, atol=2e-3)
        assert 0.0 < got[0] < 1.0

    def test_even(self):
        kern = SmoothingKernel(0.37, 5)
        for y in (0.01, 0.2, 0.3, 0.35):
            assert kernel_eval(kern, y) == kernel_eval(kern, -y)

    def test_regime_property(self):
        # the three regimes decided exactly, 1000 random (eps, l, y)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            eps = float(10.0 ** rng.uniform(-3, 0))
            l = int(rng.integers(1, 9))
            y = float(rng.uniform(-1.2, 1.2) * eps)
            val = kernel_eval(SmoothingKernel(eps, l), y)
            ay = abs(Fraction(y))
            if ay <= 3 * Fraction(eps) / 4:
                assert val == 1.0
            elif ay >= Fraction(eps):
                assert val == 0.0
            else:
                assert 0.0 < val < 1.0


class TestKernelFourier:
    def test_at_zero_and_first_sinc_zero(self):
        kern = SmoothingKernel(0.1, 5)
        assert kernel_fourier(kern, 0.0) == pytest.approx(7 * 0.1 / 4, rel=1e-15)
        x0 = 4 / (7 * 0.1)
        assert abs(kernel_fourier(kern, x0)) < 1e-16

    def test_quadrature_consistency_spot(self):
        kern = SmoothingKernel(0.1, 2)
        got = kernel_fourier(kern, 1.0)
        want = fourier_quad_oracle(kern, 1.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_quadrature_consistency_sampled(self):
        # relative 1e-8 across the conditioned part of the decay range
        for eps, l in ((0.1, 2), (0.01, 4)):
            kern = SmoothingKernel(eps, l)
            for x in np.geomspace(1e-2 / eps, 30 / eps, 9):
                got = kernel_fourier(kern, float(x))
                want = fourier_quad_oracle(kern, float(x))
                assert got == pytest.approx(want, rel=1e-8), (eps, l, x)

    def test_bound_property(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            eps = float(10.0 ** rng.uniform(-3, 0))
            l = int(rng.integers(1, 9))
            x = float(10.0 ** rng.uniform(-2, 2) / eps) * (1 if rng.random() < 0.5 else -1)
            kern = SmoothingKernel(eps, l)
            assert abs(kernel_fourier(kern, x)) <= kernel_fourier_bound(kern, x)


def cf_oracle(frac: Fraction, n: int):
    # plain integer CF recurrence on an exact rational input
    out = []
    h, hp = 1, 0
    k, kp = 0, 1
    x = frac
    for _ in range(n):
        a = math.floor(x)
        h, hp = a * h + hp, h
        k, kp = a * k + kp, k
        out.append(Fraction(h, k))
        if x == a:
            break
        x = 1 / (x - a)
    return out


class TestContinuedFractions:
    def test_sqrt2(self):
        assert cf_convergents(math.sqrt(2), 4) == [
            Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(17, 12)]

    def test_exact_rational_terminates(self):
        assert cf_convergents(7 / 3, 10) == [Fraction(2), Fraction(7, 3)]
        assert cf_convergents(0.5, 10) == [Fraction(0), Fraction(1, 2)]

    def test_golden_ratio(self):
        phi = (1 + math.sqrt(5)) / 2
        assert cf_convergents(phi, 5) == [
            Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(8, 5)]

    def test_matches_exact_recurrence_on_rationals(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            num = int(rng.integers(-500, 500))
            den = int(rng.integers(1, 60))
            frac = Fraction(num, den)
            got = cf_convergents(num / den, 12)
            assert got == cf_oracle(frac, 12)

    def test_convergent_quality_and_alternation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            alpha = float(rng.uniform(-50, 50)) + math.pi / 7  # keep it irrational-ish
            exact = Fraction(alpha)
            convs = cf_convergents(alpha, 10)
            for r in convs:
                assert abs(exact - r) < Fraction(1, r.denominator ** 2)
            signs = [exact - r for r in convs if exact != r]
            for s0, s1 in zip(signs, signs[1:]):
                assert s0 * s1 <= 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            cf_convergents(math.inf, 3)


class TestDirichletApprox:
    def test_examples(self):
        assert dirichlet_approx(math.sqrt(2), 10) == Fraction(7, 5)
        assert dirichlet_approx(0.5, 10) == Fraction(1, 2)
        assert dirichlet_approx(math.pi, 10) == Fraction(22, 7)

    def test_posted_bound_and_scan_optimality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            alpha = float(rng.uniform(0, 1))
            for Q in (10, 100):
                r = dirichlet_approx(alpha, Q)
                q, a = r.denominator, r.numerator
                assert 1 <= q <= Q
                assert abs(alpha - a / q) <= 1 / (q * (Q + 1)) + 1e-15
                # optimal in |q*alpha - a| among all q' <= Q
                best = min(abs(qq * alpha - round(qq * alpha)) for qq in range(1, Q + 1))
                assert abs(q * alpha - a) <= best + 1e-12


@st.composite
def quadrature_ranges(draw):
    """(lo, hi, max_frequency) up to 1e12 cycles a unit, with up to 200
    panels of cycles; some land just above a multiple of _PANEL_CYCLES."""
    freq = draw(st.floats(1e-5, 1e12))
    whole = draw(st.integers(0, 199)) * numerics._PANEL_CYCLES
    extra = draw(st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 64.0)))
    lo = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
    hi = lo + (whole + extra) / freq
    assume(lo < hi)
    return lo, hi, freq


class TestOscillatoryIntegral:
    def test_constant(self):
        got = oscillatory_integral(lambda t, *_: np.ones_like(t),
                                   QuadratureSpec(0.0, 1.0, 0.0))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_full_period_cancels(self):
        got = oscillatory_integral(lambda t, *_: np.exp(2j * np.pi * t),
                                   QuadratureSpec(0.0, 1.0, 1.0))
        assert abs(got) < 1e-9

    def test_fresnel_against_riemann(self):
        f = lambda t, *_: np.exp(2j * np.pi * t * t)
        got = oscillatory_integral(f, QuadratureSpec(5.0, 10.0, 20.0))
        n = 10 ** 6
        dt = 5.0 / n
        mid = 5.0 + dt * (np.arange(n) + 0.5)
        want = np.sum(f(mid)) * dt
        assert got == pytest.approx(want, abs=2e-6)

    def test_thread_count_does_not_change_bits(self):
        f = lambda t, *_: np.exp(2j * np.pi * 37.0 * t) / (1 + t * t)
        spec = QuadratureSpec(0.0, 3.0, 37.0)
        a = oscillatory_integral(f, spec, threads=1)
        b = oscillatory_integral(f, spec, threads=4)
        assert a == b

    @pytest.mark.parametrize("freq", [32.0, 37.0])
    def test_whole_cycles_cancel_over_many_panels(self, freq):
        # 32 puts exactly 64 cycles in each of the 50 panels, so every panel
        # integral is ~0, far below sup|f| times the panel length
        got = oscillatory_integral(lambda t, *_: np.exp(2j * np.pi * freq * t),
                                   QuadratureSpec(0.0, 100.0, freq))
        assert abs(got) < 1e-9

    def test_multi_frequency_closed_form(self):
        freqs = (-39.5, 17.25, 3.125, 40.0)
        amps = (0.75, 2.0, -1.5j, 1.0)
        lo, hi = 0.3, 64.7

        def f(t, *_):
            return sum(a * np.exp(2j * np.pi * (nu * t - np.rint(nu * t)))
                       for a, nu in zip(amps, freqs))

        spec = QuadratureSpec(lo, hi, 40.0)
        got = oscillatory_integral(f, spec)
        with mpmath.workdps(30):
            want = complex(mpmath.fsum(
                a * (mpmath.expjpi(2 * mpmath.mpf(nu) * hi)
                     - mpmath.expjpi(2 * mpmath.mpf(nu) * lo))
                / (2j * mpmath.pi * nu) for a, nu in zip(amps, freqs)))
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_thread_count_invariance_with_more_chunks_than_threads(self):
        calls = []

        def f(t, *_):
            calls.append(len(t))
            return np.exp(2j * np.pi * 37.0 * t) / (1 + t * t)

        spec = QuadratureSpec(0.0, 3000.0, 37.0)
        one = oscillatory_integral(f, spec, threads=1)
        chunks = len(calls)
        three = oscillatory_integral(f, spec, threads=3)
        assert chunks > 3              # one node level, over > 3 chunks
        assert sorted(calls[chunks:]) == sorted(calls[:chunks])
        assert one == three

    def test_nodes_follow_cycles_per_panel(self):
        # n(c) for the whole cycles ceil(c) a panel holds; 2.5 cycles take
        # the rule of 3, and a constant (0 cycles) one node
        for freq, nodes in [(0.0, 1), (2.5, 17), (3.0, 17), (5.0, 22), (20.0, 54),
                            (64.0, 133), (6400.0, 133)]:
            calls = []

            def f(t, *_):
                calls.append(len(t))
                return np.ones_like(t, dtype=complex)

            oscillatory_integral(f, QuadratureSpec(0.0, 1.0, freq))
            panels = max(1, math.ceil(freq / 64))
            assert calls == [nodes * panels], freq

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(quadrature_ranges())
    def test_no_panel_takes_more_than_the_64_cycle_rule(self, case):
        # every panel holds at most _PANEL_CYCLES cycles, so no rule is
        # larger than n(64) = 133 nodes, whatever the range and frequency
        lo, hi, freq = case
        top = numerics._nodes_for_cycles(numerics._PANEL_CYCLES)
        assert top == 133
        panels, nodes = [], set()

        def f(t, mid, off):
            assert len(t) == len(mid) * len(off)
            panels.append(len(mid))
            nodes.add(len(off))
            return np.ones_like(t, dtype=complex)

        oscillatory_integral(f, QuadratureSpec(lo, hi, freq))
        assert len(nodes) == 1 and max(nodes) <= top
        assert (hi - lo) * freq / sum(panels) <= numerics._PANEL_CYCLES

    @pytest.mark.parametrize("cycles", [1, 3, 17, 63, 64])
    def test_node_count_is_the_smallest_within_tolerance(self, cycles):
        n = numerics._nodes_for_cycles(cycles)
        log_tol = math.log(TRUNCATION_TOL)
        assert numerics._log_truncation_bound(cycles, n) <= log_tol
        assert numerics._log_truncation_bound(cycles, n - 1) > log_tol

    @pytest.mark.parametrize("cycles,nodes", [(1, 10), (17, 49), (64, 133), (64, 266)])
    def test_truncation_bound_is_its_minimum_over_rho(self, cycles, nodes):
        # the bisection's minimum against the formula on a fine grid of rho
        rho = 1.0 + np.geomspace(1e-6, 1e3, 200_001)
        grid = (math.log(32 / 15) + (np.pi * cycles / 2) * (rho - 1 / rho)
                - 2 * nodes * np.log(rho) - np.log(rho * rho - 1))
        got = numerics._log_truncation_bound(cycles, nodes)
        assert got <= np.min(grid) + 1e-12
        assert got >= np.min(grid) - 1e-6

    def test_bound_holds_on_the_multi_frequency_closed_form(self):
        # f has type 2 pi * 40 and |f| <= sum |a| on the real line. 20 and 30
        # nodes below the rule the truncation error is far above rounding;
        # at the rule |I_n - I_2n| is rounding, allowed for as the phase
        # error of nu * t (t up to hi) plus the sums' roundings
        freqs = (-39.5, 17.25, 3.125, 40.0)
        amps = (0.75, 2.0, -1.5j, 1.0)
        lo, hi = 0.3, 64.7

        def f(t, *_):
            return sum(a * np.exp(2j * np.pi * (nu * t - np.rint(nu * t)))
                       for a, nu in zip(amps, freqs))

        panels = math.ceil((hi - lo) * 40.0 / 64)
        cycles = math.ceil((hi - lo) * 40.0 / panels)
        rule = numerics._nodes_for_cycles(cycles)
        edges = np.linspace(lo, hi, panels + 1)
        scale = sum(abs(a) for a in amps) * (hi - lo)
        assert math.exp(numerics._log_truncation_bound(cycles, rule)) <= TRUNCATION_TOL
        with mpmath.workdps(30):
            want = complex(mpmath.fsum(
                a * (mpmath.expjpi(2 * mpmath.mpf(nu) * hi)
                     - mpmath.expjpi(2 * mpmath.mpf(nu) * lo))
                / (2j * mpmath.pi * nu) for a, nu in zip(amps, freqs)))
        for n in (rule - 30, rule - 20, rule):
            one = numerics._panel_sums(f, edges, n, 1)
            two = numerics._panel_sums(f, edges, 2 * n, 1)
            trunc = scale * sum(math.exp(numerics._log_truncation_bound(cycles, m))
                                for m in (n, 2 * n))
            rounding = 2.0 ** -52 * (hi - lo) * (
                2 * math.pi * hi * sum(abs(a * nu) for a, nu in zip(amps, freqs))
                + (8 + 3 * n + 2 * panels) * sum(abs(a) for a in amps))
            assert abs(one - two) <= trunc + rounding, n
            assert abs(one - want) <= trunc + rounding, n
            assert abs(one - two) > rounding or n == rule, n
        assert one == oscillatory_integral(f, QuadratureSpec(lo, hi, 40.0))

    def test_deadline_stops_between_chunks(self):
        # 15 chunks; the fourth check raises, and so does every check after
        # it, so no chunk past the third reaches the integrand
        ticks, calls = [], []

        def deadline():
            ticks.append(1)
            if len(ticks) > 3:
                raise BudgetExceeded("time budget exhausted")

        def f(t, *_):
            calls.append(len(t))
            return np.exp(2j * np.pi * 37.0 * t)

        with pytest.raises(BudgetExceeded):
            oscillatory_integral(f, QuadratureSpec(0.0, 3000.0, 37.0),
                                 deadline=deadline)
        assert len(calls) == 3
        assert len(ticks) >= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, 0.0, 1.0)


def fsum_phase_sum(base, w, t):
    """fsum-based reference evaluation, no vectorization shortcuts."""
    re = math.fsum(wi * math.cos(2 * math.pi * t * b) for b, wi in zip(base, w))
    im = math.fsum(wi * math.sin(2 * math.pi * t * b) for b, wi in zip(base, w))
    return complex(re, im)


PRIMES = np.array([p for p in range(2, 400)
                   if all(p % d for d in range(2, int(p ** 0.5) + 1))])
BASE = PRIMES.astype(np.float64) ** 2
WEIGHTS = np.log(PRIMES.astype(np.float64))
SCAN = np.linspace(-0.37, 0.51, 300)


class TestPhaseSum:
    def test_e2pi_reduces_the_phase(self):
        u = np.array([0.0, 0.25, -0.25, 0.5, 3.125, 1e12 + 0.25])
        got = e2pi(u)
        assert got[0] == 1.0
        assert got[1] == pytest.approx(1j, abs=1e-15)
        assert got[2] == np.conj(got[1])
        assert got[3] == pytest.approx(-1.0, abs=1e-15)
        assert got[4] == pytest.approx(np.exp(0.25j * np.pi), abs=1e-15)
        # 1e12 + 0.25 is exact in binary, so the reduced phase is exactly 0.25
        assert got[5] == got[1]
        assert np.array_equal(e2pi(-u), np.conj(got))

    def test_matches_fsum_reference(self):
        got = phase_sum(SCAN, BASE, WEIGHTS)
        scale = math.fsum(WEIGHTS)
        for t, v in zip(SCAN, got):
            assert abs(v - fsum_phase_sum(BASE, WEIGHTS, t)) <= 1e-11 * scale

    def test_empty_base(self):
        got = phase_sum(SCAN, np.empty(0), np.empty(0))
        assert got.dtype == complex
        assert np.array_equal(got, np.zeros(len(SCAN)))
        assert len(phase_sum([], BASE, WEIGHTS)) == 0

    @pytest.mark.parametrize("entries", [1, len(BASE) - 1, 7 * len(BASE) + 3,
                                         1 << 12])
    def test_rows_ignore_the_block(self, monkeypatch, entries):
        ref = phase_sum(SCAN, BASE, WEIGHTS)
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", entries)
        got = phase_sum(SCAN, BASE, WEIGHTS)
        assert np.array_equal(got, ref)
        for t, v in zip(SCAN, got):
            assert phase_sum([t], BASE, WEIGHTS)[0] == v


def mp_legendre_root(n, x0):
    """Root of P_n near x0 and its Gauss weight, by Newton's method on the
    three-term recurrence at 40 digits (run under mpmath.workdps(40))."""
    x = mpmath.mpf(x0)
    for step in range(4):
        p0, p1 = mpmath.mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (p0 - x * p1) / (1 - x * x)
        if step < 3:
            x -= p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


class TestLegGauss:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17, 64, 255, 256, 1024])
    def test_matches_mpmath_reference(self, n):
        xs, ws = numerics._leggauss(n)
        assert len(xs) == len(ws) == n
        # every node for small n; for large n the twelve nodes at each end
        # of [0, 1) and a spread between them
        half = range(n // 2, n)
        if n > 64:
            half = sorted({*half[:12], *half[-12:], *half[::n // 16]})
        with mpmath.workdps(40):
            for i in half:
                x, w = mp_legendre_root(n, float(xs[i]))
                if abs(x) < 1e-30:
                    assert xs[i] == 0.0
                else:
                    assert abs(xs[i] - x) <= 8 * np.spacing(abs(float(x))), (n, i)
                assert abs(ws[i] - w) <= 2e-14 * w, (n, i)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64, 256, 1024])
    def test_exact_for_degree_below_2n(self, n):
        # odd powers cancel exactly, since the rule is exactly symmetric;
        # x^j carries j times the nodes' rounding into each term
        xs, ws = numerics._leggauss(n)
        for j in range(0, 2 * n, 2):
            terms = ws * xs ** j
            scale = math.fsum(terms)
            assert abs(scale - 2.0 / (j + 1)) <= 1e-16 * (j + 20) * scale, (n, j)

    @pytest.mark.parametrize("n", [1, 4, 7, 128])
    def test_ascending_and_exactly_symmetric(self, n):
        xs, ws = numerics._leggauss(n)
        assert np.all(np.diff(xs) > 0)
        assert np.array_equal(xs, -xs[::-1])
        assert np.array_equal(ws, ws[::-1])
        if n % 2:
            assert xs[n // 2] == 0.0 and math.copysign(1.0, xs[n // 2]) == 1.0

    def test_runs_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        xs, ws = numerics._leggauss.__wrapped__(33)
        assert math.fsum(ws) == pytest.approx(2.0, abs=1e-15)


class TestLatticePhaseSum:
    MID = np.linspace(3.0, 41.0, 37)
    OFF = 0.25 * np.polynomial.legendre.leggauss(16)[0]

    def test_matches_phase_sum_on_the_flat_lattice(self):
        got = numerics.lattice_phase_sum(self.MID, self.OFF, BASE, WEIGHTS)
        t = (self.MID[:, None] + self.OFF[None, :]).ravel()
        flat = phase_sum(t, BASE, WEIGHTS)
        # both round phases of size |t b| once or twice per term
        tol = 8 * 2.0 ** -52 * np.max(np.abs(t)) * np.max(BASE) * math.fsum(WEIGHTS)
        assert got.shape == (len(self.MID), len(self.OFF))
        assert np.max(np.abs(got.ravel() - flat)) <= tol

    @pytest.mark.parametrize("entries", [1, len(BASE) - 1, 5 * len(BASE) + 3,
                                         40 * len(BASE), 1 << 12])
    def test_entries_ignore_the_block(self, monkeypatch, entries):
        ref = numerics.lattice_phase_sum(self.MID, self.OFF, BASE, WEIGHTS)
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", entries)
        got = numerics.lattice_phase_sum(self.MID, self.OFF, BASE, WEIGHTS)
        assert np.array_equal(got, ref)

    def test_phase_sum_is_the_one_offset_case(self):
        got = numerics.lattice_phase_sum(SCAN, np.zeros(1), BASE, WEIGHTS)
        assert np.array_equal(got[:, 0], phase_sum(SCAN, BASE, WEIGHTS))


class TestLatticeHandOff:
    @pytest.mark.parametrize("lo,hi,freq", [(0.0, 1.0, 3.0), (0.3, 3000.0, 37.0),
                                            (-2.0, 5.0, 640.0)])
    def test_integrand_sees_the_panel_lattice(self, lo, hi, freq):
        seen = []

        def f(t, mid, off):
            seen.append((t.copy(), mid.copy(), off.copy()))
            return np.exp(2j * np.pi * freq * t)

        spec = QuadratureSpec(lo, hi, freq)
        oscillatory_integral(f, spec)
        n_panels = max(1, math.ceil((hi - lo) * freq / 64))
        edges = np.linspace(lo, hi, n_panels + 1)
        h = (hi - lo) / (2 * n_panels)
        points = {}
        for t, mid, off in seen:
            nodes = len(off)
            assert np.array_equal(off, h * numerics._leggauss(nodes)[0])
            assert np.array_equal(t, (mid[:, None] + off[None, :]).ravel())
            points[nodes] = points.get(nodes, 0) + len(t)
            mids = points.setdefault(("mid", nodes), [])
            mids.extend(mid)
        # one node level, and every panel midpoint once, in panel order
        assert len({len(off) for _, _, off in seen}) == 1
        for nodes in {len(off) for _, _, off in seen}:
            assert points[nodes] == n_panels * nodes
            assert np.array_equal(points[("mid", nodes)], (edges[:-1] + edges[1:]) / 2)
