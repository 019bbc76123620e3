import csv
import math

import numpy as np
import pytest

from psquintet import (
    AdmissibilityError,
    Family,
    GapKind,
    SpecMismatch,
    SumSpec,
    asym_gap,
    build_table,
    eval_sum,
    export_tscan,
    growth_ladder,
    moment_integral,
    sieve_primes,
    tscan,
    window_bounds,
)


def quartic_moment_oracle(base, w):
    """Exact value of the full-period quartic moment of sum w_j e(t b_j).

    Integrating |.|^4 over t in [0,1) kills every frequency except
    b_i + b_j = b_k + b_l, so the moment equals the sum over equal-pair-sum
    groups of (group pair-weight)^2. base must be integer so that grouping
    is exact.
    """
    base = np.asarray(base, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    s = (base[:, None] + base[None, :]).ravel()
    pw = (w[:, None] * w[None, :]).ravel()
    order = np.argsort(s, kind="stable")
    s, pw = s[order], pw[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    return float(np.sum(np.add.reduceat(pw, starts) ** 2))


def direct_sum(base, w, t):
    """fsum-based reference evaluation, no vectorization shortcuts."""
    re = math.fsum(wi * math.cos(2 * math.pi * t * b) for b, wi in zip(base, w))
    im = math.fsum(wi * math.sin(2 * math.pi * t * b) for b, wi in zip(base, w))
    return complex(re, im)


U_SPEC = SumSpec(Family.U, 2, 100.0, 0.25)
I_SPEC = SumSpec(Family.I, 2, 100.0, 0.25)


class TestEvalSum:
    def test_u_count_at_zero(self):
        # integers with 25 < n^2 <= 100 are 6..10
        assert eval_sum(U_SPEC, 0.0) == pytest.approx(5.0, abs=1e-14)

    def test_u_alternating_at_half(self):
        # e(n^2/2) = (-1)^n over n = 6..10
        assert eval_sum(U_SPEC, 0.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k, x_max, lambda0, want", [
        (2, 100.0, 0.25, 5.0),
        (2, 1000.0, 0.1, 1000.0 ** 0.5 - 100.0 ** 0.5),
        (3, 1000.0, 0.1, 10.0 - 100.0 ** (1 / 3)),
        (4, 1000.0, 0.1, 1000.0 ** 0.25 - 100.0 ** 0.25),
    ])
    def test_i_window_length_at_zero(self, k, x_max, lambda0, want):
        # I(0) is the length of the window lambda0*X < y^k <= X
        got = eval_sum(SumSpec(Family.I, k, x_max, lambda0), 0.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_sigma_chebyshev_value(self):
        primes = sieve_primes(*window_bounds(200.0, 0.02, 2))
        spec = SumSpec(Family.Sigma, 2, 200.0, 0.02)
        want = math.fsum(math.log(p) for p in (3, 5, 7, 11, 13))
        got = eval_sum(spec, 0.0, primes)
        assert got.real == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(9.6167, abs=2e-4)

    def test_s_single_entry_value(self):
        gamma = 0.9
        table = build_table(gamma, 100.0, 0.25, 2)
        assert list(table.primes) == [7]
        spec = SumSpec(Family.S, 2, 100.0, 0.25, gamma)
        want = 7 ** 0.1 * math.log(7)
        assert eval_sum(spec, 0.0, table) == pytest.approx(want, rel=1e-14)
        assert abs(eval_sum(spec, 0.0, table)) == pytest.approx(2.3640, abs=2e-4)
        # single entry: |S(t)| is t-independent
        assert abs(eval_sum(spec, 0.37, table)) == pytest.approx(want, rel=1e-12)

    def test_sigma_integer_periodicity_exact(self):
        primes = sieve_primes(*window_bounds(500.0, 0.1, 2))
        spec = SumSpec(Family.Sigma, 2, 500.0, 0.1)
        base = eval_sum(spec, 0.0, primes)
        for m in (1, 2, -3, 17):
            assert eval_sum(spec, float(m), primes) == base

    def test_matches_fsum_reference(self):
        primes = sieve_primes(*window_bounds(5000.0, 0.1, 2))
        spec = SumSpec(Family.Sigma, 2, 5000.0, 0.1)
        w = np.log(primes.astype(float))
        rng = np.random.default_rng(7)
        for t in rng.uniform(-3, 3, size=8):
            want = direct_sum(primes.astype(float) ** 2, w, t)
            got = eval_sum(spec, float(t), primes)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_conjugate_symmetry(self):
        gamma = 0.95
        table = build_table(gamma, 2000.0, 0.1, 2)
        spec = SumSpec(Family.S, 2, 2000.0, 0.1, gamma)
        rng = np.random.default_rng(11)
        for t in rng.uniform(-50, 50, size=25):
            a = eval_sum(spec, float(t), table)
            b = eval_sum(spec, float(-t), table)
            assert b == pytest.approx(a.conjugate(), rel=1e-12, abs=1e-12)
        # continuous family too
        for t in (0.003, 0.21, 1.7):
            a = eval_sum(I_SPEC, t)
            b = eval_sum(I_SPEC, -t)
            assert b == pytest.approx(a.conjugate(), rel=1e-9, abs=1e-9)

    def test_triangle_bound(self):
        gamma = 0.92
        table = build_table(gamma, 3000.0, 0.2, 2)
        spec = SumSpec(Family.S, 2, 3000.0, 0.2, gamma)
        peak = abs(eval_sum(spec, 0.0, table))
        rng = np.random.default_rng(3)
        for t in rng.uniform(-100, 100, size=50):
            assert abs(eval_sum(spec, float(t), table)) <= peak * (1 + 1e-12)

    def test_i_decay_envelope(self):
        # |I(t)| <= 2 X^(1/k - 1) min(X, 1/|t|)
        x = 100.0
        for t in np.geomspace(1e-4, 10.0, 12):
            bound = 2.0 * x ** -0.5 * min(x, 1.0 / t)
            assert abs(eval_sum(I_SPEC, float(t))) <= bound

    def test_euler_gap(self):
        # continuous vs integer family stay within 4(1 + |t| X) at k=2
        spec_u = SumSpec(Family.U, 2, 400.0, 0.1)
        spec_i = SumSpec(Family.I, 2, 400.0, 0.1)
        for t in (0.0, 1e-3, 0.01, 0.07, 0.3, 1.0):
            gap = abs(eval_sum(spec_u, t) - eval_sum(spec_i, t))
            assert gap <= 4.0 * (1.0 + t * 400.0)

    def test_empty_window_gives_zero(self):
        spec = SumSpec(Family.U, 2, 24.0, 0.99)
        assert eval_sum(spec, 0.3) == 0


class TestSpecValidation:
    def test_s_requires_table(self):
        gamma = 0.9
        spec = SumSpec(Family.S, 2, 100.0, 0.25, gamma)
        with pytest.raises(SpecMismatch):
            eval_sum(spec, 0.0, None)

    def test_s_rejects_mismatched_table(self):
        gamma = 0.9
        table = build_table(gamma, 100.0, 0.25, 2)
        spec = SumSpec(Family.S, 2, 200.0, 0.25, gamma)
        with pytest.raises(SpecMismatch):
            eval_sum(spec, 0.0, table)

    def test_sigma_rejects_ps_table(self):
        gamma = 0.9
        table = build_table(gamma, 100.0, 0.25, 2)
        spec = SumSpec(Family.Sigma, 2, 100.0, 0.25)
        with pytest.raises(SpecMismatch):
            eval_sum(spec, 0.0, table)

    def test_sigma_rejects_out_of_window_primes(self):
        spec = SumSpec(Family.Sigma, 2, 100.0, 0.25)
        with pytest.raises(SpecMismatch):
            eval_sum(spec, 0.0, np.array([3, 7]))  # 9 <= 25, outside

    def test_s_needs_admissible_gamma(self):
        with pytest.raises(AdmissibilityError):
            SumSpec(Family.S, 2, 100.0, 0.25, 0.85)

    def test_s_needs_gamma(self):
        with pytest.raises(ValueError):
            SumSpec(Family.S, 2, 100.0, 0.25)

    def test_bad_k_and_lambda0(self):
        with pytest.raises(ValueError):
            SumSpec(Family.U, 5, 100.0, 0.25)
        with pytest.raises(ValueError):
            SumSpec(Family.U, 2, 100.0, 1.5)


class TestMoments:
    def test_single_term_unit_moment(self):
        # window holding only n=1: the sum is e(t), |.|^m == 1
        spec = SumSpec(Family.U, 2, 1.0, 0.5)
        res = moment_integral(spec, 2, (0.0, 1.0), 256)
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.m == 2 and res.grid_points == 256 and res.x_max == 1.0

    def test_full_period_quartic_matches_diagonal_count(self):
        # periodic trapezoid over [0,1] is exact once the grid outruns the
        # largest frequency 2*x_max
        spec = SumSpec(Family.U, 2, 100.0, 0.25)
        n = np.arange(6, 11)
        want = quartic_moment_oracle(n ** 2, np.ones(5))
        got = moment_integral(spec, 4, (0.0, 1.0), 256).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_full_period_quartic_weighted(self):
        gamma = 0.9
        table = build_table(gamma, 400.0, 0.05, 2)
        spec = SumSpec(Family.S, 2, 400.0, 0.05, gamma)
        want = quartic_moment_oracle(table.primes ** 2, table.weights)
        got = moment_integral(spec, 4, (0.0, 1.0), 1024, table).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_full_period_mean_square(self):
        gamma = 0.9
        table = build_table(gamma, 400.0, 0.05, 2)
        spec = SumSpec(Family.S, 2, 400.0, 0.05, gamma)
        want = float(np.sum(table.weights ** 2))
        got = moment_integral(spec, 2, (0.0, 1.0), 1024, table).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_grid_refinement_stable(self):
        # grids must outrun the top frequency 2*x_max before refinement
        # stabilizes; beyond that doubling moves the value < 1%
        gamma = 0.95
        table = build_table(gamma, 10000.0, 0.1, 2)
        spec = SumSpec(Family.S, 2, 10000.0, 0.1, gamma)
        iv = (0.0, 1.0)
        coarse = moment_integral(spec, 4, iv, 1 << 16, table).value
        fine = moment_integral(spec, 4, iv, 1 << 17, table).value
        assert abs(fine - coarse) < 0.01 * abs(fine)
        want = quartic_moment_oracle(table.primes ** 2, table.weights)
        assert fine == pytest.approx(want, rel=1e-9)

    def test_validation(self):
        spec = SumSpec(Family.U, 2, 100.0, 0.25)
        with pytest.raises(ValueError):
            moment_integral(spec, 3, (0.0, 1.0), 256)
        with pytest.raises(ValueError):
            moment_integral(spec, 2, (0.0, 1.0), 128)
        with pytest.raises(ValueError):
            moment_integral(spec, 2, (1.0, 1.0), 256)


class TestAsymGap:
    def test_s_vs_sigma_matches_manual(self):
        gamma = 0.9
        gap, slope = asym_gap(GapKind.S_vs_Sigma,
                              growth_ladder(gamma, 1600.0, 0.1, 2), [0.0])
        table = build_table(gamma, 1600.0, 0.1, 2)
        primes = sieve_primes(*window_bounds(1600.0, 0.1, 2))
        s0 = eval_sum(SumSpec(Family.S, 2, 1600.0, 0.1, gamma), 0.0, table)
        g0 = eval_sum(SumSpec(Family.Sigma, 2, 1600.0, 0.1), 0.0, primes)
        assert gap == pytest.approx(abs(s0 - 0.9 * g0), rel=1e-12)
        assert math.isfinite(slope)

    def test_sigma_vs_u_nonnegative(self):
        gap, slope = asym_gap(GapKind.Sigma_vs_U,
                              growth_ladder(0.9, 3200.0, 0.1, 2),
                              np.linspace(0, 1, 17))
        assert gap >= 0.0
        assert math.isfinite(slope)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            asym_gap(GapKind.S_vs_Sigma,
                     growth_ladder(0.9, 1600.0, 0.1, 2), [])


class TestGrowthLadder:
    @pytest.mark.parametrize("k, x_max", [(2, 1.6e5), (3, 1e9)])
    def test_rungs_match_build_table(self, k, x_max):
        gamma = 0.995
        rungs = growth_ladder(gamma, x_max, 0.1, k)
        assert [t.x_max for _, t in rungs] == [x_max / 16, x_max / 4, x_max]
        for primes, table in rungs:
            want = build_table(gamma, table.x_max, 0.1, k)
            assert (table.gamma, table.lambda0, table.k) == (gamma, 0.1, k)
            assert np.array_equal(table.primes, want.primes)
            assert np.array_equal(table.weights, want.weights)
            assert table.density_ratio == want.density_ratio
            assert np.array_equal(
                primes, sieve_primes(*window_bounds(table.x_max, 0.1, k)))
            assert len(want) > 0

    def test_every_rung_is_checked(self):
        # the bottom rung x_max/16 = 2 admits no table window
        with pytest.raises(ValueError):
            growth_ladder(0.995, 32.0, 0.1, 2)


class TestScan:
    def test_tscan_matches_pointwise(self):
        gamma = 0.95
        cases = [
            (SumSpec(Family.S, 2, 3000.0, 0.1, gamma), build_table(gamma, 3000.0, 0.1, 2)),
            (SumSpec(Family.Sigma, 2, 3000.0, 0.1),
             sieve_primes(*window_bounds(3000.0, 0.1, 2))),
            (SumSpec(Family.U, 2, 3000.0, 0.1), None),
            (SumSpec(Family.I, 2, 3000.0, 0.1), None),
        ]
        ts = np.linspace(-2, 2, 41)
        for spec, table in cases:
            vals = tscan(spec, ts, table)
            for i in (0, 7, 20, 40):
                assert vals[i] == eval_sum(spec, float(ts[i]), table)

    def test_export_round_trip(self, tmp_path):
        spec = SumSpec(Family.U, 2, 100.0, 0.25)
        ts = np.linspace(0, 1, 9)
        vals = tscan(spec, ts)
        path = tmp_path / "scan.csv"
        n = export_tscan(str(path), ts, vals, {"Delta": 0.0086, "H": 53.79})
        text = path.read_text()
        assert n == len(text.encode())
        lines = text.splitlines()
        assert lines[0].startswith("# Delta = ")
        assert lines[1].startswith("# H = ")
        rows = list(csv.reader(lines[2:]))
        assert rows[0] == ["t", "re", "im", "abs"]
        assert len(rows) == 10
        got = complex(float(rows[3][1]), float(rows[3][2]))
        assert got == pytest.approx(vals[2], rel=1e-15)
        assert float(rows[3][3]) == pytest.approx(abs(vals[2]), rel=1e-15)

    def test_export_no_marks(self, tmp_path):
        path = tmp_path / "scan.csv"
        export_tscan(str(path), [0.0], [complex(1, 0)])
        assert path.read_text().splitlines()[0] == "t,re,im,abs"
