"""Sieve, PS membership, and table tests.

Oracles: trial division for the sieve, mpmath at 50 digits for membership,
brute-force window filters for tables.
"""

import csv
import math

import mpmath
import numpy as np
import pytest

from psquintet import ps_primes
from psquintet.errors import CapacityExceeded
from psquintet.ps_primes import (
    GammaParam,
    build_table,
    export_table,
    is_ps_prime,
    ps_prime_count,
    sieve_primes,
    window_bounds,
)


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def ps_oracle(p, gamma):
    # 50-digit decision, independent code path from the library's escalation
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        return int(mpmath.floor(mpmath.power(p, g))) < int(mpmath.floor(mpmath.power(p + 1, g))) \
            or mpmath.power(p, g) == mpmath.floor(mpmath.power(p, g))


class TestSieve:
    def test_small_ranges(self):
        assert sieve_primes(2, 10).tolist() == [2, 3, 5, 7]
        assert sieve_primes(90, 100).tolist() == [97]
        assert sieve_primes(2, 1).tolist() == []

    def test_against_trial_division_around_1e6(self):
        got = sieve_primes(10 ** 6, 10 ** 6 + 100).tolist()
        assert got == trial_division_primes(10 ** 6, 10 ** 6 + 100)

    def test_counts(self):
        assert len(sieve_primes(2, 10 ** 4)) == 1229
        assert len(sieve_primes(2, 10 ** 5)) == 9592

    def test_segmented_crossing(self):
        # range spanning several segments agrees with one-shot small sieve
        lo, hi = 4194200, 4194400
        assert sieve_primes(lo, hi).tolist() == trial_division_primes(lo, hi)

    def test_span_budget(self, monkeypatch):
        monkeypatch.setattr(ps_primes, "_MAX_SPAN", 10 ** 6)
        with pytest.raises(CapacityExceeded):
            sieve_primes(2, 10 ** 7)


class TestPsMembership:
    def test_known_values(self):
        assert is_ps_prime(7, 0.9)[0] is True      # [5.758, 6.498) contains 6
        assert is_ps_prime(13, 0.9)[0] is False    # [10.059, 10.752) has none
        assert is_ps_prime(2, 0.999999)[0] is True

    def test_certainty_flag_values(self):
        member, certainty = is_ps_prime(7, 0.9)
        assert certainty in ("guarded", "escalated")

    def test_against_50_digit_oracle(self):
        for gamma in (0.90, 0.95, 0.99):
            for p in sieve_primes(2, 2000):
                p = int(p)
                assert is_ps_prime(p, gamma)[0] == ps_oracle(p, gamma), (p, gamma)

    def test_accepts_gamma_param(self):
        assert is_ps_prime(7, GammaParam(0.9)) == is_ps_prime(7, 0.9)


class TestGammaParam:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            GammaParam(1.0)
        with pytest.raises(ValueError):
            GammaParam(0.0)

    def test_admissibility_flags(self):
        g = GammaParam(0.99)
        assert g.density_admissible
        assert g.theorem_admissible(2)
        assert not g.theorem_admissible(3)
        assert GammaParam(0.95).density_admissible
        assert not GammaParam(0.95).theorem_admissible(2)
        assert not GammaParam(0.85).density_admissible


class TestBuildTable:
    def test_window_bounds(self):
        assert window_bounds(100.0, 0.25, 2) == (6, 10)
        assert window_bounds(100.0, 0.01, 2) == (2, 10)
        assert window_bounds(1000.0, 0.1, 3) == (5, 10)

    def test_single_entry_example(self):
        table = build_table(0.9, 100.0, 0.25, 2)
        assert table.primes.tolist() == [7]
        assert table.weights[0] == pytest.approx(7 ** 0.1 * math.log(7), rel=1e-12)

    def test_xmax_guard(self):
        with pytest.raises(ValueError):
            build_table(0.9, 3.0, 0.5, 2)

    def test_empty_via_narrow_window(self):
        table = build_table(0.9, 24.0, 0.99, 2)  # window (23.76, 24], no square
        assert len(table) == 0

    def test_matches_brute_filter(self):
        table = build_table(0.95, 10 ** 6, 0.1, 2)
        lo, hi = window_bounds(10 ** 6, 0.1, 2)
        brute = [int(p) for p in sieve_primes(lo, hi)
                 if ps_oracle(int(p), 0.95)]
        assert table.primes.tolist() == brute
        assert np.all(table.weights > 0)
        assert np.all(np.diff(table.primes) > 0)

    def test_density_ratio_reported(self):
        table = build_table(0.9, 10 ** 6, 0.1, 2)
        assert 0.5 < table.density_ratio < 1.5


class TestDensityDiagnostic:
    def test_bracket_at_1e5(self):
        count = ps_prime_count(10 ** 5, 0.9)
        norm = (10 ** 5) ** 0.9 / math.log(10 ** 5)
        assert 0.7 <= count / norm <= 1.3


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        table = build_table(0.99, 2000.0, 0.1, 2)
        path = tmp_path / "table.csv"
        n_bytes = export_table(table, str(path))
        assert n_bytes == path.stat().st_size > 0
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["p", "weight"]
        assert [int(p) for p, _ in rows] == table.primes.tolist()
        # bit-exact via %.17g
        assert [float(w) for _, w in rows] == table.weights.tolist()
